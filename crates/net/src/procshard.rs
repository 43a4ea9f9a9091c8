//! Process shards: the [`Link`] that runs a shard in a child OS process,
//! speaking a length-framed control protocol over the child's stdin and
//! stdout.
//!
//! Everything that crosses the parent↔child seam is serializable text or
//! raw pixel bytes — requests as their canonical wire grammar
//! (`fv_api::codec`), a run's answer as the finished `ok`/`err` reply
//! frames the asker gets (`crate::frame`), sessions as [`SessionImage`](fv_api::SessionImage)
//! text, reports as [`ShardReport`]'s own records below. The
//! child never sees an `Engine` value from the parent and vice versa,
//! which is the whole point: a shard that segfaults takes its sessions
//! with it, answers [`ErrorCode::ShardDown`] (`E_SHARD_DOWN`) from then
//! on, and leaves the server and every other shard healthy.
//!
//! The codec is four functions over the seam's two types: the parent's
//! [`ChildLink`] is `encode_op → exchange → decode_reply`, the child's
//! [`worker_main`] is `decode_op → WorkerCore::serve → encode_reply`.
//! Neither side dispatches on op kinds beyond that — `serve` is the same
//! function thread shards call by value, which is what keeps the two
//! backends identical. The server simulation checks that they are: its
//! process worlds serve every op through all four functions in memory
//! (`in_memory`, no child) and hold the answers to the same oracle as
//! its thread worlds. What needs a real child — spawn, `hello`, a
//! SIGKILL, EOF, reaping — is root `tests/procshard_e2e.rs`.
//!
//! ## Frame layer
//!
//! Every message is one frame: a 4-byte big-endian payload length, then
//! the payload. A payload starts with one `\n`-terminated UTF-8 header
//! line; depending on the verb it continues with more lines and/or
//! *blobs* (a decimal `<len>\n` line followed by exactly `len` raw
//! bytes). Requests and reports fit in lines; reply frames, session
//! images, error messages, and framebuffer pixels travel as blobs.
//!
//! ## Protocol grammar
//!
//! Child → parent, once, as its first stdout frame:
//!
//! ```text
//! hello <shard>
//! ```
//!
//! Parent → child (one outstanding at a time per shard; the shard's
//! drain thread serializes), and the reply each must produce:
//!
//! ```text
//! run <publish 0|1> <n> <session>      → run-done dropped=<0|1> frames=<k>
//!   <n request lines>                      frame=<0|1>
//!                                        <reply blob: k ok/err frames>
//!                                        [frame <w> <h> <nrects>
//!                                         <nrects "x y w h" lines>
//!                                         <rgb blob>]
//! close <session>                      → closed <0|1>
//! end <session>                        → closed <0|1>
//! report                               → report shard=<i> runs=<r>
//!                                          requests=<q> max_run=<m>
//!                                          lat_us=<counts> lat_max_us=<u>
//!                                          cache=<e>,<h>,<m>,<ev>,<de>,<dh>,<dm>
//!                                          sessions=<k>
//!                                        <k "session datasets=<n>
//!                                           requests=<r> bytes=<b>
//!                                           name=<name>" lines>
//! snapshot <session>                   → image <0|1> [image blob]
//! install <session>                    → installed ok
//!   <image blob>                       | installed err <CODE>
//!                                        <msg blob>
//! ```
//!
//! The end of the child's stdin is its shutdown: the worker exits on EOF.
//!
//! ## Topology
//!
//! [`spawn`] launches `worker_cmd` once per shard (`fvtool shard-worker`,
//! in production and in the tests alike) with piped stdin and stdout,
//! and reads each child's `hello` off its own pipe. The pipes belong to
//! the parent alone — nothing else can dial them — so there is nothing
//! to pair. Each child becomes a [`ChildLink`] owned by that shard's
//! drain thread (`crate::shard`), which calls it strictly in queue
//! order: encode, write, read, decode — or the typed `E_SHARD_DOWN`
//! refusal if the child is gone. A run's reply blob is written to the
//! asker unchanged, so the parent decodes it through the one reply
//! decoder first: it must hold exactly the `k` frames its header
//! counts, or the reply is as corrupt as any other malformed one. The
//! child runs [`worker_main`]: a single-threaded loop around a
//! [`WorkerCore`] with its own per-process [`DatasetCache`] (the cache
//! seam is per child; `stats` sums the gauges each child's report
//! carries).

#![allow(
    clippy::disallowed_methods,
    reason = "the process shard backend starts its worker processes here"
)]

use crate::frame::decode_replies;
use crate::metrics::LatencyHistogram;
use crate::poll::{self, PollEntry};
use crate::server::ServerConfig;
use crate::shard::{
    Backend, Link, PubFrame, RunDone, SessionReport, ShardOp, ShardReply, ShardReport, Shards,
    WorkerCore,
};
use fv_api::record::{self, field, num, Token};
use fv_api::{
    format_request, format_session_image, parse_request, parse_session_image, ApiError,
    DatasetCache, ErrorCode, SessionId, SessionStore,
};
use fv_render::Framebuffer;
use fv_wall::tile::Viewport;
use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Upper bound on one protocol frame. Must fit a keyframe-sized
/// rasterization (scene RGB) with room to spare; anything larger is a
/// corrupt length prefix, not a legitimate message.
const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Upper bound on the one fixed-shape frame, `hello <shard>`.
const MAX_GREETING: usize = 64;

/// How long `spawn` waits for every child to say `hello`.
const HELLO_DEADLINE: Duration = Duration::from_secs(10);

/// How long a dropped [`ChildLink`] waits for its child to exit after
/// closing its pipes before killing it — the zero-orphans guarantee.
const REAP_DEADLINE: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------

fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Read one frame of at most `limit` payload bytes. The buffer grows
/// with the bytes that actually arrive — a length prefix is a claim, not
/// a reason to allocate — and a stream that ends short of its prefix is
/// `UnexpectedEof`.
fn read_frame(stream: &mut impl Read, limit: usize) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > limit {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {limit}-byte limit"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(64 * 1024));
    stream.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ended after {} of {len} bytes", payload.len()),
        ));
    }
    Ok(payload)
}

/// Append a blob (`<len>\n` + raw bytes) to a payload under construction.
fn push_blob(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(format!("{}\n", bytes.len()).as_bytes());
    out.extend_from_slice(bytes);
}

/// Sequential reader over a received payload: lines, blobs, and a
/// trailing-bytes check. Every decode error is a typed `ApiError` so
/// both sides fail loudly on protocol corruption instead of panicking.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    fn line(&mut self) -> Result<&'a str, ApiError> {
        let pos = self
            .buf
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ApiError::parse("frame truncated: missing line terminator"))?;
        let line = std::str::from_utf8(&self.buf[..pos])
            .map_err(|_| ApiError::parse("frame line is not valid UTF-8"))?;
        self.buf = &self.buf[pos + 1..];
        Ok(line)
    }

    fn blob(&mut self) -> Result<&'a [u8], ApiError> {
        let len: usize = num(self.line()?, "blob length")?;
        if len > self.buf.len() {
            return Err(ApiError::parse(format!(
                "frame truncated: blob wants {len} bytes, {} remain",
                self.buf.len()
            )));
        }
        let (blob, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(blob)
    }

    fn text_blob(&mut self) -> Result<&'a str, ApiError> {
        std::str::from_utf8(self.blob()?).map_err(|_| ApiError::parse("blob is not valid UTF-8"))
    }

    /// Parse a header's item count, refusing one the rest of the payload
    /// cannot hold (every counted item is at least a one-byte line) — so
    /// a corrupt count is a typed error, never a huge reservation.
    fn count(&self, token: &str, what: &str) -> Result<usize, ApiError> {
        let n = num(token, what)?;
        if n > self.buf.len() {
            return Err(ApiError::parse(format!(
                "frame truncated: {what} {n} exceeds the {} bytes that remain",
                self.buf.len()
            )));
        }
        Ok(n)
    }

    fn done(&self) -> Result<(), ApiError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ApiError::parse(format!(
                "{} unexpected trailing bytes in frame",
                self.buf.len()
            )))
        }
    }
}

fn flag(token: &str) -> Result<bool, ApiError> {
    <bool as Token>::get(token).ok_or_else(|| ApiError::parse(format!("bad 0|1 flag {token:?}")))
}

// ---------------------------------------------------------------------
// Message codec (both sides)
// ---------------------------------------------------------------------

/// Encode an op as a parent→child payload.
fn encode_op(op: &ShardOp) -> Vec<u8> {
    match op {
        ShardOp::Run {
            session,
            requests,
            publish,
        } => {
            let mut out =
                format!("run {} {} {session}\n", *publish as u8, requests.len()).into_bytes();
            for request in requests {
                out.extend_from_slice(format_request(request).as_bytes());
                out.push(b'\n');
            }
            out
        }
        ShardOp::Close { session, end } => {
            format!("{} {session}\n", if *end { "end" } else { "close" }).into_bytes()
        }
        ShardOp::Report => b"report\n".to_vec(),
        ShardOp::Snapshot { session } => format!("snapshot {session}\n").into_bytes(),
        ShardOp::Install { session, image } => {
            let mut out = format!("install {session}\n").into_bytes();
            push_blob(&mut out, format_session_image(image).as_bytes());
            out
        }
    }
}

fn decode_op(payload: &[u8]) -> Result<ShardOp, ApiError> {
    let mut c = Cursor::new(payload);
    let header = c.line()?;
    let (verb, rest) = header.split_once(' ').unwrap_or((header, ""));
    let op = match verb {
        "run" => {
            let mut parts = rest.splitn(3, ' ');
            let (Some(publish), Some(n), Some(session)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(ApiError::parse(format!("bad run header {header:?}")));
            };
            let n = c.count(n, "request count")?;
            let mut requests = Vec::with_capacity(n);
            for _ in 0..n {
                requests.push(parse_request(c.line()?)?);
            }
            ShardOp::Run {
                session: SessionId::new(session)?,
                requests,
                publish: flag(publish)?,
            }
        }
        "close" | "end" => ShardOp::Close {
            session: SessionId::new(rest)?,
            end: verb == "end",
        },
        "report" if rest.is_empty() => ShardOp::Report,
        "snapshot" => ShardOp::Snapshot {
            session: SessionId::new(rest)?,
        },
        "install" => ShardOp::Install {
            session: SessionId::new(rest)?,
            image: parse_session_image(c.text_blob()?)?,
        },
        _ => return Err(ApiError::parse(format!("unknown op {header:?}"))),
    };
    c.done()?;
    Ok(op)
}

fn encode_reply(reply: &ShardReply) -> Vec<u8> {
    match reply {
        ShardReply::Run(done) => encode_run_done(done),
        ShardReply::Closed(existed) => format!("closed {}\n", *existed as u8).into_bytes(),
        ShardReply::Report(report) => encode_report(report),
        ShardReply::Image(image) => {
            let mut out = format!("image {}\n", image.is_some() as u8).into_bytes();
            if let Some(image) = image {
                push_blob(&mut out, format_session_image(image).as_bytes());
            }
            out
        }
        ShardReply::Installed(Ok(())) => b"installed ok\n".to_vec(),
        ShardReply::Installed(Err(e)) => {
            let mut out = format!("installed err {}\n", e.code.as_str()).into_bytes();
            push_blob(&mut out, e.message.as_bytes());
            out
        }
    }
}

/// Decode the child's answer to `op`. A reply of the wrong kind for the
/// op is as corrupt as a malformed one.
fn decode_reply(payload: &[u8], op: &ShardOp) -> Result<ShardReply, ApiError> {
    let mut c = Cursor::new(payload);
    let header = c.line()?;
    let (verb, rest) = header.split_once(' ').unwrap_or((header, ""));
    let reply = match (op, verb) {
        (ShardOp::Run { session, .. }, "run-done") => {
            ShardReply::Run(decode_run_done(header, &mut c, session)?)
        }
        (ShardOp::Close { .. }, "closed") => ShardReply::Closed(flag(rest)?),
        (ShardOp::Report, "report") => ShardReply::Report(decode_report(header, &mut c)?),
        (ShardOp::Snapshot { .. }, "image") => ShardReply::Image(if flag(rest)? {
            Some(parse_session_image(c.text_blob()?)?)
        } else {
            None
        }),
        (ShardOp::Install { .. }, "installed") if rest == "ok" => ShardReply::Installed(Ok(())),
        (ShardOp::Install { .. }, "installed") => {
            let code = rest
                .strip_prefix("err ")
                .and_then(ErrorCode::from_wire)
                .ok_or_else(|| ApiError::parse(format!("bad install reply {header:?}")))?;
            ShardReply::Installed(Err(ApiError::new(code, c.text_blob()?)))
        }
        _ => {
            return Err(ApiError::parse(format!(
                "reply {header:?} does not answer the op sent"
            )))
        }
    };
    c.done()?;
    Ok(reply)
}

fv_api::wire_record! {
    /// The `run-done` header; the reply blob and, with `frame`, the
    /// publish rasterization follow it.
    struct RunDoneHead {
        dropped: bool => "dropped",
        /// Frames the reply blob holds.
        frames: usize => "frames",
        frame: bool => "frame",
    }
}

fn encode_run_done(done: &RunDone) -> Vec<u8> {
    let head = RunDoneHead {
        dropped: done.dropped.is_some(),
        frames: done.frames,
        frame: done.frame.is_some(),
    };
    let mut out = String::from("run-done");
    head.put_fields(&mut out);
    out.push('\n');
    let mut out = out.into_bytes();
    push_blob(&mut out, &done.reply);
    if let Some(frame) = &done.frame {
        out.extend_from_slice(
            format!(
                "frame {} {} {}\n",
                frame.wall.width(),
                frame.wall.height(),
                frame.damage.len()
            )
            .as_bytes(),
        );
        for d in &frame.damage {
            out.extend_from_slice(format!("{} {} {} {}\n", d.x, d.y, d.w, d.h).as_bytes());
        }
        push_blob(&mut out, frame.wall.bytes());
    }
    out
}

/// Decode a `run-done`. The reply blob goes to the asker as it is, so it
/// must decode into exactly the frames the header counts.
fn decode_run_done(header: &str, c: &mut Cursor, session: &SessionId) -> Result<RunDone, ApiError> {
    let head = RunDoneHead::get_fields(header)?;
    let reply = c.blob()?.to_vec();
    let frames = decode_replies(&reply)?.len();
    if frames != head.frames {
        return Err(ApiError::parse(format!(
            "run-done counts {} frames, its reply holds {frames}",
            head.frames
        )));
    }
    let frame = if head.frame {
        let fl = c.line()?;
        let mut parts = fl.split(' ');
        let (verb, w, h, nrects) = (parts.next(), parts.next(), parts.next(), parts.next());
        if verb != Some("frame") || parts.next().is_some() {
            return Err(ApiError::parse(format!("bad frame line {fl:?}")));
        }
        let w: usize = num(w.unwrap_or(""), "frame width")?;
        let h: usize = num(h.unwrap_or(""), "frame height")?;
        let nrects = c.count(nrects.unwrap_or(""), "damage rect count")?;
        if w.saturating_mul(h).saturating_mul(3) > MAX_FRAME {
            return Err(ApiError::parse(format!(
                "frame {w}x{h} is implausibly large"
            )));
        }
        let mut damage = Vec::with_capacity(nrects);
        for _ in 0..nrects {
            let rl = c.line()?;
            let mut n = rl.split(' ').map(|v| num::<usize>(v, "damage rect"));
            let (x, y, rw, rh) = (n.next(), n.next(), n.next(), n.next());
            match (x, y, rw, rh, n.next()) {
                (Some(x), Some(y), Some(rw), Some(rh), None) => damage.push(Viewport {
                    x: x?,
                    y: y?,
                    w: rw?,
                    h: rh?,
                }),
                _ => return Err(ApiError::parse(format!("bad damage rect {rl:?}"))),
            }
        }
        let rgb = c.blob()?;
        if rgb.len() != w * h * 3 {
            return Err(ApiError::parse(format!(
                "frame pixel blob is {} bytes, {w}x{h} needs {}",
                rgb.len(),
                w * h * 3
            )));
        }
        let mut wall = Framebuffer::new(w, h);
        wall.write_rect(0, 0, w, h, rgb);
        Some(PubFrame {
            session: session.clone(),
            wall,
            damage,
        })
    } else {
        None
    };
    Ok(RunDone {
        reply,
        frames,
        dropped: head.dropped.then(|| session.clone()),
        frame,
    })
}

fn encode_report(report: &ShardReport) -> Vec<u8> {
    let mut out = String::from("report");
    report.put_fields(&mut out);
    report.latency.put_fields(&mut out);
    record::put(&mut out, "cache", &report.cache);
    record::put(&mut out, "sessions", &report.sessions.len());
    out.push('\n');
    for s in &report.sessions {
        out.push_str("session");
        s.put_fields(&mut out);
        out.push('\n');
    }
    out.into_bytes()
}

fn decode_report(header: &str, c: &mut Cursor) -> Result<ShardReport, ApiError> {
    let n_sessions = c.count(field(header, "sessions")?, "session count")?;
    let mut sessions = Vec::with_capacity(n_sessions);
    for _ in 0..n_sessions {
        let row = c.line()?;
        if !row.starts_with("session ") {
            return Err(ApiError::parse(format!("bad session row {row:?}")));
        }
        sessions.push(SessionReport::get_fields(row)?);
    }
    Ok(ShardReport {
        latency: LatencyHistogram::get_fields(header)?,
        cache: record::get(header, "cache")?,
        sessions,
        ..ShardReport::get_fields(header)?
    })
}

/// One exchange with the process taken out: `op` and its reply cross the
/// codec both ways in memory. Parked process shards (`crate::shard`)
/// serve every op so, which is what puts this codec under the server
/// simulation's sweep.
#[cfg(test)]
pub(crate) fn in_memory(core: &mut WorkerCore, op: &ShardOp) -> Result<ShardReply, ApiError> {
    decode_reply(&encode_reply(&core.serve(decode_op(&encode_op(op))?)), op)
}

// ---------------------------------------------------------------------
// Parent side: spawn + ChildLink
// ---------------------------------------------------------------------

/// The typed refusal of a process shard whose child is gone.
pub(crate) fn down(shard: usize, pid: u32) -> ApiError {
    ApiError::shard_down(format!(
        "shard {shard} worker process (pid {pid}) is gone; its sessions are lost"
    ))
}

fn kill_all(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Launch `config`'s worker processes with piped stdin and stdout and
/// start the shards over them. `worker_cmd` is the argv prefix to exec
/// (`["/path/to/fvtool", "shard-worker"]`); `--shard/--scene`, and a
/// durable server's `--state-dir` (the child saves what it serves), are
/// appended per child. Fails — with every already-spawned child killed —
/// if any child dies or fails to say `hello` within the deadline.
pub(crate) fn spawn(worker_cmd: &[String], config: &ServerConfig) -> io::Result<Shards> {
    let (n, scene) = (config.shards.max(1), config.scene);
    let (program, prefix) = worker_cmd
        .split_first()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty shard worker command"))?;
    let mut children: Vec<Child> = Vec::with_capacity(n);
    for shard in 0..n {
        let mut cmd = Command::new(program);
        cmd.args(prefix)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--scene")
            .arg(format!("{}x{}", scene.0, scene.1))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(dir) = &config.state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                kill_all(&mut children);
                return Err(e);
            }
        }
    }
    let deadline = Instant::now() + HELLO_DEADLINE;
    let greeted = children
        .iter_mut()
        .enumerate()
        .try_for_each(|(shard, child)| hello(child, shard, deadline));
    if let Err(e) = greeted {
        kill_all(&mut children);
        return Err(e);
    }
    let links = children
        .into_iter()
        .enumerate()
        .map(|(shard, child)| {
            Link::Child(ChildLink {
                shard,
                child,
                dead: false,
            })
        })
        .collect();
    Shards::start(links, Backend::Procs)
}

/// Wait until `deadline` for `child`'s first stdout frame, which must be
/// `hello <shard>`. Every failure names the shard: a worker that exits
/// at startup closes its stdout, one that hangs never makes it readable.
fn hello(child: &mut Child, shard: usize, deadline: Instant) -> io::Result<()> {
    let named = |kind, what: String| io::Error::new(kind, format!("shard {shard} worker {what}"));
    let stdout = child
        .stdout
        .as_mut()
        .ok_or_else(|| named(io::ErrorKind::BrokenPipe, "has no stdout pipe".into()))?;
    let left = deadline.saturating_duration_since(Instant::now());
    let mut ready = [PollEntry::new(stdout.as_raw_fd(), true, false)];
    poll::wait(&mut ready, left.as_millis() as i32)?;
    if !(ready[0].readable || ready[0].hangup) {
        let what = format!("did not say hello within {HELLO_DEADLINE:?}");
        return Err(named(io::ErrorKind::TimedOut, what));
    }
    let greeting = read_frame(stdout, MAX_GREETING).map_err(|e| {
        let status = child.try_wait().ok().flatten();
        let status = status.map_or_else(String::new, |status| format!(" ({status})"));
        named(e.kind(), format!("sent no hello{status}: {e}"))
    })?;
    if greeting != format!("hello {shard}\n").as_bytes() {
        let what = format!("greeted with {:?}", String::from_utf8_lossy(&greeting));
        return Err(named(io::ErrorKind::InvalidData, what));
    }
    Ok(())
}

/// The parent's end of one process shard: the child, whose stdin and
/// stdout pipes carry the protocol. A transport or decode failure marks
/// the shard dead; that op and every later one then gets the typed
/// `E_SHARD_DOWN` refusal.
///
/// Dropping the link is the child's orderly end: close its pipes (EOF on
/// stdin is its shutdown), reap (kill after [`REAP_DEADLINE`]). The link
/// lives on its shard's drain thread, so [`Shards::shutdown`] stops all
/// children in parallel and no path that loses a link can leak its
/// process.
pub(crate) struct ChildLink {
    shard: usize,
    child: Child,
    dead: bool,
}

impl ChildLink {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn call(&mut self, op: ShardOp) -> ShardReply {
        if !self.dead {
            match self.exchange(&op) {
                Some(reply) => return reply,
                None => self.dead = true,
            }
        }
        op.refused(self.shard, down(self.shard, self.pid()))
    }

    /// One protocol exchange. `None` on a transport failure or a
    /// malformed reply — the protocol is corrupt and nothing the child
    /// says afterwards can be trusted.
    fn exchange(&mut self, op: &ShardOp) -> Option<ShardReply> {
        write_frame(self.child.stdin.as_mut()?, &encode_op(op)).ok()?;
        let payload = read_frame(self.child.stdout.as_mut()?, MAX_FRAME).ok()?;
        decode_reply(&payload, op).ok()
    }
}

impl Drop for ChildLink {
    fn drop(&mut self) {
        // EOF on stdin ends the worker's loop; a closed stdout fails any
        // reply it is still writing. Give it a moment to exit on its
        // own, then make sure — no orphans.
        drop(self.child.stdin.take());
        drop(self.child.stdout.take());
        let deadline = Instant::now() + REAP_DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Child side: worker_main
// ---------------------------------------------------------------------

/// Entry point of a shard worker process (`fvtool shard-worker`).
/// Announces its shard index on stdout, then serves protocol frames from
/// stdin one at a time against a `WorkerCore` with its own
/// [`DatasetCache`] (and `--state-dir`'s [`SessionStore`]), answering on
/// stdout, until EOF on stdin (the parent closed it or died — exit
/// quietly; there is nobody left to serve).
/// Errors are returned as text for the caller to print and map to a
/// nonzero exit.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let mut shard = None;
    let mut scene = None;
    let mut store = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--shard" => {
                shard = Some(
                    value("--shard")?
                        .parse::<usize>()
                        .map_err(|_| "--shard needs an index".to_string())?,
                )
            }
            "--scene" => {
                let spec = value("--scene")?;
                let (w, h) = spec
                    .split_once('x')
                    .and_then(|(w, h)| Some((w.parse().ok()?, h.parse().ok()?)))
                    .ok_or_else(|| format!("--scene needs WxH, got {spec:?}"))?;
                scene = Some((w, h));
            }
            "--state-dir" => {
                let dir = value("--state-dir")?;
                let opened = SessionStore::open(Path::new(&dir));
                store = Some(opened.map_err(|e| format!("--state-dir: {e}"))?);
            }
            other => return Err(format!("unknown shard-worker flag {other:?}")),
        }
    }
    let shard = shard.ok_or("shard-worker needs --shard <index>")?;
    let scene = scene.ok_or("shard-worker needs --scene <WxH>")?;
    let (mut input, mut output) = (io::stdin().lock(), io::stdout().lock());
    write_frame(&mut output, format!("hello {shard}\n").as_bytes())
        .map_err(|e| format!("hello: {e}"))?;
    let mut core = WorkerCore::new(shard, scene, DatasetCache::new(), store);
    loop {
        let payload = match read_frame(&mut input, MAX_FRAME) {
            Ok(payload) => payload,
            // Stdin is closed; nothing left to serve and nobody to tell.
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(format!("shard {shard}: read: {e}")),
        };
        // A corrupt frame from the parent: the channel cannot be
        // trusted, so die loudly and let the parent's link declare the
        // shard down.
        let op = decode_op(&payload).map_err(|e| format!("shard {shard}: protocol: {e}"))?;
        let reply = encode_reply(&core.serve(op));
        write_frame(&mut output, &reply).map_err(|e| format!("shard {shard}: write: {e}"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_api::{Mutation, Request, SessionImage};
    use proptest::prelude::*;

    fn core(scene: (usize, usize)) -> WorkerCore {
        WorkerCore::new(0, scene, DatasetCache::new(), None)
    }

    #[test]
    fn a_dead_child_refuses_with_shard_down_naming_the_pid() {
        let err = down(3, 4242);
        assert_eq!(err.code, ErrorCode::ShardDown);
        assert!(err.message.contains("shard 3") && err.message.contains("pid 4242"));
    }

    fn ops() -> Vec<ShardOp> {
        let s = SessionId::new("s").unwrap();
        let scenario = Mutation::LoadScenario {
            n_genes: 60,
            seed: 1,
        };
        vec![
            ShardOp::Run {
                session: s.clone(),
                requests: vec![Request::Mutate(scenario.clone())],
                publish: true,
            },
            ShardOp::Close {
                session: s.clone(),
                end: true,
            },
            ShardOp::Report,
            ShardOp::Snapshot { session: s.clone() },
            ShardOp::Install {
                session: s.clone(),
                image: SessionImage {
                    scene: (640, 480),
                    requests: 1,
                    datasets: Vec::new(),
                    log: vec![scenario],
                },
            },
        ]
    }

    #[test]
    fn corrupt_frames_are_typed_errors_not_panics() {
        for garbage in [
            &b""[..],
            b"warble\n",
            b"shutdown\n", // not an op: a closed stdin ends a worker
            b"run\n",
            b"run 1 one s\n",
            b"run 0 1 s\n",                    // missing request line
            b"run 0 18446744073709551615 s\n", // count no payload could hold
            b"install s\n5\nnot an image",     // bad blob / bad image
            b"close not a session\n",          // whitespace in name
            b"end\n",                          // no session
            b"report trailing\nextra",         // trailing bytes
        ] {
            assert!(decode_op(garbage).is_err(), "{garbage:?} must be rejected");
        }
        // Reply decoders reject corrupt payloads the same way — headers
        // whose counts no payload could hold included.
        let ops = ops();
        let [run, close, report, snapshot, install] = &ops[..] else {
            panic!("five ops");
        };
        let whole = b"run-done dropped=0 frames=1 frame=0\n10\nok 1\npong\n";
        let Ok(ShardReply::Run(done)) = decode_reply(whole, run) else {
            panic!("a well-formed run-done decodes");
        };
        assert_eq!((&done.reply[..], done.frames), (&whole[39..], 1));
        for (op, garbage) in [
            (run, &b"nope\n"[..]),
            (run, b"run-done dropped=0 frames=18446744073709551615 frame=0\n0\n"),
            (run, b"run-done dropped=0 frames=0 frame=1\n0\nframe 1 1 18446744073709551615\n"),
            (run, b"run-done dropped=0 frames=0 frame=1\n0\nframe 4294967296 4294967296 0\n0\n"),
            (run, b"run-done dropped=0 frames=0 frame=0\n"), // missing reply blob
            (run, b"run-done dropped=0 nresp=0 err=- lat=- frame=0\n"), // the old grammar
            // `frames=` disagreeing with the blob, either way
            (run, b"run-done dropped=0 frames=2 frame=0\n10\nok 1\npong\n"),
            (run, b"run-done dropped=0 frames=0 frame=0\n10\nok 1\npong\n"),
            // a blob cut off mid-frame, mid-line, or not frames at all
            (run, b"run-done dropped=0 frames=1 frame=0\n10\nok 2\npong\n"),
            (run, b"run-done dropped=0 frames=1 frame=0\n9\nok 1\npong"),
            (run, b"run-done dropped=0 frames=1 frame=0\n6\nhello\n"),
            (run, b"closed 1\n"), // well-formed, but not a run's answer
            (close, b"closed 7\n"),
            (snapshot, b"image 1\n"), // missing blob
            (snapshot, b"image 2\n"),
            (install, b"installed err E_NOPE\n"),
            (install, b"installed err E_INTERNAL\n"), // missing message blob
            (install, b"installed err E_INTERNAL\n3\nwhy5\nimage"), // trailing bytes
            (report, b"report shard=0\n"),
            (report, b"report shard=0 runs=0 requests=0 max_run=0 lat_us=0,0,0,0,0,0,0,0,0,0 lat_max_us=0 cache=0,0,0,0,0,0,0 sessions=18446744073709551615\n"),
            // the old single-key histogram
            (report, b"report shard=0 runs=0 requests=0 max_run=0 lat=0,0,0,0,0,0,0,0,0,0 lat_max_us=0 cache=0,0,0,0,0,0,0 sessions=0\n"),
        ] {
            assert!(
                decode_reply(garbage, op).is_err(),
                "{:?} must be rejected",
                String::from_utf8_lossy(garbage)
            );
        }
        // The report's histogram and cache gauges are records of fixed
        // shape: a bucket or a gauge too few or too many, a word for a
        // count, or a missing key is a typed `E_PARSE`.
        let header = |lat: &str, cache: &str| {
            format!("report shard=0 runs=0 requests=0 max_run=0 {lat} cache={cache} sessions=0\n")
        };
        let (lat, cache) = ("lat_us=0,0,0,0,0,0,0,0,0,1 lat_max_us=9", "0,0,0,0,0,0,0");
        assert!(decode_reply(header(lat, cache).as_bytes(), report).is_ok());
        for garbage in [
            header("lat_us=0,0,0,0,0,0,0,0,1 lat_max_us=9", cache),
            header("lat_us=0,0,0,0,0,0,0,0,0,0,1 lat_max_us=9", cache),
            header("lat_us=0,0,0,0,x,0,0,0,0,1 lat_max_us=9", cache),
            header("lat_us=0,0,0,0,0,0,0,0,0,1", cache),
            header(lat, "0,0,0,0,0,0"),
            // the pre-derived-map gauge quad, and one gauge too many
            header(lat, "0,0,0,0"),
            header(lat, "0,0,0,0,0,0,0,0"),
        ] {
            let err = decode_reply(garbage.as_bytes(), report).map(|_| ());
            assert_eq!(err.unwrap_err().code, ErrorCode::Parse, "{garbage:?}");
        }
    }

    /// A valid frame with `flips` bytes overwritten near its front —
    /// corruption that keeps most of the structure (headers, counts,
    /// blob lengths), which is what reaches the deep decode paths.
    fn mangle(mut frame: Vec<u8>, flips: &[(usize, u8)]) -> Vec<u8> {
        let span = frame.len().min(512);
        for &(at, byte) in flips {
            frame[at % span] = byte;
        }
        frame
    }

    proptest! {
        /// Total parsers: whatever bytes arrive, both decoders return a
        /// typed error or a well-formed value (one that re-encodes) —
        /// they never panic and never reserve from a corrupt count.
        #[test]
        fn decoders_are_total(
            noise in prop::collection::vec(any::<u8>(), 0..200),
            flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
            pick in 0usize..5,
        ) {
            let op = ops().swap_remove(pick);
            let valid_op = encode_op(&op);
            let valid_reply = encode_reply(&core((64, 48)).serve(ops().swap_remove(pick)));
            for bytes in [noise.clone(), mangle(valid_op, &flips)] {
                if let Ok(op) = decode_op(&bytes) {
                    encode_op(&op);
                }
            }
            for bytes in [noise, mangle(valid_reply, &flips)] {
                if let Ok(reply) = decode_reply(&bytes, &op) {
                    // A run's reply is only ever the frames it counts.
                    if let ShardReply::Run(done) = &reply {
                        let frames = decode_replies(&done.reply).map(|r| r.len());
                        prop_assert_eq!(frames.ok(), Some(done.frames));
                    }
                    encode_reply(&reply);
                }
            }
        }
    }

    #[test]
    fn read_frame_allocates_with_the_bytes_not_the_prefix() {
        // A maximal length prefix and then EOF: a short read, not a
        // 64 MiB buffer.
        let prefix = (MAX_FRAME as u32).to_be_bytes();
        let err = read_frame(&mut &prefix[..], MAX_FRAME).expect_err("short frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // One byte over the limit is refused before any payload byte.
        let over = (MAX_FRAME as u32 + 1).to_be_bytes();
        let err = read_frame(&mut &over[..], MAX_FRAME).expect_err("oversized frame");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // And a whole frame still reads back.
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello 0\n").unwrap();
        assert_eq!(
            read_frame(&mut &wire[..], MAX_GREETING).unwrap(),
            b"hello 0\n"
        );
    }
}
