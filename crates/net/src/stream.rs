//! fv-stream: the push-based tile-streaming plane.
//!
//! Request/response (the rest of fv-net) answers exactly one frame per
//! wire line. This module adds the *other* direction: a connection that
//! sends `subscribe <session> <TX>x<TY>` becomes a **viewer** — after
//! every executed run on that session the shard rasterizes the desktop
//! once into a wall-sized framebuffer, and the event loop fans
//! delta-encoded tile frames out to every subscriber. One render, N
//! viewers.
//!
//! ```text
//!   run executes on shard ──▸ render_desktop once ──▸ PubFrame
//!        │ completion channel (wall fb + damage rects)
//!        ▼
//!   event loop   publish: damage ∩ tile viewports → per-subscriber
//!        │        pending map (coalesce), drop-to-keyframe past the
//!        │        outbox watermark — a slow viewer never stalls anyone
//!        ▼
//!   subscribers  length-prefixed binary tile frames   [`fv_wall::stream`]
//! ```
//!
//! **Flow control.** Each subscriber owns an outbox like any other
//! connection. At publish time a subscriber whose outbox is past
//! `OUTBOX_HIGH_WATER` (`crate::protocol`) — or whose acks (optional
//! `ack <seq>` lines) trail by more than [`STREAM_ACK_LAG`] frames — has
//! its pending deltas discarded and is marked for a **fresh keyframe on
//! drain** instead of an ever-growing backlog. Pending deltas for the
//! same tile coalesce into one bounding rect. Both events are counted in
//! the `stream` section of `stats`.
//!
//! The client side is [`Watcher`]: a blocking subscriber that reassembles
//! tile frames into a local [`Framebuffer`] and can verify it against a
//! local render (`fvtool watch --verify-script`). Its two text replies
//! (the `subscribe` ack, the `unsubscribe` confirmation) are ordinary
//! reply frames, decoded by the one [`ReplyAssembler`] — fed from the
//! watcher's own byte buffer, because a `LineReader` would read ahead
//! into the binary tile frames that follow.

use crate::frame::ReplyAssembler;
use crate::metrics::StreamStats;
use fv_api::record::Token;
use fv_api::{format_wire_item, ApiError, SessionId, WireItem};
use fv_render::Framebuffer;
use fv_wall::stream::{decode, TileAssembler, TileFrame, TileStreamEncoder};
use fv_wall::tile::{TileGrid, Viewport};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::rc::Rc;
use std::time::Duration;

/// Drop-to-keyframe threshold for subscribers that send `ack <seq>`
/// lines: once the encoder's next sequence number runs more than this
/// many frames ahead of the last acknowledged one, pending deltas are
/// discarded and the subscriber re-syncs from a keyframe. Subscribers
/// that never ack opt out of ack-based pacing (the outbox watermark
/// still bounds them).
pub const STREAM_ACK_LAG: u64 = 32;

// ── server side: per-subscriber and per-session state ───────────────────

/// One connection's subscription: its tiling of the wall, the encoder
/// that owns its sequence numbers, and the coalescing pending set.
pub(crate) struct SubState {
    /// The session this subscriber watches.
    pub session: SessionId,
    /// Per-subscriber encoder — sequence numbers are per-subscriber, so
    /// a contiguous `seq` stream proves the viewer missed nothing.
    pub encoder: TileStreamEncoder,
    /// Next drain sends a full keyframe (set on subscribe, after a
    /// drop-to-keyframe, and when the session migrates or ends).
    pub need_keyframe: bool,
    /// Damage accumulated since the last drain, coalesced per tile.
    pub pending: BTreeMap<usize, Viewport>,
    /// Highest `ack <seq>` the subscriber has sent, if it paces itself.
    pub last_ack: Option<u64>,
}

impl SubState {
    pub fn new(session: SessionId, grid: TileGrid) -> SubState {
        SubState {
            session,
            encoder: TileStreamEncoder::new(grid),
            need_keyframe: true,
            pending: BTreeMap::new(),
            last_ack: None,
        }
    }

    /// Whether the subscriber's self-reported position trails the encoder
    /// far enough that queueing more deltas would only grow a backlog it
    /// can never catch up through.
    pub fn ack_lagging(&self) -> bool {
        self.last_ack
            .is_some_and(|a| self.encoder.next_seq().saturating_sub(a) > STREAM_ACK_LAG)
    }
}

/// A session with at least one subscriber: who watches it, and the most
/// recently published wall framebuffer (what keyframes and coalesced
/// deltas are cut from — it already contains every prior update, which
/// is what makes coalescing lossless).
#[derive(Default)]
pub(crate) struct SessionStream {
    pub subscribers: BTreeSet<u64>,
    pub last: Option<Rc<Framebuffer>>,
}

/// The event loop's subscription registry. Lives on the loop thread
/// (hence `Rc`, not `Arc` — the framebuffer is shared across subscriber
/// drains, never across threads).
#[derive(Default)]
pub(crate) struct StreamPlane {
    sessions: BTreeMap<SessionId, SessionStream>,
    /// The `stream` row of `stats`, counted in place; `subscribers` is
    /// filled in when reported.
    pub metrics: StreamStats,
}

impl StreamPlane {
    pub fn subscribe(&mut self, session: SessionId, conn: u64) {
        self.sessions
            .entry(session)
            .or_default()
            .subscribers
            .insert(conn);
    }

    /// Remove one subscriber; the session entry (and its retained
    /// framebuffer) dies with its last subscriber.
    pub fn unsubscribe(&mut self, session: &SessionId, conn: u64) {
        if let Some(entry) = self.sessions.get_mut(session) {
            entry.subscribers.remove(&conn);
            if entry.subscribers.is_empty() {
                self.sessions.remove(session);
            }
        }
    }

    /// Whether a run on `session` must be published (rendered + fanned
    /// out) at all.
    pub fn has_subscribers(&self, session: &SessionId) -> bool {
        self.sessions.contains_key(session)
    }

    pub fn session_mut(&mut self, session: &SessionId) -> Option<&mut SessionStream> {
        self.sessions.get_mut(session)
    }

    /// The subscribers of `session`, snapshotted (callers mutate the
    /// connection table while iterating).
    pub fn subscribers_of(&self, session: &SessionId) -> Vec<u64> {
        self.sessions
            .get(session)
            .map(|e| e.subscribers.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The latest published framebuffer for `session`, if any run has
    /// been published since its first subscriber arrived.
    pub fn last_frame(&self, session: &SessionId) -> Option<Rc<Framebuffer>> {
        self.sessions.get(session).and_then(|e| e.last.clone())
    }

    /// Live subscriber count across all sessions (the `stats` gauge).
    pub fn n_subscribers(&self) -> usize {
        self.sessions.values().map(|e| e.subscribers.len()).sum()
    }
}

// ── client side: the Watcher ────────────────────────────────────────────

/// A blocking fv-stream subscriber: connects, sends
/// `subscribe <session> <TX>x<TY>`, then decodes the binary tile-frame
/// stream, reassembling every frame into a local wall [`Framebuffer`].
///
/// ```no_run
/// # use fv_net::stream::Watcher;
/// let mut w = Watcher::connect("127.0.0.1:7171", "main", 4, 2).unwrap();
/// while let Some(frame) = w.next_frame().unwrap() {
///     println!("seq={} tile={} {} bytes", frame.seq, frame.tile, frame.pixels.len());
///     w.ack(frame.seq);
/// }
/// let fb = w.framebuffer(); // the reassembled wall
/// # let _ = fb;
/// ```
pub struct Watcher {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    assembler: TileAssembler,
    /// The server closed the connection (EOF) — as opposed to a read
    /// timeout, which also surfaces as `Ok(None)` from `next_frame`.
    hung_up: bool,
}

impl Watcher {
    /// Connect and subscribe. The server validates that the grid divides
    /// its scene evenly; its ack (`subscribed <session> <TX>x<TY> <W>x<H>`)
    /// tells the watcher the wall dimensions to assemble into.
    pub fn connect(
        addr: &str,
        session: &str,
        tiles_x: usize,
        tiles_y: usize,
    ) -> Result<Watcher, ApiError> {
        let mut stream = TcpStream::connect(addr).map_err(|e| ApiError::io(e.to_string()))?;
        let session = session.to_string();
        let tiles = (tiles_x, tiles_y);
        send(&mut stream, WireItem::Subscribe { session, tiles })?;
        let mut buf = Vec::new();
        let mut start = 0usize;
        // The ack is an ordinary reply frame. A server dying mid-reply
        // surfaces as the typed E_IO a dropped connection deserves
        // (`read_text_line` at EOF), never as a parse error on whatever
        // fragment did arrive; a refusal is the server's own typed error.
        let mut ack = ReplyAssembler::new();
        let body = loop {
            let line = read_text_line(&mut stream, &mut buf, &mut start)?;
            if let Some(reply) = ack.push_line(&line)? {
                break reply?;
            }
        };
        // "subscribed <session> <TX>x<TY> <W>x<H>"
        let fields: Vec<&str> = body.split(' ').collect();
        let dims = match fields.as_slice() {
            ["subscribed", _, _, dims] => *dims,
            _ => return Err(ApiError::parse(format!("malformed subscribe ack {body:?}"))),
        };
        let (w, h) = <(usize, usize)>::get(dims)
            .ok_or_else(|| ApiError::parse(format!("malformed wall dimensions {dims:?}")))?;
        if tiles_x == 0 || tiles_y == 0 || w % tiles_x != 0 || h % tiles_y != 0 {
            return Err(ApiError::parse(format!(
                "server wall {w}x{h} does not divide into {tiles_x}x{tiles_y} tiles"
            )));
        }
        let grid = TileGrid::new(tiles_x, tiles_y, w / tiles_x, h / tiles_y);
        Ok(Watcher {
            stream,
            buf,
            start,
            assembler: TileAssembler::new(grid),
            hung_up: false,
        })
    }

    /// Whether the stream ended because the server hung up (EOF), as
    /// opposed to a read-timeout idle. Lets callers turn an unexpected
    /// mid-stream disconnect into the typed `E_IO` it deserves instead
    /// of mistaking it for a quiet stream.
    pub fn hung_up(&self) -> bool {
        self.hung_up
    }

    /// Decode the next tile frame, applying it to the internal
    /// framebuffer. Blocks until a frame arrives; `Ok(None)` means the
    /// server hung up — or, when a read timeout is set, that the stream
    /// went idle for that long.
    pub fn next_frame(&mut self) -> Result<Option<TileFrame>, ApiError> {
        loop {
            match decode(&self.buf[self.start..]) {
                Err(e) => return Err(ApiError::parse(e.to_string())),
                Ok(Some((frame, used))) => {
                    self.start += used;
                    if self.start > 1 << 20 {
                        self.buf.drain(..self.start);
                        self.start = 0;
                    }
                    self.assembler
                        .apply(&frame)
                        .map_err(|e| ApiError::parse(e.to_string()))?;
                    return Ok(Some(frame));
                }
                Ok(None) => {
                    let mut chunk = [0u8; 64 * 1024];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => {
                            self.hung_up = true;
                            return Ok(None);
                        }
                        Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            return Ok(None)
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(ApiError::io(e.to_string())),
                    }
                }
            }
        }
    }

    /// Tell the server how far we have decoded. Optional pacing: the
    /// server answers nothing (acks are flow control, not requests), but
    /// uses the lag to drop-to-keyframe a subscriber that falls behind.
    pub fn ack(&mut self, seq: u64) {
        let _ = send(&mut self.stream, WireItem::Ack { seq });
    }

    /// Stop streaming: sends `unsubscribe`, then drains (and applies) any
    /// tile frames still in flight until the server's text confirmation
    /// arrives. The connection stays usable as a watcher object (frames,
    /// framebuffer, …) but receives no further frames.
    pub fn unsubscribe(&mut self) -> Result<(), ApiError> {
        send(&mut self.stream, WireItem::Unsubscribe)?;
        let mut reply = ReplyAssembler::new();
        loop {
            // What is next in the byte stream: a binary tile frame
            // ("tile …") or a line of the text reply ("ok 1", then
            // "unsubscribed …")? Three bytes tell; inside an open reply
            // frame every line is text.
            let pending = &self.buf[self.start..];
            if reply.mid_frame() || (pending.len() >= 3 && !pending.starts_with(b"til")) {
                let line = read_text_line(&mut self.stream, &mut self.buf, &mut self.start)?;
                match reply.push_line(&line)? {
                    Some(Ok(body)) if body.starts_with("unsubscribed") => return Ok(()),
                    Some(Ok(body)) => {
                        return Err(ApiError::parse(format!(
                            "unexpected unsubscribe reply {body:?}"
                        )))
                    }
                    Some(Err(e)) => return Err(e),
                    None => continue,
                }
            }
            if pending.len() >= 3 {
                let decoded = decode(pending).map_err(|e| ApiError::parse(e.to_string()))?;
                if let Some((frame, used)) = decoded {
                    self.start += used;
                    self.assembler
                        .apply(&frame)
                        .map_err(|e| ApiError::parse(e.to_string()))?;
                    continue;
                }
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ApiError::io("connection closed during unsubscribe")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ApiError::io(e.to_string())),
            }
        }
    }

    /// A read timeout turns [`Watcher::next_frame`] from "block forever"
    /// into "Ok(None) after `dur` of silence" — how `fvtool watch` idles
    /// out.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// The reassembled wall framebuffer (every applied frame painted in).
    pub fn framebuffer(&self) -> &Framebuffer {
        self.assembler.framebuffer()
    }

    pub fn grid(&self) -> &TileGrid {
        self.assembler.grid()
    }

    /// Highest sequence number applied so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.assembler.last_seq()
    }

    /// Total frames applied.
    pub fn frames(&self) -> u64 {
        self.assembler.frames()
    }

    /// Keyframes among them.
    pub fn keyframes(&self) -> u64 {
        self.assembler.keyframes()
    }
}

/// Write `item`'s line, as [`format_wire_item`] spells it, in one write.
fn send(stream: &mut TcpStream, item: WireItem) -> Result<(), ApiError> {
    let line = format_wire_item(&item) + "\n";
    stream
        .write_all(line.as_bytes())
        .map_err(|e| ApiError::io(e.to_string()))
}

/// Read one `\n`-terminated text line from `stream` through the watcher's
/// own buffer (a [`crate::frame::LineReader`] would swallow bytes of the
/// binary stream that follows; this buffer keeps them). EOF is `E_IO`.
fn read_text_line(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    start: &mut usize,
) -> Result<String, ApiError> {
    loop {
        if let Some(pos) = buf[*start..].iter().position(|&b| b == b'\n') {
            let end = *start + pos;
            let line = std::str::from_utf8(&buf[*start..end])
                .map_err(|_| ApiError::parse("reply line is not valid UTF-8"))?
                .trim_end_matches('\r')
                .to_string();
            *start = end + 1;
            return Ok(line);
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ApiError::io("connection closed during subscribe")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ApiError::io(e.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(s: &str) -> SessionId {
        SessionId::new(s.to_string()).unwrap()
    }

    #[test]
    fn registry_tracks_subscribers_and_drops_empty_sessions() {
        let mut plane = StreamPlane::default();
        assert!(!plane.has_subscribers(&sid("a")));
        plane.subscribe(sid("a"), 1);
        plane.subscribe(sid("a"), 2);
        plane.subscribe(sid("b"), 3);
        assert!(plane.has_subscribers(&sid("a")));
        assert_eq!(plane.n_subscribers(), 3);
        assert_eq!(plane.subscribers_of(&sid("a")), vec![1, 2]);
        plane.unsubscribe(&sid("a"), 1);
        assert!(plane.has_subscribers(&sid("a")));
        plane.unsubscribe(&sid("a"), 2);
        assert!(
            !plane.has_subscribers(&sid("a")),
            "entry died with last sub"
        );
        assert!(plane.last_frame(&sid("a")).is_none());
        assert_eq!(plane.n_subscribers(), 1);
    }

    #[test]
    fn unsubscribe_is_idempotent_and_ignores_strangers() {
        let mut plane = StreamPlane::default();
        plane.unsubscribe(&sid("ghost"), 9);
        plane.subscribe(sid("a"), 1);
        plane.unsubscribe(&sid("a"), 42);
        assert!(plane.has_subscribers(&sid("a")));
    }

    #[test]
    fn ack_lag_only_applies_to_acking_subscribers() {
        let grid = TileGrid::new(2, 2, 8, 8);
        let mut sub = SubState::new(sid("a"), grid);
        let wall = Framebuffer::new(16, 16);
        for _ in 0..(STREAM_ACK_LAG + 5) {
            sub.encoder.keyframe(&wall);
        }
        assert!(!sub.ack_lagging(), "never acked → never considered lagging");
        sub.last_ack = Some(0);
        assert!(sub.ack_lagging());
        sub.last_ack = Some(sub.encoder.next_seq());
        assert!(!sub.ack_lagging());
    }
}
