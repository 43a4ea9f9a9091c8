//! Client side of the transport: a typed request/response connection plus
//! the pipelined remote script runner `fvtool script --remote` uses.

use crate::frame::{read_reply, LineReader};
use fv_api::codec::{ScriptItem, ScriptLine};
use fv_api::{
    format_request, format_script_item, format_wire_item, parse_response, parse_script,
    transcript_block, ApiError, Request, Response, WireItem,
};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::Sender;

/// A connected client. One request at a time: [`Client::execute`] writes
/// a line and blocks for its frame. (The script runner below pipelines
/// instead.) Every line it sends is written by [`format_wire_item`].
pub struct Client {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7007`).
    pub fn connect(addr: &str) -> Result<Client, ApiError> {
        let stream =
            TcpStream::connect(addr).map_err(|e| ApiError::io(format!("connect {addr}: {e}")))?;
        let writer = stream
            .try_clone()
            .map_err(|e| ApiError::io(format!("clone stream: {e}")))?;
        Ok(Client {
            reader: LineReader::new(stream),
            writer,
        })
    }

    /// Send one raw wire line and read its single reply frame. The outer
    /// error is transport-level; the inner `Result` is the server's
    /// answer.
    pub fn roundtrip(&mut self, line: &str) -> Result<Result<String, ApiError>, ApiError> {
        writeln!(self.writer, "{line}").map_err(|e| ApiError::io(format!("send: {e}")))?;
        match read_reply(&mut self.reader)? {
            Some(reply) => Ok(reply),
            None => Err(ApiError::io("server closed the connection")),
        }
    }

    /// Send `item` and read the body of its `ok` reply; a server error is
    /// returned as it was answered.
    fn send(&mut self, item: WireItem) -> Result<String, ApiError> {
        self.roundtrip(&format_wire_item(&item))?
    }

    /// Send `item`, whose only acceptable reply is `expected`.
    fn expect(&mut self, item: WireItem, expected: &str) -> Result<(), ApiError> {
        let line = format_wire_item(&item);
        let reply = self.roundtrip(&line)??;
        if reply == expected {
            Ok(())
        } else {
            Err(ApiError::io(format!(
                "unexpected reply {reply:?} to {line:?}"
            )))
        }
    }

    /// Execute a typed request remotely: format → send → decode.
    pub fn execute(&mut self, request: &Request) -> Result<Response, ApiError> {
        let text = self.roundtrip(&format_request(request))??;
        parse_response(&text)
    }

    /// Switch (and materialize) the connection's current session.
    pub fn use_session(&mut self, name: &str) -> Result<(), ApiError> {
        let item = WireItem::Script(ScriptItem::Use(name.to_string()));
        self.expect(item, &format!("using {name}"))
    }

    /// Drop the connection's current session server-side (the connection
    /// falls back to the default session). How one-shot clients avoid
    /// leaking scratch sessions.
    pub fn close_session(&mut self) -> Result<(), ApiError> {
        let reply = self.send(WireItem::Close)?;
        if reply.starts_with("closed ") {
            Ok(())
        } else {
            Err(ApiError::io(format!("unexpected close reply {reply:?}")))
        }
    }

    /// Move a live session to another shard (`migrate` control line) by
    /// copy, confirm, delete: the source shard snapshots the session as
    /// a `SessionImage` and keeps serving it; the target rebuilds it with
    /// `Engine::restore`, which checks the dataset fingerprints and
    /// replays the mutation log. A replayed clustering is a derived-cache
    /// hit whenever the target's cache holds one over the same content —
    /// always for thread shards, which share one cache with the source;
    /// for process shards, when the target worker holds a sibling session —
    /// and is computed afresh otherwise. Any file the target's dataset
    /// cache no longer (thread shards) or never (process shards) holds is
    /// re-parsed. Only then does the source close its copy. The rebuilt session answers byte-identically. Fails typed
    /// for unknown sessions (`E_NOT_FOUND`), out-of-range shards
    /// (`E_INVALID`) and a target that refuses the image (`E_INTERNAL`
    /// naming the target's reason) — and a failed move leaves the session
    /// untouched on its source shard.
    pub fn migrate(&mut self, session: &str, shard: usize) -> Result<(), ApiError> {
        let expected = format!("migrated {session} shard={shard}");
        let session = session.to_string();
        self.expect(WireItem::Migrate { session, shard }, &expected)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ApiError> {
        self.expect(WireItem::Ping, "pong")
    }

    /// Ask the server to stop (acknowledged with `bye` before it does).
    pub fn shutdown_server(&mut self) -> Result<(), ApiError> {
        self.expect(WireItem::Shutdown, "bye")
    }

    /// Snapshot the server's metrics (`stats` control line), decoded into
    /// the typed [`crate::metrics::ServerStats`].
    pub fn stats(&mut self) -> Result<crate::metrics::ServerStats, ApiError> {
        crate::metrics::parse_stats(&self.send(WireItem::Stats)?)
    }

    /// Snapshot the automatic rebalancer (`balance` control line),
    /// decoded into the typed [`crate::balance::BalanceStatus`]: mode,
    /// decision counters, policy knobs, and the recent-move ring.
    pub fn balance_status(&mut self) -> Result<crate::balance::BalanceStatus, ApiError> {
        crate::balance::parse_balance(&self.send(WireItem::Balance { set: None })?)
    }

    /// Flip the rebalancer mode at runtime (`balance auto|off`). The
    /// policy's counters and cooldowns survive the flip.
    pub fn set_balance(&mut self, mode: crate::balance::BalanceMode) -> Result<(), ApiError> {
        let expected = format!("balance mode={mode}");
        self.expect(WireItem::Balance { set: Some(mode) }, &expected)
    }

    /// List every live session across all shards (`list-sessions`
    /// control line), merged and sorted by name server-side.
    pub fn list_sessions(&mut self) -> Result<Vec<fv_api::SessionEntry>, ApiError> {
        fv_api::parse_sessions_reply(&self.send(WireItem::ListSessions)?)
    }
}

/// Replay a script against a remote server, streaming transcript blocks
/// to `sink` — the remote counterpart of `EngineHub::run_script_streaming`
/// plus `TranscriptEntry::render`, producing byte-identical text: one
/// [`transcript_block`] of the reply text per executed request.
///
/// The whole script is parsed locally first (so parse errors carry the
/// same line numbers as local replay, and nothing is sent for a bad
/// script), then written to the socket in one `pipelined` burst while
/// frames are read back in order. On a request error the runner stops —
/// with the same `line N:`-prefixed error local replay produces — and
/// drops the connection; lines already in flight may still execute
/// server-side (mutations are never rolled back, same as a local
/// mid-script error).
pub fn run_script_remote(
    addr: &str,
    text: &str,
    mut sink: impl FnMut(&str),
) -> Result<(), ApiError> {
    let lines = parse_script(text)?;
    // One burst: the server sees the whole script buffered and batches
    // contiguous same-session runs.
    let mut wire = String::new();
    for line in &lines {
        wire.push_str(&format_script_item(&line.item));
        wire.push('\n');
    }
    pipelined(addr, |reader, tx| {
        // Sending then dropping `tx` half-closes once the burst is out.
        let _ = tx.send(wire);
        drop(tx);
        read_script_replies(&lines, reader, &mut sink)
    })
}

/// Connect to `addr` and run `read` over the reply stream while a writer
/// thread sends every chunk `read` queues on the channel, so a long
/// pipelined burst cannot deadlock against a server that stopped reading
/// to flush un-drained replies. Dropping the sender half-closes the
/// write side; a send failure surfaces as missing frames on the read
/// side.
pub(crate) fn pipelined<T>(
    addr: &str,
    read: impl FnOnce(&mut LineReader<TcpStream>, Sender<String>) -> Result<T, ApiError>,
) -> Result<T, ApiError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ApiError::io(format!("connect {addr}: {e}")))?;
    let mut write_half = stream
        .try_clone()
        .map_err(|e| ApiError::io(format!("clone stream: {e}")))?;
    let ctrl = stream
        .try_clone()
        .map_err(|e| ApiError::io(format!("clone stream: {e}")))?;
    let mut reader = LineReader::new(stream);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    #[allow(
        clippy::disallowed_methods,
        reason = "client-side writer thread so a pipelined burst cannot deadlock against a flushing server; joined below"
    )]
    let writer = std::thread::spawn(move || {
        while let Ok(chunk) = rx.recv() {
            if write_half.write_all(chunk.as_bytes()).is_err() {
                return;
            }
        }
        let _ = write_half.shutdown(Shutdown::Write);
    });
    let result = read(&mut reader, tx);
    // Tear the socket down BEFORE joining the writer: after an error we
    // stop draining responses, so for a large burst the server can stall
    // against our full receive path, stop reading, and leave the writer
    // blocked in write_all forever. Killing the socket fails that write
    // and lets the join complete.
    if result.is_err() {
        let _ = ctrl.shutdown(Shutdown::Both);
    }
    let _ = writer.join();
    result
}

fn read_script_replies(
    lines: &[ScriptLine],
    reader: &mut LineReader<TcpStream>,
    sink: &mut impl FnMut(&str),
) -> Result<(), ApiError> {
    let mut session = fv_api::EngineHub::default_session();
    for line in lines {
        let reply = read_reply(reader)?
            .ok_or_else(|| ApiError::io("server closed the connection mid-script"))?;
        match &line.item {
            ScriptItem::Use(name) => {
                // consume the `using` acknowledgement
                reply.map_err(|e| e.at_line(line.line_no))?;
                session = fv_api::SessionId::new(name.clone())?;
            }
            ScriptItem::Close(_) => {
                // consume the `closed` acknowledgement; like `use`, close
                // directives produce no transcript block
                reply.map_err(|e| e.at_line(line.line_no))?;
            }
            ScriptItem::Request(request) => {
                let text = reply.map_err(|e| e.at_line(line.line_no))?;
                sink(&transcript_block(&session, line.line_no, request, &text));
            }
        }
    }
    Ok(())
}
