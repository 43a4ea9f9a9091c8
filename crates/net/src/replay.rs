//! Deterministic wire-trace replay with byte-compared transcripts.
//!
//! A trace ([`fv_api::trace`]) is a sequence of `send` lines and `recv`
//! frames. Replay walks it in order, **batching consecutive `send`s
//! into one socket write** so the server sees the same pipelining the
//! recorded client produced — that is what makes run batching, `E_BUSY`
//! rejections, and `skipped` tails reproduce bit-for-bit. After each
//! send batch it reads one reply frame per recorded `recv` and writes
//! down what actually came back.
//!
//! The comparison artifact is the **received transcript**: the replay's
//! `recv` events serialized with [`fv_api::format_trace`]. Two replays
//! of the same trace against fresh servers must produce byte-identical
//! received transcripts, and both must equal the recorded one.
//!
//! There is one replay: over a socket. [`replay_remote`] drives a live
//! server; [`replay_local`] boots a private [`Server`] and drives that,
//! so no second copy of the server's reply rules exists to drift.

use crate::client::pipelined;
use crate::frame::read_reply;
use crate::server::{Server, ServerConfig};
use fv_api::{format_trace, ApiError, TraceEvent};

/// What a replay produced, ready for byte comparison.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Request lines written.
    pub sends: usize,
    /// Reply frames read, in order.
    pub replies: Vec<TraceEvent>,
    /// `format_trace` of [`ReplayOutcome::replies`] — the replay's
    /// received transcript.
    pub received: String,
    /// `format_trace` of the trace's recorded `recv` events — what the
    /// original exchange answered.
    pub expected: String,
}

impl ReplayOutcome {
    /// Whether the replay reproduced the recorded replies byte-for-byte.
    pub fn matches(&self) -> bool {
        self.received == self.expected
    }

    /// First diverging transcript line as `(line_no, expected, received)`
    /// — `None` when [`ReplayOutcome::matches`].
    pub fn first_divergence(&self) -> Option<(usize, String, String)> {
        if self.matches() {
            return None;
        }
        let mut exp = self.expected.lines();
        let mut got = self.received.lines();
        let mut line_no = 0;
        loop {
            line_no += 1;
            match (exp.next(), got.next()) {
                (Some(e), Some(g)) if e == g => continue,
                (e, g) => {
                    return Some((
                        line_no,
                        e.unwrap_or("<end of transcript>").to_string(),
                        g.unwrap_or("<end of transcript>").to_string(),
                    ))
                }
            }
        }
    }
}

/// The recorded `recv` events of `events`, serialized as a standalone
/// trace — the canonical transcript replays are compared against.
pub fn recv_transcript(events: &[TraceEvent]) -> String {
    let recvs: Vec<TraceEvent> = events.iter().filter(|e| !e.is_send()).cloned().collect();
    format_trace(&recvs)
}

/// Replay a trace against a live server at `addr`.
///
/// Consecutive `send` events go out as one `pipelined` write; each
/// recorded `recv` reads one frame back. The server
/// closing the connection before every expected frame arrived is a
/// typed `E_IO` error.
pub fn replay_remote(addr: &str, events: &[TraceEvent]) -> Result<ReplayOutcome, ApiError> {
    let (sends, replies) = pipelined(addr, |reader, tx| {
        let mut sends = 0usize;
        let mut replies = Vec::new();
        let mut batch = String::new();
        for event in events {
            match event {
                TraceEvent::Send(line) => {
                    batch.push_str(line);
                    batch.push('\n');
                    sends += 1;
                }
                TraceEvent::Recv(_) => {
                    if !batch.is_empty() {
                        let _ = tx.send(std::mem::take(&mut batch));
                    }
                    match read_reply(reader)? {
                        Some(reply) => replies.push(TraceEvent::Recv(reply)),
                        None => {
                            return Err(ApiError::io(
                                "server closed the connection mid-replay (expected another \
                                 reply frame)",
                            ))
                        }
                    }
                }
            }
        }
        if !batch.is_empty() {
            let _ = tx.send(batch);
        }
        Ok((sends, replies))
    })?;

    Ok(ReplayOutcome {
        sends,
        received: recv_transcript(&replies),
        expected: recv_transcript(events),
        replies,
    })
}

/// Replay a trace against a private server of its own: a default-config
/// [`Server`] bound on an ephemeral loopback port for this one replay and
/// shut down after it. Every reply is the real server's, so a trace
/// recorded against a default-config server — transport controls and
/// skipped tails included — replays byte for byte.
pub fn replay_local(events: &[TraceEvent]) -> Result<ReplayOutcome, ApiError> {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .map_err(|e| ApiError::io(format!("bind a private replay server: {e}")))?;
    let outcome = replay_remote(&server.local_addr().to_string(), events);
    server.shutdown();
    server.join();
    outcome
}
