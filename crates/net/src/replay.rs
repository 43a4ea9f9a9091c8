//! Deterministic wire-trace replay — against a live server or a local
//! [`EngineHub`] — with byte-compared transcripts.
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
//! Local replay drives the same events through an in-process
//! [`EngineHub`], mirroring the server's reply formatting exactly
//! (`using`/`closed` acks, `format_response` bodies, error frames, and
//! the `skipped:` tail after a mid-run failure). It covers the script
//! plane plus `ping` and bare `close`; transport controls (`stats`,
//! `migrate`, `subscribe`, …) answer with a typed `E_INVALID`, since
//! they have no single-engine meaning. `E_BUSY` also cannot arise
//! locally — there is no connection queue — so traces recorded under
//! queue pressure byte-verify against servers, not hubs.

use crate::client::pipelined;
use crate::frame::read_reply;
use fv_api::codec::ScriptItem;
use fv_api::{
    format_response, format_trace, parse_wire_line, ApiError, EngineHub, Request, SessionId,
    TraceEvent, WireItem,
};

/// What a replay produced, ready for byte comparison.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Request lines written.
    pub sends: usize,
    /// Reply frames read (or synthesized, for local replay), in order.
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

/// Replay a trace against a fresh local hub with the given scene. Reply
/// formatting mirrors the server frame-for-frame; see the module docs
/// for the supported plane.
pub fn replay_local(
    scene: (usize, usize),
    events: &[TraceEvent],
) -> Result<ReplayOutcome, ApiError> {
    let hub = &mut EngineHub::with_scene(scene.0, scene.1);
    let mut current = EngineHub::default_session();
    let mut sends = 0usize;
    let mut replies: Vec<TraceEvent> = Vec::new();
    // Pending contiguous requests — flushed as ONE run (the grouping a
    // pipelining server applies) whenever a non-request line arrives.
    let mut run: Vec<Request> = Vec::new();

    let flush_run = |hub: &mut EngineHub,
                     current: &SessionId,
                     run: &mut Vec<Request>,
                     replies: &mut Vec<TraceEvent>| {
        if run.is_empty() {
            return;
        }
        let requests = std::mem::take(run);
        let outcome = hub.execute_run_on(current, &requests);
        for response in &outcome.responses {
            replies.push(TraceEvent::Recv(Ok(format_response(response))));
        }
        if let Some((idx, e)) = outcome.error {
            let skipped = ApiError::invalid(format!(
                "skipped: request {} earlier in this pipelined run failed ({})",
                idx + 1,
                e.code.as_str()
            ));
            replies.push(TraceEvent::Recv(Err(e)));
            for _ in idx + 1..requests.len() {
                replies.push(TraceEvent::Recv(Err(skipped.clone())));
            }
        }
    };

    for event in events {
        let TraceEvent::Send(line) = event else {
            continue; // recv events only assert; generation is send-driven
        };
        sends += 1;
        let item = match parse_wire_line(line) {
            Ok(Some(item)) => item,
            Ok(None) => continue, // blank/comment: no frame, like the server
            Err(e) => {
                flush_run(hub, &current, &mut run, &mut replies);
                replies.push(TraceEvent::Recv(Err(e)));
                continue;
            }
        };
        match item {
            WireItem::Script(ScriptItem::Request(request)) => run.push(request),
            WireItem::Script(ScriptItem::Use(name)) => {
                flush_run(hub, &current, &mut run, &mut replies);
                match SessionId::new(name) {
                    Ok(id) => {
                        hub.engine(&id); // materialize eagerly, `use` semantics
                        replies.push(TraceEvent::Recv(Ok(format!("using {id}"))));
                        current = id;
                    }
                    Err(e) => replies.push(TraceEvent::Recv(Err(e))),
                }
            }
            WireItem::Script(ScriptItem::Close(name)) => {
                flush_run(hub, &current, &mut run, &mut replies);
                match SessionId::new(name) {
                    Ok(id) => {
                        hub.close(&id);
                        replies.push(TraceEvent::Recv(Ok(format!("closed {id}"))));
                    }
                    Err(e) => replies.push(TraceEvent::Recv(Err(e))),
                }
            }
            WireItem::Close => {
                flush_run(hub, &current, &mut run, &mut replies);
                let closed = std::mem::replace(&mut current, EngineHub::default_session());
                hub.close(&closed);
                replies.push(TraceEvent::Recv(Ok(format!("closed {closed}"))));
            }
            WireItem::Ping => {
                flush_run(hub, &current, &mut run, &mut replies);
                replies.push(TraceEvent::Recv(Ok("pong".to_string())));
            }
            other => {
                flush_run(hub, &current, &mut run, &mut replies);
                let word = line.split_whitespace().next().unwrap_or("<control>");
                let _ = other;
                replies.push(TraceEvent::Recv(Err(ApiError::invalid(format!(
                    "`{word}` is a transport control; local replay covers the script plane \
                     (requests, use/close, ping) only"
                )))));
            }
        }
    }
    flush_run(hub, &current, &mut run, &mut replies);

    Ok(ReplayOutcome {
        sends,
        received: recv_transcript(&replies),
        expected: recv_transcript(events),
        replies,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(s: &str) -> TraceEvent {
        TraceEvent::Send(s.to_string())
    }

    #[test]
    fn local_replay_answers_like_a_server_run() {
        // S S S R R R — one pipelined batch, so the three requests form
        // one run; the middle failure produces err + a skipped tail.
        let events = vec![
            send("use t"),
            send("scenario 60 7"),
            send("impute 9 3"),
            send("scroll 1"),
        ];
        let out = replay_local((640, 480), &events).unwrap();
        assert_eq!(out.sends, 4);
        assert_eq!(out.replies.len(), 4);
        assert_eq!(out.replies[0].ok_body(), Some("using t"));
        assert!(out.replies[1].ok_body().is_some(), "{:?}", out.replies[1]);
        let err = out.replies[2].err().expect("imputing dataset 9 fails");
        let tail = out.replies[3].err().expect("skipped tail");
        assert!(
            tail.message
                .starts_with("skipped: request 2 earlier in this pipelined run failed"),
            "{}",
            tail.message
        );
        assert!(tail.message.contains(err.code.as_str()));
    }

    #[test]
    fn local_replay_is_deterministic_across_fresh_hubs() {
        let events = vec![
            send("use det"),
            send("scenario 80 3"),
            send("cluster_all"),
            send("session_info"),
            send("ping"),
            send("close det"),
        ];
        let a = replay_local((640, 480), &events).unwrap();
        let b = replay_local((640, 480), &events).unwrap();
        assert_eq!(a.received, b.received);
        assert_eq!(a.replies.len(), 6);
    }

    #[test]
    fn transport_controls_answer_typed_errors_locally() {
        let events = vec![send("stats"), send("migrate x 1"), send("garbage word")];
        let out = replay_local((320, 240), &events).unwrap();
        assert!(out.replies[0].err().unwrap().message.contains("stats"));
        assert!(out.replies[1].err().unwrap().message.contains("migrate"));
        // an unparseable line answers its parse error, like the server
        assert!(out.replies[2].err().is_some());
    }

    #[test]
    fn divergence_reporting_points_at_the_first_differing_line() {
        let events = vec![
            send("ping"),
            TraceEvent::Recv(Ok("pang".to_string())), // recorded wrong on purpose
        ];
        let out = replay_local((320, 240), &events).unwrap();
        assert!(!out.matches());
        let (line, exp, got) = out.first_divergence().unwrap();
        assert!(line >= 2, "header matches; divergence is in the body");
        assert_eq!(exp, "recv ok pang");
        assert_eq!(got, "recv ok pong");
    }
}
