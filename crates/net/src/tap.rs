//! Wire-trace recording: a byte-transparent TCP tap that proxies one
//! client connection to an upstream server while writing down every
//! request line and reply frame as [`TraceEvent`]s.
//!
//! The tap forwards raw bytes verbatim in both directions — the proxied
//! session behaves exactly as a direct connection, pipelining included —
//! and *observes* the streams through the same framing the endpoints
//! use: request lines via [`FrameBuf`], reply frames via the same
//! [`ReplyAssembler`] that [`crate::frame::read_reply`] drives — one
//! decoder, so a recording cannot disagree with a client about what a
//! frame is. When both sides hang up, the recorded events serialize
//! with [`fv_api::format_trace`] into a `fvtrace 1` file that
//! [`crate::replay`] can re-drive deterministically.
//!
//! Scope: the request/reply plane only. Traces are bounded UTF-8 text,
//! so a session carrying framing faults (oversized or non-UTF-8 lines)
//! or the binary tile stream of a `subscribe` is *unrecordable* — the
//! tap reports a typed error instead of writing a trace that could not
//! replay.

#![allow(
    clippy::disallowed_methods,
    reason = "the trace tap starts its relay threads here"
)]

use crate::frame::{FrameBuf, LineFault, ReplyAssembler};
use fv_api::{ApiError, ErrorCode, TraceEvent};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};

/// Append to the shared event log, recovering a poisoned lock: the
/// recording threads only ever push to the Vec, so a panic between
/// lock and unlock cannot leave it torn — the events gathered so far
/// are still the truth of what crossed the wire.
fn push_event(events: &Mutex<Vec<TraceEvent>>, event: TraceEvent) {
    events
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(event);
}

/// Proxy exactly one accepted connection to `upstream`, recording the
/// exchange. Returns when both directions have closed (the client
/// hanging up propagates as a half-close to the server and vice versa),
/// yielding the events in wire order: every request line as
/// [`TraceEvent::Send`], every reply frame as [`TraceEvent::Recv`].
///
/// Blank lines and column-0 `#` comments are forwarded (byte
/// transparency) but not recorded — they produce no reply frame, and
/// the trace format treats them as annotations anyway.
pub fn record_session(listener: TcpListener, upstream: &str) -> Result<Vec<TraceEvent>, ApiError> {
    let (client, _) = listener
        .accept()
        .map_err(|e| ApiError::io(format!("tap accept: {e}")))?;
    let server = TcpStream::connect(upstream)
        .map_err(|e| ApiError::io(format!("tap connect {upstream}: {e}")))?;
    let events: Arc<Mutex<Vec<TraceEvent>>> = Arc::new(Mutex::new(Vec::new()));

    let c2s = {
        let events = Arc::clone(&events);
        let mut from = client
            .try_clone()
            .map_err(|e| ApiError::io(format!("tap clone: {e}")))?;
        let mut to = server
            .try_clone()
            .map_err(|e| ApiError::io(format!("tap clone: {e}")))?;
        std::thread::Builder::new()
            .name("fv-tap-c2s".into())
            .spawn(move || -> Result<(), ApiError> {
                let mut frames = FrameBuf::new();
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    let n = match from.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(ApiError::io(format!("tap read client: {e}"))),
                    };
                    // Record completed lines BEFORE forwarding the bytes
                    // that complete them: a request can only be answered
                    // once its final `\n` reaches the server, and that
                    // byte is in this chunk — recording first guarantees
                    // every reply lands after its request in the trace,
                    // however fast the server answers.
                    frames.feed(&chunk[..n]);
                    while let Some(line) = frames.next_line() {
                        let line = line.map_err(|f| unrecordable("request", f))?;
                        let trimmed = line.trim();
                        if trimmed.is_empty() || trimmed.starts_with('#') {
                            continue; // no frame will answer it
                        }
                        push_event(&events, TraceEvent::Send(line));
                    }
                    to.write_all(&chunk[..n])
                        .map_err(|e| ApiError::io(format!("tap write server: {e}")))?;
                }
                let _ = to.shutdown(Shutdown::Write);
                Ok(())
            })
            .map_err(|e| ApiError::io(format!("tap spawn: {e}")))?
    };

    let s2c = {
        let events = Arc::clone(&events);
        let mut from = server;
        let mut to = client;
        std::thread::Builder::new()
            .name("fv-tap-s2c".into())
            .spawn(move || -> Result<(), ApiError> {
                let mut frames = FrameBuf::new();
                let mut assembler = ReplyAssembler::new();
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    let n = match from.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(ApiError::io(format!("tap read server: {e}"))),
                    };
                    to.write_all(&chunk[..n])
                        .map_err(|e| ApiError::io(format!("tap write client: {e}")))?;
                    frames.feed(&chunk[..n]);
                    while let Some(line) = frames.next_line() {
                        let line = line.map_err(|f| unrecordable("reply", f))?;
                        if let Some(reply) = assembler.push_line(&line)? {
                            push_event(&events, TraceEvent::Recv(reply));
                        }
                    }
                }
                let _ = to.shutdown(Shutdown::Write);
                if assembler.mid_frame() {
                    return Err(ApiError::io(
                        "server closed the connection mid-frame during recording",
                    ));
                }
                Ok(())
            })
            .map_err(|e| ApiError::io(format!("tap spawn: {e}")))?
    };

    let c2s_result = c2s.join().unwrap_or_else(|_| {
        Err(ApiError::new(
            ErrorCode::Internal,
            "tap c2s thread panicked",
        ))
    });
    let s2c_result = s2c.join().unwrap_or_else(|_| {
        Err(ApiError::new(
            ErrorCode::Internal,
            "tap s2c thread panicked",
        ))
    });
    c2s_result?;
    s2c_result?;

    Ok(Arc::try_unwrap(events)
        .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
        .unwrap_or_default())
}

fn unrecordable(plane: &str, fault: LineFault) -> ApiError {
    let what = match fault {
        LineFault::TooLong => "an oversized line",
        LineFault::BadUtf8 => "a non-UTF-8 line",
    };
    ApiError::invalid(format!(
        "unrecordable {plane} stream: {what} cannot be represented in a text trace \
         (traces capture the well-formed request/reply plane only)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_survives_a_poisoned_lock() {
        // A panic while the log is held poisons the mutex; the recorder
        // must still read the events gathered before the panic rather
        // than panicking itself (the old `.unwrap()` behavior).
        let events = Arc::new(Mutex::new(Vec::new()));
        push_event(&events, TraceEvent::Send("render".into()));
        let poisoner = Arc::clone(&events);
        std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the log");
        })
        .join()
        .unwrap_err();
        assert!(events.is_poisoned());
        push_event(&events, TraceEvent::Send("stats".into()));
        let log = Arc::try_unwrap(events)
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .unwrap_or_default();
        assert_eq!(log.len(), 2);
    }
}
