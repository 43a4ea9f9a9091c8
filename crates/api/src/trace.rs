//! Versioned, line-oriented wire traces: a recorded conversation between
//! one client and a server, replayable deterministically.
//!
//! A trace is text. The first line is the header `fvtrace 1` (format
//! name + version); every following logical line is one event in
//! transcript order:
//!
//! ```text
//! fvtrace 1
//! send <request line>          # one line the client sent
//! recv ok <body first line>    # a success frame the server answered
//!   <body continuation line>   #   (2-space indent, one per extra line)
//! recv err <CODE> <message>    # a typed error frame
//! ```
//!
//! `send` payloads are kept verbatim (any single line the wire grammar
//! accepts, including `use` directives with non-ASCII session names).
//! `recv ok` bodies may span lines: the first body line rides on the
//! event line and each further line is indented by exactly two spaces —
//! the same continuation convention `format_response` uses, so traces
//! stay greppable line-by-line. `recv err` mirrors an `err` frame: a
//! frozen `E_*` code plus a one-line human message.
//!
//! Blank lines and column-0 `#` comments between events are ignored on
//! parse (and never emitted by the formatter), so traces can be annotated
//! by hand. [`format_trace_line`] and [`parse_trace_line`] are exact
//! inverses over the representable domain (no `\n` or `\r` inside a send
//! payload or an error message; body lines carry no trailing `\r`) —
//! property tested, like the request codec. The parser refuses text
//! outside that domain, so whatever it accepts re-formats losslessly.

use crate::error::{ApiError, ErrorCode};

/// Trace format version. Bump when the event grammar changes shape;
/// parsers reject every version they do not know.
pub const TRACE_VERSION: u32 = 1;

/// The exact header line of a version-1 trace.
pub const TRACE_HEADER: &str = "fvtrace 1";

/// One event in a recorded wire conversation, in transcript order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request line the client sent, verbatim (untrimmed, no newline).
    Send(String),
    /// A response frame the server answered: `Ok(body)` for an `ok`
    /// frame's text, `Err(e)` for a typed `err` frame.
    Recv(Result<String, ApiError>),
}

impl TraceEvent {
    /// Convenience constructor for a successful reply event.
    pub fn recv_ok(body: impl Into<String>) -> TraceEvent {
        TraceEvent::Recv(Ok(body.into()))
    }

    /// Convenience constructor for an error reply event.
    pub fn recv_err(e: ApiError) -> TraceEvent {
        TraceEvent::Recv(Err(e))
    }

    /// Whether this event is a client-to-server line.
    pub fn is_send(&self) -> bool {
        matches!(self, TraceEvent::Send(_))
    }

    /// The typed error when this is an error `recv`, else `None`.
    pub fn err(&self) -> Option<&ApiError> {
        match self {
            TraceEvent::Recv(Err(e)) => Some(e),
            _ => None,
        }
    }
}

/// Canonical text of one event — one physical line for `send` and
/// `recv err`, `1 + extra body lines` physical lines for `recv ok`
/// (continuations indented by two spaces). No trailing newline. The
/// exact inverse of [`parse_trace_line`]. Newlines that cannot be
/// represented (in a send payload or an error message) are flattened to
/// spaces, mirroring the frame writer's guarantee.
pub fn format_trace_line(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Send(line) => {
            let line = line.replace(['\n', '\r'], " ");
            format!("send {line}")
        }
        TraceEvent::Recv(Ok(body)) => {
            let mut lines = body.split('\n');
            let first = lines.next().unwrap_or("");
            let mut out = if first.is_empty() {
                "recv ok".to_string()
            } else {
                format!("recv ok {first}")
            };
            for cont in lines {
                out.push_str("\n  ");
                out.push_str(cont);
            }
            out
        }
        TraceEvent::Recv(Err(e)) => {
            let msg = e.message.replace(['\n', '\r'], " ");
            if msg.is_empty() {
                format!("recv err {}", e.code.as_str())
            } else {
                format!("recv err {} {msg}", e.code.as_str())
            }
        }
    }
}

/// Parse one logical trace line (an event line plus any 2-space-indented
/// continuation lines); the exact inverse of [`format_trace_line`].
pub fn parse_trace_line(text: &str) -> Result<TraceEvent, ApiError> {
    let mut lines = text.split('\n');
    let head = lines.next().unwrap_or("");
    let event = parse_event_head(head)?;
    let mut body = match event {
        HeadEvent::Send(line) => {
            if let Some(extra) = lines.next() {
                return Err(ApiError::parse(format!(
                    "send events are one line, got continuation {extra:?}"
                )));
            }
            return Ok(TraceEvent::Send(line));
        }
        HeadEvent::RecvErr(e) => {
            if let Some(extra) = lines.next() {
                return Err(ApiError::parse(format!(
                    "recv err events are one line, got continuation {extra:?}"
                )));
            }
            return Ok(TraceEvent::Recv(Err(e)));
        }
        HeadEvent::RecvOk(first) => first,
    };
    for cont in lines {
        let Some(stripped) = cont.strip_prefix("  ") else {
            return Err(ApiError::parse(format!(
                "continuation lines start with two spaces, got {cont:?}"
            )));
        };
        if stripped.ends_with('\r') {
            return Err(stray_cr(cont));
        }
        body.push('\n');
        body.push_str(stripped);
    }
    Ok(TraceEvent::Recv(Ok(body)))
}

/// A `\r` the formatter would flatten to a space (in a send payload or
/// an error message) or a line reader would strip (ending a body line):
/// such a line has no text of its own to re-format to.
fn stray_cr(line: &str) -> ApiError {
    ApiError::parse(format!("carriage return in trace line {line:?}"))
}

/// The head (first physical) line of an event, classified.
enum HeadEvent {
    Send(String),
    RecvOk(String),
    RecvErr(ApiError),
}

fn parse_event_head(head: &str) -> Result<HeadEvent, ApiError> {
    if let Some(rest) = head.strip_prefix("send ") {
        if rest.trim().is_empty() {
            return Err(ApiError::parse("send event has an empty payload"));
        }
        if rest.contains('\r') {
            return Err(stray_cr(head));
        }
        return Ok(HeadEvent::Send(rest.to_string()));
    }
    if head == "recv ok" {
        return Ok(HeadEvent::RecvOk(String::new()));
    }
    if let Some(rest) = head.strip_prefix("recv ok ") {
        if rest.ends_with('\r') {
            return Err(stray_cr(head));
        }
        return Ok(HeadEvent::RecvOk(rest.to_string()));
    }
    if let Some(rest) = head.strip_prefix("recv err ") {
        if rest.contains('\r') {
            return Err(stray_cr(head));
        }
        let (code, message) = match rest.split_once(' ') {
            Some((c, m)) => (c, m.to_string()),
            None => (rest, String::new()),
        };
        let code = ErrorCode::from_wire(code)
            .ok_or_else(|| ApiError::parse(format!("unknown error code in event {head:?}")))?;
        return Ok(HeadEvent::RecvErr(ApiError::new(code, message)));
    }
    Err(ApiError::parse(format!("unknown trace event {head:?}")))
}

/// Canonical text of a whole trace: the version header, then every event
/// through [`format_trace_line`], newline-terminated. The exact inverse
/// of [`parse_trace`].
pub fn format_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 32);
    out.push_str(TRACE_HEADER);
    out.push('\n');
    for event in events {
        out.push_str(&format_trace_line(event));
        out.push('\n');
    }
    out
}

/// Parse a whole trace: the version header (which must be a version this
/// parser knows), then events. Blank lines and column-0 `#` comments
/// between events are skipped; lines indented by two spaces attach to
/// the preceding `recv ok` event as body continuations.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ApiError> {
    fn flush(
        chunk: &mut Option<(usize, String)>,
        events: &mut Vec<TraceEvent>,
    ) -> Result<(), ApiError> {
        if let Some((line_no, text)) = chunk.take() {
            let event = parse_trace_line(&text)
                .map_err(|e| ApiError::parse(format!("line {line_no}: {}", e.message)))?;
            events.push(event);
        }
        Ok(())
    }
    let mut events = Vec::new();
    let mut chunk: Option<(usize, String)> = None;
    let mut saw_header = false;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        if let Some(cont) = raw.strip_prefix("  ") {
            let Some((_, chunk_text)) = chunk.as_mut() else {
                return Err(ApiError::parse(format!(
                    "line {line_no}: continuation line {cont:?} without a recv ok event"
                )));
            };
            chunk_text.push('\n');
            chunk_text.push_str(raw);
            continue;
        }
        if raw.trim().is_empty() || raw.starts_with('#') {
            flush(&mut chunk, &mut events)?;
            continue;
        }
        if !saw_header {
            if raw != TRACE_HEADER {
                return Err(ApiError::parse(format!(
                    "line {line_no}: expected trace header {TRACE_HEADER:?}, got {raw:?}"
                )));
            }
            saw_header = true;
            continue;
        }
        flush(&mut chunk, &mut events)?;
        chunk = Some((line_no, raw.to_string()));
    }
    flush(&mut chunk, &mut events)?;
    if !saw_header {
        return Err(ApiError::parse(format!(
            "empty trace: expected header {TRACE_HEADER:?}"
        )));
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(event: TraceEvent) {
        let text = format_trace_line(&event);
        let parsed = parse_trace_line(&text).unwrap();
        assert_eq!(parsed, event, "text was {text:?}");
        assert_eq!(format_trace_line(&parsed), text, "canonical fixed point");
    }

    #[test]
    fn events_roundtrip() {
        roundtrip(TraceEvent::Send("scenario 200 42".into()));
        roundtrip(TraceEvent::Send("use αλφα".into()));
        roundtrip(TraceEvent::recv_ok("pong"));
        roundtrip(TraceEvent::recv_ok("")); // write_ok frames "" as one empty line
        roundtrip(TraceEvent::recv_ok("text bytes=6\n  G1\n  G2"));
        roundtrip(TraceEvent::recv_ok("\nsecond line after an empty first"));
        roundtrip(TraceEvent::recv_err(ApiError::busy(
            "pending request queue is full (3 pending, limit 3); the request was not executed",
        )));
        roundtrip(TraceEvent::recv_err(ApiError::new(ErrorCode::Internal, "")));
    }

    #[test]
    fn whole_trace_roundtrips_and_is_annotated_friendly() {
        let events = vec![
            TraceEvent::Send("use alpha".into()),
            TraceEvent::recv_ok("using alpha"),
            TraceEvent::Send("session_info".into()),
            TraceEvent::recv_ok("session datasets=0\n  empty session"),
            TraceEvent::Send("wat 7".into()),
            TraceEvent::recv_err(ApiError::parse("unknown request \"wat\"")),
        ];
        let text = format_trace(&events);
        assert!(text.starts_with("fvtrace 1\n"));
        assert_eq!(parse_trace(&text).unwrap(), events);
        // hand annotations survive
        let annotated = format!("# captured by a test\n\n{text}\n# trailing note\n");
        assert_eq!(parse_trace(&annotated).unwrap(), events);
    }

    #[test]
    fn header_is_mandatory_and_versioned() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("send ping\n").is_err());
        assert!(parse_trace("fvtrace 2\nsend ping\n").is_err());
        assert_eq!(parse_trace("fvtrace 1\n").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_events_are_rejected_with_line_numbers() {
        let err = parse_trace("fvtrace 1\nsend ping\nwat\n").unwrap_err();
        assert!(err.message.contains("line 3"), "{}", err.message);
        let err = parse_trace("fvtrace 1\n  orphan continuation\n").unwrap_err();
        assert!(err.message.contains("line 2"), "{}", err.message);
        assert!(parse_trace_line("send ").is_err());
        assert!(parse_trace_line("recv err E_NOPE nope").is_err());
        assert!(parse_trace_line("send ping\n  tail").is_err());
        assert!(parse_trace_line("recv err E_IO x\n  tail").is_err());
        assert!(parse_trace_line("recv ok x\nbad continuation").is_err());
    }

    #[test]
    fn newlines_in_unrepresentable_fields_are_flattened() {
        let text = format_trace_line(&TraceEvent::Send("a\nb".into()));
        assert_eq!(text, "send a b");
        let text = format_trace_line(&TraceEvent::recv_err(ApiError::io("x\ny")));
        assert_eq!(text, "recv err E_IO x y");
    }
}
