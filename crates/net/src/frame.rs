//! Line framing over a byte stream: bounded request lines inbound,
//! `ok`/`err` response frames outbound.
//!
//! Requests are newline-terminated text lines (the `fv-api` wire
//! grammar). Responses are framed so a client can recover multi-line
//! response text without sniffing content:
//!
//! ```text
//! ok <n>\n        n ≥ 1; the next n lines are the response text
//! <line 1>\n
//! …
//! <line n>\n
//!
//! err <CODE> <message>\n     one line; CODE is a stable E_* error code
//! ```
//!
//! Every non-blank, non-comment request line produces exactly one frame,
//! in request order. Blank lines and `#` comments produce nothing (same
//! as in scripts). Faulty lines are *recoverable*: a request line longer
//! than [`MAX_LINE`] bytes is reported once and its remaining bytes are
//! discarded up to the next newline (framing resyncs there); a line that
//! is not valid UTF-8 is reported with its boundary intact. Servers
//! answer both with a typed `err E_INVALID` frame and keep the
//! connection alive — error parity with local script replay, where a bad
//! line never tears down the session.
//!
//! Both directions are push parsers, so every caller owns its own
//! transport. [`FrameBuf`] turns raw bytes into lines — the shape a
//! readiness-driven event loop needs — and [`LineReader`] wraps it for
//! blocking `Read` streams (the client side). [`ReplyAssembler`] turns
//! lines into completed [`Reply`] frames and is the **only** decoder of
//! the `ok`/`err` grammar above: [`read_reply`] drives it from a
//! `LineReader` (the client's, and the stream `Watcher`'s, which takes
//! the binary tile frames between reply lines from the same buffer), the
//! recording tap (`crate::tap`) from the bytes it proxies, and
//! `decode_replies` from the frames a process shard answers a run with.

use fv_api::{ApiError, ErrorCode};
use std::io::Read;

/// Upper bound on one request line (bytes, excluding the newline). Longer
/// lines are adversarial or corrupt, never legitimate requests.
pub const MAX_LINE: usize = 64 * 1024;

/// A per-line framing fault. Both are recoverable: the framer resyncs at
/// the next newline and keeps delivering lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFault {
    /// Line exceeded [`MAX_LINE`] before a newline appeared. Reported
    /// once; the line's remaining bytes are discarded up to (and
    /// including) its terminating newline.
    TooLong,
    /// Line bytes are not valid UTF-8. The line boundary was found, so
    /// the next line is unaffected.
    BadUtf8,
}

/// Incremental line framer: bytes in ([`FrameBuf::feed`]), complete lines
/// or per-line faults out ([`FrameBuf::next_line`]). Never blocks and
/// never reads — the caller owns the transport, which is what lets a
/// poll-based event loop drive hundreds of connections through one
/// thread. Oversized lines switch the framer into a discard state that
/// drops bytes until the next newline, so buffered memory stays bounded
/// by `MAX_LINE` + one read chunk no matter what a client sends.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Read cursor into `buf`; everything before it has been consumed.
    start: usize,
    /// How many bytes from `start` are known to hold no `\n`: an
    /// unterminated line is searched once, not again on every call. Zero
    /// whenever `start` moves or the buffer is emptied.
    scanned: usize,
    /// Bytes handed to the newline search so far.
    #[cfg(test)]
    examined: usize,
    /// Inside an oversized line whose fault was already reported: drop
    /// everything up to the next newline.
    discarding: bool,
}

impl FrameBuf {
    pub fn new() -> Self {
        FrameBuf {
            buf: Vec::with_capacity(4096),
            ..FrameBuf::default()
        }
    }

    /// Append raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.discarding {
            // Cheap fast-path: drop straight away instead of buffering an
            // attacker-sized line.
            if let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
                self.discarding = false;
                self.buf.extend_from_slice(&bytes[pos + 1..]);
            }
            return;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Next complete line (without its terminator, `\r` tolerated) or a
    /// framing fault; `None` until more bytes arrive.
    pub fn next_line(&mut self) -> Option<Result<String, LineFault>> {
        let from = self.start + self.scanned;
        #[cfg(test)]
        {
            self.examined += self.buf.len() - from;
        }
        if let Some(pos) = self.buf[from..].iter().position(|&b| b == b'\n') {
            let end = from + pos;
            let line = if end - self.start > MAX_LINE {
                // Whole line arrived in one feed but is over the limit;
                // its boundary is known, so no discard state is needed.
                Err(LineFault::TooLong)
            } else {
                std::str::from_utf8(&self.buf[self.start..end])
                    .map(|s| s.trim_end_matches('\r').to_string())
                    .map_err(|_| LineFault::BadUtf8)
            };
            self.start = end + 1;
            self.scanned = 0;
            self.compact();
            return Some(line);
        }
        self.scanned = self.buf.len() - self.start;
        if self.scanned > MAX_LINE {
            // Report once, then discard the rest of the line as it
            // streams in.
            self.buf.clear();
            self.start = 0;
            self.scanned = 0;
            self.discarding = true;
            return Some(Err(LineFault::TooLong));
        }
        None
    }

    /// The bytes fed and not yet taken.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    /// Take `n` pending bytes that are not a line (a binary tile frame).
    pub(crate) fn consume(&mut self, n: usize) {
        self.start += n;
        self.scanned = 0;
    }

    fn compact(&mut self) {
        if self.start > 8192 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Buffered line reader over a blocking `Read` stream — [`FrameBuf`]
/// plus the reads. A stream `Watcher` takes the binary tile frames
/// between reply lines from the same buffer.
pub struct LineReader<R: Read> {
    inner: R,
    pub(crate) frames: FrameBuf,
}

impl<R: Read> LineReader<R> {
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            frames: FrameBuf::new(),
        }
    }

    /// Read one line (without its terminator). `Ok(None)` is a clean EOF
    /// at a line boundary; EOF in the middle of a line (a truncated
    /// frame) also returns `Ok(None)`, discarding the partial line — a
    /// disconnected peer cannot receive a response anyway. A framing
    /// fault is a typed `E_PARSE` and per-line: the reader stays usable
    /// and resyncs at the next boundary. A transport failure is `E_IO`.
    pub fn read_line(&mut self) -> Result<Option<String>, ApiError> {
        loop {
            match self.frames.next_line() {
                Some(Ok(line)) => return Ok(Some(line)),
                Some(Err(LineFault::TooLong)) => {
                    return Err(ApiError::parse("response line exceeds the frame limit"))
                }
                Some(Err(LineFault::BadUtf8)) => {
                    return Err(ApiError::parse("response line is not valid UTF-8"))
                }
                None => {}
            }
            if !self.fill(&mut [0u8; 4096])? {
                return Ok(None);
            }
        }
    }

    /// Read once from the stream through `chunk` into the buffer,
    /// retrying an interrupted read: `Ok(false)` at EOF.
    pub(crate) fn fill(&mut self, chunk: &mut [u8]) -> std::io::Result<bool> {
        self.frames.compact();
        let n = loop {
            match self.inner.read(chunk) {
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                read => break read?,
            }
        };
        self.frames.feed(&chunk[..n]);
        Ok(n > 0)
    }
}

/// Append a success frame for response text `body` to an in-memory
/// outbox. Infallible by construction (`Vec` writes cannot fail) — the
/// panic-free path the event loop uses to enqueue replies.
pub fn push_ok_frame(out: &mut Vec<u8>, body: &str) {
    let n = body.lines().count().max(1);
    out.extend_from_slice(format!("ok {n}\n").as_bytes());
    out.extend_from_slice(body.as_bytes());
    out.push(b'\n');
}

/// Append an error frame to an in-memory outbox. Newlines in the
/// message (impossible for errors built from wire input, but cheap to
/// guarantee) are flattened so the frame stays one line.
pub fn push_err_frame(out: &mut Vec<u8>, e: &ApiError) {
    let msg = e.message.replace(['\n', '\r'], " ");
    out.extend_from_slice(format!("err {} {msg}\n", e.code.as_str()).as_bytes());
}

/// One response frame, as a client sees it.
pub type Reply = Result<String, ApiError>;

/// Incremental reply-frame parser, the one decoder of the `ok <n>` /
/// `err <CODE>` grammar: feed the server→client stream one line at a
/// time, get a completed [`Reply`] whenever a frame closes. The line
/// count of an `ok <n>` header is wire input: it is bounded
/// (`1..=MAX_LINE`) and counted down, never reserved for.
#[derive(Debug, Default)]
pub struct ReplyAssembler {
    /// `(lines still to come, body so far)` of an open `ok <n>` frame.
    pending: Option<(usize, String)>,
}

impl ReplyAssembler {
    pub fn new() -> ReplyAssembler {
        ReplyAssembler::default()
    }

    /// Whether a multi-line `ok` frame is mid-assembly (EOF here is a
    /// truncated frame, not a clean close).
    pub fn mid_frame(&self) -> bool {
        self.pending.is_some()
    }

    /// Feed one reply-plane line. Returns `Some(reply)` when a frame
    /// completes, `None` while an `ok <n>` body is still arriving.
    pub fn push_line(&mut self, line: &str) -> Result<Option<Reply>, ApiError> {
        if let Some((left, mut body)) = self.pending.take() {
            body.push_str(line);
            if left == 1 {
                return Ok(Some(Ok(body)));
            }
            body.push('\n');
            self.pending = Some((left - 1, body));
            return Ok(None);
        }
        if let Some(rest) = line.strip_prefix("ok ") {
            let n: usize = rest
                .parse()
                .map_err(|_| ApiError::parse(format!("bad frame header {line:?}")))?;
            if n == 0 || n > MAX_LINE {
                return Err(ApiError::parse(format!("bad frame line count {n}")));
            }
            self.pending = Some((n, String::new()));
            return Ok(None);
        }
        if let Some(rest) = line.strip_prefix("err ") {
            let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
            let code = ErrorCode::from_wire(code)
                .ok_or_else(|| ApiError::parse(format!("unknown error code in frame {line:?}")))?;
            return Ok(Some(Err(ApiError::new(code, message))));
        }
        Err(ApiError::parse(format!("malformed frame header {line:?}")))
    }
}

/// Read one response frame: `Ok(None)` on clean EOF, `Ok(Some(reply))`
/// with the server's answer (success text or typed error), `Err` on a
/// transport/framing failure.
pub fn read_reply<R: Read>(reader: &mut LineReader<R>) -> Result<Option<Reply>, ApiError> {
    let mut frame = ReplyAssembler::new();
    loop {
        match reader.read_line()? {
            Some(line) => {
                if let Some(reply) = frame.push_line(&line)? {
                    return Ok(Some(reply));
                }
            }
            None if frame.mid_frame() => return Err(ApiError::io("connection closed mid-frame")),
            None => return Ok(None),
        }
    }
}

/// Decode a buffer that must hold whole reply frames and nothing else —
/// the frames a shard answers a run with. Bytes that are not UTF-8, a
/// malformed frame, and a buffer cut off mid-line or mid-frame are typed
/// `E_PARSE` errors.
pub(crate) fn decode_replies(bytes: &[u8]) -> Result<Vec<Reply>, ApiError> {
    let text =
        std::str::from_utf8(bytes).map_err(|_| ApiError::parse("reply frames are not UTF-8"))?;
    let (mut frames, mut replies) = (ReplyAssembler::new(), Vec::new());
    for line in text.split_inclusive('\n') {
        let line = line
            .strip_suffix('\n')
            .ok_or_else(|| ApiError::parse("reply frames end mid-line"))?;
        replies.extend(frames.push_line(line)?);
    }
    if frames.mid_frame() {
        return Err(ApiError::parse("reply frames end mid-frame"));
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frames(parts: &[Reply]) -> Vec<u8> {
        let mut buf = Vec::new();
        for part in parts {
            match part {
                Ok(body) => push_ok_frame(&mut buf, body),
                Err(e) => push_err_frame(&mut buf, e),
            }
        }
        buf
    }

    #[test]
    fn pushed_frames_have_the_documented_byte_layout() {
        for body in ["pong", "first\nsecond\nthird", ""] {
            let n = body.lines().count().max(1);
            assert_eq!(
                frames(&[Ok(body.to_string())]),
                format!("ok {n}\n{body}\n").as_bytes()
            );
        }
        let pushed = frames(&[Err(ApiError::invalid("multi\nline"))]);
        assert_eq!(
            pushed.iter().filter(|&&b| b == b'\n').count(),
            1,
            "err frames are a single line"
        );
    }

    #[test]
    fn lines_split_and_a_truncated_tail_is_eof() {
        let data = b"alpha\nbeta\ngamma".to_vec();
        let mut r = LineReader::new(&data[..]);
        assert_eq!(r.read_line().unwrap(), Some("alpha".to_string()));
        assert_eq!(r.read_line().unwrap(), Some("beta".to_string()));
        // trailing bytes without a newline are a truncated line → EOF
        assert_eq!(r.read_line().unwrap(), None);
    }

    #[test]
    fn crlf_is_tolerated() {
        let data = b"alpha\r\nbeta\r\n".to_vec();
        let mut r = LineReader::new(&data[..]);
        assert_eq!(r.read_line().unwrap(), Some("alpha".to_string()));
        assert_eq!(r.read_line().unwrap(), Some("beta".to_string()));
    }

    #[test]
    fn oversized_line_is_reported_once_then_resyncs() {
        let mut data = vec![b'a'; MAX_LINE + 2];
        data.extend_from_slice(b"\nping\n");
        let mut r = LineReader::new(&data[..]);
        assert_eq!(r.read_line().unwrap_err().code, ErrorCode::Parse);
        // the reader recovered at the newline: the next line is intact
        assert_eq!(r.read_line().unwrap(), Some("ping".to_string()));
        assert_eq!(r.read_line().unwrap(), None);
    }

    #[test]
    fn oversized_line_discard_is_incremental() {
        // Fed in drips, the framer reports TooLong once, keeps memory
        // bounded while discarding, and resumes at the boundary.
        let mut f = FrameBuf::new();
        f.feed(&vec![b'x'; MAX_LINE]);
        assert!(f.next_line().is_none(), "exactly MAX_LINE: could still end");
        f.feed(b"xx");
        assert_eq!(f.next_line(), Some(Err(LineFault::TooLong)));
        for _ in 0..64 {
            f.feed(&[b'y'; 1024]);
            assert!(f.next_line().is_none(), "still discarding");
            assert_eq!(f.buf.len() - f.start, 0, "discarded bytes must not buffer");
        }
        f.feed(b"tail\nok\n");
        assert_eq!(f.next_line(), Some(Ok("ok".to_string())));
    }

    #[test]
    fn a_dripped_line_is_searched_once() {
        // A full-size line one byte at a time: each call looks at the new
        // byte only, so the search is linear in the line, not quadratic
        // (2·10⁹ byte comparisons before the scan cursor).
        let mut f = FrameBuf::new();
        for _ in 0..MAX_LINE {
            f.feed(b"x");
            assert!(f.next_line().is_none());
        }
        f.feed(b"\n");
        assert_eq!(
            f.next_line().map(|l| l.map(|s| s.len())),
            Some(Ok(MAX_LINE))
        );
        assert_eq!(f.examined, MAX_LINE + 1);
        // The cursor went back with the line: the next one is found whole.
        f.feed(b"ping\nrest");
        assert_eq!(f.next_line(), Some(Ok("ping".to_string())));
        assert!(f.next_line().is_none());
        f.feed(b"\n");
        assert_eq!(f.next_line(), Some(Ok("rest".to_string())));
        assert_eq!(
            f.examined,
            MAX_LINE + 1 + "ping\nrest".len() + "rest".len() + 1
        );
    }

    #[test]
    fn bad_utf8_is_recoverable() {
        let mut data = vec![0xff, 0xfe, b'\n'];
        data.extend_from_slice(b"ok\n");
        let mut r = LineReader::new(&data[..]);
        assert_eq!(r.read_line().unwrap_err().code, ErrorCode::Parse);
        assert_eq!(r.read_line().unwrap(), Some("ok".to_string()));
    }

    /// What any framing of `bytes` must yield: a line per `\n`, its
    /// `\r`s shed; a fault for one over [`MAX_LINE`] or not UTF-8; for an
    /// unterminated tail nothing — unless it is already too long.
    fn reference(bytes: &[u8]) -> Vec<Result<String, LineFault>> {
        let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let tail = lines.pop().filter(|tail| tail.len() > MAX_LINE);
        let framed = lines.into_iter().chain(tail).map(|line| match line {
            _ if line.len() > MAX_LINE => Err(LineFault::TooLong),
            _ => match std::str::from_utf8(line) {
                Ok(text) => Ok(text.trim_end_matches('\r').to_string()),
                Err(_) => Err(LineFault::BadUtf8),
            },
        });
        framed.collect()
    }

    /// A transport that hands its bytes out in chunks of the given sizes,
    /// over and over.
    struct Chunked<'a>(&'a [u8], Vec<usize>);

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1.rotate_left(1);
            let n = self.1[0].min(self.0.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    proptest! {
        /// Totality under chunking: any bytes in any chunks frame into the
        /// lines and faults the bytes fed whole do — CRLF shed, a fault
        /// reported once and recovered from at the next boundary — through
        /// [`FrameBuf`] and through a [`LineReader`] over a transport that
        /// returns those chunks; never a panic, and never more buffered
        /// than `MAX_LINE` plus one chunk.
        #[test]
        fn any_bytes_in_any_chunks_frame_like_the_bytes_fed_whole(
            pieces in prop::collection::vec(
                (0usize..8, prop::collection::vec(any::<u8>(), 0..24)),
                0..12,
            ),
            sizes in prop::collection::vec(prop_oneof![1usize..40, 1usize..9000], 1..40),
        ) {
            // Noise over a small alphabet, and runs that straddle MAX_LINE.
            let mut bytes = Vec::new();
            for (kind, noise) in &pieces {
                match kind {
                    0 => bytes.resize(bytes.len() + MAX_LINE - 2 + noise.len(), b'x'),
                    _ => bytes.extend(noise.iter().map(|b| b"\n\n\r\xffa\xc3\xab "[*b as usize % 8])),
                }
            }
            let want = reference(&bytes);
            let (mut framer, mut framed, mut rest) = (FrameBuf::new(), Vec::new(), &bytes[..]);
            for size in sizes.iter().cycle() {
                let (chunk, left) = rest.split_at(rest.len().min(*size));
                framer.feed(chunk);
                framed.extend(std::iter::from_fn(|| framer.next_line()));
                prop_assert!(framer.buf.len() - framer.start <= MAX_LINE + chunk.len());
                rest = left;
                if rest.is_empty() {
                    break;
                }
            }
            prop_assert_eq!(&framed, &want);
            let mut reader = LineReader::new(Chunked(&bytes, sizes));
            for line in want {
                match (reader.read_line(), line) {
                    (Ok(Some(read)), Ok(line)) => prop_assert_eq!(read, line),
                    (Err(e), Err(fault)) => {
                        let long = e.message.contains("exceeds");
                        prop_assert_eq!(e.code, ErrorCode::Parse);
                        prop_assert_eq!(long, fault == LineFault::TooLong);
                    }
                    (read, line) => prop_assert!(false, "{read:?} for {line:?}"),
                }
            }
            prop_assert_eq!(reader.read_line().ok(), Some(None));
        }
    }

    #[test]
    fn frames_roundtrip() {
        // "" frames as `ok 1` + one empty line; newlines in an error
        // message are flattened so the frame stays one line.
        let buf = frames(&[
            Ok("one line".into()),
            Ok("two\n\nlines".into()),
            Err(ApiError::not_found("dataset 7")),
            Ok(String::new()),
            Err(ApiError::invalid("multi\nline\nmessage")),
        ]);
        let mut r = LineReader::new(&buf[..]);
        assert_eq!(read_reply(&mut r).unwrap().unwrap().unwrap(), "one line");
        assert_eq!(
            read_reply(&mut r).unwrap().unwrap().unwrap(),
            "two\n\nlines"
        );
        let err = read_reply(&mut r).unwrap().unwrap().unwrap_err();
        assert_eq!(err.code, ErrorCode::NotFound);
        assert_eq!(err.message, "dataset 7");
        assert_eq!(read_reply(&mut r).unwrap().unwrap().unwrap(), "");
        let err = read_reply(&mut r).unwrap().unwrap().unwrap_err();
        assert_eq!(err.message, "multi line message");
        assert!(read_reply(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn assembler_tracks_open_frames_and_rejects_garbage_headers() {
        let mut a = ReplyAssembler::new();
        assert!(a.push_line("ok 2").unwrap().is_none());
        assert!(a.mid_frame());
        assert!(a.push_line("alpha").unwrap().is_none());
        assert_eq!(a.push_line("").unwrap().unwrap().unwrap(), "alpha\n");
        assert!(!a.mid_frame());
        let err = a.push_line("err E_BUSY queue full").unwrap().unwrap();
        assert_eq!(err.unwrap_err().code, ErrorCode::Busy);
        for bad in ["hello", "ok zero", "ok 0", "ok 65537", "err E_NOPE what"] {
            assert_eq!(a.push_line(bad).unwrap_err().code, ErrorCode::Parse);
            assert!(!a.mid_frame(), "{bad:?} opens no frame");
        }
    }
}
