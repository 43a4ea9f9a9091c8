//! Bytes on the driver's sockets, counted from what crossed them.
//!
//! `Client`, `run_script_remote` and `Watcher` own their sockets and
//! expose no counters, and the driver must use them unmodified. The wire
//! grammar is exact, though: a request is its line plus `\n`, a reply is
//! the frame `push_ok_frame`/`push_err_frame` builds from the text the
//! client handed back, and a tile frame is its header plus payload. So
//! the count is rebuilt from the content, with the program's own framing
//! functions, and repeats exactly for a fixed seed and op count.

use fv_api::codec::{ScriptItem, ScriptLine};
use fv_api::{format_request, ApiError};
use fv_net::frame::{push_err_frame, push_ok_frame};

/// Bytes a request line occupies on the wire.
pub fn request_bytes(line: &str) -> u64 {
    line.len() as u64 + 1
}

/// Bytes of the frame that carried `reply`.
pub fn reply_bytes(reply: &Result<String, ApiError>, scratch: &mut Vec<u8>) -> u64 {
    scratch.clear();
    match reply {
        Ok(text) => push_ok_frame(scratch, text),
        Err(e) => push_err_frame(scratch, e),
    }
    scratch.len() as u64
}

/// Bytes `run_script_remote` writes for a parsed script: each item in
/// canonical form, one line each.
pub fn script_request_bytes(lines: &[ScriptLine]) -> u64 {
    lines
        .iter()
        .map(|line| match &line.item {
            ScriptItem::Use(name) => "use ".len() + name.len() + 1,
            ScriptItem::Close(name) => "close ".len() + name.len() + 1,
            ScriptItem::Request(request) => format_request(request).len() + 1,
        } as u64)
        .sum()
}

/// Bytes `run_script_remote` reads back for a script that ran clean:
/// `using`/`closed` acknowledgements for the directives plus one frame per
/// request. `blocks` are the transcript blocks its sink received, in order
/// (`<session>:<line>> <request>\n<text>\n`).
pub fn script_reply_bytes(lines: &[ScriptLine], blocks: &[String]) -> u64 {
    let mut scratch = Vec::new();
    let mut total = 0u64;
    for line in lines {
        let ack = match &line.item {
            ScriptItem::Use(name) => format!("using {name}"),
            ScriptItem::Close(name) => format!("closed {name}"),
            ScriptItem::Request(_) => continue,
        };
        total += reply_bytes(&Ok(ack), &mut scratch);
    }
    for block in blocks {
        total += reply_bytes(&Ok(block_text(block).to_string()), &mut scratch);
    }
    total
}

/// The reply text inside one transcript block of `run_script_remote`
/// (`<session>:<line>> <request>\n<text>\n`): everything but the echo
/// line and the newline the runner appends.
pub fn block_text(block: &str) -> &str {
    let text = block.split_once('\n').map_or("", |(_, rest)| rest);
    text.strip_suffix('\n').unwrap_or(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_bytes_are_the_frame_the_server_builds() {
        let mut scratch = Vec::new();
        // "ok 1\npong\n"
        assert_eq!(reply_bytes(&Ok("pong".into()), &mut scratch), 10);
        // "ok 2\na\n  b\n"
        assert_eq!(reply_bytes(&Ok("a\n  b".into()), &mut scratch), 11);
        let err = ApiError::invalid("nope");
        let n = reply_bytes(&Err(err.clone()), &mut scratch);
        assert_eq!(
            n as usize,
            format!("err {} nope\n", err.code.as_str()).len()
        );
        assert_eq!(request_bytes("ping"), 5);
    }

    #[test]
    fn script_bytes_follow_the_canonical_lines() {
        let text = "use rc\nscenario 100 7\nsession_info\nclose rc\n";
        let lines = fv_api::parse_script(text).unwrap();
        assert_eq!(script_request_bytes(&lines), text.len() as u64);
        let blocks = vec![
            "rc:2> scenario 100 7\nscenario datasets=a,b,c genes=100\n".to_string(),
            "rc:3> session_info\nsession x\n  line two\n".to_string(),
        ];
        let want = "ok 1\nusing rc\n".len()
            + "ok 1\nclosed rc\n".len()
            + "ok 1\nscenario datasets=a,b,c genes=100\n".len()
            + "ok 2\nsession x\n  line two\n".len();
        assert_eq!(script_reply_bytes(&lines, &blocks), want as u64);
    }
}
