//! Chaos-derived failure-path tests: what clients report when a server
//! dies at the worst possible moments. These pin the *typed* error
//! contract — a dropped connection is `E_IO` (CLI exit 66), never a
//! parse error on the fragment that did arrive, and never a silent
//! success.
//!
//! Each test runs a tiny scripted fake server on a thread: accept one
//! connection, emit some exact bytes, hang up.

#![allow(
    clippy::disallowed_methods,
    reason = "tests run a fake peer on a thread of their own"
)]

use fv_api::ErrorCode;
use fv_net::{Client, Watcher};
use std::io::{Read, Write};
use std::net::TcpListener;

/// A one-shot fake server: accepts a single connection, reads until it
/// has seen `\n` at least once (the client's request line), writes
/// `reply` verbatim, and drops the socket.
fn fake_server(reply: &'static [u8]) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let mut buf = [0u8; 4096];
        let mut seen = Vec::new();
        while !seen.contains(&b'\n') {
            match conn.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(_) => return,
            }
        }
        let _ = conn.write_all(reply);
        // drop(conn): the mid-reply hangup under test
    });
    addr
}

/// Server advertises a 3-line body but dies after one line: the client
/// must surface E_IO (exit 66), not a parse error and not a truncated
/// success.
#[test]
fn roundtrip_mid_frame_drop_is_typed_io() {
    let addr = fake_server(b"ok 3\nline one\n");
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .roundtrip("session_info")
        .expect_err("truncated frame must be a transport error");
    assert_eq!(err.code, ErrorCode::Io, "got {err:?}");
    assert_eq!(err.code.exit_code(), 66);
    assert!(
        err.message.contains("mid-frame"),
        "message should say what broke: {err:?}"
    );
}

/// Server dies before sending any reply at all: same contract.
#[test]
fn roundtrip_drop_before_reply_is_typed_io() {
    let addr = fake_server(b"");
    let mut client = Client::connect(&addr).expect("connect");
    let err = client
        .roundtrip("ping")
        .expect_err("no reply must be a transport error");
    assert_eq!(err.code, ErrorCode::Io, "got {err:?}");
    assert_eq!(err.code.exit_code(), 66);
}

/// Server drops mid-way through the subscribe ack (header promised one
/// body line, none arrives). Historically this was misreported as an
/// E_PARSE "malformed subscribe ack" on the empty fragment — exit 2, as
/// if the *user* had typed something wrong. It must be E_IO.
#[test]
fn watcher_truncated_subscribe_ack_is_typed_io() {
    let addr = fake_server(b"ok 1\n");
    let err = match Watcher::connect(&addr, "main", 2, 2) {
        Ok(_) => panic!("truncated ack must be a transport error"),
        Err(e) => e,
    };
    assert_eq!(err.code, ErrorCode::Io, "got {err:?}");
    assert_eq!(err.code.exit_code(), 66);
    assert!(
        err.message.contains("subscribe"),
        "message should say what broke: {err:?}"
    );
}

/// A complete, valid subscribe ack followed by a hangup: the connect
/// succeeds, the stream ends — and the watcher reports the EOF as a
/// hangup, distinguishable from a read-timeout idle, so callers (like
/// `fvtool watch`) can turn an unexpected mid-stream disconnect into a
/// typed failure instead of exiting 0.
#[test]
fn watcher_hangup_after_ack_is_detectable() {
    let addr = fake_server(b"ok 1\nsubscribed main 2x2 640x480\n");
    let mut watcher = Watcher::connect(&addr, "main", 2, 2).expect("valid ack connects");
    assert!(!watcher.hung_up());
    let frame = watcher.next_frame().expect("EOF is not an error");
    assert!(frame.is_none(), "no frames were sent");
    assert!(
        watcher.hung_up(),
        "EOF must be reported as a hangup, not an idle timeout"
    );
}
