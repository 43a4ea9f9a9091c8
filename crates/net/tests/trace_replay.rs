//! End-to-end wire-trace tests: record a live exchange (by hand or
//! through the [`fv_net::tap`] proxy), then prove replays of that trace
//! are byte-identical — against fresh servers of the recorder's shape,
//! and against the private default-config server [`replay_local`] boots.
//!
//! The regression the E_BUSY test pins: a trace whose recorded burst
//! overflowed the server's pending-request queue (so its transcript
//! contains an `E_BUSY` rejection AND the skipped tail of a failed
//! pipelined run) must replay to the *same bytes* on a fresh server —
//! i.e. replay preserves the pipelining that produced those replies,
//! and the server's reply order is deterministic under it.

#![allow(
    clippy::disallowed_methods,
    reason = "the recorder runs on a thread beside the client"
)]

use fv_api::{ErrorCode, TraceEvent};
use fv_net::frame::{read_reply, LineReader};
use fv_net::{replay_local, replay_remote, ReplayOutcome, Server, ServerConfig};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

/// A small server whose pending-request queue a burst can overflow.
fn queue_of_three() -> ServerConfig {
    ServerConfig {
        shards: 2,
        scene: (640, 480),
        queue_limit: 3,
        ..ServerConfig::default()
    }
}

/// Record `lines` as one pipelined burst against a fresh server shaped
/// by `config`.
fn record_on_fresh_server(config: ServerConfig, lines: &[&str]) -> Vec<TraceEvent> {
    let recorder = Server::bind("127.0.0.1:0", config).expect("bind");
    let events = record_pipelined_burst(&recorder.local_addr().to_string(), lines);
    recorder.shutdown();
    recorder.join();
    events
}

fn assert_replays(outcome: &ReplayOutcome) {
    assert!(
        outcome.matches(),
        "replay diverged: {:?}",
        outcome.first_divergence()
    );
}

/// Write all of `lines` as ONE pipelined burst, then read one reply per
/// line, returning the exchange as a well-formed trace (sends first,
/// then recvs — exactly how replay re-batches them).
fn record_pipelined_burst(addr: &str, lines: &[&str]) -> Vec<TraceEvent> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut burst = lines.join("\n");
    burst.push('\n');
    writer.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = LineReader::new(stream);
    let mut events: Vec<TraceEvent> = lines
        .iter()
        .map(|l| TraceEvent::Send(l.to_string()))
        .collect();
    for _ in lines {
        let reply = read_reply(&mut reader)
            .expect("read reply")
            .expect("server closed early");
        events.push(TraceEvent::Recv(reply));
    }
    events
}

/// A burst that overflows a queue_limit=3 server *and* fails mid-run:
/// the recorded transcript must contain an E_BUSY rejection and a
/// skipped-tail error, and replaying the trace against fresh servers of
/// the same shape must reproduce both, byte-for-byte.
#[test]
fn busy_and_skipped_tail_replays_byte_identically() {
    let lines = [
        "use t",
        "scenario 60 7", // ok (slow: queue stays occupied)
        "impute 9 3",    // E_NOT_FOUND: only datasets 0..3 exist
        "scroll 1",      // same run as the failure -> skipped tail
        "session_info",  // past the queue limit -> E_BUSY
        "session_info",
        "ping",
    ];
    let events = record_on_fresh_server(queue_of_three(), &lines);

    let errs: Vec<&fv_api::ApiError> = events.iter().filter_map(|e| e.err()).collect();
    assert!(
        errs.iter().any(|e| e.code == ErrorCode::Busy),
        "burst should have overflowed the queue: {errs:?}"
    );
    assert!(
        errs.iter()
            .any(|e| e.code == ErrorCode::NotFound && e.message.contains("dataset")),
        "impute of a missing dataset should fail typed: {errs:?}"
    );
    assert!(
        errs.iter().any(|e| e.message.starts_with("skipped:")),
        "the failed run should skip its tail: {errs:?}"
    );

    // Two fresh servers with the recorder's shape: both agree with the
    // recording and (therefore) with each other, byte for byte.
    let replay_fresh = || {
        let server = Server::bind("127.0.0.1:0", queue_of_three()).expect("bind");
        let outcome = replay_remote(&server.local_addr().to_string(), &events).expect("replay ran");
        server.shutdown();
        server.join();
        assert_replays(&outcome);
        outcome.received
    };
    assert_eq!(replay_fresh(), replay_fresh());
}

/// Transport controls have no stand-in to answer them wrongly: the
/// private server routes, lists and migrates exactly as the recorder did.
#[test]
fn transport_controls_replay_on_the_private_server() {
    let shards = ServerConfig::default().shards;
    let away = (fv_net::shard_of(&fv_api::SessionId::new("t").unwrap(), shards) + 1) % shards;
    let migrate = format!("migrate t {away}");
    let lines = [
        "use t",
        "scenario 60 7",
        "list-sessions",
        &migrate,
        "list-sessions",
        "session_info",
        "garbage word",
        "close",
        "ping",
    ];
    let events = record_on_fresh_server(ServerConfig::default(), &lines);
    assert_eq!(
        events.last(),
        Some(&TraceEvent::recv_ok("pong")),
        "{events:?}"
    );
    assert_replays(&replay_local(&events).expect("replay ran"));
}

/// The same trace survives a round-trip through the text format: what
/// `fvtool trace record` writes, `fvtool trace replay` reproduces.
#[test]
fn formatted_trace_replays_after_reparse() {
    let lines = ["use fmt", "scenario 60 3", "session_info", "scroll 2"];
    let events = record_on_fresh_server(ServerConfig::default(), &lines);

    let text = fv_api::format_trace(&events);
    let reparsed = fv_api::parse_trace(&text).expect("trace text parses");
    assert_eq!(events, reparsed);
    assert_replays(&replay_local(&reparsed).expect("replay ran"));
}

/// Record through the tap proxy (a real client talking through it to a
/// real server), then replay the captured trace on a private server.
#[test]
fn tap_recorded_trace_replays() {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let upstream = server.local_addr().to_string();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind tap");
    let tap_addr = listener.local_addr().expect("tap addr").to_string();
    let recorder = std::thread::spawn(move || fv_net::record_session(listener, &upstream));

    // Drive the session *through the tap* with the plain client.
    let mut client = fv_net::Client::connect(&tap_addr).expect("connect via tap");
    for line in ["use tapped", "scenario 60 5", "session_info", "scroll -1"] {
        let _ = client.roundtrip(line).expect("roundtrip");
    }
    drop(client);
    let events = recorder
        .join()
        .expect("tap thread")
        .expect("recording succeeded");
    assert_eq!(events.iter().filter(|e| e.is_send()).count(), 4);
    assert_eq!(events.iter().filter(|e| !e.is_send()).count(), 4);
    assert_replays(&replay_local(&events).expect("replay ran"));

    server.shutdown();
    server.join();
}
