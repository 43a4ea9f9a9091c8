//! The client side under hostile input: hostile reply frames are typed
//! errors through every entry point of the one reply decoder, and the
//! `stats` / `balance` parsers are total over arbitrary and byte-mangled
//! text; plus one socket check that an execution error poisons neither
//! its session nor its shard. (The rest of the server side — malformed,
//! oversized, binary and blank lines, mid-script disconnects, mangled
//! scripts — is the protocol core's, fed arbitrary bytes in arbitrary
//! chunks by `crates/net/src/protocol/server_sim.rs`; framing alone by
//! the chunking proptest in `crates/net/src/frame.rs`.)

#![allow(
    clippy::disallowed_methods,
    reason = "tests run a fake peer on a thread of their own"
)]

use fv_api::{
    format_session_image, format_sessions_reply, parse_session_image, parse_sessions_reply,
    ApiError, ErrorCode,
};
use fv_net::balance::{format_balance, parse_balance};
use fv_net::frame::{push_err_frame, read_reply, FrameBuf, LineReader};
use fv_net::metrics::{format_stats, parse_stats};
use fv_net::{Client, ReplyAssembler, Server, ServerConfig, Watcher};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::io::{Read, Write};
use std::net::TcpListener;

fn server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: 4,
            scene: (800, 600),
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

#[test]
fn execution_errors_do_not_poison_the_session_or_shard() {
    let server = server();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.use_session("victim").unwrap();
    client.roundtrip("scenario 60 1").unwrap().unwrap();
    let err = client
        .roundtrip("impute 9 3")
        .unwrap()
        .expect_err("bad dataset index");
    assert_eq!(err.code, fv_api::ErrorCode::NotFound);
    // state before the error is intact, further requests fine
    let info = client.roundtrip("session_info").unwrap().unwrap();
    assert!(info.starts_with("session datasets=3"));
    server.shutdown();
    server.join();
}

/// Property test over the outbound half: `err` frames flatten any
/// newlines in their message, so multi-line error messages round-trip
/// through `read_reply` as single-frame, whitespace-flattened text.
#[test]
fn multiline_error_messages_roundtrip_flattened() {
    let mut rng = TestRng::from_name("multiline_err");
    const WORDS: &[&str] = &["alpha", "beta", "gamma", "delta", "eps"];
    for _ in 0..64 {
        let n = 1 + rng.below(6) as usize;
        let message: String = (0..n)
            .map(|_| WORDS[rng.below(WORDS.len() as u64) as usize])
            .collect::<Vec<_>>()
            .join(if rng.below(2) == 0 { "\n" } else { "\r\n" });
        let err = fv_api::ApiError::invalid(message.clone());
        let mut buf = Vec::new();
        push_err_frame(&mut buf, &err);
        let mut reader = LineReader::new(&buf[..]);
        let got = read_reply(&mut reader).unwrap().unwrap().unwrap_err();
        assert_eq!(got.code, err.code);
        assert_eq!(got.message, message.replace(['\n', '\r'], " "));
        assert!(read_reply(&mut reader).unwrap().is_none(), "one frame");
    }
}

/// A `subscribe` ack is an ordinary reply frame, and the reply grammar
/// has one decoder with three entry points: the blocking `read_reply`,
/// the push-fed `ReplyAssembler`, and `Watcher::connect` (which feeds it
/// from its own buffer). A hostile or dying server gets the same typed
/// error from all three — never a panic, never a reservation sized by
/// the `ok <n>` count.
#[test]
fn hostile_subscribe_acks_are_typed_errors_through_every_entry_point() {
    for (ack, code) in [
        // a count no frame could hold (used to panic the Watcher with
        // `capacity overflow`), and the count that holds nothing
        ("ok 18446744073709551615\n", ErrorCode::Parse),
        ("ok 0\n", ErrorCode::Parse),
        // an error code outside the registry
        ("err E_NOPE x\n", ErrorCode::Parse),
        // the server dies one line short of its own count
        ("ok 2\nsubscribed d 2x2 640x480\n", ErrorCode::Io),
    ] {
        let via_read_reply = read_reply(&mut LineReader::new(ack.as_bytes()))
            .expect_err("no reply completes")
            .code;
        assert_eq!(via_read_reply, code, "read_reply on {ack:?}");

        let mut frames = FrameBuf::new();
        frames.feed(ack.as_bytes());
        let mut assembler = ReplyAssembler::new();
        let mut via_push_line = None;
        while let Some(line) = frames.next_line() {
            match assembler.push_line(&line.unwrap()) {
                Ok(reply) => assert!(reply.is_none(), "no reply completes for {ack:?}"),
                Err(e) => via_push_line = Some(e.code),
            }
        }
        // EOF inside an open frame is the caller's E_IO
        let via_push_line =
            via_push_line.or_else(|| assembler.mid_frame().then_some(ErrorCode::Io));
        assert_eq!(via_push_line, Some(code), "push_line on {ack:?}");

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut line = [0u8; 64];
            let n = conn.read(&mut line).unwrap();
            assert!(line[..n].starts_with(b"subscribe d 2x2"));
            conn.write_all(ack.as_bytes()).unwrap();
        });
        let via_watcher = Watcher::connect(&addr, "d", 2, 2).map(|_| ()).unwrap_err();
        assert_eq!(via_watcher.code, code, "Watcher::connect on {ack:?}");
        server.join().unwrap();
    }
}

/// A fake server for one watcher: answers its `subscribe` line with
/// `ack`, its `unsubscribe` line with `then`, and hangs up.
fn fake_stream_server(ack: &'static str, then: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut lines = LineReader::new(conn.try_clone().unwrap());
        let mut conn = conn;
        assert_eq!(lines.read_line().unwrap().unwrap(), "subscribe d 2x2");
        conn.write_all(ack.as_bytes()).unwrap();
        if let Ok(Some(line)) = lines.read_line() {
            assert_eq!(line, "unsubscribe");
            conn.write_all(&then).unwrap();
        }
    });
    (addr, server)
}

/// A watcher reads its socket in one place, and names what a hang-up cut
/// short: a reply that ends mid-frame during `unsubscribe` says so. Tile
/// frames ahead of the confirmation are applied; an ack for another
/// session or grid than the one asked for, or for an empty wall (which
/// used to panic building the grid), is refused.
#[test]
fn a_watcher_drains_to_its_confirmation_and_names_a_cut_exchange() {
    let ack = "ok 1\nsubscribed d 2x2 4x2\n";
    let grid = fv_wall::tile::TileGrid::new(2, 2, 2, 1);
    let mut tiles = fv_wall::stream::TileStreamEncoder::new(grid);
    let frames = tiles.keyframe(&fv_render::Framebuffer::new(4, 2));
    let mut then: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
    then.extend_from_slice(b"ok 1\nunsubscribed d\n");
    let (addr, server) = fake_stream_server(ack, then);
    let mut watcher = Watcher::connect(&addr, "d", 2, 2).unwrap();
    watcher.unsubscribe().unwrap();
    assert_eq!(watcher.frames(), 4, "the keyframe ahead of the reply");
    server.join().unwrap();

    let (addr, server) = fake_stream_server(ack, b"ok 1\n".to_vec());
    let mut watcher = Watcher::connect(&addr, "d", 2, 2).unwrap();
    let cut = watcher.unsubscribe().unwrap_err();
    assert_eq!(cut.code, ErrorCode::Io);
    assert!(cut.message.starts_with("unsubscribe:"), "{cut:?}");
    server.join().unwrap();

    // another session, another grid, and a wall no grid can cut
    for other in [
        "ok 1\nsubscribed e 2x2 4x2\n",
        "ok 1\nsubscribed d 1x2 4x2\n",
        "ok 1\nsubscribed d 2x2 0x0\n",
    ] {
        let (addr, server) = fake_stream_server(other, Vec::new());
        let refused = Watcher::connect(&addr, "d", 2, 2).map(|_| ()).unwrap_err();
        assert_eq!(refused.code, ErrorCode::Parse, "{other:?}");
        server.join().unwrap();
    }
}

// ── total parsers for the transport records ─────────────────────────────

/// One canonical text per `key=value` record the client decodes — the
/// wire bytes, pinned.
const STATS: &str = "stats shards=2 backend=procs connections=3 sessions=5 frames_in=120 \
    frames_out=118 busy=2 garbage=4 disconnects=3 runs=40 requests=90 max_run=12 \
    cache_entries=1 cache_hits=63 cache_misses=1 cache_evictions=0 derived_entries=3 \
    derived_hits=6 derived_misses=3 balancer_ticks=7 balancer_moves=2 balancer_failed=1 \
    recovered=4\n  \
    stream subscribers=2 frames=48 bytes=1843298 pixels=614400 coalesced=3 dropped=1\n  \
    shard 0 pid=4242 sessions=3 queued=0 runs=25 requests=60 max_run=12 \
    lat_us=50,0,9,0,0,1,0,0,0,0 lat_max_us=3120\n  \
    shard 1 pid=4301 sessions=2 queued=1 runs=15 requests=30 max_run=7 \
    lat_us=0,30,0,0,0,0,0,0,0,0 lat_max_us=99";
const STATS_NO_SHARDS: &str = "stats shards=0 backend=threads connections=1 sessions=0 \
    frames_in=1 frames_out=0 busy=0 garbage=0 disconnects=0 runs=0 requests=0 max_run=0 \
    cache_entries=0 cache_hits=0 cache_misses=0 cache_evictions=0 derived_entries=0 \
    derived_hits=0 derived_misses=0 balancer_ticks=0 balancer_moves=0 balancer_failed=0 \
    recovered=0\n  \
    stream subscribers=0 frames=0 bytes=0 pixels=0 coalesced=0 dropped=0";
const BALANCE: &str = "balance mode=auto ticks=42 planned=5 completed=4 failed=1 cooling=2 \
    budget=2 trigger=1.5 settle=1.15 cooldown=8 min_load=1000\n  \
    move alpha 0 3 tick=40 load=512 outcome=done\n  \
    move beta 2 1 tick=41 load=77 outcome=failed\n  \
    move gamma 1 0 tick=42 load=9 outcome=inflight";
const BALANCE_NO_MOVES: &str = "balance mode=off ticks=0 planned=0 completed=0 failed=0 \
    cooling=0 budget=2 trigger=1.5 settle=1.15 cooldown=8 min_load=1000";
const SESSIONS: &str =
    "sessions n=2\n  session alpha shard=1 datasets=3\n  session beta shard=0 datasets=0";
const IMAGE: &str = "session-image v2 scene=800x600 requests=12 datasets=2 log=2\n  \
    dataset len=482 mtime=1754550000000000000 hash=9637325990313059835 \
    path=data/gasch stress.pcl\n  \
    dataset len=77 mtime=- hash=42 path=data/other.pcl\n  \
    load data/gasch stress.pcl\n  \
    set_metric euclidean";

/// `parse → format` reproduces the text and `format → parse` the value:
/// the struct↔text mapping of a record is one table read in both
/// directions, so neither can drift from the other.
fn walk<T: PartialEq + std::fmt::Debug>(
    text: &str,
    parse: impl Fn(&str) -> Result<T, ApiError>,
    format: impl Fn(&T) -> String,
) {
    let value = parse(text).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
    assert_eq!(format(&value), text);
    assert_eq!(parse(&format(&value)).unwrap(), value);
}

#[test]
fn every_converted_record_roundtrips_through_its_one_table() {
    walk(STATS, parse_stats, format_stats);
    walk(STATS_NO_SHARDS, parse_stats, format_stats);
    walk(BALANCE, parse_balance, format_balance);
    walk(BALANCE_NO_MOVES, parse_balance, format_balance);
    for text in [SESSIONS, "sessions n=0"] {
        walk(text, parse_sessions_reply, |v| format_sessions_reply(v));
    }
    walk(IMAGE, parse_session_image, format_session_image);
    // wire keys that differ from their field names land where they should
    let stats = parse_stats(STATS).unwrap();
    assert_eq!(
        (
            stats.busy_rejections,
            stats.garbage_frames,
            stats.dirty_disconnects
        ),
        (2, 4, 3)
    );
    assert_eq!((stats.shards[1].shard, stats.shards[1].pid), (1, 4301));
    let balance = parse_balance(BALANCE).unwrap();
    assert_eq!((balance.trigger_ratio, balance.settle_ratio), (1.5, 1.15));
    assert_eq!((balance.cooldown_ticks, balance.min_total_load), (8, 1000));
    assert_eq!((balance.recent[0].from, balance.recent[0].to), (0, 3));
    // Each row is its section's, in declared order, as many as counted.
    let stream =
        "\n  stream subscribers=2 frames=48 bytes=1843298 pixels=614400 coalesced=3 dropped=1";
    let (stats_head, stats_rows) = STATS.split_once(stream).unwrap();
    for bad in [
        // the stream row after the shard rows, or missing
        format!("{stats_head}{stats_rows}{stream}"),
        format!("{stats_head}{stats_rows}"),
        // a shard row past the count, one short, a count no reply holds
        format!("{STATS}\n  shard 2 pid=1 sessions=0 queued=0 runs=0 requests=0 max_run=0 lat_us=0,0,0,0,0,0,0,0,0,0 lat_max_us=0"),
        STATS.replacen("shards=2", "shards=3", 1),
        STATS.replacen("shards=2", "shards=18446744073709551615", 1),
        // a row under an unknown word
        format!("{STATS}\n  shards 2"),
    ] {
        assert!(parse_stats(&bad).is_err(), "{bad:?}");
    }
    for bad in [
        format!("{BALANCE}\n  moved delta 0 1 tick=1 load=1 outcome=done"),
        format!("{BALANCE}\n  move delta 0 tick=1 load=1 outcome=done"),
        format!("{BALANCE}\nmove delta 0 1 tick=1 load=1 outcome=done"),
    ] {
        assert!(parse_balance(&bad).is_err(), "{bad:?}");
    }
}

/// `text` with `flips` bytes overwritten and, one time in four, its tail
/// cut off — corruption that keeps most of the structure, which is what
/// reaches the deep parse paths. Lossy UTF-8, since the parsers take
/// `&str` (the frame layer has already rejected invalid UTF-8).
fn mangle(text: &str, flips: &[(usize, u8)]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(at, byte) in flips {
        let at = at % bytes.len();
        if byte % 4 == 0 {
            bytes.truncate(at);
            break;
        }
        bytes[at] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    /// Total parsers: whatever text arrives, `parse_stats` and
    /// `parse_balance` return a typed error or a well-formed value (one
    /// that re-formats and re-parses to itself) — they never panic.
    #[test]
    fn stats_and_balance_parsers_are_total(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..5),
    ) {
        let noise = String::from_utf8_lossy(&noise).into_owned();
        for text in [noise.clone(), mangle(STATS, &flips), mangle(STATS_NO_SHARDS, &flips)] {
            if let Ok(stats) = parse_stats(&text) {
                prop_assert_eq!(parse_stats(&format_stats(&stats)).unwrap(), stats);
            }
        }
        for text in [noise, mangle(BALANCE, &flips), mangle(BALANCE_NO_MOVES, &flips)] {
            if let Ok(status) = parse_balance(&text) {
                // `{:?}` equality: a mangled ratio may parse as NaN
                let again = parse_balance(&format_balance(&status)).unwrap();
                prop_assert_eq!(format!("{again:?}"), format!("{status:?}"));
            }
        }
    }
}
