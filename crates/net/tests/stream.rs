//! fv-stream over a real socket: [`Watcher`] subscribes, reassembles the
//! binary tile stream the server interleaves with text replies, and
//! unsubscribes; and a viewer that stops reading must never block the
//! event loop, its peers, or request/response traffic — the one test of
//! write backpressure on a real socket. (What is streamed when — deltas,
//! coalescing, the re-sync after a migration — is decided by the protocol
//! core and tested there, on parked shards:
//! `crates/net/src/protocol/server_sim.rs`.)

use fv_api::{EngineHub, SessionId};
use fv_net::{Client, Server, ServerConfig, Watcher};
use fv_render::Framebuffer;
use fv_wall::stream::FrameKind;
use std::time::Duration;

const SCENE: (usize, usize) = (800, 600);

fn server(shards: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            scene: SCENE,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port")
}

/// Render what a local replay of `lines` (on a fresh hub) looks like —
/// the ground truth every subscriber's reassembled wall must match.
fn local_render(session: &str, lines: &[&str]) -> Framebuffer {
    let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
    let script = format!("use {session}\n{}\n", lines.join("\n"));
    hub.run_script(&script).expect("local replay succeeds");
    let sid = SessionId::new(session.to_string()).unwrap();
    let engine = hub.get(&sid).expect("session exists");
    forestview::renderer::render_desktop(engine.session(), SCENE.0, SCENE.1)
}

/// Run `lines` on the server through a request/response client.
fn run_remote(client: &mut Client, session: &str, lines: &[&str]) {
    client.use_session(session).unwrap();
    for line in lines {
        client
            .roundtrip(line)
            .expect("transport up")
            .unwrap_or_else(|e| panic!("request {line:?} failed: {e}"));
    }
}

/// Drain every frame currently flowing (until `idle` of silence).
fn drain(watcher: &mut Watcher, idle: Duration) -> Vec<(u64, FrameKind)> {
    watcher.set_read_timeout(Some(idle)).unwrap();
    let mut seen = Vec::new();
    while let Some(frame) = watcher.next_frame().expect("stream stays well-formed") {
        seen.push((frame.seq, frame.kind));
    }
    seen
}

#[test]
fn keyframe_matches_local_render_for_every_subscriber() {
    let server = server(4);
    let addr = server.local_addr().to_string();
    let mutations = [
        "scenario 80 3",
        "cluster_all",
        "scroll 2",
        "set_contrast 0 1.8",
    ];
    let mut client = Client::connect(&addr).unwrap();
    run_remote(&mut client, "walls", &mutations);

    // Subscribe AFTER the state exists: each viewer gets a keyframe of
    // the current desktop, regardless of its tiling.
    let expected = local_render("walls", &mutations);
    for (tx, ty) in [(4, 2), (2, 3), (1, 1)] {
        let mut w = Watcher::connect(&addr, "walls", tx, ty).unwrap();
        let seen = drain(&mut w, Duration::from_millis(400));
        assert_eq!(seen.len(), tx * ty, "one keyframe per tile");
        assert!(seen
            .iter()
            .all(|&(seq, kind)| seq == 0 && kind == FrameKind::Key));
        assert_eq!(
            w.framebuffer().bytes(),
            expected.bytes(),
            "{tx}x{ty} viewer reassembled a different wall than a local render"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn stalled_subscriber_never_blocks_peers_and_recovers_via_keyframe() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let setup = ["scenario 80 3", "cluster_all"];
    let mut client = Client::connect(&addr).unwrap();
    run_remote(&mut client, "walls", &setup);

    // The stalled viewer subscribes, acks once, and then never reads:
    // either its outbox fills past the watermark or its ack lag crosses
    // the threshold — both mark it for a fresh keyframe instead of a
    // backlog.
    let mut stalled = Watcher::connect(&addr, "walls", 2, 2).unwrap();
    stalled.ack(0);
    // A healthy viewer rides along.
    let mut fast = Watcher::connect(&addr, "walls", 4, 2).unwrap();
    let _ = drain(&mut fast, Duration::from_millis(400));

    // Hammer mutations; request/response must stay live throughout even
    // though one subscriber is comatose.
    let mut hammered = Vec::new();
    for i in 0..60 {
        let line = format!("scroll {}", i % 7);
        client.roundtrip(&line).unwrap().unwrap();
        hammered.push(line);
    }
    client.ping().expect("request/response stays live");
    let _ = drain(&mut fast, Duration::from_millis(400));

    // The healthy viewer converged on the final state.
    let mut all: Vec<&str> = setup.to_vec();
    all.extend(hammered.iter().map(|s| s.as_str()));
    let expected = local_render("walls", &all);
    assert_eq!(
        fast.framebuffer().bytes(),
        expected.bytes(),
        "fast viewer diverged while a peer was stalled"
    );

    // The server noticed the backlog and dropped the stalled viewer to a
    // keyframe re-sync rather than queueing 60 updates behind it.
    let stats = client.stats().unwrap();
    assert_eq!(stats.stream.subscribers, 2);
    assert!(stats.stream.dropped >= 1, "stats: {:?}", stats.stream);
    assert!(stats.stream.frames > 0 && stats.stream.bytes > 0);

    // The stalled viewer finally reads: whatever was in flight before
    // the cutoff, then — once it acks up to date — a fresh keyframe of
    // the CURRENT state, never the 60-update backlog.
    let mut seen = drain(&mut stalled, Duration::from_millis(600));
    assert!(!seen.is_empty());
    if let Some(last) = stalled.last_seq() {
        stalled.ack(last);
    }
    seen.extend(drain(&mut stalled, Duration::from_millis(600)));
    assert!(stalled.keyframes() >= 2, "initial + re-sync keyframes");
    // Per-subscriber seqs stay gapless even across the drop-to-keyframe:
    // the encoder freezes while the viewer is cut off, so the re-sync
    // keyframe lands at exactly the next seq.
    let seqs: Vec<u64> = seen.iter().map(|&(s, _)| s).collect();
    let mut uniq = seqs.clone();
    uniq.dedup();
    assert_eq!(
        uniq.last().map(|&s| s + 1),
        Some(uniq.len() as u64),
        "stalled viewer saw a seq gap: {uniq:?}"
    );
    assert_eq!(
        stalled.framebuffer().bytes(),
        expected.bytes(),
        "recovered viewer must land on the current state"
    );
    server.shutdown();
    server.join();
}

#[test]
fn stats_counts_the_packed_bytes_the_watcher_decoded() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let setup = ["scenario 80 3", "cluster_all"];
    let mutations = ["scroll 3", "set_contrast 0 2.5", "select_region 0 0.2 0.6"];
    let mut client = Client::connect(&addr).unwrap();
    run_remote(&mut client, "walls", &setup);
    let mut watcher = Watcher::connect(&addr, "walls", 4, 2).unwrap();
    let idle = Some(Duration::from_millis(400));
    watcher.set_read_timeout(idle).unwrap();
    let (mut decoded, mut pixels) = (0, 0);
    for line in mutations {
        client.roundtrip(line).unwrap().unwrap();
        while let Some(frame) = watcher.next_frame().expect("stream stays well-formed") {
            decoded += frame.encoded_len() as u64;
            pixels += frame.rect.area() as u64;
        }
    }
    let stats = client.stats().unwrap().stream;
    assert_eq!((stats.bytes, stats.pixels), (decoded, pixels), "{stats:?}");
    // Colour runs pack: the wire carries a fraction of the raw RGB.
    assert!(decoded * 4 < pixels * 3, "{decoded} B for {pixels} pixels");
    let expected = local_render("walls", &[&setup[..], &mutations[..]].concat());
    assert_eq!(watcher.framebuffer().bytes(), expected.bytes());
    server.shutdown();
    server.join();
}

#[test]
fn unsubscribe_stops_the_stream_and_is_idempotent() {
    let server = server(2);
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    run_remote(&mut client, "walls", &["scenario 60 1"]);

    let mut w = Watcher::connect(&addr, "walls", 2, 2).unwrap();
    let _ = drain(&mut w, Duration::from_millis(400));
    w.set_read_timeout(None).unwrap();
    w.unsubscribe().expect("unsubscribe acks");

    // Mutations after unsubscribe must not reach the ex-viewer.
    client.roundtrip("scroll 5").unwrap().unwrap();
    client.roundtrip("toggle_sync").unwrap().unwrap();
    let after = drain(&mut w, Duration::from_millis(400));
    assert!(after.is_empty(), "frames after unsubscribe: {after:?}");

    let stats = client.stats().unwrap();
    assert_eq!(stats.stream.subscribers, 0);
    server.shutdown();
    server.join();
}
