//! Concurrency stress: many client threads hammering disjoint sessions on
//! a sharded server. Asserts (1) no deadlocks (the test finishes), (2)
//! per-connection response ordering, (3) final per-session state equal to
//! a sequential in-process replay of the same requests, and (4) overload
//! answered with `E_BUSY` while committed state stays equal to sequential
//! replay of exactly the accepted requests. (Thread count independent of
//! connection count is `idle_threads.rs`, a test binary of its own.)

use fv_api::{EngineHub, SessionId};
use fv_net::{shard_of, Client, Server, ServerConfig};

const SCENE: (usize, usize) = (800, 600);
const N_CLIENTS: usize = 8;
const N_SHARDS: usize = 4;
const ROUNDS: usize = 3;

fn config(shards: usize) -> ServerConfig {
    ServerConfig {
        shards,
        scene: SCENE,
        ..ServerConfig::default()
    }
}

/// The per-client workload: deterministic per client index, touching
/// clustering, selection, scrolling, and introspection.
fn client_script(i: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!("scenario {} {}\n", 60 + 10 * (i % 4), i));
    s.push_str("set_metric euclidean\nset_linkage average\ncluster_all\n");
    for round in 0..ROUNDS {
        s.push_str(&format!("search_select stress\nscroll {}\n", i + round));
        s.push_str("select_region 0 0.1 0.8\nclear_selection\n");
    }
    s.push_str(&format!("scroll {i}\nsession_info\nlist_datasets\n"));
    s
}

/// Expected response texts, via sequential in-process replay.
fn expected_responses(i: usize) -> Vec<String> {
    let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
    let id = SessionId::new(format!("s{i}")).unwrap();
    let lines = fv_api::parse_script(&client_script(i)).unwrap();
    let requests: Vec<fv_api::Request> = lines
        .into_iter()
        .map(|l| match l.item {
            fv_api::codec::ScriptItem::Request(r) => r,
            other => panic!("unexpected item {other:?}"),
        })
        .collect();
    requests
        .iter()
        .map(|r| fv_api::format_response(&hub.execute_on(&id, r).unwrap()))
        .collect()
}

#[test]
fn disjoint_sessions_under_concurrent_load() {
    let server = Server::bind("127.0.0.1:0", config(N_SHARDS)).expect("bind");
    let addr = server.local_addr().to_string();

    // The fixed session names must actually exercise shard parallelism.
    let hit: std::collections::BTreeSet<usize> = (0..N_CLIENTS)
        .map(|i| shard_of(&SessionId::new(format!("s{i}")).unwrap(), N_SHARDS))
        .collect();
    assert!(
        hit.len() >= 2,
        "test sessions all hash to one shard; rename them"
    );

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client =
                    Client::connect(&addr).map_err(|e| format!("client {i}: {e}"))?;
                client
                    .use_session(&format!("s{i}"))
                    .map_err(|e| format!("client {i}: {e}"))?;
                let expected = expected_responses(i);
                let script = client_script(i);
                let mut got = Vec::with_capacity(expected.len());
                for line in script.lines().filter(|l| !l.trim().is_empty()) {
                    let reply = client
                        .roundtrip(line)
                        .map_err(|e| format!("client {i} transport: {e}"))?
                        .map_err(|e| format!("client {i} server error: {e}"))?;
                    got.push(reply);
                }
                if got != expected {
                    return Err(format!(
                        "client {i}: responses out of order or wrong\n got: {got:#?}\nwant: {expected:#?}"
                    ));
                }
                Ok(())
            })
        })
        .collect();
    for w in workers {
        w.join()
            .expect("client thread panicked")
            .expect("client failed");
    }

    // Final state check: one more connection reads every session's info
    // and compares against the sequential replay.
    let mut probe = Client::connect(&addr).unwrap();
    for i in 0..N_CLIENTS {
        probe.use_session(&format!("s{i}")).unwrap();
        let remote = probe
            .roundtrip("session_info")
            .unwrap()
            .expect("session_info succeeds");
        let expected = expected_responses(i);
        // the workload's second-to-last response is its session_info
        let want = &expected[expected.len() - 2];
        assert_eq!(
            &remote, want,
            "final state of s{i} diverged from sequential replay"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn pipelined_burst_preserves_order() {
    // Send the whole workload in one write, then read every frame: the
    // frames must come back exactly in request order. This is the path
    // that exercises server-side run batching hardest.
    use std::io::Write;
    let server = Server::bind("127.0.0.1:0", config(N_SHARDS)).expect("bind");
    let addr = server.local_addr().to_string();

    let workers: Vec<_> = (0..N_CLIENTS)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(&addr).unwrap();
                let mut write_half = stream.try_clone().unwrap();
                let mut reader = fv_net::frame::LineReader::new(stream);
                let script = client_script(i);
                let burst = format!("use s{i}\n{script}");
                write_half.write_all(burst.as_bytes()).unwrap();
                write_half.shutdown(std::net::Shutdown::Write).unwrap();
                // one frame per non-blank line (use included)
                let mut replies = Vec::new();
                while let Some(reply) = fv_net::frame::read_reply(&mut reader).unwrap() {
                    replies.push(reply.expect("no server errors in this workload"));
                }
                assert_eq!(replies[0], format!("using s{i}"));
                let expected = expected_responses(i);
                assert_eq!(&replies[1..], &expected[..], "client {i} order broken");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }
    server.shutdown();
    server.join();
}

#[test]
fn same_session_from_many_connections_serializes() {
    // Not disjoint this time: 6 connections scroll the SAME session.
    // Interleaving across connections is unspecified, but the total
    // scroll must equal the sum — no lost updates, no torn state.
    let server = Server::bind("127.0.0.1:0", config(N_SHARDS)).expect("bind");
    let addr = server.local_addr().to_string();
    let mut setup = Client::connect(&addr).unwrap();
    setup.use_session("shared").unwrap();
    setup.roundtrip("scenario 300 1").unwrap().unwrap();
    // scroll clamps to the selection size, so select everything first —
    // 300 genes leaves headroom for every client's scrolls to count.
    setup.roundtrip("select_region 0 0.0 1.0").unwrap().unwrap();

    const PER_CLIENT_SCROLLS: usize = 20;
    let workers: Vec<_> = (0..6)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                client.use_session("shared").unwrap();
                for _ in 0..PER_CLIENT_SCROLLS {
                    client.roundtrip("scroll 1").unwrap().unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread panicked");
    }
    let info = setup.roundtrip("session_info").unwrap().unwrap();
    let scroll = info
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .find_map(|t| t.strip_prefix("scroll="))
        .and_then(|v| v.parse::<usize>().ok())
        .expect("session_info carries scroll=");
    assert_eq!(scroll, 6 * PER_CLIENT_SCROLLS, "lost scroll updates");
    server.shutdown();
    server.join();
}

#[test]
fn overload_gets_busy_and_committed_state_matches_sequential_replay() {
    // A client pipelining far past the pending-request bound gets typed
    // `E_BUSY` frames (in request order) for the overflow — and the
    // session's committed state equals a sequential replay of exactly
    // the requests that were answered `ok`.
    use std::io::Write;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            scene: SCENE,
            queue_limit: 8,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let mut setup = Client::connect(&addr).unwrap();
    setup.use_session("flood").unwrap();
    setup.roundtrip("scenario 300 1").unwrap().unwrap();
    setup.roundtrip("select_region 0 0.0 1.0").unwrap().unwrap();

    const BURST: usize = 500;
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut write_half = stream.try_clone().unwrap();
    let mut reader = fv_net::frame::LineReader::new(stream);
    let mut burst = String::from("use flood\n");
    for _ in 0..BURST {
        burst.push_str("scroll 1\n");
    }
    write_half.write_all(burst.as_bytes()).unwrap();
    write_half.shutdown(std::net::Shutdown::Write).unwrap();

    let first = fv_net::frame::read_reply(&mut reader).unwrap().unwrap();
    assert_eq!(first.unwrap(), "using flood");
    let (mut n_ok, mut n_busy) = (0usize, 0usize);
    while let Some(reply) = fv_net::frame::read_reply(&mut reader).unwrap() {
        match reply {
            Ok(text) => {
                assert!(text.starts_with("applied "), "unexpected reply {text}");
                n_ok += 1;
            }
            Err(e) => {
                assert_eq!(e.code, fv_api::ErrorCode::Busy, "{e}");
                n_busy += 1;
            }
        }
    }
    assert_eq!(n_ok + n_busy, BURST, "every request got exactly one frame");
    assert!(n_busy > 0, "a 500-deep pipeline must overrun a bound of 8");
    assert!(n_ok > 0, "the bound admits work up to the limit");

    // Committed state == sequential replay of the accepted prefix.
    let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
    let id = SessionId::new("flood").unwrap();
    for line in ["scenario 300 1", "select_region 0 0.0 1.0"] {
        hub.execute_on(&id, &fv_api::parse_request(line).unwrap())
            .unwrap();
    }
    let scroll = fv_api::parse_request("scroll 1").unwrap();
    for _ in 0..n_ok {
        hub.execute_on(&id, &scroll).unwrap();
    }
    let expected = fv_api::format_response(
        &hub.execute_on(&id, &fv_api::parse_request("session_info").unwrap())
            .unwrap(),
    );
    let remote = setup.roundtrip("session_info").unwrap().unwrap();
    assert_eq!(
        remote, expected,
        "committed state diverged from replaying the {n_ok} accepted requests"
    );

    // …and the busy counter is visible in server metrics.
    let stats = setup.stats().unwrap();
    assert_eq!(stats.busy_rejections as usize, n_busy);
    assert!(stats.shards.iter().all(|s| s.queued == 0), "{stats:?}");
    server.shutdown();
    server.join();
}
