//! End-to-end autobalancer test against a real localhost server:
//! skewed traffic must trigger at least one *automatic* migration with
//! transcripts staying byte-identical to local replay. (The decisions
//! that need no socket — the install-failure restore path and its
//! cooldown, the Off→Auto flip — are tested on the protocol core, which
//! is handed its ticks: `crates/net/src/protocol.rs`.)

use fv_api::{EngineHub, SessionId};
use fv_net::balance::BalanceConfig;
use fv_net::{run_script_remote, shard_of, BalanceMode, Client, Server, ServerConfig};
use std::time::{Duration, Instant};

const SCENE: (usize, usize) = (800, 600);

/// Session names that all hash-route to shard 0 of `shards` — the
/// worst-case skew a static partitioner can produce.
fn skewed_names(n: usize, shards: usize) -> Vec<String> {
    (0..)
        .map(|i| format!("skew{i}"))
        .filter(|name| shard_of(&SessionId::new(name.clone()).unwrap(), shards) == 0)
        .take(n)
        .collect()
}

/// One round of real work for `session` — enough latency and request
/// count for the balancer's load deltas to register. Round 0 loads the
/// scenario datasets; later rounds re-run the analysis pipeline over
/// them (a scenario can only be loaded once per session).
fn round_script(session: &str, round: usize) -> String {
    if round == 0 {
        format!(
            "use {session}\nscenario 80 1\ncluster_all\nsearch_select stress\nscroll 1\nsession_info\n"
        )
    } else {
        format!("use {session}\ncluster_all\nsearch_select stress\nscroll {round}\nsession_info\n")
    }
}

fn remote_transcript(addr: &str, script: &str) -> String {
    let mut out = String::new();
    run_script_remote(addr, script, |block| out.push_str(block)).expect("remote replay succeeds");
    out
}

#[test]
fn skewed_load_triggers_automatic_migration_with_identical_transcripts() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            scene: SCENE,
            balance: BalanceMode::Auto,
            balance_interval: Duration::from_millis(50),
            balance_cfg: BalanceConfig {
                budget: 2,
                trigger_ratio: 1.3,
                settle_ratio: 1.1,
                min_total_load: 1,
                cooldown_ticks: 3,
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // Six sessions, all hash-routed to shard 0: a statically-partitioned
    // server would leave shard 1 idle forever. Each round drives all six
    // sessions *concurrently* (pipelined clients), so the balancer's
    // interval snapshots observe genuinely overlapping load — and every
    // transcript is still compared byte-for-byte against local replay.
    let names = skewed_names(6, 2);
    let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
    let mut drive_round = |round: usize| {
        let handles: Vec<_> = names
            .iter()
            .cloned()
            .map(|name| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let script = round_script(&name, round);
                    let remote = remote_transcript(&addr, &script);
                    (name, script, remote)
                })
            })
            .collect();
        for handle in handles {
            let (name, script, remote) = handle.join().expect("client thread");
            let mut expected = String::new();
            local
                .run_script_streaming(&script, |e| expected.push_str(&e.render()))
                .expect("local replay succeeds");
            assert_eq!(
                remote, expected,
                "round {round}, session {name}: transcript drifted from local replay"
            );
        }
    };
    drive_round(0);

    // Keep skewed load flowing, one concurrent round per poll, until the
    // balancer has moved at least one session off the hot shard.
    let mut client = Client::connect(&addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut round = 1;
    loop {
        let stats = client.stats().expect("stats");
        if stats.balancer_moves >= 1 {
            assert!(stats.balancer_ticks >= 1);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no automatic migration after skewed load; stats: ticks={} moves={} failed={}",
            stats.balancer_ticks,
            stats.balancer_moves,
            stats.balancer_failed
        );
        drive_round(round);
        round += 1;
        std::thread::sleep(Duration::from_millis(60));
    }

    // Let in-flight work drain, then assert the post-balance steady
    // state: nothing stuck in any shard queue, no failed move.
    std::thread::sleep(Duration::from_millis(300));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.balancer_failed, 0, "no move may fail in this test");
    for shard in &stats.shards {
        assert_eq!(
            shard.queued, 0,
            "shard {} still has queued jobs after balancing",
            shard.shard
        );
    }
    // The placement itself moved: some session now lives on shard 1, and
    // none were lost.
    let sessions = client.list_sessions().expect("list-sessions");
    assert_eq!(sessions.len(), names.len(), "no session may be lost");
    assert!(
        sessions.iter().any(|s| s.shard == 1),
        "at least one session must live on shard 1: {sessions:?}"
    );
    // The balance status plane agrees with stats and shows the decisions.
    let status = client.balance_status().expect("balance status");
    assert_eq!(status.mode, BalanceMode::Auto);
    assert!(
        status.completed >= stats.balancer_moves,
        "status plane lags stats: {} < {}",
        status.completed,
        stats.balancer_moves
    );
    assert!(!status.recent.is_empty());

    // And after all that movement, transcripts still match local replay
    // byte for byte — migration is invisible to session semantics.
    for name in &names {
        let probe = format!("use {name}\nsession_info\nlist_datasets\n");
        let remote = remote_transcript(&addr, &probe);
        let mut expected = String::new();
        local
            .run_script_streaming(&probe, |e| expected.push_str(&e.render()))
            .expect("local probe succeeds");
        assert_eq!(remote, expected, "post-balance probe drifted for {name}");
    }

    server.shutdown();
    server.join();
}
