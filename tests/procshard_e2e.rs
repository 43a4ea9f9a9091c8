//! End-to-end tests of what only a real child process can show: a
//! server whose shards are child `fvtool shard-worker` processes — the
//! very worker `fvtool serve --shard-procs` re-execs — plays the golden
//! script byte-identically with one pid per shard and leaves zero
//! orphaned children behind after shutdown; answers an unbuildable
//! synthetic load as the thread backend does; keeps derived results per
//! child, so a move onto a sibling's worker is a hit and a lone move a
//! miss; answers `E_SHARD_DOWN` for a SIGKILLed worker while other
//! shards keep serving; and fails the boot by name when a worker exits
//! before its `hello` on its stdout pipe.
//!
//! What the shard codec carries — pipelined failures, migrations,
//! refused installs, the reports the balancer plans from — is swept in
//! memory by the server simulation, whose process worlds serve every op
//! through it (`crates/net/src/protocol/server_sim.rs`).

#![allow(
    clippy::disallowed_methods,
    reason = "tests kill worker processes and probe their pids"
)]

use fv_api::{EngineHub, SessionId};
use fv_net::{run_script_remote, shard_of, Client, Server, ServerConfig, ShardBackendConfig};
use std::time::{Duration, Instant};

/// The golden script of `fv-api` (the protocol's reference workload).
const GOLDEN_SCRIPT: &str = include_str!("../crates/api/tests/data/session.fvs");

/// Scene used by the golden transcript.
const SCENE: (usize, usize) = (800, 600);

/// `fvtool shard-worker`, from the `fvtool` Cargo built for this test.
fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_fvtool").into(), "shard-worker".into()]
}

fn proc_server(shards: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards,
            backend: ShardBackendConfig::Procs {
                worker_cmd: worker_cmd(),
            },
            scene: SCENE,
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port with process shards")
}

fn local_transcript(script: &str) -> String {
    EngineHub::with_scene(SCENE.0, SCENE.1)
        .run_script(script)
        .expect("local replay succeeds")
        .transcript()
}

fn remote_transcript(addr: &str, script: &str) -> String {
    let mut out = String::new();
    run_script_remote(addr, script, |block| out.push_str(block)).expect("remote replay succeeds");
    out
}

/// `kill -0` probe: whether `pid` is still alive (or an unreaped
/// zombie). Tests may spawn processes; production code may not.
fn pid_alive(pid: u32) -> bool {
    std::process::Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

#[test]
fn golden_script_is_byte_identical_against_process_shards() {
    let server = proc_server(2);
    let addr = server.local_addr().to_string();

    // The conformance contract, unchanged: a transcript produced by
    // child worker processes is byte-identical to in-process replay and
    // to the checked-in golden file.
    let local = local_transcript(GOLDEN_SCRIPT);
    let remote = remote_transcript(&addr, GOLDEN_SCRIPT);
    assert_eq!(remote, local, "proc-shard transcript drifted from local");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/api/tests/data/session.golden"
    ))
    .expect("golden file");
    assert_eq!(remote, golden);

    // The stats plane names the backend and the per-shard child pids.
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.backend, "procs");
    let me = std::process::id();
    for shard in &stats.shards {
        assert_ne!(shard.pid, 0, "shard {} has no pid", shard.shard);
        assert_ne!(
            shard.pid, me,
            "shard {} runs in the server process, not a child",
            shard.shard
        );
    }
    let pids: Vec<u32> = stats.shards.iter().map(|s| s.pid).collect();
    let mut dedup = pids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), pids.len(), "one process per shard: {pids:?}");

    server.shutdown();
    server.join();
    // Zero orphans: every child was reaped before join() returned.
    for pid in pids {
        assert!(!pid_alive(pid), "worker {pid} survived shutdown");
    }
}

/// Sizes the synthetic generators cannot build used to panic inside the
/// shard, whose `catch_unwind` then dropped the session that had asked.
#[test]
fn undersized_synthetic_loads_answer_invalid_and_keep_the_session() {
    for backend in [
        ShardBackendConfig::Threads,
        ShardBackendConfig::Procs {
            worker_cmd: worker_cmd(),
        },
    ] {
        let config = ServerConfig {
            shards: 1,
            backend: backend.clone(),
            scene: SCENE,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
        client.use_session("small").unwrap();
        client
            .roundtrip("scenario 50 1")
            .unwrap()
            .expect("the smallest scenario loads");
        let info = client.roundtrip("session_info").unwrap().unwrap();

        let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
        for line in [
            "scenario 49 1",
            "scenario 1 1",
            "compendium 30 3 1",
            "compendium 100 2 1",
        ] {
            let remote = client.roundtrip(line).unwrap().expect_err(line);
            let local = hub
                .run_script_streaming(&format!("{line}\n"), |_| {})
                .expect_err(line);
            assert_eq!(remote.code, fv_api::ErrorCode::InvalidRequest, "{line}");
            assert_eq!(remote.code, local.code, "{line} under {backend:?}");
            assert_eq!(
                format!("line 1: {}", remote.message),
                local.message,
                "{line} under {backend:?}"
            );
            assert_eq!(
                client.roundtrip("session_info").unwrap().unwrap(),
                info,
                "{line} under {backend:?} must leave the session as it was"
            );
        }
        server.shutdown();
        server.join();
    }
}

#[test]
fn a_move_onto_a_siblings_worker_is_a_derived_hit_and_a_lone_move_a_miss() {
    let server = proc_server(2);
    let addr = server.local_addr().to_string();
    let pcl = std::env::temp_dir().join(format!("fv-procshard-twin-{}.pcl", std::process::id()));
    let export = format!("scenario 80 9\nexport_pcl 0 {}\n", pcl.display());
    EngineHub::new().run_script(&export).expect("export a PCL");

    // Two sessions over one PCL, one per worker process: each process
    // has its own cache, so each clusters once.
    let home = |name: &str| shard_of(&SessionId::new(name).unwrap(), 2);
    let names: Vec<String> = (0..16).map(|i| format!("twin{i}")).collect();
    let twins = [0, 1].map(|shard| {
        let name = names.iter().find(|n| home(n) == shard);
        name.expect("a name per shard").as_str()
    });
    let probe = |name: &str| {
        remote_transcript(
            &addr,
            &format!("use {name}\nsession_info\nlist_datasets\nrender 320 240\n"),
        )
    };
    for name in twins {
        let setup = format!(
            "use {name}\nload {}\ncluster_all\nscroll 2\n",
            pcl.display()
        );
        remote_transcript(&addr, &setup);
    }
    let before = twins.map(probe);
    let mut client = Client::connect(&addr).unwrap();
    let derived = |client: &mut Client| {
        let stats = client.stats().unwrap();
        (stats.derived_misses, stats.derived_hits)
    };
    assert_eq!(derived(&mut client), (2, 0));

    // Onto the sibling's worker: the sibling holds the clustering, so
    // the install is served it.
    client.migrate(twins[0], 1).unwrap();
    assert_eq!(derived(&mut client), (2, 1));
    assert_eq!(
        twins.map(probe),
        before,
        "probes differ after a served install"
    );

    // Worker 0 now holds no session: moving one in alone finds nothing
    // to share and computes — the limit of holding results weakly.
    client.migrate(twins[1], 0).unwrap();
    assert_eq!(derived(&mut client), (3, 1));
    assert_eq!(
        twins.map(probe),
        before,
        "probes differ after a computed install"
    );

    server.shutdown();
    server.join();
    std::fs::remove_file(&pcl).ok();
}

#[test]
fn killed_worker_answers_shard_down_and_other_shards_survive() {
    let server = proc_server(2);
    let addr = server.local_addr().to_string();

    // One session per shard, so each child process holds real state.
    let mut client = Client::connect(&addr).unwrap();
    let name_on = |shard: usize| {
        (0..)
            .map(|i| format!("s{i}"))
            .find(|n| shard_of(&SessionId::new(n.clone()).unwrap(), 2) == shard)
            .unwrap()
    };
    let (victim, survivor) = (name_on(0), name_on(1));
    for name in [&victim, &survivor] {
        client.use_session(name).unwrap();
        client.roundtrip("scenario 60 5").unwrap().unwrap();
    }
    let pid = client.stats().unwrap().shards[0].pid;

    // Kill the shard-0 worker out from under the server. The child
    // lingers as a zombie until the backend reaps it at shutdown; the
    // observable effect is the typed refusal, which the server notices
    // as soon as the dead socket surfaces.
    assert!(std::process::Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .unwrap()
        .success());

    // The dead shard's session answers a typed E_SHARD_DOWN naming the
    // pid — not a hang, not a dropped connection.
    client.use_session(&victim).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let err = loop {
        match client.roundtrip("session_info").expect("transport alive") {
            Err(e) => break e,
            Ok(_) => {
                assert!(
                    Instant::now() < deadline,
                    "server never noticed the dead worker {pid}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    assert_eq!(err.code, fv_api::ErrorCode::ShardDown);
    assert!(
        err.message.contains(&pid.to_string()),
        "error should name the dead pid: {err}"
    );

    // The other process keeps serving, stats still answers, and the
    // dead shard's sessions are gone from the listing.
    client.use_session(&survivor).unwrap();
    client.roundtrip("session_info").unwrap().unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.shards.len(), 2);
    let sessions = client.list_sessions().unwrap();
    assert!(
        sessions.iter().all(|s| s.shard == 1),
        "lost sessions must not be listed: {sessions:?}"
    );

    // Moving the survivor onto the dead shard is a typed refusal too,
    // and leaves it serving where it is.
    let before = client.roundtrip("session_info").unwrap().unwrap();
    let err = client
        .migrate(&survivor, 0)
        .expect_err("a dead shard takes no session");
    assert!(err.message.contains("E_SHARD_DOWN"), "{err}");
    assert_eq!(client.roundtrip("session_info").unwrap().unwrap(), before);

    // Shutdown still reaps cleanly with one shard already dead.
    let surviving_pid = stats.shards[1].pid;
    server.shutdown();
    server.join();
    assert!(!pid_alive(surviving_pid), "survivor not reaped");
}

#[test]
fn a_worker_that_exits_at_startup_fails_the_boot_quickly_by_name() {
    let mut worker_cmd = worker_cmd();
    worker_cmd.push("--no-such-flag".into());
    let config = ServerConfig {
        shards: 2,
        backend: ShardBackendConfig::Procs { worker_cmd },
        ..ServerConfig::default()
    };
    let started = Instant::now();
    let Err(err) = Server::bind("127.0.0.1:0", config) else {
        panic!("a worker that rejects its flags must fail the boot");
    };
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the boot took {:?} to fail: {err}",
        started.elapsed()
    );
    assert!(err.to_string().contains("shard 0"), "{err}");
}
