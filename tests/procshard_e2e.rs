//! End-to-end tests of the process shard backend: a real server whose
//! shards are child `fvtool shard-worker` processes — the very worker
//! `fvtool serve --shard-procs` re-execs — must be byte-identical to the
//! thread backend (golden conformance), answer an unbuildable synthetic
//! load and a pipelined failure as the thread backend does, migrate sessions across process
//! boundaries with diff-identical probe transcripts (and leave a
//! session the target refuses where it was, whether an operator or the
//! balancer asked), rebalance automatically under skewed load, answer `E_SHARD_DOWN` for a killed worker while
//! other shards keep serving, leave zero orphaned children behind
//! after shutdown, and fail the boot by name when a worker exits
//! before its `hello` on its stdout pipe.

#![allow(
    clippy::disallowed_methods,
    reason = "tests run clients on threads and kill worker processes"
)]

use fv_api::{EngineHub, SessionId};
use fv_net::balance::{BalanceConfig, MoveOutcome};
use fv_net::frame::{read_reply, LineReader};
use fv_net::{
    run_script_remote, shard_of, BalanceMode, Client, Server, ServerConfig, ShardBackendConfig,
};
use std::io::Write;
use std::net::TcpStream;
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

/// Play one script per session at once, one client thread each, so the
/// balancer's interval reports see overlapping load — a strictly
/// sequential driver makes whichever session is running the interval's
/// whale, which the policy rightly refuses to move. Returns the
/// transcripts in script order.
fn play_at_once(addr: &str, scripts: &[String]) -> Vec<String> {
    let handles: Vec<_> = scripts
        .iter()
        .map(|script| {
            let (addr, script) = (addr.to_string(), script.clone());
            std::thread::spawn(move || remote_transcript(&addr, &script))
        })
        .collect();
    let joined = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"));
    joined.collect()
}

/// Process shards, balancing `mode` on a 50 ms interval with knobs that
/// move a small skew.
fn balanced_proc_server(mode: BalanceMode) -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: 2,
            backend: ShardBackendConfig::Procs {
                worker_cmd: worker_cmd(),
            },
            scene: SCENE,
            balance: mode,
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
    .expect("bind")
}

/// `count` session names that all hash-route to shard 0.
fn names_on_shard_0(prefix: &str, count: usize) -> Vec<String> {
    (0..)
        .map(|i| format!("{prefix}{i}"))
        .filter(|name| shard_of(&SessionId::new(name.clone()).unwrap(), 2) == 0)
        .take(count)
        .collect()
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

/// Lines written in one burst are one run: behind its failing request
/// every request is answered `skipped`, by a worker process as by a
/// worker thread.
#[test]
fn a_pipelined_failure_answers_the_run_behind_it_skipped() {
    for backend in [
        ShardBackendConfig::Threads,
        ShardBackendConfig::Procs {
            worker_cmd: worker_cmd(),
        },
    ] {
        let config = ServerConfig {
            shards: 2,
            backend: backend.clone(),
            scene: SCENE,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
        let mut wire = TcpStream::connect(server.local_addr()).unwrap();
        // A frame that never comes fails the test instead of hanging it.
        wire.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let burst = b"session_info\nimpute 99 3\nsession_info\nsession_info\n";
        wire.write_all(burst).unwrap();
        let mut reader = LineReader::new(wire);
        let mut reply = || read_reply(&mut reader).unwrap().expect("a frame per line");
        assert!(reply().is_ok(), "under {backend:?}");
        let failed = reply().expect_err("impute of a missing dataset fails");
        assert_eq!(
            failed.code,
            fv_api::ErrorCode::NotFound,
            "under {backend:?}"
        );
        for _ in 0..2 {
            let skipped = reply().expect_err("the run behind a failure is skipped");
            let why = "skipped: request 2 earlier in this pipelined run failed (E_NOT_FOUND)";
            assert_eq!(skipped.message, why, "under {backend:?}");
        }
        server.shutdown();
        server.join();
    }
}

#[test]
fn migration_between_process_shards_preserves_probe_transcripts() {
    let server = proc_server(2);
    let addr = server.local_addr().to_string();

    // Build real state in one child process: datasets, clustering, a
    // selection, scroll position.
    let setup = "use mover\nscenario 80 9\ncluster_all\nsearch_select stress\nscroll 2\n";
    assert_eq!(remote_transcript(&addr, setup), local_transcript(setup));

    // The probe transcript exercises summary text AND a frame checksum,
    // so any state lost in the image round trip shows up as a diff.
    let probe = "use mover\nsession_info\nlist_datasets\nrender 320 240\n";
    let before = remote_transcript(&addr, probe);

    let home = shard_of(&SessionId::new("mover").unwrap(), 2);
    let away = 1 - home;
    let mut client = Client::connect(&addr).unwrap();
    let pid_of = |client: &mut Client, shard: usize| client.stats().unwrap().shards[shard].pid;
    assert_ne!(
        pid_of(&mut client, home),
        pid_of(&mut client, away),
        "the two shards must be distinct processes"
    );

    // Across the process boundary and back: the probe transcript must
    // be diff-identical at every stop.
    client.migrate("mover", away).unwrap();
    let listed = client.list_sessions().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].shard, away, "listing reflects the new process");
    assert_eq!(
        remote_transcript(&addr, probe),
        before,
        "probe transcript diff after migrating into another process"
    );
    client.migrate("mover", home).unwrap();
    assert_eq!(
        remote_transcript(&addr, probe),
        before,
        "probe transcript diff after migrating back"
    );

    // Still byte-identical to a local replay of the same history.
    let mut hub = EngineHub::with_scene(SCENE.0, SCENE.1);
    hub.run_script(setup).expect("local setup succeeds");
    let mut expected = String::new();
    hub.run_script_streaming(probe, |e| expected.push_str(&e.render()))
        .expect("local probe succeeds");
    assert_eq!(before, expected, "probe transcript drifted from local");

    server.shutdown();
    server.join();
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
fn a_stale_image_is_refused_and_the_session_stays_in_its_process() {
    let server = proc_server(2);
    let addr = server.local_addr().to_string();

    // A session over a real file, which then changes on disk: the
    // source process still holds what it parsed, but no other process
    // may rebuild the session from that path any more.
    let pcl = std::env::temp_dir().join(format!("fv-procshard-stale-{}.pcl", std::process::id()));
    let export = format!("scenario 80 9\nexport_pcl 0 {}\n", pcl.display());
    EngineHub::new().run_script(&export).expect("export a PCL");
    let setup = format!("use stale\nload {}\ncluster_all\nscroll 2\n", pcl.display());
    let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
    let replayed = local.run_script(&setup).expect("local setup succeeds");
    assert_eq!(remote_transcript(&addr, &setup), replayed.transcript());
    let mut text = std::fs::read_to_string(&pcl).expect("the exported PCL");
    text.push_str("TAMPERED\t0\t0\t1.0\n");
    std::fs::write(&pcl, text).expect("rewrite the PCL");

    // The move is refused with the target's typed reason…
    let home = shard_of(&SessionId::new("stale").unwrap(), 2);
    let mut client = Client::connect(&addr).unwrap();
    let err = client
        .migrate("stale", 1 - home)
        .expect_err("a stale image must be refused");
    assert_eq!(err.code, fv_api::ErrorCode::Internal);
    assert!(err.message.contains("E_STALE_IMAGE"), "{err}");
    // …and cost the session nothing: still listed where it was, still
    // answering exactly what a local replay of its history answers.
    let listed = client.list_sessions().unwrap();
    assert_eq!(listed.len(), 1, "{listed:?}");
    assert_eq!((listed[0].name.as_str(), listed[0].shard), ("stale", home));
    let probe = "use stale\nsession_info\nlist_datasets\nrender 320 240\n";
    let replayed = local.run_script(probe).expect("local probe succeeds");
    assert_eq!(remote_transcript(&addr, probe), replayed.transcript());

    server.shutdown();
    server.join();
    std::fs::remove_file(&pcl).ok();
}

/// The balancer's own move, refused by its target: the sessions' PCL
/// changed on disk after they loaded it, so no other worker can rebuild
/// them (`E_STALE_IMAGE`). Planned from the reports the workers send
/// over the process seam, the move is counted and listed failed, and
/// the sessions keep answering from their source worker.
#[test]
fn a_balancer_move_the_target_refuses_leaves_the_session_in_its_process() {
    // Off while the sessions load: no move may take before the rewrite.
    let server = balanced_proc_server(BalanceMode::Off);
    let addr = server.local_addr().to_string();
    let pcl = std::env::temp_dir().join(format!("fv-procshard-refused-{}.pcl", std::process::id()));
    let export = format!("scenario 80 9\nexport_pcl 0 {}\n", pcl.display());
    EngineHub::new().run_script(&export).expect("export a PCL");
    let names = names_on_shard_0("stuck", 3);
    let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
    for name in &names {
        let setup = format!(
            "use {name}\nload {}\ncluster_all\nscroll 2\n",
            pcl.display()
        );
        let replayed = local.run_script(&setup).expect("local setup succeeds");
        assert_eq!(remote_transcript(&addr, &setup), replayed.transcript());
    }
    let mut text = std::fs::read_to_string(&pcl).expect("the exported PCL");
    text.push_str("TAMPERED\t0\t0\t1.0\n");
    std::fs::write(&pcl, text).expect("rewrite the PCL");

    // Read-only load on shard 0 alone until the balancer has tried to
    // spread it.
    let mut client = Client::connect(&addr).unwrap();
    client.set_balance(BalanceMode::Auto).unwrap();
    let probes: Vec<String> = names
        .iter()
        .map(|name| format!("use {name}\nsession_info\nlist_datasets\nrender 320 240\n"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        assert_eq!(stats.balancer_moves, 0, "no install can take");
        if stats.balancer_failed >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no balancer move was tried; ticks={}",
            stats.balancer_ticks
        );
        play_at_once(&addr, &probes);
    }
    client.set_balance(BalanceMode::Off).unwrap();

    // The refusal is on the record…
    let status = client.balance_status().expect("balance");
    let refused = status
        .recent
        .iter()
        .find(|m| m.outcome == MoveOutcome::Failed);
    let refused = refused.unwrap_or_else(|| panic!("no failed move listed: {status:?}"));
    assert!(names.contains(&refused.session), "{refused:?}");
    assert_eq!((refused.from, refused.to), (0, 1));
    // …and cost nothing: every session still lives in the shard-0
    // process and answers exactly what a local replay answers.
    let listed = client.list_sessions().unwrap();
    assert_eq!(listed.len(), names.len(), "{listed:?}");
    assert!(listed.iter().all(|s| s.shard == 0), "{listed:?}");
    for probe in &probes {
        let replayed = local.run_script(probe).expect("local probe succeeds");
        assert_eq!(remote_transcript(&addr, probe), replayed.transcript());
    }

    server.shutdown();
    server.join();
    std::fs::remove_file(&pcl).ok();
}

#[test]
fn skewed_load_triggers_automatic_cross_process_migration() {
    let server = balanced_proc_server(BalanceMode::Auto);
    let addr = server.local_addr().to_string();

    // Sessions that all hash-route to shard 0: only an automatic
    // migration can ever populate the shard-1 process.
    let names = names_on_shard_0("skew", 4);
    fn round_script(session: &str, round: usize) -> String {
        if round == 0 {
            format!(
                "use {session}\nscenario 80 1\ncluster_all\nsearch_select stress\nsession_info\n"
            )
        } else {
            format!(
                "use {session}\ncluster_all\nsearch_select stress\nscroll {round}\nsession_info\n"
            )
        }
    }
    // Drive all sessions concurrently each round.
    let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
    let mut drive_round = |round: usize| {
        let scripts: Vec<String> = names.iter().map(|n| round_script(n, round)).collect();
        let remotes = play_at_once(&addr, &scripts);
        for ((name, script), remote) in names.iter().zip(&scripts).zip(remotes) {
            let mut expected = String::new();
            local
                .run_script_streaming(script, |e| expected.push_str(&e.render()))
                .expect("local replay succeeds");
            assert_eq!(
                remote, expected,
                "round {round}, session {name}: transcript drifted"
            );
        }
    };
    drive_round(0);

    let mut client = Client::connect(&addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut round = 1;
    loop {
        let stats = client.stats().expect("stats");
        if stats.balancer_moves >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no automatic cross-process migration; ticks={} moves={} failed={}",
            stats.balancer_ticks,
            stats.balancer_moves,
            stats.balancer_failed
        );
        drive_round(round);
        round += 1;
        std::thread::sleep(Duration::from_millis(60));
    }

    // A session genuinely moved between processes, none were lost, and
    // its state survived the image round trip.
    std::thread::sleep(Duration::from_millis(300));
    let stats = client.stats().expect("stats");
    assert_eq!(stats.balancer_failed, 0, "no move may fail in this test");
    let sessions = client.list_sessions().expect("list-sessions");
    assert_eq!(sessions.len(), names.len(), "no session may be lost");
    assert!(
        sessions.iter().any(|s| s.shard == 1),
        "at least one session must live in the shard-1 process: {sessions:?}"
    );
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
