//! End-to-end durability: a real `fvtool serve --state-dir` process is
//! SIGKILL'd right after its last `ok` and rebooted, and every session
//! must come back byte-identically: populate → kill → reboot → diff
//! rosters and probe transcripts, under both shard backends. Nothing
//! waits for a write between the last reply and the kill: an answered
//! request is on disk. A third test covers the refusal path: a
//! checkpoint whose dataset file changed on disk is a stale image and
//! must NOT be recovered.

mod common;

use common::{wait_until_stopped, Served};
use fv_api::{SessionId, SessionStore};
use fv_net::{Client, Server, ServerConfig};
use std::fmt::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fv_restart_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Read-only probe replayed against every session before the kill and
/// after the reboot; the two transcripts must match byte for byte.
const PROBE_LINES: &[&str] = &["session_info", "list_datasets", "render 200 150"];

/// Play a few mutations into `name`, distinct per session and per cycle
/// so every reboot proves a fresh checkpoint rather than the first one.
/// `scenario` goes in once per session (`setup`): it refuses duplicates.
fn burst(addr: &str, name: &str, salt: usize, setup: bool) {
    let mut client = Client::connect(addr).expect("connect");
    client.use_session(name).expect("use the session");
    let setup = setup.then(|| format!("scenario 80 {salt}"));
    let rest = ["cluster_all".to_string(), format!("scroll {}", salt % 7)];
    for line in setup.into_iter().chain(rest) {
        let reply = client.roundtrip(&line).expect("a reply");
        reply.unwrap_or_else(|e| panic!("{name} rejected {line:?}: {e}"));
    }
}

/// [`PROBE_LINES`] against `name`, its raw replies folded into one
/// transcript.
fn probe(addr: &str, name: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    client.use_session(name).expect("use the session");
    let mut out = String::new();
    for line in PROBE_LINES {
        let reply = client.roundtrip(line).expect("a reply");
        let _ = writeln!(out, "{line}\n{}", reply.unwrap_or_else(|e| e.to_string()));
    }
    out
}

/// The `list-sessions` reply, its lines sorted so the order the shards
/// answer the gather in cannot flake the comparison.
fn roster(addr: &str) -> String {
    let mut client = Client::connect(addr).expect("connect");
    let text = client.roundtrip("list-sessions").expect("a reply");
    let text = text.expect("a listing");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n")
}

/// Populate `sessions` sessions, then `kills` times over: mutate, probe,
/// kill the server with SIGKILL right after the last `ok`, reboot it on
/// the same state directory, and demand every session back as it was.
fn kill_and_reboot(shards: &str, sessions: usize, kills: usize) {
    let dir = state_dir(shards.trim_start_matches('-'));
    let args = [
        shards,
        "2",
        "--state-dir",
        dir.to_str().expect("a UTF-8 path"),
    ];
    let mut server = Served::boot(&args);
    assert_eq!(server.recovered, 0, "a fresh state directory");
    let names: Vec<String> = (0..sessions).map(|i| format!("restart-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        burst(&server.addr, name, i, true);
    }
    let mut recovered = 0;
    for cycle in 0..kills {
        if cycle > 0 {
            for (i, name) in names.iter().enumerate() {
                burst(&server.addr, name, cycle * 100 + i, false);
            }
        }
        // The server's own pid under thread shards, each worker's under
        // process shards: none may outlive the crash.
        let stats = Client::connect(&server.addr).and_then(|mut c| c.stats());
        let pids: Vec<u32> = stats.expect("stats").shards.iter().map(|s| s.pid).collect();
        let roster_before = roster(&server.addr);
        // The probes' own runs are the last requests answered: the kill
        // follows the final `ok` with no wait in between.
        let probes: Vec<String> = names.iter().map(|n| probe(&server.addr, n)).collect();
        drop(server); // the crash under test: no flush, no goodbye
        wait_until_stopped(&pids, Duration::from_secs(5));
        server = Served::boot(&args);
        recovered += server.recovered;
        assert_eq!(server.recovered, sessions as u64, "cycle {cycle}: banner");
        let stats = Client::connect(&server.addr).and_then(|mut c| c.stats());
        let stats = stats.expect("stats");
        assert_eq!(stats.recovered, server.recovered, "cycle {cycle}: stats");
        assert_eq!(roster(&server.addr), roster_before, "cycle {cycle}: roster");
        for (name, before) in names.iter().zip(&probes) {
            let after = probe(&server.addr, name);
            assert_eq!(&after, before, "cycle {cycle}: the probe of {name}");
        }
    }
    assert_eq!(recovered, (sessions * kills) as u64);
    let shutdown = Client::connect(&server.addr).and_then(|mut c| c.shutdown_server());
    shutdown.expect("a wire shutdown");
    let exit = server.child.wait().expect("reap the server");
    assert!(exit.success(), "the server exits cleanly at the end");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_and_reboot_recovers_every_session_with_thread_shards() {
    kill_and_reboot("--shards", 3, 2);
}

#[test]
fn sigkill_and_reboot_recovers_every_session_with_process_shards() {
    kill_and_reboot("--shard-procs", 2, 2);
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 2,
        state_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// A checkpoint that references a dataset file which changed on disk is
/// a stale image: the reboot must refuse it (`E_STALE_IMAGE` inside,
/// `recovered=0` outside) instead of resurrecting a session whose
/// replay no longer matches its data — and must leave the checkpoint
/// file in place for the operator.
#[test]
fn reboot_refuses_checkpoints_whose_dataset_changed_on_disk() {
    let dir = state_dir("stale");

    // A real dataset file for the session to load.
    let pcl = std::env::temp_dir().join(format!("fv_restart_e2e_stale_{}.pcl", std::process::id()));
    {
        let mut engine = fv_api::Engine::new();
        engine
            .execute(&fv_api::parse_request("scenario 80 7").unwrap())
            .unwrap();
        engine
            .execute(&fv_api::parse_request(&format!("export_pcl 0 {}", pcl.display())).unwrap())
            .unwrap();
    }

    // First life: load the file and stop cleanly (a graceful stop keeps
    // durable state — only `close` deletes it). The `ok` means the
    // checkpoint is on disk.
    {
        let server = Server::bind("127.0.0.1:0", durable_config(&dir)).unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        client.use_session("survivor").unwrap();
        client
            .roundtrip(&format!("load {}", pcl.display()))
            .unwrap()
            .unwrap();
        let store = SessionStore::open(&dir).unwrap();
        assert!(store
            .checkpoint_path(&SessionId::new("survivor").unwrap())
            .exists());
        client.shutdown_server().unwrap();
        server.join();
    }

    // Tamper with the dataset: same path, different bytes.
    let mut text = std::fs::read_to_string(&pcl).unwrap();
    text.push_str("TAMPERED\t0\t0\t1.0\n");
    std::fs::write(&pcl, text).unwrap();

    // Second life: the stale checkpoint must be refused, not loaded.
    {
        let server = Server::bind("127.0.0.1:0", durable_config(&dir)).unwrap();
        assert_eq!(server.recovered(), 0, "stale image was recovered");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        assert_eq!(client.list_sessions().unwrap().len(), 0);
        // The refused checkpoint survives on disk for inspection.
        let store = SessionStore::open(&dir).unwrap();
        assert!(store
            .checkpoint_path(&SessionId::new("survivor").unwrap())
            .exists());
        client.shutdown_server().unwrap();
        server.join();
    }

    let _ = std::fs::remove_file(&pcl);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The flip side of recovery: an explicit `close` deletes the durable
/// checkpoint before `closed` is answered, so a closed session stays
/// closed across a restart.
#[test]
fn closed_sessions_stay_closed_across_a_restart() {
    let dir = state_dir("close");

    {
        let server = Server::bind("127.0.0.1:0", durable_config(&dir)).unwrap();
        let addr = server.local_addr().to_string();
        let store = SessionStore::open(&dir).unwrap();

        let mut keeper = Client::connect(&addr).unwrap();
        keeper.use_session("kept").unwrap();
        keeper.roundtrip("scenario 80 1").unwrap().unwrap();
        let mut goner = Client::connect(&addr).unwrap();
        goner.use_session("gone").unwrap();
        goner.roundtrip("scenario 80 2").unwrap().unwrap();
        let path = |name: &str| store.checkpoint_path(&SessionId::new(name).unwrap());
        assert!(path("kept").exists() && path("gone").exists());

        goner.close_session().unwrap();
        assert!(!path("gone").exists(), "`closed` came before the delete");

        keeper.shutdown_server().unwrap();
        server.join();
    }

    {
        let server = Server::bind("127.0.0.1:0", durable_config(&dir)).unwrap();
        assert_eq!(server.recovered(), 1, "exactly the kept session returns");
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let names: Vec<String> = client
            .list_sessions()
            .unwrap()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, ["kept"]);
        client.shutdown_server().unwrap();
        server.join();
    }

    let _ = std::fs::remove_dir_all(&dir);
}
