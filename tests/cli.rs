//! End-to-end tests of the `fvtool` command-line front end: the binary a
//! downstream user would actually script against.

#![allow(
    clippy::disallowed_methods,
    reason = "tests run the fvtool binary as a child process"
)]

mod common;

use common::Served;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn fvtool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fvtool"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fvtool_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn demo_cluster_render_roundtrip() {
    let dir = tmpdir("roundtrip");
    let d = dir.to_str().unwrap();

    // demo: write PCL files
    let out = fvtool().args(["demo", d]).output().unwrap();
    assert!(
        out.status.success(),
        "demo failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stress = dir.join("gasch_stress.pcl");
    assert!(stress.exists());

    // cluster: produce cdt/gtr/atr
    let prefix = dir.join("clustered");
    let out = fvtool()
        .args([
            "cluster",
            stress.to_str().unwrap(),
            prefix.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cluster failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for ext in ["cdt", "gtr", "atr"] {
        assert!(
            dir.join(format!("clustered.{ext}")).exists(),
            "missing .{ext}"
        );
    }
    // the CDT must parse and pair with its trees
    let cdt_text = std::fs::read_to_string(dir.join("clustered.cdt")).unwrap();
    let cdt = fv_formats::cdt::parse_cdt("c", &cdt_text).unwrap();
    let gtr_text = std::fs::read_to_string(dir.join("clustered.gtr")).unwrap();
    let tree = fv_formats::tree_files::parse_tree(
        &gtr_text,
        fv_formats::tree_files::GENE_PREFIX,
        cdt.dataset.n_genes(),
    )
    .unwrap();
    // The CDT row order is the flip-improved leaf order; GTR does not
    // encode flips (TreeView treats the CDT order as authoritative). The
    // invariant is tree-consistency: every subtree of the parsed tree
    // occupies a CONTIGUOUS block of the CDT's row order.
    let gene_leaf = cdt.gene_leaf.as_deref().unwrap();
    let mut pos = vec![0usize; gene_leaf.len()];
    for (display, &leaf) in gene_leaf.iter().enumerate() {
        pos[leaf] = display;
    }
    for mi in 0..tree.merges().len() {
        let leaves = tree.node_leaves(fv_cluster::tree::NodeRef::Internal(mi as u32));
        let mut positions: Vec<usize> = leaves.iter().map(|&l| pos[l]).collect();
        positions.sort_unstable();
        let span = positions.last().unwrap() - positions.first().unwrap() + 1;
        assert_eq!(
            span,
            positions.len(),
            "subtree {mi} is not contiguous in the CDT row order"
        );
    }

    // render: produce a decodable PPM
    let ppm = dir.join("session.ppm");
    let out = fvtool()
        .args([
            "render",
            ppm.to_str().unwrap(),
            "320",
            "240",
            stress.to_str().unwrap(),
            dir.join("brauer_nutrient.pcl").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "render failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let img = fv_render::image::read_ppm(&ppm).unwrap();
    assert_eq!((img.width(), img.height()), (320, 240));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_and_spell_produce_output() {
    let dir = tmpdir("search");
    let d = dir.to_str().unwrap();
    assert!(fvtool()
        .args(["demo", d])
        .output()
        .unwrap()
        .status
        .success());
    let files: Vec<String> = ["gasch_stress", "brauer_nutrient", "hughes_knockout"]
        .iter()
        .map(|n| dir.join(format!("{n}.pcl")).to_str().unwrap().to_string())
        .collect();

    let out = fvtool()
        .args(["search", "stress response"])
        .args(&files)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("gene(s) match"));
    assert!(stdout.contains("coverage"));

    // take two gene ids from the search output as a SPELL query
    let genes: Vec<&str> = stdout
        .lines()
        .skip(1)
        .take(2)
        .map(|l| l.trim())
        .filter(|l| l.starts_with('Y'))
        .collect();
    if genes.len() == 2 {
        let q = format!("{},{}", genes[0], genes[1]);
        let out = fvtool().args(["spell", &q]).args(&files).output().unwrap();
        assert!(
            out.status.success(),
            "spell failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("datasets by relevance"));
        assert!(stdout.contains("top genes"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn impute_fills_missing_cells() {
    let dir = tmpdir("impute");
    // hand-written PCL with one missing cell
    let pcl = "ID\tNAME\tGWEIGHT\tc0\tc1\tc2\tc3\n\
EWEIGHT\t\t\t1\t1\t1\t1\n\
G1\tA\t1\t1.0\t2.0\t3.0\t4.0\n\
G2\tB\t1\t1.1\t2.1\t\t4.1\n\
G3\tC\t1\t0.9\t1.9\t2.9\t3.9\n";
    let input = dir.join("in.pcl");
    let output = dir.join("out.pcl");
    std::fs::write(&input, pcl).unwrap();
    let out = fvtool()
        .args([
            "impute",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("filled 1/1"));
    let ds = fv_formats::pcl::parse_pcl("out", &std::fs::read_to_string(&output).unwrap()).unwrap();
    let v = ds.matrix.get(1, 2).expect("cell imputed");
    assert!(
        (v - 2.95).abs() < 0.2,
        "imputed value {v} should be near 2.95"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = fvtool().output().unwrap();
    assert!(!out.status.success());
    let out = fvtool().args(["bogus_command"]).output().unwrap();
    assert!(!out.status.success());
    let out = fvtool().args(["render", "x.ppm"]).output().unwrap();
    assert!(!out.status.success());
}

/// `watch` reads its grid as the `subscribe` line does, before it
/// connects: a grid the line refuses is refused in the same words.
#[test]
fn watch_refuses_a_grid_as_the_subscribe_line_does() {
    for (grid, message) in [
        ("0x2", "tile counts must be non-zero"),
        ("4by2", "tile grid is <tiles_x>x<tiles_y>"),
        ("4xq", "bad tiles_y"),
    ] {
        let out = fvtool()
            .args(["watch", "--remote", "127.0.0.1:1", "s", grid])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{grid}: E_PARSE's exit code");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("E_PARSE") && err.contains(message),
            "{grid}: {err}"
        );
    }
}

#[test]
fn script_replays_mixed_requests_deterministically() {
    let dir = tmpdir("script");
    // ≥ 8 mixed mutation/query requests, two sessions, through EngineHub.
    let script = "\
# replayable session script
scenario 200 7
set_metric euclidean
set_linkage ward
cluster_all
search_select general stress response
scroll 2
list_datasets
use second
scenario 120 9
search ribosome
use main
export_selection coverage
render 320 240
session_info
";
    let path = dir.join("session.fvs");
    std::fs::write(&path, script).unwrap();

    let run = || {
        let out = fvtool()
            .args(["script", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "script failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "script replay must be deterministic");

    // transcript structure: session-tagged request echo + responses
    assert!(first.contains("main:2> scenario 200 7"), "{first}");
    assert!(first.contains("second:10> scenario 120 9"));
    assert!(first.contains("applied selection="));
    assert!(first.contains("frame 320x240 panes=3 checksum="));
    assert!(first.contains("session datasets=3"));
    assert!(first.contains("datasets n=3"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // Far more transcript than a pipe buffers, so fvtool is still
    // writing when its reader goes away.
    let dir = tmpdir("closed_stdout");
    let path = dir.join("long.fvs");
    let script = format!("scenario 60 1\n{}", "session_info\n".repeat(2000));
    std::fs::write(&path, script).unwrap();
    let mut child = fvtool()
        .args(["script", path.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fvtool script");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert_eq!(first, "main:1> scenario 60 1\n");
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr, "", "a closed stdout is not an error to report");
    assert_eq!(
        status.code(),
        Some(141),
        "the documented closed-stdout exit"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn script_errors_carry_exit_codes_and_lines() {
    let dir = tmpdir("script_err");
    // line 2 refers to a dataset that does not exist → E_NOT_FOUND (66)
    let path = dir.join("bad.fvs");
    std::fs::write(&path, "scenario 60 1\nimpute 99 3\n").unwrap();
    let out = fvtool()
        .args(["script", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(66));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("E_NOT_FOUND"), "{err}");
    assert!(err.contains("line 2"), "{err}");

    // parse failures exit 2
    let path2 = dir.join("parse.fvs");
    std::fs::write(&path2, "definitely_not_a_request\n").unwrap();
    let out = fvtool()
        .args(["script", path2.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // missing script file → E_IO (66)
    let out = fvtool()
        .args(["script", "/nonexistent/x.fvs"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(66));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_failures_use_stable_exit_codes() {
    // nonexistent input file → E_IO
    let out = fvtool()
        .args(["cluster", "/nonexistent/in.pcl", "/tmp/prefix"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(66));
    assert!(String::from_utf8_lossy(&out.stderr).contains("E_IO"));

    // unparseable input → E_FORMAT
    let dir = tmpdir("badformat");
    let bad = dir.join("bad.pcl");
    std::fs::write(&bad, "not\ta\tpcl\nat\tall\n").unwrap();
    let out = fvtool()
        .args(["search", "x", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// The remote control plane, through the binary: `stats`, `sessions`,
/// `migrate`, the golden `script`, `balance`, `watch --verify-script` and
/// `shutdown` against a live `fvtool serve --shards 4` — stdout shapes and
/// exit codes.
#[test]
fn remote_control_plane_drives_a_live_server() {
    let dir = tmpdir("remote");
    let demo = fvtool().args(["demo", dir.to_str().unwrap()]).output();
    assert!(demo.unwrap().status.success());
    let pcl = dir.join("gasch_stress.pcl");
    let mut server = Served::boot(&["--shards", "4"]);
    let remote = |args: &[&str]| {
        let out = fvtool()
            .args(args)
            .args(["--remote", &server.addr])
            .output();
        let out = out.expect("run fvtool");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };
    let ok = |args: &[&str]| {
        let (code, stdout) = remote(args);
        assert_eq!(code, Some(0), "fvtool {args:?} printed {stdout}");
        stdout
    };
    let script = |name: &str, text: String| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        ok(&["script", path.to_str().unwrap()])
    };

    // One PCL into six sessions over four shards is parsed once.
    for i in 0..6 {
        let load = format!("use cli{i}\nload {}\nsession_info\n", pcl.display());
        assert!(script("load.fvs", load).contains("session datasets=1"));
    }
    let stats = ok(&["stats"]);
    assert!(
        stats.starts_with("stats shards=4 backend=threads "),
        "{stats}"
    );
    assert!(
        stats.contains(" cache_entries=1 cache_hits=5 cache_misses=1 "),
        "{stats}"
    );
    let sessions = ok(&["sessions"]);
    assert!(
        sessions.starts_with("sessions n=6\n  session cli0 shard="),
        "{sessions}"
    );

    // A migrate round trip: the probe transcript never changes, the
    // listing follows the session there and back.
    let at = sessions
        .split("session cli3 shard=")
        .nth(1)
        .expect("cli3 is listed");
    let home: usize = at[..1].parse().expect("a shard index");
    let away = ((home + 1) % 4).to_string();
    let probe = || {
        script(
            "probe.fvs",
            "use cli3\nsession_info\nlist_datasets\n".into(),
        )
    };
    let before = probe();
    assert_eq!(
        ok(&["migrate", "cli3", &away]),
        format!("migrated cli3 shard={away}\n")
    );
    assert_eq!(probe(), before);
    assert!(ok(&["sessions"]).contains(&format!("session cli3 shard={away} ")));
    ok(&["migrate", "cli3", &home.to_string()]);
    assert_eq!(probe(), before);
    assert_eq!(ok(&["sessions"]), sessions);
    // The golden script prints the same bytes here as in-process.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/crates/api/tests/data/session.fvs"
    );
    let local = fvtool().args(["script", golden]).output().unwrap();
    assert_eq!(
        ok(&["script", golden]),
        String::from_utf8_lossy(&local.stdout)
    );
    // Typed failures carry their exit codes across the wire.
    assert_eq!(
        remote(&["migrate", "ghost", "1"]).0,
        Some(66),
        "E_NOT_FOUND"
    );
    assert_eq!(remote(&["migrate", "cli3", "99"]).0, Some(2), "E_INVALID");

    assert_eq!(ok(&["balance", "auto"]), "balance mode=auto\n");
    assert!(ok(&["balance"]).starts_with("balance mode=auto ticks="));

    // A viewer's reassembled wall equals a local replay's render.
    let replay = dir.join("replay.fvs");
    std::fs::write(&replay, format!("use cli3\nload {}\n", pcl.display())).unwrap();
    let verify = ["--frames", "1", "--idle-ms", "2000", "--verify-script"];
    let watched = ok(&[
        &["watch", "cli3", "2x2"],
        &verify[..],
        &[replay.to_str().unwrap()],
    ]
    .concat());
    assert!(
        watched.contains("frame seq=0 kind=key tiles=4 "),
        "{watched}"
    );
    assert!(
        watched.contains("verify ok: wall matches local render"),
        "{watched}"
    );

    assert_eq!(ok(&["shutdown"]), "server shutting down\n");
    let exit = server.child.wait().expect("reap the server");
    assert!(
        exit.success(),
        "the server exits cleanly on a wire shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `trace record` taps one connection to a live server and writes its
/// trace; `trace replay` plays it back on a private server of its own
/// and on a fresh `fvtool serve` through `--remote`, both matching the
/// recording. A recording that lies about a reply diverges with exit 2
/// and names the first differing line.
#[test]
fn trace_record_then_replay_through_the_binary() {
    let dir = tmpdir("trace");
    let trace = dir.join("session.trace");
    let trace_arg = trace.to_str().unwrap();
    let upstream = Served::boot(&[]);
    let mut tap = fvtool()
        .args(["trace", "record", trace_arg, "--listen", "127.0.0.1:0"])
        .args(["--upstream", &upstream.addr])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn the tap");
    let mut banner = String::new();
    let mut tap_out = BufReader::new(tap.stdout.take().expect("a piped stdout"));
    tap_out.read_line(&mut banner).expect("the tap banner");
    let tap_addr = banner.strip_prefix("fvtool: tapping on ");
    let tap_addr = tap_addr.and_then(|rest| rest.split_whitespace().next());
    let tap_addr = tap_addr.unwrap_or_else(|| panic!("unexpected tap banner {banner:?}"));

    let workload = ["workload", "zoom-filter", "--clients", "1", "--bursts", "3"];
    let script = fvtool().args(workload).args(["--seed", "11"]).output();
    let script_path = dir.join("workload.fvs");
    std::fs::write(&script_path, script.unwrap().stdout).unwrap();
    let through_tap = fvtool()
        .args([
            "script",
            script_path.to_str().unwrap(),
            "--remote",
            tap_addr,
        ])
        .output();
    assert!(through_tap.unwrap().status.success());
    assert!(tap.wait().expect("the tap exits").success());
    let mut wrote = String::new();
    tap_out.read_to_string(&mut wrote).unwrap();
    assert!(
        wrote.starts_with(&format!("wrote {trace_arg} (")),
        "{wrote}"
    );

    let replay = |extra: &[&str]| {
        let out = fvtool()
            .args(["trace", "replay", trace_arg])
            .args(extra)
            .output();
        let out = out.expect("run fvtool trace replay");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), out.stdout, stderr)
    };
    let (code, local, stderr) = replay(&[]);
    assert_eq!(code, Some(0), "{stderr}");
    let fresh = Served::boot(&[]);
    let (code, remote, stderr) = replay(&["--remote", &fresh.addr]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(local, remote);

    let mut lie = std::fs::read_to_string(&trace).unwrap();
    lie.push_str("send ping\nrecv ok pang\n");
    std::fs::write(&trace, lie).unwrap();
    let (code, _, stderr) = replay(&[]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("recorded: recv ok pang\n  replayed: recv ok pong"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `fvtool shard-worker` writes protocol frames, and nothing else, on
/// its stdout: its `hello`, then one reply per op. The end of its stdin
/// is its shutdown.
#[test]
fn a_shard_worker_answers_frames_on_stdout_and_exits_at_eof() {
    let mut child = fvtool()
        .args(["shard-worker", "--shard", "0", "--scene", "64x48"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fvtool shard-worker");
    let mut stdin = child.stdin.take().expect("a piped stdin");
    let mut stdout = child.stdout.take().expect("a piped stdout");
    // A 4-byte big-endian payload length, then the payload.
    let mut read_frame = || {
        let mut len = [0u8; 4];
        stdout.read_exact(&mut len).expect("a length prefix");
        let mut payload = vec![0; u32::from_be_bytes(len) as usize];
        stdout.read_exact(&mut payload).expect("a whole payload");
        String::from_utf8(payload).expect("a UTF-8 payload")
    };
    assert_eq!(read_frame(), "hello 0\n");
    let op = b"report\n";
    stdin.write_all(&(op.len() as u32).to_be_bytes()).unwrap();
    stdin.write_all(op).unwrap();
    let report = read_frame();
    assert!(report.starts_with("report shard=0 "), "{report:?}");

    drop(stdin);
    let mut rest = Vec::new();
    stdout.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after the last reply: {rest:?}");
    let out = child.wait_with_output().expect("reap the worker");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{}: {stderr}", out.status);
}
