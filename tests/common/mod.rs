//! What the root tests share: a live `fvtool serve` child and a wait
//! for processes to stop. Each test binary uses the part it needs.
#![allow(dead_code, reason = "each test binary uses the part it needs")]
#![allow(
    clippy::disallowed_methods,
    reason = "tests start the fvtool server child"
)]

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// One live `fvtool serve` child, its address (and, under `--state-dir`,
/// its recovered-session count) read off the boot banner. Dropping it
/// SIGKILLs the child, so no server outlives a failed test; the stdout
/// pipe is held open for as long (the server prints on its way out).
pub struct Served {
    pub child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    /// `fvtool: recovered <n> session(s)`; 0 without a state directory.
    pub recovered: u64,
}

impl Served {
    /// `fvtool serve --addr 127.0.0.1:0 <args>`, once it is listening.
    pub fn boot(args: &[&str]) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fvtool"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn fvtool serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("a piped stdout"));
        let serving = banner(&mut stdout);
        let addr = serving.strip_prefix("fvtool: serving on ");
        let addr = addr.and_then(|rest| rest.split_whitespace().next());
        let addr = addr.unwrap_or_else(|| panic!("unexpected serve banner {serving:?}"));
        let mut recovered = 0;
        if args.contains(&"--state-dir") {
            let line = banner(&mut stdout);
            let n = line.strip_prefix("fvtool: recovered ");
            let n = n.and_then(|rest| rest.split_whitespace().next()?.parse().ok());
            recovered = n.unwrap_or_else(|| panic!("unexpected recovery banner {line:?}"));
        }
        Served {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
            recovered,
        }
    }
}

fn banner(stdout: &mut BufReader<ChildStdout>) -> String {
    let mut line = String::new();
    let n = stdout.read_line(&mut line).expect("read the boot banner");
    assert!(n > 0, "the server exited before its banner");
    line
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Whether `pid` is still running: `/proc/<pid>/stat` exists and its
/// state is not a zombie's. A zombie counts as gone — whoever adopts an
/// orphan reaps it, not the test that killed its parent.
pub fn running(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // `<pid> (<comm>) <state> …`: the name may hold spaces and
    // parentheses, so the state is the first field after the last `)`.
    let state = stat.rsplit_once(')').map(|(_, rest)| rest.trim_start());
    state.is_some_and(|rest| !rest.starts_with('Z'))
}

/// Block until none of `pids` is [`running`], failing after `within`.
pub fn wait_until_stopped(pids: &[u32], within: Duration) {
    let deadline = Instant::now() + within;
    while let Some(pid) = pids.iter().find(|&&pid| running(pid)) {
        assert!(
            Instant::now() < deadline,
            "pid {pid} of {pids:?} still runs after {within:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
