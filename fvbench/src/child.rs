//! The server under test: a real `fvtool serve` child on an ephemeral
//! port, plus the scratch directory its inputs and state live in.
//!
//! Hygiene rules: the address comes from the boot banner (port 0, never
//! a fixed port); the scratch directory is `temp_dir()/fvbench-<pid>`
//! and is removed when its guard drops; a server guard kills and reaps
//! its child on drop, so panics and early returns cannot leak one; and
//! [`ServerProc::orphans`] proves the shard workers went with it.

use crate::procfs;
use crate::Error;
use fv_net::Client;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Stdio};
use std::time::{Duration, Instant};

/// Scratch directory guard: created empty, removed on drop.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, Error> {
        let path = std::env::temp_dir().join(format!("fvbench-{}", std::process::id()));
        // A crashed earlier run with a recycled pid may have left one.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// How to boot the server.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub fvtool: PathBuf,
    /// Arguments after `serve --addr 127.0.0.1:0`.
    pub args: Vec<String>,
    /// Where the child's stderr goes (kept for post-mortems).
    pub stderr_log: PathBuf,
}

/// One live `fvtool serve` child with its banner parsed.
pub struct ServerProc {
    /// `None` once killed or reaped.
    child: Option<Child>,
    /// Held open for the child's lifetime: the server prints a shutdown
    /// line late, and a closed pipe would turn that into EPIPE.
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    /// `recovered N` from the durable-boot banner; `None` without a
    /// state directory.
    pub recovered: Option<u64>,
    pub pid: u32,
    /// Shard-worker child pids (`--shard-procs`), learned from `stats`.
    pub worker_pids: Vec<u32>,
}

impl ServerProc {
    fn banner_line(&mut self) -> Result<String, Error> {
        let reader = self.stdout.as_mut().ok_or("server stdout was not piped")?;
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read server banner: {e}"))?;
        if n == 0 {
            return Err("server exited before printing its banner".into());
        }
        Ok(line.trim_end().to_string())
    }

    pub fn boot(spec: &ServeSpec) -> Result<ServerProc, Error> {
        let durable = spec.args.iter().any(|a| a == "--state-dir");
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&spec.stderr_log)
            .map_err(|e| format!("open {}: {e}", spec.stderr_log.display()))?;
        // fv-lint: allow(no-spawn-outside-sanctioned-modules) -- the benchmark's one child-spawn site: the server under test, killed and reaped by the ServerProc guard
        let mut child = std::process::Command::new(&spec.fvtool)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(&spec.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", spec.fvtool.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().map(BufReader::new);
        // From here on an early return drops `server`, which reaps.
        let mut server = ServerProc {
            child: Some(child),
            stdout,
            addr: String::new(),
            recovered: None,
            pid,
            worker_pids: Vec::new(),
        };
        let serving = server.banner_line()?;
        server.addr = serving
            .strip_prefix("fvtool: serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected serve banner {serving:?}"))?
            .to_string();
        if durable {
            let line = server.banner_line()?;
            server.recovered = Some(
                line.strip_prefix("fvtool: recovered ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("unexpected recovery banner {line:?}"))?,
            );
        }
        let stats = Client::connect(&server.addr)?.stats()?;
        server.worker_pids = stats
            .shards
            .iter()
            .map(|s| s.pid)
            .filter(|&p| p != pid)
            .collect();
        Ok(server)
    }

    /// Server pid first, then its shard workers.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.pid];
        pids.extend(&self.worker_pids);
        pids
    }

    /// SIGKILL: the crash under test. No flush, no goodbye.
    pub fn kill(mut self) -> Result<Vec<u32>, Error> {
        let pids = self.pids();
        if let Some(mut child) = self.child.take() {
            let killed = child.kill();
            let reaped = child.wait();
            killed.map_err(|e| format!("kill server: {e}"))?;
            reaped.map_err(|e| format!("reap server: {e}"))?;
        }
        Ok(pids)
    }

    /// Graceful end: ask the server to stop, then reap it.
    pub fn shutdown(mut self) -> Result<Vec<u32>, Error> {
        let pids = self.pids();
        Client::connect(&self.addr)?.shutdown_server()?;
        if let Some(mut child) = self.child.take() {
            let status = child.wait().map_err(|e| format!("reap server: {e}"))?;
            if !status.success() {
                return Err(format!("server exited uncleanly after shutdown: {status}").into());
            }
        }
        Ok(pids)
    }

    /// Which of `pids` still run after `grace` (workers notice their
    /// parent's socket closing and exit on their own).
    pub fn orphans(pids: &[u32], grace: Duration) -> Vec<u32> {
        let deadline = Instant::now() + grace;
        loop {
            let left: Vec<u32> = pids.iter().copied().filter(|&p| procfs::alive(p)).collect();
            if left.is_empty() || Instant::now() >= deadline {
                return left;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The zero-orphans check every exit path must pass: all of `pids`
    /// (a stopped server and its workers) are gone within five seconds.
    pub fn assert_gone(pids: &[u32]) -> Result<(), Error> {
        let orphans = ServerProc::orphans(pids, Duration::from_secs(5));
        if orphans.is_empty() {
            Ok(())
        } else {
            Err(format!("server processes outlived their teardown: {orphans:?}").into())
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
