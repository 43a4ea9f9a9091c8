//! Standalone shard worker binary — the process a process-shard test
//! spawns per shard (production servers re-exec themselves as `fvtool
//! shard-worker` instead; both paths are [`fv_net::worker_main`]).
//! Not meant to be run by hand: it immediately dials the parent given
//! by `--connect` and speaks the shard control protocol (see
//! `crates/net/src/procshard.rs`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match fv_net::worker_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fv-shard-worker: {msg}");
            ExitCode::FAILURE
        }
    }
}
