//! The closed loop every workload runs in: one client thread, one op in
//! flight, ops grouped into fixed-size blocks, the window ending on a
//! block boundary.

use crate::calib::{self, Reference};
use crate::child::{ServeSpec, ServerProc};
use crate::stats::Block;
use crate::trace::Tracer;
use crate::{procfs, Error};
use fv_net::{Client, ServerStats};
use std::path::PathBuf;
use std::time::Instant;

/// What a run needs from its surroundings.
#[derive(Debug, Clone)]
pub struct Env {
    pub fvtool: PathBuf,
    /// Scratch directory (inputs, state dirs, server logs).
    pub scratch: PathBuf,
    pub seed: u64,
    pub sizes: crate::gen::Sizes,
}

impl Env {
    pub fn serve_spec(&self, args: &[&str]) -> ServeSpec {
        ServeSpec {
            fvtool: self.fvtool.clone(),
            args: args.iter().map(|s| s.to_string()).collect(),
            stderr_log: self.scratch.join("server.stderr"),
        }
    }
}

/// What one op did, as the driver saw it.
#[derive(Debug, Default)]
pub struct OpOutcome {
    /// Bytes written + read on the driver's sockets for this op.
    pub wire_bytes: u64,
    /// The server refused or failed the op (typed error reply).
    pub refused: Option<String>,
    /// The op completed but its output differs from the oracle's.
    pub mismatch: Option<String>,
}

/// One of the four workloads, set up against a live server.
pub trait Workload: Sized {
    /// Seed-derived inputs and the oracle's expected outputs, computed
    /// once, outside every timed region.
    type Plan;

    const NAME: &'static str;
    /// One line for `BENCHMARK.json`: why this workload exists.
    const WHY: &'static str;
    /// Ops per block, sized so a block takes about a second.
    const BLOCK_OPS: usize;

    fn plan(env: &Env) -> Result<Self::Plan, Error>;

    /// Server spawn → data loaded/clustered → warm-up ops done. This is
    /// what `setup_s` times.
    fn setup(env: &Env, plan: &Self::Plan) -> Result<Self, Error>;

    fn server(&self) -> &ServerProc;

    /// CPU milliseconds the servers of this set-up burned during it (the
    /// live server's CPU clock since its spawn, plus any server the set-up
    /// itself killed along the way).
    fn setup_cpu_ms(&self) -> f64 {
        procfs::cpu_ms(&self.server().pids())
    }

    /// Run the next op. `Err` is a transport failure: the window stops.
    fn op(&mut self, plan: &Self::Plan, tracer: &mut Tracer) -> Result<OpOutcome, Error>;

    /// Untimed work between blocks (oracle probes). Returns mismatches.
    fn between_blocks(&mut self, _plan: &Self::Plan) -> Result<Vec<String>, Error> {
        Ok(Vec::new())
    }

    /// End-of-run oracle: mismatches found, empty when all is well.
    fn verify(&mut self, plan: &Self::Plan) -> Result<Vec<String>, Error>;

    /// `Client` roundtrips per op that pay the client's write stall, which
    /// the staged pass cannot reproduce in process. A roundtrip stalls when
    /// it closely follows another on its connection; the first one after
    /// a few hundred milliseconds of silence goes out at once.
    const CLIENT_STALLS: usize;
    /// Fresh connections per op (`run_script_remote` dials every time).
    const CONNECTS: usize = 0;

    /// The staged pass: push the same generated requests through the same
    /// public functions the server composes, in process, one span per
    /// stage. Returns the median staged nanoseconds of one op.
    fn staged(env: &Env, plan: &Self::Plan, tracer: &mut Tracer) -> Result<f64, Error>;

    /// Stop the server; returns every pid that must now be gone.
    fn teardown(self) -> Result<Vec<u32>, Error>;
}

/// When the timed window ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After the first block boundary at or past this many seconds.
    Seconds(f64),
    /// After exactly this many blocks (repeatable op counts).
    Blocks(usize),
}

/// Measurements of one timed window. Timings are re-priced at reference
/// machine speed (see [`crate::calib`]); the raw ones ride along for the
/// report.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    /// Per-op latency, CPU share at reference speed.
    pub lat_ms: Vec<f64>,
    /// Per-op latency as the wall clock saw it.
    pub raw_lat_ms: Vec<f64>,
    /// Blocks whose wall time is the sum of their ops' `lat_ms`.
    pub blocks: Vec<Block>,
    pub wire_bytes: u64,
    /// Server CPU over the window, at reference speed.
    pub cpu_ms: f64,
    /// Server CPU over the window as `/proc` counted it.
    pub raw_cpu_ms: f64,
    pub rss_peak_mib: f64,
    pub elapsed_s: f64,
    /// Every reference-kernel sample of the window.
    pub slowness: Vec<f64>,
    pub stats: ServerStats,
    /// Oracle mismatches and refusals, first few kept verbatim.
    pub problems: Vec<String>,
    pub mismatches: u64,
}

const KEEP_PROBLEMS: usize = 8;

fn note(problems: &mut Vec<String>, what: String) {
    if problems.len() < KEEP_PROBLEMS {
        problems.push(what);
    }
}

/// Server CPU that must accumulate before the reference kernel runs
/// again inside a block. `recluster` and `restore` ops cross it every op
/// and are tracked op by op, `wallstream` every second or third op;
/// `interactive` burns a third of a millisecond per op and is sampled at
/// block boundaries only, which matters: its latency is a kernel timer,
/// and a pause of a few milliseconds between ops shifts its phase against
/// that timer (p50 44.0 → 42 ms, spread 0.03 % → 3.5 % when sampled after
/// every op).
const SAMPLE_EVERY_CPU_MS: f64 = 50.0;

/// A reference sample and how many ops had completed when it was taken.
struct Sample {
    after_ops: usize,
    slowness: f64,
}

/// Machine slowness during op `k` (0-based): the mean of the last sample
/// taken before it started and the first taken after it ended.
fn slowness_of(samples: &[Sample], k: usize) -> f64 {
    let before = samples.iter().rev().find(|s| s.after_ops <= k);
    let after = samples.iter().find(|s| s.after_ops > k);
    match (before, after) {
        (Some(b), Some(a)) => (b.slowness + a.slowness) / 2.0,
        (Some(only), None) | (None, Some(only)) => only.slowness,
        (None, None) => 1.0,
    }
}

/// Drive `w` closed-loop until `until`, one op at a time. The driver reads
/// the server's CPU clock around every op and runs the reference kernel
/// after an op once enough server CPU has accumulated; the op itself is
/// timed around nothing but `Workload::op`.
pub fn run_window<W: Workload>(
    w: &mut W,
    plan: &W::Plan,
    until: Until,
    reference: &Reference,
    tracer: &mut Tracer,
) -> Result<Window, Error> {
    let pids = w.server().pids();
    let addr = w.server().addr.clone();
    let mut problems = Vec::new();
    let (mut attempted, mut failed, mut mismatches, mut wire_bytes) = (0u64, 0u64, 0u64, 0u64);
    // (wall ms, cpu ms) of every completed op, and how many each block got
    let mut ops: Vec<(f64, f64)> = Vec::new();
    let mut block_sizes: Vec<usize> = Vec::new();
    let mut samples = vec![Sample {
        after_ops: 0,
        slowness: reference.slowness(),
    }];
    let mut cpu_since_sample = 0.0;
    let started = Instant::now();
    let mut op_no = 0u64;
    'window: loop {
        let done = match until {
            Until::Seconds(s) => !block_sizes.is_empty() && started.elapsed().as_secs_f64() >= s,
            Until::Blocks(n) => block_sizes.len() >= n,
        };
        if done {
            break;
        }
        for _ in 0..W::BLOCK_OPS {
            tracer.set_op(op_no);
            op_no += 1;
            attempted += 1;
            let cpu_before = procfs::cpu_ms(&pids);
            let op_started = Instant::now();
            tracer.enter("op");
            let outcome = w.op(plan, tracer);
            tracer.exit();
            let wall_ms = op_started.elapsed().as_secs_f64() * 1e3;
            let cpu_ms = (procfs::cpu_ms(&pids) - cpu_before).max(0.0);
            match outcome {
                Ok(outcome) => {
                    ops.push((wall_ms, cpu_ms));
                    wire_bytes += outcome.wire_bytes;
                    if let Some(why) = outcome.refused {
                        failed += 1;
                        note(&mut problems, format!("op {op_no} refused: {why}"));
                    }
                    if let Some(why) = outcome.mismatch {
                        mismatches += 1;
                        note(&mut problems, format!("op {op_no} mismatch: {why}"));
                    }
                }
                Err(e) => {
                    failed += 1;
                    note(&mut problems, format!("op {op_no} transport failure: {e}"));
                    break 'window;
                }
            }
            cpu_since_sample += cpu_ms;
            if cpu_since_sample >= SAMPLE_EVERY_CPU_MS {
                cpu_since_sample = 0.0;
                samples.push(Sample {
                    after_ops: ops.len(),
                    slowness: reference.slowness(),
                });
            }
        }
        block_sizes.push(W::BLOCK_OPS);
        // ... and at every block boundary, where a pause costs one op in
        // sixteen its timer phase instead of all of them.
        if samples.last().is_some_and(|s| s.after_ops < ops.len()) {
            cpu_since_sample = 0.0;
            samples.push(Sample {
                after_ops: ops.len(),
                slowness: reference.slowness(),
            });
        }
        for why in w.between_blocks(plan)? {
            mismatches += 1;
            note(
                &mut problems,
                format!("after block {}: {why}", block_sizes.len()),
            );
        }
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let rss_peak_mib = procfs::rss_peak_mib(&pids);
    let stats = Client::connect(&addr)?.stats()?;

    // Re-price every op now that the sample after it exists.
    let (mut lat_ms, mut raw_lat_ms) = (Vec::new(), Vec::new());
    let (mut cpu_norm_ms, mut cpu_raw_ms) = (0.0f64, 0.0f64);
    for (k, &(wall_ms, cpu_ms)) in ops.iter().enumerate() {
        let slow = slowness_of(&samples, k);
        lat_ms.push(calib::normalise(wall_ms, cpu_ms, slow));
        raw_lat_ms.push(wall_ms);
        cpu_norm_ms += cpu_ms / slow;
        cpu_raw_ms += cpu_ms;
    }
    let mut blocks = Vec::with_capacity(block_sizes.len());
    let mut at = 0;
    for size in block_sizes {
        let block_ms: f64 = lat_ms[at..at + size].iter().sum();
        blocks.push(Block {
            ops: size,
            wall_s: block_ms / 1e3,
        });
        at += size;
    }
    Ok(Window {
        attempted,
        failed,
        lat_ms,
        raw_lat_ms,
        blocks,
        wire_bytes,
        cpu_ms: cpu_norm_ms,
        raw_cpu_ms: cpu_raw_ms,
        rss_peak_mib,
        elapsed_s,
        slowness: samples.iter().map(|s| s.slowness).collect(),
        stats,
        problems,
        mismatches,
    })
}

/// One timed set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Seconds, CPU share at reference speed.
    pub norm_s: f64,
    /// Seconds as the wall clock saw them.
    pub raw_s: f64,
    /// Peak resident set of this set-up's server when it was torn down;
    /// 0 for the last set-up, whose server goes on to run the window.
    pub rss_peak_mib: f64,
}

/// Set up `times` times, tearing every set-up but the last down again,
/// and hand back the live workload with each set-up's duration: one
/// set-up is a sample of one, and `setup_s` is their median.
pub fn timed_setups<W: Workload>(
    env: &Env,
    plan: &W::Plan,
    times: usize,
    reference: &Reference,
) -> Result<(W, Vec<SetupTime>), Error> {
    let mut durations: Vec<SetupTime> = Vec::with_capacity(times);
    let mut live: Option<W> = None;
    for _ in 0..times.max(1) {
        if let Some(previous) = live.take() {
            if let Some(last) = durations.last_mut() {
                last.rss_peak_mib = procfs::rss_peak_mib(&previous.server().pids());
            }
            stop(previous)?;
        }
        let before = reference.slowness();
        let started = Instant::now();
        let w = W::setup(env, plan)?;
        let raw_s = started.elapsed().as_secs_f64();
        let cpu_ms = w.setup_cpu_ms();
        let slow = (before + reference.slowness()) / 2.0;
        durations.push(SetupTime {
            norm_s: calib::normalise(raw_s * 1e3, cpu_ms, slow) / 1e3,
            raw_s,
            rss_peak_mib: 0.0,
        });
        live = Some(w);
    }
    match live {
        Some(w) => Ok((w, durations)),
        None => Err("no set-up ran".into()),
    }
}

/// Tear down and prove nothing was left running.
pub fn stop<W: Workload>(w: W) -> Result<(), Error> {
    ServerProc::assert_gone(&w.teardown()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_is_priced_by_the_samples_around_it() {
        let samples = [
            Sample {
                after_ops: 0,
                slowness: 1.0,
            },
            Sample {
                after_ops: 2,
                slowness: 1.2,
            },
            Sample {
                after_ops: 3,
                slowness: 1.4,
            },
        ];
        // ops 0 and 1 ran between the first two samples
        assert!((slowness_of(&samples, 0) - 1.1).abs() < 1e-12);
        assert!((slowness_of(&samples, 1) - 1.1).abs() < 1e-12);
        // op 2 between the second and third
        assert!((slowness_of(&samples, 2) - 1.3).abs() < 1e-12);
        // an op after the last sample falls back to it
        assert!((slowness_of(&samples, 3) - 1.4).abs() < 1e-12);
        assert_eq!(slowness_of(&[], 0), 1.0);
    }
}
