//! `recluster`: `cluster` (distance, NN-chain linkage, leaf order) is
//! more than 85 % of the op and `net` under 1 % — the mirror image of
//! `interactive`.
//!
//! One op is one `run_script_remote` call (the `fvtool script --remote`
//! path: connect, one pipelined write, ordered replies) that loads a
//! scenario no earlier op has seen, clusters it, renders it and closes
//! the session. Fresh content every op: a content-keyed cluster cache
//! must leave this workload where it is.

use super::head;
use crate::child::ServerProc;
use crate::harness::{Env, OpOutcome, Workload};
use crate::layers::staged_script;
use crate::trace::Tracer;
use crate::{gen, stats, wire, Error};
use fv_api::{parse_script, EngineHub};
use fv_net::run_script_remote;
use std::time::Instant;

/// Warm-up ops in set-up.
const WARMUP_OPS: u64 = 4;
/// Ops of the staged pass.
const STAGED_OPS: u64 = 3;

pub struct Plan {
    seed: u64,
    sizes: gen::Sizes,
}

pub struct Recluster {
    server: ServerProc,
    /// Script counter; continues across warm-up so content never repeats.
    next: u64,
    /// `(script index, transcript)` of every timed op.
    transcripts: Vec<(u64, String)>,
}

/// Run one script; returns its transcript and wire bytes.
fn run_op(addr: &str, script: &str) -> Result<(String, u64), fv_api::ApiError> {
    let lines = parse_script(script)?;
    let mut blocks: Vec<String> = Vec::new();
    run_script_remote(addr, script, |block| blocks.push(block.to_string()))?;
    let bytes = wire::script_request_bytes(&lines) + wire::script_reply_bytes(&lines, &blocks);
    Ok((blocks.concat(), bytes))
}

/// What a local hub prints for the same script.
pub fn local_transcript(script: &str) -> Result<String, Error> {
    let mut hub = EngineHub::new();
    let mut out = String::new();
    hub.run_script_streaming(script, |entry| out.push_str(&entry.render()))?;
    Ok(out)
}

impl Workload for Recluster {
    type Plan = Plan;
    const NAME: &'static str = "recluster";
    const WHY: &'static str = "fresh content clustered and rendered per op: cluster is >85% of the op and net <1%, so a content-keyed cache predicts no change";
    const BLOCK_OPS: usize = 3;

    fn plan(env: &Env) -> Result<Plan, Error> {
        Ok(Plan {
            seed: env.seed,
            sizes: env.sizes,
        })
    }

    fn setup(env: &Env, plan: &Plan) -> Result<Recluster, Error> {
        let server = ServerProc::boot(&env.serve_spec(&["--shards", "1"]))?;
        for i in 0..WARMUP_OPS {
            run_op(
                &server.addr,
                &gen::recluster_script(plan.seed, i, &plan.sizes),
            )
            .map_err(|e| format!("warm-up op {i}: {e}"))?;
        }
        Ok(Recluster {
            server,
            next: WARMUP_OPS,
            transcripts: Vec::new(),
        })
    }

    fn server(&self) -> &ServerProc {
        &self.server
    }

    fn op(&mut self, plan: &Plan, tracer: &mut Tracer) -> Result<OpOutcome, Error> {
        let i = self.next;
        self.next += 1;
        let script = gen::recluster_script(plan.seed, i, &plan.sizes);
        tracer.enter("client.run_script_remote");
        let result = run_op(&self.server.addr, &script);
        tracer.exit();
        let mut outcome = OpOutcome::default();
        match result {
            Ok((transcript, bytes)) => {
                outcome.wire_bytes = bytes;
                // Shape check on every op; byte-exact check on the sample.
                if !transcript.contains("\nframe 1280x960 panes=3 checksum=") {
                    outcome.mismatch = Some(format!("op {i} rendered no 3-pane frame"));
                }
                self.transcripts.push((i, transcript));
            }
            Err(e) if e.code == fv_api::ErrorCode::Io => return Err(e.into()),
            Err(e) => outcome.refused = Some(format!("script {i}: {e}")),
        }
        Ok(outcome)
    }

    fn verify(&mut self, plan: &Plan) -> Result<Vec<String>, Error> {
        // A local replay costs as much as the op itself, so the byte-exact
        // oracle samples the window: first, middle and last op.
        let n = self.transcripts.len();
        let mut picks: Vec<usize> = match n {
            0 => Vec::new(),
            _ => vec![0, n / 2, n - 1],
        };
        picks.dedup();
        let mut problems = Vec::new();
        for k in picks {
            let (i, remote) = &self.transcripts[k];
            let local = local_transcript(&gen::recluster_script(plan.seed, *i, &plan.sizes))?;
            if &local != remote {
                let differ = local
                    .lines()
                    .zip(remote.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("local {:?} vs remote {:?}", head(a), head(b)))
                    .unwrap_or_else(|| "transcripts differ in length".to_string());
                problems.push(format!("script {i}: {differ}"));
            }
        }
        Ok(problems)
    }

    const CLIENT_STALLS: usize = 0;
    const CONNECTS: usize = 1;

    fn staged(_env: &Env, plan: &Plan, tracer: &mut Tracer) -> Result<f64, Error> {
        let mut hub = EngineHub::new();
        let mut id = EngineHub::default_session();
        let mut ns = Vec::new();
        for k in 0..STAGED_OPS {
            // content no wire op of this run has clustered
            let script = gen::recluster_script(plan.seed, u64::MAX / 2 + k, &plan.sizes);
            tracer.enter("staged.op");
            let started = Instant::now();
            let replies = staged_script(tracer, &mut hub, &mut id, &script)?;
            ns.push(started.elapsed().as_nanos() as f64);
            tracer.exit();
            if !replies
                .last()
                .is_some_and(|r| r.starts_with("frame 1280x960 "))
            {
                return Err("staged recluster op rendered no frame".into());
            }
        }
        Ok(stats::median(&ns))
    }

    fn teardown(self) -> Result<Vec<u32>, Error> {
        self.server.shutdown()
    }
}
