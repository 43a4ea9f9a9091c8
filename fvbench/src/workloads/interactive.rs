//! `interactive`: the engine does almost nothing per op, so the `net` +
//! `api` codec path and the client's write pattern are the whole latency.
//!
//! One op is one request sent with `Client::roundtrip` — what
//! `fvtool <verb> --remote` does — from a seeded 16-request cycle with no
//! renders. The driver uses `Client` unmodified and sets no socket
//! options, so a client or server fix to the write pattern shows here.

use super::{head, replay_line, send_all};
use crate::child::ServerProc;
use crate::harness::{Env, OpOutcome, Workload};
use crate::layers::staged_script;
use crate::trace::Tracer;
use crate::{gen, stats, wire, Error};
use fv_api::{EngineHub, SessionId};
use fv_net::Client;
use std::time::Instant;

pub const SESSION: &str = "ia";
/// Cycles of the staged pass (the first one is warm-up).
const STAGED_CYCLES: usize = 9;

pub struct Plan {
    pub setup: Vec<String>,
    pub cycle: Vec<String>,
    /// Reply text of each cycle position, from a local replay.
    pub expected: Vec<String>,
}

pub struct Interactive {
    server: ServerProc,
    client: Client,
    next: usize,
    scratch: Vec<u8>,
}

/// Replay the set-up and two cycles locally. The second cycle must answer
/// exactly like the first: that is what lets every op of the window be
/// checked against `expected` without replaying the window.
pub fn build_plan(seed: u64, sizes: &gen::Sizes) -> Result<Plan, Error> {
    let setup = gen::interactive_setup(seed, sizes);
    let cycle = gen::interactive_cycle(seed, sizes);
    let mut hub = EngineHub::new();
    let id = SessionId::new(SESSION)?;
    for line in &setup {
        replay_line(&mut hub, &id, line)?;
    }
    let mut first = Vec::with_capacity(cycle.len());
    for line in &cycle {
        first.push(replay_line(&mut hub, &id, line)?);
    }
    for (line, want) in cycle.iter().zip(&first) {
        let again = replay_line(&mut hub, &id, line)?;
        if &again != want {
            return Err(format!("cycle is not periodic at {line:?}").into());
        }
    }
    Ok(Plan {
        setup,
        cycle,
        expected: first,
    })
}

impl Workload for Interactive {
    type Plan = Plan;
    const NAME: &'static str = "interactive";
    const WHY: &'static str = "cheap view requests, one Client::roundtrip each: the net+api codec path and the client's write pattern are the whole latency";
    const BLOCK_OPS: usize = 16;

    fn plan(env: &Env) -> Result<Plan, Error> {
        build_plan(env.seed, &env.sizes)
    }

    fn setup(env: &Env, plan: &Plan) -> Result<Interactive, Error> {
        let server = ServerProc::boot(&env.serve_spec(&["--shards", "1"]))?;
        let mut client = Client::connect(&server.addr)?;
        client.use_session(SESSION)?;
        send_all(&mut client, &plan.setup)?;
        // Warm-up: one whole cycle (builds the SPELL index, fills caches).
        send_all(&mut client, &plan.cycle)?;
        Ok(Interactive {
            server,
            client,
            next: 0,
            scratch: Vec::new(),
        })
    }

    fn server(&self) -> &ServerProc {
        &self.server
    }

    fn op(&mut self, plan: &Plan, tracer: &mut Tracer) -> Result<OpOutcome, Error> {
        let pos = self.next % plan.cycle.len();
        self.next += 1;
        let line = &plan.cycle[pos];
        tracer.enter("client.roundtrip");
        let reply = self.client.roundtrip(line);
        tracer.exit();
        let reply = reply?;
        let mut outcome = OpOutcome {
            wire_bytes: wire::request_bytes(line) + wire::reply_bytes(&reply, &mut self.scratch),
            ..OpOutcome::default()
        };
        match reply {
            Ok(text) if text == plan.expected[pos] => {}
            Ok(text) => {
                outcome.mismatch = Some(format!(
                    "{line:?} answered {:?}, local replay says {:?}",
                    head(&text),
                    head(&plan.expected[pos])
                ))
            }
            Err(e) => outcome.refused = Some(format!("{line:?}: {e}")),
        }
        Ok(outcome)
    }

    fn verify(&mut self, _plan: &Plan) -> Result<Vec<String>, Error> {
        // Every reply was already compared in `op`.
        Ok(Vec::new())
    }

    const CLIENT_STALLS: usize = 1;

    fn staged(_env: &Env, plan: &Plan, tracer: &mut Tracer) -> Result<f64, Error> {
        let mut hub = EngineHub::new();
        let mut id = SessionId::new(SESSION)?;
        for line in &plan.setup {
            replay_line(&mut hub, &id, line)?;
        }
        let mut ns = Vec::new();
        for round in 0..STAGED_CYCLES {
            for (line, want) in plan.cycle.iter().zip(&plan.expected) {
                tracer.enter("staged.op");
                let started = Instant::now();
                let replies = staged_script(tracer, &mut hub, &mut id, &format!("{line}\n"))?;
                let took = started.elapsed().as_nanos() as f64;
                tracer.exit();
                if replies.first() != Some(want) {
                    return Err(format!("staged {line:?} disagrees with the plan").into());
                }
                // the first cycle builds the SPELL index, as warm-up does
                if round > 0 {
                    ns.push(took);
                }
            }
        }
        Ok(stats::median(&ns))
    }

    fn teardown(self) -> Result<Vec<u32>, Error> {
        drop(self.client);
        self.server.shutdown()
    }
}
