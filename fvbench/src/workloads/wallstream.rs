//! `wallstream`: `core::renderer`, `render` rasterize, `wall::stream`
//! delta encode and `net::stream` fan-out, with `cluster` idle. This is
//! the paper's wall scenario; `wire_kb_per_op` is its bandwidth to the
//! wall. It reaches `render` through the publish path, where `recluster`
//! reaches it through the `render` query.
//!
//! One op is one view mutation from a seeded 8-cycle. Its latency runs
//! from writing the mutation until the viewer has decoded the last tile
//! frame of the burst it caused and acked it. Mutator (`Client`) and
//! viewer (`Watcher`) are two connections on the one driver thread.

use super::{head, replay_line, send_all};
use crate::child::ServerProc;
use crate::harness::{Env, OpOutcome, Workload};
use crate::trace::Tracer;
use crate::{gen, wire, Error};
use forestview::renderer::render_desktop;
use fv_api::engine::DEFAULT_SCENE;
use fv_api::{parse_response, EngineHub, Response, SessionId};
use fv_net::{Client, Watcher};
use fv_wall::stream::tile_damage;
use fv_wall::tile::{TileGrid, Viewport};
use std::time::Duration;

/// Warm-up ops in set-up: two whole cycles.
const WARMUP_OPS: usize = 16;
/// A stalled stream fails the op instead of hanging the run.
const VIEWER_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Plan {
    pub setup: Vec<String>,
    pub cycle: Vec<String>,
    pub expected: Vec<String>,
    /// The wall after any whole number of cycles, rendered locally.
    pub wall: Vec<u8>,
}

pub struct Wallstream {
    server: ServerProc,
    mutator: Client,
    viewer: Watcher,
    next: usize,
    scratch: Vec<u8>,
}

pub fn wall_grid() -> TileGrid {
    let (tx, ty) = gen::WALL_GRID;
    TileGrid::new(tx, ty, DEFAULT_SCENE.0 / tx, DEFAULT_SCENE.1 / ty)
}

/// Damage rectangles of an `applied` reply, as the publish path sees them.
pub fn reply_damage(reply: &str) -> Result<Vec<Viewport>, Error> {
    match parse_response(reply)? {
        Response::Applied { damage, .. } => Ok(damage
            .iter()
            .map(|d| Viewport {
                x: d.x,
                y: d.y,
                w: d.w,
                h: d.h,
            })
            .collect()),
        other => Err(format!("mutation answered {other:?}, not `applied`").into()),
    }
}

/// Tile frames one published run causes: the server keeps one pending
/// rect per tile (several rects in a tile merge into their bounding box),
/// so the burst is one frame per *distinct* damaged tile.
pub fn burst_frames(grid: &TileGrid, damage: &[Viewport]) -> usize {
    let mut tiles: Vec<usize> = tile_damage(grid, damage).iter().map(|&(t, _)| t).collect();
    tiles.dedup();
    tiles.len()
}

pub fn build_plan(seed: u64, sizes: &gen::Sizes) -> Result<Plan, Error> {
    let setup = gen::wallstream_setup(seed, sizes);
    let cycle = gen::wallstream_cycle(seed);
    let mut hub = EngineHub::new();
    let id = SessionId::new(gen::WALL_SESSION)?;
    for line in &setup {
        replay_line(&mut hub, &id, line)?;
    }
    let grid = wall_grid();
    let mut expected = Vec::with_capacity(cycle.len());
    for line in &cycle {
        let reply = replay_line(&mut hub, &id, line)?;
        if burst_frames(&grid, &reply_damage(&reply)?) == 0 {
            return Err(format!("{line:?} damages no tile").into());
        }
        expected.push(reply);
    }
    let wall = render_desktop(hub.engine(&id).session(), DEFAULT_SCENE.0, DEFAULT_SCENE.1);
    for (line, want) in cycle.iter().zip(&expected) {
        if &replay_line(&mut hub, &id, line)? != want {
            return Err(format!("cycle is not periodic at {line:?}").into());
        }
    }
    let again = render_desktop(hub.engine(&id).session(), DEFAULT_SCENE.0, DEFAULT_SCENE.1);
    if again.bytes() != wall.bytes() {
        return Err("the wall is not periodic over a cycle".into());
    }
    Ok(Plan {
        setup,
        cycle,
        expected,
        wall: wall.bytes().to_vec(),
    })
}

impl Wallstream {
    /// Read the `n` tile frames of one burst (all one seq), ack it, and
    /// return the bytes that crossed the viewer's socket. An error ends
    /// the run, so error paths leave their spans open.
    fn drain_burst(&mut self, n: usize, tracer: &mut Tracer) -> Result<u64, Error> {
        let before = self.viewer.last_seq();
        let mut bytes = 0u64;
        let mut seq = None;
        tracer.enter("viewer.frames");
        for _ in 0..n {
            tracer.enter("viewer.next_frame");
            let frame = self.viewer.next_frame();
            tracer.exit();
            let Some(frame) = frame? else {
                return Err(if self.viewer.hung_up() {
                    "server hung up on the viewer".into()
                } else {
                    "viewer timed out waiting for a tile frame".into()
                });
            };
            bytes += frame.encoded_len() as u64;
            if *seq.get_or_insert(frame.seq) != frame.seq {
                return Err(format!("burst mixes seq {seq:?} and {}", frame.seq).into());
            }
        }
        tracer.exit();
        let Some(seq) = seq else {
            return Ok(0);
        };
        if let Some(before) = before {
            if seq != before + 1 {
                return Err(format!("viewer seq jumped {before} -> {seq}").into());
            }
        }
        tracer.enter("viewer.ack");
        self.viewer.ack(seq);
        tracer.exit();
        Ok(bytes + wire::request_bytes(&format!("ack {seq}")))
    }
}

impl Workload for Wallstream {
    type Plan = Plan;
    const NAME: &'static str = "wallstream";
    const WHY: &'static str = "view mutations fanned out to a 4x2 tile viewer: renderer, rasterize, delta encode and stream fan-out with cluster idle";
    const BLOCK_OPS: usize = 32;

    fn plan(env: &Env) -> Result<Plan, Error> {
        build_plan(env.seed, &env.sizes)
    }

    fn setup(env: &Env, plan: &Plan) -> Result<Wallstream, Error> {
        let server = ServerProc::boot(&env.serve_spec(&["--shards", "1"]))?;
        let mut mutator = Client::connect(&server.addr)?;
        mutator.use_session(gen::WALL_SESSION)?;
        send_all(&mut mutator, &plan.setup)?;
        let (tx, ty) = gen::WALL_GRID;
        let mut viewer = Watcher::connect(&server.addr, gen::WALL_SESSION, tx, ty)?;
        viewer.set_read_timeout(Some(VIEWER_TIMEOUT))?;
        let mut w = Wallstream {
            server,
            mutator,
            viewer,
            next: 0,
            scratch: Vec::new(),
        };
        // The subscription's keyframe: one frame per tile.
        let mut off = Tracer::new(false);
        w.drain_burst(tx * ty, &mut off)?;
        if w.viewer.keyframes() != (tx * ty) as u64 {
            return Err("subscription did not open with a keyframe".into());
        }
        for _ in 0..WARMUP_OPS {
            let outcome = w.op(plan, &mut off)?;
            if let Some(why) = outcome.refused.or(outcome.mismatch) {
                return Err(format!("warm-up op: {why}").into());
            }
        }
        Ok(w)
    }

    fn server(&self) -> &ServerProc {
        &self.server
    }

    fn op(&mut self, plan: &Plan, tracer: &mut Tracer) -> Result<OpOutcome, Error> {
        let pos = self.next % plan.cycle.len();
        self.next += 1;
        let line = &plan.cycle[pos];
        tracer.enter("client.roundtrip");
        let reply = self.mutator.roundtrip(line);
        tracer.exit();
        let reply = reply?;
        let mut outcome = OpOutcome {
            wire_bytes: wire::request_bytes(line) + wire::reply_bytes(&reply, &mut self.scratch),
            ..OpOutcome::default()
        };
        match reply {
            Ok(text) => {
                if text != plan.expected[pos] {
                    outcome.mismatch = Some(format!(
                        "{line:?} answered {:?}, local replay says {:?}",
                        head(&text),
                        head(&plan.expected[pos])
                    ));
                }
                // The burst size follows from the reply the server
                // actually gave, exactly as its publish path computes it.
                let n = burst_frames(self.viewer.grid(), &reply_damage(&text)?);
                outcome.wire_bytes += self.drain_burst(n, tracer)?;
            }
            Err(e) => outcome.refused = Some(format!("{line:?}: {e}")),
        }
        Ok(outcome)
    }

    fn verify(&mut self, plan: &Plan) -> Result<Vec<String>, Error> {
        let mut problems = Vec::new();
        if !self.next.is_multiple_of(plan.cycle.len()) {
            problems.push(format!("run stopped mid-cycle after {} ops", self.next));
        } else if self.viewer.framebuffer().bytes() != plan.wall.as_slice() {
            problems.push("viewer's assembled wall differs from the local render".to_string());
        }
        Ok(problems)
    }

    const CLIENT_STALLS: usize = 1;

    fn staged(env: &Env, _plan: &Plan, tracer: &mut Tracer) -> Result<f64, Error> {
        crate::layers::staged_wall_op(tracer, env.seed, &env.sizes)
    }

    fn teardown(self) -> Result<Vec<u32>, Error> {
        drop(self.viewer);
        drop(self.mutator);
        self.server.shutdown()
    }
}
