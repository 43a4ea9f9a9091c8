//! `restore`: the `cluster` layer used the other way round. Restore
//! replays the clustering of **shared, unchanged content** — the case a
//! content-keyed cluster cache targets, while `recluster` must not move —
//! beside checkpoint writes and the process-backend shard hop.
//!
//! Set-up is crash recovery: four sessions over one PCL are created and
//! checkpointed, the server is SIGKILLed and rebooted until its banner
//! says `recovered 4`. One op dirties a session (`set_contrast`, which
//! collapses in the session log so replay cost stays constant) and
//! migrates it to the other shard process: extract → image → install →
//! `Engine::restore`.

use super::{head, replay_line, send_all};
use crate::child::ServerProc;
use crate::harness::{Env, OpOutcome, Workload};
use crate::layers::{staged_migrate, staged_script};
use crate::trace::Tracer;
use crate::{gen, procfs, stats, wire, Error};
use fv_api::{parse_session_image, EngineHub, SessionId, SessionStore};
use fv_net::{run_script_remote, shard_of, Client};
use std::path::Path;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
/// Reboots tried before set-up gives up on `recovered 4`.
const MAX_REBOOTS: usize = 3;
/// Ops of the staged pass.
const STAGED_OPS: u64 = 4;

pub struct Plan {
    pub seed: u64,
    pub names: Vec<String>,
    /// Per session: the lines after `use <name>` that build it.
    pub session_setup: Vec<Vec<String>>,
    /// Per session: the probe reply a local replay gives.
    pub probes: Vec<String>,
    /// One script that probes every session in a single pipelined write.
    pub probe_script: String,
}

pub struct Restore {
    server: ServerProc,
    clients: Vec<Client>,
    /// Shard each session currently lives on.
    location: Vec<usize>,
    next: u64,
    scratch: Vec<u8>,
    /// CPU the set-up's killed servers had burned when they died.
    killed_cpu_ms: f64,
}

pub fn build_plan(seed: u64, sizes: &gen::Sizes, scratch: &Path) -> Result<Plan, Error> {
    let pcl = scratch.join("restore.pcl");
    std::fs::write(
        &pcl,
        fv_formats::pcl::write_pcl(&gen::restore_dataset(seed, sizes)),
    )
    .map_err(|e| format!("write {}: {e}", pcl.display()))?;
    let names: Vec<String> = (0..gen::RESTORE_SESSIONS)
        .map(gen::restore_session_name)
        .collect();
    let load = format!("load {}", pcl.display());
    let session_setup: Vec<Vec<String>> = (0..gen::RESTORE_SESSIONS)
        .map(|i| {
            let mut lines = vec![load.clone()];
            lines.extend(gen::restore_session_setup(seed, i));
            lines
        })
        .collect();
    // All four sessions hold the same data and clustering and differ only
    // in selection and scroll, which each session's own view mutations
    // overwrite entirely: one local session yields all four probes.
    let mut hub = EngineHub::new();
    let id = SessionId::new("oracle")?;
    let mut probes = Vec::with_capacity(names.len());
    for (i, lines) in session_setup.iter().enumerate() {
        let fresh = if i == 0 { &lines[..] } else { &lines[2..] };
        for line in fresh {
            replay_line(&mut hub, &id, line)?;
        }
        probes.push(replay_line(&mut hub, &id, gen::RESTORE_PROBE)?);
    }
    let probe_script: String = names
        .iter()
        .map(|name| format!("use {name}\n{}\n", gen::RESTORE_PROBE))
        .collect();
    Ok(Plan {
        seed,
        names,
        session_setup,
        probes,
        probe_script,
    })
}

fn serve_args(state_dir: &Path) -> Vec<String> {
    [
        "--shard-procs",
        "2",
        "--state-dir",
        &state_dir.to_string_lossy(),
        "--balance",
        "off",
        // Checkpoints ride the balance-gather cadence; the default 500 ms
        // would put up to half a second of phase jitter into set-up.
        "--balance-interval-ms",
        "100",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Block until every session's checkpoint records the requests sent to
/// it. The attempted-request counter travels in the image and is what
/// the cadence uses for dirtiness, so once it matches no further write
/// can change the file and the server may be killed at any instant.
fn wait_for_checkpoints(state_dir: &Path, expect: &[(String, u64)]) -> Result<(), Error> {
    let store = SessionStore::open(state_dir)?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let lagging = expect.iter().find(|(name, want)| {
            let Ok(id) = SessionId::new(name.clone()) else {
                return true;
            };
            let got = std::fs::read_to_string(store.checkpoint_path(&id))
                .ok()
                .and_then(|text| parse_session_image(&text).ok())
                .map(|image| image.requests);
            got != Some(*want)
        });
        match lagging {
            None => return Ok(()),
            Some((name, want)) if Instant::now() >= deadline => {
                return Err(format!("checkpoint of {name} never reached {want} requests").into());
            }
            Some(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Probe every session in one pipelined script; returns mismatches.
pub fn probe_all(addr: &str, plan: &Plan) -> Result<Vec<String>, Error> {
    let mut blocks: Vec<String> = Vec::new();
    run_script_remote(addr, &plan.probe_script, |b| blocks.push(b.to_string()))?;
    let mut problems = Vec::new();
    if blocks.len() != plan.probes.len() {
        problems.push(format!("probe script answered {} blocks", blocks.len()));
    }
    for ((block, want), name) in blocks.iter().zip(&plan.probes).zip(&plan.names) {
        let text = wire::block_text(block);
        if text != want {
            problems.push(format!(
                "probe of {name} answered {:?}, local replay says {:?}",
                head(text),
                head(want)
            ));
        }
    }
    Ok(problems)
}

impl Workload for Restore {
    type Plan = Plan;
    const NAME: &'static str = "restore";
    const WHY: &'static str = "sessions over one shared unchanged PCL recovered after SIGKILL, then migrated between process shards with checkpoints beside";
    const BLOCK_OPS: usize = gen::RESTORE_SESSIONS;

    fn plan(env: &Env) -> Result<Plan, Error> {
        build_plan(env.seed, &env.sizes, &env.scratch)
    }

    fn setup(env: &Env, plan: &Plan) -> Result<Restore, Error> {
        let state_dir = env.scratch.join("state");
        let _ = std::fs::remove_dir_all(&state_dir);
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| format!("create {}: {e}", state_dir.display()))?;
        let args = serve_args(&state_dir);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let spec = env.serve_spec(&args);

        let mut server = ServerProc::boot(&spec)?;
        if server.recovered != Some(0) {
            return Err(format!("fresh state dir recovered {:?}", server.recovered).into());
        }
        let mut sent = Vec::with_capacity(plan.names.len());
        for (name, lines) in plan.names.iter().zip(&plan.session_setup) {
            let mut client = Client::connect(&server.addr)?;
            client.use_session(name)?;
            send_all(&mut client, lines)?;
            sent.push((name.clone(), lines.len() as u64));
        }
        wait_for_checkpoints(&state_dir, &sent)?;

        let mut reboots = 0;
        let mut killed_cpu_ms = 0.0;
        loop {
            killed_cpu_ms += procfs::cpu_ms(&server.pids());
            ServerProc::assert_gone(&server.kill()?)?;
            server = ServerProc::boot(&spec)?;
            reboots += 1;
            if server.recovered == Some(plan.names.len() as u64) {
                break;
            }
            if reboots >= MAX_REBOOTS {
                return Err(format!(
                    "{reboots} reboots, still {:?} of {} sessions recovered",
                    server.recovered,
                    plan.names.len()
                )
                .into());
            }
        }

        let problems = probe_all(&server.addr, plan)?;
        if let Some(why) = problems.first() {
            return Err(format!("after recovery: {why}").into());
        }
        let mut clients = Vec::with_capacity(plan.names.len());
        let mut location = Vec::with_capacity(plan.names.len());
        for name in &plan.names {
            let mut client = Client::connect(&server.addr)?;
            client.use_session(name)?;
            clients.push(client);
            location.push(shard_of(&SessionId::new(name.clone())?, SHARDS));
        }
        Ok(Restore {
            server,
            clients,
            location,
            next: 0,
            scratch: Vec::new(),
            killed_cpu_ms,
        })
    }

    fn server(&self) -> &ServerProc {
        &self.server
    }

    fn setup_cpu_ms(&self) -> f64 {
        self.killed_cpu_ms + procfs::cpu_ms(&self.server.pids())
    }

    fn op(&mut self, plan: &Plan, tracer: &mut Tracer) -> Result<OpOutcome, Error> {
        let i = self.next;
        self.next += 1;
        let s = (i % plan.names.len() as u64) as usize;
        let name = &plan.names[s];
        let line = gen::restore_mutation(plan.seed, i);
        let target = (self.location[s] + 1) % SHARDS;

        tracer.enter("client.roundtrip");
        let reply = self.clients[s].roundtrip(&line);
        tracer.exit();
        let reply = reply?;
        let mut outcome = OpOutcome {
            wire_bytes: wire::request_bytes(&line) + wire::reply_bytes(&reply, &mut self.scratch),
            ..OpOutcome::default()
        };
        match reply {
            Ok(text) if text.starts_with("applied ") => {}
            Ok(text) => outcome.mismatch = Some(format!("{line:?} answered {:?}", head(&text))),
            Err(e) => outcome.refused = Some(format!("{line:?}: {e}")),
        }

        let migrate = format!("migrate {name} {target}");
        tracer.enter("client.migrate");
        let moved = self.clients[s].migrate(name, target);
        tracer.exit();
        outcome.wire_bytes += wire::request_bytes(&migrate);
        match moved {
            Ok(()) => {
                self.location[s] = target;
                outcome.wire_bytes += wire::reply_bytes(
                    &Ok(format!("migrated {name} shard={target}")),
                    &mut self.scratch,
                );
            }
            Err(e) if e.code == fv_api::ErrorCode::Io => return Err(e.into()),
            Err(e) => {
                outcome.wire_bytes += wire::reply_bytes(&Err(e.clone()), &mut self.scratch);
                outcome.refused = Some(format!("{migrate:?}: {e}"));
            }
        }
        Ok(outcome)
    }

    fn between_blocks(&mut self, plan: &Plan) -> Result<Vec<String>, Error> {
        // After every migration round, every session must still answer
        // its probe byte for byte.
        probe_all(&self.server.addr, plan)
    }

    fn verify(&mut self, plan: &Plan) -> Result<Vec<String>, Error> {
        let mut problems = probe_all(&self.server.addr, plan)?;
        let listed = self.clients[0].list_sessions()?;
        for (name, &shard) in plan.names.iter().zip(&self.location) {
            match listed.iter().find(|e| &e.name == name) {
                Some(e) if e.shard == shard => {}
                Some(e) => problems.push(format!(
                    "{name} lives on shard {}, driver moved it to {shard}",
                    e.shard
                )),
                None => problems.push(format!("{name} is gone from list-sessions")),
            }
        }
        Ok(problems)
    }

    // `set_contrast` follows ~0.4 s of silence on its connection and is
    // answered in 0.2 ms; only the `migrate` right behind it stalls.
    const CLIENT_STALLS: usize = 1;

    fn staged(_env: &Env, plan: &Plan, tracer: &mut Tracer) -> Result<f64, Error> {
        let mut hub = EngineHub::new();
        let mut id = SessionId::new(plan.names[0].clone())?;
        for line in &plan.session_setup[0] {
            replay_line(&mut hub, &id, line)?;
        }
        let cache = hub.cache().clone();
        let mut ns = Vec::new();
        for i in 0..STAGED_OPS {
            let line = gen::restore_mutation(plan.seed, i);
            tracer.enter("staged.op");
            let started = Instant::now();
            staged_script(tracer, &mut hub, &mut id, &format!("{line}\n"))?;
            let engine = hub.take_session(&id).ok_or("staged session vanished")?;
            let restored = staged_migrate(tracer, &engine, &cache)?;
            hub.install_session(&id, restored);
            ns.push(started.elapsed().as_nanos() as f64);
            tracer.exit();
        }
        if replay_line(&mut hub, &id, gen::RESTORE_PROBE)? != plan.probes[0] {
            return Err("staged migrations changed the session's probe".into());
        }
        Ok(stats::median(&ns))
    }

    fn teardown(self) -> Result<Vec<u32>, Error> {
        drop(self.clients);
        self.server.shutdown()
    }
}
