//! Session sharding: N shards, each one `WorkerCore` owning one
//! [`EngineHub`], behind one concrete `Shards` handle.
//!
//! The hub is the sharding seam (see `crates/api/README.md`): sessions
//! are partitioned by a stable hash of their name, so every request for a
//! session lands on the same shard and sessions never need cross-shard
//! coordination. A shard owns its hub outright — the event loop talks to
//! it over a channel, so there is no lock to contend on or poison; a
//! panicking request (an engine bug) costs the offending session, never
//! the shard.
//!
//! The seam is one request type, one reply type and one dispatch:
//! callers build a `ShardOp` and `Shards::submit` it with a boxed
//! `FnOnce(ShardReply)` responder; `WorkerCore::serve` is the single
//! `match` that turns an op into its `ShardReply`; and
//! `ShardOp::refused` is the single answer a dead shard gives. The
//! responder fires exactly once either way, so the same seam serves
//! blocking callers (`Shards::call`: boot recovery, tests) and the
//! event loop's completion channel (which must never block).
//!
//! The only per-backend part is the `Link` each shard's drain thread
//! calls: a `WorkerCore` served by value (thread shards — nothing is
//! encoded, a published framebuffer moves through the channel as it is),
//! or the stdin/stdout pipes of a child process that runs the same
//! `serve` behind the control-protocol codec (`crate::procshard`). The
//! two backends agree by construction, not through parallel dispatch
//! code — and the server simulation checks it seed by seed, over
//! parked shards (`Parked`) of either backend.
//!
//! Two things *are* shared across thread shards:
//!
//! - **The dataset cache**: every hub is built over one
//!   [`DatasetCache`], so the same PCL loaded into sessions on different
//!   shards is parsed exactly once and shared as `Arc` handles. (Process
//!   shards re-create this seam per child — see `crate::procshard`.)
//! - **Sessions, by image**: `ShardOp::Snapshot` reads a session as a
//!   serializable [`SessionImage`] and `ShardOp::Install` writes one
//!   into a shard by replaying its compacted mutation log — the two
//!   verbs migration and boot recovery share. No engine value ever
//!   crosses the seam, which is exactly what lets a shard be a child
//!   process. A migration is copy, confirm, delete: `Snapshot` on the
//!   source, `Install` on the target, and only then `ShardOp::Close`
//!   on the source — until the close the session is untouched where it
//!   was, so no failure can lose it. Routing overrides live in the
//!   protocol core (`crate::protocol`), which is why `submit` takes an
//!   explicit shard index.
//!
//! On a durable server the shard serving a session saves it: every run
//! leaves the session's file equal to the session before the reply
//! leaves (`WorkerCore::serve`), and the event loop touches no disk.

#![allow(
    clippy::disallowed_methods,
    reason = "a thread shard's drain thread starts here"
)]

use crate::frame::{push_err_frame, push_ok_frame};
use crate::metrics::LatencyHistogram;
use crate::procshard::{self, ChildLink};
use crate::ServerConfig;
use fv_api::engine::fnv1a;
use fv_api::{
    ApiError, CacheStats, DatasetCache, Engine, EngineHub, Request, Response, RunOutcome,
    SessionId, SessionImage, SessionStore,
};
use fv_render::Framebuffer;
use fv_wall::tile::Viewport;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

fv_api::wire_record! {
    /// One session's slice of a [`ShardReport`]: identity for
    /// `list-sessions`, cumulative cost estimates for the rebalancer. On a
    /// process shard it crosses the seam as a `session` row.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionReport {
        /// Datasets the session holds.
        pub n_datasets: usize => "datasets",
        /// Attempted requests since the session was created (travels with
        /// the engine across migrations).
        pub requests: u64 => "requests",
        /// Approximate resident dataset bytes.
        pub dataset_bytes: u64 => "bytes",
        /// Session name.
        pub name: String => "name",
    }
}

fv_api::wire_record! {
    /// One shard's contribution to a `stats`, `list-sessions`, or balancer
    /// snapshot: sessions it owns (with cost estimates) plus its
    /// cumulative execution counters — read where it lands, never copied
    /// into another shape. The keyed fields open a process shard's
    /// `report` header.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct ShardReport {
        /// Shard index.
        pub shard: usize => "shard",
        /// Non-empty runs executed.
        pub runs: u64 => "runs",
        /// Requests attempted across those runs (stays with the shard; does
        /// not follow migrating sessions).
        pub requests: u64 => "requests",
        /// Largest single run.
        pub max_run: usize => "max_run",
        ..
        /// Per-request latency histogram of everything this shard executed.
        pub latency: LatencyHistogram,
        /// Gauges of the dataset cache this shard's hub loads through (one
        /// cache shared by all thread shards, a private one per child
        /// process — which is how the parent learns a child's gauges).
        pub cache: CacheStats,
        /// Per-session reports, sorted by name (hub order).
        pub sessions: Vec<SessionReport>,
    }
}

impl ShardReport {
    pub(crate) fn empty(shard: usize) -> ShardReport {
        ShardReport {
            shard,
            ..ShardReport::default()
        }
    }
}

/// A post-run rasterization for the streaming plane: the shard rendered
/// the session once into a scene-sized framebuffer, and the damage says
/// which of its pixels this run may have changed (scene coordinates;
/// conservatively the full scene when a response type carries no rects).
#[derive(Debug, PartialEq)]
pub(crate) struct PubFrame {
    pub session: SessionId,
    pub wall: Framebuffer,
    pub damage: Vec<Viewport>,
}

/// A run's answer: the asker's reply frames, finished on the shard by
/// [`answer_run`], plus the session, if the worker had to drop it (a
/// panicking request poisons its session). The core appends `reply` to
/// the asker's outbox as it is and ends a dropped session whoever asked.
/// `frame` carries the publish rasterization when the run asked for one.
#[derive(Debug, PartialEq)]
pub(crate) struct RunDone {
    pub reply: Vec<u8>,
    /// How many frames `reply` holds.
    pub frames: usize,
    pub dropped: Option<SessionId>,
    pub frame: Option<PubFrame>,
}

/// The one rule that turns a run of `n` requests into its asker's reply
/// frames: an `ok` per response, then the first error, then one
/// `skipped` per request behind it. An empty run answers nothing, even
/// when it failed — a `use` or `subscribe` has its own reply. Returns the
/// bytes and how many frames they hold.
pub(crate) fn answer_run(out: &RunOutcome, n: usize) -> (Vec<u8>, usize) {
    let mut reply = Vec::new();
    for response in &out.responses {
        push_ok_frame(&mut reply, &fv_api::format_response(response));
    }
    let mut frames = out.responses.len();
    if let Some((idx, e)) = out.error.as_ref().filter(|(idx, _)| *idx < n) {
        push_err_frame(&mut reply, e);
        let skipped = ApiError::invalid(format!(
            "skipped: request {} earlier in this pipelined run failed ({})",
            idx + 1,
            e.code.as_str()
        ));
        for _ in idx + 1..n {
            push_err_frame(&mut reply, &skipped);
        }
        frames += n - idx;
    }
    (reply, frames)
}

/// Everything a shard can be asked to do. Serializable by design:
/// requests as canonical wire text, sessions as [`SessionImage`]s.
#[cfg_attr(test, derive(Debug))]
pub(crate) enum ShardOp {
    /// Execute a request run on the session (empty runs just materialize
    /// it — the `use` semantics). With `publish` set the worker also
    /// renders the session's scene once after the run — the fv-stream
    /// fan-out hook; the event loop sets it exactly when the session has
    /// subscribers.
    Run {
        session: SessionId,
        requests: Vec<Request>,
        publish: bool,
    },
    /// Drop the session; replies whether it existed. `end` (a user's
    /// `close`) removes its file too; a migration's close keeps it.
    Close { session: SessionId, end: bool },
    /// Snapshot the shard's sessions and counters.
    Report,
    /// Read the session as a [`SessionImage`]; the engine stays in place
    /// and keeps serving while its image goes to another shard (a
    /// migration's first step). Replies `None` if the session does not
    /// live here.
    Snapshot { session: SessionId },
    /// Rebuild a session from its image (not saved: its file already
    /// holds it): a migration's second step, and boot recovery's only
    /// one. A refusal (name already taken here, which routing prevents;
    /// a fingerprint mismatch on replay; a dead shard) is just its typed
    /// reason — whoever sent the image still has the session or its
    /// file.
    Install {
        session: SessionId,
        image: SessionImage,
    },
}

/// What a shard answers; each [`ShardOp`] has exactly one reply kind.
#[derive(Debug, PartialEq)]
pub(crate) enum ShardReply {
    Run(RunDone),
    Closed(bool),
    Report(ShardReport),
    Image(Option<SessionImage>),
    Installed(Result<(), ApiError>),
}

impl ShardOp {
    /// Answer this op the way a dead shard must: a typed refusal built
    /// from `err` (an empty report attributed to `shard`, so gathers
    /// still complete). The one fallback every dead-shard path shares.
    pub fn refused(self, shard: usize, err: ApiError) -> ShardReply {
        match self {
            ShardOp::Run { requests, .. } => {
                let (reply, frames) = answer_run(&failed(err), requests.len());
                ShardReply::Run(RunDone {
                    reply,
                    frames,
                    dropped: None,
                    frame: None,
                })
            }
            ShardOp::Close { .. } => ShardReply::Closed(false),
            ShardOp::Report => ShardReply::Report(ShardReport::empty(shard)),
            ShardOp::Snapshot { .. } => ShardReply::Image(None),
            ShardOp::Install { .. } => ShardReply::Installed(Err(err)),
        }
    }
}

/// A run that failed before its first request.
fn failed(err: ApiError) -> RunOutcome {
    RunOutcome {
        responses: Vec::new(),
        error: Some((0, err)),
        latencies: Vec::new(),
    }
}

/// A queued op plus the responder that must fire exactly once with its
/// reply.
struct Job {
    op: ShardOp,
    respond: Box<dyn FnOnce(ShardReply) + Send>,
}

impl Job {
    fn refuse(self, shard: usize, err: ApiError) {
        (self.respond)(self.op.refused(shard, err));
    }
}

/// Where a shard's ops are served — the one per-backend part of the
/// seam, owned by the shard's drain thread.
pub(crate) enum Link {
    /// A thread shard: the core is served in place, by value.
    Core(WorkerCore),
    /// A process shard: the op crosses the pipes to a child that serves
    /// it on its own core.
    Child(ChildLink),
}

impl Link {
    /// OS process id serving this shard.
    fn pid(&self) -> u32 {
        match self {
            Link::Core(_) => std::process::id(),
            Link::Child(child) => child.pid(),
        }
    }

    fn call(&mut self, op: ShardOp) -> ShardReply {
        match self {
            Link::Core(core) => core.serve(op),
            Link::Child(child) => child.call(op),
        }
    }
}

/// What differs between the backends above the links: where dataset
/// cache gauges come from (and with that, what `stats` calls the
/// backend and how a vanished shard is reported).
pub(crate) enum Backend {
    /// Worker threads; every hub shares this cache.
    Threads(DatasetCache),
    /// Child processes, each with a private cache whose gauges ride on
    /// its [`ShardReport`].
    Procs,
}

/// The shards: one queue and one drain thread per shard, each draining
/// strictly in order into its [`Link`]. One outstanding op at a time per
/// shard — the shard itself is serial, so a serial link costs no
/// parallelism. Dropping a `Shards` without [`Shards::shutdown`] stops
/// the shards just the same (a closed queue ends its drain thread, which
/// drops its link) but does not wait for them.
pub(crate) struct Shards {
    /// `None` is the stop marker [`Shards::shutdown`] queues.
    senders: Vec<mpsc::Sender<Option<Job>>>,
    /// Jobs sent but not yet dequeued, per shard — the queue-depth gauge
    /// `stats` reports without a worker round trip.
    depth: Arc<Vec<AtomicUsize>>,
    pids: Vec<u32>,
    backend: Backend,
    drains: Vec<JoinHandle<()>>,
}

impl Shards {
    /// `config`'s thread shards, all hubs over one [`DatasetCache`] so a
    /// file loaded by sessions on different shards is parsed once, and
    /// all saving through `store` on a durable server.
    pub fn threads(config: &ServerConfig, store: Option<SessionStore>) -> std::io::Result<Shards> {
        let cache = DatasetCache::new();
        let core = |i| WorkerCore::new(i, config.scene, cache.clone(), store.clone());
        let links = (0..config.shards.max(1))
            .map(|i| Link::Core(core(i)))
            .collect();
        Shards::start(links, Backend::Threads(cache))
    }

    /// Give every link its queue and drain thread. On a failed thread
    /// spawn the drains already running are stopped and the remaining
    /// links dropped (a dropped [`ChildLink`] reaps its process).
    pub fn start(links: Vec<Link>, backend: Backend) -> std::io::Result<Shards> {
        let mut shards = Shards {
            senders: Vec::with_capacity(links.len()),
            depth: Arc::new(links.iter().map(|_| AtomicUsize::new(0)).collect()),
            pids: links.iter().map(Link::pid).collect(),
            backend,
            drains: Vec::with_capacity(links.len()),
        };
        for (shard, link) in links.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            let depth = Arc::clone(&shards.depth);
            let spawned = std::thread::Builder::new()
                .name(format!("fv-net-shard-{shard}"))
                .spawn(move || drain(shard, rx, depth, link));
            match spawned {
                Ok(handle) => {
                    shards.senders.push(tx);
                    shards.drains.push(handle);
                }
                Err(e) => {
                    shards.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(shards)
    }

    /// `"threads"` or `"procs"` — surfaced by `stats`.
    pub fn kind(&self) -> &'static str {
        match self.backend {
            Backend::Threads(_) => "threads",
            Backend::Procs => "procs",
        }
    }

    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.senders.len()
    }

    /// OS process id serving each shard (the server's own pid for every
    /// thread shard) — surfaced by `stats`.
    pub fn pids(&self) -> &[u32] {
        &self.pids
    }

    /// Snapshot of per-shard queued (sent, not yet dequeued) job counts.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.depth
            .iter()
            .map(|d| d.load(Ordering::SeqCst))
            .collect()
    }

    /// Dataset-cache gauges: the one cache every thread shard shares, or
    /// the sum of what each child sent with its report in `reports` (a
    /// dead child's empty report adds nothing).
    pub fn cache_stats(&self, reports: &[ShardReport]) -> CacheStats {
        match &self.backend {
            Backend::Threads(cache) => cache.stats(),
            Backend::Procs => {
                let mut sum = CacheStats::default();
                for c in reports.iter().map(|r| &r.cache) {
                    sum.entries += c.entries;
                    sum.hits += c.hits;
                    sum.misses += c.misses;
                    sum.evictions += c.evictions;
                    sum.derived_entries += c.derived_entries;
                    sum.derived_hits += c.derived_hits;
                    sum.derived_misses += c.derived_misses;
                }
                sum
            }
        }
    }

    /// Enqueue `op` on `shard`. Never blocks, and `respond` fires exactly
    /// once — immediately, with the backend's typed refusal, if the
    /// shard's drain thread is gone: `E_INTERNAL` for threads (a thread
    /// worker only dies with the process, so this is an internal bug),
    /// the crash-isolation `E_SHARD_DOWN` naming the pid for processes.
    pub fn submit(&self, shard: usize, op: ShardOp, respond: Box<dyn FnOnce(ShardReply) + Send>) {
        self.depth[shard].fetch_add(1, Ordering::SeqCst);
        let job = Job { op, respond };
        if let Err(mpsc::SendError(Some(job))) = self.senders[shard].send(Some(job)) {
            self.depth[shard].fetch_sub(1, Ordering::SeqCst);
            job.refuse(
                shard,
                match self.backend {
                    Backend::Threads(_) => {
                        ApiError::new(fv_api::ErrorCode::Internal, "shard worker is gone")
                    }
                    Backend::Procs => procshard::down(shard, self.pids[shard]),
                },
            );
        }
    }

    /// Submit `op` and block until the shard replies; `None` if the
    /// shard stopped with the op still queued. The event loop never
    /// blocks on a shard — this is for boot recovery (before the loop
    /// exists) and tests.
    pub fn call(&self, shard: usize, op: ShardOp) -> Option<ShardReply> {
        let (tx, rx) = mpsc::channel();
        self.submit(
            shard,
            op,
            Box::new(move |reply| {
                let _ = tx.send(reply);
            }),
        );
        rx.recv().ok()
    }

    /// Stop every shard after it drains everything queued so far, and
    /// reclaim it: joins the drain threads, whose links go with them (a
    /// child process has its stdin closed, which is its shutdown, and is
    /// reaped — see [`ChildLink`]).
    pub fn shutdown(self) {
        for tx in &self.senders {
            let _ = tx.send(None);
        }
        for drain in self.drains {
            let _ = drain.join();
        }
    }
}

fn drain(
    shard: usize,
    rx: mpsc::Receiver<Option<Job>>,
    depth: Arc<Vec<AtomicUsize>>,
    mut link: Link,
) {
    while let Ok(Some(Job { op, respond })) = rx.recv() {
        depth[shard].fetch_sub(1, Ordering::SeqCst);
        // Whoever asked may already be gone; that is not the shard's
        // problem.
        respond(link.call(op));
    }
}

/// What this run may have repainted, in scene coordinates. `Applied`
/// responses carry exact damage rects; any other state-mutating response
/// (dataset loads, imputation, normalization, clustering…) reports no
/// rects and conservatively damages the full scene. An empty run — the
/// publish refresh a `subscribe` or a migration hand-over submits —
/// touched nothing, which is fine: its subscribers are keyframe-synced
/// from the rendered framebuffer, not from damage.
fn run_damage(out: &RunOutcome, scene: (usize, usize)) -> Vec<Viewport> {
    let full = Viewport {
        x: 0,
        y: 0,
        w: scene.0,
        h: scene.1,
    };
    let mut rects = Vec::new();
    for response in &out.responses {
        match response {
            Response::Applied { damage, .. } => rects.extend(damage.iter().map(|d| Viewport {
                x: d.x,
                y: d.y,
                w: d.w,
                h: d.h,
            })),
            Response::Loaded { .. }
            | Response::ScenarioLoaded { .. }
            | Response::OntologyReady { .. }
            | Response::Imputed { .. }
            | Response::Normalized { .. }
            | Response::ArraysClustered { .. } => return vec![full],
            _ => {}
        }
    }
    rects
}

/// Which shard owns `id` *by hash*: FNV-1a of the session name, mod
/// shard count. Stable across connections and server restarts; the event
/// loop overlays its migration routing overrides on top of this default.
pub fn shard_of(id: &SessionId, n_shards: usize) -> usize {
    (fnv1a(id.as_str().as_bytes()) % n_shards.max(1) as u64) as usize
}

/// A [`ShardReport`]'s per-session rows for `hub`, in hub order.
pub(crate) fn session_reports(hub: &EngineHub) -> Vec<SessionReport> {
    let row = |(id, n_datasets): (SessionId, usize)| {
        let cost = hub.get(&id).map(Engine::cost).unwrap_or_default();
        SessionReport {
            name: id.to_string(),
            n_datasets,
            requests: cost.requests,
            dataset_bytes: cost.dataset_bytes,
        }
    };
    hub.list_sessions().into_iter().map(row).collect()
}

/// One shard's execution logic, backend-agnostic: the hub, the store
/// its sessions are saved to on a durable server, and the counters a
/// [`ShardReport`] snapshots. A thread shard's drain thread serves it
/// directly; a child process (`crate::procshard`) serves it from
/// decoded protocol frames. [`WorkerCore::serve`] being the only way in
/// is what makes the two backends behave identically.
pub(crate) struct WorkerCore {
    shard: usize,
    scene: (usize, usize),
    hub: EngineHub,
    store: Option<SessionStore>,
    runs: u64,
    requests_executed: u64,
    max_run: usize,
    latency: LatencyHistogram,
}

impl WorkerCore {
    pub fn new(
        shard: usize,
        scene: (usize, usize),
        cache: DatasetCache,
        store: Option<SessionStore>,
    ) -> WorkerCore {
        WorkerCore {
            shard,
            scene,
            hub: EngineHub::with_cache(scene.0, scene.1, cache),
            store,
            runs: 0,
            requests_executed: 0,
            max_run: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Execute one op — the single dispatch both backends drive.
    pub fn serve(&mut self, op: ShardOp) -> ShardReply {
        match op {
            ShardOp::Run {
                session,
                requests,
                publish,
            } => ShardReply::Run(self.run(&session, &requests, publish)),
            ShardOp::Close { session, end } => {
                let existed = self.hub.close(&session);
                if end {
                    self.persist(&session);
                }
                ShardReply::Closed(existed)
            }
            ShardOp::Report => ShardReply::Report(self.report()),
            // The engine stays in place and keeps serving.
            ShardOp::Snapshot { session } => {
                ShardReply::Image(self.hub.get(&session).map(Engine::snapshot))
            }
            ShardOp::Install { session, image } => {
                ShardReply::Installed(self.install(&session, &image))
            }
        }
    }

    /// On a durable server, make `session`'s file its image while it
    /// lives here, and remove the file once it does not (closed for
    /// good, dropped by a panic, or rolled back after a fresh session's
    /// first request failed). A failure is warned about on stderr only.
    fn persist(&self, session: &SessionId) {
        let Some(store) = &self.store else {
            return;
        };
        let written = match self.hub.get(session) {
            Some(engine) => store.save(session, &engine.snapshot()),
            None => store.remove(session),
        };
        if let Err(e) = written {
            eprintln!("fv-net: checkpoint of session {session} failed: {e}");
        }
    }

    /// Rebuild `session` here by replaying `image`'s log
    /// ([`Engine::restore`] asserts the dataset fingerprints).
    fn install(&mut self, session: &SessionId, image: &SessionImage) -> Result<(), ApiError> {
        if self.hub.get(session).is_some() {
            // Routing should prevent this; refuse rather than replace a
            // live session.
            return Err(ApiError::invalid(format!(
                "session {session} already exists on this shard"
            )));
        }
        let engine = Engine::restore(image, self.hub.cache())?;
        self.hub.install_session(session, engine);
        Ok(())
    }

    fn report(&self) -> ShardReport {
        ShardReport {
            shard: self.shard,
            sessions: session_reports(&self.hub),
            runs: self.runs,
            requests: self.requests_executed,
            max_run: self.max_run,
            latency: self.latency.clone(),
            cache: self.hub.cache_stats(),
        }
    }

    fn run(&mut self, session: &SessionId, requests: &[Request], publish: bool) -> RunDone {
        if !requests.is_empty() {
            self.runs += 1;
            self.max_run = self.max_run.max(requests.len());
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.hub.execute_run_on(session, requests)
        }));
        let mut dropped = None;
        let out = outcome.unwrap_or_else(|_| {
            // An engine panic means the session's state is suspect; drop
            // the session so the shard (and its other sessions) stays
            // healthy, and report a typed internal error. Its file goes
            // below, in this call; the core ends the session with it.
            self.hub.close(session);
            dropped = Some(session.clone());
            failed(ApiError::new(
                fv_api::ErrorCode::Internal,
                format!("request panicked; session {session} was dropped"),
            ))
        });
        // One latency observation per ATTEMPTED request (the failing one
        // included, never the skipped tail), and the `requests` counter
        // counts exactly the same population — so `stats`' histogram
        // totals always equal `requests`.
        self.requests_executed += out.latencies.len() as u64;
        for &l in &out.latencies {
            self.latency.record(l);
        }
        // Saved before the reply leaves the shard: every `ok` is on disk.
        self.persist(session);
        // The streaming rasterize hook: render the session's scene once
        // per published run. Subscribers share this one render no matter
        // how many are watching.
        let frame = if publish && dropped.is_none() {
            self.hub.get(session).map(|engine| PubFrame {
                session: session.clone(),
                damage: run_damage(&out, self.scene),
                wall: forestview::renderer::render_desktop(
                    engine.session(),
                    self.scene.0,
                    self.scene.1,
                ),
            })
        } else {
            None
        };
        let (reply, frames) = answer_run(&out, requests.len());
        RunDone {
            reply,
            frames,
            dropped,
            frame,
        }
    }
}

#[cfg(test)]
/// The third way to run shards, for tests: **parked**. No drain thread —
/// [`Shards::submit`] leaves the [`Job`] in its shard's queue exactly as
/// it does for the real backends, and the harness holding this value
/// decides when a shard serves its head job ([`Parked::serve`], inline,
/// through the same [`WorkerCore::serve`]) and when each served reply
/// reaches its responder ([`Parked::deliver`]). Order is kept per shard
/// and free across shards, which is all the real backends promise.
///
/// Parked shards are of the backend their config names. Thread shards
/// share one cache and one store handle and are served by value.
/// Process shards open a cache and a store each, as
/// `procshard::worker_main` does, and every op they serve crosses the
/// shard codec both ways in memory — the process taken out, the bytes
/// kept.
pub(crate) struct Parked {
    depth: Arc<Vec<AtomicUsize>>,
    shards: Vec<ParkedShard>,
    procs: bool,
}

#[cfg(test)]
type Responder = Box<dyn FnOnce(ShardReply) + Send>;

#[cfg(test)]
struct ParkedShard {
    queue: mpsc::Receiver<Option<Job>>,
    /// `None` once the shard went down ([`Parked::kill`]).
    core: Option<WorkerCore>,
    /// Replies served but not yet delivered, oldest first.
    served: std::collections::VecDeque<(ShardReply, Responder)>,
}

#[cfg(test)]
impl Shards {
    /// `config`'s shards, parked, and the handle that drives them.
    pub fn parked(config: &ServerConfig) -> (Shards, Parked) {
        let (n, scene) = (config.shards, config.scene);
        let procs = matches!(config.backend, crate::ShardBackendConfig::Procs { .. });
        let open = || {
            let dir = config.state_dir.as_deref();
            dir.map(|dir| SessionStore::open(dir).expect("open the state directory"))
        };
        let (shared, store) = (DatasetCache::new(), open());
        let depth: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let mut senders = Vec::with_capacity(n);
        let park = |shard| {
            let (tx, queue) = mpsc::channel();
            senders.push(tx);
            let (cache, store) = if procs {
                (DatasetCache::new(), open())
            } else {
                (shared.clone(), store.clone())
            };
            ParkedShard {
                queue,
                core: Some(WorkerCore::new(shard, scene, cache, store)),
                served: Default::default(),
            }
        };
        let shards = (0..n).map(park).collect();
        let parked = Parked {
            depth: Arc::clone(&depth),
            shards,
            procs,
        };
        let shards = Shards {
            senders,
            depth,
            pids: vec![std::process::id(); n],
            backend: if procs {
                Backend::Procs
            } else {
                Backend::Threads(shared)
            },
            drains: Vec::new(),
        };
        (shards, parked)
    }
}

#[cfg(test)]
impl Parked {
    /// Replies `shard` has served and not yet delivered.
    pub fn served(&self, shard: usize) -> usize {
        self.shards[shard].served.len()
    }

    /// The hub of a live shard.
    pub fn hub(&self, shard: usize) -> Option<&EngineHub> {
        self.shards[shard].core.as_ref().map(|core| &core.hub)
    }

    /// A process shard goes down, its sessions with it: every job it
    /// serves from now on is refused as [`ChildLink`] refuses once its
    /// child is gone. Replies it had already served still deliver — they
    /// were on the wire. A thread shard dies only with the server.
    pub fn kill(&mut self, shard: usize) {
        assert!(self.procs, "a thread shard cannot die alone");
        self.shards[shard].core = None;
    }

    /// Serve `shard`'s head job, if it has one; `peek` sees the op first.
    /// The reply parks until [`Parked::deliver`]. A parked shard reports
    /// every latency it observed as 0 µs: a measured duration is the one
    /// input a seeded run could not reproduce. A process shard's op or reply that does not
    /// survive the codec is a panic, naming the op.
    pub fn serve<R>(
        &mut self,
        shard: usize,
        peek: impl FnOnce(&ShardOp) -> R,
    ) -> Option<(R, &ShardReply)> {
        let parked = &mut self.shards[shard];
        let Ok(Some(Job { op, respond })) = parked.queue.try_recv() else {
            return None;
        };
        self.depth[shard].fetch_sub(1, Ordering::SeqCst);
        let seen = peek(&op);
        let reply = match parked.core.as_mut() {
            Some(core) => {
                let reply = if self.procs {
                    let reply = procshard::in_memory(core, &op);
                    reply.unwrap_or_else(|e| panic!("shard {shard}: {op:?} broke the codec: {e}"))
                } else {
                    core.serve(op)
                };
                let observed = core.latency.total();
                core.latency = LatencyHistogram::new();
                core.latency.counts[0] = observed;
                reply
            }
            None => op.refused(shard, procshard::down(shard, std::process::id())),
        };
        parked.served.push_back((reply, respond));
        parked.served.back().map(|(reply, _)| (seen, reply))
    }

    /// Hand `shard`'s oldest served reply to its responder.
    pub fn deliver(&mut self, shard: usize) -> bool {
        let Some((reply, respond)) = self.shards[shard].served.pop_front() else {
            return false;
        };
        respond(reply);
        true
    }

    /// [`Shards::call`] for parked shards: submit, serve everything
    /// queued up to and including `op`, and deliver.
    pub fn call(&mut self, shards: &Shards, shard: usize, op: ShardOp) -> Option<ShardReply> {
        let (tx, rx) = mpsc::channel();
        let respond = move |reply| {
            let _ = tx.send(reply);
        };
        shards.submit(shard, op, Box::new(respond));
        while self.serve(shard, |_| ()).is_some() {}
        while self.deliver(shard) {}
        rx.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_replies, Reply};
    use fv_api::{Mutation, Query};
    use std::sync::Mutex;

    fn shards(n: usize) -> Shards {
        let config = ServerConfig {
            shards: n,
            scene: (640, 480),
            ..ServerConfig::default()
        };
        Shards::threads(&config, None).expect("spawn shard workers")
    }

    fn call(shards: &Shards, shard: usize, op: ShardOp) -> ShardReply {
        shards.call(shard, op).expect("a live shard answers")
    }

    /// The frames a run's asker gets, decoded.
    fn replies(reply: ShardReply) -> Vec<Reply> {
        let ShardReply::Run(done) = reply else {
            panic!("a run answers with a run reply");
        };
        let replies = decode_replies(&done.reply).expect("whole frames");
        assert_eq!(replies.len(), done.frames);
        replies
    }

    /// Run `requests` on the session's hash shard.
    fn execute(shards: &Shards, session: &SessionId, requests: Vec<Request>) -> Vec<Reply> {
        let op = ShardOp::Run {
            session: session.clone(),
            requests,
            publish: false,
        };
        replies(call(shards, shard_of(session, shards.n_shards()), op))
    }

    fn n_datasets(reply: &Reply) -> usize {
        match fv_api::parse_response(reply.as_ref().expect("an ok frame")) {
            Ok(fv_api::Response::SessionInfo(info)) => info.n_datasets,
            other => panic!("wrong response: {other:?}"),
        }
    }

    fn load_scenario() -> Request {
        Request::Mutate(Mutation::LoadScenario {
            n_genes: 60,
            seed: 1,
        })
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for name in ["main", "alpha", "s0", "s1", "s2", "s3"] {
            let id = SessionId::new(name).unwrap();
            let s = shard_of(&id, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(&id, 4), "routing must be deterministic");
        }
        assert_eq!(shard_of(&SessionId::new("x").unwrap(), 0), 0);
    }

    #[test]
    fn shards_execute_and_isolate_sessions() {
        let shards = shards(4);
        let a = SessionId::new("a").unwrap();
        let b = SessionId::new("b").unwrap();
        let reply = execute(&shards, &a, vec![load_scenario()]);
        assert!(reply[0].is_ok());
        let reply = execute(&shards, &b, vec![Request::Query(Query::SessionInfo)]);
        assert_eq!(n_datasets(&reply[0]), 0);
        let close = || ShardOp::Close {
            session: a.clone(),
            end: true,
        };
        let home = shard_of(&a, 4);
        assert_eq!(call(&shards, home, close()), ShardReply::Closed(true));
        assert_eq!(call(&shards, home, close()), ShardReply::Closed(false));
        shards.shutdown();
    }

    #[test]
    fn a_failed_run_answers_its_prefix_the_error_and_a_skipped_tail() {
        let shards = shards(2);
        let s = SessionId::new("s").unwrap();
        let info = Request::Query(Query::SessionInfo);
        let impute = Request::Mutate(Mutation::Impute { dataset: 9, k: 3 });
        let reply = execute(
            &shards,
            &s,
            vec![load_scenario(), impute, info.clone(), info],
        );
        assert_eq!(reply.len(), 4, "one frame per request");
        assert!(reply[0].is_ok());
        let errors: Vec<ApiError> = reply[1..].iter().map(|r| r.clone().unwrap_err()).collect();
        assert_eq!(errors[0].code, fv_api::ErrorCode::NotFound);
        for skipped in &errors[1..] {
            assert_eq!(skipped.code, fv_api::ErrorCode::InvalidRequest);
            assert_eq!(
                skipped.message,
                "skipped: request 2 earlier in this pipelined run failed (E_NOT_FOUND)"
            );
        }
        // A failed empty run (a `use` on a dead shard) has no line to
        // answer.
        let refused = ShardOp::Run {
            session: s,
            requests: Vec::new(),
            publish: false,
        };
        assert!(replies(refused.refused(0, procshard::down(0, 1))).is_empty());
        shards.shutdown();
    }

    #[test]
    fn reports_cover_sessions_counters_and_latency() {
        let shards = shards(2);
        let a = SessionId::new("alpha").unwrap();
        execute(&shards, &a, vec![load_scenario()]);
        let reports: Vec<ShardReport> = (0..2)
            .map(|shard| match call(&shards, shard, ShardOp::Report) {
                ShardReply::Report(report) => report,
                other => panic!("wrong reply: {other:?}"),
            })
            .collect();
        let owner = shard_of(&a, 2);
        assert_eq!(reports[owner].shard, owner);
        assert_eq!(reports[owner].sessions.len(), 1);
        let alpha = &reports[owner].sessions[0];
        assert_eq!(alpha.name, "alpha");
        assert_eq!(alpha.n_datasets, 3);
        assert_eq!(alpha.requests, 1, "one attempted request so far");
        assert!(alpha.dataset_bytes > 0, "scenario datasets have size");
        assert_eq!(reports[owner].runs, 1);
        assert_eq!(reports[owner].requests, 1);
        assert_eq!(reports[owner].max_run, 1);
        assert_eq!(
            reports[owner].latency.total(),
            1,
            "one request, one latency observation"
        );
        assert!(reports[owner].latency.max_us > 0);
        assert_eq!(
            reports[owner].cache.misses, 0,
            "scenario loads bypass the file cache"
        );
        assert!(reports[1 - owner].sessions.is_empty());
        assert_eq!(reports[1 - owner].latency.total(), 0);
        assert_eq!(shards.queue_depths(), [0, 0], "queues drained");
        assert_eq!(shards.kind(), "threads");
        assert_eq!(shards.pids(), [std::process::id(); 2]);
        shards.shutdown();
    }

    fn image_of(reply: ShardReply) -> Option<SessionImage> {
        match reply {
            ShardReply::Image(image) => image,
            other => panic!("wrong reply: {other:?}"),
        }
    }

    #[test]
    fn snapshot_leaves_the_session_serving() {
        let shards = shards(2);
        let s = SessionId::new("durable").unwrap();
        let shard = shard_of(&s, 2);
        execute(&shards, &s, vec![load_scenario()]);
        let snapshot = |session: &SessionId| {
            let session = session.clone();
            image_of(call(&shards, shard, ShardOp::Snapshot { session }))
        };
        let image = snapshot(&s).expect("session lives here");
        assert_eq!(image.requests, 1);
        assert_eq!(image.log.len(), 1);
        let again = snapshot(&s).expect("still here after a snapshot");
        assert_eq!(again, image, "snapshots are repeatable");
        let out = execute(&shards, &s, vec![Request::Query(Query::SessionInfo)]);
        assert!(out[0].is_ok(), "session still serves after snapshots");
        // a session that does not live here answers None
        assert!(snapshot(&SessionId::new("nobody").unwrap()).is_none());
        shards.shutdown();
    }

    #[test]
    fn snapshot_install_close_moves_a_session_between_shards() {
        let shards = shards(2);
        let s = SessionId::new("mover").unwrap();
        let from = shard_of(&s, 2);
        let to = 1 - from;
        execute(&shards, &s, vec![load_scenario()]);
        let snapshot = |shard| {
            image_of(call(
                &shards,
                shard,
                ShardOp::Snapshot { session: s.clone() },
            ))
        };
        let install = |shard, image| {
            let session = s.clone();
            match call(&shards, shard, ShardOp::Install { session, image }) {
                ShardReply::Installed(outcome) => outcome,
                other => panic!("wrong reply: {other:?}"),
            }
        };
        let n_datasets = |shard| {
            let probe = ShardOp::Run {
                session: s.clone(),
                requests: vec![Request::Query(Query::SessionInfo)],
                publish: false,
            };
            n_datasets(&replies(call(&shards, shard, probe))[0])
        };
        // copy from the hash owner: a serializable image, not an engine —
        // the scenario load is its whole (compacted) log.
        let image = snapshot(from).expect("session lives on its shard");
        assert_eq!(image.requests, 1);
        assert_eq!(image.log.len(), 1);
        assert!(image.datasets.is_empty(), "scenario loads stamp no files");
        // …install on the other shard: a run routed there sees the intact
        // state…
        assert_eq!(install(to, image.clone()), Ok(()), "install must take");
        assert_eq!(n_datasets(to), 3);
        // …and installing over an occupied name is refused with the
        // reason, the session that lives there untouched — which is all a
        // refused move has to guarantee, the source having kept its copy.
        let why = install(from, image).expect_err("occupied name must refuse");
        assert_eq!(why.code, fv_api::ErrorCode::InvalidRequest);
        assert_eq!(n_datasets(from), 3);
        // The delete is the last step, and only of the source.
        let close = ShardOp::Close {
            session: s.clone(),
            end: false,
        };
        assert_eq!(call(&shards, from, close), ShardReply::Closed(true));
        assert!(snapshot(from).is_none());
        assert_eq!(n_datasets(to), 3);
        shards.shutdown();
    }

    #[test]
    fn a_run_leaves_its_sessions_file_equal_to_the_session() {
        let dir = std::env::temp_dir().join(format!("fv-shard-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("open the store");
        let mut core = WorkerCore::new(0, (640, 480), DatasetCache::new(), Some(store.clone()));
        let mut run = |session: &SessionId, requests: Vec<Request>| {
            let op = ShardOp::Run {
                session: session.clone(),
                requests,
                publish: false,
            };
            replies(core.serve(op))
        };
        let saved = |session: &SessionId| {
            let text = std::fs::read_to_string(store.checkpoint_path(session)).ok()?;
            Some(fv_api::parse_session_image(text.trim_end()).expect("the file parses"))
        };
        // A run that keeps its session saves the session's image.
        let kept = SessionId::new("kept").unwrap();
        assert!(run(&kept, vec![load_scenario()])[0].is_ok());
        assert_eq!(saved(&kept).map(|image| image.requests), Some(1));
        // A run that leaves no session leaves no file, one planted under
        // its name included — here a fresh session whose first request
        // failed and was rolled back; a panicking request's dropped
        // session takes the same path.
        let gone = SessionId::new("gone").unwrap();
        store.save(&gone, &saved(&kept).unwrap()).unwrap();
        let impute = Request::Mutate(Mutation::Impute { dataset: 9, k: 3 });
        assert!(run(&gone, vec![impute])[0].is_err());
        assert_eq!(saved(&gone), None);
        assert_eq!(saved(&kept).map(|image| image.requests), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shards_share_one_dataset_cache() {
        let dir = std::env::temp_dir().join(format!("fv-shard-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.pcl");
        std::fs::write(
            &path,
            "ID\tNAME\tGWEIGHT\tc0\tc1\nG1\tG1\t1\t1.0\t2.0\nG2\tG2\t1\t3.0\t4.0\n",
        )
        .unwrap();
        let shards = shards(4);
        let load = Request::Mutate(Mutation::LoadDataset {
            path: path.to_string_lossy().into_owned(),
        });
        // session names chosen to spread across shards
        for name in ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"] {
            let out = execute(&shards, &SessionId::new(name).unwrap(), vec![load.clone()]);
            assert!(out[0].is_ok(), "{name}: {:?}", out[0]);
        }
        let stats = shards.cache_stats(&[]);
        assert_eq!(stats.misses, 1, "one parse across all shards");
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.entries, 1);
        shards.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_job_fires_its_responder_exactly_once_with_a_typed_refusal() {
        let s = SessionId::new("s").unwrap();
        let image = SessionImage {
            scene: (640, 480),
            requests: 7,
            datasets: Vec::new(),
            log: Vec::new(),
        };
        let ops = vec![
            ShardOp::Run {
                session: s.clone(),
                requests: vec![Request::Query(Query::SessionInfo)],
                publish: true,
            },
            ShardOp::Close {
                session: s.clone(),
                end: true,
            },
            ShardOp::Report,
            ShardOp::Snapshot { session: s.clone() },
            ShardOp::Install {
                session: s.clone(),
                image,
            },
        ];
        let gone = ApiError::shard_down("shard 3 is gone");
        let mut reply = Vec::new();
        push_err_frame(&mut reply, &gone);
        let expected = vec![
            ShardReply::Run(RunDone {
                reply,
                frames: 1,
                dropped: None,
                frame: None,
            }),
            ShardReply::Closed(false),
            ShardReply::Report(ShardReport::empty(3)),
            ShardReply::Image(None),
            ShardReply::Installed(Err(gone.clone())),
        ];
        for (op, want) in ops.into_iter().zip(expected) {
            let fired = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&fired);
            let job = Job {
                op,
                respond: Box::new(move |reply| sink.lock().unwrap().push(reply)),
            };
            job.refuse(3, gone.clone());
            assert_eq!(*fired.lock().unwrap(), [want]);
        }
    }
}
