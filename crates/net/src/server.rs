//! The event-loop TCP server: one poll-driven thread owns every
//! connection; N shards own the engines. No thread is ever spawned per
//! connection — 1000 idle clients cost 1000 file descriptors and nothing
//! else.
//!
//! ```text
//!   poll(listener, waker, conn fds…)           [`crate::poll`]
//!        │ readiness
//!        ▼
//!   event loop      accept · read → FrameBuf → wire items → inbox
//!        │          inbox → contiguous request runs → ShardOp
//!        │          Completion{to: Waiter, reply} → frames → outbox
//!        ▼
//!   Shards          async ops; each ShardReply returns over the
//!                   completion channel + waker pipe  [`crate::shard`]
//! ```
//!
//! **One seam, one way back.** Everything the loop asks of a shard is a
//! [`ShardOp`] submitted with a [`Waiter`] naming who wants the answer: a
//! connection, the balancer's snapshot gather, a checkpoint, a stream
//! re-sync, or a step of a migration chain. The shard's [`ShardReply`]
//! comes back as a [`Completion`] and one `match` on the waiter routes
//! it (`EventLoop::on_completion`). Loop-wide state lives in one owned
//! [`LoopState`] beside the connection table; the loop body itself only
//! sequences named handlers.
//!
//! **Batching.** Consecutive request lines for the connection's current
//! session are dispatched as one *run* — everything the client has
//! pipelined when the connection's previous work finishes — and executed
//! via `EngineHub::execute_run_on`, so a pipelined command stream pays
//! one shard hop per run with responses still per-request and in
//! request order. Response order per connection always equals request
//! order; requests from different connections to the *same* session
//! serialize on the owning shard in arrival order.
//!
//! **Backpressure.** Two watermarks bound per-connection memory no
//! matter how fast a client pipelines: requests beyond
//! [`ServerConfig::queue_limit`] pending (queued + dispatched) are
//! answered `err E_BUSY` without executing, and a connection whose
//! outbox or inbox exceeds its high-water mark stops being read until it
//! drains (TCP pushes the pressure back to the client).
//!
//! **Observability.** The loop and the shards keep counters; the `stats`
//! control line snapshots them into a [`crate::metrics::ServerStats`]
//! reply, and `list-sessions` fans out over the shards for a merged,
//! name-sorted session listing.

use crate::balance::{
    format_balance, BalanceConfig, BalanceMode, Balancer, SessionObservation, ShardObservation,
};
use crate::frame::{push_err_frame, push_ok_frame, FrameBuf, LineFault, MAX_LINE};
use crate::metrics::{ServerStats, ShardStats, StreamStats};
use crate::poll::{self, PollEntry};
use crate::procshard;
use crate::shard::{shard_of, PubFrame, ShardOp, ShardReply, ShardReport, Shards};
use crate::stream::{union_rect, StreamPlane, SubState};
use fv_api::codec::ScriptItem;
use fv_api::{ApiError, EngineHub, Request, SessionId, SessionStore, WireItem};
use fv_render::Framebuffer;
use fv_wall::stream::tile_damage;
use fv_wall::tile::TileGrid;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Whether [`crate::poll`] reports real readiness (Linux) or the
/// portable scan fallback (everything claims ready). The waker pipe is
/// only polled for readiness on the real path.
const REAL_POLL: bool = cfg!(target_os = "linux");

/// Stop reading a connection whose un-flushed outbox exceeds this many
/// bytes; reads resume once the peer drains its responses.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// Stop reading a connection with this many parsed-but-unanswered wire
/// items (mostly `E_BUSY` rejects waiting behind an in-flight run).
const INBOX_HIGH_WATER: usize = 1024;

/// How long shutdown waits for already-written frames (e.g. the `bye`
/// acknowledging a wire `shutdown`) to flush before closing sockets.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_millis(500);

/// Where the shard workers live.
#[derive(Debug, Clone, Default)]
pub enum ShardBackendConfig {
    /// In-process worker threads sharing one dataset cache (the
    /// default): [`crate::shard::Shards::threads`].
    #[default]
    Threads,
    /// One child worker process per shard, each with its own dataset
    /// cache, speaking the shard control protocol
    /// (`crate::procshard`). `worker_cmd` is the argv prefix to exec
    /// per shard — `["/path/to/fvtool", "shard-worker"]` in
    /// production.
    Procs { worker_cmd: Vec<String> },
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker shard count; sessions are hash-partitioned across shards.
    pub shards: usize,
    /// Thread shards or child-process shards.
    pub backend: ShardBackendConfig,
    /// Scene dimensions every shard's hub resolves damage against.
    pub scene: (usize, usize),
    /// Per-connection bound on pending (queued + dispatched, not yet
    /// answered) requests; overruns are rejected with `E_BUSY`.
    pub queue_limit: usize,
    /// Startup mode of the automatic rebalancer (`balance auto|off` on
    /// the wire flips it at runtime).
    pub balance: BalanceMode,
    /// Rebalancer policy knobs (watermarks, budget, cooldown).
    pub balance_cfg: BalanceConfig,
    /// How often the rebalancer snapshots the shards and plans.
    pub balance_interval: Duration,
    /// Durable session state directory. When set, every checkpointed
    /// session is re-installed at boot ([`Server::bind`] recovers before
    /// accepting a single connection), and dirty sessions are
    /// checkpointed on each completed balance gather — so a SIGKILL'd
    /// server comes back with its sessions instead of losing them all.
    /// `None` (the default) keeps sessions purely in memory.
    pub state_dir: Option<PathBuf>,
    /// Fault injection (tests only): the shard at this index refuses
    /// every engine install, forcing the migration restore path.
    #[doc(hidden)]
    pub fault_refuse_install_to: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            backend: ShardBackendConfig::Threads,
            scene: fv_api::engine::DEFAULT_SCENE,
            queue_limit: 128,
            balance: BalanceMode::Off,
            balance_cfg: BalanceConfig::default(),
            balance_interval: Duration::from_millis(500),
            state_dir: None,
            fault_refuse_install_to: None,
        }
    }
}

/// Wakes the event loop from shard workers and [`Server::shutdown`]: a
/// self-pipe with an at-most-one-byte-in-flight guarantee, so writes
/// never block and a drain never starves.
#[derive(Clone)]
struct Waker {
    tx: Arc<PipeWriter>,
    pending: Arc<AtomicBool>,
}

impl Waker {
    fn new(tx: PipeWriter) -> Waker {
        Waker {
            tx: Arc::new(tx),
            pending: Arc::new(AtomicBool::new(false)),
        }
    }

    fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }

    /// Called by the loop before draining completions, so wakes that race
    /// the drain write a fresh byte.
    fn clear(&self) {
        self.pending.store(false, Ordering::SeqCst);
    }
}

struct Shared {
    stop: AtomicBool,
    waker: Waker,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`Server::shutdown`] (or send a `shutdown` line) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shards: usize,
    recovered: u64,
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving: one event-loop thread plus the shard workers.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (waker_rx, waker_tx) = std::io::pipe()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            waker: Waker::new(waker_tx),
        });
        let loop_shared = Arc::clone(&shared);
        // Start the shards here so a failure (a worker thread or child
        // process that cannot start) surfaces as the bind error instead
        // of a panic inside the event-loop thread.
        let shards = match &config.backend {
            ShardBackendConfig::Threads => {
                Shards::threads(config.shards, config.scene, config.fault_refuse_install_to)?
            }
            ShardBackendConfig::Procs { worker_cmd } => procshard::spawn(
                worker_cmd,
                config.shards,
                config.scene,
                config.fault_refuse_install_to,
            )?,
        };
        let n_shards = shards.n_shards();
        // Crash recovery happens HERE, synchronously, before the loop
        // thread exists: every checkpoint in the state directory is
        // re-installed through the same never-lose-a-session install
        // path migrations use, so by the time `bind` returns the first
        // client already sees the recovered sessions. Stale images
        // (dataset changed on disk, `E_STALE_IMAGE`) and corrupt files
        // are warned about and skipped, never panicked on.
        let (checkpoints, recovered) = match &config.state_dir {
            None => (None, 0),
            Some(dir) => {
                let (plane, recovered) = recover_sessions(dir, &shards)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                (Some(plane), recovered)
            }
        };
        // fv-lint: allow(no-spawn-outside-sanctioned-modules) -- the one event-loop thread; every other server thread is a shard drain (shard.rs)
        let event_loop = std::thread::Builder::new()
            .name("fv-net-loop".into())
            .spawn(move || {
                event_loop(
                    listener,
                    config,
                    shards,
                    loop_shared,
                    waker_rx,
                    checkpoints,
                    recovered,
                )
            })?;
        Ok(Server {
            addr: local,
            shards: n_shards,
            recovered,
            shared,
            event_loop: Some(event_loop),
        })
    }

    /// Sessions recovered from the state directory's checkpoints during
    /// [`Server::bind`]. Zero without [`ServerConfig::state_dir`].
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker shards.
    pub fn n_shards(&self) -> usize {
        self.shards
    }

    /// Ask the server to stop. The event loop is woken immediately (live
    /// connections do not have to speak or hang up first), flushes what
    /// it owes, closes every connection, and lets the shard workers
    /// drain and exit.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Block until the server has fully stopped (after [`Server::shutdown`]
    /// or a client's `shutdown` line).
    pub fn join(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
    }
}

// ── connection state ────────────────────────────────────────────────────

/// One parsed wire line awaiting its answer, in arrival order. Rejects
/// (parse faults, `E_BUSY` overruns) are pre-resolved but still queue, so
/// every line's frame goes out in request order.
enum Item {
    Request(Request),
    Reject(ApiError),
    Use(SessionId),
    Ping,
    /// Bare `close`: drop the connection's current session.
    Close,
    /// `close <name>`: drop the named session (the connection's current
    /// session pointer is untouched).
    CloseNamed(SessionId),
    /// `migrate <session> <shard>`: move the session to another shard.
    Migrate(SessionId, usize),
    /// `balance` (status) / `balance auto|off` (set mode). Answered from
    /// loop state, never touches a shard.
    Balance(Option<BalanceMode>),
    /// `subscribe <session> <TX>x<TY>`: become a tile-stream viewer of
    /// the session (fv-stream).
    Subscribe(SessionId, usize, usize),
    /// `unsubscribe`: stop streaming (idempotent).
    Unsubscribe,
    /// `ack <seq>`: subscriber flow control. Answered with nothing —
    /// acks pace the stream, they are not requests.
    Ack(u64),
    /// `stats` / `list-sessions`: one report from every shard.
    Gather(Gather),
    Shutdown,
}

impl Item {
    /// The session this item would dispatch shard work against (given the
    /// connection's current session), if any — what migration stalls gate
    /// on.
    fn target_session<'a>(&'a self, current: &'a SessionId) -> Option<&'a SessionId> {
        match self {
            Item::Request(_) | Item::Close => Some(current),
            Item::Use(s) | Item::CloseNamed(s) | Item::Migrate(s, _) => Some(s),
            // A subscribe materializes (and keyframe-renders) its session,
            // so it stalls while that session is mid-migration.
            Item::Subscribe(s, _, _) => Some(s),
            Item::Ping
            | Item::Reject(_)
            | Item::Balance(_)
            | Item::Unsubscribe
            | Item::Ack(_)
            | Item::Gather(_)
            | Item::Shutdown => None,
        }
    }
}

/// What a `stats` / `list-sessions` fan-out is gathering toward.
enum Gather {
    Stats,
    Sessions,
}

/// The shard work a connection is waiting on (at most one at a time —
/// that is what keeps per-connection response order equal to request
/// order).
enum Inflight {
    /// A dispatched request run (`ack` carries the `using <name>` reply
    /// for the empty run a `use` directive materializes its session
    /// with).
    Run { ack: Option<String> },
    /// A dispatched session close; answered `closed <name>`.
    Close { closed: SessionId },
    /// A dispatched migration (extract on the source shard chained to
    /// install on the target); answered `migrated <name> shard=<to>`.
    Migrate,
    /// A `stats` / `list-sessions` fan-out collecting one report per
    /// shard.
    Gather {
        what: Gather,
        reports: Vec<ShardReport>,
    },
}

struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    session: SessionId,
    inbox: VecDeque<Item>,
    /// `Item::Request`s currently in `inbox`.
    queued_requests: usize,
    inflight: Option<Inflight>,
    /// Requests in the dispatched run (for `skipped` frame counts and the
    /// pending-queue bound).
    inflight_requests: usize,
    /// The connection's fv-stream subscription, if it sent `subscribe`.
    sub: Option<SubState>,
    /// Read side saw EOF; the connection drains and closes gracefully.
    eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            session: EngineHub::default_session(),
            inbox: VecDeque::new(),
            queued_requests: 0,
            inflight: None,
            inflight_requests: 0,
            sub: None,
            eof: false,
        }
    }

    fn pending_requests(&self) -> usize {
        self.queued_requests + self.inflight_requests
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn wants_read(&self) -> bool {
        !self.eof && self.out_pending() < OUTBOX_HIGH_WATER && self.inbox.len() < INBOX_HIGH_WATER
    }

    fn wants_write(&self) -> bool {
        self.out_pending() > 0
    }

    /// Fully answered and hung up: safe to drop.
    fn finished(&self) -> bool {
        self.eof && self.inbox.is_empty() && self.inflight.is_none() && self.out_pending() == 0
    }

    fn push_ok(&mut self, body: &str, metrics: &mut LoopMetrics) {
        push_ok_frame(&mut self.out, body);
        metrics.frames_out += 1;
    }

    fn push_err(&mut self, e: &ApiError, metrics: &mut LoopMetrics) {
        push_err_frame(&mut self.out, e);
        metrics.frames_out += 1;
    }

    /// Write as much outbox as the socket accepts; `false` on a dead
    /// transport.
    fn flush(&mut self) -> bool {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.out.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }
}

#[derive(Default)]
struct LoopMetrics {
    frames_in: u64,
    frames_out: u64,
    busy_rejections: u64,
    /// Framing faults (oversized / non-UTF-8 lines) accepted and answered
    /// with a typed `err` — the soak chaos injectors drive this.
    garbage_frames: u64,
    /// Connections dropped with unanswered work still pending (queued,
    /// in flight, or unflushed responses); clean closes don't count.
    dirty_disconnects: u64,
}

/// The durability plane: the open checkpoint store plus the cadence
/// state deciding which sessions are dirty. Lives entirely on the
/// event-loop thread — every operation is a small sequential file write
/// under the state directory.
struct CheckpointPlane {
    store: SessionStore,
    /// Attempted-request counter at each session's last durable
    /// checkpoint — the dirtiness baseline. A session whose reported
    /// counter equals its entry is clean and costs zero checkpoint I/O.
    clean: BTreeMap<String, u64>,
    /// Sessions with a snapshot in flight, skipped until it settles so
    /// back-to-back balance gathers cannot pile up duplicate snapshots.
    pending: BTreeSet<String>,
}

/// Boot-time crash recovery: open the store, sweep and scan it, and
/// re-install every readable checkpoint on its hash shard. Install
/// refusals (occupied name, failed replay, `E_STALE_IMAGE` from a
/// dataset that changed on disk) and corrupt checkpoint files are
/// warnings — recovery recovers what it can and reports the rest.
/// Returns the plane (seeded clean at each image's request counter, so
/// an idle recovered session is not immediately re-checkpointed) and
/// the count `stats` reports as `recovered=`.
fn recover_sessions(
    state_dir: &std::path::Path,
    shards: &Shards,
) -> Result<(CheckpointPlane, u64), ApiError> {
    let store = SessionStore::open(state_dir)?;
    let scan = store.scan()?;
    for (path, why) in &scan.corrupt {
        eprintln!(
            "fv-net: skipping unrecoverable checkpoint {}: {why}",
            path.display()
        );
    }
    let mut clean = BTreeMap::new();
    let mut recovered = 0u64;
    for (session, image) in scan.sessions {
        let requests = image.requests;
        let shard = shard_of(&session, shards.n_shards());
        let install = ShardOp::Install {
            session: session.clone(),
            image,
        };
        match shards.call(shard, install) {
            Some(ShardReply::Installed(Ok(()))) => {
                clean.insert(session.as_str().to_string(), requests);
                recovered += 1;
            }
            Some(ShardReply::Installed(Err((_image, why)))) => {
                eprintln!("fv-net: not recovering session {session}: {why}")
            }
            _ => eprintln!("fv-net: shard {shard} went away while recovering session {session}"),
        }
    }
    Ok((
        CheckpointPlane {
            store,
            clean,
            pending: BTreeSet::new(),
        },
        recovered,
    ))
}

/// A shard's answer on its way back to the loop, addressed to whoever
/// asked.
struct Completion {
    to: Waiter,
    reply: ShardReply,
}

/// Who a submitted [`ShardOp`] is for. Connections have at most one op
/// in flight; everything else is the loop's own business and must
/// resolve even if the connection that triggered it is long gone.
enum Waiter {
    /// The connection's one dispatched item (see [`Inflight`]).
    Conn(u64),
    /// One shard's report toward the balancer's snapshot gather; the
    /// last one in triggers the checkpoint cadence and the policy tick.
    BalanceGather,
    /// The empty publish run submitted after a watched session migrates:
    /// its only purpose is the fresh framebuffer that re-syncs every
    /// subscriber with a keyframe on the new shard, so no connection
    /// settles it.
    StreamResync,
    /// A checkpoint snapshot of this session: the durability plane
    /// asked, not a connection, so the reply only updates the store.
    Checkpoint(SessionId),
    /// The current step of a migration chain.
    Migration(Migration),
}

/// A migration in flight: extract on `from`, install on `to`, and — if
/// the target refuses — restore on `from`. The loop drives the chain one
/// shard reply at a time, so routing tables and the stall set update in
/// one place no matter who asked or whether they are still connected.
struct Migration {
    /// The connection to answer, or `None` for a balancer-planned move.
    asker: Option<u64>,
    session: SessionId,
    from: usize,
    to: usize,
    step: MigrationStep,
}

#[derive(Clone, Copy)]
enum MigrationStep {
    Extract,
    Install,
    Restore,
}

/// Everything the loop owns besides the connections themselves — one
/// value, built once, handed to item processing by `&mut`.
struct LoopState {
    shards: Shards,
    done_tx: mpsc::Sender<Completion>,
    waker: Waker,
    queue_limit: usize,
    /// Scene dimensions (the wall a subscriber's tile grid must divide).
    scene: (usize, usize),
    metrics: LoopMetrics,
    /// Migration routing overrides: sessions living away from their hash
    /// shard. Inserted on migration completion; removed when the session
    /// is closed (a re-created session must fall back to hash routing,
    /// and the table must not grow without bound).
    routes: BTreeMap<SessionId, usize>,
    /// Sessions with a migration in flight. Items targeting one stall in
    /// their connection's inbox until the migration completes (the loop
    /// re-pumps every connection then).
    migrating: BTreeSet<SessionId>,
    /// Set when a migration finished: stalled items (on any connection)
    /// may now proceed, so the loop pumps them all once.
    repump: bool,
    /// The automatic rebalancer: the deterministic policy core (mode,
    /// counters, decision ring); the loop supplies the wall-clock
    /// scheduling around it.
    balancer: Balancer,
    /// A balancer snapshot gather in progress, accumulating one report
    /// per shard before the balancer ticks.
    balance_gather: Option<Vec<ShardReport>>,
    /// The fv-stream subscription registry: who watches which session,
    /// the latest published framebuffer per watched session, and the
    /// stream counters `stats` reports.
    streams: StreamPlane,
    /// The durability plane, when the server runs with a state
    /// directory.
    checkpoints: Option<CheckpointPlane>,
    /// Sessions recovered from checkpoints at boot (`stats` reports it).
    recovered: u64,
    /// Set by a wire `shutdown`.
    stop: bool,
}

impl LoopState {
    /// Submit `op` to `shard`; its reply comes back through the
    /// completion channel addressed to `to`, with the waker poked so the
    /// loop (which never blocks on a shard) notices.
    fn submit(&self, shard: usize, op: ShardOp, to: Waiter) {
        let done = self.done_tx.clone();
        let waker = self.waker.clone();
        self.shards.submit(
            shard,
            op,
            Box::new(move |reply| {
                let _ = done.send(Completion { to, reply });
                waker.wake();
            }),
        );
    }

    /// Submit a run to the shard currently serving `session`.
    fn submit_run(&self, session: SessionId, requests: Vec<Request>, publish: bool, to: Waiter) {
        let shard = self.route(&session);
        let run = ShardOp::Run {
            session,
            requests,
            publish,
        };
        self.submit(shard, run, to);
    }

    /// Forget `session`'s durable state: baseline, in-flight marker, and
    /// the checkpoint file itself. Explicit closes (and a worker
    /// dropping the session after a panicking request) are the only
    /// events that delete a checkpoint — a restart must not resurrect a
    /// session the user closed.
    fn drop_checkpoint(&mut self, session: &SessionId) {
        if let Some(cp) = self.checkpoints.as_mut() {
            cp.clean.remove(session.as_str());
            cp.pending.remove(session.as_str());
            if let Err(e) = cp.store.remove(session) {
                eprintln!("fv-net: removing checkpoint of session {session} failed: {e}");
            }
        }
    }

    /// The shard serving `session`: its migration override if one exists,
    /// its stable hash otherwise.
    fn route(&self, session: &SessionId) -> usize {
        self.routes
            .get(session)
            .copied()
            .unwrap_or_else(|| shard_of(session, self.shards.n_shards()))
    }

    /// Kick off the extract → install migration chain for `session`
    /// (continued by `EventLoop::on_migration`), stalling every other
    /// item that targets the session until the move lands. Running the
    /// chain even when the session already lives on `to` keeps the
    /// existence check (and the reply) uniform.
    fn start_migration(&mut self, asker: Option<u64>, session: &SessionId, to: usize) {
        self.migrating.insert(session.clone());
        let from = self.route(session);
        self.submit(
            from,
            ShardOp::Extract {
                session: session.clone(),
            },
            Waiter::Migration(Migration {
                asker,
                session: session.clone(),
                from,
                to,
                step: MigrationStep::Extract,
            }),
        );
    }

    /// Snapshot every shard for the balancer; the reports come back one
    /// by one to [`LoopState::on_balance_report`].
    fn start_balance_gather(&mut self) {
        let n = self.shards.n_shards();
        self.balance_gather = Some(Vec::with_capacity(n));
        for shard in 0..n {
            self.submit(shard, ShardOp::Report, Waiter::BalanceGather);
        }
    }

    /// One shard's report for the balancer's snapshot gather; the last
    /// one in triggers the tick.
    fn on_balance_report(&mut self, reply: ShardReply) {
        let ShardReply::Report(report) = reply else {
            return;
        };
        let Some(mut reports) = self.balance_gather.take() else {
            return;
        };
        reports.push(report);
        if reports.len() < self.shards.n_shards() {
            self.balance_gather = Some(reports);
            return;
        }
        // The gather the balancer needed is also the checkpoint cadence:
        // the reports carry every session's attempted-request counter,
        // so dirtiness detection costs no extra fan-out and idle
        // sessions cost zero I/O.
        self.checkpoint_dirty_sessions(&reports);
        self.run_balance_tick(reports);
    }

    /// Piggy-back the checkpoint cadence on a completed balance gather:
    /// request a non-destructive [`ShardOp::Snapshot`] for every session
    /// whose attempted-request counter moved since its last durable
    /// checkpoint. Sessions mid-migration are skipped (their shard
    /// fan-out location is in flux; the next gather catches them), as
    /// are sessions with a snapshot already in flight.
    fn checkpoint_dirty_sessions(&mut self, reports: &[ShardReport]) {
        let Some(cp) = self.checkpoints.as_mut() else {
            return;
        };
        let mut dirty = Vec::new();
        for report in reports {
            for s in &report.sessions {
                if cp.pending.contains(&s.name) || cp.clean.get(&s.name) == Some(&s.requests) {
                    continue;
                }
                let Ok(session) = SessionId::new(s.name.clone()) else {
                    continue;
                };
                if self.migrating.contains(&session) {
                    continue;
                }
                cp.pending.insert(s.name.clone());
                dirty.push((report.shard, session));
            }
        }
        for (shard, session) in dirty {
            let snapshot = ShardOp::Snapshot {
                session: session.clone(),
            };
            self.submit(shard, snapshot, Waiter::Checkpoint(session));
        }
    }

    /// A checkpoint snapshot came back: persist the image and advance
    /// the clean baseline. No image (session closed, crashed, or
    /// mid-migration since the report) leaves the last durable
    /// checkpoint standing — only an explicit close deletes one.
    fn on_checkpoint(&mut self, session: SessionId, reply: ShardReply) {
        let Some(cp) = self.checkpoints.as_mut() else {
            return;
        };
        cp.pending.remove(session.as_str());
        if let ShardReply::Image(Some(image)) = reply {
            match cp.store.save(&session, &image) {
                Ok(()) => {
                    cp.clean
                        .insert(session.as_str().to_string(), image.requests);
                }
                Err(e) => eprintln!("fv-net: checkpoint of session {session} failed: {e}"),
            }
        }
    }

    /// A completed balancer snapshot gather: fold the shard reports into
    /// observations, tick the policy, and start every still-valid plan
    /// down the same extract → install → restore-on-failure chain
    /// operator migrations use. Plans that went stale between snapshot
    /// and execution (session migrated, closed, or already moving) are
    /// counted failed and skipped — the balancer must never bounce a
    /// session around on outdated data.
    fn run_balance_tick(&mut self, mut reports: Vec<ShardReport>) {
        reports.sort_by_key(|r| r.shard);
        let depths = self.shards.queue_depths();
        let observations: Vec<ShardObservation> = reports
            .iter()
            .map(|r| ShardObservation {
                shard: r.shard,
                queued: depths.get(r.shard).copied().unwrap_or(0),
                requests_total: r.requests,
                latency: r.latency.clone(),
                sessions: r
                    .sessions
                    .iter()
                    .map(|s| SessionObservation {
                        session: s.name.clone(),
                        requests_total: s.requests,
                        dataset_bytes: s.dataset_bytes,
                        in_flight: SessionId::new(s.name.clone())
                            .map(|id| self.migrating.contains(&id))
                            .unwrap_or(false),
                    })
                    .collect(),
            })
            .collect();
        let plans = self.balancer.tick(&observations);
        for plan in plans {
            let Ok(session) = SessionId::new(plan.session.clone()) else {
                self.balancer.record_outcome(&plan.session, false);
                continue;
            };
            let from = self.route(&session);
            if self.migrating.contains(&session)
                || from != plan.from
                || plan.to == from
                || plan.to >= self.shards.n_shards()
            {
                self.balancer.record_outcome(&plan.session, false);
                continue;
            }
            self.start_migration(None, &session, plan.to);
        }
    }
}

// ── the loop ────────────────────────────────────────────────────────────

/// The connection table plus the loop-wide state. Handlers that touch a
/// connection borrow it from `conns` and pass `&mut self.st` alongside.
struct EventLoop {
    conns: BTreeMap<u64, Conn>,
    next_conn_id: u64,
    st: LoopState,
}

fn event_loop(
    listener: TcpListener,
    config: ServerConfig,
    shards: Shards,
    shared: Arc<Shared>,
    waker_rx: PipeReader,
    checkpoints: Option<CheckpointPlane>,
    recovered: u64,
) {
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut lp = EventLoop {
        conns: BTreeMap::new(),
        next_conn_id: 0,
        st: LoopState {
            shards,
            done_tx,
            waker: shared.waker.clone(),
            queue_limit: config.queue_limit,
            scene: config.scene,
            metrics: LoopMetrics::default(),
            routes: BTreeMap::new(),
            migrating: BTreeSet::new(),
            repump: false,
            balancer: Balancer::new(config.balance, config.balance_cfg),
            balance_gather: None,
            streams: StreamPlane::default(),
            checkpoints,
            recovered,
            stop: false,
        },
    };
    let mut last_balance = Instant::now();
    // Poll must wake often enough to honor the balance interval; a
    // too-small interval must not busy-spin the loop.
    let balance_tick_ms = config.balance_interval.as_millis().clamp(10, 250) as i32;

    while !lp.st.stop && !shared.stop.load(Ordering::SeqCst) {
        // Interest set, rebuilt per iteration: [listener, waker, conns…].
        let ids: Vec<u64> = lp.conns.keys().copied().collect();
        let mut entries = Vec::with_capacity(ids.len() + 2);
        entries.push(PollEntry::new(listener.as_raw_fd(), true, false));
        entries.push(PollEntry::new(waker_rx.as_raw_fd(), REAL_POLL, false));
        for c in lp.conns.values() {
            entries.push(PollEntry::new(
                c.stream.as_raw_fd(),
                c.wants_read(),
                c.wants_write(),
            ));
        }
        // Finite timeout: a bounded safety net under the waker, the tick
        // the portable fallback scans on, and (in auto mode) the
        // heartbeat the balance interval rides on.
        let timeout = if lp.st.balancer.mode == BalanceMode::Auto {
            balance_tick_ms
        } else {
            250
        };
        if poll::wait(&mut entries, timeout).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }

        // Drain the waker before the completion channel. Order matters:
        // consume the pipe byte FIRST, then clear `pending` — a wake
        // racing this window skips its write (pending is still true),
        // but its completion was sent before the wake, so the try_recv
        // below observes it; any wake after the clear writes a fresh
        // byte for the next iteration. Clearing before reading would
        // eat a racing wake's byte while leaving `pending` set,
        // permanently silencing the waker.
        if entries[1].readable || entries[1].hangup {
            let mut sink = [0u8; 4096];
            let _ = (&waker_rx).read(&mut sink);
            shared.waker.clear();
        }
        while let Ok(done) = done_rx.try_recv() {
            lp.on_completion(done);
        }
        if std::mem::take(&mut lp.st.repump) {
            // A migration finished: every connection may hold stalled
            // items, so give each a pump (idle ones no-op cheaply).
            let ids: Vec<u64> = lp.conns.keys().copied().collect();
            for id in ids {
                lp.pump_conn(id);
            }
        }

        // Start a rebalance tick when due: snapshot every shard, then
        // plan once the last report lands. Never while a gather is
        // already in flight, and never while any migration is mid-air —
        // a session in transit is invisible to a shard fan-out, so the
        // snapshot would be wrong (and the planner could double-move).
        // Ticks run in Off mode too (the balancer plans nothing then):
        // keeping the delta baselines fresh means a runtime flip to
        // auto reacts to *current* load, not to hours of accumulated
        // counters.
        if lp.st.balance_gather.is_none()
            && lp.st.migrating.is_empty()
            && last_balance.elapsed() >= config.balance_interval
        {
            last_balance = Instant::now();
            lp.st.start_balance_gather();
        }

        if entries[0].readable || entries[0].hangup {
            lp.accept_all(&listener);
        }
        for (id, e) in ids.iter().zip(&entries[2..]) {
            lp.conn_io(*id, *e);
        }
    }

    // Shutdown: give already-written frames (e.g. the `bye` answering a
    // wire `shutdown`) a bounded chance to flush, then close everything
    // and let the shard workers drain. In-flight run results are
    // abandoned — the sockets are about to close.
    shared.stop.store(true, Ordering::SeqCst);
    drop(listener);
    let EventLoop { mut conns, st, .. } = lp;
    let deadline = Instant::now() + SHUTDOWN_FLUSH_GRACE;
    while Instant::now() < deadline {
        conns.retain(|_, c| c.flush() && c.wants_write());
        if conns.is_empty() {
            break;
        }
        let mut entries: Vec<PollEntry> = conns
            .values()
            .map(|c| PollEntry::new(c.stream.as_raw_fd(), false, true))
            .collect();
        if poll::wait(&mut entries, 50).is_err() {
            break;
        }
    }
    drop(conns);
    // Stop every shard and reclaim it — joins worker threads, and with
    // them reaps child worker processes.
    st.shards.shutdown();
}

impl EventLoop {
    /// Route a shard's reply to whoever was waiting on it.
    fn on_completion(&mut self, done: Completion) {
        let Completion { to, mut reply } = done;
        // Pull the published frame (if the run rendered one) out before
        // the reply settles the requesting connection: the fan-out
        // targets *every* subscriber of the session, not the connection
        // that happened to trigger the run.
        let frame = match &mut reply {
            ShardReply::Run(run) => run.frame.take(),
            _ => None,
        };
        match to {
            Waiter::Conn(id) => {
                let n_conns = self.conns.len();
                if let Some(conn) = self.conns.get_mut(&id) {
                    settle_completion(conn, reply, n_conns, &mut self.st);
                    self.pump_conn(id);
                }
            }
            Waiter::BalanceGather => self.st.on_balance_report(reply),
            Waiter::Checkpoint(session) => self.st.on_checkpoint(session, reply),
            Waiter::Migration(m) => self.on_migration(m, reply),
            // There is no connection waiting — the frame is the whole
            // point.
            Waiter::StreamResync => {}
        }
        if let Some(frame) = frame {
            self.publish_frame(frame);
        }
    }

    /// Advance a migration chain by one shard reply: extract → install,
    /// and on a refused install → restore on the source shard.
    fn on_migration(&mut self, mut m: Migration, reply: ShardReply) {
        let (shard, image) = match (m.step, reply) {
            (MigrationStep::Extract, ShardReply::Image(Some(image))) => {
                m.step = MigrationStep::Install;
                (m.to, image)
            }
            (MigrationStep::Install, ShardReply::Installed(Ok(()))) => {
                return self.finish_migration(m, Ok(()));
            }
            // The target refused (dead shard / occupied name / failed
            // replay): the session was alive before the migration and
            // must stay alive — put the image back where it came from
            // before reporting failure.
            (MigrationStep::Install, ShardReply::Installed(Err((image, _why)))) => {
                m.step = MigrationStep::Restore;
                (m.from, image)
            }
            (MigrationStep::Restore, ShardReply::Installed(restored)) => {
                let refused = ApiError::new(
                    fv_api::ErrorCode::Internal,
                    match restored {
                        Ok(()) => "target shard refused the session; it stays on its current shard",
                        Err(_) => {
                            "target shard refused the session and restoring it failed; the \
                             session was lost"
                        }
                    },
                );
                return self.finish_migration(m, Err(refused));
            }
            // The extract found nothing. (No other pairing can occur:
            // every op has exactly one reply kind.)
            _ => {
                let missing = ApiError::not_found(format!("session {} does not exist", m.session));
                return self.finish_migration(m, Err(missing));
            }
        };
        let install = ShardOp::Install {
            session: m.session.clone(),
            image,
        };
        self.st.submit(shard, install, Waiter::Migration(m));
    }

    /// A migration chain ended. This is a loop event, not a connection
    /// event: the routing table and stall set must update even if the
    /// asking connection hung up mid-migration.
    fn finish_migration(&mut self, m: Migration, result: Result<(), ApiError>) {
        let Migration {
            asker, session, to, ..
        } = m;
        if result.is_ok() {
            if to == shard_of(&session, self.st.shards.n_shards()) {
                self.st.routes.remove(&session);
            } else {
                self.st.routes.insert(session.clone(), to);
            }
            // Subscriptions survive the move: force a keyframe re-sync
            // for every subscriber (their encoders keep counting, so the
            // keyframe lands at the next seq — no gap) and ask the
            // session's *new* shard for a fresh frame via an empty
            // publish run.
            if self.st.streams.has_subscribers(&session) {
                for cid in self.st.streams.subscribers_of(&session) {
                    if let Some(sub) = self.conns.get_mut(&cid).and_then(|c| c.sub.as_mut()) {
                        sub.need_keyframe = true;
                        sub.pending.clear();
                    }
                }
                self.st
                    .submit_run(session.clone(), Vec::new(), true, Waiter::StreamResync);
            }
        }
        self.st.migrating.remove(&session);
        self.st.repump = true;
        let Some(id) = asker else {
            // A policy-initiated move resolved; its session's cooldown
            // started at plan time, so a failure (the restore path) is
            // not retried until it lapses.
            self.st
                .balancer
                .record_outcome(session.as_str(), result.is_ok());
            return;
        };
        if let Some(conn) = self.conns.get_mut(&id) {
            if matches!(conn.inflight, Some(Inflight::Migrate)) {
                conn.inflight = None;
                match result {
                    Ok(()) => conn.push_ok(
                        &format!("migrated {session} shard={to}"),
                        &mut self.st.metrics,
                    ),
                    Err(e) => conn.push_err(&e, &mut self.st.metrics),
                }
            }
        }
    }

    /// Let a connection make progress: answer what it has queued, hand
    /// its subscriber any deferred frames, flush, and drop it if that
    /// finished it (or the transport died).
    fn pump_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        pump(conn, id, &mut self.st);
        service_stream(conn, &mut self.st.streams);
        if !conn.flush() || conn.finished() {
            self.drop_conn(id);
        }
    }

    fn accept_all(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.conns.insert(self.next_conn_id, Conn::new(stream));
                    self.next_conn_id += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    // A peer that reset before we accepted costs nothing
                    // but its own slot; keep accepting.
                    continue;
                }
                Err(_) => {
                    // EMFILE/ENFILE and friends are load conditions, not
                    // reasons to drop every live session. Stop this
                    // accept burst and back off briefly so a persistent
                    // condition cannot spin the loop (the listener stays
                    // level-triggered readable).
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    /// Service one connection's readiness: flush, then read and pump.
    fn conn_io(&mut self, id: u64, e: PollEntry) {
        if !(e.readable || e.writable || e.hangup) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut alive = true;
        if e.writable || e.hangup {
            alive = conn.flush();
            if alive {
                // The outbox just drained: a backlogged subscriber
                // waiting on a drop-to-keyframe re-sync can have it now.
                service_stream(conn, &mut self.st.streams);
                alive = conn.flush();
            }
        }
        if alive && (e.readable || e.hangup) && conn.wants_read() {
            if read_conn(conn, &mut self.st) {
                return self.pump_conn(id);
            }
            alive = false;
        }
        if !alive || conn.finished() {
            self.drop_conn(id);
        }
    }

    /// Fan a freshly rendered wall frame out to every subscriber of its
    /// session: retain the framebuffer (keyframes and coalesced deltas are
    /// cut from it at drain time), fold the run's damage into each
    /// subscriber's pending set — or drop-to-keyframe a backlogged one — and
    /// drain whoever has room.
    fn publish_frame(&mut self, frame: PubFrame) {
        let streams = &mut self.st.streams;
        let PubFrame {
            session,
            wall,
            damage,
        } = frame;
        let fb = Rc::new(wall);
        let subs = match streams.session_mut(&session) {
            // Every subscriber left between dispatch and completion.
            None => return,
            Some(entry) => {
                entry.last = Some(Rc::clone(&fb));
                entry.subscribers.iter().copied().collect::<Vec<u64>>()
            }
        };
        let mut dead = Vec::new();
        for cid in subs {
            let Some(conn) = self.conns.get_mut(&cid) else {
                continue;
            };
            let backlogged = conn.out_pending() >= OUTBOX_HIGH_WATER;
            if let Some(sub) = conn.sub.as_mut() {
                if backlogged || sub.ack_lagging() {
                    // Never queue behind a slow peer: forget the deltas and
                    // re-sync from a keyframe once the outbox drains.
                    if !sub.need_keyframe {
                        sub.need_keyframe = true;
                        sub.pending.clear();
                        streams.metrics.dropped += 1;
                    }
                } else if !sub.need_keyframe {
                    for (tile, rect) in tile_damage(sub.encoder.grid(), &damage) {
                        match sub.pending.entry(tile) {
                            std::collections::btree_map::Entry::Vacant(v) => {
                                v.insert(rect);
                            }
                            std::collections::btree_map::Entry::Occupied(mut o) => {
                                // Two updates to one tile collapse into one
                                // bounding rect — the retained framebuffer
                                // already contains both, so nothing is lost.
                                let merged = union_rect(o.get(), &rect);
                                o.insert(merged);
                                streams.metrics.coalesced += 1;
                            }
                        }
                    }
                }
            }
            drain_stream(conn, &fb, streams);
            if !conn.flush() || conn.finished() {
                dead.push(cid);
            }
        }
        for cid in dead {
            self.drop_conn(cid);
        }
    }

    /// Remove a connection, deregistering its subscription — every removal
    /// site must go through here or the registry leaks dead subscriber ids.
    /// A connection that still owed work (queued or in-flight requests, or
    /// unflushed response bytes) counts as a dirty disconnect; a graceful
    /// EOF after every reply drained does not.
    fn drop_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            if conn.queued_requests > 0
                || conn.inflight.is_some()
                || !conn.inbox.is_empty()
                || conn.out_pending() > 0
            {
                self.st.metrics.dirty_disconnects += 1;
            }
            if let Some(sub) = conn.sub {
                self.st.streams.unsubscribe(&sub.session, id);
            }
        }
    }
}

/// Pull every readable byte (bounded per iteration for fairness across
/// connections) and parse complete lines into inbox items. `false` on a
/// dead transport.
fn read_conn(conn: &mut Conn, st: &mut LoopState) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut budget = 4;
    while budget > 0 && !conn.eof {
        match conn.stream.read(&mut chunk) {
            Ok(0) => conn.eof = true,
            Ok(n) => {
                conn.frames.feed(&chunk[..n]);
                budget -= 1;
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    while let Some(next) = conn.frames.next_line() {
        let item = match next {
            Err(LineFault::TooLong) => {
                st.metrics.frames_in += 1;
                st.metrics.garbage_frames += 1;
                Item::Reject(ApiError::invalid(format!(
                    "request line exceeds {MAX_LINE} bytes; the rest of the line was discarded"
                )))
            }
            Err(LineFault::BadUtf8) => {
                st.metrics.frames_in += 1;
                st.metrics.garbage_frames += 1;
                Item::Reject(ApiError::invalid("request line is not valid UTF-8"))
            }
            Ok(line) => match fv_api::parse_wire_line(&line) {
                Ok(None) => continue,
                Err(e) => {
                    st.metrics.frames_in += 1;
                    Item::Reject(e)
                }
                Ok(Some(wire)) => {
                    st.metrics.frames_in += 1;
                    match wire {
                        WireItem::Script(ScriptItem::Request(request)) => {
                            if conn.pending_requests() >= st.queue_limit {
                                st.metrics.busy_rejections += 1;
                                Item::Reject(ApiError::busy(format!(
                                    "pending request queue is full ({} pending, limit {}); \
                                     the request was not executed",
                                    conn.pending_requests(),
                                    st.queue_limit
                                )))
                            } else {
                                conn.queued_requests += 1;
                                Item::Request(request)
                            }
                        }
                        WireItem::Script(ScriptItem::Use(name)) => match SessionId::new(name) {
                            Ok(id) => Item::Use(id),
                            Err(e) => Item::Reject(e),
                        },
                        WireItem::Script(ScriptItem::Close(name)) => match SessionId::new(name) {
                            Ok(id) => Item::CloseNamed(id),
                            Err(e) => Item::Reject(e),
                        },
                        WireItem::Migrate { session, shard } => {
                            let n = st.shards.n_shards();
                            if shard >= n {
                                Item::Reject(ApiError::invalid(format!(
                                    "shard {shard} out of range (server has {n})"
                                )))
                            } else {
                                match SessionId::new(session) {
                                    Ok(id) => Item::Migrate(id, shard),
                                    Err(e) => Item::Reject(e),
                                }
                            }
                        }
                        WireItem::Subscribe {
                            session,
                            tiles_x,
                            tiles_y,
                        } => match SessionId::new(session) {
                            Ok(id) => Item::Subscribe(id, tiles_x, tiles_y),
                            Err(e) => Item::Reject(e),
                        },
                        WireItem::Unsubscribe => Item::Unsubscribe,
                        WireItem::Ack { seq } => Item::Ack(seq),
                        WireItem::Ping => Item::Ping,
                        WireItem::Close => Item::Close,
                        WireItem::Balance { set } => Item::Balance(set),
                        WireItem::Stats => Item::Gather(Gather::Stats),
                        WireItem::ListSessions => Item::Gather(Gather::Sessions),
                        WireItem::Shutdown => Item::Shutdown,
                    }
                }
            },
        };
        conn.inbox.push_back(item);
    }
    true
}
/// Answer inbox items in arrival order until one needs shard work (at
/// most one dispatch in flight per connection), the front item targets a
/// session whose migration is in flight (the loop re-pumps every
/// connection when a migration completes), or the inbox is empty.
fn pump(conn: &mut Conn, id: u64, st: &mut LoopState) {
    while conn.inflight.is_none() {
        // Stall checks peek the front; only when the item may proceed is
        // it popped (once) and matched by value — no peek/pop pairing to
        // keep in sync.
        let Some(front) = conn.inbox.front() else {
            break;
        };
        if let Some(target) = front.target_session(&conn.session) {
            if st.migrating.contains(target) {
                break;
            }
        }
        if matches!(front, Item::Gather(_)) && !st.migrating.is_empty() {
            // A session mid-migration lives in neither shard's hub (its
            // engine is in transit between Extract and Install), so a
            // fan-out now could miss it. Stall until every move lands —
            // migrations complete promptly, and the loop re-pumps all
            // connections when one does.
            break;
        }
        let Some(item) = conn.inbox.pop_front() else {
            break;
        };
        match item {
            Item::Request(first) => {
                // Everything the client has pipelined for the current
                // session becomes one run — one shard hop server-side.
                let mut requests = vec![first];
                while matches!(conn.inbox.front(), Some(Item::Request(_))) {
                    if let Some(Item::Request(r)) = conn.inbox.pop_front() {
                        requests.push(r);
                    }
                }
                conn.queued_requests -= requests.len();
                conn.inflight_requests = requests.len();
                conn.inflight = Some(Inflight::Run { ack: None });
                // Runs on a watched session come back with a rendered
                // wall frame for the fan-out; unwatched runs skip the
                // render entirely.
                let publish = st.streams.has_subscribers(&conn.session);
                st.submit_run(conn.session.clone(), requests, publish, Waiter::Conn(id));
            }
            Item::Use(session) => {
                // Materialize eagerly (the `use` semantics) on the owning
                // shard; the ack frame waits for the empty run so later
                // requests cannot outrun the materialization.
                conn.inflight_requests = 0;
                conn.inflight = Some(Inflight::Run {
                    ack: Some(format!("using {session}")),
                });
                st.submit_run(session.clone(), Vec::new(), false, Waiter::Conn(id));
                conn.session = session;
            }
            Item::Ping => {
                conn.push_ok("pong", &mut st.metrics);
            }
            Item::Balance(set) => {
                // Answered from loop state — no shard round trip, so a
                // `balance` line never stalls behind engine work.
                let reply = match set {
                    None => format_balance(&st.balancer.status()),
                    Some(mode) => {
                        st.balancer.mode = mode;
                        format!("balance mode={mode}")
                    }
                };
                conn.push_ok(&reply, &mut st.metrics);
            }
            Item::Reject(e) => {
                conn.push_err(&e, &mut st.metrics);
            }
            Item::Subscribe(session, tiles_x, tiles_y) => {
                let (sw, sh) = st.scene;
                if sw % tiles_x != 0 || sh % tiles_y != 0 {
                    conn.push_err(
                        &ApiError::invalid(format!(
                            "tile grid {tiles_x}x{tiles_y} does not divide the {sw}x{sh} scene \
                             evenly"
                        )),
                        &mut st.metrics,
                    );
                    continue;
                }
                // Re-subscribing replaces the old subscription (possibly
                // of a different session) wholesale: fresh encoder, fresh
                // keyframe.
                if let Some(old) = conn.sub.take() {
                    st.streams.unsubscribe(&old.session, id);
                }
                let grid = TileGrid::new(tiles_x, tiles_y, sw / tiles_x, sh / tiles_y);
                st.streams.subscribe(session.clone(), id);
                conn.sub = Some(SubState::new(session.clone(), grid));
                // Ack NOW — binary tile frames may enter the outbox as
                // soon as this pump returns (a retained frame services
                // the keyframe immediately), and the text ack must
                // precede them. Then materialize the session and render
                // via an empty *published* run on the owning shard.
                conn.push_ok(
                    &format!("subscribed {session} {tiles_x}x{tiles_y} {sw}x{sh}"),
                    &mut st.metrics,
                );
                conn.inflight_requests = 0;
                conn.inflight = Some(Inflight::Run { ack: None });
                st.submit_run(session, Vec::new(), true, Waiter::Conn(id));
            }
            Item::Unsubscribe => {
                match conn.sub.take() {
                    Some(sub) => {
                        st.streams.unsubscribe(&sub.session, id);
                        conn.push_ok(&format!("unsubscribed {}", sub.session), &mut st.metrics);
                    }
                    // Idempotent: unsubscribing a non-subscriber is fine.
                    None => conn.push_ok("unsubscribed", &mut st.metrics),
                }
            }
            Item::Ack(seq) => {
                if let Some(sub) = conn.sub.as_mut() {
                    sub.last_ack = Some(sub.last_ack.map_or(seq, |a| a.max(seq)));
                }
                // No reply: acks pace the stream; answering them would
                // interleave text frames into the binary tile stream.
            }
            Item::Close | Item::CloseNamed(_) => {
                // Bare `close` drops the connection's current session and
                // falls back to the default; the named form leaves the
                // connection's session pointer alone.
                let closed = match item {
                    Item::CloseNamed(closed) => closed,
                    _ => std::mem::replace(&mut conn.session, EngineHub::default_session()),
                };
                conn.inflight = Some(Inflight::Close {
                    closed: closed.clone(),
                });
                let shard = st.route(&closed);
                // The closed session's routing override dies with it: a
                // re-created session of the same name must fall back to
                // hash routing, and the override table must not grow
                // without bound.
                st.routes.remove(&closed);
                // An explicit close is what deletes durable state: the
                // client said the session is over, so a restart must
                // not bring it back.
                st.drop_checkpoint(&closed);
                st.submit(shard, ShardOp::Close { session: closed }, Waiter::Conn(id));
            }
            Item::Migrate(session, to) => {
                conn.inflight = Some(Inflight::Migrate);
                st.start_migration(Some(id), &session, to);
            }
            Item::Gather(what) => {
                // The migration stall was checked before the pop.
                conn.inflight = Some(Inflight::Gather {
                    what,
                    reports: Vec::new(),
                });
                for shard in 0..st.shards.n_shards() {
                    st.submit(shard, ShardOp::Report, Waiter::Conn(id));
                }
            }
            Item::Shutdown => {
                conn.inbox.clear();
                conn.queued_requests = 0;
                conn.push_ok("bye", &mut st.metrics);
                st.stop = true;
                break;
            }
        }
    }
}

/// Fold a shard result into the connection that was waiting on it,
/// writing whatever frames it resolves.
fn settle_completion(conn: &mut Conn, reply: ShardReply, n_conns: usize, st: &mut LoopState) {
    match (conn.inflight.take(), reply) {
        (Some(Inflight::Run { ack: Some(ack) }), ShardReply::Run(_)) => {
            conn.push_ok(&ack, &mut st.metrics);
        }
        (Some(Inflight::Run { ack: None }), ShardReply::Run(done)) => {
            if done.session_dropped {
                // The worker dropped the session (a request panicked);
                // its routing override dies with it, exactly as on a
                // `close`. The run targeted conn.session — a connection
                // has one dispatch in flight and `use` items only pump
                // while idle, so the pointer still names the run's
                // session.
                st.routes.remove(&conn.session);
                st.drop_checkpoint(&conn.session);
            }
            let outcome = done.outcome;
            let n = conn.inflight_requests;
            for response in &outcome.responses {
                conn.push_ok(&fv_api::format_response(response), &mut st.metrics);
            }
            if let Some((idx, e)) = outcome.error {
                conn.push_err(&e, &mut st.metrics);
                let skipped = ApiError::invalid(format!(
                    "skipped: request {} earlier in this pipelined run failed ({})",
                    idx + 1,
                    e.code.as_str()
                ));
                for _ in idx + 1..n {
                    conn.push_err(&skipped, &mut st.metrics);
                }
            }
            conn.inflight_requests = 0;
        }
        (Some(Inflight::Close { closed }), ShardReply::Closed(_existed)) => {
            conn.push_ok(&format!("closed {closed}"), &mut st.metrics);
        }
        (Some(Inflight::Gather { what, mut reports }), ShardReply::Report(report)) => {
            reports.push(report);
            if reports.len() < st.shards.n_shards() {
                conn.inflight = Some(Inflight::Gather { what, reports });
            } else {
                reports.sort_by_key(|r| r.shard);
                let reply = match what {
                    Gather::Sessions => sessions_reply(&reports),
                    Gather::Stats => stats_reply(&reports, n_conns, st),
                };
                conn.push_ok(&reply, &mut st.metrics);
            }
        }
        // A completion with no (or the wrong) inflight record means the
        // connection was recycled; drop the result, restore nothing.
        (other, _) => conn.inflight = other,
    }
}

/// Merge per-shard session listings into the canonical name-sorted
/// `list-sessions` reply.
fn sessions_reply(reports: &[ShardReport]) -> String {
    let mut entries: Vec<fv_api::SessionEntry> = reports
        .iter()
        .flat_map(|r| {
            r.sessions.iter().map(|s| fv_api::SessionEntry {
                name: s.name.clone(),
                shard: r.shard,
                n_datasets: s.n_datasets,
            })
        })
        .collect();
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    fv_api::format_sessions_reply(&entries)
}

/// Merge per-shard reports with the loop's own counters and the shared
/// cache's gauges into the `stats` reply.
fn stats_reply(reports: &[ShardReport], n_conns: usize, st: &LoopState) -> String {
    let depths = st.shards.queue_depths();
    let cache = st.shards.cache_stats();
    let pids = st.shards.pids();
    let shards: Vec<ShardStats> = reports
        .iter()
        .map(|r| ShardStats {
            shard: r.shard,
            pid: pids.get(r.shard).copied().unwrap_or(0),
            sessions: r.sessions.len(),
            queued: depths.get(r.shard).copied().unwrap_or(0),
            runs: r.runs,
            requests: r.requests,
            max_run: r.max_run,
            latency: r.latency.clone(),
        })
        .collect();
    let stats = ServerStats {
        backend: st.shards.kind().to_string(),
        connections: n_conns,
        sessions: shards.iter().map(|s| s.sessions).sum(),
        // The stats frame itself is about to be written; count it so the
        // reply is self-consistent (frames_out includes this frame).
        frames_in: st.metrics.frames_in,
        frames_out: st.metrics.frames_out + 1,
        busy_rejections: st.metrics.busy_rejections,
        garbage_frames: st.metrics.garbage_frames,
        dirty_disconnects: st.metrics.dirty_disconnects,
        runs: shards.iter().map(|s| s.runs).sum(),
        requests: shards.iter().map(|s| s.requests).sum(),
        max_run: shards.iter().map(|s| s.max_run).max().unwrap_or(0),
        cache_entries: cache.entries,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        balancer_ticks: st.balancer.ticks(),
        balancer_moves: st.balancer.counters().1,
        balancer_failed: st.balancer.counters().2,
        recovered: st.recovered,
        stream: {
            let m = st.streams.metrics;
            StreamStats {
                subscribers: st.streams.n_subscribers(),
                frames: m.frames,
                bytes: m.bytes,
                pixels: m.pixels,
                coalesced: m.coalesced,
                dropped: m.dropped,
                // What shipping those frames would cost on the wall's
                // gigabit interconnect — bytes-shipped priced against
                // pixels-painted, the paper's distribution-cost axis.
                link_us: fv_wall::net::NetworkModel::gigabit()
                    .frame_time(m.frames as usize, m.bytes as usize, 1)
                    .as_micros() as u64,
            }
        },
        shards,
    };
    crate::metrics::format_stats(&stats)
}
// ── fv-stream fan-out ───────────────────────────────────────────────────

/// Encode whatever the subscriber is owed — a keyframe if one is due,
/// otherwise its coalesced pending deltas — into its outbox. A
/// backlogged outbox defers everything (the pending set keeps
/// coalescing; `service_stream` retries when it drains).
fn drain_stream(conn: &mut Conn, fb: &Framebuffer, streams: &mut StreamPlane) {
    if conn.out_pending() >= OUTBOX_HIGH_WATER {
        return;
    }
    let frames = match conn.sub.as_mut() {
        None => return,
        Some(sub) => {
            if sub.ack_lagging() {
                // A self-pacing subscriber that has not caught up gets
                // nothing new; the ack that catches it up is followed by
                // a `service_stream` call that resumes the stream.
                return;
            }
            if sub.need_keyframe {
                sub.pending.clear();
                sub.need_keyframe = false;
                sub.encoder.keyframe(fb)
            } else if !sub.pending.is_empty() {
                let tiles: Vec<_> = std::mem::take(&mut sub.pending).into_iter().collect();
                sub.encoder.delta(fb, &tiles)
            } else {
                return;
            }
        }
    };
    for f in &frames {
        streams.metrics.frames += 1;
        streams.metrics.bytes += f.encoded_len() as u64;
        streams.metrics.pixels += f.rect.area() as u64;
        f.encode_into(&mut conn.out);
    }
}

/// Give a subscriber its deferred frames (keyframe re-sync or pending
/// deltas) from the session's retained framebuffer, if there is one.
fn service_stream(conn: &mut Conn, streams: &mut StreamPlane) {
    let Some(session) = conn.sub.as_ref().map(|s| s.session.clone()) else {
        return;
    };
    let Some(fb) = streams.last_frame(&session) else {
        return;
    };
    drain_stream(conn, &fb, streams);
}
