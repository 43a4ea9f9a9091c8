//! The protocol core: every decision the server makes, with no socket
//! and no clock in sight (what the decisions guarantee — ordering,
//! batching, backpressure — is the crate-level list).
//!
//! [`Core`] owns the connection table (framing buffers, inboxes,
//! outboxes, subscriptions — everything but the sockets) and the
//! loop-wide [`LoopState`], and advances on exactly four kinds of input:
//!
//! - **bytes** — [`Core::open`], [`Core::ingest`], [`Core::hangup`] (the
//!   peer's EOF), [`Core::close`] (the transport died, or the connection
//!   finished);
//! - **replies** — [`Core::on_completion`]: everything the core asks of
//!   a shard is a [`ShardOp`] submitted with a [`Waiter`] naming who
//!   wants the answer, the [`ShardReply`] comes back as a
//!   [`Completion`], and one `match` on the waiter routes it;
//! - **ticks** — [`Core::tick`], "one balance interval elapsed";
//! - **drain reports** — [`Core::wrote`], "the transport took `n` bytes".
//!
//! It produces only outbox bytes ([`Conn::outbox`]) and shard
//! submissions, and touches no disk (on a durable server the shards
//! save what they serve). The IO shell (`crate::server`) turns
//! readiness into those inputs and runs its write pass over
//! [`Core::take_touched`] after each. The tests do the same over *parked* shards, whose every
//! `serve` and `deliver` is the test's to order: by hand below, by one
//! seeded loop over whole worlds in `protocol/server_sim.rs` (steps,
//! invariants, re-running a seed: `crates/net/README.md`).

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use crate::balance::{format_balance, Balancer};
use crate::frame::{push_err_frame, push_ok_frame, FrameBuf, LineFault, MAX_LINE};
use crate::metrics::{ServerStats, ShardStats, StreamStats};
use crate::server::{ServerConfig, Waker};
use crate::shard::{shard_of, PubFrame, ShardOp, ShardReply, ShardReport, Shards};
use crate::stream::{StreamPlane, SubState};
use crate::BalanceMode;
use fv_api::codec::ScriptItem;
use fv_api::{ApiError, EngineHub, Request, SessionId, SessionStore, WireItem};
use fv_render::Framebuffer;
use fv_wall::stream::tile_damage;
use fv_wall::tile::TileGrid;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::mpsc;

/// Stop reading a connection whose un-flushed outbox exceeds this many
/// bytes; reads resume once the peer drains its responses.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// Stop reading a connection with this many parsed-but-unanswered wire
/// items (mostly `E_BUSY` rejects waiting behind an in-flight run).
const INBOX_HIGH_WATER: usize = 1024;

// ── connection state ────────────────────────────────────────────────────

/// The shard work a connection is waiting on (at most one at a time —
/// that is what keeps per-connection response order equal to request
/// order).
enum Inflight {
    /// A dispatched request run, answered with its responses — or the
    /// empty run a `use` or `subscribe` materializes its session with,
    /// answered at dispatch: holding the connection on it keeps later
    /// requests from outrunning the materialization.
    Run,
    /// A dispatched migration or close (see [`Migration`]); answered
    /// `migrated <name> shard=<to>` or `closed <name>`.
    Migrate,
    /// A `stats` (else `list-sessions`) fan-out collecting one report
    /// per shard.
    Gather {
        stats: bool,
        reports: Vec<ShardReport>,
    },
}

/// One connection, minus its socket: the shell reads it only through
/// the `pub` queries below.
pub(crate) struct Conn {
    frames: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    session: SessionId,
    /// Parsed wire lines awaiting their answers, in arrival order.
    /// Rejects (parse faults, `E_BUSY` overruns) are pre-resolved but
    /// still queue, so every line's frame goes out in request order.
    inbox: VecDeque<Result<WireItem, ApiError>>,
    /// Requests currently in `inbox`.
    queued_requests: usize,
    inflight: Option<Inflight>,
    /// Requests in the dispatched run (for the pending-queue bound).
    inflight_requests: usize,
    /// The connection's fv-stream subscription, if it sent `subscribe`.
    sub: Option<SubState>,
    /// Read side saw EOF; the connection drains and closes gracefully.
    eof: bool,
}

impl Conn {
    fn new() -> Conn {
        Conn {
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

    /// The bytes the transport still owes the peer.
    pub fn outbox(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    pub fn wants_read(&self) -> bool {
        !self.eof && self.out_pending() < OUTBOX_HIGH_WATER && self.inbox.len() < INBOX_HIGH_WATER
    }

    pub fn wants_write(&self) -> bool {
        self.out_pending() > 0
    }

    /// Fully answered and hung up: safe to drop.
    pub fn finished(&self) -> bool {
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
}

#[derive(Default)]
struct LoopMetrics {
    frames_in: u64,
    frames_out: u64,
    busy_rejections: u64,
    /// Framing faults (oversized / non-UTF-8 lines) accepted and answered
    /// with a typed `err` — the simulation's scripts drive this.
    garbage_frames: u64,
    /// Connections dropped with unanswered work still pending (queued,
    /// in flight, or unflushed responses); clean closes don't count.
    dirty_disconnects: u64,
}

/// Boot-time crash recovery: sweep and scan the store, and re-install
/// every readable checkpoint on its hash shard through `call` (the
/// blocking [`Shards::call`]: no loop exists yet). Install refusals
/// (occupied name, failed replay, `E_STALE_IMAGE` from a dataset that
/// changed on disk) and corrupt checkpoint files are warnings — recovery
/// recovers what it can and reports the rest. Returns how many sessions
/// came back (`stats`' `recovered=`).
pub(crate) fn recover_sessions(
    store: &SessionStore,
    n_shards: usize,
    mut call: impl FnMut(usize, ShardOp) -> Option<ShardReply>,
) -> Result<u64, ApiError> {
    let scan = store.scan()?;
    for (path, why) in &scan.corrupt {
        eprintln!(
            "fv-net: skipping unrecoverable checkpoint {}: {why}",
            path.display()
        );
    }
    let mut recovered = 0;
    for (session, image) in scan.sessions {
        let shard = shard_of(&session, n_shards);
        let install = ShardOp::Install {
            session: session.clone(),
            image,
        };
        match call(shard, install) {
            Some(ShardReply::Installed(Ok(()))) => recovered += 1,
            Some(ShardReply::Installed(Err(why))) => {
                eprintln!("fv-net: not recovering session {session}: {why}")
            }
            _ => eprintln!("fv-net: shard {shard} went away while recovering session {session}"),
        }
    }
    Ok(recovered)
}

/// A shard's answer on its way back to the core, addressed to whoever
/// asked.
pub(crate) struct Completion {
    to: Waiter,
    reply: ShardReply,
}

/// Who a submitted [`ShardOp`] is for. Connections have at most one op
/// in flight; everything else is the core's own business and must
/// resolve even if the connection that triggered it is long gone.
#[cfg_attr(test, derive(Debug))]
enum Waiter {
    /// The connection's one dispatched item (see [`Inflight`]).
    Conn(u64),
    /// One shard's report toward the balancer's snapshot gather; the
    /// last one in triggers the policy tick.
    BalanceGather,
    /// The empty publish run submitted after a watched session migrates:
    /// its only purpose is the fresh framebuffer that re-syncs every
    /// subscriber with a keyframe on the new shard, so no connection
    /// settles it.
    StreamResync,
    /// The current step of a migration chain.
    Migration(Migration),
}

/// A migration in flight — copy, confirm, delete: snapshot on `from`,
/// install on `to`, close on `from`. Until the close the session is
/// untouched where it was, so a failure at any step simply ends the
/// chain. A session `close` is a move to nowhere: its chain is the last
/// step alone. The core drives it one shard reply at a time (each step's
/// op has a reply kind of its own, so the reply says which step it
/// ends), and routing tables, the stall set and the session's end update
/// in one place no matter who asked or whether they are still connected.
#[cfg_attr(test, derive(Debug))]
struct Migration {
    /// The connection to answer, or `None` for a balancer-planned move.
    asker: Option<u64>,
    session: SessionId,
    from: usize,
    /// The target shard; `None` for a close.
    to: Option<usize>,
}

/// Everything the core owns besides the connections themselves — one
/// value, built once, handed to item processing by `&mut`.
struct LoopState {
    shards: Shards,
    done_tx: mpsc::Sender<Completion>,
    waker: Waker,
    /// Ops submitted whose [`Completion`] has not been handled yet —
    /// what a test's settle loop blocks on.
    in_flight: usize,
    queue_limit: usize,
    /// Scene dimensions (the wall a subscriber's tile grid must divide).
    scene: (usize, usize),
    metrics: LoopMetrics,
    /// Migration routing overrides: sessions living away from their hash
    /// shard. Inserted on migration completion; removed when the session
    /// ends (a re-created session must fall back to hash routing, and the
    /// table must not grow without bound).
    routes: BTreeMap<SessionId, usize>,
    /// Sessions with a migration or close in flight, by name, with the
    /// chain's target (`None` for a close). Items targeting one stall in
    /// their connection's inbox until the chain completes (the core
    /// re-pumps every connection then).
    moving: BTreeMap<String, Option<usize>>,
    /// The automatic rebalancer: the deterministic policy core (mode,
    /// counters, decision ring); the shell supplies the wall-clock
    /// scheduling around it ([`Core::tick`]).
    balancer: Balancer,
    /// A balancer snapshot gather in progress, accumulating one report
    /// per shard before the balancer ticks.
    balance_gather: Option<Vec<ShardReport>>,
    /// The fv-stream subscription registry: who watches which session,
    /// the latest published framebuffer per watched session, and the
    /// stream counters `stats` reports.
    streams: StreamPlane,
    /// Sessions re-installed from the state directory at boot.
    recovered: u64,
    /// Set by a wire `shutdown`.
    stop: bool,
}

impl LoopState {
    /// Submit `op` to `shard`; its reply comes back through the
    /// completion channel addressed to `to`, with the waker poked so the
    /// shell (which never blocks on a shard) notices.
    fn submit(&mut self, shard: usize, op: ShardOp, to: Waiter) {
        self.in_flight += 1;
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
    fn submit_run(
        &mut self,
        session: SessionId,
        requests: Vec<Request>,
        publish: bool,
        to: Waiter,
    ) {
        let shard = self.route(&session);
        let run = ShardOp::Run {
            session,
            requests,
            publish,
        };
        self.submit(shard, run, to);
    }

    /// The shard serving `session`: its migration override if one exists,
    /// its stable hash otherwise.
    fn route(&self, session: &SessionId) -> usize {
        self.routes
            .get(session)
            .copied()
            .unwrap_or_else(|| shard_of(session, self.shards.n_shards()))
    }

    /// Whether `item` must wait at the front of its inbox: it would
    /// dispatch shard work against a session whose migration or close is
    /// in flight (`current` being the connection's session), or it is a
    /// fan-out while any is — a session mid-migration may live in both
    /// shards' hubs (installed on the target, not yet closed on the
    /// source), so a `stats` / `list-sessions` now could count it twice.
    /// Chains complete promptly, and the core re-pumps every connection
    /// when one does.
    fn stalls(&self, item: &WireItem, current: &SessionId) -> bool {
        let target = match item {
            WireItem::Script(ScriptItem::Request(_)) | WireItem::Close => current.as_str(),
            WireItem::Script(ScriptItem::Use(s) | ScriptItem::Close(s)) => s,
            // A subscribe materializes (and keyframe-renders) its session.
            WireItem::Migrate { session, .. } | WireItem::Subscribe { session, .. } => session,
            WireItem::Stats | WireItem::ListSessions => return !self.moving.is_empty(),
            WireItem::Ping
            | WireItem::Balance { .. }
            | WireItem::Unsubscribe
            | WireItem::Ack { .. }
            | WireItem::Shutdown => return false,
        };
        self.moving.contains_key(target)
    }

    /// Kick off the snapshot → install → close migration chain for
    /// `session`, or with no target its close alone (continued by
    /// [`Core::on_migration`]), stalling every other item that targets
    /// the session until the chain lands. The snapshot runs even when
    /// the session already lives on `to`: it is the existence check, so
    /// the reply stays uniform.
    fn start_migration(&mut self, asker: Option<u64>, session: SessionId, to: Option<usize>) {
        self.moving.insert(session.to_string(), to);
        let from = self.route(&session);
        let op = match to {
            Some(_) => ShardOp::Snapshot {
                session: session.clone(),
            },
            None => ShardOp::Close {
                session: session.clone(),
                end: true,
            },
        };
        let m = Migration {
            asker,
            session,
            from,
            to,
        };
        self.submit(from, op, Waiter::Migration(m));
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
        self.run_balance_tick(reports);
    }

    /// A completed balancer snapshot gather: tick the policy on the shard
    /// reports as they are, and start every still-valid plan
    /// down the same snapshot → install → close chain operator
    /// migrations use. Plans that went stale between snapshot
    /// and execution (session migrated, closed, or already moving) are
    /// counted failed and skipped — the balancer must never bounce a
    /// session around on outdated data.
    fn run_balance_tick(&mut self, mut reports: Vec<ShardReport>) {
        reports.sort_by_key(|r| r.shard);
        let queued = self.shards.queue_depths();
        let moving = &self.moving;
        let plans = self
            .balancer
            .tick(&reports, &queued, |name| moving.contains_key(name));
        for plan in plans {
            let Ok(session) = SessionId::new(plan.session.clone()) else {
                self.balancer.record_outcome(&plan.session, false);
                continue;
            };
            let from = self.route(&session);
            if self.moving.contains_key(&plan.session)
                || from != plan.from
                || plan.to == from
                || plan.to >= self.shards.n_shards()
            {
                self.balancer.record_outcome(&plan.session, false);
                continue;
            }
            self.start_migration(None, session, Some(plan.to));
        }
    }
}

// ── the core ────────────────────────────────────────────────────────────

/// The connection table plus the loop-wide state. Handlers that touch a
/// connection borrow it from `conns` and pass `&mut self.st` alongside.
pub(crate) struct Core {
    conns: BTreeMap<u64, Conn>,
    next_conn_id: u64,
    st: LoopState,
    /// Connections a handled input may have given bytes to write or
    /// finished, in handling order — the shell's write pass drains it
    /// after each input.
    touched: Vec<u64>,
}

impl Core {
    /// A core over `shards`, plus the receiver its completions arrive
    /// on: every submitted op sends its [`Completion`] there and pokes
    /// `waker`. Built on the thread that will drive it (the stream plane
    /// shares framebuffers by `Rc`).
    pub fn new(
        config: &ServerConfig,
        shards: Shards,
        waker: Waker,
        recovered: u64,
    ) -> (Core, mpsc::Receiver<Completion>) {
        let (done_tx, done_rx) = mpsc::channel();
        let core = Core {
            conns: BTreeMap::new(),
            next_conn_id: 0,
            st: LoopState {
                shards,
                done_tx,
                waker,
                in_flight: 0,
                queue_limit: config.queue_limit,
                scene: config.scene,
                metrics: LoopMetrics::default(),
                routes: BTreeMap::new(),
                moving: BTreeMap::new(),
                balancer: Balancer::new(config.balance, config.balance_cfg),
                balance_gather: None,
                streams: StreamPlane::default(),
                recovered,
                stop: false,
            },
            touched: Vec::new(),
        };
        (core, done_rx)
    }

    /// The connection table, for the shell's interest set and queries.
    pub fn conns(&self) -> &BTreeMap<u64, Conn> {
        &self.conns
    }

    /// Connections touched since the last call (see `touched`).
    pub fn take_touched(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.touched)
    }

    /// A wire `shutdown` was answered: the shell should stop.
    pub fn stopping(&self) -> bool {
        self.st.stop
    }

    pub fn balance_mode(&self) -> BalanceMode {
        self.st.balancer.mode()
    }

    /// Stop every shard and reclaim it — joins worker threads, and with
    /// them reaps child worker processes.
    pub fn shutdown(self) {
        self.st.shards.shutdown();
    }

    /// A transport connected; the id names it in every later input.
    pub fn open(&mut self) -> u64 {
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.conns.insert(id, Conn::new());
        id
    }

    /// Bytes arrived on `id`: frame them into lines, parse each into an
    /// inbox item in arrival order, then let the connection make
    /// progress. An empty slice is a plain progress call: the shell
    /// makes one when the transport reports room after a wait, so a
    /// backlogged subscriber waiting on a drop-to-keyframe re-sync can
    /// have it now.
    pub fn ingest(&mut self, id: u64, bytes: &[u8]) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let st = &mut self.st;
        conn.frames.feed(bytes);
        while let Some(next) = conn.frames.next_line() {
            let item = match next {
                Err(fault) => {
                    st.metrics.garbage_frames += 1;
                    Err(ApiError::invalid(match fault {
                        LineFault::TooLong => format!(
                            "request line exceeds {MAX_LINE} bytes; the rest of the line was \
                             discarded"
                        ),
                        LineFault::BadUtf8 => "request line is not valid UTF-8".to_string(),
                    }))
                }
                Ok(line) => match fv_api::parse_wire_line(&line) {
                    Ok(None) => continue,
                    Err(e) => Err(e),
                    // The pending bound is a function of what is queued
                    // when the line ARRIVES, so it is decided here, not
                    // when the item is pumped.
                    Ok(Some(WireItem::Script(ScriptItem::Request(_))))
                        if conn.pending_requests() >= st.queue_limit =>
                    {
                        st.metrics.busy_rejections += 1;
                        Err(ApiError::busy(format!(
                            "pending request queue is full ({} pending, limit {}); the request \
                             was not executed",
                            conn.pending_requests(),
                            st.queue_limit
                        )))
                    }
                    Ok(Some(item)) => {
                        if matches!(item, WireItem::Script(ScriptItem::Request(_))) {
                            conn.queued_requests += 1;
                        }
                        Ok(item)
                    }
                },
            };
            st.metrics.frames_in += 1;
            conn.inbox.push_back(item);
        }
        self.progress(id);
    }

    /// The peer's read side ended (EOF): the connection answers what it
    /// already sent, drains, and is then [`Conn::finished`].
    pub fn hangup(&mut self, id: u64) {
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.eof = true;
            self.touched.push(id);
        }
    }

    /// The transport took `n` more bytes of `id`'s outbox.
    pub fn wrote(&mut self, id: u64, n: usize) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.out_pos = (conn.out_pos + n).min(conn.out.len());
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 * 1024 {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// One balance interval elapsed: in auto mode, snapshot every shard
    /// (the reports come back one by one to
    /// [`LoopState::on_balance_report`]), then plan once the last lands.
    /// `false` (and nothing started) in off mode, which observes nothing
    /// (a flip to auto starts from fresh baselines), and while a gather
    /// is already in flight or any migration or close is mid-air — a
    /// session in transit may be on two shards at once, so the snapshot
    /// would be wrong (and the planner could double-move); the shell
    /// asks again.
    pub fn tick(&mut self) -> bool {
        if self.st.balancer.mode() != BalanceMode::Auto
            || self.st.balance_gather.is_some()
            || !self.st.moving.is_empty()
        {
            return false;
        }
        let n = self.st.shards.n_shards();
        self.st.balance_gather = Some(Vec::with_capacity(n));
        for shard in 0..n {
            self.st
                .submit(shard, ShardOp::Report, Waiter::BalanceGather);
        }
        true
    }

    /// Route a shard's reply to whoever was waiting on it.
    pub fn on_completion(&mut self, done: Completion) {
        self.st.in_flight -= 1;
        let Completion { to, mut reply } = done;
        // Pull the published frame (if the run rendered one) out before
        // the reply settles the requesting connection: the fan-out
        // targets *every* subscriber of the session, not the connection
        // that happened to trigger the run.
        let (frame, dropped) = match &mut reply {
            ShardReply::Run(run) => (run.frame.take(), run.dropped.take()),
            _ => (None, None),
        };
        // A worker that drops a session (a request panicked) ends it,
        // whether or not whoever asked is still connected.
        if let Some(session) = dropped {
            self.end_session(&session);
        }
        match to {
            Waiter::Conn(id) => {
                let n_conns = self.conns.len();
                if let Some(conn) = self.conns.get_mut(&id) {
                    settle_completion(conn, reply, n_conns, &mut self.st);
                    self.progress(id);
                }
            }
            Waiter::BalanceGather => self.st.on_balance_report(reply),
            Waiter::Migration(m) => self.on_migration(m, reply),
            // There is no connection waiting — the frame is the whole
            // point.
            Waiter::StreamResync => {}
        }
        if let Some(frame) = frame {
            self.publish_frame(frame);
        }
    }

    /// Advance a migration chain by one shard reply. Whatever ends it
    /// before the close leaves the session serving on `from`.
    fn on_migration(&mut self, m: Migration, reply: ShardReply) {
        let session = m.session.clone();
        let (shard, next) = match (reply, m.to) {
            // The snapshot proved the session exists; if it already
            // lives on the target there is nothing to move.
            (ShardReply::Image(Some(_)), Some(to)) if to == m.from => {
                return self.finish_migration(m, Ok(()));
            }
            (ShardReply::Image(Some(image)), Some(to)) => (to, ShardOp::Install { session, image }),
            // The source's close keeps the session's file: the target's
            // copy is the same session.
            (ShardReply::Installed(Ok(())), _) => {
                let close = ShardOp::Close {
                    session,
                    end: false,
                };
                (m.from, close)
            }
            // The target refused (dead shard / occupied name / failed
            // replay), which costs the session nothing.
            (ShardReply::Installed(Err(why)), _) => {
                let refused = ApiError::new(
                    fv_api::ErrorCode::Internal,
                    format!(
                        "target shard refused the session; it stays on its current shard ({why})"
                    ),
                );
                return self.finish_migration(m, Err(refused));
            }
            // The target has the session now, whatever the source's
            // close answered (only a shard that died since the install
            // answers anything but `true`, and its copy died with it).
            // A close's chain ends here too, whether the session existed
            // or not.
            (ShardReply::Closed(_), _) => return self.finish_migration(m, Ok(())),
            // The snapshot found nothing. (A chain submits no other op,
            // so no other reply kind can come back.)
            (ShardReply::Image(_) | ShardReply::Run(_) | ShardReply::Report(_), _) => {
                let missing = ApiError::not_found(format!("session {session} does not exist"));
                return self.finish_migration(m, Err(missing));
            }
        };
        self.st.submit(shard, next, Waiter::Migration(m));
    }

    /// A migration or close chain ended. This is a loop event, not a
    /// connection event: the routing table, the stall set and the
    /// session's end must update even if the asking connection hung up
    /// in the meantime.
    fn finish_migration(&mut self, m: Migration, result: Result<(), ApiError>) {
        let Migration {
            asker, session, to, ..
        } = m;
        let answer = match (result, to) {
            (Ok(()), None) => {
                self.end_session(&session);
                Ok(format!("closed {session}"))
            }
            (Ok(()), Some(to)) => {
                if to == shard_of(&session, self.st.shards.n_shards()) {
                    self.st.routes.remove(&session);
                } else {
                    self.st.routes.insert(session.clone(), to);
                }
                // Subscriptions survive the move: re-sync every viewer
                // from a frame the session's *new* shard renders in an
                // empty publish run.
                if self.st.streams.has_subscribers(&session) {
                    self.resync_viewers(&session);
                    self.st
                        .submit_run(session.clone(), Vec::new(), true, Waiter::StreamResync);
                }
                Ok(format!("migrated {session} shard={to}"))
            }
            (Err(e), _) => Err(e),
        };
        self.st.moving.remove(session.as_str());
        match asker {
            // A policy-initiated move resolved; its session's cooldown
            // started at plan time, so a refused move is not retried
            // until it lapses.
            None => self
                .st
                .balancer
                .record_outcome(session.as_str(), answer.is_ok()),
            Some(id) => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    if matches!(conn.inflight, Some(Inflight::Migrate)) {
                        conn.inflight = None;
                        match answer {
                            Ok(body) => conn.push_ok(&body, &mut self.st.metrics),
                            Err(e) => conn.push_err(&e, &mut self.st.metrics),
                        }
                    }
                }
            }
        }
        // Every connection may hold items that stalled behind this
        // chain, so give each a pump (idle ones no-op cheaply).
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.progress(id);
        }
    }

    /// A session ended — its close landed, or its worker dropped it after
    /// a panicking request. Its file is already gone (the shard removed
    /// it in the same serve). Its routing override goes (a namesake
    /// routes by hash), and so does the stream plane's retained frame:
    /// its viewers wait for a keyframe of whatever next holds the name,
    /// and a viewer that subscribes now gets no pixel of the ended
    /// session.
    fn end_session(&mut self, session: &SessionId) {
        self.st.routes.remove(session);
        if let Some(entry) = self.st.streams.session_mut(session) {
            entry.last = None;
            self.resync_viewers(session);
        }
    }

    /// Owe every viewer of `session` a keyframe instead of its pending
    /// deltas. Their encoders keep counting, so it lands at the next seq:
    /// no gap.
    fn resync_viewers(&mut self, session: &SessionId) {
        for cid in self.st.streams.subscribers_of(session) {
            if let Some(sub) = self.conns.get_mut(&cid).and_then(|c| c.sub.as_mut()) {
                sub.need_keyframe = true;
                sub.pending.clear();
            }
        }
    }

    /// Let a connection make progress: answer what it has queued and
    /// hand its subscriber any deferred frames. The shell's write pass
    /// flushes it, and drops it if that finished it.
    fn progress(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        pump(conn, id, &mut self.st);
        service_stream(conn, &mut self.st.streams);
        self.touched.push(id);
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
                        // Two updates to one tile collapse into one
                        // bounding rect — the retained framebuffer already
                        // contains both, so nothing is lost.
                        if let Some(pending) = sub.pending.get_mut(&tile) {
                            *pending = pending.union(&rect);
                            streams.metrics.coalesced += 1;
                        } else {
                            sub.pending.insert(tile, rect);
                        }
                    }
                }
            }
            drain_stream(conn, &fb, streams);
            self.touched.push(cid);
        }
    }

    /// The transport died, or the connection [`Conn::finished`]: remove
    /// it, deregistering its subscription. A connection that still owed
    /// work (queued or in-flight requests, or unflushed response bytes)
    /// counts as a dirty disconnect; a graceful EOF after every reply
    /// drained does not.
    pub fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            if conn.inflight.is_some() || !conn.inbox.is_empty() || conn.out_pending() > 0 {
                self.st.metrics.dirty_disconnects += 1;
            }
            if let Some(sub) = conn.sub {
                self.st.streams.unsubscribe(&sub.session, id);
            }
        }
    }
}

/// Answer inbox items in arrival order until one needs shard work (at
/// most one dispatch in flight per connection), the front item stalls
/// behind a migration ([`LoopState::stalls`]), or the inbox is empty.
fn pump(conn: &mut Conn, id: u64, st: &mut LoopState) {
    while conn.inflight.is_none() {
        // The stall check peeks the front; only when the item may proceed
        // is it popped (once) and matched by value — no peek/pop pairing
        // to keep in sync.
        let Some(front) = conn.inbox.front() else {
            break;
        };
        if matches!(front, Ok(item) if st.stalls(item, &conn.session)) {
            break;
        }
        let Some(item) = conn.inbox.pop_front() else {
            break;
        };
        if let Err(e) = item.and_then(|item| dispatch(conn, id, st, item)) {
            conn.push_err(&e, &mut st.metrics);
        }
    }
}

/// Answer one popped item from loop state, or dispatch the shard work it
/// needs and leave the answer to [`settle_completion`]. An `Err` is the
/// item's answer: the checks that need loop state (a valid session name,
/// the shard range, the tile grid) run here, where that state is.
fn dispatch(conn: &mut Conn, id: u64, st: &mut LoopState, item: WireItem) -> Result<(), ApiError> {
    match item {
        WireItem::Script(ScriptItem::Request(first)) => {
            // Everything the client has pipelined for the current
            // session becomes one run — one shard hop server-side.
            let mut requests = vec![first];
            while let Some(Ok(WireItem::Script(ScriptItem::Request(_)))) = conn.inbox.front() {
                if let Some(Ok(WireItem::Script(ScriptItem::Request(r)))) = conn.inbox.pop_front() {
                    requests.push(r);
                }
            }
            conn.queued_requests -= requests.len();
            conn.inflight_requests = requests.len();
            conn.inflight = Some(Inflight::Run);
            // Runs on a watched session come back with a rendered
            // wall frame for the fan-out; unwatched runs skip the
            // render entirely.
            let publish = st.streams.has_subscribers(&conn.session);
            st.submit_run(conn.session.clone(), requests, publish, Waiter::Conn(id));
        }
        WireItem::Script(ScriptItem::Use(name)) => {
            let session = SessionId::new(name)?;
            // Answer now, as `subscribe` is answered: the connection
            // pumps nothing until the run lands, so no reply can pass
            // this one, and a refused empty run answers nothing. Then
            // materialize eagerly (the `use` semantics) on the owning
            // shard, publishing to its viewers like any other run.
            conn.push_ok(&format!("using {session}"), &mut st.metrics);
            conn.inflight_requests = 0;
            conn.inflight = Some(Inflight::Run);
            let publish = st.streams.has_subscribers(&session);
            st.submit_run(session.clone(), Vec::new(), publish, Waiter::Conn(id));
            conn.session = session;
        }
        WireItem::Ping => conn.push_ok("pong", &mut st.metrics),
        WireItem::Balance { set } => {
            // Answered from loop state — no shard round trip, so a
            // `balance` line never stalls behind engine work.
            let reply = match set {
                None => format_balance(&st.balancer.status()),
                Some(mode) => {
                    st.balancer.set_mode(mode);
                    format!("balance mode={mode}")
                }
            };
            conn.push_ok(&reply, &mut st.metrics);
        }
        WireItem::Subscribe {
            session,
            tiles: (tiles_x, tiles_y),
        } => {
            let session = SessionId::new(session)?;
            let (sw, sh) = st.scene;
            if sw % tiles_x != 0 || sh % tiles_y != 0 {
                return Err(ApiError::invalid(format!(
                    "tile grid {tiles_x}x{tiles_y} does not divide the {sw}x{sh} scene evenly"
                )));
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
            conn.inflight = Some(Inflight::Run);
            st.submit_run(session, Vec::new(), true, Waiter::Conn(id));
        }
        WireItem::Unsubscribe => {
            match conn.sub.take() {
                Some(sub) => {
                    st.streams.unsubscribe(&sub.session, id);
                    conn.push_ok(&format!("unsubscribed {}", sub.session), &mut st.metrics);
                }
                // Idempotent: unsubscribing a non-subscriber is fine.
                None => conn.push_ok("unsubscribed", &mut st.metrics),
            }
        }
        WireItem::Ack { seq } => {
            if let Some(sub) = conn.sub.as_mut() {
                sub.last_ack = Some(sub.last_ack.map_or(seq, |a| a.max(seq)));
            }
            // No reply: acks pace the stream; answering them would
            // interleave text frames into the binary tile stream.
        }
        WireItem::Close | WireItem::Script(ScriptItem::Close(_)) => {
            // Bare `close` drops the connection's current session and
            // falls back to the default; the named form leaves the
            // connection's session pointer alone.
            let closed = match item {
                WireItem::Script(ScriptItem::Close(name)) => SessionId::new(name)?,
                _ => std::mem::replace(&mut conn.session, EngineHub::default_session()),
            };
            conn.inflight = Some(Inflight::Migrate);
            st.start_migration(Some(id), closed, None);
        }
        WireItem::Migrate { session, shard } => {
            let n = st.shards.n_shards();
            if shard >= n {
                return Err(ApiError::invalid(format!(
                    "shard {shard} out of range (server has {n})"
                )));
            }
            let session = SessionId::new(session)?;
            conn.inflight = Some(Inflight::Migrate);
            st.start_migration(Some(id), session, Some(shard));
        }
        WireItem::Stats | WireItem::ListSessions => {
            conn.inflight = Some(Inflight::Gather {
                stats: item == WireItem::Stats,
                reports: Vec::new(),
            });
            for shard in 0..st.shards.n_shards() {
                st.submit(shard, ShardOp::Report, Waiter::Conn(id));
            }
        }
        WireItem::Shutdown => {
            // Nothing queued behind a `shutdown` is answered: the empty
            // inbox ends the pump.
            conn.inbox.clear();
            conn.queued_requests = 0;
            conn.push_ok("bye", &mut st.metrics);
            st.stop = true;
        }
    }
    Ok(())
}

/// Fold a shard result into the connection that was waiting on it,
/// writing whatever frames it resolves.
fn settle_completion(conn: &mut Conn, reply: ShardReply, n_conns: usize, st: &mut LoopState) {
    match (conn.inflight.take(), reply) {
        (Some(Inflight::Run), ShardReply::Run(done)) => {
            conn.out.extend_from_slice(&done.reply);
            st.metrics.frames_out += done.frames as u64;
            conn.inflight_requests = 0;
        }
        (Some(Inflight::Gather { stats, mut reports }), ShardReply::Report(report)) => {
            reports.push(report);
            if reports.len() < st.shards.n_shards() {
                conn.inflight = Some(Inflight::Gather { stats, reports });
            } else {
                reports.sort_by_key(|r| r.shard);
                let reply = if stats {
                    stats_reply(&reports, n_conns, st)
                } else {
                    sessions_reply(&reports)
                };
                conn.push_ok(&reply, &mut st.metrics);
            }
        }
        // No other pairing can occur (every op has exactly one reply
        // kind); drop the result, restore nothing.
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

/// Merge per-shard reports with the core's own counters and the dataset
/// cache gauges into the `stats` reply.
fn stats_reply(reports: &[ShardReport], n_conns: usize, st: &LoopState) -> String {
    let depths = st.shards.queue_depths();
    let cache = st.shards.cache_stats(reports);
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
        derived_entries: cache.derived_entries,
        derived_hits: cache.derived_hits,
        derived_misses: cache.derived_misses,
        balancer_ticks: st.balancer.ticks(),
        balancer_moves: st.balancer.counters().1,
        balancer_failed: st.balancer.counters().2,
        recovered: st.recovered,
        stream: StreamStats {
            subscribers: st.streams.n_subscribers(),
            ..st.streams.metrics
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

#[cfg(test)]
mod server_sim;

#[cfg(test)]
mod tests {
    //! The core driven the way the shell drives it, minus the shell and
    //! the shard threads: bytes in, [`Rig::settle`], bytes out.

    use super::*;
    use crate::balance::{parse_balance, BalanceConfig, BalanceStatus, MoveOutcome};
    use crate::frame::{read_reply, LineReader, Reply};
    use crate::metrics::parse_stats;
    use crate::shard::Parked;
    use fv_api::{ErrorCode, Mutation};
    use fv_wall::stream::{decode, FrameKind, TileAssembler, TileFrame};

    const SCENE: (usize, usize) = (800, 600);

    /// A core over parked shards, served at once and in shard order —
    /// the one schedule these tests need. The waker pokes a pipe nobody
    /// polls.
    pub(super) struct Rig {
        pub core: Core,
        pub done: mpsc::Receiver<Completion>,
        pub parked: Parked,
        _waker_rx: std::io::PipeReader,
    }

    impl Rig {
        pub fn new(config: ServerConfig) -> Rig {
            let (shards, mut parked) = Shards::parked(&config);
            let recovered = config.state_dir.as_deref().map_or(0, |dir| {
                let store = SessionStore::open(dir).expect("open the state directory");
                recover_sessions(&store, config.shards, |k, op| parked.call(&shards, k, op))
                    .expect("scan the state directory")
            });
            let (waker_rx, waker_tx) = std::io::pipe().expect("pipe");
            let (core, done) = Core::new(&config, shards, Waker::new(waker_tx), recovered);
            Rig {
                core,
                done,
                parked,
                _waker_rx: waker_rx,
            }
        }

        /// Shard `k`'s oldest served reply, as the completion the core
        /// is owed.
        pub fn next_completion(&mut self, k: usize) -> Option<Completion> {
            let delivered = self.parked.deliver(k);
            delivered.then(|| self.done.try_recv().expect("a delivered reply completes"))
        }

        /// Serve shard `k` until its queue is empty, delivering each
        /// reply at once (so what a reply sets off on `k` is served too).
        fn run_shard(&mut self, k: usize) {
            while self.parked.serve(k, |_| ()).is_some() {
                self.complete(k);
            }
        }

        fn complete(&mut self, k: usize) {
            let done = self.next_completion(k).expect("a served reply");
            self.core.on_completion(done);
        }

        /// Serve and deliver until no submitted op is outstanding.
        fn settle(&mut self) {
            while self.core.st.in_flight > 0 {
                for k in 0..self.core.st.shards.n_shards() {
                    self.run_shard(k);
                }
            }
        }

        /// Everything `id`'s outbox holds, handed over as a socket would
        /// take it.
        fn drain(&mut self, id: u64) -> Vec<u8> {
            let bytes = self.core.conns()[&id].outbox().to_vec();
            self.core.wrote(id, bytes.len());
            bytes
        }

        /// Feed `lines` to `id`, settle, and decode what it was answered.
        fn ask(&mut self, id: u64, lines: &str) -> Vec<Reply> {
            self.core.ingest(id, lines.as_bytes());
            self.settle();
            let bytes = self.drain(id);
            let mut reader = LineReader::new(&bytes[..]);
            let mut replies = Vec::new();
            while let Some(reply) = read_reply(&mut reader).expect("well-framed replies") {
                replies.push(reply);
            }
            replies
        }

        /// One balance interval: the tick, then everything it set off
        /// (the gather and the migrations it planned).
        fn tick(&mut self) {
            assert!(self.core.tick(), "nothing is in flight between rounds");
            self.settle();
        }

        /// The single `ok` body `line` is answered with.
        fn ok(&mut self, id: u64, line: &str) -> String {
            let mut replies = self.ask(id, &format!("{line}\n"));
            assert_eq!(replies.len(), 1, "{line}: {replies:?}");
            replies.remove(0).expect("an ok reply")
        }

        fn stats(&mut self, id: u64) -> ServerStats {
            parse_stats(&self.ok(id, "stats")).expect("stats parse")
        }

        fn balance(&mut self, id: u64) -> BalanceStatus {
            parse_balance(&self.ok(id, "balance")).expect("balance parses")
        }

        fn sessions(&mut self, id: u64) -> Vec<fv_api::SessionEntry> {
            fv_api::parse_sessions_reply(&self.ok(id, "list-sessions")).expect("listing parses")
        }
    }

    fn config(shards: usize) -> ServerConfig {
        ServerConfig {
            shards,
            scene: SCENE,
            ..ServerConfig::default()
        }
    }

    /// Parked process shards: no child, every op through the shard codec.
    fn procs(shards: usize) -> ServerConfig {
        ServerConfig {
            backend: crate::ShardBackendConfig::Procs {
                worker_cmd: Vec::new(),
            },
            ..config(shards)
        }
    }

    /// Session names that all hash-route to shard 0 of `shards` — the
    /// worst-case skew a static partitioner can produce.
    fn skewed_names(n: usize, shards: usize) -> Vec<String> {
        (0..)
            .map(|i| format!("skew{i}"))
            .filter(|name| shard_of(&SessionId::new(name.clone()).unwrap(), shards) == 0)
            .take(n)
            .collect()
    }

    /// Real work for one session — enough latency and request count for
    /// the balancer's load deltas to register.
    const WORK: &str = "scenario 80 1\ncluster_all\nsearch_select stress\nscroll 1\nsession_info\n";
    const PROBE: &str = "session_info\nlist_datasets\n";

    /// What local replay answers `use <session>` + `requests` with — the
    /// oracle every transcript is compared against.
    fn local_replay(hub: &mut EngineHub, session: &str, requests: &str) -> Vec<Reply> {
        let mut want = vec![Ok(format!("using {session}"))];
        hub.run_script_streaming(&format!("use {session}\n{requests}"), |entry| {
            want.push(Ok(fv_api::format_response(&entry.response)))
        })
        .expect("local replay succeeds");
        want
    }

    #[test]
    fn a_refused_install_leaves_the_session_in_place_and_cooldown_excludes_it() {
        // Both sessions load a PCL that is then rewritten on disk, so every
        // install of their images is refused with `E_STALE_IMAGE`, on
        // whichever shard is asked.
        a_refused_move_leaves_the_session_in_place("E_STALE_IMAGE");
    }

    #[test]
    fn a_move_onto_a_dead_shard_leaves_the_session_in_place_and_cooldown_excludes_it() {
        // The only other shard is down: it refuses every install with
        // `E_SHARD_DOWN` and reports empty — which is exactly what makes
        // it the balancer's favourite target.
        a_refused_move_leaves_the_session_in_place("E_SHARD_DOWN");
    }

    /// A refused move — the balancer's or an operator's — must leave the
    /// session serving on its source shard with state intact, and put it
    /// in cooldown so the balancer does not hammer the refusing target;
    /// `stats` and `list-sessions` gathers complete throughout.
    fn a_refused_move_leaves_the_session_in_place(refusal: &str) {
        let pcl = format!("fv-core-{refusal}-{}.pcl", std::process::id());
        let pcl = std::env::temp_dir().join(pcl);
        let export = format!("scenario 80 1\nexport_pcl 0 {}\n", pcl.display());
        EngineHub::new().run_script(&export).expect("export a PCL");
        let work = format!(
            "load {}\ncluster_all\nsearch_select stress\nscroll 1\nsession_info\n",
            pcl.display()
        );
        let mut rig = Rig::new(ServerConfig {
            balance: BalanceMode::Auto,
            balance_cfg: BalanceConfig {
                budget: 1,
                trigger_ratio: 1.2,
                settle_ratio: 1.1,
                min_total_load: 1,
                // Effectively infinite: within this test no cooldown may
                // lapse, so each session is attempted at most once.
                cooldown_ticks: 1_000_000,
            },
            // Only a process shard dies alone.
            ..procs(2)
        });
        // Two sessions, both hash-routed to shard 0 — everything the
        // balancer plans targets shard 1.
        let names = skewed_names(2, 2);
        let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
        let c = rig.core.open();
        for name in &names {
            let remote = rig.ask(c, &format!("use {name}\n{work}"));
            assert_eq!(remote, local_replay(&mut local, name, &work));
        }
        if refusal == "E_SHARD_DOWN" {
            rig.parked.kill(1);
        } else {
            let mut text = std::fs::read_to_string(&pcl).expect("the exported PCL");
            text.push_str("TAMPERED\t0\t0\t1.0\n");
            std::fs::write(&pcl, text).expect("rewrite the PCL");
        }
        // An operator's move is answered the target's typed reason.
        let replies = rig.ask(c, &format!("migrate {} 1\n", names[0]));
        let [Err(refused)] = &replies[..] else {
            panic!("the install must be refused: {replies:?}");
        };
        assert_eq!(refused.code, ErrorCode::Internal);
        assert!(refused.message.contains(refusal), "{refused}");
        // Light traffic on both sessions before every tick, so each tick
        // sees a fresh load delta: with a budget of one, both sessions
        // have been tried (and failed) once within a few ticks, and
        // across many more the cooldown holds — no third failure, never
        // a successful move.
        for round in 0..14 {
            for name in &names {
                let replies = rig.ask(c, &format!("use {name}\nsession_info\n"));
                assert!(replies.iter().all(Result::is_ok), "{replies:?}");
            }
            rig.tick();
            let stats = rig.stats(c);
            assert_eq!(stats.balancer_moves, 0, "no install can succeed here");
            assert!(
                stats.balancer_failed <= 2,
                "round {round}: a cooling session was retried"
            );
        }
        assert_eq!(
            rig.stats(c).balancer_failed,
            2,
            "both sessions are attempted once, then excluded by their cooldown"
        );
        let status = rig.balance(c);
        assert_eq!(status.failed, 2);
        assert!(status.cooling >= 2, "both sessions must still be cooling");
        assert!(status
            .recent
            .iter()
            .all(|m| m.outcome == MoveOutcome::Failed));
        // Nothing was lost: both sessions still live on shard 0, and their
        // state is byte-identical to local replay (the traffic above was
        // queries only, so the local hub's sessions saw the same
        // mutations).
        let sessions = rig.sessions(c);
        assert_eq!(sessions.len(), names.len());
        for s in &sessions {
            assert_eq!(s.shard, 0, "session {} must stay on shard 0", s.name);
        }
        for name in &names {
            let remote = rig.ask(c, &format!("use {name}\n{PROBE}"));
            assert_eq!(
                remote,
                local_replay(&mut local, name, PROBE),
                "session {name} lost state on the refused migration"
            );
        }
        std::fs::remove_file(&pcl).ok();
    }

    #[test]
    fn flipping_to_auto_reacts_to_fresh_load_only_no_stale_burst() {
        // Regression for the Off→Auto flip: off mode gathers nothing, and
        // the flip forgets the baselines, so flipping to auto after a long
        // skewed history must NOT replay that history as one giant delta
        // and start migrating idle sessions.
        let mut rig = Rig::new(ServerConfig {
            balance: BalanceMode::Off,
            balance_cfg: idle_history_cfg(),
            ..config(2)
        });
        // Heavy skewed history while Off: all sessions on shard 0.
        let c = rig.core.open();
        for name in skewed_names(4, 2) {
            let replies = rig.ask(c, &format!("use {name}\n{WORK}"));
            assert!(replies.iter().all(Result::is_ok), "{replies:?}");
        }
        // Off-mode intervals start nothing.
        for _ in 0..3 {
            assert!(!rig.core.tick(), "off mode gathers nothing");
            assert_eq!(rig.stats(c).balancer_moves, 0, "off mode must never move");
        }
        assert_eq!(rig.stats(c).balancer_ticks, 0);
        // Flip to auto with the system idle: across many intervals, zero
        // moves — the first auto tick only takes baselines.
        assert_eq!(rig.ok(c, "balance auto"), "balance mode=auto");
        assert_idle_ticks_move_nothing(&mut rig, c);
    }

    /// Knobs under which the idle sessions of [`WORK`] would move if
    /// their history counted.
    fn idle_history_cfg() -> BalanceConfig {
        BalanceConfig {
            budget: 2,
            trigger_ratio: 1.3,
            settle_ratio: 1.1,
            min_total_load: 1,
            cooldown_ticks: 3,
        }
    }

    /// Ten idle auto intervals plan and move nothing.
    fn assert_idle_ticks_move_nothing(rig: &mut Rig, c: u64) {
        for _ in 0..10 {
            rig.tick();
        }
        let stats = rig.stats(c);
        assert_eq!(stats.balancer_ticks, 10);
        assert_eq!(
            stats.balancer_moves, 0,
            "idle sessions must not migrate on stale load"
        );
        assert_eq!(stats.balancer_failed, 0);
        let status = rig.balance(c);
        assert_eq!(status.mode, BalanceMode::Auto);
        assert_eq!(status.planned, 0);
    }

    #[test]
    fn a_reboot_under_auto_plans_nothing_from_recovered_lifetime_counters() {
        // A recovered session carries its lifetime request count in its
        // image, and recovery puts every session back on its hash shard:
        // a skewed, idle history must not read as this interval's load.
        let (dir, _store, durable) = durable("reboot-auto");
        let config = ServerConfig {
            balance_cfg: idle_history_cfg(),
            ..durable
        };
        let mut rig = Rig::new(config.clone());
        let c = rig.core.open();
        for name in skewed_names(4, 2) {
            let replies = rig.ask(c, &format!("use {name}\n{WORK}"));
            assert!(replies.iter().all(Result::is_ok), "{replies:?}");
        }
        drop(rig);
        let mut rebooted = Rig::new(ServerConfig {
            balance: BalanceMode::Auto,
            ..config
        });
        let c = rebooted.core.open();
        assert_eq!(rebooted.stats(c).recovered, 4);
        assert_idle_ticks_move_nothing(&mut rebooted, c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn busy_overrun_is_answered_in_request_order() {
        let mut rig = Rig::new(ServerConfig {
            queue_limit: 4,
            ..config(2)
        });
        let c = rig.core.open();
        rig.ask(c, "use flood\nscenario 60 1\nselect_region 0 0.0 1.0\n");
        // One burst: the bound is judged as each line ARRIVES, so four
        // scrolls queue, and the two behind the ping overrun — yet every
        // frame goes out in line order, the pong between the run's
        // replies and the rejects.
        let burst = "scroll 1\n".repeat(4) + "ping\n" + &"scroll 1\n".repeat(2);
        let replies = rig.ask(c, &burst);
        assert_eq!(replies.len(), 7);
        for reply in &replies[..4] {
            assert!(
                matches!(reply, Ok(text) if text.starts_with("applied ")),
                "{reply:?}"
            );
        }
        assert_eq!(replies[4], Ok("pong".to_string()));
        for reply in &replies[5..] {
            assert!(
                matches!(reply, Err(e) if e.code == ErrorCode::Busy),
                "{reply:?}"
            );
        }
        // The run settled, so the queue has room again; exactly the four
        // accepted scrolls (and this one) were committed.
        assert!(rig.ok(c, "scroll 1").starts_with("applied "));
        assert!(rig.ok(c, "session_info").contains("scroll=5"));
        let stats = rig.stats(c);
        assert_eq!(stats.busy_rejections, 2);
        assert_eq!(stats.max_run, 4);
    }

    #[test]
    fn a_mid_run_error_answers_the_tail_skipped() {
        let mut rig = Rig::new(config(2));
        let c = rig.core.open();
        rig.ask(c, "use s\nscenario 60 1\nselect_region 0 0.0 1.0\n");
        let bad = fv_api::format_request(&Request::Mutate(Mutation::Impute { dataset: 9, k: 3 }));
        let replies = rig.ask(c, &format!("scroll 1\n{bad}\nscroll 1\nscroll 1\n"));
        assert_eq!(replies.len(), 4, "one frame per line: {replies:?}");
        assert!(matches!(&replies[0], Ok(text) if text.starts_with("applied ")));
        assert!(matches!(&replies[1], Err(e) if e.code == ErrorCode::NotFound));
        for reply in &replies[2..] {
            assert_eq!(
                reply.as_ref().unwrap_err().message,
                "skipped: request 2 earlier in this pipelined run failed (E_NOT_FOUND)"
            );
        }
        // The tail really was skipped, not executed.
        assert!(rig.ok(c, "session_info").contains("scroll=1"));
    }

    #[test]
    fn a_subscribe_on_a_dead_shard_is_answered_by_its_ack_alone() {
        let mut rig = Rig::new(procs(1));
        rig.parked.kill(0);
        let c = rig.core.open();
        // The refused keyframe run owes no frame: the ack answered the
        // line, and the next frame is the ping's.
        let replies = rig.ask(c, "subscribe s 2x2\nping\n");
        let subscribed = Ok("subscribed s 2x2 800x600".to_string());
        assert_eq!(replies, [subscribed, Ok("pong".to_string())]);
    }

    #[test]
    fn stalled_items_resume_when_the_migrations_asker_already_hung_up() {
        let mut rig = Rig::new(config(2));
        let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
        let asker = rig.core.open();
        let other = rig.core.open();
        rig.ask(asker, "use s\nscenario 60 1\n");
        local_replay(&mut local, "s", "scenario 60 1\n");
        let to = 1 - shard_of(&SessionId::new("s").unwrap(), 2);
        // The migration is in flight from the moment its line is pumped,
        // so the other connection's items stall behind it…
        rig.core
            .ingest(asker, format!("migrate s {to}\n").as_bytes());
        rig.core.ingest(other, format!("use s\n{PROBE}").as_bytes());
        assert!(rig.core.conns()[&other].outbox().is_empty());
        // …and the asker goes away before the chain lands. Finishing a
        // migration is a core event, not a connection event: routing
        // updates and the stalled items resume all the same.
        rig.core.close(asker);
        let replies = rig.ask(other, "");
        assert_eq!(replies, local_replay(&mut local, "s", PROBE));
        let sessions = rig.sessions(other);
        assert_eq!((sessions[0].name.as_str(), sessions[0].shard), ("s", to));
        assert_eq!(
            rig.stats(other).dirty_disconnects,
            1,
            "the asker still owed a reply"
        );
    }

    /// Split a subscriber's bytes into (text before the first tile frame,
    /// tile frames).
    fn tile_frames(bytes: &[u8], text_lines: usize) -> (String, Vec<TileFrame>) {
        let mut at = 0;
        for _ in 0..text_lines {
            at += bytes[at..]
                .iter()
                .position(|&b| b == b'\n')
                .expect("a text line")
                + 1;
        }
        let text = String::from_utf8(bytes[..at].to_vec()).expect("text frames are UTF-8");
        let mut frames = Vec::new();
        while let Some((frame, used)) = decode(&bytes[at..]).expect("well-formed tile frames") {
            frames.push(frame);
            at += used;
        }
        assert_eq!(at, bytes.len(), "trailing bytes after the last tile frame");
        (text, frames)
    }

    #[test]
    fn an_undrained_subscriber_drops_to_a_keyframe_at_the_next_seq() {
        let mut rig = Rig::new(config(1));
        let viewer = rig.core.open();
        let mutator = rig.core.open();
        // The subscribe ack and the first keyframe (800x600 RGB, far past
        // the outbox watermark) sit in an outbox nobody drains.
        rig.core.ingest(viewer, b"subscribe s 2x2\n");
        rig.settle();
        let backlog = rig.core.conns()[&viewer].outbox().len();
        assert!(backlog >= OUTBOX_HIGH_WATER);
        // Two published runs later the viewer has been dropped to a
        // keyframe once, and not a byte was queued behind its backlog.
        rig.ask(mutator, "use s\nscenario 60 1\n");
        rig.ask(mutator, "scroll 1\n");
        assert_eq!(rig.core.conns()[&viewer].outbox().len(), backlog);
        let (ack, first) = tile_frames(&rig.drain(viewer), 2);
        assert_eq!(ack, "ok 1\nsubscribed s 2x2 800x600\n");
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|f| f.kind == FrameKind::Key && f.seq == 0));
        // The outbox drained and the shell reports progress: the re-sync
        // is a keyframe at the very next seq — the dropped deltas burned
        // no sequence number, so the viewer sees no gap.
        rig.core.ingest(viewer, b"");
        let (_, resync) = tile_frames(&rig.drain(viewer), 0);
        assert_eq!(resync.len(), 4);
        assert!(resync
            .iter()
            .all(|f| f.kind == FrameKind::Key && f.seq == 1));
        // Caught up, it is back on deltas.
        rig.ask(mutator, "scroll 1\n");
        let (_, deltas) = tile_frames(&rig.drain(viewer), 0);
        assert!(!deltas.is_empty());
        assert!(deltas
            .iter()
            .all(|f| f.kind == FrameKind::Delta && f.seq == 2));
        let stats = rig.stats(mutator);
        assert_eq!(
            stats.stream.dropped, 1,
            "one drop, however many runs it spanned"
        );
        assert_eq!(stats.stream.frames, 8 + deltas.len() as u64);
    }

    #[test]
    fn a_closed_sessions_pixels_never_reach_a_namesakes_viewers() {
        let scene = (160, 120);
        let mut rig = Rig::new(ServerConfig { scene, ..config(2) });
        let (mutator, first, late) = (rig.core.open(), rig.core.open(), rig.core.open());
        let grid = TileGrid::new(2, 2, scene.0 / 2, scene.1 / 2);
        let (mut wall, mut late_wall) = (TileAssembler::new(grid), TileAssembler::new(grid));
        let watch = |rig: &mut Rig, id: u64, wall: &mut TileAssembler, text_lines: usize| {
            let (_, frames) = tile_frames(&rig.drain(id), text_lines);
            for frame in &frames {
                wall.apply(frame).expect("the frame applies");
            }
            frames.len()
        };
        let mut hub = EngineHub::with_scene(scene.0, scene.1);
        let empty = hub.engine(&SessionId::new("s").unwrap()).session();
        let empty = forestview::renderer::render_desktop(empty, scene.0, scene.1);
        // A viewer watches `s`, which is closed and used again: the new,
        // empty `s` is what its wall shows.
        rig.ask(mutator, "use s\nscenario 60 1\n");
        rig.core.ingest(first, b"subscribe s 2x2\n");
        rig.settle();
        watch(&mut rig, first, &mut wall, 2);
        assert_ne!(wall.framebuffer().bytes(), empty.bytes());
        assert_eq!(rig.ok(mutator, "close s"), "closed s");
        assert_eq!(rig.ok(mutator, "use s"), "using s");
        watch(&mut rig, first, &mut wall, 0);
        assert_eq!(wall.framebuffer().bytes(), empty.bytes());
        // A viewer that subscribes after a close gets one keyframe, and
        // it is of the session its own subscribe created.
        rig.ask(mutator, "scenario 60 2\n");
        assert_eq!(rig.ok(mutator, "close s"), "closed s");
        rig.core.ingest(late, b"subscribe s 2x2\n");
        rig.settle();
        assert_eq!(watch(&mut rig, late, &mut late_wall, 2), 4);
        assert_eq!(late_wall.framebuffer().bytes(), empty.bytes());
        watch(&mut rig, first, &mut wall, 0);
        assert_eq!(wall.framebuffer().bytes(), empty.bytes());
    }

    #[test]
    fn a_run_is_saved_by_its_shard_before_its_reply_and_nothing_else_writes() {
        let (dir, store, config) = durable("save");
        // Auto, so that a tick gathers every shard's report.
        let mut rig = Rig::new(ServerConfig {
            balance: BalanceMode::Auto,
            ..config
        });
        let saved = || {
            let scan = store.scan().expect("scan").sessions.into_iter();
            scan.map(|(s, image)| (s.to_string(), image.requests))
                .collect::<Vec<_>>()
        };
        let remove = |name: &str| {
            let path = store.checkpoint_path(&SessionId::new(name).unwrap());
            std::fs::remove_file(path).expect("the file was there");
        };
        let c = rig.core.open();
        rig.ask(c, "use a\nscenario 60 1\nuse b\nscenario 60 2\nuse a\n");
        // No tick has run: every answered run is on disk.
        let one = |name: &str| (name.to_string(), 1);
        assert_eq!(saved(), [one("a"), one("b")]);
        // Delete both files behind the shards' back: a file that
        // reappears was written again. `a`'s run is saved by the shard
        // serving it, before its reply reaches the loop…
        remove("a");
        remove("b");
        rig.core.ingest(c, b"scroll 1\n");
        let k = shard_of(&SessionId::new("a").unwrap(), 2);
        rig.parked.serve(k, |_| ()).expect("the run");
        assert_eq!(saved(), [("a".to_string(), 2)], "scenario + scroll");
        assert!(rig.core.conns()[&c].outbox().is_empty(), "not answered yet");
        rig.complete(k);
        assert!(rig.drain(c).starts_with(b"ok 1\napplied "));
        // …and nothing else writes: not the idle `b`, and not a tick.
        remove("a");
        rig.tick();
        assert_eq!(saved(), []);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "counts the sweep's threads in a process of its own"
    )]
    fn the_sweep_spawns_no_thread() {
        // Threads are counted process-wide (`/proc/self/task`, as
        // `tests/idle_threads.rs` does) and this binary's other tests
        // boot shard threads beside the sweep — so a slice of the sweep
        // runs again in a process of its own and counts there.
        let exe = std::env::current_exe().expect("this test binary");
        let alone = "protocol::server_sim::a_sweep_alone_in_its_process";
        let out = std::process::Command::new(exe)
            .args(["--exact", alone, "--ignored", "--test-threads=1"])
            .output()
            .expect("run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let alone = out.status.success() && stdout.contains("1 passed");
        assert!(alone, "{stdout}");
    }

    /// A state directory of this test's own, a second handle on its
    /// store, and the config that serves from it.
    fn durable(name: &str) -> (std::path::PathBuf, SessionStore, ServerConfig) {
        let dir = std::env::temp_dir().join(format!("fv-core-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("a second handle on the store");
        let config = ServerConfig {
            state_dir: Some(dir.clone()),
            ..config(2)
        };
        (dir, store, config)
    }

    #[test]
    fn a_close_removes_the_file_before_closed_is_answered_and_a_move_keeps_it() {
        let (dir, store, config) = durable("close");
        let a = SessionId::new("a").unwrap();
        let away = 1 - shard_of(&a, 2);
        let mut rig = Rig::new(config.clone());
        let c = rig.core.open();
        rig.ask(c, "use a\nscenario 60 1\n");
        let before = store.scan().expect("scan").sessions;
        // A migration's close leaves the file: the copy on `away` is the
        // same session.
        assert_eq!(
            rig.ok(c, &format!("migrate a {away}")),
            format!("migrated a shard={away}")
        );
        assert_eq!(store.scan().expect("scan").sessions, before);
        // The shard serving a close that ends the session removes its
        // file in that serve — before `closed a` can be written.
        rig.core.ingest(c, b"close a\n");
        rig.parked.serve(away, |_| ()).expect("the close");
        assert!(!store.checkpoint_path(&a).exists(), "the close was served");
        assert!(rig.core.conns()[&c].outbox().is_empty(), "not answered yet");
        rig.complete(away);
        assert_eq!(rig.ask(c, ""), [Ok("closed a".to_string())]);
        // A restart must not resurrect it.
        drop(rig);
        let mut rebooted = Rig::new(config);
        let c = rebooted.core.open();
        assert_eq!(rebooted.stats(c).recovered, 0);
        assert!(rebooted.sessions(c).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_dropped_session_ends_even_when_its_asker_hung_up() {
        let a = SessionId::new("a").unwrap();
        let (home, away) = (shard_of(&a, 2), 1 - shard_of(&a, 2));
        let mut rig = Rig::new(config(2));
        let (asker, other) = (rig.core.open(), rig.core.open());
        rig.ask(asker, &format!("use a\nscenario 60 1\nmigrate a {away}\n"));
        // A run on `a` is served, its asker hangs up, and the worker drops
        // the session as it does after a panicking request.
        rig.core.ingest(asker, b"scroll 1\n");
        rig.parked.serve(away, |_| ()).expect("the run");
        rig.core.close(asker);
        let close = ShardOp::Close {
            session: a.clone(),
            end: true,
        };
        rig.parked.call(&rig.core.st.shards, away, close);
        let mut done = rig.done.try_recv().expect("the run's reply");
        if let ShardReply::Run(run) = &mut done.reply {
            run.dropped = Some(a.clone());
        }
        rig.core.on_completion(done);
        // The session ended all the same: a namesake routes by hash.
        rig.ask(other, "use a\n");
        let placed: Vec<_> = rig
            .sessions(other)
            .into_iter()
            .map(|s| (s.name, s.shard))
            .collect();
        assert_eq!(placed, [("a".to_string(), home)]);
    }

    #[test]
    fn a_reused_names_file_is_its_new_session_never_its_predecessor() {
        let (dir, store, config) = durable("reuse");
        let a = SessionId::new("a").unwrap();
        let (home, away) = (shard_of(&a, 2), 1 - shard_of(&a, 2));
        let mut rig = Rig::new(config.clone());
        let (closer, creator, lister) = (rig.core.open(), rig.core.open(), rig.core.open());
        // `a` lives away from its hash shard when it is closed…
        rig.ask(closer, "use a\nscenario 60 1\n");
        rig.ask(closer, &format!("migrate a {away}\n"));
        rig.core.ingest(closer, b"close a\n");
        rig.core.ingest(creator, b"use a\nscenario 60 2\n");
        rig.core.ingest(lister, b"list-sessions\n");
        // …and until the away shard's `Closed` is delivered, a namesake
        // may not be created on the hash shard and nothing may list the
        // sessions: both get no byte, and the close's serve is what
        // removes the old session's file.
        rig.run_shard(home);
        let silent =
            |rig: &Rig| [creator, lister].map(|c| rig.core.conns()[&c].outbox().is_empty());
        assert_eq!(silent(&rig), [true; 2], "before the close is served");
        rig.parked.serve(away, |_| ()).expect("the close");
        assert!(!store.checkpoint_path(&a).exists(), "the close removed it");
        assert_eq!(silent(&rig), [true; 2], "before the close is delivered");
        rig.complete(away);
        rig.settle();
        let replies = rig.ask(lister, "");
        let [Ok(listing)] = &replies[..] else {
            panic!("one listing: {replies:?}");
        };
        let listed = fv_api::parse_sessions_reply(listing).expect("listing parses");
        assert_eq!(listed.len(), 1, "{listed:?}");
        assert_eq!((listed[0].name.as_str(), listed[0].shard), ("a", home));
        // The file is the namesake's, and that is what a restart brings
        // back.
        drop(rig);
        let mut rebooted = Rig::new(config);
        let c = rebooted.core.open();
        assert_eq!(rebooted.stats(c).recovered, 1);
        let mut local = EngineHub::with_scene(SCENE.0, SCENE.1);
        local_replay(&mut local, "a", "scenario 60 2\n");
        let probed = rebooted.ask(c, &format!("use a\n{PROBE}"));
        assert_eq!(probed, local_replay(&mut local, "a", PROBE));
        std::fs::remove_dir_all(&dir).ok();
    }
}
