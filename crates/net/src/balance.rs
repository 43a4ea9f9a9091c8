//! Load-aware automatic shard rebalancing.
//!
//! The transport has the *mechanism* — `migrate <session> <shard>` moves
//! a live session across shards as a `SessionImage` the target replays —
//! but placement stayed operator-driven, so a hot shard stays hot under
//! skewed traffic.
//! This module adds the *policy*: the server periodically gathers the
//! [`ShardReport`] every shard already answers `stats` with (cumulative
//! request counters, latency histograms, per-session cost estimates from
//! the hubs), adds each shard's queue depth, and plans migrations that
//! even the load out.
//!
//! The design splits three ways, strictest at the core:
//!
//! - [`plan_moves`] — the **pure policy**: a clock-free, socket-free
//!   function of one interval's [`ShardLoad`]s and a [`BalanceConfig`]
//!   to a `Vec<MovePlan>`. Every invariant the simulation and property
//!   tests rely on lives here: moves never target their source shard,
//!   never exceed the per-tick budget, never pick a pinned (cooling-down
//!   or in-flight) session, never move one session twice in a plan, and
//!   always strictly narrow the donor–receiver pair's maximum (a
//!   receiver never ends up at or above its donor's pre-move load).
//! - [`Balancer`] — deterministic **tick state**, still clock-free: it
//!   reads the shard reports where they land, folding their cumulative
//!   counters into the per-interval load deltas the policy consumes,
//!   tracks per-session cooldowns by tick number, and keeps the counters
//!   and recent-move ring the `balance` wire line reports. A simulation
//!   drives it with scripted reports; the server drives it from a
//!   wall-clock timer. A session enters cooldown when its move is
//!   *planned* — a failed move cools down too, so the balancer never
//!   hammers a refusing target.
//! - The server — `crate::server` is the only layer that owns clocks
//!   and sockets, and hands the protocol core (`crate::protocol`) one
//!   `tick()` per interval; the core gathers the reports, executes
//!   plans through the same snapshot → install → close chain operator
//!   migrations use, and reports outcomes back.
//!
//! ## Load model
//!
//! A session's load for one interval is
//! `Δrequests × shard_cost_us + dataset_MiB`: its attempted-request
//! delta weighted by the shard's observed per-request cost over the same
//! interval (derived from the latency-histogram delta via bucket
//! midpoints), plus a small resident-size term so giant idle sessions
//! still spread out under memory pressure. Queue depth joins the shard's
//! total as un-movable pressure. The cost of the move itself — the
//! target replays the session's log, whose clusterings are derived-cache
//! hits when the target's cache holds that content and are recomputed
//! otherwise, and which re-parses a file the target's cache does not
//! hold (always possible on process shards, whose caches are per child)
//! — is *not* a placement signal; the per-tick move budget and the
//! per-session cooldown bound it.
//!
//! ## Hysteresis
//!
//! Two watermarks prevent flapping: planning starts only when some
//! shard's load exceeds `trigger_ratio × mean` and proceeds (within
//! budget) until the maximum falls under `settle_ratio × mean`; a system
//! sitting anywhere between the two watermarks is left alone.

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use crate::metrics::{LatencyHistogram, LATENCY_BUCKET_COUNT};
use crate::shard::ShardReport;
use fv_api::record::{self, Token};
use fv_api::ApiError;
pub use fv_api::BalanceMode;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Representative per-request cost (µs) of each latency bucket —
/// midpoints of the [`crate::metrics::LATENCY_BUCKETS_US`] bounds, used
/// to turn a histogram delta into an approximate busy-time delta.
const LATENCY_BUCKET_COST_US: [u64; LATENCY_BUCKET_COUNT] = [
    25, 75, 175, 375, 750, 3_000, 15_000, 62_500, 550_000, 2_000_000,
];

/// Approximate cumulative busy time (µs) a latency histogram represents.
fn approx_busy_us(hist: &LatencyHistogram) -> u64 {
    hist.counts
        .iter()
        .zip(LATENCY_BUCKET_COST_US.iter())
        .map(|(&count, &cost)| count.saturating_mul(cost))
        .sum()
}

/// Policy tuning knobs. All pure data — the same struct parameterizes the
/// server, the simulation harness, and the property tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceConfig {
    /// Maximum migrations planned per tick (the per-interval budget).
    pub budget: usize,
    /// High watermark: plan only when some shard's load exceeds
    /// `trigger_ratio × mean`. Clamped to ≥ 1.
    pub trigger_ratio: f64,
    /// Low watermark: stop planning once the maximum projected load is
    /// under `settle_ratio × mean`. Clamped into `[1, trigger_ratio]`.
    pub settle_ratio: f64,
    /// Ignore intervals whose total load (µs-weighted) is below this —
    /// a near-idle server is never worth churning.
    pub min_total_load: u64,
    /// Ticks a session is pinned after a move is planned for it,
    /// successful or not.
    pub cooldown_ticks: u64,
}

impl Default for BalanceConfig {
    fn default() -> Self {
        BalanceConfig {
            budget: 2,
            trigger_ratio: 1.5,
            settle_ratio: 1.15,
            min_total_load: 1_000,
            cooldown_ticks: 8,
        }
    }
}

/// One session's load contribution within a [`ShardLoad`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionLoad {
    /// Session name.
    pub session: String,
    /// Interval load in the policy's µs-weighted units.
    pub load: u64,
    /// Excluded from planning: a move is already in flight or the
    /// session is cooling down from a recent one.
    pub pinned: bool,
}

/// One shard's load over one interval: everything the pure policy sees of
/// it. No clocks, no sockets, no hidden state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Un-movable pressure (queued jobs, µs-weighted) counted into the
    /// shard's total but never into any session.
    pub queued_load: u64,
    /// Movable load, per session.
    pub sessions: Vec<SessionLoad>,
}

impl ShardLoad {
    /// The shard's total load: queued pressure plus every session.
    pub fn total(&self) -> u64 {
        self.queued_load
            + self
                .sessions
                .iter()
                .map(|s| s.load)
                .fold(0u64, u64::saturating_add)
    }
}

/// One planned migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovePlan {
    /// Session to move.
    pub session: String,
    /// Shard it currently lives on.
    pub from: usize,
    /// Destination shard.
    pub to: usize,
    /// The session load the plan was based on (for reporting).
    pub load: u64,
}

/// The pure policy: plan up to `cfg.budget` migrations that reduce the
/// load imbalance across `shards` (any order; shard indices need not be
/// contiguous). See the module docs for the invariants;
/// notably every greedy pick keeps the moved load strictly under the
/// donor–receiver gap, so every move strictly lowers the pair's maximum
/// — applying a plan monotonically narrows the spread, and a "whale"
/// session that *is* the imbalance is left alone (moving it would only
/// relocate the hotspot).
pub fn plan_moves(shards: &[ShardLoad], cfg: &BalanceConfig) -> Vec<MovePlan> {
    let n = shards.len();
    if n < 2 || cfg.budget == 0 {
        return Vec::new();
    }
    let mut loads: Vec<u64> = shards.iter().map(ShardLoad::total).collect();
    let total = loads.iter().fold(0u64, |a, &b| a.saturating_add(b));
    if total < cfg.min_total_load.max(1) {
        return Vec::new();
    }
    let mean = total as f64 / n as f64;
    let trigger_ratio = cfg.trigger_ratio.max(1.0);
    let trigger = mean * trigger_ratio;
    let settle = mean * cfg.settle_ratio.clamp(1.0, trigger_ratio);
    // Hysteresis, high watermark: if nothing exceeds the trigger the
    // system is (still) balanced enough — plan nothing.
    if loads.iter().all(|&l| (l as f64) <= trigger) {
        return Vec::new();
    }
    let mut moved: BTreeSet<&str> = BTreeSet::new();
    let mut moves: Vec<MovePlan> = Vec::new();
    while moves.len() < cfg.budget {
        let donor = argmax(&loads);
        let receiver = argmin(&loads);
        if donor == receiver {
            break;
        }
        // Hysteresis, low watermark: projected max is settled — stop.
        if (loads[donor] as f64) <= settle {
            break;
        }
        let gap = loads[donor] - loads[receiver];
        // Two-tier candidate pick, largest first, ties broken on the
        // lexicographically first name (fully deterministic):
        //
        // 1. Prefer a session whose load fits half the gap — the
        //    receiver ends at or below the donor's remainder, so the
        //    donor stays the pair's max. This keeps a whale parked while
        //    its cheap shard-mates flee around it.
        // 2. Failing that, accept any session with `load < gap` — the
        //    receiver still ends strictly below the donor's pre-move
        //    load, so the pair's max strictly shrinks. This is what
        //    spreads a flash crowd of equally-huge sessions onto
        //    near-idle shards.
        //
        // Either way max(donor', receiver') < donor: a move can never
        // flip or merely relocate the hotspot.
        let eligible =
            |s: &&SessionLoad| !s.pinned && !moved.contains(s.session.as_str()) && s.load > 0;
        let largest = |a: &&SessionLoad, b: &&SessionLoad| {
            a.load.cmp(&b.load).then_with(|| b.session.cmp(&a.session))
        };
        let candidates = &shards[donor].sessions;
        let pick = candidates
            .iter()
            .filter(eligible)
            .filter(|s| s.load.saturating_mul(2) <= gap)
            .max_by(largest)
            .or_else(|| {
                candidates
                    .iter()
                    .filter(eligible)
                    .filter(|s| s.load < gap)
                    .max_by(largest)
            });
        let Some(pick) = pick else {
            // Only pinned sessions or whales left on the hottest shard;
            // nothing productive remains this tick.
            break;
        };
        moved.insert(pick.session.as_str());
        loads[donor] -= pick.load;
        loads[receiver] += pick.load;
        moves.push(MovePlan {
            session: pick.session.clone(),
            from: shards[donor].shard,
            to: shards[receiver].shard,
            load: pick.load,
        });
    }
    moves
}

/// Index of the maximum (first wins ties — deterministic).
fn argmax(loads: &[u64]) -> usize {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate() {
        if l > loads[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimum (first wins ties — deterministic).
fn argmin(loads: &[u64]) -> usize {
    let mut best = 0;
    for (i, &l) in loads.iter().enumerate() {
        if l < loads[best] {
            best = i;
        }
    }
    best
}

// ── tick state ──────────────────────────────────────────────────────────

/// Lifecycle of one recorded move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveOutcome {
    /// Planned, not yet resolved.
    InFlight,
    /// Migration completed.
    Done,
    /// Migration failed or went stale; the session never left its source
    /// shard.
    Failed,
}

impl Token for MoveOutcome {
    fn put(&self, out: &mut String) {
        out.push_str(match self {
            MoveOutcome::InFlight => "inflight",
            MoveOutcome::Done => "done",
            MoveOutcome::Failed => "failed",
        });
    }

    fn get(token: &str) -> Option<MoveOutcome> {
        match token {
            "inflight" => Some(MoveOutcome::InFlight),
            "done" => Some(MoveOutcome::Done),
            "failed" => Some(MoveOutcome::Failed),
            _ => None,
        }
    }
}

fv_api::wire_record! {
    /// One decision the balancer took, for the `balance` status reply: a
    /// `move <session> <from> <to>` row.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MoveRecord {
        /// Session moved.
        pub session: String => _,
        /// Source shard.
        pub from: usize => _,
        /// Destination shard.
        pub to: usize => _,
        /// Tick the move was planned on.
        pub tick: u64 => "tick",
        /// Session load the decision was based on.
        pub load: u64 => "load",
        /// What became of it.
        pub outcome: MoveOutcome => "outcome",
    }
}

/// How many recent decisions the status reply retains.
const RECENT_MOVES: usize = 16;

/// Deterministic, clock-free balancer state: cumulative shard reports in,
/// migration plans out, with per-session cooldowns tracked by tick
/// number. The server advances it on a wall-clock interval; tests and
/// the simulation harness advance it explicitly.
#[derive(Debug)]
pub struct Balancer {
    /// Current mode; [`Balancer::tick`] plans nothing when `Off`.
    mode: BalanceMode,
    cfg: BalanceConfig,
    tick: u64,
    /// Cumulative per-session request totals at the previous tick: the
    /// baseline of each session seen before.
    last_session_requests: BTreeMap<String, u64>,
    /// Cumulative per-shard (requests, busy-µs) at the previous tick.
    last_shard: BTreeMap<usize, (u64, u64)>,
    /// Tick each cooling session's move was planned on.
    last_move: BTreeMap<String, u64>,
    planned: u64,
    completed: u64,
    failed: u64,
    recent: VecDeque<MoveRecord>,
}

impl Balancer {
    /// Fresh balancer.
    pub fn new(mode: BalanceMode, cfg: BalanceConfig) -> Balancer {
        Balancer {
            mode,
            cfg,
            tick: 0,
            last_session_requests: BTreeMap::new(),
            last_shard: BTreeMap::new(),
            last_move: BTreeMap::new(),
            planned: 0,
            completed: 0,
            failed: 0,
            recent: VecDeque::new(),
        }
    }

    /// The current mode.
    pub fn mode(&self) -> BalanceMode {
        self.mode
    }

    /// Set the mode. Nothing is observed while `Off`, so a flip to `Auto`
    /// forgets the baselines: its first tick only takes new ones.
    pub fn set_mode(&mut self, mode: BalanceMode) {
        if mode == BalanceMode::Auto && self.mode != BalanceMode::Auto {
            self.last_session_requests.clear();
            self.last_shard.clear();
        }
        self.mode = mode;
    }

    /// Ticks elapsed.
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// `(planned, completed, failed)` move counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.planned, self.completed, self.failed)
    }

    /// Advance one tick: fold the shards' cumulative reports (with each
    /// shard's queue depth, by index, in `queued`) into interval deltas,
    /// refresh cooldowns, and (in `Auto` mode) plan migrations. A session
    /// or shard seen for the first time — new, recovered with its
    /// lifetime counters after a reboot, or present at a flip to `Auto` —
    /// only sets its baseline: its delta is 0.
    /// `in_flight` names sessions a move is already under way for. Every
    /// planned session enters cooldown immediately — whatever the move's
    /// eventual outcome.
    pub fn tick(
        &mut self,
        reports: &[ShardReport],
        queued: &[usize],
        in_flight: impl Fn(&str) -> bool,
    ) -> Vec<MovePlan> {
        self.tick += 1;
        let tick = self.tick;
        let cooldown = self.cfg.cooldown_ticks;
        self.last_move
            .retain(|_, planned_at| tick.saturating_sub(*planned_at) < cooldown);

        let mut shards = Vec::with_capacity(reports.len());
        let mut next_session_requests: BTreeMap<String, u64> = BTreeMap::new();
        for report in reports {
            let busy_total = approx_busy_us(&report.latency);
            let (last_req, last_busy) = self
                .last_shard
                .get(&report.shard)
                .copied()
                .unwrap_or((report.requests, busy_total));
            let d_req = report.requests.saturating_sub(last_req);
            let d_busy = busy_total.saturating_sub(last_busy);
            self.last_shard
                .insert(report.shard, (report.requests, busy_total));
            // The shard's per-request cost this interval, in µs. Clamped
            // ≥ 1 so request counts still register when the histogram is
            // empty (simulations) or the interval saw no completions.
            let cost_us = (d_busy / d_req.max(1)).max(1);
            let mut sessions = Vec::with_capacity(report.sessions.len());
            for s in &report.sessions {
                let last = self
                    .last_session_requests
                    .get(&s.name)
                    .copied()
                    .unwrap_or(s.requests);
                let d = s.requests.saturating_sub(last);
                next_session_requests.insert(s.name.clone(), s.requests);
                let load = d.saturating_mul(cost_us) + (s.dataset_bytes >> 20);
                let pinned = in_flight(&s.name) || self.last_move.contains_key(&s.name);
                sessions.push(SessionLoad {
                    session: s.name.clone(),
                    load,
                    pinned,
                });
            }
            let queued = queued.get(report.shard).copied().unwrap_or(0);
            shards.push(ShardLoad {
                shard: report.shard,
                queued_load: (queued as u64).saturating_mul(cost_us),
                sessions,
            });
        }
        // Sessions that vanished (closed) drop their baselines; a
        // recreated namesake is seen anew.
        self.last_session_requests = next_session_requests;
        self.last_shard
            .retain(|shard, _| reports.iter().any(|r| r.shard == *shard));

        if self.mode != BalanceMode::Auto {
            return Vec::new();
        }
        let plans = plan_moves(&shards, &self.cfg);
        for plan in &plans {
            self.last_move.insert(plan.session.clone(), tick);
            self.planned += 1;
            if self.recent.len() == RECENT_MOVES {
                self.recent.pop_front();
            }
            self.recent.push_back(MoveRecord {
                tick,
                session: plan.session.clone(),
                from: plan.from,
                to: plan.to,
                load: plan.load,
                outcome: MoveOutcome::InFlight,
            });
        }
        plans
    }

    /// Record how a previously planned move ended. The session's cooldown
    /// is unaffected — it started when the move was planned, so a failed
    /// target is not retried until the cooldown lapses.
    pub fn record_outcome(&mut self, session: &str, ok: bool) {
        if ok {
            self.completed += 1;
        } else {
            self.failed += 1;
        }
        if let Some(record) = self
            .recent
            .iter_mut()
            .rev()
            .find(|r| r.session == session && r.outcome == MoveOutcome::InFlight)
        {
            record.outcome = if ok {
                MoveOutcome::Done
            } else {
                MoveOutcome::Failed
            };
        }
    }

    /// Snapshot for the `balance` wire reply.
    pub fn status(&self) -> BalanceStatus {
        BalanceStatus {
            mode: self.mode,
            ticks: self.tick,
            planned: self.planned,
            completed: self.completed,
            failed: self.failed,
            cooling: self.last_move.len(),
            budget: self.cfg.budget,
            trigger_ratio: self.cfg.trigger_ratio,
            settle_ratio: self.cfg.settle_ratio,
            cooldown_ticks: self.cfg.cooldown_ticks,
            min_total_load: self.cfg.min_total_load,
            recent: self.recent.iter().cloned().collect(),
        }
    }
}

// ── status wire text ────────────────────────────────────────────────────

fv_api::wire_record! {
    /// Typed reply of the `balance` control line; [`format_balance`] /
    /// [`parse_balance`] are exact inverses, mirroring the `stats` plane.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BalanceStatus {
        /// Current mode.
        pub mode: BalanceMode => "mode",
        /// Ticks elapsed since startup.
        pub ticks: u64 => "ticks",
        /// Moves ever planned.
        pub planned: u64 => "planned",
        /// Moves that completed.
        pub completed: u64 => "completed",
        /// Moves that failed (the session never left its source shard).
        pub failed: u64 => "failed",
        /// Sessions currently in cooldown.
        pub cooling: usize => "cooling",
        /// Per-tick migration budget.
        pub budget: usize => "budget",
        /// High watermark ratio.
        pub trigger_ratio: f64 => "trigger",
        /// Low watermark ratio.
        pub settle_ratio: f64 => "settle",
        /// Cooldown length, in ticks.
        pub cooldown_ticks: u64 => "cooldown",
        /// Minimum interval load worth balancing.
        pub min_total_load: u64 => "min_load",
        /// Most recent decisions, oldest first (bounded ring): one `move`
        /// row each.
        pub recent: Vec<MoveRecord> => [rows "move"],
    }
}

/// Canonical reply text for the `balance` control line; inverse of
/// [`parse_balance`].
pub fn format_balance(status: &BalanceStatus) -> String {
    record::write_text("balance", status)
}

/// Parse a `balance` reply back into the typed status.
pub fn parse_balance(text: &str) -> Result<BalanceStatus, ApiError> {
    record::read_text("balance", text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::SessionReport;

    fn shard(idx: usize, sessions: &[(&str, u64)]) -> ShardLoad {
        ShardLoad {
            shard: idx,
            queued_load: 0,
            sessions: sessions
                .iter()
                .map(|&(name, load)| SessionLoad {
                    session: name.to_string(),
                    load,
                    pinned: false,
                })
                .collect(),
        }
    }

    /// A shard's cumulative report: each session's attempted-request
    /// total, the shard's the sum of them.
    fn report(idx: usize, latency: LatencyHistogram, sessions: &[(&str, u64)]) -> ShardReport {
        ShardReport {
            shard: idx,
            requests: sessions.iter().map(|&(_, n)| n).sum(),
            latency,
            sessions: sessions
                .iter()
                .map(|&(name, requests)| SessionReport {
                    n_datasets: 0,
                    requests,
                    dataset_bytes: 0,
                    name: name.to_string(),
                })
                .collect(),
            ..ShardReport::default()
        }
    }

    fn idle(idx: usize, sessions: &[(&str, u64)]) -> ShardReport {
        report(idx, LatencyHistogram::new(), sessions)
    }

    fn tick(bal: &mut Balancer, reports: &[ShardReport]) -> Vec<MovePlan> {
        bal.tick(reports, &[], |_| false)
    }

    /// An auto balancer that has seen `reports`' shards and sessions once,
    /// idle, so its next tick counts their whole totals.
    fn baselined(reports: &[ShardReport]) -> Balancer {
        let mut bal = Balancer::new(BalanceMode::Auto, cfg());
        let idle_once: Vec<ShardReport> = reports
            .iter()
            .map(|r| {
                let names: Vec<(&str, u64)> =
                    r.sessions.iter().map(|s| (s.name.as_str(), 0)).collect();
                idle(r.shard, &names)
            })
            .collect();
        assert_eq!(
            tick(&mut bal, &idle_once),
            [],
            "a first sight plans nothing"
        );
        bal
    }

    fn cfg() -> BalanceConfig {
        BalanceConfig {
            budget: 4,
            trigger_ratio: 1.5,
            settle_ratio: 1.1,
            min_total_load: 1,
            cooldown_ticks: 4,
        }
    }

    #[test]
    fn skew_is_planned_toward_the_idle_shard() {
        let shards = [
            shard(0, &[("a", 100), ("b", 100), ("c", 100), ("d", 100)]),
            shard(1, &[]),
        ];
        let moves = plan_moves(&shards, &cfg());
        assert!(!moves.is_empty());
        for m in &moves {
            assert_eq!(m.from, 0);
            assert_eq!(m.to, 1);
        }
        // two moves land 200/200 — settled under 1.1×mean; no third move
        assert_eq!(moves.len(), 2);
        let names: Vec<&str> = moves.iter().map(|m| m.session.as_str()).collect();
        assert_eq!(names, ["a", "b"], "load ties break on name, smallest first");
    }

    #[test]
    fn balanced_and_empty_loads_are_fixpoints() {
        assert_eq!(plan_moves(&[], &cfg()), []);
        let even = [shard(0, &[("a", 50)]), shard(1, &[("b", 50)])];
        assert_eq!(plan_moves(&even, &cfg()), []);
    }

    #[test]
    fn hysteresis_window_holds_fire() {
        // max = 120, mean = 100: above settle (1.1) but below trigger
        // (1.5) — the in-between band must be left alone.
        let shards = [shard(0, &[("a", 60), ("b", 60)]), shard(1, &[("c", 80)])];
        assert_eq!(plan_moves(&shards, &cfg()), []);
    }

    #[test]
    fn whale_alone_is_never_moved() {
        // Moving the only loaded session just relocates the hotspot.
        let shards = [shard(0, &[("whale", 1000)]), shard(1, &[])];
        assert_eq!(plan_moves(&shards, &cfg()), []);
        // …but its shard-mates are shed around it.
        let shards = [
            shard(0, &[("whale", 1000), ("m1", 60), ("m2", 60)]),
            shard(1, &[]),
        ];
        let moves = plan_moves(&shards, &cfg());
        assert!(!moves.is_empty());
        assert!(moves.iter().all(|m| m.session != "whale"));
    }

    #[test]
    fn pinned_sessions_and_budget_are_respected() {
        let mut donor = shard(0, &[("a", 100), ("b", 100), ("c", 100), ("d", 100)]);
        donor.sessions[0].pinned = true; // "a" cooling down
        let tight = BalanceConfig { budget: 1, ..cfg() };
        let moves = plan_moves(&[donor, shard(1, &[])], &tight);
        assert_eq!(moves.len(), 1);
        assert_ne!(moves[0].session, "a");
    }

    #[test]
    fn queued_load_counts_but_never_moves() {
        let hot = ShardLoad {
            queued_load: 400,
            ..shard(0, &[("s", 50)])
        };
        let moves = plan_moves(&[hot, shard(1, &[])], &cfg());
        // the queue pressure makes shard 0 hot; the only relief valve is
        // its one (small) session
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].session, "s");
    }

    #[test]
    fn min_total_load_gates_idle_churn() {
        let shards = [shard(0, &[("a", 3), ("b", 3)]), shard(1, &[])];
        let gated = BalanceConfig {
            min_total_load: 100,
            ..cfg()
        };
        assert_eq!(plan_moves(&shards, &gated), []);
    }

    #[test]
    fn balancer_uses_request_deltas_not_totals() {
        let mut bal = Balancer::new(BalanceMode::Auto, cfg());
        // Tick 1: first sight only takes baselines, however skewed the
        // totals.
        let history = [
            idle(0, &[("hot", 5000), ("warm", 4000)]),
            idle(1, &[("calm", 100)]),
        ];
        assert_eq!(tick(&mut bal, &history), []);
        // Tick 2: this interval's deltas are skewed.
        let reports = [
            idle(0, &[("hot", 5500), ("warm", 4400)]),
            idle(1, &[("calm", 110)]),
        ];
        let plans = tick(&mut bal, &reports);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.from == 0 && p.to == 1));
        // The planned sessions are cooling: identical totals (zero
        // delta) ⇒ balanced ⇒ nothing planned, and even renewed skew
        // within the cooldown cannot re-move them.
        assert_eq!(tick(&mut bal, &reports), []);
        let (planned, _, _) = bal.counters();
        assert_eq!(planned as usize, plans.len());
        assert!(bal.status().cooling >= plans.len());
    }

    #[test]
    fn queue_depth_and_in_flight_moves_are_read_beside_the_reports() {
        let reports = [
            idle(0, &[("a", 10), ("b", 10)]),
            idle(1, &[("s", 10), ("t", 10)]),
        ];
        let fresh = || baselined(&reports);
        // Even by requests; shard 1's queue (by shard index) makes it
        // the hot one, and of its sessions only the one not already
        // moving may go.
        assert_eq!(fresh().tick(&reports, &[], |_| false), []);
        let plans = fresh().tick(&reports, &[0, 50], |name| name == "s");
        assert_eq!(plans.len(), 1, "{plans:?}");
        assert_eq!((plans[0].session.as_str(), plans[0].from), ("t", 1));
        assert_eq!(fresh().tick(&reports, &[0, 50], |_| true), []);
    }

    #[test]
    fn off_mode_observes_but_never_plans() {
        let mut bal = Balancer::new(BalanceMode::Off, cfg());
        let skew = |n| [idle(0, &[("a", n), ("b", n)]), idle(1, &[])];
        assert_eq!(tick(&mut bal, &skew(450)), []);
        assert_eq!(tick(&mut bal, &skew(900)), [], "skewed deltas, but off");
        assert_eq!(bal.ticks(), 2);
        // Flipping to auto forgets the baselines: the next tick only takes
        // fresh ones — no stale burst from the Off period — and the tick
        // after plans on that interval's skew.
        bal.set_mode(BalanceMode::Auto);
        assert_eq!(tick(&mut bal, &skew(1800)), []);
        assert!(!tick(&mut bal, &skew(2700)).is_empty());
    }

    #[test]
    fn latency_weighting_scales_per_shard_cost() {
        // Same request counts, but shard 0's histogram says each request
        // cost ~3ms while shard 1's cost ~25µs: shard 0 must read hotter.
        let mut slow = LatencyHistogram::new();
        slow.counts[5] = 100; // ≈3000µs each
        let mut fast = LatencyHistogram::new();
        fast.counts[0] = 100; // ≈25µs each
        let reports = [
            report(0, slow, &[("s0", 60), ("s1", 40)]),
            report(1, fast, &[("f0", 100)]),
        ];
        let plans = tick(&mut baselined(&reports), &reports);
        assert!(!plans.is_empty(), "busy-time imbalance must trigger");
        assert!(plans.iter().all(|p| p.from == 0 && p.to == 1));
    }

    #[test]
    fn failed_moves_count_and_keep_their_cooldown() {
        let skew = [idle(0, &[("a", 400), ("b", 400)]), idle(1, &[])];
        let mut bal = baselined(&skew);
        let plans = tick(&mut bal, &skew);
        assert_eq!(plans.len(), 1, "one move settles 800/0 into 400/400");
        bal.record_outcome(&plans[0].session, false);
        let status = bal.status();
        assert_eq!(status.failed, 1);
        assert_eq!(status.recent.last().unwrap().outcome, MoveOutcome::Failed);
        assert!(status.cooling >= 1, "failed session still cools down");
    }

    // The `balance` text itself is pinned, and walked format → parse →
    // ==, by `tests/adversarial.rs` beside the other transport records.

    #[test]
    fn garbage_status_is_a_parse_error() {
        for bad in [
            "",
            "wat",
            "balance mode=sideways ticks=0 planned=0 completed=0 failed=0 cooling=0 budget=0 trigger=1 settle=1 cooldown=0 min_load=0",
            "balance mode=auto ticks=0",
            "balance mode=auto ticks=0 planned=0 completed=0 failed=0 cooling=0 budget=0 trigger=1 settle=1 cooldown=0 min_load=0\n  move x",
        ] {
            assert!(parse_balance(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
