//! Deterministic load-simulation harness for the rebalancing policy.
//!
//! The policy core is a pure function and the [`Balancer`] around it is
//! clock-free, so thousands of synthetic ticks replay here in
//! milliseconds with **no server, no sockets, no wall clock**: the
//! simulator owns a session→shard placement map, feeds the balancer
//! scripted per-tick demand as cumulative [`ShardReport`]s (the very
//! reports the server gathers from its shards), applies the plans it
//! gets back, and checks the safety invariants on *every* tick:
//!
//! - a plan never exceeds the per-tick budget;
//! - a move never targets its source shard (and both ends are in range);
//! - a move's source matches the session's actual placement;
//! - no session moves twice within its cooldown (no-thrash);
//! - a "whale" session that *is* the imbalance is never bounced around.
//!
//! Five named load patterns drive it — uniform, zipfian-skewed,
//! single-whale, flash-crowd, draining-shard — each asserting
//! convergence (bounded max/mean shard-load ratio) where convergence is
//! possible. A seeded xorshift generator makes every run byte-for-byte
//! reproducible; running a scenario twice must yield identical move
//! histories.
//!
//! The property tests at the bottom hit `plan_moves` directly with
//! random shard loads: source≠target, budget respect, pinned exclusion,
//! the balanced/empty fixpoint, and spread monotonicity.

#![deny(clippy::disallowed_types, reason = "seeded: no wall clock")]

use fv_net::balance::{
    plan_moves, BalanceConfig, BalanceMode, Balancer, MovePlan, SessionLoad, ShardLoad,
};
use fv_net::shard::{SessionReport, ShardReport};
use std::collections::BTreeMap;

/// Deterministic xorshift64* — the simulator's only randomness source.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// One move the simulator applied, for history/no-thrash assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AppliedMove {
    tick: u64,
    session: String,
    from: usize,
    to: usize,
}

struct Sim {
    n_shards: usize,
    bal: Balancer,
    cfg: BalanceConfig,
    /// session → shard, the simulated cluster state.
    placement: BTreeMap<String, usize>,
    /// session → cumulative attempted requests.
    totals: BTreeMap<String, u64>,
    /// Every applied move, in order.
    history: Vec<AppliedMove>,
    tick: u64,
}

impl Sim {
    fn new(n_shards: usize, cfg: BalanceConfig, placement: &[(&str, usize)]) -> Sim {
        Sim {
            n_shards,
            bal: Balancer::new(BalanceMode::Auto, cfg),
            cfg,
            placement: placement
                .iter()
                .map(|&(s, shard)| (s.to_string(), shard))
                .collect(),
            totals: placement.iter().map(|&(s, _)| (s.to_string(), 0)).collect(),
            history: Vec::new(),
            tick: 0,
        }
    }

    /// One tick: add `demand` (requests this interval, per session) to
    /// the cumulative totals, observe, plan, verify the invariants, and
    /// apply the moves.
    fn tick(&mut self, demand: &[(String, u64)]) -> Vec<MovePlan> {
        self.tick += 1;
        for (session, d) in demand {
            *self
                .totals
                .get_mut(session)
                .unwrap_or_else(|| panic!("demand for unknown session {session}")) += d;
        }
        let reports = self.reports();
        let plans = self.bal.tick(&reports, &[], |_| false);
        self.verify_and_apply(&plans);
        plans
    }

    /// The shards' cumulative reports under the current placement.
    /// Histograms stay empty, so session loads degrade to pure request
    /// deltas.
    fn reports(&self) -> Vec<ShardReport> {
        (0..self.n_shards)
            .map(|shard| {
                let sessions: Vec<SessionReport> = self
                    .placement
                    .iter()
                    .filter(|&(_, &s)| s == shard)
                    .map(|(name, _)| SessionReport {
                        n_datasets: 0,
                        requests: self.totals[name],
                        dataset_bytes: 0,
                        name: name.clone(),
                    })
                    .collect();
                ShardReport {
                    shard,
                    requests: sessions.iter().map(|s| s.requests).sum(),
                    sessions,
                    ..ShardReport::default()
                }
            })
            .collect()
    }

    fn verify_and_apply(&mut self, plans: &[MovePlan]) {
        assert!(
            plans.len() <= self.cfg.budget,
            "tick {}: {} moves exceed budget {}",
            self.tick,
            plans.len(),
            self.cfg.budget
        );
        for plan in plans {
            assert_ne!(
                plan.to, plan.from,
                "tick {}: move targets its source shard",
                self.tick
            );
            assert!(plan.from < self.n_shards && plan.to < self.n_shards);
            assert_eq!(
                self.placement[&plan.session], plan.from,
                "tick {}: plan's source disagrees with actual placement of {}",
                self.tick, plan.session
            );
            // No-thrash: the same session must not have moved within its
            // cooldown window.
            if let Some(previous) = self
                .history
                .iter()
                .rev()
                .find(|m| m.session == plan.session)
            {
                assert!(
                    self.tick - previous.tick >= self.cfg.cooldown_ticks,
                    "tick {}: session {} moved again only {} tick(s) after tick {} \
                     (cooldown {})",
                    self.tick,
                    plan.session,
                    self.tick - previous.tick,
                    previous.tick,
                    self.cfg.cooldown_ticks
                );
            }
            self.placement.insert(plan.session.clone(), plan.to);
            self.bal.record_outcome(&plan.session, true);
            self.history.push(AppliedMove {
                tick: self.tick,
                session: plan.session.clone(),
                from: plan.from,
                to: plan.to,
            });
        }
    }

    /// Per-shard load under `demand` and the *current* placement — the
    /// convergence metric patterns assert on.
    fn shard_loads(&self, demand: &[(String, u64)]) -> Vec<u64> {
        let mut loads = vec![0u64; self.n_shards];
        for (session, d) in demand {
            loads[self.placement[session]] += d;
        }
        loads
    }
}

/// Convergence bound: the hottest shard carries at most `ratio × mean`.
fn assert_converged(loads: &[u64], ratio: f64, context: &str) {
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len() as f64;
    let max = *loads.iter().max().unwrap() as f64;
    assert!(
        max <= mean * ratio,
        "{context}: max shard load {max} exceeds {ratio}×mean ({mean:.1}); loads {loads:?}"
    );
}

fn cfg() -> BalanceConfig {
    BalanceConfig {
        budget: 2,
        trigger_ratio: 1.4,
        settle_ratio: 1.1,
        min_total_load: 16,
        cooldown_ticks: 4,
    }
}

// ── the five named load patterns ────────────────────────────────────────

#[test]
fn uniform_load_is_a_fixpoint() {
    // 16 sessions, 4 per shard, identical demand: the balancer must not
    // touch a balanced system, ever.
    let names: Vec<String> = (0..16).map(|i| format!("u{i}")).collect();
    let placement: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i % 4))
        .collect();
    let mut sim = Sim::new(4, cfg(), &placement);
    let demand: Vec<(String, u64)> = names.iter().map(|n| (n.clone(), 50)).collect();
    for _ in 0..200 {
        let plans = sim.tick(&demand);
        assert_eq!(plans, [], "uniform load must plan nothing");
    }
    assert!(sim.history.is_empty());
}

#[test]
fn zipfian_skew_converges_and_stays_put() {
    // 24 sessions with zipf-ish demand (weight ∝ 1/rank), all parked on
    // shard 0 of 4 — the worst-case cold start. The balancer must fan
    // them out until the hottest shard is within the settle band, then
    // go quiet.
    let names: Vec<String> = (0..24).map(|i| format!("z{i:02}")).collect();
    let placement: Vec<(&str, usize)> = names.iter().map(|n| (n.as_str(), 0)).collect();
    let mut sim = Sim::new(4, cfg(), &placement);
    let mut rng = Rng::new(0x5EED);
    let demand: Vec<(String, u64)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), 1200 / (i as u64 + 1) + rng.below(5)))
        .collect();
    for _ in 0..60 {
        sim.tick(&demand);
    }
    assert!(!sim.history.is_empty(), "skew must trigger moves");
    assert_converged(&sim.shard_loads(&demand), 1.4, "zipfian");
    // Once converged, a long steady tail must not thrash: no further
    // moves at all across another 100 ticks.
    let settled = sim.history.len();
    for _ in 0..100 {
        sim.tick(&demand);
    }
    assert_eq!(
        sim.history.len(),
        settled,
        "steady state after convergence must be move-free"
    );
}

#[test]
fn zipfian_runs_are_deterministic() {
    let run = |seed: u64| -> Vec<AppliedMove> {
        let names: Vec<String> = (0..24).map(|i| format!("z{i:02}")).collect();
        let placement: Vec<(&str, usize)> = names.iter().map(|n| (n.as_str(), 0)).collect();
        let mut sim = Sim::new(4, cfg(), &placement);
        let mut rng = Rng::new(seed);
        let demand: Vec<(String, u64)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), 1200 / (i as u64 + 1) + rng.below(5)))
            .collect();
        for _ in 0..60 {
            sim.tick(&demand);
        }
        sim.history
    };
    assert_eq!(run(42), run(42), "same seed ⇒ identical move history");
}

#[test]
fn single_whale_is_left_alone_and_its_neighbors_flee() {
    // One session carries ~80% of the demand; 15 small ones share its
    // shard. Moving the whale only relocates the hotspot, so the policy
    // must shed the *small* sessions and never touch the whale.
    let mut placement: Vec<(&str, usize)> = vec![("whale", 0)];
    let names: Vec<String> = (0..15).map(|i| format!("m{i:02}")).collect();
    placement.extend(names.iter().map(|n| (n.as_str(), 0)));
    let mut sim = Sim::new(4, cfg(), &placement);
    let mut demand: Vec<(String, u64)> = vec![("whale".to_string(), 4000)];
    demand.extend(names.iter().map(|n| (n.clone(), 64)));
    for _ in 0..60 {
        sim.tick(&demand);
    }
    assert!(!sim.history.is_empty());
    assert!(
        sim.history.iter().all(|m| m.session != "whale"),
        "the whale must never move: {:?}",
        sim.history
    );
    // Everything else left the whale's shard; the whale's shard load is
    // the irreducible floor, the rest is spread.
    let loads = sim.shard_loads(&demand);
    assert_eq!(loads[0], 4000, "only the whale remains on shard 0");
    let others = &loads[1..];
    let spread_max = *others.iter().max().unwrap();
    let spread_min = *others.iter().min().unwrap();
    assert!(
        spread_max <= spread_min.max(1) * 2,
        "non-whale load must spread: {loads:?}"
    );
}

#[test]
fn flash_crowd_is_absorbed_within_budget_and_cooldown() {
    // Start balanced under light uniform load; at tick 20 the sessions
    // on shard 1 spike 40×. The balancer must react (move load off the
    // hot shard), never exceed the budget in any tick, and never move
    // one session twice within its cooldown — both checked by the sim
    // on every tick.
    let names: Vec<String> = (0..16).map(|i| format!("f{i}")).collect();
    let placement: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i % 4))
        .collect();
    let mut sim = Sim::new(4, cfg(), &placement);
    let calm: Vec<(String, u64)> = names.iter().map(|n| (n.clone(), 20)).collect();
    let crowd: Vec<(String, u64)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), if i % 4 == 1 { 800 } else { 20 }))
        .collect();
    for _ in 0..20 {
        let plans = sim.tick(&calm);
        assert_eq!(plans, [], "calm phase is balanced");
    }
    for _ in 0..40 {
        sim.tick(&crowd);
    }
    assert!(
        sim.history.iter().any(|m| m.from == 1),
        "the crowd's shard must shed load"
    );
    assert_converged(&sim.shard_loads(&crowd), 1.5, "flash crowd");
    // Crowd subsides: back to calm. The calm distribution is whatever
    // the crowd left behind; it may warrant a few correction moves but
    // must then go quiet (no oscillation).
    for _ in 0..40 {
        sim.tick(&calm);
    }
    let settled = sim.history.len();
    for _ in 0..60 {
        sim.tick(&calm);
    }
    assert_eq!(sim.history.len(), settled, "post-crowd state must settle");
}

#[test]
fn draining_shard_is_refilled() {
    // Shard 0's sessions go idle at tick 15 while everyone else stays
    // busy: the drained shard becomes the coldest and the balancer must
    // route load toward it. Three busy shards of four equal sessions sit
    // at 4/3 ≈ 1.33×mean, so this scenario runs with a tighter trigger
    // than the default — the knob exists exactly for this shape.
    let names: Vec<String> = (0..16).map(|i| format!("d{i}")).collect();
    let placement: Vec<(&str, usize)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i % 4))
        .collect();
    let eager = BalanceConfig {
        trigger_ratio: 1.25,
        ..cfg()
    };
    let mut sim = Sim::new(4, eager, &placement);
    let busy: Vec<(String, u64)> = names.iter().map(|n| (n.clone(), 100)).collect();
    let drained: Vec<(String, u64)> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.clone(), if i % 4 == 0 { 0 } else { 130 }))
        .collect();
    for _ in 0..15 {
        sim.tick(&busy);
    }
    let before = sim.history.len();
    for _ in 0..60 {
        sim.tick(&drained);
    }
    let refills: Vec<&AppliedMove> = sim.history[before..].iter().collect();
    assert!(!refills.is_empty(), "the drained shard must attract load");
    assert!(
        refills.iter().any(|m| m.to == 0),
        "moves must target the drained shard: {refills:?}"
    );
    assert_converged(&sim.shard_loads(&drained), 1.5, "draining shard");
}

// ── property tests over random shard loads ──────────────────────────────

use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;

#[derive(Debug, Clone)]
struct Case {
    shards: Vec<ShardLoad>,
    cfg: BalanceConfig,
}

fn arb_case() -> impl Strategy<Value = Case> {
    FnStrategy::new(|rng: &mut TestRng| {
        let n_shards = 2 + rng.below(5) as usize;
        let mut next_id = 0u32;
        let shards = (0..n_shards)
            .map(|shard| {
                let n_sessions = rng.below(6) as usize;
                ShardLoad {
                    shard,
                    queued_load: rng.below(200),
                    sessions: (0..n_sessions)
                        .map(|_| {
                            next_id += 1;
                            SessionLoad {
                                session: format!("s{next_id}"),
                                load: rng.below(1_000),
                                pinned: rng.below(4) == 0,
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        Case {
            shards,
            cfg: BalanceConfig {
                budget: rng.below(5) as usize,
                trigger_ratio: 1.0 + rng.unit_f64(),
                settle_ratio: 1.0 + rng.unit_f64() / 2.0,
                min_total_load: rng.below(500),
                cooldown_ticks: 1 + rng.below(8),
            },
        }
    })
}

proptest! {
    #[test]
    fn policy_invariants_hold_for_random_loads(case in arb_case()) {
        let Case { shards, cfg } = case;
        let plans = plan_moves(&shards, &cfg);
        prop_assert!(plans.len() <= cfg.budget, "budget exceeded");
        let mut seen = std::collections::BTreeSet::new();
        let mut loads: Vec<u64> = shards.iter().map(ShardLoad::total).collect();
        let spread_before =
            loads.iter().max().copied().unwrap_or(0) - loads.iter().min().copied().unwrap_or(0);
        for plan in &plans {
            prop_assert!(plan.from != plan.to, "move targets its source shard");
            let from = shards.iter().position(|s| s.shard == plan.from);
            let to = shards.iter().position(|s| s.shard == plan.to);
            prop_assert!(from.is_some() && to.is_some(), "move names unknown shards");
            let source = shards[from.unwrap()]
                .sessions
                .iter()
                .find(|s| s.session == plan.session);
            prop_assert!(source.is_some(), "moved session does not live on its source");
            let source = source.unwrap();
            prop_assert!(!source.pinned, "pinned session moved");
            prop_assert!(source.load == plan.load, "plan misreports the load");
            prop_assert!(seen.insert(plan.session.clone()), "session moved twice in one plan");
            loads[from.unwrap()] -= plan.load;
            loads[to.unwrap()] += plan.load;
        }
        // Applying the plan never widens the max−min spread.
        let spread_after =
            loads.iter().max().copied().unwrap_or(0) - loads.iter().min().copied().unwrap_or(0);
        prop_assert!(
            spread_after <= spread_before,
            "plan widened the spread: {spread_before} → {spread_after}"
        );
    }

    #[test]
    fn balanced_loads_are_fixpoints(case in arb_case()) {
        let Case { shards, cfg } = case;
        // Flatten the random loads into perfectly balanced ones: one
        // session of identical load per shard, no queue pressure.
        let balanced: Vec<ShardLoad> = shards
            .iter()
            .map(|s| ShardLoad {
                shard: s.shard,
                queued_load: 0,
                sessions: vec![SessionLoad {
                    session: format!("b{}", s.shard),
                    load: 500,
                    pinned: false,
                }],
            })
            .collect();
        prop_assert!(plan_moves(&balanced, &cfg).is_empty(), "balanced loads must be a fixpoint");
        prop_assert!(plan_moves(&[], &cfg).is_empty(), "no shards must be a fixpoint");
    }
}
