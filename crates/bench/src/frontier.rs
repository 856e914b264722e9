//! The frontier sweeps behind the `perturbation_frontier`,
//! `churn_frontier`, `adversary_frontier` and `scaling_frontier` bench
//! targets and the `perf_smoke` JSON record: each sweep's sizes, seeds,
//! horizons, floors, plans and predicates live here once, so the bench
//! targets' guardrails and the recorded numbers measure the same runs.
//!
//! The three fault sweeps exercise the fault-tolerant constructors of
//! arXiv 1903.05992 (and the paper's Global-Star) under one-shot
//! bursts, sustained Poisson churn, and targeted strikes; the scaling
//! sweep drives Table 2 constructors to the sizes only the sparse
//! bucket engine reaches.

use std::time::{Duration, Instant};

use netcon_analysis::availability::sweep_availability;
use netcon_analysis::knee::{periodic_adversary_plan, sweep_availability_vs_rate, RatePoint};
use netcon_analysis::repair::{sweep_repair_time, FaultSeverity};
use netcon_analysis::sweep::{SweepConfig, SweepTable};
use netcon_core::{
    AdversaryPolicy, BucketSim, ChurnPlan, CompiledTable, EngineView, EventSim, ExactEngine, Link,
    ProtocolBuilder, RuleProtocol,
};
use netcon_protocols::{cycle_cover, ft_line, ft_star, global_star, simple_global_line};

use crate::harness::scale;

/// Trials per size of the repair and churn sweeps: 40 at full
/// `NETCON_BENCH_SCALE`, never fewer than 4.
#[must_use]
pub fn sweep_trials() -> usize {
    scale(40).max(4)
}

/// Trials per rate rung of the adversary ladders: 12 at full scale,
/// never fewer than 3.
#[must_use]
pub fn rung_trials() -> usize {
    scale(12).max(3)
}

/// The mixed burst Maximum-Matching absorbs: one crash, one arrival,
/// one edge deletion.
pub const MATCHING_BURST: FaultSeverity = FaultSeverity {
    crashes: 1,
    arrivals: 1,
    edge_deletions: 1,
};

/// The damage Global-Star self-repairs: two deleted spokes, each
/// re-fired by `(c, p, 0) → (c, p, 1)`.
pub const STAR_SPOKES: FaultSeverity = FaultSeverity {
    crashes: 0,
    arrivals: 0,
    edge_deletions: 2,
};

fn matching_protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m = b.state("b");
    b.rule((a, a, Link::Off), (m, m, Link::On));
    b.build().expect("valid")
}

/// Repair-time sweeps ([`sweep_repair_time`]) of Maximum-Matching under
/// [`MATCHING_BURST`] and Global-Star under [`STAR_SPOKES`], in that
/// order, at n ∈ {25, 49} with `trials` trials per size.
///
/// The sizes are odd on purpose: a stabilized odd-n matching keeps
/// exactly one unmatched survivor, so the burst's single arrival has a
/// partner to find and the matching's repair column is non-degenerate.
#[must_use]
pub fn perturbation_frontier(trials: usize) -> (SweepTable, SweepTable) {
    let cfg = SweepConfig {
        sizes: vec![25, 49],
        trials,
        base_seed: 41,
    };
    let matching = sweep_repair_time(
        &cfg,
        &matching_protocol(),
        MATCHING_BURST,
        |v, fs| {
            (0..v.n())
                .filter(|&u| fs.is_alive(u) && v.state_index(u) == 0)
                .count()
                <= 1
        },
        1_000_000_000,
    );
    let star = sweep_repair_time(
        &cfg,
        &global_star::protocol(),
        STAR_SPOKES,
        global_star::is_stable_faulted,
        1_000_000_000,
    );
    (matching, star)
}

/// The symmetric per-draw arrival *and* departure rate of the churn
/// sweeps: one of each expected every 10k draws.
pub const CHURN_RATE: f64 = 1e-4;

/// Churn horizon of the FT-Global-Star sweep, in draws. FT-star
/// converges in Θ(n² log n) draws, so at its sizes this holds many
/// stable windows between events.
pub const STAR_CHURN_HORIZON: u64 = 60_000;

/// Churn horizon of the FT-Spanning-Line sweep, in draws. The line pays
/// a full restart-wave rebuild per crash, so it runs smaller and longer:
/// the horizon still dwarfs a rebuild.
pub const LINE_CHURN_HORIZON: u64 = 150_000;

fn churn(min_alive: usize, horizon: u64) -> ChurnPlan {
    ChurnPlan::new(0)
        .arrival_rate(CHURN_RATE)
        .departure_rate(CHURN_RATE)
        .min_alive(min_alive)
        .horizon(horizon)
}

/// Availability sweeps ([`sweep_availability`]) under [`CHURN_RATE`]
/// churn: FT-Global-Star at n ∈ {16, 32} and FT-Spanning-Line at
/// n ∈ {10, 14}, in that order, with `trials` trials per size.
#[must_use]
pub fn churn_frontier(trials: usize) -> (SweepTable, SweepTable) {
    let star = sweep_availability(
        &SweepConfig {
            sizes: vec![16, 32],
            trials,
            base_seed: 83,
        },
        &ft_star::protocol(),
        churn(8, STAR_CHURN_HORIZON),
        ft_star::is_stable_faulted,
        u64::MAX,
    );
    let line = sweep_availability(
        &SweepConfig {
            sizes: vec![10, 14],
            trials,
            base_seed: 89,
        },
        &ft_line::protocol(),
        churn(5, LINE_CHURN_HORIZON),
        ft_line::is_stable_faulted,
        u64::MAX,
    );
    (star, line)
}

/// The strike-rate ladder: expected adversary decisions per draw, from
/// one strike per 40k draws to one per 1250. (Higher rates only shift
/// *when* the floor-capped strike budget is spent, not how much damage
/// lands, so the curves flatten — the ladder stops at the knee's far
/// side instead of measuring that plateau.)
pub const STRIKE_RATES: [f64; 6] = [2.5e-5, 5e-5, 1e-4, 2e-4, 4e-4, 8e-4];

/// Population size of the adversary ladders.
pub const ADVERSARY_N: usize = 16;

/// The `min_alive` floor the targeted strikes never cross.
pub const ADVERSARY_MIN_ALIVE: usize = 8;

/// Draws per adversary measurement; the periodic strike cadence is
/// sized to it.
pub const ADVERSARY_HORIZON: u64 = 40_000;

/// Availability-vs-rate ladders ([`sweep_availability_vs_rate`]) over
/// [`STRIKE_RATES`] under the adaptive `CrashMaxDegree` cadence:
/// FT-Global-Star, then Global-Star, with `trials` trials per rung.
#[must_use]
pub fn adversary_frontier(trials: usize) -> (Vec<RatePoint>, Vec<RatePoint>) {
    let plan = |rate: f64, seed: u64, _n: usize| {
        periodic_adversary_plan(
            rate,
            seed,
            ADVERSARY_HORIZON,
            &[AdversaryPolicy::CrashMaxDegree],
            ADVERSARY_MIN_ALIVE,
        )
    };
    // Repair budget after the stream: generous for FT-star (re-elects in
    // Θ(n² log n)), finite so frozen Global-Star remnants report
    // `repair: None` instead of running forever.
    let max_steps = 400_000;
    let ft = sweep_availability_vs_rate(
        &ft_star::protocol(),
        ADVERSARY_N,
        &STRIKE_RATES,
        trials,
        131,
        plan,
        ft_star::is_stable_faulted,
        max_steps,
    );
    let plain = sweep_availability_vs_rate(
        &global_star::protocol(),
        ADVERSARY_N,
        &STRIKE_RATES,
        trials,
        137,
        plan,
        global_star::is_stable_faulted,
        max_steps,
    );
    (ft, plain)
}

/// The frontier sizes of the scaling sweep; the bench target scales
/// them by `NETCON_BENCH_SCALE`, `perf_smoke` runs them as they are.
pub const FRONTIER_SIZES: [usize; 3] = [20_000, 50_000, 100_000];

/// A scaling-frontier workload: a Table 2 constructor driven to
/// stability on [`BucketSim`].
pub struct ScalingWorkload {
    /// Display name.
    pub name: &'static str,
    /// Record key.
    pub key: &'static str,
    protocol: CompiledTable,
    stable: fn(&EngineView<'_, CompiledTable>) -> bool,
}

/// One run of a [`ScalingWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Population size.
    pub n: usize,
    /// Sequential steps to stability.
    pub converged_at: u64,
    /// Effective interactions at detection.
    pub effective_steps: u64,
    /// Wall-clock of construction plus run.
    pub wall: Duration,
    /// The bucket engine's measured heap footprint at the end.
    pub mem_bytes: u64,
    /// The dense engine's a-priori footprint at the same size.
    pub dense_estimate_bytes: u64,
}

/// Simple-Global-Line (Θ(n⁴)–O(n⁵) sequential steps), then Cycle-Cover
/// (Θ(n²), optimal).
#[must_use]
pub fn scaling_workloads() -> [ScalingWorkload; 2] {
    [
        ScalingWorkload {
            name: "Simple-Global-Line (Protocol 1)",
            key: "simple_global_line",
            protocol: simple_global_line::protocol().compile(),
            stable: simple_global_line::is_stable_view,
        },
        ScalingWorkload {
            name: "Cycle-Cover (Protocol 3)",
            key: "cycle_cover",
            protocol: cycle_cover::protocol().compile(),
            stable: cycle_cover::is_stable_view,
        },
    ]
}

impl ScalingWorkload {
    /// Runs the workload to stability on `n` nodes from seed `2014 + n`.
    ///
    /// # Panics
    ///
    /// Panics if the run does not stabilize or the bucket engine holds
    /// 100 MB or more.
    #[must_use]
    pub fn run(&self, n: usize) -> ScalingRow {
        let t0 = Instant::now();
        let mut sim = BucketSim::new(self.protocol.clone(), n, 2014 + n as u64);
        let out = sim.run_until(
            |sp| {
                (self.stable)(&EngineView::Sparse {
                    sp,
                    machine: &self.protocol,
                })
            },
            u64::MAX,
        );
        let wall = t0.elapsed();
        let converged_at = out
            .converged_at()
            .unwrap_or_else(|| panic!("{} did not stabilize at n={n}", self.name));
        let mem_bytes = sim.approx_mem_bytes();
        assert!(
            mem_bytes < 100 << 20,
            "{} n={n}: bucket engine used {mem_bytes} bytes, expected < 100 MB",
            self.name
        );
        ScalingRow {
            n,
            converged_at,
            effective_steps: sim.effective_steps(),
            wall,
            mem_bytes,
            dense_estimate_bytes: EventSim::<CompiledTable>::dense_mem_estimate(n),
        }
    }
}
