//! Paired-trial statistical equivalence of the five engines.
//!
//! The fast engines are exact by construction, each against the naive
//! loop under *its* scheduler family: `EventSim` and `BucketSim` equal
//! `Simulation` under the uniform scheduler (both skip the draws outside
//! the exact effective set: `EventSim` keeps it pair by pair, `BucketSim`
//! counts it by state class — see `netcon_core::bucket`), and
//! `RoundSim` / `RoundBucketSim` equal
//! `Simulation` under `ShuffledRounds` (hypergeometric within-round
//! skips plus scheduled-identity resolution — lazy dense rows in
//! `netcon_core::round`, counted cohorts in
//! `netcon_core::round_bucket`). The two families' running-time
//! distributions genuinely differ (box schedules remove the
//! coupon-collector slack), so the checks are pairwise *within* each
//! family: the uniform trio all ways, the round trio against its naive
//! loop — five engines, five comparisons per workload, with thousands
//! of independent trials per engine (disjoint seed streams, Welch z on
//! the means, ratio bound on the variances). Seeds are fixed, so the
//! suite is deterministic: the thresholds sit at ≈ 4σ of the null, far
//! from both flakiness and real regressions (an engine bug that biases
//! a skip law shows up as tens of σ).
//!
//! The coin-level proptests at the bottom pin the shared skip samplers
//! themselves: the geometric inversion both uniform-family engines draw
//! from (one shared skip schedule ⇒ a larger candidate set never skips
//! more), the hypergeometric inversions the round engines draw from
//! (bracketing the brute-force CDFs, including the within-round
//! exhaustion edge cases), and the batched-endgame absorption laws of
//! `netcon_core::walk` against brute-force per-draw walks.
//! `sampler_identity` pins the hypergeometric samplers' answers bit for
//! bit against a frozen copy of their plain implementation.
//! `round_counts` adds the exact regression: on protocols whose round
//! count is schedule-independent, every round-family engine must report
//! the identical round count on every seed.

use netcon::core::seeds::derive2;
use netcon::core::testing::{
    geometric_skip, hypergeometric_count, hypergeometric_skip, unit_open01,
};
use netcon::core::{
    BucketSim, CompiledTable, EngineView, EventSim, ExactEngine, Link, Population, ProtocolBuilder,
    RoundBucketSim, RoundEngine, RoundSim, RuleProtocol, ShuffledRounds, Simulation, StateId,
};
use netcon::graph::properties::is_maximum_matching;
use netcon::protocols::{cycle_cover, simple_global_line};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EngineKind {
    Naive,
    Event,
    Bucket,
    NaiveShuffled,
    Round,
    RoundBucket,
}
use EngineKind::{Bucket, Event, Naive, NaiveShuffled, Round, RoundBucket};

/// The view every equivalence predicate reads: all six engines, the
/// naive loops included, present their configuration as
/// `EngineView::Dense` or `EngineView::Sparse`, so one predicate serves
/// every arm.
type View<'a> = EngineView<'a, CompiledTable>;

/// Mean and sample variance of `converged_at` over `trials` runs.
fn sample(
    protocol: &RuleProtocol,
    stable: impl Fn(&View<'_>) -> bool,
    n: usize,
    trials: u64,
    base_seed: u64,
    kind: EngineKind,
) -> (f64, f64) {
    let compiled = protocol.compile();
    let machine = &compiled;
    let dense =
        |pop: &Population<StateId>| stable(&EngineView::Dense { pop, machine, faults: None });
    let sparse = |sp: &_| stable(&EngineView::Sparse { sp, machine });
    let samples: Vec<f64> = (0..trials)
        .map(|t| {
            let seed = derive2(base_seed, n as u64, t);
            let out = match kind {
                Event => EventSim::new(compiled.clone(), n, seed).run_until(dense, u64::MAX),
                Bucket => BucketSim::new(compiled.clone(), n, seed).run_until(sparse, u64::MAX),
                Naive => Simulation::new(protocol.clone(), n, seed).run_until(dense, u64::MAX),
                Round => RoundSim::new(compiled.clone(), n, seed).run_until(dense, u64::MAX),
                RoundBucket => {
                    RoundBucketSim::new(compiled.clone(), n, seed).run_until(sparse, u64::MAX)
                }
                NaiveShuffled => {
                    Simulation::with_scheduler(protocol.clone(), n, seed, ShuffledRounds::new())
                        .run_until(dense, u64::MAX)
                }
            };
            out.converged_at().expect("stabilizes") as f64
        })
        .collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
        / (samples.len() - 1) as f64;
    (mean, var)
}

/// Asserts two engines' `converged_at` means are within ≈ 4σ (Welch) and
/// the variances within a generous ratio window.
fn assert_pair(name: &str, a: (&str, f64, f64), b: (&str, f64, f64), n: usize, trials: u64) {
    let ((ka, ma, va), (kb, mb, vb)) = (a, b);
    let se = (va / trials as f64 + vb / trials as f64).sqrt();
    let z = (ma - mb) / se;
    assert!(
        z.abs() < 4.0,
        "{name} n={n} {ka} vs {kb}: means differ by {z:.1}σ ({ka} {ma:.0} ± var {va:.0}, {kb} {mb:.0} ± var {vb:.0})"
    );
    let ratio = va.max(vb) / va.min(vb).max(1.0);
    assert!(
        ratio < 2.5,
        "{name} n={n} {ka} vs {kb}: variance ratio {ratio:.2} ({ka} {va:.0}, {kb} {vb:.0})"
    );
    // And the means must be close in relative terms too (the acceptance
    // bar for the engine additions): < 5% once trials ≥ 200.
    let rel = (ma - mb).abs() / mb.abs().max(1.0);
    assert!(
        rel < 0.05,
        "{name} n={n} {ka} vs {kb}: relative mean gap {:.2}% exceeds 5%",
        100.0 * rel
    );
}

/// Runs all five engines on disjoint seed streams and asserts pairwise
/// equivalence of the `converged_at` distributions *within each
/// scheduler family*: the uniform trio (naive / event / bucket) all
/// ways, and the ShuffledRounds trio (naive round-player / `RoundSim` /
/// `RoundBucketSim`) against its naive loop and against each other.
/// Cross-family comparisons are deliberately absent — the families'
/// distributions differ, and that difference is a measured result, not
/// a bug.
fn assert_equivalent_5way(
    name: &str,
    protocol: &RuleProtocol,
    stable: impl Fn(&View<'_>) -> bool + Copy,
    n: usize,
    trials: u64,
) {
    let (me, ve) = sample(protocol, stable, n, trials, 101, Event);
    let (mn, vn) = sample(protocol, stable, n, trials, 202, Naive);
    let (mb, vb) = sample(protocol, stable, n, trials, 303, Bucket);
    assert_pair(name, ("event", me, ve), ("naive", mn, vn), n, trials);
    assert_pair(name, ("bucket", mb, vb), ("naive", mn, vn), n, trials);
    assert_pair(name, ("bucket", mb, vb), ("event", me, ve), n, trials);
    let (mr, vr) = sample(protocol, stable, n, trials, 404, Round);
    let (ms, vs) = sample(protocol, stable, n, trials, 505, NaiveShuffled);
    let (mq, vq) = sample(protocol, stable, n, trials, 606, RoundBucket);
    assert_pair(name, ("round", mr, vr), ("naive-shuffled", ms, vs), n, trials);
    assert_pair(name, ("round-sparse", mq, vq), ("naive-shuffled", ms, vs), n, trials);
    assert_pair(name, ("round-sparse", mq, vq), ("round", mr, vr), n, trials);
}

fn matching_protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m = b.state("b");
    b.rule((a, a, Link::Off), (m, m, Link::On));
    b.build().expect("valid")
}

#[test]
fn simple_global_line_matches_across_engines() {
    // Θ(n⁴)-class workload; n stays small so the naive side finishes.
    // converged_at's relative sd here is ≈ 70%, so the 5% mean bar needs
    // thousands of trials to sit at ≳ 3σ of the null.
    assert_equivalent_5way(
        "Simple-Global-Line",
        &simple_global_line::protocol(),
        simple_global_line::is_stable_view,
        16,
        3_000,
    );
}

#[test]
fn cycle_cover_matches_across_engines() {
    assert_equivalent_5way(
        "Cycle-Cover",
        &cycle_cover::protocol(),
        cycle_cover::is_stable_view,
        32,
        5_000,
    );
}

#[test]
fn matching_process_matches_across_engines() {
    assert_equivalent_5way(
        "Maximum-Matching",
        &matching_protocol(),
        |v| v.count_index(0) <= 1,
        32,
        5_000,
    );
}

#[test]
fn step_budget_distribution_matches() {
    // MaxSteps outcomes must also agree: with a budget below the typical
    // convergence time, all three engines should time out at the same
    // rate and report exactly the budget.
    let p = matching_protocol();
    let compiled = p.compile();
    let n = 40;
    let budget = 300; // ~ half the typical matching time at n=40
    let trials = 400u64;
    let timeouts = |kind: EngineKind| -> (u64, u64) {
        let mut timed_out = 0;
        let mut stabilized = 0;
        for t in 0..trials {
            let base = match kind {
                Event => 77,
                Naive => 88,
                Bucket => 99,
                Round => 111,
                NaiveShuffled => 122,
                RoundBucket => 133,
            };
            let seed = derive2(base, n as u64, t);
            let out = match kind {
                Event => EventSim::new(compiled.clone(), n, seed)
                    .run_until(|q| is_maximum_matching(q.edges()), budget),
                Bucket => BucketSim::new(compiled.clone(), n, seed)
                    .run_until(|sp| sp.count_index(0) <= 1, budget),
                Naive => Simulation::new(p.clone(), n, seed)
                    .run_until(|q| is_maximum_matching(q.edges()), budget),
                Round => RoundSim::new(compiled.clone(), n, seed)
                    .run_until(|q| is_maximum_matching(q.edges()), budget),
                RoundBucket => RoundBucketSim::new(compiled.clone(), n, seed)
                    .run_until(|sp| sp.count_index(0) <= 1, budget),
                NaiveShuffled => {
                    Simulation::with_scheduler(p.clone(), n, seed, ShuffledRounds::new())
                        .run_until(|q| is_maximum_matching(q.edges()), budget)
                }
            };
            match out {
                netcon::core::RunOutcome::MaxSteps { steps } => {
                    assert_eq!(steps, budget);
                    timed_out += 1;
                }
                netcon::core::RunOutcome::Stabilized { detected_at, .. } => {
                    assert!(detected_at <= budget);
                    stabilized += 1;
                }
            }
        }
        (timed_out, stabilized)
    };
    let (te, se_) = timeouts(Event);
    let (tn, sn) = timeouts(Naive);
    let (tb, sb) = timeouts(Bucket);
    assert_eq!(te + se_, trials);
    assert_eq!(tn + sn, trials);
    assert_eq!(tb + sb, trials);
    // Binomial SE at 400 trials is ≤ 0.025; allow ~4σ.
    for (label, tx) in [("event", te), ("bucket", tb)] {
        let diff = (tx as f64 - tn as f64).abs() / trials as f64;
        assert!(
            diff < 0.10,
            "timeout rates diverge: {label} {tx}/{trials} vs naive {tn}/{trials}"
        );
    }
    // Same check within the ShuffledRounds family (its timeout rate
    // differs from the uniform family's — budgets interact with the box
    // schedule — so it is compared only against its own naive loop).
    let (tr, sr) = timeouts(Round);
    let (ts, ss) = timeouts(NaiveShuffled);
    assert_eq!(tr + sr, trials);
    assert_eq!(ts + ss, trials);
    let diff = (tr as f64 - ts as f64).abs() / trials as f64;
    assert!(
        diff < 0.10,
        "timeout rates diverge: round {tr}/{trials} vs naive-shuffled {ts}/{trials}"
    );
    let (tq, sq) = timeouts(RoundBucket);
    assert_eq!(tq + sq, trials);
    let diff = (tq as f64 - ts as f64).abs() / trials as f64;
    assert!(
        diff < 0.10,
        "timeout rates diverge: round-sparse {tq}/{trials} vs naive-shuffled {ts}/{trials}"
    );
}

// ---------------------------------------------------------------------
// Exact round-count regression: RoundSim vs naive ShuffledRounds.
// ---------------------------------------------------------------------

mod round_counts {
    use super::*;

    /// Match in round 1, dissolve each matched edge at its only
    /// occurrence in round 2: under *any* box schedule the convergence
    /// round is exactly 2 (for even n), whatever the permutations and
    /// coins did. Both engines must report it on every seed — an exact
    /// (not statistical) equivalence check of the round bookkeeping.
    pub(super) fn dissolve_protocol() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("dissolve");
        let a = b.state("a");
        let m = b.state("b");
        let d = b.state("c");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        b.rule((m, m, Link::On), (d, d, Link::Off));
        b.build().expect("valid")
    }

    #[test]
    fn round_counts_match_naive_exactly_on_small_n() {
        let p = dissolve_protocol();
        let d = p.state("c").expect("dissolved state");
        for n in [4usize, 8, 14] {
            let m = (n as u64) * (n as u64 - 1) / 2;
            for seed in 0..15u64 {
                let stable = |q: &Population<StateId>| {
                    q.count_where(|s| *s == d) == q.n() && q.edges().active_count() == 0
                };
                let mut naive = Simulation::with_scheduler(
                    p.clone(),
                    n,
                    derive2(31, n as u64, seed),
                    ShuffledRounds::new(),
                );
                let naive_out = naive.run_until(stable, u64::MAX);
                let naive_rounds =
                    naive_out.converged_at().expect("stabilizes").div_ceil(m);

                let mut round = RoundSim::new(p.compile(), n, derive2(62, n as u64, seed));
                let round_out = round.run_until(stable, u64::MAX);
                let round_rounds =
                    round_out.converged_at().expect("stabilizes").div_ceil(m);
                assert_eq!(
                    round.last_output_change_round(),
                    round_rounds,
                    "n={n} seed={seed}: engine round bookkeeping disagrees with div_ceil"
                );

                let di = {
                    use netcon::core::EnumerableMachine;
                    p.compile().state_index(&d)
                };
                let mut sparse =
                    RoundBucketSim::new(p.compile(), n, derive2(93, n as u64, seed));
                let sparse_out = sparse.run_until(
                    |sp| sp.count_index(di) == sp.n() && sp.active_count() == 0,
                    u64::MAX,
                );
                let sparse_rounds =
                    sparse_out.converged_at().expect("stabilizes").div_ceil(m);
                assert_eq!(
                    sparse.last_output_change_round(),
                    sparse_rounds,
                    "n={n} seed={seed}: sparse round bookkeeping disagrees with div_ceil"
                );

                assert_eq!(
                    (naive_rounds, round_rounds, sparse_rounds),
                    (2, 2, 2),
                    "n={n} seed={seed}: dissolve must take exactly 2 rounds on every engine"
                );
            }
        }
    }

    #[test]
    fn matching_round_counts_are_one_on_both_engines() {
        // The single-phase variant: a maximum matching always completes
        // within round 1 of a box schedule.
        let p = super::matching_protocol();
        for n in [6usize, 12, 20] {
            let m = (n as u64) * (n as u64 - 1) / 2;
            for seed in 0..10u64 {
                let stable = |q: &Population<StateId>| is_maximum_matching(q.edges());
                let mut naive = Simulation::with_scheduler(
                    p.clone(),
                    n,
                    derive2(93, n as u64, seed),
                    ShuffledRounds::new(),
                );
                let nr = naive
                    .run_until(stable, u64::MAX)
                    .converged_at()
                    .expect("stabilizes")
                    .div_ceil(m);
                let mut round = RoundSim::new(p.compile(), n, derive2(94, n as u64, seed));
                let out = round.run_until(stable, u64::MAX);
                assert!(out.stabilized());
                let rr = round.last_output_change_round();
                let mut sparse = RoundBucketSim::new(p.compile(), n, derive2(95, n as u64, seed));
                let out = sparse.run_until(|sp| sp.count_index(0) <= 1, u64::MAX);
                assert!(out.stabilized());
                let sr = sparse.last_output_change_round();
                assert_eq!((nr, rr, sr), (1, 1, 1), "n={n} seed={seed}");
            }
        }
    }

    /// Stop/resume across round boundaries is coin-for-coin identical on
    /// both round-family fast engines: a skip batch never crosses a
    /// round boundary, so `run_to` interrupted exactly on boundaries
    /// consumes the identical draw sequence as the straight run — steps,
    /// bookkeeping, states, and edges all reproduce bit-exactly. (A
    /// *mid-round* interrupt may land inside a pending skip batch; there
    /// the engines promise truncation self-similarity — the resumed
    /// distribution is exact, checked statistically above — not coin
    /// identity.) Held on the dissolve table and eleven catalogue tables;
    /// Graph-Replication starts from its input graph.
    #[test]
    fn stop_resume_at_round_boundaries_is_coin_for_coin_identical() {
        use netcon::core::Machine;
        use netcon::protocols::{
            c_cliques, fast_global_line, faster_global_line, global_ring, krc, replication,
            spanning_net,
        };
        /// Graph-Replication's start: a path on the first `n / 2` nodes
        /// as the input graph, the other nodes its replica side.
        fn replication_start(n: usize) -> Population<StateId> {
            let mut g1 = netcon::graph::EdgeSet::new(n / 2);
            for u in 1..n / 2 {
                g1.activate(u - 1, u);
            }
            replication::initial_population(&g1, n - n / 2)
        }
        type Start = Option<fn(usize) -> Population<StateId>>;
        let tables: [(RuleProtocol, [usize; 2], Start); 12] = [
            (super::round_counts::dissolve_protocol(), [8, 11], None),
            (simple_global_line::protocol(), [8, 11], None),
            (cycle_cover::protocol(), [8, 11], None),
            (krc::protocol(2), [8, 11], None),
            (krc::protocol(3), [8, 11], None),
            (global_ring::protocol(), [8, 11], None),
            (c_cliques::protocol(3), [9, 12], None),
            (c_cliques::protocol(4), [8, 12], None),
            (spanning_net::protocol(), [8, 11], None),
            (fast_global_line::protocol(), [8, 11], None),
            (faster_global_line::protocol(), [8, 11], None),
            (replication::protocol(), [8, 11], Some(replication_start)),
        ];
        type Fp = ([u64; 4], Vec<StateId>, Vec<(usize, usize)>);
        fn fp(pop: &Population<StateId>, e: &impl ExactEngine) -> Fp {
            let (steps, eff) = (e.steps(), e.effective_steps());
            let book = [steps, eff, e.edge_events(), e.last_output_change()];
            let states = (0..pop.n()).map(|u| *pop.state(u)).collect();
            (book, states, pop.edges().active_edges().collect())
        }
        for (p, sizes, start) in tables {
            let (name, compiled) = (p.name().to_owned(), p.compile());
            for n in sizes {
                let start = start.map(|f| f(n));
                let round = |s| match &start {
                    Some(pop) => RoundSim::from_population(compiled.clone(), pop.clone(), s),
                    None => RoundSim::new(compiled.clone(), n, s),
                };
                let round_bucket = |s| match &start {
                    Some(pop) => RoundBucketSim::from_population(compiled.clone(), pop.clone(), s),
                    None => RoundBucketSim::new(compiled.clone(), n, s),
                };
                let m = (n as u64) * (n as u64 - 1) / 2;
                // Every round boundary through 12 rounds, then mid-round
                // past them (deep into quiescence where a table has
                // converged: the jump path).
                let end = 12 * m + 7;
                let stops: Vec<u64> = (1..=12).map(|r| r * m).chain([end]).collect();

                for seed in 0..8u64 {
                    let s = derive2(47, n as u64, seed);
                    let mut a = round(s);
                    a.run_to(end);
                    let mut b = round(s);
                    for &t in &stops {
                        b.run_to(t);
                    }
                    assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
                    assert_eq!(
                        fp(a.population(), &a),
                        fp(b.population(), &b),
                        "RoundSim {name} n={n} seed={seed}"
                    );

                    let mut a = round_bucket(s);
                    a.run_to(end);
                    let mut b = round_bucket(s);
                    for &t in &stops {
                        b.run_to(t);
                    }
                    assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
                    assert_eq!(
                        fp(&a.to_population(), &a),
                        fp(&b.to_population(), &b),
                        "RoundBucketSim {name} n={n} seed={seed}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault-mode equivalence: the same FaultPlan injected into every engine.
// ---------------------------------------------------------------------

mod faults {
    use super::*;
    use netcon::core::testing::step_budget;
    use netcon::core::{FaultEvent, FaultPlan, FaultState};

    /// Mean and sample variance of `converged_at` over faulted trials.
    /// The fault plan derives from the *trial index only* (base 777), so
    /// engine `k`'s trial `t` injects the identical plan — crash victims
    /// and arrival slots included, since the alive-set evolution is
    /// plan-determined. Engine seeds stay on disjoint streams.
    #[allow(clippy::too_many_arguments)]
    fn sample_faulted(
        protocol: &RuleProtocol,
        stable: impl Fn(&View<'_>, &FaultState) -> bool,
        plan_of: impl Fn(u64) -> FaultPlan,
        n: usize,
        trials: u64,
        base_seed: u64,
        kind: EngineKind,
    ) -> (f64, f64) {
        let compiled = protocol.compile();
        let machine = &compiled;
        let dense = |pop: &Population<StateId>, fs: &FaultState| {
            stable(&EngineView::Dense { pop, machine, faults: Some(fs) }, fs)
        };
        let sparse = |sp: &_, fs: &FaultState| stable(&EngineView::Sparse { sp, machine }, fs);
        let max = step_budget(n);
        let samples: Vec<f64> = (0..trials)
            .map(|t| {
                let seed = derive2(base_seed, n as u64, t);
                let plan = plan_of(derive2(777, n as u64, t));
                let out = match kind {
                    Event => EventSim::new_faulted(compiled.clone(), n, seed, plan)
                        .run_faulted_until(dense, max),
                    Bucket => BucketSim::new_faulted(compiled.clone(), n, seed, plan)
                        .run_faulted_until(sparse, max),
                    Naive => Simulation::new_faulted(protocol.clone(), n, seed, plan)
                        .run_faulted_until(dense, max),
                    Round => RoundSim::new_faulted(compiled.clone(), n, seed, plan)
                        .run_faulted_until(dense, max),
                    RoundBucket => RoundBucketSim::new_faulted(compiled.clone(), n, seed, plan)
                        .run_faulted_until(sparse, max),
                    NaiveShuffled => Simulation::with_scheduler_faulted(
                        protocol.clone(),
                        n,
                        seed,
                        ShuffledRounds::new(),
                        plan,
                    )
                    .run_faulted_until(dense, max),
                };
                out.converged_at().expect("stabilizes under faults") as f64
            })
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / (samples.len() - 1) as f64;
        (mean, var)
    }

    /// The fault-mode mirror of `assert_equivalent_5way`: uniform trio
    /// all ways, round trio against its naive loop, identical plans per
    /// trial.
    pub(super) fn assert_equivalent_5way_faulted(
        name: &str,
        protocol: &RuleProtocol,
        stable: impl Fn(&View<'_>, &FaultState) -> bool + Copy,
        plan_of: impl Fn(u64) -> FaultPlan + Copy,
        n: usize,
        trials: u64,
    ) {
        let run = |base, kind| sample_faulted(protocol, stable, plan_of, n, trials, base, kind);
        let (me, ve) = run(101, Event);
        let (mn, vn) = run(202, Naive);
        let (mb, vb) = run(303, Bucket);
        assert_pair(name, ("event", me, ve), ("naive", mn, vn), n, trials);
        assert_pair(name, ("bucket", mb, vb), ("naive", mn, vn), n, trials);
        assert_pair(name, ("bucket", mb, vb), ("event", me, ve), n, trials);
        let (mr, vr) = run(404, Round);
        let (ms, vs) = run(505, NaiveShuffled);
        let (mq, vq) = run(606, RoundBucket);
        assert_pair(name, ("round", mr, vr), ("naive-shuffled", ms, vs), n, trials);
        assert_pair(name, ("round-sparse", mq, vq), ("naive-shuffled", ms, vs), n, trials);
        assert_pair(name, ("round-sparse", mq, vq), ("round", mr, vr), n, trials);
    }

    #[test]
    fn matching_under_mixed_faults_matches_across_engines() {
        // A crash mid-run, an arrival, then two random edge deletions:
        // every reclassification path of every engine fires. The
        // matching process stays convergent under all three damage
        // kinds (widowed `m` nodes are terminal; fresh `a` nodes pair
        // up), so `converged_at` is a clean sample unit.
        let plan = |s: u64| {
            FaultPlan::new(s)
                .at(150, FaultEvent::CrashRandom)
                .at(300, FaultEvent::Arrive)
                .at(450, FaultEvent::DeleteRandomActiveEdges(2))
        };
        assert_equivalent_5way_faulted(
            "Maximum-Matching/faulted",
            &matching_protocol(),
            |v, _| v.count_index(0) <= 1,
            plan,
            32,
            3_000,
        );
    }

    #[test]
    fn simple_global_line_absorbs_arrivals_equivalently() {
        // Arrival-only churn keeps Simple-Global-Line convergent (the
        // line extends from its leader endpoint), and the alive-aware
        // edge-count predicate stays exact — see
        // `simple_global_line::is_stable_faulted`.
        let plan = |s: u64| {
            FaultPlan::new(s)
                .at(2_000, FaultEvent::Arrive)
                .at(4_000, FaultEvent::Arrive)
        };
        assert_equivalent_5way_faulted(
            "Simple-Global-Line/arrivals",
            &simple_global_line::protocol(),
            simple_global_line::is_stable_faulted,
            plan,
            10,
            1_500,
        );
    }

    /// Exact (not statistical) regression under a fault: dissolve with a
    /// crash at step 0 leaves an even alive population on odd capacity,
    /// and the two-round argument survives the ghosts — each alive pair
    /// still occurs exactly once per (capacity-length) round, so both
    /// round-family engines must report exactly 2 rounds on every seed.
    #[test]
    fn dissolve_round_counts_survive_a_crash_exactly() {
        let p = super::round_counts::dissolve_protocol();
        let d = p.state("c").expect("dissolved state");
        for n in [9usize, 13] {
            let m = (n as u64) * (n as u64 - 1) / 2;
            for seed in 0..10u64 {
                let plan = FaultPlan::new(derive2(55, n as u64, seed))
                    .at(0, FaultEvent::CrashRandom);
                let stable = |q: &Population<StateId>, fs: &FaultState| {
                    (0..q.n()).filter(|&u| fs.is_alive(u)).all(|u| *q.state(u) == d)
                        && q.edges().active_count() == 0
                };
                let mut naive = Simulation::with_scheduler_faulted(
                    p.clone(),
                    n,
                    derive2(31, n as u64, seed),
                    ShuffledRounds::new(),
                    plan.clone(),
                );
                let naive_rounds = naive
                    .run_faulted_until(stable, u64::MAX)
                    .converged_at()
                    .expect("stabilizes")
                    .div_ceil(m);
                let mut round = RoundSim::new_faulted(
                    p.compile(),
                    n,
                    derive2(62, n as u64, seed),
                    plan.clone(),
                );
                let round_rounds = round
                    .run_faulted_until(stable, u64::MAX)
                    .converged_at()
                    .expect("stabilizes")
                    .div_ceil(m);
                assert_eq!(round.last_output_change_round(), round_rounds, "n={n} seed={seed}");

                let di = {
                    use netcon::core::EnumerableMachine;
                    p.compile().state_index(&d)
                };
                let mut sparse = RoundBucketSim::new_faulted(
                    p.compile(),
                    n,
                    derive2(93, n as u64, seed),
                    plan,
                );
                let sparse_rounds = sparse
                    .run_faulted_until(
                        |sp, fs| {
                            (0..sp.n())
                                .filter(|&u| fs.is_alive(u))
                                .all(|u| sp.state_index(u) == di)
                                && sp.active_count() == 0
                        },
                        u64::MAX,
                    )
                    .converged_at()
                    .expect("stabilizes")
                    .div_ceil(m);
                assert_eq!(
                    sparse.last_output_change_round(),
                    sparse_rounds,
                    "n={n} seed={seed}"
                );
                assert_eq!(
                    (naive_rounds, round_rounds, sparse_rounds),
                    (2, 2, 2),
                    "n={n} seed={seed}: dissolve minus one node still takes exactly 2 rounds"
                );
            }
        }
    }

    /// Stop/resume at fault boundaries is coin-for-coin identical on
    /// every engine: `run_faulted_to(final)` decomposes into exactly the
    /// per-event segments the interrupted run performs, so interrupting
    /// at the event times (and resuming) must reproduce the bit-exact
    /// trajectory — steps, bookkeeping, states, and edges.
    #[test]
    fn stop_resume_at_fault_boundaries_is_coin_for_coin_identical() {
        let p = super::matching_protocol();
        let compiled = p.compile();
        let n = 16;
        let plan = || {
            FaultPlan::new(33)
                .at(50, FaultEvent::CrashRandom)
                .at(120, FaultEvent::Arrive)
                .at(200, FaultEvent::DeleteRandomActiveEdges(1))
        };
        let stops = [50u64, 120, 200, 400];
        type Fp = (u64, u64, u64, Vec<StateId>, Vec<(usize, usize)>);
        let fp = |pop: &Population<StateId>, steps: u64, eff: u64, ev: u64| -> Fp {
            let states = (0..pop.n()).map(|u| *pop.state(u)).collect();
            let edges = pop.edges().active_edges().collect();
            (steps, eff, ev, states, edges)
        };

        let mut a = EventSim::new_faulted(compiled.clone(), n, 9, plan());
        a.run_faulted_to(400);
        let mut b = EventSim::new_faulted(compiled.clone(), n, 9, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "EventSim"
        );

        let mut a = BucketSim::new_faulted(compiled.clone(), n, 9, plan());
        a.run_faulted_to(400);
        let mut b = BucketSim::new_faulted(compiled.clone(), n, 9, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "BucketSim"
        );

        let mut a = RoundSim::new_faulted(compiled.clone(), n, 9, plan());
        a.run_faulted_to(400);
        let mut b = RoundSim::new_faulted(compiled.clone(), n, 9, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundSim"
        );

        let mut a = RoundBucketSim::new_faulted(compiled.clone(), n, 9, plan());
        a.run_faulted_to(400);
        let mut b = RoundBucketSim::new_faulted(compiled, n, 9, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundBucketSim"
        );

        let mut a = Simulation::new_faulted(p.clone(), n, 9, plan());
        a.run_faulted_to(400);
        let mut b = Simulation::new_faulted(p.clone(), n, 9, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/uniform"
        );

        let mut a = Simulation::with_scheduler_faulted(p.clone(), n, 9, ShuffledRounds::new(), plan());
        a.run_faulted_to(400);
        let mut b = Simulation::with_scheduler_faulted(p, n, 9, ShuffledRounds::new(), plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/shuffled-rounds"
        );
    }

    #[test]
    fn ft_star_under_shared_churn_matches_across_engines() {
        // Sustained Poisson churn instead of a hand-written burst: the
        // per-trial `ChurnPlan` compiles to the identical draw-indexed
        // `FaultPlan` for every engine (same seed ⇒ same arrivals, same
        // crash times, same capacity), so crash notifications and ghost
        // reclassification fire on the same schedule everywhere. FT-star
        // re-stabilizes after any crash pattern, so `converged_at` stays
        // a clean sample unit once the stream ends.
        use netcon::core::ChurnPlan;
        use netcon::protocols::ft_star;
        let n = 12;
        let plan = move |s: u64| {
            ChurnPlan::new(s)
                .arrival_rate(5e-4)
                .departure_rate(5e-4)
                .min_alive(6)
                .horizon(4_000)
                .compile(n)
        };
        assert_equivalent_5way_faulted(
            "FT-Global-Star/churn",
            &ft_star::protocol(),
            ft_star::is_stable_faulted,
            plan,
            n,
            1_500,
        );
    }

    /// Stop/resume across *churn* boundaries is coin-for-coin identical:
    /// the boundary draws come from a compiled `ChurnPlan` (so they land
    /// wherever the Poisson stream put them, not on round numbers), and
    /// the protocol is FT-star so every crash also exercises the
    /// notification remap mid-segment.
    #[test]
    fn stop_resume_at_churn_boundaries_is_coin_for_coin_identical() {
        use netcon::core::ChurnPlan;
        use netcon::protocols::ft_star;
        let p = ft_star::protocol();
        let compiled = p.compile();
        let n = 14;
        let plan = || {
            ChurnPlan::new(21)
                .arrival_rate(1e-3)
                .departure_rate(1e-3)
                .min_alive(7)
                .horizon(3_000)
                .compile(n)
        };
        let mut stops: Vec<u64> = plan().events().iter().map(|&(t, _)| t).collect();
        stops.dedup();
        assert!(stops.len() >= 2, "churn stream yields several boundaries");
        let last = *stops.last().expect("non-empty");
        stops.push(last + 500);
        let end = last + 500;
        type Fp = (u64, u64, u64, Vec<StateId>, Vec<(usize, usize)>);
        let fp = |pop: &Population<StateId>, steps: u64, eff: u64, ev: u64| -> Fp {
            let states = (0..pop.n()).map(|u| *pop.state(u)).collect();
            let edges = pop.edges().active_edges().collect();
            (steps, eff, ev, states, edges)
        };

        let mut a = EventSim::new_faulted(compiled.clone(), n, 17, plan());
        a.run_faulted_to(end);
        let mut b = EventSim::new_faulted(compiled.clone(), n, 17, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "EventSim/churn"
        );

        let mut a = BucketSim::new_faulted(compiled.clone(), n, 17, plan());
        a.run_faulted_to(end);
        let mut b = BucketSim::new_faulted(compiled.clone(), n, 17, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "BucketSim/churn"
        );

        let mut a = RoundSim::new_faulted(compiled.clone(), n, 17, plan());
        a.run_faulted_to(end);
        let mut b = RoundSim::new_faulted(compiled.clone(), n, 17, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundSim/churn"
        );

        let mut a = RoundBucketSim::new_faulted(compiled.clone(), n, 17, plan());
        a.run_faulted_to(end);
        let mut b = RoundBucketSim::new_faulted(compiled, n, 17, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundBucketSim/churn"
        );

        let mut a = Simulation::new_faulted(p.clone(), n, 17, plan());
        a.run_faulted_to(end);
        let mut b = Simulation::new_faulted(p.clone(), n, 17, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/uniform/churn"
        );

        let mut a = Simulation::with_scheduler_faulted(p.clone(), n, 17, ShuffledRounds::new(), plan());
        a.run_faulted_to(end);
        let mut b = Simulation::with_scheduler_faulted(p, n, 17, ShuffledRounds::new(), plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/shuffled-rounds/churn"
        );
    }
}

// ---------------------------------------------------------------------
// Adaptive adversaries: shared-plan paired statistics, coin-for-coin
// stop/resume across decision draws, and brute-forced bookkeeping
// after adaptive damage.
// ---------------------------------------------------------------------

mod adversary {
    use super::*;
    use netcon::core::{AdversaryPlan, AdversaryPolicy, Cadence, FaultEvent, FaultPlan};

    #[test]
    fn matching_under_adaptive_adversary_matches_across_engines() {
        // Every trial hands every engine the *same* adversary (cadence,
        // policies, floor) plus one scheduled arrival and one seeded
        // random crash. Trajectories differ per engine (disjoint seed
        // streams ⇒ different configurations at the decision draws ⇒
        // different targeted damage), but the decision *times* and the
        // policy are plan-determined, so all six engine/scheduler
        // combos sample the identical adaptive process — the paired
        // statistics must agree. The matching process stays convergent
        // under every policy: widowed and cut `m` nodes are terminal,
        // fresh `a` nodes pair up.
        let plan = |s: u64| {
            FaultPlan::new(s)
                .at(150, FaultEvent::Arrive)
                .at(500, FaultEvent::CrashRandom)
                .with_adversary(
                    AdversaryPlan::new(Cadence::Ramp {
                        start: 80,
                        first_gap: 160,
                        min_gap: 40,
                        count: 3,
                    })
                    .policy(AdversaryPolicy::CrashMaxDegree)
                    .policy(AdversaryPolicy::CutBridge)
                    .min_alive(24),
                )
        };
        super::faults::assert_equivalent_5way_faulted(
            "Maximum-Matching/adversary",
            &matching_protocol(),
            |v, _| v.count_index(0) <= 1,
            plan,
            32,
            3_000,
        );
    }

    /// Stop/resume across *decision* draws is coin-for-coin identical:
    /// interrupting exactly at (and between) the adversary's decision
    /// times must reproduce the bit-exact trajectory, because a resumed
    /// engine re-derives the same configuration snapshot and the pure
    /// policy re-emits the same damage. FT-star makes every strike also
    /// exercise the crash-notification remap.
    #[test]
    fn stop_resume_at_decision_draws_is_coin_for_coin_identical() {
        use netcon::protocols::ft_star;
        let p = ft_star::protocol();
        let compiled = p.compile();
        let n = 14;
        let plan = || {
            FaultPlan::new(41)
                .at(260, FaultEvent::Arrive)
                .with_adversary(
                    AdversaryPlan::new(Cadence::Burst(vec![120, 340, 560]))
                        .policy(AdversaryPolicy::CrashMaxDegree)
                        .min_alive(6),
                )
        };
        let mut stops = plan().boundary_times();
        assert_eq!(stops, vec![120, 260, 340, 560], "events and decisions merge");
        stops.push(900);
        let end = 900;
        type Fp = (u64, u64, u64, Vec<StateId>, Vec<(usize, usize)>);
        let fp = |pop: &Population<StateId>, steps: u64, eff: u64, ev: u64| -> Fp {
            let states = (0..pop.n()).map(|u| *pop.state(u)).collect();
            let edges = pop.edges().active_edges().collect();
            (steps, eff, ev, states, edges)
        };

        let mut a = EventSim::new_faulted(compiled.clone(), n, 23, plan());
        a.run_faulted_to(end);
        let mut b = EventSim::new_faulted(compiled.clone(), n, 23, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            a.fault_state().expect("faulted").decisions_taken(),
            3,
            "all decisions fired"
        );
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "EventSim/adversary"
        );

        let mut a = BucketSim::new_faulted(compiled.clone(), n, 23, plan());
        a.run_faulted_to(end);
        let mut b = BucketSim::new_faulted(compiled.clone(), n, 23, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "BucketSim/adversary"
        );

        let mut a = RoundSim::new_faulted(compiled.clone(), n, 23, plan());
        a.run_faulted_to(end);
        let mut b = RoundSim::new_faulted(compiled.clone(), n, 23, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundSim/adversary"
        );

        let mut a = RoundBucketSim::new_faulted(compiled.clone(), n, 23, plan());
        a.run_faulted_to(end);
        let mut b = RoundBucketSim::new_faulted(compiled, n, 23, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert!(a.pool_invariant_holds() && b.pool_invariant_holds());
        assert_eq!(
            fp(&a.to_population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(&b.to_population(), b.steps(), b.effective_steps(), b.edge_events()),
            "RoundBucketSim/adversary"
        );

        let mut a = Simulation::new_faulted(p.clone(), n, 23, plan());
        a.run_faulted_to(end);
        let mut b = Simulation::new_faulted(p.clone(), n, 23, plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/uniform/adversary"
        );

        let mut a =
            Simulation::with_scheduler_faulted(p.clone(), n, 23, ShuffledRounds::new(), plan());
        a.run_faulted_to(end);
        let mut b = Simulation::with_scheduler_faulted(p, n, 23, ShuffledRounds::new(), plan());
        for &s in &stops {
            b.run_faulted_to(s);
        }
        assert_eq!(
            fp(a.population(), a.steps(), a.effective_steps(), a.edge_events()),
            fp(b.population(), b.steps(), b.effective_steps(), b.edge_events()),
            "Simulation/shuffled-rounds/adversary"
        );
    }

    mod bookkeeping {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Adaptive damage rides the same `ResolvedFault` path as
            /// scheduled events, so after any cadence / policy-set /
            /// budget / floor combination (interleaved with random
            /// scheduled faults), every engine's incremental candidate
            /// structure must equal a brute-force recomputation over
            /// the alive population — the adaptive mirror of
            /// `fault_bookkeeping::candidate_structures_track_faults_exactly`.
            #[test]
            fn candidate_structures_track_adaptive_damage_exactly(
                n in 4usize..14,
                seed in any::<u64>(),
                plan_seed in any::<u64>(),
                choices in proptest::collection::vec((0u64..220, any::<u8>()), 0..4),
                cadence_kind in 0u8..3,
                start in 0u64..200,
                gap in 1u64..90,
                count in 1u32..5,
                policy_mask in 1u8..16,
                budget_sel in 0u64..12,
                floor_sel in 0usize..8,
            ) {
                // The vendored proptest has no Option strategy; fold
                // None into the upper half of a plain range.
                let budget = (budget_sel < 6).then_some(budget_sel);
                let floor = (floor_sel < 4).then(|| 2 + floor_sel);
                let cadence = match cadence_kind {
                    0 => Cadence::Periodic { start, every: gap, count },
                    1 => Cadence::Burst(
                        (0..u64::from(count)).map(|k| start + k * gap).collect(),
                    ),
                    _ => Cadence::Ramp {
                        start,
                        first_gap: gap,
                        min_gap: 1 + gap / 4,
                        count,
                    },
                };
                let mut adv = AdversaryPlan::new(cadence);
                let all = [
                    AdversaryPolicy::CrashMaxDegree,
                    AdversaryPolicy::CrashState(1),
                    AdversaryPolicy::CutBridge,
                    AdversaryPolicy::CutAtWalker(1),
                ];
                for (i, &pol) in all.iter().enumerate() {
                    if policy_mask & (1 << i) != 0 {
                        adv = adv.policy(pol);
                    }
                }
                if let Some(b) = budget {
                    adv = adv.budget(b);
                }
                if let Some(f) = floor {
                    adv = adv.min_alive(f);
                }
                let plan = super::super::fault_bookkeeping::plan_from(&choices, plan_seed)
                    .with_adversary(adv);

                let p = super::matching_protocol().compile();
                let mut ev = EventSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut bu = BucketSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut rs = RoundSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut rb = RoundBucketSim::new_faulted(p.clone(), n, seed, plan);

                for target in [120u64, 260, 520] {
                    ev.run_faulted_to(target);
                    bu.run_faulted_to(target);
                    rs.run_faulted_to(target);
                    rb.run_faulted_to(target);

                    let brute = super::super::fault_bookkeeping::brute;
                    let exact_e =
                        brute(&p, ev.population(), ev.fault_state().expect("faulted"));
                    prop_assert_eq!(2 * ev.effective_pairs() as u64, exact_e);

                    let bp = bu.to_population();
                    let bfs = bu.fault_state().expect("faulted").clone();
                    let exact_b = brute(&p, &bp, &bfs);
                    prop_assert_eq!(bu.candidate_weight(), exact_b);

                    let exact_r =
                        brute(&p, rs.population(), rs.fault_state().expect("faulted"));
                    prop_assert_eq!(2 * rs.effective_pairs() as u64, exact_r);
                    prop_assert!(rs.pool_invariant_holds());

                    let rbp = rb.to_population();
                    let rbfs = rb.fault_state().expect("faulted").clone();
                    let exact_q = brute(&p, &rbp, &rbfs);
                    prop_assert_eq!(2 * rb.effective_pairs(), exact_q);
                    prop_assert!(rb.unscheduled_candidates() <= rb.effective_pairs());
                    prop_assert!(rb.pool_invariant_holds());
                    prop_assert!(rb.round_arenas_consistent());
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Brute-force candidate recomputation under random fault sequences.
// ---------------------------------------------------------------------

mod fault_bookkeeping {
    use super::*;
    use netcon::core::Machine;
    use netcon::core::{FaultEvent, FaultPlan, FaultState};
    use proptest::prelude::*;

    pub(super) fn plan_from(choices: &[(u64, u8)], seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        let mut crashes = 0;
        for &(at, kind) in choices {
            let ev = match kind % 3 {
                0 => {
                    // Keep at least two nodes alive for the engines.
                    crashes += 1;
                    if crashes > 2 {
                        continue;
                    }
                    FaultEvent::CrashRandom
                }
                1 => FaultEvent::Arrive,
                _ => FaultEvent::DeleteRandomActiveEdges(1 + u32::from(kind % 2)),
            };
            plan = plan.at(at, ev);
        }
        plan
    }

    /// The exact effective ordered-pair count over the *alive*
    /// population, recomputed from scratch — the ground truth each
    /// engine's incremental fault bookkeeping must match.
    pub(super) fn brute(
        p: &netcon::core::CompiledTable,
        pop: &Population<StateId>,
        fs: &FaultState,
    ) -> u64 {
        let mut exact = 0u64;
        for u in 0..pop.n() {
            for v in 0..pop.n() {
                if u == v || !fs.is_alive(u) || !fs.is_alive(v) {
                    continue;
                }
                let link = Link::from(pop.edges().is_active(u, v));
                exact += u64::from(p.can_affect(pop.state(u), pop.state(v), link));
            }
        }
        exact
    }

    /// Matching over `s0` in a 40-state table, whose effect rows span two
    /// words — and the initial state pairs with itself, so a ghost in it
    /// would be a candidate.
    fn many_state_matching() -> netcon::core::CompiledTable {
        let mut b = ProtocolBuilder::new("many-state-matching");
        let ids: Vec<_> = (0..40).map(|i| b.state(format!("s{i}"))).collect();
        b.initial(ids[0]);
        b.rule((ids[0], ids[0], Link::Off), (ids[1], ids[1], Link::On));
        b.build().expect("valid").compile()
    }

    /// An arrival rescans the arriving node's row while the other ghost
    /// slot is still absent: the ghost is in no state's node bitset, so
    /// the pair with it stays out of the set on a two-word effect row
    /// too. (Only the arrival due at draw 0 is applied: the second
    /// arrival's own rescan would restore the pair the first one wrongly
    /// added.)
    #[test]
    fn many_state_arrival_leaves_the_other_ghost_out() {
        let plan = FaultPlan::new(1)
            .at(0, FaultEvent::Arrive)
            .at(1_000, FaultEvent::Arrive);
        let mut ev = EventSim::new_faulted(many_state_matching(), 8, 5, plan.clone());
        ev.run_faulted_to(0);
        let mut rs = RoundSim::new_faulted(many_state_matching(), 8, 5, plan);
        rs.run_faulted_to(0);
        for (engine, pairs, fs) in [
            ("EventSim", ev.effective_pairs(), ev.fault_state()),
            ("RoundSim", rs.effective_pairs(), rs.fault_state()),
        ] {
            let alive = fs.expect("faulted").alive_count();
            assert_eq!(alive, 9, "{engine}");
            assert_eq!(pairs, alive * (alive - 1) / 2, "{engine}");
        }
        assert!(rs.pool_invariant_holds());
    }

    proptest! {
        /// After an arbitrary interleaving of steps, crashes, arrivals,
        /// and edge deletions, every engine's candidate structure equals
        /// a brute-force recomputation over the alive population — and
        /// RoundSim's lazy pool partition still accounts for every pair
        /// of the current round. On matching, and on a 40-state matching
        /// whose effect rows span two words.
        #[test]
        fn candidate_structures_track_faults_exactly(
            n in 4usize..14,
            seed in any::<u64>(),
            plan_seed in any::<u64>(),
            choices in proptest::collection::vec((0u64..220, any::<u8>()), 0..6),
        ) {
            for p in [super::matching_protocol().compile(), many_state_matching()] {
                let plan = plan_from(&choices, plan_seed);

                let mut ev = EventSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut bu = BucketSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut rs = RoundSim::new_faulted(p.clone(), n, seed, plan.clone());
                let mut rb = RoundBucketSim::new_faulted(p.clone(), n, seed, plan);

                for target in [120u64, 260] {
                    ev.run_faulted_to(target);
                    bu.run_faulted_to(target);
                    rs.run_faulted_to(target);
                    rb.run_faulted_to(target);

                    let exact_e =
                        brute(&p, ev.population(), ev.fault_state().expect("faulted"));
                    prop_assert_eq!(2 * ev.effective_pairs() as u64, exact_e);

                    let bp = bu.to_population();
                    let bfs = bu.fault_state().expect("faulted").clone();
                    let exact_b = brute(&p, &bp, &bfs);
                    prop_assert_eq!(bu.candidate_weight(), exact_b);
                    prop_assert!(bu.adjacency_consistent());
                    prop_assert!(bu.buckets_consistent());

                    let exact_r =
                        brute(&p, rs.population(), rs.fault_state().expect("faulted"));
                    prop_assert_eq!(2 * rs.effective_pairs() as u64, exact_r);
                    prop_assert!(rs.pool_invariant_holds());

                    // The sparse round engine's counted strata must add up to
                    // the same exact candidate count, its unscheduled slice
                    // can never exceed it, and the per-round pool partition
                    // must account for every remaining pair.
                    let rbp = rb.to_population();
                    let rbfs = rb.fault_state().expect("faulted").clone();
                    let exact_q = brute(&p, &rbp, &rbfs);
                    prop_assert_eq!(2 * rb.effective_pairs(), exact_q);
                    prop_assert!(rb.unscheduled_candidates() <= rb.effective_pairs());
                    prop_assert!(rb.pool_invariant_holds());
                    prop_assert!(rb.round_arenas_consistent());
                    prop_assert!(rb.view().adjacency_consistent(&[]));
                    prop_assert!(rb.view().buckets_consistent(|u| rbfs.is_alive(u)));
                }
            }
        }

        /// The sparse round engine on Simple-Global-Line's five states.
        /// From round 2 on the round-start classes are mixed, so a
        /// touched node owns several cohorts (the matching table above
        /// never gives one more than one). After random crash, arrival
        /// and edge-delete histories, its counted strata must still
        /// match brute force, and its cohort runs and partner lists must
        /// stay well formed.
        #[test]
        fn round_bucket_tracks_faults_on_a_multi_state_table(
            n in 4usize..14,
            seed in any::<u64>(),
            plan_seed in any::<u64>(),
            choices in proptest::collection::vec((0u64..500, any::<u8>()), 0..6),
        ) {
            let p = simple_global_line::protocol().compile();
            let plan = plan_from(&choices, plan_seed);
            let mut rb = RoundBucketSim::new_faulted(p.clone(), n, seed, plan);

            for target in [60u64, 120, 200, 260, 380, 520] {
                rb.run_faulted_to(target);
                let rbp = rb.to_population();
                let rbfs = rb.fault_state().expect("faulted").clone();
                let exact_q = brute(&p, &rbp, &rbfs);
                prop_assert_eq!(2 * rb.effective_pairs(), exact_q);
                prop_assert!(rb.unscheduled_candidates() <= rb.effective_pairs());
                prop_assert!(rb.pool_invariant_holds());
                prop_assert!(rb.round_arenas_consistent());
                prop_assert!(rb.view().adjacency_consistent(&[]));
                prop_assert!(rb.view().buckets_consistent(|u| rbfs.is_alive(u)));
            }
        }

        /// Hubs under faults on the sparse uniform engine: FT-star's
        /// centre gathers every live node, so its adjacency row leaves
        /// the inline cells for a heap row, and crashes (a max-degree
        /// adversary and random ones), arrivals and edge deletions tear
        /// it down and rebuild it. After each stretch its candidate
        /// weight must match brute force and its rows must agree with
        /// each other and with its on list.
        #[test]
        fn bucket_hub_rows_track_faults(
            n in 4usize..14,
            seed in any::<u64>(),
            plan_seed in any::<u64>(),
            choices in proptest::collection::vec((0u64..3000, any::<u8>()), 0..6),
        ) {
            use netcon::core::{AdversaryPlan, AdversaryPolicy, Cadence};
            let p = netcon::protocols::ft_star::protocol().compile();
            let strikes = AdversaryPlan::new(Cadence::Burst(vec![900, 1800]))
                .policy(AdversaryPolicy::CrashMaxDegree)
                .min_alive(3);
            let plan = plan_from(&choices, plan_seed).with_adversary(strikes);
            let mut bu = BucketSim::new_faulted(p.clone(), n, seed, plan);
            let mut widest = 0;
            for target in (150u64..3600).step_by(150) {
                bu.run_faulted_to(target);
                let bp = bu.to_population();
                let bfs = bu.fault_state().expect("faulted").clone();
                let exact_b = brute(&p, &bp, &bfs);
                prop_assert_eq!(bu.candidate_weight(), exact_b);
                prop_assert!(bu.adjacency_consistent());
                prop_assert!(bu.buckets_consistent());
                widest = widest.max((0..bp.n()).map(|u| bu.view().degree(u)).max().unwrap_or(0));
            }
            prop_assert!(n < 6 || widest > 2, "no hub formed at n = {n}");
        }
    }
}

// ---------------------------------------------------------------------
// Coin-level properties of the shared skip sampler.
// ---------------------------------------------------------------------

mod skip_schedule {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        /// The inversion is the exact geometric CDF: skip(u, p) = g iff
        /// (1−p)^{g+1} < u ≤ (1−p)^g — i.e. g leading "misses" in the
        /// naive engine's Bernoulli sequence.
        #[test]
        fn inversion_matches_geometric_cdf(raw in any::<u64>(), kp in 1u64..1000, mp in 1000u64..2000) {
            let p = kp as f64 / mp as f64;
            let u = unit_open01(raw);
            let g = geometric_skip(u, p);
            prop_assert!(g >= 0.0);
            // Guard the comparison against the extreme tail where the
            // powers underflow.
            if g < 1e6 {
                let q = 1.0 - p;
                let hi = q.powf(g);
                let lo = q.powf(g + 1.0);
                // f64 rounding at the boundary: allow one ulp-ish slack.
                prop_assert!(u <= hi * (1.0 + 1e-12), "u={u} > (1-p)^g={hi}");
                prop_assert!(u > lo * (1.0 - 1e-12), "u={u} <= (1-p)^(g+1)={lo}");
            }
        }

        /// Sharing one skip schedule (the same unit draw), the engine
        /// with the larger candidate set never skips more: a hit
        /// probability p_bucket ≥ p_event hits no later on every draw.
        #[test]
        fn shared_schedule_is_monotone_in_p(raw in any::<u64>(), ke in 1u64..500, extra in 0u64..500, m in 1000u64..4000) {
            let u = unit_open01(raw);
            let p_event = ke as f64 / m as f64;
            let p_bucket = (ke + extra) as f64 / m as f64;
            prop_assert!(geometric_skip(u, p_bucket) <= geometric_skip(u, p_event));
        }

        /// The two event engines count the same candidate set on random
        /// reachable matching configurations: exactly the effective pairs
        /// a brute-force scan counts.
        #[test]
        fn candidate_sets_are_nested_and_exact(n in 4usize..32, steps in 0u64..40, seed in any::<u64>()) {
            let p = super::matching_protocol().compile();
            let mut ev = EventSim::new(p.clone(), n, seed);
            ev.run_to(steps);
            let pop = ev.population().clone();
            let mut bu = BucketSim::from_population(p.clone(), pop.clone(), seed);

            // Brute force over all ordered pairs.
            let mut exact = 0u64;
            for u in 0..n {
                for v in 0..n {
                    if u == v { continue; }
                    let link = Link::from(pop.edges().is_active(u, v));
                    use netcon::core::Machine;
                    exact += u64::from(p.can_affect(pop.state(u), pop.state(v), link));
                }
            }
            prop_assert_eq!(2 * ev.effective_pairs() as u64, exact);
            prop_assert_eq!(bu.candidate_weight(), 2 * ev.effective_pairs() as u64);
        }

        /// Driving both engines with the same seed does not make them
        /// coin-identical (their draws differ), but on a protocol whose
        /// effectiveness is link-blind in the initial configuration the
        /// *first* skip of both engines comes from the same schedule
        /// entry and the same p — so it is bit-equal.
        #[test]
        fn first_skip_agrees_when_sets_coincide(n in 4usize..40, seed in any::<u64>()) {
            let p = super::matching_protocol().compile();
            // Initial configuration: all nodes in state a, no edges. The
            // exact set and the bucket set are both "all pairs": p = 1 …
            // unless n(n−1)/2 = k, in which case both engines skip the
            // draw entirely. Either way their first candidate lands on
            // step 1 with the same skip count (0).
            let mut ev = EventSim::new(p.clone(), n, seed);
            let mut bu = BucketSim::new(p, n, seed);
            let (re, rb) = (ev.advance(u64::MAX), bu.advance(u64::MAX));
            let skip_of = |s| match s {
                netcon::core::EventStep::Candidate { skipped, .. } => skipped,
                other => panic!("expected a candidate, got {other:?}"),
            };
            prop_assert_eq!(skip_of(re), 0);
            prop_assert_eq!(skip_of(rb), 0);
            prop_assert_eq!(ev.steps(), 1);
            prop_assert_eq!(bu.steps(), 1);
        }
    }

    /// Exact negative-hypergeometric survival, draw by draw: the
    /// probability the first `t` draws of a permutation of `r` pairs
    /// (`k` of them candidates) are all non-candidates — what the naive
    /// ShuffledRounds loop realizes one draw at a time.
    fn nh_survival_brute(r: u64, k: u64, t: u64) -> f64 {
        if t > r - k {
            return 0.0;
        }
        (0..t).map(|i| (r - k - i) as f64 / (r - i) as f64).product()
    }

    /// Exact hypergeometric pmf by binomial-coefficient ratios.
    fn hg_pmf_brute(marked: u64, total: u64, draws: u64, x: u64) -> f64 {
        fn choose(n: u64, k: u64) -> f64 {
            if k > n {
                return 0.0;
            }
            (0..k).map(|i| (n - i) as f64 / (k - i) as f64).product()
        }
        choose(marked, x) * choose(total - marked, draws - x) / choose(total, draws)
    }

    proptest! {
        /// The within-round skip inversion is the exact negative
        /// hypergeometric CDF: skip(u, r, k) = t iff S(t) ≥ u > S(t+1),
        /// with S the brute-force draw-by-draw survival product — i.e.
        /// t leading misses of the naive round-player's permutation.
        #[test]
        fn hypergeometric_skip_matches_brute_force_cdf(
            raw in any::<u64>(),
            r in 2u64..400,
            k_seed in any::<u64>(),
        ) {
            let k = 1 + k_seed % r;
            let u = unit_open01(raw);
            let t = hypergeometric_skip(u, r, k);
            prop_assert!(t <= r - k, "skip {t} exceeds the round's misses");
            let hi = nh_survival_brute(r, k, t);
            let lo = nh_survival_brute(r, k, t + 1);
            // f64 rounding at the boundary: allow one ulp-ish slack.
            prop_assert!(u <= hi * (1.0 + 1e-9), "u={u} > S({t})={hi}");
            prop_assert!(u > lo * (1.0 - 1e-9), "u={u} <= S({})={lo}", t + 1);
        }

        /// Within-round exhaustion: when the uniform draw is deep in the
        /// tail the skip count saturates at exactly r − k (a round can
        /// never run out of candidates before its last candidate), and a
        /// full candidate set never skips.
        #[test]
        fn hypergeometric_skip_exhaustion_edges(r in 1u64..300, k_seed in any::<u64>()) {
            let k = 1 + k_seed % r;
            // One candidate, tail draw: S(r−1) = 1/r is far above the
            // smallest unit draw (2⁻⁵³), so the skip count saturates at
            // exactly the round's miss count.
            prop_assert_eq!(hypergeometric_skip(unit_open01(0), r, 1), r - 1);
            // u = 1 maps to zero skips; a full candidate set never skips.
            prop_assert_eq!(hypergeometric_skip(1.0, r, k), 0);
            prop_assert_eq!(hypergeometric_skip(unit_open01(raw_mid()), r, r), 0);
        }

        /// The batch-split inversion is the exact hypergeometric CDF:
        /// count(u) is the smallest x with CDF(x) ≥ u, against the
        /// brute-force pmf.
        #[test]
        fn hypergeometric_count_matches_brute_force_cdf(
            raw in any::<u64>(),
            marked in 0u64..40,
            extra in 0u64..40,
            draws_seed in any::<u64>(),
        ) {
            let total = marked + extra;
            prop_assume!(total >= 1);
            let draws = draws_seed % (total + 1);
            let u = unit_open01(raw);
            let x = hypergeometric_count(u, marked, total, draws);
            let lo = draws.saturating_sub(total - marked);
            let hi = marked.min(draws);
            prop_assert!(x >= lo && x <= hi, "count {x} outside [{lo}, {hi}]");
            let cdf = |y: u64| -> f64 {
                (lo..=y).map(|j| hg_pmf_brute(marked, total, draws, j)).sum()
            };
            prop_assert!(cdf(x) >= u * (1.0 - 1e-9), "CDF({x}) < u={u}");
            if x > lo {
                prop_assert!(cdf(x - 1) < u * (1.0 + 1e-9), "{x} not minimal for u={u}");
            }
        }
    }

    /// A fixed mid-range raw draw for the proptest above.
    fn raw_mid() -> u64 {
        u64::MAX / 2
    }

    /// Non-proptest spot check: the sampler consumes exactly one raw draw
    /// in the engines (the documented schedule contract), so replaying a
    /// recorded schedule reproduces the skips.
    #[test]
    fn schedule_replay_reproduces_skips() {
        let mut rng = SmallRng::seed_from_u64(7);
        let schedule: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let p = 0.125;
        let a: Vec<f64> = schedule.iter().map(|&r| geometric_skip(unit_open01(r), p)).collect();
        let b: Vec<f64> = schedule.iter().map(|&r| geometric_skip(unit_open01(r), p)).collect();
        assert_eq!(a, b);
        // And the empirical mean sits near the geometric mean (1−p)/p.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - (1.0 - p) / p).abs() < 4.0, "mean skip {mean}");
    }
}

// ---------------------------------------------------------------------
// Bit identity of the round samplers against a frozen reference.
// ---------------------------------------------------------------------

mod sampler_identity {
    use netcon::core::testing::{
        hypergeometric_count, hypergeometric_count_large, hypergeometric_skip, unit_open01,
    };
    use proptest::prelude::*;

    /// The three hypergeometric inversions in their plain form — a fresh
    /// `u64 → f64` conversion per factor, bisection over the whole window,
    /// heap-allocated tables — kept verbatim (doc comments aside) so that
    /// any change to the samplers' answers fails here instead of silently
    /// reshuffling every round engine's coin stream.
    mod frozen {
        pub(super) fn nh_survival(remaining: u64, hits: u64, t: u64) -> f64 {
            if t > remaining - hits {
                return 0.0;
            }
            let mut s = 1.0f64;
            for j in 0..hits {
                s *= (remaining - t - j) as f64 / (remaining - j) as f64;
                if s == 0.0 {
                    break;
                }
            }
            s
        }

        fn nh_bisect(u01: f64, remaining: u64, hits: u64, lo: u64, hi: u64) -> u64 {
            let (mut lo, mut hi) = (lo, hi);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if nh_survival(remaining, hits, mid + 1) < u01 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            lo
        }

        pub(super) fn hypergeometric_skip(u01: f64, remaining: u64, hits: u64) -> u64 {
            debug_assert!(hits >= 1 && hits <= remaining);
            debug_assert!(u01 > 0.0 && u01 <= 1.0);
            let misses = remaining - hits;
            if misses == 0 {
                return 0;
            }
            // The result is the smallest t with S(t+1) < u (the same bracketing
            // convention as geometric_skip: S(t) ≥ u > S(t+1) ⇔ skips = t).
            let expect = misses / (hits + 1) + 1;
            if hits.saturating_mul(34) > expect.saturating_mul(4) {
                // Dense candidate set: the expected skip count is tiny, so walk
                // the draw-by-draw product. The cap bounds a pathological tail
                // (probability ≲ e⁻³²) which falls through to the bisection.
                let cap = expect.saturating_mul(32).min(misses);
                let mut surv = 1.0f64;
                for t in 0..cap {
                    surv *= (misses - t) as f64 / (remaining - t) as f64;
                    if surv < u01 {
                        return t;
                    }
                }
                if cap == misses {
                    // S(misses + 1) = 0 < u: the permutation is out of misses.
                    return misses;
                }
                nh_bisect(u01, remaining, hits, cap, misses)
            } else {
                nh_bisect(u01, remaining, hits, 0, misses)
            }
        }

        pub(super) fn hypergeometric_count(u01: f64, marked: u64, total: u64, draws: u64) -> u64 {
            debug_assert!(marked <= total && draws <= total);
            debug_assert!(u01 > 0.0 && u01 <= 1.0);
            let unmarked = total - marked;
            let lo = draws.saturating_sub(unmarked);
            let hi = marked.min(draws);
            if lo == hi {
                return lo;
            }
            // q(x+1)/q(x) for the pmf q(x) = C(marked, x)·C(unmarked, draws−x).
            let ratio = |x: u64| -> f64 {
                ((marked - x) as f64 * (draws - x) as f64)
                    / ((x + 1) as f64 * (unmarked + x + 1 - draws) as f64)
            };
            let mode =
                ((u128::from(draws + 1) * u128::from(marked + 1)) / u128::from(total + 2)) as u64;
            let mode = mode.clamp(lo, hi);
            let mut pmf = vec![0.0f64; (hi - lo + 1) as usize];
            pmf[(mode - lo) as usize] = 1.0;
            let mut q = 1.0f64;
            for x in mode..hi {
                q *= ratio(x);
                pmf[(x + 1 - lo) as usize] = q;
            }
            q = 1.0;
            for x in (lo..mode).rev() {
                q /= ratio(x);
                pmf[(x - lo) as usize] = q;
            }
            let z: f64 = pmf.iter().sum();
            let target = u01 * z;
            let mut cum = 0.0f64;
            for (i, &p) in pmf.iter().enumerate() {
                cum += p;
                if cum >= target {
                    return lo + i as u64;
                }
            }
            hi
        }

        pub(super) fn hypergeometric_count_large(
            u01: f64,
            marked: u64,
            total: u64,
            draws: u64,
        ) -> u64 {
            debug_assert!(marked <= total && draws <= total);
            debug_assert!(u01 > 0.0 && u01 <= 1.0);
            let unmarked = total - marked;
            let lo = draws.saturating_sub(unmarked);
            let hi = marked.min(draws);
            if hi - lo <= 4096 {
                return hypergeometric_count(u01, marked, total, draws);
            }
            let (nf, kf, mf) = (total as f64, draws as f64, marked as f64);
            let p = mf / nf;
            let sigma = (kf * p * (1.0 - p) * ((nf - kf) / (nf - 1.0))).sqrt();
            let half = (12.0 * sigma) as u64 + 32;
            let mode =
                ((u128::from(draws + 1) * u128::from(marked + 1)) / u128::from(total + 2)) as u64;
            let mode = mode.clamp(lo, hi);
            let wlo = mode.saturating_sub(half).max(lo);
            let whi = mode.saturating_add(half).min(hi);
            let ratio = |x: u64| -> f64 {
                ((marked - x) as f64 * (draws - x) as f64)
                    / ((x + 1) as f64 * (unmarked + x + 1 - draws) as f64)
            };
            let mut pmf = vec![0.0f64; (whi - wlo + 1) as usize];
            pmf[(mode - wlo) as usize] = 1.0;
            let mut q = 1.0f64;
            for x in mode..whi {
                q *= ratio(x);
                pmf[(x + 1 - wlo) as usize] = q;
            }
            q = 1.0;
            for x in (wlo..mode).rev() {
                q /= ratio(x);
                pmf[(x - wlo) as usize] = q;
            }
            let z: f64 = pmf.iter().sum();
            let target = u01 * z;
            let mut cum = 0.0f64;
            for (i, &p) in pmf.iter().enumerate() {
                cum += p;
                if cum >= target {
                    return wlo + i as u64;
                }
            }
            whi
        }

        /// The dense walk's running product after `t` factors (a test
        /// helper, not part of the frozen code).
        pub(super) fn walk_survival(remaining: u64, hits: u64, t: u64) -> f64 {
            let misses = remaining - hits;
            (0..t.min(misses + 1)).fold(1.0, |s, i| {
                s * ((misses - i) as f64 / (remaining - i) as f64)
            })
        }
    }

    /// `2⁵³`: from here on the samplers convert each factor from `u64`
    /// instead of stepping exact `f64` values.
    const EXACT: u64 = 1 << 53;

    /// Draws on both sides of the reference's decision threshold past its
    /// answer `t`: the rounded survival value `S(t + 1)` in the walk and
    /// the `hits`-factor forms, where affordable. A sampler whose
    /// rounding differs by one ulp answers differently on one of them.
    fn skip_boundary_draws(remaining: u64, hits: u64, t: u64) -> Vec<f64> {
        let mut s = Vec::new();
        if t < 100_000 {
            s.push(frozen::walk_survival(remaining, hits, t + 1));
        }
        if hits <= 100_000 {
            s.push(frozen::nh_survival(remaining, hits, t + 1));
        }
        s.into_iter()
            .filter(|&s| s > 0.0)
            .flat_map(|s| [s, s.next_up().min(1.0)])
            .collect()
    }

    /// The smallest draw at which the reference's count answer is the one
    /// it gives at `u`, and the draw one ulp below it: the exact jump of
    /// the inversion, found by bisecting the bit patterns of `(0, u]`.
    fn count_boundary_draws(f: impl Fn(f64) -> u64, u: f64) -> [f64; 2] {
        let x = f(u);
        let (mut lo, mut hi) = (1u64, u.to_bits());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if f(f64::from_bits(mid)) == x {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let jump = f64::from_bits(lo);
        [jump, jump.next_down().max(f64::MIN_POSITIVE)]
    }

    proptest! {
        /// Every regime of the skip sampler answers exactly what the
        /// frozen reference answers — on a random draw and on the
        /// reference's own threshold next to its answer: the dense walk
        /// at `remaining` up to 5·10⁹; the walk-cap fallback (a draw of at
        /// most 64·2⁻⁵³, where the walk runs out at 32× the expected
        /// skip and the search takes over); the bracketed sparse
        /// search at `remaining` up to 5·10⁹ with up to 40 000 hits; and
        /// the conversion branch at and above `remaining = 2⁵³`, for both
        /// the walk and the search. Two families aim at the certified
        /// closed-form path, whose error bound grows with the skip: 1–16
        /// hits at `remaining` up to 5·10⁹ and from 2⁵³ on (skips of up
        /// to ~10¹⁸, where the bound rarely fits between thresholds), and
        /// the matching-100k crossover, 10³–10⁵ hits among ≈ 5·10⁹ pairs
        /// (the walk/search switch sits at ≈ 24 000 hits).
        #[test]
        fn hypergeometric_skip_matches_frozen_reference(
            raw in any::<u64>(),
            rs in any::<u64>(),
            ks in any::<u64>(),
        ) {
            let u = unit_open01(raw);
            let tiny = unit_open01(raw % (64 << 11));
            // (draw, remaining, hits, probe the thresholds too)
            let mut cases = Vec::new();
            // Dense walk with about `e` expected skips.
            let r = 2 + rs % 5_000_000_000;
            let e = 1 + ks % 2000;
            cases.push((u, r, (r / e).max(1), true));
            // Walk-cap fallback: misses ≤ 7k(k+1) keeps the walk path.
            let k = 1 + ks % 2000;
            cases.push((tiny, k + 1 + rs % (7 * k * (k + 1)), k, false));
            // Bracketed sparse search.
            let k = 1 + ks % 40_000;
            cases.push((u, k + rs % 5_000_000_000, k, true));
            cases.push((tiny, k + rs % 5_000_000_000, k, false));
            // Conversion branch: straddling 2⁵³, then far above it.
            let k = 1 + ks % 2000;
            for r in [EXACT - 512 + rs % 1024, EXACT + rs % (1 << 62)] {
                cases.push((u, r, k, true));
                cases.push((u, r, r / (2 + ks % 8), true));
            }
            // Few hits among many pairs, `remaining` spread over every
            // scale up to 5·10⁹ so that both sides of the point where the
            // certified path stops trying (~10⁷ pairs) are covered.
            let k = 1 + ks % 16;
            cases.push((u, k + 1 + (rs >> 5) % (5_000_000_000 >> (rs % 24)), k, true));
            cases.push((u, EXACT + rs % (1 << 62), k, true));
            // The matching-100k crossover.
            let k = 1000 + ks % 99_001;
            cases.push((u, 5_000_000_000 - rs % 100_000_000, k, true));
            for (u, r, k, probe) in cases {
                let t = frozen::hypergeometric_skip(u, r, k);
                prop_assert_eq!(hypergeometric_skip(u, r, k), t, "u={u:e} remaining={r} hits={k}");
                let thresholds = if probe { skip_boundary_draws(r, k, t) } else { Vec::new() };
                for u in thresholds {
                    prop_assert_eq!(
                        hypergeometric_skip(u, r, k),
                        frozen::hypergeometric_skip(u, r, k),
                        "u={u:e} remaining={r} hits={k}"
                    );
                }
            }
        }

        /// The count samplers answer exactly what the frozen reference
        /// answers — on a random draw and at the reference's exact jump
        /// next to it: tables of 63 to 66 entries on both sides of the
        /// 64-entry stack table, with the support anchored at 0 by either
        /// `marked` or `draws` or lifted off it by a small unmarked side;
        /// random small ranges; `hypergeometric_count_large`'s windowed
        /// table on ranges above 4096; and the conversion branch at
        /// totals of 2⁵³ and beyond, for both tables.
        #[test]
        fn hypergeometric_count_matches_frozen_reference(
            raw in any::<u64>(),
            ms in any::<u64>(),
            ds in any::<u64>(),
        ) {
            let u = unit_open01(raw);
            let big = 1 + ds % 1_000_000;
            let mut cases = Vec::new();
            for span in [62, 63, 64, 65, ms % 200] {
                // Support [0, span] via marked, via draws, and
                // [draws − span, draws] via a span-sized unmarked side;
                // the last two at totals from just below 2⁵³ upward.
                cases.push((span, span + big + ms % 1000, span + ds % 1000));
                cases.push((span + big, 2 * span + big + ms % 1000, span));
                let marked = span + big + ms % 1000;
                cases.push((marked, marked + span, span + 1 + ds % big));
                let huge = EXACT - 512 + ms % (1 << 62);
                cases.push((span, huge, span + ds % 1000));
                cases.push((huge - span, huge, span + 1 + ds % big));
            }
            for (m, t, d) in cases {
                let d = d.min(t);
                let reference = |u| frozen::hypergeometric_count(u, m, t, d);
                let [jump, below] = count_boundary_draws(reference, u);
                for u in [u, jump, below] {
                    let x = reference(u);
                    let at = format!("u={u:e} marked={m} total={t} draws={d}");
                    prop_assert_eq!(hypergeometric_count(u, m, t, d), x, "{at}");
                    prop_assert_eq!(hypergeometric_count_large(u, m, t, d), x, "{at}");
                }
            }
            // The windowed table: ranges above 4096 at totals up to 5·10⁹,
            // and at totals past 2⁵³.
            let t = 10_000 + ms % 5_000_000_000;
            let m = 4200 + ds % (t - 8400);
            let d = 4200 + (ms ^ ds) % (t - 8400);
            let huge = EXACT + ms % (1 << 62);
            let (hm, hd) = (4200 + ds % 1_000_000_000, 4200 + (ms ^ ds) % 1_000_000_000);
            for (m, t, d) in [(m, t, d), (hm, huge, hd), (huge - hm, huge, hd)] {
                prop_assert_eq!(
                    hypergeometric_count_large(u, m, t, d),
                    frozen::hypergeometric_count_large(u, m, t, d),
                    "u={u:e} marked={m} total={t} draws={d}"
                );
            }
        }
    }

    /// One hit among ~3.5·10⁹ pairs, at a draw whose answer skips
    /// ~2.3·10⁹ of them. A closed-form `ln S` carries a cancellation
    /// error of ~`t·ε` ≈ 10⁻⁶ here, thousands of times the gap between
    /// consecutive survival values, so an error bound that does not
    /// grow with the skip would accept a wrong answer.
    #[test]
    fn hypergeometric_skip_long_single_hit_skip() {
        let u = f64::from_bits(0x3fd6_8b58_c5d0_8182);
        assert_eq!(u, 0.352_255_051_782_798_15);
        let (r, k) = (3_541_621_206, 1);
        assert_eq!(frozen::hypergeometric_skip(u, r, k), 2_294_067_244);
        assert_eq!(hypergeometric_skip(u, r, k), 2_294_067_244);
        for u in skip_boundary_draws(r, k, 2_294_067_244) {
            assert_eq!(
                hypergeometric_skip(u, r, k),
                frozen::hypergeometric_skip(u, r, k)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Batched endgame absorption laws vs brute-force per-draw walks.
// ---------------------------------------------------------------------

mod endgame {
    use netcon::core::seeds::derive2;
    use netcon::core::testing::{exit_cdf, sample_absorption, survival, time_cap};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force per-draw DP: push the walker's distribution one ±1
    /// step at a time on `0..=L` with absorbing barriers, accumulating
    /// the mass absorbed at each end — the law the naive engines realize
    /// coin by coin, and the ground truth for the closed forms.
    fn brute_exit_cdf(z: usize, len: usize, t: u64) -> (f64, f64) {
        let mut p = vec![0.0f64; len + 1];
        p[z] = 1.0;
        let (mut at0, mut atl) = (0.0, 0.0);
        for _ in 0..t {
            let mut q = vec![0.0f64; len + 1];
            for x in 1..len {
                q[x - 1] += p[x] * 0.5;
                q[x + 1] += p[x] * 0.5;
            }
            at0 += q[0];
            atl += q[len];
            q[0] = 0.0;
            q[len] = 0.0;
            p = q;
        }
        (at0, atl)
    }

    proptest! {
        /// In the exact-DP regime (t ≤ 1024) the closed-form exit CDF
        /// must equal the brute-force per-draw DP to rounding.
        #[test]
        fn exit_cdf_matches_brute_force_dp(
            len in 2usize..12,
            z_seed in any::<u64>(),
            t in 0u64..200,
        ) {
            let z = 1 + (z_seed as usize) % (len - 1);
            let (b0, bl) = brute_exit_cdf(z, len, t);
            prop_assert!((exit_cdf(z, len, true, t) - b0).abs() < 1e-12);
            prop_assert!((exit_cdf(z, len, false, t) - bl).abs() < 1e-12);
            let s = survival(z, len, t);
            prop_assert!((s - (1.0 - b0 - bl)).abs() < 1e-12);
        }

        /// In the spectral regime (t > 1024) the truncated eigen-sum
        /// must still match the same brute force — the tolerance covers
        /// the documented e⁻⁴⁵ truncation, far below any statistical
        /// resolution.
        #[test]
        fn spectral_exit_cdf_matches_brute_force_dp(
            len in 8usize..32,
            z_seed in any::<u64>(),
            extra in 0u64..300,
        ) {
            let z = 1 + (z_seed as usize) % (len - 1);
            let t = 1025 + extra;
            let (b0, bl) = brute_exit_cdf(z, len, t);
            prop_assert!((exit_cdf(z, len, true, t) - b0).abs() < 1e-9);
            prop_assert!((exit_cdf(z, len, false, t) - bl).abs() < 1e-9);
        }
    }

    /// Paired-stats check of the joint sampler on its batched path
    /// (`len > 64`, where the engines replace per-draw coins with an
    /// exit-side draw plus a CDF inversion): exit-side rate and mean
    /// absorption time against a brute-force per-draw walk, plus the
    /// exact structural facts — parity of the absorption time and the
    /// documented time cap.
    #[test]
    fn batched_absorption_matches_per_draw_walk() {
        let (len, z) = (80usize, 30usize);
        let trials = 3_000u64;

        let mut rng = SmallRng::seed_from_u64(derive2(909, len as u64, 0));
        let mut b_exit0 = 0u64;
        let mut b_times = Vec::with_capacity(trials as usize);
        for _ in 0..trials {
            let mut x = z;
            let mut t = 0u64;
            let exit0 = loop {
                x = if rng.next_u64() & 1 == 0 { x - 1 } else { x + 1 };
                t += 1;
                if x == 0 {
                    break true;
                }
                if x == len {
                    break false;
                }
            };
            b_exit0 += u64::from(exit0);
            b_times.push(t as f64);
        }

        let mut rng = SmallRng::seed_from_u64(derive2(909, len as u64, 1));
        let mut s_exit0 = 0u64;
        let mut s_times = Vec::with_capacity(trials as usize);
        for _ in 0..trials {
            let (exit0, t) = sample_absorption(&mut rng, z, len);
            assert!(t <= time_cap(len), "sampled time {t} beyond the cap");
            let par = if exit0 { z as u64 } else { (len - z) as u64 };
            assert_eq!(t % 2, par % 2, "absorption-time parity violated");
            s_exit0 += u64::from(exit0);
            s_times.push(t as f64);
        }

        // Exit-side rate: both estimates sit on the exact gambler's-ruin
        // rational (L−z)/L, so their gap is binomial noise (σ ≈ 0.0125
        // at 3000 trials; allow 4σ).
        let (rb, rs) = (
            b_exit0 as f64 / trials as f64,
            s_exit0 as f64 / trials as f64,
        );
        let p0 = (len - z) as f64 / len as f64;
        assert!((rb - p0).abs() < 0.05, "brute exit rate {rb} vs exact {p0}");
        assert!((rs - p0).abs() < 0.05, "batched exit rate {rs} vs exact {p0}");

        // Mean absorption time: Welch z within 4σ (E[T] = z(L−z) = 1500
        // here; the relative sd is ≈ 80%, so 3000 paired trials resolve
        // a few percent).
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64], m: f64| {
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (v.len() - 1) as f64
        };
        let (mb, ms) = (mean(&b_times), mean(&s_times));
        let (vb, vs) = (var(&b_times, mb), var(&s_times, ms));
        let se = (vb / trials as f64 + vs / trials as f64).sqrt();
        let zscore = (mb - ms) / se;
        assert!(
            zscore.abs() < 4.0,
            "mean absorption times differ by {zscore:.1}σ (brute {mb:.0}, batched {ms:.0})"
        );
        let expect = (z * (len - z)) as f64;
        assert!(
            (ms - expect).abs() / expect < 0.10,
            "batched mean {ms:.0} far from z(L−z) = {expect}"
        );
    }
}
