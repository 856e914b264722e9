//! The exact event-driven engine: skip ineffective steps, simulate only
//! the interactions that can matter.
//!
//! Under the uniform random scheduler almost every selected pair of a
//! converging execution has no applicable transition — the paper's Θ(n³)
//! and Θ(n⁴) sequential running times are overwhelmingly idle draws. The
//! naive [`Simulation`](crate::Simulation) pays for each of them;
//! [`EventSim`] does not, while remaining *exact*:
//!
//! 1. It maintains the set `E` of **possibly-effective** pairs — pairs
//!    `{u, v}` with `can_affect(state(u), state(v), link(u, v))` —
//!    incrementally: only the ≤ `2(n−1)` pairs incident to an applied
//!    interaction can change membership, and only `{u, v}` itself unless
//!    an endpoint's state changed — so an applied interaction costs one
//!    pair update plus a word-parallel O(n·|Q|/64) row rescan per endpoint
//!    whose state changed ([`PairSet`] + [`EffectTable`](crate::EffectTable)).
//!    The configuration, this set and their fault repairs live in the
//!    dense core (`DenseCore`) shared with [`RoundSim`](crate::RoundSim);
//!    this engine adds the skip and the draw below.
//! 2. With `k = |E|` and `m = n(n−1)/2`, the number of consecutive draws
//!    that miss `E` is geometric with success probability `p = k/m`
//!    (states are frozen during misses, so draws are i.i.d.). `EventSim`
//!    samples that count in one inversion draw
//!    (`⌊ln U / ln(1−p)⌋`, `U` uniform on `(0, 1]`) and jumps the step
//!    counter, instead of making the draws.
//! 3. It then selects an *ordered* pair uniformly from `E` — exactly the
//!    conditional law of the uniform scheduler given that the draw hit
//!    `E` — and applies `interact` with real coins. (A possibly-effective
//!    pair may still resolve ineffective when a randomized rule samples
//!    the identity; such candidates are simulated explicitly, again
//!    matching the naive engine.)
//!
//! Every statistic the engines report — `steps`, `effective_steps`,
//! `edge_events`, `converged_at`, `last_effective`, and the full
//! configuration process — therefore has **identical distribution** to
//! [`Simulation`](crate::Simulation) under the uniform scheduler (up to
//! the f64 rounding of the inversion draw), at a cost proportional to the
//! number of *effective* interactions. The one behavioural difference is
//! benign: where the naive engine would grind through its whole step
//! budget on a quiescent-but-unstable configuration, `EventSim` detects
//! quiescence (the pair set is empty) and reports the exhausted budget
//! immediately.
//!
//! Construction takes a [`CompiledTable`](crate::CompiledTable), the only
//! [`EnumerableMachine`] (dense state indices → precomputed effect table).
//!
//! Memory: the pair-position map is a full `n × n` matrix (4n² bytes —
//! its contiguous rows are what the maintenance loop streams over), plus
//! membership/adjacency bitsets (~n²/4 bytes) and 4 bytes per member
//! pair: ~150 MB at `n = 6_000`, ~400 MB at `n = 10_000`
//! ([`approx_mem_bytes`](EventSim::approx_mem_bytes) measures the live
//! figure). Past the tens of thousands of nodes, the state-bucketed
//! [`BucketSim`](crate::BucketSim) runs the same distribution in
//! O(n + |Q|²) memory; [`Engine::auto`](crate::Engine::auto) picks
//! between the two by a memory budget.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::compiled::EnumerableMachine;
use crate::driver::{ExactEngine, Primitives};
use crate::engine::{uniform_skip, Bookkeeping, DenseCore, PairSet};
use crate::fault::{FaultPlan, FaultState};
use crate::sim::StepResult;
use crate::{EngineView, Population};

/// The result of one [`EventSim::advance`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStep {
    /// No pair has an applicable transition; the configuration can never
    /// change again. The step counter is left untouched.
    Quiescent,
    /// The step budget was reached (the counter now equals it) before the
    /// next possibly-effective draw; no interaction was applied.
    BudgetExhausted,
    /// Ineffective draws were skipped and one candidate interaction was
    /// simulated; `result` tells whether its coins made it effective.
    Candidate {
        /// Ineffective draws skipped before the candidate.
        skipped: u64,
        /// The candidate interaction's outcome.
        result: StepResult,
    },
}

/// An event-driven execution of a machine on a population under the
/// uniform random scheduler.
///
/// Runs through the shared [`ExactEngine`] driver (`run_until`,
/// `run_until_edges`, `run_to`, the faulted runs) with output distribution
/// identical to [`Simulation`](crate::Simulation); see the
/// exactness argument in `src/event.rs`. There is no
/// scheduler parameter: the geometric skip law is specific to the uniform
/// scheduler, which is also the one all running-time claims in the paper
/// are stated for.
///
/// # Example
///
/// ```
/// use netcon_core::{EventSim, ExactEngine, Link, ProtocolBuilder};
/// use netcon_graph::properties::is_maximum_matching;
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?.compile();
///
/// let mut sim = EventSim::new(protocol, 30, 1);
/// let outcome = sim.run_until(|p| is_maximum_matching(p.edges()), 1_000_000);
/// assert!(outcome.stabilized());
/// assert!(sim.is_quiescent()); // O(1): the possibly-effective set is empty
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EventSim<M: EnumerableMachine> {
    core: DenseCore<M>,
    rng: SmallRng,
    book: Bookkeeping,
    faults: Option<FaultState>,
}

impl<M: EnumerableMachine> EventSim<M> {
    /// Creates an event-driven simulation of `machine` on `n` nodes in the
    /// initial configuration, reproducible from `seed`.
    ///
    /// # Panics
    ///
    /// As [`from_population`](Self::from_population).
    ///
    /// # Example
    ///
    /// ```
    /// use netcon_core::{EventSim, ExactEngine, Link, ProtocolBuilder};
    /// let mut b = ProtocolBuilder::new("pairing");
    /// let a = b.state("a");
    /// let p = b.state("b");
    /// b.rule((a, a, Link::Off), (p, p, Link::On));
    /// let sim = EventSim::new(b.build()?.compile(), 64, 7);
    /// assert_eq!(sim.steps(), 0);
    /// assert_eq!(sim.effective_pairs(), 64 * 63 / 2); // all (a, a, 0) pairs
    /// # Ok::<(), netcon_core::ProtocolError>(())
    /// ```
    #[must_use]
    pub fn new(machine: M, n: usize, seed: u64) -> Self {
        let pop = Population::new(n, machine.initial_state());
        Self::from_population(machine, pop, seed)
    }

    /// Creates an event-driven simulation from an explicit configuration
    /// (one word-parallel effectiveness pass, `O(n²·|Q|/64)`).
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than 2 nodes.
    #[must_use]
    pub fn from_population(machine: M, pop: Population<M::State>, seed: u64) -> Self {
        Self::from_core(DenseCore::new(machine, pop), seed)
    }

    fn from_core(core: DenseCore<M>, seed: u64) -> Self {
        Self {
            core,
            rng: SmallRng::seed_from_u64(seed),
            book: Bookkeeping::default(),
            faults: None,
        }
    }

    /// Creates a faulted event-driven simulation of `machine` on `n`
    /// initially-present nodes: the draw space is pre-sized to
    /// `n + plan.arrival_count()` (arrival slots start as inert ghosts)
    /// and `plan`'s events are applied by
    /// [`run_faulted_until`](ExactEngine::run_faulted_until) /
    /// [`run_faulted_to`](ExactEngine::run_faulted_to) /
    /// [`apply_faults_now`](ExactEngine::apply_faults_now); see
    /// [`fault`](crate::fault) for the ghost-node model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new_faulted(machine: M, n: usize, seed: u64, plan: FaultPlan) -> Self {
        let (core, fs) = DenseCore::new_faulted(machine, n, plan);
        let mut sim = Self::from_core(core, seed);
        sim.faults = Some(fs);
        sim
    }

    /// The current configuration.
    #[must_use]
    pub fn population(&self) -> &Population<M::State> {
        self.core.pop()
    }

    /// The number of currently possibly-effective pairs.
    #[must_use]
    pub fn effective_pairs(&self) -> usize {
        self.core.pairs().len()
    }

    /// The incrementally maintained possibly-effective pair set — what
    /// the candidate draw samples from; for the brute-force checks of
    /// the equivalence suite.
    #[doc(hidden)]
    #[must_use]
    pub fn effective_set(&self) -> &PairSet {
        self.core.pairs()
    }

    /// Bytes of heap memory held by the engine: the pair set (its Θ(n²)
    /// position matrix and membership bitsets), the dense edge set, the
    /// node states, and the effectiveness index. Heap payloads *inside*
    /// composite states are not counted.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        self.core.approx_mem_bytes()
    }

    /// A priori estimate of [`approx_mem_bytes`](Self::approx_mem_bytes)
    /// for a fresh indexed engine on `n` nodes — what
    /// [`Engine::auto`](crate::Engine::auto) weighs against its memory
    /// budget *before* allocating anything. Dominated by the pair-position
    /// matrix (`4n²`), the pair membership bitsets (`n²/8`), and the edge
    /// set (`n²/8`); the member vector is excluded (it grows with the
    /// live effective set).
    #[must_use]
    pub fn dense_mem_estimate(n: usize) -> u64 {
        let n = n as u64;
        4 * n * n + n * n / 8 + n * n / 8 + 16 * n
    }

    /// Skips the geometric number of ineffective draws and simulates the
    /// next candidate interaction, without letting the step counter pass
    /// `max_steps`.
    pub fn advance(&mut self, max_steps: u64) -> EventStep {
        let k = self.core.pairs().len();
        if k == 0 {
            return EventStep::Quiescent;
        }
        let n = self.core.pop().n();
        let m = n * (n - 1) / 2;
        let remaining = max_steps.saturating_sub(self.book.steps);
        if remaining == 0 {
            return EventStep::BudgetExhausted;
        }
        let Some(skipped) = uniform_skip(&mut self.rng, k as u64, m as u64, remaining) else {
            self.book.steps = max_steps;
            return EventStep::BudgetExhausted;
        };
        self.book.steps += skipped + 1;

        // Uniform over *ordered* possibly-effective pairs — the uniform
        // scheduler's law conditioned on hitting the set. A randomized
        // rule that samples the identity is still one real step
        // (exactly what the naive engine would record).
        let r = self.rng.random_range(0..2 * k);
        let (mut u, mut v) = self.core.pairs().get(r / 2);
        if r % 2 == 1 {
            std::mem::swap(&mut u, &mut v);
        }
        let result = self.core.interact(u, v, &mut self.rng);
        if let StepResult::Effective { edge_changed, .. } = result {
            self.book.record_effective(edge_changed);
        }
        EventStep::Candidate { skipped, result }
    }

    /// Whether no pair of nodes has any effective interaction — O(1): the
    /// incrementally-maintained possibly-effective set is empty. (Compare
    /// [`Simulation::is_quiescent`](crate::Simulation::is_quiescent)'s
    /// O(n²) fallback scan.)
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.core.pairs().is_empty()
    }
}

impl<M: EnumerableMachine> Primitives for EventSim<M> {
    type Machine = M;

    fn advance(&mut self, max_steps: u64) -> EventStep {
        EventSim::advance(self, max_steps)
    }

    fn book(&self) -> Bookkeeping {
        self.book
    }

    fn idle_to(&mut self, target: u64) {
        self.book.steps = self.book.steps.max(target);
    }

    fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    fn faults_mut(&mut self) -> Option<&mut FaultState> {
        self.faults.as_mut()
    }

    fn engine_view(&self) -> EngineView<'_, M> {
        self.core.view(self.faults.as_ref())
    }

    fn retire(&mut self, x: usize) -> Vec<usize> {
        self.core.retire(x)
    }

    fn readmit(&mut self, x: usize) {
        self.core.readmit(x);
    }

    fn set_state_index(&mut self, u: usize, q: usize) {
        self.core.set_state_index(u, q);
    }

    fn deactivate_edge(&mut self, u: usize, v: usize) -> bool {
        self.core.deactivate_edge(u, v).is_some()
    }

    fn record_fault_edges(&mut self, k: usize) {
        self.book.record_edge_changes(k);
    }
}

impl<M: EnumerableMachine> ExactEngine for EventSim<M> {
    type Config = Population<M::State>;

    fn config(&self) -> &Population<M::State> {
        self.core.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::contract::{self, Arm};
    use crate::engine::index_check;
    use crate::RunOutcome;
    use crate::{Link, ProtocolBuilder, RuleProtocol, Simulation};
    use netcon_graph::properties::is_maximum_matching;

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn matching_protocol() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        b.build().expect("valid")
    }

    #[test]
    fn matching_converges_and_quiesces() {
        let mut sim = EventSim::new(matching_protocol().compile(), 20, 123);
        let outcome = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 200_000);
        assert!(outcome.stabilized(), "matching should form: {outcome:?}");
        assert!(sim.is_quiescent());
        assert_eq!(sim.population().edges().active_count(), 10);
        assert_eq!(sim.effective_steps(), 10);
        assert_eq!(sim.effective_pairs(), 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = EventSim::new(matching_protocol().compile(), 16, seed);
            let out = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000);
            (out, sim.steps(), sim.edge_events())
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).0.stabilized());
    }

    #[test]
    fn many_state_candidates_match_brute_force_recomputation() {
        // 100 states: the rescan reads four-word effect rows; after
        // every candidate the maintained set must equal a from-scratch
        // `can_affect` pass over all pairs.
        let (p, pop) = index_check::many_states();
        let mut sim = EventSim::from_population(p, pop, 42);
        index_check::assert_exact(&sim.core);
        for _ in 0..200 {
            if sim.advance(u64::MAX) == EventStep::Quiescent {
                break;
            }
            index_check::assert_exact(&sim.core);
        }
        assert!(sim.effective_steps() > 0);
    }

    // This engine's rows of the shared driver-contract table; the
    // whole table, naive reference included, runs in `driver::tests`.
    #[test]
    fn budget_is_respected_exactly() {
        contract::budget_is_respected_exactly(Arm::Event);
    }

    #[test]
    fn run_to_lands_exactly_and_quiescence_jumps() {
        contract::run_to_lands_exactly_and_quiescence_jumps(Arm::Event);
    }

    #[test]
    fn quiescent_unstable_returns_budget_immediately() {
        contract::quiescent_unstable_returns_budget(Arm::Event);
    }

    #[test]
    fn quiescence_with_spent_budget_never_rewinds_steps() {
        contract::spent_budget_never_rewinds_steps(Arm::Event);
    }

    #[test]
    fn initial_configuration_can_be_stable() {
        let mut sim = EventSim::new(matching_protocol().compile(), 6, 2);
        let out = sim.run_until(|_| true, 10);
        assert_eq!(
            out,
            RunOutcome::Stabilized {
                detected_at: 0,
                converged_at: 0,
                last_effective: 0
            }
        );
    }

    #[test]
    fn randomized_identity_candidates_count_as_real_steps() {
        // (a, b, 0) → ½ identity, ½ swap: candidates may resolve
        // ineffective, but each consumes exactly one step.
        let mut b = ProtocolBuilder::new("lazy-swap");
        let a = b.state("a");
        let c = b.state("b");
        b.initial(a);
        b.rule_random((a, c, OFF), [(1, (a, c, OFF)), (1, (c, a, OFF))]);
        let p = b.build().expect("valid");
        let mut pop = Population::new(4, a);
        pop.set_state(0, c);
        let mut sim = EventSim::from_population(p.compile(), pop, 11);
        let mut saw_ineffective = false;
        for _ in 0..200 {
            match sim.advance(u64::MAX) {
                EventStep::Candidate {
                    result: StepResult::Ineffective { .. },
                    ..
                } => saw_ineffective = true,
                EventStep::Quiescent => panic!("lazy-swap never quiesces"),
                _ => {}
            }
        }
        assert!(saw_ineffective, "identity branch should occur in 200 draws");
        assert!(sim.steps() >= 200);
    }

    #[test]
    fn tracks_naive_engine_on_average() {
        // Cheap smoke check of the exactness argument (the full paired
        // statistical tests live in the workspace-level suite).
        let trials = 60;
        let mean = |event: bool| -> f64 {
            (0..trials)
                .map(|seed| {
                    let stable = |p: &Population<StateId>| is_maximum_matching(p.edges());
                    let out = if event {
                        EventSim::new(matching_protocol().compile(), 12, 1000 + seed)
                            .run_until_edges(stable, u64::MAX)
                    } else {
                        Simulation::new(matching_protocol(), 12, 2000 + seed)
                            .run_until_edges(stable, u64::MAX)
                    };
                    out.converged_at().expect("stabilizes") as f64
                })
                .sum::<f64>()
                / f64::from(trials as u32)
        };
        let (e, n) = (mean(true), mean(false));
        assert!(
            (e - n).abs() / n < 0.35,
            "event {e:.1} vs naive {n:.1} means too far apart"
        );
    }

    use crate::StateId;

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = EventSim::new(matching_protocol().compile(), 1, 0);
    }

    #[test]
    fn fault_bookkeeping_matches_brute_force_recomputation() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(5)
            .at(0, FaultEvent::Crash(2))
            .at(30, FaultEvent::Arrive)
            .at(60, FaultEvent::CrashRandom)
            .at(90, FaultEvent::DeleteRandomActiveEdges(1));
        let m = matching_protocol().compile();
        let mut sim = EventSim::new_faulted(m.clone(), 9, 21, plan);
        sim.run_faulted_to(200);
        let fs = sim.fault_state().expect("faulted");
        let pop = sim.population();
        // The maintained candidate set must equal the effective pairs of
        // the final configuration, recomputed from scratch: pairs with a
        // dead endpoint are certainly ineffective (their edges are gone
        // and their states frozen), everything else follows the table.
        let table = m.effect_table();
        let mut expected = 0;
        for u in 0..pop.n() {
            for v in u + 1..pop.n() {
                if fs.is_alive(u)
                    && fs.is_alive(v)
                    && table.can_affect(
                        m.state_index(pop.state(u)),
                        m.state_index(pop.state(v)),
                        Link::from(pop.edges().is_active(u, v)),
                    )
                {
                    expected += 1;
                }
            }
        }
        assert_eq!(sim.effective_pairs(), expected);
        for u in 0..pop.n() {
            if !fs.is_alive(u) {
                assert_eq!(pop.edges().degree(u), 0, "ghost {u} kept an edge");
            }
        }
    }
}
