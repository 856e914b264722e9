//! Engine selection: one entry point that picks an exact engine for a
//! scheduler family by a memory budget.
//!
//! For the **uniform** scheduler, [`EventSim`] is the
//! fastest exact engine per effective interaction but holds Θ(n²) bytes;
//! [`BucketSim`] holds O(n + |Q|²) and pays in-bucket re-draws instead.
//! Both produce identically-distributed executions, so the only question
//! is whether the dense structures fit:
//! [`Engine::auto`] answers it with [`EventSim::dense_mem_estimate`]
//! against a budget (`NETCON_ENGINE_MEM_BUDGET` bytes, default 512 MiB),
//! falling back to the sparse engine beyond it — or beyond the dense
//! pair set's `n ≤ 65535` id range, whatever the budget says.
//!
//! For the **ShuffledRounds** scheduler, [`Engine::auto_for`] routes to
//! the event-driven [`RoundSim`] while its (≈ 3× dense)
//! structures fit the same budget, and beyond that to the sparse
//! [`RoundBucketSim`] — the same round law in
//! O(n + |Q|²) memory, so round-denominated sweeps reach n ≥ 100 000.
//!
//! Stability predicates run against an [`EngineView`], which exposes the
//! configuration queries every engine can answer without materializing
//! anything dense.

use crate::bucket::{BucketSim, SparsePop};
use crate::compiled::EnumerableMachine;
use crate::driver::{run_faulted_until_with, run_until_with, ExactEngine, Primitives};
use crate::event::EventSim;
use crate::fault::adversary::LiveConfig;
use crate::fault::{FaultPlan, FaultState};
use crate::round::RoundSim;
use crate::round_bucket::RoundBucketSim;
use crate::sim::RunOutcome;
use crate::{Population, StateId};

/// The adversary's read of a skip engine's configuration. Neighbour
/// rows come out sorted whatever the engine's own order: the sparse
/// rows are in swap-remove order, which carries coins, so they are
/// sorted on the way out rather than in place.
impl<M: EnumerableMachine> LiveConfig for EngineView<'_, M> {
    fn n(&self) -> usize {
        EngineView::n(self)
    }

    fn degree(&self, u: usize) -> usize {
        EngineView::degree(self, u)
    }

    fn state_index(&self, u: usize) -> usize {
        EngineView::state_index(self, u)
    }

    fn neighbors_ascending(&self, u: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            Self::Dense { pop, .. } => out.extend(pop.edges().neighbors(u)),
            Self::Sparse { sp, .. } => {
                out.extend(sp.neighbors(u));
                out.sort_unstable();
            }
        }
    }
}

/// Default dense-engine memory budget: 512 MiB keeps the dense engine up
/// to n ≈ 11 000 and the CI box comfortable.
const DEFAULT_MEM_BUDGET: u64 = 512 << 20;

/// The scheduler family an auto-selected engine must reproduce.
///
/// Every engine the selector can pick is distribution-identical to the
/// naive [`Simulation`](crate::Simulation) *under its scheduler*; the
/// two families' running-time distributions differ (that difference is
/// exactly what round-based experiments measure), so the family is an
/// input to selection, not something the budget can trade away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// The uniform random scheduler (§3.1) — the paper's running-time
    /// model. Routed to [`EventSim`] or
    /// [`BucketSim`].
    #[default]
    Uniform,
    /// The [`ShuffledRounds`](crate::ShuffledRounds) box scheduler —
    /// every pair once per round, rounds as parallel time. Routed to
    /// [`RoundSim`] or [`RoundBucketSim`].
    ShuffledRounds,
}

/// The configuration view a selected engine hands to stability
/// predicates: whatever the engine's representation, the same queries
/// answer — population size, active edges, degrees, dense state indices.
///
/// Every query answers identically on both arms, faulted engines
/// included: crashed and not-yet-arrived nodes keep degree 0 and are
/// left out of the state counts. Dense-only extras (the full
/// [`Population`]) are reachable on the `Dense` arm or through
/// [`with_population`](Self::with_population).
#[derive(Debug)]
pub enum EngineView<'a, M: EnumerableMachine> {
    /// The dense engine's configuration.
    Dense {
        /// The full configuration.
        pop: &'a Population<M::State>,
        /// The machine (for its crash notifications).
        machine: &'a M,
        /// The fault state of a faulted engine, whose dead and ghost
        /// slots the state counts skip.
        faults: Option<&'a FaultState>,
    },
    /// The sparse engine's configuration.
    Sparse {
        /// The sparse configuration.
        sp: &'a SparsePop,
        /// The machine (for its crash notifications).
        machine: &'a M,
    },
}

impl<M: EnumerableMachine> EngineView<'_, M> {
    /// The population size `n` (the draw-space capacity when faulted).
    #[must_use]
    pub fn n(&self) -> usize {
        match self {
            Self::Dense { pop, .. } => pop.n(),
            Self::Sparse { sp, .. } => sp.n(),
        }
    }

    /// The number of active edges.
    #[must_use]
    pub fn active_count(&self) -> usize {
        match self {
            Self::Dense { pop, .. } => pop.edges().active_count(),
            Self::Sparse { sp, .. } => sp.active_count(),
        }
    }

    /// The active degree of node `u`.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        match self {
            Self::Dense { pop, .. } => pop.edges().degree(u) as usize,
            Self::Sparse { sp, .. } => sp.degree(u),
        }
    }

    /// Whether the edge `{u, v}` is active.
    #[must_use]
    pub fn is_active(&self, u: usize, v: usize) -> bool {
        match self {
            Self::Dense { pop, .. } => pop.edges().is_active(u, v),
            Self::Sparse { sp, .. } => sp.is_active(u, v),
        }
    }

    /// The dense state index of node `u`.
    #[must_use]
    pub fn state_index(&self, u: usize) -> usize {
        match self {
            Self::Dense { pop, .. } => pop.state(u).index(),
            Self::Sparse { sp, .. } => sp.state_index(u),
        }
    }

    /// The number of alive nodes in state index `s` — O(1) on the sparse
    /// view, an O(n) scan on the dense one.
    #[must_use]
    pub fn count_index(&self, s: usize) -> usize {
        match self {
            Self::Dense { pop, faults: None, .. } => pop.count_where(|st| st.index() == s),
            Self::Dense { pop, faults: Some(fs), .. } => (0..pop.n())
                .filter(|&u| fs.is_alive(u) && pop.state(u).index() == s)
                .count(),
            Self::Sparse { sp, .. } => sp.count_index(s),
        }
    }

    /// The alive nodes in state index `s` (arbitrary order) — bucket
    /// read on the sparse view, O(n) scan on the dense one.
    #[must_use]
    pub fn nodes_index(&self, s: usize) -> Vec<usize> {
        match self {
            Self::Dense { pop, faults: None, .. } => pop.nodes_where(|st| st.index() == s),
            Self::Dense { pop, faults: Some(fs), .. } => (0..pop.n())
                .filter(|&u| fs.is_alive(u) && pop.state(u).index() == s)
                .collect(),
            Self::Sparse { sp, .. } => sp.nodes_index(s).iter().map(|&u| u as usize).collect(),
        }
    }

    /// Evaluates a dense predicate on this configuration — borrowing the
    /// [`Population`] on the dense arm, materializing it (Θ(n²)) on the
    /// sparse one. How predicates written against [`Population`] run on
    /// any engine.
    #[must_use]
    pub fn with_population(&self, stable: impl FnOnce(&Population<M::State>) -> bool) -> bool {
        match self {
            Self::Dense { pop, .. } => stable(pop),
            Self::Sparse { .. } => stable(&self.to_population()),
        }
    }

    /// The machine being executed.
    pub(crate) fn machine(&self) -> &M {
        match self {
            Self::Dense { machine, .. } | Self::Sparse { machine, .. } => machine,
        }
    }

    /// The active edges in canonical `(min, max)`-lexicographic order,
    /// whatever the engine's own edge representation — the order random
    /// edge deletions draw from.
    pub(crate) fn canonical_edges(&self) -> Vec<(usize, usize)> {
        match self {
            Self::Dense { pop, .. } => pop.edges().active_edges().collect(),
            Self::Sparse { sp, .. } => sp.canonical_edges(),
        }
    }

    /// Materializes the full dense configuration — a clone on the dense
    /// arm, an O(n²) edge-set build on the sparse arm.
    #[must_use]
    pub fn to_population(&self) -> Population<M::State> {
        match self {
            Self::Dense { pop, .. } => (*pop).clone(),
            Self::Sparse { sp, .. } => {
                let states = (0..sp.n())
                    .map(|u| StateId::new(sp.state_index(u) as u16))
                    .collect();
                Population::from_parts(states, sp.to_edgeset())
            }
        }
    }
}

/// An exact engine chosen by scheduler family and memory budget: under
/// [`SchedulerKind::Uniform`] the dense [`EventSim`] when its Θ(n²)
/// structures fit and the sparse [`BucketSim`] beyond; under
/// [`SchedulerKind::ShuffledRounds`] the event-driven [`RoundSim`] when
/// its (≈ 3× dense) structures fit and the sparse [`RoundBucketSim`]
/// beyond. Within a family every arm has identical output distribution,
/// so the choice is invisible to measurements.
///
/// # Example
///
/// ```
/// use netcon_core::{Engine, Link, ProtocolBuilder, SchedulerKind};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?.compile();
///
/// // Small population: the estimate fits any sane budget → dense.
/// let mut eng = Engine::auto(protocol.clone(), 100, 1);
/// assert!(!eng.is_sparse());
/// let out = eng.run_until(|v| v.active_count() == 50, 10_000_000);
/// assert!(out.stabilized());
///
/// // Tiny budget: the selector goes sparse, the run is equivalent.
/// let mut eng = Engine::with_budget(protocol.clone(), 100, 1, 1024);
/// assert!(eng.is_sparse());
/// assert!(eng.run_until(|v| v.active_count() == 50, 10_000_000).stabilized());
///
/// // Round-based sweeps route by the same budget to the round engine.
/// let mut eng = Engine::auto_for(protocol, 100, 1, SchedulerKind::ShuffledRounds);
/// assert_eq!(eng.kind(), "round-dense");
/// assert!(eng.run_until(|v| v.active_count() == 50, 10_000_000).stabilized());
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub enum Engine<M: EnumerableMachine> {
    /// The dense event engine (uniform scheduler).
    Dense {
        /// The engine.
        sim: Box<EventSim<M>>,
    },
    /// The sparse bucket engine (uniform scheduler).
    Sparse {
        /// The engine.
        sim: Box<BucketSim<M>>,
    },
    /// The event-driven round engine (ShuffledRounds scheduler).
    Round {
        /// The engine.
        sim: Box<RoundSim<M>>,
    },
    /// The sparse round engine (ShuffledRounds beyond the budget):
    /// the same round law in O(n + |Q|²) memory.
    RoundSparse {
        /// The engine.
        sim: Box<RoundBucketSim<M>>,
    },
}

/// Runs `$body` with `$sim` bound to the selected engine, whichever arm
/// it is: every arm answers the same calls.
macro_rules! each_arm {
    ($engine:expr, $sim:ident => $body:expr) => {
        match $engine {
            Engine::Dense { $sim } => $body,
            Engine::Sparse { $sim } => $body,
            Engine::Round { $sim } => $body,
            Engine::RoundSparse { $sim } => $body,
        }
    };
}

impl<M: EnumerableMachine> Engine<M> {
    /// Selects a uniform-scheduler engine for `n` nodes under the default
    /// memory budget (`NETCON_ENGINE_MEM_BUDGET` bytes if set, else
    /// 512 MiB) and constructs it in the initial configuration.
    /// Shorthand for [`auto_for`](Self::auto_for) with
    /// [`SchedulerKind::Uniform`].
    #[must_use]
    pub fn auto(machine: M, n: usize, seed: u64) -> Self {
        Self::with_budget(machine, n, seed, Self::default_budget())
    }

    /// Selects an engine reproducing `scheduler` for `n` nodes under the
    /// default memory budget and constructs it in the initial
    /// configuration.
    #[must_use]
    pub fn auto_for(machine: M, n: usize, seed: u64, scheduler: SchedulerKind) -> Self {
        Self::with_budget_for(machine, n, seed, Self::default_budget(), scheduler)
    }

    /// Selects by an explicit budget: dense iff the dense estimate fits
    /// `budget_bytes` *and* `n` fits the dense pair set's `u16` node ids.
    /// Shorthand for [`with_budget_for`](Self::with_budget_for) with
    /// [`SchedulerKind::Uniform`].
    #[must_use]
    pub fn with_budget(machine: M, n: usize, seed: u64, budget_bytes: u64) -> Self {
        Self::with_budget_for(machine, n, seed, budget_bytes, SchedulerKind::Uniform)
    }

    /// Selects by an explicit budget within the given scheduler family:
    /// the event-driven engine whose a-priori memory estimate fits
    /// `budget_bytes` (and whose pair ids fit `n ≤ 65535`), else the
    /// family's sparse engine — [`BucketSim`] for uniform,
    /// [`RoundBucketSim`] for ShuffledRounds.
    #[must_use]
    pub fn with_budget_for(
        machine: M,
        n: usize,
        seed: u64,
        budget_bytes: u64,
        scheduler: SchedulerKind,
    ) -> Self {
        Self::select(machine, n, seed, budget_bytes, scheduler, None)
    }

    /// Selects a uniform-scheduler engine for a faulted run under the
    /// default memory budget — [`auto`](Self::auto) with a [`FaultPlan`].
    #[must_use]
    pub fn auto_faulted(machine: M, n: usize, seed: u64, plan: FaultPlan) -> Self {
        Self::with_budget_for_faulted(
            machine,
            n,
            seed,
            Self::default_budget(),
            SchedulerKind::Uniform,
            plan,
        )
    }

    /// Selects by an explicit budget within a scheduler family and
    /// constructs the chosen engine with a [`FaultPlan`]. The dense
    /// estimates are sized on the *capacity* (`n` plus planned
    /// arrivals), since that is the node range every faulted engine
    /// allocates for.
    #[must_use]
    pub fn with_budget_for_faulted(
        machine: M,
        n: usize,
        seed: u64,
        budget_bytes: u64,
        scheduler: SchedulerKind,
        plan: FaultPlan,
    ) -> Self {
        Self::select(machine, n, seed, budget_bytes, scheduler, Some(plan))
    }

    /// The selection rule: the family's dense engine iff its estimate at
    /// the capacity (`n` plus planned arrivals) fits `budget_bytes` and
    /// the capacity fits the dense pair set's `u16` ids, else the
    /// family's sparse engine — built faulted when a plan is given.
    fn select(
        machine: M,
        n: usize,
        seed: u64,
        budget_bytes: u64,
        scheduler: SchedulerKind,
        plan: Option<FaultPlan>,
    ) -> Self {
        let capacity = n + plan.as_ref().map_or(0, FaultPlan::arrival_count);
        let estimate = match scheduler {
            SchedulerKind::Uniform => EventSim::<M>::dense_mem_estimate(capacity),
            SchedulerKind::ShuffledRounds => RoundSim::<M>::dense_mem_estimate(capacity),
        };
        let dense = capacity <= usize::from(u16::MAX) && estimate <= budget_bytes;
        macro_rules! build {
            ($sim:ident) => {
                Box::new(match plan {
                    Some(plan) => $sim::new_faulted(machine, n, seed, plan),
                    None => $sim::new(machine, n, seed),
                })
            };
        }
        match (scheduler, dense) {
            (SchedulerKind::Uniform, true) => Engine::Dense { sim: build!(EventSim) },
            (SchedulerKind::Uniform, false) => Engine::Sparse { sim: build!(BucketSim) },
            (SchedulerKind::ShuffledRounds, true) => Engine::Round { sim: build!(RoundSim) },
            (SchedulerKind::ShuffledRounds, false) => {
                Engine::RoundSparse { sim: build!(RoundBucketSim) }
            }
        }
    }

    /// The active memory budget (`NETCON_ENGINE_MEM_BUDGET` or the
    /// 512 MiB default).
    ///
    /// # Panics
    ///
    /// Panics if `NETCON_ENGINE_MEM_BUDGET` is set but is not a byte
    /// count.
    #[must_use]
    pub fn default_budget() -> u64 {
        crate::env_knob("NETCON_ENGINE_MEM_BUDGET").unwrap_or(DEFAULT_MEM_BUDGET)
    }

    /// Whether a sparse engine was selected: [`BucketSim`] under the
    /// uniform scheduler or [`RoundBucketSim`] under ShuffledRounds.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        matches!(self, Engine::Sparse { .. } | Engine::RoundSparse { .. })
    }

    /// The scheduler family the selected engine reproduces.
    #[must_use]
    pub fn scheduler(&self) -> SchedulerKind {
        match self {
            Engine::Dense { .. } | Engine::Sparse { .. } => SchedulerKind::Uniform,
            Engine::Round { .. } | Engine::RoundSparse { .. } => SchedulerKind::ShuffledRounds,
        }
    }

    /// `"event-dense"`, `"bucket-sparse"`, `"round-dense"`, or
    /// `"round-sparse"`, for bench records.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Engine::Dense { .. } => "event-dense",
            Engine::Sparse { .. } => "bucket-sparse",
            Engine::Round { .. } => "round-dense",
            Engine::RoundSparse { .. } => "round-sparse",
        }
    }

    /// Steps taken so far (including skipped ineffective draws).
    #[must_use]
    pub fn steps(&self) -> u64 {
        each_arm!(self, sim => sim.steps())
    }

    /// Effective interactions so far.
    #[must_use]
    pub fn effective_steps(&self) -> u64 {
        each_arm!(self, sim => sim.effective_steps())
    }

    /// The step of the last output-graph (active edge set) change —
    /// what availability estimators use to attribute stable draws.
    #[must_use]
    pub fn last_output_change(&self) -> u64 {
        each_arm!(self, sim => sim.last_output_change())
    }

    /// Edge activations/deactivations so far.
    #[must_use]
    pub fn edge_events(&self) -> u64 {
        each_arm!(self, sim => sim.edge_events())
    }

    /// Bytes of heap memory held by the selected engine.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        each_arm!(self, sim => sim.approx_mem_bytes())
    }

    /// Runs until `stable` holds over the engine's view or `max_steps`
    /// total steps have elapsed — [`ExactEngine::run_until`], with
    /// identical semantics on every arm.
    pub fn run_until(
        &mut self,
        mut stable: impl FnMut(&EngineView<'_, M>) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        each_arm!(self, sim => run_until_with(&mut **sim, |e| stable(&e.engine_view()), false, max_steps))
    }

    /// Like [`run_until`](Self::run_until) but only re-evaluates the
    /// predicate when an edge changes.
    pub fn run_until_edges(
        &mut self,
        mut stable: impl FnMut(&EngineView<'_, M>) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        each_arm!(self, sim => sim.run_until_edges_with(|e| stable(&e.engine_view()), max_steps))
    }

    /// Advances until the step counter reaches exactly `target`.
    pub fn run_to(&mut self, target: u64) {
        each_arm!(self, sim => sim.run_to(target));
    }

    /// The configuration as predicates read it, borrowed from the
    /// engine: no copy, no draw.
    #[must_use]
    pub fn view(&self) -> EngineView<'_, M> {
        each_arm!(self, sim => sim.engine_view())
    }

    /// Materializes the dense configuration (Θ(n²) on the sparse arm).
    #[must_use]
    pub fn to_population(&self) -> Population<M::State> {
        self.view().to_population()
    }

    /// The fault state, if the engine was built with a [`FaultPlan`]
    /// (via [`auto_faulted`](Self::auto_faulted) and friends).
    #[must_use]
    pub fn fault_state(&self) -> Option<&FaultState> {
        each_arm!(self, sim => sim.fault_state())
    }

    /// Runs a faulted execution to stability —
    /// [`ExactEngine::run_faulted_until`] with the predicate reading the
    /// engine view plus the fault state. Identical semantics on every
    /// arm; the predicate is not consulted while plan events or
    /// adversary decisions are pending.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    pub fn run_faulted_until(
        &mut self,
        mut stable: impl FnMut(&EngineView<'_, M>, &FaultState) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        each_arm!(self, sim => run_faulted_until_with(
            &mut **sim,
            |e| stable(&e.engine_view(), e.fault_state().expect("faulted run")),
            max_steps,
        ))
    }

    /// Advances to exactly `target` total steps, applying plan events
    /// and adversary decisions at their scheduled times on the way.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    pub fn run_faulted_to(&mut self, target: u64) {
        each_arm!(self, sim => sim.run_faulted_to(target));
    }

    /// Applies every remaining plan event *now*, regardless of its
    /// scheduled time (the perturb-then-measure entry point of
    /// self-repair experiments).
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    pub fn apply_faults_now(&mut self) {
        each_arm!(self, sim => sim.apply_faults_now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledTable, Link, ProtocolBuilder};

    fn matching() -> CompiledTable {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        b.build().expect("valid").compile()
    }

    #[test]
    fn scheduler_kind_routes_round_engines() {
        let round = Engine::with_budget_for(matching(), 30, 1, u64::MAX, SchedulerKind::ShuffledRounds);
        assert_eq!(round.kind(), "round-dense");
        assert_eq!(round.scheduler(), SchedulerKind::ShuffledRounds);
        assert!(!round.is_sparse());
        let sparse = Engine::with_budget_for(matching(), 30, 1, 1, SchedulerKind::ShuffledRounds);
        assert_eq!(sparse.kind(), "round-sparse");
        assert!(sparse.is_sparse());
        assert_eq!(sparse.scheduler(), SchedulerKind::ShuffledRounds);
        assert_eq!(
            Engine::auto(matching(), 30, 1).scheduler(),
            SchedulerKind::Uniform
        );
    }

    #[test]
    fn round_arms_run_the_same_protocol() {
        // A perfect matching completes within round 1 under any box
        // schedule, on both the event-driven and the naive arm.
        let m = 30 * 29 / 2;
        for budget in [u64::MAX, 1] {
            let mut eng =
                Engine::with_budget_for(matching(), 30, 5, budget, SchedulerKind::ShuffledRounds);
            let out = eng.run_until_edges(|v| v.active_count() == 15, u64::MAX);
            assert!(out.stabilized(), "budget {budget}: {out:?}");
            assert!(out.converged_at().expect("stabilized") <= m);
            assert_eq!(eng.effective_steps(), 15);
            let pop = eng.to_population();
            assert!(netcon_graph::properties::is_maximum_matching(pop.edges()));
            assert!(eng.approx_mem_bytes() > 0);
        }
    }

    #[test]
    fn budget_splits_dense_and_sparse() {
        let dense = Engine::with_budget(matching(), 64, 1, u64::MAX);
        assert!(!dense.is_sparse());
        assert_eq!(dense.kind(), "event-dense");
        let sparse = Engine::with_budget(matching(), 64, 1, 1);
        assert!(sparse.is_sparse());
        assert_eq!(sparse.kind(), "bucket-sparse");
        // Past the dense pair set's u16 ids the budget is irrelevant.
        let forced = Engine::with_budget(matching(), 70_000, 1, u64::MAX);
        assert!(forced.is_sparse());
    }

    #[test]
    fn both_arms_run_the_same_protocol() {
        for budget in [u64::MAX, 1] {
            let mut eng = Engine::with_budget(matching(), 30, 5, budget);
            let out = eng.run_until_edges(|v| v.active_count() == 15, u64::MAX);
            assert!(out.stabilized(), "budget {budget}: {out:?}");
            assert_eq!(eng.effective_steps(), 15);
            let pop = eng.to_population();
            assert!(netcon_graph::properties::is_maximum_matching(pop.edges()));
            assert!(eng.approx_mem_bytes() > 0);
        }
    }

    #[test]
    fn view_queries_agree_across_arms() {
        let run = |budget: u64| {
            let mut eng = Engine::with_budget(matching(), 20, 9, budget);
            eng.run_until(|_| false, 2_000);
            let mut counts = (0, 0);
            eng.run_until(
                |v| {
                    counts = (v.count_index(0), v.count_index(1));
                    assert_eq!(v.nodes_index(0).len() + v.nodes_index(1).len(), 20);
                    assert_eq!(v.n(), 20);
                    true
                },
                u64::MAX,
            );
            counts
        };
        let (d0, d1) = run(u64::MAX);
        let (s0, s1) = run(1);
        assert_eq!(d0 + d1, 20);
        assert_eq!(s0 + s1, 20);
    }

    #[test]
    fn faulted_engines_route_and_run_on_every_arm() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = || FaultPlan::new(6).at(0, FaultEvent::CrashRandom);
        let configs = [
            (u64::MAX, SchedulerKind::Uniform, "event-dense"),
            (1, SchedulerKind::Uniform, "bucket-sparse"),
            (u64::MAX, SchedulerKind::ShuffledRounds, "round-dense"),
            (1, SchedulerKind::ShuffledRounds, "round-sparse"),
        ];
        for (budget, family, kind) in configs {
            let mut eng =
                Engine::with_budget_for_faulted(matching(), 9, 3, budget, family, plan());
            assert_eq!(eng.kind(), kind);
            let out = eng.run_faulted_until(|v, _| v.active_count() == 4, 10_000_000);
            assert!(out.stabilized(), "{kind}: {out:?}");
            let fs = eng.fault_state().expect("faulted");
            assert_eq!(fs.alive_count(), 8, "{kind}");

            // State counts cover alive nodes only, on every arm: planned
            // arrivals are ghost slots until they land, and a crashed
            // node drops out.
            let plan = FaultPlan::new(5)
                .at(0, FaultEvent::Arrive)
                .at(0, FaultEvent::Arrive)
                .at(500, FaultEvent::CrashRandom);
            let mut eng = Engine::with_budget_for_faulted(matching(), 8, 5, budget, family, plan);
            let census = |eng: &mut Engine<CompiledTable>| {
                let mut counted = (0, 0);
                eng.run_until(
                    |v| {
                        counted = (
                            v.count_index(0) + v.count_index(1),
                            v.nodes_index(0).len() + v.nodes_index(1).len(),
                        );
                        true
                    },
                    0,
                );
                counted
            };
            assert_eq!(census(&mut eng), (8, 8), "{kind}: before any fault");
            eng.run_faulted_to(600);
            assert_eq!(census(&mut eng), (9, 9), "{kind}: two arrivals, one crash");
        }
    }

    #[test]
    fn view_degree_and_activity_agree_with_materialization() {
        let mut eng = Engine::with_budget(matching(), 16, 3, 1);
        eng.run_until_edges(|v| v.active_count() == 8, u64::MAX);
        eng.run_until(
            |v| {
                let pop = v.to_population();
                let dense = EngineView::Dense { pop: &pop, machine: &matching(), faults: None };
                let perfect = |p: &Population<crate::StateId>| p.edges().active_count() == 8;
                assert!(v.with_population(perfect) && dense.with_population(perfect));
                for u in 0..16 {
                    assert_eq!(v.degree(u), pop.edges().degree(u) as usize);
                    assert_eq!(v.state_index(u), 1);
                    for w in 0..16 {
                        if w != u {
                            assert_eq!(v.is_active(u, w), pop.edges().is_active(u, w));
                        }
                    }
                }
                true
            },
            u64::MAX,
        );
    }
}
