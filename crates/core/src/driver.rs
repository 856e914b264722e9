//! The run-and-fault driver shared by the four skip-sampling engines.
//!
//! [`EventSim`](crate::EventSim), [`BucketSim`](crate::BucketSim),
//! [`RoundSim`](crate::RoundSim) and
//! [`RoundBucketSim`](crate::RoundBucketSim) differ in how they find the
//! next candidate draw and how they reclassify candidates after damage,
//! not in what a run is. Each supplies a few primitives — `advance` to
//! the next candidate under a step budget, the clock, an idle jump for
//! quiescent configurations, a view of its configuration, and the
//! structural fault hooks — and [`ExactEngine`] writes the loops over
//! them once:
//!
//! * the predicate is evaluated initially and after every effective
//!   interaction (`run_until`) or every edge change (`run_until_edges`),
//!   exactly where the naive loop evaluates it;
//! * a quiescent configuration idles straight to the budget, and the
//!   clock never runs backwards;
//! * fault boundaries — plan events and adversary decisions — are applied
//!   at their draw, before anything else looks at the configuration, and
//!   the predicate is not consulted while one is pending.
//!
//! Each scheduler family's skip clock is written once. The two
//! ShuffledRounds engines share the `advance` loop and the quiescent idle
//! jump here, so the round-boundary rules that make stop/resume coin for
//! coin exist in one place; their round accessors are [`RoundEngine`]'s.
//! The two uniform engines share one skip-or-budget decision
//! (`engine::uniform_skip`) and keep their own clock writes, since
//! [`BucketSim`](crate::BucketSim) counts steps in a `u128`.
//!
//! Fault *semantics* live here too, once: every resolved fault goes
//! through one dispatch (`apply_resolved`), which owns the crash
//! sequence (retire, record the lost edges, notify the former neighbours
//! in ascending node order), the canonical edge order random deletions
//! draw from, and the adversary's decisions, resolved against the
//! engine's live configuration through its view, with no copy taken (the
//! naive loop runs the same resolver on its population; the view hands
//! out sorted rows, so the policies never see engine-internal order). An
//! engine supplies only the data-structure repair — retire a node,
//! re-admit one, set one node's state, deactivate one edge — so a new
//! fault kind needs no engine edit unless it needs a new kind of repair.
//!
//! [`Simulation`](crate::Simulation) keeps its own loops and fault code
//! on purpose: it is the independent reference the equivalence suite
//! measures this driver against, so a driver bug cannot hide as a
//! common-mode error.

use std::ops::ControlFlow;

use crate::compiled::EnumerableMachine;
use crate::engine::{hypergeometric_skip, Bookkeeping};
use crate::event::EventStep;
use crate::fault::{sample_without_replacement, DueFault, FaultState, ResolvedFault};
use crate::sim::{RunOutcome, StepResult};
use crate::EngineView;

/// What each skip-sampling engine supplies to the driver: the run
/// primitives, and the structural fault hooks [`apply_resolved`] applies
/// every fault kind through. Crate-private, which also seals
/// [`ExactEngine`].
pub(crate) trait Primitives: Sized {
    /// The machine type the engine executes.
    type Machine: EnumerableMachine;

    /// Skips to and simulates the next candidate interaction without
    /// letting the clock pass `max_steps` (the engine's public
    /// `advance`).
    fn advance(&mut self, max_steps: u64) -> EventStep;

    /// The run counters, saturating at `u64::MAX`.
    fn book(&self) -> Bookkeeping;

    /// Moves the clock of a quiescent engine forward to `target` (never
    /// backwards), keeping whatever bookkeeping a later revival needs.
    fn idle_to(&mut self, target: u64);

    /// The fault bookkeeping, if the engine was built with a plan.
    fn faults(&self) -> Option<&FaultState>;

    /// Mutable access to the fault bookkeeping.
    fn faults_mut(&mut self) -> Option<&mut FaultState>;

    /// The configuration as predicates read it — also the driver's read
    /// of state indices, the canonical edge order and the machine's
    /// crash-notification map.
    fn engine_view(&self) -> EngineView<'_, Self::Machine>;

    /// Retires crashed node `x` (alive flag already cleared): drops its
    /// active edges and every candidate involving it, and returns its
    /// former neighbours in ascending order.
    fn retire(&mut self, x: usize) -> Vec<usize>;

    /// Re-admits arrived node `x` (alive flag already set; it holds the
    /// initial state and no edges) into the candidate structures.
    fn readmit(&mut self, x: usize);

    /// Moves node `u` to state index `q` (a crash notification; `q`
    /// differs from its current index) and reclassifies its candidates.
    fn set_state_index(&mut self, u: usize, q: usize);

    /// Deactivates edge `{u, v}` if it is active, reclassifying its pair;
    /// returns whether it was.
    fn deactivate_edge(&mut self, u: usize, v: usize) -> bool;

    /// Records `k` fault-deleted edges as output-graph changes at the
    /// current step.
    fn record_fault_edges(&mut self, k: usize);

    /// Runs after every fault that resolved to something, once its hooks
    /// are done — where an engine voids evidence the change made stale.
    fn after_fault(&mut self) {}

    /// `run_until_edges` over a predicate on the whole engine — the one
    /// loop an engine may replace ([`BucketSim`](crate::BucketSim)
    /// batches its walker endgame here).
    fn run_until_edges_with(
        &mut self,
        stable: impl FnMut(&Self) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        run_until_with(self, stable, true, max_steps)
    }
}

/// The run loops of the exact skip-sampling engines, written once over
/// each engine's primitives; their contract heads `src/driver.rs`.
///
/// Every method has the semantics of the naive
/// [`Simulation`](crate::Simulation)'s method of the same name and the
/// same outcome distribution, with one benign difference: where the
/// naive loop would grind through its budget on a quiescent-but-unstable
/// configuration, these loops jump the clock to the budget at once.
///
/// Sealed: only the crate's engines implement it.
#[allow(private_bounds)] // `Primitives` is the crate-private seal
pub trait ExactEngine: Primitives {
    /// The configuration stability predicates read:
    /// [`Population`](crate::Population) on the dense engines,
    /// [`SparsePop`](crate::SparsePop) on the sparse ones.
    type Config;

    /// The current configuration.
    fn config(&self) -> &Self::Config;

    /// Steps taken so far, including skipped ineffective draws
    /// (saturating at `u64::MAX`;
    /// [`BucketSim::steps_wide`](crate::BucketSim::steps_wide) has the
    /// exact count past it).
    fn steps(&self) -> u64 {
        self.book().steps
    }

    /// Effective interactions so far (saturating).
    fn effective_steps(&self) -> u64 {
        self.book().effective_steps
    }

    /// Edge activations/deactivations so far.
    fn edge_events(&self) -> u64 {
        self.book().edge_events
    }

    /// The step of the most recent edge change (0 if none yet) — the
    /// paper's convergence time once a run has stabilized.
    fn last_output_change(&self) -> u64 {
        self.book().last_output_change
    }

    /// The step of the most recent effective interaction (0 if none
    /// yet).
    fn last_effective(&self) -> u64 {
        self.book().last_effective
    }

    /// The fault bookkeeping, if the engine was built with a
    /// [`FaultPlan`](crate::FaultPlan).
    fn fault_state(&self) -> Option<&FaultState> {
        self.faults()
    }

    /// Runs until `stable` holds or `max_steps` total steps have elapsed.
    /// The predicate is evaluated initially and after every effective
    /// interaction.
    fn run_until(
        &mut self,
        mut stable: impl FnMut(&Self::Config) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        run_until_with(self, |e| stable(e.config()), false, max_steps)
    }

    /// Like [`run_until`](Self::run_until) but only re-evaluates the
    /// predicate when an edge changes. Correct (and faster) for
    /// predicates that depend only on the output graph.
    fn run_until_edges(
        &mut self,
        mut stable: impl FnMut(&Self::Config) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        self.run_until_edges_with(|e| stable(e.config()), max_steps)
    }

    /// Advances until the step counter reaches exactly `target`. The skip
    /// laws are memoryless (geometric) or self-similar under truncation
    /// (hypergeometric), so stopping and resuming mid-skip is exact.
    fn run_to(&mut self, target: u64) {
        while self.steps() < target {
            match self.advance(target) {
                EventStep::Quiescent => {
                    self.idle_to(target);
                    return;
                }
                EventStep::BudgetExhausted => return,
                EventStep::Candidate { .. } => {}
            }
        }
    }

    /// Applies every remaining plan event *now*, regardless of its
    /// scheduled time (see
    /// [`Simulation::apply_faults_now`](crate::Simulation::apply_faults_now)).
    /// Adversary decisions are *not* drained: they are tied to their
    /// decision draws.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn apply_faults_now(&mut self) {
        assert!(self.faults().is_some(), "apply_faults_now needs a fault plan");
        while let Some(resolved) = self.faults_mut().and_then(FaultState::resolve_next) {
            apply_resolved(self, resolved);
        }
    }

    /// Advances to exactly `target` total steps, applying plan events and
    /// adversary decisions at their draws on the way. Stopping at any
    /// draw and resuming is coin-for-coin identical to running through:
    /// the run is cut at every fault boundary either way, and fault
    /// randomness never touches the engine RNG.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn run_faulted_to(&mut self, target: u64) {
        assert!(self.faults().is_some(), "run_faulted_to needs a fault plan");
        run_faults_through(self, target);
        self.run_to(target);
    }

    /// Runs a faulted execution to stability: plan events and adversary
    /// decisions at their draws, then `stable` over (configuration, fault
    /// state) once none is pending. The predicate is not consulted while
    /// one is — a network that looks stable before its last fault is not
    /// stable — so a boundary past `max_steps` ends the run at the budget.
    ///
    /// # Panics
    ///
    /// Panics if the engine has no fault plan.
    fn run_faulted_until(
        &mut self,
        mut stable: impl FnMut(&Self::Config, &FaultState) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        run_faulted_until_with(
            self,
            |e| stable(e.config(), e.faults().expect("faulted run")),
            max_steps,
        )
    }
}

/// What a ShuffledRounds engine supplies to the round clock written once
/// here ([`advance_rounds`], [`idle_rounds_to`]): its round partition's
/// counts and the operations on it. Crate-private, which also seals
/// [`RoundEngine`].
pub(crate) trait RoundPrimitives: Primitives {
    /// Pairs per round: every unordered pair of the draw space once.
    fn round_len(&self) -> u64;

    /// The step counter, for the clock to move.
    fn clock(&mut self) -> &mut u64;

    /// Effective pairs not yet scheduled this round — the `hits` side of
    /// the next hypergeometric skip.
    fn avail(&self) -> u64;

    /// Whether no pair of nodes has any effective interaction.
    fn quiescent(&self) -> bool;

    /// One uniform draw on `(0, 1]` from the engine's coin stream.
    fn u01(&mut self) -> f64;

    /// Consumes `t` skipped draws of the current round, all of them
    /// non-candidates.
    fn schedule_skips(&mut self, t: u64);

    /// Rebuilds the round partition for the round the clock is in, with
    /// its first `pre_scheduled` draws already consumed (nonzero only
    /// when a quiescent jump lands mid-round).
    fn start_round(&mut self, pre_scheduled: u64);

    /// Draws one of the `k` unscheduled candidates uniformly, schedules
    /// it and applies its interaction; the clock already counts it.
    fn apply_candidate(&mut self, skipped: u64, k: u64) -> EventStep;
}

/// The round-denominated readings of a ShuffledRounds engine
/// ([`RoundSim`](crate::RoundSim),
/// [`RoundBucketSim`](crate::RoundBucketSim)): parallel time in rounds
/// of [`pairs_per_round`](Self::pairs_per_round) draws.
///
/// Sealed: only the crate's round engines implement it.
#[allow(private_bounds)] // `RoundPrimitives` is the crate-private seal
pub trait RoundEngine: ExactEngine + RoundPrimitives {
    /// The number of scheduler draws in one round: every unordered pair
    /// exactly once, `n(n−1)/2` (over the capacity when faulted).
    fn pairs_per_round(&self) -> u64 {
        self.round_len()
    }

    /// Rounds completed so far, `steps / pairs_per_round()`.
    fn rounds_completed(&self) -> u64 {
        self.steps() / self.round_len()
    }

    /// The 1-based round containing draw `step` (0 for `step = 0`): the
    /// round-denominated reading of any step statistic.
    fn round_of(&self, step: u64) -> u64 {
        step.div_ceil(self.round_len())
    }

    /// The round of the most recent edge change — `converged_at` in
    /// rounds once a run stabilizes (0 if no edge ever changed).
    fn last_output_change_round(&self) -> u64 {
        self.round_of(self.last_output_change())
    }
}

/// The ShuffledRounds `advance`: skips the negative-hypergeometric number
/// of non-candidate draws and applies the next candidate, without
/// letting the clock pass `max_steps`.
///
/// A round with no unscheduled candidate left is ineffective to its end;
/// when the budget reaches its boundary it is taken whole, resolving no
/// identity (the reset discards them, and drawing them would make a run
/// stopped on the boundary consume coins a straight run does not). A
/// candidate past the budget consumes only the in-budget skips, never up
/// to the boundary; truncation self-similarity makes a resume exact.
pub(crate) fn advance_rounds<E: RoundPrimitives>(e: &mut E, max_steps: u64) -> EventStep {
    if e.quiescent() {
        return EventStep::Quiescent;
    }
    let m = e.round_len();
    loop {
        let steps = e.book().steps;
        let remaining_budget = max_steps.saturating_sub(steps);
        if remaining_budget == 0 {
            return EventStep::BudgetExhausted;
        }
        let r = m - steps % m;
        let k = e.avail();
        if k == 0 && r <= remaining_budget {
            *e.clock() += r;
            e.start_round(0);
            continue;
        }
        let skipped = if k == 0 {
            r
        } else {
            hypergeometric_skip(e.u01(), r, k)
        };
        if skipped >= remaining_budget {
            e.schedule_skips(remaining_budget);
            *e.clock() = max_steps;
            return EventStep::BudgetExhausted;
        }
        e.schedule_skips(skipped);
        *e.clock() += skipped + 1;
        return e.apply_candidate(skipped, k);
    }
}

/// The ShuffledRounds idle jump: moves a quiescent engine's clock to
/// `target` (never backwards), keeping the round partition exact for a
/// later revival by an arrival. Landing inside the current round consumes
/// the elapsed draws as skips; crossing a boundary rebuilds the landing
/// round with its elapsed prefix consumed — a uniform subset of all
/// pairs, exact because under quiescence no draw of it was effective.
pub(crate) fn idle_rounds_to<E: RoundPrimitives>(e: &mut E, target: u64) {
    let steps = e.book().steps;
    if target <= steps {
        return;
    }
    debug_assert!(e.quiescent());
    let m = e.round_len();
    if target - steps < m - steps % m {
        e.schedule_skips(target - steps);
        *e.clock() = target;
    } else {
        *e.clock() = target;
        e.start_round(target % m);
    }
}

/// The predicate loop: `stable` at the start and at every probe point
/// [`next_probe`] reports, until it holds or the budget runs out.
pub(crate) fn run_until_with<E: Primitives>(
    e: &mut E,
    mut stable: impl FnMut(&E) -> bool,
    edges_only: bool,
    max_steps: u64,
) -> RunOutcome {
    if stable(e) {
        return e.book().stabilized_now();
    }
    loop {
        match next_probe(e, edges_only, max_steps) {
            ControlFlow::Break(out) => return out,
            ControlFlow::Continue(true) if stable(e) => return e.book().stabilized_now(),
            ControlFlow::Continue(_) => {}
        }
    }
}

/// One `advance` of a predicate loop: `Break` with the outcome when the
/// budget is spent (a quiescent engine idles to it first — the naive loop
/// would grind through the rest of the budget), else `Continue` with
/// whether the predicate is due: after an effective interaction, or only
/// after an edge change when `edges_only`.
pub(crate) fn next_probe<E: Primitives>(
    e: &mut E,
    edges_only: bool,
    max_steps: u64,
) -> ControlFlow<RunOutcome, bool> {
    match e.advance(max_steps) {
        EventStep::Quiescent => {
            e.idle_to(max_steps);
            ControlFlow::Break(RunOutcome::MaxSteps { steps: e.book().steps })
        }
        EventStep::BudgetExhausted => ControlFlow::Break(RunOutcome::MaxSteps { steps: e.book().steps }),
        EventStep::Candidate {
            result: StepResult::Effective { edge_changed, .. },
            ..
        } => ControlFlow::Continue(edge_changed || !edges_only),
        EventStep::Candidate { .. } => ControlFlow::Continue(false),
    }
}

/// [`ExactEngine::run_faulted_until`] over a predicate on the whole
/// engine.
pub(crate) fn run_faulted_until_with<E: ExactEngine>(
    e: &mut E,
    stable: impl FnMut(&E) -> bool,
    max_steps: u64,
) -> RunOutcome {
    assert!(e.faults().is_some(), "run_faulted_until needs a fault plan");
    if run_faults_through(e, max_steps) {
        e.run_to(max_steps);
        return RunOutcome::MaxSteps { steps: e.book().steps };
    }
    run_until_with(e, stable, false, max_steps)
}

/// Applies what is due now, then runs to every later fault boundary at
/// or before `limit` and applies it there. Returns whether a boundary
/// is still pending past `limit`.
fn run_faults_through<E: ExactEngine>(e: &mut E, limit: u64) -> bool {
    apply_due_faults(e);
    loop {
        match e.faults().and_then(FaultState::next_at) {
            Some(at) if at <= limit => {
                e.run_to(at);
                apply_due_faults(e);
            }
            next => return next.is_some(),
        }
    }
}

/// Applies everything due at the current draw: scheduled plan events in
/// order, and adversary decisions resolved against the live
/// configuration, read through the engine's view. The view borrows the
/// engine, so the decision's scratch is taken out of the fault state
/// while the policies run and put back as the decision lands.
fn apply_due_faults<E: Primitives>(e: &mut E) {
    while let Some(due) = e.faults().and_then(|fs| fs.due_fault(e.book().steps)) {
        match due {
            DueFault::Event => {
                let resolved = e
                    .faults_mut()
                    .and_then(FaultState::resolve_next)
                    .expect("due_fault implies a pending event");
                apply_resolved(e, resolved);
            }
            DueFault::Decision => {
                let mut scratch = e.faults_mut().expect("due implies a plan").take_scratch();
                let faults = e.faults().expect("due implies a plan");
                let (damage, spent) = faults.decide(&e.engine_view(), &mut scratch);
                let faults = e.faults_mut().expect("due implies a plan");
                faults.commit_decision(&damage, spent, scratch);
                for resolved in damage {
                    apply_resolved(e, resolved);
                }
            }
        }
    }
}

/// Applies one resolved fault (alive flags already flipped by the
/// resolver) through the engine's structural hooks. Every fault kind's
/// semantics lives here, once, for all four engines: a crash retires the
/// node, records its lost edges as output changes and then notifies its
/// former neighbours in ascending node order (see
/// [`Machine::on_crash_notify`](crate::Machine::on_crash_notify)); a
/// random deletion draws from the canonical edge order, so the draw
/// depends only on the configuration.
fn apply_resolved<E: Primitives>(e: &mut E, resolved: ResolvedFault) {
    match resolved {
        ResolvedFault::Noop => return,
        ResolvedFault::Crash(x) => {
            let neighbors = e.retire(x);
            e.record_fault_edges(neighbors.len());
            for w in neighbors {
                let view = e.engine_view();
                let q = view.state_index(w);
                if let Some(q2) = view.machine().notify_indexed(q).filter(|&q2| q2 != q) {
                    e.set_state_index(w, q2);
                }
            }
        }
        ResolvedFault::Arrive(x) => e.readmit(x),
        ResolvedFault::DeleteEdge(u, v) => {
            let lost = e.deactivate_edge(u, v);
            e.record_fault_edges(usize::from(lost));
        }
        ResolvedFault::DeleteRandomEdges { count, mut rng } => {
            let edges = e.engine_view().canonical_edges();
            for (u, v) in sample_without_replacement(&mut rng, edges, count) {
                let lost = e.deactivate_edge(u, v);
                e.record_fault_edges(usize::from(lost));
            }
        }
    }
    e.after_fault();
}

/// The driver contract as checks over one *arm* — an [`Engine`] arm or
/// the naive [`Simulation`] reference — so every engine is held to the
/// same statements, and the reference shows they are the naive loop's.
///
/// [`Engine`]: crate::Engine
/// [`Simulation`]: crate::Simulation
#[cfg(test)]
pub(crate) mod contract {
    use crate::fault::{FaultEvent, FaultPlan};
    use crate::{
        CompiledTable, Engine, FaultState, Link, ProtocolBuilder, RunOutcome, SchedulerKind,
        Simulation,
    };

    /// One row of the contract table.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Arm {
        /// `Engine::Dense`: `EventSim`.
        Event,
        /// `Engine::Sparse`: `BucketSim`.
        Bucket,
        /// `Engine::Round`: `RoundSim`.
        Round,
        /// `Engine::RoundSparse`: `RoundBucketSim`.
        RoundBucket,
        /// The naive `Simulation` under the uniform scheduler.
        Naive,
    }

    /// Every arm, the reference last.
    pub(crate) const ARMS: [Arm; 5] = [Arm::Event, Arm::Bucket, Arm::Round, Arm::RoundBucket, Arm::Naive];

    /// An engine under test, driven through the calls every arm shares.
    enum Runner {
        Skip(Engine<CompiledTable>),
        Naive(Box<Simulation<CompiledTable>>),
    }

    impl Arm {
        fn build(self, machine: CompiledTable, n: usize, plan: Option<FaultPlan>) -> Runner {
            use SchedulerKind::{ShuffledRounds, Uniform};
            let (budget, family) = match self {
                Arm::Event => (u64::MAX, Uniform),
                Arm::Bucket => (0, Uniform),
                Arm::Round => (u64::MAX, ShuffledRounds),
                Arm::RoundBucket => (0, ShuffledRounds),
                Arm::Naive => {
                    return Runner::Naive(Box::new(match plan {
                        Some(plan) => Simulation::new_faulted(machine, n, 5, plan),
                        None => Simulation::new(machine, n, 5),
                    }))
                }
            };
            Runner::Skip(match plan {
                Some(plan) => Engine::with_budget_for_faulted(machine, n, 5, budget, family, plan),
                None => Engine::with_budget_for(machine, n, 5, budget, family),
            })
        }

        /// A step count far past quiescence: the skip engines jump any
        /// distance, the naive loop pays for every draw.
        fn far(self) -> u64 {
            if self == Arm::Naive {
                100_000
            } else {
                1 << 50
            }
        }
    }

    impl Runner {
        fn steps(&self) -> u64 {
            match self {
                Runner::Skip(e) => e.steps(),
                Runner::Naive(s) => s.steps(),
            }
        }

        fn effective_steps(&self) -> u64 {
            match self {
                Runner::Skip(e) => e.effective_steps(),
                Runner::Naive(s) => s.effective_steps(),
            }
        }

        /// `run_until` (or `run_until_edges`) with a predicate that never
        /// holds.
        fn run_unstable(&mut self, edges_only: bool, max_steps: u64) -> RunOutcome {
            match (self, edges_only) {
                (Runner::Skip(e), false) => e.run_until(|_| false, max_steps),
                (Runner::Skip(e), true) => e.run_until_edges(|_| false, max_steps),
                (Runner::Naive(s), false) => s.run_until(|_| false, max_steps),
                (Runner::Naive(s), true) => s.run_until_edges(|_| false, max_steps),
            }
        }

        fn run_to(&mut self, target: u64) {
            match self {
                Runner::Skip(e) => e.run_to(target),
                Runner::Naive(s) => s.run_for(target.saturating_sub(s.steps())),
            }
        }

        fn run_faulted_until(
            &mut self,
            mut stable: impl FnMut(&FaultState) -> bool,
            max_steps: u64,
        ) -> RunOutcome {
            match self {
                Runner::Skip(e) => e.run_faulted_until(|_, fs| stable(fs), max_steps),
                Runner::Naive(s) => s.run_faulted_until(|_, fs| stable(fs), max_steps),
            }
        }
    }

    /// `(a, a, 0) → (b, b, 1)` — `rules` false gives the inert protocol,
    /// quiescent from the start.
    fn matching(rules: bool) -> CompiledTable {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        if rules {
            b.rule((a, a, Link::Off), (m, m, Link::On));
        }
        b.build().expect("valid").compile()
    }

    /// A spent budget ends the run at exactly the budget, and a later
    /// run resumes from there.
    pub(crate) fn budget_is_respected_exactly(arm: Arm) {
        let mut r = arm.build(matching(true), 50, None);
        assert_eq!(r.run_unstable(false, 1_000), RunOutcome::MaxSteps { steps: 1_000 }, "{arm:?}");
        assert_eq!(r.run_unstable(true, 2_500), RunOutcome::MaxSteps { steps: 2_500 }, "{arm:?}");
        assert_eq!(r.steps(), 2_500, "{arm:?}");
    }

    /// A quiescent, never-stable configuration reports its whole budget
    /// — at once on the skip engines.
    pub(crate) fn quiescent_unstable_returns_budget(arm: Arm) {
        let mut r = arm.build(matching(false), 8, None);
        assert_eq!(r.run_unstable(false, arm.far()), RunOutcome::MaxSteps { steps: arm.far() });
    }

    /// `run_to` lands on its target exactly, through the matching's
    /// effective steps and then across quiescence.
    pub(crate) fn run_to_lands_exactly_and_quiescence_jumps(arm: Arm) {
        let mut r = arm.build(matching(true), 10, None);
        for target in [123, 50_000, arm.far()] {
            r.run_to(target);
            assert_eq!(r.steps(), target, "{arm:?}");
        }
        assert_eq!(r.effective_steps(), 5, "{arm:?}");
    }

    /// A budget below the clock is a no-op, never a rewind.
    pub(crate) fn spent_budget_never_rewinds_steps(arm: Arm) {
        let mut r = arm.build(matching(true), 10, None);
        r.run_to(arm.far());
        let out = r.run_unstable(false, arm.far() / 2);
        assert_eq!(out, RunOutcome::MaxSteps { steps: arm.far() }, "{arm:?}");
        assert_eq!(r.steps(), arm.far(), "{arm:?}");
    }

    /// `run_faulted_until` first consults its predicate after the last
    /// plan event, at that event's draw; an event past the budget ends
    /// the run at the budget with no predicate call at all.
    pub(crate) fn faulted_predicate_waits_for_pending_events(arm: Arm) {
        let plan = FaultPlan::new(4)
            .at(200, FaultEvent::CrashRandom)
            .at(400, FaultEvent::Arrive);
        let mut r = arm.build(matching(true), 10, Some(plan));
        let mut calls = 0;
        let out = r.run_faulted_until(
            |fs| {
                calls += 1;
                assert_eq!(fs.next_at(), None, "{arm:?}: probed with an event pending");
                true
            },
            arm.far(),
        );
        assert_eq!((calls, out.stabilized(), r.steps()), (1, true, 400), "{arm:?}");

        let plan = FaultPlan::new(4).at(1_000, FaultEvent::CrashRandom);
        let mut r = arm.build(matching(true), 10, Some(plan));
        let mut calls = 0;
        let out = r.run_faulted_until(
            |_| {
                calls += 1;
                true
            },
            600,
        );
        assert_eq!(out, RunOutcome::MaxSteps { steps: 600 }, "{arm:?}");
        assert_eq!((calls, r.steps()), (0, 600), "{arm:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::contract::*;

    #[test]
    fn every_arm_meets_the_driver_contract() {
        for arm in ARMS {
            budget_is_respected_exactly(arm);
            quiescent_unstable_returns_budget(arm);
            run_to_lands_exactly_and_quiescence_jumps(arm);
            spent_budget_never_rewinds_steps(arm);
            faulted_predicate_waits_for_pending_events(arm);
        }
    }
}
