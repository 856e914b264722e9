//! The simulation engine: the scheduler-driven step loop with convergence
//! bookkeeping.
//!
//! Running time in the paper is *sequential*: one selected interaction per
//! step, and the time to convergence of an execution is the minimum `t`
//! such that the output graph `G(C_i)` is the same for all `i ≥ t`
//! (§3.1). The engine therefore records the step of the last output-graph
//! change; harnesses certify stabilization with a protocol-specific stable
//! predicate and read the convergence time from
//! [`RunOutcome::converged_at`].

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::engine::Bookkeeping;
use crate::fault::adversary::LiveConfig;
use crate::fault::{sample_without_replacement, DueFault, FaultPlan, FaultState, ResolvedFault};
use crate::{Link, Machine, Population, Scheduler, StateId, Uniform};

/// The result of a single simulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// The selected pair had no applicable effective transition.
    Ineffective {
        /// The pair the scheduler selected.
        pair: (usize, usize),
    },
    /// An effective transition was applied.
    Effective {
        /// The pair the scheduler selected.
        pair: (usize, usize),
        /// Whether the edge between the pair changed state.
        edge_changed: bool,
    },
}

impl StepResult {
    /// Whether the step applied an effective transition.
    #[must_use]
    pub fn is_effective(&self) -> bool {
        matches!(self, StepResult::Effective { .. })
    }
}

/// The result of a bounded run towards a stable target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The stability predicate held at `detected_at` steps.
    Stabilized {
        /// Step count at which the predicate was observed to hold.
        detected_at: u64,
        /// Step of the last output-graph (edge) change — the paper's
        /// convergence time, assuming the predicate certifies that no
        /// further output change can occur.
        converged_at: u64,
        /// Step of the last effective transition (node or edge change);
        /// the convergence time of processes that do not touch edges.
        last_effective: u64,
    },
    /// The step budget was exhausted before the predicate held.
    MaxSteps {
        /// The exhausted budget.
        steps: u64,
    },
}

impl RunOutcome {
    /// Whether the run reached the target.
    #[must_use]
    pub fn stabilized(&self) -> bool {
        matches!(self, RunOutcome::Stabilized { .. })
    }

    /// The paper's convergence time (last output change), if stabilized.
    #[must_use]
    pub fn converged_at(&self) -> Option<u64> {
        match self {
            RunOutcome::Stabilized { converged_at, .. } => Some(*converged_at),
            RunOutcome::MaxSteps { .. } => None,
        }
    }

    /// The last effective interaction step, if stabilized.
    #[must_use]
    pub fn last_effective(&self) -> Option<u64> {
        match self {
            RunOutcome::Stabilized { last_effective, .. } => Some(*last_effective),
            RunOutcome::MaxSteps { .. } => None,
        }
    }
}

/// A running execution of a [`Machine`] on a population under a
/// [`Scheduler`].
///
/// # Example
///
/// ```
/// use netcon_core::{Link, ProtocolBuilder, Simulation};
/// use netcon_graph::properties::is_maximum_matching;
///
/// // The maximum-matching process (§3.3): (a, a, 0) → (b, b, 1).
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?;
///
/// let mut sim = Simulation::new(protocol, 30, 1);
/// let outcome = sim.run_until(|p| is_maximum_matching(p.edges()), 1_000_000);
/// assert!(outcome.stabilized());
/// assert!(sim.is_quiescent());
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulation<M: Machine, S: Scheduler = Uniform> {
    machine: M,
    scheduler: S,
    pop: Population<M::State>,
    rng: SmallRng,
    book: Bookkeeping,
    faults: Option<FaultState>,
}

impl<M: Machine> Simulation<M, Uniform> {
    /// Creates a simulation of `machine` on `n` nodes in the initial
    /// configuration, under the uniform random scheduler, reproducible
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (pairwise interactions need two processes).
    ///
    /// # Example
    ///
    /// ```
    /// use netcon_core::{Link, ProtocolBuilder, Simulation};
    /// let mut b = ProtocolBuilder::new("pairing");
    /// let a = b.state("a");
    /// let p = b.state("b");
    /// b.rule((a, a, Link::Off), (p, p, Link::On));
    /// let mut sim = Simulation::new(b.build()?, 8, 7);
    /// sim.run_for(100);
    /// assert_eq!(sim.steps(), 100); // the naive loop pays for every draw
    /// # Ok::<(), netcon_core::ProtocolError>(())
    /// ```
    #[must_use]
    pub fn new(machine: M, n: usize, seed: u64) -> Self {
        Self::with_scheduler(machine, n, seed, Uniform)
    }

    /// Creates a simulation starting from an explicit configuration (for
    /// problems with non-trivial inputs, e.g. Graph-Replication).
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than 2 nodes.
    #[must_use]
    pub fn from_population(machine: M, pop: Population<M::State>, seed: u64) -> Self {
        Self::from_population_with_scheduler(machine, pop, seed, Uniform)
    }

    /// Creates a faulted simulation of `machine` on `n` initially-present
    /// nodes under the uniform scheduler: the draw space is pre-sized to
    /// `n + plan.arrival_count()` and `plan`'s events are applied by
    /// [`run_faulted_until`](Self::run_faulted_until) /
    /// [`run_faulted_to`](Self::run_faulted_to) /
    /// [`apply_faults_now`](Self::apply_faults_now). See
    /// [`fault`](crate::fault) for the ghost-node model.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new_faulted(machine: M, n: usize, seed: u64, plan: FaultPlan) -> Self {
        Self::with_scheduler_faulted(machine, n, seed, Uniform, plan)
    }
}

impl<M: Machine, S: Scheduler> Simulation<M, S> {
    /// Creates a simulation under a custom scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_scheduler(machine: M, n: usize, seed: u64, scheduler: S) -> Self {
        let pop = Population::new(n, machine.initial_state());
        Self::from_population_with_scheduler(machine, pop, seed, scheduler)
    }

    /// Creates a simulation from an explicit configuration under a custom
    /// scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the population has fewer than 2 nodes.
    #[must_use]
    pub fn from_population_with_scheduler(
        machine: M,
        pop: Population<M::State>,
        seed: u64,
        scheduler: S,
    ) -> Self {
        assert!(pop.n() >= 2, "pairwise interactions need at least 2 processes");
        Self {
            machine,
            scheduler,
            pop,
            rng: SmallRng::seed_from_u64(seed),
            book: Bookkeeping::default(),
            faults: None,
        }
    }

    /// Creates a faulted simulation under a custom scheduler — the
    /// reference semantics the faulted event engines are measured
    /// against. Ghost slots (not-yet-arrived nodes) hold the initial
    /// state and no edges; a draw touching a ghost (or a crashed node)
    /// is an ordinary ineffective step.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_scheduler_faulted(
        machine: M,
        n: usize,
        seed: u64,
        scheduler: S,
        plan: FaultPlan,
    ) -> Self {
        assert!(n >= 2, "pairwise interactions need at least 2 processes");
        let fs = FaultState::new(plan, n);
        let pop = Population::new(fs.capacity(), machine.initial_state());
        let mut sim = Self::from_population_with_scheduler(machine, pop, seed, scheduler);
        sim.faults = Some(fs);
        sim
    }

    /// The fault bookkeeping, if this simulation was constructed with a
    /// [`FaultPlan`].
    #[must_use]
    pub fn fault_state(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// The current configuration.
    #[must_use]
    pub fn population(&self) -> &Population<M::State> {
        &self.pop
    }

    /// The machine being executed.
    #[must_use]
    pub fn machine(&self) -> &M {
        &self.machine
    }

    /// Steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.book.steps
    }

    /// Effective interactions so far.
    #[must_use]
    pub fn effective_steps(&self) -> u64 {
        self.book.effective_steps
    }

    /// Edge activations/deactivations so far.
    #[must_use]
    pub fn edge_events(&self) -> u64 {
        self.book.edge_events
    }

    /// The step of the most recent edge change (0 if none yet) — the
    /// current candidate for the paper's convergence time.
    #[must_use]
    pub fn last_output_change(&self) -> u64 {
        self.book.last_output_change
    }

    /// The step of the most recent effective interaction (0 if none yet).
    #[must_use]
    pub fn last_effective(&self) -> u64 {
        self.book.last_effective
    }

    /// Executes one scheduler-selected interaction.
    ///
    /// Performs exactly one δ lookup and, for flat (`StateId`) protocols,
    /// no heap allocation: the states are passed to the machine by
    /// reference and only the (two-word) outcome states are written back.
    #[inline]
    pub fn step(&mut self) -> StepResult {
        let (u, v) = self.scheduler.next_pair(self.pop.n(), &mut self.rng);
        self.book.steps += 1;
        if let Some(fs) = &self.faults {
            // Ghost-node model: a pair touching a crashed or not-yet-
            // arrived node is certainly ineffective.
            if !fs.is_alive(u) || !fs.is_alive(v) {
                return StepResult::Ineffective { pair: (u, v) };
            }
        }
        let link = Link::from(self.pop.edges().is_active(u, v));
        match self
            .machine
            .interact(self.pop.state(u), self.pop.state(v), link, &mut self.rng)
        {
            None => StepResult::Ineffective { pair: (u, v) },
            Some((a2, b2, l2)) => {
                let edge_changed = l2 != link;
                if edge_changed {
                    self.pop.edges_mut().set(u, v, l2.is_on());
                }
                self.pop.set_state(u, a2);
                self.pop.set_state(v, b2);
                self.book.record_effective(edge_changed);
                StepResult::Effective {
                    pair: (u, v),
                    edge_changed,
                }
            }
        }
    }

    /// Runs for exactly `steps` further interactions.
    pub fn run_for(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs until `stable` holds or `max_steps` total steps have
    /// elapsed.
    ///
    /// The predicate is evaluated on the initial configuration, after
    /// every step that changes an edge, and after every step on which the
    /// *node* states changed but no edge did (cheaply skipping ineffective
    /// steps). For a predicate that certifies output-stability, the
    /// returned [`RunOutcome::Stabilized::converged_at`] is exactly the
    /// paper's time to convergence.
    pub fn run_until(
        &mut self,
        mut stable: impl FnMut(&Population<M::State>) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        if stable(&self.pop) {
            return self.book.stabilized_now();
        }
        while self.book.steps < max_steps {
            if self.step().is_effective() && stable(&self.pop) {
                return self.book.stabilized_now();
            }
        }
        RunOutcome::MaxSteps {
            steps: self.book.steps,
        }
    }

    /// Like [`run_until`](Self::run_until) but only re-evaluates the
    /// predicate when an edge changes. Correct (and faster) for predicates
    /// that depend only on the output graph.
    pub fn run_until_edges(
        &mut self,
        mut stable: impl FnMut(&Population<M::State>) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        if stable(&self.pop) {
            return self.book.stabilized_now();
        }
        while self.book.steps < max_steps {
            if let StepResult::Effective {
                edge_changed: true, ..
            } = self.step()
            {
                if stable(&self.pop) {
                    return self.book.stabilized_now();
                }
            }
        }
        RunOutcome::MaxSteps {
            steps: self.book.steps,
        }
    }

    /// Applies one resolved fault event to the configuration. The alive
    /// flags were already flipped by the resolver; this realizes the
    /// structural half (edge deletions, recorded as output changes).
    fn apply_resolved(&mut self, resolved: ResolvedFault) {
        match resolved {
            // An arrival already sits in its ghost slot with the initial
            // state and no edges: nothing to realize.
            ResolvedFault::Noop | ResolvedFault::Arrive(_) => {}
            ResolvedFault::Crash(x) => {
                let neighbors: Vec<usize> = self.pop.edges().neighbors(x).collect();
                for &w in &neighbors {
                    self.pop.edges_mut().set(x, w, false);
                }
                if !neighbors.is_empty() {
                    self.book.edge_events += neighbors.len() as u64;
                    self.book.last_output_change = self.book.steps;
                }
                // Crash notifications: every alive node that lost an
                // active edge to `x` has the machine's notify map
                // applied, in ascending node order (state-only changes —
                // the output graph already reflects the crash above).
                for &w in &neighbors {
                    if let Some(s2) = self.machine.on_crash_notify(self.pop.state(w)) {
                        self.pop.set_state(w, s2);
                    }
                }
            }
            ResolvedFault::DeleteEdge(u, v) => self.delete_edge_fault(u, v),
            ResolvedFault::DeleteRandomEdges { count, mut rng } => {
                // `active_edges` iterates in triangular-index order —
                // a canonical order shared by every engine.
                let edges: Vec<(usize, usize)> = self.pop.edges().active_edges().collect();
                for (u, v) in sample_without_replacement(&mut rng, edges, count) {
                    self.delete_edge_fault(u, v);
                }
            }
        }
    }

    /// Deactivates edge `{u, v}` as a fault (no-op when inactive),
    /// recording it as an output-graph change.
    fn delete_edge_fault(&mut self, u: usize, v: usize) {
        if !self.pop.edges().is_active(u, v) {
            return;
        }
        self.pop.edges_mut().set(u, v, false);
        self.book.edge_events += 1;
        self.book.last_output_change = self.book.steps;
    }

    /// Whether no pair of nodes has any effective interaction — the
    /// strongest form of stability.
    ///
    /// An O(n²) pair scan; the event engines answer the same question
    /// from their incrementally-maintained candidate sets (for example
    /// [`EventSim::is_quiescent`](crate::EventSim::is_quiescent), O(1)).
    ///
    /// Note that some correct protocols never quiesce (their leaders walk
    /// forever); those stabilize in output without ever satisfying this.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        let n = self.pop.n();
        for u in 0..n {
            if self.faults.as_ref().is_some_and(|fs| !fs.is_alive(u)) {
                continue;
            }
            for (v, active) in self.pop.edges().row(u) {
                if v > u
                    && self.faults.as_ref().is_none_or(|fs| fs.is_alive(v))
                    && self
                        .machine
                        .can_affect(self.pop.state(u), self.pop.state(v), Link::from(active))
                {
                    return false;
                }
            }
        }
        true
    }

    /// The output graph: active edges restricted to nodes in output
    /// states. When `Q_out = Q` this is just the active-edge set.
    #[must_use]
    pub fn output_graph(&self) -> netcon_graph::EdgeSet {
        let (machine, pop) = (&self.machine, &self.pop);
        let mut out = netcon_graph::EdgeSet::new(pop.n());
        for (u, v) in pop.edges().active_edges() {
            if machine.is_output(pop.state(u)) && machine.is_output(pop.state(v)) {
                out.activate(u, v);
            }
        }
        out
    }

    /// Bytes of heap memory held by the engine: node states and the
    /// dense edge set (`n²/8` bytes — the naive loop's Θ(n²) floor).
    /// Heap payloads *inside* composite states are not counted.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        (self.pop.n() * std::mem::size_of::<M::State>()) as u64
            + self.pop.edges().approx_mem_bytes()
    }
}

/// The naive loop's read of its configuration for adversary decisions.
impl LiveConfig for Population<StateId> {
    fn n(&self) -> usize {
        Population::n(self)
    }

    fn degree(&self, u: usize) -> usize {
        self.edges().degree(u) as usize
    }

    fn state_index(&self, u: usize) -> usize {
        self.state(u).index()
    }

    fn neighbors_ascending(&self, u: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.edges().neighbors(u));
    }
}

impl<M: Machine<State = StateId>, S: Scheduler> Simulation<M, S> {
    /// Applies everything due at the current step counter: scheduled
    /// plan events in order, and adversary decisions resolved against
    /// the live population — by the resolver the skip engines' driver
    /// runs on their views. (It reads dense state indices, which is why
    /// the faulted run loops live under the [`StateId`] bound; the
    /// interpreted and the compiled rule table both run them.)
    fn apply_due_faults(&mut self) {
        loop {
            let due = self
                .faults
                .as_ref()
                .and_then(|fs| fs.due_fault(self.book.steps));
            match due {
                Some(DueFault::Event) => {
                    let resolved = self
                        .faults
                        .as_mut()
                        .expect("due implies a plan")
                        .resolve_next()
                        .expect("due_fault implies a pending event");
                    self.apply_resolved(resolved);
                }
                Some(DueFault::Decision) => {
                    let damage = self
                        .faults
                        .as_mut()
                        .expect("due implies a plan")
                        .resolve_due_decision(&self.pop);
                    for resolved in damage {
                        self.apply_resolved(resolved);
                    }
                }
                None => return,
            }
        }
    }

    /// Applies every remaining plan event *now*, regardless of its
    /// scheduled time — how `analysis::repair_time` perturbs a network
    /// the moment it stabilizes (the stabilization step is random, so
    /// no draw-indexed time could express "right after stabilizing").
    /// Adversary decisions are *not* drained: they are tied to their
    /// decision draws (an adversary cannot act early).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has no fault plan.
    pub fn apply_faults_now(&mut self) {
        assert!(self.faults.is_some(), "apply_faults_now needs a fault plan");
        loop {
            let Some(resolved) = self.faults.as_mut().and_then(FaultState::resolve_next) else {
                return;
            };
            self.apply_resolved(resolved);
        }
    }

    /// Advances to exactly `target` total steps, applying plan events
    /// and adversary decisions at their scheduled times on the way.
    /// Stopping at any step and resuming is coin-for-coin identical to
    /// running through (the naive loop consumes its draws one by one
    /// either way).
    ///
    /// # Panics
    ///
    /// Panics if the simulation has no fault plan.
    pub fn run_faulted_to(&mut self, target: u64) {
        assert!(self.faults.is_some(), "run_faulted_to needs a fault plan");
        self.apply_due_faults();
        loop {
            let next = self.faults.as_ref().and_then(FaultState::next_at);
            match next {
                Some(at) if at <= target => {
                    self.run_for(at.saturating_sub(self.book.steps));
                    self.apply_due_faults();
                }
                _ => {
                    self.run_for(target.saturating_sub(self.book.steps));
                    return;
                }
            }
        }
    }

    /// Runs a faulted execution to stability: applies plan events and
    /// adversary decisions at their scheduled times, then (once both
    /// are exhausted) runs until `stable` holds or `max_steps` is
    /// reached. The predicate receives the configuration *and* the
    /// fault state — stability under churn is a property of the alive
    /// subpopulation, which the configuration alone cannot express. It
    /// is deliberately not consulted while plan events or decisions
    /// are still pending: a network that looks stable before its last
    /// fault is not stable.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has no fault plan.
    pub fn run_faulted_until(
        &mut self,
        mut stable: impl FnMut(&Population<M::State>, &FaultState) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        assert!(self.faults.is_some(), "run_faulted_until needs a fault plan");
        self.apply_due_faults();
        loop {
            let next = self.faults.as_ref().and_then(FaultState::next_at);
            match next {
                Some(at) if at <= max_steps => {
                    self.run_for(at.saturating_sub(self.book.steps));
                    self.apply_due_faults();
                }
                Some(_) => {
                    self.run_for(max_steps.saturating_sub(self.book.steps));
                    return RunOutcome::MaxSteps {
                        steps: self.book.steps,
                    };
                }
                None => break,
            }
        }
        let fs = self.faults.as_ref().expect("asserted above");
        if stable(&self.pop, fs) {
            return self.book.stabilized_now();
        }
        while self.book.steps < max_steps {
            if self.step().is_effective()
                && stable(&self.pop, self.faults.as_ref().expect("asserted above"))
            {
                return self.book.stabilized_now();
            }
        }
        RunOutcome::MaxSteps {
            steps: self.book.steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProtocolBuilder, RoundRobin};
    use netcon_graph::properties::is_maximum_matching;

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn matching_protocol() -> crate::RuleProtocol {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        b.build().expect("valid")
    }

    #[test]
    fn matching_converges_and_quiesces() {
        let mut sim = Simulation::new(matching_protocol(), 20, 123);
        let outcome = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 200_000);
        assert!(outcome.stabilized(), "matching should form: {outcome:?}");
        assert!(sim.is_quiescent());
        assert_eq!(sim.population().edges().active_count(), 10);
    }

    #[test]
    fn odd_population_leaves_one_unmatched() {
        let mut sim = Simulation::new(matching_protocol(), 21, 5);
        let outcome = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 400_000);
        assert!(outcome.stabilized());
        let a = sim.machine().state("a").unwrap();
        assert_eq!(sim.population().count_where(|s| *s == a), 1);
    }

    #[test]
    fn convergence_time_is_last_edge_change() {
        let mut sim = Simulation::new(matching_protocol(), 10, 7);
        let outcome = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000);
        let RunOutcome::Stabilized {
            detected_at,
            converged_at,
            ..
        } = outcome
        else {
            panic!("did not stabilize");
        };
        assert_eq!(
            detected_at, converged_at,
            "for edge-predicate runs detection happens on the converging step"
        );
        assert_eq!(u64::from(sim.edge_events() > 0), 1);
        // Running further changes nothing: the output is stable.
        let before = sim.population().edges().clone();
        sim.run_for(10_000);
        assert_eq!(*sim.population().edges(), before);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(matching_protocol(), 16, seed);
            sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000)
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).stabilized());
    }

    #[test]
    fn works_under_round_robin() {
        let mut sim =
            Simulation::with_scheduler(matching_protocol(), 12, 3, RoundRobin::new());
        let outcome = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000);
        assert!(outcome.stabilized());
    }

    #[test]
    fn initial_configuration_can_be_stable() {
        // A protocol with no rules is stable immediately.
        let mut b = ProtocolBuilder::new("inert");
        let _ = b.state("a");
        let p = b.build().expect("valid");
        let mut sim = Simulation::new(p, 4, 0);
        let outcome = sim.run_until(|_| true, 10);
        assert_eq!(
            outcome,
            RunOutcome::Stabilized {
                detected_at: 0,
                converged_at: 0,
                last_effective: 0
            }
        );
        assert!(sim.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = Simulation::new(matching_protocol(), 1, 0);
    }

    #[test]
    fn output_graph_respects_output_states() {
        let mut b = ProtocolBuilder::new("half-out");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        b.output_states(&[a]);
        let p = b.build().expect("valid");
        let mut sim = Simulation::new(p, 10, 11);
        sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000);
        // Matched nodes are in state b, which is not an output state, so
        // the output graph is empty even though edges are active.
        assert_eq!(sim.output_graph().active_count(), 0);
        assert!(sim.population().edges().active_count() > 0);
    }

    #[test]
    fn faults_reclassify_and_converge_on_the_naive_engine() {
        use crate::fault::{FaultEvent, FaultPlan};
        let p = matching_protocol();
        let a = p.state("a").unwrap();
        let plan = FaultPlan::new(7).at(0, FaultEvent::CrashRandom);
        let mut sim = Simulation::new_faulted(p, 8, 11, plan);
        let out = sim.run_faulted_until(
            |pop, fs| {
                (0..pop.n())
                    .filter(|&u| fs.is_alive(u) && *pop.state(u) == a)
                    .count()
                    <= 1
            },
            10_000_000,
        );
        assert!(out.stabilized(), "{out:?}");
        let fs = sim.fault_state().expect("faulted");
        assert_eq!(fs.alive_count(), 7);
        // 7 alive nodes: 3 matched pairs and one leftover `a`.
        assert_eq!(sim.population().edges().active_count(), 3);
    }

    #[test]
    fn naive_stop_resume_is_coin_for_coin_identical_across_faults() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = || {
            FaultPlan::new(3)
                .at(50, FaultEvent::CrashRandom)
                .at(120, FaultEvent::Arrive)
                .at(200, FaultEvent::DeleteRandomActiveEdges(2))
        };
        let fingerprint = |mut sim: Simulation<crate::RuleProtocol>| {
            sim.run_faulted_to(400);
            (
                sim.steps(),
                sim.effective_steps(),
                sim.edge_events(),
                sim.population().clone(),
            )
        };
        let whole = fingerprint(Simulation::new_faulted(matching_protocol(), 10, 9, plan()));
        let mut stopped = Simulation::new_faulted(matching_protocol(), 10, 9, plan());
        // Interruptions on, before, and after every fault boundary: the
        // naive engine realizes each draw, so any decomposition of the
        // run consumes the identical coin sequence.
        for target in [37, 120, 199, 253, 400] {
            stopped.run_faulted_to(target);
        }
        assert_eq!(
            whole,
            (
                stopped.steps(),
                stopped.effective_steps(),
                stopped.edge_events(),
                stopped.population().clone()
            )
        );
    }
}
