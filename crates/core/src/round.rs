//! The exact event-driven ShuffledRounds engine: skip the ineffective
//! part of every round, simulate only the draws that can matter.
//!
//! [`ShuffledRounds`](crate::ShuffledRounds) plays every pair exactly
//! once per round, in a fresh uniform permutation each round — the
//! round-based regime in which parallel time is measured in *rounds*
//! rather than draws. The naive [`Simulation`](crate::Simulation)
//! realizes each round draw by draw (Θ(n²) per round, almost all of it
//! ineffective); [`RoundSim`] reproduces the same distribution while
//! paying only for the effective interactions plus their candidate
//! maintenance (O(n/64) row diffs, and an O(n·|Q|/64) rescan per endpoint
//! whose state changed), like [`EventSim`](crate::EventSim) does for the
//! uniform scheduler.
//!
//! # Exactness
//!
//! Drawing without replacement makes the uniform scheduler's geometric
//! skip law inapplicable; two ideas replace it.
//!
//! 1. **Hypergeometric skips.** Mid-round, the rest of the round is a
//!    uniform permutation of the `r` not-yet-scheduled pairs, `k` of
//!    which are *candidates* (pairs whose states and link admit an
//!    effective transition — states are frozen during ineffective draws,
//!    so `k` is constant between candidates). The number of draws before
//!    the next candidate is negative hypergeometric —
//!    `P(skips ≥ t) = ∏_{i<t} (r−k−i)/(r−i)` — sampled in one inversion
//!    draw by [`hypergeometric_skip`](crate::engine::hypergeometric_skip), and
//!    the candidate itself is uniform among the `k` (independent of the
//!    skip count, by permutation symmetry). When `k = 0` the rest of the
//!    round is certainly ineffective and is consumed in one jump. The
//!    loop that applies this law, and the quiescent idle jump, are
//!    written once for both round engines in the
//!    [driver](crate::driver); this engine supplies its partition's
//!    primitives.
//! 2. **Lazy identities.** Unlike the i.i.d. case, the *identities* of
//!    skipped pairs matter: a pair already scheduled this round cannot
//!    recur until the next round. Materializing them would cost Θ(n²)
//!    per round again, so the engine keeps them latent: unscheduled
//!    pairs are partitioned into the candidate set `A` (exact
//!    [`PairSet`]), the *resolved* ineffective set `B` (pairs whose
//!    effectiveness changed at some point this round — only pairs
//!    incident to an applied interaction, at most 2(n−1) per effective
//!    step), and an anonymous pool `U` of never-touched ineffective pairs
//!    tracked only by counts (`u_count` members, `u_rem` unscheduled). A skip
//!    batch of `t` draws splits between `B` and `U` by the
//!    hypergeometric count law
//!    ([`hypergeometric_count`]); the `B`
//!    casualties are removed uniformly (they are exchangeable), the `U`
//!    casualties just decrement `u_rem`. When a pool pair later turns
//!    effective, its scheduled-or-not status is *resolved on demand* by
//!    one urn draw — `P(still unscheduled) = u_rem / u_count` — which is
//!    exact because the scheduled subset of `U` is uniform (each batch
//!    drew uniformly without replacement, and members of `U` are
//!    indistinguishable by construction: all of them have been
//!    ineffective at every draw so far this round).
//!
//! Conditioned on the history visible to the naive engine (the applied
//! interactions and their positions), every quantity the engine samples —
//! skip counts, candidate identities, batch splits, urn resolutions — has
//! exactly the conditional law of the uniform-permutation rounds, so
//! `steps`, `effective_steps`, `edge_events`, `converged_at` (in draws
//! *and* in rounds) and the full configuration process are
//! **distribution-identical** to `Simulation` under
//! [`ShuffledRounds`](crate::ShuffledRounds), up to f64 rounding of the
//! inversion draws. The paired statistical checks live in
//! `tests/engine_equivalence.rs`; `docs/engines.md` consolidates the
//! argument.
//!
//! The configuration and its effective set live in the dense core
//! (`DenseCore`) that `EventSim` runs on too: it applies every
//! interaction and every fault repair (word-parallel desired-row rescans
//! of the endpoints whose state changed). This engine snapshots the
//! touched rows before each call into the core and reclassifies the
//! round partition along the XOR diff of each against the updated
//! [`PairSet`] row. Pairs are presented to `interact` as `(min, max)` —
//! the order the naive scheduler uses — which is why the engine, like
//! [`BucketSim`](crate::BucketSim), requires `can_affect` to be
//! symmetric in its node arguments.
//!
//! Memory: three dense [`PairSet`]s (candidates, resolved-ineffective,
//! and the core's effective set) plus a scheduled-pair bitset —
//! ≈ `13n²` bytes, about 3× [`EventSim`](crate::EventSim)
//! ([`RoundSim::dense_mem_estimate`] is the a-priori figure the engine
//! selector weighs). Beyond the budget,
//! [`Engine::auto_for`](crate::Engine::auto_for) switches to
//! [`RoundBucketSim`](crate::RoundBucketSim), the sparse exact engine
//! that plays the same round law in O(n + |Q|²) memory.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::compiled::EnumerableMachine;
use crate::driver::{
    advance_rounds, idle_rounds_to, ExactEngine, Primitives, RoundEngine, RoundPrimitives,
};
use crate::engine::{hypergeometric_count, unit_open01, Bookkeeping, DenseCore, PairSet};
use crate::event::EventStep;
use crate::fault::{FaultPlan, FaultState};
use crate::sim::StepResult;
use crate::{EngineView, Population};

/// Membership bitset over unordered pairs (one canonical bit per pair)
/// plus a member list for O(members) clearing: the round's
/// known-scheduled set, which only ever needs insert / contains / clear.
#[derive(Debug, Clone)]
struct SchedSet {
    row_words: usize,
    bits: Vec<u64>,
    members: Vec<u32>,
}

impl SchedSet {
    fn new(n: usize) -> Self {
        let row_words = n.div_ceil(64);
        Self {
            row_words,
            bits: vec![0; n * row_words],
            members: Vec::new(),
        }
    }

    fn contains(&self, u: usize, v: usize) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.bits[a * self.row_words + b / 64] >> (b % 64) & 1 == 1
    }

    fn insert(&mut self, u: usize, v: usize) {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        debug_assert!(!self.contains(a, b));
        self.bits[a * self.row_words + b / 64] |= 1u64 << (b % 64);
        self.members.push((a as u32) << 16 | b as u32);
    }

    fn clear(&mut self) {
        for &packed in &self.members {
            let (a, b) = ((packed >> 16) as usize, (packed & 0xFFFF) as usize);
            self.bits[a * self.row_words + b / 64] &= !(1u64 << (b % 64));
        }
        self.members.clear();
    }

    fn approx_mem_bytes(&self) -> u64 {
        (self.bits.capacity() * 8 + self.members.capacity() * 4) as u64
    }
}

/// An event-driven execution of a machine on a population under the
/// [`ShuffledRounds`](crate::ShuffledRounds) scheduler.
///
/// Mirrors [`EventSim`](crate::EventSim) — [`advance`] returns the same
/// [`EventStep`], and the shared [`ExactEngine`] driver runs it — with
/// identical output distribution to
/// [`Simulation`](crate::Simulation) under `ShuffledRounds` (see the
/// exactness argument in `src/round.rs`), plus round-level
/// bookkeeping: the [`RoundEngine`] accessors
/// ([`rounds_completed`](RoundEngine::rounds_completed),
/// [`round_of`](RoundEngine::round_of),
/// [`last_output_change_round`](RoundEngine::last_output_change_round))
/// measure parallel time in rounds of `n(n−1)/2` draws.
///
/// [`advance`]: Self::advance
///
/// # Example
///
/// ```
/// use netcon_core::{ExactEngine, Link, ProtocolBuilder, RoundEngine, RoundSim};
/// use netcon_graph::properties::is_maximum_matching;
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?.compile();
///
/// let mut sim = RoundSim::new(protocol, 30, 1);
/// let outcome = sim.run_until(|p| is_maximum_matching(p.edges()), 1_000_000);
/// assert!(outcome.stabilized());
/// // Every pair occurs once per round, so the matching completes in
/// // round 1: any two still-unmatched nodes would have matched when
/// // their pair came up.
/// assert_eq!(sim.last_output_change_round(), 1);
/// assert!(sim.is_quiescent());
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoundSim<M: EnumerableMachine> {
    /// The configuration and its exact effective set `E`.
    core: DenseCore<M>,
    rng: SmallRng,
    book: Bookkeeping,
    faults: Option<FaultState>,
    /// `A`: effective and not yet scheduled this round.
    cand: PairSet,
    /// `B`: resolved, currently ineffective, not yet scheduled.
    ineff_rem: PairSet,
    /// `D`: resolved and scheduled this round.
    sched: SchedSet,
    /// Members of the anonymous pool `U` (resolved-nothing pairs).
    u_count: u64,
    /// Unscheduled members of `U`.
    u_rem: u64,
    /// Pairs per round, `n(n−1)/2`.
    m: u64,
    /// Scratch copies of the two touched effective-set rows (before an
    /// interaction or a repair), diffed against the updated rows to find
    /// reclassification work.
    old_row_u: Vec<u64>,
    old_row_v: Vec<u64>,
}

impl<M: EnumerableMachine> RoundSim<M> {
    /// Creates an event-driven ShuffledRounds simulation of `machine` on
    /// `n` nodes in the initial configuration, reproducible from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 65535` (dense pair ids are `u16`).
    ///
    /// # Example
    ///
    /// ```
    /// use netcon_core::{ExactEngine, Link, ProtocolBuilder, RoundEngine, RoundSim};
    /// let mut b = ProtocolBuilder::new("pairing");
    /// let a = b.state("a");
    /// let p = b.state("b");
    /// b.rule((a, a, Link::Off), (p, p, Link::On));
    /// let sim = RoundSim::new(b.build()?.compile(), 16, 7);
    /// assert_eq!(sim.steps(), 0);
    /// assert_eq!(sim.pairs_per_round(), 16 * 15 / 2);
    /// # Ok::<(), netcon_core::ProtocolError>(())
    /// ```
    #[must_use]
    pub fn new(machine: M, n: usize, seed: u64) -> Self {
        let pop = Population::new(n, machine.initial_state());
        Self::from_population(machine, pop, seed)
    }

    /// Creates an event-driven ShuffledRounds simulation from an explicit
    /// configuration (one word-parallel effectiveness pass,
    /// `O(n²·|Q|/64)`; the first round's candidate set is a copy of the
    /// effective set).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    #[must_use]
    pub fn from_population(machine: M, pop: Population<M::State>, seed: u64) -> Self {
        Self::from_core(DenseCore::new(machine, pop), seed)
    }

    fn from_core(core: DenseCore<M>, seed: u64) -> Self {
        let n = core.pop().n();
        let m = (n as u64) * (n as u64 - 1) / 2;
        let row_words = n.div_ceil(64);
        // Round one starts with every pair unscheduled: the candidates are
        // the effective set itself, and the anonymous pool its complement.
        let u_count = m - core.pairs().len() as u64;
        Self {
            cand: core.pairs().clone(),
            core,
            rng: SmallRng::seed_from_u64(seed),
            book: Bookkeeping::default(),
            faults: None,
            ineff_rem: PairSet::new(n),
            sched: SchedSet::new(n),
            u_count,
            u_rem: u_count,
            m,
            old_row_u: vec![0; row_words],
            old_row_v: vec![0; row_words],
        }
    }

    /// Creates a faulted ShuffledRounds simulation: `n` live nodes plus
    /// one *ghost* slot per planned arrival, sharing the fault semantics
    /// of [`Simulation::new_faulted`](crate::Simulation::new_faulted).
    /// The round length is fixed at `capacity·(capacity−1)/2`: ghost
    /// pairs stay in the anonymous ineffective pool, so every skip law
    /// and the round-denominated statistics match the naive
    /// ShuffledRounds loop under the identical [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new) (with the capacity in place of `n`).
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

    /// The number of currently effective pairs (scheduled or not).
    #[must_use]
    pub fn effective_pairs(&self) -> usize {
        self.core.pairs().len()
    }

    /// The incrementally maintained effective pair set (scheduled or
    /// not) — what each round's candidate set starts from; for the
    /// brute-force checks of the equivalence suite.
    #[doc(hidden)]
    #[must_use]
    pub fn effective_set(&self) -> &PairSet {
        self.core.pairs()
    }

    /// Whether the round partition accounts for every unscheduled pair:
    /// `|A| + |B| + u_rem = m − steps mod m` (candidates, resolved
    /// ineffective, anonymous pool). Interactions and fault events must
    /// all preserve this; the mutation-bookkeeping proptests check it
    /// after every fault.
    #[must_use]
    pub fn pool_invariant_holds(&self) -> bool {
        self.cand.len() as u64 + self.ineff_rem.len() as u64 + self.u_rem
            == self.m - self.book.steps % self.m
    }

    /// Bytes of heap memory held by the engine: the effective set, its
    /// index, the dense edge set and the node states, plus the two
    /// round-bookkeeping pair sets and the scheduled bitset. Heap
    /// payloads *inside* composite states are not counted.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        self.core.approx_mem_bytes()
            + self.cand.approx_mem_bytes()
            + self.ineff_rem.approx_mem_bytes()
            + self.sched.approx_mem_bytes()
            + ((self.old_row_u.capacity() + self.old_row_v.capacity()) * 8) as u64
    }

    /// A priori estimate of [`approx_mem_bytes`](Self::approx_mem_bytes)
    /// for a fresh engine on `n` nodes — what
    /// [`Engine::auto_for`](crate::Engine::auto_for) weighs against its
    /// memory budget. Three dense pair sets (`4n²` position matrix plus
    /// `n²/8` bitset each), the scheduled bitset (`n²/8`), and the edge
    /// set (`n²/8`): ≈ 3× the [`EventSim`](crate::EventSim) estimate.
    #[must_use]
    pub fn dense_mem_estimate(n: usize) -> u64 {
        let n = n as u64;
        3 * (4 * n * n + n * n / 8) + n * n / 8 + n * n / 8 + 32 * n
    }

    /// Whether no pair of nodes has any effective interaction — O(1):
    /// the incrementally-maintained effective set is empty. Quiescence is
    /// scheduler-independent, so this is the same predicate as
    /// [`EventSim::is_quiescent`](crate::EventSim::is_quiescent).
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.quiescent()
    }

    /// Reclassifies pair `{a, w}` after its effectiveness flipped to
    /// `now_eff`. Scheduled pairs are frozen until the round resets;
    /// anonymous-pool pairs are resolved by the urn draw.
    fn reclass_pair(&mut self, a: usize, w: usize, now_eff: bool) {
        if self.sched.contains(a, w) {
            return;
        }
        if now_eff {
            if self.ineff_rem.contains(a, w) {
                self.ineff_rem.set(a, w, false);
                self.cand.set(a, w, true);
            } else {
                // Fresh out of the anonymous pool: scheduled-or-not is
                // settled now. The scheduled subset of the pool is
                // uniform, so the marginal is u_rem / u_count.
                debug_assert!(self.u_count > 0);
                let unscheduled = self.rng.random_range(0..self.u_count) < self.u_rem;
                self.u_count -= 1;
                if unscheduled {
                    self.u_rem -= 1;
                    self.cand.set(a, w, true);
                } else {
                    self.sched.insert(a, w);
                }
            }
        } else {
            // An unscheduled pair can only lose effectiveness out of the
            // candidate set (effective pairs are never anonymous).
            debug_assert!(self.cand.contains(a, w));
            self.cand.set(a, w, false);
            self.ineff_rem.set(a, w, true);
        }
    }

    /// Walks the XOR diff of node `a`'s effective-set row against its
    /// pre-interaction copy, reclassifying every flipped pair. `skip`
    /// masks out the partner handled by the other row.
    fn reclass_row(&mut self, a: usize, old: &[u64], skip: Option<usize>) {
        for word in 0..old.len() {
            let mut changed = old[word] ^ self.core.pairs().row_bits(a)[word];
            if let Some(s) = skip {
                if s / 64 == word {
                    changed &= !(1u64 << (s % 64));
                }
            }
            while changed != 0 {
                let bit = changed.trailing_zeros() as usize;
                changed &= changed - 1;
                let w = word * 64 + bit;
                let now_eff = self.core.pairs().contains(a, w);
                self.reclass_pair(a, w, now_eff);
            }
        }
    }

    /// Runs `repair`, a core repair that can change only `u`'s effective
    /// row, then reclassifies exactly the pairs it flipped (scheduled
    /// pairs stay frozen, ineff→eff flips resolve against the pool by the
    /// urn draw).
    fn repair_row<R>(&mut self, u: usize, repair: impl FnOnce(&mut DenseCore<M>) -> R) -> R {
        self.old_row_u.copy_from_slice(self.core.pairs().row_bits(u));
        let out = repair(&mut self.core);
        let old = std::mem::take(&mut self.old_row_u);
        self.reclass_row(u, &old, None);
        self.old_row_u = old;
        out
    }

    /// Skips the hypergeometric number of ineffective draws and simulates
    /// the next candidate interaction, without letting the step counter
    /// pass `max_steps` — the same contract as
    /// [`EventSim::advance`](crate::EventSim::advance).
    pub fn advance(&mut self, max_steps: u64) -> EventStep {
        advance_rounds(self, max_steps)
    }
}

impl<M: EnumerableMachine> RoundPrimitives for RoundSim<M> {
    fn round_len(&self) -> u64 {
        self.m
    }

    fn clock(&mut self) -> &mut u64 {
        &mut self.book.steps
    }

    fn avail(&self) -> u64 {
        self.cand.len() as u64
    }

    fn quiescent(&self) -> bool {
        self.core.pairs().is_empty()
    }

    fn u01(&mut self) -> f64 {
        unit_open01(self.rng.next_u64())
    }

    /// Every pair not yet consumed is unscheduled again, so the candidate
    /// set is exactly the effective set and the anonymous pool its
    /// complement, less the `pre_scheduled` pool pairs already consumed
    /// (a quiescent landing, where the effective set is empty).
    fn start_round(&mut self, pre_scheduled: u64) {
        debug_assert_eq!(self.book.steps % self.m, pre_scheduled);
        self.cand.clear();
        self.ineff_rem.clear();
        self.sched.clear();
        for (u, v) in self.core.pairs().iter() {
            self.cand.set(u, v, true);
        }
        self.u_count = self.m - self.core.pairs().len() as u64;
        self.u_rem = self.u_count - pre_scheduled;
    }

    /// Accounts for `t` skipped ineffective draws: splits them between
    /// the resolved ineffective set and the anonymous pool by the
    /// hypergeometric count law, removing the resolved casualties
    /// uniformly (exchangeable) and decrementing the pool's unscheduled
    /// count for the rest.
    fn schedule_skips(&mut self, t: u64) {
        if t == 0 {
            return;
        }
        let b = self.ineff_rem.len() as u64;
        debug_assert!(t <= b + self.u_rem);
        let from_b = if b == 0 {
            0
        } else if t == b + self.u_rem {
            b
        } else {
            hypergeometric_count(self.u01(), b, b + self.u_rem, t)
        };
        for _ in 0..from_b {
            let i = self.rng.random_range(0..self.ineff_rem.len());
            let (u, v) = self.ineff_rem.get(i);
            self.ineff_rem.set(u, v, false);
            self.sched.insert(u, v);
        }
        self.u_rem -= t - from_b;
    }

    /// Draws the candidate uniformly over `cand` (the `k` it holds),
    /// schedules it, and simulates its interaction with real coins.
    fn apply_candidate(&mut self, skipped: u64, _k: u64) -> EventStep {
        let i = self.rng.random_range(0..self.cand.len());
        // PairSet members are stored (min, max) — the node order the
        // naive ShuffledRounds scheduler presents.
        let (u, v) = self.cand.get(i);
        self.cand.set(u, v, false);
        self.sched.insert(u, v);
        // Snapshot the two touched effective-set rows (they change only
        // in the core's rescan), then reclassify exactly the flipped
        // pairs. A randomized rule that samples the identity changes
        // nothing, but the pair has consumed its occurrence this round.
        self.old_row_u.copy_from_slice(self.core.pairs().row_bits(u));
        self.old_row_v.copy_from_slice(self.core.pairs().row_bits(v));
        let result = self.core.interact(u, v, &mut self.rng);
        if let StepResult::Effective { edge_changed, .. } = result {
            self.book.record_effective(edge_changed);
        }
        if self.book.steps.is_multiple_of(self.m) {
            // The candidate was the round's last draw; the next round
            // rebuilds everything from the effective set anyway.
            self.start_round(0);
        } else if matches!(result, StepResult::Effective { .. }) {
            let old_u = std::mem::take(&mut self.old_row_u);
            let old_v = std::mem::take(&mut self.old_row_v);
            self.reclass_row(u, &old_u, None);
            self.reclass_row(v, &old_v, Some(u));
            self.old_row_u = old_u;
            self.old_row_v = old_v;
        }
        EventStep::Candidate { skipped, result }
    }
}

impl<M: EnumerableMachine> Primitives for RoundSim<M> {
    type Machine = M;

    fn advance(&mut self, max_steps: u64) -> EventStep {
        RoundSim::advance(self, max_steps)
    }

    fn book(&self) -> Bookkeeping {
        self.book
    }

    fn idle_to(&mut self, target: u64) {
        idle_rounds_to(self, target);
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

    // Ghost pairs never flip: they stay in the anonymous pool for the
    // rest of the round (they are certainly ineffective, which is all the
    // pool records), so the pool does *not* shrink on a crash —
    // `pool_invariant_holds` is preserved. A crash's flips are all
    // eff→ineff (cand → resolved-ineffective, scheduled pairs frozen);
    // an arrival's are all ineff→eff, resolved against the pool by the
    // urn draw (an arriving pair is exchangeable with any other pool
    // member: it has been ineffective all round).
    fn retire(&mut self, x: usize) -> Vec<usize> {
        self.repair_row(x, |core| core.retire(x))
    }

    fn readmit(&mut self, x: usize) {
        self.repair_row(x, |core| core.readmit(x));
    }

    fn set_state_index(&mut self, u: usize, q: usize) {
        self.repair_row(u, |core| core.set_state_index(u, q));
    }

    fn deactivate_edge(&mut self, u: usize, v: usize) -> bool {
        let flipped = self.core.deactivate_edge(u, v);
        if flipped == Some(true) {
            self.reclass_pair(u, v, self.core.pairs().contains(u, v));
        }
        flipped.is_some()
    }

    fn record_fault_edges(&mut self, k: usize) {
        self.book.record_edge_changes(k);
    }
}

impl<M: EnumerableMachine> ExactEngine for RoundSim<M> {
    type Config = Population<M::State>;

    fn config(&self) -> &Population<M::State> {
        self.core.pop()
    }
}

impl<M: EnumerableMachine> RoundEngine for RoundSim<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::contract::{self, Arm};
    use crate::engine::index_check;
    use crate::RunOutcome;
    use crate::{CompiledTable, Link, ProtocolBuilder, RuleProtocol, ShuffledRounds, Simulation};
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

    /// Match in one round, dissolve each matched edge at its next
    /// occurrence: converges in exactly two rounds under any box
    /// schedule (see the workspace-level regression test).
    fn dissolve_protocol() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("dissolve");
        let a = b.state("a");
        let m = b.state("b");
        let d = b.state("c");
        b.rule((a, a, OFF), (m, m, ON));
        b.rule((m, m, ON), (d, d, OFF));
        b.build().expect("valid")
    }

    #[test]
    fn matching_converges_in_round_one() {
        for seed in 0..20 {
            let mut sim = RoundSim::new(matching_protocol().compile(), 20, seed);
            let out = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 10_000);
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            // Every (a, a) pair occurs within round 1, so no two nodes
            // can both survive it unmatched.
            assert!(sim.steps() <= sim.pairs_per_round(), "seed {seed}");
            assert_eq!(sim.last_output_change_round(), 1, "seed {seed}");
            assert_eq!(sim.effective_steps(), 10);
            assert!(sim.is_quiescent());
        }
    }

    #[test]
    fn dissolve_takes_exactly_two_rounds() {
        // n even: round 1 matches everyone (any two unmatched nodes
        // would have matched when their pair came up), and each matched
        // pair recurs exactly once in round 2, where it dissolves. The
        // convergence round is therefore deterministically 2.
        let p = dissolve_protocol();
        let d = p.state("c").expect("dissolved state exists");
        for seed in 0..20 {
            let mut sim = RoundSim::new(p.compile(), 12, 100 + seed);
            let out = sim.run_until_edges(
                |q| q.count_where(|s| *s == d) == q.n() && q.edges().active_count() == 0,
                200_000,
            );
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            let converged = out.converged_at().expect("stabilized");
            assert_eq!(sim.round_of(converged), 2, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = RoundSim::new(matching_protocol().compile(), 16, seed);
            let out = sim.run_until_edges(|p| is_maximum_matching(p.edges()), 100_000);
            (out, sim.steps(), sim.edge_events(), sim.rounds_completed())
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).0.stabilized());
    }

    #[test]
    fn many_state_candidates_match_brute_force_recomputation() {
        // 100 states: the rescan shared with `EventSim` reads four-word
        // effect rows; after every candidate the effective set must equal
        // a from-scratch `can_affect` pass over all pairs.
        let (p, pop) = index_check::many_states();
        let mut sim = RoundSim::from_population(p, pop, 42);
        index_check::assert_exact(&sim.core);
        for _ in 0..200 {
            if sim.advance(u64::MAX) == EventStep::Quiescent {
                break;
            }
            index_check::assert_exact(&sim.core);
        }
        assert!(sim.effective_steps() > 0);
    }

    #[test]
    fn budget_is_respected_exactly_and_resumes() {
        // Budget exactness is the shared driver contract; here a stop
        // mid-round (a round is 1225 draws) resumes into a completing run.
        let mut sim = RoundSim::new(matching_protocol().compile(), 50, 3);
        sim.run_to(1_000);
        assert!(sim.pool_invariant_holds());
        let out = sim.run_until_edges(|p| is_maximum_matching(p.edges()), u64::MAX);
        assert!(out.stabilized());
    }

    // This engine's row of the shared driver-contract table; the
    // whole table, naive reference included, runs in `driver::tests`.
    #[test]
    fn quiescent_unstable_returns_budget_immediately() {
        contract::quiescent_unstable_returns_budget(Arm::Round);
    }

    #[test]
    fn quiescence_after_convergence_jumps_to_target() {
        // The jump is the shared driver contract; the round partition must
        // survive it, landing mid-round.
        let mut sim = RoundSim::new(matching_protocol().compile(), 10, 5);
        sim.run_until_edges(|p| is_maximum_matching(p.edges()), u64::MAX);
        sim.run_to(sim.steps() + 1_000_007);
        assert!(sim.pool_invariant_holds());
    }

    #[test]
    fn round_bookkeeping_is_consistent() {
        let mut sim = RoundSim::new(dissolve_protocol().compile(), 10, 77);
        let m = sim.pairs_per_round();
        assert_eq!(m, 45);
        sim.run_to(3 * m + 7);
        assert_eq!(sim.rounds_completed(), 3);
        assert_eq!(sim.round_of(0), 0);
        assert_eq!(sim.round_of(1), 1);
        assert_eq!(sim.round_of(m), 1);
        assert_eq!(sim.round_of(m + 1), 2);
        assert!(sim.last_output_change_round() <= sim.round_of(sim.steps()));
    }

    #[test]
    fn tracks_naive_shuffled_engine_on_average() {
        // Cheap smoke check of the exactness argument (the full paired
        // statistical tests live in the workspace-level suite). The
        // matching time concentrates inside round 1, so compare mean
        // converged_at between RoundSim and the naive ShuffledRounds
        // loop.
        let trials = 60;
        let mean = |round: bool| -> f64 {
            (0..trials)
                .map(|seed| {
                    let stable =
                        |p: &Population<crate::StateId>| is_maximum_matching(p.edges());
                    let out = if round {
                        RoundSim::new(matching_protocol().compile(), 12, 1000 + seed)
                            .run_until_edges(stable, u64::MAX)
                    } else {
                        Simulation::with_scheduler(
                            matching_protocol(),
                            12,
                            2000 + seed,
                            ShuffledRounds::new(),
                        )
                        .run_until_edges(stable, u64::MAX)
                    };
                    out.converged_at().expect("stabilizes") as f64
                })
                .sum::<f64>()
                / f64::from(trials as u32)
        };
        let (r, n) = (mean(true), mean(false));
        assert!(
            (r - n).abs() / n < 0.35,
            "round {r:.1} vs naive-shuffled {n:.1} means too far apart"
        );
    }

    #[test]
    fn randomized_identity_candidates_count_as_real_steps() {
        // (a, b, 0) → ½ identity, ½ swap: candidates may resolve
        // ineffective; each consumes its occurrence in the round.
        let mut b = ProtocolBuilder::new("lazy-swap");
        let a = b.state("a");
        let c = b.state("b");
        b.initial(a);
        b.rule_random((a, c, OFF), [(1, (a, c, OFF)), (1, (c, a, OFF))]);
        let p = b.build().expect("valid");
        let mut pop = Population::new(4, a);
        pop.set_state(0, c);
        let mut sim = RoundSim::from_population(p.compile(), pop, 11);
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
    fn initial_configuration_can_be_stable() {
        let mut sim = RoundSim::new(matching_protocol().compile(), 6, 2);
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
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = RoundSim::new(matching_protocol().compile(), 1, 0);
    }

    #[test]
    fn pool_invariant_survives_fault_events() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(4)
            .at(10, FaultEvent::CrashRandom)
            .at(25, FaultEvent::Arrive)
            .at(40, FaultEvent::DeleteRandomActiveEdges(1));
        let mut sim = RoundSim::new_faulted(dissolve_protocol().compile(), 10, 17, plan);
        assert!(sim.pool_invariant_holds());
        for target in [10, 25, 40, 70, 200] {
            sim.run_faulted_to(target);
            assert!(sim.pool_invariant_holds(), "after step {target}");
        }
        let fs = sim.fault_state().expect("faulted");
        assert_eq!(fs.alive_count(), 10);
        assert_eq!(fs.capacity(), 11);
    }

    #[test]
    fn faulted_matching_still_completes_in_round_one() {
        // A crash at t = 0 leaves 8 live `a` nodes (plus one ghost):
        // every live (a, a) pair still occurs within round 1, so the
        // matching among the living is maximal by the round's end.
        for seed in 0..10 {
            use crate::fault::{FaultEvent, FaultPlan};
            let plan = FaultPlan::new(seed).at(0, FaultEvent::CrashRandom);
            let mut sim = RoundSim::new_faulted(matching_protocol().compile(), 9, 300 + seed, plan);
            let out = sim.run_faulted_until(|p, _| p.edges().active_count() == 4, 1_000_000);
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            assert_eq!(sim.last_output_change_round(), 1, "seed {seed}");
            assert!(sim.pool_invariant_holds());
        }
    }

    #[test]
    fn mem_estimate_tracks_measured() {
        let sim = RoundSim::new(matching_protocol().compile(), 128, 0);
        let measured = sim.approx_mem_bytes();
        let estimate = RoundSim::<CompiledTable>::dense_mem_estimate(128);
        assert!(
            measured <= estimate * 2 && estimate <= measured * 2,
            "estimate {estimate} vs measured {measured}"
        );
    }
}
