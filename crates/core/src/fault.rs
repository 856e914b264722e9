//! Fault injection and churn: deterministic, seed-derived plans of node
//! crashes, node arrivals, and adversarial edge deletions, applied at
//! draw-indexed times on any of the four engines.
//!
//! # The ghost-node model
//!
//! The engines' exactness arguments all lean on a *fixed* draw space:
//! the geometric skip law divides by `m = n(n−1)/2`, and a shuffled
//! round is exactly `m` draws. Growing or shrinking `n` mid-run would
//! change the denominator of every in-flight skip. The fault layer
//! therefore keeps the draw space fixed at a *capacity* of
//! `n + (number of planned arrivals)` nodes and models churn as
//! **presence**: a crashed node (and a node that has not arrived yet)
//! remains in the draw space as an inert *ghost* — any pair involving
//! it is certainly ineffective, its edges are all inactive, and it
//! never re-enters any rule. A scheduler draw that selects a ghost is
//! an ordinary ineffective step.
//!
//! This is distribution-identical to a model that truly removes nodes,
//! up to a deterministic time dilation: with `a` of `capacity` nodes
//! alive, each draw hits an alive–alive pair with probability
//! `a(a−1)/(capacity(capacity−1))`, so per-draw statistics are the
//! removal model's slowed by that constant factor — and *identically
//! so on all four engines*, which is what the equivalence tests
//! exercise. In exchange, fault application is pure candidate-set
//! reclassification (no engine ever resizes its draw space), and
//! stop/resume across a fault boundary stays coin-for-coin exact.
//!
//! # Determinism
//!
//! Each plan event resolves its randomness (which node `CrashRandom`
//! kills, which active edges `DeleteRandomActiveEdges` cuts) from a
//! *private* RNG seeded by [`seeds::derive2`]`(plan_seed, event_index,
//! event_time)` — never from the engine's scheduler RNG. Consequences:
//!
//! - the alive-set evolution is a pure function of the plan (crash
//!   targets do not depend on the run), so the *same* node crashes at
//!   the *same* draw index on every engine — the basis of the
//!   exact-agreement fault regressions;
//! - interrupting a run at a fault boundary and resuming consumes the
//!   identical coin stream as an uninterrupted run;
//! - only `DeleteRandomActiveEdges` inspects run state (the current
//!   active-edge set), so it is distribution-exact rather than
//!   trajectory-exact across engines.

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::seeds;

pub mod adversary;

use adversary::{AdversaryPlan, DecisionScratch, LiveConfig};

/// A single scheduled fault/churn event of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash a uniformly random alive node (no-op if none are alive).
    /// The victim is chosen by the plan's private RNG, so it is the
    /// same node on every engine running the same plan.
    CrashRandom,
    /// Crash a specific node (no-op if it is already crashed, has not
    /// arrived yet, or is out of range).
    Crash(u32),
    /// A fresh node in the machine's initial state joins the
    /// population. Arriving nodes occupy the pre-sized ghost slots
    /// `base_n..capacity` in plan order.
    Arrive,
    /// Adversarially deactivate one specific edge (no-op if the edge
    /// is inactive or an endpoint is invalid).
    DeleteEdge(u32, u32),
    /// Deactivate up to `count` uniformly random currently-active
    /// edges, sampled without replacement by the plan's private RNG.
    DeleteRandomActiveEdges(u32),
}

/// A deterministic schedule of fault events at draw-indexed times.
///
/// An event at time `t` is applied as soon as the engine's step
/// counter reaches `t` — i.e. after draw `t` and before draw `t + 1`
/// (events at `t = 0` apply before any draw). Events sharing a time
/// apply in insertion order. All per-event randomness derives from
/// `seeds::derive2(seed, event_index, time)`; see the
/// [module docs](self) for why that matters.
///
/// # Example
///
/// ```
/// use netcon_core::{FaultEvent, FaultPlan};
///
/// let plan = FaultPlan::new(42)
///     .at(1_000, FaultEvent::CrashRandom)
///     .at(1_000, FaultEvent::Arrive)
///     .at(5_000, FaultEvent::DeleteRandomActiveEdges(3));
/// assert_eq!(plan.len(), 3);
/// assert_eq!(plan.arrival_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// `(time, event)`, sorted by time, stable under insertion order.
    events: Vec<(u64, FaultEvent)>,
    /// Optional configuration-adaptive adversary riding the plan.
    adversary: Option<AdversaryPlan>,
    /// Optional alive-count floor enforced at resolution time: crash
    /// events (scheduled or adversarial) that would breach it no-op.
    min_alive: Option<usize>,
}

impl FaultPlan {
    /// Creates an empty plan whose per-event randomness derives from
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
            adversary: None,
            min_alive: None,
        }
    }

    /// Schedules `event` at draw index `at` (builder style). Keeps the
    /// schedule sorted by time; events at equal times keep insertion
    /// order.
    #[must_use]
    pub fn at(mut self, at: u64, event: FaultEvent) -> Self {
        let i = self.events.partition_point(|&(t, _)| t <= at);
        self.events.insert(i, (at, event));
        self
    }

    /// Builds a plan from an explicit `(time, event)` list in one shot.
    /// The list is stably sorted by time, so events handed in at equal
    /// times keep their relative order — a misordered input can never
    /// produce an out-of-order schedule (which would silently skew
    /// paired-statistics comparisons across engines).
    #[must_use]
    pub fn from_events(seed: u64, mut events: Vec<(u64, FaultEvent)>) -> Self {
        events.sort_by_key(|&(t, _)| t);
        Self {
            seed,
            events,
            adversary: None,
            min_alive: None,
        }
    }

    /// Attaches a configuration-adaptive [`AdversaryPlan`]: every
    /// faulted engine pauses at its decision draws, resolves the
    /// policies against its live configuration in place (no copy of it
    /// is taken), and applies their damage through the ordinary
    /// resolved-fault path (builder style). See [`adversary`] for the
    /// exactness argument and for why the policies never see an
    /// engine's internal order.
    #[must_use]
    pub fn with_adversary(mut self, adv: AdversaryPlan) -> Self {
        self.adversary = Some(adv);
        self
    }

    /// The attached adversary, if any.
    #[must_use]
    pub fn adversary(&self) -> Option<&AdversaryPlan> {
        self.adversary.as_ref()
    }

    /// Sets a plan-wide alive-count floor (builder style): any crash —
    /// a scheduled [`FaultEvent::CrashRandom`]/[`FaultEvent::Crash`]
    /// *or* an adversarial one — that would take the alive count to or
    /// below `floor` resolves to a no-op. [`ChurnPlan::min_alive`]
    /// sets this automatically on its compiled plans, so a churn
    /// stream's floor survives composition with an adversary (whose
    /// extra crashes the stream generator could not anticipate).
    #[must_use]
    pub fn with_min_alive(mut self, floor: usize) -> Self {
        self.min_alive = Some(floor);
        self
    }

    /// The plan-wide alive-count floor, if set.
    #[must_use]
    pub fn min_alive(&self) -> Option<usize> {
        self.min_alive
    }

    /// Every draw index at which this plan can act: scheduled event
    /// times merged with the adversary's decision times, sorted and
    /// deduplicated — the window boundaries an availability analysis
    /// segments a run at.
    #[must_use]
    pub fn boundary_times(&self) -> Vec<u64> {
        let mut times: Vec<u64> = self.events.iter().map(|&(t, _)| t).collect();
        if let Some(adv) = &self.adversary {
            times.extend(adv.decision_times());
        }
        times.sort_unstable();
        times.dedup();
        times
    }

    /// The scheduled `(time, event)` pairs, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// The number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The number of [`FaultEvent::Arrive`] events — the extra ghost
    /// slots a faulted engine pre-sizes its draw space with.
    #[must_use]
    pub fn arrival_count(&self) -> usize {
        self.events
            .iter()
            .filter(|(_, e)| matches!(e, FaultEvent::Arrive))
            .count()
    }

    /// The plan's base seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The private RNG of event `i` — independent of every engine RNG
    /// and of every other event.
    fn event_rng(&self, i: usize) -> SmallRng {
        SmallRng::seed_from_u64(seeds::derive2(self.seed, i as u64, self.events[i].0))
    }
}

/// A continuous-churn generator: a merged Poisson stream of node
/// arrivals and departures, compiled into a draw-indexed [`FaultPlan`].
///
/// Inter-event gaps are exponential with rate `arrival_rate +
/// departure_rate` (events per scheduler draw); each event is then
/// *thinned* into an arrival or a departure proportionally to its rate
/// — the standard superposition construction, so arrivals and
/// departures are themselves independent Poisson streams. Event times
/// accumulate in continuous time and are discretized to draw indices,
/// so several events may share a draw (they apply in stream order).
///
/// Because the compiled plan is an ordinary [`FaultPlan`], all four
/// engines execute the churn through the existing ghost-node machinery:
/// the draw space is pre-sized to `base_n + arrivals` and no skip-law
/// denominator ever moves, so sustained churn inherits every exactness
/// guarantee of one-shot bursts (see the [module docs](self)).
///
/// The optional `min_alive` floor models a steady-state population:
/// departures the floor would forbid are *dropped from the stream*
/// (arrivals are never dropped). The generator can track the alive
/// count exactly without running anything, because every emitted
/// departure is a [`FaultEvent::CrashRandom`] scheduled while the
/// count is above the floor — it always finds a victim.
///
/// # Example
///
/// ```
/// use netcon_core::ChurnPlan;
///
/// let plan = ChurnPlan::new(42)
///     .arrival_rate(1e-3)
///     .departure_rate(1e-3)
///     .min_alive(8)
///     .horizon(100_000)
///     .compile(20);
/// assert!(plan.events().iter().all(|&(t, _)| t < 100_000));
/// assert_eq!(plan.min_alive(), Some(8)); // the floor rides the plan
/// // Same knobs + seed ⇒ the identical plan, on every engine.
/// ```
///
/// A positive rate with the default horizon of 0 is a hard error —
/// [`compile`](Self::compile) panics rather than silently emitting an
/// empty plan:
///
/// ```should_panic
/// use netcon_core::ChurnPlan;
///
/// // Forgot `.horizon(...)`: this panics instead of compiling to
/// // a no-op stream.
/// let _ = ChurnPlan::new(42).arrival_rate(0.5).compile(8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    seed: u64,
    arrival_rate: f64,
    departure_rate: f64,
    horizon: u64,
    min_alive: Option<usize>,
}

impl ChurnPlan {
    /// Creates a churn generator with zero rates and an empty horizon;
    /// `seed` drives both the stream and the compiled plan's per-event
    /// randomness.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            arrival_rate: 0.0,
            departure_rate: 0.0,
            horizon: 0,
            min_alive: None,
        }
    }

    /// Sets the expected number of node arrivals per scheduler draw.
    #[must_use]
    pub fn arrival_rate(mut self, per_draw: f64) -> Self {
        self.arrival_rate = per_draw;
        self
    }

    /// Sets the expected number of node departures (crashes of a
    /// uniformly random alive node) per scheduler draw.
    #[must_use]
    pub fn departure_rate(mut self, per_draw: f64) -> Self {
        self.departure_rate = per_draw;
        self
    }

    /// Sets the stream horizon: events are generated for draw indices
    /// `0..draws` (a bounded horizon is what lets the compiled plan
    /// know its arrival count — and hence the draw-space capacity — up
    /// front).
    #[must_use]
    pub fn horizon(mut self, draws: u64) -> Self {
        self.horizon = draws;
        self
    }

    /// Sets the steady-state alive-count floor: departures that would
    /// take the population below `floor` are dropped from the stream.
    #[must_use]
    pub fn min_alive(mut self, floor: usize) -> Self {
        self.min_alive = Some(floor);
        self
    }

    /// The same rate knobs under a different seed — how sweeps derive
    /// an independent churn stream per trial.
    #[must_use]
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Compiles the stream into a draw-indexed [`FaultPlan`] for a
    /// population of `base_n` initially-present nodes. Deterministic in
    /// `(knobs, seed, base_n)` — every engine replaying the result sees
    /// the same nodes churn at the same draws.
    ///
    /// # Panics
    ///
    /// Panics if either rate is negative or non-finite, or if a rate
    /// is positive while the horizon is 0 — a positive-rate stream
    /// with no horizon would silently compile to an empty plan (the
    /// default horizon is 0, so this is an easy knob to forget).
    #[must_use]
    pub fn compile(&self, base_n: usize) -> FaultPlan {
        assert!(
            self.arrival_rate.is_finite() && self.arrival_rate >= 0.0,
            "arrival rate must be finite and non-negative"
        );
        assert!(
            self.departure_rate.is_finite() && self.departure_rate >= 0.0,
            "departure rate must be finite and non-negative"
        );
        let total = self.arrival_rate + self.departure_rate;
        assert!(
            total == 0.0 || self.horizon > 0,
            "positive churn rate with a zero horizon: set `.horizon(draws)` \
             (a bounded horizon is what sizes the draw-space capacity)"
        );
        let mut events = Vec::new();
        if total > 0.0 {
            let mut rng = SmallRng::seed_from_u64(self.seed);
            let floor = self.min_alive.unwrap_or(0);
            let mut alive = base_n;
            let mut t = 0.0_f64;
            loop {
                t += -unit_open01(&mut rng).ln() / total;
                // `t` is monotone (each gap is a finite positive f64),
                // so the first overshoot ends the stream.
                if t >= self.horizon as f64 {
                    break;
                }
                if unit_open01(&mut rng) * total <= self.arrival_rate {
                    events.push((t as u64, FaultEvent::Arrive));
                    alive += 1;
                } else if alive > floor {
                    events.push((t as u64, FaultEvent::CrashRandom));
                    alive -= 1;
                }
            }
        }
        let mut plan = FaultPlan::from_events(self.seed, events);
        plan.min_alive = self.min_alive;
        plan
    }
}

/// A uniform draw from the half-open interval (0, 1] — strictly
/// positive, so its logarithm is finite (the exponential-gap draw).
fn unit_open01(rng: &mut SmallRng) -> f64 {
    (((rng.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// A plan event with its randomness resolved against the current alive
/// set — what an engine actually has to apply.
#[derive(Debug)]
pub(crate) enum ResolvedFault {
    /// The event resolved to nothing (dead crash target, empty alive
    /// set, invalid edge endpoints).
    Noop,
    /// Node `x` crashed: the engine must deactivate its incident
    /// active edges and retire every pair involving it from its
    /// candidate structures. The alive flag is already cleared.
    Crash(usize),
    /// Node `x` arrived (it holds the initial state and no edges): the
    /// engine must admit its pairs back into its candidate structures.
    /// The alive flag is already set.
    Arrive(usize),
    /// Deactivate edge `{u, v}` if currently active.
    DeleteEdge(usize, usize),
    /// Deactivate `count` active edges sampled without replacement by
    /// `rng` from the canonically-ordered active-edge list.
    DeleteRandomEdges {
        /// How many edges to delete (capped by the active count).
        count: usize,
        /// The event's private RNG, for the without-replacement draw.
        rng: SmallRng,
    },
}

/// The live fault bookkeeping a faulted engine carries: the plan, how
/// far into it the run is, and the presence (alive) flags of the
/// fixed-capacity draw space.
///
/// Because event resolution never touches engine state (see the
/// [module docs](self)), a `FaultState` can also be replayed *without*
/// an engine — [`FaultState::project_final`] — to learn the final
/// alive count for sizing predicates.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Events applied so far (a prefix of `plan.events`).
    applied: usize,
    /// Presence flag per draw-space slot.
    alive: Vec<bool>,
    alive_count: usize,
    /// Next ghost slot an `Arrive` event will occupy.
    next_arrival: usize,
    base_n: usize,
    /// Adversary decisions taken so far (indexes the cadence).
    decided: u32,
    /// Adversary damage budget spent so far.
    adv_spent: u64,
    /// The working buffers of adversary decisions, reused across them.
    scratch: DecisionScratch,
}

/// What kind of fault is due at the current draw — how an engine
/// decides between resolving a scheduled plan event (no engine input
/// needed) and an adversary decision (reads the live configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DueFault {
    /// The next scheduled plan event is due.
    Event,
    /// An adversary decision draw is due.
    Decision,
}

impl FaultState {
    /// Creates the fault bookkeeping for a plan over a population of
    /// `base_n` initially-present nodes. The draw-space capacity is
    /// `base_n + plan.arrival_count()`; slots `base_n..capacity` start
    /// as not-yet-arrived ghosts.
    #[must_use]
    pub fn new(plan: FaultPlan, base_n: usize) -> Self {
        debug_assert!(
            plan.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "fault plan times must be non-decreasing (build plans via \
             `at` or `from_events`, which keep the schedule sorted)"
        );
        let capacity = base_n + plan.arrival_count();
        let mut alive = vec![true; capacity];
        alive[base_n..].fill(false);
        Self {
            plan,
            applied: 0,
            alive,
            alive_count: base_n,
            next_arrival: base_n,
            base_n,
            decided: 0,
            adv_spent: 0,
            scratch: DecisionScratch::default(),
        }
    }

    /// The fixed draw-space size every faulted engine runs at:
    /// `base_n + arrivals`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.alive.len()
    }

    /// The initially-present population size.
    #[must_use]
    pub fn base_n(&self) -> usize {
        self.base_n
    }

    /// The number of currently alive (present) nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Whether node `u` is currently alive: arrived and not crashed.
    #[must_use]
    pub fn is_alive(&self, u: usize) -> bool {
        self.alive[u]
    }

    /// The plan driving this state.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many plan events have been applied.
    #[must_use]
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// The draw index at which this state next has to act: the
    /// earlier of the next unapplied plan event and the next pending
    /// adversary decision, if either exists. Engines pause their skip
    /// machinery at exactly these times, so adversary decisions
    /// inherit the plan events' stop/resume exactness for free.
    #[must_use]
    pub fn next_at(&self) -> Option<u64> {
        match (self.next_event_at(), self.next_decision_at()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The scheduled time of the next unapplied plan event, if any.
    fn next_event_at(&self) -> Option<u64> {
        self.plan.events.get(self.applied).map(|&(t, _)| t)
    }

    /// The time of the next pending adversary decision: `None` once
    /// the cadence is exhausted or the damage budget is spent (spent
    /// budgets *cancel* remaining decisions, so a budget-capped
    /// adversary never blocks endgame optimizations forever).
    fn next_decision_at(&self) -> Option<u64> {
        let adv = self.plan.adversary.as_ref()?;
        if adv.budget_limit().is_some_and(|b| self.adv_spent >= b) {
            return None;
        }
        adv.cadence().decision_time(self.decided)
    }

    /// Adversary decisions taken so far.
    #[must_use]
    pub fn decisions_taken(&self) -> u32 {
        self.decided
    }

    /// Adversary damage budget spent so far (1 per crash or edge
    /// deletion).
    #[must_use]
    pub fn adversary_spent(&self) -> u64 {
        self.adv_spent
    }

    /// What is due at draw `now`, if anything. Plan events win ties:
    /// an adversary deciding at the same draw as a churn event reacts
    /// to it rather than racing it (and the choice is the same on
    /// every engine, which is all exactness needs).
    pub(crate) fn due_fault(&self, now: u64) -> Option<DueFault> {
        let ev = self.next_event_at().filter(|&t| t <= now);
        let dec = self.next_decision_at().filter(|&t| t <= now);
        match (ev, dec) {
            (Some(te), Some(td)) if td < te => Some(DueFault::Decision),
            (Some(_), _) => Some(DueFault::Event),
            (None, Some(_)) => Some(DueFault::Decision),
            (None, None) => None,
        }
    }

    /// Resolves the pending adversary decision against `cfg`, the live
    /// configuration: [`take_scratch`](Self::take_scratch),
    /// [`decide`](Self::decide) and
    /// [`commit_decision`](Self::commit_decision) in one call, for a
    /// caller whose configuration does not borrow this state's owner.
    pub(crate) fn resolve_due_decision(&mut self, cfg: &impl LiveConfig) -> Vec<ResolvedFault> {
        let mut scratch = self.take_scratch();
        let (damage, spent) = self.decide(cfg, &mut scratch);
        self.commit_decision(&damage, spent, scratch);
        damage
    }

    /// Takes the decision scratch out, so that [`decide`](Self::decide)
    /// can write it while its configuration borrows the engine that owns
    /// this state. [`commit_decision`](Self::commit_decision) puts it
    /// back.
    pub(crate) fn take_scratch(&mut self) -> DecisionScratch {
        std::mem::take(&mut self.scratch)
    }

    /// Runs the pending decision's policies against `cfg`, the live
    /// configuration, and returns the damage in application order plus
    /// the budget it spends. Changes nothing here: the decision lands
    /// with [`commit_decision`](Self::commit_decision).
    pub(crate) fn decide(
        &self,
        cfg: &impl LiveConfig,
        scratch: &mut DecisionScratch,
    ) -> (Vec<ResolvedFault>, u64) {
        let adv = self.plan.adversary.as_ref().expect("decisions come from an adversary");
        let budget_left = adv
            .budget_limit()
            .map_or(u64::MAX, |b| b.saturating_sub(self.adv_spent));
        adversary::resolve_decision(
            adv,
            cfg,
            &self.alive,
            self.alive_count,
            self.plan.min_alive,
            budget_left,
            scratch,
        )
    }

    /// Lands a decision [`decide`](Self::decide) returned: flips the
    /// alive flags of its crashes, adds its spent budget, returns the
    /// scratch, and consumes exactly one decision index even when every
    /// policy no-ops.
    pub(crate) fn commit_decision(
        &mut self,
        damage: &[ResolvedFault],
        spent: u64,
        scratch: DecisionScratch,
    ) {
        for fault in damage {
            if let ResolvedFault::Crash(x) = *fault {
                self.alive[x] = false;
                self.alive_count -= 1;
            }
        }
        self.adv_spent += spent;
        self.decided += 1;
        self.scratch = scratch;
    }

    /// Resolves the next unapplied event: draws its private randomness,
    /// updates the alive flags, and returns what the engine must do.
    /// `None` when the plan is exhausted.
    pub(crate) fn resolve_next(&mut self) -> Option<ResolvedFault> {
        let i = self.applied;
        let &(_, event) = self.plan.events.get(i)?;
        self.applied += 1;
        let floor_blocked = self.plan.min_alive.is_some_and(|f| self.alive_count <= f);
        Some(match event {
            FaultEvent::CrashRandom => {
                if self.alive_count == 0 || floor_blocked {
                    ResolvedFault::Noop
                } else {
                    let mut rng = self.plan.event_rng(i);
                    let k = rng.random_range(0..self.alive_count);
                    let x = self
                        .alive
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a)
                        .nth(k)
                        .map(|(u, _)| u)
                        .expect("k < alive_count");
                    self.alive[x] = false;
                    self.alive_count -= 1;
                    ResolvedFault::Crash(x)
                }
            }
            FaultEvent::Crash(u) => {
                let u = u as usize;
                if u < self.alive.len() && self.alive[u] && !floor_blocked {
                    self.alive[u] = false;
                    self.alive_count -= 1;
                    ResolvedFault::Crash(u)
                } else {
                    ResolvedFault::Noop
                }
            }
            FaultEvent::Arrive => {
                let x = self.next_arrival;
                self.next_arrival += 1;
                debug_assert!(!self.alive[x], "arrival slot already occupied");
                self.alive[x] = true;
                self.alive_count += 1;
                ResolvedFault::Arrive(x)
            }
            FaultEvent::DeleteEdge(u, v) => {
                let (u, v) = (u as usize, v as usize);
                if u == v || u >= self.alive.len() || v >= self.alive.len() {
                    ResolvedFault::Noop
                } else {
                    ResolvedFault::DeleteEdge(u.min(v), u.max(v))
                }
            }
            FaultEvent::DeleteRandomActiveEdges(count) => ResolvedFault::DeleteRandomEdges {
                count: count as usize,
                rng: self.plan.event_rng(i),
            },
        })
    }

    /// Replays the whole plan without an engine and returns the final
    /// state — valid because scheduled-event alive evolution never
    /// depends on run state. Useful for sizing alive-aware stable
    /// predicates up front.
    ///
    /// Plans with an [`adversary`](FaultPlan::adversary) attached lose
    /// this property: adversarial damage inspects the configuration,
    /// so the projection replays *only* the scheduled events. For an
    /// adversarial run, read the engine's live fault state after the
    /// run instead.
    #[must_use]
    pub fn project_final(&self) -> FaultState {
        let mut fs = self.clone();
        while fs.resolve_next().is_some() {}
        fs
    }
}

/// Samples `count` items from `items` without replacement (partial
/// Fisher–Yates). Callers pass the items in a canonical order so the
/// draw depends only on the configuration and the event RNG, not on
/// engine-internal iteration order.
pub(crate) fn sample_without_replacement<T>(
    rng: &mut SmallRng,
    mut items: Vec<T>,
    count: usize,
) -> Vec<T> {
    let k = count.min(items.len());
    for i in 0..k {
        let j = rng.random_range(i..items.len());
        items.swap(i, j);
    }
    items.truncate(k);
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Population, StateId};

    #[test]
    fn plan_builder_sorts_and_counts() {
        let plan = FaultPlan::new(7)
            .at(50, FaultEvent::Arrive)
            .at(10, FaultEvent::CrashRandom)
            .at(50, FaultEvent::Crash(3))
            .at(0, FaultEvent::DeleteEdge(1, 2));
        let times: Vec<u64> = plan.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 10, 50, 50]);
        // Equal times keep insertion order: Arrive was added before Crash(3).
        assert_eq!(plan.events()[2].1, FaultEvent::Arrive);
        assert_eq!(plan.events()[3].1, FaultEvent::Crash(3));
        assert_eq!(plan.arrival_count(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn alive_evolution_is_plan_determined() {
        let plan = FaultPlan::new(99)
            .at(5, FaultEvent::CrashRandom)
            .at(9, FaultEvent::Arrive)
            .at(12, FaultEvent::CrashRandom);
        let mut a = FaultState::new(plan.clone(), 10);
        let mut b = FaultState::new(plan, 10);
        assert_eq!(a.capacity(), 11);
        assert_eq!(a.alive_count(), 10);
        assert!(!a.is_alive(10), "arrival slot starts as a ghost");
        loop {
            let (ra, rb) = (a.resolve_next(), b.resolve_next());
            match (&ra, &rb) {
                (Some(ResolvedFault::Crash(x)), Some(ResolvedFault::Crash(y))) => {
                    assert_eq!(x, y, "CrashRandom must pick identically")
                }
                (Some(ResolvedFault::Arrive(x)), Some(ResolvedFault::Arrive(y))) => {
                    assert_eq!((x, y), (&10, &10))
                }
                (None, None) => break,
                other => panic!("mismatched resolutions: {other:?}"),
            }
        }
        assert_eq!(a.alive_count(), 9); // 10 − 2 crashes + 1 arrival
        assert_eq!(a.alive_count(), b.alive_count());
    }

    #[test]
    fn project_final_matches_replay() {
        let plan = FaultPlan::new(4)
            .at(1, FaultEvent::CrashRandom)
            .at(2, FaultEvent::Crash(2))
            .at(3, FaultEvent::Arrive)
            .at(4, FaultEvent::Arrive);
        let fresh = FaultState::new(plan, 6);
        let projected = fresh.project_final();
        let mut replayed = fresh.clone();
        while replayed.resolve_next().is_some() {}
        assert_eq!(projected.alive_count(), replayed.alive_count());
        assert_eq!(projected.capacity(), 8);
        for u in 0..projected.capacity() {
            assert_eq!(projected.is_alive(u), replayed.is_alive(u), "node {u}");
        }
        // Projection does not advance the original.
        assert_eq!(fresh.applied(), 0);
    }

    #[test]
    fn dead_crash_targets_are_noops() {
        let plan = FaultPlan::new(1)
            .at(0, FaultEvent::Crash(1))
            .at(1, FaultEvent::Crash(1))
            .at(2, FaultEvent::Crash(99));
        let mut fs = FaultState::new(plan, 4);
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Crash(1))));
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Noop)));
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Noop)));
        assert_eq!(fs.alive_count(), 3);
        assert_eq!(fs.next_at(), None);
    }

    #[test]
    fn from_events_sorts_misordered_input() {
        // Regression: a misordered event list must never survive into
        // the schedule (an out-of-order plan would make `next_at`
        // non-monotone and skew paired-statistics comparisons).
        let plan = FaultPlan::from_events(
            3,
            vec![
                (90, FaultEvent::Crash(0)),
                (10, FaultEvent::Arrive),
                (90, FaultEvent::CrashRandom),
                (0, FaultEvent::DeleteEdge(0, 1)),
            ],
        );
        let times: Vec<u64> = plan.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![0, 10, 90, 90]);
        // The stable sort keeps the relative order at equal times.
        assert_eq!(plan.events()[2].1, FaultEvent::Crash(0));
        assert_eq!(plan.events()[3].1, FaultEvent::CrashRandom);
        // And the result is accepted by the monotonicity check.
        let fs = FaultState::new(plan, 5);
        assert_eq!(fs.next_at(), Some(0));
    }

    #[test]
    fn empty_plan_edge_cases() {
        let mut fs = FaultState::new(FaultPlan::new(0), 7);
        assert_eq!(fs.capacity(), 7);
        assert_eq!(fs.next_at(), None);
        assert!(fs.resolve_next().is_none());
        let projected = fs.project_final();
        assert_eq!(projected.alive_count(), 7);
        assert_eq!(projected.applied(), 0);
    }

    #[test]
    fn exhausted_plan_edge_cases() {
        let plan = FaultPlan::new(8)
            .at(2, FaultEvent::CrashRandom)
            .at(4, FaultEvent::Arrive);
        let mut fs = FaultState::new(plan, 5);
        while fs.resolve_next().is_some() {}
        assert_eq!(fs.applied(), 2);
        assert_eq!(fs.next_at(), None, "exhausted plan has no next event");
        // Projecting an exhausted state is the identity.
        let projected = fs.project_final();
        assert_eq!(projected.alive_count(), fs.alive_count());
        assert_eq!(projected.applied(), fs.applied());
        for u in 0..fs.capacity() {
            assert_eq!(projected.is_alive(u), fs.is_alive(u));
        }
    }

    #[test]
    fn arrival_only_plan_edge_cases() {
        let plan = FaultPlan::new(2)
            .at(1, FaultEvent::Arrive)
            .at(3, FaultEvent::Arrive)
            .at(6, FaultEvent::Arrive);
        let fs = FaultState::new(plan, 4);
        assert_eq!(fs.capacity(), 7);
        assert_eq!(fs.alive_count(), 4);
        assert_eq!(fs.next_at(), Some(1));
        let projected = fs.project_final();
        assert_eq!(projected.alive_count(), 7, "every ghost slot fills");
        assert!((4..7).all(|u| projected.is_alive(u)));
    }

    #[test]
    fn churn_compilation_is_deterministic() {
        let churn = ChurnPlan::new(11)
            .arrival_rate(2e-3)
            .departure_rate(1e-3)
            .horizon(50_000);
        let a = churn.compile(20);
        let b = churn.compile(20);
        assert_eq!(a, b, "same knobs + seed ⇒ identical plan");
        assert!(!a.is_empty(), "these rates produce ~150 expected events");
        assert!(a.events().iter().all(|&(t, _)| t < 50_000));
        assert!(a.events().windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.events().iter().all(|&(_, e)| matches!(
            e,
            FaultEvent::Arrive | FaultEvent::CrashRandom
        )));
        // A different seed reshuffles the stream.
        assert_ne!(
            a,
            ChurnPlan::new(12)
                .arrival_rate(2e-3)
                .departure_rate(1e-3)
                .horizon(50_000)
                .compile(20)
        );
    }

    #[test]
    fn churn_floor_keeps_population_above_min_alive() {
        // Departure-heavy stream against a floor: the replayed alive
        // count must never dip below it.
        let plan = ChurnPlan::new(5)
            .arrival_rate(5e-4)
            .departure_rate(5e-3)
            .min_alive(6)
            .horizon(100_000)
            .compile(10);
        let mut fs = FaultState::new(plan, 10);
        let mut saw_floor = false;
        while fs.resolve_next().is_some() {
            assert!(fs.alive_count() >= 6, "floor violated");
            saw_floor |= fs.alive_count() == 6;
        }
        assert!(saw_floor, "stream heavy enough to reach the floor");
    }

    #[test]
    fn churn_zero_rate_is_empty() {
        assert!(ChurnPlan::new(1).horizon(10_000).compile(8).is_empty());
        // Zero rates with a zero horizon are fine too — nothing was
        // asked for, nothing is forgotten.
        assert!(ChurnPlan::new(1).compile(8).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive churn rate with a zero horizon")]
    fn churn_positive_rate_needs_a_horizon() {
        // Regression for the zero-horizon footgun: this used to
        // silently compile to an empty plan.
        let _ = ChurnPlan::new(1).arrival_rate(0.5).compile(8);
    }

    #[test]
    fn plan_floor_blocks_scheduled_crashes() {
        // Both CrashRandom and targeted Crash refuse to breach the
        // plan-level floor (the composition guard for churn streams
        // running under an adversary).
        let plan = FaultPlan::new(3)
            .at(1, FaultEvent::CrashRandom)
            .at(2, FaultEvent::Crash(2))
            .at(3, FaultEvent::CrashRandom)
            .with_min_alive(3);
        let mut fs = FaultState::new(plan, 4);
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Crash(_))));
        assert_eq!(fs.alive_count(), 3, "first crash is above the floor");
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Noop)));
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Noop)));
        assert_eq!(fs.alive_count(), 3, "floor held");
    }

    #[test]
    fn churn_compile_carries_the_floor_onto_the_plan() {
        let plan = ChurnPlan::new(5)
            .departure_rate(1e-3)
            .min_alive(6)
            .horizon(10_000)
            .compile(10);
        assert_eq!(plan.min_alive(), Some(6));
        assert_eq!(
            ChurnPlan::new(5).departure_rate(1e-3).horizon(10_000).compile(10).min_alive(),
            None
        );
    }

    #[test]
    fn adversary_times_merge_into_next_at_and_boundaries() {
        use super::adversary::{AdversaryPlan, AdversaryPolicy, Cadence};

        let adv = AdversaryPlan::new(Cadence::burst(vec![15, 40]))
            .policy(AdversaryPolicy::CrashMaxDegree);
        let plan = FaultPlan::new(9)
            .at(10, FaultEvent::CrashRandom)
            .at(20, FaultEvent::Arrive)
            .with_adversary(adv);
        assert_eq!(plan.boundary_times(), vec![10, 15, 20, 40]);
        let mut fs = FaultState::new(plan, 6);
        assert_eq!(fs.next_at(), Some(10));
        assert_eq!(fs.due_fault(9), None);
        assert_eq!(fs.due_fault(12), Some(DueFault::Event));
        // With both due, the earlier one wins; at a tie the plan
        // event does.
        assert_eq!(fs.due_fault(u64::MAX), Some(DueFault::Event));
        assert!(matches!(fs.resolve_next(), Some(ResolvedFault::Crash(_))));
        assert_eq!(fs.next_at(), Some(15), "decision now leads");
        assert_eq!(fs.due_fault(15), Some(DueFault::Decision));
        // Resolving the decision consumes exactly one decision index and
        // flips the victim's alive flag. The configuration's one edge
        // joins two nodes the plan event left alive.
        let (u, v) = {
            let mut alive = (0..fs.capacity()).filter(|&u| fs.is_alive(u));
            (alive.next().expect("alive"), alive.next().expect("alive"))
        };
        let cfg = Population::from_parts(
            vec![StateId::new(0); fs.capacity()],
            netcon_graph::EdgeSet::from_edges(fs.capacity(), [(u, v)]),
        );
        let before = fs.alive_count();
        let damage = fs.resolve_due_decision(&cfg);
        assert_eq!(damage.len(), 1);
        assert_eq!(fs.decisions_taken(), 1);
        assert_eq!(fs.adversary_spent(), 1);
        assert_eq!(fs.alive_count(), before - 1);
        assert_eq!(fs.next_at(), Some(20), "back to the plan event");
    }

    #[test]
    fn spent_budget_cancels_remaining_decisions() {
        use super::adversary::{AdversaryPlan, AdversaryPolicy, Cadence};

        let adv = AdversaryPlan::new(Cadence::Periodic {
            start: 5,
            every: 5,
            count: 100,
        })
        .policy(AdversaryPolicy::CrashMaxDegree)
        .budget(1);
        let mut fs = FaultState::new(FaultPlan::new(2).with_adversary(adv), 4);
        assert_eq!(fs.next_at(), Some(5));
        let cfg = Population::new(4, StateId::new(0));
        let damage = fs.resolve_due_decision(&cfg);
        assert_eq!(damage.len(), 1);
        assert_eq!(
            fs.next_at(),
            None,
            "budget spent: the other 99 decisions vanish, unblocking endgames"
        );
    }

    #[test]
    fn sampling_without_replacement_is_a_subset() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items: Vec<u32> = (0..20).collect();
        let got = sample_without_replacement(&mut rng, items.clone(), 7);
        assert_eq!(got.len(), 7);
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7, "no duplicates");
        assert!(got.iter().all(|x| items.contains(x)));
        // Asking for more than available returns everything.
        let all = sample_without_replacement(&mut rng, vec![1, 2, 3], 10);
        assert_eq!(all.len(), 3);
    }
}
