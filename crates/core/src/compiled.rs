//! Compiled protocols: the one executable form the skip engines run.
//!
//! The interpreted [`RuleProtocol`] is faithful to
//! the paper's listings but pays for that fidelity per interaction: its δ
//! slots hold [`RuleRhs`] enums, and its `interact` runs
//! through the generic [`Machine`] interface with a `dyn Rng`. This module
//! provides the lowered form every skip-sampling engine requires:
//!
//! * [`CompiledTable`] — any `RuleProtocol` lowered to a flat `Vec`-indexed
//!   δ: one packed right-hand side per `(a_idx, b_idx, link)` slot, `u16`
//!   state ids, no hashing, no allocation, and a monomorphic
//!   [`interact_indexed`](EnumerableMachine::interact_indexed) with no
//!   `dyn Rng` in the hot path. Behaviour (including the coin-consumption
//!   order) is bit-for-bit identical to the interpreted protocol under the
//!   same generator.
//! * [`EnumerableMachine`] — the sealed dense-index interface the engines
//!   are generic over. [`CompiledTable`] is its only implementor, so an
//!   engine never sees a second δ path.
//! * [`EffectTable`] — precomputed `can_affect` bits over all
//!   `(a_idx, b_idx, link)` triples, the lookup the incremental
//!   effective-pair maintenance performs O(n) times per effective
//!   interaction. [`RuleProtocol`] tabulates it once at build time and
//!   its compiled table shares a copy.

use rand::{Rng, RngExt};

use crate::{Link, Machine, RuleProtocol, RuleRhs, StateId};

mod sealed {
    /// Keeps [`EnumerableMachine`](super::EnumerableMachine) implemented
    /// by [`CompiledTable`](super::CompiledTable) alone.
    pub trait Sealed {}
}

impl sealed::Sealed for CompiledTable {}

/// A [`Machine`] whose state set is enumerable as the dense index range
/// `0..num_states()`: the machine interface of the skip-sampling engines.
///
/// The trait is sealed: [`CompiledTable`] is its only implementor, so
/// every engine runs the one flat δ (lower a [`RuleProtocol`] with
/// [`RuleProtocol::compile`]). It is public so that engines, views and
/// predicates can be written generically over it.
///
/// ```compile_fail
/// use netcon_core::{EventSim, Link, ProtocolBuilder};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?;
/// // Rejected: `RuleProtocol` is not an `EnumerableMachine`; the engine
/// // takes `protocol.compile()`.
/// let sim = EventSim::new(protocol, 100, 1);
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
///
/// # Contract
///
/// `state_index` and `state_at` are mutually inverse bijections, and
/// `num_states` does not change over the machine's lifetime. The indexed
/// methods agree with their state-typed [`Machine`] counterparts and
/// consume randomness identically (the engines rely on this for
/// reproducibility across representations).
///
/// The trait is not object-safe (`interact_indexed` is generic over the
/// generator precisely so compiled hot loops avoid `dyn Rng`).
pub trait EnumerableMachine: Machine + sealed::Sealed {
    /// The number of states `|Q|`.
    fn num_states(&self) -> usize;

    /// The dense index of `state` in `0..num_states()`.
    fn state_index(&self, state: &Self::State) -> usize;

    /// The state with the given dense index.
    ///
    /// # Panics
    ///
    /// May panic if `index >= num_states()`.
    fn state_at(&self, index: usize) -> Self::State;

    /// A copy of the machine's effect table.
    fn effect_table(&self) -> EffectTable;

    /// [`Machine::on_crash_notify`] over dense indices.
    fn notify_indexed(&self, state: usize) -> Option<usize>;

    /// Whether an interaction on the triple is **certainly** effective:
    /// every outcome the rule can produce (over any coin values) differs
    /// from the input triple, so `interact_indexed` never returns
    /// `None`. Engines use this only as an optimization gate (batched
    /// endgame sampling).
    fn is_certain(&self, a: usize, b: usize, link: Link) -> bool;

    /// The outcome of a **deterministic, coin-free** interaction:
    /// `Some(rhs)` only when `interact_indexed` on the triple always
    /// returns `Some(rhs)` *and consumes no randomness* (in particular
    /// the rule is not subject to the §3.1 symmetry coin). The batched
    /// endgame uses this to recognize pure state-swap walk rules.
    fn det_interaction(&self, a: usize, b: usize, link: Link) -> Option<(usize, usize, Link)>;

    /// [`Machine::interact`] over dense indices with a monomorphic
    /// generator: one slot load per interaction.
    fn interact_indexed<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        link: Link,
        rng: &mut R,
    ) -> Option<(usize, usize, Link)>;
}

/// Precomputed `can_affect` bits over every `(a_idx, b_idx, link)`
/// triple of a rule table.
///
/// `2·|Q|²` bits; tabulated once when [`ProtocolBuilder::build`]
/// validates the rules, then answering in one shift-and-mask.
///
/// [`ProtocolBuilder::build`]: crate::ProtocolBuilder::build
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectTable {
    size: usize,
    affect: Vec<u64>,
    /// For machines with ≤ 32 states: `affect_rows[a] >> (b·2 + link) & 1`
    /// is `can_affect(a, b, link)` — one register row per left state, so
    /// the engine's per-node rescan tests membership without memory
    /// traffic. Empty for larger machines.
    affect_rows: Vec<u64>,
}

impl EffectTable {
    /// Tabulates `affects(a, b, link) = can_affect(a, b, link)` over the
    /// whole `size`-state domain.
    pub(crate) fn tabulate(
        size: usize,
        mut affects: impl FnMut(usize, usize, Link) -> bool,
    ) -> Self {
        let words = (size * size * 2).div_ceil(64);
        let mut t = Self {
            size,
            affect: vec![0; words],
            affect_rows: if size <= 32 { vec![0; size] } else { Vec::new() },
        };
        for a in 0..size {
            for b in 0..size {
                for link in [Link::Off, Link::On] {
                    let i = slot(size, a, b, link);
                    if affects(a, b, link) {
                        t.affect[i / 64] |= 1 << (i % 64);
                        if size <= 32 {
                            t.affect_rows[a] |= 1 << (b * 2 + usize::from(link.is_on()));
                        }
                    }
                }
            }
        }
        t
    }

    /// The `can_affect` mask over `(b, link)` for left state `a`, when the
    /// machine has ≤ 32 states (bit `b·2 + link`); `None` otherwise.
    #[inline]
    #[must_use]
    pub fn affect_row(&self, a: usize) -> Option<u64> {
        self.affect_rows.get(a).copied()
    }

    /// The number of states `|Q|` the table was built over.
    #[must_use]
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// Whether an interaction on the triple could change anything.
    #[inline]
    #[must_use]
    pub fn can_affect(&self, a: usize, b: usize, link: Link) -> bool {
        let i = slot(self.size, a, b, link);
        self.affect[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether the pair could be affected over an **active** edge but not
    /// over an inactive one. Such pairs enter the bucket engine's
    /// candidate set only through the explicit active-edge list (a state
    /// bucket would count the whole off-link bulk of the class pair).
    #[inline]
    #[must_use]
    pub(crate) fn on_link_only(&self, a: usize, b: usize) -> bool {
        self.can_affect(a, b, Link::On) && !self.can_affect(a, b, Link::Off)
    }

    /// Whether `can_affect` is symmetric in its node arguments over the
    /// whole domain. Holds by construction (the builder mirrors every
    /// rule); the engines' unordered pair sets rely on it.
    fn is_symmetric(&self) -> bool {
        (0..self.size).all(|a| {
            (a..self.size).all(|b| {
                [Link::Off, Link::On]
                    .iter()
                    .all(|&l| self.can_affect(a, b, l) == self.can_affect(b, a, l))
            })
        })
    }

    /// Bytes of heap memory held by the table.
    #[must_use]
    pub(crate) fn approx_mem_bytes(&self) -> u64 {
        ((self.affect.capacity() + self.affect_rows.capacity()) * 8) as u64
    }
}

/// The flat slot index of `(a, b, link)`.
#[inline]
fn slot(size: usize, a: usize, b: usize, link: Link) -> usize {
    (a * size + b) * 2 + usize::from(link.is_on())
}

/// A packed right-hand-side triple: `a | b << 16 | link << 32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packed(u64);

impl Packed {
    fn new(a: u16, b: u16, link: Link) -> Self {
        Self(u64::from(a) | u64::from(b) << 16 | u64::from(link.is_on()) << 32)
    }

    fn unpack(self) -> (u16, u16, Link) {
        (
            (self.0 & 0xFFFF) as u16,
            (self.0 >> 16 & 0xFFFF) as u16,
            Link::from(self.0 >> 32 & 1 == 1),
        )
    }
}

/// One δ slot of a [`CompiledTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// No rule: the interaction is ineffective.
    Empty,
    /// A deterministic right-hand side.
    Det(Packed),
    /// A randomized right-hand side: alternatives `start..start + len` of
    /// the arena, with the given total weight.
    Random { start: u32, len: u32, total: u32 },
}

/// A [`RuleProtocol`] lowered to flat arrays: the fast executable form of
/// the paper's δ.
///
/// Create with [`RuleProtocol::compile`]. The compiled machine implements
/// [`Machine`] (so it is a drop-in for the interpreted protocol in
/// [`Simulation`](crate::Simulation)) and [`EnumerableMachine`] (so every
/// skip engine runs it), with a monomorphic [`interact_indexed`] that
/// performs exactly one slot load per interaction — no hashing, no
/// allocation, no `dyn Rng` — while consuming randomness in the same
/// order as the interpreted protocol, so equal seeds give equal
/// executions.
///
/// [`interact_indexed`]: EnumerableMachine::interact_indexed
///
/// # Example
///
/// ```
/// use netcon_core::{EventSim, ExactEngine, Link, ProtocolBuilder};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let compiled = b.build()?.compile();
///
/// let mut sim = EventSim::new(compiled, 100, 1);
/// let outcome = sim.run_until(|p| p.edges().active_count() == 50, 10_000_000);
/// assert!(outcome.stabilized());
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTable {
    name: String,
    state_names: Vec<String>,
    initial: u16,
    output: Vec<bool>,
    size: usize,
    slots: Vec<Slot>,
    /// Arena of `(weight, packed_rhs)` alternatives for randomized slots,
    /// in declaration order (the sampling walk matches the interpreted
    /// protocol's).
    alts: Vec<(u32, Packed)>,
    effects: EffectTable,
    /// Per-state crash-notification target (`None` = ignore), lowered
    /// from the protocol's `on_crash` declarations.
    notify: Vec<Option<u16>>,
}

impl CompiledTable {
    /// Lowers `protocol`. Exposed as [`RuleProtocol::compile`].
    #[must_use]
    pub(crate) fn lower(protocol: &RuleProtocol) -> Self {
        let size = protocol.size();
        let mut slots = vec![Slot::Empty; size * size * 2];
        let mut alts = Vec::new();
        for a in 0..size {
            for b in 0..size {
                for link in [Link::Off, Link::On] {
                    let Some(rhs) = protocol.lookup(
                        StateId::new(a as u16),
                        StateId::new(b as u16),
                        link,
                    ) else {
                        continue;
                    };
                    slots[slot(size, a, b, link)] = match rhs {
                        RuleRhs::Det((x, y, l)) => {
                            Slot::Det(Packed::new(x.index() as u16, y.index() as u16, *l))
                        }
                        RuleRhs::Random(list) => {
                            let start = u32::try_from(alts.len()).expect("arena fits u32");
                            let mut total = 0u32;
                            for &(w, (x, y, l)) in list {
                                total += w;
                                alts.push((w, Packed::new(x.index() as u16, y.index() as u16, l)));
                            }
                            Slot::Random {
                                start,
                                len: u32::try_from(list.len()).expect("arena fits u32"),
                                total,
                            }
                        }
                    };
                }
            }
        }
        let state_names = (0..size)
            .map(|i| protocol.state_name(StateId::new(i as u16)).to_owned())
            .collect();
        let effects = protocol.effects().clone();
        debug_assert!(effects.is_symmetric(), "the builder mirrors every rule");
        Self {
            name: protocol.name().to_owned(),
            state_names,
            initial: protocol.initial_state().index() as u16,
            output: (0..size)
                .map(|i| protocol.is_output(&StateId::new(i as u16)))
                .collect(),
            size,
            slots,
            alts,
            effects,
            notify: (0..size)
                .map(|i| {
                    protocol
                        .crash_notify_target(StateId::new(i as u16))
                        .map(|s| s.index() as u16)
                })
                .collect(),
        }
    }

    /// The number of states `|Q|`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Looks up a state id by its paper name.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId::new(i as u16))
    }

    /// The paper name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a state of this protocol.
    #[must_use]
    pub fn state_name(&self, s: StateId) -> &str {
        &self.state_names[s.index()]
    }

}

impl Machine for CompiledTable {
    type State = StateId;

    fn name(&self) -> &str {
        &self.name
    }

    fn initial_state(&self) -> StateId {
        StateId::new(self.initial)
    }

    fn is_output(&self, state: &StateId) -> bool {
        self.output[state.index()]
    }

    fn interact(
        &self,
        a: &StateId,
        b: &StateId,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(StateId, StateId, Link)> {
        self.interact_indexed(a.index(), b.index(), link, rng)
            .map(|(x, y, l)| (StateId::new(x as u16), StateId::new(y as u16), l))
    }

    fn can_affect(&self, a: &StateId, b: &StateId, link: Link) -> bool {
        self.effects.can_affect(a.index(), b.index(), link)
    }

    fn on_crash_notify(&self, state: &StateId) -> Option<StateId> {
        self.notify[state.index()].map(StateId::new)
    }
}

impl EnumerableMachine for CompiledTable {
    fn num_states(&self) -> usize {
        self.size
    }

    fn effect_table(&self) -> EffectTable {
        self.effects.clone()
    }

    fn notify_indexed(&self, state: usize) -> Option<usize> {
        self.notify[state].map(usize::from)
    }

    fn state_index(&self, state: &StateId) -> usize {
        state.index()
    }

    fn state_at(&self, index: usize) -> StateId {
        StateId::new(u16::try_from(index).expect("CompiledTable has ≤ 65536 states"))
    }

    fn is_certain(&self, a: usize, b: usize, link: Link) -> bool {
        let input = Packed::new(a as u16, b as u16, link);
        match self.slots[slot(self.size, a, b, link)] {
            Slot::Empty => false,
            // A symmetry-coin RHS (a == b, a2 ≠ b2) is certain either
            // way: neither order can equal the diagonal input.
            Slot::Det(p) => p != input,
            Slot::Random { start, len, .. } => self.alts[start as usize..(start + len) as usize]
                .iter()
                .all(|&(w, p)| w == 0 || p != input),
        }
    }

    fn det_interaction(&self, a: usize, b: usize, link: Link) -> Option<(usize, usize, Link)> {
        match self.slots[slot(self.size, a, b, link)] {
            Slot::Det(p) => {
                let (a2, b2, l2) = p.unpack();
                if a == b && a2 != b2 {
                    return None; // consumes the §3.1 symmetry coin
                }
                let (a2, b2) = (usize::from(a2), usize::from(b2));
                if (a2, b2, l2) == (a, b, link) {
                    None // identity RHS: interact_indexed returns None
                } else {
                    Some((a2, b2, l2))
                }
            }
            _ => None,
        }
    }

    fn interact_indexed<R: Rng + ?Sized>(
        &self,
        a: usize,
        b: usize,
        link: Link,
        rng: &mut R,
    ) -> Option<(usize, usize, Link)> {
        let packed = match self.slots[slot(self.size, a, b, link)] {
            Slot::Empty => return None,
            Slot::Det(p) => p,
            Slot::Random { start, len, total } => {
                // Same draw and same walk order as `RuleRhs::sample`.
                let mut roll = rng.random_range(0..total);
                let mut chosen = None;
                for &(w, p) in &self.alts[start as usize..(start + len) as usize] {
                    if roll < w {
                        chosen = Some(p);
                        break;
                    }
                    roll -= w;
                }
                chosen.expect("weights sum to total")
            }
        };
        let (mut a2, mut b2, l2) = packed.unpack();
        if a == b && a2 != b2 {
            // §3.1's symmetry-breaking coin, in the same stream position
            // as the interpreted protocol.
            if rng.random_bool(0.5) {
                std::mem::swap(&mut a2, &mut b2);
            }
        }
        let (a2, b2) = (a2 as usize, b2 as usize);
        if (a2, b2, l2) == (a, b, link) {
            None
        } else {
            Some((a2, b2, l2))
        }
    }
}

impl RuleProtocol {
    /// Lowers the protocol to its flat, allocation-free executable form.
    ///
    /// The compiled machine is observationally identical to the
    /// interpreted one — same transitions, same coin-consumption order,
    /// same `can_affect` relation — so it can replace the protocol in any
    /// engine without changing measured distributions (or, under a fixed
    /// seed, the execution itself).
    #[must_use]
    pub fn compile(&self) -> CompiledTable {
        CompiledTable::lower(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn line_protocol() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("line");
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let l = b.state("l");
        b.rule((q0, q0, OFF), (q1, l, ON));
        b.rule((l, q0, OFF), (q1, l, ON));
        b.build().expect("valid")
    }

    #[test]
    fn compiled_matches_interpreted_on_full_domain() {
        let p = line_protocol();
        let c = p.compile();
        for a in 0..p.size() as u16 {
            for b in 0..p.size() as u16 {
                for link in [OFF, ON] {
                    let (a, b) = (StateId::new(a), StateId::new(b));
                    for seed in 0..8 {
                        let mut r1 = SmallRng::seed_from_u64(seed);
                        let mut r2 = SmallRng::seed_from_u64(seed);
                        assert_eq!(
                            p.interact(&a, &b, link, &mut r1),
                            c.interact(&a, &b, link, &mut r2),
                            "disagreement at ({a:?}, {b:?}, {link})"
                        );
                        assert_eq!(r1, r2, "coin consumption diverged");
                    }
                    assert_eq!(p.can_affect(&a, &b, link), c.can_affect(&a, &b, link));
                }
            }
        }
        for s in 0..p.size() as u16 {
            let s = StateId::new(s);
            assert_eq!(p.on_crash_notify(&s), c.on_crash_notify(&s));
        }
    }

    #[test]
    fn crash_notify_lowers_into_the_table() {
        let mut b = ProtocolBuilder::new("notify");
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let q2 = b.state("q2");
        b.rule((q0, q0, OFF), (q0, q1, ON));
        b.on_crash(q1, q0).on_crash(q2, q1);
        let p = b.build().expect("valid");
        let c = p.compile();
        for s in [q0, q1, q2] {
            assert_eq!(c.on_crash_notify(&s), p.on_crash_notify(&s));
            assert_eq!(
                c.notify_indexed(s.index()),
                p.on_crash_notify(&s).map(|t| t.index())
            );
        }
        assert_eq!(c.on_crash_notify(&q0), None);
        assert_eq!(c.on_crash_notify(&q2), Some(q1));
    }

    #[test]
    fn randomized_rules_share_the_sampling_walk() {
        let mut b = ProtocolBuilder::new("prel");
        let l = b.state("l");
        let f = b.state("f");
        b.rule_random((l, f, OFF), [(3, (f, l, OFF)), (1, (l, l, ON))]);
        let p = b.build().expect("valid");
        let c = p.compile();
        let mut r1 = SmallRng::seed_from_u64(9);
        let mut r2 = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            assert_eq!(
                p.interact(&l, &f, OFF, &mut r1),
                c.interact(&l, &f, OFF, &mut r2)
            );
        }
    }

    #[test]
    fn metadata_round_trips() {
        let p = line_protocol();
        let c = p.compile();
        assert_eq!(c.size(), p.size());
        assert_eq!(c.name(), p.name());
        assert_eq!(c.initial_state(), p.initial_state());
        assert_eq!(c.state("l"), p.state("l"));
        assert_eq!(c.state_name(StateId::new(1)), "q1");
        assert_eq!(c.num_states(), 3);
        assert_eq!(c.state_at(2), StateId::new(2));
        assert_eq!(c.state_index(&StateId::new(2)), 2);
    }

    /// `is_certain`/`det_interaction` must be conservative abstractions
    /// of `interact_indexed`: certainty ⟹ never-`None`, and a reported
    /// deterministic RHS ⟹ that exact result with zero coin consumption.
    #[test]
    fn certainty_and_det_queries_abstract_interact() {
        let mut b = ProtocolBuilder::new("mix");
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let l = b.state("l");
        b.rule((q0, q0, OFF), (q1, l, ON)); // diagonal + asymmetric: coin
        b.rule((l, q0, OFF), (q1, l, ON)); // pure det
        b.rule((q1, q1, ON), (q1, q1, OFF)); // diagonal symmetric: coin-free
        b.rule_random((l, l, OFF), [(1, (l, l, OFF)), (1, (q1, q1, ON))]);
        let c = b.build().expect("valid").compile();
        for a in 0..c.num_states() {
            for bb in 0..c.num_states() {
                for link in [OFF, ON] {
                    for seed in 0..16u64 {
                        let mut r = SmallRng::seed_from_u64(seed);
                        let before = r.clone();
                        let got = c.interact_indexed(a, bb, link, &mut r);
                        if c.is_certain(a, bb, link) {
                            assert!(got.is_some(), "certain triple returned None");
                        }
                        if let Some(rhs) = c.det_interaction(a, bb, link) {
                            assert_eq!(got, Some(rhs));
                            assert_eq!(r, before, "det triple consumed coins");
                        }
                    }
                }
            }
        }
        // Spot checks: the diagonal asymmetric rule is certain but not
        // det (coin); the identity-alternative random rule is neither.
        let (iq0, il, iq1) = (q0.index(), l.index(), q1.index());
        assert!(c.is_certain(iq0, iq0, OFF));
        assert_eq!(c.det_interaction(iq0, iq0, OFF), None);
        assert_eq!(c.det_interaction(il, iq0, OFF), Some((iq1, il, ON)));
        assert_eq!(c.det_interaction(iq1, iq1, ON), Some((iq1, iq1, OFF)));
        assert!(!c.is_certain(il, il, OFF));
        assert!(!c.is_certain(iq0, iq1, OFF));
    }

    /// The compiled table shares the protocol's one effect table, which
    /// is symmetric because the builder mirrors every rule, and whose
    /// bits are those the line protocol's rules imply.
    #[test]
    fn effect_table_matches_machine_queries() {
        let p = line_protocol();
        let t = p.compile().effect_table();
        assert_eq!(&t, p.effects());
        assert!(t.is_symmetric());
        let (q0, q1, l) = (0, 1, 2);
        assert!(t.can_affect(q0, q0, OFF));
        assert!(t.can_affect(l, q0, OFF) && t.can_affect(q0, l, OFF));
        assert!(!t.can_affect(q0, q0, ON) && !t.can_affect(q1, l, OFF));
        assert_eq!(t.affect_row(q1), Some(0));
    }
}
