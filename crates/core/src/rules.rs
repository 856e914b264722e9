//! Declarative rule tables for flat protocols.
//!
//! The paper presents each protocol as a list of *effective transitions*
//! over named states, e.g. Protocol 1 (Simple-Global-Line):
//!
//! ```text
//! (q0, q0, 0) → (q1, l, 1)
//! (l,  q0, 0) → (q2, l, 1)
//! (l,  l,  0) → (q2, w, 1)
//! (w,  q2, 1) → (q2, w, 1)
//! (w,  q1, 1) → (q2, l, 1)
//! ```
//!
//! [`ProtocolBuilder`] lets that listing be transcribed one-to-one and
//! validates the result: δ must be a well-formed symmetric partial
//! function, so a rule may be given on `(a, b, c)` or on `(b, a, c)` but
//! two definitions for the same unordered triple must agree under the
//! swap. Randomized transitions (the `PREL` extension of Definition 4)
//! carry exact rational weights.

use std::collections::HashMap;
use std::fmt;

use rand::{Rng, RngExt};

use crate::{EffectTable, Link, Machine, StateId};

/// A left-hand side or right-hand side triple `(a, b, link)`.
pub type Triple = (StateId, StateId, Link);

/// The right-hand side of a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleRhs {
    /// A deterministic outcome.
    Det(Triple),
    /// A randomized outcome: each alternative is chosen with probability
    /// `weight / total_weight`. The paper's `PREL` protocols use two
    /// alternatives of weight 1 each (a fair coin).
    Random(Vec<(u32, Triple)>),
}

impl RuleRhs {
    /// Iterates the possible outcome triples (ignoring weights), without
    /// allocating.
    pub fn outcomes(&self) -> impl Iterator<Item = Triple> + '_ {
        let (det, random): (&[Triple], &[(u32, Triple)]) = match self {
            RuleRhs::Det(t) => (std::slice::from_ref(t), &[]),
            RuleRhs::Random(alts) => (&[], alts.as_slice()),
        };
        det.iter().copied().chain(random.iter().map(|&(_, t)| t))
    }

    fn sample(&self, rng: &mut dyn Rng) -> Triple {
        match self {
            RuleRhs::Det(t) => *t,
            RuleRhs::Random(alts) => {
                let total: u32 = alts.iter().map(|&(w, _)| w).sum();
                let mut roll = rng.random_range(0..total);
                for &(w, t) in alts {
                    if roll < w {
                        return t;
                    }
                    roll -= w;
                }
                unreachable!("weights sum to total")
            }
        }
    }

    /// The right-hand side with the two node states swapped in every
    /// alternative.
    fn swapped(&self) -> RuleRhs {
        let swap = |(a, b, l): Triple| (b, a, l);
        match self {
            RuleRhs::Det(t) => RuleRhs::Det(swap(*t)),
            RuleRhs::Random(alts) => {
                RuleRhs::Random(alts.iter().map(|&(w, t)| (w, swap(t))).collect())
            }
        }
    }
}

/// A single transition `(a, b, link) → rhs` as written in the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The interacting states and edge state the rule matches.
    pub lhs: Triple,
    /// The resulting states and edge state.
    pub rhs: RuleRhs,
}

/// Errors detected while building a protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Two rules were defined for the same unordered triple with
    /// incompatible outcomes. Holds a rendering of the offending triple.
    ConflictingRules(String),
    /// A randomized rule had an empty alternative list or zero total
    /// weight. Holds the offending triple.
    BadWeights(String),
    /// The protocol declared no states.
    NoStates,
    /// The set of output states was declared empty.
    NoOutputStates,
    /// Two crash-notification transitions were declared for the same
    /// state with different targets. Holds the offending state's name.
    ConflictingNotify(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::ConflictingRules(t) => {
                write!(f, "conflicting rules defined for triple {t}")
            }
            ProtocolError::BadWeights(t) => {
                write!(f, "randomized rule for {t} has no positive-weight alternatives")
            }
            ProtocolError::NoStates => write!(f, "protocol declares no states"),
            ProtocolError::NoOutputStates => write!(f, "protocol declares no output states"),
            ProtocolError::ConflictingNotify(s) => {
                write!(f, "conflicting crash-notification transitions for state {s}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Builder for [`RuleProtocol`]s.
///
/// States are declared with [`state`](Self::state); the first declared
/// state is the initial state `q₀` unless overridden with
/// [`initial`](Self::initial). Rules are added with [`rule`](Self::rule)
/// and [`rule_random`](Self::rule_random) and validated by
/// [`build`](Self::build).
///
/// # Example
///
/// ```
/// use netcon_core::{Link, ProtocolBuilder};
///
/// let mut b = ProtocolBuilder::new("Cycle-Cover");
/// let q0 = b.state("q0");
/// let q1 = b.state("q1");
/// let q2 = b.state("q2");
/// b.rule((q0, q0, Link::Off), (q1, q1, Link::On));
/// b.rule((q1, q0, Link::Off), (q2, q1, Link::On));
/// b.rule((q1, q1, Link::Off), (q2, q2, Link::On));
/// let protocol = b.build()?;
/// assert_eq!(protocol.size(), 3);
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtocolBuilder {
    name: String,
    state_names: Vec<String>,
    by_name: HashMap<String, StateId>,
    initial: Option<StateId>,
    output: Option<Vec<StateId>>,
    rules: Vec<Rule>,
    crash_notify: Vec<(StateId, StateId)>,
}

impl ProtocolBuilder {
    /// Creates a builder for a protocol with the given display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            state_names: Vec::new(),
            by_name: HashMap::new(),
            initial: None,
            output: None,
            rules: Vec::new(),
            crash_notify: Vec::new(),
        }
    }

    /// Declares (or looks up) a state by name and returns its id.
    ///
    /// Declaring the same name twice returns the same id, so parameterized
    /// protocols can generate states in loops without bookkeeping.
    pub fn state(&mut self, name: impl Into<String>) -> StateId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = StateId::new(
            u16::try_from(self.state_names.len()).expect("more than 65535 states"),
        );
        self.by_name.insert(name.clone(), id);
        self.state_names.push(name);
        id
    }

    /// Overrides the initial state (default: the first declared state).
    pub fn initial(&mut self, q0: StateId) -> &mut Self {
        self.initial = Some(q0);
        self
    }

    /// Restricts the output states `Q_out` (default: all states).
    pub fn output_states(&mut self, states: &[StateId]) -> &mut Self {
        self.output = Some(states.to_vec());
        self
    }

    /// Adds a deterministic rule `lhs → rhs`.
    pub fn rule(&mut self, lhs: Triple, rhs: Triple) -> &mut Self {
        self.rules.push(Rule {
            lhs,
            rhs: RuleRhs::Det(rhs),
        });
        self
    }

    /// Adds a randomized rule choosing among weighted alternatives.
    ///
    /// A fair coin is two alternatives of weight 1:
    ///
    /// ```
    /// # use netcon_core::{Link, ProtocolBuilder};
    /// # let mut b = ProtocolBuilder::new("x");
    /// # let l = b.state("l");
    /// # let f = b.state("f");
    /// # let ld = b.state("ld");
    /// # let fd = b.state("fd");
    /// b.rule_random(
    ///     (l, f, Link::Off),
    ///     [(1, (ld, fd, Link::Off)), (1, (f, l, Link::Off))],
    /// );
    /// ```
    pub fn rule_random(
        &mut self,
        lhs: Triple,
        alternatives: impl IntoIterator<Item = (u32, Triple)>,
    ) -> &mut Self {
        self.rules.push(Rule {
            lhs,
            rhs: RuleRhs::Random(alternatives.into_iter().collect()),
        });
        self
    }

    /// Declares the crash-notification transition `from → to`: a node in
    /// state `from` that loses an active edge to a crashing neighbor is
    /// remapped to `to` (the fault-notification model of arXiv
    /// 1903.05992; see [`Machine::on_crash_notify`]). States without a
    /// declared transition ignore notifications.
    pub fn on_crash(&mut self, from: StateId, to: StateId) -> &mut Self {
        self.crash_notify.push((from, to));
        self
    }

    /// Validates the rule set and produces the protocol.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if the protocol has no states, declares an
    /// empty output set, contains a randomized rule with no positive
    /// weight, or defines the same unordered triple twice with outcomes
    /// that disagree under the symmetry `δ₁(a,b,c) = δ₂(b,a,c)`.
    pub fn build(&self) -> Result<RuleProtocol, ProtocolError> {
        let size = self.state_names.len();
        if size == 0 {
            return Err(ProtocolError::NoStates);
        }
        if let Some(out) = &self.output {
            if out.is_empty() {
                return Err(ProtocolError::NoOutputStates);
            }
        }
        let mut output = vec![self.output.is_none(); size];
        if let Some(out) = &self.output {
            for s in out {
                output[s.index()] = true;
            }
        }

        let render = |t: &Triple| {
            format!(
                "({}, {}, {})",
                self.state_names[t.0.index()],
                self.state_names[t.1.index()],
                t.2
            )
        };

        let mut table: Vec<Option<RuleRhs>> = vec![None; size * size * 2];
        let idx = |a: StateId, b: StateId, l: Link| {
            (a.index() * size + b.index()) * 2 + usize::from(l.is_on())
        };
        for rule in &self.rules {
            let (a, b, l) = rule.lhs;
            if let RuleRhs::Random(alts) = &rule.rhs {
                if alts.is_empty() || alts.iter().all(|&(w, _)| w == 0) {
                    return Err(ProtocolError::BadWeights(render(&rule.lhs)));
                }
            }
            // Store on the given order; also mirror onto the swapped order
            // so lookups are O(1) regardless of which endpoint comes first.
            let fwd = idx(a, b, l);
            let bwd = idx(b, a, l);
            let mirrored = rule.rhs.swapped();
            match &table[fwd] {
                Some(existing) if *existing != rule.rhs => {
                    return Err(ProtocolError::ConflictingRules(render(&rule.lhs)));
                }
                _ => {}
            }
            table[fwd] = Some(rule.rhs.clone());
            if fwd != bwd {
                match &table[bwd] {
                    Some(existing) if *existing != mirrored => {
                        return Err(ProtocolError::ConflictingRules(render(&rule.lhs)));
                    }
                    _ => {}
                }
                table[bwd] = Some(mirrored);
            }
        }

        // Tabulate the effectiveness bits once: `can_affect` becomes a
        // single indexed load, and the compiled table shares the same bits.
        let effects = EffectTable::tabulate(size, |a, b, link| {
            let i = (a * size + b) * 2 + usize::from(link.is_on());
            let lhs = (StateId::new(a as u16), StateId::new(b as u16), link);
            table[i]
                .as_ref()
                .is_some_and(|rhs| rhs.outcomes().any(|t| t != lhs))
        });

        let mut crash_notify: Vec<Option<StateId>> = vec![None; size];
        for &(from, to) in &self.crash_notify {
            match crash_notify[from.index()] {
                Some(existing) if existing != to => {
                    return Err(ProtocolError::ConflictingNotify(
                        self.state_names[from.index()].clone(),
                    ));
                }
                _ => crash_notify[from.index()] = Some(to),
            }
        }

        Ok(RuleProtocol {
            name: self.name.clone(),
            state_names: self.state_names.clone(),
            initial: self.initial.unwrap_or(StateId::new(0)),
            output,
            table,
            effects,
            rules: self.rules.clone(),
            crash_notify,
        })
    }
}

/// A flat network constructor backed by a dense rule table.
///
/// Created by [`ProtocolBuilder::build`]; implements [`Machine`] with
/// `State = StateId`, applying the paper's symmetry convention and the
/// equiprobable assignment coin for symmetric-input/asymmetric-output
/// rules.
#[derive(Debug, Clone)]
pub struct RuleProtocol {
    name: String,
    state_names: Vec<String>,
    initial: StateId,
    output: Vec<bool>,
    table: Vec<Option<RuleRhs>>,
    /// Per triple: whether some outcome differs from the left-hand side,
    /// and whether some outcome changes the edge state.
    effects: EffectTable,
    rules: Vec<Rule>,
    /// Per-state crash-notification target (`None` = ignore).
    crash_notify: Vec<Option<StateId>>,
}

impl RuleProtocol {
    /// The number of states `|Q|` — the paper's measure of protocol size.
    #[must_use]
    pub fn size(&self) -> usize {
        self.state_names.len()
    }

    /// Looks up a state id by its paper name.
    #[must_use]
    pub fn state(&self, name: &str) -> Option<StateId> {
        self.state_names
            .iter()
            .position(|n| n == name)
            .map(|i| StateId::new(u16::try_from(i).expect("validated at build")))
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

    /// The rules in declaration order (effective transitions only, as in
    /// the paper's listings).
    #[must_use]
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The right-hand side for the ordered triple `(a, b, link)`, if any.
    ///
    /// Both orders of any defined unordered triple are present (the
    /// builder mirrors them), so this is a complete description of δ.
    #[inline]
    #[must_use]
    pub fn lookup(&self, a: StateId, b: StateId, link: Link) -> Option<&RuleRhs> {
        let size = self.size();
        self.table[(a.index() * size + b.index()) * 2 + usize::from(link.is_on())].as_ref()
    }

    /// The effect bits the compiled table shares.
    pub(crate) fn effects(&self) -> &EffectTable {
        &self.effects
    }

    /// The crash-notification target of state `s`, if the protocol
    /// declared one with [`ProtocolBuilder::on_crash`].
    #[must_use]
    pub fn crash_notify_target(&self, s: StateId) -> Option<StateId> {
        self.crash_notify[s.index()]
    }

    /// δ's outcome for the defined slot `rhs` of `(a, b, link)`: samples a
    /// randomized right-hand side, then flips the §3.1 symmetry coin —
    /// equal input states with distinct outputs are the only case where
    /// symmetry must be broken by a coin. `None` for an identity outcome.
    #[inline(never)]
    fn apply(
        rhs: &RuleRhs,
        a: StateId,
        b: StateId,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(StateId, StateId, Link)> {
        let (mut a2, mut b2, l2) = rhs.sample(rng);
        if a == b && a2 != b2 && rng.random_bool(0.5) {
            std::mem::swap(&mut a2, &mut b2);
        }
        if (a2, b2, l2) == (a, b, link) {
            None
        } else {
            Some((a2, b2, l2))
        }
    }
}

impl Machine for RuleProtocol {
    type State = StateId;

    fn name(&self) -> &str {
        &self.name
    }

    fn initial_state(&self) -> StateId {
        self.initial
    }

    fn is_output(&self, state: &StateId) -> bool {
        self.output[state.index()]
    }

    /// The lookup is inlined into the caller's draw loop, where most
    /// draws of a converging protocol end at an empty slot; applying a
    /// defined rule stays out of line.
    #[inline]
    fn interact(
        &self,
        a: &StateId,
        b: &StateId,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(StateId, StateId, Link)> {
        let rhs = self.lookup(*a, *b, link)?;
        Self::apply(rhs, *a, *b, link, rng)
    }

    fn can_affect(&self, a: &StateId, b: &StateId, link: Link) -> bool {
        self.effects.can_affect(a.index(), b.index(), link)
    }

    fn on_crash_notify(&self, state: &StateId) -> Option<StateId> {
        self.crash_notify[state.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn two_state() -> (RuleProtocol, StateId, StateId) {
        let mut b = ProtocolBuilder::new("t");
        let a = b.state("a");
        let c = b.state("c");
        b.rule((a, c, OFF), (c, c, ON));
        let p = b.build().expect("valid");
        (p, a, c)
    }

    #[test]
    fn lookup_is_order_insensitive() {
        let (p, a, c) = two_state();
        let mut rng = SmallRng::seed_from_u64(0);
        // Rule defined as (a, c); querying as (c, a) must swap the result.
        let (x, y, l) = p.interact(&c, &a, OFF, &mut rng).expect("effective");
        assert_eq!((x, y, l), (c, c, ON));
        assert!(p.can_affect(&c, &a, OFF));
        assert!(!p.can_affect(&c, &a, ON));
    }

    #[test]
    fn ineffective_interactions_return_none() {
        let (p, a, _c) = two_state();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(p.interact(&a, &a, OFF, &mut rng).is_none());
    }

    #[test]
    fn identity_rule_is_reported_ineffective() {
        let mut b = ProtocolBuilder::new("id");
        let a = b.state("a");
        b.rule((a, a, OFF), (a, a, OFF));
        let p = b.build().expect("valid");
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(p.interact(&a, &a, OFF, &mut rng).is_none());
        assert!(!p.can_affect(&a, &a, OFF));
    }

    #[test]
    fn symmetric_coin_assigns_both_ways() {
        // (a, a, 0) → (a, b, 1): both assignments must occur.
        let mut b = ProtocolBuilder::new("coin");
        let a = b.state("a");
        let c = b.state("b");
        b.rule((a, a, OFF), (a, c, ON));
        let p = b.build().expect("valid");
        let mut rng = SmallRng::seed_from_u64(5);
        let mut first = 0;
        let mut second = 0;
        for _ in 0..200 {
            match p.interact(&a, &a, OFF, &mut rng).expect("effective") {
                (x, y, ON) if x == a && y == c => first += 1,
                (x, y, ON) if x == c && y == a => second += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(first > 50 && second > 50, "{first} vs {second}");
    }

    #[test]
    fn randomized_rule_samples_both_branches() {
        let mut b = ProtocolBuilder::new("prel");
        let l = b.state("l");
        let f = b.state("f");
        let ld = b.state("ld");
        let fd = b.state("fd");
        b.rule_random((l, f, OFF), [(1, (ld, fd, OFF)), (1, (f, l, OFF))]);
        let p = b.build().expect("valid");
        let mut rng = SmallRng::seed_from_u64(1);
        let mut marked = 0;
        let mut swapped = 0;
        for _ in 0..200 {
            match p.interact(&l, &f, OFF, &mut rng).expect("effective") {
                (x, y, OFF) if x == ld && y == fd => marked += 1,
                (x, y, OFF) if x == f && y == l => swapped += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(marked > 50 && swapped > 50, "{marked} vs {swapped}");
    }

    #[test]
    fn conflicting_rules_rejected() {
        let mut b = ProtocolBuilder::new("bad");
        let a = b.state("a");
        let c = b.state("c");
        b.rule((a, c, OFF), (a, a, ON));
        b.rule((c, a, OFF), (a, a, OFF));
        assert!(matches!(
            b.build(),
            Err(ProtocolError::ConflictingRules(_))
        ));
    }

    #[test]
    fn consistent_mirrored_rules_accepted() {
        // Defining both orders with outcomes that agree under the swap is
        // fine (parameterized protocols generate these).
        let mut b = ProtocolBuilder::new("ok");
        let a = b.state("a");
        let c = b.state("c");
        b.rule((a, c, OFF), (a, a, ON));
        b.rule((c, a, OFF), (a, a, ON));
        assert!(b.build().is_ok());
    }

    #[test]
    fn zero_weight_rejected() {
        let mut b = ProtocolBuilder::new("w");
        let a = b.state("a");
        b.rule_random((a, a, OFF), [(0, (a, a, ON))]);
        assert!(matches!(b.build(), Err(ProtocolError::BadWeights(_))));
    }

    #[test]
    fn no_states_rejected() {
        assert!(matches!(
            ProtocolBuilder::new("empty").build(),
            Err(ProtocolError::NoStates)
        ));
    }

    #[test]
    fn state_names_roundtrip() {
        let (p, a, c) = two_state();
        assert_eq!(p.state("a"), Some(a));
        assert_eq!(p.state("c"), Some(c));
        assert_eq!(p.state("missing"), None);
        assert_eq!(p.state_name(a), "a");
        assert_eq!(p.size(), 2);
        assert_eq!(p.initial_state(), a, "first declared state is q0");
    }

    #[test]
    fn crash_notify_declarations() {
        let mut b = ProtocolBuilder::new("notify");
        let c = b.state("c");
        let p = b.state("p");
        b.rule((c, c, OFF), (c, p, ON));
        b.on_crash(p, c);
        b.on_crash(p, c); // same target again is fine
        let proto = b.build().expect("valid");
        assert_eq!(proto.crash_notify_target(p), Some(c));
        assert_eq!(proto.crash_notify_target(c), None);
        assert_eq!(proto.on_crash_notify(&p), Some(c));
        assert_eq!(proto.on_crash_notify(&c), None);
    }

    #[test]
    fn conflicting_crash_notify_rejected() {
        let mut b = ProtocolBuilder::new("bad-notify");
        let a = b.state("a");
        let c = b.state("c");
        b.rule((a, c, OFF), (c, c, ON));
        b.on_crash(a, c);
        b.on_crash(a, a);
        assert!(matches!(
            b.build(),
            Err(ProtocolError::ConflictingNotify(ref s)) if s == "a"
        ));
    }

    #[test]
    fn output_states_restriction() {
        let mut b = ProtocolBuilder::new("out");
        let a = b.state("a");
        let c = b.state("c");
        b.output_states(&[c]);
        let p = b.build().expect("valid");
        assert!(!p.is_output(&a));
        assert!(p.is_output(&c));
    }
}
