//! The generic interaction interface shared by flat rule tables and
//! composite-state constructions.

use rand::Rng;

use crate::Link;

/// A population protocol with network construction: the executable form of
/// the paper's `(Q, q₀, Q_out, δ)`.
///
/// Implementations fall in two groups:
///
/// * [`RuleProtocol`](crate::RuleProtocol) — flat protocols whose states are
///   dense [`StateId`](crate::StateId)s and whose δ is a literal rule table,
///   exactly as the paper lists them;
/// * composite machines (Turing-machine-on-a-line simulations, supernode
///   organizers) whose states are structured Rust values. The model is
///   unchanged — only the representation of `Q` differs.
///
/// # Contract
///
/// [`interact`](Machine::interact) receives the states of the two nodes the
/// scheduler selected, in an arbitrary order, plus the state of the edge
/// joining them. It must be *symmetric*: the behaviour may not depend on
/// the order of the arguments beyond the order of the returned states
/// (`δ₁(a,b,c) = δ₂(b,a,c)` in the paper's formulation). When both input
/// states are equal and the rule output is asymmetric, the implementation
/// must assign the two output states equiprobably using the supplied
/// generator — the single symmetry-breaking coin the model allows (§3.1).
///
/// Returning `None` declares the interaction *ineffective*: nothing
/// changes. Implementations should return `None` rather than an identity
/// triple so the engine can maintain effectiveness statistics.
pub trait Machine {
    /// The node-state type `Q`.
    type State: Clone + PartialEq + std::fmt::Debug;

    /// A human-readable protocol name (e.g. `"Simple-Global-Line"`).
    fn name(&self) -> &str;

    /// The common initial state `q₀` of every process.
    fn initial_state(&self) -> Self::State;

    /// Whether `s` is an output state (member of `Q_out`).
    ///
    /// Defaults to `true`: most protocols in the paper output on all
    /// states. Graph-Replication is the exception (`Q_out = {r, rₐ, r_d}`).
    fn is_output(&self, state: &Self::State) -> bool {
        let _ = state;
        true
    }

    /// Applies δ to an interacting pair. Returns the new states of the two
    /// nodes (in the same order as the arguments) and the new edge state,
    /// or `None` if the interaction is ineffective.
    fn interact(
        &self,
        a: &Self::State,
        b: &Self::State,
        link: Link,
        rng: &mut dyn Rng,
    ) -> Option<(Self::State, Self::State, Link)>;

    /// Whether an interaction between nodes in states `a` and `b` over an
    /// edge in state `link` *could* change anything (under any outcome of
    /// the protocol's internal coins).
    ///
    /// Used by quiescence detection; must not consume randomness. A sound
    /// over-approximation (returning `true` when unsure) is acceptable —
    /// it only makes quiescence detection more conservative.
    fn can_affect(&self, a: &Self::State, b: &Self::State, link: Link) -> bool;

    /// The crash-notification transition of the fault-notification model
    /// ("Fault Tolerant Network Constructors", arXiv 1903.05992): when a
    /// node crashes, each alive node that *lost an active edge* to it is
    /// notified, and its state is remapped by this function — a
    /// deterministic, machine-defined adjunct to δ that consumes no
    /// randomness.
    ///
    /// Returning `None` (the default) means the machine ignores crash
    /// notifications: the state is left unchanged, which reproduces the
    /// paper's silent-crash model where no baseline constructor can
    /// self-repair. A node notified of several simultaneous crashes has
    /// the map applied once per lost edge, in ascending crashed-neighbor
    /// order.
    fn on_crash_notify(&self, state: &Self::State) -> Option<Self::State> {
        let _ = state;
        None
    }
}
