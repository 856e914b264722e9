//! The network-constructor model of Michail & Spirakis (PODC 2014).
//!
//! A *network constructor* (NET) is a distributed protocol
//! `(Q, q₀, Q_out, δ)` executed by a population of `n` anonymous,
//! identical, finite-state processes. An adversary scheduler repeatedly
//! selects an unordered pair of processes; the pair interacts, and the
//! transition function
//!
//! ```text
//! δ : Q × Q × {0, 1} → Q × Q × {0, 1}
//! ```
//!
//! rewrites the two node states and the binary state of the edge joining
//! them. All edges start inactive; the protocol's *output* is the subgraph
//! induced by the active edges (restricted to nodes in output states), and
//! an execution *stabilizes* when the output graph stops changing forever.
//!
//! # The public API
//!
//! Everything a caller needs is re-exported at the crate root; the
//! remaining public modules group the model's parts.
//!
//! * The model: [`StateId`], [`Link`], [`Population`] (node states plus
//!   the active-edge set) and [`Machine`], the generic interaction
//!   interface that composite-state constructions (Turing-machine
//!   simulations, supernodes) share with flat rule tables.
//! * Rule tables, [`rules`]: [`ProtocolBuilder`], [`RuleProtocol`],
//!   [`Rule`], [`RuleRhs`] and [`ProtocolError`], mirroring the paper's
//!   protocol listings, including the ½/½ randomized transitions of the
//!   `PREL` extension. [`compiled`] lowers them to [`CompiledTable`], the
//!   only machine the skip engines take (through the sealed
//!   [`EnumerableMachine`]; [`EffectTable`] holds its effect bits).
//! * Schedulers, [`scheduler`]: [`Scheduler`], the uniform random
//!   [`Uniform`] that all running-time analyses use, and the fair
//!   [`RoundRobin`] and [`ShuffledRounds`].
//! * The naive step loop, [`sim`]: [`Simulation`], with the paper-exact
//!   symmetry-breaking coin, [`StepResult`] and [`RunOutcome`].
//! * The exact skip engines, written once over the sealed run loops
//!   [`ExactEngine`] and [`RoundEngine`]; [`EventStep`] is one step's
//!   result.
//!   - [`EventSim`]: uniform scheduler, geometric skips over a dense
//!     pair set.
//!   - [`BucketSim`]: the same law in O(n + |Q|²) memory by state
//!     class, read through [`SparsePop`], for n ≥ 100 000.
//!   - [`RoundSim`]: ShuffledRounds, hypergeometric within-round skips
//!     and lazily resolved skipped-pair identities, for parallel time in
//!     rounds.
//!   - [`RoundBucketSim`]: the same round law in O(n + |Q|²) memory via
//!     counted cohorts of scheduled identities.
//! * Engine selection, [`select`]: [`Engine::auto`] / [`Engine::auto_for`]
//!   pick an engine for a [`SchedulerKind`] by a memory budget, and
//!   predicates read the representation-neutral [`EngineView`].
//! * Faults, [`fault`]: [`FaultPlan`], [`FaultEvent`], [`FaultState`] and
//!   [`ChurnPlan`] (crashes, arrivals, edge deletions, Poisson churn,
//!   crash notifications), executed exactly by all five engines;
//!   [`fault::adversary`] adds [`AdversaryPlan`], [`AdversaryPolicy`] and
//!   [`Cadence`], targeted damage decided against the live
//!   configuration.
//! * [`seeds`], the seed-derivation functions every sweep uses, and
//!   [`testing`], the convergence assertions shared by test suites.
//!
//! The engines' internals (samplers, candidate structures, the shared
//! driver) are crate-private. Their exactness arguments head their
//! source files under `crates/core/src` (`event.rs`, `bucket.rs`,
//! `round.rs`, `round_bucket.rs`, `driver.rs` and `walk.rs`), and the
//! top-level `docs/engines.md` consolidates them.
//!
//! # Choosing an engine
//!
//! [`Simulation`] executes every scheduler draw — use it for adversarial
//! (non-uniform) schedulers, for machines with huge state spaces, or when
//! the per-draw trace itself is the object of study. [`EventSim`] is the
//! default for measurement: identical output distribution under the
//! uniform scheduler at a cost proportional to *effective* interactions
//! (10–1000× fewer for the paper's constructors at interesting sizes).
//! [`BucketSim`] counts the same effective pairs by state class in
//! O(n + |Q|²) memory — the frontier engine beyond n ≈ 20 000. [`RoundSim`] is the
//! same idea for the [`ShuffledRounds`] box scheduler, where parallel
//! time is measured in rounds, and [`RoundBucketSim`] is its sparse
//! counterpart for round-denominated runs at frontier sizes.
//! [`Engine::auto`] makes the dense/sparse
//! call for you; [`Engine::auto_for`] adds the scheduler family. The
//! top-level `docs/engines.md` consolidates the exactness arguments and
//! the measured decision table.
//!
//! # Example: the spanning-star code from the introduction
//!
//! ```
//! use netcon_core::{Link, ProtocolBuilder, Simulation};
//! use netcon_graph::properties::is_spanning_star;
//!
//! let mut b = ProtocolBuilder::new("intro-star");
//! let black = b.state("black");
//! let red = b.state("red");
//! // Blacks merge, reds repel, black attracts red.
//! b.rule((black, black, Link::Off), (black, red, Link::On));
//! b.rule((red, red, Link::On), (red, red, Link::Off));
//! b.rule((black, red, Link::Off), (black, red, Link::On));
//! let protocol = b.build()?;
//!
//! let mut sim = Simulation::new(protocol, 20, 42);
//! let outcome = sim.run_until(|p| is_spanning_star(p.edges()), 10_000_000);
//! assert!(outcome.stabilized());
//! # Ok::<(), netcon_core::ProtocolError>(())
//! ```
//!
//! # Internals are not paths
//!
//! The engines' modules are private, so neither their samplers nor
//! their module paths can be named:
//!
//! ```compile_fail
//! use netcon_core::walk::sample_gamma;
//! ```
//!
//! ```compile_fail
//! use netcon_core::bucket::BucketSim;
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bucket;
mod driver;
mod engine;
mod event;
mod machine;
mod population;
mod round;
mod round_bucket;
mod state;
mod walk;

pub mod compiled;
pub mod fault;
pub mod rules;
pub mod scheduler;
pub mod seeds;
pub mod select;
pub mod sim;
pub mod testing;

pub use bucket::{BucketSim, SparsePop};
pub use compiled::{CompiledTable, EffectTable, EnumerableMachine};
pub use driver::{ExactEngine, RoundEngine};
pub use event::{EventSim, EventStep};
pub use fault::adversary::{AdversaryPlan, AdversaryPolicy, Cadence};
pub use fault::{ChurnPlan, FaultEvent, FaultPlan, FaultState};
pub use round::RoundSim;
pub use round_bucket::RoundBucketSim;
pub use select::{Engine, EngineView, SchedulerKind};
pub use machine::Machine;
pub use population::Population;
pub use rules::{ProtocolBuilder, ProtocolError, Rule, RuleProtocol, RuleRhs};
pub use scheduler::{RoundRobin, Scheduler, ShuffledRounds, Uniform};
pub use sim::{RunOutcome, Simulation, StepResult};
pub use state::{Link, StateId};

/// Reads environment knob `name` as a `T`; `None` when it is unset.
///
/// # Panics
///
/// Panics, naming the variable and its value, when it is set but does
/// not parse — a typo must not silently run the default.
pub(crate) fn env_knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_knob(name, std::env::var_os(name))
}

/// [`env_knob`] over the variable's raw value.
fn parse_knob<T: std::str::FromStr>(name: &str, value: Option<std::ffi::OsString>) -> Option<T> {
    let v = value?;
    let parsed = v.to_str().and_then(|s| s.parse().ok());
    let ty = std::any::type_name::<T>();
    Some(parsed.unwrap_or_else(|| panic!("{name}={v:?} is not a valid {ty}")))
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn knobs_default_when_unset_and_parse_when_set() {
        assert_eq!(parse_knob::<u64>("BUDGET", None), None);
        assert_eq!(parse_knob::<u64>("BUDGET", Some("4096".into())), Some(4096));
    }

    #[test]
    #[should_panic(expected = "BUDGET=\"1%\" is not a valid u64")]
    fn malformed_knobs_fail_loudly() {
        parse_knob::<u64>("BUDGET", Some("1%".into()));
    }
}
