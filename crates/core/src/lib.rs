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
//! This crate provides the executable model:
//!
//! * [`StateId`] and [`Link`] — node-state and edge-state value types;
//! * [`rules`] — declarative rule tables ([`ProtocolBuilder`],
//!   [`RuleProtocol`]) mirroring the paper's protocol listings, including
//!   the ½/½ randomized transitions of the `PREL` extension;
//! * [`Machine`] — the generic interaction interface, so composite-state
//!   constructions (Turing-machine simulations, supernodes) can share the
//!   naive engine with flat rule tables;
//! * [`Population`] — node states plus the active-edge set;
//! * [`scheduler`] — the uniform random scheduler used by all running-time
//!   analyses, plus fair deterministic adversaries for correctness testing;
//! * [`sim`] — the naive step loop with the paper-exact symmetry-breaking
//!   coin, convergence bookkeeping, and quiescence checks;
//! * [`compiled`] — [`CompiledTable`], the flat allocation-free lowering
//!   of a [`RuleProtocol`] and the only machine the skip engines take
//!   (through the sealed [`EnumerableMachine`], dense state indices);
//! * [`event`] — [`EventSim`], the exact event-driven engine that skips
//!   ineffective interactions via geometric jumps while preserving every
//!   measured distribution of the naive loop;
//! * [`bucket`] — [`BucketSim`], the sparse state-bucketed event engine:
//!   the same distribution in O(n + |Q|²) memory, for populations the
//!   dense pair set cannot touch (n ≥ 100 000);
//! * [`round`] — [`RoundSim`], the exact event-driven ShuffledRounds
//!   engine: hypergeometric within-round skips plus lazily-resolved
//!   skipped-pair identities, for experiments that measure parallel
//!   time in rounds;
//! * [`round_bucket`] — [`RoundBucketSim`], the sparse exact
//!   ShuffledRounds engine: the same round law in O(n + |Q|²) memory via
//!   counted cohorts of scheduled identities, for round-denominated
//!   sweeps at n ≥ 100 000;
//! * [`select`] — [`Engine::auto`] / [`Engine::auto_for`], which pick an
//!   engine for a scheduler family by a memory budget and run predicates
//!   over a representation-neutral [`EngineView`];
//! * [`fault`] — [`FaultPlan`] / [`FaultState`] / [`ChurnPlan`], the
//!   deterministic seed-derived fault/churn layer (crashes, arrivals,
//!   edge deletions, sustained Poisson churn, crash notifications)
//!   shared by all five engines with exact candidate reclassification;
//! * [`fault::adversary`] — [`AdversaryPlan`] / [`AdversaryPolicy`] /
//!   [`Cadence`], the configuration-adaptive worst-case layer: targeted
//!   damage decided at scheduled draws against the live configuration,
//!   applied through the same resolved-fault path on every engine.
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

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod machine;
mod population;
mod state;

pub mod bucket;
pub mod compiled;
pub mod driver;
pub mod event;
pub mod fault;
pub mod round;
pub mod round_bucket;
pub mod rules;
pub mod scheduler;
pub mod seeds;
pub mod select;
pub mod sim;
pub mod testing;
pub mod walk;

pub use bucket::{BucketSim, SparsePop};
pub use compiled::{CompiledTable, EffectTable, EnumerableMachine};
pub use driver::ExactEngine;
pub use engine::{
    geometric_skip, hypergeometric_count, hypergeometric_count_large, hypergeometric_skip,
    unit_open01, PairSet,
};
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
