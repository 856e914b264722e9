//! Test support: convergence assertions shared by protocol test suites.
//!
//! The paper's notion of stabilization is *forever after*: the output graph
//! must never change again. Tests therefore combine a stable predicate
//! (derived from each protocol's correctness proof) with a follow-up run
//! that asserts the output really stayed fixed.

use crate::{
    EnumerableMachine, EventSim, ExactEngine, Machine, Population, RunOutcome, Scheduler,
    Simulation, Uniform,
};

// The skip samplers, the endgame laws and the dense effective-pair set,
// for the equivalence suites' coin-level and brute-force checks and
// `engine_micro`; not part of the API.
#[doc(hidden)]
pub use crate::engine::{
    geometric_skip, hypergeometric_count, hypergeometric_count_large, hypergeometric_skip,
    unit_open01, PairSet,
};
#[doc(hidden)]
pub use crate::walk::{exit_cdf, sample_absorption, survival, time_cap};

/// A generous-but-finite step budget for convergence tests at population
/// size `n`.
///
/// The slowest constructor exercised by the test suites is
/// Simple-Global-Line at O(n⁵) expected interactions; `1000·n⁴` clears the
/// observed convergence times at the suite's population sizes (n ≤ 32) by
/// two to three orders of magnitude while still failing fast — minutes, not
/// forever — when a protocol genuinely diverges. Tests should pass this
/// instead of `u64::MAX` so a regression cannot hang `cargo test`.
///
/// The `NETCON_TEST_STEP_BUDGET` environment variable overrides the
/// computed value (useful for bisecting a slow protocol or tightening CI).
///
/// # Panics
///
/// Panics if `NETCON_TEST_STEP_BUDGET` is set but is not a step count.
#[must_use]
pub fn step_budget(n: usize) -> u64 {
    if let Some(v) = crate::env_knob("NETCON_TEST_STEP_BUDGET") {
        return v;
    }
    let n = n as u64;
    1_000u64
        .saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(n)
        .saturating_mul(n)
        .max(10_000_000)
}

/// Runs `machine` on `n` fresh nodes until `stable` holds, then continues
/// for `extra` steps asserting the active-edge set no longer changes.
/// Returns the simulation at the end for further inspection.
///
/// # Panics
///
/// Panics (with context) if the run exhausts `max_steps` before `stable`
/// holds, or if the output graph changes during the follow-up phase.
pub fn assert_stabilizes<M: Machine>(
    machine: M,
    n: usize,
    seed: u64,
    stable: impl FnMut(&Population<M::State>) -> bool,
    max_steps: u64,
    extra: u64,
) -> Simulation<M, Uniform> {
    let sim = Simulation::new(machine, n, seed);
    assert_stabilizes_sim(sim, stable, max_steps, extra)
}

/// Runs `machine` on `n` fresh nodes until `stable` holds, then continues
/// for `extra` steps asserting the active-edge set no longer changes —
/// on the event-driven engine. Drop-in for [`assert_stabilizes`] when the
/// machine is enumerable; orders of magnitude faster for the slow
/// constructors.
///
/// # Panics
///
/// Panics (with context) if the run exhausts `max_steps` before `stable`
/// holds, or if the output graph changes during the follow-up phase.
pub fn assert_stabilizes_event<M: EnumerableMachine>(
    machine: M,
    n: usize,
    seed: u64,
    stable: impl FnMut(&Population<M::State>) -> bool,
    max_steps: u64,
    extra: u64,
) -> EventSim<M> {
    let name = machine.name().to_owned();
    let mut sim = EventSim::new(machine, n, seed);
    let outcome = sim.run_until(stable, max_steps);
    assert!(
        matches!(outcome, RunOutcome::Stabilized { .. }),
        "{name} on n={n} did not stabilize within {max_steps} steps (event engine)"
    );
    let frozen = sim.population().edges().clone();
    let target = sim.steps().saturating_add(extra);
    sim.run_to(target);
    assert_eq!(
        *sim.population().edges(),
        frozen,
        "{name} on n={n}: output graph changed after the stable predicate held — \
         the predicate does not certify stability (event engine)"
    );
    sim
}

/// Like [`assert_stabilizes`] but starting from a prepared simulation
/// (custom initial configuration or scheduler).
///
/// # Panics
///
/// Panics (with context) if the run exhausts `max_steps` before `stable`
/// holds, or if the output graph changes during the follow-up phase.
pub fn assert_stabilizes_sim<M: Machine, S: Scheduler>(
    mut sim: Simulation<M, S>,
    stable: impl FnMut(&Population<M::State>) -> bool,
    max_steps: u64,
    extra: u64,
) -> Simulation<M, S> {
    let name = sim.machine().name().to_owned();
    let n = sim.population().n();
    let outcome = sim.run_until(stable, max_steps);
    assert!(
        matches!(outcome, RunOutcome::Stabilized { .. }),
        "{name} on n={n} did not stabilize within {max_steps} steps"
    );
    let frozen = sim.population().edges().clone();
    sim.run_for(extra);
    assert_eq!(
        *sim.population().edges(),
        frozen,
        "{name} on n={n}: output graph changed after the stable predicate held — \
         the predicate does not certify stability"
    );
    sim
}
