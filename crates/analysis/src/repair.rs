//! Self-repair measurements: perturb a stabilized network with a burst
//! of faults, then measure how long the protocol takes to re-stabilize.
//!
//! The paper's constructors are analyzed from the all-`q0` initial
//! configuration, but several of them are *self-stabilizing against
//! specific perturbations* (a star re-grows a deleted spoke; a line
//! absorbs a fresh node). [`repair_time`] quantifies that: run to
//! stability, apply a [`FaultSeverity`] burst of crashes / arrivals /
//! edge deletions in one shot, and run to stability again. The repair
//! time is the number of steps after the perturbation at which the
//! output graph last changed — 0 when the protocol has no rule that
//! re-fires on the damage (an honest "does not self-repair" reading,
//! not an error).
//!
//! Measurements ride the fault layer shared by all four engines
//! ([`netcon_core::fault`]), so they are engine-independent like every
//! other sweep in this crate.

use netcon_core::fault::{FaultEvent, FaultPlan, FaultState};
use netcon_core::{CompiledTable, Engine, EngineView, Machine, RuleProtocol};

use crate::sweep::{sweep, SweepConfig, SweepTable};

/// The perturbation applied between the two stabilization phases of a
/// [`repair_time`] measurement: how many nodes crash, how many fresh
/// nodes arrive, and how many uniformly-chosen active edges are deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSeverity {
    /// Uniformly-chosen alive nodes to crash.
    pub crashes: u32,
    /// Fresh nodes (in the initial state) to admit.
    pub arrivals: u32,
    /// Uniformly-chosen active edges to delete (at most the number of
    /// active edges at perturbation time).
    pub edge_deletions: u32,
}

impl Default for FaultSeverity {
    /// One crash, one arrival, one edge deletion — the mildest mixed
    /// perturbation.
    fn default() -> Self {
        Self {
            crashes: 1,
            arrivals: 1,
            edge_deletions: 1,
        }
    }
}

impl FaultSeverity {
    /// The [`FaultPlan`] realizing this severity, reproducible from
    /// `seed`. Events are scheduled at `u64::MAX` — repair measurements
    /// apply them manually with
    /// [`Engine::apply_faults_now`](netcon_core::Engine::apply_faults_now)
    /// once the first phase has stabilized, since the stabilization step
    /// itself is random.
    #[must_use]
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        for _ in 0..self.crashes {
            plan = plan.at(u64::MAX, FaultEvent::CrashRandom);
        }
        for _ in 0..self.arrivals {
            plan = plan.at(u64::MAX, FaultEvent::Arrive);
        }
        if self.edge_deletions > 0 {
            plan = plan.at(
                u64::MAX,
                FaultEvent::DeleteRandomActiveEdges(self.edge_deletions),
            );
        }
        plan
    }
}

/// One perturb-and-repair measurement (see [`repair_time`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairResult {
    /// When the unperturbed run converged (the paper's running time).
    pub converged_at: u64,
    /// The step at which the fault burst was applied (= the step the
    /// first phase's stability was detected).
    pub perturbed_at: u64,
    /// Steps from the perturbation to the last output change of the
    /// re-stabilized run: 0 when nothing re-fired on the damage.
    pub repair: u64,
}

/// Runs `protocol` to stability, applies the `severity` burst, runs to
/// stability again, and reports both phases. The engine is
/// [`Engine::auto_faulted`] — dense or sparse by the usual budget —
/// so the measurement is engine-independent.
///
/// `stable` reads the engine view *and* the fault state: a repair
/// predicate must judge stability relative to the alive population (a
/// crashed node cannot count against a spanning condition). It is
/// consulted with the pre-burst fault state in phase 1 and the
/// post-burst state in phase 2. Each phase gets its own `max_steps`
/// budget.
///
/// # Panics
///
/// Panics if either phase fails to stabilize within its budget — repair
/// sweeps are measurements, and a censored sample would bias the curve.
pub fn repair_time(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    severity: FaultSeverity,
    stable: impl Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool,
    max_steps: u64,
) -> RepairResult {
    let name = protocol.name();
    let mut eng = Engine::auto_faulted(protocol.compile(), n, seed, severity.plan(seed));
    let fs0 = eng.fault_state().expect("faulted engine").clone();
    let converged_at = eng
        .run_until(|v| stable(v, &fs0), max_steps)
        .converged_at()
        .unwrap_or_else(|| panic!("{name} did not stabilize on n={n} within {max_steps}"));
    eng.apply_faults_now();
    let perturbed_at = eng.steps();
    let repaired_at = eng
        .run_faulted_until(&stable, perturbed_at.saturating_add(max_steps))
        .converged_at()
        .unwrap_or_else(|| {
            panic!("{name} did not re-stabilize on n={n} within {max_steps} of the perturbation")
        });
    RepairResult {
        converged_at,
        perturbed_at,
        repair: repaired_at.saturating_sub(perturbed_at),
    }
}

/// Sweeps [`repair_time`]'s `repair` column over the configured sizes
/// and trials (the usual parallel, seed-derived sweep). The sample unit
/// is steps-after-perturbation; protocols that do not self-repair the
/// given severity produce all-zero rows, which is the result, not a
/// failure.
///
/// # Panics
///
/// As [`repair_time`], for any trial.
pub fn sweep_repair_time<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    severity: FaultSeverity,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool + Sync,
{
    sweep(cfg, |n, seed| {
        repair_time(protocol, n, seed, severity, &stable, max_steps).repair as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::{Link, ProtocolBuilder};

    fn matching() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, Link::Off), (m, m, Link::On));
        b.build().expect("valid")
    }

    /// Alive nodes still in the unmatched state, from the view.
    fn unmatched_alive(v: &EngineView<'_, CompiledTable>, fs: &FaultState) -> usize {
        (0..v.n())
            .filter(|&u| fs.is_alive(u) && v.state_index(u) == 0)
            .count()
    }

    #[test]
    fn matching_repairs_arrivals_but_not_matched_crashes() {
        // Two arrivals and no other damage: the two fresh `a` nodes must
        // match each other (or nobody), so repair is positive whenever
        // they do. With crashes only, a crashed matched node leaves its
        // partner matched-but-widowed — no rule re-fires, repair = 0.
        let arrivals_only = FaultSeverity {
            crashes: 0,
            arrivals: 2,
            edge_deletions: 0,
        };
        let r = repair_time(
            &matching(),
            8,
            3,
            arrivals_only,
            |v, fs| unmatched_alive(v, fs) <= 1,
            10_000_000,
        );
        assert!(r.repair > 0, "fresh pair should match: {r:?}");
        assert!(r.converged_at <= r.perturbed_at);

        let crashes_only = FaultSeverity {
            crashes: 2,
            arrivals: 0,
            edge_deletions: 0,
        };
        let r = repair_time(
            &matching(),
            8,
            3,
            crashes_only,
            |v, fs| unmatched_alive(v, fs) <= 1,
            10_000_000,
        );
        assert_eq!(r.repair, 0, "matching cannot re-pair the widowed: {r:?}");
    }

    #[test]
    fn repair_sweep_is_reproducible() {
        let cfg = SweepConfig {
            sizes: vec![6, 10],
            trials: 3,
            base_seed: 9,
        };
        let severity = FaultSeverity::default();
        let run = || {
            sweep_repair_time(
                &cfg,
                &matching(),
                severity,
                |v, fs| unmatched_alive(v, fs) <= 1,
                10_000_000,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.rows[0].samples, b.rows[0].samples);
        assert_eq!(a.rows[1].samples, b.rows[1].samples);
    }
}
