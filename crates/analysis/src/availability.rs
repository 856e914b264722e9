//! Availability under sustained churn: how often a constructor's output
//! is stable while nodes keep arriving and crashing, and how fast it
//! re-stabilizes once the stream ends.
//!
//! Where [`repair`](crate::repair) measures recovery from a *one-shot*
//! burst, this module measures life under an *open-ended* fault stream
//! — the continuous-churn regime of NETCS-style workloads. A
//! [`ChurnPlan`] compiles the stream into a draw-indexed
//! [`FaultPlan`](netcon_core::FaultPlan), so the measurement rides
//! [`Engine::auto_faulted`] exactly like every other sweep: any of the
//! four engines produces the identical event schedule.
//!
//! The estimator is window-exact rather than per-draw sampled: between
//! consecutive churn events the run is fault-free, so once the
//! fault-mode predicate holds at a window's end, the output graph has
//! been its stable final form since the engine's last output-graph
//! change — every draw from that change to the window end was
//! available. [`availability`] therefore attributes
//! `window_end − max(last_output_change, window_start)` available draws
//! per stable window and nothing per unstable window, with no sampling
//! error beyond the conservative drop of state-only churn (a window
//! whose output graph is finished but whose states still walk counts
//! only from the predicate's perspective at the window end).

use netcon_core::{ChurnPlan, CompiledTable, Engine, EngineView, FaultState, RuleProtocol};

use crate::sweep::{sweep, SweepConfig, SweepTable};

/// One availability measurement under a churn stream (see
/// [`availability`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityResult {
    /// Draws during the churn horizon on which the output graph was its
    /// (then-current) stable form.
    pub available_draws: u64,
    /// The churn horizon: draws from 0 to the last scheduled event.
    pub total_draws: u64,
    /// Steps from the last churn event to re-stabilization, or `None`
    /// if the run did not re-stabilize within its budget.
    pub repair: Option<u64>,
}

impl AvailabilityResult {
    /// `available_draws / total_draws` (1 for an empty stream: a run
    /// with no churn is vacuously available).
    #[must_use]
    pub fn fraction_available(&self) -> f64 {
        if self.total_draws == 0 {
            1.0
        } else {
            self.available_draws as f64 / self.total_draws as f64
        }
    }
}

/// Runs `protocol` under `plan`'s churn stream and measures the
/// fraction of draws on which the output was stable, plus the
/// time-to-first-repair after the stream ends.
///
/// `stable` is the protocol's fault-mode predicate (stability relative
/// to the alive population), evaluated at the end of every inter-event
/// window — see the [module docs](self) for why that is exact. Windows
/// are cut at [`FaultPlan::boundary_times`](netcon_core::FaultPlan::boundary_times),
/// which covers scheduled events *and* adversary decision draws, so the
/// estimator stays window-exact under an adaptive
/// [`AdversaryPlan`](netcon_core::AdversaryPlan). After
/// the last event the engine runs up to `max_steps` more draws for the
/// repair phase; not re-stabilizing is reported as `repair: None`, not
/// a panic (a protocol that cannot repair the final configuration is a
/// measurement, not an error).
pub fn availability(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    plan: netcon_core::FaultPlan,
    stable: impl Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool,
    max_steps: u64,
) -> AvailabilityResult {
    availability_of(protocol.compile(), n, seed, plan, stable, max_steps)
}

/// [`availability`] of an already compiled protocol, so a sweep compiles
/// it once.
pub(crate) fn availability_of(
    table: CompiledTable,
    n: usize,
    seed: u64,
    plan: netcon_core::FaultPlan,
    stable: impl Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool,
    max_steps: u64,
) -> AvailabilityResult {
    // Boundary times cover scheduled events *and* adversary decision
    // draws, so each window is fault-free even under an adaptive plan.
    let times: Vec<u64> = plan.boundary_times();
    let total_draws = times.last().copied().unwrap_or(0);
    let mut eng = Engine::auto_faulted(table, n, seed, plan);
    let mut available = 0u64;
    let mut window_start = 0u64;
    for &t in &times {
        // Draws `window_start..t` are fault-free: run to just before
        // the events at `t` apply and judge the window on the live view
        // (no draw).
        if t > window_start {
            eng.run_faulted_to(t - 1);
            if stable(&eng.view(), eng.fault_state().expect("faulted engine")) {
                available += t - eng.last_output_change().max(window_start);
            }
        }
        // Crossing `t` applies the events scheduled there.
        eng.run_faulted_to(t);
        window_start = t;
    }
    // The plan is exhausted, so the faulted run consults `stable` at once.
    debug_assert_eq!(eng.fault_state().and_then(FaultState::next_at), None);
    let end = eng.steps();
    let repair = eng
        .run_faulted_until(&stable, end.saturating_add(max_steps))
        .converged_at()
        .map(|at| at.saturating_sub(end));
    AvailabilityResult {
        available_draws: available,
        total_draws,
        repair,
    }
}

/// Sweeps [`availability`]'s `fraction_available` over the configured
/// sizes and trials: each trial reseeds `churn` from its own sweep seed
/// and compiles it for that trial's size, so streams are independent
/// across trials and proportionate across sizes.
pub fn sweep_availability<P>(
    cfg: &SweepConfig,
    protocol: &RuleProtocol,
    churn: ChurnPlan,
    stable: P,
    max_steps: u64,
) -> SweepTable
where
    P: Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool + Sync,
{
    let table = protocol.compile();
    sweep(cfg, |n, seed| {
        let plan = churn.reseeded(seed).compile(n);
        availability_of(table.clone(), n, seed, plan, &stable, max_steps).fraction_available()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::FaultPlan;

    /// A local FT-star transcription (the analysis crate does not
    /// depend on `netcon-protocols`; tests mirror `repair.rs`'s
    /// self-contained style).
    fn star() -> RuleProtocol {
        use netcon_core::{Link, ProtocolBuilder};
        let mut b = ProtocolBuilder::new("ft-star");
        let c = b.state("c");
        let p = b.state("p");
        b.rule((c, c, Link::Off), (c, p, Link::On));
        b.rule((p, p, Link::On), (p, p, Link::Off));
        b.rule((c, p, Link::Off), (c, p, Link::On));
        b.rule((c, c, Link::On), (c, p, Link::On));
        b.on_crash(p, c);
        b.build().expect("valid")
    }

    /// Unique alive centre of full alive degree.
    fn star_stable(v: &EngineView<'_, CompiledTable>, fs: &FaultState) -> bool {
        let centres: Vec<usize> = (0..v.n())
            .filter(|&u| fs.is_alive(u) && v.state_index(u) == 0)
            .collect();
        let alive = fs.alive_count();
        centres.len() == 1
            && alive >= 1
            && v.active_count() == alive - 1
            && v.degree(centres[0]) == alive - 1
    }

    #[test]
    fn empty_stream_is_fully_available() {
        let r = availability(&star(), 8, 1, FaultPlan::new(0), star_stable, 10_000_000);
        assert_eq!(r.total_draws, 0);
        assert_eq!(r.available_draws, 0);
        assert!((r.fraction_available() - 1.0).abs() < f64::EPSILON);
        assert!(r.repair.is_some(), "fault-free run stabilizes");
    }

    #[test]
    fn churned_star_is_mostly_available_and_repairs() {
        use netcon_core::ChurnPlan;
        let n = 10;
        let plan = ChurnPlan::new(7)
            .arrival_rate(5e-5)
            .departure_rate(5e-5)
            .min_alive(5)
            .horizon(200_000)
            .compile(n);
        assert!(!plan.is_empty(), "stream produces events at these rates");
        let r = availability(&star(), n, 3, plan, star_stable, u64::MAX);
        assert!(r.total_draws > 0);
        assert!(r.available_draws <= r.total_draws);
        assert!(
            r.fraction_available() > 0.5,
            "a 2-state star at these gentle rates is mostly up: {r:?}"
        );
        assert!(r.repair.is_some(), "FT-star repairs the final burst");
    }

    #[test]
    fn zero_length_horizon_is_defined_not_nan() {
        // Regression: a plan whose only boundaries sit at draw 0 (or an
        // empty plan) must report a defined fraction, never NaN from a
        // 0/0 division.
        let r = AvailabilityResult {
            available_draws: 0,
            total_draws: 0,
            repair: None,
        };
        assert!(!r.fraction_available().is_nan());
        assert!((r.fraction_available() - 1.0).abs() < f64::EPSILON);

        // End-to-end: an adversary whose single decision draw is at 0
        // yields a zero-length horizon through the real pipeline.
        use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence, FaultPlan};
        let plan = FaultPlan::new(11).with_adversary(
            AdversaryPlan::new(Cadence::Burst(vec![0]))
                .policy(AdversaryPolicy::CrashMaxDegree),
        );
        assert_eq!(plan.boundary_times(), vec![0]);
        let r = availability(&star(), 8, 2, plan, star_stable, u64::MAX);
        assert_eq!(r.total_draws, 0);
        assert!(!r.fraction_available().is_nan());
        assert!((r.fraction_available() - 1.0).abs() < f64::EPSILON);
        assert!(r.repair.is_some(), "star repairs the draw-0 crash");
    }

    #[test]
    fn adversary_decisions_cut_the_windows() {
        use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence, FaultPlan};
        let n = 10;
        let plan = FaultPlan::new(5).with_adversary(
            AdversaryPlan::new(Cadence::Periodic {
                start: 20_000,
                every: 20_000,
                count: 4,
            })
            .policy(AdversaryPolicy::CrashMaxDegree)
            .min_alive(5),
        );
        assert_eq!(plan.boundary_times().len(), 4);
        let r = availability(&star(), n, 9, plan, star_stable, u64::MAX);
        assert_eq!(r.total_draws, 80_000);
        assert!(r.available_draws <= r.total_draws);
        assert!(
            r.fraction_available() > 0.0,
            "the star re-forms between periodic centre crashes: {r:?}"
        );
        assert!(r.repair.is_some(), "FT-star repairs the final crash");
    }

    #[test]
    fn availability_is_reproducible_and_bounded() {
        use netcon_core::ChurnPlan;
        let churn = ChurnPlan::new(0)
            .arrival_rate(1e-4)
            .departure_rate(1e-4)
            .min_alive(4)
            .horizon(50_000);
        let cfg = SweepConfig {
            sizes: vec![8, 12],
            trials: 3,
            base_seed: 5,
        };
        let run = || sweep_availability(&cfg, &star(), churn, star_stable, u64::MAX);
        let (a, b) = (run(), run());
        assert_eq!(a.rows[0].samples, b.rows[0].samples);
        assert_eq!(a.rows[1].samples, b.rows[1].samples);
        for row in &a.rows {
            for &s in &row.samples {
                assert!((0.0..=1.0).contains(&s), "fraction out of range: {s}");
            }
        }
    }
}
