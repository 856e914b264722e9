//! Availability-vs-fault-rate sweeps and knee detection: where does a
//! constructor's availability curve fall off a cliff?
//!
//! [`availability`](crate::availability) measures one protocol under
//! one fault stream. This module sweeps that measurement over a
//! *rate ladder* — a list of per-draw fault rates — and locates the
//! **knee**: the rate beyond which availability stops degrading
//! gracefully and collapses. Empirically the two regimes are close to
//! power laws in the rate (slow decay left of the knee, steep decay
//! right of it), so the knee is found by a two-segment log–log fit
//! reusing [`fit_power_law`]: every split of the ladder is scored by
//! the summed squared log-residuals of its two fits, and the best
//! split's boundary (geometric mean of the straddling rates) is the
//! knee.
//!
//! The sweep is schedule-agnostic: the caller supplies a *plan maker*
//! mapping `(rate, seed, n)` to a [`FaultPlan`], so the same ladder
//! runs under Poisson churn ([`poisson_crash_plan`]) or an adaptive
//! targeted adversary ([`periodic_adversary_plan`]) — the comparison
//! at the heart of the adversarial-frontier benchmark.

use netcon_core::{
    AdversaryPlan, AdversaryPolicy, Cadence, ChurnPlan, CompiledTable, EngineView, FaultPlan,
    FaultState, RuleProtocol,
};

use crate::availability::availability_of;
use crate::fit::{fit_power_law, PowerLawFit};

/// Availabilities below this are clamped before taking logs: a fully
/// dead curve segment still fits (flat at the clamp) instead of
/// panicking on `ln 0`.
const AVAILABILITY_CLAMP: f64 = 1e-6;

/// One rung of an availability-vs-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Per-draw fault rate this rung was measured at.
    pub rate: f64,
    /// Mean fraction-of-draws-available across the rung's trials.
    pub availability: f64,
}

/// A detected availability knee: the rate at which the curve's log–log
/// slope breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knee {
    /// The break rate — geometric mean of the two ladder rungs that
    /// straddle the best two-segment split.
    pub rate: f64,
    /// Power-law fit of availability-vs-rate left of the knee (the
    /// graceful-degradation regime).
    pub left: PowerLawFit,
    /// Power-law fit right of the knee (the collapse regime).
    pub right: PowerLawFit,
}

/// Sweeps mean availability over a ladder of fault rates.
///
/// For each `rate` in `rates`, runs `trials` independent measurements:
/// trial `t` gets seed [`seeds::derive2`](netcon_core::seeds::derive2)
/// `(base_seed, rate_index, t)` and a plan from
/// `make_plan(rate, seed, n)`, then measures
/// [`availability`](crate::availability::availability) with `stable`
/// and averages `fraction_available` across the trials. Ladder order is
/// preserved in the output, so a monotone-degradation guardrail is a
/// single pass over the result.
///
/// # Panics
///
/// Panics if `trials` is zero or any rate is not finite and positive.
#[allow(clippy::too_many_arguments)] // a sweep is its full parameter list
pub fn sweep_availability_vs_rate<F, P>(
    protocol: &RuleProtocol,
    n: usize,
    rates: &[f64],
    trials: usize,
    base_seed: u64,
    make_plan: F,
    stable: P,
    max_steps: u64,
) -> Vec<RatePoint>
where
    F: Fn(f64, u64, usize) -> FaultPlan,
    P: Fn(&EngineView<'_, CompiledTable>, &FaultState) -> bool,
{
    assert!(trials > 0, "sweep_availability_vs_rate needs trials > 0");
    assert!(
        rates.iter().all(|r| r.is_finite() && *r > 0.0),
        "rates must be finite and positive"
    );
    let table = protocol.compile();
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut sum = 0.0;
            for t in 0..trials {
                let seed = netcon_core::seeds::derive2(base_seed, i as u64, t as u64);
                let plan = make_plan(rate, seed, n);
                sum += availability_of(table.clone(), n, seed, plan, &stable, max_steps)
                    .fraction_available();
            }
            RatePoint {
                rate,
                availability: sum / trials as f64,
            }
        })
        .collect()
}

/// Poisson-churn plan maker: a crash stream at `rate` departures per
/// draw over `horizon` draws, floored at `min_alive` survivors.
///
/// Shape matches the `make_plan` argument of
/// [`sweep_availability_vs_rate`] once `horizon` and `min_alive` are
/// applied (e.g. via a closure).
#[must_use]
pub fn poisson_crash_plan(
    rate: f64,
    seed: u64,
    n: usize,
    horizon: u64,
    min_alive: usize,
) -> FaultPlan {
    ChurnPlan::new(seed)
        .departure_rate(rate)
        .min_alive(min_alive)
        .horizon(horizon)
        .compile(n)
}

/// Adaptive-adversary plan maker: a periodic [`Cadence`] striking once
/// every `⌈1/rate⌉` draws across `horizon` draws, running `policies`
/// at each decision, floored at `min_alive` survivors.
///
/// The expected damage per draw matches [`poisson_crash_plan`] at the
/// same `rate` (one strike per `1/rate` draws), which is what makes
/// the Poisson-vs-adversarial knee comparison apples-to-apples.
#[must_use]
pub fn periodic_adversary_plan(
    rate: f64,
    seed: u64,
    horizon: u64,
    policies: &[AdversaryPolicy],
    min_alive: usize,
) -> FaultPlan {
    assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
    let every = (1.0 / rate).ceil().max(1.0);
    let every = if every >= u64::MAX as f64 {
        u64::MAX
    } else {
        every as u64
    };
    let count = u32::try_from(horizon / every).unwrap_or(u32::MAX);
    let mut adv = AdversaryPlan::new(Cadence::Periodic {
        start: every,
        every,
        count,
    })
    .min_alive(min_alive);
    for &p in policies {
        adv = adv.policy(p);
    }
    FaultPlan::new(seed).with_adversary(adv)
}

/// Detects the availability knee of a rate ladder by exhaustive
/// two-segment log–log fitting.
///
/// Availabilities are clamped at `1e-6` before taking logs so dead
/// rungs fit flat instead of panicking. Every split leaving at least
/// two rungs per side is scored by the sum of squared log-residuals of
/// the two [`fit_power_law`] fits; the minimum wins. Returns `None`
/// when the ladder has fewer than four rungs (no split has two points
/// per side).
///
/// # Panics
///
/// Panics if any rate is not finite and positive.
#[must_use]
pub fn detect_knee(points: &[RatePoint]) -> Option<Knee> {
    assert!(
        points.iter().all(|p| p.rate.is_finite() && p.rate > 0.0),
        "rates must be finite and positive"
    );
    if points.len() < 4 {
        return None;
    }
    let clamped: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.rate, p.availability.max(AVAILABILITY_CLAMP)))
        .collect();
    let mut best: Option<(f64, usize, PowerLawFit, PowerLawFit)> = None;
    for split in 2..=clamped.len() - 2 {
        let left = fit_power_law(&clamped[..split]);
        let right = fit_power_law(&clamped[split..]);
        let sse = log_sse(&clamped[..split], left) + log_sse(&clamped[split..], right);
        if best.as_ref().is_none_or(|b| sse < b.0) {
            best = Some((sse, split, left, right));
        }
    }
    best.map(|(_, split, left, right)| Knee {
        rate: (clamped[split - 1].0 * clamped[split].0).sqrt(),
        left,
        right,
    })
}

/// Sum of squared residuals of `fit` over `points`, in log–log space.
fn log_sse(points: &[(f64, f64)], fit: PowerLawFit) -> f64 {
    points
        .iter()
        .map(|&(x, y)| {
            let predicted = fit.constant.ln() + fit.exponent * x.ln();
            (y.ln() - predicted).powi(2)
        })
        .sum()
}

/// Degradation guardrail: `true` when availability never *rises* by
/// more than `tol` as the rate climbs (the curve is monotone
/// non-increasing up to trial noise).
#[must_use]
pub fn monotone_nonincreasing(points: &[RatePoint], tol: f64) -> bool {
    points
        .windows(2)
        .all(|w| w[1].availability <= w[0].availability + tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A local FT-star transcription (mirrors `availability.rs`'s
    /// self-contained test style).
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
    fn synthetic_two_regime_curve_has_a_knee_at_the_break() {
        // Flat-ish decay (slope -0.1) below rate 1e-3, collapse (slope
        // -2) above it.
        let knee_rate = 1e-3;
        let points: Vec<RatePoint> = (0..12)
            .map(|i| {
                let rate = 1e-5 * 2f64.powi(i);
                let availability = if rate <= knee_rate {
                    0.9 * (rate / knee_rate).powf(-0.1)
                } else {
                    0.9 * (rate / knee_rate).powf(-2.0)
                };
                RatePoint { rate, availability }
            })
            .collect();
        let knee = detect_knee(&points).expect("12 rungs is plenty");
        assert!(
            knee.rate >= 5e-4 && knee.rate <= 4e-3,
            "knee near the regime break: {knee:?}"
        );
        assert!(knee.left.exponent > knee.right.exponent, "collapse is steeper");
        assert!((knee.left.exponent - -0.1).abs() < 0.1);
        assert!((knee.right.exponent - -2.0).abs() < 0.3);
    }

    #[test]
    fn short_ladders_have_no_knee() {
        let points: Vec<RatePoint> = (0..3)
            .map(|i| RatePoint {
                rate: 10f64.powi(i - 4),
                availability: 0.5,
            })
            .collect();
        assert!(detect_knee(&points).is_none());
    }

    #[test]
    fn dead_rungs_clamp_instead_of_panicking() {
        let points: Vec<RatePoint> = (0..6)
            .map(|i| RatePoint {
                rate: 10f64.powi(i - 6),
                availability: if i < 3 { 0.8 } else { 0.0 },
            })
            .collect();
        let knee = detect_knee(&points).expect("clamped fit succeeds");
        assert!(knee.rate > 0.0);
    }

    #[test]
    fn monotone_guardrail_tolerates_noise_but_not_rises() {
        let mk = |avail: &[f64]| -> Vec<RatePoint> {
            avail
                .iter()
                .enumerate()
                .map(|(i, &a)| RatePoint {
                    rate: 10f64.powi(i as i32 - 5),
                    availability: a,
                })
                .collect()
        };
        assert!(monotone_nonincreasing(&mk(&[0.9, 0.8, 0.5, 0.1]), 0.0));
        assert!(monotone_nonincreasing(&mk(&[0.9, 0.91, 0.5]), 0.02));
        assert!(!monotone_nonincreasing(&mk(&[0.5, 0.9]), 0.02));
    }

    #[test]
    fn sweep_runs_both_schedules_on_the_same_ladder() {
        let proto = star();
        let n = 10;
        let horizon = 40_000;
        let rates = [1e-4, 4e-4];
        let poisson = sweep_availability_vs_rate(
            &proto,
            n,
            &rates,
            2,
            17,
            |rate, seed, n| poisson_crash_plan(rate, seed, n, horizon, 4),
            star_stable,
            u64::MAX,
        );
        let adversarial = sweep_availability_vs_rate(
            &proto,
            n,
            &rates,
            2,
            17,
            |rate, seed, _n| {
                periodic_adversary_plan(
                    rate,
                    seed,
                    horizon,
                    &[AdversaryPolicy::CrashMaxDegree],
                    4,
                )
            },
            star_stable,
            u64::MAX,
        );
        for pts in [&poisson, &adversarial] {
            assert_eq!(pts.len(), 2);
            for p in pts.iter() {
                assert!((0.0..=1.0).contains(&p.availability), "bounded: {p:?}");
            }
        }
        // Determinism: rerunning the poisson ladder reproduces it.
        let again = sweep_availability_vs_rate(
            &proto,
            n,
            &rates,
            2,
            17,
            |rate, seed, n| poisson_crash_plan(rate, seed, n, horizon, 4),
            star_stable,
            u64::MAX,
        );
        assert_eq!(poisson, again);
    }

    #[test]
    fn periodic_adversary_plan_matches_the_rate() {
        let plan = periodic_adversary_plan(
            1e-3,
            3,
            10_000,
            &[AdversaryPolicy::CrashMaxDegree],
            2,
        );
        let adv = plan.adversary().expect("adversarial plan");
        assert_eq!(adv.cadence().count(), 10, "10k draws at 1e-3 = 10 strikes");
        assert_eq!(plan.boundary_times().first(), Some(&1000));
        assert_eq!(plan.boundary_times().last(), Some(&10_000));
    }
}
