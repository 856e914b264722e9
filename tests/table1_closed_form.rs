//! Ground truth that depends on no engine: five of Table 1's processes
//! (arXiv 1309.6978 §3.3) are death chains under the uniform scheduler.
//!
//! Each stage of such a chain has a fixed number `c` of effective
//! unordered pairs, so its wait is geometric with `p = c/m` over the
//! `m = n(n−1)/2` pairs, and the step of the last effective interaction
//! is a sum of independent waits with mean `Σ 1/p` and variance
//! `Σ (1−p)/p²`:
//!
//! | Process | Stages `c` | Mean |
//! |---|---|---|
//! | edge cover | `m, m−1, …, 1` inactive edges | `m·H_m` |
//! | meet everybody | `n−1, …, 1` unmet nodes | `m·H₍ₙ₋₁₎` |
//! | one-way epidemic | `k(n−k)`, `k = 1, …, n−1` infected | `Σ m/(k(n−k))` |
//! | one-to-one elimination | `C(k,2)`, `k = n, …, 2` survivors | `Σ m/C(k,2)` |
//! | maximum matching | `C(k,2)`, `k = n, n−2, …` free nodes | the same sum |
//!
//! Every uniform engine — the naive `Simulation`, `EventSim` and
//! `BucketSim` — runs each process from `Process::initial_population`
//! to quiescence, and its mean `last_effective()` must sit within 4σ of
//! the closed form (a z test with the exact variance, fixed seeds), its
//! sample variance within a factor of 2 of the exact one. Edge cover
//! fills its single state class with edges, the hardest case for an
//! engine that counts candidates by state class.

use netcon::core::seeds::derive2;
use netcon::core::{BucketSim, EventSim, ExactEngine};
use netcon::processes::Process;

const N: usize = 40;
const TRIALS: u64 = 500;

/// The success probability of every stage of `process`'s death chain on
/// `n` nodes.
fn stage_probabilities(process: Process, n: usize) -> Vec<f64> {
    let pairs = n * (n - 1) / 2;
    let c2 = |k: usize| k * (k - 1) / 2;
    let counts: Vec<usize> = match process {
        Process::EdgeCover => (1..=pairs).collect(),
        Process::MeetEverybody => (1..n).collect(),
        Process::OneWayEpidemic => (1..n).map(|k| k * (n - k)).collect(),
        Process::OneToOneElimination => (2..=n).map(c2).collect(),
        Process::MaximumMatching => (2..=n).rev().step_by(2).map(c2).collect(),
        _ => unreachable!("{} is not a death chain", process.name()),
    };
    counts.into_iter().map(|c| c as f64 / pairs as f64).collect()
}

/// The closed-form mean and variance of the last effective step.
fn exact_moments(process: Process, n: usize) -> (f64, f64) {
    stage_probabilities(process, n)
        .into_iter()
        .fold((0.0, 0.0), |(mean, var), p| (mean + 1.0 / p, var + (1.0 - p) / (p * p)))
}

#[derive(Clone, Copy, Debug)]
enum Arm {
    Naive,
    Event,
    Bucket,
}

/// One trial's last effective step on `arm`, run to quiescence.
fn last_effective(process: Process, arm: Arm, seed: u64) -> u64 {
    let machine = process.protocol().compile();
    let pop = process.initial_population(N);
    match arm {
        Arm::Naive => process.measure(N, seed),
        Arm::Event => {
            let mut e = EventSim::from_population(machine, pop, seed);
            e.run_to(u64::MAX);
            e.last_effective()
        }
        Arm::Bucket => {
            let mut e = BucketSim::from_population(machine, pop, seed);
            e.run_to(u64::MAX);
            e.last_effective()
        }
    }
}

fn check(process: Process) {
    let (mu, var) = exact_moments(process, N);
    for (stream, arm) in [Arm::Naive, Arm::Event, Arm::Bucket].into_iter().enumerate() {
        let samples: Vec<f64> = (0..TRIALS)
            .map(|t| last_effective(process, arm, derive2(0x7AB1E1, stream as u64, t)) as f64)
            .collect();
        let k = TRIALS as f64;
        let mean = samples.iter().sum::<f64>() / k;
        let sample_var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0);
        let z = (mean - mu) / (var / k).sqrt();
        let ratio = sample_var / var;
        assert!(
            z.abs() <= 4.0,
            "{} on {arm:?}: mean {mean:.1} vs exact {mu:.1} (z = {z:.2})",
            process.name()
        );
        assert!(
            (0.5..=2.0).contains(&ratio),
            "{} on {arm:?}: variance {sample_var:.1} vs exact {var:.1} (ratio {ratio:.2})",
            process.name()
        );
    }
}

#[test]
fn edge_cover_matches_m_times_harmonic_m() {
    check(Process::EdgeCover);
}

#[test]
fn meet_everybody_matches_m_times_harmonic_n_minus_1() {
    check(Process::MeetEverybody);
}

#[test]
fn epidemic_matches_its_death_chain() {
    check(Process::OneWayEpidemic);
}

#[test]
fn one_to_one_elimination_matches_its_death_chain() {
    check(Process::OneToOneElimination);
}

#[test]
fn matching_matches_its_death_chain() {
    check(Process::MaximumMatching);
}

/// The stage lists encode the table above: edge cover's mean is
/// `m·H_m`, meet everybody's `m·H₍ₙ₋₁₎`.
#[test]
fn closed_forms_are_harmonic_where_the_table_says() {
    let m = (N * (N - 1) / 2) as f64;
    let h = |k: usize| (1..=k).map(|i| 1.0 / i as f64).sum::<f64>();
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
    assert!(close(exact_moments(Process::EdgeCover, N).0, m * h(N * (N - 1) / 2)));
    assert!(close(exact_moments(Process::MeetEverybody, N).0, m * h(N - 1)));
}
