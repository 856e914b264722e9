//! Fast-vs-naive engine comparison: the measurement behind the
//! `engine_speedup` bench target and the `perf_smoke` JSON record.

use std::time::Instant;

use netcon_core::seeds::derive2;
use netcon_core::{
    BucketSim, CompiledTable, EngineView, EventSim, ExactEngine, Population, RoundSim,
    RuleProtocol, RunOutcome, ShuffledRounds, Simulation, StateId,
};

/// Per-engine aggregates over a trial set.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats {
    /// Trials run.
    pub trials: usize,
    /// Mean `converged_at` (the paper's sequential running time).
    pub mean_converged: f64,
    /// Sample variance of `converged_at`.
    pub var_converged: f64,
    /// Mean total steps at detection.
    pub mean_steps: f64,
    /// Mean effective interactions at detection.
    pub mean_effective: f64,
    /// Wall-clock for the whole trial set, seconds.
    pub wall_s: f64,
}

/// The head-to-head record for one protocol and population size.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Population size.
    pub n: usize,
    /// Event-driven engine aggregates.
    pub event: EngineStats,
    /// Naive engine aggregates (usually over a prefix of the same seeds —
    /// the naive loop is the reason this module exists).
    pub naive: EngineStats,
    /// Per-trial mean wall-clock ratio: naive / event.
    pub speedup: f64,
    /// `|mean_e − mean_n| / mean_n` on `converged_at`.
    pub mean_rel_diff: f64,
}

fn stats_of(samples: &[(f64, f64, f64)], wall_s: f64) -> EngineStats {
    let trials = samples.len();
    let tf = trials as f64;
    let mean = |i: usize| -> f64 {
        samples.iter().map(|s| [s.0, s.1, s.2][i]).sum::<f64>() / tf
    };
    let mean_converged = mean(0);
    let var_converged = if trials > 1 {
        samples
            .iter()
            .map(|s| (s.0 - mean_converged).powi(2))
            .sum::<f64>()
            / (tf - 1.0)
    } else {
        0.0
    };
    EngineStats {
        trials,
        mean_converged,
        var_converged,
        mean_steps: mean(1),
        mean_effective: mean(2),
        wall_s,
    }
}

/// Runs `trials` trials of one engine on `n` nodes, trial `t` seeded
/// `derive2(base_seed, n, t)`: `trial(seed)` runs one to stability and
/// returns its outcome, steps and effective steps. Returns the engine's
/// aggregates and each trial's `converged_at`.
fn run_trials(
    n: usize,
    trials: usize,
    base_seed: u64,
    mut trial: impl FnMut(u64) -> (RunOutcome, u64, u64),
) -> (EngineStats, Vec<f64>) {
    let t0 = Instant::now();
    let samples: Vec<(f64, f64, f64)> = (0..trials)
        .map(|t| {
            let (out, steps, effective) = trial(derive2(base_seed, n as u64, t as u64));
            let converged = out.converged_at().expect("stabilizes");
            (converged as f64, steps as f64, effective as f64)
        })
        .collect();
    let stats = stats_of(&samples, t0.elapsed().as_secs_f64());
    (stats, samples.iter().map(|s| s.0).collect())
}

/// Runs `event_trials` event-driven and `naive_trials` naive executions of
/// `protocol` to `stable` on `n` nodes, sharing the seed stream
/// (`derive2(base_seed, n, trial)`), and reports the head-to-head record.
///
/// # Panics
///
/// Panics if any trial fails to stabilize (the line constructors converge
/// with probability 1).
#[must_use]
pub fn compare_engines(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    event_trials: usize,
    naive_trials: usize,
    base_seed: u64,
) -> Comparison {
    let compiled = protocol.compile();
    let (event, _) = run_trials(n, event_trials, base_seed, |seed| {
        let mut sim = EventSim::new(compiled.clone(), n, seed);
        (sim.run_until(stable, u64::MAX), sim.steps(), sim.effective_steps())
    });
    let (naive, _) = run_trials(n, naive_trials, base_seed, |seed| {
        let mut sim = Simulation::new(protocol.clone(), n, seed);
        (sim.run_until(stable, u64::MAX), sim.steps(), sim.effective_steps())
    });

    Comparison {
        n,
        speedup: (naive.wall_s / naive.trials as f64) / (event.wall_s / event.trials as f64),
        mean_rel_diff: (event.mean_converged - naive.mean_converged).abs()
            / naive.mean_converged,
        event,
        naive,
    }
}

/// The ShuffledRounds head-to-head record for one protocol and size:
/// the event-driven [`RoundSim`] against the naive round-playing loop,
/// with convergence read in draws *and* rounds.
#[derive(Debug, Clone, Copy)]
pub struct RoundComparison {
    /// Population size.
    pub n: usize,
    /// Event-driven round engine aggregates.
    pub round: EngineStats,
    /// Mean rounds to converge on the round engine.
    pub round_mean_rounds: f64,
    /// Naive ShuffledRounds aggregates.
    pub naive: EngineStats,
    /// Mean rounds to converge on the naive loop.
    pub naive_mean_rounds: f64,
    /// Per-trial mean wall-clock ratio: naive / round.
    pub speedup: f64,
    /// `|mean_r − mean_n| / mean_n` on `converged_at`.
    pub mean_rel_diff: f64,
}

/// Runs `round_trials` [`RoundSim`] and `naive_trials` naive
/// ShuffledRounds executions of `protocol` to `stable` on `n` nodes,
/// sharing the seed stream (`derive2(base_seed, n, trial)`), and reports
/// the head-to-head record — the ShuffledRounds counterpart of
/// [`compare_engines`].
///
/// # Panics
///
/// Panics if any trial fails to stabilize.
#[must_use]
pub fn compare_round_engines(
    protocol: &RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    n: usize,
    round_trials: usize,
    naive_trials: usize,
    base_seed: u64,
) -> RoundComparison {
    let compiled = protocol.compile();
    let pairs_per_round = (n as u64) * (n as u64 - 1) / 2;
    let mean_rounds = |converged: &[f64]| {
        converged
            .iter()
            .map(|&c| (c as u64).div_ceil(pairs_per_round) as f64)
            .sum::<f64>()
            / converged.len() as f64
    };
    let (round, converged) = run_trials(n, round_trials, base_seed, |seed| {
        let mut sim = RoundSim::new(compiled.clone(), n, seed);
        (sim.run_until(stable, u64::MAX), sim.steps(), sim.effective_steps())
    });
    let round_mean_rounds = mean_rounds(&converged);
    let (naive, converged) = run_trials(n, naive_trials, base_seed, |seed| {
        let mut sim = Simulation::with_scheduler(protocol.clone(), n, seed, ShuffledRounds::new());
        (sim.run_until(stable, u64::MAX), sim.steps(), sim.effective_steps())
    });
    let naive_mean_rounds = mean_rounds(&converged);

    RoundComparison {
        n,
        speedup: (naive.wall_s / naive.trials as f64) / (round.wall_s / round.trials as f64),
        mean_rel_diff: (round.mean_converged - naive.mean_converged).abs()
            / naive.mean_converged,
        round,
        round_mean_rounds,
        naive,
        naive_mean_rounds,
    }
}

/// The sparse bucket engine's side of the record: per-trial aggregates
/// plus the engine's measured heap footprint
/// ([`BucketSim::approx_mem_bytes`]) after the last trial.
///
/// # Panics
///
/// Panics if any trial fails to stabilize.
#[must_use]
pub fn bucket_stats(
    protocol: &RuleProtocol,
    stable: fn(&EngineView<'_, CompiledTable>) -> bool,
    n: usize,
    trials: usize,
    base_seed: u64,
) -> (EngineStats, u64) {
    let compiled = protocol.compile();
    let mut mem = 0u64;
    let (stats, _) = run_trials(n, trials, base_seed, |seed| {
        let mut sim = BucketSim::new(compiled.clone(), n, seed);
        let out = sim.run_until(
            |sp| stable(&EngineView::Sparse { sp, machine: &compiled }),
            u64::MAX,
        );
        mem = sim.approx_mem_bytes();
        (out, sim.steps(), sim.effective_steps())
    });
    (stats, mem)
}
