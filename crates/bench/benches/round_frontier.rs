//! **Round frontier** — parallel time in ShuffledRounds rounds at sizes
//! the naive round-player cannot touch.
//!
//! The polylogarithmic-parallel-time line of work (Connor, Michail &
//! Spirakis, arXiv:2007.00625) measures constructors in *rounds* of a
//! box schedule rather than sequential draws. The naive loop pays
//! Θ(n²) per round (the shuffle alone), so round-denominated sweeps were
//! stuck at small n; [`RoundSim`](netcon_core::RoundSim) runs the same
//! distribution at event-driven cost. This bench:
//!
//! 1. cross-checks the scheduler-aware selector
//!    ([`Engine::auto_for`](netcon_core::Engine::auto_for)) against the
//!    round engine's memory estimate,
//! 2. head-to-heads `RoundSim` against the naive ShuffledRounds loop on
//!    Simple-Global-Line (mean rounds must agree — the exactness smoke
//!    check riding every CI bench run),
//! 3. drives a rounds-to-converge ladder via the
//!    `netcon_analysis::sweep::sweep_rounds_to_converge` fast path and
//!    fits the rounds-vs-n power law,
//! 4. runs a round-denominated sweep at n = 100 000 on the sparse round
//!    engine ([`RoundBucketSim`](netcon_core::RoundBucketSim)) through
//!    the view-predicate path — the size the dense engine's 13n² bytes
//!    can never touch.
//!
//! `NETCON_BENCH_SCALE` (percent) scales trial counts as usual.

use std::time::Instant;

use netcon_analysis::sweep::{sweep_rounds_to_converge, SweepConfig};
use netcon_analysis::table::TextTable;
use netcon_bench::harness::{fits, fmt_fit, scale, sweep_rows};
use netcon_core::seeds::derive2;
use netcon_core::{
    CompiledTable, Engine, EnumerableMachine, ExactEngine, Link, ProtocolBuilder, RoundSim,
    SchedulerKind, ShuffledRounds, Simulation,
};
use netcon_protocols::{cycle_cover, simple_global_line};

fn main() {
    println!("=== Round frontier: event-driven ShuffledRounds (RoundSim) ===\n");

    // Selector cross-check: ShuffledRounds routes to the round engine
    // exactly when its (≈ 3× dense) estimate fits the budget.
    let n0 = 256;
    let eng = Engine::auto_for(
        simple_global_line::protocol().compile(),
        n0,
        1,
        SchedulerKind::ShuffledRounds,
    );
    let round_fits = RoundSim::<CompiledTable>::dense_mem_estimate(n0)
        <= Engine::<CompiledTable>::default_budget();
    assert_eq!(
        eng.kind() == "round-dense",
        round_fits,
        "selector disagrees with the round-engine budget"
    );
    println!("Engine::auto_for(n = {n0}, ShuffledRounds) -> {}", eng.kind());
    drop(eng);

    // And the sparse side of the same cross-check: beyond the dense
    // round-engine budget the selector must pick the sparse round
    // engine, never a fallback loop. A budget of one byte forces it at
    // any n; a frontier n forces it under the default budget.
    let eng = Engine::with_budget_for(
        simple_global_line::protocol().compile(),
        n0,
        1,
        1,
        SchedulerKind::ShuffledRounds,
    );
    assert_eq!(eng.kind(), "round-sparse", "tiny budget must go sparse");
    drop(eng);
    let n_big = 100_000;
    let eng = Engine::auto_for(
        simple_global_line::protocol().compile(),
        n_big,
        1,
        SchedulerKind::ShuffledRounds,
    );
    assert!(
        RoundSim::<CompiledTable>::dense_mem_estimate(n_big)
            > Engine::<CompiledTable>::default_budget(),
        "n = {n_big} should be beyond the dense round budget"
    );
    assert_eq!(eng.kind(), "round-sparse", "frontier n must go sparse");
    println!("Engine::auto_for(n = {n_big}, ShuffledRounds) -> {}\n", eng.kind());
    drop(eng);

    // Head-to-head on Simple-Global-Line at n = 64: RoundSim vs the
    // naive round-player, mean rounds-to-converge per engine. The means
    // must agree (the engines are distribution-identical); the wall gap
    // is the point of the engine.
    let n = 64;
    let trials = scale(20).max(2) as u64;
    let p = simple_global_line::protocol();
    let compiled = p.compile();
    let m = (n as u64) * (n as u64 - 1) / 2;

    let t0 = Instant::now();
    let mut round_rounds = 0.0f64;
    for t in 0..trials {
        let mut sim = RoundSim::new(compiled.clone(), n, derive2(7, n as u64, t));
        let out = sim.run_until(simple_global_line::is_stable, u64::MAX);
        round_rounds +=
            out.converged_at().expect("stabilizes").div_ceil(m) as f64 / trials as f64;
    }
    let round_wall = t0.elapsed().as_secs_f64();

    let naive_trials = scale(4).clamp(2, 8) as u64;
    let t0 = Instant::now();
    let mut naive_rounds = 0.0f64;
    for t in 0..naive_trials {
        let mut sim = Simulation::with_scheduler(
            p.clone(),
            n,
            derive2(7, n as u64, t),
            ShuffledRounds::new(),
        );
        let out = sim.run_until(simple_global_line::is_stable, u64::MAX);
        naive_rounds +=
            out.converged_at().expect("stabilizes").div_ceil(m) as f64 / naive_trials as f64;
    }
    let naive_wall = t0.elapsed().as_secs_f64();

    let speedup =
        (naive_wall / naive_trials as f64) / (round_wall / trials as f64).max(1e-12);
    let mut t = TextTable::new(&["engine", "trials", "mean rounds", "wall/trial"]);
    t.row(&[
        "RoundSim",
        &trials.to_string(),
        &format!("{round_rounds:.1}"),
        &format!("{:.4}s", round_wall / trials as f64),
    ]);
    t.row(&[
        "naive ShuffledRounds",
        &naive_trials.to_string(),
        &format!("{naive_rounds:.1}"),
        &format!("{:.4}s", naive_wall / naive_trials as f64),
    ]);
    println!("--- Simple-Global-Line n = {n}: RoundSim vs naive ({speedup:.0}x/trial) ---");
    println!("{}", t.render());
    let rel = (round_rounds - naive_rounds).abs() / naive_rounds.max(1.0);
    assert!(
        rel < 0.5,
        "mean rounds diverge: round {round_rounds:.1} vs naive {naive_rounds:.1} \
         ({rel:.2} relative at {trials}/{naive_trials} trials)"
    );

    // Rounds-to-converge ladder on the analysis fast path.
    for (name, protocol, stable) in [
        (
            "Simple-Global-Line (Protocol 1)",
            simple_global_line::protocol(),
            simple_global_line::is_stable as fn(&_) -> bool,
        ),
        (
            "Cycle-Cover (Protocol 3)",
            cycle_cover::protocol(),
            cycle_cover::is_stable as fn(&_) -> bool,
        ),
    ] {
        let cfg = SweepConfig {
            sizes: vec![16, 24, 32, 48],
            trials: scale(30).max(3),
            base_seed: 2007,
        };
        let table =
            sweep_rounds_to_converge(&cfg, &protocol, |v| v.with_population(stable), u64::MAX);
        let (fit, fit_log) = fits(&table);
        let mut t = TextTable::new(&["n", "mean rounds", "95% CI", "rounds/n²"]);
        for row in sweep_rows(&table) {
            t.row(&row.iter().map(String::as_str).collect::<Vec<_>>());
        }
        println!("--- {name}: rounds to converge ---");
        println!("{}", t.render());
        println!(
            "fitted rounds exponent: {} (log-corrected {})\n",
            fmt_fit(&fit),
            fmt_fit(&fit_log)
        );
    }

    // Frontier round sweep: n = 100 000 on the sparse round engine via
    // the view-predicate path (a dense predicate would materialize a
    // Θ(n²) Population per stability check). Maximum matching finishes
    // within round 1 almost surely under any box schedule, so the
    // measurement doubles as an exactness assertion at frontier scale.
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m_state = b.state("b");
    b.rule((a, a, Link::Off), (m_state, m_state, Link::On));
    let matching = b.build().expect("valid");
    let ai = matching.compile().state_index(&a);
    let n_big = 100_000;
    let trials = scale(4).max(1);
    let cfg = SweepConfig {
        sizes: vec![n_big],
        trials,
        base_seed: 606,
    };
    let t0 = Instant::now();
    let table = sweep_rounds_to_converge(&cfg, &matching, |v| v.count_index(ai) <= 1, u64::MAX);
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        table.rows[0].samples.iter().all(|&x| x == 1.0),
        "matching must finish in round 1 at n = {n_big}: {:?}",
        table.rows[0].samples
    );
    println!("--- Maximum-matching at n = {n_big}: sparse round engine ---");
    println!(
        "{trials} trial(s), all converged in round 1, {:.3}s/trial\n",
        wall / trials as f64
    );

    println!("round-denominated sweeps now run at event-driven cost;");
    println!("the naive loop pays Θ(n²) per round for the shuffle alone,");
    println!("and the sparse round engine lifts the 13n²-byte ceiling.");
}
