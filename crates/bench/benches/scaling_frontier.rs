//! **Scaling frontier** — the population sizes the paper's asymptotics
//! are about, reachable only by the sparse bucket engine.
//!
//! Drives Simple-Global-Line (Θ(n⁴)–O(n⁵) sequential steps) and
//! Cycle-Cover (Θ(n²), optimal) to n ∈ {20 000, 50 000, 100 000} on
//! [`BucketSim`](netcon_core::BucketSim), reporting sequential steps,
//! effective interactions, wall-clock, and the engine's measured heap
//! footprint against the dense engine's a-priori estimate. The dense
//! pair map alone would need ~1.7 GB at n = 20 000 and ~43 GB at
//! n = 100 000; the bucket engine stays in single-digit megabytes.
//!
//! `NETCON_BENCH_SCALE` (percent) scales the *sizes* here, not trial
//! counts: CI smoke (1%) runs n ∈ {200, 500, 1000}, where the run also
//! cross-checks the engine selector (`Engine::auto` picks the dense
//! engine at smoke sizes, the sparse one at frontier sizes).

use std::time::Instant;

use netcon_bench::harness::scale;
use netcon_core::{BucketSim, CompiledTable, Engine, EngineView, EventSim, ExactEngine};
use netcon_protocols::{cycle_cover, simple_global_line};

fn drive(
    name: &str,
    protocol: &CompiledTable,
    stable: fn(&EngineView<'_, CompiledTable>) -> bool,
    sizes: &[usize],
) {
    println!("--- {name} ---");
    println!(
        "{:>8} {:>22} {:>14} {:>10} {:>12} {:>14}",
        "n", "sequential steps", "effective", "wall", "bucket mem", "dense est."
    );
    for &n in sizes {
        let t0 = Instant::now();
        let mut sim = BucketSim::new(protocol.clone(), n, 2014 + n as u64);
        let out = sim.run_until(
            |sp| stable(&EngineView::Sparse { sp, machine: protocol }),
            u64::MAX,
        );
        let wall = t0.elapsed();
        let converged = out
            .converged_at()
            .unwrap_or_else(|| panic!("{name} did not stabilize at n={n}"));
        let mem = sim.approx_mem_bytes();
        assert!(
            mem < 100 << 20,
            "{name} n={n}: bucket engine used {mem} bytes, expected < 100 MB"
        );
        println!(
            "{n:>8} {converged:>22} {:>14} {:>9.2?} {:>9.1} MB {:>11.1} MB",
            sim.effective_steps(),
            wall,
            mem as f64 / 1e6,
            EventSim::<CompiledTable>::dense_mem_estimate(n) as f64 / 1e6,
        );
    }
    println!();
}

fn main() {
    println!("=== Scaling frontier: sparse bucket engine at n up to 100k ===\n");
    let sizes: Vec<usize> = [20_000usize, 50_000, 100_000]
        .iter()
        .map(|&n| scale(n).max(64))
        .collect();
    println!("sizes: {sizes:?} (NETCON_BENCH_SCALE percent applies to n)\n");

    // Selector cross-check at the first size: auto must pick the sparse
    // engine exactly when the dense estimate exceeds the budget.
    let n0 = sizes[0];
    let eng = Engine::auto(simple_global_line::protocol().compile(), n0, 1);
    let dense_fits = n0 <= usize::from(u16::MAX)
        && EventSim::<CompiledTable>::dense_mem_estimate(n0) <= Engine::<CompiledTable>::default_budget();
    assert_eq!(!eng.is_sparse(), dense_fits, "selector disagrees with budget");
    println!("Engine::auto(n = {n0}) -> {}\n", eng.kind());
    drop(eng);

    drive(
        "Simple-Global-Line (Protocol 1)",
        &simple_global_line::protocol().compile(),
        simple_global_line::is_stable_view,
        &sizes,
    );
    drive(
        "Cycle-Cover (Protocol 3)",
        &cycle_cover::protocol().compile(),
        cycle_cover::is_stable_view,
        &sizes,
    );

    println!("the Θ(n²) memory wall is gone: the frontier engine is O(n + |Q|²)");
}
