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
//! engine at smoke sizes, the sparse one at frontier sizes). The runs
//! live in [`netcon_bench::frontier`], shared with `perf_smoke`'s
//! record.

use netcon_bench::frontier::{scaling_workloads, FRONTIER_SIZES};
use netcon_bench::harness::scale;
use netcon_core::{CompiledTable, Engine, EventSim};
use netcon_protocols::simple_global_line;

fn main() {
    println!("=== Scaling frontier: sparse bucket engine at n up to 100k ===\n");
    let sizes: Vec<usize> = FRONTIER_SIZES.iter().map(|&n| scale(n).max(64)).collect();
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

    for workload in scaling_workloads() {
        println!("--- {} ---", workload.name);
        println!(
            "{:>8} {:>22} {:>14} {:>10} {:>12} {:>14}",
            "n", "sequential steps", "effective", "wall", "bucket mem", "dense est."
        );
        for &n in &sizes {
            let row = workload.run(n);
            println!(
                "{n:>8} {:>22} {:>14} {:>9.2?} {:>9.1} MB {:>11.1} MB",
                row.converged_at,
                row.effective_steps,
                row.wall,
                row.mem_bytes as f64 / 1e6,
                row.dense_estimate_bytes as f64 / 1e6,
            );
        }
        println!();
    }

    println!("the Θ(n²) memory wall is gone: the frontier engine is O(n + |Q|²)");
}
