//! **Perturbation frontier** — self-repair sweeps over the fault layer:
//! stabilize, injure with a seeded [`FaultSeverity`] burst, and measure
//! the steps back to stability (`netcon_analysis::repair`).
//!
//! Two workloads, chosen for opposite honesty:
//!
//! 1. *Maximum-Matching* under a mixed `1,1,1` burst (one crash, one
//!    arrival, one edge deletion) — the matching process reconverges
//!    under **any** mix of damage (widowed partners are terminal, fresh
//!    nodes pair up).
//! 2. *Global-Star* under fixed spoke deletions (`0,0,2`) — the paper's
//!    introduction protocol genuinely self-repairs this damage
//!    (`(c, p, 0) → (c, p, 1)` re-fires per orphaned peripheral), giving
//!    a positive repair-time curve with a physical meaning.
//!
//! The sweeps live in [`netcon_bench::frontier`], shared with
//! `perf_smoke`'s record; trial counts ride `NETCON_BENCH_SCALE` like
//! every other target.

use netcon_analysis::repair::FaultSeverity;
use netcon_analysis::sweep::SweepTable;
use netcon_bench::frontier::{perturbation_frontier, sweep_trials, MATCHING_BURST, STAR_SPOKES};

fn report(name: &str, severity: FaultSeverity, table: &SweepTable) {
    println!(
        "{name} (severity {}c/{}a/{}d):",
        severity.crashes, severity.arrivals, severity.edge_deletions
    );
    for row in &table.rows {
        println!(
            "  n={:>4}: mean repair {:>10.1} steps (sd {:>10.1}, median {:>8.1}, max {:>10.0}, {} trials)",
            row.n,
            row.summary.mean,
            row.summary.std_dev,
            row.summary.median,
            row.summary.max,
            row.summary.count
        );
    }
    println!();
}

fn main() {
    println!("=== Perturbation frontier: repair-time sweeps over the fault layer ===\n");
    let (matching, star) = perturbation_frontier(sweep_trials());
    report("maximum-matching", MATCHING_BURST, &matching);
    report("global-star", STAR_SPOKES, &star);
    // The star must actually repair: two deleted spokes re-fire at least
    // two attachment rules, so every trial's repair time is positive.
    for row in &star.rows {
        assert!(
            row.samples.iter().all(|&r| r > 0.0),
            "global-star must regrow deleted spokes (n={})",
            row.n
        );
    }
    println!("star spoke-regrowth positive on every trial — self-repair confirmed");
}
