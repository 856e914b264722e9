//! **Churn frontier** — availability sweeps over the continuous-churn
//! layer: compile a seeded Poisson arrival/departure stream
//! ([`ChurnPlan`](netcon_core::ChurnPlan)) and measure the fraction of
//! draws on which the constructor's output was stable
//! (`netcon_analysis::availability`).
//!
//! Two workloads, the fault-tolerant constructors of arXiv 1903.05992:
//!
//! 1. *FT-Global-Star* — crash notifications re-mint peripherals as
//!    centre candidates, so the star re-elects through **any** crash
//!    pattern; at gentle rates it is mostly up, giving a high-availability
//!    reference curve.
//! 2. *FT-Spanning-Line* — the restart/waste wave dissolves damaged
//!    fragments back to `q0` before rebuilding, so each crash costs a
//!    full reconstruction; its lower availability at the same rates is
//!    the measured price of the waste-based repair.
//!
//! Both run at a symmetric per-draw arrival *and* departure rate of
//! `1e-4`. The sweeps live in [`netcon_bench::frontier`], shared with
//! `perf_smoke`'s record; trial counts ride `NETCON_BENCH_SCALE` like
//! every other target.

use netcon_analysis::sweep::SweepTable;
use netcon_bench::frontier::{
    churn_frontier, sweep_trials, CHURN_RATE, LINE_CHURN_HORIZON, STAR_CHURN_HORIZON,
};

fn report(name: &str, horizon: u64, table: &SweepTable) {
    println!("{name} (rate {CHURN_RATE:e}/draw each way, horizon {horizon} draws):");
    for row in &table.rows {
        println!(
            "  n={:>4}: mean fraction available {:>6.3} (sd {:>6.3}, min {:>6.3}, {} trials)",
            row.n,
            row.summary.mean,
            row.summary.std_dev,
            row.summary.min,
            row.summary.count
        );
        for &s in &row.samples {
            assert!((0.0..=1.0).contains(&s), "{name} n={}: fraction {s}", row.n);
        }
    }
    println!();
}

fn main() {
    println!("=== Churn frontier: availability under sustained Poisson churn ===\n");
    let (star, line) = churn_frontier(sweep_trials());
    report("ft-global-star", STAR_CHURN_HORIZON, &star);
    report("ft-spanning-line", LINE_CHURN_HORIZON, &line);

    // The star's notified re-election must beat the line's restart wave
    // at every common scale — that ordering is the section's physical
    // claim, so the bench enforces it on the means.
    let star_mean = star.rows[0].summary.mean;
    let line_mean = line.rows.last().expect("line rows").summary.mean;
    assert!(
        star_mean >= line_mean,
        "FT-star (n=16 mean {star_mean:.3}) should be at least as available as \
         FT-line (n=14 mean {line_mean:.3}) at the same rates"
    );
    println!("star re-election at least as available as line restart wave — ordering confirmed");
}
