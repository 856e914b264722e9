//! Spanning-line construction at n = 6000 — far beyond what the naive
//! engine can touch.
//!
//! Fast-Global-Line (Protocol 2) converges in Θ(n³) expected *sequential*
//! steps: at n = 6000 that is ~10¹¹ scheduler draws, of which only ~10⁴
//! are effective. The event-driven engine simulates exactly those, so the
//! whole construction takes seconds:
//!
//! ```sh
//! cargo run --release --example big_line
//! ```

use std::time::Instant;

use netcon::core::{EventSim, ExactEngine};
use netcon::graph::properties::is_spanning_line;
use netcon::protocols::fast_global_line;

fn main() {
    let n = 6_000;
    println!("Fast-Global-Line on n = {n} nodes (event-driven engine)\n");

    let t0 = Instant::now();
    let mut sim = EventSim::new(fast_global_line::protocol().compile(), n, 2014);
    println!(
        "constructed in {:?} ({} possibly-effective pairs initially)",
        t0.elapsed(),
        sim.effective_pairs()
    );

    let t0 = Instant::now();
    let outcome = sim.run_until(fast_global_line::is_stable, u64::MAX);
    let wall = t0.elapsed();

    let converged = outcome.converged_at().expect("Protocol 2 stabilizes");
    assert!(is_spanning_line(sim.population().edges()));
    println!("spanning line stable; output verified with is_spanning_line\n");
    println!("sequential steps (paper's time) : {converged:>16}");
    println!("effective interactions          : {:>16}", sim.effective_steps());
    println!(
        "ineffective draws skipped       : {:>16} ({:.4}% of steps were effective)",
        sim.steps() - sim.effective_steps(),
        100.0 * sim.effective_steps() as f64 / sim.steps() as f64
    );
    println!("wall-clock                      : {wall:>16.2?}");
    println!(
        "\nnaive-engine estimate at ~10 ns/step: ~{:.0} minutes",
        converged as f64 * 1e-8 / 60.0
    );
}
