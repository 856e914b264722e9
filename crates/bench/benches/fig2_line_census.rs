//! **Figure 2** — a typical configuration of Simple-Global-Line while
//! converging: coexisting lines with `l`-endpoint leaders or walking `w`
//! leaders, plus isolated `q0` nodes. Regenerated as a census at fixed
//! fractions of the (retrospectively known) convergence time.
//!
//! Runs on the event-driven engine. Two passes over the *same seed*: the
//! probe finds the convergence step, then an identical replay (advance
//! calls consume the generator identically, so it is the same
//! realization) censuses the configuration at each fraction — the state
//! at a mark that falls inside a skip run is the state before the next
//! candidate, since skipped draws change nothing.

use netcon_core::{EventSim, EventStep, ExactEngine};
use netcon_protocols::simple_global_line::{self, census, Census};

fn main() {
    let n = 128;
    let seed = 7;
    println!("=== Fig. 2: Simple-Global-Line configuration census (n = {n}) ===\n");

    // Pass 1: find the convergence step of this seed's execution.
    let mut probe = EventSim::new(simple_global_line::protocol().compile(), n, seed);
    let total = probe
        .run_until(simple_global_line::is_stable, u64::MAX)
        .converged_at()
        .expect("line protocol stabilizes");
    println!(
        "convergence at {total} steps ({} effective); censuses at 10%..100%:\n",
        probe.effective_steps()
    );

    println!(
        "{:>6}  {:>9} {:>13} {:>13} {:>22}",
        "%", "isolated", "l-led lines", "w-led lines", "line lengths"
    );
    let print_row = |pct: u64, c: &Census| {
        println!(
            "{:>6}  {:>9} {:>13} {:>13}  {:?}",
            pct,
            c.isolated,
            c.lines_with_endpoint_leader,
            c.lines_with_walking_leader,
            c.line_lengths
        );
    };

    // Pass 2: replay the identical realization and sample it at the marks.
    let marks: Vec<(u64, u64)> = [10u64, 25, 50, 75, 90, 100]
        .iter()
        .map(|&pct| (pct, total * pct / 100))
        .collect();
    let mut sim = EventSim::new(simple_global_line::protocol().compile(), n, seed);
    let mut mi = 0;
    let mut before = census(sim.population());
    while mi < marks.len() {
        match sim.advance(u64::MAX) {
            EventStep::Quiescent | EventStep::BudgetExhausted => break,
            EventStep::Candidate { .. } => {
                // Marks strictly inside the skip run show the pre-candidate
                // configuration; a mark on the candidate step shows the
                // post-candidate one.
                while mi < marks.len() && marks[mi].1 < sim.steps() {
                    print_row(marks[mi].0, &before);
                    mi += 1;
                }
                while mi < marks.len() && marks[mi].1 == sim.steps() {
                    print_row(marks[mi].0, &census(sim.population()));
                    mi += 1;
                }
                if mi < marks.len() {
                    before = census(sim.population());
                }
            }
        }
    }
    // The execution quiesced with marks outstanding (cannot happen for
    // marks ≤ total, but keep the loop total): the configuration is final.
    while mi < marks.len() {
        print_row(marks[mi].0, &census(sim.population()));
        mi += 1;
    }
}
