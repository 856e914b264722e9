//! **Figure 1** — the spanning-star self-assembly snapshots, as a data
//! series: number of surviving centres ("blacks"), centre–peripheral
//! edges, and peripheral–peripheral residue edges over the course of one
//! seeded execution, with the three qualitative snapshots (a)/(b)/(c)
//! the paper draws.
//!
//! Runs on the event-driven engine: [`EventSim::advance`] with the next
//! power-of-two mark as its budget lands the step counter on each mark
//! exactly (the skipped draws are ineffective, so the census at the mark
//! is the census the naive loop would print).

use netcon_core::{EventSim, EventStep, ExactEngine, StepResult};
use netcon_protocols::global_star::{self, C, P};

fn main() {
    let n = 192;
    let mut sim = EventSim::new(global_star::protocol().compile(), n, 2014);
    println!("=== Fig. 1: star formation time series (n = {n}) ===\n");
    println!("{:>9}  {:>7} {:>12} {:>12}", "step", "blacks", "black-red", "red-red");

    let print_state = |sim: &EventSim<netcon_core::CompiledTable>, label: &str| {
        let pop = sim.population();
        let blacks = pop.count_where(|s| *s == C);
        let br = pop
            .edges()
            .active_edges()
            .filter(|&(u, v)| (*pop.state(u) == C) != (*pop.state(v) == C))
            .count();
        let rr = pop
            .edges()
            .active_edges()
            .filter(|&(u, v)| *pop.state(u) == P && *pop.state(v) == P)
            .count();
        println!("{:>9}  {:>7} {:>12} {:>12}  {label}", sim.steps(), blacks, br, rr);
    };

    print_state(&sim, "(a) initial: all black, no edges");
    let mut next_mark = 1u64;
    let mut seen_three = false;
    loop {
        match sim.advance(next_mark) {
            EventStep::BudgetExhausted => {
                // Exactly at the mark: print the census and extend the
                // horizon.
                print_state(&sim, "");
                next_mark *= 2;
            }
            EventStep::Candidate {
                result: StepResult::Effective { .. },
                ..
            } => {
                if sim.steps() == next_mark {
                    print_state(&sim, "");
                    next_mark *= 2;
                }
                let blacks = sim.population().count_where(|s| *s == C);
                if blacks == 3 && !seen_three {
                    seen_three = true;
                    print_state(&sim, "(b) three blacks with red neighbourhoods");
                }
                if global_star::is_stable(sim.population()) {
                    print_state(&sim, "(c) stable spanning star");
                    break;
                }
            }
            EventStep::Candidate { .. } => {}
            EventStep::Quiescent => unreachable!("the star protocol cannot quiesce before (c)"),
        }
    }
    println!(
        "\nverified: is_spanning_star = {} ({} effective / {} total steps)",
        netcon_graph::properties::is_spanning_star(sim.population().edges()),
        sim.effective_steps(),
        sim.steps()
    );
}
