//! **Table 2** — the protocols: state counts (exact) and expected
//! convergence times (measured sweeps + log–log exponent fits) against
//! the paper's bounds.
//!
//! | protocol | paper states | paper time |
//! |----------|--------------|------------|
//! | Simple-Global-Line | 5 | Ω(n⁴), O(n⁵) |
//! | Fast-Global-Line | 9 | O(n³) |
//! | Cycle-Cover | 3 | Θ(n²) |
//! | Global-Star | 2 | Θ(n² log n) |
//! | Global-Ring | 10 | — (Ω(n²) lower bound) |
//! | 2RC | 6 | — |
//! | Spanning-Net (Thm 1) | 2 | Θ(n log n) |
//! | Graph-Replication | 12 | Θ(n⁴ log n) |

use netcon_analysis::sweep::{sweep, sweep_converged_at, SweepConfig};
use netcon_analysis::table::TextTable;
use netcon_bench::harness::{fits, fmt_fit, scale};
use netcon_core::{EventSim, ExactEngine, Population, RuleProtocol, StateId};
use netcon_protocols::{
    catalog, cycle_cover, fast_global_line, global_ring, global_star, krc, replication,
    simple_global_line, spanning_net,
};

fn row(
    table: &mut TextTable,
    name: &str,
    paper: &str,
    protocol: RuleProtocol,
    stable: impl Fn(&Population<StateId>) -> bool + Sync,
    sizes: Vec<usize>,
    trials: usize,
) {
    let cfg = SweepConfig {
        sizes,
        trials,
        base_seed: 2,
    };
    // Event-driven path: identical step-count distribution, cost
    // proportional to effective interactions only.
    let t = sweep_converged_at(&cfg, &protocol, &stable, u64::MAX);
    let (raw, corrected) = fits(&t);
    let last = t.rows.last().expect("sizes non-empty");
    table.row(&[
        name,
        &protocol.size().to_string(),
        paper,
        &fmt_fit(&raw),
        &fmt_fit(&corrected),
        &format!("{:.0} @ n={}", last.summary.mean, last.n),
    ]);
}

fn main() {
    println!("=== Table 2: network constructors ===\n");

    println!("state counts (must equal the paper exactly):");
    let mut sizes_tbl = TextTable::new(&["protocol", "states (impl)", "states (paper)"]);
    for e in catalog::table2() {
        assert_eq!(e.protocol.size(), e.paper_states, "{}", e.name);
        sizes_tbl.row(&[
            e.name,
            &e.protocol.size().to_string(),
            &e.paper_states.to_string(),
        ]);
    }
    println!("{}", sizes_tbl.render());

    let trials = scale(12);
    let mut t = TextTable::new(&[
        "protocol",
        "states",
        "paper time",
        "fit n^k",
        "fit n^k·log n",
        "mean steps",
    ]);
    row(
        &mut t,
        "Simple-Global-Line",
        "Ω(n⁴), O(n⁵)",
        simple_global_line::protocol(),
        simple_global_line::is_stable,
        vec![8, 12, 16, 24, 32, 48],
        trials,
    );
    row(
        &mut t,
        "Fast-Global-Line",
        "O(n³)",
        fast_global_line::protocol(),
        fast_global_line::is_stable,
        vec![12, 16, 24, 32, 48, 64],
        trials,
    );
    row(
        &mut t,
        "Cycle-Cover",
        "Θ(n²)",
        cycle_cover::protocol(),
        cycle_cover::is_stable,
        vec![16, 32, 64, 96, 128],
        trials,
    );
    row(
        &mut t,
        "Global-Star",
        "Θ(n² log n)",
        global_star::protocol(),
        global_star::is_stable,
        vec![16, 32, 64, 96, 128],
        trials,
    );
    row(
        &mut t,
        "Global-Ring",
        "≥ Ω(n²)",
        global_ring::protocol(),
        global_ring::is_stable,
        vec![6, 8, 12, 16, 24],
        trials,
    );
    // 2RC has no time analysis in the paper, and its measured endgame
    // (leader-driven rewiring to merge the last two cycles) is very slow;
    // keep the ladder small so the bench stays bounded.
    row(
        &mut t,
        "2RC",
        "≥ Ω(n log n)",
        krc::protocol(2),
        |p| krc::is_stable(p, 2),
        vec![5, 6, 8, 10, 12],
        trials,
    );
    row(
        &mut t,
        "Spanning-Net (Thm 1)",
        "Θ(n log n)",
        spanning_net::protocol(),
        spanning_net::is_stable,
        vec![32, 64, 128, 192, 256],
        trials,
    );
    println!("{}", t.render());

    // Graph-Replication needs its custom initial configuration: input =
    // ring on n/2 nodes, replica space = n/2.
    let cfg = SweepConfig {
        sizes: vec![6, 8, 10, 12, 14],
        trials,
        base_seed: 3,
    };
    let compiled = replication::protocol().compile();
    let t = sweep(&cfg, |n, seed| {
        let n1 = n / 2;
        let g1 = netcon_graph::EdgeSet::from_edges(n1, (0..n1).map(|i| (i, (i + 1) % n1)));
        let pop = replication::initial_population(&g1, n - n1);
        let mut sim = EventSim::from_population(compiled.clone(), pop, seed);
        sim.run_until(replication::is_stable, u64::MAX)
            .last_effective()
            .expect("replication stabilizes") as f64
    });
    let (raw, corrected) = fits(&t);
    println!(
        "Graph-Replication (ring input, n = |V1|+|V2|): paper Θ(n⁴ log n); fit n^k {} / n^k·log n {}",
        fmt_fit(&raw),
        fmt_fit(&corrected)
    );
    for r in &t.rows {
        println!("  n={:<3} mean {:>10.0} ±{:>8.0}", r.n, r.summary.mean, r.summary.ci95());
    }
}
