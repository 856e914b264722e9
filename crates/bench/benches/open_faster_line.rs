//! **§7 open question** — is Faster-Global-Line (Protocol 10)
//! asymptotically faster than Fast-Global-Line (Protocol 2)? The paper
//! reports experimental evidence of an improvement but leaves the
//! asymptotics open. Head-to-head sweep with exponent fits (and
//! Simple-Global-Line for context).

use netcon_analysis::sweep::{sweep, sweep_converged_at, SweepConfig};
use netcon_analysis::table::TextTable;
use netcon_bench::harness::{fits, fmt_fit, scale};
use netcon_core::{EventSim, ExactEngine, Population, RuleProtocol, StateId};
use netcon_protocols::{fast_global_line, faster_global_line, simple_global_line};

fn sweep_protocol(
    protocol: RuleProtocol,
    stable: fn(&Population<StateId>) -> bool,
    sizes: Vec<usize>,
    trials: usize,
) -> netcon_analysis::sweep::SweepTable {
    let cfg = SweepConfig {
        sizes,
        trials,
        base_seed: 6,
    };
    // Event-driven path: the open-question comparison needs large-n
    // points, which the naive loop cannot reach in bounded time.
    sweep_converged_at(&cfg, &protocol, stable, u64::MAX)
}

fn main() {
    println!("=== §7 open question: Fast vs Faster global line ===\n");
    let trials = scale(12);
    let sizes = vec![12usize, 16, 24, 32, 48, 64, 96, 128];

    let fast = sweep_protocol(
        fast_global_line::protocol(),
        fast_global_line::is_stable,
        sizes.clone(),
        trials,
    );
    let faster = sweep_protocol(
        faster_global_line::protocol(),
        faster_global_line::is_stable,
        sizes.clone(),
        trials,
    );
    let simple = sweep_protocol(
        simple_global_line::protocol(),
        simple_global_line::is_stable,
        vec![8, 12, 16, 24, 32],
        trials,
    );

    let mut t = TextTable::new(&["n", "Fast (9 states)", "Faster (6 states)", "ratio"]);
    for (f, g) in fast.rows.iter().zip(&faster.rows) {
        t.row(&[
            &f.n.to_string(),
            &format!("{:.0}", f.summary.mean),
            &format!("{:.0}", g.summary.mean),
            &format!("{:.2}", f.summary.mean / g.summary.mean),
        ]);
    }
    println!("{}", t.render());
    // §7's other reference point: the pre-elected-leader line,
    // Θ(n² log n) — the price of leaderless construction in one column.
    let leader_cfg = SweepConfig {
        sizes: sizes.clone(),
        trials,
        base_seed: 6,
    };
    let leader_compiled = {
        use netcon_protocols::leader_line;
        leader_line::protocol().compile()
    };
    let leader = sweep(&leader_cfg, |n, seed| {
        use netcon_protocols::leader_line;
        let mut sim = EventSim::from_population(
            leader_compiled.clone(),
            leader_line::initial_population(n),
            seed,
        );
        sim.run_until(leader_line::is_stable, u64::MAX)
            .converged_at()
            .expect("leader line stabilizes") as f64
    });

    let (fit_fast, _) = fits(&fast);
    let (fit_faster, _) = fits(&faster);
    let (fit_simple, _) = fits(&simple);
    let (fit_leader, fit_leader_log) = fits(&leader);
    println!("exponent fits:");
    println!("  Simple-Global-Line: {}   (paper: Ω(n⁴), O(n⁵))", fmt_fit(&fit_simple));
    println!("  Fast-Global-Line:   {}   (paper: O(n³))", fmt_fit(&fit_fast));
    println!("  Faster-Global-Line: {}   (paper: open)", fmt_fit(&fit_faster));
    println!(
        "  Leader-Line (§7):   {} / log-corrected {}   (paper: Θ(n² log n) with a pre-elected leader)",
        fmt_fit(&fit_leader),
        fmt_fit(&fit_leader_log)
    );
    println!("\nratio > 1 at every n = the conjectured improvement; whether the");
    println!("exponents differ decides the open asymptotic question.");
}
