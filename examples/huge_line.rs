//! Spanning-line construction at n = 100 000 — past the dense engines'
//! memory wall.
//!
//! Simple-Global-Line (Protocol 1) is the paper's slowest constructor:
//! Θ(n⁴)–O(n⁵) expected *sequential* steps, ~10²⁰ scheduler draws at
//! n = 100 000. The dense event engine would skip the idle draws but
//! needs ~45 GB for its pair-position structures at this size; the
//! sparse [`BucketSim`](netcon::core::BucketSim) (selected automatically
//! by [`Engine::auto`](netcon::core::Engine::auto)) runs the identical
//! distribution in a few dozen megabytes:
//!
//! ```sh
//! cargo run --release --example huge_line                  # n = 100 000, minutes
//! NETCON_HUGE_LINE_N=20000 cargo run --release --example huge_line   # quicker
//! ```
//!
//! The run stops when the spanning line's last edge activates (the
//! paper's convergence time); the final leader walk that follows cannot
//! change the output graph.

use std::time::Instant;

use netcon::core::{Engine, EventSim};
use netcon::protocols::simple_global_line;

fn main() {
    let n: usize = std::env::var_os("NETCON_HUGE_LINE_N").map_or(100_000, |v| {
        v.to_str()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("NETCON_HUGE_LINE_N={v:?} is not a node count"))
    });
    println!("Simple-Global-Line on n = {n} nodes\n");
    println!(
        "dense-engine estimate : {:>10.1} MB (pair map + bitsets)",
        EventSim::<netcon::core::CompiledTable>::dense_mem_estimate(n) as f64 / 1e6
    );

    let t0 = Instant::now();
    let mut eng = Engine::auto(simple_global_line::protocol().compile(), n, 2014);
    println!(
        "selected engine       : {:>10} ({:.1} MB, constructed in {:.2?})",
        eng.kind(),
        eng.approx_mem_bytes() as f64 / 1e6,
        t0.elapsed()
    );

    let t0 = Instant::now();
    let outcome = eng.run_until_edges(simple_global_line::is_stable_view, u64::MAX);
    let wall = t0.elapsed();
    let converged = outcome.converged_at().expect("Protocol 1 stabilizes");

    println!("\nspanning line complete: {} active edges\n", n - 1);
    println!("sequential steps (paper's time) : {converged:>22}");
    println!(
        "effective interactions          : {:>22}",
        eng.effective_steps()
    );
    println!(
        "engine memory at convergence    : {:>18.1} MB",
        eng.approx_mem_bytes() as f64 / 1e6
    );
    println!("wall-clock                      : {wall:>22.2?}");

    // Full shape verification materializes a Θ(n²) edge set — do it at
    // smoke scales, trust the edge-count certificate at the frontier.
    if n <= 20_000 {
        let pop = eng.to_population();
        assert!(netcon::graph::properties::is_spanning_line(pop.edges()));
        println!("\n(output verified with is_spanning_line)");
    }
}
