//! **Figure 3** — the universal constructor's repeat-until-accept loop:
//! for each target language, the number of rejected draws before the
//! accepted one, against the theoretical `1/P[G(m,½) ∈ L]` expectation
//! (estimated by direct G(m,½) sampling).
//!
//! The universal machine's composite states are not dense-enumerable, so
//! this bench runs on the naive [`Simulation`] under the uniform
//! scheduler: at 2m ≤ 12 nodes every run is at most a few tens of
//! thousands of draws.

use netcon_core::Simulation;
use netcon_graph::gnp::gnp_half;
use netcon_graph::matrix::AdjMatrix;
use netcon_tm::decider::{Connected, GraphLanguage, MinEdges, TriangleFree};
use netcon_universal::constructor::{is_stable, leader_of, UniversalConstructor};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn accept_rate(lang: &dyn GraphLanguage, m: usize) -> f64 {
    let mut rng = SmallRng::seed_from_u64(99);
    let trials = 2000;
    let mut ok = 0;
    for _ in 0..trials {
        let g = gnp_half(m, &mut rng);
        if lang.accepts(&AdjMatrix::from(&g)) {
            ok += 1;
        }
    }
    ok as f64 / f64::from(trials)
}

fn mean_rejections(make: &dyn Fn() -> Box<dyn GraphLanguage + Send + Sync>, m: usize) -> (f64, f64) {
    let trials = 10;
    let mut rej = 0u32;
    let mut steps = 0u64;
    for seed in 0..trials {
        let pop = UniversalConstructor::initial_population(m);
        let mut sim = Simulation::from_population(UniversalConstructor::new(make()), pop, seed);
        let out = sim.run_until(is_stable, u64::MAX);
        steps += out.converged_at().expect("constructor stabilizes");
        rej += leader_of(sim.population()).expect("leader").rejections;
    }
    (f64::from(rej) / f64::from(trials as u32), steps as f64 / f64::from(trials as u32))
}

type LangFactory = Box<dyn Fn() -> Box<dyn GraphLanguage + Send + Sync>>;

fn main() {
    println!("=== Fig. 3: draw → decide → repeat-until-accept loop ===\n");
    println!(
        "{:<22} {:>3} {:>14} {:>16} {:>14}",
        "language", "m", "P[accept]", "E[rejects] thy", "rejects meas"
    );
    let langs: Vec<(&str, LangFactory)> = vec![
        ("connected", Box::new(|| Box::new(Connected))),
        ("triangle-free", Box::new(|| Box::new(TriangleFree))),
        (
            "≥45% density",
            Box::new(|| Box::new(MinEdges::new("dense", |n| n * (n - 1) * 45 / 200))),
        ),
    ];
    for (name, make) in &langs {
        for m in [4usize, 6] {
            let p = accept_rate(&*make(), m);
            let theory = if p > 0.0 { 1.0 / p - 1.0 } else { f64::INFINITY };
            let (meas, steps) = mean_rejections(make, m);
            println!(
                "{name:<22} {m:>3} {p:>14.3} {theory:>16.2} {meas:>14.2}   ({steps:.0} steps)"
            );
        }
    }
    println!("\nmeasured rejection counts should track (1-p)/p for each language.");
}
