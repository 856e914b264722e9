//! Integration: every protocol in the catalogue, driven purely through
//! the public facade, stabilizes to its target shape and stays there.

use netcon::core::testing::{assert_stabilizes, step_budget};
use netcon::core::{ChurnPlan, CompiledTable, EngineView, Population, Simulation, StateId};
use netcon::graph::properties::{
    is_clique_partition, is_cycle_cover_with_waste, is_krc_relaxed, is_spanning_line,
    is_spanning_net, is_spanning_ring, is_spanning_star,
};
use netcon::protocols::*;

#[test]
fn every_table2_entry_builds() {
    for e in catalog::table2() {
        assert!(e.protocol.size() >= 2, "{} is degenerate", e.name);
        assert_eq!(e.protocol.size(), e.paper_states, "{}", e.name);
    }
}

#[test]
fn lines_rings_stars_covers() {
    let n = 10;
    let seed = 123;

    let sim = assert_stabilizes(
        simple_global_line::protocol(),
        n,
        seed,
        simple_global_line::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_spanning_line(sim.population().edges()));

    let sim = assert_stabilizes(
        fast_global_line::protocol(),
        n,
        seed,
        fast_global_line::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_spanning_line(sim.population().edges()));

    let sim = assert_stabilizes(
        global_star::protocol(),
        n,
        seed,
        global_star::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_spanning_star(sim.population().edges()));

    let sim = assert_stabilizes(
        global_ring::protocol(),
        n,
        seed,
        global_ring::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_spanning_ring(sim.population().edges()));

    let sim = assert_stabilizes(
        cycle_cover::protocol(),
        n,
        seed,
        cycle_cover::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_cycle_cover_with_waste(sim.population().edges(), 2));

    let sim = assert_stabilizes(
        spanning_net::protocol(),
        n,
        seed,
        spanning_net::is_stable,
        step_budget(n),
        20_000,
    );
    assert!(is_spanning_net(sim.population().edges()));
}

#[test]
fn regular_networks_and_cliques() {
    let sim = assert_stabilizes(
        krc::protocol(2),
        9,
        5,
        |p: &Population<StateId>| krc::is_stable(p, 2),
        step_budget(9),
        20_000,
    );
    assert!(is_spanning_ring(sim.population().edges()));

    let sim = assert_stabilizes(
        krc::protocol(3),
        10,
        5,
        |p: &Population<StateId>| krc::is_stable(p, 3),
        step_budget(10),
        20_000,
    );
    assert!(is_krc_relaxed(sim.population().edges(), 3));

    let sim = assert_stabilizes(
        c_cliques::protocol(3),
        9,
        5,
        |p: &Population<StateId>| c_cliques::is_stable(p, 3),
        step_budget(9),
        20_000,
    );
    assert!(is_clique_partition(sim.population().edges(), 3));
}

#[test]
fn convergence_is_reproducible_per_seed() {
    let run = |seed: u64| {
        let mut sim = Simulation::new(global_star::protocol(), 20, seed);
        sim.run_until(global_star::is_stable, step_budget(20))
            .converged_at()
            .expect("stabilizes")
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1), run(2), "different seeds give different executions");
}

/// A dense oracle and the view predicate that claims to fire with it.
type PredicatePair = (
    &'static str,
    netcon::core::RuleProtocol,
    fn(&Population<StateId>) -> bool,
    fn(&EngineView<'_, CompiledTable>) -> bool,
);

#[test]
fn view_predicates_agree_with_dense_oracles_step_by_step() {
    // On the naive loop, every configuration a run passes through gets
    // both answers: after each effective draw (an ineffective one leaves
    // the configuration, and so both answers, unchanged) until the dense
    // oracle certifies stability.
    let pairs: [PredicatePair; 5] = [
        (
            "Simple-Global-Line",
            simple_global_line::protocol(),
            simple_global_line::is_stable,
            simple_global_line::is_stable_view,
        ),
        (
            "Cycle-Cover",
            cycle_cover::protocol(),
            cycle_cover::is_stable,
            cycle_cover::is_stable_view,
        ),
        (
            "Global-Star",
            global_star::protocol(),
            global_star::is_stable,
            global_star::is_stable_view,
        ),
        (
            "FT-Global-Star",
            ft_star::protocol(),
            ft_star::is_stable,
            ft_star::is_stable_view,
        ),
        (
            "FT-Spanning-Line",
            ft_line::protocol(),
            ft_line::is_stable,
            ft_line::is_stable_view,
        ),
    ];
    for (name, protocol, oracle, view) in pairs {
        let machine = protocol.compile();
        for n in [4, 7, 10] {
            for seed in 0..10 {
                let mut sim = Simulation::new(protocol.clone(), n, seed);
                loop {
                    let pop = sim.population();
                    let stable = oracle(pop);
                    let v = EngineView::Dense { pop, machine: &machine, faults: None };
                    assert_eq!(
                        view(&v),
                        stable,
                        "{name} n={n} seed={seed} after {} draws",
                        sim.steps()
                    );
                    if stable {
                        break;
                    }
                    assert!(sim.steps() < step_budget(n), "{name} n={n} seed={seed} stuck");
                    while !sim.step().is_effective() {}
                }
            }
        }
    }
}

/// Brute force: the active edges among the alive nodes form one line
/// spanning them.
fn alive_edges_span_one_line(pop: &Population<StateId>, alive: &[usize]) -> bool {
    let mut es = netcon::graph::EdgeSet::new(alive.len());
    for (i, &u) in alive.iter().enumerate() {
        for (j, &w) in alive.iter().enumerate().skip(i + 1) {
            if pop.edges().is_active(u, w) {
                es.activate(i, j);
            }
        }
    }
    is_spanning_line(&es)
}

#[test]
fn ft_line_faulted_predicate_agrees_with_brute_force_under_churn() {
    // Arrivals and crashes move the alive set under the run; the O(1)
    // edge-count predicate must still answer exactly "one line spans
    // the alive nodes" after every draw.
    let (n, draws) = (8, 20_000);
    let machine = ft_line::protocol().compile();
    let (mut held, mut failed, mut faults) = (0u32, 0u32, 0usize);
    for seed in 0..10 {
        let plan = ChurnPlan::new(seed)
            .arrival_rate(2e-4)
            .departure_rate(2e-4)
            .min_alive(4)
            .horizon(15_000)
            .compile(n);
        let mut sim = Simulation::new_faulted(ft_line::protocol(), n, seed, plan);
        for t in 1..=draws {
            sim.run_faulted_to(t);
            let fs = sim.fault_state().expect("faulted");
            let pop = sim.population();
            let alive: Vec<usize> = (0..pop.n()).filter(|&u| fs.is_alive(u)).collect();
            let v = EngineView::Dense { pop, machine: &machine, faults: Some(fs) };
            let stable = ft_line::is_stable_faulted(&v, fs);
            assert_eq!(
                stable,
                alive_edges_span_one_line(pop, &alive),
                "seed={seed} after {t} draws, {} alive",
                alive.len()
            );
            if stable {
                held += 1;
            } else {
                failed += 1;
            }
        }
        faults += sim.fault_state().expect("faulted").applied();
    }
    assert!(faults > 0, "the churn stream applied no events");
    assert!(held > 0 && failed > 0, "both answers are exercised ({held} / {failed})");
}
