//! Frozen trajectories of the naive reference loop.
//!
//! `Simulation` is the paper's semantics (§3.1: one scheduler-selected
//! pair per step), and every exact engine is checked against it. These
//! tests pin `(steps, effective_steps, edge_events, population hash)` of
//! fixed-seed runs to constants recorded before the draw loop, the edge
//! bitset and the shape oracles were last optimized — so any change to
//! those layers that moves a single coin, a single edge, or the step at
//! which an oracle first holds fails here.
//!
//! Coverage: Simple-Global-Line, Cycle-Cover and 3-Cliques run to their
//! stability oracles; a hand-built protocol with weighted randomized rules
//! and equal-state symmetry-breaking coins runs for a fixed draw count;
//! all three schedulers (`Uniform`, `ShuffledRounds`, `RoundRobin`); and
//! one faulted run with `DeleteRandomActiveEdges`.

use netcon_core::{
    FaultEvent, FaultPlan, Link, Population, ProtocolBuilder, RoundRobin, RuleProtocol, Scheduler,
    ShuffledRounds, Simulation, StateId,
};
use netcon_protocols::{c_cliques, cycle_cover, simple_global_line};

/// `(steps, effective_steps, edge_events, population hash)`.
type Fingerprint = (u64, u64, u64, u64);

/// FNV-1a over `n`, every node state, and every pair's edge bit in
/// `u < v` lexicographic order — independent of any iteration order the
/// edge set itself offers.
fn population_hash(pop: &Population<StateId>) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let n = pop.n();
    eat(n as u64);
    for u in 0..n {
        eat(pop.state(u).index() as u64);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            eat(u64::from(pop.edges().is_active(u, v)));
        }
    }
    h
}

fn fingerprint<S: Scheduler>(sim: &Simulation<RuleProtocol, S>) -> Fingerprint {
    (
        sim.steps(),
        sim.effective_steps(),
        sim.edge_events(),
        population_hash(sim.population()),
    )
}

/// Runs `sim` to `stable` and fingerprints the stopping configuration.
fn stabilized<S: Scheduler>(
    mut sim: Simulation<RuleProtocol, S>,
    stable: impl FnMut(&Population<StateId>) -> bool,
) -> Fingerprint {
    let out = sim.run_until(stable, 50_000_000);
    assert!(out.stabilized(), "{out:?}");
    fingerprint(&sim)
}

/// A protocol whose δ exercises every coin the naive loop can consume:
/// weighted randomized right-hand sides (one of them on an equal-state
/// left-hand side with distinct outputs, so the symmetry-breaking coin
/// follows the weight roll) and a deterministic asymmetric rule on equal
/// states.
fn coin_protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("coins");
    let a = b.state("a");
    let x = b.state("x");
    let y = b.state("y");
    let (off, on) = (Link::Off, Link::On);
    b.rule_random((a, a, off), [(1, (x, y, on)), (2, (a, x, off))]);
    b.rule((x, x, off), (a, y, on));
    b.rule_random((x, y, on), [(3, (y, y, off)), (1, (x, a, on))]);
    b.rule_random((y, y, off), [(1, (a, a, off)), (1, (y, x, on))]);
    b.rule((a, y, on), (x, x, off));
    b.build().expect("distinct unordered triples are valid")
}

#[test]
fn simple_global_line_uniform() {
    let got: Vec<Fingerprint> = [1u64, 2, 3]
        .iter()
        .map(|&seed| {
            stabilized(
                Simulation::new(simple_global_line::protocol(), 16, seed),
                simple_global_line::is_stable,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            (1883, 38, 15, 1358073444387071154),
            (1380, 37, 15, 13158069829263634002),
            (766, 31, 15, 7580175152993205714),
        ]
    );
}

#[test]
fn cycle_cover_uniform() {
    let got: Vec<Fingerprint> = [4u64, 5, 6]
        .iter()
        .map(|&seed| {
            stabilized(
                Simulation::new(cycle_cover::protocol(), 25, seed),
                cycle_cover::is_stable,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            (295, 25, 25, 11437272787631689503),
            (255, 25, 25, 6108486951753521631),
            (271, 25, 25, 4914946659590814527),
        ]
    );
}

#[test]
fn three_cliques_uniform() {
    let got: Vec<Fingerprint> = [7u64, 8, 9]
        .iter()
        .map(|&seed| {
            stabilized(Simulation::new(c_cliques::protocol(3), 10, seed), |p| {
                c_cliques::is_stable(p, 3)
            })
        })
        .collect();
    assert_eq!(
        got,
        [
            (60336, 5552, 287, 8555569874842271592),
            (12861, 1223, 69, 3682460270789156808),
            (228, 26, 11, 10873785228444833543),
        ]
    );
}

#[test]
fn randomized_rules_and_symmetry_coins() {
    let got: Vec<Fingerprint> = [10u64, 11]
        .iter()
        .map(|&seed| {
            let mut sim = Simulation::new(coin_protocol(), 9, seed);
            sim.run_for(20_000);
            fingerprint(&sim)
        })
        .collect();
    assert_eq!(
        got,
        [
            (20000, 7098, 5416, 6623266154931830348),
            (20000, 7062, 5472, 2867214188689819917),
        ]
    );
}

#[test]
fn shuffled_rounds_scheduler() {
    let line = stabilized(
        Simulation::with_scheduler(
            simple_global_line::protocol(),
            14,
            12,
            ShuffledRounds::new(),
        ),
        simple_global_line::is_stable,
    );
    let mut coins = Simulation::with_scheduler(coin_protocol(), 8, 13, ShuffledRounds::new());
    coins.run_for(10_000);
    assert_eq!(
        [line, fingerprint(&coins)],
        [
            (318, 18, 13, 7869181783093841612),
            (10000, 3652, 2703, 7851268051825161998),
        ]
    );
}

#[test]
fn round_robin_scheduler() {
    let cover = stabilized(
        Simulation::with_scheduler(cycle_cover::protocol(), 19, 14, RoundRobin::new()),
        cycle_cover::is_stable,
    );
    let mut coins = Simulation::with_scheduler(coin_protocol(), 7, 15, RoundRobin::new());
    coins.run_for(10_000);
    assert_eq!(
        [cover, fingerprint(&coins)],
        [
            (169, 18, 18, 17960522303289895286),
            (10000, 3647, 2723, 11985215361817825025),
        ]
    );
}

#[test]
fn faulted_random_edge_deletions() {
    let plan = FaultPlan::new(16)
        .at(200, FaultEvent::DeleteRandomActiveEdges(4))
        .at(900, FaultEvent::CrashRandom)
        .at(1_500, FaultEvent::DeleteRandomActiveEdges(3))
        .at(2_000, FaultEvent::Arrive);
    let mut sim = Simulation::new_faulted(cycle_cover::protocol(), 14, 17, plan);
    sim.run_faulted_to(6_000);
    assert_eq!(fingerprint(&sim), (6000, 14, 22, 3296307144650318090));
}
