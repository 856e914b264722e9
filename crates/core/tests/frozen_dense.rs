//! Frozen trajectories of the dense exact engines.
//!
//! `EventSim` and `RoundSim` share one dense core (`DenseCore`: the
//! configuration and its incremental effective-pair set), whose member
//! order decides which pair every sampled position names. These tests
//! pin `(steps, effective_steps, edge_events, last_output_change,
//! population hash)` of fixed-seed runs on both engines to constants
//! recorded before that set learned to skip the rescans of unchanged
//! nodes and to build itself word-parallel — so any change to the core
//! that moves a single member, coin, edge or stopping step fails here.
//!
//! Coverage: Global-Star at n = 64 (almost every effective step only
//! toggles a link); FT-Global-Star under Poisson churn and under
//! max-degree crash strikes (the faulted paths: crashes, crash
//! notifications, arrivals); Simple-Global-Line, Cycle-Cover at n = 128
//! and 3-Cliques run to their stability oracles; edge cover at n = 100 (no
//! interaction ever changes a state); and a table past the 32 states of a
//! packed affect row, started from a configuration with active edges.

use netcon_core::{
    AdversaryPlan, AdversaryPolicy, Cadence, ChurnPlan, CompiledTable, EngineView, EventSim,
    ExactEngine, FaultPlan, FaultState, Link, Population, ProtocolBuilder, RoundSim,
    RuleProtocol, StateId,
};
use netcon_protocols::{c_cliques, cycle_cover, ft_star, global_star, simple_global_line};

/// `(steps, effective_steps, edge_events, last_output_change,
/// population hash)`.
type Fingerprint = (u64, u64, u64, u64, u64);

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

fn fingerprint<E: ExactEngine<Config = Population<StateId>>>(e: &E) -> Fingerprint {
    (
        e.steps(),
        e.effective_steps(),
        e.edge_events(),
        e.last_output_change(),
        population_hash(e.config()),
    )
}

/// Runs `e` to `stable` and fingerprints the stopping configuration.
fn stabilized<E: ExactEngine<Config = Population<StateId>>>(
    mut e: E,
    stable: impl FnMut(&Population<StateId>) -> bool,
) -> Fingerprint {
    let out = e.run_until(stable, 1_000_000_000);
    assert!(out.stabilized(), "{out:?}");
    fingerprint(&e)
}

/// Both dense engines on one protocol, size and seed, run to `stable`.
fn both(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    stable: impl Fn(&Population<StateId>) -> bool,
) -> [Fingerprint; 2] {
    [
        stabilized(EventSim::new(protocol.compile(), n, seed), &stable),
        stabilized(RoundSim::new(protocol.compile(), n, seed), &stable),
    ]
}

/// Both dense engines under one fault plan, run until every planned
/// fault has landed and FT-Global-Star is stable on the survivors.
fn both_faulted(n: usize, seed: u64, plan: impl Fn() -> FaultPlan) -> [Fingerprint; 2] {
    fn run<E: ExactEngine<Config = Population<StateId>>>(
        mut e: E,
        machine: &CompiledTable,
    ) -> Fingerprint {
        let out = e.run_faulted_until(
            |pop, fs: &FaultState| {
                let view = EngineView::Dense {
                    pop,
                    machine,
                    faults: Some(fs),
                };
                ft_star::is_stable_faulted(&view, fs)
            },
            1_000_000_000,
        );
        assert!(out.stabilized(), "{out:?}");
        fingerprint(&e)
    }
    let machine = ft_star::protocol().compile();
    [
        run(EventSim::new_faulted(machine.clone(), n, seed, plan()), &machine),
        run(RoundSim::new_faulted(machine.clone(), n, seed, plan()), &machine),
    ]
}

#[test]
fn global_star_n64() {
    let p = global_star::protocol();
    assert_eq!(
        [both(&p, 64, 1, global_star::is_stable), both(&p, 64, 2, global_star::is_stable)],
        [
            [
                (10179, 663, 663, 10179, 13397790880409992805),
                (4032, 645, 645, 4032, 683249221275373925),
            ],
            [
                (16946, 597, 597, 16946, 2775189575640258437),
                (4025, 635, 635, 4025, 941210922082233189),
            ],
        ]
    );
}

#[test]
fn ft_star_under_churn() {
    let churn = || {
        ChurnPlan::new(21)
            .arrival_rate(1e-4)
            .departure_rate(1e-4)
            .min_alive(8)
            .horizon(60_000)
            .compile(32)
    };
    assert_eq!(
        both_faulted(32, 3, churn),
        [
            (59922, 628, 635, 59922, 7726753660227550371),
            (57028, 707, 745, 57028, 8912687077013506946),
        ]
    );
}

#[test]
fn ft_star_under_max_degree_strikes() {
    let strikes = || {
        let adv = AdversaryPlan::new(Cadence::Periodic {
            start: 10_000,
            every: 10_000,
            count: 4,
        })
        .min_alive(8)
        .policy(AdversaryPolicy::CrashMaxDegree);
        FaultPlan::new(22).with_adversary(adv)
    };
    assert_eq!(
        both_faulted(16, 4, strikes),
        [
            (40673, 385, 439, 40673, 8644725424368585973),
            (40196, 343, 397, 40196, 8663474203816216789),
        ]
    );
}

#[test]
fn simple_global_line_cycle_cover_and_three_cliques() {
    assert_eq!(
        [
            both(&simple_global_line::protocol(), 32, 5, simple_global_line::is_stable),
            both(&cycle_cover::protocol(), 128, 6, cycle_cover::is_stable),
            both(&c_cliques::protocol(3), 12, 7, |p| c_cliques::is_stable(p, 3)),
        ],
        [
            [
                (43410, 259, 31, 43410, 2728819438543226178),
                (11402, 110, 31, 11402, 8223693963908764770),
            ],
            [
                (6402, 127, 127, 6402, 5004716432400193542),
                (6102, 128, 128, 6102, 5505470208616821445),
            ],
            [
                (47885, 4170, 198, 47885, 5658816883109434950),
                (49461, 4270, 280, 49461, 16545683416560921510),
            ],
        ]
    );
}

#[test]
fn edge_cover_n100() {
    let mut b = ProtocolBuilder::new("edge-cover");
    let a = b.state("a");
    b.rule((a, a, Link::Off), (a, a, Link::On));
    let p = b.build().expect("valid");
    let all_on = |pop: &Population<StateId>| pop.edges().active_count() == pop.edges().pair_count();
    assert_eq!(
        both(&p, 100, 8, all_on),
        [
            (39255, 4950, 4950, 39255, 6373959600590443841),
            (4950, 4950, 4950, 4950, 6373959600590443841),
        ]
    );
}

/// A 40-state table (past the 32 states of a packed affect row, so the
/// index takes its per-pair arm) with rules on both links, started with a
/// ring of active edges so the edge-on relation is live from the first
/// draw.
#[test]
fn many_states_from_population_with_active_edges() {
    const Q: usize = 40;
    let mut b = ProtocolBuilder::new("many-states");
    let s: Vec<_> = (0..Q).map(|i| b.state(format!("s{i}"))).collect();
    for i in 0..Q {
        b.rule(
            (s[i], s[(i + 1) % Q], Link::Off),
            (s[(i + 2) % Q], s[(i + 3) % Q], Link::On),
        );
        b.rule(
            (s[i], s[(i + 5) % Q], Link::On),
            (s[(i + 1) % Q], s[(i + 7) % Q], Link::Off),
        );
    }
    let p = b.build().expect("distinct unordered triples are valid");
    let n = 120;
    let mut pop = Population::new(n, s[0]);
    for u in 0..n {
        pop.set_state(u, s[(u * 7) % Q]);
        pop.edges_mut().set(u, (u + 1) % n, true);
    }
    let mut event = EventSim::from_population(p.compile(), pop.clone(), 9);
    event.run_to(200_000);
    let mut round = RoundSim::from_population(p.compile(), pop, 9);
    round.run_to(200_000);
    assert_eq!(
        [fingerprint(&event), fingerprint(&round)],
        [
            (200000, 7903, 7903, 199998, 8749113927265253286),
            (200000, 8806, 8806, 199992, 14727919136599528212),
        ]
    );
}
