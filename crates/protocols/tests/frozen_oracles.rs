//! The counting stability oracles against a frozen copy of their
//! vector-collecting implementations.
//!
//! Each oracle is compared on every configuration a run shows it (the
//! initial one and one per effective step, up to stability) and on
//! mutated copies of each — one node moved to a random state, one pair's
//! edge flipped. Every accepted configuration is also compared under
//! *all* single-node state changes, two-node state swaps and single-pair
//! edge flips: the near misses of a stable configuration are where a
//! counting shortcut could answer differently.

use netcon_core::{EventSim, ExactEngine, Machine, Population, RuleProtocol, StateId};
use netcon_graph::components::is_connected;
use netcon_graph::properties::{
    is_clique_partition, is_cycle_cover_with_waste, is_spanning_ring, is_spanning_star,
};
use netcon_protocols::{c_cliques, cycle_cover, global_ring, global_star, krc};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

type Oracle<'a> = &'a dyn Fn(&Population<StateId>) -> bool;

/// The oracles as they were when each collected `nodes_where` vectors,
/// verbatim.
mod frozen {
    use super::*;
    use netcon_protocols::cycle_cover::{Q0, Q1};
    use netcon_protocols::global_star::C;

    pub fn cycle_cover(pop: &Population<StateId>) -> bool {
        let q0s = pop.nodes_where(|s| *s == Q0);
        let q1s = pop.nodes_where(|s| *s == Q1);
        let residue_ok = match (q0s.len(), q1s.len()) {
            (0, 0) => true,
            (1, 0) => true,
            (0, 2) => pop.edges().is_active(q1s[0], q1s[1]),
            _ => false,
        };
        residue_ok && is_cycle_cover_with_waste(pop.edges(), 2)
    }

    pub fn global_star(pop: &Population<StateId>) -> bool {
        let centers = pop.nodes_where(|s| *s == C);
        centers.len() == 1
            && is_spanning_star(pop.edges())
            && pop.edges().degree(centers[0]) as usize == pop.n() - 1
    }

    pub fn global_ring(pop: &Population<StateId>) -> bool {
        use netcon_protocols::global_ring::{LP, Q2, Q2P};
        let lps = pop.nodes_where(|s| *s == LP);
        let q2ps = pop.nodes_where(|s| *s == Q2P);
        lps.len() == 1
            && q2ps.len() == 1
            && pop.count_where(|s| *s == Q2) == pop.n() - 2
            && pop.edges().is_active(lps[0], q2ps[0])
            && is_spanning_ring(pop.edges())
    }

    pub fn krc(pop: &Population<StateId>, k: u32) -> bool {
        let st = krc::States { k };
        let mut leaders = 0usize;
        let mut deficient: Vec<usize> = Vec::new();
        for (u, s) in pop.states().iter().enumerate() {
            let d = st.degree_of(*s);
            if st.is_leader(*s) {
                leaders += 1;
                if d == k + 1 {
                    return false; // over-saturated leader mid-rewire
                }
            }
            if d == 0 {
                return false; // q0 present
            }
            if d < k {
                deficient.push(u);
            }
        }
        if leaders != 1 {
            return false;
        }
        for (a, &u) in deficient.iter().enumerate() {
            for &v in &deficient[a + 1..] {
                if !pop.edges().is_active(u, v) {
                    return false;
                }
            }
        }
        is_connected(pop.edges())
    }

    pub fn c_cliques(pop: &Population<StateId>, c: u16) -> bool {
        let st = c_cliques::States { c };
        pop.count_where(|s| st.is_captured(*s)) == 0 && is_clique_partition(pop.edges(), c as usize)
    }
}

/// Runs `protocol` on `n` nodes from each seed to `new`, asserting `new`
/// and `old` agree on every configuration shown and on mutations of it;
/// returns how many of the compared configurations the oracles accepted.
fn compare(protocol: &RuleProtocol, n: usize, seeds: u64, new: Oracle, old: Oracle) -> usize {
    let states = protocol.size();
    let mut rng = SmallRng::seed_from_u64(n as u64);
    let mut accepted = 0;
    for seed in 0..seeds {
        let mut sim = EventSim::new(protocol.compile(), n, seed);
        let out = sim.run_until(
            |pop| {
                let mut check = |p: &Population<StateId>, what: &str| {
                    let want = old(p);
                    assert_eq!(
                        new(p),
                        want,
                        "{} n={n} seed={seed} {what}: {p:?}",
                        protocol.name()
                    );
                    accepted += usize::from(want);
                };
                check(pop, "as run");
                let mut moved = pop.clone();
                let u = rng.random_range(0..n);
                let s = rng.random_range(0..states);
                moved.set_state(u, StateId::new(u16::try_from(s).expect("few states")));
                check(&moved, "state moved");
                let mut flipped = pop.clone();
                let u = rng.random_range(0..n);
                let v = (u + rng.random_range(1..n)) % n;
                let on = flipped.edges().is_active(u, v);
                flipped.edges_mut().set(u, v, !on);
                check(&flipped, "edge flipped");
                if old(pop) {
                    for u in 0..n {
                        for s in 0..states {
                            let mut moved = pop.clone();
                            moved.set_state(u, StateId::new(u16::try_from(s).expect("few states")));
                            check(&moved, "accepted, state moved");
                        }
                        for v in (u + 1)..n {
                            let mut swapped = pop.clone();
                            swapped.set_state(u, *pop.state(v));
                            swapped.set_state(v, *pop.state(u));
                            check(&swapped, "accepted, states swapped");
                            let mut flipped = pop.clone();
                            let on = flipped.edges().is_active(u, v);
                            flipped.edges_mut().set(u, v, !on);
                            check(&flipped, "accepted, edge flipped");
                        }
                    }
                }
                new(pop)
            },
            50_000_000,
        );
        assert!(
            out.stabilized(),
            "{} n={n} seed={seed}: {out:?}",
            protocol.name()
        );
    }
    accepted
}

#[test]
fn cycle_cover_matches_frozen() {
    let p = cycle_cover::protocol();
    for n in [9, 16, 25, 64] {
        let accepted = compare(&p, n, 20, &cycle_cover::is_stable, &frozen::cycle_cover);
        assert!(accepted > 0, "n={n}");
    }
}

#[test]
fn global_star_matches_frozen() {
    let p = global_star::protocol();
    for n in [2, 8, 16, 64] {
        let accepted = compare(&p, n, 6, &global_star::is_stable, &frozen::global_star);
        assert!(accepted > 0, "n={n}");
    }
}

#[test]
fn global_ring_matches_frozen() {
    let p = global_ring::protocol();
    for n in [3, 5, 8, 16] {
        let accepted = compare(&p, n, 6, &global_ring::is_stable, &frozen::global_ring);
        assert!(accepted > 0, "n={n}");
    }
}

#[test]
fn krc_matches_frozen() {
    for (k, n) in [(2, 6), (2, 10), (3, 8), (3, 10)] {
        let p = krc::protocol(k);
        let new = |pop: &Population<StateId>| krc::is_stable(pop, k);
        let old = |pop: &Population<StateId>| frozen::krc(pop, k);
        assert!(compare(&p, n, 6, &new, &old) > 0, "k={k} n={n}");
    }
}

#[test]
fn c_cliques_matches_frozen() {
    for (c, n) in [(3, 9), (3, 10), (4, 8), (4, 11)] {
        let p = c_cliques::protocol(c);
        let new = |pop: &Population<StateId>| c_cliques::is_stable(pop, c);
        let old = |pop: &Population<StateId>| frozen::c_cliques(pop, c);
        assert!(compare(&p, n, 6, &new, &old) > 0, "c={c} n={n}");
    }
}
