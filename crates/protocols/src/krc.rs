//! Protocols 6–7: **2RC / kRC** — constructs a connected spanning
//! `k`-regular network (2(k+1) states; Theorems 10–11).
//!
//! Node states record active degree: `q_i` is a follower of degree `i`,
//! `l_i` a leader of degree `i`. Nodes below degree `k` connect when they
//! meet; leaders walk their components by swapping with followers and
//! eliminate each other, and a saturated leader `l_k` that detects another
//! component (an isolated `q0`, or any other leader, reachable only over
//! an *inactive* edge) temporarily over-saturates to `l_{k+1}` and then
//! drops some incident edge — opening closed components so they can merge.
//! Theorem 11: the stable result is connected and spanning with at least
//! `n − k + 1` nodes of degree exactly `k`.
//!
//! ```text
//! Q = {q0, …, qk, l1, …, l_{k+1}}
//! (q0, q0, 0) → (q1, l1, 1)
//! (qi, qj, 0) → (qi+1, qj+1, 1)        1 ≤ i < k, 0 ≤ j < k
//! (li, lj, 0) → (li+1, qj+1, 1)        1 ≤ i ≤ j < k        (merge)
//! (li, qj, 0) → (qi+1, lj+1, 1)        1 ≤ i < k, 0 ≤ j < k
//! (li, qj, 1) → (qi, lj, 1)            1 ≤ i, j ≤ k          (swap)
//! (li, lj, 1) → (qi, lj, 1)            1 ≤ i ≤ j ≤ k         (eliminate)
//! (lk, q0, 0) → (lk+1, q1, 1)
//! (lk, li, 0) → (lk+1, qi+1, 1)        1 ≤ i < k             (open)
//! (lk, lk, 0) → (lk+1, lk+1, 1)
//! (lk+1, q1, 1) → (lk, q0, 0)
//! (lk+1, qi, 1) → (lk, li−1, 0)        2 ≤ i ≤ k
//! (lk+1, l1, 1) → (lk, q0, 0)
//! (lk+1, li, 1) → (lk, li−1, 0)        2 ≤ i ≤ k
//! (lk+1, lk+1, 1) → (lk, lk, 0)
//! ```
//!
//! The paper writes the merge and elimination families "for all `i, j`";
//! since δ is a partial function on unordered pairs we canonicalize each
//! mixed pair to the `i ≤ j` order (which of the two symmetric roles wins
//! is immaterial to correctness).

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};
use netcon_graph::components::is_connected;

/// State handles for a `kRC` instance.
///
/// Layout: `q_i` has id `i` (`0 ≤ i ≤ k`), `l_i` has id `k + i`
/// (`1 ≤ i ≤ k+1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct States {
    /// The degree bound `k`.
    pub k: u32,
}

impl States {
    /// The follower state `q_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i > k`.
    #[must_use]
    pub fn q(self, i: u32) -> StateId {
        assert!(i <= self.k, "q_{i} does not exist for k={}", self.k);
        StateId::new(u16::try_from(i).expect("k fits in u16"))
    }

    /// The leader state `l_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not within `1..=k+1`.
    #[must_use]
    pub fn l(self, i: u32) -> StateId {
        assert!(
            (1..=self.k + 1).contains(&i),
            "l_{i} does not exist for k={}",
            self.k
        );
        StateId::new(u16::try_from(self.k + i).expect("k fits in u16"))
    }

    /// The recorded degree of a node in state `s` (the state index).
    #[must_use]
    pub fn degree_of(self, s: StateId) -> u32 {
        let raw = u32::try_from(s.index()).expect("ids fit in u32");
        if raw <= self.k {
            raw
        } else {
            raw - self.k
        }
    }

    /// Whether `s` is one of the leader states.
    #[must_use]
    pub fn is_leader(self, s: StateId) -> bool {
        s.index() > self.k as usize
    }
}

/// Builds Protocol 7 (`kRC`) for a fixed `k ≥ 2`; `protocol(2)` is
/// Protocol 6 (`2RC`).
///
/// # Panics
///
/// Panics if `k < 2`.
#[must_use]
pub fn protocol(k: u32) -> RuleProtocol {
    assert!(k >= 2, "kRC requires k >= 2 (the ring case is k = 2)");
    let mut b = ProtocolBuilder::new(format!("{k}RC"));
    // Declare states in the documented layout order.
    let q: Vec<StateId> = (0..=k).map(|i| b.state(format!("q{i}"))).collect();
    let l: Vec<StateId> = (1..=k + 1).map(|i| b.state(format!("l{i}"))).collect();
    let q = |i: u32| q[i as usize];
    let l = |i: u32| l[(i - 1) as usize];
    let (off, on) = (Link::Off, Link::On);

    b.rule((q(0), q(0), off), (q(1), l(1), on));
    for i in 1..k {
        for j in 0..k {
            b.rule((q(i), q(j), off), (q(i + 1), q(j + 1), on));
        }
    }
    for i in 1..k {
        for j in i..k {
            b.rule((l(i), l(j), off), (l(i + 1), q(j + 1), on));
        }
    }
    for i in 1..k {
        for j in 0..k {
            b.rule((l(i), q(j), off), (q(i + 1), l(j + 1), on));
        }
    }
    // Swapping: leaders keep moving inside components.
    for i in 1..=k {
        for j in 1..=k {
            b.rule((l(i), q(j), on), (q(i), l(j), on));
        }
    }
    // Leader elimination: one leader per component survives.
    for i in 1..=k {
        for j in i..=k {
            b.rule((l(i), l(j), on), (q(i), l(j), on));
        }
    }
    // Opening k-regular components in the presence of other components.
    b.rule((l(k), q(0), off), (l(k + 1), q(1), on));
    for i in 1..k {
        b.rule((l(k), l(i), off), (l(k + 1), q(i + 1), on));
    }
    b.rule((l(k), l(k), off), (l(k + 1), l(k + 1), on));
    b.rule((l(k + 1), q(1), on), (l(k), q(0), off));
    for i in 2..=k {
        b.rule((l(k + 1), q(i), on), (l(k), l(i - 1), off));
    }
    b.rule((l(k + 1), l(1), on), (l(k), q(0), off));
    for i in 2..=k {
        b.rule((l(k + 1), l(i), on), (l(k), l(i - 1), off));
    }
    b.rule((l(k + 1), l(k + 1), on), (l(k), l(k), off));
    b.build().expect("Protocol kRC is well-formed")
}

/// Builds Protocol 6 (`2RC`, the spanning-ring variant of the family).
#[must_use]
pub fn two_rc() -> RuleProtocol {
    protocol(2)
}

/// Certifies output stability for `kRC`:
///
/// * no `q0` (nothing to expand towards),
/// * exactly one leader, not in the transient over-saturated state
///   `l_{k+1}`,
/// * all *deficient* nodes (recorded degree `< k`) pairwise adjacent, so
///   no connect rule applies anywhere the walking leadership could reach,
/// * connected and spanning.
///
/// A connected spanning graph has at least `n − 1` edges, an O(1) test
/// that runs first. Deficient nodes are pairwise adjacent iff each has
/// all the others among its active neighbours, which is counted without
/// collecting them.
#[must_use]
pub fn is_stable(pop: &Population<StateId>, k: u32) -> bool {
    let st = States { k };
    let es = pop.edges();
    if es.active_count() + 1 < pop.n() {
        return false;
    }
    let mut leaders = 0usize;
    let mut deficient = 0usize;
    for &s in pop.states() {
        let d = st.degree_of(s);
        if st.is_leader(s) {
            leaders += 1;
            if d == k + 1 {
                return false; // over-saturated leader mid-rewire
            }
        }
        if d == 0 {
            return false; // q0 present
        }
        if d < k {
            deficient += 1;
        }
    }
    let is_deficient = |u: usize| st.degree_of(*pop.state(u)) < k;
    leaders == 1
        && (0..pop.n()).filter(|&u| is_deficient(u)).all(|u| {
            es.neighbors(u).filter(|&v| is_deficient(v)).count() + 1 == deficient
        })
        && is_connected(es)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::{Machine, Simulation};
    use netcon_graph::properties::{is_krc_relaxed, is_spanning_ring};

    #[test]
    fn paper_metadata() {
        for k in 2..=5 {
            let p = protocol(k);
            assert_eq!(
                p.size() as u32,
                2 * (k + 1),
                "Table 2: kRC uses 2(k+1) states"
            );
        }
    }

    #[test]
    fn two_rc_matches_protocol_6_listing() {
        let p = two_rc();
        let st = States { k: 2 };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        use rand::SeedableRng;
        // Spot-check the listing of Protocol 6 (canonical orders).
        let cases = [
            ((st.q(0), st.q(0), Link::Off), (st.q(1), st.l(1), Link::On)),
            ((st.q(1), st.q(0), Link::Off), (st.q(2), st.q(1), Link::On)),
            ((st.q(1), st.q(1), Link::Off), (st.q(2), st.q(2), Link::On)),
            ((st.l(1), st.q(0), Link::Off), (st.q(2), st.l(1), Link::On)),
            ((st.l(1), st.q(1), Link::Off), (st.q(2), st.l(2), Link::On)),
            ((st.l(1), st.q(2), Link::On), (st.q(1), st.l(2), Link::On)),
            ((st.l(2), st.q(0), Link::Off), (st.l(3), st.q(1), Link::On)),
            ((st.l(2), st.l(1), Link::Off), (st.l(3), st.q(2), Link::On)),
            ((st.l(2), st.l(2), Link::Off), (st.l(3), st.l(3), Link::On)),
            ((st.l(3), st.q(1), Link::On), (st.l(2), st.q(0), Link::Off)),
            ((st.l(3), st.q(2), Link::On), (st.l(2), st.l(1), Link::Off)),
            ((st.l(3), st.l(1), Link::On), (st.l(2), st.q(0), Link::Off)),
            ((st.l(3), st.l(2), Link::On), (st.l(2), st.l(1), Link::Off)),
            ((st.l(3), st.l(3), Link::On), (st.l(2), st.l(2), Link::Off)),
        ];
        for ((a, b, link), want) in cases {
            if a != b {
                let got = p.interact(&a, &b, link, &mut rng).expect("rule defined");
                assert_eq!(got, want, "rule for ({a:?},{b:?},{link:?})");
            } else {
                // Symmetric inputs may be coin-flipped; compare as a set.
                let got = p.interact(&a, &b, link, &mut rng).expect("rule defined");
                let (wa, wb, wl) = want;
                assert!(
                    got == (wa, wb, wl) || got == (wb, wa, wl),
                    "rule for ({a:?},{a:?},{link:?}): got {got:?}"
                );
            }
        }
    }

    #[test]
    fn two_rc_constructs_spanning_ring() {
        for n in [3, 4, 5, 8, 12] {
            for seed in 0..3 {
                let sim = assert_stabilizes(
                    protocol(2),
                    n,
                    seed,
                    |p| is_stable(p, 2),
                    500_000_000,
                    60_000,
                );
                assert!(
                    is_spanning_ring(sim.population().edges()),
                    "2RC stable config must be a spanning ring (n={n}, seed={seed})"
                );
            }
        }
    }

    #[test]
    fn krc_constructs_relaxed_regular_networks() {
        for (k, n) in [(3u32, 8usize), (3, 12), (4, 10)] {
            for seed in 0..2 {
                let sim = assert_stabilizes(
                    protocol(k),
                    n,
                    seed,
                    |p| is_stable(p, k),
                    1_000_000_000,
                    60_000,
                );
                assert!(
                    is_krc_relaxed(sim.population().edges(), k),
                    "kRC stable config violates Theorem 11 (k={k}, n={n}, seed={seed}): {:?}",
                    sim.population().edges()
                );
            }
        }
    }

    #[test]
    fn state_records_degree_invariant() {
        let st = States { k: 3 };
        let mut sim = Simulation::new(protocol(3), 12, 77);
        for _ in 0..200 {
            sim.run_for(200);
            let pop = sim.population();
            for u in 0..pop.n() {
                assert_eq!(
                    st.degree_of(*pop.state(u)),
                    pop.edges().degree(u),
                    "state of node {u} must record its degree"
                );
            }
        }
    }

    #[test]
    fn every_component_keeps_a_leader() {
        let st = States { k: 2 };
        let mut sim = Simulation::new(protocol(2), 14, 3);
        for _ in 0..200 {
            sim.run_for(200);
            let pop = sim.population();
            for comp in netcon_graph::components::connected_components(pop.edges()) {
                if comp.len() == 1 && *pop.state(comp[0]) == st.q(0) {
                    continue; // isolated q0
                }
                let leaders = comp
                    .iter()
                    .filter(|&&u| st.is_leader(*pop.state(u)))
                    .count();
                assert!(leaders >= 1, "component {comp:?} lost its leader");
            }
        }
    }
}
