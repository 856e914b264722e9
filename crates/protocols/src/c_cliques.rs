//! Protocol 8: **c-Cliques** — partitions the population into `⌊n/c⌋`
//! cliques of order `c` (5c−3 states; Theorem 12).
//!
//! A leader grows a component by attracting isolated nodes (or capturing
//! other incomplete leaders, whose own followers are released — the
//! "nondeterministic elimination" that avoids deadlock). When a component
//! reaches `c` nodes the leader numbers its `c − 1` followers, the
//! followers connect pairwise (counting their connections), and the leader
//! then patrols forever: it swaps into a follower's position (`l'_i`) and
//! any two patrolling leaders that meet over an *active* edge have found a
//! wrong (cross-component) connection, which they deactivate.
//!
//! ```text
//! Q = {l0..l_{c−2}, f1..f_{c−2}, f, l̄0..l̄_{c−2}, l, 1..c−1, l'1..l'_{c−1}, r}
//! (li, l0, 0)   → (li+1, f, 1)          0 ≤ i < c−2
//! (l_{c−2}, l0, 0) → (l̄1, 1, 1)
//! (li, lj, 0)   → (li+1, fj, 1)         1 ≤ j ≤ i < c−2
//! (l_{c−2}, lj, 0) → (l̄0, fj, 1)       1 ≤ j ≤ c−2
//! (fi, f, 1)    → (fi−1, l0, 0)         i > 1
//! (f1, f, 1)    → (f, l0, 0)
//! (l̄i, f, 1)   → (l̄i+1, 1, 1)         i < c−2
//! (l̄_{c−2}, f, 1) → (l, 1, 1)
//! (i, j, 0)     → (i+1, j+1, 1)         i < c−1, j < c−1
//! (l, i, 1)     → (r, l'i, 1)
//! (l'i, l'j, 1) → (l'i−1, l'j−1, 0)     2 ≤ i, j ≤ c−1
//! (l'i, r, 1)   → (i, l, 1)
//! ```

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};
use netcon_graph::properties::is_clique_partition;

/// State handles for a `c-Cliques` instance.
///
/// Layout (ids in declaration order): `l0..l_{c−2}`, `f1..f_{c−2}`, `f`,
/// `l̄0..l̄_{c−2}`, `l`, numbered followers `1..c−1`, primed followers
/// `l'1..l'_{c−1}`, `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct States {
    /// The clique order `c`.
    pub c: u16,
}

impl States {
    /// Incomplete-component leader `l_i` (`0 ≤ i ≤ c−2`).
    #[must_use]
    pub fn leader(self, i: u16) -> StateId {
        assert!(i <= self.c - 2);
        StateId::new(i)
    }

    /// Captured leader `f_i` still holding `i` followers (`1 ≤ i ≤ c−2`).
    #[must_use]
    pub fn captured(self, i: u16) -> StateId {
        assert!((1..=self.c - 2).contains(&i));
        StateId::new(self.c - 1 + (i - 1))
    }

    /// Plain follower `f` (attached, unnumbered).
    #[must_use]
    pub fn follower(self) -> StateId {
        StateId::new(2 * self.c - 3)
    }

    /// Numbering leader `l̄_i` (`0 ≤ i ≤ c−2`).
    #[must_use]
    pub fn numbering(self, i: u16) -> StateId {
        assert!(i <= self.c - 2);
        StateId::new(2 * self.c - 2 + i)
    }

    /// Patrolling leader `l` of a complete component.
    #[must_use]
    pub fn patrol(self) -> StateId {
        StateId::new(3 * self.c - 3)
    }

    /// Numbered follower with `i` active connections (`1 ≤ i ≤ c−1`).
    #[must_use]
    pub fn numbered(self, i: u16) -> StateId {
        assert!((1..=self.c - 1).contains(&i));
        StateId::new(3 * self.c - 2 + (i - 1))
    }

    /// Checking leader `l'_i` occupying a follower of count `i`.
    #[must_use]
    pub fn checking(self, i: u16) -> StateId {
        assert!((1..=self.c - 1).contains(&i));
        StateId::new(4 * self.c - 3 + (i - 1))
    }

    /// Place-holder `r` left at the patrol leader's home position.
    #[must_use]
    pub fn rest(self) -> StateId {
        StateId::new(5 * self.c - 4)
    }

    /// Whether `s` is a captured leader (`f_i`) — a transient state whose
    /// presence means releases (edge deactivations) are still pending.
    #[must_use]
    pub fn is_captured(self, s: StateId) -> bool {
        (self.c - 1..2 * self.c - 3).contains(&(s.index() as u16))
    }
}

/// Builds Protocol 8 for clique order `c ≥ 3`.
///
/// (For `c = 2` the problem is maximum matching, solved by the 2-state
/// matching process of §3.3; this protocol's state layout needs `c ≥ 3`.)
///
/// # Panics
///
/// Panics if `c < 3`.
#[must_use]
pub fn protocol(c: u16) -> RuleProtocol {
    assert!(c >= 3, "c-Cliques requires c >= 3; use a matching for c = 2");
    let mut b = ProtocolBuilder::new(format!("{c}-Cliques"));
    let st = States { c };
    // Declare all states in layout order so the handles above are valid.
    for i in 0..=c - 2 {
        b.state(format!("l{i}"));
    }
    for i in 1..=c - 2 {
        b.state(format!("f{i}"));
    }
    b.state("f");
    for i in 0..=c - 2 {
        b.state(format!("lbar{i}"));
    }
    b.state("l");
    for i in 1..=c - 1 {
        b.state(format!("n{i}"));
    }
    for i in 1..=c - 1 {
        b.state(format!("l'{i}"));
    }
    b.state("r");
    let (off, on) = (Link::Off, Link::On);

    // Growth by attracting isolated nodes.
    for i in 0..c - 2 {
        b.rule((st.leader(i), st.leader(0), off), (st.leader(i + 1), st.follower(), on));
    }
    b.rule(
        (st.leader(c - 2), st.leader(0), off),
        (st.numbering(1), st.numbered(1), on),
    );
    // Nondeterministic elimination of incomplete components.
    for j in 1..=c - 2 {
        for i in j..c - 2 {
            b.rule((st.leader(i), st.leader(j), off), (st.leader(i + 1), st.captured(j), on));
        }
        b.rule(
            (st.leader(c - 2), st.leader(j), off),
            (st.numbering(0), st.captured(j), on),
        );
    }
    // A captured leader releases its followers one by one.
    for i in 2..=c - 2 {
        b.rule((st.captured(i), st.follower(), on), (st.captured(i - 1), st.leader(0), off));
    }
    b.rule((st.captured(1), st.follower(), on), (st.follower(), st.leader(0), off));
    // The leader of a complete component numbers its followers.
    for i in 0..c - 2 {
        b.rule((st.numbering(i), st.follower(), on), (st.numbering(i + 1), st.numbered(1), on));
    }
    b.rule((st.numbering(c - 2), st.follower(), on), (st.patrol(), st.numbered(1), on));
    // Followers connect, keeping count of their connections.
    for i in 1..c - 1 {
        for j in 1..c - 1 {
            b.rule((st.numbered(i), st.numbered(j), off), (st.numbered(i + 1), st.numbered(j + 1), on));
        }
    }
    // The leader patrols: swap into a follower's position…
    for i in 1..=c - 1 {
        b.rule((st.patrol(), st.numbered(i), on), (st.rest(), st.checking(i), on));
    }
    // …two patrolling leaders on an active edge found a wrong connection…
    for i in 2..=c - 1 {
        for j in 2..=c - 1 {
            b.rule((st.checking(i), st.checking(j), on), (st.checking(i - 1), st.checking(j - 1), off));
        }
    }
    // …and the leader returns home nondeterministically.
    for i in 1..=c - 1 {
        b.rule((st.checking(i), st.rest(), on), (st.numbered(i), st.patrol(), on));
    }
    b.build().expect("Protocol 8 is well-formed")
}

/// Certifies output stability: the active graph is a `c`-clique partition
/// and no captured leader (`f_i`) remains, so no release (edge
/// deactivation) is pending in the residue.
///
/// The graph test runs first: its O(1) edge count turns away most of a
/// run's configurations before any state is read.
#[must_use]
pub fn is_stable(pop: &Population<StateId>, c: u16) -> bool {
    let st = States { c };
    is_clique_partition(pop.edges(), c as usize) && !pop.states().iter().any(|&s| st.is_captured(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::{Machine, Simulation};

    #[test]
    fn paper_metadata() {
        for c in 3..=6 {
            let p = protocol(c);
            assert_eq!(
                p.size(),
                usize::from(5 * c - 3),
                "Table 2: c-Cliques uses 5c−3 states (c={c})"
            );
        }
    }

    #[test]
    fn state_layout_matches_names() {
        let c = 4;
        let p = protocol(c);
        let st = States { c };
        assert_eq!(p.state("l0"), Some(st.leader(0)));
        assert_eq!(p.state("f1"), Some(st.captured(1)));
        assert_eq!(p.state("f"), Some(st.follower()));
        assert_eq!(p.state("lbar0"), Some(st.numbering(0)));
        assert_eq!(p.state("l"), Some(st.patrol()));
        assert_eq!(p.state("n1"), Some(st.numbered(1)));
        assert_eq!(p.state("l'1"), Some(st.checking(1)));
        assert_eq!(p.state("r"), Some(st.rest()));
        assert_eq!(p.initial_state(), st.leader(0), "q0 = l0");
    }

    #[test]
    fn partitions_into_triangles() {
        for n in [6, 9, 12] {
            for seed in 0..3 {
                let sim = assert_stabilizes(
                    protocol(3),
                    n,
                    seed,
                    |p| is_stable(p, 3),
                    2_000_000_000,
                    60_000,
                );
                assert!(is_clique_partition(sim.population().edges(), 3));
            }
        }
    }

    #[test]
    fn partitions_with_leftover() {
        // n = 3·2 + 2 leaves a residue of 2 nodes.
        let sim = assert_stabilizes(protocol(3), 8, 1, |p| is_stable(p, 3), 2_000_000_000, 60_000);
        assert!(is_clique_partition(sim.population().edges(), 3));
    }

    #[test]
    fn partitions_into_k4() {
        let sim = assert_stabilizes(protocol(4), 8, 5, |p| is_stable(p, 4), 4_000_000_000, 60_000);
        assert!(is_clique_partition(sim.population().edges(), 4));
    }

    #[test]
    fn numbered_follower_count_matches_degree() {
        let st = States { c: 3 };
        let mut sim = Simulation::new(protocol(3), 9, 2);
        for _ in 0..200 {
            sim.run_for(200);
            let pop = sim.population();
            for u in 0..pop.n() {
                let s = *pop.state(u);
                for i in 1..=2u16 {
                    if s == st.numbered(i) {
                        assert_eq!(
                            pop.edges().degree(u),
                            u32::from(i),
                            "numbered follower count must equal degree (node {u})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "c >= 3")]
    fn c_two_rejected() {
        let _ = protocol(2);
    }
}
