//! Predicates for the target shapes of Section 3.2 of the paper.
//!
//! Each predicate inspects only the active subgraph (the *output* of a
//! network constructor whose output states cover all of `Q`). Protocol
//! crates combine these with node-state conditions to certify stability.
//!
//! The predicates run once per effective step in the dense engines, so
//! each rejects on O(1) edge-count and O(n) degree facts before any
//! structural check, and none allocates except through
//! [`is_connected`].

use crate::components::is_connected;
use crate::EdgeSet;

/// Whether the active graph is a *spanning line*: connected, with exactly 2
/// nodes of degree 1 and `n − 2` nodes of degree 2 (§3.2, "Global line").
///
/// Degenerate cases follow the same degree description: a single node with
/// no edges and a pair joined by one edge both count.
#[must_use]
pub fn is_spanning_line(es: &EdgeSet) -> bool {
    let n = es.n();
    match n {
        0 => true,
        1 => es.active_count() == 0,
        _ => {
            es.active_count() == n - 1
                && (0..n).all(|u| es.degree(u) <= 2)
                && (0..n).filter(|&u| es.degree(u) == 1).count() == 2
                && is_connected(es)
        }
    }
}

/// Whether the active graph is a *spanning ring*: connected and 2-regular
/// (§3.2, "Global ring"). Requires `n ≥ 3`.
#[must_use]
pub fn is_spanning_ring(es: &EdgeSet) -> bool {
    let n = es.n();
    n >= 3 && (0..n).all(|u| es.degree(u) == 2) && is_connected(es)
}

/// Whether the active graph is a *spanning star*: one centre of degree
/// `n − 1` and `n − 1` peripheral nodes of degree 1 (§3.2, "Global star").
///
/// For `n = 2` the single edge counts (either node may be read as the
/// centre); `n < 2` is `false` since no centre/peripheral split exists.
#[must_use]
pub fn is_spanning_star(es: &EdgeSet) -> bool {
    let n = es.n();
    if n < 2 || es.active_count() != n - 1 {
        return false;
    }
    let centers = (0..n).filter(|&u| es.degree(u) as usize == n - 1).count();
    let leaves = (0..n).filter(|&u| es.degree(u) == 1).count();
    if n == 2 {
        centers == 2 && leaves == 2
    } else {
        centers == 1 && leaves == n - 1
    }
}

/// Whether the active graph is a *cycle cover with waste at most `waste`*:
/// every component is a simple cycle, except non-cycle components totalling
/// at most `waste` nodes, each of which is an isolated node or a single
/// active edge (§3.2 "Cycle cover" + Theorem 5, which proves waste 2).
///
/// Decided from degrees alone: a component all of whose nodes have degree
/// 2 is a cycle, so the shape holds iff no degree exceeds 2, every
/// degree-1 node's neighbour also has degree 1 (a lone edge), and at most
/// `waste` nodes have degree below 2. Hence `n − waste ≤ |E| ≤ n` is an
/// O(1) pre-test.
#[must_use]
pub fn is_cycle_cover_with_waste(es: &EdgeSet, waste: usize) -> bool {
    let n = es.n();
    let m = es.active_count();
    if m > n || m + waste < n {
        return false;
    }
    let mut waste_nodes = 0usize;
    for u in 0..n {
        match es.degree(u) {
            2 => {}
            0 | 1 => waste_nodes += 1,
            _ => return false,
        }
    }
    waste_nodes <= waste
        && (0..n).filter(|&u| es.degree(u) == 1).all(|u| {
            let w = es.neighbors(u).next().expect("degree 1");
            es.degree(w) == 1
        })
}

/// Whether the active graph is a *perfect cycle cover*: every node has
/// degree exactly 2 (§3.2, "Cycle cover" with no waste).
#[must_use]
pub fn is_cycle_cover(es: &EdgeSet) -> bool {
    (0..es.n()).all(|u| es.degree(u) == 2)
}

/// Whether the active graph is connected and `k`-regular (§3.2,
/// "k-regular connected", exact form).
#[must_use]
pub fn is_k_regular_connected(es: &EdgeSet, k: u32) -> bool {
    (0..es.n()).all(|u| es.degree(u) == k) && is_connected(es)
}

/// The relaxed k-regular guarantee proved in Theorem 11: the active graph
/// is connected and spanning, at least `n − k + 1` nodes have degree `k`,
/// and each of the remaining `l ≤ k − 1` nodes has degree at least `l − 1`
/// and at most `k − 1`.
///
/// The degree conditions bound `2|E|` between `(n − k + 1)·k` and `n·k`
/// (an O(1) pre-test) and are checked in one O(n) pass; connectivity, the
/// only traversal, runs last.
#[must_use]
pub fn is_krc_relaxed(es: &EdgeSet, k: u32) -> bool {
    let n = es.n();
    let ku = k as usize;
    if n < ku + 1 {
        return false;
    }
    let twice_m = 2 * es.active_count();
    if twice_m > n * ku || twice_m < (n - ku + 1) * ku {
        return false;
    }
    // `l` nodes below degree `k`, the lowest at `min_low` (`k` if none).
    let (mut l, mut min_low) = (0usize, k);
    for u in 0..n {
        let d = es.degree(u);
        if d > k {
            return false;
        }
        if d < k {
            l += 1;
            min_low = min_low.min(d);
        }
    }
    l <= ku.saturating_sub(1) && min_low as usize + 1 >= l && is_connected(es)
}

/// Whether the active graph partitions the population into `⌊n/c⌋` cliques
/// of order `c`, with the remaining `n mod c` nodes in arbitrary residue
/// components that do not touch the cliques (§3.2, "c-cliques" /
/// Theorem 12).
///
/// A component is a `c`-clique iff its smallest node `u` has degree
/// `c − 1`, every neighbour of `u` is larger than `u` and also has degree
/// `c − 1`, and the neighbours are pairwise adjacent. So the shape holds
/// iff exactly `⌊n/c⌋` nodes pass that test — checked after O(1)
/// edge-count and O(n) degree-count pre-tests, with no component lists.
///
/// # Panics
///
/// Panics if `c == 0`.
#[must_use]
pub fn is_clique_partition(es: &EdgeSet, c: usize) -> bool {
    assert!(c >= 1, "clique order must be positive");
    let n = es.n();
    let (cliques, residue) = (n / c, n % c);
    let clique_edges = cliques * c * (c - 1) / 2;
    let m = es.active_count();
    if m < clique_edges || m > clique_edges + residue * residue.saturating_sub(1) / 2 {
        return false;
    }
    // Degrees are below `n`; an order beyond `u32` matches no node.
    let full = u32::try_from(c - 1).unwrap_or(u32::MAX);
    if (0..n).filter(|&u| es.degree(u) == full).count() < cliques * c {
        return false;
    }
    let clique_min = |u: usize| {
        es.degree(u) == full
            && es.neighbors(u).all(|w| {
                w > u
                    && es.degree(w) == full
                    && es.neighbors(u).all(|x| x <= w || es.is_active(w, x))
            })
    };
    (0..n).filter(|&u| clique_min(u)).count() == cliques
}

/// Whether the active graph is a *maximum matching*: `⌊n/2⌋` disjoint
/// active edges (§3.3, "Maximum matching").
#[must_use]
pub fn is_maximum_matching(es: &EdgeSet) -> bool {
    let n = es.n();
    es.active_count() == n / 2 && (0..n).all(|u| es.degree(u) <= 1)
}

/// Whether the active graph is *spanning* in the sense of Theorem 1: every
/// node has at least one incident active edge.
#[must_use]
pub fn is_spanning_net(es: &EdgeSet) -> bool {
    let n = es.n();
    n >= 2 && (0..n).all(|u| es.degree(u) >= 1)
}

/// Histogram of node degrees: entry `d` counts nodes of degree `d`.
#[must_use]
pub fn degree_histogram(es: &EdgeSet) -> Vec<usize> {
    let mut hist = vec![0usize; 1];
    for u in 0..es.n() {
        let d = es.degree(u) as usize;
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> EdgeSet {
        EdgeSet::from_edges(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    fn ring(n: usize) -> EdgeSet {
        EdgeSet::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn line_predicate() {
        assert!(is_spanning_line(&path(2)));
        assert!(is_spanning_line(&path(7)));
        assert!(!is_spanning_line(&ring(7)));
        // Disconnected: two paths with the right degree counts overall.
        let es = EdgeSet::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]);
        assert!(!is_spanning_line(&es));
        // A path plus an isolated node is not spanning.
        let es = EdgeSet::from_edges(4, [(0, 1), (1, 2)]);
        assert!(!is_spanning_line(&es));
    }

    #[test]
    fn ring_predicate() {
        assert!(is_spanning_ring(&ring(3)));
        assert!(is_spanning_ring(&ring(8)));
        assert!(!is_spanning_ring(&path(8)));
        // Two disjoint triangles: 2-regular but not connected.
        let es = EdgeSet::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(!is_spanning_ring(&es));
        assert!(is_cycle_cover(&es));
    }

    #[test]
    fn star_predicate() {
        let star = EdgeSet::from_edges(5, (1..5).map(|v| (0, v)));
        assert!(is_spanning_star(&star));
        assert!(is_spanning_star(&path(2)));
        assert!(is_spanning_star(&path(3)), "P3 = K_{{1,2}} is both a line and a star");
        assert!(!is_spanning_star(&path(4)));
        let mut broken = star.clone();
        broken.activate(1, 2);
        assert!(!is_spanning_star(&broken));
    }

    #[test]
    fn cycle_cover_with_waste() {
        // Perfect cover.
        assert!(is_cycle_cover_with_waste(&ring(5), 0));
        // Cycle + isolated node: waste 1.
        let mut es = ring(4);
        let es2 = {
            let mut e = EdgeSet::new(5);
            for (u, v) in es.active_edges() {
                e.activate(u, v);
            }
            e
        };
        es = es2;
        assert!(!is_cycle_cover_with_waste(&es, 0));
        assert!(is_cycle_cover_with_waste(&es, 1));
        // Cycle + matched pair: waste 2.
        let es = EdgeSet::from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        assert!(is_cycle_cover_with_waste(&es, 2));
        assert!(!is_cycle_cover_with_waste(&es, 1));
        // A path of 3 is not a valid residue.
        let es = EdgeSet::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)]);
        assert!(!is_cycle_cover_with_waste(&es, 3));
    }

    #[test]
    fn k_regular_predicates() {
        assert!(is_k_regular_connected(&ring(6), 2));
        assert!(!is_k_regular_connected(&ring(6), 3));
        // K4 is 3-regular connected.
        let k4 = EdgeSet::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(is_k_regular_connected(&k4, 3));
        assert!(is_krc_relaxed(&k4, 3));
        // K4 minus an edge: two nodes of degree 2 = l = 2 ≤ k−1 = 2,
        // each with degree ≥ l−1 = 1 and ≤ 2. Relaxed holds.
        let mut k4m = k4.clone();
        k4m.deactivate(2, 3);
        assert!(!is_k_regular_connected(&k4m, 3));
        assert!(is_krc_relaxed(&k4m, 3));
    }

    #[test]
    fn clique_partition_predicate() {
        // Two triangles on 6 nodes = 3-clique partition.
        let es = EdgeSet::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(is_clique_partition(&es, 3));
        assert!(!is_clique_partition(&es, 2));
        // 7 nodes: two triangles + 1 leftover node.
        let es = EdgeSet::from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert!(is_clique_partition(&es, 3));
        // Residue touching a clique is not allowed: component of size 4.
        let es = EdgeSet::from_edges(7, [(0, 1), (1, 2), (2, 0), (0, 6), (3, 4), (4, 5), (5, 3)]);
        assert!(!is_clique_partition(&es, 3));
    }

    #[test]
    fn matching_and_spanning() {
        let es = EdgeSet::from_edges(6, [(0, 1), (2, 3), (4, 5)]);
        assert!(is_maximum_matching(&es));
        assert!(is_spanning_net(&es));
        let es = EdgeSet::from_edges(7, [(0, 1), (2, 3), (4, 5)]);
        assert!(is_maximum_matching(&es), "odd n leaves one node unmatched");
        assert!(!is_spanning_net(&es));
        let es = EdgeSet::from_edges(4, [(0, 1), (1, 2)]);
        assert!(!is_maximum_matching(&es));
    }

    #[test]
    fn histogram() {
        let star = EdgeSet::from_edges(5, (1..5).map(|v| (0, v)));
        assert_eq!(degree_histogram(&star), vec![0, 4, 0, 0, 1]);
    }
}
