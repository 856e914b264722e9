//! The allocation-free shape predicates against a frozen copy of their
//! component-list implementations, and the row-walk `active_edges`
//! against the triangular-index walk it replaced.
//!
//! Coverage: every graph on n ≤ 6 nodes; G(n, p) over a ladder of `p` at
//! n ∈ {9, 16, 63, 64, 65, 128} (one word, two words, and both sides of
//! the 64-bit row boundary); and, at the same sizes, each target shape
//! planted exactly and then perturbed by a few edge flips — random
//! graphs almost never hit a shape, and the near misses are where a
//! degree shortcut could go wrong.

use netcon_graph::gnp::gnp;
use netcon_graph::properties::{is_clique_partition, is_cycle_cover_with_waste, is_krc_relaxed};
use netcon_graph::EdgeSet;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// The predicates as they were when each one built
/// `connected_components`' component lists, verbatim.
mod frozen {
    use netcon_graph::EdgeSet;

    pub fn connected_components(es: &EdgeSet) -> Vec<Vec<usize>> {
        let n = es.n();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            seen[start] = true;
            stack.push(start);
            let mut comp = Vec::new();
            while let Some(u) = stack.pop() {
                comp.push(u);
                for v in es.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    pub fn is_connected(es: &EdgeSet) -> bool {
        let n = es.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in es.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    pub fn is_cycle_cover_with_waste(es: &EdgeSet, waste: usize) -> bool {
        let mut waste_nodes = 0usize;
        for comp in connected_components(es) {
            if is_cycle_component(es, &comp) {
                continue;
            }
            let ok_residue = match comp.len() {
                1 => true,
                2 => es.is_active(comp[0], comp[1]),
                _ => false,
            };
            if !ok_residue {
                return false;
            }
            waste_nodes += comp.len();
        }
        waste_nodes <= waste
    }

    fn is_cycle_component(es: &EdgeSet, comp: &[usize]) -> bool {
        comp.len() >= 3 && comp.iter().all(|&u| es.degree(u) == 2)
    }

    pub fn is_krc_relaxed(es: &EdgeSet, k: u32) -> bool {
        let n = es.n();
        if n < k as usize + 1 || !is_connected(es) {
            return false;
        }
        let low: Vec<u32> = (0..n).map(|u| es.degree(u)).filter(|&d| d != k).collect();
        if low.iter().any(|&d| d > k) {
            return false;
        }
        let l = low.len();
        l <= (k as usize).saturating_sub(1) && low.iter().all(|&d| d + 1 >= l as u32 && d < k)
    }

    pub fn is_clique_partition(es: &EdgeSet, c: usize) -> bool {
        assert!(c >= 1, "clique order must be positive");
        let n = es.n();
        let mut cliques = 0usize;
        let mut residue = 0usize;
        for comp in connected_components(es) {
            if comp.len() == c && is_clique_component(es, &comp) {
                cliques += 1;
            } else {
                residue += comp.len();
            }
        }
        cliques == n / c && residue == n % c
    }

    fn is_clique_component(es: &EdgeSet, comp: &[usize]) -> bool {
        comp.iter()
            .enumerate()
            .all(|(i, &u)| comp[i + 1..].iter().all(|&v| es.is_active(u, v)))
    }

    /// `active_edges` as the walk over triangular indices it used to be.
    pub fn active_edges(es: &EdgeSet) -> Vec<(usize, usize)> {
        (0..es.pair_count())
            .map(|i| es.pair_at(i))
            .filter(|&(u, v)| es.is_active(u, v))
            .collect()
    }
}

const CLIQUE_ORDERS: [usize; 3] = [2, 3, 4];
const WASTES: [usize; 3] = [0, 1, 2];
const KRC_DEGREES: [u32; 4] = [1, 2, 3, 4];
const SIZES: [usize; 6] = [9, 16, 63, 64, 65, 128];

/// Asserts every rewritten predicate answers like its frozen copy on
/// `es`; returns how many checks held per predicate (clique partition,
/// cycle cover, relaxed kRC), so callers can confirm each one reaches
/// its `true` side too.
fn assert_agrees(es: &EdgeSet, what: &str) -> [usize; 3] {
    let mut holds = [0; 3];
    for c in CLIQUE_ORDERS {
        let want = frozen::is_clique_partition(es, c);
        assert_eq!(
            is_clique_partition(es, c),
            want,
            "clique partition c={c}: {what} {es:?}"
        );
        holds[0] += usize::from(want);
    }
    for waste in WASTES {
        let want = frozen::is_cycle_cover_with_waste(es, waste);
        assert_eq!(
            is_cycle_cover_with_waste(es, waste),
            want,
            "cycle cover waste={waste}: {what} {es:?}"
        );
        holds[1] += usize::from(want);
    }
    for k in KRC_DEGREES {
        let want = frozen::is_krc_relaxed(es, k);
        assert_eq!(
            is_krc_relaxed(es, k),
            want,
            "relaxed kRC k={k}: {what} {es:?}"
        );
        holds[2] += usize::from(want);
    }
    assert_eq!(
        es.active_edges().collect::<Vec<_>>(),
        frozen::active_edges(es),
        "active_edges order: {what}"
    );
    holds
}

fn add(total: &mut [usize; 3], holds: [usize; 3]) {
    for (t, h) in total.iter_mut().zip(holds) {
        *t += h;
    }
}

/// Flips `flips` uniformly random pairs.
fn perturb(es: &mut EdgeSet, flips: usize, rng: &mut SmallRng) {
    let n = es.n();
    for _ in 0..flips {
        let u = rng.random_range(0..n);
        let mut v = rng.random_range(0..n - 1);
        if v >= u {
            v += 1;
        }
        let on = es.is_active(u, v);
        es.set(u, v, !on);
    }
}

/// `⌊n/c⌋` disjoint `c`-cliques on shuffled nodes, the residue joined by
/// random edges among itself.
fn planted_cliques(n: usize, c: usize, rng: &mut SmallRng) -> EdgeSet {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let mut es = EdgeSet::new(n);
    for group in order.chunks(c) {
        let full = group.len() == c;
        for (i, &u) in group.iter().enumerate() {
            for &v in &group[i + 1..] {
                if full || rng.random_bool(0.5) {
                    es.activate(u, v);
                }
            }
        }
    }
    es
}

/// Disjoint cycles of random lengths ≥ 3 over shuffled nodes, with up to
/// two leftover nodes left isolated or joined by one edge.
fn planted_cycles(n: usize, rng: &mut SmallRng) -> EdgeSet {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    let spare = rng.random_range(0..3usize).min(n);
    let (cover, rest) = order.split_at(n - spare);
    let mut es = EdgeSet::new(n);
    let mut start = 0;
    while cover.len() - start >= 3 {
        let left = cover.len() - start;
        let len = if left < 6 {
            left
        } else {
            rng.random_range(3..=left)
        };
        let cycle = &cover[start..start + len];
        for i in 0..len {
            es.activate(cycle[i], cycle[(i + 1) % len]);
        }
        start += len;
    }
    if rest.len() == 2 && rng.random_bool(0.5) {
        es.activate(rest[0], rest[1]);
    }
    es
}

/// A connected `k`-regular circulant on shuffled labels (`k` even, or
/// `n` even), minus up to `k − 1` random edges.
fn planted_regular(n: usize, k: usize, rng: &mut SmallRng) -> EdgeSet {
    let mut label: Vec<usize> = (0..n).collect();
    label.shuffle(rng);
    let mut es = EdgeSet::new(n);
    for i in 0..n {
        for step in 1..=k / 2 {
            es.activate(label[i], label[(i + step) % n]);
        }
        if k % 2 == 1 {
            es.activate(label[i], label[(i + n / 2) % n]);
        }
    }
    let mut edges: Vec<(usize, usize)> = es.active_edges().collect();
    edges.shuffle(rng);
    for &(u, v) in &edges[..rng.random_range(0..k.max(1))] {
        es.deactivate(u, v);
    }
    es
}

#[test]
fn every_graph_on_at_most_six_nodes() {
    let mut holds = [0; 3];
    for n in 0..=6usize {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        for mask in 0u32..(1 << pairs.len()) {
            let es = EdgeSet::from_edges(
                n,
                pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &p)| p),
            );
            add(
                &mut holds,
                assert_agrees(&es, &format!("n={n} mask={mask:#x}")),
            );
        }
    }
    assert!(
        holds.iter().all(|&h| h > 0),
        "every predicate must hold somewhere: {holds:?}"
    );
}

#[test]
fn random_graphs_over_a_ladder_of_densities() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for n in SIZES {
        let mean_degree_two = 2.0 / (n - 1) as f64;
        for p in [
            0.0,
            0.5 * mean_degree_two,
            mean_degree_two,
            0.05,
            0.2,
            0.5,
            0.9,
            1.0,
        ] {
            for trial in 0..4 {
                let es = gnp(n, p, &mut rng);
                assert_agrees(&es, &format!("G({n}, {p}) trial {trial}"));
            }
        }
    }
}

#[test]
fn planted_shapes_and_near_misses() {
    let mut rng = SmallRng::seed_from_u64(0xc11c);
    let mut holds = [0; 3];
    for n in SIZES {
        for trial in 0..12 {
            let flips = trial % 4;
            for c in CLIQUE_ORDERS {
                let mut es = planted_cliques(n, c, &mut rng);
                perturb(&mut es, flips, &mut rng);
                add(
                    &mut holds,
                    assert_agrees(&es, &format!("cliques n={n} c={c} flips={flips}")),
                );
            }
            let mut es = planted_cycles(n, &mut rng);
            perturb(&mut es, flips, &mut rng);
            add(
                &mut holds,
                assert_agrees(&es, &format!("cycles n={n} flips={flips}")),
            );
            for k in [2, 3, 4] {
                if k % 2 == 1 && n % 2 == 1 {
                    continue;
                }
                let mut es = planted_regular(n, k, &mut rng);
                perturb(&mut es, flips, &mut rng);
                add(
                    &mut holds,
                    assert_agrees(&es, &format!("regular n={n} k={k} flips={flips}")),
                );
            }
        }
    }
    assert!(
        holds.iter().all(|&h| h > 0),
        "every predicate must hold somewhere: {holds:?}"
    );
}
