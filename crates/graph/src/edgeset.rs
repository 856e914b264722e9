//! Dense bitset over the undirected edges of a complete graph: one
//! square adjacency bitset, a contiguous row of words per node.

use std::fmt;

/// The set of active edges over a population of `n` nodes.
///
/// Nodes are identified by indices `0..n`. Every unordered pair `{u, v}`
/// with `u != v` is an edge of the complete interaction graph and is either
/// *active* (state 1 in the paper) or *inactive* (state 0). The set
/// maintains per-node degrees (number of incident active edges) and the
/// total number of active edges, so the shape predicates in
/// [`properties`](crate::properties) can run degree checks in `O(n)`.
///
/// Internally edges live in one square adjacency bitset: node `u` owns a
/// *contiguous* row of `⌈n/64⌉` words whose bit `v` is the state of
/// `{u, v}`, and every edge is stored in both of its endpoints' rows.
/// [`is_active`](Self::is_active) and [`set`](Self::set) are one and two
/// word accesses; [`row`](Self::row) and [`neighbors`](Self::neighbors)
/// are sequential word scans — the access pattern the simulation
/// engines' per-node rescans are bound on; and
/// [`active_edges`](Self::active_edges) walks the rows' upper halves in
/// the canonical triangular order of [`pair_index`](Self::pair_index).
/// The rows cost `n²/8` bytes plus the degree vector.
///
/// # Example
///
/// ```
/// use netcon_graph::EdgeSet;
///
/// let mut es = EdgeSet::new(5);
/// assert!(!es.is_active(0, 4));
/// es.activate(0, 4);
/// es.activate(4, 1); // order of endpoints is irrelevant
/// assert!(es.is_active(4, 0));
/// assert_eq!(es.degree(4), 2);
/// assert_eq!(es.active_count(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct EdgeSet {
    n: usize,
    /// Square adjacency bitset: bit `v` of words
    /// `rows[u * row_words .. (u + 1) * row_words]` is the state of
    /// `{u, v}`.
    rows: Vec<u64>,
    /// Words per row.
    row_words: usize,
    degrees: Vec<u32>,
    active: usize,
}

impl EdgeSet {
    /// Creates an edge set over `n` nodes with every edge inactive.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let row_words = n.div_ceil(64);
        Self {
            n,
            rows: vec![0u64; n * row_words],
            row_words,
            degrees: vec![0; n],
            active: 0,
        }
    }

    /// Creates an edge set with the given edges active.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is out of range or an edge is a self-loop.
    #[must_use]
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Self {
        let mut es = Self::new(n);
        for (u, v) in edges {
            es.activate(u, v);
        }
        es
    }

    /// The number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The number of undirected edges of the complete interaction graph,
    /// i.e. `n(n−1)/2`.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// The triangular index of the unordered pair `{u, v}`: the pairs
    /// numbered `0..pair_count()` in `u < v` lexicographic order, the
    /// order of [`active_edges`](Self::active_edges).
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    #[must_use]
    pub fn pair_index(&self, u: usize, v: usize) -> usize {
        self.check_pair(u, v);
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        // Row a starts after rows 0..a, row a has entries for b in a+1..n.
        a * (2 * self.n - a - 1) / 2 + (b - a - 1)
    }

    /// The unordered pair corresponding to a triangular index.
    ///
    /// Inverse of [`pair_index`](Self::pair_index); returns `(u, v)` with
    /// `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= pair_count()`.
    #[must_use]
    pub fn pair_at(&self, idx: usize) -> (usize, usize) {
        assert!(idx < self.pair_count(), "pair index out of range");
        // Find the row by walking; rows shrink so this is O(n) worst case,
        // which is fine for the decode-rarely use cases (tests, tracing).
        let mut row = 0usize;
        let mut start = 0usize;
        loop {
            let row_len = self.n - row - 1;
            if idx < start + row_len {
                return (row, row + 1 + (idx - start));
            }
            start += row_len;
            row += 1;
        }
    }

    /// Whether the edge `{u, v}` is active.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    #[inline]
    #[must_use]
    pub fn is_active(&self, u: usize, v: usize) -> bool {
        self.check_pair(u, v);
        self.rows[u * self.row_words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Sets the state of edge `{u, v}`, returning the previous state.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    #[inline]
    pub fn set(&mut self, u: usize, v: usize, active: bool) -> bool {
        self.check_pair(u, v);
        let word = &mut self.rows[u * self.row_words + v / 64];
        let mask = 1u64 << (v % 64);
        let was = *word & mask != 0;
        if was != active {
            *word ^= mask;
            self.rows[v * self.row_words + u / 64] ^= 1u64 << (u % 64);
            if active {
                self.degrees[u] += 1;
                self.degrees[v] += 1;
                self.active += 1;
            } else {
                self.degrees[u] -= 1;
                self.degrees[v] -= 1;
                self.active -= 1;
            }
        }
        was
    }

    /// The model's pair contract: two distinct in-range nodes.
    #[inline]
    fn check_pair(&self, u: usize, v: usize) {
        assert!(u != v, "self-loops are not part of the model");
        assert!(u < self.n && v < self.n, "node index out of range");
    }

    /// Activates edge `{u, v}` (no-op if already active).
    pub fn activate(&mut self, u: usize, v: usize) {
        self.set(u, v, true);
    }

    /// Deactivates edge `{u, v}` (no-op if already inactive).
    pub fn deactivate(&mut self, u: usize, v: usize) {
        self.set(u, v, false);
    }

    /// The number of active edges incident to `u`.
    #[must_use]
    pub fn degree(&self, u: usize) -> u32 {
        self.degrees[u]
    }

    /// The total number of active edges.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// Deactivates every edge.
    pub fn clear(&mut self) {
        self.rows.fill(0);
        self.degrees.fill(0);
        self.active = 0;
    }

    /// Iterator over the active neighbours of `u`, in increasing order —
    /// a `trailing_zeros` word scan over the node's contiguous adjacency
    /// row: O(n/64 + degree).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> Neighbors<'_> {
        assert!(u < self.n, "node index out of range");
        let words = &self.rows[u * self.row_words..(u + 1) * self.row_words];
        Neighbors {
            words,
            word: words.first().copied().unwrap_or(0),
            word_idx: 0,
            remaining: self.degrees[u],
        }
    }

    /// Iterator over `(v, active)` for every node `v ≠ u`, in increasing
    /// `v` — a sequential scan of the node's contiguous adjacency row,
    /// the access pattern of the event-driven engine's effective-pair
    /// maintenance.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[must_use]
    pub fn row(&self, u: usize) -> Row<'_> {
        assert!(u < self.n, "node index out of range");
        Row {
            words: &self.rows[u * self.row_words..(u + 1) * self.row_words],
            n: self.n,
            u,
            v: 0,
        }
    }

    /// Iterator over all active edges as `(u, v)` pairs with `u < v`, in
    /// increasing [`pair_index`](Self::pair_index) order — a word scan of
    /// each row's `v > u` half: O(n²/128 + |E|).
    #[must_use]
    pub fn active_edges(&self) -> ActiveEdges<'_> {
        let mut it = ActiveEdges {
            es: self,
            u: 0,
            word_idx: 0,
            word: 0,
        };
        it.seek_row(0);
        it
    }

    /// The active subgraph induced by `nodes`, relabelled to `0..nodes.len()`
    /// in the given order.
    ///
    /// Used to check constructions that live on a subset of the population,
    /// e.g. the replica built on `V₂` by Graph-Replication or the useful
    /// space of a universal constructor.
    #[must_use]
    pub fn induced(&self, nodes: &[usize]) -> EdgeSet {
        let mut sub = EdgeSet::new(nodes.len());
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate().skip(i + 1) {
                if self.is_active(u, v) {
                    sub.activate(i, j);
                }
            }
        }
        sub
    }

    /// The multiset of node degrees, sorted ascending.
    #[must_use]
    pub fn degree_sequence(&self) -> Vec<u32> {
        let mut d = self.degrees.clone();
        d.sort_unstable();
        d
    }

    /// Bytes of heap memory held by the set: the square adjacency
    /// bitset and the degree vector — `n²/8 + 4n` bytes, the Θ(n²) term
    /// the sparse engine exists to avoid.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        (self.rows.capacity() * 8 + self.degrees.capacity() * 4) as u64
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeSet")
            .field("n", &self.n)
            .field("active", &self.active)
            .field("edges", &self.active_edges().collect::<Vec<_>>())
            .finish()
    }
}

/// Iterator over one row of the adjacency relation: `(v, active)` for all
/// `v ≠ u`.
///
/// Produced by [`EdgeSet::row`].
#[derive(Debug)]
pub struct Row<'a> {
    words: &'a [u64],
    n: usize,
    u: usize,
    v: usize,
}

impl Iterator for Row<'_> {
    type Item = (usize, bool);

    fn next(&mut self) -> Option<(usize, bool)> {
        if self.v == self.u {
            self.v += 1;
        }
        let v = self.v;
        if v >= self.n {
            return None;
        }
        self.v += 1;
        Some((v, self.words[v / 64] >> (v % 64) & 1 == 1))
    }
}

/// Iterator over the active neighbours of one node.
///
/// Produced by [`EdgeSet::neighbors`].
#[derive(Debug)]
pub struct Neighbors<'a> {
    words: &'a [u64],
    word: u64,
    word_idx: usize,
    remaining: u32,
}

impl Iterator for Neighbors<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                self.remaining -= 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            // The degree guard above means a set bit is still ahead.
            self.word = self.words[self.word_idx];
        }
    }

    /// Exact: the row's degree counts down as the scan yields, so a
    /// `collect` allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over all active edges.
///
/// Produced by [`EdgeSet::active_edges`].
#[derive(Debug)]
pub struct ActiveEdges<'a> {
    es: &'a EdgeSet,
    /// The row being scanned.
    u: usize,
    /// The word of row `u` held in `word`.
    word_idx: usize,
    /// The not-yet-yielded `v > u` bits of that word.
    word: u64,
}

impl ActiveEdges<'_> {
    /// Positions the scan at the first `v > u` bit of row `u`.
    fn seek_row(&mut self, u: usize) {
        let first = u + 1;
        self.u = u;
        self.word_idx = first / 64;
        self.word = if self.word_idx < self.es.row_words && self.es.degrees[u] > 0 {
            self.es.rows[u * self.es.row_words + self.word_idx] & (!0u64 << (first % 64))
        } else {
            // Nothing to yield here: an isolated node's row, or the last
            // row when `n` is a multiple of 64.
            0
        };
    }
}

impl Iterator for ActiveEdges<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let es = self.es;
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some((self.u, self.word_idx * 64 + bit));
            }
            self.word_idx += 1;
            if self.word_idx < es.row_words && es.degrees[self.u] > 0 {
                self.word = es.rows[self.u * es.row_words + self.word_idx];
            } else if self.u + 1 < es.n {
                self.seek_row(self.u + 1);
            } else {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_is_bijective() {
        let es = EdgeSet::new(9);
        let mut seen = vec![false; es.pair_count()];
        for u in 0..9 {
            for v in (u + 1)..9 {
                let i = es.pair_index(u, v);
                assert!(!seen[i], "index {i} repeated for ({u},{v})");
                seen[i] = true;
                assert_eq!(es.pair_at(i), (u, v));
                assert_eq!(es.pair_index(v, u), i, "index must be symmetric");
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn set_and_degree_bookkeeping() {
        let mut es = EdgeSet::new(6);
        assert!(!es.set(2, 5, true));
        assert!(es.set(5, 2, true), "second set returns previous state");
        assert_eq!(es.degree(2), 1);
        assert_eq!(es.degree(5), 1);
        assert_eq!(es.active_count(), 1);
        es.set(2, 5, false);
        assert_eq!(es.degree(2), 0);
        assert_eq!(es.active_count(), 0);
    }

    #[test]
    fn neighbors_and_edge_iteration() {
        let es = EdgeSet::from_edges(5, [(0, 3), (3, 4), (1, 3)]);
        assert_eq!(es.neighbors(3).collect::<Vec<_>>(), vec![0, 1, 4]);
        let mut it = es.neighbors(3);
        it.next();
        assert_eq!(it.len(), 2, "the size hint counts down exactly");
        assert_eq!(es.neighbors(2).count(), 0);
        let mut edges = es.active_edges().collect::<Vec<_>>();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 3), (1, 3), (3, 4)]);
    }

    #[test]
    fn row_matches_is_active_everywhere() {
        // Pseudo-random edge pattern, activated from the lower endpoint
        // only; every row scan and every per-pair lookup from either end
        // must see it, so `set` wrote both mirrored bits of each edge.
        let pattern = |u: usize, v: usize| (u.min(v) * 31 + u.max(v) * 17).is_multiple_of(3);
        for n in [1usize, 2, 3, 7, 12, 30, 64, 65, 130] {
            let mut es = EdgeSet::new(n);
            for u in 0..n {
                for v in (u + 1)..n {
                    if pattern(u, v) {
                        es.activate(u, v);
                    }
                }
            }
            for u in 0..n {
                let row: Vec<(usize, bool)> = es.row(u).collect();
                let expect: Vec<(usize, bool)> =
                    (0..n).filter(|&v| v != u).map(|v| (v, pattern(u, v))).collect();
                assert_eq!(row, expect, "row({u}) of n={n}");
                assert!(expect.iter().all(|&(v, on)| es.is_active(v, u) == on));
            }
        }
    }

    #[test]
    fn induced_subgraph_relabels() {
        let es = EdgeSet::from_edges(6, [(0, 2), (2, 4), (4, 0), (1, 5)]);
        let sub = es.induced(&[0, 2, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.active_count(), 3);
        assert!(sub.is_active(0, 1) && sub.is_active(1, 2) && sub.is_active(0, 2));
    }

    #[test]
    fn clear_resets_everything() {
        let mut es = EdgeSet::from_edges(4, [(0, 1), (2, 3)]);
        es.clear();
        assert_eq!(es.active_count(), 0);
        assert!((0..4).all(|u| es.degree(u) == 0));
        assert_eq!(es.active_edges().count(), 0);
    }

    #[test]
    fn tiny_populations() {
        let es = EdgeSet::new(1);
        assert_eq!(es.pair_count(), 0);
        assert_eq!(es.active_count(), 0);
        let es = EdgeSet::new(0);
        assert_eq!(es.pair_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let _ = EdgeSet::new(3).pair_index(1, 1);
    }

    #[test]
    fn degree_sequence_sorted() {
        let es = EdgeSet::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        assert_eq!(es.degree_sequence(), vec![1, 1, 1, 3]);
    }
}
