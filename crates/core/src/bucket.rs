//! The sparse state-bucketed event engine: exact uniform-scheduler
//! simulation in O(n + |Q|²) memory.
//!
//! [`EventSim`](crate::EventSim) tracks the effective pairs
//! *individually* — a dense pair-position matrix plus membership bitsets,
//! Θ(n²) bytes that wall off populations beyond a few tens of thousands
//! of nodes. [`BucketSim`] replaces the pair set with **per-state
//! buckets** and counts the same set by state class:
//!
//! 1. An ordered pair `(u, v)` is effective iff `can_affect(q_u, q_v,
//!    link)` holds on its actual link. The effective set `E` splits in
//!    two. The **off buckets**, one per ordered state pair `(s, t)` with
//!    `can_affect(s, t, 0)`, hold `c_s·c_t` node pairs (`c_s(c_s−1)` when
//!    `s = t`), counted from the bucket sizes alone, less the active
//!    `(s, t)` edges when `can_affect(s, t, 1)` fails. A tally of active
//!    edges per state pair supplies that count, at O(1) per edge change
//!    and O(deg) per state change of a node in such a bucket's states. The **on list** holds the
//!    active edges whose states are effective on an active link only; for
//!    the bounded-degree outputs of the paper's constructors it has O(n)
//!    entries. The candidate weight `K = |E|` (ordered) is the sum.
//! 2. Out of `n(n−1)` ordered pairs, the number of consecutive draws
//!    that miss `E` is geometric with `p = K / n(n−1)` — states are frozen
//!    during misses, exactly the argument of the dense engine. The count
//!    comes from the same inversion draw
//!    ([`geometric_skip`](crate::engine::geometric_skip)).
//! 3. The hit is then drawn uniformly from `E`: an off bucket with
//!    probability proportional to its weight (one cumulative-weight
//!    search over ≤ |Q|² integers), then a uniform member from each
//!    side's bucket (swap-remove `Vec`s indexed by [`EnumerableMachine`]
//!    state ids), drawn again inside the bucket while it lands on an
//!    active edge the bucket's rule cannot fire on; or an on-list entry
//!    uniformly. The re-draws spend coins but no clock, so the pick is
//!    uniform over the bucket's effective pairs. `interact` then runs
//!    with real coins; only a randomized rule's identity outcome leaves
//!    the step ineffective.
//!
//! Conditioned on hitting `E`, the uniform scheduler selects uniformly
//! within `E` — which is precisely the bucket draw — so every statistic
//! (`steps`, `effective_steps`, `converged_at`, the full configuration
//! process) has **identical distribution** to the naive
//! [`Simulation`](crate::Simulation) and to
//! [`EventSim`](crate::EventSim): the same skip law over the same set.
//! Quiescence is a candidate weight of 0, known without a scan. The
//! re-draws are what the dense engine's bitset avoids: a bucket nearly
//! saturated with active edges (edge cover's single class near its end)
//! spends about `c_s·c_t / weight` of them per pick, each an O(deg)
//! adjacency scan.
//!
//! Maintenance is O(1) per node-state change for the buckets plus
//! O(deg) per touched node for the tally and the on list, and memory is
//! O(n + |Q|²). A state change swap-removes the node from its old
//! bucket, pushes it onto the new one and marks the ≤ |Q|² cumulative
//! weights dirty. Draws index only the buckets of *sampled* states, the
//! states some off bucket names, so their order carries coins. Two
//! unsampled states trading places over an unchanged link (a walker's
//! move) instead trade the two nodes' bucket slots in place: no draw
//! reads those buckets and their sizes stay, so no coin or weight
//! moves, but their order is no longer the swap-remove order. The
//! on-list refresh tests membership with one lookup in a per-state-pair
//! table, writes the touched node's own adjacency cell directly, and
//! scans only the neighbour's row for the mirrored cell; an interaction
//! that changes no state (a pure link toggle) moves no membership and
//! skips it. Each node keeps its adjacency row inline while its
//! degree is at most 2 (see [`SparsePop`]), so a configuration of lines,
//! rings, cycles or a matching allocates nothing per node: at n = 100 000
//! Simple-Global-Line converges holding 5.0 MB (3.0 MB at construction)
//! where the dense pair map alone would need ~40 GB, and a maximum
//! matching holds 3.5 MB.

use std::cmp::Reverse;
use std::ops::ControlFlow;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::compiled::EnumerableMachine;
use crate::engine::{uniform_skip, unit_open01, Bookkeeping};
use crate::driver::{next_probe, run_until_with, ExactEngine, Primitives};
use crate::event::EventStep;
use crate::fault::{FaultPlan, FaultState};
use crate::sim::{RunOutcome, StepResult};
use crate::walk::{
    bridge_weights_with_future, h_step, sample_absorption, sample_binomial, sample_binomial_u128,
    sample_gamma, sample_poisson, sample_weighted,
};
use crate::{EngineView, Link, Population};

/// Sentinel for "this active edge is not on the on list".
const NOT_ON: u32 = u32::MAX;

/// One adjacency cell, `(neighbour, on-list position)`: the position of
/// the edge in the on list (mirrored in the neighbour's cell, or
/// [`NOT_ON`]), so on-list membership reads and writes ride the
/// adjacency scans the engine does anyway — no hashing in the hot loop.
/// A tuple rather than a named struct so the inline rows below are
/// built as zeroed memory.
type AdjCell = (u32, u32);

/// Adjacency cells a node keeps inline. Lines, rings, cycle covers and
/// matchings never pass degree 2, so only hubs (a star's centre) ever
/// hold a heap row.
const INLINE: usize = 2;

/// A sparse configuration: per-node state indices, per-state node
/// buckets, and adjacency lists of the active edges — everything a
/// stability predicate can ask of a [`BucketSim`] without any Θ(n²)
/// structure existing.
///
/// Node ids are `u32` (the engine's population cap), state ids are the
/// machine's dense [`EnumerableMachine`] indices.
///
/// A node's adjacency row (unordered, swap-remove order) lives inline
/// in one flat array of `INLINE = 2` cells per node while its degree is
/// at most 2. Past that the whole row moves to a heap row, and it moves
/// back inline when the degree falls to 2 again; a vacated heap row
/// keeps its capacity for the next hub. The row's order is the same in
/// either place. Per node that is 26 bytes of state, position, degree
/// and inline cells, and no allocation of its own.
#[derive(Debug, Clone)]
pub struct SparsePop {
    /// Dense state index of every node.
    idx: Vec<u16>,
    /// Per-state member lists (swap-remove keeps them compact).
    buckets: Vec<Vec<u32>>,
    /// Position of each node inside its bucket.
    pos: Vec<u32>,
    /// Active degree of every node.
    deg: Vec<u32>,
    /// The adjacency row of every node of degree ≤ [`INLINE`]; for a
    /// node past it, cell 0's neighbour field holds its heap row's index
    /// in `spill`.
    inline: Vec<[AdjCell; INLINE]>,
    /// Heap rows of the nodes of degree > [`INLINE`], and vacated
    /// (empty) rows awaiting reuse.
    spill: Vec<Vec<AdjCell>>,
    /// Indices of the vacated rows in `spill`.
    spill_free: Vec<u32>,
    /// Number of active edges.
    active: usize,
}

impl SparsePop {
    /// `n` nodes in `machine`'s initial state and no active edges.
    pub(crate) fn initial<M: EnumerableMachine>(machine: &M, n: usize) -> Self {
        Self::new(n, machine.num_states(), machine.state_index(&machine.initial_state()))
    }

    /// The population of a faulted sparse engine: `n` present nodes in
    /// `machine`'s initial state plus one ghost slot per planned arrival,
    /// kept out of its bucket (see [`fault`](crate::fault) for the
    /// ghost-node model).
    pub(crate) fn initial_faulted<M: EnumerableMachine>(
        machine: &M,
        n: usize,
        plan: FaultPlan,
    ) -> (Self, FaultState) {
        assert!(n >= 2, "pairwise interactions need at least 2 processes");
        let fs = FaultState::new(plan, n);
        let mut sp = Self::initial(machine, fs.capacity());
        for ghost in n..fs.capacity() {
            sp.bucket_remove(ghost);
        }
        (sp, fs)
    }

    /// The sparse form of the dense configuration `pop` (one scan of its
    /// active edges).
    pub(crate) fn from_population<M: EnumerableMachine>(
        machine: &M,
        pop: &Population<M::State>,
    ) -> Self {
        let n = pop.n();
        let mut sp = Self::new(n, machine.num_states(), machine.state_index(pop.state(0)));
        for u in 0..n {
            sp.set_state_index(u, machine.state_index(pop.state(u)));
        }
        for (u, v) in pop.edges().active_edges() {
            sp.set_edge(u, v, true);
        }
        sp
    }

    /// `n` nodes in state `initial` and no active edges. Panics past
    /// either sparse engine's limits: `n < 2` or `n > 2³¹` (node ids are
    /// `u32` and ordered pair counts must fit `u64`).
    fn new(n: usize, num_states: usize, initial: usize) -> Self {
        assert!(n >= 2, "pairwise interactions need at least 2 processes");
        assert!(n <= 1 << 31, "the sparse engines pack node ids into u32");
        let mut buckets = vec![Vec::new(); num_states];
        buckets[initial] = (0..n as u32).collect();
        Self {
            idx: vec![u16::try_from(initial).expect("≤ 65536 states"); n],
            buckets,
            pos: (0..n as u32).collect(),
            deg: vec![0; n],
            inline: vec![[(0, 0); INLINE]; n],
            spill: Vec::new(),
            spill_free: Vec::new(),
            active: 0,
        }
    }

    /// The population size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.idx.len()
    }

    /// The dense state index of node `u`.
    #[must_use]
    pub fn state_index(&self, u: usize) -> usize {
        usize::from(self.idx[u])
    }

    /// The number of nodes currently in state `s`.
    #[must_use]
    pub fn count_index(&self, s: usize) -> usize {
        self.buckets[s].len()
    }

    /// The nodes currently in state `s` (arbitrary order).
    #[must_use]
    pub(crate) fn nodes_index(&self, s: usize) -> &[u32] {
        &self.buckets[s]
    }

    /// The number of active edges.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active
    }

    /// The active degree of node `u`.
    #[must_use]
    pub fn degree(&self, u: usize) -> usize {
        self.deg[u] as usize
    }

    /// The active neighbours of node `u` (arbitrary order).
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(u).iter().map(|&(to, _)| to as usize)
    }

    /// Node `u`'s adjacency row, wherever it lives.
    #[inline]
    fn row(&self, u: usize) -> &[AdjCell] {
        let d = self.deg[u] as usize;
        if d <= INLINE {
            &self.inline[u][..d]
        } else {
            &self.spill[self.inline[u][0].0 as usize]
        }
    }

    /// Node `u`'s adjacency row, mutably.
    #[inline]
    fn row_mut(&mut self, u: usize) -> &mut [AdjCell] {
        let d = self.deg[u] as usize;
        if d <= INLINE {
            &mut self.inline[u][..d]
        } else {
            &mut self.spill[self.inline[u][0].0 as usize]
        }
    }

    /// Appends `cell` to `u`'s row, moving the row to a heap row when it
    /// outgrows the inline cells.
    fn push_cell(&mut self, u: usize, cell: AdjCell) {
        let d = self.deg[u] as usize;
        if d < INLINE {
            self.inline[u][d] = cell;
        } else if d == INLINE {
            let slot = self.spill_free.pop().unwrap_or_else(|| {
                self.spill.push(Vec::new());
                (self.spill.len() - 1) as u32
            });
            let row = &mut self.spill[slot as usize];
            row.extend_from_slice(&self.inline[u]);
            row.push(cell);
            self.inline[u][0].0 = slot;
        } else {
            self.spill[self.inline[u][0].0 as usize].push(cell);
        }
        self.deg[u] += 1;
    }

    /// Swap-removes cell `i` of `u`'s row (the same order a `Vec`'s
    /// `swap_remove` leaves), moving the row back inline when it fits
    /// again.
    fn swap_remove_cell(&mut self, u: usize, i: usize) {
        let d = self.deg[u] as usize;
        if d <= INLINE {
            self.inline[u][i] = self.inline[u][d - 1];
        } else {
            let slot = self.inline[u][0].0;
            let row = &mut self.spill[slot as usize];
            row.swap_remove(i);
            if row.len() == INLINE {
                self.inline[u].copy_from_slice(row);
                row.clear();
                self.spill_free.push(slot);
            }
        }
        self.deg[u] -= 1;
    }

    /// Position of `v` in `u`'s row.
    fn cell_of(&self, u: usize, v: usize) -> Option<usize> {
        self.row(u).iter().position(|&(to, _)| to as usize == v)
    }

    /// Whether the edge `{u, v}` is active — an O(min degree) adjacency
    /// scan.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    #[must_use]
    pub(crate) fn is_active(&self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loops are not part of the model");
        let (a, b) = if self.deg[u] <= self.deg[v] { (u, v) } else { (v, u) };
        self.row(a).iter().any(|&(to, _)| to as usize == b)
    }

    /// Materializes the dense active-edge set — Θ(n²) bits; for
    /// inspection and small-n testing, not for the 100k-node frontier.
    #[must_use]
    pub(crate) fn to_edgeset(&self) -> netcon_graph::EdgeSet {
        let mut es = netcon_graph::EdgeSet::new(self.n());
        for u in 0..self.n() {
            for w in self.neighbors(u).filter(|&w| w > u) {
                es.activate(u, w);
            }
        }
        es
    }

    /// The active edges in `(min, max)`-lexicographic order — the order
    /// the dense engines' edge set lists them in.
    pub(crate) fn canonical_edges(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(self.active);
        for u in 0..self.n() {
            let row = edges.len();
            edges.extend(self.neighbors(u).filter(|&w| w > u).map(|w| (u, w)));
            edges[row..].sort_unstable();
        }
        edges
    }

    /// Moves node `u` to state `new`; returns whether the state changed.
    pub(crate) fn set_state_index(&mut self, u: usize, new: usize) -> bool {
        let old = usize::from(self.idx[u]);
        if old == new {
            return false;
        }
        // Swap-remove from the old bucket…
        let p = self.pos[u] as usize;
        let bucket = &mut self.buckets[old];
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved as usize] = p as u32;
        }
        // …push into the new one.
        let target = &mut self.buckets[new];
        self.pos[u] = target.len() as u32;
        target.push(u as u32);
        self.idx[u] = u16::try_from(new).expect("≤ 65536 states");
        true
    }

    /// Trades the states of nodes `u` and `v` in place: each takes the
    /// other's state index and bucket slot. The buckets' sizes and every
    /// other slot stay as they were, unlike the two swap-remove-and-push
    /// moves of [`set_state_index`](Self::set_state_index), so only a
    /// bucket no draw samples may be edited this way.
    fn swap_states(&mut self, u: usize, v: usize) {
        let (su, sv) = (usize::from(self.idx[u]), usize::from(self.idx[v]));
        let (pu, pv) = (self.pos[u] as usize, self.pos[v] as usize);
        self.buckets[su][pu] = v as u32;
        self.buckets[sv][pv] = u as u32;
        self.idx.swap(u, v);
        self.pos.swap(u, v);
    }

    /// Removes node `u` from its state bucket (ghost retirement for the
    /// fault layer): the node keeps its `idx` entry but stops being
    /// counted or drawn. `pos[u]` is stale until
    /// [`bucket_insert`](Self::bucket_insert) restores it.
    pub(crate) fn bucket_remove(&mut self, u: usize) {
        let s = usize::from(self.idx[u]);
        let p = self.pos[u] as usize;
        let bucket = &mut self.buckets[s];
        bucket.swap_remove(p);
        if let Some(&moved) = bucket.get(p) {
            self.pos[moved as usize] = p as u32;
        }
    }

    /// Re-inserts node `u` into the bucket of its retained state index
    /// (node arrival for the fault layer).
    pub(crate) fn bucket_insert(&mut self, u: usize) {
        let s = usize::from(self.idx[u]);
        self.pos[u] = self.buckets[s].len() as u32;
        self.buckets[s].push(u as u32);
    }

    /// Sets the state of edge `{u, v}` in the adjacency lists. Returns
    /// the edge's on-list position at removal ([`NOT_ON`] otherwise) so
    /// the engine can repair its on list.
    pub(crate) fn set_edge(&mut self, u: usize, v: usize, active: bool) -> u32 {
        if active {
            debug_assert!(self.cell_of(u, v).is_none());
            self.push_cell(u, (v as u32, NOT_ON));
            self.push_cell(v, (u as u32, NOT_ON));
            self.active += 1;
            NOT_ON
        } else {
            let pu = self.cell_of(u, v).expect("edge was active");
            let pv = self.cell_of(v, u).expect("edge was active");
            let on_pos = self.row(u)[pu].1;
            self.swap_remove_cell(u, pu);
            self.swap_remove_cell(v, pv);
            self.active -= 1;
            on_pos
        }
    }

    /// Writes the on-list position into `u`'s adjacency cell of the
    /// active edge `{u, v}` — O(deg u).
    fn set_cell_on_pos(&mut self, u: usize, v: usize, on_pos: u32) {
        let cell = self
            .row_mut(u)
            .iter_mut()
            .find(|c| c.0 as usize == v)
            .expect("edge is active");
        cell.1 = on_pos;
    }

    /// Whether the adjacency is well formed: every active edge has one
    /// cell in each endpoint's row and the degrees and the edge count
    /// agree with the rows; a row lives inline exactly while its degree
    /// is at most 2, each heap row belongs to one such node or is vacant
    /// and empty; and each cell's on-list position is mirrored in the
    /// neighbour's cell and names the edge's entry in `on_list`, which
    /// lists no other edge. `on_list` is the owning engine's on list
    /// (empty for [`RoundBucketSim`](crate::RoundBucketSim), which keeps
    /// none). O(Σ deg²); for tests.
    #[must_use]
    pub fn adjacency_consistent(&self, on_list: &[(u32, u32)]) -> bool {
        let n = self.n();
        let mut owner = vec![None; self.spill.len()];
        for &slot in &self.spill_free {
            match owner.get_mut(slot as usize) {
                Some(o @ None) if self.spill[slot as usize].is_empty() => *o = Some(n),
                _ => return false,
            }
        }
        let (mut degrees, mut named) = (0, 0);
        for u in 0..n {
            let d = self.degree(u);
            if d > INLINE {
                match owner.get_mut(self.inline[u][0].0 as usize) {
                    Some(o @ None) => *o = Some(u),
                    _ => return false,
                }
            }
            let row = self.row(u);
            if row.len() != d {
                return false;
            }
            degrees += d;
            for (i, &(to, on_pos)) in row.iter().enumerate() {
                let v = to as usize;
                if v == u || v >= n || row[..i].iter().any(|c| c.0 == to) {
                    return false;
                }
                let back: Vec<u32> = self
                    .row(v)
                    .iter()
                    .filter(|c| c.0 as usize == u)
                    .map(|c| c.1)
                    .collect();
                if back != [on_pos] {
                    return false;
                }
                if on_pos != NOT_ON {
                    let edge = (u.min(v) as u32, u.max(v) as u32);
                    if on_list.get(on_pos as usize) != Some(&edge) {
                        return false;
                    }
                    named += 1;
                }
            }
        }
        owner.iter().all(Option::is_some) && degrees == 2 * self.active && named == 2 * on_list.len()
    }

    /// Whether the state buckets are well formed: every node `alive`
    /// admits sits at `buckets[idx[u]][pos[u]]`, and the bucket sizes
    /// sum to the number of such nodes, so no bucket lists a retired
    /// node or a node twice. Pass `|_| true` for an unfaulted
    /// configuration. O(n); for tests.
    #[must_use]
    pub fn buckets_consistent(&self, alive: impl Fn(usize) -> bool) -> bool {
        let mut live = 0;
        for u in (0..self.n()).filter(|&u| alive(u)) {
            let slot = self.buckets[usize::from(self.idx[u])].get(self.pos[u] as usize);
            if slot != Some(&(u as u32)) {
                return false;
            }
            live += 1;
        }
        self.buckets.iter().map(Vec::len).sum::<usize>() == live
    }

    /// Bytes of heap memory held by the configuration: the flat
    /// per-node arrays, the bucket lists, and the hubs' heap rows.
    #[must_use]
    pub(crate) fn approx_mem_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        bytes(&self.idx)
            + bytes(&self.pos)
            + bytes(&self.deg)
            + bytes(&self.inline)
            + bytes(&self.buckets)
            + self.buckets.iter().map(bytes).sum::<u64>()
            + bytes(&self.spill)
            + self.spill.iter().map(bytes).sum::<u64>()
            + bytes(&self.spill_free)
    }
}

/// Wide (`u128`) run counters. The batched endgame advances the raw-step
/// clock by negative-binomial totals that overflow `u64` at the
/// million-node frontier (a 10¹²-effective-step walk at a ~10⁻¹¹ hit
/// probability consumes ~10²³ raw steps). Budgets and the public
/// accessors keep speaking saturating `u64`;
/// [`BucketSim::steps_wide`] exposes the exact count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct WideBook {
    steps: u128,
    effective_steps: u128,
    edge_events: u64,
    last_output_change: u128,
    last_effective: u128,
}

/// Saturates a wide counter into the `u64` the cross-engine API speaks.
fn sat64(x: u128) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

impl WideBook {
    /// Records an effective interaction at the current `steps` count.
    fn record_effective(&mut self, edge_changed: bool) {
        self.record_edge_changes(usize::from(edge_changed));
        self.effective_steps += 1;
        self.last_effective = self.steps;
    }

    /// Records `k` edge changes (an interaction's, or a fault's
    /// deletions) at the current `steps` count.
    fn record_edge_changes(&mut self, k: usize) {
        if k > 0 {
            self.edge_events += k as u64;
            self.last_output_change = self.steps;
        }
    }

    /// The counters in the `u64` the cross-engine API speaks.
    fn saturated(&self) -> Bookkeeping {
        Bookkeeping {
            steps: sat64(self.steps),
            effective_steps: sat64(self.effective_steps),
            edge_events: self.edge_events,
            last_output_change: sat64(self.last_output_change),
            last_effective: sat64(self.last_effective),
        }
    }
}

/// A conditioned walker future carried on the per-draw path: the walker
/// will absorb at side `exit0` in exactly `rem` more of its own steps,
/// and until then every move it is drawn for follows the Doob
/// h-transform of that commitment instead of the unbiased coin.
#[derive(Debug, Clone)]
struct Commit {
    /// The walker's path nodes in canonical order
    /// ([`BucketSim::extract_path`]).
    path: Vec<u32>,
    /// Current position on the path.
    z: usize,
    /// Remaining own-steps to absorption (≥ 1).
    rem: u64,
    /// Whether the committed exit is `path[0]`.
    exit0: bool,
}

/// A walker registered in a batched-endgame session: a *lazy* commitment
/// to absorb at side `exit0` of `path` after `rem` more own-draws,
/// embedded in the session's continuous clock. The walker state in the
/// sparse view stays parked at `path[z]` (its position when the
/// embedding began) until the session materializes it — stale states on
/// path interiors are invisible to graph-only predicates, which is all
/// [`BucketSim::run_until_edges`] admits.
#[derive(Debug, Clone)]
struct Walker {
    path: Vec<u32>,
    /// Materialized (possibly stale) position: `path[z]` holds the
    /// walker state in the sparse view.
    z: usize,
    exit0: bool,
    /// Own-draws from `z` to absorption.
    rem: u64,
    /// Session time at which this embedding began.
    born: f64,
    /// Own-clock units (the walker's rate-4 Poisson clock) from `born`
    /// to absorption: `Gamma(rem)`.
    gamma: f64,
}

/// Record of a walker absorbed after the session's pending
/// `last_output_change` mark — kept so the deferred raw-step split can
/// count its arrivals before that instant.
#[derive(Debug, Clone, Copy)]
struct AbsorbedRec {
    rem: u64,
    born: f64,
    gamma: f64,
    absorbed_at: f64,
}

/// A deferred raw-step index: the continuous instant of an event whose
/// step count is only materialized at session close, with the scalar
/// tallies frozen at that instant.
#[derive(Debug, Clone, Copy)]
struct Mark {
    tau: f64,
    cand_done: u128,
    reject_integral: f64,
}

/// A batched endgame session: the Poissonized continuous-time execution
/// carried while every on-candidate is a certified walker edge (see the
/// module docs). Orderered candidates get independent unit-rate Poisson
/// clocks; the arrival sequence, in time order, is exactly the discrete
/// chain's candidate-draw sequence, so racing walker deadlines against
/// the aggregated off-candidate clock reproduces the per-draw law while
/// paying O(log W) per *event* instead of per walker step.
#[derive(Debug, Clone, Default)]
struct Endgame {
    /// Registered walkers by session-scoped id (BTreeMap: coin
    /// consumption at close is id-ordered, hence seed-deterministic).
    walkers: BTreeMap<u32, Walker>,
    next_id: u32,
    /// Path node → owning walker id, for every registered path.
    claim: HashMap<u32, u32>,
    /// Min-heap of `(deadline bits, id)` — f64 deadlines are positive,
    /// so the bit pattern orders identically; stale ids are skipped.
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// The session clock.
    now: f64,
    /// `∫ (m2 − k2) dt` so far — the mean of the deferred Poisson count
    /// of certainly-ineffective (skipped) raw draws.
    reject_integral: f64,
    /// Candidate draws fully resolved: absorbed walkers' own-draws plus
    /// applied off-candidate events.
    cand_done: u128,
    /// Effective draws among `cand_done`.
    eff_done: u128,
    edge_events: u64,
    /// Instant of the last edge change (deferred `last_output_change`).
    change: Option<Mark>,
    /// Instant of the last *applied* effective event; every close lands
    /// on one.
    eff_at: Option<f64>,
    /// Walkers absorbed after `change.tau`, oldest first.
    absorbed_recs: VecDeque<AbsorbedRec>,
}

/// One processed session event, as seen by the driving loop.
enum EndgameEvent {
    /// An event was applied; `edge_changed` reports whether the output
    /// graph moved (predicate re-evaluation point). The session may have
    /// closed right after the event (validation failure) — the next call
    /// re-opens or reports `Idle`.
    Applied { edge_changed: bool },
    /// No session is active and none could open (nothing batchable,
    /// retry throttle, or quiescence); the caller falls back to the
    /// per-draw path.
    Idle,
}

/// After a failed session-open attempt, effective steps to wait before
/// paying for another scan — opening is O(path length), so retrying it
/// per effective step would be quadratic on non-batchable
/// configurations.
const ENDGAME_RETRY: u128 = 64;

/// The sparse state-bucketed event-driven engine (the exactness
/// argument heads its source file, `src/bucket.rs`).
///
/// Mirrors [`EventSim`](crate::EventSim) — [`advance`] returns the same
/// [`EventStep`], and the shared [`ExactEngine`] driver runs it — except
/// that stability predicates receive a [`SparsePop`] view instead of a
/// dense [`Population`]: no Θ(n²) structure is ever built. Its
/// `run_until_edges` also batches the walker endgame of the
/// line-building constructors (the endgame law heads `src/walk.rs`).
///
/// [`advance`]: Self::advance
///
/// # Example
///
/// ```
/// use netcon_core::{BucketSim, ExactEngine, Link, ProtocolBuilder};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?.compile();
///
/// let mut sim = BucketSim::new(protocol, 100_000, 1);
/// let outcome = sim.run_until(|p| p.active_count() == 50_000, u64::MAX);
/// assert!(outcome.stabilized());
/// assert!(sim.approx_mem_bytes() < 32 << 20, "sparse engine stays small");
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BucketSim<M: EnumerableMachine> {
    machine: M,
    sp: SparsePop,
    rng: SmallRng,
    book: WideBook,
    /// Ordered state pairs `(s, t)` with `can_affect(s, t, Off)` — the
    /// off buckets, fixed at construction.
    off_pairs: Vec<(u16, u16)>,
    /// Per off bucket, its `tally` cell and the ordered pairs each
    /// tallied edge takes from its weight: 1, or 2 when `s = t`, if its
    /// rule needs an inactive link, else 0.
    dead_cells: Vec<(u32, u64)>,
    /// Cumulative ordered-pair counts per off bucket (rebuilt lazily when
    /// a state count changed).
    cum: Vec<u64>,
    off_total: u64,
    dirty: bool,
    /// Active edges whose state pair is effective on an active link only,
    /// as unordered `(u, v)` entries; positions are mirrored in the
    /// adjacency cells ([`AdjCell`]).
    on_list: Vec<(u32, u32)>,
    /// `on_only[s·|Q| + t]`: whether the state pair `(s, t)` is
    /// effective on an active link only, the on list's membership test.
    on_only: Vec<bool>,
    /// Whether any state pair is effective on an active link only.
    /// Without one (Cycle-Cover, matching) the on list stays empty, so
    /// refreshing it after a state change is skipped.
    on_pairs: bool,
    /// Active edges per unordered state pair: `tally[s·|Q| + t]`, `s ≤ t`,
    /// counts the active edges between states `s` and `t`, so an off
    /// bucket whose rule needs an inactive link loses exactly those
    /// pairs (twice, ordered, when `s = t`) from its weight. Kept for
    /// pairs of `tallied` states only; the other entries stay 0.
    tally: Vec<u64>,
    /// The states of the off buckets whose rule needs an inactive link.
    /// A state change between untallied states skips the tally.
    tallied: Vec<bool>,
    /// The states some off bucket names: the only buckets a draw
    /// samples. Two other states trading places over an unchanged link
    /// (a walker's move) trade bucket slots in place.
    sampled: Vec<bool>,
    faults: Option<FaultState>,
    /// Batched-endgame commitments, keyed by the node currently holding
    /// the walker state (a `Vec`, so coin consumption is deterministic).
    commits: Vec<(u32, Commit)>,
    /// Effective-step count before which walk detection is not retried
    /// after a failure.
    endgame_retry_after: u128,
    /// The open batched-endgame session, if any. `None` at every public
    /// API boundary — sessions live entirely inside
    /// [`run_until_edges`](Self::run_until_edges).
    eg: Option<Endgame>,
}

impl<M: EnumerableMachine> BucketSim<M> {
    /// Creates a sparse event-driven simulation of `machine` on `n` nodes
    /// in the initial configuration, reproducible from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 2³¹` (node ids are `u32` and ordered pair
    /// counts must fit `u64`).
    ///
    /// # Example
    ///
    /// ```
    /// use netcon_core::{BucketSim, Link, ProtocolBuilder};
    /// let mut b = ProtocolBuilder::new("pairing");
    /// let a = b.state("a");
    /// let p = b.state("b");
    /// b.rule((a, a, Link::Off), (p, p, Link::On));
    /// // A million nodes allocate O(n), not Θ(n²).
    /// let mut sim = BucketSim::new(b.build()?.compile(), 1_000_000, 7);
    /// assert_eq!(sim.candidate_weight(), 1_000_000u64 * 999_999);
    /// # Ok::<(), netcon_core::ProtocolError>(())
    /// ```
    #[must_use]
    pub fn new(machine: M, n: usize, seed: u64) -> Self {
        let sp = SparsePop::initial(&machine, n);
        Self::from_sparse(machine, sp, seed)
    }

    /// Creates a faulted sparse simulation: `n` live nodes plus one
    /// *ghost* slot per planned arrival, sharing the fault semantics of
    /// [`Simulation::new_faulted`](crate::Simulation::new_faulted) —
    /// ghosts sit outside every bucket (zero candidate weight) while the
    /// skip denominator stays fixed at `capacity·(capacity−1)`, so every
    /// measured statistic matches the other engines under the identical
    /// [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new) (with the capacity in place of `n`).
    #[must_use]
    pub fn new_faulted(machine: M, n: usize, seed: u64, plan: FaultPlan) -> Self {
        let (sp, fs) = SparsePop::initial_faulted(&machine, n, plan);
        let mut sim = Self::from_sparse(machine, sp, seed);
        sim.faults = Some(fs);
        sim
    }

    /// Creates a sparse simulation from an explicit dense configuration
    /// (one scan of its active edges; the dense edge set is dropped).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    #[must_use]
    pub fn from_population(machine: M, pop: Population<M::State>, seed: u64) -> Self {
        let sp = SparsePop::from_population(&machine, &pop);
        Self::from_sparse(machine, sp, seed)
    }

    fn from_sparse(machine: M, sp: SparsePop, seed: u64) -> Self {
        let table = machine.effect_table();
        let size = machine.num_states();
        let mut off_pairs = Vec::new();
        for s in 0..size {
            for t in 0..size {
                if table.can_affect(s, t, Link::Off) {
                    off_pairs.push((s as u16, t as u16));
                }
            }
        }
        let cum = vec![0; off_pairs.len()];
        let mut tallied = vec![false; size];
        let mut sampled = vec![false; size];
        let mut dead_cells = Vec::with_capacity(off_pairs.len());
        for &(s, t) in &off_pairs {
            let (s, t) = (usize::from(s), usize::from(t));
            sampled[s] = true;
            sampled[t] = true;
            if table.can_affect(s, t, Link::On) {
                dead_cells.push((0, 0));
            } else {
                tallied[s] = true;
                tallied[t] = true;
                dead_cells.push(((s.min(t) * size + s.max(t)) as u32, 1 + u64::from(s == t)));
            }
        }
        let on_only: Vec<bool> = (0..size * size)
            .map(|i| table.on_link_only(i / size, i % size))
            .collect();
        let on_pairs = on_only.contains(&true);
        let mut sim = Self {
            machine,
            sp,
            rng: SmallRng::seed_from_u64(seed),
            book: WideBook::default(),
            off_pairs,
            dead_cells,
            cum,
            off_total: 0,
            dirty: true,
            on_list: Vec::new(),
            on_only,
            on_pairs,
            tally: vec![0; size * size],
            tallied,
            sampled,
            faults: None,
            commits: Vec::new(),
            endgame_retry_after: 0,
            eg: None,
        };
        // Initial tally and on list: scan the active edges once (a fresh
        // population has none).
        if sim.sp.active_count() > 0 {
            for u in 0..sim.sp.n() {
                let su = sim.sp.state_index(u);
                for w in sim.sp.neighbors(u).filter(|&w| w > u) {
                    let sw = sim.sp.state_index(w);
                    if sim.tallied[su] && sim.tallied[sw] {
                        sim.tally[su.min(sw) * size + su.max(sw)] += 1;
                    }
                }
                sim.refresh_on_incident(u);
            }
        }
        sim
    }

    /// The current configuration.
    #[must_use]
    pub fn view(&self) -> &SparsePop {
        &self.sp
    }

    /// The exact step count: the batched endgame advances the clock by
    /// negative-binomial totals that pass `u64` at the million-node
    /// frontier.
    #[must_use]
    pub fn steps_wide(&self) -> u128 {
        self.book.steps
    }

    /// The exact effective-interaction count.
    #[must_use]
    pub fn effective_steps_wide(&self) -> u128 {
        self.book.effective_steps
    }

    /// The current number of *ordered* pairs `(u, v)` whose interaction
    /// can change something (`can_affect` on their actual link) — the
    /// numerator of the geometric skip probability, twice the effective
    /// pair count of [`EventSim`](crate::EventSim). It is 0 exactly when
    /// the configuration is quiescent.
    #[must_use]
    pub fn candidate_weight(&mut self) -> u64 {
        if self.dirty {
            self.rebuild_weights();
        }
        self.off_total + 2 * self.on_list.len() as u64
    }

    /// Whether the adjacency and the on list agree
    /// ([`SparsePop::adjacency_consistent`] against this engine's on
    /// list). O(Σ deg²); for tests.
    #[must_use]
    pub fn adjacency_consistent(&self) -> bool {
        self.sp.adjacency_consistent(&self.on_list)
    }

    /// Whether every alive node sits in its bucket slot and the buckets
    /// list nothing else ([`SparsePop::buckets_consistent`] over this
    /// engine's alive nodes). O(n); for tests.
    #[must_use]
    pub fn buckets_consistent(&self) -> bool {
        self.sp
            .buckets_consistent(|u| self.faults.as_ref().is_none_or(|fs| fs.is_alive(u)))
    }

    /// Materializes the dense configuration — Θ(n²) bits for the edge
    /// set; for inspection and small-n testing only.
    #[must_use]
    pub fn to_population(&self) -> Population<M::State> {
        EngineView::Sparse { sp: &self.sp, machine: &self.machine }.to_population()
    }

    /// Bytes of heap memory held by the engine: the sparse configuration,
    /// buckets, cumulative weights, on list, effect table, and the
    /// batched endgame's carried walker commitments — O(n + |Q|²),
    /// against the dense engine's Θ(n²).
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        self.sp.approx_mem_bytes()
            + self.machine.effect_table().approx_mem_bytes()
            + bytes(&self.off_pairs)
            + bytes(&self.cum)
            + bytes(&self.on_list)
            + bytes(&self.tally)
            + bytes(&self.commits)
            + self.commits.iter().map(|(_, c)| bytes(&c.path)).sum::<u64>()
    }

    /// Rebuilds the off-bucket cumulative weights from the bucket sizes
    /// and the tally — O(|off buckets|) ≤ O(|Q|²), amortized against the
    /// state or edge change that dirtied them. A bucket whose rule needs
    /// an inactive link weighs its pairs minus its active edges.
    fn rebuild_weights(&mut self) {
        let mut total = 0u64;
        for (i, &(s, t)) in self.off_pairs.iter().enumerate() {
            let (s, t) = (usize::from(s), usize::from(t));
            let cs = self.sp.buckets[s].len() as u64;
            let pairs = if s == t {
                cs * cs.saturating_sub(1)
            } else {
                cs * self.sp.buckets[t].len() as u64
            };
            let (cell, per_edge) = self.dead_cells[i];
            let dead = per_edge * self.tally[cell as usize];
            total += pairs - dead;
            self.cum[i] = total;
        }
        self.off_total = total;
        self.dirty = false;
    }

    /// Removes on-list entry `hole`, repairing the adjacency mirror of
    /// the entry swapped into its place. The removed edge's own cells (if
    /// it still exists) are the caller's to clear.
    fn on_list_remove(&mut self, hole: usize) {
        self.on_list.swap_remove(hole);
        if let Some(&(a, b)) = self.on_list.get(hole) {
            let (a, b) = (a as usize, b as usize);
            self.sp.set_cell_on_pos(a, b, hole as u32);
            self.sp.set_cell_on_pos(b, a, hole as u32);
        }
    }

    /// Activates or deactivates the edge `{u, v}` and tallies it; a
    /// deactivated on-list edge leaves the list (its adjacency cells are
    /// already gone).
    #[inline]
    fn write_edge(&mut self, u: usize, v: usize, on: bool) {
        let (su, sv) = (self.sp.state_index(u), self.sp.state_index(v));
        if self.tallied[su] && self.tallied[sv] {
            let cell = su.min(sv) * self.machine.num_states() + su.max(sv);
            if on {
                self.tally[cell] += 1;
            } else {
                self.tally[cell] -= 1;
            }
        }
        let on_pos = self.sp.set_edge(u, v, on);
        if on_pos != NOT_ON {
            self.on_list_remove(on_pos as usize);
        }
        self.dirty = true;
    }

    /// Moves node `u` to state `q`, re-tallying its active edges — O(deg)
    /// when either state is tallied. Returns whether the state changed.
    /// The caller refreshes `u`'s on-list entries once its neighbours'
    /// states are final.
    #[inline]
    fn move_state(&mut self, u: usize, q: usize) -> bool {
        let old = self.sp.state_index(u);
        if old == q {
            return false;
        }
        let (was, now) = (self.tallied[old], self.tallied[q]);
        if was || now {
            let size = self.machine.num_states();
            for &(w, _) in self.sp.row(u) {
                let sw = self.sp.state_index(w as usize);
                if !self.tallied[sw] {
                    continue;
                }
                if was {
                    self.tally[old.min(sw) * size + old.max(sw)] -= 1;
                }
                if now {
                    self.tally[q.min(sw) * size + q.max(sw)] += 1;
                }
            }
        }
        self.sp.set_state_index(u, q)
    }

    /// Applies the outcome `(a2, b2, l2)` of an effective interaction of
    /// `(u, v)` over `link`: the edge write, both state moves and both
    /// endpoints' on-list refresh. Returns whether the edge changed.
    #[inline]
    fn apply(&mut self, u: usize, v: usize, link: Link, outcome: (usize, usize, Link)) -> bool {
        let (a2, b2, l2) = outcome;
        let (su, sv) = (self.sp.state_index(u), self.sp.state_index(v));
        let edge_changed = l2 != link;
        if !edge_changed && (a2, b2) == (sv, su) && !self.sampled[su] && !self.sampled[sv] {
            // A walker's move: two unsampled, hence untallied, states
            // trade places, and every weight and coin stays as it was.
            self.sp.swap_states(u, v);
        } else {
            // A removed edge leaves with the old states, a new one
            // arrives with the new states: the state moves never
            // re-tally it.
            if edge_changed && link.is_on() {
                self.write_edge(u, v, false);
            }
            if self.move_state(u, a2) | self.move_state(v, b2) {
                self.dirty = true;
            }
            if edge_changed && l2.is_on() {
                self.write_edge(u, v, true);
            }
        }
        // A pure link toggle moves no on-list membership: a removed edge
        // has left the list already, and a created one was effective on
        // an inactive link, so its state pair is not on-link-only.
        if (a2, b2) != (su, sv) {
            self.refresh_on_incident(u);
            self.refresh_on_incident(v);
        }
        edge_changed
    }

    /// Refreshes the on-list membership of every active edge incident to
    /// `u` — O(deg + deg of changed counterparts) after a node-state
    /// change; membership state rides the adjacency cells, so unchanged
    /// edges cost one table lookup each, and a changed one writes `u`'s
    /// cell in place and scans only the neighbour's row for the mirror.
    fn refresh_on_incident(&mut self, u: usize) {
        if !self.on_pairs {
            return;
        }
        let row = self.sp.state_index(u) * self.machine.num_states();
        for i in 0..self.sp.degree(u) {
            let (to, on_pos) = self.sp.row(u)[i];
            let w = to as usize;
            let want = self.on_only[row + self.sp.state_index(w)];
            let member = on_pos != NOT_ON;
            if want == member {
                continue;
            }
            if want {
                let at = self.on_list.len() as u32;
                let (a, b) = if u < w { (u, w) } else { (w, u) };
                self.on_list.push((a as u32, b as u32));
                self.sp.row_mut(u)[i].1 = at;
                self.sp.set_cell_on_pos(w, u, at);
            } else {
                self.sp.row_mut(u)[i].1 = NOT_ON;
                self.sp.set_cell_on_pos(w, u, NOT_ON);
                self.on_list_remove(on_pos as usize);
            }
        }
    }

    /// Draws a candidate ordered pair uniformly from the `k2` ordered
    /// candidates (`k2 = off_total + 2·on_len`, weights up to date), with
    /// its link.
    fn draw_candidate(&mut self, k2: u64) -> (usize, usize, Link) {
        let r = self.rng.random_range(0..k2);
        if r < self.off_total {
            self.off_candidate_at(r)
        } else {
            let e = r - self.off_total;
            let (a, b) = self.on_list[(e / 2) as usize];
            if e % 2 == 1 {
                (b as usize, a as usize, Link::On)
            } else {
                (a as usize, b as usize, Link::On)
            }
        }
    }

    /// The off-candidate at cumulative rank `r < off_total`, with its
    /// link: a cumulative-weight bucket search, then one uniform member
    /// per side (distinct indices when the sides share a bucket). When the
    /// bucket's rule needs an inactive link, a pair that lands on an
    /// active edge is re-drawn inside the bucket — coins but no clock —
    /// so the pick is uniform over the bucket's effective pairs.
    fn off_candidate_at(&mut self, r: u64) -> (usize, usize, Link) {
        let b = self.cum.partition_point(|&c| c <= r);
        let (s, t) = (usize::from(self.off_pairs[b].0), usize::from(self.off_pairs[b].1));
        let redraw = !self.machine.effect_table().can_affect(s, t, Link::On);
        loop {
            let bs = &self.sp.buckets[s];
            let (u, v) = if s == t {
                let c = bs.len();
                let i = self.rng.random_range(0..c);
                let mut j = self.rng.random_range(0..c - 1);
                if j >= i {
                    j += 1;
                }
                (bs[i] as usize, bs[j] as usize)
            } else {
                let u = bs[self.rng.random_range(0..bs.len())];
                let bt = &self.sp.buckets[t];
                (u as usize, bt[self.rng.random_range(0..bt.len())] as usize)
            };
            let link = Link::from(self.sp.is_active(u, v));
            if !(redraw && link.is_on()) {
                return (u, v, link);
            }
        }
    }

    /// Skips the geometric number of ineffective draws and simulates the
    /// next effective-pair interaction, without letting the step counter
    /// pass `max_steps` — same contract as
    /// [`EventSim::advance`](crate::EventSim::advance). `Quiescent` is
    /// returned when the candidate weight is 0.
    pub fn advance(&mut self, max_steps: u64) -> EventStep {
        debug_assert!(
            self.eg.is_none(),
            "per-draw advance never runs inside an endgame session"
        );
        if self.dirty {
            self.rebuild_weights();
        }
        let k2 = self.off_total + 2 * self.on_list.len() as u64;
        if k2 == 0 {
            return EventStep::Quiescent;
        }
        let n = self.sp.n() as u64;
        let m2 = n * (n - 1);
        // At most `max_steps`, so the `u64` is exact.
        let remaining = u128::from(max_steps).saturating_sub(self.book.steps) as u64;
        if remaining == 0 {
            return EventStep::BudgetExhausted;
        }
        let Some(skipped) = uniform_skip(&mut self.rng, k2, m2, remaining) else {
            self.book.steps = u128::from(max_steps);
            return EventStep::BudgetExhausted;
        };
        self.book.steps += u128::from(skipped) + 1;

        let (u, v, link) = self.draw_candidate(k2);
        let (u, v) = if self.commits.is_empty() {
            (u, v)
        } else {
            self.redirect_committed(u, v)
        };
        debug_assert_eq!(link, Link::from(self.sp.is_active(u, v)), "a redirect stays on the path");
        let pair = (u, v);
        let (su, sv) = (self.sp.state_index(u), self.sp.state_index(v));
        debug_assert!(
            self.machine.effect_table().can_affect(su, sv, link),
            "every candidate is effective"
        );
        let Some(outcome) = self.machine.interact_indexed(su, sv, link, &mut self.rng) else {
            // A randomized rule sampled the identity: one real
            // ineffective step, as the naive engine records it.
            return EventStep::Candidate {
                skipped,
                result: StepResult::Ineffective { pair },
            };
        };
        let edge_changed = self.apply(u, v, link, outcome);
        self.book.record_effective(edge_changed);
        EventStep::Candidate {
            skipped,
            result: StepResult::Effective { pair, edge_changed },
        }
    }

    /// Whether no pair of nodes has any effective interaction: the exact
    /// candidate weight is 0. No scan — at most an O(|off buckets|)
    /// weight rebuild after a state or edge change.
    #[must_use]
    pub fn is_quiescent(&mut self) -> bool {
        self.candidate_weight() == 0
    }

    // -----------------------------------------------------------------
    // Batched endgame: closed-form absorption of lone random walkers.
    // -----------------------------------------------------------------

    /// Redirects a drawn candidate that touches a committed walker: the
    /// walker's next move is distributed by the Doob h-transform of its
    /// commitment, not by the unbiased choice between its two edges, so
    /// the drawn neighbour is replaced by an [`h_step`] draw (the
    /// drawn *orientation*, which is independent of the direction, is
    /// kept). Everything else about the step — acceptance, the
    /// interaction itself, the bookkeeping — stays on the ordinary path.
    fn redirect_committed(&mut self, u: usize, v: usize) -> (usize, usize) {
        let Some(ci) = self
            .commits
            .iter()
            .position(|&(w, _)| w as usize == u || w as usize == v)
        else {
            return (u, v);
        };
        let w = self.commits[ci].0 as usize;
        let walker_first = w == u;
        let (z, len, exit0, rem) = {
            let c = &self.commits[ci].1;
            (c.z, c.path.len() - 1, c.exit0, c.rem)
        };
        let x2 = h_step(&mut self.rng, z, len, exit0, rem);
        let target = self.commits[ci].1.path[x2] as usize;
        if x2 == 0 || x2 == len {
            // The commitment is spent: this step is the terminal contact
            // (the interaction rule performs the absorption).
            debug_assert_eq!(rem, 1);
            self.commits.swap_remove(ci);
        } else {
            let c = &mut self.commits[ci].1;
            c.z = x2;
            c.rem = rem - 1;
            // The swap about to be applied moves the walker state onto
            // the target node.
            self.commits[ci].0 = target as u32;
        }
        if walker_first {
            (w, target)
        } else {
            (target, w)
        }
    }

    /// Processes one batched-endgame event, opening a session first if
    /// none is active. With a session open, every ordered candidate owns
    /// an independent unit-rate Poisson clock, so the next event is the
    /// earlier of the aggregated off-candidate clock (rate `off_total`,
    /// memoryless — redrawn each call) and the earliest walker
    /// absorption deadline; arrival order in session time is exactly the
    /// discrete chain's candidate-draw order.
    fn endgame_step(&mut self) -> EndgameEvent {
        if self.eg.is_none() && !self.endgame_open() {
            return EndgameEvent::Idle;
        }
        if self.dirty {
            self.rebuild_weights();
        }
        let w_o = self.off_total;
        let wcount = self.eg.as_ref().expect("session is open").walkers.len();
        debug_assert_eq!(self.on_list.len(), 2 * wcount);
        if w_o == 0 && wcount == 0 {
            // Empty candidate set: close and let the per-draw path
            // report quiescence.
            self.endgame_finish();
            return EndgameEvent::Idle;
        }
        // Earliest walker deadline; ids are never reused, so an id
        // missing from the registry marks a stale heap entry.
        let next_walker = {
            let eg = self.eg.as_mut().expect("session is open");
            loop {
                match eg.heap.peek() {
                    Some(&Reverse((bits, id))) => {
                        if eg.walkers.contains_key(&id) {
                            break Some((f64::from_bits(bits), id));
                        }
                        eg.heap.pop();
                    }
                    None => break None,
                }
            }
        };
        let t_ext = (w_o > 0).then(|| {
            let u = unit_open01(self.rng.next_u64());
            self.eg.as_ref().expect("session is open").now - u.ln() / w_o as f64
        });
        let (tau, absorb) = match (t_ext, next_walker) {
            (Some(te), Some((td, _))) if te <= td => (te, None),
            (Some(te), None) => (te, None),
            (_, Some((td, id))) => (td, Some(id)),
            (None, None) => unreachable!("some candidate clock exists"),
        };
        {
            // Skipped (certainly-ineffective) raw draws accrue as a
            // Poisson count with the pre-event candidate weight.
            let n = self.sp.n() as u64;
            let m2 = (n * (n - 1)) as f64;
            let k2 = w_o as f64 + 4.0 * wcount as f64;
            let eg = self.eg.as_mut().expect("session is open");
            eg.reject_integral += (m2 - k2) * (tau - eg.now);
            eg.now = tau;
        }
        match absorb {
            Some(id) => self.endgame_absorb(id),
            None => self.endgame_external(),
        }
    }

    /// One aggregated off-candidate event: a uniform off-candidate draw
    /// applied through the per-draw path's interaction code. Off-link
    /// isolation (validated for every path state) keeps externals off
    /// the walker paths, so the lazily-parked walker states are never
    /// observed; an effective external may *create* walker paths, which
    /// register here, or break batchable form, which closes the session.
    fn endgame_external(&mut self) -> EndgameEvent {
        self.eg.as_mut().expect("session is open").cand_done += 1;
        let r = self.rng.random_range(0..self.off_total);
        let (u, v, link) = self.off_candidate_at(r);
        debug_assert!(
            {
                let eg = self.eg.as_ref().expect("session is open");
                !eg.claim.contains_key(&(u as u32)) && !eg.claim.contains_key(&(v as u32))
            },
            "off-isolation keeps externals off walker paths"
        );
        let (su, sv) = (self.sp.state_index(u), self.sp.state_index(v));
        debug_assert!(
            self.machine.effect_table().can_affect(su, sv, link),
            "every candidate is effective"
        );
        let Some(outcome) = self.machine.interact_indexed(su, sv, link, &mut self.rng) else {
            // A randomized rule sampled the identity: one ordinary
            // ineffective step.
            return EndgameEvent::Applied {
                edge_changed: false,
            };
        };
        let edge_changed = self.apply(u, v, link, outcome);
        {
            let eg = self.eg.as_mut().expect("session is open");
            eg.eff_done += 1;
            eg.eff_at = Some(eg.now);
            if edge_changed {
                eg.edge_events += 1;
                eg.change = Some(Mark {
                    tau: eg.now,
                    cand_done: eg.cand_done,
                    reject_integral: eg.reject_integral,
                });
                // Every absorption so far is fully inside the new mark's
                // candidate tally.
                eg.absorbed_recs.clear();
            }
        }
        if !self.endgame_register_incident(&[u as u32, v as u32]) {
            self.endgame_finish();
            self.endgame_retry_after = self.book.effective_steps + ENDGAME_RETRY;
        }
        EndgameEvent::Applied { edge_changed }
    }

    /// A walker's absorption deadline fired: credit its full own-draw
    /// schedule, materialize it adjacent to its committed exit, and
    /// apply the terminal contact as an ordinary effective interaction —
    /// real rule, real coins, uniform orientation.
    fn endgame_absorb(&mut self, id: u32) -> EndgameEvent {
        let w = {
            let eg = self.eg.as_mut().expect("session is open");
            eg.heap.pop();
            let w = eg.walkers.remove(&id).expect("deadline of a live walker");
            for nd in &w.path {
                eg.claim.remove(nd);
            }
            eg.cand_done += u128::from(w.rem);
            eg.eff_done += u128::from(w.rem);
            // Draws of this walker that precede a pending change mark
            // are missing from that mark's tally — keep what the close
            // needs to split them.
            if let Some(m) = eg.change {
                if w.born < m.tau {
                    eg.absorbed_recs.push_back(AbsorbedRec {
                        rem: w.rem,
                        born: w.born,
                        gamma: w.gamma,
                        absorbed_at: eg.now,
                    });
                }
            }
            w
        };
        let len = w.path.len() - 1;
        let (adj, end) = if w.exit0 {
            (w.path[1] as usize, w.path[0] as usize)
        } else {
            (w.path[len - 1] as usize, w.path[len] as usize)
        };
        let old = w.path[w.z] as usize;
        if adj != old {
            // Path states are off-link isolated, so unsampled.
            self.sp.swap_states(old, adj);
            self.refresh_on_incident(old);
        }
        let (x, y) = if self.rng.random_bool(0.5) {
            (adj, end)
        } else {
            (end, adj)
        };
        let (sx, sy) = (self.sp.state_index(x), self.sp.state_index(y));
        let outcome = self
            .machine
            .interact_indexed(sx, sy, Link::On, &mut self.rng)
            .expect("is_certain certified an effective contact");
        let edge_changed = self.apply(x, y, Link::On, outcome);
        {
            let eg = self.eg.as_mut().expect("session is open");
            eg.eff_at = Some(eg.now);
            if edge_changed {
                eg.edge_events += 1;
                eg.change = Some(Mark {
                    tau: eg.now,
                    cand_done: eg.cand_done,
                    reject_integral: eg.reject_integral,
                });
                eg.absorbed_recs.clear();
            }
        }
        if !self.endgame_register_incident(&[old as u32, adj as u32, end as u32]) {
            self.endgame_finish();
            self.endgame_retry_after = self.book.effective_steps + ENDGAME_RETRY;
        }
        EndgameEvent::Applied { edge_changed }
    }

    /// Attempts to open a session: every on-candidate must validate into
    /// a lone-walker path. Validation is a pure two-phase check — no
    /// coins are consumed until every path has passed — so a failed
    /// attempt leaves the per-draw engine untouched (and throttled from
    /// rescanning for [`ENDGAME_RETRY`] effective steps).
    fn endgame_open(&mut self) -> bool {
        if self.dirty {
            self.rebuild_weights();
        }
        if self.on_list.is_empty() || self.book.effective_steps < self.endgame_retry_after {
            return false;
        }
        let mut fresh: Vec<(Vec<u32>, usize)> = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        for i in 0..self.on_list.len() {
            let (a, b) = self.on_list[i];
            let ac = seen.contains(&a);
            let bc = seen.contains(&b);
            if ac && bc {
                continue; // second edge of an already-validated walker
            }
            if ac == bc {
                if let Some((path, z)) = self.endgame_validate_path(a as usize, b as usize) {
                    seen.extend(path.iter().copied());
                    fresh.push((path, z));
                    continue;
                }
            }
            // A candidate straddling a path, or a failed validation.
            self.endgame_retry_after = self.book.effective_steps + ENDGAME_RETRY;
            return false;
        }
        self.eg = Some(Endgame::default());
        for (path, z) in fresh {
            self.endgame_register_path(path, z);
        }
        true
    }

    /// Scans the active edges incident to `nodes` for on-candidates not
    /// yet owned by a registered walker, validating and registering each
    /// new lone-walker path. Returns `false` when validation fails — the
    /// configuration has left batchable form and the session must close.
    fn endgame_register_incident(&mut self, nodes: &[u32]) -> bool {
        let mut fresh: Vec<(Vec<u32>, usize)> = Vec::new();
        {
            let eg = self.eg.as_ref().expect("session is open");
            let mut seen: HashSet<u32> = HashSet::new();
            for &u in nodes {
                for &(v, on_pos) in self.sp.row(u as usize) {
                    if on_pos == NOT_ON {
                        continue;
                    }
                    let uc = eg.claim.contains_key(&u) || seen.contains(&u);
                    let vc = eg.claim.contains_key(&v) || seen.contains(&v);
                    if uc && vc {
                        // Claimed paths never gain candidates, so both
                        // ends claimed means a known walker edge.
                        debug_assert_eq!(eg.claim.get(&u), eg.claim.get(&v));
                        continue;
                    }
                    if uc != vc {
                        return false; // a candidate straddling a path
                    }
                    let Some((path, z)) = self.endgame_validate_path(u as usize, v as usize)
                    else {
                        return false;
                    };
                    seen.extend(path.iter().copied());
                    fresh.push((path, z));
                }
            }
        }
        for (path, z) in fresh {
            self.endgame_register_path(path, z);
        }
        true
    }

    /// Validates the maximal path through the on-candidate `{a, b}` as a
    /// lone-walker path: a simple path whose unique walker interior
    /// carries exactly the path's two on-candidates, whose interior
    /// swaps are coin-free state exchanges
    /// ([`EnumerableMachine::det_interaction`]), whose endpoint contacts
    /// are certainly effective ([`EnumerableMachine::is_certain`]), and
    /// whose states are isolated from every off-link rule — so until the
    /// next endpoint contact the configuration evolves exactly as an
    /// independent unbiased random walk under uniform labels. Every
    /// requirement is *checked*, never assumed.
    fn endgame_validate_path(&self, a: usize, b: usize) -> Option<(Vec<u32>, usize)> {
        let path = self.extract_path(a, b)?;
        let len = path.len() - 1;
        if len < 2 {
            return None;
        }
        // The on-candidates along the path must be exactly two adjacent
        // edges — the walker sits between them.
        let ons: Vec<usize> = (0..len)
            .filter(|&i| self.edge_is_on_entry(path[i] as usize, path[i + 1] as usize))
            .collect();
        let z = match ons.as_slice() {
            &[i, j] if j == i + 1 => i + 1,
            _ => return None,
        };
        let states: Vec<usize> = path
            .iter()
            .map(|&x| self.sp.state_index(x as usize))
            .collect();
        let s_w = states[z];
        // Interior uniformity off the walker.
        let mut s_int = None;
        for (x, &s) in states.iter().enumerate().take(len).skip(1) {
            if x == z {
                continue;
            }
            match s_int {
                None => s_int = Some(s),
                Some(si) if si == s => {}
                _ => return None,
            }
        }
        if s_int == Some(s_w) {
            return None;
        }
        // Interior moves must be pure coin-free state swaps, and an
        // interior–interior or interior–endpoint edge must never become
        // a candidate as the walker moves past it.
        if let Some(si) = s_int {
            let fwd = self.machine.det_interaction(s_w, si, Link::On);
            let rev = self.machine.det_interaction(si, s_w, Link::On);
            if fwd != Some((si, s_w, Link::On)) || rev != Some((s_w, si, Link::On)) {
                return None;
            }
            if self.machine.effect_table().can_affect(si, si, Link::On) {
                return None;
            }
        }
        // Endpoint contacts must be certainly effective (so hitting the
        // boundary *is* absorption).
        for &e in &[states[0], states[len]] {
            if !self.machine.is_certain(s_w, e, Link::On)
                || !self.machine.is_certain(e, s_w, Link::On)
            {
                return None;
            }
            if let Some(si) = s_int {
                if self.machine.effect_table().can_affect(si, e, Link::On) {
                    return None;
                }
            }
        }
        // Off-link isolation for every state on the path: no off rule
        // may ever select a path node, whatever states the rest of the
        // population reaches (`can_affect` is symmetric).
        let size = self.machine.num_states();
        for s in [Some(s_w), s_int, Some(states[0]), Some(states[len])]
            .into_iter()
            .flatten()
        {
            for x in 0..size {
                if self.machine.effect_table().can_affect(s, x, Link::Off) {
                    return None;
                }
            }
        }
        Some((path, z))
    }

    /// Whether the active edge `{u, v}` currently rides the on list.
    fn edge_is_on_entry(&self, u: usize, v: usize) -> bool {
        self.sp
            .cell_of(u, v)
            .is_some_and(|i| self.sp.row(u)[i].1 != NOT_ON)
    }

    /// Registers a validated lone-walker path: reuses a carried per-draw
    /// commitment if the walker has one, otherwise samples the joint
    /// absorption law ([`sample_absorption`]), then embeds the schedule
    /// in the session clock — the walker's four ordered candidates form
    /// a rate-4 Poisson class, so its `rem`-th own-draw lands at
    /// `born + Gamma(rem)/4`.
    fn endgame_register_path(&mut self, path: Vec<u32>, z: usize) {
        let len = path.len() - 1;
        let (rem, exit0) = match self.commits.iter().position(|&(wn, _)| wn == path[z]) {
            Some(ci) => {
                let (_, c) = self.commits.swap_remove(ci);
                debug_assert!(c.z == z && c.path == path);
                (c.rem, c.exit0)
            }
            None => {
                let (exit0, rem) = sample_absorption(&mut self.rng, z, len);
                (rem, exit0)
            }
        };
        let gamma = sample_gamma(&mut self.rng, rem as f64);
        let eg = self.eg.as_mut().expect("session is open");
        let id = eg.next_id;
        eg.next_id += 1;
        let deadline = eg.now + gamma / 4.0;
        eg.heap.push(Reverse((deadline.to_bits(), id)));
        for &nd in &path {
            let prev = eg.claim.insert(nd, id);
            debug_assert!(prev.is_none(), "path nodes are unclaimed");
        }
        eg.walkers.insert(
            id,
            Walker {
                path,
                z,
                exit0,
                rem,
                born: eg.now,
                gamma,
            },
        );
    }

    /// Follows active edges outward from `from` (coming from `prev`)
    /// through degree-2 nodes, appending every node visited; `None` on a
    /// junction (degree > 2) or a cycle.
    fn extend_ray(&self, from: usize, mut prev: usize, out: &mut Vec<u32>) -> Option<()> {
        let mut cur = from;
        loop {
            out.push(cur as u32);
            if out.len() > self.sp.n() {
                return None; // closed cycle: no endpoints to stop at
            }
            match self.sp.degree(cur) {
                1 => return Some(()),
                2 => {
                    let next = self
                        .sp
                        .neighbors(cur)
                        .find(|&w| w != prev)
                        .expect("degree 2 has a second neighbour");
                    prev = cur;
                    cur = next;
                }
                _ => return None,
            }
        }
    }

    /// The maximal simple path through the active edge `{a, b}`, as the
    /// ordered node chain; `None` on junctions or cycles. The chain is
    /// canonically oriented (smaller endpoint id first) so that repeated
    /// extractions of an unchanged line agree — commitments store
    /// positions and exit sides relative to this orientation.
    fn extract_path(&self, a: usize, b: usize) -> Option<Vec<u32>> {
        let mut left: Vec<u32> = Vec::new();
        self.extend_ray(a, b, &mut left)?;
        left.reverse();
        let mut path = left;
        self.extend_ray(b, a, &mut path)?;
        if path[0] > *path.last().expect("a ray visits at least one node") {
            path.reverse();
        }
        Some(path)
    }

    /// Closes the session at its current clock: samples each alive
    /// walker's progress (`Binomial(rem−1, ·)` over the uniform arrival
    /// times of its Gamma embedding), restores the deferred raw-step
    /// clock (the candidate totals plus the Poisson count of skipped
    /// draws), resolves the pending marks into raw step indices, and
    /// materializes the alive walkers back into per-draw commitments via
    /// the future-conditioned propagator. No-op without an open session.
    fn endgame_finish(&mut self) {
        let Some(eg) = self.eg.take() else { return };
        let tau_end = eg.now;
        // Alive walkers' progress, in id order (deterministic coins): a
        // rate-4 Poisson clock conditioned on its `rem`-th arrival at
        // `born + gamma/4` puts the first `rem − 1` arrivals iid uniform
        // on that span.
        let mut alive: Vec<(u32, u64)> = Vec::with_capacity(eg.walkers.len());
        let mut cand_total = eg.cand_done;
        let mut eff_total = eg.eff_done;
        for (&id, w) in &eg.walkers {
            let span = tau_end - w.born;
            let j = if w.rem <= 1 || span <= 0.0 {
                0
            } else {
                let p = (4.0 * span / w.gamma).clamp(0.0, 1.0);
                sample_binomial(&mut self.rng, w.rem - 1, p)
            };
            cand_total += u128::from(j);
            eff_total += u128::from(j);
            alive.push((id, j));
        }
        // Skipped draws: Poisson with the accrued ineffective intensity.
        let rejected = if eg.reject_integral > 0.0 {
            sample_poisson(&mut self.rng, eg.reject_integral)
        } else {
            0
        };
        let base = self.book.steps;
        self.book.steps = base + cand_total + rejected;
        self.book.effective_steps += eff_total;
        self.book.edge_events += eg.edge_events;
        // `last_effective`: every close lands on an effective event — a
        // stable predicate or a failed validation right after one, or an
        // empty candidate set, which only an effective event can leave —
        // so it is the session's last draw.
        if let Some(at) = eg.eff_at {
            debug_assert!(at == tau_end, "a close lands on an effective event");
            self.book.last_effective = self.book.steps;
        }
        // `last_output_change`: the draws resolved at close thin by the
        // change mark's share of each clock.
        if let Some(mc) = eg.change {
            self.book.last_output_change = if mc.tau == tau_end {
                self.book.steps
            } else {
                let mut idx = base + mc.cand_done;
                for &(id, j) in &alive {
                    let w = &eg.walkers[&id];
                    if j == 0 || w.born >= mc.tau {
                        continue;
                    }
                    let p = ((mc.tau - w.born) / (tau_end - w.born)).clamp(0.0, 1.0);
                    idx += u128::from(sample_binomial(&mut self.rng, j, p));
                }
                for rec in &eg.absorbed_recs {
                    if rec.absorbed_at <= mc.tau || rec.born >= mc.tau || rec.rem <= 1 {
                        continue;
                    }
                    let p = (4.0 * (mc.tau - rec.born) / rec.gamma).clamp(0.0, 1.0);
                    idx += u128::from(sample_binomial(&mut self.rng, rec.rem - 1, p));
                }
                if rejected > 0 {
                    let p = (mc.reject_integral / eg.reject_integral.max(f64::MIN_POSITIVE))
                        .clamp(0.0, 1.0);
                    idx += sample_binomial_u128(&mut self.rng, rejected, p);
                }
                idx
            };
        }
        // Materialize the alive walkers: position from the
        // future-conditioned bridge, remainder carried as a commitment.
        for &(id, j) in &alive {
            let w = &eg.walkers[&id];
            let len = w.path.len() - 1;
            let rem = w.rem - j;
            let z2 = if j == 0 {
                w.z
            } else {
                let weights = bridge_weights_with_future(w.z, len, j, rem, w.exit0);
                // A numerically dead row (astronomically late bridges
                // underflow the spectral terms) must still land in the
                // interior.
                sample_weighted(&mut self.rng, &weights).clamp(1, len - 1)
            };
            let old = w.path[w.z] as usize;
            let new = w.path[z2] as usize;
            if new != old {
                // Path states are off-link isolated, so unsampled.
                self.sp.swap_states(old, new);
                self.refresh_on_incident(old);
                self.refresh_on_incident(new);
            }
            self.commits.push((
                w.path[z2],
                Commit {
                    path: w.path.clone(),
                    z: z2,
                    rem,
                    exit0: w.exit0,
                },
            ));
        }
    }
}

impl<M: EnumerableMachine> Primitives for BucketSim<M> {
    type Machine = M;

    fn advance(&mut self, max_steps: u64) -> EventStep {
        BucketSim::advance(self, max_steps)
    }

    fn book(&self) -> Bookkeeping {
        self.book.saturated()
    }

    fn idle_to(&mut self, target: u64) {
        self.book.steps = self.book.steps.max(u128::from(target));
    }

    fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    fn faults_mut(&mut self) -> Option<&mut FaultState> {
        self.faults.as_mut()
    }

    fn engine_view(&self) -> EngineView<'_, M> {
        EngineView::Sparse { sp: &self.sp, machine: &self.machine }
    }

    // Faults are pure bucket/on-list reclassification: crashed nodes
    // leave their bucket and shed their active edges, arrivals re-enter
    // their retained bucket, deleted edges leave the on list. The skip
    // denominator never moves.
    fn retire(&mut self, x: usize) -> Vec<usize> {
        let mut neighbors: Vec<usize> = self.sp.neighbors(x).collect();
        neighbors.sort_unstable();
        for &w in &neighbors {
            self.deactivate_edge(x, w);
        }
        self.sp.bucket_remove(x);
        self.dirty = true;
        neighbors
    }

    fn readmit(&mut self, x: usize) {
        self.sp.bucket_insert(x);
        self.dirty = true;
    }

    /// A bucket move plus on-list refreshes for `u`'s surviving edges.
    fn set_state_index(&mut self, u: usize, q: usize) {
        self.move_state(u, q);
        self.refresh_on_incident(u);
        self.dirty = true;
    }

    fn deactivate_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.sp.is_active(u, v) {
            return false;
        }
        self.write_edge(u, v, false);
        true
    }

    fn record_fault_edges(&mut self, k: usize) {
        self.book.record_edge_changes(k);
    }

    /// The batched endgame engages here: when every on-candidate is an
    /// edge of a lone-walker path (the merging-lines endgame of Simple
    /// Global Line and its kin), the engine opens a continuous-time
    /// session that absorbs whole walks from their exact first-passage
    /// laws instead of draw by draw, racing them against the remaining
    /// off-candidates through independent Poisson clocks. Batching is
    /// sound precisely here — walk moves never change edges, so no
    /// predicate evaluation point is skipped — and is gated to unbounded
    /// budgets (a session cannot stop at an interior step count) and to
    /// fault plans with no pending events (a session cannot be
    /// interrupted).
    fn run_until_edges_with(
        &mut self,
        mut stable: impl FnMut(&Self) -> bool,
        max_steps: u64,
    ) -> RunOutcome {
        let batching = max_steps == u64::MAX
            && self.faults.as_ref().is_none_or(|fs| fs.next_at().is_none());
        if !batching {
            return run_until_with(self, stable, true, max_steps);
        }
        if stable(self) {
            return self.book().stabilized_now();
        }
        loop {
            if let EndgameEvent::Applied { edge_changed } = self.endgame_step() {
                if edge_changed && stable(self) {
                    self.endgame_finish();
                    return self.book().stabilized_now();
                }
                continue;
            }
            match next_probe(self, true, max_steps) {
                ControlFlow::Break(out) => return out,
                ControlFlow::Continue(true) if stable(self) => return self.book().stabilized_now(),
                ControlFlow::Continue(_) => {}
            }
        }
    }
}

impl<M: EnumerableMachine> ExactEngine for BucketSim<M> {
    type Config = SparsePop;

    fn config(&self) -> &SparsePop {
        &self.sp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::contract::{self, Arm};
    use crate::{CompiledTable, EventSim, ProtocolBuilder, RuleProtocol};

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn matching_protocol() -> CompiledTable {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        b.build().expect("valid").compile()
    }

    /// A protocol whose only rule needs an *active* edge, so its
    /// candidates ride the on list exclusively. State index 1 carries the
    /// rule, matching the matched state of [`matching_protocol`] so a
    /// matched configuration imports directly.
    fn on_only_protocol() -> RuleProtocol {
        let mut b = ProtocolBuilder::new("dissolve");
        let _done = b.state("done");
        let a = b.state("a");
        b.rule((a, a, ON), (_done, _done, OFF));
        b.build().expect("valid")
    }

    #[test]
    fn matching_converges_and_quiesces() {
        let mut sim = BucketSim::new(matching_protocol(), 20, 123);
        let outcome = sim.run_until_edges(|p| p.active_count() == 10, 200_000);
        assert!(outcome.stabilized(), "matching should form: {outcome:?}");
        assert!(sim.is_quiescent());
        assert_eq!(sim.effective_steps(), 10);
        assert_eq!(sim.candidate_weight(), 0);
        let pop = sim.to_population();
        assert!(netcon_graph::properties::is_maximum_matching(pop.edges()));
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = BucketSim::new(matching_protocol(), 16, seed);
            let out = sim.run_until_edges(|p| p.active_count() == 8, 100_000);
            (out, sim.steps(), sim.edge_events())
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).0.stabilized());
    }

    // This engine's rows of the shared driver-contract table; the
    // whole table, naive reference included, runs in `driver::tests`.
    #[test]
    fn budget_is_respected_exactly() {
        contract::budget_is_respected_exactly(Arm::Bucket);
    }

    #[test]
    fn run_to_lands_exactly_and_quiescence_jumps() {
        contract::run_to_lands_exactly_and_quiescence_jumps(Arm::Bucket);
    }

    #[test]
    fn on_link_rules_ride_the_on_list() {
        // Start from a full matching built by a different machine, then
        // dissolve it with the on-link-only protocol: every candidate must
        // come from the on list (off_total is 0 throughout).
        let mut setup = BucketSim::new(matching_protocol(), 12, 7);
        setup.run_until_edges(|p| p.active_count() == 6, u64::MAX);
        let pop = setup.to_population();
        let mut sim = BucketSim::from_population(on_only_protocol().compile(), pop, 5);
        assert_eq!(sim.candidate_weight(), 12, "6 active edges, ordered ×2");
        let out = sim.run_until_edges(|p| p.active_count() == 0, u64::MAX);
        assert!(out.stabilized());
        assert_eq!(sim.edge_events(), 6, "each matched edge dissolved once");
        assert!(sim.is_quiescent());
    }

    #[test]
    fn quiescent_unstable_returns_budget_immediately() {
        contract::quiescent_unstable_returns_budget(Arm::Bucket);
    }

    #[test]
    fn dead_pair_on_an_active_edge_is_no_candidate() {
        // Two adjacent nodes in state a with rule (a, a, 0): the pair
        // sits in an off bucket, but its edge is active, so the tally
        // takes it out of the bucket's weight. The configuration is
        // quiescent at once, and a 10^12-step budget is a jump.
        let mut b = ProtocolBuilder::new("stuck");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        let p = b.build().expect("valid").compile();
        let mut pop = Population::new(4, crate::StateId::new(0));
        // a–a active edge (unreachable for the matching protocol, but a
        // legal configuration) plus two matched m nodes.
        pop.edges_mut().activate(0, 1);
        pop.set_state(2, crate::StateId::new(1));
        pop.set_state(3, crate::StateId::new(1));
        pop.edges_mut().activate(2, 3);
        let mut sim = BucketSim::from_population(p, pop, 3);
        assert_eq!(sim.candidate_weight(), 0, "the dead pair is no candidate");
        let t0 = std::time::Instant::now();
        let out = sim.run_until(|_| false, 1_000_000_000_000);
        assert_eq!(
            out,
            RunOutcome::MaxSteps {
                steps: 1_000_000_000_000
            }
        );
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "the dead configuration was not a jump"
        );
        assert!(sim.is_quiescent());
    }

    #[test]
    fn tracks_dense_event_engine_on_average() {
        // Cheap smoke check of the exactness argument (the full paired
        // statistical tests live in the workspace-level suite).
        let trials = 60;
        let mean = |bucket: bool| -> f64 {
            (0..trials)
                .map(|seed| {
                    let out = if bucket {
                        BucketSim::new(matching_protocol(), 12, 1000 + seed)
                            .run_until_edges(|p| p.active_count() == 6, u64::MAX)
                    } else {
                        EventSim::new(matching_protocol(), 12, 2000 + seed).run_until_edges(
                            |p| p.edges().active_count() == 6,
                            u64::MAX,
                        )
                    };
                    out.converged_at().expect("stabilizes") as f64
                })
                .sum::<f64>()
                / f64::from(trials as u32)
        };
        let (bu, ev) = (mean(true), mean(false));
        assert!(
            (bu - ev).abs() / ev < 0.35,
            "bucket {bu:.1} vs event {ev:.1} means too far apart"
        );
    }

    #[test]
    fn from_population_round_trips() {
        let mut sim = BucketSim::new(matching_protocol(), 14, 4);
        sim.run_until_edges(|p| p.active_count() == 7, u64::MAX);
        let pop = sim.to_population();
        let again = BucketSim::from_population(matching_protocol(), pop.clone(), 9);
        assert_eq!(again.to_population(), pop);
    }

    #[test]
    fn sparse_pop_accessors_are_consistent() {
        let mut sim = BucketSim::new(matching_protocol(), 10, 2);
        sim.run_until_edges(|p| p.active_count() == 5, u64::MAX);
        let sp = sim.view();
        assert_eq!(sp.n(), 10);
        assert_eq!(sp.count_index(0), 0, "all nodes matched");
        assert_eq!(sp.count_index(1), 10);
        assert_eq!(sp.nodes_index(1).len(), 10);
        for u in 0..10 {
            assert_eq!(sp.degree(u), 1);
            let v = sp.neighbors(u).next().expect("matched");
            assert!(sp.is_active(u, v));
            assert_eq!(sp.state_index(u), 1);
        }
        let es = sp.to_edgeset();
        assert_eq!(es.active_count(), 5);
        assert!(sp.approx_mem_bytes() > 0);
    }

    /// Every row edit of random edge toggles keeps the adjacency
    /// consistent and in exactly the order plain `Vec` rows with
    /// `push`/`swap_remove` would hold — the order the engines' draws
    /// depend on — while hubs spill to heap rows and move back inline.
    #[test]
    fn rows_spill_and_return_in_vec_order() {
        let n = 7;
        let mut sp = SparsePop::new(n, 1, 0);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rng = SmallRng::seed_from_u64(11);
        let (mut spilled, mut returned) = (false, false);
        for _ in 0..4000 {
            // Node 0 is a hub: most toggles touch it.
            let u = if rng.random_bool(0.7) { 0 } else { rng.random_range(1..n) };
            let v = (u + rng.random_range(1..n)) % n;
            let was = sp.degree(u);
            if sp.is_active(u, v) {
                sp.set_edge(u, v, false);
                for (a, b) in [(u, v), (v, u)] {
                    let i = model[a].iter().position(|&w| w as usize == b).expect("modelled");
                    model[a].swap_remove(i);
                }
                returned |= was == INLINE + 1;
            } else {
                sp.set_edge(u, v, true);
                model[u].push(v as u32);
                model[v].push(u as u32);
                spilled |= was == INLINE;
            }
            assert!(sp.adjacency_consistent(&[]));
            for (w, row) in model.iter().enumerate() {
                assert!(sp.neighbors(w).eq(row.iter().map(|&x| x as usize)));
            }
        }
        assert!(spilled && returned, "the hub never crossed the inline capacity");
    }

    /// The Global-Star centre gathers every node (its row spills), and a
    /// centre demoted by a `(c, c)` meeting sheds its edges through
    /// `(p, p, 1)` until its row is back inline; the adjacency stays
    /// consistent with the on list after every step.
    #[test]
    fn global_star_hub_rows_spill_and_shrink_back() {
        let mut b = ProtocolBuilder::new("Global-Star");
        let c = b.state("c");
        let p = b.state("p");
        b.rule((c, c, OFF), (c, p, ON));
        b.rule((p, p, ON), (p, p, OFF));
        b.rule((c, p, OFF), (c, p, ON));
        let n = 24;
        let mut sim = BucketSim::new(b.build().expect("valid").compile(), n, 5);
        let (mut widest, mut shrunk) = (0, false);
        let mut prev = vec![0; n];
        while sim.advance(u64::MAX) != EventStep::Quiescent {
            assert!(sim.adjacency_consistent(), "after {} steps", sim.steps());
            assert!(sim.buckets_consistent(), "after {} steps", sim.steps());
            for (u, d) in prev.iter_mut().enumerate() {
                let now = sim.view().degree(u);
                shrunk |= *d > INLINE && now <= INLINE;
                widest = widest.max(now);
                *d = now;
            }
        }
        assert_eq!(widest, n - 1, "the final centre's row holds every node");
        assert!(shrunk, "no demoted centre's row came back inline");
        assert_eq!(sim.view().active_count(), n - 1);
    }

    /// Simple-Global-Line (Protocol 1), states `q0, q1, q2, l, w` at
    /// indices 0–4.
    fn sgl_protocol() -> CompiledTable {
        let mut b = ProtocolBuilder::new("Simple-Global-Line");
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let q2 = b.state("q2");
        let l = b.state("l");
        let w = b.state("w");
        b.rule((q0, q0, OFF), (q1, l, ON));
        b.rule((l, q0, OFF), (q2, l, ON));
        b.rule((l, l, OFF), (q2, w, ON));
        b.rule((w, q2, ON), (q2, w, ON));
        b.rule((w, q1, ON), (q2, l, ON));
        b.build().expect("valid").compile()
    }

    /// A walker's move trades the two nodes' bucket slots in place: no
    /// off bucket names `w` or `q2`, so the sampled `q0` and `l` lists
    /// stay byte for byte as they were, and the new walker's `q2` slot
    /// now holds the old walker.
    #[test]
    fn sgl_walker_moves_swap_bucket_slots_in_place() {
        const Q2: usize = 2;
        const W: usize = 4;
        let mut sim = BucketSim::new(sgl_protocol(), 40, 8);
        let mut moves = 0;
        loop {
            let before: Vec<Vec<u32>> =
                (0..5).map(|s| sim.view().nodes_index(s).to_vec()).collect();
            let step = sim.advance(u64::MAX);
            if step == EventStep::Quiescent {
                break;
            }
            assert!(sim.buckets_consistent(), "after {} steps", sim.steps());
            let EventStep::Candidate {
                result:
                    StepResult::Effective {
                        pair: (u, v),
                        edge_changed: false,
                    },
                ..
            } = step
            else {
                continue;
            };
            let after = |s| sim.view().nodes_index(s);
            if before[W].len() != 1 || after(W).len() != 1 || after(W) == &before[W][..] {
                continue;
            }
            // The walker `old` handed `w` to its neighbour `new`.
            let (old, new) = (before[W][0], after(W)[0]);
            assert!([(u, v), (v, u)].contains(&(old as usize, new as usize)));
            for s in [0, 1, 3] {
                assert_eq!(after(s), &before[s][..], "state {s}'s bucket moved");
            }
            let slot = before[Q2]
                .iter()
                .position(|&x| x == new)
                .expect("new was a q2");
            let mut expect = before[Q2].clone();
            expect[slot] = old;
            assert_eq!(
                after(Q2),
                &expect[..],
                "the q2 bucket was not edited in place"
            );
            moves += 1;
        }
        assert!(moves > 20, "only {moves} walker moves observed");
    }

    /// A swap rule whose states an off bucket names keeps the
    /// swap-remove-and-push moves, whose order the sampled buckets'
    /// draws depend on.
    #[test]
    fn sampled_swaps_take_the_re_push_path() {
        let mut b = ProtocolBuilder::new("sampled-swap");
        let a = b.state("a");
        let c = b.state("b");
        b.rule((a, c, ON), (c, a, ON));
        b.rule((a, c, OFF), (a, c, ON));
        let table = b.build().expect("valid").compile();
        let mut pop = Population::new(6, crate::StateId::new(0));
        for x in 3..6 {
            pop.set_state(x, crate::StateId::new(1));
        }
        pop.edges_mut().activate(0, 3);
        let mut sim = BucketSim::from_population(table, pop, 1);
        assert!(sim.sampled[0] && sim.sampled[1]);
        assert_eq!(sim.view().nodes_index(0), &[0, 1, 2]);
        assert_eq!(sim.view().nodes_index(1), &[3, 4, 5]);
        assert!(!sim.apply(0, 3, ON, (1, 0, ON)), "the link stays");
        // Each node swap-removed from the front and pushed at the back,
        // node 0 first; in place, the `a` bucket would read [3, 1, 2].
        assert_eq!(sim.view().nodes_index(0), &[2, 1, 3]);
        assert_eq!(sim.view().nodes_index(1), &[0, 4, 5]);
        assert!(sim.buckets_consistent());
        assert_eq!(
            sim.candidate_weight(),
            2 * 3 * 3,
            "every (a, b) pair, either link"
        );
    }

    /// A `run_until_edges` run that stops while batched-endgame walkers
    /// are alive carries their commitments out of the session, and
    /// `approx_mem_bytes` counts them with their paths.
    #[test]
    fn memory_counts_carried_endgame_commitments() {
        let table = sgl_protocol();
        let n = 400;
        let with_commits = (n / 2..n - 1)
            .find_map(|edges| {
                let mut sim = BucketSim::new(table.clone(), n, 3);
                let out = sim.run_until_edges(|sp| sp.active_count() >= edges, u64::MAX);
                assert!(out.stabilized());
                (!sim.commits.is_empty()).then_some(sim)
            })
            .expect("some stop lands while walkers are alive");
        // Clones (capacity = length) differ only in the commitments.
        let full = with_commits.clone();
        let mut bare = with_commits.clone();
        bare.commits = Vec::new();
        let carried = full.commits.capacity() * size_of::<(u32, Commit)>()
            + full
                .commits
                .iter()
                .map(|(_, c)| c.path.capacity() * size_of::<u32>())
                .sum::<usize>();
        assert!(carried > 0);
        assert_eq!(full.approx_mem_bytes() - bare.approx_mem_bytes(), carried as u64);
    }

    /// `approx_mem_bytes` of a stable Cycle-Cover at n = 20 000, seed 0:
    /// every adjacency row inline, plus the 3 × 3 edge tally.
    const CYCLE_COVER_20K_MEM: u64 = 764_072;

    #[test]
    fn memory_of_a_cycle_cover_at_twenty_thousand_nodes() {
        let mut b = ProtocolBuilder::new("Cycle-Cover");
        let q0 = b.state("q0");
        let q1 = b.state("q1");
        let q2 = b.state("q2");
        b.rule((q0, q0, OFF), (q1, q1, ON));
        b.rule((q1, q0, OFF), (q2, q1, ON));
        b.rule((q1, q1, OFF), (q2, q2, ON));
        let mut sim = BucketSim::new(b.build().expect("valid").compile(), 20_000, 0);
        let out = sim.run_until(
            |sp| match (sp.count_index(0), sp.count_index(1)) {
                (0 | 1, 0) => true,
                (0, 2) => sp.is_active(sp.nodes_index(1)[0] as usize, sp.nodes_index(1)[1] as usize),
                _ => false,
            },
            u64::MAX,
        );
        assert!(out.stabilized(), "{out:?}");
        let measured = sim.approx_mem_bytes();
        assert!(
            measured <= CYCLE_COVER_20K_MEM,
            "{measured} bytes, above the recorded {CYCLE_COVER_20K_MEM}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = BucketSim::new(matching_protocol(), 1, 0);
    }

    #[test]
    fn faults_reclassify_buckets_and_converge() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(2)
            .at(0, FaultEvent::Crash(0))
            .at(0, FaultEvent::Arrive);
        let mut sim = BucketSim::new_faulted(matching_protocol(), 8, 13, plan);
        // Node 0 crashed, the one ghost slot arrived: 8 alive in `a`.
        let out = sim.run_faulted_until(|sp, _| sp.active_count() == 4, 10_000_000);
        assert!(out.stabilized(), "{out:?}");
        let fs = sim.fault_state().expect("faulted");
        assert_eq!(fs.alive_count(), 8);
        assert_eq!(fs.capacity(), 9);
        assert!(!fs.is_alive(0));
        assert_eq!(sim.candidate_weight(), 0, "everyone alive is matched");
        assert_eq!(sim.view().degree(0), 0, "the crashed node is inert");
    }
}
