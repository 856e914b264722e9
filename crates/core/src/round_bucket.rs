//! The sparse exact ShuffledRounds engine: [`RoundSim`](crate::RoundSim)'s
//! skip laws in O(n + |Q|²) memory, via counted cohorts of scheduled
//! identities.
//!
//! [`RoundSim`](crate::RoundSim) keeps three dense pair sets (≈ `13n²`
//! bytes), which caps round-denominated statistics near n ≈ 6 000 under
//! the default budget. This engine lifts its A/B/U partition to
//! [`BucketSim`](crate::BucketSim)-style state-bucket counting so the same
//! execution law fits in O(n + |Q|²): nodes untouched this round are
//! grouped by their round-start class, pairs of untouched nodes exist only
//! as bucket-size products, and the identities the dense engine resolves
//! eagerly are kept as *counted cohorts* resolved on demand.
//!
//! # The counted-superset accounting
//!
//! A ShuffledRounds round is a uniform permutation of the `m = n(n−1)/2`
//! unordered pairs. Mid-round the engine must answer two queries exactly:
//! how many unscheduled candidates remain (`k`, the hits side of the
//! [`hypergeometric_skip`](crate::engine::hypergeometric_skip) law), and — when
//! skips consume `t` unscheduled non-candidates — *which* pairs were
//! consumed, because a rejected or skipped pair cannot recur until the
//! next round. The dense engine
//! answers with per-pair bits; this engine answers with five strata:
//!
//! 1. **Bulk**: pairs of untouched nodes whose round-start class pair is a
//!    candidate on an inactive link. Counted as bucket products
//!    (`Σ c_q·c_q′`); never consumed by skips (skips take non-candidates
//!    only), so every bulk pair is an unscheduled candidate.
//! 2. **Urns**: when a node `t` is first touched, its pairs with the
//!    still-untouched nodes of each class `q` become one *urn* — a cohort
//!    with frozen membership, tracked as counts `(cnt, unc)` of members
//!    and unscheduled members. Candidate-class urns split off the bulk
//!    with `unc = cnt`; others split off the pool by one
//!    [`hypergeometric_count_large`] draw.
//! 3. **The pool**: pairs untracked by any of the above (non-candidate
//!    class products and pairs incident to dead nodes), as global counts.
//! 4. **Explicit pairs**: every active edge and every pair of touched
//!    nodes that is (or once was) individually resolved, with exact
//!    scheduled/candidate flags — the analog of the dense engine's
//!    resolved sets, O(touched + edges) of them.
//! 5. **The ledger**: a skip batch of `t` draws splits between the
//!    explicit non-candidates and the anonymous mass by one
//!    hypergeometric count; the anonymous share is recorded as a ledger
//!    entry `(u_rem, h_rem)` instead of being attributed to individual
//!    urns. When a cohort later *needs* its exact unscheduled count (its
//!    candidacy flips, or a member is resolved individually), it replays
//!    the entries since its cursor, drawing its share of each batch by
//!    sequential multivariate-hypergeometric conditioning.
//!
//! Unscheduled-candidate availability is then
//! `k = bulk + Σ_cand-urns unc + |explicit cand unscheduled|`, and every
//! draw — skip counts, stratum choice, member materialization, urn
//! resolution — has exactly the conditional law of the uniform permutation
//! given the history, so the engine is **distribution-identical** to
//! [`Simulation`](crate::Simulation) under
//! [`ShuffledRounds`](crate::ShuffledRounds) and to
//! [`RoundSim`](crate::RoundSim), up to f64 rounding of the inversion
//! draws. The skip loop and the quiescent idle jump are
//! [`RoundSim`](crate::RoundSim)'s, written once in the
//! [driver](crate::driver): this engine supplies `k`, the skip
//! consumption, the round reset and the candidate draw over its strata,
//! and the candidate draw takes its bulk stratum from the skip's `k`
//! (skips never touch the candidate strata). Three invariants carry the
//! argument:
//!
//! - **Clean candidate urns**: a candidate urn's membership is exactly
//!   the untouched nodes of its class (`cnt = |ubucket|`) — members are
//!   extracted eagerly the moment they are touched — so drawing a uniform
//!   *member* and decrementing both counts has the law of drawing a
//!   uniform *unscheduled* member (the scheduled subset is uniform and
//!   exchangeable, so the drawn member's marginal is uniform either way).
//! - **Touched pairs are explicit when they matter**: a pair of touched
//!   nodes enters the explicit set the moment it becomes a candidate (the
//!   touched-bucket scan after every class change), so stale urn members
//!   are always non-candidates and counted correctly.
//! - **Conservation**: `bulk + Σ unc + |explicit unscheduled| +
//!   anonymous-unscheduled = m − steps mod m`
//!   ([`pool_invariant_holds`](RoundBucketSim::pool_invariant_holds)),
//!   preserved by every draw, touch, flip, and fault event.
//!
//! Fault events ride the same machinery as the other engines: the draw
//! space stays frozen at the capacity, crashes only reclassify (dead
//! pairs keep consuming their round occurrences as non-candidates), and
//! arrivals join as fresh cohorts sourced from the pool. The
//! `fault_bookkeeping` proptests in `tests/engine_equivalence.rs` check
//! the candidate counts against brute force after adversarial histories.
//!
//! Memory: O(n) round bookkeeping plus O(touched · |Q|) urn counts and
//! O(touched + edges) explicit pairs, all reset each round — no Θ(n²)
//! structure anywhere. The per-round structures are flat arenas, not
//! per-node heap rows or hashed cohorts. A node creates all its urns in
//! one batch when first touched (or on arrival), so they form one
//! contiguous run of the urn arena in ascending class order, found by
//! the node's `(base, len)`. Explicit pairs live in an arena in the
//! order they were resolved; a hash map from the canonical node-pair key
//! only finds a pair's index. Each node's explicit pairs are a singly
//! linked list in one shared cell arena, appended at the tail so
//! reclassification visits them in resolution order.
//! [`Engine::auto_for`](crate::Engine::auto_for)
//! routes ShuffledRounds requests here when
//! [`RoundSim::dense_mem_estimate`](crate::RoundSim::dense_mem_estimate)
//! exceeds the budget; `docs/engines.md` has the five-engine table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::bucket::SparsePop;
use crate::compiled::EnumerableMachine;
use crate::driver::{
    advance_rounds, idle_rounds_to, ExactEngine, Primitives, RoundEngine, RoundPrimitives,
};
use crate::engine::{hypergeometric_count_large, unit_open01, Bookkeeping};
use crate::event::EventStep;
use crate::fault::{FaultPlan, FaultState};
use crate::sim::StepResult;
use crate::{EngineView, Link, Population};

/// Canonical key of an unordered node pair (min in the high half).
#[inline]
fn pkey(a: usize, b: usize) -> u64 {
    ((a.min(b) as u64) << 32) | a.max(b) as u64
}

/// End marker of a partner list.
const NIL: u32 = u32::MAX;

/// An explicit (individually resolved) pair.
#[derive(Debug, Clone, Copy)]
struct XPair {
    /// The endpoints, `a < b`.
    a: u32,
    b: u32,
    /// Whether the pair's round occurrence has been consumed.
    sched: bool,
    /// Whether the pair is currently a candidate (states + link admit an
    /// effective transition between two alive nodes).
    cand: bool,
    /// Position in `x_c_u`/`x_nc_u` (valid only while unscheduled).
    pos: u32,
}

/// A frozen-membership cohort: the pairs `(t, w)` between one touched
/// owner `t` and the nodes of one round-start class `q` that were still
/// untouched when `t` was touched. Lives in the urn arena, inside its
/// owner's run.
#[derive(Debug, Clone, Copy)]
struct Urn {
    /// Members still anonymous (neither explicit nor drawn).
    cnt: u64,
    /// Unscheduled members among `cnt` — exact for candidate urns, debt
    /// pending since `cursor` for non-candidate ones.
    unc: u64,
    /// First ledger entry not yet resolved against this cohort.
    cursor: u32,
    /// First `touch_log[q]` entry not yet purged out of this urn.
    purge_cursor: u32,
    /// Whether the members are candidates (owner alive and
    /// `can_affect(state(t), q, Off)`). Candidate urns are *clean*:
    /// `cnt = |ubucket[q]|`, no pending debt.
    cand: bool,
    /// Position in `cand_urns_by_class[q]` while `cand`.
    cpos: u32,
    /// The member class `q`.
    class: u16,
}

/// One skip batch's anonymous share: of `u_rem` anonymous unscheduled
/// pairs at batch time, `h_rem` were scheduled — both decremented as
/// cohorts resolve their shares out of the entry.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    u_rem: u64,
    h_rem: u64,
}

/// An event-driven execution of a machine on a population under the
/// [`ShuffledRounds`](crate::ShuffledRounds) scheduler in sparse memory.
///
/// Mirrors [`RoundSim`](crate::RoundSim) — same [`advance`] contract,
/// same [`ExactEngine`] run loops, same [`RoundEngine`] accessors — but
/// predicates read a [`SparsePop`] view like
/// [`BucketSim`](crate::BucketSim)'s, and nothing Θ(n²) is ever
/// allocated. The exactness argument heads `src/round_bucket.rs`.
///
/// [`advance`]: crate::RoundSim::advance
///
/// # Example
///
/// ```
/// use netcon_core::{ExactEngine, Link, ProtocolBuilder, RoundBucketSim, RoundEngine};
///
/// let mut b = ProtocolBuilder::new("matching");
/// let a = b.state("a");
/// let m = b.state("b");
/// b.rule((a, a, Link::Off), (m, m, Link::On));
/// let protocol = b.build()?.compile();
///
/// // 100k nodes allocate O(n), not the dense engine's ≈ 130 GB.
/// let mut sim = RoundBucketSim::new(protocol, 100_000, 1);
/// let out = sim.run_until_edges(|sp| sp.active_count() == 50_000, u64::MAX);
/// assert!(out.stabilized());
/// // Every pair occurs once per round, so the matching completes in
/// // round 1.
/// assert_eq!(sim.last_output_change_round(), 1);
/// # Ok::<(), netcon_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RoundBucketSim<M: EnumerableMachine> {
    machine: M,
    sp: SparsePop,
    rng: SmallRng,
    book: Bookkeeping,
    /// Unordered class pairs `(q1 ≤ q2)` with `can_affect(q1, q2, Off)` —
    /// the bulk strata, fixed at construction.
    sup_pairs: Vec<(u16, u16)>,
    /// Number of machine states (bucket vector length).
    nq: usize,
    /// Pairs per round, `capacity·(capacity−1)/2`.
    m: u64,
    faults: Option<FaultState>,
    /// Engine-side liveness mirror (`FaultState` tracks the plan's view).
    alive: Vec<bool>,
    // ---- per-round state, rebuilt by `start_round` ----
    /// Round-start class of every node.
    rs_class: Vec<u16>,
    /// Whether the node has been touched this round (dead nodes are
    /// born touched).
    touched: Vec<bool>,
    /// Whether the node was dead at round start (stays set on arrival —
    /// the pair locator routes around it).
    reset_dead: Vec<bool>,
    /// Touch sequence number (0 = untouched); the earlier-touched
    /// endpoint of a pair owns the urn that holds it.
    tseq: Vec<u32>,
    seq_next: u32,
    /// Untouched alive nodes per round-start class.
    ubuckets: Vec<Vec<u32>>,
    upos: Vec<u32>,
    /// Touched alive nodes per *current* class.
    tbuckets: Vec<Vec<u32>>,
    tpos: Vec<u32>,
    /// Touch order per round-start class (arrivals excluded — they were
    /// never urn members).
    touch_log: Vec<Vec<u32>>,
    /// Explicit pairs of the round, in the order they were resolved.
    xpairs: Vec<XPair>,
    /// Index in `xpairs` by canonical key, hashed with fixed keys.
    x: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    /// Unscheduled explicit candidates (`xpairs` indices; positions
    /// mirrored).
    x_c_u: Vec<u32>,
    /// Unscheduled explicit non-candidates.
    x_nc_u: Vec<u32>,
    /// The explicit pairs at every node, in resolution order (walked on a
    /// class change), as singly linked lists in one cell arena: pair `k`
    /// owns cell `2k` in its `a`'s list and cell `2k + 1` in its `b`'s,
    /// and each cell holds the next cell of its list ([`NIL`] at the
    /// tail).
    partner_next: Vec<u32>,
    /// Head and tail cell of each node's list ([`NIL`] if empty).
    partner_ends: Vec<(u32, u32)>,
    /// Scheduled explicit pairs that are currently candidates.
    x_sched_cand: u64,
    /// Every urn of the round. A node creates all its urns in one batch
    /// when it is touched (or arrives), so each node's urns form one
    /// contiguous run in ascending class order.
    urns: Vec<Urn>,
    /// Each node's run in `urns` as `(base, len)`; empty until touched.
    urn_runs: Vec<(u32, u32)>,
    /// Candidate urns grouped by member class as `(owner, urn index)`
    /// (walked to draw).
    cand_urns_by_class: Vec<Vec<(u32, u32)>>,
    /// Σ `unc` over candidate urns.
    rows_avail: u64,
    /// Σ `cnt − unc` over candidate urns (scheduled but still effective).
    cand_sched_urns: u64,
    /// Anonymous pool: members and unscheduled members (debt pending
    /// since `pool_cursor`).
    pool_cnt: u64,
    pool_unc: u64,
    pool_cursor: u32,
    /// Total anonymous non-candidate unscheduled pairs (pool + NC urns),
    /// maintained eagerly — the authoritative count the skip batches
    /// consume from.
    anon_nc_unc: u64,
    /// Whether the current round was entered by a quiescent landing: all
    /// `m` pairs were re-anchored in the anonymous pool (a uniform
    /// scheduled prefix spans *every* pair under quiescence), so urns
    /// frozen this round must split off the pool, never the bulk.
    pool_round: bool,
    /// Skip-batch ledger (see [`LogEntry`]).
    log: Vec<LogEntry>,
    /// Scratch neighbour list of the round reset's edge pass.
    nbrs: Vec<usize>,
}

impl<M: EnumerableMachine> RoundBucketSim<M> {
    /// Creates a sparse ShuffledRounds simulation of `machine` on `n`
    /// nodes in the initial configuration, reproducible from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 2³¹` (node ids are `u32`).
    #[must_use]
    pub fn new(machine: M, n: usize, seed: u64) -> Self {
        let sp = SparsePop::initial(&machine, n);
        Self::from_sparse(machine, sp, seed, None)
    }

    /// Creates a sparse round simulation from an explicit dense
    /// configuration (one scan of its active edges).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    #[must_use]
    pub fn from_population(machine: M, pop: Population<M::State>, seed: u64) -> Self {
        let sp = SparsePop::from_population(&machine, &pop);
        Self::from_sparse(machine, sp, seed, None)
    }

    /// Creates a faulted sparse round simulation: `n` live nodes plus one
    /// *ghost* slot per planned arrival, sharing the fault semantics of
    /// [`RoundSim::new_faulted`](crate::RoundSim::new_faulted) — the
    /// round length is fixed at `capacity·(capacity−1)/2` and ghost pairs
    /// sit in the anonymous pool, so every skip law and round statistic
    /// matches the other engines under the identical [`FaultPlan`].
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new) (with the capacity in place of `n`).
    #[must_use]
    pub fn new_faulted(machine: M, n: usize, seed: u64, plan: FaultPlan) -> Self {
        let (sp, fs) = SparsePop::initial_faulted(&machine, n, plan);
        Self::from_sparse(machine, sp, seed, Some(fs))
    }

    /// The engine over `sp`, whose ghost slots (if `faults` is given) are
    /// already out of their buckets; builds the first round.
    fn from_sparse(machine: M, sp: SparsePop, seed: u64, faults: Option<FaultState>) -> Self {
        let table = machine.effect_table();
        let nq = machine.num_states();
        let mut sup_pairs = Vec::new();
        for q1 in 0..nq {
            for q2 in q1..nq {
                if table.can_affect(q1, q2, Link::Off) {
                    sup_pairs.push((q1 as u16, q2 as u16));
                }
            }
        }
        let n = sp.n();
        let m = (n as u64) * (n as u64 - 1) / 2;
        let mut sim = Self {
            machine,
            sp,
            rng: SmallRng::seed_from_u64(seed),
            book: Bookkeeping::default(),
            sup_pairs,
            nq,
            m,
            alive: (0..n)
                .map(|u| faults.as_ref().is_none_or(|fs| fs.is_alive(u)))
                .collect(),
            faults,
            rs_class: vec![0; n],
            touched: vec![false; n],
            reset_dead: vec![false; n],
            tseq: vec![0; n],
            seq_next: 1,
            ubuckets: vec![Vec::new(); nq],
            upos: vec![0; n],
            tbuckets: vec![Vec::new(); nq],
            tpos: vec![0; n],
            touch_log: vec![Vec::new(); nq],
            xpairs: Vec::new(),
            x: HashMap::default(),
            x_c_u: Vec::new(),
            x_nc_u: Vec::new(),
            partner_next: Vec::new(),
            partner_ends: vec![(NIL, NIL); n],
            x_sched_cand: 0,
            urns: Vec::new(),
            urn_runs: vec![(0, 0); n],
            cand_urns_by_class: vec![Vec::new(); nq],
            rows_avail: 0,
            cand_sched_urns: 0,
            pool_cnt: 0,
            pool_unc: 0,
            pool_cursor: 0,
            anon_nc_unc: 0,
            pool_round: false,
            log: Vec::new(),
            nbrs: Vec::new(),
        };
        sim.start_round(0);
        sim
    }

    /// The current configuration.
    #[must_use]
    pub fn view(&self) -> &SparsePop {
        &self.sp
    }

    /// The number of currently effective pairs, scheduled or not.
    #[must_use]
    pub fn effective_pairs(&self) -> u64 {
        self.avail() + self.x_sched_cand + self.cand_sched_urns
    }

    /// The number of effective pairs not yet scheduled this round — the
    /// `hits` side of the next hypergeometric skip.
    #[must_use]
    pub fn unscheduled_candidates(&self) -> u64 {
        self.avail()
    }

    /// Whether no pair of nodes has any effective interaction — O(|Q|²):
    /// every stratum's candidate count is zero. Quiescence is
    /// scheduler-independent, so this is the same predicate as
    /// [`RoundSim::is_quiescent`](crate::RoundSim::is_quiescent).
    #[must_use]
    pub(crate) fn is_quiescent(&self) -> bool {
        self.quiescent()
    }

    /// Whether the round partition accounts for every unscheduled pair:
    /// `bulk + Σ cand-urn unc + |explicit unscheduled| + anonymous
    /// unscheduled = m − steps mod m`. Every draw and fault event must
    /// preserve this; the mutation-bookkeeping proptests check it after
    /// every event.
    #[must_use]
    pub fn pool_invariant_holds(&self) -> bool {
        self.bulk_total()
            + self.rows_avail
            + self.x_c_u.len() as u64
            + self.x_nc_u.len() as u64
            + self.anon_nc_unc
            == self.m - self.book.steps % self.m
    }

    /// Whether the round's arenas are well formed: every explicit pair
    /// is found by its key and appears exactly once in each endpoint's
    /// list and nowhere else, the unscheduled lists mirror their pairs'
    /// positions and flags, every touched node's cohorts are one run with
    /// distinct, ascending classes, the runs tile the urn arena, and
    /// every candidate cohort sits at its mirrored position in its class
    /// list. O(n + cohorts + explicit pairs); for tests.
    #[must_use]
    pub fn round_arenas_consistent(&self) -> bool {
        let n = self.sp.n();
        let mut visited = vec![false; self.partner_next.len()];
        for u in 0..n {
            let (head, tail) = self.partner_ends[u];
            let (mut cell, mut last) = (head, NIL);
            while cell != NIL {
                let c = cell as usize;
                let Some(p) = self.xpairs.get(c >> 1) else {
                    return false;
                };
                let owner = if c.is_multiple_of(2) { p.a } else { p.b };
                if owner as usize != u || std::mem::replace(&mut visited[c], true) {
                    return false;
                }
                (last, cell) = (cell, self.partner_next[c]);
            }
            if last != tail {
                return false;
            }
        }
        let pairs_ok = visited.len() == 2 * self.xpairs.len()
            && visited.iter().all(|&v| v)
            && self.x.len() == self.xpairs.len()
            && self.xpairs.iter().enumerate().all(|(k, p)| {
                p.a < p.b && self.x.get(&pkey(p.a as usize, p.b as usize)) == Some(&(k as u32))
            });
        let listed = |list: &[u32], cand: bool| {
            list.iter().enumerate().all(|(i, &k)| {
                let p = self.xpairs[k as usize];
                !p.sched && p.cand == cand && p.pos as usize == i
            })
        };
        let unsched = self.xpairs.iter().filter(|p| !p.sched).count();
        let lists_ok = listed(&self.x_c_u, true)
            && listed(&self.x_nc_u, false)
            && unsched == self.x_c_u.len() + self.x_nc_u.len();
        let mut owned = vec![false; self.urns.len()];
        let runs_ok = (0..n).all(|u| {
            let (base, len) = self.urn_runs[u];
            let Some(run) = self.urns.get(base as usize..(base + len) as usize) else {
                return false;
            };
            if len > 0 && !self.touched[u] {
                return false;
            }
            for o in &mut owned[base as usize..(base + len) as usize] {
                if std::mem::replace(o, true) {
                    return false;
                }
            }
            run.windows(2).all(|w| w[0].class < w[1].class)
                && run.iter().enumerate().all(|(j, urn)| {
                    !urn.cand
                        || self.cand_urns_by_class[usize::from(urn.class)].get(urn.cpos as usize)
                            == Some(&(u as u32, base + j as u32))
                })
        });
        let cand_listed: usize = self.cand_urns_by_class.iter().map(Vec::len).sum();
        pairs_ok
            && lists_ok
            && runs_ok
            && owned.iter().all(|&o| o)
            && cand_listed == self.urns.iter().filter(|urn| urn.cand).count()
    }

    /// Materializes the dense configuration — Θ(n²) bits for the edge
    /// set; for inspection and small-n testing only.
    #[must_use]
    pub fn to_population(&self) -> Population<M::State> {
        EngineView::Sparse { sp: &self.sp, machine: &self.machine }.to_population()
    }

    /// Bytes of heap memory held by the engine: the sparse configuration,
    /// the per-round bucket vectors, the explicit-pair map, the urn and
    /// partner arenas, and the effect table — O(n + |Q|² + touched),
    /// against the dense round engine's ≈ `13n²`.
    #[must_use]
    pub(crate) fn approx_mem_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        let rows = |vs: &Vec<Vec<u32>>| vs.iter().map(bytes).sum::<u64>() + bytes(vs);
        self.sp.approx_mem_bytes()
            + self.machine.effect_table().approx_mem_bytes()
            + bytes(&self.sup_pairs)
            + bytes(&self.alive)
            + bytes(&self.touched)
            + bytes(&self.reset_dead)
            + bytes(&self.rs_class)
            + bytes(&self.tseq)
            + bytes(&self.upos)
            + bytes(&self.tpos)
            + rows(&self.ubuckets)
            + rows(&self.tbuckets)
            + rows(&self.touch_log)
            + bytes(&self.xpairs)
            // Each hash-map slot also carries one control byte.
            + (self.x.capacity() * (size_of::<(u64, u32)>() + 1)) as u64
            + bytes(&self.x_c_u)
            + bytes(&self.x_nc_u)
            + bytes(&self.partner_next)
            + bytes(&self.partner_ends)
            + bytes(&self.urns)
            + bytes(&self.urn_runs)
            + self.cand_urns_by_class.iter().map(bytes).sum::<u64>()
            + bytes(&self.cand_urns_by_class)
            + bytes(&self.log)
            + bytes(&self.nbrs)
    }

    /// Unscheduled bulk pairs: Σ over candidate class pairs of the
    /// untouched-bucket products — O(|Q|²) worst case, O(|sup_pairs|)
    /// always.
    fn bulk_total(&self) -> u64 {
        let mut total = 0u64;
        for &(q1, q2) in &self.sup_pairs {
            let c1 = self.ubuckets[usize::from(q1)].len() as u64;
            total += if q1 == q2 {
                c1 * c1.saturating_sub(1) / 2
            } else {
                c1 * self.ubuckets[usize::from(q2)].len() as u64
            };
        }
        total
    }
}

// ---------------------------------------------------------------------
// Round bookkeeping: touches, urns, the ledger, and explicit pairs.
// ---------------------------------------------------------------------
impl<M: EnumerableMachine> RoundBucketSim<M> {
    /// Inserts `u` into the touched bucket of class `q`.
    fn tbucket_insert(&mut self, u: usize, q: usize) {
        self.tpos[u] = self.tbuckets[q].len() as u32;
        self.tbuckets[q].push(u as u32);
    }

    /// Removes `u` from the touched bucket of class `q`.
    fn tbucket_remove(&mut self, u: usize, q: usize) {
        let pos = self.tpos[u] as usize;
        debug_assert_eq!(self.tbuckets[q][pos] as usize, u);
        self.tbuckets[q].swap_remove(pos);
        if pos < self.tbuckets[q].len() {
            let moved = self.tbuckets[q][pos] as usize;
            self.tpos[moved] = pos as u32;
        }
    }

    /// First half of a touch: stamps the sequence number, moves `u` out
    /// of its untouched bucket (shrinking every open urn's frozen-member
    /// view *before* any new pair is materialized), logs the touch for
    /// later non-candidate purges, and joins the touched buckets.
    fn pre_mark(&mut self, u: usize) {
        debug_assert!(!self.touched[u] && self.alive[u]);
        self.touched[u] = true;
        self.tseq[u] = self.seq_next;
        self.seq_next += 1;
        let q = usize::from(self.rs_class[u]);
        let pos = self.upos[u] as usize;
        debug_assert_eq!(self.ubuckets[q][pos] as usize, u);
        self.ubuckets[q].swap_remove(pos);
        if pos < self.ubuckets[q].len() {
            let moved = self.ubuckets[q][pos] as usize;
            self.upos[moved] = pos as u32;
        }
        self.touch_log[q].push(u as u32);
        self.tbucket_insert(u, q);
    }

    /// Second half of a touch: eagerly extracts `u` out of every
    /// candidate urn over `u`'s class (keeping candidate urns *clean*),
    /// then freezes `u`'s own urns.
    fn finish_touch(&mut self, u: usize) {
        let q = usize::from(self.rs_class[u]);
        // Pulls and explicit pairs never add or drop a candidate urn, so
        // the list is walked in place.
        for li in 0..self.cand_urns_by_class[q].len() {
            let (t, i) = self.cand_urns_by_class[q][li];
            let t = t as usize;
            if self.x.contains_key(&pkey(t, u)) {
                continue;
            }
            let unsched = self.cand_urn_pull(i as usize);
            self.insert_explicit(t, u, !unsched);
        }
        self.make_urns(u, self.pool_round);
    }

    /// Touches `u` if it is still untouched.
    fn ensure_touched(&mut self, u: usize) {
        if !self.touched[u] {
            self.pre_mark(u);
            self.finish_touch(u);
        }
    }

    /// Freezes `t`'s urns — one per nonempty untouched class, in
    /// ascending class order — as `t`'s run of the urn arena.
    fn make_urns(&mut self, t: usize, force_pool: bool) {
        let base = self.urns.len();
        for q in 0..self.nq {
            let k = self.ubuckets[q].len() as u64;
            if k > 0 {
                self.make_urn(t, q, k, force_pool);
            }
        }
        self.urn_runs[t] = (base as u32, (self.urns.len() - base) as u32);
    }

    /// Arena index of the urn `t` owns over class `q`.
    fn urn_of(&self, t: usize, q: usize) -> usize {
        let (base, len) = self.urn_runs[t];
        let run = &self.urns[base as usize..(base + len) as usize];
        let i = run
            .binary_search_by_key(&q, |urn| usize::from(urn.class))
            .expect("cohort exists");
        base as usize + i
    }

    /// Freezes the urn `(t, q)` over the `k` current members of
    /// `ubuckets[q]`. Candidate-class cohorts (by *round-start* class of
    /// `t`) split off the bulk fully unscheduled — bulk pairs are never
    /// skip-consumed; everything else splits off the pool by one
    /// hypergeometric count. `force_pool` is set for arrivals, whose
    /// pairs were all pool (dead-incident) regardless of class.
    fn make_urn(&mut self, t: usize, q: usize, k: u64, force_pool: bool) {
        let sup = !force_pool
            && self
                .machine
                .effect_table()
                .can_affect(usize::from(self.rs_class[t]), q, Link::Off);
        let (cnt, unc) = if sup {
            (k, k)
        } else {
            self.resolve_pool();
            debug_assert!(k <= self.pool_cnt);
            let h = if self.pool_unc == self.pool_cnt {
                k
            } else {
                let u = self.u01();
                hypergeometric_count_large(u, self.pool_unc, self.pool_cnt, k)
            };
            self.pool_cnt -= k;
            self.pool_unc -= h;
            (k, h)
        };
        let cand = self.alive[t]
            && self.machine.effect_table().can_affect(self.sp.state_index(t), q, Link::Off);
        let mut urn = Urn {
            cnt,
            unc,
            cursor: self.log.len() as u32,
            purge_cursor: self.touch_log[q].len() as u32,
            cand,
            cpos: 0,
            class: q as u16,
        };
        if cand {
            if !sup {
                // Pool pairs leave the anonymous-NC stratum on promotion.
                debug_assert!(self.anon_nc_unc >= unc);
                self.anon_nc_unc -= unc;
            }
            self.rows_avail += unc;
            self.cand_sched_urns += cnt - unc;
            urn.cpos = self.cand_urns_by_class[q].len() as u32;
            self.cand_urns_by_class[q].push((t as u32, self.urns.len() as u32));
        } else if sup {
            // Bulk pairs entering a non-candidate cohort join the
            // anonymous-NC stratum (a state change between pre_mark and
            // urn creation; normally unreachable).
            self.anon_nc_unc += unc;
        }
        self.urns.push(urn);
    }

    /// Brings a non-candidate cohort's unscheduled count up to date by
    /// drawing its share of every ledger batch since its cursor —
    /// sequential multivariate-hypergeometric conditioning: each batch of
    /// `h_rem` scheduled among `u_rem` anonymous unscheduled splits
    /// hypergeometrically between this cohort's `unc` and the rest.
    fn resolve_urn(&mut self, i: usize) {
        let urn = self.urns[i];
        debug_assert!(!urn.cand);
        let from = urn.cursor as usize;
        if from == self.log.len() {
            return;
        }
        let urn = &mut self.urns[i];
        urn.unc = resolve_cohort(&mut self.rng, &mut self.log, from, urn.unc);
        urn.cursor = self.log.len() as u32;
    }

    /// As [`resolve_urn`](Self::resolve_urn), for the pool cohort.
    fn resolve_pool(&mut self) {
        let from = self.pool_cursor as usize;
        if from == self.log.len() {
            return;
        }
        self.pool_unc = resolve_cohort(&mut self.rng, &mut self.log, from, self.pool_unc);
        self.pool_cursor = self.log.len() as u32;
    }

    /// Draws one member out of a *candidate* urn and reports whether it
    /// was unscheduled. Clean urns have no ledger debt, so the split is a
    /// single uniform index against `(unc, cnt)`.
    fn cand_urn_pull(&mut self, i: usize) -> bool {
        let urn = &mut self.urns[i];
        debug_assert!(urn.cand && urn.cnt > 0);
        let unsched = urn.unc == urn.cnt || self.rng.random_range(0..urn.cnt) < urn.unc;
        urn.cnt -= 1;
        if unsched {
            urn.unc -= 1;
            self.rows_avail -= 1;
        } else {
            self.cand_sched_urns -= 1;
        }
        unsched
    }

    /// Draws one member out of a *non-candidate* urn whose ledger debt is
    /// resolved and reports whether it was unscheduled.
    fn nc_urn_pull(&mut self, i: usize) -> bool {
        let urn = &mut self.urns[i];
        debug_assert!(!urn.cand && urn.cnt > 0);
        let unsched = urn.unc == urn.cnt || self.rng.random_range(0..urn.cnt) < urn.unc;
        urn.cnt -= 1;
        if unsched {
            urn.unc -= 1;
            debug_assert!(self.anon_nc_unc > 0);
            self.anon_nc_unc -= 1;
        }
        unsched
    }

    /// Extracts every touched member still counted inside `t`'s
    /// *non-candidate* cohort `i` (they were left stale while the cohort
    /// was NC — safe, because NC members cannot be drawn — but must
    /// become explicit before the cohort turns candidate again). The
    /// cohort's ledger debt must already be resolved.
    fn purge_urn(&mut self, t: usize, i: usize) {
        let urn = &mut self.urns[i];
        debug_assert!(!urn.cand && urn.cursor as usize == self.log.len());
        let q = usize::from(urn.class);
        let (from, to) = (urn.purge_cursor as usize, self.touch_log[q].len());
        urn.purge_cursor = to as u32;
        for j in from..to {
            let w = self.touch_log[q][j] as usize;
            debug_assert_ne!(w, t);
            if self.x.contains_key(&pkey(t, w)) {
                continue;
            }
            let unsched = self.nc_urn_pull(i);
            self.insert_explicit(t, w, !unsched);
        }
    }

    /// Resolves one specific pair of touched alive nodes out of whatever
    /// cohort holds it, reporting whether it was unscheduled. The
    /// earlier-touched endpoint owns the urn; pairs whose later-touched
    /// endpoint was dead at round start (arrivals) were never urn members
    /// and resolve against the pool.
    fn locate_and_pull(&mut self, a: usize, b: usize) -> bool {
        debug_assert!(self.touched[a] && self.touched[b] && a != b);
        debug_assert!(self.tseq[a] >= 1 && self.tseq[b] >= 1);
        let (own, mem) = if self.tseq[a] < self.tseq[b] {
            (a, b)
        } else {
            (b, a)
        };
        if self.reset_dead[mem] {
            return self.pool_pull();
        }
        let i = self.urn_of(own, usize::from(self.rs_class[mem]));
        if self.urns[i].cand {
            self.cand_urn_pull(i)
        } else {
            self.resolve_urn(i);
            self.nc_urn_pull(i)
        }
    }

    /// Resolves one pair out of the anonymous pool.
    fn pool_pull(&mut self) -> bool {
        self.resolve_pool();
        debug_assert!(self.pool_cnt > 0);
        let unsched = self.pool_unc == self.pool_cnt || self.rng.random_range(0..self.pool_cnt) < self.pool_unc;
        self.pool_cnt -= 1;
        if unsched {
            self.pool_unc -= 1;
            debug_assert!(self.anon_nc_unc > 0);
            self.anon_nc_unc -= 1;
        }
        unsched
    }
}

/// Replays the ledger entries from `from` against one cohort holding
/// `unc` unscheduled members, returning its updated count. Each entry
/// recorded `h_rem` scheduled draws out of `u_rem` anonymous unscheduled
/// pairs; conditioning sequentially, this cohort's share of the batch is
/// hypergeometric with `unc` marked among `u_rem`, and the entry shrinks
/// by what this cohort took so later cohorts resolve against the rest.
fn resolve_cohort(rng: &mut SmallRng, log: &mut [LogEntry], from: usize, mut unc: u64) -> u64 {
    for e in &mut log[from..] {
        if unc == 0 {
            break;
        }
        debug_assert!(unc <= e.u_rem);
        let h = if e.h_rem == 0 {
            0
        } else if unc == e.u_rem {
            e.h_rem
        } else {
            hypergeometric_count_large(unit_open01(rng.next_u64()), unc, e.u_rem, e.h_rem)
        };
        e.u_rem -= unc;
        e.h_rem -= h;
        unc -= h;
    }
    unc
}

// ---------------------------------------------------------------------
// Explicit pairs and reclassification.
// ---------------------------------------------------------------------
impl<M: EnumerableMachine> RoundBucketSim<M> {
    /// Registers a freshly resolved pair as explicit with the given
    /// scheduled status. Candidacy is computed from the live states and
    /// link; both endpoints must already be touched and the pair must not
    /// be explicit yet.
    fn insert_explicit(&mut self, a: usize, b: usize, sched: bool) {
        let (a, b) = (a.min(b), a.max(b));
        debug_assert!(self.touched[a] && self.touched[b]);
        let cand = self.is_candidate(a, b);
        let k = self.xpairs.len() as u32;
        let mut pos = 0u32;
        if !sched {
            let list = if cand { &mut self.x_c_u } else { &mut self.x_nc_u };
            pos = list.len() as u32;
            list.push(k);
        } else if cand {
            self.x_sched_cand += 1;
        }
        self.xpairs.push(XPair {
            a: a as u32,
            b: b as u32,
            sched,
            cand,
            pos,
        });
        let prev = self.x.insert(pkey(a, b), k);
        debug_assert!(prev.is_none(), "pair resolved twice");
        // Cells 2k and 2k + 1, in this order.
        self.push_cell(a);
        self.push_cell(b);
    }

    /// Whether `{a, b}` is a candidate: both endpoints alive, and their
    /// states and link admit an effective transition.
    fn is_candidate(&self, a: usize, b: usize) -> bool {
        let link = Link::from(self.sp.is_active(a, b));
        self.alive[a]
            && self.alive[b]
            && self.machine.effect_table().can_affect(
                self.sp.state_index(a),
                self.sp.state_index(b),
                link,
            )
    }

    /// Appends the next cell of the arena at the tail of `u`'s list.
    fn push_cell(&mut self, u: usize) {
        let cell = self.partner_next.len() as u32;
        self.partner_next.push(NIL);
        let (head, tail) = &mut self.partner_ends[u];
        if *head == NIL {
            *head = cell;
        } else {
            self.partner_next[*tail as usize] = cell;
        }
        *tail = cell;
    }

    /// Swap-removes the entry at `pos` from the unscheduled candidate
    /// (`cand_list`) or non-candidate list, fixing the moved pair's
    /// mirrored position. Returns the removed pair's index.
    fn x_list_remove(&mut self, cand_list: bool, pos: usize) -> usize {
        let list = if cand_list { &mut self.x_c_u } else { &mut self.x_nc_u };
        let k = list.swap_remove(pos);
        if pos < list.len() {
            let moved = list[pos];
            self.xpairs[moved as usize].pos = pos as u32;
        }
        k as usize
    }

    /// Re-derives the candidacy of the explicit pair `{a, b}` after a
    /// state, edge, or liveness change at either endpoint.
    fn recompute_x(&mut self, a: usize, b: usize) {
        let k = *self.x.get(&pkey(a, b)).expect("explicit pair exists");
        self.recompute_pair(k as usize);
    }

    /// As [`recompute_x`](Self::recompute_x), for explicit pair `k`.
    fn recompute_pair(&mut self, k: usize) {
        let XPair { a, b, .. } = self.xpairs[k];
        let cand = self.is_candidate(a as usize, b as usize);
        let xp = &mut self.xpairs[k];
        if xp.cand == cand {
            return;
        }
        xp.cand = cand;
        if xp.sched {
            if cand {
                self.x_sched_cand += 1;
            } else {
                self.x_sched_cand -= 1;
            }
        } else {
            let pos = xp.pos as usize;
            let removed = self.x_list_remove(!cand, pos);
            debug_assert_eq!(removed, k);
            let list = if cand { &mut self.x_c_u } else { &mut self.x_nc_u };
            let npos = list.len() as u32;
            list.push(k as u32);
            self.xpairs[k].pos = npos;
        }
    }

    /// Re-derives the candidacy of every explicit pair at `u`, in the
    /// order the pairs became explicit. A reclassification moves pairs
    /// between the `x_c_u`/`x_nc_u` lists but never adds or drops one,
    /// so `u`'s partner list is walked in place.
    fn recompute_partners(&mut self, u: usize) {
        let mut cell = self.partner_ends[u].0;
        while cell != NIL {
            self.recompute_pair(cell as usize / 2);
            cell = self.partner_next[cell as usize];
        }
    }

    /// Swap-removes a promoted-urn list entry, fixing the moved urn's
    /// mirrored position.
    fn cand_list_remove(&mut self, q: usize, pos: usize) {
        self.cand_urns_by_class[q].swap_remove(pos);
        if pos < self.cand_urns_by_class[q].len() {
            let (_, moved) = self.cand_urns_by_class[q][pos];
            self.urns[moved as usize].cpos = pos as u32;
        }
    }

    /// Re-derives the candidacy of every cohort owned by `u` after a
    /// state or liveness change. Demotions park the cohort's count behind
    /// a fresh ledger cursor; promotions first settle the ledger debt and
    /// purge stale touched members, restoring the clean-urn invariant.
    fn update_urn_flags(&mut self, u: usize) {
        let (base, len) = self.urn_runs[u];
        for i in base as usize..(base + len) as usize {
            let q = usize::from(self.urns[i].class);
            let new_cand = self.alive[u]
                && self.machine.effect_table().can_affect(self.sp.state_index(u), q, Link::Off);
            if self.urns[i].cand == new_cand {
                continue;
            }
            if new_cand {
                self.resolve_urn(i);
                self.purge_urn(u, i);
                let urn = &mut self.urns[i];
                urn.cand = true;
                let (cnt, unc) = (urn.cnt, urn.unc);
                urn.cpos = self.cand_urns_by_class[q].len() as u32;
                self.cand_urns_by_class[q].push((u as u32, i as u32));
                debug_assert!(self.anon_nc_unc >= unc);
                self.anon_nc_unc -= unc;
                self.rows_avail += unc;
                self.cand_sched_urns += cnt - unc;
            } else {
                let cursor = self.log.len() as u32;
                let urn = &mut self.urns[i];
                urn.cand = false;
                urn.cursor = cursor;
                let (cnt, unc, cpos) = (urn.cnt, urn.unc, urn.cpos);
                self.rows_avail -= unc;
                self.cand_sched_urns -= cnt - unc;
                self.anon_nc_unc += unc;
                self.cand_list_remove(q, cpos as usize);
            }
        }
    }

    /// Forces every pair of `u` with a touched node whose current class
    /// can affect `u`'s to become explicit — touched×touched candidates
    /// never hide inside cohorts, which keeps stale NC urn members safe.
    fn tbucket_sup_scan(&mut self, u: usize) {
        let su = self.sp.state_index(u);
        for q2 in 0..self.nq {
            if !self.machine.effect_table().can_affect(su, q2, Link::Off) {
                continue;
            }
            if self.tbuckets[q2].is_empty() {
                continue;
            }
            // Pulls and explicit pairs never move a touched node, so the
            // bucket is walked in place.
            for i in 0..self.tbuckets[q2].len() {
                let t = self.tbuckets[q2][i] as usize;
                if t == u || self.x.contains_key(&pkey(t, u)) {
                    continue;
                }
                let unsched = self.locate_and_pull(t, u);
                self.insert_explicit(t, u, !unsched);
            }
        }
    }

    /// Applies a state transition to a touched alive node: moves its
    /// touched bucket, re-flags its cohorts and explicit pairs, and pulls
    /// any newly-candidate touched×touched pairs explicit. Reports
    /// whether the state changed.
    fn apply_state_change(&mut self, u: usize, new: usize) -> bool {
        let old = self.sp.state_index(u);
        if old == new {
            return false;
        }
        debug_assert!(self.touched[u] && self.alive[u]);
        self.tbucket_remove(u, old);
        self.sp.set_state_index(u, new);
        self.tbucket_insert(u, new);
        self.update_urn_flags(u);
        self.recompute_partners(u);
        self.tbucket_sup_scan(u);
        true
    }
}

// ---------------------------------------------------------------------
// The round clock (`driver::advance_rounds`) and its primitives.
// ---------------------------------------------------------------------
impl<M: EnumerableMachine> RoundBucketSim<M> {
    /// Runs until the next *candidate* draw and applies it, without
    /// taking the step count past `max_steps`. Identical contract to
    /// [`RoundSim::advance`](crate::RoundSim::advance): skipped
    /// non-candidates consume their round occurrences exactly, and the
    /// returned [`EventStep`] matches the naive ShuffledRounds loop in
    /// distribution draw for draw.
    pub(crate) fn advance(&mut self, max_steps: u64) -> EventStep {
        advance_rounds(self, max_steps)
    }

    /// Materializes bulk candidate number `idx` in sup-pair walk order:
    /// pick the class-pair stratum by cumulative weight, then uniform
    /// members within it.
    fn draw_bulk(&mut self, mut idx: u64) -> (usize, usize) {
        for pi in 0..self.sup_pairs.len() {
            let (q1, q2) = self.sup_pairs[pi];
            let (q1, q2) = (usize::from(q1), usize::from(q2));
            let c1 = self.ubuckets[q1].len() as u64;
            let w = if q1 == q2 {
                c1 * c1.saturating_sub(1) / 2
            } else {
                c1 * self.ubuckets[q2].len() as u64
            };
            if idx >= w {
                idx -= w;
                continue;
            }
            return if q1 == q2 {
                let i = self.rng.random_range(0..c1) as usize;
                let mut j = self.rng.random_range(0..c1 - 1) as usize;
                if j >= i {
                    j += 1;
                }
                (self.ubuckets[q1][i] as usize, self.ubuckets[q1][j] as usize)
            } else {
                let i = self.rng.random_range(0..c1) as usize;
                let c2 = self.ubuckets[q2].len() as u64;
                let j = self.rng.random_range(0..c2) as usize;
                (self.ubuckets[q1][i] as usize, self.ubuckets[q2][j] as usize)
            };
        }
        unreachable!("bulk index within bulk_total");
    }

    /// Materializes candidate-urn row number `idx`: pick the urn by its
    /// unscheduled weight, then a uniform member — exact because clean
    /// urns hold every untouched node of the class and the scheduled
    /// subset is exchangeable. Decrements the urn.
    fn draw_urn(&mut self, mut idx: u64) -> (usize, usize) {
        for q in 0..self.nq {
            for li in 0..self.cand_urns_by_class[q].len() {
                let (t, i) = self.cand_urns_by_class[q][li];
                let urn = &mut self.urns[i as usize];
                if idx >= urn.unc {
                    idx -= urn.unc;
                    continue;
                }
                debug_assert_eq!(urn.cnt, self.ubuckets[q].len() as u64, "candidate urns are clean");
                urn.cnt -= 1;
                urn.unc -= 1;
                self.rows_avail -= 1;
                let j = self.rng.random_range(0..self.ubuckets[q].len());
                return (t as usize, self.ubuckets[q][j] as usize);
            }
        }
        unreachable!("urn index within rows_avail");
    }
}

impl<M: EnumerableMachine> RoundPrimitives for RoundBucketSim<M> {
    fn round_len(&self) -> u64 {
        self.m
    }

    fn clock(&mut self) -> &mut u64 {
        &mut self.book.steps
    }

    /// Unscheduled candidates across all strata.
    fn avail(&self) -> u64 {
        self.bulk_total() + self.rows_avail + self.x_c_u.len() as u64
    }

    fn quiescent(&self) -> bool {
        self.avail() == 0 && self.x_sched_cand == 0 && self.cand_sched_urns == 0
    }

    #[inline]
    fn u01(&mut self) -> f64 {
        unit_open01(self.rng.next_u64())
    }

    /// Rebuilds the round partition at a round boundary. `pre_scheduled`
    /// is nonzero only when landing a quiescent jump mid-round: that many
    /// pool pairs are already consumed (a uniform subset — exact, because
    /// under quiescence no draw is effective and the bulk is empty, so
    /// the landed round's history is exchangeable).
    fn start_round(&mut self, pre_scheduled: u64) {
        for q in 0..self.nq {
            self.ubuckets[q].clear();
            self.tbuckets[q].clear();
            self.touch_log[q].clear();
            self.cand_urns_by_class[q].clear();
        }
        self.urns.clear();
        self.log.clear();
        for p in &self.xpairs {
            self.partner_ends[p.a as usize] = (NIL, NIL);
            self.partner_ends[p.b as usize] = (NIL, NIL);
        }
        self.xpairs.clear();
        self.partner_next.clear();
        self.x.clear();
        self.x_c_u.clear();
        self.x_nc_u.clear();
        self.x_sched_cand = 0;
        self.rows_avail = 0;
        self.cand_sched_urns = 0;
        self.seq_next = 1;
        let n = self.sp.n();
        for u in 0..n {
            self.rs_class[u] = self.sp.state_index(u) as u16;
            self.touched[u] = !self.alive[u];
            self.reset_dead[u] = !self.alive[u];
            self.tseq[u] = 0;
            self.urn_runs[u] = (0, 0);
            if self.alive[u] {
                let q = usize::from(self.rs_class[u]);
                self.upos[u] = self.ubuckets[q].len() as u32;
                self.ubuckets[q].push(u as u32);
            }
        }
        // A quiescent landing re-anchors every pair in the anonymous
        // pool: under quiescence every pair is certainly ineffective —
        // including active edges whose *class* pair is Off-effective (a
        // stable FT-star's spokes) — so the elapsed prefix is a uniform
        // subset of all `m` pairs, and the bulk strata (which assume
        // never-skip-consumed pairs) must stay out of play for the whole
        // landed round.
        self.pool_round = pre_scheduled > 0;
        if self.pool_round {
            self.pool_cnt = self.m;
        } else {
            self.pool_cnt = self.m - self.bulk_total();
        }
        self.pool_unc = self.pool_cnt - pre_scheduled;
        self.pool_cursor = 0;
        self.anon_nc_unc = self.pool_unc;
        // Active edges become explicit pairs, in canonical ascending
        // order. At a plain reset every pull takes a fast path (nothing
        // is scheduled yet), so this consumes no coins; at a quiescent
        // landing the pulls draw each pair's scheduled status from the
        // pool marginals.
        let mut nbrs = std::mem::take(&mut self.nbrs);
        for u in 0..n {
            nbrs.clear();
            nbrs.extend(self.sp.neighbors(u).filter(|&w| w > u));
            nbrs.sort_unstable();
            for &w in &nbrs {
                self.ensure_touched(u);
                self.ensure_touched(w);
                // When the owner's urn over w's class is a candidate urn
                // (the edge spans an Off-link-effective class pair),
                // touching w already extracted this pair eagerly.
                if self.x.contains_key(&pkey(u, w)) {
                    continue;
                }
                let unsched = self.locate_and_pull(u, w);
                self.insert_explicit(u, w, !unsched);
            }
        }
        self.nbrs = nbrs;
        debug_assert!(self.pool_invariant_holds());
        // A quiescent landing must leave the engine quiescent: every
        // extracted pair is ineffective and no candidate member can
        // survive the extraction loop (an untouched candidate would be a
        // genuinely effective pair, contradicting quiescence).
        debug_assert!(pre_scheduled == 0 || self.is_quiescent());
    }

    /// Consumes `t` skipped occurrences: splits them between the explicit
    /// non-candidates (resolved pair by pair) and the anonymous mass
    /// (recorded as one ledger batch).
    fn schedule_skips(&mut self, t: u64) {
        if t == 0 {
            return;
        }
        let bx = self.x_nc_u.len() as u64;
        debug_assert!(t <= bx + self.anon_nc_unc);
        let from_x = if bx == 0 {
            0
        } else if t == bx + self.anon_nc_unc {
            bx
        } else {
            let u = self.u01();
            hypergeometric_count_large(u, bx, bx + self.anon_nc_unc, t)
        };
        for _ in 0..from_x {
            let i = self.rng.random_range(0..self.x_nc_u.len());
            let k = self.x_list_remove(false, i);
            self.xpairs[k].sched = true;
        }
        let h = t - from_x;
        if h > 0 {
            self.log.push(LogEntry {
                u_rem: self.anon_nc_unc,
                h_rem: h,
            });
            self.anon_nc_unc -= h;
        }
    }

    /// Draws the candidate uniformly across the three unscheduled-
    /// candidate strata (bulk products, candidate-urn rows, explicit
    /// pairs), materializes it, and applies the interaction.
    fn apply_candidate(&mut self, skipped: u64, k: u64) -> EventStep {
        debug_assert!(k > 0);
        // Skips never touch the candidate strata, so the bulk is what the
        // skip's `k` leaves of them.
        let bulk = k - self.rows_avail - self.x_c_u.len() as u64;
        debug_assert_eq!(bulk, self.bulk_total());
        let mut idx = self.rng.random_range(0..k);
        let (a, b) = if idx < bulk {
            let (a, b) = self.draw_bulk(idx);
            // Both endpoints leave the untouched buckets before any urn
            // freezes or eager extraction runs, so the drawn pair is
            // claimed exactly once.
            self.pre_mark(a);
            self.pre_mark(b);
            self.insert_explicit(a, b, true);
            self.finish_touch(a);
            self.finish_touch(b);
            (a.min(b), a.max(b))
        } else {
            idx -= bulk;
            if idx < self.rows_avail {
                let (t, w) = self.draw_urn(idx);
                self.pre_mark(w);
                self.insert_explicit(t, w, true);
                self.finish_touch(w);
                (t.min(w), t.max(w))
            } else {
                let k = self.x_list_remove(true, (idx - self.rows_avail) as usize);
                let xp = &mut self.xpairs[k];
                xp.sched = true;
                self.x_sched_cand += 1;
                (xp.a as usize, xp.b as usize)
            }
        };
        let link = Link::from(self.sp.is_active(a, b));
        let outcome = self.machine.interact_indexed(
            self.sp.state_index(a),
            self.sp.state_index(b),
            link,
            &mut self.rng,
        );
        let pair = (a, b);
        let Some((a2, b2, l2)) = outcome else {
            if self.book.steps.is_multiple_of(self.m) {
                self.start_round(0);
            }
            debug_assert!(self.pool_invariant_holds());
            return EventStep::Candidate {
                skipped,
                result: StepResult::Ineffective { pair },
            };
        };
        let edge_changed = l2 != link;
        if edge_changed {
            self.sp.set_edge(a, b, l2.is_on());
        }
        self.book.record_effective(edge_changed);
        if self.book.steps.is_multiple_of(self.m) {
            // The candidate landed on the round boundary: apply the
            // state writes directly and let the reset rebuild everything.
            self.sp.set_state_index(a, a2);
            self.sp.set_state_index(b, b2);
            self.start_round(0);
        } else {
            let a_moved = self.apply_state_change(a, a2);
            let b_moved = self.apply_state_change(b, b2);
            // A partner walk that ran last saw the pair's final states
            // and link; a link-only step needs this one re-derivation.
            if !a_moved && !b_moved {
                self.recompute_x(a, b);
            }
        }
        debug_assert!(self.pool_invariant_holds());
        EventStep::Candidate {
            skipped,
            result: StepResult::Effective { pair, edge_changed },
        }
    }
}

// ---------------------------------------------------------------------
// Run loops (predicates over the sparse view) and the fault layer.
// ---------------------------------------------------------------------
impl<M: EnumerableMachine> Primitives for RoundBucketSim<M> {
    type Machine = M;

    fn advance(&mut self, max_steps: u64) -> EventStep {
        RoundBucketSim::advance(self, max_steps)
    }

    fn book(&self) -> Bookkeeping {
        self.book
    }

    fn idle_to(&mut self, target: u64) {
        idle_rounds_to(self, target);
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

    // Faults reclassify exactly the cohorts and explicit pairs whose
    // effectiveness flipped. The draw space stays frozen at the capacity:
    // dead pairs keep consuming their round occurrences as anonymous
    // non-candidates, so the pool does *not* shrink on a crash and
    // `pool_invariant_holds` is preserved.
    fn retire(&mut self, x: usize) -> Vec<usize> {
        // Touch x first (it may still be anonymous), then flip every
        // structure that keys on its liveness: its cohorts all demote to
        // non-candidates, its explicit pairs all turn ineffective, and
        // its untouched pairs stop being counted (x leaves the touched
        // buckets; its urn rows were just demoted).
        self.ensure_touched(x);
        self.alive[x] = false;
        self.tbucket_remove(x, self.sp.state_index(x));
        self.sp.bucket_remove(x);
        self.update_urn_flags(x);
        self.recompute_partners(x);
        // Drop x's active edges (explicit pairs by invariant).
        let mut neighbors: Vec<usize> = self.sp.neighbors(x).collect();
        neighbors.sort_unstable();
        for &w in &neighbors {
            self.deactivate_edge(x, w);
        }
        neighbors
    }

    /// The ghost was born touched; it joins as a live node with fresh
    /// pool-sourced cohorts over the untouched classes. `reset_dead`
    /// stays set: pairs owned by earlier-touched nodes were never in
    /// their urns (x was dead then) and keep resolving against the pool.
    fn readmit(&mut self, x: usize) {
        debug_assert!(!self.alive[x] && self.touched[x] && self.reset_dead[x]);
        self.alive[x] = true;
        self.sp.bucket_insert(x);
        let q = self.sp.state_index(x);
        self.rs_class[x] = q as u16;
        self.tseq[x] = self.seq_next;
        self.seq_next += 1;
        self.tbucket_insert(x, q);
        self.make_urns(x, true);
        self.tbucket_sup_scan(x);
    }

    fn set_state_index(&mut self, u: usize, q: usize) {
        self.ensure_touched(u);
        self.apply_state_change(u, q);
    }

    /// The one affected pair is explicit by the active-edge invariant.
    fn deactivate_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.sp.is_active(u, v) {
            return false;
        }
        self.sp.set_edge(u, v, false);
        self.recompute_x(u, v);
        true
    }

    fn record_fault_edges(&mut self, k: usize) {
        self.book.record_edge_changes(k);
    }

    fn after_fault(&mut self) {
        debug_assert!(self.pool_invariant_holds());
    }
}

impl<M: EnumerableMachine> ExactEngine for RoundBucketSim<M> {
    type Config = SparsePop;

    fn config(&self) -> &SparsePop {
        &self.sp
    }
}

impl<M: EnumerableMachine> RoundEngine for RoundBucketSim<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::contract::{self, Arm};
    use crate::RunOutcome;
    use crate::{CompiledTable, ProtocolBuilder, RoundSim};

    const OFF: Link = Link::Off;
    const ON: Link = Link::On;

    fn matching_protocol() -> CompiledTable {
        let mut b = ProtocolBuilder::new("matching");
        let a = b.state("a");
        let m = b.state("b");
        b.rule((a, a, OFF), (m, m, ON));
        b.build().expect("valid").compile()
    }

    /// Match in one round, dissolve each matched edge at its next
    /// occurrence: converges in exactly two rounds under any box
    /// schedule (see the workspace-level regression test).
    fn dissolve_protocol() -> CompiledTable {
        let mut b = ProtocolBuilder::new("dissolve");
        let a = b.state("a");
        let m = b.state("b");
        let d = b.state("c");
        b.rule((a, a, OFF), (m, m, ON));
        b.rule((m, m, ON), (d, d, OFF));
        b.build().expect("valid").compile()
    }

    #[test]
    fn matching_converges_in_round_one() {
        for seed in 0..20 {
            let mut sim = RoundBucketSim::new(matching_protocol(), 20, seed);
            let out = sim.run_until_edges(|sp| sp.active_count() == 10, 10_000);
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            // Every (a, a) pair occurs within round 1, so no two nodes
            // can both survive it unmatched.
            assert!(sim.steps() <= sim.pairs_per_round(), "seed {seed}");
            assert_eq!(sim.last_output_change_round(), 1, "seed {seed}");
            assert_eq!(sim.effective_steps(), 10);
            assert!(sim.is_quiescent());
        }
    }

    #[test]
    fn dissolve_takes_exactly_two_rounds() {
        // n even: round 1 matches everyone (any two unmatched nodes
        // would have matched when their pair came up), and each matched
        // pair recurs exactly once in round 2, where it dissolves. The
        // convergence round is therefore deterministically 2.
        let p = dissolve_protocol();
        let d = p.state("c").expect("dissolved state exists");
        let di = d.index();
        for seed in 0..20 {
            let mut sim = RoundBucketSim::new(p.clone(), 12, 100 + seed);
            let out = sim.run_until_edges(
                |sp| sp.count_index(di) == sp.n() && sp.active_count() == 0,
                200_000,
            );
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            let converged = out.converged_at().expect("stabilized");
            assert_eq!(sim.round_of(converged), 2, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut sim = RoundBucketSim::new(matching_protocol(), 16, seed);
            let out = sim.run_until_edges(|sp| sp.active_count() == 8, 100_000);
            (out, sim.steps(), sim.edge_events(), sim.rounds_completed())
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).0.stabilized());
    }

    #[test]
    fn budget_is_respected_exactly_and_resumes() {
        // Budget exactness is the shared driver contract; here a stop
        // mid-round (a round is 1225 draws) resumes into a completing run.
        let mut sim = RoundBucketSim::new(matching_protocol(), 50, 3);
        sim.run_to(1_000);
        assert!(sim.pool_invariant_holds());
        let out = sim.run_until_edges(|sp| sp.active_count() == 25, u64::MAX);
        assert!(out.stabilized());
    }

    // This engine's row of the shared driver-contract table; the
    // whole table, naive reference included, runs in `driver::tests`.
    #[test]
    fn quiescent_unstable_returns_budget_immediately() {
        contract::quiescent_unstable_returns_budget(Arm::RoundBucket);
    }

    #[test]
    fn quiescence_after_convergence_jumps_to_target() {
        // The jump is the shared driver contract; the round partition must
        // survive it, landing mid-round.
        let mut sim = RoundBucketSim::new(matching_protocol(), 10, 5);
        sim.run_until_edges(|sp| sp.active_count() == 5, u64::MAX);
        sim.run_to(sim.steps() + 1_000_007);
        assert!(sim.pool_invariant_holds());
    }

    #[test]
    fn round_bookkeeping_is_consistent() {
        let mut sim = RoundBucketSim::new(dissolve_protocol(), 10, 77);
        let m = sim.pairs_per_round();
        assert_eq!(m, 45);
        sim.run_to(3 * m + 7);
        assert_eq!(sim.rounds_completed(), 3);
        assert_eq!(sim.round_of(0), 0);
        assert_eq!(sim.round_of(1), 1);
        assert_eq!(sim.round_of(m), 1);
        assert_eq!(sim.round_of(m + 1), 2);
        assert!(sim.last_output_change_round() <= sim.round_of(sim.steps()));
    }

    #[test]
    fn tracks_dense_round_engine_on_average() {
        // Cheap smoke check of the exactness argument (the full paired
        // statistical tests live in the workspace-level suite): mean
        // converged_at against RoundSim over matched trial counts.
        let trials = 60;
        let mean = |sparse: bool| -> f64 {
            (0..trials)
                .map(|seed| {
                    let out = if sparse {
                        RoundBucketSim::new(matching_protocol(), 12, 1000 + seed)
                            .run_until_edges(|sp| sp.active_count() == 6, u64::MAX)
                    } else {
                        RoundSim::new(matching_protocol(), 12, 2000 + seed).run_until_edges(
                            |p| p.edges().active_count() == 6,
                            u64::MAX,
                        )
                    };
                    out.converged_at().expect("stabilizes") as f64
                })
                .sum::<f64>()
                / f64::from(trials as u32)
        };
        let (s, d) = (mean(true), mean(false));
        assert!(
            (s - d).abs() / d < 0.35,
            "sparse-round {s:.1} vs dense-round {d:.1} means too far apart"
        );
    }

    #[test]
    fn randomized_identity_candidates_count_as_real_steps() {
        // (a, b, 0) → ½ identity, ½ swap: candidates may resolve
        // ineffective; each consumes its occurrence in the round.
        let mut b = ProtocolBuilder::new("lazy-swap");
        let a = b.state("a");
        let c = b.state("b");
        b.initial(a);
        b.rule_random((a, c, OFF), [(1, (a, c, OFF)), (1, (c, a, OFF))]);
        let p = b.build().expect("valid");
        let mut pop = Population::new(4, a);
        pop.set_state(0, c);
        let mut sim = RoundBucketSim::from_population(p.compile(), pop, 11);
        let mut saw_ineffective = false;
        for _ in 0..200 {
            match sim.advance(u64::MAX) {
                EventStep::Candidate {
                    result: StepResult::Ineffective { .. },
                    ..
                } => saw_ineffective = true,
                EventStep::Quiescent => panic!("lazy-swap never quiesces"),
                _ => {}
            }
        }
        assert!(saw_ineffective, "identity branch should occur in 200 draws");
        assert!(sim.steps() >= 200);
    }

    #[test]
    fn initial_configuration_can_be_stable() {
        let mut sim = RoundBucketSim::new(matching_protocol(), 6, 2);
        let out = sim.run_until(|_| true, 10);
        assert_eq!(
            out,
            RunOutcome::Stabilized {
                detected_at: 0,
                converged_at: 0,
                last_effective: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_population_rejected() {
        let _ = RoundBucketSim::new(matching_protocol(), 1, 0);
    }

    #[test]
    fn pool_invariant_survives_fault_events() {
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(4)
            .at(10, FaultEvent::CrashRandom)
            .at(25, FaultEvent::Arrive)
            .at(40, FaultEvent::DeleteRandomActiveEdges(1));
        let mut sim = RoundBucketSim::new_faulted(dissolve_protocol(), 10, 17, plan);
        assert!(sim.pool_invariant_holds());
        for target in [10, 25, 40, 70, 200] {
            sim.run_faulted_to(target);
            assert!(sim.pool_invariant_holds(), "after step {target}");
        }
        let fs = sim.fault_state().expect("faulted");
        assert_eq!(fs.alive_count(), 10);
        assert_eq!(fs.capacity(), 11);
    }

    #[test]
    fn faulted_matching_still_completes_in_round_one() {
        // A crash at t = 0 leaves 8 live `a` nodes (plus one ghost):
        // every live (a, a) pair still occurs within round 1, so the
        // matching among the living is maximal by the round's end.
        for seed in 0..10 {
            use crate::fault::{FaultEvent, FaultPlan};
            let plan = FaultPlan::new(seed).at(0, FaultEvent::CrashRandom);
            let mut sim = RoundBucketSim::new_faulted(matching_protocol(), 9, 300 + seed, plan);
            let out = sim.run_faulted_until(|sp, _| sp.active_count() == 4, 1_000_000);
            assert!(out.stabilized(), "seed {seed}: {out:?}");
            assert_eq!(sim.last_output_change_round(), 1, "seed {seed}");
            assert!(sim.pool_invariant_holds());
        }
    }

    /// `approx_mem_bytes` of a completed matching at n = 100 000, seed 0.
    const MATCHING_100K_MEM: u64 = 16_188_080;

    #[test]
    fn memory_stays_far_below_the_dense_round_engine() {
        let n = 4096;
        let mut sim = RoundBucketSim::new(matching_protocol(), n, 0);
        sim.run_until_edges(|sp| sp.active_count() == n / 2, u64::MAX);
        let measured = sim.approx_mem_bytes();
        let dense = RoundSim::<CompiledTable>::dense_mem_estimate(n);
        assert!(
            measured * 20 < dense,
            "sparse {measured} bytes should be well under dense {dense}"
        );
        let n = 100_000;
        let mut sim = RoundBucketSim::new(matching_protocol(), n, 0);
        sim.run_until_edges(|sp| sp.active_count() == n / 2, u64::MAX);
        let measured = sim.approx_mem_bytes();
        assert!(
            measured <= MATCHING_100K_MEM,
            "{measured} bytes at n = {n}, above the recorded {MATCHING_100K_MEM}"
        );
    }

    #[test]
    fn round_arenas_stay_consistent_with_several_cohorts_per_node() {
        // Round 1 matches in state `b`, so from round 2 on the round-start
        // classes are mixed and a node touched early owns one cohort per
        // class; crashes, arrivals and edge deletions land mid-round.
        use crate::fault::{FaultEvent, FaultPlan};
        let plan = FaultPlan::new(8)
            .at(30, FaultEvent::CrashRandom)
            .at(130, FaultEvent::Arrive)
            .at(150, FaultEvent::DeleteRandomActiveEdges(2))
            .at(240, FaultEvent::Arrive);
        let mut sim = RoundBucketSim::new_faulted(dissolve_protocol(), 14, 5, plan);
        let mut widest = 0;
        for target in (0..400).step_by(7) {
            sim.run_faulted_to(target);
            assert!(sim.round_arenas_consistent(), "at step {target}");
            assert!(sim.pool_invariant_holds(), "at step {target}");
            widest = widest.max(sim.urn_runs.iter().map(|r| r.1).max().unwrap_or(0));
        }
        assert!(widest >= 2, "no node owned two cohorts");
    }

    #[test]
    fn matching_at_one_hundred_thousand_nodes() {
        // The n = 100k frontier the dense round engine cannot touch
        // (≈ 130 GB): one round of draws, O(n) memory, still exact.
        let n = 100_000;
        let mut sim = RoundBucketSim::new(matching_protocol(), n, 42);
        let out = sim.run_until_edges(|sp| sp.active_count() == n / 2, u64::MAX);
        assert!(out.stabilized(), "{out:?}");
        assert_eq!(sim.last_output_change_round(), 1);
        assert_eq!(sim.effective_steps(), n as u64 / 2);
        assert!(sim.is_quiescent());
    }
}
