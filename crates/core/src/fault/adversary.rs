//! Configuration-**adaptive** adversaries: deterministic worst-case
//! damage scheduled at draw-indexed *decision draws*.
//!
//! The oblivious fault layer ([`FaultPlan`](crate::FaultPlan) events,
//! [`ChurnPlan`](crate::ChurnPlan) streams) resolves all of its
//! randomness from the plan alone — a random crash almost never hits
//! Global-Star's centre. A worst-case adversary always does. An
//! [`AdversaryPlan`] closes that gap: it schedules decision draws (a
//! [`Cadence`]), and at each one a pure [`AdversaryPolicy`] inspects
//! the live configuration — alive flags, node states, active
//! adjacency — and emits targeted damage, compiled on the spot into
//! the same `ResolvedFault`s the oblivious path uses. The draw space
//! never resizes, so every skip-law denominator stays fixed.
//!
//! # Why adaptivity preserves exactness
//!
//! A policy is a *pure, coin-free* function of the configuration at its
//! decision draw (plus the plan's own bookkeeping): ties break to the
//! lowest node id, and the damage compiles into the same resolved-fault
//! path as scheduled events, so the draw space and every skip-law
//! denominator stay fixed. Within one engine an adaptive run is
//! therefore exactly as deterministic as a scheduled one — stop/resume
//! at any [`FaultPlan::boundary_times`](super::FaultPlan::boundary_times)
//! boundary is coin-for-coin identical. *Across* engines the guarantee
//! is distributional: different skip laws spend different numbers of
//! coins reaching the same draw index, so the policy generally sees
//! different (equally lawful) configurations per engine and the damage
//! agrees in law rather than identity — the same contract as
//! [`FaultEvent::DeleteRandomActiveEdges`](super::FaultEvent::DeleteRandomActiveEdges).
//!
//! The resolver reads the live configuration in place, through a
//! crate-private `LiveConfig` interface that every engine's view and
//! the naive loop's population answer: a node's degree, its dense state
//! index, and its neighbours in ascending order. Nothing it asks
//! depends on an engine's internal order — degrees and state indices
//! are order-free, neighbour rows come sorted (the sparse rows are
//! sorted on the way out), and every tie breaks on node ids — so the
//! policy never sees engine-internal iteration order. A decision takes
//! no copy of the configuration: its working state lives in scratch the
//! fault state keeps between decisions — alive flags and a degree per
//! node, refilled in place, and a sorted adjacency built only when a
//! cutting policy needs one.
//!
//! Within one decision draw, policies run in plan order against the
//! configuration *at* the draw: each strike sees it minus the nodes and
//! edges already damaged this decision, but not any crash-notification
//! state changes (those land when the engine applies the damage,
//! identically everywhere).

use super::ResolvedFault;

/// When an adversary gets to act: the schedule of decision draws.
///
/// Decision times are a pure function of the decision index, so the
/// full schedule is enumerable up front ([`Cadence::times`]) — which
/// is what lets availability analyses window a run at its decision
/// boundaries without executing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cadence {
    /// Decisions at `start, start + every, start + 2·every, …`,
    /// `count` in total. An `every` of 0 is treated as 1.
    Periodic {
        /// Draw index of the first decision.
        start: u64,
        /// Gap between consecutive decisions (clamped to ≥ 1).
        every: u64,
        /// Total number of decisions.
        count: u32,
    },
    /// Decisions at an explicit, sorted list of draw indices. Build
    /// via [`Cadence::burst`], which sorts.
    Burst(Vec<u64>),
    /// An accelerating schedule: the first gap is `first_gap`, each
    /// subsequent gap halves, floored at `min_gap` (clamped to ≥ 1) —
    /// an adversary that probes, then hammers.
    Ramp {
        /// Draw index of the first decision.
        start: u64,
        /// Gap after the first decision.
        first_gap: u64,
        /// Smallest gap the halving is floored at (clamped to ≥ 1).
        min_gap: u64,
        /// Total number of decisions.
        count: u32,
    },
}

impl Cadence {
    /// A [`Cadence::Burst`] from an arbitrarily-ordered time list
    /// (sorted here, so the schedule is always monotone).
    #[must_use]
    pub fn burst(mut times: Vec<u64>) -> Self {
        times.sort_unstable();
        Self::Burst(times)
    }

    /// The draw index of decision `k`, or `None` past the schedule.
    /// Pure in `k` — the basis of the decision-draw determinism
    /// argument (see the [module docs](self)).
    #[must_use]
    pub fn decision_time(&self, k: u32) -> Option<u64> {
        match self {
            Self::Periodic { start, every, count } => (k < *count)
                .then(|| start.saturating_add((*every).max(1).saturating_mul(u64::from(k)))),
            Self::Burst(times) => times.get(k as usize).copied(),
            Self::Ramp {
                start,
                first_gap,
                min_gap,
                count,
            } => {
                if k >= *count {
                    return None;
                }
                let floor = (*min_gap).max(1);
                let mut t = *start;
                let mut gap = (*first_gap).max(floor);
                for _ in 0..k {
                    t = t.saturating_add(gap);
                    gap = (gap / 2).max(floor);
                }
                Some(t)
            }
        }
    }

    /// The total number of scheduled decisions.
    #[must_use]
    pub fn count(&self) -> u32 {
        match self {
            Self::Periodic { count, .. } | Self::Ramp { count, .. } => *count,
            Self::Burst(times) => u32::try_from(times.len()).unwrap_or(u32::MAX),
        }
    }

    /// Every scheduled decision time, in order.
    #[must_use]
    pub fn times(&self) -> Vec<u64> {
        (0..self.count()).filter_map(|k| self.decision_time(k)).collect()
    }
}

/// What an adversary does at a decision draw: a pure function of the
/// normalized configuration. All targeting is deterministic — ties
/// break toward the lowest node id (or lexicographically smallest
/// edge), so the same configuration always yields the same damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryPolicy {
    /// Crash the alive node with the most active edges (lowest id on
    /// ties) — always finds Global-Star's centre, where
    /// `CrashRandom` almost never does.
    CrashMaxDegree,
    /// Crash the lowest-id alive node whose dense state index is `q`
    /// (e.g. the unique leader); no-op if none exists.
    CrashState(usize),
    /// Delete the bridge of the alive active graph whose removal
    /// splits off the largest minority side (smallest edge on ties);
    /// no-op if the graph has no bridge.
    CutBridge,
    /// Delete *every* active edge of the lowest-id alive node whose
    /// dense state index is `q` — severing a line protocol exactly at
    /// its walking leader; no-op if no such node exists.
    CutAtWalker(usize),
}

/// A deterministic, configuration-adaptive damage schedule: a
/// [`Cadence`] of decision draws, an ordered list of
/// [`AdversaryPolicy`] strikes per decision, and optional global
/// limits (a total damage `budget`, a `min_alive` crash floor).
///
/// Attach to a [`FaultPlan`](crate::FaultPlan) via
/// [`FaultPlan::with_adversary`](crate::FaultPlan::with_adversary);
/// every faulted engine then pauses at each decision draw, resolves the
/// policies against its live configuration (no copy is taken), and
/// applies the plan's damage through the ordinary resolved-fault path.
///
/// # Example
///
/// ```
/// use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence, FaultPlan};
///
/// let adv = AdversaryPlan::new(Cadence::Periodic { start: 5_000, every: 5_000, count: 4 })
///     .policy(AdversaryPolicy::CrashMaxDegree)
///     .budget(3)
///     .min_alive(6);
/// assert_eq!(adv.decision_times(), vec![5_000, 10_000, 15_000, 20_000]);
/// let plan = FaultPlan::new(7).with_adversary(adv);
/// assert!(plan.adversary().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryPlan {
    cadence: Cadence,
    policies: Vec<AdversaryPolicy>,
    budget: Option<u64>,
    min_alive: Option<usize>,
}

impl AdversaryPlan {
    /// An adversary acting at `cadence`'s decision draws, initially
    /// with no policies (add them with [`policy`](Self::policy)).
    #[must_use]
    pub fn new(cadence: Cadence) -> Self {
        Self {
            cadence,
            policies: Vec::new(),
            budget: None,
            min_alive: None,
        }
    }

    /// Appends a policy, executed in insertion order at every
    /// decision draw (builder style).
    #[must_use]
    pub fn policy(mut self, p: AdversaryPolicy) -> Self {
        self.policies.push(p);
        self
    }

    /// Caps the *total* damage across the whole run: each crash and
    /// each edge deletion costs 1. Once spent, remaining decisions
    /// are cancelled (they stop appearing as pending fault times).
    #[must_use]
    pub fn budget(mut self, total: u64) -> Self {
        self.budget = Some(total);
        self
    }

    /// Refuses crashes that would take the alive count to or below
    /// `floor` (edge deletions are not affected). Combines with the
    /// plan-level floor of
    /// [`FaultPlan::with_min_alive`](crate::FaultPlan::with_min_alive)
    /// by maximum.
    #[must_use]
    pub fn min_alive(mut self, floor: usize) -> Self {
        self.min_alive = Some(floor);
        self
    }

    /// The decision-draw schedule.
    #[must_use]
    pub fn cadence(&self) -> &Cadence {
        &self.cadence
    }

    /// The per-decision strikes, in execution order.
    #[must_use]
    pub fn policies(&self) -> &[AdversaryPolicy] {
        &self.policies
    }

    /// The total damage budget, if capped.
    #[must_use]
    pub fn budget_limit(&self) -> Option<u64> {
        self.budget
    }

    /// Every scheduled decision time, in order — what availability
    /// analyses merge into their window boundaries.
    #[must_use]
    pub fn decision_times(&self) -> Vec<u64> {
        self.cadence.times()
    }
}

/// What an adversary decision reads of the live configuration. The
/// skip engines answer through their [`EngineView`](crate::EngineView),
/// the naive loop through its [`Population`](crate::Population).
///
/// Crashed and not-yet-arrived nodes hold no active edge in any engine,
/// so an alive node's degree counts alive neighbours only.
pub(crate) trait LiveConfig {
    /// The draw-space size (the capacity when faulted).
    fn n(&self) -> usize;

    /// The active degree of node `u`.
    fn degree(&self, u: usize) -> usize;

    /// The dense state index of node `u`.
    fn state_index(&self, u: usize) -> usize;

    /// Replaces `out` with the active neighbours of node `u`, in
    /// ascending order.
    fn neighbors_ascending(&self, u: usize, out: &mut Vec<usize>);
}

/// The working state of one decision, kept by the fault state between
/// decisions so that a warm decision reuses its buffers. Its contents
/// mean nothing outside a decision: a clone starts empty.
#[derive(Debug, Default)]
pub(crate) struct DecisionScratch {
    /// Alive flags, as this decision's crashes land.
    alive: Vec<bool>,
    /// The degree of every node, as this decision's crashes and cuts
    /// land (0 once crashed).
    deg: Vec<usize>,
    /// Sorted adjacency of the alive nodes, built at this decision's
    /// first cutting policy and kept up to date from there.
    adj: Vec<Vec<usize>>,
    /// Whether `adj` holds this decision's adjacency.
    adj_built: bool,
    /// One neighbour row read off the configuration.
    row: Vec<usize>,
}

impl Clone for DecisionScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl DecisionScratch {
    /// Loads the configuration at the decision draw: the alive flags and
    /// every node's degree. The adjacency waits for a cutting policy.
    fn load(&mut self, cfg: &impl LiveConfig, alive: &[bool]) {
        self.alive.clear();
        self.alive.extend_from_slice(alive);
        self.deg.clear();
        self.deg.extend((0..cfg.n()).map(|u| {
            debug_assert!(
                alive[u] || cfg.degree(u) == 0,
                "dead node {u} holds an active edge"
            );
            cfg.degree(u)
        }));
        self.adj_built = false;
    }

    /// Builds the sorted adjacency of the nodes alive now. Only crashes
    /// precede the first build (cuts build it first), so the
    /// configuration's rows restricted to alive nodes are exact.
    fn build_adj(&mut self, cfg: &impl LiveConfig) {
        if self.adj_built {
            return;
        }
        let n = cfg.n();
        self.adj.resize_with(n, Vec::new);
        for (u, list) in self.adj.iter_mut().enumerate() {
            list.clear();
            if self.alive[u] {
                cfg.neighbors_ascending(u, list);
                list.retain(|&v| self.alive[v]);
            }
        }
        self.adj_built = true;
    }

    /// Crashes node `x`: its alive neighbours each lose a degree.
    fn crash(&mut self, cfg: &impl LiveConfig, x: usize) {
        self.alive[x] = false;
        self.deg[x] = 0;
        if self.adj_built {
            for i in 0..self.adj[x].len() {
                let v = self.adj[x][i];
                self.adj[v].retain(|&w| w != x);
                self.deg[v] -= 1;
            }
            self.adj[x].clear();
        } else {
            cfg.neighbors_ascending(x, &mut self.row);
            for &v in &self.row {
                if self.alive[v] {
                    self.deg[v] -= 1;
                }
            }
        }
    }

    /// Cuts the edge `{u, v}` of the built adjacency.
    fn cut(&mut self, u: usize, v: usize) {
        self.adj[u].retain(|&w| w != v);
        self.adj[v].retain(|&w| w != u);
        self.deg[u] -= 1;
        self.deg[v] -= 1;
    }

    /// The lowest-id alive node in state index `q`.
    fn first_in_state(&self, cfg: &impl LiveConfig, q: usize) -> Option<usize> {
        (0..self.alive.len()).find(|&u| self.alive[u] && cfg.state_index(u) == q)
    }
}

/// Executes one decision: runs `plan`'s policies in order against the
/// live configuration `cfg`, restricted to the `alive` nodes
/// (`alive_count` of them), as each strike's damage lands in the
/// decision's scratch `s`. Returns the damage in application order plus
/// the budget spent (1 per crash or edge deletion, capped at
/// `budget_left`). The caller flips the alive flags of the crashes it
/// returns (mirroring `FaultState::resolve_next`'s contract).
pub(crate) fn resolve_decision(
    plan: &AdversaryPlan,
    cfg: &impl LiveConfig,
    alive: &[bool],
    mut alive_count: usize,
    extra_floor: Option<usize>,
    budget_left: u64,
    s: &mut DecisionScratch,
) -> (Vec<ResolvedFault>, u64) {
    let floor = match (plan.min_alive, extra_floor) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    s.load(cfg, alive);
    let mut out = Vec::new();
    let mut spent = 0u64;
    for &p in &plan.policies {
        if spent >= budget_left {
            break;
        }
        let crash_blocked = floor.is_some_and(|f| alive_count <= f);
        match p {
            AdversaryPolicy::CrashMaxDegree | AdversaryPolicy::CrashState(_) => {
                if crash_blocked {
                    continue;
                }
                let victim = match p {
                    AdversaryPolicy::CrashState(q) => s.first_in_state(cfg, q),
                    _ => (0..s.alive.len())
                        .filter(|&u| s.alive[u])
                        .max_by_key(|&u| (s.deg[u], std::cmp::Reverse(u))),
                };
                let Some(x) = victim else {
                    continue;
                };
                s.crash(cfg, x);
                alive_count -= 1;
                out.push(ResolvedFault::Crash(x));
                spent += 1;
            }
            AdversaryPolicy::CutBridge => {
                s.build_adj(cfg);
                let Some((u, v)) = best_bridge(&s.adj, &s.alive) else {
                    continue;
                };
                s.cut(u, v);
                out.push(ResolvedFault::DeleteEdge(u, v));
                spent += 1;
            }
            AdversaryPolicy::CutAtWalker(q) => {
                let Some(w) = s.first_in_state(cfg, q) else {
                    continue;
                };
                s.build_adj(cfg);
                // Each cut removes the row's first entry, so this walks
                // the walker's neighbours in ascending order.
                while let Some(&v) = s.adj[w].first() {
                    if spent >= budget_left {
                        break;
                    }
                    s.cut(w, v);
                    out.push(ResolvedFault::DeleteEdge(w.min(v), w.max(v)));
                    spent += 1;
                }
            }
        }
    }
    (out, spent)
}

/// The bridge of the alive active graph whose removal splits off the
/// largest minority component (ties toward the lexicographically
/// smallest edge), or `None` if the graph is bridgeless. Iterative
/// low-link DFS with subtree sizes; simple graphs only.
fn best_bridge(adj: &[Vec<usize>], alive: &[bool]) -> Option<(usize, usize)> {
    let n = adj.len();
    const UNSEEN: usize = usize::MAX;
    let mut disc = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut sub = vec![1usize; n];
    let mut timer = 0usize;
    let mut best: Option<(usize, (usize, usize))> = None;
    for root in 0..n {
        if !alive[root] || disc[root] != UNSEEN {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        let mut comp_size = 1usize;
        // (node, parent side of the tree edge, child index minus the
        // low-link updates; bridges score once the component size is
        // known).
        let mut comp_bridges: Vec<(usize, usize, usize)> = Vec::new();
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, UNSEEN, 0)];
        while let Some(frame) = stack.last_mut() {
            let (u, parent, ci) = (frame.0, frame.1, frame.2);
            if ci < adj[u].len() {
                frame.2 += 1;
                let v = adj[u][ci];
                if v == parent {
                    continue;
                }
                if disc[v] == UNSEEN {
                    disc[v] = timer;
                    low[v] = timer;
                    timer += 1;
                    comp_size += 1;
                    stack.push((v, u, 0));
                } else {
                    low[u] = low[u].min(disc[v]);
                }
            } else {
                stack.pop();
                if let Some(pf) = stack.last_mut() {
                    let p = pf.0;
                    low[p] = low[p].min(low[u]);
                    sub[p] += sub[u];
                    if low[u] > disc[p] {
                        comp_bridges.push((p, u, sub[u]));
                    }
                }
            }
        }
        for (p, u, child_side) in comp_bridges {
            let min_side = child_side.min(comp_size - child_side);
            let edge = (p.min(u), p.max(u));
            let better = best.is_none_or(|(bs, be)| min_side > bs || (min_side == bs && edge < be));
            if better {
                best = Some((min_side, edge));
            }
        }
    }
    best.map(|(_, e)| e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::SparsePop;
    use crate::fault::{FaultPlan, FaultState};
    use crate::{CompiledTable, EngineView, Link, Population, ProtocolBuilder, StateId};
    use netcon_graph::EdgeSet;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};

    /// The resolver as it stood before it read the live configuration:
    /// every decision copied the states and a sorted adjacency into a
    /// snapshot and resolved against a filtered clone of it. Kept as the
    /// oracle the live resolver must answer like, strike for strike.
    mod reference {
        use super::super::{best_bridge, AdversaryPlan, AdversaryPolicy, ResolvedFault};

        /// Dense state indices plus sorted active adjacency lists.
        pub(super) struct Snapshot {
            states: Vec<usize>,
            adj: Vec<Vec<usize>>,
        }

        impl Snapshot {
            /// Normalizes `states` and an active-edge list in any order
            /// (adjacency lists sorted ascending).
            pub(super) fn new(
                states: Vec<usize>,
                edges: impl IntoIterator<Item = (usize, usize)>,
            ) -> Self {
                let mut adj = vec![Vec::new(); states.len()];
                for (u, v) in edges {
                    adj[u].push(v);
                    adj[v].push(u);
                }
                for list in &mut adj {
                    list.sort_unstable();
                }
                Self { states, adj }
            }
        }

        /// One decision against `snap`, flipping `alive` for its crashes.
        pub(super) fn resolve_decision(
            plan: &AdversaryPlan,
            snap: &Snapshot,
            alive: &mut [bool],
            alive_count: &mut usize,
            extra_floor: Option<usize>,
            budget_left: u64,
        ) -> (Vec<ResolvedFault>, u64) {
            let floor = match (plan.min_alive, extra_floor) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            let mut adj: Vec<Vec<usize>> = snap
                .adj
                .iter()
                .enumerate()
                .map(|(u, list)| {
                    if alive[u] {
                        list.iter().copied().filter(|&v| alive[v]).collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let n = adj.len();
            let mut out = Vec::new();
            let mut spent = 0u64;
            let crash = |x: usize,
                         adj: &mut Vec<Vec<usize>>,
                         alive: &mut [bool],
                         alive_count: &mut usize,
                         out: &mut Vec<ResolvedFault>,
                         spent: &mut u64| {
                alive[x] = false;
                *alive_count -= 1;
                for v in std::mem::take(&mut adj[x]) {
                    adj[v].retain(|&w| w != x);
                }
                out.push(ResolvedFault::Crash(x));
                *spent += 1;
            };
            let cut = |u: usize,
                       v: usize,
                       adj: &mut Vec<Vec<usize>>,
                       out: &mut Vec<ResolvedFault>,
                       spent: &mut u64| {
                adj[u].retain(|&w| w != v);
                adj[v].retain(|&w| w != u);
                out.push(ResolvedFault::DeleteEdge(u.min(v), u.max(v)));
                *spent += 1;
            };
            for &p in &plan.policies {
                if spent >= budget_left {
                    break;
                }
                let crash_blocked = floor.is_some_and(|f| *alive_count <= f);
                match p {
                    AdversaryPolicy::CrashMaxDegree => {
                        if crash_blocked {
                            continue;
                        }
                        let Some(x) = (0..n)
                            .filter(|&u| alive[u])
                            .max_by_key(|&u| (adj[u].len(), std::cmp::Reverse(u)))
                        else {
                            continue;
                        };
                        crash(x, &mut adj, alive, alive_count, &mut out, &mut spent);
                    }
                    AdversaryPolicy::CrashState(q) => {
                        if crash_blocked {
                            continue;
                        }
                        let Some(x) = (0..n).find(|&u| alive[u] && snap.states[u] == q) else {
                            continue;
                        };
                        crash(x, &mut adj, alive, alive_count, &mut out, &mut spent);
                    }
                    AdversaryPolicy::CutBridge => {
                        let Some((u, v)) = best_bridge(&adj, alive) else {
                            continue;
                        };
                        cut(u, v, &mut adj, &mut out, &mut spent);
                    }
                    AdversaryPolicy::CutAtWalker(q) => {
                        let Some(w) = (0..n).find(|&u| alive[u] && snap.states[u] == q) else {
                            continue;
                        };
                        for v in adj[w].clone() {
                            if spent >= budget_left {
                                break;
                            }
                            cut(w, v, &mut adj, &mut out, &mut spent);
                        }
                    }
                }
            }
            (out, spent)
        }
    }

    /// A damage list in comparable form: `(0, x, x)` for a crash of `x`,
    /// `(1, u, v)` for a cut of `{u, v}`.
    fn keys(damage: &[ResolvedFault]) -> Vec<(u8, usize, usize)> {
        damage
            .iter()
            .map(|f| match *f {
                ResolvedFault::Crash(x) => (0, x, x),
                ResolvedFault::DeleteEdge(u, v) => (1, u, v),
                ref other => panic!("an adversary emits crashes and cuts only, not {other:?}"),
            })
            .collect()
    }

    /// A population of `states` (padded with state 0 to `n` nodes) and
    /// the given active edges.
    fn pop(n: usize, states: &[usize], edges: &[(usize, usize)]) -> Population<StateId> {
        let mut s: Vec<StateId> = states.iter().map(|&q| StateId::new(q as u16)).collect();
        s.resize(n, StateId::new(0));
        Population::from_parts(s, EdgeSet::from_edges(n, edges.iter().copied()))
    }

    /// One decision of `plan` on `cfg` through the fault state's own path,
    /// from the given alive flags under a plan-level `floor`. Returns the
    /// damage, the budget spent and the alive flags after.
    fn decide(
        plan: &AdversaryPlan,
        cfg: &impl LiveConfig,
        alive: &[bool],
        floor: Option<usize>,
    ) -> (Vec<ResolvedFault>, u64, Vec<bool>) {
        let mut fp = FaultPlan::new(0).with_adversary(plan.clone());
        if let Some(f) = floor {
            fp = fp.with_min_alive(f);
        }
        let mut fs = FaultState::new(fp, alive.len());
        fs.alive = alive.to_vec();
        fs.alive_count = alive.iter().filter(|&&a| a).count();
        let damage = fs.resolve_due_decision(cfg);
        (damage, fs.adversary_spent(), fs.alive.clone())
    }

    #[test]
    fn cadences_enumerate_their_times() {
        let p = Cadence::Periodic {
            start: 100,
            every: 50,
            count: 3,
        };
        assert_eq!(p.times(), vec![100, 150, 200]);
        assert_eq!(p.decision_time(3), None);
        // every = 0 clamps to 1 instead of repeating a draw forever.
        let z = Cadence::Periodic {
            start: 9,
            every: 0,
            count: 3,
        };
        assert_eq!(z.times(), vec![9, 10, 11]);
        let b = Cadence::burst(vec![30, 10, 20]);
        assert_eq!(b.times(), vec![10, 20, 30]);
        let r = Cadence::Ramp {
            start: 1_000,
            first_gap: 400,
            min_gap: 100,
            count: 5,
        };
        // Gaps: 400, 200, 100, 100 — halving floored at min_gap.
        assert_eq!(r.times(), vec![1_000, 1_400, 1_600, 1_700, 1_800]);
        assert_eq!(r.count(), 5);
    }

    #[test]
    fn crash_max_degree_finds_the_hub_and_ties_break_low() {
        // Star centred at 2, plus an extra edge making node 0 degree 2.
        let star = pop(5, &[], &[(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]);
        let plan =
            AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashMaxDegree);
        let (out, spent, alive) = decide(&plan, &star, &[true; 5], None);
        assert_eq!(keys(&out), [(0, 2, 2)]);
        assert_eq!(spent, 1);
        assert!(!alive[2]);
        // Once the engine has shed 2's edges, 0 and 1 tie at degree 1 —
        // the lower id falls.
        let rest = pop(5, &[], &[(0, 1)]);
        let (out2, _, _) = decide(&plan, &rest, &alive, None);
        assert_eq!(keys(&out2), [(0, 0, 0)]);
    }

    #[test]
    fn crash_state_targets_by_dense_index_and_noops_when_absent() {
        let cfg = pop(4, &[7, 3, 7, 3], &[]);
        let plan =
            AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashState(3));
        let (out, _, _) = decide(&plan, &cfg, &[true; 4], None);
        assert_eq!(keys(&out), [(0, 1, 1)], "lowest id in state 3");
        let plan9 =
            AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashState(9));
        let (out9, spent9, _) = decide(&plan9, &cfg, &[true; 4], None);
        assert!(out9.is_empty(), "no node in state 9");
        assert_eq!(spent9, 0, "a no-op strike costs nothing");
    }

    #[test]
    fn cut_bridge_prefers_the_most_balanced_split() {
        // Path 0-1-2-3-4-5: bridge (2,3) splits 3|3 — the maximum
        // minority side.
        let path = pop(6, &[], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CutBridge);
        let (out, _, _) = decide(&plan, &path, &[true; 6], None);
        assert_eq!(keys(&out), [(1, 2, 3)]);
        // A triangle has no bridge.
        let tri = pop(3, &[], &[(0, 1), (1, 2), (0, 2)]);
        let (none, _, _) = decide(&plan, &tri, &[true; 3], None);
        assert!(none.is_empty());
    }

    #[test]
    fn cut_at_walker_severs_every_incident_edge() {
        // 2 is the "walker" (state 5) inside a path 0-1-2-3.
        let path = pop(4, &[0, 0, 5, 0], &[(0, 1), (1, 2), (2, 3)]);
        let plan =
            AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CutAtWalker(5));
        let (out, spent, alive) = decide(&plan, &path, &[true; 4], None);
        assert_eq!(keys(&out), [(1, 1, 2), (1, 2, 3)]);
        assert_eq!(spent, 2);
        assert!(alive[2], "cutting never crashes");
    }

    #[test]
    fn budget_and_floor_gate_the_damage() {
        let star = pop(4, &[], &[(0, 1), (0, 2), (0, 3)]);
        let twice = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CrashMaxDegree)
            .policy(AdversaryPolicy::CrashMaxDegree);
        // Budget 1: the second strike never runs.
        let (out, spent, _) = decide(&twice.clone().budget(1), &star, &[true; 4], None);
        assert_eq!(out.len(), 1);
        assert_eq!(spent, 1);
        // Floor 4 on 4 alive: crashes are refused outright.
        let (none, zero, _) = decide(&twice, &star, &[true; 4], Some(4));
        assert!(none.is_empty());
        assert_eq!(zero, 0);
        // The adversary's own floor combines with the plan's by max.
        let own = twice.min_alive(3);
        let (one, _, _) = decide(&own, &star, &[true; 4], Some(2));
        assert_eq!(one.len(), 1, "stops at the tighter floor of 3");
    }

    #[test]
    fn sequential_policies_see_earlier_damage() {
        // CutAtWalker on 1 removes (0,1) and (1,2); the subsequent
        // CutBridge must pick from what remains of the path, not re-cut
        // (1,2): the best remaining bridge splits 2-3-4, and the most
        // balanced split there is 1|2 via either edge — the smaller edge
        // wins the tie.
        let path = pop(5, &[0, 5, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CutAtWalker(5))
            .policy(AdversaryPolicy::CutBridge);
        let (out, _, _) = decide(&plan, &path, &[true; 5], None);
        assert_eq!(keys(&out), [(1, 0, 1), (1, 1, 2), (1, 2, 3)]);
        // A second max-degree crash sees the first one's lost edges: with
        // the hub 0 gone, its neighbour 1 is down to degree 1, so 7 (of
        // the path 6-7-8) is the busiest node left. Counting 1's edge to
        // the crashed hub would tie them, and 1 would win on its id.
        let hub = pop(
            9,
            &[],
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (6, 7), (7, 8)],
        );
        let twice = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CrashMaxDegree)
            .policy(AdversaryPolicy::CrashMaxDegree);
        let (out, _, _) = decide(&twice, &hub, &[true; 9], None);
        assert_eq!(keys(&out), [(0, 0, 0), (0, 7, 7)]);
        // The same once a cut has built the sorted adjacency first: the
        // walker 9 loses its one edge, then the crashes go as above.
        let mut states = [0; 11];
        states[9] = 5;
        let cut_first = pop(
            11,
            &states,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (6, 7), (7, 8), (9, 10)],
        );
        let plan = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CutAtWalker(5))
            .policy(AdversaryPolicy::CrashMaxDegree)
            .policy(AdversaryPolicy::CrashMaxDegree);
        let (out, _, _) = decide(&plan, &cut_first, &[true; 11], None);
        assert_eq!(keys(&out), [(1, 9, 10), (0, 0, 0), (0, 7, 7)]);
    }

    #[test]
    fn sparse_rows_come_out_ascending() {
        // Rows in insertion order, then scrambled by a swap-remove: the
        // resolver's read of them is sorted all the same.
        let table = four_states();
        let mut sp = SparsePop::initial(&table, 5);
        for (u, v) in [(1, 4), (1, 0), (1, 3), (1, 2)] {
            sp.set_edge(u, v, true);
        }
        sp.set_edge(1, 4, false);
        let view = EngineView::Sparse {
            sp: &sp,
            machine: &table,
        };
        let mut row = vec![99];
        view.neighbors_ascending(1, &mut row);
        assert_eq!(row, [0, 2, 3]);
    }

    /// A compiled table with four states, so every input reads state
    /// indices 0..4.
    fn four_states() -> CompiledTable {
        let mut b = ProtocolBuilder::new("four");
        let q: Vec<StateId> = (0..4).map(|i| b.state(format!("q{i}"))).collect();
        b.rule((q[0], q[1], Link::Off), (q[2], q[3], Link::On));
        b.build().expect("valid").compile()
    }

    /// A random configuration: alive flags, states, and edges among the
    /// alive nodes only (the engines' invariant), listed in random order
    /// with a hub now and then.
    fn random_config(rng: &mut SmallRng, n: usize) -> (Vec<bool>, Vec<usize>, Vec<(usize, usize)>) {
        let dead_share = f64::from(rng.random_range(0..50u32)) / 100.0;
        let alive: Vec<bool> = (0..n).map(|_| !rng.random_bool(dead_share)).collect();
        let states: Vec<usize> = (0..n).map(|_| rng.random_range(0..4)).collect();
        let density = f64::from(rng.random_range(0..40u32)) / 100.0;
        let hub = rng.random_bool(0.5).then(|| rng.random_range(0..n));
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let hubbed = hub.is_some_and(|h| h == u || h == v) && rng.random_bool(0.8);
                if alive[u] && alive[v] && (hubbed || rng.random_bool(density)) {
                    edges.push((u, v));
                }
            }
        }
        edges.shuffle(rng);
        (alive, states, edges)
    }

    /// A random plan: 1–4 policies of all four kinds, repeats allowed,
    /// with an optional budget and an optional own floor.
    fn random_plan(rng: &mut SmallRng, n: usize) -> AdversaryPlan {
        let mut plan = AdversaryPlan::new(Cadence::burst(vec![0]));
        for _ in 0..rng.random_range(1..5) {
            plan = plan.policy(match rng.random_range(0..4) {
                0 => AdversaryPolicy::CrashMaxDegree,
                1 => AdversaryPolicy::CrashState(rng.random_range(0..4)),
                2 => AdversaryPolicy::CutBridge,
                _ => AdversaryPolicy::CutAtWalker(rng.random_range(0..4)),
            });
        }
        if rng.random_bool(0.5) {
            plan = plan.budget(rng.random_range(0..8));
        }
        if rng.random_bool(0.5) {
            plan = plan.min_alive(rng.random_range(0..n / 2 + 1));
        }
        plan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The live resolver answers like the snapshot reference — the
        /// same damage in the same order, the same spent budget and the
        /// same alive flags — reading a dense view, a sparse view whose
        /// rows are in insertion order, and the naive loop's population
        /// of one random configuration.
        #[test]
        fn resolver_matches_the_snapshot_reference(n in 2usize..41, seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (alive, states, edges) = random_config(&mut rng, n);
            let plan = random_plan(&mut rng, n);
            let floor = rng.random_bool(0.5).then(|| rng.random_range(0..n / 2 + 1));

            let snap = reference::Snapshot::new(states.clone(), edges.iter().copied());
            let mut want_alive = alive.clone();
            let mut count = alive.iter().filter(|&&a| a).count();
            let budget = plan.budget_limit().unwrap_or(u64::MAX);
            let (want, want_spent) = reference::resolve_decision(
                &plan, &snap, &mut want_alive, &mut count, floor, budget,
            );

            let table = four_states();
            let population = pop(n, &states, &edges);
            let mut sp = SparsePop::initial(&table, n);
            for (u, &q) in states.iter().enumerate() {
                sp.set_state_index(u, q);
                if !alive[u] {
                    sp.bucket_remove(u);
                }
            }
            for &(u, v) in &edges {
                sp.set_edge(u, v, true);
            }
            let dense = EngineView::Dense { pop: &population, machine: &table, faults: None };
            let sparse = EngineView::Sparse { sp: &sp, machine: &table };
            let got = [
                decide(&plan, &dense, &alive, floor),
                decide(&plan, &sparse, &alive, floor),
                decide(&plan, &population, &alive, floor),
            ];
            for (input, (damage, spent, after)) in ["dense", "sparse", "population"].iter().zip(got) {
                prop_assert_eq!(keys(&damage), keys(&want), "{} damage", input);
                prop_assert_eq!(spent, want_spent, "{} spent", input);
                prop_assert_eq!(&after, &want_alive, "{} alive flags", input);
            }
        }
    }
}
