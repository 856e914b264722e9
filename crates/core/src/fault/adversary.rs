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
//! Engines normalize their configuration into a `ConfigSnapshot`
//! (dense state indices plus sorted adjacency lists) precisely so the
//! policy never sees engine-internal iteration order.
//!
//! Within one decision draw, policies run in plan order against the
//! snapshot taken *at* the draw: each strike sees the snapshot minus
//! the nodes and edges already damaged this decision, but not any
//! crash-notification state changes (those land when the engine
//! applies the damage, identically everywhere).

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
/// every faulted engine then pauses at each decision draw, snapshots
/// its configuration, and applies the plan's damage through the
/// ordinary resolved-fault path.
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

/// The engine-normalized configuration an adversary decides against:
/// dense state indices per draw-space slot plus sorted active
/// adjacency lists. Every engine produces the identical snapshot at
/// the same draw index of the same seeded run, regardless of its
/// internal edge representation.
#[derive(Debug)]
pub(crate) struct ConfigSnapshot {
    states: Vec<usize>,
    adj: Vec<Vec<usize>>,
}

impl ConfigSnapshot {
    /// Normalizes `states` (dense indices, one per draw-space slot)
    /// and an active-edge list in *any* order into the canonical form
    /// (adjacency lists sorted ascending).
    pub(crate) fn new(states: Vec<usize>, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
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

/// Executes one decision: runs `plan`'s policies in order against
/// `snap`, restricted to `alive` nodes, flipping alive flags for the
/// crashes it emits (mirroring `FaultState::resolve_next`'s
/// contract). Returns the damage in application order plus the budget
/// spent (1 per crash or edge deletion, capped at `budget_left`).
pub(crate) fn resolve_decision(
    plan: &AdversaryPlan,
    snap: &ConfigSnapshot,
    alive: &mut [bool],
    alive_count: &mut usize,
    extra_floor: Option<usize>,
    budget_left: u64,
) -> (Vec<ResolvedFault>, u64) {
    let floor = match (plan.min_alive, extra_floor) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    // Working adjacency: the snapshot restricted to currently-alive
    // nodes, updated as this decision's own damage lands so later
    // policies never re-target it.
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

    fn snap(n: usize, states: &[usize], edges: &[(usize, usize)]) -> ConfigSnapshot {
        let mut s = states.to_vec();
        s.resize(n, 0);
        ConfigSnapshot::new(s, edges.iter().copied())
    }

    fn run(
        plan: &AdversaryPlan,
        snap: &ConfigSnapshot,
        alive: &mut [bool],
        floor: Option<usize>,
        budget: u64,
    ) -> (Vec<ResolvedFault>, u64) {
        let mut count = alive.iter().filter(|&&a| a).count();
        resolve_decision(plan, snap, alive, &mut count, floor, budget)
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
        let sn = snap(5, &[0; 5], &[(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashMaxDegree);
        let mut alive = vec![true; 5];
        let (out, spent) = run(&plan, &sn, &mut alive, None, u64::MAX);
        assert!(matches!(out[..], [ResolvedFault::Crash(2)]));
        assert_eq!(spent, 1);
        assert!(!alive[2]);
        // With 2 gone, 0 and 1 tie at degree 1 — the lower id falls.
        let mut count = 4;
        let (out2, _) = resolve_decision(&plan, &sn, &mut alive, &mut count, None, u64::MAX);
        assert!(matches!(out2[..], [ResolvedFault::Crash(0)]));
    }

    #[test]
    fn crash_state_targets_by_dense_index_and_noops_when_absent() {
        let sn = snap(4, &[7, 3, 7, 3], &[]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashState(3));
        let mut alive = vec![true; 4];
        let (out, _) = run(&plan, &sn, &mut alive, None, u64::MAX);
        assert!(matches!(out[..], [ResolvedFault::Crash(1)]), "lowest id in state 3");
        let plan9 = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CrashState(9));
        let (out9, spent9) = run(&plan9, &sn, &mut alive, None, u64::MAX);
        assert!(out9.is_empty(), "no node in state 9");
        assert_eq!(spent9, 0, "a no-op strike costs nothing");
    }

    #[test]
    fn cut_bridge_prefers_the_most_balanced_split() {
        // Path 0-1-2-3-4-5: bridge (2,3) splits 3|3 — the maximum
        // minority side.
        let sn = snap(6, &[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CutBridge);
        let mut alive = vec![true; 6];
        let (out, _) = run(&plan, &sn, &mut alive, None, u64::MAX);
        assert!(matches!(out[..], [ResolvedFault::DeleteEdge(2, 3)]));
        // A triangle has no bridge.
        let tri = snap(3, &[0; 3], &[(0, 1), (1, 2), (0, 2)]);
        let mut alive3 = vec![true; 3];
        let (none, _) = run(&plan, &tri, &mut alive3, None, u64::MAX);
        assert!(none.is_empty());
    }

    #[test]
    fn cut_at_walker_severs_every_incident_edge() {
        // 2 is the "walker" (state 5) inside a path 0-1-2-3.
        let sn = snap(4, &[0, 0, 5, 0], &[(0, 1), (1, 2), (2, 3)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0])).policy(AdversaryPolicy::CutAtWalker(5));
        let mut alive = vec![true; 4];
        let (out, spent) = run(&plan, &sn, &mut alive, None, u64::MAX);
        assert!(matches!(
            out[..],
            [ResolvedFault::DeleteEdge(1, 2), ResolvedFault::DeleteEdge(2, 3)]
        ));
        assert_eq!(spent, 2);
        assert!(alive[2], "cutting never crashes");
    }

    #[test]
    fn budget_and_floor_gate_the_damage() {
        let sn = snap(4, &[0; 4], &[(0, 1), (0, 2), (0, 3)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CrashMaxDegree)
            .policy(AdversaryPolicy::CrashMaxDegree);
        // Budget 1: the second strike never runs.
        let mut alive = vec![true; 4];
        let (out, spent) = run(&plan, &sn, &mut alive, None, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(spent, 1);
        // Floor 4 on 4 alive: crashes are refused outright.
        let mut alive2 = vec![true; 4];
        let (none, zero) = run(&plan, &sn, &mut alive2, Some(4), u64::MAX);
        assert!(none.is_empty());
        assert_eq!(zero, 0);
        // The adversary's own floor combines with the caller's by max.
        let own = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CrashMaxDegree)
            .policy(AdversaryPolicy::CrashMaxDegree)
            .min_alive(3);
        let mut alive3 = vec![true; 4];
        let (one, _) = run(&own, &sn, &mut alive3, Some(2), u64::MAX);
        assert_eq!(one.len(), 1, "stops at the tighter floor of 3");
    }

    #[test]
    fn sequential_policies_see_earlier_damage() {
        // CutAtWalker on 1 removes (1,2); the subsequent CutBridge
        // must pick from what remains of the path, not re-cut (1,2).
        let sn = snap(5, &[0, 5, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let plan = AdversaryPlan::new(Cadence::burst(vec![0]))
            .policy(AdversaryPolicy::CutAtWalker(5))
            .policy(AdversaryPolicy::CutBridge);
        let mut alive = vec![true; 5];
        let (out, _) = run(&plan, &sn, &mut alive, None, u64::MAX);
        assert!(matches!(
            out[..],
            [
                ResolvedFault::DeleteEdge(0, 1),
                ResolvedFault::DeleteEdge(1, 2),
                ResolvedFault::DeleteEdge(2, 3) | ResolvedFault::DeleteEdge(3, 4),
            ]
        ));
        // Specifically: the best remaining bridge splits 2-3-4, and
        // the most balanced split there is 1|2 via either edge — the
        // smaller edge wins the tie.
        assert!(matches!(out[2], ResolvedFault::DeleteEdge(2, 3)));
    }

    #[test]
    fn snapshot_normalizes_edge_order() {
        let a = ConfigSnapshot::new(vec![0; 4], vec![(3, 1), (0, 1), (2, 1)]);
        let b = ConfigSnapshot::new(vec![0; 4], vec![(1, 0), (1, 2), (1, 3)]);
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.adj[1], vec![0, 2, 3]);
    }
}
