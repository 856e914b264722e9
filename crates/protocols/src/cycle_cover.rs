//! Protocol 3: **Cycle-Cover** — partitions the population into disjoint
//! cycles with waste at most 2 (3 states, Θ(n²) expected time — optimal;
//! Theorem 5).
//!
//! The state of a node records its active degree, and any two nodes of
//! degree < 2 connect when they meet:
//!
//! ```text
//! Q = {q0, q1, q2}
//! (q0, q0, 0) → (q1, q1, 1)
//! (q1, q0, 0) → (q2, q1, 1)
//! (q1, q1, 0) → (q2, q2, 1)
//! ```
//!
//! The stable residue ("waste") is at most one isolated node or one
//! matched pair, never both — see [`is_stable`].

use netcon_core::{
    EngineView, EnumerableMachine, Link, Population, ProtocolBuilder, RuleProtocol, StateId,
};
use netcon_graph::properties::is_cycle_cover_with_waste;

/// `q0` — degree 0.
pub const Q0: StateId = StateId::new(0);
/// `q1` — degree 1.
pub const Q1: StateId = StateId::new(1);
/// `q2` — degree 2 (saturated).
pub const Q2: StateId = StateId::new(2);

/// Builds Protocol 3.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Cycle-Cover");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q2 = b.state("q2");
    b.rule((q0, q0, Link::Off), (q1, q1, Link::On));
    b.rule((q1, q0, Link::Off), (q2, q1, Link::On));
    b.rule((q1, q1, Link::Off), (q2, q2, Link::On));
    b.build().expect("Protocol 3 is well-formed")
}

/// Certifies output stability: every node has degree 2 except a residue
/// that no rule can touch — either nothing, one isolated `q0`, or one
/// adjacent `q1`–`q1` pair.
///
/// (Two non-adjacent low-degree nodes would still have an applicable
/// activation rule, so the configuration would not be stable.)
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
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

/// [`is_stable`] over an engine-selection view
/// ([`Engine`](netcon_core::Engine)-driven sweeps), reading only the
/// residue: the state encodes the node's active degree exactly (the
/// `state_tracks_degree_invariant` test), so when the residue condition
/// holds every other node is `q2` with degree 2 — disjoint cycles with
/// the residue as waste ≤ 2. Fires at exactly the same step as the dense
/// predicate; the state counts are O(1) on the sparse arm.
#[must_use]
pub fn is_stable_view<M: EnumerableMachine>(v: &EngineView<'_, M>) -> bool {
    match (v.count_index(Q0.index()), v.count_index(Q1.index())) {
        (0, 0) | (1, 0) => true,
        (0, 2) => {
            let q1 = v.nodes_index(Q1.index());
            v.is_active(q1[0], q1[1])
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::{assert_stabilizes, assert_stabilizes_event};
    use netcon_core::Simulation;

    #[test]
    fn paper_metadata() {
        let p = protocol();
        assert_eq!(p.size(), 3, "Table 2: Cycle-Cover uses 3 states");
        assert_eq!(p.rules().len(), 3);
    }

    #[test]
    fn deleted_cycle_edges_are_not_repaired() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        // Cycle-Cover is a one-way protocol: `q2` appears in no rule's
        // left side, so once every node is saturated no damage to the
        // output graph can ever be repaired. Run a seed whose final
        // configuration is all-`q2` (a perfect cycle cover, hence
        // quiescent), delete a random active edge, and document that
        // nothing re-fires — the honest non-repair result.
        let n = 8;
        let seed = (0..50)
            .find(|&s| {
                let mut e = Engine::auto(protocol().compile(), n, s);
                e.run_until(is_stable_view, 1_000_000_000)
                    .converged_at()
                    .expect("Cycle-Cover stabilizes");
                e.to_population().count_where(|st| *st == Q2) == n
            })
            .expect("some seed leaves no residue");
        let plan = FaultPlan::new(13).at(u64::MAX, FaultEvent::DeleteRandomActiveEdges(1));
        let mut eng = Engine::auto_faulted(protocol().compile(), n, seed, plan);
        eng.run_until(|v| v.count_index(2) == v.n(), 1_000_000_000)
            .converged_at()
            .expect("the replayed seed saturates every node to q2");
        eng.apply_faults_now();
        assert_eq!(eng.to_population().edges().active_count(), n - 1);
        let eff = eng.effective_steps();
        eng.run_faulted_to(eng.steps() + 2_000_000);
        assert_eq!(eng.effective_steps(), eff, "no Cycle-Cover rule mentions q2");
    }

    #[test]
    fn covers_with_waste_at_most_two() {
        for n in [3, 4, 5, 6, 9] {
            for seed in 0..3 {
                let sim = assert_stabilizes(protocol(), n, seed, is_stable, 50_000_000, 30_000);
                assert!(is_cycle_cover_with_waste(sim.population().edges(), 2));
                assert!(sim.is_quiescent(), "stable cycle cover quiesces");
            }
        }
        // Larger populations on the event-driven engine (identical output
        // distribution, cost proportional to the ~n effective steps).
        for n in [16, 33, 50, 200] {
            for seed in 0..3 {
                let sim = assert_stabilizes_event(
                    protocol().compile(),
                    n,
                    seed,
                    is_stable,
                    50_000_000_000,
                    30_000,
                );
                assert!(is_cycle_cover_with_waste(sim.population().edges(), 2));
                assert!(sim.is_quiescent(), "stable cycle cover quiesces");
            }
        }
    }

    #[test]
    fn state_tracks_degree_invariant() {
        let mut sim = Simulation::new(protocol(), 24, 8);
        for _ in 0..100 {
            sim.run_for(100);
            let pop = sim.population();
            for u in 0..pop.n() {
                let d = pop.edges().degree(u);
                let expect = match d {
                    0 => Q0,
                    1 => Q1,
                    2 => Q2,
                    _ => panic!("degree {d} impossible under Cycle-Cover"),
                };
                assert_eq!(*pop.state(u), expect, "state of node {u} must encode degree");
            }
        }
    }

    #[test]
    fn residue_pair_is_adjacent() {
        // Run many small cases and inspect residues explicitly.
        for seed in 0..10 {
            let sim = assert_stabilizes(protocol(), 8, seed, is_stable, 10_000_000, 10_000);
            let pop = sim.population();
            let q1s = pop.nodes_where(|s| *s == Q1);
            if q1s.len() == 2 {
                assert!(pop.edges().is_active(q1s[0], q1s[1]));
            }
        }
    }
}
