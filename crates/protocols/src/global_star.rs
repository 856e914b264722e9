//! Protocol 4: **Global-Star** — the spanning-star constructor from the
//! paper's introduction (2 states, Θ(n² log n) expected time; optimal in
//! both size and time, Theorems 6–7).
//!
//! ```text
//! Q = {c, p},  q0 = c
//! (c, c, 0) → (c, p, 1)   // centres duel; loser becomes peripheral
//! (p, p, 1) → (p, p, 0)   // peripherals repel
//! (c, p, 0) → (c, p, 1)   // centre attracts peripherals
//! ```

use netcon_core::{
    EngineView, EnumerableMachine, FaultState, Link, Population, ProtocolBuilder, RuleProtocol,
    StateId,
};
use netcon_graph::properties::is_spanning_star;

/// `c` — centre (the initial state of every node).
pub const C: StateId = StateId::new(0);
/// `p` — peripheral.
pub const P: StateId = StateId::new(1);

/// Builds Protocol 4.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Global-Star");
    let c = b.state("c");
    let p = b.state("p");
    b.rule((c, c, Link::Off), (c, p, Link::On));
    b.rule((p, p, Link::On), (p, p, Link::Off));
    b.rule((c, p, Link::Off), (c, p, Link::On));
    b.build().expect("Protocol 4 is well-formed")
}

/// Certifies output stability: a unique centre `c` of full degree, every
/// peripheral of degree 1 (so no `(c,p,0)` or `(p,p,1)` rule applies, and
/// `(c,c,0)` is impossible with one centre).
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    let centers = pop.nodes_where(|s| *s == C);
    centers.len() == 1
        && is_spanning_star(pop.edges())
        && pop.edges().degree(centers[0]) as usize == pop.n() - 1
}

/// [`is_stable`] over an engine-selection view
/// ([`Engine`](netcon_core::Engine)-driven sweeps): a unique centre of
/// full degree. State indices follow the declaration order of [`C`] and
/// [`P`] (centre is index 0).
#[must_use]
pub fn is_stable_view<M: EnumerableMachine>(v: &EngineView<'_, M>) -> bool {
    is_star_over(v, v.n())
}

/// [`is_stable_view`] relative to the alive population of a faulted run:
/// a unique *alive* centre whose spokes reach every other alive node.
/// The view counts alive nodes only, and crashed and not-yet-arrived
/// nodes keep degree 0, so the edge counts are over the alive subgraph
/// automatically. The star self-repairs spoke deletions and arrivals
/// (`(c, p, 0) → (c, p, 1)` re-fires) and survives leaf crashes
/// unharmed; a *centre* crash leaves only peripherals, for which no rule
/// exists, so this predicate becomes unreachable — the honest "does not
/// self-repair" reading.
#[must_use]
pub fn is_stable_faulted<M: EnumerableMachine>(v: &EngineView<'_, M>, fs: &FaultState) -> bool {
    is_star_over(v, fs.alive_count())
}

/// A unique centre whose spokes reach the other `alive − 1` nodes.
fn is_star_over<M: EnumerableMachine>(v: &EngineView<'_, M>, alive: usize) -> bool {
    let centres = v.nodes_index(0);
    centres.len() == 1 && v.active_count() == alive - 1 && v.degree(centres[0]) == alive - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::{RoundRobin, ShuffledRounds, Simulation};

    #[test]
    fn paper_metadata() {
        let p = protocol();
        assert_eq!(p.size(), 2, "Theorem 6: 2 states are necessary; 2 suffice");
        assert_eq!(p.rules().len(), 3);
    }

    #[test]
    fn constructs_spanning_star() {
        for n in [2, 3, 4, 8, 16, 32, 64] {
            let sim = assert_stabilizes(protocol(), n, 1, is_stable, 100_000_000, 50_000);
            assert!(is_spanning_star(sim.population().edges()));
            assert!(sim.is_quiescent());
        }
    }

    #[test]
    fn centre_count_never_increases() {
        let mut sim = Simulation::new(protocol(), 32, 4);
        let mut last = sim.population().count_where(|s| *s == C);
        assert_eq!(last, 32, "all nodes start as centres");
        for _ in 0..500 {
            sim.run_for(100);
            let now = sim.population().count_where(|s| *s == C);
            assert!(now <= last, "centres can only be eliminated");
            assert!(now >= 1, "a centre always survives");
            last = now;
        }
    }

    #[test]
    fn regrows_deleted_spokes() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        // Delete three random spokes of the stable star: each orphaned
        // peripheral re-attaches through `(c, p, 0) → (c, p, 1)`.
        let n = 12;
        let plan = FaultPlan::new(21).at(u64::MAX, FaultEvent::DeleteRandomActiveEdges(3));
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 2, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 1_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        eng.apply_faults_now();
        assert_eq!(eng.to_population().edges().active_count(), n - 1 - 3);
        let eff = eng.effective_steps();
        let fs1 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs1), eng.steps() + 1_000_000_000)
            .converged_at()
            .expect("the star regrows its spokes");
        assert!(eng.effective_steps() > eff, "repair fired at least 3 rules");
        assert!(is_stable(&eng.to_population()));
    }

    /// The node left as the unique centre by a plain run (the faulted
    /// runs below use crash-only plans of the same capacity, so their
    /// first phase is coin-for-coin identical and elects the same node).
    fn stabilized_centre(n: usize, seed: u64) -> usize {
        use netcon_core::Engine;
        let mut eng = Engine::auto(protocol().compile(), n, seed);
        eng.run_until(|v| v.count_index(0) == 1, 1_000_000_000)
            .converged_at()
            .expect("a single centre is elected");
        eng.to_population().nodes_where(|s| *s == C)[0]
    }

    #[test]
    fn survives_a_leaf_crash_unharmed() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        let (n, seed) = (10, 4);
        let centre = stabilized_centre(n, seed);
        let leaf = (0..n).find(|&u| u != centre).expect("n > 1");
        let plan = FaultPlan::new(8).at(u64::MAX, FaultEvent::Crash(leaf as u32));
        let mut eng = Engine::auto_faulted(protocol().compile(), n, seed, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 1_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        eng.apply_faults_now();
        // Losing a leaf costs exactly its spoke: the survivors already
        // form a spanning star over the alive set, nothing re-fires.
        let fs1 = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs1.alive_count(), n - 1);
        let eff = eng.effective_steps();
        eng.run_faulted_to(eng.steps() + 1_000_000);
        assert_eq!(eng.effective_steps(), eff, "already stable on alive set");
        let pop = eng.to_population();
        assert_eq!(pop.edges().active_count(), n - 2);
        assert_eq!(pop.edges().degree(centre) as usize, n - 2);
    }

    #[test]
    fn centre_crash_is_not_repaired() {
        use netcon_core::{Engine, FaultEvent, FaultPlan};
        let (n, seed) = (10, 4);
        let centre = stabilized_centre(n, seed);
        let plan = FaultPlan::new(8).at(u64::MAX, FaultEvent::Crash(centre as u32));
        let mut eng = Engine::auto_faulted(protocol().compile(), n, seed, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 1_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        eng.apply_faults_now();
        // All spokes died with the centre; the survivors are all `p`,
        // and no rule has a `p`-only left side that creates anything.
        let eff = eng.effective_steps();
        eng.run_faulted_to(eng.steps() + 2_000_000);
        assert_eq!(eng.effective_steps(), eff, "no rule fires among peripherals");
        assert_eq!(eng.to_population().edges().active_count(), 0);
    }

    #[test]
    fn targeted_centre_crash_freezes_forever() {
        // `centre_crash_is_not_repaired` (above) needs the test to
        // *look up* the elected centre and aim a scheduled crash at
        // it. An adaptive `CrashMaxDegree` adversary needs no such
        // help: at any stable star the centre is the unique
        // max-degree node, so one decision draw provably finds and
        // kills it — and the all-`p` survivors have no enabled rule,
        // ever. The same cadence against FT-Star merely delays it
        // (ft_star's `survives_the_targeted_centre_crash_cadence`).
        use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence, Engine, FaultPlan};
        let (n, seed) = (10, 4);
        let plan = FaultPlan::new(8).with_adversary(
            AdversaryPlan::new(Cadence::Burst(vec![200_000]))
                .policy(AdversaryPolicy::CrashMaxDegree),
        );
        let mut eng = Engine::auto_faulted(protocol().compile(), n, seed, plan);
        let fs0 = eng.fault_state().expect("faulted").clone();
        eng.run_until(|v| is_stable_faulted(v, &fs0), 200_000)
            .converged_at()
            .expect("stabilizes well before the decision draw");
        eng.run_faulted_to(200_000);
        let fs = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs.decisions_taken(), 1);
        assert_eq!(fs.alive_count(), n - 1, "exactly the centre crashed");
        assert_eq!(
            eng.to_population().edges().active_count(),
            0,
            "the strike found the centre: every spoke edge died with it"
        );
        let eff = eng.effective_steps();
        eng.run_faulted_to(eng.steps() + 2_000_000);
        assert_eq!(eng.effective_steps(), eff, "no rule fires among peripherals");
    }

    #[test]
    fn robust_under_fair_deterministic_schedulers() {
        let sim = Simulation::with_scheduler(protocol(), 12, 5, RoundRobin::new());
        netcon_core::testing::assert_stabilizes_sim(sim, is_stable, 10_000_000, 20_000);
        let sim = Simulation::with_scheduler(protocol(), 12, 5, ShuffledRounds::new());
        netcon_core::testing::assert_stabilizes_sim(sim, is_stable, 10_000_000, 20_000);
    }
}
