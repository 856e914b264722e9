//! **FT-Global-Star** — the fault-tolerant spanning-star constructor in
//! the crash-notification model of "Fault Tolerant Network Constructors"
//! (arXiv 1903.05992), layered over the paper's Protocol 4.
//!
//! ```text
//! Q = {c, p},  q0 = c
//! (c, c, 0) → (c, p, 1)   // centres duel; loser becomes peripheral
//! (p, p, 1) → (p, p, 0)   // peripherals repel
//! (c, p, 0) → (c, p, 1)   // centre attracts peripherals
//! (c, c, 1) → (c, p, 1)   // fault-only: a notified node re-duels over
//!                         //   a surviving spoke to another centre
//! notify: p → c           // losing a spoke makes a node a centre again
//! ```
//!
//! PR 6's `centre_crash_is_not_repaired` regression proves plain
//! Global-Star freezes forever after its centre crashes: the survivors
//! are all `p`, and no rule has a `p`-only left side. That freeze is
//! not an accident — under *silent* crashes a stale peripheral is
//! locally indistinguishable from a stable-star leaf, so any repair
//! rule would also be schedulable in the stable configuration and
//! destroy output stability. 1903.05992's answer is the
//! fault-notification model this module uses: a node that loses an
//! active edge to a crashed neighbour is told so, and FT-Global-Star's
//! notify map sends it back to `c`. The re-minted centres duel through
//! the ordinary rules and re-attract every survivor, so the star
//! re-stabilizes after *any* crash pattern.
//!
//! The fourth rule never matches in a fault-free run (active edges only
//! arise with a `p` endpoint), so the fault-free behaviour — including
//! coin consumption — is exactly Global-Star's. It exists because a
//! notified node can still hold spokes to *other* centres mid-
//! convergence: the resulting `(c, c, 1)` pair would otherwise be a
//! frozen non-star edge.

use netcon_core::{
    EngineView, EnumerableMachine, FaultState, Link, Population, ProtocolBuilder, RuleProtocol,
    SparsePop, StateId,
};

/// `c` — centre (the initial state of every node).
pub const C: StateId = StateId::new(0);
/// `p` — peripheral.
pub const P: StateId = StateId::new(1);

/// Builds FT-Global-Star.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("FT-Global-Star");
    let c = b.state("c");
    let p = b.state("p");
    b.rule((c, c, Link::Off), (c, p, Link::On));
    b.rule((p, p, Link::On), (p, p, Link::Off));
    b.rule((c, p, Link::Off), (c, p, Link::On));
    b.rule((c, c, Link::On), (c, p, Link::On));
    b.on_crash(p, c);
    b.build().expect("FT-Global-Star is well-formed")
}

/// Certifies output stability of a fault-free run: a unique centre of
/// full degree — identical to
/// [`global_star::is_stable`](crate::global_star::is_stable), because
/// the fault-only rule cannot fire in any fault-free reachable
/// configuration.
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    let centres = pop.nodes_where(|s| *s == C);
    centres.len() == 1
        && pop.edges().active_count() == pop.n() - 1
        && pop.edges().degree(centres[0]) as usize == pop.n() - 1
}

/// [`is_stable`] over an engine-selection view
/// ([`Engine`](netcon_core::Engine)-driven sweeps). State indices
/// follow the declaration order of [`C`] and [`P`].
#[must_use]
pub fn is_stable_view<M: EnumerableMachine>(v: &EngineView<'_, M>) -> bool {
    let centres = v.nodes_index(0);
    centres.len() == 1 && v.active_count() == v.n() - 1 && v.degree(centres[0]) == v.n() - 1
}

/// The fault-mode stability predicate: a unique *alive* centre whose
/// spokes reach every other alive node. Unlike plain Global-Star —
/// whose faulted predicate becomes unreachable after a centre crash —
/// FT-Global-Star re-enters this predicate after any crash burst, which
/// is what the paired regression against PR 6's freeze test checks.
#[must_use]
pub fn is_stable_faulted<M: EnumerableMachine>(v: &EngineView<'_, M>, fs: &FaultState) -> bool {
    let alive = fs.alive_count();
    let centres: Vec<usize> = v
        .nodes_index(0)
        .into_iter()
        .filter(|&u| fs.is_alive(u))
        .collect();
    centres.len() == 1
        && alive >= 1
        && v.active_count() == alive - 1
        && v.degree(centres[0]) == alive - 1
}

/// [`is_stable_faulted`] over a dense population snapshot — the form
/// the naive and event engines' `run_faulted_until` consume.
#[must_use]
pub fn is_stable_faulted_pop(pop: &Population<StateId>, fs: &FaultState) -> bool {
    let alive = fs.alive_count();
    let centres: Vec<usize> = pop
        .nodes_where(|s| *s == C)
        .into_iter()
        .filter(|&u| fs.is_alive(u))
        .collect();
    centres.len() == 1
        && alive >= 1
        && pop.edges().active_count() == alive - 1
        && pop.edges().degree(centres[0]) as usize == alive - 1
}

/// [`is_stable_faulted`] over the sparse view — the form
/// [`BucketSim::run_faulted_until`](netcon_core::BucketSim) consumes.
#[must_use]
pub fn is_stable_faulted_sparse(sp: &SparsePop, fs: &FaultState) -> bool {
    let alive = fs.alive_count();
    let centres: Vec<usize> = sp
        .nodes_index(0)
        .iter()
        .map(|&u| u as usize)
        .filter(|&u| fs.is_alive(u))
        .collect();
    centres.len() == 1
        && alive >= 1
        && sp.active_count() == alive - 1
        && sp.degree(centres[0]) == alive - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::{BucketSim, Engine, EventSim, ExactEngine, FaultEvent, FaultPlan, Machine};
    use netcon_graph::properties::is_spanning_star;

    #[test]
    fn metadata_and_notify_map() {
        let p = protocol();
        assert_eq!(p.size(), 2);
        assert_eq!(p.rules().len(), 4);
        assert_eq!(p.crash_notify_target(P), Some(C));
        assert_eq!(p.crash_notify_target(C), None);
        assert_eq!(p.on_crash_notify(&P), Some(C));
    }

    #[test]
    fn constructs_spanning_star_fault_free() {
        for n in [2, 3, 8, 24] {
            let sim = assert_stabilizes(protocol(), n, 1, is_stable, 100_000_000, 50_000);
            assert!(is_spanning_star(sim.population().edges()));
            assert!(sim.is_quiescent());
        }
    }

    /// The node a fault-free run leaves as the unique centre. The
    /// fault-only rule and the notify map cannot fire before the first
    /// crash, so this is coin-for-coin the plain Global-Star election —
    /// asserted against the real Global-Star below.
    fn stabilized_centre(n: usize, seed: u64) -> usize {
        let mut eng = Engine::auto(protocol().compile(), n, seed);
        eng.run_until(|v| v.count_index(0) == 1, 1_000_000_000)
            .converged_at()
            .expect("a single centre is elected");
        eng.to_population().nodes_where(|s| *s == C)[0]
    }

    #[test]
    fn repairs_the_centre_crash_global_star_never_does() {
        // The same (n, seed, plan-seed) as global_star's
        // `centre_crash_is_not_repaired`, which proves the plain
        // protocol freezes with zero active edges forever. FT-Star's
        // phase 1 elects the *same* node (the extra rule and the
        // notify map are unreachable fault-free), the same plan kills
        // it — and the star re-stabilizes. Verified independently on
        // two engines sharing the plan.
        let (n, seed) = (10, 4);
        let centre = stabilized_centre(n, seed);
        {
            // Coin-identity with plain Global-Star's election.
            let mut eng = Engine::auto(crate::global_star::protocol().compile(), n, seed);
            eng.run_until(|v| v.count_index(0) == 1, 1_000_000_000)
                .converged_at()
                .expect("Global-Star elects a centre");
            let plain = eng.to_population().nodes_where(|s| *s == crate::global_star::C)[0];
            assert_eq!(centre, plain, "FT-Star's fault-free run is Global-Star's");
        }
        let plan = FaultPlan::new(8).at(u64::MAX, FaultEvent::Crash(centre as u32));

        // Engine 1: the event-driven engine.
        let mut ev = EventSim::new_faulted(protocol().compile(), n, seed, plan.clone());
        let fs0 = ev.fault_state().expect("faulted").clone();
        ev.run_until(|p| is_stable_faulted_pop(p, &fs0), 1_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        ev.apply_faults_now();
        let fs1 = ev.fault_state().expect("faulted").clone();
        assert_eq!(fs1.alive_count(), n - 1);
        // Every survivor lost its spoke, was notified, and is a centre.
        let pop = ev.population();
        for u in (0..n).filter(|&u| u != centre) {
            assert_eq!(*pop.state(u), C, "survivor {u} was re-minted a centre");
        }
        ev.run_faulted_until(|p, _| is_stable_faulted_pop(p, &fs1), u64::MAX)
            .converged_at()
            .expect("FT-Star re-stabilizes after the centre crash");
        let pop = ev.population();
        assert_eq!(pop.edges().active_count(), n - 2, "star over n − 1 alive");

        // Engine 2: the state-bucketed engine, same shared plan.
        let mut bk = BucketSim::new_faulted(protocol().compile(), n, seed, plan);
        let fs0 = bk.fault_state().expect("faulted").clone();
        bk.run_until(|sp| is_stable_faulted_sparse(sp, &fs0), 1_000_000_000)
            .converged_at()
            .expect("phase 1 stabilizes");
        bk.apply_faults_now();
        let fs1 = bk.fault_state().expect("faulted").clone();
        bk.run_faulted_until(|sp, _| is_stable_faulted_sparse(sp, &fs1), u64::MAX)
            .converged_at()
            .expect("FT-Star re-stabilizes on the bucket engine too");
        assert_eq!(bk.view().active_count(), n - 2);
    }

    #[test]
    fn survives_the_targeted_centre_crash_cadence() {
        // The adaptive cadence that freezes plain Global-Star forever
        // (global_star's `targeted_centre_crash_freezes_forever`):
        // every `CrashMaxDegree` strike finds the elected centre —
        // asserted by the star collapsing to zero active edges at each
        // decision — and FT-Star's notify map re-mints the widowed
        // spokes, so the star re-forms over the survivors every time.
        use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence};
        let n = 12;
        let plan = FaultPlan::new(21).with_adversary(
            AdversaryPlan::new(Cadence::Periodic {
                start: 40_000,
                every: 40_000,
                count: 4,
            })
            .policy(AdversaryPolicy::CrashMaxDegree)
            .min_alive(6),
        );
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 7, plan);
        for strike in 1..=4u64 {
            eng.run_faulted_to(strike * 40_000);
            let fs = eng.fault_state().expect("faulted").clone();
            assert_eq!(fs.decisions_taken(), u32::try_from(strike).expect("small"));
            assert_eq!(fs.alive_count(), n - strike as usize);
            assert_eq!(
                eng.to_population().edges().active_count(),
                0,
                "strike {strike} hit the centre: a stable star loses every edge"
            );
        }
        let fs = eng.fault_state().expect("faulted").clone();
        assert_eq!(fs.next_at(), None);
        eng.run_faulted_until(|v, _| is_stable_faulted(v, &fs), u64::MAX)
            .converged_at()
            .expect("the star re-forms after the final targeted strike");
        assert_eq!(fs.alive_count(), 8);
        assert_eq!(eng.to_population().edges().active_count(), 7, "star over 8");
    }

    #[test]
    fn survives_a_mid_convergence_crash_burst() {
        // Crash two nodes *early* (draw 50), while many centres still
        // hold spokes: this exercises the fault-only `(c, c, 1)` rule
        // (a notified node re-dueling over a surviving spoke).
        let n = 16;
        let plan = FaultPlan::new(9)
            .at(50, FaultEvent::CrashRandom)
            .at(50, FaultEvent::CrashRandom);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 3, plan);
        let fs = eng.fault_state().expect("faulted").project_final();
        eng.run_faulted_until(|v, _| is_stable_faulted(v, &fs), u64::MAX)
            .converged_at()
            .expect("stabilizes through the burst");
        assert_eq!(fs.alive_count(), n - 2);
    }

    #[test]
    fn rides_sustained_churn_to_a_star_over_the_survivors() {
        use netcon_core::ChurnPlan;
        let n = 12;
        let plan = ChurnPlan::new(31)
            .arrival_rate(2e-4)
            .departure_rate(2e-4)
            .min_alive(6)
            .horizon(40_000)
            .compile(n);
        let mut eng = Engine::auto_faulted(protocol().compile(), n, 17, plan);
        let fs = eng.fault_state().expect("faulted").project_final();
        eng.run_faulted_until(|v, _| is_stable_faulted(v, &fs), u64::MAX)
            .converged_at()
            .expect("re-stabilizes once the churn stream ends");
        assert!(fs.alive_count() >= 6, "floor held");
    }
}
