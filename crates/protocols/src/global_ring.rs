//! Protocol 5: **Global-Ring** — constructs a spanning ring (10 states;
//! Theorem 9; the Ω(n²) lower bound is Theorem 8).
//!
//! The protocol extends Simple-Global-Line: an `l`-leader endpoint may
//! additionally connect to a `q1` endpoint (closing its own line into a
//! ring, or joining another line). The two endpoints then become *blocked*
//! (`l'`, `q2'`). A blocked node that detects evidence of another
//! component — any node in `{l, l̄, w, q1, q0}` or another blocked node,
//! met over an *inactive* edge — marks itself double-primed, and a
//! double-primed pair backtracks: the closing edge is deactivated and both
//! endpoints return to their unblocked states. Only a truly spanning ring
//! (where no such evidence exists) stays closed forever.
//!
//! Lines of length 1 get the special leader state `l̄` which cannot close;
//! this is the journal version's fix to the PODC'14 bug (see the footnote
//! to Theorem 9).
//!
//! ```text
//! Q = {q0, q1, q2, l, w, l', l'', q2', q2'', l̄}
//! (q0, q0, 0) → (q1, l̄, 1)
//! (x,  q0, 0) → (q2, l, 1)                 x ∈ {l, l̄}
//! (x,  y,  0) → (q2, w, 1)                 x, y ∈ {l, l̄}   // merge
//! (w,  q2, 1) → (q2, w, 1)
//! (w,  q1, 1) → (q2, l, 1)
//! (l,  q1, 0) → (l', q2', 1)                               // close
//! (x', y,  0) → (x'', y, 0)     x ∈ {l, q2}, y ∈ {l, l̄, w, q1, q0}
//! (x', y', 0) → (x'', y'', 0)   x, y ∈ {l, q2}             // detect
//! (l'', q2', 1) → (l, q1, 0)
//! (l',  q2'', 1) → (l, q1, 0)                              // reopen
//! (l'', q2'', 1) → (l, q1, 0)
//! ```
//!
//! The paper's `(x, y, 0) → (q2, w, 1)` for `x, y ∈ {l, l̄}` defines both
//! orders of the mixed pair; since δ is a partial function on unordered
//! pairs we canonicalize the mixed rule as `(l, l̄, 0) → (q2, w, 1)` (which
//! of the two merging leaders keeps walking is immaterial).

use netcon_core::{Link, Population, ProtocolBuilder, RuleProtocol, StateId};
use netcon_graph::properties::is_spanning_ring;

/// `q0` — initial, isolated.
pub const Q0: StateId = StateId::new(0);
/// `q1` — non-leader endpoint.
pub const Q1: StateId = StateId::new(1);
/// `q2` — internal line/ring node.
pub const Q2: StateId = StateId::new(2);
/// `l` — leader endpoint of a line of length ≥ 2 edges.
pub const L: StateId = StateId::new(3);
/// `w` — walking leader after a merge.
pub const W: StateId = StateId::new(4);
/// `l'` — blocked leader endpoint of a closed ring.
pub const LP: StateId = StateId::new(5);
/// `l''` — blocked leader that has detected another component.
pub const LPP: StateId = StateId::new(6);
/// `q2'` — blocked non-leader endpoint of a closed ring.
pub const Q2P: StateId = StateId::new(7);
/// `q2''` — blocked non-leader that has detected another component.
pub const Q2PP: StateId = StateId::new(8);
/// `l̄` — leader of a line of length 1 (may not close).
pub const LB: StateId = StateId::new(9);

/// Builds Protocol 5.
#[must_use]
pub fn protocol() -> RuleProtocol {
    let mut b = ProtocolBuilder::new("Global-Ring");
    let q0 = b.state("q0");
    let q1 = b.state("q1");
    let q2 = b.state("q2");
    let l = b.state("l");
    let w = b.state("w");
    let lp = b.state("l'");
    let lpp = b.state("l''");
    let q2p = b.state("q2'");
    let q2pp = b.state("q2''");
    let lb = b.state("l_bar");

    // Normal behaviour begins only after a line has length 2 (edges).
    b.rule((q0, q0, Link::Off), (q1, lb, Link::On));
    for x in [l, lb] {
        b.rule((x, q0, Link::Off), (q2, l, Link::On));
    }
    // Merging: a walking w-leader starts.
    b.rule((l, l, Link::Off), (q2, w, Link::On));
    b.rule((lb, lb, Link::Off), (q2, w, Link::On));
    b.rule((l, lb, Link::Off), (q2, w, Link::On));
    b.rule((w, q2, Link::On), (q2, w, Link::On));
    b.rule((w, q1, Link::On), (q2, l, Link::On));
    // l connecting to a q1 endpoint, possibly closing its own line.
    b.rule((l, q1, Link::Off), (lp, q2p, Link::On));
    // Another component detected: a closed ring must open.
    for (x, xpp) in [(lp, lpp), (q2p, q2pp)] {
        for y in [l, lb, w, q1, q0] {
            b.rule((x, y, Link::Off), (xpp, y, Link::Off));
        }
    }
    for (x, xpp) in [(lp, lpp), (q2p, q2pp)] {
        for (y, ypp) in [(lp, lpp), (q2p, q2pp)] {
            b.rule((x, y, Link::Off), (xpp, ypp, Link::Off));
        }
    }
    // Opening closed rings.
    b.rule((lpp, q2p, Link::On), (l, q1, Link::Off));
    b.rule((lp, q2pp, Link::On), (l, q1, Link::Off));
    b.rule((lpp, q2pp, Link::On), (l, q1, Link::Off));
    b.build().expect("Protocol 5 is well-formed")
}

/// Certifies output stability: a spanning ring whose closing pair is
/// still blocked in single-primed states (`l'`, `q2'`, adjacent), all
/// other nodes `q2`.
///
/// In such a configuration no unprimed/evidence state exists anywhere, so
/// the detection rules can never fire and the ring can never reopen.
///
/// A spanning ring has exactly `n` edges, an O(1) test that runs first;
/// the state scan then stops at the first state outside `{l', q2', q2}`.
#[must_use]
pub fn is_stable(pop: &Population<StateId>) -> bool {
    let es = pop.edges();
    if es.active_count() != pop.n() {
        return false;
    }
    // (how many, the last one) of `l'` and of `q2'`.
    let (mut lp, mut q2p) = ((0usize, 0usize), (0usize, 0usize));
    for (u, &s) in pop.states().iter().enumerate() {
        match s {
            Q2 => {}
            LP => lp = (lp.0 + 1, u),
            Q2P => q2p = (q2p.0 + 1, u),
            _ => return false,
        }
    }
    lp.0 == 1 && q2p.0 == 1 && es.is_active(lp.1, q2p.1) && is_spanning_ring(es)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcon_core::testing::assert_stabilizes;
    use netcon_core::Simulation;

    #[test]
    fn paper_metadata() {
        let p = protocol();
        assert_eq!(p.size(), 10, "Protocol 5 uses 10 states");
    }

    #[test]
    fn constructs_spanning_ring() {
        for n in [3, 4, 5, 8, 12] {
            for seed in 0..3 {
                let sim =
                    assert_stabilizes(protocol(), n, seed, is_stable, 300_000_000, 60_000);
                assert!(is_spanning_ring(sim.population().edges()));
                assert!(sim.is_quiescent(), "stable ring quiesces");
            }
        }
    }

    #[test]
    fn premature_ring_reopens() {
        // A closed 3-ring coexisting with an isolated q0 must reopen and
        // eventually absorb the q0 into a spanning 4-ring.
        let mut pop = Population::new(4, Q0);
        pop.set_state(0, LP);
        pop.set_state(1, Q2P);
        pop.set_state(2, Q2);
        // node 3 stays q0.
        pop.edges_mut().activate(0, 1);
        pop.edges_mut().activate(1, 2);
        pop.edges_mut().activate(2, 0);
        assert!(!is_stable(&pop), "ring of 3 over 4 nodes is not spanning");
        let sim = Simulation::from_population(protocol(), pop, 9);
        let sim = netcon_core::testing::assert_stabilizes_sim(sim, is_stable, 50_000_000, 30_000);
        assert!(is_spanning_ring(sim.population().edges()));
        assert_eq!(sim.population().edges().n(), 4);
    }

    #[test]
    fn single_edge_lines_never_close() {
        // l̄ has no closing rule: a 2-node population stabilizes as a line
        // (a ring on 2 nodes does not exist).
        let mut sim = Simulation::new(protocol(), 2, 0);
        sim.run_for(100_000);
        assert_eq!(sim.population().edges().active_count(), 1);
        let states: Vec<_> = sim.population().states().to_vec();
        assert!(states.contains(&Q1) && states.contains(&LB));
        assert!(sim.is_quiescent());
    }
}
