//! Frozen faulted trajectories of the four skip-sampling engines.
//!
//! Every fault a plan or an adversary resolves to — a crash with its
//! crash notifications, an arrival, a targeted edge deletion, a random
//! draw of active edges — is applied to an engine's candidate structures
//! by reclassifying exactly what it touched. These tests pin
//! `(steps, effective_steps, edge_events, last_output_change, alive
//! count, configuration hash)` of one fixed-seed faulted run per engine
//! to constants recorded before fault application moved into the shared
//! driver — so any change to which node a fault retires, which neighbour
//! it notifies first, which edges a random deletion draws, or how an
//! engine reclassifies afterwards fails here, coin for coin.
//!
//! Fixture: FT-Spanning-Line (its notify map turns every crash into
//! state changes of the former neighbours) at n = 24 under one plan that
//! fires every fault kind mid-run — `Crash(u)`, `CrashRandom`, two
//! `Arrive`s, a `DeleteEdge` of an active edge and
//! `DeleteRandomActiveEdges(3)` — plus two adversary decisions that each
//! run `CutBridge`, `CutAtWalker(q2)`, `CrashState(q1)` and
//! `CrashMaxDegree`. Each run is also replayed boundary by boundary,
//! checking that every fault boundary changes the fingerprint and that
//! stopping at each one lands on the same final fingerprint. One more
//! run pins `BucketSim` under churn on FT-Global-Star, whose spokes sit
//! in an off bucket they cannot fire in, so the engine's active-edge
//! tally and its in-bucket re-draws decide coins across every fault.

use netcon_core::{
    AdversaryPlan, AdversaryPolicy, BucketSim, Cadence, ChurnPlan, CompiledTable, EventSim,
    ExactEngine, FaultEvent, FaultPlan, Population, RoundBucketSim, RoundSim, SparsePop, StateId,
};
use netcon_protocols::{ft_line, ft_star};

/// `(steps, effective_steps, edge_events, last_output_change, alive
/// count, configuration hash)`.
type Fingerprint = (u64, u64, u64, u64, usize, u64);

const N: usize = 24;
const SEED: u64 = 1;
const HORIZON: u64 = 50_000;

/// FNV-1a over `n`, every node's state index, and every active edge
/// `{u, v}` with `u < v` in lexicographic order.
fn config_hash(states: impl ExactSizeIterator<Item = usize>, edges: &[(usize, usize)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for byte in (x as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(states.len());
    states.for_each(&mut eat);
    for &(u, v) in edges {
        eat(u);
        eat(v);
    }
    h
}

fn dense_hash(pop: &Population<StateId>) -> u64 {
    let edges: Vec<(usize, usize)> = pop.edges().active_edges().collect();
    config_hash((0..pop.n()).map(|u| pop.state(u).index()), &edges)
}

fn sparse_hash(sp: &SparsePop) -> u64 {
    let mut edges = Vec::new();
    for u in 0..sp.n() {
        edges.extend(sp.neighbors(u).filter(|&v| v > u).map(|v| (u, v)));
    }
    edges.sort_unstable();
    config_hash((0..sp.n()).map(|u| sp.state_index(u)), &edges)
}

/// The plan every engine runs. `cut` is the `DeleteEdge` target: the
/// engines' trajectories differ, so each names an edge active on it at
/// draw 16 000.
fn plan(cut: (u32, u32)) -> FaultPlan {
    let adv = AdversaryPlan::new(Cadence::burst(vec![28_000, 36_000]))
        .policy(AdversaryPolicy::CutBridge)
        .policy(AdversaryPolicy::CutAtWalker(ft_line::Q2.index()))
        .policy(AdversaryPolicy::CrashState(ft_line::Q1.index()))
        .policy(AdversaryPolicy::CrashMaxDegree);
    FaultPlan::new(31)
        .at(4_000, FaultEvent::Crash(5))
        .at(8_000, FaultEvent::CrashRandom)
        .at(12_000, FaultEvent::Arrive)
        .at(16_000, FaultEvent::DeleteEdge(cut.0, cut.1))
        .at(20_000, FaultEvent::Arrive)
        .at(24_000, FaultEvent::DeleteRandomActiveEdges(3))
        .with_adversary(adv)
}

fn fingerprint<E: ExactEngine>(e: &E, hash: fn(&E::Config) -> u64) -> Fingerprint {
    (
        e.steps(),
        e.effective_steps(),
        e.edge_events(),
        e.last_output_change(),
        e.fault_state().expect("faulted run").alive_count(),
        hash(e.config()),
    )
}

/// Runs a fresh engine straight to the horizon and fingerprints it;
/// then replays it stopping just before and just after every fault
/// boundary, checking that each boundary changes the fingerprint and
/// that the replay ends on the same one.
fn run<E: ExactEngine>(
    make: impl Fn(CompiledTable, FaultPlan) -> E,
    cut: (u32, u32),
    hash: fn(&E::Config) -> u64,
) -> Fingerprint {
    let machine = ft_line::protocol().compile();
    let mut e = make(machine.clone(), plan(cut));
    e.run_faulted_to(HORIZON);
    let straight = fingerprint(&e, hash);

    let mut e = make(machine, plan(cut));
    for t in plan(cut).boundary_times() {
        e.run_to(t);
        let before = fingerprint(&e, hash);
        e.run_faulted_to(t);
        assert_ne!(fingerprint(&e, hash), before, "the faults at draw {t} changed nothing");
    }
    e.run_faulted_to(HORIZON);
    assert_eq!(fingerprint(&e, hash), straight, "stop/resume at the fault boundaries");
    straight
}

#[test]
fn ft_line_under_every_fault_kind() {
    assert_eq!(
        [
            run(|m, p| EventSim::new_faulted(m, N, SEED, p), (9, 18), dense_hash),
            run(|m, p| BucketSim::new_faulted(m, N, SEED, p), (9, 17), sparse_hash),
            run(|m, p| RoundSim::new_faulted(m, N, SEED, p), (9, 13), dense_hash),
            run(|m, p| RoundBucketSim::new_faulted(m, N, SEED, p), (0, 9), sparse_hash),
        ],
        [
            (50000, 325, 95, 36650, 20, 10040250180105310916),
            (50000, 211, 95, 36030, 21, 7561523522294365684),
            (50000, 330, 90, 36372, 20, 11258626300758505985),
            (50000, 293, 196, 36524, 20, 12873530443118200152),
        ]
    );
}

/// `BucketSim` takes FT-Global-Star's active `(c, p)` spokes out of the
/// `(c, p)` off bucket's weight and re-draws a pick that lands on one
/// (the FT-line run above rarely meets such a pair), so under churn every
/// crash's and arrival's re-tally moves coins.
#[test]
fn bucket_ft_star_under_churn() {
    let churn = ChurnPlan::new(21)
        .arrival_rate(1e-4)
        .departure_rate(1e-4)
        .min_alive(8)
        .horizon(60_000)
        .compile(16);
    let mut e = BucketSim::new_faulted(ft_star::protocol().compile(), 16, 1, churn);
    e.run_faulted_to(80_000);
    assert_eq!(fingerprint(&e, sparse_hash), (80000, 298, 305, 55985, 16, 11095120143685542282));
}
