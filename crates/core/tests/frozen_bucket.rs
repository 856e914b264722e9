//! Frozen trajectories of the sparse uniform engine.
//!
//! `BucketSim` consumes one raw draw per geometric skip, then its
//! candidate picks (with any in-bucket re-draws), in an order fixed by
//! its buckets and its on list.
//! These tests pin `(steps, effective_steps, edge_events,
//! last_output_change, configuration hash)` of fixed-seed unfaulted runs
//! to constants recorded while the engine still answered some skips from
//! a cached inversion table — so any change to a skip's answer, to the
//! order of the engine's draws, or to the batched endgame's coins fails
//! here, coin for coin. Faulted `BucketSim` runs are pinned in
//! `frozen_faults`.
//!
//! Coverage: Simple-Global-Line at n = 256 run to its stability oracle
//! (long stretches at one hit probability, where the old table was
//! built); Cycle-Cover at n = 256, whose adjacent `q1` pairs are
//! re-drawn inside their off bucket (its constants were re-recorded when
//! the engine began counting effective pairs exactly; the other two
//! never meet such a pair); and Simple-Global-Line under
//! `run_until_edges` at n = 1 000, where the batched walker endgame
//! opens.

use netcon_core::{BucketSim, CompiledTable, EngineView, ExactEngine, RuleProtocol, SparsePop};
use netcon_protocols::{cycle_cover, simple_global_line};

/// `(steps, effective_steps, edge_events, last_output_change,
/// configuration hash)`, with the exact wide counts.
type Fingerprint = (u128, u128, u64, u64, u64);

/// FNV-1a over `n`, every node's state index, and every active edge
/// `{u, v}` with `u < v` in lexicographic order — independent of the
/// order the adjacency lists hold them in.
fn sparse_hash(sp: &SparsePop) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: usize| {
        for byte in (x as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(sp.n());
    (0..sp.n()).for_each(|u| eat(sp.state_index(u)));
    let mut edges = Vec::new();
    for u in 0..sp.n() {
        edges.extend(sp.neighbors(u).filter(|&v| v > u).map(|v| (u, v)));
    }
    edges.sort_unstable();
    for (u, v) in edges {
        eat(u);
        eat(v);
    }
    h
}

fn fingerprint(e: &BucketSim<CompiledTable>) -> Fingerprint {
    (
        e.steps_wide(),
        e.effective_steps_wide(),
        e.edge_events(),
        e.last_output_change(),
        sparse_hash(e.view()),
    )
}

/// Runs `BucketSim` on `protocol` until `stable` holds, checking it after
/// every effective interaction (`edges_only = false`) or only after edge
/// changes (`run_until_edges`, which lets the batched endgame open).
fn run(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    edges_only: bool,
    stable: impl Fn(&EngineView<'_, CompiledTable>) -> bool,
) -> Fingerprint {
    let machine = protocol.compile();
    let mut e = BucketSim::new(machine.clone(), n, seed);
    let view = |sp: &SparsePop| {
        stable(&EngineView::Sparse {
            sp,
            machine: &machine,
        })
    };
    let out = if edges_only {
        e.run_until_edges(view, u64::MAX)
    } else {
        e.run_until(view, u64::MAX)
    };
    assert!(out.stabilized(), "{out:?}");
    fingerprint(&e)
}

#[test]
fn simple_global_line_n256() {
    let p = simple_global_line::protocol();
    let got = [1, 2].map(|seed| run(&p, 256, seed, false, simple_global_line::is_stable_view));
    assert_eq!(
        got,
        [
            (97752346, 13745, 255, 97752346, 311681754208884144),
            (194795861, 19250, 255, 194795861, 16690451350555552547),
        ]
    );
}

#[test]
fn cycle_cover_n256() {
    let p = cycle_cover::protocol();
    let got = [1, 2].map(|seed| run(&p, 256, seed, false, cycle_cover::is_stable_view));
    assert_eq!(
        got,
        [
            (21206, 256, 256, 21206, 11796003672239597418),
            (31861, 256, 256, 31861, 8608349229374541514),
        ]
    );
}

#[test]
fn simple_global_line_endgame_n1000() {
    let p = simple_global_line::protocol();
    let got = run(&p, 1000, 3, true, simple_global_line::is_stable_view);
    assert_eq!(
        got,
        (26505780465, 223870, 999, 26505780465, 14868226325027520233)
    );
}
