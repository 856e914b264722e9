//! Frozen trajectories of the shuffled-rounds engines.
//!
//! `RoundBucketSim` consumes one uniform per skip (`hypergeometric_skip`),
//! per cohort split (`hypergeometric_count[_large]`) and per member pick,
//! in an order fixed by its urns, buckets and ledgers. These tests pin
//! `(steps, effective_steps, edge_events, last_output_change,
//! configuration hash)` of fixed-seed runs to constants recorded before
//! the skip sampler gained its certified closed-form path and before the
//! engine stopped cloning its per-step lists — so any change to a
//! sampler's answer, to the order of the engine's draws, or to a list it
//! walks fails here, coin for coin.
//!
//! Coverage: maximum matching at n = 2 000 and n = 20 000 (the skips of
//! the netbench `matching-100k` cell, at sizes a test can afford);
//! Simple-Global-Line, Cycle-Cover, Global-Star and 2RC at small n run
//! to their stability oracles; FT-Global-Star under Poisson churn; and
//! `RoundSim`, the dense round engine, on matching at n = 512, where
//! late skips run over ~10⁵ pairs with a handful of candidates.

use netcon_core::{
    ChurnPlan, CompiledTable, EngineView, EnumerableMachine, ExactEngine, FaultState, Link,
    Population, ProtocolBuilder, RoundBucketSim, RoundSim, RuleProtocol, SparsePop, StateId,
};
use netcon_protocols::{cycle_cover, ft_star, global_star, krc, simple_global_line};

/// `(steps, effective_steps, edge_events, last_output_change,
/// configuration hash)`.
type Fingerprint = (u64, u64, u64, u64, u64);

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over `n`, every node's state index, and every active edge
/// `{u, v}` with `u < v` in lexicographic order — independent of the
/// order the adjacency lists hold them in.
fn sparse_hash(sp: &SparsePop) -> u64 {
    let mut h = Fnv::new();
    let n = sp.n();
    h.eat(n as u64);
    for u in 0..n {
        h.eat(sp.state_index(u) as u64);
    }
    for u in 0..n {
        let mut row: Vec<usize> = sp.neighbors(u).filter(|&v| v > u).collect();
        row.sort_unstable();
        for v in row {
            h.eat(u as u64);
            h.eat(v as u64);
        }
    }
    h.0
}

/// The same hash over a dense population, for the `RoundSim` run.
fn dense_hash(pop: &Population<StateId>) -> u64 {
    let mut h = Fnv::new();
    let n = pop.n();
    h.eat(n as u64);
    for u in 0..n {
        h.eat(pop.state(u).index() as u64);
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if pop.edges().is_active(u, v) {
                h.eat(u as u64);
                h.eat(v as u64);
            }
        }
    }
    h.0
}

fn fingerprint<E: ExactEngine>(e: &E, hash: u64) -> Fingerprint {
    (
        e.steps(),
        e.effective_steps(),
        e.edge_events(),
        e.last_output_change(),
        hash,
    )
}

/// Runs `RoundBucketSim` on `protocol` to `stable` and fingerprints the
/// stopping configuration.
fn round_bucket(
    protocol: &RuleProtocol,
    n: usize,
    seed: u64,
    stable: impl Fn(&EngineView<'_, CompiledTable>) -> bool,
) -> Fingerprint {
    let machine = protocol.compile();
    let mut e = RoundBucketSim::new(machine.clone(), n, seed);
    let out = e.run_until(
        |sp| {
            stable(&EngineView::Sparse {
                sp,
                machine: &machine,
            })
        },
        u64::MAX,
    );
    assert!(out.stabilized(), "{out:?}");
    fingerprint(&e, sparse_hash(e.config()))
}

/// The matching table `(a, a, 0) → (b, b, 1)` and the index of `a`.
fn matching() -> (RuleProtocol, usize) {
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m = b.state("b");
    b.rule((a, a, Link::Off), (m, m, Link::On));
    let p = b.build().expect("valid");
    let ai = p.compile().state_index(&a);
    (p, ai)
}

#[test]
fn matching_n2000_and_n20000() {
    let (p, a) = matching();
    let matched = |v: &EngineView<'_, CompiledTable>| v.count_index(a) <= 1;
    assert_eq!(
        [
            round_bucket(&p, 2_000, 1, matched),
            round_bucket(&p, 20_000, 2, matched)
        ],
        [
            (1470560, 1000, 1000, 1470560, 7358113297554552032),
            (113914171, 10000, 10000, 113914171, 14504071780543634283),
        ]
    );
}

#[test]
fn table2_constructors_at_small_n() {
    assert_eq!(
        [
            round_bucket(&simple_global_line::protocol(), 24, 3, |v| {
                simple_global_line::is_stable_view(v)
            }),
            round_bucket(&cycle_cover::protocol(), 64, 4, |v| {
                cycle_cover::is_stable_view(v)
            }),
            round_bucket(&global_star::protocol(), 64, 5, |v| {
                global_star::is_stable_view(v)
            }),
            round_bucket(&krc::protocol(2), 16, 6, |v| {
                v.with_population(|p| krc::is_stable(p, 2))
            }),
        ],
        [
            (3409, 53, 23, 3409, 11021315666394341118),
            (1587, 64, 64, 1587, 6863814665653691365),
            (4027, 501, 501, 4027, 591531566636761668),
            (1047350, 179252, 142068, 1047082, 7599393084816412371),
        ]
    );
}

#[test]
fn ft_star_under_churn() {
    let machine = ft_star::protocol().compile();
    let plan = ChurnPlan::new(21)
        .arrival_rate(1e-4)
        .departure_rate(1e-4)
        .min_alive(8)
        .horizon(60_000)
        .compile(32);
    let mut e = RoundBucketSim::new_faulted(machine.clone(), 32, 7, plan);
    let out = e.run_faulted_until(
        |sp, fs: &FaultState| {
            ft_star::is_stable_faulted(
                &EngineView::Sparse {
                    sp,
                    machine: &machine,
                },
                fs,
            )
        },
        1_000_000_000,
    );
    assert!(out.stabilized(), "{out:?}");
    assert_eq!(
        fingerprint(&e, sparse_hash(e.config())),
        (56294, 634, 641, 56294, 17393246286957169597)
    );
}

#[test]
fn round_sim_matching_n512() {
    let (p, a) = matching();
    let machine = p.compile();
    let mut e = RoundSim::new(machine.clone(), 512, 8);
    let out = e.run_until(
        |pop| {
            EngineView::Dense {
                pop,
                machine: &machine,
                faults: None,
            }
            .count_index(a)
                <= 1
        },
        u64::MAX,
    );
    assert!(out.stabilized(), "{out:?}");
    assert_eq!(
        fingerprint(&e, dense_hash(e.config())),
        (62782, 256, 256, 62782, 2041945658305979323)
    );
}
