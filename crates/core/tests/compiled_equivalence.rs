//! Property tests: the compiled lowering is observationally identical to
//! the interpreted rule table — on every `(a, b, link)` triple, for every
//! coin outcome, including the exact randomness consumption — and the
//! event-driven engine built on it reproduces the naive engine's
//! supporting invariants. The dense engines' incrementally maintained
//! pair sets equal the brute-force effective set after every step, and
//! the sparse engine's candidate weight equals its brute-force count.

use std::ops::Range;

use netcon_core::{
    BucketSim, CompiledTable, EnumerableMachine, EventSim, EventStep, Link, Machine, PairSet,
    Population, ProtocolBuilder, RoundSim, RuleProtocol, Simulation, StateId,
};
use netcon_processes::Process;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A random well-formed protocol over ≤ 6 states mixing deterministic and
/// weighted randomized rules (distinct unordered triples only).
fn arb_protocol() -> impl Strategy<Value = RuleProtocol> {
    arb_protocol_with(2..7, 1..12)
}

/// [`arb_protocol`] with the state count and the number of rule draws
/// taken from the given ranges.
fn arb_protocol_with(
    states: Range<u16>,
    rules: Range<usize>,
) -> impl Strategy<Value = RuleProtocol> {
    (states, any::<u64>(), rules).prop_map(|(size, seed, rules)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = ProtocolBuilder::new("random");
        let states: Vec<StateId> = (0..size).map(|i| b.state(format!("s{i}"))).collect();
        let mut used = std::collections::HashSet::new();
        for _ in 0..rules {
            let a = states[rng.random_range(0..states.len())];
            let c = states[rng.random_range(0..states.len())];
            let link = Link::from(rng.random_bool(0.5));
            if !used.insert((a.min(c), a.max(c), link)) {
                continue;
            }
            let triple = |rng: &mut SmallRng| {
                (
                    states[rng.random_range(0..states.len())],
                    states[rng.random_range(0..states.len())],
                    Link::from(rng.random_bool(0.5)),
                )
            };
            if rng.random_bool(0.5) {
                let t = triple(&mut rng);
                b.rule((a, c, link), t);
            } else {
                let alts: Vec<(u32, (StateId, StateId, Link))> = (0..rng.random_range(1..4usize))
                    .map(|_| (rng.random_range(1..4u32), triple(&mut rng)))
                    .collect();
                b.rule_random((a, c, link), alts);
            }
        }
        b.build().expect("distinct unordered triples are always valid")
    })
}

/// A configuration of `p` on `n` nodes with uniformly random states and
/// each edge active with probability 1/3.
fn random_population(p: &RuleProtocol, n: usize, seed: u64) -> Population<StateId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pop = Population::new(n, p.initial_state());
    for u in 0..n {
        pop.set_state(u, StateId::new(rng.random_range(0..p.size()) as u16));
        for v in u + 1..n {
            if rng.random_range(0..3u32) == 0 {
                pop.edges_mut().set(u, v, true);
            }
        }
    }
    pop
}

/// `can_affect` of the triple, derived from the outcomes
/// [`RuleProtocol::lookup`] lists without reading any stored effect bit:
/// some outcome differs from the input triple. (The §3.1 coin only swaps
/// the outputs of an equal-state input, which does not change the
/// answer.)
fn derived_effects(p: &RuleProtocol, a: StateId, b: StateId, link: Link) -> bool {
    p.lookup(a, b, link)
        .is_some_and(|rhs| rhs.outcomes().any(|t| t != (a, b, link)))
}

/// Checks that `set` holds exactly the pairs whose states and link admit
/// a transition of the interpreted table `p`, over all `n(n−1)/2` pairs.
fn check_effective_set(
    p: &RuleProtocol,
    pop: &Population<StateId>,
    set: &PairSet,
) -> Result<(), TestCaseError> {
    let mut expected = 0;
    for u in 0..pop.n() {
        for v in u + 1..pop.n() {
            let link = Link::from(pop.edges().is_active(u, v));
            let eff = derived_effects(p, *pop.state(u), *pop.state(v), link);
            prop_assert_eq!(set.contains(u, v), eff, "pair ({}, {})", u, v);
            expected += usize::from(eff);
        }
    }
    prop_assert_eq!(set.len(), expected);
    Ok(())
}

/// Checks `BucketSim`'s candidate weight against a brute-force count of
/// the effective set: every ordered pair whose states admit a transition
/// on the pair's actual link. Also checks that its adjacency rows mirror
/// each other, hold the edges the configuration has, and name their
/// on-list entries (`BucketSim::adjacency_consistent`), and that every
/// node sits in its bucket slot (`BucketSim::buckets_consistent`).
fn check_candidate_weight(
    p: &RuleProtocol,
    sim: &mut BucketSim<CompiledTable>,
) -> Result<(), TestCaseError> {
    let pop = sim.to_population();
    let mut expected = 0u64;
    for u in 0..pop.n() {
        for v in 0..pop.n() {
            if u == v {
                continue;
            }
            let link = Link::from(pop.edges().is_active(u, v));
            expected += u64::from(derived_effects(p, *pop.state(u), *pop.state(v), link));
        }
    }
    prop_assert_eq!(sim.candidate_weight(), expected);
    prop_assert!(sim.adjacency_consistent(), "adjacency rows disagree with the on list");
    prop_assert!(sim.buckets_consistent(), "a node is missing from its bucket slot");
    Ok(())
}

/// Runs `EventSim`, `RoundSim` and `BucketSim` of `p` from `pop` for up
/// to `candidates` candidate interactions each, checking the dense
/// engines' pair sets against the brute-force effective set (and the
/// round engine's pool accounting) and the sparse engine's candidate
/// weight against its brute-force count (and its adjacency rows for
/// consistency), after construction and after every `advance`.
fn check_engines(
    p: &RuleProtocol,
    pop: &Population<StateId>,
    seed: u64,
    candidates: usize,
) -> Result<(), TestCaseError> {
    let mut event = EventSim::from_population(p.compile(), pop.clone(), seed);
    check_effective_set(p, event.population(), event.effective_set())?;
    for _ in 0..candidates {
        if event.advance(u64::MAX) == EventStep::Quiescent {
            break;
        }
        check_effective_set(p, event.population(), event.effective_set())?;
    }
    let mut round = RoundSim::from_population(p.compile(), pop.clone(), seed);
    check_effective_set(p, round.population(), round.effective_set())?;
    for _ in 0..candidates {
        if round.advance(u64::MAX) == EventStep::Quiescent {
            break;
        }
        check_effective_set(p, round.population(), round.effective_set())?;
        prop_assert!(round.pool_invariant_holds());
    }
    let mut bucket = BucketSim::from_population(p.compile(), pop.clone(), seed);
    check_candidate_weight(p, &mut bucket)?;
    for _ in 0..candidates {
        if bucket.advance(u64::MAX) == EventStep::Quiescent {
            break;
        }
        check_candidate_weight(p, &mut bucket)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense engines' pair sets equal the brute-force effective set,
    /// and the sparse engine's candidate weight its brute-force count,
    /// after every step, on random rule tables from random configurations
    /// with active edges: small tables (the word-parallel index) and
    /// tables past 32 states (its per-pair arm).
    #[test]
    fn dense_pair_sets_match_brute_force_every_step(
        p in arb_protocol(),
        wide in arb_protocol_with(33..41, 100..300),
        n in 2usize..14,
        seed in any::<u64>(),
    ) {
        for p in [&p, &wide] {
            check_engines(p, &random_population(p, n, seed), seed, 60)?;
        }
    }

    /// The same per-step check on the seven Table 1 processes from their
    /// initial configurations.
    #[test]
    fn dense_pair_sets_match_brute_force_on_table1(n in 2usize..14, seed in any::<u64>()) {
        for process in Process::all() {
            check_engines(&process.protocol(), &process.initial_population(n), seed, 60)?;
        }
    }

    /// Compiled δ equals interpreted δ on the full domain, coin for coin:
    /// identically-seeded generators must produce identical outcomes AND
    /// end in identical generator states. The one effect table both
    /// answer from holds the bits the rule outcomes imply.
    #[test]
    fn compiled_table_agrees_on_every_triple_and_coin(p in arb_protocol(), seed in any::<u64>()) {
        let c = p.compile();
        let table = c.effect_table();
        for a in 0..p.size() {
            for b in 0..p.size() {
                for link in [Link::Off, Link::On] {
                    let (sa, sb) = (StateId::new(a as u16), StateId::new(b as u16));
                    for round in 0..4u64 {
                        let mut r1 = SmallRng::seed_from_u64(seed.wrapping_add(round));
                        let mut r2 = r1.clone();
                        prop_assert_eq!(
                            p.interact(&sa, &sb, link, &mut r1),
                            c.interact(&sa, &sb, link, &mut r2),
                            "δ disagrees at ({a}, {b}, {link})"
                        );
                        prop_assert_eq!(&r1, &r2, "coin consumption diverged at ({a}, {b}, {link})");
                    }
                    let derived = derived_effects(&p, sa, sb, link);
                    let bit = b * 2 + usize::from(link.is_on());
                    let row_bit = table.affect_row(a).map(|r| r >> bit & 1 == 1);
                    prop_assert_eq!(row_bit, Some(derived));
                    prop_assert_eq!(
                        derived,
                        table.can_affect(a, b, link),
                        "effect bits disagree at ({}, {}, {})", a, b, link
                    );
                    prop_assert_eq!(derived, p.can_affect(&sa, &sb, link));
                }
            }
        }
        prop_assert_eq!(p.size(), c.num_states());
        prop_assert_eq!(p.initial_state(), c.initial_state());
    }

    /// `interact_indexed` (the engine's monomorphic entry point) agrees
    /// with the boxed-generator `interact` path on both representations.
    #[test]
    fn interact_indexed_agrees_with_interact(p in arb_protocol(), seed in any::<u64>()) {
        let c = p.compile();
        for a in 0..p.size() {
            for b in 0..p.size() {
                for link in [Link::Off, Link::On] {
                    let (sa, sb) = (StateId::new(a as u16), StateId::new(b as u16));
                    let mut r1 = SmallRng::seed_from_u64(seed);
                    let mut r2 = r1.clone();
                    let via_interact = p
                        .interact(&sa, &sb, link, &mut r1)
                        .map(|(x, y, l)| (x.index(), y.index(), l));
                    prop_assert_eq!(
                        via_interact,
                        c.interact_indexed(a, b, link, &mut r2)
                    );
                }
            }
        }
    }

    /// The event engine is internally consistent on random protocols: the
    /// possibly-effective set it maintains incrementally always equals
    /// what a fresh O(n²) scan of the configuration would produce.
    #[test]
    fn event_sim_pair_set_matches_fresh_scan(p in arb_protocol(), n in 2usize..10, seed in any::<u64>()) {
        let compiled = p.compile();
        let mut sim = EventSim::new(compiled.clone(), n, seed);
        for _ in 0..40 {
            if sim.advance(u64::MAX) == EventStep::Quiescent {
                break;
            }
            let fresh = EventSim::from_population(compiled.clone(), sim.population().clone(), 0);
            prop_assert_eq!(sim.effective_pairs(), fresh.effective_pairs());
            prop_assert_eq!(sim.is_quiescent(), fresh.is_quiescent());
        }
    }

    /// Naive runs over the compiled table are step-for-step identical to
    /// naive runs over the interpreted table under the same seed.
    #[test]
    fn compiled_simulation_reproduces_interpreted(p in arb_protocol(), n in 2usize..10, seed in any::<u64>()) {
        let mut s1 = Simulation::new(p.clone(), n, seed);
        let mut s2 = Simulation::new(p.compile(), n, seed);
        for _ in 0..300 {
            prop_assert_eq!(s1.step(), s2.step());
        }
        prop_assert_eq!(s1.population().edges(), s2.population().edges());
        prop_assert_eq!(s1.effective_steps(), s2.effective_steps());
    }
}
