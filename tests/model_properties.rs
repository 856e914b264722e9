//! Property-based tests on the model layer: rule-table symmetry, edge-set
//! invariants, scheduler coverage, and configuration conservation.

use netcon::core::{ExactEngine, Link, Machine, ProtocolBuilder, Scheduler, Simulation, Uniform};
use netcon::graph::EdgeSet;
use netcon::protocols::catalog;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// δ symmetry (§3.1): δ₁(a,b,c) = δ₂(b,a,c) and δ₂(a,b,c) = δ₁(b,a,c)
    /// for every protocol in the catalogue and every distinct state pair.
    #[test]
    fn delta_is_symmetric(idx in 0usize..12, a in 0usize..17, b in 0usize..17, on in any::<bool>()) {
        let entries = catalog::table2();
        let e = &entries[idx % entries.len()];
        let p = &e.protocol;
        let (a, b) = (a % p.size(), b % p.size());
        prop_assume!(a != b);
        let (sa, sb) = (
            netcon::core::StateId::new(a as u16),
            netcon::core::StateId::new(b as u16),
        );
        let link = Link::from(on);
        let mut r1 = SmallRng::seed_from_u64(1);
        let mut r2 = SmallRng::seed_from_u64(1);
        let fwd = p.interact(&sa, &sb, link, &mut r1);
        let bwd = p.interact(&sb, &sa, link, &mut r2);
        match (fwd, bwd) {
            (None, None) => {}
            (Some((x, y, l1)), Some((y2, x2, l2))) => {
                prop_assert_eq!(
                    (x, y, l1),
                    (x2, y2, l2),
                    "{} asymmetric at ({}, {})",
                    e.name,
                    a,
                    b
                );
            }
            other => prop_assert!(false, "{}: one direction effective, the other not: {other:?}", e.name),
        }
    }

    /// The uniform scheduler only emits valid pairs and, over enough
    /// steps, touches every node.
    #[test]
    fn uniform_scheduler_touches_everyone(n in 2usize..40, seed in any::<u64>()) {
        let mut s = Uniform;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut seen = vec![false; n];
        for _ in 0..n * n * 4 {
            let (u, v) = s.next_pair(n, &mut rng);
            prop_assert!(u != v && u < n && v < n);
            seen[u] = true;
            seen[v] = true;
        }
        prop_assert!(seen.iter().all(|&x| x), "some node never selected");
    }

    /// EdgeSet set/clear keeps degrees and counts consistent with a naive
    /// mirror implementation.
    #[test]
    fn edgeset_matches_naive_model(n in 2usize..12, ops in proptest::collection::vec((0usize..12, 0usize..12, any::<bool>()), 0..60)) {
        let mut es = EdgeSet::new(n);
        let mut naive = std::collections::HashSet::new();
        for (u, v, on) in ops {
            let (u, v) = (u % n, v % n);
            if u == v { continue; }
            es.set(u, v, on);
            let key = (u.min(v), u.max(v));
            if on { naive.insert(key); } else { naive.remove(&key); }
        }
        prop_assert_eq!(es.active_count(), naive.len());
        for u in 0..n {
            let deg = naive.iter().filter(|&&(a, b)| a == u || b == u).count();
            prop_assert_eq!(es.degree(u) as usize, deg);
        }
        let mut listed: Vec<_> = es.active_edges().collect();
        listed.sort_unstable();
        let mut expect: Vec<_> = naive.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(listed, expect);
    }

    /// Simulations never create or destroy nodes, and the step counter
    /// advances exactly once per step.
    #[test]
    fn steps_and_population_are_conserved(n in 2usize..20, seed in any::<u64>(), steps in 1u64..500) {
        let mut b = ProtocolBuilder::new("conserve");
        let a = b.state("a");
        let c = b.state("b");
        b.rule((a, a, Link::Off), (c, c, Link::On));
        b.rule((c, c, Link::On), (a, a, Link::Off));
        let p = b.build().expect("valid");
        let mut sim = Simulation::new(p, n, seed);
        sim.run_for(steps);
        prop_assert_eq!(sim.steps(), steps);
        prop_assert_eq!(sim.population().n(), n);
        prop_assert!(sim.effective_steps() <= steps);
        prop_assert!(sim.last_output_change() <= steps);
    }
}

mod churn_plans {
    use super::*;
    use netcon::core::{AdversaryPlan, AdversaryPolicy, Cadence, ChurnPlan, EventSim};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Horizon extension appends, never rewrites: the stream is
        /// generated front-to-back by one sequential RNG, so compiling
        /// the same knobs with `h1 < h2` yields an event-stream prefix
        /// — what makes "sweep the horizon" experiments comparable
        /// across rungs.
        #[test]
        fn churn_horizon_extension_appends_never_rewrites(
            seed in any::<u64>(),
            n in 2usize..20,
            arrival in 0u32..40,
            departure in 0u32..40,
            h1 in 1u64..30_000,
            extra in 0u64..30_000,
        ) {
            let arrival = f64::from(arrival) * 1e-5;
            let departure = f64::from(departure) * 1e-5;
            prop_assume!(arrival + departure > 0.0);
            let mk = |h: u64| {
                ChurnPlan::new(seed)
                    .arrival_rate(arrival)
                    .departure_rate(departure)
                    .horizon(h)
                    .compile(n)
            };
            let short = mk(h1);
            let long = mk(h1 + extra);
            let se = short.events();
            let le = long.events();
            prop_assert!(se.len() <= le.len(), "extension only appends");
            prop_assert_eq!(se, &le[..se.len()], "shorter horizon is a prefix");
        }

        /// The `min_alive` floor survives composition: a churn stream's
        /// plan-level floor gates its own scheduled crashes AND every
        /// adaptive strike of an attached adversary (the effective
        /// decision floor is the max of the two), so the alive count
        /// never drops below `min(n, floor)` at any boundary or after
        /// the stream ends — regardless of the adversary's own, possibly
        /// weaker, floor.
        #[test]
        fn min_alive_floor_survives_adversary_and_churn_composition(
            seed in any::<u64>(),
            eng_seed in any::<u64>(),
            n in 4usize..16,
            floor in 2usize..8,
            adv_floor in 0usize..8,
            every in 20u64..200,
            count in 1u32..6,
        ) {
            let plan = ChurnPlan::new(seed)
                .arrival_rate(3e-4)
                .departure_rate(2e-3)
                .min_alive(floor)
                .horizon(5_000)
                .compile(n)
                .with_adversary(
                    AdversaryPlan::new(Cadence::Periodic { start: every, every, count })
                        .policy(AdversaryPolicy::CrashMaxDegree)
                        .policy(AdversaryPolicy::CrashState(0))
                        .min_alive(adv_floor),
                );
            let guarantee = floor.min(n);
            let mut b = ProtocolBuilder::new("matching");
            let a = b.state("a");
            let m = b.state("m");
            b.rule((a, a, Link::Off), (m, m, Link::On));
            let p = b.build().expect("valid");
            let mut sim = EventSim::new_faulted(p.compile(), n, eng_seed, plan.clone());
            let mut checkpoints = plan.boundary_times();
            checkpoints.push(6_000);
            for t in checkpoints {
                sim.run_faulted_to(t);
                let alive = sim.fault_state().expect("faulted").alive_count();
                prop_assert!(
                    alive >= guarantee,
                    "floor breached at draw {}: alive {} < {}",
                    t, alive, guarantee
                );
            }
        }
    }
}
