//! Criterion micro-benchmarks of the simulation engines' hot paths:
//! naive interaction throughput (interpreted vs compiled rule tables,
//! uniform vs shuffled-rounds scheduling), event-driven candidate
//! throughput, predicate-check cost (including the dense shape oracles
//! over recorded trajectories), a full run on each engine, edge cover on
//! the event engine (no interaction changes a state), a matching run on
//! the sparse round engine, runs of the sparse uniform engine at the
//! sizes of netbench's `sparse` cells, FT-Global-Star under periodic
//! max-degree crash strikes on the dense and the sparse uniform engine
//! (the fault-application layer), the dense engines' construction, and
//! the round engines' skip sampler on both of its paths.

use criterion::{criterion_group, criterion_main, Criterion};
use netcon_analysis::knee::periodic_adversary_plan;
use netcon_core::{
    hypergeometric_skip, unit_open01, AdversaryPolicy, BucketSim, CompiledTable, Engine,
    EngineView, EventSim, ExactEngine, Population, RoundBucketSim, RoundSim, RuleProtocol,
    SchedulerKind, ShuffledRounds, Simulation, StateId,
};
use netcon_graph::properties::is_spanning_star;
use netcon_processes::Process;
use netcon_protocols::{c_cliques, cycle_cover, ft_star, global_star, simple_global_line};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");

    group.bench_function("step_flat_star_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("step_compiled_star_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol().compile(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("step_flat_line_n256", |b| {
        let mut sim = Simulation::new(simple_global_line::protocol(), 256, 1);
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("step_shuffled_line_n64", |b| {
        let mut sim =
            Simulation::with_scheduler(simple_global_line::protocol(), 64, 1, ShuffledRounds::new());
        b.iter(|| black_box(sim.step()));
    });

    group.bench_function("event_advance_line_n256", |b| {
        // Candidate interactions (each one covers a whole geometric run
        // of skipped draws); recreate the sim when it converges.
        let mut sim = EventSim::new(simple_global_line::protocol().compile(), 256, 1);
        let mut reseed = 2u64;
        b.iter(|| {
            if sim.is_quiescent() {
                sim = EventSim::new(simple_global_line::protocol().compile(), 256, reseed);
                reseed += 1;
            }
            black_box(sim.advance(u64::MAX))
        });
    });

    group.bench_function("event_advance_bucket_line_n4096", |b| {
        // The sparse engine's candidate throughput at a size the dense
        // pair map would already pay ~70 MB for.
        let mut sim = BucketSim::new(simple_global_line::protocol().compile(), 4096, 1);
        let mut reseed = 2u64;
        b.iter(|| {
            if sim.is_quiescent() {
                sim = BucketSim::new(simple_global_line::protocol().compile(), 4096, reseed);
                reseed += 1;
            }
            black_box(sim.advance(u64::MAX))
        });
    });

    group.bench_function("star_predicate_n256", |b| {
        let mut sim = Simulation::new(global_star::protocol(), 256, 1);
        sim.run_for(100_000);
        b.iter(|| black_box(is_spanning_star(sim.population().edges())));
    });

    // The dense oracles over every configuration a naive run shows them
    // (the initial one and one per effective step, up to stability), in
    // trajectory order — the call mix the `uniform` workload's cells pay.
    for (name, trajectory, stable) in [
        (
            "c_cliques_oracle_n9",
            recorded_trajectory(c_cliques::protocol(3), 9, |p| c_cliques::is_stable(p, 3)),
            (|p| c_cliques::is_stable(p, 3)) as fn(&Population<StateId>) -> bool,
        ),
        (
            "cycle_cover_oracle_n128",
            recorded_trajectory(cycle_cover::protocol(), 128, cycle_cover::is_stable),
            cycle_cover::is_stable,
        ),
    ] {
        group.bench_function(name, |b| {
            let mut configs = trajectory.iter().cycle();
            b.iter(|| black_box(stable(configs.next().expect("non-empty trajectory"))));
        });
    }

    group.bench_function("full_star_run_n64", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(global_star::protocol(), 64, 7);
            black_box(sim.run_until(global_star::is_stable, u64::MAX))
        });
    });

    group.bench_function("full_star_run_event_n64", |b| {
        b.iter(|| {
            let mut sim = EventSim::new(global_star::protocol().compile(), 64, 7);
            black_box(sim.run_until(global_star::is_stable, u64::MAX))
        });
    });

    // Every effective step of edge cover only switches a link on, so the
    // candidate index's maintenance is one pair-set update per step.
    group.bench_function("event_edge_cover_n200", |b| {
        let p = Process::EdgeCover;
        b.iter(|| {
            let mut sim = EventSim::new(p.protocol().compile(), 200, 7);
            black_box(sim.run_until_edges(|q| p.is_done(q), u64::MAX))
        });
    });

    // The sparse round engine's own bookkeeping (touches, cohorts,
    // explicit pairs) on the workload netbench's matching-100k cell runs
    // at five times the size: build, then play round 1 until at most one
    // node is unmatched.
    group.bench_function("round_bucket_matching_n20000", |b| {
        let table = Process::MaximumMatching.protocol().compile();
        let n = 20_000;
        b.iter(|| {
            let mut sim = RoundBucketSim::new(table.clone(), n, 7);
            black_box(sim.run_until_edges(|sp| sp.active_count() == n / 2, u64::MAX))
        });
    });

    // The sparse uniform engine on two of netbench's `sparse` cells: build,
    // then run to the O(1) view predicate, checked after every effective
    // step. One seed, so every iteration repeats the same trajectory.
    type ViewCheck = fn(&EngineView<'_, CompiledTable>) -> bool;
    for (name, protocol, n, stable) in [
        (
            "bucket_sgl_run_n256",
            simple_global_line::protocol(),
            256,
            simple_global_line::is_stable_view::<CompiledTable> as ViewCheck,
        ),
        (
            "bucket_cycle_cover_run_n20000",
            cycle_cover::protocol(),
            20_000,
            cycle_cover::is_stable_view::<CompiledTable>,
        ),
    ] {
        let table = protocol.compile();
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sim = BucketSim::new(table.clone(), n, 7);
                let out = sim.run_until(
                    |sp| stable(&EngineView::Sparse { sp, machine: &table }),
                    u64::MAX,
                );
                assert!(out.stabilized());
                black_box(out)
            });
        });
    }

    // netbench's `ft-star-strikes` cell on the dense and the sparse
    // uniform engine, one seed: FT-Global-Star on 16 nodes, a max-degree
    // crash strike every 10⁴ draws over 4·10⁴ draws with an alive floor
    // of 8, run to the faulted star predicate — the fault-application
    // layer (decisions, crashes, notifications) with the repairs between
    // strikes.
    let table = ft_star::protocol().compile();
    for (name, budget) in [
        ("ft_star_strikes_event_n16", u64::MAX),
        ("ft_star_strikes_bucket_n16", 0),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let plan =
                    periodic_adversary_plan(1e-4, 7, 40_000, &[AdversaryPolicy::CrashMaxDegree], 8);
                let mut eng = Engine::with_budget_for_faulted(
                    table.clone(),
                    16,
                    7,
                    budget,
                    SchedulerKind::Uniform,
                    plan,
                );
                let out = eng.run_faulted_until(ft_star::is_stable_faulted, 1 << 40);
                assert!(out.stabilized());
                black_box(out)
            });
        });
    }

    group.finish();
}

/// Building a dense engine: the initial effective-pair set (and, for the
/// round engine, its first round's candidate set) at sizes where it is
/// most of a `uniform` or `rounds` trial.
fn construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.bench_function("event_new_cycle_cover_n128", |b| {
        let table = cycle_cover::protocol().compile();
        b.iter(|| black_box(EventSim::new(table.clone(), 128, 1)));
    });
    group.bench_function("round_new_sgl_n64", |b| {
        let table = simple_global_line::protocol().compile();
        b.iter(|| black_box(RoundSim::new(table.clone(), 64, 1)));
    });
    group.finish();
}

/// Every configuration a seed-1 naive run of `protocol` on `n` nodes
/// passes to `stable` before it first holds.
fn recorded_trajectory(
    protocol: RuleProtocol,
    n: usize,
    stable: impl Fn(&Population<StateId>) -> bool,
) -> Vec<Population<StateId>> {
    let mut configs = Vec::new();
    let mut sim = Simulation::new(protocol, n, 1);
    let out = sim.run_until(
        |p| {
            configs.push(p.clone());
            stable(p)
        },
        u64::MAX,
    );
    assert!(out.stabilized());
    configs
}

/// `hypergeometric_skip` at the parameters of the sparse round engine on
/// matching at n = 100 000 (≈ 5·10⁹ pairs per round): a dense candidate
/// set takes the draw-by-draw walk, a sparse one the bracketed search,
/// and 24 000 hits (~2·10⁵ expected skips, just inside the walk) is the
/// costliest regime the exact walk meets there.
fn skip_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampler");
    for (name, remaining, hits) in [
        ("hypergeometric_skip_walk_r5e9", 4_900_000_000u64, 5_000_000u64),
        ("hypergeometric_skip_walk_r5e9_k24000", 4_800_000_000, 24_000),
        ("hypergeometric_skip_bracket_r5e9_k5000", 4_900_000_000, 5000),
    ] {
        group.bench_function(name, |b| {
            let mut rng = SmallRng::seed_from_u64(1);
            b.iter(|| black_box(hypergeometric_skip(unit_open01(rng.next_u64()), remaining, hits)));
        });
    }
    group.finish();
}

criterion_group!(benches, engine_throughput, construction, skip_sampler);
criterion_main!(benches);
