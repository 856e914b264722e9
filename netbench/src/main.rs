//! End-to-end trial benchmark for the network-constructor engines.
//!
//! ```sh
//! cargo run --release --manifest-path netbench/Cargo.toml -- \
//!     --workload <uniform|sparse|rounds|faults> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! A *trial* is what a user of the simulator runs: compile the trial's
//! fault plan (faulted cells), build an engine for one protocol at one
//! population size, and run it to output stability — or, on the
//! availability cells, sweep `netcon_analysis::knee` over a strike-rate
//! ladder and fit its knee. Every trial's output (constructed graph or
//! availability curve) is then checked, outside the timed span.
//!
//! Each workload is a fixed list of cells. Every cell's protocol, size
//! and fault parameters come from an existing caller in the repository
//! (a bench target, `perf_smoke`, or the stabilization tests), named at
//! the cell. Engine cells pin the selector's memory budget — unbounded
//! for the dense engines, zero for the sparse ones — so the engine is
//! fixed by the cell, not by the environment. A run's trial inputs are
//! a fixed number of trials per cell, each seeded from `--seed`; they
//! are replayed in windows (each one pass over every input, 0.3 to
//! 1.3 s) until `--seconds` have elapsed, and each input's latency is the fastest of its
//! replays. On a shared host, core speed can drift by up to ~2x for
//! tens of seconds at a time (other tenants on the same cores and
//! caches), and the fastest replay is the least disturbed measurement
//! of an input.
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end ones: trial latency (median and p90 per
//! cell, combined across cells by geometric mean), serial trial
//! throughput, and set-up time (the median of repeated set-ups, in the
//! least disturbed window). With `--trace 1` the benchmark records spans
//! around each call into a layer — fault-plan compilation, engine
//! construction, the engine run (split by engine), every stability
//! predicate evaluation inside the run, the availability sweep, the
//! knee fit, and the output check — and reports per-trial self times and
//! counters from the window with the highest throughput instead.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use netcon_analysis::knee::{detect_knee, periodic_adversary_plan, sweep_availability_vs_rate};
use netcon_core::{
    AdversaryPolicy, ChurnPlan, CompiledTable, Engine, EngineView, EnumerableMachine, FaultPlan,
    FaultState, Link, Population, ProtocolBuilder, RuleProtocol, RunOutcome, Scheduler,
    SchedulerKind, ShuffledRounds, Simulation, SparsePop, StateId,
};
use netcon_graph::components::UnionFind;
use netcon_graph::{properties as shape, EdgeSet};
use netcon_protocols::{
    c_cliques, cycle_cover, fast_global_line, faster_global_line, ft_line, ft_star, global_ring,
    global_star, krc, simple_global_line, spanning_net,
};

type View<'a> = EngineView<'a, CompiledTable>;
type Pred = Box<dyn Fn(&View<'_>) -> bool>;
type FaultPred = fn(&View<'_>, &FaultState) -> bool;
type PopPred = fn(&Population<StateId>) -> bool;

const WORKLOADS: [&str; 4] = ["uniform", "sparse", "rounds", "faults"];

/// Set-up is timed this many times per window; the window's set-up time
/// is the median.
const SETUP_REPS: usize = 31;

/// Set-ups per timed set-up sample, so one sample spans many ticks of a
/// coarse clock.
const SETUP_BATCH: usize = 16;

/// Step budget per trial: far beyond every cell's convergence time, so
/// hitting it means the engine or protocol is broken.
const MAX_STEPS: u64 = 1 << 40;

/// Memory budgets that pin the selector's choice: every dense estimate
/// fits the first, none fits the second.
const DENSE: u64 = u64::MAX;
const SPARSE: u64 = 0;

/// The `adversary_frontier` strike-rate ladder (decisions per draw).
const RATES: [f64; 6] = [2.5e-5, 5e-5, 1e-4, 2e-4, 4e-4, 8e-4];

/// How a cell's trial executes.
enum Run {
    /// An engine chosen by `Engine::with_budget_for[_faulted]`.
    Engine {
        scheduler: SchedulerKind,
        budget: u64,
        stop: Stop,
    },
    /// The naive reference loop, `Simulation`, under `scheduler`.
    Naive {
        scheduler: SchedulerKind,
        stable: PopPred,
    },
    /// `sweep_availability_vs_rate` over [`RATES`] under the periodic
    /// max-degree crash adversary, one trial per rung, then
    /// `detect_knee`.
    Ladder {
        stable: FaultPred,
        horizon: u64,
        min_alive: usize,
        /// Repair budget after the stream.
        max_steps: u64,
    },
}

/// How an engine trial decides it is done.
enum Stop {
    /// Predicate evaluated after every effective interaction.
    Step(Pred),
    /// Faulted run: the predicate reads the view and the fault state and
    /// is consulted only once every planned fault has been applied.
    Faulted(FaultPred, Faults),
}

/// The fault schedule a faulted cell compiles per trial.
enum Faults {
    /// Symmetric Poisson churn (arrivals and departures at `rate` per draw).
    Churn {
        rate: f64,
        horizon: u64,
        min_alive: usize,
    },
    /// The adaptive adversary crashing the highest-degree node once
    /// every `1/rate` draws across `horizon` draws.
    Strikes {
        rate: f64,
        horizon: u64,
        min_alive: usize,
    },
}

impl Faults {
    fn min_alive(&self) -> usize {
        match *self {
            Faults::Churn { min_alive, .. } | Faults::Strikes { min_alive, .. } => min_alive,
        }
    }

    fn compile(&self, n: usize, seed: u64) -> FaultPlan {
        match *self {
            Faults::Churn {
                rate,
                horizon,
                min_alive,
            } => ChurnPlan::new(seed)
                .arrival_rate(rate)
                .departure_rate(rate)
                .min_alive(min_alive)
                .horizon(horizon)
                .compile(n),
            Faults::Strikes {
                rate,
                horizon,
                min_alive,
            } => periodic_adversary_plan(
                rate,
                seed,
                horizon,
                &[AdversaryPolicy::CrashMaxDegree],
                min_alive,
            ),
        }
    }
}

/// What a cell's output must satisfy.
enum Check {
    /// The shape of the stabilized output graph (on the alive nodes, for
    /// faulted cells).
    Graph(Box<dyn Fn(&EdgeSet) -> bool>),
    /// The shape, read off the sparse configuration: cells too large to
    /// materialize an n² edge set.
    Sparse(fn(&SparsePop) -> bool),
    /// An availability curve with a knee inside the ladder.
    Curve,
}

/// One (protocol, size, execution) combination.
struct Cell {
    name: &'static str,
    protocol: RuleProtocol,
    table: CompiledTable,
    n: usize,
    run: Run,
    check: Check,
    /// Trial inputs per window: fewer for the costlier cells, so a
    /// window stays short enough to be replayed many times in a run.
    inputs: usize,
}

/// A predicate over the dense configuration (dense cells only).
fn dense(p: impl Fn(&Population<StateId>) -> bool + 'static) -> Pred {
    Box::new(move |v: &View<'_>| match v {
        EngineView::Dense { pop, .. } => p(pop),
        EngineView::Sparse { .. } => unreachable!("dense predicates run on dense cells only"),
    })
}

/// Cell constructors, one per execution kind.
fn engine(
    name: &'static str,
    protocol: RuleProtocol,
    n: usize,
    (scheduler, budget): (SchedulerKind, u64),
    stop: Stop,
    check: Check,
    inputs: usize,
) -> Cell {
    Cell {
        name,
        table: protocol.compile(),
        protocol,
        n,
        run: Run::Engine {
            scheduler,
            budget,
            stop,
        },
        check,
        inputs,
    }
}

fn naive(
    name: &'static str,
    protocol: RuleProtocol,
    n: usize,
    scheduler: SchedulerKind,
    stable: PopPred,
    check: Check,
    inputs: usize,
) -> Cell {
    Cell {
        name,
        table: protocol.compile(),
        protocol,
        n,
        run: Run::Naive { scheduler, stable },
        check,
        inputs,
    }
}

fn ladder(name: &'static str, protocol: RuleProtocol, stable: FaultPred, inputs: usize) -> Cell {
    // n, horizon, floor and repair budget of the adversary_frontier bench.
    Cell {
        name,
        table: protocol.compile(),
        protocol,
        n: 16,
        run: Run::Ladder {
            stable,
            horizon: 40_000,
            min_alive: 8,
            max_steps: 400_000,
        },
        check: Check::Curve,
        inputs,
    }
}

fn graph(shape: impl Fn(&EdgeSet) -> bool + 'static) -> Check {
    Check::Graph(Box::new(shape))
}

/// Maximum matching, the protocol `round_frontier` drives at n = 100k,
/// with its stop predicate: at most one unmatched node.
fn matching() -> (RuleProtocol, Pred) {
    let mut b = ProtocolBuilder::new("matching");
    let a = b.state("a");
    let m = b.state("b");
    b.rule((a, a, Link::Off), (m, m, Link::On));
    let protocol = b.build().expect("the matching protocol is valid");
    let ai = protocol.compile().state_index(&a);
    (
        protocol,
        Box::new(move |v: &View<'_>| v.count_index(ai) <= 1),
    )
}

/// Builds a workload's cells: every protocol constructed from its rule
/// listing and lowered to a compiled table. This is the timed set-up.
#[rustfmt::skip]
fn setup(workload: &str) -> Vec<Cell> {
    use SchedulerKind::{ShuffledRounds as Rounds, Uniform};
    let (dense_uniform, sparse_uniform) = ((Uniform, DENSE), (Uniform, SPARSE));
    match workload {
        // The paper's Table 2 constructors on the dense event engine at
        // rungs of the table2_constructors ladders (Faster-Global-Line:
        // open_faster_line; 3-cliques: the stabilization tests), plus
        // the naive uniform loop on Simple-Global-Line at n = 64, the
        // engine_speedup agreement point.
        "uniform" => vec![
            engine("simple-global-line", simple_global_line::protocol(), 32, dense_uniform,
                Stop::Step(dense(simple_global_line::is_stable)), graph(shape::is_spanning_line), 400),
            engine("fast-global-line", fast_global_line::protocol(), 48, dense_uniform,
                Stop::Step(dense(fast_global_line::is_stable)), graph(shape::is_spanning_line), 400),
            engine("faster-global-line", faster_global_line::protocol(), 48, dense_uniform,
                Stop::Step(dense(faster_global_line::is_stable)), graph(shape::is_spanning_line), 400),
            engine("cycle-cover", cycle_cover::protocol(), 128, dense_uniform,
                Stop::Step(dense(cycle_cover::is_stable)),
                graph(|es| shape::is_cycle_cover_with_waste(es, 2)), 400),
            engine("global-star", global_star::protocol(), 64, dense_uniform,
                Stop::Step(dense(global_star::is_stable)), graph(shape::is_spanning_star), 400),
            engine("global-ring", global_ring::protocol(), 16, dense_uniform,
                Stop::Step(dense(global_ring::is_stable)), graph(shape::is_spanning_ring), 400),
            engine("2rc", krc::protocol(2), 10, dense_uniform,
                Stop::Step(dense(|p| krc::is_stable(p, 2))),
                graph(|es| shape::is_krc_relaxed(es, 2)), 400),
            engine("3-cliques", c_cliques::protocol(3), 9, dense_uniform,
                Stop::Step(dense(|p| c_cliques::is_stable(p, 3))),
                graph(|es| shape::is_clique_partition(es, 3)), 400),
            engine("spanning-net", spanning_net::protocol(), 128, dense_uniform,
                Stop::Step(dense(spanning_net::is_stable)), graph(shape::is_spanning_net), 400),
            naive("simple-global-line-naive", simple_global_line::protocol(), 64, Uniform,
                simple_global_line::is_stable, graph(shape::is_spanning_line), 100),
        ],
        // The sparse bucket engine: the perf_smoke bucket-engine record
        // (n = 256, built on the bucket engine directly) and
        // scaling_frontier's first rung (n = 20 000, where the default
        // 512 MiB budget already selects the sparse engine), with the
        // O(1) view predicates those callers use, per step.
        "sparse" => vec![
            engine("simple-global-line", simple_global_line::protocol(), 256, sparse_uniform,
                Stop::Step(Box::new(simple_global_line::is_stable_view::<CompiledTable>)),
                graph(shape::is_spanning_line), 100),
            engine("cycle-cover", cycle_cover::protocol(), 256, sparse_uniform,
                Stop::Step(Box::new(cycle_cover::is_stable_view::<CompiledTable>)),
                graph(|es| shape::is_cycle_cover_with_waste(es, 2)), 1000),
            engine("cycle-cover-20k", cycle_cover::protocol(), 20_000, sparse_uniform,
                Stop::Step(Box::new(cycle_cover::is_stable_view::<CompiledTable>)),
                Check::Sparse(sparse_cycle_cover), 40),
        ],
        // The ShuffledRounds scheduler, sized by round_frontier: the
        // round engine on its rounds-to-converge ladder and its n = 64
        // head-to-head, where the naive round-player runs too, and the
        // sparse round engine on maximum matching at n = 100 000, where
        // the default budget selects it.
        "rounds" => {
            let (matching, matched) = matching();
            vec![
                engine("simple-global-line", simple_global_line::protocol(), 32, (Rounds, DENSE),
                    Stop::Step(dense(simple_global_line::is_stable)), graph(shape::is_spanning_line), 400),
                engine("simple-global-line-64", simple_global_line::protocol(), 64, (Rounds, DENSE),
                    Stop::Step(dense(simple_global_line::is_stable)), graph(shape::is_spanning_line), 200),
                engine("cycle-cover", cycle_cover::protocol(), 48, (Rounds, DENSE),
                    Stop::Step(dense(cycle_cover::is_stable)),
                    graph(|es| shape::is_cycle_cover_with_waste(es, 2)), 400),
                naive("simple-global-line-naive", simple_global_line::protocol(), 64, Rounds,
                    simple_global_line::is_stable, graph(shape::is_spanning_line), 60),
                engine("matching-100k", matching, 100_000, (Rounds, SPARSE),
                    Stop::Step(matched), Check::Sparse(sparse_maximum_matching), 3),
            ]
        }
        // The fault-tolerant constructors under churn_frontier's Poisson
        // churn and under one adversary_frontier rung of the adaptive
        // max-degree crash adversary (dense, and on the bucket engine as
        // the equivalence suite pairs them), then adversary_frontier's
        // availability ladders with their knee fits.
        "faults" => vec![
            engine("ft-star-churn", ft_star::protocol(), 32, dense_uniform,
                Stop::Faulted(ft_star::is_stable_faulted::<CompiledTable>,
                    Faults::Churn { rate: 1e-4, horizon: 60_000, min_alive: 8 }),
                graph(shape::is_spanning_star), 500),
            engine("ft-line-churn", ft_line::protocol(), 14, dense_uniform,
                Stop::Faulted(ft_line::is_stable_faulted::<CompiledTable>,
                    Faults::Churn { rate: 1e-4, horizon: 150_000, min_alive: 5 }),
                graph(shape::is_spanning_line), 500),
            engine("ft-star-strikes", ft_star::protocol(), 16, dense_uniform,
                Stop::Faulted(ft_star::is_stable_faulted::<CompiledTable>,
                    Faults::Strikes { rate: 1e-4, horizon: 40_000, min_alive: 8 }),
                graph(shape::is_spanning_star), 500),
            engine("ft-star-strikes-sparse", ft_star::protocol(), 16, sparse_uniform,
                Stop::Faulted(ft_star::is_stable_faulted::<CompiledTable>,
                    Faults::Strikes { rate: 1e-4, horizon: 40_000, min_alive: 8 }),
                graph(shape::is_spanning_star), 500),
            ladder("ft-star-knee", ft_star::protocol(),
                ft_star::is_stable_faulted::<CompiledTable>, 120),
            ladder("global-star-knee", global_star::protocol(),
                global_star::is_stable_faulted::<CompiledTable>, 120),
        ],
        _ => unreachable!("workload names are validated before set-up"),
    }
}

/// `properties::is_cycle_cover_with_waste(_, 2)` on the sparse
/// configuration: every component is a cycle (at least three nodes, all
/// of degree 2), a lone node, or an active pair, and at most two nodes
/// are in the latter two.
fn sparse_cycle_cover(sp: &SparsePop) -> bool {
    let n = sp.n();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        for v in sp.neighbors(u) {
            uf.union(u, v);
        }
    }
    let mut waste = 0;
    for u in 0..n {
        let (size, degree) = (uf.component_size(u), sp.degree(u));
        if size >= 3 && degree == 2 {
            continue;
        }
        if !(size == 1 || (size == 2 && degree == 1)) {
            return false;
        }
        waste += 1;
    }
    waste <= 2
}

/// `properties::is_maximum_matching` on the sparse configuration.
fn sparse_maximum_matching(sp: &SparsePop) -> bool {
    let n = sp.n();
    sp.active_count() == n / 2 && (0..n).all(|u| sp.degree(u) <= 1)
}

/// splitmix64: the benchmark's own input generator, so trial seeds do
/// not depend on the program under test.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn trial_seed(seed: u64, cell: usize, input: u64) -> u64 {
    mix(mix(mix(seed) ^ cell as u64) ^ input)
}

/// The engines a run span is attributed to, in `Layers::engine_ns` order.
const ENGINES: [&str; 5] = ["event", "bucket", "round", "round_bucket", "naive"];

fn engine_slot(eng: &Engine<CompiledTable>) -> usize {
    match eng {
        Engine::Dense { .. } => 0,
        Engine::Sparse { .. } => 1,
        Engine::Round { .. } => 2,
        Engine::RoundSparse { .. } => 3,
    }
}

/// Per-layer totals of a traced run: span durations (ns) and counters.
#[derive(Default)]
struct Layers {
    plan_ns: u128,
    build_ns: u128,
    /// Run self time (run span minus predicate spans), by engine.
    engine_ns: [u128; 5],
    predicate_ns: u128,
    predicate_calls: u128,
    /// Availability-sweep self time (sweep span minus predicate spans).
    availability_ns: u128,
    knee_ns: u128,
    verify_ns: u128,
    draws: u128,
    effective: u128,
    edge_events: u128,
    mem_bytes: u128,
    /// Scheduled plan events applied plus adversary strikes landed.
    fault_events: u128,
    adversary_decisions: u128,
}

impl Layers {
    /// Records one engine's counters after its run.
    fn counters(&mut self, draws: u64, effective: u64, edge_events: u64, mem_bytes: u64) {
        self.draws += u128::from(draws);
        self.effective += u128::from(effective);
        self.edge_events += u128::from(edge_events);
        self.mem_bytes += u128::from(mem_bytes);
    }
}

/// Accumulates the time spent inside predicate calls (the child spans
/// of a run or sweep span) when tracing.
#[derive(Default)]
struct PredClock {
    ns: std::cell::Cell<u128>,
    calls: std::cell::Cell<u64>,
}

impl PredClock {
    fn eval(&self, trace: bool, f: impl FnOnce() -> bool) -> bool {
        if !trace {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos());
        self.calls.set(self.calls.get() + 1);
        r
    }

    /// Adds the predicate spans to `layers` and returns their total.
    fn record(&self, layers: &mut Layers) -> u128 {
        layers.predicate_ns += self.ns.get();
        layers.predicate_calls += u128::from(self.calls.get());
        self.ns.get()
    }
}

/// One trial: returns its latency (everything but the output check)
/// and whether the output checked out.
fn trial(c: &Cell, seed: u64, trace: bool, layers: &mut Layers) -> (Duration, bool) {
    match &c.run {
        Run::Engine {
            scheduler,
            budget,
            stop,
        } => engine_trial(c, *scheduler, *budget, stop, seed, trace, layers),
        Run::Naive { scheduler, stable } => match scheduler {
            SchedulerKind::Uniform => naive_trial(
                c,
                || Simulation::new(c.protocol.clone(), c.n, seed),
                *stable,
                trace,
                layers,
            ),
            SchedulerKind::ShuffledRounds => naive_trial(
                c,
                || Simulation::with_scheduler(c.protocol.clone(), c.n, seed, ShuffledRounds::new()),
                *stable,
                trace,
                layers,
            ),
        },
        Run::Ladder {
            stable,
            horizon,
            min_alive,
            max_steps,
        } => ladder_trial(
            c, *stable, *horizon, *min_alive, *max_steps, seed, trace, layers,
        ),
    }
}

#[allow(clippy::too_many_arguments)] // a trial is its cell's full parameter list
fn engine_trial(
    c: &Cell,
    scheduler: SchedulerKind,
    budget: u64,
    stop: &Stop,
    seed: u64,
    trace: bool,
    layers: &mut Layers,
) -> (Duration, bool) {
    let t0 = Instant::now();
    let plan = match stop {
        Stop::Faulted(_, faults) => Some(faults.compile(c.n, mix(seed ^ 0xFA17))),
        _ => None,
    };
    let t_plan = Instant::now();
    let mut eng = match plan {
        Some(plan) => {
            Engine::with_budget_for_faulted(c.table.clone(), c.n, seed, budget, scheduler, plan)
        }
        None => Engine::with_budget_for(c.table.clone(), c.n, seed, budget, scheduler),
    };
    let t_build = Instant::now();
    let clock = PredClock::default();
    let out: RunOutcome = match stop {
        Stop::Step(p) => eng.run_until(|v| clock.eval(trace, || p(v)), MAX_STEPS),
        Stop::Faulted(p, _) => {
            eng.run_faulted_until(|v, fs| clock.eval(trace, || p(v, fs)), MAX_STEPS)
        }
    };
    let t_run = Instant::now();
    let ok = out.stabilized() && verify_engine(c, stop, &eng);
    if trace {
        layers.plan_ns += (t_plan - t0).as_nanos();
        layers.build_ns += (t_build - t_plan).as_nanos();
        let pred_ns = clock.record(layers);
        layers.engine_ns[engine_slot(&eng)] += (t_run - t_build).as_nanos() - pred_ns;
        layers.verify_ns += t_run.elapsed().as_nanos();
        layers.counters(
            eng.steps(),
            eng.effective_steps(),
            eng.edge_events(),
            eng.approx_mem_bytes(),
        );
        if let Some(fs) = eng.fault_state() {
            layers.fault_events += (fs.applied() as u128) + u128::from(fs.adversary_spent());
            layers.adversary_decisions += u128::from(fs.decisions_taken());
        }
    }
    (t_run - t0, ok)
}

fn naive_trial<S: Scheduler>(
    c: &Cell,
    build: impl FnOnce() -> Simulation<RuleProtocol, S>,
    stable: PopPred,
    trace: bool,
    layers: &mut Layers,
) -> (Duration, bool) {
    let t0 = Instant::now();
    let mut sim = build();
    let t_build = Instant::now();
    let clock = PredClock::default();
    let out = sim.run_until(|p| clock.eval(trace, || stable(p)), MAX_STEPS);
    let t_run = Instant::now();
    let es = sim.population().edges();
    let ok =
        out.stabilized() && es.n() == c.n && matches!(&c.check, Check::Graph(shape) if shape(es));
    if trace {
        layers.build_ns += (t_build - t0).as_nanos();
        let pred_ns = clock.record(layers);
        layers.engine_ns[4] += (t_run - t_build).as_nanos() - pred_ns;
        layers.verify_ns += t_run.elapsed().as_nanos();
        layers.counters(
            sim.steps(),
            sim.effective_steps(),
            sim.edge_events(),
            sim.approx_mem_bytes(),
        );
    }
    (t_run - t0, ok)
}

#[allow(clippy::too_many_arguments)] // a trial is its cell's full parameter list
fn ladder_trial(
    c: &Cell,
    stable: FaultPred,
    horizon: u64,
    min_alive: usize,
    max_steps: u64,
    seed: u64,
    trace: bool,
    layers: &mut Layers,
) -> (Duration, bool) {
    let t0 = Instant::now();
    let clock = PredClock::default();
    let points = sweep_availability_vs_rate(
        &c.protocol,
        c.n,
        &RATES,
        1,
        seed,
        |rate, seed, _n| {
            periodic_adversary_plan(
                rate,
                seed,
                horizon,
                &[AdversaryPolicy::CrashMaxDegree],
                min_alive,
            )
        },
        |v, fs| clock.eval(trace, || stable(v, fs)),
        max_steps,
    );
    let t_sweep = Instant::now();
    let knee = detect_knee(&points);
    let t_knee = Instant::now();
    let ok = points.len() == RATES.len()
        && points
            .iter()
            .zip(RATES)
            .all(|(p, rate)| p.rate == rate && (0.0..=1.0).contains(&p.availability))
        && knee.is_some_and(|k| {
            k.rate >= RATES[0]
                && k.rate <= RATES[RATES.len() - 1]
                && k.left.exponent.is_finite()
                && k.right.exponent.is_finite()
        });
    if trace {
        let pred_ns = clock.record(layers);
        layers.availability_ns += (t_sweep - t0).as_nanos() - pred_ns;
        layers.knee_ns += (t_knee - t_sweep).as_nanos();
        layers.verify_ns += t_knee.elapsed().as_nanos();
    }
    (t_knee - t0, ok)
}

/// The sparse configuration of a sparse engine.
fn sparse_view(eng: &Engine<CompiledTable>) -> Option<&SparsePop> {
    match eng {
        Engine::Sparse { sim, .. } => Some(sim.view()),
        Engine::RoundSparse { sim, .. } => Some(sim.view()),
        Engine::Dense { .. } | Engine::Round { .. } => None,
    }
}

/// Checks an engine's stabilized output graph: the cell's shape on the
/// whole population, or — for faulted cells — on the alive nodes, with
/// every crashed or never-arrived node isolated and the survivor floor
/// held.
fn verify_engine(c: &Cell, stop: &Stop, eng: &Engine<CompiledTable>) -> bool {
    if let Check::Sparse(check) = &c.check {
        return sparse_view(eng).is_some_and(|sp| sp.n() == c.n && check(sp));
    }
    let Check::Graph(shape) = &c.check else {
        return false;
    };
    let pop = eng.to_population();
    let es = pop.edges();
    match (eng.fault_state(), stop) {
        (Some(fs), Stop::Faulted(_, faults)) => {
            let alive: Vec<usize> = (0..pop.n()).filter(|&u| fs.is_alive(u)).collect();
            alive.len() == fs.alive_count()
                && alive.len() >= faults.min_alive()
                && (0..pop.n()).all(|u| fs.is_alive(u) || es.degree(u) == 0)
                && shape(&es.induced(&alive))
        }
        (None, Stop::Step(_)) => es.n() == c.n && shape(es),
        _ => false,
    }
}

/// One window's figures.
struct Window {
    /// Median of the window's `SETUP_REPS` set-up times.
    setup_s: f64,
    trials_per_s: f64,
    /// Span totals, filled only when tracing.
    layers: Layers,
}

/// Times `SETUP_REPS` samples of `SETUP_BATCH` set-ups each, then runs
/// every cell's trial inputs on the last set-up's cells, lowering
/// `fastest[cell][input]` to each trial's latency where it beats the
/// earlier replays. Every window replays the same trial inputs.
fn run_window(
    args: &Args,
    fastest: &mut [Vec<f64>],
    attempted: &mut u64,
    failed: &mut u64,
) -> Window {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            cells = setup(&args.workload);
        }
        setup_s.push(t.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    setup_s.sort_by(f64::total_cmp);

    let mut layers = Layers::default();
    let depth = fastest.iter().map(Vec::len).max().unwrap_or(0);
    let mut trials = 0usize;
    let start = Instant::now();
    // Input-major order interleaves the cells, spreading machine noise
    // evenly over them.
    for input in 0..depth {
        for (i, c) in cells.iter().enumerate() {
            if input >= c.inputs {
                continue;
            }
            let (lat, ok) = trial(
                c,
                trial_seed(args.seed, i, input as u64),
                args.trace,
                &mut layers,
            );
            let best = &mut fastest[i][input];
            *best = best.min(lat.as_secs_f64() * 1e3);
            trials += 1;
            *attempted += 1;
            if !ok {
                *failed += 1;
                eprintln!(
                    "netbench: {} n={} input {input}: output check failed",
                    c.name, c.n
                );
            }
        }
    }
    Window {
        setup_s: quantile(&setup_s, 0.5),
        trials_per_s: trials as f64 / start.elapsed().as_secs_f64(),
        layers,
    }
}

/// Nearest-rank quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run's replays: each input's fastest latency, and every window.
struct Replays {
    names: Vec<&'static str>,
    fastest: Vec<Vec<f64>>,
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
}

/// Replays the run's trial inputs window by window until `deadline`
/// (at least one window).
fn replay(args: &Args, deadline: Instant) -> Replays {
    let cells = setup(&args.workload);
    let mut r = Replays {
        names: cells.iter().map(|c| c.name).collect(),
        fastest: cells
            .iter()
            .map(|c| vec![f64::INFINITY; c.inputs])
            .collect(),
        windows: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    while r.windows.is_empty() || Instant::now() < deadline {
        let w = run_window(args, &mut r.fastest, &mut r.attempted, &mut r.failed);
        eprintln!(
            "netbench: window {:<3} {:.1} trials/s  setup {:.2} us",
            r.windows.len(),
            w.trials_per_s,
            w.setup_s * 1e6
        );
        r.windows.push(w);
    }
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("netbench: {e}");
            eprintln!(
                "usage: netbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    // Single-threaded on purpose: a second replay thread on a sibling
    // hardware thread of the same core slows both by ~1.6x.
    let Replays {
        names,
        mut fastest,
        windows,
        attempted,
        failed,
    } = replay(
        &args,
        Instant::now() + Duration::from_secs_f64(args.seconds),
    );
    let cell_count = fastest.len();
    let mut medians = Vec::with_capacity(cell_count);
    let mut p90s = Vec::with_capacity(cell_count);
    let inputs = fastest.iter().map(Vec::len).sum::<usize>() as f64;
    let serial_ms: f64 = fastest.iter().flatten().sum();
    for (name, lat) in names.iter().zip(&mut fastest) {
        lat.sort_by(f64::total_cmp);
        medians.push(quantile(lat, 0.5));
        p90s.push(quantile(lat, 0.9));
        eprintln!(
            "netbench: {name:<26} {:>4} inputs  median {:.4} ms  p90 {:.4} ms",
            lat.len(),
            quantile(lat, 0.5),
            quantile(lat, 0.9)
        );
    }
    let best = windows
        .iter()
        .max_by(|a, b| a.trials_per_s.total_cmp(&b.trials_per_s))
        .expect("at least one window ran");
    let setup_s = windows
        .iter()
        .map(|w| w.setup_s)
        .fold(f64::INFINITY, f64::min);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let l = &best.layers;
        let us = |ns: u128| ns as f64 / 1e3 / inputs;
        let per_trial = |count: u128| count as f64 / inputs;
        let engine_ns: u128 = l.engine_ns.iter().sum();
        let mut m = vec![
            ("plan_us".to_owned(), us(l.plan_ns), "us"),
            ("build_us".to_owned(), us(l.build_ns), "us"),
            ("engine_us".to_owned(), us(engine_ns), "us"),
        ];
        for (name, ns) in ENGINES.iter().zip(l.engine_ns) {
            m.push((format!("engine_{name}_us"), us(ns), "us"));
        }
        m.extend([
            ("predicate_us".to_owned(), us(l.predicate_ns), "us"),
            ("availability_us".to_owned(), us(l.availability_ns), "us"),
            ("knee_us".to_owned(), us(l.knee_ns), "us"),
            ("verify_us".to_owned(), us(l.verify_ns), "us"),
            (
                "predicate_calls".to_owned(),
                per_trial(l.predicate_calls),
                "count",
            ),
            ("draws".to_owned(), per_trial(l.draws), "count"),
            (
                "effective_steps".to_owned(),
                per_trial(l.effective),
                "count",
            ),
            ("edge_events".to_owned(), per_trial(l.edge_events), "count"),
            (
                "engine_ns_per_effective".to_owned(),
                engine_ns as f64 / l.effective.max(1) as f64,
                "ns",
            ),
            (
                "engine_mem_bytes".to_owned(),
                per_trial(l.mem_bytes),
                "bytes",
            ),
            (
                "fault_events".to_owned(),
                per_trial(l.fault_events),
                "count",
            ),
            (
                "adversary_decisions".to_owned(),
                per_trial(l.adversary_decisions),
                "count",
            ),
        ]);
        m
    } else {
        vec![
            ("trial_ms".to_owned(), geomean(&medians), "ms"),
            ("trial_p90_ms".to_owned(), geomean(&p90s), "ms"),
            ("trials_per_s".to_owned(), inputs / serial_ms * 1e3, "1/s"),
            ("setup_s".to_owned(), setup_s, "s"),
        ]
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
