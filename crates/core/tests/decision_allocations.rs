//! An adversary decision reads the live configuration in place, so the
//! number of heap allocations one decision makes does not grow with the
//! population. A counting global allocator (which is why this test has a
//! binary of its own) tallies the allocations of one `CrashMaxDegree`
//! decision against a stabilized FT-Global-Star on `EventSim`, on
//! `BucketSim` and on `RoundSim`, at n = 64 and at n = 1 024. A decision
//! that copied the configuration would pay about two allocations per
//! node, and so would a repair that copied a row per notified spoke.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netcon_core::{AdversaryPlan, AdversaryPolicy, Cadence, Engine, FaultPlan, SchedulerKind};
use netcon_protocols::ft_star;

/// Counts the allocations of the current thread, so that the test
/// harness's own threads do not add to the tally.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the tally touches only a const-initialized thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The draw of the one decision: far past stabilization at either size.
const DECISION: u64 = 1 << 40;

/// The allocations of one max-degree crash decision on a stabilized
/// FT-Global-Star of `n` nodes, on the engine `budget` and `scheduler`
/// select, which must be `engine`.
fn decision_allocations(n: usize, engine: &str, budget: u64, scheduler: SchedulerKind) -> u64 {
    let adversary = AdversaryPlan::new(Cadence::burst(vec![DECISION]))
        .policy(AdversaryPolicy::CrashMaxDegree)
        .min_alive(2);
    let plan = FaultPlan::new(3).with_adversary(adversary);
    let mut eng = Engine::with_budget_for_faulted(
        ft_star::protocol().compile(),
        n,
        11,
        budget,
        scheduler,
        plan,
    );
    assert_eq!(eng.kind(), engine);
    let out = eng.run_until(ft_star::is_stable_view, DECISION - 1);
    assert!(out.stabilized(), "n = {n}: {out:?}");
    let before = ALLOCATIONS.with(Cell::get);
    eng.run_faulted_to(DECISION);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let fs = eng.fault_state().expect("faulted");
    assert_eq!(
        (fs.decisions_taken(), fs.adversary_spent(), fs.alive_count()),
        (1, 1, n - 1),
        "n = {n}: the decision crashed the centre"
    );
    assert_eq!(
        eng.to_population().edges().active_count(),
        0,
        "n = {n}: the spokes went with it"
    );
    allocations
}

#[test]
fn decision_allocations_do_not_grow_with_n() {
    let arms = [
        ("event-dense", u64::MAX, SchedulerKind::Uniform),
        ("bucket-sparse", 0, SchedulerKind::Uniform),
        ("round-dense", u64::MAX, SchedulerKind::ShuffledRounds),
    ];
    for (engine, budget, scheduler) in arms {
        let small = decision_allocations(64, engine, budget, scheduler);
        let large = decision_allocations(1_024, engine, budget, scheduler);
        assert!(
            large <= small,
            "{engine}: {small} allocations at n = 64, {large} at n = 1024"
        );
    }
}
