//! **Adversary frontier** — availability-vs-rate ladders under the
//! adaptive targeted adversary (`netcon_core::fault::adversary`),
//! locating each constructor's availability *knee* with
//! `netcon_analysis::knee`.
//!
//! The workload is the paper's sharpest robustness contrast:
//!
//! 1. *Global-Star* — a random crash almost never hits the centre, but
//!    the adaptive `CrashMaxDegree` policy always does, and the
//!    all-peripheral remnant has no enabled rule: one strike ends the
//!    run's availability forever. Its curve decays like `1/(rate ·
//!    horizon)` — the measured cost of having no repair path.
//! 2. *FT-Global-Star* (arXiv 1903.05992) — crash notifications re-mint
//!    the widowed spokes as centre candidates, so the star re-elects
//!    after every strike and only the re-election windows are lost. Its
//!    knee is where the `min_alive` guardrail starts saturating the
//!    damage (the floor caps cumulative crashes, so past the knee the
//!    per-strike cost flattens) — the measured shape of *guardrailed*
//!    graceful degradation, against Global-Star's collapse knee.
//!
//! Degradation guardrails enforced on the measured curves: both ladders
//! monotone non-increasing (up to trial noise), FT-star at least as
//! available as Global-Star at every rung, and a detected knee on each.
//!
//! The ladders run at n = 16 over 40k-draw measurements with a
//! `min_alive` floor of 8. They live in [`netcon_bench::frontier`],
//! shared with `perf_smoke`'s record; trials per rung ride
//! `NETCON_BENCH_SCALE` like every other target.

use netcon_analysis::knee::{detect_knee, monotone_nonincreasing, RatePoint};
use netcon_bench::frontier::{adversary_frontier, rung_trials, STRIKE_RATES};

fn report(name: &str, points: &[RatePoint]) {
    println!("{name}:");
    for p in points {
        println!(
            "  rate {:>8.1e}/draw: mean fraction available {:>6.3}",
            p.rate, p.availability
        );
        assert!(
            (0.0..=1.0).contains(&p.availability),
            "{name}: fraction {} out of range",
            p.availability
        );
    }
    match detect_knee(points) {
        Some(k) => println!(
            "  knee at rate {:.2e} (slopes {:.2} → {:.2})\n",
            k.rate, k.left.exponent, k.right.exponent
        ),
        None => println!("  no knee (ladder too short)\n"),
    }
}

fn main() {
    println!("=== Adversary frontier: availability vs targeted strike rate ===\n");
    let (ft, plain) = adversary_frontier(rung_trials());
    report("ft-global-star", &ft);
    report("global-star", &plain);

    // Degradation guardrails: more adversary must never mean more
    // availability, and the notified re-election must dominate the
    // unrepairable baseline at every rung.
    assert!(
        monotone_nonincreasing(&ft, 0.08),
        "ft-star availability rose with the strike rate: {ft:?}"
    );
    assert!(
        monotone_nonincreasing(&plain, 0.08),
        "global-star availability rose with the strike rate: {plain:?}"
    );
    for (f, p) in ft.iter().zip(&plain) {
        assert!(
            f.availability + 0.02 >= p.availability,
            "FT-star less available than Global-Star at rate {:e}: {} vs {}",
            f.rate,
            f.availability,
            p.availability
        );
    }
    let knee = detect_knee(&ft).expect("6-rung ladder has a knee");
    assert!(
        knee.rate >= STRIKE_RATES[0] && knee.rate <= STRIKE_RATES[STRIKE_RATES.len() - 1],
        "knee inside the ladder: {knee:?}"
    );
    println!("guardrails hold: monotone curves, FT-star dominates, knee detected");
}
