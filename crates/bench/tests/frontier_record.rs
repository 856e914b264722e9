//! Pins the three fault-frontier sweeps to the numbers `perf_smoke`
//! records for them at `NETCON_BENCH_SCALE=1` (4, 4 and 3 trials), at
//! the JSON record's printed precision. The sweeps are deterministic
//! per seed, so any drift here is a changed trajectory or a changed
//! sweep parameter, not noise.

use netcon_analysis::knee::{detect_knee, RatePoint};
use netcon_analysis::sweep::SweepTable;
use netcon_bench::frontier::{adversary_frontier, churn_frontier, perturbation_frontier};

/// `n mean sd median max` per row, as `perturbation_frontier` prints them.
fn repair_rows(table: &SweepTable) -> Vec<String> {
    table
        .rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            format!(
                "{} {:.1} {:.1} {:.1} {:.0}",
                r.n, s.mean, s.std_dev, s.median, s.max
            )
        })
        .collect()
}

/// `n mean sd min` per row, as `churn_frontier` prints them.
fn availability_rows(table: &SweepTable) -> Vec<String> {
    table
        .rows
        .iter()
        .map(|r| {
            let s = &r.summary;
            format!("{} {:.4} {:.4} {:.4}", r.n, s.mean, s.std_dev, s.min)
        })
        .collect()
}

/// `rate availability` per rung plus the knee line, as
/// `adversary_frontier` prints them.
fn ladder_rows(curve: &[RatePoint]) -> Vec<String> {
    let mut rows: Vec<String> = curve
        .iter()
        .map(|p| format!("{:e} {:.4}", p.rate, p.availability))
        .collect();
    let k = detect_knee(curve).expect("six rungs have a knee");
    rows.push(format!(
        "knee {:e} {:.3} {:.3}",
        k.rate, k.left.exponent, k.right.exponent
    ));
    rows
}

#[test]
fn perturbation_frontier_matches_the_scale_1_record() {
    let (matching, star) = perturbation_frontier(4);
    assert_eq!(
        repair_rows(&matching),
        ["25 363.0 424.4 259.5 933", "49 1600.5 1180.6 1378.0 3035"]
    );
    assert_eq!(
        repair_rows(&star),
        ["25 294.0 305.4 239.5 674", "49 1572.5 776.6 1619.5 2470"]
    );
}

#[test]
fn churn_frontier_matches_the_scale_1_record() {
    let (star, line) = churn_frontier(4);
    assert_eq!(
        availability_rows(&star),
        ["16 0.8793 0.0717 0.8147", "32 0.7753 0.1364 0.6349"]
    );
    assert_eq!(
        availability_rows(&line),
        ["10 0.6101 0.0692 0.5519", "14 0.4673 0.1643 0.3355"]
    );
}

#[test]
fn adversary_frontier_matches_the_scale_1_record() {
    let (ft, plain) = adversary_frontier(3);
    assert_eq!(
        ladder_rows(&ft),
        [
            "2.5e-5 0.9850",
            "5e-5 0.9719",
            "1e-4 0.9366",
            "2e-4 0.8815",
            "4e-4 0.8594",
            "8e-4 0.8671",
            "knee 1.414213562373095e-4 -0.036 -0.012",
        ]
    );
    assert_eq!(
        ladder_rows(&plain),
        [
            "2.5e-5 0.9822",
            "5e-5 0.4787",
            "1e-4 0.2338",
            "2e-4 0.1076",
            "4e-4 0.0470",
            "8e-4 0.0179",
            "knee 2.82842712474619e-4 -1.060 -1.390",
        ]
    );
}
