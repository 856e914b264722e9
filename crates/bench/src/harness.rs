//! Common measurement helpers for the bench targets.

use netcon_analysis::fit::{fit_power_law, fit_power_law_log_corrected, PowerLawFit};
use netcon_analysis::sweep::SweepTable;

/// Formats a fitted exponent with its R².
#[must_use]
pub fn fmt_fit(fit: &PowerLawFit) -> String {
    format!("{:.2} (R²={:.3})", fit.exponent, fit.r_squared)
}

/// Renders the standard per-size block of a sweep: `n`, mean steps, 95%
/// CI, and mean/n² (a useful at-a-glance normalizer for the Θ(n²)-class
/// rows).
#[must_use]
pub fn sweep_rows(table: &SweepTable) -> Vec<Vec<String>> {
    table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.summary.mean),
                format!("±{:.0}", r.summary.ci95()),
                format!("{:.2}", r.summary.mean / (r.n * r.n) as f64),
            ]
        })
        .collect()
}

/// Both fits (raw and log-corrected) for a sweep.
#[must_use]
pub fn fits(table: &SweepTable) -> (PowerLawFit, PowerLawFit) {
    let pts = table.points();
    (fit_power_law(&pts), fit_power_law_log_corrected(&pts))
}

/// Reads `NETCON_BENCH_SCALE` (percent, default 100) so CI can run the
/// benches quickly while full runs keep paper-grade sample counts.
///
/// # Panics
///
/// Panics if `NETCON_BENCH_SCALE` is set but is not a whole percentage.
#[must_use]
pub fn scale(trials: usize) -> usize {
    let pct: usize = parse_knob("NETCON_BENCH_SCALE", std::env::var_os("NETCON_BENCH_SCALE"))
        .unwrap_or(100);
    (trials * pct / 100).max(2)
}

/// An environment knob's raw value parsed as a `T`: `None` when unset, a
/// panic naming the variable and its value when set but malformed.
fn parse_knob<T: std::str::FromStr>(name: &str, value: Option<std::ffi::OsString>) -> Option<T> {
    let v = value?;
    let parsed = v.to_str().and_then(|s| s.parse().ok());
    let ty = std::any::type_name::<T>();
    Some(parsed.unwrap_or_else(|| panic!("{name}={v:?} is not a valid {ty}")))
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn knobs_default_when_unset_and_parse_when_set() {
        assert_eq!(parse_knob::<usize>("SCALE", None), None);
        assert_eq!(parse_knob::<usize>("SCALE", Some("1".into())), Some(1));
    }

    #[test]
    #[should_panic(expected = "SCALE=\"1%\" is not a valid usize")]
    fn malformed_knobs_fail_loudly() {
        parse_knob::<usize>("SCALE", Some("1%".into()));
    }
}
