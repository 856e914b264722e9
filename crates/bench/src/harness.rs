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
    let pct: usize = knob("NETCON_BENCH_SCALE").unwrap_or(100);
    (trials * pct / 100).max(2)
}

/// Reads environment knob `name` as a `T`: `None` when unset.
///
/// # Panics
///
/// Panics naming the variable and its value when it is set but malformed.
#[must_use]
pub fn knob<T: std::str::FromStr>(name: &str) -> Option<T> {
    parse_knob(name, std::env::var_os(name))
}

/// Reads the `0`/`1` switch `name`: on only when set to `1`.
///
/// # Panics
///
/// Panics naming the variable when it is set to anything but `0` or `1`,
/// so a `true` or `yes` cannot silently leave a switch off.
#[must_use]
pub fn switch(name: &str) -> bool {
    parse_switch(name, std::env::var_os(name))
}

/// [`switch`] over the variable's raw value.
fn parse_switch(name: &str, value: Option<std::ffi::OsString>) -> bool {
    match parse_knob::<String>(name, value).as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => panic!("{name}={v:?} is not a switch; set it to 0 or 1"),
    }
}

/// [`knob`] over the variable's raw value.
fn parse_knob<T: std::str::FromStr>(name: &str, value: Option<std::ffi::OsString>) -> Option<T> {
    let v = value?;
    let parsed = v.to_str().and_then(|s| s.parse().ok());
    let ty = std::any::type_name::<T>();
    Some(parsed.unwrap_or_else(|| panic!("{name}={v:?} is not a valid {ty}")))
}

#[cfg(test)]
mod tests {
    use super::{parse_knob, parse_switch};

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

    #[test]
    fn switches_are_off_unless_set_to_one() {
        assert!(!parse_switch("NETCON_FRONTIER", None));
        assert!(!parse_switch("NETCON_FRONTIER", Some("0".into())));
        assert!(parse_switch("NETCON_FRONTIER", Some("1".into())));
    }

    #[test]
    #[should_panic(expected = "NETCON_FRONTIER=\"true\" is not a switch; set it to 0 or 1")]
    fn a_malformed_switch_fails_loudly() {
        let _ = parse_switch("NETCON_FRONTIER", Some("true".into()));
    }
}
