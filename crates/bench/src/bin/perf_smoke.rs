//! Executes every bench target (not just compiles them) and writes
//! `BENCH_PR10.json`: per-bench wall-clock, the engine speedup records
//! (uniform *and* ShuffledRounds), per-engine measured memory, the
//! fault-layer repair-time record (`perturbation_frontier`), the
//! continuous-churn availability record (`churn_frontier`), the
//! adaptive-adversary knee record (`adversary_frontier`), and the
//! frontier ladders — plus an optional regression gate against a
//! committed baseline. `crates/bench/README.md` documents the JSON
//! schema, the carry-forward rules, and the `--check` semantics.
//!
//! ```sh
//! NETCON_BENCH_SCALE=1 cargo run --release -p netcon-bench --bin perf_smoke
//! NETCON_BENCH_SCALE=1 cargo run --release -p netcon-bench --bin perf_smoke -- \
//!     --out bench-smoke.json --check BENCH_PR10.json   # CI gate
//! ```
//!
//! `NETCON_BENCH_SCALE` (percent) is inherited by the spawned bench
//! processes and by the in-process engine measurement; CI uses the
//! minimum (1) so the whole suite stays in smoke-test territory. The
//! output path defaults to `BENCH_PR10.json` in the workspace root
//! (`--out <path>` overrides). The `perturbation_frontier`,
//! `churn_frontier`, and `adversary_frontier` sections are cheap and
//! always regenerated live, from the same [`netcon_bench::frontier`]
//! sweeps their bench targets print.
//!
//! `engine_micro`'s output is captured, echoed, and parsed into the
//! `engine_micro` section: one mean ns/iter per micro-bench.
//!
//! `--check <baseline.json>` compares this run against the baseline's
//! `benches` wall-clocks and `engine_micro` ns/iter, and exits non-zero
//! when any target or micro-bench regressed by more than
//! `NETCON_BENCH_TOLERANCE` × (default 2.5×; walls have a small-time
//! floor of 0.1 s); the failure message names every offender with both
//! figures, the measured ratio, and the active tolerance.
//! `engine_micro`'s own wall is recorded but not gated: each of its
//! benches runs for a fixed budget, so that wall counts benches, not
//! speed. The gate only fires when the two runs used the same
//! `bench_scale_pct` — comparing a smoke run against a full-scale record
//! would be noise.
//!
//! Expensive sections are regenerated only on request and carried
//! forward otherwise: `scaling_frontier` (bucket engine at n ∈
//! {20k, 50k, 100k}, ~15 min) under `NETCON_FRONTIER=1`,
//! `round_frontier` (RoundSim ladder at n ∈ {256, 512, 1024}) under
//! `NETCON_ROUND_FRONTIER=1`, `mega_frontier`
//! (Simple-Global-Line at n = 10⁶ on the batched-endgame path, with
//! its ≤ 60 s single-core acceptance gate) under
//! `NETCON_MEGA_FRONTIER=1`, and `large_sample_agreement_n256` under
//! `NETCON_NAIVE_TRIALS_256=<k>`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use netcon_analysis::knee::detect_knee;
use netcon_bench::frontier::{
    adversary_frontier, churn_frontier, perturbation_frontier, rung_trials, scaling_workloads,
    sweep_trials, ADVERSARY_HORIZON, ADVERSARY_MIN_ALIVE, ADVERSARY_N, CHURN_RATE,
    FRONTIER_SIZES, LINE_CHURN_HORIZON, MATCHING_BURST, STAR_CHURN_HORIZON, STAR_SPOKES,
};
use netcon_bench::harness::{knob, scale, switch};
use netcon_bench::speedup::{bucket_stats, compare_engines, compare_round_engines, Comparison};
use netcon_core::{
    BucketSim, CompiledTable, EngineView, EventSim, ExactEngine, RoundSim, Simulation,
};
use netcon_protocols::{cycle_cover, fast_global_line, simple_global_line};

fn bench_targets(bench_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(bench_dir)
        .expect("crates/bench/benches exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".rs").map(str::to_owned)
        })
        .collect();
    names.sort();
    names
}

/// Extracts a top-level `"key": { … }` object (key line through its
/// matching closing brace, no trailing comma/newline) from an existing
/// output file, so cheap re-runs preserve expensive records.
///
/// The needle is anchored to the section's own line (`\n  "key": {`):
/// a bench *target* of the same name appears earlier in the file as
/// `{ "name": "key", … }` inside the `benches` array, and an unanchored
/// search used to latch onto that row and carry forward garbage.
fn carry_forward_section(out_path: &Path, key: &str) -> Option<String> {
    let old = std::fs::read_to_string(out_path).ok()?;
    let needle = format!("\n  \"{key}\": {{");
    let start = old.find(&needle)? + 1;
    let brace = start + old[start..].find('{')?;
    let mut depth = 0usize;
    for (i, ch) in old[brace..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(old[start..=brace + i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// The bench target whose per-bench figures are recorded and gated
/// instead of its wall-clock.
const MICRO: &str = "engine_micro";

/// The `(id, ns/iter)` rows of the criterion stand-in's output: its
/// `bench <id> <ns> ns/iter (<k> iters)` lines.
///
/// # Panics
///
/// Panics on a `bench ` line of any other shape, so a format change
/// cannot empty the gate unseen.
fn micro_rows(stdout: &str) -> Vec<(String, f64)> {
    let rows = stdout.lines().filter_map(|line| {
        let mut t = line.strip_prefix("bench ")?.split_whitespace();
        let (id, ns, unit) = (
            t.next(),
            t.next().and_then(|ns| ns.parse::<f64>().ok()),
            t.next(),
        );
        Some(match (id, ns, unit) {
            (Some(id), Some(ns), Some("ns/iter")) if ns.is_finite() => (id.to_owned(), ns),
            _ => panic!("{MICRO} printed a malformed bench line: {line:?}"),
        })
    });
    rows.collect()
}

/// One `{ "<key>": "<id>", "<value>": <number> }` row line.
fn parse_row(line: &str, key: &str, value: &str) -> Option<(String, f64)> {
    let rest = line.strip_prefix(&format!("{{ \"{key}\": \""))?;
    let (id, rest) = rest.split_once('"')?;
    let num = rest.strip_prefix(&format!(", \"{value}\": "))?;
    let num = num.trim_end_matches(',').strip_suffix('}')?.trim();
    let x: f64 = num.parse().ok()?;
    x.is_finite().then(|| (id.to_owned(), x))
}

/// The row lines of the section opened by the line `header`, up to its
/// first `]`, parsed by [`parse_row`]; empty when the section is absent.
/// A row that does not parse is an error, not a missing baseline.
fn section_rows(
    text: &str,
    header: &str,
    key: &str,
    value: &str,
) -> Result<Vec<(String, f64)>, String> {
    let mut lines = text.lines().map(str::trim).skip_while(|l| *l != header);
    if lines.next().is_none() {
        return Ok(Vec::new());
    }
    lines
        .take_while(|l| !l.starts_with(']'))
        .filter(|l| l.starts_with('{'))
        .map(|l| parse_row(l, key, value).ok_or_else(|| format!("malformed baseline row: {l}")))
        .collect()
}

/// The regression gate over a baseline record's text: every target in
/// both runs must stay within `tolerance ×` of its baseline wall (with a
/// 0.1 s floor so sub-second targets cannot flake the gate on scheduler
/// noise), and every `engine_micro` bench within `tolerance ×` of its
/// baseline ns/iter. Targets and benches the baseline lacks are
/// reported, not failed.
fn gate(
    text: &str,
    current_scale: &str,
    rows: &[(String, f64)],
    micro: &[(String, f64)],
) -> Result<(), String> {
    let base_scale = text
        .find("\"bench_scale_pct\"")
        .and_then(|i| text[i..].split('"').nth(3))
        .unwrap_or_default();
    if base_scale != current_scale {
        println!(
            "--check: baseline scale {base_scale}% != current {current_scale}%; \
             gate skipped (regenerate the baseline at the matching scale)"
        );
        return Ok(());
    }
    let base_rows = section_rows(text, "\"benches\": [", "name", "wall_s")?;
    let base_micro = section_rows(text, &format!("\"{MICRO}\": {{"), "id", "ns_per_iter")?;
    let tolerance: f64 = knob("NETCON_BENCH_TOLERANCE").unwrap_or(2.5);
    println!("tolerance {tolerance}x");
    let mut failures = Vec::new();
    let mut judge = |label: &str, now: f64, base: Option<f64>, floor: f64, unit: &str| {
        let Some(base) = base else {
            println!("  {label:<56} {now:>14.3} {unit} (new, no baseline)");
            return;
        };
        let ratio = now / base.max(floor);
        let regressed = ratio > tolerance;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        println!("  {label:<56} {now:>14.3} {unit} vs {base:>14.3} ({ratio:>5.2}x) {verdict}");
        if regressed {
            let over = if floor > 0.0 {
                format!(" over max(baseline, {floor} {unit})")
            } else {
                String::new()
            };
            failures.push(format!(
                "{label}: current {now:.3} {unit} vs baseline {base:.3} {unit} \
                 ({ratio:.2}x, tolerance {tolerance}x{over})"
            ));
        }
    };
    let lookup = |rows: &[(String, f64)], id: &str| rows.iter().find(|(b, _)| b == id).map(|r| r.1);
    for (name, wall) in rows {
        if name == MICRO {
            println!("  {name:<56} {wall:>14.3} s (not gated: its benches are)");
        } else {
            judge(name, *wall, lookup(&base_rows, name), 0.1, "s");
        }
    }
    for (id, ns) in micro {
        judge(
            &format!("{MICRO} {id}"),
            *ns,
            lookup(&base_micro, id),
            0.0,
            "ns/iter",
        );
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} regressed beyond {tolerance}x:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// [`gate`] against the baseline file at `baseline_path`.
fn check_against_baseline(
    baseline_path: &Path,
    current_scale: &str,
    rows: &[(String, f64)],
    micro: &[(String, f64)],
) -> Result<(), String> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {}: {e}", baseline_path.display()))?;
    println!("\n--check against {}:", baseline_path.display());
    gate(&text, current_scale, rows, micro).map_err(|e| format!("{}: {e}", baseline_path.display()))
}

/// The `engine_micro` section: one mean ns/iter per micro-bench.
fn micro_section(micro: &[(String, f64)]) -> String {
    let mut s = format!("  \"{MICRO}\": {{\n");
    let _ = writeln!(
        s,
        "    \"note\": \"mean ns/iter of each {MICRO} bench (criterion stand-in); regenerated live on every run, gated per bench by --check\","
    );
    s.push_str("    \"rows\": [\n");
    for (i, (id, ns)) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{ \"id\": \"{id}\", \"ns_per_iter\": {ns:.1} }}{comma}"
        );
    }
    s.push_str("    ]\n  }");
    s
}

fn json_engine(out: &mut String, key: &str, c: &Comparison) {
    let _ = write!(
        out,
        "    \"{key}\": {{\n      \"n\": {},\n      \"event_trials\": {},\n      \"event_mean_converged_at\": {:.1},\n      \"event_mean_total_steps\": {:.1},\n      \"event_mean_effective_steps\": {:.1},\n      \"event_wall_s\": {:.4},\n      \"naive_trials\": {},\n      \"naive_mean_converged_at\": {:.1},\n      \"naive_wall_s\": {:.4},\n      \"speedup_per_trial\": {:.1},\n      \"mean_rel_diff\": {:.4}\n    }}",
        c.n,
        c.event.trials,
        c.event.mean_converged,
        c.event.mean_steps,
        c.event.mean_effective,
        c.event.wall_s,
        c.naive.trials,
        c.naive.mean_converged,
        c.naive.wall_s,
        c.speedup,
        c.mean_rel_diff,
    );
}

/// Constructed-engine memory at a ladder of sizes: the measured
/// Θ(n²)-vs-O(n) record (`approx_mem_bytes`, not an estimate). Engines
/// whose construction would not fit the CI box are reported as `null`.
fn engine_memory_section() -> String {
    let protocol = simple_global_line::protocol();
    let compiled = protocol.compile();
    let mut s = String::from("  \"engine_memory_bytes\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"approx_mem_bytes of freshly constructed engines, Simple-Global-Line; null = dense structures would not fit the CI box\","
    );
    s.push_str("    \"rows\": [\n");
    let sizes = [256usize, 2_000, 8_000, 20_000, 100_000];
    for (i, &n) in sizes.iter().enumerate() {
        let naive = if n <= 20_000 {
            format!("{}", Simulation::new(protocol.clone(), n, 1).approx_mem_bytes())
        } else {
            "null".into()
        };
        let event = if n <= 8_000 {
            format!("{}", EventSim::new(compiled.clone(), n, 1).approx_mem_bytes())
        } else {
            "null".into()
        };
        let bucket = BucketSim::new(compiled.clone(), n, 1).approx_mem_bytes();
        let event_estimate = EventSim::<CompiledTable>::dense_mem_estimate(n);
        let comma = if i + 1 < sizes.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{ \"n\": {n}, \"naive\": {naive}, \"event\": {event}, \"event_estimate\": {event_estimate}, \"bucket\": {bucket} }}{comma}"
        );
    }
    s.push_str("    ]\n  }");
    s
}

/// The bucket engine's head-to-head record at n = 256 (its overhead
/// regime: small n, where the dense engine is fastest), with the
/// measured memory column.
fn bucket_engine_section(scale_trials: usize) -> String {
    let mut s = String::from("  \"bucket_engine\": {\n");
    let mut first = true;
    for (key, protocol, stable) in [
        (
            "simple_global_line_n256",
            simple_global_line::protocol(),
            simple_global_line::is_stable_view as fn(&EngineView<'_, CompiledTable>) -> bool,
        ),
        (
            "cycle_cover_n256",
            cycle_cover::protocol(),
            cycle_cover::is_stable_view,
        ),
    ] {
        let (stats, mem) = bucket_stats(&protocol, stable, 256, scale_trials, 9);
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = write!(
            s,
            "    \"{key}\": {{\n      \"n\": 256,\n      \"trials\": {},\n      \"mean_converged_at\": {:.1},\n      \"mean_effective_steps\": {:.1},\n      \"wall_s\": {:.4},\n      \"approx_mem_bytes\": {}\n    }}",
            stats.trials, stats.mean_converged, stats.mean_effective, stats.wall_s, mem
        );
    }
    s.push_str("\n  }");
    s
}

/// The ShuffledRounds head-to-head record at n = 256: `RoundSim` vs the
/// naive round-playing loop on Simple-Global-Line, with convergence in
/// draws and rounds — the speedup-over-naive-ShuffledRounds acceptance
/// record.
fn round_engine_section(round_trials: usize, naive_trials: usize) -> (String, f64) {
    let c = compare_round_engines(
        &simple_global_line::protocol(),
        simple_global_line::is_stable,
        256,
        round_trials,
        naive_trials,
        9,
    );
    let mut s = String::from("  \"round_engine\": {\n");
    let _ = write!(
        s,
        "    \"simple_global_line_n256\": {{\n      \"n\": {},\n      \"scheduler\": \"shuffled-rounds\",\n      \"round_trials\": {},\n      \"round_mean_converged_at\": {:.1},\n      \"round_mean_rounds\": {:.1},\n      \"round_mean_effective_steps\": {:.1},\n      \"round_wall_s\": {:.4},\n      \"naive_trials\": {},\n      \"naive_mean_converged_at\": {:.1},\n      \"naive_mean_rounds\": {:.1},\n      \"naive_wall_s\": {:.4},\n      \"speedup_per_trial\": {:.1},\n      \"mean_rel_diff\": {:.4}\n    }}\n  }}",
        c.n,
        c.round.trials,
        c.round.mean_converged,
        c.round_mean_rounds,
        c.round.mean_effective,
        c.round.wall_s,
        c.naive.trials,
        c.naive.mean_converged,
        c.naive_mean_rounds,
        c.naive.wall_s,
        c.speedup,
        c.mean_rel_diff,
    );
    (s, c.speedup)
}

/// The round-frontier record: `RoundSim` alone at n ∈ {256, 512, 1024}
/// — sizes whose naive round-player would take hours. Only under
/// `NETCON_ROUND_FRONTIER=1`.
fn round_frontier_section() -> String {
    let protocol = simple_global_line::protocol().compile();
    let mut s = String::from("  \"round_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"regenerate with NETCON_ROUND_FRONTIER=1 cargo run --release -p netcon-bench --bin perf_smoke; runs without that variable carry this section forward\","
    );
    let _ = writeln!(s, "    \"simple_global_line\": [");
    let sizes = [256usize, 512, 1024];
    for (i, &n) in sizes.iter().enumerate() {
        println!("==> round frontier: simple_global_line n = {n} (RoundSim)");
        let m = (n as u64) * (n as u64 - 1) / 2;
        let t0 = Instant::now();
        let mut sim = RoundSim::new(protocol.clone(), n, 2014 + n as u64);
        let out = sim.run_until(simple_global_line::is_stable, u64::MAX);
        let wall = t0.elapsed().as_secs_f64();
        let converged = out
            .converged_at()
            .unwrap_or_else(|| panic!("simple_global_line did not stabilize at n={n}"));
        let comma = if i + 1 < sizes.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "      {{ \"n\": {n}, \"engine\": \"round-dense\", \"converged_at\": {converged}, \"converged_rounds\": {}, \"effective_steps\": {}, \"wall_s\": {wall:.2}, \"approx_mem_bytes\": {} }}{comma}",
            converged.div_ceil(m),
            sim.effective_steps(),
            sim.approx_mem_bytes(),
        );
    }
    s.push_str("    ]\n  }");
    s
}

/// The fault-layer repair-time record: [`perturbation_frontier`], the
/// sweeps the bench target of the same name prints. Cheap at these
/// sizes, so it regenerates live on every run, including CI's scale-1
/// smoke: the fault layer has no carried-forward blind spot.
fn perturbation_frontier_section() -> String {
    let trials = sweep_trials();
    let (matching, star) = perturbation_frontier(trials);
    let mut s = String::from("  \"perturbation_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"mean steps from a seeded fault burst back to stability (netcon_analysis::repair); regenerated live on every run\","
    );
    let mut first = true;
    for (key, sev, table) in [
        ("maximum_matching", MATCHING_BURST, &matching),
        ("global_star_spokes", STAR_SPOKES, &star),
    ] {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = writeln!(
            s,
            "    \"{key}\": {{\n      \"severity\": \"{},{},{}\",\n      \"trials\": {trials},\n      \"rows\": [",
            sev.crashes, sev.arrivals, sev.edge_deletions
        );
        for (i, row) in table.rows.iter().enumerate() {
            let comma = if i + 1 < table.rows.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{ \"n\": {}, \"mean_repair_steps\": {:.1}, \"sd\": {:.1}, \"median\": {:.1}, \"max\": {:.0} }}{comma}",
                row.n, row.summary.mean, row.summary.std_dev, row.summary.median, row.summary.max
            );
        }
        let _ = write!(s, "      ]\n    }}");
    }
    s.push_str("\n  }");
    s
}

/// The continuous-churn availability record: [`churn_frontier`], the
/// FT-Global-Star and FT-Spanning-Line sweeps the bench target of the
/// same name prints. Cheap at these sizes, so it regenerates live on
/// every run, including CI's scale-1 smoke.
fn churn_frontier_section() -> String {
    let trials = sweep_trials();
    let (star, line) = churn_frontier(trials);
    let mut s = String::from("  \"churn_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"mean fraction of draws with a stable output under sustained Poisson churn (netcon_analysis::availability); regenerated live on every run\","
    );
    let mut first = true;
    for (key, horizon, table) in [
        ("ft_global_star", STAR_CHURN_HORIZON, &star),
        ("ft_spanning_line", LINE_CHURN_HORIZON, &line),
    ] {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = writeln!(
            s,
            "    \"{key}\": {{\n      \"rate_per_draw_each_way\": {CHURN_RATE:e},\n      \"horizon_draws\": {horizon},\n      \"trials\": {trials},\n      \"rows\": [",
        );
        for (i, row) in table.rows.iter().enumerate() {
            let comma = if i + 1 < table.rows.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{ \"n\": {}, \"mean_fraction_available\": {:.4}, \"sd\": {:.4}, \"min\": {:.4} }}{comma}",
                row.n, row.summary.mean, row.summary.std_dev, row.summary.min
            );
        }
        let _ = write!(s, "      ]\n    }}");
    }
    s.push_str("\n  }");
    s
}

/// The adaptive-adversary knee record: [`adversary_frontier`], the
/// Global-Star vs FT-Global-Star ladders the bench target of the same
/// name asserts its guardrails on, with the two-segment log–log knee of
/// each curve. Cheap at these sizes, so it regenerates live on every
/// run, including CI's scale-1 smoke.
fn adversary_frontier_section() -> String {
    let trials = rung_trials();
    let (ft, plain) = adversary_frontier(trials);
    let mut s = String::from("  \"adversary_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"mean fraction of draws with a stable output under the adaptive CrashMaxDegree cadence, vs strike rate (netcon_analysis::knee); regenerated live on every run\","
    );
    let _ = writeln!(s, "    \"policy\": \"crash-max-degree\",");
    let _ = writeln!(
        s,
        "    \"n\": {ADVERSARY_N},\n    \"min_alive\": {ADVERSARY_MIN_ALIVE},\n    \"horizon_draws\": {ADVERSARY_HORIZON},\n    \"trials\": {trials},"
    );
    let mut first = true;
    for (key, curve) in [("ft_global_star", &ft), ("global_star", &plain)] {
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = writeln!(s, "    \"{key}\": {{\n      \"rows\": [");
        for (i, p) in curve.iter().enumerate() {
            let comma = if i + 1 < curve.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "        {{ \"rate_per_draw\": {:e}, \"mean_fraction_available\": {:.4} }}{comma}",
                p.rate, p.availability
            );
        }
        s.push_str("      ],\n");
        match detect_knee(curve) {
            Some(k) => {
                let _ = writeln!(
                    s,
                    "      \"knee\": {{ \"rate_per_draw\": {:e}, \"left_exponent\": {:.3}, \"right_exponent\": {:.3} }}",
                    k.rate, k.left.exponent, k.right.exponent
                );
            }
            None => {
                let _ = writeln!(s, "      \"knee\": null");
            }
        }
        let _ = write!(s, "    }}");
    }
    s.push_str("\n  }");
    s
}

/// The frontier record: [`scaling_workloads`] at [`FRONTIER_SIZES`].
/// ~15 minutes of single-core work — only under `NETCON_FRONTIER=1`.
fn scaling_frontier_section() -> String {
    let mut s = String::from("  \"scaling_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"regenerate with NETCON_FRONTIER=1 cargo run --release -p netcon-bench --bin perf_smoke (~15 min); runs without that variable carry this section forward\","
    );
    let mut first = true;
    for workload in scaling_workloads() {
        let key = workload.key;
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let _ = writeln!(s, "    \"{key}\": [");
        for (i, n) in FRONTIER_SIZES.into_iter().enumerate() {
            println!("==> frontier: {key} n = {n} (bucket engine)");
            let row = workload.run(n);
            let comma = if i + 1 < FRONTIER_SIZES.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "      {{ \"n\": {n}, \"engine\": \"bucket-sparse\", \"converged_at\": {}, \"effective_steps\": {}, \"wall_s\": {:.2}, \"approx_mem_bytes\": {}, \"event_mem_estimate_bytes\": {} }}{comma}",
                row.converged_at,
                row.effective_steps,
                row.wall.as_secs_f64(),
                row.mem_bytes,
                row.dense_estimate_bytes,
            );
        }
        let _ = write!(s, "    ]");
    }
    s.push_str("\n  }");
    s
}

/// The million-node record: Simple-Global-Line at n = 10⁶ on the
/// bucket engine's batched-endgame path, with the frontier acceptance
/// gate asserted inline (≤ 60 s on one core). One serial run — the
/// bench box is single-core, and a gate racing other work would read
/// 10–60× slow — and only under `NETCON_MEGA_FRONTIER=1`.
fn mega_frontier_section() -> String {
    let n = 1_000_000usize;
    let compiled = simple_global_line::protocol().compile();
    let mut s = String::from("  \"mega_frontier\": {\n");
    let _ = writeln!(
        s,
        "    \"note\": \"regenerate with NETCON_MEGA_FRONTIER=1 cargo run --release -p netcon-bench --bin perf_smoke (one serial run, ~30 s; keep the box otherwise idle); runs without that variable carry this section forward\","
    );
    let _ = writeln!(s, "    \"gate\": \"wall_s <= 60 on one core\",");
    println!("==> mega frontier: simple_global_line n = {n} (bucket engine, batched endgame)");
    let t0 = Instant::now();
    let mut sim = BucketSim::new(compiled.clone(), n, 2014 + n as u64);
    // `run_until_edges`, not `run_until`: the edge-count predicate only
    // changes when an edge does, and that is the entry point where the
    // batched endgame engages (per-effective-step predicates cannot
    // batch — whole walker excursions would skip their evaluation
    // points, turning the last few walkers back into ~10¹¹ drawn
    // events and the 20 s record into minutes).
    let out = sim.run_until_edges(
        |sp| simple_global_line::is_stable_view(&EngineView::Sparse { sp, machine: &compiled }),
        u64::MAX,
    );
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        out.stabilized(),
        "simple_global_line did not stabilize at n={n}"
    );
    assert!(
        wall <= 60.0,
        "mega frontier gate: Simple-Global-Line n={n} took {wall:.1}s (> 60 s)"
    );
    // `converged_at()` saturates at u64::MAX here (~10¹⁹ sequential
    // draws); the wide counter holds the exact count.
    let _ = writeln!(
        s,
        "    \"simple_global_line\": [\n      {{ \"n\": {n}, \"engine\": \"bucket-sparse\", \"converged_at\": {}, \"effective_steps\": {}, \"wall_s\": {wall:.2}, \"approx_mem_bytes\": {} }}\n    ]",
        sim.steps_wide(),
        sim.effective_steps_wide(),
        sim.approx_mem_bytes(),
    );
    s.push_str("  }");
    s
}

fn main() {
    let (out_path, check_path) = {
        let mut args = std::env::args().skip(1);
        let mut out: Option<PathBuf> = None;
        let mut check: Option<PathBuf> = None;
        while let Some(a) = args.next() {
            if a == "--out" {
                out = Some(PathBuf::from(args.next().expect("--out requires a path")));
            } else if let Some(p) = a.strip_prefix("--out=") {
                out = Some(PathBuf::from(p));
            } else if a == "--check" {
                check = Some(PathBuf::from(args.next().expect("--check requires a path")));
            } else if let Some(p) = a.strip_prefix("--check=") {
                check = Some(PathBuf::from(p));
            } else {
                // Refuse rather than silently overwrite the committed
                // baseline on a typo.
                panic!("unrecognized argument {a:?}; usage: perf_smoke [--out <path>] [--check <baseline>]");
            }
        }
        (
            out.unwrap_or_else(|| {
                Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR10.json")
            }),
            check,
        )
    };
    // Every knob is read before any bench runs, so a malformed one fails
    // at once rather than after the suite.
    let scale_pct: usize = knob("NETCON_BENCH_SCALE").unwrap_or(100);
    let [regen_frontier, regen_round_frontier, regen_mega_frontier] = [
        "NETCON_FRONTIER",
        "NETCON_ROUND_FRONTIER",
        "NETCON_MEGA_FRONTIER",
    ]
    .map(switch);
    let ref_trials: usize = knob("NETCON_NAIVE_TRIALS_256").unwrap_or(0);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");

    // Warm build so compilation never lands inside a target's wall-clock
    // (a cold CI cache would otherwise trip the regression gate).
    println!("==> cargo bench --no-run (warm build, untimed)");
    let status = Command::new(&cargo)
        .args(["bench", "-p", "netcon-bench", "--no-run"])
        .status()
        .expect("failed to spawn cargo bench --no-run");
    assert!(status.success(), "bench warm build failed");

    let mut rows = Vec::new();
    let mut micro = Vec::new();
    for name in bench_targets(&bench_dir) {
        println!("==> cargo bench --bench {name}");
        let mut bench = Command::new(&cargo);
        bench.args(["bench", "-p", "netcon-bench", "--bench", &name]);
        let t0 = Instant::now();
        let (status, stdout) = if name == MICRO {
            let out = bench.stderr(Stdio::inherit()).output();
            let out = out.expect("failed to spawn cargo bench");
            (out.status, Some(out.stdout))
        } else {
            (bench.status().expect("failed to spawn cargo bench"), None)
        };
        let wall = t0.elapsed().as_secs_f64();
        if let Some(stdout) = stdout {
            let stdout = String::from_utf8_lossy(&stdout);
            print!("{stdout}");
            micro = micro_rows(&stdout);
        }
        assert!(status.success(), "bench target {name} failed");
        rows.push((name, wall));
    }

    // Engine record for the line constructors: event side at ≥ 100
    // trials, naive side capped (~1 s per trial for Simple at n = 256).
    // The `engine_speedup` bench target above already ran the same
    // comparison to *assert* the ≥ 50× acceptance bar; this re-measures
    // in-process so the JSON carries first-party numbers — the ~20 s of
    // duplication is accepted for the independence of gate and record.
    println!("==> engine comparison (n = 256 line constructors)");
    let simple = compare_engines(
        &simple_global_line::protocol(),
        simple_global_line::is_stable,
        256,
        scale(200).max(100),
        scale(8).clamp(2, 16),
        9,
    );
    let fast = compare_engines(
        &fast_global_line::protocol(),
        fast_global_line::is_stable,
        256,
        scale(200).max(100),
        scale(20).clamp(2, 40),
        9,
    );

    println!("==> engine memory ladder + bucket engine record");
    let memory_section = engine_memory_section();
    let bucket_section = bucket_engine_section(scale(200).max(100));

    // The naive floor is 8 trials (~0.8 s each): converged_at's ~70%
    // relative sd would otherwise turn the record's mean_rel_diff into
    // pure small-sample noise.
    println!("==> round engine comparison (n = 256, ShuffledRounds)");
    let (round_section, round_speedup) =
        round_engine_section(scale(100).max(50), scale(16).clamp(8, 24));

    // Expensive sections carry forward from the output file, or — when
    // writing somewhere fresh, as CI's bench-smoke does — from the
    // --check baseline, so the uploaded artifact keeps the records.
    let carry = |key: &str| {
        carry_forward_section(&out_path, key)
            .or_else(|| check_path.as_deref().and_then(|p| carry_forward_section(p, key)))
    };
    let frontier = if regen_frontier {
        Some(scaling_frontier_section())
    } else {
        carry("scaling_frontier")
    };
    let round_frontier = if regen_round_frontier {
        Some(round_frontier_section())
    } else {
        carry("round_frontier")
    };
    let mega_frontier = if regen_mega_frontier {
        Some(mega_frontier_section())
    } else {
        carry("mega_frontier")
    };

    // Large-sample mean-agreement record. `NETCON_NAIVE_TRIALS_256=<k>`
    // (k ≥ 100; ≈ 25 min at 1000) regenerates it; otherwise any section
    // already present in the output file is carried forward, so quick
    // re-runs don't destroy the expensive record.
    let large_sample = if ref_trials >= 100 {
        println!("==> large-sample agreement ({ref_trials} naive trials at n = 256)");
        let ls = compare_engines(
            &simple_global_line::protocol(),
            simple_global_line::is_stable,
            256,
            2_000,
            ref_trials,
            9,
        );
        // Fast-Global-Line's converged_at variance is ~50× smaller, so
        // 400 naive trials already put the standard error near 0.1%.
        let lf = compare_engines(
            &fast_global_line::protocol(),
            fast_global_line::is_stable,
            256,
            2_000,
            ref_trials.min(400),
            9,
        );
        let mut s = String::new();
        s.push_str("  \"large_sample_agreement_n256\": {\n");
        let _ = writeln!(
            s,
            "    \"note\": \"regenerate with NETCON_NAIVE_TRIALS_256={ref_trials} cargo run --release -p netcon-bench --bin perf_smoke; runs without that variable carry this section forward\","
        );
        json_engine(&mut s, "simple_global_line", &ls);
        s.push_str(",\n");
        json_engine(&mut s, "fast_global_line", &lf);
        s.push_str("\n  }");
        Some(s)
    } else {
        carry("large_sample_agreement_n256")
    };

    println!("==> perturbation frontier (fault-layer repair sweeps)");
    let perturbation_section = perturbation_frontier_section();

    println!("==> churn frontier (availability under sustained Poisson churn)");
    let churn_section = churn_frontier_section();

    println!("==> adversary frontier (availability vs targeted strike rate)");
    let adversary_section = adversary_frontier_section();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(json, "  \"bench_scale_pct\": \"{scale_pct}\",");
    json.push_str("  \"benches\": [\n");
    for (i, (name, wall)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{name}\", \"wall_s\": {wall:.3} }}{comma}"
        );
    }
    json.push_str("  ],\n");
    json.push_str(&micro_section(&micro));
    json.push_str(",\n");
    json.push_str("  \"engine_speedup\": {\n");
    json_engine(&mut json, "simple_global_line_n256", &simple);
    json.push_str(",\n");
    json_engine(&mut json, "fast_global_line_n256", &fast);
    json.push_str("\n  },\n");
    json.push_str(&memory_section);
    json.push_str(",\n");
    json.push_str(&bucket_section);
    json.push_str(",\n");
    json.push_str(&round_section);
    json.push_str(",\n");
    json.push_str(&perturbation_section);
    json.push_str(",\n");
    json.push_str(&churn_section);
    json.push_str(",\n");
    json.push_str(&adversary_section);
    if let Some(section) = frontier {
        json.push_str(",\n");
        json.push_str(&section);
    }
    if let Some(section) = round_frontier {
        json.push_str(",\n");
        json.push_str(&section);
    }
    if let Some(section) = mega_frontier {
        json.push_str(",\n");
        json.push_str(&section);
    }
    if let Some(section) = large_sample {
        json.push_str(",\n");
        json.push_str(&section);
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write the bench record JSON");
    println!(
        "\nwrote {} ({} bench targets; SGL n=256 uniform-event speedup {:.0}x, round-engine speedup {:.0}x)",
        out_path.display(),
        rows.len(),
        simple.speedup,
        round_speedup,
    );

    if let Some(baseline) = check_path {
        if let Err(msg) = check_against_baseline(&baseline, &scale_pct.to_string(), &rows, &micro) {
            eprintln!("\nREGRESSION GATE FAILED\n{msg}");
            std::process::exit(1);
        }
        println!("regression gate passed");
    }
}

#[cfg(test)]
mod tests {
    use super::{gate, micro_rows};

    const BASELINE: &str = r#"{
  "bench_scale_pct": "1",
  "benches": [
    { "name": "engine_micro", "wall_s": 1.840 },
    { "name": "fig1", "wall_s": 0.025 }
  ],
  "engine_micro": {
    "note": "n/a",
    "rows": [
      { "id": "event/advance", "ns_per_iter": 100.0 },
      { "id": "round/advance", "ns_per_iter": 2.000e9 }
    ]
  }
}"#;

    fn rows(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(id, x)| (id.to_owned(), x)).collect()
    }

    #[test]
    fn stand_in_bench_lines_parse_and_other_lines_are_skipped() {
        let out = "running\nbench event/advance                 123.4 ns/iter (10 iters)\n\
                   bench round/advance          1.234e9 ns/iter (2 iters)\n";
        assert_eq!(
            micro_rows(out),
            rows(&[("event/advance", 123.4), ("round/advance", 1.234e9)])
        );
    }

    #[test]
    #[should_panic(expected = "malformed bench line")]
    fn a_malformed_bench_line_fails_loudly() {
        let _ = micro_rows("bench event/advance fast\n");
    }

    #[test]
    fn micro_benches_are_gated_and_the_micro_wall_is_not() {
        let walls = rows(&[("engine_micro", 9.0), ("fig1", 0.03)]);
        let micro = rows(&[
            ("event/advance", 120.0),
            ("round/advance", 2.1e9),
            ("new/bench", 1.0),
        ]);
        assert_eq!(gate(BASELINE, "1", &walls, &micro), Ok(()));
    }

    #[test]
    fn a_slower_micro_bench_fails_by_name() {
        let micro = rows(&[("event/advance", 300.0), ("round/advance", 2.0e9)]);
        let err = gate(BASELINE, "1", &[], &micro).unwrap_err();
        assert!(err.contains("engine_micro event/advance"), "{err}");
        assert!(!err.contains("round/advance"), "{err}");
    }

    #[test]
    fn a_malformed_baseline_row_fails_the_check() {
        let broken = BASELINE.replace("\"wall_s\": 0.025", "\"wall_s\": fast");
        let err = gate(&broken, "1", &rows(&[("fig1", 0.03)]), &[]).unwrap_err();
        assert!(err.contains("malformed baseline row"), "{err}");
        let broken = BASELINE.replace("\"ns_per_iter\": 100.0", "\"ns\": 100.0");
        assert!(gate(&broken, "1", &[], &[]).is_err());
    }
}
