//! `bench_diff` — validate, compare, and render the `BENCH_<suite>.json`
//! artifacts `figures` and `lookup_locality` emit through
//! `xk_bench::trial`.
//!
//! Subcommands:
//!
//! * `validate <dir>` — load every `BENCH_*.json` and run the schema
//!   gate, refusing a `git_rev` of `"unknown"`; CI runs this against
//!   the artifacts a `--smoke` sweep emits.
//! * `diff <baseline-dir> <fresh-dir>` — compare the operation counts
//!   of fresh runs against the checked-in baselines, exiting non-zero
//!   on any regression past the gate. Runs the comparator self-test
//!   first so a broken diff can never report a clean bill of health.
//! * `self-test` — inject an artificial 2× regression of every
//!   operation count into a synthetic suite and verify the comparator
//!   flags exactly those.
//! * `table <dir> [suite...]` — render markdown tables from the JSONs
//!   (the README bench table is generated this way).

use std::path::Path;
use std::process::ExitCode;
use xk_bench::trial::{self, diff, Suite, COUNT_RATIO};

const USAGE: &str = "usage: bench_diff <validate DIR | diff BASE_DIR FRESH_DIR [--count-worse R] | self-test | table DIR [SUITE...]>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    match strs.split_first() {
        Some((&"validate", [dir])) => validate(Path::new(dir)),
        Some((&"diff", [base, fresh])) => run_diff(Path::new(base), Path::new(fresh), COUNT_RATIO),
        Some((&"diff", [base, fresh, "--count-worse", ratio])) => match ratio.parse() {
            Ok(ratio) => run_diff(Path::new(base), Path::new(fresh), ratio),
            Err(_) => {
                eprintln!("--count-worse needs a numeric value\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some((&"self-test", [])) => self_test(),
        Some((&"table", [dir, suites @ ..])) => table(Path::new(dir), suites),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn validate(dir: &Path) -> ExitCode {
    let suites = match trial::load_dir(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_diff validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if suites.is_empty() {
        eprintln!("bench_diff validate: no BENCH_*.json under {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut bad = 0;
    for suite in &suites {
        let mut errs = suite.validate();
        if suite.git_rev == "unknown" {
            errs.push("git_rev is \"unknown\": a baseline names the revision it ran at".into());
        }
        if errs.is_empty() {
            println!(
                "ok   {} ({} cases, scale={}, seed={:#x})",
                suite.filename(),
                suite.cases.len(),
                suite.scale,
                suite.seed
            );
        } else {
            bad += 1;
            println!("FAIL {}", suite.filename());
            for e in errs {
                println!("     - {e}");
            }
        }
    }
    if bad > 0 {
        eprintln!("bench_diff validate: {bad} invalid artifact(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_diff(base_dir: &Path, fresh_dir: &Path, count_ratio: f64) -> ExitCode {
    // A comparator that cannot see a planted regression must never be
    // trusted to clear a real one.
    if self_test() != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }
    let (baselines, freshes) = match (trial::load_dir(base_dir), trial::load_dir(fresh_dir)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    if baselines.is_empty() {
        eprintln!("bench_diff diff: no baselines under {}", base_dir.display());
        return ExitCode::FAILURE;
    }
    println!("gate: an operation count regresses past {count_ratio:.2}x its baseline");
    let mut failed = false;
    for baseline in &baselines {
        let Some(fresh) = freshes.iter().find(|f| f.suite == baseline.suite) else {
            println!("~ {}: no fresh run (skipped)", baseline.suite);
            continue;
        };
        let report = diff(baseline, fresh, count_ratio);
        if let Some(why) = &report.skipped {
            println!("! {}: not comparable — {why}", report.suite);
            failed = true;
            continue;
        }
        println!(
            "= {}: {} metrics checked, {} regression(s), {} improvement(s)",
            report.suite,
            report.checked,
            report.regressions.len(),
            report.improvements.len()
        );
        for id in &report.unmatched {
            println!("  ~ unmatched case: {id}");
        }
        for f in &report.improvements {
            println!(
                "  + {} {}: {} -> {} ({:.2}x)",
                f.case, f.metric, f.baseline, f.fresh, f.ratio
            );
        }
        for f in &report.regressions {
            println!(
                "  ! REGRESSION {} {}: {} -> {} ({:.2}x)",
                f.case, f.metric, f.baseline, f.fresh, f.ratio
            );
        }
        failed |= !report.regressions.is_empty();
    }
    for fresh in &freshes {
        if !baselines.iter().any(|b| b.suite == fresh.suite) {
            println!("~ {}: fresh suite with no baseline (add it to {})", fresh.suite, base_dir.display());
        }
    }
    if failed {
        eprintln!("bench_diff: regressions detected");
        ExitCode::FAILURE
    } else {
        println!("bench_diff: no regressions");
        ExitCode::SUCCESS
    }
}

/// Builds a synthetic baseline, doubles every metric, and verifies the
/// comparator reports exactly the operation counts.
fn self_test() -> ExitCode {
    let mut baseline = Suite::new("self_test", "smoke", 0x5E1F);
    baseline.config("synthetic", 1.0);
    baseline
        .case("query/hot")
        .metric("match_lookups", 50_000.0)
        .metric("nodes_scanned", 120.0)
        .metric("mean_ms", 0.95);
    baseline.case("query/cold").metric("disk_reads", 800.0).metric("elapsed_us", 2_400.0);
    let mut fresh = baseline.clone();
    for case in &mut fresh.cases {
        for (_, value) in &mut case.metrics {
            *value *= 2.0;
        }
    }
    let report = diff(&baseline, &fresh, COUNT_RATIO);
    let counts = 3;
    let ok = report.skipped.is_none()
        && report.regressions.len() == counts
        && report.regressions.iter().all(|f| trial::is_count(&f.metric) && f.ratio == 2.0)
        && report.improvements.is_empty();
    if ok {
        println!("self-test: injected 2x operation-count regression detected ({counts} findings)");
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test FAILED: comparator missed the injected regression: {report:?}");
        ExitCode::FAILURE
    }
}

fn table(dir: &Path, only: &[&str]) -> ExitCode {
    let suites = match trial::load_dir(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_diff table: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut shown = 0;
    for suite in &suites {
        if !only.is_empty() && !only.contains(&suite.suite.as_str()) {
            continue;
        }
        shown += 1;
        // Union of metric keys across cases, in first-seen order.
        let mut keys: Vec<&str> = Vec::new();
        for case in &suite.cases {
            for (k, _) in &case.metrics {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
        }
        println!("### `{}` (scale: {})\n", suite.suite, suite.scale);
        println!("| case | {} |", keys.join(" | "));
        println!("|---|{}", "---:|".repeat(keys.len()));
        for case in &suite.cases {
            let cells: Vec<String> = keys
                .iter()
                .map(|k| case.get(k).map_or(String::from("—"), fmt_value))
                .collect();
            println!("| `{}` | {} |", case.id, cells.join(" | "));
        }
        println!();
    }
    if shown == 0 {
        eprintln!("bench_diff table: nothing matched under {}", dir.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}
