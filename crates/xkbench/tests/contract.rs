//! The benchmark's contract with `BENCHMARK.json`, checked on a
//! `--quick` run (6k papers, 2 s windows): every metric the file lists
//! is emitted, finite and in its unit; nothing unlisted is emitted;
//! planted faults show up as failed operations; and each workload runs
//! the mechanism it was built for.
//!
//! One test function: the stages drive real servers on both cores and
//! must not overlap.

use std::path::PathBuf;
use std::process::Command;
use xkbench::corpus::WORKLOADS;
use xkbench::json::{self, Value};
use xkbench::report::{Row, ANY_WORKLOAD};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `xkbench <args>` from the repository root; returns its stdout.
fn xkbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_xkbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn xkbench");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "xkbench {args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every entry of one BENCHMARK.json metric list.
fn listed(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("{list} entry without {k}"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn driver_result(stdout: &str) -> Value {
    json::parse(stdout.lines().last().expect("xkbench printed nothing"))
        .expect("last line is the driver's JSON")
}

#[test]
fn quick_run_honours_benchmark_json() {
    let benchmark = json::parse(
        &std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json"),
    )
    .expect("BENCHMARK.json parses");
    let end_to_end = listed(&benchmark, "end_to_end");
    let per_layer = listed(&benchmark, "per_layer");
    let listed_workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(
        listed_workloads,
        WORKLOADS.map(|w| w.name()),
        "BENCHMARK.json names exactly the harness's workloads"
    );

    // Stage 1: one full quick set with the traced run.
    let stdout = xkbench(&["run", "--quick", "--seed", "7", "--trace", "1"]);
    let rows: Vec<Row> = stdout.lines().filter_map(Row::parse_line).collect();
    let find = |name: &str, workload: &str| {
        rows.iter()
            .find(|r| r.name == name && (r.workload == workload || r.workload == ANY_WORKLOAD))
            .unwrap_or_else(|| panic!("metric {name} was not emitted for {workload}\n{stdout}"))
    };
    for w in WORKLOADS {
        for (name, unit) in end_to_end.iter().chain(&per_layer) {
            let row = find(name, w.name());
            assert!(
                row.value.is_finite(),
                "{name}@{} is {}",
                w.name(),
                row.value
            );
            assert_eq!(&row.unit, unit, "unit of {name}");
        }
        for (name, _) in &end_to_end {
            assert!(
                find(name, w.name()).value > 0.0,
                "end-to-end metric {name}@{} must never be 0",
                w.name()
            );
        }
        assert!(
            stdout.contains(&format!("# {} attempted=", w.name())),
            "no totals line for {}",
            w.name()
        );
    }
    assert!(
        !stdout
            .lines()
            .any(|l| l.starts_with('#') && l.contains("attempted=") && !l.ends_with("failed=0")),
        "{stdout}"
    );
    for row in &rows {
        assert!(
            row.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "metric name {:?} leaves [A-Za-z0-9_.-]",
            row.name
        );
        assert!(
            end_to_end
                .iter()
                .chain(&per_layer)
                .any(|(n, _)| *n == row.name),
            "{} is emitted but not listed in BENCHMARK.json",
            row.name
        );
    }

    // Each workload runs the mechanism it was built for.
    for bypass in ["skewed_probe", "balanced_scan", "append_mix"] {
        assert!(
            find("server.cache_hit_ratio", bypass).value < 0.01,
            "{bypass} must bypass the result cache"
        );
    }
    assert!(find("server.cache_hit_ratio", "zipf_cached").value > 0.5);
    assert!(find("server.algo_il_share", "skewed_probe").value > 0.99);
    assert!(find("server.algo_il_share", "balanced_scan").value < 0.01);

    // The saved run is labelled so it can never pass for a full one.
    // A relative CARGO_TARGET_DIR is relative to the root xkbench ran in.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let saved = std::fs::read_to_string(repo_root().join(target).join("xkbench/run-7.json"))
        .expect("run-7.json was written");
    let saved = json::parse(&saved).expect("run file parses");
    assert_eq!(saved.get("scale").and_then(Value::as_str), Some("quick"));
    assert_ne!(
        saved.get("git_rev").and_then(Value::as_str),
        Some("unknown")
    );

    // Stage 2: planted faults are counted as failed operations.
    for fault in ["hash", "marker"] {
        let stdout = xkbench(&[
            "run",
            "--quick",
            "--seed",
            "7",
            "--workload",
            "zipf_cached",
            "--plant-fault",
            fault,
        ]);
        let result = driver_result(&stdout);
        let number = |k: &str| {
            result
                .get(k)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("driver line without {k}"))
        };
        assert!(
            number("failed") > 0.0,
            "a planted {fault} fault went unnoticed: {stdout}"
        );
        assert!(number("failed") / number("attempted") > 0.0);
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        let metrics = result.get("metrics").expect("metrics object");
        for (name, unit) in &end_to_end {
            assert_eq!(
                metrics.path(&[name, "unit"]).and_then(Value::as_str),
                Some(unit.as_str()),
                "{name}"
            );
        }
    }
}
