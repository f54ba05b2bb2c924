//! `xkbench` — the end-to-end benchmark driver.
//!
//! ```text
//! xkbench run [--seed N] [--workload W]... [--seconds S] [--trace 0|1] [--quick]
//! xkbench aa  [--seed N] [--quick]
//! xkbench compare <a.json> <b.json>
//! ```
//!
//! `run` prints every metric as `name workload value unit n=<samples>`,
//! writes `<target>/xkbench/run-<seed>.json`, and — when exactly one
//! workload was selected, as the benchmark driver does — ends with the
//! driver's one-line JSON result.

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use xkbench::corpus::{Workload, FULL, QUICK, WORKLOADS};
use xkbench::e2e::{run_workload, Config, Fault, CLIENTS, SUB_WINDOWS, WARMUP};
use xkbench::proc::{Paths, WORKERS};
use xkbench::report::{
    compare, driver_line, gated_bounds, parse_run_file, run_file, Row, RunHeader,
};

type AnyError = Box<dyn std::error::Error>;

const USAGE: &str = "\
usage: xkbench run [--seed N] [--workload W]... [--seconds S] [--trace 0|1] [--quick]
       xkbench aa [--seed N] [--quick]
       xkbench compare <a.json> <b.json>
workloads: skewed_probe balanced_scan zipf_cached append_mix (default: all four)
";

/// Frozen in BENCHMARK.json (`run_seconds`).
const FULL_WINDOW_S: u64 = 10;
const QUICK_WINDOW_S: u64 = 2;
/// Full set-ups per run; `setup_s` is their median.
const FULL_SETUPS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run_args(&args[1..]).and_then(|a| cmd_run(&a).map(|_| true)),
        Some("aa") => parse_run_args(&args[1..]).and_then(|a| cmd_aa(&a)),
        Some("compare") => cmd_compare(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xkbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct RunArgs {
    seed: u64,
    workloads: Vec<Workload>,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    fault: Option<Fault>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, AnyError> {
    let mut out = RunArgs {
        seed: 1,
        workloads: Vec::new(),
        seconds: None,
        trace: false,
        quick: false,
        fault: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => out.seed = value()?.parse()?,
            "--seconds" => out.seconds = Some(value()?.parse()?),
            "--workload" => {
                let name = value()?;
                out.workloads
                    .push(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
                }
            }
            "--quick" => out.quick = true,
            // Contract-test hook: see `e2e::Fault`.
            "--plant-fault" => {
                out.fault = Some(match value()?.as_str() {
                    "hash" => Fault::WrongPinnedHash,
                    "marker" => Fault::DroppedMarker,
                    other => return Err(format!("unknown fault {other:?}").into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}").into()),
        }
    }
    if out.workloads.is_empty() {
        out.workloads = WORKLOADS.to_vec();
    }
    Ok(out)
}

/// `git rev-parse HEAD` of the tree being measured. The driver's
/// checkout is not a git repository; that is said, not guessed around.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "not-a-git-checkout".to_string())
}

/// The result of one full set: end-to-end rows, per-layer rows, totals.
struct RunResult {
    end_to_end: Vec<Row>,
    layers: Vec<Row>,
    attempted: u64,
    failed: u64,
}

fn cmd_run(args: &RunArgs) -> Result<RunResult, AnyError> {
    let paths = Paths::discover()?;
    paths.build(args.trace)?;
    let scale = if args.quick { QUICK } else { FULL };
    let window_s = args.seconds.unwrap_or(if args.quick {
        QUICK_WINDOW_S
    } else {
        FULL_WINDOW_S
    });
    let cfg = Config {
        scale,
        seed: args.seed,
        window: Duration::from_secs(window_s),
        // The driver reads no `setup_s` from a traced run; one set-up is enough.
        setups: if args.quick || args.trace {
            1
        } else {
            FULL_SETUPS
        },
        fault: args.fault,
    };
    let header = RunHeader {
        scale: scale.label.to_string(),
        git_rev: git_rev(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        seed: args.seed,
        clients: CLIENTS,
        workers: WORKERS,
        warmup_s: WARMUP.as_secs_f64(),
        window_s: window_s as f64,
        sub_windows: SUB_WINDOWS,
        setups: cfg.setups,
    };
    println!(
        "# xkbench scale={} seed={} git_rev={} nproc={} clients={} workers={} warmup_s={} window_s={} sub_windows={}",
        header.scale, header.seed, header.git_rev, header.nproc, CLIENTS, WORKERS, header.warmup_s, window_s, SUB_WINDOWS
    );
    println!("# SIGKILL leaves the OS page cache intact: recovery checks lost acknowledgements, not torn writes");

    let mut result = RunResult {
        end_to_end: Vec::new(),
        layers: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for &w in &args.workloads {
        let outcome = run_workload(&paths, &cfg, w)?;
        for row in outcome.end_to_end.iter().chain(&outcome.layers) {
            println!("{}", row.line());
        }
        if let Some((q, us)) = outcome.supported_tail {
            // The gated tail is a fixed p95; this is what the sample would bear.
            println!(
                "# {} highest supported query tail: p{} = {us} us",
                w.name(),
                q * 100.0
            );
        }
        println!(
            "# {} attempted={} failed={}",
            w.name(),
            outcome.attempted,
            outcome.failed
        );
        result.end_to_end.extend(outcome.end_to_end);
        result.layers.extend(outcome.layers);
        result.attempted += outcome.attempted;
        result.failed += outcome.failed;
    }
    if args.trace {
        let traced = run_trace_bin(&paths, args, &result.layers)?;
        result.layers.extend(traced);
    }

    let all: Vec<Row> = result
        .end_to_end
        .iter()
        .chain(&result.layers)
        .cloned()
        .collect();
    let path = paths.out.join(format!("run-{}.json", args.seed));
    std::fs::write(&path, run_file(&header, &all))?;
    println!("# wrote {}", path.display());
    if let [_] = args.workloads.as_slice() {
        let rows = if args.trace {
            &result.layers
        } else {
            &result.end_to_end
        };
        println!(
            "{}",
            driver_line(result.failed == 0, result.attempted, result.failed, rows)
        );
    }
    Ok(result)
}

/// Runs `xkbench-trace` over the selected workloads, echoing its output
/// and collecting its metric lines.
fn run_trace_bin(paths: &Paths, args: &RunArgs, untraced: &[Row]) -> Result<Vec<Row>, AnyError> {
    let mut cmd = Command::new(&paths.trace_bin);
    cmd.args(["--seed", &args.seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    for w in &args.workloads {
        // The untraced p50 the traced round trip is held against.
        let p50 = untraced
            .iter()
            .find(|r| r.name == "e2e.query_p50_us" && r.workload == w.name())
            .map_or(0.0, |r| r.value);
        cmd.args(["--workload", &format!("{}={p50}", w.name())]);
    }
    let out = cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output()?;
    if !out.status.success() {
        return Err(format!("xkbench-trace exited with {}", out.status).into());
    }
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    Ok(text.lines().filter_map(Row::parse_line).collect())
}

/// Two full sets on the same binary and seed, compared under the
/// benchmark's own bounds.
fn cmd_aa(args: &RunArgs) -> Result<bool, AnyError> {
    let bounds = gated_bounds(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let a = cmd_run(args)?;
    let b = cmd_run(args)?;
    let (table, unresolved) = compare(&a.end_to_end, &b.end_to_end, &bounds);
    println!("# A/A: same binary, same seed; diff is |b-a| over the smaller of the two");
    print!("{table}");
    println!("# failed: a={} b={}", a.failed, b.failed);
    if unresolved {
        println!("# A/A FAILED: at least one gated metric cannot be resolved within its bound");
    }
    Ok(!unresolved && a.failed == 0 && b.failed == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, AnyError> {
    let [a, b] = args else {
        return Err(format!("compare needs two run files\n{USAGE}").into());
    };
    let bounds = gated_bounds(&std::fs::read_to_string("BENCHMARK.json")?)?;
    let (a_kind, a_rows) = parse_run_file(&std::fs::read_to_string(a)?)?;
    let (b_kind, b_rows) = parse_run_file(&std::fs::read_to_string(b)?)?;
    if a_kind != b_kind {
        return Err(format!("runs are not comparable: {a_kind} vs {b_kind}").into());
    }
    let (table, unresolved) = compare(&a_rows, &b_rows, &bounds);
    print!("{table}");
    Ok(!unresolved)
}
