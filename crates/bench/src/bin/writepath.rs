//! Durable write path benchmark: append throughput under
//! `SyncEachCommit` vs `GroupCommit`, the group-commit batch size
//! (commits per fsync), crash-recovery time over a full WAL, and read
//! latency with and without a concurrent writer. Every append goes
//! through the engine's one write path — journal, mem segment, seal at
//! the default threshold — over a database seeded in the segment layout.
//!
//! Emits `results/BENCH_writepath.json` through the shared
//! `xk_bench::trial` envelope and prints a human summary to stderr.
//!
//! Usage: `writepath [--smoke] [--appends N] [--queries N]`

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xk_bench::trial::{Latency, Suite};
use xk_storage::EnvOptions;
use xk_workload::{generate, planted_for_classes, DblpSpec, FrequencyClass};
use xk_xmltree::Dewey;
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};

const PAGE_SIZE: usize = 4096;
const POOL_PAGES: usize = 4096; // 16 MiB

struct Config {
    papers: usize,
    appends: usize,
    queries: usize,
    scale: &'static str,
}

fn options() -> EnvOptions {
    EnvOptions { page_size: PAGE_SIZE, pool_pages: POOL_PAGES }
}

fn durability(mode: CommitMode) -> DurabilityOptions {
    DurabilityOptions { mode, ..DurabilityOptions::default() }
}

/// Builds the seed index once (database file plus its `.segments/`
/// blob directory); each measurement copies both to a private working
/// pair so every mode starts from identical bytes.
fn build_seed(dir: &Path, cfg: &Config, classes: &[FrequencyClass]) -> PathBuf {
    let db = dir.join(format!("writepath_seed_{}.db", cfg.scale));
    let spec = DblpSpec {
        papers: cfg.papers,
        venues: 8,
        years_per_venue: 5,
        vocabulary: 4_000,
        title_words: 5,
        authors_per_paper: 2,
        planted: planted_for_classes(classes),
        seed: 0xD07A,
    };
    let tree = generate(&spec);
    eprintln!("[writepath] seed document: {} nodes", tree.len());
    // The stored document is the graft target for appends.
    let engine = Engine::build_segmented(&tree, &db, options(), true).expect("seed index build");
    engine.with_env(|e| e.flush()).expect("flush seed");
    db
}

/// A private copy of the seed — database file and blob directory — with
/// no WAL next to it.
fn working_copy(seed: &Path, tag: &str) -> PathBuf {
    let db = seed.with_file_name(format!("writepath_{tag}.db"));
    std::fs::copy(seed, &db).expect("copy seed db");
    let blobs = xksearch::default_segments_dir(&db);
    // xk-analyze: allow(swallowed_result, reason = "a missing blob directory from a previous run is the desired state")
    std::fs::remove_dir_all(&blobs).ok();
    std::fs::create_dir_all(&blobs).expect("create working blob dir");
    for blob in std::fs::read_dir(xksearch::default_segments_dir(seed)).expect("list seed blobs") {
        let blob = blob.expect("seed blob entry");
        std::fs::copy(blob.path(), blobs.join(blob.file_name())).expect("copy seed blob");
    }
    // xk-analyze: allow(swallowed_result, reason = "a missing WAL from a previous run is the desired state")
    std::fs::remove_file(xksearch::default_wal_path(&db)).ok();
    db
}

fn fragment(writer: usize, i: usize) -> String {
    format!("<paper><title>writebench w{writer}n{i}</title><author>appender</author></paper>")
}

struct AppendPoint {
    mode: &'static str,
    writers: usize,
    appends: usize,
    elapsed: Duration,
    wal_commits: u64,
    wal_syncs: u64,
}

/// `writers` threads share `cfg.appends` appends through one engine;
/// returns the throughput point with the WAL's commit/sync counters.
fn bench_appends(seed: &Path, cfg: &Config, mode: CommitMode, writers: usize) -> AppendPoint {
    let tag = format!("{}_{writers}w", mode_tag(mode));
    let db = working_copy(seed, &tag);
    let (engine, _) = Engine::open_durable(&db, options(), durability(mode)).expect("open");
    let engine = Arc::new(engine);
    let per_writer = cfg.appends / writers;
    let started = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for i in 0..per_writer {
                    engine
                        .append_subtree(&Dewey::root(), &fragment(w, i))
                        .expect("bench append");
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let point = AppendPoint {
        mode: mode_tag(mode),
        writers,
        appends: per_writer * writers,
        elapsed,
        wal_commits: engine.with_env(|e| e.wal_commit_count()),
        wal_syncs: engine.with_env(|e| e.wal_sync_count()),
    };
    eprintln!(
        "[writepath] {:>16} x{writers}: {:>8.1} appends/s ({} commits / {} fsyncs = {:.1} per fsync)",
        point.mode,
        point.appends as f64 / elapsed.as_secs_f64(),
        point.wal_commits,
        point.wal_syncs,
        point.wal_commits as f64 / point.wal_syncs.max(1) as f64,
    );
    point
}

fn mode_tag(mode: CommitMode) -> &'static str {
    match mode {
        CommitMode::SyncEachCommit => "sync_each_commit",
        CommitMode::GroupCommit => "group_commit",
    }
}

/// Fills a WAL with `cfg.appends` committed transactions, "crashes"
/// (no checkpoint, no clean shutdown), and times the recovery replay
/// that the next `open_durable` runs.
fn bench_recovery(seed: &Path, cfg: &Config) -> (usize, Duration) {
    let db = working_copy(seed, "recovery");
    let (engine, _) =
        Engine::open_durable(&db, options(), durability(CommitMode::SyncEachCommit))
            .expect("open for recovery fill");
    for i in 0..cfg.appends {
        engine.append_subtree(&Dewey::root(), &fragment(0, i)).expect("fill append");
    }
    std::mem::forget(engine); // crash: Drop would checkpoint the WAL away
    let started = Instant::now();
    let (_engine, report) =
        Engine::open_durable(&db, options(), durability(CommitMode::SyncEachCommit))
            .expect("recovery open");
    let elapsed = started.elapsed();
    eprintln!(
        "[writepath] recovery: {} txns replayed in {:.1?}",
        report.replayed_txns, elapsed
    );
    (report.replayed_txns, elapsed)
}

struct LatencyPoint {
    latency: Latency,
    writer_appends: u64,
}

/// Per-query latency over the planted two-keyword workload, optionally
/// with a writer thread streaming appends the whole time. Samples go
/// through the shared trial histogram, so the reported p50/p99 use the
/// same extraction as the server's `/metrics`.
fn bench_read_latency(
    seed: &Path,
    cfg: &Config,
    classes: &[FrequencyClass],
    with_writer: bool,
) -> LatencyPoint {
    let tag = if with_writer { "reads_writer" } else { "reads_idle" };
    let db = working_copy(seed, tag);
    let (engine, _) = Engine::open_durable(&db, options(), durability(CommitMode::GroupCommit))
        .expect("open for reads");
    let engine = Arc::new(engine);
    let keywords: Vec<&str> = classes
        .iter()
        .map(|c| c.keywords[0].as_str())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let appended = Arc::new(AtomicU64::new(0));
    let latency = Latency::new();
    std::thread::scope(|s| {
        if with_writer {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let appended = Arc::clone(&appended);
            s.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    engine
                        .append_subtree(&Dewey::root(), &fragment(9, i))
                        .expect("background append");
                    appended.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Alternate the planted pairs so both frequency classes are hit.
        for i in 0..cfg.queries {
            let pair = [keywords[i % keywords.len()], keywords[(i + 1) % keywords.len()]];
            let started = Instant::now();
            engine.query(&pair, Algorithm::Auto).expect("read query");
            latency.record(started.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
    });
    let point = LatencyPoint { latency, writer_appends: appended.load(Ordering::Relaxed) };
    let snap = point.latency.snapshot();
    eprintln!(
        "[writepath] reads ({}): p50 {}us p99 {}us{}",
        if with_writer { "concurrent writer" } else { "idle" },
        snap.quantile_us(0.50),
        snap.quantile_us(0.99),
        if with_writer {
            format!(" ({} appends committed meanwhile)", point.writer_appends)
        } else {
            String::new()
        }
    );
    point
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().unwrap_or_else(|_| panic!("{name} takes a number")))
    };
    let cfg = Config {
        papers: if smoke { 500 } else { 5_000 },
        appends: flag("--appends").unwrap_or(if smoke { 64 } else { 512 }),
        queries: flag("--queries").unwrap_or(if smoke { 200 } else { 2_000 }),
        scale: if smoke { "smoke" } else { "full" },
    };
    let classes = vec![FrequencyClass::new(10, 2), FrequencyClass::new(100, 2)];

    let dir = Path::new("bench_cache");
    std::fs::create_dir_all(dir).expect("create bench_cache/");
    let seed = build_seed(dir, &cfg, &classes);

    let mut points = Vec::new();
    for (mode, writers) in [
        (CommitMode::SyncEachCommit, 1),
        (CommitMode::SyncEachCommit, 4),
        (CommitMode::GroupCommit, 1),
        (CommitMode::GroupCommit, 4),
    ] {
        points.push(bench_appends(&seed, &cfg, mode, writers));
    }
    let (replayed, recovery_elapsed) = bench_recovery(&seed, &cfg);
    let idle = bench_read_latency(&seed, &cfg, &classes, false);
    let busy = bench_read_latency(&seed, &cfg, &classes, true);

    let mut suite = Suite::new("writepath", cfg.scale, 0xD07A);
    suite
        .config("papers", cfg.papers as f64)
        .config("page_size", PAGE_SIZE as f64)
        .config("pool_pages", POOL_PAGES as f64)
        .config("appends", cfg.appends as f64)
        .config("queries", cfg.queries as f64);
    for p in &points {
        suite
            .case(format!("append/{}/writers={}", p.mode, p.writers))
            .metric("appends", p.appends as f64)
            .metric("elapsed_ms", p.elapsed.as_secs_f64() * 1e3)
            .metric("appends_per_sec", p.appends as f64 / p.elapsed.as_secs_f64())
            .metric("wal_commits", p.wal_commits as f64)
            .metric("wal_syncs", p.wal_syncs as f64)
            .metric("commits_per_fsync", p.wal_commits as f64 / p.wal_syncs.max(1) as f64);
    }
    suite
        .case("recovery/replay")
        .metric("replayed_txns", replayed as f64)
        .metric("elapsed_ms", recovery_elapsed.as_secs_f64() * 1e3);
    suite.case("read_latency/idle").latency(&idle.latency);
    suite
        .case("read_latency/with_writer")
        .latency(&busy.latency)
        .metric("writer_appends", busy.writer_appends as f64);
    suite.write().expect("write BENCH_writepath.json");
}
