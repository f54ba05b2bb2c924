//! Measures what anchoring buys the IL probe loop: page reads per
//! `lm`/`rm` probe against the big list `S_2`, one anchored cursor versus
//! a fresh root-to-leaf descent per lookup, on a cold buffer pool.
//!
//! One document carries every sweep point: keywords `s1a..s1d` planted at
//! frequencies 10, 100, 1 000, 10 000 and `s2` at 100 000. For each
//! `|S_1|` the probe loop replays exactly what Indexed Lookup Eager does —
//! one `seek_dominator` call per `S_1` witness against the `S_2` cursor —
//! with the witnesses pre-materialized so the measured I/O window
//! contains *only* the probes. The fresh series makes the same lookups,
//! each through a cursor of its own.
//!
//! ```text
//! lookup_locality [--smoke]
//! ```
//!
//! `--smoke` shrinks the corpus for CI. Both tiers emit
//! `results/BENCH_lookup_locality.json` through the shared
//! `xk_bench::trial` envelope — one case per `(|S_1|, mode)` — plus a
//! stdout summary with the anchored/fresh ratios.

use std::time::{Duration, Instant};
use xk_bench::trial::Suite;
use std::sync::Arc;
use xk_index::{build_disk_index, BuildOptions, DiskCursor, DiskIndex, IndexError};
use xk_slca::{seek_dominator, AlgoStats, ErrorSlot, PostingCursor, StreamList};
use xk_storage::{EnvOptions, IoStats, StorageEnv};
use xk_workload::{generate, DblpSpec, Planted};
use xk_xmltree::Dewey;

struct RunConfig {
    papers: usize,
    s1_sizes: Vec<usize>,
    s2_size: usize,
}

struct Measured {
    probes: u64,
    match_lookups: u64,
    io: IoStats,
    elapsed: Duration,
}

/// Replays the IL probe loop for one `S_1` over the `S_2` cursor and
/// returns the I/O charged to the probes alone (cold pool, witnesses in
/// memory).
fn probe_run(
    env: &Arc<StorageEnv>,
    slot: &ErrorSlot<IndexError>,
    index: &DiskIndex,
    witnesses: &[Dewey],
    s2_keyword: &str,
    anchored: bool,
) -> Measured {
    let open = || index.cursor(env, s2_keyword, slot.clone()).expect("planted keyword present");
    let mut list = open();
    env.clear_cache().expect("cache clear");
    let before = env.stats();
    let start = Instant::now();
    let mut stats = AlgoStats::default();
    let mut sink = 0u64;
    for w in witnesses {
        let depth = if anchored {
            seek_dominator(&mut list, w.components(), &mut stats)
        } else {
            fresh_dominator(open, w.components(), &mut stats)
        };
        sink = sink.wrapping_add(depth.unwrap_or(0) as u64);
    }
    std::hint::black_box(sink);
    let elapsed = start.elapsed();
    let io = env.stats().delta_since(&before);
    if let Some(e) = slot.take() {
        panic!("storage error during probe run: {e}");
    }
    Measured { probes: witnesses.len() as u64, match_lookups: stats.match_lookups, io, elapsed }
}

/// [`seek_dominator`]'s two lookups, each through a fresh cursor, so
/// each descends from the root: `rm(q)` one `seek_ge`, then on a miss
/// `lm(q)` one `seek_le`.
fn fresh_dominator(
    open: impl Fn() -> DiskCursor,
    q: &[u32],
    stats: &mut AlgoStats,
) -> Option<usize> {
    let lcp = |n: &[u32]| q.iter().zip(n).take_while(|(a, b)| a == b).count();
    stats.match_lookups += 1;
    let mut rm = open();
    rm.seek(q);
    let right = rm.current().map(|n| (n == q, lcp(n)));
    if let Some((true, _)) = right {
        return Some(q.len());
    }
    stats.match_lookups += 1;
    let mut lm = open();
    lm.seek(q);
    let left = lm.before().map(lcp);
    left.max(right.map(|(_, depth)| depth))
}

fn collect_witnesses(
    env: &Arc<StorageEnv>,
    slot: &ErrorSlot<IndexError>,
    index: &DiskIndex,
    keyword: &str,
) -> Vec<Dewey> {
    let mut stream = index.cursor(env, keyword, slot.clone()).expect("planted keyword present");
    std::iter::from_fn(|| stream.next_node()).collect()
}

fn main() {
    let mut smoke = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => smoke = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    let cfg = if smoke {
        RunConfig { papers: 2_500, s1_sizes: vec![10, 100], s2_size: 2_000 }
    } else {
        RunConfig { papers: 100_000, s1_sizes: vec![10, 100, 1_000, 10_000], s2_size: 100_000 }
    };

    let mut planted: Vec<Planted> = cfg
        .s1_sizes
        .iter()
        .enumerate()
        .map(|(i, &f)| Planted { keyword: format!("s1{}", (b'a' + i as u8) as char), frequency: f })
        .collect();
    planted.push(Planted { keyword: "s2".into(), frequency: cfg.s2_size });
    let spec = DblpSpec { papers: cfg.papers, planted, ..DblpSpec::default() };

    eprintln!("generating {} papers ...", cfg.papers);
    let tree = generate(&spec);
    let dir = std::env::temp_dir().join(format!("xk-locality-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("locality.db");
    // A pool big enough that the measured window never evicts: the probe
    // counts then reflect pure access locality, not pool pressure.
    let options = EnvOptions { page_size: 4096, pool_pages: 16_384 };
    eprintln!("building disk index ...");
    let env = StorageEnv::create(&db, options.clone()).unwrap();
    build_disk_index(&env, &tree, &BuildOptions { store_document: false, ..Default::default() })
        .unwrap();
    env.flush().unwrap();
    drop(env);
    let env = Arc::new(StorageEnv::open(&db, options).unwrap());
    let index = DiskIndex::open(&env).unwrap();
    // Every list reports into this one slot; each probe run checks it.
    let slot = ErrorSlot::new();

    let mut suite =
        Suite::new("lookup_locality", if smoke { "smoke" } else { "full" }, 0x10CA);
    suite
        .config("papers", cfg.papers as f64)
        .config("s2_size", cfg.s2_size as f64)
        .config("page_size", 4096.0)
        .config("pool_pages", 16_384.0);
    println!(
        "{:>8} {:>9} {:>10} {:>14} {:>14} {:>9} {:>9}",
        "|S1|", "|S2|", "mode", "logical_reads", "disk_reads", "rd/lkup", "ratio"
    );
    for (i, &s1) in cfg.s1_sizes.iter().enumerate() {
        let kw = format!("s1{}", (b'a' + i as u8) as char);
        let witnesses = collect_witnesses(&env, &slot, &index, &kw);
        assert_eq!(witnesses.len(), s1, "planted |S1| mismatch for {kw}");
        let mut fresh_reads = 0u64;
        for (mode, anchored) in [("fresh", false), ("anchored", true)] {
            let m = probe_run(&env, &slot, &index, &witnesses, "s2", anchored);
            let per_lookup = m.io.logical_reads as f64 / m.match_lookups.max(1) as f64;
            suite
                .case(format!("s1={s1}/{mode}"))
                .metric("probes", m.probes as f64)
                .metric("match_lookups", m.match_lookups as f64)
                .metric("logical_reads", m.io.logical_reads as f64)
                .metric("disk_reads", m.io.disk_reads as f64)
                .metric("reads_per_lookup", per_lookup)
                .metric("elapsed_us", m.elapsed.as_micros() as f64);
            let ratio = if anchored && m.io.logical_reads > 0 {
                format!("{:.2}x", fresh_reads as f64 / m.io.logical_reads as f64)
            } else {
                fresh_reads = m.io.logical_reads;
                "-".into()
            };
            println!(
                "{:>8} {:>9} {:>10} {:>14} {:>14} {:>9.2} {:>9}",
                s1, cfg.s2_size, mode, m.io.logical_reads, m.io.disk_reads, per_lookup, ratio
            );
            if anchored {
                assert!(
                    m.io.logical_reads < fresh_reads,
                    "anchored probes must read fewer pages than fresh descents \
                     ({} vs {fresh_reads} at |S1|={s1})",
                    m.io.logical_reads
                );
            }
        }
    }

    suite.write().expect("write BENCH_lookup_locality.json");
    std::fs::remove_dir_all(&dir).unwrap();
}
