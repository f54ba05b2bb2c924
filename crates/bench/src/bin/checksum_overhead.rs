//! Measures what the v2 per-page CRC-32 trailer costs on the cold-cache
//! read path — the guard-rail number for the checksum feature.
//!
//! Builds a synthetic index file, then sweeps every page through the
//! buffer pool with verification on and off. Every access is a pool miss
//! (the cache is dropped between rounds), so the difference isolates the
//! checksum computation itself. Deterministic: no RNG, no sampling.
//!
//! ```text
//! checksum_overhead [--smoke] [entries] [rounds]   # defaults: 4000 entries, 7 rounds
//! ```
//!
//! Emits `results/BENCH_checksum_overhead.json` through the shared
//! `xk_bench::trial` envelope (`--smoke` shrinks to 800 entries /
//! 3 rounds and stamps the envelope scale accordingly).

use std::time::{Duration, Instant};
use xk_bench::trial::Suite;
use xk_storage::{EnvOptions, PageId, StorageEnv};
use xk_xmltree::{NodeId, XmlTree};

/// A bibliography-shaped document with repeating but non-trivial text.
fn build_doc(entries: usize) -> XmlTree {
    let mut t = XmlTree::new("bib");
    for i in 0..entries {
        let paper = t.append_element(NodeId::ROOT, "paper");
        let title = t.append_element(paper, "title");
        t.append_text(title, format!("study {i} of topic{}", i % 57));
        let author = t.append_element(paper, "author");
        t.append_text(author, format!("author{} surname{}", i % 211, i % 89));
    }
    t
}

/// One cold sweep: every page fetched exactly once, pool cleared first.
fn cold_sweep(env: &StorageEnv, pages: u32) -> Duration {
    env.clear_cache().unwrap();
    let start = Instant::now();
    for pid in 0..pages {
        env.with_page(PageId(pid), |p| std::hint::black_box(p[0])).unwrap();
    }
    start.elapsed()
}

fn best_of(env: &StorageEnv, pages: u32, rounds: usize) -> Duration {
    (0..rounds).map(|_| cold_sweep(env, pages)).min().unwrap()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let default_entries = if smoke { 800 } else { 4000 };
    let default_rounds = if smoke { 3 } else { 7 };
    let mut args = args.into_iter();
    let entries: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(default_entries);
    let rounds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(default_rounds);

    let dir = std::env::temp_dir().join(format!("xk-ckbench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.db");
    let options = EnvOptions { page_size: 4096, pool_pages: 64 };

    let tree = build_doc(entries);
    let env = StorageEnv::create(&path, options.clone()).unwrap();
    let no_doc = xk_index::BuildOptions { store_document: false, ..Default::default() };
    let keywords = xk_index::build_disk_index(&env, &tree, &no_doc).unwrap();
    env.flush().unwrap();
    drop(env);

    let env = StorageEnv::open(&path, options).unwrap();
    let pages = env.page_count();
    let bytes = pages as u64 * 4096;
    println!("corpus          : {entries} entries, {keywords} keywords");
    println!("index file      : {pages} pages, {:.1} MiB", bytes as f64 / (1 << 20) as f64);
    println!("rounds          : {rounds} cold sweeps each, best-of reported");

    // Interleave-free: all verified rounds, then all unverified, after one
    // untimed warm-up against OS file-cache effects.
    cold_sweep(&env, pages);
    env.set_verify_checksums(true);
    let on = best_of(&env, pages, rounds);
    env.set_verify_checksums(false);
    let off = best_of(&env, pages, rounds);
    env.set_verify_checksums(true);

    let per_page = |d: Duration| d.as_nanos() as f64 / pages as f64;
    let throughput = |d: Duration| bytes as f64 / (1 << 20) as f64 / d.as_secs_f64();
    println!("checksums ON    : {on:>10.2?}  ({:7.0} ns/page, {:8.1} MiB/s)",
        per_page(on), throughput(on));
    println!("checksums OFF   : {off:>10.2?}  ({:7.0} ns/page, {:8.1} MiB/s)",
        per_page(off), throughput(off));
    let delta = per_page(on) - per_page(off);
    println!(
        "verify overhead : {:.0} ns/page ({:+.1}% on the cold read path)",
        delta,
        delta / per_page(off) * 100.0
    );
    println!(
        "note: \"cold\" pages still come from the OS file cache, the worst case\n\
         for the relative overhead; against a real disk seek (~10^5 ns) the\n\
         absolute ns/page figure is the honest cost."
    );

    let mut suite =
        Suite::new("checksum_overhead", if smoke { "smoke" } else { "full" }, 0);
    suite
        .config("entries", entries as f64)
        .config("rounds", rounds as f64)
        .config("pages", pages as f64)
        .config("page_size", 4096.0);
    for (tag, d) in [("on", on), ("off", off)] {
        suite
            .case(format!("verify={tag}"))
            .metric("ns_per_page", per_page(d))
            .metric("mib_per_sec", throughput(d));
    }
    suite
        .case("verify=delta")
        .metric("overhead_ns_per_page", delta)
        .metric("overhead_pct", delta / per_page(off) * 100.0);
    suite.write().expect("write BENCH_checksum_overhead.json");

    std::fs::remove_dir_all(&dir).unwrap();
}
