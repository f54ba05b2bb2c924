//! `xkbench-trace` — the traced, per-layer run.
//!
//! ```text
//! xkbench-trace [--seed N] [--quick] --workload <name>[=<untraced query_p50_us>]...
//! ```
//!
//! Links the layer crates (only through `surface.rs`), times calls into
//! their public functions with fixed operation counts on one thread, and
//! for [`TRACED_REQUESTS`] requests per workload records a `request`
//! span (client round trip against an in-process server) with replays of
//! the request's parts as child spans. Spans stay in memory and are
//! written to `<target>/xkbench/trace-<seed>.json` at exit. End-to-end
//! numbers never come from this bin: they are measured with tracing off
//! by `xkbench run`, and `trace_overhead_ratio` is the gap between the two.
//! Run from the repository root, like `xkbench`.

mod spans;
mod surface;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spans::Trace;
use surface::{Algo, Node, Store};
use xkbench::corpus::{Scale, Workload, FULL, QUICK};
use xkbench::e2e::{append_fragment, ZIPF_S};
use xkbench::http::{query_path, render_get, Conn};
use xkbench::json::Value;
use xkbench::proc::Paths;
use xkbench::recorder::{median_f64, Recorder};
use xkbench::report::{Row, ANY_WORKLOAD};
use xkbench::rng::{SplitMix64, Zipf};

type AnyError = Box<dyn std::error::Error>;

/// Requests traced per workload.
const TRACED_REQUESTS: usize = 2000;
/// The `segment.probe` / `segment.decode` replays re-do a query's list
/// work call by call and cost more than the query; every fourth traced
/// miss carries them.
const SEGMENT_REPLAY_EVERY: usize = 4;
/// Anchors probed into `big0`.
const PROBE_ANCHORS: usize = 4096;
/// Distinct queries timed under all four algorithm choices for `engine.auto_regret`.
const REGRET_QUERIES: usize = 96;
/// Durable appends replayed for the write-path numbers (each rewrites
/// the embedded document, ~10 MB of WAL at full scale — keep it small).
const APPENDS_SINGLE: u64 = 8;
const APPENDS_PER_WRITER: u64 = 4;

/// Counts allocations; used by this bin only, so the numbers describe
/// the library code it calls, at the cost of two relaxed adds per call.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xkbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    seed: u64,
    scale: Scale,
    /// Workload and, when `xkbench run` passed it, its untraced `query_p50_us`.
    workloads: Vec<(Workload, Option<f64>)>,
}

fn parse_args() -> Result<Args, AnyError> {
    let mut args = Args {
        seed: 1,
        scale: FULL,
        workloads: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => args.seed = it.next().ok_or("--seed needs a value")?.parse()?,
            "--quick" => args.scale = QUICK,
            "--workload" => {
                let spec = it.next().ok_or("--workload needs a value")?;
                let (name, p50) = match spec.split_once('=') {
                    Some((name, p50)) => (name, Some(p50.parse::<f64>()?)),
                    None => (spec.as_str(), None),
                };
                let workload =
                    Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
                args.workloads.push((workload, p50));
            }
            other => return Err(format!("unknown flag {other:?}").into()),
        }
    }
    Ok(args)
}

/// Collects and prints metric rows.
#[derive(Default)]
struct Report {
    rows: Vec<Row>,
}

impl Report {
    fn emit(&mut self, name: &str, workload: &str, value: f64, unit: &str, n: usize) {
        let row = Row {
            name: name.into(),
            workload: workload.into(),
            value,
            unit: unit.into(),
            n,
        };
        println!("{}", row.line());
        self.rows.push(row);
    }

    fn global(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.emit(name, ANY_WORKLOAD, value, unit, n);
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Time of `reps` calls of `f`, whose result is kept from the optimizer.
fn repeat(reps: usize, mut f: impl FnMut() -> u64) -> Duration {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed()
}

/// Median of `reps` timings of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut() -> Result<(), AnyError>) -> Result<f64, AnyError> {
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (result, took) = timed(&mut f);
        result?;
        ms.push(took.as_secs_f64() * 1e3);
    }
    Ok(median_f64(&ms).unwrap_or(0.0))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn run() -> Result<(), AnyError> {
    let args = parse_args()?;
    let paths = Paths::discover()?;
    let work = paths.work_dir("trace")?;
    let dir = work.path();

    let mut report = Report::default();
    let mut trace = Trace::new();
    let scale = &args.scale;

    // The corpus comes from the same generator binary the end-to-end run uses.
    let xml_path = xkbench::proc::generate(&paths, scale, args.seed, dir)?;
    let xml = std::fs::read_to_string(&xml_path)?;

    // xk-xmltree.
    let mut tree = None;
    let parse_ms = median_ms(3, || {
        tree = Some(surface::parse(&xml)?);
        Ok(())
    })?;
    let tree = tree.ok_or("parse did not run")?;
    report.global(
        "xmltree.parse_mb_s",
        xml.len() as f64 / 1e6 / (parse_ms / 1e3),
        "MB/s",
        3,
    );

    // xksearch: build both layouts, open the serving one the way `serve` does.
    let seg_db = dir.join("seg.db");
    let bt_db = dir.join("btree.db");
    let (built, took) = timed(|| surface::build_segmented(&tree, &seg_db));
    drop(built?);
    report.global("engine.build_s", took.as_secs_f64(), "s", 1);
    let bt = surface::build_btree(&tree, &bt_db)?;
    drop(tree);
    let mut seg = None;
    let open_ms = median_ms(3, || {
        seg = None; // close the previous engine before reopening its files
        seg = Some(surface::open_durable(&seg_db)?);
        Ok(())
    })?;
    let seg = seg.ok_or("open did not run")?;
    report.global("engine.open_ms", open_ms, "ms", 3);

    read_layers(&mut report, scale, &seg, &bt, &seg_db)?;
    drop(bt);
    for &(workload, untraced_p50) in &args.workloads {
        traced_run(
            &mut report,
            &mut trace,
            &seg,
            workload,
            scale,
            args.seed,
            untraced_p50,
        )?;
    }
    write_layers(&mut report, scale, args.seed, seg, &seg_db, dir)?;

    let path = paths.out.join(format!("trace-{}.json", args.seed));
    let metrics = Value::Arr(report.rows.iter().map(Row::to_json).collect());
    let header = format!(
        "\"schema\":\"xkbench-trace/v1\",\"scale\":\"{}\",\"seed\":{},\"traced_requests\":{TRACED_REQUESTS},\"metrics\":{}",
        scale.label,
        args.seed,
        metrics.render()
    );
    std::fs::write(&path, trace.to_json(&header))?;
    println!("# wrote {} ({} spans)", path.display(), trace.spans.len());
    Ok(())
}

/// Read-side numbers of xk-index, xk-segment, xk-storage, xk-slca and
/// xk-server, each a fixed number of calls on this thread.
fn read_layers(
    report: &mut Report,
    scale: &Scale,
    seg: &Store,
    bt: &Store,
    seg_db: &Path,
) -> Result<(), AnyError> {
    let block_size = seg.page_size();

    // xk-index: the frequency table. The segmented build keeps postings
    // (and their counts) out of the `DiskIndex`, so the populated table
    // of the B+tree build is the one timed.
    let vocabulary: Vec<String> = scale
        .classes()
        .iter()
        .flat_map(|c| (0..c.count).map(|i| c.keyword(i)))
        .collect();
    const VOCAB_REPS: usize = 200;
    let took = repeat(VOCAB_REPS, || bt.vocab_frequencies(&vocabulary));
    let lookups = VOCAB_REPS * vocabulary.len();
    report.global(
        "index.vocab_lookup_ns",
        took.as_nanos() as f64 / lookups as f64,
        "ns",
        lookups,
    );

    // Probes: anchors in the order real `{low|mid} × big` queries issue them.
    let mut anchors: Vec<Node> = Vec::with_capacity(PROBE_ANCHORS);
    for class in [scale.low, scale.mid] {
        for i in 0..class.count {
            if anchors.len() < PROBE_ANCHORS {
                anchors.extend(seg.dump(&class.keyword(i))?);
            }
        }
    }
    anchors.truncate(PROBE_ANCHORS);
    let big0 = scale.big.keyword(0);
    for (store, name) in [(seg, "segment.probe_us"), (bt, "index.btree_probe_us")] {
        let reads_before = store.block_reads();
        let (found, took) = timed(|| {
            anchors
                .iter()
                .map(|a| store.probe(&big0, a))
                .collect::<Result<Vec<bool>, _>>()
        });
        found?;
        report.global(
            name,
            took.as_secs_f64() * 1e6 / anchors.len() as f64,
            "us",
            anchors.len(),
        );
        if name == "segment.probe_us" {
            let reads = (store.block_reads() - reads_before) as f64;
            report.global(
                "segment.block_reads_per_probe",
                reads / anchors.len() as f64,
                "count",
                anchors.len(),
            );
        }
    }

    // xk-segment: open, whole-list decode, streaming drain, bytes per posting.
    let mut blob = None;
    let open_ms = median_ms(5, || {
        blob = Some(surface::open_blob(seg_db, block_size)?);
        Ok(())
    })?;
    let blob = blob.ok_or("blob open did not run")?;
    report.global("segment.open_ms", open_ms, "ms", 5);
    let bigs: Vec<String> = (0..scale.big.count).map(|i| scale.big.keyword(i)).collect();
    let (decoded, took) = timed(|| {
        bigs.iter()
            .map(|k| blob.decode(k))
            .sum::<Result<usize, _>>()
    });
    let decoded = decoded?;
    report.global(
        "segment.decode_mpostings_s",
        decoded as f64 / 1e6 / took.as_secs_f64(),
        "M/s",
        decoded,
    );
    let (streamed, took) = timed(|| bigs.iter().map(|k| blob.stream(k)).sum::<usize>());
    report.global(
        "segment.stream_mpostings_s",
        streamed as f64 / 1e6 / took.as_secs_f64(),
        "M/s",
        streamed,
    );
    let blob_bytes: u64 = std::fs::read_dir(surface::segments_dir(seg_db))?
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let (_, sealed_postings) = seg.sealed();
    report.global(
        "segment.bytes_per_posting",
        blob_bytes as f64 / sealed_postings.max(1) as f64,
        "bytes",
        sealed_postings as usize,
    );

    // Seal: encode the seal threshold's worth of postings (4096) in memory.
    let mut to_seal: Vec<(String, Vec<Node>)> = Vec::new();
    let mut budget = 4096usize;
    for i in 0..scale.mid.count + scale.eq.count {
        let kw = if i < scale.mid.count {
            scale.mid.keyword(i)
        } else {
            scale.eq.keyword(i - scale.mid.count)
        };
        let mut list = seg.dump(&kw)?;
        list.truncate(budget);
        budget -= list.len();
        to_seal.push((kw, list));
        if budget == 0 {
            break;
        }
    }
    let mut sealed = 0;
    let seal_ms = median_ms(5, || {
        sealed = surface::seal_in_memory(&to_seal, block_size)?;
        Ok(())
    })?;
    report.global("segment.seal_ms", seal_ms, "ms", sealed as usize);

    // xk-storage: checksum speed over one page.
    let page: Vec<u8> = {
        let mut rng = SplitMix64::new(4096);
        (0..4096).map(|_| rng.next_u64() as u8).collect()
    };
    const CRC_REPS: usize = 50_000;
    let took = repeat(CRC_REPS, || {
        u64::from(surface::crc32(std::hint::black_box(&page)))
    });
    report.global(
        "storage.crc32_mb_s",
        (CRC_REPS * page.len()) as f64 / 1e6 / took.as_secs_f64(),
        "MB/s",
        CRC_REPS,
    );

    // xk-slca on in-memory lists: no storage under the algorithms.
    let big0_list = seg.dump(&big0)?;
    let (mut ns, mut lookups) = (0u128, 0u64);
    for i in 0..64.min(scale.low.count) {
        let s1 = seg.dump(&scale.low.keyword(i))?;
        let mut lists = surface::lists(&[&s1, &big0_list]);
        let (counts, took) = timed(|| lists.il());
        ns += took.as_nanos();
        lookups += counts.0;
    }
    report.global(
        "slca.il_ns_per_lookup",
        ns as f64 / lookups.max(1) as f64,
        "ns",
        lookups as usize,
    );
    let eq_lists: Vec<Vec<Node>> = (0..scale.eq.count)
        .map(|i| seg.dump(&scale.eq.keyword(i)))
        .collect::<Result<_, _>>()?;
    for (name, stack) in [
        ("slca.scan_ns_per_node", false),
        ("slca.stack_ns_per_node", true),
    ] {
        let (mut ns, mut nodes) = (0u128, 0u64);
        for pair in eq_lists.windows(2) {
            let mut lists = surface::lists(&[&pair[0], &pair[1]]);
            let (counts, took) = timed(|| if stack { lists.stack() } else { lists.scan() });
            ns += took.as_nanos();
            nodes += counts.1;
        }
        report.global(name, ns as f64 / nodes.max(1) as f64, "ns", nodes as usize);
    }

    // xk-server: head parse and a cache hit.
    let sample = vec![scale.low.keyword(0), big0.clone()];
    let request = render_get(&query_path(&sample, None));
    const SERVER_REPS: usize = 200_000;
    let took = repeat(SERVER_REPS, || {
        u64::from(surface::parse_head(std::hint::black_box(&request)))
    });
    report.global(
        "server.parse_head_ns",
        took.as_nanos() as f64 / SERVER_REPS as f64,
        "ns",
        SERVER_REPS,
    );
    let cache = surface::Cache::new();
    cache.insert(&sample, &seg.query(&sample, Algo::Auto)?);
    let took = repeat(SERVER_REPS, || {
        u64::from(cache.lookup(std::hint::black_box(&sample)))
    });
    report.global(
        "server.cache_lookup_ns",
        took.as_nanos() as f64 / SERVER_REPS as f64,
        "ns",
        SERVER_REPS,
    );
    Ok(())
}

/// The traced requests of one workload, and the per-workload engine numbers.
fn traced_run(
    report: &mut Report,
    trace: &mut Trace,
    store: &Store,
    workload: Workload,
    scale: &Scale,
    seed: u64,
    untraced_p50_us: Option<f64>,
) -> Result<(), AnyError> {
    let w = workload.name();
    let pool = workload.pool(scale, seed);
    let order: Vec<usize> = if workload.cyclic() {
        (0..TRACED_REQUESTS).map(|n| n % pool.len()).collect()
    } else {
        let (zipf, mut rng) = (
            Zipf::new(pool.len(), ZIPF_S),
            SplitMix64::new(seed ^ 0x7261_6365),
        );
        (0..TRACED_REQUESTS)
            .map(|_| zipf.sample(&mut rng))
            .collect()
    };

    let served = store.serve()?;
    let mut conn = Conn::connect(served.addr())?;
    let cache = surface::Cache::new();
    let first_span = trace.spans.len();
    let (mut request_ns, mut query_ns) = (Recorder::new(), Recorder::new());
    let mut sums = [0u64; 4]; // match_lookups, nodes_scanned, lca_computations, results
    let (mut allocs, mut alloc_bytes, mut serialize_ns, mut slcas, mut misses) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    for (n, &i) in order.iter().enumerate() {
        let keywords = &pool[i];
        let request = render_get(&query_path(keywords, None));
        let rid = n as u64;
        let (req_span, reply) = trace.span(w, "request", None, rid, || {
            let reply = conn.exchange(&request);
            let bytes = conn.body().len() as u64;
            (reply, vec![("body_bytes", bytes)])
        });
        if reply?.status != 200 {
            return Err(format!("{w}: traced request {n} was not answered 200").into());
        }
        request_ns.record(
            trace.spans[req_span as usize].end_ns - trace.spans[req_span as usize].start_ns,
        );

        // Replays of the request's parts, by direct call.
        trace.span(w, "server.parse_head", Some(req_span), rid, || {
            (surface::parse_head(&request), Vec::new())
        });
        let (_, hit) = trace.span(w, "server.cache_lookup", Some(req_span), rid, || {
            let hit = cache.lookup(keywords);
            (hit, vec![("hit", u64::from(hit))])
        });
        if hit {
            continue;
        }
        let before = alloc_counts();
        let (query_span, answer) =
            trace.span(w, "engine.query", Some(req_span), rid, || {
                match store.query(keywords, Algo::Auto) {
                    Ok(a) => {
                        let counts = a.counts();
                        (Ok(a), counts)
                    }
                    Err(e) => (Err(e), Vec::new()),
                }
            });
        let after = alloc_counts();
        let answer = answer?;
        allocs += after.0 - before.0;
        alloc_bytes += after.1 - before.1;
        query_ns.record(
            trace.spans[query_span as usize].end_ns - trace.spans[query_span as usize].start_ns,
        );
        for (sum, (_, count)) in sums.iter_mut().zip(answer.counts()) {
            *sum += count;
        }
        if misses % SEGMENT_REPLAY_EVERY == 0 {
            replay_segment_work(trace, store, w, query_span, rid, &answer)?;
        }
        misses += 1;
        let (span, bytes) = trace.span(w, "server.serialize", Some(req_span), rid, || {
            let bytes = surface::serialize(&answer);
            (
                bytes,
                vec![("bytes", bytes as u64), ("slcas", answer.results())],
            )
        });
        std::hint::black_box(bytes);
        serialize_ns += trace.spans[span as usize].end_ns - trace.spans[span as usize].start_ns;
        slcas += answer.results();
        cache.insert(keywords, &answer);
    }
    served.stop();

    let per_query = |total: u64| total as f64 / misses.max(1) as f64;
    for (name, total) in [
        ("slca.match_lookups_per_query", sums[0]),
        ("slca.nodes_scanned_per_query", sums[1]),
        ("slca.lca_computations_per_query", sums[2]),
        ("slca.results_per_query", sums[3]),
        ("engine.allocs_per_query", allocs),
    ] {
        report.emit(name, w, per_query(total), "count", misses);
    }
    report.emit(
        "engine.alloc_bytes_per_query",
        w,
        per_query(alloc_bytes),
        "bytes",
        misses,
    );
    report.emit(
        "engine.query_us",
        w,
        query_ns.median().unwrap_or(0) as f64 / 1e3,
        "us",
        query_ns.len(),
    );
    report.emit(
        "server.serialize_ns_per_slca",
        w,
        serialize_ns as f64 / slcas.max(1) as f64,
        "ns",
        slcas as usize,
    );

    // The front end's self time: the round trip minus its replayed parts.
    let self_ns = trace.self_times_ns();
    let mut overhead = Recorder::from_samples(
        trace.spans[first_span..]
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| self_ns[s.id as usize])
            .collect(),
    );
    report.emit(
        "server.overhead_us",
        w,
        overhead.median().unwrap_or(0) as f64 / 1e3,
        "us",
        overhead.len(),
    );
    let request_p50_us = request_ns.median().unwrap_or(0) as f64 / 1e3;
    report.emit(
        "trace.request_p50_us",
        w,
        request_p50_us,
        "us",
        request_ns.len(),
    );
    // 0 when run by hand without the untraced number to hold it against.
    let ratio = untraced_p50_us
        .filter(|p| *p > 0.0)
        .map_or(0.0, |p| request_p50_us / p);
    report.emit("trace_overhead_ratio", w, ratio, "ratio", request_ns.len());

    // Auto regret: time under Auto over time under the best explicit
    // algorithm, each the faster of two runs on the engine's own clock.
    let (mut auto_ns, mut best_ns) = (0u128, 0u128);
    let regret_pool = &pool[..REGRET_QUERIES.min(pool.len())];
    for keywords in regret_pool {
        let fastest = |algo| -> Result<u128, AnyError> {
            let a = store.query(keywords, algo)?.elapsed();
            Ok(a.min(store.query(keywords, algo)?.elapsed()).as_nanos())
        };
        auto_ns += fastest(Algo::Auto)?;
        best_ns += fastest(Algo::Il)?
            .min(fastest(Algo::Scan)?)
            .min(fastest(Algo::Stack)?);
    }
    report.emit(
        "engine.auto_regret",
        w,
        auto_ns as f64 / best_ns.max(1) as f64,
        "ratio",
        regret_pool.len(),
    );
    Ok(())
}

/// Re-does one query's list work through `Engine::posting_dump` /
/// `Engine::posting_probe`, as children of its `engine.query` span.
fn replay_segment_work(
    trace: &mut Trace,
    store: &Store,
    w: &'static str,
    query_span: u64,
    rid: u64,
    answer: &surface::Answer,
) -> Result<(), AnyError> {
    let keywords = answer.keywords();
    let Some((first, rest)) = keywords.split_first() else {
        return Ok(());
    };
    // S₁ is always streamed; under scan/stack so is every other list.
    let streamed: &[String] = if answer.ran_il() {
        std::slice::from_ref(first)
    } else {
        keywords
    };
    let (_, lists) = trace.span(w, "segment.decode", Some(query_span), rid, || {
        let lists: Result<Vec<Vec<Node>>, AnyError> =
            streamed.iter().map(|k| store.dump(k)).collect();
        let postings = lists
            .as_ref()
            .map_or(0, |l| l.iter().map(Vec::len).sum::<usize>());
        (lists, vec![("postings", postings as u64)])
    });
    let lists = lists?;
    if answer.ran_il() {
        let (_, probed) = trace.span(w, "segment.probe", Some(query_span), rid, || {
            let mut probes = 0;
            for anchor in &lists[0] {
                for keyword in rest {
                    if let Err(e) = store.probe(keyword, anchor) {
                        return (Err(e), Vec::new());
                    }
                    probes += 1;
                }
            }
            (Ok(()), vec![("probes", probes)])
        });
        probed?;
    }
    Ok(())
}

/// Write-side numbers: durable appends, group commit, recovery of a
/// crash image, and a merge. Runs last — it changes the store.
fn write_layers(
    report: &mut Report,
    scale: &Scale,
    seed: u64,
    seg: Store,
    seg_db: &Path,
    dir: &Path,
) -> Result<(), AnyError> {
    // The sandbox's fsync floor, for reading `append_p50_us` against.
    let mut log = std::fs::File::create(dir.join("fsync.probe"))?;
    let mut fsync_us = Vec::new();
    for _ in 0..64 {
        log.write_all(&[0u8; 4096])?;
        let (synced, took) = timed(|| log.sync_data());
        synced?;
        fsync_us.push(took.as_secs_f64() * 1e6);
    }
    report.global(
        "storage.fsync_us",
        median_f64(&fsync_us).unwrap_or(0.0),
        "us",
        fsync_us.len(),
    );

    // One writer, then two: `engine.append_us` and commits per fsync.
    let mut rng = SplitMix64::new(seed ^ 0x77_7269_7465);
    let mut append_us = Vec::new();
    for seq in 0..APPENDS_SINGLE {
        let fragment = append_fragment(scale, seq, &mut rng);
        let (appended, took) = timed(|| seg.append(&fragment));
        appended?;
        append_us.push(took.as_secs_f64() * 1e6);
    }
    report.global(
        "engine.append_us",
        median_f64(&append_us).unwrap_or(0.0),
        "us",
        append_us.len(),
    );
    let (commits0, syncs0) = seg.wal_counts();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|writer| {
                let (seg, mut rng) = (&seg, SplitMix64::new(seed ^ writer));
                s.spawn(move || -> Result<(), String> {
                    for k in 0..APPENDS_PER_WRITER {
                        let seq = APPENDS_SINGLE + writer * APPENDS_PER_WRITER + k;
                        seg.append(&append_fragment(scale, seq, &mut rng))
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                })
            })
            .collect();
        writers
            .into_iter()
            .try_for_each(|t| t.join().expect("writer panicked"))
    })?;
    let (commits1, syncs1) = seg.wal_counts();
    let commits = commits1 - commits0;
    report.global(
        "storage.wal_commits_per_fsync",
        commits as f64 / (syncs1 - syncs0).max(1) as f64,
        "ratio",
        commits as usize,
    );
    report.global(
        "segment.count_after_run",
        seg.sealed().0 as f64,
        "count",
        (APPENDS_SINGLE + 2 * APPENDS_PER_WRITER) as usize,
    );

    // Crash image: the files as they are while the engine still runs
    // (every append above was acknowledged, nothing checkpointed).
    let crash_db = dir.join("crash.db");
    std::fs::copy(seg_db, &crash_db)?;
    std::fs::copy(surface::wal_path(seg_db), surface::wal_path(&crash_db))?;
    copy_dir(
        &surface::segments_dir(seg_db),
        &surface::segments_dir(&crash_db),
    )?;
    drop(seg);
    let (replayed, took) = timed(|| surface::recover(&crash_db, &surface::wal_path(&crash_db)));
    report.global(
        "storage.recover_ms",
        took.as_secs_f64() * 1e3,
        "ms",
        replayed?,
    );

    // Merge: seal small blobs until the tiered policy has a run, then
    // time one compaction. No WAL here; the merge itself is what is priced.
    let store = surface::open(&crash_db)?;
    store.set_seal_threshold(128);
    let blobs = |db: &Path| -> std::io::Result<Vec<(std::ffi::OsString, u64)>> {
        Ok(std::fs::read_dir(surface::segments_dir(db))?
            .flatten()
            .filter_map(|e| Some((e.file_name(), e.metadata().ok()?.len())))
            .collect())
    };
    let (base_blobs, _) = store.sealed();
    let mut merge = None;
    // The first seal also carries the journal replayed from the crash
    // image and lands in a larger size class, so "four more blobs" is
    // not always a run yet: keep sealing until the policy finds one.
    for seq in (1 << 20)..(1 << 20) + 400 {
        store.append(&append_fragment(scale, seq, &mut rng))?;
        if store.sealed().0 >= base_blobs + 4 {
            let before = blobs(&crash_db)?;
            let (merged, took) = timed(|| store.compact());
            if let Some(postings) = merged? {
                merge = Some((postings, took, before));
                break;
            }
        }
    }
    let (merged_postings, took, before) =
        merge.ok_or("no run of small segments became eligible to merge")?;
    let after = blobs(&crash_db)?;
    report.global(
        "segment.merge_ms",
        took.as_secs_f64() * 1e3,
        "ms",
        merged_postings as usize,
    );
    // The blob that exists now and did not before is the rewrite.
    let rewritten: u64 = after
        .iter()
        .filter(|blob| !before.contains(blob))
        .map(|(_, size)| size)
        .sum();
    report.global(
        "segment.merge_bytes_rewritten",
        rewritten as f64,
        "bytes",
        merged_postings as usize,
    );
    Ok(())
}
