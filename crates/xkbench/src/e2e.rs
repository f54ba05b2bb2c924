//! The end-to-end run of one workload: set-up, correctness pinning,
//! warm-up, the measured window, and the durability tail — all against
//! child processes over HTTP, with tracing off.
//!
//! Load shape (every workload): [`CLIENTS`] closed-loop keep-alive
//! connections, one thread each, no pipelining — callers that wait for a
//! reply. Open-loop rates are deliberately not used: on two shared cores
//! their tails measure the scheduler, not the program.

use crate::corpus::{Scale, Workload, APPEND_LOW_KEYWORDS};
use crate::http::{query_path, render_get, render_post, Conn, Reply};
use crate::json::{self, Value};
use crate::proc::{setup, Paths, Server};
use crate::recorder::{median_f64, Recorder};
use crate::reference::{parse_slcas, reference_slca, Dewey};
use crate::report::Row;
use crate::rng::{SplitMix64, Zipf};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// The measured window is cut into this many sub-windows; a timing
/// metric is the median of the sub-window values.
pub const SUB_WINDOWS: usize = 5;
/// Load before the window, on top of the pinning pass that has already
/// visited every distinct query once.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Zipf exponent of `zipf_cached`.
pub const ZIPF_S: f64 = 1.1;
/// Pool queries re-run under `algo=il|scan|stack` before timing.
pub const CROSS_CHECKED: usize = 48;
/// Pool queries checked against the harness's own reference SLCA.
pub const REFERENCE_CHECKED: usize = 32;
/// Appends of the durability tail that ends every run. Each append
/// rewrites the embedded document (≈10 MB of WAL at full scale), so
/// sixteen already leave 160 MB for recovery to replay.
pub const TAIL_APPENDS: usize = 16;
/// The `append_mix` writer starts one append per tick (and waits for
/// its acknowledgement). Back to back it would write over 1 GB of WAL
/// in a 10 s window and recovery alone would take half a minute.
pub const APPEND_INTERVAL: Duration = Duration::from_millis(250);

/// A fault the contract test plants to see the failure accounting work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Corrupt every other pinned answer hash: window replies to those must fail.
    WrongPinnedHash,
    /// Claim an append that was never sent: the post-restart check must miss it.
    DroppedMarker,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub scale: Scale,
    pub seed: u64,
    pub window: Duration,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub fault: Option<Fault>,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    /// The `end_to_end` metrics of BENCHMARK.json, in its order.
    pub end_to_end: Vec<Row>,
    /// Per-layer metrics this run can see from outside (`/metrics`
    /// deltas around the window, client-side body sizes and gaps).
    pub layers: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// The highest percentile of the recorder's ladder with at least ten
    /// query samples beyond it over the whole window, and its value in
    /// microseconds: what tail this run could have supported.
    pub supported_tail: Option<(f64, f64)>,
}

/// FNV-1a 64.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes between the brackets of the reply's `"slcas":[…]` member —
/// the answer itself. `stats`, `frequencies` and `algorithm` around it
/// legitimately differ between algorithms and across appends.
pub fn slcas_slice(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\"slcas\":[";
    let start = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let len = body[start..].iter().position(|&b| b == b']')?;
    Some(&body[start..start + len])
}

/// Unsigned integer member `"key":123` of a flat reply.
fn uint_member(body: &[u8], key: &str) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find(&format!("\"{key}\":"))? + key.len() + 3..];
    rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())]
        .parse()
        .ok()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Query,
    Append,
}

/// One completed request inside the window.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Completion time, ns after the window opened.
    done_ns: u64,
    total_ns: u64,
    ttfb_ns: u64,
    body_bytes: u32,
    ok: bool,
}

/// The measured window; load starts [`WARMUP`] before it opens.
#[derive(Debug, Clone, Copy)]
struct Phase {
    window_start: Instant,
    window_end: Instant,
}

impl Phase {
    /// Records a request sent at `sent` if it completed inside the
    /// window. `answered` is the reply, its body length and whether it
    /// was the right answer; `None` is an I/O error that ended just now.
    fn record(
        &self,
        out: &mut Vec<Sample>,
        kind: Kind,
        sent: Instant,
        answered: Option<(Reply, usize, bool)>,
    ) {
        let failed = Reply {
            status: 0,
            ttfb: Duration::ZERO,
            total: sent.elapsed(),
        };
        let (reply, body_bytes, ok) = answered.unwrap_or((failed, 0, false));
        let done = sent + reply.total;
        if done >= self.window_start && done < self.window_end {
            out.push(Sample {
                kind,
                done_ns: (done - self.window_start).as_nanos() as u64,
                total_ns: reply.total.as_nanos() as u64,
                ttfb_ns: reply.ttfb.as_nanos() as u64,
                body_bytes: body_bytes as u32,
                ok,
            });
        }
    }
}

/// How a query client picks its next pool index.
enum Pick<'a> {
    /// One cursor shared by all connections: a key recurs only after
    /// every other key, whatever the connections' relative speed.
    Cyclic(&'a AtomicUsize),
    Zipf(Zipf, SplitMix64),
}

struct QueryPool {
    requests: Vec<Vec<u8>>,
    /// FNV-1a of each query's pinned `slcas` bytes.
    pinned: Vec<u64>,
}

fn query_client(
    addr: SocketAddr,
    pool: &QueryPool,
    mut pick: Pick,
    phase: Phase,
) -> io::Result<Vec<Sample>> {
    let mut conn = Conn::connect(addr)?;
    let mut samples = Vec::with_capacity(1 << 16);
    while Instant::now() < phase.window_end {
        let i = match &mut pick {
            Pick::Cyclic(cursor) => cursor.fetch_add(1, Ordering::Relaxed) % pool.requests.len(),
            Pick::Zipf(zipf, rng) => zipf.sample(rng),
        };
        let sent = Instant::now();
        match conn.exchange(&pool.requests[i]) {
            Ok(reply) => {
                let body = conn.body();
                let ok =
                    reply.status == 200 && slcas_slice(body).map(fnv1a) == Some(pool.pinned[i]);
                phase.record(
                    &mut samples,
                    Kind::Query,
                    sent,
                    Some((reply, body.len(), ok)),
                );
            }
            Err(_) => {
                // An I/O error is a failed operation; a server that is
                // really gone fails the reconnect and ends the run.
                phase.record(&mut samples, Kind::Query, sent, None);
                conn = Conn::connect(addr)?;
            }
        }
    }
    Ok(samples)
}

/// The append script: fragment `seq` is one paper carrying the unique
/// marker `mk<seq>`, one of the first [`APPEND_LOW_KEYWORDS`] `low`
/// keywords (cycled) and five background words. Grafted under the root,
/// it gives no subtree both a `low` and a `big` keyword, so the pinned
/// SLCA sets of the reader's queries stay valid across appends.
pub fn append_fragment(scale: &Scale, seq: u64, rng: &mut SplitMix64) -> String {
    let words: Vec<String> = (0..5).map(|_| format!("w{:04}", rng.below(5000))).collect();
    let low = scale
        .low
        .keyword(seq as usize % APPEND_LOW_KEYWORDS.min(scale.low.count));
    format!(
        "<article><title>{} mk{seq} {low}</title><author>author{}</author><author>author{}</author>\
         <pages>{}-{}</pages><year>{}</year></article>",
        words.join(" "),
        rng.below(20_000),
        rng.below(20_000),
        1 + rng.below(400),
        401 + rng.below(30),
        1970 + rng.below(10),
    )
}

/// Marker sequence numbers are unique across a run's writers.
struct Appender<'a> {
    scale: &'a Scale,
    next_seq: &'a AtomicU64,
    rng: SplitMix64,
}

impl Appender<'_> {
    /// Sends one append; returns the reply timing and, when the server
    /// acknowledged it, the marker now owed back after a crash.
    fn append(&mut self, conn: &mut Conn) -> (Instant, io::Result<(Reply, Option<u64>)>) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let request = render_post("/append", &append_fragment(self.scale, seq, &mut self.rng));
        let sent = Instant::now();
        let result = conn
            .exchange(&request)
            .map(|r| (r, (r.status == 200).then_some(seq)));
        (sent, result)
    }
}

fn append_client(
    addr: SocketAddr,
    mut appender: Appender,
    begin: Instant,
    phase: Phase,
) -> io::Result<(Vec<Sample>, Vec<u64>)> {
    let mut conn = Conn::connect(addr)?;
    let (mut samples, mut acked) = (Vec::new(), Vec::new());
    for tick in 0.. {
        // A slow append delays the next one; it never queues a second.
        std::thread::sleep(
            (begin + APPEND_INTERVAL * tick).saturating_duration_since(Instant::now()),
        );
        if Instant::now() >= phase.window_end {
            break;
        }
        match appender.append(&mut conn) {
            (sent, Ok((reply, ack))) => {
                acked.extend(ack);
                let answered = Some((reply, conn.body().len(), ack.is_some()));
                phase.record(&mut samples, Kind::Append, sent, answered);
            }
            (sent, Err(_)) => {
                phase.record(&mut samples, Kind::Append, sent, None);
                conn = Conn::connect(addr)?;
            }
        }
    }
    Ok((samples, acked))
}

/// Counters read from `GET /metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct ServerCounters {
    queries_ok: f64,
    appends_ok: f64,
    shed: f64,
    il: f64,
    all_algorithms: f64,
    cache_hits: f64,
    cache_misses: f64,
    invalidations: f64,
    logical_reads: f64,
    disk_reads: f64,
}

fn server_counters(addr: SocketAddr) -> io::Result<ServerCounters> {
    let mut conn = Conn::connect(addr)?;
    conn.get("/metrics")?;
    let doc = std::str::from_utf8(conn.body())
        .map_err(io::Error::other)
        .and_then(|t| json::parse(t).map_err(io::Error::other))?;
    let f = |path: &[&str]| doc.path(path).and_then(Value::as_f64).unwrap_or(0.0);
    let by_algo = ["indexed-lookup-eager", "scan-eager", "stack"];
    Ok(ServerCounters {
        queries_ok: f(&["requests", "queries_ok"]),
        appends_ok: f(&["requests", "appends_ok"]),
        shed: f(&["requests", "shed"]),
        il: f(&["queries_by_algorithm", by_algo[0]]),
        all_algorithms: by_algo
            .iter()
            .map(|a| f(&["queries_by_algorithm", a]))
            .sum(),
        cache_hits: f(&["cache", "hits"]),
        cache_misses: f(&["cache", "misses"]),
        invalidations: f(&["cache", "invalidations"]),
        logical_reads: f(&["io", "logical_reads"]),
        disk_reads: f(&["io", "disk_reads"]),
    })
}

/// `a / b`, or `when_zero` if nothing was counted.
fn ratio(a: f64, b: f64, when_zero: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        when_zero
    }
}

/// Running totals of operations attempted and failed, the run's
/// `attempted` / `failed`.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Answers every distinct query once (`algo=auto`) over [`CLIENTS`]
/// connections and pins the hash of each answer. Doubles as warm-up: the
/// buffer pool, the decoded-chunk caches and (for `zipf_cached`) the
/// result cache have seen the whole pool before timing starts.
fn pin_pass(addr: SocketAddr, requests: &[Vec<u8>], tally: &mut Tally) -> io::Result<Vec<u64>> {
    let cursor = AtomicUsize::new(0);
    let parts = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| -> io::Result<Vec<(usize, Option<u64>)>> {
                    let mut conn = Conn::connect(addr)?;
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(i) else {
                            return Ok(out);
                        };
                        let reply = conn.exchange(request)?;
                        out.push((
                            i,
                            (reply.status == 200)
                                .then(|| slcas_slice(conn.body()).map(fnv1a))
                                .flatten(),
                        ));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pin thread panicked"))
            .collect::<io::Result<Vec<_>>>()
    })?;
    let mut pinned = vec![0; requests.len()];
    for (i, hash) in parts.into_iter().flatten() {
        tally.check(hash.is_some());
        // An unanswered query keeps hash 0 and so fails in the window too.
        pinned[i] = hash.unwrap_or(0);
    }
    Ok(pinned)
}

/// Re-runs the first [`CROSS_CHECKED`] queries under each explicit
/// algorithm: all three must return the pinned SLCA bytes.
fn cross_check(
    conn: &mut Conn,
    pool: &[Vec<String>],
    pinned: &[u64],
    tally: &mut Tally,
) -> io::Result<()> {
    for (q, &want) in pool.iter().zip(pinned).take(CROSS_CHECKED) {
        for algo in ["il", "scan", "stack"] {
            let reply = conn.get(&query_path(q, Some(algo)))?;
            tally.check(reply.status == 200 && slcas_slice(conn.body()).map(fnv1a) == Some(want));
        }
    }
    Ok(())
}

/// Checks the first [`REFERENCE_CHECKED`] queries against the harness's
/// own SLCA over posting lists fetched with single-keyword queries.
fn reference_check(conn: &mut Conn, pool: &[Vec<String>], tally: &mut Tally) -> io::Result<()> {
    let mut lists: HashMap<String, Vec<Dewey>> = HashMap::new();
    for q in pool.iter().take(REFERENCE_CHECKED) {
        for kw in q {
            if !lists.contains_key(kw) {
                conn.get(&query_path(std::slice::from_ref(kw), None))?;
                let list = slcas_slice(conn.body())
                    .and_then(parse_slcas)
                    .unwrap_or_default();
                lists.insert(kw.clone(), list);
            }
        }
        let reply = conn.get(&query_path(q, None))?;
        let got = slcas_slice(conn.body()).and_then(parse_slcas);
        let want = reference_slca(&q.iter().map(|kw| lists[kw].as_slice()).collect::<Vec<_>>());
        tally.check(reply.status == 200 && got.as_ref() == Some(&want));
    }
    Ok(())
}

/// After a restart every acknowledged marker must return exactly one SLCA.
fn verify_markers(addr: SocketAddr, acked: &[u64], tally: &mut Tally) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    for seq in acked {
        let reply = conn.get(&format!("/query?kw=mk{seq}"))?;
        tally.check(reply.status == 200 && uint_member(conn.body(), "count") == Some(1));
    }
    Ok(())
}

/// Median over the sub-windows of `f(samples of that sub-window)`.
fn sub_window_median(
    samples: &[Sample],
    window: Duration,
    f: impl Fn(&[Sample], f64) -> Option<f64>,
) -> Option<f64> {
    let width = window.as_nanos() as u64 / SUB_WINDOWS as u64;
    let values: Vec<f64> = (0..SUB_WINDOWS as u64)
        .filter_map(|i| {
            let part: Vec<Sample> = samples
                .iter()
                .filter(|s| s.done_ns / width.max(1) == i)
                .copied()
                .collect();
            f(&part, width as f64 / 1e9)
        })
        .collect();
    median_f64(&values)
}

fn quantile_us(samples: &[Sample], q: f64, field: impl Fn(&Sample) -> u64) -> Option<f64> {
    Recorder::from_samples(samples.iter().map(field).collect())
        .quantile(q)
        .map(|ns| ns as f64 / 1e3)
}

pub fn run_workload(paths: &Paths, cfg: &Config, workload: Workload) -> io::Result<Outcome> {
    let mut tally = Tally::default();

    // Set-up, `cfg.setups` times from scratch; the last server is used.
    let mut setup_times = Vec::new();
    let mut live = None;
    for i in 0..cfg.setups.max(1) {
        if let Some((server, _dir)) = live.take() {
            Server::shutdown(server)?;
        }
        let dir = paths.work_dir(&format!("{}-{i}", workload.name()))?;
        let (server, seconds) = setup(paths, &cfg.scale, cfg.seed, dir.path())?;
        setup_times.push(seconds);
        live = Some((server, dir));
    }
    // `_dir` outlives every server started on it and is removed on return.
    let (server, _dir) = live.expect("at least one set-up ran");
    let addr = server.addr;

    // Correctness before timing.
    let pool = workload.pool(&cfg.scale, cfg.seed);
    let requests: Vec<Vec<u8>> = pool
        .iter()
        .map(|q| render_get(&query_path(q, None)))
        .collect();
    let mut pinned = pin_pass(addr, &requests, &mut tally)?;
    {
        let mut conn = Conn::connect(addr)?;
        cross_check(&mut conn, &pool, &pinned, &mut tally)?;
        reference_check(&mut conn, &pool, &mut tally)?;
    }
    if cfg.fault == Some(Fault::WrongPinnedHash) {
        pinned.iter_mut().step_by(2).for_each(|h| *h ^= 1);
    }
    let query_pool = QueryPool { requests, pinned };

    // Warm-up, then the window.
    let begin = Instant::now();
    let phase = Phase {
        window_start: begin + WARMUP,
        window_end: begin + WARMUP + cfg.window,
    };
    let cursor = AtomicUsize::new(0);
    let next_seq = AtomicU64::new(0);
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let appender = |stream: u64| Appender {
        scale: &cfg.scale,
        next_seq: &next_seq,
        rng: SplitMix64::new(cfg.seed ^ 0xA99E_4D00 ^ stream),
    };
    let (mut samples, mut acked, before, after, cpu_ms) = std::thread::scope(|s| {
        let mut query_threads = Vec::new();
        let mut append_thread = None;
        for client in 0..CLIENTS {
            if workload == Workload::AppendMix && client == 0 {
                append_thread = Some(s.spawn(|| append_client(addr, appender(0), begin, phase)));
                continue;
            }
            let pick = if workload.cyclic() {
                Pick::Cyclic(&cursor)
            } else {
                Pick::Zipf(
                    zipf.clone(),
                    SplitMix64::new(cfg.seed ^ 0x21BF_0000 ^ client as u64),
                )
            };
            let query_pool = &query_pool;
            query_threads.push(s.spawn(move || query_client(addr, query_pool, pick, phase)));
        }
        // Server-side counters and CPU are read at the window's edges.
        std::thread::sleep(phase.window_start.saturating_duration_since(Instant::now()));
        let before = server_counters(addr).and_then(|c| Ok((c, server.cpu_ms()?)));
        std::thread::sleep(phase.window_end.saturating_duration_since(Instant::now()));
        let after = server_counters(addr).and_then(|c| Ok((c, server.cpu_ms()?)));

        let mut samples = Vec::new();
        let mut acked = Vec::new();
        for t in query_threads {
            samples.extend(t.join().expect("query client panicked")?);
        }
        if let Some(t) = append_thread {
            let (s, a) = t.join().expect("append client panicked")?;
            samples.extend(s);
            acked = a;
        }
        let ((before, cpu0), (after, cpu1)) = (before?, after?);
        Ok::<_, io::Error>((samples, acked, before, after, cpu1 - cpu0))
    })?;
    samples.sort_unstable_by_key(|s| s.done_ns);
    for s in &samples {
        tally.check(s.ok);
    }
    let rss_peak_mb = server.rss_peak_mb()?;

    // Durability. `append_mix` first crashes on its window's WAL (40
    // appends, ~400 MB; replaying it takes 2–5 s on this box, run to
    // run, so it is checked but not timed). Then every workload ends
    // with the same tail: a fixed burst of appends on a quiet server,
    // SIGKILL, a timed restart on the same files, and every
    // acknowledged marker must still be there.
    let disk_mb = server.disk_mb();
    let db = server.db.clone();
    let mut server = server;
    if workload == Workload::AppendMix {
        server.kill9()?;
        server = Server::start(&paths.xksearch, &db)?;
        verify_markers(server.addr, &acked, &mut tally)?;
    }
    let mut tail_ns = Vec::with_capacity(TAIL_APPENDS);
    {
        let mut conn = Conn::connect(server.addr)?;
        let mut appender = appender(1);
        for _ in 0..TAIL_APPENDS {
            let (reply, ack) = appender.append(&mut conn).1?;
            tally.check(ack.is_some());
            acked.extend(ack);
            tail_ns.extend(ack.map(|_| reply.total.as_nanos() as u64));
        }
    }
    server.kill9()?;
    let restart = Instant::now();
    let server = Server::start(&paths.xksearch, &db)?;
    let recovery_s = restart.elapsed().as_secs_f64();
    if cfg.fault == Some(Fault::DroppedMarker) {
        acked.push(u64::MAX >> 1);
    }
    verify_markers(server.addr, &acked, &mut tally)?;
    server.shutdown()?;

    // Metrics.
    let ok: Vec<Sample> = samples.iter().filter(|s| s.ok).copied().collect();
    let queries: Vec<Sample> = ok
        .iter()
        .filter(|s| s.kind == Kind::Query)
        .copied()
        .collect();
    // Append latencies: the window's on `append_mix`, the tail's elsewhere.
    let append_ns: Vec<u64> = if workload == Workload::AppendMix {
        let in_window = ok.iter().filter(|s| s.kind == Kind::Append);
        in_window.map(|s| s.total_ns).collect()
    } else {
        tail_ns
    };
    let missing = || {
        io::Error::other(format!(
            "{}: no successful samples in the window",
            workload.name()
        ))
    };
    let query_q = |q: f64, field: fn(&Sample) -> u64| {
        sub_window_median(&queries, cfg.window, |part, _| quantile_us(part, q, field))
            .ok_or_else(missing)
    };
    let metric = |name: &str, value: f64, unit: &str, n: usize| Row {
        name: name.into(),
        workload: workload.name().into(),
        value,
        unit: unit.into(),
        n,
    };
    let end_to_end = vec![
        metric(
            "setup_s",
            median_f64(&setup_times).unwrap_or(0.0),
            "s",
            setup_times.len(),
        ),
        metric(
            "throughput_rps",
            sub_window_median(&ok, cfg.window, |part, secs| Some(part.len() as f64 / secs))
                .ok_or_else(missing)?,
            "req/s",
            ok.len(),
        ),
        metric(
            "query_p95_us",
            query_q(0.95, |s| s.total_ns)?,
            "us",
            queries.len(),
        ),
        // Too few appends for sub-windows (about 40 in `append_mix`, 16
        // in a tail): the median is over all of them.
        metric(
            "append_p50_us",
            Recorder::from_samples(append_ns.clone())
                .median()
                .ok_or_else(missing)? as f64
                / 1e3,
            "us",
            append_ns.len(),
        ),
        metric("recovery_s", recovery_s, "s", 1),
        metric(
            "cpu_ms_per_req",
            cpu_ms / ok.len().max(1) as f64,
            "ms",
            ok.len(),
        ),
        metric("rss_peak_mb", rss_peak_mb, "MiB", 1),
        metric("disk_mb", disk_mb, "MiB", 1),
    ];

    let d = |f: fn(&ServerCounters) -> f64| f(&after) - f(&before);
    let served = d(|c| c.queries_ok);
    let gap_us = sub_window_median(&queries, cfg.window, |part, _| {
        quantile_us(part, 0.5, |s| s.total_ns.saturating_sub(s.ttfb_ns))
    });
    let layers = vec![
        // Reported, not gated: see README.md, "Metrics moved out of the gated set".
        metric(
            "e2e.query_p50_us",
            query_q(0.5, |s| s.total_ns)?,
            "us",
            queries.len(),
        ),
        metric(
            "e2e.ttfb_p50_us",
            query_q(0.5, |s| s.ttfb_ns)?,
            "us",
            queries.len(),
        ),
        metric(
            "storage.pool_hit_ratio",
            1.0 - ratio(d(|c| c.disk_reads), d(|c| c.logical_reads), 0.0),
            "ratio",
            served as usize,
        ),
        metric(
            "storage.disk_reads_per_query",
            ratio(d(|c| c.disk_reads), served, 0.0),
            "count",
            served as usize,
        ),
        metric(
            "storage.logical_reads_per_query",
            ratio(d(|c| c.logical_reads), served, 0.0),
            "count",
            served as usize,
        ),
        metric(
            "server.cache_hit_ratio",
            ratio(
                d(|c| c.cache_hits),
                d(|c| c.cache_hits) + d(|c| c.cache_misses),
                0.0,
            ),
            "ratio",
            served as usize,
        ),
        metric(
            "server.algo_il_share",
            ratio(d(|c| c.il), d(|c| c.all_algorithms), 0.0),
            "ratio",
            served as usize,
        ),
        metric(
            "server.shed_ratio",
            ratio(d(|c| c.shed), samples.len() as f64, 0.0),
            "ratio",
            samples.len(),
        ),
        metric(
            "server.invalidations_per_append",
            ratio(d(|c| c.invalidations), d(|c| c.appends_ok), 0.0),
            "count",
            d(|c| c.appends_ok) as usize,
        ),
        metric(
            "server.body_kb_p50",
            Recorder::from_samples(queries.iter().map(|s| u64::from(s.body_bytes)).collect())
                .median()
                .unwrap_or(0) as f64
                / 1024.0,
            "KiB",
            queries.len(),
        ),
        metric(
            "server.ttfb_gap_us",
            gap_us.unwrap_or(0.0),
            "us",
            queries.len(),
        ),
    ];
    let supported_tail = Recorder::from_samples(queries.iter().map(|s| s.total_ns).collect())
        .tail()
        .map(|(q, ns)| (q, ns as f64 / 1e3));
    Ok(Outcome {
        end_to_end,
        layers,
        attempted: tally.attempted,
        failed: tally.failed,
        supported_tail,
    })
}
