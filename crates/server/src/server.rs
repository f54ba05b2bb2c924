//! `xkserve`: the event-driven TCP query service.
//!
//! Architecture (DESIGN.md §6): a single **reactor thread**
//! (`reactor.rs`) owns every socket through a level-triggered
//! epoll, parses HTTP/1.1 with keep-alive and pipelining via
//! per-connection state machines ([`crate::conn`]), and enforces
//! admission control — a connection cap (over it, the first request is
//! answered `503` and the connection closes) and a bounded job queue
//! (a request arriving with the queue full gets an immediate `503`,
//! connection kept open). CPU-bound work never runs on the reactor: a
//! fixed pool of worker threads pops jobs, answers `GET /query`,
//! `POST /append`, `/metrics`, `/healthz`, or `/shutdown` against the
//! shared [`Engine`] (`&self`, snapshot-isolated — appends never block
//! or tear reads) through the LRU result cache, and pushes rendered
//! bytes back over an eventfd waker. Responses flush in request arrival
//! order per connection.
//!
//! The engine lives in a slot that may start empty
//! ([`Server::start_loading`]): while crash recovery or index loading
//! runs, `/query`, `/append`, and `/healthz` answer `503` with
//! `Retry-After: 1` instead of hanging or refusing connections.
//!
//! **Graceful shutdown**: `/shutdown` (or [`Server::shutdown`]) flips an
//! atomic flag and taps the waker. The reactor releases the port
//! immediately, stops parsing new requests, and flushes every response
//! already owed; workers drain the job queue, then exit.
//! [`Server::join`] returns once both are done, so a joined server has
//! answered everything it ever admitted.

use crate::cache::{CacheKey, CachedAnswer, QueryCache};
use crate::http::{Request, Response};
use crate::json::JsonBuf;
use crate::metrics::{ServerMetrics, ALGO_NAMES};
use crate::payload;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xk_storage::IoStats;
use xk_xmltree::Dewey;
use xksearch::{Algorithm, AppendOutcome, Engine, EngineError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// LRU result-cache capacity in entries; 0 disables the cache.
    pub cache_entries: usize,
    /// Bound on jobs waiting for a worker. A request parsed while
    /// `queue_cap` jobs are already pending is answered `503` without
    /// queueing (the connection stays open).
    pub queue_cap: usize,
    /// Read deadline for a request in progress (slow request heads and
    /// bodies answer `408`) and write-progress deadline for responses.
    pub io_timeout: Duration,
    /// Open connections the reactor serves at once. Accepts beyond the
    /// cap are answered `503 Retry-After` and closed.
    pub max_connections: usize,
    /// How long an idle keep-alive connection (no request in progress,
    /// nothing owed) is kept before being reaped.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 4,
            cache_entries: 1024,
            queue_cap: 64,
            io_timeout: Duration::from_secs(5),
            max_connections: 4096,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// One parsed request in flight from the reactor to a worker.
pub(crate) struct Job {
    pub token: u64,
    pub seq: u64,
    pub request: Request,
    /// The client asked this exchange to be the connection's last.
    pub close_after: bool,
    /// When the reactor dispatched the job — latency is measured from
    /// here, so queue wait is part of the reported numbers.
    pub received: Instant,
}

/// A rendered response on its way back from a worker to the reactor.
pub(crate) struct Completion {
    pub token: u64,
    pub seq: u64,
    pub bytes: Vec<u8>,
    /// The connection must close once this response flushes.
    pub close_after: bool,
}

pub(crate) struct Shared {
    /// The engine slot. `None` while the index is still loading or
    /// recovering — requests needing it answer `503` + `Retry-After`
    /// until [`Server::install_engine`] fills the slot.
    pub(crate) engine: RwLock<Option<Arc<Engine>>>,
    /// Per-keyword staleness floor: the latest committed epoch at which
    /// an append touched each keyword's inverted list. A cache lookup
    /// for a key must present an entry at least as new as the max floor
    /// over its keywords; untouched keywords stay at 0 forever, so
    /// their cached answers survive every append.
    pub(crate) touched: Mutex<HashMap<String, u64>>,
    pub(crate) cache: QueryCache,
    pub(crate) metrics: ServerMetrics,
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) available: Condvar,
    pub(crate) completions: Mutex<Vec<Completion>>,
    /// Worker → reactor doorbell: tapped after every completion push so
    /// the reactor wakes from `epoll_wait` and flushes.
    pub(crate) waker: xk_sys::EventFd,
    pub(crate) shutdown: AtomicBool,
    pub(crate) local_addr: SocketAddr,
    pub(crate) config: ServerConfig,
}

impl Shared {
    fn engine(&self) -> Option<Arc<Engine>> {
        self.engine.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The staleness floor for a cache key: the newest epoch at which
    /// any of its keywords changed, or 0 when none ever did.
    fn floor_for(&self, key: &CacheKey) -> u64 {
        let map = self.touched.lock().unwrap_or_else(|e| e.into_inner());
        key.keywords.iter().filter_map(|kw| map.get(kw).copied()).max().unwrap_or(0)
    }

    /// Raises the floors of every keyword a commit touched.
    fn note_touched(&self, touched: &[String], epoch: u64) {
        let mut map = self.touched.lock().unwrap_or_else(|e| e.into_inner());
        for kw in touched {
            let floor = map.entry(kw.clone()).or_insert(0);
            if *floor < epoch {
                *floor = epoch;
            }
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        // A failed waker write leaves the reactor to notice the flag at
        // its next wheel-bounded wakeup (≤500 ms) — slower, not stuck.
        // xk-analyze: allow(swallowed_result, reason = "the reactor also polls the shutdown flag on a bounded timeout")
        let _ = self.waker.wake();
    }
}

/// A running server. Dropping the handle does **not** stop the service;
/// call [`Server::shutdown`] and/or [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    reactor_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting with a ready engine. Returns once the
    /// listener is live — the bound address (with the real port) is
    /// [`Server::local_addr`].
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let server = Server::start_loading(config)?;
        server.install_engine(engine);
        Ok(server)
    }

    /// Binds and starts accepting **before** the engine exists, so the
    /// port is claimed while recovery/index loading runs. Until
    /// [`Server::install_engine`] fills the slot, `/query` and `/append`
    /// answer `503` with `Retry-After: 1` and `/healthz` reports
    /// `"recovering"`.
    pub fn start_loading(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        // std hard-codes a backlog of 128; a thousand simultaneous
        // connects overflow that into SYN retransmits. Best-effort —
        // an old kernel refusing the re-listen still serves, just with
        // the smaller backlog.
        // xk-analyze: allow(swallowed_result, reason = "backlog resize is an optimization; the default 128 still works")
        let _ = xk_sys::listen_backlog(
            listener.as_raw_fd(),
            config.max_connections.max(128).min(u16::MAX as usize) as u32,
        );
        let workers_n = config.workers.max(1);
        let shared = Arc::new(Shared {
            engine: RwLock::new(None),
            touched: Mutex::new(HashMap::new()),
            cache: QueryCache::new(config.cache_entries),
            metrics: ServerMetrics::new(),
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: xk_sys::EventFd::new()?,
            shutdown: AtomicBool::new(false),
            local_addr,
            config,
        });
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let s = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("xkserve-worker-{i}"))
                    .spawn(move || worker_loop(&s))?,
            );
        }
        let s = Arc::clone(&shared);
        let reactor_thread = std::thread::Builder::new()
            .name("xkserve-reactor".to_string())
            .spawn(move || crate::reactor::run(listener, s))?;
        Ok(Server { shared, reactor_thread: Some(reactor_thread), workers })
    }

    /// Makes the engine available to requests. Idempotent in effect: a
    /// second install simply replaces the serving engine.
    pub fn install_engine(&self, engine: Arc<Engine>) {
        let mut slot = self.shared.engine.write().unwrap_or_else(|e| e.into_inner());
        *slot = Some(engine);
    }

    /// True once an engine is installed and requests can be served.
    pub fn is_ready(&self) -> bool {
        self.shared.engine.read().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Requests a graceful shutdown (equivalent to `GET /shutdown`).
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Waits for the reactor and every worker to finish — i.e. for the
    /// drain after a shutdown request. Returns the final metrics
    /// document (the same JSON `/metrics` serves).
    pub fn join(mut self) -> String {
        if let Some(t) = self.reactor_thread.take() {
            if t.join().is_err() {
                eprintln!("xkserve: reactor thread panicked during drain");
            }
        }
        for (i, w) in self.workers.drain(..).enumerate() {
            if w.join().is_err() {
                eprintln!("xkserve: worker thread {i} panicked during drain");
            }
        }
        metrics_json(&self.shared)
    }

    /// The current metrics document (the same JSON `/metrics` serves).
    pub fn metrics_json(&self) -> String {
        metrics_json(&self.shared)
    }

    /// Requests refused with 503 for load (connection cap or job queue).
    pub fn shed_count(&self) -> u64 {
        self.shared.metrics.shed.load(Ordering::Relaxed)
    }

    /// Connections currently open in the reactor.
    pub fn open_connections(&self) -> u64 {
        self.shared.metrics.open_connections.load(Ordering::Relaxed)
    }

    /// Requests served on a reused keep-alive connection so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.shared.metrics.keepalive_reuses.load(Ordering::Relaxed)
    }

    /// Requests that timed out mid-read and were answered `408`.
    pub fn read_timeouts(&self) -> u64 {
        self.shared.metrics.read_timeouts.load(Ordering::Relaxed)
    }
}

/// Pops jobs until shutdown + empty queue, computing each response and
/// handing the rendered bytes back to the reactor.
// xk-analyze: root(panic_path)
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = jobs.pop_front() {
                    break Some(j);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                jobs = shared.available.wait(jobs).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let (response, then_shutdown) = route(shared, &job.request, job.received);
        // Draining connections close regardless of what the client
        // asked for; the header must say so.
        let draining = then_shutdown || shared.shutdown.load(Ordering::SeqCst);
        let keep = !job.close_after && !draining;
        let bytes = response.render(keep);
        {
            let mut done = shared.completions.lock().unwrap_or_else(|e| e.into_inner());
            done.push(Completion { token: job.token, seq: job.seq, bytes, close_after: !keep });
        }
        // xk-analyze: allow(swallowed_result, reason = "the reactor also wakes on its bounded epoll timeout; a failed doorbell delays, never loses, the completion")
        let _ = shared.waker.wake();
        if then_shutdown {
            shared.request_shutdown();
        }
    }
}

/// Routes one request to its handler. Returns the response plus whether
/// the request asked the server to begin draining (`/shutdown`).
fn route(shared: &Shared, request: &Request, received: Instant) -> (Response, bool) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/query") => (handle_query(shared, request, received), false),
        ("POST", "/append") => (handle_append(shared, request, received), false),
        ("GET", "/metrics") => (Response::json(200, metrics_json(shared)), false),
        ("GET", "/healthz") => {
            if shared.engine().is_some() {
                (Response::json(200, r#"{"status":"ok"}"#.to_string()), false)
            } else {
                (
                    Response::json(503, r#"{"status":"recovering"}"#.to_string())
                        .with_headers(&["Retry-After: 1"]),
                    false,
                )
            }
        }
        ("GET", "/shutdown") | ("POST", "/shutdown") => {
            (Response::json(200, r#"{"status":"draining"}"#.to_string()), true)
        }
        ("GET", _) => {
            shared.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            (Response::json(404, payload::error_json("no such endpoint")), false)
        }
        _ => {
            shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            (Response::json(405, payload::error_json("method not allowed")), false)
        }
    }
}

/// Parses `algo=` the same way the CLI does.
pub fn parse_algorithm(name: &str) -> Option<Algorithm> {
    match name {
        "auto" => Some(Algorithm::Auto),
        "il" | "indexed-lookup-eager" => Some(Algorithm::IndexedLookupEager),
        "scan" | "scan-eager" => Some(Algorithm::ScanEager),
        "stack" => Some(Algorithm::Stack),
        _ => None,
    }
}

/// Collects keywords from `kw=` parameters: each occurrence may hold
/// several whitespace-separated keywords (`kw=john+ben` arrives as
/// `"john ben"` after decoding).
fn keywords_of(request: &Request) -> Vec<String> {
    request
        .params("kw")
        .flat_map(|v| v.split_whitespace())
        .map(|s| s.to_string())
        .collect()
}

fn bad(shared: &Shared, msg: &str) -> Response {
    shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
    Response::json(400, payload::error_json(msg))
}

/// `503 Service Unavailable` with `Retry-After` while the engine slot is
/// empty (index loading or crash recovery in progress).
fn unavailable(shared: &Shared) -> Response {
    shared.metrics.unavailable.fetch_add(1, Ordering::Relaxed);
    Response::json(503, payload::error_json("index recovering; retry shortly"))
        .with_headers(&["Retry-After: 1"])
}

/// The reactor's inline fast path: answers a `/query` whose result is
/// already cached without a worker round-trip (two context switches and
/// a queue trip saved per hit). Anything that is not a plain cache hit
/// — a miss, a stale entry, a malformed query, an empty engine slot —
/// returns `None` and takes the normal worker path, which owns all
/// error accounting. A hit books its metrics here exactly as the worker
/// path would.
pub(crate) fn try_cached_query(
    shared: &Shared,
    request: &Request,
    received: Instant,
) -> Option<Response> {
    if request.method != "GET" || request.path != "/query" {
        return None;
    }
    let keywords = keywords_of(request);
    if keywords.is_empty() {
        return None;
    }
    let algorithm = parse_algorithm(request.param("algo").unwrap_or("auto"))?;
    let kw_refs: Vec<&str> = keywords.iter().map(|s| s.as_str()).collect();
    let key = CacheKey::new(&kw_refs, algorithm)?;
    shared.engine()?; // an empty engine slot must answer 503, not a stale hit
    let floor = shared.floor_for(&key);
    let hit = shared.cache.peek_hit(&key, floor)?;
    let elapsed_us = received.elapsed().as_micros() as u64;
    let body = payload::query_response_json(&hit.result_json, &IoStats::default(), elapsed_us, true);
    shared.metrics.record_query(hit.algorithm, elapsed_us);
    Some(Response::json(200, body))
}

fn handle_query(shared: &Shared, request: &Request, received: Instant) -> Response {
    let keywords = keywords_of(request);
    if keywords.is_empty() {
        return bad(shared, "missing kw parameter");
    }
    let algo_name = request.param("algo").unwrap_or("auto");
    let Some(algorithm) = parse_algorithm(algo_name) else {
        return bad(shared, "unknown algo (use auto|il|scan|stack)");
    };
    let kw_refs: Vec<&str> = keywords.iter().map(|s| s.as_str()).collect();
    let Some(key) = CacheKey::new(&kw_refs, algorithm) else {
        return bad(shared, "keywords normalize to nothing");
    };
    let Some(engine) = shared.engine() else {
        return unavailable(shared);
    };
    let floor = shared.floor_for(&key);

    if let Some(hit) = shared.cache.lookup(&key, floor) {
        let elapsed_us = received.elapsed().as_micros() as u64;
        let body =
            payload::query_response_json(&hit.result_json, &IoStats::default(), elapsed_us, true);
        shared.metrics.record_query(hit.algorithm, elapsed_us);
        return Response::json(200, body);
    }

    match engine.query(&kw_refs, algorithm) {
        Ok(out) => {
            let result_json = payload::query_result_json(&out);
            let elapsed_us = received.elapsed().as_micros() as u64;
            shared.cache.insert(
                key,
                CachedAnswer {
                    result_json: Arc::from(result_json.as_str()),
                    algorithm: out.algorithm,
                    cost_io: out.io,
                    cost_elapsed_us: out.elapsed.as_micros() as u64,
                    epoch: out.epoch,
                },
            );
            let body = payload::query_response_json(&result_json, &out.io, elapsed_us, false);
            shared.metrics.record_query(out.algorithm, elapsed_us);
            Response::json(200, body)
        }
        Err(EngineError::BadQuery(msg)) => bad(shared, &format!("bad query: {msg}")),
        Err(e) => {
            shared.metrics.internal_errors.fetch_add(1, Ordering::Relaxed);
            Response::json(500, payload::error_json(&format!("query failed: {e}")))
        }
    }
}

/// `POST /append?parent=<dewey>`: grafts a fragment as the new last
/// child of `parent` (the document root when omitted). The fragment
/// arrives either as the request body (`Content-Length`-framed — the
/// only way past the 8 KB head limit) or, for small fragments, as the
/// legacy `xml=` query parameter. On success the response reports the
/// new subtree's Dewey id, the committed epoch, and how many cached
/// answers the touched keywords invalidated — everything else in the
/// cache keeps serving.
// xk-analyze: root(durability_order)
fn handle_append(shared: &Shared, request: &Request, received: Instant) -> Response {
    let xml: &str = if !request.body.is_empty() {
        &request.body
    } else {
        match request.param("xml") {
            Some(xml) => xml,
            None => return bad(shared, "missing xml fragment (request body or xml= parameter)"),
        }
    };
    let parent = match request.param("parent") {
        None | Some("") => Dewey::root(),
        Some(raw) => match raw.parse::<Dewey>() {
            Ok(d) => d,
            Err(_) => return bad(shared, "unparseable parent Dewey id"),
        },
    };
    let Some(engine) = shared.engine() else {
        return unavailable(shared);
    };
    match engine.append_subtree(&parent, xml) {
        Ok(outcome) => {
            // Floors first, sweep second: once a keyword's floor is
            // raised, a racing lookup can no longer serve a pre-append
            // entry even if the sweep hasn't removed it yet.
            shared.note_touched(&outcome.touched, outcome.epoch);
            let invalidated = shared.cache.invalidate_keywords(&outcome.touched);
            shared.metrics.appends_ok.fetch_add(1, Ordering::Relaxed);
            append_ack(&outcome, invalidated, received)
        }
        Err(EngineError::BadQuery(msg)) => bad(shared, &format!("bad append: {msg}")),
        Err(EngineError::Parse(e)) => bad(shared, &format!("bad fragment: {e}")),
        Err(e @ EngineError::ReadOnlyLayout) => bad(shared, &format!("bad append: {e}")),
        Err(e) => {
            shared.metrics.internal_errors.fetch_add(1, Ordering::Relaxed);
            Response::json(500, payload::error_json(&format!("append failed: {e}")))
        }
    }
}

/// Renders the success acknowledgement for an append. This is the
/// durability protocol's **ack point**: once these bytes leave the
/// server, the client may assume the subtree survives a crash, so every
/// path here must pass through the commit fsync first
/// ([`Engine::append_subtree`] waits for it before returning).
// xk-analyze: protocol(durability_order, ack)
fn append_ack(outcome: &AppendOutcome, invalidated: usize, received: Instant) -> Response {
    let mut j = JsonBuf::new();
    j.begin_object();
    j.field_str("root", &outcome.root.to_string());
    j.field_u64("epoch", outcome.epoch);
    j.field_u64("touched_keywords", outcome.touched.len() as u64);
    j.field_u64("cache_invalidated", invalidated as u64);
    j.field_u64("elapsed_us", received.elapsed().as_micros() as u64);
    j.end_object();
    Response::json(200, j.into_string())
}

/// Renders the `/metrics` document: request counters, connection-level
/// keep-alive accounting, per-algorithm query counts, cache accounting,
/// the latency histogram, and the storage layer's global [`IoStats`].
fn metrics_json(shared: &Shared) -> String {
    let m = &shared.metrics;
    let cache = shared.cache.stats();
    let lat = m.query_latency.snapshot();
    let engine = shared.engine();
    let io = engine.as_ref().map(|e| e.with_env(|env| env.stats())).unwrap_or_default();

    let mut j = JsonBuf::new();
    j.begin_object();
    j.field_u64("uptime_ms", m.started.elapsed().as_millis() as u64);
    j.field_bool("ready", engine.is_some());
    j.field_bool("draining", shared.shutdown.load(Ordering::SeqCst));
    j.field_u64("workers", shared.config.workers.max(1) as u64);
    j.field_u64("queue_cap", shared.config.queue_cap as u64);
    j.field_u64("max_connections", shared.config.max_connections as u64);

    j.key("requests").begin_object();
    j.field_u64("accepted", m.accepted.load(Ordering::Relaxed));
    j.field_u64("shed", m.shed.load(Ordering::Relaxed));
    j.field_u64("queries_ok", m.queries_ok.load(Ordering::Relaxed));
    j.field_u64("appends_ok", m.appends_ok.load(Ordering::Relaxed));
    j.field_u64("unavailable", m.unavailable.load(Ordering::Relaxed));
    j.field_u64("bad_requests", m.bad_requests.load(Ordering::Relaxed));
    j.field_u64("not_found", m.not_found.load(Ordering::Relaxed));
    j.field_u64("internal_errors", m.internal_errors.load(Ordering::Relaxed));
    j.field_u64("read_failures", m.read_failures.load(Ordering::Relaxed));
    j.field_u64("read_timeouts", m.read_timeouts.load(Ordering::Relaxed));
    j.end_object();

    j.key("connections").begin_object();
    j.field_u64("open", m.open_connections.load(Ordering::Relaxed));
    j.field_u64("keepalive_reuses", m.keepalive_reuses.load(Ordering::Relaxed));
    j.field_u64("pipelined_requests", m.pipelined_requests.load(Ordering::Relaxed));
    j.field_u64("pipeline_depth_max", m.pipeline_depth_max.load(Ordering::Relaxed));
    j.end_object();

    j.key("queries_by_algorithm").begin_object();
    for (name, counter) in ALGO_NAMES.iter().zip(&m.by_algorithm) {
        j.field_u64(name, counter.load(Ordering::Relaxed));
    }
    j.end_object();

    j.key("cache").begin_object();
    j.field_u64("capacity", cache.capacity as u64);
    j.field_u64("entries", cache.entries as u64);
    j.field_u64("hits", cache.hits);
    j.field_u64("misses", cache.misses);
    j.field_u64("inserts", cache.inserts);
    j.field_u64("evictions", cache.evictions);
    j.field_u64("invalidations", cache.invalidations);
    j.field_u64("saved_disk_reads", cache.saved_disk_reads);
    j.field_f64("hit_rate", cache.hit_rate());
    j.end_object();

    j.key("query_latency_us").begin_object();
    j.field_u64("count", lat.count);
    j.field_u64("min", lat.min_us);
    j.field_u64("max", lat.max_us);
    j.field_f64("mean", lat.mean_us());
    j.field_u64("p50", lat.quantile_us(0.50));
    j.field_u64("p90", lat.quantile_us(0.90));
    j.field_u64("p99", lat.quantile_us(0.99));
    j.key("histogram").begin_array();
    for (i, &count) in lat.buckets.iter().enumerate() {
        if count == 0 {
            continue; // sparse: only occupied buckets
        }
        j.begin_object();
        j.field_u64("le_us", crate::metrics::HistogramSnapshot::bucket_le_us(i));
        j.field_u64("count", count);
        j.end_object();
    }
    j.end_array();
    j.end_object();

    payload::io_object(&mut j, "io", &io);
    j.end_object();
    j.into_string()
}
