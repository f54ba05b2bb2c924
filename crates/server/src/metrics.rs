//! Server-side metrics: request counters, per-algorithm query counts,
//! and a lock-free log₂ latency histogram. Everything is atomic with
//! `Relaxed` ordering — these are statistics, not synchronization, the
//! same policy as the storage layer's [`AtomicIoStats`].
//!
//! [`AtomicIoStats`]: xk_storage::stats::AtomicIoStats

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use xksearch::Algorithm;

/// Number of histogram buckets: bucket `i` counts samples in
/// `(2^(i-1), 2^i]` microseconds (bucket 0 is `[0, 1]` µs), so the top
/// bucket covers everything beyond ~34 seconds.
pub const BUCKETS: usize = 26;

/// A concurrent power-of-two latency histogram over microseconds.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

/// A plain-value snapshot of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    pub sum_us: u64,
    pub min_us: u64,
    pub max_us: u64,
}

fn bucket_index(us: u64) -> usize {
    // Bits of (us - 1): the smallest i with 2^i >= us.
    let v = us.max(1) - 1;
    (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        let h = Histogram::default();
        h.min_us.store(u64::MAX, Ordering::Relaxed);
        h
    }

    /// Records one sample.
    // xk-analyze: allow(panic_path, reason = "bucket_index clamps to BUCKETS - 1")
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.min_us.fetch_min(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    // xk-analyze: allow(panic_path, reason = "enumerate() indices are in bounds by construction")
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            min_us: if count == 0 { 0 } else { self.min_us.load(Ordering::Relaxed) },
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

impl HistogramSnapshot {
    /// The upper bound (inclusive) of bucket `i`, in microseconds.
    pub fn bucket_le_us(i: usize) -> u64 {
        1u64 << i
    }

    /// The `q`-quantile (`0.0..=1.0`) estimated as the upper bound of the
    /// bucket where the cumulative count crosses the target rank. An
    /// upper-bound estimate is conservative: a reported p99 of 512 µs
    /// means at least 99% of requests finished within 512 µs.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_le_us(i).min(self.max_us.max(1));
            }
        }
        self.max_us
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

/// Request-level counters for the service.
#[derive(Debug)]
pub struct ServerMetrics {
    pub started: Instant,
    /// Connections admitted to the worker pool.
    pub accepted: AtomicU64,
    /// Connections refused with 503 because the queue was full.
    pub shed: AtomicU64,
    /// `/query` requests answered 200 (hit or miss).
    pub queries_ok: AtomicU64,
    /// `/append` requests answered 200 (fragment committed).
    pub appends_ok: AtomicU64,
    /// Requests answered 503 because the engine was still loading or
    /// recovering (distinct from `shed`, which is queue pressure).
    pub unavailable: AtomicU64,
    /// Requests answered 400 (bad path parameters, bad request line).
    pub bad_requests: AtomicU64,
    /// Requests for unknown paths (404).
    pub not_found: AtomicU64,
    /// Query executions that failed in the engine/storage layer (500).
    pub internal_errors: AtomicU64,
    /// Connections where the peer vanished mid-request (EOF or reset
    /// before a full request arrived). Closed silently — writing to a
    /// gone peer would be wrong, so these never get a response.
    pub read_failures: AtomicU64,
    /// Requests that stalled past the read deadline and were answered
    /// `408` (slowloris and genuinely slow clients, distinct from
    /// `read_failures`).
    pub read_timeouts: AtomicU64,
    /// Gauge: connections currently open in the reactor.
    pub open_connections: AtomicU64,
    /// Requests served on a reused keep-alive connection (every request
    /// after a connection's first).
    pub keepalive_reuses: AtomicU64,
    /// Requests that arrived while earlier requests on the same
    /// connection were still unanswered.
    pub pipelined_requests: AtomicU64,
    /// Deepest pipeline observed on any single connection.
    pub pipeline_depth_max: AtomicU64,
    /// Per-algorithm executed-query counts, indexed by [`algo_slot`].
    pub by_algorithm: [AtomicU64; 3],
    /// End-to-end `/query` handling latency (parse to last byte queued).
    pub query_latency: Histogram,
}

/// The `by_algorithm` slot for an *executed* algorithm. Callers must pass
/// the engine-resolved algorithm (`QueryOutcome::algorithm`), never
/// `Auto`: silently bucketing Auto would misattribute those queries to
/// whichever slot absorbed them.
pub fn algo_slot(a: Algorithm) -> usize {
    debug_assert!(
        a != Algorithm::Auto,
        "algo_slot takes the executed algorithm; resolve Auto first"
    );
    match a {
        Algorithm::IndexedLookupEager => 0,
        Algorithm::ScanEager | Algorithm::Auto => 1,
        Algorithm::Stack => 2,
    }
}

/// Display names aligned with `by_algorithm` slots.
pub const ALGO_NAMES: [&str; 3] = ["indexed-lookup-eager", "scan-eager", "stack"];

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            started: Instant::now(),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queries_ok: AtomicU64::new(0),
            appends_ok: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            keepalive_reuses: AtomicU64::new(0),
            pipelined_requests: AtomicU64::new(0),
            pipeline_depth_max: AtomicU64::new(0),
            by_algorithm: Default::default(),
            query_latency: Histogram::new(),
        }
    }

    // xk-analyze: allow(panic_path, reason = "algo_slot returns 0..=2 for every algorithm")
    pub fn record_query(&self, executed: Algorithm, latency_us: u64) {
        self.queries_ok.fetch_add(1, Ordering::Relaxed);
        self.by_algorithm[algo_slot(executed)].fetch_add(1, Ordering::Relaxed);
        self.query_latency.record_us(latency_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2, "3 µs is within le=4, not le=2");
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_and_mean() {
        let h = Histogram::new();
        for us in [1, 1, 2, 4, 100, 1000] {
            h.record_us(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min_us, 1);
        assert_eq!(s.max_us, 1000);
        assert!((s.mean_us() - 1108.0 / 6.0).abs() < 1e-9);
        // p50: rank 3 lands in bucket le=2.
        assert_eq!(s.quantile_us(0.5), 2);
        // p100 is capped by the true max, not the bucket bound.
        assert_eq!(s.quantile_us(1.0), 1000);
        // Empty histogram.
        assert_eq!(Histogram::new().snapshot().quantile_us(0.99), 0);
    }

    #[test]
    fn algorithm_slots_cover_executed_algorithms() {
        assert_eq!(algo_slot(Algorithm::IndexedLookupEager), 0);
        assert_eq!(algo_slot(Algorithm::ScanEager), 1);
        assert_eq!(algo_slot(Algorithm::Stack), 2);
        assert_eq!(ALGO_NAMES.len(), 3);
    }

    #[test]
    fn concurrent_recording() {
        let m = ServerMetrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..500 {
                        m.record_query(Algorithm::ScanEager, i % 50);
                    }
                });
            }
        });
        assert_eq!(m.queries_ok.load(Ordering::Relaxed), 2000);
        assert_eq!(m.query_latency.snapshot().count, 2000);
    }
}
