//! # xk-server — `xkserve`, the networked XKSearch query service
//!
//! The serving layer over the [`xksearch`] engine: a std-only
//! **event-driven** TCP server speaking HTTP/1.1 with keep-alive and
//! pipelining, built from
//!
//! * an **epoll reactor** (one thread owning every socket through the
//!   vendored raw-syscall binding `xk-sys`) with per-connection state
//!   machines, incremental request parsing, and a timer wheel for
//!   idle/read/write deadlines,
//! * a **bounded worker pool** over one shared [`Engine`] (the `Send +
//!   Sync` read path from PR 2 makes `&Engine` queries safe from any
//!   number of threads) — CPU-bound queries never run on the reactor,
//! * an **LRU result cache** keyed by (normalized keyword set, requested
//!   algorithm), each entry tagged with the epoch its query observed and
//!   invalidated per keyword: an append raises the staleness floor of
//!   exactly the keywords it touched,
//! * **admission control**: connections beyond `max_connections` and
//!   requests beyond the job-queue bound are shed with `503` instead of
//!   piling up latency,
//! * **graceful shutdown**: `/shutdown` releases the port, flushes every
//!   response already owed, then the reactor and workers exit,
//! * a **`/metrics`** endpoint exporting cache rates, per-algorithm query
//!   counts, latency histograms, connection/keep-alive/pipeline counters,
//!   and the storage layer's [`IoStats`].
//!
//! Endpoints: `GET /query?kw=a+b&algo=auto`, `POST /append`,
//! `GET /metrics`, `GET /healthz`, `GET /shutdown`.
//!
//! The `xksearch` **binary** lives in this crate (the CLI's `serve`
//! subcommand needs the server, and the server needs the engine — the
//! binary sits on top of both).
//!
//! [`Engine`]: xksearch::Engine
//! [`IoStats`]: xk_storage::IoStats

pub mod cache;
pub mod conn;
pub mod http;
pub mod json;
pub mod metrics;
pub mod payload;
mod reactor;
pub mod server;
pub mod timer;

pub use cache::{CacheKey, CacheStats, CachedAnswer, Lru, QueryCache};
pub use metrics::{Histogram, HistogramSnapshot, ServerMetrics};
pub use server::{parse_algorithm, Server, ServerConfig};
