//! # xk-bench
//!
//! The harness that regenerates the paper's evaluation: the `figures`
//! binary reproduces Table 1 and Figures 8–13 (hot and cold cache).
//!
//! The two suite binaries (`figures`, `lookup_locality`) each emit one
//! machine-readable `results/BENCH_<suite>.json` through the shared
//! [`trial`] envelope; the `bench_diff` binary validates those artifacts
//! and compares fresh runs against the checked-in baselines (`just
//! bench-diff`). What they gate is the paper's deterministic operation
//! counts. Wall-clock and footprint numbers come from `crates/xkbench`
//! (`BENCHMARK.json`), the repository's benchmark.

pub mod corpus;
pub mod figures;
pub mod measure;
pub mod report;
pub mod trial;

pub use corpus::{corpus, Corpus, Scale};
pub use measure::{algorithms, run_point, Cache, Measurement};
pub use report::{Row, Table};
pub use trial::Suite;
