//! Shared plumbing for the crash, fault-injection and soak tests under
//! `tests/`: seeded replay, failure reporting, the page fingerprint the
//! byte-identity assertions compare, and the in-memory segmented seed
//! database they all append to.
//!
//! Every soak derives its randomness from one base seed. On failure the
//! harness prints that seed plus the operation schedule that led up to
//! the panic, and the run can be replayed exactly by exporting
//! `XK_SOAK_SEED=<seed>`. `XK_SOAK_SMOKE=1` selects the sampled CI tier.

use std::sync::{Arc, Mutex};
use xk_segment::MemSegmentIo;
use xk_storage::{MemPager, PageId, Pager, StorageEnv};
use xksearch::Engine;

/// Seeds a fresh database for `xml` in the segment layout — the one
/// that accepts appends — over in-memory storage: the pager holding the
/// index half and the blob store it references. Both outlive any engine
/// opened over them (`Engine::open_durable_with_pagers`), so a test can
/// crash one and reopen the same pair.
pub fn seed_segmented(xml: &str, page: usize, pool: usize) -> (Arc<MemPager>, Arc<MemSegmentIo>) {
    let db = Arc::new(MemPager::new(page));
    let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), pool).expect("seed env");
    let io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
    let tree = xk_xmltree::parse(xml).expect("seed document parses");
    Engine::build_segment_store_with(&env, &tree, io.as_ref(), true).expect("seed build");
    env.flush().expect("seed flush");
    (db, io)
}

/// Whether `keyword` has any posting in the served index. Probed through
/// the posting chain: the segment layout keeps no vocabulary in the
/// structural index.
pub fn has_postings(engine: &Engine, keyword: &str) -> bool {
    engine.posting_dump(keyword).expect("posting probe").is_some_and(|l| !l.is_empty())
}

/// FNV-1a over every page of `p` — a cheap whole-file fingerprint.
pub fn fingerprint(p: &dyn Pager) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = vec![0u8; p.page_size()];
    for id in 0..p.page_count() {
        p.read_page(PageId(id), &mut buf).expect("fingerprint read");
        for &b in &buf {
            hash = (hash ^ b as u64).wrapping_mul(0x1_0000_01b3);
        }
    }
    hash
}

/// The base seed for a soak run: `XK_SOAK_SEED` when set (decimal or
/// `0x`-prefixed hex), else `default`.
pub fn soak_seed(default: u64) -> u64 {
    let Ok(raw) = std::env::var("XK_SOAK_SEED") else { return default };
    let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => raw.parse(),
    };
    match parsed {
        Ok(seed) => {
            eprintln!("[soak] replaying with XK_SOAK_SEED={seed:#x}");
            seed
        }
        Err(_) => panic!("XK_SOAK_SEED={raw:?} is not a decimal or 0x-hex u64"),
    }
}

/// True when `XK_SOAK_SMOKE=1`: run the sampled CI tier instead of the
/// full sweep.
pub fn smoke() -> bool {
    std::env::var("XK_SOAK_SMOKE").is_ok()
}

/// Records the soak's operation schedule and, if the test panics,
/// prints the seed and the schedule so the failure is reproducible.
///
/// The reporter is a drop guard: create it at the top of the test with
/// the run's seed, [`log`](SoakReporter::log) each operation as it is
/// issued (any thread), and call [`finish`](SoakReporter::finish) on
/// clean completion. If the test unwinds instead, `Drop` runs with the
/// schedule still armed and writes the replay report to stderr.
#[derive(Debug)]
pub struct SoakReporter {
    name: &'static str,
    seed: u64,
    ops: Mutex<Vec<String>>,
    armed: bool,
}

/// Cap on the schedule lines replayed on failure; the tail is what
/// names the crash site, and full sweeps can log tens of thousands.
const REPORT_TAIL: usize = 100;

impl SoakReporter {
    pub fn new(name: &'static str, seed: u64) -> SoakReporter {
        SoakReporter { name, seed, ops: Mutex::new(Vec::new()), armed: true }
    }

    /// The seed this run is using (after any `XK_SOAK_SEED` override).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Appends one line to the op schedule. Callable from any thread.
    pub fn log(&self, entry: impl Into<String>) {
        self.ops.lock().unwrap_or_else(|e| e.into_inner()).push(entry.into());
    }

    /// Clean completion: disarms the failure report.
    pub fn finish(mut self) {
        self.armed = false;
    }
}

impl Drop for SoakReporter {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let ops = self.ops.lock().unwrap_or_else(|e| e.into_inner());
        let skipped = ops.len().saturating_sub(REPORT_TAIL);
        eprintln!("\n==== soak failure: {} ====", self.name);
        eprintln!("replay with: XK_SOAK_SEED={:#x} (seed {})", self.seed, self.seed);
        eprintln!("op schedule ({} ops{}):", ops.len(), if skipped > 0 { ", tail shown" } else { "" });
        if skipped > 0 {
            eprintln!("  ... {skipped} earlier ops elided ...");
        }
        for op in ops.iter().skip(skipped) {
            eprintln!("  {op}");
        }
        eprintln!("==== end soak failure report ====");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_parses_decimal_and_hex() {
        // Env-var plumbing is covered by the soak tests themselves (the
        // variable is process-global); here just the parse paths via a
        // reporter round-trip.
        let r = SoakReporter::new("unit", 0xABCD);
        assert_eq!(r.seed(), 0xABCD);
        r.log("op 1");
        r.log("op 2");
        assert_eq!(r.ops.lock().unwrap().len(), 2);
        r.finish(); // must not print
    }
}
