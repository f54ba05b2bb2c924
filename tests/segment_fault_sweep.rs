//! Fault-injection sweep over the segment store's seal and merge paths:
//! [`FaultSegmentIo`] fails every mutating blob I/O op in turn — create,
//! each block write, sync, finalize, delete — in both clean-error and
//! torn-write (half a block persists before the error) modes. Whatever
//! op dies, the engine must abort the append or merge cleanly: the
//! served index stays a consistent prefix of the append sequence that
//! matches the brute-force oracle, the previous segment set stays fully
//! readable, `verify_segments` stays clean, and once the fault clears
//! both the live engine and a crash-reopened one keep working.

use std::sync::Arc;
use xk_index::MemIndex;
use xk_segment::{FaultSegmentIo, SegmentIo};
use xk_slca::brute_force_slca;
use xk_storage::{MemPager, Pager};
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};
use xksearch_repro::soak::seed_segmented;

const PAGE: usize = 512;
const APPENDS: usize = 4;

const SEED: &str = "<log>\
    <entry><tag>alpha</tag><body>beta gamma</body></entry>\
    <entry><tag>alpha</tag><body>delta</body></entry>\
    </log>";

fn sync_each() -> DurabilityOptions {
    DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() }
}

/// The document after the seed plus `j` marker appends `m0..m{j-1}`.
fn marker_doc(j: usize) -> String {
    let mut xml = SEED.trim_end_matches("</log>").to_string();
    for i in 0..j {
        xml.push_str(&format!("<entry><tag>m{i} alpha</tag></entry>"));
    }
    xml.push_str("</log>");
    xml
}

fn oracle(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let mut lists = Vec::new();
    for k in keywords {
        match idx.keyword_list(k) {
            Some(l) => lists.push(l.to_vec()),
            None => return Vec::new(),
        }
    }
    brute_force_slca(&lists)
}

/// Whether `kw` has any posting in the served segment set (the
/// structural index carries no postings in segment mode, so frequency
/// probes go through the segment readers).
fn visible(engine: &Engine, kw: &str) -> bool {
    engine.posting_dump(kw).unwrap().is_some_and(|l| !l.is_empty())
}

/// The longest marker prefix visible in the engine's index; asserts the
/// visible set IS a prefix (seeing `m1` without `m0` is a torn append).
fn visible_prefix(engine: &Engine, ctx: &str) -> usize {
    let mut j = 0;
    while j < APPENDS && visible(engine, &format!("m{j}")) {
        j += 1;
    }
    for i in j..APPENDS {
        assert!(
            !visible(engine, &format!("m{i}")),
            "{ctx}: append {i} visible without its predecessors"
        );
    }
    j
}

/// Every algorithm over the sealed-set-backed lists must match the
/// brute-force oracle over the prefix document, and the segment store
/// itself must verify clean — the previous segment set stayed readable.
fn assert_consistent(engine: &Engine, j: usize, ctx: &str) {
    let reference = xk_xmltree::parse(&marker_doc(j)).unwrap();
    let queries: &[&[&str]] = &[&["alpha"], &["alpha", "beta"], &["delta", "gamma"]];
    for q in queries {
        let expected = oracle(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine
                .query(q, algo)
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} with {algo} failed: {e}"));
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo}");
        }
    }
    // A fault on a best-effort retire-delete legitimately leaves an
    // orphan blob behind (the next open removes it); anything else in
    // the verify report is real damage.
    let report = engine
        .verify_segments()
        .unwrap_or_else(|e| panic!("{ctx}: segment verify failed: {e}"))
        .expect("store is segmented");
    for issue in &report.issues {
        assert!(
            issue.contains("orphan segment blob"),
            "{ctx}: segment verify issue: {issue}"
        );
    }
}

/// One sweep position: seed, open durably over a fault wrapper, arm op
/// `k`, run appends (seal threshold 1 → every append seals a blob) and a
/// full compaction pass. Returns whether the armed fault actually fired.
fn sweep_one(k: u64, torn: bool) -> bool {
    let ctx = format!("segment fault at op {k} (torn={torn})");
    let (db, inner) = seed_segmented(SEED, PAGE, 128);
    let fault =
        Arc::new(FaultSegmentIo::new(Arc::clone(&inner) as Arc<dyn SegmentIo>));
    let wal = Arc::new(MemPager::new(PAGE));
    let (engine, _) = Engine::open_durable_with_pagers(
        Arc::clone(&db) as Arc<dyn Pager>,
        Arc::clone(&wal) as Arc<dyn Pager>,
        128,
        sync_each(),
        Arc::clone(&fault) as Arc<dyn SegmentIo>,
    )
    .unwrap();
    engine.set_seal_threshold(1);
    fault.arm(k, torn);

    let mut failed = None;
    for i in 0..APPENDS {
        match engine
            .append_subtree(&Dewey::root(), &format!("<entry><tag>m{i} alpha</tag></entry>"))
        {
            Ok(_) => {}
            Err(e) => {
                assert!(
                    e.to_string().contains("injected"),
                    "{ctx}: append {i} died of something else: {e}"
                );
                failed = Some(i);
                break;
            }
        }
    }
    if failed.is_none() {
        // The appends survived; drive the merge path into the fault.
        loop {
            match engine.compact_segments() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    assert!(
                        e.to_string().contains("injected"),
                        "{ctx}: merge died of something else: {e}"
                    );
                    failed = Some(APPENDS);
                    break;
                }
            }
        }
    }
    let fired = failed.is_some();

    // Whatever happened, the served state is a consistent oracle-exact
    // prefix and the sealed set is fully readable.
    let j = visible_prefix(&engine, &ctx);
    if let Some(i) = failed {
        assert_eq!(j, i.min(APPENDS), "{ctx}: failed append became visible");
    }
    assert_consistent(&engine, j, &ctx);

    // Fault cleared: the same engine keeps sealing and merging.
    fault.reset();
    engine
        .append_subtree(&Dewey::root(), "<entry><tag>recovered alpha</tag></entry>")
        .unwrap_or_else(|e| panic!("{ctx}: post-fault append failed: {e}"));
    assert!(visible(&engine, "recovered"), "{ctx}: post-fault append invisible");
    while engine.compact_segments().unwrap_or_else(|e| panic!("{ctx}: post-fault merge: {e}")).is_some() {}
    let report = engine.verify_segments().unwrap().expect("store is segmented");
    for issue in &report.issues {
        assert!(
            issue.contains("orphan segment blob"),
            "{ctx}: post-recovery verify issue: {issue}"
        );
    }

    // Crash (no graceful shutdown) and reopen over the healthy backend:
    // recovery lands on a clean, readable store too.
    std::mem::forget(engine);
    let (reopened, _) = Engine::open_durable_with_pagers(
        db as Arc<dyn Pager>,
        wal as Arc<dyn Pager>,
        128,
        sync_each(),
        inner as Arc<dyn SegmentIo>,
    )
    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    assert!(visible(&reopened, "recovered"), "{ctx}: acked append lost");
    let report = reopened.verify_segments().unwrap().expect("store is segmented");
    assert!(report.clean(), "{ctx}: reopened verify: {:?}", report.issues);

    fired
}

/// Sweeps the armed op index until the schedule runs past every op the
/// workload performs, in both failure modes.
#[test]
fn every_seal_and_merge_op_fails_cleanly() {
    for torn in [false, true] {
        let mut fired = 0;
        let mut k = 0u64;
        loop {
            if sweep_one(k, torn) {
                fired += 1;
                k += 1;
                continue;
            }
            break; // ops exhausted: the armed index was never reached
        }
        assert!(
            fired >= 10,
            "torn={torn}: expected the workload to span many blob ops, swept only {fired}"
        );
    }
}
