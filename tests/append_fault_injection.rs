//! Fault-injection regression for the `Engine::append_subtree`
//! partial-failure hazard (ISSUE 6): an append that dies mid-flight —
//! on a storage read, a WAL write, or a WAL sync — must abort without
//! leaving any trace in the served index. Queries afterwards still
//! match the brute-force oracle over the pre-failure document, and
//! (when the storage underneath still works) later appends succeed.
//!
//! Before the clone-mutate-swap append path, a failure after the index
//! mutation had begun left the in-memory `DiskIndex` (and the cached
//! document) half-updated; these tests pin the fix. The same bar holds
//! for an append the engine refuses outright: the read-only reference
//! layout rejects it before a single page is written.

use std::sync::Arc;
use xk_index::MemIndex;
use xk_segment::{MemSegmentIo, SegmentIo};
use xk_slca::brute_force_slca;
use xk_storage::{FaultConfig, FaultPager, MemPager, Pager, StorageEnv};
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine, EngineError};
use xksearch_repro::soak::{fingerprint, has_postings, seed_segmented};

const PAGE: usize = 512;

const SEED: &str = "<log>\
    <entry><tag>alpha</tag><body>beta gamma</body></entry>\
    <entry><tag>alpha</tag><body>delta</body></entry>\
    </log>";

/// A fresh segmented seed database plus the blob store it references
/// (shared across every reopen of that database).
fn seed_db() -> (Arc<MemPager>, Arc<dyn SegmentIo>) {
    let (db, io) = seed_segmented(SEED, PAGE, 128);
    (db, io)
}

fn sync_each() -> DurabilityOptions {
    DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() }
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

/// Every algorithm must agree with the oracle over `expected_doc`.
fn assert_matches_oracle(engine: &Engine, expected_doc: &str, ctx: &str) {
    let reference = xk_xmltree::parse(expected_doc).unwrap();
    let queries: &[&[&str]] = &[
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["delta", "beta"],
        &["poison", "alpha"],
    ];
    for q in queries {
        let expected = oracle(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine
                .query(q, algo)
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} with {algo} failed: {e}"));
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo}");
        }
    }
}

/// A one-shot read fault fired inside the append (a cold buffer pool
/// sends the journal-tail and document-chain reads to the pager): the
/// append fails, the abort
/// rolls everything back, queries still match the pre-append oracle,
/// and the *next* append — storage healthy again — succeeds.
#[test]
fn aborted_append_leaves_no_trace_and_recovers() {
    let (db, io) = seed_db();
    let faulted = FaultPager::new(Box::new(Arc::clone(&db)), FaultConfig::none());
    let probe = faulted.probe();
    let wal = Arc::new(MemPager::new(PAGE));
    let (engine, _) = Engine::open_durable_with_pagers(
        Arc::new(faulted) as Arc<dyn Pager>,
        Arc::clone(&wal) as Arc<dyn Pager>,
        8, // tiny pool: appends and queries must actually hit the pager
        sync_each(),
        io,
    )
    .unwrap();

    // A successful first append establishes the baseline document.
    engine
        .append_subtree(&Dewey::root(), "<entry><tag>alpha</tag><body>epsilon</body></entry>")
        .unwrap();
    let with_first = SEED.replace(
        "</log>",
        "<entry><tag>alpha</tag><body>epsilon</body></entry></log>",
    );
    assert_matches_oracle(&engine, &with_first, "after clean append");

    // Now fail a storage read mid-append, every time it happens to fire
    // inside the append path (a cold pool guarantees reads happen).
    let mut aborted = 0;
    for round in 0..10 {
        engine.clear_cache().unwrap();
        probe.arm_read_fault();
        let result = engine.append_subtree(
            &Dewey::root(),
            "<entry><tag>poison</tag><body>never lands</body></entry>",
        );
        if result.is_err() {
            aborted += 1;
            assert_eq!(
                probe.pending_read_faults(),
                0,
                "round {round}: the armed fault is what killed the append"
            );
            // The poison fragment must be invisible everywhere: the
            // posting chain, the query path, and the rendered document.
            assert!(!has_postings(&engine, "poison"));
            assert_matches_oracle(&engine, &with_first, "after aborted append");
            assert!(
                !engine.render_subtree(&Dewey::root()).unwrap().contains("poison"),
                "round {round}: aborted fragment leaked into the document"
            );
            break;
        }
        // The fault fired on an unrelated read (or is still pending);
        // roll the workload forward and try again.
        let _ = engine.append_subtree(&Dewey::root(), "<entry><tag>alpha</tag></entry>");
    }
    assert!(aborted > 0, "the one-shot read fault never aborted an append");

    // Storage is healthy again: appends keep working after the abort.
    let out = engine
        .append_subtree(&Dewey::root(), "<entry><tag>zeta</tag><body>alpha</body></entry>")
        .unwrap();
    assert!(out.touched.iter().any(|k| k == "zeta"));
    assert_eq!(engine.posting_dump("zeta").unwrap().map(|l| l.len()), Some(1));
    let hit = engine.query(&["zeta", "alpha"], Algorithm::Stack).unwrap();
    assert_eq!(hit.slcas.len(), 1, "the post-abort append is queryable");
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

/// The longest marker prefix visible in the engine's index; asserts the
/// visible set IS a prefix (seeing `m1` without `m0` is a torn append).
fn visible_prefix(engine: &Engine, total: usize, ctx: &str) -> usize {
    let mut j = 0;
    while j < total && has_postings(engine, &format!("m{j}")) {
        j += 1;
    }
    for i in j..total {
        assert!(
            !has_postings(engine, &format!("m{i}")),
            "{ctx}: append {i} visible without its predecessors"
        );
    }
    j
}

/// WAL write failures: a fault before the commit record aborts the
/// append invisibly; a fault during the durability flush leaves it
/// visible but unacknowledged. Either way the served state is always a
/// consistent *prefix* of the append sequence that matches the oracle,
/// and recovery preserves every acknowledged append.
#[test]
fn wal_write_failure_yields_a_consistent_prefix() {
    const APPENDS: usize = 2;
    let mut faulted_sites = 0;
    for k in 0..24 {
        let ctx = format!("WAL write fault at op {k}");
        let (db, io) = seed_db();
        let wal_mem = Arc::new(MemPager::new(PAGE));
        let faulted = FaultPager::new(
            Box::new(Arc::clone(&wal_mem)),
            FaultConfig { fail_write_at: Some(k), seed: k, ..FaultConfig::none() },
        );
        let Ok((engine, _)) = Engine::open_durable_with_pagers(
            Arc::clone(&db) as Arc<dyn Pager>,
            Arc::new(faulted) as Arc<dyn Pager>,
            128,
            sync_each(),
            Arc::clone(&io),
        ) else {
            continue; // the fault killed the WAL attach — covered by the soak
        };
        let mut acked = 0;
        for i in 0..APPENDS {
            match engine
                .append_subtree(&Dewey::root(), &format!("<entry><tag>m{i} alpha</tag></entry>"))
            {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        if acked < APPENDS {
            faulted_sites += 1;
        }
        // The live engine serves a consistent prefix, oracle-exact.
        let j = visible_prefix(&engine, APPENDS, &ctx);
        assert!(j >= acked, "{ctx}: acknowledged append missing from the live index");
        assert_matches_oracle(&engine, &marker_doc(j), &ctx);

        // Kill, recover, reopen: still a prefix, still ⊇ the acked set
        // (an acknowledged append survived its durability wait, so its
        // commit record is on the WAL), still oracle-exact.
        std::mem::forget(engine);
        let (reopened, _) = Engine::open_durable_with_pagers(
            db as Arc<dyn Pager>,
            wal_mem as Arc<dyn Pager>,
            128,
            sync_each(),
            io,
        )
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
        let j2 = visible_prefix(&reopened, APPENDS, &ctx);
        assert!(j2 >= acked, "{ctx}: acknowledged append lost across recovery");
        assert_matches_oracle(&reopened, &marker_doc(j2), &format!("{ctx}, recovered"));
    }
    assert!(faulted_sites > 0, "the sweep never actually hit an append");
}

/// The bulk-loaded B+tree layout is a read-only reference: an append is
/// refused with `ReadOnlyLayout` before the transaction opens, so not
/// one database or WAL page changes — not at the pager, and not pending
/// in the buffer pool either (a flush afterwards writes nothing).
#[test]
fn append_to_the_reference_layout_is_rejected_without_a_write() {
    let db = Arc::new(MemPager::new(PAGE));
    let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), 128).unwrap();
    let tree = xk_xmltree::parse(SEED).unwrap();
    xk_index::build_disk_index(&env, &tree, &xk_index::BuildOptions::default()).unwrap();
    env.flush().unwrap();
    drop(env);
    let wal = Arc::new(MemPager::new(PAGE));
    let (engine, _) = Engine::open_durable_with_pagers(
        Arc::clone(&db) as Arc<dyn Pager>,
        Arc::clone(&wal) as Arc<dyn Pager>,
        128,
        sync_each(),
        Arc::new(MemSegmentIo::new(PAGE)), // never consulted: no segment store
    )
    .unwrap();
    assert!(!engine.segments_enabled());
    let before = (fingerprint(&*db), fingerprint(&*wal), engine.current_epoch());

    let err = engine
        .append_subtree(&Dewey::root(), "<entry><tag>poison</tag></entry>")
        .unwrap_err();
    assert!(matches!(err, EngineError::ReadOnlyLayout), "{err}");
    assert_eq!((fingerprint(&*db), fingerprint(&*wal), engine.current_epoch()), before);
    engine.with_env(|e| e.flush()).unwrap();
    assert_eq!(fingerprint(&*db), before.0, "no dirty page was waiting in the pool");
    assert_matches_oracle(&engine, SEED, "after the refused append");
}
