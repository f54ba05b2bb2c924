//! Crash-recovery soak (ISSUE 6): kill the engine at **every** WAL
//! write and sync point of an append workload, recover, and hold two
//! invariants at each crash site:
//!
//! 1. **Prefix atomicity** — the recovered index equals the seed plus
//!    the first `j` appends for some `j`, with every *acknowledged*
//!    append included (`j >= acked`). No torn half-applied append ever
//!    becomes visible.
//! 2. **Oracle agreement** — after recovery all four algorithms
//!    (Indexed Lookup Eager, Scan Eager, Stack, all-LCA) agree with a
//!    brute-force oracle over exactly that recovered document.
//!
//! Replay idempotence is asserted at every site too: running recovery a
//! second time neither reports dirty state nor changes a single page
//! byte.
//!
//! The full sweep visits every write/sync op; CI sets `XK_SOAK_SMOKE=1`
//! to sample the crash sites instead (see `justfile` / ci.yml). On
//! failure the harness prints its seed and the crash-site schedule;
//! `XK_SOAK_SEED=<seed>` replays the exact run.

use std::sync::Arc;
use xksearch_repro::soak::{
    fingerprint, has_postings, seed_segmented, smoke, soak_seed, SoakReporter,
};
use xk_index::MemIndex;
use xk_segment::SegmentIo;
use xk_slca::{brute_force_all_lcas, brute_force_slca};
use xk_storage::{
    recover, FaultConfig, FaultPager, FaultProbe, MemPager, Pager,
};
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};

const PAGE: usize = 512;
const POOL: usize = 128;
const APPENDS: usize = 5;

const SEED: &str = "<log>\
    <entry><tag>soak</tag><body>alpha beta base</body></entry>\
    <entry><tag>soak</tag><body>beta gamma base</body></entry>\
    </log>";

/// Append `i`'s fragment; `w{i}` is its unique recovery marker.
fn fragment(i: usize) -> String {
    format!("<entry><tag>soak w{i}</tag><body>alpha gamma w{i}</body></entry>")
}

/// The reference document after the seed plus the first `j` appends.
fn reference_tree(j: usize) -> XmlTree {
    let mut xml = SEED.trim_end_matches("</log>").to_string();
    for i in 0..j {
        xml.push_str(&fragment(i));
    }
    xml.push_str("</log>");
    xk_xmltree::parse(&xml).expect("reference document parses")
}

/// What a crashed workload leaves behind.
struct Crashed {
    db: Arc<MemPager>,
    wal: Arc<MemPager>,
    io: Arc<dyn SegmentIo>,
    /// Appends acknowledged (returned `Ok`) before the kill.
    acked: usize,
    probe: FaultProbe,
}

fn sync_each() -> DurabilityOptions {
    DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() }
}

/// Runs the append workload with `config` injected on the WAL pager,
/// then simulates a kill (`std::mem::forget`, so no checkpoint and no
/// clean shutdown ever runs). Returns the raw pagers and blob store,
/// how many appends were acknowledged, and the fault probe for op
/// accounting.
fn run_workload(config: FaultConfig) -> Crashed {
    let (db, io) = seed_segmented(SEED, PAGE, POOL);
    let io: Arc<dyn SegmentIo> = io;
    let wal = Arc::new(MemPager::new(PAGE));
    let faulted = FaultPager::new(Box::new(Arc::clone(&wal)), config);
    let probe = faulted.probe();
    let (engine, report) = match Engine::open_durable_with_pagers(
        Arc::clone(&db) as Arc<dyn Pager>,
        Arc::new(faulted) as Arc<dyn Pager>,
        POOL,
        sync_each(),
        Arc::clone(&io),
    ) {
        Ok(opened) => opened,
        // The crash site can land inside the open itself (writing the
        // fresh WAL header): the process "dies" before any append.
        Err(_) => return Crashed { db, wal, io, acked: 0, probe },
    };
    assert!(!report.db_was_dirty, "the seed build shut down cleanly");
    let mut acked = 0;
    for i in 0..APPENDS {
        match engine.append_subtree(&Dewey::root(), &fragment(i)) {
            Ok(_) => acked += 1,
            Err(_) => break, // the injected crash; the process "dies" here
        }
    }
    std::mem::forget(engine);
    Crashed { db, wal, io, acked, probe }
}

fn oracle_slca(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
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

fn oracle_all_lcas(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let lists: Option<Vec<Vec<Dewey>>> =
        keywords.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect();
    lists.map(|l| brute_force_all_lcas(&l).into_iter().collect()).unwrap_or_default()
}

/// Recovers the crashed pagers (twice — replay must be idempotent),
/// reopens the engine, determines the recovered append prefix from the
/// per-append markers, and differentials all four algorithms against
/// the brute-force oracle over that exact document.
fn verify_recovered(crashed: Crashed, ctx: &str) {
    let Crashed { db, wal, io, acked, .. } = crashed;
    // Replay, then replay again: the second pass re-applies the same
    // images (replay never reads what it overwrites), must find the
    // dirty flag already cleared, and must not change a single byte.
    let first =
        recover(&*db, &*wal).unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    let after_first = fingerprint(&*db);
    let second = recover(&*db, &*wal).unwrap_or_else(|e| panic!("{ctx}: re-recovery failed: {e}"));
    assert!(!second.db_was_dirty, "{ctx}: first recovery must leave the db clean");
    assert_eq!(second.replayed_txns, first.replayed_txns, "{ctx}: same log, same replay");
    assert_eq!(fingerprint(&*db), after_first, "{ctx}: replay is idempotent");

    let (engine, _) = Engine::open_durable_with_pagers(
        db as Arc<dyn Pager>,
        wal as Arc<dyn Pager>,
        POOL,
        sync_each(),
        io,
    )
    .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));

    // The recovered state must be a strict prefix of the append
    // sequence: markers w0..w{j-1} present, w{j}.. absent.
    let visible = |i: usize| has_postings(&engine, &format!("w{i}"));
    let mut j = 0;
    while j < APPENDS && visible(j) {
        j += 1;
    }
    for i in j..APPENDS {
        assert!(
            !visible(i),
            "{ctx}: append {i} visible without its predecessors (torn prefix)"
        );
    }
    assert!(
        j >= acked,
        "{ctx}: {acked} appends were acknowledged but only {j} recovered — durability lost"
    );
    let reference = reference_tree(j);
    let queries: &[&[&str]] = &[
        &["soak"],
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["soak", "gamma"],
        &["w0", "alpha"],
        &["w2", "soak"],
        &["base", "gamma"],
        &["missing", "alpha"],
    ];
    for q in queries {
        let expected = oracle_slca(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine
                .query(q, algo)
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} with {algo} failed: {e}"));
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo} (prefix {j})");
        }
        let expected_all = oracle_all_lcas(&reference, q);
        let out = engine
            .query_all_lcas(q)
            .unwrap_or_else(|e| panic!("{ctx}: all-LCA {q:?} failed: {e}"));
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_all, "{ctx}: all-LCA for {q:?} (prefix {j})");
    }
}

/// `XK_SOAK_SMOKE=1` samples the crash sites for CI; the full sweep
/// visits every single one.
fn stride(total: u64) -> u64 {
    if smoke() {
        (total / 6).max(1)
    } else {
        1
    }
}

#[test]
fn fault_free_baseline_recovers_everything() {
    let crashed = run_workload(FaultConfig::none());
    assert_eq!(crashed.acked, APPENDS, "no faults: every append is acknowledged");
    assert!(crashed.probe.writes() > 0 && crashed.probe.syncs() > 0, "the WAL saw traffic");
    verify_recovered(crashed, "fault-free baseline");
}

#[test]
fn crash_at_every_wal_write_recovers_a_consistent_prefix() {
    // Measure the workload's WAL write-op count, then tear each one.
    // Replayable: `XK_SOAK_SEED` overrides the per-site seed base.
    let base = soak_seed(0x50AC);
    let reporter = SoakReporter::new("crash_at_every_wal_write", base);
    let total = run_workload(FaultConfig::none()).probe.writes();
    let mut sites = 0;
    let mut partial = 0;
    let mut k = 0;
    while k < total {
        let ctx = format!("torn WAL write at op {k}");
        let crashed = run_workload(FaultConfig::torn_write(k, base ^ k)); // per-site torn-prefix lengths
        let acked = crashed.acked;
        reporter.log(format!("{ctx}: {acked}/{APPENDS} appends acked before the crash"));
        assert!(acked < APPENDS, "{ctx}: the torn write must kill the workload");
        verify_recovered(crashed, &ctx);
        sites += 1;
        if acked > 0 {
            partial += 1;
        }
        k += stride(total);
    }
    assert!(sites > 0);
    assert!(partial > 0, "the sweep must include mid-workload crash sites");
    reporter.finish();
}

#[test]
fn crash_at_every_wal_sync_recovers_every_acknowledged_append() {
    let base = soak_seed(0);
    let reporter = SoakReporter::new("crash_at_every_wal_sync", base);
    let total = run_workload(FaultConfig::none()).probe.syncs();
    let mut k = 0;
    while k < total {
        let ctx = format!("failed WAL sync at op {k}");
        let crashed = run_workload(FaultConfig::failed_sync(k, base ^ k));
        reporter.log(format!("{ctx}: {}/{APPENDS} appends acked before the crash", crashed.acked));
        // A failed sync means the append was *not* acknowledged — but
        // its commit record may still be replayable. Both outcomes are
        // legal; verify_recovered holds `recovered >= acked` either way.
        verify_recovered(crashed, &ctx);
        k += stride(total);
    }
    reporter.finish();
}
