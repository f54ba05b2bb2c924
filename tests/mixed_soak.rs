//! Mixed read/write soak (ISSUE 7 tentpole): concurrent queries across
//! all four algorithms interleaved with `append_subtree` transactions
//! under the seeded fault-injecting WAL pager, continuously
//! cross-checked against brute-force oracles snapshotted at each commit
//! epoch.
//!
//! The soak runs in rounds over ONE persistent database + WAL pair:
//!
//! * each round wraps the WAL in a fresh `FaultPager` whose fault (a
//!   torn write, a failed sync, or nothing) is placed by the run's seed;
//! * a writer applies appends while reader threads hammer the engine
//!   with SLCA queries (Indexed Lookup Eager / Scan Eager / Stack) and
//!   all-LCA queries, asserting every result equals the brute-force
//!   oracle for exactly the append prefix committed at the epoch the
//!   query observed;
//! * the round ends in a simulated kill (`std::mem::forget`) or a clean
//!   shutdown, recovery replays the WAL (twice — idempotence is checked
//!   byte-for-byte), and a full four-algorithm differential runs over
//!   the recovered document before the next round begins.
//!
//! `XK_SOAK_SMOKE=1` selects the short CI tier. On failure the harness
//! prints the seed and the op schedule; `XK_SOAK_SEED=<seed>` replays.
//!
//! The engine runs over the segment store — the one layout that
//! accepts appends — with an aggressive seal threshold and tiered merges
//! interleaved with the racing readers, so rounds span journal-only,
//! freshly sealed, and merged states.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xk_index::MemIndex;
use xk_segment::{MemSegmentIo, SegmentIo};
use xk_slca::{brute_force_all_lcas, brute_force_slca};
use xk_storage::{recover, FaultConfig, FaultPager, MemPager, Pager};
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};
use xksearch_repro::soak::{
    fingerprint, has_postings, seed_segmented, smoke, soak_seed, SoakReporter,
};

const PAGE: usize = 512;
const POOL: usize = 128;

const SEED: &str = "<log>\
    <entry><tag>mix</tag><body>alpha beta base</body></entry>\
    <entry><tag>mix</tag><body>beta gamma base</body></entry>\
    </log>";

const QUERIES: &[&[&str]] = &[
    &["mix"],
    &["alpha"],
    &["alpha", "beta"],
    &["alpha", "gamma"],
    &["mix", "gamma"],
    &["w0", "alpha"],
    &["w2", "mix"],
    &["w7", "gamma"],
    &["base", "gamma"],
    &["missing", "alpha"],
];

/// Append `g`'s fragment; `w{g}` is its unique marker (global index —
/// the soak appends across rounds into one growing document).
fn fragment(g: usize) -> String {
    format!("<entry><tag>mix w{g}</tag><body>alpha gamma w{g}</body></entry>")
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

/// Brute-force answers for every query over the prefix-`j` document.
struct PrefixOracle {
    slca: Vec<Vec<Dewey>>,
    all_lcas: Vec<Vec<Dewey>>,
}

fn compute_oracle(j: usize) -> Arc<PrefixOracle> {
    let tree = reference_tree(j);
    let idx = MemIndex::build(&tree);
    let lists = |q: &[&str]| -> Option<Vec<Vec<Dewey>>> {
        q.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect()
    };
    Arc::new(PrefixOracle {
        slca: QUERIES.iter().map(|q| lists(q).map(|l| brute_force_slca(&l)).unwrap_or_default()).collect(),
        all_lcas: QUERIES
            .iter()
            .map(|q| {
                lists(q)
                    .map(|l| brute_force_all_lcas(&l).into_iter().collect())
                    .unwrap_or_default()
            })
            .collect(),
    })
}

/// Memoized prefix oracles: prefixes recur across rounds and readers.
#[derive(Default)]
struct OracleCache(Mutex<HashMap<usize, Arc<PrefixOracle>>>);

impl OracleCache {
    fn get(&self, j: usize) -> Arc<PrefixOracle> {
        if let Some(o) = self.0.lock().unwrap().get(&j) {
            return Arc::clone(o);
        }
        let fresh = compute_oracle(j);
        Arc::clone(self.0.lock().unwrap().entry(j).or_insert(fresh))
    }
}

/// splitmix64 — the soak's only randomness, derived from the base seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Resolves the append prefix a query's observed epoch corresponds to.
/// The writer registers each epoch right after its append is
/// acknowledged; an epoch that never gets registered was never
/// acknowledged, and a query observing one would mean an unacked commit
/// became visible.
fn prefix_for_epoch(epochs: &Mutex<HashMap<u64, usize>>, epoch: u64, round: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(&j) = epochs.lock().unwrap().get(&epoch) {
            return j;
        }
        assert!(
            Instant::now() < deadline,
            "round {round}: a query observed epoch {epoch}, which no acknowledged \
             append published"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sync_each() -> DurabilityOptions {
    // SyncEachCommit only: GroupCommit spawns a committer thread that
    // would outlive the `mem::forget` kill and keep writing.
    DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() }
}

/// Recovered append prefix: markers `w0..w{j-1}` present, the rest
/// absent (asserted — a gap would be a torn, non-prefix recovery).
fn recovered_prefix(engine: &Engine, attempted: usize, ctx: &str) -> usize {
    let mut j = 0;
    while j < attempted && has_postings(engine, &format!("w{j}")) {
        j += 1;
    }
    for i in j..attempted {
        assert!(
            !has_postings(engine, &format!("w{i}")),
            "{ctx}: append {i} visible without its predecessors (torn prefix)"
        );
    }
    j
}

/// Opens the round's engine over the persistent pagers and blob store.
fn open_engine(
    db: Arc<dyn Pager>,
    wal: Arc<dyn Pager>,
    io: &Arc<MemSegmentIo>,
) -> xksearch::Result<(Engine, xksearch::RecoveryReport)> {
    Engine::open_durable_with_pagers(
        db,
        wal,
        POOL,
        sync_each(),
        Arc::clone(io) as Arc<dyn SegmentIo>,
    )
}

/// Full four-algorithm differential of `engine` against the oracle for
/// its recovered prefix.
fn differential(engine: &Engine, oracle: &PrefixOracle, ctx: &str) {
    for (qi, q) in QUERIES.iter().enumerate() {
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine
                .query(q, algo)
                .unwrap_or_else(|e| panic!("{ctx}: query {q:?} with {algo} failed: {e}"));
            assert_eq!(out.slcas, oracle.slca[qi], "{ctx}: {algo} disagrees on {q:?}");
        }
        let out = engine
            .query_all_lcas(q)
            .unwrap_or_else(|e| panic!("{ctx}: all-LCA {q:?} failed: {e}"));
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, oracle.all_lcas[qi], "{ctx}: all-LCA disagrees on {q:?}");
    }
}

#[test]
fn segmented_mixed_soak_holds_oracle_agreement_at_every_epoch() {
    let (rounds, appends_per_round, readers) = if smoke() { (3, 3, 2) } else { (8, 6, 3) };
    let base = soak_seed(0x5E63_0AC7);
    let reporter = SoakReporter::new("mixed_soak_segments", base);
    let oracles = OracleCache::default();

    // One persistent database + WAL across every round — recovery has to
    // carry real history forward, not start from a fresh world each time.
    // The blob store persists the same way.
    let (db, io) = seed_segmented(SEED, PAGE, POOL);
    let wal = Arc::new(MemPager::new(PAGE));

    // Acknowledged appends so far (durability floor) and appends ever
    // attempted (marker-scan bound).
    let mut acked_total = 0usize;
    let mut attempted = 0usize;
    let total_queries = AtomicU64::new(0);

    for round in 0..rounds {
        let mut rng = base ^ (round as u64).wrapping_mul(0x9e37_79b9);
        // Fault placement for this round. Op budgets are rough (an op
        // index past the round's traffic simply never fires — the round
        // completes cleanly, which is a legal schedule too).
        let config = match round % 3 {
            0 => FaultConfig::none(),
            1 => FaultConfig::torn_write(splitmix(&mut rng) % 60, base ^ round as u64),
            _ => FaultConfig::failed_sync(splitmix(&mut rng) % 12, base ^ round as u64),
        };
        reporter.log(format!(
            "round {round}: torn={:?} sync={:?}",
            config.torn_write_at, config.fail_sync_at
        ));

        let faulted = FaultPager::new(Box::new(Arc::clone(&wal)), config);
        let probe = faulted.probe();
        let engine = match open_engine(
            Arc::clone(&db) as Arc<dyn Pager>,
            Arc::new(faulted) as Arc<dyn Pager>,
            &io,
        ) {
            Ok((engine, _)) => engine,
            Err(e) => {
                // The fault landed inside the open itself: the process
                // "dies" before any append. Recover and move on.
                reporter.log(format!("round {round}: crashed during open ({e})"));
                recover(&*db, &*wal)
                    .unwrap_or_else(|e| panic!("round {round}: recovery after open-crash: {e}"));
                continue;
            }
        };

        // Seal every couple of postings so rounds span journal-only,
        // freshly sealed, and merged states.
        engine.set_seal_threshold(2);

        // The state carried into this round must itself be a consistent
        // acknowledged prefix.
        let start_prefix = recovered_prefix(&engine, attempted, &format!("round {round} open"));
        assert!(
            start_prefix >= acked_total,
            "round {round}: {acked_total} appends acknowledged but only {start_prefix} survived"
        );
        let mut g = start_prefix;

        // Epoch → prefix, rebuilt per round (epoch numbering is an
        // engine-instance property; prefixes are global).
        let epochs: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
        epochs.lock().unwrap().insert(engine.current_epoch(), g);

        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for reader in 0..readers {
                let (engine, epochs, stop, oracles, total_queries) =
                    (&engine, &epochs, &stop, &oracles, &total_queries);
                let mut rng = base ^ ((round * 31 + reader) as u64).wrapping_mul(0x517c_c1b7);
                s.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let draw = splitmix(&mut rng);
                        let qi = (draw % QUERIES.len() as u64) as usize;
                        let q = QUERIES[qi];
                        // Faults are injected on the WAL only; reads go
                        // through the clean db pager and must succeed.
                        match (draw >> 32) % 4 {
                            3 => {
                                let out = engine.query_all_lcas(q).expect("soak all-LCA query");
                                let j = prefix_for_epoch(epochs, out.epoch, round);
                                let got: Vec<Dewey> =
                                    out.lcas.iter().map(|(n, _)| n.clone()).collect();
                                assert_eq!(
                                    got,
                                    oracles.get(j).all_lcas[qi],
                                    "round {round}: all-LCA {q:?} at epoch {} disagrees with \
                                     the prefix-{j} oracle",
                                    out.epoch
                                );
                            }
                            a => {
                                let algo = [
                                    Algorithm::IndexedLookupEager,
                                    Algorithm::ScanEager,
                                    Algorithm::Stack,
                                ][a as usize];
                                let out = engine.query(q, algo).expect("soak query");
                                let j = prefix_for_epoch(epochs, out.epoch, round);
                                assert_eq!(
                                    out.slcas,
                                    oracles.get(j).slca[qi],
                                    "round {round}: {algo} {q:?} at epoch {} disagrees with \
                                     the prefix-{j} oracle",
                                    out.epoch
                                );
                            }
                        }
                        total_queries.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }

            for _ in 0..appends_per_round {
                attempted = attempted.max(g + 1);
                match engine.append_subtree(&Dewey::root(), &fragment(g)) {
                    Ok(out) => {
                        g += 1;
                        epochs.lock().unwrap().insert(out.epoch, g);
                        reporter.log(format!("round {round}: append w{} -> epoch {}", g - 1, out.epoch));
                        // Interleave tiered merges with the racing
                        // readers: a merge changes no answers but does
                        // publish a new epoch over the same prefix.
                        if g.is_multiple_of(2) {
                            match engine.compact_segments() {
                                Ok(Some(out)) => {
                                    epochs.lock().unwrap().insert(out.epoch, g);
                                    reporter.log(format!(
                                        "round {round}: merged {:?} -> seg {}",
                                        out.merged, out.seq
                                    ));
                                }
                                Ok(None) => {}
                                Err(e) => {
                                    reporter.log(format!("round {round}: merge died: {e}"));
                                    // A merge that committed but failed its
                                    // durability wait still published an
                                    // epoch — over the same prefix.
                                    epochs.lock().unwrap().entry(engine.current_epoch()).or_insert(g);
                                    break; // the injected crash landed in the merge
                                }
                            }
                        }
                    }
                    Err(e) => {
                        reporter.log(format!("round {round}: append w{g} died: {e}"));
                        // A fault during the durability flush leaves the
                        // commit visible but unacknowledged; resolve
                        // whatever epoch got published to the prefix
                        // that is actually being served so racing
                        // readers can map their observations.
                        let epoch = engine.current_epoch();
                        epochs
                            .lock()
                            .unwrap()
                            .entry(epoch)
                            .or_insert_with(|| {
                                if has_postings(&engine, &format!("w{g}")) { g + 1 } else { g }
                            });
                        break; // the injected crash: the writer is dead
                    }
                }
                // A small racing window so readers see intermediate
                // prefixes, not just the round's final state.
                std::thread::sleep(Duration::from_millis(3));
            }
            stop.store(true, Ordering::Release);
        });
        acked_total = g;

        // End of round: a simulated kill on fault rounds (and every
        // other clean round, to exercise recovery from a healthy WAL),
        // else a clean shutdown/checkpoint.
        let crashed = probe.crashed() || g < start_prefix + appends_per_round;
        if crashed || (round / 3) % 2 == 1 {
            reporter.log(format!("round {round}: kill (crashed={crashed})"));
            std::mem::forget(engine);
        } else {
            reporter.log(format!("round {round}: clean shutdown"));
            drop(engine);
        }

        // Recover — twice; replay must be idempotent byte-for-byte.
        let first = recover(&*db, &*wal)
            .unwrap_or_else(|e| panic!("round {round}: recovery failed: {e}"));
        let after_first = fingerprint(&*db);
        let second = recover(&*db, &*wal)
            .unwrap_or_else(|e| panic!("round {round}: re-recovery failed: {e}"));
        assert!(!second.db_was_dirty, "round {round}: first recovery must leave the db clean");
        assert_eq!(fingerprint(&*db), after_first, "round {round}: replay is idempotent");
        reporter.log(format!(
            "round {round}: recovered (replayed {} txns), acked_total={acked_total}",
            first.replayed_txns
        ));

        // Post-recovery differential: reopen cleanly, re-derive the
        // prefix, and run all four algorithms against its oracle.
        let (engine, _) = open_engine(
            Arc::clone(&db) as Arc<dyn Pager>,
            Arc::clone(&wal) as Arc<dyn Pager>,
            &io,
        )
        .unwrap_or_else(|e| panic!("round {round}: reopen after recovery failed: {e}"));
        let j = recovered_prefix(&engine, attempted, &format!("round {round} verify"));
        assert!(
            j >= acked_total,
            "round {round}: {acked_total} appends acknowledged but only {j} recovered"
        );
        acked_total = j;
        differential(&engine, &oracles.get(j), &format!("round {round} post-recovery"));
        // The reopen swept orphans, so the recovered blob set must
        // verify fully clean.
        let report = engine
            .verify_segments()
            .unwrap_or_else(|e| panic!("round {round}: segment verify failed: {e}"))
            .expect("store is segmented");
        assert!(
            report.clean(),
            "round {round}: recovered segment store has issues: {:?}",
            report.issues
        );
        drop(engine); // clean shutdown so the next round starts checkpointed
    }

    assert!(acked_total > 0, "the soak must commit appends across its rounds");
    let queries = total_queries.load(Ordering::Relaxed);
    assert!(
        queries as usize >= rounds * QUERIES.len(),
        "the readers must actually exercise the engine (ran {queries} queries)"
    );
    reporter.log(format!("done: {acked_total} appends acked, {queries} racing queries"));
    reporter.finish();
}
