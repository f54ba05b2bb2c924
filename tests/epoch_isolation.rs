//! Differential epoch-isolation test (ISSUE 7): queries racing an
//! in-flight `append_subtree` must observe either the full pre-append
//! or the full post-append snapshot — never a blend — and a merge
//! (`compact_segments`) publishes a new epoch with the same answers.
//!
//! The writer applies appends one at a time, compacting after each,
//! while reader threads hammer the engine across all four algorithms
//! (Indexed Lookup Eager, Scan Eager, Stack, all-LCA). Every query
//! result carries the committed epoch it observed; the writer publishes
//! an epoch → append-prefix map as each append or merge is acknowledged,
//! and each result is asserted equal to the brute-force oracle over
//! *exactly* that prefix's document. A blended read — some lists
//! pre-append, some post — would produce a result matching neither
//! prefix oracle and fail the comparison.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xk_index::MemIndex;
use xk_slca::{brute_force_all_lcas, brute_force_slca};
use xk_storage::{MemPager, Pager};
use xk_xmltree::{Dewey, XmlTree};
use xksearch::{Algorithm, CommitMode, DurabilityOptions, Engine};
use xksearch_repro::soak::seed_segmented;

const PAGE: usize = 512;
const POOL: usize = 128;
const APPENDS: usize = 10;

const SEED: &str = "<log>\
    <entry><tag>iso</tag><body>alpha beta base</body></entry>\
    <entry><tag>iso</tag><body>beta gamma base</body></entry>\
    </log>";

const QUERIES: &[&[&str]] = &[
    &["iso"],
    &["alpha"],
    &["alpha", "beta"],
    &["alpha", "gamma"],
    &["iso", "gamma"],
    &["w0", "alpha"],
    &["w3", "iso"],
    &["base", "gamma"],
];

fn fragment(i: usize) -> String {
    format!("<entry><tag>iso w{i}</tag><body>alpha gamma w{i}</body></entry>")
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

/// Brute-force answers for every query over the prefix-`j` document:
/// one SLCA set and one all-LCA set per query.
struct PrefixOracle {
    slca: Vec<Vec<Dewey>>,
    all_lcas: Vec<Vec<Dewey>>,
}

fn prefix_oracle(j: usize) -> PrefixOracle {
    let tree = reference_tree(j);
    let idx = MemIndex::build(&tree);
    let lists = |q: &[&str]| -> Option<Vec<Vec<Dewey>>> {
        q.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect()
    };
    PrefixOracle {
        slca: QUERIES.iter().map(|q| lists(q).map(|l| brute_force_slca(&l)).unwrap_or_default()).collect(),
        all_lcas: QUERIES
            .iter()
            .map(|q| {
                lists(q)
                    .map(|l| brute_force_all_lcas(&l).into_iter().collect())
                    .unwrap_or_default()
            })
            .collect(),
    }
}

/// Resolves the append prefix a query's observed epoch corresponds to.
/// The writer registers each epoch as its append is acknowledged, a
/// hair after the commit publishes — so a racing reader may observe the
/// epoch first and must wait for the registration to land. Unregistered
/// epochs never become visible (commits publish only after the
/// acknowledgement path), so a miss after the wait is a real isolation
/// violation.
fn prefix_for_epoch(epochs: &Mutex<HashMap<u64, usize>>, epoch: u64) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(&j) = epochs.lock().unwrap().get(&epoch) {
            return j;
        }
        assert!(
            Instant::now() < deadline,
            "observed epoch {epoch} was never published by the writer — \
             a query saw a state no acknowledged commit produced"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn racing_queries_observe_whole_snapshots_never_blends() {
    // Clean in-memory pagers; fault injection is the mixed soak's job.
    let (db, io) = seed_segmented(SEED, PAGE, POOL);

    let wal = Arc::new(MemPager::new(PAGE));
    let (engine, _) = Engine::open_durable_with_pagers(
        db as Arc<dyn Pager>,
        wal as Arc<dyn Pager>,
        POOL,
        DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() },
        io,
    )
    .expect("open durable engine");
    // Each append carries 8 postings: every second one crosses the
    // threshold, so the racing snapshots alternate between journal-only
    // and freshly sealed states, and the fourth 16-posting blob (append
    // 8) completes a mergeable run with two appends still to race.
    engine.set_seal_threshold(12);

    let oracles: Vec<PrefixOracle> = (0..=APPENDS).map(prefix_oracle).collect();
    let epochs: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    epochs.lock().unwrap().insert(engine.current_epoch(), 0);

    let stop = AtomicBool::new(false);
    let racing = AtomicU64::new(0);
    let mut merges = 0;
    std::thread::scope(|s| {
        for reader in 0..3 {
            let (engine, epochs, stop, racing, oracles) =
                (&engine, &epochs, &stop, &racing, &oracles);
            s.spawn(move || {
                let mut turn = reader; // stagger query/algorithm choice per thread
                while !stop.load(Ordering::Acquire) {
                    let qi = turn % QUERIES.len();
                    let q = QUERIES[qi];
                    match turn / QUERIES.len() % 4 {
                        3 => {
                            let out = engine.query_all_lcas(q).expect("racing all-LCA query");
                            let j = prefix_for_epoch(epochs, out.epoch);
                            let got: Vec<Dewey> =
                                out.lcas.iter().map(|(n, _)| n.clone()).collect();
                            assert_eq!(
                                got, oracles[j].all_lcas[qi],
                                "all-LCA {q:?} at epoch {} is not the whole prefix-{j} \
                                 snapshot (blend?)",
                                out.epoch
                            );
                        }
                        a => {
                            let algo = [
                                Algorithm::IndexedLookupEager,
                                Algorithm::ScanEager,
                                Algorithm::Stack,
                            ][a];
                            let out = engine.query(q, algo).expect("racing query");
                            let j = prefix_for_epoch(epochs, out.epoch);
                            assert_eq!(
                                out.slcas, oracles[j].slca[qi],
                                "{algo} {q:?} at epoch {} is not the whole prefix-{j} \
                                 snapshot (blend?)",
                                out.epoch
                            );
                        }
                    }
                    racing.fetch_add(1, Ordering::Relaxed);
                    turn += 1;
                }
            });
        }

        for i in 0..APPENDS {
            let out = engine
                .append_subtree(&Dewey::root(), &fragment(i))
                .expect("append under racing readers");
            epochs.lock().unwrap().insert(out.epoch, i + 1);
            // A merge rewrites blobs, not answers: its epoch maps to the
            // same prefix.
            if let Some(merge) = engine.compact_segments().expect("merge under racing readers") {
                epochs.lock().unwrap().insert(merge.epoch, i + 1);
                merges += 1;
            }
            // Give the readers a racing window at every intermediate
            // prefix, not just the final one.
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Release);
    });

    assert!(
        racing.load(Ordering::Relaxed) as usize >= QUERIES.len() * 4,
        "the readers must actually race the appends"
    );
    assert!(merges >= 1, "a merge must have published while the readers were live");

    // Post-quiescence: the final state equals the full-prefix oracle for
    // every algorithm (no lingering partial visibility).
    let last = &oracles[APPENDS];
    for (qi, q) in QUERIES.iter().enumerate() {
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            assert_eq!(engine.query(q, algo).unwrap().slcas, last.slca[qi]);
        }
        let got: Vec<Dewey> =
            engine.query_all_lcas(q).unwrap().lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, last.all_lcas[qi]);
    }
}
