//! Differential concurrency tests: the parallel query driver must be an
//! observationally pure speed knob. The same 40-query DBLP workload runs
//! single-threaded and at 8 threads, hot and cold cache, and every
//! per-query SLCA set must be identical. A second test checks that the
//! shared atomic I/O counters stay self-consistent under sharding, and a
//! third that a storage fault in one query of a concurrent batch errors
//! out exactly that query.

use xk_storage::{EnvOptions, FaultConfig, FaultPager, IoStats, MemPager, StorageEnv};
use xk_workload::{generate, planted_for_classes, DblpSpec, FrequencyClass, QuerySampler};
use xksearch::{Algorithm, Engine, EngineError};

/// The paper's experimental shape: 40 random two-keyword queries, one
/// keyword from a low-frequency class and one from a mid-frequency class.
fn workload() -> (xk_xmltree::XmlTree, Vec<Vec<String>>) {
    let low = FrequencyClass::new(10, 8);
    let mid = FrequencyClass::new(500, 4);
    let spec = DblpSpec {
        papers: 2_000,
        planted: planted_for_classes(&[low.clone(), mid.clone()]),
        ..DblpSpec::small()
    };
    let tree = generate(&spec);
    let mut sampler = QuerySampler::new(0x40_40);
    let queries = sampler.sample_many(&[(&low, 1), (&mid, 1)], 40);
    (tree, queries)
}

fn temp_db(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xk-conc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("idx.db")
}

/// `a + b` counter-wise, for summing per-query deltas.
fn add(a: IoStats, b: IoStats) -> IoStats {
    IoStats {
        logical_reads: a.logical_reads + b.logical_reads,
        disk_reads: a.disk_reads + b.disk_reads,
        disk_writes: a.disk_writes + b.disk_writes,
        evictions: a.evictions + b.evictions,
    }
}

#[test]
fn forty_query_workload_is_identical_at_eight_threads() {
    let (tree, queries) = workload();
    let db = temp_db("diff");
    // Small pool (64 KiB) so the cold runs genuinely churn the cache and
    // the sharded eviction path is exercised, not just the hit path.
    let opts = EnvOptions { page_size: 512, pool_pages: 128 };
    let engine = Engine::build(&tree, &db, opts, false).unwrap();

    for cache in ["cold", "hot"] {
        let run = |threads: usize| {
            match cache {
                "cold" => engine.clear_cache().unwrap(),
                _ => {
                    // One unmeasured pass to populate the pool.
                    for r in engine.query_batch(&queries, Algorithm::Auto, threads) {
                        r.unwrap();
                    }
                }
            }
            engine
                .query_batch(&queries, Algorithm::Auto, threads)
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        let parallel = run(8);
        assert_eq!(sequential.len(), 40);
        assert_eq!(parallel.len(), 40);
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            assert_eq!(s.slcas, p.slcas, "[{cache}] query {i} diverged at 8 threads");
            assert_eq!(s.algorithm, p.algorithm, "[{cache}] query {i} picked another algorithm");
            assert_eq!(s.keywords, p.keywords, "[{cache}] query {i} keyword order changed");
            assert!(!s.slcas.is_empty(), "[{cache}] query {i}: planted keywords must match");
        }
    }
    std::fs::remove_dir_all(db.parent().unwrap()).unwrap();
}

#[test]
fn io_stats_stay_consistent_under_sharded_concurrency() {
    let (tree, queries) = workload();
    let db = temp_db("iostats");
    let opts = EnvOptions { page_size: 512, pool_pages: 128 };
    let engine = Engine::build(&tree, &db, opts, false).unwrap();

    // Sequentially, each query's reported delta is exact: the per-query
    // deltas must add up to the global counter movement.
    engine.clear_cache().unwrap();
    let before = engine.with_env(|e| e.stats());
    let outcomes: Vec<_> = engine
        .query_batch(&queries, Algorithm::Auto, 1)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let after = engine.with_env(|e| e.stats());
    let global = after.delta_since(&before);
    let summed = outcomes.iter().fold(IoStats::default(), |acc, o| add(acc, o.io));
    assert_eq!(summed, global, "sequential per-query deltas must sum to the global delta");
    assert!(global.disk_reads > 0, "a cold 40-query run must hit the disk");

    // At 8 threads the counters are shared, so each query's window delta
    // over-counts (it sees overlapping queries too), but the *global*
    // movement stays exact: logical reads are deterministic for the
    // workload, and the summed windows bound the global delta from above.
    engine.clear_cache().unwrap();
    let before = engine.with_env(|e| e.stats());
    let outcomes: Vec<_> = engine
        .query_batch(&queries, Algorithm::Auto, 8)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    let after = engine.with_env(|e| e.stats());
    let conc_global = after.delta_since(&before);
    let conc_summed = outcomes.iter().fold(IoStats::default(), |acc, o| add(acc, o.io));
    assert_eq!(
        conc_global.logical_reads, global.logical_reads,
        "logical page accesses are workload-determined, not schedule-determined"
    );
    assert!(
        conc_summed.logical_reads >= conc_global.logical_reads,
        "summed per-query windows ({}) must bound the global movement ({})",
        conc_summed.logical_reads,
        conc_global.logical_reads
    );
    assert!(
        conc_summed.disk_reads >= conc_global.disk_reads,
        "summed disk-read windows ({}) must bound the global movement ({})",
        conc_summed.disk_reads,
        conc_global.disk_reads
    );
    std::fs::remove_dir_all(db.parent().unwrap()).unwrap();
}

#[test]
fn read_fault_poisons_exactly_one_query_in_a_concurrent_batch() {
    let (tree, queries) = workload();
    let fault = FaultPager::new(
        Box::new(MemPager::new(512)),
        FaultConfig::none(), // faults are armed at runtime via the probe
    );
    let probe = fault.probe();
    let env = StorageEnv::create_with_pager(Box::new(fault), 128).unwrap();
    let no_doc = xk_index::BuildOptions { store_document: false, ..Default::default() };
    xk_index::build_disk_index(&env, &tree, &no_doc).unwrap();
    let engine = Engine::from_env(env).unwrap();

    // Baseline answers with no fault armed.
    engine.clear_cache().unwrap();
    let baseline: Vec<_> = engine
        .query_batch(&queries, Algorithm::Auto, 8)
        .into_iter()
        .map(|r| r.unwrap().slcas)
        .collect();

    // Arm one one-shot read fault and rerun cold, so the very first disk
    // read of the batch — owned by exactly one of the 8 workers — fails.
    engine.clear_cache().unwrap();
    probe.arm_read_fault();
    let results = engine.query_batch(&queries, Algorithm::Auto, 8);
    assert_eq!(probe.pending_read_faults(), 0, "the armed fault must have fired");

    let mut failed = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(out) => assert_eq!(
                out.slcas, baseline[i],
                "sibling query {i} must still produce the fault-free answer"
            ),
            Err(e) => {
                // The error must be typed storage/index propagation, not a
                // panic and not a query-shape error.
                assert!(
                    matches!(e, EngineError::Storage(_) | EngineError::Index(_)),
                    "query {i} failed with the wrong kind of error: {e}"
                );
                failed.push(i);
            }
        }
    }
    assert_eq!(failed.len(), 1, "exactly one query must absorb the one-shot fault: {failed:?}");
}
