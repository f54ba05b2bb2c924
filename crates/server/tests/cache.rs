//! Result-cache correctness against a real engine: the hot path pays
//! zero buffer-pool reads, and appends invalidate exactly the answers
//! whose keywords they touched — nothing stale is ever served, and
//! nothing fresh is ever thrown away (ISSUE 3 satellite 3, reworked for
//! the scoped-invalidation protocol of ISSUE 6).

use std::collections::HashMap;
use std::sync::Arc;
use xk_server::payload::query_result_json;
use xk_server::{CacheKey, CachedAnswer, QueryCache};
use xk_storage::EnvOptions;
use xk_xmltree::Dewey;
use xksearch::{Algorithm, Engine};

const OPTS: EnvOptions = EnvOptions { page_size: 512, pool_pages: 256 };

/// The reference layout: every posting read goes through the buffer
/// pool, so `IoStats` prices what a cache hit saves.
fn school_engine() -> Engine {
    Engine::build_in_memory(&xk_xmltree::school_example(), OPTS).unwrap()
}

/// The segment layout, for the tests that append.
fn growing_school_engine() -> Engine {
    Engine::build_in_memory_segmented(&xk_xmltree::school_example(), OPTS).unwrap()
}

/// Per-keyword staleness floors, exactly as the server keeps them.
type Floors = HashMap<String, u64>;

/// Runs a query through the cache the way the server does: look up at
/// the key's staleness floor, else execute and fill at the answer's
/// snapshot epoch.
fn cached_query(
    engine: &Engine,
    cache: &QueryCache,
    floors: &Floors,
    keywords: &[&str],
) -> (String, bool) {
    let key = CacheKey::new(keywords, Algorithm::Auto).expect("valid keywords");
    let floor =
        key.keywords.iter().filter_map(|kw| floors.get(kw).copied()).max().unwrap_or(0);
    if let Some(hit) = cache.lookup(&key, floor) {
        return (hit.result_json.to_string(), true);
    }
    let out = engine.query(keywords, Algorithm::Auto).expect("query");
    let result = query_result_json(&out);
    cache.insert(
        key,
        CachedAnswer {
            result_json: Arc::from(result.as_str()),
            algorithm: out.algorithm,
            cost_io: out.io,
            cost_elapsed_us: out.elapsed.as_micros() as u64,
            epoch: out.epoch,
        },
    );
    (result, false)
}

/// Applies an append's invalidation report the way the server does:
/// raise the touched keywords' floors, then sweep intersecting entries.
fn apply_append(cache: &QueryCache, floors: &mut Floors, touched: &[String], epoch: u64) -> usize {
    for kw in touched {
        let floor = floors.entry(kw.clone()).or_insert(0);
        if *floor < epoch {
            *floor = epoch;
        }
    }
    cache.invalidate_keywords(touched)
}

#[test]
fn hot_repeated_query_reads_zero_pages() {
    let engine = school_engine();
    let cache = QueryCache::new(64);
    let floors = Floors::new();

    engine.clear_cache().unwrap(); // cold buffer pool
    let (first, was_cached) = cached_query(&engine, &cache, &floors, &["John", "Ben"]);
    assert!(!was_cached);

    let before = engine.with_env(|e| e.stats());
    let (second, was_cached) = cached_query(&engine, &cache, &floors, &["Ben", "John"]);
    let delta = engine.with_env(|e| e.stats()).delta_since(&before);

    assert!(was_cached, "keyword order must not defeat the cache key");
    assert_eq!(first, second, "cached bytes match the original execution");
    assert_eq!(delta.disk_reads, 0, "zero buffer-pool read delta on the hot path");
    assert_eq!(delta.logical_reads, 0, "the hit never touches storage");
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert!(stats.saved_disk_reads > 0, "the cold miss cost reads that the hit saved");
}

#[test]
fn append_invalidates_only_touched_keywords() {
    let engine = growing_school_engine();
    let cache = QueryCache::new(64);
    let mut floors = Floors::new();

    let (stale, _) = cached_query(&engine, &cache, &floors, &["John", "Ben"]);
    assert!(stale.contains(r#""count":3"#), "{stale}");
    // Cached and hot — and so is an unrelated query.
    assert!(cached_query(&engine, &cache, &floors, &["John", "Ben"]).1);
    assert!(!cached_query(&engine, &cache, &floors, &["Math"]).1);
    assert!(cached_query(&engine, &cache, &floors, &["Math"]).1);

    // The document grows: a fourth class where John and Ben meet.
    let outcome = engine
        .append_subtree(
            &Dewey::root(),
            "<class><lecturer><name>Ben</name></lecturer><TA><name>John</name></TA></class>",
        )
        .unwrap();
    assert!(outcome.touched.iter().any(|k| k == "john"), "{:?}", outcome.touched);
    assert!(!outcome.touched.iter().any(|k| k == "math"), "{:?}", outcome.touched);
    let swept = apply_append(&cache, &mut floors, &outcome.touched, outcome.epoch);
    assert!(swept >= 1, "the john+ben entry intersects the touched set");

    let (fresh, was_cached) = cached_query(&engine, &cache, &floors, &["John", "Ben"]);
    assert!(!was_cached, "the touched keywords must force a re-execution");
    assert!(fresh.contains(r#""count":4"#), "stale answer served after append: {fresh}");
    assert!(fresh.contains(r#""4""#), "the new SLCA at Dewey 4 must appear: {fresh}");

    // The untouched "Math" answer survived the append and is still hot.
    let before = cache.stats();
    assert!(cached_query(&engine, &cache, &floors, &["Math"]).1);
    assert_eq!(cache.stats().hits, before.hits + 1, "untouched entry keeps serving hits");

    // And the fresh answer is itself cached again.
    let (again, was_cached) = cached_query(&engine, &cache, &floors, &["John", "Ben"]);
    assert!(was_cached);
    assert_eq!(again, fresh);
}

/// A racing pre-append answer can never be served post-append: even if
/// it is inserted *after* the sweep ran, the raised floor rejects it.
#[test]
fn raised_floor_rejects_late_stale_insert() {
    let engine = growing_school_engine();
    let cache = QueryCache::new(64);
    let mut floors = Floors::new();

    // A query pins its snapshot (epoch 1) but hasn't filled the cache yet.
    let out = engine.query(&["John"], Algorithm::Auto).unwrap();
    let key = CacheKey::new(&["John"], Algorithm::Auto).unwrap();

    // An append touching "john" commits and invalidates first.
    let outcome = engine.append_subtree(&Dewey::root(), "<note>John</note>").unwrap();
    apply_append(&cache, &mut floors, &outcome.touched, outcome.epoch);
    assert!(outcome.epoch > out.epoch);

    // The slow query now inserts its pre-append answer.
    cache.insert(
        key.clone(),
        CachedAnswer {
            result_json: Arc::from(query_result_json(&out).as_str()),
            algorithm: out.algorithm,
            cost_io: out.io,
            cost_elapsed_us: 0,
            epoch: out.epoch,
        },
    );

    // The next lookup must refuse it and recompute.
    let (answer, was_cached) = cached_query(&engine, &cache, &floors, &["John"]);
    assert!(!was_cached, "a pre-append answer must not satisfy a post-append lookup");
    assert_ne!(
        answer,
        query_result_json(&out),
        "the recomputed answer sees the appended occurrence"
    );
}

#[test]
fn capacity_bounds_hold_under_distinct_queries() {
    let engine = school_engine();
    let cache = QueryCache::new(2);
    let floors = Floors::new();
    // Three distinct single-keyword queries through a 2-entry cache.
    for kw in ["john", "ben", "class"] {
        cached_query(&engine, &cache, &floors, &[kw]);
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.evictions, 1);
    // The oldest ("john") was evicted: querying it again misses.
    assert!(!cached_query(&engine, &cache, &floors, &["john"]).1);
    // The newest ("class") is still hot.
    assert!(cached_query(&engine, &cache, &floors, &["class"]).1);
}
