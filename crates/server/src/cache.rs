//! The query-result cache: an LRU map from (normalized keyword set,
//! requested algorithm) to the rendered result payload.
//!
//! Keying on the *normalized, deduplicated, sorted* keyword set means
//! `?kw=John+Ben`, `?kw=ben+john`, and `?kw=BEN&kw=john&kw=Ben` all share
//! one entry — the same canonicalization [`Engine::query`] applies before
//! executing (`normalize_keyword` + dedup; the engine's frequency ordering
//! does not change the answer, only the execution plan). The requested
//! algorithm is part of the key because explicit `il`/`scan`/`stack`
//! requests must report their own operation counts; `auto` resolves
//! deterministically from the (cached) frequencies, so caching it under
//! its own key is safe too.
//!
//! ## Scoped invalidation
//!
//! Every entry records the committed **epoch** its answer was computed
//! at ([`QueryOutcome::epoch`]). An append reports exactly which
//! keyword lists it touched ([`AppendOutcome::touched`]), and the
//! server then (a) sweeps only the entries whose keyword set intersects
//! that report ([`QueryCache::invalidate_keywords`]) and (b) raises
//! those keywords' staleness floor. A lookup passes the floor of its
//! key — the latest epoch at which any of its keywords changed — and an
//! entry is served iff `entry.epoch >= floor`, so answers for untouched
//! keyword sets survive appends untouched while a racing insert of a
//! pre-append answer can never be served after the append. The
//! staleness tests in `tests/cache.rs` lock this in.
//!
//! [`Engine::query`]: xksearch::Engine::query
//! [`QueryOutcome::epoch`]: xksearch::QueryOutcome
//! [`AppendOutcome::touched`]: xksearch::AppendOutcome

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xk_storage::IoStats;
use xksearch::Algorithm;

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map over a slab of doubly-linked nodes: O(1)
/// lookup, insertion, and eviction, no unsafe, no pointer cycles.
pub struct Lru<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 is a valid
    /// "cache disabled" state: every insert is a no-op.
    pub fn new(capacity: usize) -> Lru<K, V> {
        Lru {
            map: HashMap::with_capacity(capacity.min(1024)),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    // xk-analyze: allow(panic_path, reason = "slab indices are intrusive-list links maintained by this type")
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    // xk-analyze: allow(panic_path, reason = "slab indices are intrusive-list links maintained by this type")
    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks `key` up and marks it most recently used.
    // xk-analyze: allow(panic_path, reason = "slab indices are intrusive-list links maintained by this type")
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &i = self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slab[i].value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry if at capacity. Returns the evicted key, if any.
    // xk-analyze: allow(panic_path, reason = "slab indices are intrusive-list links maintained by this type")
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            let old = self.slab[lru].key.clone();
            self.map.remove(&old);
            self.free.push(lru);
            evicted = Some(old);
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node { key: key.clone(), value, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slab.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }

    /// Removes `key` if present; the slot is recycled by later inserts.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(i) = self.map.remove(key) else { return false };
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most to least recently used (tests, diagnostics).
    // xk-analyze: allow(panic_path, reason = "slab indices are intrusive-list links maintained by this type")
    pub fn keys_mru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slab[i].key.clone());
            i = self.slab[i].next;
        }
        out
    }
}

/// The canonical cache key for a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Normalized, deduplicated, sorted keywords.
    pub keywords: Vec<String>,
    /// The algorithm *as requested* (Auto stays Auto).
    pub algorithm: Algorithm,
}

impl CacheKey {
    /// Canonicalizes raw query keywords the same way the engine does
    /// (normalize + dedup), then sorts for order independence. `None` if
    /// any keyword normalizes to nothing (the engine rejects those too).
    pub fn new(raw_keywords: &[&str], algorithm: Algorithm) -> Option<CacheKey> {
        let mut keywords = Vec::with_capacity(raw_keywords.len());
        for raw in raw_keywords {
            let k = xk_xmltree::normalize_keyword(raw)?;
            if !keywords.contains(&k) {
                keywords.push(k);
            }
        }
        if keywords.is_empty() {
            return None;
        }
        keywords.sort();
        Some(CacheKey { keywords, algorithm })
    }
}

/// One cached answer.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The deterministic `result` payload, exactly as first rendered.
    pub result_json: Arc<str>,
    /// The algorithm that actually ran (for per-algorithm accounting).
    pub algorithm: Algorithm,
    /// The I/O the original (miss) execution cost — what a hit saves.
    pub cost_io: IoStats,
    /// Wall-clock of the original execution, microseconds.
    pub cost_elapsed_us: u64,
    /// The committed epoch the answer was computed at
    /// ([`xksearch::QueryOutcome::epoch`]).
    pub epoch: u64,
}

/// Cache counters, all monotonically increasing.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
    /// Entries dropped because a commit touched one of their keywords
    /// (scoped sweeps and stale-floor lookups combined).
    pub invalidations: u64,
    /// Disk reads the original executions of all hits would have re-paid.
    pub saved_disk_reads: u64,
    pub entries: usize,
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 1.0 when the cache saw no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            // xk-analyze: allow(panic_path, reason = "f64 division cannot panic; total is also checked non-zero above")
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe LRU query-result cache with hit/miss/invalidation
/// accounting. Lock granularity is the whole map — entries are small and
/// the critical sections are a hash probe plus two link splices, which is
/// dwarfed by even a buffer-pool-hot query execution.
pub struct QueryCache {
    lru: Mutex<Lru<CacheKey, CachedAnswer>>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    saved_disk_reads: AtomicU64,
}

impl QueryCache {
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache {
            lru: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            saved_disk_reads: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<CacheKey, CachedAnswer>> {
        self.lru.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key`, accepting only entries at least as new as
    /// `floor` — the latest epoch at which any of the key's keywords
    /// changed (0 when none ever did). An older entry is stale: it is
    /// dropped and counts as both an invalidation and a miss.
    pub fn lookup(&self, key: &CacheKey, floor: u64) -> Option<CachedAnswer> {
        let mut lru = self.lock();
        match lru.get(key) {
            Some(entry) if entry.epoch >= floor => {
                let hit = entry.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.saved_disk_reads.fetch_add(hit.cost_io.disk_reads, Ordering::Relaxed);
                Some(hit)
            }
            Some(_) => {
                lru.remove(key);
                drop(lru);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// A hit-or-nothing probe for the reactor's inline fast path: a hit
    /// counts (and bumps recency) exactly as [`QueryCache::lookup`]
    /// would, but a miss or stale entry leaves every counter and the
    /// LRU untouched — the worker path that follows does the counting
    /// lookup, so hits and misses are each booked exactly once.
    pub fn peek_hit(&self, key: &CacheKey, floor: u64) -> Option<CachedAnswer> {
        let mut lru = self.lock();
        match lru.get(key) {
            Some(entry) if entry.epoch >= floor => {
                let hit = entry.clone();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.saved_disk_reads.fetch_add(hit.cost_io.disk_reads, Ordering::Relaxed);
                Some(hit)
            }
            _ => None,
        }
    }

    /// Stores an answer (no-op when capacity is 0).
    pub fn insert(&self, key: CacheKey, answer: CachedAnswer) {
        let mut lru = self.lock();
        if lru.capacity() == 0 {
            return;
        }
        let evicted = lru.insert(key, answer);
        drop(lru);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Removes every entry whose keyword set intersects `touched`,
    /// returning how many were dropped — the scoped sweep the append
    /// path runs: only answers that mention a touched keyword can be
    /// stale, everything else keeps serving hits.
    pub fn invalidate_keywords(&self, touched: &[String]) -> usize {
        if touched.is_empty() {
            return 0;
        }
        let set: std::collections::HashSet<&str> =
            touched.iter().map(|s| s.as_str()).collect();
        let mut lru = self.lock();
        let stale: Vec<CacheKey> = lru
            .keys_mru()
            .into_iter()
            .filter(|k| k.keywords.iter().any(|kw| set.contains(kw.as_str())))
            .collect();
        for k in &stale {
            lru.remove(k);
        }
        drop(lru);
        self.invalidations.fetch_add(stale.len() as u64, Ordering::Relaxed);
        stale.len()
    }

    /// Drops every entry (admin/testing hook).
    pub fn clear(&self) {
        self.lock().clear();
    }

    pub fn stats(&self) -> CacheStats {
        let (entries, capacity) = {
            let lru = self.lock();
            (lru.len(), lru.capacity())
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            saved_disk_reads: self.saved_disk_reads.load(Ordering::Relaxed),
            entries,
            capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        assert_eq!(lru.insert(1, 10), None);
        assert_eq!(lru.insert(2, 20), None);
        assert_eq!(lru.insert(3, 30), None);
        // Touch 1: now 2 is the LRU.
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.insert(4, 40), Some(2));
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.keys_mru(), vec![4, 1, 3]);
        assert_eq!(lru.len(), 3);
    }

    #[test]
    fn lru_replace_updates_in_place() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), None, "replacement never evicts");
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.insert(3, 30), Some(2), "2 was the LRU after 1's touch");
    }

    #[test]
    fn lru_zero_capacity_is_disabled() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        assert_eq!(lru.insert(1, 10), None);
        assert_eq!(lru.get(&1), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn lru_slab_reuse_after_eviction() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        for i in 0..100 {
            lru.insert(i, i);
        }
        assert_eq!(lru.len(), 2);
        assert!(lru.slab.len() <= 3, "evicted slots are reused, not leaked");
        assert_eq!(lru.keys_mru(), vec![99, 98]);
    }

    #[test]
    fn cache_key_canonicalizes() {
        let a = CacheKey::new(&["John", "Ben"], Algorithm::Auto).unwrap();
        let b = CacheKey::new(&["ben", "JOHN", "Ben!"], Algorithm::Auto).unwrap();
        assert_eq!(a, b);
        let c = CacheKey::new(&["ben", "john"], Algorithm::Stack).unwrap();
        assert_ne!(a, c, "algorithm is part of the key");
        assert!(CacheKey::new(&["?!"], Algorithm::Auto).is_none());
        assert!(CacheKey::new(&[], Algorithm::Auto).is_none());
    }

    fn answer(epoch: u64) -> CachedAnswer {
        CachedAnswer {
            result_json: Arc::from("{}"),
            algorithm: Algorithm::ScanEager,
            cost_io: IoStats { disk_reads: 7, ..Default::default() },
            cost_elapsed_us: 5,
            epoch,
        }
    }

    #[test]
    fn query_cache_hit_miss_accounting() {
        let cache = QueryCache::new(8);
        let key = CacheKey::new(&["john"], Algorithm::Auto).unwrap();
        assert!(cache.lookup(&key, 0).is_none());
        cache.insert(key.clone(), answer(0));
        assert!(cache.lookup(&key, 0).is_some());
        assert!(cache.lookup(&key, 0).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (2, 1, 1));
        assert_eq!(s.saved_disk_reads, 14, "each hit saves the miss's 7 reads");
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stale_epoch_invalidates() {
        let cache = QueryCache::new(8);
        let key = CacheKey::new(&["john"], Algorithm::Auto).unwrap();
        cache.insert(key.clone(), answer(1));
        // Entries newer than the floor keep serving.
        assert!(cache.lookup(&key, 1).is_some());
        cache.insert(key.clone(), answer(3));
        assert!(cache.lookup(&key, 2).is_some(), "epoch 3 satisfies floor 2");
        // An entry below the floor is stale: dropped, counted, missed.
        cache.insert(key.clone(), answer(1));
        assert!(cache.lookup(&key, 2).is_none(), "stale epoch must miss");
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0, "the stale entry is gone");
        // And it stays gone even at the old floor.
        assert!(cache.lookup(&key, 1).is_none());
    }

    #[test]
    fn invalidate_keywords_is_scoped() {
        let cache = QueryCache::new(8);
        let john = CacheKey::new(&["john"], Algorithm::Auto).unwrap();
        let john_ben = CacheKey::new(&["john", "ben"], Algorithm::Stack).unwrap();
        let math = CacheKey::new(&["math"], Algorithm::Auto).unwrap();
        cache.insert(john.clone(), answer(1));
        cache.insert(john_ben.clone(), answer(1));
        cache.insert(math.clone(), answer(1));
        // Sweep "john": both entries mentioning it go, "math" survives.
        assert_eq!(cache.invalidate_keywords(&["john".to_string()]), 2);
        assert!(cache.lookup(&john, 0).is_none());
        assert!(cache.lookup(&john_ben, 0).is_none());
        assert!(cache.lookup(&math, 0).is_some(), "untouched entry survives");
        let s = cache.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(cache.invalidate_keywords(&[]), 0, "empty sweep is a no-op");
    }
}
