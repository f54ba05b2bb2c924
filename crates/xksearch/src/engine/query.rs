//! The read side: one [`ReadView`] per request, the keyword queries
//! that run over it, and the posting-level probes the differential tests
//! and the benchmark's trace binary call.

use super::{Algorithm, Engine, LcaOutcome, QueryOutcome, SegSnapshot, AUTO_RATIO_THRESHOLD};
use crate::error::{EngineError, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xk_index::{DiskIndex, IndexError};
use xk_segment::SegmentError;
use xk_slca::{
    all_lcas, indexed_lookup_eager, scan_eager, stack_merge, AlgoStats, ChainedCursor, ErrorSlot,
    MemList, PostingCursor, RankedList, StreamList,
};
use xk_storage::{IoStats, StorageEnv};
use xk_xmltree::{normalize_keyword, Dewey};

/// One request's consistent picture of the store at one committed
/// epoch: every reader opens one, builds its cursors from it, and ends
/// with [`ReadView::finish`].
///
/// Safe against a concurrent [`Engine::append_subtree`] or merge: the
/// posting source is immutable (see [`Source`]), so an in-flight
/// transaction is invisible until it publishes the next snapshot.
struct ReadView<'e> {
    env: &'e Arc<StorageEnv>,
    source: Source<'e>,
}

/// Where a [`ReadView`] finds postings and frequencies, and the slot
/// its cursors report failures into (the cursor is infallible): this
/// request's own, so a storage failure errors out exactly this request.
/// A keyword has exactly one kind of source per engine.
enum Source<'e> {
    /// The read-only reference layout: the index's vocabulary and its
    /// B+tree / chain cursors.
    Reference(&'e DiskIndex, ErrorSlot<IndexError>),
    /// The serving layout: sealed segments in seal order, then the mem
    /// segment. The snapshot is self-contained (`Arc`s into immutable
    /// blobs and views, plus the epoch they describe), so the reader
    /// holds no lock and a committing append never waits on it.
    Segments(Arc<SegSnapshot>, ErrorSlot<SegmentError>),
}

impl Engine {
    fn read_view(&self) -> ReadView<'_> {
        let source = match self.segments.as_ref() {
            Some(seg) => Source::Segments(seg.snapshot(), ErrorSlot::new()),
            None => Source::Reference(&self.index, ErrorSlot::new()),
        };
        ReadView { env: &self.env, source }
    }
}

impl ReadView<'_> {
    /// The committed epoch this view describes. The reference layout is
    /// never written, so its environment's epoch is a constant.
    fn epoch(&self) -> u64 {
        match &self.source {
            Source::Reference(..) => self.env.current_epoch(),
            Source::Segments(s, _) => s.epoch,
        }
    }

    /// The environment's I/O counters now. Exact deltas when the engine
    /// is otherwise quiescent; concurrent requests share the counters,
    /// so a delta then *bounds* this request's own I/O.
    fn io_stats(&self) -> IoStats {
        self.env.stats()
    }

    /// Normalizes, validates, and frequency-orders the query keywords.
    /// Returns `None` if any keyword has no postings (empty result).
    fn prepare(&self, keywords: &[&str]) -> Result<Option<(Vec<String>, Vec<u64>)>> {
        let mut normalized = Vec::with_capacity(keywords.len());
        for raw in keywords {
            let k = normalize_keyword(raw)
                .ok_or_else(|| EngineError::BadQuery(format!("empty keyword {raw:?}")))?;
            if !normalized.contains(&k) {
                normalized.push(k);
            }
        }
        if normalized.is_empty() {
            return Err(EngineError::BadQuery("no keywords given".into()));
        }
        let mut with_freq = Vec::with_capacity(normalized.len());
        for k in normalized {
            let freq = match &self.source {
                Source::Reference(index, _) => index.frequency(&k),
                Source::Segments(s, _) => {
                    s.sealed.iter().map(|r| r.frequency(&k)).sum::<u64>() + s.mem.frequency(&k)
                }
            };
            if freq == 0 {
                return Ok(None); // a keyword with no occurrences
            }
            with_freq.push((k, freq));
        }
        // Smallest list first — the paper's S_1 choice.
        with_freq.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        Ok(Some(with_freq.into_iter().unzip()))
    }

    /// `keyword`'s postings as one cursor standing at the first: the
    /// B+tree reference's, or the keyword's segment parts chained. Segment
    /// parts are id-disjoint and time-ordered (the engine's tail-append
    /// invariant), so a seek touches at most one. `None` when the keyword
    /// has no postings.
    fn cursor(&self, keyword: &str) -> Option<Box<dyn PostingCursor>> {
        let (s, slot) = match &self.source {
            Source::Reference(index, slot) => {
                let cursor = index.cursor(self.env, keyword, slot.clone())?;
                return (!cursor.is_empty()).then(|| Box::new(cursor) as Box<dyn PostingCursor>);
            }
            Source::Segments(s, slot) => (s, slot),
        };
        let mut parts: Vec<(&Dewey, Box<dyn PostingCursor>)> = Vec::new();
        for r in &s.sealed {
            // The skip table carries each keyword's minimum, so sealed
            // parts cost no I/O to tag.
            if let (Some(min), Some(cursor)) =
                (r.min_dewey(keyword), r.stream_list(keyword, slot.clone()))
            {
                parts.push((min, Box::new(cursor)));
            }
        }
        if let Some(l) = s.mem.list(keyword) {
            if let Some(min) = l.first() {
                parts.push((min, Box::new(MemList::shared(Arc::clone(l)))));
            }
        }
        match parts.len() {
            0 => None,
            1 => parts.pop().map(|(_, cursor)| cursor),
            _ => {
                let parts = parts.into_iter().map(|(min, c)| (min.clone(), c)).collect();
                Some(Box::new(ChainedCursor::new(parts)))
            }
        }
    }

    /// [`ReadView::cursor`] for each keyword [`ReadView::prepare`] returned.
    fn cursors(&self, keywords: &[String]) -> Vec<Box<dyn PostingCursor>> {
        keywords
            .iter()
            // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in this view's source")
            .map(|k| self.cursor(k).expect("keyword verified present"))
            .collect()
    }

    /// Ends the read. The cursor is infallible, so cursors report
    /// failures out of band, into the source's slot; a filled slot means
    /// the run produced a truncated (wrong) answer and must error out
    /// instead.
    fn finish(self) -> Result<()> {
        let failed = match self.source {
            Source::Reference(_, slot) => slot.take().map(EngineError::from),
            Source::Segments(_, slot) => slot.take().map(EngineError::Segment),
        };
        failed.map_or(Ok(()), Err)
    }
}

impl Engine {
    /// Every keyword with its frequency, in keyword order, from whichever
    /// layout holds the postings (tools: `xksearch stats`).
    pub fn vocabulary(&self) -> Vec<(String, u64)> {
        let view = self.read_view();
        let mut freq: BTreeMap<&str, u64> = BTreeMap::new();
        match &view.source {
            Source::Reference(index, _) => freq.extend(index.keywords()),
            Source::Segments(s, _) => {
                for (k, f) in s.sealed.iter().flat_map(|r| r.keywords()).chain(s.mem.keywords()) {
                    *freq.entry(k).or_default() += f;
                }
            }
        }
        freq.into_iter().map(|(k, f)| (k.to_string(), f)).collect()
    }

    /// Drains `keyword`'s full posting chain (the B+tree list, or the
    /// sealed segments then the mem segment) through the exact cursor
    /// the algorithms consume. `Ok(None)` when the keyword is absent.
    /// The differential tests compare this across layouts element for
    /// element.
    pub fn posting_dump(&self, keyword: &str) -> Result<Option<Vec<Dewey>>> {
        let Some(k) = normalize_keyword(keyword) else { return Ok(None) };
        let view = self.read_view();
        let Some(mut stream) = view.cursor(&k) else { return Ok(None) };
        let out = std::iter::from_fn(|| stream.next_node()).collect();
        view.finish()?;
        Ok(Some(out))
    }

    /// One `rm`/`lm` probe pair at `at` against `keyword`'s cursor —
    /// one seek, as Indexed Lookup Eager makes it — the seeking
    /// counterpart of [`Engine::posting_dump`]. `Ok(None)` when the
    /// keyword is absent.
    pub fn posting_probe(
        &self,
        keyword: &str,
        at: &Dewey,
    ) -> Result<Option<(Option<Dewey>, Option<Dewey>)>> {
        let Some(k) = normalize_keyword(keyword) else { return Ok(None) };
        let view = self.read_view();
        let Some(mut cursor) = view.cursor(&k) else { return Ok(None) };
        cursor.seek(at.components());
        let rm = cursor.current().map(Dewey::from);
        let lm = match rm.as_ref() == Some(at) {
            true => rm.clone(),
            false => cursor.before().map(Dewey::from),
        };
        let pair = (rm, lm);
        view.finish()?;
        Ok(Some(pair))
    }

    /// Answers a keyword query with the chosen algorithm.
    ///
    /// Safe to call from several threads at once (`&self`), including
    /// concurrently with [`Engine::append_subtree`]: the query clones
    /// the published snapshot at entry and reads only that, and a
    /// storage failure errors out exactly this query. The reported
    /// [`QueryOutcome::io`] delta is exact when the engine is otherwise
    /// quiescent; concurrent queries share the global counters, so each
    /// delta then *bounds* the query's own I/O.
    // xk-analyze: root(panic_path)
    pub fn query(&self, keywords: &[&str], algorithm: Algorithm) -> Result<QueryOutcome> {
        let start = Instant::now();
        let view = self.read_view();
        let io_before = view.io_stats();
        let epoch = view.epoch();
        let Some((ordered, frequencies)) = view.prepare(keywords)? else {
            return Ok(QueryOutcome {
                slcas: Vec::new(),
                algorithm: resolve(algorithm, &[]),
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                frequencies: Vec::new(),
                stats: AlgoStats::default(),
                io: IoStats::default(),
                elapsed: start.elapsed(),
                epoch,
            });
        };
        let algorithm = resolve(algorithm, &frequencies);

        // One cursor per keyword, over the keyword's sources. IL seeks
        // the non-smallest lists once per candidate: the seeks are
        // near-sorted, so in the reference layout most resolve inside
        // the pinned B+tree leaf or a leaf-chain hop away, and segment
        // parts answer them from the skip table plus at most one checked
        // block. Scan Eager and Stack only step.
        let mut slcas = Vec::new();
        let mut cursors = view.cursors(&ordered);
        let stats = match cursors.split_first_mut() {
            // `prepare` returns at least one keyword.
            None => AlgoStats::default(),
            Some((s1, rest)) => match algorithm {
                Algorithm::IndexedLookupEager => {
                    let mut others: Vec<&mut dyn RankedList> =
                        rest.iter_mut().map(|c| c as &mut dyn RankedList).collect();
                    indexed_lookup_eager(s1, &mut others, |d| slcas.push(d))
                }
                // `resolve` maps Auto to IL or to Scan Eager, never to itself.
                Algorithm::ScanEager | Algorithm::Auto => {
                    scan_eager(s1, rest.iter_mut().collect(), |d| slcas.push(d))
                }
                Algorithm::Stack => stack_merge(cursors, |d| slcas.push(d)),
            },
        };
        let io = view.io_stats().delta_since(&io_before);
        view.finish()?;
        Ok(QueryOutcome {
            slcas,
            algorithm,
            keywords: ordered,
            frequencies,
            stats,
            io,
            elapsed: start.elapsed(),
            epoch,
        })
    }

    /// Answers an all-LCA query (Section 5, Algorithm 3). Snapshot
    /// isolated like [`Engine::query`].
    // xk-analyze: root(panic_path)
    pub fn query_all_lcas(&self, keywords: &[&str]) -> Result<LcaOutcome> {
        let start = Instant::now();
        let view = self.read_view();
        let io_before = view.io_stats();
        let epoch = view.epoch();
        let Some((ordered, _)) = view.prepare(keywords)? else {
            return Ok(LcaOutcome {
                lcas: Vec::new(),
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                stats: AlgoStats::default(),
                io: IoStats::default(),
                elapsed: start.elapsed(),
                epoch,
            });
        };
        let mut s1 = view.cursors(&ordered[..1]);
        let mut all = view.cursors(&ordered);
        let mut refs: Vec<&mut dyn RankedList> =
            all.iter_mut().map(|c| c as &mut dyn RankedList).collect();
        let mut lcas = Vec::new();
        let stats = match s1.first_mut() {
            Some(s1) => all_lcas(s1, &mut refs, |d, k| lcas.push((d, k))),
            None => AlgoStats::default(),
        };
        let io = view.io_stats().delta_since(&io_before);
        view.finish()?;
        lcas.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(LcaOutcome { lcas, keywords: ordered, stats, io, elapsed: start.elapsed(), epoch })
    }

    /// Answers a batch of keyword queries, fanning them out across
    /// `threads` worker threads (1 = run on the caller's thread).
    ///
    /// Results come back in input order, one `Result` per query: a
    /// storage failure mid-query fails exactly that query (each has its
    /// own error slot) while the rest of the batch
    /// completes normally. Workers claim queries from a shared atomic
    /// counter, so an expensive query does not stall the queue behind it.
    // xk-analyze: root(panic_path)
    pub fn query_batch(
        &self,
        queries: &[Vec<String>],
        algorithm: Algorithm,
        threads: usize,
    ) -> Vec<Result<QueryOutcome>> {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let workers = threads.clamp(1, queries.len().max(1));
        if workers == 1 {
            return queries
                .iter()
                .map(|q| {
                    let refs: Vec<&str> = q.iter().map(|s| s.as_str()).collect();
                    self.query(&refs, algorithm)
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<QueryOutcome>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(q) = queries.get(i) else { break };
                    let refs: Vec<&str> = q.iter().map(|s| s.as_str()).collect();
                    let outcome = self.query(&refs, algorithm);
                    // xk-analyze: allow(panic_path, reason = "i was bounds-checked against queries, and slots has the same length")
                    *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    // xk-analyze: allow(panic_path, reason = "the worker loop claims indices until get() fails, covering every slot")
                    .expect("every query index was claimed by a worker")
            })
            .collect()
    }
}

fn resolve(algorithm: Algorithm, frequencies: &[u64]) -> Algorithm {
    match algorithm {
        Algorithm::Auto => {
            let min = *frequencies.first().unwrap_or(&1);
            let max = *frequencies.last().unwrap_or(&1);
            // xk-analyze: allow(panic_path, reason = "divisor is clamped by .max(1)")
            if frequencies.len() >= 2 && max / min.max(1) >= AUTO_RATIO_THRESHOLD {
                Algorithm::IndexedLookupEager
            } else {
                Algorithm::ScanEager
            }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::*;
    use xk_slca::LcaKind;
    use xk_storage::EnvOptions;

    #[test]
    fn school_query_all_algorithms() {
        let e = engine();
        for algo in [
            Algorithm::Auto,
            Algorithm::IndexedLookupEager,
            Algorithm::ScanEager,
            Algorithm::Stack,
        ] {
            let out = e.query(&["John", "Ben"], algo).unwrap();
            assert_eq!(out.slcas, vec![d("0"), d("1"), d("2")], "{algo}");
            // Ben (3) is rarer than John (4): Ben must be S1.
            assert_eq!(out.keywords, vec!["ben", "john"]);
            assert_eq!(out.frequencies, vec![3, 4]);
        }
    }

    #[test]
    fn unknown_keyword_gives_empty_result() {
        let e = engine();
        let out = e.query(&["John", "zzzz"], Algorithm::Auto).unwrap();
        assert!(out.slcas.is_empty());
    }

    #[test]
    fn bad_query_is_an_error() {
        let e = engine();
        assert!(e.query(&[], Algorithm::Auto).is_err());
        assert!(e.query(&["?!"], Algorithm::Auto).is_err());
    }

    #[test]
    fn duplicate_keywords_collapse() {
        let e = engine();
        let out = e.query(&["John", "john", "JOHN"], Algorithm::Auto).unwrap();
        assert_eq!(out.keywords, vec!["john"]);
        // Single-keyword SLCA: the John nodes minus ancestors.
        assert_eq!(out.slcas.len(), 4);
    }

    #[test]
    fn auto_resolution_uses_frequency_ratio() {
        let e = engine();
        // john=4, ben=3: similar -> Scan Eager.
        let out = e.query(&["john", "ben"], Algorithm::Auto).unwrap();
        assert_eq!(out.algorithm, Algorithm::ScanEager);
    }

    #[test]
    fn auto_threshold_boundary() {
        // Build a doc where one word is exactly AUTO_RATIO_THRESHOLD times
        // more frequent than another, and one just below.
        let mut t = xk_xmltree::XmlTree::new("r");
        for i in 0..(AUTO_RATIO_THRESHOLD as usize) {
            let e = t.append_element(xk_xmltree::NodeId::ROOT, "e");
            let text = if i == 0 { "rare common nearly" } else { "common nearly" };
            t.append_text(e, text);
        }
        // "nearly" appears 16x, "common" 16x, "rare" 1x; add one element
        // without "nearly" to make its ratio 15 < threshold.
        // (Rebuild with 17 commons and 16 nearlies.)
        let e = t.append_element(xk_xmltree::NodeId::ROOT, "e");
        t.append_text(e, "common");
        let engine = Engine::build_in_memory(&t, EnvOptions::default()).unwrap();
        assert_eq!(engine.index().frequency("rare"), 1);
        assert_eq!(engine.index().frequency("common"), 17);
        assert_eq!(engine.index().frequency("nearly"), 16);
        // ratio 17 >= 16: IL.
        let out = engine.query(&["rare", "common"], Algorithm::Auto).unwrap();
        assert_eq!(out.algorithm, Algorithm::IndexedLookupEager);
        // ratio 16 >= 16: IL (boundary inclusive).
        let out = engine.query(&["rare", "nearly"], Algorithm::Auto).unwrap();
        assert_eq!(out.algorithm, Algorithm::IndexedLookupEager);
        // ratio 17/16 = 1 (integer division): Scan.
        let out = engine.query(&["nearly", "common"], Algorithm::Auto).unwrap();
        assert_eq!(out.algorithm, Algorithm::ScanEager);
        // Single keyword: Scan.
        let out = engine.query(&["common"], Algorithm::Auto).unwrap();
        assert_eq!(out.algorithm, Algorithm::ScanEager);
    }

    #[test]
    fn all_lca_query() {
        let e = engine();
        let out = e.query_all_lcas(&["John", "Ben"]).unwrap();
        let nodes: Vec<String> = out.lcas.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(nodes, vec!["/", "0", "1", "2"]);
        assert_eq!(out.lcas[0].1, LcaKind::Ancestor);
        assert_eq!(out.lcas[1].1, LcaKind::Smallest);
    }

    #[test]
    fn query_batch_matches_sequential() {
        let e = engine();
        let queries: Vec<Vec<String>> = vec![
            vec!["john".into(), "ben".into()],
            vec!["john".into()],
            vec!["ben".into(), "project".into()],
            vec!["zzzz".into()],
            vec!["john".into(), "ben".into(), "class".into()],
        ];
        let sequential = e.query_batch(&queries, Algorithm::Auto, 1);
        let parallel = e.query_batch(&queries, Algorithm::Auto, 4);
        assert_eq!(sequential.len(), parallel.len());
        for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
            let s = s.as_ref().unwrap();
            let p = p.as_ref().unwrap();
            assert_eq!(s.slcas, p.slcas, "query {i}");
            assert_eq!(s.algorithm, p.algorithm, "query {i}");
            assert_eq!(s.keywords, p.keywords, "query {i}");
        }
    }

    #[test]
    fn io_stats_are_reported() {
        let e = engine();
        e.clear_cache().unwrap();
        let cold = e.query(&["john", "ben"], Algorithm::ScanEager).unwrap();
        assert!(cold.io.disk_reads > 0, "cold run reads disk");
        let hot = e.query(&["john", "ben"], Algorithm::ScanEager).unwrap();
        assert_eq!(hot.io.disk_reads, 0, "hot run is served from the pool");
        assert_eq!(cold.slcas, hot.slcas);
    }

    #[test]
    fn bare_list_failures_reach_the_callers_slot() {
        use xk_storage::{FaultConfig, FaultPager, MemPager, StorageEnv};
        let fault = FaultPager::new(Box::new(MemPager::new(512)), FaultConfig::none());
        let probe = fault.probe();
        let env = StorageEnv::create_with_pager(Box::new(fault), 128).unwrap();
        xk_index::build_disk_index(&env, &xk_xmltree::school_example(), &Default::default())
            .unwrap();
        let e = Engine::from_env(env).unwrap();
        let slot = ErrorSlot::new();
        let mut john = e.cursor("john", slot.clone()).unwrap();
        assert!(john.rm(&d("0")).is_some() && !slot.is_poisoned());

        e.clear_cache().unwrap();
        probe.arm_read_fault();
        assert_eq!(john.rm(&d("0")), None, "the failed probe looks like 'no match'");
        let err = slot.take().expect("and the slot says why");
        assert!(matches!(err, IndexError::Storage(_)), "{err:?}");
    }

    #[test]
    fn scan_eager_reports_a_corrupt_block_only_a_later_list_streams() {
        use super::super::DurabilityOptions;
        use xk_storage::{MemPager, PageId, Pager};
        // "alpha" in every other element, "beta" in all of them: beta is
        // never S1, and Scan Eager's cursor streams it to the last
        // witness, across every one of its blocks.
        let mut t = xk_xmltree::XmlTree::new("r");
        for i in 0..400 {
            let e = t.append_element(xk_xmltree::NodeId::ROOT, "e");
            t.append_text(e, if i % 2 == 0 { "alpha beta" } else { "beta" });
        }
        let lists: BTreeMap<String, Vec<Dewey>> =
            xk_index::MemIndex::build(&t).into_sorted_lists().into_iter().collect();
        let oracle = xk_slca::brute_force_slca(&[lists["alpha"].clone(), lists["beta"].clone()]);
        assert_eq!(oracle.len(), 200);

        let (db, io) = seeded_pagers_with(&t);
        let wal = Arc::new(MemPager::new(512));
        let (e, _) =
            Engine::open_durable_with_pagers(db, wal, 128, DurabilityOptions::default(), io.clone())
                .unwrap();
        let blob = io.open(e.segment_metas()[0].seq).unwrap();
        let reader = xk_segment::SegmentReader::open(Arc::clone(&blob), None).unwrap();
        let mut beta_only = 0;
        for b in 1..=reader.header().data_blocks {
            let mut clean = vec![0u8; blob.page_size()];
            blob.read_page(PageId(b), &mut clean).unwrap();
            let mut bad = clean.clone();
            bad[0] ^= 0x40; // the stored CRC
            blob.write_page(PageId(b), &bad).unwrap();
            if reader.postings("alpha").is_ok() && reader.postings("beta").is_err() {
                beta_only += 1;
                let err = e.query(&["alpha", "beta"], Algorithm::ScanEager).unwrap_err();
                assert!(
                    matches!(err, EngineError::Segment(SegmentError::Corrupt(_))),
                    "block {b}: {err:?}"
                );
            }
            blob.write_page(PageId(b), &clean).unwrap();
            let out = e.query(&["alpha", "beta"], Algorithm::ScanEager).unwrap();
            assert_eq!(out.keywords, ["alpha", "beta"]);
            assert_eq!(out.slcas, oracle, "clean re-query after block {b}");
        }
        assert!(beta_only >= 2, "beta spans several blocks of its own ({beta_only})");
    }

    #[test]
    fn segmented_build_answers_like_btree() {
        let b = engine();
        let s = seg_engine();
        assert!(s.segments_enabled() && !b.segments_enabled());
        assert_eq!(s.segment_metas().len(), 1, "build seals one segment");
        for algo in [
            Algorithm::Auto,
            Algorithm::IndexedLookupEager,
            Algorithm::ScanEager,
            Algorithm::Stack,
        ] {
            let want = b.query(&["John", "Ben"], algo).unwrap();
            let got = s.query(&["John", "Ben"], algo).unwrap();
            assert_eq!(got.slcas, want.slcas, "{algo}");
            assert_eq!(got.keywords, want.keywords, "{algo}");
            assert_eq!(got.frequencies, want.frequencies, "{algo}");
        }
        let want = b.query_all_lcas(&["John", "Ben"]).unwrap();
        let got = s.query_all_lcas(&["John", "Ben"]).unwrap();
        assert_eq!(got.lcas, want.lcas);
    }
}
