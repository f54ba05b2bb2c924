//! The write side: [`Engine::append_subtree`] and the one posting-write
//! path behind it (journal → mem segment → sealed blob), plus the
//! publish / abort steps compaction shares.

use super::{
    install_manifest, lock, seal_and_open, AppendOutcome, CommitMode, Engine, SegSnapshot,
    SegState, SegWriter, StoredDocument,
};
use crate::error::{EngineError, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xk_index::{append_fragment, document_node, document_spine, graft, Refusal, Spine};
use xk_segment::{encode_journal_record, MemView, SealedMeta, SegExt, SegmentReader};
use xk_storage::{free_list, ListAppender, ListHandle, ListWriter};
use xk_xmltree::{Dewey, NodeId};

/// What the writer computed for the segment store during one append,
/// published only after the commit record makes the append real (and
/// says at which epoch): the next writer state and the next snapshot's
/// contents.
struct SegUpdate {
    writer: SegWriter,
    metas: Vec<SealedMeta>,
    sealed: Vec<Arc<SegmentReader>>,
    mem: MemView,
}

impl Engine {
    /// Appends an XML fragment as the new last child of `parent` and
    /// indexes it incrementally — the log-structured growth model of a
    /// bibliography (new papers arrive at the end). The new postings go
    /// to the segment store (journal → mem segment → sealed blob), the
    /// only layout that accepts writes: an engine over the read-only
    /// reference layout returns [`EngineError::ReadOnlyLayout`] without
    /// touching a page.
    ///
    /// An append costs O(fragment), however large the document: the
    /// fragment is logged as one record at the tail of the stored
    /// document's chain (`xk_index::append_fragment`), its postings are
    /// computed from the parsed fragment alone, and the only document
    /// state consulted is the resident rightmost path
    /// (`xk_index::Spine`), streamed from the chain on the first append.
    /// The document is never decoded whole on this path.
    ///
    /// The append is **atomic**: it runs as a storage transaction whose
    /// touched pages are undo-logged (and, on a durable engine,
    /// WAL-logged before the commit record). Any failure — codec error,
    /// I/O fault mid-way — aborts the transaction and restores every
    /// page, so concurrent and subsequent queries behave as if the
    /// append never started. Queries running concurrently read the
    /// snapshot they cloned and are never blocked or torn by the append.
    ///
    /// Constraints:
    ///
    /// * `parent` must be an element on the document's **rightmost
    ///   root-to-leaf path**, so every new node follows every indexed
    ///   node in document order (each keyword's segment parts stay
    ///   id-disjoint and time-ordered);
    /// * the index must embed its document (`store_document = true`);
    /// * every posting of the fragment must fit a sealed blob
    ///   ([`xk_segment::unsealable`]) and one journal record
    ///   ([`ListWriter::max_record`]), else [`EngineError::BadQuery`].
    ///
    /// On a durable engine the call returns once the commit record is
    /// fsynced (inline under [`CommitMode::SyncEachCommit`], by the
    /// group committer, woken at commit, otherwise). The durability wait
    /// happens *outside* the writer lock, which is what lets several
    /// appenders' commit records share one fsync.
    // xk-analyze: root(durability_order)
    pub fn append_subtree(&self, parent: &Dewey, fragment_xml: &str) -> Result<AppendOutcome> {
        let Some(seg) = self.segments.as_ref() else {
            return Err(EngineError::ReadOnlyLayout);
        };
        let mut writer = lock(&seg.writer);
        let mut stored = lock(&self.document);
        let chain = stored.handle.ok_or(EngineError::NoDocument)?;

        // Validate everything before touching the disk.
        let ordinal = self.graft_ordinal(&mut stored, chain, parent)?;
        let fragment = xk_xmltree::parse(fragment_xml)?;
        let root = parent.child(ordinal);
        let added: Vec<(Dewey, Vec<String>)> = fragment
            .preorder()
            .map(|n| {
                let mut dewey = root.components().to_vec();
                dewey.extend_from_slice(fragment.dewey(n).components());
                (Dewey::from_components(dewey), xk_index::node_tokens(&fragment, n))
            })
            .collect();
        // A posting no blob could hold would be journaled now and then
        // fail every later seal, and one no journal page could hold would
        // fail inside the transaction: refuse the fragment instead.
        let block_size = seg.io.block_size();
        let tokened = || added.iter().filter(|(_, tokens)| !tokens.is_empty());
        let unsealable =
            tokened().find_map(|(d, _)| Some((d, xk_segment::unsealable(d, block_size)?)));
        if let Some((dewey, why)) = unsealable {
            return Err(EngineError::BadQuery(format!("fragment node {dewey} {why}")));
        }
        let max_record = ListWriter::max_record(&self.env);
        let fits =
            |kw: &str, d: &Dewey| encode_journal_record(kw, d).is_ok_and(|r| r.len() <= max_record);
        let unjournalable = tokened()
            .find_map(|(d, tokens)| tokens.iter().find(|kw| !fits(kw, d)).map(|kw| (d, kw)));
        if let Some((dewey, kw)) = unjournalable {
            return Err(EngineError::BadQuery(format!(
                "fragment node {dewey}: its posting for a {}-byte keyword overflows a \
                 {max_record}-byte journal record",
                kw.len()
            )));
        }

        // Nothing the transaction writes is visible to queries — they
        // read only the published snapshot — until the publish after
        // commit, and the resident spine and tree move only then too.
        self.env.begin_txn()?;
        // A blob finalized during this attempt; if the transaction ends
        // up aborting, it is deleted below rather than lingering as an
        // orphan until the next open.
        let mut orphan: Option<u64> = None;
        let applied = (|| -> Result<(Vec<String>, SegUpdate, ListHandle)> {
            let (touched, update) = self.seg_apply(seg, &writer, &added, &mut orphan)?;
            // Log the fragment at the document chain's tail, and record
            // both moved pointers in one meta write.
            let chain = append_fragment(&self.env, chain, parent, &fragment)?;
            self.index.write_meta(&self.env, Some(chain), &update.writer.ext.encode())?;
            Ok((touched, update, chain))
        })();
        // A WAL append failure leaves the transaction open by contract,
        // so a failed commit rolls back exactly like a failed apply.
        let committed = applied.and_then(|v| Ok((v, self.env.commit_txn()?)));
        let ((touched, update, chain), commit) = match committed {
            Ok(v) => v,
            Err(e) => {
                // The undo log restores the chain's tail; the handle,
                // spine and tree were never touched.
                self.abort(seg, orphan)?;
                return Err(e);
            }
        };
        stored.handle = Some(chain);
        if let Some(spine) = &mut stored.spine {
            spine.graft(parent.depth(), &Spine::of(&fragment));
        }
        if let Some(tree) = &mut stored.tree {
            // A render loaded the whole tree: keep it current.
            if let Some(node) = tree.node_at(parent) {
                graft(tree, node, &fragment, NodeId::ROOT);
            }
        }
        let SegUpdate { writer: next, metas, sealed, mem } = update;
        self.publish(seg, SegSnapshot { epoch: commit.epoch, metas, sealed, mem });
        *writer = next;
        // Counted, until this returns, by any checkpoint that follows.
        let _ack = self.ack_pending();
        drop(stored);
        drop(writer);

        // Outside the writer lock: appends that commit while we wait
        // share the next fsync (group commit).
        self.wait_durable(commit.lsn)?;
        Ok(AppendOutcome { root, epoch: commit.epoch, touched })
    }

    /// The ordinal a new last child of `parent` gets, read off the
    /// resident spine — streamed from the committed `chain` on first use,
    /// never a full decode. A refused `parent` is a
    /// [`EngineError::BadQuery`] saying what is there instead.
    fn graft_ordinal(
        &self,
        stored: &mut StoredDocument,
        chain: ListHandle,
        parent: &Dewey,
    ) -> Result<u32> {
        let spine = match &mut stored.spine {
            Some(spine) => spine,
            empty => empty.insert(document_spine(&self.env, &chain)?),
        };
        let is_element = match spine.child_ordinal(parent.components()) {
            Ok(ordinal) => return Ok(ordinal),
            Err(Refusal::NoNode) => None,
            Err(Refusal::TextNode) => Some(false),
            // Off the path the spine cannot say what the node is; the
            // document can (rejections only, so a walk is affordable).
            Err(Refusal::OffPath) => match &stored.tree {
                Some(tree) => tree.node_at(parent).map(|n| tree.content(n).is_element()),
                None => document_node(&self.env, &chain, parent)?,
            },
        };
        Err(EngineError::BadQuery(match is_element {
            None => format!("no node at {parent}"),
            Some(false) => format!("cannot append under the text node at {parent}"),
            Some(true) => format!(
                "{parent} is not on the document's rightmost path; \
                 incremental ingestion only supports appends at the tail"
            ),
        }))
    }

    /// Makes a committed transaction visible: one store. The snapshot
    /// is everything queries read, and it carries its own epoch, so an
    /// answer and the epoch it reports always come from the same place.
    pub(super) fn publish(&self, seg: &SegState, snapshot: SegSnapshot) {
        *seg.snapshot.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
    }

    /// Rolls a failed transaction back: the undo log restores every
    /// touched page, and a blob finalized during the attempt — it is
    /// unreferenced by any committed manifest — is deleted rather than
    /// left to linger until the next open's orphan sweep.
    pub(super) fn abort(&self, seg: &SegState, orphan: Option<u64>) -> Result<()> {
        self.env.abort_txn()?;
        if let Some(seq) = orphan {
            // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; the next open retries it")
            let _ = seg.io.delete(seq);
        }
        Ok(())
    }

    /// Applies one append batch to the segment store — the engine's one
    /// posting-write path. The postings are absorbed into a copy of
    /// the mem segment and journaled; past the seal threshold the grown
    /// mem segment is instead sealed into the next packed blob and the
    /// manifest rewritten. All storage writes run inside the caller's
    /// open transaction; the blob itself is fully written, fsynced, and
    /// renamed *before* the commit record (the crash discipline: a crash
    /// pre-commit leaves an orphan blob, never a committed manifest
    /// pointing at a missing blob). `orphan` reports a finalized blob so
    /// the caller can delete it if the transaction aborts after all.
    ///
    /// Returns the touched keywords (first-touch order) and the segment
    /// state to publish once the commit record makes the append real.
    fn seg_apply(
        &self,
        seg: &SegState,
        writer: &SegWriter,
        added: &[(Dewey, Vec<String>)],
        orphan: &mut Option<u64>,
    ) -> Result<(Vec<String>, SegUpdate)> {
        let ext0 = writer.ext;
        let snap0 = seg.snapshot();
        let mut mem = writer.mem.clone();
        let mut touched: Vec<String> = Vec::new();
        let mut records: Vec<(String, Dewey)> = Vec::new();
        for (dewey, tokens) in added {
            for tok in tokens {
                if !touched.iter().any(|t| t == tok) {
                    touched.push(tok.clone());
                }
                mem.absorb(tok, dewey.clone());
                records.push((tok.clone(), dewey.clone()));
            }
        }
        let threshold = seg.seal_threshold.load(Ordering::Relaxed);
        let mut metas = snap0.metas.clone();
        let mut sealed = snap0.sealed.clone();
        let (ext1, view) = if mem.posting_count() > 0 && mem.posting_count() >= threshold {
            // Seal: the whole mem segment becomes the next packed blob,
            // which also supersedes the journal that backed it.
            let seq = ext0.next_seq;
            let (meta, reader) =
                seal_and_open(seg.io.as_ref(), seq, self.env.current_epoch(), mem.lists())?;
            *orphan = Some(seq);
            metas.push(meta);
            sealed.push(reader);
            let mut ext1 = install_manifest(&self.env, &ext0, &metas)?;
            if let Some(journal) = ext1.journal.take() {
                free_list(&self.env, &journal)?;
            }
            mem.clear();
            (ext1, MemView::empty())
        } else {
            // Journal: extend (or start) the posting journal so a
            // reopen can rebuild the mem segment.
            let e = &*self.env;
            let journal = match ext0.journal {
                Some(h) => {
                    let mut a = ListAppender::open(e, h)?;
                    for (kw, d) in &records {
                        a.append(e, &encode_journal_record(kw, d)?)?;
                    }
                    a.finish()
                }
                None => {
                    let mut w = ListWriter::new(e);
                    for (kw, d) in &records {
                        w.append(e, &encode_journal_record(kw, d)?)?;
                    }
                    w.finish(e)?
                }
            };
            (SegExt { journal: Some(journal), ..ext0 }, snap0.mem.advanced(&mem, &touched))
        };
        let writer = SegWriter { ext: ext1, mem };
        Ok((touched, SegUpdate { writer, metas, sealed, mem: view }))
    }

    /// Blocks until the commit record at `lsn` is on stable storage:
    /// an inline fsync under [`CommitMode::SyncEachCommit`]; under
    /// [`CommitMode::GroupCommit`] the committer's next sync, which this
    /// wakes instead of waiting out its flush interval (commits that land
    /// while that fsync runs share the one after it). Immediate without
    /// a WAL.
    pub(super) fn wait_durable(&self, lsn: u64) -> Result<()> {
        let Some(ctl) = self.durability.as_ref() else {
            return Ok(());
        };
        match ctl.mode {
            CommitMode::SyncEachCommit => {
                self.env.sync_wal()?;
            }
            CommitMode::GroupCommit => {
                if let Some(committer) = &ctl.committer {
                    committer.thread().unpark();
                }
                self.env.wait_wal_durable(lsn)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{Algorithm, DurabilityOptions};
    use super::*;
    use std::time::Duration;
    use xk_segment::{MemSegmentIo, SegmentIo};
    use xk_storage::{EnvOptions, Pager, StorageEnv};
    use xk_xmltree::{school_example, NodeId};

    #[test]
    fn append_subtree_is_searchable_with_every_algorithm() {
        let e = seg_engine();
        // A new class at the document tail where John and Ben meet again.
        let outcome = e
            .append_subtree(
                &Dewey::root(),
                "<class><title>CS4A</title><lecturer><name>Ben</name></lecturer>\
                 <TA><name>John</name></TA></class>",
            )
            .unwrap();
        assert_eq!(outcome.root, d("4"));
        // The touched-keyword report names exactly the new content (for
        // scoped cache invalidation).
        assert!(outcome.touched.iter().any(|k| k == "john"), "{:?}", outcome.touched);
        assert!(outcome.touched.iter().any(|k| k == "cs4a"), "{:?}", outcome.touched);
        assert!(!outcome.touched.iter().any(|k| k == "project"), "{:?}", outcome.touched);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = e.query(&["John", "Ben"], algo).unwrap();
            assert_eq!(
                out.slcas,
                vec![d("0"), d("1"), d("2"), d("4")],
                "algorithm {algo}"
            );
            // Queries after the append observe its epoch.
            assert!(out.epoch >= outcome.epoch, "epoch moved with the commit");
        }
        // Rendering sees the refreshed document.
        let xml = e.render_subtree(&d("4")).unwrap();
        assert!(xml.contains("CS4A"), "{xml}");
        // Frequencies moved.
        let hit = e.query(&["john", "cs4a"], Algorithm::Auto).unwrap();
        assert_eq!(hit.keywords, vec!["cs4a", "john"]);
        assert_eq!(hit.frequencies, vec![1, 5]);
    }

    #[test]
    fn append_deeper_on_rightmost_path() {
        let e = seg_engine();
        // The rightmost path runs through the last class (Dewey 3); its
        // lecturer element is NOT on it, but class 3 itself is.
        let added = e
            .append_subtree(&d("3"), "<students><student><name>Ben</name></student></students>")
            .unwrap();
        assert_eq!(added.root, d("3.2"));
        let out = e.query(&["John", "Ben"], Algorithm::Stack).unwrap();
        assert!(out.slcas.contains(&d("3")), "{:?}", out.slcas);
    }

    #[test]
    fn append_rejects_non_tail_positions() {
        let e = seg_engine();
        // Class 0 is not on the rightmost path.
        let err = e.append_subtree(&d("0"), "<x>y</x>").unwrap_err();
        assert!(err.to_string().contains("rightmost"), "{err}");
        // Text nodes cannot take children.
        let err = e.append_subtree(&d("3.0.0"), "<x>y</x>").unwrap_err();
        assert!(err.to_string().contains("text node"), "{err}");
        // Unknown positions are rejected.
        assert!(e.append_subtree(&d("9.9"), "<x/>").is_err());
        // Malformed fragments are rejected.
        assert!(e.append_subtree(&Dewey::root(), "<broken>").is_err());
        // And none of those attempts disturbed the index.
        let out = e.query(&["John", "Ben"], Algorithm::Auto).unwrap();
        assert_eq!(out.slcas.len(), 3);
    }

    #[test]
    fn epochs_advance_with_commits() {
        let e = seg_engine();
        let before = e.query(&["john"], Algorithm::Auto).unwrap().epoch;
        let out = e.append_subtree(&Dewey::root(), "<memo>john</memo>").unwrap();
        assert!(out.epoch > before, "commit publishes a later epoch");
        let after = e.query(&["john"], Algorithm::Auto).unwrap().epoch;
        assert_eq!(after, out.epoch, "queries pin the latest committed epoch");
    }

    #[test]
    fn queries_run_concurrently_with_appends() {
        let e = seg_engine();
        std::thread::scope(|s| {
            let eng = &e;
            s.spawn(move || {
                for i in 0..8 {
                    eng.append_subtree(
                        &Dewey::root(),
                        &format!("<p>John Ben w{i}</p>"),
                    )
                    .unwrap();
                }
            });
            for _ in 0..50 {
                let out = eng.query(&["John", "Ben"], Algorithm::Stack).unwrap();
                // Every observed state is a committed prefix: the base 3
                // answers plus one per fully applied append — a torn read
                // would surface as a partial count or unsorted output.
                assert!(
                    (3..=3 + 8).contains(&out.slcas.len()),
                    "torn read: {:?}",
                    out.slcas
                );
                let mut sorted = out.slcas.clone();
                sorted.sort();
                assert_eq!(out.slcas, sorted);
            }
        });
        let final_out = e.query(&["John", "Ben"], Algorithm::Auto).unwrap();
        assert_eq!(final_out.slcas.len(), 3 + 8);
    }

    #[test]
    fn durable_append_survives_a_crash() {
        use xk_storage::MemPager;
        let (db, io) = seeded_pagers();
        let wal: Arc<MemPager> = Arc::new(MemPager::new(512));
        let durability = DurabilityOptions {
            mode: CommitMode::SyncEachCommit,
            ..DurabilityOptions::default()
        };
        let (engine, report) = Engine::open_durable_with_pagers(
            Arc::clone(&db),
            Arc::clone(&wal) as Arc<dyn Pager>,
            128,
            durability.clone(),
            Arc::clone(&io),
        )
        .unwrap();
        assert!(!report.db_was_dirty);
        assert_eq!(report.replayed_txns, 0);
        let out = engine
            .append_subtree(&Dewey::root(), "<memo>phoenix rises</memo>")
            .unwrap();
        assert_eq!(out.root, d("4"));
        assert!(out.touched.iter().any(|k| k == "phoenix"));
        // Crash: the engine never checkpoints, so the db file still holds
        // the pre-append state and only the WAL carries the commit.
        std::mem::forget(engine);
        let (engine, report) =
            Engine::open_durable_with_pagers(db, wal, 128, durability, io).unwrap();
        assert!(report.db_was_dirty, "crash left the write-ahead dirty flag set");
        assert_eq!(report.replayed_txns, 1, "recovery replays the committed append");
        let hit = engine.query(&["phoenix"], Algorithm::Auto).unwrap();
        assert_eq!(hit.slcas, vec![d("4.0")], "the appended memo's text node");
    }

    #[test]
    fn a_keyword_too_long_for_a_journal_record_is_refused_before_the_write() {
        use xk_storage::MemPager;
        let long = "x".repeat(5_000);
        let doc = format!("<dblp><paper><title>alpha {long}</title></paper></dblp>");
        let (db, io) = seeded_pagers_with(&xk_xmltree::parse(&doc).unwrap());
        let wal: Arc<MemPager> = Arc::new(MemPager::new(512));
        let durability = DurabilityOptions::default();
        let open = |durability| {
            Engine::open_durable_with_pagers(
                Arc::clone(&db),
                Arc::clone(&wal) as Arc<dyn Pager>,
                128,
                durability,
                Arc::clone(&io),
            )
            .unwrap()
            .0
        };
        let engine = open(durability.clone());
        let fragment = format!("<paper><title>alpha {long}</title></paper>");
        match engine.append_subtree(&Dewey::root(), &fragment) {
            Err(EngineError::BadQuery(m)) => assert!(m.contains("journal record"), "{m}"),
            other => panic!("expected BadQuery, got {other:?}"),
        }
        // The refusal left no transaction open: the next append commits.
        let beta = engine.append_subtree(&Dewey::root(), "<paper><title>beta</title></paper>");
        let beta = beta.unwrap().root;
        drop(engine);
        let engine = open(durability);
        let hit = engine.query(&[&long], Algorithm::Auto).unwrap();
        assert_eq!(hit.slcas, vec![d("0.0.0")], "the build's token, and only it");
        let hit = engine.query(&["beta"], Algorithm::Auto).unwrap();
        assert_eq!(hit.slcas, vec![beta.child(0).child(0)], "the append after the refusal");
    }

    #[test]
    fn group_commit_batches_are_durable() {
        use xk_storage::MemPager;
        let (db, io) = seeded_pagers();
        let wal: Arc<MemPager> = Arc::new(MemPager::new(512));
        let durability = DurabilityOptions {
            mode: CommitMode::GroupCommit,
            flush_interval: Duration::from_millis(1),
            ..DurabilityOptions::default()
        };
        let (engine, _) = Engine::open_durable_with_pagers(
            Arc::clone(&db),
            Arc::clone(&wal) as Arc<dyn Pager>,
            128,
            durability.clone(),
            Arc::clone(&io),
        )
        .unwrap();
        for i in 0..4 {
            engine
                .append_subtree(&Dewey::root(), &format!("<memo>batch b{i}</memo>"))
                .unwrap();
        }
        let commits = engine.with_env(|e| e.wal_commit_count());
        assert_eq!(commits, 4, "every append wrote a commit record");
        // Stop the committer thread by hand, then forget the engine so
        // its checkpoint-on-drop never runs — a crash with a synced WAL.
        let mut engine = engine;
        if let Some(ctl) = engine.durability.as_mut() {
            ctl.stop.store(true, Ordering::Release);
            if let Some(h) = ctl.committer.take() {
                h.thread().unpark();
                h.join().unwrap();
            }
        }
        std::mem::forget(engine);
        let (engine, report) =
            Engine::open_durable_with_pagers(db, wal, 128, durability, io).unwrap();
        assert_eq!(report.replayed_txns, 4, "all acknowledged appends recover");
        let hit = engine.query(&["batch"], Algorithm::Auto).unwrap();
        assert_eq!(hit.slcas.len(), 4);
    }

    #[test]
    fn segmented_appends_journal_then_seal() {
        let e = seg_engine();
        // High threshold: appends stay in the journaled mem segment.
        for i in 0..3 {
            let out = e
                .append_subtree(&Dewey::root(), &format!("<p>John Ben extra{i}</p>"))
                .unwrap();
            assert!(out.touched.iter().any(|k| k == "john"), "{:?}", out.touched);
        }
        assert_eq!(e.segment_metas().len(), 1, "below threshold: no new seal");
        let out = e.query(&["John", "Ben"], Algorithm::Auto).unwrap();
        assert_eq!(out.slcas.len(), 3 + 3);
        // Drop the threshold: the next append seals mem + journal.
        e.set_seal_threshold(1);
        e.append_subtree(&Dewey::root(), "<p>John Ben last</p>").unwrap();
        assert_eq!(e.segment_metas().len(), 2, "threshold crossed: sealed");
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = e.query(&["John", "Ben"], algo).unwrap();
            assert_eq!(out.slcas.len(), 3 + 4, "{algo}");
            let mut sorted = out.slcas.clone();
            sorted.sort();
            assert_eq!(out.slcas, sorted, "{algo}");
        }
    }

    /// `depth` nested elements around `word`.
    fn nest(depth: usize, word: &str) -> String {
        format!("{}{word}{}", "<n>".repeat(depth), "</n>".repeat(depth))
    }

    #[test]
    fn postings_deeper_than_a_byte_build_journal_and_seal() {
        let dir = std::env::temp_dir().join(format!("xk-seg-deep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let opts = EnvOptions { page_size: 4096, pool_pages: 64 };
        let tree = xk_xmltree::parse(&nest(300, "abyss")).unwrap();
        let e = Engine::build_segmented(&tree, dir.join("deep.db"), opts, true).unwrap();
        // A 300-deep fragment is journaled, then sealed with the next append.
        e.set_seal_threshold(u64::MAX);
        assert_eq!(e.append_subtree(&Dewey::root(), &nest(300, "trench")).unwrap().root, d("1"));
        e.set_seal_threshold(1);
        e.append_subtree(&Dewey::root(), "<memo>crest</memo>").unwrap();
        assert_eq!(e.segment_metas().len(), 2, "the threshold seal went through");
        for (kw, depth) in [("abyss", 300), ("trench", 301), ("crest", 2)] {
            for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
                let out = e.query(&[kw], algo).unwrap();
                assert_eq!(out.slcas.len(), 1, "{kw} {algo}");
                assert_eq!(out.slcas[0].depth(), depth, "{kw} {algo}");
            }
        }
        let report = e.verify_segments().unwrap().unwrap();
        assert!(report.clean(), "{:?}", report.issues);
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_fragment_no_blob_could_hold_is_refused_before_it_is_journaled() {
        let e = seg_engine();
        e.set_seal_threshold(u64::MAX);
        // 600 levels need more than a 512-byte block holds.
        let err = e.append_subtree(&Dewey::root(), &nest(600, "sunk")).unwrap_err();
        assert!(matches!(err, EngineError::BadQuery(_)), "{err}");
        assert!(err.to_string().contains("exceeding the"), "{err}");
        // Nothing was journaled, so the store still seals.
        e.set_seal_threshold(1);
        e.append_subtree(&Dewey::root(), "<memo>afloat</memo>").unwrap();
        assert_eq!(e.segment_metas().len(), 2);
        assert_eq!(e.query(&["afloat"], Algorithm::Auto).unwrap().slcas, vec![d("4.0")]);
    }

    #[test]
    fn segmented_store_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("xk-seg-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.db");
        let opts = EnvOptions { page_size: 512, pool_pages: 64 };
        {
            let e = Engine::build_segmented(&school_example(), &path, opts.clone(), true).unwrap();
            // Default threshold: both appends stay in the journal.
            e.append_subtree(&Dewey::root(), "<memo>John alpha</memo>").unwrap();
            e.append_subtree(&Dewey::root(), "<memo>Ben beta</memo>").unwrap();
            // Crossing the threshold seals mem + journal into segment 2...
            e.set_seal_threshold(1);
            e.append_subtree(&Dewey::root(), "<memo>delta sealed</memo>").unwrap();
            // ...and with the threshold raised again the last append is
            // journaled on top of the sealed pair.
            e.set_seal_threshold(u64::MAX);
            e.append_subtree(&Dewey::root(), "<memo>gamma journaled</memo>").unwrap();
            assert_eq!(e.segment_metas().len(), 2);
            e.with_env(|env| env.flush()).unwrap();
        }
        {
            let e = Engine::open(&path, opts).unwrap();
            assert!(e.segments_enabled());
            assert_eq!(e.segment_metas().len(), 2, "build seal + threshold seal");
            for (kw, n) in [("alpha", 1), ("beta", 1), ("delta", 1), ("gamma", 1), ("john", 5)] {
                let out = e.query(&[kw], Algorithm::Auto).unwrap();
                assert_eq!(out.slcas.len(), n, "{kw}");
            }
            // The stored document grew with the index.
            let out = e.query(&["gamma"], Algorithm::Auto).unwrap();
            assert!(e.render_subtree(&out.slcas[0]).unwrap().contains("journaled"));
            let report = e.verify_segments().unwrap().unwrap();
            assert!(report.clean(), "{:?}", report.issues);
            assert!(report.journal_postings > 0, "journaled tail was replayed");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segmented_failed_seal_aborts_cleanly() {
        use xk_segment::FaultSegmentIo;
        let opts = EnvOptions { page_size: 512, pool_pages: 256 };
        let env = StorageEnv::in_memory(opts);
        let mem_io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
        Engine::build_segment_store_with(&env, &school_example(), mem_io.as_ref(), true)
            .unwrap();
        let fault = Arc::new(FaultSegmentIo::new(mem_io));
        let e = Engine::from_parts(env, None, Some(Arc::clone(&fault) as Arc<dyn SegmentIo>))
            .unwrap();
        e.set_seal_threshold(1); // every append tries to seal
        e.append_subtree(&Dewey::root(), "<p>John warm</p>").unwrap();
        assert_eq!(e.segment_metas().len(), 2);

        // Fail the very next blob op (the seal's create): the append must
        // abort and leave the committed store untouched.
        fault.reset();
        fault.arm(0, false);
        let err = e.append_subtree(&Dewey::root(), "<p>John torn</p>").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        fault.reset();
        assert_eq!(e.segment_metas().len(), 2, "aborted seal published nothing");
        let out = e.query(&["John"], Algorithm::Auto).unwrap();
        assert_eq!(out.slcas.len(), 4 + 1, "the failed append is invisible");
        let report = e.verify_segments().unwrap().unwrap();
        assert!(report.clean(), "{:?}", report.issues);

        // With the fault disarmed the engine keeps working.
        e.append_subtree(&Dewey::root(), "<p>John healed</p>").unwrap();
        assert_eq!(e.segment_metas().len(), 3);
        let out = e.query(&["John"], Algorithm::Auto).unwrap();
        assert_eq!(out.slcas.len(), 4 + 2);
    }

    #[test]
    fn group_commit_wakes_the_committer_instead_of_waiting_out_its_interval() {
        use xk_storage::MemPager;
        let (db, io) = seeded_pagers();
        let wal: Arc<MemPager> = Arc::new(MemPager::new(512));
        let durability = DurabilityOptions {
            mode: CommitMode::GroupCommit,
            flush_interval: Duration::from_secs(10),
            ..DurabilityOptions::default()
        };
        let (engine, _) = Engine::open_durable_with_pagers(
            Arc::clone(&db),
            Arc::clone(&wal) as Arc<dyn Pager>,
            128,
            durability.clone(),
            Arc::clone(&io),
        )
        .unwrap();
        let started = std::time::Instant::now();
        engine.append_subtree(&Dewey::root(), "<memo>prompt reply</memo>").unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(500), "acknowledged after {took:?}");
        // Crash with the committer stopped by hand, as in
        // `group_commit_batches_are_durable`.
        let mut engine = engine;
        if let Some(ctl) = engine.durability.as_mut() {
            ctl.stop.store(true, Ordering::Release);
            if let Some(h) = ctl.committer.take() {
                h.thread().unpark();
                h.join().unwrap();
            }
        }
        std::mem::forget(engine);
        let (engine, report) =
            Engine::open_durable_with_pagers(db, wal, 128, durability, io).unwrap();
        assert_eq!(report.replayed_txns, 1, "the acknowledged append was durable");
        let hit = engine.query(&["prompt"], Algorithm::Auto).unwrap();
        assert_eq!(hit.slcas, vec![d("4.0")]);
    }

    /// Whether the engine holds a decoded tree, and its resident spine.
    fn resident(e: &Engine) -> (bool, Option<Spine>) {
        let stored = lock(&e.document);
        (stored.tree.is_some(), stored.spine.clone())
    }

    #[test]
    fn appends_and_reopens_never_decode_the_whole_document() {
        use xk_storage::MemPager;
        let (db, io) = seeded_pagers();
        let wal: Arc<MemPager> = Arc::new(MemPager::new(512));
        let durability =
            DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() };
        let open = || {
            Engine::open_durable_with_pagers(
                Arc::clone(&db),
                Arc::clone(&wal) as Arc<dyn Pager>,
                128,
                durability.clone(),
                Arc::clone(&io),
            )
            .unwrap()
            .0
        };
        let e = open();
        assert_eq!(resident(&e), (false, None), "open derives nothing from the document");
        e.append_subtree(&Dewey::root(), "<memo>one</memo>").unwrap();
        e.append_subtree(&d("4"), "<note>two</note>").unwrap();
        let mut expected = school_example();
        let memo = expected.append_element(NodeId::ROOT, "memo");
        expected.append_text(memo, "one");
        let note = expected.append_element(memo, "note");
        expected.append_text(note, "two");
        assert_eq!(resident(&e), (false, Some(Spine::of(&expected))));

        // Crash and recover: still nothing decoded, before and after an append.
        std::mem::forget(e);
        let e = open();
        assert_eq!(resident(&e), (false, None));
        e.append_subtree(&Dewey::root(), "<memo>three</memo>").unwrap();
        let memo = expected.append_element(NodeId::ROOT, "memo");
        expected.append_text(memo, "three");
        assert_eq!(resident(&e), (false, Some(Spine::of(&expected))));

        // A render loads the tree; appends then keep it current.
        assert!(e.render_subtree(&d("4.1")).unwrap().contains("two"));
        e.append_subtree(&d("5"), "<note>four</note>").unwrap();
        let note = expected.append_element(memo, "note");
        expected.append_text(note, "four");
        let stored = lock(&e.document);
        let tree = stored.tree.as_ref().expect("rendered");
        assert_eq!(xk_xmltree::encode_tree(tree), xk_xmltree::encode_tree(&expected));
        assert_eq!(stored.spine, Some(Spine::of(&expected)));
    }

    #[test]
    fn a_failed_append_leaves_spine_and_tree_untouched() {
        use xk_segment::FaultSegmentIo;
        let opts = EnvOptions { page_size: 512, pool_pages: 256 };
        let env = StorageEnv::in_memory(opts);
        let mem_io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
        Engine::build_segment_store_with(&env, &school_example(), mem_io.as_ref(), true)
            .unwrap();
        let fault = Arc::new(FaultSegmentIo::new(mem_io));
        let e = Engine::from_parts(env, None, Some(Arc::clone(&fault) as Arc<dyn SegmentIo>))
            .unwrap();
        e.append_subtree(&Dewey::root(), "<p>John warm</p>").unwrap();
        e.render_subtree(&Dewey::root()).unwrap();
        let before = {
            let stored = lock(&e.document);
            (stored.handle, stored.spine.clone(), stored.tree.as_ref().map(xk_xmltree::encode_tree))
        };
        e.set_seal_threshold(1);
        fault.arm(0, false);
        assert!(e.append_subtree(&Dewey::root(), "<p>John torn</p>").is_err());
        fault.reset();
        let after = {
            let stored = lock(&e.document);
            (stored.handle, stored.spine.clone(), stored.tree.as_ref().map(xk_xmltree::encode_tree))
        };
        assert_eq!(after, before);
        assert!(!e.render_subtree(&Dewey::root()).unwrap().contains("torn"));
        e.append_subtree(&Dewey::root(), "<p>John healed</p>").unwrap();
        assert!(e.render_subtree(&d("5")).unwrap().contains("healed"));
    }

    /// WAL page images of one append on a fresh store over `papers`
    /// generated papers.
    fn images_of_one_append(papers: usize) -> usize {
        use xk_storage::{MemPager, Wal};
        let tree = xk_workload::generate(&xk_workload::DblpSpec {
            papers,
            ..xk_workload::DblpSpec::default()
        });
        let (db, io) = seeded_pagers_with(&tree);
        let wal: Arc<MemPager> = Arc::new(MemPager::new(4096));
        let durability =
            DurabilityOptions { mode: CommitMode::SyncEachCommit, ..DurabilityOptions::default() };
        let (e, _) = Engine::open_durable_with_pagers(
            db,
            Arc::clone(&wal) as Arc<dyn Pager>,
            128,
            durability,
            io,
        )
        .unwrap();
        e.append_subtree(
            &Dewey::root(),
            "<article><title>keyword search smallest lca</title><author>Xu</author></article>",
        )
        .unwrap();
        let log = Wal::scan(&*wal).unwrap().expect("a log");
        assert_eq!(log.committed.len(), 1);
        log.committed[0].pages.len()
    }

    #[test]
    fn an_append_logs_the_same_pages_whatever_the_document_size() {
        let small = images_of_one_append(200);
        let large = images_of_one_append(5000);
        assert!(small.abs_diff(large) <= 1, "{small} page images at 200 papers, {large} at 5000");
    }

    // ---- the document log against grafting in memory ----

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use xk_index::MemIndex;
    use xk_xmltree::{encode_tree, XmlTree};

    const WORDS: [&str; 6] = ["apple", "pear", "fig", "kiwi", "plum", "date"];

    /// One step of the document-log differential.
    #[derive(Debug, Clone)]
    enum Step {
        /// Append fragment `kind` under the rightmost-path node `at`
        /// picks (a text node there must be refused).
        Append { at: prop::sample::Index, kind: u8, word: usize },
        /// Clean shutdown (the drop checkpoints) and reopen.
        Reopen,
        /// Kill without a checkpoint and recover from the WAL.
        Crash,
        /// Render the whole document, which makes the tree resident.
        Render,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..12, any::<prop::sample::Index>(), 0u8..5, 0usize..WORDS.len()).prop_map(
            |(op, at, kind, word)| match op {
                0..=7 => Step::Append { at, kind, word },
                8 => Step::Reopen,
                9 => Step::Crash,
                _ => Step::Render,
            },
        )
    }

    fn fragment_xml(kind: u8, word: &str) -> String {
        match kind {
            0 => format!("<{word}/>"),
            1 => format!("<p>{word} plum</p>"),
            2 => format!("<a k=\"{word}\"><b>{word}</b><c/></a>"),
            3 => format!("<big>{}</big>", format!("{word} fig ").repeat(80)), // > one page
            _ => format!("<q><r>{word}</r></q>"),
        }
    }

    /// A small random document whose rightmost path ends in two
    /// adjacent text siblings — a shape XML text cannot carry.
    fn base_tree() -> impl Strategy<Value = XmlTree> {
        let instrs = (any::<prop::sample::Index>(), any::<bool>(), 0usize..WORDS.len());
        proptest::collection::vec(instrs, 0..20).prop_map(|instrs| {
            let mut tree = XmlTree::new("root");
            let mut elements = vec![NodeId::ROOT];
            for (parent, is_text, w) in instrs {
                let parent = *parent.get(&elements);
                if is_text {
                    tree.append_text(parent, WORDS[w]);
                } else {
                    elements.push(tree.append_element(parent, WORDS[w]));
                }
            }
            let mut deepest = NodeId::ROOT;
            while let Some(&last) = tree.children(deepest).last() {
                if !tree.content(last).is_element() {
                    break;
                }
                deepest = last;
            }
            tree.append_text(deepest, "kiwi");
            tree.append_text(deepest, "plum");
            tree
        })
    }

    /// The engine's stored document, spine, resident tree and postings
    /// all equal the model's.
    fn check(e: &Engine, model: &XmlTree) -> std::result::Result<(), TestCaseError> {
        let stored = lock(&e.document);
        let chain = stored.handle.expect("a stored document");
        let logged = e.with_env(|env| xk_index::read_document(env, &chain)).unwrap();
        prop_assert_eq!(encode_tree(&logged), encode_tree(model));
        let spine = Spine::of(model);
        let streamed = e.with_env(|env| xk_index::document_spine(env, &chain)).unwrap();
        prop_assert_eq!(&streamed, &spine);
        if let Some(resident) = &stored.spine {
            prop_assert_eq!(resident, &spine);
        }
        if let Some(tree) = &stored.tree {
            prop_assert_eq!(encode_tree(tree), encode_tree(model));
        }
        drop(stored);
        let mem = MemIndex::build(model);
        let mut expected: Vec<(String, u64)> =
            mem.keywords().map(|(k, f)| (k.to_string(), f)).collect();
        expected.sort();
        prop_assert_eq!(e.vocabulary(), expected);
        for (kw, _) in e.vocabulary() {
            let got = e.posting_dump(&kw).unwrap().unwrap_or_default();
            prop_assert_eq!(got.as_slice(), mem.keyword_list(&kw).unwrap(), "postings of {}", kw);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn document_log_matches_grafting_in_memory(
            base in base_tree(),
            steps in proptest::collection::vec(step(), 1..16),
        ) {
            let (db, io) = seeded_pagers_with(&base);
            let wal: Arc<dyn Pager> = Arc::new(xk_storage::MemPager::new(512));
            let durability = DurabilityOptions {
                mode: CommitMode::SyncEachCommit,
                ..DurabilityOptions::default()
            };
            let open = || {
                let (db, wal, io) = (Arc::clone(&db), Arc::clone(&wal), Arc::clone(&io));
                Engine::open_durable_with_pagers(db, wal, 128, durability.clone(), io).unwrap().0
            };
            let mut e = open();
            let mut model = base;
            for step in steps {
                match step {
                    Step::Append { at, kind, word } => {
                        let spine = Spine::of(&model);
                        let depth = at.index(spine.nodes().len());
                        let path = spine.nodes()[..depth].iter().map(|n| n.children - 1).collect();
                        let parent = Dewey::from_components(path);
                        let xml = fragment_xml(kind, WORDS[word]);
                        let result = e.append_subtree(&parent, &xml);
                        match spine.child_ordinal(parent.components()) {
                            Ok(ordinal) => {
                                let out = result.unwrap();
                                prop_assert_eq!(&out.root, &parent.child(ordinal));
                                let node = model.node_at(&parent).unwrap();
                                let fragment = xk_xmltree::parse(&xml).unwrap();
                                graft(&mut model, node, &fragment, NodeId::ROOT);
                            }
                            Err(_) => prop_assert!(
                                matches!(&result, Err(EngineError::BadQuery(m))
                                    if m.contains("text node")),
                                "{:?}", result
                            ),
                        }
                    }
                    Step::Reopen => {
                        drop(e);
                        e = open();
                    }
                    Step::Crash => {
                        std::mem::forget(e);
                        e = open();
                    }
                    Step::Render => {
                        let xml = e.render_subtree(&Dewey::root()).unwrap();
                        let want = xk_xmltree::to_pretty_xml_string(&model, NodeId::ROOT);
                        prop_assert_eq!(xml, want);
                    }
                }
                check(&e, &model)?;
            }
        }
    }
}
