//! The write side: [`Engine::append_subtree`] and the one posting-write
//! path behind it (journal → mem segment → sealed blob), plus the
//! publish / abort steps compaction shares.

use super::{
    install_manifest, lock, seal_and_open, AppendOutcome, CommitMode, Engine, SegSnapshot,
    SegState, SegWriter,
};
use crate::error::{EngineError, Result};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use xk_index::write_document;
use xk_segment::{encode_journal_record, MemView, SealedMeta, SegExt, SegmentReader};
use xk_storage::{free_list, ListAppender, ListHandle, ListWriter};
use xk_xmltree::{Dewey, XmlTree};

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
    /// * the index must embed its document (`store_document = true`).
    ///
    /// On a durable engine the call returns once the commit record is
    /// fsynced (inline under [`CommitMode::SyncEachCommit`], at the next
    /// group-commit flush otherwise). The durability wait happens
    /// *outside* the writer lock, which is what lets several appenders'
    /// commit records share one fsync.
    // xk-analyze: root(durability_order)
    pub fn append_subtree(&self, parent: &Dewey, fragment_xml: &str) -> Result<AppendOutcome> {
        use xk_xmltree::NodeId;

        let Some(seg) = self.segments.as_ref() else {
            return Err(EngineError::ReadOnlyLayout);
        };
        let mut writer = lock(&seg.writer);
        let mut stored = lock(&self.document);
        let (old_chain, doc) = self.loaded(&mut stored)?;

        // Validate everything before touching the tree or the disk.
        let parent_id = doc
            .node_at(parent)
            .ok_or_else(|| EngineError::BadQuery(format!("no node at {parent}")))?;
        if !doc.content(parent_id).is_element() {
            return Err(EngineError::BadQuery(format!(
                "cannot append under the text node at {parent}"
            )));
        }
        // The parent must lie on the rightmost root-to-leaf path.
        let mut cursor = NodeId::ROOT;
        let mut on_rightmost = cursor == parent_id;
        while !on_rightmost {
            match doc.children(cursor).last() {
                Some(&c) => {
                    cursor = c;
                    on_rightmost = cursor == parent_id;
                }
                None => break,
            }
        }
        if !on_rightmost {
            return Err(EngineError::BadQuery(format!(
                "{parent} is not on the document's rightmost path; \
                 incremental ingestion only supports appends at the tail"
            )));
        }
        let fragment = xk_xmltree::parse(fragment_xml)?;

        // Open the transaction *before* grafting: begin_txn itself can
        // fail (marking the dirty flag touches the header page), and at
        // that point the in-memory document must not yet be mutated.
        // Then graft in memory and mutate the disk under the transaction.
        // Nothing it writes is visible to queries — they read only the
        // published snapshot — until the publish after commit.
        self.env.begin_txn()?;
        let new_root = graft(doc, parent_id, &fragment, NodeId::ROOT);
        let root = doc.dewey(new_root);
        let added: Vec<(Dewey, Vec<String>)> = doc
            .preorder_from(new_root)
            .map(|n| (doc.dewey(n), xk_index::node_tokens(doc, n)))
            .collect();
        // A blob finalized during this attempt; if the transaction ends
        // up aborting, it is deleted below rather than lingering as an
        // orphan until the next open.
        let mut orphan: Option<u64> = None;
        let applied = (|| -> Result<(Vec<String>, SegUpdate, ListHandle)> {
            let (touched, update) = self.seg_apply(seg, &writer, &added, &mut orphan)?;
            // Keep the embedded document in sync for rendering and
            // reopening, and record both moved pointers in one meta
            // write.
            free_list(&self.env, &old_chain)?;
            let chain = write_document(&self.env, doc)?;
            self.index.write_meta(&self.env, Some(chain), &update.writer.ext.encode())?;
            Ok((touched, update, chain))
        })();
        // A WAL append failure leaves the transaction open by contract,
        // so a failed commit rolls back exactly like a failed apply.
        let committed = applied.and_then(|v| Ok((v, self.env.commit_txn()?)));
        let ((touched, update, chain), commit) = match committed {
            Ok(v) => v,
            Err(e) => {
                // The grafted document is thrown away and lazily
                // reloaded from the committed chain, which the undo log
                // restores and whose handle was never touched.
                stored.tree = None;
                self.abort(seg, orphan)?;
                return Err(e);
            }
        };
        stored.handle = Some(chain);
        let SegUpdate { writer: next, metas, sealed, mem } = update;
        self.publish(seg, SegSnapshot { epoch: commit.epoch, metas, sealed, mem });
        *writer = next;
        drop(stored);
        drop(writer);

        // Outside the writer lock: appends that commit while we wait
        // share the next fsync (group commit).
        self.wait_durable(commit.lsn)?;
        Ok(AppendOutcome { root, epoch: commit.epoch, touched })
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
                        a.append(e, &encode_journal_record(kw, d))?;
                    }
                    a.finish()
                }
                None => {
                    let mut w = ListWriter::new(e);
                    for (kw, d) in &records {
                        w.append(e, &encode_journal_record(kw, d))?;
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
    /// an inline fsync under [`CommitMode::SyncEachCommit`], the next
    /// group-commit flush otherwise; immediate without a WAL.
    pub(super) fn wait_durable(&self, lsn: u64) -> Result<()> {
        match self.durability.as_ref().map(|d| d.mode) {
            Some(CommitMode::SyncEachCommit) => {
                self.env.sync_wal()?;
            }
            Some(CommitMode::GroupCommit) => self.env.wait_wal_durable(lsn)?,
            None => {}
        }
        Ok(())
    }
}

/// Deep-copies the subtree of `src` rooted at `src_node` as a new last
/// child of `dst_parent`, returning the copy's root id.
fn graft(
    dst: &mut XmlTree,
    dst_parent: xk_xmltree::NodeId,
    src: &XmlTree,
    src_node: xk_xmltree::NodeId,
) -> xk_xmltree::NodeId {
    use xk_xmltree::NodeContent;
    let new_id = match src.content(src_node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(dst_parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(dst_parent, t.clone()),
    };
    for &c in src.children(src_node) {
        graft(dst, new_id, src, c);
    }
    new_id
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{Algorithm, DurabilityOptions};
    use super::*;
    use std::time::Duration;
    use xk_segment::{MemSegmentIo, SegmentIo};
    use xk_storage::{EnvOptions, Pager, StorageEnv};
    use xk_xmltree::school_example;

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

    /// A segmented school database over in-memory pagers plus the blob
    /// store it references — both survive a simulated crash and are
    /// handed to every reopen.
    fn seeded_pagers() -> (Arc<dyn Pager>, Arc<dyn SegmentIo>) {
        let db = Arc::new(xk_storage::MemPager::new(512));
        let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), 128).unwrap();
        let io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
        Engine::build_segment_store_with(&env, &school_example(), io.as_ref(), true).unwrap();
        env.flush().unwrap();
        (db, io)
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
}
