//! Background maintenance of the segment store: the size-tiered merge,
//! the WAL checkpoint, the thread that drives both, and the deep verify
//! sweep — everything that takes the writer lock without being an
//! append.

use super::{install_manifest, lock, seal_and_open, CompactOutcome, Engine, SegSnapshot};
use crate::error::{EngineError, Result};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xk_segment::{merged_lists, plan_merge, verify_store, SegExt, SegmentVerifyReport};

/// The WAL is checkpointed once it holds this many times the database
/// file's bytes, so recovery time and log disk track the data, not its
/// history. An append logs O(fragment) pages, so at the benchmark's
/// scale (a ~4 MB file) that takes on the order of a thousand appends.
const CHECKPOINT_LOG_MULTIPLE: u64 = 4;

/// Handle to the background merge thread ([`spawn_merger`]).
pub struct MergerCtl {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MergerCtl {
    /// Signals the merger to stop and waits for it to finish its
    /// current compaction (if any).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            // xk-analyze: allow(swallowed_result, reason = "a panicked merger left the store consistent (compaction publishes transactionally); nothing to report at stop time")
            let _ = h.join();
        }
    }
}

impl Drop for MergerCtl {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            // xk-analyze: allow(swallowed_result, reason = "same as MergerCtl::stop — the store is consistent regardless of how the thread ended")
            let _ = h.join();
        }
    }
}

/// Spawns a background thread that folds small adjacent segments
/// together ([`Engine::compact_segments`]) whenever the tiered policy
/// finds an eligible run, and checkpoints the WAL once it outgrows the
/// database file, checking every `interval`. A no-op thread for engines
/// without a segment store. Failures stop the thread (the store stays
/// fully queryable; both are optimizations).
pub fn spawn_merger(engine: Arc<Engine>, interval: Duration) -> Result<MergerCtl> {
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("xk-seg-merge".into())
        .spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                match engine.compact_segments() {
                    // A merge happened: immediately look for the next
                    // eligible run (seals can cascade into classes).
                    Ok(Some(_)) => continue,
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!("segment merger stopped: {e}");
                        break;
                    }
                }
                if let Err(e) = engine.checkpoint_if_due() {
                    eprintln!("segment merger stopped: checkpoint failed: {e}");
                    break;
                }
                std::thread::park_timeout(interval);
            }
        })
        .map_err(|e| EngineError::Storage(xk_storage::StorageError::from(e)))?;
    Ok(MergerCtl { stop, handle: Some(handle) })
}

impl Engine {
    /// Folds the earliest eligible run of small adjacent segments into
    /// one (size-tiered policy, [`xk_segment::plan_merge`]). Returns
    /// `Ok(None)` when no run qualifies or the engine has no segment
    /// store. Serialized with appends via the writer lock; queries are
    /// never blocked (they keep reading the pre-merge snapshot until the
    /// new one is published). Retired input blobs are deleted only after
    /// the merged manifest commits — live readers keep them open through
    /// their `Arc`s.
    pub fn compact_segments(&self) -> Result<Option<CompactOutcome>> {
        let Some(seg) = self.segments.as_ref() else {
            return Ok(None);
        };
        let mut writer = lock(&seg.writer);
        let ext0 = writer.ext;
        let snap0 = seg.snapshot();
        let counts: Vec<u64> = snap0.metas.iter().map(|m| m.postings).collect();
        let Some(run) = plan_merge(&counts) else {
            return Ok(None);
        };
        // Read the inputs and write the merged blob entirely outside the
        // transaction: reads are immutable, and the blob (like a sealed
        // append) must be durable before the manifest swap commits.
        let lists = merged_lists(&snap0.sealed[run.clone()]).map_err(EngineError::Segment)?;
        let seq = ext0.next_seq;
        let (meta, reader) =
            seal_and_open(seg.io.as_ref(), seq, self.env.current_epoch(), &lists)?;
        let postings = meta.postings;
        let mut metas = snap0.metas.clone();
        metas.splice(run.clone(), [meta]);
        // The document handle rides in the same meta blob as the
        // extension; it cannot move while this thread holds the writer
        // lock (appends take writer, then `document`).
        let doc_chain = lock(&self.document).handle;

        self.env.begin_txn()?;
        let applied = (|| -> Result<SegExt> {
            let ext1 = install_manifest(&self.env, &ext0, &metas)?;
            self.index.write_meta(&self.env, doc_chain, &ext1.encode())?;
            Ok(ext1)
        })();
        let committed = applied.and_then(|ext1| Ok((ext1, self.env.commit_txn()?)));
        let (ext1, commit) = match committed {
            Ok(v) => v,
            Err(e) => {
                self.abort(seg, Some(seq))?;
                return Err(e);
            }
        };
        let mut sealed = snap0.sealed.clone();
        sealed.splice(run.clone(), [reader]);
        let snapshot = SegSnapshot { epoch: commit.epoch, metas, sealed, mem: snap0.mem.clone() };
        self.publish(seg, snapshot);
        writer.ext = ext1;
        // Retired inputs are now unreferenced by the committed manifest;
        // live readers keep them readable via their open handles.
        for m in &snap0.metas[run.clone()] {
            // xk-analyze: allow(swallowed_result, reason = "retired blob deletion is best-effort; the next open removes leftovers as orphans")
            let _ = seg.io.delete(m.seq);
        }
        self.wait_durable(commit.lsn)?;
        Ok(Some(CompactOutcome {
            merged: run,
            seq,
            postings,
            epoch: commit.epoch,
        }))
    }

    /// Checkpoints the WAL ([`xk_storage::StorageEnv::flush`]: sync it,
    /// write every logged page back to the database file, retire the
    /// log) once it holds more than [`CHECKPOINT_LOG_MULTIPLE`] times
    /// the file's bytes; returns whether it did. It holds the writer
    /// mutex, under which every transaction runs, so none is open. It
    /// first lets every committed append finish its durability wait,
    /// which takes at most one fsync: the reset restarts the log's LSNs,
    /// and a waiter on an old one would never see it synced.
    fn checkpoint_if_due(&self) -> Result<bool> {
        let Some(seg) = self.segments.as_ref() else {
            return Ok(false);
        };
        if !self.checkpoint_due() {
            return Ok(false);
        }
        let _writer = lock(&seg.writer);
        while self.acks_pending.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        self.env.flush()?;
        Ok(true)
    }

    /// Whether the WAL holds more than [`CHECKPOINT_LOG_MULTIPLE`] times
    /// the database file's bytes.
    fn checkpoint_due(&self) -> bool {
        let data = u64::from(self.env.page_count()) * self.env.physical_page_size() as u64;
        self.env.wal_bytes() > CHECKPOINT_LOG_MULTIPLE * data
    }

    /// Deep-checks the segment store — manifest against blobs, every
    /// block CRC, skip-entry monotonicity, dictionary/postings
    /// reconciliation, journal replayability. `Ok(None)` when the engine
    /// has no segment store. Runs against the committed state under the
    /// writer lock, so a concurrent seal cannot tear the sweep.
    pub fn verify_segments(&self) -> Result<Option<SegmentVerifyReport>> {
        let Some(seg) = self.segments.as_ref() else {
            return Ok(None);
        };
        let writer = lock(&seg.writer);
        let report = verify_store(&self.env, &writer.ext, seg.io.as_ref())
            .map_err(EngineError::Segment)?;
        Ok(Some(report))
    }
}

#[cfg(test)]
mod tests {
    use super::super::fixtures::*;
    use super::super::{Algorithm, CommitMode, DurabilityOptions};
    use super::*;
    use std::time::Instant;
    use xk_xmltree::Dewey;

    #[test]
    fn compaction_folds_small_segments() {
        let e = seg_engine();
        e.set_seal_threshold(1);
        for i in 0..8 {
            e.append_subtree(&Dewey::root(), &format!("<p>John Ben c{i}</p>")).unwrap();
        }
        let before = e.segment_metas();
        assert!(before.len() >= 5, "seals accumulated: {}", before.len());
        let want = e.query(&["John", "Ben"], Algorithm::Auto).unwrap();
        let mut merges = 0;
        while let Some(outcome) = e.compact_segments().unwrap() {
            merges += 1;
            assert!(outcome.postings > 0);
        }
        assert!(merges > 0, "tiered policy found at least one run");
        let after = e.segment_metas();
        assert!(after.len() < before.len(), "{} -> {}", before.len(), after.len());
        let postings_before: u64 = before.iter().map(|m| m.postings).sum();
        let postings_after: u64 = after.iter().map(|m| m.postings).sum();
        assert_eq!(postings_before, postings_after, "merge loses nothing");
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let got = e.query(&["John", "Ben"], algo).unwrap();
            assert_eq!(got.slcas, want.slcas, "{algo}");
        }
        let report = e.verify_segments().unwrap().unwrap();
        assert!(report.clean(), "{:?}", report.issues);
    }

    #[test]
    fn merger_thread_compacts_in_background() {
        let e = Arc::new(seg_engine());
        e.set_seal_threshold(1);
        for i in 0..8 {
            e.append_subtree(&Dewey::root(), &format!("<p>John m{i}</p>")).unwrap();
        }
        let before = e.segment_metas().len();
        let ctl = spawn_merger(Arc::clone(&e), Duration::from_millis(5)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.segment_metas().len() >= before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        ctl.stop();
        assert!(e.segment_metas().len() < before, "background merge ran");
        let out = e.query(&["John"], Algorithm::Auto).unwrap();
        assert_eq!(out.slcas.len(), 4 + 8);
    }

    /// A durable engine over shared in-memory pagers, and a reopen of
    /// the same pagers after a simulated crash.
    struct Durable {
        db: Arc<dyn xk_storage::Pager>,
        wal: Arc<dyn xk_storage::Pager>,
        io: Arc<dyn xk_segment::SegmentIo>,
    }

    impl Durable {
        fn new() -> Durable {
            let (db, io) = seeded_pagers();
            Durable { db, wal: Arc::new(xk_storage::MemPager::new(512)), io }
        }

        fn open(&self) -> Engine {
            let durability = DurabilityOptions {
                mode: CommitMode::SyncEachCommit,
                ..DurabilityOptions::default()
            };
            let (engine, _) = Engine::open_durable_with_pagers(
                Arc::clone(&self.db),
                Arc::clone(&self.wal),
                128,
                durability,
                Arc::clone(&self.io),
            )
            .unwrap();
            engine
        }
    }

    #[test]
    fn merger_checkpoints_a_growing_wal_and_loses_no_acknowledged_append() {
        let store = Durable::new();
        let e = Arc::new(store.open());
        let ctl = spawn_merger(Arc::clone(&e), Duration::from_millis(1)).unwrap();
        let mut acked = Vec::new();
        let mut peak = 0;
        let mut reset = false;
        for i in 0..400 {
            e.append_subtree(&Dewey::root(), &format!("<memo>m{i}</memo>")).unwrap();
            acked.push(format!("m{i}"));
            let log = e.with_env(|env| env.wal_bytes());
            reset |= log < peak;
            peak = peak.max(log);
            if reset && acked.len() >= 20 {
                break;
            }
        }
        ctl.stop();
        assert!(reset, "the WAL grew to {peak} bytes and was never reset");
        // Appends after the checkpoint land in the fresh log; then crash.
        for i in 0..3 {
            e.append_subtree(&Dewey::root(), &format!("<memo>late{i}</memo>")).unwrap();
            acked.push(format!("late{i}"));
        }
        std::mem::forget(e);
        let e = store.open();
        for marker in &acked {
            let hit = e.query(&[marker.as_str()], Algorithm::Auto).unwrap();
            assert_eq!(hit.slcas.len(), 1, "acknowledged {marker} lost across the crash");
        }
    }

    #[test]
    fn checkpoint_waits_out_open_transactions_and_pending_acks() {
        let e = Durable::new().open();
        let mut i = 0;
        while !e.checkpoint_due() {
            e.append_subtree(&Dewey::root(), &format!("<memo>m{i}</memo>")).unwrap();
            i += 1;
        }
        // A committed append still in its durability wait holds the
        // checkpoint off, and so does an open transaction (it holds the
        // writer mutex).
        let seg = e.segments.as_ref().unwrap();
        let writer = lock(&seg.writer);
        let ack = e.ack_pending();
        e.env.begin_txn().unwrap();
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let checkpoint = s.spawn(|| {
                let ran = e.checkpoint_if_due();
                done.store(true, Ordering::Release);
                ran
            });
            let held_off = |what: &str| {
                std::thread::sleep(Duration::from_millis(50));
                assert!(!done.load(Ordering::Acquire), "checkpoint ran {what}");
            };
            held_off("inside a transaction");
            e.env.abort_txn().unwrap();
            drop(writer);
            held_off("ahead of an acknowledgement");
            drop(ack);
            assert!(checkpoint.join().unwrap().unwrap(), "the due checkpoint ran after");
        });
        assert_eq!(e.with_env(|env| env.wal_bytes()), 0, "the WAL was reset");
    }
}
