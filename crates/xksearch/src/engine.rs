//! The XKSearch query engine (the paper's Figure 6 architecture).
//!
//! The engine owns a disk index and serves keyword queries end to end:
//! it normalizes the keywords, consults the in-memory frequency table to
//! pick the smallest list as `S_1`, dispatches to one of the three SLCA
//! algorithms (or picks one automatically the way the paper's analysis
//! recommends), and reports the SLCAs together with operation counts,
//! buffer-pool I/O deltas, and wall-clock time — the measurements the
//! experiments in Section 6 chart.
//!
//! ## Two layouts, one write path
//!
//! [`Engine::build`] / [`Engine::build_in_memory`] bulk-load the paper's
//! layout (posting B+trees plus sequential list chains) and it is
//! **read-only** from then on: the paper-fidelity reference the figure
//! benches and the differential tests read. [`Engine::build_segmented`]
//! puts the postings into packed XKSEG1 segments instead, and that is
//! the only layout [`Engine::append_subtree`] accepts — every append
//! goes journal → mem segment → sealed blob, whatever the front end.
//!
//! ## The durable write path
//!
//! Mutations ([`Engine::append_subtree`]) run as storage transactions:
//! every touched page is captured in an undo log and, when the engine
//! was opened with [`Engine::open_durable`], written to a write-ahead
//! log before the commit record that makes the transaction real. The
//! commit record is the atomicity point — a crash before it loses the
//! append entirely, a crash after it replays the append from the WAL
//! ([`xk_storage::recover`]).
//!
//! Reads are **snapshot isolated**: every query pins the committed
//! epoch at entry and page reads serve pre-images for anything a
//! concurrent transaction touches afterwards, so queries never observe
//! a half-applied append and `append_subtree` only needs `&self`.
//!
//! Durability has two modes: [`CommitMode::SyncEachCommit`] fsyncs the
//! WAL inside every append, while [`CommitMode::GroupCommit`] (the
//! default) lets a background committer thread batch the fsyncs of all
//! appends that land within one flush interval into a single sync.

use crate::error::{EngineError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};
use xk_index::{build_disk_index, BuildOptions, DiskIndex, DiskRankedList, DiskStreamList, SharedEnv};
use xk_segment::{
    encode_journal_record, merged_lists, plan_merge, read_manifest, replay_journal, seal,
    verify_store, write_manifest, ArcList, DirSegmentIo, ErrorSlot, MemSegment, MemSegmentIo,
    MemView, SealSpec, SealedMeta, SegExt, SegmentError, SegmentIo, SegmentReader,
    SegmentVerifyReport,
};
use xk_slca::{
    all_lcas, indexed_lookup_eager, scan_eager, stack_merge, AlgoStats, ChainedRankedList,
    ChainedStreamList, LcaKind, RankedList, StreamList,
};
use xk_storage::{
    free_list, EnvOptions, FilePager, IoStats, ListAppender, ListHandle, ListWriter, Pager,
    ReadPin, RecoveryReport, StorageEnv, Wal, WAL_PAGE_SIZE,
};
use xk_xmltree::{normalize_keyword, Dewey, XmlTree};

/// Which SLCA algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pick automatically: Indexed Lookup Eager when the frequency ratio
    /// between the largest and smallest list is at least
    /// [`AUTO_RATIO_THRESHOLD`], Scan Eager otherwise — following the
    /// paper's guidance that IL wins by orders of magnitude on skewed
    /// frequencies while Scan Eager is the best variant for similar ones.
    /// (In this implementation the two run the same probe loop, see
    /// [`Algorithm::ScanEager`]; the choice only changes the reported
    /// name.)
    Auto,
    /// The paper's core algorithm (Section 3.1).
    IndexedLookupEager,
    /// The paper's Section 3.2 name, **not** its cursor-advance
    /// algorithm: this runs Indexed Lookup Eager, with the `lm`/`rm`
    /// probes served by anchored (B+tree) or sequential (segment)
    /// cursors behind the list adapters (`xk_slca::scan_eager`). Its
    /// operation counts equal IL's on every query.
    ScanEager,
    /// The XRANK-style sort-merge baseline (Section 3.3).
    Stack,
}

/// Frequency ratio at which [`Algorithm::Auto`] switches to Indexed
/// Lookup Eager.
pub const AUTO_RATIO_THRESHOLD: u64 = 16;

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Algorithm::Auto => "auto",
            Algorithm::IndexedLookupEager => "indexed-lookup-eager",
            Algorithm::ScanEager => "scan-eager",
            Algorithm::Stack => "stack",
        };
        write!(f, "{name}")
    }
}

/// When an append is acknowledged as durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// A background committer thread fsyncs the WAL every
    /// [`DurabilityOptions::flush_interval`]; concurrent appends that
    /// commit within one interval share a single fsync (the classic
    /// group commit). Appends block until their commit record is synced.
    GroupCommit,
    /// Every append fsyncs the WAL before returning — lowest latency to
    /// durability, one fsync per append.
    SyncEachCommit,
}

/// Configuration for the durable write path
/// ([`Engine::open_durable`]).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    pub mode: CommitMode,
    /// How often the group-commit thread fsyncs the WAL (ignored under
    /// [`CommitMode::SyncEachCommit`]).
    pub flush_interval: Duration,
    /// Where the write-ahead log lives; defaults to `<db_path>.wal`
    /// (see [`default_wal_path`]).
    pub wal_path: Option<PathBuf>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            mode: CommitMode::GroupCommit,
            flush_interval: Duration::from_millis(2),
            wal_path: None,
        }
    }
}

/// The WAL path used when [`DurabilityOptions::wal_path`] is `None`:
/// the database path with `.wal` appended (`school.db` → `school.db.wal`).
pub fn default_wal_path(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// The result of one keyword query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The SLCAs in document order.
    pub slcas: Vec<Dewey>,
    /// The algorithm that actually ran (never `Auto`).
    pub algorithm: Algorithm,
    /// The normalized keywords in the order they were executed
    /// (`keywords[0]` is the smallest list, the paper's `S_1`).
    pub keywords: Vec<String>,
    /// The executed keyword-list sizes, aligned with `keywords`.
    pub frequencies: Vec<u64>,
    /// Algorithm-level operation counts.
    pub stats: AlgoStats,
    /// Buffer-pool I/O during the query (disk_reads = the paper's "number
    /// of disk accesses").
    pub io: IoStats,
    /// Wall-clock query time.
    pub elapsed: Duration,
    /// The committed epoch this query observed (its snapshot). A cached
    /// answer for a keyword set is stale exactly when some later commit
    /// touched one of its keywords.
    pub epoch: u64,
}

/// The result of an all-LCA query (Section 5).
#[derive(Debug, Clone)]
pub struct LcaOutcome {
    /// All LCAs in document order, each tagged smallest/ancestor.
    pub lcas: Vec<(Dewey, LcaKind)>,
    pub keywords: Vec<String>,
    pub stats: AlgoStats,
    pub io: IoStats,
    pub elapsed: Duration,
    /// The committed epoch this query observed (see
    /// [`QueryOutcome::epoch`]).
    pub epoch: u64,
}

/// What one successful [`Engine::append_subtree`] did.
#[derive(Debug, Clone)]
pub struct AppendOutcome {
    /// The Dewey id of the appended fragment's root.
    pub root: Dewey,
    /// The epoch the commit published; queries from this epoch on see
    /// the new nodes.
    pub epoch: u64,
    /// The distinct normalized keywords whose lists changed, in
    /// first-touch order — result caches use this to evict exactly the
    /// entries the append could have invalidated.
    pub touched: Vec<String>,
}

/// The group-commit machinery of a durable engine.
struct DurabilityCtl {
    mode: CommitMode,
    stop: Arc<AtomicBool>,
    committer: Option<std::thread::JoinHandle<()>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Mem-segment postings that trigger a seal into a packed blob.
pub const DEFAULT_SEAL_THRESHOLD: u64 = 4096;

/// The blob directory of a segmented database: `<db_path>.segments`
/// (`school.db` → `school.db.segments/seg-*.xkseg`).
pub fn default_segments_dir(db_path: &Path) -> PathBuf {
    let mut os = db_path.as_os_str().to_os_string();
    os.push(".segments");
    PathBuf::from(os)
}

/// An immutable picture of the segment store at one committed epoch:
/// the sealed blobs (open readers + their manifest records, in seal
/// order) and the copy-on-write view of the unsealed mem segment.
/// Swapped wholesale under the index write lock, so the `read_view`
/// epoch check covers it too.
struct SegSnapshot {
    metas: Vec<SealedMeta>,
    sealed: Vec<Arc<SegmentReader>>,
    mem: MemView,
}

/// The engine's segment store (present when the index's extension bytes
/// carry a [`SegExt`] region).
struct SegState {
    io: Arc<dyn SegmentIo>,
    /// Durable pointers (journal/manifest chains, next sequence number).
    /// Mutated only by the single writer, under `append_lock`.
    ext: Mutex<SegExt>,
    /// The writer-side mutable mem segment; queries never touch it
    /// (they read the published [`SegSnapshot`] instead).
    mem: Mutex<MemSegment>,
    snapshot: RwLock<Arc<SegSnapshot>>,
    seal_threshold: AtomicU64,
}

impl SegState {
    fn snapshot(&self) -> Arc<SegSnapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// What the writer computed for the segment store during one append,
/// published only after the commit record makes the append real.
struct SegUpdate {
    mem: MemSegment,
    snapshot: Arc<SegSnapshot>,
    ext: SegExt,
}

/// What one [`Engine::compact_segments`] call did.
#[derive(Debug, Clone)]
pub struct CompactOutcome {
    /// The manifest positions that were folded together.
    pub merged: std::ops::Range<usize>,
    /// The sequence number of the merged blob.
    pub seq: u64,
    /// Postings in the merged blob.
    pub postings: u64,
    /// The epoch the manifest swap committed at.
    pub epoch: u64,
}

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
/// finds an eligible run, checking every `interval`. A no-op thread for
/// engines without a segment store. Merge failures stop the thread (the
/// store stays fully queryable; compaction is an optimization).
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
                std::thread::park_timeout(interval);
            }
        })
        .map_err(|e| EngineError::Storage(xk_storage::StorageError::from(e)))?;
    Ok(MergerCtl { stop, handle: Some(handle) })
}

/// A disk-backed XKSearch engine.
///
/// All operations — including [`Engine::append_subtree`] — take
/// `&self`; queries run against a pinned snapshot while appends commit
/// transactionally, so readers and the writer never block each other on
/// data access.
pub struct Engine {
    env: SharedEnv,
    /// The in-memory face of the index (frequency table, list handles,
    /// B+tree root). Swapped wholesale after each commit; queries read
    /// it briefly to build their list adapters.
    index: RwLock<DiskIndex>,
    /// The committed epoch `index` describes. Paired with the snapshot
    /// pin in [`Engine::read_view`] so a query's in-memory metadata and
    /// its page reads always belong to the same epoch.
    index_epoch: AtomicU64,
    document: Mutex<Option<XmlTree>>,
    /// Serializes appenders (single-writer); queries never take it.
    append_lock: Mutex<()>,
    durability: Option<DurabilityCtl>,
    /// Present when the index's extension region carries a [`SegExt`]:
    /// postings then live in packed segment blobs plus a journaled mem
    /// segment instead of B+tree posting trees. `None` is the read-only
    /// reference layout.
    segments: Option<SegState>,
}

impl Engine {
    /// Builds an index for `tree` in a new storage file and opens it —
    /// the paper's layout (Section 4): posting B+trees and list chains,
    /// bulk-loaded with exact-fit packed Deweys. The result is a
    /// **read-only reference**: [`Engine::append_subtree`] rejects it
    /// with [`EngineError::ReadOnlyLayout`]; build with
    /// [`Engine::build_segmented`] for a database that grows.
    ///
    /// The build is **crash-safe**: it writes to `<db_path>.building` and
    /// atomically renames over `db_path` only after a successful build and
    /// flush. A crash mid-build leaves either the old index intact or a
    /// temp file that [`StorageEnv::open`] rejects (dirty flag set) — the
    /// final path never holds a half-built index.
    pub fn build(
        tree: &XmlTree,
        db_path: impl AsRef<Path>,
        options: EnvOptions,
        store_document: bool,
    ) -> Result<Engine> {
        Self::build_staged(db_path.as_ref(), options, |env, _| {
            build_disk_index(env, tree, &BuildOptions { store_document, ..Default::default() })?;
            Ok(())
        })
    }

    /// The crash-safe protocol both file builders share: `fill` builds
    /// into a fresh environment at `<db_path>.building`, with
    /// `<db_path>.building.segments` for its blobs (only the segment
    /// layout creates it), and both are renamed into place only after a
    /// checked flush, replacing whatever an earlier build left there.
    // xk-analyze: root(durability_order)
    fn build_staged(
        db_path: &Path,
        options: EnvOptions,
        fill: impl FnOnce(&StorageEnv, &Path) -> Result<()>,
    ) -> Result<Engine> {
        let mut tmp = db_path.as_os_str().to_os_string();
        tmp.push(".building");
        let tmp = PathBuf::from(tmp);
        let tmp_seg = default_segments_dir(&tmp);
        // Stale temp artifacts from a killed build are dead weight.
        let discard_temps = || {
            // xk-analyze: allow(swallowed_result, reason = "best-effort cleanup of temp build artifacts; leftovers are harmless")
            let _ = std::fs::remove_file(&tmp);
            // xk-analyze: allow(swallowed_result, reason = "best-effort cleanup of temp build artifacts; leftovers are harmless")
            let _ = std::fs::remove_dir_all(&tmp_seg);
        };
        discard_temps();
        let built = (|| -> Result<()> {
            let env = StorageEnv::create(&tmp, options.clone())?;
            fill(&env, &tmp_seg)?;
            // An explicit checked flush: dropping the env also flushes,
            // but Drop swallows the error and the rename below would
            // publish a file whose pages never reached the disk.
            env.flush()?;
            Ok(())
        })();
        if let Err(e) = built {
            discard_temps();
            return Err(e);
        }
        let seg_dir = default_segments_dir(db_path);
        // xk-analyze: allow(swallowed_result, reason = "a previous segment directory may not exist; rename below surfaces real failures")
        let _ = std::fs::remove_dir_all(&seg_dir);
        if tmp_seg.exists() {
            // Absent for the reference layout, and when the document has
            // no postings (the directory is created at the first seal).
            std::fs::rename(&tmp_seg, &seg_dir)
                .map_err(|e| EngineError::Storage(xk_storage::StorageError::from(e)))?;
            sync_parent_dir(&seg_dir);
        }
        std::fs::rename(&tmp, db_path)
            .map_err(|e| EngineError::Storage(xk_storage::StorageError::from(e)))?;
        sync_parent_dir(db_path);
        Self::open(db_path, options)
    }

    /// [`Engine::build`] fully in memory (tests, small data): the same
    /// read-only reference layout.
    pub fn build_in_memory(tree: &XmlTree, options: EnvOptions) -> Result<Engine> {
        let env = StorageEnv::in_memory(options);
        build_disk_index(&env, tree, &BuildOptions::default())?;
        Self::from_env(env)
    }

    /// [`Engine::build`] with the **segment layout** — the one that
    /// serves and grows: postings go into one packed XKSEG1 blob under
    /// `<db_path>.segments/` instead of B+tree posting trees; the
    /// structural index (level table, document) is built as usual and
    /// its posting trees stay empty. Same crash discipline
    /// as `build`: both the database file and the blob directory are
    /// staged under `.building` names and renamed into place only after
    /// a full flush.
    ///
    /// Caveat: rebuilding *over* an existing segmented database replaces
    /// the db file atomically but swaps the blob directory in two
    /// renames; a crash exactly between them is repaired by the next
    /// open only up to orphan deletion, so prefer building to a fresh
    /// path.
    pub fn build_segmented(
        tree: &XmlTree,
        db_path: impl AsRef<Path>,
        options: EnvOptions,
        store_document: bool,
    ) -> Result<Engine> {
        Self::build_staged(db_path.as_ref(), options, |env, blob_dir| {
            let io = DirSegmentIo::new(blob_dir, env.physical_page_size());
            Self::build_segment_store_with(env, tree, &io, store_document)
        })
    }

    /// [`Engine::build_in_memory`] with the segment layout (blobs live in
    /// a [`MemSegmentIo`]).
    pub fn build_in_memory_segmented(tree: &XmlTree, options: EnvOptions) -> Result<Engine> {
        let env = StorageEnv::in_memory(options);
        let io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
        Self::build_segment_store_with(&env, tree, io.as_ref(), true)?;
        Self::from_parts(env, None, Some(io))
    }

    /// Seeds a caller-supplied environment/blob store with the segmented
    /// layout without constructing an engine — the shared core of the
    /// segmented builds, and what crash and fault-injection tests call
    /// when they own both halves and reopen them later through
    /// [`Engine::open_durable_with_pagers`]: structural index with
    /// postings disabled, the full posting set sealed as segment 1, and
    /// the [`SegExt`] recorded in the index's extension region.
    // xk-analyze: root(durability_order)
    pub fn build_segment_store_with(
        env: &StorageEnv,
        tree: &XmlTree,
        io: &dyn SegmentIo,
        store_document: bool,
    ) -> Result<()> {
        build_disk_index(env, tree, &BuildOptions { store_document, index_postings: false })?;
        let lists: BTreeMap<String, Vec<Dewey>> =
            xk_index::MemIndex::build(tree).into_sorted_lists().into_iter().collect();
        let ext = if lists.is_empty() {
            SegExt { journal: None, manifest: None, next_seq: 1 }
        } else {
            let header = seal_blob(io, 1, env.current_epoch(), &lists)?;
            let manifest = write_manifest(env, &[SealedMeta::of(&header)])?;
            SegExt { journal: None, manifest, next_seq: 2 }
        };
        let mut index = DiskIndex::open(env)?;
        index.set_extension(env, ext.encode())?;
        Ok(())
    }

    /// Opens an existing index file (either layout) **without** a
    /// write-ahead log. Appends are still transactional (atomic in memory
    /// and on a clean flush) but a crash between commit and flush loses
    /// them; use [`Engine::open_durable`] for crash durability.
    pub fn open(db_path: impl AsRef<Path>, options: EnvOptions) -> Result<Engine> {
        let db_path = db_path.as_ref();
        let env = StorageEnv::open(db_path, options)?;
        let io = Self::dir_io(db_path, env.physical_page_size());
        Self::from_parts(env, None, Some(io))
    }

    /// The default blob store next to `db_path` (only consulted when the
    /// index actually references a segment store). Blob blocks use the
    /// database page size, so one buffer-pool-sized read budget covers
    /// both layouts in the experiments.
    fn dir_io(db_path: &Path, block_size: usize) -> Arc<dyn SegmentIo> {
        Arc::new(DirSegmentIo::new(default_segments_dir(db_path), block_size))
    }

    /// Opens an existing index file with the durable write path: runs
    /// crash recovery ([`xk_storage::recover_files`]) over the database
    /// and its WAL, then attaches a fresh-generation WAL so every
    /// subsequent append is redo-logged before its commit record.
    ///
    /// Returns the engine together with the [`RecoveryReport`] saying
    /// what (if anything) recovery replayed.
    pub fn open_durable(
        db_path: impl AsRef<Path>,
        options: EnvOptions,
        durability: DurabilityOptions,
    ) -> Result<(Engine, RecoveryReport)> {
        let db_path = db_path.as_ref();
        let wal_path =
            durability.wal_path.clone().unwrap_or_else(|| default_wal_path(db_path));
        let report = xk_storage::recover_files(db_path, &wal_path)?;
        let mut env = StorageEnv::open(db_path, options)?;
        // recover_files already truncated a torn WAL tail to a page
        // multiple, so reopening it is safe; a missing WAL starts empty.
        let wal_pager: Arc<dyn Pager> = if wal_path.exists() {
            Arc::new(FilePager::open(&wal_path, WAL_PAGE_SIZE)?)
        } else {
            Arc::new(FilePager::create(&wal_path, WAL_PAGE_SIZE)?)
        };
        let wal = Wal::open_or_reinit(wal_pager, env.physical_page_size() as u32)?;
        env.attach_wal(wal)?;
        let io = Self::dir_io(db_path, env.physical_page_size());
        let engine = Self::from_parts(env, Some(durability), Some(io))?;
        Ok((engine, report))
    }

    /// Wraps an already-constructed storage environment holding the
    /// read-only reference layout (tests and tools that
    /// [`build_disk_index`] over a custom [`Pager`], e.g. a fault
    /// injector).
    pub fn from_env(env: StorageEnv) -> Result<Engine> {
        Self::from_parts(env, None, None)
    }

    /// [`Engine::open_durable`] over caller-supplied pagers and blob
    /// store (crash and fault-injection tests drive this with
    /// [`xk_storage::FaultPager`], shared [`xk_storage::MemPager`]s and
    /// [`xk_segment::FaultSegmentIo`]). `io` must be the store the
    /// database was seeded with ([`Engine::build_segment_store_with`]),
    /// shared across reopens.
    pub fn open_durable_with_pagers(
        db: Arc<dyn Pager>,
        wal: Arc<dyn Pager>,
        pool_pages: usize,
        durability: DurabilityOptions,
        io: Arc<dyn SegmentIo>,
    ) -> Result<(Engine, RecoveryReport)> {
        let report = xk_storage::recover(&*db, &*wal)?;
        let mut env = StorageEnv::open_with_pager(Box::new(db), pool_pages)?;
        let attached = Wal::open_or_reinit(wal, env.physical_page_size() as u32)?;
        env.attach_wal(attached)?;
        let engine = Self::from_parts(env, Some(durability), Some(io))?;
        Ok((engine, report))
    }

    /// Opens the segment store described by the index's extension bytes:
    /// reads the manifest, opens every sealed blob against its fence,
    /// deletes orphan blobs (finalized but never committed — the crash
    /// window between rename and commit record), and replays the posting
    /// journal into the mem segment.
    fn open_segments(
        env: &StorageEnv,
        index: &DiskIndex,
        io: Option<Arc<dyn SegmentIo>>,
    ) -> Result<Option<SegState>> {
        let Some(ext) = SegExt::decode(index.extension())? else {
            return Ok(None);
        };
        let io = io.ok_or_else(|| {
            EngineError::Segment(SegmentError::Corrupt(
                "the index references a segment store but no blob directory was supplied".into(),
            ))
        })?;
        let metas = match &ext.manifest {
            Some(h) => read_manifest(env, h)?,
            None => Vec::new(),
        };
        let mut sealed = Vec::with_capacity(metas.len());
        for m in &metas {
            let pager = io.open(m.seq).map_err(EngineError::Segment)?;
            sealed.push(SegmentReader::open(pager, Some(&m.fence())).map_err(EngineError::Segment)?);
        }
        let live: std::collections::BTreeSet<u64> = metas.iter().map(|m| m.seq).collect();
        for seq in io.list().map_err(EngineError::Segment)? {
            if !live.contains(&seq) {
                // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; an undeletable orphan is re-attempted at the next open")
                let _ = io.delete(seq);
            }
        }
        let mem = match &ext.journal {
            Some(h) => replay_journal(env, h)?,
            None => MemSegment::new(),
        };
        let snapshot = Arc::new(SegSnapshot { metas, sealed, mem: MemView::of(&mem) });
        Ok(Some(SegState {
            io,
            ext: Mutex::new(ext),
            mem: Mutex::new(mem),
            snapshot: RwLock::new(snapshot),
            seal_threshold: AtomicU64::new(DEFAULT_SEAL_THRESHOLD),
        }))
    }

    fn from_parts(
        env: StorageEnv,
        durability: Option<DurabilityOptions>,
        io: Option<Arc<dyn SegmentIo>>,
    ) -> Result<Engine> {
        let index = DiskIndex::open(&env)?;
        let segments = Self::open_segments(&env, &index, io)?;
        let index_epoch = AtomicU64::new(env.current_epoch());
        let env = SharedEnv::new(env);
        let durability = match durability {
            None => None,
            Some(opts) => {
                let stop = Arc::new(AtomicBool::new(false));
                let committer = match opts.mode {
                    CommitMode::SyncEachCommit => None,
                    CommitMode::GroupCommit => {
                        Some(spawn_committer(env.clone(), Arc::clone(&stop), opts.flush_interval)?)
                    }
                };
                Some(DurabilityCtl { mode: opts.mode, stop, committer })
            }
        };
        Ok(Engine {
            env,
            index: RwLock::new(index),
            index_epoch,
            document: Mutex::new(None),
            append_lock: Mutex::new(()),
            durability,
            segments,
        })
    }

    /// The committed epoch — advances on every commit.
    pub fn current_epoch(&self) -> u64 {
        self.env.with(|e| e.current_epoch())
    }

    /// The underlying index (frequency table, vocabulary). The guard
    /// holds appends out of their commit step; drop it promptly.
    pub fn index(&self) -> RwLockReadGuard<'_, DiskIndex> {
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    /// An index read guard paired with a snapshot pin at the **same**
    /// epoch, so in-memory metadata (list handles, counts, B+tree root
    /// slot) and page reads describe one consistent committed state. The
    /// retry closes the microseconds-wide window in `append_subtree`
    /// between publishing a commit's epoch and swapping the index.
    fn read_view(&self) -> (RwLockReadGuard<'_, DiskIndex>, ReadPin<'_>) {
        loop {
            let index = self.index.read().unwrap_or_else(|e| e.into_inner());
            let pin = self.env.pin_snapshot();
            if pin.epoch() == self.index_epoch.load(Ordering::Acquire) {
                return (index, pin);
            }
            drop(pin);
            drop(index);
            std::thread::yield_now();
        }
    }

    /// Every keyword with its frequency, in keyword order, from whichever
    /// layout holds the postings (tools: `xksearch stats`).
    pub fn vocabulary(&self) -> Vec<(String, u64)> {
        let (index, _pin) = self.read_view();
        let mut freq: BTreeMap<&str, u64> = BTreeMap::new();
        let seg = self.segments.as_ref().map(|s| s.snapshot());
        match seg.as_deref() {
            Some(s) => {
                for (k, f) in s.sealed.iter().flat_map(|r| r.keywords()).chain(s.mem.keywords()) {
                    *freq.entry(k).or_default() += f;
                }
            }
            None => freq.extend(index.keywords()),
        }
        freq.into_iter().map(|(k, f)| (k.to_string(), f)).collect()
    }

    /// Runs `f` against the storage environment (for cache control and
    /// I/O statistics in experiments).
    pub fn with_env<R>(&self, f: impl FnOnce(&StorageEnv) -> R) -> R {
        self.env.with(f)
    }

    /// Drops the buffer pool — the *cold cache* state of the experiments.
    pub fn clear_cache(&self) -> Result<()> {
        self.env.with(|e| e.clear_cache())?;
        Ok(())
    }

    /// Sequential access to a keyword's list (tools, benches). `None` if
    /// the keyword does not occur. Unpinned: concurrent appends may be
    /// observed mid-flight — use [`Engine::query`] for consistent reads.
    pub fn stream_list(&self, keyword: &str) -> Option<DiskStreamList> {
        self.index().stream_list(self.env.clone(), keyword)
    }

    /// Indexed (`lm`/`rm`) access to a keyword's list (tools, benches).
    /// `None` if the keyword does not occur. Unpinned, like
    /// [`Engine::stream_list`].
    pub fn ranked_list(&self, keyword: &str) -> Option<DiskRankedList> {
        self.index().ranked_list(self.env.clone(), keyword)
    }

    /// Drains `keyword`'s full posting chain (the B+tree list, or the
    /// sealed segments then the mem segment) through the exact
    /// [`StreamList`] adapter
    /// the algorithms consume. `Ok(None)` when the keyword is absent.
    /// The differential tests compare this across layouts element for
    /// element.
    pub fn posting_dump(&self, keyword: &str) -> Result<Option<Vec<Dewey>>> {
        let Some(k) = normalize_keyword(keyword) else { return Ok(None) };
        let qenv = self.env.fork();
        let (index, pin) = self.read_view();
        let seg = self.segments.as_ref().map(|s| s.snapshot());
        let slot = ErrorSlot::new();
        let Some(mut stream) = stream_chain(&index, &qenv, seg.as_deref(), &k, &slot) else {
            return Ok(None);
        };
        drop(index);
        let mut out = Vec::new();
        while let Some(d) = stream.next_node() {
            out.push(d);
        }
        drop(pin);
        take_list_errors(&qenv, &slot)?;
        Ok(Some(out))
    }

    /// One `rm`/`lm` probe pair at `at` against `keyword`'s ranked
    /// chain — the [`RankedList`] counterpart of
    /// [`Engine::posting_dump`]. `Ok(None)` when the keyword is absent.
    pub fn posting_probe(
        &self,
        keyword: &str,
        at: &Dewey,
    ) -> Result<Option<(Option<Dewey>, Option<Dewey>)>> {
        let Some(k) = normalize_keyword(keyword) else { return Ok(None) };
        let qenv = self.env.fork();
        let (index, pin) = self.read_view();
        let seg = self.segments.as_ref().map(|s| s.snapshot());
        let slot = ErrorSlot::new();
        let Some(mut ranked) = ranked_chain(&index, &qenv, seg.as_deref(), &k, &slot) else {
            return Ok(None);
        };
        drop(index);
        let pair = (ranked.rm(at), ranked.lm(at));
        drop(pin);
        take_list_errors(&qenv, &slot)?;
        Ok(Some(pair))
    }

    /// Answers a keyword query with the chosen algorithm.
    ///
    /// Safe to call from several threads at once (`&self`), including
    /// concurrently with [`Engine::append_subtree`]: the query pins the
    /// committed epoch at entry and every page read serves that
    /// snapshot, so an in-flight append is invisible until its commit.
    /// Each query also runs on a [`SharedEnv::fork`] with its own poison
    /// slot, so a storage failure in one query errors out exactly that
    /// query. The reported [`QueryOutcome::io`] delta is exact when the
    /// engine is quiescent otherwise; concurrent queries share the
    /// global counters, so each delta then *bounds* the query's own I/O.
    // xk-analyze: root(panic_path)
    pub fn query(&self, keywords: &[&str], algorithm: Algorithm) -> Result<QueryOutcome> {
        let qenv = self.env.fork();
        let start = Instant::now();
        let io_before = qenv.with(|e| e.stats());
        let (index, pin) = self.read_view();
        let epoch = pin.epoch();
        // Cloned under the index guard, so the segment snapshot and the
        // index describe the same committed epoch (both are swapped
        // inside one index write-lock section).
        let seg = self.segments.as_ref().map(|s| s.snapshot());
        let Some((ordered, frequencies)) = prepare(&index, seg.as_deref(), keywords)? else {
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

        // Build every list adapter under the index read guard, then
        // release the guard before running the algorithms: the adapters
        // are self-contained, and a committing append must not wait on a
        // long-running query to swap the index. Reads stay consistent
        // because the snapshot pin (held to the end) serves pre-images,
        // and segment adapters hold `Arc`s into immutable blobs/views.
        //
        // In the segment layout every adapter is a chain over the
        // keyword's sources (sealed segments, then the mem segment); the
        // reference layout has exactly one source, the B+tree list.
        // There each non-smallest list holds one anchored cursor for the
        // whole candidate loop: the probes are near-sorted, so most
        // lm/rm pairs resolve inside the pinned leaf or a leaf-chain hop
        // away. Segment parts answer the same probes from the skip table
        // plus at most one decoded block.
        let slot = ErrorSlot::new();
        let sg = seg.as_deref();
        let mut s1_stream: Option<Box<dyn StreamList>> = None;
        let mut ranked: Vec<Box<dyn RankedList>> = Vec::new();
        let mut streams: Vec<Box<dyn StreamList>> = Vec::new();
        match algorithm {
            Algorithm::IndexedLookupEager | Algorithm::ScanEager => {
                s1_stream = Some(
                    stream_chain(&index, &qenv, sg, &ordered[0], &slot)
                        // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in some source")
                        .expect("keyword verified present"),
                );
                ranked = ordered[1..]
                    .iter()
                    .map(|k| {
                        ranked_chain(&index, &qenv, sg, k, &slot)
                            // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in some source")
                            .expect("keyword verified present")
                    })
                    .collect();
            }
            Algorithm::Stack => {
                streams = ordered
                    .iter()
                    .map(|k| {
                        stream_chain(&index, &qenv, sg, k, &slot)
                            // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in some source")
                            .expect("keyword verified present")
                    })
                    .collect();
            }
            // xk-analyze: allow(panic_path, reason = "resolve() never returns Auto")
            Algorithm::Auto => unreachable!("resolved above"),
        }
        drop(index);

        let mut slcas = Vec::new();
        let stats = match algorithm {
            Algorithm::IndexedLookupEager => {
                // xk-analyze: allow(panic_path, reason = "s1_stream was filled in the matching arm above")
                let mut s1 = s1_stream.expect("built above");
                let mut refs: Vec<&mut dyn RankedList> =
                    ranked.iter_mut().map(|l| l as &mut dyn RankedList).collect();
                indexed_lookup_eager(s1.as_mut(), &mut refs, |d| slcas.push(d))
            }
            Algorithm::ScanEager => {
                // xk-analyze: allow(panic_path, reason = "s1_stream was filled in the matching arm above")
                let mut s1 = s1_stream.expect("built above");
                scan_eager(s1.as_mut(), ranked, |d| slcas.push(d))
            }
            Algorithm::Stack => stack_merge(streams, |d| slcas.push(d)),
            // xk-analyze: allow(panic_path, reason = "resolve() never returns Auto")
            Algorithm::Auto => unreachable!("resolved above"),
        };
        take_list_errors(&qenv, &slot)?;
        drop(pin);

        let io = qenv.with(|e| e.stats()).delta_since(&io_before);
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
        let qenv = self.env.fork();
        let start = Instant::now();
        let io_before = qenv.with(|e| e.stats());
        let (index, pin) = self.read_view();
        let epoch = pin.epoch();
        let seg = self.segments.as_ref().map(|s| s.snapshot());
        let sg = seg.as_deref();
        let Some((ordered, _)) = prepare(&index, sg, keywords)? else {
            return Ok(LcaOutcome {
                lcas: Vec::new(),
                keywords: keywords.iter().map(|s| s.to_string()).collect(),
                stats: AlgoStats::default(),
                io: IoStats::default(),
                elapsed: start.elapsed(),
                epoch,
            });
        };
        let slot = ErrorSlot::new();
        let mut s1 = stream_chain(&index, &qenv, sg, &ordered[0], &slot)
            // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in some source")
            .expect("keyword verified present");
        let mut owned: Vec<Box<dyn RankedList>> = ordered
            .iter()
            .map(|k| {
                ranked_chain(&index, &qenv, sg, k, &slot)
                    // xk-analyze: allow(panic_path, reason = "prepare() verified every keyword has postings in some source")
                    .expect("keyword verified present")
            })
            .collect();
        drop(index);
        let mut refs: Vec<&mut dyn RankedList> =
            owned.iter_mut().map(|l| l as &mut dyn RankedList).collect();
        let mut lcas = Vec::new();
        let stats = all_lcas(s1.as_mut(), &mut refs, |d, k| lcas.push((d, k)));
        take_list_errors(&qenv, &slot)?;
        drop(pin);
        lcas.sort_by(|a, b| a.0.cmp(&b.0));
        let io = qenv.with(|e| e.stats()).delta_since(&io_before);
        Ok(LcaOutcome { lcas, keywords: ordered, stats, io, elapsed: start.elapsed(), epoch })
    }

    /// Answers a batch of keyword queries, fanning them out across
    /// `threads` worker threads (1 = run on the caller's thread).
    ///
    /// Results come back in input order, one `Result` per query: a
    /// storage failure mid-query fails exactly that query (per-query
    /// poison slots, see [`SharedEnv::fork`]) while the rest of the batch
    /// completes normally. Workers claim queries from a shared atomic
    /// counter, so an expensive query does not stall the queue behind it.
    // xk-analyze: root(panic_path)
    pub fn query_batch(
        &self,
        queries: &[Vec<String>],
        algorithm: Algorithm,
        threads: usize,
    ) -> Vec<Result<QueryOutcome>> {
        use std::sync::atomic::AtomicUsize;

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

    /// Loads the embedded document into `slot` if it is not there yet.
    /// Runs under a consistent read view so a concurrent append can
    /// never produce a torn document load.
    fn ensure_document(&self, slot: &mut Option<XmlTree>) -> Result<()> {
        if slot.is_none() {
            let (index, _pin) = self.read_view();
            let doc = self
                .env
                .with(|e| index.load_document(e))?
                .ok_or(EngineError::NoDocument)?;
            *slot = Some(doc);
        }
        Ok(())
    }

    /// Appends an XML fragment as the new last child of `parent` and
    /// indexes it incrementally — the log-structured growth model of a
    /// bibliography (new papers arrive at the end). The new postings go
    /// to the segment store ([`Engine::seg_apply`]), the only layout
    /// that accepts writes: an engine over the read-only reference
    /// layout returns [`EngineError::ReadOnlyLayout`] without touching
    /// a page.
    ///
    /// The append is **atomic**: it runs as a storage transaction whose
    /// touched pages are undo-logged (and, on a durable engine,
    /// WAL-logged before the commit record). Any failure — codec error,
    /// I/O fault mid-way — aborts the transaction and restores every
    /// page, so concurrent and subsequent queries behave as if the
    /// append never started. Queries running concurrently read their
    /// pinned snapshot and are never blocked or torn by the append.
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
    /// *outside* the append lock, which is what lets several appenders'
    /// commit records share one fsync.
    // xk-analyze: root(durability_order)
    pub fn append_subtree(&self, parent: &Dewey, fragment_xml: &str) -> Result<AppendOutcome> {
        use xk_xmltree::NodeId;

        let Some(seg) = self.segments.as_ref() else {
            return Err(EngineError::ReadOnlyLayout);
        };
        let append_guard = lock(&self.append_lock);
        let mut doc_slot = lock(&self.document);
        self.ensure_document(&mut doc_slot)?;
        // xk-analyze: allow(panic_path, reason = "ensure_document fills the slot or errors out above")
        let doc = doc_slot.as_mut().expect("document loaded above");

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
        // Then graft in memory and mutate the disk under the transaction
        // against a scratch copy of the index. Nothing the scratch copy
        // does is visible to queries until the swap after commit.
        self.env.with(|e| e.begin_txn())?;
        let new_root = graft(doc, parent_id, &fragment, NodeId::ROOT);
        let added: Vec<(Dewey, Vec<String>)> = doc
            .preorder_from(new_root)
            .map(|n| (doc.dewey(n), xk_index::node_tokens(doc, n)))
            .collect();
        let mut scratch = self.index().clone();
        // A blob finalized during this attempt; if the transaction ends
        // up aborting, it is deleted below rather than lingering as an
        // orphan until the next open.
        let mut orphan: Option<u64> = None;
        let applied = (|| -> Result<(Vec<String>, SegUpdate)> {
            let touched_and_update = self.seg_apply(seg, &mut scratch, &added, &mut orphan)?;
            // Keep the embedded document in sync for rendering and
            // reopening.
            self.env.with(|e| scratch.store_document(e, doc))?;
            Ok(touched_and_update)
        })();
        let abort = |doc_slot: &mut Option<XmlTree>| -> Result<()> {
            // Roll back: the undo log restores every touched page,
            // dropping the scratch index discards the in-memory
            // half-update, and the grafted document is thrown away
            // and lazily reloaded from the intact stored copy. A blob
            // sealed during the attempt is unreferenced by any committed
            // manifest, so deleting it is safe (best-effort — the next
            // open retries orphan cleanup).
            *doc_slot = None;
            self.env.with(|env| env.abort_txn())?;
            if let Some(seq) = orphan {
                // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; the next open retries it")
                let _ = seg.io.delete(seq);
            }
            Ok(())
        };
        let (touched, update) = match applied {
            Ok(v) => v,
            Err(e) => {
                abort(&mut doc_slot)?;
                return Err(e);
            }
        };
        let commit = match self.env.with(|e| e.commit_txn()) {
            Ok(commit) => commit,
            Err(e) => {
                // A WAL append failure leaves the transaction open by
                // contract so it can still be rolled back. Same abort
                // protocol as a failed apply: restore every page, drop
                // the grafted document, keep the old index.
                abort(&mut doc_slot)?;
                return Err(e.into());
            }
        };
        let root = doc.dewey(new_root);
        {
            // xk-analyze: allow(lock_order, reason = "false positive: index() clones under a read guard dropped at the end of its own statement; only the write lock is held here")
            let mut w = self.index.write().unwrap_or_else(|e| e.into_inner());
            *w = scratch;
            self.index_epoch.store(commit.epoch, Ordering::Release);
            // Published inside the index write-lock section so a
            // reader's (index guard, segment snapshot) pair is always
            // epoch-consistent.
            // xk-analyze: allow(lock_order, reason = "intentional nesting: index write lock then segment ext/mem/snapshot locks; readers nest index read then snapshot read — same order, no inversion")
            *lock(&seg.ext) = update.ext;
            *lock(&seg.mem) = update.mem;
            *seg.snapshot.write().unwrap_or_else(|e| e.into_inner()) = update.snapshot;
        }
        drop(doc_slot);
        drop(append_guard);

        // Outside the append lock: appends that commit while we wait
        // share the next fsync (group commit).
        self.wait_durable(commit.lsn)?;
        Ok(AppendOutcome { root, epoch: commit.epoch, touched })
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
        scratch: &mut DiskIndex,
        added: &[(Dewey, Vec<String>)],
        orphan: &mut Option<u64>,
    ) -> Result<(Vec<String>, SegUpdate)> {
        let ext0 = *lock(&seg.ext);
        let snap0 = seg.snapshot();
        let mut mem = lock(&seg.mem).clone();
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
        let (ext1, snapshot) = if mem.posting_count() > 0 && mem.posting_count() >= threshold {
            // Seal: the whole mem segment becomes the next packed blob.
            let seq = ext0.next_seq;
            let epoch = self.env.with(|e| e.current_epoch());
            let header = seal_blob(seg.io.as_ref(), seq, epoch, mem.lists())?;
            *orphan = Some(seq);
            let mut metas = snap0.metas.clone();
            metas.push(SealedMeta::of(&header));
            let manifest = self.env.with(|e| write_manifest(e, &metas))?;
            // The superseded manifest and journal chains are freed inside
            // the same transaction (undo-logged, so an abort restores
            // them).
            if let Some(h) = &ext0.manifest {
                self.env.with(|e| free_list(e, h))?;
            }
            if let Some(h) = &ext0.journal {
                self.env.with(|e| free_list(e, h))?;
            }
            let pager = seg.io.open(seq).map_err(EngineError::Segment)?;
            let reader = SegmentReader::open(pager, Some(&SealedMeta::of(&header).fence()))
                .map_err(EngineError::Segment)?;
            let mut sealed = snap0.sealed.clone();
            sealed.push(reader);
            mem.clear();
            (
                SegExt { journal: None, manifest, next_seq: seq + 1 },
                Arc::new(SegSnapshot { metas, sealed, mem: MemView::empty() }),
            )
        } else {
            // Journal: extend (or start) the posting journal so a
            // reopen can rebuild the mem segment.
            let journal = self.env.with(|e| -> Result<ListHandle> {
                match ext0.journal {
                    Some(h) => {
                        let mut a = ListAppender::open(e, h)?;
                        for (kw, d) in &records {
                            a.append(e, &encode_journal_record(kw, d))?;
                        }
                        Ok(a.finish())
                    }
                    None => {
                        let mut w = ListWriter::new(e);
                        for (kw, d) in &records {
                            w.append(e, &encode_journal_record(kw, d))?;
                        }
                        Ok(w.finish(e)?)
                    }
                }
            })?;
            let view = snap0.mem.advanced(&mem, &touched);
            (
                SegExt { journal: Some(journal), ..ext0 },
                Arc::new(SegSnapshot {
                    metas: snap0.metas.clone(),
                    sealed: snap0.sealed.clone(),
                    mem: view,
                }),
            )
        };
        self.env.with(|e| scratch.set_extension(e, ext1.encode()))?;
        Ok((touched, SegUpdate { mem, snapshot, ext: ext1 }))
    }

    /// Blocks until the commit record at `lsn` is on stable storage:
    /// an inline fsync under [`CommitMode::SyncEachCommit`], the next
    /// group-commit flush otherwise; immediate without a WAL.
    fn wait_durable(&self, lsn: u64) -> Result<()> {
        match self.durability.as_ref().map(|d| d.mode) {
            Some(CommitMode::SyncEachCommit) => {
                self.env.with(|e| e.sync_wal())?;
            }
            Some(CommitMode::GroupCommit) => self.env.with(|e| e.wait_wal_durable(lsn))?,
            None => {}
        }
        Ok(())
    }

    /// Folds the earliest eligible run of small adjacent segments into
    /// one (size-tiered policy, [`xk_segment::plan_merge`]). Returns
    /// `Ok(None)` when no run qualifies or the engine has no segment
    /// store. Serialized with appends via the append lock; queries are
    /// never blocked (they keep reading the pre-merge snapshot until the
    /// new one is published). Retired input blobs are deleted only after
    /// the merged manifest commits — live readers keep them open through
    /// their `Arc`s.
    pub fn compact_segments(&self) -> Result<Option<CompactOutcome>> {
        let Some(seg) = self.segments.as_ref() else {
            return Ok(None);
        };
        let _append_guard = lock(&self.append_lock);
        let ext0 = *lock(&seg.ext);
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
        let epoch = self.env.with(|e| e.current_epoch());
        let header = seal_blob(seg.io.as_ref(), seq, epoch, &lists)?;
        let meta = SealedMeta::of(&header);
        // Open the merged reader *before* the transaction: if the open
        // failed after commit, the published snapshot could never be
        // built and `read_view` would spin on a stale index epoch.
        let reader = match seg
            .io
            .open(seq)
            .and_then(|p| SegmentReader::open(p, Some(&meta.fence())))
        {
            Ok(r) => r,
            Err(e) => {
                // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; the next open retries it")
                let _ = seg.io.delete(seq);
                return Err(EngineError::Segment(e));
            }
        };
        let mut metas = snap0.metas.clone();
        metas.splice(run.clone(), [meta]);

        self.env.with(|e| e.begin_txn())?;
        let mut scratch = self.index().clone();
        let applied = (|| -> Result<SegExt> {
            let manifest = self.env.with(|e| write_manifest(e, &metas))?;
            if let Some(h) = &ext0.manifest {
                self.env.with(|e| free_list(e, h))?;
            }
            let ext1 = SegExt { manifest, next_seq: seq + 1, ..ext0 };
            self.env.with(|e| scratch.set_extension(e, ext1.encode()))?;
            Ok(ext1)
        })();
        let commit = match applied.and_then(|ext1| {
            self.env.with(|e| e.commit_txn()).map(|c| (ext1, c)).map_err(EngineError::from)
        }) {
            Ok((ext1, commit)) => {
                let mut sealed = snap0.sealed.clone();
                sealed.splice(run.clone(), [reader]);
                let snapshot =
                    Arc::new(SegSnapshot { metas, sealed, mem: snap0.mem.clone() });
                {
                    // xk-analyze: allow(lock_order, reason = "intentional nesting: index write lock then segment ext/snapshot locks, same order as the append publish")
                    let mut w = self.index.write().unwrap_or_else(|e| e.into_inner());
                    *w = scratch;
                    self.index_epoch.store(commit.epoch, Ordering::Release);
                    *lock(&seg.ext) = ext1;
                    *seg.snapshot.write().unwrap_or_else(|e| e.into_inner()) = snapshot;
                }
                // Retired inputs are now unreferenced by the committed
                // manifest; live readers keep them readable via their
                // open handles.
                for m in &snap0.metas[run.clone()] {
                    // xk-analyze: allow(swallowed_result, reason = "retired blob deletion is best-effort; the next open removes leftovers as orphans")
                    let _ = seg.io.delete(m.seq);
                }
                commit
            }
            Err(e) => {
                self.env.with(|env| env.abort_txn())?;
                // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; the next open retries it")
                let _ = seg.io.delete(seq);
                return Err(e);
            }
        };
        self.wait_durable(commit.lsn)?;
        Ok(Some(CompactOutcome {
            merged: run,
            seq,
            postings: header.posting_count,
            epoch: commit.epoch,
        }))
    }

    /// True when this engine stores postings in packed segments.
    pub fn segments_enabled(&self) -> bool {
        self.segments.is_some()
    }

    /// Sets the mem-segment posting count that triggers a seal
    /// (default [`DEFAULT_SEAL_THRESHOLD`]; tests and benches lower it
    /// to exercise the seal path).
    pub fn set_seal_threshold(&self, postings: u64) {
        if let Some(seg) = self.segments.as_ref() {
            seg.seal_threshold.store(postings, Ordering::Relaxed);
        }
    }

    /// The manifest records of the currently published sealed segments
    /// (empty when the engine has no segment store).
    pub fn segment_metas(&self) -> Vec<SealedMeta> {
        self.segments.as_ref().map_or_else(Vec::new, |s| s.snapshot().metas.clone())
    }

    /// Blob blocks read (pager cache misses) across all currently open
    /// sealed segments — the benchmark's cold-read probe counter
    /// (`segment.block_reads_per_probe`).
    pub fn segment_block_reads(&self) -> u64 {
        self.segments
            .as_ref()
            .map_or(0, |s| s.snapshot().sealed.iter().map(|r| r.block_reads()).sum())
    }

    /// Deep-checks the segment store — manifest against blobs, every
    /// block CRC, skip-entry monotonicity, dictionary/postings
    /// reconciliation, journal replayability. `Ok(None)` when the engine
    /// has no segment store. Runs against the committed state under the
    /// append lock, so a concurrent seal cannot tear the sweep.
    pub fn verify_segments(&self) -> Result<Option<SegmentVerifyReport>> {
        let Some(seg) = self.segments.as_ref() else {
            return Ok(None);
        };
        let _append_guard = lock(&self.append_lock);
        let ext = *lock(&seg.ext);
        let report =
            self.env.with(|e| verify_store(e, &ext, seg.io.as_ref())).map_err(EngineError::Segment)?;
        Ok(Some(report))
    }

    /// Renders the answer subtree rooted at an SLCA as pretty-printed XML
    /// — what the paper's demo shows the user.
    pub fn render_subtree(&self, slca: &Dewey) -> Result<String> {
        let mut doc_slot = lock(&self.document);
        self.ensure_document(&mut doc_slot)?;
        // xk-analyze: allow(panic_path, reason = "ensure_document fills the slot or errors out above")
        let doc = doc_slot.as_ref().expect("document loaded above");
        let node = doc
            .node_at(slca)
            .ok_or_else(|| EngineError::BadQuery(format!("no node at {slca}")))?;
        Ok(xk_xmltree::to_pretty_xml_string(doc, node))
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(ctl) = self.durability.as_mut() {
            ctl.stop.store(true, Ordering::Release);
            if let Some(handle) = ctl.committer.take() {
                handle.thread().unpark();
                // xk-analyze: allow(swallowed_result, reason = "a panicked committer cannot be reported from Drop; the WAL poison state already carries any failure")
                let _ = handle.join();
            }
        }
    }
}

/// Spawns the group-commit thread: it fsyncs the WAL every
/// `flush_interval`, turning all commit records that accumulated since
/// the previous flush into one durable batch.
// xk-analyze: root(panic_path)
fn spawn_committer(
    env: SharedEnv,
    stop: Arc<AtomicBool>,
    flush_interval: Duration,
) -> Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("xk-group-commit".into())
        .spawn(move || loop {
            std::thread::park_timeout(flush_interval);
            let stopping = stop.load(Ordering::Acquire);
            if env.with(|e| e.sync_wal()).is_err() {
                // The WAL poisoned itself and woke every durability
                // waiter with the failure; nothing is left to flush.
                break;
            }
            if stopping {
                break;
            }
        })
        .map_err(|e| EngineError::Storage(xk_storage::StorageError::from(e)))
}

/// Writes and publishes segment blob `seq` through `io`: create temp →
/// seal → finalize (sync + atomic rename). Any failure discards the
/// temp blob so nothing half-written is ever published.
fn seal_blob(
    io: &dyn SegmentIo,
    seq: u64,
    seal_epoch: u64,
    lists: &BTreeMap<String, Vec<Dewey>>,
) -> Result<xk_segment::Header> {
    let sealed = (|| -> std::result::Result<xk_segment::Header, SegmentError> {
        let pager = io.create(seq)?;
        let header = seal(pager.as_ref(), &SealSpec { seq, seal_epoch }, lists)?;
        io.finalize(seq, pager)?;
        Ok(header)
    })();
    sealed.map_err(|e| {
        io.discard_temp(seq);
        EngineError::Segment(e)
    })
}

/// The list traits are infallible, so adapters report failures out of
/// band: disk lists poison the query's env fork, segment lists fill its
/// error slot. Either means the run produced a truncated (wrong) answer
/// and must error out instead.
fn take_list_errors(qenv: &SharedEnv, slot: &ErrorSlot) -> Result<()> {
    if let Some(e) = qenv.take_error() {
        return Err(e.into());
    }
    match slot.take() {
        Some(e) => Err(EngineError::Segment(e)),
        None => Ok(()),
    }
}

/// Normalizes, validates, and frequency-orders the query keywords
/// against the layout's frequency source: the segment snapshot when
/// there is one, else `index`'s vocabulary. Returns `None` if any
/// keyword has no postings (empty result).
fn prepare(
    index: &DiskIndex,
    seg: Option<&SegSnapshot>,
    keywords: &[&str],
) -> Result<Option<(Vec<String>, Vec<u64>)>> {
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
        let freq = match seg {
            Some(s) => {
                s.sealed.iter().map(|r| r.frequency(&k)).sum::<u64>() + s.mem.frequency(&k)
            }
            None => index.frequency(&k),
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

/// `keyword`'s postings as one [`RankedList`]. A keyword has exactly one
/// kind of source: the anchored B+tree list in the reference layout, or
/// — with a segment snapshot — the sealed segments in seal order then
/// the mem segment, chained. Segment parts are id-disjoint and
/// time-ordered (the engine's tail-append invariant), so a probe touches
/// at most one. `None` when the keyword has no postings.
fn ranked_chain(
    index: &DiskIndex,
    qenv: &SharedEnv,
    seg: Option<&SegSnapshot>,
    keyword: &str,
    slot: &ErrorSlot,
) -> Option<Box<dyn RankedList>> {
    let Some(s) = seg else {
        let list = index.ranked_list(qenv.clone(), keyword)?.anchored();
        return Some(Box::new(list));
    };
    let mut parts: Vec<(Dewey, Box<dyn RankedList>)> = Vec::new();
    for r in &s.sealed {
        // The skip table carries each keyword's minimum, so sealed
        // parts cost no I/O to tag.
        if let (Some(min), Some(list)) =
            (r.min_dewey(keyword), r.ranked_list(keyword, slot.clone()))
        {
            parts.push((min.clone(), Box::new(list)));
        }
    }
    if let Some(l) = s.mem.list(keyword) {
        if let Some(min) = l.first() {
            parts.push((min.clone(), Box::new(ArcList::new(Arc::clone(l)))));
        }
    }
    if parts.is_empty() {
        return None;
    }
    Some(Box::new(ChainedRankedList::new(parts)))
}

/// [`ranked_chain`]'s streaming twin: the same sources front to back as
/// one [`StreamList`].
fn stream_chain(
    index: &DiskIndex,
    qenv: &SharedEnv,
    seg: Option<&SegSnapshot>,
    keyword: &str,
    slot: &ErrorSlot,
) -> Option<Box<dyn StreamList>> {
    let Some(s) = seg else {
        let list = index.stream_list(qenv.clone(), keyword)?;
        return (!list.is_empty()).then(|| Box::new(list) as Box<dyn StreamList>);
    };
    let mut parts: Vec<Box<dyn StreamList>> = Vec::new();
    for r in &s.sealed {
        if let Some(list) = r.stream_list(keyword, slot.clone()) {
            if !list.is_empty() {
                parts.push(Box::new(list));
            }
        }
    }
    if let Some(l) = s.mem.list(keyword) {
        if !l.is_empty() {
            parts.push(Box::new(ArcList::new(Arc::clone(l))));
        }
    }
    match parts.len() {
        0 => None,
        1 => parts.pop(),
        _ => Some(Box::new(ChainedStreamList::new(parts))),
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

/// Best-effort fsync of `path`'s parent directory so an atomic rename is
/// durable across power loss (a no-op where directories can't be synced).
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(dir) = std::fs::File::open(parent) {
            // xk-analyze: allow(swallowed_result, reason = "directory fsync is best-effort hardening; data pages are already synced")
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
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
    use super::*;
    use xk_xmltree::school_example;

    fn engine() -> Engine {
        Engine::build_in_memory(
            &school_example(),
            EnvOptions { page_size: 512, pool_pages: 256 },
        )
        .unwrap()
    }

    /// The segment layout over the same document — the one that grows.
    fn seg_engine() -> Engine {
        Engine::build_in_memory_segmented(
            &school_example(),
            EnvOptions { page_size: 512, pool_pages: 256 },
        )
        .unwrap()
    }

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

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
    fn render_subtrees() {
        let e = engine();
        let out = e.query(&["John", "Ben"], Algorithm::Auto).unwrap();
        let xml = e.render_subtree(&out.slcas[0]).unwrap();
        assert!(xml.contains("John") && xml.contains("Ben"), "{xml}");
        assert!(xml.starts_with("<class>"));
    }

    #[test]
    fn engine_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<xk_index::DiskIndex>();
        assert_send_sync::<xk_index::SharedEnv>();
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
    fn persistent_engine_roundtrip() {
        let dir = std::env::temp_dir().join(format!("xk-engine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("school.db");
        let opts = EnvOptions { page_size: 512, pool_pages: 64 };
        {
            let e = Engine::build(&school_example(), &path, opts.clone(), true).unwrap();
            let out = e.query(&["john", "ben"], Algorithm::Auto).unwrap();
            assert_eq!(out.slcas.len(), 3);
            e.with_env(|env| env.flush()).unwrap();
        }
        {
            let e = Engine::open(&path, opts).unwrap();
            let out = e.query(&["john", "ben"], Algorithm::Stack).unwrap();
            assert_eq!(out.slcas.len(), 3);
            assert!(e.render_subtree(&out.slcas[2]).unwrap().contains("project"));
        }
        std::fs::remove_dir_all(&dir).unwrap();
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

    // ---- segment-store mode ----

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

    #[test]
    fn segmented_empty_document_works() {
        let t = xk_xmltree::XmlTree::new("empty");
        let e = Engine::build_in_memory_segmented(
            &t,
            EnvOptions { page_size: 512, pool_pages: 64 },
        )
        .unwrap();
        assert!(e.segments_enabled());
        let out = e.query(&["anything"], Algorithm::Auto).unwrap();
        assert!(out.slcas.is_empty());
    }
}
