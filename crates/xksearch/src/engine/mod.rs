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
//! puts the postings into packed XKSEG2 segments instead, and that is
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
//! Reads are **snapshot isolated**, and the snapshot is one `Arc`: a
//! query clones the published segment snapshot — immutable blobs, a
//! copy-on-write mem view and the epoch they describe — and reads
//! nothing else, so it never observes a half-applied append and
//! `append_subtree` only needs `&self`. The one thing still read from
//! pages a transaction writes is the stored document's chain, an
//! append-only log (`xk_index::document`): an append adds one fragment
//! record at its tail and never rewrites what is there. Its readers —
//! the first append streaming the rightmost path, a render decoding the
//! whole tree — and the appender serialize on the `document` mutex. The
//! reference layout is never written, so it has nothing to isolate.
//!
//! Every piece of state has one owner: the [`DiskIndex`] is immutable
//! after open, the segment store's durable pointers live behind its
//! writer mutex, the document's chain handle beside what has been
//! derived from it (spine, tree) behind `document` (lock order: writer,
//! then `document`), and a commit publishes by one store.
//!
//! Durability has two modes: [`CommitMode::SyncEachCommit`] fsyncs the
//! WAL inside every append, while [`CommitMode::GroupCommit`] (the
//! default) hands the fsync to a background committer thread, woken at
//! every commit, so appends that commit while one fsync runs share the
//! next. The merger thread ([`spawn_merger`]) checkpoints the WAL once
//! it outgrows the database file by a fixed factor.

mod append;
mod compact;
mod query;

pub use compact::{spawn_merger, MergerCtl};

use crate::error::{EngineError, Result};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;
use xk_index::{
    build_disk_index, read_document, BuildOptions, DiskCursor, DiskIndex,
    IndexError, Spine,
};
use xk_segment::{
    read_manifest, replay_journal, seal, write_manifest, DirSegmentIo, MemSegment, MemSegmentIo,
    MemView, SealSpec, SealedMeta, SegExt, SegmentError, SegmentIo, SegmentReader,
};
use xk_slca::{AlgoStats, ErrorSlot, LcaKind};
use xk_storage::{
    free_list, EnvOptions, FilePager, IoStats, ListHandle, Pager, RecoveryReport, StorageEnv, Wal,
    WAL_PAGE_SIZE,
};
use xk_xmltree::{Dewey, XmlTree};

/// Which SLCA algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Pick automatically: Indexed Lookup Eager when the frequency ratio
    /// between the largest and smallest list is at least
    /// [`AUTO_RATIO_THRESHOLD`], Scan Eager otherwise — following the
    /// paper's guidance that IL wins by orders of magnitude on skewed
    /// frequencies while Scan Eager is the best variant for similar ones.
    Auto,
    /// The paper's core algorithm (Section 3.1).
    IndexedLookupEager,
    /// The paper's Section 3.2 variant (`xk_slca::scan_eager`): the
    /// eager loop of IL with every match step answered by a forward-only
    /// cursor over the keyword's posting stream, so each list is read
    /// once, front to back, and no `lm`/`rm` lookup is issued. Costs
    /// `O(d·Σ|S_i| + k·d·|S_1|)`.
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
    /// A background committer thread fsyncs the WAL, woken by every
    /// commit; appends that commit while one fsync runs share the next
    /// (the classic group commit). Appends block until their commit
    /// record is synced.
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
    /// How often the group-commit thread fsyncs the WAL when no commit
    /// wakes it: an idle backstop (ignored under
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
    /// The committed epoch this query observed: the one carried by the
    /// snapshot its lists came from. A cached answer for a keyword set
    /// is stale exactly when some later commit touched one of its
    /// keywords.
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

/// Decrements [`Engine::acks_pending`] when an append's durability wait
/// is over, whatever its outcome.
struct AckPending<'e>(&'e AtomicUsize);

impl Drop for AckPending<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
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
/// the epoch, the sealed blobs (open readers + their manifest records,
/// in seal order) and the copy-on-write view of the unsealed mem
/// segment. Cloning the `Arc` is a reader's whole snapshot; a commit
/// replaces it wholesale ([`Engine::publish`]).
struct SegSnapshot {
    epoch: u64,
    metas: Vec<SealedMeta>,
    sealed: Vec<Arc<SegmentReader>>,
    mem: MemView,
}

/// The engine's segment store (present when the index's extension bytes
/// carry a [`SegExt`] region).
struct SegState {
    io: Arc<dyn SegmentIo>,
    /// The single writer's state. Holding this guard *is* the write
    /// lock: appends, compaction and the verify sweep serialize on it;
    /// queries never take it (they read the published [`SegSnapshot`]).
    writer: Mutex<SegWriter>,
    snapshot: RwLock<Arc<SegSnapshot>>,
    seal_threshold: AtomicU64,
}

/// What only the writer reads and writes, as of the last commit.
struct SegWriter {
    /// Durable pointers (journal/manifest chains, next sequence number)
    /// — the live copy; the index keeps the bytes it read at open.
    ext: SegExt,
    /// The mutable mem segment behind the published [`MemView`].
    mem: MemSegment,
}

impl SegState {
    fn snapshot(&self) -> Arc<SegSnapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(|e| e.into_inner()))
    }
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

/// The stored document's durable pointer and what has been derived
/// from it so far. Both derived views follow every commit and only a
/// commit: a failed append leaves them as they were.
struct StoredDocument {
    /// The committed document chain (`None`: built without a document).
    /// Only a committed append moves it.
    handle: Option<ListHandle>,
    /// The rightmost path — all an append needs — streamed from the
    /// chain by the first append, in O(depth) memory.
    spine: Option<Spine>,
    /// The whole tree, decoded by the first render.
    tree: Option<XmlTree>,
}

/// A disk-backed XKSearch engine.
///
/// All operations — including [`Engine::append_subtree`] — take
/// `&self`; queries run against the snapshot they cloned while appends
/// commit transactionally, so readers and the writer never block each
/// other on data access.
pub struct Engine {
    env: Arc<StorageEnv>,
    /// The index as opened, immutable: the level table, and on the
    /// reference layout the frequency table, list handles and B+tree
    /// root its queries read.
    index: DiskIndex,
    /// The stored document. The mutex is also what isolates the
    /// document chain's tail page: every reader of the chain holds it,
    /// and so does `append_subtree` from before its transaction begins
    /// until after it is published. Taken after the segment writer
    /// mutex, never before it.
    document: Mutex<StoredDocument>,
    durability: Option<DurabilityCtl>,
    /// Appends between their commit and the end of their durability
    /// wait. Raised under the segment writer mutex, so a checkpoint
    /// holding that mutex sees every one, and waits for 0 before the
    /// WAL reset restarts the LSNs they wait on (`checkpoint_if_due`).
    acks_pending: AtomicUsize,
    /// Present when the index's extension region carries a [`SegExt`]:
    /// postings then live in packed segment blobs plus a journaled mem
    /// segment instead of B+tree posting trees, and the store's writer
    /// mutex serializes appenders. `None` is the read-only reference
    /// layout.
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
    /// serves and grows: postings go into one packed XKSEG2 blob under
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
        let mut ext = SegExt { journal: None, manifest: None, next_seq: 1 };
        if !lists.is_empty() {
            let (meta, _reader) = seal_and_open(io, ext.next_seq, env.current_epoch(), &lists)?;
            ext = install_manifest(env, &ext, &[meta])?;
        }
        let index = DiskIndex::open(env)?;
        index.write_meta(env, index.document_handle(), &ext.encode())?;
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
        let snapshot = Arc::new(SegSnapshot {
            epoch: env.current_epoch(),
            metas,
            sealed,
            mem: MemView::of(&mem),
        });
        Ok(Some(SegState {
            io,
            writer: Mutex::new(SegWriter { ext, mem }),
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
        let env = Arc::new(env);
        let durability = match durability {
            None => None,
            Some(opts) => {
                let stop = Arc::new(AtomicBool::new(false));
                let committer = match opts.mode {
                    CommitMode::SyncEachCommit => None,
                    CommitMode::GroupCommit => {
                        Some(spawn_committer(Arc::clone(&env), Arc::clone(&stop), opts.flush_interval)?)
                    }
                };
                Some(DurabilityCtl { mode: opts.mode, stop, committer })
            }
        };
        let document = StoredDocument { handle: index.document_handle(), spine: None, tree: None };
        Ok(Engine {
            env,
            index,
            document: Mutex::new(document),
            durability,
            acks_pending: AtomicUsize::new(0),
            segments,
        })
    }

    /// The committed epoch — advances on every commit.
    pub fn current_epoch(&self) -> u64 {
        self.env.current_epoch()
    }

    /// The index as opened: the level table and, on the reference
    /// layout, the frequency table and vocabulary (a segmented engine's
    /// postings are elsewhere — see [`Engine::vocabulary`]).
    pub fn index(&self) -> &DiskIndex {
        &self.index
    }

    /// Runs `f` against the storage environment (for cache control and
    /// I/O statistics in experiments).
    pub fn with_env<R>(&self, f: impl FnOnce(&StorageEnv) -> R) -> R {
        f(&self.env)
    }

    /// Drops the buffer pool — the *cold cache* state of the experiments.
    pub fn clear_cache(&self) -> Result<()> {
        self.env.clear_cache()?;
        Ok(())
    }

    /// A cursor over a keyword's list (tools, benches), standing at its
    /// first posting. `None` if the keyword does not occur. Reads the
    /// reference layout's B+tree lists only: a segmented engine's index
    /// has no postings, so this is `None` there — use
    /// [`Engine::posting_dump`] or [`Engine::posting_probe`]. The cursor
    /// is infallible: a storage failure reads as "nothing there" and
    /// fills `slot`, which the caller must check when done.
    pub fn cursor(&self, keyword: &str, slot: ErrorSlot<IndexError>) -> Option<DiskCursor> {
        self.index.cursor(&self.env, keyword, slot)
    }

    /// Counts the calling append as awaiting durability until the
    /// returned guard drops. Call it holding the segment writer mutex.
    fn ack_pending(&self) -> AckPending<'_> {
        self.acks_pending.fetch_add(1, Ordering::AcqRel);
        AckPending(&self.acks_pending)
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

    /// Renders the answer subtree rooted at an SLCA as pretty-printed XML
    /// — what the paper's demo shows the user. The first render decodes
    /// the whole stored document and keeps it; later appends graft into
    /// it.
    pub fn render_subtree(&self, slca: &Dewey) -> Result<String> {
        let mut stored = lock(&self.document);
        let chain = stored.handle.ok_or(EngineError::NoDocument)?;
        // Holding the `document` guard is what makes this page read safe.
        let doc = match &mut stored.tree {
            Some(tree) => tree,
            empty => empty.insert(read_document(&self.env, &chain)?),
        };
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

/// Spawns the group-commit thread: it fsyncs the WAL whenever a commit
/// wakes it (`Engine::wait_durable`), and every `flush_interval`
/// otherwise, turning all commit records that accumulated since the
/// previous fsync into one durable batch.
// xk-analyze: root(panic_path)
fn spawn_committer(
    env: Arc<StorageEnv>,
    stop: Arc<AtomicBool>,
    flush_interval: Duration,
) -> Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("xk-group-commit".into())
        .spawn(move || loop {
            std::thread::park_timeout(flush_interval);
            let stopping = stop.load(Ordering::Acquire);
            if env.sync_wal().is_err() {
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

/// How a sealed blob comes to exist: writes blob `seq` through `io`
/// (create temp → seal → finalize = sync + atomic rename; a failure
/// discards the temp, so nothing half-written is ever published), then
/// opens it against its own fence — always *before* any manifest names
/// it, because a committed manifest naming a blob that will not open
/// could never be published. A blob that fails the open is deleted.
fn seal_and_open(
    io: &dyn SegmentIo,
    seq: u64,
    seal_epoch: u64,
    lists: &BTreeMap<String, Vec<Dewey>>,
) -> Result<(SealedMeta, Arc<SegmentReader>)> {
    let sealed = (|| -> std::result::Result<xk_segment::Header, SegmentError> {
        let pager = io.create(seq)?;
        let header = seal(pager.as_ref(), &SealSpec { seq, seal_epoch }, lists)?;
        io.finalize(seq, pager)?;
        Ok(header)
    })();
    let header = sealed.map_err(|e| {
        io.discard_temp(seq);
        EngineError::Segment(e)
    })?;
    let meta = SealedMeta::of(&header);
    match io.open(seq).and_then(|p| SegmentReader::open(p, Some(&meta.fence()))) {
        Ok(reader) => Ok((meta, reader)),
        Err(e) => {
            // xk-analyze: allow(swallowed_result, reason = "orphan blob cleanup is best-effort; the next open retries it")
            let _ = io.delete(seq);
            Err(EngineError::Segment(e))
        }
    }
}

/// How a sealed blob ([`seal_and_open`], so already durable) enters the
/// store, inside the caller's transaction: `metas` — the manifest with
/// the new blob in it — is written as a fresh chain, the chain it
/// supersedes is freed (undo-logged, so an abort restores it), and the
/// returned [`SegExt`] is `ext` re-pointed, the blob's sequence number
/// consumed. Nothing names the blob until the caller's commit record.
fn install_manifest(env: &StorageEnv, ext: &SegExt, metas: &[SealedMeta]) -> Result<SegExt> {
    let manifest = write_manifest(env, metas)?;
    if let Some(old) = &ext.manifest {
        free_list(env, old)?;
    }
    Ok(SegExt { manifest, next_seq: ext.next_seq + 1, ..*ext })
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

/// The fixtures every `engine` test module shares.
#[cfg(test)]
mod fixtures {
    use super::*;
    use xk_xmltree::school_example;

    /// The read-only reference layout over the paper's Figure 1.
    pub fn engine() -> Engine {
        Engine::build_in_memory(
            &school_example(),
            EnvOptions { page_size: 512, pool_pages: 256 },
        )
        .unwrap()
    }

    /// The segment layout over the same document — the one that grows.
    pub fn seg_engine() -> Engine {
        Engine::build_in_memory_segmented(
            &school_example(),
            EnvOptions { page_size: 512, pool_pages: 256 },
        )
        .unwrap()
    }

    pub fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    /// A segmented school database over in-memory pagers plus the blob
    /// store it references — both survive a simulated crash and are
    /// handed to every reopen.
    pub fn seeded_pagers() -> (Arc<dyn Pager>, Arc<dyn SegmentIo>) {
        seeded_pagers_with(&school_example())
    }

    /// [`seeded_pagers`] over any document.
    pub fn seeded_pagers_with(tree: &XmlTree) -> (Arc<dyn Pager>, Arc<dyn SegmentIo>) {
        let db = Arc::new(xk_storage::MemPager::new(512));
        let env = StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), 128).unwrap();
        let io = Arc::new(MemSegmentIo::new(env.physical_page_size()));
        Engine::build_segment_store_with(&env, tree, io.as_ref(), true).unwrap();
        env.flush().unwrap();
        (db, io)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use xk_xmltree::school_example;

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
