//! The storage environment: a pager fronted by a sharded LRU buffer pool.
//!
//! [`StorageEnv`] is the single entry point the index structures use. It
//! provides page access through closures (`with_page` / `with_page_mut`),
//! page allocation with a free list, named root slots in the meta page, a
//! small user-metadata blob, and cache control for the hot/cold-cache
//! experiments (`clear_cache` drops every cached page so the next access of
//! each page is a real disk read).
//!
//! # Concurrency model
//!
//! The env is `Send + Sync` and all operations take `&self`; it is shared
//! across query threads behind an `Arc`. Three mechanisms cooperate:
//!
//! * **Sharded buffer pool.** Frames live in N shards, page `p` belonging
//!   to shard `p % N`, each shard a `Mutex` around its own frame table,
//!   page map, and intrusive LRU list. Readers of different pages contend
//!   only when the pages share a shard; a page's bytes are only ever
//!   touched under its shard lock, so a closure passed to `with_page`
//!   never sees a torn page — and is promised no more than that (see
//!   [`StorageEnv::with_page`]). N is derived from the pool size
//!   (`clamp(pool_pages / 8, 1, 8)`) so tiny test pools keep exact
//!   single-LRU eviction semantics while production-sized pools spread
//!   across 8 shards.
//! * **Atomic I/O stats.** Counters are relaxed atomics
//!   ([`crate::stats::AtomicIoStats`]); `stats()` returns a snapshot.
//! * **A single write lock.** Every mutating operation (`with_page_mut`,
//!   `allocate_page`, `free_page`, root-slot/blob writes, `flush`,
//!   `clear_cache`) serializes on one mutex that also guards the
//!   dirty-shutdown flag state. Lock order is strictly *write lock →
//!   one shard lock*; readers take only a shard lock. The read path can
//!   still write to disk — evicting a dirty page writes it back — but a
//!   page can only *become* dirty under the write lock, after the
//!   write-ahead dirty mark below is on disk, so eviction write-backs
//!   never race the clean-shutdown protocol (see `flush`).
//!
//! # On-disk format v2 (`XKSTORE2`)
//!
//! Every physical page ends in an 8-byte trailer: a little-endian CRC-32
//! of the payload plus four reserved zero bytes. Callers never see the
//! trailer — [`StorageEnv::page_size`] reports the *usable* payload size
//! and the page closures receive only the payload slice. Checksums are
//! stamped on every write-back and verified on every buffer-pool miss, so
//! a torn or bit-flipped page surfaces as
//! [`StorageError::ChecksumMismatch`] naming the page instead of being
//! garbage-decoded. A page whose payload and trailer are entirely zero is
//! exempt: that is the state of a freshly grown page that was never
//! written (a real CRC-32 of a zero payload is nonzero, so the exemption
//! cannot mask a corrupted written page).
//!
//! The meta page (page 0) additionally carries a format version and a
//! dirty flag. The flag is forced to disk *before* the first data-page
//! mutation can reach the file and cleared as the last step of
//! [`StorageEnv::flush`]; [`StorageEnv::open`] refuses files whose flag
//! is still set with [`StorageError::DirtyShutdown`], which is how a
//! crashed writer is detected on the next open.

use crate::checksum::{stamp_trailer, verify_trailer};
use crate::error::{Result, StorageError};
use crate::pager::{FilePager, MemPager, PageId, Pager};
use crate::stats::{AtomicIoStats, IoStats};
use crate::wal::Wal;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const MAGIC: &[u8; 8] = b"XKSTORE2";
const MAGIC_V1: &[u8; 8] = b"XKSTORE1";
/// On-disk format version stored in the meta page.
pub const FORMAT_VERSION: u16 = 2;
/// Bytes reserved at the end of every physical page for the CRC trailer.
pub const PAGE_TRAILER: usize = 8;

// Meta-page payload layout.
const META_PAGE_SIZE: usize = 8; // u32: physical page size
const META_VERSION: usize = 12; // u16: FORMAT_VERSION
const META_FLAGS: usize = 14; // u8: FLAG_* bits ([15] reserved)
const META_FREELIST: usize = 16;
const META_ROOTS: usize = 20;
/// Number of named B+tree root slots in the meta page.
pub const ROOT_SLOTS: usize = 8;
const META_BLOB_LEN: usize = META_ROOTS + 4 * ROOT_SLOTS;
const META_BLOB: usize = META_BLOB_LEN + 4;

const FLAG_DIRTY: u8 = 1;

/// Upper bound on buffer-pool shards; the actual count also never
/// exceeds `pool_pages / 8` so small pools degrade to one exact LRU.
const MAX_SHARDS: usize = 8;

/// Configuration for creating or opening a [`StorageEnv`].
#[derive(Debug, Clone)]
pub struct EnvOptions {
    /// Physical page size in bytes (power of two, >= 128). Default 4096.
    /// Used when *creating* a file; `open` reads the size from the meta
    /// header instead.
    pub page_size: usize,
    /// Buffer pool capacity in pages. Default 1024 (4 MiB at 4 KiB pages).
    /// The pool is split into `clamp(pool_pages / 8, 1, 8)` LRU shards.
    pub pool_pages: usize,
}

impl Default for EnvOptions {
    fn default() -> Self {
        EnvOptions { page_size: 4096, pool_pages: 1024 }
    }
}

struct Frame {
    data: Box<[u8]>,
    dirty: bool,
    /// False while the frame holds data whose WAL record is not yet
    /// durable: such a frame must not reach the database file (eviction
    /// skips it, `flush` phase 1 skips it, `clear_cache` retains it).
    /// Always true on a WAL-less env.
    logged: bool,
    /// Which un-logging event last cleared `logged` (a per-transaction
    /// stamp). The post-sync drain only re-logs a frame whose stamp still
    /// matches, so a commit's durability cannot accidentally bless bytes
    /// a *later* transaction wrote into the same frame.
    log_stamp: u64,
    /// Intrusive LRU links: indices into `Shard::frames`.
    prev: usize,
    next: usize,
    page: PageId,
}

const NIL: usize = usize::MAX;

/// Locks a mutex, ignoring poisoning (the env's invariants are restored
/// by the error paths, not by panics mid-critical-section).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One buffer-pool shard: an independent LRU over its slice of pages.
struct Shard {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    free_frames: Vec<usize>,
    lru_head: usize, // most recently used
    lru_tail: usize, // least recently used
}

impl Shard {
    fn new() -> Shard {
        Shard {
            frames: Vec::new(),
            map: HashMap::new(),
            free_frames: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
        }
    }

    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    fn lru_unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.lru_tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    fn lru_push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.lru_head;
        if self.lru_head != NIL {
            self.frames[self.lru_head].prev = idx;
        }
        self.lru_head = idx;
        if self.lru_tail == NIL {
            self.lru_tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.lru_head != idx {
            self.lru_unlink(idx);
            self.lru_push_front(idx);
        }
    }
}

/// Mutation-side state guarded by the env's write lock.
struct WriteState {
    /// True while the on-disk meta page has a *clear* dirty flag, i.e.
    /// the file claims to be clean. Any mutation must first push a dirty
    /// meta page to disk (see `ensure_dirty_marked`).
    clean_on_disk: bool,
    /// The in-flight transaction, if any (see [`StorageEnv::begin_txn`]).
    txn: Option<TxnState>,
}

/// Per-page rollback record captured at a transaction's first touch.
struct UndoEntry {
    /// Full physical pre-image.
    image: Box<[u8]>,
    /// The frame's `logged`/`log_stamp` before this transaction touched
    /// it, restored on abort (the prior state may itself be a
    /// committed-but-unsynced transaction's).
    prior_logged: bool,
    prior_stamp: u64,
}

/// An open transaction: undo images keyed by page, first-touch order,
/// and the pages grown from the file tail (freed on rollback only by
/// abandonment — see `abort_txn`).
struct TxnState {
    /// Unique stamp marking the frames this transaction un-logged.
    stamp: u64,
    undo: HashMap<PageId, UndoEntry>,
    order: Vec<PageId>,
    grown: Vec<PageId>,
}

/// A committed transaction whose WAL records are not yet fsynced; the
/// post-sync drain flips its frames back to `logged`.
struct UnsyncedTxn {
    lsn: u64,
    pages: Vec<(PageId, u64)>,
}

/// The result of a successful [`StorageEnv::commit_txn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnCommit {
    /// The epoch this commit established ([`StorageEnv::current_epoch`]
    /// from now until the next commit).
    pub epoch: u64,
    /// LSN of the commit record, for [`StorageEnv::wait_wal_durable`].
    /// Zero on a WAL-less env (nothing to wait for).
    pub lsn: u64,
}

/// A pager fronted by a sharded LRU buffer pool with I/O accounting.
/// `Send + Sync`: share it across query threads behind an `Arc`.
pub struct StorageEnv {
    pager: Box<dyn Pager>,
    shards: Vec<Mutex<Shard>>,
    /// Frame capacity *per shard*.
    shard_capacity: usize,
    stats: AtomicIoStats,
    /// Serializes every mutating operation; see the module docs. A
    /// writer can hold it across WAL appends and page I/O, so it is
    /// declared contended: the reactor thread must never block on it.
    // xk-analyze: protocol(reactor_blocking, contended)
    write_state: Mutex<WriteState>,
    /// Monotone counter bumped by every mutating operation. Anchored
    /// B+tree cursors snapshot it when they pin a root-to-leaf path and
    /// treat any later bump as an invalidation signal (conservative: any
    /// write anywhere in the env discards pinned paths).
    data_version: AtomicU64,
    /// Last committed epoch (starts at 1), stored by `commit_txn` under
    /// the write lock.
    committed_epoch: AtomicU64,
    /// Committed transactions whose WAL records await an fsync.
    unsynced: Mutex<Vec<UnsyncedTxn>>,
    /// Source of per-transaction `log_stamp`s.
    txn_stamps: AtomicU64,
    /// The write-ahead log, if this env is durable (see `attach_wal`).
    wal: Option<Wal>,
}

impl StorageEnv {
    /// Creates a new storage file at `path`.
    pub fn create(path: impl AsRef<Path>, options: EnvOptions) -> Result<StorageEnv> {
        let pager = FilePager::create(path.as_ref(), options.page_size)?;
        Self::create_with_pager(Box::new(pager), options.pool_pages)
    }

    /// Opens an existing storage file at `path`. The page size is read
    /// from the meta header, not from `options`; a header whose size is
    /// implausible or inconsistent with the file length is rejected as
    /// [`StorageError::Corrupt`], and a file whose dirty flag is set is
    /// rejected as [`StorageError::DirtyShutdown`].
    pub fn open(path: impl AsRef<Path>, options: EnvOptions) -> Result<StorageEnv> {
        let path = path.as_ref();
        let page_size = Self::detect_page_size(path, options.page_size)?;
        let pager = FilePager::open(path, page_size)?;
        Self::open_with_pager(Box::new(pager), options.pool_pages)
    }

    /// Creates an ephemeral in-memory environment (tests, transient work).
    pub fn in_memory(options: EnvOptions) -> StorageEnv {
        let pager = MemPager::new(options.page_size);
        Self::create_with_pager(Box::new(pager), options.pool_pages)
            .expect("in-memory init cannot fail")
    }

    /// Initializes a fresh environment over an arbitrary pager (e.g. a
    /// [`crate::FaultPager`] for crash-simulation tests). The pager must
    /// be empty or about to be overwritten.
    pub fn create_with_pager(pager: Box<dyn Pager>, pool_pages: usize) -> Result<StorageEnv> {
        let env = Self::with_pager(pager, pool_pages);
        env.init_meta()?;
        Ok(env)
    }

    /// Opens an environment over an arbitrary pager holding an existing
    /// `XKSTORE2` image. The pager's page size must match the file's.
    pub fn open_with_pager(pager: Box<dyn Pager>, pool_pages: usize) -> Result<StorageEnv> {
        let env = Self::with_pager(pager, pool_pages);
        env.check_meta()?;
        env.write_lock().clean_on_disk = true;
        Ok(env)
    }

    fn with_pager(pager: Box<dyn Pager>, pool_pages: usize) -> StorageEnv {
        let capacity = pool_pages.max(8);
        let nshards = (capacity / 8).clamp(1, MAX_SHARDS);
        StorageEnv {
            pager,
            shards: (0..nshards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity: capacity.div_ceil(nshards),
            stats: AtomicIoStats::default(),
            write_state: Mutex::new(WriteState { clean_on_disk: false, txn: None }),
            data_version: AtomicU64::new(0),
            committed_epoch: AtomicU64::new(1),
            unsynced: Mutex::new(Vec::new()),
            txn_stamps: AtomicU64::new(0),
            wal: None,
        }
    }

    /// Reads the page size out of the meta header so `open` does not have
    /// to trust `EnvOptions::page_size`. `configured` is only quoted in
    /// error messages.
    // xk-analyze: allow(panic_path, reason = "fixed-width header slices; ps is validated non-zero before the modulo")
    fn detect_page_size(path: &Path, configured: usize) -> Result<usize> {
        use std::io::Read;
        let mut file = std::fs::File::open(path)?;
        let mut header = [0u8; 16];
        file.read_exact(&mut header).map_err(|_| {
            StorageError::Corrupt("file too short to hold a meta-page header".into())
        })?;
        if &header[..8] == MAGIC_V1 {
            return Err(StorageError::Corrupt(
                "file uses the retired XKSTORE1 format (no checksums); rebuild the index".into(),
            ));
        }
        if &header[..8] != MAGIC {
            return Err(StorageError::Corrupt("bad magic".into()));
        }
        let ps = u32::from_le_bytes(
            header[META_PAGE_SIZE..META_PAGE_SIZE + 4]
                .try_into()
                .expect("4-byte slice of a 16-byte header"),
        ) as usize;
        if !(128..=1 << 24).contains(&ps) || !ps.is_power_of_two() {
            return Err(StorageError::Corrupt(format!(
                "implausible page size {ps} in meta header (configured page size: {configured})"
            )));
        }
        let len = file.metadata()?.len();
        if len % ps as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file length {len} is not a multiple of the header page size {ps} \
                 (configured page size: {configured})"
            )));
        }
        Ok(ps)
    }

    // xk-analyze: allow(panic_path, reason = "meta-page field offsets are compile-time constants well under MIN_PAGE_SIZE, which open/create enforce")
    fn init_meta(&self) -> Result<()> {
        let ps = self.pager.page_size();
        self.with_page_mut(PageId::META, |page| {
            page[..8].copy_from_slice(MAGIC);
            page[META_PAGE_SIZE..META_PAGE_SIZE + 4]
                .copy_from_slice(&(ps as u32).to_le_bytes());
            page[META_VERSION..META_VERSION + 2]
                .copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            // Born dirty: the file is not consistent until the first flush.
            page[META_FLAGS] = FLAG_DIRTY;
            page[META_FREELIST..META_FREELIST + 4]
                .copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
            for slot in 0..ROOT_SLOTS {
                let off = META_ROOTS + slot * 4;
                page[off..off + 4].copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
            }
            page[META_BLOB_LEN..META_BLOB_LEN + 4].copy_from_slice(&0u32.to_le_bytes());
        })
    }

    // xk-analyze: allow(panic_path, reason = "fixed-width slices of the meta payload cannot fail try_into")
    fn check_meta(&self) -> Result<()> {
        let expected = self.pager.page_size() as u32;
        self.with_page(PageId::META, |page| {
            if &page[..8] == MAGIC_V1 {
                return Err(StorageError::Corrupt(
                    "file uses the retired XKSTORE1 format (no checksums); rebuild the index"
                        .into(),
                ));
            }
            if &page[..8] != MAGIC {
                return Err(StorageError::Corrupt("bad magic".into()));
            }
            let ps = u32::from_le_bytes(
                page[META_PAGE_SIZE..META_PAGE_SIZE + 4]
                    .try_into()
                    .expect("4-byte slice of the meta payload"),
            );
            if ps != expected {
                return Err(StorageError::Corrupt(format!(
                    "file page size {ps} does not match pager page size {expected}"
                )));
            }
            let version = u16::from_le_bytes(
                page[META_VERSION..META_VERSION + 2]
                    .try_into()
                    .expect("2-byte slice of the meta payload"),
            );
            if version != FORMAT_VERSION {
                return Err(StorageError::Corrupt(format!(
                    "unsupported format version {version} (this build reads {FORMAT_VERSION})"
                )));
            }
            if page[META_FLAGS] & FLAG_DIRTY != 0 {
                return Err(StorageError::DirtyShutdown);
            }
            Ok(())
        })?
    }

    /// The usable payload size of a page — the physical page size minus
    /// the CRC trailer. All structure capacities derive from this.
    pub fn page_size(&self) -> usize {
        self.pager.page_size() - PAGE_TRAILER
    }

    /// The physical page size of the backing store (payload + trailer).
    pub fn physical_page_size(&self) -> usize {
        self.pager.page_size()
    }

    /// Number of pages in the backing store (including meta and free pages).
    pub fn page_count(&self) -> u32 {
        self.pager.page_count()
    }

    /// Current I/O counters (a snapshot of the atomic counters).
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the I/O counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Number of buffer-pool shards (derived from the pool size).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The current data version: a counter bumped by every mutating
    /// operation (`with_page_mut`, `allocate_page`, `free_page`, root-slot
    /// and blob writes). Anchored cursors compare this against the value
    /// they pinned to detect that their cached root-to-leaf path may be
    /// stale. Relaxed ordering suffices: mutations and the probes that
    /// observe them are already ordered by the env's locks.
    pub fn data_version(&self) -> u64 {
        self.data_version.load(Ordering::Relaxed)
    }

    fn bump_data_version(&self) {
        self.data_version.fetch_add(1, Ordering::Relaxed);
    }

    // ---- checksum trailer ----

    /// Recomputes and stores the CRC trailer of a physical page buffer
    /// (shared machinery with the WAL: [`crate::checksum::stamp_trailer`]).
    fn stamp_page(data: &mut [u8]) {
        stamp_trailer(data);
    }

    /// Checks the CRC trailer of a freshly read physical page buffer.
    fn verify_page(data: &[u8], id: PageId) -> Result<()> {
        verify_trailer(data).map_err(|(stored, computed)| StorageError::ChecksumMismatch {
            page: id.0,
            stored,
            computed,
        })
    }

    // ---- buffer pool ----

    // xk-analyze: allow(panic_path, reason = "slot is id modulo shards.len(), which is non-zero by construction")
    fn shard(&self, id: PageId) -> MutexGuard<'_, Shard> {
        let slot = id.0 as usize % self.shards.len();
        self.shards[slot].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn write_lock(&self) -> MutexGuard<'_, WriteState> {
        self.write_state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Loads `id` into its shard (if absent) and returns its frame index.
    /// Pool misses verify the page checksum before the page is admitted.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "miss path reads the page into the frame this shard guard owns; the documented pool design")
    fn fetch(&self, shard: &mut Shard, id: PageId) -> Result<usize> {
        self.stats.record_logical_read();
        if let Some(&idx) = shard.map.get(&id) {
            shard.touch(idx);
            return Ok(idx);
        }
        self.stats.record_disk_read();
        let idx = self.acquire_frame(shard)?;
        let ps = self.pager.page_size();
        if shard.frames[idx].data.len() != ps {
            shard.frames[idx].data = vec![0u8; ps].into_boxed_slice();
        }
        if let Err(e) = self.pager.read_page(id, &mut shard.frames[idx].data) {
            // Hand the frame back so a failing pager cannot drain the pool.
            shard.free_frames.push(idx);
            return Err(e);
        }
        if let Err(e) = Self::verify_page(&shard.frames[idx].data, id) {
            shard.free_frames.push(idx);
            return Err(e);
        }
        shard.frames[idx].dirty = false;
        shard.frames[idx].logged = true;
        shard.frames[idx].log_stamp = 0;
        shard.frames[idx].page = id;
        shard.map.insert(id, idx);
        shard.lru_push_front(idx);
        Ok(idx)
    }

    fn push_fresh_frame(&self, shard: &mut Shard) -> usize {
        let ps = self.pager.page_size();
        shard.frames.push(Frame {
            data: vec![0u8; ps].into_boxed_slice(),
            dirty: false,
            logged: true,
            log_stamp: 0,
            prev: NIL,
            next: NIL,
            page: PageId(u32::MAX),
        });
        shard.frames.len() - 1
    }

    /// Finds a free frame in the shard, evicting its LRU page if full.
    /// Frames holding un-logged data are never victims: writing them to
    /// the database file before their WAL record is durable would break
    /// the commit-record atomicity point. When every frame is pinned that
    /// way, the shard temporarily overshoots its capacity instead.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "eviction write-back of the victim frame happens under its shard guard by design")
    fn acquire_frame(&self, shard: &mut Shard) -> Result<usize> {
        if let Some(idx) = shard.free_frames.pop() {
            return Ok(idx);
        }
        if shard.frames.len() < self.shard_capacity {
            return Ok(self.push_fresh_frame(shard));
        }
        // Evict the shard's least recently used evictable page.
        let mut victim = shard.lru_tail;
        while victim != NIL && shard.frames[victim].dirty && !shard.frames[victim].logged {
            victim = shard.frames[victim].prev;
        }
        if victim == NIL {
            return Ok(self.push_fresh_frame(shard));
        }
        shard.lru_unlink(victim);
        let page = shard.frames[victim].page;
        if shard.frames[victim].dirty {
            // Write-back is safe without the write lock: the page became
            // dirty under it, after the dirty mark reached disk.
            self.stats.record_disk_write();
            // Borrow dance: take the buffer out while writing.
            let mut data = std::mem::take(&mut shard.frames[victim].data);
            Self::stamp_page(&mut data);
            let res = self.pager.write_page(page, &data);
            shard.frames[victim].data = data;
            res?;
        }
        self.stats.record_eviction();
        shard.map.remove(&page);
        Ok(victim)
    }

    /// Forces the on-disk dirty flag on before the first mutation of this
    /// "write epoch" — the write-ahead half of the clean-shutdown
    /// protocol. No data page can reach disk while the file still claims
    /// to be clean; `flush` clears the flag again as its final act.
    /// Caller holds the write lock.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "dirty-marking persists the meta page before first reuse; write ordering requires the guard")
    fn ensure_dirty_marked(&self, ws: &mut WriteState) -> Result<()> {
        if !ws.clean_on_disk {
            return Ok(());
        }
        let shard = &mut *self.shard(PageId::META);
        let idx = self.fetch(shard, PageId::META)?;
        shard.frames[idx].data[META_FLAGS] |= FLAG_DIRTY;
        self.stats.record_disk_write();
        let mut data = std::mem::take(&mut shard.frames[idx].data);
        Self::stamp_page(&mut data);
        let res = self.pager.write_page(PageId::META, &data);
        shard.frames[idx].data = data;
        res?;
        self.pager.sync()?;
        shard.frames[idx].dirty = false;
        ws.clean_on_disk = false;
        Ok(())
    }

    /// Runs `f` with read access to the payload of page `id`. The shard
    /// lock is held while `f` runs: `f` must not call back into the env.
    ///
    /// The pool keeps no page versions: a read racing an open transaction
    /// sees its uncommitted bytes. A caller that must not serializes with
    /// the writer on its own lock.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "the read fixes the frame this guard pins; see module docs on the pool design")
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let usable = self.page_size();
        let shard = &mut *self.shard(id);
        let idx = self.fetch(shard, id)?;
        Ok(f(&shard.frames[idx].data[..usable]))
    }

    /// Runs `f` with write access to the payload of page `id`; the page
    /// is marked dirty (in the pool and, write-ahead, on disk).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut ws = self.write_lock();
        self.ensure_dirty_marked(&mut ws)?;
        self.bump_data_version();
        self.page_mut_locked(&mut ws, id, f)
    }

    /// `with_page_mut` body, for callers already holding the write lock
    /// with the dirty mark ensured. Inside a transaction, the first touch
    /// of each page captures its pre-image for rollback and un-logs the
    /// frame so it cannot reach the database file before the
    /// transaction's WAL record does.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "the write path pins the frame under its shard guard by design")
    fn page_mut_locked<R>(
        &self,
        ws: &mut WriteState,
        id: PageId,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        let usable = self.page_size();
        let shard = &mut *self.shard(id);
        let idx = self.fetch(shard, id)?;
        if let Some(txn) = ws.txn.as_mut() {
            if let std::collections::hash_map::Entry::Vacant(slot) = txn.undo.entry(id) {
                slot.insert(UndoEntry {
                    image: shard.frames[idx].data.clone(),
                    prior_logged: shard.frames[idx].logged,
                    prior_stamp: shard.frames[idx].log_stamp,
                });
                txn.order.push(id);
            }
            if self.wal.is_some() {
                shard.frames[idx].logged = false;
                shard.frames[idx].log_stamp = txn.stamp;
            }
        }
        shard.frames[idx].dirty = true;
        Ok(f(&mut shard.frames[idx].data[..usable]))
    }

    /// Copies the payload of page `id` out of the pool.
    pub fn read_page_copy(&self, id: PageId) -> Result<Vec<u8>> {
        self.with_page(id, |p| p.to_vec())
    }

    /// Writes back every dirty page (the pool keeps its contents), then
    /// marks the file clean. Two phases, each followed by a sync: data
    /// pages first, the clean meta page last, so a crash between the two
    /// still leaves the dirty flag set.
    ///
    /// Safe against concurrent readers: a page can only become dirty
    /// under the write lock (held here), so the dirty set can only
    /// shrink while flush runs. A reader evicting a still-dirty page
    /// writes it back *before* this flush reaches that shard — and hence
    /// before the phase-1 sync — never after.
    // xk-analyze: root(durability_order)
    pub fn flush(&self) -> Result<()> {
        let mut ws = self.write_lock();
        self.flush_locked(&mut ws)
    }

    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "flush writes each dirty frame back under its shard guard; the documented pool design")
    fn flush_locked(&self, ws: &mut WriteState) -> Result<()> {
        // On a durable env, checkpoint the log first: syncing the WAL
        // re-logs every committed frame, so the write-back below covers
        // everything that is allowed to reach the database file.
        if self.wal.is_some() {
            self.sync_wal()?;
        }
        let any_dirty = self.shards.iter().any(|s| {
            let shard = s.lock().unwrap_or_else(|e| e.into_inner());
            shard.frames.iter().any(|f| f.dirty && f.page.0 != u32::MAX)
        });
        if !any_dirty && ws.clean_on_disk {
            return Ok(()); // read-only session: nothing to write
        }
        // Phase 1: all dirty *logged* pages except the meta page. A frame
        // whose WAL record is not durable (an open transaction's writes)
        // stays in the pool.
        let mut skipped_unlogged = 0usize;
        for s in &self.shards {
            let shard = &mut *s.lock().unwrap_or_else(|e| e.into_inner());
            for idx in 0..shard.frames.len() {
                let page = shard.frames[idx].page;
                if !shard.frames[idx].dirty || page.0 == u32::MAX {
                    continue;
                }
                if !shard.frames[idx].logged {
                    skipped_unlogged += 1;
                    continue;
                }
                if page == PageId::META {
                    continue;
                }
                self.stats.record_disk_write();
                let mut data = std::mem::take(&mut shard.frames[idx].data);
                Self::stamp_page(&mut data);
                let res = self.pager.write_page(page, &data);
                shard.frames[idx].data = data;
                res?;
                shard.frames[idx].dirty = false;
            }
        }
        self.pager.sync()?;
        if skipped_unlogged > 0 || ws.txn.is_some() {
            // Mid-transaction checkpoint: the file must stay dirty (it is
            // not self-consistent without the WAL), so skip phase 2 and
            // keep the log.
            return Ok(());
        }
        // Phase 2: the meta page, with the dirty flag cleared.
        {
            let shard = &mut *self.shard(PageId::META);
            let idx = self.fetch(shard, PageId::META)?;
            shard.frames[idx].data[META_FLAGS] &= !FLAG_DIRTY;
            self.stats.record_disk_write();
            let mut data = std::mem::take(&mut shard.frames[idx].data);
            Self::stamp_page(&mut data);
            let res = self.pager.write_page(PageId::META, &data);
            shard.frames[idx].data = data;
            res?;
            shard.frames[idx].dirty = false;
        }
        self.pager.sync()?;
        ws.clean_on_disk = true;
        // The checkpoint is durable: every logged transaction is now in
        // the database file, so the log can be retired. A crash between
        // the phase-2 sync and the reset replays already-applied
        // transactions — idempotent, hence harmless.
        if let Some(wal) = &self.wal {
            wal.reset()?;
        }
        Ok(())
    }

    /// Flushes and then drops every cached page — the *cold cache* state of
    /// the paper's experiments: the next access to any page is a disk read.
    /// Frames holding un-logged transaction writes survive (dropping them
    /// would lose the only copy of data the WAL has not yet made durable).
    pub fn clear_cache(&self) -> Result<()> {
        let mut ws = self.write_lock();
        self.flush_locked(&mut ws)?;
        for s in &self.shards {
            let shard = &mut *s.lock().unwrap_or_else(|e| e.into_inner());
            let kept: Vec<Frame> = shard
                .frames
                .drain(..)
                .filter(|f| f.dirty && !f.logged && f.page.0 != u32::MAX)
                .collect();
            shard.map.clear();
            shard.free_frames.clear();
            shard.lru_head = NIL;
            shard.lru_tail = NIL;
            shard.frames = kept;
            for idx in 0..shard.frames.len() {
                shard.frames[idx].prev = NIL;
                shard.frames[idx].next = NIL;
                shard.map.insert(shard.frames[idx].page, idx);
                shard.lru_push_front(idx);
            }
        }
        Ok(())
    }

    /// Number of pool frames currently allocated (across all shards);
    /// bounded by the pool capacity even under failing reads.
    pub fn resident_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).frames.len())
            .sum()
    }

    // ---- allocation ----

    /// Allocates a page: pops the free list or grows the file.
    // xk-analyze: allow(panic_path, reason = "freelist head bytes are a fixed 4-byte header slice")
    // xk-analyze: allow(io_under_lock, reason = "frame acquisition for the fresh page evicts under the shard guard by design")
    pub fn allocate_page(&self) -> Result<PageId> {
        let mut ws = self.write_lock();
        self.ensure_dirty_marked(&mut ws)?;
        self.bump_data_version();
        let head = self.freelist_head()?;
        if let Some(free) = head {
            let next = self.with_page(free, |p| {
                u32::from_le_bytes(p[..4].try_into().expect("4-byte freelist link"))
            })?;
            self.set_freelist_head(&mut ws, PageId::decode_opt(next))?;
            // Zero the page for the new user.
            self.page_mut_locked(&mut ws, free, |p| p.fill(0))?;
            return Ok(free);
        }
        let id = self.pager.grow()?;
        // Inside a transaction the fresh page has no pre-image to undo:
        // rollback abandons it instead (see `abort_txn`), and its frame
        // is un-logged like any other transactional write.
        let in_txn = if let Some(txn) = ws.txn.as_mut() {
            txn.grown.push(id);
            Some(txn.stamp)
        } else {
            None
        };
        // Materialize a zeroed frame for the new page so the first access
        // does not count as a disk read (the page has never been written).
        let shard = &mut *self.shard(id);
        let idx = self.acquire_frame(shard)?;
        let ps = self.pager.page_size();
        if shard.frames[idx].data.len() != ps {
            shard.frames[idx].data = vec![0u8; ps].into_boxed_slice();
        } else {
            shard.frames[idx].data.fill(0);
        }
        shard.frames[idx].dirty = true;
        match in_txn {
            Some(stamp) if self.wal.is_some() => {
                shard.frames[idx].logged = false;
                shard.frames[idx].log_stamp = stamp;
            }
            _ => {
                shard.frames[idx].logged = true;
                shard.frames[idx].log_stamp = 0;
            }
        }
        shard.frames[idx].page = id;
        shard.map.insert(id, idx);
        shard.lru_push_front(idx);
        Ok(id)
    }

    /// Returns a page to the free list.
    pub fn free_page(&self, id: PageId) -> Result<()> {
        assert_ne!(id, PageId::META, "cannot free the meta page");
        let mut ws = self.write_lock();
        self.ensure_dirty_marked(&mut ws)?;
        self.bump_data_version();
        let head = self.freelist_head()?;
        self.page_mut_locked(&mut ws, id, |p| {
            p[..4].copy_from_slice(&PageId::encode_opt(head).to_le_bytes());
        })?;
        self.set_freelist_head(&mut ws, Some(id))
    }

    /// Caller holds the write lock with the dirty mark ensured.
    // xk-analyze: allow(panic_path, reason = "meta-page header slices are fixed-width")
    fn freelist_head(&self) -> Result<Option<PageId>> {
        self.with_page(PageId::META, |p| {
            PageId::decode_opt(u32::from_le_bytes(
                p[META_FREELIST..META_FREELIST + 4]
                    .try_into()
                    .expect("4-byte freelist head in meta"),
            ))
        })
    }

    /// Caller holds the write lock with the dirty mark ensured.
    fn set_freelist_head(&self, ws: &mut WriteState, head: Option<PageId>) -> Result<()> {
        self.page_mut_locked(ws, PageId::META, |p| {
            p[META_FREELIST..META_FREELIST + 4]
                .copy_from_slice(&PageId::encode_opt(head).to_le_bytes());
        })
    }

    // ---- named roots & user blob ----

    /// Reads named root slot `slot` (for B+tree roots and list directories).
    // xk-analyze: allow(panic_path, reason = "root-slot offsets are bounded by ROOT_SLOTS")
    pub fn root_slot(&self, slot: usize) -> Result<Option<PageId>> {
        assert!(slot < ROOT_SLOTS);
        self.with_page(PageId::META, |p| {
            let off = META_ROOTS + slot * 4;
            PageId::decode_opt(u32::from_le_bytes(
                p[off..off + 4].try_into().expect("4-byte root slot in meta"),
            ))
        })
    }

    /// Writes named root slot `slot`.
    // xk-analyze: allow(panic_path, reason = "root-slot offsets are bounded by ROOT_SLOTS")
    pub fn set_root_slot(&self, slot: usize, page: Option<PageId>) -> Result<()> {
        assert!(slot < ROOT_SLOTS);
        let mut ws = self.write_lock();
        self.ensure_dirty_marked(&mut ws)?;
        self.bump_data_version();
        self.page_mut_locked(&mut ws, PageId::META, |p| {
            let off = META_ROOTS + slot * 4;
            p[off..off + 4].copy_from_slice(&PageId::encode_opt(page).to_le_bytes());
        })
    }

    /// Maximum size of the user metadata blob for this page size.
    pub fn user_blob_capacity(&self) -> usize {
        self.page_size() - META_BLOB
    }

    /// Stores an application metadata blob in the meta page (e.g. the
    /// serialized level table). Must fit in [`Self::user_blob_capacity`].
    // xk-analyze: allow(panic_path, reason = "blob.len() is checked against user_blob_capacity before the copy")
    pub fn set_user_blob(&self, blob: &[u8]) -> Result<()> {
        if blob.len() > self.user_blob_capacity() {
            return Err(StorageError::EntryTooLarge {
                entry_bytes: blob.len(),
                max_bytes: self.user_blob_capacity(),
            });
        }
        let mut ws = self.write_lock();
        self.ensure_dirty_marked(&mut ws)?;
        self.bump_data_version();
        self.page_mut_locked(&mut ws, PageId::META, |p| {
            p[META_BLOB_LEN..META_BLOB_LEN + 4]
                .copy_from_slice(&(blob.len() as u32).to_le_bytes());
            p[META_BLOB..META_BLOB + blob.len()].copy_from_slice(blob);
        })
    }

    // ---- durability: WAL, transactions ----

    /// Attaches a write-ahead log. Must happen before the env is shared
    /// (hence `&mut self`); typically right after [`crate::recover`] has
    /// replayed the previous incarnation's log. With a WAL attached,
    /// transactional writes are logged at commit and a frame never
    /// reaches the database file before its WAL record is durable.
    pub fn attach_wal(&mut self, wal: Wal) -> Result<()> {
        if wal.db_page_size() as usize != self.pager.page_size() {
            return Err(StorageError::Corrupt(format!(
                "WAL page size {} does not match database page size {}",
                wal.db_page_size(),
                self.pager.page_size()
            )));
        }
        self.wal = Some(wal);
        Ok(())
    }

    /// Transactions committed to the WAL since attach (for batch-size
    /// accounting: commits ÷ syncs = mean group-commit batch).
    pub fn wal_commit_count(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.commit_count())
    }

    /// Fsyncs issued by the WAL since attach.
    pub fn wal_sync_count(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.sync_count())
    }

    /// Bytes the WAL has logged since its last checkpoint ([`Wal::log_bytes`];
    /// 0 without a WAL). [`Self::flush`] retires them.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.log_bytes())
    }

    /// The last committed epoch. Starts at 1 on a fresh env; bumped by
    /// every `commit_txn`.
    pub fn current_epoch(&self) -> u64 {
        self.committed_epoch.load(Ordering::Relaxed)
    }

    /// Opens a transaction. All writes until `commit_txn` / `abort_txn`
    /// are atomic: rollback restores every touched page, and (with a WAL
    /// attached) none of them reaches the database file before the
    /// commit record is durable. One transaction at a time; nesting is
    /// [`StorageError::TxnMisuse`].
    pub fn begin_txn(&self) -> Result<()> {
        let mut ws = self.write_lock();
        if ws.txn.is_some() {
            return Err(StorageError::TxnMisuse("begin_txn inside an open transaction"));
        }
        self.ensure_dirty_marked(&mut ws)?;
        let stamp = self.txn_stamps.fetch_add(1, Ordering::Relaxed) + 1;
        ws.txn = Some(TxnState {
            stamp,
            undo: HashMap::new(),
            order: Vec::new(),
            grown: Vec::new(),
        });
        Ok(())
    }

    /// Commits the open transaction: logs every touched page to the WAL
    /// (Begin, images, Commit — the commit record is the atomicity
    /// point) and publishes the new epoch. Durability is *not* waited
    /// for here — call [`Self::sync_wal`] / [`Self::wait_wal_durable`]
    /// (the group commit machinery batches that fsync across
    /// transactions).
    ///
    /// On a WAL append failure the transaction is left open so the
    /// caller can [`Self::abort_txn`] it.
    // xk-analyze: root(durability_order)
    pub fn commit_txn(&self) -> Result<TxnCommit> {
        let mut ws = self.write_lock();
        let txn = ws
            .txn
            .take()
            .ok_or(StorageError::TxnMisuse("commit_txn without an open transaction"))?;
        // Only this function stores the epoch, and it holds the write lock.
        let epoch = self.committed_epoch.load(Ordering::Relaxed) + 1;
        let mut lsn = 0u64;
        if let Some(wal) = &self.wal {
            let mut seen = HashSet::new();
            let mut pages: Vec<PageId> = Vec::new();
            for &id in txn.order.iter().chain(txn.grown.iter()) {
                if seen.insert(id) {
                    pages.push(id);
                }
            }
            let appended: Result<u64> = (|| {
                // xk-analyze: allow(lock_order, reason = "false positive from bare-name aliasing of Wal::append: write_state is held exactly once for the whole commit; the closure only takes Wal.buf and shard guards")
                wal.append_begin()?;
                for &id in &pages {
                    let image = self.stamped_frame_copy(id)?;
                    wal.append_image(id.0, &image)?;
                }
                wal.append_commit(epoch)
            })();
            match appended {
                Ok(l) => lsn = l,
                Err(e) => {
                    ws.txn = Some(txn);
                    return Err(e);
                }
            }
            let pages: Vec<(PageId, u64)> = pages.into_iter().map(|id| (id, txn.stamp)).collect();
            lock(&self.unsynced).push(UnsyncedTxn { lsn, pages });
        }
        self.committed_epoch.store(epoch, Ordering::Relaxed);
        self.bump_data_version();
        Ok(TxnCommit { epoch, lsn })
    }

    /// Rolls back the open transaction: every touched page is restored
    /// to its pre-image (with its prior WAL-pinning state — the prior
    /// bytes may belong to a committed-but-unsynced transaction) and
    /// pages grown by the transaction are abandoned.
    ///
    /// Grown pages are deliberately *not* linked into the free list:
    /// free-list surgery outside a transaction could be half-persisted
    /// by eviction write-backs and survive crash recovery in a mixed
    /// state. They remain as zero pages in the file — a bounded space
    /// leak, never a correctness hazard.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "undo images are restored into frames pinned under their shard guard; the documented pool design")
    pub fn abort_txn(&self) -> Result<()> {
        let mut ws = self.write_lock();
        let txn = ws
            .txn
            .take()
            .ok_or(StorageError::TxnMisuse("abort_txn without an open transaction"))?;
        let mut first_err: Option<StorageError> = None;
        for id in txn.order.iter().rev() {
            let entry = &txn.undo[id];
            let shard = &mut *self.shard(*id);
            match self.fetch(shard, *id) {
                Ok(idx) => {
                    shard.frames[idx].data.copy_from_slice(&entry.image);
                    shard.frames[idx].dirty = true;
                    shard.frames[idx].logged = entry.prior_logged || self.wal.is_none();
                    shard.frames[idx].log_stamp = entry.prior_stamp;
                }
                Err(e) => {
                    // Keep restoring the rest; the unrestored frame stays
                    // un-logged, so it can never reach the file and the
                    // WAL replay path remains the source of truth.
                    first_err.get_or_insert(e);
                }
            }
        }
        for &id in &txn.grown {
            let shard = &mut *self.shard(id);
            if let Some(idx) = shard.map.remove(&id) {
                shard.lru_unlink(idx);
                shard.frames[idx].dirty = false;
                shard.frames[idx].logged = true;
                shard.frames[idx].log_stamp = 0;
                shard.frames[idx].page = PageId(u32::MAX);
                shard.free_frames.push(idx);
            }
        }
        self.bump_data_version();
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Fsyncs the WAL (one fsync covers every commit appended since the
    /// last one — that is the group in *group commit*) and re-marks the
    /// frames of now-durable transactions as safe to write back. A frame
    /// is only re-marked if its `log_stamp` still matches: a later
    /// transaction's bytes in the same frame are *its* problem, not this
    /// sync's. Returns the highest durable LSN. No-op without a WAL.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    pub fn sync_wal(&self) -> Result<u64> {
        let Some(wal) = &self.wal else {
            return Ok(0);
        };
        let durable = wal.sync()?;
        let drained: Vec<UnsyncedTxn> = {
            let mut unsynced = lock(&self.unsynced);
            let mut keep = Vec::new();
            let mut done = Vec::new();
            for t in unsynced.drain(..) {
                if t.lsn <= durable {
                    done.push(t);
                } else {
                    keep.push(t);
                }
            }
            *unsynced = keep;
            done
        };
        for t in &drained {
            for &(id, stamp) in &t.pages {
                let shard = &mut *self.shard(id);
                if let Some(&idx) = shard.map.get(&id) {
                    if !shard.frames[idx].logged && shard.frames[idx].log_stamp == stamp {
                        shard.frames[idx].logged = true;
                    }
                }
            }
        }
        Ok(durable)
    }

    /// Blocks until the WAL record at `lsn` is durable (some thread —
    /// the group-commit thread, a flush, or a concurrent committer —
    /// must be issuing [`Self::sync_wal`] calls). Immediate without a
    /// WAL.
    pub fn wait_wal_durable(&self, lsn: u64) -> Result<()> {
        match &self.wal {
            Some(wal) => wal.wait_durable(lsn),
            None => Ok(()),
        }
    }

    /// Copies page `id` out of the pool as a full physical page with a
    /// freshly stamped CRC trailer — the exact bytes recovery will write
    /// into the database file when it replays this image.
    // xk-analyze: allow(panic_path, reason = "frame indices are intrusive-LRU links maintained under this shard guard")
    // xk-analyze: allow(io_under_lock, reason = "the image copy fixes the frame under its shard guard; the documented pool design")
    fn stamped_frame_copy(&self, id: PageId) -> Result<Vec<u8>> {
        let shard = &mut *self.shard(id);
        let idx = self.fetch(shard, id)?;
        let mut data = shard.frames[idx].data.to_vec();
        Self::stamp_page(&mut data);
        Ok(data)
    }

    /// Reads the application metadata blob.
    // xk-analyze: allow(panic_path, reason = "the 4-byte length slice sits at a constant offset under MIN_PAGE_SIZE; the variable-length read is guarded by the capacity check")
    pub fn user_blob(&self) -> Result<Vec<u8>> {
        let capacity = self.user_blob_capacity();
        self.with_page(PageId::META, |p| {
            let len = u32::from_le_bytes(
                p[META_BLOB_LEN..META_BLOB_LEN + 4]
                    .try_into()
                    .expect("4-byte blob length in meta"),
            ) as usize;
            if len > capacity {
                return Err(StorageError::Corrupt(format!(
                    "meta blob length {len} exceeds capacity {capacity}"
                )));
            }
            Ok(p[META_BLOB..META_BLOB + len].to_vec())
        })?
    }
}

impl Drop for StorageEnv {
    fn drop(&mut self) {
        // xk-analyze: allow(swallowed_result, reason = "Drop cannot report; explicit flush() is the checked path and tests assert it")
        let _ = self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn mem(pool_pages: usize) -> StorageEnv {
        StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages })
    }

    #[test]
    fn page_size_excludes_trailer() {
        let env = mem(16);
        assert_eq!(env.page_size(), 256 - PAGE_TRAILER);
        assert_eq!(env.physical_page_size(), 256);
    }

    #[test]
    fn env_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageEnv>();
        assert_send_sync::<std::sync::Arc<StorageEnv>>();
    }

    #[test]
    fn shard_count_scales_with_pool() {
        assert_eq!(mem(8).shard_count(), 1, "tiny pool: exact single LRU");
        assert_eq!(mem(16).shard_count(), 2);
        assert_eq!(mem(64).shard_count(), 8);
        assert_eq!(mem(1024).shard_count(), 8, "capped at MAX_SHARDS");
    }

    #[test]
    fn allocate_write_read() {
        let env = mem(16);
        let a = env.allocate_page().unwrap();
        let b = env.allocate_page().unwrap();
        assert_ne!(a, b);
        env.with_page_mut(a, |p| p[10] = 42).unwrap();
        env.with_page_mut(b, |p| p[10] = 43).unwrap();
        assert_eq!(env.with_page(a, |p| p[10]).unwrap(), 42);
        assert_eq!(env.with_page(b, |p| p[10]).unwrap(), 43);
    }

    #[test]
    fn free_list_reuses_pages() {
        let env = mem(16);
        let a = env.allocate_page().unwrap();
        let before = env.page_count();
        env.free_page(a).unwrap();
        let b = env.allocate_page().unwrap();
        assert_eq!(a, b, "freed page must be reused");
        assert_eq!(env.page_count(), before);
        // Reused page is zeroed.
        assert_eq!(env.with_page(b, |p| p[0]).unwrap(), 0);
    }

    #[test]
    fn eviction_and_stats() {
        let env = mem(8); // tiny pool
        let pages: Vec<_> = (0..20).map(|_| env.allocate_page().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            env.with_page_mut(p, |d| d[0] = i as u8).unwrap();
        }
        // All data survives eviction.
        for (i, &p) in pages.iter().enumerate() {
            assert_eq!(env.with_page(p, |d| d[0]).unwrap(), i as u8);
        }
        let s = env.stats();
        assert!(s.evictions > 0, "pool of 8 with 20 pages must evict");
        assert!(s.disk_reads > 0);
    }

    #[test]
    fn clear_cache_forces_disk_reads() {
        let env = mem(64);
        let p = env.allocate_page().unwrap();
        env.with_page_mut(p, |d| d[0] = 7).unwrap();
        env.clear_cache().unwrap();
        env.reset_stats();
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 7);
        assert_eq!(env.stats().disk_reads, 1, "cold cache: first access reads disk");
        env.reset_stats();
        env.with_page(p, |d| d[0]).unwrap();
        assert_eq!(env.stats().disk_reads, 0, "hot cache: second access hits pool");
    }

    #[test]
    fn data_version_bumps_on_every_mutation() {
        let env = mem(16);
        let v0 = env.data_version();
        let p = env.allocate_page().unwrap();
        assert!(env.data_version() > v0, "allocate_page bumps");
        let v1 = env.data_version();
        env.with_page_mut(p, |d| d[0] = 1).unwrap();
        assert!(env.data_version() > v1, "with_page_mut bumps");
        let v2 = env.data_version();
        env.set_root_slot(0, Some(p)).unwrap();
        assert!(env.data_version() > v2, "set_root_slot bumps");
        let v3 = env.data_version();
        env.set_user_blob(b"x").unwrap();
        assert!(env.data_version() > v3, "set_user_blob bumps");
        let v4 = env.data_version();
        env.free_page(p).unwrap();
        assert!(env.data_version() > v4, "free_page bumps");
        // Reads do not bump.
        let v5 = env.data_version();
        env.with_page(PageId::META, |_| ()).unwrap();
        env.root_slot(0).unwrap();
        env.user_blob().unwrap();
        assert_eq!(env.data_version(), v5, "reads leave the version alone");
    }

    #[test]
    fn root_slots_persist() {
        let env = mem(16);
        assert_eq!(env.root_slot(3).unwrap(), None);
        env.set_root_slot(3, Some(PageId(9))).unwrap();
        assert_eq!(env.root_slot(3).unwrap(), Some(PageId(9)));
        env.set_root_slot(3, None).unwrap();
        assert_eq!(env.root_slot(3).unwrap(), None);
    }

    #[test]
    fn user_blob_roundtrip() {
        let env = mem(16);
        assert_eq!(env.user_blob().unwrap(), Vec::<u8>::new());
        env.set_user_blob(b"level-table-v1").unwrap();
        assert_eq!(env.user_blob().unwrap(), b"level-table-v1");
        let too_big = vec![0u8; env.user_blob_capacity() + 1];
        assert!(env.set_user_blob(&too_big).is_err());
    }

    #[test]
    fn file_env_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("xk-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.db");
        let opts = EnvOptions { page_size: 512, pool_pages: 16 };
        let page;
        {
            let env = StorageEnv::create(&path, opts.clone()).unwrap();
            page = env.allocate_page().unwrap();
            env.with_page_mut(page, |p| p[5] = 99).unwrap();
            env.set_root_slot(0, Some(page)).unwrap();
            env.set_user_blob(b"hello").unwrap();
            env.flush().unwrap();
        }
        {
            let env = StorageEnv::open(&path, opts).unwrap();
            assert_eq!(env.root_slot(0).unwrap(), Some(page));
            assert_eq!(env.user_blob().unwrap(), b"hello");
            assert_eq!(env.with_page(page, |p| p[5]).unwrap(), 99);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_auto_detects_page_size() {
        let dir = std::env::temp_dir().join(format!("xk-env2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.db");
        {
            let env =
                StorageEnv::create(&path, EnvOptions { page_size: 512, pool_pages: 16 }).unwrap();
            let p = env.allocate_page().unwrap();
            env.with_page_mut(p, |d| d[500] = 1).unwrap(); // needs the real 512-byte payload
            env.flush().unwrap();
        }
        // Misconfigured options: the header wins.
        let env =
            StorageEnv::open(&path, EnvOptions { page_size: 4096, pool_pages: 16 }).unwrap();
        assert_eq!(env.physical_page_size(), 512);
        assert_eq!(env.with_page(PageId(1), |d| d[500]).unwrap(), 1);
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_implausible_header_page_size() {
        let dir = std::env::temp_dir().join(format!("xk-env3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.db");
        {
            let env =
                StorageEnv::create(&path, EnvOptions { page_size: 512, pool_pages: 16 }).unwrap();
            env.flush().unwrap();
        }
        // Corrupt the stored page size to a non-power-of-two.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&777u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match StorageEnv::open(&path, EnvOptions { page_size: 512, pool_pages: 16 }).err() {
            Some(StorageError::Corrupt(msg)) => {
                assert!(msg.contains("777"), "mentions stored size: {msg}");
                assert!(msg.contains("512"), "mentions configured size: {msg}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_dirty_file() {
        let dir = std::env::temp_dir().join(format!("xk-env4-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.db");
        {
            let env =
                StorageEnv::create(&path, EnvOptions { page_size: 256, pool_pages: 16 }).unwrap();
            let p = env.allocate_page().unwrap();
            env.with_page_mut(p, |d| d[0] = 1).unwrap();
            env.flush().unwrap();
            // Simulate a crash mid-write-epoch: the mutation forces the
            // dirty flag to disk; forgetting the env skips the clean
            // flush that Drop would run.
            env.with_page_mut(p, |d| d[1] = 2).unwrap();
            std::mem::forget(env);
        }
        match StorageEnv::open(&path, EnvOptions { page_size: 256, pool_pages: 16 }).err() {
            Some(StorageError::DirtyShutdown) => {}
            other => panic!("expected DirtyShutdown, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_catches_on_disk_bit_flip() {
        let dir = std::env::temp_dir().join(format!("xk-env5-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("env.db");
        let (page, opts) = {
            let opts = EnvOptions { page_size: 256, pool_pages: 16 };
            let env = StorageEnv::create(&path, opts.clone()).unwrap();
            let p = env.allocate_page().unwrap();
            env.with_page_mut(p, |d| d.fill(0x5A)).unwrap();
            env.flush().unwrap();
            (p, opts)
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = page.0 as usize * 256 + 100;
        bytes[offset] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let env = StorageEnv::open(&path, opts).unwrap(); // meta page intact
        let read_corrupt = || match env.with_page(page, |_| ()) {
            Err(StorageError::ChecksumMismatch { page: p, stored, computed }) => {
                assert_eq!(p, page.0);
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        };
        read_corrupt();
        // The page was not admitted: a second read misses again, fails
        // the same way, and reuses the frame the first one handed back.
        let resident = env.resident_frames();
        read_corrupt();
        assert_eq!(env.resident_frames(), resident, "failed verification leaked a frame");
        drop(env);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_failure_does_not_leak_pool_frames() {
        use crate::fault::{FaultConfig, FaultPager};
        let inner = Box::new(MemPager::new(256));
        // Read op 0 is the meta fetch during create; fail everything after.
        let fault =
            FaultPager::new(inner, FaultConfig { fail_read_at: Some(1), ..FaultConfig::none() });
        let env = StorageEnv::create_with_pager(Box::new(fault), 8).unwrap();
        // Meta is cached from create; force misses on a page that will
        // always fail to read. Every attempt must recycle its frame.
        for _ in 0..100 {
            assert!(env.with_page(PageId(3), |_| ()).is_err());
        }
        assert!(env.resident_frames() <= 8, "failed reads must not grow the pool");
    }

    #[test]
    fn lru_keeps_hot_pages() {
        let env = mem(8);
        let hot = env.allocate_page().unwrap();
        env.with_page_mut(hot, |p| p[0] = 1).unwrap();
        // Touch `hot` between every new allocation; it must never be evicted.
        for _ in 0..30 {
            let p = env.allocate_page().unwrap();
            env.with_page(p, |_| ()).unwrap();
            env.with_page(hot, |_| ()).unwrap();
        }
        let before = env.stats().disk_reads;
        env.with_page(hot, |_| ()).unwrap();
        assert_eq!(env.stats().disk_reads, before, "hot page stays cached");
    }

    /// An env over shared in-memory pagers with a WAL attached, plus the
    /// raw pagers for inspecting what actually reached "disk".
    fn durable_mem(pool_pages: usize) -> (Arc<MemPager>, Arc<MemPager>, StorageEnv) {
        let db = Arc::new(MemPager::new(256));
        let walp = Arc::new(MemPager::new(256));
        let mut env =
            StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), pool_pages).unwrap();
        let wal = Wal::create(Arc::clone(&walp) as Arc<dyn Pager>, 256).unwrap();
        env.attach_wal(wal).unwrap();
        (db, walp, env)
    }

    #[test]
    fn txn_commit_publishes_and_abort_restores() {
        let (_db, _walp, env) = durable_mem(16);
        let p = env.allocate_page().unwrap();
        env.with_page_mut(p, |d| d[0] = 1).unwrap();

        env.begin_txn().unwrap();
        assert!(env.begin_txn().is_err(), "no nesting");
        env.with_page_mut(p, |d| d[0] = 2).unwrap();
        let grown = env.allocate_page().unwrap();
        env.with_page_mut(grown, |d| d[0] = 9).unwrap();
        env.abort_txn().unwrap();
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 1, "abort restores the pre-image");
        assert_eq!(env.with_page(grown, |d| d[0]).unwrap(), 0, "grown page abandoned as zeros");
        assert!(env.abort_txn().is_err(), "nothing left to abort");

        env.begin_txn().unwrap();
        env.with_page_mut(p, |d| d[0] = 3).unwrap();
        let commit = env.commit_txn().unwrap();
        assert_eq!(commit.epoch, 2, "fresh env starts at epoch 1");
        assert!(commit.lsn > 0);
        assert_eq!(env.current_epoch(), 2);
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 3);
        env.sync_wal().unwrap();
        env.wait_wal_durable(commit.lsn).unwrap();
        assert_eq!(env.wal_commit_count(), 1);
        assert_eq!(env.wal_sync_count(), 1);
    }

    #[test]
    fn unlogged_frames_never_reach_the_file() {
        let (db, walp, env) = durable_mem(16);
        let pages: Vec<PageId> = (0..12).map(|_| env.allocate_page().unwrap()).collect();
        env.flush().unwrap();
        env.begin_txn().unwrap();
        for &p in &pages {
            env.with_page_mut(p, |d| d.fill(0xAB)).unwrap();
        }
        // Churn the pool to trigger eviction pressure; un-logged frames
        // must be passed over, never written back.
        for &p in &pages {
            env.with_page(p, |_| ()).unwrap();
        }
        let mut buf = vec![0u8; 256];
        for &p in &pages {
            db.read_page(p, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b != 0xAB), "uncommitted bytes leaked to {p:?}");
        }
        env.commit_txn().unwrap();
        env.sync_wal().unwrap();
        env.flush().unwrap();
        for &p in &pages {
            db.read_page(p, &mut buf).unwrap();
            assert_eq!(buf[0], 0xAB, "committed bytes reached the file after checkpoint");
        }
        let out = Wal::scan(&*walp).unwrap().unwrap();
        assert!(out.committed.is_empty(), "checkpoint retires the log");
    }

    #[test]
    fn clear_cache_keeps_open_transaction_writes() {
        let (_db, _walp, env) = durable_mem(16);
        let p = env.allocate_page().unwrap();
        env.with_page_mut(p, |d| d[0] = 5).unwrap();
        env.flush().unwrap();
        env.begin_txn().unwrap();
        env.with_page_mut(p, |d| d[0] = 6).unwrap();
        env.clear_cache().unwrap();
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 6, "txn write survives the purge");
        env.commit_txn().unwrap();
        env.sync_wal().unwrap();
        env.flush().unwrap();
        env.clear_cache().unwrap();
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 6);
    }

    #[test]
    fn crash_after_commit_recovers_from_wal() {
        let db = Arc::new(MemPager::new(256));
        let walp = Arc::new(MemPager::new(256));
        let p;
        {
            let mut env =
                StorageEnv::create_with_pager(Box::new(Arc::clone(&db)), 16).unwrap();
            let wal = Wal::create(Arc::clone(&walp) as Arc<dyn Pager>, 256).unwrap();
            env.attach_wal(wal).unwrap();
            p = env.allocate_page().unwrap();
            env.flush().unwrap();
            env.begin_txn().unwrap();
            env.with_page_mut(p, |d| d[0] = 77).unwrap();
            env.commit_txn().unwrap();
            env.sync_wal().unwrap();
            std::mem::forget(env); // crash: committed + durable, never checkpointed
        }
        match StorageEnv::open_with_pager(Box::new(Arc::clone(&db)), 16).err() {
            Some(StorageError::DirtyShutdown) => {}
            other => panic!("expected DirtyShutdown before recovery, got {other:?}"),
        }
        let report = crate::recovery::recover(&*db, &*walp).unwrap();
        assert!(report.recovered);
        assert_eq!(report.replayed_txns, 1);
        let env = StorageEnv::open_with_pager(Box::new(Arc::clone(&db)), 16).unwrap();
        assert_eq!(env.with_page(p, |d| d[0]).unwrap(), 77, "recovery replayed the commit");
    }

    #[test]
    fn concurrent_readers_see_consistent_pages() {
        let env = mem(16); // 2 shards
        let pages: Vec<PageId> = (0..12).map(|_| env.allocate_page().unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            env.with_page_mut(p, |d| d.fill(i as u8 + 1)).unwrap();
        }
        env.clear_cache().unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let env = &env;
                let pages = &pages;
                s.spawn(move || {
                    for round in 0..50 {
                        let p = pages[(t + round * 7) % pages.len()];
                        let fill = (pages.iter().position(|&q| q == p).unwrap() + 1) as u8;
                        env.with_page(p, |d| {
                            assert!(d.iter().all(|&b| b == fill), "torn read of {p:?}");
                        })
                        .unwrap();
                    }
                });
            }
        });
        // Counters add up: every logical read is a hit or a miss.
        let s = env.stats();
        assert!(s.disk_reads <= s.logical_reads);
    }

    #[test]
    fn concurrent_reads_during_mutation_keep_invariants() {
        let env = std::sync::Arc::new(mem(32));
        let stable: Vec<PageId> = (0..8).map(|_| env.allocate_page().unwrap()).collect();
        for (i, &p) in stable.iter().enumerate() {
            env.with_page_mut(p, |d| d.fill(0x40 + i as u8)).unwrap();
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..3 {
                let env = env.clone();
                let stable = stable.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut round = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let i = (t + round) % stable.len();
                        env.with_page(stable[i], |d| {
                            assert!(d.iter().all(|&b| b == 0x40 + i as u8));
                        })
                        .unwrap();
                        round += 1;
                    }
                });
            }
            // Writer thread: allocate, dirty, flush, clear — the full
            // mutation surface — while readers hammer stable pages.
            for _ in 0..20 {
                let p = env.allocate_page().unwrap();
                env.with_page_mut(p, |d| d.fill(0xEE)).unwrap();
                env.flush().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
