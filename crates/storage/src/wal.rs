//! The write-ahead log backing the durable append path.
//!
//! # Why a physical redo log
//!
//! The engine's `append_subtree` touches many structures in one logical
//! step — list chains, both B+trees, the meta blob — and a crash between
//! any two of those page writes used to leave the index half-applied. The
//! WAL makes the *commit record* the single atomicity point: a
//! transaction's full page images are appended and fsynced here before
//! any of them may reach the database file, and recovery replays exactly
//! the transactions whose commit record survived. Everything before a
//! missing or torn commit record is discarded; replaying the same log
//! twice writes the same bytes twice — idempotent by construction.
//!
//! # On-disk format (`XKWALOG1`)
//!
//! The log lives in its own page file (any [`Pager`]; file-backed WALs
//! use [`WAL_PAGE_SIZE`]). Every physical page ends in the same 8-byte
//! CRC trailer as `XKSTORE2` data pages ([`crate::checksum`]).
//!
//! * **Page 0 — header**: `magic "XKWALOG1" | u64 generation |
//!   u32 db_page_size`, zero-padded, CRC trailer.
//! * **Pages 1.. — data**: `u64 generation | u32 used | <stream bytes>`,
//!   CRC trailer. A data page is written exactly once, by the sync that
//!   seals it; a page whose generation differs from the header's is a
//!   leftover from a previous incarnation of the log and terminates the
//!   scan.
//!
//! The data pages carry one continuous byte stream of length-prefixed,
//! individually checksummed records:
//!
//! ```text
//! | u8 kind | u64 lsn | u32 len | payload[len] | u32 crc |
//! ```
//!
//! with `crc = crc32(kind..payload)`. Kinds: `Begin` (empty payload),
//! `PageImage` (`u32 page_id` + the full stamped physical page), and
//! `Commit` (`u64 epoch`). A record that fails its CRC or runs past the
//! valid stream is the torn tail: the scan truncates there.
//!
//! # Group commit
//!
//! Appends only extend an in-memory buffer under a short mutex — they
//! never touch the file. [`Wal::sync`] drains everything buffered so far
//! into fresh pages and issues **one** fsync; the env's committer thread
//! calls it on a timer, so any number of commits that land within one
//! flush interval share that fsync. A second mutex serializes sync bodies
//! and is *not* held while appenders run, so the fsync never blocks the
//! commit path. Waiters park on a condvar keyed by LSN
//! ([`Wal::wait_durable`]).
//!
//! A failed write or fsync poisons the log: the error is sticky and every
//! later append, sync, or wait surfaces it. There is no retry — the
//! engine treats a broken log as a broken disk.

use crate::checksum::{crc32, stamp_trailer, verify_trailer, TRAILER};
use crate::error::{Result, StorageError};
use crate::pager::{PageId, Pager};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Physical page size of file-backed WALs ([`crate::recovery`] opens WAL
/// files with this size). Pager-backed WALs in tests may use any size.
pub const WAL_PAGE_SIZE: usize = 4096;

const WAL_MAGIC: &[u8; 8] = b"XKWALOG1";
/// Data-page header: u64 generation + u32 used.
const DATA_HEADER: usize = 12;
/// Record header: u8 kind + u64 lsn + u32 len.
const RECORD_HEADER: usize = 13;
/// Trailing CRC of a record.
const RECORD_CRC: usize = 4;

const KIND_BEGIN: u8 = 1;
const KIND_IMAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// One committed transaction reconstructed from the log, in commit order.
#[derive(Debug, Clone)]
pub struct CommittedTxn {
    /// The epoch recorded in the commit record.
    pub epoch: u64,
    /// The commit record's LSN.
    pub lsn: u64,
    /// Full physical page images `(page id, stamped bytes)` in the order
    /// they were logged.
    pub pages: Vec<(u32, Vec<u8>)>,
}

/// Everything a scan of the log recovers.
#[derive(Debug, Clone)]
pub struct ScanOutcome {
    /// The header's generation.
    pub generation: u64,
    /// The database page size the log was written against.
    pub db_page_size: u32,
    /// Committed transactions in log order.
    pub committed: Vec<CommittedTxn>,
    /// True if the scan stopped at a torn tail (an unreadable page, a
    /// record with a bad CRC, or a record cut off mid-stream) rather than
    /// at the clean end of the log.
    pub truncated: bool,
    /// Highest LSN of any intact record (0 if the log is empty).
    pub last_lsn: u64,
}

/// Append-side state: the undrained byte buffer and the LSN counter.
struct WalBuf {
    pending: Vec<u8>,
    next_lsn: u64,
}

/// Sync-side cursor; guarded by the lock that serializes sync bodies.
struct WalCursor {
    generation: u64,
    next_page: u32,
}

/// Durability watermark shared with waiters.
struct WalDurable {
    synced: u64,
    failed: Option<String>,
}

/// A write-ahead log over a shared pager. All operations take `&self`.
pub struct Wal {
    pager: Arc<dyn Pager>,
    page_size: usize,
    db_page_size: u32,
    buf: Mutex<WalBuf>,
    cursor: Mutex<WalCursor>,
    durable: Mutex<WalDurable>,
    synced_cv: Condvar,
    poisoned: AtomicBool,
    commits: AtomicU64,
    syncs: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Wal {
    /// Creates a fresh log (generation 1) on `pager`, which must hold at
    /// least the one page the constructor overwrites as the header.
    pub fn create(pager: Arc<dyn Pager>, db_page_size: u32) -> Result<Wal> {
        Self::init(pager, db_page_size, 1)
    }

    /// Opens a log file after recovery has consumed it: the generation is
    /// bumped past the old one, so every page of the previous incarnation
    /// is dead the moment the new header is durable. A blank or invalid
    /// header starts over at generation 1. Idempotent with respect to a
    /// crash between recovery and this call — the committed transactions
    /// stay replayable until the new header lands.
    pub fn open_or_reinit(pager: Arc<dyn Pager>, db_page_size: u32) -> Result<Wal> {
        let generation = match Self::scan(&*pager)? {
            Some(outcome) => outcome.generation + 1,
            None => 1,
        };
        Self::init(pager, db_page_size, generation)
    }

    fn init(pager: Arc<dyn Pager>, db_page_size: u32, generation: u64) -> Result<Wal> {
        let page_size = pager.page_size();
        assert!(
            page_size > DATA_HEADER + TRAILER + RECORD_HEADER + RECORD_CRC,
            "WAL page size too small"
        );
        let wal = Wal {
            pager,
            page_size,
            db_page_size,
            buf: Mutex::new(WalBuf { pending: Vec::new(), next_lsn: 1 }),
            cursor: Mutex::new(WalCursor { generation, next_page: 1 }),
            durable: Mutex::new(WalDurable { synced: 0, failed: None }),
            synced_cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            commits: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        };
        wal.write_header(generation)?;
        Ok(wal)
    }

    fn write_header(&self, generation: u64) -> Result<()> {
        let mut page = vec![0u8; self.page_size];
        page[..8].copy_from_slice(WAL_MAGIC);
        page[8..16].copy_from_slice(&generation.to_le_bytes());
        page[16..20].copy_from_slice(&self.db_page_size.to_le_bytes());
        stamp_trailer(&mut page);
        while self.pager.page_count() == 0 {
            self.pager.grow()?;
        }
        self.pager.write_page(PageId(0), &page)?;
        self.pager.sync()?;
        Ok(())
    }

    /// The database page size this log was opened against.
    pub fn db_page_size(&self) -> u32 {
        self.db_page_size
    }

    /// Commit records appended so far (the group-commit batch numerator).
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Fsyncs issued so far (the group-commit batch denominator).
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Bytes of data pages the current generation has written: what
    /// recovery would scan, and what a [`Wal::reset`] retires.
    pub fn log_bytes(&self) -> u64 {
        u64::from(lock(&self.cursor).next_page - 1) * self.page_size as u64
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            let msg = lock(&self.durable)
                .failed
                .clone()
                .unwrap_or_else(|| "unknown failure".into());
            return Err(StorageError::Corrupt(format!("WAL failed: {msg}")));
        }
        Ok(())
    }

    fn poison(&self, err: &StorageError) {
        let mut d = lock(&self.durable);
        if d.failed.is_none() {
            d.failed = Some(err.to_string());
        }
        self.poisoned.store(true, Ordering::Release);
        self.synced_cv.notify_all();
    }

    // xk-analyze: allow(panic_path, reason = "start is pending's length before this record's bytes are pushed, so the CRC slice is in bounds")
    fn append(&self, kind: u8, payload: &[u8]) -> Result<u64> {
        self.check_poisoned()?;
        let mut buf = lock(&self.buf);
        let lsn = buf.next_lsn;
        buf.next_lsn += 1;
        let start = buf.pending.len();
        buf.pending.push(kind);
        buf.pending.extend_from_slice(&lsn.to_le_bytes());
        buf.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.pending.extend_from_slice(payload);
        let crc = crc32(&buf.pending[start..]);
        buf.pending.extend_from_slice(&crc.to_le_bytes());
        Ok(lsn)
    }

    /// Appends a `Begin` record, delimiting a new transaction. Any page
    /// images after an unterminated `Begin` are discarded by the scan.
    pub fn append_begin(&self) -> Result<u64> {
        self.append(KIND_BEGIN, &[])
    }

    /// Appends the full stamped physical image of database page `page_id`.
    pub fn append_image(&self, page_id: u32, image: &[u8]) -> Result<u64> {
        debug_assert_eq!(image.len(), self.db_page_size as usize);
        let mut payload = Vec::with_capacity(4 + image.len());
        payload.extend_from_slice(&page_id.to_le_bytes());
        payload.extend_from_slice(image);
        self.append(KIND_IMAGE, &payload)
    }

    /// Appends the commit record — the transaction's atomicity point.
    /// The transaction is durable once [`Wal::sync`] (or a waiter's
    /// [`Wal::wait_durable`]) covers the returned LSN.
    pub fn append_commit(&self, epoch: u64) -> Result<u64> {
        let lsn = self.append(KIND_COMMIT, &epoch.to_le_bytes())?;
        self.commits.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Drains everything appended so far into fresh pages and fsyncs once;
    /// returns the highest durable LSN. Serialized against other syncs but
    /// never blocks appenders, which is what turns concurrent commits into
    /// one fsync.
    // xk-analyze: allow(io_under_lock, reason = "the sync body is the WAL's serialization point by design; appenders only take the buf lock, which this path holds just long enough to steal the buffer")
    // xk-analyze: protocol(durability_order, sync)
    pub fn sync(&self) -> Result<u64> {
        let cursor = &mut *lock(&self.cursor);
        self.check_poisoned()?;
        let (bytes, upto) = {
            let mut buf = lock(&self.buf);
            (std::mem::take(&mut buf.pending), buf.next_lsn - 1)
        };
        if bytes.is_empty() {
            // Anything at or below `upto` was drained by a previous sync,
            // whose fsync completed before it released the cursor lock.
            return Ok(lock(&self.durable).synced);
        }
        let res = self.write_pages(cursor, &bytes).and_then(|()| self.pager.sync());
        if let Err(e) = res {
            self.poison(&e);
            return Err(e);
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let mut d = lock(&self.durable);
        d.synced = upto;
        self.synced_cv.notify_all();
        Ok(upto)
    }

    // xk-analyze: allow(panic_path, reason = "chunks(cap) yields at most cap bytes per chunk, which fit the page after the header")
    fn write_pages(&self, cursor: &mut WalCursor, bytes: &[u8]) -> Result<()> {
        let cap = self.page_size - DATA_HEADER - TRAILER;
        let mut page = vec![0u8; self.page_size];
        for chunk in bytes.chunks(cap) {
            page.fill(0);
            page[..8].copy_from_slice(&cursor.generation.to_le_bytes());
            page[8..12].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
            page[DATA_HEADER..DATA_HEADER + chunk.len()].copy_from_slice(chunk);
            stamp_trailer(&mut page);
            while self.pager.page_count() <= cursor.next_page {
                self.pager.grow()?;
            }
            self.pager.write_page(PageId(cursor.next_page), &page)?;
            cursor.next_page += 1;
        }
        Ok(())
    }

    /// Blocks until `lsn` is durable (a sync covered it) or the log has
    /// failed. `lsn` 0 is trivially durable.
    // xk-analyze: protocol(durability_order, sync)
    pub fn wait_durable(&self, lsn: u64) -> Result<()> {
        let mut d = lock(&self.durable);
        loop {
            if let Some(msg) = &d.failed {
                return Err(StorageError::Corrupt(format!("WAL failed: {msg}")));
            }
            if d.synced >= lsn {
                return Ok(());
            }
            d = self.synced_cv.wait(d).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Retires every logged transaction after a checkpoint: bumps the
    /// generation and rewrites the header, which kills all existing data
    /// pages at once (their generation no longer matches). Callers sync
    /// the database file *before* this — the crash window between the two
    /// replays already-applied transactions, which is harmless because
    /// replay is idempotent.
    pub fn reset(&self) -> Result<()> {
        let cursor = &mut *lock(&self.cursor);
        self.check_poisoned()?;
        {
            let mut buf = lock(&self.buf);
            debug_assert!(buf.pending.is_empty(), "reset with unsynced records");
            buf.pending.clear();
            buf.next_lsn = 1;
        }
        cursor.generation += 1;
        if let Err(e) = self.write_header(cursor.generation) {
            self.poison(&e);
            return Err(e);
        }
        cursor.next_page = 1;
        lock(&self.durable).synced = 0;
        Ok(())
    }

    /// Reads the log back: header, page stream, record stream, with
    /// torn-tail truncation at both the page and the record level.
    /// `Ok(None)` means "no log here" (empty pager or unrecognizable
    /// header) — distinct from a valid log with zero transactions.
    pub fn scan(pager: &dyn Pager) -> Result<Option<ScanOutcome>> {
        let ps = pager.page_size();
        if pager.page_count() == 0 {
            return Ok(None);
        }
        let mut page = vec![0u8; ps];
        if pager.read_page(PageId(0), &mut page).is_err() {
            return Ok(None);
        }
        if verify_trailer(&page).is_err() || &page[..8] != WAL_MAGIC {
            return Ok(None);
        }
        let generation = u64::from_le_bytes(page[8..16].try_into().expect("8-byte generation"));
        let db_page_size =
            u32::from_le_bytes(page[16..20].try_into().expect("4-byte db page size"));

        // Page level: concatenate the stream out of every same-generation
        // page; stop at the first torn page (CRC), foreign generation, or
        // implausible `used`.
        let cap = ps - DATA_HEADER - TRAILER;
        let mut stream = Vec::new();
        let mut truncated = false;
        for id in 1..pager.page_count() {
            if pager.read_page(PageId(id), &mut page).is_err() {
                truncated = true;
                break;
            }
            if verify_trailer(&page).is_err() {
                truncated = true;
                break;
            }
            let gen = u64::from_le_bytes(page[..8].try_into().expect("8-byte generation"));
            if gen != generation {
                break; // previous incarnation (or a grown-but-unwritten page)
            }
            let used =
                u32::from_le_bytes(page[8..12].try_into().expect("4-byte used count")) as usize;
            if used == 0 || used > cap {
                truncated = true;
                break;
            }
            stream.extend_from_slice(&page[DATA_HEADER..DATA_HEADER + used]);
        }

        // Record level: parse until the stream ends or tears.
        let mut committed = Vec::new();
        let mut last_lsn = 0u64;
        let mut open: Option<Vec<(u32, Vec<u8>)>> = None;
        let mut pos = 0usize;
        while stream.len() - pos >= RECORD_HEADER + RECORD_CRC {
            let head = &stream[pos..pos + RECORD_HEADER];
            let kind = head[0];
            let lsn = u64::from_le_bytes(head[1..9].try_into().expect("8-byte lsn"));
            let len = u32::from_le_bytes(head[9..13].try_into().expect("4-byte len")) as usize;
            let body_end = pos + RECORD_HEADER + len;
            if body_end + RECORD_CRC > stream.len() {
                truncated = true;
                break;
            }
            let crc_stored = u32::from_le_bytes(
                stream[body_end..body_end + RECORD_CRC].try_into().expect("4-byte record crc"),
            );
            if crc32(&stream[pos..body_end]) != crc_stored {
                truncated = true;
                break;
            }
            let payload = &stream[pos + RECORD_HEADER..body_end];
            match kind {
                KIND_BEGIN => {
                    // An unterminated predecessor is simply dropped.
                    open = Some(Vec::new());
                }
                KIND_IMAGE => {
                    if payload.len() != 4 + db_page_size as usize {
                        truncated = true;
                        break;
                    }
                    let page_id =
                        u32::from_le_bytes(payload[..4].try_into().expect("4-byte page id"));
                    match &mut open {
                        Some(images) => images.push((page_id, payload[4..].to_vec())),
                        None => {
                            truncated = true;
                            break; // image outside a transaction: torn log
                        }
                    }
                }
                KIND_COMMIT => {
                    if payload.len() != 8 {
                        truncated = true;
                        break;
                    }
                    let epoch =
                        u64::from_le_bytes(payload.try_into().expect("8-byte epoch"));
                    match open.take() {
                        Some(pages) => committed.push(CommittedTxn { epoch, lsn, pages }),
                        None => {
                            truncated = true;
                            break;
                        }
                    }
                }
                _ => {
                    truncated = true;
                    break;
                }
            }
            last_lsn = lsn;
            pos = body_end + RECORD_CRC;
        }
        if pos < stream.len() && !truncated {
            // A few dangling bytes that cannot hold a record header: the
            // torn tail of the final sync.
            truncated = true;
        }
        Ok(Some(ScanOutcome { generation, db_page_size, committed, truncated, last_lsn }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn mem_wal(db_page_size: u32) -> (Arc<MemPager>, Wal) {
        let pager = Arc::new(MemPager::new(256));
        let wal = Wal::create(Arc::clone(&pager) as Arc<dyn Pager>, db_page_size).unwrap();
        (pager, wal)
    }

    fn image(fill: u8, len: usize) -> Vec<u8> {
        let mut img = vec![fill; len];
        stamp_trailer(&mut img);
        img
    }

    fn commit_txn(wal: &Wal, epoch: u64, pages: &[(u32, Vec<u8>)]) -> u64 {
        wal.append_begin().unwrap();
        for (id, img) in pages {
            wal.append_image(*id, img).unwrap();
        }
        wal.append_commit(epoch).unwrap()
    }

    #[test]
    fn roundtrip_two_transactions() {
        let (pager, wal) = mem_wal(128);
        let a = image(0xA1, 128);
        let b = image(0xB2, 128);
        let c = image(0xC3, 128);
        commit_txn(&wal, 2, &[(1, a.clone()), (2, b.clone())]);
        let lsn = commit_txn(&wal, 3, &[(1, c.clone())]);
        assert_eq!(wal.sync().unwrap(), lsn);
        wal.wait_durable(lsn).unwrap();

        let out = Wal::scan(&*pager).unwrap().expect("valid log");
        assert_eq!(out.generation, 1);
        assert_eq!(out.db_page_size, 128);
        assert!(!out.truncated);
        assert_eq!(out.last_lsn, lsn);
        assert_eq!(out.committed.len(), 2);
        assert_eq!(out.committed[0].epoch, 2);
        assert_eq!(out.committed[0].pages, vec![(1, a), (2, b)]);
        assert_eq!(out.committed[1].epoch, 3);
        assert_eq!(out.committed[1].pages, vec![(1, c)]);
        assert_eq!(wal.commit_count(), 2);
        assert_eq!(wal.sync_count(), 1, "two commits shared one fsync");
    }

    #[test]
    fn dangling_begin_is_discarded() {
        let (pager, wal) = mem_wal(128);
        commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        // A transaction that never commits: images but no commit record.
        wal.append_begin().unwrap();
        wal.append_image(9, &image(0x99, 128)).unwrap();
        wal.sync().unwrap();
        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert_eq!(out.committed.len(), 1, "uncommitted tail dropped");
        assert_eq!(out.committed[0].epoch, 2);
        assert!(!out.truncated, "a dangling Begin is a clean end, not a tear");
    }

    #[test]
    fn torn_page_truncates_but_keeps_prefix() {
        let (pager, wal) = mem_wal(128);
        commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        wal.sync().unwrap();
        let pages_after_first = pager.page_count();
        commit_txn(&wal, 3, &[(2, image(0x22, 128)), (3, image(0x33, 128))]);
        wal.sync().unwrap();
        // Tear the first page of the second sync.
        let ps = pager.page_size();
        let mut buf = vec![0u8; ps];
        pager.read_page(PageId(pages_after_first), &mut buf).unwrap();
        buf[DATA_HEADER + 5] ^= 0x40;
        pager.write_page(PageId(pages_after_first), &buf).unwrap();

        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert!(out.truncated, "bit flip must surface as a torn tail");
        assert_eq!(out.committed.len(), 1, "intact prefix survives");
        assert_eq!(out.committed[0].epoch, 2);
    }

    #[test]
    fn record_spanning_pages_survives() {
        // 128-byte db pages inside 256-byte WAL pages: one image record
        // (13 + 4 + 128 + 4 = 149 bytes) cannot fit a single data page
        // (capacity 256 - 20 = 236 holds one but not two).
        let (pager, wal) = mem_wal(128);
        let imgs: Vec<(u32, Vec<u8>)> =
            (0..5).map(|i| (i as u32 + 1, image(0x50 + i as u8, 128))).collect();
        commit_txn(&wal, 2, &imgs);
        wal.sync().unwrap();
        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert_eq!(out.committed.len(), 1);
        assert_eq!(out.committed[0].pages, imgs);
        assert!(pager.page_count() > 3, "stream spanned several pages");
    }

    #[test]
    fn reset_bumps_generation_and_kills_old_records() {
        let (pager, wal) = mem_wal(128);
        commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        wal.sync().unwrap();
        wal.reset().unwrap();
        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert_eq!(out.generation, 2);
        assert!(out.committed.is_empty(), "old-generation pages are dead");
        assert!(!out.truncated);
        // New records land after the reset and are scanned normally.
        let lsn = commit_txn(&wal, 5, &[(4, image(0x44, 128))]);
        assert_eq!(lsn, 3, "LSNs restart per generation (Begin=1, Image=2, Commit=3)");
        wal.sync().unwrap();
        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert_eq!(out.committed.len(), 1);
        assert_eq!(out.committed[0].epoch, 5);
    }

    #[test]
    fn log_bytes_grow_with_syncs_and_reset_retires_them() {
        let (_pager, wal) = mem_wal(128);
        assert_eq!(wal.log_bytes(), 0);
        commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        assert_eq!(wal.log_bytes(), 0, "buffered records are not logged yet");
        wal.sync().unwrap();
        let one = wal.log_bytes();
        assert!(one > 128 && one % 256 == 0, "{one}");
        commit_txn(&wal, 3, &[(1, image(0x22, 128))]);
        wal.sync().unwrap();
        assert!(wal.log_bytes() > one);
        wal.reset().unwrap();
        assert_eq!(wal.log_bytes(), 0);
    }

    #[test]
    fn open_or_reinit_steps_past_existing_generation() {
        let (pager, wal) = mem_wal(128);
        commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        wal.sync().unwrap();
        drop(wal);
        let wal2 = Wal::open_or_reinit(Arc::clone(&pager) as Arc<dyn Pager>, 128).unwrap();
        let out = Wal::scan(&*pager).unwrap().unwrap();
        assert_eq!(out.generation, 2);
        assert!(out.committed.is_empty());
        drop(wal2);
        // A blank pager starts at generation 1.
        let blank = Arc::new(MemPager::new(256));
        let wal3 = Wal::open_or_reinit(Arc::clone(&blank) as Arc<dyn Pager>, 128).unwrap();
        drop(wal3);
        assert_eq!(Wal::scan(&*blank).unwrap().unwrap().generation, 1);
    }

    #[test]
    fn scan_of_blank_pager_is_none() {
        let pager = MemPager::new(256);
        assert!(Wal::scan(&pager).unwrap().is_none());
        // Garbage header: also None, not an error.
        let mut junk = vec![0x5Au8; 256];
        stamp_trailer(&mut junk);
        pager.write_page(PageId(0), &junk).unwrap();
        assert!(Wal::scan(&pager).unwrap().is_none());
    }

    #[test]
    fn failed_sync_poisons_the_log() {
        use crate::fault::{FaultConfig, FaultPager};
        let inner = Box::new(MemPager::new(256));
        let fault = Arc::new(FaultPager::new(
            inner,
            // Sync 0 is Wal::create's header sync; fail the next one.
            FaultConfig { fail_sync_at: Some(1), ..FaultConfig::none() },
        ));
        let wal = Wal::create(Arc::clone(&fault) as Arc<dyn Pager>, 128).unwrap();
        let lsn = commit_txn(&wal, 2, &[(1, image(0x11, 128))]);
        assert!(wal.sync().is_err());
        assert!(wal.wait_durable(lsn).is_err(), "waiters see the failure");
        assert!(wal.append_begin().is_err(), "appends fail fast after poison");
    }
}
