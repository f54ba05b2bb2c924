//! Sequential list storage: page chains for keyword lists.
//!
//! Section 4 of the paper describes a second B-tree layout for the Scan
//! Eager and Stack algorithms, where each keyword's node list is read
//! front-to-back. Here that layout is a chain of pages per list: each page
//! holds `[next page (4) | payload length (2) | payload]`. Reading a list
//! of `|S|` compressed entries costs `ceil(|S| / B)` disk accesses, which
//! is exactly the term the paper's disk-access analysis charges the
//! scanning algorithms per list.

use crate::env::StorageEnv;
use crate::error::{Result, StorageError};
use crate::pager::PageId;

const LIST_HDR: usize = 6; // next(4) + len(2)

/// Location and size of a stored list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListHandle {
    /// First page of the chain.
    pub head: PageId,
    /// Last page of the chain (where [`ListAppender`] continues).
    pub tail: PageId,
    /// Total payload bytes across the chain.
    pub total_bytes: u64,
    /// Number of logical entries (maintained by the caller; the store
    /// itself is byte-oriented).
    pub entry_count: u64,
}

/// Size of [`ListHandle::encode`]'s output.
pub const LIST_HANDLE_BYTES: usize = 24;

impl ListHandle {
    /// Serializes the handle for storage as a B+tree value.
    pub fn encode(&self) -> [u8; LIST_HANDLE_BYTES] {
        let mut out = [0u8; LIST_HANDLE_BYTES];
        out[..4].copy_from_slice(&self.head.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.tail.0.to_le_bytes());
        out[8..16].copy_from_slice(&self.total_bytes.to_le_bytes());
        out[16..24].copy_from_slice(&self.entry_count.to_le_bytes());
        out
    }

    /// Deserializes a handle written by [`ListHandle::encode`].
    // xk-analyze: allow(panic_path, reason = "fixed-width slices are guarded by the LIST_HANDLE_BYTES length check at the top")
    pub fn decode(bytes: &[u8]) -> Result<ListHandle> {
        if bytes.len() != LIST_HANDLE_BYTES {
            return Err(StorageError::Corrupt(format!(
                "list handle must be {LIST_HANDLE_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        Ok(ListHandle {
            head: PageId(u32::from_le_bytes(bytes[..4].try_into().unwrap())),
            tail: PageId(u32::from_le_bytes(bytes[4..8].try_into().unwrap())),
            total_bytes: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            entry_count: u64::from_le_bytes(bytes[16..24].try_into().unwrap()),
        })
    }
}

/// Streaming writer that builds a page chain.
pub struct ListWriter {
    head: Option<PageId>,
    current: Option<PageId>,
    /// Bytes buffered for the current page.
    buffer: Vec<u8>,
    payload_capacity: usize,
    total_bytes: u64,
    entry_count: u64,
}

impl ListWriter {
    /// Starts a new list in `env`.
    pub fn new(env: &StorageEnv) -> ListWriter {
        ListWriter {
            head: None,
            current: None,
            buffer: Vec::new(),
            payload_capacity: env.page_size() - LIST_HDR,
            total_bytes: 0,
            entry_count: 0,
        }
    }

    /// The largest record [`ListWriter::append`] and
    /// [`ListAppender::append`] accept in `env`: one record of this size
    /// fills a page exactly.
    pub fn max_record(env: &StorageEnv) -> usize {
        env.page_size() - LIST_HDR - 2
    }

    /// Appends one logical entry (a length-prefixed byte record). A
    /// record past [`ListWriter::max_record`] is refused with
    /// [`StorageError::EntryTooLarge`] and nothing is written.
    pub fn append(&mut self, env: &StorageEnv, record: &[u8]) -> Result<()> {
        fits_a_page(record, self.payload_capacity)?;
        let framed_len = 2 + record.len();
        if self.buffer.len() + framed_len > self.payload_capacity {
            self.flush_page(env, false)?;
        }
        self.buffer.extend_from_slice(&(record.len() as u16).to_le_bytes());
        self.buffer.extend_from_slice(record);
        self.total_bytes += framed_len as u64;
        self.entry_count += 1;
        Ok(())
    }

    // xk-analyze: allow(panic_path, reason = "append() seals the buffer before it can exceed the page payload, so LIST_HDR + buffer.len() fits the page")
    fn flush_page(&mut self, env: &StorageEnv, last: bool) -> Result<()> {
        let page = env.allocate_page()?;
        if self.head.is_none() {
            self.head = Some(page);
        }
        if let Some(prev) = self.current {
            // Patch the previous page's next pointer.
            env.with_page_mut(prev, |p| {
                p[..4].copy_from_slice(&page.0.to_le_bytes());
            })?;
        }
        let buffer = std::mem::take(&mut self.buffer);
        env.with_page_mut(page, |p| {
            p[..4].copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
            p[4..6].copy_from_slice(&(buffer.len() as u16).to_le_bytes());
            p[LIST_HDR..LIST_HDR + buffer.len()].copy_from_slice(&buffer);
        })?;
        self.current = Some(page);
        let _ = last;
        Ok(())
    }

    /// Finishes the list and returns its handle. An empty list still
    /// occupies one (empty) page so the handle is always valid.
    // xk-analyze: allow(panic_path, reason = "flush_page unconditionally sets head and current before these expects run")
    pub fn finish(mut self, env: &StorageEnv) -> Result<ListHandle> {
        self.flush_page(env, true)?;
        Ok(ListHandle {
            head: self.head.expect("flush_page sets head"),
            tail: self.current.expect("flush_page sets current"),
            total_bytes: self.total_bytes,
            entry_count: self.entry_count,
        })
    }
}

/// Appends records to an existing chain, continuing in the tail page's
/// free space and growing the chain as needed. Used by incremental index
/// maintenance (new documents appended to an indexed corpus).
pub struct ListAppender {
    handle: ListHandle,
    payload_capacity: usize,
    /// Bytes already used in the tail page.
    tail_used: usize,
}

impl ListAppender {
    /// Positions an appender at the end of `handle`'s chain.
    // xk-analyze: allow(panic_path, reason = "fixed 2-byte slice of the tail header cannot fail try_into")
    pub fn open(env: &StorageEnv, handle: ListHandle) -> Result<ListAppender> {
        let payload_capacity = env.page_size() - LIST_HDR;
        let tail_used = env.with_page(handle.tail, |p| {
            u16::from_le_bytes(p[4..6].try_into().expect("2-byte list length")) as usize
        })?;
        if tail_used > payload_capacity {
            return Err(StorageError::Corrupt(format!(
                "list tail page {} claims {tail_used} payload bytes, capacity is {payload_capacity}",
                handle.tail.0
            )));
        }
        Ok(ListAppender { handle, payload_capacity, tail_used })
    }

    /// Appends one record to the chain; refused like
    /// [`ListWriter::append`]'s when it cannot fit a page.
    // xk-analyze: allow(panic_path, reason = "a fresh tail page is chained whenever tail_used + framed_len would overflow payload_capacity, so the write range fits")
    pub fn append(&mut self, env: &StorageEnv, record: &[u8]) -> Result<()> {
        fits_a_page(record, self.payload_capacity)?;
        let framed_len = 2 + record.len();
        if self.tail_used + framed_len > self.payload_capacity {
            // Seal the tail and chain a fresh page.
            let page = env.allocate_page()?;
            env.with_page_mut(self.handle.tail, |p| {
                p[..4].copy_from_slice(&page.0.to_le_bytes());
            })?;
            env.with_page_mut(page, |p| {
                p[..4].copy_from_slice(&PageId::NONE_RAW.to_le_bytes());
                p[4..6].copy_from_slice(&0u16.to_le_bytes());
            })?;
            self.handle.tail = page;
            self.tail_used = 0;
        }
        let offset = LIST_HDR + self.tail_used;
        env.with_page_mut(self.handle.tail, |p| {
            p[offset..offset + 2].copy_from_slice(&(record.len() as u16).to_le_bytes());
            p[offset + 2..offset + framed_len].copy_from_slice(record);
            p[4..6].copy_from_slice(&((self.tail_used + framed_len) as u16).to_le_bytes());
        })?;
        self.tail_used += framed_len;
        self.handle.total_bytes += framed_len as u64;
        self.handle.entry_count += 1;
        Ok(())
    }

    /// Returns the updated handle (the caller persists it).
    pub fn finish(self) -> ListHandle {
        self.handle
    }
}

/// Streaming reader over a page chain. Each page is fetched through the
/// buffer pool exactly once per pass, so sequential consumption of a list
/// of `N` pages costs `N` logical reads (and `N` disk reads when cold).
pub struct ListReader {
    next_page: Option<PageId>,
    page_buf: Vec<u8>,
    page_len: usize,
    offset: usize,
    remaining_entries: u64,
    total_entries: u64,
}

impl ListReader {
    /// Opens a reader at the head of `handle`'s chain.
    pub fn new(handle: &ListHandle) -> ListReader {
        ListReader {
            next_page: Some(handle.head),
            page_buf: Vec::new(),
            page_len: 0,
            offset: 0,
            remaining_entries: handle.entry_count,
            total_entries: handle.entry_count,
        }
    }

    /// Reads the next record, or `None` at the end of the list.
    // xk-analyze: allow(panic_path, reason = "record ranges are validated against page_len (itself checked against the page) before slicing; length fields are fixed-width")
    pub fn next_record(&mut self, env: &StorageEnv) -> Result<Option<Vec<u8>>> {
        if self.remaining_entries == 0 {
            return Ok(None);
        }
        loop {
            if self.offset < self.page_len {
                if self.offset + 2 > self.page_len {
                    return Err(StorageError::Corrupt(format!(
                        "list record header at offset {} overruns page payload of {} bytes",
                        self.offset, self.page_len
                    )));
                }
                let len = u16::from_le_bytes(
                    self.page_buf[self.offset..self.offset + 2]
                        .try_into()
                        .expect("2-byte record length"),
                ) as usize;
                let start = self.offset + 2;
                if start + len > self.page_len {
                    return Err(StorageError::Corrupt(format!(
                        "list record of {len} bytes at offset {} overruns page payload of {} bytes",
                        self.offset, self.page_len
                    )));
                }
                let rec = self.page_buf[start..start + len].to_vec();
                self.offset = start + len;
                self.remaining_entries -= 1;
                return Ok(Some(rec));
            }
            let Some(page) = self.next_page else {
                // remaining_entries > 0 here (the fast path returned
                // otherwise): a chain that ends early is a truncated list,
                // and silently reporting end-of-list would drop matches
                // from query answers.
                return Err(StorageError::Corrupt(format!(
                    "list chain ended with {} of {} entries unread",
                    self.remaining_entries, self.total_entries
                )));
            };
            let (next, len, data) = env.with_page(page, |p| {
                let next = PageId::decode_opt(u32::from_le_bytes(
                    p[..4].try_into().expect("4-byte next link"),
                ));
                let len = u16::from_le_bytes(p[4..6].try_into().expect("2-byte list length"))
                    as usize;
                if LIST_HDR + len > p.len() {
                    return Err(StorageError::Corrupt(format!(
                        "list page {} claims {len} payload bytes, capacity is {}",
                        page.0,
                        p.len() - LIST_HDR
                    )));
                }
                Ok((next, len, p[LIST_HDR..LIST_HDR + len].to_vec()))
            })??;
            self.next_page = next;
            self.page_len = len;
            self.page_buf = data;
            self.offset = 0;
        }
    }
}

/// Frees every page of a list chain.
// xk-analyze: allow(panic_path, reason = "fixed 4-byte slice of the next link cannot fail try_into")
pub fn free_list(env: &StorageEnv, handle: &ListHandle) -> Result<()> {
    let mut cur = Some(handle.head);
    let mut freed = 0u64;
    let limit = env.page_count() as u64;
    while let Some(page) = cur {
        if freed >= limit {
            return Err(StorageError::Corrupt(format!(
                "list chain starting at page {} exceeds the file's {limit} pages (cycle?)",
                handle.head.0
            )));
        }
        let next = env.with_page(page, |p| {
            PageId::decode_opt(u32::from_le_bytes(p[..4].try_into().expect("4-byte next link")))
        })?;
        env.free_page(page)?;
        freed += 1;
        cur = next;
    }
    Ok(())
}

/// What [`inspect_chain`] learned about a list chain.
#[derive(Debug, Default, Clone)]
pub struct ChainInfo {
    /// Every page of the chain, head to tail, in link order.
    pub pages: Vec<PageId>,
    /// Framed payload bytes actually present (length prefixes included),
    /// comparable to [`ListHandle::total_bytes`].
    pub payload_bytes: u64,
    /// Records actually present, comparable to [`ListHandle::entry_count`].
    pub records: u64,
}

/// Walks a chain front to back, validating structure as it goes: link
/// reachability, per-page payload lengths, record framing, and the
/// absence of cycles (bounded by the file's page count). Returns what it
/// found so callers (e.g. `xksearch verify`) can cross-check the handle's
/// claimed tail, byte total, and entry count.
pub fn inspect_chain(env: &StorageEnv, handle: &ListHandle) -> Result<ChainInfo> {
    let mut info = ChainInfo::default();
    let limit = env.page_count() as usize;
    let mut cur = Some(handle.head);
    while let Some(page) = cur {
        if info.pages.len() >= limit {
            return Err(StorageError::Corrupt(format!(
                "list chain starting at page {} exceeds the file's {limit} pages (cycle?)",
                handle.head.0
            )));
        }
        let step = env.with_page(page, |p| {
            let next =
                PageId::decode_opt(u32::from_le_bytes(p[..4].try_into().expect("4-byte next link")));
            let len =
                u16::from_le_bytes(p[4..6].try_into().expect("2-byte list length")) as usize;
            if LIST_HDR + len > p.len() {
                return Err(StorageError::Corrupt(format!(
                    "list page {} claims {len} payload bytes, capacity is {}",
                    page.0,
                    p.len() - LIST_HDR
                )));
            }
            // Re-frame the records to validate their lengths.
            let mut offset = 0usize;
            let mut records = 0u64;
            while offset < len {
                if offset + 2 > len {
                    return Err(StorageError::Corrupt(format!(
                        "list page {}: record header at offset {offset} overruns payload of {len} bytes",
                        page.0
                    )));
                }
                let rec_len = u16::from_le_bytes(
                    p[LIST_HDR + offset..LIST_HDR + offset + 2]
                        .try_into()
                        .expect("2-byte record length"),
                ) as usize;
                offset += 2 + rec_len;
                if offset > len {
                    return Err(StorageError::Corrupt(format!(
                        "list page {}: record of {rec_len} bytes overruns payload of {len} bytes",
                        page.0
                    )));
                }
                records += 1;
            }
            Ok((next, len as u64, records))
        })??;
        let (next, page_bytes, page_records) = step;
        info.pages.push(page);
        info.payload_bytes += page_bytes;
        info.records += page_records;
        cur = next;
    }
    if info.pages.last() != Some(&handle.tail) {
        return Err(StorageError::Corrupt(format!(
            "list chain starting at page {} ends at page {:?}, but the handle claims tail {}",
            handle.head.0,
            info.pages.last().map(|p| p.0),
            handle.tail.0
        )));
    }
    if info.payload_bytes != handle.total_bytes || info.records != handle.entry_count {
        return Err(StorageError::Corrupt(format!(
            "list chain starting at page {} holds {} records / {} bytes, but the handle claims {} / {}",
            handle.head.0, info.records, info.payload_bytes, handle.entry_count, handle.total_bytes
        )));
    }
    Ok(info)
}

/// A record, framed, must fit one page payload of `capacity` bytes.
fn fits_a_page(record: &[u8], capacity: usize) -> Result<()> {
    let max_bytes = capacity.saturating_sub(2);
    match record.len() <= max_bytes {
        true => Ok(()),
        false => Err(StorageError::EntryTooLarge { entry_bytes: record.len(), max_bytes }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvOptions;

    fn mem_env() -> StorageEnv {
        StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 64 })
    }

    #[test]
    fn roundtrip_small() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..10u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 10);
        let mut r = ListReader::new(&h);
        for i in 0..10u32 {
            assert_eq!(r.next_record(&env).unwrap().unwrap(), i.to_le_bytes());
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn roundtrip_multi_page_variable_records() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        let records: Vec<Vec<u8>> =
            (0..500).map(|i| vec![(i % 251) as u8; i % 37 + 1]).collect();
        for r in &records {
            w.append(&env, r).unwrap();
        }
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 500);
        let mut r = ListReader::new(&h);
        for expect in &records {
            assert_eq!(&r.next_record(&env).unwrap().unwrap(), expect);
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn empty_list() {
        let env = mem_env();
        let w = ListWriter::new(&env);
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 0);
        let mut r = ListReader::new(&h);
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn handle_encode_decode() {
        let h = ListHandle {
            head: PageId(7),
            tail: PageId(99),
            total_bytes: 123456,
            entry_count: 42,
        };
        assert_eq!(ListHandle::decode(&h.encode()).unwrap(), h);
        assert!(ListHandle::decode(b"short").is_err());
    }

    #[test]
    fn appender_continues_a_finished_chain() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..7u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let mut a = ListAppender::open(&env, h).unwrap();
        for i in 7..200u32 {
            a.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h2 = a.finish();
        assert_eq!(h2.entry_count, 200);
        assert_eq!(h2.head, h.head, "head is stable across appends");
        let mut r = ListReader::new(&h2);
        for i in 0..200u32 {
            assert_eq!(r.next_record(&env).unwrap().unwrap(), i.to_le_bytes());
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn appender_on_empty_chain() {
        let env = mem_env();
        let h = ListWriter::new(&env).finish(&env).unwrap();
        let mut a = ListAppender::open(&env, h).unwrap();
        a.append(&env, b"first").unwrap();
        let h = a.finish();
        assert_eq!(h.entry_count, 1);
        let mut r = ListReader::new(&h);
        assert_eq!(r.next_record(&env).unwrap().unwrap(), b"first");
    }

    #[test]
    fn interleaved_appends_with_variable_sizes() {
        let env = mem_env();
        let mut records: Vec<Vec<u8>> = Vec::new();
        let mut w = ListWriter::new(&env);
        for i in 0..50usize {
            let r = vec![i as u8; i % 60 + 1];
            w.append(&env, &r).unwrap();
            records.push(r);
        }
        let mut h = w.finish(&env).unwrap();
        // Several separate append sessions, as separate documents arrive.
        for session in 0..4 {
            let mut a = ListAppender::open(&env, h).unwrap();
            for i in 0..30usize {
                let r = vec![(session * 40 + i) as u8; (i * 3) % 80 + 1];
                a.append(&env, &r).unwrap();
                records.push(r);
            }
            h = a.finish();
        }
        let mut r = ListReader::new(&h);
        for expect in &records {
            assert_eq!(&r.next_record(&env).unwrap().unwrap(), expect);
        }
        assert_eq!(r.next_record(&env).unwrap(), None);
    }

    #[test]
    fn sequential_read_costs_one_access_per_page_when_cold() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        let record = [0u8; 20];
        for _ in 0..200 {
            w.append(&env, &record).unwrap();
        }
        let h = w.finish(&env).unwrap();
        // 22 bytes framed per record; page payload = usable size - header.
        let payload = env.page_size() - LIST_HDR;
        let expected_pages = (200usize * 22).div_ceil(payload);
        env.clear_cache().unwrap();
        env.reset_stats();
        let mut r = ListReader::new(&h);
        while r.next_record(&env).unwrap().is_some() {}
        let reads = env.stats().disk_reads;
        assert!(
            (reads as i64 - expected_pages as i64).abs() <= 1,
            "expected about {expected_pages} cold reads, got {reads}"
        );
    }

    #[test]
    fn free_list_returns_pages() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for _ in 0..300 {
            w.append(&env, &[1u8; 30]).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let before = env.page_count();
        free_list(&env, &h).unwrap();
        // Freed pages are reused by subsequent allocations.
        let mut w2 = ListWriter::new(&env);
        for _ in 0..300 {
            w2.append(&env, &[2u8; 30]).unwrap();
        }
        let h2 = w2.finish(&env).unwrap();
        assert_eq!(env.page_count(), before, "second list reuses freed pages");
        let mut r = ListReader::new(&h2);
        assert_eq!(r.next_record(&env).unwrap().unwrap(), [2u8; 30]);
    }

    #[test]
    fn max_records_fill_one_page_each() {
        let env = mem_env();
        let max = ListWriter::max_record(&env);
        let mut w = ListWriter::new(&env);
        for i in 0..3u8 {
            w.append(&env, &vec![i; max]).unwrap();
        }
        let h = w.finish(&env).unwrap();
        assert_eq!(inspect_chain(&env, &h).unwrap().pages.len(), 3);
        let mut a = ListAppender::open(&env, h).unwrap();
        a.append(&env, &vec![9; max]).unwrap();
        let h = a.finish();
        assert_eq!(inspect_chain(&env, &h).unwrap().pages.len(), 4);
    }

    #[test]
    fn oversized_record_is_refused_without_a_write() {
        let env = mem_env();
        let max = ListWriter::max_record(&env);
        let too_big = |r: Result<()>| {
            matches!(r, Err(StorageError::EntryTooLarge { entry_bytes, max_bytes })
                if entry_bytes == max + 1 && max_bytes == max)
        };
        let mut w = ListWriter::new(&env);
        w.append(&env, &[1u8; 10]).unwrap();
        assert!(too_big(w.append(&env, &vec![0u8; max + 1])));
        let h = w.finish(&env).unwrap();
        assert_eq!(h.entry_count, 1, "the refused record left no trace");
        let mut a = ListAppender::open(&env, h).unwrap();
        assert!(too_big(a.append(&env, &vec![0u8; max + 1])));
        let h = a.finish();
        assert_eq!(h.entry_count, 1);
        assert_eq!(inspect_chain(&env, &h).unwrap().records, 1);
    }

    #[test]
    fn inspect_chain_accepts_healthy_lists() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..300u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();
        let info = inspect_chain(&env, &h).unwrap();
        assert_eq!(info.records, 300);
        assert_eq!(info.payload_bytes, h.total_bytes);
        assert_eq!(info.pages.first(), Some(&h.head));
        assert_eq!(info.pages.last(), Some(&h.tail));
        assert!(info.pages.len() > 1, "300 records span several pages");
    }

    #[test]
    fn inspect_chain_flags_bad_counts_and_cycles() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        for i in 0..300u32 {
            w.append(&env, &i.to_le_bytes()).unwrap();
        }
        let h = w.finish(&env).unwrap();

        let lying = ListHandle { entry_count: h.entry_count + 5, ..h };
        assert!(inspect_chain(&env, &lying).is_err(), "count mismatch detected");

        let wrong_tail = ListHandle { tail: h.head, ..h };
        assert!(inspect_chain(&env, &wrong_tail).is_err(), "tail mismatch detected");

        // Splice the tail's next pointer back to the head: a cycle.
        env.with_page_mut(h.tail, |p| p[..4].copy_from_slice(&h.head.0.to_le_bytes()))
            .unwrap();
        match inspect_chain(&env, &h) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("cycle"), "{msg}"),
            other => panic!("expected cycle error, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_overrunning_record_lengths() {
        let env = mem_env();
        let mut w = ListWriter::new(&env);
        w.append(&env, b"abc").unwrap();
        let h = w.finish(&env).unwrap();
        // Corrupt the record's length prefix to point past the payload.
        env.with_page_mut(h.head, |p| {
            p[LIST_HDR..LIST_HDR + 2].copy_from_slice(&500u16.to_le_bytes());
        })
        .unwrap();
        let mut r = ListReader::new(&h);
        assert!(matches!(r.next_record(&env), Err(StorageError::Corrupt(_))));
    }
}
