//! Opening and querying a sealed XKSEG2 blob.
//!
//! `SegmentReader::open` validates the header, trailer, and dictionary
//! CRCs and parses the full skip table into memory (the dictionary is a
//! few bytes per chunk; posting blocks stay on disk).
//!
//! A keyword is read through one [`SegCursor`]. A seek costs a binary
//! search of the skip table plus at most one chunk load: one block read
//! into the cursor's own block buffer, its CRC-32C, and the one linear
//! check pass of [`crate::codec`]'s `PackedChunk::check`. Nothing is
//! decoded: the seek binary-searches the chunk's fixed-stride keys where
//! they lie in the buffer, comparing integers, and the cursor unpacks
//! only the postings it is asked for, into reused buffers — no
//! allocation. The cursor keeps the last loaded chunk, so a run of seeks
//! over the same region touches the pager once; nothing is kept across
//! cursors, so every query checks every block it reads. Stepping loads
//! each chunk as the cursor crosses into it. Every read of posting data
//! — cursors, [`SegmentReader::postings`], `verify` — goes through the
//! one `PackedChunk` view, so every check runs on every path.

use crate::codec::{get_varint, PackedChunk};
use crate::error::{ErrorSlot, Result, SegmentError};
use crate::format::{check_trailer, read_block, unframe_block, Header, BLOCK_FRAME};
use crate::manifest::Fence;
use crate::writer::Chunk;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xk_slca::PostingCursor;
use xk_storage::Pager;
use xk_xmltree::Dewey;

/// One keyword's dictionary entry: total count plus its skip table.
#[derive(Debug, Clone)]
pub struct KwEntry {
    /// Total postings for the keyword in this segment.
    pub count: u64,
    /// Skip entries in ascending `min` order.
    pub chunks: Vec<Chunk>,
}

/// An open, validated, immutable segment.
pub struct SegmentReader {
    pager: Arc<dyn Pager>,
    header: Header,
    names: Vec<String>,
    entries: Vec<KwEntry>,
    by_name: HashMap<String, usize>,
    block_reads: AtomicU64,
}

impl std::fmt::Debug for SegmentReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentReader")
            .field("seq", &self.header.seq)
            .field("keywords", &self.names.len())
            .field("postings", &self.header.posting_count)
            .finish()
    }
}

/// Parses the concatenated dictionary payload into sorted keyword
/// entries. Shared with [`crate::verify`].
pub(crate) fn parse_dict(dict: &[u8], keyword_count: u32) -> Result<(Vec<String>, Vec<KwEntry>)> {
    let mut names = Vec::with_capacity(keyword_count as usize);
    let mut entries = Vec::with_capacity(keyword_count as usize);
    let mut pos = 0usize;
    for _ in 0..keyword_count {
        let kwlen = get_varint(dict, &mut pos)? as usize;
        let bytes = dict
            .get(pos..pos + kwlen)
            .ok_or_else(|| SegmentError::Corrupt("dictionary keyword truncated".into()))?;
        pos += kwlen;
        let name = std::str::from_utf8(bytes)
            .map_err(|_| SegmentError::Corrupt("dictionary keyword is not UTF-8".into()))?
            .to_string();
        if let Some(last) = names.last() {
            if *last >= name {
                return Err(SegmentError::Corrupt(format!(
                    "dictionary keywords out of order ({last:?} then {name:?})"
                )));
            }
        }
        let count = get_varint(dict, &mut pos)?;
        let chunk_count = get_varint(dict, &mut pos)? as usize;
        let mut chunks = Vec::with_capacity(chunk_count);
        for _ in 0..chunk_count {
            let block = u32::try_from(get_varint(dict, &mut pos)?)
                .map_err(|_| SegmentError::Corrupt("chunk block id overflows u32".into()))?;
            let offset = u32::try_from(get_varint(dict, &mut pos)?)
                .map_err(|_| SegmentError::Corrupt("chunk offset overflows u32".into()))?;
            let entry_n = u32::try_from(get_varint(dict, &mut pos)?)
                .map_err(|_| SegmentError::Corrupt("chunk entry count overflows u32".into()))?;
            let depth = get_varint(dict, &mut pos)? as usize;
            if depth > u16::MAX as usize {
                return Err(SegmentError::Corrupt(format!("absurd chunk min depth {depth}")));
            }
            let mut comps = Vec::with_capacity(depth);
            for _ in 0..depth {
                let c = get_varint(dict, &mut pos)?;
                comps.push(u32::try_from(c).map_err(|_| {
                    SegmentError::Corrupt(format!("chunk min component {c} overflows u32"))
                })?);
            }
            let min = Dewey::from_components(comps);
            if let Some(prev) = chunks.last() {
                let prev: &Chunk = prev;
                if prev.min >= min {
                    return Err(SegmentError::Corrupt(format!(
                        "skip entries for {name:?} not ascending ({} then {min})",
                        prev.min
                    )));
                }
            }
            chunks.push(Chunk { block, offset, entries: entry_n, min });
        }
        let chunk_total: u64 = chunks.iter().map(|c| c.entries as u64).sum();
        if chunk_total != count {
            return Err(SegmentError::Corrupt(format!(
                "dictionary count {count} for {name:?} disagrees with chunk sum {chunk_total}"
            )));
        }
        names.push(name);
        entries.push(KwEntry { count, chunks });
    }
    if pos != dict.len() {
        return Err(SegmentError::Corrupt(format!(
            "{} trailing dictionary bytes",
            dict.len() - pos
        )));
    }
    Ok((names, entries))
}

impl SegmentReader {
    /// Opens a sealed segment, validating header, trailer, and dictionary
    /// integrity. `fence`, when given, cross-checks the blob against the
    /// manifest entry that claims it — a stale or substituted blob from
    /// an earlier generation is rejected as corrupt.
    pub fn open(pager: Arc<dyn Pager>, fence: Option<&Fence>) -> Result<Arc<SegmentReader>> {
        let block_size = pager.page_size();
        let mut buf = vec![0u8; block_size];
        read_block(pager.as_ref(), 0, &mut buf)?;
        let header = Header::decode(&buf)?;
        if header.block_size as usize != block_size {
            return Err(SegmentError::Corrupt(format!(
                "header block size {} disagrees with pager page size {block_size}",
                header.block_size
            )));
        }
        if header.total_blocks() > pager.page_count() {
            return Err(SegmentError::Corrupt(format!(
                "blob truncated: header wants {} blocks, file has {}",
                header.total_blocks(),
                pager.page_count()
            )));
        }
        if let Some(f) = fence {
            if f.seq != header.seq || f.postings != header.posting_count || f.meta_crc != header.meta_crc
            {
                return Err(SegmentError::Corrupt(format!(
                    "generation fence mismatch: manifest claims seq {} ({} postings, crc {:#010x}), \
                     blob is seq {} ({} postings, crc {:#010x})",
                    f.seq, f.postings, f.meta_crc, header.seq, header.posting_count, header.meta_crc
                )));
            }
        }
        read_block(pager.as_ref(), header.trailer_block(), &mut buf)?;
        check_trailer(&header, &buf)?;
        let mut dict = Vec::new();
        for i in 0..header.dict_blocks {
            let block_no = 1 + header.data_blocks + i;
            read_block(pager.as_ref(), block_no, &mut buf)?;
            dict.extend_from_slice(unframe_block(&buf, block_no)?);
        }
        let actual = xk_storage::crc32c(&dict);
        if actual != header.meta_crc {
            return Err(SegmentError::Corrupt(format!(
                "dictionary CRC mismatch: stored {:#010x}, computed {actual:#010x}",
                header.meta_crc
            )));
        }
        let (names, entries) = parse_dict(&dict, header.keyword_count)?;
        let by_name = names.iter().cloned().zip(0..).collect();
        Ok(Arc::new(SegmentReader {
            pager,
            header,
            names,
            entries,
            by_name,
            block_reads: AtomicU64::new(0),
        }))
    }

    /// The validated blob header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// This segment's sequence number.
    pub fn seq(&self) -> u64 {
        self.header.seq
    }

    /// Occurrence count of `keyword` in this segment (0 when absent).
    // xk-analyze: allow(panic_path, reason = "by_name values are indices into entries, built together at open")
    pub fn frequency(&self, keyword: &str) -> u64 {
        self.by_name.get(keyword).map_or(0, |&i| self.entries[i].count)
    }

    /// Iterates keywords with their counts, in sorted order.
    pub fn keywords(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names.iter().map(|n| n.as_str()).zip(self.entries.iter().map(|e| e.count))
    }

    /// The smallest Dewey id posted for `keyword` in this segment.
    // xk-analyze: allow(panic_path, reason = "by_name values are indices into entries, built together at open")
    pub fn min_dewey(&self, keyword: &str) -> Option<&Dewey> {
        let &i = self.by_name.get(keyword)?;
        self.entries[i].chunks.first().map(|c| &c.min)
    }

    /// Posting blocks read from the pager since open (cache misses only;
    /// the bench suite uses this as its cold-read proxy).
    pub fn block_reads(&self) -> u64 {
        self.block_reads.load(Ordering::Relaxed)
    }

    /// The one chunk load: reads `chunk`'s block into `block` and
    /// CRC-checks it (unless `block` already holds it verified), then
    /// runs the chunk's check pass (see `PackedChunk::check`). On error
    /// `block` is dropped, so a retry re-reads the block and nothing
    /// answers from a chunk that failed.
    pub(crate) fn load_chunk(&self, chunk: &Chunk, block: &mut BlockBuf) -> Result<PackedChunk> {
        let loaded = self.fetch(chunk.block, block).and_then(|()| {
            let (payload, scratch) = block.parts();
            PackedChunk::check(payload, chunk, scratch)
        });
        if loaded.is_err() {
            block.held = None;
        }
        loaded
    }

    /// Reads posting block `block_no` into `buf` (and counts it) and
    /// checks its CRC, unless `buf` already holds it.
    fn fetch(&self, block_no: u32, buf: &mut BlockBuf) -> Result<()> {
        if buf.held.is_some_and(|(held, _)| held == block_no) {
            return Ok(());
        }
        buf.held = None;
        buf.bytes.resize(self.header.block_size as usize, 0);
        read_block(self.pager.as_ref(), block_no, &mut buf.bytes)?;
        self.block_reads.fetch_add(1, Ordering::Relaxed);
        let len = unframe_block(&buf.bytes, block_no)?.len();
        buf.held = Some((block_no, len));
        Ok(())
    }

    /// Fully decodes `keyword`'s posting list (used by merge and tests;
    /// queries go through [`SegCursor`] instead).
    pub fn postings(&self, keyword: &str) -> Result<Vec<Dewey>> {
        let Some(&i) = self.by_name.get(keyword) else {
            return Ok(Vec::new());
        };
        let entry = self.entry(i);
        let mut out = Vec::with_capacity(entry.count as usize);
        let mut block = BlockBuf::default();
        for chunk in &entry.chunks {
            let c = self.load_chunk(chunk, &mut block)?;
            for i in 0..c.len() {
                out.push(c.dewey(block.payload(), i).ok_or_else(|| unpack_failed(i))?);
            }
        }
        Ok(out)
    }

    /// A [`SegCursor`] over `keyword`, standing at its first posting,
    /// or `None` when the keyword is absent from this segment.
    pub fn stream_list(self: &Arc<Self>, keyword: &str, slot: ErrorSlot) -> Option<SegCursor> {
        let &kw = self.by_name.get(keyword)?;
        let mut cursor = SegCursor {
            reader: Arc::clone(self),
            kw,
            slot,
            block: BlockBuf::default(),
            loaded: None,
            chunk: 0,
            key: 0,
            keys_here: 0,
            from_skip: false,
            dead: false,
            cur: Unpacked::default(),
            prev: Unpacked::default(),
        };
        cursor.place(0, 0);
        Some(cursor)
    }

    /// Every keyword with its dictionary entry, in sorted order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, &KwEntry)> {
        self.names.iter().map(|n| n.as_str()).zip(&self.entries)
    }

    // xk-analyze: allow(panic_path, reason = "kw slots are handed out by stream_list from by_name, so they index within entries")
    pub(crate) fn entry(&self, kw: usize) -> &KwEntry {
        &self.entries[kw]
    }
}

/// A key the check pass admitted did not unpack: never expected, but
/// reported rather than skipped.
fn unpack_failed(i: usize) -> SegmentError {
    SegmentError::Corrupt(format!("key {i} of a checked chunk does not unpack"))
}

/// A caller-owned posting-block buffer, remembering which block it holds
/// once that block's CRC has passed.
#[derive(Debug, Default)]
pub(crate) struct BlockBuf {
    bytes: Vec<u8>,
    /// The verified block's id and payload length.
    held: Option<(u32, usize)>,
    /// Reused for packing probes and chunk minima.
    scratch: Vec<u8>,
}

impl BlockBuf {
    /// The held block's payload (empty when none is held).
    pub(crate) fn payload(&self) -> &[u8] {
        let len = self.held.map_or(0, |(_, len)| len);
        self.bytes.get(BLOCK_FRAME..BLOCK_FRAME + len).unwrap_or(&[])
    }

    /// The payload, beside the scratch buffer.
    fn parts(&mut self) -> (&[u8], &mut Vec<u8>) {
        let len = self.held.map_or(0, |(_, len)| len);
        (self.bytes.get(BLOCK_FRAME..BLOCK_FRAME + len).unwrap_or(&[]), &mut self.scratch)
    }
}

/// One keyword of one segment as a [`PostingCursor`]: a position
/// `(chunk, key)` in its skip table. A seek binary-searches the skip
/// table, loads (at most) the one chunk whose range holds the key into
/// the cursor's block buffer, and ranks the key among the chunk's packed
/// keys in place. When the key falls past that chunk, the right match is
/// the next chunk's minimum, straight from the skip table, and the left
/// match is the loaded chunk's last key, so `before` costs no load
/// either. Stepping loads each chunk as the cursor crosses into it.
///
/// A failed chunk load poisons the slot and reads as the end: after a
/// failed seek nothing is read until the next seek, which re-reads the
/// block; a failed step does not move, and each later read re-reads the
/// bad block and fails again, so a reader never sees postings past it.
pub struct SegCursor {
    reader: Arc<SegmentReader>,
    kw: usize,
    slot: ErrorSlot,
    block: BlockBuf,
    /// The chunk `block` holds, with its index; set only once its load
    /// fully succeeded.
    loaded: Option<(usize, PackedChunk)>,
    /// The position: the chunk (the chunk count past the end), and the
    /// key within it; and that chunk's key count (0 past the end).
    chunk: usize,
    key: usize,
    keys_here: usize,
    /// A seek put the position at a chunk's first key, whose value the
    /// skip table holds: `current` answers it without a load.
    from_skip: bool,
    /// The last seek failed to load its chunk: nothing to read until the
    /// next seek.
    dead: bool,
    /// The postings at the position and just before it, once unpacked;
    /// a step hands the first to the second.
    cur: Unpacked,
    prev: Unpacked,
}

/// A posting unpacked into a reused buffer, tagged with its place in the
/// skip table: `(chunk, key)`.
#[derive(Debug, Default)]
struct Unpacked {
    at: Option<(usize, usize)>,
    comps: Vec<u32>,
}

impl SegCursor {
    fn chunks(&self) -> &[Chunk] {
        &self.reader.entry(self.kw).chunks
    }

    /// Moves to key `key` of chunk `chunk`.
    fn place(&mut self, chunk: usize, key: usize) {
        (self.chunk, self.key) = (chunk, key);
        self.keys_here = self.chunks().get(chunk).map_or(0, |c| c.entries as usize);
    }

    /// Chunk `idx`'s checked view, loaded via the one-chunk cache; `None`
    /// past the last chunk or on a failed load (reported through the
    /// slot).
    fn loaded_chunk(&mut self, idx: usize) -> Option<PackedChunk> {
        match self.loaded {
            Some((held, c)) if held == idx => Some(c),
            _ => {
                self.loaded = None;
                let chunk = self.reader.entry(self.kw).chunks.get(idx)?;
                let c = self.slot.ok(self.reader.load_chunk(chunk, &mut self.block))?;
                self.loaded = Some((idx, c));
                Some(c)
            }
        }
    }

    /// The posting at `(chunk, key)`, unpacked into `prev` or `cur`
    /// unless that already holds it.
    fn unpacked(&mut self, at: (usize, usize), prev: bool) -> Option<&[u32]> {
        if (if prev { &self.prev } else { &self.cur }).at != Some(at) {
            let c = self.loaded_chunk(at.0)?;
            let held = if prev { &mut self.prev } else { &mut self.cur };
            held.at = None;
            if !c.unpack(self.block.payload(), at.1, &mut held.comps) {
                if at.1 < c.len() {
                    self.slot.poison(unpack_failed(at.1));
                }
                return None;
            }
            held.at = Some(at);
        }
        Some(if prev { &self.prev.comps } else { &self.cur.comps })
    }
}

impl PostingCursor for SegCursor {
    fn len(&self) -> u64 {
        self.reader.entry(self.kw).count
    }

    fn seek(&mut self, key: &[u32]) {
        let idx = self.chunks().partition_point(|c| c.min.components() <= key);
        // Before every chunk's minimum, or past the chunk that holds the
        // key: the position is a chunk's first key.
        self.place(idx, 0);
        (self.from_skip, self.dead) = (true, false);
        let Some(within) = idx.checked_sub(1) else { return };
        let Some(c) = self.loaded_chunk(within) else {
            self.dead = true; // the slot says why
            (self.cur.at, self.prev.at) = (None, None);
            return;
        };
        let (payload, scratch) = self.block.parts();
        match c.rank(payload, key, false, scratch) {
            Some(at) if at < c.len() => {
                self.place(within, at);
                self.from_skip = false;
            }
            Some(_) => {}
            None => {
                self.slot.poison(SegmentError::Corrupt(format!(
                    "probe {key:?} has no bound in its chunk"
                )));
                self.dead = true;
                (self.cur.at, self.prev.at) = (None, None);
            }
        }
    }

    fn step(&mut self) {
        let at = (self.chunk, self.key);
        // Only a readable posting is stepped past: a failed block stops
        // the cursor.
        if self.cur.at != Some(at) && self.current().is_none() {
            return;
        }
        if self.cur.at == Some(at) {
            std::mem::swap(&mut self.cur, &mut self.prev);
        }
        (self.key, self.from_skip) = (self.key + 1, false);
        if self.key >= self.keys_here {
            self.place(self.chunk + 1, 0);
        }
    }

    fn current(&mut self) -> Option<&[u32]> {
        if self.cur.at == Some((self.chunk, self.key)) {
            return Some(&self.cur.comps);
        }
        if self.dead {
            return None;
        }
        if self.key == 0 && self.from_skip {
            return self.reader.entry(self.kw).chunks.get(self.chunk).map(|c| c.min.components());
        }
        self.unpacked((self.chunk, self.key), false)
    }

    fn before(&mut self) -> Option<&[u32]> {
        if self.key > 0 && self.prev.at == Some((self.chunk, self.key - 1)) {
            return Some(&self.prev.comps);
        }
        if self.dead {
            return None;
        }
        let at = match self.key.checked_sub(1) {
            Some(key) => (self.chunk, key),
            None => {
                let chunk = self.chunk.checked_sub(1)?;
                (chunk, (self.chunks().get(chunk)?.entries as usize).checked_sub(1)?)
            }
        };
        self.unpacked(at, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{seal, SealSpec};
    use std::collections::BTreeMap;
    use xk_slca::{MemList, RankedList, StreamList};
    use xk_storage::MemPager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn sealed(lists: &BTreeMap<String, Vec<Dewey>>, block: usize) -> Arc<SegmentReader> {
        let pager = Arc::new(MemPager::new(block));
        seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, lists).unwrap();
        SegmentReader::open(pager, None).unwrap()
    }

    fn corpus() -> BTreeMap<String, Vec<Dewey>> {
        let mut lists = BTreeMap::new();
        lists.insert(
            "alpha".to_string(),
            (0..500).map(|i| Dewey::from_components(vec![0, i / 7, i % 7])).collect(),
        );
        lists.insert("beta".to_string(), vec![d("0.1"), d("0.40.2"), d("0.66")]);
        lists.insert("gamma".to_string(), vec![d("0.0.0")]);
        lists.insert("empty-adjacent".to_string(), vec![d("0.9")]);
        lists
    }

    #[test]
    fn open_exposes_dictionary() {
        let r = sealed(&corpus(), 256);
        assert_eq!(r.frequency("alpha"), 500);
        assert_eq!(r.frequency("beta"), 3);
        assert_eq!(r.frequency("missing"), 0);
        assert_eq!(r.keywords().count(), 4);
        assert_eq!(r.min_dewey("beta"), Some(&d("0.1")));
        assert_eq!(r.postings("beta").unwrap(), vec![d("0.1"), d("0.40.2"), d("0.66")]);
    }

    #[test]
    fn probes_match_memlist_oracle() {
        let lists = corpus();
        let r = sealed(&lists, 256);
        let slot = ErrorSlot::new();
        for (kw, nodes) in &lists {
            let mut seg = r.stream_list(kw, slot.clone()).unwrap();
            let mut mem = MemList::from_sorted(nodes.clone());
            let mut probes: Vec<Dewey> = nodes.to_vec();
            probes.push(Dewey::root());
            probes.push(d("0.0.0.0"));
            probes.push(d("9999"));
            probes.push(d("0.35"));
            for p in &probes {
                assert_eq!(seg.rm(p), mem.rm(p), "rm({p}) for {kw}");
                assert_eq!(seg.lm(p), mem.lm(p), "lm({p}) for {kw}");
            }
            assert_eq!(seg.len(), nodes.len() as u64);
        }
        assert!(!slot.is_poisoned());
    }

    #[test]
    fn stream_matches_input() {
        let lists = corpus();
        let r = sealed(&lists, 256);
        let slot = ErrorSlot::new();
        for (kw, nodes) in &lists {
            let mut s = r.stream_list(kw, slot.clone()).unwrap();
            let mut got = Vec::new();
            while let Some(n) = s.next_node() {
                got.push(n);
            }
            assert_eq!(&got, nodes, "stream for {kw}");
            s.seek(&[]);
            assert_eq!(s.next_node().as_ref(), nodes.first(), "rewound stream for {kw}");
        }
        assert!(!slot.is_poisoned());
    }

    #[test]
    fn probe_reads_one_block_and_caches() {
        let lists = corpus();
        let r = sealed(&lists, 256);
        let slot = ErrorSlot::new();
        let mut seg = r.stream_list("alpha", slot.clone()).unwrap();
        let before = r.block_reads();
        seg.rm(&d("0.10"));
        let after_first = r.block_reads();
        assert_eq!(after_first - before, 1, "one probe = one block read");
        seg.rm(&d("0.10.1"));
        seg.lm(&d("0.10.2"));
        assert_eq!(r.block_reads(), after_first, "cached chunk re-used");
    }

    #[test]
    fn corrupt_block_poisons_not_panics() {
        let lists = corpus();
        let pager = Arc::new(MemPager::new(256));
        seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
        // Flip a byte in the first posting block (block 1).
        let mut buf = vec![0u8; 256];
        pager.read_page(xk_storage::PageId(1), &mut buf).unwrap();
        buf[40] ^= 0xFF;
        pager.write_page(xk_storage::PageId(1), &buf).unwrap();
        let r = SegmentReader::open(pager, None).unwrap(); // dict blocks intact
        let slot = ErrorSlot::new();
        let mut seg = r.stream_list("alpha", slot.clone()).unwrap();
        // Probe inside the first chunk so the corrupt block is decoded
        // (a probe before the whole list is answered from the skip table).
        assert_eq!(seg.rm(&d("0.0.1")), None);
        assert!(slot.is_poisoned());
        assert!(matches!(slot.take(), Some(SegmentError::Corrupt(_))));
    }

    #[test]
    fn corrupt_block_ends_the_stream() {
        let lists = corpus();
        let pager = Arc::new(MemPager::new(256));
        seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
        let r = SegmentReader::open(Arc::clone(&pager) as Arc<dyn Pager>, None).unwrap();
        let chunks = &r.entry(r.by_name["alpha"]).chunks;
        assert!(chunks.len() > 2, "alpha spans several chunks");
        // Corrupt the block holding alpha's second chunk; every posting
        // of the chunks before that block still streams.
        let bad = chunks[1].block;
        let first_bad = chunks.iter().position(|c| c.block == bad).unwrap();
        let before_bad: u32 = chunks[..first_bad].iter().map(|c| c.entries).sum();
        let mut buf = vec![0u8; 256];
        pager.read_page(xk_storage::PageId(bad), &mut buf).unwrap();
        buf[40] ^= 0xFF;
        pager.write_page(xk_storage::PageId(bad), &buf).unwrap();
        let r = SegmentReader::open(pager, None).unwrap();
        let slot = ErrorSlot::new();
        let mut s = r.stream_list("alpha", slot.clone()).unwrap();
        let read = std::iter::from_fn(|| s.next_node()).count();
        assert_eq!(read, before_bad as usize, "the stream stops at the bad block");
        assert!(matches!(slot.take(), Some(SegmentError::Corrupt(_))));
        assert_eq!(s.next_node(), None, "and stays ended");
        assert!(matches!(slot.take(), Some(SegmentError::Corrupt(_))), "the retry fails too");
    }

    #[test]
    fn fence_mismatch_rejected() {
        let pager = Arc::new(MemPager::new(256));
        seal(pager.as_ref(), &SealSpec { seq: 5, seal_epoch: 0 }, &corpus()).unwrap();
        let good = Fence { seq: 5, postings: 505, meta_crc: 0 };
        // Correct fence values come from the actual header.
        let r = SegmentReader::open(Arc::clone(&pager) as Arc<dyn Pager>, None).unwrap();
        let fence = Fence {
            seq: r.header().seq,
            postings: r.header().posting_count,
            meta_crc: r.header().meta_crc,
        };
        SegmentReader::open(Arc::clone(&pager) as Arc<dyn Pager>, Some(&fence)).unwrap();
        let err =
            SegmentReader::open(Arc::clone(&pager) as Arc<dyn Pager>, Some(&good)).unwrap_err();
        assert!(err.to_string().contains("generation fence"), "{err}");
    }

    #[test]
    fn overflowing_header_counts_are_corrupt_at_open() {
        // A CRC-valid header whose block counts overflow u32 once summed:
        // a typed error, never an arithmetic panic or a wrapped count.
        let pager = Arc::new(MemPager::new(256));
        let h = seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &corpus()).unwrap();
        let planted = Header { data_blocks: u32::MAX, ..h };
        pager.write_page(xk_storage::PageId(0), &planted.encode(256)).unwrap();
        match SegmentReader::open(pager, None) {
            Err(SegmentError::Corrupt(m)) => assert!(m.contains("overflow"), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_blob_rejected() {
        let full = Arc::new(MemPager::new(256));
        seal(full.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &corpus()).unwrap();
        // Copy all but the trailer block into a shorter pager.
        let short = Arc::new(MemPager::new(256));
        let mut buf = vec![0u8; 256];
        let last = full.page_count() - 1;
        for i in 0..last {
            while short.page_count() <= i {
                short.grow().unwrap();
            }
            full.read_page(xk_storage::PageId(i), &mut buf).unwrap();
            short.write_page(xk_storage::PageId(i), &buf).unwrap();
        }
        let err = SegmentReader::open(short, None).unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
    }
}
