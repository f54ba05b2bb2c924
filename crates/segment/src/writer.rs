//! Sealing sorted posting lists into an immutable XKSEG2 blob.
//!
//! The writer packs keyword runs back to back into fixed-size posting
//! blocks. Each run is cut into **chunks** (see [`crate::codec`]): keys
//! at one fixed stride, packed at the chunk's own per-level widths. A
//! chunk grows greedily — each posting may widen a level, and so the
//! stride of every key before it — until the next posting would overrun
//! the block; then it closes, and the next one opens in the same block
//! if a one-key chunk still fits there, else in a fresh block. Every
//! chunk has a skip entry `(block, offset, entries, min id)` in the
//! dictionary, so an `lm`/`rm` probe binary-searches the chunk table and
//! loads exactly one block.

use crate::codec::{chunk_bytes, encode_chunk, put_varint, MAX_CHUNK_DEPTH};
use crate::error::{Result, SegmentError};
use crate::format::{encode_trailer, frame_block, Header, BLOCK_FRAME, MIN_BLOCK};
use std::collections::BTreeMap;
use xk_storage::{PageId, Pager};
use xk_xmltree::packed::{max_packed_bits, width_of};
use xk_xmltree::Dewey;

/// Identity of the segment being sealed.
#[derive(Debug, Clone, Copy)]
pub struct SealSpec {
    /// Unique segment id within the store.
    pub seq: u64,
    /// Committed epoch at seal time (informational).
    pub seal_epoch: u64,
}

/// One skip entry: where a restart run begins and what it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Posting block id (1-based; block 0 is the header).
    pub block: u32,
    /// Byte offset of the chunk's width header within the block payload.
    pub offset: u32,
    /// Number of entries in the chunk.
    pub entries: u32,
    /// Smallest (first) Dewey id in the chunk.
    pub min: Dewey,
}

/// Seals `lists` (sorted keyword → strictly ascending postings) into
/// `pager`, returning the blob's header. The pager must be freshly
/// created (one zeroed meta page); its page size is the block size.
pub fn seal(pager: &dyn Pager, spec: &SealSpec, lists: &BTreeMap<String, Vec<Dewey>>) -> Result<Header> {
    let block_size = pager.page_size();
    if block_size < MIN_BLOCK {
        return Err(SegmentError::Corrupt(format!(
            "block size {block_size} below the {MIN_BLOCK}-byte minimum"
        )));
    }
    let cap = block_size - BLOCK_FRAME;

    // Phase 1: pack posting blocks and collect per-keyword chunk tables.
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut cur: Vec<u8> = Vec::with_capacity(cap);
    let mut dict: Vec<u8> = Vec::new();
    let mut posting_count: u64 = 0;

    let mut widths = Widths::default();
    for (keyword, list) in lists {
        let mut chunks: Vec<Chunk> = Vec::new();
        let mut first = 0; // the open chunk's first entry
        widths.clear();
        if let Some(pair) = list.windows(2).find(|pair| pair[0] >= pair[1]) {
            return Err(SegmentError::Corrupt(format!(
                "postings for {keyword:?} are not strictly ascending ({} then {})",
                pair[0], pair[1]
            )));
        }
        let refuse = |d: &Dewey, why: String| {
            SegmentError::Corrupt(format!("posting {d} for {keyword:?} {why}"))
        };
        for (i, d) in list.iter().enumerate() {
            let comps = d.components();
            if comps.len() > MAX_CHUNK_DEPTH {
                return Err(refuse(d, too_deep(comps.len())));
            }
            if i > first && cur.len() + widths.bytes_with(comps, i - first + 1) > cap {
                let closed = list.get(first..i).unwrap_or_default();
                close_chunk(&payloads, &mut cur, &mut chunks, &widths.w, closed)?;
                first = i;
                widths.clear();
            }
            if i == first {
                let need = widths.bytes_with(comps, 1);
                if need > cap {
                    return Err(refuse(d, too_big(need, cap)));
                }
                if cur.len() + need > cap {
                    payloads.push(std::mem::take(&mut cur));
                }
            }
            widths.add(comps);
        }
        let rest = list.get(first..).unwrap_or_default();
        close_chunk(&payloads, &mut cur, &mut chunks, &widths.w, rest)?;
        posting_count += list.len() as u64;
        // Dictionary entry: keyword, count, chunk table.
        put_varint(&mut dict, keyword.len() as u64);
        dict.extend_from_slice(keyword.as_bytes());
        put_varint(&mut dict, list.len() as u64);
        put_varint(&mut dict, chunks.len() as u64);
        for c in &chunks {
            put_varint(&mut dict, c.block as u64);
            put_varint(&mut dict, c.offset as u64);
            put_varint(&mut dict, c.entries as u64);
            put_varint(&mut dict, c.min.depth() as u64);
            for &comp in c.min.components() {
                put_varint(&mut dict, comp as u64);
            }
        }
    }
    if !cur.is_empty() {
        payloads.push(cur);
    }

    // Phase 2: lay the blob out block by block.
    let meta_crc = xk_storage::crc32c(&dict);
    let dict_payloads: Vec<&[u8]> = dict.chunks(cap).collect();
    let header = Header {
        block_size: block_size as u32,
        seq: spec.seq,
        seal_epoch: spec.seal_epoch,
        keyword_count: lists.len() as u32,
        posting_count,
        data_blocks: payloads.len() as u32,
        dict_blocks: dict_payloads.len() as u32,
        meta_crc,
    };
    while pager.page_count() < header.total_blocks() {
        pager.grow()?;
    }
    pager.write_page(PageId(0), &header.encode(block_size))?;
    let mut block_no = 1u32;
    for p in &payloads {
        pager.write_page(PageId(block_no), &frame_block(p, block_size))?;
        block_no += 1;
    }
    for p in &dict_payloads {
        pager.write_page(PageId(block_no), &frame_block(p, block_size))?;
        block_no += 1;
    }
    pager.write_page(PageId(block_no), &encode_trailer(&header, block_size))?;
    Ok(header)
}

/// Why the posting `d` can never be sealed into `block_size`-byte
/// blocks — it is deeper than a chunk's width header can describe, or a
/// chunk of it alone overruns a block payload — or `None` if it seals.
/// A writer that checks this before it accepts a posting keeps every
/// later seal of it from failing.
pub fn unsealable(d: &Dewey, block_size: usize) -> Option<String> {
    let comps = d.components();
    if comps.len() > MAX_CHUNK_DEPTH {
        return Some(too_deep(comps.len()));
    }
    let mut widths = Widths::default();
    widths.clear();
    let need = widths.bytes_with(comps, 1);
    let cap = block_size.saturating_sub(BLOCK_FRAME);
    (need > cap).then(|| too_big(need, cap))
}

fn too_deep(depth: usize) -> String {
    format!("is {depth} levels deep, past a chunk's {MAX_CHUNK_DEPTH}")
}

fn too_big(need: usize, cap: usize) -> String {
    format!("needs {need} bytes, exceeding the {cap}-byte block payload")
}

/// Closes a chunk of `entries` (nothing for none) at the end of `cur`,
/// the block after the finished `payloads`: its skip entry, then its
/// bytes.
fn close_chunk(
    payloads: &[Vec<u8>],
    cur: &mut Vec<u8>,
    chunks: &mut Vec<Chunk>,
    widths: &[u8],
    entries: &[Dewey],
) -> Result<()> {
    let Some(min) = entries.first() else { return Ok(()) };
    chunks.push(Chunk {
        block: payloads.len() as u32 + 1,
        offset: cur.len() as u32,
        entries: entries.len() as u32,
        min: min.clone(),
    });
    encode_chunk(cur, widths, entries)
}

/// The open chunk's per-level widths: the bits of its largest component
/// at each level.
#[derive(Debug, Default)]
struct Widths {
    w: Vec<u8>,
    /// `max_packed_bits(w)`, kept current.
    bits: usize,
}

impl Widths {
    fn clear(&mut self) {
        self.w.clear();
        self.bits = max_packed_bits(&[]);
    }

    /// Whether the widths already hold `d` (the common case: a posting
    /// rarely widens its chunk).
    fn hold(&self, d: &[u32]) -> bool {
        d.len() <= self.w.len() && d.iter().zip(&self.w).all(|(&c, &w)| w >= 32 || c >> w == 0)
    }

    /// The chunk's bytes if `d` joined it as its `entries`-th posting.
    fn bytes_with(&self, d: &[u32], entries: usize) -> usize {
        if self.hold(d) {
            return chunk_bytes(self.w.len(), self.bits, entries);
        }
        let mut bits = self.bits;
        for (level, &c) in d.iter().enumerate() {
            let w = width_of(c) as usize;
            bits += match self.w.get(level) {
                Some(&cur) => w.saturating_sub(cur as usize),
                None => w + 1,
            };
        }
        chunk_bytes(self.w.len().max(d.len()), bits, entries)
    }

    fn add(&mut self, d: &[u32]) {
        if self.hold(d) {
            return;
        }
        for (level, &c) in d.iter().enumerate() {
            let w = width_of(c);
            match self.w.get_mut(level) {
                Some(cur) => *cur = (*cur).max(w),
                None => self.w.push(w),
            }
        }
        self.bits = max_packed_bits(&self.w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_storage::MemPager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn seal_empty_store() {
        let pager = MemPager::new(256);
        let h = seal(&pager, &SealSpec { seq: 1, seal_epoch: 0 }, &BTreeMap::new()).unwrap();
        assert_eq!(h.posting_count, 0);
        assert_eq!(h.data_blocks, 0);
        assert_eq!(h.total_blocks(), 2); // header + trailer
    }

    #[test]
    fn seal_rejects_unsorted_input() {
        let pager = MemPager::new(256);
        let mut lists = BTreeMap::new();
        lists.insert("k".to_string(), vec![d("0.2"), d("0.1")]);
        let err = seal(&pager, &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap_err();
        assert!(err.to_string().contains("ascending"), "{err}");
    }

    #[test]
    fn seal_rejects_tiny_blocks() {
        let pager = MemPager::new(128);
        let err = seal(&pager, &SealSpec { seq: 1, seal_epoch: 0 }, &BTreeMap::new()).unwrap_err();
        assert!(err.to_string().contains("block size"), "{err}");
    }

    #[test]
    fn empty_lists_take_no_posting_bytes() {
        let pager = std::sync::Arc::new(MemPager::new(256));
        let lists = BTreeMap::from([("a".to_string(), vec![]), ("b".to_string(), vec![d("0.1")])]);
        let h = seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
        assert_eq!((h.keyword_count, h.posting_count, h.data_blocks), (2, 1, 1));
        let r = crate::SegmentReader::open(pager, None).unwrap();
        assert_eq!(r.postings("a").unwrap(), []);
        assert_eq!(r.postings("b").unwrap(), [d("0.1")]);
    }

    #[test]
    fn a_widening_posting_closes_a_chunk_that_would_overflow() {
        // 121 two-byte keys behind a 5-byte width header take 247 bytes
        // of a 250-byte payload, with room for one more such key; but a
        // posting whose ordinal needs 20 bits would stretch all of them
        // to 4 bytes, so it opens a chunk of its own, in a fresh block.
        let mut nodes: Vec<Dewey> =
            (0..121).map(|i| Dewey::from_components(vec![0, i % 62, i / 62])).collect();
        nodes.sort();
        nodes.push(d("1.1000000"));
        let pager = std::sync::Arc::new(MemPager::new(256));
        let lists = BTreeMap::from([("w".to_string(), nodes.clone())]);
        let h = seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
        let r = crate::SegmentReader::open(pager, None).unwrap();
        let chunks: Vec<_> = r.entries().flat_map(|(_, e)| e.chunks.clone()).collect();
        assert_eq!(chunks.len(), 2, "{chunks:?}");
        assert_eq!((chunks[1].entries, &chunks[1].min), (1, &d("1.1000000")));
        assert_eq!(h.data_blocks, 2);
        assert_eq!(r.postings("w").unwrap(), nodes);
    }

    #[test]
    fn postings_deeper_than_a_byte_seal() {
        let pager = std::sync::Arc::new(MemPager::new(4096));
        let deep = Dewey::from_components(vec![0; 256]);
        let list = vec![d("0.1"), deep.clone(), deep.child(3), d("0.2")];
        let mut sorted = list.clone();
        sorted.sort();
        let lists = BTreeMap::from([("k".to_string(), sorted.clone())]);
        seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
        let r = crate::SegmentReader::open(pager, None).unwrap();
        assert_eq!(r.postings("k").unwrap(), sorted);
    }

    #[test]
    fn unsealable_postings_are_named_before_a_seal_meets_them() {
        let fits = Dewey::from_components(vec![0; 1000]);
        assert_eq!(unsealable(&fits, 4096), None);
        let big = Dewey::from_components(vec![0; 4000]);
        let why = unsealable(&big, 4096).unwrap();
        assert!(why.starts_with("needs 5003 bytes, exceeding the 4090-byte"), "{why}");
        let deep = Dewey::from_components(vec![0; MAX_CHUNK_DEPTH + 1]);
        assert!(unsealable(&deep, 1 << 20).unwrap().contains("past a chunk's 65535"));
        // `seal` refuses with the same words.
        for (d, block) in [(big, 4096), (deep, 1 << 20)] {
            let pager = MemPager::new(block);
            let lists = BTreeMap::from([("k".to_string(), vec![d.clone()])]);
            let err = seal(&pager, &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap_err();
            assert!(err.to_string().contains(&unsealable(&d, block).unwrap()), "{err}");
        }
    }

    #[test]
    fn large_lists_roll_blocks() {
        let pager = MemPager::new(256);
        let mut lists = BTreeMap::new();
        // ~1000 postings of depth 3: far more than one 250-byte payload.
        let nodes: Vec<Dewey> =
            (0..1000).map(|i| Dewey::from_components(vec![0, i / 10, i % 10])).collect();
        lists.insert("w".to_string(), nodes);
        let h = seal(&pager, &SealSpec { seq: 3, seal_epoch: 9 }, &lists).unwrap();
        assert_eq!(h.posting_count, 1000);
        assert!(h.data_blocks > 1, "must have rolled blocks: {h:?}");
        assert_eq!(h.seq, 3);
        assert_eq!(pager.page_count(), h.total_blocks());
    }
}

