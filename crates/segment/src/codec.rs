//! Varint and prefix-delta encoding of Dewey postings.
//!
//! Inside a segment, posting lists are sorted by Dewey id (document
//! order), and consecutive ids share long root-side prefixes — DBLP-like
//! documents are wide and shallow, so two neighbouring postings usually
//! differ only in their last one or two components. Each entry is
//! therefore stored as a delta against its predecessor:
//!
//! ```text
//! entry := varint(shared)      components reused from the previous entry
//!          varint(suffix_len)  number of fresh components
//!          suffix_len × varint(component)
//! ```
//!
//! A *restart* entry is simply one encoded with `shared = 0`, making it
//! self-contained; the writer forces a restart at every block boundary
//! and at the start of every keyword run, so a reader can begin decoding
//! at any skip-table chunk without upstream context. The decoder
//! (`FlatChunk::decode`) therefore works one chunk at a time: it
//! expands a chunk's entries into one flat component buffer that the
//! caller keeps and reuses, checking every entry as it goes.

use crate::error::{Result, SegmentError};
use crate::writer::Chunk;
use xk_xmltree::Dewey;

/// Appends `v` as a LEB128 varint (7 bits per byte, MSB = continuation).
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or_else(|| SegmentError::Corrupt("varint truncated".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(SegmentError::Corrupt("varint overflows u64".into()));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Number of leading components `a` and `b` share.
fn shared_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Encodes `d` as a delta against `prev` into `out`. With `prev = None`
/// the entry is a restart (fully self-contained).
// xk-analyze: allow(panic_path, reason = "shared_prefix never exceeds comps.len(), so comps[shared..] is in range")
pub fn encode_entry(out: &mut Vec<u8>, prev: Option<&Dewey>, d: &Dewey) {
    let comps = d.components();
    let shared = match prev {
        Some(p) => shared_prefix(p.components(), comps),
        None => 0,
    };
    put_varint(out, shared as u64);
    put_varint(out, (comps.len() - shared) as u64);
    for &c in &comps[shared..] {
        put_varint(out, c as u64);
    }
}

/// One skip chunk decoded into flat, reusable storage: entry `i` is
/// `comps[ends[i - 1]..ends[i]]` (with `ends[-1] = 0`). Decoding into the
/// same `FlatChunk` again reuses both vectors, so once a list's buffer is
/// warm a chunk decode allocates nothing, and a probe borrows `&[u32]`
/// entries instead of building a `Dewey` per posting.
#[derive(Debug, Default)]
pub(crate) struct FlatChunk {
    comps: Vec<u32>,
    ends: Vec<u32>,
}

impl FlatChunk {
    /// Number of decoded entries.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Forgets every entry, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.comps.clear();
        self.ends.clear();
    }

    /// Entry `i`'s components, or `None` past the end.
    pub(crate) fn get(&self, i: usize) -> Option<&[u32]> {
        let start = match i.checked_sub(1) {
            Some(p) => *self.ends.get(p)? as usize,
            None => 0,
        };
        self.comps.get(start..*self.ends.get(i)? as usize)
    }

    /// Every entry in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).filter_map(|i| self.get(i))
    }

    /// Number of leading entries satisfying `pred`, by binary search:
    /// entries ascend, so `pred` must hold on a prefix of them (as for
    /// `slice::partition_point`).
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&[u32]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).is_some_and(&mut pred) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Replaces the contents with `chunk`'s entries, delta-decoded from
    /// the CRC-checked `payload` of its block in one pass that checks
    /// every entry: the offset lies inside the payload, the first entry
    /// is a restart, each `shared` count fits its predecessor, suffixes
    /// and components are in range, entries strictly ascend, and the
    /// first equals the skip table's `min`. On error the buffer holds a
    /// partial decode; the reader clears it before anyone can read it.
    // xk-analyze: allow(panic_path, reason = "prev and start.. are ranges of entries this loop already pushed into comps, and shared <= prev.len() is checked before either is offset by it")
    pub(crate) fn decode(&mut self, payload: &[u8], chunk: &Chunk) -> Result<()> {
        self.clear();
        let mut pos = chunk.offset as usize;
        if pos > payload.len() {
            return Err(SegmentError::Corrupt(format!(
                "chunk offset {pos} overflows block {} payload ({} bytes)",
                chunk.block,
                payload.len()
            )));
        }
        // Reserve from the skip entry, bounded by the payload (an entry
        // takes at least two bytes) so a corrupt count cannot force a
        // huge allocation.
        let cap = (chunk.entries as usize).min(payload.len() / 2);
        self.ends.reserve(cap);
        self.comps.reserve(cap.saturating_mul(chunk.min.depth()).min(payload.len()));
        let mut prev = 0..0; // the previous entry's range in `comps`
        for i in 0..chunk.entries {
            let shared = get_varint(payload, &mut pos)? as usize;
            let suffix_len = get_varint(payload, &mut pos)? as usize;
            let start = self.comps.len();
            if i == 0 {
                if shared != 0 {
                    return Err(SegmentError::Corrupt(
                        "restart entry claims shared components".into(),
                    ));
                }
            } else {
                if shared > prev.len() {
                    return Err(SegmentError::Corrupt(format!(
                        "delta shares {shared} components but predecessor has {}",
                        prev.len()
                    )));
                }
                self.comps.extend_from_within(prev.start..prev.start + shared);
            }
            if suffix_len > u16::MAX as usize {
                return Err(SegmentError::Corrupt(format!("absurd suffix length {suffix_len}")));
            }
            for _ in 0..suffix_len {
                let c = get_varint(payload, &mut pos)?;
                let c = u32::try_from(c)
                    .map_err(|_| SegmentError::Corrupt(format!("component {c} overflows u32")))?;
                self.comps.push(c);
            }
            // The two entries agree on their first `shared` components,
            // so comparing what follows orders them.
            if i > 0 && self.comps[prev.start + shared..prev.end] >= self.comps[start + shared..] {
                return Err(SegmentError::Corrupt(format!(
                    "decoded postings not ascending in block {} ({} then {})",
                    chunk.block,
                    Dewey::from_components(self.comps[prev.clone()].to_vec()),
                    Dewey::from_components(self.comps[start..].to_vec())
                )));
            }
            let end = self.comps.len();
            self.ends.push(u32::try_from(end).map_err(|_| {
                SegmentError::Corrupt(format!("block {} decodes past u32 components", chunk.block))
            })?);
            prev = start..end;
        }
        if self.get(0) != Some(chunk.min.components()) {
            return Err(SegmentError::Corrupt(format!(
                "chunk min {} disagrees with first decoded entry in block {}",
                chunk.min, chunk.block
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn varint_roundtrip() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn varint_truncation_is_typed() {
        let mut out = Vec::new();
        put_varint(&mut out, 1 << 40);
        out.truncate(out.len() - 1);
        let mut pos = 0;
        assert!(matches!(get_varint(&out, &mut pos), Err(SegmentError::Corrupt(_))));
    }

    /// `nodes` encoded as one restart run, the way the writer lays out a
    /// chunk.
    fn encode_run(nodes: &[Dewey]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev: Option<&Dewey> = None;
        for n in nodes {
            encode_entry(&mut out, prev, n);
            prev = Some(n);
        }
        out
    }

    fn chunk(entries: u32, min: Dewey) -> Chunk {
        Chunk { block: 1, offset: 0, entries, min }
    }

    fn decode(payload: &[u8], chunk: &Chunk) -> Result<Vec<Dewey>> {
        let mut flat = FlatChunk::default();
        flat.decode(payload, chunk)?;
        Ok(flat.iter().map(|c| Dewey::from_components(c.to_vec())).collect())
    }

    fn corrupt_text(payload: &[u8], chunk: &Chunk) -> String {
        match decode(payload, chunk) {
            Err(SegmentError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn entry_roundtrip_chain() {
        let nodes = [d("0"), d("0.1"), d("0.1.0"), d("0.1.5"), d("0.2.3.4"), d("7")];
        let out = encode_run(&nodes);
        assert_eq!(decode(&out, &chunk(6, d("0"))).unwrap(), nodes);
        // A reused buffer holds only the latest chunk.
        let mut flat = FlatChunk::default();
        flat.decode(&out, &chunk(6, d("0"))).unwrap();
        let tail = encode_run(&nodes[4..]);
        flat.decode(&tail, &chunk(2, d("0.2.3.4"))).unwrap();
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.get(1), Some(&[7u32][..]));
        assert_eq!(flat.get(2), None);
    }

    #[test]
    fn restart_entry_is_self_contained() {
        let out = encode_run(&[d("3.4.5")]);
        assert_eq!(decode(&out, &chunk(1, d("3.4.5"))).unwrap(), [d("3.4.5")]);
    }

    #[test]
    fn root_dewey_encodes() {
        let out = encode_run(&[Dewey::root(), d("0")]);
        assert_eq!(decode(&out, &chunk(2, Dewey::root())).unwrap(), [Dewey::root(), d("0")]);
    }

    #[test]
    fn bogus_shared_count_is_typed() {
        // shared=5 against a depth-1 predecessor.
        let mut out = encode_run(&[d("0")]);
        put_varint(&mut out, 5);
        put_varint(&mut out, 0);
        assert_eq!(
            corrupt_text(&out, &chunk(2, d("0"))),
            "delta shares 5 components but predecessor has 1"
        );
        // And a restart claiming shared components.
        assert_eq!(
            corrupt_text(&out[3..], &chunk(1, d("0"))),
            "restart entry claims shared components"
        );
    }

    #[test]
    fn every_entry_check_keeps_its_text() {
        let min = d("0.1");
        let at = |offset| Chunk { offset, ..chunk(1, min.clone()) };
        let out = encode_run(&[d("0.1"), d("0.2")]);
        assert_eq!(
            corrupt_text(&out, &at(99)),
            format!("chunk offset 99 overflows block 1 payload ({} bytes)", out.len())
        );
        let swapped = encode_run(&[d("0.2"), d("0.1")]);
        assert_eq!(
            corrupt_text(&swapped, &chunk(2, d("0.2"))),
            "decoded postings not ascending in block 1 (0.2 then 0.1)"
        );
        assert_eq!(
            corrupt_text(&out, &chunk(2, d("0.0"))),
            "chunk min 0.0 disagrees with first decoded entry in block 1"
        );
        let mut absurd = Vec::new();
        put_varint(&mut absurd, 0);
        put_varint(&mut absurd, u16::MAX as u64 + 1);
        assert_eq!(corrupt_text(&absurd, &chunk(1, min.clone())), "absurd suffix length 65536");
        let mut wide = Vec::new();
        put_varint(&mut wide, 0);
        put_varint(&mut wide, 1);
        put_varint(&mut wide, u32::MAX as u64 + 1);
        assert_eq!(
            corrupt_text(&wide, &chunk(1, min.clone())),
            "component 4294967296 overflows u32"
        );
        assert_eq!(corrupt_text(&wide[..3], &chunk(1, min)), "varint truncated");
    }

    #[test]
    fn prefix_sharing_shrinks_neighbours() {
        // Two deep siblings: the delta should be a handful of bytes, far
        // below the ~9 bytes of the absolute form.
        let a = Dewey::from_components(vec![0, 3, 1, 4, 1, 5, 9, 2]);
        let b = Dewey::from_components(vec![0, 3, 1, 4, 1, 5, 9, 3]);
        let mut absolute = Vec::new();
        encode_entry(&mut absolute, None, &b);
        let mut delta = Vec::new();
        encode_entry(&mut delta, Some(&a), &b);
        assert!(delta.len() < absolute.len(), "{} !< {}", delta.len(), absolute.len());
        assert_eq!(delta.len(), 3); // shared=7, suffix_len=1, component 3
    }
}
