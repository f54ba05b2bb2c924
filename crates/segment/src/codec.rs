//! The XKSEG2 posting chunk, and the varints of the dictionary.
//!
//! A *chunk* is one keyword's run of postings inside one posting block:
//!
//! ```text
//! chunk := depth u16 LE             levels below the root the chunk spans
//!          widths[depth] u8         bits of the chunk's largest component, per level
//!          entries × key[stride]    stride = ceil(max_packed_bits(widths) / 8)
//! ```
//!
//! Each key is [`xk_xmltree::packed`]'s packing of one posting at the
//! chunk's widths — a continuation bit and the component per level, a
//! terminator, zero padding — stretched to the chunk's one stride. The
//! keys therefore compare as byte strings, and at a stride of at most 8
//! bytes as big-endian integers, exactly like the Dewey ids, so a probe
//! binary-searches them where they lie in the block buffer and unpacks
//! only the posting it returns. The widths are the chunk's own, computed
//! at seal time from its entries, not the document's level table:
//! appends grow the root's fanout past the build's table.
//!
//! `PackedChunk::check` is the one gate between a CRC-checked block and
//! every reader: probes, streams, `postings()` (the merger) and `verify`
//! all see a chunk only through the view it returns. It checks the width
//! header, the key area against the payload, every key's continuation
//! bits and padding, strict ascent, and the first key against the skip
//! table's `min`, in one linear pass of integer operations.
//!
//! The dictionary (skip table) stays LEB128 varints: [`put_varint`] /
//! [`get_varint`].

use crate::error::{Result, SegmentError};
use crate::writer::Chunk;
use xk_xmltree::packed::{self, PackError};
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
        let byte =
            *buf.get(*pos).ok_or_else(|| SegmentError::Corrupt("varint truncated".into()))?;
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

/// Bytes of a chunk's depth field, the first of its width header.
const DEPTH_BYTES: usize = 2;

/// The deepest chunk, and so the deepest posting, a width header can
/// describe.
pub const MAX_CHUNK_DEPTH: usize = u16::MAX as usize;

/// Bytes of a chunk spanning `depth` levels whose longest packing is
/// `max_bits`: the width header, then `entries` keys at that stride.
pub(crate) fn chunk_bytes(depth: usize, max_bits: usize, entries: usize) -> usize {
    DEPTH_BYTES + depth + entries * max_bits.div_ceil(8)
}

/// Appends one chunk of `entries` packed at `widths` (which must hold
/// every entry) to `out`: the width header, then the fixed-stride keys.
pub fn encode_chunk(out: &mut Vec<u8>, widths: &[u8], entries: &[Dewey]) -> Result<()> {
    let depth = u16::try_from(widths.len()).map_err(|_| {
        SegmentError::Corrupt(format!(
            "a chunk of {} levels is deeper than {MAX_CHUNK_DEPTH}",
            widths.len()
        ))
    })?;
    let stride = packed::max_packed_bits(widths).div_ceil(8);
    out.extend_from_slice(&depth.to_le_bytes());
    out.extend_from_slice(widths);
    for d in entries {
        let at = out.len();
        packed::pack(d.components(), widths, out).map_err(|e| {
            SegmentError::Corrupt(format!("posting {d} does not fit its chunk's widths: {e:?}"))
        })?;
        out.resize(at + stride, 0);
    }
    Ok(())
}

/// A checked chunk's place in its block payload: what a list keeps
/// between calls while the block buffer holds the bytes. Every method
/// takes that payload; only [`PackedChunk::check`] makes one.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PackedChunk {
    /// Offset of the per-level widths in the payload.
    widths: usize,
    depth: usize,
    /// Offset of the first key.
    keys: usize,
    stride: usize,
    len: usize,
    /// Keeps the top `stride` bytes of an 8-byte load (stride ≤ 8).
    mask: u64,
}

impl PackedChunk {
    /// Checks `chunk` in the CRC-checked `payload` of its block and
    /// returns its view. One pass rejects, as `Corrupt`:
    ///
    /// * an offset or width header outside the payload, or a width
    ///   outside `1..=32`;
    /// * an `entries × stride` key area that overruns the payload;
    /// * a malformed key: at a stride of at most 8 bytes, one integer
    ///   test against the continuation-bit positions (`malformed_word`);
    ///   wider keys are unpacked;
    /// * keys that do not strictly ascend;
    /// * a first key (or none) other than the skip table's `min`.
    ///
    /// `scratch` is reused for packing `min`.
    pub(crate) fn check(
        payload: &[u8],
        chunk: &Chunk,
        scratch: &mut Vec<u8>,
    ) -> Result<PackedChunk> {
        let b = chunk.block;
        let corrupt = |m: String| Err(SegmentError::Corrupt(m));
        let at = chunk.offset as usize;
        let Some(&depth) = payload.get(at..).and_then(|p| p.first_chunk::<DEPTH_BYTES>()) else {
            return corrupt(format!(
                "chunk offset {at} overflows block {b} payload ({} bytes)",
                payload.len()
            ));
        };
        let depth = u16::from_le_bytes(depth) as usize;
        let head = at + DEPTH_BYTES;
        let Some(widths) = payload.get(head..head + depth) else {
            return corrupt(format!("chunk width header of {depth} levels overruns block {b}"));
        };
        if let Some((level, w)) = widths.iter().enumerate().find(|(_, &w)| !(1..=32).contains(&w)) {
            return corrupt(format!("chunk level {level} width {w} outside 1..=32 in block {b}"));
        }
        let stride = packed::max_packed_bits(widths).div_ceil(8);
        let len = chunk.entries as usize;
        let end = len.checked_mul(stride).and_then(|n| n.checked_add(head + depth));
        if end.is_none_or(|end| end > payload.len()) {
            return corrupt(format!(
                "chunk of {len} {stride}-byte keys overruns block {b} payload ({} bytes)",
                payload.len()
            ));
        }
        let mask = !u64::MAX.checked_shr(8 * stride as u32).unwrap_or(0);
        let c = PackedChunk { widths: head, depth, keys: head + depth, stride, len, mask };
        if stride <= 8 {
            c.check_words(payload, b)?;
        } else {
            c.check_slots(payload, b)?;
        }
        scratch.clear();
        let min_packed = packed::pack(chunk.min.components(), widths, scratch).is_ok() && {
            scratch.resize(stride, 0);
            len > 0 && c.slot(payload, 0) == scratch.as_slice()
        };
        if !min_packed {
            return corrupt(format!(
                "chunk min {} disagrees with first key in block {b}",
                chunk.min
            ));
        }
        Ok(c)
    }

    /// The integer check pass, for keys of at most 8 bytes. It only
    /// accumulates; on a failure a second pass names the first bad key.
    fn check_words(&self, payload: &[u8], block: u32) -> Result<()> {
        // Every continuation-bit position, and the terminator of a
        // depth-`depth` key.
        let mut slots = 0u64;
        let mut pos = 0u32;
        for &w in self.widths(payload) {
            slots |= 1 << (63 - pos);
            pos += w as u32 + 1;
        }
        slots |= 1 << (63 - pos);
        let (mut bad, mut prev, mut first) = (false, 0, true);
        for k in (0..self.len).map(|i| self.word(payload, i)) {
            bad |= malformed_word(k, slots) | (!first & (prev >= k));
            (prev, first) = (k, false);
        }
        if !bad {
            return Ok(());
        }
        for i in 0..self.len {
            let k = self.word(payload, i);
            if malformed_word(k, slots) {
                return Err(self.malformed(payload, block, i));
            }
            if i > 0 && self.word(payload, i - 1) >= k {
                return Err(self.descent(payload, block, i));
            }
        }
        Ok(())
    }

    /// The check pass for keys wider than 8 bytes: unpack each one.
    fn check_slots(&self, payload: &[u8], block: u32) -> Result<()> {
        let widths = self.widths(payload);
        let mut comps = Vec::with_capacity(self.depth);
        for i in 0..self.len {
            if !packed::unpack(self.slot(payload, i), widths, &mut comps) {
                return Err(self.malformed(payload, block, i));
            }
            if i > 0 && self.slot(payload, i - 1) >= self.slot(payload, i) {
                return Err(self.descent(payload, block, i));
            }
        }
        Ok(())
    }

    fn malformed(&self, payload: &[u8], block: u32, i: usize) -> SegmentError {
        SegmentError::Corrupt(format!(
            "malformed key {i} in block {block}: {:02x?}",
            self.slot(payload, i)
        ))
    }

    /// Key `i` does not follow key `i - 1`: both are well-formed, so name them.
    fn descent(&self, payload: &[u8], block: u32, i: usize) -> SegmentError {
        let show = |i| self.dewey(payload, i).map_or_else(|| "?".into(), |d| d.to_string());
        SegmentError::Corrupt(format!(
            "postings not ascending in block {block} ({} then {})",
            show(i - 1),
            show(i)
        ))
    }

    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn widths<'p>(&self, payload: &'p [u8]) -> &'p [u8] {
        payload.get(self.widths..self.keys).unwrap_or(&[])
    }

    /// Key `i`'s `stride` bytes (empty past the payload).
    fn slot<'p>(&self, payload: &'p [u8], i: usize) -> &'p [u8] {
        let at = self.keys + i * self.stride;
        payload.get(at..at + self.stride).unwrap_or(&[])
    }

    /// Key `i` as a big-endian integer, left-aligned (stride ≤ 8): one
    /// unaligned 8-byte load, masked to the stride, except at the very
    /// end of the payload.
    #[inline]
    fn word(&self, payload: &[u8], i: usize) -> u64 {
        let at = self.keys + i * self.stride;
        let w = match payload.get(at..at + 8) {
            Some(b) => b.try_into().unwrap_or_default(),
            None => {
                let mut w = [0u8; 8];
                let slot = self.slot(payload, i);
                w[..slot.len()].copy_from_slice(slot);
                w
            }
        };
        u64::from_be_bytes(w) & self.mask
    }

    /// Number of keys below `v`, or at or below it when `inclusive`: a
    /// binary search of the keys in place. An id these widths cannot
    /// pack (a component too wide, or deeper than the chunk) falls
    /// strictly between two keys; a bound past the subtree of its
    /// packable prefix sorts just like it. `scratch` holds the probe.
    /// `None` only if that bound fails to pack, which a prefix that fits
    /// never does.
    pub(crate) fn rank(
        &self,
        payload: &[u8],
        v: &[u32],
        inclusive: bool,
        scratch: &mut Vec<u8>,
    ) -> Option<usize> {
        let widths = self.widths(payload);
        scratch.clear();
        let inclusive = match packed::pack(v, widths, scratch) {
            Ok(()) => inclusive,
            Err(e) => {
                let prefix = match e {
                    PackError::TooDeep { max_depth, .. } => max_depth,
                    PackError::TooLarge { level, .. } => level,
                };
                let prefix = v.get(..prefix)?;
                packed::pack_upper_bound(prefix, widths, 8 * self.stride, scratch).ok()?;
                true
            }
        };
        if self.stride <= 8 {
            // The probe's packing is at most `stride` bytes: zero-fill to a word.
            scratch.resize(8, 0);
            let q = u64::from_be_bytes(scratch.first_chunk().copied().unwrap_or_default());
            // One plain compare per closure keeps the search free of branches.
            Some(match inclusive {
                true => partition(self.len, |i| self.word(payload, i) <= q),
                false => partition(self.len, |i| self.word(payload, i) < q),
            })
        } else {
            scratch.resize(self.stride, 0);
            let q = scratch.as_slice();
            Some(match inclusive {
                true => partition(self.len, |i| self.slot(payload, i) <= q),
                false => partition(self.len, |i| self.slot(payload, i) < q),
            })
        }
    }

    /// Unpacks key `i` into `out` (cleared first); false past the end.
    pub(crate) fn unpack(&self, payload: &[u8], i: usize, out: &mut Vec<u32>) -> bool {
        if i >= self.len {
            return false;
        }
        let widths = self.widths(payload);
        if self.stride <= 8 {
            packed::unpack_word(self.word(payload, i), 8 * self.stride as u32, widths, out)
        } else {
            packed::unpack(self.slot(payload, i), widths, out)
        }
    }

    /// Key `i` as a `Dewey`, or `None` past the end.
    pub(crate) fn dewey(&self, payload: &[u8], i: usize) -> Option<Dewey> {
        let mut out = Vec::with_capacity(self.depth);
        self.unpack(payload, i, &mut out).then(|| Dewey::from_components(out))
    }
}

/// Whether a key word breaks the packing, given `slots`: its
/// continuation-bit positions plus the deepest key's terminator. The
/// slots a key leaves `0` are `z`; the first (highest) of them is its
/// terminator. A key is well-formed iff it has one (`z != 0`) and every
/// set bit lies above it, i.e. `z` is below the key's lowest set bit
/// `low` (for the root, the all-zero key, any `z != 0` will do). Both
/// tests are the one wrapping compare `z - 1 >= low - 1`: no popcount,
/// no variable shift, no branch.
fn malformed_word(k: u64, slots: u64) -> bool {
    let z = !k & slots;
    z.wrapping_sub(1) >= (k & k.wrapping_neg()).wrapping_sub(1)
}

/// The number of leading indices in `0..len` satisfying `pred`, which
/// must hold on a prefix of them: a binary search whose loop body has
/// no data-dependent branch.
fn partition(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    if len == 0 {
        return 0;
    }
    let (mut base, mut size) = (0, len);
    while size > 1 {
        let half = size / 2;
        if pred(base + half - 1) {
            base += half;
        }
        size -= half;
    }
    base + pred(base) as usize
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

    /// The widths the writer would give `nodes`.
    fn widths_of(nodes: &[Dewey]) -> Vec<u8> {
        let mut w: Vec<u8> = Vec::new();
        for n in nodes {
            for (l, &c) in n.components().iter().enumerate() {
                let bits = packed::width_of(c);
                match w.get_mut(l) {
                    Some(cur) => *cur = (*cur).max(bits),
                    None => w.push(bits),
                }
            }
        }
        w
    }

    /// `nodes` as one chunk at `offset` of a payload.
    fn payload_at(offset: usize, nodes: &[Dewey]) -> (Vec<u8>, Chunk) {
        let mut out = vec![0xEE; offset];
        encode_chunk(&mut out, &widths_of(nodes), nodes).unwrap();
        let chunk = Chunk {
            block: 1,
            offset: offset as u32,
            entries: nodes.len() as u32,
            min: nodes[0].clone(),
        };
        (out, chunk)
    }

    fn read_all(payload: &[u8], chunk: &Chunk) -> Result<Vec<Dewey>> {
        let c = PackedChunk::check(payload, chunk, &mut Vec::new())?;
        Ok((0..c.len()).map(|i| c.dewey(payload, i).unwrap()).collect())
    }

    fn corrupt_text(payload: &[u8], chunk: &Chunk) -> String {
        match read_all(payload, chunk) {
            Err(SegmentError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn chunk_roundtrip_at_both_strides() {
        let narrow = [d("/"), d("0"), d("0.1"), d("0.1.0"), d("0.1.5"), d("0.2.3.4"), d("7")];
        let wide = [d("0.4294967295"), d("1.0.0.0.0.0.0.3"), d("4000000000")];
        for nodes in [&narrow[..], &wide[..]] {
            let (payload, chunk) = payload_at(3, nodes);
            assert_eq!(read_all(&payload, &chunk).unwrap(), nodes);
        }
        // Small ordinals take the integer path; u32 ordinals the byte slots.
        assert!(packed::max_packed_bits(&widths_of(&narrow)) <= 64);
        assert!(packed::max_packed_bits(&widths_of(&wide)) > 64);
    }

    #[test]
    fn rank_matches_a_sorted_slice() {
        let nodes = [d("0"), d("0.1"), d("0.1.0"), d("0.1.3"), d("0.2"), d("2.1")];
        let big = u32::MAX - 1;
        let wide: Vec<Dewey> = nodes
            .iter()
            .map(|n| Dewey::from_components([&[big, big][..], n.components()].concat()))
            .collect();
        for nodes in [nodes.to_vec(), wide] {
            let (payload, chunk) = payload_at(0, &nodes);
            let c = PackedChunk::check(&payload, &chunk, &mut Vec::new()).unwrap();
            assert_eq!(c.stride > 8, nodes[0].depth() > 1, "both paths are covered");
            let lead = &nodes[0].components()[..nodes[0].depth() - 1];
            let at = |tail: &[u32]| Dewey::from_components([lead, tail].concat());
            // Members, ancestors, too-deep ids, components past the
            // widths, and ids before and after everything.
            let mut probes = nodes.clone();
            for tail in [
                &[][..],
                &[0, 0],
                &[0, 1, 0, 0, 0],
                &[0, 1, 9],
                &[0, 7],
                &[1],
                &[3],
                &[2, 1, 0],
                &[2, 9],
            ] {
                probes.push(at(tail));
            }
            probes.push(Dewey::root());
            let mut scratch = Vec::new();
            for p in &probes {
                let below = nodes.partition_point(|n| n < p);
                let at_or_below = nodes.partition_point(|n| n <= p);
                assert_eq!(
                    c.rank(&payload, p.components(), false, &mut scratch),
                    Some(below),
                    "< {p}"
                );
                assert_eq!(
                    c.rank(&payload, p.components(), true, &mut scratch),
                    Some(at_or_below),
                    "<= {p}"
                );
            }
        }
    }

    #[test]
    fn chunks_deeper_than_a_byte_roundtrip() {
        // A depth of 300 levels needs both bytes of the depth field.
        let deep = Dewey::from_components(vec![1; 300]);
        let nodes = [deep.clone(), deep.child(0), deep.child(5)];
        let (payload, chunk) = payload_at(1, &nodes);
        assert_eq!(payload[1..3], 301u16.to_le_bytes());
        assert_eq!(read_all(&payload, &chunk).unwrap(), nodes);
        let c = PackedChunk::check(&payload, &chunk, &mut Vec::new()).unwrap();
        assert_eq!(c.rank(&payload, deep.child(1).components(), false, &mut Vec::new()), Some(2));
        let too_deep = vec![1u8; MAX_CHUNK_DEPTH + 1];
        let err = encode_chunk(&mut Vec::new(), &too_deep, &[]).unwrap_err();
        assert!(err.to_string().contains("deeper than 65535"), "{err}");
    }

    #[test]
    fn ancestors_and_descendants_share_a_chunk() {
        // The tie raw fixed-width packing gets wrong: `0.5` and its
        // `0.5.0…` descendants, one stride apart.
        let nodes = [d("0.5"), d("0.5.0"), d("0.5.0.0"), d("0.6")];
        let (payload, chunk) = payload_at(0, &nodes);
        assert_eq!(read_all(&payload, &chunk).unwrap(), nodes);
        let c = PackedChunk::check(&payload, &chunk, &mut Vec::new()).unwrap();
        let mut scratch = Vec::new();
        assert_eq!(c.rank(&payload, &[0, 5, 0], false, &mut scratch), Some(1));
        assert_eq!(c.rank(&payload, &[0, 5, 0], true, &mut scratch), Some(2));
        assert_eq!(c.rank(&payload, &[0, 5, 0, 0, 0], true, &mut scratch), Some(3));
    }

    #[test]
    fn every_check_keeps_its_text() {
        let nodes = [d("0.1"), d("0.2"), d("0.3")];
        let (payload, chunk) = payload_at(0, &nodes);
        let at = |offset| Chunk { offset, ..chunk.clone() };
        assert_eq!(
            corrupt_text(&payload, &at(99)),
            format!("chunk offset 99 overflows block 1 payload ({} bytes)", payload.len())
        );
        assert_eq!(
            corrupt_text(&payload[..3], &chunk),
            "chunk width header of 2 levels overruns block 1"
        );
        let mut wide = payload.clone();
        wide[3] = 33;
        assert_eq!(corrupt_text(&wide, &chunk), "chunk level 1 width 33 outside 1..=32 in block 1");
        wide[3] = 0;
        assert_eq!(corrupt_text(&wide, &chunk), "chunk level 1 width 0 outside 1..=32 in block 1");
        let more = Chunk { entries: 4, ..chunk.clone() };
        assert_eq!(
            corrupt_text(&payload, &more),
            "chunk of 4 1-byte keys overruns block 1 payload (7 bytes)"
        );
        let huge = Chunk { entries: u32::MAX, ..chunk.clone() };
        assert!(corrupt_text(&payload, &huge).contains("overruns block 1"));
        let (swapped, _) = payload_at(0, &[d("0.2"), d("0.1"), d("0.3")]);
        assert_eq!(
            corrupt_text(&swapped, &Chunk { min: d("0.2"), ..chunk.clone() }),
            "postings not ascending in block 1 (0.2 then 0.1)"
        );
        let mut dup = payload.clone();
        dup[5] = dup[4];
        assert_eq!(corrupt_text(&dup, &chunk), "postings not ascending in block 1 (0.1 then 0.1)");
        let mut padded = payload.clone();
        padded[5] |= 0x01; // a bit past the terminator
        assert!(corrupt_text(&padded, &chunk).starts_with("malformed key 1 in block 1"));
        assert_eq!(
            corrupt_text(&payload, &Chunk { min: d("0.0"), ..chunk.clone() }),
            "chunk min 0.0 disagrees with first key in block 1"
        );
        assert_eq!(
            corrupt_text(&payload, &Chunk { min: d("0.9"), ..chunk.clone() }),
            "chunk min 0.9 disagrees with first key in block 1"
        );
        assert_eq!(
            corrupt_text(&payload, &Chunk { entries: 0, ..chunk }),
            "chunk min 0.1 disagrees with first key in block 1"
        );
    }

    /// The integer check agrees with the unpacker on every 16-bit
    /// pattern at a few width headers.
    #[test]
    fn word_check_agrees_with_unpack_exhaustively() {
        for widths in [&[1u8][..], &[2, 1], &[3, 2, 1], &[1, 1, 1, 1, 1], &[6, 7], &[14]] {
            let stride = packed::max_packed_bits(widths).div_ceil(8);
            let mut comps = Vec::new();
            for k in 0..1u32 << (8 * stride) {
                let key = &k.to_be_bytes()[4 - stride..];
                let mut payload = (widths.len() as u16).to_le_bytes().to_vec();
                payload.extend_from_slice(widths);
                payload.extend_from_slice(key);
                let mask = !u64::MAX.checked_shr(8 * stride as u32).unwrap_or(0);
                let c = PackedChunk {
                    widths: DEPTH_BYTES,
                    depth: widths.len(),
                    keys: DEPTH_BYTES + widths.len(),
                    stride,
                    len: 1,
                    mask,
                };
                let by_word = c.check_words(&payload, 1).is_ok();
                assert_eq!(
                    by_word,
                    packed::unpack(key, widths, &mut comps),
                    "{widths:?} {key:02x?}"
                );
            }
        }
    }
}

