//! Dewey numbers packed at per-level bit widths, in `memcmp` order.
//!
//! Each component at level `i` is written in `widths[i]` bits behind a
//! `1` *continuation bit*; a single `0` *terminator bit* follows the last
//! component, and zero bits pad the result to a byte (MSB first). This is
//! the paper's level-table compression (Section 4) plus one bit per
//! level, and the extra bit is what makes the packing comparable:
//!
//! * raw fixed-width packing is **not** order-safe: the padded packing
//!   of an ancestor ties with that of its `0.0…0` descendant, and any
//!   scheme that appends the length breaks ordering (a longer key's
//!   payload bits collide with a shorter key's length field);
//! * with a continuation bit per level, an ancestor diverges from every
//!   proper descendant exactly at its terminator (`0` against the
//!   descendant's next `1`), so comparing two packings byte by byte —
//!   or, zero-padded to one fixed stride, as big-endian integers —
//!   orders them exactly like the Dewey numbers, and equal packings
//!   mean equal numbers.
//!
//! Two formats use this one packer: the B+tree keys of `xk-index`
//! (widths from the document's level table) and the posting blocks of
//! `xk-segment`'s XKSEG2 blobs (widths per chunk, fixed stride).
//!
//! ```
//! use xk_xmltree::{packed, Dewey};
//! let widths = [2, 3];
//! let (mut a, mut b) = (Vec::new(), Vec::new());
//! packed::pack(&[1], &widths, &mut a).unwrap();
//! packed::pack(&[1, 0], &widths, &mut b).unwrap();
//! assert!(a < b); // the ancestor sorts first
//! let mut out = Vec::new();
//! assert!(packed::unpack(&b, &widths, &mut out));
//! assert_eq!(Dewey::from(out), "1.0".parse().unwrap());
//! ```

/// Why a Dewey number cannot be packed at the given widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The number has more components than there are widths.
    TooDeep { depth: usize, max_depth: usize },
    /// A component does not fit in its level's width.
    TooLarge { level: usize, component: u32, width: u8 },
}

/// Bits of the longest packing at `widths`: a continuation bit and the
/// component per level, plus the terminator.
pub fn max_packed_bits(widths: &[u8]) -> usize {
    widths.iter().map(|&w| w as usize + 1).sum::<usize>() + 1
}

/// The fewest bits that hold `component` (at least 1, so a zero ordinal
/// has a width).
pub fn width_of(component: u32) -> u8 {
    (32 - component.leading_zeros()).max(1) as u8
}

/// The first level at which `widths` cannot hold `components`.
fn misfit(components: &[u32], widths: &[u8]) -> Option<PackError> {
    for (level, &component) in components.iter().enumerate() {
        let Some(&width) = widths.get(level) else {
            return Some(PackError::TooDeep { depth: components.len(), max_depth: widths.len() });
        };
        if width < 32 && component >> width != 0 {
            return Some(PackError::TooLarge { level, component, width });
        }
    }
    None
}

/// Appends the packing of `components` at `widths` to `out`, zero-padded
/// to a byte. Widths are at most 32. On error `out` is untouched.
pub fn pack(components: &[u32], widths: &[u8], out: &mut Vec<u8>) -> Result<(), PackError> {
    if let Some(e) = misfit(components, widths) {
        return Err(e);
    }
    let mut w = BitWriter::new(out);
    for (&c, &width) in components.iter().zip(widths) {
        w.push((1 << width) | c as u64, width as u32 + 1);
    }
    w.push(0, 1);
    w.finish();
    Ok(())
}

/// Appends a bound of `bits` bits (rounded up to a byte) that sorts
/// after the packing of every id in the subtree of `components` and
/// before that of every id after the subtree: the id's continuation and
/// component bits, then one bits. With `bits` past the longest packing
/// the bound is longer than, hence greater than, every packing sharing
/// its ones; zero-padded to one fixed stride it is never equal to a
/// packing, whose terminator is a `0`. On error `out` is untouched.
pub fn pack_upper_bound(
    components: &[u32],
    widths: &[u8],
    bits: usize,
    out: &mut Vec<u8>,
) -> Result<(), PackError> {
    if let Some(e) = misfit(components, widths) {
        return Err(e);
    }
    let mut w = BitWriter::new(out);
    let mut written = 0;
    for (&c, &width) in components.iter().zip(widths) {
        w.push((1 << width) | c as u64, width as u32 + 1);
        written += width as usize + 1;
    }
    while written < bits {
        let n = (bits - written).min(32);
        w.push((1u64 << n) - 1, n as u32);
        written += n;
    }
    w.finish();
    Ok(())
}

/// Unpacks one packing from `bytes` into `out` (cleared first). Returns
/// false when `bytes` is malformed: a continuation bit past the last
/// width, a truncated component, or a nonzero bit after the terminator
/// (trailing zero bytes are padding, so a fixed-stride slot unpacks
/// as it is). Widths are at most 32.
pub fn unpack(bytes: &[u8], widths: &[u8], out: &mut Vec<u32>) -> bool {
    if bytes.len() <= 8 {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        return unpack_word(u64::from_be_bytes(word), 8 * bytes.len() as u32, widths, out);
    }
    out.clear();
    let mut r = BitReader { rest: bytes, window: 0, avail: 0 };
    loop {
        match r.take(1) {
            Some(0) => return r.rest_is_zero(),
            Some(_) => {
                let Some(&width) = widths.get(out.len()) else { return false };
                let Some(c) = r.take(width as u32) else { return false };
                out.push(c as u32);
            }
            None => return false,
        }
    }
}

/// [`unpack`] of a packing of at most `bits` bits held left-aligned in
/// `word`, every bit below them zero: a big-endian load of a key of up
/// to 8 bytes.
pub fn unpack_word(word: u64, bits: u32, widths: &[u8], out: &mut Vec<u32>) -> bool {
    out.clear();
    let (mut rest, mut left) = (word, bits);
    for &width in widths {
        let width = width as u32;
        if rest >> 63 == 0 || left <= width {
            break; // a terminator, or a component cut short
        }
        rest <<= 1;
        out.push(rest.checked_shr(64 - width).unwrap_or(0) as u32);
        rest = rest.checked_shl(width).unwrap_or(0);
        left -= width + 1;
    }
    // Here `rest` starts at the terminator, which with all padding is 0.
    left > 0 && rest == 0
}

/// MSB-first bit writer appending to a byte vector, 8 bytes at a time.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Pending bits in the low `n` bits (fewer than 64 between pushes).
    acc: u128,
    n: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> BitWriter<'a> {
        BitWriter { out, acc: 0, n: 0 }
    }

    /// Appends the low `width` (at most 33) bits of `value`.
    fn push(&mut self, value: u64, width: u32) {
        self.acc = (self.acc << width) | value as u128;
        self.n += width;
        if self.n >= 64 {
            self.n -= 64;
            self.out.extend_from_slice(&((self.acc >> self.n) as u64).to_be_bytes());
        }
    }

    /// Flushes the pending bits, zero-padded to a byte.
    fn finish(self) {
        if self.n > 0 {
            let bytes = (self.acc << (128 - self.n)).to_be_bytes();
            let used = bytes.get(..self.n.div_ceil(8) as usize).unwrap_or_default();
            self.out.extend_from_slice(used);
        }
    }
}

/// MSB-first bit reader over a 64-bit window.
struct BitReader<'a> {
    rest: &'a [u8],
    /// The next `avail` bits, left-aligned; every bit below them is 0.
    window: u64,
    avail: u32,
}

impl BitReader<'_> {
    /// Tops the window up to more than 56 bits, or to the end of input.
    fn refill(&mut self) {
        while self.avail <= 56 {
            let Some((&b, rest)) = self.rest.split_first() else { return };
            self.window |= (b as u64) << (56 - self.avail);
            self.avail += 8;
            self.rest = rest;
        }
    }

    /// The next `n` (at most 33) bits, or `None` past the end.
    fn take(&mut self, n: u32) -> Option<u64> {
        if self.avail < n {
            self.refill();
            if self.avail < n {
                return None;
            }
        }
        let v = self.window.checked_shr(64 - n).unwrap_or(0);
        self.window = self.window.checked_shl(n).unwrap_or(0);
        self.avail -= n;
        Some(v)
    }

    fn rest_is_zero(&self) -> bool {
        self.window == 0 && self.rest.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(components: &[u32], widths: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        pack(components, widths, &mut out).unwrap();
        out
    }

    /// A bit-at-a-time reference packer.
    fn reference(components: &[u32], widths: &[u8]) -> Vec<u8> {
        let mut bits = Vec::new();
        for (&c, &w) in components.iter().zip(widths) {
            bits.push(true);
            bits.extend((0..w).rev().map(|i| c >> i & 1 == 1));
        }
        bits.push(false);
        bits.chunks(8)
            .map(|byte| {
                byte.iter().enumerate().fold(0u8, |b, (i, &bit)| b | (bit as u8) << (7 - i))
            })
            .collect()
    }

    /// The bit-at-a-time reference unpacker.
    fn reference_unpack(bytes: &[u8], widths: &[u8]) -> Option<Vec<u32>> {
        let bits: Vec<bool> =
            bytes.iter().flat_map(|b| (0..8).rev().map(move |i| b >> i & 1 == 1)).collect();
        let (mut pos, mut out) = (0, Vec::new());
        loop {
            if !*bits.get(pos)? {
                return bits[pos..].iter().all(|&b| !b).then_some(out);
            }
            let w = *widths.get(out.len())? as usize;
            let comp = bits.get(pos + 1..pos + 1 + w)?;
            out.push(comp.iter().fold(0u32, |c, &b| c << 1 | b as u32));
            pos += 1 + w;
        }
    }

    #[test]
    fn both_unpack_paths_agree_with_the_reference() {
        let mut out = Vec::new();
        for widths in [&[1u8][..], &[2, 1], &[3, 2, 1], &[1, 1, 1, 1, 1], &[6, 7], &[14], &[32]] {
            // Every 2-byte pattern: the word path.
            for k in 0..=u16::MAX {
                let bytes = k.to_be_bytes();
                let ok = unpack(&bytes, widths, &mut out);
                assert_eq!(
                    ok.then(|| out.clone()),
                    reference_unpack(&bytes, widths),
                    "{bytes:02x?}"
                );
            }
            // Sparse 9-byte patterns: the byte-stream path.
            for k in (0..=u16::MAX).step_by(7) {
                let mut bytes = [0u8; 9];
                bytes[..2].copy_from_slice(&k.to_be_bytes());
                bytes[(k % 9) as usize] |= (k >> 8) as u8 & 1;
                let ok = unpack(&bytes, widths, &mut out);
                assert_eq!(
                    ok.then(|| out.clone()),
                    reference_unpack(&bytes, widths),
                    "{bytes:02x?}"
                );
            }
        }
    }

    #[test]
    fn matches_the_bitwise_reference_and_roundtrips() {
        let widths = [2, 3, 1, 9, 32, 32];
        let cases: [&[u32]; 7] = [
            &[],
            &[3],
            &[0, 7],
            &[1, 2, 1],
            &[3, 7, 1, 511],
            &[0, 0, 0, 0, u32::MAX],
            &[1, 1, 1, 1, 7, u32::MAX - 1],
        ];
        let mut out = Vec::new();
        for c in cases {
            let p = packed(c, &widths);
            assert_eq!(p, reference(c, &widths), "{c:?}");
            assert!(unpack(&p, &widths, &mut out), "{c:?}");
            assert_eq!(out, c);
            // Zero padding to a wider stride unpacks the same.
            let mut slot = p.clone();
            slot.resize(p.len() + 9, 0);
            assert!(unpack(&slot, &widths, &mut out));
            assert_eq!(out, c);
        }
        assert_eq!(packed(&[], &widths), [0]);
    }

    #[test]
    fn misfits_are_typed_and_leave_out_untouched() {
        let mut out = vec![9];
        assert_eq!(
            pack(&[4], &[2], &mut out),
            Err(PackError::TooLarge { level: 0, component: 4, width: 2 })
        );
        assert_eq!(
            pack(&[0, 0], &[2], &mut out),
            Err(PackError::TooDeep { depth: 2, max_depth: 1 })
        );
        // The first level that fails is the one reported.
        assert_eq!(
            pack(&[4, 0], &[2], &mut out),
            Err(PackError::TooLarge { level: 0, component: 4, width: 2 })
        );
        assert!(pack_upper_bound(&[4], &[2], 16, &mut out).is_err());
        assert_eq!(out, [9]);
    }

    #[test]
    fn malformed_packings_are_rejected() {
        let mut out = Vec::new();
        assert!(!unpack(&[], &[2], &mut out), "no terminator");
        assert!(!unpack(&[0b1100_0000], &[9], &mut out), "truncated component");
        assert!(!unpack(&[0b0100_0000], &[2], &mut out), "nonzero padding");
        assert!(!unpack(&[0, 1], &[2], &mut out), "nonzero padding byte");
        assert!(!unpack(&[0b1001_0000], &[2], &mut out), "continuation past the widths");
    }

    #[test]
    fn order_matches_dewey_order_exhaustively() {
        let widths = [2, 1, 3];
        let mut all: Vec<Vec<u32>> = vec![vec![]];
        for a in 0..4 {
            all.push(vec![a]);
            for b in 0..2 {
                all.push(vec![a, b]);
                all.extend((0..8).map(|c| vec![a, b, c]));
            }
        }
        all.sort();
        let stride = max_packed_bits(&widths).div_ceil(8);
        let slots: Vec<Vec<u8>> = all
            .iter()
            .map(|c| {
                let mut p = packed(c, &widths);
                p.resize(stride, 0);
                p
            })
            .collect();
        for (i, pair) in slots.windows(2).enumerate() {
            assert!(pair[0] < pair[1], "{:?} !< {:?}", all[i], all[i + 1]);
        }
    }

    #[test]
    fn upper_bound_brackets_the_subtree() {
        let widths = [2, 1, 3];
        let bits = max_packed_bits(&widths) + 8;
        let mut ub = Vec::new();
        pack_upper_bound(&[1], &widths, bits, &mut ub).unwrap();
        for inside in [&[1][..], &[1, 0], &[1, 1, 7]] {
            assert!(packed(inside, &widths) < ub, "{inside:?}");
        }
        for after in [&[2][..], &[2, 0, 0]] {
            assert!(ub < packed(after, &widths), "{after:?}");
        }
        assert!(packed(&[0, 1, 7], &widths) < ub);
    }

    #[test]
    fn widths_of_components() {
        assert_eq!(width_of(0), 1);
        assert_eq!(width_of(1), 1);
        assert_eq!(width_of(2), 2);
        assert_eq!(width_of(255), 8);
        assert_eq!(width_of(256), 9);
        assert_eq!(width_of(u32::MAX), 32);
        assert_eq!(max_packed_bits(&[2, 3]), 8);
    }
}
