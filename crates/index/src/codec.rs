//! The packed Dewey codec: level-table compression of Dewey numbers with
//! `memcmp`-order preservation.
//!
//! Each component at level `i` is stored in the level table's `width(i)`
//! bits, preceded by a `1` *continuation bit*; after the last component a
//! single `0` terminator bit is written, and the result is zero-padded to
//! a byte boundary. The paper compresses Dewey numbers with exactly these
//! per-level widths; the continuation/terminator bits are our addition so
//! the packed form can serve directly as a B+tree key — raw fixed-width
//! packing is *not* `memcmp`-safe (an ancestor ties with its `0.0...0`
//! descendant). The bit packer itself is [`xk_xmltree::packed`], shared
//! with the segment posting blocks; this module binds it to the
//! document's [`LevelTable`] and adds the probe encoding.

use crate::leveltable::LevelTable;
use std::fmt;
use xk_xmltree::packed::{self, PackError};
use xk_xmltree::Dewey;

/// Errors from packing or unpacking Dewey numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The Dewey number is deeper than the level table.
    TooDeep { depth: usize, max_depth: usize },
    /// A component does not fit in its level's bit width.
    ComponentTooLarge { level: usize, component: u32, width: u8 },
    /// The byte string is not a valid packed Dewey number.
    Malformed,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::TooDeep { depth, max_depth } => {
                write!(f, "Dewey depth {depth} exceeds level table depth {max_depth}")
            }
            CodecError::ComponentTooLarge { level, component, width } => write!(
                f,
                "component {component} at level {level} does not fit in {width} bits"
            ),
            CodecError::Malformed => write!(f, "malformed packed Dewey number"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<PackError> for CodecError {
    fn from(e: PackError) -> Self {
        match e {
            PackError::TooDeep { depth, max_depth } => CodecError::TooDeep { depth, max_depth },
            PackError::TooLarge { level, component, width } => {
                CodecError::ComponentTooLarge { level, component, width }
            }
        }
    }
}

/// Packs a Dewey number using the level table's widths. The result
/// compares with `memcmp` exactly like the Dewey numbers themselves.
pub fn encode_dewey(dewey: &Dewey, table: &LevelTable) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(table.max_packed_bits().div_ceil(8));
    packed::pack(dewey.components(), table.widths(), &mut out)?;
    Ok(out)
}

/// Unpacks a Dewey number produced by [`encode_dewey`] with the same
/// level table.
pub fn decode_dewey(bytes: &[u8], table: &LevelTable) -> Result<Dewey, CodecError> {
    let mut components = Vec::new();
    if !packed::unpack(bytes, table.widths(), &mut components) {
        return Err(CodecError::Malformed);
    }
    Ok(Dewey::from_components(components))
}

/// A probe key for match lookups: either the exact packed encoding, or —
/// when the probe itself is not representable (the *uncle node* of
/// Section 5 can have an ordinal one past the level's width) — an upper
/// bound that sorts after every key in the subtree of the probe's
/// deepest representable prefix and before everything that follows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// The probe itself, packed; compare inclusively.
    Exact(Vec<u8>),
    /// No document node can equal or follow the probe within its parent
    /// region; `rm(probe)` is the first key after this bound and
    /// `lm(probe)` the last key before it.
    After(Vec<u8>),
}

/// Encodes a probe for `lm`/`rm`, falling back to an upper-bound key when
/// a component overflows its level width (see [`Probe`]).
pub fn encode_probe(dewey: &Dewey, table: &LevelTable) -> Result<Probe, CodecError> {
    let mut out = Vec::new();
    Ok(match append_probe(dewey.components(), table, &mut out)? {
        true => Probe::Exact(out),
        false => Probe::After(out),
    })
}

/// [`encode_probe`] of `components`, appended to `out`: true for the
/// exact encoding, false for the upper bound.
pub(crate) fn append_probe(
    components: &[u32],
    table: &LevelTable,
    out: &mut Vec<u8>,
) -> Result<bool, CodecError> {
    let start = out.len();
    match packed::pack(components, table.widths(), out) {
        Ok(()) => Ok(true),
        Err(PackError::TooLarge { level, .. }) => {
            // Every real node either shares the prefix with a *smaller*
            // component at `level` (thus sorts before the probe) or
            // diverges earlier (sorting entirely before or after the
            // prefix subtree). An upper bound of the prefix subtree is
            // therefore an exact stand-in for the probe.
            out.truncate(start);
            let prefix = components.get(..level).unwrap_or_default();
            append_upper_bound(prefix, table, out)?;
            Ok(false)
        }
        Err(e) => Err(e.into()),
    }
}

/// A byte string strictly greater than the packed encoding of every node
/// in `subtree(dewey)` and strictly smaller than that of every node after
/// the subtree: the node's continuation/component bits followed by ones,
/// one byte past the longest key so the bound is longer (hence greater)
/// than any equal-prefix key. The result is never a valid packed key.
pub fn encode_upper_bound(dewey: &Dewey, table: &LevelTable) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    append_upper_bound(dewey.components(), table, &mut out)?;
    Ok(out)
}

fn append_upper_bound(
    components: &[u32],
    table: &LevelTable,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let bits = table.max_packed_bits() + 8;
    packed::pack_upper_bound(components, table.widths(), bits, out)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn table() -> LevelTable {
        LevelTable::from_fanouts(&[4, 8, 2, 300, 4])
    }

    #[test]
    fn roundtrip() {
        let t = table();
        for s in ["/", "0", "3", "0.7", "1.2.1", "3.0.0.299", "0.0.0.0.3"] {
            let dd = d(s);
            let enc = encode_dewey(&dd, &t).unwrap();
            assert_eq!(decode_dewey(&enc, &t).unwrap(), dd, "roundtrip {s}");
        }
    }

    #[test]
    fn root_is_one_zero_byte() {
        let enc = encode_dewey(&Dewey::root(), &table()).unwrap();
        assert_eq!(enc, vec![0x00]);
    }

    #[test]
    fn component_too_large() {
        assert!(matches!(
            encode_dewey(&d("4"), &table()), // level 0 width is 2 bits
            Err(CodecError::ComponentTooLarge { level: 0, component: 4, width: 2 })
        ));
    }

    #[test]
    fn too_deep() {
        assert!(matches!(
            encode_dewey(&d("0.0.0.0.0.0"), &table()),
            Err(CodecError::TooDeep { depth: 6, max_depth: 5 })
        ));
    }

    #[test]
    fn malformed_rejected() {
        let t = table();
        assert!(decode_dewey(&[], &t).is_err());
        // A continuation bit with truncated payload.
        assert!(decode_dewey(&[0b1000_0000], &t).is_ok_or_malformed());
        // Nonzero padding after the terminator.
        assert!(matches!(decode_dewey(&[0b0100_0000], &t), Err(CodecError::Malformed)));
    }

    trait OkOrMalformed {
        fn is_ok_or_malformed(&self) -> bool;
    }

    impl OkOrMalformed for Result<Dewey, CodecError> {
        fn is_ok_or_malformed(&self) -> bool {
            matches!(self, Ok(_) | Err(CodecError::Malformed))
        }
    }

    /// The core property: memcmp order on encodings == Dewey order.
    #[test]
    fn encoding_preserves_order_exhaustively() {
        let t = LevelTable::from_fanouts(&[3, 2, 5]);
        // Enumerate every valid Dewey up to the table's shape.
        let mut all = vec![Dewey::root()];
        for a in 0..3u32 {
            all.push(Dewey::from_components(vec![a]));
            for b in 0..2u32 {
                all.push(Dewey::from_components(vec![a, b]));
                for c in 0..5u32 {
                    all.push(Dewey::from_components(vec![a, b, c]));
                }
            }
        }
        all.sort();
        let encoded: Vec<Vec<u8>> = all.iter().map(|d| encode_dewey(d, &t).unwrap()).collect();
        for i in 1..all.len() {
            assert!(
                encoded[i - 1] < encoded[i],
                "order violated: {} ({:02x?}) !< {} ({:02x?})",
                all[i - 1],
                encoded[i - 1],
                all[i],
                encoded[i]
            );
        }
    }

    #[test]
    fn ancestor_encoding_sorts_before_descendants() {
        let t = table();
        // The tie-breaking case raw packing gets wrong: 0.0 vs 0.0.0.
        let a = encode_dewey(&d("0.0"), &t).unwrap();
        let b = encode_dewey(&d("0.0.0"), &t).unwrap();
        assert!(a < b);
        // And the sibling after the deep child still sorts after both.
        let c = encode_dewey(&d("0.1"), &t).unwrap();
        assert!(b < c);
    }

    #[test]
    fn upper_bound_brackets_the_subtree() {
        let t = LevelTable::from_fanouts(&[3, 2, 5]);
        let q = d("1");
        let ub = encode_upper_bound(&q, &t).unwrap();
        // Greater than every key in subtree(1)...
        for s in ["1", "1.0", "1.1", "1.1.4"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(k < ub, "{s} must sort below the bound");
        }
        // ...and smaller than everything after it.
        for s in ["2", "2.0"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(ub < k, "{s} must sort above the bound");
        }
        // And below nothing before it.
        for s in ["/", "0", "0.1.4"] {
            let k = encode_dewey(&d(s), &t).unwrap();
            assert!(k < ub);
        }
    }

    #[test]
    fn probe_exact_vs_after() {
        let t = LevelTable::from_fanouts(&[2, 2]); // widths 1,1
        assert!(matches!(encode_probe(&d("1.1"), &t), Ok(Probe::Exact(_))));
        // Ordinal 2 does not fit in 1 bit: an uncle-position probe.
        match encode_probe(&d("1.2"), &t) {
            Ok(Probe::After(ub)) => {
                // The bound is the upper bound of subtree("1").
                assert_eq!(ub, encode_upper_bound(&d("1"), &t).unwrap());
            }
            other => panic!("expected Probe::After, got {other:?}"),
        }
        // Depth overflow is still an error.
        assert!(encode_probe(&d("0.0.0"), &t).is_err());
    }

    #[test]
    fn compression_is_compact() {
        // Depth-5 Dewey at widths 2+3+1+9+2 = 17 payload bits + 5
        // continuations + 1 terminator = 23 bits -> 3 bytes, versus 20
        // bytes for the raw u32 representation.
        let enc = encode_dewey(&d("3.7.1.255.2"), &table()).unwrap();
        assert_eq!(enc.len(), 3);
    }
}
