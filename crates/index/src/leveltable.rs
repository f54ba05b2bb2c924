//! The level table (Section 4 of the paper).
//!
//! "For performance reasons, Dewey numbers are compressed. We introduce a
//! level table with [one entry per level, giving] the maximum number of
//! bits needed to store the i-th component of a Dewey number" — the bit
//! width of level `i` is `ceil(log2(max fanout at level i))`, where the
//! fanout is the largest child count of any node at level `i − 1`.

use xk_xmltree::XmlTree;

/// Per-level bit widths for packed Dewey numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTable {
    /// `bits[i]` is the width of the component at depth `i + 1` (children
    /// of depth-`i` nodes). Always at least 1 so a zero ordinal is
    /// representable.
    bits: Vec<u8>,
}

impl LevelTable {
    /// Builds the level table of a document tree.
    pub fn build(tree: &XmlTree) -> LevelTable {
        let bits = tree
            .max_fanout_per_level()
            .iter()
            .map(|&fanout| bits_for(fanout))
            .collect();
        LevelTable { bits }
    }

    /// Builds a table from explicit per-level maximum fanouts.
    pub fn from_fanouts(fanouts: &[u32]) -> LevelTable {
        LevelTable { bits: fanouts.iter().map(|&f| bits_for(f)).collect() }
    }

    /// The bit width of the Dewey component at `component_index` (0-based:
    /// component 0 addresses the children of the root).
    pub fn width(&self, component_index: usize) -> Option<u8> {
        self.bits.get(component_index).copied()
    }

    /// Every level's width, root side first (the widths
    /// `xk_xmltree::packed` packs at).
    pub fn widths(&self) -> &[u8] {
        &self.bits
    }

    /// Number of levels below the root (the document's maximum depth).
    pub fn depth(&self) -> usize {
        self.bits.len()
    }

    /// Total bits of the longest possible packed Dewey number, including
    /// the per-level continuation bits and the terminator (see the codec).
    pub fn max_packed_bits(&self) -> usize {
        xk_xmltree::packed::max_packed_bits(&self.bits)
    }

    /// Serializes the table (for the storage meta page).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + self.bits.len());
        out.extend_from_slice(&(self.bits.len() as u16).to_le_bytes());
        out.extend_from_slice(&self.bits);
        out
    }

    /// Deserializes a table written by [`LevelTable::encode`].
    pub fn decode(bytes: &[u8]) -> Option<LevelTable> {
        if bytes.len() < 2 {
            return None;
        }
        let n = u16::from_le_bytes(bytes[..2].try_into().ok()?) as usize;
        if bytes.len() != 2 + n {
            return None;
        }
        let bits = bytes[2..].to_vec();
        if bits.iter().any(|&b| b == 0 || b > 32) {
            return None;
        }
        Some(LevelTable { bits })
    }
}

/// Bits needed to store ordinals `0..fanout` (at least 1).
fn bits_for(fanout: u32) -> u8 {
    if fanout <= 1 {
        1
    } else {
        (32 - (fanout - 1).leading_zeros()).max(1) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_xmltree::school_example;

    #[test]
    fn bits_for_fanouts() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(256), 8);
        assert_eq!(bits_for(257), 9);
    }

    #[test]
    fn build_from_school_tree() {
        let t = school_example();
        let lt = LevelTable::build(&t);
        assert_eq!(lt.depth(), 5);
        // 4 top-level groups -> 2 bits at level 1.
        assert_eq!(lt.width(0), Some(2));
        // Every width accommodates the actual fanout.
        for (i, f) in t.max_fanout_per_level().iter().enumerate() {
            let w = lt.width(i).unwrap() as u32;
            assert!(2u64.pow(w) >= *f as u64, "level {i}: 2^{w} < {f}");
        }
        assert_eq!(lt.width(5), None);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let lt = LevelTable::from_fanouts(&[4, 1000, 3, 17]);
        let enc = lt.encode();
        assert_eq!(LevelTable::decode(&enc), Some(lt));
        assert_eq!(LevelTable::decode(b""), None);
        assert_eq!(LevelTable::decode(&[9, 0]), None); // truncated
    }

    #[test]
    fn max_packed_bits_counts_continuations() {
        let lt = LevelTable::from_fanouts(&[2, 2]); // 1 bit each
        // (1+1) + (1+1) + 1 terminator = 5 bits.
        assert_eq!(lt.max_packed_bits(), 5);
    }
}
