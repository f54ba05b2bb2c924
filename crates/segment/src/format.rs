//! The XKSEG2 on-disk blob format.
//!
//! A sealed segment is one immutable blob, laid out in fixed-size blocks
//! (one block = one page of the blob's pager):
//!
//! ```text
//! block 0                      header (magic, version, counts, CRCs)
//! blocks 1..=data_blocks       posting blocks: chunks of fixed-stride packed keys
//! blocks ..+dict_blocks        keyword dictionary (skip table)
//! last block                   trailer (end magic, counts, meta CRC)
//! ```
//!
//! Every checksum in the blob is a CRC-32C ([`xk_storage::crc32c`],
//! hardware-assisted where the CPU has it). Posting and dictionary
//! blocks carry their own over the framed payload, so a probe verifies
//! exactly the one block it loads and a corrupt block yields a typed
//! error without touching its neighbours. The header CRC covers the
//! header fields; `meta_crc` covers the concatenated dictionary payload
//! and is repeated in the trailer, so a truncated blob (missing trailer)
//! and a stale blob (fencing, see [`crate::manifest`]) are both detected
//! before any posting is served. A posting block's chunk layout is in
//! [`crate::codec`].
//!
//! There is one format: a blob of any other version (XKSEG1's
//! delta-varint blocks) is rejected as corrupt, and its store is rebuilt
//! from the document.

use crate::error::{Result, SegmentError};
use xk_storage::{crc32c, PageId, Pager};

/// Magic bytes of the header block.
pub const MAGIC: &[u8; 8] = b"XKSEG2\r\n";
/// Magic bytes of the trailer block.
pub const END_MAGIC: &[u8; 8] = b"XKSEGEND";
/// Current format version.
pub const VERSION: u16 = 2;
/// Bytes of framing at the start of each data/dict block: CRC-32C over
/// the payload, then the payload length.
pub const BLOCK_FRAME: usize = 6;
/// Fixed byte length of the encoded header fields (the rest of block 0
/// is zero padding).
pub const HEADER_BYTES: usize = 60;
/// Fixed byte length of the encoded trailer fields.
pub const TRAILER_BYTES: usize = 24;
/// Smallest supported block size (must hold the header and at least one
/// deep restart entry).
pub const MIN_BLOCK: usize = 256;

/// The decoded header of a segment blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    pub block_size: u32,
    /// Unique id of this segment within its store (also its file name).
    pub seq: u64,
    /// Committed epoch observed when the segment was sealed
    /// (informational; fencing uses `seq`/`posting_count`/`meta_crc`).
    pub seal_epoch: u64,
    pub keyword_count: u32,
    pub posting_count: u64,
    /// Posting blocks occupy ids `1..=data_blocks`.
    pub data_blocks: u32,
    /// Dictionary blocks follow the posting blocks.
    pub dict_blocks: u32,
    /// CRC-32 over the concatenated dictionary payload.
    pub meta_crc: u32,
}

impl Header {
    /// Serializes the header into a zero-padded block.
    pub fn encode(&self, block_size: usize) -> Vec<u8> {
        let mut b = vec![0u8; block_size];
        b[..8].copy_from_slice(MAGIC);
        b[8..10].copy_from_slice(&VERSION.to_le_bytes());
        b[12..16].copy_from_slice(&self.block_size.to_le_bytes());
        b[16..24].copy_from_slice(&self.seq.to_le_bytes());
        b[24..32].copy_from_slice(&self.seal_epoch.to_le_bytes());
        b[32..36].copy_from_slice(&self.keyword_count.to_le_bytes());
        b[36..44].copy_from_slice(&self.posting_count.to_le_bytes());
        b[44..48].copy_from_slice(&self.data_blocks.to_le_bytes());
        b[48..52].copy_from_slice(&self.dict_blocks.to_le_bytes());
        b[52..56].copy_from_slice(&self.meta_crc.to_le_bytes());
        let crc = crc32c(&b[..56]);
        b[56..60].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Parses and validates a header block.
    // xk-analyze: allow(panic_path, reason = "fixed-width slices are guarded by the HEADER_BYTES length check at the top")
    pub fn decode(block: &[u8]) -> Result<Header> {
        if block.len() < HEADER_BYTES {
            return Err(SegmentError::Corrupt("header block too small".into()));
        }
        if &block[..5] != b"XKSEG" {
            return Err(SegmentError::Corrupt("bad segment magic".into()));
        }
        let version = u16::from_le_bytes(block[8..10].try_into().unwrap());
        if version != VERSION {
            return Err(SegmentError::Corrupt(format!(
                "unsupported segment version {version} (this build reads XKSEG{VERSION} only): \
                 rebuild the store from its document"
            )));
        }
        if &block[..8] != MAGIC {
            return Err(SegmentError::Corrupt("bad segment magic".into()));
        }
        let stored = u32::from_le_bytes(block[56..60].try_into().unwrap());
        let actual = crc32c(&block[..56]);
        if stored != actual {
            return Err(SegmentError::Corrupt(format!(
                "header CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let header = Header {
            block_size: u32::from_le_bytes(block[12..16].try_into().unwrap()),
            seq: u64::from_le_bytes(block[16..24].try_into().unwrap()),
            seal_epoch: u64::from_le_bytes(block[24..32].try_into().unwrap()),
            keyword_count: u32::from_le_bytes(block[32..36].try_into().unwrap()),
            posting_count: u64::from_le_bytes(block[36..44].try_into().unwrap()),
            data_blocks: u32::from_le_bytes(block[44..48].try_into().unwrap()),
            dict_blocks: u32::from_le_bytes(block[48..52].try_into().unwrap()),
            meta_crc: u32::from_le_bytes(block[52..56].try_into().unwrap()),
        };
        // The counts are untrusted: every block id must fit a u32.
        let blocks = header.data_blocks.checked_add(header.dict_blocks);
        if blocks.and_then(|n| n.checked_add(2)).is_none() {
            return Err(SegmentError::Corrupt(format!(
                "header block counts overflow: {} data + {} dictionary blocks",
                header.data_blocks, header.dict_blocks
            )));
        }
        Ok(header)
    }

    /// Total number of blocks in the blob (header + data + dict + trailer;
    /// [`Header::decode`] rejects counts whose sum overflows).
    pub fn total_blocks(&self) -> u32 {
        1 + self.data_blocks + self.dict_blocks + 1
    }

    /// Block id of the trailer.
    pub fn trailer_block(&self) -> u32 {
        1 + self.data_blocks + self.dict_blocks
    }
}

/// Serializes the trailer into a zero-padded block.
pub fn encode_trailer(h: &Header, block_size: usize) -> Vec<u8> {
    let mut b = vec![0u8; block_size];
    b[..8].copy_from_slice(END_MAGIC);
    b[8..16].copy_from_slice(&h.posting_count.to_le_bytes());
    b[16..20].copy_from_slice(&h.meta_crc.to_le_bytes());
    let crc = crc32c(&b[..20]);
    b[20..24].copy_from_slice(&crc.to_le_bytes());
    b
}

/// Validates the trailer block against the header. A missing or garbled
/// trailer means the blob was truncated mid-write and must be rejected.
// xk-analyze: allow(panic_path, reason = "fixed-width slices are guarded by the TRAILER_BYTES length check at the top")
pub fn check_trailer(h: &Header, block: &[u8]) -> Result<()> {
    if block.len() < TRAILER_BYTES || &block[..8] != END_MAGIC {
        return Err(SegmentError::Corrupt("missing segment trailer".into()));
    }
    let stored = u32::from_le_bytes(block[20..24].try_into().unwrap());
    let actual = crc32c(&block[..20]);
    if stored != actual {
        return Err(SegmentError::Corrupt("trailer CRC mismatch".into()));
    }
    let postings = u64::from_le_bytes(block[8..16].try_into().unwrap());
    let meta_crc = u32::from_le_bytes(block[16..20].try_into().unwrap());
    if postings != h.posting_count || meta_crc != h.meta_crc {
        return Err(SegmentError::Corrupt(
            "trailer disagrees with header (torn or mixed-generation blob)".into(),
        ));
    }
    Ok(())
}

/// Frames `payload` into a zero-padded block: `[crc32c][len u16][payload]`.
// xk-analyze: allow(panic_path, reason = "payloads come from the writer, which caps them at block_size - BLOCK_FRAME (debug_asserted); disk bytes never reach this path")
pub fn frame_block(payload: &[u8], block_size: usize) -> Vec<u8> {
    debug_assert!(payload.len() <= block_size - BLOCK_FRAME);
    let mut b = vec![0u8; block_size];
    b[..4].copy_from_slice(&crc32c(payload).to_le_bytes());
    b[4..6].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    b[6..6 + payload.len()].copy_from_slice(payload);
    b
}

/// Unframes a data/dict block, verifying its CRC. Returns the payload
/// slice bounds within the block.
// xk-analyze: allow(panic_path, reason = "fixed-width frame slices are guarded by the BLOCK_FRAME length check; the payload slice uses get()")
pub fn unframe_block(block: &[u8], block_no: u32) -> Result<&[u8]> {
    if block.len() < BLOCK_FRAME {
        return Err(SegmentError::Corrupt(format!("block {block_no} too small to frame")));
    }
    let stored = u32::from_le_bytes(block[..4].try_into().unwrap());
    let len = u16::from_le_bytes(block[4..6].try_into().unwrap()) as usize;
    let payload = block
        .get(BLOCK_FRAME..BLOCK_FRAME + len)
        .ok_or_else(|| SegmentError::Corrupt(format!("block {block_no} length {len} overflows")))?;
    let actual = crc32c(payload);
    if stored != actual {
        return Err(SegmentError::Corrupt(format!(
            "block {block_no} CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(payload)
}

/// Reads block `block_no` of `pager` into `buf` (sized to the page).
pub fn read_block(pager: &dyn Pager, block_no: u32, buf: &mut [u8]) -> Result<()> {
    pager.read_page(PageId(block_no), buf).map_err(SegmentError::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> Header {
        Header {
            block_size: 512,
            seq: 7,
            seal_epoch: 42,
            keyword_count: 3,
            posting_count: 100,
            data_blocks: 4,
            dict_blocks: 1,
            meta_crc: 0xDEADBEEF,
        }
    }

    #[test]
    fn header_roundtrip() {
        let h = header();
        let block = h.encode(512);
        assert_eq!(Header::decode(&block).unwrap(), h);
        assert_eq!(h.total_blocks(), 7);
        assert_eq!(h.trailer_block(), 6);
    }

    #[test]
    fn header_corruption_is_typed() {
        let h = header();
        let mut block = h.encode(512);
        block[20] ^= 0x01;
        assert!(matches!(Header::decode(&block), Err(SegmentError::Corrupt(_))));
        let mut bad_magic = h.encode(512);
        bad_magic[0] = b'Z';
        assert!(matches!(Header::decode(&bad_magic), Err(SegmentError::Corrupt(_))));
    }

    #[test]
    fn version_one_blobs_are_refused_with_a_rebuild_hint() {
        let mut v1 = header().encode(512);
        v1[..8].copy_from_slice(b"XKSEG1\r\n");
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        match Header::decode(&v1) {
            Err(SegmentError::Corrupt(m)) => {
                assert!(m.starts_with("unsupported segment version 1 "), "{m}");
                assert!(m.contains("rebuild"), "{m}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_block_counts_are_corrupt_not_a_panic() {
        for (data_blocks, dict_blocks) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX - 1, 1)] {
            let h = Header { data_blocks, dict_blocks, ..header() };
            match Header::decode(&h.encode(512)) {
                Err(SegmentError::Corrupt(m)) => assert!(m.contains("overflow"), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        let edge = Header { data_blocks: u32::MAX - 2, dict_blocks: 0, ..header() };
        assert_eq!(Header::decode(&edge.encode(512)).unwrap().total_blocks(), u32::MAX);
    }

    #[test]
    fn trailer_roundtrip_and_mismatch() {
        let h = header();
        let t = encode_trailer(&h, 512);
        check_trailer(&h, &t).unwrap();
        let mut wrong = h.clone();
        wrong.posting_count += 1;
        assert!(matches!(check_trailer(&wrong, &t), Err(SegmentError::Corrupt(_))));
        let mut flipped = t.clone();
        flipped[9] ^= 0xFF;
        assert!(matches!(check_trailer(&h, &flipped), Err(SegmentError::Corrupt(_))));
    }

    #[test]
    fn block_framing_roundtrip_and_crc() {
        let payload = b"hello posting block";
        let block = frame_block(payload, 256);
        assert_eq!(unframe_block(&block, 1).unwrap(), payload);
        let mut torn = block.clone();
        torn[10] ^= 0x40;
        assert!(matches!(unframe_block(&torn, 1), Err(SegmentError::Corrupt(_))));
    }
}
