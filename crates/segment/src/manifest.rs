//! Segment-store metadata living *inside* the index's storage env.
//!
//! The segment store keeps its durable state in two liststore chains
//! referenced from the index meta blob's extension bytes (a region older
//! readers skip):
//!
//! * the **journal** — one record per posting absorbed into the mutable
//!   mem segment since the last seal; replayed at open;
//! * the **manifest** — one [`SealedMeta`] record per sealed blob, in
//!   seal (time) order. Each record carries the fence values
//!   (`seq`/`postings`/`meta_crc`) that [`crate::SegmentReader::open`]
//!   cross-checks against the blob header, so a blob substituted from an
//!   earlier generation of the database is rejected, never served.
//!
//! Both chains are rewritten/extended inside the same WAL transaction as
//! the document and extension-byte updates, so a crash rolls the whole
//! segment state back to the previous commit while sealed blobs (written
//! and fsynced *before* the commit) at worst leak an orphan file that
//! the next open deletes.

use crate::error::{Result, SegmentError};
use crate::format::Header;
use crate::mem::MemSegment;
use xk_storage::{ListHandle, ListReader, ListWriter, StorageEnv, LIST_HANDLE_BYTES};
use xk_xmltree::Dewey;

/// Marker byte opening the segment extension region.
pub const EXT_MARKER: u8 = 0xE5;
/// Extension format version.
pub const EXT_VERSION: u8 = 1;

/// Fence values binding one manifest entry to one blob generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fence {
    pub seq: u64,
    pub postings: u64,
    pub meta_crc: u32,
}

/// One sealed segment as recorded in the manifest chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealedMeta {
    /// Blob sequence number (its file name).
    pub seq: u64,
    /// Postings in the blob.
    pub postings: u64,
    /// Distinct keywords in the blob.
    pub keywords: u32,
    /// Total blocks in the blob.
    pub blocks: u32,
    /// Committed epoch observed at seal time.
    pub seal_epoch: u64,
    /// CRC-32 of the blob's dictionary payload.
    pub meta_crc: u32,
}

/// Encoded byte length of a [`SealedMeta`] record.
pub const SEALED_META_BYTES: usize = 40;

impl SealedMeta {
    /// Derives the manifest record from a freshly written blob header.
    pub fn of(h: &Header) -> SealedMeta {
        SealedMeta {
            seq: h.seq,
            postings: h.posting_count,
            keywords: h.keyword_count,
            blocks: h.total_blocks(),
            seal_epoch: h.seal_epoch,
            meta_crc: h.meta_crc,
        }
    }

    /// The fence to enforce when opening this segment's blob.
    pub fn fence(&self) -> Fence {
        Fence { seq: self.seq, postings: self.postings, meta_crc: self.meta_crc }
    }

    /// Fixed-width little-endian encoding.
    pub fn encode(&self) -> [u8; SEALED_META_BYTES] {
        let mut b = [0u8; SEALED_META_BYTES];
        b[0..8].copy_from_slice(&self.seq.to_le_bytes());
        b[8..16].copy_from_slice(&self.postings.to_le_bytes());
        b[16..20].copy_from_slice(&self.keywords.to_le_bytes());
        b[20..24].copy_from_slice(&self.blocks.to_le_bytes());
        b[24..32].copy_from_slice(&self.seal_epoch.to_le_bytes());
        b[32..36].copy_from_slice(&self.meta_crc.to_le_bytes());
        b
    }

    /// Decodes a manifest record.
    // xk-analyze: allow(panic_path, reason = "fixed-width slices are guarded by the SEALED_META_BYTES length check at the top")
    pub fn decode(b: &[u8]) -> Result<SealedMeta> {
        if b.len() != SEALED_META_BYTES {
            return Err(SegmentError::Corrupt(format!(
                "manifest record is {} bytes, expected {SEALED_META_BYTES}",
                b.len()
            )));
        }
        Ok(SealedMeta {
            seq: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            postings: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            keywords: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            blocks: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            seal_epoch: u64::from_le_bytes(b[24..32].try_into().unwrap()),
            meta_crc: u32::from_le_bytes(b[32..36].try_into().unwrap()),
        })
    }
}

/// The decoded extension region: where the journal and manifest chains
/// live and the next unassigned segment sequence number.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegExt {
    /// Journal chain of postings not yet sealed (`None` when empty).
    pub journal: Option<ListHandle>,
    /// Manifest chain of sealed segments (`None` when none sealed).
    pub manifest: Option<ListHandle>,
    /// Next segment sequence number to assign.
    pub next_seq: u64,
}

impl SegExt {
    /// Serializes the extension region.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(11 + 2 * LIST_HANDLE_BYTES);
        out.push(EXT_MARKER);
        out.push(EXT_VERSION);
        let mut flags = 0u8;
        if self.journal.is_some() {
            flags |= 1;
        }
        if self.manifest.is_some() {
            flags |= 2;
        }
        out.push(flags);
        out.extend_from_slice(&self.next_seq.to_le_bytes());
        if let Some(h) = &self.journal {
            out.extend_from_slice(&h.encode());
        }
        if let Some(h) = &self.manifest {
            out.extend_from_slice(&h.encode());
        }
        out
    }

    /// Parses extension bytes. `Ok(None)` means the index has no segment
    /// store (empty or foreign extension region — plain B+tree mode).
    pub fn decode(bytes: &[u8]) -> Result<Option<SegExt>> {
        if bytes.is_empty() || bytes[0] != EXT_MARKER {
            return Ok(None);
        }
        if bytes.len() < 11 {
            return Err(SegmentError::Corrupt("segment extension truncated".into()));
        }
        let version = bytes[1];
        if version != EXT_VERSION {
            return Err(SegmentError::Corrupt(format!(
                "unsupported segment extension version {version}"
            )));
        }
        let flags = bytes[2];
        // xk-analyze: allow(panic_path, reason = "the 8-byte slice is guarded by the bytes.len() < 11 check above")
        let next_seq = u64::from_le_bytes(bytes[3..11].try_into().unwrap());
        let mut pos = 11usize;
        let mut take_handle = |flag: bool| -> Result<Option<ListHandle>> {
            if !flag {
                return Ok(None);
            }
            let slice = bytes.get(pos..pos + LIST_HANDLE_BYTES).ok_or_else(|| {
                SegmentError::Corrupt("segment extension handle truncated".into())
            })?;
            pos += LIST_HANDLE_BYTES;
            let h = ListHandle::decode(slice)
                .map_err(|e| SegmentError::Corrupt(format!("bad extension handle: {e}")))?;
            Ok(Some(h))
        };
        let journal = take_handle(flags & 1 != 0)?;
        let manifest = take_handle(flags & 2 != 0)?;
        Ok(Some(SegExt { journal, manifest, next_seq }))
    }
}

/// Encodes one journal posting record: `[u16 kwlen][kw][u16 n][u32 × n]`.
/// A keyword or id too long for its `u16` count is `Corrupt`: the append
/// path refuses such a posting before its transaction opens.
pub fn encode_journal_record(keyword: &str, d: &Dewey) -> Result<Vec<u8>> {
    let comps = d.components();
    let count = |what: &str, n: usize| {
        u16::try_from(n).map_err(|_| {
            SegmentError::Corrupt(format!("journal record {what} of {n} overflows its u16 count"))
        })
    };
    let mut out = Vec::with_capacity(4 + keyword.len() + 4 * comps.len());
    out.extend_from_slice(&count("keyword", keyword.len())?.to_le_bytes());
    out.extend_from_slice(keyword.as_bytes());
    out.extend_from_slice(&count("id", comps.len())?.to_le_bytes());
    for &c in comps {
        out.extend_from_slice(&c.to_le_bytes());
    }
    Ok(out)
}

/// Decodes one journal posting record.
// xk-analyze: allow(panic_path, reason = "every try_into runs on a get()-checked slice of exactly 2 or 4 bytes")
pub fn decode_journal_record(rec: &[u8]) -> Result<(String, Dewey)> {
    let fail = || SegmentError::Corrupt("journal record truncated".into());
    let kwlen = u16::from_le_bytes(rec.get(0..2).ok_or_else(fail)?.try_into().unwrap()) as usize;
    let kw = rec.get(2..2 + kwlen).ok_or_else(fail)?;
    let kw = std::str::from_utf8(kw)
        .map_err(|_| SegmentError::Corrupt("journal keyword is not UTF-8".into()))?
        .to_string();
    let mut pos = 2 + kwlen;
    let n = u16::from_le_bytes(rec.get(pos..pos + 2).ok_or_else(fail)?.try_into().unwrap()) as usize;
    pos += 2;
    let mut comps = Vec::with_capacity(n);
    for _ in 0..n {
        let c = u32::from_le_bytes(rec.get(pos..pos + 4).ok_or_else(fail)?.try_into().unwrap());
        pos += 4;
        comps.push(c);
    }
    if pos != rec.len() {
        return Err(SegmentError::Corrupt("journal record has trailing bytes".into()));
    }
    Ok((kw, Dewey::from_components(comps)))
}

/// Reads the whole manifest chain, in seal order.
pub fn read_manifest(env: &StorageEnv, handle: &ListHandle) -> Result<Vec<SealedMeta>> {
    let mut reader = ListReader::new(handle);
    let mut out = Vec::new();
    while let Some(rec) = reader.next_record(env)? {
        out.push(SealedMeta::decode(&rec)?);
    }
    Ok(out)
}

/// Writes a fresh manifest chain holding `metas` (the caller frees the
/// old chain and stores the returned handle in the extension bytes).
///
/// Committing a manifest makes the blobs it names authoritative, so the
/// blobs must be durable (sealed + fsynced) *before* this runs — hence
/// the publish role below.
// xk-analyze: protocol(durability_order, publish)
pub fn write_manifest(env: &StorageEnv, metas: &[SealedMeta]) -> Result<Option<ListHandle>> {
    if metas.is_empty() {
        return Ok(None);
    }
    let mut w = ListWriter::new(env);
    for m in metas {
        w.append(env, &m.encode())?;
    }
    Ok(Some(w.finish(env)?))
}

/// Replays the journal chain into a fresh mem segment.
pub fn replay_journal(env: &StorageEnv, handle: &ListHandle) -> Result<MemSegment> {
    let mut reader = ListReader::new(handle);
    let mut seg = MemSegment::new();
    while let Some(rec) = reader.next_record(env)? {
        let (kw, d) = decode_journal_record(&rec)?;
        seg.absorb(&kw, d);
    }
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xk_storage::MemPager;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn meta(seq: u64) -> SealedMeta {
        SealedMeta { seq, postings: 10 * seq, keywords: 3, blocks: 5, seal_epoch: seq + 1, meta_crc: 0xABC }
    }

    #[test]
    fn sealed_meta_roundtrip() {
        let m = meta(7);
        assert_eq!(SealedMeta::decode(&m.encode()).unwrap(), m);
        assert!(SealedMeta::decode(&[0u8; 10]).is_err());
        assert_eq!(m.fence(), Fence { seq: 7, postings: 70, meta_crc: 0xABC });
    }

    #[test]
    fn ext_roundtrip_all_shapes() {
        let h = ListHandle {
            head: xk_storage::PageId(3),
            tail: xk_storage::PageId(9),
            total_bytes: 1234,
            entry_count: 56,
        };
        let shapes = [
            SegExt { journal: None, manifest: None, next_seq: 1 },
            SegExt { journal: Some(h), manifest: None, next_seq: 9 },
            SegExt { journal: Some(h), manifest: Some(h), next_seq: u64::MAX },
        ];
        for ext in shapes {
            let bytes = ext.encode();
            assert_eq!(SegExt::decode(&bytes).unwrap(), Some(ext));
        }
        assert_eq!(SegExt::decode(&[]).unwrap(), None);
        assert_eq!(SegExt::decode(&[0x00, 0x01]).unwrap(), None);
        assert!(SegExt::decode(&[EXT_MARKER, 0x09]).is_err());
        assert!(SegExt::decode(&[EXT_MARKER, EXT_VERSION, 0x01, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn journal_record_roundtrip() {
        let rec = encode_journal_record("café", &d("0.3.12")).unwrap();
        let (kw, id) = decode_journal_record(&rec).unwrap();
        assert_eq!(kw, "café");
        assert_eq!(id, d("0.3.12"));
        assert!(decode_journal_record(&rec[..rec.len() - 1]).is_err());
        let root = encode_journal_record("r", &Dewey::root()).unwrap();
        let long = "k".repeat(u16::MAX as usize + 1);
        assert!(encode_journal_record(&long, &d("0")).is_err());
        assert_eq!(decode_journal_record(&root).unwrap().1, Dewey::root());
    }

    #[test]
    fn manifest_and_journal_chains_roundtrip() {
        let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
        let metas: Vec<SealedMeta> = (1..=5).map(meta).collect();
        let handle = write_manifest(&env, &metas).unwrap().unwrap();
        assert_eq!(read_manifest(&env, &handle).unwrap(), metas);
        assert_eq!(write_manifest(&env, &[]).unwrap(), None);

        let mut w = ListWriter::new(&env);
        for (kw, id) in [("b", "0.1"), ("a", "0.2"), ("b", "0.3")] {
            w.append(&env, &encode_journal_record(kw, &d(id)).unwrap()).unwrap();
        }
        let jh = w.finish(&env).unwrap();
        let seg = replay_journal(&env, &jh).unwrap();
        assert_eq!(seg.posting_count(), 3);
        assert_eq!(seg.lists()["b"], vec![d("0.1"), d("0.3")]);
    }
}
