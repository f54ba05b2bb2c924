//! Deep integrity sweep over a segment store.
//!
//! `xksearch verify` calls [`verify_store`] after its page-checksum
//! sweep: every sealed blob is opened with its manifest fence, every
//! block CRC re-checked once, every posting chunk checked and reconciled
//! against the dictionary, and the journal replayed. Problems are
//! *reported*, never panicked on — one corrupt blob doesn't stop the
//! sweep from checking the rest.

use crate::error::Result;
use crate::io::SegmentIo;
use crate::manifest::{read_manifest, replay_journal, SegExt};
use crate::reader::{BlockBuf, SegmentReader};
use xk_storage::StorageEnv;

/// Outcome of a segment-store sweep.
#[derive(Debug, Default)]
pub struct SegmentVerifyReport {
    /// Sealed segments the manifest claims.
    pub segments: usize,
    /// Blocks whose CRCs were re-verified.
    pub blocks_checked: u64,
    /// Postings checked and reconciled across all sealed segments.
    pub postings_checked: u64,
    /// Postings replayed from the journal chain.
    pub journal_postings: u64,
    /// Everything found wrong, in discovery order.
    pub issues: Vec<String>,
}

impl SegmentVerifyReport {
    /// True when the sweep found nothing wrong.
    pub fn clean(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Deep-checks one sealed blob that is already open (header, trailer,
/// and dictionary validated): loads every chunk of every keyword — the
/// same check pass every query runs — and reconciles counts. Keyword
/// runs are packed back to back in keyword order, so walking the
/// dictionary visits posting blocks in order and each block is read and
/// CRC-checked once, then every chunk in it is checked against it.
/// Returns `(blocks, postings)` checked.
fn deep_check(r: &SegmentReader, issues: &mut Vec<String>) -> (u64, u64) {
    let seq = r.seq();
    let reads_before = r.block_reads();
    let mut block = BlockBuf::default();
    let mut postings = 0u64;
    for (kw, entry) in r.entries() {
        let decoded = entry.chunks.iter().try_fold(0u64, |n, chunk| {
            r.load_chunk(chunk, &mut block).map(|c| n + c.len() as u64)
        });
        match decoded {
            Ok(n) => {
                postings += n;
                if n != entry.count {
                    issues.push(format!(
                        "segment {seq}: dictionary count {} for {kw:?} but {n} checked",
                        entry.count
                    ));
                }
            }
            Err(e) => issues.push(format!("segment {seq}: {kw:?}: {e}")),
        }
    }
    if postings != r.header().posting_count {
        issues.push(format!(
            "segment {seq}: header claims {} postings, {postings} checked",
            r.header().posting_count
        ));
    }
    // The header, dict and trailer blocks were checked at open.
    let blocks = r.block_reads() - reads_before + 1 + r.header().dict_blocks as u64 + 1;
    (blocks, postings)
}

/// Sweeps the whole segment store described by `ext`: fences and deep
/// checks every sealed blob, replays the journal, and reports orphan
/// blobs the manifest does not claim.
pub fn verify_store(
    env: &StorageEnv,
    ext: &SegExt,
    io: &dyn SegmentIo,
) -> Result<SegmentVerifyReport> {
    let mut report = SegmentVerifyReport::default();
    let metas = match &ext.manifest {
        Some(handle) => match read_manifest(env, handle) {
            Ok(m) => m,
            Err(e) => {
                report.issues.push(format!("manifest chain unreadable: {e}"));
                Vec::new()
            }
        },
        None => Vec::new(),
    };
    report.segments = metas.len();
    for meta in &metas {
        if meta.seq >= ext.next_seq {
            report.issues.push(format!(
                "segment {} is newer than the extension's next_seq {}",
                meta.seq, ext.next_seq
            ));
        }
        let fence = meta.fence();
        let blob = match io.open(meta.seq) {
            Ok(b) => b,
            Err(e) => {
                report.issues.push(format!("segment {} unopenable: {e}", meta.seq));
                continue;
            }
        };
        match SegmentReader::open(blob, Some(&fence)) {
            Ok(r) => {
                if r.header().total_blocks() != meta.blocks {
                    report.issues.push(format!(
                        "segment {}: manifest records {} blocks, blob has {}",
                        meta.seq,
                        meta.blocks,
                        r.header().total_blocks()
                    ));
                }
                let (blocks, postings) = deep_check(&r, &mut report.issues);
                report.blocks_checked += blocks;
                report.postings_checked += postings;
            }
            Err(e) => report.issues.push(format!("segment {}: {e}", meta.seq)),
        }
    }
    if let Some(handle) = &ext.journal {
        match replay_journal(env, handle) {
            Ok(seg) => report.journal_postings = seg.posting_count(),
            Err(e) => report.issues.push(format!("journal chain unreadable: {e}")),
        }
    }
    match io.list() {
        Ok(listed) => {
            for seq in listed {
                if !metas.iter().any(|m| m.seq == seq) {
                    report.issues.push(format!(
                        "orphan segment blob {seq} not claimed by the manifest \
                         (leftover from an aborted seal; the next open deletes it)"
                    ));
                }
            }
        }
        Err(e) => report.issues.push(format!("cannot list segment blobs: {e}")),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemSegmentIo;
    use crate::manifest::{write_manifest, SealedMeta};
    use crate::writer::{seal, SealSpec};
    use std::collections::BTreeMap;
    use xk_storage::{MemPager, PageId, Pager};
    use xk_xmltree::Dewey;

    fn seal_into(io: &MemSegmentIo, seq: u64, n: u32) -> SealedMeta {
        let mut lists = BTreeMap::new();
        lists.insert(
            "w".to_string(),
            (0..n).map(|i| Dewey::from_components(vec![seq as u32, i])).collect::<Vec<_>>(),
        );
        let pager = io.create(seq).unwrap();
        let header = seal(pager.as_ref(), &SealSpec { seq, seal_epoch: 0 }, &lists).unwrap();
        io.finalize(seq, pager).unwrap();
        SealedMeta::of(&header)
    }

    #[test]
    fn clean_store_verifies_clean() {
        let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
        let io = MemSegmentIo::new(256);
        let mut metas = vec![seal_into(&io, 1, 50), seal_into(&io, 2, 30)];
        // Twelve keywords sharing posting blocks: each block is read
        // once however many keyword runs it holds.
        let lists: BTreeMap<String, Vec<Dewey>> = (0..12u32)
            .map(|k| {
                let list = (0..(k + 1) * 9).map(|i| Dewey::from_components(vec![k, i]));
                (format!("kw{k:02}"), list.collect())
            })
            .collect();
        let pager = io.create(3).unwrap();
        let header = seal(pager.as_ref(), &SealSpec { seq: 3, seal_epoch: 0 }, &lists).unwrap();
        io.finalize(3, pager).unwrap();
        assert!(header.data_blocks > 1 && header.data_blocks < header.keyword_count);
        metas.push(SealedMeta::of(&header));
        let manifest = write_manifest(&env, &metas).unwrap();
        let ext = SegExt { journal: None, manifest, next_seq: 4 };
        let report = verify_store(&env, &ext, &io).unwrap();
        assert!(report.clean(), "{:?}", report.issues);
        assert_eq!(report.segments, 3);
        assert_eq!(report.postings_checked, 80 + header.posting_count);
        let total: u64 = metas.iter().map(|m| m.blocks as u64).sum();
        assert_eq!(report.blocks_checked, total, "every block checked exactly once");
    }

    #[test]
    fn corruption_and_orphans_are_reported_not_fatal() {
        let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
        let io = MemSegmentIo::new(256);
        let metas = vec![seal_into(&io, 1, 50), seal_into(&io, 2, 30)];
        seal_into(&io, 9, 5); // orphan: published but not in the manifest
        // Corrupt a posting block of segment 1.
        let blob = io.open(1).unwrap();
        let mut buf = vec![0u8; 256];
        blob.read_page(PageId(1), &mut buf).unwrap();
        buf[30] ^= 0xFF;
        blob.write_page(PageId(1), &buf).unwrap();
        let manifest = write_manifest(&env, &metas).unwrap();
        let ext = SegExt { journal: None, manifest, next_seq: 10 };
        let report = verify_store(&env, &ext, &io).unwrap();
        assert!(!report.clean());
        assert!(report.issues.iter().any(|i| i.contains("CRC")), "{:?}", report.issues);
        assert!(report.issues.iter().any(|i| i.contains("orphan")), "{:?}", report.issues);
        // Segment 2 was still fully checked.
        assert!(report.postings_checked >= 30);
    }

    #[test]
    fn missing_blob_is_an_issue() {
        let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
        let io = MemSegmentIo::new(256);
        let metas = vec![seal_into(&io, 1, 10)];
        io.delete(1).unwrap();
        let manifest = write_manifest(&env, &metas).unwrap();
        let ext = SegExt { journal: None, manifest, next_seq: 2 };
        let report = verify_store(&env, &ext, &io).unwrap();
        assert!(report.issues.iter().any(|i| i.contains("unopenable")), "{:?}", report.issues);
    }

    #[test]
    fn arc_pager_blob_roundtrip() {
        // MemSegmentIo::open returns Arc<dyn Pager>; make sure SegmentReader
        // accepts it with a fence.
        let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
        let _ = env;
        let io = MemSegmentIo::new(256);
        let meta = seal_into(&io, 4, 12);
        let r = SegmentReader::open(io.open(4).unwrap(), Some(&meta.fence())).unwrap();
        assert_eq!(r.frequency("w"), 12);
    }
}
