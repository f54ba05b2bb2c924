//! Semantic corruption behind a valid CRC: a posting block whose payload
//! was rewritten and re-framed passes its checksum, so only the chunk
//! decoder's own checks stand between it and a wrong answer. Each fault
//! the decoder checks must surface as `SegmentError::Corrupt` through
//! every read path — probes, streams, `postings()` and `verify_store` —
//! and a failed decode must never be cached.

use std::collections::BTreeMap;
use std::sync::Arc;
use xk_segment::codec::{encode_entry, put_varint};
use xk_segment::format::frame_block;
use xk_segment::{
    seal, verify_store, write_manifest, ErrorSlot, MemSegmentIo, SealSpec, SealedMeta, SegExt,
    SegmentError, SegmentIo, SegmentReader,
};
use xk_slca::{RankedList, StreamList};
use xk_storage::{MemPager, PageId, StorageEnv};
use xk_xmltree::Dewey;

const BLOCK: usize = 256;

/// The one keyword's postings: `0.1` … `0.9`, one chunk at offset 0 of
/// block 1.
fn nodes() -> Vec<Dewey> {
    (1..=9).map(|i| Dewey::from_components(vec![0, i])).collect()
}

/// `nodes` encoded as one restart run, exactly as the writer lays it out.
fn encode_run(nodes: &[Dewey]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev: Option<&Dewey> = None;
    for n in nodes {
        encode_entry(&mut out, prev, n);
        prev = Some(n);
    }
    out
}

/// A one-blob store whose posting block 1 carries `payload` behind a
/// valid CRC.
struct Planted {
    io: MemSegmentIo,
    env: StorageEnv,
    ext: SegExt,
    reader: Arc<SegmentReader>,
}

fn plant(payload: &[u8]) -> Planted {
    let io = MemSegmentIo::new(BLOCK);
    let lists = BTreeMap::from([("k".to_string(), nodes())]);
    let pager = io.create(1).unwrap();
    let header = seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
    io.finalize(1, pager).unwrap();
    assert_eq!(header.data_blocks, 1);
    let blob = io.open(1).unwrap();
    blob.write_page(PageId(1), &frame_block(payload, BLOCK)).unwrap();
    let meta = SealedMeta::of(&header);
    let reader = SegmentReader::open(blob, Some(&meta.fence())).unwrap();
    let env = StorageEnv::create_with_pager(Box::new(MemPager::new(512)), 64).unwrap();
    let manifest = write_manifest(&env, &[meta]).unwrap();
    Planted { io, env, ext: SegExt { journal: None, manifest, next_seq: 2 }, reader }
}

fn corrupt_text(err: Option<SegmentError>) -> String {
    match err {
        Some(SegmentError::Corrupt(m)) => m,
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
}

/// Every read path over `payload` fails with a `Corrupt` error naming
/// `expect`.
fn assert_rejected(name: &str, payload: &[u8], expect: &str) {
    let p = plant(payload);
    let r = &p.reader;
    let probe = Dewey::from_components(vec![0, 5]);

    // Probes: no answer, a typed error, and a retry that re-reads the
    // block and fails again instead of serving a half-filled buffer.
    let slot = ErrorSlot::new();
    let mut ranked = r.ranked_list("k", slot.clone()).unwrap();
    assert_eq!(ranked.rm(&probe), None, "{name}: rm");
    let text = corrupt_text(slot.take());
    assert!(text.contains(expect), "{name}: rm error {text:?}");
    let reads = r.block_reads();
    assert_eq!(ranked.lm(&probe), None, "{name}: retried lm");
    assert_eq!(r.block_reads(), reads + 1, "{name}: a failed decode must not be cached");
    assert!(corrupt_text(slot.take()).contains(expect), "{name}: retried lm error");

    // Streams: nothing before the error, nothing after it.
    let mut stream = r.stream_list("k", slot.clone()).unwrap();
    assert_eq!(stream.next_node(), None, "{name}: stream");
    assert!(corrupt_text(slot.take()).contains(expect), "{name}: stream error");
    assert_eq!(stream.next_node(), None, "{name}: stream retry");
    assert!(slot.take().is_some(), "{name}: stream retry error");

    match r.postings("k") {
        Err(SegmentError::Corrupt(m)) => assert!(m.contains(expect), "{name}: postings {m:?}"),
        other => panic!("{name}: postings returned {other:?}"),
    }

    let report = verify_store(&p.env, &p.ext, &p.io).unwrap();
    assert!(report.issues.iter().any(|i| i.contains(expect)), "{name}: verify {:?}", report.issues);
}

#[test]
fn the_planting_helper_reproduces_a_clean_block() {
    let p = plant(&encode_run(&nodes()));
    assert_eq!(p.reader.postings("k").unwrap(), nodes());
    let slot = ErrorSlot::new();
    let mut ranked = p.reader.ranked_list("k", slot.clone()).unwrap();
    let probe = Dewey::from_components(vec![0, 5]);
    assert_eq!(ranked.rm(&probe), Some(probe.clone()));
    assert!(!slot.is_poisoned());
    let report = verify_store(&p.env, &p.ext, &p.io).unwrap();
    assert!(report.clean(), "{:?}", report.issues);
}

#[test]
fn non_ascending_pair_is_corrupt() {
    let mut swapped = nodes();
    swapped.swap(3, 4);
    let expect = "not ascending in block 1 (0.5 then 0.4)";
    assert_rejected("non-ascending", &encode_run(&swapped), expect);
}

#[test]
fn first_entry_other_than_the_chunk_min_is_corrupt() {
    let mut moved = nodes();
    moved[0] = Dewey::from_components(vec![0, 1, 5]);
    assert_rejected("min", &encode_run(&moved), "chunk min 0.1 disagrees");
}

#[test]
fn shared_beyond_the_predecessor_is_corrupt() {
    let mut payload = encode_run(&nodes()[..1]);
    put_varint(&mut payload, 3); // the predecessor has depth 2
    put_varint(&mut payload, 1);
    put_varint(&mut payload, 2);
    assert_rejected("shared", &payload, "delta shares 3 components but predecessor has 2");
}

#[test]
fn restart_entry_sharing_components_is_corrupt() {
    let mut payload = Vec::new();
    put_varint(&mut payload, 1);
    put_varint(&mut payload, 1);
    put_varint(&mut payload, 1);
    assert_rejected("restart", &payload, "restart entry claims shared components");
}

#[test]
fn component_over_u32_is_corrupt() {
    let mut payload = Vec::new();
    put_varint(&mut payload, 0);
    put_varint(&mut payload, 2);
    put_varint(&mut payload, 0);
    put_varint(&mut payload, u32::MAX as u64 + 1);
    assert_rejected("component", &payload, "component 4294967296 overflows u32");
}

#[test]
fn truncated_varint_is_corrupt() {
    let mut payload = encode_run(&nodes());
    // The last component's final byte becomes a continuation byte with
    // nothing after it.
    *payload.last_mut().unwrap() = 0x80;
    assert_rejected("truncated", &payload, "varint truncated");
}
