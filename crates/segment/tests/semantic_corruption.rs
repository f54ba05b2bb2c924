//! Semantic corruption behind a valid CRC: a posting block whose payload
//! was rewritten and re-framed passes its checksum, so only the chunk
//! check pass stands between it and a wrong answer. Each fault the pass
//! checks — key order, a malformed key (on both the integer and the
//! byte-slot path), a width past 32, a bad width header, a key area that
//! overruns the payload, a first key other than the skip table's `min` —
//! must surface as `SegmentError::Corrupt` through every read path
//! (probes, streams, `postings()` and `verify_store`), and a failed load
//! must never be cached.

use std::collections::BTreeMap;
use std::sync::Arc;
use xk_segment::codec::encode_chunk;
use xk_segment::format::frame_block;
use xk_segment::{
    seal, verify_store, write_manifest, ErrorSlot, MemSegmentIo, SealSpec, SealedMeta, SegExt,
    SegmentError, SegmentIo, SegmentReader,
};
use xk_slca::{RankedList, StreamList};
use xk_storage::{MemPager, PageId, StorageEnv};
use xk_xmltree::Dewey;

const BLOCK: usize = 256;

/// The narrow keyword's postings: `0.1` … `0.9`, one chunk at offset 0
/// of block 1, packed at widths `[1, 4]` — 8 bits, so 1-byte keys whose
/// last bit is the terminator of the depth-2 keys. The chunk's bytes:
/// the depth (`u16` LE), the two widths, then the nine keys.
fn nodes() -> Vec<Dewey> {
    (1..=9).map(|i| Dewey::from_components(vec![0, i])).collect()
}
const WIDTHS: &[u8] = &[1, 4];

/// The wide keyword's postings, packed at `[32, 32, 4]`: 72-bit keys, so
/// the check pass unpacks each 9-byte slot instead of comparing words.
fn wide_nodes() -> Vec<Dewey> {
    (1..=9).map(|i| Dewey::from_components(vec![u32::MAX, u32::MAX, i])).collect()
}
const WIDE: &[u8] = &[32, 32, 4];

/// `nodes` as the writer lays out their chunk.
fn chunk(widths: &[u8], nodes: &[Dewey]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_chunk(&mut out, widths, nodes).unwrap();
    out
}

/// A one-blob store holding `nodes` under keyword `k`, whose posting
/// block 1 then carries `payload` behind a valid CRC.
struct Planted {
    io: MemSegmentIo,
    env: StorageEnv,
    ext: SegExt,
    reader: Arc<SegmentReader>,
}

fn plant(nodes: &[Dewey], payload: &[u8]) -> Planted {
    let io = MemSegmentIo::new(BLOCK);
    let lists = BTreeMap::from([("k".to_string(), nodes.to_vec())]);
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

/// Every read path over `payload`, planted under `nodes`' skip table,
/// fails with a `Corrupt` error naming `expect`.
fn assert_rejected(name: &str, nodes: &[Dewey], payload: &[u8], expect: &str) {
    let p = plant(nodes, payload);
    let r = &p.reader;
    let probe = &nodes[4];

    // Probes: no answer, a typed error, and a retry that re-reads the
    // block and fails again instead of answering from a failed load.
    let slot = ErrorSlot::new();
    let mut ranked = r.stream_list("k", slot.clone()).unwrap();
    assert_eq!(ranked.rm(probe), None, "{name}: rm");
    let text = corrupt_text(slot.take());
    assert!(text.contains(expect), "{name}: rm error {text:?}");
    let reads = r.block_reads();
    assert_eq!(ranked.lm(probe), None, "{name}: retried lm");
    assert_eq!(r.block_reads(), reads + 1, "{name}: a failed load must not be cached");
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
    for (nodes, widths) in [(nodes(), WIDTHS), (wide_nodes(), WIDE)] {
        let p = plant(&nodes, &chunk(widths, &nodes));
        assert_eq!(p.reader.postings("k").unwrap(), nodes);
        let slot = ErrorSlot::new();
        let mut ranked = p.reader.stream_list("k", slot.clone()).unwrap();
        assert_eq!(ranked.rm(&nodes[4]), Some(nodes[4].clone()));
        assert!(!slot.is_poisoned());
        let report = verify_store(&p.env, &p.ext, &p.io).unwrap();
        assert!(report.clean(), "{:?}", report.issues);
    }
}

#[test]
fn non_ascending_pair_is_corrupt() {
    let mut swapped = nodes();
    swapped.swap(3, 4);
    let expect = "not ascending in block 1 (0.5 then 0.4)";
    assert_rejected("non-ascending", &nodes(), &chunk(WIDTHS, &swapped), expect);
}

#[test]
fn malformed_key_is_corrupt() {
    // Key 4's terminator bit set: a continuation past the last width.
    let mut payload = chunk(WIDTHS, &nodes());
    payload[4 + 4] |= 0x01; // behind the 2-byte depth and 2 widths
    assert_rejected("malformed", &nodes(), &payload, "malformed key 4 in block 1");
}

#[test]
fn malformed_wide_key_is_corrupt() {
    let mut payload = chunk(WIDE, &wide_nodes());
    payload[5 + 9 * 5 - 1] |= 0x01; // key 4's last bit, its terminator
    assert_rejected("malformed wide", &wide_nodes(), &payload, "malformed key 4 in block 1");
}

#[test]
fn width_over_32_is_corrupt() {
    let mut payload = chunk(WIDTHS, &nodes());
    payload[3] = 33;
    assert_rejected("width", &nodes(), &payload, "chunk level 1 width 33 outside 1..=32");
}

#[test]
fn bad_width_header_is_corrupt() {
    let mut zero = chunk(WIDTHS, &nodes());
    zero[2] = 0;
    assert_rejected("zero width", &nodes(), &zero, "chunk level 0 width 0 outside 1..=32");
    let mut deep = chunk(WIDTHS, &nodes());
    deep[..2].copy_from_slice(&300u16.to_le_bytes());
    assert_rejected("deep header", &nodes(), &deep, "chunk width header of 300 levels overruns");
}

#[test]
fn key_area_overrunning_the_payload_is_corrupt() {
    let mut short = chunk(WIDTHS, &nodes());
    short.pop();
    assert_rejected("truncated", &nodes(), &short, "chunk of 9 1-byte keys overruns block 1");
    // A wider level stretches every key to 2 bytes: 9 of them no longer fit.
    let mut widened = chunk(WIDTHS, &nodes());
    widened[3] = 12;
    assert_rejected("widened", &nodes(), &widened, "chunk of 9 2-byte keys overruns block 1");
}

#[test]
fn first_key_other_than_the_chunk_min_is_corrupt() {
    let mut moved = nodes();
    moved[0] = Dewey::from_components(vec![0, 0]);
    assert_rejected("min", &nodes(), &chunk(WIDTHS, &moved), "chunk min 0.1 disagrees");
}
