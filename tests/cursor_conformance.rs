//! One conformance property for every posting cursor: driven through a
//! random interleaving of seeks (forward, backward, to the root, past
//! the end) and steps, each backend must report exactly the `current`
//! and `before` postings of a sorted `Vec<Dewey>` at the same position.
//! The backends: `MemList`, `ChainedCursor` over random cuts (in memory
//! and over sealed blobs), `SegCursor` at three block sizes, and the
//! B+tree reference's `DiskCursor`. A corrupt block under a `SegCursor`
//! poisons the slot, ends the cursor, and is re-read on a retry.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::Arc;
use xk_index::{build_disk_index, BuildOptions, DiskIndex, MemIndex};
use xk_segment::{seal, ErrorSlot, SealSpec, SegmentError, SegmentReader};
use xk_slca::{ChainedCursor, MemList, PostingCursor};
use xk_storage::{EnvOptions, MemPager, PageId, Pager, StorageEnv};
use xk_xmltree::{Dewey, NodeId, XmlTree};

/// One step of a cursor's life.
#[derive(Debug, Clone)]
enum Op {
    /// Seek to probe `i` (modulo the probe pool).
    Seek(usize),
    Step,
    Current,
    Before,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0usize..1000).prop_map(Op::Seek),
        Just(Op::Step),
        Just(Op::Step),
        Just(Op::Current),
        Just(Op::Before),
    ];
    proptest::collection::vec(op, 1..60)
}

/// A random document whose elements named `k` are the keyword's
/// postings: element `i` hangs under an earlier element, chosen by `at`.
fn tree(shape: &[(usize, bool)], root_is_k: bool) -> XmlTree {
    let mut t = XmlTree::new(if root_is_k { "k" } else { "r" });
    let mut elements = vec![NodeId::ROOT];
    for &(at, is_k) in shape {
        let parent = elements[at % elements.len()];
        elements.push(t.append_element(parent, if is_k { "k" } else { "e" }));
    }
    t
}

/// Seek keys: every node (so every posting), each node's right-sibling
/// position (past a level's width, too), the root, and past the end.
fn probes(t: &XmlTree) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::new();
    for n in t.preorder() {
        let d = t.dewey(n);
        out.push(d.components().to_vec());
        if let Some(uncle) = d.uncle() {
            out.push(uncle.components().to_vec());
        }
    }
    let fanout = t.preorder().filter(|&n| t.dewey(n).depth() == 1).count() as u32;
    out.push(vec![fanout + 5]);
    out.push(Vec::new());
    out
}

/// The model: a position in the sorted list.
struct Model<'a> {
    list: &'a [Dewey],
    pos: usize,
}

impl Model<'_> {
    fn current(&self) -> Option<&[u32]> {
        self.list.get(self.pos).map(Dewey::components)
    }

    fn before(&self) -> Option<&[u32]> {
        self.list.get(self.pos.checked_sub(1)?).map(Dewey::components)
    }
}

/// Drives `cursor` and the model through `ops`, comparing every read.
fn conform(
    name: &str,
    cursor: &mut dyn PostingCursor,
    list: &[Dewey],
    probes: &[Vec<u32>],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut model = Model { list, pos: 0 };
    prop_assert_eq!(cursor.len(), list.len() as u64, "{}: len", name);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Seek(p) => {
                let key = &probes[p % probes.len()];
                model.pos = list.partition_point(|n| n.components() < key.as_slice());
                cursor.seek(key);
            }
            Op::Step => {
                model.pos = (model.pos + 1).min(list.len());
                cursor.step();
            }
            Op::Current => {
                prop_assert_eq!(cursor.current(), model.current(), "{}: op {} {:?}", name, i, ops);
            }
            Op::Before => {
                prop_assert_eq!(cursor.before(), model.before(), "{}: op {} {:?}", name, i, ops);
            }
        }
    }
    prop_assert_eq!(cursor.current(), model.current(), "{}: final current", name);
    prop_assert_eq!(cursor.before(), model.before(), "{}: final before", name);
    Ok(())
}

/// `list` sealed as keyword `k` into one blob of `block`-byte blocks.
fn sealed(list: &[Dewey], block: usize) -> Arc<SegmentReader> {
    let pager = Arc::new(MemPager::new(block));
    let lists = BTreeMap::from([("k".to_string(), list.to_vec())]);
    seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
    SegmentReader::open(pager, None).unwrap()
}

/// `list` cut at `cuts` into disjoint runs, each made a part by `part`.
fn chained(
    list: &[Dewey],
    cuts: &[usize],
    part: impl Fn(&[Dewey]) -> Box<dyn PostingCursor>,
) -> ChainedCursor {
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (list.len() + 1)).collect();
    cuts.push(list.len());
    cuts.sort();
    let (mut parts, mut start) = (Vec::new(), 0);
    for cut in cuts {
        if cut > start {
            parts.push((list[start].clone(), part(&list[start..cut])));
            start = cut;
        }
    }
    ChainedCursor::new(parts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_cursor_reads_like_a_sorted_vec(
        shape in proptest::collection::vec((0usize..1000, any::<bool>()), 1..80),
        root_is_k in any::<bool>(),
        cuts in proptest::collection::vec(0usize..100, 0..4),
        ops in ops(),
    ) {
        let t = tree(&shape, root_is_k);
        let Some(list) = MemIndex::build(&t).keyword_list("k").map(<[Dewey]>::to_vec) else {
            return Ok(());
        };
        let probes = probes(&t);
        let slot = ErrorSlot::new();

        conform("mem", &mut MemList::from_sorted(list.clone()), &list, &probes, &ops)?;
        let mem_part = |run: &[Dewey]| -> Box<dyn PostingCursor> {
            Box::new(MemList::from_sorted(run.to_vec()))
        };
        conform("chained", &mut chained(&list, &cuts, mem_part), &list, &probes, &ops)?;
        let seg_part = |run: &[Dewey]| -> Box<dyn PostingCursor> {
            Box::new(sealed(run, 256).stream_list("k", slot.clone()).unwrap())
        };
        conform("chained blobs", &mut chained(&list, &cuts, seg_part), &list, &probes, &ops)?;
        for block in [256, 512, 4096] {
            let r = sealed(&list, block);
            let mut seg = r.stream_list("k", slot.clone()).unwrap();
            conform(&format!("seg @ {block}"), &mut seg, &list, &probes, &ops)?;
        }
        prop_assert!(!slot.is_poisoned(), "{:?}", slot.take());

        let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
        build_disk_index(&env, &t, &BuildOptions { store_document: false, ..Default::default() })
            .unwrap();
        let index = DiskIndex::open(&env).unwrap();
        let env = Arc::new(env);
        let disk_slot = xk_slca::ErrorSlot::new();
        let mut disk = index.cursor(&env, "k", disk_slot.clone()).unwrap();
        conform("disk", &mut disk, &list, &probes, &ops)?;
        prop_assert!(!disk_slot.is_poisoned(), "{:?}", disk_slot.take());
    }
}

#[test]
fn a_corrupt_block_poisons_ends_and_is_reread_on_retry() {
    let list: Vec<Dewey> = (0..300).map(|i| Dewey::from_components(vec![i / 9, i % 9])).collect();
    let pager = Arc::new(MemPager::new(256));
    let lists = BTreeMap::from([("k".to_string(), list.clone())]);
    let header = seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, &lists).unwrap();
    assert!(header.data_blocks > 2, "the list spans several blocks");
    // Flip a byte of the second posting block's payload.
    let mut buf = vec![0u8; 256];
    pager.read_page(PageId(2), &mut buf).unwrap();
    buf[60] ^= 0x40;
    pager.write_page(PageId(2), &buf).unwrap();
    let r = SegmentReader::open(pager, None).unwrap();

    let slot = ErrorSlot::new();
    let mut cursor = r.stream_list("k", slot.clone()).unwrap();
    let mut read = Vec::new();
    while let Some(n) = cursor.current() {
        read.push(Dewey::from(n));
        cursor.step();
    }
    assert!(!read.is_empty() && read.len() < list.len(), "stopped at the bad block");
    assert_eq!(read, list[..read.len()], "every posting before it is intact");
    assert!(matches!(slot.take(), Some(SegmentError::Corrupt(_))), "the slot is poisoned");

    // The cursor stays ended: stepping does not move past the bad block.
    cursor.step();
    assert_eq!(cursor.current(), None);
    assert!(slot.take().is_some(), "the read failed again");

    // A retry re-reads the block, and fails again.
    let reads = r.block_reads();
    cursor.seek(list[read.len()].components());
    assert_eq!(cursor.current(), None);
    assert_eq!(cursor.before(), None, "a failed seek reads nothing");
    assert_eq!(r.block_reads(), reads + 1, "the retry re-read the block");
    assert!(matches!(slot.take(), Some(SegmentError::Corrupt(_))));

    // Seeking back before the bad block reads again.
    cursor.seek(&[]);
    assert_eq!(cursor.current(), Some(list[0].components()));
    assert!(!slot.is_poisoned());
}
