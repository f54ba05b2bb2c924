//! Property test of the chunk check and search behind every segment
//! read: random strictly ascending keyword lists (depth 0–8, ordinals up
//! to `u32::MAX`, several keywords sharing blocks) sealed at three block
//! sizes must probe, stream and materialize exactly like the input. Small
//! ordinals give keys of at most 8 bytes (the integer path), the extremes
//! wider ones (the byte-slot path). A fixed case pins the tie that raw
//! fixed-width packing gets wrong: ancestors and descendants in one chunk.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use xk_segment::{seal, ErrorSlot, SealSpec, SegmentReader};
use xk_slca::{MemList, PostingCursor, RankedList, StreamList};
use xk_storage::MemPager;
use xk_xmltree::Dewey;

/// Small ordinals make neighbours share long prefixes (the delta path);
/// the extremes make components cost five varint bytes.
fn ordinal() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..4, any::<u32>(), Just(u32::MAX)]
}

fn dewey() -> impl Strategy<Value = Dewey> {
    (0usize..=8)
        .prop_flat_map(|depth| prop::collection::vec(ordinal(), depth))
        .prop_map(Dewey::from_components)
}

fn lists() -> impl Strategy<Value = BTreeMap<String, Vec<Dewey>>> {
    prop::collection::vec(prop::collection::btree_set(dewey(), 1..120), 1..5).prop_map(|sets| {
        sets.into_iter()
            .enumerate()
            .map(|(i, set): (usize, BTreeSet<Dewey>)| (format!("k{i}"), set.into_iter().collect()))
            .collect()
    })
}

fn sealed(lists: &BTreeMap<String, Vec<Dewey>>, block: usize) -> Arc<SegmentReader> {
    let pager = Arc::new(MemPager::new(block));
    seal(pager.as_ref(), &SealSpec { seq: 1, seal_epoch: 0 }, lists).unwrap();
    SegmentReader::open(pager, None).unwrap()
}

#[test]
fn ancestors_and_descendants_in_one_chunk() {
    // Padded to one stride without continuation bits, `0.5`, `0.5.0` and
    // `0.5.0.0` would pack identically.
    let d = |s: &str| s.parse::<Dewey>().unwrap();
    let nodes = vec![d("0.5"), d("0.5.0"), d("0.5.0.0"), d("0.6")];
    let r = sealed(&BTreeMap::from([("k".to_string(), nodes.clone())]), 256);
    assert_eq!(r.postings("k").unwrap(), nodes);
    let slot = ErrorSlot::new();
    let mut seg = r.stream_list("k", slot.clone()).unwrap();
    let mut mem = MemList::from_sorted(nodes.clone());
    let probes = [
        "/",
        "0",
        "0.4.9",
        "0.5",
        "0.5.0",
        "0.5.0.0",
        "0.5.0.0.0",
        "0.5.0.1",
        "0.5.1",
        "0.6",
        "0.6.0",
        "0.7",
        "1",
    ];
    for p in probes.map(d) {
        assert_eq!(seg.rm(&p), mem.rm(&p), "rm({p})");
        assert_eq!(seg.lm(&p), mem.lm(&p), "lm({p})");
    }
    let mut s = r.stream_list("k", slot.clone()).unwrap();
    assert_eq!(std::iter::from_fn(|| s.next_node()).collect::<Vec<_>>(), nodes);
    assert!(!slot.is_poisoned(), "{:?}", slot.take());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sealed_lists_read_back_exactly(
        lists in lists(),
        probes in prop::collection::vec(dewey(), 0..24),
        cut in any::<prop::sample::Index>(),
    ) {
        for block in [256, 512, 4096] {
            let r = sealed(&lists, block);
            let slot = ErrorSlot::new();
            for (kw, nodes) in &lists {
                prop_assert_eq!(&r.postings(kw).unwrap(), nodes, "postings({}) @ {}", kw, block);

                // Every input id (so every chunk minimum), the root, one
                // past the last id, and random probes.
                let mut seg = r.stream_list(kw, slot.clone()).unwrap();
                let mut mem = MemList::from_sorted(nodes.clone());
                let ends = [Dewey::root(), nodes.last().unwrap().child(0)];
                for p in nodes.iter().chain(&ends).chain(&probes) {
                    prop_assert_eq!(seg.rm(p), mem.rm(p), "rm({}) for {} @ {}", p, kw, block);
                    prop_assert_eq!(seg.lm(p), mem.lm(p), "lm({}) for {} @ {}", p, kw, block);
                }

                // A full drain, then a rewind from mid-stream.
                let mut s = r.stream_list(kw, slot.clone()).unwrap();
                let drained: Vec<Dewey> = std::iter::from_fn(|| s.next_node()).collect();
                prop_assert_eq!(&drained, nodes, "stream({}) @ {}", kw, block);
                s.seek(&[]);
                for _ in 0..cut.index(nodes.len()) {
                    s.next_node();
                }
                s.seek(&[]);
                let again: Vec<Dewey> = std::iter::from_fn(|| s.next_node()).collect();
                prop_assert_eq!(&again, nodes, "rewound stream({}) @ {}", kw, block);
            }
            prop_assert!(!slot.is_poisoned(), "{:?}", slot.take());
        }
    }
}
