//! Differential property test for the segment layout: a document grown
//! through `append_subtree` in packed XKSEG2 segments must be
//! indistinguishable from the **bulk-built B+tree reference** of the
//! same final document through **both** list traits — identical posting
//! streams, identical `rm`/`lm` probe answers — and through all four
//! algorithms. The reference never appends (its layout is read-only): it
//! is rebuilt from a test-side graft of the fragments, so it shares no
//! graft/commit code with the side under test.
//!
//! The seal threshold is randomized so runs cover every source mix: all
//! postings journaled in the mem segment, every append sealed into its
//! own blob, and states in between; an optional compaction pass folds
//! the sealed set through the tiered merge before comparison.

use proptest::prelude::*;
use xk_storage::EnvOptions;
use xk_workload::{generate, DblpSpec, Planted};
use xk_xmltree::{Dewey, NodeContent, NodeId, XmlTree};
use xksearch::{Algorithm, Engine};

static WORDS: [&str; 6] = ["apple", "pear", "fig", "kiwi", "plum", "date"];

/// Random small XML tree over a tiny alphabet, so keywords repeat across
/// structural and text nodes (same shape as the end-to-end proptest).
fn random_tree() -> impl Strategy<Value = XmlTree> {
    proptest::collection::vec((any::<prop::sample::Index>(), any::<bool>(), 0usize..6), 0..50)
        .prop_map(|instrs| {
            let mut tree = XmlTree::new("root");
            let mut elements = vec![NodeId::ROOT];
            for (parent_idx, is_text, label) in instrs {
                let parent = *parent_idx.get(&elements);
                if is_text {
                    tree.append_text(parent, WORDS[label]);
                } else {
                    let id = tree.append_element(parent, WORDS[label]);
                    elements.push(id);
                }
            }
            tree
        })
}

/// Test-side twin of the engine's graft: deep-copies `src` (a parsed
/// fragment) as the new last child of `parent`, returning the copy's id.
fn graft(dst: &mut XmlTree, parent: NodeId, src: &XmlTree, node: NodeId) -> NodeId {
    let new_id = match src.content(node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(parent, t.clone()),
    };
    for &c in src.children(node) {
        graft(dst, new_id, src, c);
    }
    new_id
}

/// Random appendable fragment: an element wrapping 1–3 words.
fn fragment() -> impl Strategy<Value = String> {
    (0usize..6, proptest::collection::vec(0usize..6, 1..4)).prop_map(|(tag, body)| {
        let text: Vec<&str> = body.into_iter().map(|w| WORDS[w]).collect();
        format!("<{}>{}</{}>", WORDS[tag], text.join(" "), WORDS[tag])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn segments_match_the_btree_reference(
        tree in random_tree(),
        frags in proptest::collection::vec(fragment(), 0..6),
        threshold in prop::sample::select(&[1u64, 2, 8, u64::MAX][..]),
        compact in any::<bool>(),
    ) {
        if std::env::var("XK_DIFF_DEBUG").is_ok() {
            eprintln!("=== case: threshold={threshold} compact={compact} frags={frags:?}");
            eprintln!("tree: {}", xk_xmltree::to_xml_string(&tree, NodeId::ROOT));
        }
        let opts = EnvOptions { page_size: 256, pool_pages: 128 };
        let sg = Engine::build_in_memory_segmented(&tree, opts.clone()).unwrap();
        sg.set_seal_threshold(threshold);

        let mut grown = tree;
        for f in &frags {
            let got = sg.append_subtree(&Dewey::root(), f).unwrap();
            let new_root =
                graft(&mut grown, NodeId::ROOT, &xk_xmltree::parse(f).unwrap(), NodeId::ROOT);
            prop_assert_eq!(&got.root, &grown.dewey(new_root), "append landed at another id");
            let mut touched: Vec<String> = Vec::new();
            for n in grown.preorder_from(new_root) {
                for tok in xk_index::node_tokens(&grown, n) {
                    if !touched.contains(&tok) {
                        touched.push(tok);
                    }
                }
            }
            prop_assert_eq!(&got.touched, &touched, "append touched other keywords");
        }
        if compact {
            while sg.compact_segments().unwrap().is_some() {}
        }
        let bt = Engine::build_in_memory(&grown, opts).unwrap();

        for kw in WORDS {
            // StreamList: the full drained posting sequence.
            let a = bt.posting_dump(kw).unwrap();
            let b = sg.posting_dump(kw).unwrap();
            prop_assert_eq!(&a, &b, "stream dump diverged for {:?}", kw);

            // RankedList: rm/lm pairs probed at the root, at every
            // posting, and just past every posting (first child), which
            // lands between neighbors and exercises block boundaries.
            // Probes deeper than the (exact-fit) level table are
            // unencodable on the B+tree side (a real algorithm only
            // probes with ids of actual nodes), so the child probe stays
            // within the cap.
            let depth_cap = bt.index().level_table().depth();
            let Some(list) = a else { continue };
            let mut probes = vec![Dewey::root()];
            for d in &list {
                probes.push(d.clone());
                if d.depth() < depth_cap {
                    probes.push(d.child(0));
                }
            }
            for at in &probes {
                let pa = bt.posting_probe(kw, at).unwrap();
                let pb = sg.posting_probe(kw, at).unwrap();
                prop_assert_eq!(&pa, &pb, "probe diverged for {:?} at {}", kw, at);
            }
        }

        // All four algorithms agree on a representative query mix.
        for q in [
            &["apple"][..],
            &["apple", "pear"][..],
            &["fig", "kiwi", "plum"][..],
            &["date", "apple", "pear", "fig"][..],
        ] {
            for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
                let oa = bt.query(q, algo).unwrap();
                let ob = sg.query(q, algo).unwrap();
                prop_assert_eq!(&oa.slcas, &ob.slcas, "query {:?} algo {}", q, algo);
                prop_assert_eq!(&oa.stats, &ob.stats, "operation counts {:?} algo {}", q, algo);
            }
            let la = bt.query_all_lcas(q).unwrap();
            let lb = sg.query_all_lcas(q).unwrap();
            prop_assert_eq!(&la.lcas, &lb.lcas, "all-LCAs {:?}", q);
        }

        // The sealed store the comparison ran against is internally sound.
        let report = sg.verify_segments().unwrap().unwrap();
        prop_assert!(report.clean(), "verify issues: {:?}", report.issues);
    }
}

/// The footprint bound of the segment layout, on a corpus large enough
/// for it to be a property of the encoding rather than of per-blob fixed
/// overhead (the random trees above have at most 50 nodes, where a
/// blob's header, dictionary and trailer blocks dominate). Both engines
/// embed the document, so the difference between their page counts is
/// exactly the posting B+trees; the segment side's counterpart is its
/// blob blocks. Segments must pack the same postings into at most half
/// the bytes.
#[test]
fn segments_use_at_most_half_the_btree_bytes_per_posting() {
    let spec = DblpSpec {
        papers: 600,
        planted: vec![
            Planted { keyword: "s1a".into(), frequency: 20 },
            Planted { keyword: "s2".into(), frequency: 500 },
        ],
        ..DblpSpec::default()
    };
    let tree = generate(&spec);
    let opts = EnvOptions { page_size: 4096, pool_pages: 4096 };
    let bt = Engine::build_in_memory(&tree, opts.clone()).unwrap();
    let sg = Engine::build_in_memory_segmented(&tree, opts).unwrap();

    // The skewed pair that drives IL's probe loop: same answer, same
    // number of `lm`/`rm` lookups, whichever layout serves them.
    let a = bt.query(&["s1a", "s2"], Algorithm::IndexedLookupEager).unwrap();
    let b = sg.query(&["s1a", "s2"], Algorithm::IndexedLookupEager).unwrap();
    assert!(!a.slcas.is_empty());
    assert_eq!(a.slcas, b.slcas, "layouts disagreed on the SLCA set");
    assert_eq!(a.stats.match_lookups, b.stats.match_lookups, "layouts disagreed on probe count");

    let pages = |e: &Engine| e.with_env(|env| u64::from(env.page_count()));
    let metas = sg.segment_metas();
    let postings: u64 = metas.iter().map(|m| m.postings).sum();
    let blob_blocks: u64 = metas.iter().map(|m| u64::from(m.blocks)).sum();
    let btree_pages = pages(&bt) - pages(&sg);
    assert!(postings > 0 && blob_blocks > 0, "segment build left no postings");
    assert!(
        blob_blocks * 2 <= btree_pages,
        "segments must use at most half the bytes per posting: {blob_blocks} blob blocks vs \
         {btree_pages} B+tree pages for {postings} postings"
    );
}
