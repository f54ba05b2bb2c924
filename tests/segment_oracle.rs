//! Brute-force oracle over a **multi-segment** store: a deterministic
//! document plus an append history sealed into many XKSEG2 blobs (seal
//! threshold 1 → one blob per append) must answer every algorithm —
//! Indexed Lookup Eager, Scan Eager, Stack, Auto, and the all-LCAs
//! extension — exactly like `brute_force_slca`/`brute_force_all_lcas`
//! over a mirror of the document maintained with plain tree edits. The
//! whole table is then re-checked after the tiered merge has compacted
//! the sealed set down, pinning that merges rewrite bytes but never
//! answers.

use xk_index::{LevelTable, MemIndex};
use xk_slca::{brute_force_all_lcas, brute_force_slca, MemList, RankedList};
use xk_storage::EnvOptions;
use xk_xmltree::{Dewey, NodeContent, NodeId, XmlTree};
use xksearch::{Algorithm, Engine};

static WORDS: [&str; 6] = ["apple", "pear", "fig", "kiwi", "plum", "date"];

/// Deterministic base document: shelves of books over a tiny vocabulary,
/// so every query keyword occurs in many subtrees at several depths.
fn base_tree() -> XmlTree {
    let mut t = XmlTree::new("library");
    for i in 0..12 {
        let shelf = t.append_element(NodeId::ROOT, "shelf");
        for j in 0..4 {
            let book = t.append_element(shelf, "book");
            t.append_text(book, WORDS[(i + j) % WORDS.len()]);
            t.append_text(book, WORDS[(i * 2 + j + 1) % WORDS.len()]);
        }
    }
    t
}

/// The appended fragments, in order: two-book shelves rotating through
/// the vocabulary so appends extend existing posting lists.
fn fragments() -> Vec<String> {
    (0..10)
        .map(|i| {
            format!(
                "<shelf><book>{} {}</book><book>{}</book></shelf>",
                WORDS[i % 6],
                WORDS[(i + 2) % 6],
                WORDS[(i + 4) % 6]
            )
        })
        .collect()
}

/// Mirrors `Engine::append_subtree`'s graft with plain tree edits.
fn graft(dst: &mut XmlTree, parent: NodeId, src: &XmlTree, node: NodeId) {
    let id = match src.content(node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(text) => dst.append_text(parent, text.clone()),
    };
    for &c in src.children(node) {
        graft(dst, id, src, c);
    }
}

/// Every algorithm (and the all-LCAs pass) vs the brute-force oracle
/// over the mirror document.
fn assert_matches_oracle(engine: &Engine, mirror: &XmlTree, ctx: &str) {
    let idx = MemIndex::build(mirror);
    let queries: &[&[&str]] = &[
        &["apple"],
        &["book"],
        &["apple", "pear"],
        &["fig", "kiwi"],
        &["shelf", "plum"],
        &["fig", "kiwi", "plum"],
        &["date", "apple", "pear", "fig"],
        &["apple", "nosuchtoken"],
    ];
    for q in queries {
        let mut lists = Vec::new();
        let mut missing = false;
        for k in *q {
            match idx.keyword_list(k) {
                Some(l) => lists.push(l.to_vec()),
                None => {
                    missing = true;
                    break;
                }
            }
        }
        let expected = if missing { Vec::new() } else { brute_force_slca(&lists) };
        for algo in [
            Algorithm::IndexedLookupEager,
            Algorithm::ScanEager,
            Algorithm::Stack,
            Algorithm::Auto,
        ] {
            let out = engine.query(q, algo).unwrap();
            assert_eq!(out.slcas, expected, "{ctx}: query {q:?} with {algo}");
        }
        let expected_lcas: Vec<Dewey> = if missing {
            Vec::new()
        } else {
            brute_force_all_lcas(&lists).into_iter().collect()
        };
        let out = engine.query_all_lcas(q).unwrap();
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_lcas, "{ctx}: all-LCAs for {q:?}");
    }
}

/// Every keyword's `rm`/`lm` through the engine, at every posting, at
/// its first child and next sibling, and past the last root child, vs a
/// `MemList` over the mirror.
fn assert_probes_match(engine: &Engine, mirror: &XmlTree, ctx: &str) {
    let idx = MemIndex::build(mirror);
    let past = Dewey::root().child(mirror.children(NodeId::ROOT).len() as u32 + 40);
    for kw in WORDS.iter().chain(&["shelf", "book"]) {
        let nodes = idx.keyword_list(kw).unwrap().to_vec();
        let mut mem = MemList::from_sorted(nodes.clone());
        let around =
            nodes.iter().flat_map(|n| [n.clone(), n.child(0)].into_iter().chain(n.uncle()));
        for p in around.chain([Dewey::root(), past.clone(), past.child(3)]) {
            let want = (mem.rm(&p), mem.lm(&p));
            assert_eq!(engine.posting_probe(kw, &p).unwrap(), Some(want), "{ctx}: {kw} at {p}");
        }
    }
}

#[test]
fn multi_segment_store_matches_brute_force_before_and_after_merge() {
    let tree = base_tree();
    let mut mirror = tree.clone();
    let engine = Engine::build_in_memory_segmented(
        &tree,
        EnvOptions { page_size: 512, pool_pages: 256 },
    )
    .unwrap();
    // Seal every append into its own blob so the store fans out wide.
    engine.set_seal_threshold(1);

    for f in fragments() {
        engine.append_subtree(&Dewey::root(), &f).unwrap();
        let frag = xk_xmltree::parse(&f).unwrap();
        graft(&mut mirror, NodeId::ROOT, &frag, NodeId::ROOT);
    }
    let sealed = engine.segment_metas().len();
    assert!(sealed >= 8, "expected a wide sealed set, got {sealed} segments");
    let root_width = LevelTable::build(&tree).width(0).unwrap();
    assert!(
        mirror.children(NodeId::ROOT).len() > 1 << root_width,
        "the appends must outgrow the build's {root_width}-bit root width"
    );
    assert_matches_oracle(&engine, &mirror, "sealed fan-out");
    assert_probes_match(&engine, &mirror, "sealed fan-out");

    // Fold the whole set through the tiered merge and re-check: the
    // compacted store must be byte-different but answer-identical.
    let mut merges = 0;
    while let Some(outcome) = engine.compact_segments().unwrap() {
        assert!(outcome.merged.len() >= 2, "a merge folds at least two segments");
        merges += 1;
    }
    assert!(merges > 0, "the tiered policy never merged a {sealed}-segment store");
    assert!(
        engine.segment_metas().len() < sealed,
        "compaction did not shrink the sealed set"
    );
    assert_matches_oracle(&engine, &mirror, "after compaction");
    assert_probes_match(&engine, &mirror, "after compaction");

    // Appends keep landing correctly on the compacted store.
    let tail = "<shelf><book>apple plum date</book></shelf>";
    engine.append_subtree(&Dewey::root(), tail).unwrap();
    let frag = xk_xmltree::parse(tail).unwrap();
    graft(&mut mirror, NodeId::ROOT, &frag, NodeId::ROOT);
    assert_matches_oracle(&engine, &mirror, "append after compaction");

    let report = engine.verify_segments().unwrap().unwrap();
    assert!(report.clean(), "segment verify issues: {:?}", report.issues);
}
