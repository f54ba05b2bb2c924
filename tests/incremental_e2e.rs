//! End-to-end test of incremental ingestion: a corpus grown through
//! `Engine::append_subtree` must answer every query exactly like an
//! index rebuilt from scratch over the grown document — for all three
//! algorithms, and after reopening the index file.

use xk_index::MemIndex;
use xk_slca::brute_force_slca;
use xk_storage::EnvOptions;
use xksearch::{Algorithm, Engine};
use xk_xmltree::{Dewey, XmlTree};

fn opts() -> EnvOptions {
    EnvOptions { page_size: 512, pool_pages: 128 }
}

fn oracle(tree: &XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let mut lists = Vec::new();
    for k in keywords {
        match idx.keyword_list(k) {
            Some(l) => lists.push(l.to_vec()),
            None => return Vec::new(),
        }
    }
    brute_force_slca(&lists)
}

/// A small seed bibliography plus the same fragments applied to a plain
/// tree (the reference) and through the engine (the system under test).
fn grow() -> (Engine, XmlTree) {
    let seed = "<dblp><proceedings><title>seed volume</title>\
                <inproceedings><title>alpha beta</title><author>ann</author></inproceedings>\
                </proceedings></dblp>";
    let mut reference = xk_xmltree::parse(seed).unwrap();
    let engine = Engine::build_in_memory_segmented(&reference, opts()).unwrap();

    let fragments = [
        "<proceedings><title>volume two</title>\
         <inproceedings><title>beta gamma</title><author>bob</author></inproceedings>\
         <inproceedings><title>alpha gamma</title><author>ann</author></inproceedings>\
         </proceedings>",
        "<proceedings><title>volume three</title>\
         <inproceedings><title>alpha beta gamma</title><author>cid</author></inproceedings>\
         </proceedings>",
    ];
    for f in fragments {
        // Engine path.
        engine.append_subtree(&Dewey::root(), f).unwrap();
        // Reference path: parse and graft manually.
        let frag = xk_xmltree::parse(f).unwrap();
        graft(&mut reference, xk_xmltree::NodeId::ROOT, &frag, xk_xmltree::NodeId::ROOT);
    }
    (engine, reference)
}

fn graft(
    dst: &mut XmlTree,
    parent: xk_xmltree::NodeId,
    src: &XmlTree,
    node: xk_xmltree::NodeId,
) {
    use xk_xmltree::NodeContent;
    let new_id = match src.content(node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(parent, t.clone()),
    };
    for &c in src.children(node) {
        graft(dst, new_id, src, c);
    }
}

#[test]
fn grown_index_matches_scratch_oracle() {
    let (engine, reference) = grow();
    let queries: &[&[&str]] = &[
        &["alpha"],
        &["alpha", "beta"],
        &["alpha", "gamma"],
        &["beta", "gamma"],
        &["alpha", "beta", "gamma"],
        &["ann", "gamma"],
        &["volume", "alpha"],
        &["cid", "beta"],
        &["missingword", "alpha"],
    ];
    for q in queries {
        let expected = oracle(&reference, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine.query(q, algo).unwrap();
            assert_eq!(out.slcas, expected, "query {q:?} with {algo}");
        }
        // All-LCA agrees with its oracle too.
        let idx = MemIndex::build(&reference);
        let lists: Option<Vec<Vec<Dewey>>> =
            q.iter().map(|k| idx.keyword_list(k).map(|l| l.to_vec())).collect();
        let expected_all: Vec<Dewey> = lists
            .map(|l| xk_slca::brute_force_all_lcas(&l).into_iter().collect())
            .unwrap_or_default();
        let out = engine.query_all_lcas(q).unwrap();
        let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got, expected_all, "all-LCA for {q:?}");
    }
}

#[test]
fn grown_index_survives_reopen_and_keeps_growing() {
    let dir = std::env::temp_dir().join(format!("xk-grow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("grow.db");
    {
        let seed = "<log><entry>one alpha</entry></log>";
        let tree = xk_xmltree::parse(seed).unwrap();
        let engine = Engine::build_segmented(&tree, &db, opts(), true).unwrap();
        engine.append_subtree(&Dewey::root(), "<entry>two alpha</entry>").unwrap();
        engine.with_env(|e| e.flush()).unwrap();
    }
    {
        let engine = Engine::open(&db, opts()).unwrap();
        assert_eq!(engine.posting_dump("alpha").unwrap().map(|l| l.len()), Some(2));
        // Keep appending after reopen.
        engine.append_subtree(&Dewey::root(), "<entry>three alpha</entry>").unwrap();
        let out = engine.query(&["alpha"], Algorithm::Stack).unwrap();
        assert_eq!(out.slcas.len(), 3);
        assert!(engine.render_subtree(&out.slcas[2]).unwrap().contains("three"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn append_interacts_with_cold_cache() {
    let (engine, reference) = grow();
    engine.clear_cache().unwrap();
    let blocks_before = engine.segment_block_reads();
    let out = engine.query(&["alpha", "gamma"], Algorithm::IndexedLookupEager).unwrap();
    assert_eq!(out.slcas, oracle(&reference, &["alpha", "gamma"]));
    // The seed's postings sit in the sealed blob, the appended ones in
    // the mem segment: the probes must have gone to both.
    assert!(engine.segment_block_reads() > blocks_before);
}
