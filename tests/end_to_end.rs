//! Cross-crate integration tests: XML text → parse → disk index → query
//! engine, checked against the in-memory index and the brute-force
//! oracle.

use xk_index::MemIndex;
use xk_slca::brute_force_slca;
use xk_storage::EnvOptions;
use xk_workload::{generate, DblpSpec, Planted};
use xksearch::{Algorithm, Engine};
use xk_xmltree::Dewey;

fn opts() -> EnvOptions {
    EnvOptions { page_size: 512, pool_pages: 128 }
}

/// Oracle: SLCA per the brute-force definition over the MemIndex lists.
fn oracle(tree: &xk_xmltree::XmlTree, keywords: &[&str]) -> Vec<Dewey> {
    let idx = MemIndex::build(tree);
    let mut lists = Vec::new();
    for k in keywords {
        match idx.keyword_list(&k.to_lowercase()) {
            Some(l) => lists.push(l.to_vec()),
            None => return Vec::new(),
        }
    }
    brute_force_slca(&lists)
}

#[test]
fn school_example_matches_paper_figure_1() {
    let tree = xk_xmltree::school_example();
    let engine = Engine::build_in_memory(&tree, opts()).unwrap();
    for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
        let out = engine.query(&["John", "Ben"], algo).unwrap();
        let ids: Vec<String> = out.slcas.iter().map(|d| d.to_string()).collect();
        assert_eq!(ids, ["0", "1", "2"], "algorithm {algo}");
    }
}

#[test]
fn engine_agrees_with_oracle_on_synthetic_dblp() {
    let spec = DblpSpec {
        papers: 300,
        planted: vec![
            Planted { keyword: "alpha".into(), frequency: 5 },
            Planted { keyword: "beta".into(), frequency: 60 },
            Planted { keyword: "gamma".into(), frequency: 150 },
        ],
        ..DblpSpec::small()
    };
    let tree = generate(&spec);
    let engine = Engine::build_in_memory(&tree, opts()).unwrap();

    let queries: Vec<Vec<&str>> = vec![
        vec!["alpha", "beta"],
        vec!["alpha", "gamma"],
        vec!["beta", "gamma"],
        vec!["alpha", "beta", "gamma"],
        vec!["alpha"],
        vec!["w0000", "alpha"],       // background + planted
        vec!["venue0", "alpha"],      // structural + planted
        vec!["inproceedings", "beta"], // tag keyword
    ];
    for q in &queries {
        let expected = oracle(&tree, q);
        for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
            let out = engine.query(q, algo).unwrap();
            assert_eq!(out.slcas, expected, "query {q:?} with {algo}");
        }
    }
}

#[test]
fn all_lca_on_disk_engine_matches_memory_oracle() {
    let spec = DblpSpec {
        papers: 200,
        planted: vec![
            Planted { keyword: "alpha".into(), frequency: 8 },
            Planted { keyword: "beta".into(), frequency: 40 },
        ],
        ..DblpSpec::small()
    };
    let tree = generate(&spec);
    let engine = Engine::build_in_memory(&tree, opts()).unwrap();
    let idx = MemIndex::build(&tree);
    let lists = vec![
        idx.keyword_list("alpha").unwrap().to_vec(),
        idx.keyword_list("beta").unwrap().to_vec(),
    ];
    let expected: Vec<Dewey> =
        xk_slca::brute_force_all_lcas(&lists).into_iter().collect();

    let out = engine.query_all_lcas(&["alpha", "beta"]).unwrap();
    let got: Vec<Dewey> = out.lcas.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(got, expected);
}

#[test]
fn cold_and_hot_cache_agree_and_differ_in_io() {
    let spec = DblpSpec {
        papers: 2_000,
        planted: vec![
            Planted { keyword: "rare".into(), frequency: 4 },
            Planted { keyword: "common".into(), frequency: 900 },
        ],
        ..DblpSpec::small()
    };
    let tree = generate(&spec);
    let dir = std::env::temp_dir().join(format!("xk-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("e2e.db");
    let engine = Engine::build(&tree, &db, opts(), false).unwrap();

    for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
        engine.clear_cache().unwrap();
        let cold = engine.query(&["rare", "common"], algo).unwrap();
        let hot = engine.query(&["rare", "common"], algo).unwrap();
        assert_eq!(cold.slcas, hot.slcas, "{algo}");
        assert!(cold.io.disk_reads > 0, "{algo} cold run must hit disk");
        assert_eq!(hot.io.disk_reads, 0, "{algo} hot run must not hit disk");
        assert_eq!(cold.slcas, oracle(&tree, &["rare", "common"]), "{algo}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lookup_algorithms_read_fewer_blocks_than_stack_on_skewed_lists() {
    // The core claim of Table 1, in block terms: a lookup algorithm's
    // disk accesses follow |S1| log |S2| while a scanner's follow
    // Σ|Si| / B. IL is the lookup side of the gap; Scan Eager and Stack
    // are the scanners — Scan's cursors read each list front to back,
    // stopping at the last witness's match instead of the list's end.
    let spec = DblpSpec {
        papers: 20_000,
        planted: vec![
            Planted { keyword: "rare".into(), frequency: 3 },
            Planted { keyword: "common".into(), frequency: 18_000 },
        ],
        ..DblpSpec::default()
    };
    let tree = generate(&spec);
    let engine = Engine::build_in_memory(&tree, EnvOptions { page_size: 512, pool_pages: 4096 })
        .unwrap();

    engine.clear_cache().unwrap();
    let il = engine.query(&["rare", "common"], Algorithm::IndexedLookupEager).unwrap();
    engine.clear_cache().unwrap();
    let scan = engine.query(&["rare", "common"], Algorithm::ScanEager).unwrap();
    engine.clear_cache().unwrap();
    let stack = engine.query(&["rare", "common"], Algorithm::Stack).unwrap();
    assert_eq!(il.slcas, scan.slcas);
    assert_eq!(il.slcas, stack.slcas);
    for (name, out) in [("Scan", &scan), ("Stack", &stack)] {
        assert!(
            il.io.disk_reads * 3 < out.io.disk_reads,
            "IL should read far fewer blocks than {name}: IL={} {name}={}",
            il.io.disk_reads,
            out.io.disk_reads
        );
    }
    // Scan reads a prefix of what Stack reads, with no indexed lookup.
    assert!(
        scan.io.disk_reads <= stack.io.disk_reads,
        "Scan={} Stack={}",
        scan.io.disk_reads,
        stack.io.disk_reads
    );
    assert_eq!(scan.stats.match_lookups, 0);
}

#[test]
fn queries_with_structural_keywords_and_depth() {
    // Keywords that hit element tags exercise shallow, huge lists.
    let tree = generate(&DblpSpec { papers: 400, ..DblpSpec::small() });
    let engine = Engine::build_in_memory(&tree, opts()).unwrap();
    let expected = oracle(&tree, &["title", "author"]);
    // Every paper has a title and authors: the SLCAs are the papers.
    assert_eq!(expected.len(), 400);
    let out = engine.query(&["title", "author"], Algorithm::ScanEager).unwrap();
    assert_eq!(out.slcas, expected);
}

#[test]
fn round_trip_through_xml_file_and_cli_style_build() {
    let tree = generate(&DblpSpec { papers: 150, ..DblpSpec::small() });
    let dir = std::env::temp_dir().join(format!("xk-e2e2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml_path = dir.join("doc.xml");
    std::fs::write(&xml_path, tree.to_string()).unwrap();

    // Re-parse from disk like the CLI does.
    let text = std::fs::read_to_string(&xml_path).unwrap();
    let reparsed = xk_xmltree::parse(&text).unwrap();
    assert_eq!(reparsed.len(), tree.len());

    let db = dir.join("doc.db");
    let engine = Engine::build(&reparsed, &db, opts(), true).unwrap();
    let out = engine.query(&["w0000", "author"], Algorithm::Auto).unwrap();
    assert_eq!(out.slcas, oracle(&tree, &["w0000", "author"]));
    if let Some(first) = out.slcas.first() {
        assert!(engine.render_subtree(first).unwrap().contains("w0000"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
