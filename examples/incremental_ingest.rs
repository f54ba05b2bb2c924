//! Incremental ingestion: grow an indexed bibliography without
//! rebuilding the index.
//!
//! Bibliographies grow at the tail — new papers are appended, existing
//! entries never move. `Engine::append_subtree` exploits exactly that:
//! every new node's Dewey id follows every indexed id, so the new
//! postings are journaled into the segment store's in-memory segment
//! (sealed into a packed blob past a threshold) and each keyword's parts
//! stay in document order. Queries see the new content immediately, with
//! any of the three algorithms. The database must use the segment layout
//! (`Engine::build_segmented`, what `xksearch build` writes); the B+tree
//! layout of `Engine::build` is a read-only reference.
//!
//! Run with: `cargo run --example incremental_ingest`

use xk_storage::EnvOptions;
use xk_xmltree::Dewey;
use xksearch::{Algorithm, Engine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Day 0: index a small seed bibliography.
    let seed = r#"
      <dblp>
        <proceedings>
          <title>SIGMOD 2005</title>
          <inproceedings>
            <title>Efficient Keyword Search for Smallest LCAs</title>
            <author>Xu</author><author>Papakonstantinou</author>
          </inproceedings>
        </proceedings>
      </dblp>"#;
    let tree = xk_xmltree::parse(seed)?;
    let db = std::env::temp_dir().join("xksearch-ingest-example.db");
    let engine = Engine::build_segmented(&tree, &db, EnvOptions::default(), true)?;
    println!(
        "day 0: indexed {} keywords, 'keyword'+'search' has {} answers",
        engine.vocabulary().len(),
        engine.query(&["keyword", "search"], Algorithm::Auto)?.slcas.len()
    );

    // Day 1: a new proceedings volume arrives — append it at the root.
    let volume = r#"
      <proceedings>
        <title>VLDB 2006</title>
        <inproceedings>
          <title>Multiway SLCA Keyword Search</title>
          <author>Sun</author><author>Chan</author>
        </inproceedings>
        <inproceedings>
          <title>Search on Probabilistic XML</title>
          <author>Kimelfeld</author>
        </inproceedings>
      </proceedings>"#;
    let at = engine.append_subtree(&Dewey::root(), volume)?.root;
    println!("day 1: appended a volume at Dewey {at}");

    // Day 2: one more paper inside the newest volume (still the tail).
    let paper = r#"
      <inproceedings>
        <title>Incremental Keyword Search Indexes</title>
        <author>Sun</author>
      </inproceedings>"#;
    let at = engine.append_subtree(&at, paper)?.root;
    println!("day 2: appended a paper at Dewey {at}");

    // Every algorithm sees the grown corpus.
    for algo in [Algorithm::IndexedLookupEager, Algorithm::ScanEager, Algorithm::Stack] {
        let out = engine.query(&["keyword", "search"], algo)?;
        println!("{algo:<22} finds {} answers for 'keyword search'", out.slcas.len());
        assert_eq!(out.slcas.len(), 3);
    }

    // The author 'Sun' now appears in two papers of the appended volume.
    let out = engine.query(&["sun", "search"], Algorithm::Auto)?;
    println!("\n'sun search' answers:");
    for slca in &out.slcas {
        println!("--- at {slca}:\n{}", engine.render_subtree(slca)?);
    }

    std::fs::remove_file(&db).ok();
    std::fs::remove_dir_all(xksearch::default_segments_dir(&db)).ok();
    Ok(())
}
