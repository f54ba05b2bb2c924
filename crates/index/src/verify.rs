//! Offline integrity verification of a built disk index — the engine
//! behind `xksearch verify`.
//!
//! [`verify_index`] walks every structure the index owns and reports what
//! it finds instead of failing fast, so one pass gives the operator the
//! full damage picture:
//!
//! 1. **checksum sweep** — every page is pulled through the buffer pool,
//!    which re-verifies its CRC-32 trailer on the miss path;
//! 2. **meta blob** — the level table and optional document handle decode;
//! 3. **vocabulary B+tree** — structural invariants, leaf-link symmetry,
//!    and a full scan decoding every `KeywordMeta`;
//! 4. **keyword list chains** — every chain walked end to end: page links,
//!    byte/record accounting against the handle, every packed Dewey
//!    decodes, document order is strictly ascending, and no page belongs
//!    to two chains;
//! 5. **IL B+tree** — invariants, leaf links, every composite key splits
//!    and decodes, and per-keyword entry counts match the vocabulary;
//! 6. **stored document** — the chain walks, the payload decodes back
//!    into a tree (the structural `XKDOC1` base with every fragment
//!    record grafted at its logged point), and the streamed rightmost
//!    path appends extend matches that tree's.

use crate::codec::decode_dewey;
use crate::diskindex::{decode_blob, split_il_key, KeywordMeta, SLOT_IL, SLOT_VOCAB};
use crate::document::{chain_bytes, decode_document, document_spine, Spine};
use std::collections::HashMap;
use xk_storage::{inspect_chain, BTree, ListHandle, ListReader, PageId, StorageEnv};

/// Cap on recorded issue lines: a corrupt file can produce thousands of
/// findings, and after the first few dozen they stop being informative.
const MAX_ISSUES: usize = 50;

/// What [`verify_index`] found.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Pages pulled through the checksum-verifying read path.
    pub pages_checked: u32,
    /// Distinct keywords in the vocabulary B+tree.
    pub keyword_count: usize,
    /// Entries in the composite-key (IL) B+tree.
    pub il_entries: u64,
    /// Pages claimed by keyword list chains and the stored document.
    pub list_pages: u64,
    /// Appended fragment records the stored document carries after its
    /// base.
    pub document_fragments: u64,
    /// Human-readable findings; empty means the index is healthy.
    pub issues: Vec<String>,
}

impl VerifyReport {
    /// True when no integrity issues were found.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    fn issue(&mut self, msg: String) {
        if self.issues.len() < MAX_ISSUES {
            self.issues.push(msg);
        } else if self.issues.len() == MAX_ISSUES {
            self.issues.push(format!("(more than {MAX_ISSUES} issues; rest suppressed)"));
        }
    }
}

/// Verifies every structure of the disk index stored in `env` and returns
/// a full report. Never panics on corrupt input; unreadable structures
/// are reported and skipped.
pub fn verify_index(env: &StorageEnv) -> VerifyReport {
    let mut report = VerifyReport::default();

    // 1. Checksum sweep. `with_page` verifies the CRC trailer whenever the
    // page is not already cached, so this surfaces silent on-disk damage
    // with a page id before any decoding happens.
    for pid in 0..env.page_count() {
        report.pages_checked += 1;
        if let Err(e) = env.with_page(PageId(pid), |_| ()) {
            report.issue(format!("page {pid}: {e}"));
        }
    }

    // 2. Meta blob: level table + optional embedded document handle.
    let blob = match env.user_blob() {
        Ok(b) => b,
        Err(e) => {
            report.issue(format!("meta blob unreadable: {e}"));
            return report;
        }
    };
    let (table, doc_handle, _extension) = match decode_blob(&blob) {
        Ok(parts) => parts,
        Err(e) => {
            report.issue(format!("meta blob: {e}"));
            return report;
        }
    };

    // Pages already claimed by some chain, to catch cross-linked lists.
    let mut claimed: HashMap<PageId, String> = HashMap::new();
    // kwid -> (keyword, count) from the vocabulary, for the IL cross-check.
    let mut vocab_counts: HashMap<u32, (String, u64)> = HashMap::new();

    // 3 + 4. Vocabulary tree and the keyword list chains it points at.
    match BTree::open(env, SLOT_VOCAB) {
        Ok(vocab) => {
            if let Err(e) = vocab.check_invariants(env) {
                report.issue(format!("vocabulary B+tree: {e}"));
            }
            if let Err(e) = vocab.verify_leaf_links(env) {
                report.issue(format!("vocabulary B+tree: {e}"));
            }
            scan_vocabulary(env, &vocab, &table, &mut claimed, &mut vocab_counts, &mut report);
        }
        Err(e) => report.issue(format!("vocabulary B+tree unreadable: {e}")),
    }
    report.keyword_count = vocab_counts.len();

    // 5. IL tree: every composite key decodes, per-keyword counts match.
    match BTree::open(env, SLOT_IL) {
        Ok(il) => {
            if let Err(e) = il.check_invariants(env) {
                report.issue(format!("IL B+tree: {e}"));
            }
            if let Err(e) = il.verify_leaf_links(env) {
                report.issue(format!("IL B+tree: {e}"));
            }
            scan_il(env, &il, &table, &vocab_counts, &mut report);
        }
        Err(e) => report.issue(format!("IL B+tree unreadable: {e}")),
    }

    // 6. Stored document, if any.
    if let Some(handle) = doc_handle {
        verify_document(env, &handle, &mut claimed, &mut report);
    }
    report.list_pages = claimed.len() as u64;

    report
}

/// Walks the vocabulary scan: decodes every entry and fully verifies the
/// keyword's sequential list chain.
fn scan_vocabulary(
    env: &StorageEnv,
    vocab: &BTree,
    table: &crate::leveltable::LevelTable,
    claimed: &mut HashMap<PageId, String>,
    vocab_counts: &mut HashMap<u32, (String, u64)>,
    report: &mut VerifyReport,
) {
    let mut cursor = match vocab.cursor_first(env) {
        Ok(c) => c,
        Err(e) => {
            report.issue(format!("vocabulary scan failed to start: {e}"));
            return;
        }
    };
    loop {
        let entry = match cursor.read(env) {
            Ok(e) => e,
            Err(e) => {
                report.issue(format!("vocabulary scan aborted: {e}"));
                return;
            }
        };
        let Some((key, value)) = entry else { break };
        let word = match String::from_utf8(key) {
            Ok(w) => w,
            Err(e) => {
                report.issue(format!("vocabulary key is not UTF-8: {e}"));
                String::from("<non-utf8>")
            }
        };
        match KeywordMeta::decode(&value) {
            Ok(meta) => {
                if let Some((other, _)) =
                    vocab_counts.insert(meta.kwid, (word.clone(), meta.count))
                {
                    report.issue(format!(
                        "keyword id {} assigned to both {other:?} and {word:?}",
                        meta.kwid
                    ));
                }
                verify_keyword_chain(env, &word, &meta, table, claimed, report);
            }
            Err(e) => report.issue(format!("vocabulary entry for {word:?}: {e}")),
        }
        if let Err(e) = cursor.advance(env) {
            report.issue(format!("vocabulary scan aborted: {e}"));
            return;
        }
    }
}

/// Fully verifies one keyword's sequential list chain: structure, page
/// ownership, record decode, and document order.
fn verify_keyword_chain(
    env: &StorageEnv,
    word: &str,
    meta: &KeywordMeta,
    table: &crate::leveltable::LevelTable,
    claimed: &mut HashMap<PageId, String>,
    report: &mut VerifyReport,
) {
    if meta.count != meta.handle.entry_count {
        report.issue(format!(
            "keyword {word:?}: frequency {} disagrees with list entry count {}",
            meta.count, meta.handle.entry_count
        ));
    }
    match inspect_chain(env, &meta.handle) {
        Ok(info) => {
            for page in &info.pages {
                if let Some(other) = claimed.insert(*page, word.to_string()) {
                    report.issue(format!(
                        "page {} belongs to both the {other:?} and {word:?} chains",
                        page.0
                    ));
                }
            }
        }
        Err(e) => {
            report.issue(format!("keyword {word:?} list chain: {e}"));
            return; // no point decoding records off a broken chain
        }
    }
    let mut reader = ListReader::new(&meta.handle);
    let mut previous = None;
    let mut records = 0u64;
    loop {
        match reader.next_record(env) {
            Ok(Some(bytes)) => {
                records += 1;
                match decode_dewey(&bytes, table) {
                    Ok(dewey) => {
                        if previous.as_ref().is_some_and(|p| *p >= dewey) {
                            report.issue(format!(
                                "keyword {word:?}: list out of document order at entry {records}"
                            ));
                        }
                        previous = Some(dewey);
                    }
                    Err(e) => report
                        .issue(format!("keyword {word:?} entry {records} does not decode: {e}")),
                }
            }
            Ok(None) => break,
            Err(e) => {
                report.issue(format!("keyword {word:?} list read failed: {e}"));
                break;
            }
        }
    }
    if records != meta.count {
        report.issue(format!(
            "keyword {word:?}: walked {records} entries, vocabulary claims {}",
            meta.count
        ));
    }
}

/// Walks the IL tree: splits every composite key, decodes every packed
/// Dewey, and reconciles per-keyword counts against the vocabulary.
fn scan_il(
    env: &StorageEnv,
    il: &BTree,
    table: &crate::leveltable::LevelTable,
    vocab_counts: &HashMap<u32, (String, u64)>,
    report: &mut VerifyReport,
) {
    let mut il_counts: HashMap<u32, u64> = HashMap::new();
    let mut cursor = match il.cursor_first(env) {
        Ok(c) => c,
        Err(e) => {
            report.issue(format!("IL scan failed to start: {e}"));
            return;
        }
    };
    loop {
        let entry = match cursor.read(env) {
            Ok(e) => e,
            Err(e) => {
                report.issue(format!("IL scan aborted: {e}"));
                return;
            }
        };
        let Some((key, _)) = entry else { break };
        report.il_entries += 1;
        match split_il_key(&key) {
            Ok((kwid, packed)) => {
                *il_counts.entry(kwid).or_insert(0) += 1;
                if let Err(e) = decode_dewey(packed, table) {
                    report.issue(format!("IL entry for keyword id {kwid}: {e}"));
                }
            }
            Err(e) => report.issue(format!("IL key: {e}")),
        }
        if let Err(e) = cursor.advance(env) {
            report.issue(format!("IL scan aborted: {e}"));
            return;
        }
    }
    for (kwid, (word, count)) in vocab_counts {
        let got = il_counts.remove(kwid).unwrap_or(0);
        if got != *count {
            report.issue(format!(
                "keyword {word:?}: IL tree holds {got} entries, vocabulary claims {count}"
            ));
        }
    }
    for (kwid, got) in il_counts {
        report.issue(format!("IL tree holds {got} entries for unknown keyword id {kwid}"));
    }
}

/// Verifies the embedded document chain: structure, page ownership, and
/// that the concatenated bytes decode back into a tree.
fn verify_document(
    env: &StorageEnv,
    handle: &ListHandle,
    claimed: &mut HashMap<PageId, String>,
    report: &mut VerifyReport,
) {
    match inspect_chain(env, handle) {
        Ok(info) => {
            for page in &info.pages {
                if let Some(other) = claimed.insert(*page, "<document>".to_string()) {
                    report.issue(format!(
                        "page {} belongs to both the {other:?} chain and the document",
                        page.0
                    ));
                }
            }
        }
        Err(e) => {
            report.issue(format!("stored document chain: {e}"));
            return;
        }
    }
    let bytes = match chain_bytes(env, handle) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.issue(format!("stored document read failed: {e}"));
            return;
        }
    };
    let tree = match decode_document(&bytes) {
        Ok((tree, fragments)) => {
            report.document_fragments = fragments;
            tree
        }
        Err(e) => {
            report.issue(format!("stored document does not decode: {e}"));
            return;
        }
    };
    // The append path never decodes the tree: it streams the chain to
    // the rightmost path. Both readers must see the same document.
    match document_spine(env, handle) {
        Ok(spine) if spine == Spine::of(&tree) => {}
        Ok(_) => {
            report.issue("stored document: streamed rightmost path differs from the tree".into())
        }
        Err(e) => report.issue(format!("stored document does not stream: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskindex::{build_disk_index, BuildOptions};
    use xk_storage::EnvOptions;
    use xk_xmltree::school_example;

    fn built_env(store_document: bool) -> StorageEnv {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
        let options = BuildOptions { store_document, ..Default::default() };
        build_disk_index(&env, &school_example(), &options).unwrap();
        env
    }

    #[test]
    fn healthy_index_verifies_clean() {
        for store_document in [true, false] {
            let env = built_env(store_document);
            let report = verify_index(&env);
            assert!(report.is_ok(), "issues: {:?}", report.issues);
            assert_eq!(report.pages_checked, env.page_count());
            assert!(report.keyword_count > 10);
            assert!(report.il_entries > 0);
            assert!(report.list_pages > 0);
        }
    }

    #[test]
    fn lying_vocabulary_count_is_reported() {
        let env = built_env(false);
        // Rebuild the vocabulary with one entry's frequency inflated but
        // its original (honest) list handle.
        let vocab = BTree::open(&env, SLOT_VOCAB).unwrap();
        let mut entries = Vec::new();
        let mut c = vocab.cursor_first(&env).unwrap();
        while let Some((key, mut value)) = c.read(&env).unwrap() {
            if key == b"john" {
                let mut meta = KeywordMeta::decode(&value).unwrap();
                meta.count += 7;
                value = meta.encode().to_vec();
            }
            entries.push((key, value));
            c.advance(&env).unwrap();
        }
        BTree::bulk_load(&env, SLOT_VOCAB, entries).unwrap();

        let report = verify_index(&env);
        assert!(!report.is_ok());
        assert!(
            report.issues.iter().any(|i| i.contains("john") && i.contains("disagrees")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn corrupt_list_chain_is_reported() {
        let env = built_env(false);
        let vocab = BTree::open(&env, SLOT_VOCAB).unwrap();
        let value = vocab.get(&env, b"john").unwrap().unwrap();
        let meta = KeywordMeta::decode(&value).unwrap();
        // Scribble over the chain's head page: framing and links die.
        env.with_page_mut(meta.handle.head, |p| p.fill(0xFF)).unwrap();

        let report = verify_index(&env);
        assert!(!report.is_ok());
        assert!(
            report.issues.iter().any(|i| i.contains("john")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn issue_flood_is_capped() {
        let mut report = VerifyReport::default();
        for i in 0..500 {
            report.issue(format!("issue {i}"));
        }
        assert_eq!(report.issues.len(), MAX_ISSUES + 1);
        assert!(report.issues.last().unwrap().contains("suppressed"));
    }
}
