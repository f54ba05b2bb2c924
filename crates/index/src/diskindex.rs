//! The on-disk inverted index — the XKSearch storage architecture of
//! Section 4.
//!
//! One storage file holds everything:
//!
//! * the **level table** and an optional handle to the stored document
//!   (see [`crate::document`]), in the meta page's user blob;
//! * the **vocabulary B+tree** (root slot 0): keyword → `(keyword id,
//!   frequency, list handle)`. Loaded into an in-memory hash map at open
//!   time — the paper's *frequency table*, used to pick the smallest list
//!   as `S_1` and to locate lists;
//! * the **IL B+tree** (root slot 1): composite key `(keyword id, packed
//!   Dewey)` with empty values — "all keyword lists in a single B+tree
//!   where keywords are the primary key and Dewey numbers are the
//!   secondary key" (Figure 5). `rm`/`lm` are `seek_ge`/`seek_le` within
//!   the keyword's key range;
//! * the **sequential list chains**: one per keyword, packed Dewey records
//!   front to back — the layout the Scan Eager and Stack algorithms read
//!   (Figure 4).

use crate::codec::{append_probe, encode_dewey, CodecError};
use crate::document::write_document;
use crate::leveltable::LevelTable;
use crate::memindex::MemIndex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use xk_slca::{ErrorSlot, PostingCursor};
use xk_storage::{
    BTree, BTreeCursor, Cursor, ListHandle, ListReader, ListWriter, StorageEnv, StorageError,
};
use xk_xmltree::XmlTree;

/// Root slot of the vocabulary B+tree.
pub const SLOT_VOCAB: usize = 0;
/// Root slot of the composite-key (IL) B+tree.
pub const SLOT_IL: usize = 1;

/// Errors from building or reading a disk index.
#[derive(Debug)]
pub enum IndexError {
    Storage(StorageError),
    Codec(CodecError),
    Corrupt(String),
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage error: {e}"),
            IndexError::Codec(e) => write!(f, "codec error: {e}"),
            IndexError::Corrupt(m) => write!(f, "corrupt index: {m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<StorageError> for IndexError {
    fn from(e: StorageError) -> Self {
        IndexError::Storage(e)
    }
}

impl From<CodecError> for IndexError {
    fn from(e: CodecError) -> Self {
        IndexError::Codec(e)
    }
}

/// Convenience alias for index results.
pub type Result<T> = std::result::Result<T, IndexError>;

/// Vocabulary entry: everything the engine needs to open a keyword list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeywordMeta {
    /// Dense keyword id (assigned in sorted keyword order at build time).
    pub kwid: u32,
    /// Number of nodes containing the keyword — the paper's `|S|`.
    pub count: u64,
    /// The keyword's sequential list chain.
    pub handle: ListHandle,
}

const META_BYTES: usize = 12 + xk_storage::liststore::LIST_HANDLE_BYTES;

impl KeywordMeta {
    pub(crate) fn encode(&self) -> [u8; META_BYTES] {
        let mut out = [0u8; META_BYTES];
        out[..4].copy_from_slice(&self.kwid.to_le_bytes());
        out[4..12].copy_from_slice(&self.count.to_le_bytes());
        out[12..].copy_from_slice(&self.handle.encode());
        out
    }

    // xk-analyze: allow(panic_path, reason = "fixed-width slices of a length-checked META_BYTES buffer cannot fail try_into")
    pub(crate) fn decode(bytes: &[u8]) -> Result<KeywordMeta> {
        if bytes.len() != META_BYTES {
            return Err(IndexError::Corrupt(format!(
                "vocabulary entry must be {META_BYTES} bytes, got {}",
                bytes.len()
            )));
        }
        Ok(KeywordMeta {
            kwid: u32::from_le_bytes(bytes[..4].try_into().unwrap()),
            count: u64::from_le_bytes(bytes[4..12].try_into().unwrap()),
            handle: ListHandle::decode(&bytes[12..])?,
        })
    }
}

/// Composite key of the IL B+tree: big-endian keyword id, then the packed
/// Dewey — `memcmp` order is (keyword, document order).
fn il_key(kwid: u32, packed: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(4 + packed.len());
    k.extend_from_slice(&kwid.to_be_bytes());
    k.extend_from_slice(packed);
    k
}

/// Splits an IL key back into keyword id and packed Dewey.
// xk-analyze: allow(panic_path, reason = "the 4-byte slice is guarded by the key.len() < 4 check above it")
pub(crate) fn split_il_key(key: &[u8]) -> Result<(u32, &[u8])> {
    if key.len() < 4 {
        return Err(IndexError::Corrupt("IL key shorter than a keyword id".into()));
    }
    Ok((u32::from_be_bytes(key[..4].try_into().unwrap()), &key[4..]))
}

// ---- meta blob: level table + optional document handle + extension ----

fn encode_blob(table: &LevelTable, doc: Option<ListHandle>, extension: &[u8]) -> Vec<u8> {
    let lt = table.encode();
    let mut out = Vec::with_capacity(2 + lt.len() + 21 + extension.len());
    out.extend_from_slice(&(lt.len() as u16).to_le_bytes());
    out.extend_from_slice(&lt);
    match doc {
        Some(h) => {
            out.push(1);
            out.extend_from_slice(&h.encode());
        }
        None => out.push(0),
    }
    out.extend_from_slice(extension);
    out
}

/// Decodes the meta blob into level table, document handle, and the
/// opaque extension region. Everything past the document section belongs
/// to higher layers (today: the segment store's journal/manifest
/// handles); this crate round-trips it untouched.
// xk-analyze: allow(panic_path, reason = "every slice/index is range-checked against blob.len() before use; ext_start is bounded by the document-handle get() that precedes it")
pub(crate) fn decode_blob(blob: &[u8]) -> Result<(LevelTable, Option<ListHandle>, Vec<u8>)> {
    if blob.len() < 3 {
        return Err(IndexError::Corrupt("meta blob too short".into()));
    }
    let lt_len = u16::from_le_bytes(blob[..2].try_into().unwrap()) as usize;
    let lt_end = 2 + lt_len;
    if blob.len() < lt_end + 1 {
        return Err(IndexError::Corrupt("meta blob truncated".into()));
    }
    let table = LevelTable::decode(&blob[2..lt_end])
        .ok_or_else(|| IndexError::Corrupt("bad level table".into()))?;
    let (doc, ext_start) = match blob[lt_end] {
        0 => (None, lt_end + 1),
        1 => {
            // The handle bytes come from disk: a blob that passes the
            // earlier length checks can still end mid-handle, and slicing
            // past the end would panic on the open path.
            let handle = blob
                .get(lt_end + 1..lt_end + 1 + xk_storage::liststore::LIST_HANDLE_BYTES)
                .ok_or_else(|| {
                    IndexError::Corrupt("meta blob truncated inside document handle".into())
                })?;
            (
                Some(ListHandle::decode(handle)?),
                lt_end + 1 + xk_storage::liststore::LIST_HANDLE_BYTES,
            )
        }
        b => return Err(IndexError::Corrupt(format!("bad document flag {b}"))),
    };
    Ok((table, doc, blob[ext_start..].to_vec()))
}

/// Options for [`build_disk_index`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Embed the serialized document so answer subtrees can be rendered
    /// from the index file alone.
    pub store_document: bool,
    /// Write posting lists into the B+tree layouts (sequential chains +
    /// composite IL keys). `false` leaves both trees empty — the segment
    /// store becomes the sole posting layout and the index keeps only
    /// the level table and document.
    pub index_postings: bool,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { store_document: true, index_postings: true }
    }
}

/// Builds the complete disk index for `tree` inside `env`. Returns the
/// number of distinct keywords whose postings it indexed (0 with
/// [`BuildOptions::index_postings`] off). The posting layout it writes is
/// **read-only** after this call: packed Deweys use an exact-fit level
/// table, and nothing inserts into the posting trees again — growth goes
/// through the segment store (see `xksearch::Engine::append_subtree`).
pub fn build_disk_index(
    env: &StorageEnv,
    tree: &XmlTree,
    options: &BuildOptions,
) -> Result<usize> {
    let table = LevelTable::build(tree);
    // With `index_postings` off the document is not even tokenized here
    // and both layouts stay empty (the trees are still created so open
    // finds valid roots); the segment store owns the postings.
    let lists = if options.index_postings {
        MemIndex::build(tree).into_sorted_lists()
    } else {
        Vec::new()
    };

    // Phase 1: sequential list chains, collecting the vocabulary entries.
    let mut vocab_entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(lists.len());
    for (kwid, (keyword, nodes)) in lists.iter().enumerate() {
        let mut writer = ListWriter::new(env);
        for node in nodes {
            writer.append(env, &encode_dewey(node, &table)?)?;
        }
        let handle = writer.finish(env)?;
        let meta = KeywordMeta { kwid: kwid as u32, count: nodes.len() as u64, handle };
        vocab_entries.push((keyword.as_bytes().to_vec(), meta.encode().to_vec()));
    }

    // Phase 2: bulk-load both B+trees. Keywords are sorted, and within a
    // keyword the packed Deweys are in document order, so the composite
    // IL keys arrive in strictly ascending order.
    BTree::bulk_load(env, SLOT_VOCAB, vocab_entries)?;
    let mut il_keys: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
    for (kwid, (_, nodes)) in lists.iter().enumerate() {
        for node in nodes {
            il_keys.push((il_key(kwid as u32, &encode_dewey(node, &table)?), Vec::new()));
        }
    }
    BTree::bulk_load(env, SLOT_IL, il_keys)?;

    let doc_handle =
        if options.store_document { Some(write_document(env, tree)?) } else { None };

    env.set_user_blob(&encode_blob(&table, doc_handle, &[]))?;
    env.flush()?;
    Ok(lists.len())
}

/// A read handle over a built disk index: what [`build_disk_index`]
/// wrote, as [`DiskIndex::open`] found it, immutable. The two meta-blob
/// fields a growing database moves (document handle, extension bytes)
/// belong to whoever serializes their writers, who persists them
/// through [`DiskIndex::write_meta`].
pub struct DiskIndex {
    il: BTree,
    level_table: Arc<LevelTable>,
    /// The paper's in-memory frequency hash table, loaded at open time.
    freq: HashMap<String, KeywordMeta>,
    /// The stored document's chain, as of open.
    doc_handle: Option<ListHandle>,
    /// Opaque extension region after the document section of the meta
    /// blob, as of open — owned by higher layers (the segment store).
    extension: Vec<u8>,
}

impl DiskIndex {
    /// Opens the index stored in `env`, loading the frequency table.
    pub fn open(env: &StorageEnv) -> Result<DiskIndex> {
        let blob = env.user_blob()?;
        let (level_table, doc_handle, extension) = decode_blob(&blob)?;
        let vocab = BTree::open(env, SLOT_VOCAB)?;
        let il = BTree::open(env, SLOT_IL)?;
        let mut freq = HashMap::new();
        let mut c = vocab.cursor_first(env)?;
        while let Some((k, v)) = c.read(env)? {
            let meta = KeywordMeta::decode(&v)?;
            let word = String::from_utf8(k)
                .map_err(|_| IndexError::Corrupt("non-UTF-8 keyword".into()))?;
            freq.insert(word, meta);
            c.advance(env)?;
        }
        Ok(DiskIndex { il, level_table: Arc::new(level_table), freq, doc_handle, extension })
    }

    /// Frequency-table lookup (already-normalized keyword).
    pub fn lookup(&self, keyword: &str) -> Option<&KeywordMeta> {
        self.freq.get(keyword)
    }

    /// The frequency of `keyword` (0 when absent).
    pub fn frequency(&self, keyword: &str) -> u64 {
        self.freq.get(keyword).map_or(0, |m| m.count)
    }

    /// Number of distinct keywords.
    pub fn keyword_count(&self) -> usize {
        self.freq.len()
    }

    /// Iterates the vocabulary with frequencies.
    pub fn keywords(&self) -> impl Iterator<Item = (&str, u64)> {
        self.freq.iter().map(|(k, m)| (k.as_str(), m.count))
    }

    /// The document's level table.
    pub fn level_table(&self) -> &LevelTable {
        &self.level_table
    }

    /// The stored document's chain as of open (`None` when the index
    /// was built without one).
    pub fn document_handle(&self) -> Option<ListHandle> {
        self.doc_handle
    }

    /// A [`DiskCursor`] over a keyword's list, standing at its first
    /// posting; storage failures go to `slot`. `None` if the keyword does
    /// not occur.
    pub fn cursor(
        &self,
        env: &Arc<StorageEnv>,
        keyword: &str,
        slot: ErrorSlot<IndexError>,
    ) -> Option<DiskCursor> {
        let meta = self.freq.get(keyword)?;
        Some(DiskCursor {
            env: Arc::clone(env),
            slot,
            il: self.il,
            kwid: meta.kwid,
            count: meta.count,
            table: Arc::clone(&self.level_table),
            anchor: BTreeCursor::new(),
            at: At::Chain(ListReader::new(&meta.handle)),
            key: Vec::new(),
            probe: Vec::new(),
            cur: Held::default(),
            prev: Held { read: Some(false), comps: Vec::new() },
        })
    }

    /// The opaque extension region of the meta blob as of open (empty
    /// when unused).
    pub fn extension(&self) -> &[u8] {
        &self.extension
    }

    /// Rewrites the meta blob (one page): the level table as opened,
    /// plus the document handle and extension bytes their owner now
    /// holds.
    pub fn write_meta(
        &self,
        env: &StorageEnv,
        doc: Option<ListHandle>,
        extension: &[u8],
    ) -> Result<()> {
        env.set_user_blob(&encode_blob(&self.level_table, doc, extension))?;
        Ok(())
    }
}

/// A keyword's list on disk as a [`PostingCursor`]: it steps the
/// keyword's sequential chain (Figure 4) from the start, and seeks the
/// IL B+tree (Figure 5) through one anchored path, so near-sorted seeks
/// resolve inside the pinned leaf or a leaf-chain hop away. After a seek
/// it steps the tree's leaves.
///
/// A seek reads nothing until asked: `current` is one `seek_ge`, and
/// `before` one `seek_le` (plus one step back when the key itself is
/// posted), so Indexed Lookup Eager's match step costs a `seek_ge`, and
/// a `seek_le` only on a miss. I/O or codec failures fill the caller's
/// [`ErrorSlot`] and read as "nothing there"; callers check
/// [`ErrorSlot::take`] once the algorithm finishes.
pub struct DiskCursor {
    env: Arc<StorageEnv>,
    slot: ErrorSlot<IndexError>,
    il: BTree,
    kwid: u32,
    count: u64,
    table: Arc<LevelTable>,
    anchor: BTreeCursor,
    at: At,
    /// The last seek's key, and its IL B+tree probe.
    key: Vec<u32>,
    probe: Vec<u8>,
    cur: Held,
    prev: Held,
}

/// Where a [`DiskCursor`] stands.
enum At {
    /// In the keyword's chain; the reader stands past `cur`.
    Chain(ListReader),
    /// Seeked to `key`; nothing read yet.
    Seeked,
    /// In the IL B+tree, at `cur`.
    Tree(Cursor),
}

/// A posting read on demand, in a reused buffer: `read` is `None` until
/// it is read, then whether there was one.
#[derive(Default)]
struct Held {
    read: Option<bool>,
    comps: Vec<u32>,
}

impl Held {
    fn get(&self) -> Option<&[u32]> {
        (self.read == Some(true)).then_some(self.comps.as_slice())
    }
}

impl DiskCursor {
    /// Unpacks an IL B+tree entry of this keyword into `out`; `Ok(false)`
    /// past the keyword's key range or the tree's end.
    fn read_entry(&self, at: &Cursor, out: &mut Vec<u32>) -> Result<bool> {
        let Some((hit, _)) = at.read(&self.env)? else { return Ok(false) };
        let (kwid, packed) = split_il_key(&hit)?;
        if kwid != self.kwid {
            return Ok(false); // crossed into another keyword's range
        }
        unpack(packed, &self.table, out)?;
        Ok(true)
    }

    /// Reads `cur` where the cursor stands.
    fn read_current(&mut self) -> Result<bool> {
        let mut comps = std::mem::take(&mut self.cur.comps);
        let found = match &mut self.at {
            At::Chain(reader) => match reader.next_record(&self.env)? {
                Some(record) => unpack(&record, &self.table, &mut comps).map(|()| true),
                None => Ok(false),
            },
            At::Seeked => {
                let at = self.il.seek_ge_anchored(&self.env, &mut self.anchor, &self.probe)?;
                let found = self.read_entry(&at, &mut comps);
                self.at = At::Tree(at);
                found
            }
            At::Tree(at) => {
                let at = *at;
                self.read_entry(&at, &mut comps)
            }
        };
        self.cur.comps = comps;
        found
    }

    /// Reads `prev` after a seek: the left match of `key`, or the
    /// posting before it when `key` itself is posted.
    fn read_before(&mut self) -> Result<bool> {
        let mut comps = std::mem::take(&mut self.prev.comps);
        let mut at = self.il.seek_le_anchored(&self.env, &mut self.anchor, &self.probe)?;
        let mut found = self.read_entry(&at, &mut comps);
        if matches!(found, Ok(true)) && comps == self.key {
            at.retreat(&self.env)?;
            found = self.read_entry(&at, &mut comps);
        }
        self.prev.comps = comps;
        found
    }
}

/// Unpacks a packed Dewey into `out`.
fn unpack(packed: &[u8], table: &LevelTable, out: &mut Vec<u32>) -> Result<()> {
    match xk_xmltree::packed::unpack(packed, table.widths(), out) {
        true => Ok(()),
        false => Err(CodecError::Malformed.into()),
    }
}

impl PostingCursor for DiskCursor {
    fn len(&self) -> u64 {
        self.count
    }

    fn seek(&mut self, key: &[u32]) {
        self.key.clear();
        self.key.extend_from_slice(key);
        self.probe.clear();
        self.probe.extend_from_slice(&self.kwid.to_be_bytes());
        (self.cur.read, self.prev.read) = (None, None);
        self.at = At::Seeked;
        if let Err(e) = append_probe(key, &self.table, &mut self.probe) {
            self.slot.poison(e.into());
            (self.cur.read, self.prev.read) = (Some(false), Some(false));
        }
    }

    fn step(&mut self) {
        if self.current().is_none() {
            return;
        }
        std::mem::swap(&mut self.cur, &mut self.prev);
        self.cur.read = None;
        if let At::Tree(at) = &mut self.at {
            if let Err(e) = at.advance(&self.env) {
                self.slot.poison(e.into());
                self.cur.read = Some(false);
            }
        }
    }

    fn current(&mut self) -> Option<&[u32]> {
        if self.cur.read.is_none() {
            let found = self.read_current();
            self.cur.read = Some(self.slot.ok(found).unwrap_or(false));
        }
        self.cur.get()
    }

    fn before(&mut self) -> Option<&[u32]> {
        if self.prev.read.is_none() {
            let found = self.read_before();
            self.prev.read = Some(self.slot.ok(found).unwrap_or(false));
        }
        self.prev.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::read_document;
    use xk_slca::{RankedList, StreamList};
    use xk_storage::EnvOptions;
    use xk_xmltree::{school_example, Dewey};

    type Slot = ErrorSlot<IndexError>;

    fn build_school() -> (Arc<StorageEnv>, DiskIndex) {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 256 });
        let tree = school_example();
        let n = build_disk_index(&env, &tree, &BuildOptions::default()).unwrap();
        assert!(n > 10);
        let index = DiskIndex::open(&env).unwrap();
        (Arc::new(env), index)
    }

    #[test]
    fn frequency_table_matches_mem_index() {
        let (_, index) = build_school();
        let mem = MemIndex::build(&school_example());
        assert_eq!(index.keyword_count(), mem.keyword_count());
        for (kw, f) in mem.keywords() {
            assert_eq!(index.frequency(kw), f, "frequency of {kw}");
        }
        assert_eq!(index.frequency("absent"), 0);
        assert!(index.lookup("john").is_some());
    }

    #[test]
    fn chain_reads_match_mem_lists() {
        let (env, index) = build_school();
        let mem = MemIndex::build(&school_example());
        for (kw, _) in mem.keywords() {
            let expected = mem.keyword_list(kw).unwrap();
            let mut stream = index.cursor(&env, kw, Slot::new()).unwrap();
            let got: Vec<Dewey> = std::iter::from_fn(|| stream.next_node()).collect();
            assert_eq!(got, expected, "list for {kw}");
            assert_eq!(stream.len(), expected.len() as u64);
            // Seeking the root replays from the start, through the tree.
            stream.seek(&[]);
            let again: Vec<Dewey> = std::iter::from_fn(|| stream.next_node()).collect();
            assert_eq!(again, expected, "re-read list for {kw}");
        }
    }

    #[test]
    fn seeks_match_mem_lists() {
        let (env, index) = build_school();
        let slot = Slot::new();
        let mem = MemIndex::build(&school_example());
        let tree = school_example();
        // Probe with every document node against every keyword list, in
        // document order and then reversed, through one anchored cursor
        // and through a fresh one per probe.
        let probes: Vec<Dewey> = tree.preorder().map(|n| tree.dewey(n)).collect();
        for (kw, _) in mem.keywords() {
            let mut disk = index.cursor(&env, kw, slot.clone()).unwrap();
            let mut memlist = xk_slca::MemList::from_sorted(mem.keyword_list(kw).unwrap().to_vec());
            for p in probes.iter().chain(probes.iter().rev()) {
                assert_eq!(disk.rm(p), memlist.rm(p), "rm({p}) on {kw}");
                assert_eq!(disk.lm(p), memlist.lm(p), "lm({p}) on {kw}");
                let mut fresh = index.cursor(&env, kw, slot.clone()).unwrap();
                fresh.seek(p.components());
                memlist.seek(p.components());
                assert_eq!(fresh.before(), memlist.before(), "before({p}) on {kw}");
                assert_eq!(fresh.current(), memlist.current(), "current({p}) on {kw}");
                fresh.step();
                memlist.step();
                assert_eq!(fresh.current(), memlist.current(), "next after {p} on {kw}");
                assert_eq!(fresh.before(), memlist.before(), "before after {p} on {kw}");
            }
            assert_eq!(disk.len(), memlist.len());
        }
        assert!(slot.take().is_none());
    }

    #[test]
    fn uncle_probe_past_level_width() {
        let (env, index) = build_school();
        // The school tree has 4 top-level children (ordinals 0..3, width 2
        // bits): the uncle position "4" is unencodable and must behave as
        // "after subtree(3)".
        let mut john = index.cursor(&env, "john", Slot::new()).unwrap();
        let probe = Dewey::from_components(vec![4]);
        assert_eq!(john.rm(&probe), None, "no node follows subtree 3");
        let lm = john.lm(&probe).unwrap();
        assert_eq!(lm.components()[0], 3, "last john is inside subtree 3");
    }

    #[test]
    fn missing_keyword_has_no_cursor() {
        let (env, index) = build_school();
        assert!(index.cursor(&env, "absent", Slot::new()).is_none());
    }

    #[test]
    fn stored_document_roundtrips() {
        let (env, index) = build_school();
        let doc = read_document(&env, &index.document_handle().unwrap()).unwrap();
        let orig = school_example();
        assert_eq!(doc.len(), orig.len());
        for (a, b) in doc.preorder().zip(orig.preorder()) {
            assert_eq!(doc.label(a), orig.label(b));
        }
    }

    #[test]
    fn build_without_document() {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 512, pool_pages: 64 });
        build_disk_index(
            &env,
            &school_example(),
            &BuildOptions { store_document: false, ..Default::default() },
        )
        .unwrap();
        let index = DiskIndex::open(&env).unwrap();
        assert!(index.document_handle().is_none());
    }

    #[test]
    fn document_chain_holding_xml_text_is_rejected() {
        // XML text re-parses with adjacent text siblings merged, shifting
        // the ordinals appends are allocated from; no builder writes it.
        let (env, index) = build_school();
        let env = &*env;
        let mut writer = ListWriter::new(env);
        let text = xk_xmltree::to_xml_string(&school_example(), xk_xmltree::NodeId::ROOT);
        for part in text.as_bytes().chunks(env.page_size() / 2) {
            writer.append(env, part).unwrap();
        }
        let handle = writer.finish(env).unwrap();
        env.set_user_blob(&encode_blob(index.level_table(), Some(handle), &[])).unwrap();

        let err = read_document(env, &handle).err();
        assert!(matches!(&err, Some(IndexError::Corrupt(m)) if m.contains("XKDOC1")), "{err:?}");
        let report = crate::verify::verify_index(env);
        assert!(
            report.issues.iter().any(|i| i.contains("stored document does not decode")),
            "issues: {:?}",
            report.issues
        );
    }

    #[test]
    fn cursor_errors_poison_instead_of_panicking() {
        let (env, index) = build_school();
        // Scribble over the head page of john's chain: the record framing
        // no longer decodes, which used to be a panic in next_node.
        let head = index.lookup("john").unwrap().handle.head;
        env.with_page_mut(head, |p| p.fill(0xFF)).unwrap();

        let slot = Slot::new();
        let mut stream = index.cursor(&env, "john", slot.clone()).unwrap();
        assert_eq!(stream.next_node(), None);
        let err = slot.take().expect("poison recorded");
        assert!(matches!(err, IndexError::Storage(_)), "{err:?}");
        assert!(slot.take().is_none(), "slot cleared after take");
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("xk-index-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.db");
        let opts = EnvOptions { page_size: 512, pool_pages: 64 };
        {
            let env = StorageEnv::create(&path, opts.clone()).unwrap();
            build_disk_index(&env, &school_example(), &BuildOptions::default()).unwrap();
        }
        {
            let env = StorageEnv::open(&path, opts).unwrap();
            let index = DiskIndex::open(&env).unwrap();
            assert_eq!(index.frequency("john"), 4);
            let mut l = index.cursor(&Arc::new(env), "ben", Slot::new()).unwrap();
            assert_eq!(l.len(), 3);
            assert!(l.next_node().is_some());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
