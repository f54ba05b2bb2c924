//! The stored document: an append-only log on one record chain.
//!
//! The chain starts with the document as it was built — one
//! [`encode_tree`] encoding (`XKDOC1`), the *base* — and continues with
//! one *fragment record* per committed append (little-endian):
//!
//! ```text
//! | "XKFRAG1\0" | u32 depth | depth × u32 graft point | u32 len | encode_tree(fragment) (len bytes) |
//! ```
//!
//! The graft point is the Dewey number of the element the fragment
//! became the new last child of, which lies on the rightmost path of
//! the document the records before it describe. So every appended node
//! follows every earlier one in document order, and the chain *is* the
//! document in preorder. The logical byte stream (base, then each
//! fragment record) is cut into chain records of at most
//! [`ListWriter::max_record`] bytes; record boundaries mean nothing.
//!
//! Three readers share the format:
//!
//! * [`read_document`] decodes the whole tree (rendering, verify);
//! * [`document_spine`] streams the chain to the rightmost path, the
//!   only state an append needs, in O(depth) memory without a tree;
//! * [`document_node`] streams it to one node.

use crate::diskindex::{IndexError, Result};
use std::io::Read;
use std::ops::ControlFlow;
use xk_storage::{ListAppender, ListHandle, ListReader, ListWriter, StorageEnv, StorageError};
use xk_xmltree::{
    decode_tree, decode_tree_prefix, encode_tree, walk_encoded, Dewey, NodeContent, NodeId, XmlTree,
};

/// Magic prefix of a fragment record.
const FRAGMENT_MAGIC: &[u8; 8] = b"XKFRAG1\0";

/// Writes `tree` into a fresh record chain: the base of a stored
/// document. Structural encoding, not XML text: XML merges adjacent text
/// siblings on re-parse, which would shift the Dewey ordinals appends
/// are allocated from (see `xk_xmltree::encode_tree`).
pub fn write_document(env: &StorageEnv, tree: &XmlTree) -> Result<ListHandle> {
    let mut writer = ListWriter::new(env);
    for part in encode_tree(tree).chunks(ListWriter::max_record(env)) {
        writer.append(env, part)?;
    }
    Ok(writer.finish(env)?)
}

/// Logs `fragment` as the new last child of `parent` at the tail of the
/// document `chain` and returns the moved handle, which the caller
/// persists in the same transaction. Writes O(fragment) pages. The
/// caller has checked `parent` against the document's [`Spine`].
pub fn append_fragment(
    env: &StorageEnv,
    chain: ListHandle,
    parent: &Dewey,
    fragment: &XmlTree,
) -> Result<ListHandle> {
    let record = encode_fragment(parent.components(), fragment)?;
    let mut appender = ListAppender::open(env, chain)?;
    for part in record.chunks(ListWriter::max_record(env)) {
        appender.append(env, part)?;
    }
    Ok(appender.finish())
}

fn encode_fragment(parent: &[u32], fragment: &XmlTree) -> Result<Vec<u8>> {
    let body = encode_tree(fragment);
    let too_large = |what: &str| IndexError::Corrupt(format!("fragment {what} exceeds u32"));
    let depth = u32::try_from(parent.len()).map_err(|_| too_large("graft depth"))?;
    let len = u32::try_from(body.len()).map_err(|_| too_large("length"))?;
    let mut out = Vec::with_capacity(FRAGMENT_MAGIC.len() + 8 + 4 * parent.len() + body.len());
    out.extend_from_slice(FRAGMENT_MAGIC);
    out.extend_from_slice(&depth.to_le_bytes());
    for c in parent {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Reads back the whole stored document: the base, with every fragment
/// record grafted where it was logged. Any malformation — a bad magic, a
/// truncated record, a graft point the document did not offer, an
/// undecodable body — is [`IndexError::Corrupt`].
pub fn read_document(env: &StorageEnv, handle: &ListHandle) -> Result<XmlTree> {
    let (tree, _) = decode_document(&chain_bytes(env, handle)?)
        .map_err(|e| IndexError::Corrupt(format!("stored document: {e}")))?;
    Ok(tree)
}

/// The concatenated payload of a document chain.
pub(crate) fn chain_bytes(env: &StorageEnv, handle: &ListHandle) -> Result<Vec<u8>> {
    let mut reader = ListReader::new(handle);
    let mut bytes = Vec::new();
    while let Some(chunk) = reader.next_record(env)? {
        bytes.extend_from_slice(&chunk);
    }
    Ok(bytes)
}

/// Decodes a document log held in memory: the tree and how many
/// fragment records built it.
pub(crate) fn decode_document(bytes: &[u8]) -> std::result::Result<(XmlTree, u64), String> {
    let (mut tree, mut pos) = decode_tree_prefix(bytes)?;
    let mut fragments = 0u64;
    while let Some(rest) = bytes.get(pos..).filter(|r| !r.is_empty()) {
        fragments += 1;
        let at = |e: String| format!("fragment {fragments}: {e}");
        let (parent, body, used) = split_fragment(rest).map_err(at)?;
        Spine::of(&tree).child_ordinal(&parent).map_err(|r| {
            at(format!(
                "graft point {} {r}",
                Dewey::from_components(parent.clone())
            ))
        })?;
        let fragment = decode_tree(body).map_err(at)?;
        let node = tree
            .node_at(&Dewey::from_components(parent))
            .ok_or("graft point vanished")?;
        graft(&mut tree, node, &fragment, NodeId::ROOT);
        pos += used;
    }
    Ok((tree, fragments))
}

/// Splits the fragment record at the start of `rest` into graft point,
/// body and total length.
fn split_fragment(rest: &[u8]) -> std::result::Result<(Vec<u32>, &[u8], usize), String> {
    let u32_at = |pos: usize| {
        rest.get(pos..pos + 4)
            .and_then(|b| b.try_into().ok())
            .map(u32::from_le_bytes)
            .ok_or_else(|| "truncated fragment header".to_string())
    };
    if rest.get(..FRAGMENT_MAGIC.len()) != Some(&FRAGMENT_MAGIC[..]) {
        return Err("bad fragment magic".into());
    }
    let mut pos = FRAGMENT_MAGIC.len();
    let depth = u32_at(pos)? as usize;
    pos += 4;
    if depth > (rest.len() - pos) / 4 {
        return Err("truncated fragment header".into());
    }
    let mut parent = Vec::with_capacity(depth);
    for _ in 0..depth {
        parent.push(u32_at(pos)?);
        pos += 4;
    }
    let len = u32_at(pos)? as usize;
    pos += 4;
    let body = rest.get(pos..pos.saturating_add(len)).ok_or_else(|| {
        format!(
            "truncated fragment body: {len} bytes claimed, {} left",
            rest.len() - pos
        )
    })?;
    Ok((parent, body, pos + len))
}

/// Deep-copies the subtree of `src` rooted at `src_node` as a new last
/// child of `dst_parent`, returning the copy's root id — how a fragment
/// joins the document, on the read path and in an engine's resident
/// tree alike.
pub fn graft(dst: &mut XmlTree, dst_parent: NodeId, src: &XmlTree, src_node: NodeId) -> NodeId {
    let new_id = match src.content(src_node) {
        NodeContent::Element { tag, attributes } => {
            dst.append_element_with_attrs(dst_parent, tag.clone(), attributes.clone())
        }
        NodeContent::Text(t) => dst.append_text(dst_parent, t.clone()),
    };
    for &c in src.children(src_node) {
        graft(dst, new_id, src, c);
    }
    new_id
}

/// One node of a document's rightmost root-to-leaf path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpineNode {
    /// Its child count: the ordinal its next appended child gets.
    pub children: u32,
    /// False for a text node, which takes no children.
    pub element: bool,
}

/// A document's rightmost root-to-leaf path, root first: everything an
/// append needs to know about the document it extends. Node `i + 1` is
/// the last child of node `i`, so the path's Dewey numbers are implied by
/// the child counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Spine {
    nodes: Vec<SpineNode>,
}

/// Why a [`Spine`] refuses a graft point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Some component is past its parent's last child.
    NoNode,
    /// The point is on the path but is a text node.
    TextNode,
    /// The point names an earlier sibling of a path node, or a node
    /// below one: a node that may exist, off the rightmost path.
    OffPath,
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Refusal::NoNode => "names no node",
            Refusal::TextNode => "is a text node",
            Refusal::OffPath => "is not on the rightmost path",
        })
    }
}

impl Spine {
    /// The rightmost path of `tree`.
    pub fn of(tree: &XmlTree) -> Spine {
        let mut nodes = Vec::new();
        let mut cursor = Some(NodeId::ROOT);
        while let Some(id) = cursor {
            let children = tree.children(id);
            nodes.push(SpineNode {
                children: children.len() as u32,
                element: tree.content(id).is_element(),
            });
            cursor = children.last().copied();
        }
        Spine { nodes }
    }

    /// The path's nodes, root first.
    pub fn nodes(&self) -> &[SpineNode] {
        &self.nodes
    }

    /// The ordinal a new last child of `parent` gets, or why `parent`
    /// cannot take one.
    pub fn child_ordinal(&self, parent: &[u32]) -> std::result::Result<u32, Refusal> {
        for (node, &c) in self.nodes.iter().zip(parent) {
            let last = node.children.checked_sub(1).ok_or(Refusal::NoNode)?;
            if c > last {
                return Err(Refusal::NoNode);
            }
            if c < last {
                return Err(Refusal::OffPath);
            }
        }
        match self.nodes.get(parent.len()) {
            None => Err(Refusal::NoNode),
            Some(node) if !node.element => Err(Refusal::TextNode),
            Some(node) => Ok(node.children),
        }
    }

    /// Records that the node at depth `depth` of the path, a graft point
    /// [`Spine::child_ordinal`] accepted, gained a last child whose own
    /// subtree's rightmost path is `child`.
    pub fn graft(&mut self, depth: usize, child: &Spine) {
        self.grow(depth);
        self.nodes.extend_from_slice(&child.nodes);
    }

    /// The path ends below the node at `depth`, which gained a child.
    fn grow(&mut self, depth: usize) {
        self.nodes.truncate(depth + 1);
        if let Some(node) = self.nodes.last_mut() {
            node.children = node.children.saturating_add(1);
        }
    }

    /// A preorder walk met a node at `depth`: the path now ends there.
    fn visit(&mut self, depth: usize, element: bool, children: u64) {
        self.nodes.truncate(depth);
        let children = u32::try_from(children).unwrap_or(u32::MAX);
        self.nodes.push(SpineNode { children, element });
    }
}

/// The rightmost path of the stored document, streamed from its chain
/// without building a tree: O(depth) memory however long the document.
pub fn document_spine(env: &StorageEnv, handle: &ListHandle) -> Result<Spine> {
    walk_chain(env, handle, |_, _| ControlFlow::Continue(()))
}

/// Whether the stored document has a node at `at`, and if so whether it
/// is an element — streamed like [`document_spine`], stopping once the
/// walk passes `at` in document order.
pub fn document_node(env: &StorageEnv, handle: &ListHandle, at: &Dewey) -> Result<Option<bool>> {
    let mut found = None;
    walk_chain(env, handle, |path, element| {
        match path.cmp(at.components()) {
            std::cmp::Ordering::Less => ControlFlow::Continue(()),
            std::cmp::Ordering::Equal => {
                found = Some(element);
                ControlFlow::Break(())
            }
            std::cmp::Ordering::Greater => ControlFlow::Break(()),
        }
    })?;
    Ok(found)
}

/// Streams the chain in document order, `visit(dewey, element)` per node
/// until it breaks, and returns the rightmost path of what it walked.
fn walk_chain(
    env: &StorageEnv,
    handle: &ListHandle,
    mut visit: impl FnMut(&[u32], bool) -> ControlFlow<()>,
) -> Result<Spine> {
    let mut src = ChainBytes {
        env,
        reader: ListReader::new(handle),
        record: Vec::new(),
        pos: 0,
        failed: None,
    };
    let mut spine = Spine::default();
    let base = walk_encoded(&mut src, |path, element, children| {
        spine.visit(path.len(), element, children);
        visit(path, element)
    });
    if base
        .map_err(|e| src.fail(format!("stored document: {e}")))?
        .is_break()
    {
        return Ok(spine);
    }
    let mut dewey: Vec<u32> = Vec::new();
    let mut fragments = 0u64;
    while !src.at_end().map_err(|e| src.fail(e))? {
        fragments += 1;
        let at = |e: String| format!("stored document fragment {fragments}: {e}");
        let (parent, len) = src.fragment_header().map_err(|e| src.fail(at(e)))?;
        let ordinal = spine.child_ordinal(&parent).map_err(|r| {
            let point = Dewey::from_components(parent.clone());
            IndexError::Corrupt(at(format!("graft point {point} {r}")))
        })?;
        spine.grow(parent.len());
        let mut prefix = parent;
        prefix.push(ordinal);
        let (walked, unread) = {
            let mut body = (&mut src).take(u64::from(len));
            let walked = walk_encoded(&mut body, |rel, element, children| {
                spine.visit(prefix.len() + rel.len(), element, children);
                dewey.clear();
                dewey.extend_from_slice(&prefix);
                dewey.extend_from_slice(rel);
                visit(&dewey, element)
            });
            (walked, body.limit())
        };
        if walked.map_err(|e| src.fail(at(e)))?.is_break() {
            return Ok(spine);
        }
        if unread > 0 {
            return Err(IndexError::Corrupt(at(format!(
                "{len} bytes claimed, the fragment takes {}",
                u64::from(len) - unread
            ))));
        }
    }
    Ok(spine)
}

/// A document chain as one byte stream, one chain record resident at a
/// time. A storage failure is kept for [`ChainBytes::fail`] to return,
/// so it is not flattened into a decode message.
struct ChainBytes<'e> {
    env: &'e StorageEnv,
    reader: ListReader,
    record: Vec<u8>,
    pos: usize,
    failed: Option<StorageError>,
}

impl ChainBytes<'_> {
    /// True once every record has been read.
    fn at_end(&mut self) -> std::result::Result<bool, String> {
        while self.pos == self.record.len() {
            match self.reader.next_record(self.env) {
                Ok(Some(record)) => {
                    self.record = record;
                    self.pos = 0;
                }
                Ok(None) => return Ok(true),
                Err(e) => {
                    let msg = e.to_string();
                    self.failed = Some(e);
                    return Err(msg);
                }
            }
        }
        Ok(false)
    }

    /// Reads a fragment record's header: graft point and body length.
    fn fragment_header(&mut self) -> std::result::Result<(Vec<u32>, u32), String> {
        let truncated = |e: std::io::Error| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => "truncated fragment header".to_string(),
            _ => e.to_string(),
        };
        let mut magic = [0u8; FRAGMENT_MAGIC.len()];
        self.read_exact(&mut magic).map_err(truncated)?;
        if magic != *FRAGMENT_MAGIC {
            return Err("bad fragment magic".into());
        }
        let mut word = [0u8; 4];
        let mut u32_next = |src: &mut Self| {
            src.read_exact(&mut word)
                .map_err(truncated)
                .map(|()| u32::from_le_bytes(word))
        };
        let depth = u32_next(self)?;
        let mut parent = Vec::new();
        for _ in 0..depth {
            parent.push(u32_next(self)?);
        }
        Ok((parent, u32_next(self)?))
    }

    /// The error for a failed walk: the storage failure behind it if
    /// there was one, else `msg` as corruption.
    fn fail(&mut self, msg: String) -> IndexError {
        match self.failed.take() {
            Some(e) => IndexError::Storage(e),
            None => IndexError::Corrupt(msg),
        }
    }
}

impl Read for ChainBytes<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at_end().map_err(std::io::Error::other)? {
            return Ok(0);
        }
        let n = self.record.get(self.pos..).unwrap_or_default().read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diskindex::{build_disk_index, BuildOptions, DiskIndex};
    use crate::verify::verify_index;
    use xk_storage::{inspect_chain, EnvOptions};
    use xk_xmltree::{parse, school_example};

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    /// The school index with its document, as `build_disk_index` leaves it.
    fn school_env() -> (StorageEnv, ListHandle) {
        let env = StorageEnv::in_memory(EnvOptions {
            page_size: 512,
            pool_pages: 256,
        });
        build_disk_index(&env, &school_example(), &BuildOptions::default()).unwrap();
        let handle = DiskIndex::open(&env).unwrap().document_handle().unwrap();
        (env, handle)
    }

    #[test]
    fn document_pages_are_full() {
        let env = StorageEnv::in_memory(EnvOptions {
            page_size: 512,
            pool_pages: 64,
        });
        let mut tree = XmlTree::new("bib");
        for i in 0..300 {
            let paper = tree.append_element(NodeId::ROOT, "paper");
            let title = tree.append_element(paper, "title");
            tree.append_text(title, format!("keyword search number {i}"));
        }
        let len = encode_tree(&tree).len();
        let handle = write_document(&env, &tree).unwrap();
        let pages = inspect_chain(&env, &handle).unwrap().pages.len();
        let max = ListWriter::max_record(&env);
        assert!(
            pages <= len.div_ceil(max) + 1,
            "{pages} pages for {len} bytes at {max} per page"
        );
        let back = read_document(&env, &handle).unwrap();
        assert_eq!(encode_tree(&back), encode_tree(&tree));
    }

    #[test]
    fn fragments_replay_onto_the_rightmost_path() {
        let (env, mut handle) = school_env();
        let mut expected = school_example();
        assert_eq!(document_spine(&env, &handle).unwrap(), Spine::of(&expected));
        // Grafts at every depth of the rightmost path, element and text
        // leaves, adjacent text siblings, and one fragment larger than a
        // page.
        let big = format!("<bulk>{}</bulk>", "long text ".repeat(200));
        let steps: [(&str, &str); 6] = [
            ("", "<class><title>CS4A</title></class>"),
            ("4", "<lecturer><name>Ann</name></lecturer>"),
            ("4.1.0", "<nick>annie</nick>"),
            ("4.1.0", "<nick>second</nick>"),
            ("", &big),
            ("5", "<tail/>"),
        ];
        for (parent, xml) in steps {
            let parent = if parent.is_empty() {
                Dewey::root()
            } else {
                d(parent)
            };
            let fragment = parse(xml).unwrap();
            let spine = Spine::of(&expected);
            let ordinal = spine.child_ordinal(parent.components()).unwrap();
            let node = expected.node_at(&parent).unwrap();
            let root = graft(&mut expected, node, &fragment, NodeId::ROOT);
            assert_eq!(expected.ordinal(root), ordinal);
            handle = append_fragment(&env, handle, &parent, &fragment).unwrap();

            let back = read_document(&env, &handle).unwrap();
            assert_eq!(
                encode_tree(&back),
                encode_tree(&expected),
                "after grafting at {parent}"
            );
            assert_eq!(document_spine(&env, &handle).unwrap(), Spine::of(&expected));
        }
        // Adjacent text siblings survive: the XML text form would merge them.
        let mut texts = XmlTree::new("t");
        texts.append_text(NodeId::ROOT, "one");
        texts.append_text(NodeId::ROOT, "two");
        handle = append_fragment(&env, handle, &d("5.1"), &texts).unwrap();
        let node = expected.node_at(&d("5.1")).unwrap();
        graft(&mut expected, node, &texts, NodeId::ROOT);
        let back = read_document(&env, &handle).unwrap();
        assert_eq!(encode_tree(&back), encode_tree(&expected));

        // The streamed lookup agrees with the tree on every node.
        for n in expected.preorder() {
            let at = expected.dewey(n);
            let kind = Some(expected.content(n).is_element());
            assert_eq!(document_node(&env, &handle, &at).unwrap(), kind, "{at}");
        }
        for missing in ["9", "0.9", "5.1.0.2", "4.1.0.0.0.0"] {
            assert_eq!(
                document_node(&env, &handle, &d(missing)).unwrap(),
                None,
                "{missing}"
            );
        }
    }

    #[test]
    fn spine_refuses_what_the_tree_refuses() {
        let spine = Spine::of(&school_example());
        assert_eq!(spine.child_ordinal(&[]), Ok(4));
        assert_eq!(spine.child_ordinal(&[3]), Ok(2));
        assert_eq!(spine.child_ordinal(&[3, 1, 0]), Ok(1));
        assert_eq!(spine.child_ordinal(&[3, 1, 0, 0]), Err(Refusal::TextNode));
        assert_eq!(spine.child_ordinal(&[3, 1, 0, 0, 0]), Err(Refusal::NoNode));
        assert_eq!(spine.child_ordinal(&[0]), Err(Refusal::OffPath));
        assert_eq!(spine.child_ordinal(&[3, 0, 0]), Err(Refusal::OffPath));
        assert_eq!(spine.child_ordinal(&[4]), Err(Refusal::NoNode));
        let mut grown = spine.clone();
        grown.graft(1, &Spine::of(&parse("<x><y/></x>").unwrap()));
        let nodes: Vec<(u32, bool)> = grown
            .nodes()
            .iter()
            .map(|n| (n.children, n.element))
            .collect();
        assert_eq!(nodes, [(4, true), (3, true), (1, true), (0, true)]);
    }

    /// Appends raw bytes to the document chain and points the meta blob
    /// at the result, the way a fault behind a valid page CRC looks.
    fn plant(env: &StorageEnv, handle: ListHandle, record: &[u8]) -> ListHandle {
        let mut appender = ListAppender::open(env, handle).unwrap();
        for part in record.chunks(ListWriter::max_record(env)) {
            appender.append(env, part).unwrap();
        }
        let handle = appender.finish();
        DiskIndex::open(env)
            .unwrap()
            .write_meta(env, Some(handle), &[])
            .unwrap();
        handle
    }

    #[test]
    fn planted_fragment_faults_are_corrupt_everywhere() {
        let fragment = parse("<memo>x</memo>").unwrap();
        let good = encode_fragment(&[], &fragment).unwrap();
        let header = FRAGMENT_MAGIC.len() + 8; // magic, depth 0, len
        let mut bad_magic = good.clone();
        bad_magic[3] ^= 0x20;
        let mut long_len = good.clone();
        long_len[header - 4..header].copy_from_slice(&1000u32.to_le_bytes());
        let mut bad_body = good.clone();
        bad_body[header + 8] = 7; // the body's root kind byte
        let faults = [
            ("bad magic", bad_magic, "bad fragment magic"),
            ("truncated length", long_len, "truncated"),
            (
                "off-path graft",
                encode_fragment(&[0], &fragment).unwrap(),
                "not on the rightmost path",
            ),
            (
                "text graft",
                encode_fragment(&[4, 0], &fragment).unwrap(),
                "text node",
            ),
            ("undecodable body", bad_body, "root must be an element"),
        ];
        for (name, record, text) in faults {
            let (env, base) = school_env();
            // One good fragment first: the fault is in a later record.
            let handle = append_fragment(&env, base, &Dewey::root(), &fragment).unwrap();
            let handle = plant(&env, handle, &record);
            let err = read_document(&env, &handle).unwrap_err();
            assert!(
                matches!(&err, IndexError::Corrupt(m) if m.contains("fragment 2") && m.contains(text)),
                "{name}: {err}"
            );
            match document_spine(&env, &handle) {
                Err(IndexError::Corrupt(m)) => assert!(m.contains("fragment 2"), "{name}: {m}"),
                other => panic!("{name}: streamed spine gave {other:?}"),
            }
            let report = verify_index(&env);
            assert!(
                report
                    .issues
                    .iter()
                    .any(|i| i.contains("does not decode") && i.contains(text)),
                "{name}: {:?}",
                report.issues
            );
        }
    }

    #[test]
    fn verify_counts_fragments() {
        let (env, mut handle) = school_env();
        for i in 0..3 {
            let fragment = parse(&format!("<memo>m{i}</memo>")).unwrap();
            handle = append_fragment(&env, handle, &Dewey::root(), &fragment).unwrap();
        }
        DiskIndex::open(&env)
            .unwrap()
            .write_meta(&env, Some(handle), &[])
            .unwrap();
        let report = verify_index(&env);
        assert!(report.is_ok(), "{:?}", report.issues);
        assert_eq!(report.document_fragments, 3);
    }
}
