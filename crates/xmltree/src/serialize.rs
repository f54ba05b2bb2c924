//! XML serialization: turning (sub)trees back into markup.
//!
//! The query engine uses this to render answer subtrees — the paper's demo
//! "returns the subtrees rooted at" the SLCA nodes.

use crate::tree::{NodeContent, NodeId, XmlTree};
use std::fmt::Write;
use std::io::Read;
use std::ops::ControlFlow;

/// Serializes the subtree rooted at `root` to a compact XML string.
pub fn to_xml_string(tree: &XmlTree, root: NodeId) -> String {
    let mut out = String::new();
    write_node(tree, root, &mut out, None, 0);
    out
}

/// Serializes the subtree rooted at `root` with 2-space indentation.
pub fn to_pretty_xml_string(tree: &XmlTree, root: NodeId) -> String {
    let mut out = String::new();
    write_node(tree, root, &mut out, Some(2), 0);
    if out.ends_with('\n') {
        out.pop();
    }
    out
}

fn write_node(
    tree: &XmlTree,
    id: NodeId,
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
) {
    let pad = |out: &mut String, depth: usize| {
        if let Some(width) = indent {
            for _ in 0..depth * width {
                out.push(' ');
            }
        }
    };
    match tree.content(id) {
        NodeContent::Text(t) => {
            pad(out, depth);
            escape_text(t, out);
            if indent.is_some() {
                out.push('\n');
            }
        }
        NodeContent::Element { tag, attributes } => {
            pad(out, depth);
            out.push('<');
            out.push_str(tag);
            for a in attributes {
                let _ = write!(out, " {}=\"", a.name);
                escape_attr(&a.value, out);
                out.push('"');
            }
            let children = tree.children(id);
            if children.is_empty() {
                out.push_str("/>");
                if indent.is_some() {
                    out.push('\n');
                }
                return;
            }
            // A single text child prints inline even in pretty mode.
            let inline_text = children.len() == 1
                && matches!(tree.content(children[0]), NodeContent::Text(_));
            out.push('>');
            if inline_text {
                if let NodeContent::Text(t) = tree.content(children[0]) {
                    escape_text(t, out);
                }
            } else {
                if indent.is_some() {
                    out.push('\n');
                }
                for &c in children {
                    write_node(tree, c, out, indent, depth + 1);
                }
                pad(out, depth);
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
            if indent.is_some() {
                out.push('\n');
            }
        }
    }
}

/// Magic prefix of the structural encoding ([`encode_tree`]).
const TREE_MAGIC: &[u8; 8] = b"XKDOC1\0\0";

/// Encodes the whole tree in a **lossless** structural form: preorder
/// records with explicit child counts.
///
/// XML text cannot represent adjacent text siblings — serializing two
/// consecutive `append_text` children concatenates their character data,
/// and re-parsing yields *one* merged node with different tokens and one
/// fewer ordinal. Any consumer that persists a tree and later relies on
/// its exact shape (the engine's stored document drives Dewey ordinal
/// allocation for appends) must use this encoding, not
/// [`to_xml_string`].
pub fn encode_tree(tree: &XmlTree) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + tree.len() * 8);
    out.extend_from_slice(TREE_MAGIC);
    encode_node(tree, NodeId::ROOT, &mut out);
    out
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn encode_node(tree: &XmlTree, id: NodeId, out: &mut Vec<u8>) {
    match tree.content(id) {
        NodeContent::Text(t) => {
            out.push(1);
            put_str(out, t);
        }
        NodeContent::Element { tag, attributes } => {
            out.push(0);
            put_str(out, tag);
            put_varint(out, attributes.len() as u64);
            for a in attributes {
                put_str(out, &a.name);
                put_str(out, &a.value);
            }
            let children = tree.children(id);
            put_varint(out, children.len() as u64);
            for &c in children {
                encode_node(tree, c, out);
            }
        }
    }
}

/// Decodes an [`encode_tree`] buffer back into the identical tree.
/// Returns a description of the first malformation on corrupt input —
/// never panics.
pub fn decode_tree(bytes: &[u8]) -> Result<XmlTree, String> {
    let (tree, used) = decode_tree_prefix(bytes)?;
    if used != bytes.len() {
        return Err(format!("{} trailing byte(s)", bytes.len() - used));
    }
    Ok(tree)
}

/// Decodes the [`encode_tree`] encoding at the start of `bytes`, which
/// may continue with anything else, and returns the tree together with
/// the number of bytes it took. Never panics.
pub fn decode_tree_prefix(bytes: &[u8]) -> Result<(XmlTree, usize), String> {
    let body = bytes
        .strip_prefix(&TREE_MAGIC[..])
        .ok_or_else(|| "missing XKDOC1 magic".to_string())?;
    let mut cur = Cursor { bytes: body, pos: 0 };
    if cur.byte()? != 0 {
        return Err("document root must be an element".into());
    }
    let tag = cur.str()?;
    let attrs = cur.attrs()?;
    let mut tree = XmlTree::new(tag);
    tree.set_root(tag, attrs);
    let children = cur.varint()?;
    for _ in 0..children {
        decode_node(&mut cur, &mut tree, NodeId::ROOT, 0)?;
    }
    Ok((tree, TREE_MAGIC.len() + cur.pos))
}

/// Walks one [`encode_tree`] encoding read from `src` in preorder
/// without building a tree. `visit(path, element, children)` sees each
/// node's path below the encoded root (empty for the root itself),
/// whether it is an element, and its child count; returning
/// `ControlFlow::Break` ends the walk early, and the walk returns it.
///
/// The walk stops after the encoding's last byte, so whatever follows
/// in `src` stays unread. Memory is O(depth): strings are skipped, not
/// validated — [`decode_tree`] is the full check.
pub fn walk_encoded<R: Read>(
    src: &mut R,
    mut visit: impl FnMut(&[u32], bool, u64) -> ControlFlow<()>,
) -> Result<ControlFlow<()>, String> {
    let mut s = Stream { src };
    let mut magic = [0u8; TREE_MAGIC.len()];
    s.fill(&mut magic).map_err(|_| "missing XKDOC1 magic".to_string())?;
    if magic != *TREE_MAGIC {
        return Err("missing XKDOC1 magic".into());
    }
    if s.byte()? != 0 {
        return Err("document root must be an element".into());
    }
    let children = s.element_rest()?;
    let mut path: Vec<u32> = Vec::new();
    if visit(&path, true, children).is_break() {
        return Ok(ControlFlow::Break(()));
    }
    // One frame per open element: children still to read, next ordinal.
    let mut open: Vec<(u64, u32)> = vec![(children, 0)];
    while let Some(top) = open.last_mut() {
        if top.0 == 0 {
            open.pop();
            path.pop(); // the root frame has no path entry: a no-op
            continue;
        }
        top.0 -= 1;
        let ordinal = top.1;
        top.1 = top.1.checked_add(1).ok_or("child count overflows an ordinal")?;
        if open.len() > MAX_DECODE_DEPTH {
            return Err("document nesting exceeds the decode depth bound".into());
        }
        path.push(ordinal);
        let flow = match s.byte()? {
            1 => {
                s.skip_str()?;
                let flow = visit(&path, false, 0);
                path.pop();
                flow
            }
            0 => {
                let children = s.element_rest()?;
                open.push((children, 0));
                visit(&path, true, children)
            }
            k => return Err(format!("unknown node kind {k}")),
        };
        if flow.is_break() {
            return Ok(ControlFlow::Break(()));
        }
    }
    Ok(ControlFlow::Continue(()))
}

/// [`walk_encoded`]'s reader: the same record grammar as [`Cursor`],
/// pulled from a stream instead of a slice.
struct Stream<'r, R> {
    src: &'r mut R,
}

impl<R: Read> Stream<'_, R> {
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), String> {
        self.src.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => "truncated document record".to_string(),
            _ => e.to_string(),
        })
    }

    fn byte(&mut self) -> Result<u8, String> {
        let mut b = [0u8];
        self.fill(&mut b)?;
        Ok(b[0])
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overruns 64 bits".into())
    }

    fn skip_str(&mut self) -> Result<(), String> {
        let mut left = self.varint()?;
        let mut scratch = [0u8; 64];
        while left > 0 {
            let n = left.min(scratch.len() as u64) as usize;
            self.fill(&mut scratch[..n])?;
            left -= n as u64;
        }
        Ok(())
    }

    /// An element after its kind byte: skips tag and attributes,
    /// returns the child count.
    fn element_rest(&mut self) -> Result<u64, String> {
        self.skip_str()?;
        for _ in 0..self.varint()? {
            self.skip_str()?;
            self.skip_str()?;
        }
        self.varint()
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn byte(&mut self) -> Result<u8, String> {
        let b = *self.bytes.get(self.pos).ok_or("truncated document record")?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint overruns 64 bits".into())
    }

    // xk-analyze: allow(panic_path, reason = "end is checked_add-bounded to bytes.len() before the slice")
    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.varint()? as usize;
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or("string overruns the document record")?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "string is not UTF-8".to_string())?;
        self.pos = end;
        Ok(s)
    }

    fn attrs(&mut self) -> Result<Vec<crate::tree::Attribute>, String> {
        let n = self.varint()? as usize;
        if n > self.bytes.len() {
            return Err("attribute count overruns the document record".into());
        }
        let mut attrs = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.str()?.to_string();
            let value = self.str()?.to_string();
            attrs.push(crate::tree::Attribute { name, value });
        }
        Ok(attrs)
    }
}

/// Depth guard: a decoded chain deeper than this is corrupt, not a
/// document (Dewey components cap out far earlier in practice).
const MAX_DECODE_DEPTH: usize = 4096;

fn decode_node(
    cur: &mut Cursor<'_>,
    tree: &mut XmlTree,
    parent: NodeId,
    depth: usize,
) -> Result<(), String> {
    if depth > MAX_DECODE_DEPTH {
        return Err("document nesting exceeds the decode depth bound".into());
    }
    match cur.byte()? {
        1 => {
            let text = cur.str()?.to_string();
            tree.append_text(parent, text);
            Ok(())
        }
        0 => {
            let tag = cur.str()?.to_string();
            let attrs = cur.attrs()?;
            let id = tree.append_element_with_attrs(parent, tag, attrs);
            let children = cur.varint()?;
            if children as usize > cur.bytes.len() - cur.pos {
                return Err("child count overruns the document record".into());
            }
            for _ in 0..children {
                decode_node(cur, tree, id, depth + 1)?;
            }
            Ok(())
        }
        k => Err(format!("unknown node kind {k}")),
    }
}

fn escape_text(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
}

fn escape_attr(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::tree::XmlTree;

    #[test]
    fn compact_roundtrip() {
        let src = "<a x=\"1\"><b>hi</b><c/><d>x &amp; y</d></a>";
        let t = parse(src).unwrap();
        assert_eq!(to_xml_string(&t, NodeId::ROOT), src);
    }

    #[test]
    fn escaping() {
        let mut t = XmlTree::new("r");
        t.append_text(NodeId::ROOT, "a<b>&c");
        let s = to_xml_string(&t, NodeId::ROOT);
        assert_eq!(s, "<r>a&lt;b&gt;&amp;c</r>");
        assert_eq!(parse(&s).unwrap().text_content(NodeId::ROOT), "a<b>&c");
    }

    #[test]
    fn pretty_printing_indents_and_inlines_text() {
        let t = parse("<a><b>hi</b><c><d>deep</d></c></a>").unwrap();
        let s = to_pretty_xml_string(&t, NodeId::ROOT);
        assert!(s.contains("\n  <b>hi</b>"), "{s}");
        assert!(s.contains("\n    <d>deep</d>"), "{s}");
        // Pretty output reparses to the same tree.
        let t2 = parse(&s).unwrap();
        assert_eq!(t.len(), t2.len());
    }

    #[test]
    fn serialize_subtree_only() {
        let t = parse("<a><b><x>1</x></b><c>2</c></a>").unwrap();
        let b = t.children(NodeId::ROOT)[0];
        assert_eq!(to_xml_string(&t, b), "<b><x>1</x></b>");
    }

    fn assert_same_tree(a: &XmlTree, b: &XmlTree) {
        assert_eq!(a.len(), b.len());
        for (na, nb) in a.preorder().zip(b.preorder()) {
            assert_eq!(a.content(na), b.content(nb));
            assert_eq!(a.dewey(na), b.dewey(nb));
        }
    }

    #[test]
    fn structural_roundtrip_is_lossless() {
        let t = parse("<a x=\"1\" y=\"two\"><b>hi</b><c/><d>x &amp; y</d></a>").unwrap();
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_same_tree(&t, &back);
    }

    #[test]
    fn structural_roundtrip_keeps_adjacent_text_nodes() {
        // The case XML text cannot represent: two text siblings. An XML
        // round-trip merges them into one node; the structural encoding
        // must not.
        let mut t = XmlTree::new("r");
        t.append_text(NodeId::ROOT, "one");
        t.append_text(NodeId::ROOT, "two");
        t.append_element(NodeId::ROOT, "e");
        let merged = parse(&to_xml_string(&t, NodeId::ROOT)).unwrap();
        assert_eq!(merged.len(), 3, "XML text merges the adjacent texts");
        let back = decode_tree(&encode_tree(&t)).unwrap();
        assert_same_tree(&t, &back);
        assert_eq!(back.children(NodeId::ROOT).len(), 3);
    }

    #[test]
    fn structural_decode_rejects_corruption() {
        let t = parse("<a><b>hi</b></a>").unwrap();
        let good = encode_tree(&t);
        assert!(decode_tree(&good[1..]).is_err(), "missing magic");
        for cut in TREE_MAGIC.len()..good.len() {
            assert!(decode_tree(&good[..cut]).is_err(), "truncation at {cut}");
        }
        let mut extra = good.clone();
        extra.push(0);
        assert!(decode_tree(&extra).is_err(), "trailing bytes");
        // Hand-built record whose child carries an unknown kind tag:
        // magic, element "r" with no attributes and one child, kind 7.
        let mut bad_kind = TREE_MAGIC.to_vec();
        bad_kind.extend_from_slice(&[0, 1, b'r', 0, 1, 7]);
        assert!(decode_tree(&bad_kind).is_err(), "unknown node kind");
    }

    #[test]
    fn prefix_decode_reports_where_the_tree_ends() {
        let t = parse("<a><b>hi</b><c/></a>").unwrap();
        let mut bytes = encode_tree(&t);
        let len = bytes.len();
        bytes.extend_from_slice(b"whatever follows");
        let (back, used) = decode_tree_prefix(&bytes).unwrap();
        assert_eq!(used, len);
        assert_same_tree(&t, &back);
        assert!(decode_tree(&bytes).is_err(), "the full decode still rejects trailing bytes");
    }

    /// `(path, element, children)` per node, the way `walk_encoded`
    /// reports them.
    fn walked(bytes: &[u8]) -> Result<Vec<(Vec<u32>, bool, u64)>, String> {
        let mut seen = Vec::new();
        let flow = walk_encoded(&mut &bytes[..], |path, element, children| {
            seen.push((path.to_vec(), element, children));
            ControlFlow::Continue(())
        })?;
        assert_eq!(flow, ControlFlow::Continue(()));
        Ok(seen)
    }

    #[test]
    fn walk_visits_every_node_in_preorder_without_a_tree() {
        let mut t = parse("<a x=\"1\"><b>hi</b><c/><d><e>deep</e>tail</d></a>").unwrap();
        t.append_text(NodeId::ROOT, "one");
        t.append_text(NodeId::ROOT, "two");
        let expected: Vec<(Vec<u32>, bool, u64)> = t
            .preorder()
            .map(|n| {
                let path = t.dewey(n).components().to_vec();
                (path, t.content(n).is_element(), t.children(n).len() as u64)
            })
            .collect();
        let bytes = encode_tree(&t);
        assert_eq!(walked(&bytes).unwrap(), expected);

        // The walk stops at the encoding's last byte.
        let mut stream = bytes.clone();
        stream.extend_from_slice(b"next");
        let mut src = &stream[..];
        assert!(walk_encoded(&mut src, |_, _, _| ControlFlow::Continue(())).is_ok());
        assert_eq!(src, b"next");

        // An early break is reported, and nothing after it is visited.
        let mut visits = 0;
        let flow = walk_encoded(&mut &bytes[..], |path, _, _| {
            visits += 1;
            if path == [1] {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, Ok(ControlFlow::Break(())));
        assert_eq!(visits, 4, "root, 0, 0.0, 1");
    }

    #[test]
    fn walk_rejects_what_decode_rejects_structurally() {
        let t = parse("<a><b>hi</b></a>").unwrap();
        let good = encode_tree(&t);
        assert!(walked(&good[1..]).is_err(), "missing magic");
        for cut in 0..good.len() {
            assert!(walked(&good[..cut]).is_err(), "truncation at {cut}");
        }
        let mut bad_kind = TREE_MAGIC.to_vec();
        bad_kind.extend_from_slice(&[0, 1, b'r', 0, 1, 7]);
        assert!(walked(&bad_kind).is_err(), "unknown node kind");
        let mut text_root = TREE_MAGIC.to_vec();
        text_root.extend_from_slice(&[1, 1, b'r']);
        assert!(walked(&text_root).is_err(), "text root");
    }
}
