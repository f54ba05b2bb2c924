//! # xk-xmltree
//!
//! The XML substrate for the XKSearch reproduction (Xu & Papakonstantinou,
//! *Efficient Keyword Search for Smallest LCAs in XML Databases*, SIGMOD
//! 2005): a labeled ordered tree model, Dewey-number node ids, a from-
//! scratch XML parser and serializer, and keyword tokenization.
//!
//! * [`Dewey`] — hierarchical ids; lexicographic order = preorder, LCA =
//!   longest common prefix.
//! * [`XmlTree`] — arena-based labeled ordered tree with Dewey navigation.
//! * [`parse`] / [`serialize`] — XML text ↔ tree.
//! * [`tokenize()`] — label → lowercase keyword tokens.
//! * [`packed`] — Dewey numbers bit-packed at per-level widths in
//!   `memcmp` order (B+tree keys and segment posting blocks).
//!
//! ```
//! use xk_xmltree::{parse, NodeId};
//! let t = parse("<school><class><name>John</name></class></school>").unwrap();
//! let class = t.children(NodeId::ROOT)[0];
//! assert_eq!(t.dewey(class).to_string(), "0");
//! ```

pub mod dewey;
pub mod packed;
pub mod parser;
pub mod serialize;
pub mod tokenize;
pub mod tree;

pub use dewey::{Dewey, ParseDeweyError};
pub use parser::{parse, parse_with, ParseError, ParseOptions, Position};
pub use serialize::{
    decode_tree, decode_tree_prefix, encode_tree, to_pretty_xml_string, to_xml_string,
    walk_encoded,
};
pub use tokenize::{normalize_keyword, tokenize};
pub use tree::{school_example, Attribute, NodeContent, NodeId, XmlTree};
