//! # xk-index
//!
//! Inverted keyword indexes over XML trees for the XKSearch reproduction
//! (Xu & Papakonstantinou, SIGMOD 2005, Section 4):
//!
//! * [`LevelTable`] — per-level Dewey bit widths derived from the
//!   document's fanouts;
//! * [`codec`] — the packed Dewey codec: level-table compression with
//!   `memcmp` order preservation (continuation-bit scheme) plus probe
//!   encoding for positions beyond the document shape (the Section 5
//!   "uncle node");
//! * [`MemIndex`] — in-memory keyword → sorted Dewey lists;
//! * [`DiskIndex`] / [`build_disk_index`] — the on-disk layout,
//!   immutable after `bulk_load`: a vocabulary B+tree (the frequency
//!   table), the composite-key B+tree for Indexed Lookup matches, and
//!   sequential list chains for scanning,
//!   with [`DiskCursor`] implementing the `xk-slca` posting cursor over
//!   both (storage failures fill the caller's `xk_slca::ErrorSlot`
//!   instead of panicking);
//! * [`document`] — the stored document as an append-only log (a base
//!   tree plus one record per appended fragment), its full decode
//!   [`read_document`], and the streamed [`Spine`] appends extend;
//! * [`verify_index`] — offline structural verification of a built index:
//!   checksums, B+tree invariants, chain accounting, record decode.

pub mod codec;
pub mod diskindex;
pub mod document;
pub mod leveltable;
pub mod memindex;
pub mod verify;

pub use codec::{decode_dewey, encode_dewey, encode_probe, encode_upper_bound, CodecError, Probe};
pub use diskindex::{
    build_disk_index, BuildOptions, DiskCursor, DiskIndex, IndexError,
    KeywordMeta, Result, SLOT_IL, SLOT_VOCAB,
};
pub use document::{
    append_fragment, document_node, document_spine, graft, read_document, write_document, Refusal,
    Spine, SpineNode,
};
pub use leveltable::LevelTable;
pub use memindex::{node_tokens, MemIndex};
pub use verify::{verify_index, VerifyReport};
