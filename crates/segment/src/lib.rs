//! Immutable packed posting segments with compressed Dewey ids.
//!
//! This crate is the segment store behind `xksearch`'s append path: an
//! LSM-flavoured alternative to updating the B+tree posting lists in
//! place. Fresh `append_subtree` batches are journaled and absorbed into
//! a mutable [`MemSegment`]; once it grows past a threshold the engine
//! seals it into an immutable packed blob (the **XKSEG1** format — see
//! [`mod@format`]) where postings are delta-encoded against their
//! predecessor (shared Dewey prefix length + varint suffix) in
//! fixed-size blocks with per-block CRCs and skip entries. A sealed blob
//! is written, fsynced, and atomically renamed before the transaction
//! that publishes it commits, mirroring the crash discipline of the
//! engine's index build.
//!
//! [`SegmentReader`] serves the four SLCA algorithms through the same
//! `RankedList`/`StreamList` traits the B+tree adapters implement: an
//! `lm`/`rm` probe binary-searches the in-memory skip table, then makes
//! at most one verified chunk decode (one block read + CRC + one checked
//! pass) into buffers the list reuses, and searches those in place —
//! one allocation per answer. [`merge`] folds runs of small adjacent segments
//! together (size-tiered), and [`verify`] deep-checks a whole store for
//! `xksearch verify`.

pub mod codec;
pub mod error;
pub mod format;
pub mod io;
pub mod manifest;
pub mod mem;
pub mod merge;
pub mod reader;
pub mod verify;
pub mod writer;

pub use error::{ErrorSlot, Result, SegmentError};
pub use format::Header;
pub use io::{DirSegmentIo, FaultSegmentIo, MemSegmentIo, SegmentIo};
pub use manifest::{
    decode_journal_record, encode_journal_record, read_manifest, replay_journal, write_manifest,
    Fence, SealedMeta, SegExt,
};
pub use mem::{MemSegment, MemView};
pub use merge::{merged_lists, plan_merge, size_class, MERGE_FANOUT, MERGE_MAX_RUN};
pub use reader::{KwEntry, SegRankedList, SegStreamList, SegmentReader};
pub use verify::{verify_store, SegmentVerifyReport};
pub use writer::{seal, Chunk, SealSpec};
