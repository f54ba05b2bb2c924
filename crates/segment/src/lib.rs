//! Immutable packed posting segments with compressed Dewey ids.
//!
//! This crate is the segment store behind `xksearch`'s append path: an
//! LSM-flavoured alternative to updating the B+tree posting lists in
//! place. Fresh `append_subtree` batches are journaled and absorbed into
//! a mutable [`MemSegment`]; once it grows past a threshold the engine
//! seals it into an immutable packed blob (the **XKSEG2** format — see
//! [`mod@format`] and [`codec`]) where each keyword's postings are cut
//! into chunks of fixed-stride keys, bit-packed at the chunk's own
//! per-level widths so that they compare as integers, in fixed-size
//! blocks with per-block CRC-32Cs and skip entries. A sealed blob
//! is written, fsynced, and atomically renamed before the transaction
//! that publishes it commits, mirroring the crash discipline of the
//! engine's index build.
//!
//! [`SegmentReader`] serves the four SLCA algorithms through one
//! [`SegCursor`] per keyword, the `xk_slca::PostingCursor` the B+tree
//! reference implements too: a seek binary-searches the in-memory skip
//! table, then makes at most one chunk load (one block read + CRC + one
//! integer check pass) into a buffer the cursor reuses, binary-searches
//! the packed keys where they lie, and unpacks only the postings asked
//! for, into reused buffers — no allocation. [`merge`] folds runs of small adjacent segments
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
pub use reader::{KwEntry, SegCursor, SegmentReader};
pub use verify::{verify_store, SegmentVerifyReport};
pub use writer::{seal, unsealable, Chunk, SealSpec};
