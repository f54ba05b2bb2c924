//! Engine error type.

use std::fmt;
use xk_index::IndexError;
use xk_segment::SegmentError;
use xk_storage::StorageError;
use xk_xmltree::ParseError;

/// Errors surfaced by the XKSearch engine.
#[derive(Debug)]
pub enum EngineError {
    Storage(StorageError),
    Index(IndexError),
    Parse(ParseError),
    /// Segment-store failures: blob I/O, XKSEG2 corruption, fence
    /// mismatches ([`xk_segment::SegmentError`]).
    Segment(SegmentError),
    /// Query-shape problems: no keywords, keyword with no token characters.
    BadQuery(String),
    /// The index was built without an embedded document, so answer
    /// subtrees cannot be rendered.
    NoDocument,
    /// An append was sent to the bulk-loaded B+tree posting layout
    /// (`Engine::build`), which is a read-only reference; only the
    /// segment layout (`Engine::build_segmented`) accepts writes.
    ReadOnlyLayout,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage error: {e}"),
            EngineError::Index(e) => write!(f, "index error: {e}"),
            EngineError::Parse(e) => write!(f, "parse error: {e}"),
            EngineError::Segment(e) => write!(f, "segment error: {e}"),
            EngineError::BadQuery(m) => write!(f, "bad query: {m}"),
            EngineError::NoDocument => {
                write!(f, "the index was built without an embedded document")
            }
            EngineError::ReadOnlyLayout => write!(
                f,
                "this database uses the read-only B+tree posting layout; \
                 rebuild it with `xksearch build` (the segment layout) to append"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Storage(e) => Some(e),
            EngineError::Index(e) => Some(e),
            EngineError::Parse(e) => Some(e),
            EngineError::Segment(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for EngineError {
    fn from(e: StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<IndexError> for EngineError {
    fn from(e: IndexError) -> Self {
        EngineError::Index(e)
    }
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<SegmentError> for EngineError {
    fn from(e: SegmentError) -> Self {
        EngineError::Segment(e)
    }
}

/// Convenience alias for engine results.
pub type Result<T> = std::result::Result<T, EngineError>;
