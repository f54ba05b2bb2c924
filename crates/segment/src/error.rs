//! Segment error type and the per-read error slot.
//!
//! The `xk-slca` posting cursor is infallible by design, so the segment
//! cursor reports I/O and corruption failures the same way the
//! disk-index cursor does: through the caller's [`ErrorSlot`], which the
//! engine checks once the algorithm finishes. Corruption is always a
//! typed error — a segment blob with a bad CRC, a non-monotone skip
//! entry, or a truncated dictionary never panics.

use std::fmt;
use xk_storage::StorageError;

/// Errors from writing, opening, or reading a packed segment.
#[derive(Debug)]
pub enum SegmentError {
    /// Underlying pager / file I/O failure.
    Storage(StorageError),
    /// The blob violates the XKSEG2 format (bad magic or version, CRC
    /// mismatch, truncated dictionary, a malformed or out-of-order key,
    /// ...).
    Corrupt(String),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Storage(e) => write!(f, "segment storage error: {e}"),
            SegmentError::Corrupt(m) => write!(f, "corrupt segment: {m}"),
        }
    }
}

impl std::error::Error for SegmentError {}

impl From<StorageError> for SegmentError {
    fn from(e: StorageError) -> Self {
        SegmentError::Storage(e)
    }
}

impl From<std::io::Error> for SegmentError {
    fn from(e: std::io::Error) -> Self {
        SegmentError::Storage(StorageError::from(e))
    }
}

/// Convenience alias for segment results.
pub type Result<T> = std::result::Result<T, SegmentError>;

/// The per-read slot segment cursors report into: the workspace's
/// one first-error-wins slot, carrying a [`SegmentError`].
pub type ErrorSlot = xk_slca::ErrorSlot<SegmentError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins() {
        let slot = ErrorSlot::new();
        assert!(!slot.is_poisoned());
        slot.poison(SegmentError::Corrupt("first".into()));
        slot.poison(SegmentError::Corrupt("second".into()));
        let err = slot.take().unwrap();
        assert!(err.to_string().contains("first"), "{err}");
        assert!(slot.take().is_none(), "slot cleared after take");
    }
}
