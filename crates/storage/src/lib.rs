//! # xk-storage
//!
//! The disk substrate for the XKSearch reproduction — the stand-in for the
//! Berkeley DB B-trees used by the paper (Xu & Papakonstantinou, SIGMOD
//! 2005, Section 4):
//!
//! * [`pager`] — fixed-size page files ([`FilePager`]) and an in-memory
//!   twin ([`MemPager`]);
//! * [`mod@env`] — [`StorageEnv`]: an LRU buffer pool with disk-access
//!   accounting ([`IoStats`]), page allocation, named root slots, and
//!   cache control for the hot/cold-cache experiments;
//! * [`btree`] — a disk B+tree with doubly-linked leaves whose
//!   [`BTree::seek_ge`]/[`BTree::seek_le`] realize the paper's right/left
//!   match primitives; immutable after [`BTree::bulk_load`];
//! * [`liststore`] — sequential page chains for the Scan/Stack keyword-
//!   list layout;
//! * [`checksum`] — the CRC-32 stamped into every page's trailer and
//!   verified on buffer-pool misses (format v2, `XKSTORE2`), and the
//!   CRC-32C ([`crc32c`], SSE4.2 when present) of segment blocks;
//! * [`fault`] — [`FaultPager`]: deterministic, seeded fault injection
//!   (failed I/O, torn writes, bit flips) for crash-simulation tests;
//! * [`wal`] — [`Wal`]: a checksummed, length-prefixed write-ahead log
//!   with generation-numbered resets and group-commit fsync batching;
//! * [`recovery`] — [`recover`]/[`recover_files`]: idempotent replay of
//!   committed WAL transactions into the database file, with torn-tail
//!   truncation.
//!
//! ```
//! use xk_storage::{StorageEnv, EnvOptions, BTree};
//! let env = StorageEnv::in_memory(EnvOptions::default());
//! let entries = vec![(b"key".to_vec(), b"value".to_vec())];
//! let tree = BTree::bulk_load(&env, 0, entries).unwrap();
//! assert_eq!(tree.get(&env, b"key").unwrap(), Some(b"value".to_vec()));
//! ```

pub mod btree;
pub mod checksum;
pub mod env;
pub mod error;
pub mod fault;
pub mod liststore;
pub mod pager;
pub mod recovery;
pub mod stats;
pub mod wal;

pub use btree::{BTree, BTreeCursor, Cursor};
pub use checksum::{crc32, crc32c};
pub use env::{EnvOptions, StorageEnv, TxnCommit, FORMAT_VERSION, PAGE_TRAILER, ROOT_SLOTS};
pub use error::{Result, StorageError};
pub use recovery::{recover, recover_files, RecoveryReport};
pub use fault::{FaultConfig, FaultPager, FaultProbe};
pub use liststore::{
    free_list, inspect_chain, ChainInfo, ListAppender, ListHandle, ListReader, ListWriter,
    LIST_HANDLE_BYTES,
};
pub use pager::{FilePager, MemPager, PageId, Pager};
pub use stats::IoStats;
pub use wal::{CommittedTxn, ScanOutcome, Wal, WAL_PAGE_SIZE};
