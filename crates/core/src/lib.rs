//! # xk-slca
//!
//! The core algorithms of *Efficient Keyword Search for Smallest LCAs in
//! XML Databases* (Xu & Papakonstantinou, SIGMOD 2005), over abstract
//! keyword lists:
//!
//! * [`indexed_lookup_eager`] — the paper's main contribution (Algorithm
//!   IL): `O(k·d·|S_1|·log|S_max|)`, orders of magnitude faster than the
//!   alternatives when keyword frequencies differ;
//! * [`scan_eager`] — the variant tuned for similar frequencies: the same
//!   eager loop, with every match step answered by advancing the list's
//!   cursor ([`scan_dominator`]) instead of seeking it
//!   ([`seek_dominator`]), so each list is read once, front to back, the
//!   query costs `O(d·Σ|S_i| + k·d·|S_1|)` and no indexed lookup;
//! * [`stack_merge`] — the prior-work sort-merge Stack algorithm (XRANK's
//!   DIL adapted to SLCA semantics), `O(k·d·Σ|S_i|)`;
//! * [`brute_force_slca`] — the `O(d·Π|S_i|)` oracle;
//! * [`all_lcas`] — the Section 5 extension enumerating *all* LCAs with
//!   exactly one `checkLCA` per SLCA ancestor.
//!
//! Every algorithm reads keyword lists through one [`PostingCursor`]:
//! `seek` positions at the first posting `>= v`, `step` steps, and
//! `current`/`before` borrow the right and left matches as slices, so a
//! query allocates only its results. [`MemList`] is the in-memory
//! cursor; `xk-index` and `xk-segment` provide the disk-backed ones,
//! which report storage failures through an [`ErrorSlot`] because the
//! cursor is infallible. [`RankedList`] (`rm`/`lm`) and [`StreamList`]
//! (`next_node`) are extension traits every cursor has.
//!
//! ```
//! use xk_slca::{MemList, RankedList, indexed_lookup_eager_collect};
//! use xk_xmltree::Dewey;
//!
//! let d = |s: &str| s.parse::<Dewey>().unwrap();
//! // Keyword "Ben" is rarer, so it plays S1.
//! let mut ben = MemList::new(vec![d("0.2.0.0"), d("1.2.0.0.0"), d("2.2.0")]);
//! let mut john = MemList::new(vec![d("0.1.0.0"), d("1.1.0.0"), d("2.1.0"), d("3.1.0.0")]);
//! let mut others: Vec<&mut dyn RankedList> = vec![&mut john];
//! let (slcas, _stats) = indexed_lookup_eager_collect(&mut ben, &mut others);
//! assert_eq!(slcas, vec![d("0"), d("1"), d("2")]);
//! ```

pub mod brute;
pub mod lca;
pub mod lists;
pub mod matching;
pub mod slca;
pub mod stats;

pub use brute::{brute_force_all_lcas, brute_force_slca, remove_ancestors};
pub use lca::{all_lcas, all_lcas_collect, LcaKind};
pub use lists::{ChainedCursor, ErrorSlot, MemList, PostingCursor, RankedList, StreamList};
pub use matching::{scan_dominator, seek_dominator, EagerFilter};
pub use slca::{
    indexed_lookup_eager, indexed_lookup_eager_buffered, indexed_lookup_eager_collect,
    scan_eager, scan_eager_collect, stack_merge, stack_merge_collect,
};
pub use stats::AlgoStats;
