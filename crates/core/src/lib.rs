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
//!   eager loop, with every match step answered by a forward-only
//!   [`ScanCursor`] that reads each list once, front to back, so the
//!   query costs `O(d·Σ|S_i| + k·d·|S_1|)` and no indexed lookup;
//! * [`stack_merge`] — the prior-work sort-merge Stack algorithm (XRANK's
//!   DIL adapted to SLCA semantics), `O(k·d·Σ|S_i|)`;
//! * [`brute_force_slca`] — the `O(d·Π|S_i|)` oracle;
//! * [`all_lcas`] — the Section 5 extension enumerating *all* LCAs with
//!   exactly one `checkLCA` per SLCA ancestor.
//!
//! Keyword lists are abstracted by [`RankedList`] (indexed left/right
//! match) and [`StreamList`] (sequential scan, allocation-free through
//! [`StreamList::next_into`]); [`MemList`] implements
//! both in memory; `xk-index` and `xk-segment` provide disk-backed
//! implementations, which report storage failures through an
//! [`ErrorSlot`] because the traits are infallible.
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
pub use lists::{
    ChainedRankedList, ChainedStreamList, ErrorSlot, MemList, RankedList, StreamList,
};
pub use matching::{deeper, deepest_dominator_ranked, EagerFilter, ScanCursor};
pub use slca::{
    indexed_lookup_eager, indexed_lookup_eager_buffered, indexed_lookup_eager_collect,
    scan_eager, scan_eager_collect, stack_merge, stack_merge_collect,
};
pub use stats::AlgoStats;
