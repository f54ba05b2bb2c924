//! Keyword-list abstractions.
//!
//! The paper's algorithms access keyword lists in two ways:
//!
//! * **indexed** — the left/right match operations `lm(v, S)` / `rm(v, S)`
//!   (Indexed Lookup Eager, all-LCA): [`RankedList`];
//! * **sequential** — front-to-back streaming (Scan Eager, Stack, and the
//!   `S_1` iteration of every eager algorithm): [`StreamList`], whose
//!   [`StreamList::next_into`] fills a caller-owned buffer instead of
//!   allocating a `Dewey` per node.
//!
//! [`MemList`] implements both over an in-memory sorted `Vec<Dewey>`.
//! Disk-backed implementations live in `xk-index` (B+tree `seek_ge` /
//! `seek_le` and the sequential list store) and `xk-segment` (packed
//! blobs). Both traits are infallible — the algorithms are
//! storage-agnostic — so a fallible adapter reports through an
//! [`ErrorSlot`] instead.

use std::sync::{Arc, Mutex};
use xk_xmltree::Dewey;

/// A shared first-error-wins slot, one per read, cloned into every list
/// adapter the read builds. An adapter that hits an I/O or corruption
/// error records it here and returns `None` (which terminates any of
/// the algorithms); the reader checks [`ErrorSlot::take`] afterwards to
/// tell "no match" from "the storage layer failed".
pub struct ErrorSlot<E> {
    slot: Arc<Mutex<Option<E>>>,
}

impl<E> Clone for ErrorSlot<E> {
    fn clone(&self) -> Self {
        ErrorSlot { slot: Arc::clone(&self.slot) }
    }
}

impl<E> Default for ErrorSlot<E> {
    fn default() -> Self {
        ErrorSlot { slot: Arc::default() }
    }
}

impl<E> ErrorSlot<E> {
    /// A fresh, empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an error; the first one wins (it is the root cause,
    /// anything after it is fallout).
    pub fn poison(&self, err: E) {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// [`Result::ok`] for an adapter's fallible step: the error is kept
    /// (see [`ErrorSlot::poison`]) and reads as "nothing there".
    pub fn ok<T>(&self, step: Result<T, impl Into<E>>) -> Option<T> {
        step.map_err(|e| self.poison(e.into())).ok()
    }

    /// Takes the recorded error, clearing the slot. `Some` means every
    /// list result since the last take is untrustworthy.
    pub fn take(&self) -> Option<E> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// True if an adapter has recorded an error since the last take.
    pub fn is_poisoned(&self) -> bool {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

/// Indexed access to a keyword list sorted by Dewey id.
pub trait RankedList {
    /// Number of nodes in the list (the paper's `|S|`).
    fn len(&self) -> u64;

    /// True iff the list has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The paper's **right match** `rm(v, S)`: the node of `S` with the
    /// smallest id greater than or equal to `v`, or `None`.
    fn rm(&mut self, v: &Dewey) -> Option<Dewey>;

    /// The paper's **left match** `lm(v, S)`: the node of `S` with the
    /// biggest id less than or equal to `v`, or `None`.
    fn lm(&mut self, v: &Dewey) -> Option<Dewey>;
}

/// Sequential front-to-back access to a keyword list sorted by Dewey id.
pub trait StreamList {
    /// Number of nodes in the list.
    fn len(&self) -> u64;

    /// True iff the list has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the stream to the beginning.
    fn rewind(&mut self);

    /// The next node in id order, or `None` at the end.
    fn next_node(&mut self) -> Option<Dewey>;

    /// [`StreamList::next_node`] into a caller-owned buffer: on `true`
    /// `buf` holds the next node's components; on `false` (the end) its
    /// contents are unspecified. Scan Eager's cursors read through this,
    /// so a list that overrides it streams without allocating per node.
    fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        let Some(n) = self.next_node() else { return false };
        buf.clear();
        buf.extend_from_slice(n.components());
        true
    }
}

impl<L: RankedList + ?Sized> RankedList for &mut L {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        (**self).rm(v)
    }

    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        (**self).lm(v)
    }
}

impl<L: StreamList + ?Sized> StreamList for &mut L {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn rewind(&mut self) {
        (**self).rewind()
    }

    fn next_node(&mut self) -> Option<Dewey> {
        (**self).next_node()
    }

    fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        (**self).next_into(buf)
    }
}

impl<L: RankedList + ?Sized> RankedList for Box<L> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        (**self).rm(v)
    }

    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        (**self).lm(v)
    }
}

impl<L: StreamList + ?Sized> StreamList for Box<L> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn rewind(&mut self) {
        (**self).rewind()
    }

    fn next_node(&mut self) -> Option<Dewey> {
        (**self).next_node()
    }

    fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        (**self).next_into(buf)
    }
}

/// An in-memory keyword list: a sorted, duplicate-free `Vec<Dewey>`,
/// held behind an `Arc` so a snapshot's list can be read in place.
#[derive(Debug, Clone, Default)]
pub struct MemList {
    nodes: Arc<Vec<Dewey>>,
    pos: usize,
}

impl MemList {
    /// Builds a list from nodes in any order; sorts and deduplicates.
    pub fn new(mut nodes: Vec<Dewey>) -> MemList {
        nodes.sort();
        nodes.dedup();
        MemList::shared(Arc::new(nodes))
    }

    /// Builds a list from nodes already sorted and duplicate-free.
    pub fn from_sorted(nodes: Vec<Dewey>) -> MemList {
        MemList::shared(Arc::new(nodes))
    }

    /// [`MemList::from_sorted`] over a vector someone else also holds
    /// (the segment store's mem-segment view).
    pub fn shared(nodes: Arc<Vec<Dewey>>) -> MemList {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes must be strictly sorted");
        MemList { nodes, pos: 0 }
    }

    /// The underlying sorted nodes.
    pub fn nodes(&self) -> &[Dewey] {
        &self.nodes
    }
}

impl RankedList for MemList {
    fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        let idx = self.nodes.partition_point(|n| n < v);
        self.nodes.get(idx).cloned()
    }

    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        let idx = self.nodes.partition_point(|n| n <= v);
        idx.checked_sub(1).and_then(|i| self.nodes.get(i)).cloned()
    }
}

impl StreamList for MemList {
    fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn rewind(&mut self) {
        self.pos = 0;
    }

    fn next_node(&mut self) -> Option<Dewey> {
        let n = self.nodes.get(self.pos).cloned();
        if n.is_some() {
            self.pos += 1;
        }
        n
    }

    fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        let Some(n) = self.nodes.get(self.pos) else { return false };
        buf.clear();
        buf.extend_from_slice(n.components());
        self.pos += 1;
        true
    }
}

/// A [`RankedList`] over several disjoint, time-ordered parts of one
/// keyword's postings — the shape a segment store produces, where every
/// id in part `i` is smaller than every id in part `i + 1` (the engine's
/// tail-append invariant). Each part carries its minimum id, so a probe
/// binary-searches the minima and consults **at most one** part:
///
/// * `rm(v)` — the candidate part is the last one whose min is `<= v`;
///   if it has no id `>= v`, the answer is the *next* part's min,
///   available without touching that part at all.
/// * `lm(v)` — the candidate part is guaranteed to contain the answer
///   (its min qualifies).
pub struct ChainedRankedList {
    parts: Vec<(Dewey, Box<dyn RankedList>)>,
    total: u64,
}

impl ChainedRankedList {
    /// Chains `parts`, each tagged with its minimum id. Parts must be
    /// non-empty, with strictly ascending minima and disjoint ranges.
    pub fn new(parts: Vec<(Dewey, Box<dyn RankedList>)>) -> ChainedRankedList {
        debug_assert!(
            parts.windows(2).all(|w| w[0].0 < w[1].0),
            "chained parts must have ascending minima"
        );
        let total = parts.iter().map(|(_, p)| p.len()).sum();
        ChainedRankedList { parts, total }
    }
}

impl RankedList for ChainedRankedList {
    fn len(&self) -> u64 {
        self.total
    }

    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        let idx = self.parts.partition_point(|(min, _)| min <= v);
        if idx == 0 {
            // v precedes every part: the global minimum answers.
            return self.parts.first().map(|(min, _)| min.clone());
        }
        // xk-analyze: allow(panic_path, reason = "partition_point returned idx > 0, so idx - 1 indexes within parts")
        if let Some(n) = self.parts[idx - 1].1.rm(v) {
            return Some(n);
        }
        self.parts.get(idx).map(|(min, _)| min.clone())
    }

    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        let idx = self.parts.partition_point(|(min, _)| min <= v);
        if idx == 0 {
            return None;
        }
        // xk-analyze: allow(panic_path, reason = "partition_point returned idx > 0, so idx - 1 indexes within parts")
        self.parts[idx - 1].1.lm(v)
    }
}

/// A [`StreamList`] concatenating several parts front to back (same
/// disjoint time-ordered shape as [`ChainedRankedList`]).
pub struct ChainedStreamList {
    parts: Vec<Box<dyn StreamList>>,
    cur: usize,
    total: u64,
}

impl ChainedStreamList {
    /// Chains `parts` in id order.
    pub fn new(parts: Vec<Box<dyn StreamList>>) -> ChainedStreamList {
        let total = parts.iter().map(|p| p.len()).sum();
        ChainedStreamList { parts, cur: 0, total }
    }
}

impl StreamList for ChainedStreamList {
    fn len(&self) -> u64 {
        self.total
    }

    fn rewind(&mut self) {
        for p in &mut self.parts {
            p.rewind();
        }
        self.cur = 0;
    }

    fn next_node(&mut self) -> Option<Dewey> {
        while let Some(p) = self.parts.get_mut(self.cur) {
            if let Some(n) = p.next_node() {
                return Some(n);
            }
            self.cur += 1;
        }
        None
    }

    fn next_into(&mut self, buf: &mut Vec<u32>) -> bool {
        while let Some(p) = self.parts.get_mut(self.cur) {
            if p.next_into(buf) {
                return true;
            }
            self.cur += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn list(items: &[&str]) -> MemList {
        MemList::new(items.iter().map(|s| d(s)).collect())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let l = list(&["0.2", "0.1", "0.2", "0"]);
        let ids: Vec<String> = l.nodes().iter().map(|n| n.to_string()).collect();
        assert_eq!(ids, ["0", "0.1", "0.2"]);
    }

    #[test]
    fn rm_and_lm() {
        let mut l = list(&["0.1", "0.3", "0.5"]);
        assert_eq!(l.rm(&d("0.3")), Some(d("0.3"))); // exact
        assert_eq!(l.lm(&d("0.3")), Some(d("0.3")));
        assert_eq!(l.rm(&d("0.2")), Some(d("0.3"))); // between
        assert_eq!(l.lm(&d("0.2")), Some(d("0.1")));
        assert_eq!(l.rm(&d("0.6")), None); // past the end
        assert_eq!(l.lm(&d("0.6")), Some(d("0.5")));
        assert_eq!(l.rm(&d("0.0")), Some(d("0.1"))); // before the start
        assert_eq!(l.lm(&d("0.0")), None);
    }

    #[test]
    fn lm_rm_with_ancestor_ids() {
        // 0.1 < 0.1.0 in preorder; matches respect that.
        let mut l = list(&["0.1", "0.1.0.2", "0.2"]);
        assert_eq!(l.rm(&d("0.1.0")), Some(d("0.1.0.2")));
        assert_eq!(l.lm(&d("0.1.0")), Some(d("0.1")));
    }

    #[test]
    fn stream_iterates_in_order_and_rewinds() {
        let mut l = list(&["0.2", "0.1"]);
        assert_eq!(l.next_node(), Some(d("0.1")));
        assert_eq!(l.next_node(), Some(d("0.2")));
        assert_eq!(l.next_node(), None);
        l.rewind();
        assert_eq!(l.next_node(), Some(d("0.1")));
    }

    #[test]
    fn empty_list() {
        let mut l = MemList::new(vec![]);
        assert!(RankedList::is_empty(&l));
        assert_eq!(l.rm(&d("0")), None);
        assert_eq!(l.lm(&d("0")), None);
        assert_eq!(l.next_node(), None);
    }

    /// Splits `all` into disjoint consecutive runs and chains them.
    fn chained_from(all: &[Dewey], cuts: &[usize]) -> ChainedRankedList {
        let mut parts: Vec<(Dewey, Box<dyn RankedList>)> = Vec::new();
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&all.len())) {
            if cut > start {
                let run = all[start..cut].to_vec();
                parts.push((run[0].clone(), Box::new(MemList::from_sorted(run))));
                start = cut;
            }
        }
        ChainedRankedList::new(parts)
    }

    #[test]
    fn chained_ranked_matches_flat_oracle() {
        let all: Vec<Dewey> =
            ["0.0", "0.1", "0.1.0.2", "0.2", "0.4.1", "0.4.2", "0.7", "1.0"]
                .iter()
                .map(|s| d(s))
                .collect();
        let mut oracle = MemList::from_sorted(all.clone());
        for cuts in [vec![], vec![3], vec![1, 4, 6], vec![2, 3, 4, 5]] {
            let mut chain = chained_from(&all, &cuts);
            assert_eq!(RankedList::len(&chain), all.len() as u64);
            let mut probes = all.clone();
            probes.extend(["0", "0.0.0", "0.3", "0.4.1.9", "0.9", "2"].iter().map(|s| d(s)));
            for p in &probes {
                assert_eq!(chain.rm(p), oracle.rm(p), "rm({p}) cuts {cuts:?}");
                assert_eq!(chain.lm(p), oracle.lm(p), "lm({p}) cuts {cuts:?}");
            }
        }
    }

    #[test]
    fn chained_ranked_empty_and_single() {
        let mut empty = ChainedRankedList::new(vec![]);
        assert!(RankedList::is_empty(&empty));
        assert_eq!(empty.rm(&d("0")), None);
        assert_eq!(empty.lm(&d("0")), None);
    }

    #[test]
    fn chained_stream_concatenates_and_rewinds() {
        let a = MemList::from_sorted(vec![d("0.1"), d("0.2")]);
        let b = MemList::from_sorted(vec![d("0.5")]);
        let mut s = ChainedStreamList::new(vec![Box::new(a), Box::new(b)]);
        assert_eq!(StreamList::len(&s), 3);
        let mut got = Vec::new();
        while let Some(n) = s.next_node() {
            got.push(n);
        }
        assert_eq!(got, vec![d("0.1"), d("0.2"), d("0.5")]);
        s.rewind();
        assert_eq!(s.next_node(), Some(d("0.1")));
        let mut none = ChainedStreamList::new(vec![]);
        assert_eq!(none.next_node(), None);
    }
}
