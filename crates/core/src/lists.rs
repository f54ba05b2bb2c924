//! Keyword-list access: one cursor per backend.
//!
//! The paper's algorithms ask one question of a keyword list: what are
//! the closest left and right matches of `v`? Indexed Lookup Eager and
//! all-LCA ask it by random access (`lm`/`rm`, Section 3.1); Scan Eager
//! and Stack ask it by advancing through the list (Sections 3.2–3.3).
//! [`PostingCursor`] is that one primitive: [`PostingCursor::seek`]
//! positions at the first posting `>= v` — the right match — and
//! [`PostingCursor::before`] is the posting just before it, the left
//! match whenever the right one is not `v` itself;
//! [`PostingCursor::step`] steps. Postings are borrowed as component
//! slices, so reading a list allocates nothing.
//!
//! [`MemList`] is the in-memory cursor and [`ChainedCursor`] joins a
//! segment store's time-ordered parts. The disk-backed cursors live in
//! `xk-segment` (packed blobs) and `xk-index` (the B+tree reference).
//! [`RankedList`] (`rm`/`lm` as owned ids) and [`StreamList`]
//! (`next_node`) are extension traits every cursor has, for tools and
//! tests. Cursors are infallible — the algorithms are storage-agnostic —
//! so a fallible one reports through an [`ErrorSlot`] instead.

use std::sync::{Arc, Mutex};
use xk_xmltree::Dewey;

/// A shared first-error-wins slot, one per read, cloned into every
/// cursor the read builds. A cursor that hits an I/O or corruption
/// error records it here and reads as "nothing there" (which terminates
/// any of the algorithms); the reader checks [`ErrorSlot::take`] afterwards to
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

    /// [`Result::ok`] for a cursor's fallible step: the error is kept
    /// (see [`ErrorSlot::poison`]) and reads as "nothing there".
    pub fn ok<T>(&self, step: Result<T, impl Into<E>>) -> Option<T> {
        step.map_err(|e| self.poison(e.into())).ok()
    }

    /// Takes the recorded error, clearing the slot. `Some` means every
    /// list result since the last take is untrustworthy.
    pub fn take(&self) -> Option<E> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// True if a cursor has recorded an error since the last take.
    pub fn is_poisoned(&self) -> bool {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }
}

/// A position in a keyword list sorted by Dewey id: an index `i` in
/// `0..=len`. The posting at `i` is [`PostingCursor::current`] (`None`
/// past the end), the one at `i - 1` is [`PostingCursor::before`] (`None`
/// at the start). A new cursor stands at the first posting.
pub trait PostingCursor {
    /// Number of postings in the list (the paper's `|S|`).
    fn len(&self) -> u64;

    /// True iff the list has no postings.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Positions the cursor at the first posting `>= key`, forward or
    /// backward; seeking the root (`&[]`) rewinds.
    fn seek(&mut self, key: &[u32]);

    /// Steps to the next posting; a no-op past the end.
    fn step(&mut self);

    /// The posting under the cursor: after `seek(v)`, the paper's right
    /// match `rm(v, S)`.
    fn current(&mut self) -> Option<&[u32]>;

    /// The posting just before [`PostingCursor::current`]: after
    /// `seek(v)`, the left match `lm(v, S)` whenever `current() != v`.
    fn before(&mut self) -> Option<&[u32]>;
}

impl<C: PostingCursor + ?Sized> PostingCursor for &mut C {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn seek(&mut self, key: &[u32]) {
        (**self).seek(key)
    }

    fn step(&mut self) {
        (**self).step()
    }

    fn current(&mut self) -> Option<&[u32]> {
        (**self).current()
    }

    fn before(&mut self) -> Option<&[u32]> {
        (**self).before()
    }
}

impl<C: PostingCursor + ?Sized> PostingCursor for Box<C> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn seek(&mut self, key: &[u32]) {
        (**self).seek(key)
    }

    fn step(&mut self) {
        (**self).step()
    }

    fn current(&mut self) -> Option<&[u32]> {
        (**self).current()
    }

    fn before(&mut self) -> Option<&[u32]> {
        (**self).before()
    }
}

/// The paper's match operations as owned ids, over any cursor.
pub trait RankedList: PostingCursor {
    /// The **right match** `rm(v, S)`: the posting with the smallest id
    /// greater than or equal to `v`, or `None`.
    fn rm(&mut self, v: &Dewey) -> Option<Dewey> {
        self.seek(v.components());
        self.current().map(Dewey::from)
    }

    /// The **left match** `lm(v, S)`: the posting with the biggest id
    /// less than or equal to `v`, or `None`.
    fn lm(&mut self, v: &Dewey) -> Option<Dewey> {
        self.seek(v.components());
        if self.current() == Some(v.components()) {
            return Some(v.clone());
        }
        self.before().map(Dewey::from)
    }
}

impl<C: PostingCursor + ?Sized> RankedList for C {}

/// Front-to-back reading as owned ids, over any cursor.
pub trait StreamList: PostingCursor {
    /// The posting under the cursor, stepping past it; `None` at the end.
    fn next_node(&mut self) -> Option<Dewey> {
        let node = self.current().map(Dewey::from);
        self.step();
        node
    }
}

impl<C: PostingCursor + ?Sized> StreamList for C {}

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

impl PostingCursor for MemList {
    fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn seek(&mut self, key: &[u32]) {
        self.pos = self.nodes.partition_point(|n| n.components() < key);
    }

    fn step(&mut self) {
        self.pos = (self.pos + 1).min(self.nodes.len());
    }

    fn current(&mut self) -> Option<&[u32]> {
        self.nodes.get(self.pos).map(Dewey::components)
    }

    fn before(&mut self) -> Option<&[u32]> {
        self.nodes.get(self.pos.checked_sub(1)?).map(Dewey::components)
    }
}

/// One cursor over several disjoint, time-ordered parts of one
/// keyword's postings — the shape a segment store produces, where every
/// id in part `i` is smaller than every id in part `i + 1` (the engine's
/// tail-append invariant). Each part carries its first posting, so a
/// seek binary-searches those and positions **one** part; when that part
/// has no posting `>= key`, the right match is the next part's first
/// posting, known without touching that part. The left match of a miss
/// always lies in the positioned part.
pub struct ChainedCursor {
    parts: Vec<Box<dyn PostingCursor>>,
    /// Each part's first posting.
    mins: Vec<Dewey>,
    /// The positioned part. Past its end, the position is the first
    /// posting of the part after it.
    part: usize,
    total: u64,
}

impl ChainedCursor {
    /// Chains `parts`, each tagged with its first posting. Parts must be
    /// non-empty and unread, with strictly ascending minima and disjoint
    /// ranges.
    pub fn new(parts: Vec<(Dewey, Box<dyn PostingCursor>)>) -> ChainedCursor {
        debug_assert!(
            parts.windows(2).all(|w| w[0].0 < w[1].0),
            "chained parts must have ascending minima"
        );
        let (mins, parts): (Vec<Dewey>, Vec<_>) = parts.into_iter().unzip();
        let total = parts.iter().map(|p| p.len()).sum();
        ChainedCursor { parts, mins, part: 0, total }
    }
}

impl PostingCursor for ChainedCursor {
    fn len(&self) -> u64 {
        self.total
    }

    fn seek(&mut self, key: &[u32]) {
        self.part = self.mins.partition_point(|m| m.components() <= key).saturating_sub(1);
        if let Some(p) = self.parts.get_mut(self.part) {
            p.seek(key);
        }
    }

    fn step(&mut self) {
        let Some(p) = self.parts.get_mut(self.part) else { return };
        if p.current().is_some() {
            p.step();
        } else if let (Some(p), Some(min)) =
            (self.parts.get_mut(self.part + 1), self.mins.get(self.part + 1))
        {
            // The position was the next part's first posting: step past it.
            self.part += 1;
            p.seek(min.components());
            p.step();
        }
    }

    fn current(&mut self) -> Option<&[u32]> {
        match self.parts.get_mut(self.part)?.current() {
            Some(n) => Some(n),
            None => self.mins.get(self.part + 1).map(Dewey::components),
        }
    }

    fn before(&mut self) -> Option<&[u32]> {
        let (earlier, rest) = self.parts.split_at_mut(self.part);
        match rest.first_mut()?.before() {
            Some(n) => Some(n),
            None => {
                // At the part's first posting: the one before it is the
                // previous part's last.
                let prev = earlier.last_mut()?;
                prev.seek(self.mins.get(self.part)?.components());
                prev.before()
            }
        }
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
    fn cursor_steps_and_seeks_back() {
        let mut l = list(&["0.2", "0.1"]);
        assert_eq!(l.before(), None);
        assert_eq!(l.next_node(), Some(d("0.1")));
        assert_eq!(l.before(), Some(&[0, 1][..]));
        assert_eq!(l.next_node(), Some(d("0.2")));
        assert_eq!(l.next_node(), None);
        assert_eq!(l.before(), Some(&[0, 2][..]), "past the end, before is the last");
        l.seek(&[]);
        assert_eq!(l.next_node(), Some(d("0.1")));
    }

    #[test]
    fn empty_list() {
        let mut l = MemList::new(vec![]);
        assert!(l.is_empty());
        assert_eq!(l.rm(&d("0")), None);
        assert_eq!(l.lm(&d("0")), None);
        assert_eq!(l.next_node(), None);
    }

    /// Splits `all` into disjoint consecutive runs and chains them.
    fn chained_from(all: &[Dewey], cuts: &[usize]) -> ChainedCursor {
        let mut parts: Vec<(Dewey, Box<dyn PostingCursor>)> = Vec::new();
        let mut start = 0;
        for &cut in cuts.iter().chain(std::iter::once(&all.len())) {
            if cut > start {
                let run = all[start..cut].to_vec();
                parts.push((run[0].clone(), Box::new(MemList::from_sorted(run))));
                start = cut;
            }
        }
        ChainedCursor::new(parts)
    }

    #[test]
    fn chained_matches_flat_oracle() {
        let all: Vec<Dewey> = ["0.0", "0.1", "0.1.0.2", "0.2", "0.4.1", "0.4.2", "0.7", "1.0"]
            .iter()
            .map(|s| d(s))
            .collect();
        let mut oracle = MemList::from_sorted(all.clone());
        for cuts in [vec![], vec![3], vec![1, 4, 6], vec![2, 3, 3, 4, 5]] {
            let mut chain = chained_from(&all, &cuts);
            assert_eq!(chain.len(), all.len() as u64);
            let mut probes = all.clone();
            probes.extend(["0", "0.0.0", "0.3", "0.4.1.9", "0.9", "2"].iter().map(|s| d(s)));
            for p in &probes {
                assert_eq!(chain.rm(p), oracle.rm(p), "rm({p}) cuts {cuts:?}");
                assert_eq!(chain.lm(p), oracle.lm(p), "lm({p}) cuts {cuts:?}");
                chain.seek(p.components());
                oracle.seek(p.components());
                assert_eq!(chain.before(), oracle.before(), "before({p}) cuts {cuts:?}");
            }
            chain.seek(&[]);
            let drained: Vec<Dewey> = std::iter::from_fn(|| chain.next_node()).collect();
            assert_eq!(drained, all, "cuts {cuts:?}");
        }
    }

    #[test]
    fn chained_empty() {
        let mut empty = ChainedCursor::new(vec![]);
        assert!(empty.is_empty());
        assert_eq!(empty.rm(&d("0")), None);
        assert_eq!(empty.lm(&d("0")), None);
        assert_eq!(empty.next_node(), None);
    }
}
