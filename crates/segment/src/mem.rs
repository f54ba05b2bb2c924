//! The mutable in-memory segment and its copy-on-write query view.
//!
//! Fresh `append_subtree` batches land in a [`MemSegment`] (the
//! journal-backed memtable of the segment store); queries never touch it
//! directly. Instead each commit publishes a [`MemView`] — an immutable
//! snapshot sharing unchanged posting lists by `Arc` and deep-copying
//! only the keywords the commit touched — so epoch-pinned readers keep a
//! coherent picture while the writer keeps absorbing.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use xk_xmltree::Dewey;

/// The writer-side mutable segment: keyword → sorted postings.
///
/// The engine's tail-append invariant (every new Dewey id is greater
/// than every id already indexed) means postings arrive in document
/// order per keyword, so absorption is a plain push.
#[derive(Debug, Default, Clone)]
pub struct MemSegment {
    lists: BTreeMap<String, Vec<Dewey>>,
    postings: u64,
}

impl MemSegment {
    /// An empty segment.
    pub fn new() -> MemSegment {
        MemSegment::default()
    }

    /// Absorbs one posting. Callers uphold the tail-append invariant;
    /// out-of-order arrivals (e.g. a journal replayed twice) are folded
    /// in by insertion sort and duplicates dropped, so replay stays
    /// idempotent.
    pub fn absorb(&mut self, keyword: &str, id: Dewey) {
        let list = self.lists.entry(keyword.to_string()).or_default();
        match list.last() {
            Some(last) if *last < id => list.push(id),
            Some(last) if *last == id => return,
            None => list.push(id),
            _ => {
                let at = list.partition_point(|n| n < &id);
                if list.get(at) != Some(&id) {
                    list.insert(at, id);
                } else {
                    return;
                }
            }
        }
        self.postings += 1;
    }

    /// Total postings absorbed.
    pub fn posting_count(&self) -> u64 {
        self.postings
    }

    /// Number of distinct keywords.
    pub fn keyword_count(&self) -> usize {
        self.lists.len()
    }

    /// The sorted lists, for sealing into a blob.
    pub fn lists(&self) -> &BTreeMap<String, Vec<Dewey>> {
        &self.lists
    }

    /// Drops everything (after a successful seal).
    pub fn clear(&mut self) {
        self.lists.clear();
        self.postings = 0;
    }
}

/// An immutable snapshot of the mem segment, cheap to clone and to
/// publish: unchanged lists are shared by `Arc`.
#[derive(Debug, Default, Clone)]
pub struct MemView {
    lists: HashMap<String, Arc<Vec<Dewey>>>,
}

impl MemView {
    /// The empty view.
    pub fn empty() -> MemView {
        MemView::default()
    }

    /// A view of an entire mem segment (used after journal replay).
    pub fn of(seg: &MemSegment) -> MemView {
        let lists = seg
            .lists
            .iter()
            .map(|(k, v)| (k.clone(), Arc::new(v.clone())))
            .collect();
        MemView { lists }
    }

    /// The next view after a commit that appended `batch` postings:
    /// shares every untouched list, rebuilds only the touched ones from
    /// the (already updated) mem segment.
    pub fn advanced(&self, seg: &MemSegment, touched: impl IntoIterator<Item = impl AsRef<str>>) -> MemView {
        let mut lists = self.lists.clone();
        for k in touched {
            let k = k.as_ref();
            if let Some(list) = seg.lists.get(k) {
                lists.insert(k.to_string(), Arc::new(list.clone()));
            }
        }
        MemView { lists }
    }

    /// Postings for `keyword`, if any (read them through
    /// [`xk_slca::MemList::shared`]).
    pub fn list(&self, keyword: &str) -> Option<&Arc<Vec<Dewey>>> {
        self.lists.get(keyword)
    }

    /// Occurrence count of `keyword` in this view.
    pub fn frequency(&self, keyword: &str) -> u64 {
        self.lists.get(keyword).map_or(0, |l| l.len() as u64)
    }

    /// Iterates keywords with their counts.
    pub fn keywords(&self) -> impl Iterator<Item = (&str, u64)> {
        self.lists.iter().map(|(k, l)| (k.as_str(), l.len() as u64))
    }

    /// Total postings across all keywords.
    pub fn posting_count(&self) -> u64 {
        self.lists.values().map(|l| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    #[test]
    fn absorb_keeps_lists_sorted_and_idempotent() {
        let mut m = MemSegment::new();
        m.absorb("a", d("0.1"));
        m.absorb("a", d("0.2"));
        m.absorb("b", d("0.2"));
        m.absorb("a", d("0.2")); // duplicate: dropped
        m.absorb("a", d("0.0")); // out of order (replay): folded in
        assert_eq!(m.posting_count(), 4);
        assert_eq!(m.keyword_count(), 2);
        let a = &m.lists()["a"];
        assert_eq!(a.as_slice(), &[d("0.0"), d("0.1"), d("0.2")]);
    }

    #[test]
    fn views_share_untouched_lists() {
        let mut m = MemSegment::new();
        m.absorb("a", d("0"));
        m.absorb("b", d("1"));
        let v1 = MemView::of(&m);
        m.absorb("b", d("2"));
        let v2 = v1.advanced(&m, ["b"]);
        // v1 is unchanged; v2 sees the new posting; "a" is shared.
        assert_eq!(v1.frequency("b"), 1);
        assert_eq!(v2.frequency("b"), 2);
        assert!(Arc::ptr_eq(v1.list("a").unwrap(), v2.list("a").unwrap()));
        assert_eq!(v2.posting_count(), 3);
    }
}
