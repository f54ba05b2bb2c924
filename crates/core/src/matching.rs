//! The match step (Property 1 of the paper) and the eager ancestor filter
//! (Lemmas 1 and 2).

use crate::lists::{RankedList, StreamList};
use crate::stats::AlgoStats;
use xk_xmltree::Dewey;

/// Property 1 generalized: the deepest ancestor-or-self of `q` whose
/// subtree contains a node of the list — i.e. the single node of
/// `slca({q}, S)`. Computed from the left and right matches of `q`:
/// `deeper(lca(q, lm(q, S)), lca(q, rm(q, S)))`. Returns `None` iff the
/// list is empty.
pub fn deepest_dominator_ranked(
    list: &mut dyn RankedList,
    q: &Dewey,
    stats: &mut AlgoStats,
) -> Option<Dewey> {
    stats.match_lookups += 1;
    let rm = list.rm(q);
    if rm.as_deref_eq(q) {
        // Exact hit: q itself carries the keyword; nothing can be deeper.
        return Some(q.clone());
    }
    stats.match_lookups += 1;
    let lm = list.lm(q);
    let right = rm.map(|n| {
        stats.lca_computations += 1;
        q.lca(&n)
    });
    let left = lm.map(|n| {
        stats.lca_computations += 1;
        q.lca(&n)
    });
    deeper(left, right)
}

/// Small helper: `Option<Dewey>` equality against a probe without cloning.
trait OptDeweyEq {
    fn as_deref_eq(&self, q: &Dewey) -> bool;
}

impl OptDeweyEq for Option<Dewey> {
    fn as_deref_eq(&self, q: &Dewey) -> bool {
        self.as_ref() == Some(q)
    }
}

/// The paper's `deeper` function: both arguments are ancestors-or-self of
/// the same node (hence comparable); returns the descendant one. `None`
/// arguments are ignored.
pub fn deeper(a: Option<Dewey>, b: Option<Dewey>) -> Option<Dewey> {
    match (a, b) {
        (None, x) => x,
        (x, None) => x,
        (Some(a), Some(b)) => Some(if a.depth() >= b.depth() { a } else { b }),
    }
}

/// A node held in a reused component buffer (no allocation once warm).
#[derive(Debug, Default)]
struct HeldNode {
    comps: Vec<u32>,
    held: bool,
}

impl HeldNode {
    fn get(&self) -> Option<&[u32]> {
        self.held.then_some(self.comps.as_slice())
    }

    fn set(&mut self, node: &[u32]) {
        self.comps.clear();
        self.comps.extend_from_slice(node);
        self.held = true;
    }
}

/// Length of the longest common prefix of two Dewey paths: the depth of
/// their LCA.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A forward-only cursor over a [`StreamList`] that answers the same
/// question as [`deepest_dominator_ranked`] the way Scan Eager does
/// (Section 3.2): by advancing through the list instead of issuing
/// indexed `lm`/`rm` lookups. Over a whole query each list is read at
/// most once, front to back, through [`StreamList::next_into`] into two
/// reused buffers — the node last passed (the left match) and the node
/// ahead (the right match) — so a probe allocates nothing.
///
/// Probes arrive in the order the eager loop generates them, which is
/// ascending except for one case: a later probe `q` can be an *ancestor*
/// of the largest probe `p` so far (its witness is later, but the chain
/// cut it short). The cursor then stays put, and needs no rewind: a node
/// it passed in `[q, p)` lies in `q`'s subtree, so `q` itself dominates,
/// and if it passed none there, `p`'s two neighbours are `q`'s as well.
pub struct ScanCursor<L: StreamList> {
    list: L,
    /// The next node the cursor has not passed: the right match.
    ahead: HeldNode,
    /// The largest node already passed: the left match.
    passed: HeldNode,
}

impl<L: StreamList> ScanCursor<L> {
    /// Rewinds `list` and positions the cursor before its first node.
    pub fn new(mut list: L) -> ScanCursor<L> {
        list.rewind();
        let mut ahead = HeldNode::default();
        ahead.held = list.next_into(&mut ahead.comps);
        ScanCursor { list, ahead, passed: HeldNode::default() }
    }

    /// The depth of the deepest ancestor-or-self of `q` whose subtree
    /// contains a node of the list — `deepest_dominator_ranked(q)`'s
    /// depth — found by advancing the cursor: `max(lca(q, passed),
    /// lca(q, ahead))`, or `q`'s own depth when `q` is in the list or a
    /// node passed lies in its subtree. `None` iff the list has no node
    /// (it is empty, or its stream ended on a storage error).
    ///
    /// `q` must not be smaller than an earlier probe unless it is an
    /// ancestor of the largest earlier probe, which the eager loop
    /// guarantees.
    pub fn deepest_dominator_depth(&mut self, q: &[u32], stats: &mut AlgoStats) -> Option<usize> {
        while self.ahead.get().is_some_and(|n| n < q) {
            std::mem::swap(&mut self.passed, &mut self.ahead);
            self.ahead.held = self.list.next_into(&mut self.ahead.comps);
            stats.nodes_scanned += 1;
        }
        // A forward probe leaves every passed node below `q`, so a
        // passed node at or after `q` means a backstep into its subtree.
        let ahead = self.ahead.get();
        if ahead == Some(q) || self.passed.get().is_some_and(|n| n >= q) {
            return Some(q.len());
        }
        let mut lca = |n: &[u32]| {
            stats.lca_computations += 1;
            common_prefix(q, n)
        };
        let right = ahead.map(&mut lca);
        let left = self.passed.get().map(&mut lca);
        left.max(right)
    }
}

/// The eager ancestor filter built on Lemmas 1 and 2 of the paper.
///
/// Candidates arrive in the order of their `S_1` witnesses. The filter
/// keeps a one-node frontier:
///
/// * Lemma 1 — a candidate `x` with `x <= frontier` is an ancestor (or
///   duplicate) of the frontier and is discarded;
/// * Lemma 2 — when `x > frontier` and the frontier is *not* an ancestor
///   of `x`, no later candidate can be a descendant of the frontier
///   either, so the frontier is confirmed as an SLCA immediately (this is
///   the "eagerness": results stream out before the input is exhausted).
///
/// A filter takes its candidates through one entry point: owned ones
/// through [`EagerFilter::push`], or borrowed ones through
/// [`EagerFilter::push_prefix`], which keeps the frontier in a reused
/// buffer and allocates only for the SLCAs it emits.
#[derive(Debug, Default)]
pub struct EagerFilter {
    frontier: Option<Dewey>,
    /// [`EagerFilter::push_prefix`]'s frontier.
    borrowed: HeldNode,
}

impl EagerFilter {
    /// Creates an empty filter.
    pub fn new() -> EagerFilter {
        EagerFilter::default()
    }

    /// Offers a candidate; `emit` receives any SLCA confirmed by it.
    pub fn push(&mut self, candidate: Dewey, mut emit: impl FnMut(Dewey)) {
        match self.frontier.take() {
            None => self.frontier = Some(candidate),
            Some(frontier) => {
                if candidate <= frontier {
                    // Lemma 1: candidate is an ancestor-or-duplicate.
                    self.frontier = Some(frontier);
                } else if frontier.is_ancestor_of(&candidate) {
                    self.frontier = Some(candidate);
                } else {
                    // Lemma 2: the frontier is an SLCA.
                    emit(frontier);
                    self.frontier = Some(candidate);
                }
            }
        }
    }

    /// [`EagerFilter::push`] for a borrowed candidate; the same two
    /// lemmas over the reused frontier buffer.
    pub fn push_prefix(&mut self, candidate: &[u32], mut emit: impl FnMut(Dewey)) {
        debug_assert!(self.frontier.is_none(), "one entry point per filter");
        if let Some(frontier) = self.borrowed.get() {
            if candidate <= frontier {
                return; // Lemma 1
            }
            if !candidate.starts_with(frontier) {
                emit(Dewey::from(frontier)); // Lemma 2
            }
        }
        self.borrowed.set(candidate);
    }

    /// Flushes the filter; the final frontier (if any) is an SLCA.
    pub fn finish(self, mut emit: impl FnMut(Dewey)) {
        if let Some(f) = self.frontier {
            emit(f);
        }
        if let Some(f) = self.borrowed.get() {
            emit(Dewey::from(f));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::MemList;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn mem(items: &[&str]) -> MemList {
        MemList::new(items.iter().map(|s| d(s)).collect())
    }

    #[test]
    fn deeper_picks_descendant() {
        assert_eq!(deeper(Some(d("0.1")), Some(d("0.1.2"))), Some(d("0.1.2")));
        assert_eq!(deeper(Some(d("0.1.2")), Some(d("0.1"))), Some(d("0.1.2")));
        assert_eq!(deeper(None, Some(d("0"))), Some(d("0")));
        assert_eq!(deeper(Some(d("0")), None), Some(d("0")));
        assert_eq!(deeper(None, None), None);
    }

    #[test]
    fn ranked_match_basic() {
        let mut s = AlgoStats::default();
        let mut l = mem(&["0.0.5", "0.2.1"]);
        // q = 0.0.9: left match 0.0.5 shares prefix 0.0; right match 0.2.1
        // shares prefix 0.
        assert_eq!(deepest_dominator_ranked(&mut l, &d("0.0.9"), &mut s), Some(d("0.0")));
        // Exact membership returns q itself.
        assert_eq!(deepest_dominator_ranked(&mut l, &d("0.2.1"), &mut s), Some(d("0.2.1")));
        // Empty list: no dominator.
        let mut e = mem(&[]);
        assert_eq!(deepest_dominator_ranked(&mut e, &d("0"), &mut s), None);
    }

    #[test]
    fn ranked_match_counts_lookups() {
        let mut s = AlgoStats::default();
        let mut l = mem(&["0.0", "0.5"]);
        deepest_dominator_ranked(&mut l, &d("0.3"), &mut s);
        assert_eq!(s.match_lookups, 2); // one rm + one lm
        let mut s = AlgoStats::default();
        deepest_dominator_ranked(&mut l, &d("0.5"), &mut s);
        assert_eq!(s.match_lookups, 1); // exact rm hit short-circuits
    }

    /// The cursor's answer as a node: `q`'s prefix of the returned depth.
    fn scan(cursor: &mut ScanCursor<MemList>, q: &str, s: &mut AlgoStats) -> Option<Dewey> {
        let q = d(q);
        cursor.deepest_dominator_depth(q.components(), s).map(|depth| q.prefix(depth))
    }

    #[test]
    fn scan_cursor_handles_ancestor_backstep() {
        // Probe 0.4.2.7 first, then its ancestor 0.4: the cursor has
        // passed 0.4.1 (inside [0.4, 0.4.2.7)), so 0.4 dominates directly.
        let mut cursor = ScanCursor::new(mem(&["0.4.1", "0.8"]));
        let mut s = AlgoStats::default();
        assert_eq!(scan(&mut cursor, "0.4.2.7", &mut s), Some(d("0.4")));
        let before = s;
        assert_eq!(scan(&mut cursor, "0.4", &mut s), Some(d("0.4")));
        assert_eq!(s, before, "no node read and no LCA computed");
    }

    #[test]
    fn scan_cursor_backstep_with_nothing_passed() {
        // Probe 0.4.2.7 (nothing below it in the list), then ancestor 0.4:
        // no element lies in [0.4, 0.4.2.7), so matches are unchanged.
        let mut cursor = ScanCursor::new(mem(&["0.8"]));
        let mut s = AlgoStats::default();
        assert_eq!(scan(&mut cursor, "0.4.2.7", &mut s), Some(d("0")));
        assert_eq!(scan(&mut cursor, "0.4", &mut s), Some(d("0")));
    }

    #[test]
    fn scan_counts_scanned_nodes() {
        let mut cursor = ScanCursor::new(mem(&["0.0", "0.1", "0.2", "0.3"]));
        let mut s = AlgoStats::default();
        assert_eq!(scan(&mut cursor, "0.2", &mut s), Some(d("0.2")));
        assert_eq!(s.nodes_scanned, 2); // passed 0.0 and 0.1
        assert_eq!(s.lca_computations, 0); // exact hit
    }

    #[test]
    fn scan_cursor_over_empty_list_has_no_dominator() {
        let mut cursor = ScanCursor::new(mem(&[]));
        let mut s = AlgoStats::default();
        assert_eq!(scan(&mut cursor, "0.1", &mut s), None);
    }

    #[test]
    fn push_prefix_filters_like_push() {
        let candidates = ["0", "0.2", "0.1", "1", "1", "1.3.4", "/", "2.0", "2"];
        let (mut owned, mut borrowed) = (Vec::new(), Vec::new());
        let (mut f, mut g) = (EagerFilter::new(), EagerFilter::new());
        for c in candidates {
            f.push(d(c), |x| owned.push(x));
            g.push_prefix(d(c).components(), |x| borrowed.push(x));
        }
        f.finish(|x| owned.push(x));
        g.finish(|x| borrowed.push(x));
        assert_eq!(owned, vec![d("0.2"), d("1.3.4"), d("2.0")]);
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn eager_filter_school_example() {
        // Candidates for "John, Ben" on Figure 1 arrive per John witness;
        // a shallower repeat (the root) must be suppressed.
        let mut out = Vec::new();
        let mut f = EagerFilter::new();
        for c in ["0", "1", "2", "/"] {
            // class CS2A, class CS3A, project, then root (from the
            // John-only class whose deepest dominator is the root).
            let cand = d(c);
            f.push(cand, |x| out.push(x));
        }
        f.finish(|x| out.push(x));
        assert_eq!(out, vec![d("0"), d("1"), d("2")]);
    }

    #[test]
    fn eager_filter_replaces_ancestor_frontier() {
        let mut out = Vec::new();
        let mut f = EagerFilter::new();
        f.push(d("0"), |x| out.push(x)); // frontier 0
        f.push(d("0.2"), |x| out.push(x)); // descendant: replaces, no emit
        f.push(d("1"), |x| out.push(x)); // unrelated: emits 0.2
        f.finish(|x| out.push(x));
        assert_eq!(out, vec![d("0.2"), d("1")]);
    }

    #[test]
    fn eager_filter_empty() {
        let f = EagerFilter::new();
        let mut out = Vec::new();
        f.finish(|x| out.push(x));
        assert!(out.is_empty());
    }
}
