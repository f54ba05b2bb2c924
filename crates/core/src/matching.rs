//! The match step (Property 1 of the paper) and the eager ancestor filter
//! (Lemmas 1 and 2).
//!
//! Property 1: the single node of `slca({q}, S)` is the deeper of
//! `lca(q, lm(q, S))` and `lca(q, rm(q, S))`. Both are ancestors-or-self
//! of `q`, so the step returns a *depth*: the answer is `q`'s prefix of
//! that length. A list answers it in one of two ways, and the eager loop
//! is otherwise the same: Indexed Lookup Eager seeks
//! ([`seek_dominator`]), Scan Eager advances ([`scan_dominator`]).

use crate::lists::PostingCursor;
use crate::stats::AlgoStats;
use xk_xmltree::Dewey;

/// Length of the longest common prefix of two Dewey paths: the depth of
/// their LCA.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Indexed Lookup Eager's match step: the depth of the deepest
/// ancestor-or-self of `q` whose subtree contains a posting, from one
/// seek — the right match, then the left match unless the right one is
/// `q` itself. Counts two match lookups, one on an exact hit. `None`
/// iff the list has no posting (it is empty, or its cursor failed).
pub fn seek_dominator<C: PostingCursor + ?Sized>(
    list: &mut C,
    q: &[u32],
    stats: &mut AlgoStats,
) -> Option<usize> {
    stats.match_lookups += 1;
    list.seek(q);
    let right = match list.current() {
        // Exact hit: q itself carries the keyword; nothing can be deeper.
        Some(n) if n == q => return Some(q.len()),
        n => n.map(|n| common_prefix(q, n)),
    };
    stats.match_lookups += 1;
    let left = list.before().map(|n| common_prefix(q, n));
    stats.lca_computations += right.is_some() as u64 + left.is_some() as u64;
    left.max(right)
}

/// Scan Eager's match step (Section 3.2): [`seek_dominator`]'s answer,
/// found by advancing the cursor instead of seeking it. Over a whole
/// query each list is read at most once, front to back, and no indexed
/// lookup is issued.
///
/// Probes arrive in the order the eager loop generates them, which is
/// ascending except for one case: a later probe `q` can be an *ancestor*
/// of the largest probe `p` so far (its witness is later, but the chain
/// cut it short). The cursor then stays put: a posting it passed in
/// `[q, p)` lies in `q`'s subtree, so `q` itself dominates, and if it
/// passed none there, `p`'s two neighbours are `q`'s as well.
pub fn scan_dominator<C: PostingCursor + ?Sized>(
    list: &mut C,
    q: &[u32],
    stats: &mut AlgoStats,
) -> Option<usize> {
    let right = loop {
        match list.current() {
            Some(n) if n < q => list.step(),
            Some(n) if n == q => return Some(q.len()),
            n => break n.map(|n| common_prefix(q, n)),
        }
        stats.nodes_scanned += 1;
    };
    // A forward probe leaves every passed posting below `q`, so a passed
    // posting at or after `q` means a backstep into its subtree.
    let left = match list.before() {
        Some(n) if n >= q => return Some(q.len()),
        n => n.map(|n| common_prefix(q, n)),
    };
    stats.lca_computations += right.is_some() as u64 + left.is_some() as u64;
    left.max(right)
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
/// Candidates are borrowed and the frontier lives in a reused buffer, so
/// the filter allocates only for the SLCAs it emits.
#[derive(Debug, Default)]
pub struct EagerFilter {
    frontier: Vec<u32>,
    held: bool,
}

impl EagerFilter {
    /// Creates an empty filter.
    pub fn new() -> EagerFilter {
        EagerFilter::default()
    }

    /// Offers a candidate; `emit` receives any SLCA confirmed by it.
    pub fn push_prefix(&mut self, candidate: &[u32], mut emit: impl FnMut(Dewey)) {
        if self.held {
            let frontier = self.frontier.as_slice();
            if candidate <= frontier {
                return; // Lemma 1
            }
            if !candidate.starts_with(frontier) {
                emit(Dewey::from(frontier)); // Lemma 2
            }
        }
        self.frontier.clear();
        self.frontier.extend_from_slice(candidate);
        self.held = true;
    }

    /// Flushes the filter; the final frontier (if any) is an SLCA.
    pub fn finish(self, mut emit: impl FnMut(Dewey)) {
        if self.held {
            emit(Dewey::from_components(self.frontier));
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

    /// A step's answer as a node: `q`'s prefix of the returned depth.
    fn answer(
        step: fn(&mut MemList, &[u32], &mut AlgoStats) -> Option<usize>,
        list: &mut MemList,
        q: &str,
        s: &mut AlgoStats,
    ) -> Option<Dewey> {
        let q = d(q);
        step(list, q.components(), s).map(|depth| q.prefix(depth))
    }

    #[test]
    fn seek_match_basic() {
        let mut s = AlgoStats::default();
        let mut l = mem(&["0.0.5", "0.2.1"]);
        // q = 0.0.9: left match 0.0.5 shares prefix 0.0; right match 0.2.1
        // shares prefix 0.
        assert_eq!(answer(seek_dominator, &mut l, "0.0.9", &mut s), Some(d("0.0")));
        // Exact membership returns q itself.
        assert_eq!(answer(seek_dominator, &mut l, "0.2.1", &mut s), Some(d("0.2.1")));
        // Empty list: no dominator.
        assert_eq!(answer(seek_dominator, &mut mem(&[]), "0", &mut s), None);
    }

    #[test]
    fn seek_match_counts_lookups() {
        let mut s = AlgoStats::default();
        let mut l = mem(&["0.0", "0.5"]);
        answer(seek_dominator, &mut l, "0.3", &mut s);
        assert_eq!(s.match_lookups, 2); // one rm + one lm
        assert_eq!(s.lca_computations, 2);
        let mut s = AlgoStats::default();
        answer(seek_dominator, &mut l, "0.5", &mut s);
        assert_eq!(s.match_lookups, 1); // exact rm hit short-circuits
    }

    #[test]
    fn scan_handles_ancestor_backstep() {
        // Probe 0.4.2.7 first, then its ancestor 0.4: the cursor has
        // passed 0.4.1 (inside [0.4, 0.4.2.7)), so 0.4 dominates directly.
        let mut l = mem(&["0.4.1", "0.8"]);
        let mut s = AlgoStats::default();
        assert_eq!(answer(scan_dominator, &mut l, "0.4.2.7", &mut s), Some(d("0.4")));
        let before = s;
        assert_eq!(answer(scan_dominator, &mut l, "0.4", &mut s), Some(d("0.4")));
        assert_eq!(s, before, "no node read and no LCA computed");
    }

    #[test]
    fn scan_backstep_with_nothing_passed() {
        // Probe 0.4.2.7 (nothing below it in the list), then ancestor 0.4:
        // no element lies in [0.4, 0.4.2.7), so matches are unchanged.
        let mut l = mem(&["0.8"]);
        let mut s = AlgoStats::default();
        assert_eq!(answer(scan_dominator, &mut l, "0.4.2.7", &mut s), Some(d("0")));
        assert_eq!(answer(scan_dominator, &mut l, "0.4", &mut s), Some(d("0")));
    }

    #[test]
    fn scan_counts_scanned_nodes() {
        let mut l = mem(&["0.0", "0.1", "0.2", "0.3"]);
        let mut s = AlgoStats::default();
        assert_eq!(answer(scan_dominator, &mut l, "0.2", &mut s), Some(d("0.2")));
        assert_eq!(s.nodes_scanned, 2); // passed 0.0 and 0.1
        assert_eq!(s.lca_computations, 0); // exact hit
    }

    #[test]
    fn scan_over_empty_list_has_no_dominator() {
        let mut s = AlgoStats::default();
        assert_eq!(answer(scan_dominator, &mut mem(&[]), "0.1", &mut s), None);
    }

    /// The filter's output for `candidates`, in order.
    fn filtered(candidates: &[&str]) -> Vec<Dewey> {
        let mut out = Vec::new();
        let mut f = EagerFilter::new();
        for c in candidates {
            f.push_prefix(d(c).components(), |x| out.push(x));
        }
        f.finish(|x| out.push(x));
        out
    }

    #[test]
    fn eager_filter_applies_both_lemmas() {
        let got = filtered(&["0", "0.2", "0.1", "1", "1", "1.3.4", "/", "2.0", "2"]);
        assert_eq!(got, vec![d("0.2"), d("1.3.4"), d("2.0")]);
    }

    #[test]
    fn eager_filter_school_example() {
        // Candidates for "John, Ben" on Figure 1 arrive per John witness;
        // a shallower repeat (the root, from the John-only class whose
        // deepest dominator is the root) must be suppressed.
        assert_eq!(filtered(&["0", "1", "2", "/"]), vec![d("0"), d("1"), d("2")]);
    }

    #[test]
    fn eager_filter_replaces_ancestor_frontier() {
        // 0.2 replaces its ancestor 0 without an emit; 1 then emits 0.2.
        assert_eq!(filtered(&["0", "0.2", "1"]), vec![d("0.2"), d("1")]);
    }

    #[test]
    fn eager_filter_empty() {
        assert!(filtered(&[]).is_empty());
    }
}
