//! The three SLCA algorithms of the paper: Indexed Lookup Eager, Scan
//! Eager, and Stack.
//!
//! All three take the *smallest* keyword list as the iterated list `S_1`
//! (the caller reorders using the frequency table, as the XKSearch query
//! engine does) and emit SLCAs through a callback, pipelined: results
//! stream out before the inputs are exhausted, per the paper's "eagerness"
//! property.

use crate::lists::{PostingCursor, RankedList, StreamList};
use crate::matching::{scan_dominator, seek_dominator, EagerFilter};
use crate::stats::AlgoStats;
use xk_xmltree::Dewey;

/// The candidate loop every eager variant runs. Each witness `v` is
/// chained through the other lists — `x ← v; x ← slca({x}, S_i)` for
/// `i = 2..k` (Property 2) — and the surviving candidate goes through
/// the Lemma 1/2 ancestor filter, which hands confirmed SLCAs to `emit`.
/// Every candidate is an ancestor-or-self of its witness, so the loop
/// carries it as a prefix length of `v`: the only allocations are the
/// SLCAs emitted. `step` is how a list answers the match step: IL seeks
/// ([`seek_dominator`]), Scan Eager advances ([`scan_dominator`]).
struct Candidates<'a, L, S> {
    others: &'a mut [L],
    step: S,
    filter: EagerFilter,
    stats: AlgoStats,
}

impl<'a, L, S> Candidates<'a, L, S>
where
    L: PostingCursor,
    S: FnMut(&mut L, &[u32], &mut AlgoStats) -> Option<usize>,
{
    /// `None` when a list is empty: no SLCA can exist.
    fn new(others: &'a mut [L], step: S) -> Option<Self> {
        if others.iter().any(|l| l.is_empty()) {
            return None;
        }
        Some(Candidates { others, step, filter: EagerFilter::new(), stats: AlgoStats::default() })
    }

    fn witness(&mut self, v: &[u32], emit: &mut impl FnMut(Dewey)) {
        self.stats.nodes_scanned += 1;
        let mut x = v.len();
        for list in self.others.iter_mut() {
            match (self.step)(list, v.get(..x).unwrap_or_default(), &mut self.stats) {
                Some(depth) => x = depth,
                None => return, // the list's cursor failed: its slot says why
            }
        }
        self.stats.candidates += 1;
        let stats = &mut self.stats;
        self.filter.push_prefix(v.get(..x).unwrap_or_default(), |slca| {
            stats.results += 1;
            emit(slca);
        });
    }

    fn finish(self, emit: &mut impl FnMut(Dewey)) -> AlgoStats {
        let mut stats = self.stats;
        self.filter.finish(|slca| {
            stats.results += 1;
            emit(slca);
        });
        stats
    }
}

/// Runs the candidate loop over every witness `s1` has left.
fn eager<L: PostingCursor>(
    s1: &mut dyn StreamList,
    others: &mut [L],
    step: impl FnMut(&mut L, &[u32], &mut AlgoStats) -> Option<usize>,
    mut emit: impl FnMut(Dewey),
) -> AlgoStats {
    let Some(mut run) = Candidates::new(others, step) else { return AlgoStats::default() };
    while let Some(v) = s1.current() {
        run.witness(v, &mut emit);
        s1.step();
    }
    run.finish(&mut emit)
}

/// **Indexed Lookup Eager** (Algorithm IL, the paper's core contribution).
///
/// For every node `v` of `S_1`, chains the match step through the other
/// lists: `x ← v; x ← slca({x}, S_i)` for `i = 2..k` (Property 2), each
/// step one seek costing two indexed match lookups; the stream of
/// candidates is ancestor-filtered eagerly with Lemmas 1 and 2.
/// Main-memory complexity `O(k·d·|S_1|·log|S_max|)`.
///
/// Reads `s1` from where its cursor stands. `emit` receives SLCAs in
/// document order. Returns the operation counts.
pub fn indexed_lookup_eager(
    s1: &mut dyn StreamList,
    others: &mut [&mut dyn RankedList],
    emit: impl FnMut(Dewey),
) -> AlgoStats {
    eager(s1, others, seek_dominator, emit)
}

/// **Buffered Indexed Lookup Eager** — the paper's Algorithm 1 with an
/// explicit buffer of β nodes.
///
/// The paper processes `S_1` in blocks: it computes the SLCAs of the
/// first β witnesses, emits every confirmed answer, carries the last
/// (still unconfirmed) candidate into the next block, and repeats. "The
/// smaller β is, the faster the algorithm produces the first SLCA",
/// while a larger β batches `S_1` I/O. The streaming [`indexed_lookup_eager`]
/// is the β = 1 limit; this variant makes the buffering observable (block
/// boundaries reported through `on_block`) for the β ablation bench, and
/// produces identical answers for every β — see the property tests.
pub fn indexed_lookup_eager_buffered(
    s1: &mut dyn StreamList,
    others: &mut [&mut dyn RankedList],
    beta: usize,
    mut on_block: impl FnMut(usize),
    mut emit: impl FnMut(Dewey),
) -> AlgoStats {
    assert!(beta > 0, "the buffer must hold at least one node");
    let Some(mut run) = Candidates::new(others, seek_dominator) else {
        return AlgoStats::default();
    };
    // The buffer: up to β witnesses' components back to back, and where
    // each one ends.
    let (mut comps, mut ends) = (Vec::new(), Vec::with_capacity(beta));
    loop {
        // Fill the buffer with the next β witnesses of S1, then push the
        // block's candidates through the ancestor filter; everything
        // except a possible trailing frontier is emitted before the
        // next block is read.
        comps.clear();
        ends.clear();
        while ends.len() < beta {
            let Some(v) = s1.current() else { break };
            comps.extend_from_slice(v);
            ends.push(comps.len());
            s1.step();
        }
        if ends.is_empty() {
            break;
        }
        let mut start = 0;
        for &end in &ends {
            run.witness(comps.get(start..end).unwrap_or_default(), &mut emit);
            start = end;
        }
        on_block(beta);
        if ends.len() < beta {
            break;
        }
    }
    run.finish(&mut emit)
}

/// Convenience wrapper collecting [`indexed_lookup_eager`] results.
pub fn indexed_lookup_eager_collect(
    s1: &mut dyn StreamList,
    others: &mut [&mut dyn RankedList],
) -> (Vec<Dewey>, AlgoStats) {
    let mut out = Vec::new();
    let stats = indexed_lookup_eager(s1, others, |d| out.push(d));
    (out, stats)
}

/// **Scan Eager** (Section 3.2): the eager candidate loop of
/// [`indexed_lookup_eager`] with every match step answered by advancing
/// the list's cursor ([`scan_dominator`]) instead of seeking it. Each
/// list is read at most once, front to back, so the cost is
/// `O(d·Σ|S_i| + k·d·|S_1|)` — the paper's choice when the keyword
/// frequencies are similar.
///
/// Reads every cursor from where it stands.
pub fn scan_eager<L: PostingCursor>(
    s1: &mut dyn StreamList,
    mut others: Vec<L>,
    emit: impl FnMut(Dewey),
) -> AlgoStats {
    eager(s1, &mut others, scan_dominator, emit)
}

/// Convenience wrapper collecting [`scan_eager`] results.
pub fn scan_eager_collect<L: PostingCursor>(
    s1: &mut dyn StreamList,
    others: Vec<L>,
) -> (Vec<Dewey>, AlgoStats) {
    let mut out = Vec::new();
    let stats = scan_eager(s1, others, |d| out.push(d));
    (out, stats)
}

/// One entry of the Stack algorithm's path stack: the keyword bitset of
/// the subtree seen so far plus the "an SLCA was already reported below"
/// flag that suppresses ancestors.
#[derive(Debug, Clone, Copy, Default)]
struct StackEntry {
    keywords: u64,
    has_slca_descendant: bool,
}

/// **Stack** — the sort-merge, stack-based algorithm adapted from XRANK's
/// DIL (the paper's reference 13) to SLCA semantics (Section 3.3).
///
/// All `k` lists are merged in Dewey order, each cursor's current
/// posting compared in place. The stack holds the path of the most
/// recent node; each entry carries a boolean per keyword. When an entry
/// is popped with every keyword bit set — and no SLCA was reported in
/// its subtree — the node is an SLCA. Complexity `O(k·d·Σ|S_i|)`.
///
/// Supports up to 64 keywords (the bitset width); the paper's queries use
/// 2–5. Reads every cursor from where it stands.
// xk-analyze: allow(panic_path, reason = "the stack is non-empty whenever popped by the loop structure")
pub fn stack_merge<L: PostingCursor>(mut lists: Vec<L>, mut emit: impl FnMut(Dewey)) -> AlgoStats {
    let mut stats = AlgoStats::default();
    let k = lists.len();
    assert!(k <= 64, "the Stack algorithm supports at most 64 keywords");
    if k == 0 || lists.iter_mut().any(|l| l.current().is_none()) {
        // An empty list can never complete a keyword set; the SLCA result
        // is empty, matching the other algorithms' early exit.
        return stats;
    }
    let full: u64 = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };

    // The current path: `path` are the Dewey components of the last node;
    // `meta[d]` is the entry for the prefix of length `d` (meta[0] is the
    // root), so `meta.len() == path.len() + 1`.
    let mut path: Vec<u32> = Vec::new();
    let mut meta: Vec<StackEntry> = vec![StackEntry::default()];

    let pop_one = |path: &mut Vec<u32>, meta: &mut Vec<StackEntry>,
                       stats: &mut AlgoStats,
                       emit: &mut dyn FnMut(Dewey)| {
        let e = meta.pop().expect("never pops the root entry");
        let parent = meta.last_mut().expect("root entry always present");
        if e.has_slca_descendant {
            parent.has_slca_descendant = true;
            parent.keywords |= e.keywords;
        } else if e.keywords == full {
            stats.results += 1;
            emit(Dewey::from(path.as_slice()));
            parent.has_slca_descendant = true;
        } else {
            parent.keywords |= e.keywords;
        }
        path.pop();
    };

    loop {
        // Pick the smallest head among the cursors.
        let mut min: Option<(usize, &[u32])> = None;
        for (i, list) in lists.iter_mut().enumerate() {
            if let Some(head) = list.current() {
                if min.is_none_or(|(_, m)| head < m) {
                    min = Some((i, head));
                }
            }
        }
        let Some((idx, node)) = min else { break };
        stats.nodes_scanned += 1;

        // Pop entries that are not ancestors-or-self of the new node.
        let lcp = path.iter().zip(node).take_while(|(a, b)| a == b).count();
        while path.len() > lcp {
            pop_one(&mut path, &mut meta, &mut stats, &mut emit);
        }
        // Push the new node's remaining components.
        for &c in node.get(lcp..).unwrap_or_default() {
            path.push(c);
            meta.push(StackEntry::default());
            stats.stack_pushes += 1;
        }
        // Mark the keyword on the node's own entry.
        meta.last_mut().expect("root entry").keywords |= 1 << idx;
        if let Some(list) = lists.get_mut(idx) {
            list.step();
        }
    }

    // Flush: pop everything, then consider the root itself.
    while !path.is_empty() {
        pop_one(&mut path, &mut meta, &mut stats, &mut emit);
    }
    let root = meta[0];
    if !root.has_slca_descendant && root.keywords == full {
        stats.results += 1;
        emit(Dewey::root());
    }
    stats
}

/// Convenience wrapper collecting [`stack_merge`] results.
pub fn stack_merge_collect<L: PostingCursor>(lists: Vec<L>) -> (Vec<Dewey>, AlgoStats) {
    let mut out = Vec::new();
    let stats = stack_merge(lists, |d| out.push(d));
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_slca;
    use crate::lists::MemList;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn mem(items: &[&str]) -> MemList {
        MemList::new(items.iter().map(|s| d(s)).collect())
    }

    fn deweys(items: &[&str]) -> Vec<Dewey> {
        let mut v: Vec<Dewey> = items.iter().map(|s| d(s)).collect();
        v.sort();
        v
    }

    /// Runs all three algorithms and the oracle on the same lists; they
    /// must agree. `lists[0]` plays `S_1`.
    fn check_all(lists: &[&[&str]]) -> Vec<Dewey> {
        let vecs: Vec<Vec<Dewey>> = lists.iter().map(|l| deweys(l)).collect();
        let expected = brute_force_slca(&vecs);

        let mut s1 = mem(lists[0]);
        let mut others: Vec<MemList> = lists[1..].iter().map(|l| mem(l)).collect();
        let mut refs: Vec<&mut dyn RankedList> =
            others.iter_mut().map(|l| l as &mut dyn RankedList).collect();
        let (il, _) = indexed_lookup_eager_collect(&mut s1, &mut refs);
        assert_eq!(il, expected, "IL disagrees with brute force on {lists:?}");

        let mut s1 = mem(lists[0]);
        let scan_lists: Vec<MemList> = lists[1..].iter().map(|l| mem(l)).collect();
        let (se, _) = scan_eager_collect(&mut s1, scan_lists);
        assert_eq!(se, expected, "Scan Eager disagrees with brute force on {lists:?}");

        let stack_lists: Vec<MemList> = lists.iter().map(|l| mem(l)).collect();
        let (st, _) = stack_merge_collect(stack_lists);
        assert_eq!(st, expected, "Stack disagrees with brute force on {lists:?}");

        expected
    }

    #[test]
    fn school_example_two_keywords() {
        let john = &["0.1.0.0", "1.1.0.0", "2.1.0", "3.1.0.0"][..];
        let ben = &["0.2.0.0", "1.2.0.0.0", "2.2.0"][..];
        let r = check_all(&[ben, john]); // smallest list first
        assert_eq!(r, vec![d("0"), d("1"), d("2")]);
    }

    #[test]
    fn three_keywords() {
        let a = &["0.0", "1.0", "2.0.0"][..];
        let b = &["0.1", "1.5.0", "3"][..];
        let c = &["0.2.1", "1.5.1", "2.9"][..];
        check_all(&[a, b, c]);
    }

    #[test]
    fn single_keyword_removes_ancestors() {
        let r = check_all(&[&["0", "0.1", "0.1.2", "4"]]);
        assert_eq!(r, vec![d("0.1.2"), d("4")]);
    }

    #[test]
    fn no_answer_when_keywords_disjoint_subtrees_only_root() {
        let r = check_all(&[&["0.0"], &["1.0"]]);
        assert_eq!(r, vec![Dewey::root()]);
    }

    #[test]
    fn same_node_contains_both_keywords() {
        let r = check_all(&[&["0.3"], &["0.3"]]);
        assert_eq!(r, vec![d("0.3")]);
    }

    #[test]
    fn empty_other_list_yields_nothing() {
        let mut s1 = mem(&["0"]);
        let mut empty = mem(&[]);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut empty];
        let (r, _) = indexed_lookup_eager_collect(&mut s1, &mut refs);
        assert!(r.is_empty());
        let (r, _) = scan_eager_collect(&mut mem(&["0"]), vec![mem(&[])]);
        assert!(r.is_empty());
        let (r, _) = stack_merge_collect(vec![mem(&["0"]), mem(&[])]);
        assert!(r.is_empty());
    }

    #[test]
    fn nested_answers_keep_only_deepest() {
        // Both keywords under 0.0.0 and also directly under 0 (via 0.1 and
        // 0.2): the SLCA 0.0.0 suppresses the ancestor 0? No — 0 is an LCA
        // (from the 0.1/0.2 pair) but not smallest, since 0.0.0 is below.
        let a = &["0.0.0.0", "0.1"][..];
        let b = &["0.0.0.1", "0.2"][..];
        let r = check_all(&[a, b]);
        assert_eq!(r, vec![d("0.0.0")]);
    }

    #[test]
    fn interleaved_subtrees() {
        let a = &["0.0", "0.2", "1.1", "2.0.0.0", "3"][..];
        let b = &["0.1", "1.0", "2.0.1"][..];
        check_all(&[b, a]);
    }

    #[test]
    fn il_operation_counts_match_bound() {
        // |S1| = 3, k = 3: at most 2(k-1)|S1| = 12 match lookups.
        let mut s1 = mem(&["0.0", "1.0", "2.0"]);
        let mut l2 = mem(&["0.1", "1.1", "2.1", "3.1"]);
        let mut l3 = mem(&["0.2", "1.2", "2.2", "3.2", "4.2"]);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2, &mut l3];
        let (_, stats) = indexed_lookup_eager_collect(&mut s1, &mut refs);
        assert!(stats.match_lookups <= 12, "lookups {}", stats.match_lookups);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn scan_reads_each_list_once_without_lookups() {
        // Scan Eager answers every match step by advancing a cursor: no
        // indexed lookup, and no list node is read twice.
        let mut s1 = mem(&["0.0", "5.0"]);
        let big: Vec<String> = (0..100).map(|i| format!("{i}.1")).collect();
        let big_refs: Vec<&str> = big.iter().map(|s| s.as_str()).collect();
        let (r, stats) = scan_eager_collect(&mut s1, vec![mem(&big_refs)]);
        assert_eq!(r, vec![d("0"), d("5")]);
        assert_eq!(stats.match_lookups, 0);
        assert!(stats.nodes_scanned <= 2 + 100, "scanned {}", stats.nodes_scanned);
        // The cursor stops at the last witness's right match: 5.1.
        assert_eq!(stats.nodes_scanned, 2 + 5);
    }

    #[test]
    fn stack_counts_pushes() {
        let (r, stats) = stack_merge_collect(vec![mem(&["0.0.0"]), mem(&["0.0.1"])]);
        assert_eq!(r, vec![d("0.0")]);
        assert_eq!(stats.stack_pushes, 4); // 0,0,0 then 1
        assert_eq!(stats.nodes_scanned, 2);
    }

    #[test]
    fn buffered_il_matches_streaming_for_every_beta() {
        let a = &["0.0", "0.2", "1.1", "2.0.0.0", "3", "4.1", "5.0"][..];
        let b = &["0.1", "1.0", "2.0.1", "4.2", "5.1"][..];
        let c = &["0.3", "1.2", "2.1", "4.0"][..];
        let expected = {
            let mut s1 = mem(a);
            let mut l2 = mem(b);
            let mut l3 = mem(c);
            let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2, &mut l3];
            indexed_lookup_eager_collect(&mut s1, &mut refs).0
        };
        for beta in [1, 2, 3, 5, 7, 100] {
            let mut s1 = mem(a);
            let mut l2 = mem(b);
            let mut l3 = mem(c);
            let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2, &mut l3];
            let mut out = Vec::new();
            let mut blocks = 0;
            indexed_lookup_eager_buffered(
                &mut s1,
                &mut refs,
                beta,
                |_| blocks += 1,
                |d| out.push(d),
            );
            assert_eq!(out, expected, "beta = {beta}");
            assert_eq!(blocks, a.len().div_ceil(beta), "beta = {beta}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn buffered_il_rejects_zero_beta() {
        let mut s1 = mem(&["0"]);
        let mut l2 = mem(&["1"]);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2];
        indexed_lookup_eager_buffered(&mut s1, &mut refs, 0, |_| {}, |_| {});
    }

    #[test]
    fn results_stream_in_document_order() {
        let a = &["0.0", "1.0", "2.0", "3.0"][..];
        let b = &["0.1", "1.1", "2.1", "3.1"][..];
        let r = check_all(&[a, b]);
        let mut sorted = r.clone();
        sorted.sort();
        assert_eq!(r, sorted);
        assert_eq!(r.len(), 4);
    }
}
