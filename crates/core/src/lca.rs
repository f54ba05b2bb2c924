//! The All-LCA extension (Section 5, Algorithm 3 of the paper).
//!
//! `lca(S_1, …, S_k)` — every node that is the LCA of *some* witness tuple
//! — equals the SLCAs plus a subset of their ancestors. Algorithm 3 first
//! finds the SLCAs with the Indexed Lookup algorithm, then checks each
//! ancestor of each SLCA **exactly once**, partitioning the ancestor paths
//! between consecutive SLCAs at their pairwise LCAs. Each check costs at
//! most `2k` match lookups (`checkLCA`):
//!
//! * a keyword node in the *left region* — `subtree(u)` before the child
//!   `c` of `u` on the path to the SLCA — is found by `rm(u, S_i)` and
//!   testing `n < c`;
//! * a keyword node in the *right region* — after `subtree(c)` — is found
//!   with the **uncle node** trick: `rm(uncle(c), S_i)` and testing that
//!   `u` is still an ancestor of the result.
//!
//! Either region containing a keyword node makes `u` an LCA (combine that
//! node with witnesses inside the SLCA's subtree); if every keyword node
//! under `u` sits inside `subtree(c)`, `u` cannot be the LCA of any tuple.

use crate::lists::{RankedList, StreamList};
use crate::slca::indexed_lookup_eager;
use crate::stats::AlgoStats;
use xk_xmltree::Dewey;

/// Whether a reported LCA is smallest or a proper ancestor of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LcaKind {
    /// The node is an SLCA.
    Smallest,
    /// The node is an LCA with an SLCA strictly below it.
    Ancestor,
}

/// Computes `lca(S_1, …, S_k)` (Algorithm 3).
///
/// `s1` streams the smallest list; `all` seeks **all** `k` lists, with
/// `all[0]` the same list `s1` streams. Results are emitted as they are
/// discovered: SLCAs in document order, each followed by the confirmed
/// ancestors it is responsible for (bottom-up), so the overall order is
/// not document order; the collect wrapper sorts.
// xk-analyze: allow(panic_path, reason = "the assert documents the caller contract: k >= 1 lists")
pub fn all_lcas(
    s1: &mut dyn StreamList,
    all: &mut [&mut dyn RankedList],
    mut emit: impl FnMut(Dewey, LcaKind),
) -> AlgoStats {
    assert!(!all.is_empty(), "at least one keyword list is required");
    let rest = all.get_mut(1..).unwrap_or_default();
    if rest.is_empty() {
        // k = 1: lca(n) = n, so every node of S_1 is an LCA; the SLCAs are
        // the ones without descendants in S_1.
        return all_lcas_single_list(s1, emit);
    }

    // Phase 1: SLCAs via Indexed Lookup Eager over the other lists (S_1's
    // own cursor is only needed for checkLCA below).
    let mut slcas: Vec<Dewey> = Vec::new();
    let mut stats = indexed_lookup_eager(s1, rest, |d| slcas.push(d));

    // Phase 2: walk ancestors, each exactly once. Ancestors of slcas[i]
    // strictly deeper than lca(slcas[i], slcas[i+1]) belong to slcas[i];
    // the rest are also ancestors of slcas[i+1] and are deferred. The last
    // SLCA owns its whole remaining path up to the root.
    let mut uncle = Vec::new();
    for (i, x) in slcas.iter().enumerate() {
        emit(x.clone(), LcaKind::Smallest);
        let owned_below = match slcas.get(i + 1) {
            Some(next) => {
                stats.lca_computations += 1;
                x.lca_depth(next) + 1
            }
            None => 0,
        };
        // x's ancestors, parent first, as prefix lengths of x.
        for depth in (owned_below..x.depth()).rev() {
            if check_lca(x.components(), depth, &mut uncle, all, &mut stats) {
                stats.results += 1;
                emit(x.prefix(depth), LcaKind::Ancestor);
            }
        }
    }
    stats
}

/// `checkLCA(u, x)` from Algorithm 3, for `u` the ancestor of the SLCA
/// `x` at `depth < x.len()`: true iff `u` is an LCA. `uncle` is a reused
/// buffer.
fn check_lca(
    x: &[u32],
    depth: usize,
    uncle: &mut Vec<u32>,
    all: &mut [&mut dyn RankedList],
    stats: &mut AlgoStats,
) -> bool {
    // c: the child of u towards x.
    let (Some(u), Some(c)) = (x.get(..depth), x.get(..depth + 1)) else { return false };
    // The uncle position: c's right sibling. `None` iff c's ordinal is
    // u32::MAX: no position exists to c's right, so the right region
    // below is empty and only the left region can certify u.
    uncle.clear();
    uncle.extend_from_slice(u);
    let has_uncle = c.last().and_then(|o| o.checked_add(1)).map(|o| uncle.push(o)).is_some();
    for list in all.iter_mut() {
        // Left region: [u, c) in preorder — u itself and the subtrees of
        // c's left siblings.
        stats.match_lookups += 1;
        list.seek(u);
        if list.current().is_some_and(|n| n < c) {
            return true;
        }
        // Right region: descendants of u at or after the uncle position.
        if has_uncle {
            stats.match_lookups += 1;
            list.seek(uncle);
            if list.current().is_some_and(|n| n.starts_with(u)) {
                return true;
            }
        }
    }
    false
}

/// The `k = 1` special case: every node of `S_1` is an LCA of itself.
fn all_lcas_single_list(
    s1: &mut dyn StreamList,
    mut emit: impl FnMut(Dewey, LcaKind),
) -> AlgoStats {
    let mut stats = AlgoStats::default();
    // A node is an SLCA iff no later node is its descendant; with the
    // stream sorted in preorder, that is "the immediate successor is not a
    // descendant".
    let mut prev: Option<Dewey> = None;
    while let Some(n) = s1.next_node() {
        stats.nodes_scanned += 1;
        if let Some(p) = prev.take() {
            let kind = if p.is_ancestor_of(&n) { LcaKind::Ancestor } else { LcaKind::Smallest };
            stats.results += 1;
            emit(p, kind);
        }
        prev = Some(n);
    }
    if let Some(p) = prev {
        stats.results += 1;
        emit(p, LcaKind::Smallest);
    }
    stats
}

/// Convenience wrapper collecting [`all_lcas`] results in document order.
pub fn all_lcas_collect(
    s1: &mut dyn StreamList,
    all: &mut [&mut dyn RankedList],
) -> (Vec<(Dewey, LcaKind)>, AlgoStats) {
    let mut out = Vec::new();
    let stats = all_lcas(s1, all, |d, k| out.push((d, k)));
    out.sort_by(|a, b| a.0.cmp(&b.0));
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_all_lcas;
    use crate::lists::MemList;

    fn d(s: &str) -> Dewey {
        s.parse().unwrap()
    }

    fn mem(items: &[&str]) -> MemList {
        MemList::new(items.iter().map(|s| d(s)).collect())
    }

    /// Oracle comparison: all_lcas must produce exactly the brute-force
    /// LCA set, with `Smallest` marking exactly the brute-force SLCAs.
    fn check(lists: &[&[&str]]) -> Vec<(Dewey, LcaKind)> {
        let vecs: Vec<Vec<Dewey>> = lists
            .iter()
            .map(|l| {
                let mut v: Vec<Dewey> = l.iter().map(|s| d(s)).collect();
                v.sort();
                v
            })
            .collect();
        let expected: Vec<Dewey> = brute_force_all_lcas(&vecs).into_iter().collect();

        let mut s1 = mem(lists[0]);
        let mut owned: Vec<MemList> = lists.iter().map(|l| mem(l)).collect();
        let mut refs: Vec<&mut dyn RankedList> =
            owned.iter_mut().map(|l| l as &mut dyn RankedList).collect();
        let (got, _) = all_lcas_collect(&mut s1, &mut refs);
        let got_nodes: Vec<Dewey> = got.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(got_nodes, expected, "all-LCA disagrees with brute force on {lists:?}");
        got
    }

    #[test]
    fn school_example_has_root_as_extra_lca() {
        let john = &["0.1.0.0", "1.1.0.0", "2.1.0", "3.1.0.0"][..];
        let ben = &["0.2.0.0", "1.2.0.0.0", "2.2.0"][..];
        let got = check(&[ben, john]);
        // SLCAs 0, 1, 2 plus the root (John under class 3, Ben anywhere
        // else meet only at the root).
        assert_eq!(
            got,
            vec![
                (Dewey::root(), LcaKind::Ancestor),
                (d("0"), LcaKind::Smallest),
                (d("1"), LcaKind::Smallest),
                (d("2"), LcaKind::Smallest),
            ]
        );
    }

    #[test]
    fn ancestor_lca_via_left_region() {
        // S1 = {0.0.0, 0.1}, S2 = {0.0.1}: SLCA is 0.0; node 0 is an LCA
        // because S1's 0.1 sits right of subtree(0.0).
        let got = check(&[&["0.0.0", "0.1"], &["0.0.1"]]);
        assert_eq!(
            got,
            vec![(d("0"), LcaKind::Ancestor), (d("0.0"), LcaKind::Smallest)]
        );
    }

    #[test]
    fn ancestor_not_lca_when_keywords_confined() {
        // Everything lives inside 0.0; ancestors 0 and the root must NOT
        // be reported.
        let got = check(&[&["0.0.0"], &["0.0.1"]]);
        assert_eq!(got, vec![(d("0.0"), LcaKind::Smallest)]);
    }

    #[test]
    fn single_keyword_all_nodes_are_lcas() {
        let got = check_single(&["0", "0.1", "0.1.2", "4"]);
        assert_eq!(
            got,
            vec![
                (d("0"), LcaKind::Ancestor),
                (d("0.1"), LcaKind::Ancestor),
                (d("0.1.2"), LcaKind::Smallest),
                (d("4"), LcaKind::Smallest),
            ]
        );
    }

    fn check_single(items: &[&str]) -> Vec<(Dewey, LcaKind)> {
        let mut s1 = mem(items);
        let mut owned = [mem(items)];
        let mut refs: Vec<&mut dyn RankedList> =
            owned.iter_mut().map(|l| l as &mut dyn RankedList).collect();
        let (got, _) = all_lcas_collect(&mut s1, &mut refs);
        got
    }

    #[test]
    fn three_keywords_with_stacked_lcas() {
        check(&[
            &["0.0.0", "0.2", "1"],
            &["0.0.1", "0.3"],
            &["0.0.2", "2.0"],
        ]);
    }

    #[test]
    fn uncle_trick_right_region() {
        // SLCA at 0.0; keyword-2 node 0.5 lies to the RIGHT of subtree
        // (0.0), reachable only via the uncle lookup from child 0.0.
        let got = check(&[&["0.0.0"], &["0.0.1", "0.5"]]);
        assert_eq!(
            got,
            vec![(d("0"), LcaKind::Ancestor), (d("0.0"), LcaKind::Smallest)]
        );
    }

    #[test]
    fn empty_list_no_lcas() {
        let mut s1 = mem(&["0"]);
        let mut a = mem(&["0"]);
        let mut b = mem(&[]);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut a, &mut b];
        let (got, _) = all_lcas_collect(&mut s1, &mut refs);
        assert!(got.is_empty());
    }

    #[test]
    fn deep_chain_of_ancestor_lcas() {
        // Witnesses at every level off the spine make every spine node an
        // LCA.
        let got = check(&[
            &["0.0.0.0.0", "0.0.0.1", "0.0.1", "0.1"],
            &["0.0.0.0.1", "0.2"],
        ]);
        let nodes: Vec<String> = got.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(nodes, vec!["0", "0.0", "0.0.0", "0.0.0.0"]);
    }
}
