//! Cost-bound tests for the all-LCA algorithm (Section 5): each ancestor
//! of each SLCA is checked exactly once, and each check performs at most
//! `2k` match lookups — so the total lookup count is bounded by the IL
//! phase plus `2k · Σ depth(slca)`. And Scan Eager's (Section 3.2): no
//! match lookup, each list read at most once (`Σ|S_i|` nodes), and at
//! most two LCA computations per match step (`2(k-1)|S_1|`).

use xk_slca::{
    all_lcas_collect, indexed_lookup_eager_collect, scan_eager_collect, MemList, RankedList,
};
use xk_xmltree::Dewey;

fn d(s: &str) -> Dewey {
    s.parse().unwrap()
}

fn mem(items: &[&str]) -> MemList {
    MemList::new(items.iter().map(|s| d(s)).collect())
}

#[test]
fn lookup_count_is_within_the_per_ancestor_bound() {
    // Many SLCAs scattered at depth 3 under distinct depth-1 groups.
    let a: Vec<String> = (0..30).map(|i| format!("{i}.0.0")).collect();
    let b: Vec<String> = (0..30).map(|i| format!("{i}.0.1")).collect();
    let ar: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
    let br: Vec<&str> = b.iter().map(|s| s.as_str()).collect();
    let k = 2u64;

    // Baseline: the IL phase alone.
    let il_lookups = {
        let mut s1 = mem(&ar);
        let mut l2 = mem(&br);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2];
        indexed_lookup_eager_collect(&mut s1, &mut refs).1.match_lookups
    };

    let mut s1 = mem(&ar);
    let mut owned = [mem(&ar), mem(&br)];
    let mut refs: Vec<&mut dyn RankedList> =
        owned.iter_mut().map(|l| l as &mut dyn RankedList).collect();
    let (lcas, stats) = all_lcas_collect(&mut s1, &mut refs);

    // The SLCAs are the 30 group-level nodes at depth 2; their ancestors
    // are 30 depth-1 nodes plus the root.
    let slcas: Vec<&Dewey> = lcas
        .iter()
        .filter(|(_, kind)| *kind == xk_slca::LcaKind::Smallest)
        .map(|(n, _)| n)
        .collect();
    assert_eq!(slcas.len(), 30);
    let total_ancestor_depth: u64 = slcas.iter().map(|s| s.depth() as u64).sum();

    let bound = il_lookups + 2 * k * total_ancestor_depth;
    assert!(
        stats.match_lookups <= bound,
        "lookups {} exceed bound {bound}",
        stats.match_lookups
    );
}

#[test]
fn shared_ancestors_are_checked_once() {
    // Ten SLCAs under ONE deep chain: the chain ancestors are shared and
    // must be charged once, not ten times.
    let a: Vec<String> = (0..10).map(|i| format!("0.0.0.{i}.0")).collect();
    let b: Vec<String> = (0..10).map(|i| format!("0.0.0.{i}.1")).collect();
    let ar: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
    let br: Vec<&str> = b.iter().map(|s| s.as_str()).collect();

    let mut s1 = mem(&ar);
    let mut owned = [mem(&ar), mem(&br)];
    let mut refs: Vec<&mut dyn RankedList> =
        owned.iter_mut().map(|l| l as &mut dyn RankedList).collect();
    let (lcas, stats) = all_lcas_collect(&mut s1, &mut refs);

    let slca_count =
        lcas.iter().filter(|(_, k)| *k == xk_slca::LcaKind::Smallest).count();
    assert_eq!(slca_count, 10);

    // Distinct ancestors: per SLCA 0.0.0.i (depth 4) the non-shared
    // ancestor set is empty except via lca partitioning; the shared path
    // 0.0.0 / 0.0 / 0 / root is 4 nodes; non-last SLCAs check nothing
    // above lca(x_i, x_{i+1}) = 0.0.0, i.e. exactly the depth-4 parent...
    // Here parents ARE the SLCAs' own ancestors at depth 3 = 0.0.0 is the
    // common parent (excluded for non-last). So checks = 4 (last SLCA's
    // path) and each check costs at most 2k = 4 lookups.
    let phase2_budget = 4 * 4;
    let il_lookups = {
        let mut s1 = mem(&ar);
        let mut l2 = mem(&br);
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2];
        indexed_lookup_eager_collect(&mut s1, &mut refs).1.match_lookups
    };
    assert!(
        stats.match_lookups <= il_lookups + phase2_budget,
        "phase 2 re-checked shared ancestors: {} > {} + {}",
        stats.match_lookups,
        il_lookups,
        phase2_budget
    );
}

#[test]
fn scan_eager_stays_within_its_analytic_bound() {
    // Three lists of similar size over interleaved groups, with deep and
    // shallow witnesses so candidates shrink mid-chain (the backstep).
    let s1: Vec<String> = (0..40).map(|i| format!("{}.{}.0", i / 2, i % 2)).collect();
    let s2: Vec<String> = (0..50).map(|i| format!("{}.{}.1.0", i / 3, i % 3)).collect();
    let s3: Vec<String> = (0..60).map(|i| format!("{}.{}", i / 2, i % 2 + 1)).collect();
    let lists: [Vec<&str>; 3] = [&s1, &s2, &s3].map(|l| l.iter().map(|s| s.as_str()).collect());
    let (k, s1_len) = (3u64, lists[0].len() as u64);
    let total: u64 = lists.iter().map(|l| l.len() as u64).sum();

    let mut first = mem(&lists[0]);
    let (scan, stats) =
        scan_eager_collect(&mut first, vec![mem(&lists[1]), mem(&lists[2])]);
    let il = {
        let mut first = mem(&lists[0]);
        let (mut l2, mut l3) = (mem(&lists[1]), mem(&lists[2]));
        let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2, &mut l3];
        indexed_lookup_eager_collect(&mut first, &mut refs).0
    };
    assert_eq!(scan, il);
    assert!(!scan.is_empty());
    assert_eq!(stats.match_lookups, 0);
    assert!(stats.nodes_scanned <= total, "scanned {} > {total}", stats.nodes_scanned);
    assert!(
        stats.lca_computations <= 2 * (k - 1) * s1_len,
        "lca computations {} > {}",
        stats.lca_computations,
        2 * (k - 1) * s1_len
    );
}
