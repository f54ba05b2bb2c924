//! Edge-case tests for the Stack algorithm's merge/stack machinery and
//! the keyword-count limits shared by all algorithms.

use xk_slca::{
    brute_force_slca, indexed_lookup_eager_collect, stack_merge_collect, MemList, PostingCursor,
    RankedList, StreamList,
};
use xk_xmltree::Dewey;

fn d(s: &str) -> Dewey {
    s.parse().unwrap()
}

fn mem(items: &[&str]) -> MemList {
    MemList::new(items.iter().map(|s| d(s)).collect())
}

#[test]
fn sixty_four_keywords_is_supported() {
    // 64 lists, every one containing the same node: that node is the SLCA.
    let lists: Vec<MemList> = (0..64).map(|_| mem(&["0.1.2"])).collect();
    let (r, _) = stack_merge_collect(lists);
    assert_eq!(r, vec![d("0.1.2")]);
}

#[test]
#[should_panic(expected = "at most 64 keywords")]
fn sixty_five_keywords_is_rejected() {
    let lists: Vec<MemList> = (0..65).map(|_| mem(&["0"])).collect();
    stack_merge_collect(lists);
}

#[test]
fn zero_lists_yield_nothing() {
    let (r, _) = stack_merge_collect(Vec::<MemList>::new());
    assert!(r.is_empty());
}

#[test]
fn deep_chain_pops_correctly() {
    // A long root-to-leaf chain: keyword A at the leaf, keyword B at
    // every prefix. The SLCA is the leaf's parent... actually the leaf
    // itself dominates nothing of B, so the deepest node containing both
    // is the deepest B-ancestor of the A-leaf.
    let deep = "0.0.0.0.0.0.0.0.0.0";
    let prefixes: Vec<String> =
        (1..10).map(|n| deep.split('.').take(n).collect::<Vec<_>>().join(".")).collect();
    let prefix_refs: Vec<&str> = prefixes.iter().map(|s| s.as_str()).collect();
    let a = mem(&[deep]);
    let b = mem(&prefix_refs);
    let (r, stats) = stack_merge_collect(vec![a, b]);
    assert_eq!(r, vec![d("0.0.0.0.0.0.0.0.0")]); // deepest prefix
    assert_eq!(stats.stack_pushes, 10); // the chain is pushed once
}

#[test]
fn stack_agrees_with_oracle_on_shared_nodes_across_many_lists() {
    // Nodes appearing in several lists at once.
    let l1 = &["0.0", "0.5", "2"][..];
    let l2 = &["0.0", "1.1"][..];
    let l3 = &["0.0", "0.5", "1.1", "2"][..];
    let vecs: Vec<Vec<Dewey>> = [l1, l2, l3]
        .iter()
        .map(|l| {
            let mut v: Vec<Dewey> = l.iter().map(|s| d(s)).collect();
            v.sort();
            v
        })
        .collect();
    let expected = brute_force_slca(&vecs);
    let (r, _) = stack_merge_collect(vec![mem(l1), mem(l2), mem(l3)]);
    assert_eq!(r, expected);
    assert_eq!(r, vec![d("0.0"), Dewey::root()].into_iter().take(1).collect::<Vec<_>>());
}

#[test]
fn blanket_mut_impls_forward() {
    let mut l = mem(&["0", "1"]);
    {
        let r: &mut MemList = &mut l;
        assert_eq!(PostingCursor::len(&r), 2);
        assert_eq!(r.rm(&d("0.5")), Some(d("1")));
        assert_eq!(r.lm(&d("0.5")), Some(d("0")));
    }
    {
        let s: &mut MemList = &mut l;
        s.seek(&[]);
        assert_eq!(PostingCursor::len(&s), 2);
        assert!(!PostingCursor::is_empty(&s));
        assert_eq!(s.next_node(), Some(d("0")));
    }
}

#[test]
fn il_and_stack_agree_on_adjacent_sibling_answers() {
    // Many sibling SLCAs in a row exercise the eager filter's Lemma 2
    // path and the stack's pop-emit path equally.
    let a: Vec<String> = (0..50).map(|i| format!("{i}.0")).collect();
    let b: Vec<String> = (0..50).map(|i| format!("{i}.1")).collect();
    let ar: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
    let br: Vec<&str> = b.iter().map(|s| s.as_str()).collect();
    let mut s1 = mem(&ar);
    let mut l2 = mem(&br);
    let mut refs: Vec<&mut dyn RankedList> = vec![&mut l2];
    let (il, _) = indexed_lookup_eager_collect(&mut s1, &mut refs);
    let (st, _) = stack_merge_collect(vec![mem(&ar), mem(&br)]);
    assert_eq!(il, st);
    assert_eq!(il.len(), 50);
}
