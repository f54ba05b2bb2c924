//! Property tests for the packed Dewey codec: round-trips and — the
//! property the whole IL B+tree layout rests on — `memcmp` order of
//! encodings equals Dewey (preorder) order, for arbitrary level tables
//! and arbitrary in-shape Dewey numbers.

use proptest::prelude::*;
use xk_index::{decode_dewey, encode_dewey, encode_probe, encode_upper_bound, LevelTable, Probe};
use xk_xmltree::{Dewey, NodeId, XmlTree};

/// A pair of (table, Dewey numbers valid for that table).
fn table_with_deweys() -> impl Strategy<Value = (LevelTable, Vec<Dewey>)> {
    proptest::collection::vec(1u32..600, 1..6).prop_flat_map(|fanouts| {
        let table = LevelTable::from_fanouts(&fanouts);
        let fanouts2 = fanouts.clone();
        let dewey = proptest::collection::vec(any::<prop::sample::Index>(), 0..fanouts.len())
            .prop_map(move |choices| {
                let components: Vec<u32> = choices
                    .iter()
                    .enumerate()
                    .map(|(level, idx)| idx.index(fanouts2[level] as usize) as u32)
                    .collect();
                Dewey::from_components(components)
            });
        (Just(table), proptest::collection::vec(dewey, 1..60))
    })
}

/// A document with DBLP's grouping: `dblp / venue / year / paper /
/// {title, author*, pages}`, each field holding one text node.
fn dblp_shaped(venues: u32, years: u32, papers: u32, authors: u32) -> XmlTree {
    let mut t = XmlTree::new("dblp");
    for _ in 0..venues {
        let venue = t.append_element(NodeId::ROOT, "venue");
        for _ in 0..years {
            let year = t.append_element(venue, "year");
            for _ in 0..papers {
                let paper = t.append_element(year, "paper");
                let fields = ["title", "pages"].into_iter().chain((0..authors).map(|_| "author"));
                for field in fields {
                    let e = t.append_element(paper, field);
                    t.append_text(e, "text");
                }
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The storage claim DESIGN.md §5 rests on: over a DBLP-shaped
    /// document the packed ids take at most a third of the bytes raw
    /// `u32` components would, which divides the scanners' `Σ|Sᵢ|/B`
    /// disk term by the same factor.
    #[test]
    fn packed_deweys_are_at_most_a_third_of_raw_u32_components(
        venues in 2u32..20,
        years in 1u32..8,
        papers in 1u32..16,
        authors in 1u32..4,
    ) {
        let tree = dblp_shaped(venues, years, papers, authors);
        let table = LevelTable::build(&tree);
        let (mut packed, mut raw) = (0usize, 0usize);
        for n in tree.preorder() {
            let d = tree.dewey(n);
            packed += encode_dewey(&d, &table).unwrap().len();
            raw += 4 * d.depth();
        }
        prop_assert!(3 * packed <= raw, "packed {packed} B vs raw {raw} B");
    }

    #[test]
    fn roundtrip((table, deweys) in table_with_deweys()) {
        for d in &deweys {
            let enc = encode_dewey(d, &table).unwrap();
            prop_assert_eq!(&decode_dewey(&enc, &table).unwrap(), d);
        }
    }

    #[test]
    fn memcmp_order_equals_dewey_order((table, deweys) in table_with_deweys()) {
        let mut pairs: Vec<(Dewey, Vec<u8>)> = deweys
            .iter()
            .map(|d| (d.clone(), encode_dewey(d, &table).unwrap()))
            .collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        for w in pairs.windows(2) {
            match w[0].0.cmp(&w[1].0) {
                std::cmp::Ordering::Less => prop_assert!(
                    w[0].1 < w[1].1,
                    "{} < {} but encodings disagree", w[0].0, w[1].0
                ),
                std::cmp::Ordering::Equal => prop_assert_eq!(&w[0].1, &w[1].1),
                std::cmp::Ordering::Greater => unreachable!("sorted"),
            }
        }
    }

    #[test]
    fn upper_bound_brackets_subtrees((table, deweys) in table_with_deweys()) {
        // For every node q and every other node n:
        //   n in subtree(q) (inclusive)  =>  enc(n) < ub(q)
        //   n after subtree(q)           =>  ub(q) < enc(n)
        //   n before q                   =>  enc(n) < ub(q) trivially holds too;
        // so ub(q) separates "<= subtree end" from "> subtree end".
        let q = &deweys[0];
        let ub = encode_upper_bound(q, &table).unwrap();
        for n in &deweys {
            let enc = encode_dewey(n, &table).unwrap();
            let after_subtree = n > q && !q.is_ancestor_or_self_of(n);
            if after_subtree {
                prop_assert!(ub < enc, "ub({q}) must sort before {n}");
            } else {
                prop_assert!(enc < ub, "{n} must sort before ub({q})");
            }
        }
    }

    #[test]
    fn probe_encoding_never_panics_for_uncles((table, deweys) in table_with_deweys()) {
        // Uncle positions (ordinal + 1) may overflow the level width; the
        // probe encoder must map them to an equivalent upper bound.
        for d in &deweys {
            if let Some(uncle) = d.uncle() {
                match encode_probe(&uncle, &table) {
                    Ok(Probe::Exact(_)) | Ok(Probe::After(_)) => {}
                    Err(e) => prop_assert!(false, "uncle probe failed: {e}"),
                }
            }
        }
    }
}
