//! The harness's own SLCA, independent of every algorithm in the
//! program: a node *contains* a keyword when it is a prefix of one of
//! the keyword's postings; the nodes containing every keyword form a
//! prefix-closed set, and the smallest LCAs are its members that are
//! nobody's parent.

use std::collections::BTreeSet;

/// A Dewey id as its components; the document root is empty.
pub type Dewey = Vec<u32>;

/// SLCAs of `lists` (one posting list per keyword), in document order.
pub fn reference_slca(lists: &[&[Dewey]]) -> Vec<Dewey> {
    let containing = |list: &[Dewey]| -> BTreeSet<Dewey> {
        list.iter()
            .flat_map(|d| (0..=d.len()).map(|n| d[..n].to_vec()))
            .collect()
    };
    let mut all = lists.iter().map(|l| containing(l));
    let Some(first) = all.next() else {
        return Vec::new();
    };
    let common = all.fold(first, |acc, set| acc.intersection(&set).cloned().collect());
    let parents: BTreeSet<&[u32]> = common
        .iter()
        .filter(|d| !d.is_empty())
        .map(|d| &d[..d.len() - 1])
        .collect();
    common
        .iter()
        .filter(|d| !parents.contains(d.as_slice()))
        .cloned()
        .collect()
}

/// Parses the inside of a reply's `"slcas":[…]`: comma-separated quoted
/// dotted ids (`"0.4.129","2.1"`; `""` is the root).
pub fn parse_slcas(inner: &[u8]) -> Option<Vec<Dewey>> {
    let text = std::str::from_utf8(inner).ok()?;
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',')
        .map(|quoted| {
            let id = quoted.strip_prefix('"')?.strip_suffix('"')?;
            if id.is_empty() {
                return Some(Vec::new());
            }
            id.split('.').map(|c| c.parse().ok()).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Dewey {
        parse_slcas(format!("\"{s}\"").as_bytes())
            .unwrap()
            .remove(0)
    }

    #[test]
    fn school_example_from_the_paper() {
        // Figure 1: "John" and "Ben" meet in two classes and one project.
        let ben = [d("0.2.0.0"), d("1.2.0.0.0"), d("2.2.0")];
        let john = [d("0.1.0.0"), d("1.1.0.0"), d("2.1.0"), d("3.1.0.0")];
        assert_eq!(reference_slca(&[&ben, &john]), vec![d("0"), d("1"), d("2")]);
    }

    #[test]
    fn ancestors_of_an_answer_are_not_answers() {
        let a = [d("0.1.5"), d("3.0")];
        let b = [d("0.1.5"), d("0.2"), d("4")];
        // 0.1.5 holds both; 0 and the root hold both too but are ancestors.
        assert_eq!(reference_slca(&[&a, &b]), vec![d("0.1.5")]);
        // Only the root holds both.
        assert_eq!(
            reference_slca(&[&[d("1.1")], &[d("2")]]),
            vec![Vec::<u32>::new()]
        );
        assert_eq!(reference_slca(&[&[d("1.1")], &[]]), Vec::<Dewey>::new());
    }

    #[test]
    fn parses_reply_lists() {
        assert_eq!(parse_slcas(b""), Some(vec![]));
        assert_eq!(
            parse_slcas(br#""0.4","10""#),
            Some(vec![vec![0, 4], vec![10]])
        );
        assert_eq!(parse_slcas(br#""""#), Some(vec![vec![]]));
        assert_eq!(parse_slcas(b"0.4"), None);
    }
}
