//! What the program is fed: the corpus shape (planted keyword classes
//! with exact list sizes) and, per workload, the query pool.
//!
//! Pools are *stratified*: the number of queries of each shape is fixed
//! and the seed only chooses which keywords fill them, so the cost mix —
//! and with it every timing metric — does not depend on the seed.

use crate::rng::SplitMix64;

/// One planted keyword class: `count` keywords `name0…`, each occurring
/// in exactly `freq` papers.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub name: &'static str,
    pub count: usize,
    pub freq: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Written into every output so runs at different scales are never compared.
    pub label: &'static str,
    pub papers: usize,
    pub big: Class,
    pub eq: Class,
    pub mid: Class,
    pub low: Class,
    pub rare: Class,
    /// Distinct queries in the two cache-bypass pools. Both connections
    /// draw from one shared cursor, so a key recurs only after
    /// `bypass_pool - 1` other keys: more than the server's 1024-entry
    /// LRU holds, so it never hits.
    pub bypass_pool: usize,
    /// Distinct queries under the Zipf draw (4× the LRU).
    pub zipf_pool: usize,
}

const fn class(name: &'static str, count: usize, freq: usize) -> Class {
    Class { name, count, freq }
}

/// The frozen benchmark scale. `xksearch build` is linear up to about
/// 40k papers on this box and then falls off the 4 MiB buffer pool
/// (60k papers build 8× slower), so 30k keeps set-up a small part of a run.
pub const FULL: Scale = Scale {
    label: "full",
    papers: 30_000,
    big: class("big", 4, 25_000),
    eq: class("eq", 16, 2_500),
    mid: class("mid", 32, 250),
    low: class("low", 256, 25),
    rare: class("rare", 256, 5),
    bypass_pool: 1280,
    zipf_pool: 4096,
};

/// Contract-test scale only; never comparable with [`FULL`].
pub const QUICK: Scale = Scale {
    label: "quick",
    papers: 6_000,
    big: class("big", 4, 5_000),
    eq: class("eq", 16, 500),
    mid: class("mid", 32, 50),
    low: class("low", 256, 5),
    rare: class("rare", 256, 2),
    bypass_pool: 1280,
    zipf_pool: 4096,
};

/// The server's result cache holds 1024 entries; a cyclic pool must
/// outnumber it with room for requests in flight.
const _: () = assert!(FULL.bypass_pool > 1024 + 128 && QUICK.bypass_pool > 1024 + 128);

impl Class {
    pub fn keyword(&self, i: usize) -> String {
        format!("{}{i}", self.name)
    }
}

impl Scale {
    pub fn classes(&self) -> [Class; 5] {
        [self.big, self.eq, self.mid, self.low, self.rare]
    }

    /// `xkgen` arguments after the output path.
    pub fn xkgen_args(&self, seed: u64) -> Vec<String> {
        let mut args = vec![
            "--papers".into(),
            self.papers.to_string(),
            "--seed".into(),
            seed.to_string(),
        ];
        for c in self.classes() {
            for i in 0..c.count {
                args.push("--plant".into());
                args.push(format!("{}={}", c.keyword(i), c.freq));
            }
        }
        args
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SkewedProbe,
    BalancedScan,
    ZipfCached,
    AppendMix,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::SkewedProbe,
    Workload::BalancedScan,
    Workload::ZipfCached,
    Workload::AppendMix,
];

/// `low` keywords the `append_mix` writer cycles through. Its reader
/// queries exactly these against the ten `big` combinations: 1280
/// distinct queries, so the reader never hits the result cache either
/// and every read runs over the lists the appends are growing.
pub const APPEND_LOW_KEYWORDS: usize = 128;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SkewedProbe => "skewed_probe",
            Workload::BalancedScan => "balanced_scan",
            Workload::ZipfCached => "zipf_cached",
            Workload::AppendMix => "append_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests visit the pool cyclically (cache bypass) rather
    /// than by Zipf draw.
    pub fn cyclic(self) -> bool {
        self != Workload::ZipfCached
    }

    /// The workload's distinct queries, each a keyword set, in visiting
    /// (or Zipf-rank) order.
    pub fn pool(self, scale: &Scale, seed: u64) -> Vec<Vec<String>> {
        let mut rng = SplitMix64::new(seed ^ 0x786B_6265_6E63_6800 ^ self as u64);
        let s = scale;
        let (big1, big2) = (subsets(s.big.count, 1, 1), subsets(s.big.count, 2, 2));
        let mut pool = match self {
            Workload::SkewedProbe => {
                // {low|mid} × big [× big]; list-size ratio 100–1000 ⇒ Auto → IL.
                let n = s.bypass_pool;
                let mut pool = Vec::with_capacity(n);
                for (first, combos, take) in [
                    (s.low, &big1, n * 2 / 5),
                    (s.low, &big2, n * 2 / 5),
                    (s.mid, &big1, n / 10),
                    (s.mid, &big2, n / 10),
                ] {
                    pool.extend(draw(
                        &mut rng,
                        cross(first, first.count, s.big, combos),
                        take,
                    ));
                }
                pool
            }
            Workload::BalancedScan => {
                // k = 2–4 over eq, plus every big-only combination; ratio 1 ⇒ Auto → Scan Eager.
                let mut pool: Vec<Vec<String>> = subsets(s.big.count, 2, s.big.count)
                    .iter()
                    .map(|c| c.iter().map(|&i| s.big.keyword(i)).collect())
                    .collect();
                let name = |c: &Vec<usize>| c.iter().map(|&i| s.eq.keyword(i)).collect::<Vec<_>>();
                pool.extend(subsets(s.eq.count, 2, 3).iter().map(name));
                let quads: Vec<_> = subsets(s.eq.count, 4, 4).iter().map(name).collect();
                let take = s.bypass_pool.saturating_sub(pool.len());
                pool.extend(draw(&mut rng, quads, take));
                pool
            }
            Workload::ZipfCached => {
                // Cheap queries: {rare|low} × mid, half each.
                let mids: Vec<Vec<usize>> = (0..s.mid.count).map(|i| vec![i]).collect();
                let mut pool = draw(
                    &mut rng,
                    cross(s.rare, s.rare.count, s.mid, &mids),
                    s.zipf_pool / 2,
                );
                pool.extend(draw(
                    &mut rng,
                    cross(s.low, s.low.count, s.mid, &mids),
                    s.zipf_pool / 2,
                ));
                pool
            }
            Workload::AppendMix => {
                // The skewed_probe shapes restricted to the appended `low` keywords.
                cross(
                    s.low,
                    APPEND_LOW_KEYWORDS.min(s.low.count),
                    s.big,
                    &[big1, big2].concat(),
                )
            }
        };
        rng.shuffle(&mut pool);
        pool
    }
}

/// All subsets of `0..n` (`n` ≤ 16) with `min..=max` members.
fn subsets(n: usize, min: usize, max: usize) -> Vec<Vec<usize>> {
    assert!(n <= 16, "subset enumeration is by bit mask");
    let mut out = Vec::new();
    for mask in 0u32..(1 << n) {
        let k = mask.count_ones() as usize;
        if (min..=max).contains(&k) {
            out.push((0..n).filter(|i| mask >> i & 1 == 1).collect());
        }
    }
    out
}

/// Every `first[i] × second[combo]` keyword set for `i < first_count`.
fn cross(
    first: Class,
    first_count: usize,
    second: Class,
    combos: &[Vec<usize>],
) -> Vec<Vec<String>> {
    let mut out = Vec::with_capacity(first_count * combos.len());
    for i in 0..first_count {
        for combo in combos {
            let mut q = vec![first.keyword(i)];
            q.extend(combo.iter().map(|&j| second.keyword(j)));
            out.push(q);
        }
    }
    out
}

/// `take` members of `universe` chosen by seeded shuffle (all of it when
/// it is smaller).
fn draw(rng: &mut SplitMix64, mut universe: Vec<Vec<String>>, take: usize) -> Vec<Vec<String>> {
    rng.shuffle(&mut universe);
    universe.truncate(take);
    universe
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn pools_are_distinct_sized_and_seeded() {
        for w in WORKLOADS {
            let pool = w.pool(&FULL, 1);
            let want = match w {
                Workload::ZipfCached => FULL.zipf_pool,
                Workload::AppendMix => APPEND_LOW_KEYWORDS * 10,
                _ => FULL.bypass_pool,
            };
            assert_eq!(pool.len(), want, "{}", w.name());
            let distinct: HashSet<Vec<String>> = pool
                .iter()
                .map(|q| {
                    let mut q = q.clone();
                    q.sort();
                    q
                })
                .collect();
            assert_eq!(
                distinct.len(),
                pool.len(),
                "{} has duplicate keys",
                w.name()
            );
            assert_eq!(pool, w.pool(&FULL, 1));
            assert_ne!(pool, w.pool(&FULL, 2));
        }
    }

    #[test]
    fn shape_counts_do_not_depend_on_the_seed() {
        let shape = |seed| {
            let mut counts = std::collections::BTreeMap::new();
            for q in Workload::SkewedProbe.pool(&FULL, seed) {
                *counts
                    .entry((q[0].starts_with("low"), q.len()))
                    .or_insert(0) += 1;
            }
            counts
        };
        assert_eq!(shape(1), shape(99));
    }

    #[test]
    fn xkgen_args_plant_every_class() {
        let args = FULL.xkgen_args(5);
        assert_eq!(
            args.iter().filter(|a| *a == "--plant").count(),
            4 + 16 + 32 + 256 + 256
        );
        assert!(
            args.contains(&"big3=25000".to_string()) && args.contains(&"rare255=5".to_string())
        );
    }
}
