//! The harness's own randomness: query pools, shuffles and Zipf draws all
//! come from a splitmix64 seeded by `--seed`, so the same seed gives the
//! same inputs and the program under test only ever sees generated data.

/// splitmix64 (Steele, Lea & Flood): 64 bits of state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2⁻⁴⁰ for the pool
    /// sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`, sampled by binary search on
/// the cumulative table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / (rank as f64).powf(s);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        // Reference value of splitmix64 seeded with 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn below_and_shuffle_stay_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..10_000).all(|_| r.below(13) < 13));
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(4096, 1.1);
        let mut r = SplitMix64::new(3);
        let mut head = 0;
        for _ in 0..100_000 {
            let k = z.sample(&mut r);
            assert!(k < 4096);
            head += usize::from(k < 41); // top 1 % of ranks
        }
        // Under Zipf(1.1) over 4096 ranks the top 1 % carries ~55 % of the mass.
        assert!((45_000..65_000).contains(&head), "{head}");
    }
}
