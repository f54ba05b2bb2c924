//! Exact-sample latency recorder: every sample is kept (nanoseconds), so
//! a median and a tail percentile are order statistics of the data, not
//! bucket edges. (`trial::Latency` in `crates/bench` wraps a log₂
//! histogram: one bucket spans a factor of two, so it cannot tell a p50
//! of 1.1 ms from a p99 of 1.9 ms.)

/// Percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 5] = [0.90, 0.95, 0.99, 0.999, 0.9999];

/// A tail percentile is reported only with at least this many samples
/// beyond it; fewer, and the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

#[derive(Debug, Clone, Default)]
pub struct Recorder {
    ns: Vec<u64>,
    sorted: bool,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn from_samples(ns: Vec<u64>) -> Recorder {
        Recorder { ns, sorted: false }
    }

    pub fn record(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the data at or below it. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.ns.is_empty() {
            return None;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        Some(self.ns[rank(self.ns.len(), q) - 1])
    }

    pub fn median(&mut self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Whether `q` has at least [`MIN_BEYOND`] samples beyond it.
    pub fn supports(&self, q: f64) -> bool {
        !self.ns.is_empty() && self.ns.len() - rank(self.ns.len(), q) >= MIN_BEYOND
    }

    /// The highest percentile of [`TAIL_LADDER`] the sample supports, and
    /// its value.
    pub fn tail(&mut self) -> Option<(f64, u64)> {
        let q = TAIL_LADDER
            .iter()
            .rev()
            .copied()
            .find(|&q| self.supports(q))?;
        Some((q, self.quantile(q)?))
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of a small set of per-sub-window values (mean of the middle
/// two when the count is even). `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_thousand() {
        let mut r = Recorder::from_samples((1..=1000).rev().collect());
        assert_eq!(r.len(), 1000);
        assert_eq!(r.median(), Some(500));
        assert_eq!(r.quantile(0.99), Some(990));
        assert_eq!(r.quantile(1.0), Some(1000));
        assert_eq!(r.quantile(0.0), Some(1));
        // Exactly ten samples (991..=1000) lie beyond p99; p99.9 has one.
        assert_eq!(r.tail(), Some((0.99, 990)));
    }

    #[test]
    fn one_sample_short_of_p99_reports_p95() {
        let mut r = Recorder::from_samples((1..=999).collect());
        assert!(!r.supports(0.99));
        assert_eq!(r.tail(), Some((0.95, 950)));
    }

    #[test]
    fn tells_p50_from_p99_inside_one_power_of_two() {
        // 1024..2047 ns is a single log2 bucket.
        let mut r = Recorder::from_samples((1024..2048).collect());
        assert_eq!(r.median(), Some(1535));
        assert_eq!(r.quantile(0.99), Some(2037));
    }

    #[test]
    fn bimodal_tail() {
        let mut samples = vec![100u64; 9_900];
        samples.extend(std::iter::repeat_n(1_000_000, 100));
        let mut r = Recorder::from_samples(samples);
        assert_eq!(r.median(), Some(100));
        assert_eq!(r.quantile(0.99), Some(100));
        assert_eq!(r.tail(), Some((0.999, 1_000_000)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let mut r = Recorder::new();
        assert_eq!(r.median(), None);
        for i in 0..50 {
            r.record(i);
        }
        assert_eq!(r.tail(), None);
        assert_eq!(r.median(), Some(24));
    }

    #[test]
    fn median_of_values() {
        assert_eq!(median_f64(&[]), None);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
