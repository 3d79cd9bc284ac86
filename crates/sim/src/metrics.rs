//! Lightweight metrics for experiment reporting: exact-sample duration
//! statistics and the nearest-rank percentile they share.

use std::fmt;

use crate::SimDuration;

/// Exact nearest-rank percentile over an already **sorted** slice.
///
/// `rank = ceil(q * n)` clamped to `[1, n]`, and the result is
/// `sorted[rank - 1]` — the standard nearest-rank definition, which unlike
/// the floor-index shortcut (`sorted[(q * n) as usize]`) never reads past
/// the end at `q = 1.0` and returns the minimum (not an underflow) at
/// `q = 0.0`. Returns `None` on an empty slice: callers must handle the
/// no-samples case explicitly instead of defaulting to a vacuous value.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
///
/// # Example
///
/// ```
/// use aorta_sim::metrics::percentile;
///
/// let v = [1, 2, 3, 4];
/// assert_eq!(percentile(&v, 0.5), Some(2));
/// assert_eq!(percentile(&v, 0.99), Some(4));
/// let empty: [i32; 0] = [];
/// assert_eq!(percentile(&empty, 0.99), None);
/// ```
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    assert!(
        (0.0..=1.0).contains(&q),
        "percentile must be in [0,1], got {q}"
    );
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Exact-sample duration statistics.
///
/// Stores all samples (experiments here record at most a few hundred
/// thousand) so quantiles are exact rather than approximate.
///
/// # Example
///
/// ```
/// use aorta_sim::metrics::DurationStats;
/// use aorta_sim::SimDuration;
///
/// let mut s = DurationStats::new();
/// for secs in [1, 2, 3] {
///     s.record(SimDuration::from_secs(secs));
/// }
/// assert_eq!(s.mean(), Some(SimDuration::from_secs(2)));
/// assert_eq!(s.max(), Some(SimDuration::from_secs(3)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurationStats {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl DurationStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        DurationStats::default()
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        self.samples.iter().copied().sum()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.total() / self.samples.len() as u64)
        }
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<SimDuration> {
        self.samples.iter().copied().min()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<SimDuration> {
        self.samples.iter().copied().max()
    }

    /// Exact quantile by the nearest-rank method; `q` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<SimDuration> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in [0,1], got {q}"
        );
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.samples, q)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<SimDuration> {
        self.quantile(0.5)
    }

    /// Sample standard deviation in seconds (n-1 denominator).
    pub fn stddev_secs(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let mean = self.mean()?.as_secs_f64();
        let var = self
            .samples
            .iter()
            .map(|s| {
                let d = s.as_secs_f64() - mean;
                d * d
            })
            .sum::<f64>()
            / (self.samples.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Iterates over the recorded samples in insertion order (unless a
    /// quantile call has sorted them).
    pub fn iter(&self) -> std::slice::Iter<'_, SimDuration> {
        self.samples.iter()
    }
}

impl Extend<SimDuration> for DurationStats {
    fn extend<I: IntoIterator<Item = SimDuration>>(&mut self, iter: I) {
        for d in iter {
            self.record(d);
        }
    }
}

impl FromIterator<SimDuration> for DurationStats {
    fn from_iter<I: IntoIterator<Item = SimDuration>>(iter: I) -> Self {
        let mut s = DurationStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for DurationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.count(), self.mean(), self.min(), self.max()) {
            (0, ..) => write!(f, "n=0"),
            (n, Some(mean), Some(min), Some(max)) => {
                write!(f, "n={n} mean={mean} min={min} max={max}")
            }
            _ => unreachable!("non-empty stats always have mean/min/max"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stats_summary() {
        let mut s: DurationStats = [4u64, 1, 3, 2]
            .iter()
            .map(|&x| SimDuration::from_secs(x))
            .collect();
        assert_eq!(s.count(), 4);
        assert_eq!(s.total(), SimDuration::from_secs(10));
        assert_eq!(s.mean(), Some(SimDuration::from_micros(2_500_000)));
        assert_eq!(s.min(), Some(SimDuration::from_secs(1)));
        assert_eq!(s.max(), Some(SimDuration::from_secs(4)));
        assert_eq!(s.median(), Some(SimDuration::from_secs(2)));
        assert_eq!(s.quantile(1.0), Some(SimDuration::from_secs(4)));
        assert_eq!(s.quantile(0.0), Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn empty_stats() {
        let mut s = DurationStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.median(), None);
        assert_eq!(s.stddev_secs(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn stddev_known_value() {
        let s: DurationStats = [2u64, 4, 4, 4, 5, 5, 7, 9]
            .iter()
            .map(|&x| SimDuration::from_secs(x))
            .collect();
        // Sample stddev of this classic set is ~2.138.
        let sd = s.stddev_secs().unwrap();
        assert!((sd - 2.138).abs() < 0.01, "got {sd}");
    }

    #[test]
    fn percentile_known_small_vectors() {
        // Nearest-rank on [1,2,3,4]: p50 → rank 2 → 2. A floor-index
        // implementation (v[(0.5 * 4) as usize]) would wrongly give 3.
        let v = [1u64, 2, 3, 4];
        assert_eq!(percentile(&v, 0.5), Some(2));
        assert_eq!(percentile(&v, 0.25), Some(1));
        assert_eq!(percentile(&v, 0.75), Some(3));
        // p99 of 4 samples is the max; floor-index would read v[3] too,
        // but at q=1.0 it would read v[4] and panic.
        assert_eq!(percentile(&v, 0.99), Some(4));
        assert_eq!(percentile(&v, 1.0), Some(4));
        assert_eq!(percentile(&v, 0.0), Some(1));
        // Single element: every percentile is that element.
        assert_eq!(percentile(&[7u64], 0.0), Some(7));
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
        assert_eq!(percentile(&[7u64], 1.0), Some(7));
        // Empty: explicit None, never a silent default.
        let empty: [u64; 0] = [];
        assert_eq!(percentile(&empty, 0.99), None);
        // Five elements: p50 → rank ceil(2.5)=3 → median element.
        assert_eq!(percentile(&[10u64, 20, 30, 40, 50], 0.5), Some(30));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_rejects_out_of_range() {
        let _ = percentile(&[1u64], -0.1);
    }

    #[test]
    fn quantile_delegates_to_percentile() {
        let mut s: DurationStats = [5u64, 1, 9, 3]
            .iter()
            .map(|&x| SimDuration::from_secs(x))
            .collect();
        let mut sorted: Vec<SimDuration> = s.iter().copied().collect();
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), percentile(&sorted, q), "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let mut s = DurationStats::new();
        s.record(SimDuration::ZERO);
        let _ = s.quantile(1.5);
    }

    proptest! {
        #[test]
        fn prop_mean_between_min_and_max(xs in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let s: DurationStats = xs.iter().map(|&x| SimDuration::from_micros(x)).collect();
            let mean = s.mean().unwrap();
            prop_assert!(s.min().unwrap() <= mean);
            prop_assert!(mean <= s.max().unwrap());
        }

        #[test]
        fn prop_quantiles_monotone(xs in proptest::collection::vec(0u64..1_000_000, 1..100)) {
            let mut s: DurationStats = xs.iter().map(|&x| SimDuration::from_micros(x)).collect();
            let q25 = s.quantile(0.25).unwrap();
            let q50 = s.quantile(0.5).unwrap();
            let q75 = s.quantile(0.75).unwrap();
            prop_assert!(q25 <= q50 && q50 <= q75);
        }
    }
}
