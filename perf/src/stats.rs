//! Order statistics and digests used by every report.

/// Median, quartiles and count of one timing metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises the repetitions of one metric.
///
/// # Panics
///
/// Panics on an empty sample: every metric is measured at least once.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

/// Median of a sample (see [`summarize`]).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// A tail percentile that the sample can support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, 1]`.
    pub q: f64,
    pub value: u64,
}

/// The 99th percentile when at least ten samples lie beyond it, otherwise
/// the highest percentile that still has ten samples beyond; a sample too
/// small for either (≤ 20) reports its median.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    const BEYOND: usize = 10;
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    let idx = if n - 1 - p99 >= BEYOND {
        p99
    } else if n > 2 * BEYOND {
        n - 1 - BEYOND
    } else {
        (n - 1) / 2
    };
    Some(Tail {
        q: (idx + 1) as f64 / n as f64,
        value: sorted[idx],
    })
}

/// FNV-1a over bytes: the determinism witness for stats + trace renderings.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_five_is_exact() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        assert_eq!(median(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn tail_is_p99_only_with_ten_samples_beyond() {
        let big: Vec<u64> = (0..2000).collect();
        let t = tail(&big).unwrap();
        assert_eq!((t.q, t.value), (0.99, 1979));
        assert_eq!(big.len() - 1 - 1979, 20);

        // 1000 samples leave exactly ten beyond the 99th percentile.
        let edge: Vec<u64> = (0..1000).collect();
        assert_eq!(tail(&edge).unwrap().value, 989);

        // 999 samples leave nine: fall back to the highest rank with ten.
        let short: Vec<u64> = (0..999).collect();
        let t = tail(&short).unwrap();
        assert_eq!(t.value, 988);
        assert!(t.q < 0.99);

        let sixty: Vec<u64> = (0..60).collect();
        let t = tail(&sixty).unwrap();
        assert_eq!(t.value, 49);
        assert_eq!(sixty.len() - 1 - 49, 10);
    }

    #[test]
    fn tiny_samples_report_their_median() {
        let few: Vec<u64> = (0..15).collect();
        assert_eq!(tail(&few).unwrap().value, 7);
        assert_eq!(tail(&[42]).unwrap().value, 42);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
