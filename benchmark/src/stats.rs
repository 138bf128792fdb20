//! Order statistics over timing samples.

/// Sorted copy of `samples`.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// The `p`-quantile (`0.0..=1.0`) by linear interpolation between closest
/// ranks. Panics on an empty sample: every metric here has at least one op.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let s = sorted(samples);
    let pos = p.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median, or 0 for an empty sample (a layer that did no work).
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// `min q1 median q3 max` of a sample, for the printed notes.
pub fn five_numbers(samples: &[f64]) -> String {
    let at = |p| quantile(samples, p);
    format!("{:.4} {:.4} {:.4} {:.4} {:.4}", at(0.0), at(0.25), at(0.5), at(0.75), at(1.0))
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has at least
/// ten samples beyond it, or `None` when even the median has fewer (n < 20).
/// A percentile with fewer samples above it is one or two outliers, not a
/// measurement, so it is never reported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, so the count beyond is exact integer arithmetic.
    [(999, 99.9), (990, 99.0), (900, 90.0), (500, 50.0)]
        .into_iter()
        .find(|(per_mille, _)| n * (1000 - per_mille) / 1000 >= 10)
        .map(|(_, percentile)| percentile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median_or_zero(&[]), 0.0);
        assert_eq!(median_or_zero(&[7.0, 9.0]), 8.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.0), 0.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert!((quantile(&s, 0.25) - 2.5).abs() < 1e-12);
        assert!((quantile(&s, 0.99) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 20 ops are the fewest that leave ten beyond the median; the 24
        // timed ops of the batch workloads support p50 and nothing higher.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(24), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }
}
