//! Order statistics over measured samples.

/// The `p`-th percentile (`0 < p < 100`) of `sorted`, by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or
/// below it. An observed value, never an interpolated one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p`-th percentile's rank. A tail
/// percentile with fewer than ten beyond it is the luck of a handful of
/// draws, so the count is printed next to every p99.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Median of floating-point values (mean of the middle two when even).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.9), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2], 50.0), 1);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples: rank 990, ten beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(samples_beyond(19, 50.0), 9);
        assert_eq!(samples_beyond(1, 99.0), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
