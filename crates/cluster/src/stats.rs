//! Sample statistics for experiment trials.
//!
//! The paper plots every sample with a line through the median; we keep
//! the full sample vector and summarize with robust order statistics.

/// Summary of one experiment point's latency samples (microseconds).
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median (the line the paper draws).
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
}

impl Summary {
    /// Summarize a non-empty sample set.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "cannot summarize zero samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            count: n,
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: sorted[n - 1],
            mean,
            std_dev: var.sqrt(),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolated quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_sample() {
        let s = Summary::from_samples(&[42.0]);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn known_median_odd_and_even() {
        let s = Summary::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(s.median, 2.0);
        let s = Summary::from_samples(&[4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median, 2.5);
    }

    #[test]
    fn quartiles_of_uniform_grid() {
        let samples: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        let s = Summary::from_samples(&samples);
        assert_eq!(s.q1, 25.0);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.q3, 75.0);
        assert_eq!(s.iqr(), 50.0);
    }

    #[test]
    fn mean_and_std() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let s = Summary::from_samples(&[9.0, 1.0, 5.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_panics() {
        Summary::from_samples(&[]);
    }
}
