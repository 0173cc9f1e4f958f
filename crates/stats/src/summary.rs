//! Compact numeric summaries for table cells.

use crate::online::OnlineStats;
use crate::quantile::quantile;

/// A five-number-plus summary of a sample: count, mean, standard deviation,
/// min, quartiles, p99 and max.
///
/// # Example
///
/// ```
/// use rapid_stats::Summary;
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(s.mean, 3.0);
/// assert_eq!(s.median, 3.0);
/// assert_eq!(s.count, 5);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased).
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_err: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    pub fn from_slice(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "summary of empty data");
        let stats: OnlineStats = data.iter().copied().collect();
        Summary {
            count: stats.count(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            std_err: stats.std_err(),
            min: stats.min(),
            q1: quantile(data, 0.25),
            median: quantile(data, 0.5),
            q3: quantile(data, 0.75),
            p99: quantile(data, 0.99),
            max: stats.max(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} med={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.median, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.5);
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn display_and_mean_pm_render() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        assert!(s.to_string().contains("n=3"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        let _ = Summary::from_slice(&[]);
    }
}
