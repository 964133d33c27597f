//! Box-plot summaries with median confidence intervals.
//!
//! Figure 2 of the paper displays, for each distance sample, a box plot
//! annotated with the median (dashed), the 95 %-level median CI (solid)
//! and the 99 %-level median CI (dotted). [`BoxplotSummary`] captures
//! exactly those ingredients so a plotting front end — or the bench
//! binaries' ASCII renderer — can reproduce the figure.

use crate::{descriptive, error::check_no_nan, order_stats, Result, StatsError};
use serde::{Deserialize, Serialize};

/// Five-number summary plus median confidence intervals at two levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxplotSummary {
    /// Smallest observation.
    pub min: f64,
    /// Lower quartile (type-7).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Upper quartile (type-7).
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Median CI at the primary level (the paper's 95 %).
    pub median_ci_primary: (f64, f64),
    /// Median CI at the secondary level (the paper's 99 %).
    pub median_ci_secondary: (f64, f64),
    /// Number of observations summarized.
    pub n: usize,
}

impl BoxplotSummary {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Computes a [`BoxplotSummary`] with median CIs at the two given levels.
#[expect(
    clippy::indexing_slicing,
    reason = "`sorted` is non-empty (checked above)"
)]
pub fn summarize(xs: &[f64], primary_level: f64, secondary_level: f64) -> Result<BoxplotSummary> {
    check_no_nan(xs)?;
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let ci1 = order_stats::median_ci_sorted(&sorted, primary_level)?;
    let ci2 = order_stats::median_ci_sorted(&sorted, secondary_level)?;
    Ok(BoxplotSummary {
        min: sorted[0],
        q1: descriptive::quantile_sorted_unchecked(&sorted, 0.25),
        median: descriptive::quantile_sorted_unchecked(&sorted, 0.5),
        q3: descriptive::quantile_sorted_unchecked(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
        median_ci_primary: (ci1.lower, ci1.upper),
        median_ci_secondary: (ci2.lower, ci2.upper),
        n: xs.len(),
    })
}

/// Convenience wrapper using the paper's levels (0.95 and 0.99).
pub fn summarize_paper_levels(xs: &[f64]) -> Result<BoxplotSummary> {
    summarize(xs, 0.95, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_numbers_in_order() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        let s = summarize_paper_levels(&xs).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 26.0);
        assert_eq!(s.median, 51.0);
        assert_eq!(s.q3, 76.0);
        assert_eq!(s.max, 101.0);
        assert_eq!(s.n, 101);
        assert_eq!(s.iqr(), 50.0);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
    }

    #[test]
    fn wider_level_gives_wider_or_equal_ci() {
        let xs: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let s = summarize_paper_levels(&xs).unwrap();
        assert!(s.median_ci_secondary.0 <= s.median_ci_primary.0);
        assert!(s.median_ci_secondary.1 >= s.median_ci_primary.1);
        assert!(s.median_ci_primary.0 <= s.median && s.median <= s.median_ci_primary.1);
    }

    #[test]
    fn single_observation() {
        let s = summarize(&[42.0], 0.95, 0.99).unwrap();
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.median_ci_primary, (42.0, 42.0));
    }

    #[test]
    fn error_on_empty_and_nan() {
        assert!(summarize(&[], 0.95, 0.99).is_err());
        assert!(summarize(&[1.0, f64::NAN], 0.95, 0.99).is_err());
    }
}
