//! Descriptive statistics: means, variances, medians, quantiles.

use crate::{error::check_no_nan, order_stats, Result, StatsError};

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> Result<f64> {
    check_no_nan(xs)?;
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Unbiased sample variance (denominator `n − 1`).
pub fn variance(xs: &[f64]) -> Result<f64> {
    check_no_nan(xs)?;
    if xs.len() < 2 {
        return Err(StatsError::SampleTooSmall {
            required: 2,
            actual: xs.len(),
        });
    }
    let m = mean(xs)?;
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Sample median (type-7 interpolation). Copies and sorts.
pub fn median(xs: &[f64]) -> Result<f64> {
    quantile(xs, 0.5)
}

/// Type-7 interpolated quantile for `q ∈ [0, 1]`. Copies and sorts.
pub fn quantile(xs: &[f64], q: f64) -> Result<f64> {
    check_no_nan(xs)?;
    if xs.is_empty() {
        return Err(StatsError::EmptySample);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidLevel(q));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    Ok(quantile_sorted_unchecked(&sorted, q))
}

/// Type-7 quantile over already-sorted data (no validation).
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass non-empty sorted data"
)]
pub(crate) fn quantile_sorted_unchecked(sorted: &[f64], q: f64) -> f64 {
    if q <= 0.0 {
        return sorted[0];
    }
    if q >= 1.0 {
        return sorted[sorted.len() - 1];
    }
    order_stats::interpolated_quantile(sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs).unwrap(), 5.0);
        // Population variance of this classic set is 4; sample variance
        // is 32/7.
        assert!((variance(&xs).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs).unwrap() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn quantiles_type7() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&xs, 0.25).unwrap(), 2.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 3.0);
        assert_eq!(quantile(&xs, 0.75).unwrap(), 4.0);
        assert_eq!(quantile(&xs, 1.0).unwrap(), 5.0);
        // Interpolation between order statistics.
        assert!((quantile(&xs, 0.1).unwrap() - 1.4).abs() < 1e-12);
    }

    #[test]
    fn error_paths() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(median(&[]).is_err());
        assert!(quantile(&[1.0], 1.5).is_err());
        assert!(mean(&[f64::NAN]).is_err());
    }
}
