//! Simple linear regression with confidence intervals.
//!
//! The load-influence experiment (§4.9, Figure 9) regresses the fraction
//! of dependencies each technique recovers per hour on the hourly log
//! volume, then checks whether the confidence interval for the slope is
//! strictly negative (L1) or contains zero (L2). The paper also validates
//! the model with normal QQ-plots of the residuals; [`Fit::qq_points`]
//! produces exactly that data.

use crate::{error::check_no_nan, normal, tdist, Result, StatsError};
use serde::{Deserialize, Serialize};

/// An interval estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

impl Interval {
    /// True if the whole interval is below zero.
    pub fn strictly_negative(&self) -> bool {
        self.upper < 0.0
    }

    /// True if the whole interval is above zero.
    pub fn strictly_positive(&self) -> bool {
        self.lower > 0.0
    }

    /// True if zero lies inside (inclusive) the interval.
    pub fn contains_zero(&self) -> bool {
        self.lower <= 0.0 && 0.0 <= self.upper
    }
}

/// An ordinary-least-squares fit `y ≈ intercept + slope · x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fit {
    /// Estimated intercept.
    pub intercept: f64,
    /// Estimated slope.
    pub slope: f64,
    /// Standard error of the slope.
    pub slope_se: f64,
    /// Standard error of the intercept.
    pub intercept_se: f64,
    /// Residual standard deviation (√(SSE / (n − 2))).
    pub residual_sd: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
    /// Number of observations.
    pub n: usize,
    /// Residuals in input order.
    pub residuals: Vec<f64>,
}

impl Fit {
    /// Two-sided confidence interval for the slope at `level`, using the
    /// t distribution with `n − 2` degrees of freedom.
    pub fn slope_ci(&self, level: f64) -> Result<Interval> {
        let t = tdist::two_sided_t(level, (self.n - 2) as f64)?;
        Ok(Interval {
            lower: self.slope - t * self.slope_se,
            upper: self.slope + t * self.slope_se,
        })
    }

    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Normal QQ-plot data for the standardized residuals: pairs of
    /// (theoretical normal quantile, ordered standardized residual).
    ///
    /// A straight-line shape validates the regression's normality
    /// assumption, as done in §4.9 of the paper.
    pub fn qq_points(&self) -> Result<Vec<(f64, f64)>> {
        if self.residual_sd <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "residual_sd",
                value: self.residual_sd,
            });
        }
        let n = self.residuals.len();
        let mut std_res: Vec<f64> = self
            .residuals
            .iter()
            .map(|r| r / self.residual_sd)
            .collect();
        std_res.sort_by(|a, b| a.total_cmp(b));
        let mut pts = Vec::with_capacity(n);
        for (i, r) in std_res.into_iter().enumerate() {
            // Blom plotting positions.
            let p = (i as f64 + 1.0 - 0.375) / (n as f64 + 0.25);
            pts.push((normal::quantile(p)?, r));
        }
        Ok(pts)
    }
}

/// Fits `y ≈ a + b·x` by ordinary least squares.
///
/// Requires at least 3 points (so that the residual variance has at least
/// one degree of freedom) and non-constant `x`.
#[expect(
    clippy::indexing_slicing,
    reason = "`x` and `y` have the checked common length `n`"
)]
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<Fit> {
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter {
            name: "x/y length mismatch",
            value: x.len() as f64 - y.len() as f64,
        });
    }
    let n = x.len();
    if n < 3 {
        return Err(StatsError::SampleTooSmall {
            required: 3,
            actual: n,
        });
    }
    check_no_nan(x)?;
    check_no_nan(y)?;

    let nf = n as f64;
    let mean_x = x.iter().sum::<f64>() / nf;
    let mean_y = y.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mean_x;
        let dy = y[i] - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "x (constant)",
            value: mean_x,
        });
    }

    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let residuals: Vec<f64> = (0..n).map(|i| y[i] - (intercept + slope * x[i])).collect();
    let sse: f64 = residuals.iter().map(|r| r * r).sum();
    let df = nf - 2.0;
    let residual_var = sse / df;
    let residual_sd = residual_var.sqrt();
    let slope_se = (residual_var / sxx).sqrt();
    let intercept_se = (residual_var * (1.0 / nf + mean_x * mean_x / sxx)).sqrt();
    let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - sse / syy };

    Ok(Fit {
        intercept,
        slope,
        slope_se,
        intercept_se,
        residual_sd,
        r_squared,
        n,
        residuals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 + 2.0 * v).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!(fit.r_squared > 0.999_999);
        assert!(fit.slope_se < 1e-10);
        assert!((fit.predict(20.0) - 43.0).abs() < 1e-9);
    }

    #[test]
    fn textbook_example_with_noise() {
        // Hand-checked small dataset.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.1, 3.9, 6.2, 7.8, 10.1];
        let fit = linear_fit(&x, &y).unwrap();
        // Least squares: slope = Sxy/Sxx = 20.0/10.0 = 2.0 with these values.
        assert!((fit.slope - 2.0).abs() < 0.02, "slope = {}", fit.slope);
        assert!((fit.intercept - 0.02).abs() < 0.08);
        let ci = fit.slope_ci(0.95).unwrap();
        assert!(ci.lower < 2.0 && 2.0 < ci.upper);
        assert!(ci.strictly_positive());
    }

    #[test]
    fn negative_slope_detected_strictly() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 10.0 - 0.25 * v + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let fit = linear_fit(&x, &y).unwrap();
        let ci = fit.slope_ci(0.95).unwrap();
        assert!(ci.strictly_negative());
        assert!(!ci.contains_zero());
    }

    #[test]
    fn flat_noise_slope_ci_contains_zero() {
        // Deterministic "noise" with no trend.
        let x: Vec<f64> = (0..40).map(f64::from).collect();
        let y: Vec<f64> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    1.2
                } else if i % 3 == 1 {
                    0.8
                } else {
                    1.0
                }
            })
            .collect();
        let fit = linear_fit(&x, &y).unwrap();
        let ci = fit.slope_ci(0.95).unwrap();
        assert!(ci.contains_zero(), "ci = {ci:?}");
    }

    #[test]
    fn residuals_sum_to_zero() {
        let x = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0];
        let y = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let fit = linear_fit(&x, &y).unwrap();
        let s: f64 = fit.residuals.iter().sum();
        assert!(s.abs() < 1e-10);
    }

    #[test]
    fn qq_points_are_monotone_and_centered() {
        let x: Vec<f64> = (0..30).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 0.5 + ((v * 0.7).sin())).collect();
        let fit = linear_fit(&x, &y).unwrap();
        let pts = fit.qq_points().unwrap();
        assert_eq!(pts.len(), 30);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        // Median theoretical quantile near zero.
        assert!(pts[15].0.abs() < 0.2);
    }

    #[test]
    fn error_cases() {
        assert!(linear_fit(&[1.0, 2.0], &[1.0, 2.0]).is_err()); // too small
        assert!(linear_fit(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_err()); // constant x
        assert!(linear_fit(&[1.0, 2.0, 3.0], &[1.0, 2.0]).is_err()); // mismatch
        assert!(linear_fit(&[1.0, 2.0, f64::NAN], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn interval_predicates() {
        let neg = Interval {
            lower: -2.0,
            upper: -0.5,
        };
        assert!(neg.strictly_negative() && !neg.contains_zero());
        let span = Interval {
            lower: -0.1,
            upper: 0.1,
        };
        assert!(span.contains_zero() && !span.strictly_positive());
        let pos = Interval {
            lower: 0.3,
            upper: 0.9,
        };
        assert!(pos.strictly_positive());
    }
}
