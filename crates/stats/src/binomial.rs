//! The binomial distribution: PMF, CDF, and quantiles.
//!
//! Order-statistics confidence intervals (the robust method behind
//! technique L1's median test) reduce entirely to binomial quantiles, so
//! these routines are exact for the sample sizes those tests use and fall
//! back to a continuity-corrected normal approximation for very large `n`.

use crate::special::{beta_inc, ln_gamma};
use crate::{normal, Result, StatsError};

/// Threshold above which the CDF switches from the exact incomplete-beta
/// evaluation to the normal approximation. The beta evaluation is itself
/// O(1), so this is generous; the approximation only exists as a numerical
/// safety net for astronomically large `n`.
const EXACT_LIMIT: u64 = 100_000_000;

/// Validates the success probability parameter.
fn check_p(p: f64) -> Result<()> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(StatsError::InvalidParameter {
            name: "p",
            value: p,
        });
    }
    Ok(())
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Probability mass function `P(X = k)` for `X ~ Binomial(n, p)`.
pub fn pmf(n: u64, p: f64, k: u64) -> Result<f64> {
    check_p(p)?;
    if k > n {
        return Ok(0.0);
    }
    if p == 0.0 {
        return Ok(if k == 0 { 1.0 } else { 0.0 });
    }
    if p == 1.0 {
        return Ok(if k == n { 1.0 } else { 0.0 });
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    Ok(ln.exp())
}

/// Cumulative distribution function `P(X ≤ k)` for `X ~ Binomial(n, p)`.
///
/// Exact via the regularized incomplete beta identity
/// `P(X ≤ k) = I_{1−p}(n−k, k+1)`; normal approximation with continuity
/// correction beyond `n` = 10⁸.
pub fn cdf(n: u64, p: f64, k: u64) -> Result<f64> {
    check_p(p)?;
    if k >= n {
        return Ok(1.0);
    }
    if p == 0.0 {
        return Ok(1.0);
    }
    if p == 1.0 {
        return Ok(0.0); // k < n and all mass at n
    }
    if n <= EXACT_LIMIT {
        Ok(beta_inc((n - k) as f64, k as f64 + 1.0, 1.0 - p))
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        Ok(normal::cdf((k as f64 + 0.5 - mean) / sd))
    }
}

/// Smallest `k` such that `P(X ≤ k) ≥ q` (the lower quantile function).
pub fn quantile(n: u64, p: f64, q: f64) -> Result<u64> {
    check_p(p)?;
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(StatsError::InvalidLevel(q));
    }
    if q <= 0.0 {
        return Ok(0);
    }
    if q >= 1.0 {
        return Ok(n);
    }
    // Bracket with the normal approximation, then binary search on the CDF.
    let mean = n as f64 * p;
    let sd = (n as f64 * p * (1.0 - p)).sqrt().max(1.0);
    let guess = (mean + normal::quantile(q)? * sd).floor();
    let mut lo = (guess - 10.0 * sd).max(0.0) as u64;
    let mut hi = ((guess + 10.0 * sd) as u64).min(n);
    // Widen brackets if the guess was off (tiny n or extreme q).
    while lo > 0 && cdf(n, p, lo)? >= q {
        lo = lo.saturating_sub((10.0 * sd) as u64 + 1);
    }
    while hi < n && cdf(n, p, hi)? < q {
        hi = (hi + (10.0 * sd) as u64 + 1).min(n);
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cdf(n, p, mid)? >= q {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(1_u64, 0.5), (10, 0.3), (25, 0.77), (100, 0.01)] {
            let total: f64 = (0..=n).map(|k| pmf(n, p, k).unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p}");
        }
    }

    #[test]
    fn pmf_fair_coin_values() {
        // Binomial(4, 0.5): 1/16, 4/16, 6/16, 4/16, 1/16
        let expect = [1.0, 4.0, 6.0, 4.0, 1.0];
        for (k, e) in expect.iter().enumerate() {
            assert!((pmf(4, 0.5, k as u64).unwrap() - e / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cdf_matches_pmf_sum() {
        let (n, p) = (30_u64, 0.42);
        let mut acc = 0.0;
        for k in 0..=n {
            acc += pmf(n, p, k).unwrap();
            assert!((cdf(n, p, k).unwrap() - acc).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn cdf_degenerate_parameters() {
        assert_eq!(cdf(10, 0.0, 0).unwrap(), 1.0);
        assert_eq!(cdf(10, 1.0, 9).unwrap(), 0.0);
        assert_eq!(cdf(10, 1.0, 10).unwrap(), 1.0);
        assert_eq!(pmf(10, 0.0, 0).unwrap(), 1.0);
        assert_eq!(pmf(10, 1.0, 10).unwrap(), 1.0);
    }

    #[test]
    fn quantile_is_cdf_inverse() {
        let (n, p) = (50_u64, 0.5);
        for &q in &[0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99] {
            let k = quantile(n, p, q).unwrap();
            assert!(cdf(n, p, k).unwrap() >= q);
            if k > 0 {
                assert!(cdf(n, p, k - 1).unwrap() < q);
            }
        }
    }

    #[test]
    fn quantile_order7_median_interval_level() {
        // With n = 7, P(X ≤ 0) + P(X ≥ 7) = 2·(1/2)^7 = 0.015625, so the
        // CI [x_(1), x_(7)] for the median has exactly level 0.984375 —
        // this is the 0.984 level the paper reports for its 7-day medians.
        let tail = cdf(7, 0.5, 0).unwrap() + (1.0 - cdf(7, 0.5, 6).unwrap());
        assert!((tail - 0.015_625).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(pmf(5, -0.1, 2).is_err());
        assert!(pmf(5, 1.1, 2).is_err());
        assert!(cdf(5, f64::NAN, 2).is_err());
        assert!(quantile(5, 0.5, -0.2).is_err());
    }

    #[test]
    fn ln_choose_values() {
        assert!((ln_choose(5, 2) - 10.0_f64.ln()).abs() < 1e-12);
        assert!((ln_choose(10, 0)).abs() < 1e-12);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
    }

    #[test]
    fn large_n_normal_approx_is_sane() {
        // For huge n the approximation should put the median near n·p.
        let n = 200_000_000_u64;
        let k = quantile(n, 0.5, 0.5).unwrap();
        let diff = (k as i64 - (n / 2) as i64).abs();
        assert!(diff < 50_000, "median {k} too far from {}", n / 2);
    }
}
