//! The Wilcoxon signed-rank test.
//!
//! The paper's timeout study (§4.7, Table 2) backs its median tests with a
//! "signed wilcoxon rank sum test" over the 7 paired daily differences and
//! reports p = 0.0156 whenever all 7 differences share a sign — which is
//! exactly the two-sided exact p-value `2 · (1/2)⁷ · 2⁷/2⁷`… more simply,
//! `2/2⁷ = 0.015625` for the extreme rank sum. This module reproduces that
//! exact small-sample distribution by dynamic programming, with a
//! tie-corrected normal approximation for larger samples.

use crate::{normal, Result, StatsError};
use serde::{Deserialize, Serialize};

/// Alternative hypothesis for the signed-rank test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Alternative {
    /// Median difference ≠ 0.
    TwoSided,
    /// Median difference > 0.
    Greater,
    /// Median difference < 0.
    Less,
}

/// Result of a signed-rank test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignedRankResult {
    /// Sum of ranks of the positive differences (`W+`).
    pub w_plus: f64,
    /// Effective sample size after dropping zero differences.
    pub n_used: usize,
    /// p-value under the chosen alternative.
    pub p_value: f64,
    /// Whether the exact distribution was used (vs. normal approximation).
    pub exact: bool,
}

/// Largest `n` for which the exact null distribution is enumerated.
const EXACT_MAX_N: usize = 30;

/// Wilcoxon signed-rank test on paired differences.
///
/// Zero differences are dropped (the standard Wilcoxon treatment). Exact
/// p-values are computed when `n ≤ 30` and there are no ties in |d|;
/// otherwise a tie-corrected normal approximation with continuity
/// correction is used.
///
/// ```
/// use logdep_stats::wilcoxon::{signed_rank, Alternative};
///
/// // 7 same-sign differences: the paper's p = 0.0156 (two-sided).
/// let d = [5.4, 1.9, 9.3, 4.5, 2.0, 6.8, 5.1];
/// let r = signed_rank(&d, Alternative::TwoSided).unwrap();
/// assert!((r.p_value - 0.015625).abs() < 1e-12);
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "`idx` permutes 0..n and the tie run only extends while `j + 1 < n`"
)]
pub fn signed_rank(diffs: &[f64], alternative: Alternative) -> Result<SignedRankResult> {
    if diffs.iter().any(|d| d.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let nonzero: Vec<f64> = diffs.iter().copied().filter(|d| *d != 0.0).collect();
    let n = nonzero.len();
    if n == 0 {
        return Err(StatsError::EmptySample);
    }

    // Midranks of |d|.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| nonzero[a].abs().total_cmp(&nonzero[b].abs()));
    let mut ranks = vec![0.0_f64; n];
    let mut ties: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && nonzero[idx[j + 1]].abs() == nonzero[idx[i]].abs() {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // 1-based midrank
        for &k in &idx[i..=j] {
            ranks[k] = avg_rank;
        }
        if j > i {
            ties.push(j - i + 1);
        }
        i = j + 1;
    }

    let w_plus: f64 = (0..n).filter(|&i| nonzero[i] > 0.0).map(|i| ranks[i]).sum();

    let has_ties = !ties.is_empty();
    let (p_value, exact) = if n <= EXACT_MAX_N && !has_ties {
        (exact_p(w_plus as u64, n, alternative), true)
    } else {
        (approx_p(w_plus, n, &ties, alternative)?, false)
    };

    Ok(SignedRankResult {
        w_plus,
        n_used: n,
        p_value,
        exact,
    })
}

/// Exact null distribution of `W+` by subset-sum dynamic programming:
/// counts of subsets of {1..n} with each possible rank sum.
#[expect(clippy::indexing_slicing, reason = "rank sums stay within 0..=max_sum")]
fn exact_p(w: u64, n: usize, alternative: Alternative) -> f64 {
    let max_sum = n * (n + 1) / 2;
    let mut counts = vec![0.0_f64; max_sum + 1];
    counts[0] = 1.0;
    for r in 1..=n {
        for s in (r..=max_sum).rev() {
            counts[s] += counts[s - r];
        }
    }
    let total = 2.0_f64.powi(n as i32);
    let cdf_at =
        |k: u64| -> f64 { counts[..=(k as usize).min(max_sum)].iter().sum::<f64>() / total };
    let p_le = cdf_at(w);
    let p_ge = 1.0 - if w == 0 { 0.0 } else { cdf_at(w - 1) };
    match alternative {
        Alternative::Greater => p_ge,
        Alternative::Less => p_le,
        Alternative::TwoSided => (2.0 * p_le.min(p_ge)).min(1.0),
    }
}

/// Normal approximation with tie correction and continuity correction.
fn approx_p(w: f64, n: usize, ties: &[usize], alternative: Alternative) -> Result<f64> {
    let nf = n as f64;
    let mean = nf * (nf + 1.0) / 4.0;
    let tie_term: f64 = ties.iter().map(|&t| (t * t * t - t) as f64).sum();
    let var = nf * (nf + 1.0) * (2.0 * nf + 1.0) / 24.0 - tie_term / 48.0;
    if var <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "variance",
            value: var,
        });
    }
    let sd = var.sqrt();
    let z_upper = (w - mean - 0.5) / sd; // for P(W ≥ w)
    let z_lower = (w - mean + 0.5) / sd; // for P(W ≤ w)
    Ok(match alternative {
        Alternative::Greater => normal::sf(z_upper),
        Alternative::Less => normal::cdf(z_lower),
        Alternative::TwoSided => (2.0 * normal::sf(z_upper).min(normal::cdf(z_lower))).min(1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_positive_n7_matches_paper() {
        // Whenever all 7 paired differences share a sign, the exact
        // two-sided p is 2/2⁷ = 0.015625 — the value quoted in §4.7.
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert_eq!(r.w_plus, 28.0);
        assert!(r.exact);
        assert!((r.p_value - 0.015_625).abs() < 1e-12);

        let neg: Vec<f64> = d.iter().map(|x| -x).collect();
        let r = signed_rank(&neg, Alternative::TwoSided).unwrap();
        assert!((r.p_value - 0.015_625).abs() < 1e-12);
    }

    #[test]
    fn one_sided_extreme_n7() {
        let d = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let r = signed_rank(&d, Alternative::Greater).unwrap();
        assert!((r.p_value - 1.0 / 128.0).abs() < 1e-12);
        let r = signed_rank(&d, Alternative::Less).unwrap();
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_data_is_insignificant() {
        let d = [1.0, -1.5, 2.0, -2.5, 3.0, -3.5, 4.0, -4.5];
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert!(r.p_value > 0.5);
    }

    #[test]
    fn zero_differences_dropped() {
        let d = [0.0, 0.0, 1.0, 2.0, 3.0];
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert_eq!(r.n_used, 3);
        // All positive, n = 3: two-sided exact p = 2/8 = 0.25.
        assert!((r.p_value - 0.25).abs() < 1e-12);
    }

    #[test]
    fn all_zero_is_error() {
        assert!(signed_rank(&[0.0, 0.0], Alternative::TwoSided).is_err());
        assert!(signed_rank(&[], Alternative::TwoSided).is_err());
        assert!(signed_rank(&[1.0, f64::NAN], Alternative::TwoSided).is_err());
    }

    #[test]
    fn exact_distribution_n5_reference() {
        // For n = 5, P(W+ ≥ 15) = 1/32, P(W+ ≥ 14) = 2/32, P(W+ ≥ 13) = 3/32.
        let d = [1.0, 2.0, 3.0, 4.0, 5.0];
        let r = signed_rank(&d, Alternative::Greater).unwrap();
        assert!((r.p_value - 1.0 / 32.0).abs() < 1e-12);

        // Flip the smallest difference: W+ = 14.
        let d = [-1.0, 2.0, 3.0, 4.0, 5.0];
        let r = signed_rank(&d, Alternative::Greater).unwrap();
        assert_eq!(r.w_plus, 14.0);
        assert!((r.p_value - 2.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn ties_fall_back_to_normal_approximation() {
        let d = [1.0, 1.0, 2.0, -2.0, 3.0, 4.0, 5.0, 6.0];
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert!(!r.exact);
        assert!(r.p_value > 0.0 && r.p_value < 1.0);
    }

    #[test]
    fn large_sample_uses_approximation_and_is_sane() {
        // 40 clearly positive differences: p must be tiny.
        let d: Vec<f64> = (1..=40).map(|i| i as f64 / 10.0 + 0.05).collect();
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert!(!r.exact);
        assert!(r.p_value < 1e-6);
    }

    #[test]
    fn approx_agrees_with_exact_mid_range() {
        // Compare exact and approximate p on an n = 20 sample with a
        // moderate W+; they should agree to a couple of percent.
        let mut d: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        for item in d.iter_mut().take(8) {
            *item = -*item;
        }
        let exact = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert!(exact.exact);
        let ties = [];
        let approx = approx_p(exact.w_plus, 20, &ties, Alternative::TwoSided).unwrap();
        assert!(
            (exact.p_value - approx).abs() < 0.03,
            "exact {} vs approx {approx}",
            exact.p_value
        );
    }
}
