//! The Mann–Whitney U / Wilcoxon rank-sum test.
//!
//! A distribution-free two-sample location test. In this workspace it
//! serves as an *alternative decision rule* for technique L1: instead
//! of requiring complete separation of the two median confidence
//! intervals (the paper's rule), one can rank-sum-test `S_b` against
//! `S_r` directly. The CI-separation rule is the more conservative of
//! the two; the ablation binaries compare them.

use crate::{normal, Result, StatsError};
use serde::{Deserialize, Serialize};

/// Alternative hypothesis for the rank-sum test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankSumAlternative {
    /// The first sample is stochastically smaller.
    Less,
    /// The first sample is stochastically greater.
    Greater,
    /// Either direction.
    TwoSided,
}

/// Result of a Mann–Whitney test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankSumResult {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Normal-approximation z score (tie-corrected).
    pub z: f64,
    /// p-value under the chosen alternative.
    pub p_value: f64,
}

/// Minimum per-sample size for the normal approximation to be sound.
const MIN_N: usize = 8;

/// Mann–Whitney U test of `xs` against `ys` with midrank tie handling
/// and a tie-corrected normal approximation (both samples must have at
/// least 8 observations — the regime L1 uses it in).
#[expect(
    clippy::indexing_slicing,
    reason = "`i <= j < n`: the tie run only extends while `j + 1 < n`"
)]
pub fn rank_sum(xs: &[f64], ys: &[f64], alternative: RankSumAlternative) -> Result<RankSumResult> {
    if xs.iter().chain(ys).any(|v| v.is_nan()) {
        return Err(StatsError::NanInput);
    }
    let (n1, n2) = (xs.len(), ys.len());
    if n1 < MIN_N || n2 < MIN_N {
        return Err(StatsError::SampleTooSmall {
            required: MIN_N,
            actual: n1.min(n2),
        });
    }

    // Pool, sort, midrank.
    let mut pooled: Vec<(f64, bool)> = xs
        .iter()
        .map(|&v| (v, true))
        .chain(ys.iter().map(|&v| (v, false)))
        .collect();
    pooled.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = pooled.len();
    let mut rank_sum_x = 0.0_f64;
    let mut tie_term = 0.0_f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let midrank = (i + j + 2) as f64 / 2.0;
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        for item in &pooled[i..=j] {
            if item.1 {
                rank_sum_x += midrank;
            }
        }
        i = j + 1;
    }

    let n1f = n1 as f64;
    let n2f = n2 as f64;
    let u = rank_sum_x - n1f * (n1f + 1.0) / 2.0;
    let mean = n1f * n2f / 2.0;
    let nf = n as f64;
    let var = n1f * n2f / 12.0 * ((nf + 1.0) - tie_term / (nf * (nf - 1.0)));
    if var <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "variance (all values tied)",
            value: var,
        });
    }
    let sd = var.sqrt();
    // Continuity correction toward the mean.
    let cc = if u > mean {
        -0.5
    } else if u < mean {
        0.5
    } else {
        0.0
    };
    let z = (u - mean + cc) / sd;
    let p_value = match alternative {
        RankSumAlternative::Less => normal::cdf(z),
        RankSumAlternative::Greater => normal::sf(z),
        RankSumAlternative::TwoSided => (2.0 * normal::cdf(z).min(normal::sf(z))).min(1.0),
    };
    Ok(RankSumResult { u, z, p_value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clearly_shifted_samples() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..30).map(|i| i as f64 + 100.0).collect();
        let r = rank_sum(&xs, &ys, RankSumAlternative::Less).unwrap();
        assert!(r.p_value < 1e-9, "p = {}", r.p_value);
        assert_eq!(r.u, 0.0, "no x exceeds any y");
        let r = rank_sum(&xs, &ys, RankSumAlternative::Greater).unwrap();
        assert!(r.p_value > 0.999);
    }

    #[test]
    fn identical_distributions_are_insignificant() {
        let xs: Vec<f64> = (0..40).map(|i| (i * 7 % 40) as f64).collect();
        let ys: Vec<f64> = (0..40).map(|i| (i * 11 % 40) as f64 + 0.5).collect();
        let r = rank_sum(&xs, &ys, RankSumAlternative::TwoSided).unwrap();
        assert!(r.p_value > 0.2, "p = {}", r.p_value);
    }

    #[test]
    fn u_statistic_reference() {
        // Hand-checked: xs = [1,2,3,4,5,6,7,8], ys = [5.5,6.5,...,12.5]:
        // x values below all ys except x∈{6,7,8} overlap region.
        let xs: Vec<f64> = (1..=8).map(f64::from).collect();
        let ys: Vec<f64> = (0..8).map(|i| 5.5 + i as f64).collect();
        let r = rank_sum(&xs, &ys, RankSumAlternative::Less).unwrap();
        // U = #(x > y) pairs: x=6 beats 5.5 → 1; x=7 beats 5.5,6.5 → 2;
        // x=8 beats 5.5,6.5,7.5 → 3; total 6.
        assert_eq!(r.u, 6.0);
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn symmetry_of_two_sided_p() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..20).map(|i| i as f64 + 5.0).collect();
        let a = rank_sum(&xs, &ys, RankSumAlternative::TwoSided).unwrap();
        let b = rank_sum(&ys, &xs, RankSumAlternative::TwoSided).unwrap();
        assert!((a.p_value - b.p_value).abs() < 1e-9);
    }

    #[test]
    fn ties_are_handled() {
        let xs = vec![1.0; 10]
            .into_iter()
            .chain(vec![2.0; 5])
            .collect::<Vec<_>>();
        let ys = vec![2.0; 10]
            .into_iter()
            .chain(vec![3.0; 5])
            .collect::<Vec<_>>();
        let r = rank_sum(&xs, &ys, RankSumAlternative::Less).unwrap();
        assert!(r.p_value < 0.01);
    }

    #[test]
    fn error_cases() {
        let small = vec![1.0; 3];
        let ok = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert!(rank_sum(&small, &ok, RankSumAlternative::TwoSided).is_err());
        assert!(rank_sum(&ok, &[f64::NAN; 8], RankSumAlternative::TwoSided).is_err());
        // All values identical → zero variance.
        let tied = vec![5.0; 10];
        assert!(rank_sum(&tied, &tied, RankSumAlternative::TwoSided).is_err());
    }
}
