//! Distribution-free confidence intervals for quantiles by order
//! statistics.
//!
//! This is the "robust order statistics method" (Le Boudec, *Performance
//! Evaluation of Computer and Communication Systems*) the paper uses
//! everywhere: for technique L1's median-distance test, for the 0.984-level
//! cross-day intervals of Figures 5/6/8, and for the 0.98-level intervals
//! of Table 2. The only hypothesis is that observations are independent;
//! no distributional shape is assumed.
//!
//! For a sample of size `n` sorted ascending and a target quantile `q`,
//! the interval `[x_(j), x_(k)]` (1-based ranks) covers the true quantile
//! with probability `P(j ≤ B ≤ k − 1)` where `B ~ Binomial(n, q)`. We pick
//! the symmetric-tail ranks: the largest `j` with `P(B < j) ≤ α/2` and the
//! smallest `k` with `P(B ≥ k) ≤ α/2`.
//!
//! The ranks and their coverage depend on `(n, q, level)` only, never on
//! the sample, so each thread memoizes them: L1 computes a median CI for
//! every directional test, over a few hundred distinct sample sizes at
//! one level, and the rank search (binomial quantiles plus a boundary
//! walk of CDF evaluations) would otherwise dominate its cost. Input
//! checks still run on every call; only the rank search is reused, and
//! its memoized result is the bit-identical value the search returns.

use crate::{binomial, error::check_level, error::check_no_nan, Result, StatsError};
use std::cell::RefCell;
use std::collections::HashMap;

/// A confidence interval for a quantile, with the ranks that produced it
/// and the coverage actually achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileCi {
    /// Lower interval bound, `x_(lower_rank)`.
    pub lower: f64,
    /// Upper interval bound, `x_(upper_rank)`.
    pub upper: f64,
    /// 1-based rank of the lower bound in the sorted sample.
    pub lower_rank: usize,
    /// 1-based rank of the upper bound in the sorted sample.
    pub upper_rank: usize,
    /// Exact coverage probability of `[lower, upper]`.
    ///
    /// At least the requested level whenever the sample is large enough;
    /// otherwise the widest possible interval `[x_(1), x_(n)]` is returned
    /// and this field reports its (smaller) true coverage. Callers that
    /// need a guaranteed level must check this field.
    pub achieved_level: f64,
    /// Point estimate of the quantile (interpolated, type-7).
    pub point: f64,
}

/// Confidence interval for the `q`-quantile of `sample` at the given
/// two-sided confidence `level`.
///
/// The sample is copied and sorted; see [`quantile_ci_sorted`] to avoid
/// the copy when the data is already ordered.
pub fn quantile_ci(sample: &[f64], q: f64, level: f64) -> Result<QuantileCi> {
    check_no_nan(sample)?;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_ci_sorted(&sorted, q, level)
}

/// [`quantile_ci`] over data that is already sorted ascending.
///
/// Returns an error if the sample is empty, contains NaN, or is not
/// sorted. The ranks come from the calling thread's memo (see the module
/// docs), so repeated calls with one `(len, q, level)` cost the checks,
/// one memo lookup and the point estimate.
#[expect(
    clippy::indexing_slicing,
    reason = "`windows(2)` yields pairs and the memo's ranks lie in 1..=n"
)]
pub fn quantile_ci_sorted(sorted: &[f64], q: f64, level: f64) -> Result<QuantileCi> {
    check_no_nan(sorted)?;
    check_level(level)?;
    if !(q > 0.0 && q < 1.0) {
        return Err(StatsError::InvalidLevel(q));
    }
    let n = sorted.len();
    if n == 0 {
        return Err(StatsError::EmptySample);
    }
    if sorted.windows(2).any(|w| w[0] > w[1]) {
        return Err(StatsError::InvalidParameter {
            name: "sorted (input not ascending)",
            value: f64::NAN,
        });
    }

    let ranks = memo_ci_ranks(n, q, level)?;
    Ok(QuantileCi {
        lower: sorted[ranks.lower_rank - 1],
        upper: sorted[ranks.upper_rank - 1],
        lower_rank: ranks.lower_rank,
        upper_rank: ranks.upper_rank,
        achieved_level: ranks.achieved_level,
        point: interpolated_quantile(sorted, q),
    })
}

/// The sample-independent part of a quantile CI: the 1-based ranks of
/// its bounds and their exact coverage. A function of `(n, q, level)`
/// alone, which is what lets [`memo_ci_ranks`] reuse it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CiRanks {
    lower_rank: usize,
    upper_rank: usize,
    achieved_level: f64,
}

/// Most rank entries one thread keeps before the memo starts over.
/// L1 asks for a few hundred sample sizes at one level, far below it.
const RANK_MEMO_CAP: usize = 16_384;

thread_local! {
    /// Per-thread memo of [`ci_ranks`], keyed by `(n, q bits, level bits)`.
    static RANK_MEMO: RefCell<HashMap<(usize, u64, u64), CiRanks>> =
        RefCell::new(HashMap::new());
}

/// [`ci_ranks`] through the per-thread memo, which pays each direct
/// search (some 20–30 regularized-beta evaluations) once per key and
/// thread. Callers validate `q`, `level` and `n ≥ 1` first, and only
/// successful results are stored.
fn memo_ci_ranks(n: usize, q: f64, level: f64) -> Result<CiRanks> {
    let key = (n, q.to_bits(), level.to_bits());
    if let Some(ranks) = RANK_MEMO.with(|memo| memo.borrow().get(&key).copied()) {
        return Ok(ranks);
    }
    let ranks = ci_ranks(n, q, level)?;
    RANK_MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        if memo.len() >= RANK_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, ranks);
    });
    Ok(ranks)
}

/// Number of rank entries memoized on the current thread.
#[cfg(test)]
fn rank_memo_len() -> usize {
    RANK_MEMO.with(|memo| memo.borrow().len())
}

/// The symmetric-tail ranks `(j, k)` of the `q`-quantile CI for a
/// sample of `n ≥ 1` at two-sided `level`, and their exact coverage.
fn ci_ranks(n: usize, q: f64, level: f64) -> Result<CiRanks> {
    let alpha = 1.0 - level;
    let nn = n as u64;

    // Largest rank j in 1..=n with P(B ≤ j−1) ≤ α/2 (falling back to 1 when
    // even P(B = 0) exceeds the tail budget). binomial::quantile gives a
    // starting hint; a short local walk finds the exact boundary.
    // Rank j is admissible when CDF(j−1) ≤ α/2: walk down while the
    // current j is inadmissible, then up while the next j is still fine.
    let mut j = binomial::quantile(nn, q, alpha / 2.0)?.clamp(0, nn - 1) + 1;
    while j > 1 && binomial::cdf(nn, q, j - 1)? > alpha / 2.0 {
        j -= 1;
    }
    while j < nn && binomial::cdf(nn, q, j)? <= alpha / 2.0 {
        j += 1;
    }

    // Smallest rank k in 1..=n with P(B ≥ k) ≤ α/2, i.e. CDF(k−1) ≥ 1−α/2
    // (falling back to n when unreachable).
    let mut k = binomial::quantile(nn, q, 1.0 - alpha / 2.0)?.clamp(0, nn - 1) + 1;
    while k < nn && binomial::cdf(nn, q, k - 1)? < 1.0 - alpha / 2.0 {
        k += 1;
    }
    while k > 1 && binomial::cdf(nn, q, k - 2)? >= 1.0 - alpha / 2.0 {
        k -= 1;
    }

    let (j, k) = if j <= k { (j, k) } else { (1, nn) };
    // Exact coverage of [x_(j), x_(k)]: with B ~ Binomial(n, q) counting
    // observations below the true quantile, X_(j) ≤ x_q ⇔ B ≥ j and
    // x_q ≤ X_(k) ⇔ B ≤ k−1, so coverage = P(j ≤ B ≤ k−1).
    let achieved = binomial::cdf(nn, q, k - 1)? - binomial::cdf(nn, q, j - 1)?;

    Ok(CiRanks {
        lower_rank: j as usize,
        upper_rank: k as usize,
        achieved_level: achieved,
    })
}

/// Confidence interval for the median at the given level.
pub fn median_ci(sample: &[f64], level: f64) -> Result<QuantileCi> {
    quantile_ci(sample, 0.5, level)
}

/// [`median_ci`] over already-sorted data.
pub fn median_ci_sorted(sorted: &[f64], level: f64) -> Result<QuantileCi> {
    quantile_ci_sorted(sorted, 0.5, level)
}

/// Type-7 (linear interpolation) quantile point estimate of sorted data.
#[expect(
    clippy::indexing_slicing,
    reason = "callers pass non-empty data and q in [0, 1], so `lo <= hi <= n - 1`"
)]
pub(crate) fn interpolated_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a fresh thread starts with an empty thread-local rank memo"
)]
mod tests {
    use super::*;

    #[test]
    fn median_ci_n7_is_min_max_at_0984() {
        // The paper's 0.984-level CI across 7 daily values is [min, max].
        let days = [0.66, 0.63, 0.73, 0.70, 0.68, 0.71, 0.65];
        let ci = median_ci(&days, 0.984).unwrap();
        assert_eq!(ci.lower, 0.63);
        assert_eq!(ci.upper, 0.73);
        assert_eq!((ci.lower_rank, ci.upper_rank), (1, 7));
        assert!((ci.achieved_level - 0.984_375).abs() < 1e-12);
    }

    #[test]
    fn median_ci_known_ranks_n100() {
        // Classical result: for n = 100 at 95 %, ranks are 40 and 61.
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        let ci = median_ci_sorted(&sorted, 0.95).unwrap();
        assert_eq!((ci.lower_rank, ci.upper_rank), (40, 61));
        assert!(ci.achieved_level >= 0.95);
        assert_eq!(ci.lower, 40.0);
        assert_eq!(ci.upper, 61.0);
    }

    #[test]
    fn coverage_meets_level_when_achievable() {
        for n in [10usize, 25, 47, 99, 500] {
            let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for &level in &[0.9, 0.95, 0.99] {
                let ci = median_ci_sorted(&sorted, level).unwrap();
                assert!(
                    ci.achieved_level >= level - 1e-12,
                    "n={n} level={level} achieved={}",
                    ci.achieved_level
                );
                assert!(ci.lower <= ci.point && ci.point <= ci.upper);
            }
        }
    }

    #[test]
    fn tiny_sample_returns_widest_interval() {
        let ci = median_ci(&[1.0, 2.0, 3.0], 0.99).unwrap();
        assert_eq!((ci.lower, ci.upper), (1.0, 3.0));
        // Widest achievable coverage for n = 3 is 1 − 2·(1/2)³ = 0.75.
        assert!((ci.achieved_level - 0.75).abs() < 1e-12);
        assert!(ci.achieved_level < 0.99);
    }

    #[test]
    fn nonmedian_quantile_ci() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        let ci = quantile_ci_sorted(&sorted, 0.9, 0.95).unwrap();
        // The 0.9-quantile of 1..=200 is ~180; interval must straddle it.
        assert!(ci.lower <= 180.0 && 180.0 <= ci.upper);
        assert!(ci.achieved_level >= 0.95);
        // Interval should be in the right region of the sample, not central.
        assert!(ci.lower_rank > 160 && ci.upper_rank <= 200);
    }

    #[test]
    fn unsorted_input_detected() {
        assert!(quantile_ci_sorted(&[3.0, 1.0, 2.0], 0.5, 0.95).is_err());
    }

    #[test]
    fn error_paths() {
        assert!(median_ci(&[], 0.95).is_err());
        assert!(median_ci(&[1.0, f64::NAN], 0.95).is_err());
        assert!(median_ci(&[1.0, 2.0], 0.0).is_err());
        assert!(median_ci(&[1.0, 2.0], 1.0).is_err());
        assert!(quantile_ci(&[1.0, 2.0], 0.0, 0.95).is_err());
        assert!(quantile_ci(&[1.0, 2.0], 1.0, 0.95).is_err());
    }

    #[test]
    fn point_estimate_is_type7_median() {
        let ci = median_ci(&[4.0, 1.0, 3.0, 2.0], 0.5).unwrap();
        assert_eq!(ci.point, 2.5);
        let ci = median_ci(&[5.0, 1.0, 3.0], 0.5).unwrap();
        assert_eq!(ci.point, 3.0);
    }

    #[test]
    fn monte_carlo_coverage_median() {
        // Empirical check: the CI should cover the true median (0.5 for
        // U(0,1)) at least `level` of the time. Deterministic LCG sampling.
        let mut state = 0x1234_5678_9abc_def0_u64;
        let mut uniform = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let trials = 400;
        let n = 61;
        let level = 0.95;
        let mut covered = 0;
        for _ in 0..trials {
            let mut xs: Vec<f64> = (0..n).map(|_| uniform()).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let ci = median_ci_sorted(&xs, level).unwrap();
            if ci.lower <= 0.5 && 0.5 <= ci.upper {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!(rate > 0.91, "coverage too low: {rate}");
    }

    const MEMO_QS: [f64; 3] = [0.25, 0.5, 0.9];
    const MEMO_LEVELS: [f64; 4] = [0.8, 0.95, 0.984, 0.99];

    #[test]
    fn rank_memo_matches_the_direct_search() {
        // A fresh thread starts with an empty memo: the first pass misses
        // on every key, the second hits on every key. Both must return
        // exactly what the direct search returns, field for field.
        std::thread::spawn(|| {
            let mut direct = Vec::new();
            for n in 1..=1000 {
                for q in MEMO_QS {
                    for level in MEMO_LEVELS {
                        direct.push(((n, q, level), ci_ranks(n, q, level).unwrap()));
                    }
                }
            }
            assert_eq!(
                rank_memo_len(),
                0,
                "the direct search must not fill the memo"
            );
            for pass in ["cold", "warm"] {
                for &((n, q, level), want) in &direct {
                    let got = memo_ci_ranks(n, q, level).unwrap();
                    assert_eq!(got, want, "{pass} n={n} q={q} level={level}");
                    assert_eq!(
                        got.achieved_level.to_bits(),
                        want.achieved_level.to_bits(),
                        "{pass} n={n} q={q} level={level}"
                    );
                }
                assert_eq!(rank_memo_len(), direct.len(), "{pass} pass");
            }
            // The public entry point reads the same memo.
            let sorted: Vec<f64> = (0..500).map(f64::from).collect();
            let ci = quantile_ci_sorted(&sorted, 0.9, 0.984).unwrap();
            let want = ci_ranks(500, 0.9, 0.984).unwrap();
            assert_eq!(
                (ci.lower_rank, ci.upper_rank),
                (want.lower_rank, want.upper_rank)
            );
            assert_eq!(ci.achieved_level.to_bits(), want.achieved_level.to_bits());
            assert_eq!(rank_memo_len(), direct.len());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn rejected_inputs_never_reach_the_rank_memo() {
        std::thread::spawn(|| {
            let ok = [1.0, 2.0, 3.0];
            for level in [0.0, 1.0, -0.5, 1.5, f64::NAN] {
                assert!(
                    quantile_ci_sorted(&ok, 0.5, level).is_err(),
                    "level {level}"
                );
            }
            for q in [0.0, 1.0, -0.1, 1.1, f64::NAN] {
                assert!(quantile_ci_sorted(&ok, q, 0.95).is_err(), "q {q}");
            }
            assert!(quantile_ci_sorted(&[1.0, f64::NAN, 3.0], 0.5, 0.95).is_err());
            assert!(quantile_ci_sorted(&[], 0.5, 0.95).is_err());
            assert!(quantile_ci_sorted(&[3.0, 1.0, 2.0], 0.5, 0.95).is_err());
            assert!(quantile_ci(&[], 0.5, 0.95).is_err());
            assert!(median_ci(&[1.0, f64::NAN], 0.95).is_err());
            assert_eq!(rank_memo_len(), 0);
            // A valid call afterwards stores exactly one entry.
            assert!(quantile_ci_sorted(&ok, 0.5, 0.95).is_ok());
            assert_eq!(rank_memo_len(), 1);
        })
        .join()
        .unwrap();
    }
}
