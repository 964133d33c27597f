//! Robustness properties enforced by the `no-panic-in-lib` lint: every
//! degenerate input — NaN, empty samples, unsorted data, all-tied
//! values, zero-margin or overflowing tables — must surface as a
//! `StatsError`, never as a panic. Each property here deliberately feeds
//! the nastiest `any::<f64>()` stream (NaN, ±inf, signed zero, huge and
//! tiny magnitudes) through the public entry points.

use logdep_stats::contingency::Table2x2;
use logdep_stats::order_stats::{median_ci, quantile_ci, quantile_ci_sorted};
use logdep_stats::wilcoxon::{signed_rank, Alternative};
use logdep_stats::StatsError;
use proptest::prelude::*;

fn arbitrary_sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any::<f64>(), 0..60)
}

proptest! {
    #[test]
    fn quantile_ci_never_panics(xs in arbitrary_sample(), q in any::<f64>(), level in any::<f64>()) {
        if let Ok(ci) = quantile_ci(&xs, q, level) {
            prop_assert!(ci.lower <= ci.upper);
            prop_assert!(!xs.is_empty());
            prop_assert!(xs.iter().all(|x| !x.is_nan()));
        }
    }

    #[test]
    fn quantile_ci_rejects_nan_and_empty(xs in arbitrary_sample()) {
        let r = quantile_ci(&xs, 0.5, 0.95);
        if xs.is_empty() {
            prop_assert!(r.is_err());
        }
        if xs.iter().any(|x| x.is_nan()) {
            prop_assert_eq!(r.unwrap_err(), StatsError::NanInput);
        }
    }

    #[test]
    fn quantile_ci_sorted_rejects_unsorted_without_panicking(
        xs in arbitrary_sample(),
        q in 0.01..0.99f64,
    ) {
        let sorted = {
            let mut s = xs.clone();
            s.sort_by(|a, b| a.total_cmp(b));
            s
        };
        let is_sorted = xs.windows(2).all(|w| w[0] <= w[1]);
        let r = quantile_ci_sorted(&xs, q, 0.9);
        // Unsorted finite data must be rejected, not silently accepted.
        if !xs.is_empty() && xs.iter().all(|x| !x.is_nan()) && !is_sorted {
            prop_assert!(r.is_err());
        }
        // The sorted copy of finite data must be accepted.
        if !xs.is_empty() && xs.iter().all(|x| !x.is_nan()) {
            prop_assert!(quantile_ci_sorted(&sorted, q, 0.9).is_ok());
        }
    }

    #[test]
    fn median_ci_handles_all_tied_samples(v in any::<f64>(), n in 1usize..80) {
        let xs = vec![v; n];
        let r = median_ci(&xs, 0.95);
        if v.is_nan() {
            prop_assert_eq!(r.unwrap_err(), StatsError::NanInput);
        } else {
            let ci = r.unwrap();
            prop_assert_eq!(ci.lower, v);
            prop_assert_eq!(ci.upper, v);
        }
    }

    #[test]
    fn contingency_never_panics_on_any_counts(
        o11 in any::<u64>(),
        o12 in any::<u64>(),
        o21 in any::<u64>(),
        o22 in any::<u64>(),
    ) {
        let t = Table2x2::new(o11, o12, o21, o22);
        // Saturating margins, never an overflow panic.
        let _ = t.n();
        let _ = t.row_sums();
        let _ = t.col_sums();
        match t.expected() {
            Ok(e) => prop_assert!(e.iter().all(|x| x.is_finite())),
            Err(err) => prop_assert_eq!(err, StatsError::DegenerateTable),
        }
        let _ = t.g2();
        let _ = t.pearson_x2();
    }

    #[test]
    fn zero_margin_tables_are_degenerate_errors(a in any::<u64>(), b in any::<u64>()) {
        // Zero row margin and zero column margin respectively.
        for t in [Table2x2::new(0, 0, a, b), Table2x2::new(0, a, 0, b)] {
            prop_assert_eq!(t.expected().unwrap_err(), StatsError::DegenerateTable);
            prop_assert!(t.g2().is_err());
            prop_assert!(t.pearson_x2().is_err());
        }
    }

    #[test]
    fn from_marginals_rejects_inconsistent_or_overflowing(
        f in any::<u64>(),
        f1 in any::<u64>(),
        f2 in any::<u64>(),
        n in any::<u64>(),
    ) {
        // Must never panic — huge marginals overflow-check instead.
        if let Ok(t) = Table2x2::from_marginals(f, f1, f2, n) {
            prop_assert!(f <= f1 && f <= f2);
            prop_assert_eq!(t.n(), n);
        }
    }

    #[test]
    fn signed_rank_never_panics(diffs in arbitrary_sample()) {
        if let Ok(r) = signed_rank(&diffs, Alternative::TwoSided) {
            prop_assert!((0.0..=1.0).contains(&r.p_value));
            prop_assert!(diffs.iter().all(|d| !d.is_nan()));
        }
    }

    #[test]
    fn signed_rank_rejects_nan_and_all_zero(diffs in arbitrary_sample()) {
        if diffs.iter().any(|d| d.is_nan()) {
            prop_assert_eq!(
                signed_rank(&diffs, Alternative::Greater).unwrap_err(),
                StatsError::NanInput
            );
        }
        let zeros = vec![0.0; diffs.len().max(1)];
        prop_assert_eq!(
            signed_rank(&zeros, Alternative::Less).unwrap_err(),
            StatsError::EmptySample
        );
    }
}
