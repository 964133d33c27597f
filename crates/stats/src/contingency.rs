//! 2×2 contingency tables and association tests.
//!
//! Technique L2 classifies every bigram of immediately succeeding logs
//! into a 2×2 table per ordered source pair `(A, B)`:
//!
//! |            | `a = A` | `a ≠ A` |
//! |------------|---------|---------|
//! | **`b = B`**  | `o11`   | `o12`   |
//! | **`b ≠ B`**  | `o21`   | `o22`   |
//!
//! and then tests for association. The paper follows Dunning (1993) in
//! preferring the log-likelihood ratio statistic G² over Pearson's X²
//! because G² keeps its asymptotic χ²₁ calibration on the heavily skewed
//! tables that bigram data produces (most mass in `o22`). Both statistics
//! are provided so the choice can be ablated.

use crate::{chi2, Result, StatsError};
use serde::{Deserialize, Serialize};

/// A 2×2 contingency table of observed counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Table2x2 {
    /// Joint count: first component matches A and second matches B.
    pub o11: u64,
    /// Second matches B, first does not match A.
    pub o12: u64,
    /// First matches A, second does not match B.
    pub o21: u64,
    /// Neither matches.
    pub o22: u64,
}

impl Table2x2 {
    /// Builds a table from the four observed cells.
    pub fn new(o11: u64, o12: u64, o21: u64, o22: u64) -> Self {
        Self { o11, o12, o21, o22 }
    }

    /// Builds a table from marginal form: joint count `f`, first-margin
    /// count `f1 = #(a = A)`, second-margin count `f2 = #(b = B)`, and
    /// total `n` — the `(f, f1, f2, N)` notation of Evert's UCS toolkit.
    ///
    /// Returns an error unless `f ≤ f1, f ≤ f2` and `f1 + f2 − f ≤ n`
    /// (including when `f1 + f2` would overflow `u64`).
    pub fn from_marginals(f: u64, f1: u64, f2: u64, n: u64) -> Result<Self> {
        let invalid = || StatsError::InvalidParameter {
            name: "marginals",
            value: f as f64,
        };
        if f > f1 || f > f2 {
            return Err(invalid());
        }
        // `f ≤ f1` makes the subtraction safe once the addition checks out.
        let union = f1.checked_add(f2).map(|s| s - f).ok_or_else(invalid)?;
        if union > n {
            return Err(invalid());
        }
        Ok(Self {
            o11: f,
            o12: f2 - f,
            o21: f1 - f,
            o22: n - union,
        })
    }

    /// Total number of observations (saturating: tables near `u64::MAX`
    /// clamp rather than overflow).
    pub fn n(&self) -> u64 {
        self.o11
            .saturating_add(self.o12)
            .saturating_add(self.o21)
            .saturating_add(self.o22)
    }

    /// Row sums `(o11 + o12, o21 + o22)` — the `b = B` / `b ≠ B` margins
    /// (saturating, like [`Table2x2::n`]).
    pub fn row_sums(&self) -> (u64, u64) {
        (
            self.o11.saturating_add(self.o12),
            self.o21.saturating_add(self.o22),
        )
    }

    /// Column sums `(o11 + o21, o12 + o22)` — the `a = A` / `a ≠ A` margins
    /// (saturating, like [`Table2x2::n`]).
    pub fn col_sums(&self) -> (u64, u64) {
        (
            self.o11.saturating_add(self.o21),
            self.o12.saturating_add(self.o22),
        )
    }

    /// Expected counts under independence, `E_ij = R_i · C_j / N`.
    ///
    /// Errors on a zero row or column margin, where independence expected
    /// counts (and hence every association statistic) are undefined.
    pub fn expected(&self) -> Result<[f64; 4]> {
        let n = self.n();
        let (r1, r2) = self.row_sums();
        let (c1, c2) = self.col_sums();
        if n == 0 || r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0 {
            return Err(StatsError::DegenerateTable);
        }
        let n = n as f64;
        Ok([
            r1 as f64 * c1 as f64 / n,
            r1 as f64 * c2 as f64 / n,
            r2 as f64 * c1 as f64 / n,
            r2 as f64 * c2 as f64 / n,
        ])
    }

    /// True when the joint cell exceeds its independence expectation —
    /// the *positive association* gate that turns the two-sided χ² test
    /// into the one-sided test L2 needs (we only care about sources that
    /// co-occur *more* than chance).
    pub fn positively_associated(&self) -> Result<bool> {
        Ok(self.o11 as f64 > self.expected()?[0])
    }

    /// Dunning's log-likelihood ratio statistic
    /// `G² = 2 Σ O_ij · ln(O_ij / E_ij)` (zero cells contribute zero).
    ///
    /// Asymptotically χ² with one degree of freedom under independence.
    pub fn g2(&self) -> Result<f64> {
        let e = self.expected()?;
        let o = [
            self.o11 as f64,
            self.o12 as f64,
            self.o21 as f64,
            self.o22 as f64,
        ];
        let mut g2 = 0.0;
        for i in 0..4 {
            if o[i] > 0.0 {
                g2 += o[i] * (o[i] / e[i]).ln();
            }
        }
        Ok((2.0 * g2).max(0.0))
    }

    /// Pearson's chi-square statistic `X² = Σ (O_ij − E_ij)² / E_ij`.
    pub fn pearson_x2(&self) -> Result<f64> {
        let e = self.expected()?;
        let o = [
            self.o11 as f64,
            self.o12 as f64,
            self.o21 as f64,
            self.o22 as f64,
        ];
        let mut x2 = 0.0;
        for i in 0..4 {
            let d = o[i] - e[i];
            x2 += d * d / e[i];
        }
        Ok(x2)
    }
}

/// Which association statistic [`association_test`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AssociationStatistic {
    /// Dunning's log-likelihood ratio G² (the paper's choice).
    Dunning,
    /// Pearson's X² (the "more common" test the paper declines).
    Pearson,
}

/// Outcome of an association test on a 2×2 table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AssociationResult {
    /// Value of the chosen statistic.
    pub statistic: f64,
    /// Two-sided p-value against χ²₁.
    pub p_value: f64,
    /// Whether the joint cell exceeded expectation (direction gate).
    pub positive: bool,
}

impl AssociationResult {
    /// One-sided significance decision: positive association *and*
    /// statistic above the χ²₁ critical value for `alpha`.
    pub fn significant_at(&self, alpha: f64) -> bool {
        self.positive && self.p_value <= alpha
    }
}

/// Runs an association test on `table` using the chosen statistic.
///
/// ```
/// use logdep_stats::contingency::{association_test, AssociationStatistic, Table2x2};
///
/// // The running example of the paper (Figure 4): bigram type (A2, A3)
/// // with counts o11 = 2, o12 = 0, o21 = 1, o22 = 5.
/// let t = Table2x2::new(2, 0, 1, 5);
/// let r = association_test(&t, AssociationStatistic::Dunning).unwrap();
/// assert!(r.positive); // 2 observed vs 0.75 expected
/// ```
pub fn association_test(
    table: &Table2x2,
    statistic: AssociationStatistic,
) -> Result<AssociationResult> {
    let stat = match statistic {
        AssociationStatistic::Dunning => table.g2()?,
        AssociationStatistic::Pearson => table.pearson_x2()?,
    };
    Ok(AssociationResult {
        statistic: stat,
        p_value: chi2::sf(stat, 1.0)?,
        positive: table.positively_associated()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_running_example_table() {
        // Figure 4 of the paper: (A2, A3) over 8 bigrams.
        let t = Table2x2::new(2, 0, 1, 5);
        assert_eq!(t.n(), 8);
        assert_eq!(t.row_sums(), (2, 6));
        assert_eq!(t.col_sums(), (3, 5));
        let e = t.expected().unwrap();
        assert!((e[0] - 0.75).abs() < 1e-12);
        assert!(t.positively_associated().unwrap());
    }

    #[test]
    fn from_marginals_round_trip() {
        let t = Table2x2::new(7, 3, 11, 979);
        let (f1, f2) = (t.col_sums().0, t.row_sums().0);
        let back = Table2x2::from_marginals(t.o11, f1, f2, t.n()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn from_marginals_validates() {
        assert!(Table2x2::from_marginals(5, 3, 10, 100).is_err()); // f > f1
        assert!(Table2x2::from_marginals(5, 10, 3, 100).is_err()); // f > f2
        assert!(Table2x2::from_marginals(0, 60, 50, 100).is_err()); // overflow n
    }

    #[test]
    fn g2_zero_under_exact_independence() {
        // Proportional table ⇒ observed == expected ⇒ G² = X² = 0.
        let t = Table2x2::new(10, 20, 30, 60);
        assert!(t.g2().unwrap().abs() < 1e-9);
        assert!(t.pearson_x2().unwrap().abs() < 1e-9);
        assert!(!t.positively_associated().unwrap());
    }

    #[test]
    fn g2_reference_value() {
        // Dunning (1993)-style check against a hand-computed value:
        // table (110, 2442, 111, 29114) gives G² ≈ 270.72 (the classic
        // "powerful computers" collocation example).
        let t = Table2x2::new(110, 2442, 111, 29114);
        let g2 = t.g2().unwrap();
        assert!((g2 - 270.72).abs() < 0.05, "g2 = {g2}");
    }

    #[test]
    fn pearson_reference_value() {
        // X² for (10, 10, 10, 30): e = [6.667,13.333,13.333,26.667]
        // X² = 1.6667+0.8333+0.8333+0.4167 = 3.75
        let t = Table2x2::new(10, 10, 10, 30);
        assert!((t.pearson_x2().unwrap() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn dunning_vs_pearson_on_skewed_tables() {
        // On a heavily skewed table with a rare joint event, Pearson
        // overshoots relative to G² — the very reason the paper picks
        // Dunning. (X²'s quadratic term explodes when e11 is tiny.)
        let t = Table2x2::new(3, 2, 2, 100_000);
        let g2 = t.g2().unwrap();
        let x2 = t.pearson_x2().unwrap();
        assert!(x2 > 5.0 * g2, "x2 = {x2}, g2 = {g2}");
    }

    #[test]
    fn association_test_end_to_end() {
        let strong = Table2x2::new(50, 5, 5, 940);
        let r = association_test(&strong, AssociationStatistic::Dunning).unwrap();
        assert!(r.significant_at(0.01));
        assert!(r.p_value < 1e-10);

        let none = Table2x2::new(1, 99, 99, 9801);
        let r = association_test(&none, AssociationStatistic::Dunning).unwrap();
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn negative_association_is_gated_out() {
        // Strong *avoidance*: o11 far below expectation. Two-sided χ²
        // would fire; the positive gate must not.
        let t = Table2x2::new(0, 100, 100, 100);
        let r = association_test(&t, AssociationStatistic::Dunning).unwrap();
        assert!(r.p_value < 0.01); // statistically "associated"...
        assert!(!r.positive); // ...but in the wrong direction
        assert!(!r.significant_at(0.05));
    }

    #[test]
    fn degenerate_tables_error() {
        assert!(Table2x2::new(0, 0, 0, 0).expected().is_err());
        assert!(Table2x2::new(0, 0, 5, 5).g2().is_err()); // zero row
        assert!(Table2x2::new(0, 5, 0, 5).pearson_x2().is_err()); // zero col
    }

    #[test]
    fn statistics_are_nonnegative() {
        for &(a, b, c, d) in &[(1u64, 2u64, 3u64, 4u64), (9, 1, 1, 9), (2, 0, 1, 5)] {
            let t = Table2x2::new(a, b, c, d);
            assert!(t.g2().unwrap() >= 0.0);
            assert!(t.pearson_x2().unwrap() >= 0.0);
        }
    }
}
