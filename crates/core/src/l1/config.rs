//! Configuration of technique L1.

use logdep_logstore::time::MS_PER_HOUR;
use serde::{Deserialize, Serialize};

/// Which distance from a point to a log sequence is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceKind {
    /// Distance to the nearest log in either direction — equation (1)
    /// of the paper (its choice).
    Nearest,
    /// Distance to the next log at or after the point — the variant of
    /// Li & Ma's temporal-pattern miner.
    Next,
}

/// The reference process random comparison points are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReferenceProcess {
    /// Uniform points in the slot — the paper's published method.
    Homogeneous,
    /// Points drawn from the overall log process (jittered) — the §5
    /// improvement: "a non-homogenous process whose intensity is
    /// proportional to the total number of logs", which cancels the
    /// shared diurnal-load structure out of the comparison.
    LoadProportional,
}

/// How the per-slot decision is made from the two distance samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecisionRule {
    /// The paper's rule: the CI of `S_b` must lie entirely below (or,
    /// two-sided, entirely outside) the CI of `S_r`.
    CiSeparation,
    /// Ablation alternative: a Mann–Whitney rank-sum test of `S_b`
    /// against `S_r` at the given significance level.
    RankSum {
        /// Significance level of the rank-sum test.
        alpha: f64,
    },
}

/// Which location statistic the test compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CenterStat {
    /// Robust median with order-statistics CI (the paper's choice).
    Median,
    /// Mean with a normal-theory CI (Li & Ma's choice).
    Mean,
}

/// Parameters of technique L1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L1Config {
    /// Slot width in milliseconds (the paper: one hour, n = 24 per day).
    pub slot_ms: i64,
    /// Minimum logs per application per slot; slots below are skipped
    /// (the paper: `minlogs = 100` at 10 M logs/day — scale accordingly).
    pub minlogs: usize,
    /// Threshold on the fraction of positive slots (the paper: 0.6).
    pub th_pr: f64,
    /// Threshold on the support as a *fraction of all slots*
    /// (the paper: 0.3 of n = 24).
    pub th_s: f64,
    /// Confidence level of the per-slot median CIs (the paper: 0.95).
    pub ci_level: f64,
    /// Sample size for both the subsample of B and the random points.
    pub sample_size: usize,
    /// Seed for subsampling and random-point generation.
    pub seed: u64,
    /// Distance variant.
    pub distance: DistanceKind,
    /// Location statistic.
    pub stat: CenterStat,
    /// `false` = one-sided (ours: B closer than random); `true` =
    /// two-sided (Li–Ma: any separation of the intervals counts).
    pub two_sided: bool,
    /// Reference process for the comparison points.
    pub reference: ReferenceProcess,
    /// Decision rule applied to the two samples.
    pub decision: DecisionRule,
}

impl Default for L1Config {
    fn default() -> Self {
        Self {
            slot_ms: MS_PER_HOUR,
            minlogs: 100,
            th_pr: 0.6,
            th_s: 0.3,
            ci_level: 0.95,
            sample_size: 350,
            seed: 0,
            distance: DistanceKind::Nearest,
            stat: CenterStat::Median,
            two_sided: false,
            reference: ReferenceProcess::Homogeneous,
            decision: DecisionRule::CiSeparation,
        }
    }
}

impl L1Config {
    /// The paper's parameters (§4.5) at full HUG scale.
    pub fn paper() -> Self {
        Self::default()
    }

    /// The paper's parameters with `minlogs` rescaled for a log volume
    /// `scale` times the paper's 10 M logs/day.
    pub fn paper_scaled(scale: f64) -> Self {
        Self {
            minlogs: ((100.0 * scale).round() as usize).max(8),
            ..Self::default()
        }
    }

    /// The Li–Ma style baseline: next-arrival distance, mean statistic,
    /// two-sided comparison.
    pub fn li_ma_baseline() -> Self {
        Self {
            distance: DistanceKind::Next,
            stat: CenterStat::Mean,
            two_sided: true,
            ..Self::default()
        }
    }

    /// Validates threshold ranges.
    pub fn validate(&self) -> crate::Result<()> {
        if self.slot_ms <= 0 {
            return Err(crate::MineError::InvalidConfig {
                name: "slot_ms",
                reason: "must be positive".into(),
            });
        }
        for (name, v) in [("th_pr", self.th_pr), ("th_s", self.th_s)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(crate::MineError::InvalidConfig {
                    name,
                    reason: format!("{v} outside [0, 1]"),
                });
            }
        }
        if !(self.ci_level > 0.0 && self.ci_level < 1.0) {
            return Err(crate::MineError::InvalidConfig {
                name: "ci_level",
                reason: format!("{} outside (0, 1)", self.ci_level),
            });
        }
        if let DecisionRule::RankSum { alpha } = self.decision {
            if !(alpha > 0.0 && alpha < 1.0) {
                return Err(crate::MineError::InvalidConfig {
                    name: "decision.alpha",
                    reason: format!("{alpha} outside (0, 1)"),
                });
            }
        }
        if self.sample_size < 10 {
            return Err(crate::MineError::InvalidConfig {
                name: "sample_size",
                reason: "need at least 10 points for a usable CI".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = L1Config::paper();
        assert_eq!(c.slot_ms, MS_PER_HOUR);
        assert_eq!(c.minlogs, 100);
        assert_eq!(c.th_pr, 0.6);
        assert_eq!(c.th_s, 0.3);
        assert_eq!(c.ci_level, 0.95);
        assert_eq!(c.distance, DistanceKind::Nearest);
        assert_eq!(c.stat, CenterStat::Median);
        assert!(!c.two_sided);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_minlogs() {
        assert_eq!(L1Config::paper_scaled(1.0).minlogs, 100);
        assert_eq!(L1Config::paper_scaled(0.3).minlogs, 30);
        assert_eq!(L1Config::paper_scaled(0.001).minlogs, 8, "floor applies");
    }

    #[test]
    fn baseline_flips_all_three_choices() {
        let b = L1Config::li_ma_baseline();
        assert_eq!(b.distance, DistanceKind::Next);
        assert_eq!(b.stat, CenterStat::Mean);
        assert!(b.two_sided);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = L1Config {
            slot_ms: 0,
            ..L1Config::default()
        };
        assert!(bad.validate().is_err());
        let bad = L1Config {
            th_pr: 1.5,
            ..L1Config::default()
        };
        assert!(bad.validate().is_err());
        let bad = L1Config {
            ci_level: 1.0,
            ..L1Config::default()
        };
        assert!(bad.validate().is_err());
        let bad = L1Config {
            sample_size: 3,
            ..L1Config::default()
        };
        assert!(bad.validate().is_err());
        let bad = L1Config {
            decision: DecisionRule::RankSum { alpha: 0.0 },
            ..L1Config::default()
        };
        assert!(bad.validate().is_err());
    }
}
