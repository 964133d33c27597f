//! Typical-delay analysis for L2-discovered pairs (§5 of the paper).
//!
//! "Another direction for improvement is to apply algorithms like the
//! ones presented in [1, 3, 25] to analyze *typical delays* between
//! logs. In case of L2, this might help to distinguish frequent
//! co-occurrences due to concurrency from those that are causally
//! related."
//!
//! Implemented after Agrawal et al. [1]: for each ordered pair type,
//! collect the bigram gaps, build a histogram, and run a χ² test
//! against the uniform distribution. Causally related pairs show
//! *typical* delays (a spiked histogram — the service latency);
//! concurrency-induced co-occurrences show gaps spread evenly over the
//! timeout window.

use logdep_logstore::SourceId;
use logdep_sessions::Session;
use logdep_stats::chi2;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Parameters of the delay analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayConfig {
    /// Only gaps in `[0, window_ms)` are analyzed (reuse L2's timeout).
    pub window_ms: i64,
    /// Number of histogram bins.
    pub bins: usize,
    /// Significance level of the χ² uniformity test.
    pub alpha: f64,
    /// Minimum number of gap observations before testing.
    pub min_gaps: usize,
}

impl DelayConfig {
    /// Validates parameter ranges: at least two bins, a positive window.
    pub fn validate(&self) -> crate::Result<()> {
        if self.bins < 2 {
            return Err(crate::MineError::InvalidConfig {
                name: "bins",
                reason: format!("{} is fewer than two histogram bins", self.bins),
            });
        }
        if self.window_ms <= 0 {
            return Err(crate::MineError::InvalidConfig {
                name: "window_ms",
                reason: format!("{} is not positive", self.window_ms),
            });
        }
        Ok(())
    }
}

impl Default for DelayConfig {
    fn default() -> Self {
        Self {
            window_ms: 1_000,
            bins: 10,
            alpha: 0.01,
            min_gaps: 20,
        }
    }
}

/// Delay profile of one ordered pair type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayProfile {
    /// First source of the type.
    pub first: SourceId,
    /// Second source.
    pub second: SourceId,
    /// Gap histogram over `[0, window_ms)`.
    pub histogram: Vec<u32>,
    /// Number of gaps collected.
    pub n_gaps: usize,
    /// Pearson χ² statistic against uniform.
    pub x2: f64,
    /// p-value with `bins − 1` degrees of freedom.
    pub p_value: f64,
    /// True when the delays are significantly non-uniform — evidence
    /// of a *causal* (typical-latency) relationship.
    pub causal: bool,
}

/// Analyzes bigram delays for the given ordered pair types; an invalid
/// `cfg` is an [`crate::MineError::InvalidConfig`].
#[expect(
    clippy::indexing_slicing,
    reason = "`index` maps into `types` and each bin is clamped below `cfg.bins`"
)]
pub fn delay_profiles(
    sessions: &[Session],
    types: &[(SourceId, SourceId)],
    cfg: &DelayConfig,
) -> crate::Result<Vec<DelayProfile>> {
    cfg.validate()?;
    let index: HashMap<(SourceId, SourceId), usize> =
        types.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut histograms = vec![vec![0u32; cfg.bins]; types.len()];

    for session in sessions {
        for w in session.entries.windows(2) {
            let gap = w[1].ts - w[0].ts;
            if gap < 0 || gap >= cfg.window_ms {
                continue;
            }
            if let Some(&i) = index.get(&(w[0].source, w[1].source)) {
                let bin = (gap * cfg.bins as i64 / cfg.window_ms) as usize;
                histograms[i][bin.min(cfg.bins - 1)] += 1;
            }
        }
    }

    Ok(types
        .iter()
        .zip(histograms)
        .map(|(&(first, second), histogram)| {
            let n: u32 = histogram.iter().sum();
            let expected = n as f64 / cfg.bins as f64;
            let x2: f64 = if n == 0 {
                0.0
            } else {
                histogram
                    .iter()
                    .map(|&o| {
                        let d = o as f64 - expected;
                        d * d / expected
                    })
                    .sum()
            };
            let df = (cfg.bins - 1) as f64;
            let p_value = if n == 0 {
                1.0
            } else {
                chi2::sf(x2, df).unwrap_or(1.0)
            };
            DelayProfile {
                first,
                second,
                causal: (n as usize) >= cfg.min_gaps && p_value <= cfg.alpha,
                n_gaps: n as usize,
                histogram,
                x2,
                p_value,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{HostId, Millis, UserId};
    use logdep_sessions::SessionEntry;

    fn session(entries: &[(i64, u32)]) -> Session {
        Session {
            user: UserId(0),
            host: HostId(0),
            entries: entries
                .iter()
                .map(|&(t, s)| SessionEntry {
                    ts: Millis(t),
                    source: SourceId(s),
                })
                .collect(),
        }
    }

    #[test]
    fn typical_latency_is_flagged_causal() {
        // Gap is always ~120 ms: a service latency.
        let mut entries = Vec::new();
        for k in 0..60i64 {
            entries.push((k * 10_000, 1));
            entries.push((k * 10_000 + 118 + (k % 5), 2));
        }
        let s = session(&entries);
        let types = vec![(SourceId(1), SourceId(2))];
        let out = delay_profiles(&[s], &types, &DelayConfig::default()).expect("valid config");
        let p = &out[0];
        assert_eq!(p.n_gaps, 60);
        assert!(p.causal, "spiked delays must be causal: {p:?}");
        // All mass in one bin (gap ≈ 120 ms of a 1000 ms window → bin 1).
        assert_eq!(p.histogram[1], 60);
    }

    #[test]
    fn uniform_gaps_are_not_causal() {
        // Gaps spread evenly over the window: concurrency, not causality.
        let mut entries = Vec::new();
        let mut t = 0i64;
        for k in 0..200i64 {
            entries.push((t, 1));
            t += 50 + (k * 37) % 900; // pseudo-uniform gap in [50, 950)
            entries.push((t, 2));
            t += 5_000; // separate occurrences
        }
        let s = session(&entries);
        let types = vec![(SourceId(1), SourceId(2))];
        let out = delay_profiles(&[s], &types, &DelayConfig::default()).expect("valid config");
        let p = &out[0];
        assert!(p.n_gaps > 150);
        assert!(!p.causal, "uniform delays flagged causal: {p:?}");
    }

    #[test]
    fn min_gaps_gate() {
        let s = session(&[(0, 1), (100, 2), (10_000, 1), (10_100, 2)]);
        let types = vec![(SourceId(1), SourceId(2))];
        let out = delay_profiles(&[s], &types, &DelayConfig::default()).expect("valid config");
        assert_eq!(out[0].n_gaps, 2);
        assert!(!out[0].causal, "two observations cannot decide");
    }

    #[test]
    fn gaps_outside_window_ignored() {
        let s = session(&[(0, 1), (5_000, 2)]);
        let types = vec![(SourceId(1), SourceId(2))];
        let out = delay_profiles(&[s], &types, &DelayConfig::default()).expect("valid config");
        assert_eq!(out[0].n_gaps, 0);
        assert_eq!(out[0].p_value, 1.0);
    }

    #[test]
    fn ordered_types_are_distinct() {
        let s = session(&[(0, 1), (100, 2), (10_000, 2), (10_100, 1)]);
        let types = vec![(SourceId(1), SourceId(2)), (SourceId(2), SourceId(1))];
        let out = delay_profiles(&[s], &types, &DelayConfig::default()).expect("valid config");
        assert_eq!(out[0].n_gaps, 1);
        assert_eq!(out[1].n_gaps, 1);
    }

    #[test]
    fn bad_config_is_an_error() {
        for cfg in [
            DelayConfig {
                bins: 1,
                ..DelayConfig::default()
            },
            DelayConfig {
                window_ms: 0,
                ..DelayConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err(), "{cfg:?}");
            assert!(delay_profiles(&[], &[], &cfg).is_err(), "{cfg:?}");
        }
        assert!(DelayConfig::default().validate().is_ok());
    }
}
