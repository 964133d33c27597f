//! The Agrawal et al. delay-histogram baseline.
//!
//! §2.1 of the paper: "for SQL queries executed during EJB
//! transactions, the delay between the start of a transaction and an
//! independent query appears to be completely random, while the delay
//! for a dependent query shows some typical values. To exploit this
//! feature, one builds histograms of delays and performs a χ² test to
//! measure the deviation from a uniformly random distribution."
//!
//! Applied to plain log streams: for an ordered pair `(A, B)`, the
//! delay from each log of `A` to the *next* log of `B` is collected
//! (within a window); dependent pairs concentrate their mass at the
//! service latency, independent pairs spread it.

use crate::model::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_stats::{chi2, sampling::Sampler};
use serde::{Deserialize, Serialize};

/// Parameters of the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgrawalConfig {
    /// Delay window (ms): delays beyond it are discarded.
    pub window_ms: i64,
    /// Histogram bins.
    pub bins: usize,
    /// Significance level of the χ² uniformity test.
    pub alpha: f64,
    /// Minimum in-window delays before testing a pair.
    pub min_delays: usize,
    /// Per-pair cap on sampled origin logs (keeps the cost bounded).
    pub sample_size: usize,
    /// Minimum logs of each app in the range to consider the pair.
    pub minlogs: usize,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for AgrawalConfig {
    fn default() -> Self {
        Self {
            window_ms: 2_000,
            bins: 10,
            alpha: 0.001,
            min_delays: 40,
            sample_size: 400,
            minlogs: 50,
            seed: 0,
        }
    }
}

/// Per-ordered-pair outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgrawalOutcome {
    /// Initiating application.
    pub from: SourceId,
    /// Responding application.
    pub to: SourceId,
    /// χ² statistic against the uniform delay distribution.
    pub x2: f64,
    /// p-value with `bins − 1` degrees of freedom.
    pub p_value: f64,
    /// In-window delays observed.
    pub n_delays: usize,
    /// Decision.
    pub dependent: bool,
}

/// Result of a baseline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgrawalResult {
    /// Unordered pairs declared dependent.
    pub detected: PairModel,
    /// Ordered-pair details (only pairs with enough delays).
    pub outcomes: Vec<AgrawalOutcome>,
}

/// Runs the delay-histogram baseline over `range`.
#[expect(
    clippy::indexing_slicing,
    reason = "`hist` has `cfg.bins` slots and each bin is clamped below that"
)]
pub fn run_agrawal(
    store: &LogStore,
    range: TimeRange,
    sources: &[SourceId],
    cfg: &AgrawalConfig,
) -> crate::Result<AgrawalResult> {
    if cfg.bins < 2 {
        return Err(crate::MineError::InvalidConfig {
            name: "bins",
            reason: "need at least two histogram bins".into(),
        });
    }
    if !(cfg.alpha > 0.0 && cfg.alpha < 1.0) {
        return Err(crate::MineError::InvalidConfig {
            name: "alpha",
            reason: format!("{} outside (0, 1)", cfg.alpha),
        });
    }

    let active: Vec<SourceId> = sources
        .iter()
        .copied()
        .filter(|&s| store.timeline(s).count_in(range) >= cfg.minlogs)
        .collect();

    let mut detected = PairModel::new();
    let mut outcomes = Vec::new();
    for &a in &active {
        let a_slot = store.timeline(a).slice_in(range);
        for &b in &active {
            if a == b {
                continue;
            }
            let mut sampler = Sampler::from_seed(cfg.seed ^ (a.0 as u64) << 24 ^ b.0 as u64);
            let origins = sampler.subsample(a_slot, cfg.sample_size);
            let b_tl = store.timeline(b);
            let mut hist = vec![0u32; cfg.bins];
            let mut n = 0usize;
            for &t in &origins {
                if let Some(d) = b_tl.dist_to_next(t) {
                    if d < cfg.window_ms {
                        let bin = (d * cfg.bins as i64 / cfg.window_ms) as usize;
                        hist[bin.min(cfg.bins - 1)] += 1;
                        n += 1;
                    }
                }
            }
            if n < cfg.min_delays {
                continue;
            }
            let expected = n as f64 / cfg.bins as f64;
            let x2: f64 = hist
                .iter()
                .map(|&o| {
                    let d = o as f64 - expected;
                    d * d / expected
                })
                .sum();
            let p_value = chi2::sf(x2, (cfg.bins - 1) as f64)?;
            let dependent = p_value <= cfg.alpha;
            if dependent {
                detected.insert(a, b);
            }
            outcomes.push(AgrawalOutcome {
                from: a,
                to: b,
                x2,
                p_value,
                n_delays: n,
                dependent,
            });
        }
    }
    Ok(AgrawalResult { detected, outcomes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    /// A pair with a typical 150 ms latency plus an independent third app.
    fn stores() -> (LogStore, Vec<SourceId>) {
        let mut store = LogStore::new();
        let a = store.registry.source("A");
        let b = store.registry.source("B");
        let c = store.registry.source("C");
        for i in 0..400i64 {
            let t = i * 9_000 % MS_PER_HOUR + (i / 400) * 37;
            store.push(LogRecord::minimal(a, Millis(t)));
            store.push(LogRecord::minimal(b, Millis(t + 140 + i % 25)));
            store.push(LogRecord::minimal(
                c,
                Millis((i * 8_641 + 4_321) % MS_PER_HOUR),
            ));
        }
        store.finalize();
        (store, vec![a, b, c])
    }

    fn hour() -> TimeRange {
        TimeRange::new(Millis(0), Millis(MS_PER_HOUR))
    }

    #[test]
    fn detects_typical_delay_pair() {
        let (store, s) = stores();
        let res = run_agrawal(&store, hour(), &s, &AgrawalConfig::default()).unwrap();
        assert!(
            res.detected.contains(s[0], s[1]),
            "typical-delay pair missed: {:?}",
            res.outcomes
        );
    }

    #[test]
    fn independent_pair_not_flagged() {
        let (store, s) = stores();
        let res = run_agrawal(&store, hour(), &s, &AgrawalConfig::default()).unwrap();
        // C's delays to A (and vice versa) are spread over the window.
        let o = res.outcomes.iter().find(|o| o.from == s[2] && o.to == s[0]);
        if let Some(o) = o {
            assert!(!o.dependent, "independent pair flagged: {o:?}");
        }
        assert!(!res.detected.contains(s[0], s[2]));
    }

    #[test]
    fn minlogs_and_min_delays_gate() {
        let (store, s) = stores();
        let strict = AgrawalConfig {
            minlogs: 100_000,
            ..AgrawalConfig::default()
        };
        let res = run_agrawal(&store, hour(), &s, &strict).unwrap();
        assert!(res.outcomes.is_empty());
        assert!(res.detected.is_empty());
    }

    #[test]
    fn config_validation() {
        let (store, s) = stores();
        let bad = AgrawalConfig {
            bins: 1,
            ..AgrawalConfig::default()
        };
        assert!(run_agrawal(&store, hour(), &s, &bad).is_err());
        let bad = AgrawalConfig {
            alpha: 0.0,
            ..AgrawalConfig::default()
        };
        assert!(run_agrawal(&store, hour(), &s, &bad).is_err());
    }

    #[test]
    fn deterministic() {
        let (store, s) = stores();
        let a = run_agrawal(&store, hour(), &s, &AgrawalConfig::default()).unwrap();
        let b = run_agrawal(&store, hour(), &s, &AgrawalConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
