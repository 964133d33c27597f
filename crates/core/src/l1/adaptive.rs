//! Adaptive time slots (§5 of the paper).
//!
//! Fixed one-hour slots are a compromise: too long during load
//! transitions (the diurnal confounder leaks in), needlessly short
//! during stable periods (support is wasted). The paper proposes to
//! "create time slots adaptively by measuring the degree of
//! stationarity with existing statistical tests" — implemented here as
//! recursive bisection: a segment is split while the total log counts
//! of its two halves differ significantly under a two-sided binomial
//! test (under stationarity the split is a fair coin per log).
//!
//! Feed the result to [`run_l1_slots_pool`].
//!
//! [`run_l1_slots_pool`]: super::run_l1_slots_pool

use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, Millis};
use logdep_stats::binomial;
use serde::{Deserialize, Serialize};

/// Parameters of adaptive slotting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Significance level of the half/half stationarity test.
    pub alpha: f64,
    /// Segments at or below this width are never split further.
    pub min_slot_ms: i64,
    /// Segments above this width are always split (caps slot length so
    /// the support statistic keeps meaning).
    pub max_slot_ms: i64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            alpha: 0.01,
            min_slot_ms: 15 * 60 * 1_000,     // 15 minutes
            max_slot_ms: 4 * 60 * 60 * 1_000, // 4 hours
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> crate::Result<()> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(crate::MineError::InvalidConfig {
                name: "alpha",
                reason: format!("{} outside (0, 1)", self.alpha),
            });
        }
        if self.min_slot_ms <= 0 || self.max_slot_ms < self.min_slot_ms {
            return Err(crate::MineError::InvalidConfig {
                name: "min_slot_ms/max_slot_ms",
                reason: "need 0 < min ≤ max".into(),
            });
        }
        Ok(())
    }
}

/// Splits `range` into slots that are locally stationary in overall
/// log volume. Returns at least one slot.
pub fn adaptive_slots(
    store: &LogStore,
    range: TimeRange,
    cfg: &AdaptiveConfig,
) -> crate::Result<Vec<TimeRange>> {
    cfg.validate()?;
    let mut out = Vec::new();
    split(store, range, cfg, &mut out);
    Ok(out)
}

fn split(store: &LogStore, seg: TimeRange, cfg: &AdaptiveConfig, out: &mut Vec<TimeRange>) {
    let width = seg.len_ms();
    if width <= cfg.min_slot_ms {
        out.push(seg);
        return;
    }
    let mid = Millis(seg.start.0 + width / 2);
    let left = TimeRange::new(seg.start, mid);
    let right = TimeRange::new(mid, seg.end);
    let must_split = width > cfg.max_slot_ms;
    if must_split || !is_stationary(store, left, right, cfg.alpha) {
        split(store, left, cfg, out);
        split(store, right, cfg, out);
    } else {
        out.push(seg);
    }
}

/// Two-sided binomial test: under stationarity each log lands in the
/// left half with probability ½.
fn is_stationary(store: &LogStore, left: TimeRange, right: TimeRange, alpha: f64) -> bool {
    let n_left = store.range(left).len() as u64;
    let n_right = store.range(right).len() as u64;
    let n = n_left + n_right;
    if n < 20 {
        return true; // too little volume to see non-stationarity
    }
    let k = n_left.min(n_right);
    let p = 2.0 * binomial::cdf(n, 0.5, k).unwrap_or(1.0);
    p.min(1.0) > alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::LogRecord;

    fn store_with_rates(segments: &[(i64, i64, i64)]) -> LogStore {
        // (start_ms, end_ms, period_ms): one log every `period`.
        let mut s = LogStore::new();
        let src = s.registry.source("App");
        for &(start, end, period) in segments {
            let mut t = start;
            while t < end {
                s.push(LogRecord::minimal(src, Millis(t)));
                t += period;
            }
        }
        s.finalize();
        s
    }

    const HOUR: i64 = 3_600_000;

    #[test]
    fn stationary_period_stays_one_slot() {
        let store = store_with_rates(&[(0, 4 * HOUR, 10_000)]);
        let cfg = AdaptiveConfig::default();
        let slots =
            adaptive_slots(&store, TimeRange::new(Millis(0), Millis(4 * HOUR)), &cfg).unwrap();
        assert_eq!(slots.len(), 1, "uniform rate should not split: {slots:?}");
    }

    #[test]
    fn rate_change_forces_a_split() {
        // Quiet first two hours, 20× busier last two.
        let store = store_with_rates(&[(0, 2 * HOUR, 60_000), (2 * HOUR, 4 * HOUR, 3_000)]);
        let cfg = AdaptiveConfig::default();
        let slots =
            adaptive_slots(&store, TimeRange::new(Millis(0), Millis(4 * HOUR)), &cfg).unwrap();
        assert!(slots.len() >= 2, "rate change not detected: {slots:?}");
        // Slots tile the range exactly.
        assert_eq!(slots[0].start, Millis(0));
        assert_eq!(slots.last().unwrap().end, Millis(4 * HOUR));
        for w in slots.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap in slots");
        }
    }

    #[test]
    fn min_slot_floor_is_respected() {
        // Wild rates everywhere, but slots never drop below the floor.
        let store = store_with_rates(&[
            (0, HOUR / 2, 1_000),
            (HOUR / 2, HOUR, 30_000),
            (HOUR, 2 * HOUR, 2_000),
        ]);
        let cfg = AdaptiveConfig {
            min_slot_ms: 30 * 60 * 1_000,
            ..AdaptiveConfig::default()
        };
        let slots =
            adaptive_slots(&store, TimeRange::new(Millis(0), Millis(2 * HOUR)), &cfg).unwrap();
        for s in &slots {
            assert!(
                s.len_ms() >= cfg.min_slot_ms / 2,
                "slot far below floor: {s:?}"
            );
        }
    }

    #[test]
    fn max_slot_cap_splits_even_stationary_ranges() {
        let store = store_with_rates(&[(0, 12 * HOUR, 10_000)]);
        let cfg = AdaptiveConfig {
            max_slot_ms: 2 * HOUR,
            ..AdaptiveConfig::default()
        };
        let slots =
            adaptive_slots(&store, TimeRange::new(Millis(0), Millis(12 * HOUR)), &cfg).unwrap();
        assert!(slots.len() >= 6);
        for s in &slots {
            assert!(s.len_ms() <= 2 * HOUR);
        }
    }

    #[test]
    fn empty_store_is_one_slot() {
        let mut store = LogStore::new();
        store.finalize();
        let slots = adaptive_slots(
            &store,
            TimeRange::new(Millis(0), Millis(2 * HOUR)),
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(slots.len(), 1);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut store = LogStore::new();
        store.finalize();
        let bad = AdaptiveConfig {
            alpha: 0.0,
            ..AdaptiveConfig::default()
        };
        assert!(adaptive_slots(&store, TimeRange::day(0), &bad).is_err());
        let bad = AdaptiveConfig {
            min_slot_ms: 100,
            max_slot_ms: 50,
            alpha: 0.05,
        };
        assert!(adaptive_slots(&store, TimeRange::day(0), &bad).is_err());
    }

    #[test]
    fn adaptive_slots_feed_run_l1() {
        use crate::l1::{run_l1_slots_pool, L1Config};
        use logdep_par::ParConfig;
        // Two coupled apps over six hours with a busy second half.
        let mut store = LogStore::new();
        let a = store.registry.source("A");
        let b = store.registry.source("B");
        for h in 0..6i64 {
            let period = if h < 3 { 40_000 } else { 8_000 };
            let mut t = h * HOUR;
            while t < (h + 1) * HOUR {
                store.push(LogRecord::minimal(a, Millis(t)));
                store.push(LogRecord::minimal(b, Millis(t + 35)));
                t += period;
            }
        }
        store.finalize();
        let range = TimeRange::new(Millis(0), Millis(6 * HOUR));
        let slots = adaptive_slots(&store, range, &AdaptiveConfig::default()).unwrap();
        assert!(slots.len() >= 2);
        let cfg = L1Config {
            minlogs: 30,
            seed: 2,
            ..L1Config::default()
        };
        let res = run_l1_slots_pool(&store, &slots, &[a, b], &cfg, &ParConfig::default()).unwrap();
        assert!(res.detected.contains(a, b), "coupled pair missed: {res:?}");
    }
}
