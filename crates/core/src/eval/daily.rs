//! Per-day evaluation against a reference model.
//!
//! The paper applies each technique "for each day independently, which
//! allows us to quantify the accuracy of our observations by computing
//! confidence intervals using the robust order statistics method" —
//! with 7 daily values, the reported 0.984-level CI for the median is
//! exactly the [min, max] of the dailies. The days are mined by the
//! operators' driver, [`run_window_cached`], over one-day windows.

use crate::cache::EvidenceCache;
use crate::durable::DailyPlan;
use crate::health::PipelineConfig;
use crate::model::{diff, AppServiceModel, Diff, PairModel};
use crate::window::run_window_cached;
use crate::MineError;
use logdep_logstore::LogStore;
use logdep_stats::order_stats::{median_ci, QuantileCi};
use serde::{Deserialize, Serialize};

/// One day's detection outcome.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DailyOutcome {
    /// Day index since the scenario epoch.
    pub day: i64,
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives (reference dependencies not detected).
    pub fn_: usize,
    /// True-positive ratio tp / (tp + fp).
    pub tpr: f64,
}

impl DailyOutcome {
    fn from_diff<T: Ord>(day: i64, d: &Diff<T>) -> Self {
        Self {
            day,
            tp: d.tp(),
            fp: d.fp(),
            fn_: d.fn_(),
            tpr: d.true_positive_ratio(),
        }
    }
}

/// A per-day series with the paper's summary statistics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DailySeries {
    /// One outcome per day, in day order.
    pub days: Vec<DailyOutcome>,
}

impl DailySeries {
    /// True-positive counts per day.
    pub fn tp_values(&self) -> Vec<f64> {
        self.days.iter().map(|d| d.tp as f64).collect()
    }

    /// False-positive counts per day.
    pub fn fp_values(&self) -> Vec<f64> {
        self.days.iter().map(|d| d.fp as f64).collect()
    }

    /// True-positive ratios per day.
    pub fn tpr_values(&self) -> Vec<f64> {
        self.days.iter().map(|d| d.tpr).collect()
    }

    /// Order-statistics CI for the median true-positive ratio. With 7
    /// days, `level = 0.984` reproduces the paper's interval exactly.
    pub fn tpr_median_ci(&self, level: f64) -> crate::Result<QuantileCi> {
        Ok(median_ci(&self.tpr_values(), level)?)
    }
}

/// The daily series of every layer one [`daily_series`] pass mined;
/// `None` for a layer the [`PipelineConfig`] disables.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyRun {
    /// L1, diffed against the reference pair model.
    pub l1: Option<DailySeries>,
    /// L2, diffed against the reference pair model.
    pub l2: Option<DailySeries>,
    /// L3, diffed against the reference app→service model.
    pub l3: Option<DailySeries>,
}

/// Mines each of `days` days with every layer `cfg` enables — one
/// [`run_window_cached`] pass per day of a one-day [`DailyPlan`], L1
/// over `store.active_sources()` — and diffs L1/L2 against
/// `pair_ref` and L3 against `svc_ref`.
///
/// The driver degrades when a detector fails; an evaluation must not,
/// so a failed detector's health row becomes this function's `Err`
/// instead of a day scored on an empty model.
pub fn daily_series(
    store: &LogStore,
    days: u32,
    service_ids: &[String],
    cfg: &PipelineConfig,
    pair_ref: &PairModel,
    svc_ref: &AppServiceModel,
) -> crate::Result<DailyRun> {
    let plan = DailyPlan {
        start_day: 0,
        window_days: 1,
        advance_days: 1,
        steps: u64::from(days),
    };
    let enabled = |on: bool| on.then(DailySeries::default);
    let mut run = DailyRun {
        l1: enabled(cfg.l1.is_some()),
        l2: enabled(cfg.l2.is_some()),
        l3: enabled(cfg.l3.is_some()),
    };
    let mut cache = EvidenceCache::new();
    for step in 0..plan.steps {
        let outcome = run_window_cached(store, plan.window(step), service_ids, cfg, &mut cache)?;
        if let Some(h) = outcome.health.iter().find(|h| h.enabled && !h.ok) {
            return Err(MineError::DetectorFailed {
                detector: h.detector,
                error: h.error.clone().unwrap_or_default(),
            });
        }
        let day = plan.day(step);
        if let (Some(series), Some(r)) = (run.l1.as_mut(), &outcome.l1) {
            let d = diff(&r.detected, pair_ref);
            series.days.push(DailyOutcome::from_diff(day, &d));
        }
        if let (Some(series), Some(r)) = (run.l2.as_mut(), &outcome.l2) {
            let d = diff(&r.detected, pair_ref);
            series.days.push(DailyOutcome::from_diff(day, &d));
        }
        if let (Some(series), Some(r)) = (run.l3.as_mut(), &outcome.l3) {
            let d = diff(&r.detected, svc_ref);
            series.days.push(DailyOutcome::from_diff(day, &d));
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::DetectorKind;
    use crate::l1::L1Config;
    use crate::l2::L2Config;
    use crate::l3::L3Config;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    fn series(tprs: &[f64]) -> DailySeries {
        DailySeries {
            days: tprs
                .iter()
                .enumerate()
                .map(|(i, &tpr)| DailyOutcome {
                    day: i as i64,
                    tp: (tpr * 100.0) as usize,
                    fp: 100 - (tpr * 100.0) as usize,
                    fn_: 10,
                    tpr,
                })
                .collect(),
        }
    }

    #[test]
    fn value_extractors() {
        let s = series(&[0.5, 0.7]);
        assert_eq!(s.tp_values(), vec![50.0, 70.0]);
        assert_eq!(s.fp_values(), vec![50.0, 30.0]);
        assert_eq!(s.tpr_values(), vec![0.5, 0.7]);
    }

    #[test]
    fn seven_day_ci_is_min_max_at_0984() {
        let s = series(&[0.66, 0.63, 0.73, 0.70, 0.68, 0.71, 0.65]);
        let ci = s.tpr_median_ci(0.984).unwrap();
        assert_eq!((ci.lower, ci.upper), (0.63, 0.73));
    }

    #[test]
    fn empty_series_ci_errors() {
        let s = DailySeries::default();
        assert!(s.tpr_median_ci(0.95).is_err());
    }

    /// Two days of one app's logs: enough for every layer to run.
    fn two_day_store() -> LogStore {
        let mut store = LogStore::new();
        let a = store.registry.source("A");
        for i in 0..48 {
            store.push(LogRecord::minimal(a, Millis(i * MS_PER_HOUR)));
        }
        store.finalize();
        store
    }

    #[test]
    fn enabled_layers_get_one_outcome_per_day() {
        let cfg = PipelineConfig {
            l1: Some(L1Config::default()),
            l3: Some(L3Config::default()),
            ..PipelineConfig::default()
        };
        let run = daily_series(
            &two_day_store(),
            2,
            &[],
            &cfg,
            &PairModel::new(),
            &AppServiceModel::new(),
        )
        .expect("healthy run");
        assert!(run.l2.is_none());
        for series in [run.l1, run.l3] {
            let days: Vec<i64> = series
                .expect("enabled")
                .days
                .iter()
                .map(|d| d.day)
                .collect();
            assert_eq!(days, vec![0, 1]);
        }
    }

    #[test]
    fn a_failed_detector_is_an_error_not_a_series_of_zeros() {
        let l2 = L2Config {
            alpha: 2.0,
            ..L2Config::default()
        };
        let why = l2.validate().expect_err("alpha 2.0 is invalid").to_string();
        let cfg = PipelineConfig {
            l2: Some(l2),
            ..PipelineConfig::all_defaults()
        };
        let err = daily_series(
            &two_day_store(),
            2,
            &[],
            &cfg,
            &PairModel::new(),
            &AppServiceModel::new(),
        )
        .expect_err("a failed L2 must fail the evaluation");
        assert!(
            matches!(
                err,
                MineError::DetectorFailed {
                    detector: DetectorKind::L2,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains(&why), "{err}");
    }
}
