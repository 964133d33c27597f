//! The system-load study (§4.9 of the paper, Figure 9).
//!
//! The static reference model cannot say whether a dependency was
//! *realized* in a given hour, so the paper uses technique L3 — shown
//! reliable in §4.8 — as a dynamic oracle: for every hour, the
//! L3-detected (and reference-confirmed) dependencies are mapped to
//! application pairs, and `p₁` / `p₂` measure the fraction of those
//! pairs techniques L1 and L2 recover in the same hour. Regressing the
//! percentages on the hourly log volume shows L1's slope strictly
//! negative and L2's compatible with zero.

use crate::l1::{run_l1_pool, L1Config};
use crate::l2::{run_l2_pool, L2Config};
use crate::l3::{run_l3_pool, L3Config};
use crate::model::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_par::ParConfig;
use logdep_stats::regression::{linear_fit, Interval};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration of the load experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadConfig {
    /// Days to cover (hours = 24 × days).
    pub days: u32,
    /// L1 parameters (slot width is forced to the hourly ranges).
    pub l1: L1Config,
    /// L2 parameters.
    pub l2: L2Config,
    /// L3 oracle parameters (stop patterns etc.).
    pub l3: L3Config,
    /// Applications excluded from the oracle — the paper removes 4
    /// "which do not log all of their invocations".
    pub exclude_apps: Vec<SourceId>,
    /// Regression CI level (the paper uses 95 %).
    pub ci_level: f64,
    /// Minimum number of oracle pairs for an hour to enter the
    /// regression (hours with an empty oracle are uninformative).
    pub min_oracle_pairs: usize,
}

/// One hourly observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HourPoint {
    /// Hour index since the scenario epoch.
    pub hour: i64,
    /// Total logs in the hour.
    pub n_logs: usize,
    /// Number of oracle (realized, reference-confirmed) pairs.
    pub oracle_pairs: usize,
    /// Fraction of oracle pairs found by L1.
    pub p1: f64,
    /// Fraction of oracle pairs found by L2.
    pub p2: f64,
    /// False-positive ratio of L1's positives in the hour.
    pub fp1_ratio: f64,
    /// False-positive ratio of L2's positives in the hour.
    pub fp2_ratio: f64,
}

/// The full experiment result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadExperiment {
    /// Hourly observations that met `min_oracle_pairs`.
    pub points: Vec<HourPoint>,
    /// CI for the slope of `p1 ~ normalized load`.
    pub slope_p1: Interval,
    /// CI for the slope of `p2 ~ normalized load`.
    pub slope_p2: Interval,
    /// CI for the slope of L1's FP ratio against load.
    pub slope_fp1: Interval,
    /// CI for the slope of L2's FP ratio against load.
    pub slope_fp2: Interval,
    /// Normal-QQ data of the p1 regression residuals (model check).
    pub qq_p1: Vec<(f64, f64)>,
    /// Normal-QQ data of the p2 regression residuals.
    pub qq_p2: Vec<(f64, f64)>,
}

/// Runs the load experiment.
///
/// `service_ids` and `owners` describe the directory: `owners[i]` is
/// the application implementing `service_ids[i]` (needed to map an
/// L3-detected `(app, service)` onto the `app ↔ owner` pair the other
/// two techniques can see).
#[expect(
    clippy::indexing_slicing,
    reason = "L3 reports indices into `service_ids`, which `owners` matches in length"
)]
pub fn load_experiment(
    store: &LogStore,
    service_ids: &[String],
    owners: &[SourceId],
    reference_pairs: &PairModel,
    cfg: &LoadConfig,
) -> crate::Result<LoadExperiment> {
    if service_ids.len() != owners.len() {
        return Err(crate::MineError::InvalidConfig {
            name: "owners",
            reason: format!(
                "length {} does not match service_ids length {}",
                owners.len(),
                service_ids.len()
            ),
        });
    }
    let excluded: BTreeSet<SourceId> = cfg.exclude_apps.iter().copied().collect();
    let par = ParConfig::default();

    let mut points = Vec::new();
    for hour in 0..(cfg.days as i64 * 24) {
        let range = TimeRange::hour_of_day(hour / 24, hour % 24);
        let n_logs = store.range(range).len();
        if n_logs == 0 {
            continue;
        }

        // Oracle: L3-realized dependencies, intersected with the static
        // reference (L3's few false positives must not pollute the
        // oracle), excluding unreliable loggers.
        let l3 = run_l3_pool(store, range, service_ids, &cfg.l3, &par)?;
        let mut oracle = PairModel::new();
        for (app, svc) in l3.detected.iter() {
            if excluded.contains(&app) {
                continue;
            }
            let owner = owners[svc];
            if app != owner && reference_pairs.contains(app, owner) {
                oracle.insert(app, owner);
            }
        }
        if oracle.len() < cfg.min_oracle_pairs {
            continue;
        }

        // Sources involved in the oracle this hour.
        let mut sources: Vec<SourceId> = oracle
            .iter()
            .flat_map(|(a, b)| [a, b])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        sources.sort_unstable();

        let l1 = run_l1_pool(store, range, &sources, &cfg.l1, &par)?;
        let l2 = run_l2_pool(store, range, &cfg.l2, &par)?;

        let found = |detected: &PairModel| {
            oracle
                .iter()
                .filter(|&(a, b)| detected.contains(a, b))
                .count()
        };
        let fp_ratio = |detected: &PairModel| {
            let total = detected.len();
            if total == 0 {
                return 0.0;
            }
            let fp = detected
                .iter()
                .filter(|&(a, b)| !reference_pairs.contains(a, b))
                .count();
            fp as f64 / total as f64
        };

        points.push(HourPoint {
            hour,
            n_logs,
            oracle_pairs: oracle.len(),
            p1: found(&l1.detected) as f64 / oracle.len() as f64,
            p2: found(&l2.detected) as f64 / oracle.len() as f64,
            fp1_ratio: fp_ratio(&l1.detected),
            fp2_ratio: fp_ratio(&l2.detected),
        });
    }

    if points.len() < 3 {
        return Err(crate::MineError::NoData("load experiment hours"));
    }

    // Regress on normalized load, as in the paper's right graph.
    let max_logs = points.iter().map(|p| p.n_logs).max().unwrap_or(1) as f64;
    let x: Vec<f64> = points.iter().map(|p| p.n_logs as f64 / max_logs).collect();
    let fit = |y: Vec<f64>| -> crate::Result<(Interval, Vec<(f64, f64)>)> {
        let f = linear_fit(&x, &y)?;
        let ci = f.slope_ci(cfg.ci_level)?;
        let qq = f.qq_points().unwrap_or_default();
        Ok((ci, qq))
    };
    let (slope_p1, qq_p1) = fit(points.iter().map(|p| p.p1).collect())?;
    let (slope_p2, qq_p2) = fit(points.iter().map(|p| p.p2).collect())?;
    let (slope_fp1, _) = fit(points.iter().map(|p| p.fp1_ratio).collect())?;
    let (slope_fp2, _) = fit(points.iter().map(|p| p.fp2_ratio).collect())?;

    Ok(LoadExperiment {
        points,
        slope_p1,
        slope_p2,
        slope_fp1,
        slope_fp2,
        qq_p1,
        qq_p2,
    })
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            days: 7,
            l1: L1Config::default(),
            l2: L2Config::default(),
            l3: L3Config::default(),
            exclude_apps: Vec::new(),
            ci_level: 0.95,
            min_oracle_pairs: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_length_is_validated() {
        let mut store = LogStore::new();
        store.finalize();
        let err = load_experiment(
            &store,
            &["A".to_owned()],
            &[],
            &PairModel::new(),
            &LoadConfig::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn empty_store_has_no_data() {
        let mut store = LogStore::new();
        store.finalize();
        let err = load_experiment(&store, &[], &[], &PairModel::new(), &LoadConfig::default());
        assert!(matches!(err, Err(crate::MineError::NoData(_))));
    }
}
