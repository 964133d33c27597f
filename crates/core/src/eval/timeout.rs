//! The timeout-influence study (§4.7 of the paper: Figure 7, Table 2).
//!
//! For each finite timeout and the infinite baseline, technique L2 runs
//! on every day through [`daily_series`] with only L2 enabled; the paired daily differences `tpr_to − tpr_inf` and
//! `tp_to − tp_inf` are summarized by a median with an order-statistics
//! CI (0.98 level in the paper) and by the exact Wilcoxon signed-rank
//! test (p = 0.0156 when all 7 days agree in sign).

use super::daily::{daily_series, DailySeries};
use crate::health::PipelineConfig;
use crate::l2::L2Config;
use crate::model::{AppServiceModel, PairModel};
use logdep_logstore::LogStore;
use logdep_stats::order_stats::median_ci;
use logdep_stats::wilcoxon::{signed_rank, Alternative};
use serde::{Deserialize, Serialize};

/// One row of Table 2 (plus the Wilcoxon p-values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeoutRow {
    /// The finite timeout in milliseconds.
    pub timeout_ms: i64,
    /// Median of the per-day differences `tpr_to − tpr_inf`,
    /// in percentage points (the paper's units).
    pub d_tpr_median: f64,
    /// Order-statistics CI bounds for the tpr difference median.
    pub d_tpr_ci: (f64, f64),
    /// Median of `tp_to − tp_inf` (absolute counts).
    pub d_tp_median: f64,
    /// CI bounds for the tp difference median.
    pub d_tp_ci: (f64, f64),
    /// Exact two-sided Wilcoxon signed-rank p for the tpr differences.
    pub wilcoxon_p_tpr: f64,
    /// Exact two-sided Wilcoxon signed-rank p for the tp differences.
    pub wilcoxon_p_tp: f64,
}

/// The full study: the infinite-timeout baseline plus one row per
/// finite timeout, with the underlying daily series kept for plotting
/// (Figure 7 uses the per-day positives at each timeout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeoutStudy {
    /// Daily series with no timeout (the baseline).
    pub baseline: DailySeries,
    /// Daily series per finite timeout, same order as `rows`.
    pub series: Vec<(i64, DailySeries)>,
    /// Table 2 rows.
    pub rows: Vec<TimeoutRow>,
    /// CI level used for the medians (the paper: 0.98).
    pub ci_level: f64,
}

/// Runs the study over `days` days for the given finite timeouts (ms).
pub fn timeout_study(
    store: &LogStore,
    days: u32,
    timeouts_ms: &[i64],
    base_cfg: &L2Config,
    reference: &PairModel,
    ci_level: f64,
) -> crate::Result<TimeoutStudy> {
    let l2_series = |timeout_ms: Option<i64>| -> crate::Result<DailySeries> {
        let cfg = PipelineConfig {
            l2: Some(L2Config {
                timeout_ms,
                ..base_cfg.clone()
            }),
            ..PipelineConfig::default()
        };
        let run = daily_series(store, days, &[], &cfg, reference, &AppServiceModel::new())?;
        Ok(run.l2.unwrap_or_default())
    };
    let baseline = l2_series(None)?;

    let mut series = Vec::new();
    let mut rows = Vec::new();
    for &to in timeouts_ms {
        let s = l2_series(Some(to))?;

        // Paired daily differences. tpr in percentage points.
        let d_tpr: Vec<f64> = s
            .tpr_values()
            .iter()
            .zip(baseline.tpr_values())
            .map(|(a, b)| (a - b) * 100.0)
            .collect();
        let d_tp: Vec<f64> = s
            .tp_values()
            .iter()
            .zip(baseline.tp_values())
            .map(|(a, b)| a - b)
            .collect();

        let ci_tpr = median_ci(&d_tpr, ci_level)?;
        let ci_tp = median_ci(&d_tp, ci_level)?;
        let w_tpr = signed_rank(&d_tpr, Alternative::TwoSided)
            .map(|r| r.p_value)
            .unwrap_or(1.0);
        let w_tp = signed_rank(&d_tp, Alternative::TwoSided)
            .map(|r| r.p_value)
            .unwrap_or(1.0);

        rows.push(TimeoutRow {
            timeout_ms: to,
            d_tpr_median: ci_tpr.point,
            d_tpr_ci: (ci_tpr.lower, ci_tpr.upper),
            d_tp_median: ci_tp.point,
            d_tp_ci: (ci_tp.lower, ci_tp.upper),
            wilcoxon_p_tpr: w_tpr,
            wilcoxon_p_tp: w_tp,
        });
        series.push((to, s));
    }

    Ok(TimeoutStudy {
        baseline,
        series,
        rows,
        ci_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // End-to-end behaviour of timeout_study is covered by integration
    // tests against the simulator; here we check the difference math on
    // hand-built series via the public row computation path, by feeding
    // a tiny synthetic store.
    use logdep_logstore::time::MS_PER_DAY;
    use logdep_logstore::{LogRecord, Millis};

    /// Two genuinely interacting pairs (A,B) and (D,E) in alternating
    /// sessions, plus a loose follower C trailing the (A,B) sessions by
    /// ~2 s. Without a timeout the (B,C) concurrency bigrams create a
    /// false positive; a finite timeout prunes exactly those.
    fn synthetic_store(days: u32) -> (LogStore, PairModel) {
        let mut store = LogStore::new();
        let a = store.registry.source("A");
        let b = store.registry.source("B");
        let c = store.registry.source("C");
        let d = store.registry.source("D");
        let e = store.registry.source("E");
        let user = store.registry.user("u");
        for day in 0..days as i64 {
            for k in 0..30i64 {
                let host = store.registry.host(&format!("h{day}-{k}"));
                let t0 = day * MS_PER_DAY + k * 60_000;
                for r in 0..5i64 {
                    let t = t0 + r * 5_000;
                    if k % 2 == 0 {
                        store.push(
                            LogRecord::minimal(a, Millis(t))
                                .with_user(user)
                                .with_host(host),
                        );
                        store.push(
                            LogRecord::minimal(b, Millis(t + 100))
                                .with_user(user)
                                .with_host(host),
                        );
                        // C follows at 2 s — beyond a finite timeout.
                        store.push(
                            LogRecord::minimal(c, Millis(t + 2_100))
                                .with_user(user)
                                .with_host(host),
                        );
                    } else {
                        store.push(
                            LogRecord::minimal(d, Millis(t))
                                .with_user(user)
                                .with_host(host),
                        );
                        store.push(
                            LogRecord::minimal(e, Millis(t + 150))
                                .with_user(user)
                                .with_host(host),
                        );
                    }
                }
            }
        }
        store.finalize();
        let mut reference = PairModel::new();
        reference.insert(a, b);
        reference.insert(d, e);
        (store, reference)
    }

    #[test]
    fn study_produces_rows_and_sign_pattern() {
        let (store, reference) = synthetic_store(5);
        let study = timeout_study(
            &store,
            5,
            &[300, 1_000],
            &L2Config::default(),
            &reference,
            0.98,
        )
        .unwrap();
        assert_eq!(study.rows.len(), 2);
        assert_eq!(study.baseline.days.len(), 5);
        // With a timeout, the loose (B, C) pairing loses its bigrams:
        // fewer false positives, so the tpr difference is >= 0 and the
        // tp difference cannot be positive.
        for row in &study.rows {
            assert!(
                row.d_tpr_median >= 0.0,
                "timeout should not reduce precision here: {row:?}"
            );
            assert!(row.d_tp_median <= 0.0 || row.d_tp_median.abs() < 1e-9);
            assert!(row.wilcoxon_p_tpr <= 1.0 && row.wilcoxon_p_tpr > 0.0);
        }
    }

    #[test]
    fn five_days_same_sign_wilcoxon_p() {
        // All-positive differences over 5 days: exact p = 2/32.
        let d = [1.0, 2.0, 0.5, 3.0, 1.5];
        let r = signed_rank(&d, Alternative::TwoSided).unwrap();
        assert!((r.p_value - 0.0625).abs() < 1e-12);
    }
}
