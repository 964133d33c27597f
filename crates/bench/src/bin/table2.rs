//! Table 2: median differences (with CI bounds) between finite
//! timeouts and the no-timeout baseline for technique L2, plus the
//! Wilcoxon signed-rank test.
//!
//! Paper (§4.7): for to ∈ {0.3, 0.6, 0.8, 1.0} s the tpr difference is
//! positive (medians ~4.5–5.4 percentage points, 0.98-level CIs
//! strictly positive) while the absolute tp difference is negative
//! (medians −4 … −7, CIs strictly negative); the signed Wilcoxon p is
//! 0.0156 whenever all 7 daily differences agree in sign.

use logdep::eval::timeout_study;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use serde::Serialize;

/// A paper row: (timeout s, Δtpr median, Δtpr CI, Δtp median, Δtp CI).
type PaperRow = (f64, f64, (f64, f64), f64, (f64, f64));

#[derive(Serialize)]
struct Table2Report {
    rows: Vec<logdep::eval::TimeoutRow>,
    paper_rows: Vec<PaperRow>,
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let study = timeout_study(
        &wb.out.store,
        wb.days,
        &[300, 600, 800, 1_000],
        &wb.l2_config(),
        &wb.pair_ref,
        0.98,
    )
    .expect("timeout study");

    // Paper's Table 2: (to, Δtpr median, ci, Δtp median, ci).
    let paper = [
        (0.3, 5.4, (1.9, 9.3), -7.0, (-13.0, -4.0)),
        (0.6, 4.5, (2.0, 6.8), -5.0, (-9.0, -3.0)),
        (0.8, 4.5, (2.3, 5.7), -4.0, (-8.0, -3.0)),
        (1.0, 5.1, (1.7, 6.3), -5.0, (-7.0, -3.0)),
    ];

    println!("Table 2 — timeout influence on L2 (medians with 0.98-level CI bounds)");
    println!(
        "{:>5} | {:>24} | {:>24} | {:>10}",
        "to[s]", "Δtpr [pp] (paper)", "Δtp (paper)", "wilcoxon p"
    );
    for (row, p) in study.rows.iter().zip(&paper) {
        println!(
            "{:>5} | {:>6.1} ({:>5.1},{:>5.1}) vs {:>4.1} | {:>6.1} ({:>5.1},{:>5.1}) vs {:>4.1} | {:.4}/{:.4}",
            row.timeout_ms as f64 / 1000.0,
            row.d_tpr_median,
            row.d_tpr_ci.0,
            row.d_tpr_ci.1,
            p.1,
            row.d_tp_median,
            row.d_tp_ci.0,
            row.d_tp_ci.1,
            p.3,
            row.wilcoxon_p_tpr,
            row.wilcoxon_p_tp,
        );
    }
    println!("\npaper's Wilcoxon p: 0.0156 for 7 same-sign days");
    println!(
        "conclusion check — Δtpr medians ≥ 0: {}; Δtp medians ≤ 0: {}",
        study.rows.iter().all(|r| r.d_tpr_median >= 0.0),
        study.rows.iter().all(|r| r.d_tp_median <= 0.0),
    );

    write_report(
        "table2",
        &Table2Report {
            rows: study.rows.clone(),
            paper_rows: paper.to_vec(),
        },
    );
}
