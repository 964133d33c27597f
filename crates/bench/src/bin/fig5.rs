//! Figure 5: positive decisions of technique L1 per day.
//!
//! Paper (§4.5, minlogs = 100, th_pr = 0.6, th_s = 0.3): 30–46 true
//! positives per day at 11–22 false positives; 0.984-level CI for the
//! median true-positive ratio [0.63, 0.73]; classification error on
//! the 1253 unrelated pairs stays ~2 %.

use logdep::PipelineConfig;
use logdep_bench::ascii::stacked_days;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use serde::Serialize;

#[derive(Serialize)]
struct Fig5Report {
    days: Vec<logdep::eval::DailyOutcome>,
    tpr_median_ci: (f64, f64),
    paper_tp_range: (usize, usize),
    paper_fp_range: (usize, usize),
    paper_tpr_ci: (f64, f64),
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let cfg = PipelineConfig {
        l1: Some(wb.l1_config()),
        ..PipelineConfig::default()
    };
    let series = wb.daily_series(&cfg).l1.expect("L1 daily run");

    println!("Figure 5 — L1 positive decisions per day (th_pr=0.6, th_s=0.3)");
    println!("paper: tp 30–46, fp 11–22, tpr CI@0.984 [0.63, 0.73]\n");
    let labels: Vec<String> = series
        .days
        .iter()
        .map(|d| format!("day {}", d.day))
        .collect();
    let tp: Vec<usize> = series.days.iter().map(|d| d.tp).collect();
    let fp: Vec<usize> = series.days.iter().map(|d| d.fp).collect();
    print!("{}", stacked_days(&labels, &tp, &fp));

    let ci = series.tpr_median_ci(0.984).expect("ci");
    println!(
        "\nmeasured tpr median CI@{:.3}: [{:.2}, {:.2}]",
        ci.achieved_level, ci.lower, ci.upper
    );
    let unrelated = wb.out.truth.n_possible_app_pairs() - wb.pair_ref.len();
    let worst_fp = fp.iter().max().copied().unwrap_or(0);
    println!(
        "classification error on the {unrelated} unrelated pairs: ≤ {:.1} % (paper ~2 %)",
        100.0 * worst_fp as f64 / unrelated as f64
    );

    write_report(
        "fig5",
        &Fig5Report {
            days: series.days.clone(),
            tpr_median_ci: (ci.lower, ci.upper),
            paper_tp_range: (30, 46),
            paper_fp_range: (11, 22),
            paper_tpr_ci: (0.63, 0.73),
        },
    );
}
