//! Figure 8: positive decisions of technique L3 per day (with the 10
//! stop patterns).
//!
//! Paper (§4.8): 141–152 true positives on week days (116/117 on the
//! weekend) at 7–11 (5) false positives; tpr CI@0.984 [0.93, 0.96].

use logdep::PipelineConfig;
use logdep_bench::ascii::stacked_days;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use serde::Serialize;

#[derive(Serialize)]
struct Fig8Report {
    days: Vec<logdep::eval::DailyOutcome>,
    tpr_median_ci: (f64, f64),
    paper_tp_weekday: (usize, usize),
    paper_fp_weekday: (usize, usize),
    paper_tpr_ci: (f64, f64),
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let cfg = PipelineConfig {
        l3: Some(wb.l3_config()),
        ..PipelineConfig::default()
    };
    let series = wb.daily_series(&cfg).l3.expect("L3 daily run");

    println!("Figure 8 — L3 positive decisions per day (10 stop patterns)");
    println!("paper: tp 141–152 wd / 116–117 we, fp 7–11 / 5, tpr CI@0.984 [0.93, 0.96]\n");
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

    write_report(
        "fig8",
        &Fig8Report {
            days: series.days.clone(),
            tpr_median_ci: (ci.lower, ci.upper),
            paper_tp_weekday: (141, 152),
            paper_fp_weekday: (7, 11),
            paper_tpr_ci: (0.93, 0.96),
        },
    );
}
