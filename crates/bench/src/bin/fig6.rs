//! Figure 6: positive decisions of technique L2 per day (timeout 1 s).
//!
//! Paper (§4.6): ~4000 sessions per weekday (~1000 weekend), 7.5–11 %
//! of logs assignable; 62–74 true positives on week days (51/52 on the
//! weekend) at 21–25 (19/21) false positives; tpr CI@0.984
//! [0.71, 0.78].

use logdep::l2::run_l2_pool;
use logdep::par::ParConfig;
use logdep::PipelineConfig;
use logdep_bench::ascii::stacked_days;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Report {
    days: Vec<logdep::eval::DailyOutcome>,
    sessions_per_day: Vec<usize>,
    assigned_fraction_per_day: Vec<f64>,
    tpr_median_ci: (f64, f64),
    paper_tp_weekday: (usize, usize),
    paper_fp_weekday: (usize, usize),
    paper_tpr_ci: (f64, f64),
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let cfg = wb.l2_config();
    let series = wb
        .daily_series(&PipelineConfig {
            l2: Some(cfg.clone()),
            ..PipelineConfig::default()
        })
        .l2
        .expect("L2 daily run");

    // Session statistics per day (paper commentary around Figure 6).
    let mut sessions = Vec::new();
    let mut fractions = Vec::new();
    for day in 0..wb.days as i64 {
        let res =
            run_l2_pool(&wb.out.store, TimeRange::day(day), &cfg, &par).expect("session stats");
        sessions.push(res.session_stats.n_sessions);
        fractions.push(res.session_stats.assigned_fraction());
    }

    println!("Figure 6 — L2 positive decisions per day (timeout = 1 s)");
    println!("paper: tp 62–74 wd / 51–52 we, fp 21–25 / 19–21, tpr CI@0.984 [0.71, 0.78]\n");
    let labels: Vec<String> = series
        .days
        .iter()
        .map(|d| format!("day {}", d.day))
        .collect();
    let tp: Vec<usize> = series.days.iter().map(|d| d.tp).collect();
    let fp: Vec<usize> = series.days.iter().map(|d| d.fp).collect();
    print!("{}", stacked_days(&labels, &tp, &fp));

    println!("\nsessions/day: {sessions:?} (paper: ~4000 wd / ~1000 we, at 100× volume)");
    println!(
        "assigned log fraction per day: {:?} (paper: 7.5–11 %)",
        fractions
            .iter()
            .map(|f| format!("{:.1}%", 100.0 * f))
            .collect::<Vec<_>>()
    );

    let ci = series.tpr_median_ci(0.984).expect("ci");
    println!(
        "measured tpr median CI@{:.3}: [{:.2}, {:.2}]",
        ci.achieved_level, ci.lower, ci.upper
    );

    write_report(
        "fig6",
        &Fig6Report {
            days: series.days.clone(),
            sessions_per_day: sessions,
            assigned_fraction_per_day: fractions,
            tpr_median_ci: (ci.lower, ci.upper),
            paper_tp_weekday: (62, 74),
            paper_fp_weekday: (21, 25),
            paper_tpr_ci: (0.71, 0.78),
        },
    );
}
