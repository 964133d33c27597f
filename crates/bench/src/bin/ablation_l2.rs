//! Ablation of technique L2's association statistic: Dunning's G²
//! versus Pearson's X² (DESIGN.md §6).
//!
//! The paper follows Dunning (1993) in preferring the log-likelihood
//! ratio because Pearson's statistic loses its χ² calibration on the
//! heavily skewed tables bigram data produces — it fires on rare
//! coincidences. This binary runs both gates on the same day and also
//! reports how the significance level α shifts the operating point.

use logdep::l2::{run_l2_pool, L2Config};
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use logdep_stats::contingency::AssociationStatistic;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    statistic: String,
    alpha: f64,
    tp: usize,
    fp: usize,
    tpr: f64,
}

#[derive(Serialize)]
struct AblationL2Report {
    day: i64,
    points: Vec<Point>,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let day = 0i64;
    let range = TimeRange::day(day);

    println!("L2 association-statistic ablation (day {day})\n");
    println!(
        "{:<9} {:>7} {:>5} {:>5} {:>6}",
        "stat", "alpha", "tp", "fp", "tpr"
    );
    let mut points = Vec::new();
    for stat in [AssociationStatistic::Dunning, AssociationStatistic::Pearson] {
        for alpha in [0.05, 0.01, 0.001] {
            let cfg = L2Config {
                statistic: stat,
                alpha,
                ..wb.l2_config()
            };
            let res = run_l2_pool(&wb.out.store, range, &cfg, &par).expect("L2 run");
            let d = diff(&res.detected, &wb.pair_ref);
            let name = match stat {
                AssociationStatistic::Dunning => "dunning",
                AssociationStatistic::Pearson => "pearson",
            };
            println!(
                "{:<9} {:>7} {:>5} {:>5} {:>6.2}",
                name,
                alpha,
                d.tp(),
                d.fp(),
                d.true_positive_ratio()
            );
            points.push(Point {
                statistic: name.to_owned(),
                alpha,
                tp: d.tp(),
                fp: d.fp(),
                tpr: d.true_positive_ratio(),
            });
        }
    }

    println!("\n(the paper's choice is Dunning at a strict level; Pearson inflates");
    println!(" the skewed-table statistic and admits more false positives at the");
    println!(" same nominal α)");

    write_report("ablation_l2", &AblationL2Report { day, points });
}
