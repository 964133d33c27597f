//! Figure 7: L2 positive decisions on one day for different timeout
//! values.
//!
//! Paper (§4.7, 12 Dec 2005 = day 6): a timeout that is "neither too
//! small nor too big" raises the fraction of correct decisions while
//! slightly lowering the absolute number of true positives.

use logdep::l2::{run_l2_pool, L2Config};
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep_bench::ascii::stacked_days;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use serde::Serialize;

#[derive(Serialize)]
struct SweepPoint {
    timeout_ms: Option<i64>,
    tp: usize,
    fp: usize,
    tpr: f64,
}

#[derive(Serialize)]
struct Fig7Report {
    day: i64,
    points: Vec<SweepPoint>,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let day = 6i64; // the paper's 12.12.2005
    let timeouts: Vec<Option<i64>> = vec![
        Some(100),
        Some(200),
        Some(300),
        Some(400),
        Some(600),
        Some(800),
        Some(1_000),
        Some(1_500),
        Some(2_000),
        Some(4_000),
        None,
    ];

    println!("Figure 7 — L2 on day {day} for different timeout values");
    println!("paper: moderate timeouts raise precision, slightly reduce absolute tp\n");

    let mut labels = Vec::new();
    let mut tps = Vec::new();
    let mut fps = Vec::new();
    let mut points = Vec::new();
    for &to in &timeouts {
        let cfg = L2Config {
            timeout_ms: to,
            ..wb.l2_config()
        };
        let res = run_l2_pool(&wb.out.store, TimeRange::day(day), &cfg, &par).expect("L2 run");
        let d = diff(&res.detected, &wb.pair_ref);
        labels.push(match to {
            Some(ms) => format!("{:.1}s", ms as f64 / 1000.0),
            None => "inf".to_owned(),
        });
        tps.push(d.tp());
        fps.push(d.fp());
        points.push(SweepPoint {
            timeout_ms: to,
            tp: d.tp(),
            fp: d.fp(),
            tpr: d.true_positive_ratio(),
        });
    }
    print!("{}", stacked_days(&labels, &tps, &fps));

    let best = points
        .iter()
        .filter(|p| p.timeout_ms.is_some())
        .max_by(|a, b| a.tpr.partial_cmp(&b.tpr).expect("finite"))
        .expect("non-empty");
    let inf = points.last().expect("inf point");
    println!(
        "\nbest finite timeout {:?} ms: tpr {:.2} vs infinity tpr {:.2}; tp {} vs {}",
        best.timeout_ms, best.tpr, inf.tpr, best.tp, inf.tp
    );

    write_report("fig7", &Fig7Report { day, points });
}
