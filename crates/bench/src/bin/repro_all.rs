//! One-shot reproduction: simulates the paper week once and runs every
//! §4 experiment over it, printing a one-screen summary and writing a
//! combined JSON report. The per-figure binaries remain the detailed
//! views; this is the "is the whole reproduction still green?" check.

use logdep::eval::{load_experiment, timeout_study, LoadConfig};
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use serde::Serialize;

#[derive(Serialize)]
struct Summary {
    seed: u64,
    scale: f64,
    logs_per_day: Vec<usize>,
    l1_days: Vec<logdep::eval::DailyOutcome>,
    l2_days: Vec<logdep::eval::DailyOutcome>,
    l3_days: Vec<logdep::eval::DailyOutcome>,
    l1_tpr_ci: (f64, f64),
    l2_tpr_ci: (f64, f64),
    l3_tpr_ci: (f64, f64),
    timeout_rows: Vec<logdep::eval::TimeoutRow>,
    slope_p1: (f64, f64),
    slope_p2: (f64, f64),
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    eprintln!("simulating the paper week (seed {seed}, scale {scale})...");
    let wb = Workbench::paper_week(seed, scale);
    let store = &wb.out.store;
    let days = wb.days;

    let logs_per_day: Vec<usize> = store
        .counts_per_day()
        .iter()
        .take(days as usize)
        .map(|d| d.1)
        .collect();

    eprintln!("running the L1, L2, L3 daily series...");
    let run = wb.daily_series(&wb.pipeline_config());
    let (l1, l2, l3) = (
        run.l1.expect("L1 daily"),
        run.l2.expect("L2 daily"),
        run.l3.expect("L3 daily"),
    );

    eprintln!("running the timeout study...");
    let study = timeout_study(
        store,
        days,
        &[300, 600, 800, 1_000],
        &wb.l2_config(),
        &wb.pair_ref,
        0.98,
    )
    .expect("timeout study");

    eprintln!("running the load experiment (168 hourly slices)...");
    let l1_hourly = logdep::l1::L1Config {
        minlogs: 10,
        ..wb.l1_config()
    };
    let l2_hourly = logdep::l2::L2Config {
        alpha: 0.10,
        min_joint: 2,
        session: logdep_sessions::SessionConfig {
            min_logs: 2,
            ..Default::default()
        },
        ..wb.l2_config()
    };
    let l3_oracle = logdep::l3::L3Config {
        min_citations: 3,
        ..wb.l3_config()
    };
    let load = load_experiment(
        store,
        &wb.service_ids,
        &wb.owners,
        &wb.pair_ref,
        &LoadConfig {
            days,
            l1: l1_hourly,
            l2: l2_hourly,
            l3: l3_oracle,
            exclude_apps: wb.excluded.clone(),
            ci_level: 0.95,
            min_oracle_pairs: 3,
        },
    )
    .expect("load experiment");

    let ci = |s: &logdep::eval::DailySeries| {
        let c = s.tpr_median_ci(0.984).expect("ci");
        (c.lower, c.upper)
    };
    let summary = Summary {
        seed,
        scale,
        logs_per_day: logs_per_day.clone(),
        l1_tpr_ci: ci(&l1),
        l2_tpr_ci: ci(&l2),
        l3_tpr_ci: ci(&l3),
        l1_days: l1.days.clone(),
        l2_days: l2.days.clone(),
        l3_days: l3.days.clone(),
        timeout_rows: study.rows.clone(),
        slope_p1: (load.slope_p1.lower, load.slope_p1.upper),
        slope_p2: (load.slope_p2.lower, load.slope_p2.upper),
    };

    println!("=== reproduction summary (seed {seed}, scale {scale}) ===\n");
    println!("Table 1  volume/day: {logs_per_day:?}");
    let line = |name: &str, s: &logdep::eval::DailySeries, paper: &str| {
        let tp: Vec<usize> = s.days.iter().map(|d| d.tp).collect();
        let fp: Vec<usize> = s.days.iter().map(|d| d.fp).collect();
        let c = ci(s);
        println!(
            "{name}  tp {tp:?} fp {fp:?}\n         tpr CI@0.984 [{:.2},{:.2}]  (paper {paper})",
            c.0, c.1
        );
    };
    line("Fig 5 L1", &l1, "tp 30-46, fp 11-22, [0.63,0.73]");
    line("Fig 6 L2", &l2, "tp 62-74 wd, fp 21-25, [0.71,0.78]");
    line("Fig 8 L3", &l3, "tp 141-152 wd, fp 7-11, [0.93,0.96]");
    println!(
        "Table 2  Δtpr medians: {:?} pp (paper: +4.5..+5.4, all positive)",
        study
            .rows
            .iter()
            .map(|r| (r.d_tpr_median * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!(
        "         Δtp medians:  {:?}    (paper: -4..-7, all negative)",
        study.rows.iter().map(|r| r.d_tp_median).collect::<Vec<_>>()
    );
    println!(
        "Fig 9    slope(p1) [{:.3},{:.3}] strictly negative: {} (paper: yes)",
        load.slope_p1.lower,
        load.slope_p1.upper,
        load.slope_p1.strictly_negative()
    );
    println!(
        "         slope(p2) [{:.3},{:.3}] (paper: contains zero; see EXPERIMENTS.md)",
        load.slope_p2.lower, load.slope_p2.upper
    );

    let checks = [
        ("table1 weekend dip", logs_per_day[4] * 2 < logs_per_day[0]),
        (
            "fig5 L1 band",
            l1.days.iter().all(|d| d.tp >= 15 && d.tpr > 0.6),
        ),
        (
            "fig6 L2 band",
            l2.days.iter().all(|d| d.tp >= 40 && d.tpr > 0.6),
        ),
        (
            "fig8 L3 band",
            l3.days.iter().all(|d| d.tp >= 120 && d.tpr > 0.85),
        ),
        (
            "table2 signs",
            study
                .rows
                .iter()
                .all(|r| r.d_tpr_median >= 0.0 && r.d_tp_median <= 0.0),
        ),
        ("fig9 slope(p1) < 0", load.slope_p1.strictly_negative()),
    ];
    println!();
    let mut ok = true;
    for (name, pass) in checks {
        println!("  [{}] {name}", if pass { "ok" } else { "FAIL" });
        ok &= pass;
    }

    write_report("repro_all", &summary);
    if !ok {
        std::process::exit(1);
    }
}
