//! The paper's pipeline end-to-end: simulate a hospital week, mine it
//! with all three techniques, and score against the ground truth.
//!
//! This is the workload of the paper's case study (§4) at a reduced
//! scale so it finishes in seconds:
//!
//! ```text
//! cargo run --release -p logdep-examples --example hospital_week
//! ```

use logdep::eval::daily_series;
use logdep::l1::L1Config;
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep::{AppServiceModel, PairModel, PipelineConfig};
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};

fn main() {
    // A quarter-scale week keeps this example fast.
    let days = 7;
    let out = simulate(&SimConfig::paper_week(7, 0.25));
    println!(
        "simulated {} logs over {days} days; {} apps, {} directory entries, {} true pairs",
        out.store.len(),
        out.truth.app_names.len(),
        out.truth.service_ids.len(),
        out.truth.n_app_pairs()
    );

    // Resolve the ground truth against the store's registry.
    let pair_ref = PairModel::from_names(
        &out.store.registry,
        out.truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let svc_ref = AppServiceModel::from_names(
        &out.store.registry,
        &ids,
        out.truth
            .app_service
            .iter()
            .map(|(a, s)| (a.as_str(), s.as_str())),
    )
    .expect("ids resolve");

    // All three techniques, each day mined by the one window driver
    // the `daily` command runs (minlogs scaled for the smaller volume).
    let cfg = PipelineConfig {
        l1: Some(L1Config {
            minlogs: 10,
            seed: 3,
            ..L1Config::default()
        }),
        l2: Some(L2Config::default()),
        l3: Some(L3Config::with_stop_patterns(standard_stop_patterns())),
        ..PipelineConfig::default()
    };
    let run = daily_series(&out.store, days, &ids, &cfg, &pair_ref, &svc_ref).expect("daily run");
    let (s1, s2, s3) = (
        run.l1.expect("L1"),
        run.l2.expect("L2"),
        run.l3.expect("L3"),
    );

    // L3 — the precise technique.
    println!("\nL3 per day (tp/fp):");
    for d in &s3.days {
        println!("  day {}: {}/{} (tpr {:.2})", d.day, d.tp, d.fp, d.tpr);
    }

    // L2 — session co-occurrence.
    println!("L2 per day (tp/fp):");
    for d in &s2.days {
        println!("  day {}: {}/{} (tpr {:.2})", d.day, d.tp, d.fp, d.tpr);
    }

    // L1 — activity correlation.
    println!("L1 per day (tp/fp):");
    for d in &s1.days {
        println!("  day {}: {}/{} (tpr {:.2})", d.day, d.tp, d.fp, d.tpr);
    }

    // The paper's ordering: precision grows with the semantic content
    // used (L3 ≥ L2, and L1 trades recall for breadth of applicability).
    let tpr = |s: &logdep::eval::DailySeries| {
        let v = s.tpr_values();
        v.iter().sum::<f64>() / v.len() as f64
    };
    println!(
        "\nmean precision: L3 {:.2} ≥ L2 {:.2}; L1 recall is lowest by design",
        tpr(&s3),
        tpr(&s2)
    );
}
