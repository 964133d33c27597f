//! Mapping the *moving* landscape: week-over-week change detection.
//!
//! The paper's title problem is that manual models rot because the
//! landscape keeps moving. This example simulates two consecutive
//! weeks of the same hospital — with the topology evolving in between
//! (services rewired, new integrations added) — mines both weeks with
//! technique L3, and reports exactly what changed, checked against the
//! known mutations.
//!
//! ```text
//! cargo run --release -p logdep-examples --example moving_landscape
//! ```

use logdep::evolution::churn;
use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep::AppServiceModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::topology::Topology;
use logdep_sim::{simulate_with, NoiseConfig, SimConfig, TopologyConfig};

const ADDED: usize = 9;
const REMOVED: usize = 6;

fn mine(out: &logdep_sim::SimOutput, ids: &[String]) -> AppServiceModel {
    run_l3_pool(
        &out.store,
        TimeRange::new(Millis(0), Millis::from_days(4)),
        ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3 runs")
    .detected
}

fn main() {
    let mut cfg = SimConfig::paper_week(23, 0.2);
    cfg.days = 3;

    // Week 1: the original landscape.
    let topo1 = Topology::generate(
        &TopologyConfig::hug_like(),
        &NoiseConfig::paper_taxonomy(),
        cfg.seed,
    );
    let week1 = simulate_with(&cfg, topo1.clone());
    let ids: Vec<String> = week1
        .directory
        .ids()
        .iter()
        .map(|s| s.to_string())
        .collect();

    // Between the weeks, the landscape moves: new integrations appear,
    // old ones are decommissioned.
    let topo2 = topo1.evolve(ADDED, REMOVED, 1234);
    cfg.seed += 1; // different traffic, same workload shape
    let week2 = simulate_with(&cfg, topo2.clone());

    let model1 = mine(&week1, &ids);
    let model2 = mine(&week2, &ids);
    let churn = churn(&model1, &model2);

    println!(
        "week 1 model: {} dependencies; week 2 model: {} dependencies",
        model1.len(),
        model2.len()
    );
    println!(
        "churn: {} appeared, {} disappeared, {} stable (stability {:.2})\n",
        churn.appeared.len(),
        churn.disappeared.len(),
        churn.stable.len(),
        churn.stability()
    );

    // Check against the known mutations: which of the truly added
    // edges were flagged as "appeared"?
    let truly_added: Vec<(String, String)> = topo2
        .app_service_pairs()
        .into_iter()
        .filter(|p| !topo1.app_service_pairs().contains(p))
        .map(|(a, s)| (topo2.apps[a].name.clone(), topo2.services[s].id.clone()))
        .collect();
    let appeared_names: Vec<(String, String)> = churn
        .appeared
        .iter()
        .map(|&(app, svc)| {
            (
                week2.store.registry.source_name(app).to_owned(),
                ids[svc].clone(),
            )
        })
        .collect();
    let caught = truly_added
        .iter()
        .filter(|p| appeared_names.contains(p))
        .count();
    println!(
        "of the {} dependencies really added between the weeks, the miner surfaced {}",
        truly_added.len(),
        caught
    );
    println!("\nexamples of surfaced changes:");
    for (app, svc) in appeared_names.iter().take(4) {
        println!("  + {app} -> {svc}");
    }
    for &(app, svc) in churn.disappeared.iter().take(3) {
        println!(
            "  - {} -> {}",
            week1.store.registry.source_name(app),
            ids[svc]
        );
    }
    assert!(
        caught * 2 >= truly_added.len(),
        "the miner should surface most of the real changes"
    );
}
