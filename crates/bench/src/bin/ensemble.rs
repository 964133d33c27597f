//! Technique agreement study: combine L1, L2 and L3 on the paper week
//! and measure precision as a function of how many techniques agree.
//!
//! Not a paper experiment — it operationalizes §4.10/§5: the three
//! techniques consume *independent* information (timestamps, sessions,
//! free text), so their agreement is a strong confidence signal.

use logdep::ensemble::{app_service_to_pairs, Ensemble};
use logdep::l1::run_l1_pool;
use logdep::l2::run_l2_pool;
use logdep::l3::run_l3_pool;
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use serde::Serialize;

#[derive(Serialize)]
struct Level {
    min_votes: u8,
    pairs: usize,
    tp: usize,
    fp: usize,
    precision: f64,
}

#[derive(Serialize)]
struct EnsembleReport {
    vote_histogram: [usize; 4],
    levels: Vec<Level>,
    l1_only_fp_share: f64,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let day = TimeRange::day(0);
    let sources = wb.out.store.active_sources();

    let l1 = run_l1_pool(&wb.out.store, day, &sources, &wb.l1_config(), &par).expect("L1");
    let l2 = run_l2_pool(&wb.out.store, day, &wb.l2_config(), &par).expect("L2");
    let l3 = run_l3_pool(&wb.out.store, day, &wb.service_ids, &wb.l3_config(), &par).expect("L3");
    let l3_pairs = app_service_to_pairs(&l3.detected, &wb.owners);

    let ensemble = Ensemble::combine(&l1.detected, &l2.detected, &l3_pairs);
    println!("technique agreement on day 0 (pairs by number of supporting techniques)\n");
    let hist = ensemble.vote_histogram();
    println!(
        "votes: 1 → {} pairs, 2 → {}, 3 → {}\n",
        hist[1], hist[2], hist[3]
    );

    let mut levels = Vec::new();
    println!(
        "{:>9} {:>7} {:>5} {:>5} {:>10}",
        "min votes", "pairs", "tp", "fp", "precision"
    );
    for v in 1..=3u8 {
        let m = ensemble.at_least(v);
        let d = diff(&m, &wb.pair_ref);
        println!(
            "{:>9} {:>7} {:>5} {:>5} {:>10.2}",
            v,
            m.len(),
            d.tp(),
            d.fp(),
            d.true_positive_ratio()
        );
        levels.push(Level {
            min_votes: v,
            pairs: m.len(),
            tp: d.tp(),
            fp: d.fp(),
            precision: d.true_positive_ratio(),
        });
    }

    // Disagreement diagnosis: how suspect are L1-only pairs?
    let l1_only = ensemble.exactly(true, false, false);
    let d = diff(&l1_only, &wb.pair_ref);
    let fp_share = if l1_only.is_empty() {
        0.0
    } else {
        d.fp() as f64 / l1_only.len() as f64
    };
    println!(
        "\nL1-only pairs: {} of which {:.0}% are false (correlation without \
         a session or citation trace — §4.5's transitive/concurrent class)",
        l1_only.len(),
        100.0 * fp_share
    );

    write_report(
        "ensemble",
        &EnsembleReport {
            vote_histogram: hist,
            levels,
            l1_only_fp_share: fp_share,
        },
    );
}
