//! Calibration scratchpad: runs all three techniques over the paper
//! week and prints the daily series next to the paper's target bands.

use logdep::eval::{daily_series, DailySeries};
use logdep::l1::L1Config;
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep::par::ParConfig;
use logdep::{AppServiceModel, PairModel, PipelineConfig};
use logdep_bench::workbench::cli_no_args;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};

fn main() {
    cli_no_args();
    let par = ParConfig::default();
    let out = simulate(&SimConfig::paper_week(42, 1.0));
    let store = &out.store;
    let truth = &out.truth;

    let pair_ref = PairModel::from_names(
        &store.registry,
        truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("app names resolve");
    let service_ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let svc_ref = AppServiceModel::from_names(
        &store.registry,
        &service_ids,
        truth
            .app_service
            .iter()
            .map(|(a, s)| (a.as_str(), s.as_str())),
    )
    .expect("ids resolve");

    // One layer's daily series on the mining driver.
    let daily = |cfg: PipelineConfig| -> DailySeries {
        let run = daily_series(store, 7, &service_ids, &cfg, &pair_ref, &svc_ref).unwrap();
        run.l1.or(run.l2).or(run.l3).unwrap()
    };

    println!(
        "reference: {} pairs, {} app-service",
        pair_ref.len(),
        svc_ref.len()
    );

    // --- L3 (paper: TP 141-152 weekday / 116-117 weekend; FP 7-11 / 5).
    let l3cfg = L3Config::with_stop_patterns(standard_stop_patterns());
    let s3 = daily(PipelineConfig {
        l3: Some(l3cfg),
        ..PipelineConfig::default()
    });
    println!("\nL3 (paper tp 141-152 wd, 116 we; fp 7-11; tpr ci [.93,.96]):");
    for d in &s3.days {
        println!(
            "  day {} tp {} fp {} fn {} tpr {:.3}",
            d.day, d.tp, d.fp, d.fn_, d.tpr
        );
    }
    let ci = s3.tpr_median_ci(0.984).unwrap();
    println!("  tpr median ci [{:.3},{:.3}]", ci.lower, ci.upper);

    // --- L2 (paper: tp 62-74 wd, 51/52 we; fp 21-25 / 19-21; ci [.71,.78]).
    let l2cfg = L2Config::default();
    let s2 = daily(PipelineConfig {
        l2: Some(l2cfg),
        ..PipelineConfig::default()
    });
    println!("\nL2 (paper tp 62-74 wd, ~51 we; fp 21-25; tpr ci [.71,.78]):");
    for d in &s2.days {
        println!(
            "  day {} tp {} fp {} fn {} tpr {:.3}",
            d.day, d.tp, d.fp, d.fn_, d.tpr
        );
    }
    let ci = s2.tpr_median_ci(0.984).unwrap();
    println!("  tpr median ci [{:.3},{:.3}]", ci.lower, ci.upper);

    // --- L1 (paper: tp 30-46, fp 11-22, tpr ci [.63,.73]).
    let sources = store.active_sources();
    // Near-miss diagnostics on day 0 with minlogs=25.
    {
        use logdep::l1::run_l1_pool;
        use logdep_logstore::time::TimeRange;
        let l1cfg = L1Config {
            minlogs: 25,
            seed: 7,
            ..L1Config::default()
        };
        let res = run_l1_pool(store, TimeRange::day(0), &sources, &l1cfg, &par).unwrap();
        let mut bands = [0usize; 5];
        for o in &res.outcomes {
            if o.support >= 8 {
                let b = ((o.pr * 5.0) as usize).min(4);
                bands[b] += 1;
            }
        }
        println!("\nL1 day0 pr bands (support>=8) [0-.2,.2-.4,.4-.6,.6-.8,.8-1]: {bands:?}");
        let tested: usize = res.outcomes.len();
        println!("pairs with any support: {tested}");
    }
    for minlogs in [15usize, 25, 40] {
        let l1cfg = L1Config {
            minlogs,
            seed: 7,
            ..L1Config::default()
        };
        let s1 = daily(PipelineConfig {
            l1: Some(l1cfg),
            ..PipelineConfig::default()
        });
        println!("\nL1 minlogs={minlogs} (paper tp 30-46; fp 11-22; tpr ci [.63,.73]):");
        for d in &s1.days {
            println!(
                "  day {} tp {} fp {} fn {} tpr {:.3}",
                d.day, d.tp, d.fp, d.fn_, d.tpr
            );
        }
    }
}
