//! Diagnostic scratchpad for the Figure 9 load experiment: compares a
//! night hour and a peak hour in detail.

use logdep::l1::{run_l1_pool, L1Config};
use logdep::l3::run_l3_pool;
use logdep::par::ParConfig;
use logdep::PairModel;
use logdep_bench::workbench::{cli_seed_scale, Workbench};
use logdep_logstore::time::TimeRange;
use std::collections::BTreeSet;

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let excluded: BTreeSet<_> = wb.excluded.iter().copied().collect();
    let l1cfg = L1Config {
        minlogs: 10,
        ..wb.l1_config()
    };

    for (label, day, hour) in [("night", 1i64, 3i64), ("peak", 1, 10)] {
        let range = TimeRange::hour_of_day(day, hour);
        let n_logs = wb.out.store.range(range).len();
        let l3 = run_l3_pool(&wb.out.store, range, &wb.service_ids, &wb.l3_config(), &par).unwrap();
        let mut oracle = PairModel::new();
        for (app, svc) in l3.detected.iter() {
            if excluded.contains(&app) {
                continue;
            }
            let owner = wb.owners[svc];
            if app != owner && wb.pair_ref.contains(app, owner) {
                oracle.insert(app, owner);
            }
        }
        let sources: Vec<_> = oracle
            .iter()
            .flat_map(|(a, b)| [a, b])
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let l1 = run_l1_pool(&wb.out.store, range, &sources, &l1cfg, &par).unwrap();
        let mut testable = 0;
        let mut found = 0;
        for (a, b) in oracle.iter() {
            let ca = wb.out.store.timeline(a).count_in(range);
            let cb = wb.out.store.timeline(b).count_in(range);
            if ca >= l1cfg.minlogs && cb >= l1cfg.minlogs {
                testable += 1;
            }
            if l1.detected.contains(a, b) {
                found += 1;
            }
        }
        println!(
            "{label}: logs={n_logs} oracle={} testable={} found={} p1={:.2} p1|testable={:.2}",
            oracle.len(),
            testable,
            found,
            found as f64 / oracle.len().max(1) as f64,
            found as f64 / testable.max(1) as f64,
        );
        // Distribution of per-app hourly counts among oracle apps.
        let mut counts: Vec<usize> = sources
            .iter()
            .map(|&s| wb.out.store.timeline(s).count_in(range))
            .collect();
        counts.sort_unstable();
        println!("  oracle app hourly counts: {counts:?}");
    }
}
