//! End-to-end integration: simulator → log store → all three mining
//! techniques → evaluation, checking the qualitative results the paper
//! reports.

use logdep::eval::{daily_series, DailySeries};
use logdep::l1::{run_l1_pool, L1Config};
use logdep::l2::{run_l2_pool, L2Config};
use logdep::l3::{run_l3_pool, L3Config};
use logdep::model::{diff, AppServiceModel, PairModel};
use logdep::par::ParConfig;
use logdep::PipelineConfig;
use logdep_logstore::time::TimeRange;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig, SimOutput};

/// A shared quarter-scale week (built once; the tests read it).
fn week() -> &'static Fixture {
    use std::sync::OnceLock;
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let out = simulate(&SimConfig::paper_week(99, 0.25));
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
        Fixture {
            out,
            pair_ref,
            svc_ref,
            ids,
        }
    })
}

struct Fixture {
    out: SimOutput,
    pair_ref: PairModel,
    svc_ref: AppServiceModel,
    ids: Vec<String>,
}

fn l3_cfg() -> L3Config {
    L3Config::with_stop_patterns(standard_stop_patterns())
}

/// The week's L2 and L3 daily series, mined in one pass of the driver.
fn l2_l3_daily() -> &'static (DailySeries, DailySeries) {
    use std::sync::OnceLock;
    static SERIES: OnceLock<(DailySeries, DailySeries)> = OnceLock::new();
    SERIES.get_or_init(|| {
        let f = week();
        let cfg = PipelineConfig {
            l2: Some(L2Config::default()),
            l3: Some(l3_cfg()),
            ..PipelineConfig::default()
        };
        let run = daily_series(&f.out.store, 7, &f.ids, &cfg, &f.pair_ref, &f.svc_ref)
            .expect("L2 and L3 daily");
        (run.l2.expect("L2"), run.l3.expect("L3"))
    })
}

#[test]
fn l3_is_precise_and_covers_most_of_the_model() {
    let f = week();
    let series = &l2_l3_daily().1;
    for d in &series.days {
        assert!(d.tpr > 0.85, "day {} precision {:.2} too low", d.day, d.tpr);
        // Weekends realize fewer dependencies (rare edges go quiet), so
        // the recall floor is lower there — the very effect Figure 8
        // reports.
        let floor = if d.day == 4 || d.day == 5 { 6 } else { 7 };
        assert!(
            d.tp * 10 >= f.svc_ref.len() * floor,
            "day {} recall too low: {}/{}",
            d.day,
            d.tp,
            f.svc_ref.len()
        );
    }
}

#[test]
fn l2_finds_a_third_of_pairs_at_decent_precision() {
    let series = &l2_l3_daily().0;
    for d in &series.days {
        assert!(d.tpr > 0.5, "day {} precision {:.2}", d.day, d.tpr);
        assert!(d.tp >= 15, "day {} tp {} too low", d.day, d.tp);
    }
}

#[test]
fn l1_detects_strong_pairs_with_high_precision() {
    let f = week();
    let cfg = L1Config {
        minlogs: 10,
        seed: 5,
        ..L1Config::default()
    };
    let sources = f.out.store.active_sources();
    let res = run_l1_pool(
        &f.out.store,
        TimeRange::day(0),
        &sources,
        &cfg,
        &ParConfig::default(),
    )
    .expect("L1");
    let d = diff(&res.detected, &f.pair_ref);
    assert!(d.tp() >= 8, "only {} true pairs found", d.tp());
    assert!(
        d.true_positive_ratio() > 0.6,
        "precision {:.2}",
        d.true_positive_ratio()
    );
}

#[test]
fn technique_precision_ordering_matches_paper() {
    // §6: performance is "proportional to the amount of semantic
    // content of log messages considered": L3 ≥ L2 in precision.
    let (l2, l3) = l2_l3_daily();
    let mean = |s: &DailySeries| {
        let v = s.tpr_values();
        v.iter().sum::<f64>() / v.len() as f64
    };
    assert!(
        mean(l3) > mean(l2),
        "L3 {:.2} should beat L2 {:.2}",
        mean(l3),
        mean(l2)
    );
}

#[test]
fn weekend_activity_shrinks_detections_for_l2_and_l3() {
    let l3 = &l2_l3_daily().1;
    let weekday_avg: f64 = [0usize, 1, 2, 3, 6]
        .iter()
        .map(|&i| l3.days[i].tp as f64)
        .sum::<f64>()
        / 5.0;
    for &we in &[4usize, 5] {
        assert!(
            (l3.days[we].tp as f64) < weekday_avg,
            "weekend day {} should detect fewer: {} vs {weekday_avg}",
            we,
            l3.days[we].tp
        );
    }
}

#[test]
fn stop_patterns_remove_inverted_dependencies() {
    let f = week();
    let day = TimeRange::day(0);
    let with =
        run_l3_pool(&f.out.store, day, &f.ids, &l3_cfg(), &ParConfig::default()).expect("L3");
    let without = run_l3_pool(
        &f.out.store,
        day,
        &f.ids,
        &L3Config::default(),
        &ParConfig::default(),
    )
    .expect("L3");
    let owners: Vec<_> = f
        .out
        .topology
        .services
        .iter()
        .map(|s| {
            f.out
                .store
                .registry
                .find_source(&f.out.topology.apps[s.owner].name)
                .expect("registered")
        })
        .collect();
    let inverted = |detected: &AppServiceModel| {
        detected
            .iter()
            .filter(|&(app, svc)| owners[svc] == app)
            .count()
    };
    let v_with = inverted(&with.detected);
    let v_without = inverted(&without.detected);
    assert!(
        v_without >= v_with + 5,
        "stop patterns had no effect: {v_without} vs {v_with}"
    );
    assert!(with.stopped_logs > 0);
}

#[test]
fn full_week_union_beats_single_days_for_l3() {
    let f = week();
    let week_range = TimeRange::new(
        logdep_logstore::Millis(0),
        logdep_logstore::Millis::from_days(8),
    );
    let union = run_l3_pool(
        &f.out.store,
        week_range,
        &f.ids,
        &l3_cfg(),
        &ParConfig::default(),
    )
    .expect("L3");
    let day0 = run_l3_pool(
        &f.out.store,
        TimeRange::day(0),
        &f.ids,
        &l3_cfg(),
        &ParConfig::default(),
    )
    .expect("L3");
    let du = diff(&union.detected, &f.svc_ref);
    let d0 = diff(&day0.detected, &f.svc_ref);
    assert!(du.tp() >= d0.tp(), "union {} < day0 {}", du.tp(), d0.tp());
}

#[test]
fn l2_timeout_tradeoff_holds_on_simulated_data() {
    let f = week();
    let day = TimeRange::day(0);
    let strict = run_l2_pool(
        &f.out.store,
        day,
        &L2Config::with_timeout(Some(400)),
        &ParConfig::default(),
    )
    .expect("L2");
    let lax = run_l2_pool(
        &f.out.store,
        day,
        &L2Config::with_timeout(None),
        &ParConfig::default(),
    )
    .expect("L2");
    let ds = diff(&strict.detected, &f.pair_ref);
    let dl = diff(&lax.detected, &f.pair_ref);
    assert!(
        ds.true_positive_ratio() > dl.true_positive_ratio(),
        "strict {:.2} should beat lax {:.2} in precision",
        ds.true_positive_ratio(),
        dl.true_positive_ratio()
    );
    assert!(
        ds.tp() <= dl.tp(),
        "strict {} should not find more than lax {}",
        ds.tp(),
        dl.tp()
    );
}

#[test]
fn simulation_is_deterministic_across_processes() {
    // Two fresh simulations with the fixture's seed must agree with the
    // fixture itself (guards against global-state leakage).
    let again = simulate(&SimConfig::paper_week(99, 0.25));
    let f = week();
    assert_eq!(f.out.store.len(), again.store.len());
    assert_eq!(f.out.truth, again.truth);
    assert_eq!(
        f.out.store.records()[1000].to_record(&f.out.store),
        again.store.records()[1000].to_record(&again.store)
    );
}
