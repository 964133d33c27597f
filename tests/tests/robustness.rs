//! Robustness studies: collection interruptions, clock-skew stress and
//! the server-timestamp trap (§4.2/§5 of the paper).

use logdep::l3::{run_l3_pool, L3Config};
use logdep::model::{diff, AppServiceModel};
use logdep::par::ParConfig;
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, NoiseConfig, SimConfig};

fn mine_l3(out: &logdep_sim::SimOutput) -> (AppServiceModel, AppServiceModel) {
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
    let detected = run_l3_pool(
        &out.store,
        TimeRange::new(Millis(0), Millis::from_days(3)),
        &ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3")
    .detected;
    (detected, svc_ref)
}

#[test]
fn l3_survives_collection_interruptions() {
    let mut base_cfg = SimConfig::paper_week(13, 0.2);
    base_cfg.days = 2;
    let base = simulate(&base_cfg);
    assert_eq!(base.stats.dropped_logs, 0);

    let mut gappy_cfg = base_cfg.clone();
    gappy_cfg.noise = NoiseConfig {
        collection_gaps_per_day: 6,
        collection_gap_minutes: 15,
        ..NoiseConfig::paper_taxonomy()
    };
    let gappy = simulate(&gappy_cfg);
    assert!(
        gappy.stats.dropped_logs > 1_000,
        "gaps dropped only {} logs",
        gappy.stats.dropped_logs
    );
    assert!(gappy.store.len() < base.store.len());

    // §5's claim: interruption loses volume but not *information* —
    // repeated interactions are re-observed outside the gaps, so L3's
    // recall barely moves.
    let (d_base, ref_base) = mine_l3(&base);
    let (d_gappy, ref_gappy) = mine_l3(&gappy);
    let recall_base = diff(&d_base, &ref_base).recall();
    let recall_gappy = diff(&d_gappy, &ref_gappy).recall();
    assert!(
        recall_gappy > recall_base - 0.05,
        "collection gaps destroyed recall: {recall_gappy:.2} vs {recall_base:.2}"
    );
}

#[test]
fn extreme_clock_skew_degrades_l2_but_not_l3() {
    let mut cfg = SimConfig::paper_week(19, 0.2);
    cfg.days = 1;
    let normal = simulate(&cfg);

    let mut wild = cfg.clone();
    wild.noise.nt_skew_ms = 20_000; // 20 s — far beyond the paper's <1 s
    let skewed = simulate(&wild);

    // L2: on machines with heavy skew the caller/callee adjacency blows
    // past the timeout, so the *bigram evidence* on true pairs thins out
    // (about 30 % of hosts draw the full skew; the rest stay mild, so
    // pair-level detection is more resilient than the evidence mass).
    let l2cfg = logdep::l2::L2Config::default();
    let day = TimeRange::day(0);
    let pair_ref = logdep::PairModel::from_names(
        &normal.store.registry,
        normal
            .truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let true_mass = |out: &logdep_sim::SimOutput| -> u64 {
        let res =
            logdep::l2::run_l2_pool(&out.store, day, &l2cfg, &ParConfig::default()).expect("L2");
        res.bigrams
            .joint
            .iter()
            .filter(|(&(a, b), _)| pair_ref.contains(a, b))
            .map(|(_, &n)| n)
            .sum()
    };
    let mass_normal = true_mass(&normal);
    let mass_skewed = true_mass(&skewed);
    assert!(
        (mass_skewed as f64) < 0.9 * mass_normal as f64,
        "20 s skew should thin true-pair bigram mass: {mass_skewed} vs {mass_normal}"
    );

    // L3 ignores timestamps entirely (within-day granularity).
    let (d_norm, ref_norm) = mine_l3(&normal);
    let (d_skew, ref_skew) = mine_l3(&skewed);
    let r_norm = diff(&d_norm, &ref_norm).recall();
    let r_skew = diff(&d_skew, &ref_skew).recall();
    assert!((r_norm - r_skew).abs() < 0.05, "{r_norm:.2} vs {r_skew:.2}");
}

#[test]
fn server_timestamps_are_worse_for_l2_than_client_timestamps() {
    // §4.2: "due to client-side buffering for performance reasons, we
    // can not use the latter [server] timestamp". HUG's clients batch
    // aggressively; rebuild the store with server_ts in place of
    // client_ts under a realistic multi-second buffer and watch L2's
    // true-positive count collapse.
    let mut cfg = SimConfig::paper_week(29, 0.2);
    cfg.days = 1;
    cfg.noise.buffer_delay_ms = 15_000.0;
    let out = simulate(&cfg);

    let mut swapped = logdep_logstore::LogStore::with_registry(out.store.registry.clone());
    for r in out.store.records() {
        let mut r2 = r.to_record(&out.store);
        r2.client_ts = r.server_ts;
        swapped.push(r2);
    }
    swapped.finalize();

    let pair_ref = logdep::PairModel::from_names(
        &out.store.registry,
        out.truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let l2cfg = logdep::l2::L2Config::default();
    let day = TimeRange::day(0);
    let tp = |store: &logdep_logstore::LogStore| {
        let res = logdep::l2::run_l2_pool(store, day, &l2cfg, &ParConfig::default()).expect("L2");
        logdep::diff(&res.detected, &pair_ref).tp()
    };
    let tp_client = tp(&out.store);
    let tp_server = tp(&swapped);
    assert!(
        tp_server * 4 < tp_client * 3,
        "heavily buffered server timestamps should lose a substantial share \
         of true pairs: {tp_server} vs {tp_client}"
    );
}
