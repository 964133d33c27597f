//! Fault-injection controls: with the noise switched off, technique L3
//! reaches (near-)perfect precision, and each §4.8 noise category
//! reappears when its knob alone is turned back on.

use logdep::l3::{run_l3_pool, L3Config};
use logdep::model::{diff, AppServiceModel};
use logdep::par::ParConfig;
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, NoiseConfig, SimConfig};

fn run_week(noise: NoiseConfig) -> (logdep_sim::SimOutput, AppServiceModel, Vec<String>) {
    let mut cfg = SimConfig::paper_week(17, 0.15);
    cfg.days = 3;
    cfg.noise = noise;
    let out = simulate(&cfg);
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
    (out, svc_ref, ids)
}

fn l3_diff(
    out: &logdep_sim::SimOutput,
    svc_ref: &AppServiceModel,
    ids: &[String],
) -> logdep::Diff<(logdep_logstore::SourceId, usize)> {
    let range = TimeRange::new(Millis(0), Millis::from_days(4));
    let res = run_l3_pool(
        &out.store,
        range,
        ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3");
    diff(&res.detected, svc_ref)
}

#[test]
fn clean_system_yields_no_false_positives() {
    let (out, svc_ref, ids) = run_week(NoiseConfig::clean());
    let d = l3_diff(&out, &svc_ref, &ids);
    assert_eq!(
        d.fp(),
        0,
        "clean run produced false positives: {:?}",
        d.false_pos
    );
    // Misses can only be dormant edges (clean() keeps the frequency
    // tiers) — and clean() marks none as dormant-specific noise, so
    // every false negative must be an unrealized edge.
    for (app, svc) in &d.false_neg {
        let app_name = out.store.registry.source_name(*app);
        let realized: u32 = out
            .topology
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| out.topology.apps[e.caller].name == app_name && e.service == *svc)
            .map(|(i, _)| out.stats.realized.iter().map(|day| day[i]).sum::<u32>())
            .sum();
        assert_eq!(realized, 0, "realized dependency missed by clean L3");
    }
}

#[test]
fn coincidence_knob_reintroduces_its_false_positives() {
    let noise = NoiseConfig {
        coincidence_pairs: 6,
        coincidence_rate_per_day: 3.0,
        ..NoiseConfig::clean()
    };
    let (out, svc_ref, ids) = run_week(noise);
    let d = l3_diff(&out, &svc_ref, &ids);
    assert!(
        d.fp() >= 3,
        "coincidence noise produced too few false positives: {}",
        d.fp()
    );
}

#[test]
fn unlogged_knob_creates_false_negatives() {
    let noise = NoiseConfig {
        unlogged_apps: 3,
        unlogged_edges: 6,
        ..NoiseConfig::clean()
    };
    let (out, svc_ref, ids) = run_week(noise);
    let d = l3_diff(&out, &svc_ref, &ids);
    let unlogged_missed = d
        .false_neg
        .iter()
        .filter(|(app, svc)| {
            out.truth.uncited.contains(&(
                out.store.registry.source_name(*app).to_owned(),
                ids[*svc].clone(),
            ))
        })
        .count();
    assert!(
        unlogged_missed >= 5,
        "unlogged edges were somehow detected: {unlogged_missed} of 6 missed"
    );
}

#[test]
fn renamed_knob_is_invisible_to_whole_word_matching() {
    let noise = NoiseConfig {
        renamed_edges: 3,
        ..NoiseConfig::clean()
    };
    let (out, svc_ref, ids) = run_week(noise);
    let d = l3_diff(&out, &svc_ref, &ids);
    // The renamed service ids (X2) are never cited — the callers keep
    // citing X, which whole-word matching refuses to bind to X2.
    let renamed_missed = d
        .false_neg
        .iter()
        .filter(|(app, svc)| {
            out.truth.uncited.contains(&(
                out.store.registry.source_name(*app).to_owned(),
                ids[*svc].clone(),
            ))
        })
        .count();
    assert_eq!(renamed_missed, 3);
}

#[test]
fn leaky_server_knob_creates_inverted_dependencies() {
    let noise = NoiseConfig {
        leaky_server_templates: 3,
        server_citing_fraction: 0.8,
        ..NoiseConfig::clean()
    };
    let (out, svc_ref, ids) = run_week(noise);
    let d = l3_diff(&out, &svc_ref, &ids);
    let owners: Vec<String> = out
        .topology
        .services
        .iter()
        .map(|s| out.topology.apps[s.owner].name.clone())
        .collect();
    let inverted = d
        .false_pos
        .iter()
        .filter(|(app, svc)| out.store.registry.source_name(*app) == owners[*svc])
        .count();
    assert!(inverted >= 1, "no inverted dependency from leaky templates");
}
