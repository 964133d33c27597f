//! Integration tests of the §5 extension implementations on simulated
//! data: direction detection, delay analysis, adaptive slots, the
//! load-proportional reference, the dependency graph, and landscape
//! evolution.

use logdep::evolution::churn;
use logdep::graph::DependencyGraph;
use logdep::l1::{adaptive_slots, run_l1_slots_pool, AdaptiveConfig, L1Config};
use logdep::l2::{delay_profiles, detect_directions, run_l2_pool, DelayConfig, DirectionConfig};
use logdep::l3::{run_l3_pool, L3Config};
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{Millis, SourceId};
use logdep_sessions::reconstruct_range;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::topology::Topology;
use logdep_sim::{simulate, simulate_with, NoiseConfig, SimConfig, TopologyConfig};
use std::collections::BTreeMap;

fn one_day() -> logdep_sim::SimOutput {
    let mut cfg = SimConfig::paper_week(77, 0.3);
    cfg.days = 1;
    simulate(&cfg)
}

#[test]
fn direction_detection_mostly_agrees_with_ground_truth() {
    let out = one_day();
    let day = TimeRange::day(0);
    let l2cfg = logdep::l2::L2Config::default();
    let l2 = run_l2_pool(&out.store, day, &l2cfg, &ParConfig::default()).expect("L2");
    let sessions = reconstruct_range(&out.store, day, &l2cfg.session);

    let mut true_caller: BTreeMap<(SourceId, SourceId), SourceId> = BTreeMap::new();
    for e in &out.topology.edges {
        let caller = out
            .store
            .registry
            .find_source(&out.topology.apps[e.caller].name)
            .expect("registered");
        let owner = out
            .store
            .registry
            .find_source(&out.topology.apps[out.topology.services[e.service].owner].name)
            .expect("registered");
        if caller != owner {
            true_caller.insert((caller.min(owner), caller.max(owner)), caller);
        }
    }

    let pairs: Vec<_> = l2.detected.iter().collect();
    let directions = detect_directions(&sessions.sessions, &pairs, &DirectionConfig::default());
    let mut decided = 0;
    let mut correct = 0;
    for d in &directions {
        if let (Some(c), Some(&truth)) = (d.caller, true_caller.get(&(d.a, d.b))) {
            decided += 1;
            if c == truth {
                correct += 1;
            }
        }
    }
    assert!(decided >= 10, "too few decided directions: {decided}");
    assert!(
        correct * 10 >= decided * 8,
        "direction accuracy too low: {correct}/{decided}"
    );
}

#[test]
fn delay_analysis_separates_causal_from_concurrent() {
    let out = one_day();
    let day = TimeRange::day(0);
    let l2cfg = logdep::l2::L2Config::default();
    let l2 = run_l2_pool(&out.store, day, &l2cfg, &ParConfig::default()).expect("L2");
    let sessions = reconstruct_range(&out.store, day, &l2cfg.session);
    let pair_ref = PairModel::from_names(
        &out.store.registry,
        out.truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let diff = diff(&l2.detected, &pair_ref);

    let mut types = Vec::new();
    for &(a, b) in diff.true_pos.iter().chain(diff.false_pos.iter()) {
        types.push((a, b));
        types.push((b, a));
    }
    let profiles = delay_profiles(&sessions.sessions, &types, &DelayConfig::default())
        .expect("the default delay config is valid");
    let causal = |pair: &(SourceId, SourceId)| {
        profiles
            .iter()
            .filter(|p| {
                (p.first == pair.0 && p.second == pair.1)
                    || (p.first == pair.1 && p.second == pair.0)
            })
            .any(|p| p.causal)
    };
    let tp_rate =
        diff.true_pos.iter().filter(|p| causal(p)).count() as f64 / diff.tp().max(1) as f64;
    let fp_rate =
        diff.false_pos.iter().filter(|p| causal(p)).count() as f64 / diff.fp().max(1) as f64;
    assert!(
        tp_rate > fp_rate + 0.15,
        "delay analysis does not separate: tp {tp_rate:.2} vs fp {fp_rate:.2}"
    );
}

#[test]
fn adaptive_slots_cover_the_range_and_find_pairs() {
    let out = one_day();
    let day = TimeRange::day(0);
    let cfg = AdaptiveConfig {
        min_slot_ms: 60 * 60 * 1_000,
        ..AdaptiveConfig::default()
    };
    let slots = adaptive_slots(&out.store, day, &cfg).expect("slots");
    assert!(!slots.is_empty());
    assert_eq!(slots[0].start, day.start);
    assert_eq!(slots.last().unwrap().end, day.end);
    for w in slots.windows(2) {
        assert_eq!(w[0].end, w[1].start);
    }
    // And they drive L1 to a non-trivial result.
    let pair_ref = PairModel::from_names(
        &out.store.registry,
        out.truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let l1cfg = L1Config {
        minlogs: 12,
        seed: 4,
        ..L1Config::default()
    };
    let sources = out.store.active_sources();
    let res =
        run_l1_slots_pool(&out.store, &slots, &sources, &l1cfg, &ParConfig::default()).expect("L1");
    let d = diff(&res.detected, &pair_ref);
    assert!(d.tp() >= 5, "adaptive L1 found only {} pairs", d.tp());
}

#[test]
fn graph_applications_on_mined_model() {
    let out = one_day();
    let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let res = run_l3_pool(
        &out.store,
        TimeRange::day(0),
        &ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3");
    let owners: Vec<_> = out
        .topology
        .services
        .iter()
        .map(|s| {
            out.store
                .registry
                .find_source(&out.topology.apps[s.owner].name)
                .expect("registered")
        })
        .collect();
    let graph = DependencyGraph::from_app_service(&res.detected, &owners);
    assert!(graph.n_edges() > 50);

    let ranking = graph.criticality();
    assert!(ranking[0].1 > ranking.last().unwrap().1);
    // The most critical node's impact set is consistent with reverse
    // reachability: each impacted app requires the critical one.
    let (critical, _) = ranking[0];
    for app in graph.impact_set(critical) {
        assert!(
            graph.requirement_set(app).contains(&critical),
            "impact/requirement asymmetry"
        );
    }
}

#[test]
fn landscape_evolution_is_detected_by_remining() {
    let mut cfg = SimConfig::paper_week(55, 0.2);
    cfg.days = 2;
    let topo1 = Topology::generate(
        &TopologyConfig::hug_like(),
        &NoiseConfig::paper_taxonomy(),
        cfg.seed,
    );
    let week1 = simulate_with(&cfg, topo1.clone());
    let topo2 = topo1.evolve(8, 5, 42);
    let week2 = simulate_with(&cfg, topo2.clone());

    let ids: Vec<String> = week1
        .directory
        .ids()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let l3cfg = L3Config::with_stop_patterns(standard_stop_patterns());
    let range = TimeRange::new(Millis(0), Millis::from_days(3));
    let m1 = run_l3_pool(&week1.store, range, &ids, &l3cfg, &ParConfig::default())
        .expect("L3")
        .detected;
    let m2 = run_l3_pool(&week2.store, range, &ids, &l3cfg, &ParConfig::default())
        .expect("L3")
        .detected;

    let churn = churn(&m1, &m2);
    assert!(
        churn.stability() > 0.75,
        "stability {:.2}",
        churn.stability()
    );
    assert!(
        churn.appeared.len() >= 5,
        "added edges not surfaced: {}",
        churn.appeared.len()
    );
    assert!(
        churn.disappeared.len() >= 3,
        "removed edges not surfaced: {}",
        churn.disappeared.len()
    );
}

#[test]
fn ensemble_agreement_is_a_precision_signal() {
    use logdep::ensemble::{app_service_to_pairs, Ensemble};
    use logdep::l1::{run_l1_pool, L1Config};
    use logdep::l2::run_l2_pool;

    let out = one_day();
    let day = TimeRange::day(0);
    let pair_ref = PairModel::from_names(
        &out.store.registry,
        out.truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("names resolve");
    let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let owners: Vec<SourceId> = out
        .topology
        .services
        .iter()
        .map(|s| {
            out.store
                .registry
                .find_source(&out.topology.apps[s.owner].name)
                .expect("registered")
        })
        .collect();

    let sources = out.store.active_sources();
    let l1 = run_l1_pool(
        &out.store,
        day,
        &sources,
        &L1Config {
            minlogs: 12,
            seed: 3,
            ..L1Config::default()
        },
        &ParConfig::default(),
    )
    .expect("L1");
    let l2 = run_l2_pool(
        &out.store,
        day,
        &logdep::l2::L2Config::default(),
        &ParConfig::default(),
    )
    .expect("L2");
    let l3 = run_l3_pool(
        &out.store,
        day,
        &ids,
        &L3Config::with_stop_patterns(standard_stop_patterns()),
        &ParConfig::default(),
    )
    .expect("L3");
    let l3_pairs = app_service_to_pairs(&l3.detected, &owners);

    let ensemble = Ensemble::combine(&l1.detected, &l2.detected, &l3_pairs);
    let precision = |m: &PairModel| diff(m, &pair_ref).true_positive_ratio();
    let p1 = precision(&ensemble.at_least(1));
    let p2 = precision(&ensemble.at_least(2));
    assert!(
        p2 >= p1,
        "agreement should not hurt precision: ≥2 votes {p2:.2} vs ≥1 vote {p1:.2}"
    );
    assert!(ensemble.at_least(2).len() >= 20, "enough agreed pairs");
    // Three-way agreement, when present, is essentially always real.
    let three = ensemble.at_least(3);
    if three.len() >= 10 {
        assert!(precision(&three) > 0.9, "unanimous pairs should be real");
    }
}
