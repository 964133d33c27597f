//! Differential conformance of the evidence cache: cached mining ≡
//! batch mining, bit for bit, at every cache state.
//!
//! For each cached technique (L1, L3) the canonical snapshot of the
//! cached runner's result is compared byte-for-byte against the batch
//! runner's on the same simulated landscape — cold (empty cache), warm
//! (every entry hits), after a surgical one-range invalidation, and
//! after a JSON persistence round trip; the driver's uncached L2 is
//! compared likewise. A one-day window advance must hit on every
//! interior day and still match a fresh-cache run exactly. Floats are
//! rendered with `{:?}` (shortest round trip), so even a last-ulp drift
//! from replaying cached evidence fails the test.

use logdep::cache::{l1_fingerprint, l2_fingerprint, l3_fingerprint, run_l1_cached, EvidenceCache};
use logdep::health::PipelineConfig;
use logdep::l1::{run_l1_pool, L1Config, L1Result};
use logdep::l2::{run_l2_pool, L2Config, L2Result};
use logdep::l3::{run_l3_pool, L3Config, L3Result};
use logdep::window::{run_l2_windowed_cached, run_l3_windowed_cached, run_window_cached};
use logdep_logstore::time::{TimeRange, MS_PER_HOUR};
use logdep_logstore::{LogStore, Millis};
use logdep_par::ParConfig;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};
use std::fmt::Write as _;

const WIDTHS: [usize; 2] = [1, 4];

struct Landscape {
    store: LogStore,
    service_ids: Vec<String>,
}

fn landscape(days: u32) -> Landscape {
    let mut cfg = SimConfig::paper_week(11, 0.2);
    cfg.days = days;
    let out = simulate(&cfg);
    let service_ids = out.directory.ids().iter().map(|s| s.to_string()).collect();
    Landscape {
        store: out.store,
        service_ids,
    }
}

#[allow(
    clippy::expect_used,
    reason = "test helper: every width passed in is nonzero"
)]
fn pool(threads: usize) -> ParConfig {
    ParConfig::with_threads(threads).expect("nonzero width")
}

fn l1_snapshot(res: &L1Result) -> String {
    let mut s = format!("n_slots {}\n", res.n_slots);
    for (a, b) in res.detected.iter() {
        let _ = writeln!(s, "edge {a:?} {b:?}");
    }
    for o in &res.outcomes {
        let _ = writeln!(
            s,
            "pair {:?} {:?} support {} positives {} pr {:?} dependent {}",
            o.a, o.b, o.support, o.positives, o.pr, o.dependent
        );
    }
    s
}

fn l2_snapshot(res: &L2Result) -> String {
    let mut s = String::new();
    for (a, b) in res.detected.iter() {
        let _ = writeln!(s, "edge {a:?} {b:?}");
    }
    for o in &res.outcomes {
        let _ = writeln!(
            s,
            "type {:?} {:?} joint {} stat {:?} p {:?} sig {}",
            o.first, o.second, o.joint, o.statistic, o.p_value, o.significant
        );
    }
    for (k, v) in res.bigrams.joint.iter() {
        let _ = writeln!(s, "joint {k:?} {v}");
    }
    for (k, v) in res.bigrams.first_margin.iter() {
        let _ = writeln!(s, "first {k:?} {v}");
    }
    for (k, v) in res.bigrams.second_margin.iter() {
        let _ = writeln!(s, "second {k:?} {v}");
    }
    let _ = writeln!(s, "total {}", res.bigrams.total);
    let _ = writeln!(s, "sessions {:?}", res.session_stats);
    s
}

fn l3_snapshot(res: &L3Result) -> String {
    let mut s = String::new();
    for (app, svc) in res.detected.iter() {
        let _ = writeln!(s, "dep {app:?} -> {svc}");
    }
    let mut cites: Vec<_> = res.citations.iter().collect();
    cites.sort();
    for ((app, svc), n) in cites {
        let _ = writeln!(s, "cite {app:?} {svc} {n}");
    }
    let _ = writeln!(
        s,
        "stopped {} scanned {}",
        res.stopped_logs, res.scanned_logs
    );
    s
}

fn l1_cfg() -> L1Config {
    L1Config {
        minlogs: 30,
        seed: 7,
        ..L1Config::default()
    }
}

fn l3_cfg() -> L3Config {
    L3Config::with_stop_patterns(standard_stop_patterns())
}

#[test]
fn l1_cached_matches_batch_cold_warm_and_after_invalidation() {
    let land = landscape(2);
    let sources = land.store.active_sources();
    let range = TimeRange::new(Millis(0), Millis::from_days(2));
    let cfg = l1_cfg();

    for threads in WIDTHS {
        let par = pool(threads);
        let batch = l1_snapshot(&run_l1_pool(&land.store, range, &sources, &cfg, &par).unwrap());

        let mut cache = EvidenceCache::new();
        let cold = run_l1_cached(&land.store, range, &sources, &cfg, &par, &mut cache).unwrap();
        assert_eq!(l1_snapshot(&cold), batch, "cold, threads {threads}");
        assert_eq!(cache.stats().l1_hits, 0);
        assert_eq!(cache.stats().l1_misses, 48);

        cache.reset_stats();
        let warm = run_l1_cached(&land.store, range, &sources, &cfg, &par, &mut cache).unwrap();
        assert_eq!(l1_snapshot(&warm), batch, "warm, threads {threads}");
        assert_eq!(cache.stats().l1_hits, 48);
        assert_eq!(cache.stats().l1_misses, 0);

        // Knock out one interior slot; only it may recompute, and the
        // combined result must not move a byte.
        cache.reset_stats();
        let hole = TimeRange::new(Millis(5 * MS_PER_HOUR), Millis(6 * MS_PER_HOUR));
        assert_eq!(cache.invalidate_overlapping(hole), 1);
        let patched = run_l1_cached(&land.store, range, &sources, &cfg, &par, &mut cache).unwrap();
        assert_eq!(l1_snapshot(&patched), batch, "patched, threads {threads}");
        assert_eq!(cache.stats().l1_hits, 47);
        assert_eq!(cache.stats().l1_misses, 1);
    }
}

/// L2 has no cache layer: the driver's L2 is the batch runner's, byte
/// for byte, at every width, on an empty cache and on a rolling one
/// that holds the previous window's L3 evidence. The forwarder kept for
/// old callers neither reads nor writes the cache.
#[test]
fn l2_windowed_matches_batch_cold_and_warm() {
    let land = landscape(3);
    let cfg = L2Config::default();
    let w0 = TimeRange::new(Millis(0), Millis::from_days(2));
    let w1 = TimeRange::new(Millis::from_days(1), Millis::from_days(3));

    for threads in [1, 2, 3, 8] {
        let pcfg = PipelineConfig {
            l1: None,
            l2: Some(cfg.clone()),
            l3: Some(l3_cfg()),
            par: pool(threads),
        };
        let batch = l2_snapshot(&run_l2_pool(&land.store, w1, &cfg, &pool(threads)).unwrap());
        let driver_l2 = |cache: &mut EvidenceCache| {
            let out = run_window_cached(&land.store, w1, &land.service_ids, &pcfg, cache).unwrap();
            l2_snapshot(out.l2.as_ref().unwrap())
        };

        assert_eq!(
            driver_l2(&mut EvidenceCache::new()),
            batch,
            "cold, threads {threads}"
        );

        let mut rolling = EvidenceCache::new();
        run_window_cached(&land.store, w0, &land.service_ids, &pcfg, &mut rolling).unwrap();
        rolling.reset_stats();
        assert_eq!(driver_l2(&mut rolling), batch, "rolling, threads {threads}");
        assert_eq!(rolling.stats().l3_hits, 1, "threads {threads}");

        let entries = rolling.len();
        rolling.reset_stats();
        let forwarded = run_l2_windowed_cached(&land.store, w1, &cfg, &mut rolling).unwrap();
        assert_eq!(
            l2_snapshot(&forwarded),
            batch,
            "forwarder, threads {threads}"
        );
        assert_eq!(rolling.len(), entries);
        assert_eq!(rolling.stats(), Default::default());
    }
}

#[test]
fn l3_windowed_matches_batch_cold_and_warm() {
    let land = landscape(2);
    let range = TimeRange::new(Millis(0), Millis::from_days(2));
    let cfg = l3_cfg();

    for threads in WIDTHS {
        let batch = l3_snapshot(
            &run_l3_pool(&land.store, range, &land.service_ids, &cfg, &pool(threads)).unwrap(),
        );

        let mut cache = EvidenceCache::new();
        let cold = run_l3_windowed_cached(&land.store, range, &land.service_ids, &cfg, &mut cache)
            .unwrap();
        assert_eq!(l3_snapshot(&cold), batch, "cold, threads {threads}");
        assert_eq!(cache.stats().l3_misses, 2);

        cache.reset_stats();
        let warm = run_l3_windowed_cached(&land.store, range, &land.service_ids, &cfg, &mut cache)
            .unwrap();
        assert_eq!(l3_snapshot(&warm), batch, "warm, threads {threads}");
        assert_eq!(cache.stats().l3_hits, 2);
        assert_eq!(cache.stats().l3_misses, 0);
    }
}

/// Asserts every fingerprint in `prints` is distinct — i.e. each config
/// mutation produced a different cache key. `labels[i]` names the field
/// mutated to produce `prints[i]`.
fn assert_all_distinct(labels: &[&str], prints: &[u64]) {
    let named: Vec<_> = labels.iter().zip(prints).collect();
    for (i, (label_a, print_a)) in named.iter().enumerate() {
        for (label_b, print_b) in named.iter().skip(i + 1) {
            assert_ne!(
                print_a, print_b,
                "fingerprint ignores a config change: `{label_a}` vs `{label_b}` collide"
            );
        }
    }
}

/// Every L1Config field must reach the fingerprint: a change in any one
/// of them (or in the source set) must produce a different cache key,
/// or the cache would replay evidence computed under the old setting.
/// The `fingerprint-completeness` lint proves every field is *read* by
/// the digest; this proves each read actually *moves* the hash.
#[test]
fn l1_fingerprint_reflects_every_config_field() {
    use logdep::l1::{CenterStat, DecisionRule, DistanceKind, ReferenceProcess};
    use logdep_logstore::SourceId;

    let base = L1Config::default();
    let sources = [SourceId(0), SourceId(1)];
    let variants: Vec<(&str, L1Config)> = vec![
        ("base", base.clone()),
        (
            "slot_ms",
            L1Config {
                slot_ms: 1_234,
                ..base.clone()
            },
        ),
        (
            "minlogs",
            L1Config {
                minlogs: 31,
                ..base.clone()
            },
        ),
        (
            "th_pr",
            L1Config {
                th_pr: 0.61,
                ..base.clone()
            },
        ),
        (
            "th_s",
            L1Config {
                th_s: 0.29,
                ..base.clone()
            },
        ),
        (
            "ci_level",
            L1Config {
                ci_level: 0.9,
                ..base.clone()
            },
        ),
        (
            "sample_size",
            L1Config {
                sample_size: 351,
                ..base.clone()
            },
        ),
        (
            "seed",
            L1Config {
                seed: 8,
                ..base.clone()
            },
        ),
        (
            "distance",
            L1Config {
                distance: DistanceKind::Next,
                ..base.clone()
            },
        ),
        (
            "stat",
            L1Config {
                stat: CenterStat::Mean,
                ..base.clone()
            },
        ),
        (
            "two_sided",
            L1Config {
                two_sided: !base.two_sided,
                ..base.clone()
            },
        ),
        (
            "reference",
            L1Config {
                reference: ReferenceProcess::LoadProportional,
                ..base.clone()
            },
        ),
        (
            "decision",
            L1Config {
                decision: DecisionRule::RankSum { alpha: 0.05 },
                ..base.clone()
            },
        ),
    ];
    let labels: Vec<&str> = variants.iter().map(|(l, _)| *l).collect();
    let prints: Vec<u64> = variants
        .iter()
        .map(|(_, cfg)| l1_fingerprint(cfg, &sources))
        .collect();
    assert_all_distinct(&labels, &prints);

    // The decision rule's embedded alpha must be folded too.
    assert_ne!(
        l1_fingerprint(
            &L1Config {
                decision: DecisionRule::RankSum { alpha: 0.05 },
                ..base.clone()
            },
            &sources
        ),
        l1_fingerprint(
            &L1Config {
                decision: DecisionRule::RankSum { alpha: 0.01 },
                ..base.clone()
            },
            &sources
        ),
        "RankSum alpha ignored"
    );
    // And so must the source set — identity and order.
    assert_ne!(
        l1_fingerprint(&base, &sources),
        l1_fingerprint(&base, &[SourceId(0)]),
        "source set ignored"
    );
}

#[test]
fn l2_fingerprint_reflects_every_config_field() {
    use logdep_sessions::SessionConfig;
    use logdep_stats::contingency::AssociationStatistic;

    let base = L2Config::default();
    let variants: Vec<(&str, L2Config)> = vec![
        ("base", base.clone()),
        (
            "timeout_ms",
            L2Config {
                timeout_ms: Some(9_999),
                ..base.clone()
            },
        ),
        (
            "alpha",
            L2Config {
                alpha: base.alpha / 2.0,
                ..base.clone()
            },
        ),
        (
            "statistic",
            L2Config {
                statistic: AssociationStatistic::Pearson,
                ..base.clone()
            },
        ),
        (
            "min_joint",
            L2Config {
                min_joint: base.min_joint + 1,
                ..base.clone()
            },
        ),
        (
            "session.max_gap_ms",
            L2Config {
                session: SessionConfig {
                    max_gap_ms: 7,
                    ..base.session
                },
                ..base.clone()
            },
        ),
        (
            "session.min_logs",
            L2Config {
                session: SessionConfig {
                    min_logs: base.session.min_logs + 1,
                    ..base.session
                },
                ..base.clone()
            },
        ),
    ];
    let labels: Vec<&str> = variants.iter().map(|(l, _)| *l).collect();
    let prints: Vec<u64> = variants
        .iter()
        .map(|(_, cfg)| l2_fingerprint(cfg))
        .collect();
    assert_all_distinct(&labels, &prints);
}

#[test]
fn l3_fingerprint_reflects_every_config_field() {
    let base = l3_cfg();
    let ids: Vec<String> = vec!["UPSRV".into(), "AUTH".into()];
    let mut fewer_patterns = base.clone();
    fewer_patterns.stop_patterns.pop();
    let variants: Vec<(&str, L3Config)> = vec![
        ("base", base.clone()),
        ("stop_patterns", fewer_patterns),
        (
            "whole_word",
            L3Config {
                whole_word: !base.whole_word,
                ..base.clone()
            },
        ),
        (
            "min_citations",
            L3Config {
                min_citations: base.min_citations + 1,
                ..base.clone()
            },
        ),
    ];
    let labels: Vec<&str> = variants.iter().map(|(l, _)| *l).collect();
    let prints: Vec<u64> = variants
        .iter()
        .map(|(_, cfg)| l3_fingerprint(cfg, &ids))
        .collect();
    assert_all_distinct(&labels, &prints);

    // The directory id set is part of the key as well.
    assert_ne!(
        l3_fingerprint(&base, &ids),
        l3_fingerprint(&base, &ids[..1]),
        "service id set ignored"
    );
}

/// The headline property: advancing a 3-day window by one day hits on
/// the shared days in every cached layer (L1, L3) and still reproduces
/// the fresh-cache (hence batch) results byte for byte, L2 included.
#[test]
fn window_advance_hits_and_stays_byte_identical() {
    let land = landscape(4);
    let cfg = PipelineConfig {
        l1: Some(l1_cfg()),
        l2: Some(L2Config::default()),
        l3: Some(l3_cfg()),
        par: pool(4),
    };
    let w0 = TimeRange::new(Millis(0), Millis::from_days(3));
    let w1 = TimeRange::new(Millis::from_days(1), Millis::from_days(4));

    let mut rolling = EvidenceCache::new();
    run_window_cached(&land.store, w0, &land.service_ids, &cfg, &mut rolling).unwrap();
    let advanced =
        run_window_cached(&land.store, w1, &land.service_ids, &cfg, &mut rolling).unwrap();
    assert!(
        advanced.stats.l1_hits >= 48,
        "shared-day slots must hit: {:?}",
        advanced.stats
    );
    assert!(advanced.stats.l3_hits >= 2, "{:?}", advanced.stats);

    let mut fresh = EvidenceCache::new();
    let from_scratch =
        run_window_cached(&land.store, w1, &land.service_ids, &cfg, &mut fresh).unwrap();
    assert_eq!(
        l1_snapshot(advanced.l1.as_ref().unwrap()),
        l1_snapshot(from_scratch.l1.as_ref().unwrap())
    );
    assert_eq!(
        l2_snapshot(advanced.l2.as_ref().unwrap()),
        l2_snapshot(from_scratch.l2.as_ref().unwrap())
    );
    assert_eq!(
        l3_snapshot(advanced.l3.as_ref().unwrap()),
        l3_snapshot(from_scratch.l3.as_ref().unwrap())
    );

    // And the fresh-cache run matches the batch runners directly.
    let sources = land.store.active_sources();
    let batch_l1 = run_l1_pool(
        &land.store,
        w1,
        &sources,
        cfg.l1.as_ref().unwrap(),
        &cfg.par,
    );
    assert_eq!(
        l1_snapshot(from_scratch.l1.as_ref().unwrap()),
        l1_snapshot(&batch_l1.unwrap())
    );
    let batch_l2 = run_l2_pool(&land.store, w1, cfg.l2.as_ref().unwrap(), &cfg.par);
    assert_eq!(
        l2_snapshot(from_scratch.l2.as_ref().unwrap()),
        l2_snapshot(&batch_l2.unwrap())
    );
    let batch_l3 = run_l3_pool(
        &land.store,
        w1,
        &land.service_ids,
        cfg.l3.as_ref().unwrap(),
        &cfg.par,
    );
    assert_eq!(
        l3_snapshot(from_scratch.l3.as_ref().unwrap()),
        l3_snapshot(&batch_l3.unwrap())
    );
}
