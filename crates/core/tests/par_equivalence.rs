//! Differential conformance: parallel mining ≡ serial mining, bit for
//! bit.
//!
//! Runs the full L1 + L2 + L3 + ensemble pipeline over a seeded
//! simulated landscape at pool widths 1, 2, 3 and 8 and asserts that a
//! canonical serialization of every result — detected edge sets,
//! per-pair scores and confidence statistics, bigram contingency
//! tables, citation counts, orderings — is **byte-identical** to the
//! `threads = 1` baseline. The serial path is literally the plain
//! loop, so this pins the parallel engine to the reference semantics;
//! any scheduling leak (unordered merge, non-associative fold,
//! iteration-order dependence) shows up as a diff here.
//!
//! Floats are rendered with `{:?}` (shortest round-trip), so even a
//! last-ulp difference from a reordered accumulation fails the test.

use logdep::health::{run_pipeline, PipelineConfig, PipelineOutcome};
use logdep::l1::{run_l1_pool, L1Config, L1Result};
use logdep::l2::{run_l2_pool, L2Config, L2Result};
use logdep::l3::{run_l3_pool, L3Config, L3Result};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, Millis};
use logdep_par::ParConfig;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};
use std::fmt::Write as _;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

struct Landscape {
    store: LogStore,
    service_ids: Vec<String>,
    range: TimeRange,
}

fn landscape() -> Landscape {
    let mut cfg = SimConfig::paper_week(11, 0.2);
    cfg.days = 2;
    let out = simulate(&cfg);
    let service_ids = out.directory.ids().iter().map(|s| s.to_string()).collect();
    Landscape {
        store: out.store,
        service_ids,
        range: TimeRange::new(Millis(0), Millis::from_days(2)),
    }
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
    let mut joint: Vec<_> = res.bigrams.joint.iter().collect();
    joint.sort();
    for (k, v) in joint {
        let _ = writeln!(s, "joint {k:?} {v}");
    }
    let mut first: Vec<_> = res.bigrams.first_margin.iter().collect();
    first.sort();
    for (k, v) in first {
        let _ = writeln!(s, "first {k:?} {v}");
    }
    let mut second: Vec<_> = res.bigrams.second_margin.iter().collect();
    second.sort();
    for (k, v) in second {
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

/// Everything scientific in a pipeline outcome, health rows included.
fn pipeline_snapshot(out: &PipelineOutcome) -> String {
    let mut s = String::new();
    for model in [&out.l1_pairs, &out.l2_pairs, &out.l3_pairs] {
        match model {
            Some(p) => {
                for (a, b) in p.iter() {
                    let _ = writeln!(s, "edge {a:?} {b:?}");
                }
            }
            None => s.push_str("absent\n"),
        }
    }
    if let Some(m) = &out.l3_deps {
        for (app, svc) in m.iter() {
            let _ = writeln!(s, "dep {app:?} -> {svc}");
        }
    }
    for ((a, b), support) in out.ensemble.iter() {
        let _ = writeln!(s, "vote {a:?} {b:?} {support:?}");
    }
    for h in &out.health {
        let _ = writeln!(s, "health {h:?}");
    }
    s
}

#[allow(
    clippy::expect_used,
    reason = "test helper: every width in `WIDTHS` is nonzero"
)]
fn widths() -> impl Iterator<Item = (usize, ParConfig)> {
    WIDTHS
        .into_iter()
        .map(|n| (n, ParConfig::with_threads(n).expect("widths are >= 1")))
}

#[test]
fn l1_is_bit_identical_at_every_thread_count() {
    let land = landscape();
    let sources = land.store.active_sources();
    let cfg = L1Config {
        minlogs: 15,
        seed: 7,
        ..L1Config::default()
    };
    let mut baseline: Option<String> = None;
    for (n, par) in widths() {
        let res = run_l1_pool(&land.store, land.range, &sources, &cfg, &par).expect("l1 runs");
        assert!(!res.outcomes.is_empty(), "landscape produced L1 evidence");
        let snap = l1_snapshot(&res);
        match &baseline {
            None => baseline = Some(snap),
            Some(b) => assert_eq!(&snap, b, "L1 differs at {n} threads"),
        }
    }
}

#[test]
fn l2_is_bit_identical_at_every_thread_count() {
    let land = landscape();
    let cfg = L2Config::default();
    let mut baseline: Option<String> = None;
    for (n, par) in widths() {
        let res = run_l2_pool(&land.store, land.range, &cfg, &par).expect("l2 runs");
        assert!(res.bigrams.total > 0, "landscape produced bigrams");
        let snap = l2_snapshot(&res);
        match &baseline {
            None => baseline = Some(snap),
            Some(b) => assert_eq!(&snap, b, "L2 differs at {n} threads"),
        }
    }
}

#[test]
fn l3_is_bit_identical_at_every_thread_count() {
    let land = landscape();
    let cfg = L3Config::with_stop_patterns(standard_stop_patterns());
    let mut baseline: Option<String> = None;
    for (n, par) in widths() {
        let res =
            run_l3_pool(&land.store, land.range, &land.service_ids, &cfg, &par).expect("l3 runs");
        assert!(!res.detected.is_empty(), "landscape produced citations");
        let snap = l3_snapshot(&res);
        match &baseline {
            None => baseline = Some(snap),
            Some(b) => assert_eq!(&snap, b, "L3 differs at {n} threads"),
        }
    }
}

#[test]
fn full_pipeline_is_bit_identical_at_every_thread_count() {
    let land = landscape();
    let mut baseline: Option<String> = None;
    for (n, par) in widths() {
        let cfg = PipelineConfig {
            l1: Some(L1Config {
                minlogs: 15,
                seed: 7,
                ..L1Config::default()
            }),
            l2: Some(L2Config::default()),
            l3: Some(L3Config::with_stop_patterns(standard_stop_patterns())),
            par,
        };
        let out =
            run_pipeline(&land.store, land.range, &land.service_ids, None, &cfg).expect("pipeline");
        assert!(out.fully_healthy(), "health: {:?}", out.health);
        let snap = pipeline_snapshot(&out);
        match &baseline {
            None => baseline = Some(snap),
            Some(b) => assert_eq!(&snap, b, "pipeline differs at {n} threads"),
        }
    }
}
