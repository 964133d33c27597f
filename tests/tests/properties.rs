//! Cross-crate property-based tests: invariants of the mining pipeline
//! that must hold for *any* log stream, not just simulated ones.

use logdep::l2::extract_bigrams;
use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{HostId, LogRecord, LogStore, Millis, SourceId, UserId};
use logdep_sessions::{reconstruct, Session, SessionConfig};
use proptest::prelude::*;

/// One generated log row: (timestamp, source, optional (user, host), text).
type LogRow = (i64, u8, Option<(u8, u8)>, String);

/// Strategy: an arbitrary small log stream with optional session keys.
fn log_rows() -> impl Strategy<Value = Vec<LogRow>> {
    prop::collection::vec(
        (
            0..86_400_000i64,
            0u8..8,
            prop::option::of((0u8..4, 0u8..4)),
            "[A-Za-z0-9 ()\\[\\]._-]{0,40}",
        ),
        0..120,
    )
}

fn build_store(rows: &[LogRow]) -> LogStore {
    let mut store = LogStore::new();
    // Pre-intern all source names so ids are stable.
    for i in 0..8u8 {
        store.registry.source(&format!("App{i}"));
    }
    for i in 0..4u8 {
        store.registry.user(&format!("u{i}"));
        store.registry.host(&format!("h{i}"));
    }
    for (t, src, ctx, text) in rows {
        let mut rec = LogRecord::minimal(SourceId(*src as u32), Millis(*t)).with_text(text.clone());
        if let Some((u, h)) = ctx {
            rec = rec
                .with_user(UserId(*u as u32))
                .with_host(HostId(*h as u32));
        }
        store.push(rec);
    }
    store.finalize();
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sessions_partition_keyed_logs(rows in log_rows(), gap in 1_000i64..10_000_000) {
        let store = build_store(&rows);
        let cfg = SessionConfig { max_gap_ms: gap, min_logs: 1 };
        let set = reconstruct(&store, &cfg);
        // With min_logs = 1 every keyed log is assigned exactly once.
        prop_assert_eq!(set.stats.assigned_logs, set.stats.keyed_logs);
        let total: usize = set.sessions.iter().map(Session::len).sum();
        prop_assert_eq!(total, set.stats.keyed_logs);
        // Sessions are internally ordered and respect the gap.
        for s in &set.sessions {
            for w in s.entries.windows(2) {
                prop_assert!(w[0].ts <= w[1].ts);
                prop_assert!(w[1].ts - w[0].ts <= gap);
            }
        }
    }

    #[test]
    fn smaller_timeout_never_increases_bigrams(rows in log_rows()) {
        let store = build_store(&rows);
        let cfg = SessionConfig { max_gap_ms: 60_000, min_logs: 2 };
        let set = reconstruct(&store, &cfg);
        let small = extract_bigrams(&set.sessions, Some(500));
        let large = extract_bigrams(&set.sessions, Some(5_000));
        let none = extract_bigrams(&set.sessions, None);
        prop_assert!(small.total <= large.total);
        prop_assert!(large.total <= none.total);
        // Every small-timeout bigram type also exists at larger timeouts.
        for (k, v) in &small.joint {
            prop_assert!(large.joint.get(k).copied().unwrap_or(0) >= *v);
        }
    }

    #[test]
    fn l3_detections_monotone_in_stop_patterns(rows in log_rows()) {
        let store = build_store(&rows);
        let ids = vec!["APP1".to_owned(), "SCAN".to_owned(), "DATA".to_owned()];
        let range = TimeRange::new(Millis(0), Millis(86_400_001));
        let without = run_l3_pool(&store, range, &ids, &L3Config::default(), &ParConfig::default()).unwrap();
        let with = run_l3_pool(
            &store,
            range,
            &ids,
            &L3Config::with_stop_patterns(["*a*", "*0*"]), &ParConfig::default(),
        )
        .unwrap();
        // Stop patterns only remove evidence: detections shrink.
        for (app, svc) in with.detected.iter() {
            prop_assert!(without.detected.contains(app, svc));
        }
        prop_assert!(with.scanned_logs + with.stopped_logs == without.scanned_logs);
    }

    #[test]
    fn pair_model_is_set_like(pairs in prop::collection::vec((0u32..20, 0u32..20), 0..60)) {
        let mut model = PairModel::new();
        for &(a, b) in &pairs {
            model.insert(SourceId(a), SourceId(b));
        }
        // Membership is order-insensitive and excludes self-pairs.
        for &(a, b) in &pairs {
            if a != b {
                prop_assert!(model.contains(SourceId(a), SourceId(b)));
                prop_assert!(model.contains(SourceId(b), SourceId(a)));
            } else {
                prop_assert!(!model.contains(SourceId(a), SourceId(b)));
            }
        }
        // Size never exceeds distinct normalized pairs.
        let mut distinct: Vec<(u32, u32)> = pairs
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(model.len(), distinct.len());
    }

    #[test]
    fn store_range_queries_agree_with_filtering(rows in log_rows(), lo in 0i64..86_400_000) {
        let store = build_store(&rows);
        let hi = lo + 3_600_000;
        let range = TimeRange::new(Millis(lo), Millis(hi));
        let by_query = store.range(range).len();
        let by_filter = store
            .records()
            .iter()
            .filter(|r| r.client_ts.0 >= lo && r.client_ts.0 < hi)
            .count();
        prop_assert_eq!(by_query, by_filter);
        // Per-source timelines sum to the store size.
        let total: usize = store
            .active_sources()
            .iter()
            .map(|&s| store.timeline(s).len())
            .sum();
        prop_assert_eq!(total, store.len());
    }

    #[test]
    fn timeline_nearest_distance_is_a_true_minimum(
        points in prop::collection::vec(0i64..1_000_000, 1..80),
        probe in 0i64..1_000_000,
    ) {
        let tl: logdep_logstore::Timeline =
            points.iter().map(|&p| Millis(p)).collect();
        let d = tl.dist_to_nearest(Millis(probe)).unwrap();
        let brute = points.iter().map(|&p| (p - probe).abs()).min().unwrap();
        prop_assert_eq!(d, brute);
    }
}
