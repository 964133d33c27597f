//! Differential suite for scoped ingest: a store read under a scope
//! answers every query inside the scope as the store of the whole stream
//! does, and every window inside it mines the same outcome with the same
//! cache traffic.
//!
//! Streams are drawn near day boundaries, where windows start and end,
//! with ties, duplicate delivery, out-of-order arrival and sources that
//! fall silent inside the scope. Scopes are a [`DailyPlan`]'s read span,
//! exactly or widened by a random slack on each side.

#![allow(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "test code: indexes into small generated pools, and a helper whose read or window fails has failed the test"
)]

use logdep::durable::DailyPlan;
use logdep::health::PipelineConfig;
use logdep::l1::{L1Config, ReferenceProcess};
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep::window::run_window_cached;
use logdep::EvidenceCache;
use logdep_logstore::ingest::{load_logs, read_store_resilient, IngestPolicy, IngestReport};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis, SourceId};
use logdep_par::ParConfig;
use proptest::prelude::*;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};

/// L1's load-proportional jitter: the farthest a miner reads outside a
/// window, and the widest cache-digest margin.
const JITTER_MS: i64 = 2_000;

/// Days the streams span; windows start on days `0..DAYS`.
const DAYS: i64 = 4;

const SOURCES: &[&str] = &["A", "B", "C", "D", "E", "F"];
const USERS: &[&str] = &["-", "ann", "bob"];
const HOSTS: &[&str] = &["-", "ws1", "ws2"];
const TEXTS: &[&str] = &["call svc-a", "svc-b reply", "idle", "", "svc-a and svc-c"];
const SERVICES: &[&str] = &["svc-a", "svc-b", "svc-c"];

/// One record line: a client timestamp within 90 s of a midnight, half
/// of them within 3 s, on a 250 ms grid nudged by up to 1 ms either way,
/// so ties are common and both ends of a read span (2 s before a window,
/// 1999 ms after it) are hit; a small clock skew; names and texts from
/// small pools.
fn record_line() -> impl Strategy<Value = String> {
    (
        0..=DAYS,
        (any::<bool>(), -360..360i64),
        -1..=1i64,
        -2..3i64,
        0..SOURCES.len(),
        0..USERS.len(),
        0..HOSTS.len(),
        0..TEXTS.len(),
    )
        .prop_map(
            |(day, (near, tick), nudge, skew, source, user, host, text)| {
                let tick = if near { tick % 13 } else { tick };
                let client = day * MS_PER_DAY + tick * 250 + nudge;
                format!(
                    "{client}\t{}\t{}\t{}\t{}\tINF\t{}",
                    client - skew,
                    SOURCES[source],
                    USERS[user],
                    HOSTS[host],
                    TEXTS[text]
                )
            },
        )
}

/// A stream drawn from a pool of record lines, so repeats (duplicate
/// delivery) and out-of-order arrival are common.
fn stream() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(record_line(), 1..60),
        prop::collection::vec(0..256usize, 0..240),
    )
        .prop_map(|(pool, picks)| {
            picks
                .into_iter()
                .map(|pick| format!("{}\n", pool[pick % pool.len()]))
                .collect()
        })
}

/// A plan and the scope it is read under: its read span, widened on each
/// side by a slack of 0, 1 ms, just over the 2 s jitter, or half a day.
fn plan_and_scope() -> impl Strategy<Value = (DailyPlan, RangeInclusive<Millis>)> {
    (0..DAYS, 1..3i64, 1..4u64, 0..4usize, 0..4usize).prop_map(
        |(start_day, window_days, steps, lo_slack, hi_slack)| {
            let plan = DailyPlan {
                start_day,
                window_days,
                advance_days: 1,
                steps,
            };
            let slack = [0, 1, JITTER_MS + 1, MS_PER_DAY / 2];
            let span = plan.read_span();
            let scope =
                Millis(span.start().0 - slack[lo_slack])..=Millis(span.end().0 + slack[hi_slack]);
            (plan, scope)
        },
    )
}

fn scoped(scope: RangeInclusive<Millis>) -> IngestPolicy {
    IngestPolicy {
        scope,
        ..IngestPolicy::with_par(ParConfig::serial())
    }
}

fn read(stream: &str, policy: &IngestPolicy) -> (LogStore, IngestReport) {
    read_store_resilient(stream.as_bytes(), policy).expect("a clean stream reads")
}

/// The detectors every window runs, with L1 under `reference`: small
/// slots and samples so the short streams give every layer evidence.
fn pipeline(reference: ReferenceProcess) -> PipelineConfig {
    let mut l2 = L2Config {
        min_joint: 1,
        ..L2Config::default()
    };
    l2.session.max_gap_ms = 60_000;
    l2.session.min_logs = 2;
    PipelineConfig {
        l1: Some(L1Config {
            slot_ms: 10 * 60_000,
            minlogs: 2,
            sample_size: 12,
            th_s: 0.001,
            seed: 7,
            reference,
            ..L1Config::default()
        }),
        l2: Some(l2),
        l3: Some(L3Config::default()),
        par: ParConfig::serial(),
    }
}

/// Asserts that `scoped`, read under `scope`, holds exactly the full
/// store's rows inside it and answers every timeline query whose reach
/// lies inside the scope as `full` does.
fn assert_queries_match(full: &LogStore, scoped: &LogStore, scope: &RangeInclusive<Millis>) {
    let names = |s: &LogStore| -> [Vec<String>; 3] {
        let r = &s.registry;
        [&r.sources, &r.users, &r.hosts].map(|i| i.iter().map(|(_, n)| n.to_owned()).collect())
    };
    assert_eq!(names(full), names(scoped), "registry ids");
    let inside = |s: &LogStore| -> Vec<_> {
        s.records()
            .iter()
            .filter(|r| scope.contains(&r.client_ts))
            .map(|r| r.to_record(s))
            .collect()
    };
    assert_eq!(inside(full), inside(scoped), "rows inside the scope");
    assert_eq!(scoped.len(), inside(scoped).len(), "no row outside");
    assert_eq!(full.active_sources(), scoped.active_sources());

    let sources: Vec<SourceId> = (0..full.registry.source_count() as u32 + 1)
        .map(SourceId)
        .collect();
    for midnight in (0..=DAYS).map(|d| d * MS_PER_DAY) {
        for k in -8..8i64 {
            for width in [1, 15_000, 10 * 60_000] {
                for margin in [0, 1, JITTER_MS] {
                    let start = midnight + k * 15_000;
                    let slot = TimeRange::new(Millis(start), Millis(start + width));
                    let reach = Millis(start - margin)..=Millis(start + width + margin - 1);
                    if !(scope.contains(reach.start()) && scope.contains(reach.end())) {
                        continue;
                    }
                    let widened = TimeRange::new(*reach.start(), Millis(reach.end().0 + 1));
                    let middle = Millis(start + width / 2);
                    let probes = [*reach.start(), slot.start, middle, *reach.end()];
                    for &s in &sources {
                        let (a, b) = (full.timeline(s), scoped.timeline(s));
                        assert_eq!(a.count_in(widened), b.count_in(widened), "{s:?} {slot:?}");
                        assert_eq!(
                            a.digest_neighborhood(slot, margin),
                            b.digest_neighborhood(slot, margin),
                            "{s:?} {slot:?} ± {margin}"
                        );
                        for t in probes {
                            assert_eq!(a.dist_to_nearest(t), b.dist_to_nearest(t), "{s:?} {t:?}");
                        }
                    }
                }
            }
        }
    }
}

/// Asserts that every window of `plan` mines the same outcome, cache
/// hits and misses included, from `scoped` as from `full`, with L1
/// under both reference processes and each store on its own rolling
/// cache, and that the two caches end with the same keys and evidence.
fn assert_windows_match(full: &LogStore, scoped: &LogStore, plan: &DailyPlan) {
    let ids: Vec<String> = SERVICES.iter().map(|s| s.to_string()).collect();
    for reference in [
        ReferenceProcess::Homogeneous,
        ReferenceProcess::LoadProportional,
    ] {
        let cfg = pipeline(reference);
        let (mut full_cache, mut scoped_cache) = (EvidenceCache::new(), EvidenceCache::new());
        for i in 0..plan.steps {
            let window = plan.window(i);
            let a = run_window_cached(full, window, &ids, &cfg, &mut full_cache).expect("full");
            let b =
                run_window_cached(scoped, window, &ids, &cfg, &mut scoped_cache).expect("scoped");
            assert_eq!(a, b, "{reference:?} window {i}");
        }
        assert_eq!(
            format!("{full_cache:?}"),
            format!("{scoped_cache:?}"),
            "{reference:?} cache keys"
        );
    }
}

/// A temp file path unique to this process and call.
fn temp_path(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("logdep-scoped-{}-{n}-{name}", std::process::id()))
}

proptest! {
    #[test]
    fn scoped_store_answers_as_the_full_store(
        stream in stream(),
        plan_scope in plan_and_scope(),
    ) {
        let (plan, scope) = plan_scope;
        let (full, full_report) = read(&stream, &scoped(logdep_logstore::WHOLE_CLOCK));
        let (scoped_store, report) = read(&stream, &scoped(scope.clone()));
        // Every line is still parsed and observed; only the stored rows,
        // and so the duplicates found among them, shrink.
        let outside = full
            .records()
            .iter()
            .filter(|r| !scope.contains(&r.client_ts))
            .count();
        prop_assert_eq!(full_report.outside_scope, 0);
        prop_assert!(report.outside_scope >= outside);
        prop_assert_eq!(
            report.outside_scope + scoped_store.len() + report.deduped,
            report.parsed
        );
        prop_assert_eq!(
            (report.total_lines, report.parsed, report.quarantined),
            (full_report.total_lines, full_report.parsed, full_report.quarantined)
        );
        prop_assert_eq!(report.repaired_out_of_order, full_report.repaired_out_of_order);
        prop_assert_eq!(&report.per_source_skew_ms, &full_report.per_source_skew_ms);
        prop_assert!(report.deduped <= full_report.deduped);
        assert_queries_match(&full, &scoped_store, &scope);
        assert_windows_match(&full, &scoped_store, &plan);
    }

    #[test]
    fn scoped_two_file_merge_answers_as_the_full_merge(
        first in stream(),
        second in stream(),
        plan_scope in plan_and_scope(),
    ) {
        let (plan, scope) = plan_scope;
        let (a, b) = (temp_path("a.tsv"), temp_path("b.tsv"));
        std::fs::write(&a, &first).expect("write a");
        std::fs::write(&b, &second).expect("write b");
        let paths = format!("{},{}", a.display(), b.display());
        let (full, _) = load_logs(&paths, &scoped(logdep_logstore::WHOLE_CLOCK)).expect("full");
        let (scoped_store, _) = load_logs(&paths, &scoped(scope.clone())).expect("scoped");
        for path in [a, b] {
            std::fs::remove_file(path).expect("remove temp file");
        }
        assert_queries_match(&full, &scoped_store, &scope);
        assert_windows_match(&full, &scoped_store, &plan);
    }
}

#[test]
fn a_source_silent_inside_the_scope_keeps_its_nearest_outside_points() {
    let stream = "\
100\t100\tA\t-\t-\tINF\tearly\n\
5000\t5000\tB\t-\t-\tINF\tinside\n\
200\t200\tA\t-\t-\tINF\tlater early\n\
9000\t9000\tA\t-\t-\tINF\tlate\n\
8000\t8000\tA\t-\t-\tINF\tless late\n\
8000\t8000\tA\t-\t-\tINF\tless late\n";
    let (store, report) = read(stream, &scoped(Millis(1_000)..=Millis(7_000)));
    assert_eq!(store.len(), 1, "only B's row is stored");
    assert_eq!((report.parsed, report.outside_scope), (6, 5));
    assert_eq!(report.deduped, 0, "the duplicate lies outside the scope");
    let a = store.registry.find_source("A").expect("A interned");
    assert_eq!(store.timeline(a).points(), [Millis(200), Millis(8_000)]);
    assert_eq!(store.active_sources().len(), 2);
    assert!(report.summary().ends_with(", 5 outside the scope"));
    let (_, whole) = read(stream, &IngestPolicy::default());
    assert!(!whole.summary().contains("outside"), "{}", whole.summary());
}
