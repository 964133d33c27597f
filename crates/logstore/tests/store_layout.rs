//! Differential test of the store layout: fixed-width rows over one text
//! arena, sorted in place run by run when records arrive in client
//! timestamp order (by the full stable sort otherwise) and deduplicated
//! through the arena, must hold exactly what the layout they replaced
//! held — a `Vec<LogRecord>`, each record owning its text, sorted by
//! `sort_by_key` and deduplicated by a scan that drains into a second
//! buffer. That layout is kept below as [`reference`].
//!
//! The records reach the store three ways: `push`, `merge` of two
//! stores, and resilient ingest of their TSV at pool widths 1, 2, 3 and
//! 8. The drawn streams are mostly in arrival order with many tied
//! client timestamps, and carry empty and escaped texts and exact
//! duplicates.

#![allow(
    clippy::indexing_slicing,
    reason = "test code: the reference keeps the old layout's indexing as it was"
)]

use logdep_logstore::codec::{parse_record, write_record};
use logdep_logstore::ingest::{read_store_resilient, IngestPolicy};
use logdep_logstore::registry::{HostId, NameRegistry, SourceId, UserId};
use logdep_logstore::time::Millis;
use logdep_logstore::{LogRecord, LogStore, Severity};
use logdep_par::ParConfig;
use proptest::prelude::*;

/// The pool widths ingest is compared at.
const WIDTHS: &[usize] = &[1, 2, 3, 8];

mod reference {
    use logdep_logstore::LogRecord;

    /// The old `finalize`: a stable sort of owned records, then, when
    /// asked, the drain dedup. Returns the number of records removed.
    pub fn finalize(records: &mut Vec<LogRecord>, dedup: bool) -> usize {
        records.sort_by_key(|r| (r.client_ts, r.source, r.server_ts));
        if !dedup {
            return 0;
        }
        let before = records.len();
        let mut out: Vec<LogRecord> = Vec::with_capacity(records.len());
        let mut run_start = 0usize;
        for rec in records.drain(..) {
            let same_run = out
                .last()
                .is_some_and(|l| (l.client_ts, l.source) == (rec.client_ts, rec.source));
            if !same_run {
                run_start = out.len();
                out.push(rec);
            } else if out[run_start..].iter().any(|r| r.text == rec.text) {
                // Exact duplicate within the run: drop it.
            } else {
                out.push(rec);
            }
        }
        *records = out;
        before - records.len()
    }
}

/// Texts: empty, plain, every character the codec escapes, non-ASCII,
/// and two that differ only in an escape.
const TEXTS: &[&str] = &[
    "",
    "",
    "dup",
    "dup",
    "Invoke svc [fct [a]]",
    "tab\there",
    "line\nbreak",
    "back\\slash",
    "cr\r",
    "é",
    "a\\tb",
];

/// One record drawn from small key spaces, with its client timestamp
/// step (0 most often, so ties are common).
fn record() -> impl Strategy<Value = (i64, LogRecord)> {
    (
        0..6usize,
        0..4u32,
        0..4i64,
        0..TEXTS.len(),
        0..5u32,
        0..3u32,
        0..4usize,
    )
        .prop_map(|(step, source, server, text, user, host, severity)| {
            let step = [0, 0, 0, 1, 2, 5][step];
            let mut rec = LogRecord::minimal(SourceId(source), Millis(0))
                .with_server_ts(Millis(server))
                .with_text(TEXTS[text])
                .with_severity(
                    [
                        Severity::Info,
                        Severity::Debug,
                        Severity::Warning,
                        Severity::Error,
                    ][severity],
                );
            // Users and hosts 3 and above stand for "absent".
            if user < 3 {
                rec = rec.with_user(UserId(user));
            }
            if host < 2 {
                rec = rec.with_host(HostId(host));
            }
            (step, rec)
        })
}

/// A delivery stream over a small pool of records, so exact duplicates
/// are common. In arrival order (client timestamps never fall) unless
/// `shuffled`, which swaps a few records out of place.
fn stream() -> impl Strategy<Value = Vec<LogRecord>> {
    (
        prop::collection::vec(record(), 1..10),
        prop::collection::vec((0..64usize, 0..4usize), 0..48),
        prop::collection::vec((0..64usize, 0..64usize), 0..3),
        0..4usize,
    )
        .prop_map(|(pool, picks, swaps, order)| {
            let mut ts = 0i64;
            let mut out = Vec::with_capacity(picks.len());
            for (pick, repeat) in picks {
                let (step, rec) = &pool[pick % pool.len()];
                // A repeat of the previous record is a retransmission:
                // the same record again, timestamp and all.
                if repeat > 0 || out.is_empty() {
                    ts += step;
                    let mut rec = rec.clone();
                    rec.client_ts = Millis(ts);
                    out.push(rec);
                } else if let Some(prev) = out.last().cloned() {
                    out.push(prev);
                }
            }
            if order == 0 && !out.is_empty() {
                let n = out.len();
                for (a, b) in swaps {
                    out.swap(a % n, b % n);
                }
            }
            out
        })
}

/// A store over a registry with sources, users and hosts interned.
fn empty_store() -> LogStore {
    let mut store = LogStore::new();
    for n in 0..4 {
        store.registry.source(&format!("App{n}"));
    }
    for n in 0..3 {
        store.registry.user(&format!("user{n}"));
        store.registry.host(&format!("host\\{n}"));
    }
    store
}

fn owned(store: &LogStore) -> Vec<LogRecord> {
    store.records().iter().map(|r| r.to_record(store)).collect()
}

/// The timeline of every source, read off `records`.
fn timelines_of(records: &[LogRecord]) -> Vec<Vec<Millis>> {
    (0..4)
        .map(|s| {
            records
                .iter()
                .filter(|r| r.source == SourceId(s))
                .map(|r| r.client_ts)
                .collect()
        })
        .collect()
}

fn store_timelines(store: &LogStore) -> Vec<Vec<Millis>> {
    (0..4)
        .map(|s| store.timeline(SourceId(s)).points().to_vec())
        .collect()
}

#[allow(
    clippy::expect_used,
    reason = "test helper: every width in `WIDTHS` is nonzero"
)]
fn width(threads: usize) -> ParConfig {
    ParConfig::with_threads(threads).expect("nonzero width")
}

proptest! {
    #[test]
    fn push_and_finalize_match_the_owned_layout(records in stream(), dedup in any::<bool>()) {
        let mut store = empty_store();
        store.extend(records.iter().cloned());
        let removed = if dedup {
            store.finalize_dedup()
        } else {
            store.finalize();
            0
        };
        let mut expected = records;
        let expected_removed = reference::finalize(&mut expected, dedup);
        prop_assert_eq!(removed, expected_removed);
        prop_assert_eq!(owned(&store), expected.clone());
        prop_assert_eq!(store_timelines(&store), timelines_of(&expected));
    }

    #[test]
    fn merge_matches_the_owned_layout(records in stream(), cut in 0..64usize) {
        let cut = cut % (records.len() + 1);
        let (head, tail) = records.split_at(cut);
        let mut a = empty_store();
        a.extend(head.iter().cloned());
        let mut b = empty_store();
        b.extend(tail.iter().cloned());
        b.finalize();
        a.merge(b).map_err(|e| TestCaseError::fail(e.to_string()))?;
        a.finalize();
        // Both registries intern the same names in the same order, so
        // the merge translates every id to itself.
        let mut expected = head.to_vec();
        expected.extend(sorted(tail));
        reference::finalize(&mut expected, true);
        prop_assert_eq!(owned(&a), expected.clone());
        prop_assert_eq!(store_timelines(&a), timelines_of(&expected));
    }

    #[test]
    fn ingest_matches_the_owned_layout(records in stream(), dedup in any::<bool>()) {
        let store = empty_store();
        let mut tsv = Vec::new();
        for rec in &records {
            write_record(&mut tsv, rec, &store.registry)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // The reference parses each line with the public, owning parser.
        let mut registry = NameRegistry::new();
        let mut expected: Vec<LogRecord> = Vec::new();
        for line in String::from_utf8_lossy(&tsv).lines() {
            let rec = parse_record(line, &mut registry)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            expected.push(rec);
        }
        let removed = reference::finalize(&mut expected, dedup);
        for &threads in WIDTHS {
            let policy = IngestPolicy {
                dedup,
                ..IngestPolicy::with_par(width(threads))
            };
            let (ingested, report) = read_store_resilient(tsv.as_slice(), &policy)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(report.deduped, removed);
            prop_assert_eq!(owned(&ingested), expected.clone());
            prop_assert_eq!(store_timelines(&ingested), timelines_of(&expected));
        }
    }
}

/// `records` as a finalized store holds them: stably sorted by key.
fn sorted(records: &[LogRecord]) -> Vec<LogRecord> {
    let mut out = records.to_vec();
    reference::finalize(&mut out, false);
    out
}

#[test]
fn an_in_order_stream_with_ties_and_duplicates() {
    let rows = [
        (0, 2, 9, "b"),
        (0, 1, 3, ""),
        (0, 1, 1, ""),
        (0, 0, 5, "tab\t"),
        (0, 1, 1, ""),
        (1, 0, 0, "x"),
        (1, 0, 0, "x"),
        (1, 0, 0, "y"),
    ];
    let records: Vec<LogRecord> = rows
        .iter()
        .map(|&(client, source, server, text)| {
            LogRecord::minimal(SourceId(source), Millis(client))
                .with_server_ts(Millis(server))
                .with_text(text)
        })
        .collect();
    let mut store = empty_store();
    store.extend(records.iter().cloned());
    assert_eq!(store.finalize_dedup(), 3);
    let mut expected = records;
    reference::finalize(&mut expected, true);
    assert_eq!(owned(&store), expected);
    let texts: Vec<&str> = store.records().iter().map(|r| store.text(r)).collect();
    assert_eq!(texts, ["tab\t", "", "b", "x", "y"]);
}
