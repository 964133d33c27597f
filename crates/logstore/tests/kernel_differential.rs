//! Differential test of the ingest kernel: the reused-buffer line loop,
//! the slice-based parse that unescapes text straight into the store's
//! text arena, and the in-place sort and dedup over rows must give
//! exactly what the straightforward implementation they replaced gave —
//! `BufRead::lines`, a `Vec` of fields with every field unescaped into a
//! new `String`, a `Vec<LogRecord>` sorted by `sort_by_key`, and a dedup
//! that drains into a second buffer. That implementation is kept below
//! as [`reference`].
//!
//! Compared: the records, the registry interning order, the whole
//! `IngestReport` (counts, sample line numbers, skew) and the point where
//! the error budget trips. The resilient pass runs at pool widths 1, 2,
//! 3 and 8 (`IngestPolicy::par`); the reference is always serial. The one intended difference is a line that
//! is not UTF-8: `lines()` fails the stream there, the kernel quarantines
//! the line, so the reference applies that quarantine rule too.

// Test code: the reference keeps the old kernel's indexing as it was.
#![allow(clippy::indexing_slicing)]

use logdep_logstore::codec::{read_store, ParseErrors};
use logdep_logstore::ingest::{
    read_store_resilient, IngestError, IngestPolicy, IngestReport, WHOLE_CLOCK,
};
use logdep_logstore::registry::{Interner, NameRegistry};
use logdep_logstore::{LogRecord, LogStore};
use logdep_par::ParConfig;
use proptest::prelude::*;

/// The pool widths the resilient pass is compared at.
const WIDTHS: &[usize] = &[1, 2, 3, 8];

#[allow(clippy::expect_used)] // Test helper: every width in `WIDTHS` is nonzero.
fn width(threads: usize) -> ParConfig {
    ParConfig::with_threads(threads).expect("nonzero width")
}

mod reference {
    use logdep_logstore::codec::{ParseError, ParseErrors};
    use logdep_logstore::ingest::{IngestError, IngestPolicy, IngestReport};
    use logdep_logstore::record::{LogRecord, Severity};
    use logdep_logstore::registry::NameRegistry;
    use logdep_logstore::time::Millis;
    use std::io::{BufRead, ErrorKind};

    const SKEW_SAMPLE_CAP: usize = 4_096;

    fn unescape(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('t') => out.push('\t'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('\\') => out.push('\\'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => out.push('\\'),
                }
            } else {
                out.push(c);
            }
        }
        out
    }

    fn parse_record(line: &str, registry: &mut NameRegistry) -> Result<LogRecord, ParseError> {
        let fields: Vec<&str> = line.splitn(7, '\t').collect();
        if fields.len() != 7 {
            return Err(ParseError::FieldCount(fields.len()));
        }
        let client_ts: i64 = fields[0]
            .parse()
            .map_err(|_| ParseError::BadTimestamp(fields[0].to_owned()))?;
        let server_ts: i64 = fields[1]
            .parse()
            .map_err(|_| ParseError::BadTimestamp(fields[1].to_owned()))?;
        let source = registry.source(&unescape(fields[2]));
        let user = match fields[3] {
            "-" => None,
            u => Some(registry.user(&unescape(u))),
        };
        let host = match fields[4] {
            "-" => None,
            h => Some(registry.host(&unescape(h))),
        };
        let severity = Severity::from_tag(fields[5])
            .ok_or_else(|| ParseError::BadSeverity(fields[5].to_owned()))?;
        Ok(LogRecord {
            client_ts: Millis(client_ts),
            server_ts: Millis(server_ts),
            source,
            user,
            host,
            severity,
            text: unescape(fields[6]),
        })
    }

    /// The non-empty lines of `input` as `BufRead::lines` splits them,
    /// with their 1-based numbers; a non-UTF-8 line becomes
    /// `InvalidUtf8` (`lines()` consumes such a line before failing, so
    /// reading on from the next one is sound).
    fn lines(input: &[u8]) -> Vec<(usize, Result<String, ParseError>)> {
        let mut out = Vec::new();
        for (i, line) in input.lines().enumerate() {
            match line {
                Ok(line) if line.is_empty() => {}
                Ok(line) => out.push((i + 1, Ok(line))),
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    out.push((i + 1, Err(ParseError::InvalidUtf8)));
                }
                Err(e) => panic!("reading from memory failed: {e}"),
            }
        }
        out
    }

    fn sort(records: &mut [LogRecord]) {
        records.sort_by_key(|r| (r.client_ts, r.source, r.server_ts));
    }

    fn dedup_sorted(records: &mut Vec<LogRecord>) {
        let mut out: Vec<LogRecord> = Vec::with_capacity(records.len());
        let mut run_start = 0usize;
        for rec in records.drain(..) {
            let same_run = out
                .last()
                .is_some_and(|l| (l.client_ts, l.source) == (rec.client_ts, rec.source));
            if !same_run {
                run_start = out.len();
                out.push(rec);
            } else if out
                .get(run_start..)
                .is_some_and(|run| run.iter().any(|r| r.text == rec.text))
            {
                // Exact duplicate within the run: drop it.
            } else {
                out.push(rec);
            }
        }
        *records = out;
    }

    fn median(samples: &mut [i64]) -> i64 {
        if samples.is_empty() {
            return 0;
        }
        let mid = (samples.len() - 1) / 2;
        let (_, m, _) = samples.select_nth_unstable(mid);
        *m
    }

    fn check_budget(
        lines: usize,
        quarantined: usize,
        policy: &IngestPolicy,
    ) -> Result<(), IngestError> {
        if lines > 0 && quarantined as f64 > policy.max_error_fraction * lines as f64 {
            return Err(IngestError::ErrorBudgetExceeded {
                lines,
                quarantined,
                max_fraction: policy.max_error_fraction,
            });
        }
        Ok(())
    }

    pub fn read_store(input: &[u8]) -> (Vec<LogRecord>, NameRegistry, ParseErrors) {
        let mut records = Vec::new();
        let mut registry = NameRegistry::new();
        let mut errors = ParseErrors::new();
        for (lineno, line) in lines(input) {
            match line.and_then(|line| parse_record(&line, &mut registry)) {
                Ok(rec) => records.push(rec),
                Err(e) => errors.record(lineno, e),
            }
        }
        sort(&mut records);
        (records, registry, errors)
    }

    pub type Ingested = (Vec<LogRecord>, NameRegistry, IngestReport);

    pub fn read_store_resilient(
        input: &[u8],
        policy: &IngestPolicy,
    ) -> Result<Ingested, IngestError> {
        let mut records = Vec::new();
        let mut registry = NameRegistry::new();
        let mut report = IngestReport::default();
        let mut errors = ParseErrors::with_cap(policy.error_sample_cap);
        let mut skew_samples: Vec<Vec<i64>> = Vec::new();
        let mut last_seen_ts: Option<i64> = None;

        for (lineno, line) in lines(input) {
            report.total_lines += 1;
            match line.and_then(|line| parse_record(&line, &mut registry)) {
                Ok(rec) => {
                    report.parsed += 1;
                    let ts = rec.client_ts.as_millis();
                    if last_seen_ts.is_some_and(|prev| ts < prev) {
                        report.repaired_out_of_order += 1;
                    }
                    last_seen_ts = Some(last_seen_ts.map_or(ts, |prev| prev.max(ts)));
                    let idx = rec.source.index();
                    if skew_samples.len() <= idx {
                        skew_samples.resize_with(idx + 1, Vec::new);
                    }
                    if skew_samples[idx].len() < SKEW_SAMPLE_CAP {
                        let skew = rec
                            .client_ts
                            .as_millis()
                            .saturating_sub(rec.server_ts.as_millis());
                        skew_samples[idx].push(skew);
                    }
                    records.push(rec);
                }
                Err(e) => errors.record(lineno, e),
            }
            if report.total_lines >= policy.min_lines_before_check {
                check_budget(report.total_lines, errors.len(), policy)?;
            }
        }
        check_budget(report.total_lines, errors.len(), policy)?;

        report.quarantined = errors.len();
        report.quarantine_samples = errors
            .samples()
            .iter()
            .map(|(lineno, e)| (*lineno, e.to_string()))
            .collect();

        sort(&mut records);
        if policy.dedup {
            let before = records.len();
            dedup_sorted(&mut records);
            report.deduped = before - records.len();
        }

        for (idx, samples) in skew_samples.iter_mut().enumerate() {
            let skew = median(samples);
            if skew != 0 {
                if let Some(name) = registry.sources.name(idx as u32) {
                    report.per_source_skew_ms.insert(name.to_owned(), skew);
                }
            }
        }
        Ok((records, registry, report))
    }
}

/// The interning order of all three id spaces.
fn interned(registry: &NameRegistry) -> [Vec<String>; 3] {
    let names = |i: &Interner| i.iter().map(|(_, n)| n.to_owned()).collect();
    [
        names(&registry.sources),
        names(&registry.users),
        names(&registry.hosts),
    ]
}

/// What a resilient pass produced, in comparable form: the records, the
/// registry order and the report, or the budget trip point.
type Outcome = Result<(Vec<LogRecord>, [Vec<String>; 3], IngestReport), (usize, usize)>;

fn outcome(result: Result<(Vec<LogRecord>, NameRegistry, IngestReport), IngestError>) -> Outcome {
    match result {
        Ok((records, registry, report)) => Ok((records, interned(&registry), report)),
        Err(IngestError::ErrorBudgetExceeded {
            lines, quarantined, ..
        }) => Err((lines, quarantined)),
        Err(e @ (IngestError::Io(_) | IngestError::StoreFull)) => {
            panic!("reading from memory failed: {e}")
        }
    }
}

/// The store's rows as owned records, their texts read from the arena.
fn owned(store: &LogStore) -> Vec<LogRecord> {
    store.records().iter().map(|r| r.to_record(store)).collect()
}

fn kernel(input: &[u8], policy: &IngestPolicy) -> Outcome {
    outcome(
        read_store_resilient(input, policy)
            .map(|(store, report)| (owned(&store), store.registry, report)),
    )
}

fn assert_kernel_matches_reference(input: &[u8], policy: &IngestPolicy) {
    assert_eq!(
        kernel(input, policy),
        outcome(reference::read_store_resilient(input, policy)),
        "read_store_resilient on {:?} under {policy:?}",
        String::from_utf8_lossy(input)
    );
    let (store, errors): (LogStore, ParseErrors) = read_store(input).expect("reading from memory");
    let (records, registry, ref_errors) = reference::read_store(input);
    assert_eq!(owned(&store), records, "read_store records");
    assert_eq!(
        interned(&store.registry),
        interned(&registry),
        "read_store registry"
    );
    assert_eq!(errors, ref_errors, "read_store errors");
}

/// Draws one of `items`; repeat an item to weight it.
fn pick<T: Copy + std::fmt::Debug>(items: &'static [T]) -> impl Strategy<Value = T> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// A piece of record text: plain characters, every escape the writer
/// emits, an unknown escape, a lone backslash (trailing when it comes
/// last), a raw tab (which lands in the free-text field) and a bare CR.
const TEXT_TOKENS: &[&str] = &[
    "a", "b", "é", " ", "\\t", "\\n", "\\r", "\\\\", "\\q", "\\", "\t", "\r",
];

/// Timestamp fields: a small key space, so equal `(client_ts, source)`
/// runs are common, and every edge of the kernel's direct digit path —
/// a sign, leading zeros, 18 and 19 digits, `i64::MAX` and one past it,
/// an empty field, a leading space, a non-ASCII digit and a letter.
const TS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "0",
    "1",
    "2",
    "3",
    "+7",
    "-3",
    "007",
    "123456789012345678",
    "999999999999999999",
    "1234567890123456789",
    "9223372036854775807",
    "9223372036854775808",
    "",
    " 1",
    "\u{661}",
    "x1",
];

fn record_line() -> impl Strategy<Value = Vec<u8>> {
    // Names carry escapes and multibyte characters too, and a bad
    // severity still interns them.
    const NAMES: &[&str] = &["A", "B", "C\\tD", "E\\", "F\\q", "\\\\G", "Ωé", "日本"];
    const PEOPLE: &[&str] = &["-", "-", "u1", "u\\\\2", "u\\q", "ü"];
    const SEVERITY: &[&str] = &["INF", "INF", "ERR", "WRN", "DBG", "ZZZ"];
    (
        pick(TS),
        pick(TS),
        pick(NAMES),
        pick(PEOPLE),
        pick(PEOPLE),
        pick(SEVERITY),
        prop::collection::vec(pick(TEXT_TOKENS), 0..6),
    )
        .prop_map(|(client, server, source, user, host, sev, text)| {
            format!(
                "{client}\t{server}\t{source}\t{user}\t{host}\t{sev}\t{}",
                text.concat()
            )
            .into_bytes()
        })
}

/// One line's content, without its terminator: mostly records, some
/// garbage, blank lines, a lone CR, records cut to five tabs or to six
/// (an empty text), and records made invalid UTF-8 by a stray
/// continuation byte, a truncated two-byte sequence, or a byte that
/// never occurs in UTF-8.
fn line() -> impl Strategy<Value = Vec<u8>> {
    (
        0..21usize,
        record_line(),
        "[ -~]{0,20}",
        pick(&[0x80u8, 0xc3, 0xff]),
    )
        .prop_map(|(kind, record, garbage, byte)| match kind {
            0..=11 => record,
            12 | 13 => garbage.into_bytes(),
            14 => Vec::new(),
            15 => b"\r".to_vec(),
            16 | 17 => {
                let mut record = record;
                record.push(byte);
                record
            }
            _ => {
                // Six tabs and an empty text (kind 18), or five tabs.
                let cut = record
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\t')
                    .nth(5)
                    .map_or(record.len(), |(at, _)| at + usize::from(kind == 18));
                record[..cut].to_vec()
            }
        })
}

/// A stream drawn from a small pool of lines, so repeats (duplicate
/// delivery) and out-of-order arrival are common; each line ends in
/// `\n` or `\r\n`, and the last one may have no terminator at all.
fn stream() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(line(), 1..12),
        prop::collection::vec((0..64usize, any::<bool>()), 0..40),
        any::<bool>(),
    )
        .prop_map(|(pool, picks, final_newline)| {
            let mut input = Vec::new();
            let count = picks.len();
            for (n, (pick, crlf)) in picks.into_iter().enumerate() {
                input.extend_from_slice(&pool[pick % pool.len()]);
                if n + 1 < count || final_newline {
                    input.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
                }
            }
            input
        })
}

fn policy() -> impl Strategy<Value = IngestPolicy> {
    (
        pick(&[0.0, 0.25, 0.5, 1.0]),
        0..8usize,
        0..4usize,
        any::<bool>(),
        pick(WIDTHS),
    )
        .prop_map(
            |(max_error_fraction, min_lines_before_check, error_sample_cap, dedup, threads)| {
                IngestPolicy {
                    max_error_fraction,
                    min_lines_before_check,
                    error_sample_cap,
                    dedup,
                    par: width(threads),
                    scope: WHOLE_CLOCK,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_reference(input in stream(), policy in policy()) {
        assert_kernel_matches_reference(&input, &policy);
        let lenient = IngestPolicy {
            par: policy.par,
            ..IngestPolicy::lenient()
        };
        assert_kernel_matches_reference(&input, &lenient);
    }
}

#[test]
fn fixed_corpus_matches_reference() {
    let input: &[u8] = b"\
3\t3\tA\t-\t-\tINF\ttrailing backslash\\\r\n\
1\t1\tB\\tC\tu\\\\1\th\\q\tERR\tunknown \\q escape\n\
\n\
\r\n\
1\t1\tB\\tC\tu\\\\1\th\\q\tERR\tunknown \\q escape\n\
1\t0\tB\\tC\t-\t-\tINF\tsame run, other text\n\
1\t1\tB\\tC\tu\\\\1\th\\q\tERR\tunknown \\q escape\r\n\
bare\rcarriage return\n\
2\t2\tD\t-\t-\tZZZ\tbad severity interns D first\n\
0\t5\tA\t-\t-\tWRN\tnot UTF-8 \xff\n\
0\t5\tA\t-\t-\tDBG\tescapes \\t\\n\\r\\\\ and a raw\ttab\n\
+7\t007\t\xce\xa9\t\xc3\xbc\t-\tINF\tsigned, zero-padded, multibyte names\n\
999999999999999999\t1234567890123456789\tA\t-\t-\tINF\t18 and 19 digits\n\
9223372036854775807\t-3\tA\t-\t-\tINF\ti64::MAX\n\
9223372036854775808\t1\tA\t-\t-\tINF\tone past i64::MAX\n\
\t1\tA\t-\t-\tINF\tempty timestamp\n\
\x201\t1\tA\t-\t-\tINF\tleading space\n\
\xd9\xa1\t1\tA\t-\t-\tINF\tnon-ASCII digit\n\
4\t4\tA\t-\t-\tINF\n\
4\t4\tA\t-\t-\tINF\t\n\
9\t9\tA\t-\t-\tINF\tno final newline\r";
    for &threads in WIDTHS {
        for policy in [
            IngestPolicy::with_par(width(threads)),
            IngestPolicy {
                par: width(threads),
                ..IngestPolicy::lenient()
            },
            IngestPolicy {
                max_error_fraction: 0.25,
                min_lines_before_check: 2,
                error_sample_cap: 1,
                dedup: false,
                par: width(threads),
                scope: WHOLE_CLOCK,
            },
        ] {
            assert_kernel_matches_reference(input, &policy);
        }
    }
    let Ok((records, _, report)) = kernel(input, &IngestPolicy::lenient()) else {
        panic!("a lenient policy never aborts");
    };
    assert_eq!(report.deduped, 2, "the repeated B\\tC line");
    assert_eq!(
        report.quarantined, 8,
        "bare CR line, bad severity, non-UTF-8, one past i64::MAX, empty, \
         leading space, non-ASCII digit, five tabs"
    );
    assert_eq!(report.total_lines, 19);
    assert!(records.iter().any(|r| r.client_ts.as_millis() == 7));
    assert!(records.iter().any(|r| r.client_ts.as_millis() == i64::MAX));
    assert!(records
        .iter()
        .any(|r| r.server_ts.as_millis() == 1_234_567_890_123_456_789));
    assert!(records.iter().any(|r| r.text == "trailing backslash\\"));
    assert!(records.iter().any(|r| r.text == "no final newline\r"));
}
