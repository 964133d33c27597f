//! Resilient consolidation: quarantine, repair, dedup and skew estimation.
//!
//! [`crate::codec::read_store`] tolerates malformed lines but applies no
//! policy. This module is the hardened path a production consolidation
//! job would use against hostile streams (see the `logdep-faults`
//! injector): it enforces a bounded **error budget** so a mis-pointed
//! ingest fails fast instead of silently quarantining half the data,
//! repairs out-of-order delivery, absorbs at-least-once duplication, and
//! estimates per-source clock skew from the client/server timestamp gap
//! (the paper's §4.2 NT-domain drift), reporting everything in a
//! machine-readable [`IngestReport`].

use crate::codec::{parse_record, Lines, ParseErrors};
use crate::store::LogStore;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};

/// Per-source cap on skew samples: enough for a stable median without
/// letting one chatty source dominate memory.
const SKEW_SAMPLE_CAP: usize = 4_096;

/// Quarantine and repair policy for one resilient ingest pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPolicy {
    /// Abort when more than this fraction of non-empty lines failed to
    /// parse (checked once at least `min_lines_before_check` lines have
    /// been seen, and again at end of stream).
    pub max_error_fraction: f64,
    /// Grace period: never abort before this many non-empty lines, so a
    /// corrupt burst at the head of an otherwise-healthy stream does not
    /// kill the ingest.
    pub min_lines_before_check: usize,
    /// Retain at most this many quarantined-line samples in the report.
    pub error_sample_cap: usize,
    /// Remove exact duplicates — same `(client_ts, source, text)` — on
    /// finalize (at-least-once shippers retransmit whole batches).
    pub dedup: bool,
}

impl Default for IngestPolicy {
    fn default() -> Self {
        Self {
            max_error_fraction: 0.5,
            min_lines_before_check: 1_000,
            error_sample_cap: ParseErrors::SAMPLE_CAP,
            dedup: true,
        }
    }
}

impl IngestPolicy {
    /// A policy that quarantines without ever aborting (error budget 1.0).
    pub fn lenient() -> Self {
        Self {
            max_error_fraction: 1.0,
            ..Self::default()
        }
    }
}

/// What one resilient ingest pass did, in machine-readable form.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngestReport {
    /// Non-empty lines seen.
    pub total_lines: usize,
    /// Lines parsed into records.
    pub parsed: usize,
    /// Lines quarantined (failed to parse, or not UTF-8).
    pub quarantined: usize,
    /// First few quarantined lines as `(1-based line number, error)`.
    pub quarantine_samples: Vec<(usize, String)>,
    /// Exact duplicate records removed on finalize.
    pub deduped: usize,
    /// Records that arrived with a client timestamp earlier than a
    /// previously-seen record (repaired by the finalize sort).
    pub repaired_out_of_order: usize,
    /// Estimated per-source clock skew: the median of
    /// `client_ts - server_ts` over the source's records, ms. Only
    /// sources with a nonzero estimate appear.
    pub per_source_skew_ms: BTreeMap<String, i64>,
}

impl IngestReport {
    /// Fraction of non-empty lines that were quarantined.
    pub fn quarantine_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.quarantined as f64 / self.total_lines as f64
        }
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} lines: {} parsed, {} quarantined, {} deduped, {} out-of-order repaired, \
             {} sources with clock skew",
            self.total_lines,
            self.parsed,
            self.quarantined,
            self.deduped,
            self.repaired_out_of_order,
            self.per_source_skew_ms.len(),
        )
    }
}

/// Failure of a resilient ingest pass.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The malformed-line fraction exceeded the policy's budget.
    ErrorBudgetExceeded {
        /// Non-empty lines seen when the budget check tripped.
        lines: usize,
        /// Quarantined lines at that point.
        quarantined: usize,
        /// The policy's `max_error_fraction`.
        max_fraction: f64,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::ErrorBudgetExceeded {
                lines,
                quarantined,
                max_fraction,
            } => write!(
                f,
                "error budget exceeded: {quarantined}/{lines} lines malformed \
                 (limit {:.0}%) — wrong file or unsupported format?",
                max_fraction * 100.0
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::ErrorBudgetExceeded { .. } => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Reads a TSV stream into a finalized store under `policy`, reporting
/// quarantine, repair, dedup and skew statistics.
///
/// Unlike [`crate::codec::read_store`], this fails fast (with
/// [`IngestError::ErrorBudgetExceeded`]) when the stream is mostly
/// garbage, and absorbs duplicate delivery when `policy.dedup` is set.
/// A line that is not valid UTF-8 is quarantined like any other
/// malformed line ([`crate::codec::ParseError::InvalidUtf8`]), so one
/// bad shipper line cannot fail the whole pass.
pub fn read_store_resilient<R: BufRead>(
    r: R,
    policy: &IngestPolicy,
) -> Result<(LogStore, IngestReport), IngestError> {
    let mut store = LogStore::new();
    let mut report = IngestReport::default();
    let mut errors = ParseErrors::with_cap(policy.error_sample_cap);
    // (client_ts - server_ts) samples per source index, capped.
    let mut skew_samples: Vec<Vec<i64>> = Vec::new();
    let mut last_seen_ts: Option<i64> = None;

    let mut lines = Lines::new(r);
    while let Some((lineno, line)) = lines.next_line()? {
        report.total_lines += 1;
        match line.and_then(|line| parse_record(line, &mut store.registry)) {
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
                if let Some(samples) = skew_samples.get_mut(idx) {
                    if samples.len() < SKEW_SAMPLE_CAP {
                        samples.push(rec.client_ts - rec.server_ts);
                    }
                }
                store.push(rec);
            }
            Err(e) => errors.record(lineno, e),
        }
        if report.total_lines >= policy.min_lines_before_check {
            check_budget(report.total_lines, errors.len(), policy)?;
        }
    }
    // End-of-stream check catches short mostly-garbage streams too.
    check_budget(report.total_lines, errors.len(), policy)?;

    report.quarantined = errors.len();
    report.quarantine_samples = errors
        .samples()
        .iter()
        .map(|(lineno, e)| (*lineno, e.to_string()))
        .collect();

    report.deduped = if policy.dedup {
        store.finalize_dedup()
    } else {
        store.finalize();
        0
    };

    for (idx, samples) in skew_samples.iter_mut().enumerate() {
        let skew = median(samples);
        if skew != 0 {
            if let Some(name) = store.registry.sources.name(idx as u32) {
                report.per_source_skew_ms.insert(name.to_owned(), skew);
            }
        }
    }

    Ok((store, report))
}

/// Failure of [`load_logs`]; the messages name the file at fault.
#[derive(Debug)]
pub enum LoadError {
    /// A file could not be opened.
    Open {
        /// The path as given.
        path: String,
        /// Why opening failed.
        error: io::Error,
    },
    /// A file failed its resilient ingest pass.
    Ingest {
        /// The path as given.
        path: String,
        /// Why the pass failed.
        error: IngestError,
    },
    /// The path list named no file.
    NoFiles,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Open { path, error } => write!(f, "open {path:?}: {error}"),
            LoadError::Ingest { path, error } => write!(f, "ingest {path}: {error}"),
            LoadError::NoFiles => write!(f, "no log files given"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Open { error, .. } => Some(error),
            LoadError::Ingest { error, .. } => Some(error),
            LoadError::NoFiles => None,
        }
    }
}

/// Loads one TSV export, or several (comma-separated paths) merged into
/// one finalized store — the consolidation step of §5, for logs collected
/// from decentralized storage locations.
///
/// Each file goes through [`read_store_resilient`] under the default
/// [`IngestPolicy`]. Later files are merged into the first, and the merge
/// removes exact duplicates, so a file listed twice counts once. Returns
/// the store and each file's report, in the order given.
pub fn load_logs(paths: &str) -> Result<(LogStore, Vec<(String, IngestReport)>), LoadError> {
    let policy = IngestPolicy::default();
    let mut merged: Option<LogStore> = None;
    let mut reports = Vec::new();
    for path in paths.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let file = File::open(path).map_err(|error| LoadError::Open {
            path: path.to_owned(),
            error,
        })?;
        let (store, report) =
            read_store_resilient(BufReader::new(file), &policy).map_err(|error| {
                LoadError::Ingest {
                    path: path.to_owned(),
                    error,
                }
            })?;
        reports.push((path.to_owned(), report));
        match merged.as_mut() {
            None => merged = Some(store),
            Some(m) => m.merge(store),
        }
    }
    let mut store = merged.ok_or(LoadError::NoFiles)?;
    store.finalize();
    Ok((store, reports))
}

fn check_budget(
    lines: usize,
    quarantined: usize,
    policy: &IngestPolicy,
) -> Result<(), IngestError> {
    if lines == 0 {
        return Ok(());
    }
    if quarantined as f64 > policy.max_error_fraction * lines as f64 {
        return Err(IngestError::ErrorBudgetExceeded {
            lines,
            quarantined,
            max_fraction: policy.max_error_fraction,
        });
    }
    Ok(())
}

/// Median of the samples (0 when empty); lower-middle for even counts.
fn median(samples: &mut [i64]) -> i64 {
    if samples.is_empty() {
        return 0;
    }
    let mid = (samples.len() - 1) / 2;
    let (_, m, _) = samples.select_nth_unstable(mid);
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_record, ParseError};
    use crate::record::LogRecord;
    use crate::time::Millis;

    fn tsv(rows: &[(i64, i64, &str, &str)]) -> String {
        let mut store = LogStore::new();
        let mut buf = Vec::new();
        for &(client, server, source, text) in rows {
            let src = store.registry.source(source);
            let rec = LogRecord::minimal(src, Millis(client))
                .with_server_ts(Millis(server))
                .with_text(text);
            write_record(&mut buf, &rec, &store.registry).expect("write to Vec");
        }
        String::from_utf8(buf).expect("codec emits UTF-8")
    }

    #[test]
    fn clean_stream_parses_fully() {
        let data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.deduped, 0);
        assert_eq!(report.repaired_out_of_order, 0);
        assert!(report.per_source_skew_ms.is_empty());
    }

    #[test]
    fn quarantines_and_reports_bad_lines() {
        let mut data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        data.push_str("utter garbage\n");
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantine_samples.len(), 1);
        assert_eq!(report.quarantine_samples[0].0, 3);
        assert!((report.quarantine_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn error_budget_fails_fast() {
        let mut data = String::from("garbage one\ngarbage two\ngarbage three\n");
        data.push_str(&tsv(&[(10, 10, "A", "x")]));
        let policy = IngestPolicy {
            max_error_fraction: 0.5,
            min_lines_before_check: 2,
            ..IngestPolicy::default()
        };
        let err = read_store_resilient(data.as_bytes(), &policy).expect_err("must abort");
        match err {
            IngestError::ErrorBudgetExceeded { quarantined, .. } => assert!(quarantined >= 2),
            other => panic!("unexpected error: {other}"),
        }
        // The same stream passes a lenient policy.
        assert!(read_store_resilient(data.as_bytes(), &IngestPolicy::lenient()).is_ok());
    }

    #[test]
    fn budget_checked_at_end_of_short_streams() {
        // Shorter than min_lines_before_check, but 100% garbage: the
        // end-of-stream check must still trip.
        let data = "bad\nbad\nbad\n";
        let err = read_store_resilient(data.as_bytes(), &IngestPolicy::default())
            .expect_err("must abort");
        assert!(matches!(err, IngestError::ErrorBudgetExceeded { .. }));
    }

    #[test]
    fn out_of_order_is_counted_and_repaired() {
        let data = tsv(&[
            (30, 30, "A", "late"),
            (10, 10, "A", "early"),
            (20, 20, "A", "mid"),
        ]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.repaired_out_of_order, 2);
        let ts: Vec<i64> = store
            .records()
            .iter()
            .map(|r| r.client_ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 20, 30], "finalize repairs the order");
    }

    #[test]
    fn duplicates_are_absorbed_when_policy_says_so() {
        let data = tsv(&[(10, 10, "A", "x"), (10, 10, "A", "x"), (20, 20, "A", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.deduped, 1);
        assert_eq!(store.len(), 2);

        let keep = IngestPolicy {
            dedup: false,
            ..IngestPolicy::default()
        };
        let (store, report) = read_store_resilient(data.as_bytes(), &keep).expect("ok");
        assert_eq!(report.deduped, 0);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn skew_estimate_is_median_of_ts_gap() {
        // Source A's clock runs 5s ahead of the server; B is honest.
        let data = tsv(&[
            (15_000, 10_000, "A", "one"),
            (25_000, 20_000, "A", "two"),
            (35_000, 30_000, "A", "three"),
            (10_000, 10_000, "B", "x"),
        ]);
        let (_, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.per_source_skew_ms.get("A"), Some(&5_000));
        assert_eq!(report.per_source_skew_ms.get("B"), None);
    }

    #[test]
    fn invalid_utf8_line_is_quarantined_not_fatal() {
        let mut data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]).into_bytes();
        data.extend_from_slice(b"30\t30\tA\t-\t-\tINF\tbad \xff byte\n");
        data.extend_from_slice(tsv(&[(40, 40, "A", "z")]).as_bytes());
        let (store, report) =
            read_store_resilient(data.as_slice(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 3);
        assert_eq!((report.total_lines, report.parsed), (4, 3));
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            report.quarantine_samples,
            vec![(3, ParseError::InvalidUtf8.to_string())]
        );

        // It counts against the error budget like any malformed line.
        let strict = IngestPolicy {
            max_error_fraction: 0.2,
            ..IngestPolicy::default()
        };
        match read_store_resilient(data.as_slice(), &strict) {
            Err(IngestError::ErrorBudgetExceeded {
                lines, quarantined, ..
            }) => assert_eq!((lines, quarantined), (4, 1)),
            other => panic!("expected the budget to trip, got {other:?}"),
        }
    }

    fn temp_file(name: &str, contents: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("logdep-ingest-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn load_logs_merges_files_and_reports_each() {
        let a = temp_file("a.tsv", &tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]));
        let b = temp_file("b.tsv", &tsv(&[(15, 15, "B", "z"), (10, 10, "A", "x")]));
        let (store, reports) = load_logs(&format!("{a}, {b},{a}")).expect("ok");
        // A listed twice and the record shared by both files count once.
        assert_eq!(store.len(), 3);
        let ts: Vec<i64> = store
            .records()
            .iter()
            .map(|r| r.client_ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 15, 20]);
        let paths: Vec<&str> = reports.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec![a.as_str(), b.as_str(), a.as_str()]);
        assert!(reports.iter().all(|(_, r)| r.parsed == 2));
        for path in [a, b] {
            std::fs::remove_file(path).expect("remove temp file");
        }
    }

    #[test]
    fn load_logs_errors_name_the_file() {
        let missing = load_logs("/no/such/logs.tsv").expect_err("missing file");
        assert!(
            missing
                .to_string()
                .starts_with("open \"/no/such/logs.tsv\": "),
            "{missing}"
        );
        let garbage = temp_file("garbage.tsv", "bad\nbad\n");
        let bad = load_logs(&garbage).expect_err("all garbage");
        assert!(
            bad.to_string()
                .starts_with(&format!("ingest {garbage}: error budget exceeded")),
            "{bad}"
        );
        std::fs::remove_file(garbage).expect("remove temp file");
        let none = load_logs(" , ").expect_err("no paths");
        assert_eq!(none.to_string(), "no log files given");
    }

    #[test]
    fn empty_stream_is_fine() {
        let (store, report) =
            read_store_resilient("".as_bytes(), &IngestPolicy::default()).expect("ok");
        assert!(store.is_empty());
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn report_summary_mentions_counts() {
        let report = IngestReport {
            total_lines: 10,
            parsed: 8,
            quarantined: 2,
            ..IngestReport::default()
        };
        let s = report.summary();
        assert!(s.contains("10 lines"));
        assert!(s.contains("8 parsed"));
        assert!(s.contains("2 quarantined"));
    }
}
