//! The citation-scanning runner of technique L3.

use crate::cache::L3DayCounts;
use crate::model::AppServiceModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId, StoredRecord};
use logdep_par::{par_chunks_fold, ParConfig};
use logdep_textmatch::{MatchMode, Matcher, MatcherBuilder, Scan, ScanScratch, StopPatterns};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of technique L3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L3Config {
    /// Stop patterns (globs over the whole message). The paper's
    /// deployment used 10; pass an empty list for the no-stop-patterns
    /// ablation of §4.8.
    pub stop_patterns: Vec<String>,
    /// Require directory ids to match as whole words (`UPSRV` must not
    /// fire inside `UPSRV2`). On by default.
    pub whole_word: bool,
    /// Minimum number of citing logs before a dependency is declared.
    /// The paper's rule is "if and only if there are logs" — i.e. 1.
    pub min_citations: u64,
}

impl Default for L3Config {
    fn default() -> Self {
        Self {
            stop_patterns: Vec::new(),
            whole_word: true,
            min_citations: 1,
        }
    }
}

impl L3Config {
    /// Config with the given stop patterns.
    pub fn with_stop_patterns<S: AsRef<str>>(patterns: impl IntoIterator<Item = S>) -> Self {
        Self {
            stop_patterns: patterns
                .into_iter()
                .map(|p| p.as_ref().to_owned())
                .collect(),
            ..Self::default()
        }
    }
}

/// Result of an L3 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L3Result {
    /// Dependencies declared (service index = position in the id list
    /// passed to [`run_l3_pool`]).
    pub detected: AppServiceModel,
    /// Citation counts per `(app, service index)`, including pairs
    /// below `min_citations`. Ordered so snapshots and serialization
    /// walk the counters in a stable key order.
    pub citations: BTreeMap<(SourceId, usize), u64>,
    /// Records skipped because a stop pattern matched.
    pub stopped_logs: usize,
    /// Records scanned (after stop filtering).
    pub scanned_logs: usize,
}

/// One L3 configuration compiled for scanning: the directory ids and
/// the stop globs in one case-folded automaton. Built once per run and
/// shared read-only by every worker and every day chunk.
pub(crate) struct CitationScan {
    matcher: Matcher,
}

impl CitationScan {
    /// Compiles `service_ids` (service index = position among the
    /// non-empty ids) and `cfg`'s stop patterns.
    pub(crate) fn new(service_ids: &[String], cfg: &L3Config) -> Self {
        let mut builder = MatcherBuilder::new();
        builder
            .mode(if cfg.whole_word {
                MatchMode::WholeWord
            } else {
                MatchMode::Substring
            })
            .add_all(service_ids.iter().map(String::as_str))
            .stop_patterns(&StopPatterns::new(&cfg.stop_patterns));
        Self {
            matcher: builder.build(),
        }
    }

    /// Citation counts and stop/scan tallies of the records in `range`,
    /// on the worker pool `par`. Every line is scanned independently and
    /// the shard counters merge by saturating addition, so the counts
    /// equal the serial scan at any thread count.
    pub(crate) fn count(&self, store: &LogStore, range: TimeRange, par: &ParConfig) -> L3DayCounts {
        let ids = self.matcher.pattern_count();
        let width = store.registry.source_count() * ids;
        let scan = par_chunks_fold(
            par,
            store.range(range),
            || ScanShard::new(width),
            |mut shard: ScanShard, rec: &StoredRecord| {
                match self.matcher.scan(store.text(rec), &mut shard.scratch) {
                    Scan::Stopped => shard.stopped += 1,
                    Scan::Cited(cited) => {
                        shard.scanned += 1;
                        let row = rec.source.index() * ids;
                        for &svc in cited {
                            if let Some(n) = shard.counts.get_mut(row + svc as usize) {
                                *n += 1;
                            }
                        }
                    }
                }
                shard
            },
            ScanShard::merge,
        );
        let mut citations = BTreeMap::new();
        for (source, row) in scan.counts.chunks(ids.max(1)).enumerate() {
            let app = SourceId(u32::try_from(source).unwrap_or(u32::MAX));
            for (svc, &n) in row.iter().enumerate().filter(|(_, &n)| n > 0) {
                citations.insert((app, svc), n);
            }
        }
        L3DayCounts {
            citations,
            scanned: scan.scanned,
            stopped: scan.stopped,
        }
    }
}

/// Per-shard scan accumulator: dense citation counters plus the
/// stop/scan tallies, and the scan's scratch so the per-record loop
/// allocates nothing. Addition-only, so shards merge order-free.
struct ScanShard {
    /// Citations of service `s` by source `a` at `a × ids + s`.
    counts: Vec<u64>,
    stopped: u64,
    scanned: u64,
    scratch: ScanScratch,
}

impl ScanShard {
    fn new(width: usize) -> Self {
        Self {
            counts: vec![0; width],
            stopped: 0,
            scanned: 0,
            scratch: ScanScratch::default(),
        }
    }

    fn merge(mut self, other: ScanShard) -> ScanShard {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine = mine.saturating_add(theirs);
        }
        self.stopped = self.stopped.saturating_add(other.stopped);
        self.scanned = self.scanned.saturating_add(other.scanned);
        self
    }
}

/// The dependencies whose citation count reaches `min_citations`.
pub(crate) fn detect(
    citations: &BTreeMap<(SourceId, usize), u64>,
    min_citations: u64,
) -> AppServiceModel {
    let mut detected = AppServiceModel::new();
    for (&(app, svc), &count) in citations {
        if count >= min_citations {
            detected.insert(app, svc);
        }
    }
    detected
}

/// Runs technique L3 over the records in `range`, scanning for the
/// given directory ids on the worker pool `par`.
///
/// The ids and stop patterns compile once into one automaton shared
/// read-only; the log lines fan out in contiguous chunks, each worker
/// counting citations into private counters. Every line is scanned
/// independently and the shards merge by saturating addition, so the
/// counts equal the serial scan at any thread count.
pub fn run_l3_pool(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    par: &ParConfig,
) -> crate::Result<L3Result> {
    let counts = CitationScan::new(service_ids, cfg).count(store, range, par);
    Ok(L3Result {
        detected: detect(&counts.citations, cfg.min_citations),
        citations: counts.citations,
        stopped_logs: usize::try_from(counts.stopped).unwrap_or(usize::MAX),
        scanned_logs: usize::try_from(counts.scanned).unwrap_or(usize::MAX),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{LogRecord, Millis};

    fn ids(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    fn store_with_texts(rows: &[(&str, &str)]) -> LogStore {
        let mut store = LogStore::new();
        for (i, (src, text)) in rows.iter().enumerate() {
            let s = store.registry.source(src);
            store.push(LogRecord::minimal(s, Millis(i as i64 * 10)).with_text(*text));
        }
        store.finalize();
        store
    }

    fn whole() -> TimeRange {
        TimeRange::new(Millis(0), Millis(1_000_000))
    }

    #[test]
    fn detects_citation_dependencies() {
        let store = store_with_texts(&[
            (
                "AppA",
                "Invoke externalService [fct [notify] server [x:9999/dpinote]]",
            ),
            ("AppA", "(DPINOTE) notify( $p )"),
            ("AppB", "heartbeat ok"),
        ]);
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["DPINOTE", "OTHER"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        let a = store.registry.find_source("AppA").unwrap();
        assert!(res.detected.contains(a, 0));
        assert_eq!(res.detected.len(), 1);
        assert_eq!(res.citations[&(a, 0)], 2);
        assert_eq!(res.scanned_logs, 3);
        assert_eq!(res.stopped_logs, 0);
    }

    #[test]
    fn stop_patterns_suppress_server_side_logs() {
        let store = store_with_texts(&[
            ("Server", "Serving request [fct [q] group [SVC]] for AppA"),
            ("AppA", "calling SVC.q for record 1"),
        ]);
        let cfg = L3Config::with_stop_patterns(["serving request*"]);
        let res =
            run_l3_pool(&store, whole(), &ids(&["SVC"]), &cfg, &ParConfig::default()).unwrap();
        let a = store.registry.find_source("AppA").unwrap();
        let srv = store.registry.find_source("Server").unwrap();
        assert!(res.detected.contains(a, 0));
        assert!(!res.detected.contains(srv, 0), "inverted dep not stopped");
        assert_eq!(res.stopped_logs, 1);

        // Without stop patterns the inverted dependency appears (§4.8).
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["SVC"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        assert!(res.detected.contains(srv, 0));
    }

    #[test]
    fn whole_word_prevents_renamed_id_hits() {
        let store = store_with_texts(&[("App", "calling UPSRV.update for record 2")]);
        // Directory only publishes the renamed id UPSRV2.
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["UPSRV2"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        assert!(
            res.detected.is_empty(),
            "UPSRV2 must not match inside UPSRV text"
        );

        // Substring mode (whole_word = false) would *also* not match here
        // (UPSRV2 is longer); but the reverse trap is covered:
        let store = store_with_texts(&[("App", "calling UPSRV2.update for record 2")]);
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["UPSRV"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        assert!(res.detected.is_empty(), "whole-word must reject prefix hit");
        let lax = L3Config {
            whole_word: false,
            ..L3Config::default()
        };
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["UPSRV"]),
            &lax,
            &ParConfig::default(),
        )
        .unwrap();
        assert_eq!(res.detected.len(), 1, "substring mode accepts prefix hit");
    }

    #[test]
    fn min_citations_threshold() {
        let store =
            store_with_texts(&[("App", "one SVC citation"), ("App", "another SVC citation")]);
        let strict = L3Config {
            min_citations: 3,
            ..L3Config::default()
        };
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["SVC"]),
            &strict,
            &ParConfig::default(),
        )
        .unwrap();
        assert!(res.detected.is_empty());
        let a = store.registry.find_source("App").unwrap();
        assert_eq!(res.citations[&(a, 0)], 2, "counts still recorded");
    }

    #[test]
    fn range_restricts_scan() {
        let store = store_with_texts(&[
            ("App", "SVC early"), // t = 0
            ("App", "SVC late"),  // t = 10
        ]);
        let res = run_l3_pool(
            &store,
            TimeRange::new(Millis(5), Millis(100)),
            &ids(&["SVC"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        let a = store.registry.find_source("App").unwrap();
        assert_eq!(res.citations[&(a, 0)], 1);
        assert_eq!(res.scanned_logs, 1);
    }

    #[test]
    fn multiple_ids_in_one_log() {
        let store = store_with_texts(&[("App", "exception via GATEWAY calling (ARCHIVE)")]);
        let res = run_l3_pool(
            &store,
            whole(),
            &ids(&["GATEWAY", "ARCHIVE"]),
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        assert_eq!(res.detected.len(), 2);
    }

    #[test]
    fn empty_directory_detects_nothing() {
        let store = store_with_texts(&[("App", "anything at all")]);
        let res = run_l3_pool(
            &store,
            whole(),
            &[],
            &L3Config::default(),
            &ParConfig::default(),
        )
        .unwrap();
        assert!(res.detected.is_empty());
        assert_eq!(res.scanned_logs, 1);
    }
}
