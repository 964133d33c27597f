//! Sliding-window incremental pipeline driver.
//!
//! The "around the clock" deployment of §1.2: re-mine the trailing
//! window (say, 7 days) once per day. The batch runners would replay
//! the whole window; the driver here routes L1 and L3 through the
//! [`EvidenceCache`] so an advance only recomputes the day that entered
//! the window — the rest hits on content address.
//!
//! Equality with the batch runners is structural, not statistical:
//!
//! * **L1** — slot evidence is cached per slot ([`run_l1_cached`]) and
//!   combined by the very same thresholding pass.
//! * **L2** — mined fresh over the whole window by the batch runner
//!   [`run_l2_pool`]. A cache key for L2 would need the window's
//!   sessions, and rebuilding them is most of what L2 costs, so there
//!   is nothing for a cache to save.
//! * **L3** — citation counts are additive over any partition of the
//!   records, so the window splits at absolute day boundaries and each
//!   chunk's counts are cached under a digest of its records.

use crate::cache::{l3_fingerprint, run_l1_cached, CacheStats, EvidenceCache, EvidenceKey, Fnv};
use crate::health::{
    record_detector_health, run_detector, DetectorHealth, DetectorKind, PipelineConfig,
};
use crate::l1::L1Result;
use crate::l2::{run_l2_pool, L2Config, L2Result};
use crate::l3::{detect, CitationScan, L3Config, L3Result};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis};
use logdep_obs::{record, Field};
use logdep_par::ParConfig;
use std::collections::BTreeMap;

/// Everything one windowed pipeline pass produced, plus the cache
/// traffic it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// The analysis window.
    pub window: TimeRange,
    /// L1 result (`None` when disabled in the [`PipelineConfig`] or
    /// failed — see `health`).
    pub l1: Option<L1Result>,
    /// L2 result, likewise.
    pub l2: Option<L2Result>,
    /// L3 result, likewise.
    pub l3: Option<L3Result>,
    /// One entry per detector, in L1, L2, L3 order.
    pub health: Vec<DetectorHealth>,
    /// Hit/miss counters of *this pass only*.
    pub stats: CacheStats,
}

/// Runs every enabled technique of `cfg` over `window`, L1 and L3
/// through the cache, then evicts entries that slid out of the window.
/// This is the only function that runs more than one detector: the
/// batch [`crate::health::run_pipeline`] is this pass on a fresh cache.
///
/// A detector that errors does not abort the window: its result is
/// `None` and its [`DetectorHealth`] row carries the error, so the
/// function returns `Ok` whenever the window ran. The health rows are
/// recorded in fixed L1/L2/L3 order from the calling thread, so the
/// trace is identical at every pool width.
pub fn run_window_cached(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &PipelineConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<WindowOutcome> {
    let before = cache.stats();
    record(|r| {
        r.span_begin(
            "window",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let sources = store.active_sources();
    let (h1, l1) = run_detector(
        DetectorKind::L1,
        cfg.l1.as_ref(),
        |c| run_l1_cached(store, window, &sources, c, &cfg.par, cache),
        |r| r.detected.len(),
    );
    let (h2, l2) = run_detector(
        DetectorKind::L2,
        cfg.l2.as_ref(),
        |c| run_l2_windowed(store, window, c, &cfg.par),
        |r| r.detected.len(),
    );
    let (h3, l3) = run_detector(
        DetectorKind::L3,
        cfg.l3.as_ref(),
        |c| run_l3_windowed_cached(store, window, service_ids, c, cache),
        |r| r.detected.len(),
    );
    let health = vec![h1, h2, h3];
    health.iter().for_each(record_detector_health);
    cache.evict_outside(window);
    let stats = cache.stats().since(&before);
    record(|r| {
        r.span_end(
            "window",
            &[
                ("hits", Field::from(stats.hits())),
                ("misses", Field::from(stats.misses())),
                ("entries", Field::from(cache.len())),
            ],
        );
    });
    Ok(WindowOutcome {
        window,
        l1,
        l2,
        l3,
        health,
        stats,
    })
}

/// Technique L2 over `window` inside a `window.l2` span: the batch
/// runner [`run_l2_pool`], with no cache in between.
fn run_l2_windowed(
    store: &LogStore,
    window: TimeRange,
    cfg: &L2Config,
    par: &ParConfig,
) -> crate::Result<L2Result> {
    cfg.validate()?;
    record(|r| {
        r.span_begin(
            "window.l2",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let result = run_l2_pool(store, window, cfg, par)?;
    record(|r| {
        r.span_end(
            "window.l2",
            &[("detected", Field::from(result.detected.len()))],
        );
    });
    Ok(result)
}

/// Technique L2 over `window` as the driver runs it, on a serial pool:
/// [`run_l2_pool`] inside the `window.l2` span. `cache` is neither read
/// nor written, because L2 keeps no cache entries; the argument stays
/// for callers written when it had them.
pub fn run_l2_windowed_cached(
    store: &LogStore,
    window: TimeRange,
    cfg: &L2Config,
    _cache: &mut EvidenceCache,
) -> crate::Result<L2Result> {
    run_l2_windowed(store, window, cfg, &ParConfig::serial())
}

/// Technique L3 over `window` with per-day-chunk count memoization —
/// byte-identical to [`crate::l3::run_l3_pool`] on the same window.
/// Each chunk's miss path is that scan over the chunk on a serial pool;
/// the automaton is compiled at the first miss and serves every other.
pub fn run_l3_windowed_cached(
    store: &LogStore,
    window: TimeRange,
    service_ids: &[String],
    cfg: &L3Config,
    cache: &mut EvidenceCache,
) -> crate::Result<L3Result> {
    record(|r| {
        r.span_begin(
            "window.l3",
            &[
                ("start_ms", Field::from(window.start.0)),
                ("end_ms", Field::from(window.end.0)),
            ],
        );
    });
    let (hits_before, misses_before) = (cache.stats.l3_hits, cache.stats.l3_misses);
    let fp = l3_fingerprint(cfg, service_ids);
    let mut citations: BTreeMap<(logdep_logstore::SourceId, usize), u64> = BTreeMap::new();
    let mut scanned = 0u64;
    let mut stopped = 0u64;

    let mut scan: Option<CitationScan> = None;
    let chunks = day_chunks(window);
    let n_chunks = chunks.len();
    for chunk in chunks {
        let records = store.range(chunk);
        let mut digest = Fnv::new();
        digest.push_u64(records.len() as u64);
        for rec in records {
            digest.push_i64(rec.client_ts.0);
            digest.push_u64(u64::from(rec.source.0));
            digest.push_str(store.text(rec));
        }
        let key = EvidenceKey {
            fingerprint: fp,
            start: chunk.start.0,
            end: chunk.end.0,
            digest: digest.finish(),
        };
        let day = match cache.l3.get(&key) {
            Some(stored) => {
                cache.stats.l3_hits += 1;
                stored.clone()
            }
            None => {
                cache.stats.l3_misses += 1;
                let fresh = scan
                    .get_or_insert_with(|| CitationScan::new(service_ids, cfg))
                    .count(store, chunk, &ParConfig::serial());
                cache.l3.insert(key, fresh.clone());
                fresh
            }
        };
        for (k, c) in day.citations {
            let slot = citations.entry(k).or_insert(0);
            *slot = slot.saturating_add(c);
        }
        scanned = scanned.saturating_add(day.scanned);
        stopped = stopped.saturating_add(day.stopped);
    }

    let detected = detect(&citations, cfg.min_citations);
    let (hits, misses) = (
        cache.stats.l3_hits - hits_before,
        cache.stats.l3_misses - misses_before,
    );
    record(|r| {
        r.counter_add("cache.l3.hits", hits);
        r.counter_add("cache.l3.misses", misses);
        r.span_end(
            "window.l3",
            &[
                ("days", Field::from(n_chunks)),
                ("hits", Field::from(hits)),
                ("misses", Field::from(misses)),
                ("detected", Field::from(detected.len())),
            ],
        );
    });
    Ok(L3Result {
        detected,
        citations,
        stopped_logs: usize::try_from(stopped).unwrap_or(usize::MAX),
        scanned_logs: usize::try_from(scanned).unwrap_or(usize::MAX),
    })
}

/// Splits `window` at absolute day boundaries (partial edge chunks
/// allowed). Chunk addresses are absolute, so a chunk keeps its cache
/// key as the window slides.
fn day_chunks(window: TimeRange) -> Vec<TimeRange> {
    let mut chunks = Vec::new();
    let mut t = window.start;
    while t < window.end {
        let next = Millis((t.0.div_euclid(MS_PER_DAY) + 1).saturating_mul(MS_PER_DAY));
        let end = next.min(window.end);
        chunks.push(TimeRange::new(t, end));
        t = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{run_daily_durable, DailyPlan, NoopPolicy};
    use logdep_logstore::LogRecord;

    #[test]
    fn day_chunks_split_at_absolute_boundaries() {
        let w = TimeRange::new(Millis(MS_PER_DAY / 2), Millis(2 * MS_PER_DAY + 7));
        let chunks = day_chunks(w);
        assert_eq!(
            chunks,
            vec![
                TimeRange::new(Millis(MS_PER_DAY / 2), Millis(MS_PER_DAY)),
                TimeRange::new(Millis(MS_PER_DAY), Millis(2 * MS_PER_DAY)),
                TimeRange::new(Millis(2 * MS_PER_DAY), Millis(2 * MS_PER_DAY + 7)),
            ]
        );
        assert!(day_chunks(TimeRange::new(Millis(5), Millis(5))).is_empty());
    }

    #[test]
    fn aligned_window_chunks_exactly() {
        let w = TimeRange::new(Millis(MS_PER_DAY), Millis(3 * MS_PER_DAY));
        let chunks = day_chunks(w);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0], TimeRange::day(1));
        assert_eq!(chunks[1], TimeRange::day(2));
    }

    /// Two days of AppA citing service SVCB next to AppB's own logs,
    /// dense enough for every detector to have input.
    fn two_day_store() -> (LogStore, Vec<String>) {
        let mut store = LogStore::new();
        let a = store.registry.source("AppA");
        let b = store.registry.source("AppB");
        let user = store.registry.user("alice");
        for i in 0..2 * 24 * 12 {
            let t = i * 5 * 60_000;
            store.push(
                LogRecord::minimal(a, Millis(t))
                    .with_user(user)
                    .with_text("Invoke SVCB [fct [query]]"),
            );
            store.push(
                LogRecord::minimal(b, Millis(t + 120))
                    .with_user(user)
                    .with_text("handling request"),
            );
        }
        store.finalize();
        (store, vec!["SVCB".to_owned()])
    }

    #[test]
    fn failing_l2_still_yields_l1_and_l3_windows() {
        let (store, ids) = two_day_store();
        let window = TimeRange::new(Millis(0), Millis(2 * MS_PER_DAY));
        let healthy_cfg = PipelineConfig::all_defaults_with_par(logdep_par::ParConfig::serial());
        let cfg = PipelineConfig {
            l2: Some(L2Config {
                alpha: 2.0,
                ..L2Config::default()
            }),
            ..healthy_cfg.clone()
        };
        let healthy = run_window_cached(
            &store,
            window,
            &ids,
            &healthy_cfg,
            &mut EvidenceCache::new(),
        )
        .expect("healthy window");
        let degraded = run_window_cached(&store, window, &ids, &cfg, &mut EvidenceCache::new())
            .expect("a failing detector must not abort the window");
        assert_eq!(degraded.l1, healthy.l1);
        assert_eq!(degraded.l3, healthy.l3);
        assert!(degraded.l3.is_some() && degraded.l2.is_none());
        let l2 = &degraded.health[1];
        assert_eq!(l2.detector, DetectorKind::L2);
        assert!(l2.enabled && !l2.ok, "{l2:?}");
        let error = l2.error.as_deref().unwrap_or_default();
        assert!(error.contains("alpha"), "{error}");
        assert!(degraded.health[0].ok && degraded.health[2].ok);

        let path = std::env::temp_dir()
            .join(format!("logdep-window-{}", std::process::id()))
            .join("degraded.ck");
        std::fs::create_dir_all(path.parent().expect("parent")).expect("scratch dir");
        let plan = DailyPlan {
            start_day: 0,
            window_days: 1,
            advance_days: 1,
            steps: 2,
        };
        let report = run_daily_durable(
            &store,
            &ids,
            &cfg,
            &plan,
            &path,
            false,
            &mut NoopPolicy,
            &mut |_, _| {},
        )
        .expect("daily run completes with L2 down");
        assert_eq!(report.steps_run, 2);
        assert!(report.checkpointed);
        assert!(path.exists());
        assert!(!report.final_outcome.health[1].ok);
        assert!(report.final_outcome.l1.is_some() && report.final_outcome.l3.is_some());
    }
}
