//! The swap path: the only serve-time module allowed to touch the
//! filesystem or the durable store.
//!
//! A reload re-ingests the log export(s), re-reads the service
//! directory, warms the evidence cache from the durable store mined by
//! `logdep daily` (when one is given), and builds a fresh
//! [`ModelIndex`]. The server's orchestrator thread is the only caller
//! at serve time; request handlers are denied any path into this
//! module by the `blocking-io-in-handler` workspace lint.

use crate::index::{IndexPlan, ModelIndex};
use crate::ServeError;
use logdep::{DurableStore, EvidenceCache, NoopPolicy, PipelineConfig};
use logdep_logstore::load_logs;
use logdep_obs::{record, Field};
use logdep_par::ParConfig;
use logdep_sim::ServiceDirectory;
use std::path::PathBuf;

/// Where and how to (re)build the index from disk.
#[derive(Debug, Clone)]
pub struct SnapshotSource {
    /// Comma-separated TSV log export paths (resilient ingest).
    pub logs: String,
    /// Service-directory XML path, or `None` to skip L3.
    pub directory: Option<String>,
    /// Durable evidence store to warm the cache from, if present.
    pub store: Option<PathBuf>,
    /// The window schedule to mine.
    pub plan: IndexPlan,
    /// Detector configuration.
    pub cfg: PipelineConfig,
}

/// Loads everything from disk and builds index `generation`.
///
/// Emits a `reload` span pair (begin before the first byte is read,
/// end with the mined day count) so a traced serve run shows every
/// swap; the per-window spans land in the index's own captured report.
/// Once the reload has reached its durable store, the end also carries
/// `cache`: how warming the evidence cache went ([`CacheWarmth`]).
pub fn run_reload(source: &SnapshotSource, generation: u64) -> Result<ModelIndex, ServeError> {
    record(|r| r.span_begin("reload", &[("generation", Field::from(generation))]));
    let mut warmth = None;
    let result = reload_inner(source, generation, &mut warmth);
    let days = result.as_ref().map(|idx| idx.days().count()).unwrap_or(0);
    record(|r| {
        let mut fields = vec![
            ("generation", Field::from(generation)),
            ("days", Field::from(days)),
            ("ok", Field::from(result.is_ok())),
        ];
        if let Some(warmth) = warmth {
            fields.push(("cache", Field::from(warmth.label())));
        }
        r.span_end("reload", &fields);
    });
    result
}

fn reload_inner(
    source: &SnapshotSource,
    generation: u64,
    warmth: &mut Option<CacheWarmth>,
) -> Result<ModelIndex, ServeError> {
    // Parse on the calling thread: at serve time the cores belong to the
    // request workers, and a wider reload ingest slowed their reads.
    let (store, _reports) = load_logs(&source.logs, &ParConfig::serial())
        .map_err(|e| ServeError::Build(e.to_string()))?;
    let ids = match &source.directory {
        Some(path) => directory_ids(path)?,
        None => Vec::new(),
    };
    let (mut cache, warmed) = warm_cache(source);
    *warmth = Some(warmed);
    ModelIndex::from_store(
        &store,
        &ids,
        &source.cfg,
        &source.plan,
        &mut cache,
        generation,
    )
}

fn directory_ids(path: &str) -> Result<Vec<String>, ServeError> {
    let xml = std::fs::read_to_string(path)
        .map_err(|e| ServeError::Build(format!("open {path:?}: {e}")))?;
    let dir = ServiceDirectory::from_xml(&xml)
        .map_err(|e| ServeError::Build(format!("directory {path}: {e}")))?;
    Ok(dir.ids().iter().map(|s| s.to_string()).collect())
}

/// How a reload warmed its evidence cache from the durable store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheWarmth {
    /// The store opened clean; the cache is what it held.
    Warm,
    /// No store was given, or none exists yet: a cold cache.
    Cold,
    /// The store failed to open, or opening found corruption (its
    /// damaged regions are quarantined): at best a partly warm cache,
    /// and `logdep cache repair` has work to do.
    Error,
}

impl CacheWarmth {
    /// The `cache` field value on the `reload` span end.
    pub fn label(self) -> &'static str {
        match self {
            CacheWarmth::Warm => "warm",
            CacheWarmth::Cold => "cold",
            CacheWarmth::Error => "error",
        }
    }
}

/// Clones the evidence cache out of the durable store, if one exists.
/// A missing or unreadable store degrades to a cold cache — serving
/// must come up even when mining state is damaged (repair is `logdep
/// cache repair`'s job, not the server's) — and the returned
/// [`CacheWarmth`] says which case it was.
fn warm_cache(source: &SnapshotSource) -> (EvidenceCache, CacheWarmth) {
    let Some(path) = &source.store else {
        return (EvidenceCache::new(), CacheWarmth::Cold);
    };
    if !path.exists() {
        return (EvidenceCache::new(), CacheWarmth::Cold);
    }
    match DurableStore::open_existing(path, &mut NoopPolicy) {
        Ok(store) if store.events().iter().any(|e| e.corruption) => {
            (store.cache().clone(), CacheWarmth::Error)
        }
        Ok(store) => (store.cache().clone(), CacheWarmth::Warm),
        Err(_) => (EvidenceCache::new(), CacheWarmth::Error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_obs::{set_recorder, take_recorder, Phase, Recorder};
    use std::path::Path;

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("logdep-loader-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    /// A one-day export and a source that mines it with no detectors.
    fn source(dir: &Path, store: Option<PathBuf>) -> SnapshotSource {
        let logs = dir.join("logs.tsv");
        std::fs::write(&logs, "10\t10\tA\t-\t-\tINF\tx\n20\t20\tB\t-\t-\tINF\ty\n")
            .expect("write logs");
        SnapshotSource {
            logs: logs.to_string_lossy().into_owned(),
            directory: None,
            store,
            plan: IndexPlan {
                start_day: 0,
                window_days: 1,
                advance_days: 1,
                steps: 1,
            },
            cfg: PipelineConfig {
                l1: None,
                l2: None,
                l3: None,
                par: ParConfig::serial(),
            },
        }
    }

    /// Runs one reload under a fresh recorder; returns whether it
    /// succeeded and the `cache` field of its `reload` span end.
    fn traced_reload(source: &SnapshotSource) -> (bool, Option<Field>) {
        set_recorder(Recorder::new());
        let ok = run_reload(source, 1).is_ok();
        let recorder = take_recorder().expect("recorder installed");
        let end = recorder.sink.events().last().expect("span end").clone();
        assert_eq!((end.name.as_str(), end.phase), ("reload", Phase::End));
        let cache = end.fields.into_iter().find(|(key, _)| key == "cache");
        (ok, cache.map(|(_, value)| value))
    }

    #[test]
    fn no_store_is_a_cold_cache() {
        let dir = scratch_dir("cold");
        let none = source(&dir, None);
        assert_eq!(warm_cache(&none).1, CacheWarmth::Cold);
        let missing = source(&dir, Some(dir.join("absent.ck")));
        assert_eq!(warm_cache(&missing).1, CacheWarmth::Cold);
        assert_eq!(traced_reload(&missing), (true, Some(Field::from("cold"))));
        std::fs::remove_dir_all(dir).expect("remove scratch dir");
    }

    #[test]
    fn garbled_store_is_reported_on_the_reload_span() {
        let dir = scratch_dir("garbled");
        let store = dir.join("cache.ck");
        std::fs::write(&store, b"this is not a checkpoint\xff\x00\x13").expect("write store");
        let src = source(&dir, Some(store));
        let (cache, warmth) = warm_cache(&src);
        assert_eq!(warmth, CacheWarmth::Error);
        assert!(cache.is_empty(), "nothing survives a garbled checkpoint");
        // The reload still comes up, on a cold cache, and says why.
        assert_eq!(traced_reload(&src), (true, Some(Field::from("error"))));

        // A store that cannot even be read is an error too.
        let unreadable = source(&dir, Some(dir.clone()));
        assert_eq!(warm_cache(&unreadable).1, CacheWarmth::Error);
        std::fs::remove_dir_all(dir).expect("remove scratch dir");
    }

    #[test]
    fn failed_reload_before_the_store_has_no_cache_field() {
        let dir = scratch_dir("failed");
        let mut src = source(&dir, None);
        src.logs = dir.join("absent.tsv").to_string_lossy().into_owned();
        assert_eq!(traced_reload(&src), (false, None));
        std::fs::remove_dir_all(dir).expect("remove scratch dir");
    }
}
