//! The swap path: the only serve-time module allowed to touch the
//! filesystem or the durable store.
//!
//! A reload re-ingests the log export(s), re-reads the service
//! directory, warms the evidence cache from the durable store mined by
//! `logdep daily` (when one is given), and builds a fresh
//! [`ModelIndex`]. The store is read through [`open_read_only`], the
//! recovery pass `cache verify` runs, so a reload never writes it: a
//! damaged store is reported on the `reload` span and left for `logdep
//! cache repair`. The server's orchestrator thread is the only caller
//! at serve time; request handlers are denied any path into this
//! module by the `blocking-io-in-handler` workspace lint.

use crate::index::ModelIndex;
use crate::ServeError;
use logdep::{open_read_only, DailyPlan, EvidenceCache, PipelineConfig};
use logdep_logstore::{load_logs, IngestPolicy};
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
    pub plan: DailyPlan,
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
    let (store, _reports) = load_logs(&source.logs, &IngestPolicy::with_par(ParConfig::serial()))
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
    /// The store read clean; the cache is what it restores.
    Warm,
    /// No store was given, or none exists yet: a cold cache.
    Cold,
    /// The store could not be read, or reading it found corruption: at
    /// best a partly warm cache. The reload leaves the damage on disk
    /// as it found it; `logdep cache repair` has work to do.
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

/// Takes the evidence cache the durable store restores, if one exists,
/// without writing the store. A missing or unreadable store degrades to
/// a cold cache — serving must come up even when mining state is
/// damaged (repair is `logdep cache repair`'s job, not the server's) —
/// and the returned [`CacheWarmth`] says which case it was.
fn warm_cache(source: &SnapshotSource) -> (EvidenceCache, CacheWarmth) {
    let Some(path) = &source.store else {
        return (EvidenceCache::new(), CacheWarmth::Cold);
    };
    if !path.exists() {
        return (EvidenceCache::new(), CacheWarmth::Cold);
    }
    match open_read_only(path) {
        Ok((cache, report)) if report.clean() => (cache, CacheWarmth::Warm),
        Ok((cache, _)) => (cache, CacheWarmth::Error),
        Err(_) => (EvidenceCache::new(), CacheWarmth::Error),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep::l2::L2Config;
    use logdep::{
        run_daily_durable, verify_store, DurableOp, NoopPolicy, WriteDecision, WritePolicy,
    };
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
            plan: DailyPlan {
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

    /// Lets every write through until `op`, then simulates a crash.
    struct CrashAt(DurableOp);

    impl WritePolicy for CrashAt {
        fn before_write(&mut self, op: DurableOp, _bytes: &[u8]) -> WriteDecision {
            if op == self.0 {
                WriteDecision::Abort { partial: None }
            } else {
                WriteDecision::Proceed
            }
        }
    }

    /// A store whose checkpoint holds plan A and whose journal holds the
    /// records of a plan-B run killed before its checkpoint.
    fn stale_plan_store(dir: &Path, src: &SnapshotSource) -> PathBuf {
        let path = dir.join("cache.ck");
        let (logs, _) =
            load_logs(&src.logs, &IngestPolicy::with_par(ParConfig::serial())).expect("load logs");
        let cfg = PipelineConfig {
            l2: Some(L2Config::default()),
            ..src.cfg.clone()
        };
        let plan_a = src.plan;
        let plan_b = DailyPlan { steps: 2, ..plan_a };
        run_daily_durable(
            &logs,
            &[],
            &cfg,
            &plan_a,
            &path,
            false,
            &mut NoopPolicy,
            &mut |_, _| {},
        )
        .expect("plan A run");
        let killed = run_daily_durable(
            &logs,
            &[],
            &cfg,
            &plan_b,
            &path,
            false,
            &mut CrashAt(DurableOp::CheckpointWrite),
            &mut |_, _| {},
        );
        assert!(killed.is_err(), "plan B run was not killed");
        path
    }

    /// The bytes of the store's checkpoint, journal, ledger and
    /// quarantine files (`None` when absent).
    fn store_files(path: &Path) -> Vec<Option<Vec<u8>>> {
        ["", ".journal", ".ledger", ".quarantine"]
            .iter()
            .map(|suffix| {
                let mut file = path.as_os_str().to_os_string();
                file.push(suffix);
                std::fs::read(PathBuf::from(file)).ok()
            })
            .collect()
    }

    #[test]
    fn a_reload_leaves_the_store_untouched() {
        let dir = scratch_dir("untouched");
        let mut src = source(&dir, None);
        let path = stale_plan_store(&dir, &src);
        src.store = Some(path.clone());
        let before = store_files(&path);
        assert!(
            before[1].as_ref().is_some_and(|j| !j.is_empty()),
            "no journal"
        );
        assert!(before[3].is_none(), "quarantine before any damage");

        // Stale-plan journal records are no corruption: a warm reload.
        assert_eq!(traced_reload(&src), (true, Some(Field::from("warm"))));
        assert!(verify_store(&path).expect("verify").clean());
        assert_eq!(
            store_files(&path),
            before,
            "reload or verify wrote the store"
        );

        // A torn journal tail is: the reload says so and still writes
        // nothing, leaving the wreck for `cache repair`.
        let mut journal = before[1].clone().unwrap_or_default();
        journal.extend_from_slice(b"J 3 1 2");
        std::fs::write(dir.join("cache.ck.journal"), &journal).expect("tear journal");
        let before = store_files(&path);
        assert_eq!(traced_reload(&src), (true, Some(Field::from("error"))));
        assert!(!verify_store(&path).expect("verify").clean());
        assert_eq!(
            store_files(&path),
            before,
            "reload or verify wrote the store"
        );
        std::fs::remove_dir_all(dir).expect("remove scratch dir");
    }
}
