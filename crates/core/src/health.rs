//! Graceful degradation: run the detectors in isolation, report health.
//!
//! On a hostile stream (see the `logdep-faults` injector) a single
//! detector can fail — L2's session reconstruction starved of user
//! context, L3 handed an empty directory, a config invalidated by
//! upstream scaling. The paper's deployment ran continuously against a
//! moving landscape; an operator tool that aborts the whole mining run
//! because one of three independent evidence sources failed is useless
//! there. The one mining driver, [`run_window_cached`], therefore runs
//! each detector through `run_detector`, which converts its failure
//! into a [`DetectorHealth`] entry; [`run_pipeline`] hands whatever
//! subset succeeded to [`Ensemble::combine_partial`], whose vote
//! thresholds rescale to the surviving detectors.

use crate::cache::EvidenceCache;
use crate::ensemble::{app_service_to_pairs, Ensemble};
use crate::l1::L1Config;
use crate::l2::L2Config;
use crate::l3::L3Config;
use crate::model::{AppServiceModel, PairModel};
use crate::window::run_window_cached;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_obs::{record, Field};
use logdep_par::ParConfig;
use serde::{Deserialize, Serialize};

/// The three mining techniques, as health-report subjects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectorKind {
    /// Technique L1: activity correlation.
    L1,
    /// Technique L2: session co-occurrence.
    L2,
    /// Technique L3: directory citations.
    L3,
    /// The durable evidence store (recovery/corruption standing of the
    /// persisted cache, reported by the crash-safe `daily` driver).
    Store,
}

impl DetectorKind {
    /// Lowercase metric/event name segment (`detector.<slug>.…`).
    pub fn slug(self) -> &'static str {
        match self {
            DetectorKind::L1 => "l1",
            DetectorKind::L2 => "l2",
            DetectorKind::L3 => "l3",
            DetectorKind::Store => "store",
        }
    }
}

impl std::fmt::Display for DetectorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorKind::L1 => write!(f, "L1"),
            DetectorKind::L2 => write!(f, "L2"),
            DetectorKind::L3 => write!(f, "L3"),
            DetectorKind::Store => write!(f, "Store"),
        }
    }
}

/// Outcome of one detector in a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectorHealth {
    /// Which detector this entry describes.
    pub detector: DetectorKind,
    /// Whether it ran to completion.
    pub ok: bool,
    /// The error message when it did not (`None` when `ok`, and also
    /// when the detector was disabled by configuration).
    pub error: Option<String>,
    /// Whether the detector was enabled at all.
    pub enabled: bool,
    /// Number of dependencies it detected (0 when it failed).
    pub detected: usize,
}

impl DetectorHealth {
    fn ran(detector: DetectorKind, detected: usize) -> Self {
        Self {
            detector,
            ok: true,
            error: None,
            enabled: true,
            detected,
        }
    }

    fn failed(detector: DetectorKind, error: String) -> Self {
        Self {
            detector,
            ok: false,
            error: Some(error),
            enabled: true,
            detected: 0,
        }
    }

    fn disabled(detector: DetectorKind) -> Self {
        Self {
            detector,
            ok: false,
            error: None,
            enabled: false,
            detected: 0,
        }
    }
}

/// Which detectors to run, with their configurations. `None` disables
/// a detector (e.g. no service directory available → no L3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineConfig {
    /// L1 configuration, or `None` to skip L1.
    pub l1: Option<L1Config>,
    /// L2 configuration, or `None` to skip L2.
    pub l2: Option<L2Config>,
    /// L3 configuration, or `None` to skip L3.
    pub l3: Option<L3Config>,
    /// Worker-pool configuration shared by all three detectors. The
    /// default reads `LOGDEP_THREADS` (falling back to the hardware);
    /// [`ParConfig::serial`] forces the plain sequential path.
    pub par: ParConfig,
}

impl PipelineConfig {
    /// All three detectors with their default configurations.
    pub fn all_defaults() -> Self {
        Self {
            l1: Some(L1Config::default()),
            l2: Some(L2Config::default()),
            l3: Some(L3Config::default()),
            par: ParConfig::default(),
        }
    }

    /// `all_defaults` with an explicit pool configuration.
    pub fn all_defaults_with_par(par: ParConfig) -> Self {
        Self {
            par,
            ..Self::all_defaults()
        }
    }
}

/// Everything a degraded-tolerant pipeline run produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineOutcome {
    /// L1's detected pairs (`None` when L1 failed or was disabled).
    pub l1_pairs: Option<PairModel>,
    /// L2's detected pairs.
    pub l2_pairs: Option<PairModel>,
    /// L3's detected app→service dependencies.
    pub l3_deps: Option<AppServiceModel>,
    /// L3's dependencies mapped onto app pairs via the owner relation
    /// (`None` when L3 failed/was disabled *or* no owners were given).
    pub l3_pairs: Option<PairModel>,
    /// One entry per detector, in L1, L2, L3 order.
    pub health: Vec<DetectorHealth>,
    /// The partial-set ensemble over whatever succeeded.
    pub ensemble: Ensemble,
}

impl PipelineOutcome {
    /// Number of detectors that ran to completion.
    pub fn detectors_ok(&self) -> usize {
        self.health.iter().filter(|h| h.ok).count()
    }

    /// True when every *enabled* detector ran to completion.
    pub fn fully_healthy(&self) -> bool {
        self.health.iter().all(|h| h.ok || !h.enabled)
    }
}

/// Runs one detector layer when `cfg` enables it, turning its `Err`
/// into a failed [`DetectorHealth`] row instead of propagating it —
/// one detector's failure never aborts the window. The layer's time is
/// its `window.l1`/`window.l2`/`window.l3` span.
/// `mine_layer` runs the layer; `n_detected` counts the result's
/// dependencies for the health row. (The closures are named apart from
/// every workspace fn so the lint's name-resolved call graph does not
/// route them elsewhere.)
pub(crate) fn run_detector<C, T>(
    detector: DetectorKind,
    cfg: Option<&C>,
    mine_layer: impl FnOnce(&C) -> crate::Result<T>,
    n_detected: impl FnOnce(&T) -> usize,
) -> (DetectorHealth, Option<T>) {
    let Some(cfg) = cfg else {
        return (DetectorHealth::disabled(detector), None);
    };
    match mine_layer(cfg) {
        Ok(res) => (DetectorHealth::ran(detector, n_detected(&res)), Some(res)),
        Err(e) => (DetectorHealth::failed(detector, e.to_string()), None),
    }
}

/// Emits one detector's trace span and metrics from its health row.
///
/// Always called from the orchestration thread *after* the detector
/// finished (never from pool workers), so the event stream is
/// identical at every thread width.
pub(crate) fn record_detector_health(h: &DetectorHealth) {
    record(|r| {
        let slug = h.detector.slug();
        let name = format!("detector.{slug}");
        r.span_begin(&name, &[("enabled", Field::from(h.enabled))]);
        r.span_end(
            &name,
            &[
                ("ok", Field::from(h.ok)),
                ("detected", Field::from(h.detected)),
            ],
        );
        r.gauge_set(&format!("detector.{slug}.enabled"), i64::from(h.enabled));
        r.gauge_set(&format!("detector.{slug}.ok"), i64::from(h.ok));
        r.counter_add(&format!("detector.{slug}.detected"), h.detected as u64);
    });
}

/// Runs L1/L2/L3 over `range` as one window on a fresh
/// [`EvidenceCache`] — the batch run is [`run_window_cached`] with
/// nothing to replay. A detector erroring yields a [`DetectorHealth`]
/// entry with `ok: false` while the others proceed, and the returned
/// [`Ensemble`] combines the partial detector set (vote thresholds
/// rescale via [`Ensemble::at_least_rescaled`]).
///
/// `owners` maps service index → owning application (as in
/// [`app_service_to_pairs`]); without it L3 still runs but cannot vote
/// on app pairs.
pub fn run_pipeline(
    store: &LogStore,
    range: TimeRange,
    service_ids: &[String],
    owners: Option<&[SourceId]>,
    cfg: &PipelineConfig,
) -> crate::Result<PipelineOutcome> {
    let window = run_window_cached(store, range, service_ids, cfg, &mut EvidenceCache::new())?;
    let l1_pairs = window.l1.map(|r| r.detected);
    let l2_pairs = window.l2.map(|r| r.detected);
    let l3_deps = window.l3.map(|r| r.detected);
    let l3_pairs = match (&l3_deps, owners) {
        (Some(deps), Some(o)) => Some(app_service_to_pairs(deps, o)),
        _ => None,
    };
    let ensemble =
        Ensemble::combine_partial(l1_pairs.as_ref(), l2_pairs.as_ref(), l3_pairs.as_ref());
    Ok(PipelineOutcome {
        l1_pairs,
        l2_pairs,
        l3_deps,
        l3_pairs,
        health: window.health,
        ensemble,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{LogRecord, Millis};

    /// A store where AppA cites service SVCB (owned by AppB) and both
    /// log densely enough for L1/L2 to have something to chew on.
    fn fixture() -> (LogStore, Vec<String>, Vec<SourceId>) {
        let mut store = LogStore::new();
        let a = store.registry.source("AppA");
        let b = store.registry.source("AppB");
        let user = store.registry.user("alice");
        for i in 0..200i64 {
            let t = i * 1_000;
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
        (store, vec!["SVCB".to_owned()], vec![b])
    }

    fn full_range() -> TimeRange {
        TimeRange::new(Millis(0), Millis(300_000))
    }

    #[test]
    fn healthy_run_reports_all_ok() {
        let (store, ids, owners) = fixture();
        let out = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults(),
        )
        .expect("pipeline");
        assert_eq!(out.health.len(), 3);
        assert!(out.fully_healthy(), "health: {:?}", out.health);
        assert_eq!(out.detectors_ok(), 3);
        assert_eq!(out.ensemble.n_available(), 3);
        // L3 must see the citation.
        let l3 = out.l3_deps.as_ref().expect("l3 ran");
        assert!(!l3.is_empty());
        let l3p = out.l3_pairs.as_ref().expect("owners given");
        assert!(!l3p.is_empty());
    }

    #[test]
    fn one_failing_detector_degrades_not_aborts() {
        let (store, ids, owners) = fixture();
        let mut cfg = PipelineConfig::all_defaults();
        // Invalid L1 config: negative slot width fails validation.
        if let Some(l1) = cfg.l1.as_mut() {
            l1.slot_ms = -5;
        }
        let out = run_pipeline(&store, full_range(), &ids, Some(&owners), &cfg).expect("pipeline");
        assert!(!out.fully_healthy());
        assert_eq!(out.detectors_ok(), 2);
        let l1_health = &out.health[0];
        assert_eq!(l1_health.detector, DetectorKind::L1);
        assert!(!l1_health.ok && l1_health.enabled);
        assert!(l1_health.error.as_deref().is_some_and(|e| !e.is_empty()));
        // The others still delivered and the ensemble adapts.
        assert!(out.l1_pairs.is_none());
        assert!(out.l2_pairs.is_some());
        assert!(out.l3_deps.is_some());
        assert_eq!(out.ensemble.n_available(), 2);
        assert_eq!(out.ensemble.available(), [false, true, true]);
    }

    #[test]
    fn disabled_detector_is_not_a_failure() {
        let (store, ids, _) = fixture();
        let cfg = PipelineConfig {
            l3: None,
            ..PipelineConfig::all_defaults()
        };
        let out = run_pipeline(&store, full_range(), &ids, None, &cfg).expect("pipeline");
        assert!(out.fully_healthy(), "disabled L3 is not a failure");
        assert_eq!(out.detectors_ok(), 2);
        let l3_health = &out.health[2];
        assert!(!l3_health.enabled && l3_health.error.is_none());
        assert!(out.l3_deps.is_none() && out.l3_pairs.is_none());
    }

    #[test]
    fn l3_without_owners_runs_but_does_not_vote() {
        let (store, ids, _) = fixture();
        let out = run_pipeline(
            &store,
            full_range(),
            &ids,
            None,
            &PipelineConfig::all_defaults(),
        )
        .expect("pipeline");
        assert!(out.l3_deps.is_some(), "L3 ran");
        assert!(out.l3_pairs.is_none(), "no owner relation, no vote");
        assert!(!out.ensemble.available()[2]);
    }

    #[test]
    fn concurrent_pipeline_matches_serial() {
        let (store, ids, owners) = fixture();
        let serial = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults_with_par(ParConfig::serial()),
        )
        .expect("pipeline");
        let par4 = ParConfig::with_threads(4).expect("4 >= 1");
        let parallel = run_pipeline(
            &store,
            full_range(),
            &ids,
            Some(&owners),
            &PipelineConfig::all_defaults_with_par(par4),
        )
        .expect("pipeline");
        assert_eq!(serial.l1_pairs, parallel.l1_pairs);
        assert_eq!(serial.l2_pairs, parallel.l2_pairs);
        assert_eq!(serial.l3_deps, parallel.l3_deps);
        assert_eq!(serial.l3_pairs, parallel.l3_pairs);
        assert_eq!(serial.ensemble, parallel.ensemble);
        assert_eq!(serial.health, parallel.health);
        assert!(serial.fully_healthy(), "{:?}", serial.health);
    }

    #[test]
    fn empty_store_never_panics() {
        let mut store = LogStore::new();
        store.finalize();
        let out = run_pipeline(
            &store,
            TimeRange::new(Millis(0), Millis(1_000)),
            &[],
            None,
            &PipelineConfig::all_defaults(),
        )
        .expect("pipeline");
        assert_eq!(out.health.len(), 3);
        // Whatever failed did so gracefully.
        for h in &out.health {
            assert!(h.ok || h.error.is_some() || !h.enabled, "{h:?}");
        }
    }
}
