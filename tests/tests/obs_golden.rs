//! Golden-trace conformance suite for the observability layer.
//!
//! Three fixed-seed simulator scenarios — a batch pipeline run, an
//! incremental sliding window, and a resume-after-crash — each produce
//! a structured event trace that must be **byte-identical** across
//! worker-pool widths (serial vs 4 threads), across consecutive runs,
//! and against the committed golden snapshots in `tests/golden/`. The
//! whole metrics registry — counters, gauges and histograms — must be
//! equal across the same runs: the pipeline reads no clock.
//!
//! To regenerate the snapshots after an intentional schema change:
//!
//! ```text
//! LOGDEP_BLESS=1 cargo test -p logdep-integration --test obs_golden
//! ```
//!
//! and commit the rewritten `tests/golden/obs_*.jsonl` files.

use logdep::durable::{run_daily_durable, DailyPlan, DurableError, NoopPolicy, WritePolicy};
use logdep::health::{run_pipeline, PipelineConfig};
use logdep::l1::L1Config;
use logdep::l3::L3Config;
use logdep::obs::{set_recorder, take_recorder, Recorder};
use logdep::window::run_window_cached;
use logdep::EvidenceCache;
use logdep_faults::crash::{corrupt_bytes, Corruption, CrashPoint};
use logdep_logstore::time::{TimeRange, MS_PER_HOUR};
use logdep_logstore::{LogStore, Millis};
use logdep_par::ParConfig;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};
use std::path::PathBuf;

struct Landscape {
    store: LogStore,
    service_ids: Vec<String>,
}

fn landscape() -> Landscape {
    let mut cfg = SimConfig::small_test(11);
    cfg.days = 9;
    let out = simulate(&cfg);
    Landscape {
        service_ids: out.directory.ids().iter().map(|s| s.to_string()).collect(),
        store: out.store,
    }
}

/// All three techniques on, small L1 slots, explicit pool width — the
/// same cheap-but-real setup the crash sweep uses, with the width under
/// test control instead of `LOGDEP_THREADS`.
fn pipeline_config(par: ParConfig) -> PipelineConfig {
    let mut cfg = PipelineConfig::all_defaults_with_par(par);
    cfg.l1 = Some(L1Config {
        slot_ms: 6 * MS_PER_HOUR,
        minlogs: 30,
        sample_size: 40,
        seed: 7,
        ..L1Config::default()
    });
    cfg.l3 = Some(L3Config::with_stop_patterns(standard_stop_patterns()));
    cfg
}

fn day_range(d0: i64, d1: i64) -> TimeRange {
    TimeRange::new(Millis::from_days(d0), Millis::from_days(d1))
}

/// Runs `f` with a fresh deterministic recorder installed, returning
/// the drained recorder.
fn traced<F: FnOnce()>(f: F) -> Recorder {
    assert!(
        set_recorder(Recorder::new()).is_none(),
        "a recorder leaked in from a previous test"
    );
    f();
    take_recorder().expect("recorder still installed")
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot under `LOGDEP_BLESS=1`.
fn golden_check(name: &str, actual: &str) {
    let path = format!("{}/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LOGDEP_BLESS").is_some() {
        std::fs::write(&path, actual).expect("bless golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path}: {e}; run with LOGDEP_BLESS=1 to create the snapshot")
    });
    assert_eq!(
        actual, expected,
        "{name}: trace drifted from the committed golden snapshot; if the change \
         is intended, regenerate with LOGDEP_BLESS=1 and commit the diff"
    );
}

/// Asserts the scenario produces the same trace serially, at width 4,
/// and across two consecutive runs — then checks it against the golden.
fn assert_conformant(name: &str, scenario: impl Fn(ParConfig) -> Recorder) {
    let serial = scenario(ParConfig::serial());
    let wide = scenario(ParConfig::with_threads(4).expect("pool width"));
    let again = scenario(ParConfig::serial());

    let trace = serial.sink.render_jsonl();
    assert_eq!(
        trace,
        wide.sink.render_jsonl(),
        "{name}: trace differs between serial and 4-thread runs"
    );
    assert_eq!(
        trace,
        again.sink.render_jsonl(),
        "{name}: trace differs between two consecutive serial runs"
    );
    assert_eq!(
        serial.metrics, wide.metrics,
        "{name}: metrics differ between serial and 4-thread runs"
    );
    assert_eq!(
        serial.metrics, again.metrics,
        "{name}: metrics differ between two consecutive serial runs"
    );
    serial
        .sink
        .check_balanced()
        .unwrap_or_else(|e| panic!("{name}: unbalanced spans: {e}"));
    golden_check(name, &trace);
}

#[test]
fn batch_pipeline_trace_is_golden() {
    let land = landscape();
    assert_conformant("obs_batch", |par| {
        let cfg = pipeline_config(par);
        traced(|| {
            run_pipeline(&land.store, day_range(0, 2), &land.service_ids, None, &cfg)
                .expect("batch run");
        })
    });
}

#[test]
fn incremental_window_trace_is_golden() {
    let land = landscape();
    assert_conformant("obs_incremental", |par| {
        let cfg = pipeline_config(par);
        traced(|| {
            // Prime a 2-day window, then slide it twice with a rolling
            // cache; the trace records the warm hits of each advance.
            let mut cache = EvidenceCache::new();
            for (d0, d1) in [(0, 2), (1, 3), (2, 4)] {
                run_window_cached(
                    &land.store,
                    day_range(d0, d1),
                    &land.service_ids,
                    &cfg,
                    &mut cache,
                )
                .expect("windowed run");
            }
        })
    });
}

/// Aborts at the Kth durable write, leaving a deterministic wreck.
struct CrashPolicy {
    crash: CrashPoint,
    corruption: Option<Corruption>,
    seed: u64,
}

impl WritePolicy for CrashPolicy {
    fn before_write(
        &mut self,
        _op: logdep::durable::DurableOp,
        bytes: &[u8],
    ) -> logdep::durable::WriteDecision {
        if self.crash.strike() {
            logdep::durable::WriteDecision::Abort {
                partial: self
                    .corruption
                    .map(|kind| corrupt_bytes(bytes, kind, self.seed)),
            }
        } else {
            logdep::durable::WriteDecision::Proceed
        }
    }
}

fn fresh_store_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logdep-obs-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join(name);
    for suffix in [
        "",
        ".journal",
        ".ledger",
        ".quarantine",
        ".tmp",
        ".journal.tmp",
    ] {
        let mut victim = path.as_os_str().to_os_string();
        victim.push(suffix);
        match std::fs::remove_file(&victim) {
            Ok(()) | Err(_) => {}
        }
    }
    path
}

#[test]
fn resume_after_crash_trace_is_golden() {
    let land = landscape();
    let plan = DailyPlan {
        start_day: 0,
        window_days: 2,
        advance_days: 1,
        steps: 4,
    };
    assert_conformant("obs_resume", |par| {
        let cfg = pipeline_config(par);
        let path = fresh_store_path("resume.ck");

        // Crash the untraced first run mid-flight, with a torn write
        // left behind, so the traced resume sees real recovery events.
        let mut policy = CrashPolicy {
            crash: CrashPoint::at(5),
            corruption: Some(Corruption::TornPrefix),
            seed: 0x5eed,
        };
        match run_daily_durable(
            &land.store,
            &land.service_ids,
            &cfg,
            &plan,
            &path,
            false,
            &mut policy,
            &mut |_, _| {},
        ) {
            Err(DurableError::Crashed { .. }) => {}
            other => panic!("crash point never fired: {other:?}"),
        }

        traced(|| {
            let report = run_daily_durable(
                &land.store,
                &land.service_ids,
                &cfg,
                &plan,
                &path,
                true,
                &mut NoopPolicy,
                &mut |_, _| {},
            )
            .expect("resume after crash");
            assert!(report.resumed_from > 0, "resume skipped nothing");
        })
    });
}
