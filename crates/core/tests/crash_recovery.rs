//! Exhaustive crash-point sweep over the durable daily pipeline: kill
//! the run at *every* durable write K, in every crash mode, across a
//! week of window advances — and assert that a single `--resume`
//! converges to the uninterrupted run **byte for byte**: identical
//! L1/L2/L3 results, identical checkpoint file bytes, empty journal,
//! and a clean `verify` afterwards.
//!
//! The op count N is discovered with a counting policy (not hardcoded),
//! so adding or removing a durable write automatically widens or
//! narrows the sweep instead of silently leaving crash points untested.

use logdep::durable::{
    plan_signature, run_daily_durable, verify_store, DailyPlan, DailyReport, DurableError,
    DurableOp, NoopPolicy, WriteDecision, WritePolicy,
};
use logdep::health::PipelineConfig;
use logdep::l1::L1Config;
use logdep::l3::L3Config;
use logdep::window::WindowOutcome;
use logdep_faults::crash::{corrupt_bytes, Corruption, CrashPoint};
use logdep_logstore::time::MS_PER_HOUR;
use logdep_logstore::LogStore;
use logdep_par::ParConfig;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig};
use std::path::PathBuf;

/// Counts durable writes without disturbing them — the N-discovery
/// pass of the sweep.
#[derive(Default)]
struct CountingPolicy {
    ops: Vec<DurableOp>,
}

impl WritePolicy for CountingPolicy {
    fn before_write(&mut self, op: DurableOp, _bytes: &[u8]) -> WriteDecision {
        self.ops.push(op);
        WriteDecision::Proceed
    }
}

/// Aborts at the Kth durable write, optionally leaving a deterministic
/// wreck (torn prefix / bit flip) of the in-flight bytes behind.
struct CrashPolicy {
    crash: CrashPoint,
    corruption: Option<Corruption>,
    seed: u64,
}

impl WritePolicy for CrashPolicy {
    fn before_write(&mut self, _op: DurableOp, bytes: &[u8]) -> WriteDecision {
        if self.crash.strike() {
            WriteDecision::Abort {
                partial: self
                    .corruption
                    .map(|kind| corrupt_bytes(bytes, kind, self.seed)),
            }
        } else {
            WriteDecision::Proceed
        }
    }
}

struct Landscape {
    store: LogStore,
    service_ids: Vec<String>,
}

fn landscape() -> Landscape {
    // The small topology keeps the ~36 full-week replays of the sweep
    // fast; the crash machinery is volume-independent.
    let mut cfg = SimConfig::small_test(11);
    cfg.days = 9;
    let out = simulate(&cfg);
    Landscape {
        service_ids: out.directory.ids().iter().map(|s| s.to_string()).collect(),
        store: out.store,
    }
}

/// Cheap-but-real pipeline: all three techniques enabled, L1 on
/// 4-hour slots with a small sample so the 30+ full-week replays of
/// the sweep stay fast. Thread width comes from `LOGDEP_THREADS`
/// (CI runs the sweep at 1 and 4).
fn pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::all_defaults_with_par(ParConfig::default());
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

fn plan() -> DailyPlan {
    DailyPlan {
        start_day: 0,
        window_days: 2,
        advance_days: 1,
        steps: 7,
    }
}

#[allow(
    clippy::expect_used,
    reason = "test helper: a scratch dir that cannot be made fails the test"
)]
fn fresh_store_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logdep-crash-{}", std::process::id()));
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

fn run(
    land: &Landscape,
    path: &std::path::Path,
    resume: bool,
    policy: &mut dyn WritePolicy,
) -> Result<DailyReport, DurableError> {
    run_daily_durable(
        &land.store,
        &land.service_ids,
        &pipeline_config(),
        &plan(),
        path,
        resume,
        policy,
        &mut |_step, _outcome| {},
    )
}

/// The byte-identity surface: the mined results themselves. Cache
/// hit/miss stats legitimately differ between an interrupted and an
/// uninterrupted run, so they are excluded.
fn results_of(outcome: &WindowOutcome) -> String {
    format!("{:?}\n{:?}\n{:?}", outcome.l1, outcome.l2, outcome.l3)
}

fn journal_bytes(path: &std::path::Path) -> Vec<u8> {
    let mut j = path.as_os_str().to_os_string();
    j.push(".journal");
    std::fs::read(&j).unwrap_or_default()
}

#[test]
fn crash_sweep_recovers_byte_identically_across_a_week() {
    let land = landscape();

    // Uninterrupted reference run.
    let ref_path = fresh_store_path("reference.ck");
    let ref_report = run(&land, &ref_path, false, &mut NoopPolicy).expect("reference run");
    assert_eq!(ref_report.steps_run, 7);
    assert!(ref_report.store_health.ok, "{:?}", ref_report.events);
    let ref_results = results_of(&ref_report.final_outcome);
    let ref_bytes = std::fs::read(&ref_path).expect("reference checkpoint");
    assert!(
        journal_bytes(&ref_path).is_empty(),
        "reference left journal records"
    );

    // Discover the number of durable writes N (crash-point domain).
    let count_path = fresh_store_path("count.ck");
    let mut counter = CountingPolicy::default();
    run(&land, &count_path, false, &mut counter).expect("counting run");
    let n = counter.ops.len() as u64;
    assert!(
        counter
            .ops
            .iter()
            .filter(|&&op| op == DurableOp::JournalAppend)
            .count()
            == 7,
        "expected one journal append per step, got {:?}",
        counter.ops
    );
    assert!(
        n >= 10,
        "suspiciously few durable writes: {:?}",
        counter.ops
    );
    assert_eq!(
        std::fs::read(&count_path).expect("count checkpoint"),
        ref_bytes,
        "two uninterrupted runs disagree — determinism broken before any crash"
    );

    // The sweep: every crash point K, in clean-abort and wreck-leaving
    // modes. Every single one must recover exactly.
    let modes: [Option<Corruption>; 3] = [
        None,
        Some(Corruption::TornPrefix),
        Some(Corruption::BitFlip),
    ];
    for mode in modes {
        let mode_name = mode.map(Corruption::name).unwrap_or("clean-abort");
        for k in 1..=n {
            let path = fresh_store_path(&format!("crash-{mode_name}-{k}.ck"));
            let mut policy = CrashPolicy {
                crash: CrashPoint::at(k),
                corruption: mode,
                seed: 0x5eed ^ k,
            };
            match run(&land, &path, false, &mut policy) {
                Err(DurableError::Crashed { .. }) => {}
                Ok(_) => panic!("{mode_name}: crash point {k} of {n} never fired"),
                Err(e) => panic!("{mode_name} K={k}: unexpected error {e}"),
            }

            let report = run(&land, &path, true, &mut NoopPolicy)
                .unwrap_or_else(|e| panic!("{mode_name} K={k}: resume failed: {e}"));
            assert_eq!(
                results_of(&report.final_outcome),
                ref_results,
                "{mode_name} K={k}: recovered results diverge"
            );
            let bytes = std::fs::read(&path)
                .unwrap_or_else(|e| panic!("{mode_name} K={k}: no checkpoint after resume: {e}"));
            assert_eq!(
                bytes, ref_bytes,
                "{mode_name} K={k}: recovered checkpoint not byte-identical"
            );
            assert!(
                journal_bytes(&path).is_empty(),
                "{mode_name} K={k}: journal not reset after recovery"
            );
            let verified = verify_store(&path).expect("verify after recovery");
            assert!(
                verified.clean(),
                "{mode_name} K={k}: store unclean after recovery: {:?}",
                verified.events
            );
        }
    }
}

#[test]
fn resume_skips_completed_steps_and_changed_plans_restart() {
    let land = landscape();
    let path = fresh_store_path("resume.ck");
    let first = run(&land, &path, false, &mut NoopPolicy).expect("first run");
    assert_eq!((first.resumed_from, first.steps_run), (0, 7));

    // Resuming a finished run re-runs nothing and rewrites nothing.
    let before = std::fs::read(&path).expect("checkpoint");
    let again = run(&land, &path, true, &mut NoopPolicy).expect("resume");
    assert_eq!((again.resumed_from, again.steps_run), (7, 0));
    assert_eq!(
        results_of(&again.final_outcome),
        results_of(&first.final_outcome),
        "fully-resumed report diverges"
    );
    assert_eq!(std::fs::read(&path).expect("checkpoint"), before);

    // A different plan must not resume stale progress — but keeps the
    // warm cache (content addressing makes stale entries plain misses).
    let mut longer = plan();
    longer.steps = 8;
    let report = run_daily_durable(
        &land.store,
        &land.service_ids,
        &pipeline_config(),
        &longer,
        &path,
        true,
        &mut NoopPolicy,
        &mut |_, _| {},
    )
    .expect("run under changed plan");
    assert_eq!(
        report.resumed_from, 0,
        "stale progress resumed across plans"
    );
    assert!(report.events.iter().any(|e| e.code == "plan-changed"));
    assert!(report.store_health.ok);
}

#[test]
fn plan_signature_reacts_to_plan_config_and_data() {
    let land = landscape();
    let cfg = pipeline_config();
    let base = plan_signature(&land.store, &land.service_ids, &cfg, &plan());

    let mut p2 = plan();
    p2.steps = 8;
    assert_ne!(
        base,
        plan_signature(&land.store, &land.service_ids, &cfg, &p2)
    );

    let mut cfg2 = pipeline_config();
    cfg2.l2 = None;
    assert_ne!(
        base,
        plan_signature(&land.store, &land.service_ids, &cfg2, &plan())
    );

    let mut small = SimConfig::small_test(11);
    small.days = 8;
    let other = simulate(&small);
    assert_ne!(
        base,
        plan_signature(&other.store, &land.service_ids, &cfg, &plan()),
        "log-store identity not folded into the signature"
    );

    // Thread width must NOT change the signature (results are
    // width-independent, so resume across widths is legal).
    let mut cfg3 = pipeline_config();
    cfg3.par = ParConfig::with_threads(3).expect("width");
    assert_eq!(
        base,
        plan_signature(&land.store, &land.service_ids, &cfg3, &plan())
    );
}
