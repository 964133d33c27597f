//! Resume-over-cold benchmark of the crash-safe daily pipeline.
//!
//! The scenario the durable store exists for: the nightly "around the
//! clock" advance (§1.2) is killed mid-week, and the operator restarts
//! it. For each simulated crash point (after `j` of `n` steps were
//! journaled durably) the bench measures the cost of `--resume`
//! (replay the journal, run only the missing steps) against rebuilding
//! the whole week cold from an empty store, and asserts both converge
//! to **byte-identical** checkpoints and identical mined models. Emits
//! `BENCH_recovery.json` under `target/experiments/`; a full run also
//! writes the committed copy at the workspace root.
//!
//! Invariants checked on every run:
//! * every resumed run's final models equal the cold rebuild's, and the
//!   two checkpoint files are byte-for-byte identical;
//! * every resumed run leaves an empty journal and a store that
//!   verifies clean;
//! * in full mode the aggregate resume cost across the crash points
//!   must be at least 3× cheaper than the aggregate cold rebuilds
//!   (skipped in `--smoke`, where fixed costs dominate).

use logdep::durable::{
    run_daily_durable, verify_store, DailyPlan, DailyReport, DurableError, DurableOp, NoopPolicy,
    WriteDecision, WritePolicy,
};
use logdep::health::PipelineConfig;
use logdep::window::WindowOutcome;
use logdep_bench::workbench::{cli_args, write_bench_report, Args, Flags, Workbench};
use logdep_sim::SimConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Kills the run at its `n`th journal append — i.e. after `n - 1`
/// steps have been made durable (the append of step `n` itself is the
/// write that dies). A clean abort: torn-write modes are the crash
/// test harness's domain; the bench measures recovery *cost*.
struct CrashAtJournalAppend {
    n: u64,
    seen: u64,
}

impl WritePolicy for CrashAtJournalAppend {
    fn before_write(&mut self, op: DurableOp, _bytes: &[u8]) -> WriteDecision {
        if op == DurableOp::JournalAppend {
            self.seen += 1;
            if self.seen == self.n {
                return WriteDecision::Abort { partial: None };
            }
        }
        WriteDecision::Proceed
    }
}

#[derive(Serialize)]
struct CrashCase {
    /// Steps durably completed when the run died.
    completed_steps: u64,
    /// Wall time of the run that crashed (context, not gated).
    crashed_run_ms: f64,
    /// Wall time of `--resume` from the crashed state.
    resume_ms: f64,
    /// Wall time of rebuilding the same plan cold.
    cold_ms: f64,
    /// Steps the resume actually re-ran.
    resume_steps_run: u64,
    ratio: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    scale: f64,
    smoke: bool,
    days: u32,
    window_days: i64,
    steps: u64,
    n_logs: usize,
    host_cpus: usize,
    cases: Vec<CrashCase>,
    /// Total wall time of the cold rebuilds.
    cold_ms: f64,
    /// Total wall time of the resumes over the same crash points.
    resume_ms: f64,
    speedup: f64,
    speedup_asserted: bool,
    /// Every resume byte-identical to its cold rebuild (asserted).
    identical: bool,
}

/// The identity surface: the mined models themselves. Cache hit/miss
/// stats legitimately differ between a resumed and a cold run.
fn results_of(outcome: &WindowOutcome) -> String {
    format!("{:?}\n{:?}\n{:?}", outcome.l1, outcome.l2, outcome.l3)
}

fn fresh_path(dir: &Path, name: &str) -> PathBuf {
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
        let _ = std::fs::remove_file(&victim);
    }
    path
}

fn run(
    wb: &Workbench,
    cfg: &PipelineConfig,
    plan: &DailyPlan,
    path: &Path,
    resume: bool,
    policy: &mut dyn WritePolicy,
) -> Result<DailyReport, DurableError> {
    run_daily_durable(
        &wb.out.store,
        &wb.service_ids,
        cfg,
        plan,
        path,
        resume,
        policy,
        &mut |_, _| {},
    )
}

fn main() {
    let Args { seed, scale, smoke } = cli_args(0.5, Flags::SeedScaleSmoke);
    let window_days: i64 = if smoke { 2 } else { 7 };
    let steps: u64 = if smoke { 2 } else { 6 };

    let mut sim = SimConfig::paper_week(seed, scale);
    sim.days = u32::try_from(window_days + i64::try_from(steps).expect("small")).expect("small");
    let wb = Workbench::from_config(&sim);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "recovery bench: seed {seed}, scale {scale}, {} days, window {window_days} days, \
         {steps} step(s), {} logs, host has {host_cpus} cpu(s)",
        wb.days,
        wb.out.store.len()
    );

    let cfg = wb.pipeline_config();
    let plan = DailyPlan {
        start_day: 0,
        window_days,
        advance_days: 1,
        steps,
    };
    let dir = std::env::temp_dir().join(format!("logdep-recovery-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Reference: one uninterrupted run, for the identity checks.
    let ref_path = fresh_path(&dir, "reference.ck");
    let ref_report = run(&wb, &cfg, &plan, &ref_path, false, &mut NoopPolicy).expect("reference");
    let ref_results = results_of(&ref_report.final_outcome);
    let ref_bytes = std::fs::read(&ref_path).expect("reference checkpoint");

    // Crash after roughly half the steps, after all but one, and after
    // the whole plan completed (the pure skip-everything resume).
    let crash_after: Vec<u64> = if smoke {
        vec![1, steps]
    } else {
        vec![steps / 2, steps - 1, steps]
    };

    // A clock outside the run, not the recorder's spans: a crashed run
    // dies with its `daily` span open, so no span can time it, and the
    // resume and cold runs are timed the same way to stay comparable.
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;
    let mut cases = Vec::new();
    let mut resume_total = 0.0f64;
    let mut cold_total = 0.0f64;
    for &completed in &crash_after {
        let path = fresh_path(&dir, &format!("crash-{completed}.ck"));
        let crashed_run_ms = if completed < steps {
            // The append of step `completed + 1` is the write that dies.
            let mut policy = CrashAtJournalAppend {
                n: completed + 1,
                seen: 0,
            };
            let t = Instant::now();
            match run(&wb, &cfg, &plan, &path, false, &mut policy) {
                Err(DurableError::Crashed { .. }) => {}
                other => panic!("crash point never fired: {other:?}"),
            }
            ms(t)
        } else {
            // "Crash" after completion: a finished run that is simply
            // invoked again with --resume the next night.
            let t = Instant::now();
            run(&wb, &cfg, &plan, &path, false, &mut NoopPolicy).expect("full run");
            ms(t)
        };

        let t = Instant::now();
        let resumed =
            run(&wb, &cfg, &plan, &path, true, &mut NoopPolicy).expect("resume after crash");
        let resume_ms = ms(t);

        let cold_path = fresh_path(&dir, &format!("cold-{completed}.ck"));
        let t = Instant::now();
        let cold = run(&wb, &cfg, &plan, &cold_path, false, &mut NoopPolicy).expect("cold rebuild");
        let cold_ms = ms(t);

        assert_eq!(
            results_of(&resumed.final_outcome),
            ref_results,
            "resume from step {completed} diverged from the reference models"
        );
        assert_eq!(
            results_of(&cold.final_outcome),
            ref_results,
            "cold rebuild diverged from the reference models"
        );
        let resumed_bytes = std::fs::read(&path).expect("resumed checkpoint");
        let cold_bytes = std::fs::read(&cold_path).expect("cold checkpoint");
        assert_eq!(
            resumed_bytes, ref_bytes,
            "resumed checkpoint not byte-identical to the reference"
        );
        assert_eq!(
            cold_bytes, ref_bytes,
            "cold checkpoint not byte-identical to the reference"
        );
        let verified = verify_store(&path).expect("verify after resume");
        assert!(
            verified.clean() && verified.journal_records == 0,
            "store unclean after resume: {verified:?}"
        );

        let ratio = cold_ms / resume_ms;
        println!(
            "  crash after {completed}/{steps}: crashed run {crashed_run_ms:8.1} ms, \
             resume {resume_ms:8.1} ms ({} step(s) re-run), cold {cold_ms:8.1} ms \
             ({ratio:.2}x)",
            resumed.steps_run
        );
        resume_total += resume_ms;
        cold_total += cold_ms;
        cases.push(CrashCase {
            completed_steps: completed,
            crashed_run_ms,
            resume_ms,
            cold_ms,
            resume_steps_run: resumed.steps_run,
            ratio,
        });
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch dir");

    let speedup = cold_total / resume_total;
    let speedup_asserted = !smoke;
    if speedup_asserted {
        assert!(
            speedup >= 3.0,
            "expected >= 3x resume-over-cold speedup aggregated across crash points, \
             got {speedup:.2}x (cold {cold_total:.1} ms, resume {resume_total:.1} ms)"
        );
        println!(
            "recovery gate passed: {speedup:.2}x resume over cold across {} crash point(s)",
            cases.len()
        );
    } else {
        println!("recovery gate skipped (smoke mode): {speedup:.2}x observed");
    }

    let report = Report {
        seed,
        scale,
        smoke,
        days: wb.days,
        window_days,
        steps,
        n_logs: wb.out.store.len(),
        host_cpus,
        cases,
        cold_ms: cold_total,
        resume_ms: resume_total,
        speedup,
        speedup_asserted,
        identical: true,
    };
    write_bench_report("BENCH_recovery", &report, smoke);
}
