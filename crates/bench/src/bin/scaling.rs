//! Thread-scaling sweep of the deterministic parallel detector engine.
//!
//! Runs the full degradation-tolerant pipeline (L1 + L2 + L3 +
//! ensemble) over the calibrated simulated week at pool widths 1, 2, 4
//! and 8, and emits a scaling curve under
//! `target/experiments/BENCH_scaling.json`.
//!
//! Invariants checked on every run:
//! * the mined dependency model is **bit-identical at every thread
//!   count** (the whole point of `logdep-par`'s chunk-ordered merge) —
//!   a canonical serialization of each run is compared against the
//!   `threads = 1` baseline and any mismatch aborts;
//! * on a host with ≥ 4 cores the 4-thread run must be at least 2×
//!   faster than the serial run (skipped in `--smoke` mode and on
//!   smaller hosts, where the speedup is physically unobservable; the
//!   report records `host_cpus` so a curve is never read out of
//!   context).
//!
//! `--smoke` runs a one-day, low-scale variant for CI: equivalence is
//! still hard-asserted, timing is recorded but not judged.

use logdep::health::{run_pipeline, PipelineConfig, PipelineOutcome};
use logdep_bench::workbench::{cli_args, write_report, Args, Flags, Workbench};
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_par::ParConfig;
use logdep_sim::SimConfig;
use serde::Serialize;
use std::time::Instant;

const SWEEP: [usize; 4] = [1, 2, 4, 8];

#[derive(Serialize)]
struct Point {
    threads: usize,
    wall_ms: f64,
    l1_us: u64,
    l2_us: u64,
    l3_us: u64,
    /// Canonical model identical to the serial baseline (asserted).
    identical_to_serial: bool,
    speedup_vs_serial: f64,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    scale: f64,
    smoke: bool,
    days: u32,
    n_logs: usize,
    /// `std::thread::available_parallelism` on the machine that
    /// produced this curve — speedups above it are unobservable.
    host_cpus: usize,
    speedup_asserted: bool,
    points: Vec<Point>,
}

/// Canonical text form of everything scientific in a pipeline outcome:
/// models, ensemble votes, health verdicts — everything except the
/// wall-clock fields, which legitimately vary run to run.
fn canonical(out: &PipelineOutcome) -> String {
    let mut s = String::new();
    if let Some(p) = &out.l1_pairs {
        for (a, b) in p.iter() {
            s.push_str(&format!("l1 {a:?}<->{b:?}\n"));
        }
    }
    if let Some(p) = &out.l2_pairs {
        for (a, b) in p.iter() {
            s.push_str(&format!("l2 {a:?}<->{b:?}\n"));
        }
    }
    if let Some(m) = &out.l3_deps {
        for (app, svc) in m.iter() {
            s.push_str(&format!("l3 {app:?}->{svc}\n"));
        }
    }
    if let Some(p) = &out.l3_pairs {
        for (a, b) in p.iter() {
            s.push_str(&format!("l3p {a:?}<->{b:?}\n"));
        }
    }
    for ((a, b), support) in out.ensemble.iter() {
        s.push_str(&format!("vote {a:?}<->{b:?} {support:?}\n"));
    }
    for h in &out.health {
        s.push_str(&format!(
            "health {} ok={} enabled={} detected={} error={:?}\n",
            h.detector, h.ok, h.enabled, h.detected, h.error
        ));
    }
    s
}

fn detector_us(out: &PipelineOutcome, idx: usize) -> u64 {
    out.health.get(idx).map_or(0, |h| h.elapsed_us)
}

fn main() {
    let Args { seed, scale, smoke } = cli_args(0.5, Flags::SeedScaleSmoke);

    let mut cfg = SimConfig::paper_week(seed, scale);
    if smoke {
        cfg.days = 1;
    }
    let wb = Workbench::from_config(&cfg);
    let range = TimeRange::new(Millis(0), Millis::from_days(i64::from(wb.days)));
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scaling sweep: seed {seed}, scale {scale}, {} days, {} logs, host has {host_cpus} cpu(s)",
        wb.days,
        wb.out.store.len()
    );

    let mut points: Vec<Point> = Vec::new();
    let mut baseline: Option<(String, f64)> = None;
    for threads in SWEEP {
        let par = ParConfig::with_threads(threads).expect("sweep widths are >= 1");
        let pcfg = PipelineConfig {
            par,
            ..wb.pipeline_config()
        };
        let start = Instant::now();
        let out = run_pipeline(
            &wb.out.store,
            range,
            &wb.service_ids,
            Some(&wb.owners),
            &pcfg,
        )
        .expect("pipeline");
        let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
        assert!(
            out.fully_healthy(),
            "pipeline degraded at {threads} threads: {:?}",
            out.health
        );

        let snapshot = canonical(&out);
        let (serial_snapshot, serial_ms) = match &baseline {
            None => {
                baseline = Some((snapshot.clone(), wall_ms));
                (snapshot.clone(), wall_ms)
            }
            Some((s, ms)) => (s.clone(), *ms),
        };
        assert_eq!(
            snapshot, serial_snapshot,
            "model at {threads} threads differs from the serial baseline"
        );

        let speedup = serial_ms / wall_ms;
        println!(
            "  threads {threads}: {wall_ms:8.1} ms  (l1 {} us, l2 {} us, l3 {} us, speedup {speedup:.2}x)",
            detector_us(&out, 0),
            detector_us(&out, 1),
            detector_us(&out, 2),
        );
        points.push(Point {
            threads,
            wall_ms,
            l1_us: detector_us(&out, 0),
            l2_us: detector_us(&out, 1),
            l3_us: detector_us(&out, 2),
            identical_to_serial: true,
            speedup_vs_serial: speedup,
        });
    }

    let speedup_asserted = !smoke && host_cpus >= 4;
    if speedup_asserted {
        let at4 = points
            .iter()
            .find(|p| p.threads == 4)
            .expect("4 is in the sweep")
            .speedup_vs_serial;
        assert!(
            at4 >= 2.0,
            "expected >= 2x speedup at 4 threads on a {host_cpus}-cpu host, got {at4:.2}x"
        );
        println!("speedup gate passed: {at4:.2}x at 4 threads");
    } else {
        println!(
            "speedup gate skipped ({}); equivalence still asserted at every width",
            if smoke {
                "smoke mode"
            } else {
                "host has < 4 cpus"
            }
        );
    }

    let report = Report {
        seed,
        scale,
        smoke,
        days: wb.days,
        n_logs: wb.out.store.len(),
        host_cpus,
        speedup_asserted,
        points,
    };
    write_report("BENCH_scaling", &report);
}
