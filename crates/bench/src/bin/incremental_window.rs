//! Warm-over-cold benchmark of the sliding-window evidence cache.
//!
//! The "around the clock" scenario of §1.2: a 7-day window advances by
//! one day at a time for a full week of operation, so the entering days
//! cover one complete weekday/weekend cycle of the simulated landscape.
//! For every advance the cold path re-mines the whole window with an
//! empty cache; the warm path replays the cached L1 and L3 evidence of
//! the 6 shared days and recomputes only the day that entered the
//! window.
//! Emits `BENCH_incremental.json` under `target/experiments/`; a full
//! run also writes the committed copy at the workspace root.
//!
//! Invariants checked on every run:
//! * every warm (cached) model is **byte-identical** to a fresh-cache
//!   run of the same window, and the first advance's detected sets
//!   equal the uncached reference runners' (`run_l1_pool`,
//!   `run_l2_pool`, `run_l3_pool`) on that window;
//! * every warm advance recomputes the entering day and nothing more:
//!   its hits and misses equal, per layer, the counts derived from the
//!   window's shape (L1: the entering day's slots; L3: its one day
//!   chunk). L2 has no cache layer: it mines every window fresh, warm
//!   or cold;
//! * in full mode the median warm advance takes at most
//!   [`WARM_MEDIAN_BOUND_MS`] (skipped in `--smoke`, whose toy window
//!   times nothing an operator feels).
//!
//! The cold-over-warm ratio is reported, not gated: a ratio cannot tell
//! a slower warm advance from a faster cold re-mine.
//!
//! Every window runs under a clocked recorder ([`clocked`]): whole-window
//! times are its `window` span, per-layer times its `window.l1`,
//! `window.l2` and `window.l3` spans.

use logdep::cache::{CacheStats, EvidenceCache};
use logdep::l1::run_l1_pool;
use logdep::l2::run_l2_pool;
use logdep::l3::run_l3_pool;
use logdep::obs::RunReport;
use logdep::window::{run_window_cached, WindowOutcome};
use logdep_bench::workbench::{
    cli_args, clocked, span_ms, write_bench_report, Args, Flags, Workbench,
};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::Millis;
use logdep_sim::SimConfig;
use serde::Serialize;
use std::time::Instant;

/// Upper bound on the median warm advance of a full run (seed 42, scale
/// 0.5), in ms. Set from measured runs on a 2-vCPU host (`host_cpus`
/// 2), where the median read 72.9, 77.5 and 93.8 ms, and 106.6–114.9 ms
/// while other work shared the host. The bound leaves room for such a
/// neighbour; the exact miss counts catch a warm path that recomputes
/// more than the entering day.
const WARM_MEDIAN_BOUND_MS: f64 = 200.0;

#[derive(Serialize)]
struct Step {
    /// First day of the advanced window (the window is
    /// `[start_day, start_day + window_days)`).
    start_day: i64,
    warm_ms: f64,
    cold_ms: f64,
    /// Per-layer wall time of the warm advance (`window.l1`/`l2`/`l3`
    /// spans).
    warm_layer_ms: [f64; 3],
    /// Per-layer wall time of the cold baseline.
    cold_layer_ms: [f64; 3],
    /// Cache traffic of the warm advance (asserted equal to the
    /// expected traffic).
    warm_stats: CacheStats,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    scale: f64,
    smoke: bool,
    days: u32,
    window_days: i64,
    n_advances: i64,
    n_logs: usize,
    host_cpus: usize,
    /// Wall time of priming the cache on the first window.
    prime_ms: f64,
    /// Total wall time of re-mining each advanced window cold.
    cold_ms: f64,
    /// Total wall time of the cached advances over the same windows.
    warm_ms: f64,
    /// Median wall time of one warm advance.
    warm_median_ms: f64,
    /// The bound the median was held to (`None` in smoke mode).
    warm_median_bound_ms: Option<f64>,
    /// Total cold over total warm: reported, not gated.
    speedup: f64,
    steps: Vec<Step>,
    /// Every warm model byte-identical to its fresh-cache model, and
    /// the first advance equal to the uncached runners (asserted).
    identical: bool,
}

/// Canonical text form of everything scientific in a window outcome;
/// floats render with `{:?}` (shortest round trip) so a last-ulp drift
/// fails the comparison.
fn canonical(out: &WindowOutcome) -> String {
    let mut s = String::new();
    if let Some(r) = &out.l1 {
        s.push_str(&format!("l1 slots {}\n", r.n_slots));
        for (a, b) in r.detected.iter() {
            s.push_str(&format!("l1 {a:?}<->{b:?}\n"));
        }
        for o in &r.outcomes {
            s.push_str(&format!(
                "l1p {:?} {:?} {} {} {:?} {}\n",
                o.a, o.b, o.support, o.positives, o.pr, o.dependent
            ));
        }
    }
    if let Some(r) = &out.l2 {
        for (a, b) in r.detected.iter() {
            s.push_str(&format!("l2 {a:?}<->{b:?}\n"));
        }
        for o in &r.outcomes {
            s.push_str(&format!(
                "l2t {:?} {:?} {} {:?} {:?} {}\n",
                o.first, o.second, o.joint, o.statistic, o.p_value, o.significant
            ));
        }
        s.push_str(&format!("l2 total {}\n", r.bigrams.total));
    }
    if let Some(r) = &out.l3 {
        for (app, svc) in r.detected.iter() {
            s.push_str(&format!("l3 {app:?}->{svc}\n"));
        }
        let mut cites: Vec<_> = r.citations.iter().collect();
        cites.sort();
        for ((app, svc), n) in cites {
            s.push_str(&format!("l3c {app:?} {svc} {n}\n"));
        }
        s.push_str(&format!("l3 stats {} {}\n", r.scanned_logs, r.stopped_logs));
    }
    s
}

/// Per-layer wall time of one clocked window, from its layer spans.
fn layer_ms(report: &RunReport) -> [f64; 3] {
    ["window.l1", "window.l2", "window.l3"].map(|name| span_ms(report, name))
}

/// The cache traffic of a warm one-day advance that recomputes only
/// the entering day: L1 its slots and L3 its chunk.
fn expected_traffic(wb: &Workbench, window_days: i64) -> CacheStats {
    let slots_per_day = u64::try_from(MS_PER_DAY / wb.l1_config().slot_ms).expect("positive");
    let shared_days = u64::try_from(window_days - 1).expect("a window of at least one day");
    CacheStats {
        l1_hits: shared_days * slots_per_day,
        l1_misses: slots_per_day,
        l3_hits: shared_days,
        l3_misses: 1,
        ..CacheStats::default()
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn main() {
    let Args { seed, scale, smoke } = cli_args(0.5, Flags::SeedScaleSmoke);
    let window_days: i64 = if smoke { 2 } else { 7 };
    let n_advances: i64 = if smoke { 1 } else { 7 };

    let mut cfg = SimConfig::paper_week(seed, scale);
    cfg.days = u32::try_from(window_days + n_advances).expect("small");
    let wb = Workbench::from_config(&cfg);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "incremental bench: seed {seed}, scale {scale}, {} days, window {window_days} days, \
         {n_advances} advance(s), {} logs, host has {host_cpus} cpu(s)",
        wb.days,
        wb.out.store.len()
    );

    let pcfg = wb.pipeline_config();
    let w0 = TimeRange::new(Millis(0), Millis::from_days(window_days));

    // Prime: mine the first window into an empty rolling cache.
    let mut rolling = EvidenceCache::new();
    let (prime, report) =
        clocked(|| run_window_cached(&wb.out.store, w0, &wb.service_ids, &pcfg, &mut rolling));
    prime.expect("prime window");
    let prime_ms = span_ms(&report, "window");
    println!("  prime   [0,{window_days}) : {prime_ms:8.1} ms (cold cache)");

    let mut steps = Vec::new();
    let mut warm_total = 0.0f64;
    let mut cold_total = 0.0f64;
    for step in 1..=n_advances {
        let w = TimeRange::new(
            Millis::from_days(step),
            Millis::from_days(step + window_days),
        );

        // Warm: advance the rolling window by one day on the live cache.
        rolling.reset_stats();
        let (warm, report) =
            clocked(|| run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling));
        let warm = warm.expect("warm window");
        let warm_layer_ms = layer_ms(&report);
        let warm_ms = span_ms(&report, "window");
        let warm_stats = warm.stats;
        println!(
            "  advance [{step},{}) : {warm_ms:8.1} ms warm (l1 {:.1}, l2 {:.1}, l3 {:.1}; \
             {} hits, {} misses)",
            step + window_days,
            warm_layer_ms[0],
            warm_layer_ms[1],
            warm_layer_ms[2],
            warm_stats.hits(),
            warm_stats.misses()
        );
        let expected = expected_traffic(&wb, window_days);
        assert_eq!(
            warm_stats,
            expected,
            "warm advance [{step},{}) recomputed other than the entering day",
            step + window_days
        );

        // Cold baseline: the same window from scratch.
        let mut fresh = EvidenceCache::new();
        let (cold, report) =
            clocked(|| run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut fresh));
        let cold = cold.expect("cold window");
        let cold_layer_ms = layer_ms(&report);
        let cold_ms = span_ms(&report, "window");
        println!(
            "  cold    [{step},{}) : {cold_ms:8.1} ms cold (l1 {:.1}, l2 {:.1}, l3 {:.1})",
            step + window_days,
            cold_layer_ms[0],
            cold_layer_ms[1],
            cold_layer_ms[2]
        );

        assert_eq!(
            canonical(&warm),
            canonical(&cold),
            "cached advance drifted from the fresh-cache model on window [{step},{})",
            step + window_days
        );
        if step == 1 {
            let (store, ids, par) = (&wb.out.store, &wb.service_ids, &pcfg.par);
            let l1 = run_l1_pool(store, w, &store.active_sources(), &wb.l1_config(), par)
                .expect("reference L1");
            let l2 = run_l2_pool(store, w, &wb.l2_config(), par).expect("reference L2");
            let l3 = run_l3_pool(store, w, ids, &wb.l3_config(), par).expect("reference L3");
            assert_eq!(
                warm.l1.as_ref().map(|r| &r.detected),
                Some(&l1.detected),
                "L1 model differs from run_l1_pool"
            );
            assert_eq!(
                warm.l2.as_ref().map(|r| &r.detected),
                Some(&l2.detected),
                "L2 model differs from run_l2_pool"
            );
            assert_eq!(
                warm.l3.as_ref().map(|r| &r.detected),
                Some(&l3.detected),
                "L3 model differs from run_l3_pool"
            );
        }

        warm_total += warm_ms;
        cold_total += cold_ms;
        steps.push(Step {
            start_day: step,
            warm_ms,
            cold_ms,
            warm_layer_ms,
            cold_layer_ms,
            warm_stats,
        });
    }

    let speedup = cold_total / warm_total;
    let warm_each: Vec<f64> = steps.iter().map(|s: &Step| s.warm_ms).collect();
    let warm_median_ms = median(&warm_each);
    let warm_median_bound_ms = (!smoke).then_some(WARM_MEDIAN_BOUND_MS);
    if let Some(bound) = warm_median_bound_ms {
        assert!(
            warm_median_ms <= bound,
            "median warm advance took {warm_median_ms:.1} ms, bound {bound:.1} ms"
        );
        println!(
            "warm gate passed: median advance {warm_median_ms:.1} ms <= {bound:.1} ms \
             ({speedup:.2}x cold over warm, not gated)"
        );
    } else {
        println!(
            "warm gate skipped (smoke mode): median advance {warm_median_ms:.1} ms, \
             {speedup:.2}x cold over warm"
        );
    }

    // Smoke-only overhead gate: replaying the final (fully warm) window
    // with a recorder installed must cost within 5% of the bare replay,
    // plus a small absolute allowance for timer noise on a path this
    // short. Min-of-K on an interleaved schedule so a scheduler hiccup
    // cannot fail the gate on one side only. This gate times the
    // recorder itself, so it cannot read its times from a recorder: it
    // keeps a clock of its own outside both runs.
    if smoke {
        let w = TimeRange::new(
            Millis::from_days(n_advances),
            Millis::from_days(n_advances + window_days),
        );
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;
        let mut bare = f64::INFINITY;
        let mut traced = f64::INFINITY;
        for _ in 0..7 {
            let t = Instant::now();
            run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling)
                .expect("bare warm window");
            bare = bare.min(ms(t));

            logdep::obs::set_recorder(logdep::obs::Recorder::new());
            let t = Instant::now();
            run_window_cached(&wb.out.store, w, &wb.service_ids, &pcfg, &mut rolling)
                .expect("traced warm window");
            let elapsed = ms(t);
            let rec = logdep::obs::take_recorder().expect("recorder still installed");
            assert!(!rec.sink.is_empty(), "traced warm window emitted no events");
            traced = traced.min(elapsed);
        }
        let limit = bare * 1.05 + 1.0;
        assert!(
            traced <= limit,
            "instrumentation overhead gate: traced warm window took {traced:.2} ms, \
             limit {limit:.2} ms (bare {bare:.2} ms + 5% + 1 ms)"
        );
        println!(
            "instrumentation gate passed: warm window {bare:.2} ms bare, {traced:.2} ms traced"
        );
    }

    let report = Report {
        seed,
        scale,
        smoke,
        days: wb.days,
        window_days,
        n_advances,
        n_logs: wb.out.store.len(),
        host_cpus,
        prime_ms,
        cold_ms: cold_total,
        warm_ms: warm_total,
        warm_median_ms,
        warm_median_bound_ms,
        speedup,
        steps,
        identical: true,
    };
    write_bench_report("BENCH_incremental", &report, smoke);
}
