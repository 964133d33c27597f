//! Throughput benchmark of the loopback query server.
//!
//! Baseline: sequential single requests, one fresh connection each, at
//! one worker — the cost an operator pays scripting `curl` in a loop.
//! Measured mode: four workers serving four keep-alive client threads.
//! The gate asserts the pooled keep-alive mode is at least 10x the
//! single-request baseline (skipped in `--smoke` and on hosts with
//! fewer than 4 CPUs, where the pool cannot win). Every response body
//! in both phases is byte-checked against the expected rendering, and
//! a snapshot hot-swap mid-run must flip all subsequent bodies to the
//! new generation — correctness is asserted in every mode, including
//! smoke. Emits `BENCH_serve.json` under `target/experiments/` and at
//! the repository root (the committed evidence artifact).

use logdep::{DailyPlan, EvidenceCache};
use logdep_bench::workbench::{write_report, Workbench, DEFAULT_SEED};
use logdep_serve::{HttpClient, ModelIndex, ServeConfig, Server, ServerHandle};
use logdep_sim::SimConfig;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Report {
    seed: u64,
    scale: f64,
    smoke: bool,
    host_cpus: usize,
    days: u32,
    snapshots: u64,
    n_logs: usize,
    /// Requests issued in the sequential fresh-connection baseline.
    baseline_requests: u64,
    baseline_ms: f64,
    baseline_rps: f64,
    /// Client threads × requests each in the pooled keep-alive phase.
    throughput_threads: usize,
    throughput_requests: u64,
    throughput_ms: f64,
    throughput_rps: f64,
    workers: usize,
    speedup: f64,
    speedup_asserted: bool,
    /// Every body byte-identical to the expected rendering (asserted).
    identical: bool,
}

fn build_index(wb: &Workbench, steps: u64, generation: u64) -> ModelIndex {
    let cfg = wb.pipeline_config();
    let plan = DailyPlan {
        start_day: 0,
        window_days: 1,
        advance_days: 1,
        steps,
    };
    let mut cache = EvidenceCache::new();
    ModelIndex::from_store(
        &wb.out.store,
        &wb.service_ids,
        &cfg,
        &plan,
        &mut cache,
        generation,
    )
    .expect("index build")
}

/// Runs `body` against a live server on a `logdep_par` scope (the
/// workspace's sanctioned threading entry point); the server is shut
/// down and joined before this returns.
fn with_server<T>(workers: usize, index: ModelIndex, body: impl FnOnce(&ServerHandle) -> T) -> T {
    let cfg = ServeConfig {
        workers,
        max_conns: 64,
        request_timeout_ms: 5_000,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, index).expect("bind loopback");
    let handle = server.handle();
    logdep_par::scope(|s| {
        s.spawn(move || logdep_serve::run_server(server, None).expect("serve loop"));
        let out = body(&handle);
        handle.shutdown();
        out
    })
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut scale = 0.3f64;
    let mut smoke = false;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().expect("--seed takes an integer");
                i += 2;
            }
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().expect("--scale takes a float");
                i += 2;
            }
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            other => {
                eprintln!("ignoring unknown argument {other:?}");
                i += 1;
            }
        }
    }
    if smoke {
        scale = 0.15;
    }
    let snapshots: u64 = if smoke { 2 } else { 3 };
    let baseline_requests: u64 = if smoke { 30 } else { 300 };
    let per_thread: u64 = if smoke { 100 } else { 3_000 };
    let threads: usize = 4;
    let workers: usize = 4;

    let mut sim = SimConfig::paper_week(seed, scale);
    sim.days = u32::try_from(snapshots).expect("small") + 1;
    let wb = Workbench::from_config(&sim);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serve bench: seed {seed}, scale {scale}, {} days, {snapshots} snapshot(s), {} logs, \
         host has {host_cpus} cpu(s)",
        wb.days,
        wb.out.store.len()
    );

    let index = build_index(&wb, snapshots, 1);
    let path = {
        let s0 = index.source_label(logdep::logstore::SourceId(0));
        let s1 = index.source_label(logdep::logstore::SourceId(1));
        format!("/v1/pair?src={s0}&dst={s1}")
    };

    // Expected renderings, straight from a probe exchange.
    let (expected, expected_gen2) = with_server(1, index.clone(), |handle| {
        let mut probe = HttpClient::connect(handle.addr(), 5_000).expect("probe connect");
        let (status, expected) = probe.get(&path).expect("probe");
        assert_eq!(status, 200, "probe body: {expected}");
        handle.install(build_index(&wb, snapshots, 2));
        let (status, expected_gen2) = probe.get(&path).expect("probe gen2");
        assert_eq!(status, 200);
        assert_ne!(expected, expected_gen2, "swap must be observable");
        (expected, expected_gen2)
    });

    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1_000.0;

    // Baseline: fresh connection per request, one worker.
    let baseline_ms = with_server(1, index.clone(), |handle| {
        let t = Instant::now();
        for _ in 0..baseline_requests {
            let mut client = HttpClient::connect(handle.addr(), 5_000).expect("baseline connect");
            let (status, body) = client.get(&path).expect("baseline request");
            assert_eq!(status, 200);
            assert_eq!(body, expected, "baseline body diverged");
        }
        ms(t)
    });
    let baseline_rps = baseline_requests as f64 / (baseline_ms / 1_000.0);
    println!(
        "  baseline: {baseline_requests} fresh-connection request(s) in {baseline_ms:8.1} ms \
         ({baseline_rps:9.0} req/s)"
    );

    // Measured mode: pooled workers, keep-alive client threads. The
    // hot-swap check rides the same server: after the measured phase,
    // install generation 2 and require every subsequent body to be the
    // new rendering, byte for byte.
    let throughput_ms = with_server(workers, index.clone(), |handle| {
        let addr = handle.addr();
        let t = Instant::now();
        logdep_par::scope(|s| {
            for _ in 0..threads {
                let expected = &expected;
                let path = &path;
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr, 5_000).expect("client connect");
                    for _ in 0..per_thread {
                        let (status, body) = client.get(path).expect("pooled request");
                        assert_eq!(status, 200);
                        assert_eq!(&body, expected, "pooled body diverged");
                    }
                });
            }
        });
        let elapsed = ms(t);
        handle.install(build_index(&wb, snapshots, 2));
        let mut client = HttpClient::connect(addr, 5_000).expect("post-swap connect");
        for _ in 0..10 {
            let (status, body) = client.get(&path).expect("post-swap request");
            assert_eq!(status, 200);
            assert_eq!(body, expected_gen2, "post-swap body diverged");
        }
        elapsed
    });
    let throughput_requests = per_thread * threads as u64;
    let throughput_rps = throughput_requests as f64 / (throughput_ms / 1_000.0);
    println!(
        "  pooled:   {throughput_requests} keep-alive request(s) over {threads} thread(s) in \
         {throughput_ms:8.1} ms ({throughput_rps:9.0} req/s)"
    );

    let speedup = throughput_rps / baseline_rps;
    let speedup_asserted = !smoke && host_cpus >= 4;
    if speedup_asserted {
        assert!(
            speedup >= 10.0,
            "expected >= 10x pooled keep-alive throughput over the single-request \
             baseline, got {speedup:.2}x ({throughput_rps:.0} vs {baseline_rps:.0} req/s)"
        );
        println!("serve gate passed: {speedup:.2}x over the single-request baseline");
    } else {
        println!("serve gate skipped (smoke or <4 cpus): {speedup:.2}x observed");
    }

    let report = Report {
        seed,
        scale,
        smoke,
        host_cpus,
        days: wb.days,
        snapshots,
        n_logs: wb.out.store.len(),
        baseline_requests,
        baseline_ms,
        baseline_rps,
        throughput_threads: threads,
        throughput_requests,
        throughput_ms,
        throughput_rps,
        workers,
        speedup,
        speedup_asserted,
        identical: true,
    };
    let out = write_report("BENCH_serve", &report);
    println!("wrote {}", out.display());
    let root = "BENCH_serve.json";
    std::fs::write(
        root,
        serde_json::to_string_pretty(&report).expect("serialize report"),
    )
    .expect("write repo-root report");
    println!("wrote {root}");
}
