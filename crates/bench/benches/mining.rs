//! Criterion benchmarks of the three mining techniques, at several
//! traffic scales — backing §5's claim that "all algorithms scale
//! linearly with respect to the number of logs".

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use logdep::l1::{run_l1_pool, L1Config};
use logdep::l2::{run_l2_pool, L2Config};
use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep_logstore::time::TimeRange;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate, SimConfig, SimOutput};

/// One simulated day at the given scale.
fn day_at_scale(scale: f64) -> SimOutput {
    let mut cfg = SimConfig::paper_week(11, scale);
    cfg.days = 1;
    simulate(&cfg)
}

fn bench_l3(c: &mut Criterion) {
    let mut group = c.benchmark_group("l3_scan");
    for &scale in &[0.1, 0.2, 0.4] {
        let out = day_at_scale(scale);
        let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
        let cfg = L3Config::with_stop_patterns(standard_stop_patterns());
        let range = TimeRange::day(0);
        group.throughput(Throughput::Elements(out.store.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(out.store.len()),
            &out,
            |b, out| {
                b.iter(|| {
                    run_l3_pool(&out.store, range, &ids, &cfg, &ParConfig::default()).expect("L3")
                });
            },
        );
    }
    group.finish();
}

fn bench_l2(c: &mut Criterion) {
    let mut group = c.benchmark_group("l2_sessions_and_bigrams");
    for &scale in &[0.1, 0.2, 0.4] {
        let out = day_at_scale(scale);
        let cfg = L2Config::default();
        let range = TimeRange::day(0);
        group.throughput(Throughput::Elements(out.store.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(out.store.len()),
            &out,
            |b, out| {
                b.iter(|| run_l2_pool(&out.store, range, &cfg, &ParConfig::default()).expect("L2"));
            },
        );
    }
    group.finish();
}

fn bench_l1(c: &mut Criterion) {
    let mut group = c.benchmark_group("l1_slot_tests");
    group.sample_size(10); // L1 over a full day is the heavy one
    for &scale in &[0.1, 0.2] {
        let out = day_at_scale(scale);
        let cfg = L1Config {
            minlogs: 15,
            seed: 1,
            ..L1Config::default()
        };
        let sources = out.store.active_sources();
        let range = TimeRange::day(0);
        group.throughput(Throughput::Elements(out.store.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(out.store.len()),
            &out,
            |b, out| {
                b.iter(|| {
                    run_l1_pool(&out.store, range, &sources, &cfg, &ParConfig::default())
                        .expect("L1")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_l3, bench_l2, bench_l1);
criterion_main!(benches);
