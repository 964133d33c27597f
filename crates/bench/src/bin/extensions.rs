//! §5 of the paper, implemented and measured: the improvement
//! directions the authors sketch as future work.
//!
//! * **Direction detection for L2** — burst-lead counting; scored here
//!   against the known caller→owner direction of each true pair.
//! * **Typical-delay analysis** — χ² uniformity test on bigram gaps;
//!   scored by how it separates true pairs from L2's false positives.
//! * **Adaptive slots for L1** — stationarity-driven slotting compared
//!   with the paper's fixed hour grid.
//! * **Load-proportional reference process for L1** — the
//!   non-homogeneous comparison process, same comparison.

use logdep::l1::{
    adaptive_slots, run_l1_pool, run_l1_slots_pool, AdaptiveConfig, L1Config, ReferenceProcess,
};
use logdep::l2::{delay_profiles, detect_directions, run_l2_pool, DelayConfig, DirectionConfig};
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use logdep_sessions::reconstruct_range;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize, Default)]
struct ExtensionsReport {
    direction_decided: usize,
    direction_correct: usize,
    direction_undecided: usize,
    delay_causal_tp_rate: f64,
    delay_causal_fp_rate: f64,
    l1_fixed: (usize, usize),
    l1_adaptive: (usize, usize),
    l1_load_proportional: (usize, usize),
    adaptive_slot_count: usize,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let day = TimeRange::day(0);
    let mut report = ExtensionsReport::default();

    // Ground-truth direction: caller app → owner app per true pair.
    let mut true_caller: BTreeMap<
        (logdep_logstore::SourceId, logdep_logstore::SourceId),
        logdep_logstore::SourceId,
    > = BTreeMap::new();
    for e in &wb.out.topology.edges {
        let caller = wb
            .out
            .store
            .registry
            .find_source(&wb.out.topology.apps[e.caller].name)
            .expect("registered");
        let owner = wb.owners[e.service];
        if caller != owner {
            true_caller.insert((caller.min(owner), caller.max(owner)), caller);
        }
    }

    // --- L2 + direction detection.
    let l2 = run_l2_pool(&wb.out.store, day, &wb.l2_config(), &par).expect("L2");
    let sessions = reconstruct_range(&wb.out.store, day, &wb.l2_config().session);
    let detected_pairs: Vec<_> = l2.detected.iter().collect();
    let directions = detect_directions(
        &sessions.sessions,
        &detected_pairs,
        &DirectionConfig::default(),
    );
    for d in &directions {
        match d.caller {
            None => report.direction_undecided += 1,
            Some(c) => {
                if let Some(&truth) = true_caller.get(&(d.a, d.b)) {
                    report.direction_decided += 1;
                    if truth == c {
                        report.direction_correct += 1;
                    }
                }
            }
        }
    }
    println!("§5 extension 1 — L2 direction detection (burst leads):");
    println!(
        "  {} detected pairs; {} directions decided on true pairs, {} correct ({:.0}%), {} undecided",
        detected_pairs.len(),
        report.direction_decided,
        report.direction_correct,
        100.0 * report.direction_correct as f64 / report.direction_decided.max(1) as f64,
        report.direction_undecided,
    );

    // --- Delay profiles: do causal delays separate TP from FP?
    let dl2 = diff(&l2.detected, &wb.pair_ref);
    let mut types: Vec<_> = Vec::new();
    for &(a, b) in dl2.true_pos.iter().chain(dl2.false_pos.iter()) {
        types.push((a, b));
        types.push((b, a));
    }
    let profiles = delay_profiles(&sessions.sessions, &types, &DelayConfig::default())
        .expect("the default delay config is valid");
    let causal_of = |pair: &(logdep_logstore::SourceId, logdep_logstore::SourceId)| {
        profiles
            .iter()
            .filter(|p| {
                (p.first == pair.0 && p.second == pair.1)
                    || (p.first == pair.1 && p.second == pair.0)
            })
            .any(|p| p.causal)
    };
    let tp_causal = dl2.true_pos.iter().filter(|p| causal_of(p)).count();
    let fp_causal = dl2.false_pos.iter().filter(|p| causal_of(p)).count();
    report.delay_causal_tp_rate = tp_causal as f64 / dl2.tp().max(1) as f64;
    report.delay_causal_fp_rate = fp_causal as f64 / dl2.fp().max(1) as f64;
    println!("\n§5 extension 2 — typical-delay analysis (χ² vs uniform):");
    println!(
        "  causal verdicts: {:.0}% of true pairs vs {:.0}% of false positives",
        100.0 * report.delay_causal_tp_rate,
        100.0 * report.delay_causal_fp_rate
    );

    // --- L1: fixed vs adaptive slots vs load-proportional reference.
    let sources = wb.out.store.active_sources();
    let base = wb.l1_config();
    let fixed = run_l1_pool(&wb.out.store, day, &sources, &base, &par).expect("L1");
    let dfix = diff(&fixed.detected, &wb.pair_ref);
    report.l1_fixed = (dfix.tp(), dfix.fp());

    // Slots no shorter than the paper's hour, so `minlogs` keeps its
    // calibration; stationary stretches may merge up to 4 h.
    let acfg = AdaptiveConfig {
        min_slot_ms: 60 * 60 * 1_000,
        ..AdaptiveConfig::default()
    };
    let slots = adaptive_slots(&wb.out.store, day, &acfg).expect("slots");
    report.adaptive_slot_count = slots.len();
    let adaptive =
        run_l1_slots_pool(&wb.out.store, &slots, &sources, &base, &par).expect("L1 adaptive");
    let dada = diff(&adaptive.detected, &wb.pair_ref);
    report.l1_adaptive = (dada.tp(), dada.fp());

    let lp = L1Config {
        reference: ReferenceProcess::LoadProportional,
        ..base
    };
    let loadp = run_l1_pool(&wb.out.store, day, &sources, &lp, &par).expect("L1 load-proportional");
    let dlp = diff(&loadp.detected, &wb.pair_ref);
    report.l1_load_proportional = (dlp.tp(), dlp.fp());

    println!("\n§5 extensions 3/4 — L1 slotting and reference process (day 0):");
    println!(
        "  fixed 1 h slots:          tp {:>3} fp {:>3}",
        report.l1_fixed.0, report.l1_fixed.1
    );
    println!(
        "  adaptive slots ({:>2}):      tp {:>3} fp {:>3}",
        report.adaptive_slot_count, report.l1_adaptive.0, report.l1_adaptive.1
    );
    println!(
        "  load-proportional ref:    tp {:>3} fp {:>3}",
        report.l1_load_proportional.0, report.l1_load_proportional.1
    );

    write_report("extensions", &report);
}
