//! Robustness sweep: fault intensity vs detection quality.
//!
//! Simulates the calibrated week, then for each fault intensity x ∈
//! [0, 1]: re-emits the stream through the `logdep-faults` injector,
//! consolidates it back through the resilient ingest path (quarantine,
//! repair, dedup), runs the degradation-tolerant pipeline (L1/L2/L3 in
//! isolation), and scores every detector plus the rescaled-vote
//! ensemble against the simulator's ground truth. Emits a JSON
//! robustness curve under `target/experiments/robustness.json`.
//!
//! Invariants checked on every run:
//! * intensity 0 reproduces the clean pipeline's precision/recall
//!   exactly (the injector is the identity, ingest repairs nothing);
//! * every nonzero intensity completes without panic and reports
//!   ingest + detector health.
//!
//! `--smoke` runs a one-day, low-scale variant with hard assertions
//! (nonzero quarantine, complete model) for CI.

use logdep::health::{run_pipeline, PipelineOutcome};
use logdep::model::{diff, AppServiceModel, PairModel};
use logdep_bench::workbench::{cli_args, write_report, Args, Workbench};
use logdep_faults::{inject, FaultConfig};
use logdep_logstore::codec::write_store;
use logdep_logstore::ingest::{read_store_resilient, IngestPolicy};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, Millis, SourceId};
use serde::Serialize;

#[derive(Serialize, Clone, Copy, PartialEq, Debug)]
struct Score {
    tp: usize,
    fp: usize,
    fn_: usize,
    precision: f64,
    recall: f64,
}

impl Score {
    fn from_pairs(detected: &PairModel, reference: &PairModel) -> Self {
        let d = diff(detected, reference);
        Self {
            tp: d.tp(),
            fp: d.fp(),
            fn_: d.fn_(),
            precision: d.true_positive_ratio(),
            recall: d.recall(),
        }
    }

    fn from_app_service(detected: &AppServiceModel, reference: &AppServiceModel) -> Self {
        let d = diff(detected, reference);
        Self {
            tp: d.tp(),
            fp: d.fp(),
            fn_: d.fn_(),
            precision: d.true_positive_ratio(),
            recall: d.recall(),
        }
    }
}

#[derive(Serialize)]
struct DetectorPoint {
    ok: bool,
    error: Option<String>,
    score: Option<Score>,
}

#[derive(Serialize)]
struct SweepPoint {
    intensity: f64,
    // Injection damage (from the FaultLedger).
    records_lost: usize,
    records_duplicated: usize,
    lines_corrupted: usize,
    skewed_sources: usize,
    // Ingest repair (from the IngestReport).
    lines_quarantined: usize,
    records_deduped: usize,
    out_of_order_repaired: usize,
    skew_estimates: usize,
    // Detection quality.
    l1: DetectorPoint,
    l2: DetectorPoint,
    l3: DetectorPoint,
    ensemble_majority: Score,
    detectors_ok: usize,
}

#[derive(Serialize)]
struct RobustnessReport {
    seed: u64,
    scale: f64,
    days: u32,
    points: Vec<SweepPoint>,
}

struct Refs {
    pair_ref: PairModel,
    svc_ref: AppServiceModel,
    owners: Vec<SourceId>,
}

/// Resolves ground truth and the owner relation against a (possibly
/// degraded) store's registry. Truth names whose application lost its
/// every record are interned first, so reference pairs they appear in
/// survive as countable false negatives instead of resolution errors —
/// recall stays honest under heavy loss.
fn resolve_refs(store: &mut LogStore, wb: &Workbench) -> Refs {
    for name in wb.out.truth.app_names.iter() {
        store.registry.source(name);
    }
    let owners: Vec<SourceId> = wb
        .out
        .topology
        .services
        .iter()
        .map(|s| store.registry.source(&wb.out.topology.apps[s.owner].name))
        .collect();
    let pair_ref = PairModel::from_names(
        &store.registry,
        wb.out
            .truth
            .app_pairs
            .iter()
            .map(|(a, b)| (a.as_str(), b.as_str())),
    )
    .expect("truth names interned above");
    let svc_ref = AppServiceModel::from_names(
        &store.registry,
        &wb.service_ids,
        wb.out
            .truth
            .app_service
            .iter()
            .map(|(a, s)| (a.as_str(), s.as_str())),
    )
    .expect("truth service ids are directory ids");
    Refs {
        pair_ref,
        svc_ref,
        owners,
    }
}

fn detector_point(health: &logdep::health::DetectorHealth, score: Option<Score>) -> DetectorPoint {
    DetectorPoint {
        ok: health.ok,
        error: health.error.clone(),
        score,
    }
}

fn score_outcome(
    out: &PipelineOutcome,
    refs: &Refs,
) -> (DetectorPoint, DetectorPoint, DetectorPoint, Score) {
    let l1 = detector_point(
        &out.health[0],
        out.l1_pairs
            .as_ref()
            .map(|m| Score::from_pairs(m, &refs.pair_ref)),
    );
    let l2 = detector_point(
        &out.health[1],
        out.l2_pairs
            .as_ref()
            .map(|m| Score::from_pairs(m, &refs.pair_ref)),
    );
    let l3 = detector_point(
        &out.health[2],
        out.l3_deps
            .as_ref()
            .map(|m| Score::from_app_service(m, &refs.svc_ref)),
    );
    let ens = Score::from_pairs(&out.ensemble.at_least_rescaled(2), &refs.pair_ref);
    (l1, l2, l3, ens)
}

fn main() {
    let Args { seed, scale, smoke } = cli_args(0.5, true);

    let mut cfg = logdep_sim::SimConfig::paper_week(seed, scale);
    if smoke {
        cfg.days = 1;
    }
    let wb = Workbench::from_config(&cfg);
    let range = TimeRange::new(Millis(0), Millis::from_days(wb.days as i64));
    let pcfg = wb.pipeline_config();

    // Clean baseline: the pristine store re-read through the same
    // serialize → resilient-ingest path the sweep uses. The simulator
    // can legitimately emit identical (timestamp, source, message)
    // records that consolidation dedups as a policy; routing the
    // baseline through the identical path makes the zero point
    // comparable record-for-record by construction.
    let mut clean_tsv = Vec::new();
    write_store(&mut clean_tsv, &wb.out.store).expect("serialize pristine store");
    let (mut clean_store, clean_report) =
        read_store_resilient(clean_tsv.as_slice(), &IngestPolicy::default())
            .expect("pristine stream is within any error budget");
    assert_eq!(clean_report.quarantined, 0, "pristine stream parses fully");
    let clean_refs = resolve_refs(&mut clean_store, &wb);
    let clean_out = run_pipeline(
        &clean_store,
        range,
        &wb.service_ids,
        Some(&clean_refs.owners),
        &pcfg,
    )
    .expect("clean pipeline");
    let (c_l1, c_l2, c_l3, c_ens) = score_outcome(&clean_out, &clean_refs);
    assert!(clean_out.fully_healthy(), "clean pipeline must be healthy");
    println!(
        "clean pipeline: L1 p={:.3} r={:.3}  L2 p={:.3} r={:.3}  L3 p={:.3} r={:.3}  ens p={:.3} r={:.3}",
        c_l1.score.expect("l1 ran").precision,
        c_l1.score.expect("l1 ran").recall,
        c_l2.score.expect("l2 ran").precision,
        c_l2.score.expect("l2 ran").recall,
        c_l3.score.expect("l3 ran").precision,
        c_l3.score.expect("l3 ran").recall,
        c_ens.precision,
        c_ens.recall,
    );

    let intensities: &[f64] = if smoke {
        &[0.0, 0.5]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };

    let mut points = Vec::new();
    for &intensity in intensities {
        let injection = inject(&wb.out.store, &FaultConfig::at_intensity(seed, intensity));
        let (mut store, report) =
            read_store_resilient(injection.tsv.as_bytes(), &IngestPolicy::default())
                .expect("fault profile stays within the default error budget");
        let refs = resolve_refs(&mut store, &wb);
        let out = run_pipeline(&store, range, &wb.service_ids, Some(&refs.owners), &pcfg)
            .expect("degraded pipeline");
        let (l1, l2, l3, ens) = score_outcome(&out, &refs);

        println!(
            "intensity {intensity:.1}: {} | ingest: {} | {}/3 detectors ok, ens p={:.3} r={:.3}",
            injection.ledger.summary(),
            report.summary(),
            out.detectors_ok(),
            ens.precision,
            ens.recall,
        );

        if intensity == 0.0 {
            // The injector is the identity and ingest repairs nothing:
            // the sweep's zero point IS the clean pipeline.
            assert_eq!(report.quarantined, 0, "intensity 0 quarantines nothing");
            assert_eq!(
                report.deduped, clean_report.deduped,
                "intensity 0 dedups exactly what the clean path dedups"
            );
            assert_eq!(
                (l1.score, l2.score, l3.score, ens),
                (c_l1.score, c_l2.score, c_l3.score, c_ens),
                "intensity 0 must reproduce the clean pipeline exactly"
            );
        } else {
            assert!(
                injection.ledger.total_lost() > 0 || injection.ledger.corruption.total() > 0,
                "nonzero intensity must inject damage"
            );
        }
        if smoke && intensity > 0.0 {
            assert!(report.quarantined > 0, "smoke: corruption must quarantine");
            assert_eq!(out.health.len(), 3, "smoke: health for all detectors");
            assert!(
                !out.ensemble.is_empty(),
                "smoke: degraded run still produces a model"
            );
        }

        points.push(SweepPoint {
            intensity,
            records_lost: injection.ledger.total_lost(),
            records_duplicated: injection.ledger.duplicated,
            lines_corrupted: injection.ledger.corruption.total(),
            skewed_sources: injection.ledger.skew_applied_ms.len(),
            lines_quarantined: report.quarantined,
            records_deduped: report.deduped,
            out_of_order_repaired: report.repaired_out_of_order,
            skew_estimates: report.per_source_skew_ms.len(),
            l1,
            l2,
            l3,
            ensemble_majority: ens,
            detectors_ok: out.detectors_ok(),
        });
    }

    let report = RobustnessReport {
        seed,
        scale: cfg.workload.scale,
        days: wb.days,
        points,
    };
    write_report("robustness", &report);
    if smoke {
        println!("smoke assertions passed");
    }
}
