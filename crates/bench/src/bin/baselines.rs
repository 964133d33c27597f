//! Related-work baseline comparison (§2.1 of the paper): technique L1
//! against Agrawal et al.'s delay-histogram test and Ensel's supervised
//! neural network, on the same simulated day.
//!
//! The comparison quantifies the paper's positioning:
//! * Agrawal's test needs a delay-window assumption and reacts to the
//!   same parallelism L1 does;
//! * Ensel's classifier can match or beat L1 — *but only after being
//!   trained on labeled pairs*, which is exactly the "laborious,
//!   delicate, expensive" supervision the paper set out to avoid.

use logdep::baselines::{pair_features, run_agrawal, AgrawalConfig, EnselClassifier, EnselConfig};
use logdep::l1::run_l1_pool;
use logdep::model::{diff, PairModel};
use logdep::par::ParConfig;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use logdep_logstore::SourceId;
use serde::Serialize;

#[derive(Serialize, Default)]
struct BaselinesReport {
    l1: (usize, usize),
    agrawal: (usize, usize),
    ensel_test_tp: usize,
    ensel_test_fp: usize,
    ensel_test_fn: usize,
    ensel_train_pairs: usize,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let day = TimeRange::day(0);
    let sources = wb.out.store.active_sources();
    let mut report = BaselinesReport::default();

    // --- Technique L1 (the paper's unsupervised method).
    let l1 = run_l1_pool(&wb.out.store, day, &sources, &wb.l1_config(), &par).expect("L1");
    let d = diff(&l1.detected, &wb.pair_ref);
    report.l1 = (d.tp(), d.fp());

    // --- Agrawal et al. delay histograms.
    let ag = run_agrawal(&wb.out.store, day, &sources, &AgrawalConfig::default()).expect("agrawal");
    let d = diff(&ag.detected, &wb.pair_ref);
    report.agrawal = (d.tp(), d.fp());

    // --- Ensel: supervised NN with a train/test split over pairs.
    // Even-indexed pairs are training material (the "laborious expert
    // labeling"), odd-indexed pairs are the evaluation set.
    let cfg = EnselConfig::default();
    let mut all_pairs: Vec<(SourceId, SourceId, bool)> = Vec::new();
    for (i, &a) in sources.iter().enumerate() {
        for &b in sources.iter().skip(i + 1) {
            all_pairs.push((a, b, wb.pair_ref.contains(a, b)));
        }
    }
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut n_train_neg = 0usize;
    for (k, &(a, b, label)) in all_pairs.iter().enumerate() {
        let f = pair_features(&wb.out.store, day, a, b, &cfg);
        if k % 2 == 0 {
            // Balance the training set: keep all positives, downsample
            // the vastly more numerous negatives.
            if label {
                train.push((f, label));
            } else if n_train_neg < 220 {
                n_train_neg += 1;
                train.push((f, label));
            }
        } else {
            test.push((a, b, label, f));
        }
    }
    report.ensel_train_pairs = train.len();
    let net = EnselClassifier::train(&train, &cfg).expect("training");
    let mut detected = PairModel::new();
    let mut reference = PairModel::new();
    for &(a, b, label, ref f) in &test {
        if label {
            reference.insert(a, b);
        }
        if net.classify(f) {
            detected.insert(a, b);
        }
    }
    let d = diff(&detected, &reference);
    report.ensel_test_tp = d.tp();
    report.ensel_test_fp = d.fp();
    report.ensel_test_fn = d.fn_();

    println!("related-work baselines vs technique L1 (day 0)\n");
    println!("{:<42} {:>5} {:>5}", "method", "tp", "fp");
    println!(
        "{:<42} {:>5} {:>5}",
        "L1 (unsupervised, paper)", report.l1.0, report.l1.1
    );
    println!(
        "{:<42} {:>5} {:>5}",
        "Agrawal et al. delay histograms", report.agrawal.0, report.agrawal.1
    );
    println!(
        "{:<42} {:>5} {:>5}   (on a 50% held-out pair set; trained on {} labeled pairs)",
        "Ensel supervised NN", report.ensel_test_tp, report.ensel_test_fp, report.ensel_train_pairs
    );
    println!(
        "\nEnsel recall on held-out true pairs: {}/{} — possible, but only with \
         the expert labeling the paper's techniques avoid needing",
        report.ensel_test_tp,
        report.ensel_test_tp + report.ensel_test_fn
    );

    write_report("baselines", &report);
}
