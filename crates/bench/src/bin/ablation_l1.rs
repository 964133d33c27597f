//! Ablation of technique L1's design choices (DESIGN.md §6).
//!
//! The paper adapts Li & Ma's test in three ways: median instead of
//! mean, nearest instead of next arrival, one-sided instead of
//! two-sided. This binary runs the paper's configuration, the full
//! Li–Ma style baseline, and each single-change variant over one day,
//! plus a `minlogs`/slot-length sensitivity sweep.

use logdep::l1::{run_l1_pool, CenterStat, DecisionRule, DistanceKind, L1Config};
use logdep::model::diff;
use logdep::par::ParConfig;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::TimeRange;
use serde::Serialize;

#[derive(Serialize)]
struct Variant {
    name: String,
    tp: usize,
    fp: usize,
    tpr: f64,
}

#[derive(Serialize)]
struct AblationReport {
    day: i64,
    variants: Vec<Variant>,
    minlogs_sweep: Vec<(usize, usize, usize)>,
    slot_sweep_minutes: Vec<(i64, usize, usize)>,
}

fn main() {
    let par = ParConfig::default();
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let sources = wb.out.store.active_sources();
    let day = 0i64;
    let range = TimeRange::day(day);
    let base = wb.l1_config();

    let run = |cfg: &L1Config| -> (usize, usize, f64) {
        let res = run_l1_pool(&wb.out.store, range, &sources, cfg, &par).expect("L1 run");
        let d = diff(&res.detected, &wb.pair_ref);
        (d.tp(), d.fp(), d.true_positive_ratio())
    };

    println!("L1 design-choice ablation (day {day})\n");
    let mut variants = Vec::new();
    let named: Vec<(&str, L1Config)> = vec![
        ("paper (median/nearest/1-sided)", base.clone()),
        (
            "li-ma baseline (mean/next/2-sided)",
            L1Config {
                distance: DistanceKind::Next,
                stat: CenterStat::Mean,
                two_sided: true,
                ..base.clone()
            },
        ),
        (
            "mean instead of median",
            L1Config {
                stat: CenterStat::Mean,
                ..base.clone()
            },
        ),
        (
            "next instead of nearest",
            L1Config {
                distance: DistanceKind::Next,
                ..base.clone()
            },
        ),
        (
            "two-sided instead of one-sided",
            L1Config {
                two_sided: true,
                ..base.clone()
            },
        ),
        (
            "rank-sum instead of CI separation",
            L1Config {
                decision: DecisionRule::RankSum { alpha: 0.01 },
                ..base.clone()
            },
        ),
    ];
    println!("{:<36} {:>5} {:>5} {:>6}", "variant", "tp", "fp", "tpr");
    for (name, cfg) in named {
        let (tp, fp, tpr) = run(&cfg);
        println!("{name:<36} {tp:>5} {fp:>5} {tpr:>6.2}");
        variants.push(Variant {
            name: name.to_owned(),
            tp,
            fp,
            tpr,
        });
    }

    println!("\nminlogs sensitivity:");
    let mut minlogs_sweep = Vec::new();
    for minlogs in [10usize, 15, 25, 40, 60, 100] {
        let cfg = L1Config {
            minlogs,
            ..base.clone()
        };
        let (tp, fp, _) = run(&cfg);
        println!("  minlogs {minlogs:>4}: tp {tp:>3} fp {fp:>3}");
        minlogs_sweep.push((minlogs, tp, fp));
    }

    println!("\nslot-length sensitivity:");
    let mut slot_sweep = Vec::new();
    for minutes in [20i64, 30, 60, 120, 240] {
        let cfg = L1Config {
            slot_ms: minutes * 60 * 1_000,
            ..base.clone()
        };
        let (tp, fp, _) = run(&cfg);
        println!("  slot {minutes:>4} min: tp {tp:>3} fp {fp:>3}");
        slot_sweep.push((minutes, tp, fp));
    }

    let report = AblationReport {
        day,
        variants,
        minlogs_sweep,
        slot_sweep_minutes: slot_sweep,
    };
    write_report("ablation_l1", &report);
}
