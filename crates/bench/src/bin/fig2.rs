//! Figure 2: boxplots of the distance samples S_r and S_b for the
//! interacting pair of Figure 1, in both directions.
//!
//! Paper: in each direction, the 95 %- and 99 %-level median CIs of
//! the B-sample lie entirely below the CI of the random sample —
//! the pair is correctly declared dependent.

use logdep::l1::direction_test;
use logdep_bench::ascii::boxplot_line;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::{TimeRange, MS_PER_HOUR};
use logdep_logstore::Millis;
use logdep_stats::boxplot::summarize;
use logdep_stats::sampling::Sampler;
use serde::Serialize;

#[derive(Serialize)]
struct Direction {
    a: String,
    b: String,
    positive: bool,
    sr: logdep_stats::boxplot::BoxplotSummary,
    sb: logdep_stats::boxplot::BoxplotSummary,
}

#[derive(Serialize)]
struct Fig2Report {
    directions: Vec<Direction>,
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let topo = &wb.out.topology;

    let (edge_idx, _) = wb.out.stats.realized[0]
        .iter()
        .enumerate()
        .filter(|(i, _)| topo.edges[*i].citation == logdep_sim::topology::CitationStyle::Correct)
        .max_by_key(|(_, &c)| c)
        .expect("some edge realized");
    let edge = &topo.edges[edge_idx];
    let caller = topo.apps[edge.caller].name.clone();
    let callee = topo.apps[topo.services[edge.service].owner].name.clone();
    let caller_id = wb.out.store.registry.find_source(&caller).expect("caller");
    let callee_id = wb.out.store.registry.find_source(&callee).expect("callee");

    let hour = TimeRange::new(Millis(10 * MS_PER_HOUR), Millis(11 * MS_PER_HOUR));
    let cfg = wb.l1_config();

    println!("Figure 2 — boxplots of S_r (random) vs S_b (partner logs)");
    println!("pair: {caller} / {callee}, day 0 hour 10\n");

    let mut directions = Vec::new();
    for (a_name, b_name, a, b) in [
        (&callee, &caller, callee_id, caller_id),
        (&caller, &callee, caller_id, callee_id),
    ] {
        let mut sampler = Sampler::from_seed(1234);
        let out = direction_test(
            wb.out.store.timeline(a),
            wb.out.store.timeline(b),
            hour,
            &cfg,
            &mut sampler,
        )
        .expect("enough data in the busy hour");
        let sr = summarize(&out.sample_r.dists, 0.95, 0.99).expect("sr summary");
        let sb = summarize(&out.sample_b.dists, 0.95, 0.99).expect("sb summary");
        println!("direction: is {b_name} attracted to {a_name}?");
        let lo = sr.min.min(sb.min);
        let hi = sr.max.max(sb.max);
        println!(
            "{}",
            boxplot_line("S_r", lo, sr.q1, sr.median, sr.q3, hi, sr.median_ci_primary)
        );
        println!(
            "{}",
            boxplot_line("S_b", lo, sb.q1, sb.median, sb.q3, hi, sb.median_ci_primary)
        );
        println!(
            "  S_b median CI (95%): [{:.0}, {:.0}] ms; S_r: [{:.0}, {:.0}] ms; positive: {}\n",
            sb.median_ci_primary.0,
            sb.median_ci_primary.1,
            sr.median_ci_primary.0,
            sr.median_ci_primary.1,
            out.positive
        );
        directions.push(Direction {
            a: a_name.clone(),
            b: b_name.clone(),
            positive: out.positive,
            sr,
            sb,
        });
    }

    let both = directions.iter().all(|d| d.positive);
    println!("both directions positive: {both} (paper: yes — the pair is declared dependent)");
    write_report("fig2", &Fig2Report { directions });
}
