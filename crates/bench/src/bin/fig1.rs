//! Figure 1: number of logs per second for two interacting
//! applications (DPIFormidoc calling DPIPublication in the paper).
//!
//! Picks the busiest correctly-cited dependency edge of the simulated
//! topology and renders both applications' per-second activity over a
//! busy five-minute window; the correlation of high/low activity
//! periods is the visual motivation for technique L1.

use logdep_bench::ascii::sparkline;
use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use logdep_logstore::time::{TimeRange, MS_PER_HOUR, MS_PER_SEC};
use logdep_logstore::Millis;
use serde::Serialize;

#[derive(Serialize)]
struct Fig1Report {
    caller: String,
    callee: String,
    window_start_ms: i64,
    bin_ms: i64,
    caller_counts: Vec<usize>,
    callee_counts: Vec<usize>,
    correlation: f64,
}

fn pearson(a: &[usize], b: &[usize]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<usize>() as f64 / n;
    let mb = b.iter().sum::<usize>() as f64 / n;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for i in 0..a.len() {
        let xa = a[i] as f64 - ma;
        let xb = b[i] as f64 - mb;
        num += xa * xb;
        da += xa * xa;
        db += xb * xb;
    }
    num / (da.sqrt() * db.sqrt()).max(1e-12)
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let topo = &wb.out.topology;

    // Busiest correctly-cited edge on day 0.
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

    // Busy five minutes on day 0, 10:00.
    let start = Millis(10 * MS_PER_HOUR);
    let window = TimeRange::new(start, Millis(start.0 + 300 * MS_PER_SEC));
    let bin = 5 * MS_PER_SEC;
    let a = wb.out.store.timeline(caller_id).counts_per_bin(window, bin);
    let b = wb.out.store.timeline(callee_id).counts_per_bin(window, bin);
    let corr = pearson(&a, &b);

    println!("Figure 1 — per-second activity of two interacting applications");
    println!("(paper: DPIFormidoc calls DPIPublication; correlated bursts)\n");
    println!(
        "{caller:>16} {}",
        sparkline(&a.iter().map(|&x| x as f64).collect::<Vec<_>>())
    );
    println!(
        "{callee:>16} {}",
        sparkline(&b.iter().map(|&x| x as f64).collect::<Vec<_>>())
    );
    println!("\nactivity correlation over the window: {corr:.3} (paper: visibly positive)");

    write_report(
        "fig1",
        &Fig1Report {
            caller,
            callee,
            window_start_ms: window.start.0,
            bin_ms: bin,
            caller_counts: a,
            callee_counts: b,
            correlation: corr,
        },
    );
}
