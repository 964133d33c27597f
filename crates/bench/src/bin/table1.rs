//! Table 1: the observation week with per-day log volumes.
//!
//! Paper: days Tue 06 – Mon 12 Dec 2005 with 10.3, 9.4, 9.4, 9.9, 3.7,
//! 3.4, 10.7 million logs (weekend on days 4 and 5). The simulated
//! week is ~100× smaller; the *shape* (weekend dip to roughly a third)
//! is the reproduction target.

use logdep_bench::workbench::{cli_seed_scale, write_report, Workbench};
use serde::Serialize;

#[derive(Serialize)]
struct Table1Report {
    paper_mio: Vec<f64>,
    measured: Vec<usize>,
    measured_relative: Vec<f64>,
    paper_relative: Vec<f64>,
}

fn main() {
    let (seed, scale) = cli_seed_scale();
    let wb = Workbench::paper_week(seed, scale);
    let paper = [10.3, 9.4, 9.4, 9.9, 3.7, 3.4, 10.7];
    let days = wb.out.store.counts_per_day();
    let measured: Vec<usize> = (0..7)
        .map(|d| days.get(d).map(|x| x.1).unwrap_or(0))
        .collect();

    let p0 = paper[0];
    let m0 = measured[0].max(1) as f64;
    println!("Table 1 — days in test period with number of logs");
    println!(
        "{:<12} {:>12} {:>10} | {:>12} {:>10}",
        "day", "paper[mio]", "rel", "measured", "rel"
    );
    let labels = [
        "Tue 06", "Wed 07", "Thu 08", "Fri 09", "Sat 10", "Sun 11", "Mon 12",
    ];
    for i in 0..7 {
        println!(
            "{:<12} {:>12.1} {:>10.2} | {:>12} {:>10.2}",
            labels[i],
            paper[i],
            paper[i] / p0,
            measured[i],
            measured[i] as f64 / m0
        );
    }
    println!(
        "\ntotal paper: 56.8 mio; total measured: {}",
        measured.iter().sum::<usize>()
    );

    let report = Table1Report {
        paper_mio: paper.to_vec(),
        measured_relative: measured.iter().map(|&m| m as f64 / m0).collect(),
        paper_relative: paper.iter().map(|&p| p / p0).collect(),
        measured,
    };
    write_report("table1", &report);
}
