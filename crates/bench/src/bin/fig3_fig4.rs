//! Figures 3 and 4: the paper's running example of technique L2.
//!
//! Figure 3 shows an excerpt of a user session — a controlling client
//! `A2` calls `A1`, then twice `A3`, which in turn calls `A4` — and
//! Figure 4 the contingency table for the bigram type `(A2, A3)`.
//! This binary reconstructs the exact example, extracts the bigrams
//! (with and without the 0.5 s timeout the text discusses), and prints
//! the table, checked against the paper's published counts.

use logdep::l2::extract_bigrams;
use logdep_bench::workbench::write_report;
use logdep_logstore::{HostId, Millis, SourceId, UserId};
use logdep_sessions::{Session, SessionEntry};
use logdep_stats::contingency::Table2x2;
use serde::Serialize;

#[derive(Serialize)]
struct Fig34Report {
    bigrams: Vec<(String, String)>,
    table_a2_a3: (u64, u64, u64, u64),
    paper_table: (u64, u64, u64, u64),
    bigrams_without_last: usize,
}

fn main() {
    // The session of Figure 3 (times in seconds from the first log,
    // sources A1..A4 as indices 1..4). The final gap is 0.6 s.
    let entries = [
        (0.0, 2),
        (0.1, 1),
        (0.2, 2),
        (0.3, 3),
        (0.4, 4),
        (0.5, 2),
        (0.6, 3),
        (0.7, 4),
        (1.3, 2),
    ];
    let session = Session {
        user: UserId(0),
        host: HostId(0),
        entries: entries
            .iter()
            .map(|&(t, s)| SessionEntry {
                ts: Millis::from_secs_f64(t),
                source: SourceId(s),
            })
            .collect(),
    };

    println!("Figure 3 — the running example session (source per log):");
    let seq: Vec<String> = entries.iter().map(|&(_, s)| format!("A{s}")).collect();
    println!("  {}\n", seq.join(" → "));

    let counts = extract_bigrams(std::slice::from_ref(&session), None);
    let mut bigrams: Vec<(String, String)> = counts
        .joint
        .iter()
        .flat_map(|(&(a, b), &n)| {
            std::iter::repeat_n((format!("A{}", a.0), format!("A{}", b.0)), n as usize)
        })
        .collect();
    bigrams.sort();
    println!("bigrams (paper: (a2,a1),(a1,a2),(a2,a3),(a3,a4),(a4,a2),(a2,a3),(a3,a4),(a4,a2)):");
    println!(
        "  {} bigrams over {} types\n",
        counts.total,
        counts.n_types()
    );

    // Figure 4: contingency table for (A2, A3).
    let f = counts.joint[&(SourceId(2), SourceId(3))];
    let f1 = counts.first_margin[&SourceId(2)];
    let f2 = counts.second_margin[&SourceId(3)];
    let table = Table2x2::from_marginals(f, f1, f2, counts.total).expect("valid margins");
    println!("Figure 4 — contingency table for bigram type (A2, A3):");
    println!("              a = A2   a ≠ A2");
    println!("  b = A3    {:>7} {:>8}", table.o11, table.o12);
    println!("  b ≠ A3    {:>7} {:>8}", table.o21, table.o22);
    println!("  (paper:        2        0  /      1        5)\n");
    assert_eq!(
        (table.o11, table.o12, table.o21, table.o22),
        (2, 0, 1, 5),
        "running example must match the paper exactly"
    );

    // The timeout remark: "the last bigram (A4, A2) would be ignored
    // for any timeout value between 0 and 0.5 seconds".
    let with_timeout = extract_bigrams(std::slice::from_ref(&session), Some(500));
    println!(
        "with a 0.5 s timeout: {} bigrams (paper: the final (A4, A2) is dropped)",
        with_timeout.total
    );
    assert_eq!(with_timeout.total, counts.total - 1);

    write_report(
        "fig3_fig4",
        &Fig34Report {
            bigrams,
            table_a2_a3: (table.o11, table.o12, table.o21, table.o22),
            paper_table: (2, 0, 1, 5),
            bigrams_without_last: with_timeout.total as usize,
        },
    );
}
