//! Quickstart: mine dependencies from a hand-built log stream.
//!
//! Builds a miniature log store by hand — two interacting applications
//! plus an independent one, with session context and free text — and
//! runs all three techniques of the paper on it.
//!
//! ```text
//! cargo run --release -p logdep-examples --example quickstart
//! ```

use logdep::l1::{direction_test, L1Config};
use logdep::l2::{run_l2_pool, L2Config};
use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep_logstore::time::{TimeRange, MS_PER_HOUR};
use logdep_logstore::{LogRecord, LogStore, Millis};
use logdep_stats::sampling::Sampler;

fn main() {
    // --- 1. Assemble a log store. In production this would come from
    // your centralized logging system (see logdep_logstore::codec for
    // the TSV ingestion path).
    let mut store = LogStore::new();
    let frontend = store.registry.source("Frontend");
    let reports = store.registry.source("ReportService");
    let billing = store.registry.source("BillingService");
    let cron = store.registry.source("CronDaemon");
    let alice = store.registry.user("alice");
    let bob = store.registry.user("bob");
    let ws1 = store.registry.host("ws-001");
    let ws2 = store.registry.host("ws-002");

    for k in 0..400i64 {
        let t = k * 9_000; // a request every 9 seconds
        let (user, ws) = if k % 2 == 0 { (alice, ws1) } else { (bob, ws2) };
        // The front end logs the invocation, citing the directory id...
        store.push(
            LogRecord::minimal(frontend, Millis(t))
                .with_user(user)
                .with_host(ws)
                .with_text("(REPORTS) render( $patient )"),
        );
        // ...and the service logs shortly after, within the session.
        store.push(
            LogRecord::minimal(reports, Millis(t + 120))
                .with_user(user)
                .with_host(ws)
                .with_text("handled render in 87 ms"),
        );
        // Every third request also fetches an invoice.
        if k % 3 == 0 {
            store.push(
                LogRecord::minimal(frontend, Millis(t + 300))
                    .with_user(user)
                    .with_host(ws)
                    .with_text("(BILLING) invoice( $patient )"),
            );
            store.push(
                LogRecord::minimal(billing, Millis(t + 410))
                    .with_user(user)
                    .with_host(ws)
                    .with_text("invoice rendered"),
            );
        }
        // An unrelated daemon ticks on its own schedule.
        store.push(LogRecord::minimal(cron, Millis(t * 7 % 3_600_000)).with_text("tick"));
    }
    store.finalize();
    let hour = TimeRange::new(Millis(0), Millis(MS_PER_HOUR));

    // --- 2. Technique L1: activity correlation (timestamps only).
    let l1cfg = L1Config {
        minlogs: 50,
        ..L1Config::default()
    };
    let mut sampler = Sampler::from_seed(1);
    let outcome = direction_test(
        store.timeline(frontend),
        store.timeline(reports),
        hour,
        &l1cfg,
        &mut sampler,
    )
    .expect("enough data");
    println!(
        "L1: ReportService attracted to Frontend? {} (median dist {:.0} ms vs random {:.0} ms)",
        outcome.positive, outcome.sample_b.center, outcome.sample_r.center
    );

    // --- 3. Technique L2: session co-occurrence.
    let l2 =
        run_l2_pool(&store, hour, &L2Config::default(), &ParConfig::default()).expect("L2 runs");
    println!(
        "L2: {} sessions, {} bigrams, detected pairs:",
        l2.session_stats.n_sessions, l2.bigrams.total
    );
    for (a, b) in l2.detected.iter() {
        println!(
            "     {} <-> {}",
            store.registry.source_name(a),
            store.registry.source_name(b)
        );
    }

    // --- 4. Technique L3: directory citations in free text.
    let directory_ids = vec!["REPORTS".to_owned(), "BILLING".to_owned()];
    // (BILLING is cited too: the quickstart model has two services.)
    let l3 = run_l3_pool(
        &store,
        hour,
        &directory_ids,
        &L3Config::default(),
        &ParConfig::default(),
    )
    .expect("L3 runs");
    println!("L3: detected app -> service dependencies:");
    for (app, svc) in l3.detected.iter() {
        println!(
            "     {} -> {}",
            store.registry.source_name(app),
            directory_ids[svc]
        );
    }

    assert!(outcome.positive, "L1 should flag the interacting pair");
    assert!(l2.detected.contains(frontend, reports));
    assert!(l3.detected.contains(frontend, 0));
    println!("\nall three techniques agree: Frontend depends on ReportService/REPORTS");
}
