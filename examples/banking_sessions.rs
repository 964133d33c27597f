//! Session mining in another domain: an online bank.
//!
//! §5 of the paper singles out online banking as a setting where
//! session information is logged for audit anyway, making technique L2
//! a natural fit. This example builds a small synthetic banking
//! workload *without* the hospital simulator — just the public
//! `LogStore` API and a few lines of generation code — and mines it
//! with L2 at several timeouts.
//!
//! ```text
//! cargo run --release -p logdep-examples --example banking_sessions
//! ```

use logdep::l2::{run_l2_pool, L2Config};
use logdep::par::ParConfig;
use logdep_logstore::time::{TimeRange, MS_PER_HOUR};
use logdep_logstore::{LogRecord, LogStore, Millis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut store = LogStore::new();

    let web = store.registry.source("WebPortal");
    let auth = store.registry.source("AuthService");
    let accounts = store.registry.source("AccountsCore");
    let payments = store.registry.source("PaymentsGateway");
    let fraud = store.registry.source("FraudScreening");
    let marketing = store.registry.source("MarketingBanner"); // unrelated

    // 150 customer sessions in one hour: login (auth), balance check
    // (accounts), sometimes a payment (payments → fraud, async).
    for k in 0..150u32 {
        let user = store.registry.user(&format!("cust{k:04}"));
        let host = store.registry.host(&format!("ip-{}", rng.gen_range(0..64)));
        let mut t = rng.gen_range(0..MS_PER_HOUR - 60_000);
        let log = |store: &mut LogStore, src, at: i64, text: &str| {
            store.push(
                LogRecord::minimal(src, Millis(at))
                    .with_user(user)
                    .with_host(host)
                    .with_text(text),
            );
        };
        log(&mut store, web, t, "GET /login");
        log(&mut store, auth, t + 90, "credentials verified");
        log(&mut store, web, t + 180, "session established");
        t += rng.gen_range(2_000..9_000);
        log(&mut store, web, t, "GET /balance");
        log(&mut store, accounts, t + 70, "balance computed");
        if rng.gen_bool(0.4) {
            t += rng.gen_range(3_000..12_000);
            log(&mut store, web, t, "POST /transfer");
            log(&mut store, payments, t + 110, "payment queued");
            // Fraud screening is asynchronous: it lands seconds later,
            // interleaving with whatever the customer does next — the
            // very concurrency §4.6 blames for L2's false positives.
            log(
                &mut store,
                fraud,
                t + rng.gen_range(1_500..6_000),
                "screening verdict ok",
            );
        }
        // The marketing banner refreshes on its own timer, uncorrelated.
        if rng.gen_bool(0.5) {
            log(
                &mut store,
                marketing,
                t + rng.gen_range(0..20_000),
                "banner rotated",
            );
        }
    }
    store.finalize();
    println!("generated {} logs across {} sources\n", store.len(), 6);

    let hour = TimeRange::new(Millis(0), Millis(MS_PER_HOUR));
    for timeout in [Some(500i64), Some(1_000), Some(2_000), None] {
        let cfg = L2Config {
            timeout_ms: timeout,
            ..L2Config::default()
        };
        let res = run_l2_pool(&store, hour, &cfg, &ParConfig::default()).expect("L2 runs");
        let label = match timeout {
            Some(ms) => format!("{:>5} ms", ms),
            None => "     inf".to_owned(),
        };
        let pairs: Vec<String> = res
            .detected
            .iter()
            .map(|(a, b)| {
                format!(
                    "{}<->{}",
                    store.registry.source_name(a),
                    store.registry.source_name(b)
                )
            })
            .collect();
        println!(
            "timeout {label}: {} pairs: {}",
            pairs.len(),
            pairs.join(", ")
        );
    }

    println!(
        "\nexpected true pairs: WebPortal<->AuthService, WebPortal<->AccountsCore, \
         WebPortal<->PaymentsGateway; FraudScreening couples only loosely (async), and \
         MarketingBanner should stay out at strict timeouts"
    );
}
