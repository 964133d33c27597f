//! Determinism properties of the fault injector: the transform is a
//! pure function of `(store, config)`. Same seed + same config must
//! produce a byte-identical stream and an identical ledger, regardless
//! of how hostile the input records are; a different seed at nonzero
//! intensity must (in practice) diverge; and intensity 0 must be the
//! identity for any input.

use logdep_faults::{inject, inject_records, FaultConfig};
use logdep_logstore::record::{LogRecord, Severity};
use logdep_logstore::store::LogStore;
use logdep_logstore::time::Millis;
use proptest::prelude::*;

fn severity(tag: u8) -> Severity {
    match tag % 4 {
        0 => Severity::Debug,
        1 => Severity::Info,
        2 => Severity::Warning,
        _ => Severity::Error,
    }
}

/// Builds a finalized store from proptest-generated raw rows.
fn build_store(rows: &[(u8, i64, u8, String)]) -> LogStore {
    let mut store = LogStore::new();
    for (src, ts, sev, text) in rows {
        let source = store.registry.source(&format!("App{}", src % 8));
        store.push(
            LogRecord::minimal(source, Millis(*ts))
                .with_severity(severity(*sev))
                .with_text(text.clone()),
        );
    }
    store.finalize();
    store
}

fn rows() -> impl Strategy<Value = Vec<(u8, i64, u8, String)>> {
    proptest::collection::vec(
        (any::<u8>(), 0..86_400_000i64, any::<u8>(), "[ -~\t]{0,40}"),
        0..120,
    )
}

proptest! {
    #[test]
    fn same_seed_and_config_is_deterministic(
        raw in rows(),
        seed in any::<u64>(),
        intensity in 0.0..1.0f64,
    ) {
        let store = build_store(&raw);
        let cfg = FaultConfig::at_intensity(seed, intensity);
        let a = inject(&store, &cfg);
        let b = inject(&store, &cfg);
        prop_assert_eq!(&a.tsv, &b.tsv, "stream must be byte-identical");
        prop_assert_eq!(a.ledger, b.ledger, "ledger must be identical");
    }

    #[test]
    fn intensity_zero_is_identity_for_any_input(
        raw in rows(),
        seed in any::<u64>(),
    ) {
        let store = build_store(&raw);
        let inj = inject(&store, &FaultConfig::off(seed));
        prop_assert_eq!(inj.ledger.input_records, store.len());
        prop_assert_eq!(inj.ledger.output_records, store.len());
        prop_assert_eq!(inj.ledger.total_lost(), 0);
        prop_assert_eq!(inj.ledger.duplicated, 0);
        prop_assert_eq!(inj.ledger.reordered, 0);
        prop_assert_eq!(inj.ledger.jittered, 0);
        prop_assert_eq!(inj.ledger.corruption.total(), 0);
        prop_assert!(inj.ledger.skew_applied_ms.is_empty());
        // Delivered records equal the store's records, in order.
        let (delivered, _) = inject_records(&store, &FaultConfig::off(seed));
        let records: Vec<LogRecord> = store.records().iter().map(|r| r.to_record(&store)).collect();
        prop_assert_eq!(delivered, records);
    }

    #[test]
    fn ledger_record_accounting_balances(
        raw in rows(),
        seed in any::<u64>(),
        intensity in 0.0..1.0f64,
    ) {
        let store = build_store(&raw);
        let cfg = FaultConfig::at_intensity(seed, intensity);
        let (delivered, ledger) = inject_records(&store, &cfg);
        // in + duplicated == delivered + dropped + blackout-dropped
        prop_assert_eq!(
            ledger.input_records + ledger.duplicated,
            delivered.len() + ledger.dropped + ledger.blackout_dropped
        );
        prop_assert_eq!(ledger.output_records, delivered.len());
        prop_assert_eq!(
            ledger.blackout_dropped,
            ledger.blackouts.iter().map(|w| w.dropped).sum::<usize>()
        );
    }

    #[test]
    fn tsv_line_count_matches_ledger(
        raw in rows(),
        seed in any::<u64>(),
        intensity in 0.0..1.0f64,
    ) {
        let store = build_store(&raw);
        let inj = inject(&store, &FaultConfig::at_intensity(seed, intensity));
        let nonempty = inj.tsv.lines().filter(|l| !l.is_empty()).count();
        prop_assert_eq!(nonempty, inj.ledger.output_lines);
    }
}
