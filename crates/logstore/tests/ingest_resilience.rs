//! Properties of the resilient ingest path: repair is a *fixpoint* —
//! re-serializing a repaired store and ingesting it again changes
//! nothing (`repair(repair(x)) == repair(x)`), for arbitrary line soup
//! mixing valid records, duplicates, out-of-order delivery and garbage.

use logdep_logstore::codec::write_store;
use logdep_logstore::ingest::{read_store_resilient, IngestPolicy};
use proptest::prelude::*;

/// A line that is usually a valid TSV record (with small id spaces to
/// force duplicates and collisions) and sometimes raw garbage, so
/// streams mix both.
fn line() -> impl Strategy<Value = String> {
    (
        any::<u8>(),
        0..50i64,
        0..50i64,
        0..4u8,
        "[a-z]{0,6}",
        "[ -~]{0,30}",
    )
        .prop_map(|(selector, client, server, src, text, garbage)| {
            if selector % 3 == 0 {
                garbage
            } else {
                format!("{client}\t{server}\tApp{src}\t-\t-\tINF\t{text}")
            }
        })
}

proptest! {
    #[test]
    fn repair_is_idempotent(lines in proptest::collection::vec(line(), 0..80)) {
        let input = lines.join("\n");
        let policy = IngestPolicy::lenient();

        let (once, first) = read_store_resilient(input.as_bytes(), &policy)
            .expect("lenient policy never aborts");

        // Serialize the repaired store and ingest it again.
        let mut buf = Vec::new();
        write_store(&mut buf, &once).expect("write to Vec");
        let (twice, second) = read_store_resilient(buf.as_slice(), &policy)
            .expect("clean re-ingest");

        // Fixpoint: nothing left to repair.
        prop_assert_eq!(second.quarantined, 0, "repaired output must parse fully");
        prop_assert_eq!(second.deduped, 0, "no duplicates survive a repair");
        prop_assert_eq!(second.repaired_out_of_order, 0, "output is already sorted");
        prop_assert_eq!(second.parsed, first.parsed - first.deduped);

        // And the store content is unchanged. Record order among equal
        // client timestamps tie-breaks on interned source ids, which
        // permute between passes (arrival order vs sorted order), so
        // compare name-resolved records as sorted multisets.
        prop_assert_eq!(once.len(), twice.len());
        let resolve = |s: &logdep_logstore::LogStore| {
            let mut rows: Vec<(i64, String, i64, String)> = s
                .records()
                .iter()
                .map(|r| {
                    (
                        r.client_ts.as_millis(),
                        s.registry.source_name(r.source).to_owned(),
                        r.server_ts.as_millis(),
                        s.text(r).to_owned(),
                    )
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(resolve(&once), resolve(&twice));
    }

    #[test]
    fn resilient_ingest_never_panics(raw in "[ -~\t\n]{0,400}") {
        // Ok or ErrorBudgetExceeded are both acceptable; no panic is the
        // property.
        let _ = read_store_resilient(raw.as_bytes(), &IngestPolicy::default());
    }

    #[test]
    fn accounting_balances(lines in proptest::collection::vec(line(), 0..80)) {
        let input = lines.join("\n");
        let (store, report) = read_store_resilient(input.as_bytes(), &IngestPolicy::lenient())
            .expect("lenient policy never aborts");
        let nonempty = lines.iter().filter(|l| !l.is_empty()).count();
        prop_assert_eq!(report.total_lines, nonempty);
        prop_assert_eq!(report.parsed + report.quarantined, nonempty);
        prop_assert_eq!(store.len(), report.parsed - report.deduped);
    }
}
