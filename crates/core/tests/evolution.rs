//! Property tests of the model-evolution invariants the churn CLI and
//! the query server's `/v1/diff` endpoint build on: stability is the
//! Jaccard index over the pair union (1.0 when both models are empty,
//! 0.0 when disjoint), appeared/disappeared/stable partition the
//! union, churn mirrors the detected-vs-reference diff, and name-based
//! re-resolution dedupes rename collisions before comparing.

use logdep::evolution::churn;
use logdep::logstore::{NameRegistry, SourceId};
use logdep::{diff, AppServiceModel, PairModel};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn s(i: u32) -> SourceId {
    SourceId(i)
}

fn pair_model(raw: &[(u32, u32)]) -> PairModel {
    // `insert` normalizes the order and rejects self-pairs, so any raw
    // id soup is a valid model.
    raw.iter().map(|&(a, b)| (s(a), s(b))).collect()
}

fn pair_set(m: &PairModel) -> BTreeSet<(SourceId, SourceId)> {
    m.iter().collect()
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..16, 0u32..16), 0..40)
}

proptest! {
    #[test]
    fn stability_is_the_jaccard_index(before_raw in arb_pairs(), after_raw in arb_pairs()) {
        let before = pair_model(&before_raw);
        let after = pair_model(&after_raw);
        let c = churn(&before, &after);
        let stability = c.stability();
        prop_assert!((0.0..=1.0).contains(&stability), "out of range: {stability}");
        let union: BTreeSet<_> = pair_set(&before).union(&pair_set(&after)).copied().collect();
        let inter: BTreeSet<_> =
            pair_set(&before).intersection(&pair_set(&after)).copied().collect();
        let expected = if union.is_empty() {
            1.0
        } else {
            inter.len() as f64 / union.len() as f64
        };
        prop_assert!((stability - expected).abs() < 1e-12, "{stability} != {expected}");
    }

    #[test]
    fn churn_partitions_the_union(before_raw in arb_pairs(), after_raw in arb_pairs()) {
        let before = pair_model(&before_raw);
        let after = pair_model(&after_raw);
        let c = churn(&before, &after);
        // appeared ∪ stable reassembles `after`, disappeared ∪ stable
        // reassembles `before`, and the three parts never overlap.
        let appeared: BTreeSet<_> = c.appeared.iter().copied().collect();
        let disappeared: BTreeSet<_> = c.disappeared.iter().copied().collect();
        let stable: BTreeSet<_> = c.stable.iter().copied().collect();
        prop_assert_eq!(appeared.len() + disappeared.len() + stable.len(),
            c.appeared.len() + c.disappeared.len() + c.stable.len(), "duplicates inside a part");
        prop_assert!(appeared.is_disjoint(&disappeared));
        prop_assert!(appeared.is_disjoint(&stable));
        prop_assert!(disappeared.is_disjoint(&stable));
        let rebuilt_after: BTreeSet<_> = appeared.union(&stable).copied().collect();
        let rebuilt_before: BTreeSet<_> = disappeared.union(&stable).copied().collect();
        prop_assert_eq!(rebuilt_after, pair_set(&after));
        prop_assert_eq!(rebuilt_before, pair_set(&before));
        prop_assert_eq!(c.n_changes(), c.appeared.len() + c.disappeared.len());
    }

    #[test]
    fn churn_reverses_cleanly(before_raw in arb_pairs(), after_raw in arb_pairs()) {
        let before = pair_model(&before_raw);
        let after = pair_model(&after_raw);
        let fwd = churn(&before, &after);
        let rev = churn(&after, &before);
        // Swapping the endpoints swaps appeared/disappeared and leaves
        // the stable core (and so the stability score) untouched.
        let f_app: BTreeSet<_> = fwd.appeared.iter().copied().collect();
        let r_dis: BTreeSet<_> = rev.disappeared.iter().copied().collect();
        prop_assert_eq!(f_app, r_dis);
        let f_sta: BTreeSet<_> = fwd.stable.iter().copied().collect();
        let r_sta: BTreeSet<_> = rev.stable.iter().copied().collect();
        prop_assert_eq!(f_sta, r_sta);
        prop_assert_eq!(fwd.stability().to_bits(), rev.stability().to_bits());
    }

    #[test]
    fn churn_mirrors_the_reference_diff(before_raw in arb_pairs(), after_raw in arb_pairs()) {
        // `/v1/diff` reports churn; the accuracy harness reports a
        // detected-vs-reference diff. Treating the old model as the
        // reference makes them the same partition: churn is that diff
        // with its fields renamed.
        let before = pair_model(&before_raw);
        let after = pair_model(&after_raw);
        let c = churn(&before, &after);
        let d = diff(&after, &before);
        prop_assert_eq!(c.stable, d.true_pos);
        prop_assert_eq!(c.appeared, d.false_pos);
        prop_assert_eq!(c.disappeared, d.false_neg);
    }

    #[test]
    fn disjoint_models_are_fully_unstable(
        before_raw in prop::collection::vec((0u32..8, 0u32..8), 1..20),
        after_raw in prop::collection::vec((8u32..16, 8u32..16), 1..20),
    ) {
        // Ids drawn from disjoint ranges can never share a pair.
        let before = pair_model(&before_raw);
        let after = pair_model(&after_raw);
        prop_assume!(!before.is_empty() || !after.is_empty());
        let c = churn(&before, &after);
        prop_assert_eq!(c.stable.len(), 0);
        prop_assert_eq!(c.stability(), 0.0);
        prop_assert_eq!(c.n_changes(), before.len() + after.len());
    }

    #[test]
    fn app_service_churn_partitions(
        before_raw in prop::collection::vec((0u32..8, 0usize..8), 0..30),
        after_raw in prop::collection::vec((0u32..8, 0usize..8), 0..30),
    ) {
        let before: AppServiceModel = before_raw.iter().map(|&(a, i)| (s(a), i)).collect();
        let after: AppServiceModel = after_raw.iter().map(|&(a, i)| (s(a), i)).collect();
        let c = churn(&before, &after);
        let appeared: BTreeSet<_> = c.appeared.iter().copied().collect();
        let disappeared: BTreeSet<_> = c.disappeared.iter().copied().collect();
        let stable: BTreeSet<_> = c.stable.iter().copied().collect();
        prop_assert!(appeared.is_disjoint(&disappeared));
        prop_assert!(appeared.is_disjoint(&stable));
        prop_assert!(disappeared.is_disjoint(&stable));
        let rebuilt_after: BTreeSet<_> = appeared.union(&stable).copied().collect();
        prop_assert_eq!(rebuilt_after, after.iter().collect::<BTreeSet<_>>());
        let rebuilt_before: BTreeSet<_> = disappeared.union(&stable).copied().collect();
        prop_assert_eq!(rebuilt_before, before.iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn renamed_duplicates_dedupe_before_churn(
        idx in prop::collection::vec((0usize..6, 0usize..6), 1..20),
    ) {
        // The churn CLI re-resolves exported models by *name* into the
        // newer registry. A rename collision — the same logical edge
        // listed twice, once per spelling order — must collapse to one
        // normalized pair, or churn double-counts it.
        let names = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"];
        let mut reg = NameRegistry::new();
        for n in names {
            reg.source(n);
        }
        let once: Vec<(&str, &str)> =
            idx.iter().map(|&(a, b)| (names[a], names[b])).collect();
        // Duplicate every edge in reversed spelling order.
        let twice: Vec<(&str, &str)> = once
            .iter()
            .copied()
            .chain(once.iter().map(|&(a, b)| (b, a)))
            .collect();
        let model_once = PairModel::from_names(&reg, once).unwrap();
        let model_twice = PairModel::from_names(&reg, twice).unwrap();
        prop_assert_eq!(&model_once, &model_twice);
        let c = churn(&model_once, &model_twice);
        prop_assert_eq!(c.n_changes(), 0);
        prop_assert_eq!(c.stability(), 1.0);
        prop_assert_eq!(c.stable.len(), model_once.len());
    }
}

#[test]
fn both_empty_is_perfectly_stable() {
    let c = churn(&PairModel::new(), &PairModel::new());
    assert_eq!(c.stability(), 1.0);
    assert_eq!(c.n_changes(), 0);
    let c = churn(&AppServiceModel::new(), &AppServiceModel::new());
    assert_eq!(c.stability(), 1.0);
}

#[test]
fn unknown_names_refuse_to_resolve() {
    let mut reg = NameRegistry::new();
    reg.source("alpha");
    assert!(PairModel::from_names(&reg, [("alpha", "ghost")]).is_err());
}
