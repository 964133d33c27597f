//! Property tests of the pool itself — the contract the detectors'
//! differential harness (`crates/core/tests/par_equivalence.rs`) builds
//! on: order/length preservation of `par_map`, fold/merge equivalence
//! of `par_chunks_fold`, panic poisoning with the original payload, and
//! graceful rejection of `threads = 0`.

use logdep_par::{par_chunks_fold, par_map, ParConfig, ParError};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[allow(
    clippy::expect_used,
    reason = "test helper: the strategies keep threads >= 1"
)]
fn cfg(threads: usize) -> ParConfig {
    ParConfig::with_threads(threads).expect("strategy keeps threads >= 1")
}

proptest! {
    #[test]
    fn par_map_preserves_order_and_length(
        items in prop::collection::vec(-1_000_000i64..1_000_000, 0..300),
        threads in 1usize..17,
    ) {
        let serial: Vec<i64> = items.iter().map(|x| x.wrapping_mul(31) ^ 0x5a).collect();
        let par = par_map(&cfg(threads), &items, |x| x.wrapping_mul(31) ^ 0x5a);
        prop_assert_eq!(par.len(), items.len());
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn par_map_identity_roundtrips(
        items in prop::collection::vec(any::<u32>(), 0..200),
        threads in 1usize..13,
    ) {
        let par = par_map(&cfg(threads), &items, |x| *x);
        prop_assert_eq!(par, items);
    }

    #[test]
    fn par_chunks_fold_equals_sequential_fold_saturating_sum(
        items in prop::collection::vec(any::<u64>(), 0..300),
        threads in 1usize..17,
    ) {
        // Saturating addition is associative and commutative with 0 as
        // identity — the accumulator shape the detectors shard.
        let serial = items.iter().fold(0u64, |a, x| a.saturating_add(*x));
        let par = par_chunks_fold(
            &cfg(threads),
            &items,
            || 0u64,
            |a, x| a.saturating_add(*x),
            |a, b| a.saturating_add(b),
        );
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn par_chunks_fold_equals_sequential_fold_max(
        items in prop::collection::vec(-5_000i64..5_000, 0..250),
        threads in 1usize..11,
    ) {
        let serial = items.iter().fold(i64::MIN, |a, x| a.max(*x));
        let par = par_chunks_fold(
            &cfg(threads),
            &items,
            || i64::MIN,
            |a, x| a.max(*x),
            |a, b| a.max(b),
        );
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn panicking_task_poisons_with_original_payload_not_deadlock(
        n in 2usize..150,
        threads in 2usize..9,
        victim_seed in any::<u32>(),
    ) {
        let items: Vec<usize> = (0..n).collect();
        let victim = victim_seed as usize % n;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&cfg(threads), &items, |&x| {
                if x == victim {
                    panic!("poison marker {victim}");
                }
                x
            })
        }));
        let payload = match caught {
            Ok(_) => return Err(TestCaseError::fail("panic did not propagate")),
            Err(p) => p,
        };
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        prop_assert_eq!(msg, format!("poison marker {}", victim));
    }
}

#[test]
fn zero_threads_is_an_error_never_a_panic() {
    let result = catch_unwind(|| ParConfig::with_threads(0));
    let inner = result.expect("constructing a bad config must not panic");
    assert_eq!(inner, Err(ParError::ZeroThreads));
    let msg = ParError::ZeroThreads.to_string();
    assert!(msg.contains("thread count"), "actionable message: {msg}");
}
