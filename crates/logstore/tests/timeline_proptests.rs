//! Property tests pinning the merge-sweep distance kernels to the
//! per-point binary-search reference and to the sweep they replaced
//! (cursor from index 0), and the content digests to their invalidation
//! contract.

#![allow(
    clippy::indexing_slicing,
    reason = "test code: the reference keeps the old sweep's indexing as it was"
)]

use logdep_logstore::time::{Millis, TimeRange};
use logdep_logstore::Timeline;
use proptest::prelude::*;

/// Bounded timestamps so distances stay far from i64 overflow.
const T: i64 = 1_000_000;

fn timeline(points: Vec<i64>) -> Timeline {
    Timeline::from_unsorted(points.into_iter().map(Millis).collect())
}

fn sorted_queries(queries: Vec<i64>) -> Vec<Millis> {
    let mut qs: Vec<Millis> = queries.into_iter().map(Millis).collect();
    qs.sort_unstable();
    qs
}

/// The sweeps as they were before they started at the first query:
/// the cursor walks every timestamp from index 0.
mod from_zero {
    use logdep_logstore::time::Millis;

    pub fn nearest(points: &[Millis], queries: &[Millis]) -> Vec<i64> {
        if points.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(queries.len());
        let mut i = 0usize;
        for &t in queries {
            while i < points.len() && points[i] < t {
                i += 1;
            }
            let after = points.get(i).map(|&p| p - t);
            let before = i.checked_sub(1).and_then(|b| points.get(b)).map(|&p| t - p);
            match (before, after) {
                (Some(b), Some(a)) => out.push(b.min(a)),
                (Some(b), None) => out.push(b),
                (None, Some(a)) => out.push(a),
                (None, None) => {}
            }
        }
        out
    }

    pub fn next(points: &[Millis], queries: &[Millis]) -> Vec<i64> {
        let mut out = Vec::with_capacity(queries.len());
        let mut i = 0usize;
        for &t in queries {
            while i < points.len() && points[i] < t {
                i += 1;
            }
            match points.get(i) {
                Some(&p) => out.push(p - t),
                None => break,
            }
        }
        out
    }
}

proptest! {
    #[test]
    fn slot_anchored_sweeps_equal_the_sweeps_from_zero(
        points in prop::collection::vec(-T..T, 0..200),
        queries in prop::collection::vec(-T..T, 0..200),
    ) {
        let tl = timeline(points);
        let qs = sorted_queries(queries);
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), from_zero::nearest(tl.points(), &qs));
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), from_zero::next(tl.points(), &qs));
    }

    #[test]
    fn slot_anchored_sweeps_skip_history_exactly(
        history in prop::collection::vec(0..T, 0..2_000),
        near in prop::collection::vec(-T..T, 0..100),
        queries in prop::collection::vec(-T..T, 0..100),
    ) {
        // Queries start after many points: the history lies below -T,
        // the anchored cursor jumps it, the reference walks it, and the
        // distances agree.
        let tl = timeline(history.into_iter().map(|h| h - 2 * T).chain(near).collect());
        let qs = sorted_queries(queries);
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), from_zero::nearest(tl.points(), &qs));
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), from_zero::next(tl.points(), &qs));
    }

    #[test]
    fn slot_anchored_sweeps_agree_on_duplicates(
        points in prop::collection::vec(-50i64..50, 0..60),
        queries in prop::collection::vec(-60i64..60, 0..60),
        reps in 1usize..8,
    ) {
        // A narrow value range forces repeated timestamps and repeated
        // queries, including queries equal to timestamps.
        let tl = timeline(points.iter().flat_map(|&p| std::iter::repeat_n(p, reps)).collect());
        let qs = sorted_queries(queries.iter().flat_map(|&q| std::iter::repeat_n(q, reps)).collect());
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), from_zero::nearest(tl.points(), &qs));
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), from_zero::next(tl.points(), &qs));
    }

    #[test]
    fn sweep_nearest_equals_per_point_binary_search(
        points in prop::collection::vec(-T..T, 0..200),
        queries in prop::collection::vec(-T..T, 0..200),
    ) {
        let tl = timeline(points);
        let qs = sorted_queries(queries);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_nearest(q)).collect();
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), reference);
    }

    #[test]
    fn sweep_next_equals_per_point_binary_search(
        points in prop::collection::vec(-T..T, 0..200),
        queries in prop::collection::vec(-T..T, 0..200),
    ) {
        let tl = timeline(points);
        let qs = sorted_queries(queries);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_next(q)).collect();
        prop_assert_eq!(tl.dists_to_next_sorted(&qs), reference);
    }

    #[test]
    fn sweep_handles_heavy_duplication(
        point in -T..T,
        query in -T..T,
        reps in 1usize..50,
    ) {
        // Degenerate inputs: every point equal, every query equal.
        let tl = timeline(vec![point; reps]);
        let qs = sorted_queries(vec![query; reps]);
        let reference: Vec<i64> = qs.iter().filter_map(|&q| tl.dist_to_nearest(q)).collect();
        prop_assert_eq!(tl.dists_to_nearest_sorted(&qs), reference);
    }

    #[test]
    fn digest_equality_tracks_content_equality(
        a in prop::collection::vec(-T..T, 0..60),
        b in prop::collection::vec(-T..T, 0..60),
    ) {
        let ta = timeline(a);
        let tb = timeline(b);
        // Content-addressing soundness direction: equal content must
        // digest equally (collisions the other way are astronomically
        // unlikely but not asserted).
        if ta == tb {
            prop_assert_eq!(ta.digest(), tb.digest());
        } else {
            prop_assert_ne!(ta.digest(), tb.digest());
        }
    }

    #[test]
    fn neighborhood_digest_is_insensitive_to_far_points(
        near in prop::collection::vec(-1_000i64..1_000, 0..40),
        far in prop::collection::vec(100_000i64..200_000, 1..10),
        margin in 0i64..500,
    ) {
        // Points far beyond the range + margin may shift WHICH point is
        // the successor, but only matter through pred/succ: appending
        // even-farther points must not disturb the digest.
        let range = TimeRange::new(Millis(-1_000), Millis(1_000));
        let mut with_far = near.clone();
        with_far.extend(&far);
        let base = timeline(with_far.clone());
        with_far.push(300_000);
        let extended = timeline(with_far);
        prop_assert_eq!(
            base.digest_neighborhood(range, margin),
            extended.digest_neighborhood(range, margin)
        );
    }

    #[test]
    fn neighborhood_digest_changes_on_in_range_edits(
        near in prop::collection::vec(-900i64..900, 1..40),
        extra in -900i64..900,
        margin in 0i64..200,
    ) {
        let range = TimeRange::new(Millis(-1_000), Millis(1_000));
        let base = timeline(near.clone());
        let mut edited_points = near;
        edited_points.push(extra);
        let edited = timeline(edited_points);
        prop_assert_ne!(
            base.digest_neighborhood(range, margin),
            edited.digest_neighborhood(range, margin)
        );
    }
}

#[test]
fn slot_anchored_sweeps_on_empty_inputs() {
    let empty = timeline(Vec::new());
    let some = timeline(vec![1, 5, 9]);
    let qs = sorted_queries(vec![0, 5, 10]);
    for (tl, queries) in [(&empty, &qs[..]), (&some, &[][..]), (&empty, &[][..])] {
        assert_eq!(
            tl.dists_to_nearest_sorted(queries),
            from_zero::nearest(tl.points(), queries)
        );
        assert_eq!(
            tl.dists_to_next_sorted(queries),
            from_zero::next(tl.points(), queries)
        );
    }
}
