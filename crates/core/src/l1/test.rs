//! The per-slot statistical test of technique L1.
//!
//! For a slot and a direction "is B attracted to A": draw the distances
//! from (a subsample of) B's slot logs to the nearest (or next) log of
//! A, draw distances from uniformly random points in the slot to A, and
//! compare confidence intervals of the two location statistics.

use super::config::{CenterStat, DecisionRule, DistanceKind, L1Config};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{Millis, Timeline};
use logdep_stats::{descriptive, order_stats, sampling::Sampler, tdist};
use serde::{Deserialize, Serialize};

/// Distance samples of one side of the comparison, with its CI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceSamples {
    /// Sorted distances in milliseconds.
    pub dists: Vec<f64>,
    /// Location estimate (median or mean per config).
    pub center: f64,
    /// CI lower bound.
    pub lower: f64,
    /// CI upper bound.
    pub upper: f64,
}

/// Outcome of one directional test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectionOutcome {
    /// True when the test concluded B's logs are significantly closer
    /// to A's logs than random points are.
    pub positive: bool,
    /// The B-side sample (`S_b` in the paper).
    pub sample_b: DistanceSamples,
    /// The random-side sample (`S_r`).
    pub sample_r: DistanceSamples,
}

/// Collects the distances of `points` to timeline `a` under the
/// configured distance kind. Points with no defined distance (empty
/// timeline, or nothing after the point for [`DistanceKind::Next`]) are
/// dropped.
///
/// Takes the caller's freshly drawn points by value and sorts them in
/// place; every distance then comes from one merge sweep
/// ([`Timeline::dists_to_nearest_sorted`]) that starts at the first
/// point, in O(log n + m + k) for the m points and the k logs of `a`
/// between the first and the last point, instead of a binary search per
/// point. The multiset of distances is identical to the per-point
/// search — only their order changes, and [`summarize`] sorts anyway.
fn distances(a: &Timeline, mut points: Vec<Millis>, kind: DistanceKind) -> Vec<f64> {
    points.sort_unstable();
    let raw = match kind {
        DistanceKind::Nearest => a.dists_to_nearest_sorted(&points),
        DistanceKind::Next => a.dists_to_next_sorted(&points),
    };
    raw.into_iter().map(|d| d as f64).collect()
}

/// Builds the CI for a distance sample under the configured statistic.
fn summarize(mut dists: Vec<f64>, cfg: &L1Config) -> Option<DistanceSamples> {
    if dists.len() < 10 {
        return None;
    }
    // The sweep's distances form a few monotone runs (a descending-then-
    // ascending "V" between consecutive logs of `a`), which the stable
    // sort detects and merges. Every value is a finite, non-negative
    // integer distance, so the order is the unique ascending one.
    // lint:allow(hot-sort) — std's run-adaptive stable sort beat the hand-written run merge it replaced on sweep output (2000 samples of 350 distances: 42.6 → 23.4 ms)
    dists.sort_by(f64::total_cmp);
    let (center, lower, upper) = match cfg.stat {
        CenterStat::Median => {
            let ci = order_stats::median_ci_sorted(&dists, cfg.ci_level).ok()?;
            (ci.point, ci.lower, ci.upper)
        }
        CenterStat::Mean => {
            let n = dists.len() as f64;
            let mean = descriptive::mean(&dists).ok()?;
            let sd = descriptive::std_dev(&dists).ok()?;
            let t = tdist::two_sided_t(cfg.ci_level, n - 1.0).ok()?;
            let half = t * sd / n.sqrt();
            (mean, mean - half, mean + half)
        }
    };
    Some(DistanceSamples {
        center,
        lower,
        upper,
        dists,
    })
}

/// Random-side sample of the test: distances of `sample_size` uniform
/// points in `range` to timeline `a`. Reusable across all `B`s sharing
/// the same `A` and slot — the hot-path optimization of
/// [`slot_evidence`].
///
/// [`slot_evidence`]: super::slot_evidence
pub(crate) fn random_side(
    a: &Timeline,
    range: TimeRange,
    cfg: &L1Config,
    sampler: &mut Sampler,
) -> Option<DistanceSamples> {
    let points: Vec<Millis> = sampler
        .uniform_points(range.start.0 as f64, range.end.0 as f64, cfg.sample_size)
        .into_iter()
        .map(|x| Millis(x as i64))
        .collect();
    summarize(distances(a, points, cfg.distance), cfg)
}

/// Reference side built from explicit comparison points (the
/// load-proportional reference process of §5).
pub(crate) fn side_from_points(
    a: &Timeline,
    points: Vec<Millis>,
    cfg: &L1Config,
) -> Option<DistanceSamples> {
    summarize(distances(a, points, cfg.distance), cfg)
}

/// B-side sample: distances of (a subsample of) B's logs in `range`
/// to timeline `a`.
pub(crate) fn b_side(
    a: &Timeline,
    b_slot: &[Millis],
    cfg: &L1Config,
    sampler: &mut Sampler,
) -> Option<DistanceSamples> {
    let points = sampler.subsample(b_slot, cfg.sample_size);
    summarize(distances(a, points, cfg.distance), cfg)
}

/// Decides the direction test given both sides.
pub(crate) fn decide(b: &DistanceSamples, r: &DistanceSamples, cfg: &L1Config) -> bool {
    match cfg.decision {
        DecisionRule::CiSeparation => {
            if cfg.two_sided {
                // Li–Ma style: any separation of the intervals is a signal.
                b.upper < r.lower || b.lower > r.upper
            } else {
                // One-sided: B must be *closer* than random.
                b.upper < r.lower
            }
        }
        DecisionRule::RankSum { alpha } => {
            use logdep_stats::ranksum::{rank_sum, RankSumAlternative};
            let alt = if cfg.two_sided {
                RankSumAlternative::TwoSided
            } else {
                RankSumAlternative::Less
            };
            rank_sum(&b.dists, &r.dists, alt)
                .map(|res| res.p_value <= alpha)
                .unwrap_or(false)
        }
    }
}

/// One-shot directional test (used by Figure 2 and by tests; the bulk
/// runner assembles the same pieces with the random side cached).
pub fn direction_test(
    a: &Timeline,
    b: &Timeline,
    range: TimeRange,
    cfg: &L1Config,
    sampler: &mut Sampler,
) -> Option<DirectionOutcome> {
    let sample_r = random_side(a, range, cfg, sampler)?;
    let sample_b = b_side(a, b.slice_in(range), cfg, sampler)?;
    let positive = decide(&sample_b, &sample_r, cfg);
    Some(DirectionOutcome {
        positive,
        sample_b,
        sample_r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;

    fn cfg() -> L1Config {
        L1Config {
            seed: 1,
            ..L1Config::default()
        }
    }

    fn hour() -> TimeRange {
        TimeRange::new(Millis(0), Millis(MS_PER_HOUR))
    }

    /// A and B interact: B's logs always land 50 ms after one of A's.
    fn coupled_pair() -> (Timeline, Timeline) {
        let a: Vec<Millis> = (0..200).map(|i| Millis(i * 18_000)).collect();
        let b: Vec<Millis> = a.iter().map(|t| Millis(t.0 + 50)).collect();
        (Timeline::from_sorted(a), Timeline::from_sorted(b))
    }

    /// A and B are unrelated: B's logs are offset-free of A's grid but
    /// deterministically spread.
    fn unrelated_pair() -> (Timeline, Timeline) {
        let a: Vec<Millis> = (0..200).map(|i| Millis(i * 18_000)).collect();
        let b: Vec<Millis> = (0..200).map(|i| Millis(i * 17_351 + 9_311)).collect();
        (Timeline::from_sorted(a), Timeline::from_sorted(b))
    }

    #[test]
    fn detects_coupled_activity() {
        let (a, b) = coupled_pair();
        let mut s = Sampler::from_seed(1);
        let out = direction_test(&a, &b, hour(), &cfg(), &mut s).expect("enough data");
        assert!(out.positive, "coupled pair not detected");
        assert!(out.sample_b.center < out.sample_r.center);
        assert!(out.sample_b.upper < out.sample_r.lower);
    }

    #[test]
    fn rejects_unrelated_activity() {
        let (a, b) = unrelated_pair();
        let mut s = Sampler::from_seed(2);
        let out = direction_test(&a, &b, hour(), &cfg(), &mut s).expect("enough data");
        assert!(!out.positive, "unrelated pair flagged");
    }

    #[test]
    fn boxplot_direction_roles_are_asymmetric() {
        // Same data as Figure 1/2: both directions should be positive
        // for a truly coupled pair.
        let (a, b) = coupled_pair();
        let mut s = Sampler::from_seed(3);
        let ab = direction_test(&a, &b, hour(), &cfg(), &mut s).expect("data");
        let ba = direction_test(&b, &a, hour(), &cfg(), &mut s).expect("data");
        assert!(ab.positive && ba.positive);
    }

    #[test]
    fn too_few_points_returns_none() {
        let a = Timeline::from_sorted(vec![Millis(5)]);
        let b = Timeline::from_sorted((0..5).map(|i| Millis(i * 100)).collect());
        let mut s = Sampler::from_seed(4);
        assert!(direction_test(&a, &b, hour(), &cfg(), &mut s).is_none());
    }

    #[test]
    fn empty_a_returns_none() {
        let a = Timeline::empty();
        let b = Timeline::from_sorted((0..100).map(|i| Millis(i * 100)).collect());
        let mut s = Sampler::from_seed(5);
        assert!(direction_test(&a, &b, hour(), &cfg(), &mut s).is_none());
    }

    #[test]
    fn next_distance_variant_works() {
        let (a, b) = coupled_pair();
        let c = L1Config {
            distance: DistanceKind::Next,
            ..cfg()
        };
        let mut s = Sampler::from_seed(6);
        // With next-arrival distance the coupled B (50 ms *after* each A
        // log) sees a large distance to the next A log, so the one-sided
        // "closer" test must NOT fire...
        let out = direction_test(&a, &b, hour(), &c, &mut s).expect("data");
        assert!(!out.positive);
        // ...but the two-sided variant detects the separation.
        let c2 = L1Config {
            two_sided: true,
            ..c
        };
        let out = direction_test(&a, &b, hour(), &c2, &mut s).expect("data");
        assert!(out.positive, "two-sided next-arrival should separate");
    }

    #[test]
    fn mean_statistic_variant_detects_coupling() {
        let (a, b) = coupled_pair();
        let c = L1Config {
            stat: CenterStat::Mean,
            ..cfg()
        };
        let mut s = Sampler::from_seed(7);
        let out = direction_test(&a, &b, hour(), &c, &mut s).expect("data");
        assert!(out.positive);
        assert!(out.sample_b.lower <= out.sample_b.center);
        assert!(out.sample_b.center <= out.sample_b.upper);
    }

    #[test]
    fn rank_sum_decision_rule_agrees_on_clear_cases() {
        let (a, b) = coupled_pair();
        let c = L1Config {
            decision: DecisionRule::RankSum { alpha: 0.01 },
            ..cfg()
        };
        let mut s = Sampler::from_seed(8);
        let out = direction_test(&a, &b, hour(), &c, &mut s).expect("data");
        assert!(out.positive, "rank-sum rule missed the coupled pair");

        let (a, b) = unrelated_pair();
        let mut s = Sampler::from_seed(9);
        let out = direction_test(&a, &b, hour(), &c, &mut s).expect("data");
        assert!(!out.positive, "rank-sum rule flagged an unrelated pair");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = coupled_pair();
        let mut s1 = Sampler::from_seed(42);
        let mut s2 = Sampler::from_seed(42);
        let o1 = direction_test(&a, &b, hour(), &cfg(), &mut s1).expect("data");
        let o2 = direction_test(&a, &b, hour(), &cfg(), &mut s2).expect("data");
        assert_eq!(o1, o2);
    }
}
