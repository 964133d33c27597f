//! Combining the three techniques' evidence.
//!
//! §4.10 of the paper picks L3 as "the" HUG solution, but §5's
//! discussion makes clear the techniques are complements, not rivals:
//! L3 needs a directory, L2 needs session context, L1 works on
//! anything. A deployment that has all three can *vote*. This module
//! scores every candidate pair by which techniques support it; the
//! agreement level is a confidence signal (pairs found by several
//! independent information sources are very unlikely to be noise) and
//! the disagreement pattern is a diagnosis aid (L3-only → citation
//! without activity coupling; L1-only → correlation without a
//! session/citation trace, often transitive).

use crate::model::PairModel;
use logdep_logstore::SourceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which techniques supported a pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Support {
    /// Technique L1 (activity correlation) found the pair.
    pub l1: bool,
    /// Technique L2 (session co-occurrence) found the pair.
    pub l2: bool,
    /// Technique L3 (directory citations, mapped to app pairs) found it.
    pub l3: bool,
}

impl Support {
    /// Number of supporting techniques (0–3).
    pub fn votes(&self) -> u8 {
        self.l1 as u8 + self.l2 as u8 + self.l3 as u8
    }
}

fn all_available() -> [bool; 3] {
    [true; 3]
}

/// The combined model: per-pair support plus threshold views.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ensemble {
    support: BTreeMap<(SourceId, SourceId), Support>,
    /// Which detectors contributed (`[l1, l2, l3]`). A degraded run —
    /// one detector erroring out — still produces a usable ensemble;
    /// threshold views can rescale against the detectors that ran.
    #[serde(default = "all_available")]
    available: [bool; 3],
}

impl Default for Ensemble {
    fn default() -> Self {
        Self {
            support: BTreeMap::new(),
            available: all_available(),
        }
    }
}

impl Ensemble {
    /// Combines the three technique outputs (L3 must already be mapped
    /// onto application pairs via the service-owner relation).
    pub fn combine(l1: &PairModel, l2: &PairModel, l3_pairs: &PairModel) -> Self {
        Self::combine_partial(Some(l1), Some(l2), Some(l3_pairs))
    }

    /// Combines whatever detector outputs are present — the degraded
    /// path. A `None` marks a detector that did not run (crashed, or
    /// its prerequisite data was missing); its vote is neither counted
    /// nor held against any pair.
    pub fn combine_partial(
        l1: Option<&PairModel>,
        l2: Option<&PairModel>,
        l3_pairs: Option<&PairModel>,
    ) -> Self {
        let mut support: BTreeMap<(SourceId, SourceId), Support> = BTreeMap::new();
        if let Some(m) = l1 {
            for p in m.iter() {
                support.entry(p).or_default().l1 = true;
            }
        }
        if let Some(m) = l2 {
            for p in m.iter() {
                support.entry(p).or_default().l2 = true;
            }
        }
        if let Some(m) = l3_pairs {
            for p in m.iter() {
                support.entry(p).or_default().l3 = true;
            }
        }
        Self {
            support,
            available: [l1.is_some(), l2.is_some(), l3_pairs.is_some()],
        }
    }

    /// Which detectors contributed, as `[l1, l2, l3]`.
    pub fn available(&self) -> [bool; 3] {
        self.available
    }

    /// Number of detectors that contributed (0–3).
    pub fn n_available(&self) -> u8 {
        self.available.iter().map(|&a| a as u8).sum()
    }

    /// Pairs supported by at least `min_votes_of_three` techniques,
    /// with the threshold rescaled to the detectors that actually ran:
    /// a 2-of-3 consensus becomes 2-of-2 when one detector is down
    /// (`ceil(min · available / 3)`, floored at 1). With all three
    /// available this is exactly [`Ensemble::at_least`].
    pub fn at_least_rescaled(&self, min_votes_of_three: u8) -> PairModel {
        let avail = self.n_available();
        if avail == 0 {
            return PairModel::new();
        }
        let scaled = (min_votes_of_three * avail).div_ceil(3).max(1);
        self.at_least(scaled)
    }

    /// Support record for a pair (order-insensitive).
    pub fn support(&self, a: SourceId, b: SourceId) -> Support {
        self.support
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or_default()
    }

    /// Pairs supported by at least `min_votes` techniques.
    pub fn at_least(&self, min_votes: u8) -> PairModel {
        self.support
            .iter()
            .filter(|(_, s)| s.votes() >= min_votes)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Pairs supported by *exactly* the given combination — the
    /// disagreement views (`only_l1`, etc.).
    pub fn exactly(&self, l1: bool, l2: bool, l3: bool) -> PairModel {
        self.support
            .iter()
            .filter(|(_, s)| s.l1 == l1 && s.l2 == l2 && s.l3 == l3)
            .map(|(&p, _)| p)
            .collect()
    }

    /// Iterates all pairs with their support.
    pub fn iter(&self) -> impl Iterator<Item = ((SourceId, SourceId), Support)> + '_ {
        self.support.iter().map(|(&p, &s)| (p, s))
    }

    /// Number of distinct pairs any technique proposed.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True when no technique proposed anything.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }

    /// Vote histogram: `counts[v]` = pairs with exactly `v` votes
    /// (index 0 unused; it is always 0 by construction).
    #[expect(clippy::indexing_slicing, reason = "a pair holds at most three votes")]
    pub fn vote_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for s in self.support.values() {
            h[s.votes() as usize] += 1;
        }
        h
    }
}

/// Maps an app→service model onto application pairs via the
/// service-owner relation (`owners[i]` implements service `i`),
/// dropping self-pairs — the bridge that lets L3 vote alongside L1/L2.
pub fn app_service_to_pairs(
    model: &crate::model::AppServiceModel,
    owners: &[SourceId],
) -> PairModel {
    let mut pairs = PairModel::new();
    for (app, svc) in model.iter() {
        if let Some(&owner) = owners.get(svc) {
            pairs.insert(app, owner);
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SourceId {
        SourceId(i)
    }

    fn model(pairs: &[(u32, u32)]) -> PairModel {
        pairs.iter().map(|&(a, b)| (s(a), s(b))).collect()
    }

    #[test]
    fn votes_accumulate_per_pair() {
        let e = Ensemble::combine(
            &model(&[(1, 2), (1, 3)]),
            &model(&[(1, 2), (2, 3)]),
            &model(&[(1, 2)]),
        );
        assert_eq!(e.len(), 3);
        assert_eq!(e.support(s(1), s(2)).votes(), 3);
        assert_eq!(e.support(s(2), s(1)).votes(), 3, "order-insensitive");
        assert_eq!(e.support(s(1), s(3)).votes(), 1);
        assert_eq!(e.support(s(9), s(8)).votes(), 0);
        assert_eq!(e.vote_histogram(), [0, 2, 0, 1]);
    }

    #[test]
    fn threshold_views() {
        let e = Ensemble::combine(
            &model(&[(1, 2), (1, 3)]),
            &model(&[(1, 2), (2, 3)]),
            &model(&[(1, 2), (2, 3)]),
        );
        assert_eq!(e.at_least(1).len(), 3);
        assert_eq!(e.at_least(2).len(), 2);
        assert_eq!(e.at_least(3).len(), 1);
        assert!(e.at_least(3).contains(s(1), s(2)));
        // Exact-combination views.
        let l1_only = e.exactly(true, false, false);
        assert_eq!(l1_only.len(), 1);
        assert!(l1_only.contains(s(1), s(3)));
        assert!(e.exactly(false, true, true).contains(s(2), s(3)));
    }

    #[test]
    fn app_service_mapping_drops_self_pairs() {
        let mut asm = crate::model::AppServiceModel::new();
        asm.insert(s(0), 0); // owned by 5
        asm.insert(s(0), 1); // owned by 0 (self)
        asm.insert(s(1), 0);
        let owners = vec![s(5), s(0)];
        let pairs = app_service_to_pairs(&asm, &owners);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(s(0), s(5)));
        assert!(pairs.contains(s(1), s(5)));
    }

    #[test]
    fn partial_combine_tracks_availability() {
        let e = Ensemble::combine_partial(
            Some(&model(&[(1, 2), (1, 3)])),
            None,
            Some(&model(&[(1, 2)])),
        );
        assert_eq!(e.available(), [true, false, true]);
        assert_eq!(e.n_available(), 2);
        assert_eq!(e.support(s(1), s(2)).votes(), 2);
        // Full combine is the all-available special case.
        let full = Ensemble::combine(&PairModel::new(), &PairModel::new(), &PairModel::new());
        assert_eq!(full.n_available(), 3);
    }

    #[test]
    fn rescaled_threshold_adapts_to_missing_detectors() {
        // L2 down: (1,2) has 2/2 votes, (1,3) and (2,3) one each.
        let e = Ensemble::combine_partial(
            Some(&model(&[(1, 2), (1, 3)])),
            None,
            Some(&model(&[(1, 2), (2, 3)])),
        );
        // "2-of-3 consensus" rescales to 2-of-2.
        assert_eq!(e.at_least_rescaled(2).len(), 1);
        assert!(e.at_least_rescaled(2).contains(s(1), s(2)));
        // "3-of-3 unanimity" also rescales to 2-of-2.
        assert_eq!(e.at_least_rescaled(3).len(), 1);
        // "any detector" stays any detector.
        assert_eq!(e.at_least_rescaled(1).len(), 3);

        // With all three available, rescaling is the identity.
        let full = Ensemble::combine(
            &model(&[(1, 2), (1, 3)]),
            &model(&[(1, 2), (2, 3)]),
            &model(&[(1, 2), (2, 3)]),
        );
        for v in 1..=3u8 {
            assert_eq!(full.at_least_rescaled(v), full.at_least(v));
        }

        // Single survivor: every threshold floors to 1-of-1.
        let solo = Ensemble::combine_partial(Some(&model(&[(1, 2)])), None, None);
        assert_eq!(solo.at_least_rescaled(3).len(), 1);

        // Nothing ran: empty model, no panic.
        let none = Ensemble::combine_partial(None, None, None);
        assert!(none.at_least_rescaled(2).is_empty());
    }

    #[test]
    fn empty_ensemble() {
        let e = Ensemble::combine(&PairModel::new(), &PairModel::new(), &PairModel::new());
        assert!(e.is_empty());
        assert_eq!(e.vote_histogram(), [0, 0, 0, 0]);
        assert!(e.at_least(1).is_empty());
    }
}
