//! Tracking the moving landscape: model evolution between mining runs.
//!
//! The paper's title problem is that the landscape *moves* — the whole
//! point of automated model generation is re-running it and seeing
//! what changed. This module compares two mined models (say, last
//! week's and this week's) and reports appeared/disappeared
//! dependencies, plus a stability summary an operator can alert on.

use crate::model::{diff, EdgeTarget, Model};
use logdep_logstore::SourceId;
use serde::{Deserialize, Serialize};

/// Change report between two models of the same flavour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Churn<T: Ord> {
    /// Dependencies present now but not before.
    pub appeared: Vec<T>,
    /// Dependencies present before but not now.
    pub disappeared: Vec<T>,
    /// Dependencies present in both.
    pub stable: Vec<T>,
}

impl<T: Ord> Default for Churn<T> {
    fn default() -> Self {
        Self {
            appeared: Vec::new(),
            disappeared: Vec::new(),
            stable: Vec::new(),
        }
    }
}

impl<T: Ord> Churn<T> {
    /// Jaccard stability of the two models: |∩| / |∪| (1.0 when both
    /// are empty — nothing moved).
    pub fn stability(&self) -> f64 {
        let union = self.appeared.len() + self.disappeared.len() + self.stable.len();
        if union == 0 {
            1.0
        } else {
            self.stable.len() as f64 / union as f64
        }
    }

    /// Total number of changes.
    pub fn n_changes(&self) -> usize {
        self.appeared.len() + self.disappeared.len()
    }
}

/// Compares two models of the same flavour. This is [`diff`] with
/// `after` as the detected model and `before` as the reference: its
/// true positives are stable, its false positives appeared and its
/// false negatives disappeared. L3 models must be indexed against the
/// same service-id list.
pub fn churn<T: EdgeTarget>(before: &Model<T>, after: &Model<T>) -> Churn<(SourceId, T)> {
    let d = diff(after, before);
    Churn {
        appeared: d.false_pos,
        disappeared: d.false_neg,
        stable: d.true_pos,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AppServiceModel, PairModel};

    fn s(i: u32) -> SourceId {
        SourceId(i)
    }

    #[test]
    fn pair_churn_partitions() {
        let before: PairModel = [(s(1), s(2)), (s(1), s(3))].into_iter().collect();
        let after: PairModel = [(s(1), s(2)), (s(2), s(4))].into_iter().collect();
        let c = churn(&before, &after);
        assert_eq!(c.stable, vec![(s(1), s(2))]);
        assert_eq!(c.appeared, vec![(s(2), s(4))]);
        assert_eq!(c.disappeared, vec![(s(1), s(3))]);
        assert_eq!(c.n_changes(), 2);
        assert!((c.stability() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_models_are_fully_stable() {
        let m: PairModel = [(s(1), s(2))].into_iter().collect();
        let c = churn(&m, &m.clone());
        assert_eq!(c.stability(), 1.0);
        assert_eq!(c.n_changes(), 0);
    }

    #[test]
    fn empty_models() {
        let c = churn(&PairModel::new(), &PairModel::new());
        assert_eq!(c.stability(), 1.0);
        let c = churn(&PairModel::new(), &[(s(0), s(1))].into_iter().collect());
        assert_eq!(c.stability(), 0.0);
        assert_eq!(c.appeared.len(), 1);
    }

    #[test]
    fn app_service_churn_partitions() {
        let before: AppServiceModel = [(s(0), 0), (s(0), 1)].into_iter().collect();
        let after: AppServiceModel = [(s(0), 1), (s(1), 2)].into_iter().collect();
        let c = churn(&before, &after);
        assert_eq!(c.stable, vec![(s(0), 1)]);
        assert_eq!(c.appeared, vec![(s(1), 2)]);
        assert_eq!(c.disappeared, vec![(s(0), 0)]);
    }
}
