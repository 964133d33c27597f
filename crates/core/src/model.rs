//! Dependency models and their comparison against a reference.
//!
//! The paper uses two model flavours (§4.3):
//!
//! * an undirected **pair model** over applications — "pairs of log
//!   sources, which are said to be dependent if they are directly
//!   interacting"; produced by techniques L1 and L2;
//! * an **application → service model** — pairs of an application and a
//!   service-directory entry it uses; produced by technique L3.
//!
//! Both are a [`Model`]: a set of edges from an application to a
//! target, where [`EdgeTarget`] holds the one difference between them.
//! [`diff`] computes the true/false positive/negative partition against
//! a reference model, yielding the per-day counts plotted in Figures 5,
//! 6 and 8; [`crate::evolution::churn`] is the same partition between
//! two runs.

use logdep_logstore::{NameRegistry, SourceId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// What an application's edge points at: another application
/// ([`SourceId`], an undirected pair) or a service-directory index
/// (`usize`, a directed dependency).
pub trait EdgeTarget: Copy + Ord {
    /// The stored form of the edge `app → target`, or `None` when the
    /// model rejects it.
    fn normalize(app: SourceId, target: Self) -> Option<(SourceId, Self)>;
}

/// Pairs are undirected: stored as `a < b`, self-pairs rejected.
impl EdgeTarget for SourceId {
    fn normalize(a: SourceId, b: SourceId) -> Option<(SourceId, SourceId)> {
        match a.cmp(&b) {
            Ordering::Less => Some((a, b)),
            Ordering::Greater => Some((b, a)),
            Ordering::Equal => None,
        }
    }
}

/// Services are identified by their index in the service directory
/// used for mining; every edge is kept as given.
impl EdgeTarget for usize {
    fn normalize(app: SourceId, service_idx: usize) -> Option<(SourceId, usize)> {
        Some((app, service_idx))
    }
}

/// A dependency model: a set of edges from an application to an
/// [`EdgeTarget`], iterated in ascending order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model<T: Ord> {
    edges: BTreeSet<(SourceId, T)>,
}

/// The undirected application-pair model mined by L1 and L2.
pub type PairModel = Model<SourceId>;

/// The directed application → service model mined by L3.
pub type AppServiceModel = Model<usize>;

impl<T: Ord> Default for Model<T> {
    fn default() -> Self {
        Self {
            edges: BTreeSet::new(),
        }
    }
}

impl<T: EdgeTarget> Model<T> {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the edge `app → target` (order-insensitive for pairs;
    /// self-pairs are ignored). Returns whether it was newly inserted.
    pub fn insert(&mut self, app: SourceId, target: T) -> bool {
        T::normalize(app, target).is_some_and(|e| self.edges.insert(e))
    }

    /// Membership test (order-insensitive for pairs).
    pub fn contains(&self, app: SourceId, target: T) -> bool {
        T::normalize(app, target).is_some_and(|e| self.edges.contains(&e))
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge is present.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates stored edges in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, T)> + '_ {
        self.edges.iter().copied()
    }
}

impl<T: EdgeTarget> FromIterator<(SourceId, T)> for Model<T> {
    fn from_iter<I: IntoIterator<Item = (SourceId, T)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (app, target) in iter {
            m.insert(app, target);
        }
        m
    }
}

fn find_source(registry: &NameRegistry, name: &str) -> crate::Result<SourceId> {
    registry
        .find_source(name)
        .ok_or_else(|| crate::MineError::UnknownName(name.to_owned()))
}

impl PairModel {
    /// Builds a model from `(name, name)` pairs resolved against a
    /// registry. Unresolvable names yield an error — a reference model
    /// naming an application that never logged is a configuration
    /// problem the caller must see.
    pub fn from_names<'a>(
        registry: &NameRegistry,
        names: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> crate::Result<Self> {
        let mut model = Self::new();
        for (a, b) in names {
            model.insert(find_source(registry, a)?, find_source(registry, b)?);
        }
        Ok(model)
    }
}

impl AppServiceModel {
    /// Builds a model from `(app name, service id)` pairs, resolving app
    /// names against the registry and service ids against the directory
    /// id list used for mining.
    pub fn from_names<'a>(
        registry: &NameRegistry,
        service_ids: &[String],
        names: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> crate::Result<Self> {
        let mut model = Self::new();
        for (app, svc) in names {
            let ia = find_source(registry, app)?;
            let is = service_ids
                .iter()
                .position(|s| s == svc)
                .ok_or_else(|| crate::MineError::UnknownName(svc.to_owned()))?;
            model.insert(ia, is);
        }
        Ok(model)
    }
}

/// The outcome of comparing a detected model against a reference.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diff<T: Ord> {
    /// Detected and in the reference.
    pub true_pos: Vec<T>,
    /// Detected but not in the reference.
    pub false_pos: Vec<T>,
    /// In the reference but not detected.
    pub false_neg: Vec<T>,
}

impl<T: Ord> Default for Diff<T> {
    fn default() -> Self {
        Self {
            true_pos: Vec::new(),
            false_pos: Vec::new(),
            false_neg: Vec::new(),
        }
    }
}

impl<T: Ord> Diff<T> {
    /// True-positive count.
    pub fn tp(&self) -> usize {
        self.true_pos.len()
    }

    /// False-positive count.
    pub fn fp(&self) -> usize {
        self.false_pos.len()
    }

    /// False-negative count.
    pub fn fn_(&self) -> usize {
        self.false_neg.len()
    }

    /// Ratio of true positives among all positive decisions — the
    /// number annotated on Figures 5/6/8 of the paper. Zero when there
    /// were no positives.
    pub fn true_positive_ratio(&self) -> f64 {
        let pos = self.tp() + self.fp();
        if pos == 0 {
            0.0
        } else {
            self.tp() as f64 / pos as f64
        }
    }

    /// Recall against the reference.
    pub fn recall(&self) -> f64 {
        let refs = self.tp() + self.fn_();
        if refs == 0 {
            0.0
        } else {
            self.tp() as f64 / refs as f64
        }
    }
}

/// Compares a detected model against a reference: detected edges
/// split into true and false positives (in detected order), then the
/// reference edges that were missed.
pub fn diff<T: EdgeTarget>(detected: &Model<T>, reference: &Model<T>) -> Diff<(SourceId, T)> {
    let mut d = Diff::default();
    for e in detected.iter() {
        if reference.edges.contains(&e) {
            d.true_pos.push(e);
        } else {
            d.false_pos.push(e);
        }
    }
    d.false_neg = reference
        .iter()
        .filter(|e| !detected.edges.contains(e))
        .collect();
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SourceId {
        SourceId(i)
    }

    #[test]
    fn pair_model_normalizes_and_dedups() {
        let mut m = PairModel::new();
        assert!(m.insert(s(2), s(1)));
        assert!(!m.insert(s(1), s(2)), "duplicate in other order");
        assert!(!m.insert(s(3), s(3)), "self pair rejected");
        assert_eq!(m.len(), 1);
        assert!(m.contains(s(1), s(2)));
        assert!(m.contains(s(2), s(1)));
        assert!(!m.contains(s(1), s(1)));
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(s(1), s(2))]);
    }

    #[test]
    fn pair_model_from_names() {
        let mut reg = NameRegistry::new();
        reg.source("A");
        reg.source("B");
        let m = PairModel::from_names(&reg, [("B", "A")]).unwrap();
        assert_eq!(m.len(), 1);
        assert!(PairModel::from_names(&reg, [("A", "Zed")]).is_err());
    }

    #[test]
    fn app_service_model_basics() {
        let mut m = AppServiceModel::new();
        assert!(m.insert(s(0), 3));
        assert!(!m.insert(s(0), 3));
        assert!(m.contains(s(0), 3));
        assert!(!m.contains(s(0), 4));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn app_service_from_names() {
        let mut reg = NameRegistry::new();
        reg.source("App");
        let ids = vec!["SVC0".to_owned(), "SVC1".to_owned()];
        let m = AppServiceModel::from_names(&reg, &ids, [("App", "SVC1")]).unwrap();
        assert!(m.contains(s(0), 1));
        assert!(AppServiceModel::from_names(&reg, &ids, [("App", "NOPE")]).is_err());
        assert!(AppServiceModel::from_names(&reg, &ids, [("Ghost", "SVC0")]).is_err());
    }

    #[test]
    fn diff_partitions_correctly() {
        let reference: PairModel = [(s(1), s(2)), (s(1), s(3)), (s(2), s(3))]
            .into_iter()
            .collect();
        let detected: PairModel = [(s(1), s(2)), (s(1), s(4))].into_iter().collect();
        let d = diff(&detected, &reference);
        assert_eq!(d.tp(), 1);
        assert_eq!(d.fp(), 1);
        assert_eq!(d.fn_(), 2);
        assert_eq!(d.true_positive_ratio(), 0.5);
        assert!((d.recall() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.false_pos, vec![(s(1), s(4))]);
    }

    #[test]
    fn diff_app_service_partitions() {
        let reference: AppServiceModel = [(s(0), 0), (s(0), 1)].into_iter().collect();
        let detected: AppServiceModel = [(s(0), 1), (s(1), 0)].into_iter().collect();
        let d = diff(&detected, &reference);
        assert_eq!((d.tp(), d.fp(), d.fn_()), (1, 1, 1));
    }

    #[test]
    fn empty_diffs() {
        let d = diff(&PairModel::new(), &PairModel::new());
        assert_eq!(d.true_positive_ratio(), 0.0);
        assert_eq!(d.recall(), 0.0);
    }

    #[test]
    fn from_iterator_collects() {
        let m: PairModel = [(s(5), s(4)), (s(4), s(5))].into_iter().collect();
        assert_eq!(m.len(), 1);
        let m: AppServiceModel = [(s(0), 1)].into_iter().collect();
        assert_eq!(m.len(), 1);
    }
}
