//! Ground truth exported by the simulator.
//!
//! The paper validates against an expert-curated reference model; here
//! the reference model is exact by construction (see DESIGN.md §2). The
//! truth is expressed in *names* so the mining side can resolve them
//! against its own registry without coupling the crates' id spaces.

use crate::topology::{CitationStyle, FreqTier, Topology};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The two reference models of §4.3, by name.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Unordered application interaction pairs, each stored with the
    /// lexicographically smaller name first.
    pub app_pairs: BTreeSet<(String, String)>,
    /// `(application name, service directory id)` dependencies.
    pub app_service: BTreeSet<(String, String)>,
    /// Names of applications participating in the models.
    pub app_names: Vec<String>,
    /// Published directory ids.
    pub service_ids: Vec<String>,
    /// Subset of `app_service` whose edges are dormant ("used extremely
    /// seldom") — §4.8 reclassifies their misses as true negatives.
    pub dormant: BTreeSet<(String, String)>,
    /// Subset of `app_service` whose invocations are never cited in the
    /// caller's logs (unlogged + renamed + wrong-id), i.e. undetectable
    /// by any log-based technique.
    pub uncited: BTreeSet<(String, String)>,
    /// Names of applications that do not log all of their invocations
    /// (excluded from the §4.9 load experiment).
    pub incomplete_loggers: Vec<String>,
}

impl GroundTruth {
    /// Builds the ground truth from a generated topology.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the apps and services of the topology"
    )]
    pub fn from_topology(topology: &Topology) -> Self {
        let name = |a: usize| topology.apps[a].name.clone();
        let app_pairs = topology
            .app_pairs()
            .into_iter()
            .map(|(a, b)| order(name(a), name(b)))
            .collect();
        let app_service = topology
            .app_service_pairs()
            .into_iter()
            .map(|(a, s)| (name(a), topology.services[s].id.clone()))
            .collect();
        let mut dormant = BTreeSet::new();
        let mut uncited = BTreeSet::new();
        let mut incomplete: BTreeSet<String> = BTreeSet::new();
        for e in &topology.edges {
            let key = (name(e.caller), topology.services[e.service].id.clone());
            if e.freq == FreqTier::Dormant {
                dormant.insert(key.clone());
            }
            match e.citation {
                CitationStyle::Correct => {}
                CitationStyle::Unlogged => {
                    incomplete.insert(name(e.caller));
                    uncited.insert(key);
                }
                CitationStyle::Renamed | CitationStyle::WrongId(_) => {
                    uncited.insert(key);
                }
            }
        }
        Self {
            app_pairs,
            app_service,
            app_names: topology.apps.iter().map(|a| a.name.clone()).collect(),
            service_ids: topology.services.iter().map(|s| s.id.clone()).collect(),
            dormant,
            uncited,
            incomplete_loggers: incomplete.into_iter().collect(),
        }
    }

    /// Number of dependent application pairs (paper: 178).
    pub fn n_app_pairs(&self) -> usize {
        self.app_pairs.len()
    }

    /// Number of app→service dependencies (paper: 177).
    pub fn n_app_service(&self) -> usize {
        self.app_service.len()
    }

    /// Total number of unordered app pairs, dependent or not
    /// (paper: (54² − 54)/2 = 1431).
    pub fn n_possible_app_pairs(&self) -> usize {
        let n = self.app_names.len();
        n * (n - 1) / 2
    }

    /// True when the unordered pair `{a, b}` is a known dependency.
    pub fn is_dependent_pair(&self, a: &str, b: &str) -> bool {
        self.app_pairs.contains(&order(a.to_owned(), b.to_owned()))
    }

    /// True when `(app, service)` is a known dependency.
    pub fn is_app_service_dep(&self, app: &str, service: &str) -> bool {
        self.app_service
            .contains(&(app.to_owned(), service.to_owned()))
    }
}

/// Normalizes an unordered pair.
pub fn order(a: String, b: String) -> (String, String) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NoiseConfig, TopologyConfig};

    fn truth() -> GroundTruth {
        let t = Topology::generate(
            &TopologyConfig::hug_like(),
            &NoiseConfig::paper_taxonomy(),
            7,
        );
        GroundTruth::from_topology(&t)
    }

    #[test]
    fn counts_are_paper_scale() {
        let g = truth();
        assert_eq!(g.app_names.len(), 54);
        assert_eq!(g.service_ids.len(), 47);
        assert_eq!(g.n_possible_app_pairs(), 1431);
        assert!(
            (130..=230).contains(&g.n_app_pairs()),
            "{}",
            g.n_app_pairs()
        );
        assert!(
            (130..=230).contains(&g.n_app_service()),
            "{}",
            g.n_app_service()
        );
    }

    #[test]
    fn pairs_are_normalized() {
        let g = truth();
        for (a, b) in &g.app_pairs {
            assert!(a < b, "unnormalized or self pair: {a} / {b}");
        }
        // Membership query works in both orders.
        let (a, b) = g.app_pairs.iter().next().expect("non-empty").clone();
        assert!(g.is_dependent_pair(&a, &b));
        assert!(g.is_dependent_pair(&b, &a));
        assert!(!g.is_dependent_pair(&a, &a));
    }

    #[test]
    fn taxonomy_subsets_are_subsets() {
        let g = truth();
        for k in g.dormant.iter().chain(g.uncited.iter()) {
            assert!(
                g.app_service.contains(k),
                "taxonomy entry not in model: {k:?}"
            );
        }
        // 7 unlogged + 3 renamed + 5 wrong-id.
        assert_eq!(g.uncited.len(), 15);
        assert_eq!(g.incomplete_loggers.len(), 4);
    }

    #[test]
    fn app_service_query() {
        let g = truth();
        let (app, svc) = g.app_service.iter().next().expect("non-empty").clone();
        assert!(g.is_app_service_dep(&app, &svc));
        assert!(!g.is_app_service_dep(&app, "NOT_A_SERVICE"));
    }

    #[test]
    fn order_helper() {
        assert_eq!(
            order("b".into(), "a".into()),
            ("a".to_owned(), "b".to_owned())
        );
        assert_eq!(
            order("a".into(), "b".into()),
            ("a".to_owned(), "b".to_owned())
        );
    }
}
