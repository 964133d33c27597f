//! The embeddable query engine: an immutable, precomputed index over a
//! sequence of mined per-day model snapshots.
//!
//! A [`ModelIndex`] is built once (per reload) from a `LogStore` by
//! running the cached window pipeline over a [`DailyPlan`] of sliding
//! windows, then frozen. Everything a request handler needs — name
//! lookups, per-detector pair evidence, forward/reverse adjacency for
//! impact BFS, per-layer churn between any two days, and the build's
//! `RunReport` — is computed here, so handlers are pure functions over
//! `&ModelIndex` and the hot-swap is a single `Arc` pointer store.
//!
//! All containers are `BTreeMap`/`BTreeSet` and all floats are avoided
//! (ratios are reported in integer permille), so every rendering of the
//! index is deterministic.

use crate::ServeError;
use logdep::evolution::{churn, Churn};
use logdep::obs;
use logdep::{AppServiceModel, DailyPlan, EvidenceCache, PairModel, PipelineConfig};
use logdep_logstore::{LogStore, SourceId};
use std::collections::{BTreeMap, BTreeSet};

/// One mined snapshot: the three detector models for one window.
#[derive(Debug, Clone, Default)]
pub struct DayModels {
    /// Day the window started.
    pub day: i64,
    /// Day the window ended (exclusive).
    pub end_day: i64,
    /// L1 timing-correlation pairs (empty when L1 was disabled).
    pub l1: PairModel,
    /// L2 session-bigram pairs (empty when L2 was disabled).
    pub l2: PairModel,
    /// L3 app → service-directory citations (empty when disabled).
    pub l3: AppServiceModel,
}

/// Per-layer churn between two snapshots of the same index.
#[derive(Debug)]
pub struct LayerChurn {
    /// Churn of the L1 pair model.
    pub l1: Churn<(SourceId, SourceId)>,
    /// Churn of the L2 pair model.
    pub l2: Churn<(SourceId, SourceId)>,
    /// Churn of the L3 app-service model.
    pub l3: Churn<(SourceId, usize)>,
}

/// One day-to-day transition ranked by how much the landscape moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionChurn {
    /// Start day of the earlier window.
    pub from: i64,
    /// Start day of the later window.
    pub to: i64,
    /// Total appeared+disappeared edges across all three layers.
    pub n_changes: usize,
    /// Total stable edges across all three layers.
    pub n_stable: usize,
    /// Integer-permille Jaccard stability over the union of layers.
    pub stability_permille: u64,
}

/// The frozen query engine. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct ModelIndex {
    generation: u64,
    source_names: Vec<String>,
    name_to_source: BTreeMap<String, SourceId>,
    service_ids: Vec<String>,
    days: BTreeMap<i64, DayModels>,
    fwd: BTreeMap<String, BTreeSet<String>>,
    rev: BTreeMap<String, BTreeSet<String>>,
    report_json: String,
}

impl ModelIndex {
    /// An index with no snapshots (the server's state before the first
    /// successful load). Every lookup answers "unknown".
    pub fn empty(generation: u64) -> Self {
        Self {
            generation,
            ..Self::default()
        }
    }

    /// Mines `plan`'s windows of `store` through the evidence cache and
    /// freezes the results into an index.
    ///
    /// The build runs under its own [`obs::Recorder`] so the per-window
    /// span events and cache counters land in this index's
    /// [`ModelIndex::report_json`] rather than any ambient trace; the
    /// previously installed recorder (if any) is restored afterwards.
    /// The recorder is clock-free, so the captured report is
    /// deterministic.
    pub fn from_store(
        store: &LogStore,
        service_ids: &[String],
        cfg: &PipelineConfig,
        plan: &DailyPlan,
        cache: &mut EvidenceCache,
        generation: u64,
    ) -> Result<Self, ServeError> {
        plan.validate()
            .map_err(|e| ServeError::Build(format!("plan: {e}")))?;
        let previous = obs::set_recorder(obs::Recorder::new());
        let mined = mine_days(store, service_ids, cfg, plan, cache);
        let recorder = obs::take_recorder().unwrap_or_default();
        if let Some(prev) = previous {
            obs::set_recorder(prev);
        }
        let days = mined?;
        let report_json = recorder.report().render_json();

        let source_names: Vec<String> = (0..store.registry.source_count())
            .map(|i| store.registry.source_name(SourceId(i as u32)).to_owned())
            .collect();
        let name_to_source: BTreeMap<String, SourceId> = source_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), SourceId(i as u32)))
            .collect();

        let mut index = Self {
            generation,
            source_names,
            name_to_source,
            service_ids: service_ids.to_vec(),
            days,
            fwd: BTreeMap::new(),
            rev: BTreeMap::new(),
            report_json,
        };
        index.build_adjacency();
        Ok(index)
    }

    /// Precomputes forward (dependencies) and reverse (dependents)
    /// adjacency over the latest snapshot. Pair evidence is undirected,
    /// so a pair edge appears in both maps in both directions; an L3
    /// citation is directed app → service.
    fn build_adjacency(&mut self) {
        let Some(latest) = self.days.values().next_back() else {
            return;
        };
        let mut fwd: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut rev: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (a, b) in latest.l1.iter().chain(latest.l2.iter()) {
            let (na, nb) = (self.source_label(a), self.source_label(b));
            fwd.entry(na.clone()).or_default().insert(nb.clone());
            fwd.entry(nb.clone()).or_default().insert(na.clone());
            rev.entry(na.clone()).or_default().insert(nb.clone());
            rev.entry(nb).or_default().insert(na);
        }
        for (app, svc) in latest.l3.iter() {
            let (na, ns) = (self.source_label(app), self.service_label(svc));
            fwd.entry(na.clone()).or_default().insert(ns.clone());
            rev.entry(ns).or_default().insert(na);
        }
        self.fwd = fwd;
        self.rev = rev;
    }

    /// This index's build generation (monotonic across hot swaps).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The mined snapshots in day order.
    pub fn days(&self) -> impl Iterator<Item = &DayModels> {
        self.days.values()
    }

    /// The snapshot whose window starts at `day`, if mined.
    pub fn day(&self, day: i64) -> Option<&DayModels> {
        self.days.get(&day)
    }

    /// The most recent snapshot, if any.
    pub fn latest(&self) -> Option<&DayModels> {
        self.days.values().next_back()
    }

    /// Number of interned sources.
    pub fn n_sources(&self) -> usize {
        self.source_names.len()
    }

    /// The service-directory ids the L3 detector mined against.
    pub fn service_ids(&self) -> &[String] {
        &self.service_ids
    }

    /// The captured build report (deterministic JSON).
    pub fn report_json(&self) -> &str {
        &self.report_json
    }

    /// Display name of a source id.
    pub fn source_label(&self, id: SourceId) -> String {
        self.source_names
            .get(id.index())
            .cloned()
            .unwrap_or_else(|| format!("source#{}", id.0))
    }

    /// Display label of a service index.
    pub fn service_label(&self, idx: usize) -> String {
        self.service_ids
            .get(idx)
            .cloned()
            .unwrap_or_else(|| format!("service#{idx}"))
    }

    /// Resolves a source name to its id.
    pub fn find_source(&self, name: &str) -> Option<SourceId> {
        self.name_to_source.get(name).copied()
    }

    /// Whether `name` is a known node (source or service id).
    pub fn knows(&self, name: &str) -> bool {
        self.name_to_source.contains_key(name) || self.service_ids.iter().any(|s| s == name)
    }

    /// Per-detector evidence for the pair `(src, dst)` on the latest
    /// snapshot, plus the start days of every snapshot where any
    /// detector saw the pair. `None` when `src` is unknown.
    pub fn pair_evidence(&self, src: &str, dst: &str) -> Option<PairEvidence> {
        let sid = self.find_source(src)?;
        let did = self.find_source(dst);
        let svc_idx = self.service_ids.iter().position(|s| s == dst);
        let rev_sid = self.find_source(dst);
        let rev_svc = self.service_ids.iter().position(|s| s == src);
        let layer_hits = |d: &DayModels| {
            let l1 = matches!(did, Some(d2) if d.l1.contains(sid, d2));
            let l2 = matches!(did, Some(d2) if d.l2.contains(sid, d2));
            let l3 = matches!(svc_idx, Some(i) if d.l3.contains(sid, i))
                || matches!((rev_sid, rev_svc), (Some(r), Some(i)) if d.l3.contains(r, i));
            (l1, l2, l3)
        };
        let (l1, l2, l3) = self
            .latest()
            .map(layer_hits)
            .unwrap_or((false, false, false));
        let days_seen: Vec<i64> = self
            .days
            .values()
            .filter(|d| {
                let (a, b, c) = layer_hits(d);
                a || b || c
            })
            .map(|d| d.day)
            .collect();
        Some(PairEvidence {
            l1,
            l2,
            l3,
            days_seen,
        })
    }

    /// Transitive dependents of `node` (reverse-adjacency BFS) up to
    /// `depth` hops, as `(name, distance)` in (distance, name) order.
    pub fn impact(&self, node: &str, depth: usize) -> Vec<(String, usize)> {
        let mut dist: BTreeMap<&str, usize> = BTreeMap::new();
        let mut frontier: BTreeSet<&str> = BTreeSet::new();
        frontier.insert(node);
        let mut out = Vec::new();
        for d in 1..=depth {
            let mut next: BTreeSet<&str> = BTreeSet::new();
            for cur in &frontier {
                let Some(dependents) = self.rev.get(*cur) else {
                    continue;
                };
                for dep in dependents {
                    if dep.as_str() != node && !dist.contains_key(dep.as_str()) {
                        dist.insert(dep, d);
                        next.insert(dep);
                    }
                }
            }
            for name in &next {
                out.push(((*name).to_owned(), d));
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out
    }

    /// Direct dependencies of `node` on the latest snapshot.
    pub fn dependencies(&self, node: &str) -> Vec<String> {
        self.fwd
            .get(node)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Per-layer churn between the snapshots starting at `from` and
    /// `to`. `None` when either day was not mined.
    pub fn churn_between(&self, from: i64, to: i64) -> Option<LayerChurn> {
        let a = self.days.get(&from)?;
        let b = self.days.get(&to)?;
        Some(LayerChurn {
            l1: churn(&a.l1, &b.l1),
            l2: churn(&a.l2, &b.l2),
            l3: churn(&a.l3, &b.l3),
        })
    }

    /// Every adjacent-day transition ranked most-churned first
    /// (ties broken by earlier `from` day), truncated to `top`.
    pub fn top_churn(&self, top: usize) -> Vec<TransitionChurn> {
        let days: Vec<i64> = self.days.keys().copied().collect();
        let mut out: Vec<TransitionChurn> = days
            .windows(2)
            .filter_map(|w| {
                let (&from, &to) = (w.first()?, w.get(1)?);
                let c = self.churn_between(from, to)?;
                let n_changes = c.l1.n_changes() + c.l2.n_changes() + c.l3.n_changes();
                let n_stable = c.l1.stable.len() + c.l2.stable.len() + c.l3.stable.len();
                Some(TransitionChurn {
                    from,
                    to,
                    n_changes,
                    n_stable,
                    stability_permille: permille(n_stable, n_stable + n_changes),
                })
            })
            .collect();
        out.sort_by(|a, b| b.n_changes.cmp(&a.n_changes).then(a.from.cmp(&b.from)));
        out.truncate(top);
        out
    }
}

/// Per-detector evidence for one queried pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairEvidence {
    /// L1 declared the pair dependent on the latest snapshot.
    pub l1: bool,
    /// L2 declared the pair dependent on the latest snapshot.
    pub l2: bool,
    /// L3 cited the pair (either direction app → service).
    pub l3: bool,
    /// Window-start days where any detector saw the pair.
    pub days_seen: Vec<i64>,
}

impl PairEvidence {
    /// Whether any detector saw the pair on the latest snapshot.
    pub fn detected(&self) -> bool {
        self.l1 || self.l2 || self.l3
    }
}

/// Rounded integer permille of `part / whole`; an empty whole is a
/// perfectly stable (1000‰) transition, matching `Churn::stability`.
pub fn permille(part: usize, whole: usize) -> u64 {
    if whole == 0 {
        return 1000;
    }
    ((part as u64) * 1000 + (whole as u64) / 2) / (whole as u64)
}

fn mine_days(
    store: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
    plan: &DailyPlan,
    cache: &mut EvidenceCache,
) -> Result<BTreeMap<i64, DayModels>, ServeError> {
    let mut days = BTreeMap::new();
    for step in 0..plan.steps {
        let window = plan.window(step);
        let outcome = logdep::run_window_cached(store, window, service_ids, cfg, cache)
            .map_err(|e| ServeError::Build(format!("window step {step}: {e}")))?;
        let day = plan.day(step);
        days.insert(
            day,
            DayModels {
                day,
                end_day: day + plan.window_days,
                l1: outcome.l1.map(|r| r.detected).unwrap_or_default(),
                l2: outcome.l2.map(|r| r.detected).unwrap_or_default(),
                l3: outcome.l3.map(|r| r.detected).unwrap_or_default(),
            },
        );
    }
    Ok(days)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permille_edges() {
        assert_eq!(permille(0, 0), 1000);
        assert_eq!(permille(0, 5), 0);
        assert_eq!(permille(5, 5), 1000);
        assert_eq!(permille(1, 3), 333);
        assert_eq!(permille(2, 3), 667);
    }

    #[test]
    fn empty_index_answers_unknown() {
        let idx = ModelIndex::empty(7);
        assert_eq!(idx.generation(), 7);
        assert!(idx.latest().is_none());
        assert!(!idx.knows("App00"));
        assert!(idx.pair_evidence("a", "b").is_none());
        assert!(idx.impact("a", 4).is_empty());
        assert!(idx.top_churn(3).is_empty());
    }
}
