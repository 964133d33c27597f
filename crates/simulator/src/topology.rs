//! Application/service topology generation.
//!
//! Generates a HUG-like landscape: front-end client applications driving
//! user sessions, mid-tier service applications, backend systems, a
//! service directory of ~47 entries, and a dependency graph of ~177
//! `app → service` edges whose derived `app ↔ app` interaction pairs
//! form the paper's first reference model. All noise roles (unlogged,
//! renamed, wrong-id edges; flaky chains; leaky servers) are assigned
//! here so the ground truth and the fault injection come from a single
//! seeded construction.

use crate::config::{NoiseConfig, TopologyConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Index of an application in [`Topology::apps`].
pub type AppIdx = usize;
/// Index of a service in [`Topology::services`].
pub type ServiceIdx = usize;

/// Architectural tier of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Tier {
    /// Front-end GUI / lightweight client; drives user sessions.
    Client,
    /// Mid-tier service application.
    Mid,
    /// Backend system (database front, archive, notification core).
    Backend,
}

/// Operating-system class of the host an application runs on; governs
/// clock synchronization quality (§4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostOs {
    /// NTP-synchronized Unix server: skew below 1 ms.
    Unix,
    /// Windows NT domain member: skew below ~1 s.
    Nt,
}

/// How invocations along an edge are cited in the caller's logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CitationStyle {
    /// The caller cites the correct directory id.
    Correct,
    /// The caller cites the service's *previous* id (not in the current
    /// directory) — the paper's `UPSRV` vs `UPSRV2` case.
    Renamed,
    /// The caller cites a similar but wrong *existing* id.
    WrongId(ServiceIdx),
    /// The caller does not cite (or log) its invocations at all.
    Unlogged,
}

/// Usage-frequency tier of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FreqTier {
    /// Effectively never exercised during an observation week ("used
    /// extremely seldom" in §4.8 — in the reference model, invisible in
    /// logs).
    Dormant,
    /// A handful of invocations per day; may be missed on quiet days.
    Rare,
    /// Regular traffic.
    Common,
    /// High-traffic edge.
    Frequent,
}

impl FreqTier {
    /// Relative invocation weight of this tier.
    pub fn weight(self) -> f64 {
        match self {
            FreqTier::Dormant => 0.0,
            FreqTier::Rare => 0.12,
            FreqTier::Common => 1.0,
            FreqTier::Frequent => 8.0,
        }
    }
}

/// An application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Unique name; also the log-source name.
    pub name: String,
    /// Architectural tier.
    pub tier: Tier,
    /// Host OS class (clock quality).
    pub host_os: HostOs,
    /// Services this application implements (serves).
    pub owns: Vec<ServiceIdx>,
    /// Relative weight of this app's background (non-session) chatter.
    pub background_weight: f64,
    /// Whether the app's *callee-side* logs cite its own group id.
    pub server_cites_group: bool,
    /// Whether the app's callee-side logs use a template covered by the
    /// standard stop patterns (false = "leaky", producing residual
    /// inverted dependencies).
    pub server_template_covered: bool,
}

/// A service-directory entry plus its implementation owner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Directory id, e.g. `DPINOTIFICATION`.
    pub id: String,
    /// Previous id if the service was renamed (`UPSRV` for `UPSRV2`).
    pub old_id: Option<String>,
    /// The application implementing this service.
    pub owner: AppIdx,
    /// Root URL as published in the directory.
    pub url: String,
    /// Server host name.
    pub host: String,
    /// Whether the directory marks the service as replicated.
    pub replicated: bool,
}

/// A dependency edge: `caller` invokes `service`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// The invoking application.
    pub caller: AppIdx,
    /// The invoked service.
    pub service: ServiceIdx,
    /// Usage frequency tier.
    pub freq: FreqTier,
    /// Asynchronous (fire-and-forget / notification) communication.
    pub asynchronous: bool,
    /// How the caller cites this edge in its logs.
    pub citation: CitationStyle,
}

/// A flaky two-hop chain `top → mid_service`, whose owner calls
/// `deep_service`; failures of the deep call surface as exception stack
/// traces in the *top* caller's log, citing `deep_service` (§4.8's
/// transitive false positives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlakyChain {
    /// Index (into [`Topology::edges`]) of the top-level edge.
    pub top_edge: usize,
    /// Index of the nested edge (caller = owner of the top edge's
    /// service).
    pub deep_edge: usize,
}

/// The complete generated landscape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Applications, index = [`AppIdx`].
    pub apps: Vec<AppSpec>,
    /// Services, index = [`ServiceIdx`].
    pub services: Vec<ServiceSpec>,
    /// Dependency edges.
    pub edges: Vec<EdgeSpec>,
    /// Flaky chains for stack-trace injection.
    pub flaky_chains: Vec<FlakyChain>,
    /// Coincidence pairs `(app, service)` whose free text accidentally
    /// cites the service id.
    pub coincidence_pairs: Vec<(AppIdx, ServiceIdx)>,
}

/// Name fragments for generated applications, echoing HUG's landscape.
const CLIENT_STEMS: [&str; 14] = [
    "Formidoc",
    "Viewer",
    "Orders",
    "Triage",
    "Rounds",
    "Admission",
    "Billing",
    "Pharma",
    "Planning",
    "Archive",
    "Consult",
    "Imaging",
    "Nursing",
    "Registry",
];
const MID_STEMS: [&str; 32] = [
    "Publication",
    "Notification",
    "Documents",
    "LabResults",
    "RadReports",
    "Prescription",
    "Scheduling",
    "PatientIndex",
    "Coding",
    "Transfers",
    "Alerts",
    "Vitals",
    "Protocols",
    "Referrals",
    "Messaging",
    "Directory",
    "Audit",
    "Consent",
    "Allergy",
    "Diet",
    "Pathology",
    "Microbio",
    "BloodBank",
    "Surgery",
    "Anesthesia",
    "Radiology",
    "Cardiology",
    "Oncology",
    "Maternity",
    "Psychiatry",
    "Emergency",
    "Outpatient",
];
const BACKEND_STEMS: [&str; 13] = [
    "RecordStore",
    "UserStore",
    "TermServer",
    "HL7Gateway",
    "PACSCore",
    "LabCore",
    "BillingCore",
    "StatWarehouse",
    "EventBus",
    "PrintSpool",
    "SecGateway",
    "TimeSeries",
    "DicomStore",
];
const PREFIXES: [&str; 4] = ["DPI", "HUG", "MED", "SYS"];

impl Topology {
    /// Generates a topology from the shape config, then assigns noise
    /// roles per the noise config. Fully determined by `seed`.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the apps, services and edges generated here"
    )]
    pub fn generate(cfg: &TopologyConfig, noise: &NoiseConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_9077_ab10_c0de);
        let mut apps = Vec::with_capacity(cfg.n_apps());

        let make_apps = |tier: Tier, n: usize, stems: &[&str], apps: &mut Vec<AppSpec>| {
            for i in 0..n {
                let stem = stems[i % stems.len()];
                let prefix = PREFIXES[(i / stems.len()) % PREFIXES.len()];
                let name = if i < stems.len() {
                    format!("{prefix}{stem}")
                } else {
                    format!("{prefix}{stem}{}", i / stems.len() + 1)
                };
                let host_os = match tier {
                    Tier::Client => HostOs::Nt,
                    Tier::Mid => {
                        if i % 3 == 0 {
                            HostOs::Nt
                        } else {
                            HostOs::Unix
                        }
                    }
                    Tier::Backend => HostOs::Unix,
                };
                apps.push(AppSpec {
                    name,
                    tier,
                    host_os,
                    owns: Vec::new(),
                    background_weight: match tier {
                        Tier::Client => 0.5,
                        Tier::Mid => 1.0,
                        Tier::Backend => 1.6,
                    },
                    server_cites_group: false,
                    server_template_covered: true,
                });
            }
        };
        make_apps(Tier::Client, cfg.n_client_apps, &CLIENT_STEMS, &mut apps);
        make_apps(Tier::Mid, cfg.n_mid_apps, &MID_STEMS, &mut apps);
        make_apps(Tier::Backend, cfg.n_backend_apps, &BACKEND_STEMS, &mut apps);

        // --- Services: owned by mid and backend apps, round-robin with
        // some double owners so counts like 47 services / 42 owners work.
        let owner_pool: Vec<AppIdx> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.tier != Tier::Client)
            .map(|(i, _)| i)
            .collect();
        let mut services = Vec::with_capacity(cfg.n_services);
        for s in 0..cfg.n_services {
            let owner = owner_pool[s % owner_pool.len()];
            let base = apps[owner].name.to_ascii_uppercase();
            let id = if s < owner_pool.len() {
                base
            } else {
                format!("{base}{}", s / owner_pool.len() + 1)
            };
            let host = format!(
                "srv{:02}.{}",
                s % 20 + 1,
                if apps[owner].host_os == HostOs::Unix {
                    "hcuge.ch"
                } else {
                    "nt.hcuge.ch"
                }
            );
            services.push(ServiceSpec {
                id: id.clone(),
                old_id: None,
                owner,
                url: format!("http://{host}:9999/{}", id.to_ascii_lowercase()),
                host,
                replicated: rng.gen_bool(0.25),
            });
            apps[owner].owns.push(s);
        }

        // --- Edges.
        let mut edges: Vec<EdgeSpec> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let add_edge =
            |caller: AppIdx,
             service: ServiceIdx,
             rng: &mut StdRng,
             edges: &mut Vec<EdgeSpec>,
             seen: &mut std::collections::HashSet<(usize, usize)>| {
                // Reject self-dependencies and duplicates.
                if services[service].owner == caller || !seen.insert((caller, service)) {
                    return;
                }
                let freq = match rng.gen_range(0..100) {
                    0..=19 => FreqTier::Frequent,
                    20..=64 => FreqTier::Common,
                    65..=95 => FreqTier::Rare,
                    _ => FreqTier::Dormant,
                };
                edges.push(EdgeSpec {
                    caller,
                    service,
                    freq,
                    asynchronous: rng.gen_bool(cfg.async_edge_fraction),
                    citation: CitationStyle::Correct,
                });
            };

        let n_services = services.len();
        for (i, app) in apps.iter().enumerate() {
            let fanout = match app.tier {
                Tier::Client => cfg.client_fanout,
                Tier::Mid => cfg.mid_fanout,
                Tier::Backend => {
                    if rng.gen_bool(cfg.backend_edge_prob) {
                        1.0
                    } else {
                        0.0
                    }
                }
            };
            let k = sample_poisson(&mut rng, fanout).max(if fanout > 0.0 { 1 } else { 0 });
            for _ in 0..k {
                let service = rng.gen_range(0..n_services);
                add_edge(i, service, &mut rng, &mut edges, &mut seen);
            }
        }

        // --- Noise-role assignment (deterministic given the rng state).
        // Dormant edges already exist via the frequency tiers.

        // Unlogged: pick `unlogged_apps` client/mid callers and mark
        // `unlogged_edges` of their edges.
        let mut caller_pool: Vec<AppIdx> = edges.iter().map(|e| e.caller).collect();
        caller_pool.sort_unstable();
        caller_pool.dedup();
        caller_pool.shuffle(&mut rng);
        let unlogged_apps: Vec<AppIdx> = caller_pool
            .iter()
            .copied()
            .take(noise.unlogged_apps)
            .collect();
        // Round-robin so all chosen apps really are incomplete loggers
        // (the paper: 4 applications, 7 unlogged interactions).
        let mut marked = 0usize;
        'rounds: while marked < noise.unlogged_edges {
            let mut any = false;
            for &app in &unlogged_apps {
                let candidate = edges.iter_mut().find(|e| {
                    e.caller == app
                        && e.freq != FreqTier::Dormant
                        && e.citation == CitationStyle::Correct
                });
                if let Some(e) = candidate {
                    e.citation = CitationStyle::Unlogged;
                    marked += 1;
                    any = true;
                    if marked >= noise.unlogged_edges {
                        break 'rounds;
                    }
                }
            }
            if !any {
                break;
            }
        }

        // Renamed: pick active, correctly-cited edges; rename the
        // service id to `<ID>2` and record the old id, which the caller
        // keeps citing.
        let mut candidates: Vec<usize> = (0..edges.len())
            .filter(|&i| {
                edges[i].citation == CitationStyle::Correct && edges[i].freq != FreqTier::Dormant
            })
            .collect();
        candidates.shuffle(&mut rng);
        let mut renamed_services = std::collections::HashSet::new();
        let mut taken = 0;
        for &ei in candidates.iter() {
            if taken >= noise.renamed_edges {
                break;
            }
            let svc = edges[ei].service;
            if !renamed_services.insert(svc) {
                continue; // one rename per service
            }
            let old = services[svc].id.clone();
            let renamed = format!("{old}2");
            if services.iter().any(|s| s.id == renamed) {
                continue; // the suffix scheme already minted this id
            }
            services[svc].id = renamed;
            services[svc].old_id = Some(old);
            edges[ei].citation = CitationStyle::Renamed;
            taken += 1;
        }

        // Wrong-id: caller cites another existing service's id.
        let mut candidates: Vec<usize> = (0..edges.len())
            .filter(|&i| {
                edges[i].citation == CitationStyle::Correct && edges[i].freq != FreqTier::Dormant
            })
            .collect();
        candidates.shuffle(&mut rng);
        let mut taken = 0;
        for &ei in candidates.iter() {
            if taken >= noise.wrong_id_edges {
                break;
            }
            // A "similar" id: any other service not already depended on
            // by this caller (so the citation is a real false positive).
            let caller = edges[ei].caller;
            let depended: std::collections::HashSet<ServiceIdx> = edges
                .iter()
                .filter(|e| e.caller == caller)
                .map(|e| e.service)
                .collect();
            let options: Vec<ServiceIdx> = (0..n_services)
                .filter(|s| !depended.contains(s) && services[*s].owner != caller)
                .collect();
            if let Some(&wrong) = options.as_slice().choose(&mut rng) {
                edges[ei].citation = CitationStyle::WrongId(wrong);
                taken += 1;
            }
        }

        // Server-side citation behaviour per owner app.
        let mut owners: Vec<AppIdx> = services.iter().map(|s| s.owner).collect();
        owners.sort_unstable();
        owners.dedup();
        let n_citing = ((owners.len() as f64) * noise.server_citing_fraction).round() as usize;
        let mut owner_order = owners.clone();
        owner_order.shuffle(&mut rng);
        for &o in owner_order.iter().take(n_citing) {
            apps[o].server_cites_group = true;
        }
        // Leaky templates among the citing owners.
        let citing: Vec<AppIdx> = owner_order.iter().copied().take(n_citing).collect();
        for &o in citing.iter().take(noise.leaky_server_templates) {
            apps[o].server_template_covered = false;
        }

        // Flaky chains: top edge (client → svc) whose owner has an
        // outgoing edge (the deep edge); failures cite the deep service.
        let mut flaky_chains = Vec::new();
        let mut chain_candidates: Vec<(usize, usize)> = Vec::new();
        for (ti, te) in edges.iter().enumerate() {
            if te.freq == FreqTier::Dormant || te.citation == CitationStyle::Unlogged {
                continue;
            }
            let mid_owner = services[te.service].owner;
            for (di, de) in edges.iter().enumerate() {
                if de.caller == mid_owner && de.freq != FreqTier::Dormant {
                    // The transitive citation is a *false* positive only
                    // if the top caller doesn't itself depend on the
                    // deep service.
                    let top_deps: bool = edges
                        .iter()
                        .any(|e| e.caller == te.caller && e.service == de.service);
                    if !top_deps {
                        chain_candidates.push((ti, di));
                    }
                }
            }
        }
        chain_candidates.shuffle(&mut rng);
        let mut seen_pairs = std::collections::HashSet::new();
        for (ti, di) in chain_candidates {
            if flaky_chains.len() >= noise.stacktrace_chains {
                break;
            }
            let key = (edges[ti].caller, edges[di].service);
            if seen_pairs.insert(key) {
                flaky_chains.push(FlakyChain {
                    top_edge: ti,
                    deep_edge: di,
                });
            }
        }

        // Coincidence pairs: (app, service) not in the reference model.
        let mut coincidence_pairs = Vec::new();
        let mut tries = 0;
        while coincidence_pairs.len() < noise.coincidence_pairs && tries < 10_000 {
            tries += 1;
            let app = rng.gen_range(0..apps.len());
            let svc = rng.gen_range(0..n_services);
            let is_dep = edges.iter().any(|e| e.caller == app && e.service == svc);
            let flagged = coincidence_pairs.contains(&(app, svc));
            if !is_dep && !flagged && services[svc].owner != app {
                coincidence_pairs.push((app, svc));
            }
        }

        Topology {
            apps,
            services,
            edges,
            flaky_chains,
            coincidence_pairs,
        }
    }

    /// All ground-truth `(caller app, service)` dependencies — the
    /// paper's second reference model (52 apps × 47 entries, 177 deps).
    pub fn app_service_pairs(&self) -> Vec<(AppIdx, ServiceIdx)> {
        let mut v: Vec<_> = self.edges.iter().map(|e| (e.caller, e.service)).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All ground-truth unordered `app ↔ app` interaction pairs — the
    /// paper's first reference model (54 apps, 178 dependent pairs).
    #[expect(
        clippy::indexing_slicing,
        reason = "edges name services of this topology"
    )]
    pub fn app_pairs(&self) -> Vec<(AppIdx, AppIdx)> {
        let mut v: Vec<(AppIdx, AppIdx)> = self
            .edges
            .iter()
            .map(|e| {
                let owner = self.services[e.service].owner;
                (e.caller.min(owner), e.caller.max(owner))
            })
            .filter(|(a, b)| a != b)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Directory ids currently published (the citation pattern set for
    /// technique L3).
    pub fn directory_ids(&self) -> Vec<&str> {
        self.services.iter().map(|s| s.id.as_str()).collect()
    }

    /// Evolves the landscape: removes `remove_edges` existing
    /// dependencies and wires `add_edges` new ones — the "constantly
    /// moving landscape" of the paper's introduction, for week-over-week
    /// change-tracking studies. Apps and services are preserved; noise
    /// roles of surviving edges are untouched. Deterministic in `seed`.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the apps, services and edges of this topology"
    )]
    pub fn evolve(&self, add_edges: usize, remove_edges: usize, seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3701_7e4e);
        let mut next = self.clone();

        // Remove: prefer plain correct edges so the §4.8 taxonomy roles
        // survive for the noise-calibration bins.
        let mut removable: Vec<usize> = (0..next.edges.len())
            .filter(|&i| next.edges[i].citation == CitationStyle::Correct)
            .collect();
        removable.shuffle(&mut rng);
        let mut to_remove: Vec<usize> = removable.into_iter().take(remove_edges).collect();
        to_remove.sort_unstable_by(|a, b| b.cmp(a));
        for i in &to_remove {
            next.edges.remove(*i);
        }
        // Edge indexes shifted: rebuild flaky chains that survived.
        next.flaky_chains
            .retain(|c| !to_remove.contains(&c.top_edge) && !to_remove.contains(&c.deep_edge));
        for c in &mut next.flaky_chains {
            c.top_edge -= to_remove.iter().filter(|&&r| r < c.top_edge).count();
            c.deep_edge -= to_remove.iter().filter(|&&r| r < c.deep_edge).count();
        }

        // Add: fresh correct edges between existing apps and services.
        let mut existing: std::collections::HashSet<(usize, usize)> =
            next.edges.iter().map(|e| (e.caller, e.service)).collect();
        let mut added = 0;
        let mut guard = 0;
        while added < add_edges && guard < 10_000 {
            guard += 1;
            let caller = rng.gen_range(0..next.apps.len());
            let service = rng.gen_range(0..next.services.len());
            if next.services[service].owner == caller || !existing.insert((caller, service)) {
                continue;
            }
            next.edges.push(EdgeSpec {
                caller,
                service,
                freq: if rng.gen_bool(0.4) {
                    FreqTier::Frequent
                } else {
                    FreqTier::Common
                },
                asynchronous: rng.gen_bool(0.3),
                citation: CitationStyle::Correct,
            });
            added += 1;
        }
        next
    }

    /// Edges indexed by caller, for the engine's workflow sampling.
    #[expect(
        clippy::indexing_slicing,
        reason = "edges name callers of this topology"
    )]
    pub fn edges_by_caller(&self) -> Vec<Vec<usize>> {
        let mut by_caller = vec![Vec::new(); self.apps.len()];
        for (i, e) in self.edges.iter().enumerate() {
            by_caller[e.caller].push(i);
        }
        by_caller
    }
}

/// Small-λ Poisson sampler (Knuth's method); adequate for fanouts.
pub(crate) fn sample_poisson(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        // Normal approximation for large λ.
        let z: f64 = {
            // Box–Muller from two uniforms.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        return (lambda + z * lambda.sqrt()).round().max(0.0) as usize;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0_f64);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // theoretical safety net
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NoiseConfig, TopologyConfig};

    fn hug() -> Topology {
        Topology::generate(
            &TopologyConfig::hug_like(),
            &NoiseConfig::paper_taxonomy(),
            7,
        )
    }

    #[test]
    fn deterministic_for_seed() {
        let a = hug();
        let b = hug();
        assert_eq!(a, b);
        let c = Topology::generate(
            &TopologyConfig::hug_like(),
            &NoiseConfig::paper_taxonomy(),
            8,
        );
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn hug_shape_matches_paper_scale() {
        let t = hug();
        assert_eq!(t.apps.len(), 54);
        assert_eq!(t.services.len(), 47);
        let n_edges = t.app_service_pairs().len();
        assert!(
            (130..=230).contains(&n_edges),
            "edges = {n_edges}, want ≈177"
        );
        let n_pairs = t.app_pairs().len();
        assert!(
            (120..=230).contains(&n_pairs),
            "pairs = {n_pairs}, want ≈178"
        );
    }

    #[test]
    fn names_and_ids_unique() {
        let t = hug();
        let mut names: Vec<&str> = t.apps.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate app names");
        let mut ids: Vec<&str> = t.directory_ids();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate service ids");
    }

    #[test]
    fn no_self_dependencies() {
        let t = hug();
        for e in &t.edges {
            assert_ne!(
                t.services[e.service].owner, e.caller,
                "app depends on its own service"
            );
        }
        for (a, b) in t.app_pairs() {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn clients_own_no_services() {
        let t = hug();
        for app in t.apps.iter().filter(|a| a.tier == Tier::Client) {
            assert!(app.owns.is_empty());
        }
        for s in &t.services {
            assert_ne!(t.apps[s.owner].tier, Tier::Client);
        }
    }

    #[test]
    fn noise_roles_assigned_with_paper_counts() {
        let t = hug();
        let renamed = t
            .edges
            .iter()
            .filter(|e| e.citation == CitationStyle::Renamed)
            .count();
        assert_eq!(renamed, 3);
        let wrong = t
            .edges
            .iter()
            .filter(|e| matches!(e.citation, CitationStyle::WrongId(_)))
            .count();
        assert_eq!(wrong, 5);
        let unlogged = t
            .edges
            .iter()
            .filter(|e| e.citation == CitationStyle::Unlogged)
            .count();
        assert_eq!(unlogged, 7);
        assert_eq!(t.flaky_chains.len(), 5);
        assert_eq!(t.coincidence_pairs.len(), 7);
        let leaky = t.apps.iter().filter(|a| !a.server_template_covered).count();
        assert_eq!(leaky, 2);
    }

    #[test]
    fn renamed_services_keep_old_id_prefix() {
        let t = hug();
        for s in t.services.iter().filter(|s| s.old_id.is_some()) {
            let old = s.old_id.as_ref().expect("filtered");
            assert_eq!(&s.id, &format!("{old}2"));
        }
        let n = t.services.iter().filter(|s| s.old_id.is_some()).count();
        assert_eq!(n, 3);
    }

    #[test]
    fn wrong_id_targets_are_not_real_dependencies() {
        let t = hug();
        for e in &t.edges {
            if let CitationStyle::WrongId(w) = e.citation {
                assert!(
                    !t.edges
                        .iter()
                        .any(|x| x.caller == e.caller && x.service == w),
                    "wrong-id citation points at an actual dependency"
                );
                assert_ne!(w, e.service);
            }
        }
    }

    #[test]
    fn flaky_chains_are_transitive_non_deps() {
        let t = hug();
        for c in &t.flaky_chains {
            let top = &t.edges[c.top_edge];
            let deep = &t.edges[c.deep_edge];
            assert_eq!(
                t.services[top.service].owner, deep.caller,
                "chain must pass through the mid owner"
            );
            assert!(
                !t.edges
                    .iter()
                    .any(|e| e.caller == top.caller && e.service == deep.service),
                "deep service must not be a real dependency of the top caller"
            );
        }
    }

    #[test]
    fn coincidence_pairs_are_non_deps() {
        let t = hug();
        for &(app, svc) in &t.coincidence_pairs {
            assert!(!t.edges.iter().any(|e| e.caller == app && e.service == svc));
            assert_ne!(t.services[svc].owner, app);
        }
    }

    #[test]
    fn small_topology_generates() {
        let t = Topology::generate(&TopologyConfig::small(), &NoiseConfig::paper_taxonomy(), 3);
        assert_eq!(t.apps.len(), 12);
        assert_eq!(t.services.len(), 8);
        assert!(!t.edges.is_empty());
    }

    #[test]
    fn edges_by_caller_partition() {
        let t = hug();
        let by_caller = t.edges_by_caller();
        let total: usize = by_caller.iter().map(Vec::len).sum();
        assert_eq!(total, t.edges.len());
        for (caller, idxs) in by_caller.iter().enumerate() {
            for &i in idxs {
                assert_eq!(t.edges[i].caller, caller);
            }
        }
    }

    #[test]
    fn evolve_adds_and_removes_edges() {
        let t = hug();
        let before = t.app_service_pairs().len();
        let evolved = t.evolve(10, 6, 99);
        let after = evolved.app_service_pairs().len();
        assert_eq!(after, before + 10 - 6);
        assert_eq!(evolved.apps, t.apps);
        assert_eq!(evolved.services, t.services);
        // No self-dependencies or duplicates slipped in.
        let mut seen = std::collections::HashSet::new();
        for e in &evolved.edges {
            assert_ne!(evolved.services[e.service].owner, e.caller);
            assert!(seen.insert((e.caller, e.service)));
        }
        // Deterministic.
        assert_eq!(evolved, t.evolve(10, 6, 99));
        assert_ne!(evolved.edges, t.evolve(10, 6, 100).edges);
    }

    #[test]
    fn evolve_keeps_noise_roles_consistent() {
        let t = hug();
        let evolved = t.evolve(5, 8, 7);
        for c in &evolved.flaky_chains {
            let top = &evolved.edges[c.top_edge];
            let deep = &evolved.edges[c.deep_edge];
            assert_eq!(
                evolved.services[top.service].owner, deep.caller,
                "flaky chain broken by reindexing"
            );
        }
        let renamed = evolved
            .edges
            .iter()
            .filter(|e| e.citation == CitationStyle::Renamed)
            .count();
        assert_eq!(renamed, 3, "renamed edges must survive evolution");
    }

    #[test]
    fn poisson_sampler_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3000;
        let total: usize = (0..n).map(|_| sample_poisson(&mut rng, 4.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean = {mean}");
        assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        // Large-λ branch.
        let big: usize = sample_poisson(&mut rng, 100.0);
        assert!((50..200).contains(&big));
    }
}
