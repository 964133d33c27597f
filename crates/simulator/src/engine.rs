//! The simulation engine: turns a [`SimConfig`] into a week of logs.
//!
//! Generation is direct sampling rather than a discrete-event queue: for
//! every day and hour we draw user sessions, system-triggered
//! invocations, background chatter and injected noise, and emit log
//! records through the same causal mechanisms the paper describes —
//! caller logs flanking each invocation, callee logs at the serving
//! application, context propagation that thins out toward the backend,
//! per-host clock skew and client-side buffering.
//!
//! Everything derives deterministically from the master seed.

use crate::config::{SimConfig, WorkloadConfig};
use crate::directory::ServiceDirectory;
use crate::population::Population;
use crate::textgen::{self, CallerStyle};
use crate::topology::{sample_poisson, CitationStyle, HostOs, Tier, Topology};
use crate::truth::GroundTruth;
use logdep_logstore::{
    time::{MS_PER_HOUR, MS_PER_SEC},
    HostId, LogRecord, LogStore, Millis, Severity, SourceId, UserId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Everything a simulation run produces.
#[derive(Debug)]
pub struct SimOutput {
    /// The finalized log store (the miners' only real input).
    pub store: LogStore,
    /// Exact ground truth for evaluation.
    pub truth: GroundTruth,
    /// The published service directory (input to technique L3).
    pub directory: ServiceDirectory,
    /// The generated topology (for white-box inspection and tests).
    pub topology: Topology,
    /// The user/machine population.
    pub population: Population,
    /// Generation statistics.
    pub stats: SimStats,
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total records emitted.
    pub total_logs: usize,
    /// User sessions generated, per day.
    pub sessions_per_day: Vec<usize>,
    /// Logs emitted by session activity (any context).
    pub session_logs: usize,
    /// Logs carrying both user and host (assignable to a session).
    pub context_logs: usize,
    /// Background chatter records.
    pub background_logs: usize,
    /// Records from system-triggered (non-session) invocations.
    pub system_call_logs: usize,
    /// Injected coincidence records.
    pub coincidence_logs: usize,
    /// Injected exception stack-trace records.
    pub stacktrace_logs: usize,
    /// Records lost to collection interruptions.
    pub dropped_logs: usize,
    /// `realized[day][edge]` = number of invocations of that edge.
    pub realized: Vec<Vec<u32>>,
}

impl SimStats {
    /// Fraction of all logs that carry session context.
    pub fn context_fraction(&self) -> f64 {
        if self.total_logs == 0 {
            0.0
        } else {
            self.context_logs as f64 / self.total_logs as f64
        }
    }
}

/// Runs the simulation, generating the topology from the config.
pub fn simulate(cfg: &SimConfig) -> SimOutput {
    let topology = Topology::generate(&cfg.topology, &cfg.noise, cfg.seed);
    simulate_with(cfg, topology)
}

/// Runs the simulation against an explicit topology — the entry point
/// for landscape-evolution studies, where a mutated topology is
/// re-simulated under the same workload (see [`Topology::evolve`]).
pub fn simulate_with(cfg: &SimConfig, topology: Topology) -> SimOutput {
    let mut pop_rng = rng_for(cfg.seed, 0x9090);
    let population = Population::generate(cfg.workload.n_users, cfg.workload.n_hosts, &mut pop_rng);
    let directory = ServiceDirectory::from_topology(&topology);
    let truth = GroundTruth::from_topology(&topology);

    let mut engine = Engine::new(cfg, &topology, &population);
    for day in 0..cfg.days {
        engine.simulate_day(day);
    }
    let (store, stats) = engine.finish();

    SimOutput {
        store,
        truth,
        directory,
        topology: topology.clone(),
        population,
        stats,
    }
}

/// SplitMix64 step, used to derive independent stream seeds.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(seed ^ splitmix(tag)))
}

/// Exponential sample with the given mean.
fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Session context being propagated along a call tree.
#[derive(Debug, Clone, Copy)]
struct Ctx {
    user: UserId,
    host: HostId,
}

struct Engine<'a> {
    cfg: &'a SimConfig,
    topo: &'a Topology,
    pop: &'a Population,
    by_caller: Vec<Vec<usize>>,
    /// Fixed per-client action workflows (ordered edge lists). Real GUI
    /// views combine the same services every time ("laboratory results
    /// and administrative patient history", §4.5) — this consistent
    /// concurrent use is what produces L1/L2's transitive/concurrent
    /// false positives.
    workflows: Vec<Vec<Vec<usize>>>,
    flaky_by_top: HashMap<usize, usize>,
    app_source: Vec<SourceId>,
    user_ids: Vec<UserId>,
    host_ids: Vec<HostId>,
    /// Server-side clock skew per app, ms.
    app_skew: Vec<i64>,
    /// Client machine clock skew, ms.
    host_skew: Vec<i64>,
    /// Collection-interruption windows (true start, true end), ms.
    collection_gaps: Vec<(i64, i64)>,
    store: LogStore,
    stats: SimStats,
}

impl<'a> Engine<'a> {
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn new(cfg: &'a SimConfig, topo: &'a Topology, pop: &'a Population) -> Self {
        let mut store = LogStore::new();
        let app_source: Vec<SourceId> = topo
            .apps
            .iter()
            .map(|a| store.registry.source(&a.name))
            .collect();
        let user_ids: Vec<UserId> = pop
            .users
            .iter()
            .map(|u| store.registry.user(&u.name))
            .collect();
        let host_ids: Vec<HostId> = pop
            .hosts
            .iter()
            .map(|h| store.registry.host(&h.name))
            .collect();

        let mut skew_rng = rng_for(cfg.seed, 0x5e_e3);
        let nt = cfg.noise.nt_skew_ms;
        let nt_skew = |rng: &mut StdRng| -> i64 {
            if nt == 0 {
                0
            } else if rng.gen_bool(0.7) {
                rng.gen_range(-nt.min(100)..=nt.min(100))
            } else {
                rng.gen_range(-nt..=nt)
            }
        };
        let app_skew: Vec<i64> = topo
            .apps
            .iter()
            .map(|a| match a.host_os {
                HostOs::Unix => skew_rng.gen_range(-1..=1),
                HostOs::Nt => nt_skew(&mut skew_rng),
            })
            .collect();
        let host_skew: Vec<i64> = (0..pop.hosts.len())
            .map(|_| nt_skew(&mut skew_rng))
            .collect();

        let flaky_by_top = topo
            .flaky_chains
            .iter()
            .map(|c| (c.top_edge, c.deep_edge))
            .collect();

        let by_caller = topo.edges_by_caller();
        let mut workflows: Vec<Vec<Vec<usize>>> = vec![Vec::new(); topo.apps.len()];
        for (i, app) in topo.apps.iter().enumerate() {
            if app.tier != Tier::Client {
                continue;
            }
            // Dormant edges ("used extremely seldom", §4.8) must never
            // enter a routine workflow — that is what keeps them dormant.
            let mut edges: Vec<usize> = by_caller[i]
                .iter()
                .copied()
                .filter(|&e| topo.edges[e].freq.weight() > 0.0)
                .collect();
            edges.sort_by(|&a, &b| {
                topo.edges[b]
                    .freq
                    .weight()
                    .total_cmp(&topo.edges[a].freq.weight())
            });
            let e = |k: usize| edges.get(k).copied();
            let mut combos: Vec<Vec<usize>> = Vec::new();
            if let Some(a) = e(0) {
                combos.push(vec![a]);
            }
            if let (Some(a), Some(b)) = (e(0), e(1)) {
                combos.push(vec![a, b]);
            }
            if let (Some(a), Some(b)) = (e(1), e(2)) {
                combos.push(vec![a, b]);
            }
            if let (Some(a), Some(b), Some(c)) = (e(0), e(2), e(3)) {
                combos.push(vec![a, b, c]);
            }
            workflows[i] = combos;
        }

        Self {
            cfg,
            topo,
            pop,
            by_caller,
            workflows,
            flaky_by_top,
            app_source,
            user_ids,
            host_ids,
            app_skew,
            host_skew,
            collection_gaps: Vec::new(),
            store,
            stats: SimStats::default(),
        }
    }

    fn finish(mut self) -> (LogStore, SimStats) {
        self.store.finalize();
        self.stats.total_logs = self.store.len();
        (self.store, self.stats)
    }

    /// Emits one record at true time `t` (ms), applying clock skew and
    /// buffering.
    #[allow(clippy::too_many_arguments, reason = "one record's full coordinates")]
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn emit(
        &mut self,
        app: usize,
        t: i64,
        skew: i64,
        ctx: Option<Ctx>,
        severity: Severity,
        text: String,
        rng: &mut StdRng,
    ) {
        if self.collection_gaps.iter().any(|&(s, e)| t >= s && t < e) {
            self.stats.dropped_logs += 1;
            return; // the collector was interrupted; the log is lost
        }
        let jitter = rng.gen_range(0..3);
        let buffer = sample_exp(rng, self.cfg.noise.buffer_delay_ms.max(0.001)) as i64;
        let mut rec = LogRecord {
            client_ts: Millis(t + skew + jitter),
            server_ts: Millis(t + buffer),
            source: self.app_source[app],
            user: None,
            host: None,
            severity,
            text,
        };
        if let Some(c) = ctx {
            rec.user = Some(c.user);
            rec.host = Some(c.host);
            self.stats.context_logs += 1;
        }
        self.store.push(rec);
    }

    /// Clock skew for a log of `app` emitted within session context on
    /// client machine `host` (client-tier apps run on the PC; services
    /// run on their servers).
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn skew_for(&self, app: usize, ctx: Option<Ctx>) -> i64 {
        if self.topo.apps[app].tier == Tier::Client {
            if let Some(c) = ctx {
                return self.host_skew[c.host.index()];
            }
        }
        self.app_skew[app]
    }

    /// Propagates context with the tier-dependent probability.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn maybe_ctx(&self, app: usize, ctx: Option<Ctx>, rng: &mut StdRng) -> Option<Ctx> {
        let ctx = ctx?;
        let p = match self.topo.apps[app].tier {
            Tier::Client => self.cfg.noise.client_session_context_prob,
            Tier::Mid => self.cfg.noise.mid_session_context_prob,
            Tier::Backend => self.cfg.noise.backend_session_context_prob,
        };
        rng.gen_bool(p.clamp(0.0, 1.0)).then_some(ctx)
    }

    /// Load-dependent latency multiplier: 1 at dead of night, growing
    /// with the instantaneous traffic intensity toward weekday peaks.
    fn queue_factor(&self, t: i64) -> f64 {
        let day = (t.div_euclid(24 * MS_PER_HOUR)).max(0) as u32;
        let hour = (t.div_euclid(MS_PER_HOUR).rem_euclid(24)) as u8;
        let intensity =
            WorkloadConfig::diurnal_weight(hour) * self.cfg.workload.day_multiplier(day);
        // Weekday office peak is ~0.076; normalize and stretch.
        1.0 + 1.2 * (intensity / 0.061).min(1.5)
    }

    /// Generates the logs of one invocation of `edge_idx` starting at
    /// true time `t`; recurses into nested calls. Returns the true time
    /// at which the caller observed completion.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn generate_call(
        &mut self,
        day: usize,
        edge_idx: usize,
        t: i64,
        ctx: Option<Ctx>,
        depth: u32,
        rng: &mut StdRng,
    ) -> i64 {
        self.stats.realized[day][edge_idx] += 1;
        let edge = self.topo.edges[edge_idx];
        let svc = &self.topo.services[edge.service];
        let owner = svc.owner;
        let caller = edge.caller;
        let caller_name = self.topo.apps[caller].name.clone();
        let fct = textgen::pick_fct(rng);
        // Queueing: service latency stretches with the instantaneous
        // system load — this is what makes L1's activity-correlation
        // analysis degrade in busy hours (§4.9 of the paper).
        let q = self.queue_factor(t);
        let latency = ((90.0 + sample_exp(rng, 150.0)) * q).min(12_000.0) as i64;

        // Caller "before" log.
        let caller_skew = self.skew_for(caller, ctx);
        let caller_ctx = self.maybe_ctx(caller, ctx, rng);
        let before_text = match edge.citation {
            CitationStyle::Correct => caller_invoke_text(caller, &svc.id, &svc.host, fct, rng),
            CitationStyle::Renamed => {
                let old = svc.old_id.as_deref().unwrap_or(&svc.id);
                caller_invoke_text(caller, old, &svc.host, fct, rng)
            }
            CitationStyle::WrongId(w) => {
                let wrong = &self.topo.services[w];
                caller_invoke_text(caller, &wrong.id, &svc.host, fct, rng)
            }
            CitationStyle::Unlogged => textgen::caller_uncited(fct),
        };
        self.emit(
            caller,
            t,
            caller_skew,
            caller_ctx,
            Severity::Info,
            before_text,
            rng,
        );

        // Callee activity.
        let activity_t = if edge.asynchronous {
            t + (rng.gen_range(800..6_000) as f64 * q) as i64
        } else {
            t + (latency as f64 * rng.gen_range(0.4..0.8)) as i64
        };
        let owner_spec = &self.topo.apps[owner];
        let n_callee = rng.gen_range(2..=3);
        for k in 0..n_callee {
            let text = textgen::callee_log(
                owner_spec.server_template_covered,
                owner_spec.server_cites_group,
                &svc.id,
                fct,
                &caller_name,
                rng,
            );
            let callee_ctx = self.maybe_ctx(owner, ctx, rng);
            let skew = self.app_skew[owner];
            self.emit(
                owner,
                activity_t + k * rng.gen_range(3..40),
                skew,
                callee_ctx,
                Severity::Info,
                text,
                rng,
            );
        }

        // Trailing callee log: completion/audit lines land seconds after
        // the request and drift further under load (batched flushes,
        // queued cleanup). They are what blurs the owner's activity
        // correlation in busy hours — the §4.9 load effect — while the
        // immediate callee log above keeps session bigrams tight.
        if rng.gen_bool(0.8) {
            let trail_q = 1.0 + 3.0 * (self.queue_factor(t) - 1.0);
            let trail_delay = ((1_500.0 + sample_exp(rng, 3_000.0)) * trail_q) as i64;
            let text = textgen::background(rng);
            let skew = self.app_skew[owner];
            self.emit(
                owner,
                activity_t + trail_delay,
                skew,
                None,
                Severity::Debug,
                text,
                rng,
            );
        }

        // Nested (transitive) call from the owner.
        let mut completion = if edge.asynchronous {
            t + rng.gen_range(3..12)
        } else {
            t + latency
        };
        if depth < 3 {
            let flaky_deep = self.flaky_by_top.get(&edge_idx).copied();
            let failing_chain = flaky_deep
                .filter(|_| rng.gen_bool(self.cfg.noise.stacktrace_failure_prob.clamp(0.0, 1.0)));
            if let Some(deep_idx) = failing_chain {
                self.generate_call(day, deep_idx, activity_t + 2, ctx, depth + 1, rng);
                // The failure propagates: the *top* caller logs the
                // exception trace citing the deep service (§4.8).
                let deep_svc = &self.topo.services[self.topo.edges[deep_idx].service];
                let trace = textgen::stacktrace(&deep_svc.id, &self.topo.apps[owner].name, fct);
                self.emit(
                    caller,
                    t + latency + rng.gen_range(1..20),
                    caller_skew,
                    caller_ctx,
                    Severity::Error,
                    trace,
                    rng,
                );
                self.stats.stacktrace_logs += 1;
                completion += 25;
            } else if rng.gen_bool(0.45) {
                if let Some(nested_idx) = self.pick_edge(owner, rng) {
                    self.generate_call(day, nested_idx, activity_t + 2, ctx, depth + 1, rng);
                }
            }
        }

        // Caller "after" log (unlogged apps stay silent).
        if edge.citation != CitationStyle::Unlogged {
            let after_t = completion + rng.gen_range(1..6);
            self.emit(
                caller,
                after_t,
                caller_skew,
                caller_ctx,
                Severity::Info,
                textgen::caller_return(fct, latency),
                rng,
            );
            completion = after_t;
        }
        completion
    }

    /// Picks an outgoing edge of `app`, weighted by frequency tier.
    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn pick_edge(&self, app: usize, rng: &mut StdRng) -> Option<usize> {
        let edges = &self.by_caller[app];
        let total: f64 = edges
            .iter()
            .map(|&i| self.topo.edges[i].freq.weight())
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut x = rng.gen_range(0.0..total);
        for &i in edges {
            x -= self.topo.edges[i].freq.weight();
            if x <= 0.0 {
                return Some(i);
            }
        }
        edges.last().copied()
    }

    /// Samples an hour with a half-flat, half-diurnal profile (system
    /// and background traffic runs around the clock).
    fn sample_system_hour(rng: &mut StdRng) -> u8 {
        if rng.gen_bool(0.15) {
            rng.gen_range(0..24)
        } else {
            Self::sample_hour(rng)
        }
    }

    /// Samples an hour of the day according to the diurnal curve.
    fn sample_hour(rng: &mut StdRng) -> u8 {
        let mut x = rng.gen_range(0.0..1.0_f64);
        for h in 0..24u8 {
            x -= WorkloadConfig::diurnal_weight(h);
            if x <= 0.0 {
                return h;
            }
        }
        23
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn simulate_day(&mut self, day: u32) {
        let w = &self.cfg.workload;
        let day_mult = w.day_multiplier(day) * w.scale;
        let day_start = day as i64 * 24 * MS_PER_HOUR;
        let d = day as usize;
        while self.stats.realized.len() <= d {
            self.stats.realized.push(vec![0; self.topo.edges.len()]);
        }
        while self.stats.sessions_per_day.len() <= d {
            self.stats.sessions_per_day.push(0);
        }

        // --- Collection interruptions for this day (drawn first so
        // every traffic class is affected equally).
        let mut rng = rng_for(self.cfg.seed, 0x6a70_0000 + day as u64);
        self.collection_gaps.clear();
        let gap_len = self.cfg.noise.collection_gap_minutes as i64 * 60_000;
        for _ in 0..self.cfg.noise.collection_gaps_per_day {
            // Interruptions cluster in busy hours, as §5 describes.
            let hour = Self::sample_hour(&mut rng) as i64;
            let start = day_start + hour * MS_PER_HOUR + rng.gen_range(0..MS_PER_HOUR);
            self.collection_gaps.push((start, start + gap_len));
        }

        // --- User sessions. Counts come from a dedicated stream with
        // low-variance rounding: at this reduced scale, plain Poisson
        // session counts would inject ±4% day-to-day volume noise —
        // enough to mask Table 1's mild mid-week profile.
        let mut count_rng = rng_for(self.cfg.seed, 0x5e55_c000 + day as u64);
        let mut rng = rng_for(self.cfg.seed, 0x5e55_0000 + day as u64);
        let clients: Vec<usize> = self
            .topo
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.tier == Tier::Client)
            .map(|(i, _)| i)
            .collect();
        for hour in 0..24u8 {
            let lambda = w.sessions_per_weekday * day_mult * WorkloadConfig::diurnal_weight(hour);
            let n_sessions = lambda.floor() as usize
                + usize::from(count_rng.gen_range(0.0..1.0) < lambda.fract());
            for _ in 0..n_sessions {
                self.simulate_session(d, day_start, hour, &clients, &mut rng);
            }
        }

        // --- System-triggered invocations per edge. Batch jobs and
        // notification timers run around the clock: their hour-of-day
        // profile is half flat, half diurnal (sample_system_hour), so
        // nights and weekends keep a steady, highly pair-correlated
        // traffic floor — the regime where L1 shines.
        let mut rng = rng_for(self.cfg.seed, 0x5c4a_0000 + day as u64);
        for edge_idx in 0..self.topo.edges.len() {
            let weight = self.topo.edges[edge_idx].freq.weight();
            if weight <= 0.0 {
                continue;
            }
            let lambda = w.system_invocations_per_edge_day * weight * day_mult;
            let n = sample_poisson(&mut rng, lambda);
            let before = self.store.len();
            for _ in 0..n {
                let hour = Self::sample_system_hour(&mut rng) as i64;
                let t = day_start + hour * MS_PER_HOUR + rng.gen_range(0..MS_PER_HOUR);
                self.generate_call(d, edge_idx, t, None, 1, &mut rng);
            }
            self.stats.system_call_logs += self.store.len() - before;
        }

        // --- Background chatter.
        let mut rng = rng_for(self.cfg.seed, 0xbac0_0000u64 + day as u64);
        for app in 0..self.topo.apps.len() {
            let lambda =
                w.background_logs_per_app_day * self.topo.apps[app].background_weight * day_mult;
            let n = sample_poisson(&mut rng, lambda);
            for _ in 0..n {
                let hour = Self::sample_hour(&mut rng) as i64;
                let t = day_start + hour * MS_PER_HOUR + rng.gen_range(0..MS_PER_HOUR);
                let text = textgen::background(&mut rng);
                let skew = self.app_skew[app];
                self.emit(app, t, skew, None, Severity::Debug, text, &mut rng);
                self.stats.background_logs += 1;
            }
        }

        // --- Coincidence citations.
        let mut rng = rng_for(self.cfg.seed, 0xc01c_0000 + day as u64);
        let pairs = self.topo.coincidence_pairs.clone();
        for (app, svc) in pairs {
            let lambda = self.cfg.noise.coincidence_rate_per_day * w.day_multiplier(day);
            let n = sample_poisson(&mut rng, lambda);
            for _ in 0..n {
                let hour = Self::sample_hour(&mut rng) as i64;
                let t = day_start + hour * MS_PER_HOUR + rng.gen_range(0..MS_PER_HOUR);
                let text = textgen::coincidence(&self.topo.services[svc].id, &mut rng);
                let ctx = if rng.gen_bool(0.5) && !self.user_ids.is_empty() {
                    Some(Ctx {
                        user: self.user_ids[rng.gen_range(0..self.user_ids.len())],
                        host: self.host_ids[rng.gen_range(0..self.host_ids.len())],
                    })
                } else {
                    None
                };
                let skew = self.skew_for(app, ctx);
                self.emit(app, t, skew, ctx, Severity::Info, text, &mut rng);
                self.stats.coincidence_logs += 1;
            }
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ids index the topology and population they came from"
    )]
    fn simulate_session(
        &mut self,
        day: usize,
        day_start: i64,
        hour: u8,
        clients: &[usize],
        rng: &mut StdRng,
    ) {
        if clients.is_empty() || self.pop.users.is_empty() {
            return;
        }
        let user = rng.gen_range(0..self.pop.users.len());
        let host = self.pop.session_host(user, rng);
        let ctx = Ctx {
            user: self.user_ids[user],
            host: self.host_ids[host],
        };
        // Preferred client app with occasional variety.
        let preferred = clients[user % clients.len()];
        let app = if rng.gen_bool(0.8) {
            preferred
        } else {
            clients[rng.gen_range(0..clients.len())]
        };

        let before_len = self.store.len();
        let mut t = day_start + hour as i64 * MS_PER_HOUR + rng.gen_range(0..MS_PER_HOUR);
        let n_actions = 1 + sample_poisson(rng, self.cfg.workload.actions_per_session);
        for _ in 0..n_actions {
            // UI action log from the client app.
            let skew = self.skew_for(app, Some(ctx));
            let ui_ctx = self.maybe_ctx(app, Some(ctx), rng);
            self.emit(
                app,
                t,
                skew,
                ui_ctx,
                Severity::Info,
                textgen::ui_action(rng),
                rng,
            );
            t += rng.gen_range(30..250);
            // Mostly a fixed workflow (consistent concurrent service
            // use); sometimes an ad-hoc weighted pick for variety.
            let combo: Vec<usize> = if !self.workflows[app].is_empty() && rng.gen_bool(0.7) {
                let w = &self.workflows[app];
                w[rng.gen_range(0..w.len())].clone()
            } else {
                self.pick_edge(app, rng).into_iter().collect()
            };
            for edge_idx in combo {
                let done = self.generate_call(day, edge_idx, t, Some(ctx), 0, rng);
                t = done + rng.gen_range(20..200);
            }
            // Think time until the next action.
            t += (sample_exp(rng, self.cfg.workload.think_time_secs) * MS_PER_SEC as f64) as i64
                + 500;
        }
        self.stats.sessions_per_day[day] += 1;
        self.stats.session_logs += self.store.len() - before_len;
    }
}

/// Invocation text in the caller's own developer style.
fn caller_invoke_text(app: usize, id: &str, host: &str, fct: &str, rng: &mut StdRng) -> String {
    textgen::caller_invoke(CallerStyle::for_app(app), id, host, fct, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::topology::FreqTier;

    fn small() -> SimOutput {
        simulate(&SimConfig::small_test(11))
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.store.len(), b.store.len());
        assert_eq!(a.stats, b.stats);
        for (x, y) in a.store.records().iter().zip(b.store.records()) {
            assert_eq!(x.to_record(&a.store), y.to_record(&b.store));
        }
    }

    #[test]
    fn produces_meaningful_volume() {
        let out = small();
        assert!(
            out.store.len() > 5_000,
            "only {} logs generated",
            out.store.len()
        );
        assert_eq!(out.stats.total_logs, out.store.len());
        assert!(out.stats.sessions_per_day[0] > 5);
        assert!(out.stats.background_logs > 0);
        assert!(out.stats.system_call_logs > 0);
    }

    #[test]
    fn context_fraction_in_paper_band() {
        let out = simulate(&SimConfig::paper_week(3, 0.25));
        let f = out.stats.context_fraction();
        assert!(
            (0.04..=0.20).contains(&f),
            "context fraction {f} outside plausible band"
        );
    }

    #[test]
    fn weekend_days_are_quieter() {
        let out = simulate(&SimConfig::paper_week(5, 0.15));
        let days = out.store.counts_per_day();
        assert_eq!(days.len(), 7);
        let weekday_avg: f64 = [0usize, 1, 2, 3, 6]
            .iter()
            .map(|&d| days[d].1 as f64)
            .sum::<f64>()
            / 5.0;
        for &d in &[4usize, 5] {
            assert!(
                (days[d].1 as f64) < 0.6 * weekday_avg,
                "day {d} not quiet: {} vs avg {weekday_avg}",
                days[d].1
            );
        }
    }

    #[test]
    fn dormant_edges_never_realize() {
        let out = small();
        for (i, e) in out.topology.edges.iter().enumerate() {
            if e.freq == FreqTier::Dormant {
                for day in &out.stats.realized {
                    assert_eq!(day[i], 0, "dormant edge {i} realized");
                }
            }
        }
    }

    #[test]
    fn most_active_edges_realize_daily() {
        let out = small();
        let active: Vec<usize> = out
            .topology
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.freq >= FreqTier::Common)
            .map(|(i, _)| i)
            .collect();
        let realized = active
            .iter()
            .filter(|&&i| out.stats.realized[0][i] > 0)
            .count();
        assert!(
            realized * 10 >= active.len() * 9,
            "{realized}/{} common+ edges realized",
            active.len()
        );
    }

    #[test]
    fn citations_present_in_free_text() {
        let out = small();
        let ids = out.directory.ids();
        let cited = out
            .store
            .records()
            .iter()
            .filter(|r| {
                let lower = out.store.text(r).to_ascii_lowercase();
                ids.iter()
                    .any(|id| lower.contains(&id.to_ascii_lowercase()))
            })
            .count();
        assert!(cited > 100, "only {cited} citing logs");
    }

    #[test]
    fn timestamps_lie_within_simulated_days() {
        let out = small();
        let span_ms = 24 * MS_PER_HOUR;
        for r in out.store.records() {
            // Allow skew/think-time spill past midnight.
            assert!(r.client_ts.as_millis() > -2_000);
            assert!(r.client_ts.as_millis() < span_ms + 10 * 60 * 1000);
            assert!(r.server_ts.as_millis() >= r.client_ts.as_millis() - 2_000);
        }
    }

    #[test]
    fn stacktraces_and_coincidences_injected() {
        let out = simulate(&SimConfig::paper_week(9, 0.15));
        assert!(out.stats.stacktrace_logs > 0, "no stack traces");
        assert!(out.stats.coincidence_logs > 0, "no coincidences");
    }
}
