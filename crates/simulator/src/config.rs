//! Simulation configuration.
//!
//! Every knob that shapes the synthetic environment lives here, so one
//! struct pins down an entire reproducible week. The defaults are
//! calibrated to the HUG environment of the paper, scaled down ~100×
//! (the paper's week is 56.8 million logs; the default here is a few
//! hundred thousand, which runs the full evaluation on a laptop).

use serde::{Deserialize, Serialize};

/// Complete simulation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed; every stream of randomness derives from it.
    pub seed: u64,
    /// Number of days to simulate.
    pub days: u32,
    /// Topology shape.
    pub topology: TopologyConfig,
    /// Workload intensity.
    pub workload: WorkloadConfig,
    /// Fault/noise injection (the §4.8 error taxonomy).
    pub noise: NoiseConfig,
}

impl SimConfig {
    /// The paper's observation week: 7 days starting Tuesday 2005-12-06,
    /// days 4 and 5 (Sat/Sun) at weekend load, HUG-like topology,
    /// noise calibrated to the §4.8 taxonomy. `scale` multiplies all
    /// traffic volumes; `1.0` is the ~100×-reduced laptop default.
    pub fn paper_week(seed: u64, scale: f64) -> Self {
        Self {
            seed,
            days: 7,
            topology: TopologyConfig::hug_like(),
            workload: WorkloadConfig::hug_like(scale),
            noise: NoiseConfig::paper_taxonomy(),
        }
    }

    /// A deliberately small configuration for fast unit tests: one day,
    /// a dozen applications, reduced traffic.
    pub fn small_test(seed: u64) -> Self {
        Self {
            seed,
            days: 1,
            topology: TopologyConfig::small(),
            workload: WorkloadConfig::hug_like(0.5),
            noise: NoiseConfig::paper_taxonomy(),
        }
    }
}

/// Shape of the application/service topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopologyConfig {
    /// Front-end (GUI / lightweight client) applications that drive
    /// user sessions.
    pub n_client_apps: usize,
    /// Mid-tier service applications.
    pub n_mid_apps: usize,
    /// Backend applications (databases, archives, notification cores).
    pub n_backend_apps: usize,
    /// Service-directory entries. Must not exceed the number of mid +
    /// backend apps × 2 (owners are drawn from those tiers).
    pub n_services: usize,
    /// Mean number of service dependencies per client app.
    pub client_fanout: f64,
    /// Mean number of service dependencies per mid-tier app.
    pub mid_fanout: f64,
    /// Probability that a backend app has one service dependency.
    pub backend_edge_prob: f64,
    /// Fraction of edges communicating asynchronously.
    pub async_edge_fraction: f64,
}

impl TopologyConfig {
    /// The HUG-like shape of the paper's reference model: 54 apps,
    /// 47 service entries, ≈177 dependencies.
    pub fn hug_like() -> Self {
        Self {
            n_client_apps: 12,
            n_mid_apps: 30,
            n_backend_apps: 12,
            n_services: 47,
            client_fanout: 9.5,
            mid_fanout: 2.9,
            backend_edge_prob: 0.5,
            async_edge_fraction: 0.3,
        }
    }

    /// Miniature topology for unit tests.
    pub fn small() -> Self {
        Self {
            n_client_apps: 3,
            n_mid_apps: 6,
            n_backend_apps: 3,
            n_services: 8,
            client_fanout: 3.0,
            mid_fanout: 1.5,
            backend_edge_prob: 0.3,
            async_edge_fraction: 0.3,
        }
    }

    /// Total number of applications.
    pub fn n_apps(&self) -> usize {
        self.n_client_apps + self.n_mid_apps + self.n_backend_apps
    }
}

/// Traffic intensity parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Global volume multiplier.
    pub scale: f64,
    /// Mean user sessions per weekday (before diurnal shaping).
    pub sessions_per_weekday: f64,
    /// Mean user actions per session.
    pub actions_per_session: f64,
    /// Mean think time between session actions, seconds.
    pub think_time_secs: f64,
    /// Mean background (non-session) logs per app per weekday.
    pub background_logs_per_app_day: f64,
    /// Mean system-triggered (non-session) invocations per dependency
    /// edge per weekday — batch jobs, push notifications, timers. These
    /// keep activity correlation alive around the clock.
    pub system_invocations_per_edge_day: f64,
    /// Per-day load multipliers, indexed day 0.. (the paper's week runs
    /// Tue..Mon with the weekend on days 4 and 5). Ratios follow
    /// Table 1: 10.3, 9.4, 9.4, 9.9, 3.7, 3.4, 10.7 million logs.
    pub day_multipliers: Vec<f64>,
    /// Number of users in the population.
    pub n_users: usize,
    /// Number of client machines.
    pub n_hosts: usize,
}

impl WorkloadConfig {
    /// HUG-like diurnal, weekly-shaped workload at the given scale.
    pub fn hug_like(scale: f64) -> Self {
        Self {
            scale,
            sessions_per_weekday: 600.0,
            actions_per_session: 8.0,
            think_time_secs: 18.0,
            background_logs_per_app_day: 150.0,
            system_invocations_per_edge_day: 15.0,
            day_multipliers: vec![1.00, 0.91, 0.91, 0.96, 0.36, 0.33, 1.04],
            n_users: 140,
            n_hosts: 90,
        }
    }

    /// Load multiplier for `day` (cycles if more days than multipliers).
    #[expect(
        clippy::indexing_slicing,
        reason = "the day wraps modulo the non-empty table"
    )]
    pub fn day_multiplier(&self, day: u32) -> f64 {
        if self.day_multipliers.is_empty() {
            1.0
        } else {
            self.day_multipliers[day as usize % self.day_multipliers.len()]
        }
    }

    /// Diurnal intensity shape: fraction of a day's traffic falling in
    /// `hour` (0..24). Hospitals run around the clock but office hours
    /// dominate (§3.1 of the paper: "there is still much more activity
    /// at usual office hours").
    #[expect(clippy::indexing_slicing, reason = "the hour wraps modulo 24")]
    pub fn diurnal_weight(hour: u8) -> f64 {
        // Piecewise curve: night trough, morning ramp, office plateau,
        // evening decline. Sums to 1 over 24 hours.
        // Hospitals never sleep: the night trough stays near a third of
        // the office peak ("never less than 200 records accessed each
        // hour", §1.2), which is what keeps all three techniques fed
        // around the clock.
        const W: [f64; 24] = [
            0.024, 0.022, 0.021, 0.021, 0.022, 0.025, // 00-05
            0.032, 0.046, 0.060, 0.061, 0.061, 0.060, // 06-11
            0.059, 0.060, 0.061, 0.061, 0.059, 0.054, // 12-17
            0.042, 0.036, 0.031, 0.028, 0.026, 0.028, // 18-23
        ];
        W[hour as usize % 24]
    }
}

/// Fault-injection knobs reproducing the paper's §4.8 error taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Number of caller apps that do not log (some of) their
    /// invocations. The paper found 4 such applications covering 7
    /// unlogged interactions.
    pub unlogged_apps: usize,
    /// Total dependency edges whose invocations are never cited in logs.
    pub unlogged_edges: usize,
    /// Edges whose citations use an outdated directory id (`UPSRV` for
    /// `UPSRV2`); 3 in the paper.
    pub renamed_edges: usize,
    /// Edges whose citations use a similar but wrong existing id;
    /// 5 in the paper.
    pub wrong_id_edges: usize,
    /// Number of (app, service) coincidence pairs — free text that cites
    /// a directory id by accident (a patient sharing a service's name);
    /// 7 in the paper.
    pub coincidence_pairs: usize,
    /// Mean coincidence logs emitted per pair per day.
    pub coincidence_rate_per_day: f64,
    /// Number of flaky nested-call chains whose failures make the
    /// top-level caller log an exception stack trace citing the
    /// transitive service; 5 in the paper.
    pub stacktrace_chains: usize,
    /// Probability that an invocation along a flaky chain fails.
    pub stacktrace_failure_prob: f64,
    /// Fraction of service owners whose callee-side logs cite their own
    /// group id at all (the rest log without citation). Governs how many
    /// inverted dependencies appear *without* stop patterns (24 in the
    /// paper).
    pub server_citing_fraction: f64,
    /// Number of service owners using a callee-log template *not*
    /// covered by the standard stop patterns — the residual inverted
    /// dependencies (2 in the paper).
    pub leaky_server_templates: usize,
    /// Maximum absolute clock skew of NT-domain hosts, milliseconds
    /// (§4.2: "less than 1 sec"). Unix servers stay within ±1 ms.
    pub nt_skew_ms: i64,
    /// Mean client-side buffering delay added to the *server* timestamp,
    /// milliseconds.
    pub buffer_delay_ms: f64,
    /// Number of collection interruptions per day — windows in which
    /// the central log collector records nothing (§5 of the paper
    /// notes collection "can be interrupted in periods of high load").
    /// Zero by default; used by robustness studies.
    pub collection_gaps_per_day: usize,
    /// Length of each collection gap, minutes.
    pub collection_gap_minutes: u32,
    /// Probability that a client app's session-driven log carries the
    /// user/host context (even front ends do not stamp every line).
    pub client_session_context_prob: f64,
    /// Probability that a mid-tier app's session-driven log carries the
    /// user/host context.
    pub mid_session_context_prob: f64,
    /// Probability that a backend app's session-driven log carries the
    /// user/host context.
    pub backend_session_context_prob: f64,
}

impl NoiseConfig {
    /// Calibration matching the counts reported in §4.8 of the paper.
    pub fn paper_taxonomy() -> Self {
        Self {
            unlogged_apps: 4,
            unlogged_edges: 7,
            renamed_edges: 3,
            wrong_id_edges: 5,
            coincidence_pairs: 7,
            coincidence_rate_per_day: 0.35,
            stacktrace_chains: 5,
            stacktrace_failure_prob: 0.05,
            server_citing_fraction: 0.55,
            leaky_server_templates: 2,
            nt_skew_ms: 900,
            buffer_delay_ms: 1_500.0,
            collection_gaps_per_day: 0,
            collection_gap_minutes: 10,
            client_session_context_prob: 0.30,
            mid_session_context_prob: 0.35,
            backend_session_context_prob: 0.06,
        }
    }

    /// A clean system: no injected faults at all. Useful for testing
    /// that the miners reach perfect precision when nothing misleads
    /// them.
    pub fn clean() -> Self {
        Self {
            unlogged_apps: 0,
            unlogged_edges: 0,
            renamed_edges: 0,
            wrong_id_edges: 0,
            coincidence_pairs: 0,
            coincidence_rate_per_day: 0.0,
            stacktrace_chains: 0,
            stacktrace_failure_prob: 0.0,
            server_citing_fraction: 0.5,
            leaky_server_templates: 0,
            nt_skew_ms: 0,
            buffer_delay_ms: 0.0,
            collection_gaps_per_day: 0,
            collection_gap_minutes: 10,
            client_session_context_prob: 0.30,
            mid_session_context_prob: 0.35,
            backend_session_context_prob: 0.06,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let c = SimConfig::paper_week(1, 1.0);
        assert_eq!(c.days, 7);
        assert_eq!(c.topology.n_apps(), 54);
        assert_eq!(c.topology.n_services, 47);
        assert_eq!(c.workload.day_multipliers.len(), 7);

        let s = SimConfig::small_test(1);
        assert_eq!(s.topology.n_apps(), 12);
    }

    #[test]
    fn diurnal_weights_sum_to_one() {
        let total: f64 = (0..24).map(WorkloadConfig::diurnal_weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    #[test]
    fn office_hours_dominate_night() {
        assert!(WorkloadConfig::diurnal_weight(10) > 2.0 * WorkloadConfig::diurnal_weight(3));
    }

    #[test]
    fn weekend_multipliers_reflect_table1() {
        let w = WorkloadConfig::hug_like(1.0);
        // Days 4 and 5 are the weekend: roughly a third of weekday load.
        assert!(w.day_multiplier(4) < 0.5 * w.day_multiplier(0));
        assert!(w.day_multiplier(5) < 0.5 * w.day_multiplier(3));
        // Cycling beyond the configured week.
        assert_eq!(w.day_multiplier(7), w.day_multiplier(0));
    }

    #[test]
    fn paper_taxonomy_counts() {
        let n = NoiseConfig::paper_taxonomy();
        assert_eq!(n.unlogged_edges, 7);
        assert_eq!(n.renamed_edges, 3);
        assert_eq!(n.wrong_id_edges, 5);
        assert_eq!(n.coincidence_pairs, 7);
        assert_eq!(n.stacktrace_chains, 5);
        assert_eq!(n.leaky_server_templates, 2);
    }

    #[test]
    fn clean_config_disables_faults() {
        let n = NoiseConfig::clean();
        assert_eq!(n.unlogged_edges + n.renamed_edges + n.wrong_id_edges, 0);
        assert_eq!(n.coincidence_pairs + n.stacktrace_chains, 0);
        assert_eq!(n.nt_skew_ms, 0);
    }

    #[test]
    fn serde_round_trip() {
        let c = SimConfig::paper_week(42, 2.0);
        let json = serde_json::to_string(&c).unwrap();
        let back: SimConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
