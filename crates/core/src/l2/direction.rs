//! Direction detection for L2-discovered pairs (§5 of the paper).
//!
//! The base technique cannot tell caller from callee. The paper
//! sketches the remedy implemented here: "Given a dependent pair type
//! (A, B), one could try counting the number of times the first
//! element of the *first* pair of the given type is an instance of A,
//! respectively B, in a sequence of logs that is not interrupted by a
//! pause of at least the length of the *timeout* parameter."
//!
//! Sessions are segmented into *bursts* at pauses of at least the
//! timeout; within each burst, for every unordered pair {A, B} active
//! in it, we look at the first adjacency of the two sources and count
//! which one led. Callers usually log before their callees, so a
//! significantly skewed lead count indicates the invocation direction.
//! A binomial sign test turns the counts into a decision.

use logdep_logstore::SourceId;
use logdep_sessions::Session;
use logdep_stats::binomial;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Direction verdict for one unordered pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectionOutcome {
    /// The pair, normalized (`a < b`).
    pub a: SourceId,
    /// Second element of the pair.
    pub b: SourceId,
    /// Bursts in which `a` led the first adjacency.
    pub a_led: u32,
    /// Bursts in which `b` led.
    pub b_led: u32,
    /// Two-sided binomial p-value against a fair coin.
    pub p_value: f64,
    /// The inferred caller, when the skew is significant.
    pub caller: Option<SourceId>,
}

impl DirectionOutcome {
    /// Total bursts with evidence.
    pub fn n_bursts(&self) -> u32 {
        self.a_led + self.b_led
    }
}

/// Parameters of direction detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectionConfig {
    /// Pause (ms) that separates bursts — the paper reuses L2's
    /// timeout parameter.
    pub pause_ms: i64,
    /// Significance level for the sign test.
    pub alpha: f64,
    /// Minimum number of lead observations before deciding.
    pub min_bursts: u32,
}

impl Default for DirectionConfig {
    fn default() -> Self {
        Self {
            pause_ms: 1_000,
            alpha: 0.01,
            min_bursts: 8,
        }
    }
}

/// Counts burst leads for the given pairs across sessions and decides
/// directions. `pairs` should be the unordered pairs L2 declared
/// dependent; anything else is ignored.
#[expect(
    clippy::indexing_slicing,
    reason = "bursts stay inside the session and `wanted` maps into `pairs`"
)]
pub fn detect_directions(
    sessions: &[Session],
    pairs: &[(SourceId, SourceId)],
    cfg: &DirectionConfig,
) -> Vec<DirectionOutcome> {
    let wanted: HashMap<(SourceId, SourceId), usize> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| ((a.min(b), a.max(b)), i))
        .collect();
    let mut a_led = vec![0u32; pairs.len()];
    let mut b_led = vec![0u32; pairs.len()];

    for session in sessions {
        // Split the session into bursts at long pauses.
        let mut burst_start = 0usize;
        let entries = &session.entries;
        for i in 0..=entries.len() {
            let is_break =
                i == entries.len() || (i > 0 && entries[i].ts - entries[i - 1].ts >= cfg.pause_ms);
            if !is_break {
                continue;
            }
            let burst = &entries[burst_start..i];
            burst_start = i;
            if burst.len() < 2 {
                continue;
            }
            // First adjacency of each wanted pair within the burst:
            // scan once, remembering which sources were already seen
            // and crediting the earlier one at the first co-occurrence.
            let mut seen_order: Vec<SourceId> = Vec::new();
            let mut credited: Vec<bool> = vec![false; pairs.len()];
            for e in burst {
                if !seen_order.contains(&e.source) {
                    // New source: pairs of it with every earlier source
                    // get their first adjacency now — the earlier one led.
                    for &prev in &seen_order {
                        let key = (prev.min(e.source), prev.max(e.source));
                        if let Some(&idx) = wanted.get(&key) {
                            if !credited[idx] {
                                credited[idx] = true;
                                let norm_a = pairs[idx].0.min(pairs[idx].1);
                                if prev == norm_a {
                                    a_led[idx] += 1;
                                } else {
                                    b_led[idx] += 1;
                                }
                            }
                        }
                    }
                    seen_order.push(e.source);
                }
            }
        }
    }

    pairs
        .iter()
        .enumerate()
        .map(|(i, &(pa, pb))| {
            let (na, nb) = (pa.min(pb), pa.max(pb));
            let (x, y) = (a_led[i], b_led[i]);
            let n = x + y;
            // Two-sided exact binomial sign test.
            let p_value = if n == 0 {
                1.0
            } else {
                let k = x.min(y) as u64;
                let cdf = binomial::cdf(n as u64, 0.5, k).unwrap_or(1.0);
                (2.0 * cdf).min(1.0)
            };
            let caller = if n >= cfg.min_bursts && p_value <= cfg.alpha {
                Some(if x > y { na } else { nb })
            } else {
                None
            };
            DirectionOutcome {
                a: na,
                b: nb,
                a_led: x,
                b_led: y,
                p_value,
                caller,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::{HostId, Millis, UserId};
    use logdep_sessions::SessionEntry;

    fn session(entries: &[(i64, u32)]) -> Session {
        Session {
            user: UserId(0),
            host: HostId(0),
            entries: entries
                .iter()
                .map(|&(t, s)| SessionEntry {
                    ts: Millis(t),
                    source: SourceId(s),
                })
                .collect(),
        }
    }

    fn caller_callee_sessions(n: usize) -> Vec<Session> {
        // Source 1 always precedes source 2 within bursts, separated by
        // long pauses between bursts.
        (0..n)
            .map(|k| {
                let base = k as i64 * 1_000_000;
                session(&[
                    (base, 1),
                    (base + 100, 2),
                    (base + 200, 1),
                    // Pause ≥ 1 s starts a new burst:
                    (base + 5_000, 1),
                    (base + 5_120, 2),
                ])
            })
            .collect()
    }

    #[test]
    fn detects_caller_direction() {
        let sessions = caller_callee_sessions(10);
        let pairs = vec![(SourceId(1), SourceId(2))];
        let out = detect_directions(&sessions, &pairs, &DirectionConfig::default());
        assert_eq!(out.len(), 1);
        let o = &out[0];
        // 2 bursts per session × 10 sessions, source 1 always leads.
        assert_eq!(o.a_led, 20);
        assert_eq!(o.b_led, 0);
        assert!(o.p_value < 1e-4);
        assert_eq!(o.caller, Some(SourceId(1)));
    }

    #[test]
    fn balanced_leads_stay_undecided() {
        // Alternating leader: half the bursts start with 1, half with 2.
        let mut sessions = Vec::new();
        for k in 0..10i64 {
            let base = k * 1_000_000;
            sessions.push(session(&[(base, 1), (base + 100, 2)]));
            sessions.push(session(&[(base + 500_000, 2), (base + 500_100, 1)]));
        }
        let pairs = vec![(SourceId(1), SourceId(2))];
        let out = detect_directions(&sessions, &pairs, &DirectionConfig::default());
        assert_eq!(out[0].caller, None);
        assert!(out[0].p_value > 0.5);
        assert_eq!(out[0].n_bursts(), 20);
    }

    #[test]
    fn too_few_bursts_stay_undecided() {
        let sessions = caller_callee_sessions(2); // 4 bursts < min 8
        let pairs = vec![(SourceId(1), SourceId(2))];
        let out = detect_directions(&sessions, &pairs, &DirectionConfig::default());
        assert_eq!(out[0].caller, None, "min_bursts gate must hold");
        assert_eq!(out[0].n_bursts(), 4);
    }

    #[test]
    fn only_first_adjacency_per_burst_counts() {
        // Within one burst the pair co-occurs three times; only the
        // first counts, so a single burst contributes exactly one lead.
        let s = session(&[(0, 1), (10, 2), (20, 1), (30, 2), (40, 1), (50, 2)]);
        let pairs = vec![(SourceId(1), SourceId(2))];
        let out = detect_directions(&[s], &pairs, &DirectionConfig::default());
        assert_eq!(out[0].n_bursts(), 1);
        assert_eq!(out[0].a_led, 1);
    }

    #[test]
    fn unrelated_pairs_report_zero_evidence() {
        let sessions = caller_callee_sessions(3);
        let pairs = vec![(SourceId(5), SourceId(6))];
        let out = detect_directions(&sessions, &pairs, &DirectionConfig::default());
        assert_eq!(out[0].n_bursts(), 0);
        assert_eq!(out[0].p_value, 1.0);
        assert_eq!(out[0].caller, None);
    }

    #[test]
    fn empty_inputs() {
        let out = detect_directions(&[], &[], &DirectionConfig::default());
        assert!(out.is_empty());
    }
}
