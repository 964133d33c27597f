//! The session-mining runner of technique L2.

use super::bigrams::{extract_bigrams_pool, BigramCounts};
use crate::model::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_par::ParConfig;
use logdep_sessions::{reconstruct_range, SessionConfig, SessionStats};
use logdep_stats::contingency::{association_test, AssociationStatistic, Table2x2};
use serde::{Deserialize, Serialize};

/// Parameters of technique L2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L2Config {
    /// Bigram timeout in milliseconds; `None` reproduces the
    /// no-timeout ("infinity") configuration of §4.7.
    pub timeout_ms: Option<i64>,
    /// Significance level of the association gate.
    pub alpha: f64,
    /// Association statistic (the paper: Dunning's G²).
    pub statistic: AssociationStatistic,
    /// Minimum joint count for a pair type to be considered at all;
    /// guards the χ² approximation against single-occurrence types.
    pub min_joint: u64,
    /// Session reconstruction parameters.
    pub session: SessionConfig,
}

impl Default for L2Config {
    fn default() -> Self {
        Self {
            timeout_ms: Some(1_000), // the paper's headline setting
            alpha: 0.01,
            statistic: AssociationStatistic::Dunning,
            min_joint: 3,
            session: SessionConfig::default(),
        }
    }
}

impl L2Config {
    /// The paper's configuration with the given timeout (§4.6/§4.7).
    pub fn with_timeout(timeout_ms: Option<i64>) -> Self {
        Self {
            timeout_ms,
            ..Self::default()
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> crate::Result<()> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(crate::MineError::InvalidConfig {
                name: "alpha",
                reason: format!("{} outside (0, 1)", self.alpha),
            });
        }
        if let Some(t) = self.timeout_ms {
            if t <= 0 {
                return Err(crate::MineError::InvalidConfig {
                    name: "timeout_ms",
                    reason: "must be positive (use None for infinity)".into(),
                });
            }
        }
        Ok(())
    }
}

/// Outcome of the association test for one ordered pair type.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairTypeOutcome {
    /// First source of the bigram type.
    pub first: SourceId,
    /// Second source.
    pub second: SourceId,
    /// Joint count `f`.
    pub joint: u64,
    /// Association statistic value (G² or X²).
    pub statistic: f64,
    /// p-value against χ²₁.
    pub p_value: f64,
    /// Whether the type passed the one-sided gate at `alpha`.
    pub significant: bool,
}

/// Result of an L2 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L2Result {
    /// Unordered pairs declared dependent (union over ordered types).
    pub detected: PairModel,
    /// Per-ordered-type detail.
    pub outcomes: Vec<PairTypeOutcome>,
    /// The bigram counts the tests ran on.
    pub bigrams: BigramCounts,
    /// Session reconstruction statistics.
    pub session_stats: SessionStats,
}

/// Runs technique L2 on the records within `range` on the worker
/// pool `par`; results are bit-identical at every width. Bigram
/// counting shards across sessions on the pool (see
/// [`extract_bigrams_pool`]); the G² pass over the deterministic,
/// sorted type list stays serial — it is a few hundred 2×2 tests.
pub fn run_l2_pool(
    store: &LogStore,
    range: TimeRange,
    cfg: &L2Config,
    par: &ParConfig,
) -> crate::Result<L2Result> {
    cfg.validate()?;
    let session_set = reconstruct_range(store, range, &cfg.session);
    let bigrams = extract_bigrams_pool(&session_set.sessions, cfg.timeout_ms, par);
    let (detected, outcomes) = associations(&bigrams, cfg);
    Ok(L2Result {
        detected,
        outcomes,
        bigrams,
        session_stats: session_set.stats,
    })
}

/// The significance pass of L2: tests every ordered type in `bigrams`
/// against the χ²₁ gate and collects the detected pair model. Iteration
/// follows the `BTreeMap` key order — deterministic by construction.
#[expect(
    clippy::indexing_slicing,
    reason = "both types of every counted bigram have a margin"
)]
fn associations(bigrams: &BigramCounts, cfg: &L2Config) -> (PairModel, Vec<PairTypeOutcome>) {
    let mut detected = PairModel::new();
    let mut outcomes = Vec::new();
    for (&(first, second), &f) in bigrams.joint.iter() {
        if f < cfg.min_joint {
            continue;
        }
        let f1 = bigrams.first_margin[&first];
        let f2 = bigrams.second_margin[&second];
        let table = match Table2x2::from_marginals(f, f1, f2, bigrams.total) {
            Ok(t) => t,
            Err(_) => continue, // inconsistent margins cannot happen; skip defensively
        };
        let result = match association_test(&table, cfg.statistic) {
            Ok(r) => r,
            Err(_) => continue, // degenerate table (zero margin)
        };
        let significant = result.significant_at(cfg.alpha);
        if significant {
            detected.insert(first, second);
        }
        outcomes.push(PairTypeOutcome {
            first,
            second,
            joint: f,
            statistic: result.statistic,
            p_value: result.p_value,
            significant,
        });
    }
    (detected, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    /// Store with many sessions in which app 0 always precedes app 1
    /// (caller/callee), while app 2 floats independently through the
    /// sessions.
    fn sessioned_store(n_sessions: usize) -> (LogStore, Vec<SourceId>) {
        let mut store = LogStore::new();
        let s0 = store.registry.source("Caller");
        let s1 = store.registry.source("Callee");
        let s2 = store.registry.source("Floater");
        let user = store.registry.user("u");
        for k in 0..n_sessions {
            let host = store.registry.host(&format!("ws-{k}"));
            let base = (k as i64) * MS_PER_HOUR / 64;
            // Interleaved pattern: floater appears at shifting offsets
            // so it pairs with different neighbours across sessions.
            for round in 0..4i64 {
                let t = base + round * 4_000;
                store.push(
                    LogRecord::minimal(s0, Millis(t))
                        .with_user(user)
                        .with_host(host),
                );
                store.push(
                    LogRecord::minimal(s1, Millis(t + 120))
                        .with_user(user)
                        .with_host(host),
                );
                let float_off = 1_200 + ((k as i64 * 7 + round * 13) % 17) * 150;
                store.push(
                    LogRecord::minimal(s2, Millis(t + float_off))
                        .with_user(user)
                        .with_host(host),
                );
            }
        }
        store.finalize();
        (store, vec![s0, s1, s2])
    }

    fn range() -> TimeRange {
        TimeRange::new(Millis(0), Millis(MS_PER_HOUR))
    }

    #[test]
    fn detects_caller_callee_pair() {
        let (store, s) = sessioned_store(40);
        let res =
            run_l2_pool(&store, range(), &L2Config::default(), &ParConfig::default()).unwrap();
        assert!(
            res.detected.contains(s[0], s[1]),
            "caller/callee pair missed; outcomes: {:?}",
            res.outcomes
        );
        assert!(res.session_stats.n_sessions >= 35);
        assert!(res.bigrams.total > 100);
    }

    #[test]
    fn causal_pair_outranks_concurrency_pair() {
        // In a session the floater trails the causal pair at varying
        // offsets — the very concurrency noise §4.6 blames for L2's
        // false positives. The periodic structure makes *every* ordered
        // type somewhat associated, but the tight caller→callee type
        // must carry (much) more evidence than the floater→caller one.
        let (store, s) = sessioned_store(40);
        let res =
            run_l2_pool(&store, range(), &L2Config::default(), &ParConfig::default()).unwrap();
        // Only *immediately succeeding* logs form bigrams: the callee
        // always intervenes between caller and floater, so the ordered
        // type (Caller → Floater) must never be observed at all, while
        // the causal (Caller → Callee) type is significant.
        assert!(
            !res.outcomes
                .iter()
                .any(|o| o.first == s[0] && o.second == s[2]),
            "caller→floater bigram should not exist"
        );
        let causal = res
            .outcomes
            .iter()
            .find(|o| o.first == s[0] && o.second == s[1])
            .expect("causal type observed");
        assert!(causal.significant);
        // The trailing concurrency types carry fewer joint observations
        // than the causal type (most floater gaps exceed the timeout).
        let noise_joint: u64 = res
            .outcomes
            .iter()
            .filter(|o| o.first == s[2] || o.second == s[2])
            .map(|o| o.joint)
            .sum();
        assert!(
            causal.joint > noise_joint,
            "causal joint {} vs noise joint {noise_joint}",
            causal.joint
        );
    }

    #[test]
    fn timeout_prunes_distant_bigrams() {
        let (store, _) = sessioned_store(30);
        let with_to = run_l2_pool(
            &store,
            range(),
            &L2Config::with_timeout(Some(300)),
            &ParConfig::default(),
        )
        .unwrap();
        let without = run_l2_pool(
            &store,
            range(),
            &L2Config::with_timeout(None),
            &ParConfig::default(),
        )
        .unwrap();
        assert!(
            with_to.bigrams.total < without.bigrams.total,
            "timeout did not drop bigrams ({} vs {})",
            with_to.bigrams.total,
            without.bigrams.total
        );
    }

    #[test]
    fn pearson_variant_runs() {
        let (store, s) = sessioned_store(40);
        let cfg = L2Config {
            statistic: AssociationStatistic::Pearson,
            ..L2Config::default()
        };
        let res = run_l2_pool(&store, range(), &cfg, &ParConfig::default()).unwrap();
        assert!(res.detected.contains(s[0], s[1]));
    }

    #[test]
    fn min_joint_filters_rare_types() {
        let (store, _) = sessioned_store(10);
        let strict = L2Config {
            min_joint: 10_000,
            ..L2Config::default()
        };
        let res = run_l2_pool(&store, range(), &strict, &ParConfig::default()).unwrap();
        assert!(res.detected.is_empty());
        assert!(res.outcomes.is_empty());
    }

    #[test]
    fn empty_range_yields_empty_result() {
        let (store, _) = sessioned_store(5);
        let empty = TimeRange::new(Millis(MS_PER_HOUR * 20), Millis(MS_PER_HOUR * 21));
        let res = run_l2_pool(&store, empty, &L2Config::default(), &ParConfig::default()).unwrap();
        assert!(res.detected.is_empty());
        assert_eq!(res.bigrams.total, 0);
        assert_eq!(res.session_stats.n_sessions, 0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (store, _) = sessioned_store(2);
        let bad = L2Config {
            alpha: 0.0,
            ..L2Config::default()
        };
        assert!(run_l2_pool(&store, range(), &bad, &ParConfig::default()).is_err());
        let bad = L2Config {
            timeout_ms: Some(0),
            ..L2Config::default()
        };
        assert!(run_l2_pool(&store, range(), &bad, &ParConfig::default()).is_err());
    }

    #[test]
    fn deterministic() {
        let (store, _) = sessioned_store(20);
        let a = run_l2_pool(&store, range(), &L2Config::default(), &ParConfig::default()).unwrap();
        let b = run_l2_pool(&store, range(), &L2Config::default(), &ParConfig::default()).unwrap();
        assert_eq!(a.detected, b.detected);
        assert_eq!(a.outcomes, b.outcomes);
    }
}
