//! Technique L2: co-occurrence statistics on user sessions.
//!
//! §3.2 of the paper. Sessions (from `logdep-sessions`) are treated as
//! ordered sequences of activity statements. All pairs of immediately
//! succeeding logs become *bigrams* — dropping same-source pairs and,
//! with a finite **timeout**, pairs separated by a longer gap. Each
//! observed ordered pair type gets a 2×2 contingency table over all
//! bigrams, tested for (positive) association with Dunning's
//! log-likelihood statistic following Evert's UCS methodology.
//!
//! Two of the paper's §5 improvement directions are implemented on
//! top: [`detect_directions`] infers *who calls whom* from burst-lead
//! counts, and [`delay_profiles`] separates causal from concurrency
//! co-occurrence by testing bigram delays for a typical latency.

mod algorithm;
mod bigrams;
mod delays;
mod direction;

pub use algorithm::{run_l2_pool, L2Config, L2Result, PairTypeOutcome};
pub use bigrams::{extract_bigrams, extract_bigrams_pool, merge_counts, BigramCounts};
pub use delays::{delay_profiles, DelayConfig, DelayProfile};
pub use direction::{detect_directions, DirectionConfig, DirectionOutcome};
