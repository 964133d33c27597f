//! Error type for the mining pipeline.

use crate::health::DetectorKind;
use logdep_stats::StatsError;
use std::fmt;

/// Errors surfaced by the mining techniques and the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub enum MineError {
    /// A statistical routine failed (degenerate input, bad level, ...).
    Stats(StatsError),
    /// A configuration value was invalid.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Human-readable complaint.
        reason: String,
    },
    /// A name could not be resolved against the log store's registry.
    UnknownName(String),
    /// The experiment had no data to work on (empty range, no sessions).
    NoData(&'static str),
    /// A detector the evaluation needs failed on the driver; `error`
    /// is its health row's message.
    DetectorFailed {
        /// The failed detector.
        detector: DetectorKind,
        /// Why it failed.
        error: String,
    },
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::Stats(e) => write!(f, "statistics error: {e}"),
            MineError::InvalidConfig { name, reason } => {
                write!(f, "invalid config {name}: {reason}")
            }
            MineError::UnknownName(n) => write!(f, "unknown name: {n:?}"),
            MineError::NoData(what) => write!(f, "no data for {what}"),
            MineError::DetectorFailed { detector, error } => {
                write!(f, "detector {detector} failed: {error}")
            }
        }
    }
}

impl std::error::Error for MineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MineError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for MineError {
    fn from(e: StatsError) -> Self {
        MineError::Stats(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MineError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MineError::from(StatsError::EmptySample);
        assert!(e.to_string().contains("empty sample"));
        assert!(std::error::Error::source(&e).is_some());

        let e = MineError::UnknownName("AppX".into());
        assert!(e.to_string().contains("AppX"));
        assert!(std::error::Error::source(&e).is_none());

        let e = MineError::InvalidConfig {
            name: "th_pr",
            reason: "must lie in (0,1]".into(),
        };
        assert!(e.to_string().contains("th_pr"));
        assert!(MineError::NoData("sessions")
            .to_string()
            .contains("sessions"));
    }
}
