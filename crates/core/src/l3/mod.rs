//! Technique L3: analyzing free text against the service directory.
//!
//! §3.3 of the paper. Invocations are almost always logged, and however
//! idiosyncratic the format, "it is extremely likely that some element
//! provided by the directory system is mentioned in the log entry". So
//! instead of parsing invocation logs, L3 scans every message for
//! citations of service-directory identifiers and declares: application
//! `A` depends on service group `S` iff some (non-stopped) log of `A`
//! cites `S`. **Stop patterns** suppress server-side logs that would
//! otherwise invert the dependency direction.

mod algorithm;

pub(crate) use algorithm::{detect, CitationScan};
pub use algorithm::{run_l3_pool, L3Config, L3Result};
