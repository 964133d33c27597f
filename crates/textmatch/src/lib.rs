//! Multi-pattern text scanning for free-text log analysis.
//!
//! Technique L3 of Steinle et al. (VLDB 2006) scans the unstructured part
//! of every log message for *citations of service-directory entries* —
//! identifiers like `DPINOTIFICATION` — and suppresses server-side logs
//! with *stop patterns*. This crate supplies both primitives, built from
//! scratch:
//!
//! * [`aho`] — an Aho–Corasick automaton with a dense, case-folded
//!   transition table. It holds the directory identifiers and the literal
//!   pieces of the stop globs together, so [`Matcher::scan`] filters and
//!   cites in a single pass per message, with optional whole-word
//!   filtering (so `UPSRV` does not fire inside `UPSRV2`);
//! * [`stop`] — `*`/`?` glob stop patterns applied to the whole message;
//! * [`templates`] — SLCT-style message clustering (Vaarandi), the
//!   preprocessing step §5 of the paper suggests for sharpening the
//!   miners and for discovering stop-pattern shapes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aho;
pub mod stop;
pub mod templates;

pub use aho::{Match, MatchMode, Matcher, MatcherBuilder, Scan, ScanScratch};
pub use stop::StopPatterns;
pub use templates::{cluster, ClusterConfig, Template};
