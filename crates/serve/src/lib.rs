//! Always-on dependency-model query serving.
//!
//! The paper's landscape *moves*: models mined yesterday are consulted
//! today while tomorrow's window is already being mined (§1, §4.7).
//! This crate turns the mined `PairModel`/`AppServiceModel` snapshots
//! into something that can answer questions without re-running the
//! pipeline:
//!
//! * [`index::ModelIndex`] — an embeddable, immutable query engine over
//!   a sequence of per-day snapshots, with precomputed forward/reverse
//!   adjacency for impact analysis and [`logdep::evolution`] churn
//!   between any two mined days.
//! * [`server`] — a zero-external-dep HTTP/1.1 loopback server on
//!   `std::net::TcpListener` with a bounded `logdep-par` worker pool.
//!   The live index is an `Arc<ModelIndex>` behind an `RwLock`; readers
//!   clone the `Arc` and never block on a reload, and the swap is a
//!   single pointer store, so a response is always computed against
//!   exactly one generation — no torn reads.
//! * [`loader`] — the only module allowed to touch the filesystem at
//!   serve time. Reloads re-ingest the log export, warm the evidence
//!   cache from the durable store, and build a fresh index which the
//!   server swaps in atomically (`blocking-io-in-handler` denies any
//!   other path from a request handler to `fs`/`durable`).
//!
//! Determinism contract: with no injected clock the server performs no
//! wall-clock reads, no environment reads, and no hash-ordered
//! iteration, so every response body is a pure function of (index
//! generation, request) — byte-identical at any worker count. The
//! conformance suite in `tests/tests/serve_conformance.rs` asserts
//! exactly that, across a mid-test hot swap.

pub mod client;
pub mod handlers;
pub mod http;
pub mod index;
pub mod loader;
pub mod server;

pub use client::HttpClient;
pub use index::{DayModels, ModelIndex};
pub use loader::{run_reload, SnapshotSource};
/// The window schedule an index build mines. The alias exists only
/// because the benchmark package names the schedule `IndexPlan`.
pub use logdep::DailyPlan as IndexPlan;
pub use server::{run_server, ServeConfig, Server, ServerHandle};

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Socket setup or I/O failed.
    Io(String),
    /// Snapshot ingest or mining failed during an index build.
    Build(String),
    /// A client-side protocol violation (used by [`client`]).
    Protocol(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "io: {m}"),
            ServeError::Build(m) => write!(f, "build: {m}"),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
