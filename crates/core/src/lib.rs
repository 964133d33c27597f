//! # logdep — log-based dependency model generation
//!
//! A complete implementation of the three log-mining techniques of
//! Steinle, Aberer, Girdzijauskas & Lovis, *"Mapping Moving Landscapes
//! by Mining Mountains of Logs: Novel Techniques for Dependency Model
//! Generation"* (VLDB 2006), together with the paper's evaluation
//! harness.
//!
//! Distributed systems fail through their interactions; root-cause
//! analysis needs a dependency model; in a moving landscape nobody can
//! maintain one by hand. The paper's answer — and this library's — is
//! to mine the centralized log stream, with three techniques trading
//! generality against precision:
//!
//! | Technique | Information used | Module |
//! |---|---|---|
//! | **L1** | source + timestamp only (logs as activity measure) | [`l1`] |
//! | **L2** | + user/machine context (co-occurrence in sessions) | [`l2`] |
//! | **L3** | + free text and the service directory (citations) | [`l3`] |
//!
//! All three produce a [`model::PairModel`] or [`model::AppServiceModel`]
//! that [`model::diff_pairs`] / [`model::diff_app_service`] compare
//! against a reference, and [`eval`] reproduces every experiment of the
//! paper's §4 (daily precision, the timeout study, the load study).
//!
//! Beyond the paper's published pipeline, the §5 improvement sketches
//! are implemented ([`l2::detect_directions`], [`l2::delay_profiles`],
//! [`l1::adaptive_slots`], [`l1::ReferenceProcess::LoadProportional`]),
//! and [`graph`] / [`evolution`] provide the downstream applications
//! the paper motivates the models with: impact prediction, root-cause
//! candidate ranking, availability criticality, and change tracking of
//! the moving landscape.
//!
//! ## Quick start
//!
//! ```
//! use logdep::l3::{run_l3, L3Config};
//! use logdep_logstore::{LogRecord, LogStore, Millis};
//! use logdep_logstore::time::TimeRange;
//!
//! // A two-line log "file": AppA invokes the DPINOTIFICATION group.
//! let mut store = LogStore::new();
//! let app = store.registry.source("AppA");
//! store.push(LogRecord::minimal(app, Millis(0))
//!     .with_text("(DPINOTIFICATION) notify( $params )"));
//! store.finalize();
//!
//! let ids = vec!["DPINOTIFICATION".to_owned()];
//! let res = run_l3(
//!     &store,
//!     TimeRange::new(Millis(0), Millis(1_000)),
//!     &ids,
//!     &L3Config::default(),
//! ).unwrap();
//! assert!(res.detected.contains(app, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod cache;
pub mod durable;
pub mod ensemble;
pub mod error;
pub mod eval;
pub mod evolution;
pub mod graph;
pub mod health;
pub mod l1;
pub mod l2;
pub mod l3;
pub mod model;
pub mod window;

pub use cache::{run_l1_cached, run_l1_slots_cached, CacheStats, EvidenceCache, EvidenceKey};
pub use durable::{
    open_read_only, persist_atomic, plan_signature, repair_store, run_daily_durable, verify_store,
    DailyPlan, DailyReport, DurableError, DurableOp, DurableStore, NoopPolicy, RecoveryEvent,
    StoreReport, WriteDecision, WritePolicy,
};
pub use error::{MineError, Result};
pub use graph::DependencyGraph;
pub use health::{run_pipeline, DetectorHealth, DetectorKind, PipelineConfig, PipelineOutcome};
pub use model::{diff_app_service, diff_pairs, AppServiceModel, Diff, PairModel};
pub use window::{
    run_l2_windowed_cached, run_l3_windowed_cached, run_window_cached, WindowOutcome,
};

// Re-export the substrate crates under predictable names so downstream
// users need only one dependency.
pub use logdep_logstore as logstore;
pub use logdep_obs as obs;
pub use logdep_par as par;
pub use logdep_sessions as sessions;
pub use logdep_stats as stats;
pub use logdep_textmatch as textmatch;
