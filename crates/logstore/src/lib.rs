//! Log record model and in-memory log store for dependency mining.
//!
//! This crate is the substrate the mining techniques of Steinle et al.
//! (VLDB 2006) read from. It deliberately mirrors the *minimal* structure
//! the paper assumes of a centralized logging system:
//!
//! * every record identifies its **source** (application/module) and
//!   carries a client-side and a server-side **timestamp** (1 ms
//!   resolution, as at the Geneva University Hospitals);
//! * records *may* identify the **user** and **client machine** at the
//!   origin of the transaction (needed only by technique L2's session
//!   reconstruction);
//! * everything else is **free text** (consumed only by technique L3).
//!
//! The [`store::LogStore`] keeps records sorted by client timestamp, as
//! fixed-width [`StoredRecord`] rows over one text arena, and maintains
//! per-source timestamp indexes so the L1 primitive — distance to the
//! nearest log of another source — is a binary search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod ingest;
pub mod record;
pub mod registry;
pub mod store;
pub mod time;
pub mod timeline;

pub use ingest::{
    load_logs, read_store_resilient, IngestError, IngestPolicy, IngestReport, LoadError,
    WHOLE_CLOCK,
};
pub use record::{LogRecord, Severity, StoreFull, StoredRecord};
pub use registry::{HostId, NameRegistry, SourceId, UserId};
pub use store::LogStore;
pub use time::Millis;
pub use timeline::Timeline;
