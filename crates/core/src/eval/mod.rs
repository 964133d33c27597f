//! The evaluation harness of §4 of the paper.
//!
//! * [`daily`] — per-day runs of the enabled techniques on the
//!   one mining driver, diffed against a reference model, with
//!   cross-day order-statistics confidence intervals (Figures 5, 6, 8);
//! * [`timeout`] — the timeout-influence study (Figure 7, Table 2);
//! * [`load`] — the system-load study validating L1/L2 against L3 as a
//!   dynamic oracle (Figure 9).

pub mod daily;
pub mod load;
pub mod timeout;

pub use daily::{daily_series, DailyOutcome, DailyRun, DailySeries};
pub use load::{load_experiment, HourPoint, LoadConfig, LoadExperiment};
pub use timeout::{timeout_study, TimeoutRow, TimeoutStudy};
