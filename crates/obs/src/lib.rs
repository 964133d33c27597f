//! Deterministic observability for the dependency miner.
//!
//! After the parallel engine (PR 4), the incremental cache (PR 5) and
//! crash-safe resume (PR 7), the pipeline had no way to show its work:
//! no counters, no stage timings, no machine-readable event stream.
//! This crate supplies all three without touching the workspace's two
//! hardest invariants:
//!
//! * **Determinism** — events carry logical sequence numbers, never
//!   timestamps, so a trace is byte-identical across runs and across
//!   `LOGDEP_THREADS` widths. The crate itself contains no wall-clock
//!   read at all; a caller that truly wants timestamps must inject a
//!   clock function explicitly (the CLI's `--wall-clock` flag). Stage
//!   timings are then paired from those stamps, span begin to span
//!   end, when the [`RunReport`] is built — the injected clock is the
//!   only clock the pipeline has.
//! * **Zero dependencies** — JSON lines are rendered by hand, like the
//!   worker pool in `logdep-par` is hand-rolled over `std::thread`.
//!
//! Instrumentation reaches the pipeline through a thread-local
//! [`Recorder`] installed with [`set_recorder`] and drained with
//! [`take_recorder`]; library code calls [`record`], which is a no-op
//! when no recorder is installed, so uninstrumented runs pay one
//! thread-local probe per site and no signature anywhere changes.
//! Orchestration functions only ever emit from the thread that
//! installed the recorder — worker threads see no recorder and record
//! nothing — which is what keeps the stream identical at any width.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod report;

pub use event::{Event, EventSink, Field, Phase};
pub use metrics::{Histogram, MetricsRegistry, BUCKET_BOUNDS_US, N_BUCKETS};
pub use report::{CacheSummary, DetectorSummary, RunReport, SpanSummary};

use std::cell::RefCell;

/// A trace sink and a metrics registry, recorded together.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The structured event stream.
    pub sink: EventSink,
    /// The named counters / gauges / histograms.
    pub metrics: MetricsRegistry,
}

impl Recorder {
    /// A recorder with no clock: fully deterministic output.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder whose events are stamped with `clock()` micros.
    ///
    /// This deliberately breaks trace byte-identity; only an explicit
    /// operator request (`--wall-clock`) should ever construct one.
    pub fn with_clock(clock: fn() -> u64) -> Self {
        Self {
            sink: EventSink::with_clock(clock),
            metrics: MetricsRegistry::new(),
        }
    }

    /// Emits a span-opening event.
    pub fn span_begin(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.sink.span_begin(name, fields);
    }

    /// Emits a span-closing event.
    pub fn span_end(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.sink.span_end(name, fields);
    }

    /// Emits a standalone point event.
    pub fn point(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.sink.point(name, fields);
    }

    /// Adds to a named counter.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
    }

    /// Sets a named gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.metrics.gauge_set(name, value);
    }

    /// Summarizes the recorded run.
    pub fn report(&self) -> RunReport {
        RunReport::new(&self.metrics, self.sink.events())
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs a recorder on the current thread, returning any recorder
/// that was already installed.
pub fn set_recorder(recorder: Recorder) -> Option<Recorder> {
    RECORDER.with(|slot| slot.borrow_mut().replace(recorder))
}

/// Removes and returns the current thread's recorder, if any.
pub fn take_recorder() -> Option<Recorder> {
    RECORDER.with(|slot| slot.borrow_mut().take())
}

/// True when a recorder is installed on the current thread.
pub fn is_recording() -> bool {
    RECORDER.with(|slot| slot.borrow().is_some())
}

/// Runs `f` against the current thread's recorder; a no-op when none
/// is installed. This is the single hook library code calls, so an
/// uninstrumented run costs one thread-local probe per site.
pub fn record<F: FnOnce(&mut Recorder)>(f: F) {
    RECORDER.with(|slot| {
        if let Some(recorder) = slot.borrow_mut().as_mut() {
            f(recorder);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_noop_without_recorder() {
        assert!(take_recorder().is_none());
        assert!(!is_recording());
        let mut ran = false;
        record(|_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn install_record_drain() {
        assert!(set_recorder(Recorder::new()).is_none());
        assert!(is_recording());
        record(|r| {
            r.span_begin("pipeline", &[("day", Field::from(0i64))]);
            r.counter_add("cache.l1.hits", 3);
            r.span_end("pipeline", &[]);
        });
        let rec = take_recorder().expect("recorder installed above");
        assert!(!is_recording());
        assert_eq!(rec.sink.len(), 2);
        assert_eq!(rec.metrics.counter("cache.l1.hits"), 3);
        assert!(rec.sink.check_balanced().is_ok());
    }

    #[test]
    fn report_counts_events() {
        let mut rec = Recorder::new();
        rec.point("x", &[]);
        rec.gauge_set("detector.l1.enabled", 1);
        rec.gauge_set("detector.l1.ok", 1);
        let report = rec.report();
        assert_eq!(report.events, 1);
        assert_eq!(report.detectors.len(), 1);
    }
}
