//! End-of-run summaries built from the metrics registry and the trace.
//!
//! A [`RunReport`] reads the well-known metric names the pipeline
//! records (see DESIGN.md §14 for the full table) and renders them as
//! an operator-facing text block or a JSON object. Its only times are
//! span durations, paired from the `wall_us` stamps of an injected
//! clock when the report is built: a run without a clock reports no
//! spans, and its report is as deterministic as its trace.

use crate::event::{escape_into, Event, Phase};
use crate::metrics::MetricsRegistry;
use std::collections::BTreeMap;

/// Per-detector summary row (`detector.<name>.*` metrics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorSummary {
    /// Detector name (`l1`, `l2`, `l3`, `store`).
    pub name: String,
    /// Whether the detector was enabled for the run.
    pub enabled: bool,
    /// Whether it completed without error.
    pub ok: bool,
    /// Dependencies / pairs detected.
    pub detected: u64,
}

/// Begin-to-end wall time of every closed span of one name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSummary {
    /// Span name (`window`, `window.l1`, `daily.step`, …).
    pub name: String,
    /// Spans of this name that closed.
    pub count: u64,
    /// Sum of their `end.wall_us - begin.wall_us`, in microseconds.
    pub total_us: u64,
}

/// Per-layer cache traffic row (`cache.<layer>.hits` / `.misses`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSummary {
    /// Cache layer (`l1`, `l3`).
    pub layer: String,
    /// Evidence-cache hits.
    pub hits: u64,
    /// Evidence-cache misses (recomputations).
    pub misses: u64,
}

impl CacheSummary {
    /// Hit rate in permille (integer, so rendering stays float-free).
    pub fn hit_permille(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }
}

/// Summary of one observed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Detector rows, in the registry's name order.
    pub detectors: Vec<DetectorSummary>,
    /// Cache layers that saw any traffic, in name order.
    pub caches: Vec<CacheSummary>,
    /// Every counter not folded into the rows above, in name order.
    pub counters: Vec<(String, u64)>,
    /// Span durations by name, in name order; empty unless the trace
    /// was stamped by an injected clock.
    pub spans: Vec<SpanSummary>,
    /// Total events emitted to the trace.
    pub events: u64,
    /// True when any enabled detector failed (degraded-mode run).
    pub degraded: bool,
}

/// The detector names the pipeline records metrics under.
const DETECTORS: [&str; 4] = ["l1", "l2", "l3", "store"];

/// The cache layers the windowed pipeline records traffic for.
const CACHE_LAYERS: [&str; 2] = ["l1", "l3"];

/// Pairs each `end` with the innermost open `begin` of the same name —
/// the nesting [`crate::EventSink::check_balanced`] checks — and sums
/// the durations by name. Only events stamped with `wall_us` take
/// part. A `begin` still open when an enclosing span ends, or at the
/// end of the stream, was left open by an error and is not counted; an
/// `end` with no open `begin` of its name is ignored, as are points.
fn pair_spans(events: &[Event]) -> Vec<SpanSummary> {
    let mut open: Vec<(&str, u64)> = Vec::new();
    let mut totals: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for e in events {
        let Some(us) = e.wall_us else { continue };
        match e.phase {
            Phase::Begin => open.push((&e.name, us)),
            Phase::End => {
                let Some(i) = open.iter().rposition(|&(name, _)| name == e.name) else {
                    continue;
                };
                if let Some((_, began)) = open.drain(i..).next() {
                    let (count, total_us) = totals.entry(&e.name).or_default();
                    *count += 1;
                    *total_us = total_us.saturating_add(us.saturating_sub(began));
                }
            }
            Phase::Point => {}
        }
    }
    totals
        .into_iter()
        .map(|(name, (count, total_us))| SpanSummary {
            name: name.to_owned(),
            count,
            total_us,
        })
        .collect()
}

impl RunReport {
    /// Builds a report from a recorded registry and its event stream.
    pub fn new(metrics: &MetricsRegistry, events: &[Event]) -> Self {
        let mut detectors = Vec::new();
        for name in DETECTORS {
            let enabled = metrics.gauge(&format!("detector.{name}.enabled"));
            let ok = metrics.gauge(&format!("detector.{name}.ok"));
            if enabled.is_none() && ok.is_none() {
                continue;
            }
            detectors.push(DetectorSummary {
                name: name.to_owned(),
                enabled: enabled.unwrap_or(0) != 0,
                ok: ok.unwrap_or(0) != 0,
                detected: metrics.counter(&format!("detector.{name}.detected")),
            });
        }
        let mut caches = Vec::new();
        for layer in CACHE_LAYERS {
            let hits = metrics.counter(&format!("cache.{layer}.hits"));
            let misses = metrics.counter(&format!("cache.{layer}.misses"));
            if hits + misses > 0 {
                caches.push(CacheSummary {
                    layer: layer.to_owned(),
                    hits,
                    misses,
                });
            }
        }
        let absorbed = |name: &str| {
            (name.starts_with("detector.") && name.ends_with(".detected"))
                || (name.starts_with("cache.")
                    && (name.ends_with(".hits") || name.ends_with(".misses")))
        };
        let counters = metrics
            .counters()
            .filter(|(name, _)| !absorbed(name))
            .map(|(name, v)| (name.to_owned(), v))
            .collect();
        let degraded = detectors.iter().any(|d| d.enabled && !d.ok);
        Self {
            detectors,
            caches,
            counters,
            spans: pair_spans(events),
            events: events.len() as u64,
            degraded,
        }
    }

    /// Renders the report as an operator-facing text block.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "run report: {} detector(s), {} event(s){}\n",
            self.detectors.len(),
            self.events,
            if self.degraded { ", DEGRADED" } else { "" }
        ));
        for d in &self.detectors {
            let status = match (d.enabled, d.ok) {
                (false, _) => "disabled".to_owned(),
                (true, true) => format!("ok, {} detected", d.detected),
                (true, false) => "FAILED".to_owned(),
            };
            s.push_str(&format!("  detector {}: {status}\n", d.name));
        }
        for c in &self.caches {
            s.push_str(&format!(
                "  cache {}: {} hits, {} misses ({}.{}% hit rate)\n",
                c.layer,
                c.hits,
                c.misses,
                c.hit_permille() / 10,
                c.hit_permille() % 10
            ));
        }
        for (name, v) in &self.counters {
            s.push_str(&format!("  {name}: {v}\n"));
        }
        for sp in &self.spans {
            s.push_str(&format!(
                "  span {}: {} closed, {} us\n",
                sp.name, sp.count, sp.total_us
            ));
        }
        s
    }

    /// Renders the report as one JSON object (hand-rolled — the crate
    /// has no serializer dependency by design).
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"events\":{},", self.events));
        s.push_str(&format!("\"degraded\":{},", self.degraded));
        s.push_str("\"detectors\":[");
        for (i, d) in self.detectors.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":\"");
            escape_into(&d.name, &mut s);
            s.push_str(&format!(
                "\",\"enabled\":{},\"ok\":{},\"detected\":{}}}",
                d.enabled, d.ok, d.detected
            ));
        }
        s.push_str("],\"caches\":[");
        for (i, c) in self.caches.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"layer\":\"");
            escape_into(&c.layer, &mut s);
            s.push_str(&format!(
                "\",\"hits\":{},\"misses\":{},\"hit_permille\":{}}}",
                c.hits,
                c.misses,
                c.hit_permille()
            ));
        }
        s.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            escape_into(name, &mut s);
            s.push_str(&format!("\":{v}"));
        }
        s.push('}');
        if !self.spans.is_empty() {
            s.push_str(",\"spans\":[");
            for (i, sp) in self.spans.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"name\":\"");
                escape_into(&sp.name, &mut s);
                s.push_str(&format!(
                    "\",\"count\":{},\"total_us\":{}}}",
                    sp.count, sp.total_us
                ));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventSink;
    use std::cell::Cell;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.gauge_set("detector.l1.enabled", 1);
        m.gauge_set("detector.l1.ok", 1);
        m.counter_add("detector.l1.detected", 4);
        m.gauge_set("detector.l3.enabled", 1);
        m.gauge_set("detector.l3.ok", 0);
        m.counter_add("cache.l1.hits", 9);
        m.counter_add("cache.l1.misses", 1);
        m.counter_add("durable.steps", 7);
        m
    }

    thread_local! {
        static NOW_US: Cell<u64> = const { Cell::new(0) };
    }

    /// A clock that advances 10 µs per read, so the k-th event of a
    /// sink reads `10 * (k + 1)`.
    fn ticking() -> u64 {
        NOW_US.with(|t| {
            t.set(t.get() + 10);
            t.get()
        })
    }

    fn clocked() -> EventSink {
        NOW_US.with(|t| t.set(0));
        EventSink::with_clock(ticking)
    }

    fn span<'a>(r: &'a RunReport, name: &str) -> Option<&'a SpanSummary> {
        r.spans.iter().find(|s| s.name == name)
    }

    #[test]
    fn report_reads_well_known_names() {
        let mut sink = EventSink::new();
        sink.point("x", &[]);
        let r = RunReport::new(&sample(), sink.events());
        assert_eq!(r.events, 1);
        assert!(r.degraded, "failed l3 must flag the run degraded");
        assert_eq!(r.detectors.len(), 2);
        assert_eq!(r.detectors[0].name, "l1");
        assert_eq!(r.detectors[0].detected, 4);
        assert_eq!(r.caches.len(), 1);
        assert_eq!(r.caches[0].hit_permille(), 900);
        assert_eq!(r.counters, vec![("durable.steps".to_owned(), 7)]);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn text_and_json_render() {
        let r = RunReport::new(&sample(), &[]);
        let text = r.render_text();
        assert!(text.contains("DEGRADED"));
        assert!(text.contains("detector l1: ok, 4 detected\n"));
        assert!(text.contains("cache l1: 9 hits, 1 misses (90.0% hit rate)"));
        assert!(text.contains("durable.steps: 7"));
        assert!(!text.contains("span "));
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"degraded\":true"));
        assert!(json.contains("\"hit_permille\":900"));
        assert!(json.contains("\"detected\":4}"));
        assert!(!json.contains("\"spans\""));
    }

    #[test]
    fn clocked_spans_render_in_text_and_json() {
        let mut sink = clocked();
        sink.span_begin("window", &[]); // 10
        sink.span_end("window", &[]); // 20
        let r = RunReport::new(&MetricsRegistry::new(), sink.events());
        assert!(r.render_text().contains("  span window: 1 closed, 10 us\n"));
        assert!(r
            .render_json()
            .ends_with(",\"spans\":[{\"name\":\"window\",\"count\":1,\"total_us\":10}]}"));
    }

    #[test]
    fn nested_spans_of_one_name_pair_innermost_first() {
        let mut sink = clocked();
        sink.span_begin("a", &[]); // 10
        sink.span_begin("a", &[]); // 20
        sink.span_end("a", &[]); // 30: closes the inner one, 10 us
        sink.span_end("a", &[]); // 40: closes the outer one, 30 us
        let r = RunReport::new(&MetricsRegistry::new(), sink.events());
        let a = span(&r, "a").expect("a paired");
        assert_eq!((a.count, a.total_us), (2, 40));
    }

    #[test]
    fn a_span_left_open_by_an_error_is_not_counted() {
        let mut sink = clocked();
        sink.span_begin("window", &[]); // 10
        sink.span_begin("window.l2", &[]); // 20, never ended
        sink.span_end("window", &[]); // 30
        sink.span_begin("window", &[]); // 40
        sink.span_begin("window.l2", &[]); // 50
        sink.span_end("window.l2", &[]); // 60
        sink.span_end("window", &[]); // 70
        sink.span_begin("daily", &[]); // 80, open at the end of the stream
        let r = RunReport::new(&MetricsRegistry::new(), sink.events());
        let window = span(&r, "window").expect("window paired");
        assert_eq!((window.count, window.total_us), (2, 50));
        let l2 = span(&r, "window.l2").expect("second l2 paired");
        assert_eq!((l2.count, l2.total_us), (1, 10));
        assert!(span(&r, "daily").is_none());
    }

    #[test]
    fn points_and_unmatched_ends_are_ignored() {
        let mut sink = clocked();
        sink.span_end("stray", &[]); // 10
        sink.span_begin("a", &[]); // 20
        sink.point("note", &[]); // 30
        sink.span_end("a", &[]); // 40
        let r = RunReport::new(&MetricsRegistry::new(), sink.events());
        assert_eq!(
            r.spans,
            vec![SpanSummary {
                name: "a".to_owned(),
                count: 1,
                total_us: 20,
            }]
        );
    }

    #[test]
    fn a_sink_without_a_clock_gives_no_spans() {
        let mut sink = EventSink::new();
        sink.span_begin("window", &[]);
        sink.point("note", &[]);
        sink.span_end("window", &[]);
        let r = RunReport::new(&MetricsRegistry::new(), sink.events());
        assert_eq!(r.events, 3);
        assert!(r.spans.is_empty());
        assert!(!r.render_json().contains("spans"));
    }

    #[test]
    fn empty_registry_gives_empty_report() {
        let r = RunReport::new(&MetricsRegistry::new(), &[]);
        assert!(r.detectors.is_empty());
        assert!(r.caches.is_empty());
        assert!(r.spans.is_empty());
        assert!(!r.degraded);
    }
}
