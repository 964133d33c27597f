//! Spans the benchmark records around each public call into a layer:
//! name, start, end and parent, kept in memory and written as JSON lines
//! when the run ends. Each span also feeds a per-layer sample list, which
//! becomes the traced run's per-layer metrics.

use crate::stats::{median, tail_percentile};
use crate::{Metric, Outcome, Tally, LAYERS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct SpanRec {
    name: &'static str,
    unit: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// The in-memory span log plus per-layer samples.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records the span `name` over `[start, end]` and returns its id.
    /// `unit` ("ms" or "us") is the unit its layer sample is kept in.
    pub fn span(
        &mut self,
        name: &'static str,
        unit: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start_us, end_us) = (self.offset_us(start), self.offset_us(end));
        self.spans.push(SpanRec {
            name,
            unit,
            start_us,
            end_us,
            parent,
        });
        let id = self.spans.len() - 1;
        self.sample(name, unit, self.span_in_unit(id, unit));
        id
    }

    /// Starts a span whose end is not known yet; see [`Self::close_span`].
    pub fn open_span(
        &mut self,
        name: &'static str,
        unit: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let now = self.offset_us(Instant::now());
        self.spans.push(SpanRec {
            name,
            unit,
            start_us: now,
            end_us: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Ends a span begun with [`Self::open_span`] and samples its layer.
    pub fn close_span(&mut self, id: usize) {
        let now = self.offset_us(Instant::now());
        let Some(s) = self.spans.get_mut(id) else {
            return;
        };
        s.end_us = now;
        let (name, unit) = (s.name, s.unit);
        self.sample(name, unit, self.span_in_unit(id, unit));
    }

    fn span_in_unit(&self, id: usize, unit: &str) -> f64 {
        self.span_ms(id) * if unit == "us" { 1e3 } else { 1.0 }
    }

    /// Duration of span `id` in milliseconds.
    pub fn span_ms(&self, id: usize) -> f64 {
        self.spans
            .get(id)
            .map_or(0.0, |s| (s.end_us - s.start_us) / 1e3)
    }

    /// The share of span `root` that its direct children account for.
    /// The children in `excluded` are left out of both sides: the other
    /// children's time over the root's time less theirs. Time inside
    /// `root` that no child span covers lowers it.
    pub fn coverage(&self, root: usize, excluded: &[usize]) -> f64 {
        let (mut covered, mut left_out) = (0.0, 0.0);
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent == Some(root) {
                if excluded.contains(&id) {
                    left_out += self.span_ms(id);
                } else {
                    covered += self.span_ms(id);
                }
            }
        }
        let whole = self.span_ms(root) - left_out;
        if whole > 0.0 {
            covered / whole
        } else {
            0.0
        }
    }

    /// Adds one sample to a layer metric that is not a span (a count,
    /// a byte size, a ratio).
    pub fn sample(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.samples
            .entry(name)
            .or_insert_with(|| (unit, Vec::new()))
            .1
            .push(value);
    }

    /// The samples of one layer metric (empty when never recorded).
    pub fn values(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], |(_, v)| v.as_slice())
    }

    /// One metric per layer: its median per operation, with the count.
    /// A `.p50`/`.p99` suffix reads that percentile of the layer named
    /// without it (0 when the sample does not support it).
    fn layer_metric(&self, name: &'static str, unit: &'static str) -> Metric {
        let (values, value) = if let Some(base) = name.strip_suffix(".p99") {
            let v = self.values(base);
            (v, tail_percentile(v, 99.0))
        } else {
            let v = self.values(name.strip_suffix(".p50").unwrap_or(name));
            (v, median(v))
        };
        Metric {
            name,
            unit,
            value: value.unwrap_or(0.0),
            samples: values.len(),
        }
    }

    /// Ends a traced run: checks that the trace explains it — layer self
    /// times cover at least 90% of every traced operation, and the shadow
    /// L1+L2+L3 pass is within 15% (median) of the mining interval it
    /// mirrors — writes the spans to `path`, and returns the per-layer
    /// metrics. `overrides` supplies the metrics that are not span
    /// medians.
    pub fn finish(
        self,
        path: &Path,
        overrides: &[Metric],
        mut tally: Tally,
        info: Vec<Metric>,
        mut extra: Vec<(&'static str, Value)>,
    ) -> Result<Outcome, String> {
        let coverage_min = self
            .values("trace.coverage")
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        tally.check(coverage_min >= 0.9, || {
            format!("layer self times cover only {coverage_min:.3} of a traced operation")
        });
        let shadow = median(self.values("trace.shadow_ratio")).unwrap_or(0.0);
        tally.check((shadow - 1.0).abs() <= 0.15, || {
            format!("shadow L1+L2+L3 takes {shadow:.3} of the mining interval it mirrors")
        });
        self.write_span_lines(path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        extra.extend([
            ("coverage_min", Value::F64(coverage_min)),
            ("shadow_ratio_median", Value::F64(shadow)),
            ("spans", Value::Str(path.display().to_string())),
        ]);
        let metrics = LAYERS
            .iter()
            .map(|(name, unit)| {
                overrides
                    .iter()
                    .find(|m| m.name == *name)
                    .copied()
                    .unwrap_or_else(|| self.layer_metric(name, unit))
            })
            .collect();
        Ok(Outcome {
            tally,
            metrics,
            info,
            extra,
            layers: Some(self.summary()),
        })
    }

    /// Count, p50, p99 (when supported) and total of every layer, for
    /// `traced.json`.
    fn summary(&self) -> Value {
        Value::Object(
            self.samples
                .iter()
                .map(|(name, (unit, v))| {
                    let p99 = tail_percentile(v, 99.0).map_or(Value::Null, Value::F64);
                    let fields = vec![
                        ("unit".to_owned(), Value::Str((*unit).to_owned())),
                        ("count".to_owned(), Value::U64(v.len() as u64)),
                        ("p50".to_owned(), Value::F64(median(v).unwrap_or(0.0))),
                        ("p99".to_owned(), p99),
                        ("total".to_owned(), Value::F64(v.iter().sum())),
                    ];
                    ((*name).to_owned(), Value::Object(fields))
                })
                .collect(),
        )
    }

    /// Writes every span as one JSON line: name, start, end, parent.
    fn write_span_lines(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Coverage is measured against the enclosing span: a gap no layer
    /// accounts for lowers it, an excluded child leaves both sides.
    #[test]
    fn coverage_counts_gaps_against_the_root() {
        let mut tr = Tracer::new();
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let root = tr.span("night", "ms", at(0), at(100), None);
        tr.span("a", "ms", at(0), at(40), Some(root));
        let skipped = tr.span("shadow", "ms", at(40), at(60), Some(root));
        tr.span("b", "ms", at(60), at(90), Some(root));
        tr.span("nested", "ms", at(45), at(55), Some(skipped));
        let c = tr.coverage(root, &[skipped]);
        assert!((c - 70.0 / 80.0).abs() < 1e-9, "coverage {c}");
        assert!((tr.coverage(root, &[]) - 0.9).abs() < 1e-9);
        assert!((tr.coverage(skipped, &[]) - 0.5).abs() < 1e-9);
    }
}
