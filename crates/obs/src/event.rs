//! Structured span events with logical sequence numbers.
//!
//! The trace is the observability contract: every event carries a
//! logical sequence number assigned at emission, never a timestamp, so
//! two runs of the same pipeline produce byte-identical streams at any
//! thread width. Wall-clock microseconds appear only when the caller
//! injects a clock explicitly (the CLI's `--wall-clock` flag) and are
//! understood to break byte-identity for that run alone.

/// A field value attached to an event.
///
/// Only integers, strings and booleans — no floats — so the JSON
/// rendering is trivially deterministic and never subject to shortest
/// round-trip formatting drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Field {
    /// An unsigned count (hits, misses, detected pairs, …).
    U64(u64),
    /// A signed quantity (day indices, window bounds in ms).
    I64(i64),
    /// A short label (event codes, detector names).
    Str(String),
    /// A flag (enabled, ok, resume).
    Bool(bool),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_owned())
    }
}

impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}

impl Field {
    /// Renders the value as a JSON literal.
    fn render(&self, out: &mut String) {
        match self {
            Field::U64(v) => out.push_str(&v.to_string()),
            Field::I64(v) => out.push_str(&v.to_string()),
            Field::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Field::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opens a span.
    Begin,
    /// Closes the innermost open span of the same name.
    End,
    /// A standalone instantaneous event.
    Point,
}

impl Phase {
    /// The phase's wire name (the `"ev"` JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Begin => "begin",
            Phase::End => "end",
            Phase::Point => "point",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Logical sequence number, assigned in emission order from 0.
    pub seq: u64,
    /// Begin / end / point.
    pub phase: Phase,
    /// Dotted event name (`window`, `detector.l1`, `daily.step`, …).
    pub name: String,
    /// Ordered key/value payload; order is the emission order.
    pub fields: Vec<(String, Field)>,
    /// Wall-clock microseconds, present only under an injected clock.
    pub wall_us: Option<u64>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    ///
    /// Key order is fixed — `seq`, `ev`, `name`, then payload fields in
    /// emission order, then `wall_us` if present — so the line is a
    /// deterministic function of the event alone.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"ev\":\"");
        s.push_str(self.phase.name());
        s.push_str("\",\"name\":\"");
        escape_into(&self.name, &mut s);
        s.push('"');
        for (k, v) in &self.fields {
            s.push_str(",\"");
            escape_into(k, &mut s);
            s.push_str("\":");
            v.render(&mut s);
        }
        if let Some(us) = self.wall_us {
            s.push_str(",\"wall_us\":");
            s.push_str(&us.to_string());
        }
        s.push('}');
        s
    }
}

/// An ordered stream of events with monotonically increasing logical
/// sequence numbers.
#[derive(Debug, Default)]
pub struct EventSink {
    events: Vec<Event>,
    next_seq: u64,
    clock: Option<fn() -> u64>,
}

impl EventSink {
    /// An empty sink with no clock: events carry sequence numbers only.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sink that stamps every event with `clock()` micros.
    ///
    /// Injecting a clock makes the stream non-reproducible; only the
    /// CLI's explicit `--wall-clock` flag should ever supply one.
    pub fn with_clock(clock: fn() -> u64) -> Self {
        Self {
            clock: Some(clock),
            ..Self::default()
        }
    }

    fn push(&mut self, phase: Phase, name: &str, fields: &[(&str, Field)]) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event {
            seq,
            phase,
            name: name.to_owned(),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
            wall_us: self.clock.map(|c| c()),
        });
    }

    /// Emits a span-opening event.
    pub fn span_begin(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.push(Phase::Begin, name, fields);
    }

    /// Emits a span-closing event.
    pub fn span_end(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.push(Phase::End, name, fields);
    }

    /// Emits a standalone point event.
    pub fn point(&mut self, name: &str, fields: &[(&str, Field)]) {
        self.push(Phase::Point, name, fields);
    }

    /// All events emitted so far, in sequence order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events emitted.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the whole stream as JSON lines (one event per line,
    /// trailing newline after the last event when non-empty).
    pub fn render_jsonl(&self) -> String {
        let mut s = String::new();
        for e in &self.events {
            s.push_str(&e.to_json_line());
            s.push('\n');
        }
        s
    }

    /// Checks that begin/end events nest and balance: every `end`
    /// closes the innermost open `begin` of the same name and nothing
    /// is left open at the end of the stream.
    pub fn check_balanced(&self) -> Result<(), String> {
        let mut stack: Vec<&str> = Vec::new();
        for e in &self.events {
            match e.phase {
                Phase::Begin => stack.push(&e.name),
                Phase::End => match stack.pop() {
                    Some(open) if open == e.name => {}
                    Some(open) => {
                        return Err(format!(
                            "seq {}: end of {:?} closes open span {:?}",
                            e.seq, e.name, open
                        ));
                    }
                    None => {
                        return Err(format!(
                            "seq {}: end of {:?} with no open span",
                            e.seq, e.name
                        ));
                    }
                },
                Phase::Point => {}
            }
        }
        if let Some(open) = stack.pop() {
            return Err(format!("span {open:?} still open at end of stream"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_stable_and_escaped() {
        let mut sink = EventSink::new();
        sink.span_begin("pipeline", &[("day", Field::from(3i64))]);
        sink.point("note", &[("msg", Field::from("a\"b\\c\nd"))]);
        sink.span_end("pipeline", &[("ok", Field::from(true))]);
        assert_eq!(
            sink.render_jsonl(),
            "{\"seq\":0,\"ev\":\"begin\",\"name\":\"pipeline\",\"day\":3}\n\
             {\"seq\":1,\"ev\":\"point\",\"name\":\"note\",\"msg\":\"a\\\"b\\\\c\\nd\"}\n\
             {\"seq\":2,\"ev\":\"end\",\"name\":\"pipeline\",\"ok\":true}\n"
        );
        assert!(sink.check_balanced().is_ok());
    }

    #[test]
    fn imbalance_is_detected() {
        let mut sink = EventSink::new();
        sink.span_begin("a", &[]);
        sink.span_begin("b", &[]);
        sink.span_end("a", &[]);
        assert!(sink.check_balanced().is_err());

        let mut sink = EventSink::new();
        sink.span_end("a", &[]);
        assert!(sink.check_balanced().is_err());

        let mut sink = EventSink::new();
        sink.span_begin("a", &[]);
        assert!(sink.check_balanced().is_err());
    }

    #[test]
    fn no_clock_means_no_wall_us() {
        let mut sink = EventSink::new();
        sink.point("x", &[]);
        assert_eq!(sink.events()[0].wall_us, None);
        assert!(!sink.events()[0].to_json_line().contains("wall_us"));
    }

    #[test]
    fn injected_clock_stamps_events() {
        fn fixed() -> u64 {
            42
        }
        let mut sink = EventSink::with_clock(fixed);
        sink.point("x", &[]);
        assert_eq!(sink.events()[0].wall_us, Some(42));
        assert!(sink.events()[0]
            .to_json_line()
            .ends_with(",\"wall_us\":42}"));
    }
}
