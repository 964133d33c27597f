//! Stop patterns: glob filters that suppress misleading logs.
//!
//! §3.3 of the paper: a call from client `C` to server `S` is often
//! logged *by both sides*; the server-side log cites the service group it
//! itself belongs to, which — read naively — inverts the dependency
//! direction. Stop patterns describe those server-side log shapes; any
//! log matching one is ignored by technique L3. The paper uses 10 stop
//! patterns and reports that without them, inverted dependencies rise
//! from 2 to 24 (§4.8).
//!
//! Patterns are globs over the whole message: `*` matches any byte
//! sequence (including empty), `?` any single byte. Matching is ASCII
//! case-insensitive, consistent with the citation matcher.
//!
//! A set compiles into the dense automaton of [`crate::aho`]: the literal
//! pieces of every glob share one table, and a glob is tried only on a
//! message that holds all of its pieces. L3 attaches the same globs to
//! its directory-id [`Matcher`] so one pass over a
//! message both filters and cites.

use crate::aho::{MatcherBuilder, Scan, ScanScratch};
use crate::Matcher;

/// A compiled set of stop patterns.
#[derive(Debug, Clone)]
pub struct StopPatterns {
    /// Lower-cased globs, in insertion order.
    patterns: Vec<String>,
    /// The globs' automaton, with no ids.
    kernel: Matcher,
}

impl Default for StopPatterns {
    fn default() -> Self {
        Self::compile(Vec::new())
    }
}

impl StopPatterns {
    /// Creates an empty set (nothing is stopped).
    pub fn none() -> Self {
        Self::default()
    }

    /// Compiles a set of glob patterns.
    pub fn new<S: AsRef<str>>(patterns: impl IntoIterator<Item = S>) -> Self {
        Self::compile(
            patterns
                .into_iter()
                .map(|p| p.as_ref().to_ascii_lowercase())
                .collect(),
        )
    }

    fn compile(patterns: Vec<String>) -> Self {
        let kernel = MatcherBuilder::for_globs(&patterns).build();
        Self { patterns, kernel }
    }

    /// Adds one more pattern (and recompiles the set).
    pub fn add(&mut self, pattern: &str) {
        let mut patterns = std::mem::take(&mut self.patterns);
        patterns.push(pattern.to_ascii_lowercase());
        *self = Self::compile(patterns);
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The lower-cased globs, in insertion order.
    pub(crate) fn patterns(&self) -> &[String] {
        &self.patterns
    }

    /// True when `text` matches at least one stop pattern (the log
    /// should then be ignored by the citation scan).
    pub fn matches(&self, text: &str) -> bool {
        self.kernel.scan(text, &mut ScanScratch::default()) == Scan::Stopped
    }
}

/// One lower-cased glob.
#[derive(Debug, Clone)]
pub(crate) struct Glob {
    pattern: Vec<u8>,
}

impl Glob {
    /// Compiles `pattern`, folding it to lower case.
    pub(crate) fn new(pattern: &str) -> Self {
        Self {
            pattern: pattern.bytes().map(|b| b.to_ascii_lowercase()).collect(),
        }
    }

    /// The literal pieces: the maximal runs between wildcards. A message
    /// the glob matches holds every one of them.
    pub(crate) fn pieces(&self) -> impl Iterator<Item = &[u8]> {
        self.pattern
            .split(|&b| b == b'*' || b == b'?')
            .filter(|piece| !piece.is_empty())
    }

    /// True for `*piece*`: one literal piece, free on both sides, so any
    /// message that holds the piece matches.
    pub(crate) fn is_one_floating_piece(&self) -> bool {
        self.pattern.starts_with(b"*")
            && self.pattern.ends_with(b"*")
            && !self.pattern.contains(&b'?')
            && self.pieces().count() == 1
    }

    /// Exact glob semantics over the whole of `text`, ASCII
    /// case-insensitive. The `*`-free segments are placed greedily: the
    /// first at the start, the last at the end, each one between at its
    /// leftmost fit after the one before. Leftmost is never worse for
    /// the segments still to place, so no backtracking is needed.
    pub(crate) fn matches(&self, text: &[u8]) -> bool {
        let mut segments = self.pattern.split(|&b| b == b'*');
        let first = segments.next().unwrap_or_default();
        let Some(last) = segments.next_back() else {
            return segment_eq(first, text);
        };
        let Some(middle_len) = text.len().checked_sub(first.len() + last.len()) else {
            return false;
        };
        let (head, rest) = text.split_at(first.len());
        let (mut middle, tail) = rest.split_at(middle_len);
        if !segment_eq(first, head) || !segment_eq(last, tail) {
            return false;
        }
        for segment in segments.filter(|s| !s.is_empty()) {
            let Some(at) = middle
                .windows(segment.len())
                .position(|w| segment_eq(segment, w))
            else {
                return false;
            };
            middle = middle.get(at + segment.len()..).unwrap_or_default();
        }
        true
    }
}

/// `text` has the length of `segment` and matches it byte by byte, `?`
/// matching any byte.
fn segment_eq(segment: &[u8], text: &[u8]) -> bool {
    segment.len() == text.len()
        && segment
            .iter()
            .zip(text)
            .all(|(&p, &t)| p == b'?' || p == t.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_patterns() {
        let s = StopPatterns::new(["exact message"]);
        assert!(s.matches("exact message"));
        assert!(s.matches("EXACT Message"), "case-insensitive");
        assert!(!s.matches("exact message!"), "whole-text match");
        assert!(!s.matches("prefix exact message"));
    }

    #[test]
    fn star_wildcards() {
        let s = StopPatterns::new(["received call*", "*session opened by*"]);
        assert!(s.matches("Received call from client 10.0.0.3"));
        assert!(s.matches("received call"));
        assert!(s.matches("[srv] session opened by alice at 9:00"));
        assert!(!s.matches("calling out"));
    }

    #[test]
    fn question_mark_single_byte() {
        let s = StopPatterns::new(["worker-? started"]);
        assert!(s.matches("worker-3 started"));
        assert!(!s.matches("worker-42 started"));
        assert!(!s.matches("worker- started"));
    }

    #[test]
    fn multiple_stars_backtrack() {
        let s = StopPatterns::new(["*incoming*request*"]);
        assert!(s.matches("2005-12-06 incoming SOAP request id=7"));
        assert!(s.matches("incomingrequest"));
        assert!(!s.matches("request incoming")); // order matters
    }

    #[test]
    fn pathological_star_runs_terminate() {
        let s = StopPatterns::new(["*a*a*a*a*a*a*a*a*b"]);
        let text = "a".repeat(200);
        assert!(!s.matches(&text));
        let good = format!("{}b", "a".repeat(200));
        assert!(s.matches(&good));
    }

    #[test]
    fn empty_pattern_and_empty_text() {
        let s = StopPatterns::new([""]);
        assert!(s.matches(""));
        assert!(!s.matches("x"));
        let star = StopPatterns::new(["*"]);
        assert!(star.matches(""));
        assert!(star.matches("anything at all"));
    }

    #[test]
    fn empty_set_stops_nothing() {
        let s = StopPatterns::none();
        assert!(s.is_empty());
        assert!(!s.matches("served request for DPINOTIFICATION"));
    }

    #[test]
    fn add_and_len() {
        let mut s = StopPatterns::none();
        s.add("Serving *");
        s.add("*handled locally");
        assert_eq!(s.len(), 2);
        assert!(s.matches("serving /notify for client 7"));
        assert!(s.matches("req #88 handled locally"));
    }

    #[test]
    fn realistic_server_side_patterns() {
        // The shapes the HUG-style simulator emits for callee-side logs.
        let s = StopPatterns::new([
            "serving request*",
            "*incoming invocation*",
            "*request received from*",
        ]);
        assert!(s.matches("Serving request [fct [notify] group [DPINOTIFICATION]] for DPIFormidoc"));
        assert!(s.matches("trace: incoming invocation of publish()"));
        assert!(!s.matches("Invoke externalService [fct [notify] server [myserver.hcuge.ch]]"));
    }
}
