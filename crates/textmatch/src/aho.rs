//! A from-scratch Aho–Corasick automaton with a dense, case-folded
//! transition table: the one-pass text kernel of technique L3.
//!
//! One automaton holds every pattern: the directory ids and, when a
//! [`StopPatterns`] set is attached, the literal pieces of every stop
//! glob (the text between its `*`/`?` wildcards). [`Matcher::scan`]
//! reads a message once, left to right, whatever the number of patterns,
//! which is what keeps L3 linear in the number of logs (§5 of the
//! paper). A glob is confirmed with its exact semantics only when all of
//! its pieces were seen, so most messages never run a glob at all.
//!
//! The table is dense, and kept small:
//!
//! * **Byte classes.** Each distinct byte of the (case-folded) patterns
//!   gets a class; every other byte shares one. ASCII case folding lives
//!   here: `A` maps to the class of `a`, so a message is scanned as is,
//!   with no lower-cased copy.
//! * **Narrow state ids.** The table holds `states × classes` entries of
//!   premultiplied state ids (`state × classes`), as `u16` when they fit
//!   and `u32` otherwise. A step is one load, with no failure-link walk.
//!   The simulator's 47 directory ids and 10 standard stop globs compile
//!   to 546 states × 29 classes: a 31 KB table of `u16`.
//! * **Report states last.** States at which some pattern ends are
//!   numbered after all others, so "did a pattern end here" is one
//!   compare. Their outputs (own patterns, then those of their proper
//!   suffixes) are flattened at build time, so a report walks no links.

use crate::stop::{Glob, StopPatterns};
use std::collections::VecDeque;

/// How matches are validated against their surrounding context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Any substring occurrence counts.
    Substring,
    /// The occurrence must not be flanked by alphanumeric (or `_`)
    /// characters, so identifiers only match as whole tokens. This is
    /// the right mode for service-directory ids: without it, a citation
    /// of `UPSRV2` would also fire the pattern `UPSRV`.
    #[default]
    WholeWord,
}

/// One pattern occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern (in insertion order) that matched.
    pub pattern: usize,
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

/// Builder for a [`Matcher`].
#[derive(Debug, Clone)]
pub struct MatcherBuilder {
    patterns: Vec<Vec<u8>>,
    case_insensitive: bool,
    mode: MatchMode,
    /// Lower-cased stop globs.
    globs: Vec<String>,
}

impl Default for MatcherBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MatcherBuilder {
    /// Creates a builder with default settings: case-insensitive,
    /// whole-word matching (the right defaults for directory ids cited
    /// in hand-written log lines).
    pub fn new() -> Self {
        Self {
            patterns: Vec::new(),
            case_insensitive: true,
            mode: MatchMode::WholeWord,
            globs: Vec::new(),
        }
    }

    /// Adds a pattern; returns its index.
    ///
    /// Empty patterns are rejected with `None`.
    pub fn add(&mut self, pattern: &str) -> Option<usize> {
        if pattern.is_empty() {
            return None;
        }
        let bytes = if self.case_insensitive {
            pattern.bytes().map(|b| b.to_ascii_lowercase()).collect()
        } else {
            pattern.bytes().collect()
        };
        self.patterns.push(bytes);
        Some(self.patterns.len() - 1)
    }

    /// Adds many patterns, ignoring empties.
    pub fn add_all<'a>(&mut self, patterns: impl IntoIterator<Item = &'a str>) -> &mut Self {
        for p in patterns {
            self.add(p);
        }
        self
    }

    /// Sets ASCII case folding (default: on).
    pub fn case_insensitive(&mut self, yes: bool) -> &mut Self {
        assert!(
            self.patterns.is_empty(),
            "set case_insensitive before adding patterns"
        );
        self.case_insensitive = yes;
        self
    }

    /// Sets the match validation mode (default: whole-word).
    pub fn mode(&mut self, mode: MatchMode) -> &mut Self {
        self.mode = mode;
        self
    }

    /// Attaches stop globs, replacing any attached before: a message that
    /// matches one is reported by [`Matcher::scan`] as
    /// [`Scan::Stopped`]. Globs are ASCII case-insensitive whatever
    /// [`Self::case_insensitive`] says; on a case-sensitive matcher their
    /// pieces cannot share the table, so every glob is tried on every
    /// message.
    pub fn stop_patterns(&mut self, stops: &StopPatterns) -> &mut Self {
        self.globs = stops.patterns().to_vec();
        self
    }

    /// A builder for the stop globs alone (no ids).
    pub(crate) fn for_globs(globs: &[String]) -> Self {
        Self {
            globs: globs.to_vec(),
            ..Self::new()
        }
    }

    /// Builds the automaton.
    pub fn build(&self) -> Matcher {
        let mut pieces: Vec<Vec<u8>> = Vec::new();
        let mut stops = Vec::with_capacity(self.globs.len());
        for text in &self.globs {
            let glob = Glob::new(text);
            let mut needed: Vec<u32> = Vec::new();
            if self.case_insensitive {
                for piece in glob.pieces() {
                    let at = match pieces.iter().position(|p| p == piece) {
                        Some(at) => at,
                        None => {
                            pieces.push(piece.to_vec());
                            pieces.len() - 1
                        }
                    };
                    let at = u32::try_from(at).unwrap_or(u32::MAX);
                    if !needed.contains(&at) {
                        needed.push(at);
                    }
                }
            }
            let seen_is_match = self.case_insensitive && glob.is_one_floating_piece();
            stops.push(StopGlob {
                glob,
                needed,
                seen_is_match,
            });
        }
        let all: Vec<&[u8]> = self
            .patterns
            .iter()
            .map(Vec::as_slice)
            .chain(pieces.iter().map(Vec::as_slice))
            .collect();
        Matcher {
            automaton: Automaton::new(&all, self.case_insensitive),
            mode: self.mode,
            id_lens: self.patterns.iter().map(Vec::len).collect(),
            n_pieces: pieces.len(),
            stops,
        }
    }
}

/// One stop glob and the pieces (indices into the matcher's piece list)
/// a message must contain before the glob is worth trying.
#[derive(Debug, Clone)]
struct StopGlob {
    glob: Glob,
    needed: Vec<u32>,
    /// The glob is `*piece*`: seeing its piece is matching it.
    seen_is_match: bool,
}

/// The compiled multi-pattern automaton.
#[derive(Debug, Clone)]
pub struct Matcher {
    automaton: Automaton,
    mode: MatchMode,
    /// Byte length of each id. Automaton outputs below `id_lens.len()`
    /// are ids; the rest are stop-glob pieces.
    id_lens: Vec<usize>,
    n_pieces: usize,
    stops: Vec<StopGlob>,
}

/// What [`Matcher::scan`] found in one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan<'a> {
    /// A stop glob matched the whole message, which is then ignored.
    Stopped,
    /// No stop glob matched. The distinct ids cited, in the order their
    /// first valid occurrence ends.
    Cited(&'a [u32]),
}

/// Reusable working memory of [`Matcher::scan`]. One per worker: once
/// it has grown to the matcher's size, a scan allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    /// Stamp of the current message; a slot equal to it was seen in it.
    generation: u32,
    id_seen: Vec<u32>,
    piece_seen: Vec<u32>,
    hits: Vec<u32>,
}

impl ScanScratch {
    /// Starts a message: sizes the stamps for the matcher and returns
    /// the new generation, so no slot needs clearing between messages.
    fn begin(&mut self, n_ids: usize, n_pieces: usize) -> u32 {
        if self.id_seen.len() != n_ids || self.piece_seen.len() != n_pieces {
            self.id_seen = vec![0; n_ids];
            self.piece_seen = vec![0; n_pieces];
            self.generation = 0;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.id_seen.fill(0);
            self.piece_seen.fill(0);
            self.generation = 1;
        }
        self.hits.clear();
        self.generation
    }
}

impl Matcher {
    /// Number of registered patterns (directory ids; stop-glob pieces
    /// are not counted).
    pub fn pattern_count(&self) -> usize {
        self.id_lens.len()
    }

    /// `Some(m)` when automaton output `pattern`, ending at `end`, is an
    /// id whose occurrence passes the mode's boundary check.
    fn id_match(&self, text: &[u8], pattern: u32, end: usize) -> Option<Match> {
        let pattern = pattern as usize;
        let start = end.checked_sub(*self.id_lens.get(pattern)?)?;
        let is_word = |b: Option<&u8>| b.is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_');
        let bounded = match self.mode {
            MatchMode::Substring => true,
            MatchMode::WholeWord => {
                !is_word(start.checked_sub(1).and_then(|i| text.get(i))) && !is_word(text.get(end))
            }
        };
        bounded.then_some(Match {
            pattern,
            start,
            end,
        })
    }

    /// Finds all pattern occurrences in `text`, in end-position order.
    pub fn find_all(&self, text: &str) -> Vec<Match> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        self.automaton.for_each_match(bytes, |end, outputs| {
            out.extend(outputs.iter().filter_map(|&p| self.id_match(bytes, p, end)));
        });
        out
    }

    /// Distinct pattern ids occurring in `text`, ascending.
    pub fn matched_ids(&self, text: &str) -> Vec<usize> {
        let mut ids: Vec<usize> = self.find_all(text).iter().map(|m| m.pattern).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// True when at least one pattern occurs in `text`.
    pub fn contains_any(&self, text: &str) -> bool {
        !self.find_all(text).is_empty()
    }

    /// The L3 step for one message, in one pass: whether an attached
    /// stop glob matches it, and if not, which ids it cites. Allocates
    /// nothing once `scratch` has grown to this matcher.
    pub fn scan<'s>(&self, text: &str, scratch: &'s mut ScanScratch) -> Scan<'s> {
        let bytes = text.as_bytes();
        let n_ids = self.id_lens.len();
        let generation = scratch.begin(n_ids, self.n_pieces);
        let ScanScratch {
            id_seen,
            piece_seen,
            hits,
            ..
        } = scratch;
        self.automaton.for_each_match(bytes, |end, outputs| {
            for &p in outputs {
                match (p as usize).checked_sub(n_ids) {
                    Some(piece) => {
                        if let Some(seen) = piece_seen.get_mut(piece) {
                            *seen = generation;
                        }
                    }
                    None if self.id_match(bytes, p, end).is_some() => {
                        if let Some(seen) = id_seen.get_mut(p as usize) {
                            if *seen != generation {
                                *seen = generation;
                                hits.push(p);
                            }
                        }
                    }
                    None => {}
                }
            }
        });
        let stopped = self.stops.iter().any(|stop| {
            stop.needed
                .iter()
                .all(|&q| piece_seen.get(q as usize) == Some(&generation))
                && (stop.seen_is_match || stop.glob.matches(bytes))
        });
        if stopped {
            Scan::Stopped
        } else {
            Scan::Cited(hits)
        }
    }
}

/// The transition table, sized by what its premultiplied ids need.
#[derive(Debug, Clone)]
enum Table {
    /// `states × classes ≤ 65 536`: every id fits in 16 bits.
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

/// A dense Aho–Corasick DFA over byte classes.
#[derive(Debug, Clone)]
struct Automaton {
    /// Byte → class.
    classes: [u8; 256],
    /// Number of classes: the row width of the table.
    stride: u32,
    table: Table,
    /// Premultiplied id of the first report state; every state at or
    /// past it reports at least one pattern.
    first_report: u32,
    /// `outputs[report_start[k]..report_start[k + 1]]` are the patterns
    /// report state `k` (counted from the first) reports.
    report_start: Vec<u32>,
    outputs: Vec<u32>,
}

/// A trie node during construction.
#[derive(Debug, Clone, Default)]
struct TrieNode {
    children: Vec<(u8, usize)>,
    own: Vec<u32>,
}

/// The trie, its breadth-first order, failure links and final
/// (premultiplied) state ids: what filling the table needs.
struct Build<'a> {
    trie: &'a [TrieNode],
    order: &'a [usize],
    fail: &'a [usize],
    renamed: &'a [usize],
    stride: usize,
}

impl Build<'_> {
    /// The dense table, filled in place in breadth-first order: a row
    /// is its failure target's (already final) row with the state's own
    /// children written over it. No other dense array is built.
    #[expect(
        clippy::indexing_slicing,
        reason = "states and classes index the `stride`-wide rows built here"
    )]
    fn table<T: Copy + Default + TryFrom<usize>>(&self) -> Vec<T> {
        let mut table = vec![T::default(); self.trie.len() * self.stride];
        for &s in self.order {
            let row = self.renamed[s];
            if s != 0 {
                let from = self.renamed[self.fail[s]];
                table.copy_within(from..from + self.stride, row);
            }
            for &(class, next) in &self.trie[s].children {
                table[row + usize::from(class)] =
                    T::try_from(self.renamed[next]).unwrap_or_default();
            }
        }
        table
    }
}

impl Automaton {
    /// Compiles `patterns` (output `i` is `patterns[i]`). With `fold`,
    /// ASCII upper and lower case match each other. Empty patterns never
    /// match.
    #[expect(
        clippy::indexing_slicing,
        reason = "states index the trie built here and bytes the 256-entry class map"
    )]
    fn new(patterns: &[&[u8]], fold: bool) -> Self {
        let norm = |b: u8| if fold { b.to_ascii_lowercase() } else { b };
        let mut used = [false; 256];
        for &b in patterns.iter().flat_map(|p| p.iter()) {
            used[usize::from(norm(b))] = true;
        }
        // Class 0 is every byte no pattern holds, when there is one.
        let mut classes = [0u8; 256];
        let mut stride = usize::from(used.contains(&false));
        for (class, _) in classes.iter_mut().zip(used).filter(|(_, u)| *u) {
            *class = u8::try_from(stride).unwrap_or(u8::MAX);
            stride += 1;
        }
        if fold {
            for b in b'A'..=b'Z' {
                classes[usize::from(b)] = classes[usize::from(b.to_ascii_lowercase())];
            }
        }

        let mut trie = vec![TrieNode::default()];
        for (id, pattern) in patterns.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let mut cur = 0;
            for &b in pattern.iter() {
                let class = classes[usize::from(b)];
                let known = trie[cur].children.iter().find(|&&(c, _)| c == class);
                cur = match known {
                    Some(&(_, next)) => next,
                    None => {
                        trie.push(TrieNode::default());
                        let next = trie.len() - 1;
                        trie[cur].children.push((class, next));
                        next
                    }
                };
            }
            trie[cur].own.push(u32::try_from(id).unwrap_or(u32::MAX));
        }

        // Breadth-first: a state's failure target is shallower, so its
        // flattened outputs (and below, its table row) are complete
        // before the state's.
        let n = trie.len();
        let child = |s: usize, class: u8| {
            trie[s]
                .children
                .iter()
                .find(|&&(c, _)| c == class)
                .map(|&(_, t)| t)
        };
        let mut fail = vec![0usize; n];
        let mut reports: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut order = Vec::with_capacity(n);
        let mut queue = VecDeque::from([0usize]);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            if s != 0 {
                let mut out = trie[s].own.clone();
                out.extend_from_slice(&reports[fail[s]]);
                reports[s] = out;
            }
            for &(class, next) in &trie[s].children {
                let mut f = fail[s];
                fail[next] = loop {
                    if s == 0 {
                        break 0;
                    }
                    if let Some(t) = child(f, class) {
                        break t;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f];
                };
                queue.push_back(next);
            }
        }

        // Renumber: silent states first (the root stays 0), then report
        // states; ids are premultiplied by the row width.
        let (silent, reporting): (Vec<usize>, Vec<usize>) =
            order.iter().partition(|&&s| reports[s].is_empty());
        let mut renamed = vec![0usize; n];
        for (id, &s) in silent.iter().chain(&reporting).enumerate() {
            renamed[s] = id * stride;
        }
        let build = Build {
            trie: &trie,
            order: &order,
            fail: &fail,
            renamed: &renamed,
            stride,
        };
        let table = if n * stride <= 1 << 16 {
            Table::Narrow(build.table())
        } else {
            Table::Wide(build.table())
        };
        let mut report_start = vec![0u32];
        let mut outputs = Vec::new();
        for &s in &reporting {
            outputs.extend_from_slice(&reports[s]);
            report_start.push(u32::try_from(outputs.len()).unwrap_or(u32::MAX));
        }
        Automaton {
            classes,
            stride: u32::try_from(stride).unwrap_or(u32::MAX),
            table,
            first_report: u32::try_from(silent.len() * stride).unwrap_or(u32::MAX),
            report_start,
            outputs,
        }
    }

    /// Calls `on_match(end, patterns)` at every byte offset `end` where
    /// some patterns end, in text order.
    fn for_each_match(&self, text: &[u8], on_match: impl FnMut(usize, &[u32])) {
        match &self.table {
            Table::Narrow(table) => self.walk(table, text, on_match),
            Table::Wide(table) => self.walk(table, text, on_match),
        }
    }

    #[inline(always)]
    #[expect(
        clippy::indexing_slicing,
        reason = "`classes` has an entry for every byte"
    )]
    fn walk<T: Copy + Into<u32>>(
        &self,
        table: &[T],
        text: &[u8],
        mut on_match: impl FnMut(usize, &[u32]),
    ) {
        let mut state = 0u32;
        for (i, &b) in text.iter().enumerate() {
            let class = u32::from(self.classes[usize::from(b)]);
            state = table.get((state + class) as usize).map_or(0, |&t| t.into());
            if state >= self.first_report {
                let k = ((state - self.first_report) / self.stride) as usize;
                let lo = self.report_start.get(k).copied().unwrap_or(0) as usize;
                let hi = self.report_start.get(k + 1).copied().unwrap_or(0) as usize;
                on_match(i + 1, self.outputs.get(lo..hi).unwrap_or(&[]));
            }
        }
    }

    /// Bytes held by the transition table.
    #[cfg(test)]
    fn table_bytes(&self) -> usize {
        match &self.table {
            Table::Narrow(t) => t.len() * 2,
            Table::Wide(t) => t.len() * 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matcher(patterns: &[&str], mode: MatchMode) -> Matcher {
        let mut b = MatcherBuilder::new();
        b.mode(mode).add_all(patterns.iter().copied());
        b.build()
    }

    #[test]
    fn single_pattern_all_occurrences() {
        let m = matcher(&["abc"], MatchMode::Substring);
        let hits = m.find_all("abcXabcabc");
        assert_eq!(hits.len(), 3);
        assert_eq!(
            hits[0],
            Match {
                pattern: 0,
                start: 0,
                end: 3
            }
        );
        assert_eq!(
            hits[2],
            Match {
                pattern: 0,
                start: 7,
                end: 10
            }
        );
    }

    #[test]
    fn overlapping_patterns_all_reported() {
        let m = matcher(&["he", "she", "his", "hers"], MatchMode::Substring);
        let hits = m.find_all("ushers");
        // Classic example: "she" at 1..4, "he" at 2..4, "hers" at 2..6.
        let got: Vec<(usize, usize, usize)> =
            hits.iter().map(|h| (h.pattern, h.start, h.end)).collect();
        assert!(got.contains(&(1, 1, 4)), "she: {got:?}");
        assert!(got.contains(&(0, 2, 4)), "he: {got:?}");
        assert!(got.contains(&(3, 2, 6)), "hers: {got:?}");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn case_insensitive_by_default() {
        let mut b = MatcherBuilder::new();
        b.add("DPINotification");
        let m = b.build();
        assert!(m.contains_any("invoke dpinotification now"));
        assert!(m.contains_any("(DPINOTIFICATION) notify( $p )"));
    }

    #[test]
    fn case_sensitive_mode() {
        let mut b = MatcherBuilder::new();
        b.case_insensitive(false);
        b.mode(MatchMode::Substring);
        b.add("ABC");
        let m = b.build();
        assert!(m.contains_any("xxABCxx"));
        assert!(!m.contains_any("xxabcxx"));
    }

    #[test]
    fn whole_word_blocks_id_prefix_hits() {
        // The paper's renamed-service trap: UPSRV must not fire inside
        // UPSRV2, but UPSRV2 must fire.
        let m = matcher(&["UPSRV", "UPSRV2"], MatchMode::WholeWord);
        let ids = m.matched_ids("call (UPSRV2) update()");
        assert_eq!(ids, vec![1]);
        let ids = m.matched_ids("call (UPSRV) update()");
        assert_eq!(ids, vec![0]);
    }

    #[test]
    fn whole_word_boundaries() {
        let m = matcher(&["notify"], MatchMode::WholeWord);
        assert!(m.contains_any("will notify user"));
        assert!(m.contains_any("notify"));
        assert!(m.contains_any("[notify]"));
        assert!(m.contains_any("fct=notify,server=x"));
        assert!(!m.contains_any("notifyAll"));
        assert!(!m.contains_any("renotify"));
        assert!(!m.contains_any("notify_user"));
    }

    #[test]
    fn matched_ids_dedups() {
        let m = matcher(&["a b", "x"], MatchMode::Substring);
        assert_eq!(m.matched_ids("a b a b x x"), vec![0, 1]);
        assert!(m.matched_ids("nothing here... almost").is_empty());
    }

    #[test]
    fn empty_pattern_rejected() {
        let mut b = MatcherBuilder::new();
        assert_eq!(b.add(""), None);
        assert_eq!(b.add("ok"), Some(0));
        assert_eq!(b.build().pattern_count(), 1);
    }

    #[test]
    fn empty_text_and_no_patterns() {
        let m = matcher(&[], MatchMode::WholeWord);
        assert!(!m.contains_any("anything"));
        let m = matcher(&["x"], MatchMode::WholeWord);
        assert!(!m.contains_any(""));
    }

    #[test]
    fn pattern_equal_to_whole_text() {
        let m = matcher(&["exact"], MatchMode::WholeWord);
        let hits = m.find_all("exact");
        assert_eq!(
            hits,
            vec![Match {
                pattern: 0,
                start: 0,
                end: 5
            }]
        );
    }

    #[test]
    fn one_pattern_suffix_of_another() {
        let m = matcher(&["notification", "cation"], MatchMode::Substring);
        let hits = m.find_all("notification");
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn realistic_directory_scan() {
        let ids = [
            "DPINOTIFICATION",
            "DPIPUBLICATION",
            "DPIFORMIDOC",
            "LABRESULTS",
            "UPSRV",
            "UPSRV2",
        ];
        let m = matcher(&ids, MatchMode::WholeWord);
        let text = "Invoke externalService [fct [notify] server \
                    [myserver.hcuge.ch:9999/dpinotification]] ok";
        assert_eq!(m.matched_ids(text), vec![0]);
        let text = "(DPIPUBLICATION) publish(doc) via LABRESULTS gateway";
        assert_eq!(m.matched_ids(text), vec![1, 3]);
    }

    /// The 47 directory ids of the simulator's HUG-like landscape and its
    /// 10 standard stop globs: the set every L3 run of the benchmark
    /// compiles. The table must stay well inside a core's L2 cache.
    #[test]
    fn standard_set_table_is_compact() {
        let ids = "DPIPUBLICATION DPINOTIFICATION DPIDOCUMENTS DPILABRESULTS DPIRADREPORTS \
                   DPIPRESCRIPTION DPISCHEDULING DPIPATIENTINDEX DPICODING DPITRANSFERS \
                   DPIALERTS DPIVITALS DPIPROTOCOLS DPIREFERRALS DPIMESSAGING DPIDIRECTORY \
                   DPIAUDIT DPICONSENT DPIALLERGY DPIDIET DPIPATHOLOGY DPIMICROBIO \
                   DPIBLOODBANK DPISURGERY DPIANESTHESIA2 DPIRADIOLOGY DPICARDIOLOGY \
                   DPIONCOLOGY DPIMATERNITY2 DPIPSYCHIATRY DPIRECORDSTORE DPIUSERSTORE \
                   DPITERMSERVER DPIHL7GATEWAY DPIPACSCORE DPILABCORE DPIBILLINGCORE \
                   DPISTATWAREHOUSE DPIEVENTBUS DPIPRINTSPOOL2 DPISECGATEWAY DPITIMESERIES \
                   DPIPUBLICATION2 DPINOTIFICATION2 DPIDOCUMENTS2 DPILABRESULTS2 DPIRADREPORTS2";
        let stops = StopPatterns::new([
            "serving request*",
            "*incoming invocation*",
            "*request received from*",
            "handled * in * ms",
            "dispatching * to local handler*",
            "*session opened by*",
            "*auth check for request*",
            "worker * accepted job*",
            "replication sync * applied",
            "*listener bound on port*",
        ]);
        let mut b = MatcherBuilder::new();
        b.add_all(ids.split_whitespace()).stop_patterns(&stops);
        let m = b.build();
        assert_eq!(m.pattern_count(), 47);
        let a = &m.automaton;
        assert!(
            matches!(a.table, Table::Narrow(_)),
            "state ids fit in 16 bits"
        );
        assert_eq!(a.stride as usize, STANDARD_CLASSES);
        assert_eq!(a.table_bytes(), 2 * STANDARD_STATES * STANDARD_CLASSES);
        assert!(a.table_bytes() <= 64 * 1024, "{} bytes", a.table_bytes());
    }

    const STANDARD_STATES: usize = 546;
    const STANDARD_CLASSES: usize = 29;

    #[test]
    fn non_ascii_text_is_safe() {
        let m = matcher(&["café"], MatchMode::Substring);
        assert!(m.contains_any("au café noir"));
        let m = matcher(&["abc"], MatchMode::WholeWord);
        // Multi-byte char adjacent to the match is a non-word boundary.
        assert!(m.contains_any("é abc é"));
    }
}
