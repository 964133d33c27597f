//! The L3 text kernel as it was before the dense automaton: a sparse
//! byte trie with failure and dictionary links that allocates per
//! message, and a stop filter that lower-cases a copy of the message
//! and runs every glob's backtracking match over it. Kept only as the
//! oracle of the differential tests; nothing outside `tests/` builds
//! on it.

#![allow(
    dead_code,
    clippy::indexing_slicing,
    reason = "the old kernel, kept as written: it indexes its trie directly"
)]

use logdep_textmatch::{Match, MatchMode};
use std::collections::VecDeque;

#[derive(Debug, Clone, Default)]
struct Node {
    children: Vec<(u8, u32)>,
    fail: u32,
    output: Vec<u32>,
    dict_link: u32,
}

impl Node {
    fn child(&self, b: u8) -> Option<u32> {
        self.children
            .iter()
            .find_map(|&(cb, n)| (cb == b).then_some(n))
    }
}

/// The sparse-trie Aho–Corasick matcher.
#[derive(Debug, Clone)]
pub struct RefMatcher {
    nodes: Vec<Node>,
    case_insensitive: bool,
    mode: MatchMode,
    pattern_lens: Vec<usize>,
}

impl RefMatcher {
    /// Builds the trie; empty patterns are skipped and do not take an
    /// index, as `MatcherBuilder::add` rejects them.
    pub fn new<'a>(
        patterns: impl IntoIterator<Item = &'a str>,
        case_insensitive: bool,
        mode: MatchMode,
    ) -> Self {
        let pats: Vec<Vec<u8>> = patterns
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|p| {
                if case_insensitive {
                    p.bytes().map(|b| b.to_ascii_lowercase()).collect()
                } else {
                    p.bytes().collect()
                }
            })
            .collect();
        let mut m = RefMatcher {
            nodes: vec![Node::default()],
            case_insensitive,
            mode,
            pattern_lens: pats.iter().map(Vec::len).collect(),
        };
        for (id, pat) in pats.iter().enumerate() {
            m.insert(pat, id);
        }
        m.build_links();
        m
    }

    fn insert(&mut self, pattern: &[u8], id: usize) {
        let mut cur = 0u32;
        for &b in pattern {
            cur = match self.nodes[cur as usize].child(b) {
                Some(next) => next,
                None => {
                    let next = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[cur as usize].children.push((b, next));
                    next
                }
            };
        }
        self.nodes[cur as usize].output.push(id as u32);
    }

    fn build_links(&mut self) {
        let mut queue = VecDeque::new();
        let root_children: Vec<(u8, u32)> = self.nodes[0].children.clone();
        for (_, n) in root_children {
            self.nodes[n as usize].fail = 0;
            queue.push_back(n);
        }
        while let Some(cur) = queue.pop_front() {
            let children: Vec<(u8, u32)> = self.nodes[cur as usize].children.clone();
            for (b, child) in children {
                let mut f = self.nodes[cur as usize].fail;
                let fail_target = loop {
                    if let Some(t) = self.nodes[f as usize].child(b) {
                        break t;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = self.nodes[f as usize].fail;
                };
                let fail_target = if fail_target == child { 0 } else { fail_target };
                self.nodes[child as usize].fail = fail_target;
                self.nodes[child as usize].dict_link =
                    if !self.nodes[fail_target as usize].output.is_empty() {
                        fail_target
                    } else {
                        self.nodes[fail_target as usize].dict_link
                    };
                queue.push_back(child);
            }
        }
    }

    fn step(&self, mut state: u32, b: u8) -> u32 {
        loop {
            if let Some(next) = self.nodes[state as usize].child(b) {
                return next;
            }
            if state == 0 {
                return 0;
            }
            state = self.nodes[state as usize].fail;
        }
    }

    fn boundary_ok(&self, text: &[u8], start: usize, end: usize) -> bool {
        match self.mode {
            MatchMode::Substring => true,
            MatchMode::WholeWord => {
                let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
                let left_ok = start == 0 || !is_word(text[start - 1]);
                let right_ok = end == text.len() || !is_word(text[end]);
                left_ok && right_ok
            }
        }
    }

    /// Every occurrence, in end-position order.
    pub fn find_all(&self, text: &str) -> Vec<Match> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut state = 0u32;
        for (i, &raw) in bytes.iter().enumerate() {
            let b = if self.case_insensitive {
                raw.to_ascii_lowercase()
            } else {
                raw
            };
            state = self.step(state, b);
            let mut node = state;
            while node != 0 {
                for &pid in &self.nodes[node as usize].output {
                    let len = self.pattern_lens[pid as usize];
                    let start = i + 1 - len;
                    if self.boundary_ok(bytes, start, i + 1) {
                        out.push(Match {
                            pattern: pid as usize,
                            start,
                            end: i + 1,
                        });
                    }
                }
                node = self.nodes[node as usize].dict_link;
            }
        }
        out
    }

    /// Distinct pattern ids, ascending.
    pub fn matched_ids(&self, text: &str) -> Vec<usize> {
        let mut ids: Vec<usize> = self.find_all(text).iter().map(|m| m.pattern).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The per-pattern stop filter: every glob over a lower-cased copy.
#[derive(Debug, Clone, Default)]
pub struct RefStops {
    patterns: Vec<String>,
}

impl RefStops {
    pub fn new<S: AsRef<str>>(patterns: impl IntoIterator<Item = S>) -> Self {
        Self {
            patterns: patterns
                .into_iter()
                .map(|p| p.as_ref().to_ascii_lowercase())
                .collect(),
        }
    }

    pub fn matches(&self, text: &str) -> bool {
        let lower = text.to_ascii_lowercase();
        self.patterns.iter().any(|p| glob_match(p, &lower))
    }
}

/// Iterative glob matcher with `*` backtracking; both inputs lower-case.
fn glob_match(pattern: &str, text: &str) -> bool {
    let p = pattern.as_bytes();
    let t = text.as_bytes();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && p[pi] == b'*' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == b'?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some((sp, st)) = star {
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// The old L3 per-record step: `None` when a stop pattern matched,
/// otherwise the cited ids ascending.
pub fn ref_scan(ids: &RefMatcher, stops: &RefStops, text: &str) -> Option<Vec<usize>> {
    if !stops.patterns.is_empty() && stops.matches(text) {
        return None;
    }
    Some(ids.matched_ids(text))
}
