//! The lint engine: rule registry, crate scoping, test-code masking,
//! suppression handling, and the token-walking rule implementations.
//!
//! Rules operate on the comment-free token stream from [`crate::lexer`],
//! so string/comment contents can never produce false positives. Each
//! rule is scoped to the crates where its invariant matters (see
//! `RULES`); test code — `#[cfg(test)]` modules, `#[test]` functions,
//! and files under `tests/` or `benches/` — is exempt, because panics
//! are the correct failure mode there.
//!
//! A diagnostic can be suppressed by a `// lint:allow(<rule>)` comment
//! on the same line or the line directly above; suppressions should
//! carry a justification, e.g.
//! `// lint:allow(no-panic-in-lib) — length checked by constructor`.

use crate::graph::FileIndex;
use crate::lexer::{lex, Lexed, TokKind, Token};
use logdep_par::{par_map, ParConfig};
use std::collections::HashSet;

/// Diagnostic severity. `Deny` violations fail `cargo xtask lint`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// Static description of one rule in the registry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name, used in output and `lint:allow(...)`.
    pub name: &'static str,
    pub severity: Severity,
    /// One-line summary for `cargo xtask lint --list`.
    pub summary: &'static str,
    /// Crate directory names (under `crates/`) the rule applies to.
    pub scope: &'static [&'static str],
}

/// The library crates whose non-test code must not panic.
const LIB_CRATES: &[&str] = &[
    "core",
    "stats",
    "logstore",
    "textmatch",
    "sessions",
    "simulator",
    "faults",
    "par",
    "obs",
    "serve",
];

/// Every scoped crate — the bare-allow hygiene rule has no exemptions.
const ALL_CRATES: &[&str] = &[
    "core",
    "stats",
    "logstore",
    "textmatch",
    "sessions",
    "simulator",
    "faults",
    "par",
    "obs",
    "serve",
    "cli",
    "bench",
];

/// Marker scope for the graph rules, which run once over the whole
/// indexed workspace (in [`lint_workspace`]) rather than per file.
const WORKSPACE: &[&str] = &["workspace"];

/// Crates that must route all threading through `logdep-par`: every
/// library crate except `par` itself (the one place allowed to touch
/// `std::thread`), plus the cli and bench binaries.
const POOLED_CRATES: &[&str] = &[
    "core",
    "stats",
    "logstore",
    "textmatch",
    "sessions",
    "simulator",
    "faults",
    "obs",
    "serve",
    "cli",
    "bench",
];

/// The full lint registry. Adding a rule means adding an entry here and
/// an arm in [`lint_tokens`].
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-panic-in-lib",
        severity: Severity::Deny,
        summary: "unwrap()/expect()/panic!/unimplemented!/todo! in non-test library code",
        scope: LIB_CRATES,
    },
    RuleInfo {
        name: "nan-unsafe-float",
        severity: Severity::Deny,
        summary:
            "partial_cmp().unwrap() or partial_cmp inside sort/min/max comparators; use total_cmp",
        scope: &["core", "stats"],
    },
    RuleInfo {
        name: "lossy-time-cast",
        severity: Severity::Deny,
        summary: "`as` cast on a timestamp/duration-named expression; use explicit conversions",
        scope: &["logstore", "sessions"],
    },
    RuleInfo {
        name: "result-api",
        severity: Severity::Warn,
        summary: "public fn whose body unwraps but whose signature does not return Result",
        scope: &["core", "stats"],
    },
    RuleInfo {
        name: "unchecked-indexing",
        severity: Severity::Warn,
        summary: "slice/array indexing with a runtime index expression in library code",
        scope: LIB_CRATES,
    },
    RuleInfo {
        name: "silent-drop",
        severity: Severity::Deny,
        summary: "`let _ =` discarding a call's Result in library code; handle or match the error",
        scope: LIB_CRATES,
    },
    RuleInfo {
        name: "raw-thread-spawn",
        severity: Severity::Deny,
        summary: "direct thread::spawn outside crates/par; use logdep_par::{scope, par_map, par_chunks_fold}",
        scope: POOLED_CRATES,
    },
    RuleInfo {
        name: "hot-sort",
        severity: Severity::Warn,
        summary: "comparator sort (sort_by/sort_unstable_by) in the L1/timeline hot paths; \
                  prefer the merge-sweep kernels or sorted-run merges",
        scope: &["core", "logstore"],
    },
    RuleInfo {
        name: "non-atomic-persist",
        severity: Severity::Warn,
        summary: "direct fs::write/File::create to persistent-state paths (cache, journal, \
                  checkpoint, ledger, ...) outside the durable writer; use persist_atomic",
        scope: ALL_CRATES,
    },
    RuleInfo {
        name: "bare-allow",
        severity: Severity::Deny,
        summary: "lint:allow(..) without a justification after the closing paren; \
                  append `— why this is sound`",
        scope: ALL_CRATES,
    },
    RuleInfo {
        name: "nondeterminism-taint",
        severity: Severity::Deny,
        summary: "call path from a snapshot/cache entry point to HashMap iteration, \
                  wall-clock, env, or available_parallelism outside their sanctioned homes",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "fingerprint-completeness",
        severity: Severity::Deny,
        summary: "a *Config struct field never folded by its *_fingerprint fn; \
                  the evidence cache would replay stale entries",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "panic-reach",
        severity: Severity::Deny,
        summary: "pub library API that transitively calls into an unsuppressed panic site",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "blocking-io-in-handler",
        severity: Severity::Deny,
        summary: "fs::* or durable-store call reachable from a serve request handler \
                  (handle_* fn); snapshot loads must go through the reload/swap path",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "instrumentation-completeness",
        severity: Severity::Deny,
        summary: "pipeline entry point reachable from the drivers that never emits a \
                  begin/end trace event pair; the run report would silently miss the stage",
        scope: WORKSPACE,
    },
];

/// Looks up a rule by name.
#[cfg_attr(not(test), allow(dead_code))]
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One finding, pointing at a source line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub severity: Severity,
    pub file: String,
    pub line: u32,
    pub message: String,
    /// For graph rules: the entry-point → violation call chain, as
    /// `"name (file:line)"` strings. Empty for per-file rules.
    pub chain: Vec<String>,
}

/// Classification of a workspace source file by its repo-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileScope {
    /// `crates/<name>/src/**` — library (or binary) source of `<name>`.
    CrateSrc(String),
    /// Integration tests, benches, examples, vendored stand-ins, xtask
    /// itself: lexed and counted, but no scoped rules apply.
    Unscoped,
}

/// Classifies `rel` (repo-relative, `/`-separated).
pub fn classify(rel: &str) -> FileScope {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" && parts[1] != "xtask" {
        return FileScope::CrateSrc(parts[1].to_string());
    }
    FileScope::Unscoped
}

/// Lints one file's source text. `rel` is the repo-relative path used
/// both for scope classification and in diagnostics. Runs the per-file
/// rules only; the graph rules need [`lint_workspace`].
#[cfg_attr(not(test), allow(dead_code))]
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    let scope = classify(rel);
    let crate_name = match &scope {
        FileScope::CrateSrc(name) => name.clone(),
        FileScope::Unscoped => return Vec::new(),
    };
    let lexed = lex(src);
    lint_tokens(rel, &crate_name, &lexed)
}

/// Lints the whole workspace: the per-file rules run over every file in
/// parallel (via the same `logdep-par` pool the pipeline uses), each
/// file also yielding its symbol-table slice; the graph rules then run
/// once over the assembled [`FileIndex`] set. Diagnostics come back
/// sorted by `(file, line, rule)`.
pub fn lint_workspace(files: &[(String, String)], par: &ParConfig) -> Vec<Diagnostic> {
    let per_file: Vec<(Option<FileIndex>, Vec<Diagnostic>)> =
        par_map(par, files, |(rel, src)| match classify(rel) {
            FileScope::CrateSrc(crate_name) => {
                let lexed = lex(src);
                let diags = lint_tokens(rel, &crate_name, &lexed);
                let index = crate::graph::index_file(rel, &crate_name, &lexed);
                (Some(index), diags)
            }
            FileScope::Unscoped => (None, Vec::new()),
        });

    let mut diags = Vec::new();
    let mut indexes = Vec::new();
    for (index, file_diags) in per_file {
        diags.extend(file_diags);
        if let Some(index) = index {
            indexes.push(index);
        }
    }
    diags.extend(crate::taint::graph_rules(&indexes));

    let mut seen = HashSet::new();
    diags.retain(|d| seen.insert((d.rule, d.file.clone(), d.line)));
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

fn applies(info: &RuleInfo, crate_name: &str) -> bool {
    info.scope.contains(&crate_name)
}

fn lint_tokens(rel: &str, crate_name: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let tokens = &lexed.tokens;
    let mask = test_mask(tokens);
    let mut diags = Vec::new();

    for info in RULES {
        if !applies(info, crate_name) {
            continue;
        }
        let found = match info.name {
            "no-panic-in-lib" => no_panic_in_lib(tokens, &mask),
            "nan-unsafe-float" => nan_unsafe_float(tokens, &mask),
            "lossy-time-cast" => lossy_time_cast(tokens, &mask),
            "result-api" => result_api(tokens, &mask),
            "unchecked-indexing" => unchecked_indexing(tokens, &mask),
            "silent-drop" => silent_drop(tokens, &mask),
            "raw-thread-spawn" => raw_thread_spawn(tokens, &mask),
            "hot-sort" => hot_sort(rel, crate_name, tokens, &mask),
            "non-atomic-persist" => non_atomic_persist(rel, tokens, &mask),
            "bare-allow" => bare_allow(lexed),
            _ => Vec::new(),
        };
        for (line, message) in found {
            diags.push(Diagnostic {
                rule: info.name,
                severity: info.severity,
                file: rel.to_string(),
                line,
                message,
                chain: Vec::new(),
            });
        }
    }

    // Drop duplicates (e.g. a sort_by comparator that also unwraps) and
    // suppressed findings, then order by position. `bare-allow` is
    // exempt from suppression — a reasonless marker must not be able to
    // wave itself through.
    let mut seen = HashSet::new();
    diags.retain(|d| {
        if !seen.insert((d.rule, d.line)) {
            return false;
        }
        d.rule == "bare-allow" || !suppressed(lexed, d.rule, d.line)
    });
    diags.sort_by_key(|d| (d.line, d.rule));
    diags
}

/// Whether `rule` is suppressed at `line` by a `lint:allow` marker on
/// that line or the one above.
fn suppressed(lexed: &Lexed, rule: &str, line: u32) -> bool {
    [line, line.saturating_sub(1)].iter().any(|l| {
        lexed
            .suppressions
            .get(l)
            .is_some_and(|rules| rules.iter().any(|r| r == rule || r == "all"))
    })
}

/// Marks token ranges belonging to test code: any item annotated with an
/// attribute containing the `test` identifier (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`) — but not `#[cfg(not(test))]`.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let attr_end = match matching(tokens, i + 1, '[', ']') {
                Some(e) => e,
                None => break,
            };
            let attr = &tokens[i + 2..attr_end];
            let is_test_attr =
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"));
            if is_test_attr {
                // Skip any further attributes, then mask the item body.
                let mut j = attr_end + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct('#') && tokens[j + 1].is_punct('[')
                {
                    match matching(tokens, j + 1, '[', ']') {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                // The item ends at its first top-level `{...}` block, or
                // at `;` for forms like `mod tests;`.
                let mut k = j;
                let mut body_end = None;
                while k < tokens.len() {
                    if tokens[k].is_punct(';') {
                        body_end = Some(k);
                        break;
                    }
                    if tokens[k].is_punct('{') {
                        body_end = matching(tokens, k, '{', '}');
                        break;
                    }
                    k += 1;
                }
                let end = body_end.unwrap_or(tokens.len() - 1);
                for slot in &mut mask[i..=end.min(tokens.len() - 1)] {
                    *slot = true;
                }
                i = end + 1;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// Index of the closer matching the opener at `open_idx`.
pub(crate) fn matching(
    tokens: &[Token],
    open_idx: usize,
    open: char,
    close: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule implementations. Each returns `(line, message)` pairs.
// ---------------------------------------------------------------------

fn no_panic_in_lib(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] || tokens[i].kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
        let next_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct('!'));
        match tokens[i].text.as_str() {
            "unwrap" | "expect" if prev_dot && next_paren => out.push((
                tokens[i].line,
                format!(
                    ".{}() can panic; return a Result/Option or justify with lint:allow",
                    tokens[i].text
                ),
            )),
            "panic" | "unimplemented" | "todo" if next_bang => out.push((
                tokens[i].line,
                format!(
                    "{}! can abort library callers; return an error instead",
                    tokens[i].text
                ),
            )),
            _ => {}
        }
    }
    out
}

/// Comparator methods whose closures must not use `partial_cmp`.
const COMPARATOR_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "max_by",
    "min_by",
    "binary_search_by",
];

fn nan_unsafe_float(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] || tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let has_call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if name == "partial_cmp" && has_call {
            // `partial_cmp(..).unwrap()` / `.expect(..)`: NaN panics.
            if let Some(close) = matching(tokens, i + 1, '(', ')') {
                let chained_panic = tokens.get(close + 1).is_some_and(|t| t.is_punct('.'))
                    && tokens
                        .get(close + 2)
                        .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
                if chained_panic {
                    out.push((
                        tokens[i].line,
                        "partial_cmp(..).unwrap() panics on NaN; use total_cmp".to_string(),
                    ));
                }
            }
        } else if COMPARATOR_METHODS.contains(&name) && has_call {
            if let Some(close) = matching(tokens, i + 1, '(', ')') {
                if tokens[i + 1..close]
                    .iter()
                    .any(|t| t.is_ident("partial_cmp"))
                {
                    out.push((
                        tokens[i].line,
                        format!("{name} comparator uses partial_cmp; use total_cmp for a NaN-safe total order"),
                    ));
                }
            }
        }
    }
    out
}

/// Identifier name parts that mark a value as a timestamp or duration.
const TIME_NAME_PARTS: &[&str] = &[
    "ts",
    "time",
    "timestamp",
    "millis",
    "ms",
    "micros",
    "nanos",
    "secs",
    "dur",
    "duration",
    "epoch",
    "elapsed",
    "deadline",
];

/// Numeric types an `as` cast can target.
const NUM_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

fn time_named(ident: &str) -> bool {
    ident
        .split('_')
        .any(|part| TIME_NAME_PARTS.contains(&part.to_ascii_lowercase().as_str()))
}

fn lossy_time_cast(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] || !tokens[i].is_ident("as") {
            continue;
        }
        let casts_to_num = tokens
            .get(i + 1)
            .is_some_and(|t| t.kind == TokKind::Ident && NUM_TYPES.contains(&t.text.as_str()));
        if !casts_to_num {
            continue;
        }
        // Walk back over call/index/field plumbing to the nearest
        // identifier naming the casted expression.
        let mut j = i;
        let mut budget = 8;
        while j > 0 && budget > 0 {
            j -= 1;
            budget -= 1;
            let t = &tokens[j];
            if t.kind == TokKind::Ident {
                if time_named(&t.text) {
                    out.push((
                        tokens[i].line,
                        format!(
                            "`{} as {}` silently truncates/wraps; use a checked or widening conversion",
                            t.text,
                            tokens[i + 1].text
                        ),
                    ));
                }
                break;
            }
            if t.kind == TokKind::Num
                || t.is_punct('.')
                || t.is_punct(')')
                || t.is_punct('(')
                || t.is_punct(']')
                || t.is_punct('[')
            {
                continue;
            }
            break;
        }
    }
    out
}

fn result_api(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if mask[i] || !tokens[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` visibility qualifier.
        if tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            match matching(tokens, j, '(', ')') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        if !tokens.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        let fn_line = tokens[i].line;
        let fn_name = tokens
            .get(j + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut k = j + 2;
        // Generic parameters.
        if tokens.get(k).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while k < tokens.len() {
                if tokens[k].is_punct('<') {
                    depth += 1;
                } else if tokens[k].is_punct('>') {
                    // Ignore `->` arrows inside bounds.
                    if !(k > 0 && tokens[k - 1].is_punct('-')) {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                }
                k += 1;
            }
        }
        // Argument list.
        if !tokens.get(k).is_some_and(|t| t.is_punct('(')) {
            i = k;
            continue;
        }
        let args_end = match matching(tokens, k, '(', ')') {
            Some(e) => e,
            None => break,
        };
        k = args_end + 1;
        // Return type up to the body/`;`.
        let mut returns_result = false;
        if tokens.get(k).is_some_and(|t| t.is_punct('-'))
            && tokens.get(k + 1).is_some_and(|t| t.is_punct('>'))
        {
            let mut r = k + 2;
            while r < tokens.len() {
                let t = &tokens[r];
                if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                    break;
                }
                if t.is_ident("Result") || t.is_ident("Option") {
                    returns_result = true;
                }
                r += 1;
            }
            k = r;
        }
        // Skip a where clause to the body.
        while k < tokens.len() && !tokens[k].is_punct('{') && !tokens[k].is_punct(';') {
            k += 1;
        }
        if tokens.get(k).is_some_and(|t| t.is_punct('{')) {
            let body_end = match matching(tokens, k, '{', '}') {
                Some(e) => e,
                None => break,
            };
            if !returns_result {
                let unwraps = (k..body_end).any(|b| {
                    !mask[b]
                        && (tokens[b].is_ident("unwrap") || tokens[b].is_ident("expect"))
                        && b > 0
                        && tokens[b - 1].is_punct('.')
                        && tokens.get(b + 1).is_some_and(|t| t.is_punct('('))
                });
                if unwraps {
                    out.push((
                        fn_line,
                        format!(
                            "pub fn {fn_name} unwraps internally but does not return Result; surface the failure"
                        ),
                    ));
                }
            }
            i = body_end + 1;
            continue;
        }
        i = k + 1;
    }
    out
}

fn unchecked_indexing(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 1..tokens.len() {
        if mask[i] || !tokens[i].is_punct('[') {
            continue;
        }
        // Index position: the bracket follows a completed expression,
        // not a keyword that opens a pattern (`let [a, b] = ..`) or an
        // array expression.
        let prev = &tokens[i - 1];
        let index_pos = prev.kind == TokKind::Ident
            && !["mut", "return", "let", "in"]
                .iter()
                .any(|k| prev.is_ident(k))
            || prev.is_punct(']')
            || prev.is_punct(')');
        if !index_pos {
            continue;
        }
        if let Some(close) = matching(tokens, i, '[', ']') {
            // Only flag runtime indices (an identifier inside); literal
            // `xs[0]` and full-range `xs[..]` are usually intentional.
            let runtime = tokens[i + 1..close]
                .iter()
                .any(|t| t.kind == TokKind::Ident && !NUM_TYPES.contains(&t.text.as_str()));
            if runtime {
                out.push((
                    tokens[i].line,
                    "indexing with a runtime value can panic; prefer .get() or justify bounds"
                        .to_string(),
                ));
            }
        }
    }
    out
}

fn silent_drop(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 2 < tokens.len() {
        if mask[i]
            || !tokens[i].is_ident("let")
            || !tokens[i + 1].is_ident("_")
            || !tokens[i + 2].is_punct('=')
        {
            i += 1;
            continue;
        }
        // Scan the initializer to its terminating `;` at bracket depth
        // zero; the discard is silent only if something in it is called
        // (a function/method call or a macro invocation) — dropping a
        // plain value binds nothing fallible.
        let mut j = i + 3;
        let mut depth = 0i32;
        let mut calls = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                break;
            }
            if t.kind == TokKind::Ident {
                let next = tokens.get(j + 1);
                let call = next.is_some_and(|n| n.is_punct('('));
                let mac = next.is_some_and(|n| n.is_punct('!'))
                    && tokens
                        .get(j + 2)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'));
                if call || mac {
                    calls = true;
                }
            }
            j += 1;
        }
        if calls {
            out.push((
                tokens[i].line,
                "`let _ =` silently discards the call's result; handle the error, match it, or justify with lint:allow".to_string(),
            ));
        }
        i = j + 1;
    }
    out
}

fn raw_thread_spawn(tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] || !tokens[i].is_ident("thread") {
            continue;
        }
        // `thread::spawn` / `std::thread::spawn` (`::` lexes as two
        // `:` puncts). Scoped `s.spawn(..)` is `.`-qualified and never
        // matches; `logdep_par::scope` is the sanctioned entry point.
        let spawns = tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 3).is_some_and(|t| t.is_ident("spawn"));
        if spawns {
            out.push((
                tokens[i].line,
                "thread::spawn outside crates/par bypasses the deterministic pool; use logdep_par::{scope, par_map, par_chunks_fold}".to_string(),
            ));
        }
    }
    out
}

/// Comparator-sort methods that reintroduce O(n log n) work per call.
const HOT_SORT_METHODS: &[&str] = &["sort_by", "sort_unstable_by"];

/// Comparator sorts in the distance-mining hot paths. The L1 kernel and
/// the logstore timeline are the pipeline's per-slot inner loops; the
/// merge-sweep rewrite removed their comparator sorts in favour of
/// O(n+m) sweeps and cheap sorted-run merges, and this rule keeps them
/// out. Scope is `crates/logstore` and `crates/core/src/l1` only —
/// elsewhere in core a comparator sort is fine. Justified uses carry
/// `// lint:allow(hot-sort)`.
fn hot_sort(rel: &str, crate_name: &str, tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    let hot = crate_name == "logstore" || (crate_name == "core" && rel.contains("/l1/"));
    if !hot {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if mask[i] || tokens[i].kind != TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let is_method_call = i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        if HOT_SORT_METHODS.contains(&name) && is_method_call {
            out.push((
                tokens[i].line,
                format!(
                    ".{name}() in a distance-mining hot path; use the merge-sweep kernels \
                     (dists_to_*_sorted) or a sorted-run merge, or justify with lint:allow"
                ),
            ));
        }
    }
    out
}

/// Name parts that mark a path as persistent pipeline state — the files
/// the crash-recovery guarantee covers.
const PERSIST_NAME_PARTS: &[&str] = &[
    "cache",
    "journal",
    "checkpoint",
    "quarantine",
    "ledger",
    "snapshot",
    "baseline",
];

fn persist_named(ident: &str) -> bool {
    ident
        .split('_')
        .any(|part| PERSIST_NAME_PARTS.contains(&part.to_ascii_lowercase().as_str()))
}

/// Direct `fs::write` / `File::create` aimed at a persistent-state path.
/// A torn write there is exactly the corruption the durable store exists
/// to rule out: such paths must go through `logdep::durable` (its
/// `persist_atomic` helper, or the checkpoint/journal writers), which
/// write-to-temp + rename and checksum everything. The durable writer
/// itself is the one sanctioned home for the raw calls.
fn non_atomic_persist(rel: &str, tokens: &[Token], mask: &[bool]) -> Vec<(u32, String)> {
    if rel.ends_with("crates/core/src/durable.rs") {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 3..tokens.len() {
        if mask[i] || tokens[i].kind != TokKind::Ident {
            continue;
        }
        // `fs :: write (` / `File :: create (` — `::` lexes as two `:`
        // puncts. Only the `::`-qualified std forms match; method calls
        // like `w.write(..)` are `.`-qualified and never do.
        let qualified = |head: &str| {
            tokens[i - 1].is_punct(':')
                && tokens[i - 2].is_punct(':')
                && tokens[i - 3].is_ident(head)
        };
        let call = tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
        let hit = call
            && ((tokens[i].is_ident("write") && qualified("fs"))
                || (tokens[i].is_ident("create") && qualified("File")));
        if !hit {
            continue;
        }
        if let Some(close) = matching(tokens, i + 1, '(', ')') {
            let persisty = tokens[i + 2..close].iter().any(|t| match t.kind {
                TokKind::Ident => persist_named(&t.text),
                TokKind::Str => PERSIST_NAME_PARTS
                    .iter()
                    .any(|part| t.text.to_ascii_lowercase().contains(part)),
                _ => false,
            });
            if persisty {
                out.push((
                    tokens[i].line,
                    "non-atomic write to persistent state; route it through \
                     logdep::durable::persist_atomic (or the durable store) so a crash \
                     cannot tear it"
                        .to_string(),
                ));
            }
        }
    }
    out
}

/// Suppression markers that carry no justification. The marker still
/// suppresses its target rule — but the missing reason is itself a deny,
/// so the tree cannot accumulate unexplained escapes.
fn bare_allow(lexed: &Lexed) -> Vec<(u32, String)> {
    lexed
        .bare_allows
        .iter()
        .map(|&line| {
            (
                line,
                "lint:allow without a justification; append `— <why this is sound>`".to_string(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_as(rel: &str, src: &str) -> Vec<Diagnostic> {
        lint_source(rel, src)
    }

    #[test]
    fn classify_scopes_crate_sources_only() {
        assert_eq!(
            classify("crates/stats/src/ranks.rs"),
            FileScope::CrateSrc("stats".into())
        );
        assert_eq!(
            classify("crates/stats/tests/proptests.rs"),
            FileScope::Unscoped
        );
        assert_eq!(classify("tests/src/lib.rs"), FileScope::Unscoped);
        assert_eq!(classify("vendor/rand/src/lib.rs"), FileScope::Unscoped);
        assert_eq!(classify("crates/xtask/src/main.rs"), FileScope::Unscoped);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            pub fn good() -> u32 { 1 }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("boom"); }
            }
        "#;
        assert!(lint_as("crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
            #[cfg(not(test))]
            pub fn bad() { Some(1).unwrap(); }
        "#;
        let diags = lint_as("crates/stats/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == "no-panic-in-lib"));
    }

    #[test]
    fn suppression_on_same_or_previous_line() {
        let src = "fn f() {\n    x.unwrap(); // lint:allow(no-panic-in-lib) justified\n    // lint:allow(no-panic-in-lib)\n    y.unwrap();\n    z.unwrap();\n}\n";
        let diags = lint_as("crates/core/src/x.rs", src);
        let lines: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == "no-panic-in-lib")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![5], "only the unsuppressed unwrap remains");
    }

    #[test]
    fn raw_thread_spawn_denied_outside_par() {
        let src = r#"
            pub fn bad() {
                std::thread::spawn(|| {});
                thread::spawn(work);
            }
        "#;
        let diags = lint_as("crates/core/src/x.rs", src);
        let hits: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == "raw-thread-spawn")
            .map(|d| d.line)
            .collect();
        assert_eq!(hits, vec![3, 4]);
        assert_eq!(
            rule("raw-thread-spawn").map(|r| r.severity),
            Some(Severity::Deny)
        );
    }

    #[test]
    fn raw_thread_spawn_exempts_par_scoped_spawn_and_tests() {
        // The par crate itself is out of scope.
        let src = "pub fn pool() { std::thread::spawn(|| {}); }";
        assert!(lint_as("crates/par/src/lib.rs", src).is_empty());
        // Scoped spawns and the sanctioned wrapper never match.
        let src = r#"
            pub fn fine() {
                logdep_par::scope(|s| { s.spawn(|| {}); });
                std::thread::scope(|s| { s.spawn(|| {}); });
            }
        "#;
        assert!(lint_as("crates/core/src/x.rs", src)
            .iter()
            .all(|d| d.rule != "raw-thread-spawn"));
        // Test code is exempt, as everywhere else.
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { std::thread::spawn(|| {}); }
            }
        "#;
        assert!(lint_as("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }";
        assert!(lint_as("crates/core/src/x.rs", src)
            .iter()
            .all(|d| d.rule != "no-panic-in-lib"));
    }
}
