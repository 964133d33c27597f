//! The lint engine: rule registry, crate scoping, test-code masking,
//! suppression handling, and the token-walking rule implementations.
//!
//! Rules operate on the comment-free token stream from [`crate::lexer`],
//! so string/comment contents can never produce false positives. Each
//! rule is scoped to the crates where its invariant matters (see
//! `RULES`); test code — `#[cfg(test)]` modules, `#[test]` functions,
//! and files under `tests/` or `benches/` — is exempt.
//!
//! Panics, indexing and raw thread spawns are clippy's concern (the
//! `[workspace.lints.clippy]` table, denied for [`LIB_CRATES`]); this
//! pass keeps only the rules clippy cannot express. Every finding is a
//! deny.
//!
//! A diagnostic can be suppressed by a `// lint:allow(<rule>)` comment
//! on the same line or the line directly above; suppressions must carry
//! a justification and name a registered rule, e.g.
//! `// lint:allow(silent-drop) — best-effort cleanup, failure is benign`.

use crate::graph::FileIndex;
use crate::lexer::{lex, Lexed, TokKind, Token};
use logdep_par::{par_map, ParConfig};
use std::collections::HashSet;

/// Static description of one rule in the registry.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name, used in output and `lint:allow(...)`.
    pub name: &'static str,
    /// One-line summary for `cargo xtask lint --list`.
    pub summary: &'static str,
    /// Crate directory names (under `crates/`) the rule applies to.
    pub scope: &'static [&'static str],
}

/// The library crates whose non-test code must not panic: exactly the
/// crates whose manifests opt into `[workspace.lints]` (clippy's panic,
/// indexing and spawn scope) and the crates `panic-reach` walks.
pub(crate) const LIB_CRATES: &[&str] = &[
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

/// The full lint registry. Adding a rule means adding an entry here and
/// an arm in [`lint_tokens`].
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "nan-unsafe-float",
        summary:
            "partial_cmp().unwrap() or partial_cmp inside sort/min/max comparators; use total_cmp",
        scope: &["core", "stats"],
    },
    RuleInfo {
        name: "lossy-time-cast",
        summary: "`as` cast on a timestamp/duration-named expression; use explicit conversions",
        scope: &["logstore", "sessions"],
    },
    RuleInfo {
        name: "silent-drop",
        summary: "`let _ =` discarding a call's Result in library code; handle or match the error",
        scope: LIB_CRATES,
    },
    RuleInfo {
        name: "hot-sort",
        summary: "comparator sort (sort_by/sort_unstable_by) in the L1/timeline hot paths; \
                  prefer the merge-sweep kernels or sorted-run merges",
        scope: &["core", "logstore"],
    },
    RuleInfo {
        name: "non-atomic-persist",
        summary: "direct fs::write/File::create to persistent-state paths (cache, journal, \
                  checkpoint, ledger, ...) outside the durable writer; use persist_atomic",
        scope: ALL_CRATES,
    },
    RuleInfo {
        name: "bare-allow",
        summary: "lint:allow(..) without a justification after the closing paren; \
                  append `— why this is sound`",
        scope: ALL_CRATES,
    },
    RuleInfo {
        name: "unknown-allow",
        summary: "lint:allow(..) naming no registered rule; it suppresses nothing",
        scope: ALL_CRATES,
    },
    RuleInfo {
        name: "nondeterminism-taint",
        summary: "call path from a snapshot/cache entry point to HashMap iteration, \
                  wall-clock, env, or available_parallelism outside their sanctioned homes",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "fingerprint-completeness",
        summary: "a *Config struct field never folded by its *_fingerprint fn; \
                  the evidence cache would replay stale entries",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "panic-reach",
        summary: "pub library API that transitively calls into an unsuppressed panic site",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "blocking-io-in-handler",
        summary: "fs::* or durable-store call reachable from a serve request handler \
                  (handle_* fn); snapshot loads must go through the reload/swap path",
        scope: WORKSPACE,
    },
    RuleInfo {
        name: "instrumentation-completeness",
        summary: "pipeline entry point reachable from the drivers that never emits a \
                  begin/end trace event pair; the run report would silently miss the stage",
        scope: WORKSPACE,
    },
];

/// Looks up a rule by name.
pub fn rule(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One finding, pointing at a source line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
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
#[cfg(test)]
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
            "nan-unsafe-float" => nan_unsafe_float(tokens, &mask),
            "lossy-time-cast" => lossy_time_cast(tokens, &mask),
            "silent-drop" => silent_drop(tokens, &mask),
            "hot-sort" => hot_sort(rel, crate_name, tokens, &mask),
            "non-atomic-persist" => non_atomic_persist(rel, tokens, &mask),
            "bare-allow" => bare_allow(lexed),
            "unknown-allow" => unknown_allow(lexed),
            _ => Vec::new(),
        };
        for (line, message) in found {
            diags.push(Diagnostic {
                rule: info.name,
                file: rel.to_string(),
                line,
                message,
                chain: Vec::new(),
            });
        }
    }

    // Drop duplicates and suppressed findings, then order by position.
    // The marker rules are exempt from suppression — a reasonless or
    // stale marker must not be able to wave itself through.
    let mut seen = HashSet::new();
    diags.retain(|d| {
        if !seen.insert((d.rule, d.line)) {
            return false;
        }
        matches!(d.rule, "bare-allow" | "unknown-allow") || !suppressed(lexed, d.rule, d.line)
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

/// Suppression markers naming a rule that is not registered (a typo, or
/// a retired rule). Such a marker suppresses nothing, so it is denied
/// rather than left to read as a justified escape.
fn unknown_allow(lexed: &Lexed) -> Vec<(u32, String)> {
    lexed
        .suppressions
        .iter()
        .filter_map(|(&line, rules)| {
            let unknown: Vec<&str> = rules
                .iter()
                .map(String::as_str)
                .filter(|r| *r != "all" && rule(r).is_none())
                .collect();
            (!unknown.is_empty()).then(|| {
                let names = unknown.join(", ");
                (
                    line,
                    format!(
                        "lint:allow({names}) names no registered rule and suppresses nothing; \
                         see `cargo xtask lint --list`"
                    ),
                )
            })
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
                fn t() { let _ = std::fs::remove_file("scratch"); }
            }
        "#;
        assert!(lint_as("crates/stats/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = r#"
            #[cfg(not(test))]
            pub fn bad() { let _ = cleanup(); }
        "#;
        let diags = lint_as("crates/stats/src/x.rs", src);
        assert!(diags.iter().any(|d| d.rule == "silent-drop"));
    }

    #[test]
    fn suppression_on_same_or_previous_line() {
        let src = "fn f() {\n    let _ = a(); // lint:allow(silent-drop) justified\n    // lint:allow(silent-drop)\n    let _ = b();\n    let _ = c();\n}\n";
        let diags = lint_as("crates/core/src/x.rs", src);
        let lines: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == "silent-drop")
            .map(|d| d.line)
            .collect();
        assert_eq!(lines, vec![5], "only the unsuppressed drop remains");
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        // Only unwrap()/expect() are panic sites: panic-reach traces a
        // pub API through `helper` to its unwrap, not to its variants.
        let reach = |body: &str| {
            let src = format!(
                "pub fn api(a: Option<u32>) -> u32 {{ helper(a) }}\nfn helper(a: Option<u32>) -> u32 {{ {body} }}\n"
            );
            let files = vec![("crates/core/src/x.rs".to_string(), src)];
            lint_workspace(&files, &ParConfig::default())
                .iter()
                .filter(|d| d.rule == "panic-reach")
                .count()
        };
        assert_eq!(reach("a.unwrap()"), 1);
        assert_eq!(
            reach("a.unwrap_or(0) + a.unwrap_or_else(|| 1) + a.unwrap_or_default()"),
            0
        );
    }

    /// The concerns the retired token rules covered (panics, indexing,
    /// raw spawns) stay denied by clippy.
    #[test]
    fn clippy_denies_panics_indexing_and_spawns() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read Cargo.toml");
        let (_, table) = manifest
            .split_once("[workspace.lints.clippy]")
            .expect("a workspace clippy table");
        let table = table.split("\n[").next().unwrap_or(table);
        for lint in [
            "unwrap_used",
            "expect_used",
            "panic",
            "unimplemented",
            "todo",
            "indexing_slicing",
            "string_slice",
            "disallowed_methods",
        ] {
            let deny = format!("{lint}=\"deny\"");
            assert!(
                table.lines().any(|l| l.replace(' ', "") == deny),
                "{lint} is not denied"
            );
        }
        let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
        assert!(clippy.contains(r#"path = "std::thread::spawn""#));
    }

    #[test]
    fn unknown_allow_names_only_the_unregistered_rules() {
        let src = "fn f() {\n    // lint:allow(all) — anything goes here\n    // lint:allow(silent-drop, nan-unsafe-flaot) — one name is a typo\n}\n";
        let diags = lint_as("crates/cli/src/x.rs", src);
        let unknown: Vec<_> = diags.iter().filter(|d| d.rule == "unknown-allow").collect();
        assert_eq!(unknown.len(), 1, "diags: {diags:?}");
        assert_eq!(unknown[0].line, 3);
        assert!(unknown[0].message.contains("lint:allow(nan-unsafe-flaot)"));
    }

    /// Clippy's panic, indexing and spawn lints reach exactly the crates
    /// whose manifests opt into `[workspace.lints]`; `panic-reach` walks
    /// `LIB_CRATES`. The two scopes must be the same list.
    #[test]
    fn lib_crates_are_the_workspace_lint_crates() {
        let crates_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask lives under crates/");
        let mut opted_in: Vec<String> = std::fs::read_dir(crates_dir)
            .expect("read crates/")
            .flatten()
            .filter(|entry| {
                let manifest = std::fs::read_to_string(entry.path().join("Cargo.toml"));
                manifest.is_ok_and(|text| opts_into_workspace_lints(&text))
            })
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .collect();
        opted_in.sort();
        let mut lib_crates: Vec<&str> = LIB_CRATES.to_vec();
        lib_crates.sort_unstable();
        assert_eq!(opted_in, lib_crates);
    }

    /// Whether a manifest's `[lints]` table sets `workspace = true`.
    fn opts_into_workspace_lints(manifest: &str) -> bool {
        let mut in_lints = false;
        manifest.lines().map(str::trim).any(|line| {
            if line.starts_with('[') {
                in_lints = line == "[lints]";
                return false;
            }
            in_lints && line.replace(' ', "") == "workspace=true"
        })
    }
}
