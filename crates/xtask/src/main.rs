//! Workspace automation tasks, invoked as `cargo xtask <command>`.
//!
//! The only command today is `lint`, the custom static-analysis pass
//! described in DESIGN.md's "Lint registry" section: it lexes every
//! workspace `.rs` file in parallel, runs the per-file rules, then
//! builds a workspace symbol table + call graph and runs the graph
//! rules (nondeterminism-taint, panic-reach, fingerprint-completeness)
//! over it. Every finding is a deny.
//!
//! ```text
//! cargo xtask lint                    # human-readable report, exit 1 on deny
//! cargo xtask lint --format json      # machine-readable report (CI)
//! cargo xtask lint --list             # print the rule registry
//! cargo xtask lint --root <dir>       # lint a different tree (tests)
//! ```

mod graph;
mod lexer;
mod lint;
mod taint;

use lint::{Diagnostic, RULES};
use logdep_par::ParConfig;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some(other) => {
            eprintln!("unknown command `{other}`; available: lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint [--format human|json] [--list] [--root <dir>]");
            ExitCode::FAILURE
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut format = Format::Human;
    let mut root: Option<PathBuf> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => match iter.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format expects `human` or `json`, got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for rule in RULES {
                    println!(
                        "{:<28} [{}]  {}",
                        rule.name,
                        rule.scope.join(", "),
                        rule.summary
                    );
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match iter.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown lint option `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let started = Instant::now();
    let root = root.unwrap_or_else(workspace_root);
    let paths = collect_rs_files(&root);
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = relative_label(&root, path);
        match std::fs::read_to_string(path) {
            Ok(src) => files.push((rel, src)),
            Err(err) => eprintln!("warning: could not read {rel}: {err}"),
        }
    }
    let diagnostics = lint::lint_workspace(&files, &ParConfig::default());
    let elapsed_ms = started.elapsed().as_millis() as u64;

    let denies = diagnostics.len();

    match format {
        Format::Human => {
            for d in &diagnostics {
                println!("{}:{} deny[{}]: {}", d.file, d.line, d.rule, d.message);
                if !d.chain.is_empty() {
                    println!("    via: {}", d.chain.join(" → "));
                }
            }
            println!(
                "lint: {} files scanned, {denies} deny, {elapsed_ms} ms",
                files.len()
            );
        }
        Format::Json => {
            let report = Value::Object(vec![
                ("files_scanned".into(), Value::U64(files.len() as u64)),
                ("deny".into(), Value::U64(denies as u64)),
                ("elapsed_ms".into(), Value::U64(elapsed_ms)),
                (
                    "diagnostics".into(),
                    Value::Array(diagnostics.iter().map(diag_to_value).collect()),
                ),
            ]);
            match serde_json::to_string_pretty(&report) {
                Ok(text) => println!("{text}"),
                Err(err) => {
                    eprintln!("could not serialize report: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }

    if denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn diag_to_value(d: &Diagnostic) -> Value {
    Value::Object(vec![
        ("rule".into(), Value::Str(d.rule.to_string())),
        ("file".into(), Value::Str(d.file.clone())),
        ("line".into(), Value::U64(u64::from(d.line))),
        ("message".into(), Value::Str(d.message.clone())),
        (
            "chain".into(),
            Value::Array(d.chain.iter().map(|c| Value::Str(c.clone())).collect()),
        ),
    ])
}

/// The workspace root: two levels above this crate's manifest dir.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    ".git",
    ".cargo",
    "fixtures",
    "node_modules",
];

/// All `.rs` files under `root`, depth-first, skipping build output,
/// vendored stand-ins, and lint fixtures.
fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Repo-relative, `/`-separated label for diagnostics.
fn relative_label(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod fixture_tests {
    //! End-to-end checks over the seeded-violation fixture files in
    //! `crates/xtask/fixtures/`. Each fixture is linted as if it lived
    //! in a scoped crate, and must produce exactly the violations it
    //! seeds.

    use crate::lint::{lint_source, lint_workspace, rule, Diagnostic};
    use logdep_par::ParConfig;

    fn fixture(name: &str) -> String {
        let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    /// Lints fixture files as if they lived at the given workspace
    /// paths, so the graph rules see a multi-module crate.
    fn workspace(pairs: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<(String, String)> = pairs
            .iter()
            .map(|(rel, name)| (rel.to_string(), fixture(name)))
            .collect();
        lint_workspace(&files, &ParConfig::default())
    }

    #[test]
    fn registry_is_well_formed() {
        for info in crate::lint::RULES {
            assert!(rule(info.name).is_some());
            assert!(!info.scope.is_empty(), "{} has no scope", info.name);
            assert!(!info.summary.is_empty());
        }
    }

    #[test]
    fn catches_nan_unsafe_comparators() {
        let diags = lint_source("crates/stats/src/fixture.rs", &fixture("nan_float.rs"));
        let nan: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "nan-unsafe-float")
            .collect();
        assert_eq!(nan.len(), 2, "diags: {diags:?}");
        // The total_cmp sort must NOT be flagged.
        assert!(
            nan.iter().all(|d| d.line != 14),
            "total_cmp flagged: {nan:?}"
        );
    }

    #[test]
    fn catches_lossy_time_casts() {
        let diags = lint_source("crates/logstore/src/fixture.rs", &fixture("time_cast.rs"));
        let casts: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "lossy-time-cast")
            .collect();
        assert_eq!(casts.len(), 3, "diags: {diags:?}");
    }

    #[test]
    fn catches_silent_result_drops() {
        let diags = lint_source("crates/logstore/src/fixture.rs", &fixture("silent_drop.rs"));
        let drops: Vec<_> = diags.iter().filter(|d| d.rule == "silent-drop").collect();
        assert_eq!(drops.len(), 2, "diags: {diags:?}");
        // Named bindings, plain-value drops, suppressed sites, and test
        // code must all stay clean.
        assert!(
            drops.iter().all(|d| d.line == 7 || d.line == 11),
            "diags: {drops:?}"
        );
    }

    #[test]
    fn catches_hot_path_comparator_sorts() {
        // Timeline crate: every file is hot.
        let diags = lint_source("crates/logstore/src/fixture.rs", &fixture("hot_sort.rs"));
        let sorts: Vec<_> = diags.iter().filter(|d| d.rule == "hot-sort").collect();
        // Seeded: one sort_by and one sort_unstable_by; the derived-order
        // sort, the key sort, the suppressed call, and the test module
        // must all stay clean.
        let lines: Vec<u32> = sorts.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![6, 7], "diags: {diags:?}");
        assert!(sorts.iter().all(|d| d.message.contains("merge-sweep")));
        // Core crate: only the L1 kernel directory is hot.
        let diags = lint_source("crates/core/src/l1/fixture.rs", &fixture("hot_sort.rs"));
        assert_eq!(
            diags.iter().filter(|d| d.rule == "hot-sort").count(),
            2,
            "diags: {diags:?}"
        );
        let diags = lint_source("crates/core/src/fixture.rs", &fixture("hot_sort.rs"));
        assert!(
            diags.iter().all(|d| d.rule != "hot-sort"),
            "cold core path flagged: {diags:?}"
        );
    }

    #[test]
    fn catches_non_atomic_persistent_writes() {
        let diags = lint_source(
            "crates/cli/src/fixture.rs",
            &fixture("non_atomic_persist.rs"),
        );
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "non-atomic-persist")
            .collect();
        // Seeded: a cache-named path, a `.journal` string literal, and a
        // File::create of a checkpoint path; the data-path write, the
        // method-call write, the durable helper, the suppressed call,
        // and the test module must all stay clean.
        let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![6, 7, 8], "diags: {diags:?}");
        assert!(hits.iter().all(|d| d.message.contains("persist_atomic")));
        // The durable writer itself is the sanctioned home for raw writes.
        let diags = lint_source(
            "crates/core/src/durable.rs",
            &fixture("non_atomic_persist.rs"),
        );
        assert!(
            diags.iter().all(|d| d.rule != "non-atomic-persist"),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn suppressions_silence_seeded_violations() {
        let diags = lint_source("crates/stats/src/fixture.rs", &fixture("suppressed.rs"));
        assert!(diags.is_empty(), "diags: {diags:?}");
    }

    #[test]
    fn out_of_scope_crates_are_untouched() {
        let diags = lint_source("crates/cli/src/fixture.rs", &fixture("nan_float.rs"));
        assert!(diags.is_empty(), "cli is not a lib crate: {diags:?}");
    }

    #[test]
    fn taint_flags_nondeterminism_reachable_from_pipeline() {
        let diags = workspace(&[
            ("crates/core/src/pipe.rs", "taint_pipe.rs"),
            ("crates/core/src/util.rs", "taint_util.rs"),
            ("crates/core/src/health.rs", "taint_health.rs"),
        ]);
        let taint: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "nondeterminism-taint")
            .collect();
        // Seeded: the HashMap iteration in hash_counts, the Instant
        // read in stamp, and the Instant read in the health module's
        // time_detector (no module may read the clock). The BTreeMap
        // walk and the justified HashMap walk must stay clean.
        assert_eq!(taint.len(), 3, "diags: {diags:?}");
        let in_file = |f: &str| taint.iter().filter(|d| d.file == f).count();
        assert_eq!(in_file("crates/core/src/util.rs"), 2, "diags: {diags:?}");
        assert_eq!(in_file("crates/core/src/health.rs"), 1, "diags: {diags:?}");
        let hash = taint
            .iter()
            .find(|d| d.message.contains("HashMap/HashSet iteration"))
            .expect("hash-iteration diag");
        // The diagnostic must carry the full entry → fact call chain.
        assert!(
            hash.chain
                .first()
                .is_some_and(|c| c.contains("run_pipeline"))
                && hash.chain.last().is_some_and(|c| c.contains("hash_counts")),
            "chain: {:?}",
            hash.chain
        );
        assert!(taint
            .iter()
            .any(|d| d.message.contains("wall-clock") && d.message.contains("Instant")));
    }

    #[test]
    fn taint_stays_quiet_without_an_entry_point() {
        // Same helpers, but nothing named like a snapshot entry reaches
        // them — util.rs alone must not fire the taint rule.
        let diags = workspace(&[("crates/core/src/util.rs", "taint_util.rs")]);
        assert!(
            diags.iter().all(|d| d.rule != "nondeterminism-taint"),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn panic_reach_flags_pub_api_through_private_fn() {
        let diags = workspace(&[
            ("crates/stats/src/api.rs", "panic_api.rs"),
            ("crates/stats/src/inner.rs", "panic_inner.rs"),
        ]);
        let reach: Vec<_> = diags.iter().filter(|d| d.rule == "panic-reach").collect();
        // Only percentile: justified is suppressed at its definition,
        // safe calls the checked variant.
        assert_eq!(reach.len(), 1, "diags: {diags:?}");
        let d = reach[0];
        assert_eq!(d.file, "crates/stats/src/api.rs");
        assert!(d.message.contains("percentile"), "msg: {}", d.message);
        assert!(
            d.message.contains("crates/stats/src/inner.rs"),
            "msg: {}",
            d.message
        );
        assert!(
            d.chain.first().is_some_and(|c| c.contains("percentile"))
                && d.chain.last().is_some_and(|c| c.contains("pick")),
            "chain: {:?}",
            d.chain
        );
    }

    #[test]
    fn fingerprint_gaps_are_denied_and_suppressible() {
        let diags = workspace(&[("crates/core/src/fp.rs", "fingerprint.rs")]);
        let fp: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "fingerprint-completeness")
            .collect();
        // demo_fingerprint skips two_sided; full_fingerprint folds
        // everything; legacy_fingerprint is justified.
        assert_eq!(fp.len(), 1, "diags: {diags:?}");
        assert!(
            fp[0].message.contains("demo_fingerprint"),
            "msg: {}",
            fp[0].message
        );
        assert!(
            fp[0].message.contains("`two_sided`"),
            "msg: {}",
            fp[0].message
        );
        assert!(
            !fp[0].message.contains("slot_ms") && !fp[0].message.contains("alpha"),
            "folded fields reported missing: {}",
            fp[0].message
        );
    }

    #[test]
    fn instrumentation_gaps_are_denied_and_suppressible() {
        let diags = workspace(&[
            ("crates/core/src/pipe.rs", "instr_pipe.rs"),
            ("crates/core/src/window.rs", "instr_stages.rs"),
        ]);
        let instr: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "instrumentation-completeness")
            .collect();
        // Only run_silent: the driver and run_window_cached emit their
        // own pairs, run_tolerated is justified, inner_sum is private.
        assert_eq!(instr.len(), 1, "diags: {diags:?}");
        let d = instr[0];
        assert_eq!(d.file, "crates/core/src/window.rs");
        assert!(d.message.contains("run_silent"), "msg: {}", d.message);
        assert!(
            d.message.contains("span_begin") && d.message.contains("span_end"),
            "msg: {}",
            d.message
        );
        assert!(
            d.chain.first().is_some_and(|c| c.contains("run_pipeline"))
                && d.chain.last().is_some_and(|c| c.contains("run_silent")),
            "chain: {:?}",
            d.chain
        );
    }

    #[test]
    fn instrumentation_stays_quiet_without_a_driver() {
        // The stages alone, with no run_pipeline/run_daily_durable in
        // sight, must not fire: unreachable stages are dead code's
        // problem, not the trace's.
        let diags = workspace(&[("crates/core/src/window.rs", "instr_stages.rs")]);
        assert!(
            diags
                .iter()
                .all(|d| d.rule != "instrumentation-completeness"),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn bare_allows_are_denied_but_still_suppress() {
        let diags = workspace(&[("crates/stats/src/fixture.rs", "bare_allow.rs")]);
        let bare: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == "bare-allow")
            .map(|d| d.line)
            .collect();
        assert_eq!(bare, vec![7], "diags: {diags:?}");
        // Even a bare marker silences its target rule — the deny moves
        // the problem to the marker itself, not back to the comparator.
        assert!(
            diags.iter().all(|d| d.rule != "nan-unsafe-float"),
            "diags: {diags:?}"
        );
        // A reasoned marker naming a retired rule suppresses nothing and
        // is denied as stale.
        let unknown: Vec<_> = diags.iter().filter(|d| d.rule == "unknown-allow").collect();
        assert_eq!(unknown.len(), 1, "diags: {diags:?}");
        assert_eq!(unknown[0].line, 11);
        assert!(unknown[0].message.contains("lint:allow(no-panic-in-lib)"));
    }

    #[test]
    fn blocking_io_in_handlers_is_denied_and_suppressible() {
        let diags = workspace(&[
            ("crates/serve/src/handlers.rs", "serve_handlers.rs"),
            ("crates/serve/src/loader.rs", "serve_swap.rs"),
        ]);
        let blocking: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "blocking-io-in-handler")
            .collect();
        // Two violations: handle_stale reads the fs directly, and
        // handle_rebuild reaches the durable store through a helper.
        // handle_lookup is pure, handle_bootstrap is suppressed, and
        // the reload/swap path is legal — no handler reaches it.
        assert_eq!(blocking.len(), 2, "diags: {diags:?}");
        assert!(
            blocking
                .iter()
                .all(|d| d.file == "crates/serve/src/handlers.rs"),
            "diags: {blocking:?}"
        );
        let direct = blocking
            .iter()
            .find(|d| d.message.contains("handle_stale"))
            .expect("direct fs violation");
        assert!(direct.message.contains("fs::"), "msg: {}", direct.message);
        let chained = blocking
            .iter()
            .find(|d| d.message.contains("handle_rebuild"))
            .expect("chained durable violation");
        assert!(
            chained.message.contains("DurableStore"),
            "msg: {}",
            chained.message
        );
        assert!(
            chained
                .chain
                .first()
                .is_some_and(|c| c.contains("handle_rebuild"))
                && chained
                    .chain
                    .last()
                    .is_some_and(|c| c.contains("load_evidence")),
            "chain: {:?}",
            chained.chain
        );
        // The loader's own fs/durable calls never fire.
        assert!(
            diags
                .iter()
                .all(|d| d.rule != "blocking-io-in-handler"
                    || d.file != "crates/serve/src/loader.rs"),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn blocking_io_stays_quiet_without_handlers() {
        // The reload/swap path alone — fs and durable calls galore, but
        // no handle_* entry point in sight — must not fire.
        let diags = workspace(&[("crates/serve/src/loader.rs", "serve_swap.rs")]);
        assert!(
            diags.iter().all(|d| d.rule != "blocking-io-in-handler"),
            "diags: {diags:?}"
        );
    }
}
