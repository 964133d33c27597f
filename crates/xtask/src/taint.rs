//! The graph-based rules: nondeterminism taint, interprocedural panic
//! reach, and cache-fingerprint completeness.
//!
//! All three consume the [`crate::graph`] symbol table. Taint and
//! panic-reach are reachability passes over the call graph; fingerprint
//! completeness is a field-set comparison between a `*Config` struct
//! and the body of its `*_fingerprint` fn. Diagnostics carry the full
//! entry-point → violation call chain so a deny is actionable without
//! re-deriving the path by hand.

use crate::graph::{CallGraph, FactKind, FileIndex};
use crate::lint::{Diagnostic, LIB_CRATES};

/// Runs all graph rules over the indexed workspace.
pub fn graph_rules(files: &[FileIndex]) -> Vec<Diagnostic> {
    let graph = CallGraph::build(files);
    let mut out = Vec::new();
    out.extend(nondeterminism_taint(&graph));
    out.extend(panic_reach(&graph));
    out.extend(fingerprint_completeness(files));
    out.extend(instrumentation_completeness(&graph));
    out.extend(blocking_io_in_handler(&graph));
    out
}

/// Whether fn `id` is a snapshot/serialization/cache entry point: the
/// pipeline driver, any pub fn in the cache or windowed-cache modules,
/// or a pub `summarize*`/`snapshot*` fn.
fn is_taint_entry(graph: &CallGraph, id: usize) -> bool {
    let def = graph.def(id);
    let file = graph.file(id);
    if file.crate_name == "core" && def.name == "run_pipeline" {
        return true;
    }
    if def.is_pub
        && (file.rel.ends_with("crates/core/src/cache.rs")
            || file.rel.ends_with("crates/core/src/window.rs"))
    {
        return true;
    }
    def.is_pub && (def.name.starts_with("summarize") || def.name.starts_with("snapshot"))
}

/// Whether a nondeterminism fact of `kind` is sanctioned where it sits.
/// Env reads and hardware introspection belong to the `par` config
/// layer; a wall-clock read is sanctioned nowhere, since the only clock
/// is the one a binary injects into the recorder.
fn fact_allowed(kind: FactKind, file: &FileIndex) -> bool {
    match kind {
        FactKind::WallClock | FactKind::HashIter => false,
        FactKind::EnvRead | FactKind::AvailPar => file.crate_name == "par",
        FactKind::PanicSite => true, // handled by panic-reach, not taint
    }
}

fn nondeterminism_taint(graph: &CallGraph) -> Vec<Diagnostic> {
    let entries: Vec<usize> = (0..graph.fns.len())
        .filter(|&id| is_taint_entry(graph, id))
        .collect();
    let parent = graph.reach(&entries);

    let mut out = Vec::new();
    for id in 0..graph.fns.len() {
        if parent[id].is_none() {
            continue;
        }
        let def = graph.def(id);
        let file = graph.file(id);
        for fact in &def.facts {
            if fact.kind == FactKind::PanicSite
                || fact_allowed(fact.kind, file)
                || file.suppressed("nondeterminism-taint", fact.line)
            {
                continue;
            }
            let chain = graph.chain_to(&parent, id);
            let entry = chain.first().cloned().unwrap_or_default();
            out.push(Diagnostic {
                rule: "nondeterminism-taint",
                file: file.rel.clone(),
                line: fact.line,
                message: format!(
                    "{} {} is reachable from snapshot entry point {}; path: {}",
                    fact.kind.describe(),
                    fact.detail,
                    entry,
                    chain.join(" → "),
                ),
                chain,
            });
        }
    }
    out
}

fn panic_reach(graph: &CallGraph) -> Vec<Diagnostic> {
    let n = graph.fns.len();
    // A fn "panics locally" when it owns a panic site in a lib crate
    // that no `lint:allow(panic-reach)` marker justifies; a justified
    // site is trusted — the justification covers every caller.
    let panics_locally: Vec<bool> = (0..n)
        .map(|id| {
            let file = graph.file(id);
            LIB_CRATES.contains(&file.crate_name.as_str())
                && graph.def(id).facts.iter().any(|f| {
                    f.kind == FactKind::PanicSite && !file.suppressed("panic-reach", f.line)
                })
        })
        .collect();

    // Fixed point: can_panic[u] = panics_locally[u] || any callee can.
    let mut can_panic = panics_locally.clone();
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, edges) in graph.edges.iter().enumerate() {
        for &(v, _) in edges {
            rev[v].push(u);
        }
    }
    let mut work: Vec<usize> = (0..n).filter(|&id| can_panic[id]).collect();
    while let Some(v) = work.pop() {
        for &u in &rev[v] {
            if !can_panic[u] {
                can_panic[u] = true;
                work.push(u);
            }
        }
    }

    let mut out = Vec::new();
    for id in 0..n {
        let def = graph.def(id);
        let file = graph.file(id);
        if !def.is_pub
            || !LIB_CRATES.contains(&file.crate_name.as_str())
            || panics_locally[id]      // the direct case is clippy's
            || !can_panic[id]
            || file.suppressed("panic-reach", def.line)
        {
            continue;
        }
        // Shortest path from this API to a panicking fn, for the chain.
        let parent = graph.reach(&[id]);
        let Some(target) = (0..n)
            .filter(|&t| panics_locally[t] && parent[t].is_some())
            .min_by_key(|&t| chain_len(&parent, t))
        else {
            continue;
        };
        let chain = graph.chain_to(&parent, target);
        let site = graph
            .def(target)
            .facts
            .iter()
            .find(|f| f.kind == FactKind::PanicSite)
            .map(|f| format!("{} at {}:{}", f.detail, graph.file(target).rel, f.line))
            .unwrap_or_default();
        out.push(Diagnostic {
            rule: "panic-reach",
            file: file.rel.clone(),
            line: def.line,
            message: format!(
                "pub fn {} can reach a panic ({site}); path: {}",
                graph.display_name(id),
                chain.join(" → "),
            ),
            chain,
        });
    }
    out
}

fn chain_len(parent: &[Option<(usize, u32)>], mut cur: usize) -> usize {
    let mut len = 0;
    while let Some((p, _)) = parent[cur] {
        if p == cur {
            break;
        }
        cur = p;
        len += 1;
    }
    len
}

/// The drivers of the instrumentation-completeness pass: the batch
/// pipeline, the durable daily runner, and the query server.
fn is_instr_root(graph: &CallGraph, id: usize) -> bool {
    let def = graph.def(id);
    let file = graph.file(id);
    (file.crate_name == "core" && (def.name == "run_pipeline" || def.name == "run_daily_durable"))
        || (file.crate_name == "serve" && def.name == "run_server")
}

/// The stage modules whose pub `run_*` entry points must be traced.
const INSTRUMENTED_MODULES: &[&str] = &[
    "crates/core/src/window.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/durable.rs",
    "crates/serve/src/loader.rs",
    "crates/serve/src/server.rs",
];

/// Whether fn `id` is an instrumentation target: the pipeline driver
/// itself, or a pub `run_*` stage entry point in one of the cached
/// window / durable modules.
fn is_instr_target(graph: &CallGraph, id: usize) -> bool {
    let def = graph.def(id);
    let file = graph.file(id);
    if file.crate_name == "core" && def.name == "run_pipeline" {
        return true;
    }
    def.is_pub
        && def.name.starts_with("run_")
        && INSTRUMENTED_MODULES.iter().any(|m| file.rel.ends_with(m))
}

/// Every pipeline entry point reachable from the drivers must emit a
/// begin/end trace event pair — directly or through a callee — or the
/// structured trace silently skips the stage and the RunReport lies by
/// omission. Private helpers are exempt: they may run on worker
/// threads, where emission is forbidden by the determinism contract.
fn instrumentation_completeness(graph: &CallGraph) -> Vec<Diagnostic> {
    let roots: Vec<usize> = (0..graph.fns.len())
        .filter(|&id| is_instr_root(graph, id))
        .collect();
    if roots.is_empty() {
        return Vec::new();
    }
    let parent = graph.reach(&roots);

    let mut out = Vec::new();
    for id in 0..graph.fns.len() {
        if parent[id].is_none() || !is_instr_target(graph, id) {
            continue;
        }
        let def = graph.def(id);
        let file = graph.file(id);
        if file.suppressed("instrumentation-completeness", def.line) {
            continue;
        }
        // The target emits when both span calls appear in its own body
        // or anywhere in its transitive callees.
        let sub = graph.reach(&[id]);
        let emits = |span_call: &str| {
            (0..graph.fns.len())
                .any(|t| sub[t].is_some() && graph.def(t).calls.iter().any(|c| c.name == span_call))
        };
        let missing: Vec<&str> = ["span_begin", "span_end"]
            .iter()
            .copied()
            .filter(|m| !emits(m))
            .collect();
        if missing.is_empty() {
            continue;
        }
        let chain = graph.chain_to(&parent, id);
        let entry = chain.first().cloned().unwrap_or_default();
        out.push(Diagnostic {
            rule: "instrumentation-completeness",
            file: file.rel.clone(),
            line: def.line,
            message: format!(
                "pipeline entry point {} never emits {}; every stage reachable from {} \
                 must record a begin/end event pair or the trace silently skips it; path: {}",
                graph.display_name(id),
                missing.join(" or "),
                entry,
                chain.join(" → "),
            ),
            chain,
        });
    }
    out
}

/// The serve request handlers (`handle_*` fns in the serve crate) must
/// never perform blocking I/O: no `fs::*`/`File::*` call, and no call
/// into the durable-store layer. Snapshot loads belong exclusively to
/// the reload/swap path, or a slow disk rides a request thread and the
/// bounded pool stalls.
///
/// Reachability is restricted to edges *within* the handler's crate:
/// method-call resolution over-approximates by name across the whole
/// workspace, and following those edges out of the serve crate would
/// flag every `.len()` that happens to share a name with a durable
/// method. The blocking facts themselves are explicit: an `fs`/`File`
/// qualified call, or a non-method call that resolves into
/// `crates/core/src/durable.rs` (or is `durable::`/`DurableStore::`
/// qualified).
fn blocking_io_in_handler(graph: &CallGraph) -> Vec<Diagnostic> {
    let entries: Vec<usize> = (0..graph.fns.len())
        .filter(|&id| {
            graph.file(id).crate_name == "serve" && graph.def(id).name.starts_with("handle_")
        })
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }

    // Same-crate BFS.
    let n = graph.fns.len();
    let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
    let mut queue = std::collections::VecDeque::new();
    for &e in &entries {
        if parent[e].is_none() {
            parent[e] = Some((e, 0));
            queue.push_back(e);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &(v, line) in &graph.edges[u] {
            if parent[v].is_none() && graph.file(v).crate_name == graph.file(u).crate_name {
                parent[v] = Some((u, line));
                queue.push_back(v);
            }
        }
    }

    const FS_QUALIFIERS: &[&str] = &["fs", "File", "OpenOptions", "DurableStore", "durable"];
    let mut out = Vec::new();
    for id in 0..n {
        if parent[id].is_none() {
            continue;
        }
        let def = graph.def(id);
        let file = graph.file(id);
        for call in &def.calls {
            let fs_qualified = call
                .qualifier
                .as_deref()
                .is_some_and(|q| FS_QUALIFIERS.contains(&q));
            // A non-method call resolving into the durable module; the
            // resolved edges are consulted so bare calls count too. The
            // callee name must match — several calls can share a line,
            // and a method edge there must not indict its neighbours.
            let into_durable = !call.is_method
                && graph.edges[id].iter().any(|&(v, line)| {
                    line == call.line
                        && graph.def(v).name == call.name
                        && graph.file(v).rel.ends_with("crates/core/src/durable.rs")
                });
            if !(fs_qualified || into_durable) {
                continue;
            }
            if file.suppressed("blocking-io-in-handler", call.line) {
                continue;
            }
            let chain = graph.chain_to(&parent, id);
            let entry = chain.first().cloned().unwrap_or_default();
            let callee = match &call.qualifier {
                Some(q) => format!("{}::{}", q, call.name),
                None => call.name.clone(),
            };
            out.push(Diagnostic {
                rule: "blocking-io-in-handler",
                file: file.rel.clone(),
                line: call.line,
                message: format!(
                    "blocking call {callee} is reachable from request handler {entry}; \
                     snapshot loads must go through the reload/swap path, never a \
                     request thread; path: {}",
                    chain.join(" → "),
                ),
                chain,
            });
        }
    }
    out
}

/// Pairs every `*_fingerprint(cfg: &XConfig, ..)` fn with the struct
/// `XConfig` and denies any struct field the body never projects — the
/// cache would serve stale evidence when that field changes.
fn fingerprint_completeness(files: &[FileIndex]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        for def in &file.fns {
            if !def.name.ends_with("_fingerprint") {
                continue;
            }
            let Some(cfg_type) = def.config_params.first() else {
                continue;
            };
            // Prefer a same-crate struct definition, else any.
            let found = files
                .iter()
                .filter(|f| f.crate_name == file.crate_name)
                .chain(files.iter())
                .flat_map(|f| f.structs.iter().map(move |s| (f, s)))
                .find(|(_, s)| &s.name == cfg_type);
            let Some((struct_file, strukt)) = found else {
                continue;
            };
            let missing: Vec<&str> = strukt
                .fields
                .iter()
                .filter(|f| !def.field_accesses.iter().any(|a| a == *f))
                .map(String::as_str)
                .collect();
            if missing.is_empty() || file.suppressed("fingerprint-completeness", def.line) {
                continue;
            }
            out.push(Diagnostic {
                rule: "fingerprint-completeness",
                file: file.rel.clone(),
                line: def.line,
                message: format!(
                    "{} never folds {} field{} `{}` ({} defined at {}:{}); a change there would silently replay stale cached evidence",
                    def.name,
                    cfg_type,
                    if missing.len() == 1 { "" } else { "s" },
                    missing.join("`, `"),
                    cfg_type,
                    struct_file.rel,
                    strukt.line,
                ),
                chain: Vec::new(),
            });
        }
    }
    out
}
