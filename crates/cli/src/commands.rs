//! The CLI subcommands.

use crate::args::Args;
use logdep::cache::EvidenceCache;
use logdep::durable::{
    persist_atomic, repair_store, run_daily_durable, verify_store, DailyPlan, NoopPolicy,
    RecoveryEvent,
};
use logdep::graph::DependencyGraph;
use logdep::health::PipelineConfig;
use logdep::l1::{run_l1_pool, L1Config};
use logdep::l2::{run_l2_pool, L2Config};
use logdep::l3::{run_l3_pool, L3Config};
use logdep::obs::{record, Field};
use logdep::window::{run_window_cached, WindowOutcome};
use logdep::{evolution, EdgeTarget, MineError, Model};
use logdep_faults::{inject as inject_faults, FaultConfig};
use logdep_logstore::codec::write_store;
use logdep_logstore::ingest::{read_store_resilient, IngestPolicy, IngestReport, WHOLE_CLOCK};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis, SourceId};
use logdep_par::ParConfig;
use logdep_serve::{run_server, ServeConfig, Server, SnapshotSource};
use logdep_sessions::{reconstruct, SessionConfig};
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate as run_sim, ServiceDirectory, SimConfig};
use logdep_textmatch::{cluster, ClusterConfig};
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::ops::RangeInclusive;

/// Help text shown by `logdep help`.
pub const HELP: &str = "\
logdep — dependency models mined from logs (Steinle et al., VLDB 2006)

commands:
  simulate  --out LOGS.tsv --directory DIR.xml [--days N --seed N --scale X]
  l1        --logs LOGS.tsv [--minlogs N --days N --threads N]
  l2        --logs LOGS.tsv [--timeout MS --days N --threads N]
  l3        --logs LOGS.tsv --directory DIR.xml [--stop-patterns FILE --days N
            --threads N]
  daily     --logs LOGS.tsv [--directory DIR.xml --window-days N --start-day N
            --advance-days N --steps N --cache CACHE.ck --resume --minlogs N
            --threads N --trace TRACE.jsonl --metrics --format text|json
            --wall-clock]
  cache     verify --cache CACHE.ck | repair --cache CACHE.ck
  sessions  --logs LOGS.tsv
  templates --logs LOGS.tsv --source APP [--support N]
  churn     --before A.tsv --after B.tsv [--layers l1,l2,l3 --threads N]
            [--directory DIR.xml (required with l3)]
  serve     --logs LOGS.tsv [--addr HOST:PORT --directory DIR.xml
            --store CACHE.ck --workers N --max-conns N
            --request-timeout-ms MS --window-days N --steps N]
  impact    --logs LOGS.tsv --directory DIR.xml --owners OWNERS.tsv
            [--app NAME | --symptoms \"A,B,C\"] [--threads N]
  inject    --logs LOGS.tsv --out FAULTY.tsv [--intensity X --seed N
            --ledger LEDGER.json]
  ingest    --logs LOGS.tsv [--max-error-fraction X --dedup BOOL
            --report REPORT.json --threads N]
  help

--threads N sets the worker-pool width for mining and for parsing the
log export (1 = the serial path; results are identical at every
width). Without the flag the LOGDEP_THREADS environment variable
decides, then the hardware.

With --cache the daily advance is crash-safe: every completed step is
journaled, the checkpoint is replaced atomically, and --resume picks a
killed run up from its last completed step. `cache verify` checks every
checksum read-only (exit 1 on corruption); `cache repair` quarantines
damage and rewrites a clean checkpoint.

Observability: `daily --trace T.jsonl` writes the structured run events
as JSON lines with logical sequence numbers — byte-identical across
runs and thread widths. `--metrics` prints a run report (per-detector
counts and timings, cache hit ratios, degraded-mode flags) as text or,
with `--format json`, as one JSON object. `--wall-clock` additionally
stamps every trace event with wall-clock microseconds, deliberately
giving up the trace's reproducibility.

`serve` mines the export into per-window snapshots and answers queries
over loopback HTTP: /v1/pair, /v1/impact, /v1/diff, /v1/churn,
/v1/model, /v1/report, /v1/metrics, /healthz. GET /admin/reload
re-mines from disk and hot-swaps the new snapshot generation in
without blocking in-flight requests.";

type CmdResult = Result<(), Box<dyn Error>>;

/// Loads the TSV export named by flag `key`, or several (comma-separated
/// paths) merged, through the resilient ingest path
/// ([`logdep_logstore::load_logs`]) at the `--threads` width: malformed
/// lines are quarantined (up to the error budget), duplicates absorbed
/// and out-of-order delivery repaired, with a warning summarizing any
/// damage found.
fn load_logs(args: &Args, key: &'static str) -> Result<LogStore, Box<dyn Error>> {
    Ok(load_logs_in(args, key, WHOLE_CLOCK)?.0)
}

/// [`load_logs`], storing only the rows whose client timestamp lies in
/// `scope` (see [`IngestPolicy::scope`]). Also returns the files'
/// reports summed into one.
fn load_logs_in(
    args: &Args,
    key: &'static str,
    scope: RangeInclusive<Millis>,
) -> Result<(LogStore, IngestReport), Box<dyn Error>> {
    let policy = IngestPolicy {
        scope,
        ..IngestPolicy::with_par(par_config(args)?)
    };
    let (store, reports) = logdep_logstore::load_logs(args.required(key)?, &policy)?;
    let mut total = IngestReport::default();
    for (path, report) in &reports {
        if report.quarantined > 0 || report.deduped > 0 {
            eprintln!("warning: {path}: {}", report.summary());
        }
        total.total_lines += report.total_lines;
        total.parsed += report.parsed;
        total.quarantined += report.quarantined;
        total.outside_scope += report.outside_scope;
    }
    Ok((store, total))
}

fn load_directory(path: &str) -> Result<Vec<String>, Box<dyn Error>> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("open {path:?}: {e}"))?;
    let dir = ServiceDirectory::from_xml(&xml)?;
    Ok(dir.ids().iter().map(|s| s.to_string()).collect())
}

fn full_range(args: &Args) -> Result<TimeRange, Box<dyn Error>> {
    let days: i64 = args.parsed_or("days", 365)?;
    Ok(TimeRange::new(Millis(0), Millis::from_days(days)))
}

/// Pool width for mining and ingest: `--threads N` wins, else the
/// `LOGDEP_THREADS` environment variable, else the hardware. `--threads
/// 0` is rejected (the serial path is `--threads 1`).
fn par_config(args: &Args) -> Result<ParConfig, Box<dyn Error>> {
    match args.optional("threads") {
        None => Ok(ParConfig::default()),
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("flag --threads: cannot parse {v:?}"))?;
            ParConfig::with_threads(n).map_err(|e| format!("flag --threads: {e}").into())
        }
    }
}

/// `logdep simulate` — generate a synthetic week as TSV + directory XML.
pub fn simulate(args: &Args, out: &mut dyn Write) -> CmdResult {
    let logs_path = args.required("out")?;
    let dir_path = args.required("directory")?;
    let mut cfg =
        SimConfig::paper_week(args.parsed_or("seed", 42)?, args.parsed_or("scale", 0.25)?);
    cfg.days = args.parsed_or("days", 7)?;
    let sim = run_sim(&cfg);

    let file = File::create(logs_path).map_err(|e| format!("create {logs_path:?}: {e}"))?;
    let mut w = BufWriter::new(file);
    write_store(&mut w, &sim.store)?;
    w.flush()?;
    std::fs::write(dir_path, sim.directory.to_xml())?;

    // Ground truth alongside, for scoring.
    let truth_path = format!("{logs_path}.truth.json");
    std::fs::write(&truth_path, serde_json::to_string_pretty(&sim.truth)?)?;

    // Owner map (service id → implementing application), the operational
    // knowledge the `impact` command needs.
    let owners_path = format!("{dir_path}.owners.tsv");
    let mut owners = String::new();
    for svc in &sim.topology.services {
        owners.push_str(&format!(
            "{}\t{}\n",
            svc.id, sim.topology.apps[svc.owner].name
        ));
    }
    std::fs::write(&owners_path, owners)?;

    writeln!(
        out,
        "wrote {} logs to {logs_path}, {} directory entries to {dir_path}, \
         truth to {truth_path}, owners to {owners_path}",
        sim.store.len(),
        sim.directory.len()
    )?;
    Ok(())
}

/// `logdep l1` — activity-correlation mining.
pub fn l1(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let cfg = l1_config(args)?;
    let sources = store.active_sources();
    let res = run_l1_pool(
        &store,
        full_range(args)?,
        &sources,
        &cfg,
        &par_config(args)?,
    )?;
    writeln!(out, "L1: {} dependent pairs", res.detected.len())?;
    for (a, b) in res.detected.iter() {
        writeln!(
            out,
            "  {} <-> {}",
            store.registry.source_name(a),
            store.registry.source_name(b)
        )?;
    }
    Ok(())
}

/// `logdep l2` — session co-occurrence mining.
pub fn l2(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let timeout: i64 = args.parsed_or("timeout", 1_000)?;
    let cfg = L2Config {
        timeout_ms: (timeout > 0).then_some(timeout),
        ..L2Config::default()
    };
    let res = run_l2_pool(&store, full_range(args)?, &cfg, &par_config(args)?)?;
    writeln!(
        out,
        "L2: {} sessions, {} bigrams, {} dependent pairs",
        res.session_stats.n_sessions,
        res.bigrams.total,
        res.detected.len()
    )?;
    for (a, b) in res.detected.iter() {
        writeln!(
            out,
            "  {} <-> {}",
            store.registry.source_name(a),
            store.registry.source_name(b)
        )?;
    }
    Ok(())
}

fn l3_config(args: &Args) -> Result<L3Config, Box<dyn Error>> {
    Ok(match args.optional("stop-patterns") {
        Some("standard") => L3Config::with_stop_patterns(standard_stop_patterns()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("open {path:?}: {e}"))?;
            L3Config::with_stop_patterns(text.lines().filter(|l| !l.trim().is_empty()))
        }
        None => L3Config::default(),
    })
}

fn l1_config(args: &Args) -> Result<L1Config, Box<dyn Error>> {
    Ok(L1Config {
        minlogs: args.parsed_or("minlogs", 25)?,
        seed: args.parsed_or("seed", 7)?,
        ..L1Config::default()
    })
}

/// The detectors `daily` and `serve` mine with: L1 and L2 always, L3
/// when `with_l3`.
fn pipeline_config(args: &Args, with_l3: bool) -> Result<PipelineConfig, Box<dyn Error>> {
    Ok(PipelineConfig {
        l1: Some(l1_config(args)?),
        l2: Some(L2Config::default()),
        l3: with_l3.then(|| l3_config(args)).transpose()?,
        par: par_config(args)?,
    })
}

/// The window schedule of `daily` and `serve`, from `--window-days`,
/// `--start-day`, `--advance-days` and `--steps`, rejected with the
/// offending flag's name when its windows do not fit the clock.
fn daily_plan(args: &Args) -> Result<DailyPlan, Box<dyn Error>> {
    let window_days: i64 = args.parsed_or("window-days", 7)?;
    let start_day: i64 = args.parsed_or("start-day", 0)?;
    let advance_days: i64 = args.parsed_or("advance-days", 1)?;
    let steps: i64 = args.parsed_or("steps", 1)?;
    if window_days <= 0 || advance_days <= 0 || steps <= 0 {
        return Err("--window-days, --advance-days and --steps must be positive".into());
    }
    let plan = DailyPlan {
        start_day,
        window_days,
        advance_days,
        steps: u64::try_from(steps).unwrap_or(1),
    };
    plan.validate().map_err(|e| match e {
        MineError::InvalidConfig { name, reason } => {
            format!("flag --{}: {reason}", name.replace('_', "-")).into()
        }
        other => Box::<dyn Error>::from(other),
    })?;
    Ok(plan)
}

/// `logdep l3` — directory-citation mining.
pub fn l3(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let ids = load_directory(args.required("directory")?)?;
    let cfg = l3_config(args)?;
    let res = run_l3_pool(&store, full_range(args)?, &ids, &cfg, &par_config(args)?)?;
    writeln!(
        out,
        "L3: {} dependencies ({} logs stopped by {} patterns)",
        res.detected.len(),
        res.stopped_logs,
        cfg.stop_patterns.len()
    )?;
    for (app, svc) in res.detected.iter() {
        writeln!(out, "  {} -> {}", store.registry.source_name(app), ids[svc])?;
    }
    Ok(())
}

/// One advance step's summary line, shared by the in-memory and the
/// durable `daily` paths (tests parse this shape).
fn window_line(outcome: &WindowOutcome) -> String {
    let day_start = outcome.window.start.0.div_euclid(MS_PER_DAY);
    let day_end = outcome.window.end.0.div_euclid(MS_PER_DAY);
    format!(
        "window days {day_start}..{day_end}: L1 {} pairs, L2 {} pairs, L3 {} deps \
         (cache: {} hits, {} misses)",
        outcome.l1.as_ref().map_or(0, |r| r.detected.len()),
        outcome.l2.as_ref().map_or(0, |r| r.detected.len()),
        outcome.l3.as_ref().map_or(0, |r| r.detected.len()),
        outcome.stats.hits(),
        outcome.stats.misses()
    )
}

/// Renders recovery events: corruption as a warning, the rest as notes.
fn write_events(out: &mut dyn Write, path: &str, events: &[RecoveryEvent]) -> CmdResult {
    for e in events {
        if e.corruption {
            writeln!(out, "warning: cache {path}: {}: {}", e.code, e.detail)?;
        } else {
            writeln!(out, "cache {path}: {}: {}", e.code, e.detail)?;
        }
    }
    Ok(())
}

/// Wall-clock microseconds since the Unix epoch — the clock injected
/// into the event sink under `--wall-clock`, and the only wall-clock
/// read anywhere in the observability path. It lives in the CLI, not
/// in `logdep-obs`, so the library layer stays provably clock-free.
fn wall_clock_us() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// `logdep daily` — the "around the clock" operation of §1.2: mine a
/// sliding window, advance it, and let the persistent evidence cache
/// skip everything the slide left unchanged. With `--cache FILE` the
/// cache survives process restarts (the nightly-cron deployment)
/// crash-safely: completed steps are journaled, the checkpoint is
/// replaced atomically, a damaged file degrades to a (partial) cold
/// start instead of failing the run, and `--resume` continues a killed
/// run from its last completed step. Without `--cache` the advance
/// steps still share the in-memory cache.
///
/// `--trace PATH` and `--metrics` install a [`logdep::obs::Recorder`]
/// around the run: the trace is written as JSON lines after the run
/// completes, and the metrics summary is printed as text or JSON.
pub fn daily(args: &Args, out: &mut dyn Write) -> CmdResult {
    let trace_path = args.optional("trace").map(str::to_owned);
    let metrics: bool = args.parsed_or("metrics", false)?;
    let wall_clock: bool = args.parsed_or("wall-clock", false)?;
    let format = args.optional("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("flag --format: expected text or json, got {format:?}").into());
    }
    if !(trace_path.is_some() || metrics) {
        return daily_inner(args, out);
    }

    let recorder = if wall_clock {
        logdep::obs::Recorder::with_clock(wall_clock_us)
    } else {
        logdep::obs::Recorder::new()
    };
    logdep::obs::set_recorder(recorder);
    let result = daily_inner(args, out);
    // Always drain the thread-local, even on error, so an aborted run
    // can never leak events into a later in-process invocation.
    let recorder = logdep::obs::take_recorder().unwrap_or_default();
    if result.is_ok() {
        if let Some(path) = &trace_path {
            std::fs::write(path, recorder.sink.render_jsonl())
                .map_err(|e| format!("write {path:?}: {e}"))?;
            writeln!(out, "wrote trace {path} ({} events)", recorder.sink.len())?;
        }
        if metrics {
            let report = recorder.report();
            match format {
                "json" => writeln!(out, "{}", report.render_json())?,
                _ => write!(out, "{}", report.render_text())?,
            }
        }
    }
    result
}

fn daily_inner(args: &Args, out: &mut dyn Write) -> CmdResult {
    // Check where the store goes before the long ingest, not after it.
    if let Some(cache_path) = args.optional("cache") {
        let dir = std::path::Path::new(cache_path)
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty());
        if let Some(dir) = dir.filter(|dir| !dir.is_dir()) {
            return Err(format!("flag --cache: directory {dir:?} does not exist").into());
        }
    }
    // Only the rows the plan's windows read are stored.
    let plan = daily_plan(args)?;
    record(|r| r.span_begin("ingest", &[]));
    let (store, report) = load_logs_in(args, "logs", plan.read_span())?;
    record(|r| {
        r.span_end(
            "ingest",
            &[
                ("lines", Field::from(report.total_lines)),
                ("parsed", Field::from(report.parsed)),
                ("quarantined", Field::from(report.quarantined)),
                ("outside_scope", Field::from(report.outside_scope)),
            ],
        );
    });
    let resume: bool = args.parsed_or("resume", false)?;

    let ids = match args.optional("directory") {
        Some(path) => load_directory(path)?,
        None => Vec::new(),
    };
    let cfg = pipeline_config(args, !ids.is_empty())?;

    let Some(cache_path) = args.optional("cache").map(str::to_owned) else {
        if resume {
            return Err("--resume needs --cache (nothing persists without one)".into());
        }
        let mut cache = EvidenceCache::new();
        for i in 0..plan.steps {
            let outcome = run_window_cached(&store, plan.window(i), &ids, &cfg, &mut cache)?;
            writeln!(out, "{}", window_line(&outcome))?;
        }
        return Ok(());
    };
    let path = std::path::Path::new(&cache_path);
    let existed = path.exists();
    let mut step_lines: Vec<String> = Vec::new();
    let report = run_daily_durable(
        &store,
        &ids,
        &cfg,
        &plan,
        path,
        resume,
        &mut NoopPolicy,
        &mut |_, outcome| step_lines.push(window_line(outcome)),
    )
    .map_err(|e| format!("cache {cache_path}: {e}"))?;

    write_events(out, &cache_path, &report.events)?;
    if existed {
        writeln!(
            out,
            "loaded cache {cache_path} ({} entries)",
            report.loaded_entries
        )?;
    }
    if report.resumed_from > 0 {
        writeln!(
            out,
            "resumed from step {} of {}",
            report.resumed_from, plan.steps
        )?;
    }
    for line in &step_lines {
        writeln!(out, "{line}")?;
    }
    if report.steps_run == 0 {
        // Fully resumed: the final window was recomputed from cache
        // hits for the report; show it so the run is never silent.
        writeln!(out, "{}", window_line(&report.final_outcome))?;
    }
    if report.checkpointed {
        writeln!(
            out,
            "saved cache {cache_path} ({} entries)",
            report.cache_entries
        )?;
    } else {
        writeln!(
            out,
            "cache {cache_path} up to date ({} entries)",
            report.cache_entries
        )?;
    }
    Ok(())
}

/// `logdep cache verify` — read-only checksum verification of a durable
/// evidence store; exits non-zero when any corruption is detected.
pub fn cache_verify(args: &Args, out: &mut dyn Write) -> CmdResult {
    let cache_path = args.required("cache")?;
    let report = verify_store(std::path::Path::new(cache_path))?;
    write_events(out, cache_path, &report.events)?;
    writeln!(
        out,
        "cache {cache_path}: {} entries, completed step {}, {} journal records",
        report.cache_entries, report.completed, report.journal_records
    )?;
    if report.clean() {
        writeln!(out, "verify: clean")?;
        Ok(())
    } else {
        Err(format!(
            "verify: corruption detected in {cache_path} \
             (run `logdep cache repair --cache {cache_path}`)"
        )
        .into())
    }
}

/// `logdep cache repair` — quarantine damaged regions, replay the
/// journal's intact prefix, and rewrite a clean checkpoint atomically.
pub fn cache_repair(args: &Args, out: &mut dyn Write) -> CmdResult {
    let cache_path = args.required("cache")?;
    let report = repair_store(std::path::Path::new(cache_path))?;
    write_events(out, cache_path, &report.events)?;
    writeln!(
        out,
        "repaired cache {cache_path}: {} entries, completed step {}",
        report.cache_entries, report.completed
    )?;
    Ok(())
}

/// `logdep sessions` — reconstruction statistics.
pub fn sessions(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let set = reconstruct(&store, &SessionConfig::default());
    writeln!(
        out,
        "{} sessions from {} logs ({:.1}% assignable, {} discarded as too short)",
        set.stats.n_sessions,
        set.stats.total_logs,
        100.0 * set.stats.assigned_fraction(),
        set.stats.discarded_sessions
    )?;
    let mut lengths: Vec<usize> = set.sessions.iter().map(|s| s.len()).collect();
    lengths.sort_unstable();
    if !lengths.is_empty() {
        writeln!(
            out,
            "session length min/median/max: {}/{}/{}",
            lengths[0],
            lengths[lengths.len() / 2],
            lengths[lengths.len() - 1]
        )?;
    }
    Ok(())
}

/// `logdep templates` — SLCT message clustering for one source.
pub fn templates(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let source_name = args.required("source")?;
    let source = store
        .registry
        .find_source(source_name)
        .ok_or_else(|| format!("unknown source {source_name:?}"))?;
    let texts: Vec<&str> = store
        .records()
        .iter()
        .filter(|r| r.source == source)
        .map(|r| store.text(r))
        .collect();
    let support = args.parsed_or("support", 10)?;
    let cfg = ClusterConfig {
        word_support: support,
        cluster_support: support,
    };
    let (templates, outliers) = cluster(texts.iter().copied(), &cfg);
    writeln!(
        out,
        "{} templates over {} messages of {source_name} ({} outliers):",
        templates.len(),
        texts.len(),
        outliers
    )?;
    for t in templates.iter().take(30) {
        writeln!(out, "  {:>6}×  {}", t.support, t.render())?;
    }
    Ok(())
}

/// `logdep impact` — mine with L3, build the dependency graph, answer
/// the §1.1 operator questions.
pub fn impact(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let ids = load_directory(args.required("directory")?)?;
    let owners_path = args.required("owners")?;
    let owners_text =
        std::fs::read_to_string(owners_path).map_err(|e| format!("open {owners_path:?}: {e}"))?;
    let mut owner_of = std::collections::HashMap::new();
    for line in owners_text.lines().filter(|l| !l.trim().is_empty()) {
        let (id, app) = line
            .split_once('\t')
            .ok_or_else(|| format!("owners file: bad line {line:?}"))?;
        owner_of.insert(id.to_owned(), app.to_owned());
    }
    let owners: Vec<_> = ids
        .iter()
        .map(|id| {
            owner_of
                .get(id)
                .and_then(|app| store.registry.find_source(app))
                .ok_or_else(|| format!("no owner application known for service {id}"))
        })
        .collect::<Result<_, _>>()?;

    let cfg = l3_config(args)?;
    let res = run_l3_pool(&store, full_range(args)?, &ids, &cfg, &par_config(args)?)?;
    let graph = DependencyGraph::from_app_service(&res.detected, &owners);
    writeln!(
        out,
        "graph: {} applications, {} dependencies",
        graph.nodes().count(),
        graph.n_edges()
    )?;

    if let Some(app_name) = args.optional("app") {
        let app = store
            .registry
            .find_source(app_name)
            .ok_or_else(|| format!("unknown application {app_name:?}"))?;
        let impact = graph.impact_set(app);
        writeln!(
            out,
            "impact of {app_name} degrading: {} applications",
            impact.len()
        )?;
        for a in impact {
            writeln!(out, "  {}", store.registry.source_name(a))?;
        }
    } else if let Some(symptoms) = args.optional("symptoms") {
        let apps: Vec<_> = symptoms
            .split(',')
            .map(|n| {
                store
                    .registry
                    .find_source(n.trim())
                    .ok_or_else(|| format!("unknown application {n:?}"))
            })
            .collect::<Result<_, _>>()?;
        writeln!(out, "root-cause candidates (fewest collateral first):")?;
        for (cand, collateral) in graph.root_candidates(&apps).into_iter().take(10) {
            writeln!(
                out,
                "  {} (+{collateral})",
                store.registry.source_name(cand)
            )?;
        }
    } else {
        writeln!(out, "most critical applications:")?;
        for (app, n) in graph.criticality().into_iter().take(10) {
            writeln!(out, "  {:>6}  {}", n, store.registry.source_name(app))?;
        }
    }
    Ok(())
}

/// `logdep inject` — re-emit a TSV export as a faulted stream, for
/// robustness experiments and ingest hardening tests.
pub fn inject(args: &Args, out: &mut dyn Write) -> CmdResult {
    let store = load_logs(args, "logs")?;
    let out_path = args.required("out")?;
    let intensity: f64 = args.parsed_or("intensity", 0.5)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let cfg = FaultConfig::at_intensity(seed, intensity);
    let injection = inject_faults(&store, &cfg);
    std::fs::write(out_path, &injection.tsv).map_err(|e| format!("write {out_path:?}: {e}"))?;
    if let Some(ledger_path) = args.optional("ledger") {
        persist_atomic(
            std::path::Path::new(ledger_path),
            serde_json::to_string_pretty(&injection.ledger)?.as_bytes(),
        )
        .map_err(|e| format!("write {ledger_path:?}: {e}"))?;
    }
    writeln!(
        out,
        "injected at intensity {intensity} (seed {seed}): {}",
        injection.ledger.summary()
    )?;
    Ok(())
}

/// `--max-error-fraction`: a fraction in [0, 1]. NaN would switch the
/// budget off and a negative value would trip it on any stream, so
/// both are rejected with the rest of the out-of-range values.
fn error_fraction(args: &Args) -> Result<f64, Box<dyn Error>> {
    let fraction: f64 = args.parsed_or("max-error-fraction", 0.5)?;
    if !(0.0..=1.0).contains(&fraction) {
        let raw = args.optional("max-error-fraction").unwrap_or_default();
        return Err(format!(
            "flag --max-error-fraction: expected a fraction in [0, 1], got {raw:?}"
        )
        .into());
    }
    Ok(fraction)
}

/// `logdep ingest` — resilient consolidation of one TSV export, with a
/// machine-readable quarantine/repair report.
pub fn ingest(args: &Args, out: &mut dyn Write) -> CmdResult {
    let path = args.required("logs")?;
    let policy = IngestPolicy {
        max_error_fraction: error_fraction(args)?,
        dedup: args.parsed_or("dedup", true)?,
        ..IngestPolicy::with_par(par_config(args)?)
    };
    let file = File::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
    let (store, report) = read_store_resilient(BufReader::new(file), &policy)
        .map_err(|e| format!("ingest {path}: {e}"))?;
    if let Some(report_path) = args.optional("report") {
        std::fs::write(report_path, serde_json::to_string_pretty(&report)?)
            .map_err(|e| format!("write {report_path:?}: {e}"))?;
    }
    writeln!(out, "ingest: {}", report.summary())?;
    writeln!(
        out,
        "store: {} records from {} sources",
        store.len(),
        store.active_sources().len()
    )?;
    for (source, skew) in &report.per_source_skew_ms {
        writeln!(out, "  clock skew {source}: {skew:+} ms")?;
    }
    for (lineno, error) in report.quarantine_samples.iter().take(5) {
        writeln!(out, "  quarantined line {lineno}: {error}")?;
    }
    Ok(())
}

/// `logdep churn` — L3 on two log exports, diffed.
pub fn churn(args: &Args, out: &mut dyn Write) -> CmdResult {
    let layers_raw = args.optional("layers").unwrap_or("l3");
    let mut layers: Vec<&str> = Vec::new();
    for layer in layers_raw
        .split(',')
        .map(str::trim)
        .filter(|l| !l.is_empty())
    {
        if !matches!(layer, "l1" | "l2" | "l3") {
            return Err(format!("flag --layers: expected l1, l2 or l3, got {layer:?}").into());
        }
        if !layers.contains(&layer) {
            layers.push(layer);
        }
    }
    if layers.is_empty() {
        return Err("flag --layers: need at least one of l1,l2,l3".into());
    }
    // The bare L3 invocation keeps its historical un-tagged output.
    let tagged = layers.as_slice() != ["l3"];
    let range = full_range(args)?;
    let store_a = load_logs(args, "before")?;
    let store_b = load_logs(args, "after")?;
    let par = par_config(args)?;
    let (reg_a, reg_b) = (&store_a.registry, &store_b.registry);
    let in_b = |s: SourceId| reg_b.find_source(reg_a.source_name(s));
    let pair_in_b = |(a, b): (SourceId, SourceId)| Some((in_b(a)?, in_b(b)?));
    let pair_label = |(a, b): (SourceId, SourceId)| {
        format!("{} <-> {}", reg_b.source_name(a), reg_b.source_name(b))
    };

    for layer in &layers {
        let tag = if tagged {
            format!("churn[{layer}]")
        } else {
            "churn".to_owned()
        };
        match *layer {
            "l1" => {
                let cfg = l1_config(args)?;
                let before =
                    run_l1_pool(&store_a, range, &store_a.active_sources(), &cfg, &par)?.detected;
                let after =
                    run_l1_pool(&store_b, range, &store_b.active_sources(), &cfg, &par)?.detected;
                churn_lines(out, &tag, &before, &after, pair_in_b, pair_label)?;
            }
            "l2" => {
                let timeout: i64 = args.parsed_or("timeout", 1_000)?;
                let cfg = L2Config {
                    timeout_ms: (timeout > 0).then_some(timeout),
                    ..L2Config::default()
                };
                let before = run_l2_pool(&store_a, range, &cfg, &par)?.detected;
                let after = run_l2_pool(&store_b, range, &cfg, &par)?.detected;
                churn_lines(out, &tag, &before, &after, pair_in_b, pair_label)?;
            }
            _ => {
                let ids = load_directory(args.required("directory")?)?;
                let cfg = l3_config(args)?;
                let before = run_l3_pool(&store_a, range, &ids, &cfg, &par)?.detected;
                let after = run_l3_pool(&store_b, range, &ids, &cfg, &par)?.detected;
                churn_lines(
                    out,
                    &tag,
                    &before,
                    &after,
                    |(app, svc)| Some((in_b(app)?, svc)),
                    |(app, svc)| format!("{} -> {}", reg_b.source_name(app), ids[svc]),
                )?;
            }
        }
    }
    Ok(())
}

/// Prints the churn between two models mined from different exports.
/// Models are compared by name: `resolve` re-resolves a BEFORE edge
/// into the AFTER export's registry, so the two exports may intern
/// sources in different orders, and returns `None` for an edge naming
/// a source the AFTER export never saw (dropped from the comparison).
/// `label` names an AFTER edge.
fn churn_lines<T: EdgeTarget>(
    out: &mut dyn Write,
    tag: &str,
    before: &Model<T>,
    after: &Model<T>,
    resolve: impl Fn((SourceId, T)) -> Option<(SourceId, T)>,
    label: impl Fn((SourceId, T)) -> String,
) -> CmdResult {
    let before_in_b: Model<T> = before.iter().filter_map(resolve).collect();
    let c = evolution::churn(&before_in_b, after);
    writeln!(
        out,
        "{tag}: {} appeared, {} disappeared, {} stable (stability {:.2})",
        c.appeared.len(),
        c.disappeared.len(),
        c.stable.len(),
        c.stability()
    )?;
    for &e in c.appeared.iter().take(20) {
        writeln!(out, "  + {}", label(e))?;
    }
    for &e in c.disappeared.iter().take(20) {
        writeln!(out, "  - {}", label(e))?;
    }
    Ok(())
}

/// Mines an initial index and serves it over loopback HTTP until the
/// process is killed. `--store` warms the evidence cache from a
/// durable store written by `daily --cache`; `GET /admin/reload`
/// re-ingests everything and hot-swaps the next generation in without
/// blocking readers.
pub fn serve(args: &Args, out: &mut dyn Write) -> CmdResult {
    let addr = args.optional("addr").unwrap_or("127.0.0.1:7878");
    let workers: usize = args.parsed_or("workers", 2)?;
    let max_conns: usize = args.parsed_or("max-conns", 64)?;
    let request_timeout_ms: u64 = args.parsed_or("request-timeout-ms", 2_000)?;
    let wall_clock: bool = args.parsed_or("wall-clock", false)?;
    if workers == 0 || max_conns == 0 || request_timeout_ms == 0 {
        return Err("--workers, --max-conns and --request-timeout-ms must be positive".into());
    }

    let plan = daily_plan(args)?;
    let source = SnapshotSource {
        logs: args.required("logs")?.to_owned(),
        directory: args.optional("directory").map(str::to_owned),
        store: args.optional("store").map(std::path::PathBuf::from),
        plan,
        cfg: pipeline_config(args, args.optional("directory").is_some())?,
    };

    let index = logdep_serve::run_reload(&source, 1)?;
    let days = index.days().count();
    let cfg = ServeConfig {
        addr: addr.to_owned(),
        workers,
        max_conns,
        request_timeout_ms,
        clock_us: if wall_clock {
            Some(wall_clock_us as fn() -> u64)
        } else {
            None
        },
    };
    let server = Server::bind(cfg, index)?;
    writeln!(
        out,
        "serving {days} mined day(s), generation 1, on http://{} ({workers} workers, {max_conns} max conns)",
        server.handle().addr()
    )?;
    out.flush()?;
    run_server(server, Some(&source))?;
    Ok(())
}
