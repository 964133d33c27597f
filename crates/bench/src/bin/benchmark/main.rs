//! The operator-path benchmark.
//!
//! It drives the real operator surfaces as child processes — one
//! `logdep daily` process per night, cold windows on empty stores, and
//! `logdep serve` under an open-loop query load with and without hot
//! reloads — and checks every output against an in-process reference.
//! With `--trace 1` it replays each workload in-process through the same
//! public calls, wrapped in its own spans, for the per-layer numbers.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.json B.json
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads, the metric definitions and the measured spread.

mod compare;
mod mining;
mod serving;
mod stats;
mod trace;

use logdep::health::PipelineConfig;
use logdep::l1::L1Config;
use logdep::l2::L2Config;
use logdep::l3::L3Config;
use logdep_logstore::{read_store_resilient, IngestPolicy, LogStore};
use logdep_par::ParConfig;
use logdep_sim::textgen::standard_stop_patterns;
use logdep_sim::{simulate_with, ServiceDirectory, SimConfig, Topology};
use serde_json::Value;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Traffic scale of the simulated export: 14 days, ≈385k logs, ≈31 MB
/// of TSV. Half the paper-week default, so a night takes about 0.4 s and
/// a 20-second run of any workload ends within half a minute.
pub const SCALE: f64 = 0.25;
/// Days simulated: enough for eight 7-day windows (start days 0..=7).
pub const DAYS: u32 = 14;
/// Width of every mined window, in days.
pub const WINDOW_DAYS: i64 = 7;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Seed of the simulated landscape (applications, services, directory).
/// Every run measures the same HUG-like system; `--seed` draws its
/// users, sessions and traffic. A landscape drawn per seed would change
/// the log volume by ±6% and swamp the run-to-run spread.
const LANDSCAPE_SEED: u64 = 42;

const USAGE: &str = "usage: benchmark [--workload nightly|cold_mine|serve_read|serve_reload] \
                     [--seed N] [--seconds S] [--trace 0|1]\n       \
                     benchmark compare A.json B.json";

/// The workloads, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["nightly", "cold_mine", "serve_read", "serve_reload"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a traced run. Every traced run drives every
/// layer (see README.md for which of them block each workload).
pub const LAYERS: [(&str, &str); 34] = [
    ("logstore.ingest_ms", "ms"),
    ("logstore.records", "count"),
    ("directory.parse_ms", "ms"),
    ("durable.open_ms", "ms"),
    ("window.mine_ms", "ms"),
    ("durable.journal_ms", "ms"),
    ("durable.journal_bytes", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoint_bytes", "bytes"),
    ("l1.cached_ms", "ms"),
    ("l2.windowed_ms", "ms"),
    ("l3.windowed_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.l3_hit_ratio", "ratio"),
    ("index.build_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.handle_us.pair.p50", "us"),
    ("serve.handle_us.pair.p99", "us"),
    ("serve.handle_us.impact.p50", "us"),
    ("serve.handle_us.impact.p99", "us"),
    ("serve.handle_us.diff.p50", "us"),
    ("serve.handle_us.diff.p99", "us"),
    ("serve.handle_us.churn.p50", "us"),
    ("serve.handle_us.churn.p99", "us"),
    ("serve.handle_us.model.p50", "us"),
    ("serve.handle_us.model.p99", "us"),
    ("serve.encode_us", "us"),
    ("serve.body_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.shadow_ratio", "ratio"),
    ("trace.wall_diff_ms", "ms"),
];

/// One measured value.
#[derive(Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Operations attempted and the ones that failed, with the first few
/// failure descriptions.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    const MAX_NOTES: usize = 20;

    /// Counts one operation; a failed one is described by `note`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < Self::MAX_NOTES {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = Self::MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// The metrics BENCHMARK.json declares for this kind of run.
    pub metrics: Vec<Metric>,
    /// Further readings, printed and recorded but not bounded: tails,
    /// rates, generator lateness, reload times.
    pub info: Vec<Metric>,
    /// Context that is not a number: what an operation is, flags, paths.
    pub extra: Vec<(&'static str, Value)>,
    /// Per-layer count/p50/p99/total of a traced run.
    pub layers: Option<Value>,
}

/// The benchmark's command line.
pub struct Options {
    pub workloads: Vec<&'static str>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut opts = Options {
            workloads: WORKLOADS.to_vec(),
            seed: 42,
            seconds: 20.0,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    let w = WORKLOADS
                        .iter()
                        .find(|w| **w == name.as_str())
                        .ok_or(format!("unknown workload {name:?}"))?;
                    opts.workloads = vec![w];
                }
                "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    opts.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }
}

/// Where the run reads and writes, and the host it runs on.
pub struct Env {
    pub logdep: PathBuf,
    pub logdep_mtime_s: u64,
    pub out_dir: PathBuf,
    pub work: PathBuf,
    /// Host CPUs: the `--threads` of every child, the server's worker
    /// count and the load generator's connection count.
    pub threads: usize,
    pub seed: u64,
    pub seconds: f64,
}

/// The `logdep` binary the workloads run: the one beside this binary.
/// Built by its own package, the benchmark first builds that package's
/// `logdep` (a no-op when it is fresh); built by the root workspace, the
/// root's `cargo build --release` made both.
fn logdep_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark: {e}"))?;
    if env!("CARGO_PKG_NAME") == "logdep-benchmark" {
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let built = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--quiet",
                "--bin",
                "logdep",
                "--manifest-path",
            ])
            .arg(&manifest)
            .status()
            .map_err(|e| format!("cannot run cargo to build logdep: {e}"))?;
        if !built.success() {
            return Err(format!(
                "building logdep from {} failed",
                manifest.display()
            ));
        }
    }
    Ok(exe.with_file_name("logdep"))
}

impl Env {
    /// Finds `logdep` (see [`logdep_binary`]) and refuses to run without
    /// it. Outputs go to `benchmark/` in the target directory that holds
    /// both binaries.
    fn prepare(opts: &Options) -> Result<Self, String> {
        let logdep = logdep_binary()?;
        let meta = std::fs::metadata(&logdep)
            .map_err(|e| format!("refusing to run: {} is missing ({e})", logdep.display()))?;
        let logdep_mtime_s = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs());
        let target = logdep
            .parent()
            .and_then(Path::parent)
            .ok_or("logdep is not in a target directory")?;
        let out_dir = target.join("benchmark");
        let work = out_dir.join("work");
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Self {
            logdep,
            logdep_mtime_s,
            out_dir,
            work,
            threads,
            seed: opts.seed,
            seconds: opts.seconds,
        })
    }
}

/// The generated export the system under test reads.
pub struct Inputs {
    pub logs: PathBuf,
    pub directory: PathBuf,
    pub n_logs: usize,
}

impl Inputs {
    /// Simulates `DAYS` days of traffic from the seed over the fixed
    /// landscape and writes the TSV export and the directory XML. Not
    /// timed.
    fn generate(env: &Env) -> Result<Self, String> {
        let mut cfg = SimConfig::paper_week(env.seed, SCALE);
        cfg.days = DAYS;
        let landscape = Topology::generate(&cfg.topology, &cfg.noise, LANDSCAPE_SEED);
        let sim = simulate_with(&cfg, landscape);
        let logs = env.work.join("logs.tsv");
        let directory = env.work.join("directory.xml");
        let io = |e: std::io::Error| format!("write inputs: {e}");
        let mut w = BufWriter::new(std::fs::File::create(&logs).map_err(io)?);
        logdep_logstore::codec::write_store(&mut w, &sim.store).map_err(io)?;
        w.flush().map_err(io)?;
        std::fs::write(&directory, sim.directory.to_xml()).map_err(io)?;
        Ok(Self {
            logs,
            directory,
            n_logs: sim.store.len(),
        })
    }
}

/// The detector configuration `logdep daily` and `logdep serve` build
/// from `--stop-patterns standard --threads N` and their defaults.
pub fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        l1: Some(L1Config {
            minlogs: 25,
            seed: 7,
            ..L1Config::default()
        }),
        l2: Some(L2Config::default()),
        l3: Some(L3Config::with_stop_patterns(standard_stop_patterns())),
        par: ParConfig::with_threads(threads).unwrap_or_else(|_| ParConfig::serial()),
    }
}

/// The CLI's single-export ingest: resilient read, then finalize.
pub fn ingest(path: &Path) -> Result<LogStore, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let (mut store, _report) = read_store_resilient(BufReader::new(file), &IngestPolicy::default())
        .map_err(|e| format!("ingest {}: {e}", path.display()))?;
    store.finalize();
    Ok(store)
}

/// Service ids of the directory XML, as the CLI and the loader read them.
pub fn directory_ids(path: &Path) -> Result<Vec<String>, String> {
    let xml = std::fs::read_to_string(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let dir = ServiceDirectory::from_xml(&xml).map_err(|e| format!("directory: {e}"))?;
    Ok(dir.ids().iter().map(|s| s.to_string()).collect())
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("remove {}: {e}", dir.display())),
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Samples the peak RSS of whichever child it is pointed at, every
/// 10 ms, from its own thread: a process's `VmHWM` vanishes when it
/// exits, so it has to be read while the child runs.
#[derive(Default)]
pub struct RssWatch {
    pid: AtomicU32,
    stop: AtomicBool,
    peak_kb: AtomicU64,
}

impl RssWatch {
    pub fn point_at(&self, pid: u32) {
        self.pid.store(pid, Ordering::SeqCst);
    }

    pub fn peak_mb(&self) -> f64 {
        self.peak_kb.load(Ordering::SeqCst) as f64 / 1024.0
    }

    pub fn clear_peak(&self) {
        self.peak_kb.store(0, Ordering::SeqCst);
    }

    pub fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    pub fn sample_until_halted(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            let pid = self.pid.load(Ordering::SeqCst);
            if pid != 0 {
                if let Some(kb) = vm_hwm_kb(pid) {
                    self.peak_kb.fetch_max(kb, Ordering::SeqCst);
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn metric_value<'a>(outcome: &'a Outcome, name: &str) -> Option<&'a Metric> {
    outcome.metrics.iter().find(|m| m.name == name)
}

fn run_workload(
    env: &Env,
    inputs: &Inputs,
    workload: &str,
    trace: bool,
) -> Result<Outcome, String> {
    match workload {
        "nightly" => mining::run(env, inputs, mining::Mode::Nightly, trace),
        "cold_mine" => mining::run(env, inputs, mining::Mode::Cold, trace),
        "serve_read" => serving::run(env, inputs, false, trace),
        _ => serving::run(env, inputs, true, trace),
    }
}

/// Prints the metric table, appends the run record to `results.json`
/// (or `traced.json`), and prints the result line. Returns whether the
/// run was correct.
fn report(
    env: &Env,
    inputs: &Inputs,
    workload: &str,
    trace: bool,
    mut outcome: Outcome,
) -> Result<bool, String> {
    let expected: &[(&str, &str)] = if trace { &LAYERS } else { &END_TO_END };
    for (name, _) in expected {
        let present = metric_value(&outcome, name).is_some();
        outcome
            .tally
            .check(present, || format!("metric {name} was not measured"));
    }
    let correct = outcome.tally.failed == 0;
    let layers = outcome.layers.take();

    let shown = expected
        .iter()
        .filter_map(|(name, _)| metric_value(&outcome, name));
    for m in shown.chain(&outcome.info) {
        println!(
            "  {:<28} {:<6} {:>14.4}  (n={})",
            m.name, m.unit, m.value, m.samples
        );
    }
    for (k, v) in &outcome.extra {
        println!("  {k:<28} {}", serde_json::to_string(v).unwrap_or_default());
    }
    println!(
        "  attempted {} failed {}{}",
        outcome.tally.attempted,
        outcome.tally.failed,
        if correct { "" } else { " — INCORRECT" }
    );
    for note in &outcome.tally.notes {
        println!("  failure: {note}");
    }

    let metrics_json = |list: &mut dyn Iterator<Item = &Metric>, with_samples: bool| {
        Value::Object(
            list.map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Value::F64(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ];
                if with_samples {
                    fields.push(("samples".to_owned(), Value::U64(m.samples as u64)));
                }
                (m.name.to_owned(), Value::Object(fields))
            })
            .collect(),
        )
    };
    let declared = || {
        expected
            .iter()
            .filter_map(|(name, _)| metric_value(&outcome, name))
    };
    let mut record = vec![
        ("workload".to_owned(), Value::Str(workload.to_owned())),
        ("trace".to_owned(), Value::Bool(trace)),
        ("seed".to_owned(), Value::U64(env.seed)),
        ("seconds".to_owned(), Value::F64(env.seconds)),
        ("scale".to_owned(), Value::F64(SCALE)),
        ("days".to_owned(), Value::U64(u64::from(DAYS))),
        ("n_logs".to_owned(), Value::U64(inputs.n_logs as u64)),
        ("host_cpus".to_owned(), Value::U64(env.threads as u64)),
        ("threads".to_owned(), Value::U64(env.threads as u64)),
        (
            "logdep".to_owned(),
            Value::Str(env.logdep.display().to_string()),
        ),
        ("logdep_mtime_s".to_owned(), Value::U64(env.logdep_mtime_s)),
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(outcome.tally.attempted)),
        ("failed".to_owned(), Value::U64(outcome.tally.failed)),
        (
            "failures".to_owned(),
            Value::Array(
                outcome
                    .tally
                    .notes
                    .iter()
                    .cloned()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("metrics".to_owned(), metrics_json(&mut declared(), true)),
        (
            "info".to_owned(),
            metrics_json(&mut outcome.info.iter(), true),
        ),
        (
            "extra".to_owned(),
            Value::Object(
                outcome
                    .extra
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), v.clone()))
                    .collect(),
            ),
        ),
    ];
    if let Some(layers) = layers {
        record.push(("layers".to_owned(), layers));
    }
    let path = env
        .out_dir
        .join(if trace { "traced.json" } else { "results.json" });
    let line = serde_json::to_string(&Value::Object(record)).map_err(|e| e.to_string())?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;

    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        (
            "attempted".to_owned(),
            Value::U64(outcome.tally.attempted.max(1)),
        ),
        ("failed".to_owned(), Value::U64(outcome.tally.failed)),
        ("metrics".to_owned(), metrics_json(&mut declared(), false)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(correct)
}

fn run_benchmark(opts: &Options) -> Result<bool, String> {
    let env = Env::prepare(opts)?;
    let inputs = Inputs::generate(&env)?;
    let mut all_correct = true;
    for &workload in &opts.workloads {
        println!(
            "== {workload}: seed {}, {} s, scale {SCALE}, {} logs, {} host cpus{}",
            env.seed,
            env.seconds,
            inputs.n_logs,
            env.threads,
            if opts.trace { ", traced" } else { "" }
        );
        let outcome = run_workload(&env, &inputs, workload, opts.trace)?;
        all_correct &= report(&env, &inputs, workload, opts.trace, outcome)?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::run_compare(argv.get(1..).unwrap_or_default());
    }
    let opts = match Options::parse(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_benchmark(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repository root: the nearest directory above the manifest
    /// that holds BENCHMARK.json.
    fn repo_root() -> PathBuf {
        let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        while !dir.join("BENCHMARK.json").is_file() {
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
        dir
    }

    /// Every metric the benchmark emits is declared in BENCHMARK.json
    /// with the same unit, in the same order, and nothing else is.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json reads");
        let spec = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match spec.get(key) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|m| match (m.get("name"), m.get("unit")) {
                        (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                        _ => panic!("{key} entry without name/unit"),
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key} list"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&LAYERS));
        let workloads: Vec<String> = match spec.get("workloads") {
            Some(Value::Array(items)) => items
                .iter()
                .filter_map(|w| match w.get("name") {
                    Some(Value::Str(n)) => Some(n.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn options_parse() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = Options::parse(&argv("--workload cold_mine --seed 7 --seconds 3 --trace 1"))
            .expect("parses");
        assert_eq!(o.workloads, vec!["cold_mine"]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        let o = Options::parse(&argv("--trace 0")).expect("parses");
        assert!(!o.trace);
        assert_eq!(o.workloads.len(), 4);
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seed",
            "--trace true",
            "--trace",
            "--traced",
        ] {
            assert!(Options::parse(&argv(bad)).is_err(), "{bad} was accepted");
        }
    }

    /// The benchmark's `logdep` binary runs the same statements as the
    /// CLI's own entry point.
    #[test]
    fn logdep_entry_point_matches_the_cli() {
        let root = repo_root();
        let code = |rel: &str| -> Vec<String> {
            let text = std::fs::read_to_string(root.join(rel)).expect("source file reads");
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with("//"))
                .map(String::from)
                .collect()
        };
        assert_eq!(
            code("crates/bench/src/bin/benchmark/logdep.rs"),
            code("crates/cli/src/main.rs")
        );
    }
}
