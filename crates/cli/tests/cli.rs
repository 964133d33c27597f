//! In-process integration tests of the CLI: simulate into a temp dir,
//! then mine it back through every subcommand.

use std::path::PathBuf;

fn run(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = logdep_cli::run(&argv, &mut out);
    (code, String::from_utf8(out).expect("utf8 output"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("logdep-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn simulated(dir: &TempDir) -> (String, String) {
    let logs = dir.path("logs.tsv");
    let directory = dir.path("dir.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs,
        "--directory",
        &directory,
        "--days",
        "1",
        "--seed",
        "5",
        "--scale",
        "0.15",
    ]);
    assert_eq!(code, 0, "simulate failed: {out}");
    assert!(out.contains("wrote"));
    (logs, directory)
}

#[test]
fn help_and_unknown_command() {
    let (code, out) = run(&["help"]);
    assert_eq!(code, 0);
    assert!(out.contains("simulate"));
    let (code, out) = run(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(out.contains("unknown command"));
    let (code, _) = run(&[]);
    assert_eq!(code, 2);
}

#[test]
fn missing_flags_and_files_fail_cleanly() {
    let (code, out) = run(&["l3", "--logs", "nope.tsv"]);
    assert_eq!(code, 1);
    assert!(out.contains("--directory") || out.contains("error"));
    let (code, out) = run(&["l2", "--logs", "/definitely/not/here.tsv"]);
    assert_eq!(code, 1);
    assert!(out.contains("error"));
}

#[test]
fn full_pipeline_over_a_simulated_day() {
    let dir = TempDir::new("pipeline");
    let (logs, directory) = simulated(&dir);

    // L3 with the standard stop patterns.
    let (code, out) = run(&[
        "l3",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--stop-patterns",
        "standard",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("L3:"), "{out}");
    assert!(out.lines().count() > 50, "L3 should find many deps: {out}");

    // L2.
    let (code, out) = run(&["l2", "--logs", &logs, "--timeout", "1000"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("sessions"));
    assert!(out.lines().count() > 5);

    // Sessions.
    let (code, out) = run(&["sessions", "--logs", &logs]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("assignable"));

    // Templates for a known client app.
    let (code, out) = run(&["templates", "--logs", &logs, "--source", "DPIFormidoc"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("templates"), "{out}");
}

#[test]
fn l1_runs_on_simulated_logs() {
    let dir = TempDir::new("l1");
    let (logs, _) = simulated(&dir);
    let (code, out) = run(&["l1", "--logs", &logs, "--minlogs", "12"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("L1:"), "{out}");
}

#[test]
fn threads_flag_changes_nothing_but_zero_is_rejected() {
    let dir = TempDir::new("threads");
    let (logs, directory) = simulated(&dir);

    // Same mining output at every pool width, across all three techniques.
    let (code, serial) = run(&["l1", "--logs", &logs, "--minlogs", "12", "--threads", "1"]);
    assert_eq!(code, 0, "{serial}");
    let (code, wide) = run(&["l1", "--logs", &logs, "--minlogs", "12", "--threads", "3"]);
    assert_eq!(code, 0, "{wide}");
    assert_eq!(serial, wide, "L1 output must not depend on --threads");

    let (code, serial) = run(&["l2", "--logs", &logs, "--threads", "1"]);
    assert_eq!(code, 0, "{serial}");
    let (code, wide) = run(&["l2", "--logs", &logs, "--threads", "4"]);
    assert_eq!(code, 0, "{wide}");
    assert_eq!(serial, wide, "L2 output must not depend on --threads");

    let l3_run = |n: &str| {
        run(&[
            "l3",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--stop-patterns",
            "standard",
            "--threads",
            n,
        ])
    };
    let (code, serial) = l3_run("1");
    assert_eq!(code, 0, "{serial}");
    let (code, wide) = l3_run("2");
    assert_eq!(code, 0, "{wide}");
    assert_eq!(serial, wide, "L3 output must not depend on --threads");

    // churn (every layer) and impact mine at the --threads width too.
    let logs_b = dir.path("logs-b.tsv");
    let dir_b = dir.path("dir-b.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs_b,
        "--directory",
        &dir_b,
        "--days",
        "1",
        "--seed",
        "6",
        "--scale",
        "0.1",
    ]);
    assert_eq!(code, 0, "{out}");
    let owners = format!("{directory}.owners.tsv");
    let churn_run = |n: &str| {
        run(&[
            "churn",
            "--before",
            &logs,
            "--after",
            &logs_b,
            "--layers",
            "l1,l2,l3",
            "--minlogs",
            "12",
            "--directory",
            &directory,
            "--stop-patterns",
            "standard",
            "--threads",
            n,
        ])
    };
    let impact_run = |n: &str| {
        run(&[
            "impact",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--owners",
            &owners,
            "--stop-patterns",
            "standard",
            "--threads",
            n,
        ])
    };
    let (code, serial) = churn_run("1");
    assert_eq!(code, 0, "{serial}");
    let (code, wide) = churn_run("4");
    assert_eq!(code, 0, "{wide}");
    assert_eq!(serial, wide, "churn output must not depend on --threads");
    let (code, serial) = impact_run("1");
    assert_eq!(code, 0, "{serial}");
    let (code, wide) = impact_run("4");
    assert_eq!(code, 0, "{wide}");
    assert_eq!(serial, wide, "impact output must not depend on --threads");

    // Zero threads is a clean usage error on every mining command.
    for cmd in ["l1", "l2"] {
        let (code, out) = run(&[cmd, "--logs", &logs, "--threads", "0"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--threads"), "{out}");
    }
    for (code, out) in [l3_run("0"), churn_run("0"), impact_run("0")] {
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--threads"), "{out}");
    }

    // And so is a non-numeric value.
    let (code, out) = run(&["l1", "--logs", &logs, "--threads", "many"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("--threads"), "{out}");
}

#[test]
fn churn_between_two_exports() {
    let dir = TempDir::new("churn");
    let (logs_a, directory) = simulated(&dir);
    // Second export: different seed, same landscape shape.
    let logs_b = dir.path("logs-b.tsv");
    let dir_b = dir.path("dir-b.xml");
    let (code, _) = run(&[
        "simulate",
        "--out",
        &logs_b,
        "--directory",
        &dir_b,
        "--days",
        "1",
        "--seed",
        "5",
        "--scale",
        "0.1",
    ]);
    assert_eq!(code, 0);
    let (code, out) = run(&[
        "churn",
        "--before",
        &logs_a,
        "--after",
        &logs_b,
        "--directory",
        &directory,
        "--stop-patterns",
        "standard",
        "--layers",
        "l1,l2,l3",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("stability"), "{out}");
    // The two exports differ in scale, so their registries intern
    // sources differently: this pins the re-resolved churn lines.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/churn_layers.txt"
    );
    if std::env::var_os("LOGDEP_BLESS").is_some() {
        std::fs::write(golden, &out).expect("bless golden churn output");
        return;
    }
    let expected = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!("read {golden}: {e}; run with LOGDEP_BLESS=1 to create the snapshot")
    });
    assert!(
        out == expected,
        "churn output drifted from {golden}; if the change is intended, regenerate \
         with LOGDEP_BLESS=1 and commit the diff\n--- actual ---\n{out}"
    );
}

#[test]
fn bad_stop_pattern_file_is_an_error() {
    let dir = TempDir::new("stops");
    let (logs, directory) = simulated(&dir);
    let (code, out) = run(&[
        "l3",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--stop-patterns",
        "/no/such/file.txt",
    ]);
    assert_eq!(code, 1);
    assert!(out.contains("error"));
}

#[test]
fn impact_command_answers_operator_questions() {
    let dir = TempDir::new("impact");
    let (logs, directory) = simulated(&dir);
    let owners = format!("{directory}.owners.tsv");

    // Criticality ranking (default mode).
    let (code, out) = run(&[
        "impact",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--owners",
        &owners,
        "--stop-patterns",
        "standard",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("most critical"), "{out}");

    // Impact of a named app: pick the first critical one from the output.
    let critical = out
        .lines()
        .find(|l| {
            l.trim_start()
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit())
        })
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("a ranked app")
        .to_owned();
    let (code, out) = run(&[
        "impact",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--owners",
        &owners,
        "--stop-patterns",
        "standard",
        "--app",
        &critical,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("impact of"), "{out}");
}

#[test]
fn inject_then_ingest_round_trip() {
    let dir = TempDir::new("inject");
    let (logs, _) = simulated(&dir);
    let faulty = dir.path("faulty.tsv");
    let ledger = dir.path("ledger.json");

    let (code, out) = run(&[
        "inject",
        "--logs",
        &logs,
        "--out",
        &faulty,
        "--intensity",
        "0.6",
        "--seed",
        "9",
        "--ledger",
        &ledger,
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("delivered"), "{out}");
    let ledger_json = std::fs::read_to_string(&ledger).expect("ledger written");
    assert!(ledger_json.contains("\"dropped\""), "{ledger_json}");

    // The faulted stream ingests with a report showing damage.
    let report = dir.path("report.json");
    let (code, out) = run(&["ingest", "--logs", &faulty, "--report", &report]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("quarantined"), "{out}");
    assert!(out.contains("store:"), "{out}");
    let report_json = std::fs::read_to_string(&report).expect("report written");
    assert!(report_json.contains("\"quarantined\""), "{report_json}");

    // Mining still runs over the faulted stream (resilient load path).
    let (code, out) = run(&["sessions", "--logs", &faulty]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("sessions"));
}

#[test]
fn ingest_rejects_garbage_past_error_budget() {
    let dir = TempDir::new("budget");
    let garbage = dir.path("garbage.tsv");
    std::fs::write(&garbage, "not a log\nstill not a log\nnope\n").expect("write");
    let (code, out) = run(&["ingest", "--logs", &garbage]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("error budget"), "{out}");
    // A lenient budget lets it through as pure quarantine.
    let (code, out) = run(&["ingest", "--logs", &garbage, "--max-error-fraction", "1.0"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("3 quarantined"), "{out}");
}

#[test]
fn ingest_rejects_an_error_fraction_outside_zero_to_one() {
    let dir = TempDir::new("fraction");
    let garbage = dir.path("garbage.tsv");
    std::fs::write(&garbage, "not a log\nstill not a log\nnope\n").expect("write");
    // NaN used to switch the budget off, and -1 to report "limit -100%".
    for bad in ["nan", "NaN", "inf", "-1", "-0.1", "1.5"] {
        let (code, out) = run(&["ingest", "--logs", &garbage, "--max-error-fraction", bad]);
        assert_eq!(code, 1, "--max-error-fraction {bad}: {out}");
        assert!(
            out.contains(&format!(
                "flag --max-error-fraction: expected a fraction in [0, 1], got {bad:?}"
            )),
            "--max-error-fraction {bad}: {out}"
        );
    }
    for edge in ["0", "1"] {
        let (_, out) = run(&["ingest", "--logs", &garbage, "--max-error-fraction", edge]);
        assert!(!out.contains("flag --max-error-fraction"), "{edge}: {out}");
    }
}

#[test]
fn ingest_output_and_report_are_identical_at_every_width() {
    let dir = TempDir::new("ingest-width");
    let (logs, _) = simulated(&dir);
    let faulty = dir.path("faulty.tsv");
    let (code, out) = run(&[
        "inject",
        "--logs",
        &logs,
        "--out",
        &faulty,
        "--intensity",
        "0.6",
        "--seed",
        "9",
    ]);
    assert_eq!(code, 0, "{out}");
    let bytes = std::fs::metadata(&faulty).expect("faulty export").len();
    assert!(bytes > 1 << 20, "several 256 KiB blocks, not {bytes} bytes");

    let ingest = |threads: &str| {
        let report = dir.path(&format!("report-{threads}.json"));
        let (code, out) = run(&[
            "ingest",
            "--logs",
            &faulty,
            "--report",
            &report,
            "--threads",
            threads,
        ]);
        assert_eq!(code, 0, "--threads {threads}: {out}");
        (out, std::fs::read(&report).expect("report written"))
    };
    let (serial_out, serial_report) = ingest("1");
    assert!(serial_out.contains("quarantined line"), "{serial_out}");
    for threads in ["2", "4"] {
        let (out, report) = ingest(threads);
        assert_eq!(out, serial_out, "--threads {threads}");
        assert!(
            report == serial_report,
            "--threads {threads}: report differs"
        );
    }
}

#[test]
fn ingest_quarantines_a_non_utf8_line() {
    let dir = TempDir::new("utf8");
    let logs = dir.path("logs.tsv");
    let mut data = Vec::new();
    for i in 0..6_000 {
        data.extend_from_slice(format!("{i}\t{i}\tApp\t-\t-\tINF\tmessage {i}\n").as_bytes());
    }
    data.extend_from_slice(b"6000\t6000\tApp\t-\t-\tINF\tbad \xff byte\n");
    std::fs::write(&logs, data).expect("write");
    let (code, out) = run(&["ingest", "--logs", &logs]);
    assert_eq!(code, 0, "{out}");
    assert!(
        out.contains("6001 lines: 6000 parsed, 1 quarantined"),
        "{out}"
    );
    assert!(
        out.contains("quarantined line 6001: line is not valid UTF-8"),
        "{out}"
    );
}

#[test]
fn comma_separated_logs_are_consolidated() {
    let dir = TempDir::new("merge");
    let (logs_a, directory) = simulated(&dir);
    let logs_b = dir.path("logs-b.tsv");
    let dir_b = dir.path("dir-b.xml");
    let (code, _) = run(&[
        "simulate",
        "--out",
        &logs_b,
        "--directory",
        &dir_b,
        "--days",
        "1",
        "--seed",
        "6",
        "--scale",
        "0.1",
    ]);
    assert_eq!(code, 0);

    let both = format!("{logs_a},{logs_b}");
    let (code, merged_out) = run(&["sessions", "--logs", &both]);
    assert_eq!(code, 0, "{merged_out}");
    let (code, single_out) = run(&["sessions", "--logs", &logs_a]);
    assert_eq!(code, 0);
    let count = |s: &str| -> usize {
        s.split_whitespace()
            .nth(3)
            .and_then(|w| w.parse().ok())
            .unwrap_or(0)
    };
    // "<N> sessions from <M> logs ..." — merged M exceeds single M.
    assert!(
        count(&merged_out) > count(&single_out),
        "{merged_out} vs {single_out}"
    );

    // L3 over the consolidated pair still works.
    let (code, out) = run(&[
        "l3",
        "--logs",
        &both,
        "--directory",
        &directory,
        "--stop-patterns",
        "standard",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("L3:"));
}

#[test]
fn daily_window_advances_with_a_persistent_cache() {
    let dir = TempDir::new("daily");
    let logs = dir.path("logs.tsv");
    let directory = dir.path("dir.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs,
        "--directory",
        &directory,
        "--days",
        "2",
        "--seed",
        "5",
        "--scale",
        "0.15",
    ]);
    assert_eq!(code, 0, "simulate failed: {out}");

    // Cold run: nothing can hit, and the cache file is written.
    let cache = dir.path("cache.json");
    let daily = |extra: &[&str]| {
        let mut args = vec![
            "daily",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--window-days",
            "2",
            "--cache",
            &cache,
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let (code, cold) = daily(&[]);
    assert_eq!(code, 0, "{cold}");
    assert!(cold.contains("cache: 0 hits"), "{cold}");
    assert!(cold.contains("saved cache"), "{cold}");

    // Warm run in a fresh "process": everything hits from the file.
    let (code, warm) = daily(&[]);
    assert_eq!(code, 0, "{warm}");
    assert!(warm.contains("loaded cache"), "{warm}");
    assert!(warm.contains("0 misses"), "{warm}");

    // The mined model sizes must match between cold and warm.
    let summary = |s: &str| {
        s.lines()
            .find(|l| l.contains("window days"))
            .expect("summary line")
            .to_owned()
    };
    let cold_line = summary(&cold);
    let warm_line = summary(&warm);
    let models = |l: &str| l.split("(cache:").next().expect("prefix").to_owned();
    assert_eq!(models(&cold_line), models(&warm_line));

    // Invalid geometry is rejected cleanly.
    let (code, out) = daily(&["--steps", "0"]);
    assert_eq!(code, 1);
    assert!(out.contains("positive"), "{out}");
}

#[test]
fn corrupt_cache_file_degrades_to_cold_start() {
    let dir = TempDir::new("corrupt-cache");
    let (logs, directory) = simulated(&dir);
    let cache = dir.path("cache.ck");
    // Garbage where the checkpoint should be (e.g. a pre-durable-format
    // JSON dump, or torn storage) must not fail the run.
    std::fs::write(&cache, b"{\"not\": \"a checkpoint\"}").expect("plant garbage");
    let (code, out) = run(&[
        "daily",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--window-days",
        "1",
        "--cache",
        &cache,
    ]);
    assert_eq!(code, 0, "corrupt cache failed the run: {out}");
    assert!(out.contains("warning:"), "no corruption warning: {out}");
    assert!(out.contains("cache: 0 hits"), "not a cold start: {out}");
    assert!(out.contains("saved cache"), "{out}");
    // The damage is ledgered and the wreck quarantined for forensics.
    let ledger = std::fs::read_to_string(format!("{cache}.ledger")).expect("ledger written");
    assert!(ledger.contains("\"corruption\":true"), "{ledger}");
    assert!(
        std::fs::metadata(format!("{cache}.quarantine")).is_ok(),
        "no quarantine file"
    );
    // And the freshly saved cache is clean again.
    let (code, out) = run(&["cache", "verify", "--cache", &cache]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("verify: clean"), "{out}");
}

#[test]
fn cache_verify_then_repair_heals_a_damaged_checkpoint() {
    let dir = TempDir::new("verify-repair");
    let (logs, directory) = simulated(&dir);
    let cache = dir.path("cache.ck");
    let (code, out) = run(&[
        "daily",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--window-days",
        "1",
        "--cache",
        &cache,
    ]);
    assert_eq!(code, 0, "{out}");

    // Flip one byte in the middle of the checkpoint.
    let mut bytes = std::fs::read(&cache).expect("checkpoint bytes");
    let mid = bytes.len() / 2;
    if let Some(b) = bytes.get_mut(mid) {
        *b ^= 0x40;
    }
    std::fs::write(&cache, &bytes).expect("plant damage");

    let (code, out) = run(&["cache", "verify", "--cache", &cache]);
    assert_eq!(code, 1, "verify missed the damage: {out}");
    assert!(out.contains("corruption detected"), "{out}");

    let (code, out) = run(&["cache", "repair", "--cache", &cache]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("repaired cache"), "{out}");

    let (code, out) = run(&["cache", "verify", "--cache", &cache]);
    assert_eq!(code, 0, "repair left corruption behind: {out}");
    assert!(out.contains("verify: clean"), "{out}");
}

#[test]
fn daily_resume_skips_completed_steps() {
    let dir = TempDir::new("resume");
    let logs = dir.path("logs.tsv");
    let directory = dir.path("dir.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs,
        "--directory",
        &directory,
        "--days",
        "2",
        "--seed",
        "5",
        "--scale",
        "0.15",
    ]);
    assert_eq!(code, 0, "simulate failed: {out}");

    let cache = dir.path("cache.ck");
    let daily = |extra: &[&str]| {
        let mut args = vec![
            "daily",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--window-days",
            "1",
            "--steps",
            "2",
            "--cache",
            &cache,
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let (code, first) = daily(&[]);
    assert_eq!(code, 0, "{first}");
    assert!(first.contains("saved cache"), "{first}");
    let before = std::fs::read(&cache).expect("checkpoint");

    // A completed run resumed is a no-op: nothing re-runs, nothing is
    // rewritten, but the final window is still reported.
    let (code, resumed) = daily(&["--resume"]);
    assert_eq!(code, 0, "{resumed}");
    assert!(resumed.contains("resumed from step 2 of 2"), "{resumed}");
    assert!(resumed.contains("window days"), "{resumed}");
    assert!(resumed.contains("up to date"), "{resumed}");
    assert_eq!(
        std::fs::read(&cache).expect("checkpoint"),
        before,
        "a fully-resumed run rewrote the checkpoint"
    );

    // --resume without --cache is a usage error.
    let (code, out) = run(&["daily", "--logs", &logs, "--resume"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("--cache"), "{out}");
}

#[test]
fn daily_trace_is_byte_identical_across_thread_widths() {
    let dir = TempDir::new("trace-threads");
    let logs = dir.path("logs.tsv");
    let directory = dir.path("dir.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs,
        "--directory",
        &directory,
        "--days",
        "2",
        "--seed",
        "5",
        "--scale",
        "0.15",
    ]);
    assert_eq!(code, 0, "simulate failed: {out}");

    // Each run gets a fresh cache file so every trace sees the same
    // cold-start hit/miss pattern.
    let traced = |tag: &str, threads: &str| {
        let cache = dir.path(&format!("cache-{tag}.ck"));
        let trace = dir.path(&format!("trace-{tag}.jsonl"));
        let (code, out) = run(&[
            "daily",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--window-days",
            "1",
            "--steps",
            "2",
            "--cache",
            &cache,
            "--threads",
            threads,
            "--trace",
            &trace,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote trace"), "{out}");
        std::fs::read(&trace).expect("trace written")
    };
    let serial = traced("serial", "1");
    let wide = traced("wide", "4");
    assert_eq!(serial, wide, "trace must not depend on --threads");
    // And across two consecutive runs at the same width.
    let again = traced("again", "1");
    assert_eq!(serial, again, "trace must be stable across runs");

    // The trace is deterministic: logical seqnos, no wall-clock field.
    let text = String::from_utf8(serial).expect("utf8 trace");
    assert!(text.lines().count() > 4, "{text}");
    assert!(text.starts_with("{\"seq\":0,"), "{text}");
    assert!(!text.contains("wall_us"), "{text}");
    assert!(text.contains("\"name\":\"daily\""), "{text}");
    assert!(text.contains("\"name\":\"daily.step\""), "{text}");
    // The ingest span comes first and closes with its counts.
    assert!(
        text.starts_with("{\"seq\":0,\"ev\":\"begin\",\"name\":\"ingest\"}"),
        "{text}"
    );
    assert!(
        text.contains("\"ev\":\"end\",\"name\":\"ingest\",\"lines\":"),
        "{text}"
    );
    assert!(text.contains("\"name\":\"window\""), "{text}");
    // Every window reports the three detectors' health, and the
    // durable store adds its own row.
    for detector in ["l1", "l2", "l3", "store"] {
        let span = format!("\"name\":\"detector.{detector}\"");
        assert!(text.contains(&span), "{span} missing: {text}");
    }
}

#[test]
fn daily_metrics_summarize_the_run() {
    let dir = TempDir::new("metrics");
    let (logs, directory) = simulated(&dir);
    let cache = dir.path("cache.ck");
    let daily = |extra: &[&str]| {
        let mut args = vec![
            "daily",
            "--logs",
            &logs,
            "--directory",
            &directory,
            "--window-days",
            "1",
            "--cache",
            &cache,
        ];
        args.extend_from_slice(extra);
        run(&args)
    };

    // Text report: detector and cache lines.
    let (code, out) = daily(&["--metrics"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("detector store:"), "{out}");
    assert!(out.contains("cache l1:"), "{out}");

    // JSON report on the now-warm cache shows hits and zero misses.
    let (code, out) = daily(&["--metrics", "--format", "json"]);
    assert_eq!(code, 0, "{out}");
    let json = out
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON report line");
    assert!(json.contains("\"detectors\":"), "{json}");
    assert!(json.contains("\"caches\":"), "{json}");
    assert!(json.contains("\"misses\":0"), "{json}");

    // An unknown format is a clean usage error.
    let (code, out) = daily(&["--metrics", "--format", "xml"]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("--format"), "{out}");
}

#[test]
fn wall_clock_flag_stamps_the_trace() {
    let dir = TempDir::new("wall-clock");
    let (logs, directory) = simulated(&dir);
    let trace = dir.path("trace.jsonl");
    let (code, out) = run(&[
        "daily",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--window-days",
        "1",
        "--trace",
        &trace,
        "--wall-clock",
    ]);
    assert_eq!(code, 0, "{out}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.contains("\"wall_us\":"), "{text}");
}

#[test]
fn daily_checks_the_cache_directory_before_reading_logs() {
    let dir = TempDir::new("cache-dir");
    let missing = dir.path("no-such-dir");
    let cache = format!("{missing}/cache.ck");
    // The logs are missing too: naming the directory proves the check
    // ran before the ingest.
    let logs = dir.path("no-such-logs.tsv");
    let (code, out) = run(&["daily", "--logs", &logs, "--cache", &cache]);
    assert_eq!(code, 1, "{out}");
    assert!(
        out.contains(&format!(
            "error: flag --cache: directory {missing:?} does not exist"
        )),
        "{out}"
    );
    assert!(!std::path::Path::new(&missing).exists());
}

#[test]
fn day_flags_past_the_clock_are_flag_errors() {
    let dir = TempDir::new("day-range");
    let (logs, _) = simulated(&dir);
    // The first start day whose one-day window ends past the largest
    // millisecond timestamp, and one whose start alone overflows it.
    for start_day in ["106751991167", "200000000000"] {
        for command in ["daily", "serve"] {
            let (code, out) = run(&[
                command,
                "--logs",
                &logs,
                "--window-days",
                "1",
                "--start-day",
                start_day,
            ]);
            assert_eq!(code, 1, "{command} --start-day {start_day}: {out}");
            assert!(
                out.contains("error: flag --start-day:"),
                "{command} --start-day {start_day}: {out}"
            );
        }
    }
}

#[test]
fn daily_reuses_a_store_primed_from_the_whole_export() {
    use logdep::durable::{run_daily_durable, DailyPlan, NoopPolicy};
    use logdep::health::PipelineConfig;
    use logdep::l1::L1Config;
    use logdep::l2::L2Config;
    use logdep::l3::L3Config;
    use logdep::window::run_window_cached;
    use logdep::EvidenceCache;
    use logdep_logstore::{load_logs, IngestPolicy};

    let dir = TempDir::new("primed-whole");
    let logs = dir.path("logs.tsv");
    let directory = dir.path("dir.xml");
    let (code, out) = run(&[
        "simulate",
        "--out",
        &logs,
        "--directory",
        &directory,
        "--days",
        "3",
        "--seed",
        "5",
        "--scale",
        "0.15",
    ]);
    assert_eq!(code, 0, "simulate failed: {out}");

    // The whole export, and the detectors `daily` builds from its
    // defaults with a directory.
    let (store, _) = load_logs(&logs, &IngestPolicy::default()).expect("load");
    let xml = std::fs::read_to_string(&directory).expect("directory");
    let ids: Vec<String> = logdep_sim::ServiceDirectory::from_xml(&xml)
        .expect("parse directory")
        .ids()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let cfg = PipelineConfig {
        l1: Some(L1Config {
            minlogs: 25,
            seed: 7,
            ..L1Config::default()
        }),
        l2: Some(L2Config::default()),
        l3: Some(L3Config::default()),
        par: logdep_par::ParConfig::default(),
    };

    // Prime the store in-process from the whole export: window [0, 2).
    let cache = dir.path("cache.ck");
    let plan = DailyPlan {
        start_day: 0,
        window_days: 2,
        advance_days: 1,
        steps: 1,
    };
    run_daily_durable(
        &store,
        &ids,
        &cfg,
        &plan,
        std::path::Path::new(&cache),
        false,
        &mut NoopPolicy,
        &mut |_, _| {},
    )
    .expect("prime");

    // The reference: a rolling pass over the whole export.
    let mut rolling = EvidenceCache::new();
    let mut expected = String::new();
    for start_day in [0, 1] {
        let window = DailyPlan { start_day, ..plan }.window(0);
        let o = run_window_cached(&store, window, &ids, &cfg, &mut rolling).expect("window");
        expected = format!(
            "window days {start_day}..{}: L1 {} pairs, L2 {} pairs, L3 {} deps \
             (cache: {} hits, {} misses)",
            start_day + 2,
            o.l1.as_ref().map_or(0, |r| r.detected.len()),
            o.l2.as_ref().map_or(0, |r| r.detected.len()),
            o.l3.as_ref().map_or(0, |r| r.detected.len()),
            o.stats.hits(),
            o.stats.misses()
        );
    }

    // The next night reads only its window's rows, and still finds
    // every entry the whole export's window left behind.
    let (code, out) = run(&[
        "daily",
        "--logs",
        &logs,
        "--directory",
        &directory,
        "--window-days",
        "2",
        "--start-day",
        "1",
        "--cache",
        &cache,
    ]);
    assert_eq!(code, 0, "{out}");
    let line = out
        .lines()
        .find(|l| l.starts_with("window days"))
        .expect("summary line");
    assert_eq!(line, expected, "{out}");
    assert!(!line.contains("(cache: 0 hits"), "{out}");
}
