//! Persistence round trips across crates: simulated logs through the
//! TSV codec and the service directory through its XML document, with
//! mining results invariant under the round trip.

use logdep::l3::{run_l3_pool, L3Config};
use logdep::par::ParConfig;
use logdep_logstore::codec::{read_store, write_store};
use logdep_logstore::time::TimeRange;
use logdep_logstore::Millis;
use logdep_sim::{simulate, ServiceDirectory, SimConfig};

#[test]
fn tsv_round_trip_preserves_l3_results() {
    let out = simulate(&SimConfig::small_test(3));
    let ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let range = TimeRange::new(Millis(0), Millis::from_days(2));
    let before = run_l3_pool(
        &out.store,
        range,
        &ids,
        &L3Config::default(),
        &ParConfig::default(),
    )
    .expect("L3");

    let mut buf = Vec::new();
    write_store(&mut buf, &out.store).expect("serialize");
    let (parsed, errors) = read_store(buf.as_slice()).expect("parse");
    assert!(errors.is_empty(), "codec errors: {errors:?}");
    assert_eq!(parsed.len(), out.store.len());

    let after = run_l3_pool(
        &parsed,
        range,
        &ids,
        &L3Config::default(),
        &ParConfig::default(),
    )
    .expect("L3 again");
    // Source ids may differ between registries; compare by name.
    let names = |store: &logdep_logstore::LogStore, detected: &logdep::AppServiceModel| {
        let mut v: Vec<(String, usize)> = detected
            .iter()
            .map(|(app, svc)| (store.registry.source_name(app).to_owned(), svc))
            .collect();
        v.sort();
        v
    };
    assert_eq!(
        names(&out.store, &before.detected),
        names(&parsed, &after.detected)
    );
}

#[test]
fn directory_xml_round_trip_preserves_mining_input() {
    let out = simulate(&SimConfig::small_test(4));
    let xml = out.directory.to_xml();
    let parsed = ServiceDirectory::from_xml(&xml).expect("directory parses");
    assert_eq!(parsed, out.directory);
    assert_eq!(parsed.ids(), out.directory.ids());
}

#[test]
fn tsv_preserves_session_context() {
    let out = simulate(&SimConfig::small_test(5));
    let mut buf = Vec::new();
    write_store(&mut buf, &out.store).expect("serialize");
    let (parsed, _) = read_store(buf.as_slice()).expect("parse");

    let ctx =
        |s: &logdep_logstore::LogStore| s.records().iter().filter(|r| r.has_session_info()).count();
    assert_eq!(ctx(&out.store), ctx(&parsed));

    // Session reconstruction agrees in shape.
    let cfg = logdep_sessions::SessionConfig::default();
    let a = logdep_sessions::reconstruct(&out.store, &cfg);
    let b = logdep_sessions::reconstruct(&parsed, &cfg);
    assert_eq!(a.stats.n_sessions, b.stats.n_sessions);
    assert_eq!(a.stats.assigned_logs, b.stats.assigned_logs);
}

// --- durable-store edge cases, driven through the CLI in-process ---

fn cli(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = logdep_cli::run(&argv, &mut out);
    (code, String::from_utf8(out).expect("utf8 output"))
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("logdep-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn cache_verify_accepts_an_absent_store() {
    let dir = scratch("verify-empty");
    // A path that was never written: nothing to verify is not damage —
    // the operator gets a clean bill, not a false alarm.
    let missing = dir.join("never-written.ck").to_string_lossy().into_owned();
    let (code, out) = cli(&["cache", "verify", "--cache", &missing]);
    assert_eq!(code, 0, "verify flagged a store that never existed: {out}");
    assert!(out.contains("verify: clean"), "{out}");
}

#[test]
fn resuming_a_completed_run_emits_no_step_events() {
    let dir = scratch("resume-trace");
    let logs = dir.join("logs.tsv").to_string_lossy().into_owned();
    let directory = dir.join("dir.xml").to_string_lossy().into_owned();
    let (code, out) = cli(&[
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

    let cache = dir.join("cache.ck").to_string_lossy().into_owned();
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
        cli(&args)
    };

    // Run to completion, then resume the finished run under a trace.
    let (code, out) = daily(&[]);
    assert_eq!(code, 0, "{out}");
    let trace_path = dir.join("resume.jsonl").to_string_lossy().into_owned();
    let (code, out) = daily(&["--resume", "--trace", &trace_path]);
    assert_eq!(code, 0, "{out}");

    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    // Every step was checkpointed, so a faithful trace records the
    // resume decision and nothing being re-run: duplicate step events
    // here would mean checkpointed days were silently recomputed.
    assert!(
        trace.contains("\"name\":\"durable.resume\"") && trace.contains("\"resumed_from\":2"),
        "no resume point in the trace: {trace}"
    );
    assert!(
        !trace.contains("\"name\":\"daily.step\""),
        "a fully-resumed run re-emitted step events: {trace}"
    );
    // The final window is still *reported* (that part is contractual),
    // but it must be served wholly from the checkpointed cache: a
    // single miss would mean evidence was recomputed after resume.
    let miss_fields = trace.matches("\"misses\":").count();
    assert!(miss_fields > 0, "no cache accounting in the trace: {trace}");
    assert_eq!(
        miss_fields,
        trace.matches("\"misses\":0").count(),
        "the reporting window recomputed evidence: {trace}"
    );
}
