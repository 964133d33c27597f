//! Conformance of the query server: the response transcript for a
//! fixed request sequence is byte-identical at `--workers 1` and
//! `--workers 4`, including across a mid-sequence snapshot hot-swap;
//! a fresh connection per request gets the same `/v1/pair` body as the
//! keep-alive client, for whichever generation is installed; and
//! concurrent readers racing repeated swaps always observe a complete
//! body from exactly one generation — never a torn mix.
//! The transcript is also pinned to `tests/golden/serve_transcript.txt`,
//! so a changed `/v1/pair`, `/v1/diff` or `/v1/churn` body fails here
//! even when both widths agree. To regenerate it after an intended
//! change:
//!
//! ```text
//! LOGDEP_BLESS=1 cargo test -p logdep-integration --test serve_conformance
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "test harness: the server loop and the racing readers run on their own threads"
)]

use logdep::{DailyPlan, EvidenceCache, PipelineConfig};
use logdep_logstore::SourceId;
use logdep_serve::{HttpClient, ModelIndex, ServeConfig, Server, ServerHandle};
use logdep_sim::{simulate, SimConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const DAYS: u32 = 3;

/// Mines a small simulated landscape into an index. The build is fully
/// deterministic, so calling this twice with the same arguments yields
/// byte-identical indexes — which is what lets each server width get
/// its own copy.
fn build_index(seed: u64, failure_rate: f64, generation: u64) -> ModelIndex {
    let mut sim = SimConfig::paper_week(seed, failure_rate);
    sim.days = DAYS;
    let out = simulate(&sim);
    let service_ids: Vec<String> = out.directory.ids().iter().map(|s| s.to_string()).collect();
    let plan = DailyPlan {
        start_day: 0,
        window_days: 1,
        advance_days: 1,
        steps: DAYS as u64,
    };
    let mut cache = EvidenceCache::new();
    ModelIndex::from_store(
        &out.store,
        &service_ids,
        &PipelineConfig::all_defaults(),
        &plan,
        &mut cache,
        generation,
    )
    .expect("index build")
}

fn gen1() -> ModelIndex {
    build_index(11, 0.2, 1)
}

fn gen2() -> ModelIndex {
    build_index(13, 0.3, 2)
}

/// The `/v1/pair` query between the first two applications.
fn pair_path(index: &ModelIndex) -> String {
    let s0 = index.source_label(SourceId(0));
    let s1 = index.source_label(SourceId(1));
    format!("/v1/pair?src={s0}&dst={s1}")
}

/// The fixed endpoint matrix, parameterized by names the index knows.
/// `/v1/metrics` goes last: its counters summarize the requests that
/// preceded it, which is the same sequence at every worker width.
fn matrix(index: &ModelIndex) -> Vec<String> {
    let s0 = index.source_label(SourceId(0));
    let s1 = index.source_label(SourceId(1));
    let svc = index
        .service_ids()
        .first()
        .cloned()
        .unwrap_or_else(|| "SVC?".to_owned());
    vec![
        "/healthz".to_owned(),
        "/v1/model".to_owned(),
        "/v1/report".to_owned(),
        pair_path(index),
        format!("/v1/pair?src={s0}&dst={svc}"),
        format!("/v1/pair?src=no-such-app&dst={s1}"),
        "/v1/pair?src=only-one-param".to_owned(),
        format!("/v1/impact?app={s0}&depth=2"),
        format!("/v1/impact?app={s0}"),
        "/v1/impact?app=no-such-app".to_owned(),
        "/v1/impact?app=App00&depth=0".to_owned(),
        "/v1/churn?top=3".to_owned(),
        "/v1/churn".to_owned(),
        "/v1/diff?from=day0&to=day1".to_owned(),
        "/v1/diff?from=0&to=2".to_owned(),
        "/v1/diff?from=0&to=99".to_owned(),
        "/v1/no-such-endpoint".to_owned(),
        "/v1/metrics".to_owned(),
    ]
}

fn start(workers: usize, index: ModelIndex) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, index).expect("bind loopback");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        logdep_serve::run_server(server, None).expect("serve loop");
    });
    (handle, join)
}

/// Requests every path on one keep-alive connection, appends each status
/// and body to `out`, and returns the body served for `pair`.
fn request_all(client: &mut HttpClient, paths: &[String], pair: &str, out: &mut String) -> String {
    let mut pair_body = String::new();
    for path in paths {
        let (status, body) = client.get(path).expect("request");
        out.push_str(&format!("{path} -> {status} {body}\n"));
        if path == pair {
            pair_body = body;
        }
    }
    pair_body
}

/// Asserts that a new connection per request gets exactly `expected`.
fn assert_fresh_connections(handle: &ServerHandle, pair: &str, expected: &str) {
    for _ in 0..3 {
        let mut client = HttpClient::connect(handle.addr(), 5_000).expect("fresh connect");
        let (status, body) = client.get(pair).expect("fresh request");
        assert_eq!(status, 200);
        assert!(
            body == expected,
            "a fresh connection got a body the keep-alive client did not:\n{body}\n--- keep-alive ---\n{expected}"
        );
    }
}

/// Runs the whole conformance sequence against a `workers`-wide server
/// and returns the response transcript: every path's status and body,
/// for generation 1, then again after hot-swapping in generation 2.
fn transcript(workers: usize) -> String {
    let index = gen1();
    let paths = matrix(&index);
    let pair = pair_path(&index);
    let (handle, join) = start(workers, index.clone());
    let mut client = HttpClient::connect(handle.addr(), 5_000).expect("connect");

    let mut out = String::new();
    let gen1_pair = request_all(&mut client, &paths, &pair, &mut out);

    // Hot-swap mid-sequence: same connection, new generation.
    handle.install(gen2());
    assert_eq!(handle.generation(), 2);
    out.push_str("-- swap --\n");
    let gen2_pair = request_all(&mut client, &paths, &pair, &mut out);

    // Fresh connections, one request each, come after the recorded
    // sequence so its `/v1/metrics` lines stay as committed. The
    // keep-alive client closes first: one worker serves one connection
    // at a time. A new connection sees generation 2 after the swap, and
    // generation 1 once it is installed again, byte for byte.
    drop(client);
    assert_fresh_connections(&handle, &pair, &gen2_pair);
    handle.install(index);
    assert_fresh_connections(&handle, &pair, &gen1_pair);

    handle.shutdown();
    join.join().expect("server thread");
    out
}

#[test]
fn transcripts_are_byte_identical_across_worker_widths() {
    let serial = transcript(1);
    let pooled = transcript(4);
    assert!(
        serial == pooled,
        "workers=1 and workers=4 transcripts diverge:\n--- serial ---\n{serial}\n--- pooled ---\n{pooled}"
    );
    // Sanity: the sequence actually exercised both generations and the
    // error paths.
    assert!(serial.contains("\"generation\":1"), "{serial}");
    assert!(serial.contains("\"generation\":2"), "{serial}");
    assert!(serial.contains("-> 404"), "{serial}");
    assert!(serial.contains("-> 400"), "{serial}");
    assert!(serial.contains("\"serve.swaps\":1"), "{serial}");
    golden_check(&serial);
}

/// Compares the transcript against the committed snapshot, or rewrites
/// the snapshot under `LOGDEP_BLESS=1`.
fn golden_check(actual: &str) {
    let path = format!("{}/golden/serve_transcript.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("LOGDEP_BLESS").is_some() {
        std::fs::write(&path, actual).expect("bless golden transcript");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("read {path}: {e}; run with LOGDEP_BLESS=1 to create the snapshot")
    });
    assert!(
        actual == expected,
        "transcript drifted from {path}; if the change is intended, regenerate \
         with LOGDEP_BLESS=1 and commit the diff\n--- actual ---\n{actual}"
    );
}

#[test]
fn concurrent_readers_never_observe_torn_swaps() {
    let (index_a, index_b) = (gen1(), gen2());
    let pair = pair_path(&index_a);
    let (handle, join) = start(4, index_a.clone());

    // The two legal bodies: one per generation.
    let mut probe = HttpClient::connect(handle.addr(), 5_000).expect("connect");
    let (status, body_gen1) = probe.get(&pair).expect("probe gen1");
    assert_eq!(status, 200);
    handle.install(index_b.clone());
    let (status, body_gen2) = probe.get(&pair).expect("probe gen2");
    assert_eq!(status, 200);
    assert_ne!(body_gen1, body_gen2, "generations must be observable");

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..4 {
        let stop = Arc::clone(&stop);
        let addr = handle.addr();
        let path = pair.clone();
        let (b1, b2) = (body_gen1.clone(), body_gen2.clone());
        readers.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr, 5_000).expect("reader connect");
            let mut seen = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let (status, body) = client.get(&path).expect("reader request");
                assert_eq!(status, 200);
                assert!(
                    body == b1 || body == b2,
                    "torn or foreign body observed:\n{body}"
                );
                seen += 1;
            }
            seen
        }));
    }

    // Swap back and forth under the readers.
    for round in 0..20 {
        if round % 2 == 0 {
            handle.install(index_a.clone());
        } else {
            handle.install(index_b.clone());
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    let total: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    assert!(total > 0, "readers made no progress");

    handle.shutdown();
    join.join().expect("server thread");
}
