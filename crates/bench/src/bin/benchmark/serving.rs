//! The serve workloads: `logdep serve` answering a seeded query mix
//! under an open-loop load, alone (`serve_read`) and beside in-band hot
//! reloads (`serve_reload`).
//!
//! The load comes from one generator thread per server worker, each
//! with one keep-alive connection: a keep-alive connection pins a server
//! worker, so more connections than workers would starve some of them.

use crate::mining::{self, shadow_window};
use crate::stats::{mean, median, tail_percentile};
use crate::trace::Tracer;
use crate::{
    directory_ids, fresh_dir, ingest, pipeline_config, vm_hwm_kb, Env, Inputs, Metric, Outcome,
    Tally, SETUPS, WINDOW_DAYS,
};
use logdep::durable::{DurableStore, NoopPolicy};
use logdep_logstore::SourceId;
use logdep_serve::handlers::handle_request;
use logdep_serve::http::parse_request;
use logdep_serve::{run_reload, HttpClient, IndexPlan, ModelIndex, SnapshotSource};
use serde_json::Value;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load of `serve_read`. On a 2-vCPU host the generator keeps
/// up at this rate (its lateness does not grow over a run) and p99 stays
/// at 0.3–0.5 ms, so the latency is service time, not queueing.
const READ_RATE: f64 = 6000.0;
/// Offered load of `serve_reload`, leaving CPU for the re-mining reloads.
const RELOAD_RATE: f64 = 2000.0;
/// `/admin/reload` goes out one second into the load and every
/// `RELOAD_EVERY` after, up to two seconds before the end, so every run
/// of a given length sends the same number and each completes (a reload
/// takes about a second under this load). A reload still pending when
/// the next is due delays it.
const RELOAD_EVERY: Duration = Duration::from_secs(2);
/// Distinct queries in the seeded pool the load cycles through.
const POOL: usize = 4096;
/// Requests the traced run replays in-process (enough for a supported
/// p99 of the rarest endpoint, at 5% of the mix).
const REPLAY: usize = 50_000;
/// Snapshots the server mines: eight 7-day windows.
const STEPS: u64 = 8;
/// Socket deadline of the load generator's connections.
const CLIENT_TIMEOUT_MS: u64 = 5_000;

/// SplitMix64: a seeded, dependency-free stream for the query mix.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// The endpoints of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Pair,
    Impact,
    Diff,
    Churn,
    Model,
}

/// The mix in percent: pair 60, impact 20, diff 10, churn 5, model 5.
/// An assumption, not a measurement (README.md, "Workloads").
const WEIGHTS: [(Kind, usize); 5] = [
    (Kind::Pair, 60),
    (Kind::Impact, 20),
    (Kind::Diff, 10),
    (Kind::Churn, 5),
    (Kind::Model, 5),
];

impl Kind {
    fn handle_layer(self) -> &'static str {
        match self {
            Kind::Pair => "serve.handle_us.pair",
            Kind::Impact => "serve.handle_us.impact",
            Kind::Diff => "serve.handle_us.diff",
            Kind::Churn => "serve.handle_us.churn",
            Kind::Model => "serve.handle_us.model",
        }
    }
}

pub fn draw_kind(rng: &mut SplitMix) -> Kind {
    let mut r = rng.below(100);
    for (kind, weight) in WEIGHTS {
        if r < weight {
            return kind;
        }
        r -= weight;
    }
    Kind::Model
}

/// Percent of `/v1/pair` queries that ask about an edge of the served
/// model; the others pair a random source with a random source or
/// service, which is almost never an edge. An assumption, like the mix.
const PAIR_EDGE_PERCENT: usize = 75;

/// The names queries are drawn from.
pub struct Names {
    pub sources: Vec<String>,
    pub services: Vec<String>,
    pub days: Vec<i64>,
    /// `(src, dst)` of every edge of the latest snapshot: L1 and L2 pairs
    /// in both directions, L3 citations app → service.
    pub edges: Vec<(String, String)>,
}

impl Names {
    fn of(index: &ModelIndex) -> Self {
        let mut edges = Vec::new();
        if let Some(latest) = index.latest() {
            for (a, b) in latest.l1.iter().chain(latest.l2.iter()) {
                let (a, b) = (index.source_label(a), index.source_label(b));
                edges.push((a.clone(), b.clone()));
                edges.push((b, a));
            }
            for (app, svc) in latest.l3.iter() {
                edges.push((index.source_label(app), index.service_label(svc)));
            }
        }
        edges.sort();
        edges.dedup();
        Self {
            sources: (0..index.n_sources())
                .map(|i| index.source_label(SourceId(i as u32)))
                .collect(),
            services: index.service_ids().to_vec(),
            days: index.days().map(|d| d.day).collect(),
            edges,
        }
    }
}

fn encode_component(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// One query of the pool.
pub struct Query {
    pub kind: Kind,
    pub path: String,
}

/// `n` queries drawn from the seeded mix over `names`.
pub fn query_pool(seed: u64, names: &Names, n: usize) -> Vec<Query> {
    let mut rng = SplitMix::new(seed ^ 0x5EED_F00D);
    let pick = |rng: &mut SplitMix, v: &[String]| -> String {
        v.get(rng.below(v.len())).cloned().unwrap_or_default()
    };
    (0..n)
        .map(|_| {
            let kind = draw_kind(&mut rng);
            let path = match kind {
                Kind::Pair => {
                    let edge = (!names.edges.is_empty() && rng.below(100) < PAIR_EDGE_PERCENT)
                        .then(|| names.edges.get(rng.below(names.edges.len())).cloned())
                        .flatten();
                    let (src, dst) = edge.unwrap_or_else(|| {
                        let src = pick(&mut rng, &names.sources);
                        let i = rng.below(names.sources.len() + names.services.len());
                        let dst = names
                            .sources
                            .iter()
                            .chain(&names.services)
                            .nth(i)
                            .cloned()
                            .unwrap_or_default();
                        (src, dst)
                    });
                    format!(
                        "/v1/pair?src={}&dst={}",
                        encode_component(&src),
                        encode_component(&dst)
                    )
                }
                Kind::Impact => format!(
                    "/v1/impact?app={}&depth=3",
                    encode_component(&pick(&mut rng, &names.sources))
                ),
                Kind::Diff => {
                    let day = |rng: &mut SplitMix| {
                        names
                            .days
                            .get(rng.below(names.days.len()))
                            .copied()
                            .unwrap_or(0)
                    };
                    let from = day(&mut rng);
                    let to = day(&mut rng);
                    format!("/v1/diff?from={from}&to={to}")
                }
                Kind::Churn => "/v1/churn?top=5".to_owned(),
                Kind::Model => "/v1/model".to_owned(),
            };
            Query { kind, path }
        })
        .collect()
}

/// Replaces the value of the `"generation"` field with `#`, returning
/// the masked body and the generation it carried.
pub fn mask_generation(body: &str) -> (String, Option<u64>) {
    const KEY: &str = "\"generation\":";
    let Some(at) = body.find(KEY) else {
        return (body.to_owned(), None);
    };
    let start = at + KEY.len();
    let digits = body.get(start..).map_or(0, |rest| {
        rest.bytes().take_while(u8::is_ascii_digit).count()
    });
    let generation = body.get(start..start + digits).and_then(|d| d.parse().ok());
    let masked = format!(
        "{}#{}",
        body.get(..start).unwrap_or_default(),
        body.get(start + digits..).unwrap_or_default()
    );
    (masked, generation)
}

fn request_head(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: logdep\r\n\r\n").into_bytes()
}

/// Masked bodies `handle_request` gives for every pool query on the
/// reference index; a query that does not answer 200 is an error.
fn expected_bodies(index: &ModelIndex, pool: &[Query]) -> Result<Vec<String>, String> {
    pool.iter()
        .map(|q| {
            let req = parse_request(&request_head(&q.path))
                .map_err(|e| format!("parse {}: {e:?}", q.path))?;
            let resp = handle_request(index, &req).ok_or(format!("no handler for {}", q.path))?;
            if resp.status != 200 {
                return Err(format!(
                    "{} answers {} on the reference",
                    q.path, resp.status
                ));
            }
            Ok(mask_generation(&String::from_utf8_lossy(&resp.body)).0)
        })
        .collect()
}

/// Share of the pool's `/v1/pair` queries that `index` answers with
/// `"detected": true`.
fn pair_detected_share(index: &ModelIndex, pool: &[Query]) -> f64 {
    let detected: Vec<bool> = pool
        .iter()
        .filter(|q| q.kind == Kind::Pair)
        .map(|q| {
            parse_request(&request_head(&q.path))
                .ok()
                .and_then(|req| handle_request(index, &req))
                .and_then(|resp| serde_json::parse_value(&String::from_utf8_lossy(&resp.body)).ok())
                .and_then(|v| v.get("detected").cloned())
                == Some(Value::Bool(true))
        })
        .collect();
    detected.iter().filter(|d| **d).count() as f64 / detected.len().max(1) as f64
}

/// A `logdep serve` child; killed and reaped when dropped.
struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        match self.child.kill() {
            Ok(()) | Err(_) => {}
        }
        match self.child.wait() {
            Ok(_) | Err(_) => {}
        }
    }
}

impl ServerChild {
    /// Spawns the server and waits for its first `200` from `/healthz`;
    /// returns it with the seconds that took.
    fn launch(env: &Env, inputs: &Inputs, store: &Path) -> Result<(Self, f64), String> {
        let mut cmd = Command::new(&env.logdep);
        cmd.arg("serve")
            .arg("--logs")
            .arg(&inputs.logs)
            .arg("--directory")
            .arg(&inputs.directory)
            .args(["--stop-patterns", "standard", "--threads"])
            .arg(env.threads.to_string())
            .arg("--store")
            .arg(store)
            .args(["--window-days", &WINDOW_DAYS.to_string()])
            .args(["--steps", &STEPS.to_string(), "--workers"])
            .arg(env.threads.to_string())
            .args(["--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let t0 = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", env.logdep.display()))?;
        let banner = child.stdout.take().map(banner_line).unwrap_or_default();
        let addr = banner
            .split_once("http://")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let server = ServerChild {
            child,
            addr: addr.ok_or(format!("logdep serve did not start: {banner:?}"))?,
        };
        loop {
            let healthy = HttpClient::connect(server.addr, CLIENT_TIMEOUT_MS)
                .and_then(|mut c| c.get("/healthz"))
                .is_ok_and(|(status, _)| status == 200);
            if healthy {
                break;
            }
            if t0.elapsed() > Duration::from_secs(120) {
                return Err("logdep serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }
}

fn banner_line(out: std::process::ChildStdout) -> String {
    use std::io::BufRead;
    let mut line = String::new();
    match std::io::BufReader::new(out).read_line(&mut line) {
        Ok(_) | Err(_) => line,
    }
}

/// Reload bookkeeping shared by the generator threads.
struct ReloadLog {
    /// When each generation was first seen in a response.
    first_seen: BTreeMap<u64, Instant>,
    /// Generation awaited after a 202, and when the 202 arrived.
    pending: Option<(u64, Instant)>,
    next_at: Instant,
    last_at: Instant,
    sent: u64,
    done_s: Vec<f64>,
    /// The server's `VmHWM` (KiB) just before the first reload.
    server_pid: u32,
    hwm_before_reload_kb: Option<u64>,
}

fn lock(log: &Mutex<ReloadLog>) -> std::sync::MutexGuard<'_, ReloadLog> {
    match log.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// One connection's share of the open-loop schedule: request `n` is due
/// at `t0 + n / rate`, and connection `conn` of `conns` sends every
/// `n ≡ conn (mod conns)` below `total`.
#[derive(Clone, Copy)]
struct Schedule {
    t0: Instant,
    rate: f64,
    conns: usize,
    conn: usize,
    total: usize,
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    /// `(due offset s, latency µs, lateness µs)` per answered request.
    samples: Vec<(f64, f64, f64)>,
    tally: Tally,
}

/// Sends one GET and returns `(status, body)`.
type Transport<'a> = dyn FnMut(&str) -> Result<(u16, String), String> + 'a;

/// Drives one connection through its schedule. Each request is timed
/// from its due time, not from when it was sent, so a stall is charged
/// to every request due behind it; how late it was sent is recorded
/// too. Every body must equal `expected` with the generation masked,
/// and generations must never go backwards. With `reloads`, every
/// connection notes when it first sees a generation, and connection 0
/// sends the in-band `/admin/reload`s.
fn drive(
    sched: Schedule,
    pool: &[Query],
    expected: &[String],
    send: &mut Transport<'_>,
    reloads: Option<&Mutex<ReloadLog>>,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut last_generation = 0u64;
    for n in (sched.conn..sched.total).step_by(sched.conns.max(1)) {
        let idx = n % pool.len().max(1);
        let (Some(query), Some(want)) = (pool.get(idx), expected.get(idx)) else {
            break;
        };
        if let Some(log) = reloads.filter(|_| sched.conn == 0) {
            maybe_reload(log, send, &mut out.tally);
        }
        let due = sched.t0 + Duration::from_secs_f64(n as f64 / sched.rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let reply = send(&query.path);
        let done = Instant::now();
        let (status, body) = match reply {
            Ok(r) => r,
            Err(e) => {
                out.tally.check(false, || format!("{}: {e}", query.path));
                continue;
            }
        };
        let (masked, generation) = mask_generation(&body);
        let generation = generation.unwrap_or(0);
        out.tally.check(
            status == 200 && masked == *want && generation >= last_generation,
            || {
                let head: String = body.chars().take(160).collect();
                format!(
                    "{} -> {status}, generation {generation} after {last_generation}: {head}",
                    query.path
                )
            },
        );
        if generation > last_generation {
            last_generation = generation;
            if let Some(log) = reloads {
                lock(log).first_seen.entry(generation).or_insert(done);
            }
        }
        let us = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e6;
        out.samples.push((
            due.saturating_duration_since(sched.t0).as_secs_f64(),
            us(done),
            us(sent),
        ));
    }
    out
}

/// Closes a pending reload once its generation has been seen, and sends
/// the next `/admin/reload` when it is due.
fn maybe_reload(log: &Mutex<ReloadLog>, send: &mut Transport<'_>, tally: &mut Tally) {
    let newest = {
        let mut state = lock(log);
        if let Some((target, accepted_at)) = state.pending {
            let Some(swap_at) = state.first_seen.range(target..).next().map(|(_, t)| *t) else {
                return;
            };
            let secs = swap_at.saturating_duration_since(accepted_at).as_secs_f64();
            state.done_s.push(secs);
            state.pending = None;
        }
        let now = Instant::now();
        if now < state.next_at || state.next_at > state.last_at {
            return;
        }
        state.next_at += RELOAD_EVERY;
        if state.sent == 0 {
            state.hwm_before_reload_kb = vm_hwm_kb(state.server_pid);
        }
        state.first_seen.keys().next_back().copied().unwrap_or(1)
    };
    let reply = send("/admin/reload");
    let accepted_at = Instant::now();
    let ok = matches!(&reply, Ok((202, body)) if body.contains("scheduled"));
    tally.check(ok, || format!("/admin/reload -> {reply:?}"));
    let mut state = lock(log);
    state.sent += 1;
    if ok {
        state.pending = Some((newest + 1, accepted_at));
    }
}

/// The open-loop load: `conns` keep-alive connections, each driven by
/// its own thread, offering `rate` requests per second for `seconds`.
fn open_loop(
    server: &ServerChild,
    conns: usize,
    rate: f64,
    seconds: f64,
    pool: &[Query],
    expected: &[String],
    with_reloads: bool,
) -> Result<(Vec<ConnResult>, ReloadLog), String> {
    let (addr, server_pid) = (server.addr, server.child.id());
    let total = (rate * seconds).round() as usize;
    // Connect and warm up every connection before the clock starts, so
    // the first due request does not pay for the accept.
    let mut clients = Vec::new();
    for _ in 0..conns {
        let mut c = HttpClient::connect(addr, CLIENT_TIMEOUT_MS).map_err(|e| e.to_string())?;
        c.get("/healthz").map_err(|e| format!("warm-up: {e}"))?;
        clients.push(c);
    }
    let t0 = Instant::now() + Duration::from_millis(20);
    let log = Mutex::new(ReloadLog {
        first_seen: BTreeMap::new(),
        pending: None,
        next_at: t0 + Duration::from_secs(1),
        last_at: t0 + Duration::from_secs_f64((seconds - 2.0).max(1.0)),
        sent: 0,
        done_s: Vec::new(),
        server_pid,
        hwm_before_reload_kb: None,
    });
    let results = logdep_par::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, client)| {
                let log = &log;
                s.spawn(move || {
                    let sched = Schedule {
                        t0,
                        rate,
                        conns,
                        conn,
                        total,
                    };
                    let mut client = Some(client);
                    let mut send = |path: &str| -> Result<(u16, String), String> {
                        if client.is_none() {
                            let fresh = HttpClient::connect(addr, CLIENT_TIMEOUT_MS)
                                .map_err(|e| format!("reconnect: {e}"))?;
                            client = Some(fresh);
                        }
                        let reply = match client.as_mut() {
                            Some(c) => c.get(path).map_err(|e| e.to_string()),
                            None => Err("no connection".to_owned()),
                        };
                        if reply.is_err() {
                            client = None;
                        }
                        reply
                    };
                    drive(
                        sched,
                        pool,
                        expected,
                        &mut send,
                        with_reloads.then_some(log),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a generator thread panicked".to_owned())
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let log = match log.into_inner() {
        Ok(l) => l,
        Err(poisoned) => poisoned.into_inner(),
    };
    Ok((results, log))
}

/// What the untraced serve run measured.
struct Measured {
    outcome: Outcome,
    /// Median query latency, ms.
    p50_ms: f64,
}

fn measure(
    env: &Env,
    inputs: &Inputs,
    store: &Path,
    pool: &[Query],
    expected: &[String],
    with_reloads: bool,
) -> Result<Measured, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        // Dropping the previous server stops it before the next starts.
        drop(server.take());
        let (s, secs) = ServerChild::launch(env, inputs, store)?;
        tally.check(true, String::new);
        setups.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;
    let rate = if with_reloads { RELOAD_RATE } else { READ_RATE };
    let t0 = Instant::now();
    let (conns, log) = open_loop(
        &server,
        env.threads,
        rate,
        env.seconds,
        pool,
        expected,
        with_reloads,
    )?;
    let elapsed = t0.elapsed().as_secs_f64();
    // The peak while the server holds its first generation. What reloads
    // add is recorded beside it but not bounded: it steps by whole glibc
    // arenas (≈16 MB) depending on which threads allocate, and ranged
    // over 78-129 MB across runs of four reloads.
    let hwm_end_kb = vm_hwm_kb(server.child.id());
    drop(server);
    let mb = |kb: u64| kb as f64 / 1024.0;
    let peak_mb = log.hwm_before_reload_kb.or(hwm_end_kb).map_or(0.0, mb);

    let mut samples = Vec::new();
    for c in conns {
        samples.extend(c.samples);
        tally.absorb(c.tally);
    }
    let latency_ms: Vec<f64> = samples.iter().map(|s| s.1 / 1e3).collect();
    let late_ms: Vec<f64> = samples.iter().map(|s| s.2 / 1e3).collect();
    let n = latency_ms.len();
    // Saturated: the generator fell further behind as the run went on.
    let tenth = env.seconds / 10.0;
    let late_in = |keep: &dyn Fn(f64) -> bool| -> f64 {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| keep(s.0))
            .map(|s| s.2 / 1e3)
            .collect();
        median(&v).unwrap_or(0.0)
    };
    let growth_ms = late_in(&|d| d >= env.seconds - tenth) - late_in(&|d| d < tenth);
    let late_max = late_ms.iter().copied().fold(0.0, f64::max);

    let mut info = vec![
        Metric::new("offered_rate", "1/s", rate, n),
        Metric::new("achieved_rate", "1/s", n as f64 / elapsed, n),
        Metric::new("op_mean_ms", "ms", mean(&latency_ms).unwrap_or(0.0), n),
        Metric::new(
            "gen.late_ms_p99",
            "ms",
            tail_percentile(&late_ms, 99.0).unwrap_or(late_max),
            n,
        ),
        Metric::new("gen.late_ms_max", "ms", late_max, n),
        Metric::new("gen.late_growth_ms", "ms", growth_ms, n),
    ];
    if let Some(p99) = tail_percentile(&latency_ms, 99.0) {
        info.push(Metric::new("op_p99_ms", "ms", p99, n));
    }
    let extra = vec![
        (
            "op",
            Value::Str("one query, from its due time to its last body byte".into()),
        ),
        ("connections", Value::U64(env.threads as u64)),
        ("saturated", Value::Bool(growth_ms > 10.0)),
    ];
    if with_reloads {
        // Generations must rise one by one from 1: strictly increasing
        // across reloads, none skipped.
        let seen: Vec<u64> = log.first_seen.keys().copied().collect();
        let consecutive = seen.iter().copied().eq(1..=seen.len() as u64);
        tally.check(consecutive && !log.done_s.is_empty(), || {
            format!(
                "reloads: generations seen {seen:?}, {} of {} completed",
                log.done_s.len(),
                log.sent
            )
        });
        info.push(Metric::new(
            "reloads_done",
            "count",
            log.done_s.len() as f64,
            log.sent as usize,
        ));
        if let Some(r) = median(&log.done_s) {
            info.push(Metric::new("reload_s", "s", r, log.done_s.len()));
        }
        if let Some(kb) = hwm_end_kb {
            info.push(Metric::new("peak_rss_after_reloads_mb", "MB", mb(kb), 1));
        }
    }
    let p50_ms = median(&latency_ms).unwrap_or(0.0);
    Ok(Measured {
        p50_ms,
        outcome: Outcome {
            tally,
            metrics: vec![
                Metric::new("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len()),
                Metric::new("op_p50_ms", "ms", p50_ms, n),
                Metric::new("peak_rss_mb", "MB", peak_mb, 1),
            ],
            info,
            extra,
            layers: None,
        },
    })
}

/// The windows the server mines: eight 7-day windows from day 0.
fn index_plan() -> IndexPlan {
    IndexPlan {
        start_day: 0,
        window_days: WINDOW_DAYS,
        advance_days: 1,
        steps: STEPS,
    }
}

/// The snapshot source the server is started with.
fn snapshot_source(env: &Env, inputs: &Inputs, store: &Path) -> SnapshotSource {
    SnapshotSource {
        logs: inputs.logs.display().to_string(),
        directory: Some(inputs.directory.display().to_string()),
        store: Some(store.to_path_buf()),
        plan: index_plan(),
        cfg: pipeline_config(env.threads),
    }
}

/// Entry point of both serve workloads.
pub fn run(env: &Env, inputs: &Inputs, with_reloads: bool, trace: bool) -> Result<Outcome, String> {
    let workload = if with_reloads {
        "serve_reload"
    } else {
        "serve_read"
    };
    let dir: PathBuf = env.work.join(workload);
    fresh_dir(&dir)?;
    let store = dir.join("store.ck");
    // Window 0 mined into the store, as one `logdep daily` night would,
    // so the server starts from a warm cache. Untimed, but traced: these
    // are the serve workloads' durable layers.
    let mut tr = Tracer::new();
    mining::traced_prime(&mut tr, env, inputs, &store)?;
    let source = snapshot_source(env, inputs, &store);
    let reference = run_reload(&source, 1).map_err(|e| format!("reference index: {e}"))?;
    let pool = query_pool(env.seed, &Names::of(&reference), POOL);
    let expected = expected_bodies(&reference, &pool)?;
    let mut measured = measure(env, inputs, &store, &pool, &expected, with_reloads)?;
    measured.outcome.extra.push((
        "pair_detected_share",
        Value::F64(pair_detected_share(&reference, &pool)),
    ));
    if !trace {
        return Ok(measured.outcome);
    }
    let spans = env.out_dir.join(format!("{workload}.trace.jsonl"));
    traced(tr, &source, &reference, &pool, &expected, measured, &spans)
}

/// Replays `REPLAY` requests of the pool in-process — parse, handle,
/// encode, each its own span — and checks every body against `expected`
/// (generation masked) or, without it, for a 200. Returns each
/// request's time in µs.
fn replay_queries(
    tr: &mut Tracer,
    index: &ModelIndex,
    pool: &[Query],
    expected: Option<&[String]>,
    tally: &mut Tally,
) -> Vec<f64> {
    let heads: Vec<Vec<u8>> = pool.iter().map(|q| request_head(&q.path)).collect();
    let mut per_request_us = Vec::with_capacity(REPLAY);
    for n in 0..REPLAY {
        let idx = n % pool.len().max(1);
        let (Some(q), Some(head)) = (pool.get(idx), heads.get(idx)) else {
            break;
        };
        let t0 = Instant::now();
        let req = parse_request(head);
        let t1 = Instant::now();
        let resp = req.ok().and_then(|r| handle_request(index, &r));
        let t2 = Instant::now();
        let wire = resp.as_ref().map(|r| r.to_bytes(true));
        let t3 = Instant::now();
        let root = tr.span("request", "us", t0, t3, None);
        tr.span("serve.parse_us", "us", t0, t1, Some(root));
        tr.span(q.kind.handle_layer(), "us", t1, t2, Some(root));
        tr.span("serve.encode_us", "us", t2, t3, Some(root));
        per_request_us.push(t3.saturating_duration_since(t0).as_secs_f64() * 1e6);
        let Some(resp) = resp.filter(|_| wire.is_some()) else {
            tally.check(false, || {
                format!("in-process replay of {} got no response", q.path)
            });
            continue;
        };
        tr.sample("serve.body_bytes", "bytes", resp.body.len() as f64);
        let ok = match expected.and_then(|e| e.get(idx)) {
            Some(want) => mask_generation(&String::from_utf8_lossy(&resp.body)).0 == *want,
            None => resp.status == 200,
        };
        tally.check(ok, || format!("in-process replay of {} diverged", q.path));
    }
    per_request_us
}

/// The serve layers on a mining workload's inputs: what a server
/// started on the just-mined `store` pays to build its index, and what
/// the seeded mix costs to parse, handle and encode against it. Returns
/// the index for the caller's model checks.
pub fn serve_layers(
    tr: &mut Tracer,
    tally: &mut Tally,
    env: &Env,
    inputs: &Inputs,
    store: &Path,
) -> Result<ModelIndex, String> {
    let logs = ingest(&inputs.logs)?;
    let ids = directory_ids(&inputs.directory)?;
    let mut cache = DurableStore::open_existing(store, &mut NoopPolicy)
        .map_err(|e| format!("open store: {e}"))?
        .cache()
        .clone();
    let cfg = pipeline_config(env.threads);
    let t0 = Instant::now();
    let index = ModelIndex::from_store(&logs, &ids, &cfg, &index_plan(), &mut cache, 1)
        .map_err(|e| format!("index build: {e}"))?;
    tr.span("index.build_ms", "ms", t0, Instant::now(), None);
    let pool = query_pool(env.seed, &Names::of(&index), POOL);
    replay_queries(tr, &index, &pool, None, tally);
    Ok(index)
}

/// The traced run: the seeded mix replayed in-process against the
/// reference index, and three reloads decomposed into the loader's
/// calls. `tr` already holds the traced prime of the store; the spans
/// go to `spans`.
fn traced(
    mut tr: Tracer,
    source: &SnapshotSource,
    reference: &ModelIndex,
    pool: &[Query],
    expected: &[String],
    measured: Measured,
    spans: &Path,
) -> Result<Outcome, String> {
    let Measured { outcome, p50_ms } = measured;
    let Outcome {
        mut tally,
        mut info,
        extra,
        ..
    } = outcome;
    let per_request_us = replay_queries(&mut tr, reference, pool, Some(expected), &mut tally);

    let store_path = source.store.clone().unwrap_or_default();
    let directory = PathBuf::from(source.directory.clone().unwrap_or_default());
    for k in 0..3u64 {
        let reload = tr.open_span("reload", "ms", None);
        let t0 = Instant::now();
        let logs = ingest(Path::new(&source.logs))?;
        let t1 = Instant::now();
        let ids = directory_ids(&directory)?;
        let t2 = Instant::now();
        let mut warm = DurableStore::open_existing(&store_path, &mut NoopPolicy)
            .map_err(|e| format!("open store: {e}"))?
            .cache()
            .clone();
        let t3 = Instant::now();
        let index =
            ModelIndex::from_store(&logs, &ids, &source.cfg, &source.plan, &mut warm, 2 + k)
                .map_err(|e| format!("index build: {e}"))?;
        let t4 = Instant::now();
        tr.close_span(reload);
        tr.span("logstore.ingest_ms", "ms", t0, t1, Some(reload));
        tr.sample("logstore.records", "count", logs.len() as f64);
        tr.span("directory.parse_ms", "ms", t1, t2, Some(reload));
        tr.span("durable.open_ms", "ms", t2, t3, Some(reload));
        let build = tr.span("index.build_ms", "ms", t3, t4, Some(reload));
        let coverage = tr.coverage(reload, &[]);
        tr.sample("trace.coverage", "ratio", coverage);

        let shadow = tr.open_span("shadow", "ms", None);
        let mut cache = DurableStore::open_existing(&store_path, &mut NoopPolicy)
            .map_err(|e| format!("open store: {e}"))?
            .cache()
            .clone();
        let mut shadow_ms = 0.0;
        for step in 0..source.plan.steps {
            let window = source.plan.window(step);
            shadow_ms += shadow_window(
                &mut tr,
                &logs,
                &ids,
                &source.cfg,
                window,
                &mut cache,
                shadow,
            )?;
        }
        tr.close_span(shadow);
        tr.sample("trace.shadow_ratio", "ratio", shadow_ms / tr.span_ms(build));
        let rebuilt = expected_bodies(&index, pool)?;
        tally.check(rebuilt == expected, || {
            format!("reload {k} built an index that answers differently")
        });
    }

    let replay_p50_us = median(&per_request_us).unwrap_or(0.0);
    info.push(Metric::new(
        "serve.wire_us",
        "us",
        p50_ms * 1e3 - replay_p50_us,
        per_request_us.len(),
    ));
    let wall_diff = Metric::new(
        "trace.wall_diff_ms",
        "ms",
        replay_p50_us / 1e3 - p50_ms,
        per_request_us.len(),
    );
    tr.finish(spans, &[wall_diff], tally, info, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Names {
        let edge = |a: &str, b: &str| (a.to_owned(), b.to_owned());
        Names {
            sources: (0..20).map(|i| format!("App{i:02}")).collect(),
            services: (0..10).map(|i| format!("SVC {i}")).collect(),
            days: (0..8).collect(),
            edges: vec![
                edge("App00", "App01"),
                edge("App01", "App00"),
                edge("App02", "SVC 3"),
            ],
        }
    }

    #[test]
    fn query_mix_is_seeded_and_weighted() {
        let a = query_pool(42, &names(), 10_000);
        let b = query_pool(42, &names(), 10_000);
        let c = query_pool(43, &names(), 10_000);
        let paths = |v: &[Query]| v.iter().map(|q| q.path.clone()).collect::<Vec<_>>();
        assert_eq!(paths(&a), paths(&b), "same seed, same queries");
        assert_ne!(paths(&a), paths(&c), "another seed, other queries");
        for (kind, percent) in WEIGHTS {
            let share = a.iter().filter(|q| q.kind == kind).count() as f64 / a.len() as f64;
            assert!(
                (share * 100.0 - percent as f64).abs() <= 1.0,
                "{kind:?}: {:.2}% drawn, {percent}% wanted",
                share * 100.0
            );
        }
        // Names outside [A-Za-z0-9-._~] are percent-encoded.
        assert!(a.iter().any(|q| q.path.contains("SVC%20")));
        // Three in four pair queries ask about an edge of the model.
        let edges = [
            "src=App00&dst=App01",
            "src=App01&dst=App00",
            "src=App02&dst=SVC%203",
        ];
        let pairs: Vec<&Query> = a.iter().filter(|q| q.kind == Kind::Pair).collect();
        let on_edges = pairs
            .iter()
            .filter(|q| edges.iter().any(|e| q.path.ends_with(e)))
            .count();
        let share = on_edges as f64 / pairs.len() as f64 * 100.0;
        assert!(
            (share - PAIR_EDGE_PERCENT as f64).abs() <= 2.0,
            "{share:.2}% of pair queries on edges"
        );
    }

    #[test]
    fn generation_is_masked_and_read() {
        let (m, g) = mask_generation("{\"generation\":12,\"src\":\"a\"}");
        assert_eq!(m, "{\"generation\":#,\"src\":\"a\"}");
        assert_eq!(g, Some(12));
        assert_eq!(mask_generation("ok\n"), ("ok\n".to_owned(), None));
    }

    /// A 50 ms stall on one request is charged to every request due
    /// during it, although the server answered each of those at once.
    #[test]
    fn open_loop_charges_a_stall_to_every_request_due_behind_it() {
        let pool = vec![Query {
            kind: Kind::Model,
            path: "/v1/model".to_owned(),
        }];
        let expected = vec!["{\"generation\":#}".to_owned()];
        let mut calls = 0;
        let mut send = |_: &str| -> Result<(u16, String), String> {
            calls += 1;
            if calls == 11 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok((200, "{\"generation\":1}".to_owned()))
        };
        // 1000 requests/s on one connection: request n is due at n ms.
        let sched = Schedule {
            t0: Instant::now() + Duration::from_millis(5),
            rate: 1000.0,
            conns: 1,
            conn: 0,
            total: 100,
        };
        let out = drive(sched, &pool, &expected, &mut send, None);
        assert_eq!(out.tally.failed, 0);
        assert_eq!(out.samples.len(), 100);
        // Request 10 stalls until ≈60 ms; request 10 + k (due at 10 + k
        // ms) cannot be sent before then, so its latency is ≥ 50 − k ms.
        for k in 0..45 {
            let (_, latency_us, late_us) = out.samples[10 + k];
            let floor_us = (50.0 - k as f64 - 1.0) * 1e3;
            assert!(
                latency_us >= floor_us,
                "request {}: {latency_us} µs",
                10 + k
            );
            if k > 0 {
                assert!(late_us >= floor_us, "request {} sent late", 10 + k);
            }
        }
        // Long after the stall the generator has caught up again.
        let (_, latency_us, _) = out.samples[99];
        assert!(
            latency_us < 40_000.0,
            "backlog never drained: {latency_us} µs"
        );
    }
}
