//! The loopback HTTP server: a bounded `logdep-par` worker pool
//! accepting on a shared non-blocking listener, an `RwLock<Arc<_>>`
//! snapshot slot whose swap is a single pointer store, and a
//! `MetricsRegistry` of request counters behind a mutex.
//!
//! Threading stays inside `logdep_par::scope` — the one sanctioned
//! threading entry point in the workspace (`raw-thread-spawn` denies
//! bare `thread::spawn`). Workers poll `accept` with a short sleep so
//! a shutdown or reload request is observed within milliseconds without
//! any wall-clock read; per-request deadlines are socket read/write
//! timeouts, also clock-free from the server's point of view.

use crate::handlers;
use crate::http::{self, HttpError, Request, Response};
use crate::index::ModelIndex;
use crate::loader::{run_reload, SnapshotSource};
use crate::ServeError;
use logdep_obs::{record, Field, MetricsRegistry};
use serde_json::Value;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Server tuning knobs. All defaults are loopback-friendly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads accepting and serving connections.
    pub workers: usize,
    /// Maximum concurrently served connections; excess get `503`.
    pub max_conns: usize,
    /// Socket read/write deadline per request, in milliseconds.
    pub request_timeout_ms: u64,
    /// Optional microsecond clock for latency histograms. `None` (the
    /// default) keeps the server wall-clock-free so `/v1/metrics` is
    /// byte-deterministic; the CLI injects a real clock on request.
    pub clock_us: Option<fn() -> u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            max_conns: 64,
            request_timeout_ms: 2_000,
            clock_us: None,
        }
    }
}

/// State shared between workers, the orchestrator, and handles.
struct Shared {
    index: RwLock<Arc<ModelIndex>>,
    metrics: Mutex<MetricsRegistry>,
    generation: AtomicU64,
    shutdown: AtomicBool,
    reload: AtomicBool,
    active: AtomicUsize,
}

impl Shared {
    fn current_index(&self) -> Arc<ModelIndex> {
        match self.index.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    fn install(&self, index: ModelIndex) {
        let generation = index.generation();
        let next = Arc::new(index);
        match self.index.write() {
            Ok(mut guard) => *guard = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
        self.generation.store(generation, Ordering::SeqCst);
        self.with_metrics(|m| {
            m.counter_add("serve.swaps", 1);
            m.gauge_set("serve.generation", generation as i64);
        });
    }

    fn with_metrics<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        match self.metrics.lock() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    cfg: ServeConfig,
}

/// A cloneable control handle: shut the server down, request or apply
/// a snapshot swap, and read the bound address from any thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
}

impl ServerHandle {
    /// The actual bound address (resolves `:0` to the chosen port).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Asks the serve loop to exit; it drains within its poll interval.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Atomically swaps in an already-built index. In-flight requests
    /// finish against the generation they started with; new requests
    /// see the new one. Never blocks readers.
    pub fn install(&self, index: ModelIndex) {
        self.shared.install(index);
    }

    /// Generation of the live index.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::SeqCst)
    }

    /// A rendering of the server metrics (for tests).
    pub fn metrics_json(&self) -> String {
        self.shared.with_metrics(|m| render_metrics(m))
    }
}

impl Server {
    /// Binds the listener and installs the initial index.
    pub fn bind(cfg: ServeConfig, index: ModelIndex) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", cfg.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(format!("set_nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(format!("local_addr: {e}")))?;
        let generation = index.generation();
        let shared = Arc::new(Shared {
            index: RwLock::new(Arc::new(index)),
            metrics: Mutex::new(MetricsRegistry::new()),
            generation: AtomicU64::new(generation),
            shutdown: AtomicBool::new(false),
            reload: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        });
        shared.with_metrics(|m| m.gauge_set("serve.generation", generation as i64));
        Ok(Self {
            listener,
            local_addr,
            shared,
            cfg,
        })
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            local_addr: self.local_addr,
        }
    }
}

/// Runs the server until [`ServerHandle::shutdown`] is called.
///
/// Workers run on a `logdep_par` scope; the calling thread becomes the
/// orchestrator, which is the only thread allowed to perform snapshot
/// reloads (via `source`) and the only thread that records trace spans
/// — exactly the emission discipline the rest of the workspace uses.
pub fn run_server(server: Server, source: Option<&SnapshotSource>) -> Result<(), ServeError> {
    let Server {
        listener,
        local_addr: _,
        shared,
        cfg,
    } = server;
    let workers = cfg.workers.max(1);
    record(|r| {
        r.span_begin(
            "serve",
            &[
                ("workers", Field::from(workers)),
                (
                    "generation",
                    Field::from(shared.generation.load(Ordering::SeqCst)),
                ),
            ],
        );
    });
    logdep_par::scope(|s| {
        for _ in 0..workers {
            let listener = &listener;
            let shared = &shared;
            let cfg = &cfg;
            s.spawn(move || worker_loop(listener, shared, cfg));
        }
        orchestrate(&shared, source);
    });
    record(|r| {
        r.span_end(
            "serve",
            &[(
                "generation",
                Field::from(shared.generation.load(Ordering::SeqCst)),
            )],
        );
    });
    Ok(())
}

/// The orchestrator loop: watches the shutdown and reload flags.
fn orchestrate(shared: &Shared, source: Option<&SnapshotSource>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.reload.swap(false, Ordering::SeqCst) {
            match source {
                None => shared.with_metrics(|m| m.counter_add("serve.reload_errors", 1)),
                Some(src) => {
                    let next_gen = shared.generation.load(Ordering::SeqCst) + 1;
                    match run_reload(src, next_gen) {
                        Ok(index) => shared.install(index),
                        Err(_) => {
                            shared.with_metrics(|m| m.counter_add("serve.reload_errors", 1));
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One worker: accept, enforce the connection limit, serve.
fn worker_loop(listener: &TcpListener, shared: &Shared, cfg: &ServeConfig) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let active = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
                shared.with_metrics(|m| m.counter_add("serve.conns", 1));
                if active > cfg.max_conns {
                    shared.with_metrics(|m| m.counter_add("serve.conns_rejected", 1));
                    reject_over_limit(stream, cfg);
                } else {
                    serve_connection(stream, shared, cfg);
                }
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn reject_over_limit(stream: TcpStream, cfg: &ServeConfig) {
    let mut stream = stream;
    let _ready = prepare_stream(&stream, cfg);
    let resp = Response::error(503, "connection limit reached");
    if stream.write_all(&resp.to_bytes(false)).is_err() {
        return;
    }
    let _flush = stream.flush();
}

fn prepare_stream(stream: &TcpStream, cfg: &ServeConfig) -> bool {
    let timeout = Duration::from_millis(cfg.request_timeout_ms.max(1));
    stream.set_nonblocking(false).is_ok()
        && stream.set_read_timeout(Some(timeout)).is_ok()
        && stream.set_write_timeout(Some(timeout)).is_ok()
}

/// Serves requests off one connection until close, error, or timeout.
fn serve_connection(mut stream: TcpStream, shared: &Shared, cfg: &ServeConfig) {
    if !prepare_stream(&stream, cfg) {
        return;
    }
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let head = match http::read_head(&mut stream, http::MAX_HEAD_BYTES) {
            Ok(head) => head,
            Err(err) => {
                answer_error(&mut stream, shared, &err);
                return;
            }
        };
        let req = match http::parse_request(&head) {
            Ok(req) => req,
            Err(err) => {
                answer_error(&mut stream, shared, &err);
                return;
            }
        };
        let started_us = cfg.clock_us.map(|clock| clock());
        let resp = route(shared, &req);
        if let (Some(clock), Some(t0)) = (cfg.clock_us, started_us) {
            let elapsed = clock().saturating_sub(t0);
            shared.with_metrics(|m| m.observe_us("serve.request_us", elapsed));
        }
        let keep = req.keep_alive && resp.status < 500;
        shared.with_metrics(|m| {
            m.counter_add("serve.requests", 1);
            m.counter_add(&format!("serve.status.{}", resp.status), 1);
        });
        if stream.write_all(&resp.to_bytes(keep)).is_err() {
            return;
        }
        if !keep {
            return;
        }
    }
}

fn answer_error(stream: &mut TcpStream, shared: &Shared, err: &HttpError) {
    let Some(status) = err.status() else {
        return; // clean close or raw I/O failure: nothing to say
    };
    shared.with_metrics(|m| {
        m.counter_add("serve.http_errors", 1);
        m.counter_add(&format!("serve.status.{status}"), 1);
    });
    let resp = Response::error(status, &format!("{err:?}"));
    if stream.write_all(&resp.to_bytes(false)).is_err() {
        return;
    }
    let _flush = stream.flush();
}

/// Full routing: server-owned endpoints first, then the pure handlers.
fn route(shared: &Shared, req: &Request) -> Response {
    match req.path.as_str() {
        "/v1/metrics" => {
            if req.method != "GET" {
                return Response::error(405, "only GET is supported");
            }
            Response::json(200, shared.with_metrics(|m| render_metrics(m)))
        }
        "/admin/reload" => {
            shared.reload.store(true, Ordering::SeqCst);
            Response::json(202, "{\"reload\":\"scheduled\"}".to_owned())
        }
        _ => {
            let index = shared.current_index();
            handlers::handle_request(&index, req)
                .unwrap_or_else(|| Response::error(404, "no such endpoint"))
        }
    }
}

/// Renders the registry as JSON: counters and gauges always, histogram
/// summaries only when a clock was injected (they stay absent —
/// and the body deterministic — in the default clock-free mode).
fn render_metrics(metrics: &MetricsRegistry) -> String {
    let value = Value::Object(vec![
        (
            "counters".into(),
            Value::Object(
                metrics
                    .counters()
                    .map(|(name, v)| (name.to_owned(), Value::U64(v)))
                    .collect(),
            ),
        ),
        (
            "gauges".into(),
            Value::Object(
                metrics
                    .gauges()
                    .map(|(name, v)| (name.to_owned(), Value::I64(v)))
                    .collect(),
            ),
        ),
        (
            "histograms".into(),
            Value::Object(
                metrics
                    .histograms()
                    .map(|(name, h)| {
                        (
                            name.to_owned(),
                            Value::Object(vec![
                                ("count".into(), Value::U64(h.count())),
                                ("sum_us".into(), Value::U64(h.sum_us())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string(&value).unwrap_or_else(|_| "{}".to_owned())
}
