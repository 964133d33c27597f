//! Resilient consolidation: quarantine, repair, dedup and skew estimation.
//!
//! This module holds the one TSV reader. [`crate::codec::read_store`]
//! runs it with no policy: malformed lines are tolerated, nothing else.
//! [`read_store_resilient`] is the hardened path a production
//! consolidation job would use against hostile streams (see the
//! `logdep-faults` injector): it enforces a bounded **error budget** so a mis-pointed
//! ingest fails fast instead of silently quarantining half the data,
//! repairs out-of-order delivery, absorbs at-least-once duplication, and
//! estimates per-source clock skew from the client/server timestamp gap
//! (the paper's §4.2 NT-domain drift), reporting everything in a
//! machine-readable [`IngestReport`].

use crate::codec::{lines, parse_fields, unescape_into, ParseError, ParseErrors};
use crate::record::{StoreFull, StoredRecord, TextSpan};
use crate::registry::{HostId, Interner, NameRegistry, SourceId, UserId};
use crate::store::LogStore;
use crate::time::Millis;
use logdep_par::ParConfig;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::sync::mpsc;

/// Per-source cap on skew samples: enough for a stable median without
/// letting one chatty source dominate memory.
const SKEW_SAMPLE_CAP: usize = 4_096;

/// Bytes per block of the parallel pass; a block runs on to the end of
/// the line its last byte falls in.
const BLOCK_BYTES: usize = 256 * 1024;

/// Blocks each worker may hold at once, queued or being parsed.
const BLOCKS_PER_WORKER: usize = 2;

/// Quarantine and repair policy for one resilient ingest pass.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPolicy {
    /// Abort when more than this fraction of non-empty lines failed to
    /// parse (checked once at least `min_lines_before_check` lines have
    /// been seen, and again at end of stream).
    pub max_error_fraction: f64,
    /// Grace period: never abort before this many non-empty lines, so a
    /// corrupt burst at the head of an otherwise-healthy stream does not
    /// kill the ingest.
    pub min_lines_before_check: usize,
    /// Retain at most this many quarantined-line samples in the report.
    pub error_sample_cap: usize,
    /// Remove exact duplicates — same `(client_ts, source, text)` — on
    /// finalize (at-least-once shippers retransmit whole batches).
    pub dedup: bool,
    /// Parsing pool width; 1 parses on the calling thread. The result
    /// does not depend on it.
    pub par: ParConfig,
}

impl Default for IngestPolicy {
    /// The default budget at the default pool width ([`ParConfig::default`]).
    fn default() -> Self {
        Self::with_par(ParConfig::default())
    }
}

impl IngestPolicy {
    /// The default budget at pool width `par`.
    pub fn with_par(par: ParConfig) -> Self {
        Self {
            max_error_fraction: 0.5,
            min_lines_before_check: 1_000,
            error_sample_cap: ParseErrors::SAMPLE_CAP,
            dedup: true,
            par,
        }
    }

    /// A policy that quarantines without ever aborting (error budget 1.0).
    pub fn lenient() -> Self {
        Self {
            max_error_fraction: 1.0,
            ..Self::default()
        }
    }
}

/// What one resilient ingest pass did, in machine-readable form.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngestReport {
    /// Non-empty lines seen.
    pub total_lines: usize,
    /// Lines parsed into records.
    pub parsed: usize,
    /// Lines quarantined (failed to parse, or not UTF-8).
    pub quarantined: usize,
    /// First few quarantined lines as `(1-based line number, error)`.
    pub quarantine_samples: Vec<(usize, String)>,
    /// Exact duplicate records removed on finalize.
    pub deduped: usize,
    /// Records that arrived with a client timestamp earlier than a
    /// previously-seen record (repaired by the finalize sort).
    pub repaired_out_of_order: usize,
    /// Estimated per-source clock skew: the median of
    /// `client_ts - server_ts` over the source's records, ms. Only
    /// sources with a nonzero estimate appear.
    pub per_source_skew_ms: BTreeMap<String, i64>,
}

impl IngestReport {
    /// Fraction of non-empty lines that were quarantined.
    pub fn quarantine_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.quarantined as f64 / self.total_lines as f64
        }
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "{} lines: {} parsed, {} quarantined, {} deduped, {} out-of-order repaired, \
             {} sources with clock skew",
            self.total_lines,
            self.parsed,
            self.quarantined,
            self.deduped,
            self.repaired_out_of_order,
            self.per_source_skew_ms.len(),
        )
    }
}

/// Failure of a resilient ingest pass.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The malformed-line fraction exceeded the policy's budget.
    ErrorBudgetExceeded {
        /// Non-empty lines seen when the budget check tripped.
        lines: usize,
        /// Quarantined lines at that point.
        quarantined: usize,
        /// The policy's `max_error_fraction`.
        max_fraction: f64,
    },
    /// The stream's text would pass the store's 4 GiB arena.
    StoreFull,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest I/O error: {e}"),
            IngestError::ErrorBudgetExceeded {
                lines,
                quarantined,
                max_fraction,
            } => write!(
                f,
                "error budget exceeded: {quarantined}/{lines} lines malformed \
                 (limit {:.0}%) — wrong file or unsupported format?",
                max_fraction * 100.0
            ),
            IngestError::StoreFull => write!(f, "ingest: {StoreFull}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::ErrorBudgetExceeded { .. } | IngestError::StoreFull => None,
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<StoreFull> for IngestError {
    fn from(_: StoreFull) -> Self {
        IngestError::StoreFull
    }
}

/// Reads a TSV stream into a finalized store under `policy`, reporting
/// quarantine, repair, dedup and skew statistics.
///
/// Unlike [`crate::codec::read_store`], this fails fast (with
/// [`IngestError::ErrorBudgetExceeded`]) when the stream is mostly
/// garbage, and absorbs duplicate delivery when `policy.dedup` is set.
/// A line that is not valid UTF-8 is quarantined like any other
/// malformed line ([`crate::codec::ParseError::InvalidUtf8`]), so one
/// bad shipper line cannot fail the whole pass.
///
/// The stream is parsed in blocks and merged in stream order. At
/// `policy.par` width 1 each block is parsed on the calling thread, and
/// no thread is started; wider, on the worker pool. The store, the
/// report and any error are the same byte for byte at every width and
/// block size, and the same as a line-by-line loop's. (One exception: a
/// stream whose text passes the store's 4 GiB arena fails with
/// [`IngestError::StoreFull`], but where a budget trip falls in the same
/// block as that overflow the pass may report either.)
///
/// Each record's text is unescaped straight into a block-local text
/// arena, which the merge appends to the store's, so no record costs an
/// allocation of its own.
pub fn read_store_resilient<R: BufRead>(
    r: R,
    policy: &IngestPolicy,
) -> Result<(LogStore, IngestReport), IngestError> {
    read_blocks(r, policy, BLOCK_BYTES)?.finish(policy)
}

/// [`crate::codec::read_store`]'s pass: the same reader on the calling
/// thread, with an error budget that cannot trip and no dedup.
pub(crate) fn read_unchecked<R: BufRead>(r: R) -> Result<(LogStore, ParseErrors), IngestError> {
    let policy = IngestPolicy {
        max_error_fraction: 1.0,
        dedup: false,
        ..IngestPolicy::with_par(ParConfig::serial())
    };
    let Pass {
        mut store, errors, ..
    } = read_blocks(r, &policy, BLOCK_BYTES)?;
    store.finalize();
    Ok((store, errors))
}

/// The state of one pass, in stream order, built block by block.
struct Pass {
    store: LogStore,
    report: IngestReport,
    errors: ParseErrors,
    arrivals: Arrivals,
    /// Lines read so far, empty ones included.
    lines_read: usize,
}

impl Pass {
    fn new(policy: &IngestPolicy) -> Self {
        Self {
            store: LogStore::new(),
            report: IngestReport::default(),
            errors: ParseErrors::with_cap(policy.error_sample_cap),
            arrivals: Arrivals::default(),
            lines_read: 0,
        }
    }

    /// Appends the next block, exactly as a line-by-line loop would have
    /// taken its lines: names interned in first-seen order, the error
    /// budget checked wherever it could trip, arrivals observed in order.
    fn absorb(&mut self, block: &mut Parsed, policy: &IngestPolicy) -> Result<(), IngestError> {
        self.check_block_budget(block, policy)?;
        self.report.total_lines += block.lines;
        self.report.parsed += block.rows.len();
        self.errors
            .append(std::mem::take(&mut block.errors), self.lines_read);
        self.lines_read += block.line_count;

        let registry = &mut self.store.registry;
        let sources = reintern(&block.registry.sources, &mut registry.sources);
        let users = reintern(&block.registry.users, &mut registry.users);
        let hosts = reintern(&block.registry.hosts, &mut registry.hosts);
        for row in &mut block.rows {
            *row = row.with_ids(
                SourceId(translate(&sources, row.source.0)),
                row.user().map(|u| UserId(translate(&users, u.0))),
                row.host().map(|h| HostId(translate(&hosts, h.0))),
            );
            self.arrivals
                .observe(row.client_ts, row.server_ts, row.source);
        }
        self.store.append_rows(block.rows.drain(..), &block.arena)?;
        block.arena.clear();
        Ok(())
    }

    /// Replays a line-by-line loop's per-line budget checks over one block.
    ///
    /// Such a loop checks after every line from `min_lines_before_check`
    /// on. Past that line the error fraction only falls until the next
    /// failure, so the check can first trip there or at a failed line:
    /// checking just those gives the same trip, at the same line.
    fn check_block_budget(&self, block: &Parsed, policy: &IngestPolicy) -> Result<(), IngestError> {
        let (lines, failed) = (self.report.total_lines, self.errors.len());
        let first = policy.min_lines_before_check.max(1);
        if lines < first && first <= lines + block.lines {
            let failed_by_first = block.failed_at.partition_point(|&at| lines + at <= first);
            check_budget(first, failed + failed_by_first, policy)?;
        }
        for (n, &at) in block.failed_at.iter().enumerate() {
            if lines + at >= first {
                check_budget(lines + at, failed + n + 1, policy)?;
            }
        }
        Ok(())
    }

    /// The end-of-stream budget check, then sort, dedup and skew.
    fn finish(mut self, policy: &IngestPolicy) -> Result<(LogStore, IngestReport), IngestError> {
        // End-of-stream check catches short mostly-garbage streams too.
        check_budget(self.report.total_lines, self.errors.len(), policy)?;

        let mut report = self.report;
        report.quarantined = self.errors.len();
        report.quarantine_samples = self
            .errors
            .samples()
            .iter()
            .map(|(lineno, e)| (*lineno, e.to_string()))
            .collect();
        report.repaired_out_of_order = self.arrivals.out_of_order;

        let mut store = self.store;
        report.deduped = if policy.dedup {
            store.finalize_dedup()
        } else {
            store.finalize();
            0
        };

        for (idx, samples) in self.arrivals.skew_samples.iter_mut().enumerate() {
            let skew = median(samples);
            if skew != 0 {
                if let Some(name) = store.registry.sources.name(idx as u32) {
                    report.per_source_skew_ms.insert(name.to_owned(), skew);
                }
            }
        }
        Ok((store, report))
    }
}

/// Arrival-order statistics: out-of-order deliveries and the first
/// [`SKEW_SAMPLE_CAP`] clock-skew samples of each source.
#[derive(Default)]
struct Arrivals {
    last_seen_ts: Option<i64>,
    out_of_order: usize,
    /// (client_ts - server_ts) samples per source index, capped.
    skew_samples: Vec<Vec<i64>>,
}

impl Arrivals {
    /// Observes the next parsed record, in stream order.
    fn observe(&mut self, client_ts: Millis, server_ts: Millis, source: SourceId) {
        let ts = client_ts.as_millis();
        if self.last_seen_ts.is_some_and(|prev| ts < prev) {
            self.out_of_order += 1;
        }
        self.last_seen_ts = Some(self.last_seen_ts.map_or(ts, |prev| prev.max(ts)));
        let idx = source.index();
        if self.skew_samples.len() <= idx {
            self.skew_samples.resize_with(idx + 1, Vec::new);
        }
        if let Some(samples) = self.skew_samples.get_mut(idx) {
            if samples.len() < SKEW_SAMPLE_CAP {
                samples.push(client_ts - server_ts);
            }
        }
    }
}

/// Interns a block's names into the pass's interner in id order, which
/// replays their first sightings, so every name gets the id a
/// line-by-line pass gives it. Returns the pass id of each block id.
fn reintern(block: &Interner, pass: &mut Interner) -> Vec<u32> {
    block.iter().map(|(_, name)| pass.intern(name)).collect()
}

/// A block-local id mapped to the pass's id (a block only holds ids of
/// its own registry, so the lookup always hits).
fn translate(map: &[u32], id: u32) -> u32 {
    map.get(id as usize).copied().unwrap_or(id)
}

/// One block, parsed against its own registry.
struct Parsed {
    registry: NameRegistry,
    /// The block's records in line order, with block-local ids.
    rows: Vec<StoredRecord>,
    /// The rows' texts; their spans address this block-local arena.
    arena: String,
    /// Failures, numbered by line within the block.
    errors: ParseErrors,
    /// Where each failure fell among the block's non-empty lines (1-based).
    failed_at: Vec<usize>,
    /// Non-empty lines.
    lines: usize,
    /// All lines, empty ones included.
    line_count: usize,
}

/// The kernel: splits one block into [`lines`] and parses each with
/// [`parse_fields`], appending to the recycled `rows` and `arena`.
fn parse_block(
    block: &[u8],
    mut rows: Vec<StoredRecord>,
    mut arena: String,
    sample_cap: usize,
) -> Result<Parsed, StoreFull> {
    let mut registry = NameRegistry::new();
    let mut errors = ParseErrors::with_cap(sample_cap);
    let mut failed_at = Vec::new();
    let (mut nonempty, mut line_count) = (0, 0);
    for (lineno, line) in lines(block) {
        line_count = lineno;
        if line.is_empty() {
            continue;
        }
        nonempty += 1;
        let line = std::str::from_utf8(line).map_err(|_| ParseError::InvalidUtf8);
        match line.and_then(|line| parse_fields(line, &mut registry)) {
            Ok((fields, text)) => {
                let span = TextSpan::append(&mut arena, |a| unescape_into(text, a))?;
                rows.push(StoredRecord::new(&fields, span));
            }
            Err(e) => {
                errors.record(lineno, e);
                failed_at.push(nonempty);
            }
        }
    }
    Ok(Parsed {
        registry,
        rows,
        arena,
        errors,
        failed_at,
        lines: nonempty,
        line_count,
    })
}

/// Reads about `block_bytes` of `r` into `buf`, then on to the end of
/// the line that cut, so a block always ends at a `\n` or at the end
/// of the stream. After an error `buf` holds what was read before it.
fn fill_block<R: BufRead>(r: &mut R, buf: &mut Vec<u8>, block_bytes: usize) -> io::Result<()> {
    buf.clear();
    while buf.len() < block_bytes {
        let available = match r.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(());
        }
        let take = available.len().min(block_bytes - buf.len());
        buf.extend_from_slice(available.get(..take).unwrap_or_default());
        r.consume(take);
    }
    if buf.last() != Some(&b'\n') {
        r.read_until(b'\n', buf)?;
    }
    Ok(())
}

/// A block on its way to a worker: the bytes, and empty row and text
/// buffers to parse into. All come back with the result for reuse.
struct Job {
    bytes: Vec<u8>,
    rows: Vec<StoredRecord>,
    arena: String,
}

impl Job {
    /// Parses the block.
    fn run(self, sample_cap: usize) -> Done {
        let Job { bytes, rows, arena } = self;
        let parsed = parse_block(&bytes, rows, arena, sample_cap);
        Done { bytes, parsed }
    }
}

/// A worker's answer for one block.
struct Done {
    bytes: Vec<u8>,
    parsed: Result<Parsed, StoreFull>,
}

/// Where blocks are parsed.
enum Worker {
    /// On the calling thread: holds the one block sent and parses it
    /// when its answer is received.
    Inline { sample_cap: usize, job: Option<Job> },
    /// On a persistent worker thread, reached through two channels.
    Thread {
        jobs: mpsc::Sender<Job>,
        done: mpsc::Receiver<Done>,
    },
}

impl Worker {
    /// Blocks this worker may hold at once, queued or being parsed.
    fn depth(&self) -> usize {
        match self {
            Worker::Inline { .. } => 1,
            Worker::Thread { .. } => BLOCKS_PER_WORKER,
        }
    }

    fn send(&mut self, next: Job) -> Result<(), IngestError> {
        match self {
            Worker::Inline { job, .. } => {
                *job = Some(next);
                Ok(())
            }
            Worker::Thread { jobs, .. } => jobs.send(next).map_err(|_| stopped()),
        }
    }

    fn recv(&mut self) -> Result<Done, IngestError> {
        match self {
            Worker::Inline { sample_cap, job } => {
                let job = job.take().ok_or_else(stopped)?;
                Ok(job.run(*sample_cap))
            }
            Worker::Thread { done, .. } => done.recv().map_err(|_| stopped()),
        }
    }
}

fn stopped() -> IngestError {
    IngestError::Io(io::Error::other("an ingest worker stopped"))
}

/// The pass: `block_bytes` blocks, each cut at a line end, parsed where
/// `policy.par` says and merged strictly in block order by this thread.
///
/// At width 1 one [`Worker::Inline`] parses each block on this thread
/// when the merge asks for it, and no thread is started. Wider, the blocks go to
/// `policy.par.threads()` persistent workers: block `k` to worker
/// `k % threads`, and each worker answers in the order it was given
/// work, so the merge reads block `k`'s result from that worker's
/// channel with no reorder buffer. At most [`Worker::depth`] blocks per
/// worker are in flight; their byte, row and text buffers are recycled,
/// so memory beyond the store is bounded by the block size, not the
/// stream.
fn read_blocks<R: BufRead>(
    mut r: R,
    policy: &IngestPolicy,
    block_bytes: usize,
) -> Result<Pass, IngestError> {
    let sample_cap = policy.error_sample_cap;
    let mut pass = Pass::new(policy);
    if policy.par.is_serial() {
        let mut inline = [Worker::Inline {
            sample_cap,
            job: None,
        }];
        pump(&mut r, &mut inline, block_bytes, &mut pass, policy)?;
        return Ok(pass);
    }
    let threads = policy.par.threads();
    logdep_par::scope(|s| {
        let mut workers = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (jobs, job_rx) = mpsc::channel::<Job>();
            let (done_tx, done) = mpsc::channel::<Done>();
            handles.push(s.spawn(move || {
                for job in job_rx {
                    if done_tx.send(job.run(sample_cap)).is_err() {
                        return;
                    }
                }
            }));
            workers.push(Worker::Thread { jobs, done });
        }
        let result = pump(&mut r, &mut workers, block_bytes, &mut pass, policy);
        // Closing the channels stops the workers; one that panicked
        // re-raises its panic here, with its own payload.
        drop(workers);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        result
    })?;
    Ok(pass)
}

/// The orchestration loop of [`read_blocks`]: reads blocks and keeps the
/// workers fed, merges their results in block order, and stops at the
/// first budget trip. After a failed read, the complete lines before the
/// failure are merged and checked before the read error is returned, as
/// a line-by-line loop does.
fn pump<R: BufRead>(
    r: &mut R,
    workers: &mut [Worker],
    block_bytes: usize,
    pass: &mut Pass,
    policy: &IngestPolicy,
) -> Result<(), IngestError> {
    let in_flight_cap: usize = workers.iter().map(Worker::depth).sum();
    let mut free: Vec<(Vec<u8>, Vec<StoredRecord>, String)> = Vec::with_capacity(in_flight_cap);
    let (mut sent, mut merged) = (0usize, 0usize);
    let mut read_error = None;
    let mut eof = false;
    loop {
        while !eof && sent - merged < in_flight_cap {
            let (mut bytes, rows, arena) = free.pop().unwrap_or_default();
            if let Err(e) = fill_block(r, &mut bytes, block_bytes) {
                let complete = bytes
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                bytes.truncate(complete);
                read_error = Some(e);
                eof = true;
            }
            if bytes.is_empty() {
                eof = true;
                break;
            }
            let worker = workers.get_mut(sent % workers.len()).ok_or_else(stopped)?;
            worker.send(Job { bytes, rows, arena })?;
            sent += 1;
        }
        if merged == sent {
            break;
        }
        let worker = workers
            .get_mut(merged % workers.len())
            .ok_or_else(stopped)?;
        let Done { bytes, parsed } = worker.recv()?;
        merged += 1;
        let mut parsed = parsed?;
        pass.absorb(&mut parsed, policy)?;
        free.push((bytes, parsed.rows, parsed.arena));
    }
    match read_error {
        Some(e) => Err(IngestError::Io(e)),
        None => Ok(()),
    }
}

/// Failure of [`load_logs`]; the messages name the file at fault.
#[derive(Debug)]
pub enum LoadError {
    /// A file could not be opened.
    Open {
        /// The path as given.
        path: String,
        /// Why opening failed.
        error: io::Error,
    },
    /// A file failed its resilient ingest pass.
    Ingest {
        /// The path as given.
        path: String,
        /// Why the pass failed.
        error: IngestError,
    },
    /// The path list named no file.
    NoFiles,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Open { path, error } => write!(f, "open {path:?}: {error}"),
            LoadError::Ingest { path, error } => write!(f, "ingest {path}: {error}"),
            LoadError::NoFiles => write!(f, "no log files given"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Open { error, .. } => Some(error),
            LoadError::Ingest { error, .. } => Some(error),
            LoadError::NoFiles => None,
        }
    }
}

/// Loads one TSV export, or several (comma-separated paths) merged into
/// one finalized store — the consolidation step of §5, for logs collected
/// from decentralized storage locations.
///
/// Each file goes through [`read_store_resilient`] under the default
/// [`IngestPolicy`] at pool width `par`. Later files are merged into the
/// first, and the merge removes exact duplicates, so a file listed twice
/// counts once. Returns the store and each file's report, in the order
/// given.
pub fn load_logs(
    paths: &str,
    par: &ParConfig,
) -> Result<(LogStore, Vec<(String, IngestReport)>), LoadError> {
    let policy = IngestPolicy::with_par(*par);
    let mut merged: Option<LogStore> = None;
    let mut reports = Vec::new();
    for path in paths.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let file = File::open(path).map_err(|error| LoadError::Open {
            path: path.to_owned(),
            error,
        })?;
        let (store, report) =
            read_store_resilient(BufReader::new(file), &policy).map_err(|error| {
                LoadError::Ingest {
                    path: path.to_owned(),
                    error,
                }
            })?;
        reports.push((path.to_owned(), report));
        match merged.as_mut() {
            None => merged = Some(store),
            Some(m) => m.merge(store).map_err(|full| LoadError::Ingest {
                path: path.to_owned(),
                error: full.into(),
            })?,
        }
    }
    let mut store = merged.ok_or(LoadError::NoFiles)?;
    store.finalize();
    Ok((store, reports))
}

fn check_budget(
    lines: usize,
    quarantined: usize,
    policy: &IngestPolicy,
) -> Result<(), IngestError> {
    if lines == 0 {
        return Ok(());
    }
    if quarantined as f64 > policy.max_error_fraction * lines as f64 {
        return Err(IngestError::ErrorBudgetExceeded {
            lines,
            quarantined,
            max_fraction: policy.max_error_fraction,
        });
    }
    Ok(())
}

/// Median of the samples (0 when empty); lower-middle for even counts.
fn median(samples: &mut [i64]) -> i64 {
    if samples.is_empty() {
        return 0;
    }
    let mid = (samples.len() - 1) / 2;
    let (_, m, _) = samples.select_nth_unstable(mid);
    *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{write_record, ParseError};
    use crate::record::LogRecord;
    use crate::time::Millis;

    fn tsv(rows: &[(i64, i64, &str, &str)]) -> String {
        let mut store = LogStore::new();
        let mut buf = Vec::new();
        for &(client, server, source, text) in rows {
            let src = store.registry.source(source);
            let rec = LogRecord::minimal(src, Millis(client))
                .with_server_ts(Millis(server))
                .with_text(text);
            write_record(&mut buf, &rec, &store.registry).expect("write to Vec");
        }
        String::from_utf8(buf).expect("codec emits UTF-8")
    }

    #[test]
    fn clean_stream_parses_fully() {
        let data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.parsed, 2);
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.deduped, 0);
        assert_eq!(report.repaired_out_of_order, 0);
        assert!(report.per_source_skew_ms.is_empty());
    }

    #[test]
    fn quarantines_and_reports_bad_lines() {
        let mut data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]);
        data.push_str("utter garbage\n");
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 2);
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.quarantine_samples.len(), 1);
        assert_eq!(report.quarantine_samples[0].0, 3);
        assert!((report.quarantine_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn error_budget_fails_fast() {
        let mut data = String::from("garbage one\ngarbage two\ngarbage three\n");
        data.push_str(&tsv(&[(10, 10, "A", "x")]));
        let policy = IngestPolicy {
            max_error_fraction: 0.5,
            min_lines_before_check: 2,
            ..IngestPolicy::default()
        };
        let err = read_store_resilient(data.as_bytes(), &policy).expect_err("must abort");
        match err {
            IngestError::ErrorBudgetExceeded { quarantined, .. } => assert!(quarantined >= 2),
            other => panic!("unexpected error: {other}"),
        }
        // The same stream passes a lenient policy.
        assert!(read_store_resilient(data.as_bytes(), &IngestPolicy::lenient()).is_ok());
    }

    #[test]
    fn budget_checked_at_end_of_short_streams() {
        // Shorter than min_lines_before_check, but 100% garbage: the
        // end-of-stream check must still trip.
        let data = "bad\nbad\nbad\n";
        let err = read_store_resilient(data.as_bytes(), &IngestPolicy::default())
            .expect_err("must abort");
        assert!(matches!(err, IngestError::ErrorBudgetExceeded { .. }));
    }

    #[test]
    fn out_of_order_is_counted_and_repaired() {
        let data = tsv(&[
            (30, 30, "A", "late"),
            (10, 10, "A", "early"),
            (20, 20, "A", "mid"),
        ]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.repaired_out_of_order, 2);
        let ts: Vec<i64> = store
            .records()
            .iter()
            .map(|r| r.client_ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 20, 30], "finalize repairs the order");
    }

    #[test]
    fn duplicates_are_absorbed_when_policy_says_so() {
        let data = tsv(&[(10, 10, "A", "x"), (10, 10, "A", "x"), (20, 20, "A", "y")]);
        let (store, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.deduped, 1);
        assert_eq!(store.len(), 2);

        let keep = IngestPolicy {
            dedup: false,
            ..IngestPolicy::default()
        };
        let (store, report) = read_store_resilient(data.as_bytes(), &keep).expect("ok");
        assert_eq!(report.deduped, 0);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn skew_estimate_is_median_of_ts_gap() {
        // Source A's clock runs 5s ahead of the server; B is honest.
        let data = tsv(&[
            (15_000, 10_000, "A", "one"),
            (25_000, 20_000, "A", "two"),
            (35_000, 30_000, "A", "three"),
            (10_000, 10_000, "B", "x"),
        ]);
        let (_, report) =
            read_store_resilient(data.as_bytes(), &IngestPolicy::default()).expect("ok");
        assert_eq!(report.per_source_skew_ms.get("A"), Some(&5_000));
        assert_eq!(report.per_source_skew_ms.get("B"), None);
    }

    #[test]
    fn invalid_utf8_line_is_quarantined_not_fatal() {
        let mut data = tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]).into_bytes();
        data.extend_from_slice(b"30\t30\tA\t-\t-\tINF\tbad \xff byte\n");
        data.extend_from_slice(tsv(&[(40, 40, "A", "z")]).as_bytes());
        let (store, report) =
            read_store_resilient(data.as_slice(), &IngestPolicy::default()).expect("ok");
        assert_eq!(store.len(), 3);
        assert_eq!((report.total_lines, report.parsed), (4, 3));
        assert_eq!(report.quarantined, 1);
        assert_eq!(
            report.quarantine_samples,
            vec![(3, ParseError::InvalidUtf8.to_string())]
        );

        // It counts against the error budget like any malformed line.
        let strict = IngestPolicy {
            max_error_fraction: 0.2,
            ..IngestPolicy::default()
        };
        match read_store_resilient(data.as_slice(), &strict) {
            Err(IngestError::ErrorBudgetExceeded {
                lines, quarantined, ..
            }) => assert_eq!((lines, quarantined), (4, 1)),
            other => panic!("expected the budget to trip, got {other:?}"),
        }
    }

    fn temp_file(name: &str, contents: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("logdep-ingest-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp file");
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn load_logs_merges_files_and_reports_each() {
        let a = temp_file("a.tsv", &tsv(&[(10, 10, "A", "x"), (20, 20, "B", "y")]));
        let b = temp_file("b.tsv", &tsv(&[(15, 15, "B", "z"), (10, 10, "A", "x")]));
        let (store, reports) =
            load_logs(&format!("{a}, {b},{a}"), &ParConfig::default()).expect("ok");
        // A listed twice and the record shared by both files count once.
        assert_eq!(store.len(), 3);
        let ts: Vec<i64> = store
            .records()
            .iter()
            .map(|r| r.client_ts.as_millis())
            .collect();
        assert_eq!(ts, vec![10, 15, 20]);
        let paths: Vec<&str> = reports.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec![a.as_str(), b.as_str(), a.as_str()]);
        assert!(reports.iter().all(|(_, r)| r.parsed == 2));
        for path in [a, b] {
            std::fs::remove_file(path).expect("remove temp file");
        }
    }

    #[test]
    fn load_logs_errors_name_the_file() {
        let missing =
            load_logs("/no/such/logs.tsv", &ParConfig::default()).expect_err("missing file");
        assert!(
            missing
                .to_string()
                .starts_with("open \"/no/such/logs.tsv\": "),
            "{missing}"
        );
        let garbage = temp_file("garbage.tsv", "bad\nbad\n");
        let bad = load_logs(&garbage, &ParConfig::default()).expect_err("all garbage");
        assert!(
            bad.to_string()
                .starts_with(&format!("ingest {garbage}: error budget exceeded")),
            "{bad}"
        );
        std::fs::remove_file(garbage).expect("remove temp file");
        let none = load_logs(" , ", &ParConfig::default()).expect_err("no paths");
        assert_eq!(none.to_string(), "no log files given");
    }

    /// A pass in comparable form: the records, every id space's names
    /// in id order, the report and the bytes of text the store holds, or
    /// the failure.
    #[derive(Debug, PartialEq)]
    enum Outcome {
        Read(Vec<LogRecord>, [Vec<String>; 3], IngestReport, usize),
        Budget { lines: usize, quarantined: usize },
        Io(io::ErrorKind, String),
        Full,
    }

    fn outcome(result: Result<(LogStore, IngestReport), IngestError>) -> Outcome {
        match result {
            Ok((store, report)) => {
                let names = |i: &Interner| i.iter().map(|(_, n)| n.to_owned()).collect::<Vec<_>>();
                let registry = &store.registry;
                let interned = [
                    names(&registry.sources),
                    names(&registry.users),
                    names(&registry.hosts),
                ];
                let records = store.records().iter().map(|r| r.to_record(&store));
                Outcome::Read(records.collect(), interned, report, store.arena_bytes())
            }
            Err(IngestError::ErrorBudgetExceeded {
                lines, quarantined, ..
            }) => Outcome::Budget { lines, quarantined },
            Err(IngestError::Io(e)) => Outcome::Io(e.kind(), e.to_string()),
            Err(IngestError::StoreFull) => Outcome::Full,
        }
    }

    /// The block sizes the block reader is driven at, in bytes.
    const BLOCK_SIZES: [usize; 4] = [1, 7, 64, 4096];

    fn width(threads: usize) -> ParConfig {
        ParConfig::with_threads(threads).expect("nonzero width")
    }

    /// The reference: a line-by-line loop on the calling thread, the
    /// reader before blocks. It reads each line with `read_until`, strips
    /// `\n` and one `\r` before it, and checks the budget after every
    /// line from `min_lines_before_check` on; a failed read ends it at
    /// once, the part of a line read before the failure dropped.
    fn read_serial<R: BufRead>(
        mut r: R,
        policy: &IngestPolicy,
    ) -> Result<(LogStore, IngestReport), IngestError> {
        let mut pass = Pass::new(policy);
        let mut buf = Vec::new();
        for lineno in 1.. {
            buf.clear();
            if r.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            let line = match buf.strip_suffix(b"\n") {
                Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
                None => &buf,
            };
            if line.is_empty() {
                continue;
            }
            pass.report.total_lines += 1;
            let line = std::str::from_utf8(line).map_err(|_| ParseError::InvalidUtf8);
            match line.and_then(|line| crate::codec::parse_record(line, &mut pass.store.registry)) {
                Ok(record) => {
                    pass.report.parsed += 1;
                    pass.arrivals
                        .observe(record.client_ts, record.server_ts, record.source);
                    pass.store.push(record);
                }
                Err(e) => pass.errors.record(lineno, e),
            }
            if pass.report.total_lines >= policy.min_lines_before_check {
                check_budget(pass.report.total_lines, pass.errors.len(), policy)?;
            }
        }
        pass.finish(policy)
    }

    /// Runs the block reader at every block size in `BLOCK_SIZES` and
    /// `extra`, at widths 1 to 3, over the stream `input()` makes, and
    /// asserts each outcome is the line-by-line reference's. Returns that
    /// outcome.
    fn assert_blocks_match_serial<R: BufRead>(
        input: impl Fn() -> R,
        policy: &IngestPolicy,
        extra: &[usize],
    ) -> Outcome {
        let serial = outcome(read_serial(input(), policy));
        for &block in BLOCK_SIZES.iter().chain(extra) {
            for threads in 1..=3 {
                let policy = IngestPolicy {
                    par: width(threads),
                    ..policy.clone()
                };
                let pass = read_blocks(input(), &policy, block);
                assert_eq!(
                    outcome(pass.and_then(|pass| pass.finish(&policy))),
                    serial,
                    "{block}-byte blocks at width {threads}"
                );
            }
        }
        serial
    }

    #[test]
    fn block_reader_matches_serial_on_a_mixed_stream() {
        let mut data = tsv(&[(30, 25, "A", "late"), (10, 10, "B", "x")]).into_bytes();
        data.extend_from_slice(b"\n\r\ngarbage\r\n2\t2\tC\tu\th\tZZZ\tbad tag interns C\n");
        data.extend_from_slice(b"5\t5\tD\t-\t-\tINF\tnot UTF-8 \xff\n");
        data.extend_from_slice(tsv(&[(10, 10, "B", "x"), (20, 5, "E", "y")]).as_bytes());
        data.extend_from_slice(b"40\t40\tA\tu\th\tERR\tno final newline\r");
        for policy in [IngestPolicy::default(), IngestPolicy::lenient()] {
            assert_blocks_match_serial(|| data.as_slice(), &policy, &[]);
        }
        let Outcome::Read(_, names, report, _) =
            assert_blocks_match_serial(|| data.as_slice(), &IngestPolicy::lenient(), &[])
        else {
            panic!("a lenient pass reads the stream");
        };
        assert_eq!(names[0], ["A", "B", "C", "E"], "C from a rejected line");
        assert_eq!((report.quarantined, report.deduped), (3, 1));
    }

    #[test]
    fn block_reader_keeps_crlf_split_across_a_block_edge() {
        let mut data = Vec::new();
        for n in 0..20 {
            data.extend_from_slice(format!("{n}\t{n}\tA\t-\t-\tINF\ttext {n}\r\n").as_bytes());
        }
        // A block this long ends on the first line's `\r`; the reader
        // must run on to its `\n`, or the text would keep the `\r`.
        let first_cr = data.iter().position(|&b| b == b'\r').expect("a CR") + 1;
        let Outcome::Read(records, _, report, _) =
            assert_blocks_match_serial(|| data.as_slice(), &IngestPolicy::default(), &[first_cr])
        else {
            panic!("a clean stream reads");
        };
        assert_eq!((report.parsed, report.quarantined), (20, 0));
        assert!(records.iter().all(|r| !r.text.contains('\r')));
    }

    #[test]
    fn block_reader_trips_the_budget_in_a_later_block() {
        let good = tsv(&vec![(1, 1, "A", "fine"); 50]);
        let data = format!("{good}{}", "garbage line\n".repeat(50));
        let policy = IngestPolicy {
            max_error_fraction: 0.25,
            min_lines_before_check: 10,
            ..IngestPolicy::default()
        };
        // 17 bad lines of 67 is the first fraction above a quarter.
        assert_eq!(
            assert_blocks_match_serial(|| data.as_bytes(), &policy, &[]),
            Outcome::Budget {
                lines: 67,
                quarantined: 17
            }
        );

        // Garbage first, then clean lines: the trip is at the grace
        // line itself, inside a later block, not at a failure.
        let data = format!("{}{good}", "garbage line\n".repeat(10));
        let policy = IngestPolicy {
            max_error_fraction: 0.2,
            min_lines_before_check: 30,
            ..IngestPolicy::default()
        };
        assert_eq!(
            assert_blocks_match_serial(|| data.as_bytes(), &policy, &[]),
            Outcome::Budget {
                lines: 30,
                quarantined: 10
            }
        );
    }

    #[test]
    fn block_reader_numbers_samples_across_blocks() {
        let mut data = String::new();
        for n in 0..40 {
            data.push_str(&tsv(&[(n, n, "A", "ok")]));
            if n % 7 == 3 {
                data.push_str("\nbroken\n");
            }
        }
        let policy = IngestPolicy {
            error_sample_cap: 4,
            ..IngestPolicy::lenient()
        };
        let Outcome::Read(_, _, report, _) =
            assert_blocks_match_serial(|| data.as_bytes(), &policy, &[])
        else {
            panic!("a lenient pass reads the stream");
        };
        assert_eq!(report.quarantined, 6);
        let linenos: Vec<usize> = report.quarantine_samples.iter().map(|(n, _)| *n).collect();
        assert_eq!(linenos, [6, 15, 24, 33]);
    }

    #[test]
    fn block_reader_caps_skew_samples_across_blocks() {
        // A's first SKEW_SAMPLE_CAP records run 5 ms ahead and the rest
        // 100 ms: only a cap counted over the whole stream gives 5.
        let mut rows = vec![(1_005, 1_000, "A", "early"); SKEW_SAMPLE_CAP];
        rows.extend(vec![(2_100, 2_000, "A", "late"); SKEW_SAMPLE_CAP + 500]);
        rows.push((3_000, 3_000, "B", "honest"));
        let data = tsv(&rows);
        let Outcome::Read(_, _, report, _) =
            assert_blocks_match_serial(|| data.as_bytes(), &IngestPolicy::default(), &[])
        else {
            panic!("a clean stream reads");
        };
        assert_eq!(report.per_source_skew_ms.get("A"), Some(&5));
        assert_eq!(report.deduped, 2 * SKEW_SAMPLE_CAP + 498);
    }

    /// Serves `data` a few bytes per read, answers every third read
    /// with `Interrupted`, and fails for good at byte `fail_at`.
    struct FailingReader<'a> {
        data: &'a [u8],
        pos: usize,
        fail_at: usize,
        reads: usize,
    }

    impl std::io::Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            if self.reads % 3 == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.pos >= self.fail_at {
                return Err(io::Error::other("disk went away"));
            }
            let end = self.data.len().min(self.fail_at).min(self.pos + 5);
            let chunk = self.data.get(self.pos..end).unwrap_or_default();
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn block_reader_matches_serial_when_the_reader_fails_partway() {
        let mut data = String::new();
        for n in 0..12 {
            data.push_str(&tsv(&[(n, n - 1, "A", "ok")]));
            if n % 4 == 1 {
                data.push_str("garbage\r\n\n");
            }
        }
        let strict = IngestPolicy {
            max_error_fraction: 0.2,
            min_lines_before_check: 4,
            ..IngestPolicy::default()
        };
        let mut seen = [false; 3];
        for fail_at in 0..=data.len() + 1 {
            for policy in [&strict, &IngestPolicy::lenient()] {
                let input = || {
                    BufReader::with_capacity(
                        16,
                        FailingReader {
                            data: data.as_bytes(),
                            pos: 0,
                            fail_at,
                            reads: 0,
                        },
                    )
                };
                let kind = match assert_blocks_match_serial(input, policy, &[]) {
                    Outcome::Read(..) => 0,
                    Outcome::Budget { .. } => 1,
                    Outcome::Io(..) | Outcome::Full => 2,
                };
                seen[kind] = true;
            }
        }
        assert_eq!(seen, [true; 3], "every outcome is exercised");
    }

    #[test]
    fn empty_stream_is_fine() {
        let (store, report) =
            read_store_resilient("".as_bytes(), &IngestPolicy::default()).expect("ok");
        assert!(store.is_empty());
        assert_eq!(report, IngestReport::default());
    }

    #[test]
    fn report_summary_mentions_counts() {
        let report = IngestReport {
            total_lines: 10,
            parsed: 8,
            quarantined: 2,
            ..IngestReport::default()
        };
        let s = report.summary();
        assert!(s.contains("10 lines"));
        assert!(s.contains("8 parsed"));
        assert!(s.contains("2 quarantined"));
    }
}
