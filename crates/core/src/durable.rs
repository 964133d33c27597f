//! Crash-safe persistence for the evidence cache and the daily advance.
//!
//! The nightly moving-landscape job (§1.2's "around the clock" miners)
//! runs on shared infrastructure where it gets preempted, OOM-killed,
//! or dies mid-write. A single-file serde dump fails that world twice
//! over: a torn write corrupts the whole cache, and a kill between two
//! window advances loses a week of warm evidence. This module replaces
//! the dump with a small durable store:
//!
//! * **Checkpoint** — `<path>` holds a checksummed, version-stamped
//!   snapshot: one header line plus one segment per UTC day of cached
//!   evidence. Every segment carries an FNV checksum over its day and
//!   payload; the header carries its own checksum and the segment
//!   count, so truncation at any byte — even an exact segment boundary
//!   — is detected. Checkpoints are only ever replaced via
//!   write-to-temp + atomic rename, so the visible file is always a
//!   complete past snapshot.
//! * **Journal** — `<path>.journal` is an append-only log of per-step
//!   cache deltas written *between* checkpoints. A crash mid-run
//!   leaves the old checkpoint plus a (possibly torn) journal;
//!   recovery replays the intact prefix and re-runs only the step that
//!   was in flight.
//! * **Quarantine + ledger** — corrupt byte regions are appended to
//!   `<path>.quarantine` (framed, for post-mortems) and every recovery
//!   decision is appended to `<path>.ledger` as a JSON-lines
//!   [`RecoveryEvent`] stream. Neither file participates in
//!   byte-identity: equal cache state ⇒ equal checkpoint bytes.
//!
//! Because the checkpoint is a pure function of `(cache, completed,
//! plan signature)` and cache entries are content-addressed, a run
//! killed at *any* durable write and resumed converges to the exact
//! bytes of an uninterrupted run — the property the `crash_recovery`
//! harness sweeps exhaustively with [`WritePolicy`] injection points
//! and `logdep-faults`' crash primitives.

use crate::cache::{
    l1_fingerprint, l2_fingerprint, l3_fingerprint, EvidenceCache, EvidenceKey, Fnv, L3DayCounts,
    SlotEvidence,
};
use crate::error::MineError;
use crate::health::{record_detector_health, DetectorHealth, DetectorKind, PipelineConfig};
use crate::l1::LOAD_JITTER_MS;
use crate::window::{run_window_cached, WindowOutcome};
use logdep_logstore::time::{TimeRange, MS_PER_DAY};
use logdep_logstore::{LogStore, Millis};
use logdep_obs::{record, Field};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::ops::{Range, RangeInclusive};
use std::path::{Path, PathBuf};

/// The durable writes the store performs, in the order a run meets
/// them. Crash harnesses key their "abort at the Kth write" sweeps on
/// these, and [`WritePolicy::before_write`] receives the one about to
/// happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableOp {
    /// Writing the checkpoint bytes to the temp file.
    CheckpointWrite,
    /// Atomically renaming the checkpoint temp file into place.
    CheckpointRename,
    /// Appending one step record to the journal.
    JournalAppend,
    /// Rewriting the journal (repair or post-checkpoint reset) to temp.
    JournalWrite,
    /// Atomically renaming the journal temp file into place.
    JournalRename,
    /// Appending a corrupt byte region to the quarantine file.
    QuarantineAppend,
    /// Appending recovery events to the ledger.
    LedgerAppend,
    /// A caller-owned file written through [`persist_atomic`] (temp write).
    FileWrite,
    /// A caller-owned file written through [`persist_atomic`] (rename).
    FileRename,
}

impl DurableOp {
    /// Stable kebab-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DurableOp::CheckpointWrite => "checkpoint-write",
            DurableOp::CheckpointRename => "checkpoint-rename",
            DurableOp::JournalAppend => "journal-append",
            DurableOp::JournalWrite => "journal-write",
            DurableOp::JournalRename => "journal-rename",
            DurableOp::QuarantineAppend => "quarantine-append",
            DurableOp::LedgerAppend => "ledger-append",
            DurableOp::FileWrite => "file-write",
            DurableOp::FileRename => "file-rename",
        }
    }
}

impl std::fmt::Display for DurableOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a [`WritePolicy`] decides for one durable write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteDecision {
    /// Perform the write normally.
    Proceed,
    /// Simulate a crash at this write. For plain writes/appends,
    /// `partial` (when present) is flushed to the destination first —
    /// the torn or bit-flipped wreck the next open must survive. For
    /// rename ops `partial` is ignored: renames are atomic, so a crash
    /// simply leaves the old file.
    Abort {
        /// Bytes that "made it to the platter" before the crash.
        partial: Option<Vec<u8>>,
    },
}

/// Interception point for every durable write the store performs.
/// Production uses [`NoopPolicy`]; crash harnesses count ops and abort
/// at a scheduled one.
pub trait WritePolicy {
    /// Called immediately before each durable write with the exact
    /// bytes about to be persisted.
    fn before_write(&mut self, op: DurableOp, bytes: &[u8]) -> WriteDecision;
}

/// The production policy: every write proceeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPolicy;

impl WritePolicy for NoopPolicy {
    fn before_write(&mut self, _op: DurableOp, _bytes: &[u8]) -> WriteDecision {
        WriteDecision::Proceed
    }
}

/// Errors of the durable layer.
#[derive(Debug)]
pub enum DurableError {
    /// A [`WritePolicy`] aborted the run at a durable write (simulated
    /// crash).
    Crashed {
        /// The write that was interrupted.
        op: DurableOp,
    },
    /// A real I/O failure (not a detected corruption — those degrade).
    Io {
        /// Path the operation touched.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Serialization of state that must be persistable failed.
    Codec(String),
    /// The pipeline itself failed under the durable driver.
    Pipeline(MineError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Crashed { op } => {
                write!(f, "simulated crash at durable write ({op})")
            }
            DurableError::Io { path, source } => write!(f, "i/o error on {path}: {source}"),
            DurableError::Codec(msg) => write!(f, "codec error: {msg}"),
            DurableError::Pipeline(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io { source, .. } => Some(source),
            DurableError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MineError> for DurableError {
    fn from(e: MineError) -> Self {
        DurableError::Pipeline(e)
    }
}

/// One recovery decision, as recorded in memory, in
/// [`DetectorHealth`], and in the on-disk ledger (JSON lines).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Stable machine-readable code (e.g. `segment-corrupt`).
    pub code: String,
    /// Whether this event means on-disk corruption was detected (as
    /// opposed to a benign cold start or plan change).
    pub corruption: bool,
    /// Human-readable detail.
    pub detail: String,
}

fn io_err(path: &Path, source: std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.display().to_string(),
        source,
    }
}

fn codec_err(context: &str, e: impl std::fmt::Display) -> DurableError {
    DurableError::Codec(format!("{context}: {e}"))
}

/// `path` with `suffix` appended to its final component.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

/// Writes `bytes` to `path` (whole-file), consulting `policy` first.
fn guarded_write(
    path: &Path,
    bytes: &[u8],
    op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    match policy.before_write(op, bytes) {
        WriteDecision::Proceed => std::fs::write(path, bytes).map_err(|e| io_err(path, e)),
        WriteDecision::Abort { partial } => {
            if let Some(p) = partial {
                // The crash left a wreck behind; best-effort, the
                // "crash" wins either way.
                match std::fs::write(path, &p) {
                    Ok(()) | Err(_) => {}
                }
            }
            Err(DurableError::Crashed { op })
        }
    }
}

/// Appends `bytes` to `path` (creating it), consulting `policy` first.
fn guarded_append(
    path: &Path,
    bytes: &[u8],
    op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    match policy.before_write(op, bytes) {
        WriteDecision::Proceed => {
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(path)
                .map_err(|e| io_err(path, e))?;
            fh.write_all(bytes).map_err(|e| io_err(path, e))
        }
        WriteDecision::Abort { partial } => {
            if let Some(p) = partial {
                if let Ok(mut fh) = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(path)
                {
                    match fh.write_all(&p) {
                        Ok(()) | Err(_) => {}
                    }
                }
            }
            Err(DurableError::Crashed { op })
        }
    }
}

/// Write-to-temp + atomic rename, with both steps as policy-visible
/// durable ops. The visible `path` is always either the old complete
/// file or the new complete file, never a mixture.
fn write_atomic(
    path: &Path,
    bytes: &[u8],
    write_op: DurableOp,
    rename_op: DurableOp,
    policy: &mut dyn WritePolicy,
) -> Result<(), DurableError> {
    let tmp = sibling(path, ".tmp");
    guarded_write(&tmp, bytes, write_op, policy)?;
    match policy.before_write(rename_op, bytes) {
        WriteDecision::Proceed => std::fs::rename(&tmp, path).map_err(|e| io_err(path, e)),
        WriteDecision::Abort { .. } => Err(DurableError::Crashed { op: rename_op }),
    }
}

/// Atomically persists caller-owned bytes (temp write + rename). The
/// workspace `non-atomic-persist` lint points direct writers of
/// persistent state here.
pub fn persist_atomic(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    write_atomic(
        path,
        bytes,
        DurableOp::FileWrite,
        DurableOp::FileRename,
        &mut NoopPolicy,
    )
}

/// One day's worth of cache entries — the unit of checkpoint
/// checksumming and of journal deltas. Vectors stay in `BTreeMap`
/// iteration order, so encoding is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentPayload {
    /// L1 slot-evidence entries.
    pub l1: Vec<(EvidenceKey, SlotEvidence)>,
    /// L3 day-scan entries.
    pub l3: Vec<(EvidenceKey, L3DayCounts)>,
}

impl SegmentPayload {
    /// Total entries across layers.
    pub fn len(&self) -> usize {
        self.l1.len() + self.l3.len()
    }

    /// Whether the delta carries no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends `serde_json::to_string(self)` to `out`, entry by entry,
    /// so only one entry's value tree is alive at a time. A cold
    /// window's delta is about 0.5 MB of JSON; its whole tree is about
    /// ten times that, and was the peak of a cold `daily` run.
    fn write_json(&self, out: &mut String) -> Result<(), DurableError> {
        fn entries<T: Serialize>(xs: &[T], out: &mut String) -> Result<(), DurableError> {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(x).map_err(|e| codec_err("entry", e))?);
            }
            out.push(']');
            Ok(())
        }
        out.push_str("{\"l1\":");
        entries(&self.l1, out)?;
        out.push_str(",\"l3\":");
        entries(&self.l3, out)?;
        out.push('}');
        Ok(())
    }

    /// Inserts every entry into `cache`.
    fn apply_to(self, cache: &mut EvidenceCache) {
        cache.l1.extend(self.l1);
        cache.l3.extend(self.l3);
    }
}

/// One journal record: the cache delta of a completed step plus the
/// window it settled, so replay can re-apply the step's eviction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalPayload {
    /// Window start (ms) of the completed step.
    pub window_start: i64,
    /// Window end (ms, exclusive) of the completed step.
    pub window_end: i64,
    /// Entries the step inserted.
    pub delta: SegmentPayload,
}

const MAGIC: &str = "LOGDEP-DUR v1";

fn day_of(key: &EvidenceKey) -> i64 {
    key.start.div_euclid(MS_PER_DAY)
}

fn header_fnv(cache_version: u32, n_segments: u64, completed: u64, plan_fp: u64) -> u64 {
    let mut f = Fnv::new();
    f.push_str(MAGIC);
    f.push_u64(u64::from(cache_version));
    f.push_u64(n_segments);
    f.push_u64(completed);
    f.push_u64(plan_fp);
    f.finish()
}

/// The framed record both checkpoint segments and journal records are
/// stored as:
///
/// ```text
/// <tag> <key>... <len> <fnv>\n<JSON payload, exactly len bytes>\n
/// ```
///
/// The checksum folds a domain tag, every key, the length and the
/// payload, so a frame can neither tear nor move to another key
/// without failing verification.
struct Frame<const N: usize> {
    /// First token of the frame's header line.
    tag: &'static str,
    /// Domain separator folded into the checksum.
    fnv_tag: &'static str,
    /// What decode errors call the frame.
    noun: &'static str,
    /// Names of the key fields, in header order.
    keys: [&'static str; N],
}

/// One day of checkpointed evidence: `SEG <day> <len> <fnv>`.
const SEGMENT: Frame<1> = Frame {
    tag: "SEG",
    fnv_tag: "seg",
    noun: "segment",
    keys: ["day"],
};

/// One completed step in the journal: `J <step> <plan_fp> <len> <fnv>`.
const RECORD: Frame<2> = Frame {
    tag: "J",
    fnv_tag: "jrn",
    noun: "record",
    keys: ["step", "plan_fp"],
};

/// A frame key: a header token that is also folded into the checksum.
trait FrameKey: Copy + Default + std::fmt::Display + std::str::FromStr {
    fn fold(self, f: &mut Fnv);
}

impl FrameKey for i64 {
    fn fold(self, f: &mut Fnv) {
        f.push_i64(self);
    }
}

impl FrameKey for u64 {
    fn fold(self, f: &mut Fnv) {
        f.push_u64(self);
    }
}

impl<const N: usize> Frame<N> {
    fn fnv<K: FrameKey>(&self, keys: [K; N], payload: &[u8]) -> u64 {
        let mut f = Fnv::new();
        f.push_str(self.fnv_tag);
        for k in keys {
            k.fold(&mut f);
        }
        f.push_u64(payload.len() as u64);
        f.push_bytes(payload);
        f.finish()
    }

    /// Appends the JSON text `json` framed under `keys` to `out`.
    fn write<K: FrameKey>(&self, keys: [K; N], json: &str, out: &mut Vec<u8>) {
        let mut header = self.tag.to_string();
        for k in keys {
            header.push_str(&format!(" {k}"));
        }
        let fnv = self.fnv(keys, json.as_bytes());
        header.push_str(&format!(" {} {fnv}\n", json.len()));
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(json.as_bytes());
        out.push(b'\n');
    }

    /// Decodes the frame starting at `pos`, verifying its length,
    /// terminator and checksum: its keys, its payload, and the offset
    /// just past it.
    fn read<K: FrameKey, T: Deserialize>(
        &self,
        bytes: &[u8],
        pos: usize,
    ) -> Result<([K; N], T, usize), String> {
        let noun = self.noun;
        let nl =
            find_byte(bytes, pos, b'\n').ok_or_else(|| format!("unterminated {noun} header"))?;
        let line = bytes
            .get(pos..nl)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("{noun} header not utf-8"))?;
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some(self.tag) {
            return Err(format!("missing {} tag", self.tag));
        }
        let mut keys = [K::default(); N];
        for (key, name) in keys.iter_mut().zip(self.keys) {
            *key = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad {noun} {name}"))?;
        }
        let len: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad {noun} length"))?;
        let fnv: u64 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad {noun} checksum"))?;
        if it.next().is_some() {
            return Err(format!("trailing {noun} header tokens"));
        }
        let pay_start = nl + 1;
        let pay_end = pay_start
            .checked_add(len)
            .ok_or_else(|| format!("{noun} length overflow"))?;
        let payload = bytes
            .get(pay_start..pay_end)
            .ok_or_else(|| format!("{noun} payload truncated"))?;
        if bytes.get(pay_end) != Some(&b'\n') {
            return Err(format!("missing {noun} terminator"));
        }
        if self.fnv(keys, payload) != fnv {
            return Err(format!("{noun} checksum mismatch"));
        }
        let text = std::str::from_utf8(payload).map_err(|_| format!("{noun} payload not utf-8"))?;
        let value =
            serde_json::from_str(text).map_err(|e| format!("{noun} payload unparsable: {e}"))?;
        Ok((keys, value, pay_end + 1))
    }
}

/// Encodes a checkpoint: header line + one checksummed segment per day.
/// A pure function of its arguments — equal state ⇒ equal bytes, the
/// anchor of the crash sweep's byte-identity assertion.
fn encode_checkpoint(
    cache: &EvidenceCache,
    completed: u64,
    plan_fp: u64,
) -> Result<Vec<u8>, DurableError> {
    let mut days: BTreeMap<i64, SegmentPayload> = BTreeMap::new();
    for (k, v) in &cache.l1 {
        days.entry(day_of(k)).or_default().l1.push((*k, v.clone()));
    }
    for (k, v) in &cache.l3 {
        days.entry(day_of(k)).or_default().l3.push((*k, v.clone()));
    }
    let n = days.len() as u64;
    let hfnv = header_fnv(EvidenceCache::VERSION, n, completed, plan_fp);
    let mut out = format!(
        "{MAGIC} {} {n} {completed} {plan_fp} {hfnv}\n",
        EvidenceCache::VERSION
    )
    .into_bytes();
    for (day, payload) in &days {
        let mut json = String::new();
        payload.write_json(&mut json)?;
        SEGMENT.write([*day], &json, &mut out);
    }
    Ok(out)
}

fn find_byte(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes
        .get(from..)
        .and_then(|tail| tail.iter().position(|&b| b == needle))
        .map(|i| from + i)
}

/// First offset `>= from` where the resync marker `\nSEG ` begins.
fn find_resync(bytes: &[u8], from: usize) -> Option<usize> {
    let marker = b"\nSEG ";
    let mut at = from;
    while let Some(i) = find_byte(bytes, at, b'\n') {
        if bytes.get(i..i + marker.len()) == Some(&marker[..]) {
            return Some(i);
        }
        at = i + 1;
    }
    None
}

/// Everything a checkpoint decode learned, including the wrecks.
struct DecodedCheckpoint {
    cache: EvidenceCache,
    completed: u64,
    plan_fp: u64,
    /// Header parsed and checksummed clean.
    header_ok: bool,
    /// Snapshot format version matches [`EvidenceCache::VERSION`].
    version_ok: bool,
    /// No corruption anywhere — the file re-encodes to itself.
    intact: bool,
    events: Vec<RecoveryEvent>,
    quarantined: Vec<Vec<u8>>,
    restored: usize,
}

fn event(code: &str, corruption: bool, detail: String) -> RecoveryEvent {
    RecoveryEvent {
        code: code.to_string(),
        corruption,
        detail,
    }
}

/// Decodes checkpoint bytes, verifying every checksum. Corrupt regions
/// are collected for quarantine and reported as events; intact
/// segments are restored. Never fails: worst case is an empty cache
/// plus corruption events — degraded, not dead.
fn decode_checkpoint(bytes: &[u8]) -> DecodedCheckpoint {
    let mut d = DecodedCheckpoint {
        cache: EvidenceCache::new(),
        completed: 0,
        plan_fp: 0,
        header_ok: false,
        version_ok: false,
        intact: true,
        events: Vec::new(),
        quarantined: Vec::new(),
        restored: 0,
    };
    let header = match decode_header(bytes) {
        Ok(h) => h,
        Err(reason) => {
            d.intact = false;
            d.events.push(event(
                "checkpoint-header-corrupt",
                true,
                format!("{reason}; discarding checkpoint"),
            ));
            d.quarantined.push(bytes.to_vec());
            return d;
        }
    };
    d.header_ok = true;
    d.completed = header.completed;
    d.plan_fp = header.plan_fp;
    if header.cache_version != EvidenceCache::VERSION {
        d.events.push(event(
            "version-mismatch",
            false,
            format!(
                "snapshot format v{} != current v{}; starting cold",
                header.cache_version,
                EvidenceCache::VERSION
            ),
        ));
        return d;
    }
    d.version_ok = true;

    let mut pos = header.body_start;
    let mut decoded = 0u64;
    while pos < bytes.len() {
        let seg_start = pos;
        match SEGMENT.read::<i64, SegmentPayload>(bytes, pos) {
            Ok((_day, payload, next)) => {
                d.restored += payload.len();
                payload.apply_to(&mut d.cache);
                decoded += 1;
                pos = next;
            }
            Err(reason) => {
                d.intact = false;
                let (skip_to, region) = match find_resync(bytes, seg_start + 1) {
                    Some(i) => (i + 1, bytes.get(seg_start..i + 1)),
                    None => (bytes.len(), bytes.get(seg_start..)),
                };
                d.events.push(event(
                    "segment-corrupt",
                    true,
                    format!(
                        "{reason}; quarantined {} bytes at offset {seg_start}",
                        region.map(<[u8]>::len).unwrap_or(0)
                    ),
                ));
                if let Some(r) = region {
                    d.quarantined.push(r.to_vec());
                }
                pos = skip_to;
            }
        }
    }
    if decoded != header.n_segments {
        d.intact = false;
        d.events.push(event(
            "checkpoint-truncated",
            true,
            format!(
                "header promises {} segments, {decoded} decoded cleanly",
                header.n_segments
            ),
        ));
    }
    d
}

struct Header {
    cache_version: u32,
    n_segments: u64,
    completed: u64,
    plan_fp: u64,
    body_start: usize,
}

fn decode_header(bytes: &[u8]) -> Result<Header, String> {
    let nl = find_byte(bytes, 0, b'\n').ok_or_else(|| "no header line".to_string())?;
    let line = bytes
        .get(..nl)
        .and_then(|b| std::str::from_utf8(b).ok())
        .ok_or_else(|| "header not utf-8".to_string())?;
    let mut it = line.split_ascii_whitespace();
    let magic_a = it.next().unwrap_or_default();
    let magic_b = it.next().unwrap_or_default();
    if format!("{magic_a} {magic_b}") != MAGIC {
        return Err(format!("bad magic {magic_a:?} {magic_b:?}"));
    }
    let mut next_u64 = |name: &str| -> Result<u64, String> {
        it.next()
            .and_then(|t| t.parse::<u64>().ok())
            .ok_or_else(|| format!("bad header field {name}"))
    };
    let cache_version = next_u64("version")?;
    let n_segments = next_u64("n_segments")?;
    let completed = next_u64("completed")?;
    let plan_fp = next_u64("plan_fp")?;
    let hfnv = next_u64("hfnv")?;
    if it.next().is_some() {
        return Err("trailing header tokens".to_string());
    }
    let cache_version = u32::try_from(cache_version).map_err(|_| "version overflow".to_string())?;
    if header_fnv(cache_version, n_segments, completed, plan_fp) != hfnv {
        return Err("header checksum mismatch".to_string());
    }
    Ok(Header {
        cache_version,
        n_segments,
        completed,
        plan_fp,
        body_start: nl + 1,
    })
}

fn encode_journal_record(
    step: u64,
    plan_fp: u64,
    payload: &JournalPayload,
) -> Result<Vec<u8>, DurableError> {
    let mut json = format!(
        "{{\"window_start\":{},\"window_end\":{},\"delta\":",
        payload.window_start, payload.window_end
    );
    payload.delta.write_json(&mut json)?;
    json.push('}');
    let mut out = Vec::with_capacity(json.len() + 64);
    RECORD.write([step, plan_fp], &json, &mut out);
    Ok(out)
}

#[derive(Default)]
struct DecodedJournal {
    records: Vec<(u64, u64, JournalPayload)>,
    /// Byte range of each record, parallel to `records`.
    spans: Vec<Range<usize>>,
    /// Byte length of the longest cleanly-decoding record prefix.
    clean_len: usize,
    /// Whether bytes beyond the clean prefix exist (a torn tail).
    torn: bool,
}

/// Decodes the journal's clean record prefix. Append-only files tear
/// at the tail, so everything before the first damaged record is
/// trustworthy and everything from it on is not.
fn decode_journal(bytes: &[u8]) -> DecodedJournal {
    let mut dj = DecodedJournal::default();
    while dj.clean_len < bytes.len() {
        let pos = dj.clean_len;
        match RECORD.read::<u64, JournalPayload>(bytes, pos) {
            Ok(([step, plan_fp], payload, next)) if payload.window_start <= payload.window_end => {
                dj.records.push((step, plan_fp, payload));
                dj.spans.push(pos..next);
                dj.clean_len = next;
            }
            // A checksummed record with an inverted window is as
            // untrustworthy as a torn one.
            Ok(_) | Err(_) => {
                dj.torn = true;
                break;
            }
        }
    }
    dj
}

/// The writes a recovery pass asks for, in the order
/// [`DurableStore::open`] performs them.
#[derive(Default)]
struct RecoveryWrites {
    /// Corrupt byte regions for the quarantine file, in order.
    quarantine: Vec<Vec<u8>>,
    /// The journal's new contents, when it must be rewritten.
    journal: Option<Vec<u8>>,
}

/// The recovery pass: every decision about a store's bytes, made
/// without touching a file. It restores the intact checkpoint
/// segments, restarts progress on a `plan-changed` checkpoint, and
/// replays the journal's records for `plan_fp` in step order — skipping
/// stale-plan records, stopping at a gap, and setting a torn tail
/// aside. `plan_fp` `None` judges the store against the plan signature
/// its checkpoint records (0 when it has no readable header). Returns
/// the restored store, its events, and the writes that bring the files
/// in line with it.
fn recover(
    path: &Path,
    checkpoint: Option<&[u8]>,
    journal: &[u8],
    plan_fp: Option<u64>,
) -> (DurableStore, RecoveryWrites) {
    let decoded = checkpoint.map(decode_checkpoint);
    let plan_fp = plan_fp.unwrap_or(decoded.as_ref().map_or(0, |d| d.plan_fp));
    let mut s = DurableStore {
        path: path.to_path_buf(),
        cache: EvidenceCache::new(),
        completed: 0,
        plan_fp,
        completed_at_load: 0,
        journal_records_at_load: 0,
        checkpoint_valid_at_load: false,
        events: Vec::new(),
        ledgered: 0,
        restored_entries: 0,
    };
    let mut writes = RecoveryWrites::default();
    if let Some(d) = decoded {
        writes.quarantine = d.quarantined;
        s.events = d.events;
        if d.header_ok && d.version_ok {
            s.cache = d.cache;
            s.restored_entries = d.restored;
            if d.plan_fp == plan_fp {
                s.completed = d.completed;
                s.checkpoint_valid_at_load = d.intact;
            } else {
                s.events.push(event(
                    "plan-changed",
                    false,
                    format!(
                        "plan signature {plan_fp} != stored {}; keeping warm cache, restarting progress",
                        d.plan_fp
                    ),
                ));
            }
        }
    }
    s.completed_at_load = s.completed;

    let dj = decode_journal(journal);
    let mut rewrite = dj.torn;
    if dj.torn {
        let tail = journal.get(dj.clean_len..).unwrap_or_default();
        s.events.push(event(
            "journal-torn",
            true,
            format!(
                "{} damaged bytes past the clean prefix; truncating",
                tail.len()
            ),
        ));
        writes.quarantine.push(tail.to_vec());
    }
    let mut retained: Vec<u8> = Vec::new();
    let mut stale = 0usize;
    let mut applied = 0usize;
    let mut applied_entries = 0usize;
    for ((step, rec_fp, payload), span) in dj.records.into_iter().zip(dj.spans) {
        if rec_fp != plan_fp {
            stale += 1;
            rewrite = true;
            continue;
        }
        let next = s.completed.saturating_add(1);
        if step > next {
            s.events.push(event(
                "journal-gap",
                true,
                format!("expected step {next}, found {step}; truncating"),
            ));
            rewrite = true;
            break;
        }
        // A step at or below `completed` is already folded into the
        // checkpoint (a crash landed between the checkpoint rename and
        // the journal reset): kept, not re-applied.
        if step == next {
            let window = TimeRange::new(Millis(payload.window_start), Millis(payload.window_end));
            applied_entries += payload.delta.len();
            payload.delta.apply_to(&mut s.cache);
            s.cache.evict_outside(window);
            s.completed = step;
            applied += 1;
        }
        retained.extend_from_slice(journal.get(span).unwrap_or_default());
        s.journal_records_at_load += 1;
    }
    if stale > 0 {
        s.events.push(event(
            "journal-stale-plan",
            false,
            format!("{stale} records from a different plan discarded"),
        ));
    }
    if applied > 0 {
        s.events.push(event(
            "journal-replayed",
            false,
            format!("replayed {applied} steps ({applied_entries} entries) past the checkpoint"),
        ));
        s.restored_entries += applied_entries;
    }
    if rewrite {
        writes.journal = Some(retained);
    }
    (s, writes)
}

/// Reads the checkpoint and journal at `path` and runs [`recover`]
/// over them; a missing checkpoint is reported as `missing`.
fn recover_at(
    path: &Path,
    plan_fp: Option<u64>,
    missing: RecoveryEvent,
) -> Result<(DurableStore, RecoveryWrites), DurableError> {
    let checkpoint = read_if_exists(path)?;
    let journal = read_if_exists(&sibling(path, ".journal"))?.unwrap_or_default();
    let (mut store, writes) = recover(path, checkpoint.as_deref(), &journal, plan_fp);
    if checkpoint.is_none() {
        store.events.insert(0, missing);
    }
    Ok((store, writes))
}

fn read_if_exists(path: &Path) -> Result<Option<Vec<u8>>, DurableError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(path, e)),
    }
}

/// The crash-safe on-disk store: checkpoint + journal + quarantine +
/// ledger, all derived from one base path. Opening never fails on
/// corruption — damage is quarantined, reported as [`RecoveryEvent`]s,
/// and the affected day-ranges simply rebuild as cache misses.
pub struct DurableStore {
    path: PathBuf,
    cache: EvidenceCache,
    completed: u64,
    plan_fp: u64,
    completed_at_load: u64,
    journal_records_at_load: usize,
    checkpoint_valid_at_load: bool,
    events: Vec<RecoveryEvent>,
    ledgered: usize,
    restored_entries: usize,
}

impl DurableStore {
    /// Opens (or cold-starts) the store at `path` for a run whose plan
    /// signature is `plan_fp`: decodes and verifies the checkpoint,
    /// quarantines corrupt regions, repairs a torn journal, and
    /// replays intact journal records on top of the checkpoint.
    pub fn open(
        path: &Path,
        plan_fp: u64,
        policy: &mut dyn WritePolicy,
    ) -> Result<Self, DurableError> {
        Self::open_with(path, Some(plan_fp), policy)
    }

    /// Opens the store against whatever plan signature the checkpoint
    /// itself records (0 when there is none) — the entry point for
    /// `cache repair`, which must preserve intact state verbatim.
    pub fn open_existing(path: &Path, policy: &mut dyn WritePolicy) -> Result<Self, DurableError> {
        Self::open_with(path, None, policy)
    }

    /// Runs the recovery pass, then performs the writes it asked for:
    /// every quarantine append in order, then the journal rewrite.
    fn open_with(
        path: &Path,
        plan_fp: Option<u64>,
        policy: &mut dyn WritePolicy,
    ) -> Result<Self, DurableError> {
        let missing = event(
            "cold-start",
            false,
            format!("no checkpoint at {}; starting cold", path.display()),
        );
        let (store, writes) = recover_at(path, plan_fp, missing)?;
        for region in &writes.quarantine {
            store.quarantine(region, policy)?;
        }
        if let Some(bytes) = &writes.journal {
            store.write_journal(bytes, policy)?;
        }
        Ok(store)
    }

    fn journal_path(&self) -> PathBuf {
        sibling(&self.path, ".journal")
    }

    fn write_journal(
        &self,
        bytes: &[u8],
        policy: &mut dyn WritePolicy,
    ) -> Result<(), DurableError> {
        write_atomic(
            &self.journal_path(),
            bytes,
            DurableOp::JournalWrite,
            DurableOp::JournalRename,
            policy,
        )
    }

    fn quarantine(&self, region: &[u8], policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        let mut framed = format!("QUAR {}\n", region.len()).into_bytes();
        framed.extend_from_slice(region);
        framed.push(b'\n');
        guarded_append(
            &sibling(&self.path, ".quarantine"),
            &framed,
            DurableOp::QuarantineAppend,
            policy,
        )
    }

    /// Journals the delta of a freshly completed step and advances the
    /// progress counter. The in-memory cache must already hold the
    /// step's result (the driver runs the window first, then journals).
    pub fn append_step(
        &mut self,
        step: u64,
        window: TimeRange,
        delta: SegmentPayload,
        policy: &mut dyn WritePolicy,
    ) -> Result<(), DurableError> {
        let payload = JournalPayload {
            window_start: window.start.0,
            window_end: window.end.0,
            delta,
        };
        let rec = encode_journal_record(step, self.plan_fp, &payload)?;
        guarded_append(&self.journal_path(), &rec, DurableOp::JournalAppend, policy)?;
        self.completed = step;
        Ok(())
    }

    /// Atomically replaces the checkpoint with the current state and
    /// resets the journal. Crash-ordering is safe in both directions:
    /// the journal is only emptied *after* the new checkpoint is
    /// visible, and a crash in between is healed by the skip-replay
    /// path on the next open.
    pub fn checkpoint(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        let bytes = encode_checkpoint(&self.cache, self.completed, self.plan_fp)?;
        write_atomic(
            &self.path,
            &bytes,
            DurableOp::CheckpointWrite,
            DurableOp::CheckpointRename,
            policy,
        )?;
        self.write_journal(&[], policy)?;
        self.completed_at_load = self.completed;
        self.journal_records_at_load = 0;
        self.checkpoint_valid_at_load = true;
        Ok(())
    }

    /// Forgets resumable progress (a run invoked without `--resume`):
    /// the warm cache is kept, the step counter restarts at zero, and
    /// stale journal records are dropped so they can never replay.
    pub fn discard_progress(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        if self.journal_records_at_load > 0 {
            self.write_journal(&[], policy)?;
            self.journal_records_at_load = 0;
        }
        if self.completed > 0 {
            self.events.push(event(
                "progress-discarded",
                false,
                format!(
                    "run restarted without --resume at completed step {}",
                    self.completed
                ),
            ));
        }
        self.completed = 0;
        if self.completed_at_load > 0 {
            self.checkpoint_valid_at_load = false;
        }
        self.completed_at_load = 0;
        Ok(())
    }

    /// Appends any not-yet-ledgered [`RecoveryEvent`]s to
    /// `<path>.ledger` as JSON lines.
    pub fn append_ledger(&mut self, policy: &mut dyn WritePolicy) -> Result<(), DurableError> {
        if self.ledgered >= self.events.len() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for e in self.events.get(self.ledgered..).unwrap_or_default() {
            let json = serde_json::to_string(e).map_err(|err| codec_err("ledger event", err))?;
            buf.extend_from_slice(json.as_bytes());
            buf.push(b'\n');
        }
        guarded_append(
            &sibling(&self.path, ".ledger"),
            &buf,
            DurableOp::LedgerAppend,
            policy,
        )?;
        self.ledgered = self.events.len();
        Ok(())
    }

    /// Whether on-disk state lags the in-memory state — i.e. a final
    /// [`checkpoint`](Self::checkpoint) must run before exit.
    pub fn dirty(&self) -> bool {
        !self.checkpoint_valid_at_load
            || self.completed > self.completed_at_load
            || self.journal_records_at_load > 0
    }

    /// The restored (and since mutated) evidence cache.
    pub fn cache(&self) -> &EvidenceCache {
        &self.cache
    }

    /// Mutable access for the window driver.
    pub fn cache_mut(&mut self) -> &mut EvidenceCache {
        &mut self.cache
    }

    /// Last completed step (0 = nothing completed).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Every recovery event this open observed, in order.
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// The base checkpoint path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// What the store holds and observed, as a [`StoreReport`].
    fn report(&self) -> StoreReport {
        StoreReport {
            events: self.events.clone(),
            cache_entries: self.cache.len(),
            completed: self.completed,
            journal_records: self.journal_records_at_load,
        }
    }

    /// The store's standing as a detector-style health row: `ok` while
    /// no corruption was detected, `detected` counting restored
    /// entries, so `daily` reports surface recovery alongside L1–L3.
    pub fn health(&self) -> DetectorHealth {
        let first_corrupt = self.events.iter().find(|e| e.corruption);
        DetectorHealth {
            detector: DetectorKind::Store,
            ok: first_corrupt.is_none(),
            error: first_corrupt.map(|e| format!("{}: {}", e.code, e.detail)),
            enabled: true,
            detected: self.restored_entries,
        }
    }
}

/// The sliding-window schedule of `logdep daily` and `logdep serve`:
/// `steps` windows of `window_days` days, the first starting at
/// `start_day`, each advancing by `advance_days`. Windows are indexed
/// from 0; the durable journal numbers its steps from 1, so journal
/// step `s` mines `window(s - 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailyPlan {
    /// Day the first window starts at.
    pub start_day: i64,
    /// Width of every window, in days.
    pub window_days: i64,
    /// Days the window advances per step.
    pub advance_days: i64,
    /// Number of advances to run.
    pub steps: u64,
}

/// The days whose first millisecond a [`Millis`] can hold.
const CLOCK_DAYS: RangeInclusive<i64> = (i64::MIN / MS_PER_DAY)..=(i64::MAX / MS_PER_DAY);

impl DailyPlan {
    /// The day window `i` starts.
    pub fn day(&self, i: u64) -> i64 {
        let i = i64::try_from(i).unwrap_or(i64::MAX);
        self.start_day
            .saturating_add(i.saturating_mul(self.advance_days))
    }

    /// Window `i` as a time range. Never panics: outside a
    /// [`validate`](Self::validate)d plan the bounds saturate.
    pub fn window(&self, i: u64) -> TimeRange {
        let start = self.day(i);
        let end = start.saturating_add(self.window_days).max(start);
        TimeRange::new(
            Millis(start.saturating_mul(MS_PER_DAY)),
            Millis(end.saturating_mul(MS_PER_DAY)),
        )
    }

    /// The client timestamps this plan's mining reads: from the first
    /// window's start to the last window's end, widened on each side by
    /// the farthest any miner reads outside a window. L2's session
    /// rebuild and L3's day scan read only rows inside a window. L1's
    /// load-proportional reference jitters its picks by up to
    /// `LOAD_JITTER_MS` (2 s), which is also the margin its cache
    /// digests, and its distance queries consult one timeline point
    /// beyond on each side, which a store read under this scope keeps
    /// ([`IngestPolicy::scope`](logdep_logstore::IngestPolicy::scope)).
    /// So every window mines the same from such a store as from the
    /// whole export, and probes the same cache keys.
    pub fn read_span(&self) -> RangeInclusive<Millis> {
        let first = self.window(0);
        let last = self.window(self.steps.saturating_sub(1));
        Millis(first.start.0.saturating_sub(LOAD_JITTER_MS))
            ..=Millis(last.end.0.saturating_add(LOAD_JITTER_MS - 1))
    }

    /// Rejects degenerate schedules, and schedules whose windows do
    /// not all fit the millisecond clock.
    pub fn validate(&self) -> Result<(), MineError> {
        if self.window_days < 1 {
            return Err(MineError::InvalidConfig {
                name: "window_days",
                reason: format!("must be >= 1 day, got {}", self.window_days),
            });
        }
        if self.advance_days < 1 {
            return Err(MineError::InvalidConfig {
                name: "advance_days",
                reason: format!("must be >= 1 day, got {}", self.advance_days),
            });
        }
        if self.steps < 1 {
            return Err(MineError::InvalidConfig {
                name: "steps",
                reason: "must run at least one step".to_string(),
            });
        }
        // Windows only move forward, so the first window's start and
        // the last window's end bound them all.
        let end_of = |i: u64| {
            i64::try_from(i)
                .ok()
                .and_then(|i| i.checked_mul(self.advance_days))
                .and_then(|offset| offset.checked_add(self.start_day))
                .and_then(|start| start.checked_add(self.window_days))
        };
        for (i, name) in [(0, "start_day"), (self.steps - 1, "steps")] {
            let on_clock = end_of(i).is_some_and(|end| CLOCK_DAYS.contains(&end));
            if !on_clock || !CLOCK_DAYS.contains(&self.start_day) {
                return Err(MineError::InvalidConfig {
                    name,
                    reason: format!(
                        "window {i} falls outside the millisecond clock's days {CLOCK_DAYS:?}"
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Signature binding a resumable run to its exact inputs: the plan,
/// every enabled layer's config fingerprint, and the identity of the
/// log store (its active sources, length and first and last
/// timestamps; for `logdep daily`, of the store read under the plan's
/// [`read_span`](DailyPlan::read_span)). Any change ⇒ different
/// signature ⇒ progress restarts from step zero (the warm cache is
/// kept — content addressing makes stale entries plain misses).
/// Deliberately *not* named
/// `*_fingerprint`: it folds no config struct of its own, and `par`
/// must stay out of it (thread count cannot change results).
pub fn plan_signature(
    store: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
    plan: &DailyPlan,
) -> u64 {
    let mut f = Fnv::new();
    f.push_str("daily-plan");
    f.push_i64(plan.start_day);
    f.push_i64(plan.window_days);
    f.push_i64(plan.advance_days);
    f.push_u64(plan.steps);
    let sources = store.active_sources();
    match &cfg.l1 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l1_fingerprint(c, &sources));
        }
        None => f.push_bool(false),
    }
    match &cfg.l2 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l2_fingerprint(c));
        }
        None => f.push_bool(false),
    }
    match &cfg.l3 {
        Some(c) => {
            f.push_bool(true);
            f.push_u64(l3_fingerprint(c, service_ids));
        }
        None => f.push_bool(false),
    }
    f.push_u64(store.len() as u64);
    for s in &sources {
        f.push_u64(u64::from(s.0));
    }
    let records = store.records();
    if let Some(first) = records.first() {
        f.push_i64(first.client_ts.0);
    }
    if let Some(last) = records.last() {
        f.push_i64(last.client_ts.0);
    }
    f.finish()
}

struct KeySnapshot {
    l1: BTreeSet<EvidenceKey>,
    l3: BTreeSet<EvidenceKey>,
}

fn key_snapshot(cache: &EvidenceCache) -> KeySnapshot {
    KeySnapshot {
        l1: cache.l1.keys().copied().collect(),
        l3: cache.l3.keys().copied().collect(),
    }
}

/// Entries present now but absent from `before` — exactly what one
/// step inserted (content addressing: a key is never overwritten with
/// a different value, so key-set difference is the full delta).
fn delta_since(cache: &EvidenceCache, before: &KeySnapshot) -> SegmentPayload {
    SegmentPayload {
        l1: cache
            .l1
            .iter()
            .filter(|(k, _)| !before.l1.contains(k))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        l3: cache
            .l3
            .iter()
            .filter(|(k, _)| !before.l3.contains(k))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
    }
}

/// What a durable daily run reports back.
#[derive(Debug)]
pub struct DailyReport {
    /// Step the run resumed from (0 = started from the beginning).
    pub resumed_from: u64,
    /// Steps actually executed this invocation.
    pub steps_run: u64,
    /// The final window's full outcome (recomputed from cache hits
    /// when the run was already complete on open).
    pub final_outcome: WindowOutcome,
    /// Every recovery event of this run, in order.
    pub events: Vec<RecoveryEvent>,
    /// The store's health row (alongside the L1–L3 detectors).
    pub store_health: DetectorHealth,
    /// Cache entries held after the final step.
    pub cache_entries: usize,
    /// Cache entries restored at open (checkpoint + journal replay),
    /// before any step ran.
    pub loaded_entries: usize,
    /// Whether this run rewrote the checkpoint (false when a fully
    /// resumed run left the on-disk state untouched).
    pub checkpointed: bool,
}

/// Runs (or resumes) a whole daily advance crash-safely: open the
/// store, replay whatever survived, execute the remaining steps with
/// one journal append per completed step, and checkpoint atomically at
/// the end. `on_step` observes every executed step (for progress
/// output). With `resume` false, prior progress is discarded but the
/// warm cache is kept.
#[allow(
    clippy::too_many_arguments,
    reason = "the durable driver genuinely binds logs, plan, path, policy and callback in one call"
)]
pub fn run_daily_durable(
    logs: &LogStore,
    service_ids: &[String],
    cfg: &PipelineConfig,
    plan: &DailyPlan,
    cache_path: &Path,
    resume: bool,
    policy: &mut dyn WritePolicy,
    on_step: &mut dyn FnMut(u64, &WindowOutcome),
) -> Result<DailyReport, DurableError> {
    plan.validate()?;
    record(|r| {
        r.span_begin(
            "daily",
            &[
                ("steps", Field::from(plan.steps)),
                ("start_day", Field::from(plan.start_day)),
                ("window_days", Field::from(plan.window_days)),
                ("advance_days", Field::from(plan.advance_days)),
                ("resume", Field::from(resume)),
            ],
        );
    });
    let fp = plan_signature(logs, service_ids, cfg, plan);
    let mut store = DurableStore::open(cache_path, fp, policy)?;
    if !resume {
        store.discard_progress(policy)?;
    }
    store.append_ledger(policy)?;
    // Surface what opening the store observed (cold start, plan change,
    // corruption recovery, quarantine) as point events. The free-text
    // detail can carry filesystem paths, so only the stable code and
    // the corruption flag enter the deterministic trace.
    let events_seen = store.events().len();
    record(|r| {
        for e in store.events() {
            r.point(
                "durable.recovery",
                &[
                    ("code", Field::from(e.code.as_str())),
                    ("corruption", Field::from(e.corruption)),
                ],
            );
        }
    });
    let loaded_entries = store.cache().len();
    let resumed_from = store.completed();
    if resume {
        record(|r| {
            r.point(
                "durable.resume",
                &[("resumed_from", Field::from(resumed_from))],
            );
        });
    }
    let mut steps_run = 0u64;
    let mut final_outcome: Option<WindowOutcome> = None;
    let first = store.completed().saturating_add(1);
    for step in first..=plan.steps {
        let window = plan.window(step - 1);
        record(|r| {
            r.span_begin(
                "daily.step",
                &[
                    ("step", Field::from(step)),
                    ("start_ms", Field::from(window.start.0)),
                    ("end_ms", Field::from(window.end.0)),
                ],
            );
        });
        let before = key_snapshot(store.cache());
        let outcome = run_window_cached(logs, window, service_ids, cfg, store.cache_mut())?;
        let delta = delta_since(store.cache(), &before);
        let delta_entries = delta.len();
        store.append_step(step, window, delta, policy)?;
        steps_run += 1;
        record(|r| {
            r.counter_add("durable.steps", 1);
            r.span_end(
                "daily.step",
                &[
                    ("step", Field::from(step)),
                    ("journaled", Field::from(delta_entries)),
                ],
            );
        });
        on_step(step, &outcome);
        final_outcome = Some(outcome);
    }
    let final_outcome = match final_outcome {
        Some(o) => o,
        None => {
            // Fully resumed: recompute the last window for the report.
            // Every probe hits, so the cache (and checkpoint bytes)
            // are unchanged.
            let window = plan.window(plan.steps - 1);
            run_window_cached(logs, window, service_ids, cfg, store.cache_mut())?
        }
    };
    let checkpointed = store.dirty();
    if checkpointed {
        store.checkpoint(policy)?;
        record(|r| {
            r.counter_add("durable.checkpoints", 1);
            r.point(
                "durable.checkpoint",
                &[("entries", Field::from(store.cache().len()))],
            );
        });
    }
    store.append_ledger(policy)?;
    // Any event raised after open (none today, but the schema must not
    // silently drop future ones) plus the store's own health row.
    record(|r| {
        for e in store.events().iter().skip(events_seen) {
            r.point(
                "durable.recovery",
                &[
                    ("code", Field::from(e.code.as_str())),
                    ("corruption", Field::from(e.corruption)),
                ],
            );
        }
    });
    record_detector_health(&store.health());
    record(|r| {
        r.span_end(
            "daily",
            &[
                ("steps_run", Field::from(steps_run)),
                ("resumed_from", Field::from(resumed_from)),
                ("checkpointed", Field::from(checkpointed)),
            ],
        );
    });
    Ok(DailyReport {
        resumed_from,
        steps_run,
        final_outcome,
        events: store.events().to_vec(),
        store_health: store.health(),
        cache_entries: store.cache().len(),
        loaded_entries,
        checkpointed,
    })
}

/// Read-only integrity report over a store's on-disk files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreReport {
    /// Everything verification observed, corruption and otherwise.
    pub events: Vec<RecoveryEvent>,
    /// Entries the store restores: intact checkpoint segments plus the
    /// replayed journal records.
    pub cache_entries: usize,
    /// Last completed step, after journal replay.
    pub completed: u64,
    /// Journal records recovery keeps.
    pub journal_records: usize,
}

impl StoreReport {
    /// Whether no corruption was detected anywhere.
    pub fn clean(&self) -> bool {
        !self.events.iter().any(|e| e.corruption)
    }
}

/// Runs the recovery pass [`DurableStore::open_existing`] runs, but
/// writes nothing: returns the cache that open would restore and the
/// report of what it found. Safe to run against a live store; repair
/// is [`repair_store`]'s job.
pub fn open_read_only(path: &Path) -> Result<(EvidenceCache, StoreReport), DurableError> {
    let missing = event(
        "missing",
        false,
        format!("no checkpoint at {}", path.display()),
    );
    let (store, _) = recover_at(path, None, missing)?;
    let report = store.report();
    Ok((store.cache, report))
}

/// Verifies every checksum of the store at `path` without writing a
/// single byte — safe to run against a live store.
pub fn verify_store(path: &Path) -> Result<StoreReport, DurableError> {
    open_read_only(path).map(|(_, report)| report)
}

/// Repairs the store at `path` in place: quarantines damage, replays
/// the journal's intact prefix, and rewrites a clean checkpoint (with
/// an emptied journal) atomically. Intact state is preserved verbatim.
pub fn repair_store(path: &Path) -> Result<StoreReport, DurableError> {
    let mut policy = NoopPolicy;
    let mut store = DurableStore::open_existing(path, &mut policy)?;
    store.checkpoint(&mut policy)?;
    store.events.push(event(
        "repaired",
        false,
        format!(
            "checkpoint rewritten with {} entries at completed step {}",
            store.cache.len(),
            store.completed
        ),
    ));
    store.append_ledger(&mut policy)?;
    Ok(store.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_faults::crash::{corrupt_bytes, Corruption};
    use logdep_logstore::SourceId;
    use proptest::prelude::*;

    fn key(day: i64, fp: u64, digest: u64) -> EvidenceKey {
        EvidenceKey {
            fingerprint: fp,
            start: day * MS_PER_DAY,
            end: (day + 1) * MS_PER_DAY,
            digest,
        }
    }

    fn sample_cache() -> EvidenceCache {
        let mut c = EvidenceCache::new();
        c.l1.insert(key(0, 1, 11), vec![(3, 4, true), (0, 2, false)]);
        c.l1.insert(key(1, 1, 12), vec![(1, 1, true)]);
        let mut l3 = L3DayCounts::default();
        l3.citations.insert((SourceId(2), 0), 7);
        l3.scanned = 40;
        l3.stopped = 2;
        c.l3.insert(key(2, 3, 31), l3);
        c
    }

    fn caches_equal(a: &EvidenceCache, b: &EvidenceCache) -> bool {
        a.l1 == b.l1 && a.l3 == b.l3
    }

    /// A store path in a fresh scratch dir with no leftover siblings.
    fn fresh_store_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("logdep-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        for suffix in [
            "",
            ".journal",
            ".ledger",
            ".quarantine",
            ".tmp",
            ".journal.tmp",
        ] {
            match std::fs::remove_file(sibling(&path, suffix)) {
                Ok(()) | Err(_) => {}
            }
        }
        path
    }

    #[test]
    fn checkpoint_roundtrip_is_byte_stable() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 4, 99).expect("encode");
        let d = decode_checkpoint(&bytes);
        assert!(d.header_ok && d.version_ok && d.intact, "{:?}", d.events);
        assert!(d.events.is_empty());
        assert_eq!(d.completed, 4);
        assert_eq!(d.plan_fp, 99);
        assert_eq!(d.restored, cache.len());
        assert!(caches_equal(&d.cache, &cache));
        let again = encode_checkpoint(&d.cache, d.completed, d.plan_fp).expect("re-encode");
        assert_eq!(again, bytes, "checkpoint encoding is not a pure function");
    }

    #[test]
    fn empty_checkpoint_roundtrips() {
        let bytes = encode_checkpoint(&EvidenceCache::new(), 0, 7).expect("encode");
        let d = decode_checkpoint(&bytes);
        assert!(d.intact && d.events.is_empty());
        assert_eq!(d.restored, 0);
    }

    #[test]
    fn header_damage_discards_the_checkpoint() {
        let mut bytes = encode_checkpoint(&sample_cache(), 2, 5).expect("encode");
        bytes[3] ^= 0x10; // inside the magic
        let d = decode_checkpoint(&bytes);
        assert!(!d.header_ok && !d.intact);
        assert!(d
            .events
            .iter()
            .any(|e| e.code == "checkpoint-header-corrupt"));
        assert_eq!(d.restored, 0);
        assert_eq!(d.quarantined.len(), 1);
        assert_eq!(d.quarantined[0], bytes);
    }

    #[test]
    fn segment_damage_resyncs_and_restores_the_rest() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 2, 5).expect("encode");
        let header_end = find_byte(&bytes, 0, b'\n').expect("header");
        // Damage the first segment's header line; later segments must
        // still be found via the resync marker.
        let mut damaged = bytes.clone();
        damaged[header_end + 2] ^= 0x01;
        let d = decode_checkpoint(&damaged);
        assert!(!d.intact);
        assert!(d.events.iter().any(|e| e.code == "segment-corrupt"));
        assert!(d.restored > 0, "resync recovered nothing");
        assert!(d.restored < cache.len(), "damage restored everything?");
        for (k, v) in &d.cache.l1 {
            assert_eq!(cache.l1.get(k), Some(v));
        }
        assert!(!d.quarantined.is_empty());
    }

    #[test]
    fn truncation_at_exact_segment_boundary_is_detected() {
        let bytes = encode_checkpoint(&sample_cache(), 2, 5).expect("encode");
        // Cut the entire last segment (a "clean" truncation no payload
        // checksum can see — the header's segment count catches it).
        let last_seg = {
            let mut at = 0;
            let mut last = None;
            while let Some(i) = find_resync(&bytes, at) {
                last = Some(i + 1);
                at = i + 1;
            }
            last.expect("no segment markers")
        };
        let d = decode_checkpoint(&bytes[..last_seg]);
        assert!(!d.intact);
        assert!(d.events.iter().any(|e| e.code == "checkpoint-truncated"));
    }

    #[test]
    fn version_mismatch_is_a_cold_start_not_corruption() {
        let cache = sample_cache();
        let bytes = encode_checkpoint(&cache, 2, 5).expect("encode");
        let header_end = find_byte(&bytes, 0, b'\n').expect("header");
        // Re-stamp the header with the version before L2 left the cache
        // and with a future version (and a matching checksum, as that
        // writer would).
        for version in [1, EvidenceCache::VERSION + 1] {
            let n = 3u64;
            let hfnv = header_fnv(version, n, 2, 5);
            let mut restamped = format!("{MAGIC} {version} {n} 2 5 {hfnv}\n").into_bytes();
            restamped.extend_from_slice(&bytes[header_end + 1..]);
            let d = decode_checkpoint(&restamped);
            assert!(d.header_ok && !d.version_ok, "v{version}");
            assert!(d
                .events
                .iter()
                .any(|e| e.code == "version-mismatch" && !e.corruption));
            assert_eq!(d.restored, 0);
        }
    }

    fn sample_journal_records() -> Vec<(u64, u64, JournalPayload)> {
        (1..=3u64)
            .map(|step| {
                let mut delta = SegmentPayload::default();
                delta
                    .l1
                    .push((key(step as i64, 1, step), vec![(step as u32, 0, true)]));
                (
                    step,
                    77u64,
                    JournalPayload {
                        window_start: 0,
                        window_end: 10 * MS_PER_DAY,
                        delta,
                    },
                )
            })
            .collect()
    }

    fn encode_records(records: &[(u64, u64, JournalPayload)]) -> Vec<u8> {
        let mut out = Vec::new();
        for (step, fp, payload) in records {
            out.extend_from_slice(&encode_journal_record(*step, *fp, payload).expect("encode"));
        }
        out
    }

    #[test]
    fn journal_roundtrips_and_tears_to_a_prefix() {
        let records = sample_journal_records();
        let bytes = encode_records(&records);
        let dj = decode_journal(&bytes);
        assert!(!dj.torn);
        assert_eq!(dj.records, records);
        assert_eq!(dj.clean_len, bytes.len());

        let cut = bytes.len() - 3;
        let dj = decode_journal(&bytes[..cut]);
        assert!(dj.torn);
        assert_eq!(dj.records, records[..2]);
        assert_eq!(&bytes[..dj.clean_len], &encode_records(&records[..2])[..]);
    }

    #[test]
    fn store_replays_journal_after_a_crash_without_checkpoint() {
        let path = fresh_store_path("replay.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        assert!(store.events().iter().any(|e| e.code == "cold-start"));
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        for (step, _fp, payload) in sample_journal_records() {
            for (k, v) in &payload.delta.l1 {
                store.cache_mut().l1.insert(*k, v.clone());
            }
            store
                .append_step(step, window, payload.delta, &mut policy)
                .expect("append");
        }
        let live_cache = store.cache().clone();
        drop(store); // simulated kill: no checkpoint ever written

        let reopened = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(reopened.completed(), 3);
        assert!(caches_equal(reopened.cache(), &live_cache));
        assert!(reopened
            .events()
            .iter()
            .any(|e| e.code == "journal-replayed"));
        assert!(reopened.dirty());
    }

    #[test]
    fn checkpointed_store_reopens_clean_and_byte_identical() {
        let path = fresh_store_path("clean.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");
        let on_disk = std::fs::read(&path).expect("read");

        let mut reopened = DurableStore::open(&path, 42, &mut policy).expect("reopen");
        assert!(reopened.events().is_empty(), "{:?}", reopened.events());
        assert!(!reopened.dirty());
        assert_eq!(reopened.completed(), 5);
        assert!(caches_equal(reopened.cache(), &sample_cache()));
        reopened.checkpoint(&mut policy).expect("re-checkpoint");
        assert_eq!(std::fs::read(&path).expect("read"), on_disk);
    }

    #[test]
    fn plan_change_keeps_the_warm_cache_but_restarts_progress() {
        let path = fresh_store_path("plan.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");

        let reopened = DurableStore::open(&path, 43, &mut policy).expect("reopen");
        assert_eq!(reopened.completed(), 0);
        assert_eq!(reopened.cache().len(), sample_cache().len());
        assert!(reopened
            .events()
            .iter()
            .any(|e| e.code == "plan-changed" && !e.corruption));
        assert!(reopened.dirty());
    }

    #[test]
    fn discard_progress_resets_counter_and_journal() {
        let path = fresh_store_path("discard.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        store
            .append_step(1, window, SegmentPayload::default(), &mut policy)
            .expect("append");
        drop(store);
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(store.completed(), 1);
        store.discard_progress(&mut policy).expect("discard");
        assert_eq!(store.completed(), 0);
        drop(store);
        let store = DurableStore::open(&path, 77, &mut policy).expect("reopen2");
        assert_eq!(store.completed(), 0, "discarded journal replayed");
    }

    #[test]
    fn verify_then_repair_heals_a_bit_flipped_checkpoint() {
        let path = fresh_store_path("repair.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 42, &mut policy).expect("open");
        *store.cache_mut() = sample_cache();
        store.completed = 5;
        store.checkpoint(&mut policy).expect("checkpoint");
        assert!(verify_store(&path).expect("verify").clean());

        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&path, &bytes).expect("damage"); // lint:allow(non-atomic-persist) — deliberately simulating torn storage in a test

        let report = verify_store(&path).expect("verify damaged");
        assert!(!report.clean());
        let repaired = repair_store(&path).expect("repair");
        assert!(repaired.cache_entries <= sample_cache().len());
        let after = verify_store(&path).expect("verify repaired");
        assert!(after.clean(), "{:?}", after.events);
        assert!(std::fs::metadata(sibling(&path, ".quarantine")).is_ok());
        assert!(std::fs::metadata(sibling(&path, ".ledger")).is_ok());
    }

    #[test]
    fn daily_plan_windows_and_validation() {
        let plan = DailyPlan {
            start_day: 3,
            window_days: 7,
            advance_days: 1,
            steps: 4,
        };
        assert!(plan.validate().is_ok());
        assert_eq!(
            plan.window(0),
            TimeRange::new(Millis::from_days(3), Millis::from_days(10))
        );
        assert_eq!(
            plan.window(3),
            TimeRange::new(Millis::from_days(6), Millis::from_days(13))
        );
        assert_eq!(plan.day(3), 6);
        assert!(DailyPlan {
            window_days: 0,
            ..plan
        }
        .validate()
        .is_err());
        assert!(DailyPlan {
            advance_days: 0,
            ..plan
        }
        .validate()
        .is_err());
        assert!(DailyPlan { steps: 0, ..plan }.validate().is_err());
    }

    #[test]
    fn daily_plan_rejects_windows_off_the_millisecond_clock() {
        let last_day = i64::MAX / MS_PER_DAY;
        let plan = DailyPlan {
            start_day: last_day - 1,
            window_days: 1,
            advance_days: 1,
            steps: 1,
        };
        assert!(plan.validate().is_ok());
        let rejected = |plan: DailyPlan| match plan.validate() {
            Err(MineError::InvalidConfig { name, .. }) => Some(name),
            _ => None,
        };
        let past_end = DailyPlan {
            start_day: last_day,
            ..plan
        };
        assert_eq!(rejected(past_end), Some("start_day"));
        let far = DailyPlan {
            start_day: 200_000_000_000,
            ..plan
        };
        assert_eq!(rejected(far), Some("start_day"));
        let before_start = DailyPlan {
            start_day: i64::MIN / MS_PER_DAY - 1,
            ..plan
        };
        assert_eq!(rejected(before_start), Some("start_day"));
        assert_eq!(rejected(DailyPlan { steps: 2, ..plan }), Some("steps"));
        let long = DailyPlan {
            start_day: 0,
            steps: u64::MAX,
            ..plan
        };
        assert_eq!(rejected(long), Some("steps"));
        // Windows of a rejected plan saturate instead of panicking.
        for plan in [past_end, far, long] {
            let w = plan.window(plan.steps - 1);
            assert!(w.start <= w.end);
        }
    }

    /// Bytes the encoder wrote before segments and journal records
    /// shared one frame codec; stores written then must still read.
    #[test]
    fn on_disk_format_is_pinned() {
        const CHECKPOINT: &str = "LOGDEP-DUR v1 2 2 4 99 15791453702200639125\n\
SEG 0 98 10628446594321542568\n\
{\"l1\":[[{\"fingerprint\":1,\"start\":0,\"end\":86400000,\"digest\":11},[[3,4,true],[0,2,false]]]],\"l3\":[]}\n\
SEG 1 132 7592530801087863390\n\
{\"l1\":[],\"l3\":[[{\"fingerprint\":3,\"start\":86400000,\"end\":172800000,\"digest\":31},{\"citations\":[[[2,0],7]],\"scanned\":40,\"stopped\":2}]]}\n";
        const JOURNAL: &str = "J 5 99 152 1899423736526837577\n\
{\"window_start\":86400000,\"window_end\":259200000,\"delta\":{\"l1\":[[{\"fingerprint\":1,\"start\":172800000,\"end\":259200000,\"digest\":12},[[1,1,true]]]],\"l3\":[]}}\n";
        // A record journaled while L2 still had cache entries carries an
        // `"l2"` list; it replays with that list ignored.
        const JOURNAL_WITH_L2: &str = "J 5 99 160 12527053497270730231\n\
{\"window_start\":86400000,\"window_end\":259200000,\"delta\":{\"l1\":[[{\"fingerprint\":1,\"start\":172800000,\"end\":259200000,\"digest\":12},[[1,1,true]]]],\"l2\":[],\"l3\":[]}}\n";

        let mut cache = sample_cache();
        cache.l1.remove(&key(1, 1, 12));
        let l3 = cache.l3.pop_first().expect("sample l3 entry").1;
        cache.l3.insert(key(1, 3, 31), l3);
        let bytes = encode_checkpoint(&cache, 4, 99).expect("encode");
        assert_eq!(String::from_utf8_lossy(&bytes), CHECKPOINT);
        let d = decode_checkpoint(CHECKPOINT.as_bytes());
        assert!(d.intact && d.events.is_empty(), "{:?}", d.events);
        assert!(caches_equal(&d.cache, &cache));

        let mut delta = SegmentPayload::default();
        delta.l1.push((key(2, 1, 12), vec![(1, 1, true)]));
        let payload = JournalPayload {
            window_start: MS_PER_DAY,
            window_end: 3 * MS_PER_DAY,
            delta,
        };
        let record = encode_journal_record(5, 99, &payload).expect("encode");
        assert_eq!(String::from_utf8_lossy(&record), JOURNAL);
        for journal in [JOURNAL, JOURNAL_WITH_L2] {
            let dj = decode_journal(journal.as_bytes());
            assert!(!dj.torn);
            assert_eq!(dj.records, vec![(5, 99, payload.clone())]);
        }
    }

    #[test]
    fn streamed_json_equals_the_whole_value_encoding() {
        let cache = sample_cache();
        let full = SegmentPayload {
            l1: cache.l1.iter().map(|(k, v)| (*k, v.clone())).collect(),
            l3: cache.l3.iter().map(|(k, v)| (*k, v.clone())).collect(),
        };
        for delta in [SegmentPayload::default(), full] {
            let mut json = String::new();
            delta.write_json(&mut json).expect("encode");
            assert_eq!(json, serde_json::to_string(&delta).expect("to_string"));
            let payload = JournalPayload {
                window_start: -MS_PER_DAY,
                window_end: 2 * MS_PER_DAY,
                delta,
            };
            let record = encode_journal_record(3, 7, &payload).expect("encode");
            let whole = serde_json::to_string(&payload).expect("to_string");
            assert!(String::from_utf8_lossy(&record).ends_with(&format!("{whole}\n")));
            assert_eq!(decode_journal(&record).records, vec![(3, 7, payload)]);
        }
    }

    #[test]
    fn verify_reports_the_state_after_replay_and_writes_nothing() {
        let path = fresh_store_path("verify-replay.ck");
        let mut policy = NoopPolicy;
        let mut store = DurableStore::open(&path, 77, &mut policy).expect("open");
        store.checkpoint(&mut policy).expect("checkpoint");
        let window = TimeRange::new(Millis(0), Millis(10 * MS_PER_DAY));
        for (step, _fp, payload) in sample_journal_records() {
            payload.delta.clone().apply_to(store.cache_mut());
            store
                .append_step(step, window, payload.delta, &mut policy)
                .expect("append");
        }
        // A record of another plan, then a torn tail.
        let kept = std::fs::read(sibling(&path, ".journal")).expect("journal");
        let mut journal = kept.clone();
        let stale = &sample_journal_records()[0].2;
        journal.extend_from_slice(&encode_journal_record(4, 78, stale).expect("encode"));
        journal.extend_from_slice(b"J 5 77 9");
        std::fs::write(sibling(&path, ".journal"), &journal).expect("tear"); // lint:allow(non-atomic-persist) — deliberately simulating a torn append in a test

        let (cache, report) = open_read_only(&path).expect("read only");
        assert!(caches_equal(&cache, store.cache()));
        assert_eq!(report.cache_entries, store.cache().len());
        assert_eq!(report.completed, 3);
        assert_eq!(report.journal_records, 3);
        let codes: Vec<&str> = report.events.iter().map(|e| e.code.as_str()).collect();
        assert_eq!(
            codes,
            ["journal-torn", "journal-stale-plan", "journal-replayed"]
        );
        assert!(!report.clean());
        assert_eq!(
            std::fs::read(sibling(&path, ".journal")).expect("journal"),
            journal
        );
        assert!(std::fs::metadata(sibling(&path, ".quarantine")).is_err());

        // Opening for writing takes the same decisions, then acts on them.
        let reopened = DurableStore::open(&path, 77, &mut policy).expect("reopen");
        assert_eq!(reopened.events(), &report.events[..]);
        assert!(caches_equal(reopened.cache(), &cache));
        assert_eq!(
            std::fs::read(sibling(&path, ".journal")).expect("journal"),
            kept
        );
        assert!(std::fs::metadata(sibling(&path, ".quarantine")).is_ok());
    }

    fn cache_from(entries: &[(u64, i64, u64)]) -> EvidenceCache {
        let mut c = EvidenceCache::new();
        for &(fp, day, digest) in entries {
            match fp % 2 {
                0 => {
                    c.l1.insert(
                        key(day, fp, digest),
                        vec![(fp as u32, digest as u32, day % 2 == 0)],
                    );
                }
                _ => {
                    let mut l3 = L3DayCounts::default();
                    l3.citations
                        .insert((SourceId(fp as u32 % 7), digest as usize % 5), fp);
                    l3.scanned = digest;
                    c.l3.insert(key(day, fp, digest), l3);
                }
            }
        }
        c
    }

    proptest! {
        #[test]
        fn intact_checkpoints_roundtrip_exactly(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 0..12),
            completed in 0u64..30,
            plan_fp in any::<u64>(),
        ) {
            let cache = cache_from(&entries);
            let bytes = encode_checkpoint(&cache, completed, plan_fp).expect("encode");
            let d = decode_checkpoint(&bytes);
            prop_assert!(d.intact && d.header_ok && d.version_ok, "{:?}", d.events);
            prop_assert_eq!(d.completed, completed);
            prop_assert_eq!(d.plan_fp, plan_fp);
            prop_assert!(caches_equal(&d.cache, &cache));
            let again = encode_checkpoint(&d.cache, d.completed, d.plan_fp).expect("re-encode");
            prop_assert_eq!(again, bytes);
        }

        #[test]
        fn corrupted_checkpoints_are_detected_and_never_misdecoded(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 0..10),
            completed in 0u64..30,
            plan_fp in any::<u64>(),
            mode in 0usize..3,
            seed in any::<u64>(),
        ) {
            let cache = cache_from(&entries);
            let bytes = encode_checkpoint(&cache, completed, plan_fp).expect("encode");
            let kind = Corruption::ALL[mode];
            let corrupted = corrupt_bytes(&bytes, kind, seed);
            prop_assert!(corrupted != bytes, "injector returned the input");
            let d = decode_checkpoint(&corrupted);
            // Every corruption is detected...
            prop_assert!(!d.intact, "{kind} (seed {seed}) went undetected");
            prop_assert!(
                d.events.iter().any(|e| e.corruption),
                "{kind} (seed {seed}) raised no corruption event"
            );
            // ...and nothing is ever mis-decoded: whatever was restored
            // is a verbatim subset of the truth.
            for (k, v) in &d.cache.l1 {
                prop_assert_eq!(cache.l1.get(k), Some(v));
            }
            for (k, v) in &d.cache.l3 {
                prop_assert_eq!(cache.l3.get(k), Some(v));
            }
        }

        #[test]
        fn corrupted_journals_decode_to_an_exact_record_prefix(
            entries in prop::collection::vec((any::<u64>(), 0i64..6i64, any::<u64>()), 1..8),
            plan_fp in any::<u64>(),
            mode in 0usize..3,
            seed in any::<u64>(),
        ) {
            let records: Vec<(u64, u64, JournalPayload)> = entries
                .chunks(2)
                .enumerate()
                .map(|(i, chunk)| {
                    (
                        i as u64 + 1,
                        plan_fp,
                        JournalPayload {
                            window_start: 0,
                            window_end: 10 * MS_PER_DAY,
                            delta: SegmentPayload {
                                l1: cache_from(chunk).l1.into_iter().collect(),
                                l3: cache_from(chunk).l3.into_iter().collect(),
                            },
                        },
                    )
                })
                .collect();
            let bytes = encode_records(&records);
            let kind = Corruption::ALL[mode];
            let corrupted = corrupt_bytes(&bytes, kind, seed);
            let dj = decode_journal(&corrupted);
            // An append-only log damaged anywhere decodes to an exact
            // prefix of what was appended — never reordered, invented,
            // or silently altered records.
            prop_assert!(dj.records.len() <= records.len());
            prop_assert_eq!(&dj.records[..], &records[..dj.records.len()]);
            prop_assert_eq!(
                corrupted.get(..dj.clean_len),
                bytes.get(..dj.clean_len),
                "clean prefix bytes diverge from the original log"
            );
        }
    }
}
