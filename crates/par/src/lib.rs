//! # logdep-par — the deterministic scoped worker pool
//!
//! The paper's pipeline is embarrassingly parallel: L1 runs an
//! independent median-CI test per (pair, hour-slot), L2 one G² test per
//! ordered source pair over independently countable sessions, and L3
//! scans each log line in isolation. This crate is the *only* place the
//! workspace is allowed to spawn threads (enforced by the
//! `raw-thread-spawn` deny rule of `cargo xtask lint`), and it makes one
//! promise the detectors' differential test harness holds it to:
//!
//! > **For every primitive here, the result is bit-identical to the
//! > serial loop, at every thread count.**
//!
//! That works because the primitives never race on *data* — they race
//! only on *which worker computes which chunk*, and chunk results are
//! reassembled in chunk order before anything order-sensitive happens:
//!
//! - [`par_map`] preserves input order and length exactly;
//! - [`par_chunks_fold`] folds contiguous shards and merges the shard
//!   accumulators left-to-right in shard order (deterministic as long
//!   as the caller's `merge` is associative with `init()` as identity);
//! - `threads = 1` (see [`ParConfig::serial`]) short-circuits to
//!   literally the sequential loop — no threads, no chunking.
//!
//! The pool is hand-rolled over [`std::thread::scope`] because the
//! workspace vendors all dependencies offline (no rayon/crossbeam).
//! Worker panics are captured per task and re-raised on the calling
//! thread with the *original* payload once every worker has parked —
//! a panicking task poisons the scope, it never deadlocks it.
//!
//! Thread count resolution order: an explicit [`ParConfig`] wins, then
//! the `LOGDEP_THREADS` environment variable, then the host's available
//! parallelism (capped at [`MAX_AUTO_THREADS`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const LOGDEP_THREADS_ENV: &str = "LOGDEP_THREADS";

/// Upper bound on the *auto-detected* thread count. An explicit
/// [`ParConfig::with_threads`] or `LOGDEP_THREADS` value may exceed it.
pub const MAX_AUTO_THREADS: usize = 8;

/// Target number of chunks handed to each worker, so stragglers can
/// steal work without the merge order ever depending on timing.
const CHUNKS_PER_WORKER: usize = 4;

/// Errors from pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A thread count of zero was requested.
    ZeroThreads,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::ZeroThreads => {
                write!(f, "thread count must be >= 1 (use 1 for the serial path)")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Worker-count configuration for the pool primitives.
///
/// The field is private so the `threads >= 1` invariant holds by
/// construction: [`ParConfig::with_threads`] rejects zero with
/// [`ParError::ZeroThreads`] instead of ever panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl ParConfig {
    /// The serial configuration: every primitive runs the plain
    /// sequential loop on the calling thread.
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// An explicit worker count. Zero is rejected as an error.
    pub fn with_threads(threads: usize) -> Result<Self, ParError> {
        if threads == 0 {
            return Err(ParError::ZeroThreads);
        }
        Ok(Self { threads })
    }

    /// The configured worker count (always >= 1).
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Whether this configuration takes the strictly-sequential path.
    pub fn is_serial(self) -> bool {
        self.threads == 1
    }

    /// Resolves the worker count from `LOGDEP_THREADS`, falling back to
    /// [`ParConfig::hardware`] when the variable is unset, unparsable,
    /// or zero (an env override cannot error, so it degrades instead).
    pub fn from_env() -> Self {
        match std::env::var(LOGDEP_THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Self { threads: n },
                _ => Self::hardware(),
            },
            Err(_) => Self::hardware(),
        }
    }

    /// The host's available parallelism, capped at [`MAX_AUTO_THREADS`].
    pub fn hardware() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            threads: n.clamp(1, MAX_AUTO_THREADS),
        }
    }
}

impl Default for ParConfig {
    /// [`ParConfig::from_env`]: the `LOGDEP_THREADS` override, else the
    /// capped hardware parallelism.
    fn default() -> Self {
        Self::from_env()
    }
}

/// Structured concurrency entry point: a thin re-export of
/// [`std::thread::scope`], so callers outside `crates/par` never touch
/// `std::thread` directly (the `raw-thread-spawn` lint denies it).
/// Threads spawned on the scope are joined before `scope` returns, and
/// a panicking scoped thread propagates its payload to the caller.
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope std::thread::Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

/// Chunk length giving each worker ~[`CHUNKS_PER_WORKER`] chunks.
fn chunk_len(n: usize, threads: usize) -> usize {
    let target_chunks = threads.saturating_mul(CHUNKS_PER_WORKER).max(1);
    n.div_ceil(target_chunks).max(1)
}

/// How one worker thread ended.
enum WorkerEnd<R> {
    /// Chunk results this worker computed, tagged with chunk indices.
    Done(Vec<(usize, R)>),
    /// The worker's current task panicked; the payload is preserved.
    Panicked(Box<dyn Any + Send>),
}

/// Runs `f` over every chunk on `threads` workers and returns the
/// results **in chunk order**, independent of scheduling. Chunks are
/// claimed dynamically (an atomic cursor), so stragglers balance load,
/// but results are reassembled by chunk index before returning.
///
/// If any invocation of `f` panics, the panic is captured, the
/// remaining workers drain (they stop claiming new chunks), and the
/// original payload is re-raised on the calling thread.
fn run_chunks<T, R, F>(threads: usize, chunks: &[&[T]], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);

    let outcome: Result<Vec<R>, Box<dyn Any + Send>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Acquire) {
                            break;
                        }
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slice) = chunks.get(c) else { break };
                        match catch_unwind(AssertUnwindSafe(|| f(slice))) {
                            Ok(r) => local.push((c, r)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Release);
                                return WorkerEnd::Panicked(payload);
                            }
                        }
                    }
                    WorkerEnd::Done(local)
                })
            })
            .collect();

        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(chunks.len());
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for w in workers {
            match w.join() {
                Ok(WorkerEnd::Done(local)) => tagged.extend(local),
                Ok(WorkerEnd::Panicked(p)) | Err(p) => {
                    if first_panic.is_none() {
                        first_panic = Some(p);
                    }
                }
            }
        }
        match first_panic {
            Some(p) => Err(p),
            None => {
                tagged.sort_unstable_by_key(|&(c, _)| c);
                Ok(tagged.into_iter().map(|(_, r)| r).collect())
            }
        }
    });

    match outcome {
        Ok(results) => results,
        Err(payload) => resume_unwind(payload),
    }
}

/// Order-preserving parallel map: returns `f` applied to every item,
/// in input order, with `out.len() == items.len()`.
///
/// With `cfg.threads() == 1` (or fewer than two items) this *is* the
/// sequential `items.iter().map(f).collect()` — no threads are spawned.
/// Otherwise items are split into contiguous chunks, mapped on the
/// pool, and reassembled in chunk order, so the output is bit-identical
/// to the serial path for any thread count.
pub fn par_map<T, O, F>(cfg: &ParConfig, items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    if cfg.is_serial() || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let threads = cfg.threads().min(items.len());
    let chunks: Vec<&[T]> = items.chunks(chunk_len(items.len(), threads)).collect();
    let per_chunk = run_chunks(threads, &chunks, &|slice: &[T]| {
        slice.iter().map(&f).collect::<Vec<O>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for v in per_chunk {
        out.extend(v);
    }
    out
}

/// Sharded fold with a deterministic ordered merge: contiguous shards
/// of `items` are folded independently (each from a fresh `init()`),
/// then the shard accumulators are merged **left-to-right in shard
/// order** into a final `init()` accumulator.
///
/// With `cfg.threads() == 1` this is literally the sequential
/// `items.iter().fold(init(), fold)`.
///
/// For the parallel result to equal the serial fold at every thread
/// count, the caller's operations must satisfy:
/// - `merge` is associative, and
/// - `merge(init(), a) == a` (`init()` is a merge identity), and
/// - folding a concatenation equals merging the folds
///   (`fold` distributes over `merge`, as counting/summing does).
///
/// Counting accumulators (maps of saturating counters, sums, extrema)
/// satisfy all three; that is exactly the shape L2's bigram sharding
/// and L3's citation scan use.
pub fn par_chunks_fold<T, A, FI, FF, FM>(
    cfg: &ParConfig,
    items: &[T],
    init: FI,
    fold: FF,
    merge: FM,
) -> A
where
    T: Sync,
    A: Send,
    FI: Fn() -> A + Sync,
    FF: Fn(A, &T) -> A + Sync,
    FM: FnMut(A, A) -> A,
{
    if cfg.is_serial() || items.len() <= 1 {
        return items.iter().fold(init(), &fold);
    }
    let threads = cfg.threads().min(items.len());
    let chunks: Vec<&[T]> = items.chunks(chunk_len(items.len(), threads)).collect();
    let shard_accs = run_chunks(threads, &chunks, &|slice: &[T]| {
        slice.iter().fold(init(), &fold)
    });
    shard_accs.into_iter().fold(init(), merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_rejects_zero_with_error() {
        assert_eq!(ParConfig::with_threads(0), Err(ParError::ZeroThreads));
        assert!(ParError::ZeroThreads.to_string().contains(">= 1"));
        let ok = ParConfig::with_threads(3).expect("3 threads is valid");
        assert_eq!(ok.threads(), 3);
        assert!(!ok.is_serial());
        assert!(ParConfig::serial().is_serial());
    }

    #[test]
    fn hardware_config_is_sane() {
        let hw = ParConfig::hardware();
        assert!(hw.threads() >= 1 && hw.threads() <= MAX_AUTO_THREADS);
    }

    #[test]
    fn par_map_matches_serial_across_thread_counts() {
        let items: Vec<i64> = (0..257).map(|i| i * 31 % 97 - 40).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * x - 7).collect();
        for threads in [1usize, 2, 3, 5, 8, 64] {
            let cfg = ParConfig::with_threads(threads).expect("nonzero");
            let par = par_map(&cfg, &items, |x| x * x - 7);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let cfg = ParConfig::with_threads(4).expect("nonzero");
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&cfg, &empty, |x| *x).is_empty());
        assert_eq!(par_map(&cfg, &[9u8], |x| *x + 1), vec![10]);
    }

    #[test]
    fn par_chunks_fold_matches_serial_sum() {
        let items: Vec<u64> = (0..1000).map(|i| i * 7 % 1009).collect();
        let serial: u64 = items.iter().sum();
        for threads in [1usize, 2, 4, 7, 16] {
            let cfg = ParConfig::with_threads(threads).expect("nonzero");
            let par = par_chunks_fold(
                &cfg,
                &items,
                || 0u64,
                |acc, x| acc.saturating_add(*x),
                |a, b| a.saturating_add(b),
            );
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn panicking_task_poisons_scope_with_original_payload() {
        let items: Vec<u32> = (0..100).collect();
        let cfg = ParConfig::with_threads(4).expect("nonzero");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&cfg, &items, |&x| {
                if x == 41 {
                    panic!("original payload 41");
                }
                x
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert_eq!(msg, "original payload 41");
    }

    #[test]
    fn panic_on_serial_path_also_propagates() {
        let items = [1u8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(&ParConfig::serial(), &items, |_| -> u8 {
                panic!("serial boom")
            })
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn scope_wrapper_joins_and_returns() {
        let sum = scope(|s| {
            let a = s.spawn(|| 20);
            let b = s.spawn(|| 22);
            a.join().unwrap_or(0) + b.join().unwrap_or(0)
        });
        assert_eq!(sum, 42);
    }

    #[test]
    fn from_env_prefers_valid_override() {
        // Can't mutate the process env safely in a threaded test binary;
        // just pin down the fallback contract.
        let cfg = ParConfig::from_env();
        assert!(cfg.threads() >= 1);
    }
}
