//! The mining workloads.
//!
//! `nightly` is the cron deployment: a primed durable store advanced one
//! night at a time, each night a fresh `logdep daily` process that
//! ingests the export, opens and checkpoints the store, and mines with a
//! warm evidence cache. `cold_mine` mines every window on an empty store,
//! so the cache is bypassed and ingest, the L1 miss path and the L3 scan
//! carry the time.

use crate::serving;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{
    directory_ids, fresh_dir, ingest, pipeline_config, Env, Inputs, Metric, Outcome, RssWatch,
    Tally, SETUPS, WINDOW_DAYS,
};
use logdep::durable::{
    persist_atomic, run_daily_durable, verify_store, DailyPlan, DurableOp, DurableStore,
    NoopPolicy, WriteDecision, WritePolicy,
};
use logdep::window::{run_l2_windowed_cached, run_l3_windowed_cached, run_window_cached};
use logdep::{run_l1_cached, EvidenceCache, WindowOutcome};
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, Millis};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Window start days the workloads mine: every 7-day window of the
/// 14-day export.
const START_DAYS: std::ops::RangeInclusive<i64> = 0..=7;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Nightly,
    Cold,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Nightly => "nightly",
            Mode::Cold => "cold_mine",
        }
    }

    /// What one measured operation is.
    fn op(self) -> &'static str {
        match self {
            Mode::Nightly => "one night's `logdep daily` process, warm store",
            Mode::Cold => "one `logdep daily` window on an empty store",
        }
    }
}

/// One window's summary line as `logdep daily` prints it:
/// `window days a..b: L1 x pairs, L2 y pairs, L3 z deps (cache: h hits, m misses)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    pub start: i64,
    pub end: i64,
    pub l1: usize,
    pub l2: usize,
    pub l3: usize,
    pub hits: u64,
    pub misses: u64,
}

impl Summary {
    fn of(start: i64, o: &WindowOutcome) -> Self {
        Self {
            start,
            end: start + WINDOW_DAYS,
            l1: o.l1.as_ref().map_or(0, |r| r.detected.len()),
            l2: o.l2.as_ref().map_or(0, |r| r.detected.len()),
            l3: o.l3.as_ref().map_or(0, |r| r.detected.len()),
            hits: o.stats.hits(),
            misses: o.stats.misses(),
        }
    }

    /// The same window mined on an empty store: every probe misses.
    fn cold(self) -> Self {
        Self {
            hits: 0,
            misses: self.hits + self.misses,
            ..self
        }
    }
}

/// Parses the CLI's per-window summary line.
pub fn parse_summary(line: &str) -> Option<Summary> {
    let rest = line.trim().strip_prefix("window days ")?;
    let (range, rest) = rest.split_once(": L1 ")?;
    let (start, end) = range.split_once("..")?;
    let (l1, rest) = rest.split_once(" pairs, L2 ")?;
    let (l2, rest) = rest.split_once(" pairs, L3 ")?;
    let (l3, rest) = rest.split_once(" deps (cache: ")?;
    let (hits, rest) = rest.split_once(" hits, ")?;
    let misses = rest.strip_suffix(" misses)")?;
    Some(Summary {
        start: start.parse().ok()?,
        end: end.parse().ok()?,
        l1: l1.parse().ok()?,
        l2: l2.parse().ok()?,
        l3: l3.parse().ok()?,
        hits: hits.parse().ok()?,
        misses: misses.parse().ok()?,
    })
}

fn window_at(start_day: i64) -> TimeRange {
    TimeRange::new(
        Millis::from_days(start_day),
        Millis::from_days(start_day + WINDOW_DAYS),
    )
}

/// The in-process reference: one rolling `run_window_cached` pass over
/// every start day, on the export exactly as the CLI ingests it. A
/// rolling pass is byte-identical to a fresh cache per window (the
/// `cache_equivalence` suite), and its hit/miss counts are those of a
/// store advanced one night at a time.
fn reference(env: &Env, inputs: &Inputs) -> Result<BTreeMap<i64, Summary>, String> {
    let store = ingest(&inputs.logs)?;
    let ids = directory_ids(&inputs.directory)?;
    let cfg = pipeline_config(env.threads);
    let mut cache = EvidenceCache::new();
    START_DAYS
        .map(|d| {
            let o = run_window_cached(&store, window_at(d), &ids, &cfg, &mut cache)
                .map_err(|e| format!("reference window {d}: {e}"))?;
            Ok((d, Summary::of(d, &o)))
        })
        .collect()
}

/// The files of a primed store, restored before every nightly round.
struct StoreImage(Vec<(&'static str, Vec<u8>)>);

const STORE_FILES: [&str; 3] = ["", ".journal", ".ledger"];

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

impl StoreImage {
    fn capture(path: &Path) -> Self {
        Self(
            STORE_FILES
                .into_iter()
                .filter_map(|suffix| Some((suffix, std::fs::read(sibling(path, suffix)).ok()?)))
                .collect(),
        )
    }

    /// Recreates the store at `path` from the image alone, each file
    /// replaced atomically.
    fn restore(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            fresh_dir(dir)?;
        }
        for (suffix, bytes) in &self.0 {
            persist_atomic(&sibling(path, suffix), bytes).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Runs `logdep daily` children and samples their peak RSS.
struct Nights<'a> {
    env: &'a Env,
    inputs: &'a Inputs,
    watch: &'a RssWatch,
}

impl Nights<'_> {
    /// One `logdep daily` process mining the window at `start_day` on
    /// the store at `store`: its wall time, and its summary line when it
    /// exited cleanly with one.
    fn daily_child(&self, start_day: i64, store: &Path) -> Result<(f64, Option<Summary>), String> {
        let mut cmd = Command::new(&self.env.logdep);
        cmd.arg("daily")
            .arg("--logs")
            .arg(&self.inputs.logs)
            .arg("--directory")
            .arg(&self.inputs.directory)
            .args(["--stop-patterns", "standard", "--threads"])
            .arg(self.env.threads.to_string())
            .args(["--window-days", &WINDOW_DAYS.to_string()])
            .args(["--start-day", &start_day.to_string(), "--steps", "1"])
            .arg("--cache")
            .arg(store)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let t0 = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", self.env.logdep.display()))?;
        self.watch.point_at(child.id());
        let out = child
            .wait_with_output()
            .map_err(|e| format!("wait for logdep daily: {e}"))?;
        let secs = t0.elapsed().as_secs_f64();
        self.watch.point_at(0);
        let summary = out
            .status
            .success()
            .then(|| {
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .find_map(parse_summary)
            })
            .flatten();
        Ok((secs, summary))
    }

    /// `SETUPS` cold primes of window 0 on fresh stores; returns their
    /// wall times and the path of the last primed store.
    fn prime(
        &self,
        dir: &Path,
        expect: Summary,
        tally: &mut Tally,
    ) -> Result<(Vec<f64>, PathBuf), String> {
        let mut times = Vec::new();
        let mut store = PathBuf::new();
        for k in 0..SETUPS {
            let sub = dir.join(format!("prime{k}"));
            fresh_dir(&sub)?;
            store = sub.join("store.ck");
            let (secs, got) = self.daily_child(0, &store)?;
            tally.check(got == Some(expect), || {
                format!("cold prime: expected {expect:?}, got {got:?}")
            });
            times.push(secs);
        }
        Ok((times, store))
    }
}

/// Untraced measurement: returns the outcome plus the primed image (for
/// the traced replay) and the median night.
fn measure(
    env: &Env,
    inputs: &Inputs,
    mode: Mode,
    expect: &BTreeMap<i64, Summary>,
) -> Result<(Outcome, StoreImage), String> {
    let dir = env.work.join(mode.name());
    fresh_dir(&dir)?;
    let watch = RssWatch::default();
    let window0 = expect.get(&0).copied().ok_or("no reference window 0")?;
    logdep_par::scope(|s| {
        s.spawn(|| watch.sample_until_halted());
        let nights = Nights {
            env,
            inputs,
            watch: &watch,
        };
        // A closure, so the sampler is halted on the error paths too.
        let result = (|| {
            let mut tally = Tally::default();
            let (setups, primed) = nights.prime(&dir, window0.cold(), &mut tally)?;
            let image = StoreImage::capture(&primed);
            watch.clear_peak();
            let live = dir.join("live").join("store.ck");
            let mut ops = Vec::new();
            let mut rounds = Vec::new();
            let t0 = Instant::now();
            match mode {
                Mode::Nightly => {
                    // Whole rounds only: the seven nights differ by the
                    // day entering the window, so a partial round would
                    // bias the median.
                    while rounds.is_empty() || t0.elapsed().as_secs_f64() < env.seconds {
                        image.restore(&live)?;
                        let mut week = 0.0;
                        for d in 1..=7 {
                            let want = expect.get(&d).copied();
                            let (secs, got) = nights.daily_child(d, &live)?;
                            tally.check(got.is_some() && got == want, || {
                                format!("night {d}: expected {want:?}, got {got:?}")
                            });
                            ops.push(secs);
                            week += secs;
                        }
                        rounds.push(week);
                        let report = verify_store(&live).map_err(|e| e.to_string())?;
                        tally.check(report.clean(), || {
                            format!("store not clean after a round: {:?}", report.events)
                        });
                    }
                }
                Mode::Cold => {
                    let mut i = 0i64;
                    while ops.is_empty() || t0.elapsed().as_secs_f64() < env.seconds {
                        let d = i % 8;
                        let want = expect.get(&d).map(|s| s.cold());
                        fresh_dir(&dir.join("live"))?;
                        let (secs, got) = nights.daily_child(d, &live)?;
                        tally.check(got.is_some() && got == want, || {
                            format!("cold window {d}: expected {want:?}, got {got:?}")
                        });
                        let report = verify_store(&live).map_err(|e| e.to_string())?;
                        tally.check(report.clean(), || {
                            format!("store not clean after window {d}: {:?}", report.events)
                        });
                        ops.push(secs);
                        i += 1;
                    }
                }
            }
            let measured_s = t0.elapsed().as_secs_f64();
            let mut info = vec![Metric::new(
                "op_mean_ms",
                "ms",
                mean(&ops).unwrap_or(0.0) * 1e3,
                ops.len(),
            )];
            if let Some(week) = median(&rounds) {
                info.push(Metric::new("week_s", "s", week, rounds.len()));
            }
            let outcome = Outcome {
                tally,
                metrics: vec![
                    Metric::new("setup_s", "s", median(&setups).unwrap_or(0.0), setups.len()),
                    Metric::new(
                        "op_p50_ms",
                        "ms",
                        median(&ops).unwrap_or(0.0) * 1e3,
                        ops.len(),
                    ),
                    Metric::new("peak_rss_mb", "MB", watch.peak_mb(), ops.len()),
                ],
                info,
                extra: vec![
                    ("op", Value::Str(mode.op().to_owned())),
                    ("measured_s", Value::F64(measured_s)),
                ],
                layers: None,
            };
            Ok((outcome, image))
        })();
        watch.halt();
        result
    })
}

/// Entry point of both mining workloads.
pub fn run(env: &Env, inputs: &Inputs, mode: Mode, trace: bool) -> Result<Outcome, String> {
    let expect = reference(env, inputs)?;
    let (outcome, image) = measure(env, inputs, mode, &expect)?;
    if !trace {
        return Ok(outcome);
    }
    let untraced_p50_ms = outcome
        .metrics
        .iter()
        .find(|m| m.name == "op_p50_ms")
        .map_or(0.0, |m| m.value);
    let Outcome {
        mut tally,
        mut info,
        extra,
        ..
    } = outcome;
    let mut tr = Tracer::new();
    let dir = env.work.join("traced");
    let live = dir.join("store.ck");
    let replay = NightReplay {
        env,
        inputs,
        live: &live,
    };
    // One round: the seven nights of a week, or the eight cold windows.
    let days = match mode {
        Mode::Nightly => {
            image.restore(&live)?;
            1..=7
        }
        Mode::Cold => START_DAYS,
    };
    let mut walls = Vec::new();
    for day in days {
        let want = match mode {
            Mode::Nightly => expect.get(&day).copied(),
            Mode::Cold => {
                fresh_dir(&dir)?;
                expect.get(&day).map(|s| s.cold())
            }
        };
        let (wall_ms, got) = replay.night(&mut tr, day)?;
        tally.check(got == want, || {
            format!("traced window {day}: expected {want:?}, got {got:?}")
        });
        walls.push(wall_ms);
    }
    let report = verify_store(&live).map_err(|e| e.to_string())?;
    tally.check(report.clean(), || {
        format!("traced store not clean: {:?}", report.events)
    });
    // The serve layers on this workload's inputs: what a server started
    // on the store just mined pays to build its index and answer the mix.
    let index = serving::serve_layers(&mut tr, &mut tally, env, inputs, &live)?;
    for (d, want) in &expect {
        let got = index.day(*d).map(|m| (m.l1.len(), m.l2.len(), m.l3.len()));
        tally.check(got == Some((want.l1, want.l2, want.l3)), || {
            format!("index window {d}: expected {want:?}, got {got:?}")
        });
    }
    let wall_diff = Metric::new(
        "trace.wall_diff_ms",
        "ms",
        median(&walls).unwrap_or(0.0) - untraced_p50_ms,
        walls.len(),
    );
    info.push(Metric::new(
        "traced_night_ms",
        "ms",
        median(&walls).unwrap_or(0.0),
        walls.len(),
    ));
    let path = env.out_dir.join(format!("{}.trace.jsonl", mode.name()));
    tr.finish(&path, &[wall_diff], tally, info, extra)
}

/// Mines window 0 into a fresh store at `store` through the traced night
/// replay.
pub fn traced_prime(
    tr: &mut Tracer,
    env: &Env,
    inputs: &Inputs,
    store: &Path,
) -> Result<(), String> {
    NightReplay {
        env,
        inputs,
        live: store,
    }
    .night(tr, 0)
    .map(|_| ())
}

/// A [`WritePolicy`] that lets every write proceed and notes which
/// durable op ran when and with how many bytes: the boundaries between
/// opening, mining, journaling and checkpointing.
#[derive(Default)]
struct OpClock {
    ops: Vec<(DurableOp, usize, Instant)>,
}

impl WritePolicy for OpClock {
    fn before_write(&mut self, op: DurableOp, bytes: &[u8]) -> WriteDecision {
        self.ops.push((op, bytes.len(), Instant::now()));
        WriteDecision::Proceed
    }
}

impl OpClock {
    fn first(&self, op: DurableOp) -> Option<(usize, Instant)> {
        self.ops
            .iter()
            .find(|(o, _, _)| *o == op)
            .map(|&(_, n, t)| (n, t))
    }
}

/// The in-process replay of one night, through the calls the CLI makes.
struct NightReplay<'a> {
    env: &'a Env,
    inputs: &'a Inputs,
    live: &'a Path,
}

impl NightReplay<'_> {
    /// Replays the window at `day` on the live store and returns its wall
    /// time: the `night` span less the `shadow` span, the benchmark's own
    /// pass on a read-only copy of the cache. Coverage is the share of
    /// that time the layer spans account for.
    fn night(&self, tr: &mut Tracer, day: i64) -> Result<(f64, Option<Summary>), String> {
        let night = tr.open_span("night", "ms", None);
        let t0 = Instant::now();
        let store = ingest(&self.inputs.logs)?;
        let t1 = Instant::now();
        let ids = directory_ids(&self.inputs.directory)?;
        let t2 = Instant::now();
        tr.span("logstore.ingest_ms", "ms", t0, t1, Some(night));
        tr.sample("logstore.records", "count", store.len() as f64);
        tr.span("directory.parse_ms", "ms", t1, t2, Some(night));

        let cfg = pipeline_config(self.env.threads);
        let window = window_at(day);
        let shadow = tr.open_span("shadow", "ms", Some(night));
        let warm = DurableStore::open_existing(self.live, &mut NoopPolicy)
            .map_err(|e| format!("open store read-only: {e}"))?;
        let mut copy = warm.cache().clone();
        let shadow_ms = shadow_window(tr, &store, &ids, &cfg, window, &mut copy, shadow)?;
        tr.close_span(shadow);

        let plan = DailyPlan {
            start_day: day,
            window_days: WINDOW_DAYS,
            advance_days: 1,
            steps: 1,
        };
        let mut clock = OpClock::default();
        let mut stepped: Option<Instant> = None;
        let mut got: Option<Summary> = None;
        let entry = Instant::now();
        run_daily_durable(
            &store,
            &ids,
            &cfg,
            &plan,
            self.live,
            false,
            &mut clock,
            &mut |_, outcome| {
                stepped = Some(Instant::now());
                got = Some(Summary::of(day, outcome));
            },
        )
        .map_err(|e| format!("run_daily_durable day {day}: {e}"))?;
        let exit = Instant::now();

        let (journal_bytes, journaled) = clock
            .first(DurableOp::JournalAppend)
            .ok_or("the durable run journaled no step")?;
        let opened = clock
            .first(DurableOp::LedgerAppend)
            .filter(|(_, t)| *t <= journaled)
            .map_or(journaled, |(_, t)| t);
        let stepped = stepped.ok_or("the durable run reported no step")?;
        let (checkpoint_bytes, _) = clock
            .first(DurableOp::CheckpointWrite)
            .ok_or("the durable run wrote no checkpoint")?;
        tr.span("durable.open_ms", "ms", entry, opened, Some(night));
        let mine = tr.span("window.mine_ms", "ms", opened, journaled, Some(night));
        tr.span("durable.journal_ms", "ms", journaled, stepped, Some(night));
        tr.span("durable.checkpoint_ms", "ms", stepped, exit, Some(night));
        tr.sample("durable.journal_bytes", "bytes", journal_bytes as f64);
        tr.sample("durable.checkpoint_bytes", "bytes", checkpoint_bytes as f64);
        tr.close_span(night);

        let wall_ms = tr.span_ms(night) - tr.span_ms(shadow);
        let coverage = tr.coverage(night, &[shadow]);
        tr.sample("trace.coverage", "ratio", coverage);
        let mine_ms = tr.span_ms(mine);
        tr.sample("trace.shadow_ratio", "ratio", shadow_ms / mine_ms);
        Ok((wall_ms, got))
    }
}

/// Times the calls `run_window_cached` makes — L1, L2, L3, then
/// eviction — on `cache`, a copy of the store's, so the real run sees
/// the store untouched. The spans go under `parent`. Records the pass's
/// cache counters and returns its L1+L2+L3 time in ms.
pub fn shadow_window(
    tr: &mut Tracer,
    store: &LogStore,
    ids: &[String],
    cfg: &logdep::PipelineConfig,
    window: TimeRange,
    cache: &mut EvidenceCache,
    parent: usize,
) -> Result<f64, String> {
    let (Some(l1), Some(l2), Some(l3)) = (&cfg.l1, &cfg.l2, &cfg.l3) else {
        return Err("the benchmark's pipeline enables all three layers".into());
    };
    let sources = store.active_sources();
    let before = cache.stats();
    let err = |e: logdep::MineError| e.to_string();
    let t0 = Instant::now();
    run_l1_cached(store, window, &sources, l1, &cfg.par, cache).map_err(err)?;
    let t1 = Instant::now();
    run_l2_windowed_cached(store, window, l2, cache).map_err(err)?;
    let t2 = Instant::now();
    run_l3_windowed_cached(store, window, ids, l3, cache).map_err(err)?;
    let t3 = Instant::now();
    cache.evict_outside(window);
    let s1 = tr.span("l1.cached_ms", "ms", t0, t1, Some(parent));
    let s2 = tr.span("l2.windowed_ms", "ms", t1, t2, Some(parent));
    let s3 = tr.span("l3.windowed_ms", "ms", t2, t3, Some(parent));
    let st = cache.stats().since(&before);
    let ratio = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    tr.sample("cache.hits", "count", st.hits() as f64);
    tr.sample("cache.misses", "count", st.misses() as f64);
    tr.sample(
        "cache.l1_hit_ratio",
        "ratio",
        ratio(st.l1_hits, st.l1_misses),
    );
    tr.sample(
        "cache.l2_hit_ratio",
        "ratio",
        ratio(st.l2_hits, st.l2_misses),
    );
    tr.sample(
        "cache.l3_hit_ratio",
        "ratio",
        ratio(st.l3_hits, st.l3_misses),
    );
    Ok(tr.span_ms(s1) + tr.span_ms(s2) + tr.span_ms(s3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_daily_summary_line() {
        let line = "window days 1..8: L1 14 pairs, L2 123 pairs, L3 214 deps \
                    (cache: 156 hits, 26 misses)";
        assert_eq!(
            parse_summary(line),
            Some(Summary {
                start: 1,
                end: 8,
                l1: 14,
                l2: 123,
                l3: 214,
                hits: 156,
                misses: 26
            })
        );
        assert_eq!(parse_summary("saved cache x.ck (182 entries)"), None);
        assert_eq!(parse_summary("window days 1..8: L1 x pairs"), None);
        assert_eq!(
            parse_summary(line.replace("26 misses)", "26 misses").as_str()),
            None
        );
    }

    #[test]
    fn cold_expectation_turns_every_probe_into_a_miss() {
        let s = parse_summary(
            "window days 2..9: L1 1 pairs, L2 2 pairs, L3 3 deps (cache: 150 hits, 30 misses)",
        )
        .expect("parses");
        assert_eq!(s.cold().hits, 0);
        assert_eq!(s.cold().misses, 180);
        assert_eq!(s.cold().l3, 3);
    }
}
