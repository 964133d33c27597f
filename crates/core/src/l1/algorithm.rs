//! The slot-combining runner of technique L1.
//!
//! Splits the analysis range into slots, runs the directional test both
//! ways for every candidate pair active enough in the slot, and combines
//! the slot verdicts with the `pr`/`support` thresholds of §3.1.
//!
//! The random-side sample depends only on `(A, slot)`, so it is computed
//! once per active source per slot and shared across all partners — this
//! is what keeps a full day over 1431 pairs tractable.

use super::config::{L1Config, ReferenceProcess};
use super::test::{b_side, decide, random_side, side_from_points, DistanceSamples};
use crate::model::PairModel;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, Millis, SourceId};
use logdep_par::{par_map, ParConfig};
use logdep_stats::sampling::Sampler;
use serde::{Deserialize, Serialize};

/// Combined result of one pair over all slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// First application (smaller id).
    pub a: SourceId,
    /// Second application.
    pub b: SourceId,
    /// Slots where both apps cleared `minlogs` (the paper's support s).
    pub support: usize,
    /// Slots where the test was positive in both directions (p).
    pub positives: usize,
    /// `positives / support` (0 when support is 0).
    pub pr: f64,
    /// Final decision under the thresholds.
    pub dependent: bool,
}

/// Result of an L1 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L1Result {
    /// Pairs declared dependent.
    pub detected: PairModel,
    /// Per-pair detail for every pair that had non-zero support.
    pub outcomes: Vec<PairOutcome>,
    /// Number of slots the range was split into (n).
    pub n_slots: usize,
}

/// Runs technique L1 on `range`, considering the given candidate
/// sources (pass `store.active_sources()` for "everything"), on the
/// worker pool `par`; results are bit-identical at every width.
pub fn run_l1_pool(
    store: &LogStore,
    range: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
    par: &ParConfig,
) -> crate::Result<L1Result> {
    cfg.validate()?;
    let slots = range.split(cfg.slot_ms);
    run_l1_slots_pool(store, &slots, sources, cfg, par)
}

/// Runs technique L1 over an explicit slot list — the entry point for
/// the adaptive-slot variant (§5 of the paper; see [`super::adaptive_slots`]).
///
/// Slots are independent by construction (every RNG stream is seeded
/// from `(seed, slot token, source)` alone, where the token depends on
/// the slot's *absolute position*, not its enumeration index), so the
/// (pair × slot) distance tests fan out per slot on the pool and the
/// per-slot evidence is merged by counting in canonical slot-then-pair
/// order — the exact accumulation the serial loop performs.
pub fn run_l1_slots_pool(
    store: &LogStore,
    slots: &[TimeRange],
    sources: &[SourceId],
    cfg: &L1Config,
    par: &ParConfig,
) -> crate::Result<L1Result> {
    cfg.validate()?;

    // Fan out: one independent evidence computation per slot.
    let tokened: Vec<(u64, TimeRange)> = slots
        .iter()
        .map(|&slot| (slot_token(slot, cfg.slot_ms), slot))
        .collect();
    let per_slot: Vec<Vec<(usize, usize, bool)>> = par_map(par, &tokened, |&(token, slot)| {
        slot_evidence(store, token, slot, sources, cfg)
    });

    Ok(combine_evidence(&per_slot, sources, cfg, slots.len()))
}

/// Merges per-slot evidence into the final [`L1Result`]: pair
/// accumulators indexed by (i, j) position in `sources`, summed in slot
/// order (addition is order-free, so this equals the serial
/// accumulation bit for bit), then thresholded per §3.1.
pub(crate) fn combine_evidence(
    per_slot: &[Vec<(usize, usize, bool)>],
    sources: &[SourceId],
    cfg: &L1Config,
    n_slots: usize,
) -> L1Result {
    let k = sources.len();
    let mut support = vec![0u32; k * k];
    let mut positives = vec![0u32; k * k];
    for evidence in per_slot {
        for &(i, j, positive) in evidence {
            support[i * k + j] += 1;
            if positive {
                positives[i * k + j] += 1;
            }
        }
    }

    let mut detected = PairModel::new();
    let mut outcomes = Vec::new();
    let min_support = (cfg.th_s * n_slots as f64).ceil().max(1.0) as u32;
    for i in 0..k {
        for j in (i + 1)..k {
            let s = support[i * k + j];
            if s == 0 {
                continue;
            }
            let p = positives[i * k + j];
            let pr = p as f64 / s as f64;
            let dependent = pr >= cfg.th_pr && s >= min_support;
            if dependent {
                detected.insert(sources[i], sources[j]);
            }
            outcomes.push(PairOutcome {
                a: sources[i].min(sources[j]),
                b: sources[i].max(sources[j]),
                support: s as usize,
                positives: p as usize,
                pr,
                dependent,
            });
        }
    }

    L1Result {
        detected,
        outcomes,
        n_slots,
    }
}

/// Maximum absolute jitter (ms) applied to load-proportional reference
/// picks — the evidence of a slot can therefore consult timestamps up
/// to this far outside it (plus one neighbor on each side), which is
/// exactly the neighborhood the cache digests.
pub(crate) const LOAD_JITTER_MS: i64 = 2_000;

/// RNG-stream token of a slot, *translation-invariant*: a slot keeps
/// its token (hence its streams, hence its evidence) when the analysis
/// window slides — the property the slot-evidence cache rests on. A
/// slot aligned to the configured width gets its absolute index on the
/// global slot grid; for ranges starting at 0 this equals the old
/// enumeration index, preserving historical outputs bit for bit.
/// Unaligned slots (the adaptive variant) get a mixed start token with
/// the top bit set, keeping the two families disjoint.
pub(crate) fn slot_token(slot: TimeRange, slot_ms: i64) -> u64 {
    if slot_ms > 0 && slot.start.0.rem_euclid(slot_ms) == 0 {
        slot.start.0.div_euclid(slot_ms) as u64
    } else {
        mix64(slot.start.0 as u64) | (1 << 63)
    }
}

/// SplitMix64 finalizer: spreads unaligned slot starts over the token
/// space so nearby starts get unrelated RNG streams.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Evidence of one slot: `(i, j, positive)` per pair (positions in
/// `sources`, `i < j`) where both sides cleared `minlogs`. Pure in
/// `(token, slot)` — every RNG stream is seeded per (seed, slot token,
/// source) — so slots can be evaluated in any order or concurrently,
/// and identical `(token, slot, timelines)` inputs always reproduce
/// identical evidence (the cache-correctness invariant).
pub(crate) fn slot_evidence(
    store: &LogStore,
    token: u64,
    slot: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
) -> Vec<(usize, usize, bool)> {
    // Sources active enough in this slot, each with its in-slot logs
    // (sliced once here, shared by every pair the source is in).
    let active: Vec<(usize, &[Millis])> = sources
        .iter()
        .map(|&source| store.timeline(source).slice_in(slot))
        .enumerate()
        .filter(|(_, in_slot)| in_slot.len() >= cfg.minlogs)
        .collect();
    if active.len() < 2 {
        return Vec::new();
    }

    // Random-side samples per active source (role A), shared across
    // partners. Seeded per (seed, slot token, source) for
    // reproducibility independent of iteration order.
    let mut random_sides: Vec<Option<DistanceSamples>> = Vec::with_capacity(active.len());
    for &(i, _) in &active {
        let mut sampler = Sampler::from_seed(cfg.seed ^ token << 20 ^ sources[i].0 as u64);
        let side = match cfg.reference {
            ReferenceProcess::Homogeneous => {
                random_side(store.timeline(sources[i]), slot, cfg, &mut sampler)
            }
            ReferenceProcess::LoadProportional => {
                // Sample comparison points from the *overall* log
                // process (jittered), so shared diurnal structure
                // cancels out of the comparison (§5).
                let pool = store.range(slot);
                let picks: Vec<Millis> = (0..cfg.sample_size)
                    .filter(|_| !pool.is_empty())
                    .map(|_| {
                        let r = &pool[sampler.index(pool.len())];
                        let jitter =
                            (sampler.unit() * (2 * LOAD_JITTER_MS) as f64) as i64 - LOAD_JITTER_MS;
                        Millis(r.client_ts.0 + jitter)
                    })
                    .collect();
                side_from_points(store.timeline(sources[i]), picks, cfg)
            }
        };
        random_sides.push(side);
    }

    let mut evidence = Vec::new();
    for (ai, &(i, a_slot)) in active.iter().enumerate() {
        for (bi, &(j, b_slot)) in active.iter().enumerate() {
            if bi <= ai {
                continue;
            }
            // Direction 1: is B attracted to A?
            let pos_ab = match &random_sides[ai] {
                Some(r) => {
                    let a_tl = store.timeline(sources[i]);
                    let mut sampler = Sampler::from_seed(
                        cfg.seed
                            ^ 0x0b51de
                            ^ token << 24
                            ^ (sources[i].0 as u64) << 12
                            ^ sources[j].0 as u64,
                    );
                    b_side(a_tl, b_slot, cfg, &mut sampler)
                        .map(|b| decide(&b, r, cfg))
                        .unwrap_or(false)
                }
                None => false,
            };
            // Direction 2: is A attracted to B? (only if needed)
            let pos_both = pos_ab
                && match &random_sides[bi] {
                    Some(r) => {
                        let b_tl = store.timeline(sources[j]);
                        let mut sampler = Sampler::from_seed(
                            cfg.seed
                                ^ 0x0b51de
                                ^ token << 24
                                ^ (sources[j].0 as u64) << 12
                                ^ sources[i].0 as u64,
                        );
                        b_side(b_tl, a_slot, cfg, &mut sampler)
                            .map(|b| decide(&b, r, cfg))
                            .unwrap_or(false)
                    }
                    None => false,
                };
            evidence.push((i, j, pos_both));
        }
    }
    evidence
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    /// Builds a store with three apps: 0 and 1 interact (1 echoes 0
    /// with a 40 ms lag), 2 is independent.
    fn coupled_store(hours: i64) -> (LogStore, Vec<SourceId>) {
        let mut store = LogStore::new();
        let s0 = store.registry.source("App0");
        let s1 = store.registry.source("App1");
        let s2 = store.registry.source("App2");
        for h in 0..hours {
            let base = h * MS_PER_HOUR;
            for i in 0..150 {
                let t = base + i * 23_000 % MS_PER_HOUR;
                store.push(LogRecord::minimal(s0, Millis(t)));
                store.push(LogRecord::minimal(s1, Millis(t + 40)));
                // App2 on its own deterministic grid.
                store.push(LogRecord::minimal(
                    s2,
                    Millis(base + (i * 21_557 + 7_919) % MS_PER_HOUR),
                ));
            }
        }
        store.finalize();
        (store, vec![s0, s1, s2])
    }

    fn cfg() -> L1Config {
        L1Config {
            minlogs: 50,
            seed: 5,
            ..L1Config::default()
        }
    }

    #[test]
    fn detects_the_coupled_pair_only() {
        let (store, sources) = coupled_store(6);
        let range = TimeRange::new(Millis(0), Millis(6 * MS_PER_HOUR));
        let res = run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();
        assert_eq!(res.n_slots, 6);
        assert!(
            res.detected.contains(sources[0], sources[1]),
            "coupled pair missed: {:?}",
            res.outcomes
        );
        assert!(!res.detected.contains(sources[0], sources[2]));
        assert!(!res.detected.contains(sources[1], sources[2]));
    }

    #[test]
    fn outcomes_report_support_and_pr() {
        let (store, sources) = coupled_store(4);
        let range = TimeRange::new(Millis(0), Millis(4 * MS_PER_HOUR));
        let res = run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();
        let out = res
            .outcomes
            .iter()
            .find(|o| o.a == sources[0] && o.b == sources[1])
            .expect("pair tested");
        assert_eq!(out.support, 4);
        assert!(out.pr > 0.9, "pr = {}", out.pr);
        assert!(out.dependent);
    }

    #[test]
    fn minlogs_filter_suppresses_sparse_apps() {
        let (store, sources) = coupled_store(2);
        let range = TimeRange::new(Millis(0), Millis(2 * MS_PER_HOUR));
        let strict = L1Config {
            minlogs: 10_000, // nobody qualifies
            ..cfg()
        };
        let res = run_l1_pool(&store, range, &sources, &strict, &ParConfig::default()).unwrap();
        assert!(res.detected.is_empty());
        assert!(res.outcomes.is_empty(), "no pair should have support");
    }

    #[test]
    fn support_threshold_blocks_low_support_pairs() {
        // Data in only 1 of 24 slots → support 1/24 < th_s = 0.3.
        let (store, sources) = coupled_store(1);
        let range = TimeRange::new(Millis(0), Millis(24 * MS_PER_HOUR));
        let res = run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();
        assert_eq!(res.n_slots, 24);
        assert!(res.detected.is_empty(), "support gate failed");
        let out = res
            .outcomes
            .iter()
            .find(|o| o.a == sources[0] && o.b == sources[1])
            .expect("tested once");
        assert_eq!(out.support, 1);
        assert!(!out.dependent);
    }

    #[test]
    fn deterministic_across_runs() {
        let (store, sources) = coupled_store(3);
        let range = TimeRange::new(Millis(0), Millis(3 * MS_PER_HOUR));
        let r1 = run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();
        let r2 = run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let (store, sources) = coupled_store(1);
        let range = TimeRange::new(Millis(0), Millis(MS_PER_HOUR));
        let bad = L1Config {
            th_pr: 2.0,
            ..L1Config::default()
        };
        assert!(run_l1_pool(&store, range, &sources, &bad, &ParConfig::default()).is_err());
    }

    #[test]
    fn empty_sources_yield_empty_result() {
        let (store, _) = coupled_store(1);
        let range = TimeRange::new(Millis(0), Millis(MS_PER_HOUR));
        let res = run_l1_pool(&store, range, &[], &cfg(), &ParConfig::default()).unwrap();
        assert!(res.detected.is_empty());
        assert!(res.outcomes.is_empty());
    }
}
