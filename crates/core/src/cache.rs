//! Content-addressed evidence cache for the moving-landscape pipeline.
//!
//! §1.2 of the paper: HUG's landscape *moves*, so the miners run "around
//! the clock" over a sliding window (e.g. the trailing week). Advancing
//! a 7-day window by one day re-reads 6 days of logs whose evidence
//! cannot have changed — this module memoizes that evidence so only the
//! new day is recomputed.
//!
//! Every entry is **content-addressed** by an [`EvidenceKey`]:
//!
//! * a *fingerprint* of the full configuration (and, for L1, the
//!   candidate source list; for L3, the directory ids) — any parameter
//!   change silently misses instead of replaying stale evidence;
//! * the absolute `[start, end)` range the evidence covers;
//! * a *digest* of exactly the log content the computation may consult
//!   (see [`Timeline::digest_neighborhood`]) — late-arriving or edited
//!   records change the digest and invalidate the entry.
//!
//! Hits therefore never require trusting the caller: equal key ⇒ equal
//! inputs ⇒ (the computations being pure) byte-identical evidence. The
//! per-layer payloads are the *pre-threshold* accumulators — L1 slot
//! evidence triples, L3 day citation counts — so the final thresholding
//! always runs fresh over the merged window and matches the batch
//! runners bit for bit.
//!
//! L2 has no layer here: its key would have to digest the window's
//! reconstructed sessions, and that rebuild is most of what L2 costs.
//! [`crate::window::run_window_cached`] mines it fresh every window.
//!
//! [`Timeline::digest_neighborhood`]: logdep_logstore::Timeline::digest_neighborhood

use crate::l1::{
    combine_evidence, slot_evidence, slot_token, L1Config, L1Result, ReferenceProcess,
    LOAD_JITTER_MS,
};
use crate::l2::L2Config;
use crate::l3::L3Config;
use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_obs::{record, Field};
use logdep_par::{par_map, ParConfig};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// FNV-1a accumulator shared by the fingerprint and digest helpers.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes eight at a time (xor-multiply per `u64` word, FNV-1a
    /// on the tail) — the digests here cover megabytes of log text per
    /// window, and a byte-serial fold would dominate the warm path.
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().unwrap_or([0; 8]));
            self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        for &b in words.remainder() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    pub(crate) fn push_i64(&mut self, v: i64) {
        self.push_bytes(&v.to_le_bytes());
    }

    pub(crate) fn push_str(&mut self, s: &str) {
        // Length prefix keeps adjacent strings from aliasing.
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Folds the exact bit pattern, so `-0.0` and `0.0` fingerprint
    /// differently — fine for config fields, which are compared for
    /// identity, not numeric equality.
    pub(crate) fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    pub(crate) fn push_bool(&mut self, v: bool) {
        self.push_u64(u64::from(v));
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Content address of one cached evidence entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EvidenceKey {
    /// Fingerprint of the configuration (and candidate lists).
    pub fingerprint: u64,
    /// Start of the covered range (ms).
    pub start: i64,
    /// End of the covered range (ms, exclusive).
    pub end: i64,
    /// Digest of the log content the evidence may consult.
    pub digest: u64,
}

impl EvidenceKey {
    fn overlaps(&self, range: TimeRange) -> bool {
        self.start < range.end.0 && self.end > range.start.0
    }
}

/// Cached evidence of one L1 slot: `(i, j, positive)` per candidate
/// pair, `i` and `j` being positions in the candidate source list.
pub type SlotEvidence = Vec<(u32, u32, bool)>;

/// Cached per-day L3 scan: citation counts plus the stop/scan tallies.
/// Counts are monotone and additive, so day chunks merge exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct L3DayCounts {
    /// Citation counts per `(app, service index)` in key order.
    pub citations: BTreeMap<(SourceId, usize), u64>,
    /// Records scanned (after stop filtering).
    pub scanned: u64,
    /// Records skipped by a stop pattern.
    pub stopped: u64,
}

/// Hit/miss counters per cached layer. Deltas (see [`CacheStats::since`])
/// tell a windowed run how much work the cache actually saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// L1 slot-evidence hits.
    pub l1_hits: u64,
    /// L1 slot-evidence misses (computed and inserted).
    pub l1_misses: u64,
    /// Always 0: L2 has no cache layer. Kept for callers written when
    /// it had one.
    pub l2_hits: u64,
    /// Always 0, like [`l2_hits`](Self::l2_hits).
    pub l2_misses: u64,
    /// L3 day-scan hits.
    pub l3_hits: u64,
    /// L3 day-scan misses.
    pub l3_misses: u64,
}

impl CacheStats {
    /// Total hits across layers.
    pub fn hits(&self) -> u64 {
        self.l1_hits + self.l3_hits
    }

    /// Total misses across layers.
    pub fn misses(&self) -> u64 {
        self.l1_misses + self.l3_misses
    }

    /// Counter delta since an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            l1_hits: self.l1_hits.saturating_sub(earlier.l1_hits),
            l1_misses: self.l1_misses.saturating_sub(earlier.l1_misses),
            l2_hits: 0,
            l2_misses: 0,
            l3_hits: self.l3_hits.saturating_sub(earlier.l3_hits),
            l3_misses: self.l3_misses.saturating_sub(earlier.l3_misses),
        }
    }
}

/// The evidence store: two content-addressed maps (L1 and L3) plus
/// session-local hit/miss counters. `BTreeMap` keeps iteration —
/// and so the durable segments written from it — deterministic.
#[derive(Debug, Clone)]
pub struct EvidenceCache {
    pub(crate) l1: BTreeMap<EvidenceKey, SlotEvidence>,
    pub(crate) l3: BTreeMap<EvidenceKey, L3DayCounts>,
    pub(crate) stats: CacheStats,
}

impl Default for EvidenceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl EvidenceCache {
    /// Evidence-layout version stamped into the durable segment headers;
    /// bump on layout changes. Version 2 dropped the L2 layer.
    pub const VERSION: u32 = 2;

    /// An empty cache.
    pub fn new() -> Self {
        Self {
            l1: BTreeMap::new(),
            l3: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Total number of cached entries across layers.
    pub fn len(&self) -> usize {
        self.l1.len() + self.l3.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss counters accumulated since construction (or the last
    /// [`reset_stats`](Self::reset_stats)). Not persisted.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops every entry whose range lies fully outside `window` —
    /// the retention policy of a sliding window. Returns the number of
    /// entries evicted.
    pub fn evict_outside(&mut self, window: TimeRange) -> usize {
        let before = self.len();
        self.l1.retain(|k, _| k.overlaps(window));
        self.l3.retain(|k, _| k.overlaps(window));
        before - self.len()
    }

    /// Drops every entry whose range overlaps `range` — a manual
    /// invalidation hook (and the test lever proving that re-derived
    /// evidence equals the cached evidence). Returns the number of
    /// entries dropped.
    pub fn invalidate_overlapping(&mut self, range: TimeRange) -> usize {
        let before = self.len();
        self.l1.retain(|k, _| !k.overlaps(range));
        self.l3.retain(|k, _| !k.overlaps(range));
        before - self.len()
    }
}

/// Fingerprint of an L1 configuration + candidate source list. Every
/// field is folded explicitly; the `fingerprint-completeness` lint
/// cross-checks this body against the fields of [`L1Config`], so a new
/// config field that never reaches the fingerprint is a lint deny, not
/// a silent cache-staleness bug.
pub fn l1_fingerprint(cfg: &L1Config, sources: &[SourceId]) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l1");
    f.push_i64(cfg.slot_ms);
    f.push_u64(cfg.minlogs as u64);
    f.push_f64(cfg.th_pr);
    f.push_f64(cfg.th_s);
    f.push_f64(cfg.ci_level);
    f.push_u64(cfg.sample_size as u64);
    f.push_u64(cfg.seed);
    f.push_str(&format!("{:?}", cfg.distance));
    f.push_str(&format!("{:?}", cfg.stat));
    f.push_bool(cfg.two_sided);
    f.push_str(&format!("{:?}", cfg.reference));
    f.push_str(&format!("{:?}", cfg.decision));
    // The retired `retain_dists` flag (always on): keeps stored keys valid.
    f.push_bool(true);
    for s in sources {
        f.push_u64(u64::from(s.0));
    }
    f.finish()
}

/// Digest of everything [`slot_evidence`] may consult for one slot:
/// each candidate timeline's slot neighborhood, widened by the jitter
/// margin when the load-proportional reference also draws (jittered)
/// picks from the overall log process — in that mode every active
/// source's neighborhood participates, because the pick pool spans all
/// sources.
pub(crate) fn l1_slot_digest(
    store: &LogStore,
    slot: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
) -> u64 {
    let margin = match cfg.reference {
        ReferenceProcess::Homogeneous => 0,
        ReferenceProcess::LoadProportional => LOAD_JITTER_MS,
    };
    let mut f = Fnv::new();
    for &s in sources {
        f.push_u64(u64::from(s.0));
        f.push_u64(store.timeline(s).digest_neighborhood(slot, margin));
    }
    if matches!(cfg.reference, ReferenceProcess::LoadProportional) {
        for s in store.active_sources() {
            f.push_u64(u64::from(s.0));
            f.push_u64(store.timeline(s).digest_neighborhood(slot, margin));
        }
    }
    f.finish()
}

/// Technique L1 over the slot grid of `range` with slot-evidence
/// memoization — the cached twin of [`crate::l1::run_l1_pool`],
/// byte-identical to it at every thread count and cache state.
pub fn run_l1_cached(
    store: &LogStore,
    range: TimeRange,
    sources: &[SourceId],
    cfg: &L1Config,
    par: &ParConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<L1Result> {
    cfg.validate()?;
    let slots = range.split(cfg.slot_ms);
    record(|r| {
        r.span_begin(
            "window.l1",
            &[
                ("start_ms", Field::from(range.start.0)),
                ("end_ms", Field::from(range.end.0)),
            ],
        );
    });
    let result = run_l1_slots_cached(store, &slots, sources, cfg, par, cache);
    record(|r| {
        r.span_end("window.l1", &[("slots", Field::from(slots.len()))]);
    });
    result
}

/// [`run_l1_cached`] over an explicit slot list (`cfg` already
/// validated): every slot is first probed in the cache by its content
/// address; only the misses fan out on the pool (through the very same
/// [`slot_evidence`] the batch runner uses), and their evidence is
/// inserted for the next run. The combined result is byte-identical to
/// [`crate::l1::run_l1_slots_pool`] regardless of which entries hit.
fn run_l1_slots_cached(
    store: &LogStore,
    slots: &[TimeRange],
    sources: &[SourceId],
    cfg: &L1Config,
    par: &ParConfig,
    cache: &mut EvidenceCache,
) -> crate::Result<L1Result> {
    record(|r| {
        r.span_begin("l1.slots", &[("slots", Field::from(slots.len()))]);
    });
    let fp = l1_fingerprint(cfg, sources);

    let mut per_slot: Vec<Option<Vec<(usize, usize, bool)>>> = Vec::with_capacity(slots.len());
    let mut misses: Vec<(usize, EvidenceKey, u64, TimeRange)> = Vec::new();
    for (idx, &slot) in slots.iter().enumerate() {
        let key = EvidenceKey {
            fingerprint: fp,
            start: slot.start.0,
            end: slot.end.0,
            digest: l1_slot_digest(store, slot, sources, cfg),
        };
        match cache.l1.get(&key) {
            Some(stored) => {
                cache.stats.l1_hits += 1;
                per_slot.push(Some(decode_evidence(stored)));
            }
            None => {
                cache.stats.l1_misses += 1;
                per_slot.push(None);
                misses.push((idx, key, slot_token(slot, cfg.slot_ms), slot));
            }
        }
    }

    // The probe loop above ran on the caller thread, so the hit/miss
    // split — and therefore the trace — is identical at every width;
    // the pool below only computes, it never records.
    let hits = slots.len() as u64 - misses.len() as u64;
    let missed = misses.len() as u64;
    let computed: Vec<Vec<(usize, usize, bool)>> = par_map(par, &misses, |&(_, _, token, slot)| {
        slot_evidence(store, token, slot, sources, cfg)
    });
    for ((idx, key, _, _), evidence) in misses.into_iter().zip(computed) {
        cache.l1.insert(key, encode_evidence(&evidence));
        if let Some(slot) = per_slot.get_mut(idx) {
            *slot = Some(evidence);
        }
    }
    record(|r| {
        r.counter_add("cache.l1.hits", hits);
        r.counter_add("cache.l1.misses", missed);
        r.span_end(
            "l1.slots",
            &[("hits", Field::from(hits)), ("misses", Field::from(missed))],
        );
    });

    let per_slot: Vec<Vec<(usize, usize, bool)>> = per_slot
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    Ok(combine_evidence(&per_slot, sources, cfg, slots.len()))
}

/// Compact storage form of slot evidence (pair positions fit u32).
fn encode_evidence(evidence: &[(usize, usize, bool)]) -> SlotEvidence {
    evidence
        .iter()
        .map(|&(i, j, pos)| {
            (
                u32::try_from(i).unwrap_or(u32::MAX),
                u32::try_from(j).unwrap_or(u32::MAX),
                pos,
            )
        })
        .collect()
}

fn decode_evidence(stored: &[(u32, u32, bool)]) -> Vec<(usize, usize, bool)> {
    stored
        .iter()
        .map(|&(i, j, pos)| (i as usize, j as usize, pos))
        .collect()
}

/// Fingerprint of an L2 configuration. Field-by-field, checked by the
/// `fingerprint-completeness` lint (see [`l1_fingerprint`]).
pub fn l2_fingerprint(cfg: &L2Config) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l2");
    f.push_str(&format!("{:?}", cfg.timeout_ms));
    f.push_f64(cfg.alpha);
    f.push_str(&format!("{:?}", cfg.statistic));
    f.push_u64(cfg.min_joint);
    f.push_i64(cfg.session.max_gap_ms);
    f.push_u64(cfg.session.min_logs as u64);
    f.finish()
}

/// Fingerprint of an L3 configuration + directory id list. Field-by-
/// field, checked by the `fingerprint-completeness` lint (see
/// [`l1_fingerprint`]).
pub fn l3_fingerprint(cfg: &L3Config, service_ids: &[String]) -> u64 {
    let mut f = Fnv::new();
    f.push_str("l3");
    f.push_u64(cfg.stop_patterns.len() as u64);
    for p in &cfg.stop_patterns {
        f.push_str(p);
    }
    f.push_bool(cfg.whole_word);
    f.push_u64(cfg.min_citations);
    for id in service_ids {
        f.push_str(id);
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    /// Every `EvidenceKey` and durable checkpoint carries these, so a
    /// change here silently turns existing stores cold.
    #[test]
    fn default_fingerprints_are_stable() {
        let sources = [SourceId(0), SourceId(1), SourceId(2)];
        let ids = ["SVC0".to_owned(), "SVC1".to_owned()];
        assert_eq!(
            l1_fingerprint(&L1Config::default(), &sources),
            0xb15a_d33b_3e56_9e5e
        );
        assert_eq!(l2_fingerprint(&L2Config::default()), 0x3ed6_5ac3_e6c4_d347);
        assert_eq!(
            l3_fingerprint(&L3Config::default(), &ids),
            0xb234_e7a5_8a0a_3f55
        );
    }

    fn coupled_store(hours: i64) -> (LogStore, Vec<SourceId>) {
        let mut store = LogStore::new();
        let s0 = store.registry.source("App0");
        let s1 = store.registry.source("App1");
        for h in 0..hours {
            let base = h * MS_PER_HOUR;
            for i in 0..120 {
                let t = base + i * 23_000 % MS_PER_HOUR;
                store.push(LogRecord::minimal(s0, Millis(t)));
                store.push(LogRecord::minimal(s1, Millis(t + 40)));
            }
        }
        store.finalize();
        (store, vec![s0, s1])
    }

    fn cfg() -> L1Config {
        L1Config {
            minlogs: 40,
            seed: 5,
            ..L1Config::default()
        }
    }

    #[test]
    fn cached_l1_matches_batch_cold_and_warm() {
        let (store, sources) = coupled_store(4);
        let range = TimeRange::new(Millis(0), Millis(4 * MS_PER_HOUR));
        let batch =
            crate::l1::run_l1_pool(&store, range, &sources, &cfg(), &ParConfig::default()).unwrap();

        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        let cold = run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(cold, batch);
        assert_eq!(cache.stats().l1_misses, 4);
        assert_eq!(cache.stats().l1_hits, 0);

        let warm = run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(warm, batch);
        assert_eq!(cache.stats().l1_hits, 4);
    }

    #[test]
    fn config_change_misses_instead_of_replaying() {
        let (store, sources) = coupled_store(2);
        let range = TimeRange::new(Millis(0), Millis(2 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        let other = L1Config { seed: 99, ..cfg() };
        run_l1_cached(&store, range, &sources, &other, &par, &mut cache).unwrap();
        assert_eq!(cache.stats().l1_hits, 0);
        assert_eq!(cache.stats().l1_misses, 4);
    }

    #[test]
    fn new_records_in_a_slot_invalidate_only_that_slot() {
        let (mut store, sources) = coupled_store(3);
        store.finalize();
        let range = TimeRange::new(Millis(0), Millis(3 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();

        // Append a record deep inside slot 1 (away from slot edges).
        store.push(LogRecord::minimal(
            sources[0],
            Millis(MS_PER_HOUR + MS_PER_HOUR / 2),
        ));
        store.finalize();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.l1_hits, 2, "untouched slots must hit");
        assert_eq!(stats.l1_misses, 4, "3 cold + 1 invalidated");
    }

    #[test]
    fn eviction_and_invalidation_are_range_scoped() {
        let (store, sources) = coupled_store(4);
        let range = TimeRange::new(Millis(0), Millis(4 * MS_PER_HOUR));
        let mut cache = EvidenceCache::new();
        let par = ParConfig::serial();
        run_l1_cached(&store, range, &sources, &cfg(), &par, &mut cache).unwrap();
        assert_eq!(cache.len(), 4);

        let dropped = cache.invalidate_overlapping(TimeRange::new(Millis(0), Millis(MS_PER_HOUR)));
        assert_eq!(dropped, 1);
        let evicted =
            cache.evict_outside(TimeRange::new(Millis(MS_PER_HOUR), Millis(3 * MS_PER_HOUR)));
        assert_eq!(evicted, 1, "slot 3 lies outside the retained window");
        assert_eq!(cache.len(), 2);
    }
}
