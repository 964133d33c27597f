//! The injector: record-level faults, delivery reordering, and
//! line-level corruption, all deterministic in the config seed.

use crate::config::FaultConfig;
use crate::ledger::{BlackoutWindow, CorruptionCounts, FaultLedger};
use logdep_logstore::codec::write_record;
use logdep_logstore::{LogRecord, LogStore, Millis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A faulted stream: the TSV text a consolidation job would receive,
/// plus the ledger of everything that was done to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// The delivery stream as TSV lines (newline-terminated).
    pub tsv: String,
    /// What was injected.
    pub ledger: FaultLedger,
}

/// SplitMix64 step, used to derive independent per-stage seeds so that
/// adding records to one stage never perturbs another.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rng_for(seed: u64, stage: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(seed ^ splitmix(stage)))
}

/// Small-λ Poisson sample (Knuth), for blackout counts.
fn sample_count(rng: &mut StdRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    while p > limit && k < 1_000 {
        p *= rng.gen_range(0.0..1.0_f64);
        k += 1;
    }
    k.saturating_sub(1)
}

/// Applies the record-level fault classes (skew, jitter, drops,
/// blackouts, duplication, delivery reordering) and returns the
/// delivered records in delivery order. The store must be finalized.
///
/// Line-level corruption is not applied here — use [`inject`] for the
/// full transform down to TSV text.
pub fn inject_records(store: &LogStore, cfg: &FaultConfig) -> (Vec<LogRecord>, FaultLedger) {
    let mut ledger = FaultLedger {
        input_records: store.len(),
        ..FaultLedger::default()
    };

    // --- Per-source clock skew offsets (stage 1).
    let mut skew_rng = rng_for(cfg.seed, 1);
    let n_sources = store.registry.source_count();
    let mut skew = vec![0i64; n_sources];
    for (idx, offset) in skew.iter_mut().enumerate() {
        if cfg.skew_ms > 0 {
            *offset = skew_rng.gen_range(-cfg.skew_ms..=cfg.skew_ms);
        }
        if *offset != 0 {
            if let Some(name) = store.registry.sources.name(idx as u32) {
                ledger.skew_applied_ms.insert(name.to_owned(), *offset);
            }
        }
    }

    // --- Blackout windows (stage 2), placed over the true time span.
    let mut blackout_rng = rng_for(cfg.seed, 2);
    let span = store
        .records()
        .first()
        .zip(store.records().last())
        .map(|(a, b)| (a.client_ts.as_millis(), b.client_ts.as_millis()));
    if let Some((lo, hi)) = span {
        if cfg.blackouts_per_source > 0.0 && cfg.blackout_ms > 0 && hi > lo {
            for idx in 0..n_sources {
                let n = sample_count(&mut blackout_rng, cfg.blackouts_per_source);
                for _ in 0..n {
                    let start = blackout_rng.gen_range(lo..hi.max(lo + 1));
                    if let Some(name) = store.registry.sources.name(idx as u32) {
                        ledger.blackouts.push(BlackoutWindow {
                            source: name.to_owned(),
                            start_ms: start,
                            end_ms: start + cfg.blackout_ms,
                            dropped: 0,
                        });
                    }
                }
            }
        }
    }

    // --- Record pass (stage 3): blackout, drop, skew+jitter, duplicate.
    let mut rec_rng = rng_for(cfg.seed, 3);
    let mut delivered: Vec<LogRecord> = Vec::with_capacity(store.len());
    for rec in store.records() {
        let t = rec.client_ts.as_millis();
        let source_name = store.registry.source_name(rec.source);
        if let Some(window) = ledger
            .blackouts
            .iter_mut()
            .find(|w| w.source == source_name && w.start_ms <= t && t < w.end_ms)
        {
            window.dropped += 1;
            ledger.blackout_dropped += 1;
            continue;
        }
        if cfg.drop_prob > 0.0 && rec_rng.gen_bool(cfg.drop_prob.clamp(0.0, 1.0)) {
            ledger.dropped += 1;
            continue;
        }
        let jitter = if cfg.jitter_ms > 0 {
            rec_rng.gen_range(-cfg.jitter_ms..=cfg.jitter_ms)
        } else {
            0
        };
        if jitter != 0 {
            ledger.jittered += 1;
        }
        let mut out = rec.to_record(store);
        let offset = skew.get(out.source.index()).copied().unwrap_or(0);
        out.client_ts = Millis(t + offset + jitter);
        let duplicate =
            cfg.duplicate_prob > 0.0 && rec_rng.gen_bool(cfg.duplicate_prob.clamp(0.0, 1.0));
        if duplicate {
            ledger.duplicated += 1;
            delivered.push(out.clone());
        }
        delivered.push(out);
    }

    // --- Delivery reordering (stage 4): bounded forward displacement.
    let mut reorder_rng = rng_for(cfg.seed, 4);
    if cfg.reorder_prob > 0.0 && cfg.reorder_window > 0 {
        let n = delivered.len();
        for i in 0..n {
            if !reorder_rng.gen_bool(cfg.reorder_prob.clamp(0.0, 1.0)) {
                continue;
            }
            let j = (i + reorder_rng.gen_range(1..=cfg.reorder_window)).min(n - 1);
            if j != i {
                delivered.swap(i, j);
                ledger.reordered += 1;
            }
        }
    }

    ledger.output_records = delivered.len();
    (delivered, ledger)
}

/// Runs the full transform: record-level faults, TSV serialization, and
/// line-level corruption. The store must be finalized.
pub fn inject(store: &LogStore, cfg: &FaultConfig) -> Injection {
    let (records, mut ledger) = inject_records(store, cfg);

    let mut corrupt_rng = rng_for(cfg.seed, 5);
    let mut tsv = String::new();
    let mut corruption = CorruptionCounts::default();
    let mut output_lines = 0usize;
    for rec in &records {
        let mut buf: Vec<u8> = Vec::with_capacity(rec.text.len() + 48);
        if write_record(&mut buf, rec, &store.registry).is_err() {
            // Writing into a Vec cannot fail; guard instead of panicking.
            continue;
        }
        let line_full = String::from_utf8_lossy(&buf);
        let mut line = line_full.trim_end_matches('\n').to_owned();
        if cfg.corrupt_prob > 0.0 && corrupt_rng.gen_bool(cfg.corrupt_prob.clamp(0.0, 1.0)) {
            line = corrupt_line(&line, &mut corruption, &mut corrupt_rng);
        }
        if !line.is_empty() {
            output_lines += 1;
        }
        tsv.push_str(&line);
        tsv.push('\n');
    }
    ledger.corruption = corruption;
    ledger.output_lines = output_lines;
    Injection { tsv, ledger }
}

/// Garbage characters a failing shipper smears into a line.
const GARBAGE: &[char] = &['#', '$', '%', '&', '@', '^', '~', '?', '*', '\u{fffd}'];

/// Applies one corruption kind to a line, recording it in `counts`.
#[expect(
    clippy::indexing_slicing,
    reason = "`start + len <= chars.len()` and picks are drawn below the length"
)]
fn corrupt_line(line: &str, counts: &mut CorruptionCounts, rng: &mut StdRng) -> String {
    match rng.gen_range(0..3u8) {
        0 => {
            // Truncation: the collector died mid-write.
            counts.truncated += 1;
            let mut cut = rng.gen_range(0..=line.len());
            while cut > 0 && !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line.get(..cut).unwrap_or("").to_owned()
        }
        1 => {
            // Garbage bytes: a span overwritten in transit.
            counts.garbage += 1;
            let chars: Vec<char> = line.chars().collect();
            if chars.is_empty() {
                return GARBAGE.iter().collect();
            }
            let start = rng.gen_range(0..chars.len());
            let len = rng.gen_range(1..=12usize).min(chars.len() - start);
            let mut out: String = chars[..start].iter().collect();
            for _ in 0..len {
                out.push(GARBAGE[rng.gen_range(0..GARBAGE.len())]);
            }
            out.extend(chars[start + len..].iter());
            out
        }
        _ => {
            // Mangled timestamp: a locale-formatted or hex-prefixed
            // client timestamp the parser must reject.
            counts.mangled_timestamp += 1;
            match line.split_once('\t') {
                Some((ts, rest)) => {
                    let mangled = if rng.gen_bool(0.5) {
                        format!("{}:{:02}", ts, rng.gen_range(0..60u8))
                    } else {
                        format!("0x{ts}")
                    };
                    format!("{mangled}\t{rest}")
                }
                None => format!("0x{line}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::codec::read_store;
    use logdep_logstore::registry::SourceId;

    fn store(n: usize) -> LogStore {
        let mut s = LogStore::new();
        let a = s.registry.source("AppA");
        let b = s.registry.source("AppB");
        for i in 0..n {
            let src = if i % 2 == 0 { a } else { b };
            s.push(
                LogRecord::minimal(src, Millis(i as i64 * 500)).with_text(format!("record {i}")),
            );
        }
        s.finalize();
        s
    }

    #[test]
    fn identity_round_trips_exactly() {
        let s = store(200);
        let inj = inject(&s, &FaultConfig::off(9));
        assert_eq!(inj.ledger.input_records, 200);
        assert_eq!(inj.ledger.output_records, 200);
        assert_eq!(inj.ledger.output_lines, 200);
        assert_eq!(inj.ledger.total_lost(), 0);
        assert_eq!(inj.ledger.corruption.total(), 0);
        assert!(inj.ledger.skew_applied_ms.is_empty());
        let (parsed, errors) = read_store(inj.tsv.as_bytes()).expect("read back");
        assert!(errors.is_empty());
        assert_eq!(parsed.len(), s.len());
        for (x, y) in s.records().iter().zip(parsed.records()) {
            assert_eq!(x.client_ts, y.client_ts);
            assert_eq!(s.text(x), parsed.text(y));
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let s = store(300);
        let cfg = FaultConfig::at_intensity(17, 0.7);
        let a = inject(&s, &cfg);
        let b = inject(&s, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let s = store(300);
        let a = inject(&s, &FaultConfig::at_intensity(1, 0.7));
        let b = inject(&s, &FaultConfig::at_intensity(2, 0.7));
        assert_ne!(a.tsv, b.tsv);
    }

    #[test]
    fn ledger_accounts_for_every_record() {
        let s = store(1_000);
        let (delivered, ledger) = inject_records(&s, &FaultConfig::at_intensity(5, 0.8));
        assert_eq!(
            ledger.input_records + ledger.duplicated,
            delivered.len() + ledger.dropped + ledger.blackout_dropped,
        );
        assert!(ledger.dropped > 0, "0.8 intensity should drop records");
        assert!(ledger.duplicated > 0);
        assert_eq!(
            ledger.blackout_dropped,
            ledger.blackouts.iter().map(|w| w.dropped).sum::<usize>()
        );
    }

    #[test]
    fn corruption_produces_parse_errors() {
        let s = store(1_000);
        let inj = inject(&s, &FaultConfig::at_intensity(5, 0.9));
        assert!(inj.ledger.corruption.total() > 0);
        let (_, errors) = read_store(inj.tsv.as_bytes()).expect("read back");
        assert!(
            !errors.is_empty(),
            "corrupted lines should fail to parse: {:?}",
            inj.ledger.corruption
        );
    }

    #[test]
    fn skew_moves_whole_sources() {
        let mut cfg = FaultConfig::off(33);
        cfg.skew_ms = 60_000;
        let s = store(50);
        let (delivered, ledger) = inject_records(&s, &cfg);
        assert!(!ledger.skew_applied_ms.is_empty());
        // Every record of a skewed source is offset by the same amount.
        let offset = ledger.skew_applied_ms.get("AppA").copied();
        if let Some(off) = offset {
            for (orig, out) in s.records().iter().zip(&delivered) {
                if orig.source == SourceId(0) {
                    assert_eq!(out.client_ts.as_millis(), orig.client_ts.as_millis() + off);
                }
            }
        }
    }

    #[test]
    fn empty_store_is_harmless() {
        let mut s = LogStore::new();
        s.finalize();
        let inj = inject(&s, &FaultConfig::at_intensity(3, 1.0));
        assert_eq!(inj.tsv, "");
        assert_eq!(inj.ledger.input_records, 0);
        assert_eq!(inj.ledger.output_records, 0);
    }
}
