//! Taint fixture, helper half (`crates/core/src/util.rs`). Seeds one
//! HashMap iteration (fires), one BTreeMap iteration (clean — ordered),
//! one justified HashMap iteration (suppressed), and one wall-clock
//! read (fires).

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

fn hash_counts(n: u64) -> u64 {
    let mut m: HashMap<u64, u64> = HashMap::new();
    m.insert(n, n);
    let mut total = 0;
    for (_, v) in &m {
        total += *v;
    }
    total
}

fn tree_counts(n: u64) -> u64 {
    let mut m: BTreeMap<u64, u64> = BTreeMap::new();
    m.insert(n, n);
    m.values().sum()
}

fn tolerated_counts(n: u64) -> u64 {
    let mut m: HashMap<u64, u64> = HashMap::new();
    m.insert(n, n);
    // lint:allow(nondeterminism-taint) — order-insensitive sum
    m.values().sum()
}

fn stamp() -> u64 {
    let t = Instant::now();
    t.elapsed().as_millis() as u64
}
