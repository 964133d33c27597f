//! Taint fixture, entry half. Linted as `crates/core/src/pipe.rs`
//! alongside `taint_util.rs` as `crates/core/src/util.rs` (and, where
//! a test adds it, `taint_health.rs` as `crates/core/src/health.rs`):
//! the pub pipeline driver reaches every helper in those modules, so
//! the nondeterminism facts over there decide which diags fire.

pub fn run_pipeline(n: u64) -> u64 {
    let a = util::hash_counts(n);
    let b = util::tree_counts(n);
    let c = util::tolerated_counts(n);
    a + b + c + util::stamp() + health::time_detector()
}
