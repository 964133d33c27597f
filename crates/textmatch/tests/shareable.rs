//! Compile-time proof that the scan substrates can be shared read-only
//! across `logdep-par` workers.
//!
//! L3 builds one Aho–Corasick [`Matcher`] per run, with its
//! [`StopPatterns`] attached, and hands `&`-references to every pool
//! worker; each worker keeps its own `ScanScratch`. That is only
//! sound because neither type has interior mutability — which these
//! assertions pin down at compile time: if a future change adds a
//! `Cell`/`RefCell`-style cache, this test stops compiling instead of
//! the scan becoming a data race hazard.

use logdep_textmatch::{Matcher, MatcherBuilder, StopPatterns};

fn assert_send_sync<T: Send + Sync>(_: &T) {}

#[test]
fn matcher_and_stop_patterns_are_send_and_sync() {
    let mut builder = MatcherBuilder::new();
    builder.add_all(["SVCA", "SVCB"]);
    let matcher: Matcher = builder.build();
    assert_send_sync(&matcher);

    let stops = StopPatterns::new(["serving request*"]);
    assert_send_sync(&stops);

    // And shared references themselves cross the scope boundary.
    logdep_par::scope(|s| {
        let h = s.spawn(|| matcher.matched_ids("calling SVCA").len());
        assert_eq!(h.join().unwrap_or(0), 1);
    });
}
