//! Taint fixture, health half (`crates/core/src/health.rs`). Seeds one
//! wall-clock read in the detector-health module (fires: no module is
//! exempt from the wall-clock rule).

use std::time::Instant;

fn time_detector() -> u64 {
    let t = Instant::now();
    t.elapsed().as_micros() as u64
}
