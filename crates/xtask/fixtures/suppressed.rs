//! Every violation here carries a lint:allow justification, so the file
//! must lint clean.

pub fn justified(xs: &mut [f64]) {
    // lint:allow(silent-drop) — best-effort cleanup, failure is benign
    let _ = std::fs::remove_file("scratch");
    let _ = xs.iter().max_by(|a, b| a.partial_cmp(b).unwrap()); // lint:allow(nan-unsafe-float, silent-drop) — inputs are finite by construction
}
