//! Bare-allow fixture. The first marker silences its target rule but
//! carries no justification — it must itself be denied. The second is
//! reasoned and must pass. The third is reasoned but names a rule the
//! registry no longer has: it suppresses nothing and must be denied.

pub fn seeded(xs: &mut [f64], ys: &mut [f64], zs: &mut [f64]) {
    // lint:allow(nan-unsafe-float)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // lint:allow(nan-unsafe-float) — inputs are finite by construction
    ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // lint:allow(no-panic-in-lib) — a retired rule, so this marker is stale
    zs.sort_by(|a, b| a.total_cmp(b));
}
