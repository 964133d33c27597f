//! Seeded violations for the unchecked-indexing rule.

pub fn seeded(xs: &[u32], i: usize, j: usize) -> u32 {
    let a = xs[i];
    let b = xs[j + 1];
    a + b
}

pub fn fine(xs: &[u32; 4]) -> u32 {
    let first = xs[0];
    let all = &xs[..];
    first + all.len() as u32
}

pub fn destructured(pair: [u32; 2], xs: &[u32]) -> u32 {
    let [lo, hi] = pair;
    let mut sum = lo + hi;
    for x in [lo, hi] {
        sum += x;
    }
    sum + xs.len() as u32
}
