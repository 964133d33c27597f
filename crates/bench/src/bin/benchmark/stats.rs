//! Order statistics for timings: median, tail percentiles that are only
//! reported when the sample supports them, and the quartiles `compare`
//! judges spread by.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; below that it is a reading of a handful of outliers.
pub const MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => v.get(n / 2).copied(),
        _ => Some((v.get(n / 2 - 1)? + v.get(n / 2)?) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Nearest-rank `p`-th percentile (0 < p < 100), or `None` unless at
/// least [`MIN_BEYOND`] samples lie strictly beyond its rank.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    v.get(rank - 1).copied()
}

/// The three cut points of Python's `statistics.quantiles(xs, n=4)`
/// (its default "exclusive" method); `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v.get(j - 1)? * (4.0 - delta) + v.get(j)? * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1..=1000: p99 has rank 990 and exactly 10 samples beyond it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 99.0), Some(990.0));
        // 999 samples: rank 990 leaves only 9 beyond, so no p99.
        assert_eq!(tail_percentile(&xs[..999], 99.0), None);
        // A p90 over 100 samples is supported, over 99 it is not.
        assert_eq!(tail_percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 90.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
