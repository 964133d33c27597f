//! The Ensel neural-network baseline.
//!
//! §2.1 of the paper: Ensel "attempted to decide on the existence of a
//! dependency between objects based on time series of measurements of
//! their activity only … the decision on dependency is taken by an
//! artificial neural network", which "has to be trained in a
//! supervised manner, a laborious and delicate process".
//!
//! This module reproduces that approach faithfully enough to make the
//! paper's criticism quantitative: a small feed-forward network over
//! activity-correlation features of a pair, trained on *labeled* pairs
//! (which only an expert — or the simulator's ground truth — can
//! supply) and evaluated on held-out pairs. The `baselines` experiment
//! binary runs the comparison.

use logdep_logstore::time::TimeRange;
use logdep_logstore::{LogStore, SourceId};
use logdep_stats::sampling::Sampler;
use serde::{Deserialize, Serialize};

/// Number of activity features per pair.
pub const N_FEATURES: usize = 4;

/// Feature vector of one application pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairFeatures {
    /// `[corr_1min, corr_5min, co_activity_jaccard, near_fraction]`.
    pub values: [f64; N_FEATURES],
}

/// Configuration of feature extraction and training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnselConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs (full passes over the labeled set).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Weight-init and shuffling seed.
    pub seed: u64,
    /// "Near" radius (ms) for the burst-lag feature.
    pub near_ms: i64,
    /// Cap on sampled logs per feature computation.
    pub sample_size: usize,
}

impl Default for EnselConfig {
    fn default() -> Self {
        Self {
            hidden: 6,
            epochs: 400,
            learning_rate: 0.05,
            seed: 1,
            near_ms: 500,
            sample_size: 300,
        }
    }
}

/// Pearson correlation of two equal-length count series.
fn corr(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut dx = 0.0;
    let mut dy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let a = x - mx;
        let b = y - my;
        num += a * b;
        dx += a * a;
        dy += b * b;
    }
    let denom = (dx * dy).sqrt();
    if denom <= 0.0 {
        0.0
    } else {
        num / denom
    }
}

/// Extracts the activity features of pair `(a, b)` over `range`.
pub fn pair_features(
    store: &LogStore,
    range: TimeRange,
    a: SourceId,
    b: SourceId,
    cfg: &EnselConfig,
) -> PairFeatures {
    let ta = store.timeline(a);
    let tb = store.timeline(b);
    let counts = |tl: &logdep_logstore::Timeline, bin: i64| -> Vec<f64> {
        tl.counts_per_bin(range, bin)
            .into_iter()
            .map(|c| c as f64)
            .collect()
    };
    let a1 = counts(ta, 60_000);
    let b1 = counts(tb, 60_000);
    let a5 = counts(ta, 300_000);
    let b5 = counts(tb, 300_000);
    let corr1 = corr(&a1, &b1);
    let corr5 = corr(&a5, &b5);

    // Co-activity Jaccard over 1-minute bins.
    let (mut both, mut either) = (0usize, 0usize);
    for (x, y) in a1.iter().zip(&b1) {
        let (x, y) = (*x > 0.0, *y > 0.0);
        if x || y {
            either += 1;
            if x && y {
                both += 1;
            }
        }
    }
    let jaccard = if either == 0 {
        0.0
    } else {
        both as f64 / either as f64
    };

    // Fraction of B's logs with an A log within `near_ms`.
    let mut sampler = Sampler::from_seed(cfg.seed ^ (a.0 as u64) << 20 ^ b.0 as u64);
    let b_slot = tb.slice_in(range);
    let picks = sampler.subsample(b_slot, cfg.sample_size);
    let near = if picks.is_empty() {
        0.0
    } else {
        picks
            .iter()
            .filter(|&&t| ta.dist_to_nearest(t).is_some_and(|d| d <= cfg.near_ms))
            .count() as f64
            / picks.len() as f64
    };

    PairFeatures {
        values: [corr1, corr5, jaccard, near],
    }
}

/// A 1-hidden-layer feed-forward classifier (tanh hidden, sigmoid out).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnselClassifier {
    w1: Vec<Vec<f64>>, // hidden × features
    b1: Vec<f64>,
    w2: Vec<f64>, // hidden
    b2: f64,
}

impl EnselClassifier {
    /// Trains on labeled feature vectors by plain SGD with logistic
    /// loss. Deterministic in `cfg.seed`.
    #[expect(
        clippy::indexing_slicing,
        reason = "`order` is a permutation of the sample indices"
    )]
    pub fn train(samples: &[(PairFeatures, bool)], cfg: &EnselConfig) -> crate::Result<Self> {
        if samples.is_empty() {
            return Err(crate::MineError::NoData("training samples"));
        }
        if cfg.hidden == 0 {
            return Err(crate::MineError::InvalidConfig {
                name: "hidden",
                reason: "need at least one hidden unit".into(),
            });
        }
        let mut rng = Sampler::from_seed(cfg.seed ^ 0xe45e1);
        let mut init = || rng.unit() - 0.5;
        let mut net = Self {
            w1: (0..cfg.hidden)
                .map(|_| (0..N_FEATURES).map(|_| init()).collect())
                .collect(),
            b1: (0..cfg.hidden).map(|_| init()).collect(),
            w2: (0..cfg.hidden).map(|_| init()).collect(),
            b2: init(),
        };

        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _ in 0..cfg.epochs {
            // Deterministic reshuffle each epoch.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }
            for &idx in &order {
                let (f, label) = &samples[idx];
                net.sgd_step(&f.values, *label as u8 as f64, cfg.learning_rate);
            }
        }
        Ok(net)
    }

    fn forward(&self, x: &[f64; N_FEATURES]) -> (Vec<f64>, f64) {
        let hidden: Vec<f64> = self
            .w1
            .iter()
            .zip(&self.b1)
            .map(|(w, b)| {
                let z: f64 = w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>() + b;
                z.tanh()
            })
            .collect();
        let z: f64 = self.w2.iter().zip(&hidden).map(|(w, h)| w * h).sum::<f64>() + self.b2;
        (hidden, 1.0 / (1.0 + (-z).exp()))
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "`w1`, `b1` and `w2` all have one row per hidden unit"
    )]
    fn sgd_step(&mut self, x: &[f64; N_FEATURES], y: f64, lr: f64) {
        let (hidden, p) = self.forward(x);
        let delta_out = p - y; // dL/dz for logistic loss
        for (j, h) in hidden.iter().enumerate() {
            let grad_h = delta_out * self.w2[j] * (1.0 - h * h);
            self.w2[j] -= lr * delta_out * h;
            for (wi, xi) in self.w1[j].iter_mut().zip(x) {
                *wi -= lr * grad_h * xi;
            }
            self.b1[j] -= lr * grad_h;
        }
        self.b2 -= lr * delta_out;
    }

    /// Dependency probability for a feature vector.
    pub fn predict(&self, f: &PairFeatures) -> f64 {
        self.forward(&f.values).1
    }

    /// Hard decision at the 0.5 threshold.
    pub fn classify(&self, f: &PairFeatures) -> bool {
        self.predict(f) > 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdep_logstore::time::MS_PER_HOUR;
    use logdep_logstore::{LogRecord, Millis};

    fn feat(v: [f64; N_FEATURES]) -> PairFeatures {
        PairFeatures { values: v }
    }

    #[test]
    fn learns_a_separable_problem() {
        // Dependent pairs: high correlation and near fraction.
        let mut samples = Vec::new();
        for k in 0..40 {
            let e = (k % 7) as f64 / 100.0;
            samples.push((feat([0.8 - e, 0.85 - e, 0.7 - e, 0.9 - e]), true));
            samples.push((feat([0.05 + e, 0.1 + e, 0.2 + e, 0.02 + e]), false));
        }
        let net = EnselClassifier::train(&samples, &EnselConfig::default()).unwrap();
        assert!(net.classify(&feat([0.75, 0.8, 0.65, 0.85])));
        assert!(!net.classify(&feat([0.1, 0.12, 0.25, 0.03])));
        // Probabilities are calibrated to the right side of 0.5.
        assert!(net.predict(&feat([0.8, 0.85, 0.7, 0.9])) > 0.8);
        assert!(net.predict(&feat([0.0, 0.0, 0.0, 0.0])) < 0.2);
    }

    #[test]
    fn training_is_deterministic() {
        let samples = vec![
            (feat([0.9, 0.9, 0.8, 0.9]), true),
            (feat([0.1, 0.0, 0.1, 0.0]), false),
            (feat([0.8, 0.7, 0.9, 0.8]), true),
            (feat([0.0, 0.1, 0.2, 0.1]), false),
        ];
        let a = EnselClassifier::train(&samples, &EnselConfig::default()).unwrap();
        let b = EnselClassifier::train(&samples, &EnselConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_cases() {
        assert!(EnselClassifier::train(&[], &EnselConfig::default()).is_err());
        let bad = EnselConfig {
            hidden: 0,
            ..EnselConfig::default()
        };
        assert!(EnselClassifier::train(&[(feat([0.0; 4]), true)], &bad).is_err());
    }

    #[test]
    fn features_reflect_coupling() {
        let mut store = LogStore::new();
        let a = store.registry.source("A");
        let b = store.registry.source("B");
        let c = store.registry.source("C");
        for i in 0..300i64 {
            let t = i * 11_000 % MS_PER_HOUR;
            store.push(LogRecord::minimal(a, Millis(t)));
            store.push(LogRecord::minimal(b, Millis(t + 80)));
            store.push(LogRecord::minimal(
                c,
                Millis((i * 9_973 + 1_234) % MS_PER_HOUR),
            ));
        }
        store.finalize();
        let range = TimeRange::new(Millis(0), Millis(MS_PER_HOUR));
        let cfg = EnselConfig::default();
        let coupled = pair_features(&store, range, a, b, &cfg);
        let unrelated = pair_features(&store, range, a, c, &cfg);
        assert!(
            coupled.values[3] > 0.95,
            "near fraction should be ~1: {coupled:?}"
        );
        assert!(
            coupled.values[3] > unrelated.values[3] + 0.3,
            "{coupled:?} vs {unrelated:?}"
        );
        assert!(coupled.values[2] >= unrelated.values[2]);
    }

    #[test]
    fn corr_helper_behaviour() {
        assert!((corr(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((corr(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(corr(&[1.0], &[1.0]), 0.0);
        assert_eq!(corr(&[1.0, 1.0], &[2.0, 3.0]), 0.0, "constant series");
    }
}
