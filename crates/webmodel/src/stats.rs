//! Seeded randomness and the distributions used by the site generator.
//!
//! Everything is keyed: a quantity is drawn from a generator derived
//! deterministically from `(seed, label)` so that regenerating a site
//! gives byte-identical results regardless of call order.

use std::fmt;
use std::ops::Range;

use cachecatalyst_httpwire::hash::Fnv1a64;

/// Derives a child seed from a parent seed and a label (FNV-1a over the
/// label, seeded with the parent and mixed with SplitMix64).
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut fold = Fnv1a64::with_seed(seed);
    fold.write(label.as_bytes());
    splitmix64(fold.finish())
}

/// [`derive_seed`] of the label `args` would format to, fed to the
/// fold piece by piece instead of built: `derive_seed_fmt(s,
/// format_args!("{host}{path}"))` equals `derive_seed(s,
/// &format!("{host}{path}"))` and allocates nothing.
pub fn derive_seed_fmt(seed: u64, label: fmt::Arguments<'_>) -> u64 {
    let mut fold = Fnv1a64::with_seed(seed);
    fmt::write(&mut fold, label).expect("folding bytes cannot fail");
    splitmix64(fold.finish())
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: decorrelates nearby seeds.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GOLDEN_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The workspace's only random generator: a SplitMix64 counter, one
/// `u64` of state, three draw shapes.
///
/// It is owned here, not taken from the `rand` crate, because what
/// every seeded corpus, trace, test golden, `results/*.txt` and exact
/// benchmark metric requires of it is *value stability* — the same
/// draws for the same seed in every build, on every platform, forever
/// — and `StdRng` documents that it does not promise that. So this
/// stream is frozen: "improving" the step, the `f64` conversion or the
/// range reduction changes every pinned artefact at once.
/// `the_stream_is_pinned` below and the corpus and trace fingerprints
/// in `tests/determinism.rs` are what fail when that happens.
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> SeededRng {
        SeededRng { state: seed }
    }

    /// The next 64 bits of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform in `[0, 1)`: the top 53 bits as a mantissa.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An integer in `range`, by plain modulo: the bias is below 2⁻³⁹
    /// for every span the models draw, and part of the stream.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// Uniform in `range`: `lo + unit · (hi − lo)`.
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + self.unit() * (range.end - range.start)
    }
}

/// A deterministic RNG for a `(seed, label)` pair.
pub fn rng_for(seed: u64, label: &str) -> SeededRng {
    SeededRng::new(derive_seed(seed, label))
}

/// Samples a standard normal via Box–Muller.
pub fn sample_normal(rng: &mut SeededRng) -> f64 {
    loop {
        let u1 = rng.unit();
        let u2 = rng.unit();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Samples a log-normal with the given *median* and `sigma` (shape).
/// The median parameterization (`exp(mu)`) is easier to calibrate
/// against published percentile tables than the mean.
pub fn sample_lognormal(rng: &mut SeededRng, median: f64, sigma: f64) -> f64 {
    (median.ln() + sigma * sample_normal(rng)).exp()
}

/// Samples an exponential with the given mean.
pub fn sample_exp(rng: &mut SeededRng, mean: f64) -> f64 {
    -mean * (1.0 - rng.unit()).ln()
}

/// Weighted choice: returns the index of the chosen weight.
pub fn weighted_choice(rng: &mut SeededRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut x = rng.unit() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Summary statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| {
            let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
            sorted[idx]
        };
        Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: *sorted.last().unwrap(),
            p50: pct(0.5),
            p90: pct(0.9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        let a = derive_seed(42, "site-0");
        let b = derive_seed(42, "site-0");
        let c = derive_seed(42, "site-1");
        let d = derive_seed(43, "site-0");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn a_formatted_label_folds_as_the_string_it_formats_to() {
        for (host, path, version) in [
            ("", "", 0u64),
            ("s.example", "/a.css", 7),
            ("h", "/x", u64::MAX),
        ] {
            assert_eq!(
                derive_seed_fmt(9, format_args!("{host}{path}:v{version}")),
                derive_seed(9, &format!("{host}{path}:v{version}"))
            );
        }
    }

    #[test]
    fn rng_for_is_reproducible() {
        let mut r1 = rng_for(7, "x");
        let mut r2 = rng_for(7, "x");
        let v1: Vec<u64> = (0..8).map(|_| r1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| r2.next_u64()).collect();
        assert_eq!(v1, v2);
    }

    /// The frozen stream (see [`SeededRng`]): captured at PR 16 from
    /// `vendor/rand`'s `StdRng`, whose draws this type reproduces.
    #[test]
    fn the_stream_is_pinned() {
        let mut rng = rng_for(42, "x");
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xaef7_3cce_f06c_d72c,
                0x1e53_b4df_aa23_f213,
                0xa516_3e9a_df75_b67f,
                0x80c3_a2ae_10ae_1815,
                0x545e_1d2d_ff4c_79c0,
                0xaa81_8c1f_e6b7_3be8,
                0x38bd_9bf5_c3cc_6e66,
                0xce85_68d5_5d64_766a,
            ]
        );
        assert_eq!(rng.unit().to_bits(), 0x3fd9_66b3_67bc_7474);
        assert_eq!(rng.range(10..20), 14);
        assert_eq!(rng.range_f64(0.25..0.75).to_bits(), 0x3fe6_3d07_7aa3_b50c);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = rng_for(1, "normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_is_calibrated() {
        let mut rng = rng_for(2, "lognormal");
        let samples: Vec<f64> = (0..20_000)
            .map(|_| sample_lognormal(&mut rng, 30_000.0, 1.0))
            .collect();
        let s = Summary::of(&samples);
        let rel = (s.p50 - 30_000.0).abs() / 30_000.0;
        assert!(rel < 0.05, "median off by {rel}");
        assert!(s.mean > s.p50, "lognormal is right-skewed");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = rng_for(3, "exp");
        let samples: Vec<f64> = (0..20_000).map(|_| sample_exp(&mut rng, 5.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = rng_for(4, "wc");
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_choice(&mut rng, &[1.0, 2.0, 7.0])] += 1;
        }
        assert!(counts[2] > counts[1] && counts[1] > counts[0]);
        let frac2 = counts[2] as f64 / 30_000.0;
        assert!((frac2 - 0.7).abs() < 0.03, "frac {frac2}");
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.mean, 3.0);
    }
}
