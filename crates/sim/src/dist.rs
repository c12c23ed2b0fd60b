//! Seeded random distributions for workload synthesis.
//!
//! The synthetic DaCapo heap generators need two shapes beyond the uniform
//! ranges of [`Rng::random_range`]: log-normal object sizes (heaps are
//! dominated by small objects with a long tail), and Zipf-distributed
//! reference popularity (the paper observes that ~56 hot objects receive
//! ~10% of all mark operations, Fig. 21a). These are implemented directly
//! against the in-tree [`Rng`] trait so the project needs no external
//! crates at all.

use crate::rng::Rng;

/// Samples a standard normal via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use tracegc_sim::rng::StdRng;
/// let mut rng = StdRng::seed_from_u64(1);
/// let x = tracegc_sim::dist::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a log-normal value with the given parameters of the underlying
/// normal (`mu`, `sigma`).
pub fn log_normal<R: Rng>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// A Zipf(`n`, `s`) sampler over ranks `0..n` using inverse-CDF lookup on a
/// precomputed table.
///
/// Rank 0 is the most popular element. Used to model the skewed object
/// popularity behind the paper's mark-bit cache (Fig. 21).
///
/// # Examples
///
/// ```
/// use tracegc_sim::dist::Zipf;
/// use tracegc_sim::rng::StdRng;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = StdRng::seed_from_u64(7);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` elements with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one element");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler covers zero ranks (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..n`, rank 0 most likely.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point returns the first index whose cdf >= u.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability mass of the given rank.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;

    #[test]
    fn normal_has_roughly_zero_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| standard_normal(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 3.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let zipf = Zipf::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(44);
        let mut counts = vec![0u64; 50];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[49]);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let zipf = Zipf::new(10, 0.9);
        let total: f64 = (0..10).map(|r| zipf.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(zipf.pmf(10), 0.0);
    }

    #[test]
    fn zipf_with_zero_exponent_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((zipf.pmf(r) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_samples_are_in_range() {
        let zipf = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..1000 {
            assert!(zipf.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn determinism_same_seed_same_sequence() {
        let zipf = Zipf::new(100, 1.0);
        let seq = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(7), seq(7));
    }
}
