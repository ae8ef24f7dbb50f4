//! Truncated power-law samplers for domain sizes.
//!
//! Figure 1 of the paper shows that both the Canadian Open Data corpus and
//! the WDC Web Table corpus have domain-size distributions following a
//! power law `f(x) ∝ x^(−α)` with `α > 1`. All synthetic corpora in this
//! workspace draw their sizes from [`PowerLawSizes`], a truncated continuous
//! Pareto sampled by inverse transform and floored to integers.

use rand::Rng;

/// A truncated power-law size distribution on `[min_size, max_size]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawSizes {
    min_size: u64,
    max_size: u64,
    alpha: f64,
}

impl PowerLawSizes {
    /// Creates a sampler for `f(x) ∝ x^(−α)` truncated to
    /// `[min_size, max_size]`.
    ///
    /// # Panics
    /// Panics unless `1 < α`, `0 < min_size ≤ max_size`.
    #[must_use]
    pub fn new(min_size: u64, max_size: u64, alpha: f64) -> Self {
        assert!(alpha > 1.0, "power-law exponent must exceed 1");
        assert!(min_size > 0, "minimum size must be positive");
        assert!(min_size <= max_size, "size range must be non-empty");
        Self {
            min_size,
            max_size,
            alpha,
        }
    }

    /// Lower bound of the support.
    #[must_use]
    pub fn min_size(&self) -> u64 {
        self.min_size
    }

    /// Upper bound of the support.
    #[must_use]
    pub fn max_size(&self) -> u64 {
        self.max_size
    }

    /// The exponent α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Draws one size.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.min_size == self.max_size {
            return self.min_size;
        }
        // Inverse transform for the truncated Pareto on [l, u+1):
        //   F^{-1}(p) = [l^(1−α) + p·((u+1)^(1−α) − l^(1−α))]^(1/(1−α))
        // flooring maps the continuous draw onto integers l..=u with the
        // correct tail shape.
        let l = self.min_size as f64;
        let u = (self.max_size + 1) as f64;
        let one_minus_a = 1.0 - self.alpha;
        let p: f64 = rng.gen();
        let x = (l.powf(one_minus_a) + p * (u.powf(one_minus_a) - l.powf(one_minus_a)))
            .powf(1.0 / one_minus_a);
        (x.floor() as u64).clamp(self.min_size, self.max_size)
    }

    /// Draws `n` sizes.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Theoretical complementary CDF `P(X ≥ x)` of the continuous
    /// truncation, which the tests validate the sampler against.
    #[must_use]
    #[cfg(test)]
    pub fn ccdf(&self, x: f64) -> f64 {
        let l = self.min_size as f64;
        let u = (self.max_size + 1) as f64;
        if x <= l {
            return 1.0;
        }
        if x >= u {
            return 0.0;
        }
        let one_minus_a = 1.0 - self.alpha;
        (u.powf(one_minus_a) - x.powf(one_minus_a)) / (u.powf(one_minus_a) - l.powf(one_minus_a))
    }
}

/// Builds a log2-bucketed histogram of sizes: bucket `k` counts sizes in
/// `[2^k, 2^(k+1))`. This is the exact presentation of Figure 1.
#[must_use]
pub fn log2_histogram(sizes: &[u64]) -> Vec<(u32, usize)> {
    let mut buckets: Vec<usize> = Vec::new();
    for &s in sizes {
        if s == 0 {
            continue;
        }
        let k = 63 - s.leading_zeros();
        if buckets.len() <= k as usize {
            buckets.resize(k as usize + 1, 0);
        }
        buckets[k as usize] += 1;
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(k, c)| (k as u32, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let d = PowerLawSizes::new(10, 1 << 20, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((10..=(1 << 20)).contains(&s));
        }
    }

    #[test]
    fn degenerate_range_is_constant() {
        let d = PowerLawSizes::new(7, 7, 2.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(d.sample(&mut rng), 7);
    }

    #[test]
    fn empirical_ccdf_matches_theory() {
        let d = PowerLawSizes::new(10, 100_000, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let sizes = d.sample_many(&mut rng, n);
        for &x in &[20.0f64, 100.0, 1_000.0, 10_000.0] {
            let emp = sizes.iter().filter(|&&s| (s as f64) >= x).count() as f64 / n as f64;
            let theory = d.ccdf(x);
            assert!(
                (emp - theory).abs() < 0.01 + theory * 0.15,
                "x={x}: empirical {emp} vs theory {theory}"
            );
        }
    }

    #[test]
    fn smaller_sizes_dominate() {
        let d = PowerLawSizes::new(10, 1 << 16, 2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let sizes = d.sample_many(&mut rng, 20_000);
        let small = sizes.iter().filter(|&&s| s < 100).count();
        assert!(
            small > sizes.len() / 2,
            "power law must be bottom-heavy: {small}"
        );
    }

    #[test]
    fn log2_histogram_buckets_correctly() {
        let h = log2_histogram(&[1, 2, 3, 4, 7, 8, 1024]);
        // bucket 0: {1}; bucket 1: {2,3}; bucket 2: {4,7}; bucket 3: {8};
        // bucket 10: {1024}.
        let get = |k: u32| h.iter().find(|&&(b, _)| b == k).map_or(0, |&(_, c)| c);
        assert_eq!(get(0), 1);
        assert_eq!(get(1), 2);
        assert_eq!(get(2), 2);
        assert_eq!(get(3), 1);
        assert_eq!(get(10), 1);
    }

    #[test]
    fn log2_histogram_slope_reflects_alpha() {
        // For f(x) ∝ x^-2, the count in bucket k falls roughly by 2× per
        // bucket (density integral over dyadic ranges ∝ 2^-k).
        let d = PowerLawSizes::new(1, 1 << 16, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let h = log2_histogram(&d.sample_many(&mut rng, 200_000));
        let get = |k: u32| h.iter().find(|&&(b, _)| b == k).map_or(0, |&(_, c)| c);
        for k in 0..6 {
            let ratio = get(k) as f64 / get(k + 1).max(1) as f64;
            assert!(
                ratio > 1.4 && ratio < 2.8,
                "bucket {k}->{}: ratio {ratio}",
                k + 1
            );
        }
    }

    #[test]
    #[should_panic(expected = "exponent must exceed 1")]
    fn alpha_at_most_one_rejected() {
        let _ = PowerLawSizes::new(1, 10, 1.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = PowerLawSizes::new(5, 5_000, 1.8);
        let a = d.sample_many(&mut StdRng::seed_from_u64(9), 100);
        let b = d.sample_many(&mut StdRng::seed_from_u64(9), 100);
        assert_eq!(a, b);
    }
}
