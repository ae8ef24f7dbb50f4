//! Per-query `(b, r)` tuning of the dynamic LSH (§5.5, Eq. 22–26).
//!
//! Each partition's LSH Forest can be queried at any `(b ≤ b_max,
//! r ≤ r_max)`. For a query of size `q`, a partition with upper bound `u`,
//! and containment threshold `t*`, the probability that a domain with
//! containment `t` becomes a candidate is
//!
//! ```text
//! P(t | x, q, b, r) = 1 − (1 − ŝ_{x,q}(t)^r)^b        (Eq. 22)
//! ```
//!
//! The tuner numerically integrates the false-positive and false-negative
//! probability masses (Eq. 23–24) with `x` approximated by the partition
//! upper bound `u` (Eq. 26), and picks the grid point minimising their sum.
//! Because both integrals depend on `(x, q)` only through the ratio
//! `x / q`, results are memoised on a quantised log-ratio — the paper's
//! "pre-computed FP and FN" table, built lazily.

use lshe_minhash::hash::FastHashMap;
use parking_lot::RwLock;

/// Number of trapezoid intervals per integral. The integrand is smooth and
/// bounded by 1; 128 intervals keep the quadrature error orders of
/// magnitude below the decision boundaries between grid points.
const INTEGRATION_STEPS: usize = 128;

/// Probability of candidacy as a function of containment `t`, for a domain
/// of size `x = ratio·q` (Eq. 22). `ratio = x/q`.
///
/// # Panics
/// Panics if `b`/`r` are zero or `ratio` is not positive.
#[must_use]
pub fn candidate_probability_containment(t: f64, ratio: f64, b: u32, r: u32) -> f64 {
    assert!(b > 0 && r > 0, "banding parameters must be positive");
    assert!(ratio > 0.0, "size ratio must be positive");
    let denom = ratio + 1.0 - t;
    if denom <= 0.0 {
        return 1.0;
    }
    let s = (t / denom).clamp(0.0, 1.0);
    1.0 - (1.0 - s.powi(r as i32)).powi(b as i32)
}

fn trapezoid(lo: f64, hi: f64, f: impl Fn(f64) -> f64) -> f64 {
    if hi <= lo {
        return 0.0;
    }
    let h = (hi - lo) / INTEGRATION_STEPS as f64;
    let mut acc = 0.5 * (f(lo) + f(hi));
    for i in 1..INTEGRATION_STEPS {
        acc += f(lo + h * i as f64);
    }
    acc * h
}

/// False-positive probability mass (Eq. 23): candidates whose containment
/// falls below `t*`, integrated up to the reachable maximum `min(t*, x/q)`.
#[must_use]
pub fn false_positive_area(ratio: f64, t_star: f64, b: u32, r: u32) -> f64 {
    let hi = t_star.min(ratio);
    trapezoid(0.0, hi, |t| {
        candidate_probability_containment(t, ratio, b, r)
    })
}

/// False-negative probability mass (Eq. 24): non-candidates whose
/// containment meets `t*`, integrated over `[t*, min(1, x/q)]` (zero when
/// the partition cannot reach the threshold at all).
#[must_use]
pub fn false_negative_area(ratio: f64, t_star: f64, b: u32, r: u32) -> f64 {
    let hi = ratio.min(1.0);
    if hi < t_star {
        return 0.0;
    }
    trapezoid(t_star, hi, |t| {
        1.0 - candidate_probability_containment(t, ratio, b, r)
    })
}

/// A tuned banding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedParams {
    /// Number of prefix trees to consult.
    pub b: u32,
    /// Prefix depth.
    pub r: u32,
}

/// The `(b, r)` optimiser with its lazy memo table.
///
/// One tuner is shared by all partitions of an ensemble; it is cheap to
/// create and thread-safe (reads take a shared lock, inserts an exclusive
/// one).
#[derive(Debug)]
pub struct Tuner {
    b_max: u32,
    r_max: u32,
    /// (quantised ln ratio, quantised t*) → optimum.
    cache: RwLock<FastHashMap<(i32, u16), TunedParams>>,
}

impl Tuner {
    /// Quantisation step for `ln(x/q)`: 0.5% relative error in the ratio,
    /// far below the granularity at which the integer grid optimum moves.
    const LOG_RATIO_STEP: f64 = 0.005;

    /// Creates a tuner for the `(1..=b_max, 1..=r_max)` grid.
    ///
    /// # Panics
    /// Panics if either maximum is zero.
    #[must_use]
    pub fn new(b_max: u32, r_max: u32) -> Self {
        assert!(b_max > 0 && r_max > 0, "grid must be non-empty");
        Self {
            b_max,
            r_max,
            cache: RwLock::new(FastHashMap::default()),
        }
    }

    /// Largest `b` in the grid.
    #[must_use]
    pub fn b_max(&self) -> u32 {
        self.b_max
    }

    /// Largest `r` in the grid.
    #[must_use]
    pub fn r_max(&self) -> u32 {
        self.r_max
    }

    /// Number of memoised optima so far.
    #[must_use]
    #[cfg(test)]
    pub fn cache_len(&self) -> usize {
        self.cache.read().len()
    }

    /// Exhaustive grid minimisation of `FP + FN` (Eq. 26), uncached.
    #[must_use]
    pub fn optimize_uncached(&self, ratio: f64, t_star: f64) -> TunedParams {
        assert!(ratio > 0.0, "size ratio must be positive");
        assert!((0.0..=1.0).contains(&t_star), "threshold must be in [0, 1]");
        let mut best = TunedParams { b: 1, r: 1 };
        let mut best_cost = f64::INFINITY;
        for r in 1..=self.r_max {
            for b in 1..=self.b_max {
                let cost = false_positive_area(ratio, t_star, b, r)
                    + false_negative_area(ratio, t_star, b, r);
                if cost < best_cost {
                    best_cost = cost;
                    best = TunedParams { b, r };
                }
            }
        }
        best
    }

    /// Memoised optimisation: the partition upper bound `u` plays the role
    /// of `x` (Eq. 26), `q` is the query size.
    ///
    /// # Panics
    /// Panics on zero sizes or out-of-range threshold.
    #[must_use]
    pub fn optimize(&self, u: u64, q: u64, t_star: f64) -> TunedParams {
        assert!(u > 0 && q > 0, "sizes must be positive");
        let ratio = u as f64 / q as f64;
        let key = (
            (ratio.ln() / Self::LOG_RATIO_STEP).round() as i32,
            (t_star * 1000.0).round() as u16,
        );
        if let Some(&hit) = self.cache.read().get(&key) {
            return hit;
        }
        // Recompute at the quantised ratio so every query mapping to this
        // key gets a consistent answer.
        let snapped = (f64::from(key.0) * Self::LOG_RATIO_STEP).exp();
        let params = self.optimize_uncached(snapped, t_star);
        self.cache.write().insert(key, params);
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_curve_shape_fig3() {
        // Figure 3's setting: x = 10, q = 5, b = 256, r = 4, t* = 0.5.
        // The curve must rise steeply around the implied threshold.
        let ratio = 2.0;
        let p_low = candidate_probability_containment(0.1, ratio, 256, 4);
        let p_mid = candidate_probability_containment(0.5, ratio, 256, 4);
        let p_high = candidate_probability_containment(0.9, ratio, 256, 4);
        assert!(p_low < 0.35, "p(0.1) = {p_low}");
        assert!(p_high > 0.95, "p(0.9) = {p_high}");
        assert!(p_low < p_mid && p_mid < p_high);
    }

    #[test]
    fn probability_monotone_in_t() {
        let mut prev = 0.0;
        for i in 0..=50 {
            let t = f64::from(i) / 50.0;
            let p = candidate_probability_containment(t, 3.0, 32, 4);
            assert!(p >= prev - 1e-12);
            prev = p;
        }
    }

    #[test]
    fn areas_are_probability_masses() {
        for &(ratio, t) in &[(1.0f64, 0.5f64), (10.0, 0.3), (0.5, 0.8), (100.0, 0.99)] {
            for &(b, r) in &[(1u32, 1u32), (32, 8), (8, 2)] {
                let fp = false_positive_area(ratio, t, b, r);
                let fnn = false_negative_area(ratio, t, b, r);
                assert!((0.0..=1.0).contains(&fp), "fp {fp}");
                assert!((0.0..=1.0).contains(&fnn), "fn {fnn}");
            }
        }
    }

    #[test]
    fn fn_zero_when_partition_cannot_reach_threshold() {
        // ratio = x/q = 0.3 < t* = 0.5: no domain here can satisfy t*.
        assert_eq!(false_negative_area(0.3, 0.5, 16, 4), 0.0);
    }

    #[test]
    fn more_bands_trade_fn_for_fp() {
        let (ratio, t) = (2.0, 0.5);
        let fp_few = false_positive_area(ratio, t, 2, 4);
        let fp_many = false_positive_area(ratio, t, 32, 4);
        let fn_few = false_negative_area(ratio, t, 2, 4);
        let fn_many = false_negative_area(ratio, t, 32, 4);
        assert!(fp_many > fp_few, "fp: {fp_many} vs {fp_few}");
        assert!(fn_many < fn_few, "fn: {fn_many} vs {fn_few}");
    }

    #[test]
    fn optimum_beats_fixed_corners() {
        let tuner = Tuner::new(32, 8);
        for &(ratio, t) in &[(1.5f64, 0.5f64), (20.0, 0.8), (3.0, 0.2)] {
            let opt = tuner.optimize_uncached(ratio, t);
            let opt_cost = false_positive_area(ratio, t, opt.b, opt.r)
                + false_negative_area(ratio, t, opt.b, opt.r);
            for &(b, r) in &[(1u32, 1u32), (32u32, 8u32), (1, 8), (32, 1)] {
                let c = false_positive_area(ratio, t, b, r) + false_negative_area(ratio, t, b, r);
                assert!(
                    opt_cost <= c + 1e-12,
                    "ratio={ratio} t={t}: opt {opt_cost} vs ({b},{r}) {c}"
                );
            }
        }
    }

    #[test]
    fn higher_threshold_prefers_deeper_prefixes() {
        // Sharper thresholds need more selective bands (higher r, or fewer
        // bands). Compare selectivity via the implied Jaccard threshold.
        let tuner = Tuner::new(32, 8);
        let loose = tuner.optimize_uncached(2.0, 0.2);
        let sharp = tuner.optimize_uncached(2.0, 0.9);
        let sel = |p: TunedParams| (1.0 / f64::from(p.b)).powf(1.0 / f64::from(p.r));
        assert!(
            sel(sharp) > sel(loose),
            "sharp {sharp:?} vs loose {loose:?}"
        );
    }

    #[test]
    fn cached_matches_uncached_at_snapped_ratio() {
        let tuner = Tuner::new(32, 8);
        let p1 = tuner.optimize(1000, 50, 0.5);
        assert_eq!(tuner.cache_len(), 1);
        let p2 = tuner.optimize(1000, 50, 0.5);
        assert_eq!(p1, p2);
        assert_eq!(tuner.cache_len(), 1);
        // A within-quantum perturbation hits the same cache entry.
        let p3 = tuner.optimize(1001, 50, 0.5);
        assert_eq!(p1, p3);
        assert_eq!(tuner.cache_len(), 1);
    }

    #[test]
    fn tuner_respects_grid_bounds() {
        let tuner = Tuner::new(4, 2);
        for &(u, q, t) in &[(100u64, 10u64, 0.5f64), (10, 100, 0.9), (1000, 1, 0.1)] {
            let p = tuner.optimize(u, q, t);
            assert!(p.b >= 1 && p.b <= 4);
            assert!(p.r >= 1 && p.r <= 2);
        }
    }

    #[test]
    fn integral_matches_closed_form_for_r1_b1() {
        // With b = r = 1, P(t) = s(t) = t/(ratio+1-t). FP area over [0, t*]
        // has the closed form: ∫ t/(c - t) dt = -t - c·ln(c - t), with
        // c = ratio + 1.
        let (ratio, t_star) = (2.0f64, 0.6f64);
        let c = ratio + 1.0;
        let closed = -t_star - c * ((c - t_star).ln() - c.ln());
        let numeric = false_positive_area(ratio, t_star, 1, 1);
        assert!(
            (closed - numeric).abs() < 1e-4,
            "closed {closed} vs numeric {numeric}"
        );
    }

    #[test]
    #[should_panic(expected = "grid must be non-empty")]
    fn empty_grid_rejected() {
        let _ = Tuner::new(0, 8);
    }
}
