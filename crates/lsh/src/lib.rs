//! # lshe-lsh
//!
//! Locality Sensitive Hashing indexes over MinHash signatures, the substrate
//! beneath the LSH Ensemble (§3.2 and §5.5 of the paper):
//!
//! * [`static_lsh::MinHashLsh`] — the classic banded index with a fixed
//!   `(b, r)` configuration and therefore a fixed implicit Jaccard threshold
//!   `s* ≈ (1/b)^(1/r)` (Eq. 21). Used by ablations and as a reference in
//!   tests.
//! * [`forest::LshForest`] — the dynamic index (LSH Forest, Bawa et al.):
//!   `b_max` prefix trees of depth `r_max`, with the *effective* `(b, r)`
//!   chosen per query. This is what each LSH Ensemble partition uses so the
//!   Jaccard threshold can vary with the query (§5.5).
//!
//! Both indexes return **candidate sets**: supersets-with-errors of the true
//! similarity neighbourhood, to be post-filtered or consumed as-is depending
//! on the application (the paper's evaluation consumes them as-is).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod forest;
pub mod persist;
pub mod static_lsh;

pub use forest::{Layout, LshForest, Row, RowBuf, RowLanes};
pub use static_lsh::MinHashLsh;

/// Identifier of an indexed domain.
///
/// `u32` bounds a single index at ~4.29 billion domains — an order of
/// magnitude above the paper's largest corpus (262,893,406 domains) — while
/// halving id-array memory relative to `u64`.
pub type DomainId = u32;

/// Probability that a domain at Jaccard similarity `s` becomes a candidate
/// under banding parameters `(b, r)` (Eq. 5):
///
/// ```text
/// P(s | b, r) = 1 − (1 − s^r)^b
/// ```
///
/// # Panics
/// Panics if `b` or `r` is zero, or if `s` is outside `[0, 1]`.
#[must_use]
pub fn candidate_probability(s: f64, b: u32, r: u32) -> f64 {
    assert!(b > 0 && r > 0, "banding parameters must be positive");
    assert!((0.0..=1.0).contains(&s), "similarity must be in [0, 1]");
    1.0 - (1.0 - s.powi(r as i32)).powi(b as i32)
}

/// The implicit Jaccard threshold of a fixed `(b, r)` configuration — the
/// similarity at which [`candidate_probability`] crosses ½ steeply —
/// approximated as `(1/b)^(1/r)` (Eq. 21).
#[must_use]
pub fn implicit_threshold(b: u32, r: u32) -> f64 {
    assert!(b > 0 && r > 0, "banding parameters must be positive");
    (1.0 / f64::from(b)).powf(1.0 / f64::from(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_probability_boundaries() {
        assert_eq!(candidate_probability(0.0, 32, 8), 0.0);
        assert!((candidate_probability(1.0, 32, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn candidate_probability_monotone_in_s() {
        let mut prev = 0.0;
        for i in 0..=100 {
            let s = f64::from(i) / 100.0;
            let p = candidate_probability(s, 16, 4);
            assert!(p >= prev - 1e-15);
            prev = p;
        }
    }

    #[test]
    fn candidate_probability_monotone_in_b() {
        let s = 0.4;
        let mut prev = 0.0;
        for b in 1..=64 {
            let p = candidate_probability(s, b, 4);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn more_rows_sharpen_the_curve() {
        // Raising r lowers the candidate probability at fixed s < 1, b.
        let s = 0.5;
        assert!(candidate_probability(s, 16, 8) < candidate_probability(s, 16, 2));
    }

    #[test]
    fn implicit_threshold_half_probability() {
        // At s = implicit_threshold, expected bucket hits b·s^r = 1, so
        // P = 1 − (1 − 1/b)^b ≈ 1 − 1/e ≈ 0.63.
        for &(b, r) in &[(32u32, 8u32), (16, 4), (256, 4)] {
            let s = implicit_threshold(b, r);
            let p = candidate_probability(s, b, r);
            assert!(
                (p - (1.0 - (-1.0f64).exp())).abs() < 0.05,
                "b={b} r={r} p={p}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_band_rejected() {
        let _ = candidate_probability(0.5, 0, 4);
    }
}
