//! # lshe-minhash
//!
//! Minwise-hashing substrate for the LSH Ensemble reproduction
//! (Zhu, Nargesian, Pu & Miller, *LSH Ensemble: Internet-Scale Domain
//! Search*, VLDB 2016).
//!
//! This crate provides the sketching layer everything else is built on:
//!
//! * [`hash`] — deterministic 64-bit hashing of raw values into the value
//!   universe, plus the fast internal hasher used by indexes.
//! * [`perm`] — the pairwise-independent affine permutation family over the
//!   Mersenne prime `2^61 − 1`.
//! * [`kernel`] — the [`FoldKernel`] min-fold inner loop (one split-32
//!   body compiled for AVX-512 and for AVX2, or a portable `u128` loop,
//!   the arm picked once by runtime detection) and the [`count_equal`] /
//!   [`count_equal_row`] match counts (AVX2 compares or a portable loop);
//!   every path gives bit-identical results.
//! * [`signature`] — [`MinHasher`] / [`Signature`]: signature generation
//!   (the 64-bit fold narrowed once to 32-bit lanes; an index stores the
//!   lanes it only compares for equality through [`narrow_lane`], at 16),
//!   Jaccard estimation (Eq. 4 of the paper), union merging,
//!   cardinality estimation (`approx(|Q|)`, §5.1), and containment
//!   estimation.
//! * the inclusion–exclusion conversions between Jaccard similarity and set
//!   containment (Eq. 6) as free functions, re-used by the core crate's
//!   threshold machinery.
//! * [`lanes`] — the process-wide worker-lane budget shared by every
//!   batched fan-out in the workspace (bulk sketching here, the batched
//!   query sweeps upstream).
//!
//! ## Quick example
//!
//! ```
//! use lshe_minhash::{MinHasher, hash::hash_str};
//!
//! let hasher = MinHasher::new(256);
//! let q = hasher.signature(["ontario", "toronto"].map(hash_str));
//! let x = hasher.signature(["ontario", "toronto", "halifax"].map(hash_str));
//! // Jaccard(Q, X) = 2/3; the 256-slot estimate lands close.
//! assert!((q.jaccard(&x) - 2.0 / 3.0).abs() < 0.15);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod codec;
pub mod hash;
pub mod kernel;
pub mod lanes;
pub mod perm;
pub mod signature;

pub use codec::CodecError;
pub use kernel::{count_equal, count_equal_row, FoldKernel};
pub use perm::{AffinePermutation, PermutationFamily, EMPTY_SLOT, MERSENNE_PRIME};
pub use signature::{
    narrow_lane, truncate_slot, MinHasher, Signature, DEFAULT_NUM_PERM, EMPTY_LANE,
};

/// Converts a containment score to the corresponding Jaccard similarity for
/// domain sizes `x = |X|` and `q = |Q|` (Eq. 6, left):
///
/// ```text
/// ŝ_{x,q}(t) = t / (x/q + 1 − t)
/// ```
///
/// Output is clamped to `[0, 1]`.
///
/// # Panics
/// Panics if `q ≤ 0` or `x < 0`.
#[must_use]
pub fn jaccard_from_containment(t: f64, x: f64, q: f64) -> f64 {
    assert!(q > 0.0, "query size must be positive");
    assert!(x >= 0.0, "domain size must be non-negative");
    let denom = x / q + 1.0 - t;
    if denom <= 0.0 {
        // Only reachable when t > x/q + 1 ≥ 1, i.e. an out-of-range t;
        // saturate rather than return a negative similarity.
        return 1.0;
    }
    (t / denom).clamp(0.0, 1.0)
}

/// Converts a Jaccard similarity to the corresponding containment score for
/// domain sizes `x = |X|` and `q = |Q|` (Eq. 6, right):
///
/// ```text
/// t̂_{x,q}(s) = (x/q + 1)·s / (1 + s)
/// ```
///
/// Output is clamped to `[0, 1]` (containment can never exceed 1, and also
/// never exceeds `x/q`; the caller may apply the tighter bound if needed).
///
/// # Panics
/// Panics if `q ≤ 0` or `x < 0`.
#[must_use]
pub fn containment_from_jaccard(s: f64, x: f64, q: f64) -> f64 {
    assert!(q > 0.0, "query size must be positive");
    assert!(x >= 0.0, "domain size must be non-negative");
    ((x / q + 1.0) * s / (1.0 + s)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_inverse() {
        for &(x, q) in &[(10.0f64, 5.0f64), (100.0, 100.0), (3.0, 1.0), (1.0, 7.0)] {
            for i in 0..=20 {
                let t = f64::from(i) / 20.0 * (x / q).min(1.0);
                let s = jaccard_from_containment(t, x, q);
                let back = containment_from_jaccard(s, x, q);
                assert!(
                    (back - t).abs() < 1e-9,
                    "x={x} q={q} t={t} s={s} back={back}"
                );
            }
        }
    }

    #[test]
    fn paper_example_values() {
        // §2: Q = {Ontario, Toronto}, Provinces (3 values, overlap 1),
        // Locations (12 values, overlap 2).
        // s(Q, Provinces) = 1/4, t(Q, Provinces) = 1/2.
        let s = 0.25;
        let t = containment_from_jaccard(s, 3.0, 2.0);
        assert!((t - 0.5).abs() < 1e-12);
        // s(Q, Locations) = 2/12/... = 2 / (2 + 12 - 2) = 1/6... the paper
        // reports 0.083 ≈ 1/12? No: |Q ∪ L| = 12, |Q ∩ L| = 2 (Q ⊆ L),
        // s = 2/12 = 1/6 ≈ 0.167. The paper's 0.083 uses |Q∪L| = 24?  We
        // verify the identity rather than the prose: t = 1.0 at s = 1/6.
        let t = containment_from_jaccard(1.0 / 6.0, 12.0, 2.0);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jaccard_monotone_in_containment() {
        let (x, q) = (50.0, 10.0);
        let mut prev = -1.0;
        for i in 0..=100 {
            let t = f64::from(i) / 100.0;
            let s = jaccard_from_containment(t, x, q);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn conversion_extremes() {
        assert_eq!(jaccard_from_containment(0.0, 10.0, 5.0), 0.0);
        assert_eq!(containment_from_jaccard(0.0, 10.0, 5.0), 0.0);
        // t = 1 with x = q gives s = 1 (identical sets).
        assert!((jaccard_from_containment(1.0, 5.0, 5.0) - 1.0).abs() < 1e-12);
        // Degenerate denominator saturates instead of panicking.
        assert_eq!(jaccard_from_containment(1.5, 0.5, 1.0), 1.0);
    }

    #[test]
    fn larger_x_lowers_jaccard_for_same_t() {
        let q = 10.0;
        let t = 0.6;
        let s_small = jaccard_from_containment(t, 10.0, q);
        let s_big = jaccard_from_containment(t, 1000.0, q);
        assert!(
            s_big < s_small,
            "Jaccard must shrink as |X| grows at fixed containment"
        );
    }
}
