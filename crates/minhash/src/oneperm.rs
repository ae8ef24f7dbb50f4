//! One-Permutation Hashing (OPH) with rotation densification — the fast
//! alternative sketching scheme.
//!
//! Classic minwise hashing (§3.1 of the paper) applies `m` permutations to
//! every value: O(n·m) work per domain, which dominates index construction
//! (Table 4's indexing column is almost entirely sketching). One-Permutation
//! Hashing (Li, Owen & Zhang, NIPS 2012) hashes each value **once**,
//! scatters values into `m` bins by their high bits, and keeps the minimum
//! per bin: O(n + m) per domain, a ~`m`× speedup at equal signature width.
//!
//! Empty bins (likely when `n ≲ m`) would break slot-wise comparison;
//! *densification* (Shrivastava & Li, ICML 2014) fills each empty bin with
//! the value of the nearest non-empty bin to its right (circularly), mixed
//! with the borrow distance so that two signatures agree on a densified
//! slot exactly when they borrowed the same value from the same relative
//! position. The resulting slot-collision probability remains an unbiased
//! Jaccard estimator.
//!
//! OPH signatures are [`Signature`]s and plug into every index in this
//! workspace. Two caveats, documented rather than hidden:
//!
//! * OPH and classic signatures are **not comparable** with each other —
//!   pick one scheme per deployment (the ensemble only ever compares
//!   signatures produced by the same hasher).
//! * [`Signature::cardinality`] assumes classic per-permutation minima and
//!   does not apply to OPH signatures; keep exact sizes (as the ensemble
//!   builder requires anyway) or sketch with [`crate::MinHasher`] when you
//!   need `approx(|Q|)`.

use crate::hash::splitmix64;
use crate::perm::{mersenne_mod, EMPTY_SLOT};
use crate::Signature;

/// One-Permutation MinHash sketcher with rotation densification.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OnePermHasher {
    seed: u64,
    m: usize,
}

impl OnePermHasher {
    /// Workspace default seed (distinct from the classic hasher's so the
    /// two schemes can never be confused for compatible).
    pub const DEFAULT_SEED: u64 = 0x10E0_0E01_5EED_0123;

    /// Creates a sketcher with `m` bins and an explicit seed.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn with_seed(seed: u64, m: usize) -> Self {
        assert!(m > 0, "need at least one bin");
        Self { seed, m }
    }

    /// Creates a sketcher with the default seed.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self::with_seed(Self::DEFAULT_SEED, m)
    }

    /// Signature width `m`.
    #[must_use]
    pub fn num_bins(&self) -> usize {
        self.m
    }

    /// True if signatures from `other` are comparable with ours.
    #[must_use]
    pub fn compatible_with(&self, other: &Self) -> bool {
        self.seed == other.seed && self.m == other.m
    }

    /// Sketches a set of pre-hashed values in one pass: O(n + m).
    ///
    /// An empty input yields [`Signature::empty`].
    #[must_use]
    pub fn signature<I>(&self, values: I) -> Signature
    where
        I: IntoIterator<Item = u64>,
    {
        let mut slots = vec![EMPTY_SLOT; self.m];
        for v in values {
            let h = splitmix64(v ^ splitmix64(self.seed));
            // High bits pick the bin (uniform across m); the full mixed
            // word, reduced into the field, is the rank within the bin.
            let bin = ((u128::from(h >> 32) * self.m as u128) >> 32) as usize;
            let rank = mersenne_mod(u128::from(splitmix64(h)));
            if rank < slots[bin] {
                slots[bin] = rank;
            }
        }
        self.densify(&mut slots);
        Signature::from_wide(&slots)
    }

    /// Rotation densification: each empty bin borrows from the nearest
    /// non-empty bin to its right (circular), mixing in the distance so
    /// borrows from different relative positions never spuriously collide.
    fn densify(&self, slots: &mut [u64]) {
        let m = slots.len();
        if slots.iter().all(|&s| s == EMPTY_SLOT) {
            return; // empty-set signature stays all-sentinel
        }
        let original = slots.to_vec();
        for i in 0..m {
            if original[i] != EMPTY_SLOT {
                continue;
            }
            let mut dist = 1usize;
            loop {
                let j = (i + dist) % m;
                if original[j] != EMPTY_SLOT {
                    slots[i] = mersenne_mod(u128::from(splitmix64(
                        original[j] ^ (dist as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )));
                    break;
                }
                dist += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinHasher;

    #[test]
    fn identical_sets_identical_signatures() {
        let h = OnePermHasher::new(128);
        let vals = MinHasher::synthetic_values(1, 500);
        let a = h.signature(vals.iter().copied());
        let b = h.signature(vals.iter().rev().copied());
        assert_eq!(a, b);
        assert!((a.jaccard(&b) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_set_yields_empty_signature() {
        let h = OnePermHasher::new(64);
        let sig = h.signature(std::iter::empty());
        assert!(sig.is_empty_domain());
    }

    #[test]
    fn no_sentinel_slots_after_densification() {
        // Even with far fewer values than bins, every slot must be filled.
        let h = OnePermHasher::new(256);
        let sig = h.signature(MinHasher::synthetic_values(2, 5));
        assert!(sig.slots().iter().all(|&s| s != crate::EMPTY_LANE));
    }

    #[test]
    fn jaccard_estimate_unbiased() {
        // J = 1/3 as in the classic hasher's test; OPH at m = 256 has
        // somewhat higher variance, allow a wider band.
        let h = OnePermHasher::new(256);
        let shared = MinHasher::synthetic_values(10, 500);
        let only_a = MinHasher::synthetic_values(11, 500);
        let only_b = MinHasher::synthetic_values(12, 500);
        let a: Vec<u64> = shared.iter().chain(only_a.iter()).copied().collect();
        let b: Vec<u64> = shared.iter().chain(only_b.iter()).copied().collect();
        let est = h.signature(a).jaccard(&h.signature(b));
        assert!((est - 1.0 / 3.0).abs() < 0.15, "estimate {est}");
    }

    #[test]
    fn jaccard_estimate_small_sets_via_densified_slots() {
        // n ≪ m: almost every slot is densified; the estimator must still
        // track the truth. |A| = |B| = 30, overlap 15 ⇒ J = 1/3.
        let h = OnePermHasher::new(256);
        let shared = MinHasher::synthetic_values(20, 15);
        let oa = MinHasher::synthetic_values(21, 15);
        let ob = MinHasher::synthetic_values(22, 15);
        let a: Vec<u64> = shared.iter().chain(oa.iter()).copied().collect();
        let b: Vec<u64> = shared.iter().chain(ob.iter()).copied().collect();
        let est = h.signature(a).jaccard(&h.signature(b));
        assert!((est - 1.0 / 3.0).abs() < 0.2, "estimate {est}");
    }

    #[test]
    fn disjoint_sets_near_zero() {
        let h = OnePermHasher::new(256);
        let a = h.signature(MinHasher::synthetic_values(30, 400));
        let b = h.signature(MinHasher::synthetic_values(31, 400));
        assert!(a.jaccard(&b) < 0.06, "jaccard {}", a.jaccard(&b));
    }

    #[test]
    fn incompatible_with_different_seed_or_width() {
        let a = OnePermHasher::with_seed(1, 64);
        assert!(!a.compatible_with(&OnePermHasher::with_seed(2, 64)));
        assert!(!a.compatible_with(&OnePermHasher::with_seed(1, 128)));
        assert!(a.compatible_with(&a.clone()));
    }

    #[test]
    fn works_inside_lsh_style_banding() {
        // Two 90%-overlapping sets must agree on many slots — the property
        // banding exploits. (The full index integration lives in lshe-lsh's
        // consumers; here we check slot agreement directly.)
        let h = OnePermHasher::new(256);
        let base = MinHasher::synthetic_values(40, 1000);
        let mut variant = base.clone();
        variant.truncate(900);
        variant.extend(MinHasher::synthetic_values(41, 100));
        let a = h.signature(base);
        let b = h.signature(variant);
        let agree = a
            .slots()
            .iter()
            .zip(b.slots())
            .filter(|(x, y)| x == y)
            .count();
        assert!(agree > 150, "only {agree}/256 slots agree");
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = OnePermHasher::new(0);
    }
}
