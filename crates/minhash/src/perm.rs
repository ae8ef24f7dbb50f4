//! Pairwise-independent permutation family over a Mersenne prime field.
//!
//! Minwise hashing (Broder, reference 6 in the paper) needs, for each signature slot,
//! an independent "random permutation" of the value universe. The standard
//! practical construction is the affine family
//!
//! ```text
//! h_{a,b}(v) = (a·v + b) mod p        a ∈ [1, p), b ∈ [0, p)
//! ```
//!
//! over the Mersenne prime `p = 2^61 − 1`, which is pairwise independent —
//! sufficient for the MinHash collision analysis — and admits a fast
//! reduction without division.

/// The Mersenne prime `2^61 − 1` used as the permutation field modulus.
pub const MERSENNE_PRIME: u64 = (1u64 << 61) - 1;

/// Largest value a permuted hash can take (`p − 1`). Signature slots are
/// always in `[0, MAX_PERM_VALUE]`; [`EMPTY_SLOT`] is strictly above it.
pub const MAX_PERM_VALUE: u64 = MERSENNE_PRIME - 1;

/// Sentinel stored in signature slots of an *empty* domain. Chosen above
/// every reachable permuted value so empty signatures never collide with
/// real ones and slot-wise `min` composes unions correctly.
pub const EMPTY_SLOT: u64 = u64::MAX;

/// Reduces `x mod (2^61 − 1)` without division.
///
/// Works for any `x < 2^122`, which covers the products formed in
/// [`AffinePermutation::apply`] (both factors are `< 2^61`).
#[inline]
#[must_use]
pub fn mersenne_mod(x: u128) -> u64 {
    const P: u128 = MERSENNE_PRIME as u128;
    // x mod (2^61 - 1): fold the high bits twice. After two folds the value
    // is < 2^62, one conditional subtraction finishes the job.
    let folded = (x & P) + (x >> 61);
    let folded = (folded & P) + (folded >> 61);
    let r = folded as u64;
    if r >= MERSENNE_PRIME {
        r - MERSENNE_PRIME
    } else {
        r
    }
}

/// One member of the affine permutation family `v ↦ (a·v + b) mod p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffinePermutation {
    a: u64,
    b: u64,
}

impl AffinePermutation {
    /// Creates a permutation from raw coefficients.
    ///
    /// # Panics
    /// Panics if `a == 0` or either coefficient is `≥ p` (such maps are not
    /// permutations of the field).
    #[must_use]
    pub fn new(a: u64, b: u64) -> Self {
        assert!(a > 0 && a < MERSENNE_PRIME, "a must be in [1, p)");
        assert!(b < MERSENNE_PRIME, "b must be in [0, p)");
        Self { a, b }
    }

    /// Draws a permutation from a seed stream, rejecting out-of-range draws.
    #[must_use]
    pub fn from_stream(stream: &mut crate::hash::SeedStream) -> Self {
        let a = loop {
            // Mask to 61 bits then reject 0 and values ≥ p (p itself is the
            // only 61-bit residue excluded, so rejection is rare).
            let c = stream.next_u64() & ((1u64 << 61) - 1);
            if c != 0 && c < MERSENNE_PRIME {
                break c;
            }
        };
        let b = loop {
            let c = stream.next_u64() & ((1u64 << 61) - 1);
            if c < MERSENNE_PRIME {
                break c;
            }
        };
        Self { a, b }
    }

    /// Applies the permutation to a 64-bit value.
    ///
    /// Inputs are first reduced into the field; the reduction maps at most
    /// 8 of the 2^64 inputs onto shared residues, a collision rate far below
    /// the 2^-61 noise floor of the family itself.
    #[inline]
    #[must_use]
    pub fn apply(&self, v: u64) -> u64 {
        let v = mersenne_mod(u128::from(v));
        mersenne_mod(u128::from(self.a) * u128::from(v) + u128::from(self.b))
    }

    /// Raw `a` coefficient (for serialisation and tests).
    #[must_use]
    pub fn a(&self) -> u64 {
        self.a
    }

    /// Raw `b` coefficient.
    #[must_use]
    pub fn b(&self) -> u64 {
        self.b
    }
}

/// A deterministic family of `m` affine permutations derived from one seed.
///
/// Two families built with the same `(seed, m)` are identical, so signatures
/// created on different machines (or different runs) are comparable — the
/// property the paper relies on when sketching queries client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationFamily {
    seed: u64,
    perms: Vec<AffinePermutation>,
}

impl PermutationFamily {
    /// Builds the family of `m` permutations from `seed`.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    #[must_use]
    pub fn new(seed: u64, m: usize) -> Self {
        assert!(m > 0, "a permutation family needs at least one member");
        let mut stream = crate::hash::SeedStream::new(seed);
        let perms = (0..m)
            .map(|_| AffinePermutation::from_stream(&mut stream))
            .collect();
        Self { seed, perms }
    }

    /// Number of permutations (the signature length `m`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.perms.len()
    }

    /// Always false (construction requires `m > 0`); present for API
    /// completeness alongside [`len`](Self::len).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.perms.is_empty()
    }

    /// The seed the family was derived from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The permutations, in slot order.
    #[must_use]
    pub fn permutations(&self) -> &[AffinePermutation] {
        &self.perms
    }

    /// Returns true if `other` was built from the same seed and length, and
    /// therefore produces comparable signatures.
    #[must_use]
    pub fn compatible_with(&self, other: &Self) -> bool {
        self.seed == other.seed && self.perms.len() == other.perms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SeedStream;

    #[test]
    fn mersenne_mod_agrees_with_naive() {
        let p = u128::from(MERSENNE_PRIME);
        let samples: [u128; 8] = [
            0,
            1,
            p - 1,
            p,
            p + 1,
            u128::from(u64::MAX),
            p * p - 1,
            (p - 1) * (p - 1) + (p - 1), // max value formed in apply()
        ];
        for &x in &samples {
            assert_eq!(u128::from(mersenne_mod(x)), x % p, "x = {x}");
        }
    }

    #[test]
    fn mersenne_mod_exhaustive_small() {
        for x in 0u128..1000 {
            assert_eq!(u128::from(mersenne_mod(x)), x % u128::from(MERSENNE_PRIME));
        }
    }

    #[test]
    fn affine_is_permutation_on_small_sample() {
        use std::collections::HashSet;
        let perm = AffinePermutation::new(12345, 678);
        let out: HashSet<u64> = (0..10_000u64).map(|v| perm.apply(v)).collect();
        assert_eq!(out.len(), 10_000, "affine map must be injective in-field");
    }

    #[test]
    #[should_panic(expected = "a must be in [1, p)")]
    fn zero_a_rejected() {
        let _ = AffinePermutation::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "b must be in [0, p)")]
    fn oversized_b_rejected() {
        let _ = AffinePermutation::new(1, MERSENNE_PRIME);
    }

    #[test]
    fn from_stream_in_range() {
        let mut s = SeedStream::new(3);
        for _ in 0..100 {
            let p = AffinePermutation::from_stream(&mut s);
            assert!(p.a() > 0 && p.a() < MERSENNE_PRIME);
            assert!(p.b() < MERSENNE_PRIME);
        }
    }

    #[test]
    fn family_deterministic() {
        let f1 = PermutationFamily::new(9, 64);
        let f2 = PermutationFamily::new(9, 64);
        assert_eq!(f1, f2);
        assert!(f1.compatible_with(&f2));
    }

    #[test]
    fn family_differs_by_seed() {
        let f1 = PermutationFamily::new(9, 16);
        let f2 = PermutationFamily::new(10, 16);
        assert_ne!(f1, f2);
        assert!(!f1.compatible_with(&f2));
    }

    #[test]
    fn family_members_distinct() {
        let f = PermutationFamily::new(1, 256);
        for (i, a) in f.permutations().iter().enumerate() {
            for b in &f.permutations()[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_family_rejected() {
        let _ = PermutationFamily::new(0, 0);
    }

    #[test]
    fn apply_output_below_empty_slot() {
        let f = PermutationFamily::new(5, 32);
        for p in f.permutations() {
            for v in [0u64, 1, u64::MAX, 42] {
                assert!(p.apply(v) <= MAX_PERM_VALUE);
                assert!(p.apply(v) < EMPTY_SLOT);
            }
        }
    }
}
