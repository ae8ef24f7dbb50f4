//! Signature-level padding with analytically sampled minima.
//!
//! ## What real padding does
//!
//! Asymmetric Minwise Hashing appends `k = M − x` *fresh* values to a domain
//! of size `x` (fresh = never seen in any other domain or query). Under a
//! minwise permutation, each fresh value hashes to an independent uniform
//! point of the field, so the padded signature slot is
//!
//! ```text
//! padded_i = min(orig_i, min of k i.i.d. Uniform[0, p) draws)
//! ```
//!
//! ## Why we can sample the second operand directly
//!
//! The only property LSH and Jaccard estimation consume is the per-slot
//! collision behaviour: a fresh padding value can never equal a query's hash
//! (it is fresh), so the padding minimum acts purely as a *censoring* value
//! that hides the original slot whenever it is smaller. Its distribution is
//! fully characterised by `P(min > v) = (1 − v/p)^k`, which we invert:
//!
//! ```text
//! padmin = p · (1 − U^(1/k)),   U ~ Uniform(0, 1]
//! ```
//!
//! drawn from a deterministic per-(domain, slot) stream. This reproduces the
//! exact distribution of real padding at O(1) cost per slot instead of
//! O(M − x) hashing work — the substitution documented in DESIGN.md.

use lshe_minhash::hash::{splitmix64, SeedStream};
use lshe_minhash::{Signature, MERSENNE_PRIME};

/// Deterministic sampler for padding minima.
///
/// Two samplers with the same seed produce identical padded signatures for
/// identical `(domain_key, slot, k)` triples, keeping indexes reproducible.
#[derive(Debug, Clone, Copy)]
pub struct PaddingSampler {
    seed: u64,
}

impl PaddingSampler {
    /// Workspace default padding seed.
    pub const DEFAULT_SEED: u64 = 0x0FAD_0FAD_0FAD_0FAD;

    /// Creates a sampler with an explicit seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Samples the minimum of `k` i.i.d. uniform draws over `[0, p)` for the
    /// given `(domain_key, slot)` coordinate.
    ///
    /// Returns `u64::MAX` (no censoring) when `k == 0`.
    #[must_use]
    pub fn pad_min(&self, domain_key: u64, slot: usize, k: u64) -> u64 {
        if k == 0 {
            return u64::MAX;
        }
        // One well-mixed word per (seed, domain, slot) coordinate.
        let mixed = splitmix64(self.seed ^ splitmix64(domain_key) ^ (slot as u64).rotate_left(32));
        let mut stream = SeedStream::new(mixed);
        // U in (0, 1]: flip the half-open interval to avoid ln(0)/0^x edge.
        let u = 1.0 - stream.next_f64();
        // Inverse transform of P(min ≤ v) = 1 − (1 − v/p)^k.
        let frac = 1.0 - u.powf(1.0 / k as f64);
        // Clamp into the field; rounding may touch p itself.
        ((frac * MERSENNE_PRIME as f64) as u64).min(MERSENNE_PRIME - 1)
    }
}

/// Pads a domain signature to the corpus maximum size `max_size` (the `M` of
/// the paper), given the domain's true size `size` and a stable `domain_key`
/// used to derive the fresh padding values.
///
/// The query side of Asymmetric Minwise Hashing is *not* padded; only call
/// this for indexed domains.
///
/// # Panics
/// Panics if `size > max_size`.
#[must_use]
pub fn pad_signature(
    sig: &Signature,
    domain_key: u64,
    size: u64,
    max_size: u64,
    sampler: &PaddingSampler,
) -> Signature {
    assert!(
        size <= max_size,
        "domain size {size} exceeds padding target {max_size}"
    );
    let k = max_size - size;
    let pads: Vec<u64> = (0..sig.len())
        .map(|i| sampler.pad_min(domain_key, i, k))
        .collect();
    // Padding adds `k` fresh values: the union with their minima.
    let mut padded = Signature::from_wide(&pads);
    padded.merge(sig);
    padded
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;

    #[test]
    fn zero_padding_is_identity() {
        let h = MinHasher::new(64);
        let sig = h.signature(MinHasher::synthetic_values(1, 100));
        let padded = pad_signature(&sig, 42, 100, 100, &PaddingSampler::with_seed(7));
        assert_eq!(padded, sig);
    }

    #[test]
    fn padding_is_deterministic() {
        let h = MinHasher::new(64);
        let sig = h.signature(MinHasher::synthetic_values(1, 100));
        let s = PaddingSampler::with_seed(7);
        let a = pad_signature(&sig, 42, 100, 10_000, &s);
        let b = pad_signature(&sig, 42, 100, 10_000, &s);
        assert_eq!(a, b);
    }

    #[test]
    fn padding_differs_by_domain_key() {
        let h = MinHasher::new(64);
        let sig = h.signature(MinHasher::synthetic_values(1, 10));
        let s = PaddingSampler::with_seed(7);
        let a = pad_signature(&sig, 1, 10, 100_000, &s);
        let b = pad_signature(&sig, 2, 10, 100_000, &s);
        assert_ne!(a, b, "fresh values must be domain-specific");
    }

    #[test]
    fn padded_slots_never_increase() {
        let h = MinHasher::new(128);
        let sig = h.signature(MinHasher::synthetic_values(3, 50));
        let padded = pad_signature(&sig, 9, 50, 5_000, &PaddingSampler::with_seed(1));
        for (p, o) in padded.slots().iter().zip(sig.slots()) {
            assert!(p <= o);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds padding target")]
    fn oversized_domain_rejected() {
        let h = MinHasher::new(16);
        let sig = h.signature(MinHasher::synthetic_values(1, 10));
        let _ = pad_signature(&sig, 1, 10, 5, &PaddingSampler::with_seed(1));
    }

    #[test]
    fn pad_min_distribution_mean() {
        // E[min of k uniforms over [0,p)] = p/(k+1). Check within 10%.
        let s = PaddingSampler::with_seed(11);
        for &k in &[10u64, 100, 1000] {
            let n = 2000u64;
            let mean: f64 = (0..n).map(|d| s.pad_min(d, 0, k) as f64).sum::<f64>() / n as f64;
            let expected = MERSENNE_PRIME as f64 / (k as f64 + 1.0);
            let rel = (mean - expected).abs() / expected;
            assert!(rel < 0.10, "k={k}: mean {mean:.3e} vs {expected:.3e}");
        }
    }

    #[test]
    fn padded_jaccard_matches_eq31() {
        // Q ⊆ X, |Q| = q, |X| = x, padded to M ⇒ J(Q, pad(X)) = q/M.
        let m = 256;
        let h = MinHasher::new(m);
        let (q_size, x_size, max) = (50u64, 200u64, 2_000u64);
        let x_vals = MinHasher::synthetic_values(1, x_size as usize);
        let q_vals: Vec<u64> = x_vals[..q_size as usize].to_vec();
        let x_sig = pad_signature(
            &h.signature(x_vals),
            77,
            x_size,
            max,
            &PaddingSampler::with_seed(3),
        );
        let est = h.signature(q_vals).jaccard(&x_sig);
        let expected = q_size as f64 / max as f64; // 0.025
                                                   // m = 256 slots: std-dev ≈ sqrt(p(1-p)/m) ≈ 0.0098; allow 4σ.
        assert!(
            (est - expected).abs() < 0.04,
            "estimate {est} vs expected {expected}"
        );
    }

    #[test]
    fn heavier_padding_lowers_similarity() {
        let h = MinHasher::new(256);
        let vals = MinHasher::synthetic_values(5, 100);
        let q = h.signature(vals.iter().copied());
        let sig = h.signature(vals);
        let s = PaddingSampler::with_seed(13);
        let light = pad_signature(&sig, 1, 100, 200, &s);
        let heavy = pad_signature(&sig, 1, 100, 20_000, &s);
        assert!(q.jaccard(&heavy) < q.jaccard(&light));
    }
}
