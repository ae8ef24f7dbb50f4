//! Classic banded MinHash LSH with a fixed `(b, r)` configuration (§3.2).
//!
//! The signature is split into `b` bands of `r` slots; each band is hashed
//! to a bucket, and any domain sharing at least one bucket with the query is
//! a candidate. The collision curve is Eq. 5: `P(s) = 1 − (1 − s^r)^b`.

use crate::DomainId;
use lshe_minhash::hash::{FastBuildHasher, FastHashMap, FastHashSet};
use lshe_minhash::Signature;
use std::hash::{BuildHasher, Hash, Hasher};

/// A fixed-parameter banded MinHash LSH index.
///
/// Use this when the Jaccard threshold is known at build time. For
/// query-dependent thresholds — the containment-search setting — use
/// [`crate::LshForest`] instead.
#[derive(Debug, Clone)]
pub struct MinHashLsh {
    b: usize,
    r: usize,
    /// One bucket map per band: band-hash → ids sharing that bucket.
    bands: Vec<FastHashMap<u64, Vec<DomainId>>>,
    len: usize,
}

impl MinHashLsh {
    /// Creates an index with `b` bands of `r` rows. Signatures inserted or
    /// queried must have at least `b·r` slots; extra slots are ignored.
    ///
    /// # Panics
    /// Panics if `b == 0` or `r == 0`.
    #[must_use]
    pub fn new(b: usize, r: usize) -> Self {
        assert!(b > 0 && r > 0, "banding parameters must be positive");
        Self {
            b,
            r,
            bands: (0..b).map(|_| FastHashMap::default()).collect(),
            len: 0,
        }
    }

    /// Chooses `(b, r)` for a target Jaccard threshold `s*` given a budget of
    /// `m` hash functions, by minimising `|implicit_threshold(b,r) − s*|`
    /// over all pairs with `b·r ≤ m`.
    ///
    /// # Panics
    /// Panics if `m == 0` or `s_star` is outside `(0, 1]`.
    #[must_use]
    pub fn params_for_threshold(m: usize, s_star: f64) -> (usize, usize) {
        assert!(m > 0, "need at least one hash function");
        assert!(s_star > 0.0 && s_star <= 1.0, "threshold must be in (0, 1]");
        let mut best = (1, 1);
        let mut best_err = f64::INFINITY;
        for r in 1..=m {
            let max_b = m / r;
            for b in 1..=max_b {
                let err = (crate::implicit_threshold(b as u32, r as u32) - s_star).abs();
                if err < best_err {
                    best_err = err;
                    best = (b, r);
                }
            }
        }
        best
    }

    /// Number of bands.
    #[must_use]
    pub fn b(&self) -> usize {
        self.b
    }

    /// Rows per band.
    #[must_use]
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn band_hash(band: &[u32]) -> u64 {
        let mut h = FastBuildHasher.build_hasher();
        for v in band {
            v.hash(&mut h);
        }
        h.finish()
    }

    /// Indexes a domain's signature under `id`.
    ///
    /// Inserting the same id twice simply registers it in both generations
    /// of buckets; callers are expected to assign unique ids.
    ///
    /// # Panics
    /// Panics if the signature has fewer than `b·r` slots.
    pub fn insert(&mut self, id: DomainId, sig: &Signature) {
        assert!(
            sig.len() >= self.b * self.r,
            "signature too short: {} < {}",
            sig.len(),
            self.b * self.r
        );
        let slots = sig.slots();
        for (band_idx, band) in self.bands.iter_mut().enumerate() {
            let start = band_idx * self.r;
            let key = Self::band_hash(&slots[start..start + self.r]);
            band.entry(key).or_default().push(id);
        }
        self.len += 1;
    }

    /// Collects the candidate set for a query signature.
    ///
    /// # Panics
    /// Panics if the signature has fewer than `b·r` slots.
    #[must_use]
    pub fn query(&self, sig: &Signature) -> FastHashSet<DomainId> {
        let mut out = FastHashSet::default();
        self.query_into(sig, &mut out);
        out
    }

    /// Like [`query`](Self::query) but reuses a caller-provided set, which
    /// avoids re-allocating across a batch of queries.
    pub fn query_into(&self, sig: &Signature, out: &mut FastHashSet<DomainId>) {
        assert!(
            sig.len() >= self.b * self.r,
            "signature too short: {} < {}",
            sig.len(),
            self.b * self.r
        );
        let slots = sig.slots();
        for (band_idx, band) in self.bands.iter().enumerate() {
            let start = band_idx * self.r;
            let key = Self::band_hash(&slots[start..start + self.r]);
            if let Some(ids) = band.get(&key) {
                out.extend(ids.iter().copied());
            }
        }
    }

    /// Total number of occupied buckets across bands (diagnostics).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.bands.iter().map(FastHashMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;

    fn hasher() -> MinHasher {
        MinHasher::new(128)
    }

    #[test]
    fn exact_duplicate_always_candidate() {
        let h = hasher();
        let vals = MinHasher::synthetic_values(1, 300);
        let sig = h.signature(vals);
        let mut lsh = MinHashLsh::new(16, 8);
        lsh.insert(7, &sig);
        assert!(lsh.query(&sig).contains(&7));
    }

    #[test]
    fn disjoint_domain_rarely_candidate() {
        let h = hasher();
        let a = h.signature(MinHasher::synthetic_values(1, 300));
        let b = h.signature(MinHasher::synthetic_values(2, 300));
        let mut lsh = MinHashLsh::new(16, 8);
        lsh.insert(1, &a);
        // P(candidate) = 1-(1-s^8)^16 with s ≈ 0 → essentially 0.
        assert!(!lsh.query(&b).contains(&1));
    }

    #[test]
    fn high_similarity_usually_candidate() {
        let h = hasher();
        let base = MinHasher::synthetic_values(3, 1000);
        let mut lsh = MinHashLsh::new(32, 4);
        lsh.insert(1, &h.signature(base.iter().copied()));
        // 95% overlapping variant: s ≈ 0.905; P ≈ 1-(1-0.67)^32 ≈ 1.
        let mut variant = base.clone();
        variant.truncate(950);
        variant.extend(MinHasher::synthetic_values(4, 50));
        let q = h.signature(variant);
        assert!(lsh.query(&q).contains(&1));
    }

    #[test]
    fn len_tracks_inserts() {
        let h = hasher();
        let mut lsh = MinHashLsh::new(8, 4);
        assert!(lsh.is_empty());
        for i in 0..10 {
            lsh.insert(
                i,
                &h.signature(MinHasher::synthetic_values(u64::from(i), 20)),
            );
        }
        assert_eq!(lsh.len(), 10);
        assert!(!lsh.is_empty());
    }

    #[test]
    fn params_for_threshold_respects_budget() {
        for &(m, s) in &[(256usize, 0.5f64), (128, 0.9), (64, 0.1), (16, 0.7)] {
            let (b, r) = MinHashLsh::params_for_threshold(m, s);
            assert!(b * r <= m, "b={b} r={r} exceeds m={m}");
            let t = crate::implicit_threshold(b as u32, r as u32);
            assert!((t - s).abs() < 0.25, "m={m} s={s} got threshold {t}");
        }
    }

    #[test]
    fn query_into_reuses_buffer() {
        let h = hasher();
        let sig = h.signature(MinHasher::synthetic_values(9, 50));
        let mut lsh = MinHashLsh::new(8, 4);
        lsh.insert(1, &sig);
        let mut buf = lshe_minhash::hash::FastHashSet::default();
        lsh.query_into(&sig, &mut buf);
        assert!(buf.contains(&1));
        buf.clear();
        lsh.query_into(&sig, &mut buf);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    #[should_panic(expected = "signature too short")]
    fn short_signature_rejected() {
        let h = MinHasher::new(16);
        let sig = h.signature([1u64, 2, 3]);
        let mut lsh = MinHashLsh::new(8, 4); // needs 32 slots
        lsh.insert(1, &sig);
    }

    #[test]
    fn empirical_collision_curve_matches_eq5() {
        // Build many (query, domain) pairs at a controlled Jaccard and
        // check the measured candidate rate against Eq. 5 within noise.
        let m = 128;
        let (b, r) = (16, 8);
        let h = MinHasher::new(m);
        let target_s = 0.7f64;
        let n_pairs = 300;
        let mut hits = 0usize;
        for i in 0..n_pairs {
            // |A| = |B| = 400, overlap o chosen so o/(800-o) = s ⇒
            // o = 800·s/(1+s); each side adds 400 − o private values.
            let o = (800.0 * target_s / (1.0 + target_s)).round() as usize;
            let shared = MinHasher::synthetic_values(1000 + i, o);
            let ax = MinHasher::synthetic_values(5000 + i, 400 - o);
            let bx = MinHasher::synthetic_values(9000 + i, 400 - o);
            let a: Vec<u64> = shared.iter().chain(ax.iter()).copied().collect();
            let bvals: Vec<u64> = shared.iter().chain(bx.iter()).copied().collect();
            let mut lsh = MinHashLsh::new(b, r);
            lsh.insert(0, &h.signature(a));
            if lsh.query(&h.signature(bvals)).contains(&0) {
                hits += 1;
            }
        }
        let measured = hits as f64 / n_pairs as f64;
        let expected = crate::candidate_probability(target_s, b as u32, r as u32);
        assert!(
            (measured - expected).abs() < 0.12,
            "measured {measured}, Eq.5 predicts {expected}"
        );
    }
}
