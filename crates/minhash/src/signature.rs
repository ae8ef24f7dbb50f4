//! MinHash signatures and the [`MinHasher`] that produces them.
//!
//! A signature is the vector of per-permutation minima of a domain's hashed
//! values (§3.1 of the paper). Signatures support:
//!
//! * unbiased Jaccard estimation by slot collision counting (Eq. 4),
//! * slot-wise `min` merging, which computes the signature of a set union
//!   exactly (used for streaming ingestion),
//! * cardinality estimation (the `approx(|Q|)` primitive of §5.1), and
//! * containment estimation via the inclusion–exclusion conversion (Eq. 6).

use crate::hash::SeedStream;
use crate::kernel::{count_equal, FoldKernel};
use crate::perm::{PermutationFamily, EMPTY_SLOT};

/// Default number of minwise hash functions, matching Table 3 of the paper.
pub const DEFAULT_NUM_PERM: usize = 256;

/// The lane of an empty domain: what [`EMPTY_SLOT`] narrows to.
pub const EMPTY_LANE: u32 = u32::MAX;

/// Narrows a 64-bit minimum (a value in `[0, p)`, `p = 2^61 − 1`, or
/// [`EMPTY_SLOT`], which saturates to [`EMPTY_LANE`]) to the top 32 bits of
/// the field — the only width signatures are kept, compared and stored in.
///
/// Monotone, so the narrowed minimum is the minimum of the narrowed values
/// and slot-wise `min` merging stays exact. Two different minima narrow to
/// the same lane only when they lie within 2²⁹ of each other: at most
/// `|X|·2⁻³²` per lane, far below MinHash's own `1/√m` noise.
#[inline]
#[must_use]
pub fn truncate_slot(v: u64) -> u32 {
    (v >> 29).min(u64::from(u32::MAX)) as u32
}

/// Narrows a 32-bit lane to its low 16 bits — the width an index *stores*
/// the lanes it only ever tests for equality (every lane of a row but each
/// prefix tree's first; a [`Signature`] itself stays 32 bits wide, on the
/// wire, in the delta log and as a query).
///
/// The low bits, because the high bits of a minimum over `|X|` values are
/// mostly zero. Equal lanes stay equal. Two *different* lanes narrow to the
/// same value with probability 2⁻¹⁶, on top of [`truncate_slot`]'s own
/// `|X|·2⁻³²`: at most `max(2⁻¹⁶, |X|·2⁻³²)` per lane, so a 256-lane
/// estimate over 224 narrowed lanes gains `224·2⁻¹⁶ ≈ 0.003` accidental
/// matches — against MinHash's own `√(J(1−J)·m) ≈ 8` lanes of noise. No
/// estimator subtracts it (`tests/narrowing_accuracy.rs` measures it pair
/// by pair).
///
/// Not monotone: narrowed lanes are compared for equality, never ordered
/// against a wider lane or merged by `min`.
#[inline]
#[must_use]
pub fn narrow_lane(lane: u32) -> u16 {
    lane as u16
}

/// A MinHash signature: one minimum per permutation slot, as a 32-bit lane
/// ([`truncate_slot`] of the 64-bit fold). The signature of the empty set
/// is all [`EMPTY_LANE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    slots: Box<[u32]>,
}

impl Signature {
    /// Bytes per lane of a signature as it travels: on the wire, in the
    /// delta log, staged. (An indexed row is narrower — see
    /// [`narrow_lane`].)
    pub const LANE_BYTES: usize = std::mem::size_of::<u32>();

    /// The signature of the empty domain at width `m` (all sentinel lanes).
    #[must_use]
    pub fn empty(m: usize) -> Self {
        Self {
            slots: vec![EMPTY_LANE; m].into_boxed_slice(),
        }
    }

    /// Wraps lanes as they are. Intended for deserialisation and tests.
    ///
    /// # Panics
    /// Panics if `slots` is empty.
    #[must_use]
    pub fn from_slots(slots: Vec<u32>) -> Self {
        assert!(!slots.is_empty(), "signature must have at least one slot");
        Self {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Narrows the 64-bit minima of a finished fold through
    /// [`truncate_slot`].
    ///
    /// # Panics
    /// Panics if `wide` is empty.
    #[must_use]
    pub fn from_wide(wide: &[u64]) -> Self {
        Self::from_slots(wide.iter().map(|&v| truncate_slot(v)).collect())
    }

    /// Signature width `m`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the width is zero (cannot occur via public constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if this is the signature of an empty domain: every lane at the
    /// sentinel. One lane is not enough — a live minimum in the top 2²⁹ of
    /// the field narrows to [`EMPTY_LANE`] too.
    #[must_use]
    pub fn is_empty_domain(&self) -> bool {
        self.slots.iter().all(|&s| s == EMPTY_LANE)
    }

    /// Raw lane access.
    #[must_use]
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Estimates Jaccard similarity as the fraction of colliding slots
    /// (Eq. 4). Two empty-domain signatures estimate 1.0 (both sets equal).
    ///
    /// # Panics
    /// Panics if the signatures have different widths.
    #[must_use]
    pub fn jaccard(&self, other: &Self) -> f64 {
        count_equal(&self.slots, &other.slots) as f64 / self.len() as f64
    }

    /// Merges `other` into `self` by slot-wise minimum.
    ///
    /// Because `min` distributes over set union, the result is exactly the
    /// signature of the union of the two underlying domains.
    ///
    /// # Panics
    /// Panics if the signatures have different widths.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.len(), other.len(), "signature width mismatch");
        for (a, b) in self.slots.iter_mut().zip(other.slots.iter()) {
            if *b < *a {
                *a = *b;
            }
        }
    }

    /// Returns the union signature without mutating the inputs.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Estimates the cardinality of the underlying domain (§5.1's
    /// `approx(|Q|)`).
    ///
    /// Each slot is the minimum of `n` i.i.d. uniform draws on `[0, p)`;
    /// the normalised minimum has expectation `1/(n+1)`, so
    /// `n̂ = m / Σ vᵢ − 1` with `vᵢ = (laneᵢ + ½) / 2³²` (the midpoint of the
    /// 2²⁹ minima a lane stands for, so the sum is never zero). The estimate
    /// is clamped below at 0 and rounds to the nearest integer for
    /// `estimate ≥ 1`.
    #[must_use]
    pub fn cardinality(&self) -> f64 {
        if self.is_empty_domain() {
            return 0.0;
        }
        const LANE_RANGE: f64 = (1u64 << 32) as f64;
        let m = self.len() as f64;
        let sum: f64 = self
            .slots
            .iter()
            .map(|&s| (f64::from(s) + 0.5) / LANE_RANGE)
            .sum();
        (m / sum - 1.0).max(0.0)
    }

    /// Estimates the containment `t(Q, X) = |Q ∩ X| / |Q|` of `self` (the
    /// query `Q`) in `other` (`X`), given the true or estimated cardinalities
    /// `q` and `x`, via Eq. 6: `t̂(s) = (x/q + 1)·s / (1 + s)`.
    ///
    /// Returns a value clamped to `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `q` is not strictly positive.
    #[must_use]
    pub fn containment_in(&self, other: &Self, q: f64, x: f64) -> f64 {
        assert!(q > 0.0, "query cardinality must be positive");
        let s = self.jaccard(other);
        crate::containment_from_jaccard(s, x, q)
    }
}

/// A signature is its lanes: what an index keeps of it is a `[u32]` row,
/// and builds take either.
impl AsRef<[u32]> for Signature {
    fn as_ref(&self) -> &[u32] {
        &self.slots
    }
}

/// Deterministic MinHash signature generator over a [`PermutationFamily`].
///
/// The hasher owns the family; all signatures it creates are mutually
/// comparable, and two hashers with the same `(seed, m)` produce identical
/// signatures for identical input sets.
#[derive(Debug, Clone)]
pub struct MinHasher {
    family: PermutationFamily,
    /// Derived fold kernel (structure-of-arrays coefficients plus the CPU
    /// feature probe).
    kernel: FoldKernel,
}

impl MinHasher {
    /// Default family seed shared across the workspace.
    pub const DEFAULT_SEED: u64 = 0x5EED_CAFE_F00D_D00D;

    /// Creates a hasher with `m` permutations from an explicit seed.
    #[must_use]
    pub fn with_seed(seed: u64, m: usize) -> Self {
        let family = PermutationFamily::new(seed, m);
        let kernel = FoldKernel::new(family.permutations());
        Self { family, kernel }
    }

    /// Creates a hasher with the workspace default seed.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self::with_seed(Self::DEFAULT_SEED, m)
    }

    /// Signature width `m`.
    #[must_use]
    pub fn num_perm(&self) -> usize {
        self.family.len()
    }

    /// The underlying permutation family.
    #[must_use]
    pub fn family(&self) -> &PermutationFamily {
        &self.family
    }

    /// True if signatures from `other` are comparable with ours.
    #[must_use]
    pub fn compatible_with(&self, other: &Self) -> bool {
        self.family.compatible_with(&other.family)
    }

    /// The min-fold kernel: folds every value's permuted hashes into
    /// `slots` by slot-wise minimum. Single-signature construction,
    /// streaming updates, and the bulk path all run through
    /// [`FoldKernel::fold`], on the arm the kernel picked when it was
    /// built ([`FoldKernel::arm`]: AVX-512, AVX2 or the portable loop) —
    /// each bit-identical to the scalar per-permutation reference.
    fn fold_into<I>(&self, values: I, slots: &mut [u64])
    where
        I: IntoIterator<Item = u64>,
    {
        self.kernel.fold(values, slots);
    }

    /// Computes the signature of a set of pre-hashed 64-bit values.
    ///
    /// Duplicates in the input do not affect the result (minimum is
    /// idempotent), so callers may stream multisets. An empty iterator
    /// yields [`Signature::empty`].
    #[must_use]
    pub fn signature<I>(&self, values: I) -> Signature
    where
        I: IntoIterator<Item = u64>,
    {
        let mut slots = vec![EMPTY_SLOT; self.family.len()];
        self.fold_into(values, &mut slots);
        Signature::from_wide(&slots)
    }

    /// Convenience: hash raw string values into the universe, then sign.
    #[must_use]
    pub fn signature_of_strs<'a, I>(&self, values: I) -> Signature
    where
        I: IntoIterator<Item = &'a str>,
    {
        self.signature(values.into_iter().map(crate::hash::hash_str))
    }

    /// Computes one signature per pre-hashed value set, in input order —
    /// the batched construction path used by CLI ingest and the server's
    /// `/batch` endpoint: [`sketch_into`](Self::sketch_into) with each
    /// set's lanes moved into a [`Signature`] of its own.
    ///
    /// Semantically identical to mapping [`signature`](Self::signature)
    /// over `sets`.
    #[must_use]
    pub fn bulk_signatures(&self, sets: &[&[u64]]) -> Vec<Signature> {
        // Placeholders of no lanes allocate nothing; each is replaced once.
        let mut out: Vec<Signature> = std::iter::repeat_with(|| Signature {
            slots: Box::default(),
        })
        .take(sets.len())
        .collect();
        self.sketch_into(sets, &mut out, 1, |lanes, sig| {
            sig[0] = Signature {
                slots: lanes.into(),
            };
        });
        out
    }

    /// The bulk loop under every batched sketch: folds each set of `sets`
    /// into a min-slot scratch, narrows it ([`truncate_slot`]) into a lane
    /// scratch, and hands those lanes to `write` with the `stride` outputs
    /// of `out` that set owns (`out[i·stride..][..stride]` for set `i`) —
    /// what a bulk index build narrows straight into a forest row, and
    /// [`bulk_signatures`](Self::bulk_signatures) moves into a signature.
    ///
    /// The per-item setup is paid once per batch: each worker lane reuses
    /// its two scratch buffers for every set it folds and allocates nothing
    /// else, and the lanes come from the process-wide [`crate::lanes`]
    /// harness (spawned once per batch, floored at
    /// [`crate::lanes::MIN_ITEMS_PER_LANE`] sets per lane, budget-governed
    /// so concurrent bulk callers degrade gracefully instead of
    /// oversubscribing the host). The lanes split the batch by values, not
    /// by sets: the fold's cost is one step per value. The lanes `write`
    /// sees for a set are [`signature`](Self::signature)'s, bit for bit.
    ///
    /// # Panics
    /// Panics if `stride == 0` or `out` does not hold `stride` outputs a
    /// set.
    pub fn sketch_into<O: Send>(
        &self,
        sets: &[&[u64]],
        out: &mut [O],
        stride: usize,
        write: impl Fn(&[u32], &mut [O]) + Sync,
    ) {
        assert!(stride > 0, "every set needs an output");
        let m = self.family.len();
        let weight = |values: &&[u64]| values.len();
        crate::lanes::run_weighted_into(sets, weight, out, stride, |chunk, out| {
            let (mut wide, mut lanes) = (vec![EMPTY_SLOT; m], vec![EMPTY_LANE; m]);
            for (values, out) in chunk.iter().zip(out.chunks_exact_mut(stride)) {
                wide.fill(EMPTY_SLOT);
                self.fold_into(values.iter().copied(), &mut wide);
                for (lane, &slot) in lanes.iter_mut().zip(&wide) {
                    *lane = truncate_slot(slot);
                }
                write(&lanes, out);
            }
        });
    }

    /// Folds one more value into an existing signature (streaming update).
    ///
    /// # Panics
    /// Panics if the signature width differs from the hasher's `m`.
    pub fn update(&self, sig: &mut Signature, value: u64) {
        assert_eq!(sig.len(), self.family.len(), "signature width mismatch");
        sig.merge(&self.signature(std::iter::once(value)));
    }

    /// Generates a set of `n` distinct synthetic universe values, useful in
    /// tests and benchmarks. Values are drawn deterministically from `seed`.
    #[must_use]
    pub fn synthetic_values(seed: u64, n: usize) -> Vec<u64> {
        let mut stream = SeedStream::new(seed);
        let mut out = crate::hash::FastHashSet::default();
        out.reserve(n);
        while out.len() < n {
            out.insert(stream.next_u64());
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u64]) -> Vec<u64> {
        vals.to_vec()
    }

    #[test]
    fn identical_sets_have_identical_signatures() {
        let h = MinHasher::new(128);
        let a = h.signature(set(&[1, 2, 3, 4, 5]));
        let b = h.signature(set(&[5, 4, 3, 2, 1]));
        assert_eq!(a, b, "order must not matter");
        assert!((a.jaccard(&b) - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn duplicates_ignored() {
        let h = MinHasher::new(64);
        let a = h.signature(set(&[1, 1, 2, 2, 3]));
        let b = h.signature(set(&[1, 2, 3]));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_signature_flags() {
        let h = MinHasher::new(16);
        let e = h.signature(std::iter::empty());
        assert!(e.is_empty_domain());
        assert_eq!(e, Signature::empty(16));
        assert_eq!(e.cardinality(), 0.0);
    }

    #[test]
    fn maximal_first_lane_is_not_an_empty_domain() {
        // A live minimum in the top 2^29 of the field narrows to the
        // sentinel's lane; emptiness is all lanes, not the first.
        let top = crate::MERSENNE_PRIME - 1;
        assert_eq!(truncate_slot(top), EMPTY_LANE);
        let sig = Signature::from_wide(&[top, 5 << 29, 9 << 29]);
        assert_eq!(sig.slots(), [EMPTY_LANE, 5, 9]);
        assert!(!sig.is_empty_domain());
        assert!(sig.cardinality() > 0.0);
        assert!(Signature::from_wide(&[EMPTY_SLOT; 3]).is_empty_domain());
    }

    #[test]
    fn narrowing_is_monotone_so_merging_stays_exact() {
        let mut stream = SeedStream::new(9);
        let field = |s: &mut SeedStream| s.next_u64() % crate::MERSENNE_PRIME;
        let a: Vec<u64> = (0..512).map(|_| field(&mut stream)).collect();
        // Half the pairs differ only below the 29 bits narrowing drops.
        let b: Vec<u64> = (0..512)
            .map(|i| {
                if i % 2 == 0 {
                    a[i] ^ 1
                } else {
                    field(&mut stream)
                }
            })
            .collect();
        let min: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x.min(y)).collect();
        for (&x, &y) in a.iter().zip(&b) {
            let (lo, hi) = (x.min(y), x.max(y));
            assert!(truncate_slot(lo) <= truncate_slot(hi));
        }
        assert_eq!(
            Signature::from_wide(&a).union(&Signature::from_wide(&b)),
            Signature::from_wide(&min)
        );
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let h = MinHasher::new(256);
        let a = h.signature(MinHasher::synthetic_values(1, 500));
        let b = h.signature(MinHasher::synthetic_values(2, 500));
        assert!(a.jaccard(&b) < 0.05, "jaccard = {}", a.jaccard(&b));
    }

    #[test]
    fn jaccard_estimate_concentrates() {
        // |A| = |B| = 1000, |A ∩ B| = 500 → J = 500 / 1500 = 1/3.
        let h = MinHasher::new(256);
        let shared = MinHasher::synthetic_values(10, 500);
        let only_a = MinHasher::synthetic_values(11, 500);
        let only_b = MinHasher::synthetic_values(12, 500);
        let a: Vec<u64> = shared.iter().chain(only_a.iter()).copied().collect();
        let b: Vec<u64> = shared.iter().chain(only_b.iter()).copied().collect();
        let est = h.signature(a).jaccard(&h.signature(b));
        let truth = 1.0 / 3.0;
        // Std-dev ≈ sqrt(J(1−J)/m) ≈ 0.029; allow 4 sigma.
        assert!((est - truth).abs() < 0.12, "estimate {est} vs {truth}");
    }

    #[test]
    fn merge_computes_union_signature() {
        let h = MinHasher::new(128);
        let xs = MinHasher::synthetic_values(20, 300);
        let ys = MinHasher::synthetic_values(21, 300);
        let mut merged = h.signature(xs.iter().copied());
        merged.merge(&h.signature(ys.iter().copied()));
        let direct = h.signature(xs.into_iter().chain(ys));
        assert_eq!(merged, direct);
    }

    #[test]
    fn union_is_commutative() {
        let h = MinHasher::new(64);
        let a = h.signature(MinHasher::synthetic_values(30, 100));
        let b = h.signature(MinHasher::synthetic_values(31, 100));
        assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = MinHasher::new(64);
        let a = h.signature(MinHasher::synthetic_values(40, 50));
        let mut merged = a.clone();
        merged.merge(&Signature::empty(64));
        assert_eq!(merged, a);
    }

    #[test]
    fn streaming_update_matches_batch() {
        let h = MinHasher::new(64);
        let vals = MinHasher::synthetic_values(50, 200);
        let mut streamed = Signature::empty(64);
        for &v in &vals {
            h.update(&mut streamed, v);
        }
        assert_eq!(streamed, h.signature(vals));
    }

    #[test]
    fn cardinality_estimate_relative_error() {
        let h = MinHasher::new(256);
        for &n in &[100usize, 1_000, 10_000] {
            let sig = h.signature(MinHasher::synthetic_values(n as u64, n));
            let est = sig.cardinality();
            let rel = (est - n as f64).abs() / n as f64;
            // Relative std-dev of the estimator is ~1/sqrt(m) ≈ 6.25%;
            // allow 4 sigma.
            assert!(rel < 0.25, "n = {n}, estimate = {est}, rel err = {rel}");
        }
    }

    #[test]
    fn cardinality_of_singleton() {
        let h = MinHasher::new(256);
        let sig = h.signature([42u64]);
        let est = sig.cardinality();
        assert!(est < 5.0, "singleton estimated as {est}");
    }

    #[test]
    fn containment_estimate_tracks_truth() {
        // Q ⊂ X with |Q| = 200, |X| = 1000, t(Q,X) = 1.0.
        let h = MinHasher::new(256);
        let x_vals = MinHasher::synthetic_values(60, 1000);
        let q_vals: Vec<u64> = x_vals[..200].to_vec();
        let q = h.signature(q_vals);
        let x = h.signature(x_vals);
        let t = q.containment_in(&x, 200.0, 1000.0);
        assert!(t > 0.8, "containment estimate {t} too low for t = 1.0");
    }

    #[test]
    fn bulk_signatures_match_singles() {
        let h = MinHasher::new(128);
        let sets: Vec<Vec<u64>> = (0..37)
            .map(|k| MinHasher::synthetic_values(k + 1, 10 + 13 * k as usize % 200))
            .collect();
        let refs: Vec<&[u64]> = sets.iter().map(Vec::as_slice).collect();
        let bulk = h.bulk_signatures(&refs);
        assert_eq!(bulk.len(), sets.len());
        for (set, sig) in sets.iter().zip(&bulk) {
            assert_eq!(*sig, h.signature(set.iter().copied()), "bulk diverges");
        }
        // Empty input slice and empty member sets both behave.
        assert!(h.bulk_signatures(&[]).is_empty());
        let with_empty = h.bulk_signatures(&[&[], &[1, 2, 3]]);
        assert!(with_empty[0].is_empty_domain());
        assert_eq!(with_empty[1], h.signature([1u64, 2, 3]));
    }

    #[test]
    fn bulk_signatures_keep_order_when_one_set_outweighs_the_rest() {
        // Split by values, the one heavy set is a chunk nearly on its own:
        // the cut moves, the outputs and their order do not.
        let h = MinHasher::new(64);
        let heavy = MinHasher::synthetic_values(7, 16_384);
        let singletons: Vec<[u64; 1]> = (0..600u64).map(|v| [v]).collect();
        let mut sets: Vec<&[u64]> = singletons.iter().map(|s| s.as_slice()).collect();
        sets.insert(150, &heavy);
        let bulk = h.bulk_signatures(&sets);
        assert_eq!(bulk.len(), sets.len());
        for (set, sig) in sets.iter().zip(&bulk) {
            assert_eq!(*sig, h.signature(set.iter().copied()), "bulk diverges");
        }
    }

    #[test]
    fn signature_of_strs_uses_value_hash() {
        let h = MinHasher::new(32);
        let a = h.signature_of_strs(["ontario", "toronto"]);
        let b = h.signature([
            crate::hash::hash_str("toronto"),
            crate::hash::hash_str("ontario"),
        ]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_incomparable_hashers() {
        let h1 = MinHasher::with_seed(1, 32);
        let h2 = MinHasher::with_seed(2, 32);
        assert!(!h1.compatible_with(&h2));
        assert!(h1.compatible_with(&h1.clone()));
    }

    #[test]
    #[should_panic(expected = "share a permutation family")]
    fn jaccard_width_mismatch_panics() {
        let a = Signature::empty(8);
        let b = Signature::empty(16);
        let _ = a.jaccard(&b);
    }

    #[test]
    fn synthetic_values_distinct_and_deterministic() {
        let a = MinHasher::synthetic_values(7, 1000);
        let b = MinHasher::synthetic_values(7, 1000);
        let sa: std::collections::HashSet<u64> = a.iter().copied().collect();
        assert_eq!(sa.len(), 1000);
        let sb: std::collections::HashSet<u64> = b.iter().copied().collect();
        assert_eq!(sa, sb);
    }
}
