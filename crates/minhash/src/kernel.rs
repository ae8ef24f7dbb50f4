//! The min-fold kernel: slot-wise `min(slots, (a·v + b) mod p)` across a
//! whole permutation family, the inner loop of every signature build.
//!
//! Sketching cost is `O(n·m)` modular multiply-adds (Table 4 of the paper:
//! indexing time is ~all sketching), so this loop dominates index
//! construction. The kernel stores the family's coefficients
//! structure-of-arrays (`a`, plus `a` pre-split into 32-bit halves for the
//! vector path, and `b`) and folds one value into all `m` slots per call:
//!
//! * on x86-64 with AVX2 (detected once at construction), four lanes run
//!   per instruction using `_mm256_mul_epu32` 32×32→64 partial products
//!   and a shift-fold reduction modulo `p = 2^61 − 1`;
//! * everywhere else, a portable unrolled loop keeps four independent
//!   `u128` multiply chains in flight.
//!
//! Both paths produce **bit-identical** slots to the scalar reference
//! ([`AffinePermutation::apply`] folded lane by lane) — signatures are
//! persisted and compared across machines, so the kernel must never let
//! the instruction set leak into the sketch. The equivalence is enforced
//! by unit tests here and a property test at the workspace root.
//!
//! [`count_equal`] is the other inner loop: the equal-lane count between a
//! query's signature and a candidate's, behind every Jaccard estimate. It
//! takes the same two paths (eight 32-bit lanes per AVX2 compare, or the
//! portable loop) under the same rule — one count on every machine.
//! [`count_equal_row`] is the same count between two rows as an index
//! stores them — a few 32-bit lanes, then 16-bit ones, in one `u16` array —
//! eight and sixteen lanes to a compare.

use crate::perm::{mersenne_mod, AffinePermutation, MERSENNE_PRIME};

/// Structure-of-arrays fold kernel over one permutation family.
///
/// Built once per [`MinHasher`](crate::MinHasher) and reused by every
/// signature construction, streaming update, and bulk batch.
#[derive(Debug, Clone, Default)]
pub struct FoldKernel {
    /// Full `a` coefficients, slot order (portable and tail lanes).
    a: Vec<u64>,
    /// Low 32 bits of each `a` (vector path operand).
    a_lo: Vec<u64>,
    /// High 29 bits of each `a` (`a < 2^61`), shifted down.
    a_hi: Vec<u64>,
    /// `b` coefficients, slot order.
    b: Vec<u64>,
    /// AVX2 available at runtime (detected once, here).
    use_avx2: bool,
}

impl FoldKernel {
    /// Builds the kernel for `perms`, probing CPU features once.
    #[must_use]
    pub fn new(perms: &[AffinePermutation]) -> Self {
        let a: Vec<u64> = perms.iter().map(AffinePermutation::a).collect();
        let b: Vec<u64> = perms.iter().map(AffinePermutation::b).collect();
        let a_lo = a.iter().map(|&x| x & 0xffff_ffff).collect();
        let a_hi = a.iter().map(|&x| x >> 32).collect();
        #[cfg(target_arch = "x86_64")]
        let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx2 = false;
        Self {
            a,
            a_lo,
            a_hi,
            b,
            use_avx2,
        }
    }

    /// Number of lanes (the family width `m`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True when the kernel has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Whether folds run on the AVX2 path (for diagnostics and benches).
    #[must_use]
    pub fn is_vectorised(&self) -> bool {
        self.use_avx2
    }

    /// Folds every value into `slots` by slot-wise minimum of the
    /// permuted hashes — bit-identical to applying each
    /// [`AffinePermutation`] per lane, on every architecture.
    ///
    /// # Panics
    /// Panics if `slots.len()` differs from the kernel width.
    pub fn fold<I>(&self, values: I, slots: &mut [u64])
    where
        I: IntoIterator<Item = u64>,
    {
        assert_eq!(slots.len(), self.len(), "slot width mismatch");
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 {
            for v in values {
                let vr = mersenne_mod(u128::from(v));
                // SAFETY: `use_avx2` was set by runtime feature detection
                // in `new`, so the AVX2 instructions are available.
                unsafe {
                    avx2::fold_one(&self.a, &self.a_lo, &self.a_hi, &self.b, vr, slots);
                }
            }
            return;
        }
        for v in values {
            let vr = mersenne_mod(u128::from(v));
            fold_one_portable(&self.a, &self.b, vr, slots);
        }
    }
}

/// Number of positions at which two lane slices agree: the match count
/// behind every Jaccard estimate and every verified candidate. Eight lanes
/// per AVX2 compare where the CPU has it, [`count_equal_portable`]
/// everywhere else — the same count either way.
///
/// # Panics
/// Panics if the slices differ in length.
#[must_use]
pub fn count_equal(a: &[u32], b: &[u32]) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "signatures must share a permutation family"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected at runtime.
        return unsafe { avx2::count_equal(a, b) };
    }
    count_equal_portable(a, b)
}

/// The scalar loop [`count_equal`] falls back to, and the reference the
/// vector path is tested against. Compares up to the shorter length.
#[must_use]
pub fn count_equal_portable(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x == y).count()
}

/// [`count_equal`] between two rows as an index stores them: `wide` 32-bit
/// lanes, each as two `u16` words (low half first — its little-endian
/// bytes), then 16-bit lanes ([`narrow_lane`](crate::narrow_lane)) to the
/// end. A wide lane counts once, when both its halves agree. Eight wide or
/// sixteen narrow lanes per AVX2 compare, [`count_equal_row_portable`]
/// elsewhere; the same count either way.
///
/// # Panics
/// Panics if the slices differ in length or hold fewer than `2 · wide`
/// words.
#[must_use]
pub fn count_equal_row(a: &[u16], b: &[u16], wide: usize) -> usize {
    assert_eq!(
        a.len(),
        b.len(),
        "signatures must share a permutation family"
    );
    assert!(2 * wide <= a.len(), "row shorter than its wide lanes");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected at runtime.
        return unsafe { avx2::count_equal_row(a, b, wide) };
    }
    count_equal_row_portable(a, b, wide)
}

/// The scalar loop [`count_equal_row`] falls back to, and the reference the
/// vector path is tested against. Compares up to the shorter length.
///
/// # Panics
/// Panics if either slice holds fewer than `2 · wide` words.
#[must_use]
pub fn count_equal_row_portable(a: &[u16], b: &[u16], wide: usize) -> usize {
    let ((a32, a16), (b32, b16)) = (a.split_at(2 * wide), b.split_at(2 * wide));
    let wide = a32.chunks_exact(2).zip(b32.chunks_exact(2));
    let narrow = a16.iter().zip(b16);
    wide.filter(|(x, y)| x == y).count() + narrow.filter(|(x, y)| x == y).count()
}

/// One `(a·vr + b) mod p` lane in full-width scalar arithmetic.
/// `vr` must already be reduced into the field.
#[inline(always)]
fn lane(a: u64, b: u64, vr: u64) -> u64 {
    mersenne_mod(u128::from(a) * u128::from(vr) + u128::from(b))
}

/// Portable fold of one reduced value across all lanes, unrolled ×4 so
/// four independent `u128` multiply chains are in flight per iteration
/// (the scalar multiplier is the bottleneck, not the min/store).
fn fold_one_portable(a: &[u64], b: &[u64], vr: u64, slots: &mut [u64]) {
    let mut lanes = a
        .chunks_exact(4)
        .zip(b.chunks_exact(4))
        .zip(slots.chunks_exact_mut(4));
    for ((a4, b4), s4) in &mut lanes {
        let h0 = lane(a4[0], b4[0], vr);
        let h1 = lane(a4[1], b4[1], vr);
        let h2 = lane(a4[2], b4[2], vr);
        let h3 = lane(a4[3], b4[3], vr);
        s4[0] = s4[0].min(h0);
        s4[1] = s4[1].min(h1);
        s4[2] = s4[2].min(h2);
        s4[3] = s4[3].min(h3);
    }
    let tail = slots.len() & !3;
    for i in tail..slots.len() {
        let h = lane(a[i], b[i], vr);
        slots[i] = slots[i].min(h);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 lanes: four 61-bit modular multiply-adds per instruction.
    //!
    //! There is no 64×64 vector multiply on AVX2, so each product is
    //! assembled from 32×32→64 partials (`a = ah·2^32 + al`,
    //! `v = vh·2^32 + vl`):
    //!
    //! ```text
    //! a·v = hh·2^64 + (hl + lh)·2^32 + ll
    //! ```
    //!
    //! and reduced modulo `p = 2^61 − 1` with shifts only, using
    //! `2^61 ≡ 1` and `2^64 ≡ 8 (mod p)`:
    //!
    //! ```text
    //! S = (hh<<3) + ((mid & 2^29−1)<<32) + (mid>>29)
    //!   + (ll & p) + (ll>>61) + b            where mid = hl + lh
    //! ```
    //!
    //! Term bounds: `hh < 2^58` so `hh<<3 < 2^61`; `mid < 2^62` so both
    //! mid terms are `< 2^61`; each remaining term is `< 2^61`, so
    //! `S < 2^63 + 2^34` — no u64 wrap. Two shift-folds bring `S` under
    //! `2^61 + 7`, and the only non-canonical residue left is exactly
    //! `p`, cleared by a compare-and-subtract. The result is the same
    //! canonical value `mersenne_mod` produces, so vector and scalar
    //! signatures match bit for bit.

    use super::MERSENNE_PRIME;
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256, _mm256_blendv_epi8,
        _mm256_cmpeq_epi16, _mm256_cmpeq_epi32, _mm256_cmpeq_epi64, _mm256_cmpgt_epi64,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_mul_epu32, _mm256_set1_epi64x,
        _mm256_setzero_si256, _mm256_slli_epi64, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_sub_epi32, _mm256_sub_epi64, _mm256_xor_si256,
    };

    #[inline]
    unsafe fn load(ptr: *const u64) -> __m256i {
        _mm256_loadu_si256(ptr.cast())
    }

    /// Folds one reduced value (`vr < p`) into all lanes.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fold_one(
        a: &[u64],
        a_lo: &[u64],
        a_hi: &[u64],
        b: &[u64],
        vr: u64,
        slots: &mut [u64],
    ) {
        #[allow(clippy::cast_possible_wrap)]
        let p = _mm256_set1_epi64x(MERSENNE_PRIME as i64);
        let mask29 = _mm256_set1_epi64x(((1u64 << 29) - 1) as i64);
        #[allow(clippy::cast_possible_wrap)]
        let sign = _mm256_set1_epi64x(i64::MIN);
        #[allow(clippy::cast_possible_wrap)]
        let vl = _mm256_set1_epi64x((vr & 0xffff_ffff) as i64);
        #[allow(clippy::cast_possible_wrap)]
        let vh = _mm256_set1_epi64x((vr >> 32) as i64);

        let full = slots.len() & !3;
        for i in (0..full).step_by(4) {
            let al = load(a_lo.as_ptr().add(i));
            let ah = load(a_hi.as_ptr().add(i));
            let bb = load(b.as_ptr().add(i));
            // 32×32→64 partial products of a·vr.
            let ll = _mm256_mul_epu32(al, vl);
            let hl = _mm256_mul_epu32(ah, vl);
            let lh = _mm256_mul_epu32(al, vh);
            let hh = _mm256_mul_epu32(ah, vh);
            let mid = _mm256_add_epi64(hl, lh);
            // S ≡ a·vr + b (mod p); see module docs for the identity
            // and the no-overflow bound.
            let mut s = _mm256_slli_epi64::<3>(hh);
            s = _mm256_add_epi64(s, _mm256_slli_epi64::<32>(_mm256_and_si256(mid, mask29)));
            s = _mm256_add_epi64(s, _mm256_srli_epi64::<29>(mid));
            s = _mm256_add_epi64(s, _mm256_and_si256(ll, p));
            s = _mm256_add_epi64(s, _mm256_srli_epi64::<61>(ll));
            s = _mm256_add_epi64(s, bb);
            // Two shift-folds, then clear the lone residue S == p.
            s = _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64::<61>(s));
            s = _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64::<61>(s));
            let is_p = _mm256_cmpeq_epi64(s, p);
            s = _mm256_sub_epi64(s, _mm256_and_si256(is_p, p));
            // Unsigned 64-bit min against the current slots: bias both
            // sides by the sign bit so the signed compare orders
            // correctly (slots may hold the EMPTY_SLOT sentinel u64::MAX).
            let cur = load(slots.as_ptr().add(i));
            let cur_gt = _mm256_cmpgt_epi64(_mm256_xor_si256(cur, sign), _mm256_xor_si256(s, sign));
            let mn = _mm256_blendv_epi8(cur, s, cur_gt);
            _mm256_storeu_si256(slots.as_mut_ptr().add(i).cast(), mn);
        }
        for i in full..slots.len() {
            let h = super::lane(a[i], b[i], vr);
            slots[i] = slots[i].min(h);
        }
    }

    /// [`count_equal`](super::count_equal), eight lanes per compare; the
    /// tail shorter than a vector goes through the portable loop.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_equal(a: &[u32], b: &[u32]) -> usize {
        // `zip` stops at the shorter side, so every load stays inside both.
        let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
        let tail = super::count_equal_portable(a8.remainder(), b8.remainder());
        // An equal lane compares to −1: subtracting counts it. A counter
        // lane would wrap after 2³² vectors, beyond any slice.
        let mut counts = _mm256_setzero_si256();
        for (x, y) in a8.zip(b8) {
            let eq = _mm256_cmpeq_epi32(load(x.as_ptr().cast()), load(y.as_ptr().cast()));
            counts = _mm256_sub_epi32(counts, eq);
        }
        let mut lanes = [0u32; 8];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), counts);
        tail + lanes.iter().map(|&c| c as usize).sum::<usize>()
    }

    /// [`count_equal_row`](super::count_equal_row): the wide lanes eight
    /// per compare, the narrow ones sixteen; what is left of either part
    /// below a vector goes through the portable loop.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at runtime, and that both
    /// slices hold at least `2 · wide` words.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn count_equal_row(a: &[u16], b: &[u16], wide: usize) -> usize {
        let ((a32, a16), (b32, b16)) = (a.split_at(2 * wide), b.split_at(2 * wide));
        // `zip` stops at the shorter side, so every load stays inside both.
        let (wide_a, wide_b) = (a32.chunks_exact(16), b32.chunks_exact(16));
        let (narrow_a, narrow_b) = (a16.chunks_exact(16), b16.chunks_exact(16));
        // The sub-vector rest of the wide part is whole lanes (an even
        // number of words), so the portable loop pairs it up as the vector
        // path does. A row of whole vectors — the default 64 + 224 words —
        // has no rest to visit.
        let (wide_rest, narrow_rest) = (wide_a.remainder(), narrow_a.remainder());
        let mut rest = 0;
        if !wide_rest.is_empty() {
            rest +=
                super::count_equal_row_portable(wide_rest, wide_b.remainder(), wide_rest.len() / 2);
        }
        if !narrow_rest.is_empty() {
            rest += super::count_equal_row_portable(narrow_rest, narrow_b.remainder(), 0);
        }
        // An equal 32-bit lane compares to −1: subtracting counts it. An
        // equal 16-bit lane compares to −1 too; `madd` against itself
        // squares each and adds neighbours, so a 32-bit counter lane gains
        // 0, 1 or 2 a vector. Either would wrap after 2³¹ vectors, beyond
        // any slice.
        let mut counts = _mm256_setzero_si256();
        for (x, y) in wide_a.zip(wide_b) {
            // SAFETY: each chunk is exactly 16 `u16`s — 32 readable bytes —
            // and the loads are unaligned ones.
            let eq = _mm256_cmpeq_epi32(load(x.as_ptr().cast()), load(y.as_ptr().cast()));
            counts = _mm256_sub_epi32(counts, eq);
        }
        for (x, y) in narrow_a.zip(narrow_b) {
            // SAFETY: as above — 16 `u16`s a chunk, unaligned loads.
            let eq = _mm256_cmpeq_epi16(load(x.as_ptr().cast()), load(y.as_ptr().cast()));
            counts = _mm256_add_epi32(counts, _mm256_madd_epi16(eq, eq));
        }
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), counts);
        rest + lanes.iter().map(|&c| c as usize).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SeedStream;
    use crate::perm::{PermutationFamily, EMPTY_SLOT};

    /// Scalar reference: per-lane [`AffinePermutation::apply`].
    fn reference_fold(perms: &[AffinePermutation], values: &[u64], slots: &mut [u64]) {
        for &v in values {
            for (slot, perm) in slots.iter_mut().zip(perms.iter()) {
                let h = perm.apply(v);
                if h < *slot {
                    *slot = h;
                }
            }
        }
    }

    fn check_widths(widths: &[usize], seed: u64, n_values: usize) {
        let mut stream = SeedStream::new(seed);
        let values: Vec<u64> = (0..n_values).map(|_| stream.next_u64()).collect();
        for &m in widths {
            let family = PermutationFamily::new(seed ^ m as u64, m);
            let kernel = FoldKernel::new(family.permutations());
            let mut expect = vec![EMPTY_SLOT; m];
            reference_fold(family.permutations(), &values, &mut expect);
            let mut got = vec![EMPTY_SLOT; m];
            kernel.fold(values.iter().copied(), &mut got);
            assert_eq!(got, expect, "m = {m}");
        }
    }

    #[test]
    fn kernel_matches_scalar_reference_across_widths() {
        // Widths straddling the ×4 unroll boundary, including tails.
        check_widths(&[1, 2, 3, 4, 5, 7, 8, 64, 127, 128, 129, 256], 99, 200);
    }

    #[test]
    fn kernel_matches_reference_on_edge_values() {
        let family = PermutationFamily::new(7, 32);
        let kernel = FoldKernel::new(family.permutations());
        // Values at and around field/reduction boundaries.
        let edge = [
            0u64,
            1,
            MERSENNE_PRIME - 1,
            MERSENNE_PRIME,
            MERSENNE_PRIME + 1,
            u64::MAX,
            u64::MAX - 1,
            1 << 61,
            (1 << 61) | 1,
            1 << 32,
            u64::from(u32::MAX),
        ];
        let mut expect = vec![EMPTY_SLOT; 32];
        reference_fold(family.permutations(), &edge, &mut expect);
        let mut got = vec![EMPTY_SLOT; 32];
        kernel.fold(edge.iter().copied(), &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn portable_path_matches_reference() {
        // Exercise the non-vector code path explicitly (on AVX2 hosts the
        // public fold would otherwise never reach it).
        let family = PermutationFamily::new(21, 67);
        let kernel = FoldKernel::new(family.permutations());
        let mut stream = SeedStream::new(5);
        let values: Vec<u64> = (0..100).map(|_| stream.next_u64()).collect();
        let mut expect = vec![EMPTY_SLOT; 67];
        reference_fold(family.permutations(), &values, &mut expect);
        let mut got = vec![EMPTY_SLOT; 67];
        for &v in &values {
            fold_one_portable(&kernel.a, &kernel.b, mersenne_mod(u128::from(v)), &mut got);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_values_leave_slots_untouched() {
        let family = PermutationFamily::new(3, 16);
        let kernel = FoldKernel::new(family.permutations());
        let mut slots = vec![EMPTY_SLOT; 16];
        kernel.fold(std::iter::empty(), &mut slots);
        assert!(slots.iter().all(|&s| s == EMPTY_SLOT));
    }

    #[test]
    #[should_panic(expected = "slot width mismatch")]
    fn width_mismatch_panics() {
        let family = PermutationFamily::new(3, 16);
        let kernel = FoldKernel::new(family.permutations());
        let mut slots = vec![EMPTY_SLOT; 8];
        kernel.fold([1u64], &mut slots);
    }
}
