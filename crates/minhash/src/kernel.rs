//! The min-fold kernel: slot-wise `min(slots, (a·v + b) mod p)` across a
//! whole permutation family, the inner loop of every signature build.
//!
//! Sketching cost is `O(n·m)` modular multiply-adds (Table 4 of the paper:
//! indexing time is ~all sketching), so this loop dominates index
//! construction. The kernel stores the family's coefficients
//! structure-of-arrays (`a`, the high half of each `a`, and `b`) and folds
//! one value into all `m` slots per step, on one of three arms picked once,
//! at construction:
//!
//! * `avx512` and `avx2` (x86-64, detected at runtime) run one safe body,
//!   `fold_split32`, in `u64` operations a vector unit has (32×32→64
//!   products, shifts, compares), compiled twice under `#[target_feature]`
//!   for the compiler to vectorise eight and four lanes to an instruction;
//! * `portable`, everywhere else, is an unrolled loop that keeps four
//!   independent `u128` multiply chains in flight.
//!
//! Every arm produces **bit-identical** slots to the scalar reference
//! ([`AffinePermutation::apply`] folded lane by lane) — signatures are
//! persisted and compared across machines, so the kernel must never let
//! the instruction set leak into the sketch. The equivalence is enforced
//! by unit tests here, which run every arm the CPU has, and a property
//! test at the workspace root.
//!
//! [`count_equal`] is the other inner loop: the equal-lane count between a
//! query's signature and a candidate's, behind every Jaccard estimate. It
//! takes two paths (eight 32-bit lanes per AVX2 compare, or the portable
//! loop) under the same rule — one count on every machine.
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
    /// `a` coefficients, slot order.
    a: Vec<u64>,
    /// `a >> 32` of each `a` (below 2^29, as `a < 2^61`): the split-32
    /// body reads it rather than spend a vector shift on it each value.
    a_hi: Vec<u64>,
    /// `b` coefficients, slot order.
    b: Vec<u64>,
    /// The arm folds run on; only [`new`](Self::new) sets it, by detection.
    arm: Arm,
}

/// The compilations of the fold: the split-32 body for AVX-512 and for
/// AVX2, or the portable `u128` loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Arm {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[default]
    Portable,
}

impl FoldKernel {
    /// Builds the kernel for `perms`, picking the widest arm the CPU has:
    /// AVX-512, then AVX2, then the portable loop.
    #[must_use]
    pub fn new(perms: &[AffinePermutation]) -> Self {
        #[cfg(target_arch = "x86_64")]
        let arm = if std::arch::is_x86_feature_detected!("avx512f") {
            Arm::Avx512
        } else if std::arch::is_x86_feature_detected!("avx2") {
            Arm::Avx2
        } else {
            Arm::Portable
        };
        #[cfg(not(target_arch = "x86_64"))]
        let arm = Arm::Portable;
        Self {
            a: perms.iter().map(AffinePermutation::a).collect(),
            a_hi: perms.iter().map(|perm| perm.a() >> 32).collect(),
            b: perms.iter().map(AffinePermutation::b).collect(),
            arm,
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

    /// Whether folds run on a vector arm (for diagnostics and benches).
    #[must_use]
    pub fn is_vectorised(&self) -> bool {
        self.arm != Arm::Portable
    }

    /// The arm folds run on: `"avx512"`, `"avx2"` or `"portable"`.
    #[must_use]
    pub fn arm(&self) -> &'static str {
        match self.arm {
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => "avx2",
            Arm::Portable => "portable",
        }
    }

    /// Folds every value into `slots` by slot-wise minimum of the
    /// permuted hashes — bit-identical to applying each
    /// [`AffinePermutation`] per lane, on every arm.
    ///
    /// # Panics
    /// Panics if `slots.len()` differs from the kernel width.
    pub fn fold<I>(&self, values: I, slots: &mut [u64])
    where
        I: IntoIterator<Item = u64>,
    {
        assert_eq!(slots.len(), self.len(), "slot width mismatch");
        match self.arm {
            // SAFETY: `new` picks this arm only when it detected AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => unsafe { fold_avx512(self, values, slots) },
            // SAFETY: `new` picks this arm only when it detected AVX2.
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2 => unsafe { fold_avx2(self, values, slots) },
            Arm::Portable => {
                for v in values {
                    let vr = mersenne_mod(u128::from(v));
                    fold_one_portable(&self.a, &self.b, vr, slots);
                }
            }
        }
    }
}

/// `fold_split32` over every value, eight lanes to an AVX-512 instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fold_avx512(k: &FoldKernel, values: impl IntoIterator<Item = u64>, slots: &mut [u64]) {
    for v in values {
        fold_split32(k, mersenne_mod(u128::from(v)), slots);
    }
}

/// `fold_split32` over every value, four lanes to an AVX2 instruction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2(k: &FoldKernel, values: impl IntoIterator<Item = u64>, slots: &mut [u64]) {
    for v in values {
        fold_split32(k, mersenne_mod(u128::from(v)), slots);
    }
}

/// Folds one reduced value (`vr < p`) into every slot with `u64`
/// operations only, the form a vector unit without a 64×64 multiply runs.
/// Each product is assembled from 32×32→64 partials (`a = ah·2^32 + al`,
/// `vr = vh·2^32 + vl`):
///
/// ```text
/// a·vr = hh·2^64 + (hl + lh)·2^32 + ll
/// ```
///
/// and reduced modulo `p = 2^61 − 1` with shifts only, using `2^61 ≡ 1`
/// and `2^64 ≡ 8 (mod p)`:
///
/// ```text
/// S = (hh<<3) + ((mid & 2^29−1)<<32) + (mid>>29)
///   + (ll & p) + (ll>>61) + b            where mid = hl + lh
/// ```
///
/// Term bounds: `a, vr < 2^61`, so `ah, vh < 2^29`; `hh < 2^58` so
/// `hh<<3 < 2^61`; `mid < 2^62` so both mid terms are `< 2^61`; each
/// remaining term is `< 2^61`, so `S < 2^63 + 2^34` — no `u64` wrap. One
/// shift-fold brings `S` to at most `p + 4`, and one subtraction of `p`
/// where it is reached leaves the canonical residue in `[0, p)`: the value
/// `mersenne_mod` produces, so every arm's slots match bit for bit.
#[inline(always)]
fn fold_split32(k: &FoldKernel, vr: u64, slots: &mut [u64]) {
    const P: u64 = MERSENNE_PRIME;
    const LO32: u64 = 0xffff_ffff;
    const LO29: u64 = (1 << 29) - 1;
    let (vl, vh) = (vr & LO32, vr >> 32);
    // `vh` and `ah` are below 2^29, so their masks change no bit: they show
    // the compiler that every product, `hh << 3 = ah · (vh << 3)` too, is
    // one 32×32 multiply.
    let vh8 = (vh << 3) & LO32;
    let lanes = slots.iter_mut().zip(&k.a).zip(&k.a_hi).zip(&k.b);
    for (((slot, &a), &ah), &b) in lanes {
        let (al, ah) = (a & LO32, ah & LO32);
        let (ll, hh8, mid) = (al * vl, ah * vh8, ah * vl + al * vh);
        let s = hh8 + ((mid & LO29) << 32) + (mid >> 29);
        let s = s + (ll & P) + (ll >> 61) + b;
        let s = (s & P) + (s >> 61);
        *slot = (*slot).min(if s >= P { s - P } else { s });
    }
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

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 match counts: eight 32-bit or sixteen 16-bit lanes per compare.

    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cmpeq_epi16, _mm256_cmpeq_epi32, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_setzero_si256, _mm256_storeu_si256, _mm256_sub_epi32,
    };

    #[inline]
    unsafe fn load(ptr: *const u64) -> __m256i {
        _mm256_loadu_si256(ptr.cast())
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

    /// Values at and around field and reduction boundaries.
    const EDGE: [u64; 11] = [
        0,
        1,
        MERSENNE_PRIME - 1,
        MERSENNE_PRIME,
        MERSENNE_PRIME + 1,
        u64::MAX,
        u64::MAX - 1,
        1 << 61,
        (1 << 61) | 1,
        1 << 32,
        u32::MAX as u64,
    ];

    #[test]
    fn kernel_matches_reference_on_edge_values() {
        let family = PermutationFamily::new(7, 32);
        let kernel = FoldKernel::new(family.permutations());
        let mut expect = vec![EMPTY_SLOT; 32];
        reference_fold(family.permutations(), &EDGE, &mut expect);
        let mut got = vec![EMPTY_SLOT; 32];
        kernel.fold(EDGE.iter().copied(), &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn every_arm_the_cpu_has_matches_the_reference() {
        // `new` runs one arm, and a debug build leaves the vector arms
        // unvectorised, so each arm is forced here and `cargo test
        // --release` checks the code that ships. An arm the CPU lacks is
        // reported as skipped, never as passed.
        let mut arms = vec![(Arm::Portable, true)];
        #[cfg(target_arch = "x86_64")]
        arms.extend([
            (Arm::Avx512, std::arch::is_x86_feature_detected!("avx512f")),
            (Arm::Avx2, std::arch::is_x86_feature_detected!("avx2")),
        ]);
        let mut stream = SeedStream::new(5);
        let values: Vec<u64> = EDGE
            .into_iter()
            .chain((0..100).map(|_| stream.next_u64()))
            .collect();
        // Extreme coefficients, at both ends of the row so that the vector
        // body and the scalar tail each meet them; the `b = p − 1` lanes
        // reach the residue `p` at `v = 1` or `v = p − 1`.
        let extremes = [
            AffinePermutation::new(1, MERSENNE_PRIME - 1),
            AffinePermutation::new(MERSENNE_PRIME - 1, MERSENNE_PRIME - 1),
            AffinePermutation::new(MERSENNE_PRIME - 1, 0),
            AffinePermutation::new(u32::MAX.into(), MERSENNE_PRIME - 1),
            AffinePermutation::new(1 << 32, 1),
        ];
        // Widths with every tail a vector of 8 or of 4 can leave.
        let widths = (1..=17).chain(63..=65).chain(127..=129).chain(255..=257);
        for (arm, on_cpu) in arms {
            let name = FoldKernel {
                arm,
                ..FoldKernel::default()
            }
            .arm();
            if !on_cpu {
                println!("fold arm {name}: skipped, not on this CPU");
                continue;
            }
            for m in widths.clone() {
                let mut perms = PermutationFamily::new(21 ^ m as u64, m)
                    .permutations()
                    .to_vec();
                for (i, &e) in extremes.iter().enumerate().take(m) {
                    perms[i] = e;
                    perms[m - 1 - i] = e;
                }
                let kernel = FoldKernel {
                    arm,
                    ..FoldKernel::new(&perms)
                };
                // Each value alone, so every lane's hash is compared, not
                // only the minimum; then all of them into one row.
                for &v in &values {
                    let mut expect = vec![EMPTY_SLOT; m];
                    reference_fold(&perms, &[v], &mut expect);
                    let mut got = vec![EMPTY_SLOT; m];
                    kernel.fold([v], &mut got);
                    assert_eq!(got, expect, "arm {name}, m = {m}, v = {v}");
                }
                let mut expect = vec![EMPTY_SLOT; m];
                reference_fold(&perms, &values, &mut expect);
                let mut got = vec![EMPTY_SLOT; m];
                kernel.fold(values.iter().copied(), &mut got);
                assert_eq!(got, expect, "arm {name}, m = {m}");
            }
            println!("fold arm {name}: passed");
        }
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
