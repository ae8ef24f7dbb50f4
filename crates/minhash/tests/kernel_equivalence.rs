//! Property tests: the [`FoldKernel`] (the AVX-512, AVX2 or portable arm,
//! whichever this host runs) is bit-identical to the scalar
//! per-permutation reference.
//!
//! Signatures are persisted in index files and compared across machines,
//! so the vectorised kernel must never change a single slot relative to
//! [`AffinePermutation::apply`] folded lane by lane. Likewise
//! [`count_equal`] and [`count_equal_row`] (AVX2 where this host has it)
//! against their portable loops.

use lshe_minhash::kernel::{
    count_equal, count_equal_portable, count_equal_row, count_equal_row_portable, FoldKernel,
};
use lshe_minhash::perm::{AffinePermutation, PermutationFamily, EMPTY_SLOT, MERSENNE_PRIME};
use lshe_minhash::{truncate_slot, MinHasher, EMPTY_LANE};
use proptest::prelude::*;

/// Scalar reference fold: per-lane `apply` + min.
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

proptest! {
    #[test]
    fn kernel_fold_matches_scalar_reference(
        seed in any::<u64>(),
        m in 1usize..300,
        values in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let family = PermutationFamily::new(seed, m);
        let kernel = FoldKernel::new(family.permutations());
        let mut expect = vec![EMPTY_SLOT; m];
        reference_fold(family.permutations(), &values, &mut expect);
        let mut got = vec![EMPTY_SLOT; m];
        kernel.fold(values.iter().copied(), &mut got);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn kernel_fold_resumes_from_partial_slots(
        seed in any::<u64>(),
        m in 1usize..130,
        first in prop::collection::vec(any::<u64>(), 1..100),
        second in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        // Folding in two batches must equal one fold of the concatenation
        // (the streaming-update contract).
        let family = PermutationFamily::new(seed, m);
        let kernel = FoldKernel::new(family.permutations());
        let mut split = vec![EMPTY_SLOT; m];
        kernel.fold(first.iter().copied(), &mut split);
        kernel.fold(second.iter().copied(), &mut split);
        let mut whole = vec![EMPTY_SLOT; m];
        kernel.fold(first.iter().chain(second.iter()).copied(), &mut whole);
        prop_assert_eq!(split, whole);
        // And every slot is canonical: strictly below p (or the sentinel).
        prop_assert!(whole.iter().all(|&s| s < MERSENNE_PRIME || s == EMPTY_SLOT));
    }

    #[test]
    fn minhasher_signature_matches_reference_fold(
        seed in any::<u64>(),
        values in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        // End-to-end: the public MinHasher (kernel-backed) agrees with the
        // scalar reference at the default production width.
        let m = 256usize;
        let hasher = MinHasher::with_seed(seed, m);
        let mut expect = vec![EMPTY_SLOT; m];
        reference_fold(hasher.family().permutations(), &values, &mut expect);
        let sig = hasher.signature(values.iter().copied());
        let narrowed: Vec<u32> = expect.iter().map(|&v| truncate_slot(v)).collect();
        prop_assert_eq!(sig.slots(), narrowed.as_slice());
    }

    #[test]
    fn count_equal_matches_the_portable_loop(
        a in prop::collection::vec(any::<u32>(), 0..300),
        flips in prop::collection::vec(any::<bool>(), 300),
    ) {
        // `b` agrees with `a` exactly where `flips` is false.
        let b: Vec<u32> = a.iter().zip(&flips).map(|(&v, &f)| v ^ u32::from(f)).collect();
        let expect = flips[..a.len()].iter().filter(|&&f| !f).count();
        prop_assert_eq!(count_equal_portable(&a, &b), expect);
        prop_assert_eq!(count_equal(&a, &b), expect);
    }
}

#[test]
fn count_equal_edge_shapes() {
    // Lengths around the 8-lane vector, with all, no and sentinel lanes equal.
    for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257] {
        let a: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let none: Vec<u32> = a.iter().map(|v| !v).collect();
        let sentinel = vec![EMPTY_LANE; n];
        assert_eq!(count_equal(&a, &a), n, "all equal, n = {n}");
        assert_eq!(count_equal(&a, &none), 0, "none equal, n = {n}");
        assert_eq!(count_equal(&sentinel, &sentinel), n, "sentinels, n = {n}");
        assert_eq!(
            count_equal(&a, &sentinel),
            count_equal_portable(&a, &sentinel),
            "mixed, n = {n}"
        );
        // Only the last lane (in the scalar tail unless 8 | n) agrees.
        if let Some(last) = n.checked_sub(1) {
            let mut tail = none.clone();
            tail[last] = a[last];
            assert_eq!(count_equal(&a, &tail), 1, "tail lane, n = {n}");
        }
    }
}

#[test]
#[should_panic(expected = "share a permutation family")]
fn count_equal_rejects_mismatched_lengths() {
    let _ = count_equal(&[1, 2, 3], &[1, 2]);
}

/// Differential test of the stored-row kernel: every length 0…600 at every
/// offset 0…3 into its buffers — so the unaligned loads start at odd
/// `u16`s, not only where an allocation does — with no, a few, 32 and as
/// many wide lanes as fit, against the portable loop and the count the
/// input was built to have.
#[test]
fn count_equal_row_matches_the_portable_loop_at_every_length_and_offset() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as u32
    };
    let a: Vec<u16> = (0..604).map(|_| next() as u16).collect();
    // `b` agrees with `a` on about two words in three, in no pattern a
    // 16-word vector could line up with.
    let agree: Vec<bool> = (0..604).map(|_| next() % 3 != 0).collect();
    let b: Vec<u16> = a
        .iter()
        .zip(&agree)
        .map(|(&v, &eq)| v ^ u16::from(!eq))
        .collect();
    for offset in 0..4 {
        for n in 0..=600 {
            let (x, y) = (&a[offset..offset + n], &b[offset..offset + n]);
            let agree = &agree[offset..offset + n];
            for wide in [0, 3, 32, n / 2] {
                if 2 * wide > n {
                    continue;
                }
                // A wide lane agrees when both its words do.
                let (wide_words, narrow_words) = agree.split_at(2 * wide);
                let expect = wide_words.chunks(2).filter(|w| w[0] && w[1]).count()
                    + narrow_words.iter().filter(|&&eq| eq).count();
                let at = format!("n = {n}, wide = {wide} at {offset}");
                assert_eq!(count_equal_row_portable(x, y, wide), expect, "{at}");
                assert_eq!(count_equal_row(x, y, wide), expect, "{at}");
                // Differently aligned sides (the copy starts where an
                // allocation does), all equal and none equal.
                let copy = x.to_vec();
                assert_eq!(count_equal_row(x, &copy, wide), n - wide, "{at}");
                let none: Vec<u16> = x.iter().map(|v| !v).collect();
                assert_eq!(count_equal_row(x, &none, wide), 0, "{at}");
            }
        }
    }
    // Saturated lanes: 0xffff compares equal like any other value, and a
    // full vector of matches counts eight wide lanes or sixteen narrow.
    let ones = vec![u16::MAX; 600];
    assert_eq!(count_equal_row(&ones, &ones, 0), 600);
    assert_eq!(count_equal_row(&ones, &ones, 300), 300);
    // One differing half is a differing wide lane.
    let mut half = ones.clone();
    half[1] = 0;
    assert_eq!(count_equal_row(&ones, &half, 32), 600 - 32 - 1);
}

#[test]
#[should_panic(expected = "share a permutation family")]
fn count_equal_row_rejects_mismatched_lengths() {
    let _ = count_equal_row(&[1, 2, 3], &[1, 2], 0);
}

#[test]
#[should_panic(expected = "shorter than its wide lanes")]
fn count_equal_row_rejects_more_wide_lanes_than_words() {
    let _ = count_equal_row(&[1, 2, 3], &[1, 2, 3], 2);
}
