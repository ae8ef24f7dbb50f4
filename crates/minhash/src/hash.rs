//! Low-level 64-bit hashing primitives.
//!
//! Everything in this crate is built on two deterministic building blocks:
//!
//! * [`splitmix64`] — a fast, well-distributed 64-bit finalizer, used both as
//!   a seed expander and as the mixing step of the byte hasher.
//! * [`hash_bytes`] — a seeded streaming byte hash used to map raw domain
//!   values (strings, numbers, blobs) into the 64-bit value universe that
//!   minwise hashing operates on.
//!
//! The implementations are self-contained so the workspace carries no
//! external hashing dependencies, and deterministic across runs and
//! platforms so that signatures, indexes, and test expectations are stable.

/// The `splitmix64` finalizer (Steele, Lea & Flood; used by `SplittableRandom`).
///
/// A bijective mixer on `u64` with excellent avalanche behaviour. Because it
/// is a bijection, feeding it sequential integers yields a full-period,
/// well-distributed stream — which is exactly how [`SeedStream`] uses it.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An infinite deterministic stream of 64-bit words derived from a seed.
///
/// Used to generate hash-family coefficients and padding randomness without
/// pulling in an RNG crate. Two streams with the same seed produce identical
/// sequences.
#[derive(Debug, Clone)]
pub struct SeedStream {
    state: u64,
}

impl SeedStream {
    /// Creates a stream from `seed`. Distinct seeds yield (with overwhelming
    /// probability) non-overlapping sequences for practical lengths.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Pre-mix so that small consecutive seeds (0, 1, 2, ...) do not
        // produce correlated early outputs.
        Self {
            state: splitmix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Returns the next 64-bit word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Returns the next word as a float uniform in the half-open unit
    /// interval `[0, 1)`, with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling gives uniform [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Seeded streaming byte hash (FNV-1a core with a `splitmix64` finalizer).
///
/// FNV-1a alone has weak high-bit diffusion; running the result through
/// [`splitmix64`] fixes that while keeping the hot loop to one multiply per
/// byte. This is the canonical "value → u64" mapping for domain values: two
/// equal byte strings always collide, and unequal ones collide with
/// probability ~2^-64.
#[inline]
#[must_use]
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET ^ splitmix64(seed);
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    splitmix64(h)
}

/// Hashes a string value with the default value-universe seed.
#[inline]
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    hash_bytes(DEFAULT_VALUE_SEED, s.as_bytes())
}

/// Hashes an integer value with the default value-universe seed.
///
/// Integers are mixed directly (no byte serialisation) for speed; the
/// bijectivity of [`splitmix64`] guarantees zero collisions among `u64`
/// inputs under a fixed seed.
#[inline]
#[must_use]
#[cfg(test)]
pub fn hash_u64(v: u64) -> u64 {
    splitmix64(v ^ splitmix64(DEFAULT_VALUE_SEED))
}

/// Default seed for hashing raw values into the 64-bit universe.
///
/// All corpus builders use this seed unless told otherwise so that the same
/// logical value maps to the same point of the universe across crates.
pub const DEFAULT_VALUE_SEED: u64 = 0x15EA_5E11_D0E5_EED5;

/// A fast, non-cryptographic `std::hash::Hasher` for internal hash maps
/// keyed by already-well-mixed data (band buckets, domain ids).
///
/// This is the same multiply-rotate construction as rustc's `FxHasher`; it
/// is not HashDoS-resistant and must only be used for keys the process
/// itself produced (hash values, ids) — never for untrusted input.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    const K: u64 = 0x517C_C1B7_2722_0A95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl std::hash::Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct FastBuildHasher;

impl std::hash::BuildHasher for FastBuildHasher {
    type Hasher = FastHasher;

    #[inline]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

/// A `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;
/// A `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<K> = std::collections::HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hasher};

    #[test]
    fn splitmix64_is_deterministic_and_mixes() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), splitmix64(1));
        // Known vector: the reference splitmix64 seeded with state 0
        // produces 0xE220A8397B1DCDAF as its first output.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix64_avalanche_smoke() {
        // Flipping one input bit should flip roughly half the output bits.
        let a = splitmix64(0xDEAD_BEEF);
        let b = splitmix64(0xDEAD_BEEF ^ 1);
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "poor avalanche: {flipped} bits flipped"
        );
    }

    #[test]
    fn seed_stream_deterministic() {
        let mut a = SeedStream::new(42);
        let mut b = SeedStream::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seed_stream_distinct_seeds_differ() {
        let mut a = SeedStream::new(1);
        let mut b = SeedStream::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn seed_stream_f64_in_unit_interval() {
        let mut s = SeedStream::new(7);
        for _ in 0..1000 {
            let v = s.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn seed_stream_f64_mean_near_half() {
        let mut s = SeedStream::new(99);
        let n = 10_000;
        let mean = (0..n).map(|_| s.next_f64()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn hash_bytes_deterministic_and_seed_sensitive() {
        assert_eq!(hash_bytes(1, b"toronto"), hash_bytes(1, b"toronto"));
        assert_ne!(hash_bytes(1, b"toronto"), hash_bytes(2, b"toronto"));
        assert_ne!(hash_bytes(1, b"toronto"), hash_bytes(1, b"ontario"));
    }

    #[test]
    fn hash_bytes_empty_input_ok() {
        // Must not panic and must still depend on the seed.
        assert_ne!(hash_bytes(1, b""), hash_bytes(2, b""));
    }

    #[test]
    fn hash_str_matches_hash_bytes() {
        assert_eq!(hash_str("abc"), hash_bytes(DEFAULT_VALUE_SEED, b"abc"));
    }

    #[test]
    fn hash_u64_injective_sample() {
        use std::collections::HashSet;
        let hashes: HashSet<u64> = (0..10_000u64).map(hash_u64).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn fast_hasher_differs_by_input() {
        let bh = FastBuildHasher;
        let mut h1 = bh.build_hasher();
        h1.write_u64(10);
        let mut h2 = bh.build_hasher();
        h2.write_u64(11);
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn fast_hasher_handles_unaligned_bytes() {
        let bh = FastBuildHasher;
        let mut h1 = bh.build_hasher();
        h1.write(b"abcdefghi"); // 9 bytes: one full chunk + remainder
        let mut h2 = bh.build_hasher();
        h2.write(b"abcdefghj");
        assert_ne!(h1.finish(), h2.finish());
    }
}
