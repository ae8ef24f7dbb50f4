//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for section
//! checksums.
//!
//! Slice-by-8: eight table lookups fold eight input bytes per step instead
//! of one dependent lookup per byte. Dependency-free; the polynomial choice
//! matches zip/png/ethernet, so externally produced files are easy to
//! cross-check with standard tools.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes. Built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 256;
    while n < 8 * 256 {
        let prev = tables[n / 256 - 1][n % 256];
        tables[n / 256][n % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        n += 1;
    }
    tables
};

/// One byte per step: the tail of [`Crc32::update`], and the reference
/// the sliced loop is tested against.
fn update_bytewise(mut s: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        s = (s >> 8) ^ TABLES[0][((s ^ u32::from(b)) & 0xFF) as usize];
    }
    s
}

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = s ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            s = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][w[4] as usize]
                ^ TABLES[2][w[5] as usize]
                ^ TABLES[1][w[6] as usize]
                ^ TABLES[0][w[7] as usize];
        }
        self.state = update_bytewise(s, words.remainder());
    }

    /// The finished checksum value.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(37) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    proptest::proptest! {
        /// The sliced loop equals the bytewise reference on any buffer,
        /// however `update` calls cut it (cuts move the 8-byte phase).
        #[test]
        fn sliced_update_matches_bytewise_reference(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..5),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut sliced = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                sliced.update(&data[from..cut]);
                from = cut;
            }
            let reference = update_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
            proptest::prop_assert_eq!(sliced.finish(), reference);
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 4096];
        let base = crc32(&data);
        for pos in [0usize, 1, 100, 4095] {
            data[pos] ^= 0x10;
            assert_ne!(crc32(&data), base, "flip at {pos} undetected");
            data[pos] ^= 0x10;
        }
    }
}
