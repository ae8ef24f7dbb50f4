//! Binary persistence for [`LshForest`].
//!
//! The forest is the bulk of an LSH Ensemble's state; serialising it lets a
//! server build an index once and serve it from disk thereafter. Format
//! (little-endian, see `lshe_minhash::codec` for primitives):
//!
//! ```text
//! "LSHF" version:u8
//! b_max:u32 r_max:u32 len:u64
//! per tree (b_max times):
//!     keys:  u64 count, count × u32
//!     ids:   u64 count, count × u32
//! ```
//!
//! Only *committed* state is stored: [`LshForest::to_bytes`] requires the
//! staged tail to be empty (call [`LshForest::commit`] first), which keeps
//! the format canonical — two forests with the same contents serialise to
//! identical bytes.

use crate::forest::LshForest;
use crate::DomainId;
use lshe_minhash::codec::{CodecError, Decoder, Encoder};

/// Envelope tag for forest payloads.
pub const MAGIC: [u8; 4] = *b"LSHF";
/// Current format version.
pub const VERSION: u8 = 1;

impl LshForest {
    /// Serialises the committed forest.
    ///
    /// # Panics
    /// Panics if staged inserts exist — commit first so the byte form is
    /// canonical.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        Encoder::exactly(|enc| self.encode_into(enc))
    }

    /// [`to_bytes`](Self::to_bytes) (and its panic) into `enc`, so an
    /// enclosing format nests the forest without an intermediate buffer.
    pub fn encode_into<W: std::io::Write>(&self, enc: &mut Encoder<W>) {
        assert_eq!(self.staged_len(), 0, "commit the forest before serialising");
        enc.envelope(MAGIC, VERSION);
        enc.put_u32(self.b_max() as u32);
        enc.put_u32(self.r_max() as u32);
        enc.put_u64(self.len() as u64);
        for (keys, ids) in self.raw_trees() {
            enc.put_u32_slice(keys);
            enc.put_u32_slice(ids);
        }
    }

    /// Deserialises a forest.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or structural
    /// inconsistencies (key/id count mismatch, wrong tree count).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.envelope(MAGIC)?;
        if version > VERSION {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let b_max = dec.get_u32("b_max")? as usize;
        let r_max = dec.get_u32("r_max")? as usize;
        let len = dec.get_u64("len")? as usize;
        if b_max == 0 || r_max == 0 {
            return Err(CodecError::Corrupt("zero forest dimensions"));
        }
        let mut trees = Vec::with_capacity(b_max);
        for _ in 0..b_max {
            let keys = dec.get_u32_vec("tree keys")?;
            let ids: Vec<DomainId> = dec.get_u32_vec("tree ids")?;
            if keys.len() != ids.len() * r_max {
                return Err(CodecError::Corrupt("key rows do not match id count"));
            }
            if ids.len() != len {
                return Err(CodecError::Corrupt("tree size does not match forest len"));
            }
            trees.push((keys, ids));
        }
        if !dec.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after forest"));
        }
        Ok(Self::from_raw_trees(b_max, r_max, len, trees))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;

    fn sample_forest(n: usize) -> (MinHasher, LshForest, Vec<Vec<u64>>) {
        let h = MinHasher::new(256);
        let mut f = LshForest::new(32, 8);
        let mut values = Vec::new();
        for i in 0..n {
            let vals = MinHasher::synthetic_values(i as u64, 60);
            f.insert(i as u32, &h.signature(vals.iter().copied()));
            values.push(vals);
        }
        f.commit();
        (h, f, values)
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let (h, forest, values) = sample_forest(200);
        let bytes = forest.to_bytes();
        let restored = LshForest::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.len(), forest.len());
        for vals in values.iter().take(20) {
            let sig = h.signature(vals.iter().copied());
            for &(b, r) in &[(32usize, 8usize), (8, 4), (1, 1)] {
                assert_eq!(forest.query(&sig, b, r), restored.query(&sig, b, r));
            }
        }
    }

    #[test]
    fn bulk_built_forest_equals_insert_and_commit() {
        // Prefixes of one pool make near-duplicate domains, so trees hold
        // runs of equal keys whose order the byte form depends on.
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(3, 400);
        let sigs: Vec<_> = (0..300usize)
            .map(|i| h.signature(pool[..100 + i].iter().copied()))
            .collect();
        for &(b_max, r_max) in &[(32usize, 8usize), (8, 4), (1, 1)] {
            let mut staged = LshForest::new(b_max, r_max);
            let rows: Vec<(DomainId, &_)> = (0u32..).zip(&sigs).collect();
            for &(id, sig) in &rows {
                staged.insert(id, sig);
            }
            staged.commit();
            let bulk = LshForest::from_rows(b_max, r_max, &rows);
            assert_eq!(bulk.len(), staged.len());
            assert_eq!(bulk.to_bytes(), staged.to_bytes(), "({b_max}, {r_max})");
            for sig in sigs.iter().step_by(17) {
                for &(b, r) in &[(b_max, r_max), (1, 1), (b_max.div_ceil(2), r_max)] {
                    let (mut got, mut want) = (Vec::new(), Vec::new());
                    bulk.query_into(sig, b, r, &mut got);
                    staged.query_into(sig, b, r, &mut want);
                    assert_eq!(got, want, "({b_max}, {r_max}) queried at ({b}, {r})");
                }
            }
        }
        let empty = LshForest::from_rows(4, 2, &[]);
        assert_eq!(empty.to_bytes(), LshForest::new(4, 2).to_bytes());
    }

    #[test]
    fn decoded_and_bulk_built_columns_have_no_spare_capacity() {
        let (h, forest, values) = sample_forest(77);
        let sigs: Vec<_> = values
            .iter()
            .map(|v| h.signature(v.iter().copied()))
            .collect();
        let rows: Vec<(DomainId, &_)> = (0u32..).zip(&sigs).collect();
        let bulk = LshForest::from_rows(32, 8, &rows);
        let decoded = LshForest::from_bytes(&forest.to_bytes()).expect("decode");
        for f in [&bulk, &decoded] {
            let exact: usize = f.raw_trees().map(|(k, i)| 4 * (k.len() + i.len())).sum();
            assert_eq!(f.memory_bytes(), exact, "capacity() == len() per column");
            assert_eq!(f.to_bytes().capacity(), f.to_bytes().len());
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let (_, forest, _) = sample_forest(50);
        let bytes = forest.to_bytes();
        let restored = LshForest::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.to_bytes(), bytes, "canonical form must be stable");
    }

    #[test]
    fn restored_forest_accepts_new_inserts() {
        let (h, forest, _) = sample_forest(30);
        let mut restored = LshForest::from_bytes(&forest.to_bytes()).expect("decode");
        let vals = MinHasher::synthetic_values(999, 40);
        let sig = h.signature(vals.iter().copied());
        restored.insert(777, &sig);
        assert!(restored.query(&sig, 32, 8).contains(&777));
        restored.commit();
        assert!(restored.query(&sig, 32, 8).contains(&777));
    }

    #[test]
    #[should_panic(expected = "commit the forest")]
    fn staged_forest_refuses_serialisation() {
        let h = MinHasher::new(256);
        let mut f = LshForest::new(32, 8);
        f.insert(1, &h.signature(MinHasher::synthetic_values(1, 10)));
        let _ = f.to_bytes();
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let (_, forest, _) = sample_forest(10);
        let bytes = forest.to_bytes();
        for cut in [0usize, 4, 5, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LshForest::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (_, forest, _) = sample_forest(5);
        let mut bytes = forest.to_bytes();
        bytes.push(0);
        assert_eq!(
            LshForest::from_bytes(&bytes).unwrap_err(),
            CodecError::Corrupt("trailing bytes after forest")
        );
    }

    #[test]
    fn wrong_magic_rejected() {
        let (_, forest, _) = sample_forest(5);
        let mut bytes = forest.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            LshForest::from_bytes(&bytes).unwrap_err(),
            CodecError::BadMagic { .. }
        ));
    }

    #[test]
    fn inconsistent_tree_size_rejected() {
        // Hand-craft a payload whose second tree has the wrong id count.
        let mut enc = Encoder::default();
        enc.envelope(MAGIC, VERSION);
        enc.put_u32(2); // b_max
        enc.put_u32(1); // r_max
        enc.put_u64(1); // len
        enc.put_u32_slice(&[5]); // tree 0 keys (1 row × r_max 1)
        enc.put_u32_slice(&[9]); // tree 0 ids
        enc.put_u32_slice(&[5, 6]); // tree 1 keys: 2 rows — wrong
        enc.put_u32_slice(&[9, 10]);
        let err = LshForest::from_bytes(&enc.finish()).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)));
    }
}
