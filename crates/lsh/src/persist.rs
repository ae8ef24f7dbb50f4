//! Binary persistence for [`LshForest`].
//!
//! The forest is the bulk of an LSH Ensemble's state; serialising it lets a
//! server build an index once and serve it from disk thereafter. Format
//! (little-endian, see `lshe_minhash::codec` for primitives):
//!
//! ```text
//! "LSHF" version:u8 (2)
//! b_max:u32 r_max:u32 width:u32 len:u64
//! ids:   len × u32                 the row table: each row's domain id
//! lanes: len·width × u32           … and its lanes, row-major
//! per tree (b_max times):
//!     lane0: len × u32             each entry's first key lane
//!     row:   len × u32             each entry's row in the table
//! ```
//!
//! Every column's length follows from `len`, so none carries a prefix. A
//! row's lanes are stored once; tree `t` is keyed by lanes
//! `t·r_max .. (t+1)·r_max` of the rows it points at and sorted by (key,
//! row). The decoder checks every tree — `row` is a permutation of
//! `0..len`, `lane0[i]` is that row's lane, keys never descend — because a
//! forest file carries no checksum and a probe trusts the order.
//!
//! Version 1 stored, per tree, the sorted keys themselves (`u64` count +
//! `r_max` lanes per row) and the ids (`u64` count + ids) — every lane a
//! second time in a ranked index. It still decodes: the rows are
//! reassembled from the trees in ascending id order (the order a fresh
//! build over ascending ids gives them) with `width = b_max·r_max`, and the
//! trees are sorted again. Nothing writes version 1.
//!
//! Only *committed* state is stored: [`LshForest::to_bytes`] requires the
//! staged tail to be empty (call [`LshForest::commit`] first), which keeps
//! the format canonical — two forests with the same contents serialise to
//! identical bytes.

use crate::forest::{check_tree, LshForest, Rows};
use crate::DomainId;
use lshe_minhash::codec::{CodecError, Decoder, Encoder};

/// Envelope tag for forest payloads.
pub const MAGIC: [u8; 4] = *b"LSHF";
/// Current format version.
pub const VERSION: u8 = 2;
/// Largest `b_max`/`r_max` a decoder accepts: an empty forest's trees take
/// no bytes, so nothing else bounds what it allocates for them.
const MAX_DIM: usize = 1 << 16;

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
        enc.put_u32(self.width() as u32);
        enc.put_u64(self.len() as u64);
        let rows = self.rows();
        enc.put_u32s(rows.ids);
        enc.put_u32s(rows.lanes);
        for (lane0, row) in self.committed_trees() {
            enc.put_u32s(lane0);
            enc.put_u32s(row);
        }
    }

    /// Deserialises a forest.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or structural
    /// inconsistencies: impossible dimensions or counts, a tree that is not
    /// a sorted index of exactly the table's rows.
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
        if b_max == 0 || r_max == 0 {
            return Err(CodecError::Corrupt("zero forest dimensions"));
        }
        if b_max > MAX_DIM || r_max > MAX_DIM {
            return Err(CodecError::Corrupt("forest dimensions out of range"));
        }
        let forest = if version < 2 {
            Self::decode_v1(&mut dec, b_max, r_max)?
        } else {
            Self::decode_v2(&mut dec, b_max, r_max)?
        };
        if !dec.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after forest"));
        }
        Ok(forest)
    }

    fn decode_v2(dec: &mut Decoder<'_>, b_max: usize, r_max: usize) -> Result<Self, CodecError> {
        let width = dec.get_u32("row width")? as usize;
        let len = usize::try_from(dec.get_u64("len")?)
            .map_err(|_| CodecError::Corrupt("forest len exceeds address space"))?;
        if width < b_max * r_max {
            return Err(CodecError::Corrupt("row width below b_max·r_max"));
        }
        // Bound the table by the input before anything is allocated.
        let cells = len
            .checked_mul(width)
            .filter(|&cells| cells <= dec.remaining() / 4)
            .ok_or(CodecError::Corrupt("announced length exceeds input"))?;
        let ids: Vec<DomainId> = dec.get_u32s(len, "row ids")?;
        let lanes = dec.get_u32s(cells, "row lanes")?;
        let rows = Rows {
            ids: &ids,
            lanes: &lanes,
            width,
        };
        let mut trees = Vec::with_capacity(b_max);
        let mut seen = vec![0; len];
        for t in 0..b_max {
            let lane0 = dec.get_u32s(len, "tree lane 0")?;
            let row = dec.get_u32s(len, "tree rows")?;
            let turn = (t as u32, t as u32 + 1);
            check_tree(rows, (&lane0, &row), (t * r_max, r_max), &mut seen, turn)
                .map_err(CodecError::Corrupt)?;
            trees.push((lane0, row));
        }
        Ok(Self::from_raw((b_max, r_max, width), ids, lanes, trees))
    }

    /// The version-1 reader: per tree a `(keys, ids)` column pair holding
    /// the lanes themselves. The row table is reassembled from them.
    fn decode_v1(dec: &mut Decoder<'_>, b_max: usize, r_max: usize) -> Result<Self, CodecError> {
        let width = b_max * r_max;
        // Every lane is in the input once: bounded before it is allocated.
        let len = usize::try_from(dec.get_u64("len")?)
            .ok()
            .filter(|len| len.saturating_mul(width) <= dec.remaining() / 4)
            .ok_or(CodecError::Corrupt("announced length exceeds input"))?;
        // Rows in ascending id order, ties in tree 0's order.
        let mut ids: Vec<DomainId> = Vec::new();
        let mut lanes: Vec<u32> = Vec::new();
        for t in 0..b_max {
            let keys = dec.get_u32_vec("tree keys")?;
            let tree_ids: Vec<DomainId> = dec.get_u32_vec("tree ids")?;
            if keys.len() != tree_ids.len().saturating_mul(r_max) {
                return Err(CodecError::Corrupt("key rows do not match id count"));
            }
            if tree_ids.len() != len {
                return Err(CodecError::Corrupt("tree size does not match forest len"));
            }
            // This tree's entries in the same (id, position) order give
            // the entry ↔ row pairing: the k-th entry of an id is its
            // k-th row.
            let mut entries: Vec<u32> = (0..len as u32).collect();
            entries.sort_by_key(|&i| tree_ids[i as usize]);
            if t == 0 {
                ids = entries.iter().map(|&i| tree_ids[i as usize]).collect();
                lanes = vec![0; len * width];
            } else if !entries
                .iter()
                .zip(&ids)
                .all(|(&i, &id)| tree_ids[i as usize] == id)
            {
                return Err(CodecError::Corrupt("trees disagree on the id set"));
            }
            for (row, &i) in entries.iter().enumerate() {
                let key = &keys[i as usize * r_max..(i as usize + 1) * r_max];
                lanes[row * width + t * r_max..][..r_max].copy_from_slice(key);
            }
        }
        let rows: Vec<(DomainId, &[u32])> = ids
            .iter()
            .zip(lanes.chunks_exact(width))
            .map(|(&id, row)| (id, row))
            .collect();
        Ok(Self::from_rows(b_max, r_max, width, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::{MinHasher, Signature};

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
            let mut staged = LshForest::with_width(b_max, r_max, 256);
            let rows: Vec<(DomainId, &[u32])> =
                (0u32..).zip(sigs.iter().map(Signature::slots)).collect();
            for (&(id, _), sig) in rows.iter().zip(&sigs) {
                staged.insert(id, sig);
            }
            staged.commit();
            let bulk = LshForest::from_rows(b_max, r_max, 256, &rows);
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
        let empty = LshForest::from_rows(4, 2, 8, &[]);
        assert_eq!(empty.to_bytes(), LshForest::new(4, 2).to_bytes());
    }

    #[test]
    fn decoded_and_bulk_built_columns_have_no_spare_capacity() {
        let (h, forest, values) = sample_forest(77);
        let sigs: Vec<_> = values
            .iter()
            .map(|v| h.signature(v.iter().copied()))
            .collect();
        let rows: Vec<(DomainId, &[u32])> =
            (0u32..).zip(sigs.iter().map(Signature::slots)).collect();
        let bulk = LshForest::from_rows(32, 8, 256, &rows);
        let decoded = LshForest::from_bytes(&forest.to_bytes()).expect("decode");
        for f in [&bulk, &decoded] {
            // The row table once (id + 256 lanes a row), two columns a tree.
            let exact = 4 * f.len() * (1 + 256 + 2 * 32);
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

    /// A two-tree forest (`r_max` 2, three rows, one spare lane a row) as
    /// the fields of its version-2 payload.
    struct Payload {
        dims: [u32; 3],
        len: u64,
        ids: Vec<u32>,
        lanes: Vec<u32>,
        trees: Vec<(Vec<u32>, Vec<u32>)>,
    }

    impl Payload {
        fn valid() -> Self {
            Self {
                dims: [2, 2, 5],
                len: 3,
                ids: vec![10, 11, 12],
                #[rustfmt::skip]
                lanes: vec![
                    7, 2, 4, 4, 99,
                    7, 1, 3, 9, 98,
                    5, 8, 4, 1, 97,
                ],
                // Tree 0 by lanes 0..2: (5,8) (7,1) (7,2); tree 1 by lanes
                // 2..4: (3,9) (4,1) (4,4).
                trees: vec![
                    (vec![5, 7, 7], vec![2, 1, 0]),
                    (vec![3, 4, 4], vec![1, 2, 0]),
                ],
            }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut enc = Encoder::default();
            enc.envelope(MAGIC, VERSION);
            self.dims.iter().for_each(|&d| enc.put_u32(d));
            enc.put_u64(self.len);
            enc.put_u32s(&self.ids);
            enc.put_u32s(&self.lanes);
            for (lane0, row) in &self.trees {
                enc.put_u32s(lane0);
                enc.put_u32s(row);
            }
            enc.finish()
        }
    }

    #[test]
    fn hand_built_payload_decodes_and_reencodes() {
        let bytes = Payload::valid().bytes();
        let forest = LshForest::from_bytes(&bytes).expect("valid payload");
        assert_eq!(forest.to_bytes(), bytes);
        let sig = Signature::from_slots(vec![7, 2, 4, 1, 0]);
        assert_eq!(forest.query(&sig, 1, 1), vec![10, 11]);
        assert_eq!(forest.query(&sig, 2, 2), vec![10, 12]);
    }

    #[test]
    fn each_damaged_field_is_a_typed_error() {
        type Damage = fn(&mut Payload);
        let cases: [(&str, Damage, &str); 8] = [
            (
                "a tree column out of order",
                |p| p.trees[0] = (vec![7, 5, 7], vec![1, 2, 0]),
                "tree keys out of order",
            ),
            (
                "a run out of order past lane 0",
                |p| p.trees[0].1 = vec![2, 0, 1],
                "tree keys out of order",
            ),
            (
                "lane 0 disagreeing with its row",
                |p| p.trees[1].0[0] = 4,
                "tree lane 0 disagrees with its row",
            ),
            (
                "a row index outside the table",
                |p| p.trees[1].1[2] = 3,
                "tree row index out of range",
            ),
            (
                "a huge row index",
                |p| p.trees[0].1[0] = u32::MAX,
                "tree row index out of range",
            ),
            (
                "trees disagreeing on the row set",
                |p| p.trees[1] = (vec![4, 4, 4], vec![2, 0, 0]),
                "tree is not a permutation of its partition's rows",
            ),
            (
                "a width below the keyed lanes",
                |p| p.dims[2] = 3,
                "row width below b_max·r_max",
            ),
            (
                "a len beyond the input",
                |p| p.len = u64::MAX / 2,
                "announced length exceeds input",
            ),
        ];
        for (what, damage, detail) in cases {
            let mut payload = Payload::valid();
            damage(&mut payload);
            assert_eq!(
                LshForest::from_bytes(&payload.bytes()).unwrap_err(),
                CodecError::Corrupt(detail),
                "{what}"
            );
        }
    }

    #[test]
    fn version_1_payload_decodes_into_the_row_table() {
        // Two trees of depth 1; ids 9 and 4, inserted in that order.
        let mut enc = Encoder::default();
        enc.envelope(MAGIC, 1);
        enc.put_u32(2); // b_max
        enc.put_u32(1); // r_max
        enc.put_u64(2); // len
        enc.put_u32_slice(&[5, 6]); // tree 0 keys, sorted
        enc.put_u32_slice(&[9, 4]);
        enc.put_u32_slice(&[1, 3]); // tree 1 keys, sorted
        enc.put_u32_slice(&[4, 9]);
        let old = LshForest::from_bytes(&enc.finish()).expect("v1 decodes");
        let fresh = LshForest::from_rows(2, 1, 2, &[(4, &[6, 1]), (9, &[5, 3])]);
        assert_eq!(
            old.to_bytes(),
            fresh.to_bytes(),
            "rows in ascending id order"
        );
        assert_eq!(old.to_bytes()[4], VERSION);

        // A version-1 column out of key order — which the version-1 reader
        // took as it came, and then missed key 7 in — loses nothing: the
        // trees are sorted again from the reassembled rows.
        let mut enc = Encoder::default();
        enc.envelope(MAGIC, 1);
        enc.put_u32(1);
        enc.put_u32(1);
        enc.put_u64(3);
        enc.put_u32_slice(&[5, 9, 7]);
        enc.put_u32_slice(&[10, 11, 12]);
        let healed = LshForest::from_bytes(&enc.finish()).expect("v1 decodes");
        for (key, id) in [(5, 10), (9, 11), (7, 12)] {
            assert_eq!(
                healed.query(&Signature::from_slots(vec![key]), 1, 1),
                vec![id]
            );
        }
    }

    #[test]
    fn inconsistent_tree_size_rejected() {
        // Version 1 payloads, whose trees each carry their own counts.
        let mut enc = Encoder::default();
        enc.envelope(MAGIC, 1);
        enc.put_u32(2);
        enc.put_u32(1);
        enc.put_u64(1);
        enc.put_u32_slice(&[5]);
        enc.put_u32_slice(&[9]);
        enc.put_u32_slice(&[5, 6]); // tree 1: 2 rows — wrong
        enc.put_u32_slice(&[9, 10]);
        assert!(matches!(
            LshForest::from_bytes(&enc.finish()).unwrap_err(),
            CodecError::Corrupt(_)
        ));
        let mut enc = Encoder::default();
        enc.envelope(MAGIC, 1);
        enc.put_u32(2);
        enc.put_u32(1);
        enc.put_u64(1);
        enc.put_u32_slice(&[5]);
        enc.put_u32_slice(&[9]);
        enc.put_u32_slice(&[6]);
        enc.put_u32_slice(&[8]); // tree 1 holds another id
        assert_eq!(
            LshForest::from_bytes(&enc.finish()).unwrap_err(),
            CodecError::Corrupt("trees disagree on the id set")
        );
    }
}
