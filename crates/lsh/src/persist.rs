//! Binary persistence for [`LshForest`].
//!
//! The forest is the bulk of an LSH Ensemble's state; serialising it lets a
//! server build an index once and serve it from disk thereafter. Format
//! (little-endian, see `lshe_minhash::codec` for primitives):
//!
//! ```text
//! "LSHF" version:u8 (5)
//! b_max:u32 r_max:u32 width:u32 len:u64
//! pad: n:u8 (0..=3), then n zero bytes   so that `ids` starts on a multiple
//!                                        of 4 bytes from the start of the file
//! ids:  len × u32                    the row table: each row's domain id
//! rows: len × (                      … and its lanes, row-major:
//!     heads: b_max × u32                 each tree's first key lane,
//!     tails: (width − b_max) × u16 )     every other lane's low 16 bits
//! per tree (b_max times):
//!     lo:  len × u16                 each entry's head, its low 16 bits
//!     row: len × u16                 each entry's row within its block
//! ```
//!
//! Every column's length follows from `len`, so none carries a prefix. A
//! row's lanes are stored once, laid out as [`Layout`] says; tree `t` is
//! keyed by head `t` and tails `t·(r_max − 1) ..` of the rows it points at.
//! Rows go in blocks of [`BLOCK`](crate::forest::BLOCK) = 65 536: entry
//! `k·65 536 + j` of a tree belongs to block `k`, names row `k·65 536 +
//! row[…]`, and each block's entries are sorted by (key, row) on their own
//! — a forest of up to 65 536 rows is one sorted run. A key is the row's
//! head, low half first, then its tails. The decoder checks every tree —
//! each block's `row` names rows of that block, every row exactly once,
//! `lo[i]` is the low half of that row's head, keys never descend inside a
//! block — because a forest file carries no checksum and
//! a probe trusts the order. A domain costs `4 + 2·(b_max + width) +
//! 4·b_max` bytes: 708 at the defaults (32 trees, 256 lanes).
//!
//! The pad exists for [`LshForest::decode`] over a decoder that runs on a
//! shared owner (a mapped index file): every column that starts on a
//! boundary of its element type there is handed out as a view into the
//! file, not copied — with the pad, all of them, since the `u16` columns
//! after the ids start on an even byte whatever the row width. The encoder
//! counts the pad from the start of its sink, the decoder reads its length
//! from the pad itself, so a forest decodes the same wherever it is nested;
//! only whether it can be viewed in place depends on where it lies.
//!
//! Version 5 is the only version read. Version 4 (the same header, pad
//! and row table, with trees of 8 bytes an entry) was read, its trees
//! sorted again, for one generation of the files that nest forests; those
//! have moved on twice since, so it is refused with version 3 (no pad) and
//! older.
//!
//! Only *committed* state is stored: [`LshForest::to_bytes`] requires the
//! staged tail to be empty (call [`LshForest::commit`] first), which keeps
//! the format canonical — two forests with the same contents serialise to
//! identical bytes at the same place in a file.

use crate::forest::{check_tree, Layout, LshForest, Rows};
use crate::DomainId;
use lshe_minhash::codec::{CodecError, Column, Decoder, Encoder};

/// Envelope tag for forest payloads.
pub const MAGIC: [u8; 4] = *b"LSHF";
/// Current format version, and the only one read.
pub const VERSION: u8 = 5;
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
        enc.pad_to(4);
        let rows = self.rows();
        enc.put_u32s(rows.ids);
        enc.put_u16s(rows.words);
        for (lo, row) in self.committed_trees() {
            enc.put_u16s(lo);
            enc.put_u16s(row);
        }
    }

    /// Deserialises a forest, copying every column out of `bytes`.
    ///
    /// # Errors
    /// As [`decode`](Self::decode).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(Decoder::new(bytes))
    }

    /// Deserialises a forest from all that is left of `dec`. Over a decoder
    /// that runs on a shared owner, each column that starts on a boundary
    /// of its element type is a view into the owner; every check below runs
    /// on the views as it does on copies.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or structural
    /// inconsistencies: impossible dimensions or counts, a tree that is not
    /// a sorted index of exactly the table's rows, trailing bytes.
    pub fn decode(mut dec: Decoder<'_>) -> Result<Self, CodecError> {
        let version = dec.envelope(MAGIC)?;
        if version != VERSION {
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
        let width = dec.get_u32("row width")? as usize;
        let len = usize::try_from(dec.get_u64("len")?)
            .map_err(|_| CodecError::Corrupt("forest len exceeds address space"))?;
        if width < b_max * r_max {
            return Err(CodecError::Corrupt("row width below b_max·r_max"));
        }
        let layout = Layout {
            b_max,
            r_max,
            width,
        };
        // Bound the table by the input before anything is allocated.
        if len
            .checked_mul(layout.row_bytes())
            .is_none_or(|bytes| bytes > dec.remaining())
        {
            return Err(CodecError::Corrupt("announced length exceeds input"));
        }
        dec.get_pad("column pad")?;
        let ids: Column<DomainId> = dec.get_column(len, "row ids")?;
        let words: Column<u16> = dec.get_column(len * layout.words(), "rows")?;
        let rows = Rows {
            ids: &ids,
            words: &words,
            layout,
        };
        let mut trees = Vec::with_capacity(layout.b_max);
        let (mut seen, mut heads) = (vec![0; len], Vec::with_capacity(len));
        for t in 0..layout.b_max {
            // `lo`, then `row`.
            let entries: Column<u16> = dec.get_column(len.saturating_mul(2), "tree columns")?;
            let turn = (t as u32, t as u32 + 1);
            rows.heads_into(t, &mut heads);
            let head = |i: usize| heads.get(i).copied();
            check_tree(rows, entries.split_at(len), t, head, &mut seen, turn)
                .map_err(CodecError::Corrupt)?;
            trees.push(entries);
        }
        if !dec.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after forest"));
        }
        Ok(Self::from_raw(layout, ids, words, trees))
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
        let empty = LshForest::from_rows::<[u32]>(4, 2, 8, &[]);
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
            // The row table once (id + 32 heads + 224 16-bit tails a row),
            // two `u16` columns a tree.
            let exact = f.len() * (4 + 576 + 4 * 32);
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
    /// the fields of its payload: rows `(7 2 | 65 540 4 | 99)`, `(7 1 | 3
    /// 9 | 98)`, `(5 8 | 4 1 | 97)`.
    struct Payload {
        version: u8,
        dims: [u32; 3],
        len: u64,
        ids: Vec<u32>,
        rows: Vec<u16>,
        trees: Vec<(Vec<u16>, Vec<u16>)>,
    }

    impl Payload {
        fn valid() -> Self {
            Self {
                version: VERSION,
                dims: [2, 2, 5],
                len: 3,
                ids: vec![10, 11, 12],
                // Two heads (low half, high half), then three tails.
                #[rustfmt::skip]
                rows: vec![
                    7, 0, 4, 1,   2, 4, 99,
                    7, 0, 3, 0,   1, 9, 98,
                    5, 0, 4, 0,   8, 1, 97,
                ],
                // Tree 0 by lanes 0..2: (5,8) (7,1) (7,2); tree 1 by lanes
                // 2..4: (3,9) (4,1) (65 540,4) — the last head's low half
                // is 4, like the one before it, and its high half 1.
                trees: vec![
                    (vec![5, 7, 7], vec![2, 1, 0]),
                    (vec![3, 4, 4], vec![1, 2, 0]),
                ],
            }
        }

        /// Everything before the trees.
        fn head(&self) -> Encoder {
            let mut enc = Encoder::default();
            enc.envelope(MAGIC, self.version);
            self.dims.iter().for_each(|&d| enc.put_u32(d));
            enc.put_u64(self.len);
            enc.pad_to(4);
            enc.put_u32s(&self.ids);
            enc.put_u16s(&self.rows);
            enc
        }

        fn bytes(&self) -> Vec<u8> {
            let mut enc = self.head();
            for (lo, row) in &self.trees {
                enc.put_u16s(lo);
                enc.put_u16s(row);
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
        // Heads are matched whole, not by the low half the tree keeps.
        let sig = Signature::from_slots(vec![0, 0, 65_540, 4, 0]);
        assert_eq!(forest.query(&sig, 2, 1), vec![10]);
        let sig = Signature::from_slots(vec![0, 0, 4 | 2 << 16, 4, 0]);
        assert!(forest.query(&sig, 2, 1).is_empty());
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
                "a run out of order past the head",
                |p| p.trees[0].1 = vec![2, 0, 1],
                "tree keys out of order",
            ),
            (
                "a lo disagreeing with its row",
                |p| p.trees[1].0[2] = 5,
                "tree head bits disagree with its row",
            ),
            (
                "a block-local row at the block's length",
                |p| p.trees[1].1[2] = 3,
                "tree row index out of range",
            ),
            (
                "a huge row index",
                |p| p.trees[0].1[0] = u16::MAX,
                "tree row index out of range",
            ),
            (
                "trees disagreeing on the row set",
                |p| p.trees[1] = (vec![3, 4, 4], vec![1, 2, 2]),
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
    fn over_a_shared_owner_aligned_columns_are_views_until_written() {
        use lshe_minhash::codec::Owner;
        use std::sync::Arc;
        let (h, forest, values) = sample_forest(40);
        let owner: Owner = Arc::new(forest.to_bytes());
        let bytes: &[u8] = (*owner).as_ref();
        let mut viewed = LshForest::decode(Decoder::shared(&owner)).expect("decode");
        assert!(viewed.borrows_from(bytes));
        // The row table, and two columns a tree.
        let (table, trees) = (40 * (4 + 576), 40 * 4 * 32);
        assert_eq!(viewed.mapped_bytes(), table + trees);
        assert_eq!(viewed.memory_bytes(), table + trees);
        assert_eq!(forest.mapped_bytes(), 0);
        assert!(!forest.borrows_from(bytes));
        // A clone is another view; a copy decoded from a slice is not one.
        assert!(viewed.clone().borrows_from(bytes));
        assert_eq!(
            LshForest::from_bytes(bytes).expect("copy").mapped_bytes(),
            0
        );
        let sigs: Vec<_> = values
            .iter()
            .map(|v| h.signature(v.iter().copied()))
            .collect();
        for sig in &sigs {
            assert_eq!(viewed.query(sig, 32, 4), forest.query(sig, 32, 4));
        }
        assert_eq!(viewed.to_bytes(), bytes);
        // One byte further into a file nothing is aligned: all copied, and
        // re-encoded there the pad realigns it.
        let shifted: Owner = Arc::new([&[0u8][..], bytes].concat());
        let mut dec = Decoder::shared(&shifted);
        dec.skip(1, "shift").expect("skip");
        let copied = LshForest::decode(dec).expect("decode shifted");
        assert_eq!(copied.mapped_bytes(), 0);
        assert_eq!(copied.to_bytes(), bytes);
        // Writes copy out what they touch: an insert the row table, a
        // commit (new trees) the rest.
        viewed.insert(900, &sigs[0]);
        assert_eq!(viewed.mapped_bytes(), trees);
        assert!(!viewed.borrows_from(bytes));
        viewed.commit();
        assert_eq!(viewed.mapped_bytes(), 0);
        // The views outlive every other handle to the owner.
        let kept = LshForest::decode(Decoder::shared(&owner)).expect("decode");
        drop(owner);
        assert_eq!(kept.query(&sigs[7], 32, 8), forest.query(&sigs[7], 32, 8));
    }

    #[test]
    fn version_1_is_refused_on_its_version_byte() {
        // So are version 2, whose rows were 32-bit lanes throughout,
        // version 3, whose columns had no pad, and version 4, whose tree
        // entries were 8 bytes.
        for old in [1, 2, 3, 4] {
            let mut enc = Encoder::default();
            enc.envelope(MAGIC, old);
            assert_eq!(
                LshForest::from_bytes(&enc.finish()).unwrap_err(),
                CodecError::UnsupportedVersion {
                    found: old,
                    supported: VERSION
                }
            );
        }
    }
}
