//! Binary persistence for the [`LshEnsemble`]: build once, serve from disk.
//!
//! Format (little-endian, primitives from `lshe_minhash::codec`):
//!
//! ```text
//! "LSHE" version:u8 (9)
//! num_perm:u32 b_max:u32 r_max:u32 strategy_tag:u8 strategy_args…
//! len:u64 partition_count:u64
//! per partition, largest first:
//!     lower:u64 upper:u64 forest_len:u64 forest_bytes ("LSHF" v5)
//!     rows:u64 pad (to 8) sizes:u64×rows   each row's cardinality
//! segment_count:u64
//! per segment: entry_count:u64, then per entry
//!     id:u32 size:u64 heads:u32×b_max tails:u16×(m − b_max)
//! dead_count:u64
//! per tombstone: id:u32 tier:u8 (0 = base, 1 = segment) index:u32
//! ```
//!
//! Every row is held as the forests keep it (`lshe_lsh::Layout`): each
//! tree's first key lane at 32 bits, every other lane as its low 16 — in the
//! nested forests and in the segment entries alike. The nested forests'
//! tree entries are 4 bytes (the head's low 16 bits and a block-local `u16`
//! row).
//!
//! Everything a base holds per domain is a column that starts on a boundary
//! of its element type in the file — the forests' by their own pad, the
//! sizes by the pad above (a pad is one byte saying how many zeros follow,
//! counted from the start of the file) — so [`LshEnsemble::decode`] over a
//! mapped file leaves each base partition and its sizes views into it: a
//! loaded base keeps nothing per domain on the heap. Each base partition's
//! ids strictly ascend and no id is in two of them, so an id's base row is
//! a search of each partition's ids. The decoder checks both — the second
//! by merging the ascending columns — and that every size is positive. A
//! base tombstone's index is the partition its id's row is in, which the
//! decoder checks too; a segment tombstone's is its segment.
//!
//! The partitions are stored from the largest domains down — a query
//! probes every partition whose largest domain can reach `t*·q`, so the
//! partitions of the largest domains are probed by every query and those
//! of the smallest by few. A fault on the mapped file makes a 64 KiB
//! window around the page read resident, so what is read together is
//! stored together. In memory, and in every index a tombstone uses, the
//! partitions stay smallest first.
//!
//! Version 8, the one generation before, stored an id → row directory in
//! front of the partitions — `rows:u64 pad (to 4) ids:u32×rows
//! at:u32×rows` — which the decoder skips: every writer of version 8 gave
//! each partition ascending ids, which the decoder checks as it does for
//! version 9. The next save writes version 9. Anything older — no sizes
//! behind the forests, 8-byte tree entries, unpadded forests, rows of
//! 32-bit lanes throughout, forests that held the lanes as tree keys, `u64`
//! slots, no segment stack — is refused with
//! [`CodecError::UnsupportedVersion`]. Sealed segments persist as their
//! entry triples in sealing order — partitioning a segment is
//! deterministic, so the decoder replays [`build_segment`] and reconstructs
//! bit-identical forests, which keeps the byte form canonical.
//!
//! The tuner's memo table is deliberately *not* persisted — it is a cache,
//! rebuilt lazily, and excluding it keeps the byte form canonical.
//!
//! [`build_segment`]: crate::ensemble
use crate::ensemble::LshEnsemble;
use crate::ensemble::{base_row, check_base_ids, DeadSlot, EnsembleConfig, EnsemblePartition};
use crate::partition::PartitionStrategy;
use lshe_lsh::{DomainId, Layout, LshForest, RowBuf};
use lshe_minhash::codec::{CodecError, Column, Decoder, Encoder};
use std::io::Write;
use std::sync::Arc;

/// Envelope tag for ensemble payloads.
pub const MAGIC: [u8; 4] = *b"LSHE";
/// Current format version: base sizes are columns of the payload, and
/// each base partition's ids ascend, so no id → row directory is stored.
pub const VERSION: u8 = 9;
/// The oldest version still decoded: the generation before [`VERSION`],
/// whose id → row directory the decoder skips.
const OLDEST_READ: u8 = 8;

pub(crate) fn encode_strategy<W: Write>(enc: &mut Encoder<W>, strategy: PartitionStrategy) {
    match strategy {
        PartitionStrategy::Single => enc.put_u8(0),
        PartitionStrategy::EquiDepth { n } => {
            enc.put_u8(1);
            enc.put_u64(n as u64);
        }
        PartitionStrategy::EquiWidth { n } => {
            enc.put_u8(2);
            enc.put_u64(n as u64);
        }
        PartitionStrategy::Morph { n, lambda } => {
            enc.put_u8(3);
            enc.put_u64(n as u64);
            enc.put_f64(lambda);
        }
        PartitionStrategy::EquiFp { n } => {
            enc.put_u8(4);
            enc.put_u64(n as u64);
        }
    }
}

/// Appends the tiered-mutation tail (segment stack + tombstone list) of
/// `ensemble` — shared between ensemble payloads and the packed store's
/// `Segments` section. A base tombstone's index is the partition its id's
/// row is in.
pub(crate) fn encode_segments<W: Write>(enc: &mut Encoder<W>, ensemble: &LshEnsemble) {
    let (segments, dead) = (ensemble.raw_segments(), ensemble.raw_dead());
    enc.put_u64(segments.len() as u64);
    for seg in segments {
        enc.put_u64(seg.len() as u64);
        for (_, (id, size, row)) in seg.located() {
            enc.put_u32(id);
            enc.put_u64(size);
            enc.put_u16s(row.words());
        }
    }
    enc.put_u64(dead.len() as u64);
    for &(id, slot) in dead {
        let (tier, index) = match slot {
            DeadSlot::Base => {
                let row = base_row(ensemble.base_partitions(), id);
                let (p, _) = row.expect("a tombstoned base row stays until a compaction");
                (0, p)
            }
            DeadSlot::Seg(s) => (1, s),
        };
        enc.put_u32(id);
        enc.put_u8(tier);
        enc.put_u32(index);
    }
}

/// Decodes [`encode_segments`]' output: per-segment raw entry triples plus
/// the tombstone list, validated against the owning index's shape — a base
/// tombstone `(id, p)` by `in_base(id, p)`.
///
/// # Errors
/// [`CodecError`] on truncation or structural inconsistency.
#[allow(clippy::type_complexity)]
pub(crate) fn decode_segments(
    dec: &mut Decoder<'_>,
    layout: Layout,
    in_base: impl Fn(DomainId, u32) -> bool,
) -> Result<(Vec<Vec<(DomainId, u64, RowBuf)>>, Vec<(DomainId, DeadSlot)>), CodecError> {
    let seg_count = dec.get_u64("segment count")? as usize;
    let mut segment_entries = Vec::new();
    for _ in 0..seg_count {
        let entry_count = dec.get_u64("segment entry count")? as usize;
        if entry_count == 0 {
            return Err(CodecError::Corrupt("empty sealed segment"));
        }
        if entry_count.saturating_mul(12 + layout.row_bytes()) > dec.remaining() {
            return Err(CodecError::Corrupt("segment payload exceeds input"));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let id = dec.get_u32("segment entry id")?;
            let size = dec.get_u64("segment entry size")?;
            if size == 0 {
                return Err(CodecError::Corrupt("zero-size segment entry"));
            }
            let words = dec.get_u16s(layout.words(), "segment entry row")?;
            let row = RowBuf::from_words(layout, words).expect("read to the layout's length");
            entries.push((id, size, row));
        }
        segment_entries.push(entries);
    }
    let dead_count = dec.get_u64("tombstone count")? as usize;
    if dead_count.saturating_mul(9) > dec.remaining() {
        return Err(CodecError::Corrupt("tombstone payload exceeds input"));
    }
    let mut dead = Vec::with_capacity(dead_count);
    for _ in 0..dead_count {
        let id = dec.get_u32("tombstone id")?;
        let tier = dec.get_u8("tombstone tier")?;
        let idx = dec.get_u32("tombstone index")?;
        let slot = match tier {
            0 if in_base(id, idx) => DeadSlot::Base,
            1 if (idx as usize) < seg_count => DeadSlot::Seg(idx),
            0 => return Err(CodecError::Corrupt("base tombstone names no row of its id")),
            1 => return Err(CodecError::Corrupt("tombstone index out of range")),
            _ => return Err(CodecError::Corrupt("unknown tombstone tier")),
        };
        dead.push((id, slot));
    }
    Ok((segment_entries, dead))
}

/// Reads a partition's `rows:u64`, pad and sizes column.
fn decode_sizes(dec: &mut Decoder<'_>) -> Result<Column<u64>, CodecError> {
    let rows = usize::try_from(dec.get_u64("size count")?)
        .ok()
        .filter(|&rows| rows.checked_mul(8).is_some_and(|b| b <= dec.remaining()))
        .ok_or(CodecError::Corrupt("announced length exceeds input"))?;
    dec.get_pad("sizes pad")?;
    dec.get_column(rows, "sizes")
}

pub(crate) fn decode_strategy(dec: &mut Decoder<'_>) -> Result<PartitionStrategy, CodecError> {
    let tag = dec.get_u8("strategy tag")?;
    Ok(match tag {
        0 => PartitionStrategy::Single,
        1 => PartitionStrategy::EquiDepth {
            n: dec.get_u64("strategy n")? as usize,
        },
        2 => PartitionStrategy::EquiWidth {
            n: dec.get_u64("strategy n")? as usize,
        },
        3 => PartitionStrategy::Morph {
            n: dec.get_u64("strategy n")? as usize,
            lambda: dec.get_f64("strategy lambda")?,
        },
        4 => PartitionStrategy::EquiFp {
            n: dec.get_u64("strategy n")? as usize,
        },
        _ => return Err(CodecError::Corrupt("unknown strategy tag")),
    })
}

impl LshEnsemble {
    /// Serialises the ensemble: base, segment stack and tombstones.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        Encoder::exactly(|enc| self.encode_into(enc))
    }

    /// [`to_bytes`](Self::to_bytes) into `enc`, every forest in place: no
    /// buffer per nesting level.
    pub fn encode_into<W: Write>(&self, enc: &mut Encoder<W>) {
        let config = *self.config();
        enc.envelope(MAGIC, VERSION);
        enc.put_u32(config.num_perm as u32);
        enc.put_u32(config.b_max as u32);
        enc.put_u32(config.r_max as u32);
        encode_strategy(enc, config.strategy);
        enc.put_u64(self.len() as u64);
        let parts = self.base_partitions();
        enc.put_u64(parts.len() as u64);
        // Largest first: the partitions every query probes lead the file.
        for part in parts.iter().rev() {
            enc.put_u64(part.lower);
            enc.put_u64(part.upper);
            // Raw append: the forest bytes are themselves an envelope.
            enc.put_nested(|enc| part.forest.encode_into(enc));
            enc.put_u64(part.sizes.len() as u64);
            enc.pad_to(8);
            enc.put_u64s(&part.sizes);
        }
        encode_segments(enc, self);
    }

    /// Deserialises an ensemble, copying everything out of `bytes`.
    ///
    /// # Errors
    /// As [`decode`](Self::decode).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(Decoder::new(bytes))
    }

    /// Deserialises an ensemble from all that is left of `dec`. Over a
    /// decoder that runs on a shared owner (a mapped index file) the base
    /// partitions' columns and their sizes are views into it
    /// (`LshForest::decode`); segments and tombstones are rebuilt on the
    /// heap.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or structural
    /// inconsistencies.
    pub fn decode(mut dec: Decoder<'_>) -> Result<Self, CodecError> {
        let version = dec.envelope(MAGIC)?;
        if !(OLDEST_READ..=VERSION).contains(&version) {
            return Err(CodecError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let num_perm = dec.get_u32("num_perm")? as usize;
        let b_max = dec.get_u32("b_max")? as usize;
        let r_max = dec.get_u32("r_max")? as usize;
        let strategy = decode_strategy(&mut dec)?;
        let len = dec.get_u64("len")? as usize;
        let part_count = dec.get_u64("partition count")? as usize;
        if num_perm == 0 || b_max == 0 || r_max == 0 || b_max * r_max > num_perm {
            return Err(CodecError::Corrupt("inconsistent configuration"));
        }
        if version < VERSION {
            // Version 8's directory: two `u32` columns behind a count and
            // a pad.
            let rows = dec.get_u64("directory rows")?;
            dec.get_pad("directory pad")?;
            let bytes = usize::try_from(rows)
                .ok()
                .and_then(|rows| rows.checked_mul(8));
            let bytes = bytes.ok_or(CodecError::Corrupt("announced length exceeds input"))?;
            dec.skip(bytes, "directory")?;
        }
        // A partition is at least its bounds and a length: 24 bytes.
        let mut shells = Vec::with_capacity(part_count.min(dec.remaining() / 24));
        for _ in 0..part_count {
            let lower = dec.get_u64("partition lower")?;
            let upper = dec.get_u64("partition upper")?;
            if lower > upper {
                return Err(CodecError::Corrupt("inverted partition bounds"));
            }
            let forest = dec.nested("forest bytes")?;
            shells.push((lower, upper, forest, decode_sizes(&mut dec)?));
        }
        // Written largest first; held smallest first.
        shells.reverse();
        // Each forest is decoded, and its trees checked against its rows,
        // on a lane of its own — as it was built.
        let forests = lshe_minhash::lanes::run_each(&shells, |(_, _, forest, _)| {
            LshForest::decode(forest.clone())
        });
        let layout = Layout::new(b_max, r_max, num_perm);
        let mut partitions = Vec::with_capacity(shells.len());
        for ((lower, upper, _, sizes), forest) in shells.into_iter().zip(forests) {
            let forest = forest?;
            if forest.layout() != layout {
                return Err(CodecError::Corrupt("forest dims disagree with config"));
            }
            if sizes.len() != forest.len() {
                return Err(CodecError::Corrupt("sizes disagree with forest rows"));
            }
            if sizes.contains(&0) {
                return Err(CodecError::Corrupt("zero base size"));
            }
            partitions.push(Arc::new(EnsemblePartition {
                lower,
                upper,
                forest,
                sizes,
            }));
        }
        check_base_ids(&partitions).map_err(CodecError::Corrupt)?;
        let in_base = |id, p| base_row(&partitions, id).is_some_and(|(q, _)| q == p);
        let (segment_entries, dead) = decode_segments(&mut dec, layout, in_base)?;
        if !dec.is_exhausted() {
            return Err(CodecError::Corrupt("trailing bytes after ensemble"));
        }
        let config = EnsembleConfig {
            num_perm,
            b_max,
            r_max,
            strategy,
        };
        let ensemble = Self::from_raw_partitions(config, partitions, len, segment_entries, dead);
        // Live ids (base rows, plus segment entries, minus tombstones) must
        // agree with the recorded length, and each be one live row.
        if ensemble.id_count() != len {
            return Err(CodecError::Corrupt("partition sizes do not sum to len"));
        }
        if ensemble.live_rows() != len {
            return Err(CodecError::Corrupt("an id is live in two rows"));
        }
        Ok(ensemble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mutation;
    use lshe_minhash::{MinHasher, Signature};

    fn sample_ensemble(n: usize) -> (MinHasher, LshEnsemble, Vec<(u32, u64, Signature)>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(77, 20 * n);
        let mut builder = LshEnsemble::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        });
        let mut entries = Vec::new();
        for k in 0..n {
            let vals: Vec<u64> = pool[..20 * (k + 1)].to_vec();
            let sig = h.signature(vals.iter().copied());
            builder.add(k as u32, vals.len() as u64, sig.clone());
            entries.push((k as u32, vals.len() as u64, sig));
        }
        (h, builder.build(), entries)
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let (_, ens, entries) = sample_ensemble(40);
        let bytes = ens.to_bytes();
        let restored = LshEnsemble::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.len(), ens.len());
        assert_eq!(restored.num_partitions(), ens.num_partitions());
        assert_eq!(restored.config(), ens.config());
        for (_, size, sig) in entries.iter().step_by(7) {
            for t in [0.2, 0.6, 1.0] {
                assert_eq!(
                    ens.query_with_size(sig, *size, t),
                    restored.query_with_size(sig, *size, t),
                    "t = {t}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let (_, ens, _) = sample_ensemble(20);
        let bytes = ens.to_bytes();
        let restored = LshEnsemble::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn mutated_ensemble_roundtrips_with_id_routing_intact() {
        let (h, mut ens, entries) = sample_ensemble(24);
        // Mutate: remove a few built domains, add a fresh one.
        let vals = MinHasher::synthetic_values(321, 90);
        let sig = h.signature(vals.iter().copied());
        let insert = Mutation::Insert(777, 90, &sig);
        let batch = [Mutation::Remove(3), Mutation::Remove(17), insert];
        ens.commit(&batch).expect("commit");
        let bytes = ens.to_bytes();
        let mut restored = LshEnsemble::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.len(), 23);
        // The rebuilt id map routes further mutations correctly.
        assert!(!restored.contains(3) && !restored.contains(17));
        assert!(restored.contains(777));
        assert_eq!(
            restored.commit(&[insert]),
            Err(crate::MutationError::DuplicateId(777))
        );
        restored
            .commit(&[Mutation::Remove(777)])
            .expect("remove decoded insert");
        assert!(!restored.query_with_size(&sig, 90, 0.9).contains(&777));
        let (_, size5, sig5) = &entries[5];
        assert!(restored.query_with_size(sig5, *size5, 1.0).contains(&5));
    }

    #[test]
    fn fully_emptied_ensemble_roundtrips() {
        let (h, mut ens, entries) = sample_ensemble(6);
        let removes: Vec<Mutation<'_>> = (0..6).map(Mutation::Remove).collect();
        ens.commit(&removes).expect("remove");
        assert!(ens.is_empty());
        let bytes = ens.to_bytes();
        let restored = LshEnsemble::from_bytes(&bytes).expect("decode empty");
        assert!(restored.is_empty());
        assert_eq!(restored.num_partitions(), ens.num_partitions());

        // Rebuilt, it is a base of no partitions, and round-trips as one.
        let mut empty = ens.clone();
        empty.compact();
        assert_eq!((empty.len(), empty.num_partitions()), (0, 0));
        let bytes = empty.to_bytes();
        let restored = LshEnsemble::from_bytes(&bytes).expect("decode no partitions");
        assert_eq!((restored.len(), restored.num_partitions()), (0, 0));
        assert_eq!(restored.to_bytes(), bytes);
        let (_, size, sig) = &entries[2];
        assert!(restored.query_with_size(sig, *size, 0.1).is_empty());
        // It takes rows again: sealed, then rebuilt into a base.
        let fresh = h.signature(MinHasher::synthetic_values(8, 30));
        let insert = Mutation::Insert(40, 30, &fresh);
        empty.commit(&[insert]).expect("insert");
        assert!(empty.query_with_size(&fresh, 30, 1.0).contains(&40));
        empty.compact();
        assert_eq!((empty.len(), empty.num_partitions()), (1, 1));
        assert!(empty.query_with_size(&fresh, 30, 1.0).contains(&40));
    }

    #[test]
    fn truncation_rejected() {
        let (_, ens, _) = sample_ensemble(10);
        let bytes = ens.to_bytes();
        for cut in [0usize, 4, 10, 30, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LshEnsemble::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn strategy_roundtrips_all_variants() {
        for strategy in [
            PartitionStrategy::Single,
            PartitionStrategy::EquiDepth { n: 9 },
            PartitionStrategy::EquiWidth { n: 3 },
            PartitionStrategy::Morph { n: 5, lambda: 0.37 },
            PartitionStrategy::EquiFp { n: 7 },
        ] {
            let mut enc = Encoder::default();
            encode_strategy(&mut enc, strategy);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(decode_strategy(&mut dec).expect("decode"), strategy);
        }
    }

    #[test]
    fn len_mismatch_rejected() {
        let (_, ens, _) = sample_ensemble(10);
        let mut bytes = ens.to_bytes();
        // len sits after the envelope (5) + three u32 (12) + strategy
        // (tag 1 + u64 8) = offset 26; bump it.
        bytes[26] ^= 1;
        assert!(matches!(
            LshEnsemble::from_bytes(&bytes).unwrap_err(),
            CodecError::Corrupt(_)
        ));
    }

    /// A segment entry that names a base id no tombstone buries, with the
    /// length that counts the id once, is refused: a search verifies a
    /// candidate in the row its probe found, so an id is one live row.
    #[test]
    fn an_id_live_in_two_rows_is_rejected() {
        let (h, mut ens, _) = sample_ensemble(10);
        let sig = h.signature(MinHasher::synthetic_values(5, 30));
        ens.commit(&[Mutation::Insert(700, 30, &sig)])
            .expect("insert");
        let mut bytes = ens.to_bytes();
        let entry: Vec<u8> = [&700u32.to_le_bytes()[..], &30u64.to_le_bytes()].concat();
        let at = (0..bytes.len() - entry.len())
            .rfind(|&i| bytes[i..].starts_with(&entry))
            .expect("the segment entry");
        bytes[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        bytes[26..34].copy_from_slice(&10u64.to_le_bytes());
        assert_eq!(
            LshEnsemble::from_bytes(&bytes).unwrap_err(),
            CodecError::Corrupt("an id is live in two rows")
        );
    }
}
