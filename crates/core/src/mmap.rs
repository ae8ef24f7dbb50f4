//! The packed file: an [`LshEnsemble`] in an `lshe-store` v2 container,
//! opened as the same index a `.lshe` decodes to.
//!
//! [`pack_ranked_with`] streams the index into checksummed 64-byte-aligned
//! sections: each base partition's forest as the columns it holds — row
//! ids, rows, and per tree its `lo` column, then its block-local `row`
//! column — and its sizes, each column kind concatenated across the
//! partitions in a section of its own, beside the partitions' bounds and
//! lengths and the segment stack. [`LshEnsemble::open`] hands each column
//! to its partition's forest as a view into the mapping, so a packed file
//! answers through the ensemble's own read path — hit for hit what the
//! index it was packed from answers — and opening it checks the columns'
//! lengths and each partition's ids, never a forest's trees.
//!
//! No server opens this format: `lshe serve` serves the `.lshe` container,
//! itself mapped in place. The packed file is a library artifact that the
//! conformance suite and the benchmark's `store.*` metrics open.

use crate::ensemble::{check_ascending, check_base_ids};
use crate::ensemble::{EnsembleConfig, EnsemblePartition, LshEnsemble};
use lshe_lsh::{Layout, LshForest};
use lshe_minhash::codec::{CodecError, Decoder, Encoder, Owner};
use lshe_store::{Packer, SectionKind, Store, StoreError};
use std::path::Path;
use std::sync::Arc;

/// The ensemble under the name the packed file's reader had when it had a
/// read path of its own, which `perfbench` still uses.
#[doc(hidden)]
pub type MmapIndex = LshEnsemble;

// ------------------------------------------------------------------ errors

/// Why a v2 store could not be opened as an index.
#[derive(Debug)]
pub enum MmapIndexError {
    /// The container layer failed: I/O, structure, or checksums.
    Store(StoreError),
    /// A codec-encoded section (the meta blob) failed to decode.
    Codec {
        /// The section being decoded.
        section: &'static str,
        /// The underlying codec failure.
        source: CodecError,
    },
}

impl std::fmt::Display for MmapIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Store(e) => write!(f, "{e}"),
            Self::Codec { section, source } => {
                write!(f, "section \"{section}\": {source}")
            }
        }
    }
}

impl std::error::Error for MmapIndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Store(e) => Some(e),
            Self::Codec { source, .. } => Some(source),
        }
    }
}

impl From<StoreError> for MmapIndexError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

// ----------------------------------------------------------------- packing

/// Streams an [`LshEnsemble`] into `packer` as the index sections of a v2
/// store (meta, partition bounds/lens, the base partitions' row ids, rows,
/// trees and sizes, segments), with an id-allocator high-water mark
/// recorded at the end of the `Segments` section. The caller owns the
/// packer and calls [`Packer::finish`].
///
/// # Errors
/// Propagates write failure.
pub fn pack_ranked_with(
    ensemble: &LshEnsemble,
    packer: &mut Packer,
    next_id: u32,
) -> std::io::Result<()> {
    let config = *ensemble.config();
    let base = ensemble.base_partitions();

    let mut enc = Encoder::default();
    enc.put_u32(config.num_perm as u32);
    enc.put_u32(config.b_max as u32);
    enc.put_u32(config.r_max as u32);
    crate::persist::encode_strategy(&mut enc, config.strategy);
    enc.put_u64(ensemble.len() as u64);
    enc.put_u64(base.len() as u64);
    packer.begin_section(SectionKind::Meta)?;
    packer.write(&enc.finish())?;
    packer.end_section();

    packer.begin_section(SectionKind::PartitionBounds)?;
    for part in base {
        packer.write_u64s(&[part.lower, part.upper])?;
    }
    packer.end_section();

    packer.begin_section(SectionKind::PartitionLens)?;
    for part in base {
        packer.write_u64s(&[part.forest.len() as u64])?;
    }
    packer.end_section();

    // Each forest's columns as it holds them, one section a column kind.
    packer.begin_section(SectionKind::RowIds)?;
    for part in base {
        packer.write_u32s(part.forest.ids())?;
    }
    packer.end_section();

    packer.begin_section(SectionKind::Rows)?;
    for part in base {
        for row in 0..part.forest.len() {
            packer.write_u16s(part.forest.row(row).words())?;
        }
    }
    packer.end_section();

    packer.begin_section(SectionKind::Trees)?;
    for part in base {
        for (lo, rows) in part.forest.committed_trees() {
            packer.write_u16s(lo)?;
            packer.write_u16s(rows)?;
        }
    }
    packer.end_section();

    packer.begin_section(SectionKind::Sizes)?;
    for part in base {
        packer.write_u64s(&part.sizes)?;
    }
    packer.end_section();

    // Tiered-mutation tail: the segment stack round-trips verbatim (sealed
    // entry triples + tombstones), plus the id-allocator high-water mark.
    // Additive section — pre-segment readers skip it.
    let mut enc = Encoder::default();
    crate::persist::encode_segments(&mut enc, ensemble);
    enc.put_u32(next_id);
    packer.begin_section(SectionKind::Segments)?;
    packer.write(&enc.finish())?;
    packer.end_section();
    Ok(())
}

/// Packs an [`LshEnsemble`] into a standalone v2 store file (index
/// sections only — no domain records, the ensemble's own id floor as the
/// allocator mark) and finishes it.
///
/// # Errors
/// Propagates file I/O failure.
pub fn pack_ranked_to(index: &LshEnsemble, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut packer = Packer::create(path)?;
    pack_ranked_with(index, &mut packer, index.min_next_id())?;
    packer.finish()
}

// ----------------------------------------------------------------- opening

fn corrupt(section: &'static str, detail: &'static str) -> MmapIndexError {
    MmapIndexError::Store(StoreError::Corrupt { section, detail })
}

impl LshEnsemble {
    /// Opens a packed index file with structural validation only: the
    /// store's header and section table, the meta, every column's length
    /// against the partition lengths, each partition's ids ascending, and
    /// the segments and tombstones against the base — O(sections +
    /// partitions) and one pass over the row ids, never a forest's trees.
    /// Every base column is a view into the mapping. Use
    /// [`open_verified`](Self::open_verified) to also check every payload:
    /// only it refuses damage these checks cannot see, such as an id in two
    /// partitions, which a search would then meet in two live rows.
    ///
    /// # Errors
    /// [`MmapIndexError`] on I/O, structural, or consistency failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, MmapIndexError> {
        Self::from_store(&Store::open(path)?)
    }

    /// [`open`](Self::open) behind every check a reader wants before it
    /// answers from the file: each section's checksum, then each forest's
    /// trees against its rows ([`LshForest::check`]), every size positive,
    /// and no id in two base partitions. A checksum only says the bytes are
    /// the ones written; a probe's binary searches silently drop candidates
    /// from a file written wrong.
    ///
    /// # Errors
    /// As [`open`](Self::open), plus [`StoreError::SectionChecksum`]
    /// naming any damaged section, and the column checks' corruption.
    pub fn open_verified(path: impl AsRef<Path>) -> Result<Self, MmapIndexError> {
        let store = Store::open(path)?;
        store.verify()?;
        let index = Self::from_store(&store)?;
        let base = index.base_partitions();
        for part in base {
            part.forest
                .check()
                .map_err(|detail| corrupt("trees", detail))?;
            if part.sizes.contains(&0) {
                return Err(corrupt("sizes", "zero base size"));
            }
        }
        check_base_ids(base).map_err(|detail| corrupt("row ids", detail))?;
        Ok(index)
    }

    /// Builds the index over an opened [`Store`]: its base partitions from
    /// views of the column sections, its segments and overlay as a
    /// `.lshe`'s decoder builds them.
    fn from_store(store: &Store) -> Result<Self, MmapIndexError> {
        let codec = |section: &'static str| {
            move |source: CodecError| MmapIndexError::Codec { section, source }
        };
        let mut dec = Decoder::new(store.bytes(SectionKind::Meta)?);
        let meta = codec("meta");
        let num_perm = dec.get_u32("num_perm").map_err(meta)? as usize;
        let b_max = dec.get_u32("b_max").map_err(meta)? as usize;
        let r_max = dec.get_u32("r_max").map_err(meta)? as usize;
        let strategy = crate::persist::decode_strategy(&mut dec).map_err(meta)?;
        let len = dec.get_u64("len").map_err(meta)? as usize;
        let part_count = dec.get_u64("partition count").map_err(meta)? as usize;
        if !dec.is_exhausted() {
            return Err(corrupt("meta", "trailing bytes after metadata"));
        }
        if num_perm == 0 || b_max == 0 || r_max == 0 || b_max * r_max > num_perm {
            return Err(corrupt("meta", "inconsistent configuration"));
        }
        let config = EnsembleConfig {
            num_perm,
            b_max,
            r_max,
            strategy,
        };
        let layout = Layout::new(b_max, r_max, num_perm);

        let bounds = store.u64s(SectionKind::PartitionBounds)?;
        if bounds.len() != part_count * 2 {
            return Err(corrupt("partition bounds", "count disagrees with meta"));
        }
        let lens = store.u64s(SectionKind::PartitionLens)?;
        if lens.len() != part_count {
            return Err(corrupt("partition lens", "count disagrees with meta"));
        }
        let lens: Vec<usize> = lens
            .iter()
            .map(|&rows| usize::try_from(rows).ok())
            .collect::<Option<_>>()
            .ok_or_else(|| corrupt("partition lens", "partition length exceeds address space"))?;
        let total = lens
            .iter()
            .try_fold(0usize, |sum, &rows| sum.checked_add(rows));
        let total = total.ok_or_else(|| corrupt("partition lens", "partition lengths overflow"))?;

        // Each column section holds exactly what the lengths say, read
        // front to back, partition by partition, as views of the mapping.
        let owner: Owner = store.mapping().clone();
        let column = |kind: SectionKind, per_row: usize| {
            let range = store.range(kind)?;
            if Some(range.len()) != total.checked_mul(per_row) {
                let detail = "length disagrees with partition lens";
                return Err(corrupt(kind.name(), detail));
            }
            let mut dec = Decoder::shared(&owner);
            dec.skip(range.start, "section start")
                .map_err(codec(kind.name()))?;
            Ok(dec)
        };
        let mut ids = column(SectionKind::RowIds, 4)?;
        let mut rows = column(SectionKind::Rows, layout.row_bytes())?;
        let mut trees = column(SectionKind::Trees, 4 * b_max)?;
        let mut sizes = column(SectionKind::Sizes, 8)?;
        let mut partitions = Vec::with_capacity(part_count);
        for (bounds, &n) in bounds.chunks_exact(2).zip(&lens) {
            let (lower, upper) = (bounds[0], bounds[1]);
            if lower > upper {
                return Err(corrupt("partition bounds", "inverted partition bounds"));
            }
            let forest = LshForest::from_columns(
                layout,
                ids.get_column(n, "row ids").map_err(codec("row ids"))?,
                rows.get_column(n * layout.words(), "rows")
                    .map_err(codec("rows"))?,
                (0..b_max)
                    .map(|_| trees.get_column(2 * n, "trees"))
                    .collect::<Result<_, _>>()
                    .map_err(codec("trees"))?,
            )
            .map_err(|detail| corrupt("trees", detail))?;
            let sizes = sizes.get_column(n, "sizes").map_err(codec("sizes"))?;
            partitions.push(Arc::new(EnsemblePartition {
                lower,
                upper,
                forest,
                sizes,
            }));
        }
        check_ascending(&partitions).map_err(|detail| corrupt("row ids", detail))?;

        // The segment stack, as a `.lshe`'s decoder reads it.
        let (segment_entries, stored) = if store.has(SectionKind::Segments) {
            let mut dec = Decoder::new(store.bytes(SectionKind::Segments)?);
            let segments = codec("segments");
            let tail = crate::persist::decode_segments(&mut dec, layout, &partitions);
            let tail = tail.map_err(segments)?;
            // The packing layer's allocator mark ends the section; an
            // ensemble has no allocator to restore.
            dec.get_u32("next id").map_err(segments)?;
            if !dec.is_exhausted() {
                return Err(corrupt("segments", "trailing bytes after segments"));
            }
            tail
        } else {
            (Vec::new(), Vec::new())
        };
        let index = Self::from_raw_partitions(config, partitions, len, segment_entries, &stored);
        index
            .check_stored(stored)
            .map_err(|detail| corrupt("segments", detail))?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainIndex, Query, QueryStats, SearchHit, SearchOutcome};
    use crate::partition::PartitionStrategy;
    use crate::ranked::tests::index as sample;
    use lshe_minhash::{MinHasher, Signature};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lshe_mmap_idx_{name}_{}.v2", std::process::id()))
    }

    fn strip_wall(mut o: SearchOutcome) -> (Vec<SearchHit>, QueryStats) {
        o.stats.wall_micros = 0;
        (o.hits, o.stats)
    }

    #[test]
    fn mmap_matches_heap_ranked_exactly() {
        let (h, ranked, values) = sample(24);
        let path = tmp("parity");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open_verified(&path).expect("open");
        assert_eq!(mapped.len(), ranked.len());
        assert_eq!(mapped.partition_stats(), ranked.partition_stats());
        for k in [0usize, 5, 11, 23] {
            let sig = h.signature(values[k].iter().copied());
            let size = values[k].len() as u64;
            for t in [0.1, 0.5, 0.9] {
                let q = Query::threshold(&sig, t).with_size(size);
                let a = strip_wall(ranked.search(&q).expect("heap"));
                let b = strip_wall(mapped.search(&q).expect("mmap"));
                assert_eq!(a, b, "threshold parity k={k} t={t}");
            }
            for kk in [1usize, 5] {
                let q = Query::top_k(&sig, kk).with_size(size);
                let a = strip_wall(ranked.search(&q).expect("heap"));
                let b = strip_wall(mapped.search(&q).expect("mmap"));
                assert_eq!(a, b, "top-k parity k={k} kk={kk}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// A removed and re-inserted base id leaves a dead row in the packed
    /// file's base, counted as the heap index counts it.
    #[test]
    fn a_reinserted_base_id_leaves_a_dead_base_row() {
        let (h, mut ranked, values) = sample(24);
        let sig = h.signature(values[3].iter().copied());
        let size = values[3].len() as u64;
        ranked
            .commit(&[crate::Mutation::Remove(3)])
            .expect("remove");
        let again = [crate::Mutation::Insert(3, size, &sig)];
        ranked.commit(&again).expect("re-insert");
        assert_eq!(ranked.segment_layout().tombstones, 1);
        let path = tmp("reinserted");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open_verified(&path).expect("open");
        assert_eq!(mapped.segment_layout(), ranked.segment_layout());
        let q = Query::top_k(&sig, 3).with_size(size);
        let (a, b) = (ranked.search(&q), mapped.search(&q));
        assert_eq!(strip_wall(a.expect("heap")), strip_wall(b.expect("mmap")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutated_index_round_trips_segment_stack() {
        let (h, mut ranked, values) = sample(24);
        // Drift the corpus: remove a few built domains, add two batches of
        // fresh ones (two sealed segments), remove one sealed insert.
        let fresh: Vec<(u32, u64, Signature)> = (0..8u32)
            .map(|k| {
                let vals = MinHasher::synthetic_values(900 + u64::from(k), 120 + 10 * k as usize);
                (
                    100 + k,
                    vals.len() as u64,
                    h.signature(vals.iter().copied()),
                )
            })
            .collect();
        let inserts = |range: std::ops::Range<usize>| {
            fresh[range]
                .iter()
                .map(|(id, size, signature)| crate::Mutation::Insert(*id, *size, signature))
        };
        let removes = [crate::Mutation::Remove(3), crate::Mutation::Remove(17)];
        let first: Vec<_> = removes.into_iter().chain(inserts(0..5)).collect();
        ranked.commit(&first).expect("first batch");
        let second: Vec<_> = inserts(5..8).collect();
        ranked.commit(&second).expect("second batch");
        let gone = [crate::Mutation::Remove(102)];
        ranked.commit(&gone).expect("remove sealed insert");
        let layout = ranked.segment_layout();
        assert_eq!((layout.segments.len(), layout.tombstones), (2, 3));

        let path = tmp("segmented");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open_verified(&path).expect("open");
        assert_eq!(mapped.len(), ranked.len());
        assert_eq!(mapped.segment_layout(), layout);
        assert_eq!(
            mapped.partition_stats(),
            ranked.partition_stats(),
            "overlay partitions must replay bit-identically"
        );
        for k in [0usize, 5, 11, 23] {
            let sig = h.signature(values[k].iter().copied());
            let size = values[k].len() as u64;
            for t in [0.1, 0.5, 0.9] {
                let q = Query::threshold(&sig, t).with_size(size);
                let a = strip_wall(ranked.search(&q).expect("heap"));
                let b = strip_wall(mapped.search(&q).expect("mmap"));
                assert_eq!(a, b, "threshold parity k={k} t={t}");
            }
            let q = Query::top_k(&sig, 5).with_size(size);
            let a = strip_wall(ranked.search(&q).expect("heap"));
            let b = strip_wall(mapped.search(&q).expect("mmap"));
            assert_eq!(a, b, "top-k parity k={k}");
        }
        // Tombstoned ids never resurface; sealed inserts answer exactly.
        let sig3 = h.signature(values[3].iter().copied());
        let q = Query::threshold(&sig3, 0.0).with_size(values[3].len() as u64);
        for outcome in [
            mapped.search(&q).expect("mmap"),
            ranked.search(&q).expect("heap"),
        ] {
            assert!(outcome.hits.iter().all(|hit| hit.id != 3 && hit.id != 102));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reinserted_id_round_trips_without_its_stale_rows() {
        let (ranked, fresh, old) = crate::ranked::tests::reinserted();
        let path = tmp("reinserted");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open_verified(&path).expect("open");
        for t_star in [1.0, 0.5, 0.0] {
            let q = Query::threshold(&old, t_star).with_size(120);
            let heap = strip_wall(ranked.search(&q).expect("heap"));
            assert_eq!(strip_wall(mapped.search(&q).expect("mmap")), heap);
            let rebuilt = fresh.search(&q).expect("fresh");
            assert_eq!(heap.0, rebuilt.hits, "t* = {t_star}");
            assert_eq!(heap.1.candidates, rebuilt.stats.candidates, "t* = {t_star}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_equals_looped_singles() {
        let (h, ranked, values) = sample(16);
        let path = tmp("batch");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open(&path).expect("open");
        let sigs: Vec<Signature> = values
            .iter()
            .map(|v| h.signature(v.iter().copied()))
            .collect();
        let queries: Vec<Query<'_>> = sigs
            .iter()
            .zip(&values)
            .enumerate()
            .map(|(i, (sig, vals))| {
                if i % 3 == 0 {
                    Query::top_k(sig, 3).with_size(vals.len() as u64)
                } else {
                    Query::threshold(sig, 0.4).with_size(vals.len() as u64)
                }
            })
            .collect();
        let batched = mapped.search_batch(&queries);
        for (q, b) in queries.iter().zip(batched) {
            let single = strip_wall(mapped.search(q).expect("single"));
            assert_eq!(single, strip_wall(b.expect("batched")));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_is_structural_verify_catches_payload_damage() {
        let (_, ranked, _) = sample(8);
        let path = tmp("damage");
        pack_ranked_to(&ranked, &path).expect("pack");
        let store = Store::open(&path).expect("open store");
        let trees_at = store.range(SectionKind::Trees).expect("trees").start;
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[trees_at + 2] ^= 0x04;
        std::fs::write(&path, &bytes).expect("write");
        // Structural open succeeds (counts are intact)…
        assert!(MmapIndex::open(&path).is_ok());
        // …but the verified open names the damaged section.
        match MmapIndex::open_verified(&path).unwrap_err() {
            MmapIndexError::Store(StoreError::SectionChecksum { section, .. }) => {
                assert_eq!(section, "trees");
            }
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Re-packs `from` into `to` with the trees section rewritten by
    /// `damage` — every checksum valid, so only structure can object.
    fn repack_damaged(from: &Path, to: &Path, damage: impl Fn(&mut [u16])) {
        let store = Store::open(from).expect("open store");
        let mut trees = store.u16s(SectionKind::Trees).expect("trees").to_vec();
        damage(&mut trees);
        let mut packer = Packer::create(to).expect("create");
        for section in store.sections() {
            packer.begin_section(section.kind).expect("begin");
            match section.kind {
                SectionKind::Trees => packer.write_u16s(&trees),
                kind => packer.write(store.bytes(kind).expect("bytes")),
            }
            .expect("write");
            packer.end_section();
        }
        packer.finish().expect("finish");
    }

    #[test]
    fn verified_open_checks_every_tree_and_plain_open_never_panics() {
        let (h, ranked, values) = sample(24);
        let clean = tmp("structure_clean");
        pack_ranked_to(&ranked, &clean).expect("pack");
        // Partition 0's first tree is its `lo` column, entries `0..6`, then
        // its `row` column, `6..12`.
        assert_eq!(ranked.partition_stats()[0].count, 6);
        type Damage = fn(&mut [u16]);
        let cases: [(&str, Damage, &str); 3] = [
            (
                "two entries with different keys trading places",
                |tree| {
                    let at = (0..5).find(|&i| tree[i] != tree[i + 1]).expect("two keys");
                    tree.swap(at, at + 1);
                    tree.swap(6 + at, 6 + at + 1);
                },
                "tree keys out of order",
            ),
            (
                "head bits that are not its row's",
                |tree| tree[0] ^= 1,
                "tree head bits disagree with its row",
            ),
            (
                "a row index outside the partition",
                |tree| tree[6] = 6,
                "tree row index out of range",
            ),
        ];
        for (what, damage, detail) in cases {
            let path = tmp("structure_damaged");
            repack_damaged(&clean, &path, damage);
            match MmapIndex::open_verified(&path) {
                Err(MmapIndexError::Store(StoreError::Corrupt { section, detail: d })) => {
                    assert_eq!((section, d), ("trees", detail), "{what}");
                }
                other => panic!("{what}: expected a corrupt tree, got {other:?}"),
            }
            // The structural open takes the file; probing it may miss
            // candidates but stays inside the mapping.
            let mapped = MmapIndex::open(&path).expect("structural open");
            for k in [0usize, 11, 23] {
                let sig = h.signature(values[k].iter().copied());
                let q = Query::threshold(&sig, 0.1).with_size(values[k].len() as u64);
                let _ = mapped.search(&q).expect("search");
            }
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&clean).ok();

        // Four copies of one signature in two partitions of two rows: every
        // key is equal, so only the permutation check can tell the trees
        // from the rows they should index.
        let sig = h.signature(values[0].iter().copied());
        let mut twins = LshEnsemble::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 2 },
            ..EnsembleConfig::default()
        });
        for (id, size) in [(0, 10), (1, 10), (2, 50), (3, 50)] {
            twins.add(id, size, sig.clone());
        }
        pack_ranked_to(&twins.build(), &clean).expect("pack");
        assert!(MmapIndex::open_verified(&clean).is_ok());
        let cases: [(&str, Damage); 2] = [
            ("a tree that indexes a row twice", |trees| {
                trees[2] = trees[3]
            }),
            ("a later tree that indexes a row twice", |trees| {
                let last = trees.len() - 1;
                trees[last - 1] = trees[last];
            }),
        ];
        for (what, damage) in cases {
            let path = tmp("twins_damaged");
            repack_damaged(&clean, &path, damage);
            match MmapIndex::open_verified(&path) {
                Err(MmapIndexError::Store(StoreError::Corrupt { detail, .. })) => {
                    let want = "tree is not a permutation of its partition's rows";
                    assert_eq!(detail, want, "{what}");
                }
                other => panic!("{what}: expected a corrupt tree, got {other:?}"),
            }
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(&clean).ok();
    }

    #[test]
    fn missing_section_is_typed() {
        let path = tmp("missing");
        let mut p = Packer::create(&path).expect("create");
        p.begin_section(SectionKind::Meta).expect("begin");
        p.write(&[0u8; 4]).expect("write");
        p.end_section();
        p.finish().expect("finish");
        let err = MmapIndex::open(&path).unwrap_err();
        assert!(
            matches!(
                err,
                MmapIndexError::Codec {
                    section: "meta",
                    ..
                } | MmapIndexError::Store(StoreError::MissingSection { .. })
            ),
            "got {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// An opened packed file's base is views into the file: what it holds
    /// beyond them is its sealed segments, as a `.lshe` decoded over a
    /// mapping holds them — and the overlay, counted apart.
    #[test]
    fn a_packed_base_is_views_into_its_file() {
        let (h, mut ranked, _) = sample(24);
        let path = tmp("views");
        let heap = |index: &LshEnsemble| index.memory_bytes() - index.mapped_bytes();
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open(&path).expect("open");
        assert!(mapped.mapped_bytes() >= 24 * (4 + 576 + 4 * 32 + 8));
        assert_eq!((heap(&mapped), mapped.id_map_bytes()), (0, 0));

        let sig = h.signature(MinHasher::synthetic_values(5, 30));
        let batch = [
            crate::Mutation::Remove(3),
            crate::Mutation::Insert(700, 30, &sig),
        ];
        ranked.commit(&batch).expect("commit");
        let changed = tmp("views_changed");
        pack_ranked_to(&ranked, &changed).expect("pack");
        let mapped = MmapIndex::open(&changed).expect("open");
        let segments = mapped.raw_segments().iter().map(|s| s.memory_bytes());
        assert_eq!(heap(&mapped), segments.sum::<usize>());
        assert!(heap(&mapped) > 0);
        let owner: Owner = Arc::new(ranked.to_bytes());
        let decoded = LshEnsemble::decode(Decoder::shared(&owner)).expect("decode");
        assert_eq!(heap(&mapped), heap(&decoded));
        assert_eq!(mapped.id_map_bytes(), decoded.id_map_bytes());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&changed).ok();
    }

    /// A segment entry re-labelled to a live base id, the length counting
    /// its row once, as every other: the id is live in two rows, and the
    /// plain open refuses the file as a `.lshe`'s decoder does, since a
    /// search verifies a candidate in the one row it lives in.
    #[test]
    fn an_id_live_in_two_rows_is_rejected() {
        let (h, mut ranked, _) = sample(24);
        let sig = h.signature(MinHasher::synthetic_values(5, 30));
        ranked
            .commit(&[crate::Mutation::Insert(700, 30, &sig)])
            .expect("insert");
        let path = tmp("live_twice");
        pack_ranked_to(&ranked, &path).expect("pack");
        let store = Store::open(&path).expect("open store");
        let segments = store.range(SectionKind::Segments).expect("segments");
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        let entry: Vec<u8> = [&700u32.to_le_bytes()[..], &30u64.to_le_bytes()].concat();
        let at = segments.start
            + bytes[segments.clone()]
                .windows(entry.len())
                .position(|w| w == entry)
                .expect("the segment entry");
        bytes[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        match MmapIndex::open(&path) {
            Err(MmapIndexError::Store(StoreError::Corrupt { section, detail })) => {
                assert_eq!((section, detail), ("segments", "an id is live in two rows"));
            }
            other => panic!("expected an id live in two rows, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
