//! The memory-mapped index backend: `DomainIndex` over a v2 store file.
//!
//! [`pack_ranked_with`] streams an [`LshEnsemble`] into an
//! `lshe-store` v2 container — partition bounds, the base rows' sketches
//! (one table, ascending id: 32-bit heads and 16-bit tails as the forests
//! hold them) and the forest tree columns that index it (the low 16 bits
//! of each entry's head, and its position in the table), each in its own
//! checksummed 64-byte-aligned section. [`MmapIndex`] opens such a file
//! and answers [`search`](crate::DomainIndex::search)/
//! [`search_batch`](crate::DomainIndex::search_batch) *in place*: the
//! partition skip-prune, per-query `(b, r)` tuning, prefix-tree probing,
//! and containment ranking all run against borrowed mapped memory, so
//! opening a multi-gigabyte corpus costs milliseconds and no decode-time
//! heap.
//!
//! The backend answers through the same `pipeline` module as the heap
//! indexes — it only supplies the mapped partition and sketch views — so
//! candidate sets, probe counters, estimates, and ordering match the
//! [`LshEnsemble`] it was packed from by construction.
//!
//! No server opens this format: `lshe serve` serves the `.lshe` container,
//! itself mapped in place. The packed file is a library artifact that the
//! conformance suite and the benchmark's `store.*` metrics open.

use crate::api::{DomainIndex, Query, QueryError, SearchOutcome};
use crate::ensemble::{segment_units, EnsembleConfig, EnsemblePartition, LshEnsemble, Slot};
use crate::pipeline::{Probe, ReadPath, Tiers};
use crate::tuning::Tuner;
use lshe_lsh::forest::{check_tree, probe_trees, Rows, BLOCK};
use lshe_lsh::{DomainId, Layout, Row};
use lshe_minhash::codec::{CodecError, Decoder, Encoder};
use lshe_minhash::Signature;
use lshe_store::{Packer, PartitionView, SectionKind, SketchesView, Store, StoreError};
use std::path::Path;

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
/// store (meta, partition bounds/lens, tree columns, sketches, segments),
/// with an id-allocator high-water mark recorded at the end of the
/// `Segments` section. The caller owns the packer and calls
/// [`Packer::finish`].
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

    // The sketch table: every base row (tombstoned ones too — the trees
    // index them), in ascending id order so a sketch is found by binary
    // search. `at[p][row]` is where partition `p`'s row went.
    let mut table: Vec<(DomainId, usize, usize)> = Vec::new();
    for (p, part) in base.iter().enumerate() {
        table.extend(
            part.forest
                .ids()
                .iter()
                .enumerate()
                .map(|(row, &id)| (id, p, row)),
        );
    }
    table.sort_unstable();
    let mut at: Vec<Vec<u32>> = base.iter().map(|p| vec![0; p.forest.len()]).collect();
    for (position, &(_, p, row)) in table.iter().enumerate() {
        at[p][row] = position as u32;
    }

    packer.begin_section(SectionKind::TreeKeys)?;
    for part in base {
        for (lo, _) in part.forest.committed_trees() {
            packer.write_u16s(lo)?;
        }
    }
    packer.end_section();

    // A forest's tree names a row within its block; the file, the row's
    // position in the table. The entries stay where they are, so each
    // block of a tree is still a sorted run of its own.
    packer.begin_section(SectionKind::TreeIds)?;
    let mut positions: Vec<u32> = Vec::new();
    for (part, at) in base.iter().zip(&at) {
        for (_, rows) in part.forest.committed_trees() {
            positions.clear();
            for (block, rows) in rows.chunks(BLOCK).enumerate() {
                let at = &at[block * BLOCK..];
                positions.extend(rows.iter().map(|&row| at[usize::from(row)]));
            }
            packer.write_u32s(&positions)?;
        }
    }
    packer.end_section();

    packer.begin_section(SectionKind::SketchIds)?;
    for &(id, _, _) in &table {
        packer.write_u32s(&[id])?;
    }
    packer.end_section();

    packer.begin_section(SectionKind::SketchSizes)?;
    for &(_, p, row) in &table {
        packer.write_u64s(&[base[p].sizes[row]])?;
    }
    packer.end_section();

    packer.begin_section(SectionKind::SketchSlots)?;
    for &(_, p, row) in &table {
        packer.write_u16s(base[p].forest.row(row).words())?;
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

// ----------------------------------------------------------------- backend

/// One partition's shape and element offset into the tree sections.
#[derive(Debug, Clone, Copy)]
struct PartMeta {
    lower: u64,
    upper: u64,
    /// Domains in this partition (rows per tree).
    rows: usize,
    /// Element offset of this partition's columns in the TreeKeys and
    /// TreeIds sections (entry for entry the same shape).
    off: usize,
}

/// One sweepable partition of a mapped index: a base partition's tree
/// columns in the mapping, or a heap-replayed segment partition.
enum MappedPart<'a> {
    Base {
        upper: u64,
        view: PartitionView<'a>,
        /// The sketch table the tree entries point into.
        rows: Rows<'a>,
        /// The table's sizes, position for position.
        sizes: &'a [u64],
    },
    Segment(&'a EnsemblePartition),
}

impl Probe for MappedPart<'_> {
    fn upper(&self) -> u64 {
        match self {
            Self::Base { upper, .. } => *upper,
            Self::Segment(p) => p.upper(),
        }
    }

    fn probe(
        &self,
        signature: &Signature,
        b: usize,
        r: usize,
        found: &mut impl FnMut(DomainId, usize),
    ) {
        match self {
            // `LshForest::query_into` over the mapped columns: tree `t`
            // is keyed by lanes `t·r_max ..`, probed at prefix length `r`
            // by the forest's own kernel.
            Self::Base { view, rows, .. } => {
                let trees = (0..b).map(|t| (view.lo(t), view.rows(t)));
                probe_trees(*rows, trees, signature.slots(), r, found);
            }
            Self::Segment(p) => p.probe(signature, b, r, found),
        }
    }

    fn sketch(&self, row: u32) -> (u64, Row<'_>) {
        match self {
            Self::Base { rows, sizes, .. } => {
                let row = row as usize;
                (sizes[row], rows.row(row).expect("a probed row"))
            }
            Self::Segment(p) => p.sketch(row),
        }
    }
}

/// A read-only [`DomainIndex`] answered directly from a mapped v2 store.
///
/// Holds only metadata on the heap (a few dozen bytes per partition);
/// every tree column and sketch lane stays in the mapping. Queries run the
/// shared read path (see the `pipeline` module) over borrowed views of
/// the mapped tree columns and sketches.
#[derive(Debug)]
pub struct MmapIndex {
    store: Store,
    config: EnsembleConfig,
    tuner: Tuner,
    len: usize,
    parts: Vec<PartMeta>,
    /// The `Segments` section replayed onto the heap as an ensemble with no
    /// base partitions: the sealed segments (deterministic rebuild from the
    /// stored entry triples — identical forests to the heap index that was
    /// packed) and the id overlay: where each segment id lives, and a
    /// `None` for each removed base id. Small by construction: segments
    /// hold recent deltas, the mapped base holds the corpus.
    tail: LshEnsemble,
}

fn corrupt(section: &'static str, detail: &'static str) -> MmapIndexError {
    MmapIndexError::Store(StoreError::Corrupt { section, detail })
}

impl MmapIndex {
    /// Opens a packed index file with structural validation only (headers,
    /// table, bounds, cross-section counts) — O(sections + partitions),
    /// not O(file). Use [`open_verified`](Self::open_verified) to also
    /// checksum every payload.
    ///
    /// # Errors
    /// [`MmapIndexError`] on I/O, structural, or consistency failure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, MmapIndexError> {
        Self::from_store(Store::open(path)?)
    }

    /// [`open`](Self::open) behind every check a reader wants before it
    /// answers from the file: each section's checksum, then each prefix
    /// tree against the sketch table — a permutation of its partition's
    /// rows, each head's low half as the rows have it, keys in order inside
    /// each block. A checksum only says the bytes are the ones written; a
    /// probe's binary searches silently drop candidates from a file written
    /// wrong.
    ///
    /// # Errors
    /// As [`open`](Self::open), plus [`StoreError::SectionChecksum`]
    /// naming any damaged section and the tree sections' corruption.
    pub fn open_verified(path: impl AsRef<Path>) -> Result<Self, MmapIndexError> {
        let store = Store::open(path)?;
        store.verify()?;
        let index = Self::from_store(store)?;
        index.check_trees()?;
        Ok(index)
    }

    /// The O(file) structural pass of [`open_verified`](Self::open_verified).
    fn check_trees(&self) -> Result<(), MmapIndexError> {
        let sketches = self.sketches();
        // Every base row is in the trees of exactly one partition: the
        // partitions' lengths sum to the table's, so none is left over.
        let mut seen = vec![0; sketches.len()];
        let mut stamp = 0;
        for (_, part) in &self.tiers(&sketches).units {
            let MappedPart::Base { view, rows, .. } = part else {
                break;
            };
            for t in 0..view.trees() {
                let turn = (if t == 0 { 0 } else { stamp }, stamp + 1);
                let columns = (view.lo(t), view.rows(t));
                let head = |i| rows.row(i).map(|row| row.head(t));
                check_tree(*rows, columns, t, head, &mut seen, turn)
                    .map_err(|detail| corrupt("tree ids", detail))?;
                stamp += 1;
            }
        }
        Ok(())
    }

    /// Builds the backend over an opened [`Store`], validating
    /// cross-section consistency: sections missing, failing to decode, or
    /// disagreeing with each other are an [`MmapIndexError`].
    fn from_store(store: Store) -> Result<Self, MmapIndexError> {
        let meta = store.bytes(SectionKind::Meta)?;
        let mut dec = Decoder::new(meta);
        let codec = |source: CodecError| MmapIndexError::Codec {
            section: "meta",
            source,
        };
        let num_perm = dec.get_u32("num_perm").map_err(codec)? as usize;
        let b_max = dec.get_u32("b_max").map_err(codec)? as usize;
        let r_max = dec.get_u32("r_max").map_err(codec)? as usize;
        let strategy = crate::persist::decode_strategy(&mut dec).map_err(codec)?;
        let len = dec.get_u64("len").map_err(codec)? as usize;
        let part_count = dec.get_u64("partition count").map_err(codec)? as usize;
        if !dec.is_exhausted() {
            return Err(corrupt("meta", "trailing bytes after metadata"));
        }
        if num_perm == 0 || b_max == 0 || r_max == 0 || b_max * r_max > num_perm {
            return Err(corrupt("meta", "inconsistent configuration"));
        }

        let bounds = store.u64s(SectionKind::PartitionBounds)?;
        if bounds.len() != part_count * 2 {
            return Err(corrupt("partition bounds", "count disagrees with meta"));
        }
        let lens = store.u64s(SectionKind::PartitionLens)?;
        if lens.len() != part_count {
            return Err(corrupt("partition lens", "count disagrees with meta"));
        }
        let mut parts = Vec::with_capacity(part_count);
        let (mut off, mut total) = (0usize, 0usize);
        for (i, &rows64) in lens.iter().enumerate() {
            let (lower, upper) = (bounds[i * 2], bounds[i * 2 + 1]);
            if lower > upper {
                return Err(corrupt("partition bounds", "inverted partition bounds"));
            }
            let rows = usize::try_from(rows64)
                .map_err(|_| corrupt("partition lens", "partition length exceeds address space"))?;
            parts.push(PartMeta {
                lower,
                upper,
                rows,
                off,
            });
            off = rows
                .checked_mul(b_max)
                .and_then(|columns| columns.checked_add(off))
                .ok_or_else(|| corrupt("partition lens", "partition lengths overflow"))?;
            total += rows;
        }
        // Tiered-mutation tail (absent on pre-segment files → compacted).
        let (segment_entries, dead) = if store.has(SectionKind::Segments) {
            let blob = store.bytes(SectionKind::Segments)?;
            let mut sdec = Decoder::new(blob);
            let scodec = |source: CodecError| MmapIndexError::Codec {
                section: "segments",
                source,
            };
            let layout = Layout::new(b_max, r_max, num_perm);
            let in_base = |_, p: u32| (p as usize) < part_count;
            let (entries, dead) =
                crate::persist::decode_segments(&mut sdec, layout, in_base).map_err(scodec)?;
            // The packing layer's allocator mark ends the section; a
            // read-only index has no allocator to restore.
            sdec.get_u32("next id").map_err(scodec)?;
            if !sdec.is_exhausted() {
                return Err(corrupt("segments", "trailing bytes after segments"));
            }
            (entries, dead)
        } else {
            (Vec::new(), Vec::new())
        };
        let seg_entry_total: usize = segment_entries.iter().map(Vec::len).sum();
        let dead_seg = dead.iter().filter(|(_, s)| s.is_some()).count();
        let dead_base = dead.len() - dead_seg;
        // Base rows are physical: live base domains plus tombstoned rows
        // not yet compacted away. Live segment entries (total minus their
        // tombstones) make up the rest of `len`.
        let seg_live = seg_entry_total
            .checked_sub(dead_seg)
            .ok_or_else(|| corrupt("segments", "more segment tombstones than entries"))?;
        if total + seg_live != len + dead_base {
            return Err(corrupt(
                "partition lens",
                "partition sizes do not sum to len",
            ));
        }
        let tree_keys = store.u16s(SectionKind::TreeKeys)?;
        if tree_keys.len() != off {
            return Err(corrupt("tree keys", "length disagrees with partition lens"));
        }
        let tree_ids = store.u32s(SectionKind::TreeIds)?;
        if tree_ids.len() != off {
            return Err(corrupt("tree ids", "length disagrees with partition lens"));
        }

        // One sketch per base row: the table the tree entries point into.
        let sketch_ids = store.u32s(SectionKind::SketchIds)?;
        if sketch_ids.len() != total {
            return Err(corrupt("sketch ids", "count disagrees with partition lens"));
        }
        if !sketch_ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("sketch ids", "ids are not strictly ascending"));
        }
        let sketch_sizes = store.u64s(SectionKind::SketchSizes)?;
        if sketch_sizes.len() != total {
            return Err(corrupt(
                "sketch sizes",
                "count disagrees with partition lens",
            ));
        }
        let sketch_slots = store.u16s(SectionKind::SketchSlots)?;
        if Some(sketch_slots.len()) != total.checked_mul(b_max + num_perm) {
            return Err(corrupt(
                "sketch slots",
                "length disagrees with partition lens",
            ));
        }

        let config = EnsembleConfig {
            num_perm,
            b_max,
            r_max,
            strategy,
        };
        // Replay each segment's deterministic seal — identical partitions
        // and forests to the heap index that was packed — and resolve ids
        // against segments and tombstones as that index does.
        let tail = LshEnsemble::from_raw_partitions(
            config,
            Vec::new(),
            total,
            len,
            segment_entries,
            &dead,
        );
        Ok(Self {
            store,
            config,
            tuner: Tuner::new(b_max as u32, r_max as u32),
            len,
            parts,
            tail,
        })
    }

    /// Per-partition summaries, matching
    /// [`LshEnsemble::partition_stats`](crate::LshEnsemble::partition_stats)
    /// for the packed corpus.
    #[must_use]
    pub fn partition_stats(&self) -> Vec<crate::PartitionStats> {
        let mut stats: Vec<crate::PartitionStats> = self
            .parts
            .iter()
            .map(|p| crate::PartitionStats {
                lower: p.lower,
                upper: p.upper,
                count: p.rows,
            })
            .collect();
        stats.extend(self.tail.partition_stats());
        stats
    }

    /// Borrowed sketch columns, assembled fresh from the mapping.
    fn sketches(&self) -> SketchesView<'_> {
        let ids = self.store.u32s(SectionKind::SketchIds).expect("validated");
        let sizes = self
            .store
            .u64s(SectionKind::SketchSizes)
            .expect("validated");
        let rows = self
            .store
            .u16s(SectionKind::SketchSlots)
            .expect("validated");
        SketchesView::new(ids, sizes, rows, self.layout().words()).expect("validated at open")
    }

    /// How the file's rows are laid out.
    fn layout(&self) -> Layout {
        Layout::new(self.config.b_max, self.config.r_max, self.config.num_perm)
    }

    /// This file's sweepable partitions: mapped base partitions, then the
    /// heap-replayed segment partitions.
    fn tiers<'a>(&'a self, sketches: &SketchesView<'a>) -> Tiers<'a, MappedPart<'a>> {
        let tree_keys = self.store.u16s(SectionKind::TreeKeys).expect("validated");
        let tree_ids = self.store.u32s(SectionKind::TreeIds).expect("validated");
        let b_max = self.config.b_max;
        let (ids, words) = sketches.columns();
        let rows = Rows {
            ids,
            words,
            layout: self.layout(),
        };
        let base = (0..).zip(&self.parts).map(|(p, pm)| {
            let columns = pm.off..pm.off + pm.rows * b_max;
            let view = PartitionView::new(
                &tree_keys[columns.clone()],
                &tree_ids[columns],
                b_max,
                pm.rows,
            )
            .expect("validated at open");
            let part = MappedPart::Base {
                upper: pm.upper,
                view,
                rows,
                sizes: sketches.sizes(),
            };
            (Slot::Base(p), part)
        });
        let segments =
            segment_units(self.tail.raw_segments()).map(|(slot, p)| (slot, MappedPart::Segment(p)));
        Tiers {
            num_perm: self.config.num_perm,
            tuner: &self.tuner,
            units: base.chain(segments).collect(),
            overlay: self.tail.overlay(),
        }
    }
}

impl DomainIndex for MmapIndex {
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        let sketches = self.sketches();
        let path = ReadPath {
            tiers: self.tiers(&sketches),
            ranked: true,
        };
        path.search_batch(queries)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        // Heap footprint is metadata only — the corpus lives in the
        // mapping (page cache), which is the whole point.
        std::mem::size_of::<Self>() + self.parts.len() * std::mem::size_of::<PartMeta>()
    }

    fn id_map_bytes(&self) -> usize {
        // The base needs no map: a search reads a candidate at the table
        // position its tree entry names. The heap map covers the segments
        // replayed from the file.
        self.tail.id_map_bytes()
    }

    fn describe(&self) -> String {
        let base = crate::ranked::describe_strategy(self.config.strategy);
        format!("Mmap Ranked {base}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{QueryStats, SearchHit};
    use crate::partition::PartitionStrategy;
    use crate::ranked::tests::index as sample;
    use lshe_minhash::MinHasher;

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

    /// The heap tail holds no base rows, yet counts the dead one a removed
    /// and re-inserted base id leaves, as the heap index does.
    #[test]
    fn a_reinserted_base_id_leaves_a_dead_row_in_the_tail() {
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
        assert_eq!(mapped.tail.segment_layout().tombstones, 1);
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
        let tail = mapped.tail.segment_layout();
        assert_eq!((tail.segments, tail.tombstones), (layout.segments, 3));
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
        let keys_off = store
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::TreeKeys)
            .expect("keys section")
            .offset as usize;
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[keys_off + 2] ^= 0x04;
        std::fs::write(&path, &bytes).expect("write");
        // Structural open succeeds (counts are intact)…
        assert!(MmapIndex::open(&path).is_ok());
        // …but the verified open names the damaged section.
        match MmapIndex::open_verified(&path).unwrap_err() {
            MmapIndexError::Store(StoreError::SectionChecksum { section, .. }) => {
                assert_eq!(section, "tree keys");
            }
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Re-packs `from` into `to` with the two tree sections rewritten by
    /// `damage(lo, rows)` — every checksum valid, so only structure can
    /// object.
    fn repack_damaged(from: &Path, to: &Path, damage: impl Fn(&mut [u16], &mut [u32])) {
        let store = Store::open(from).expect("open store");
        let mut lo = store.u16s(SectionKind::TreeKeys).expect("keys").to_vec();
        let mut rows = store.u32s(SectionKind::TreeIds).expect("ids").to_vec();
        damage(&mut lo, &mut rows);
        let mut packer = Packer::create(to).expect("create");
        for section in store.sections() {
            packer.begin_section(section.kind).expect("begin");
            match section.kind {
                SectionKind::TreeKeys => packer.write_u16s(&lo),
                SectionKind::TreeIds => packer.write_u32s(&rows),
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
        // Partition 0's first tree is entries `0..6`.
        assert_eq!(ranked.partition_stats()[0].count, 6);
        type Damage = fn(&mut [u16], &mut [u32]);
        let cases: [(&str, Damage, &str); 3] = [
            (
                "two entries with different keys trading places",
                |lo, rows| {
                    let at = (0..5).find(|&i| lo[i] != lo[i + 1]).expect("two keys");
                    lo.swap(at, at + 1);
                    rows.swap(at, at + 1);
                },
                "tree keys out of order",
            ),
            (
                "head bits that are not its row's",
                |lo, _| lo[0] ^= 1,
                "tree head bits disagree with its row",
            ),
            (
                "a row index outside the table",
                |_, rows| rows[0] = u32::MAX,
                "tree row index out of range",
            ),
        ];
        for (what, damage, detail) in cases {
            let path = tmp("structure_damaged");
            repack_damaged(&clean, &path, damage);
            match MmapIndex::open_verified(&path) {
                Err(MmapIndexError::Store(StoreError::Corrupt { section, detail: d })) => {
                    assert_eq!((section, d), ("tree ids", detail), "{what}");
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

        // Four copies of one signature in two partitions: every key is
        // equal, so only the permutation check can tell the trees from
        // the rows they should index.
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
            ("a tree that indexes a row twice", |_, rows| {
                rows[2] = rows[3];
            }),
            ("a tree that indexes another partition's row", |_, rows| {
                let last = rows.len() - 1;
                rows.swap(2, last);
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

    #[test]
    fn memory_footprint_is_metadata_sized() {
        let (_, ranked, _) = sample(24);
        let path = tmp("memory");
        pack_ranked_to(&ranked, &path).expect("pack");
        let mapped = MmapIndex::open(&path).expect("open");
        let heap = DomainIndex::memory_bytes(&mapped);
        assert!(heap > 0);
        // The heap backend retains a sketch and its forest rows per domain;
        // the mapped backend must be orders of magnitude below that.
        assert!(
            heap * 10 < LshEnsemble::memory_bytes(&ranked),
            "mapped heap {heap} not small vs {}",
            LshEnsemble::memory_bytes(&ranked)
        );
        std::fs::remove_file(&path).ok();
    }
}
