//! The `.lshe` index-file container: ensemble + provenance, in one
//! self-describing file.
//!
//! ```text
//! "LSHX" version:u8 (9)
//! num_perm:u32
//! records: record_count:u64 table_count:u64 column_text:u64 table_text:u64
//!          pad (to 4)
//!          ids:u32×record_count          ascending
//!          tables:u32×record_count       each record's index into the table names
//!          column_ends:u32×record_count  where each column name ends in its text
//!          table_ends:u32×table_count    where each table name ends in its text
//!          column names:u8×column_text   UTF-8, end to end
//!          table names:u8×table_text     each distinct table name once
//! ensemble: u64 length + LshEnsemble bytes ("LSHE" v9)
//! next_id:u32
//! ```
//!
//! The file leads with what every query with a hit reads: the records
//! (a hit's names; a candidate is verified in the row its probe found,
//! and a hit carries its size), then the partitions of the largest
//! domains, which every query probes. A fault on the mapped file makes the
//! fault-around window (64 KiB) around the page read resident, so the
//! columns read together are stored together, in front of the partitions
//! few queries reach.
//!
//! Every container stores and serves an [`LshEnsemble`], which needs nothing
//! beyond the ensemble and the records: every signature is in the ensemble
//! once, as the forest row that indexes it — each tree's first key lane at
//! 32 bits, the other lanes at 16 — with its cardinality beside it in its
//! partition's sizes. Each base partition's ids ascend, so an id's row is
//! a search of them. The records carry names only.
//!
//! The file is **served in place** by [`IndexContainer::load`], which maps
//! it and keeps the mapping: every base partition's ids, rows, trees and
//! sizes and every record column stay in the file as views
//! (`lshe_minhash::codec::Column`) — resident where queries reach, until a
//! compaction builds a new base. What `load` builds on the heap is
//! O(partitions + segments + tombstones), never O(domains); it still walks
//! every column once to check it, then releases the pages it touched. A
//! loaded container mutates like a built one: what changes lands in the
//! heap overlays (records here, ids in the index) until a compaction
//! writes a new base. `LSHX` is the only format `load` reads; the packed
//! `lshe-store` file that [`IndexContainer::pack_v2`] writes is a library
//! and benchmark artifact, opened through `lshe_core::MmapIndex`, and is
//! refused in the header like any other file.
//!
//! Version 8, the one generation before, had a flag byte behind the
//! version — written 1, once telling a ranked file from a plain one — and
//! an `LSHE` v8 ensemble with an id → row directory. It still loads, in
//! place: the flag is read and ignored, the directory skipped; the next
//! save writes version 9. Anything older (a record a domain with its size
//! among its fields, 8-byte tree entries, unpadded forests, rows of 32-bit
//! lanes throughout, a sketch section after the ensemble, `u64` slots, no
//! allocator mark) is refused with [`CodecError::UnsupportedVersion`].

use crate::records::RecordTableBuilder;
pub use crate::records::{DomainRecord, RecordRef, RecordTable};
use lshe_core::{
    CommitReport, DomainIndex, EnsembleConfig, Layout, LshEnsemble, MergeTask, Mutation,
    MutationError, PartitionStrategy, Row,
};
use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_minhash::codec::{CodecError, Decoder, Encoder, Owner};
use lshe_minhash::{MinHasher, Signature};
use lshe_store::{Mmap, Packer};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Envelope tag for `.lshe` files.
pub const MAGIC: [u8; 4] = *b"LSHX";
/// Current container version: the records are columns, and the nested
/// `LSHE` v9 ensemble holds each signature once, as a forest row of 32-bit
/// heads and 16-bit tails, trees of 4-byte entries over the rows, and each
/// row's size — all in columns padded so that a mapped file serves them in
/// place. The payload ends with the id allocator's high-water mark, so a
/// restart never re-issues a removed domain's id.
pub const VERSION: u8 = 9;
/// The oldest version still decoded — the generation before [`VERSION`],
/// with a flag byte and an ensemble that stored an id → row directory.
const OLDEST_READ: u8 = 8;

/// A loaded (or freshly built) index file.
///
/// A clone shares the base with its original — the index's base
/// partitions and sealed segments, and the base provenance table — and
/// copies what changed since that base was built: the overlay here, the
/// index's tombstones and id overlay. A mutation of the clone seals new
/// segments beside the shared ones, which is how the server commits staged
/// mutations into a fresh snapshot in O(delta) while in-flight queries keep
/// the old one. Only compaction builds a new base.
#[derive(Debug, Clone)]
pub struct IndexContainer {
    /// Provenance as of the last build, load or compaction.
    base: Arc<RecordTable>,
    /// What changed since, by id: a record applied (`Some`) or a base
    /// record removed (`None`).
    overlay: BTreeMap<u32, Option<DomainRecord>>,
    len: usize,
    /// Shared behind an `Arc`, so [`open_index`](Self::open_index) hands
    /// out trait objects without cloning forests or sketches.
    index: Arc<LshEnsemble>,
    num_perm: usize,
    /// Id allocator high-water mark: one past the largest id ever issued,
    /// monotone across removals (a removed id is never re-issued, so a
    /// stale reference can never silently resolve to a new domain).
    next_id: u32,
    /// The file the container was loaded from, whose columns its base
    /// views, until a compaction builds a base of its own:
    /// [`save`](Self::save) reads them through it.
    mapping: Option<Arc<Mmap>>,
}

/// How many domains [`IndexContainer::from_stream`] sketches at a time.
#[derive(Debug, Clone, Copy)]
struct SketchChunk {
    /// At most this many domains,
    domains: usize,
    /// and fewer once they hold this many values or more.
    values: usize,
}

/// 65 536 domains, or fewer once they hold 2²⁰ values (8 MiB of raw
/// hashes); a domain larger than that is a chunk of its own.
const SKETCH_CHUNK: SketchChunk = SketchChunk {
    domains: 1 << 16,
    values: 1 << 20,
};

impl IndexContainer {
    /// Builds a container from a catalog: sketches every domain, builds the
    /// ranked index, and records provenance.
    ///
    /// # Panics
    /// Panics if the catalog is empty or `partitions == 0`, on an empty
    /// domain — naming its id, table and column — and with "record names
    /// exceed 4 GiB" once the column names — or the distinct table names —
    /// pass the 4 GiB their arena's `u32` ends address.
    #[must_use]
    pub fn build(catalog: &Catalog, partitions: usize) -> Self {
        assert!(!catalog.is_empty(), "catalog must not be empty");
        // Catalog ids are dense, so the stream assigns the same ones; the
        // domains are sketched where they lie, uncopied.
        let domains = catalog
            .iter()
            .map(|(id, domain)| (domain, catalog.meta(id).clone()));
        Self::sketch_and_build(
            domains,
            partitions,
            RecordTableBuilder::default(),
            SKETCH_CHUNK,
        )
    }

    /// A container over a new base; `next_id` is raised past the base's ids.
    fn over_base(base: RecordTable, index: LshEnsemble, num_perm: usize, next_id: u32) -> Self {
        Self {
            len: base.len(),
            next_id: next_id.max(base.high_water()),
            base: Arc::new(base),
            overlay: BTreeMap::new(),
            index: Arc::new(index),
            num_perm,
            mapping: None,
        }
    }

    /// Builds a container from a stream of domains, sketching them a
    /// bounded chunk at a time — at most 65 536 domains, fewer once they
    /// hold 2²⁰ values (8 MiB of raw hashes), a larger domain alone — and
    /// dropping each chunk once sketched. Each domain is narrowed straight
    /// into its forest row (576 B at the default width), so peak memory is
    /// the rows, the records and the index under construction, never the
    /// raw value sets and never a signature a domain. This is the
    /// constructor for corpora that do not fit in RAM — e.g. a
    /// `lshe_datagen::CorpusStream` scaled to multiple gigabytes.
    ///
    /// Value-identical to [`build`](Self::build) over a catalog containing
    /// the same domains in the same order. `_ranked` is ignored — every
    /// container ranks — and stays only so existing callers compile.
    ///
    /// # Panics
    /// As [`build`](Self::build): on an empty stream, `partitions == 0`,
    /// an empty domain (named by its position in the stream, its table and
    /// its column, as it arrives), or names past their arenas' 4 GiB.
    pub fn from_stream<I>(domains: I, partitions: usize, _ranked: bool) -> Self
    where
        I: IntoIterator<Item = (Domain, DomainMeta)>,
    {
        Self::sketch_and_build(
            domains.into_iter(),
            partitions,
            RecordTableBuilder::default(),
            SKETCH_CHUNK,
        )
    }

    /// [`build`](Self::build) lends its domains, `from_stream` gives them up;
    /// both record them into `records`. Every chunk's domains are folded
    /// across the sketch lanes, each into its row of one arena the chunk
    /// owns; the forests copy the rows in as they are.
    fn sketch_and_build<D: Borrow<Domain>>(
        domains: impl Iterator<Item = (D, DomainMeta)>,
        partitions: usize,
        mut records: RecordTableBuilder,
        cap: SketchChunk,
    ) -> Self {
        assert!(partitions > 0, "partitions must be positive");
        let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
        let config = EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: partitions },
            ..EnsembleConfig::default()
        };
        let layout = Layout::new(config.b_max, config.r_max, config.num_perm);
        let words = layout.words();
        let mut sizes = Vec::new();
        let mut arenas: Vec<Vec<u16>> = Vec::new();
        let mut chunk: Vec<D> = Vec::new();
        let mut chunk_values = 0usize;
        let mut sketch = |chunk: &mut Vec<D>| {
            let sets: Vec<&[u64]> = chunk.iter().map(|d| d.borrow().hashes()).collect();
            let mut arena = vec![0u16; sets.len() * words];
            hasher.sketch_into(&sets, &mut arena, words, |lanes, row| {
                layout.narrow_into(lanes, row);
            });
            arenas.push(arena);
            chunk.clear();
        };
        for (id, (domain, meta)) in (0u32..).zip(domains) {
            let size = domain.borrow().len();
            assert!(
                size > 0,
                "domain at stream position {id} ({}.{}) has no values",
                meta.table,
                meta.column
            );
            // The ids ascend, so what can go wrong is the names' 4 GiB.
            if let Err(detail) = records.push(id, &meta.table, &meta.column) {
                panic!("{detail}");
            }
            sizes.push(size as u64);
            chunk_values += size;
            chunk.push(domain);
            if chunk.len() == cap.domains || chunk_values >= cap.values {
                sketch(&mut chunk);
                chunk_values = 0;
            }
        }
        sketch(&mut chunk);
        let records = records.finish();
        assert!(!records.is_empty(), "stream must yield at least one domain");
        // The ids are the stream positions: dense, so none repeats.
        let ids: Vec<u32> = (0..).take(sizes.len()).collect();
        let rows: Vec<Row<'_>> = arenas
            .iter()
            .flat_map(|arena| arena.chunks_exact(words))
            .map(|row| Row::new(layout, row).expect("`words` words a row"))
            .collect();
        let index = LshEnsemble::build_from_parts(config, &ids, &sizes, &rows);
        Self::over_base(records, index, hasher.num_perm(), 0)
    }

    /// Signature width the index was built with (clients must sketch
    /// queries at this width).
    #[must_use]
    pub fn num_perm(&self) -> usize {
        self.num_perm
    }

    /// Number of indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the container holds no domains (cannot occur via `build`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Opens the stored index behind the unified query surface. Cheap
    /// (clones an `Arc`): the returned handle shares the container's
    /// forests and sketches.
    #[must_use]
    pub fn open_index(&self) -> Box<dyn DomainIndex> {
        Box::new(Arc::clone(&self.index))
    }

    /// The stored index, borrowed: what a snapshot answers through.
    pub(crate) fn ensemble(&self) -> &LshEnsemble {
        &self.index
    }

    /// The per-shard ensemble configuration of an `N`-way
    /// [`split_with`](Self::split_with).
    fn shard_config(&self, shards: usize) -> EnsembleConfig {
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth {
                n: self.partition_count().div_ceil(shards).max(1),
            },
            // A shard's forests take the stored rows as they are, so they
            // keep the dimensions the rows were laid out for.
            ..*self.index.config()
        }
    }

    /// Partitions the container into `num_shards` standalone shard
    /// containers, routing each domain with `place(id, num_shards)`.
    ///
    /// Each output holds the routed subset of records and sketches plus a
    /// freshly built ensemble over the routed rows, each with
    /// `ceil(partitions / num_shards)` partitions. A process cluster over
    /// the split files answers with the union of the files' own answers,
    /// ranked by estimate.
    ///
    /// # Errors
    /// A message when the container holds fewer domains than shards,
    /// `num_shards < 2`, or the placement leaves a shard empty / routes out
    /// of range.
    pub fn split_with(
        &self,
        num_shards: usize,
        place: impl Fn(u32, usize) -> usize,
    ) -> Result<Vec<IndexContainer>, String> {
        if num_shards < 2 {
            return Err("split needs at least 2 shards".into());
        }
        if self.len() < num_shards {
            return Err(format!(
                "cannot split {} domains across {num_shards} shards",
                self.len()
            ));
        }
        let config = self.shard_config(num_shards);
        // Route every live entry with its record; both walks run in id
        // order, so each shard's arrays and records ascend like a fresh
        // build's.
        let mut parts: Vec<Vec<(u32, u64, Row<'_>)>> = vec![Vec::new(); num_shards];
        let mut records: Vec<RecordTableBuilder> =
            (0..num_shards).map(|_| Default::default()).collect();
        for (entry, (id, table, column)) in self.index.live_entries().zip(self.live_names()) {
            debug_assert_eq!(entry.0, id, "one record a live domain");
            let s = place(id, num_shards);
            if s >= num_shards {
                return Err(format!(
                    "placement routed id {id} to shard {s} of {num_shards}"
                ));
            }
            parts[s].push(entry);
            let pushed = records[s].push(id, table, column);
            pushed.expect("the ids ascend, their names fit the parent's");
        }
        if let Some(empty) = parts.iter().position(Vec::is_empty) {
            return Err(format!("placement leaves shard {empty} empty"));
        }
        Ok(parts
            .iter()
            .zip(records)
            .map(|(entries, records)| {
                let ids: Vec<u32> = entries.iter().map(|e| e.0).collect();
                let sizes: Vec<u64> = entries.iter().map(|e| e.1).collect();
                let rows: Vec<Row<'_>> = entries.iter().map(|e| e.2).collect();
                let ensemble = LshEnsemble::build_from_parts(config, &ids, &sizes, &rows);
                Self::over_base(records.finish(), ensemble, self.num_perm, self.next_id)
            })
            .collect())
    }

    /// The stored index as its mutation surface (a shared index is cloned
    /// on first mutation, which copies none of its base).
    fn index_mut(&mut self) -> &mut LshEnsemble {
        Arc::make_mut(&mut self.index)
    }

    /// The smallest id safely assignable to a new domain: the persisted
    /// allocator high-water mark. Monotone across removals — removing the
    /// highest-id domain does **not** free its id for reuse, so references
    /// held by clients (or staged in a delta log) can never silently
    /// rebind to a different domain after a restart.
    #[must_use]
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Raises the allocator high-water mark (never lowers it). The engine
    /// calls this before persisting so ids handed out to staged-then-
    /// cancelled inserts stay burned across restarts.
    pub fn reserve_next_id(&mut self, next_id: u32) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Applies a batch of mutations in order as one step, as
    /// [`LshEnsemble::commit`] does — validated whole by the one
    /// [`BatchRule`](lshe_core::BatchRule) a staging area also checks each
    /// op with, then sealed into one segment and tombstoned in O(batch) —
    /// and the provenance records follow. On any error nothing changes. A
    /// [`DeltaOp::Commit`] marker only raises the allocator mark. Replaying
    /// a delta log at open is this call per committed batch, strictly: an
    /// op the base already holds is an error, never skipped.
    ///
    /// # Errors
    /// As [`LshEnsemble::commit`]: an op is numbered among the batch's
    /// inserts and removes, and an insert of `u32::MAX` is
    /// [`MutationError::Invalid`].
    pub fn commit(&mut self, ops: &[DeltaOp]) -> Result<CommitReport, MutationError> {
        let batch: Vec<Mutation<'_>> = ops.iter().filter_map(DeltaOp::mutation).collect();
        let report = self.index_mut().commit(&batch)?;
        for op in ops {
            match op {
                DeltaOp::Insert { record, .. } => {
                    self.overlay.insert(record.id, Some(record.clone()));
                    self.next_id = self.next_id.max(record.id + 1);
                }
                DeltaOp::Remove { id } if self.base.get(*id).is_some() => {
                    self.overlay.insert(*id, None);
                }
                DeltaOp::Remove { id } => {
                    self.overlay.remove(id);
                }
                DeltaOp::Commit { next_id } => self.next_id = self.next_id.max(*next_id),
            }
        }
        self.len = self.index.len();
        Ok(report)
    }

    /// The live records — the base table's, less those the overlay removed
    /// or replaced, merged with the overlay's — as a table of their own.
    fn live_records(&self) -> RecordTable {
        let mut records = RecordTableBuilder::with_capacity(self.len);
        for (id, table, column) in self.live_names() {
            let pushed = records.push(id, table, column);
            pushed.expect("the live records ascend, and fitted their tables");
        }
        records.finish()
    }

    /// Every live record's `(id, table, column)` in ascending id order: the
    /// base table's, less those the overlay removed or replaced, merged
    /// with the overlay's. Reads nothing of the index.
    fn live_names(&self) -> impl Iterator<Item = (u32, &str, &str)> {
        let overlay = &self.overlay;
        let base = self.base.iter();
        let mut base = base
            .filter(|(id, _, _)| !overlay.contains_key(id))
            .peekable();
        let added = overlay.iter().filter_map(|(&id, record)| {
            let record = record.as_ref()?;
            Some((id, &*record.table, &*record.column))
        });
        let mut added = added.peekable();
        std::iter::from_fn(move || match (base.peek(), added.peek()) {
            (Some(b), Some(a)) if a.0 < b.0 => added.next(),
            (Some(_), _) => base.next(),
            (None, _) => added.next(),
        })
    }

    /// The stored index's tier layout (per-segment entry counts plus
    /// tombstone backlog), for merge planning.
    #[must_use]
    pub fn segment_layout(&self) -> lshe_core::SegmentLayout {
        self.index.segment_layout()
    }

    /// Executes one merge task on the stored index, as
    /// [`LshEnsemble::apply_merge`] does: [`MergeTask::Merge`] folds only
    /// the listed segments (O(folded entries)); [`MergeTask::Full`]
    /// rebuilds the base partitioning from the live rows, every sealed
    /// segment and tombstone included — the O(corpus) step that segmented
    /// commits keep off the commit path — makes the live records the base
    /// table, folding the overlay in, and lets go of the mapped file once
    /// no column is a view into it any more.
    pub fn apply_merge(&mut self, task: &MergeTask) -> CommitReport {
        let report = self.index_mut().apply_merge(task);
        if *task != MergeTask::Full {
            return report;
        }
        if !self.overlay.is_empty() {
            self.base = Arc::new(self.live_records());
            self.overlay.clear();
        }
        if self.mapped_bytes() == 0 && !self.base.is_borrowed() {
            self.mapping = None;
        }
        report
    }

    /// Number of size partitions in the ensemble.
    #[must_use]
    pub fn partition_count(&self) -> usize {
        self.index.partition_stats().len()
    }

    /// Provenance records for every indexed domain, in ascending id order.
    #[must_use]
    pub fn records(&self) -> Records<'_> {
        Records(self)
    }

    /// Looks up one provenance record by domain id: the overlay's word if
    /// it has one, else the base table's names and the index's size.
    #[must_use]
    pub fn record(&self, id: u32) -> Option<RecordRef<'_>> {
        match self.overlay.get(&id) {
            Some(changed) => changed.as_ref().map(DomainRecord::view),
            None => {
                let (table, column) = self.base.get(id)?;
                let (size, _) = self.sketch(id).expect("a base record names a live domain");
                Some(RecordRef {
                    id,
                    size,
                    table,
                    column,
                })
            }
        }
    }

    /// The `(table, column)` names of a domain's record, read from the
    /// records alone: what a hit renders beside the size its search
    /// carries.
    #[must_use]
    pub fn names(&self, id: u32) -> Option<(&str, &str)> {
        match self.overlay.get(&id) {
            Some(changed) => changed.as_ref().map(|r| (&*r.table, &*r.column)),
            None => self.base.get(id),
        }
    }

    /// Approximate bytes of the container: the stored index (`index_bytes`
    /// in `/stats` and `lshe stats`) plus the heap the provenance holds,
    /// [`provenance_bytes`](Self::provenance_bytes). All heap, except the
    /// index's [`mapped_bytes`](Self::mapped_bytes).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.open_index().memory_bytes() + self.provenance_bytes()
    }

    /// The part of the stored index that is views into the mapped file it
    /// was loaded from (`mapped_bytes` in `/stats` and `lshe stats`;
    /// `heap_bytes` there is the rest of `index_bytes`): 0 for a container
    /// that was built.
    #[must_use]
    pub fn mapped_bytes(&self) -> usize {
        self.open_index().mapped_bytes()
    }

    /// The bytes of the file this container's base is served from, until a
    /// compaction builds a base of its own.
    #[must_use]
    pub fn mapping(&self) -> Option<&[u8]> {
        self.mapping.as_deref().map(Mmap::as_slice)
    }

    /// One flag per base partition of the index: whether it is served in
    /// place — every bulk column of its forest, and its sizes, a view into
    /// [`mapping`](Self::mapping), none copied.
    #[must_use]
    pub fn base_in_place(&self) -> Vec<bool> {
        self.index
            .base_borrowed_from(self.mapping().unwrap_or_default())
    }

    /// Whether the base record table is served in place: every column of
    /// it a view into [`mapping`](Self::mapping).
    #[must_use]
    pub fn records_in_place(&self) -> bool {
        self.base.borrows_from(self.mapping().unwrap_or_default())
    }

    /// The resident bytes of the mapping the base is served from, as the
    /// kernel counts them (`Rss` of its `/proc/self/smaps` entry): the file
    /// pages queries have touched since load released them. 0 with no
    /// mapping; `None` where the kernel does not say (off Linux).
    #[must_use]
    pub fn mapped_resident_bytes(&self) -> Option<usize> {
        match &self.mapping {
            Some(mapping) => mapping.resident_bytes(),
            None => cfg!(target_os = "linux").then_some(0),
        }
    }

    /// Approximate heap bytes of the provenance: the base record table (0
    /// once loaded — its columns are views into the file) and the record
    /// overlay — an entry for every id applied or removed since, and the
    /// text of each applied record.
    #[must_use]
    pub fn provenance_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(u32, Option<DomainRecord>)>();
        let text = self.overlay.values().flatten();
        let text: usize = text.map(|r| r.table.len() + r.column.len()).sum();
        self.base.heap_bytes() + self.overlay.len() * entry + text
    }

    /// Which parts of its base this container holds as the very allocation
    /// `other` holds: one flag per base partition of the index, then the
    /// provenance table.
    #[must_use]
    pub fn base_shared_with(&self, other: &Self) -> (Vec<bool>, bool) {
        let partitions = self.index.base_shared_with(&other.index);
        (partitions, Arc::ptr_eq(&self.base, &other.base))
    }

    /// The stored (size, signature row) of a domain, if indexed: the one
    /// lookup by id this container makes in its index.
    #[must_use]
    pub fn sketch(&self, id: u32) -> Option<(u64, Row<'_>)> {
        #[cfg(test)]
        tests::SKETCH_LOOKUPS.with(|n| n.set(n.get() + 1));
        self.index.sketch(id)
    }

    /// Provenance lookup: (table, column, size).
    ///
    /// # Panics
    /// Panics if `id` was never indexed.
    #[must_use]
    pub fn provenance(&self, id: u32) -> (&str, &str, u64) {
        let rec = self.record(id).expect("id was indexed");
        (rec.table, rec.column, rec.size)
    }

    /// Human-readable description (the `stats` subcommand). The index
    /// summary line and memory figure come from the [`DomainIndex`]
    /// surface, so every backend reports through the same channel.
    #[must_use]
    pub fn describe(&self) -> String {
        let index = self.open_index();
        let mut out = String::new();
        let config = *self.index.config();
        let _ = writeln!(out, "index: {}", index.describe());
        let _ = writeln!(out, "domains: {}", self.len());
        let _ = writeln!(out, "num_perm: {}", config.num_perm);
        let _ = writeln!(
            out,
            "forest: {} trees × depth {}",
            config.b_max, config.r_max
        );
        let _ = writeln!(out, "memory: {} bytes", self.memory_bytes());
        let (index_bytes, mapped) = (index.memory_bytes(), index.mapped_bytes());
        // Rows: each domain's id, lanes and size; trees: their columns, 4
        // bytes an entry.
        let rows = self.index.sketch_memory_bytes();
        let trees = self.index.tree_memory_bytes();
        let _ = writeln!(
            out,
            "  index_bytes: {index_bytes} (rows {rows}, trees {trees})"
        );
        let _ = writeln!(out, "    mapped_bytes: {mapped}");
        let _ = writeln!(out, "    heap_bytes: {}", index_bytes - mapped);
        let _ = writeln!(out, "  provenance_bytes: {}", self.provenance_bytes());
        let _ = writeln!(out, "  id_map_bytes: {}", index.id_map_bytes());
        let stats = self.index.partition_stats();
        let _ = writeln!(out, "partitions: {}", stats.len());
        let _ = writeln!(out, "  #\tsize_range\tdomains");
        for (i, p) in stats.iter().enumerate() {
            let _ = writeln!(out, "  {i}\t[{}, {}]\t{}", p.lower, p.upper, p.count);
        }
        out
    }

    /// Serialises the container (`LSHX`, [`VERSION`]) into one exactly
    /// sized buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let merged = self.merged_records();
        let records = merged.as_ref().unwrap_or(&self.base);
        Encoder::exactly(|enc| self.encode_into(enc, records))
    }

    /// The live records as a table of their own when the overlay holds
    /// any; the base table is them otherwise.
    fn merged_records(&self) -> Option<RecordTable> {
        (!self.overlay.is_empty()).then(|| self.live_records())
    }

    /// The encoder behind [`to_bytes`](Self::to_bytes) and [`write`](Self::write),
    /// over the live `records`.
    fn encode_into<W: Write>(&self, enc: &mut Encoder<W>, records: &RecordTable) {
        enc.envelope(MAGIC, VERSION);
        enc.put_u32(self.num_perm as u32);
        records.encode_into(enc);
        enc.put_nested(|enc| self.index.encode_into(enc));
        // Trailer: the allocator high-water mark survives restarts.
        enc.put_u32(self.next_id);
    }

    /// Starts a new index at `path`: writes and syncs `<path>.tmp` with
    /// the bytes of [`to_bytes`](Self::to_bytes) (and its panic), removes
    /// the old index's delta log (`<path>.delta`) and syncs the directory,
    /// then renames. No log of a replaced index replays onto the new one.
    /// A crash between the removal and the rename leaves the old file
    /// without its log: run the command again. Never save to a path a live
    /// engine serves: its folds persist through the engine.
    ///
    /// # Errors
    /// Propagates I/O errors; one while writing leaves `path` and its log
    /// untouched.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        self.write(path, || {
            DeltaLog::sidecar(path).clear()?;
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        })
    }

    /// [`save`](Self::save)'s write, streamed without holding the bytes
    /// all at once, with `before_rename` run between the sync and the
    /// rename. A fold passes a no-op: it keeps the log and rewrites it
    /// itself.
    ///
    /// No `write(2)` is longer than [`WRITE_CHUNK`] (64 KiB). The page
    /// cache holds a file in folios no larger than the writes that filled
    /// it, and a fault on a mapping maps a whole folio where one fits, so
    /// an index written in larger pieces would fault in that much of itself
    /// for every page a query reads. In 64 KiB pieces, a folio is at most
    /// the kernel's fault-around window, which a fault maps anyway.
    pub(crate) fn write(
        &self,
        path: &Path,
        before_rename: impl FnOnce() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let merged = self.merged_records();
        let records = merged.as_ref().unwrap_or(&self.base);
        let saved = replace_file(path, before_rename, |file| {
            let chunked = std::io::BufWriter::with_capacity(WRITE_CHUNK, Chunked(file));
            let mut enc = Encoder::over(chunked);
            self.encode_into(&mut enc, records);
            Ok(enc.into_sink()?.into_inner()?.0)
        });
        if let Some(mapping) = &self.mapping {
            // Writing read every mapped column: give the pages back.
            release(mapping);
        }
        saved
    }

    /// Deserialises a container, copying everything out of `bytes`.
    ///
    /// # Errors
    /// [`CodecError`] on truncation, tag/version mismatch, or structural
    /// inconsistencies. Prefer [`load`](Self::load) when reading from a
    /// file: it reports the path and failing section, and serves the file
    /// in place.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(Decoder::new(bytes)).map_err(|(_, e)| e)
    }

    /// The decoder, reporting which part of the file failed
    /// alongside the codec error — [`load`](Self::load) surfaces both.
    fn decode(mut dec: Decoder<'_>) -> Result<Self, (&'static str, CodecError)> {
        let hdr = |e| ("header", e);
        let version = dec.envelope(MAGIC).map_err(hdr)?;
        if !(OLDEST_READ..=VERSION).contains(&version) {
            return Err(hdr(CodecError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            }));
        }
        if version < VERSION {
            // Version 8's flag byte, written 1 and never read.
            dec.get_u8("flags").map_err(hdr)?;
        }
        let num_perm = dec.get_u32("num_perm").map_err(hdr)? as usize;
        let rcs = |e| ("domain records", e);
        let ens = |e| ("ensemble", e);
        let records = RecordTable::decode(&mut dec).map_err(rcs)?;
        let nested = dec.nested("ensemble bytes").map_err(ens)?;
        // Both in id order, checked in the decoder's one walk of the base
        // by id: one record a live domain.
        let (mut ids, mut same) = (records.ids().iter(), true);
        let record_each = |live| same &= ids.next() == Some(&live);
        let ensemble = LshEnsemble::decode_with(nested, record_each).map_err(ens)?;
        if ensemble.len() != records.len() {
            return Err(ens(CodecError::Corrupt(
                "record count disagrees with ensemble",
            )));
        }
        if !same || ids.next().is_some() {
            return Err(rcs(CodecError::Corrupt("a record names no live domain")));
        }
        let mark = |e| ("allocator mark", e);
        let next_id = dec.get_u32("next id").map_err(mark)?;
        if !dec.is_exhausted() {
            return Err(mark(CodecError::Corrupt("trailing bytes after container")));
        }
        Ok(Self::over_base(records, ensemble, num_perm, next_id))
    }

    /// Loads a `.lshe` file, mapped and served in place. Every check of the
    /// decoder runs over the mapping; the base partitions' columns and
    /// sizes and the record columns stay views into it,
    /// which the container keeps; the segments and tombstones are decoded
    /// onto the heap; and the pages the checks touched are released before
    /// returning — afterwards the file is resident where queries reach. Any
    /// other file, a packed one included, fails in the header. Replace a
    /// loaded file by rename ([`save`](Self::save) does), never by writing
    /// into it: the mapping follows the old file, not a truncated one.
    ///
    /// # Errors
    /// [`LoadError`], carrying the file path and (for decode failures) the
    /// section that failed.
    pub fn load(path: &Path) -> Result<Self, LoadError> {
        let mapping = std::fs::File::open(path)
            .and_then(|file| Mmap::map_file(&file))
            .map_err(|source| LoadError::Io {
                path: path.to_owned(),
                source,
            })?;
        mapping.advise(lshe_store::Advice::Sequential);
        let mapping = Arc::new(mapping);
        let owner: Owner = mapping.clone();
        let decoded = Self::decode(Decoder::shared(&owner));
        let mut container = decoded.map_err(|(section, source)| LoadError::Decode {
            path: path.to_owned(),
            section,
            source,
        })?;
        // Last step: every check has run.
        release(&mapping);
        container.mapping = Some(mapping);
        Ok(container)
    }

    /// Packs this container's index into a file at `path` in the
    /// checksummed, 64-byte-aligned `lshe-store` format (see
    /// `docs/FORMAT.md`), written by [`lshe_core::pack_ranked_with`] and
    /// opened by `lshe_core::MmapIndex`. It holds no provenance records and
    /// is not served: [`load`](Self::load) refuses it.
    ///
    /// # Errors
    /// A message on I/O failure.
    pub fn pack_v2(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut packer = Packer::create(path).map_err(io)?;
        lshe_core::pack_ranked_with(&self.index, &mut packer, self.next_id).map_err(io)?;
        packer.finish().map_err(io)
    }
}

/// Every provenance record of a container in ascending id order: the base
/// table's, minus those the overlay removed or replaced, merged with the
/// overlay's.
#[derive(Clone, Copy)]
pub struct Records<'a>(&'a IndexContainer);

impl<'a> Records<'a> {
    /// The records, in ascending id order, each size read beside it in a
    /// walk of the index's live entries: no lookup by id.
    pub fn iter(self) -> impl Iterator<Item = RecordRef<'a>> {
        let container = self.0;
        let entries = container.index.live_entries();
        let records = container.live_names().zip(entries);
        records.map(|((id, table, column), (live, size, _))| {
            debug_assert_eq!(id, live, "one record a live domain");
            RecordRef {
                id,
                size,
                table,
                column,
            }
        })
    }
}

impl PartialEq for Records<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Records<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Drops the pages of `mapping` this process has touched from its resident
/// set and turns read-ahead off: what a loader does once it has walked the
/// file, so that the pages resident afterwards are the ones queries fault.
fn release(mapping: &Mmap) {
    mapping.advise(lshe_store::Advice::DontNeed);
    mapping.advise(lshe_store::Advice::Random);
}

/// The longest `write(2)` an index file is made with: the kernel's
/// fault-around window ([`IndexContainer::write`] says why).
const WRITE_CHUNK: usize = 1 << 16;

/// A file no `write` to which passes [`WRITE_CHUNK`] bytes; `write_all`
/// splits a longer slice, such as a record table's text arena.
struct Chunked(std::fs::File);

impl Write for Chunked {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(&buf[..buf.len().min(WRITE_CHUNK)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// Replaces `path` atomically: `write` fills `<path>.tmp`, which is synced,
/// then `before_rename` runs, and the file is renamed over `path`, so
/// readers and crashes never see a mixture.
fn replace_file(
    path: &Path,
    before_rename: impl FnOnce() -> std::io::Result<()>,
    write: impl FnOnce(std::fs::File) -> std::io::Result<std::fs::File>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    write(std::fs::File::create(&tmp)?)?.sync_all()?;
    before_rename()?;
    std::fs::rename(&tmp, path)
}

/// Why an index file could not be loaded — every variant carries the file
/// path, and decode failures name the failing section, so a bad index
/// never reports a bare codec error (the operator knows *which file* and
/// *which part* without re-running under a debugger).
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem problem (open, read, or mmap).
    Io {
        /// The index file being loaded.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a readable `LSHX` container.
    Decode {
        /// The index file being loaded.
        path: PathBuf,
        /// Which part of the container was being decoded ("header",
        /// "domain records", "ensemble", or "allocator mark").
        section: &'static str,
        /// The underlying codec error.
        source: CodecError,
    },
}

impl LoadError {
    /// The index file that failed to load.
    #[must_use]
    pub fn path(&self) -> &Path {
        match self {
            Self::Io { path, .. } | Self::Decode { path, .. } => path,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "index file {}: {source}", path.display())
            }
            Self::Decode {
                path,
                section,
                source,
            } => write!(
                f,
                "index file {}: {section} section: {source}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            Self::Decode { source, .. } => Some(source),
        }
    }
}

// ------------------------------------------------------------- delta log

/// Envelope tag for `.delta` sidecar files.
pub const DELTA_MAGIC: [u8; 4] = *b"LSHD";
/// The delta-log format version, the only one read: a 9-byte header
/// carrying the id allocator's high-water mark at log creation,
/// [`DeltaOp::Commit`] markers, and an insert's signature as `u32` lanes.
/// A log is retired by every merge, so no older one is migrated.
pub const DELTA_VERSION: u8 = 3;

/// One staged mutation, as recorded in the append-only delta log.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Stage a new domain: provenance record plus its MinHash signature.
    Insert {
        /// Provenance (id, size, table, column) of the new domain.
        record: DomainRecord,
        /// The domain's signature at the container's `num_perm`.
        signature: Signature,
    },
    /// Remove a domain by id.
    Remove {
        /// The id to remove.
        id: u32,
    },
    /// Commit marker: every op before it (since the previous marker) was
    /// sealed into one segment and acknowledged. Appending this single
    /// entry *is* the commit's durability step — no base rewrite — and
    /// replaying the log batch-by-batch at boot reproduces the exact
    /// segment stack that was acked.
    Commit {
        /// The allocator high-water mark at commit time.
        next_id: u32,
    },
}

impl DeltaOp {
    /// The index mutation this op stages; `None` for a commit marker.
    #[must_use]
    pub fn mutation(&self) -> Option<Mutation<'_>> {
        match self {
            Self::Insert { record, signature } => {
                Some(Mutation::Insert(record.id, record.size, signature))
            }
            Self::Remove { id } => Some(Mutation::Remove(*id)),
            Self::Commit { .. } => None,
        }
    }
}

/// Why a delta log could not be read back.
#[derive(Debug)]
pub enum DeltaError {
    /// Filesystem problem.
    Io(std::io::Error),
    /// The log's header or an entry's payload is structurally invalid.
    Corrupt(String),
    /// The log ends mid-entry — the classic torn write of a crash during
    /// append. The prefix before `entries` decoded cleanly.
    Torn {
        /// Entries that decoded cleanly before the tear.
        entries: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "delta log i/o error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt delta log: {msg}"),
            Self::Torn { entries } => write!(
                f,
                "torn delta log: truncated entry after {entries} complete entries"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<std::io::Error> for DeltaError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a over an entry payload — the per-entry integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Appends one log entry — `len:u32 payload fnv1a(payload):u64` — to `out`.
fn encode_entry(out: &mut Vec<u8>, op: &DeltaOp) {
    let payload = Encoder::exactly(|enc| match op {
        DeltaOp::Insert { record, signature } => {
            enc.put_u8(4);
            record.encode_into(enc);
            enc.put_u32_slice(signature.slots());
        }
        DeltaOp::Remove { id } => {
            enc.put_u8(2);
            enc.put_u32(*id);
        }
        DeltaOp::Commit { next_id } => {
            enc.put_u8(3);
            enc.put_u32(*next_id);
        }
    });
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
}

/// The log header: magic, version, allocator high-water mark.
fn delta_header(next_id: u32) -> Vec<u8> {
    let mut header = Encoder::with_capacity(9);
    header.envelope(DELTA_MAGIC, DELTA_VERSION);
    header.put_u32(next_id);
    header.finish()
}

/// Decodes one entry's payload. Tag 1 stays unassigned: logs before
/// version 3 used it for an insert with `u64` slots.
fn decode_op(payload: &[u8]) -> Result<DeltaOp, CodecError> {
    let mut dec = Decoder::new(payload);
    let op = match dec.get_u8("delta op tag")? {
        4 => DeltaOp::Insert {
            record: DomainRecord::decode(&mut dec)?,
            signature: {
                let lanes = dec.get_u64("delta signature width")? as usize;
                dec.get_lanes(lanes, "delta signature")?
            },
        },
        2 => DeltaOp::Remove {
            id: dec.get_u32("delta id")?,
        },
        3 => DeltaOp::Commit {
            next_id: dec.get_u32("delta next id")?,
        },
        _ => return Err(CodecError::Corrupt("unknown delta op tag")),
    };
    if !dec.is_exhausted() {
        return Err(CodecError::Corrupt("trailing bytes after delta op"));
    }
    Ok(op)
}

/// The append-only mutation log kept next to a served `.lshe` file
/// (`<index>.delta`): every staged `/insert` and `/remove` is appended
/// before it is acknowledged, and replayed on the next load, so a server
/// restart loses no staged mutation. [`DeltaOp::Commit`] markers split the
/// log into committed batches (each batch = one sealed segment) followed
/// by a still-staged tail. Every fold the engine persists retires the
/// committed prefix — the base file it wrote embodies every batch — and
/// [`rewrite`](Self::rewrite)s the log to the staged tail alone, removing
/// it when nothing is staged.
///
/// ```text
/// "LSHD" version:u8 next_id:u32
/// per entry: len:u32  payload[len]  fnv1a(payload):u64
/// payload: 4 record lane_count:u64 lanes:u32×lane_count   (insert)
///        | 2 id:u32                                       (remove)
///        | 3 next_id:u32                                  (commit marker)
/// ```
///
/// A crash mid-append leaves a truncated final entry; [`read`](Self::read)
/// reports it as the typed [`DeltaError::Torn`] rather than panicking or
/// silently dropping data.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    path: PathBuf,
}

impl DeltaLog {
    /// The conventional sidecar path for an index file: `<index>.delta`.
    #[must_use]
    pub fn sidecar(index_path: &Path) -> Self {
        let mut os = index_path.as_os_str().to_owned();
        os.push(".delta");
        Self {
            path: PathBuf::from(os),
        }
    }

    /// A delta log at an explicit path.
    #[must_use]
    pub fn at(path: PathBuf) -> Self {
        Self { path }
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True if the log file exists on disk.
    #[must_use]
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Appends one op, creating the file (with its header, which pins the
    /// allocator high-water mark `next_id` at creation time) on first use.
    /// The entry is fsynced (`sync_data`) before returning — the op is on
    /// disk, not just in the page cache, by the time the caller
    /// acknowledges it.
    ///
    /// # Errors
    /// Propagates I/O errors; the op is not recorded on failure.
    pub fn append(&self, op: &DeltaOp, next_id: u32) -> std::io::Result<()> {
        let mut bytes = Vec::new();
        encode_entry(&mut bytes, op);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&delta_header(next_id))?;
        }
        file.write_all(&bytes)?;
        file.sync_data()
    }

    /// Reads every op in append order. A missing file is an empty log.
    ///
    /// # Errors
    /// As [`read_with_mark`](Self::read_with_mark).
    pub fn read(&self) -> Result<Vec<DeltaOp>, DeltaError> {
        self.read_with_mark().map(|(_, ops)| ops)
    }

    /// Reads the header's allocator high-water mark plus every op in
    /// append order. A missing file is an empty log with mark 0.
    ///
    /// # Errors
    /// [`DeltaError::Torn`] when the file ends mid-entry (torn write),
    /// [`DeltaError::Corrupt`] on a bad header — any version but
    /// [`DELTA_VERSION`] included — checksum, or payload, and
    /// [`DeltaError::Io`] on filesystem failures.
    pub fn read_with_mark(&self) -> Result<(u32, Vec<DeltaOp>), DeltaError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, Vec::new())),
            Err(e) => return Err(e.into()),
        };
        let mut dec = Decoder::new(&bytes);
        let version = dec
            .envelope(DELTA_MAGIC)
            .map_err(|e| DeltaError::Corrupt(e.to_string()))?;
        if version != DELTA_VERSION {
            return Err(DeltaError::Corrupt(format!(
                "unsupported delta version {version} (this build reads {DELTA_VERSION})"
            )));
        }
        let mark = dec
            .get_u32("next id")
            .map_err(|e| DeltaError::Corrupt(e.to_string()))?;
        // Entries are parsed straight off validated slices past the fixed
        // header: magic + version (5 bytes) + allocator mark (4).
        let mut pos = 9usize;
        let mut ops = Vec::new();
        while pos < bytes.len() {
            if bytes.len() - pos < 4 {
                return Err(DeltaError::Torn { entries: ops.len() });
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4;
            if bytes.len() - pos < len + 8 {
                return Err(DeltaError::Torn { entries: ops.len() });
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            let check = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
            pos += 8;
            if check != fnv1a(payload) {
                return Err(DeltaError::Corrupt(format!(
                    "checksum mismatch in entry {}",
                    ops.len()
                )));
            }
            ops.push(decode_op(payload).map_err(|e| DeltaError::Corrupt(e.to_string()))?);
        }
        Ok((mark, ops))
    }

    /// Atomically rewrites the log to hold exactly `ops` (tmp + rename):
    /// the log-prefix retirement step of a background merge. After a
    /// partial merge persists the base file, every *committed* batch is
    /// embodied in it — only the still-staged tail must survive a crash,
    /// so the committed prefix is dropped here. An empty `ops` removes
    /// the file (the steady state of a fully-persisted index).
    ///
    /// # Errors
    /// Propagates I/O errors; the previous log survives intact on failure.
    /// Its committed prefix is then stale: the base beside it already
    /// holds those batches. Strict replay applies them only where that
    /// changes nothing; otherwise it fails, and a restart
    /// ([`Engine::load`](crate::Engine::load)), seeing that the base's
    /// `next_id` has reached the log's last commit mark, serves the base
    /// and finishes this rewrite.
    pub fn rewrite(&self, ops: &[DeltaOp], next_id: u32) -> std::io::Result<()> {
        if ops.is_empty() {
            return self.clear();
        }
        let mut bytes = delta_header(next_id);
        for op in ops {
            encode_entry(&mut bytes, op);
        }
        let write = |mut file: std::fs::File| file.write_all(&bytes).map(|()| file);
        replace_file(&self.path, || Ok(()), write)
    }

    /// Deletes the log (after its ops were committed into the base file).
    ///
    /// # Errors
    /// Propagates I/O errors; a missing file is fine.
    pub fn clear(&self) -> std::io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_core::{Query, RowBuf, SearchOutcome};
    use lshe_corpus::{Domain, DomainMeta};
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`IndexContainer::sketch`] on this thread.
        pub(super) static SKETCH_LOOKUPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Answers `query` at exact size `q` as `(id, estimate)` pairs.
    fn answer(c: &IndexContainer, query: Query<'_>, q: u64) -> Vec<(u32, Option<f64>)> {
        let outcome = c.open_index().search(&query.with_size(q));
        outcome.map(SearchOutcome::into_pairs).expect("valid query")
    }

    /// Threshold hits as `(id, estimate)` pairs.
    fn hits(c: &IndexContainer, sig: &Signature, q: u64, t: f64) -> Vec<(u32, Option<f64>)> {
        answer(c, Query::threshold(sig, t), q)
    }

    fn catalog(n: usize) -> Catalog {
        let mut c = Catalog::new();
        let pool: Vec<u64> = (0..20 * n as u64).collect();
        for k in 0..n {
            c.push(
                Domain::from_hashes(pool[..20 * (k + 1)].to_vec()),
                DomainMeta::new(format!("t{k}"), "col"),
            );
        }
        c
    }

    #[test]
    fn container_roundtrip_ranked() {
        let cat = catalog(10);
        let built = IndexContainer::build(&cat, 2);
        let bytes = built.to_bytes();
        let restored = IndexContainer::from_bytes(&bytes).expect("decode");
        assert_eq!(restored.len(), 10);
        assert_eq!(restored.num_perm(), 256);
        assert_eq!(restored.provenance(3), ("t3", "col", 80));
        let hasher = MinHasher::new(256);
        // Query equivalence, estimates included.
        let q = cat.domain(2).signature(&hasher);
        let a = hits(&built, &q, 60, 0.8);
        assert_eq!(a, hits(&restored, &q, 60, 0.8));
        assert!(a.iter().any(|&(id, est)| id == 2 && est.is_some()));
        let q = cat.domain(1).signature(&hasher);
        let top = answer(&restored, Query::top_k(&q, 3), 40);
        assert_eq!(top.len(), 3);
        assert!(top[0].1.expect("estimate") > 0.9);
    }

    #[test]
    fn from_stream_matches_batch_build() {
        // The streaming constructor must be value-identical to the batch
        // one: same records, same index, byte-identical serialisation.
        let cat = catalog(12);
        let batch = IndexContainer::build(&cat, 3);
        let streamed = IndexContainer::from_stream(
            cat.iter().map(|(id, d)| {
                let meta = cat.meta(id);
                (d.clone(), DomainMeta::new(&meta.table, &meta.column))
            }),
            3,
            true,
        );
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed.to_bytes(), batch.to_bytes());
    }

    #[test]
    fn chunked_sketching_is_value_identical_at_every_chunk_boundary() {
        // Chunks of at most 16 domains or 64 values, so that every kind of
        // cut is a small corpus. Each case lists its domains' sizes.
        const CAP: SketchChunk = SketchChunk {
            domains: 16,
            values: 64,
        };
        // Domains of at most 3 values: only the domain count cuts.
        let small = |k: usize| 1 + k % 3;
        let shorter_than_one_lane = lshe_minhash::lanes::MIN_ITEMS_PER_LANE - 1;
        let by_count = [1, shorter_than_one_lane, 15, 16, 17].map(|n| (0..n).map(small).collect());
        let by_values: [Vec<usize>; 3] = [
            // The second domain ends exactly at the cap.
            vec![32, 32, 5],
            // The second crosses it, and so does the fourth.
            vec![40, 30, 5, 60, 4],
            // One larger than the cap alone, one crossing it from 3 values
            // in, then one exactly the cap alone.
            vec![100, 3, 200, 64, 1],
        ];
        let hasher = MinHasher::new(256);
        for sizes in by_count.iter().chain(&by_values) {
            let values = |k: usize| (1000 * k..).take(sizes[k]).map(|v| 7 * v as u64);
            let mut cat = Catalog::new();
            for k in 0..sizes.len() {
                let meta = DomainMeta::new(format!("t{k}"), "c");
                cat.push(Domain::from_hashes(values(k).collect()), meta);
            }
            let stream = cat.iter().map(|(id, d)| (d.clone(), cat.meta(id).clone()));
            let c = IndexContainer::sketch_and_build(stream, 4, RecordTableBuilder::default(), CAP);
            assert_eq!(c.len(), sizes.len());
            let built = IndexContainer::build(&cat, 4);
            assert_eq!(c.to_bytes(), built.to_bytes(), "{sizes:?}");
            for (k, &size) in sizes.iter().enumerate() {
                // The serial path: one `signature` call per domain.
                let want = hasher.signature(values(k));
                let (got_size, got) = c.sketch(k as u32).expect("sketch retained");
                let want = RowBuf::narrow(got.layout(), want.slots());
                assert_eq!(
                    (got_size, got),
                    (size as u64, want.as_row()),
                    "{k} of {sizes:?}"
                );
            }
        }
    }

    /// Three domains, the middle one empty, in a stream that fails the test
    /// if it is read past that domain.
    fn stream_with_an_empty_domain() -> impl Iterator<Item = (Domain, DomainMeta)> {
        (0..3u64).map(|k| {
            assert!(k <= 1, "the stream was read past the empty domain");
            let values = if k == 1 { vec![] } else { vec![k, k + 10] };
            (
                Domain::from_hashes(values),
                DomainMeta::new(format!("t{k}"), "col"),
            )
        })
    }

    #[test]
    #[should_panic(expected = "domain at stream position 1 (t1.col) has no values")]
    fn from_stream_names_an_empty_domain_as_it_arrives() {
        let _ = IndexContainer::from_stream(stream_with_an_empty_domain(), 2, true);
    }

    #[test]
    #[should_panic(expected = "domain at stream position 1 (t1.col) has no values")]
    fn build_names_an_empty_domain() {
        let mut cat = Catalog::new();
        for (domain, meta) in stream_with_an_empty_domain().take(2) {
            cat.push(domain, meta);
        }
        cat.push(Domain::from_hashes(vec![5]), DomainMeta::new("t2", "col"));
        let _ = IndexContainer::build(&cat, 2);
    }

    #[test]
    #[should_panic(expected = "at least one domain")]
    fn from_stream_rejects_empty_stream() {
        let _ = IndexContainer::from_stream(std::iter::empty(), 2, true);
    }

    #[test]
    fn open_index_shares_the_stored_index() {
        let cat = catalog(10);
        let ranked = IndexContainer::build(&cat, 2);
        let hasher = MinHasher::new(256);
        let sig = cat.domain(2).signature(&hasher);
        let idx = ranked.open_index();
        assert_eq!(idx.len(), 10);
        assert!(idx.memory_bytes() > 0);
        // open_index shares (not clones) the stored index.
        assert_eq!(Arc::strong_count(&ranked.index), 2);
        let out = idx
            .search(&Query::threshold(&sig, 0.8).with_size(60))
            .expect("search");
        assert!(out.ids().contains(&2));
        assert!(out.stats.partitions_probed <= out.stats.partitions_total);
        let top = idx.search(&Query::top_k(&sig, 2).with_size(60));
        assert_eq!(top.expect("top-k").hits.len(), 2);
    }

    #[test]
    fn truncation_rejected() {
        let cat = catalog(5);
        let bytes = IndexContainer::build(&cat, 2).to_bytes();
        for cut in [0usize, 4, 9, bytes.len() / 3, bytes.len() - 1] {
            assert!(IndexContainer::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn hostile_lengths_in_a_container_are_typed_errors() {
        let bytes = IndexContainer::build(&catalog(5), 2).to_bytes();
        // The record counts — records, tables, the two texts — sit after
        // the envelope (5), flags (1) and num_perm (4); the ensemble length
        // follows the record columns.
        let ensemble_len = bytes
            .windows(4)
            .position(|w| w == lshe_core::persist::MAGIC)
            .expect("nested ensemble")
            - 8;
        for at in [10, 18, 26, 34, ensemble_len] {
            for hostile in [u64::MAX, u64::MAX - 29, 1 << 63] {
                let mut bad = bytes.clone();
                bad[at..at + 8].copy_from_slice(&hostile.to_le_bytes());
                assert!(
                    matches!(
                        IndexContainer::from_bytes(&bad),
                        Err(CodecError::Corrupt(_))
                    ),
                    "length {hostile:#x} at byte {at}"
                );
            }
        }
    }

    #[test]
    fn hostile_length_in_a_delta_entry_is_a_typed_error() {
        // A well-formed entry (valid length and checksum) whose payload
        // announces a string of nearly usize::MAX bytes.
        let log = scratch_log("hostile");
        let mut payload = Encoder::default();
        payload.put_u8(4);
        payload.put_u32(4);
        payload.put_u64(10);
        payload.put_u64(u64::MAX - 16);
        let payload = payload.finish();
        let mut bytes = delta_header(0);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        std::fs::write(log.path(), &bytes).expect("write");
        match log.read() {
            Err(DeltaError::Corrupt(msg)) => assert!(msg.contains("exceeds input"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(log.path().parent().expect("dir")).ok();
    }

    #[test]
    fn save_is_atomic_and_load_reads_what_it_wrote() {
        let dir = scratch_dir("save");
        let path = dir.join("idx.lshe");
        let small = IndexContainer::build(&catalog(4), 2);
        let big = IndexContainer::build(&catalog(9), 3);
        small.save(&path).expect("save");
        assert_eq!(std::fs::read(&path).expect("read"), small.to_bytes());
        // Saving over an existing index replaces it whole and leaves no
        // temporary file behind.
        big.save(&path).expect("save over");
        assert_eq!(std::fs::read(&path).expect("read"), big.to_bytes());
        assert_eq!(std::fs::read_dir(&dir).expect("ls").count(), 1);
        let loaded = IndexContainer::load(&path).expect("load");
        assert_eq!(loaded.records(), big.records());
        // A failed save (missing directory) leaves the target untouched.
        assert!(small.save(&dir.join("absent").join("idx.lshe")).is_err());
        assert_eq!(std::fs::read(&path).expect("read"), big.to_bytes());
        // An empty file maps to nothing and fails in the header, typed.
        std::fs::write(&path, b"").expect("truncate");
        match IndexContainer::load(&path).unwrap_err() {
            LoadError::Decode { section, .. } => assert_eq!(section, "header"),
            other => panic!("expected Decode, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn insert_op(id: u32, n_values: usize, num_perm: usize) -> DeltaOp {
        let hasher = MinHasher::new(num_perm);
        let values: Vec<u64> = (9_000..9_000 + n_values as u64).collect();
        DeltaOp::Insert {
            record: DomainRecord {
                id,
                size: n_values as u64,
                table: format!("live{id}"),
                column: "col".to_owned(),
            },
            signature: hasher.signature(values.iter().copied()),
        }
    }

    #[test]
    fn apply_commit_persist_roundtrip() {
        let cat = catalog(10);
        let mut c = IndexContainer::build(&cat, 2);
        assert_eq!(c.next_id(), 10);
        let ops = vec![
            insert_op(10, 25, c.num_perm()),
            DeltaOp::Remove { id: 4 },
            insert_op(11, 33, c.num_perm()),
        ];
        let report = c.commit(&ops).expect("commit");
        assert_eq!((report.merged, report.tombstones), (2, 1));
        assert_eq!(c.len(), 11);
        assert_eq!(c.next_id(), 12);
        assert!(c.record(4).is_none());
        assert_eq!(c.record(10).expect("record").table, "live10");

        // Committed inserts answer queries at once.
        let hasher = MinHasher::new(c.num_perm());
        let sig = hasher.signature((9_000..9_025).map(|v| v as u64));
        let found = hits(&c, &sig, 25, 0.9);
        assert!(found.iter().any(|&(id, _)| id == 10), "{found:?}");

        // Persist, reload: everything survives.
        let restored = IndexContainer::from_bytes(&c.to_bytes()).expect("decode");
        assert_eq!(restored.len(), 11);
        assert!(restored.record(4).is_none());
        assert!(hits(&restored, &sig, 25, 0.9)
            .iter()
            .any(|&(id, _)| id == 10));
        assert_eq!(restored.provenance(11).0, "live11");
    }

    #[test]
    fn apply_rejects_bad_ops_with_typed_errors() {
        use lshe_core::MutationError;
        let cat = catalog(6);
        let mut c = IndexContainer::build(&cat, 2);
        let before = c.to_bytes();
        // A batch of good ops, then a bad last one: the error names it, and
        // the container is as it was, to the byte.
        let good = [DeltaOp::Remove { id: 2 }, insert_op(40, 20, c.num_perm())];
        let cases = [
            (
                insert_op(3, 20, c.num_perm()),
                MutationError::DuplicateId(3),
            ),
            (
                insert_op(40, 9, c.num_perm()),
                MutationError::DuplicateId(40),
            ),
            (DeltaOp::Remove { id: 99 }, MutationError::UnknownId(99)),
            (DeltaOp::Remove { id: 2 }, MutationError::UnknownId(2)),
            (
                insert_op(41, 20, 64),
                MutationError::Invalid(
                    "op 2: signature width mismatch: domain has 64, index expects 256".into(),
                ),
            ),
        ];
        for (bad, want) in cases {
            let batch = [good[0].clone(), good[1].clone(), bad];
            assert_eq!(c.commit(&batch).unwrap_err(), want);
            assert!(c.to_bytes() == before, "a refused batch left a trace");
            assert_eq!((c.len(), c.next_id()), (6, 6));
            assert!(c.record(2).is_some() && c.record(40).is_none());
        }
        // Insert-then-remove in one batch cancels out cleanly.
        let report = c
            .commit(&[insert_op(50, 20, c.num_perm()), DeltaOp::Remove { id: 50 }])
            .expect("insert then remove");
        assert!(!report.sealed);
        assert_eq!(c.len(), 6);
        assert!(c.record(50).is_none());
        let restored = IndexContainer::from_bytes(&c.to_bytes()).expect("decode");
        assert_eq!(restored.len(), 6);
    }

    /// No id follows `u32::MAX`, so the allocator mark past it would
    /// overflow: the batch rule refuses the insert before anything moves.
    #[test]
    fn an_insert_at_the_last_id_is_invalid() {
        let mut c = IndexContainer::build(&catalog(4), 2);
        let before = c.to_bytes();
        let err = c
            .commit(&[insert_op(u32::MAX, 20, c.num_perm())])
            .unwrap_err();
        assert_eq!(
            err,
            lshe_core::MutationError::Invalid("op 0: domain id 4294967295 is out of range".into())
        );
        assert!(c.to_bytes() == before, "a refused batch left a trace");
        assert_eq!((c.len(), c.next_id()), (4, 4));
    }

    /// No id follows `u32::MAX`, so no file holds it: a base row of it is
    /// refused in the ensemble, before the allocator mark past it would
    /// overflow.
    #[test]
    fn a_file_holding_the_last_id_is_refused() {
        let mut c = IndexContainer::build(&catalog(4), 2);
        let top = 0x7FFF_FFF0u32;
        let mut ops: Vec<DeltaOp> = (0..3).map(|id| DeltaOp::Remove { id }).collect();
        ops.push(insert_op(top, 20, c.num_perm()));
        c.commit(&ops).expect("commit");
        c.apply_merge(&MergeTask::Full);
        let bytes = c.to_bytes();
        let at: Vec<usize> = (0..bytes.len() - 3)
            .filter(|&i| bytes[i..i + 4] == top.to_le_bytes())
            .collect();
        assert_eq!(at.len(), 2, "the record's id and the base row's");
        let mut patched = bytes.clone();
        for i in at {
            patched[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        }
        let refused = Some(CodecError::Corrupt("domain id out of range"));
        assert_eq!(IndexContainer::from_bytes(&patched).err(), refused);
        let dir = scratch_dir("lastid");
        let path = dir.join("last.lshe");
        std::fs::write(&path, &patched).expect("write");
        match IndexContainer::load(&path) {
            Err(LoadError::Decode {
                section, source, ..
            }) => assert_eq!((section, Some(source)), ("ensemble", refused)),
            other => panic!("expected a decode error, got {other:?}"),
        }
        assert!(IndexContainer::from_bytes(&bytes).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn container_clone_is_copy_on_write() {
        let cat = catalog(8);
        let original = IndexContainer::build(&cat, 2);
        let mut copy = original.clone();
        copy.commit(&[
            DeltaOp::Remove { id: 0 },
            insert_op(20, 30, copy.num_perm()),
        ])
        .expect("commit");
        assert_eq!(copy.len(), 8);
        assert_eq!(original.len(), 8);
        assert!(original.record(0).is_some(), "original lost a record");
        assert!(original.sketch(20).is_none(), "original gained a sketch");
        let hasher = MinHasher::new(original.num_perm());
        let sig = cat.domain(0).signature(&hasher);
        assert!(hits(&original, &sig, cat.domain(0).len() as u64, 1.0)
            .iter()
            .any(|&(id, _)| id == 0));
    }

    #[test]
    fn records_that_do_not_ascend_are_a_typed_decode_error() {
        // The record ids of `catalog(5)` start at byte 44: envelope (5),
        // flags (1), num_perm (4), four counts (32), a pad of 1 + 1.
        let bytes = IndexContainer::build(&catalog(5), 2).to_bytes();
        let at = |k: usize| 44 + 4 * k..44 + 4 * (k + 1);
        assert_eq!(bytes[at(3)], 3u32.to_le_bytes());
        let mut swapped = bytes.clone();
        swapped[at(1)].copy_from_slice(&bytes[at(2)]);
        swapped[at(2)].copy_from_slice(&bytes[at(1)]);
        let mut doubled = bytes.clone();
        doubled[at(3)].copy_from_slice(&bytes[at(2)]);
        for bad in [swapped, doubled] {
            match IndexContainer::from_bytes(&bad) {
                Err(CodecError::Corrupt(detail)) => assert!(detail.contains("ascending")),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // Ascending, but naming a domain the index does not hold.
        let mut stranger = bytes.clone();
        stranger[at(4)].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            IndexContainer::from_bytes(&stranger).err(),
            Some(CodecError::Corrupt("a record names no live domain"))
        );
        assert!(IndexContainer::from_bytes(&bytes).is_ok());
    }

    #[test]
    #[should_panic(expected = "record names exceed 4 GiB")]
    fn names_past_the_arena_panic_with_what_push_says() {
        // The arenas' limit lowered to 8 bytes: the third "col" passes it.
        let cat = catalog(3);
        let domains = cat.iter().map(|(id, d)| (d, cat.meta(id).clone()));
        let records = RecordTableBuilder::with_text_limit(8);
        let _ = IndexContainer::sketch_and_build(domains, 2, records, SKETCH_CHUNK);
    }

    #[test]
    fn overlay_records_merge_into_the_base_order_and_fold_at_compaction() {
        let built = IndexContainer::build(&catalog(8), 2);
        let mut c = built.clone();
        // Remove a base record, put another under the same id, add two past
        // the end and take one of those back.
        let reinserted = insert_op(3, 21, c.num_perm());
        c.commit(&[
            DeltaOp::Remove { id: 3 },
            DeltaOp::Remove { id: 6 },
            reinserted.clone(),
            insert_op(20, 30, c.num_perm()),
            insert_op(21, 31, c.num_perm()),
            DeltaOp::Remove { id: 21 },
        ])
        .expect("commit");
        let ids = |c: &IndexContainer| c.records().iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(&c), [0, 1, 2, 3, 4, 5, 7, 20]);
        assert_eq!(c.len(), 8);
        let DeltaOp::Insert { record, .. } = &reinserted else {
            unreachable!()
        };
        assert_eq!(c.record(3), Some(record.view()));
        assert_eq!(c.provenance(3).0, "live3");
        assert!(c.record(6).is_none() && c.record(21).is_none());
        // The container it was cloned from still holds what it held.
        assert_eq!(built.provenance(3).0, "t3");
        assert_eq!(ids(&built), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(c.base_shared_with(&built), (vec![true; 2], true));

        // Compaction folds the overlay into a table of its own: the same
        // records, the same bytes as a container decoded from them.
        let before = c.to_bytes();
        let restored = IndexContainer::from_bytes(&before).expect("decode");
        assert_eq!(restored.records(), c.records());
        c.apply_merge(&MergeTask::Full);
        assert!(!c.base_shared_with(&built).1);
        assert_eq!(c.records(), restored.records());
        assert_eq!(c.record(3), Some(record.view()));
        assert!(c.overlay.is_empty());
        let provenance = c.memory_bytes() - c.open_index().memory_bytes();
        assert_eq!(provenance, c.base.heap_bytes());
    }

    /// Walking the records — with their sizes, or their names alone, as a
    /// save and a fold do — looks no id up in the index, over a base with
    /// records in segments and an overlay of inserts and removes; and it
    /// agrees with the lookups by id.
    #[test]
    fn record_walks_look_no_id_up() {
        let mut c = IndexContainer::build(&catalog(12), 3);
        let num_perm = c.num_perm();
        let batch = [DeltaOp::Remove { id: 4 }, insert_op(30, 25, num_perm)];
        c.commit(&batch).expect("commit");
        // Decoded, id 30's record is a base record whose domain lives in a
        // segment.
        let mut c = IndexContainer::from_bytes(&c.to_bytes()).expect("decode");
        let batch = [DeltaOp::Remove { id: 7 }, insert_op(31, 26, num_perm)];
        c.commit(&batch).expect("commit");
        let lookups = || SKETCH_LOOKUPS.with(Cell::get);
        let before = lookups();
        let walked: Vec<DomainRecord> = c.records().iter().map(RecordRef::to_record).collect();
        let live = c.live_records();
        let saved = c.to_bytes();
        assert_eq!(lookups(), before, "a walk looked an id up");
        assert_eq!(live.len(), walked.len());
        let ids: Vec<u32> = walked.iter().map(|r| r.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 5, 6, 8, 9, 10, 11, 30, 31]);
        for record in &walked {
            assert_eq!(c.record(record.id), Some(record.view()));
        }
        assert!(lookups() > before);
        let reloaded = IndexContainer::from_bytes(&saved).expect("decode");
        assert_eq!(reloaded.records(), c.records());
    }

    #[test]
    fn split_shards_are_bit_identical_to_in_process_shards() {
        let cat = catalog(12);
        let c = IndexContainer::build(&cat, 4);
        let n = 3;
        let shards = c.split_with(n, |id, n| id as usize % n).expect("split");
        assert_eq!(shards.len(), n);
        assert_eq!(shards.iter().map(IndexContainer::len).sum::<usize>(), 12);

        // Each split shard's ensemble is byte-for-byte a per-shard build
        // over that shard's `id % n` slice of the same stored rows.
        let entries: Vec<_> = c.index.live_entries().collect();
        let inproc: Vec<LshEnsemble> = (0..n)
            .map(|s| {
                let slice: Vec<_> = entries.iter().filter(|e| e.0 as usize % n == s).collect();
                let ids: Vec<u32> = slice.iter().map(|e| e.0).collect();
                let sizes: Vec<u64> = slice.iter().map(|e| e.1).collect();
                let rows: Vec<Row<'_>> = slice.iter().map(|e| e.2).collect();
                LshEnsemble::build_from_parts(c.shard_config(n), &ids, &sizes, &rows)
            })
            .collect();
        for (s, sc) in shards.iter().enumerate() {
            assert_eq!(sc.num_perm(), c.num_perm());
            assert!(sc.records().iter().all(|r| r.id as usize % n == s));
            assert_eq!(
                sc.index.to_bytes(),
                inproc[s].to_bytes(),
                "shard {s} ensemble drifted from the per-shard build"
            );
            // And it survives a disk round-trip intact.
            let restored = IndexContainer::from_bytes(&sc.to_bytes()).expect("decode");
            assert_eq!(restored.len(), sc.len());
            assert_eq!(restored.index.to_bytes(), sc.index.to_bytes());
        }

        // The union of the split shards' answers equals the union of the
        // per-shard builds' answers, estimates included, both ranked by
        // (estimate descending, id ascending).
        let rank = |mut hits: Vec<(u32, Option<f64>)>| {
            hits.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .expect("estimates are not NaN")
                    .then(a.0.cmp(&b.0))
            });
            hits
        };
        let hasher = MinHasher::new(c.num_perm());
        let q = cat.domain(5).signature(&hasher);
        let qsize = cat.domain(5).len() as u64;
        let query = Query::threshold(&q, 0.5).with_size(qsize);
        let want = rank(
            inproc
                .iter()
                .flat_map(|shard| shard.search(&query).expect("search").into_pairs())
                .collect(),
        );
        let got = rank(
            shards
                .iter()
                .flat_map(|sc| hits(sc, &q, qsize, 0.5))
                .collect(),
        );
        assert_eq!(got, want);
        assert!(got.iter().any(|&(id, _)| id == 5));
    }

    #[test]
    fn split_rejects_bad_inputs() {
        let ranked = IndexContainer::build(&catalog(6), 2);
        assert!(ranked.split_with(1, |id, n| id as usize % n).is_err());
        assert!(ranked.split_with(7, |id, n| id as usize % n).is_err());
        // A placement that starves a shard is refused, not built empty.
        assert!(ranked
            .split_with(2, |_, _| 0)
            .unwrap_err()
            .contains("leaves shard 1 empty"));
        // Out-of-range routing is refused.
        assert!(ranked.split_with(2, |_, n| n).is_err());
    }

    fn scratch_log(name: &str) -> DeltaLog {
        let dir = std::env::temp_dir().join(format!("lshe_delta_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        DeltaLog::sidecar(&dir.join("idx.lshe"))
    }

    #[test]
    fn delta_log_roundtrips_in_order() {
        let log = scratch_log("roundtrip");
        assert!(!log.exists());
        assert_eq!(
            log.read_with_mark().expect("missing file is empty"),
            (0, Vec::new())
        );
        let ops = vec![
            insert_op(7, 12, 256),
            DeltaOp::Remove { id: 3 },
            DeltaOp::Commit { next_id: 9 },
            insert_op(9, 40, 256),
        ];
        for op in &ops {
            log.append(op, 7).expect("append");
        }
        // The header pins the mark at creation; later appends keep it.
        assert_eq!(log.read_with_mark().expect("read"), (7, ops));
        log.clear().expect("clear");
        assert!(!log.exists());
        assert_eq!(log.read().expect("cleared is empty"), Vec::new());
        std::fs::remove_dir_all(log.path().parent().expect("dir")).ok();
    }

    #[test]
    fn older_delta_logs_and_their_insert_tag_are_refused() {
        let log = scratch_log("older");
        // Version 1 (5-byte header) and version 2 (allocator mark added).
        for (version, mark) in [(1, None), (2, Some(7u32))] {
            let mut header = Encoder::with_capacity(9);
            header.envelope(DELTA_MAGIC, version);
            mark.into_iter().for_each(|m| header.put_u32(m));
            let mut bytes = header.finish();
            encode_entry(&mut bytes, &DeltaOp::Remove { id: 2 });
            std::fs::write(log.path(), &bytes).expect("write");
            let err = log.read_with_mark().unwrap_err();
            assert!(
                matches!(&err, DeltaError::Corrupt(msg) if msg.contains("unsupported delta version")),
                "v{version}: {err}"
            );
        }
        // Tag 1, those logs' insert with 64-bit slots, under a current header.
        let DeltaOp::Insert { record, .. } = insert_op(4, 10, 8) else {
            unreachable!()
        };
        let payload = Encoder::exactly(|enc| {
            enc.put_u8(1);
            record.encode_into(enc);
            enc.put_u64(8);
            (1..=8u64).for_each(|v| enc.put_u64(v << 40));
        });
        let mut bytes = delta_header(7);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        std::fs::write(log.path(), &bytes).expect("write");
        let err = log.read_with_mark().unwrap_err();
        assert!(
            matches!(&err, DeltaError::Corrupt(msg) if msg.contains("unknown delta op tag")),
            "{err}"
        );
        std::fs::remove_dir_all(log.path().parent().expect("dir")).ok();
    }

    #[test]
    fn torn_delta_log_is_a_typed_error_at_every_cut() {
        let log = scratch_log("torn");
        log.append(&insert_op(1, 10, 256), 2).expect("append");
        log.append(&DeltaOp::Remove { id: 1 }, 2).expect("append");
        let bytes = std::fs::read(log.path()).expect("read");
        // Cut anywhere strictly inside the second entry: one complete
        // entry must be reported, never a panic. The header is 9 bytes
        // (magic + version + allocator mark).
        let first_entry_end = {
            let payload_len = u32::from_le_bytes(bytes[9..13].try_into().expect("len")) as usize;
            9 + 4 + payload_len + 8
        };
        for cut in [first_entry_end + 1, first_entry_end + 4, bytes.len() - 1] {
            std::fs::write(log.path(), &bytes[..cut]).expect("truncate");
            match log.read() {
                Err(DeltaError::Torn { entries }) => assert_eq!(entries, 1, "cut {cut}"),
                other => panic!("cut {cut}: expected Torn, got {other:?}"),
            }
        }
        // A flipped payload byte is a checksum error, not a panic.
        let mut flipped = bytes.clone();
        flipped[14] ^= 0xFF;
        std::fs::write(log.path(), &flipped).expect("write");
        assert!(matches!(log.read(), Err(DeltaError::Corrupt(_))));
        // Garbage header.
        std::fs::write(log.path(), b"garbage").expect("write");
        assert!(matches!(log.read(), Err(DeltaError::Corrupt(_))));
        std::fs::remove_dir_all(log.path().parent().expect("dir")).ok();
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lshe_pack_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn pack_v2_roundtrips_through_mmap() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("idx.lshepk");
        let cat = catalog(12);
        let ranked = IndexContainer::build(&cat, 3);
        ranked.pack_v2(&path).expect("pack");
        let mapped = lshe_core::MmapIndex::open_verified(&path).expect("open packed");
        assert_eq!(mapped.len(), ranked.len());
        assert_eq!(mapped.partition_stats(), ranked.index.partition_stats());

        // Every query answers identically to the container it was packed from.
        let hasher = MinHasher::new(256);
        for probe in 0..cat.len() as u32 {
            let sig = cat.domain(probe).signature(&hasher);
            let q = 20 * (u64::from(probe) + 1);
            for query in [Query::threshold(&sig, 0.7), Query::top_k(&sig, 3)] {
                let query = query.with_size(q);
                let answer = |index: &dyn DomainIndex| index.search(&query).expect("search");
                assert_eq!(
                    answer(&mapped).into_pairs(),
                    answer(&*ranked.open_index()).into_pairs(),
                    "probe {probe}"
                );
            }
        }
        // A container served from its `.lshe` packs the same file as the
        // one it was built as.
        let heap = dir.join("idx.lshe");
        ranked.save(&heap).expect("save");
        let repacked = dir.join("loaded.lshepk");
        let loaded = IndexContainer::load(&heap).expect("load");
        assert!(loaded.mapped_bytes() > 0);
        loaded.pack_v2(&repacked).expect("pack loaded");
        assert_eq!(std::fs::read(&repacked).ok(), std::fs::read(&path).ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_errors_name_path_and_section() {
        let dir = scratch_dir("loaderr");

        // Missing file: an I/O error carrying the path.
        let missing = dir.join("absent.lshe");
        let err = IndexContainer::load(&missing).unwrap_err();
        assert!(matches!(err, LoadError::Io { .. }));
        assert_eq!(err.path(), missing.as_path());
        assert!(err.to_string().contains("absent.lshe"));

        // Truncated container: the failing section is named.
        let cat = catalog(5);
        let bytes = IndexContainer::build(&cat, 2).to_bytes();
        let cut = dir.join("cut.lshe");
        std::fs::write(&cut, &bytes[..bytes.len() - 1]).expect("write");
        let err = IndexContainer::load(&cut).unwrap_err();
        match &err {
            // The last bytes of a container are the allocator-mark
            // trailer, so a one-byte truncation fails there.
            LoadError::Decode { section, .. } => assert_eq!(*section, "allocator mark"),
            other => panic!("expected Decode, got {other:?}"),
        }
        assert!(err.to_string().contains("cut.lshe"), "got {err}");
        assert!(
            err.to_string().contains("allocator mark section"),
            "got {err}"
        );

        // Garbage fails in the header.
        let junk = dir.join("junk.lshe");
        std::fs::write(&junk, b"not an index at all").expect("write");
        match IndexContainer::load(&junk).unwrap_err() {
            LoadError::Decode { section, .. } => assert_eq!(section, "header"),
            other => panic!("expected Decode, got {other:?}"),
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
