//! The LSH Ensemble index (§5): size-partitioned, per-query-tuned dynamic
//! MinHash LSH for Jaccard-containment search.
//!
//! Construction is two-stage, exactly as the paper describes: domains are
//! partitioned by cardinality (§5.4), then each partition gets its own
//! dynamic LSH (LSH Forest, §5.5). A query is answered by every partition in
//! parallel with its own `(b, r)` configuration — chosen by minimising the
//! FP+FN mass for the partition's upper bound — and the per-partition
//! candidate sets are unioned (`Partitioned-Containment-Search`, §5.1).

use crate::api::{CommitReport, Mutation, MutationError};
use crate::batch::ThresholdItem;
use crate::maintenance::{MergeTask, SegmentLayout};
use crate::partition::{Partition, PartitionStrategy};
use crate::pipeline::{Probe, Tiers};
use crate::tuning::Tuner;
use lshe_lsh::{DomainId, LshForest, Row, RowBytes, RowLanes};
use lshe_minhash::codec::Column;
use lshe_minhash::hash::{FastBuildHasher, FastHashMap};
use lshe_minhash::Signature;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Configuration of an [`LshEnsemble`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnsembleConfig {
    /// Signature width `m` (Table 3 default: 256).
    pub num_perm: usize,
    /// Prefix trees per partition forest (`b_max`). Default 32.
    pub b_max: usize,
    /// Prefix depth per tree (`r_max`). Default 8. `b_max · r_max` must not
    /// exceed `num_perm`.
    pub r_max: usize,
    /// Partitioning strategy. Default: 32-way equi-depth (Theorem 2).
    pub strategy: PartitionStrategy,
}

impl Default for EnsembleConfig {
    fn default() -> Self {
        Self {
            num_perm: 256,
            b_max: 32,
            r_max: 8,
            strategy: PartitionStrategy::EquiDepth { n: 32 },
        }
    }
}

impl EnsembleConfig {
    fn validate(&self) {
        assert!(self.num_perm > 0, "need at least one hash function");
        assert!(
            self.b_max > 0 && self.r_max > 0,
            "forest dims must be positive"
        );
        assert!(
            self.b_max * self.r_max <= self.num_perm,
            "b_max·r_max = {} exceeds num_perm = {}",
            self.b_max * self.r_max,
            self.num_perm
        );
    }
}

/// Staged input for ensemble construction.
#[derive(Debug, Clone)]
pub struct LshEnsembleBuilder {
    pub(crate) config: EnsembleConfig,
    pub(crate) ids: Vec<DomainId>,
    pub(crate) sizes: Vec<u64>,
    pub(crate) signatures: Vec<Signature>,
}

impl LshEnsembleBuilder {
    /// Creates a builder with the given configuration.
    ///
    /// # Panics
    /// Panics on inconsistent configuration (zero dims, `b_max·r_max >
    /// num_perm`).
    #[must_use]
    pub fn new(config: EnsembleConfig) -> Self {
        config.validate();
        Self {
            config,
            ids: Vec::new(),
            sizes: Vec::new(),
            signatures: Vec::new(),
        }
    }

    /// Stages one domain: its id, exact cardinality, and MinHash signature.
    ///
    /// # Panics
    /// Panics if `size == 0` or the signature width differs from
    /// `num_perm`.
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        assert!(size > 0, "domain size must be positive");
        assert_eq!(
            signature.len(),
            self.config.num_perm,
            "signature width mismatch"
        );
        self.ids.push(id);
        self.sizes.push(size);
        self.signatures.push(signature);
    }

    /// Number of staged domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Partitions the staged domains and builds one committed LSH Forest per
    /// partition, in parallel (at most one lane per core).
    ///
    /// # Panics
    /// Panics if the builder is empty or an id was staged twice.
    #[must_use]
    pub fn build(self) -> LshEnsemble {
        LshEnsemble::build_from_parts(self.config, &self.ids, &self.sizes, &self.signatures)
    }
}

/// One size class and its dynamic LSH. The forest's row table is the one
/// resident copy of each member's signature.
#[derive(Debug, Clone)]
pub(crate) struct EnsemblePartition {
    pub(crate) lower: u64,
    pub(crate) upper: u64,
    pub(crate) forest: LshForest,
    /// The cardinality of each forest row: a vector, or a view into the
    /// file a base partition was decoded from, like the forest's columns.
    pub(crate) sizes: Column<u64>,
}

impl EnsemblePartition {
    /// Row `i` as an entry triple.
    fn entry(&self, i: usize) -> Entry<'_> {
        (self.forest.ids()[i], self.sizes[i], self.forest.row(i))
    }

    /// The forest's bytes and the sizes', heap or mapped.
    fn memory_bytes(&self) -> usize {
        self.forest.memory_bytes() + self.sizes.heap_bytes() + self.sizes.mapped_bytes()
    }

    /// The part of [`memory_bytes`](Self::memory_bytes) viewed in a file.
    fn mapped_bytes(&self) -> usize {
        self.forest.mapped_bytes() + self.sizes.mapped_bytes()
    }

    fn stats(&self) -> PartitionStats {
        PartitionStats {
            lower: self.lower,
            upper: self.upper,
            count: self.forest.len(),
        }
    }
}

/// One domain as the index holds it: id, cardinality, the stored row.
pub(crate) type Entry<'a> = (DomainId, u64, Row<'a>);

impl Probe for &EnsemblePartition {
    fn upper(&self) -> u64 {
        self.upper
    }

    fn probe(
        &self,
        signature: &Signature,
        b: usize,
        r: usize,
        found: &mut impl FnMut(DomainId, usize),
    ) {
        self.forest.probe_into(signature, b, r, found);
    }

    fn sketch(&self, row: u32) -> (u64, Row<'_>) {
        let row = row as usize;
        (self.sizes[row], self.forest.row(row))
    }
}

/// Where a row is: its base partition, or its sealed segment and the
/// partition in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Base partition `idx`.
    Base(u32),
    /// Sealed segment `idx`, partition `part` within it.
    Seg(u32, u32),
}

/// The one record of what changed since a base was built, loaded or
/// folded, by id: where a segment id lives, or `None` for an id whose base
/// row is removed. An id it does not name is where its base row is.
pub(crate) type Overlay = FastHashMap<DomainId, Option<(Slot, u32)>>;

/// The overlay of an index that never changes: it names no id.
pub(crate) static UNCHANGED: Overlay = Overlay::with_hasher(FastBuildHasher);

/// Whether row `row` of the partition at `slot`, which holds `id`, is
/// live: a base row is, unless the overlay names its id; any other row is,
/// if it is the row the overlay names.
#[inline]
pub(crate) fn is_live(overlay: &Overlay, slot: Slot, id: DomainId, row: u32) -> bool {
    match slot {
        Slot::Base(_) => !overlay.contains_key(&id),
        Slot::Seg(..) => overlay.get(&id) == Some(&Some((slot, row))),
    }
}

/// A dead row as a file names it: its id, and `None` for its base row or
/// `Some(j)` for its entry in sealed segment `j`.
pub(crate) type Tombstone = (DomainId, Option<u32>);

/// The position of `id` in `ids`, which strictly ascend, or `None`.
///
/// Strictly ascending ids satisfy `ids[i] ≥ ids[0] + i`, so `id` lies no
/// further in than `id − ids[0]`: the search looks there first — on a dense
/// run of ids, the one probe it needs — then gallops back towards the
/// start in doubling steps and binary-searches the last step. Holes cost
/// O(log holes), not O(log len).
#[must_use]
pub fn position_of(ids: &[DomainId], id: DomainId) -> Option<usize> {
    let first = *ids.first()?;
    let mut hi = usize::try_from(id.checked_sub(first)?)
        .ok()?
        .min(ids.len() - 1);
    if ids[hi] <= id {
        // Past the end of a run shorter than `id − ids[0]`, or found.
        return (ids[hi] == id).then_some(hi);
    }
    let mut step = 1;
    loop {
        // `ids[0] ≤ id`, so this stops at the start at the latest.
        let lo = hi.saturating_sub(step);
        if ids[lo] <= id {
            return ids[lo..hi].binary_search(&id).ok().map(|i| lo + i);
        }
        (hi, step) = (lo, step * 2);
    }
}

/// The (partition, row) of `id`'s base row — live or tombstoned — if it
/// has one: a search of each partition's ids, which ascend.
pub(crate) fn base_row(partitions: &[Arc<EnsemblePartition>], id: DomainId) -> Option<(u32, u32)> {
    #[cfg(test)]
    tests::BASE_ROW_LOOKUPS.with(|n| n.set(n.get() + 1));
    let mut rows = (0u32..).zip(partitions);
    rows.find_map(|(p, part)| Some((p, position_of(part.forest.ids(), id)? as u32)))
}

/// Every row of `partitions`, whose ids each ascend, as `(id, partition,
/// row)` in ascending id order: a merge holding a cursor a partition. An id
/// in two partitions comes out twice in a row.
fn rows_by_id(
    partitions: &[Arc<EnsemblePartition>],
) -> impl Iterator<Item = (DomainId, u32, u32)> + '_ {
    let at = |p: u32, row: u32| {
        let id = *partitions[p as usize].forest.ids().get(row as usize)?;
        Some(Reverse((id, p, row)))
    };
    let mut heads: BinaryHeap<_> = (0..partitions.len() as u32)
        .filter_map(|p| at(p, 0))
        .collect();
    std::iter::from_fn(move || {
        let mut head = heads.peek_mut()?;
        let Reverse(row) = *head;
        match at(row.1, row.2 + 1) {
            Some(next) => *head = next,
            None => drop(std::collections::binary_heap::PeekMut::pop(head)),
        }
        Some(row)
    })
}

/// Each base partition's ids strictly ascend: what an id's base row is
/// searched by.
///
/// # Errors
/// When a partition's do not.
pub(crate) fn check_ascending(partitions: &[Arc<EnsemblePartition>]) -> Result<(), &'static str> {
    let mut ids = partitions.iter().map(|p| p.forest.ids());
    if ids.all(|ids| ids.is_sorted_by(|a, b| a < b)) {
        Ok(())
    } else {
        Err("base partition ids do not ascend")
    }
}

/// What a merge of ascending partitions yields when an id is in two.
const REPEATED: &str = "an id is in two base partitions";

/// `rows` — [`rows_by_id`]'s — setting `twice` when an id comes out of
/// two partitions, so one walk both checks the base and serves the rows.
fn flag_repeats<'a>(
    rows: impl Iterator<Item = (DomainId, u32, u32)> + 'a,
    twice: &'a mut bool,
) -> impl Iterator<Item = (DomainId, u32, u32)> + 'a {
    let mut last = None;
    rows.inspect(move |&(id, _, _)| *twice |= last.replace(id) == Some(id))
}

/// What every base keeps, which an id's base row is found by: each
/// partition's ids strictly ascend, and no id is in two partitions.
///
/// # Errors
/// Which of the two does not hold.
pub(crate) fn check_base_ids(partitions: &[Arc<EnsemblePartition>]) -> Result<(), &'static str> {
    check_ascending(partitions)?;
    let mut twice = false;
    flag_repeats(rows_by_id(partitions), &mut twice).for_each(drop);
    if twice {
        Err(REPEATED)
    } else {
        Ok(())
    }
}

/// The one rule a batch of mutations keeps, checked one op at a time
/// against the index the batch commits to: [`LshEnsemble::commit`]
/// validates a batch with it, and a staging area checks each new op with
/// it before logging it. An op is checked against the index with every op
/// recorded before it applied: an insert must name an id no live domain
/// holds, other than `DomainId::MAX` (no id follows it), with a positive
/// size and a signature as wide as the index's; a remove must name a live
/// id. So a remove cancels an insert earlier in the batch, and an insert
/// may re-use an id a remove earlier in it freed.
#[derive(Debug, Clone, Default)]
pub struct BatchRule {
    /// What the recorded ops did to each id they name: inserted it, as
    /// the batch's `k`-th insert, or took it out.
    touched: FastHashMap<DomainId, Option<usize>>,
    /// Inserts recorded, cancelled ones included.
    inserts: usize,
    /// Recorded inserts a later remove cancelled.
    cancelled: usize,
    /// Live ids the recorded ops remove.
    removes: usize,
}

/// What one op [`BatchRule::check`] accepted does to the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStep {
    /// Inserts the id.
    Insert(DomainId),
    /// Removes the id, cancelling the batch's `k`-th insert.
    Cancel(DomainId, usize),
    /// Removes the id from the index.
    Remove(DomainId),
}

impl BatchRule {
    /// What `op` does if it follows the recorded ops over `index`. Changes
    /// nothing: [`record`](Self::record) the step to stage the op.
    ///
    /// # Errors
    /// [`MutationError::DuplicateId`] for an insert of a live id,
    /// [`MutationError::UnknownId`] for a remove of an id that is not live,
    /// [`MutationError::Invalid`] for an insert of `DomainId::MAX`, a zero
    /// size or a signature width mismatch, naming the op by its position.
    pub fn check(
        &self,
        index: &LshEnsemble,
        op: &Mutation<'_>,
    ) -> Result<BatchStep, MutationError> {
        let at = self.inserts + self.cancelled + self.removes;
        let invalid = |why: String| MutationError::Invalid(format!("op {at}: {why}"));
        match *op {
            Mutation::Insert(id, size, signature) => {
                if id == DomainId::MAX {
                    return Err(invalid(format!("domain id {id} is out of range")));
                }
                if size == 0 {
                    return Err(invalid("domain size must be positive".into()));
                }
                let num_perm = index.config.num_perm;
                if signature.len() != num_perm {
                    return Err(invalid(format!(
                        "signature width mismatch: domain has {}, index expects {num_perm}",
                        signature.len()
                    )));
                }
                let touched = self.touched.get(&id);
                if touched.map_or_else(|| index.contains(id), Option::is_some) {
                    return Err(MutationError::DuplicateId(id));
                }
                Ok(BatchStep::Insert(id))
            }
            Mutation::Remove(id) => match self.touched.get(&id) {
                Some(&Some(k)) => Ok(BatchStep::Cancel(id, k)),
                None if index.contains(id) => Ok(BatchStep::Remove(id)),
                _ => Err(MutationError::UnknownId(id)),
            },
        }
    }

    /// Records a step [`check`](Self::check) accepted.
    pub fn record(&mut self, step: BatchStep) {
        match step {
            BatchStep::Insert(id) => {
                self.touched.insert(id, Some(self.inserts));
                self.inserts += 1;
            }
            BatchStep::Cancel(id, _) => {
                self.touched.insert(id, None);
                self.cancelled += 1;
            }
            BatchStep::Remove(id) => {
                self.touched.insert(id, None);
                self.removes += 1;
            }
        }
    }

    /// Recorded inserts no later remove cancelled.
    #[must_use]
    pub fn inserts(&self) -> usize {
        self.inserts - self.cancelled
    }

    /// Live ids the recorded ops remove.
    #[must_use]
    pub fn removes(&self) -> usize {
        self.removes
    }
}

/// An immutable sub-index sealed from one committed batch: its inserted
/// domains, equi-depth-partitioned (by the configured strategy) over just
/// themselves, each partition carrying its own committed forest and its
/// rows' sizes. `order` keeps the sealing order of the entries — it is the
/// canonical byte form (persistence writes the entry triples in it, and the
/// decoder replays [`build_segment`] over them) and the order compaction
/// re-routes them in.
#[derive(Debug, Clone)]
pub(crate) struct SealedSegment {
    pub(crate) partitions: Vec<EnsemblePartition>,
    /// Each sealed entry's (partition, row), in sealing order.
    order: Vec<(u32, u32)>,
}

impl SealedSegment {
    /// Number of sealed entries (tombstoned ones included).
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// The sealed entries with where each lives, in sealing order.
    pub(crate) fn located(&self) -> impl Iterator<Item = ((u32, u32), Entry<'_>)> {
        self.order.iter().map(|&(part, row)| {
            (
                (part, row),
                self.partitions[part as usize].entry(row as usize),
            )
        })
    }

    fn memory_bytes(&self) -> usize {
        let parts = self.partitions.iter().map(EnsemblePartition::memory_bytes);
        parts.sum::<usize>() + self.order.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// Every partition of a segment stack, oldest segment first, each with
/// where it is.
pub(crate) fn segment_units(
    segments: &[Arc<SealedSegment>],
) -> impl Iterator<Item = (Slot, &EnsemblePartition)> {
    (0..).zip(segments).flat_map(|(j, seg)| {
        let parts = (0..).zip(&seg.partitions);
        parts.map(move |(k, p)| (Slot::Seg(j, k), p))
    })
}

/// One partition with its committed forest over `entry(member)` per
/// member, in member order.
fn build_partition<'a, L: RowLanes + ?Sized + 'a>(
    config: &EnsembleConfig,
    part: &Partition,
    entry: impl Fn(usize) -> (DomainId, u64, &'a L),
) -> EnsemblePartition {
    let members = part.members.iter().map(|&m| entry(m as usize));
    let (rows, sizes): (Vec<_>, Vec<_>) =
        members.map(|(id, size, lanes)| ((id, lanes), size)).unzip();
    EnsemblePartition {
        lower: part.lower,
        upper: part.upper,
        forest: LshForest::from_rows(config.b_max, config.r_max, config.num_perm, &rows),
        sizes: sizes.into(),
    }
}

/// Builds one sealed segment from `(id, size, lanes)` entries — a
/// committed batch's signatures, or the stored rows of entries sealed
/// before: partition the entry sizes with the configured strategy, then
/// build each partition's forest. Deterministic — the persistence decoder
/// replays it to reconstruct a segment from its stored entries.
pub(crate) fn build_segment<L: RowLanes>(
    config: &EnsembleConfig,
    entries: &[(DomainId, u64, L)],
) -> SealedSegment {
    let entry = |m: usize| {
        let (id, size, lanes) = &entries[m];
        (*id, *size, lanes)
    };
    debug_assert!(!entries.is_empty(), "cannot seal an empty batch");
    let sizes: Vec<u64> = entries.iter().map(|e| e.1).collect();
    let partitioning = config.strategy.partition(&sizes);
    let mut order = vec![(0, 0); entries.len()];
    for (k, part) in partitioning.parts().iter().enumerate() {
        for (row, &member) in part.members.iter().enumerate() {
            order[member as usize] = (k as u32, row as u32);
        }
    }
    let partitions = partitioning
        .parts()
        .iter()
        .map(|p| build_partition(config, p, entry))
        .collect();
    SealedSegment { partitions, order }
}

/// Summary of one partition, for diagnostics and the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionStats {
    /// Smallest member size.
    pub lower: u64,
    /// Largest member size (conversion upper bound `u`).
    pub upper: u64,
    /// Number of indexed domains.
    pub count: usize,
}

/// The LSH Ensemble index: threshold and top-k search, ranked by
/// estimated containment ([`crate::ranked`]), and the workspace's one
/// mutable index (§6.2 dynamic data).
///
/// Each domain's signature is resident once, as a row of the forest of the
/// partition it lives in, its size beside it; a ranked search reads a
/// candidate's lanes and size in the row its probe found. The work that
/// starts from an id — a batch's checks, a remove, [`sketch`](Self::sketch)
/// — finds its row in the id overlay, or else by a search of each base
/// partition's ids, which ascend in every base.
///
/// It mutates LSM-style, and only at [`commit`](Self::commit): a commit
/// seals a batch's inserts into an immutable segment in O(batch) and points
/// the id overlay at their rows, and a remove takes its id out of the
/// overlay. The overlay is the one record of liveness: a base row is live
/// unless it names the row's id, any other row only if it is the row it
/// names, and every candidate union is filtered by that. A row no id lives
/// in — a removed domain's, or the old row of a re-inserted one — is dead;
/// it is a tombstone in the file and in
/// [`segment_layout`](Self::segment_layout) until a fold drops it:
/// [`apply_merge`](Self::apply_merge) folds segments together, and
/// [`compact`](Self::compact) builds a new base from the live rows. Nothing
/// is staged in the index; batching ops up is its caller's business (the
/// server's engine).
///
/// The base partitions, the sealed segments and the tuner are immutable
/// and shared: a clone copies pointers to them plus the id overlay, so a
/// commit or a segment merge on the clone copies nothing of the base. A
/// base partition decoded over a mapped index file ([`decode`](Self::decode))
/// is views into that file until a compaction replaces it.
#[derive(Debug, Clone)]
pub struct LshEnsemble {
    config: EnsembleConfig,
    partitions: Vec<Arc<EnsemblePartition>>,
    /// Sealed batches, oldest first; queries sweep them after the base.
    segments: Vec<Arc<SealedSegment>>,
    /// The `(b, r)` memo: keyed by size ratio and threshold alone, so every
    /// clone keeps filling and reading the same one.
    tuner: Arc<Tuner>,
    len: usize,
    /// Rows of the base, dead ones included: its partitions', or the
    /// mapped file's for the heap tail of a [`crate::MmapIndex`].
    base_rows: usize,
    overlay: Overlay,
}

impl LshEnsemble {
    /// A builder with the default configuration (m = 256, 32 × 8 forest,
    /// 32-way equi-depth).
    #[must_use]
    pub fn builder() -> LshEnsembleBuilder {
        LshEnsembleBuilder::new(EnsembleConfig::default())
    }

    /// A builder with an explicit configuration.
    #[must_use]
    pub fn builder_with(config: EnsembleConfig) -> LshEnsembleBuilder {
        LshEnsembleBuilder::new(config)
    }

    /// Construction from parallel arrays of ids, sizes, and *borrowed*
    /// signatures — `&Signature`s (the bulk-load path the experiment
    /// harness uses at corpus scale: they stay owned by the caller,
    /// typically one shared `Vec<Signature>`), bare `&[u32]` lanes, or the
    /// stored [`Row`]s rebuilds and shard splits read straight out of
    /// another index of the same forest dimensions. Each is copied once,
    /// into its forest's row table: 32-bit lanes are narrowed there, stored
    /// rows go in as they are.
    ///
    /// The domains are partitioned in id order and each partition's rows
    /// ascend by id — what an id's base row is found by — so the order the
    /// arrays list them in changes nothing.
    ///
    /// # Panics
    /// Panics if the arrays are empty or their lengths differ, on invalid
    /// configuration, on zero sizes / width mismatches, or on a repeated id.
    #[must_use]
    pub fn build_from_parts<S: RowLanes + Sync>(
        config: EnsembleConfig,
        ids: &[DomainId],
        sizes: &[u64],
        signatures: &[S],
    ) -> Self {
        config.validate();
        assert!(!ids.is_empty(), "cannot build an empty ensemble");
        assert!(
            ids.len() == sizes.len() && ids.len() == signatures.len(),
            "parallel arrays must have equal lengths"
        );
        for (size, sig) in sizes.iter().zip(signatures) {
            assert!(*size > 0, "domain size must be positive");
            assert_eq!(sig.lanes(), config.num_perm, "signature width mismatch");
        }
        // The identity where the ids already ascend, as every build from
        // a stream, a split or a compaction gives them.
        let mut order: Vec<usize> = (0..ids.len()).collect();
        order.sort_unstable_by_key(|&i| ids[i]);
        let repeated = order.windows(2).any(|w| ids[w[0]] == ids[w[1]]);
        assert!(!repeated, "duplicate domain id");
        let sizes_by_id: Vec<u64> = order.iter().map(|&i| sizes[i]).collect();
        let partitioning = config.strategy.partition(&sizes_by_id);
        // One lane per core at most, each taking the next partition when it
        // is free: a thread per partition only adds stacks and scheduling.
        let shells = lshe_minhash::lanes::run_each(partitioning.parts(), |p| {
            Arc::new(build_partition(&config, p, |m| {
                let i = order[m];
                (ids[i], sizes[i], &signatures[i])
            }))
        });
        let tuner = Arc::new(Tuner::new(config.b_max as u32, config.r_max as u32));
        Self::over_base(config, tuner, shells)
    }

    /// An index whose every row is a live row of `partitions`, whose ids
    /// ascend in each and repeat in none: no segment, no dead row.
    fn over_base(
        config: EnsembleConfig,
        tuner: Arc<Tuner>,
        partitions: Vec<Arc<EnsemblePartition>>,
    ) -> Self {
        debug_assert_eq!(check_base_ids(&partitions), Ok(()));
        let rows = partitions.iter().map(|p| p.forest.len()).sum();
        Self {
            tuner,
            len: rows,
            base_rows: rows,
            partitions,
            segments: Vec::new(),
            config,
            overlay: Overlay::default(),
        }
    }

    /// The configuration the ensemble was built with.
    #[must_use]
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// Number of indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the ensemble indexes nothing (cannot occur via `build`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where the live domain `id` is: the overlay's word if it has one,
    /// else its base row.
    #[inline]
    fn locate(&self, id: DomainId) -> Option<(Slot, u32)> {
        // An empty overlay — a base nobody has changed — is not hashed.
        if !self.overlay.is_empty() {
            if let Some(&at) = self.overlay.get(&id) {
                return at;
            }
        }
        let (p, row) = base_row(&self.partitions, id)?;
        Some((Slot::Base(p), row))
    }

    /// Takes `id` out of the id map: an id with a base row is named
    /// removed until a compaction erases the row, any other is forgotten.
    fn unmap(&mut self, id: DomainId) {
        if base_row(&self.partitions, id).is_some() {
            self.overlay.insert(id, None);
        } else {
            self.overlay.remove(&id);
        }
    }

    /// Smallest id that is safely allocatable from this ensemble's view:
    /// one past the largest id any row holds, dead rows included (they
    /// persist until a fold drops them). Callers that track an allocator
    /// high-water mark across compactions should prefer their own persisted
    /// mark — compaction drops dead rows, so this floor can shrink
    /// afterwards.
    #[must_use]
    pub fn min_next_id(&self) -> u32 {
        self.last_id().map_or(0, |id| id + 1)
    }

    /// The largest id any row holds.
    pub(crate) fn last_id(&self) -> Option<DomainId> {
        // Each base partition's largest id is its last.
        let base = self.partitions.iter().filter_map(|p| p.forest.ids().last());
        let segments = self.segments.iter().flat_map(|s| &s.partitions);
        let sealed = segments.flat_map(|p| p.forest.ids());
        base.chain(sealed).max().copied()
    }

    /// Rows no id lives in: every row less the live ones, since a live id
    /// is one row. O(segments).
    fn dead_rows(&self) -> usize {
        let sealed: usize = self.segments.iter().map(|s| s.len()).sum();
        self.base_rows + sealed - self.len
    }

    /// The dead rows as tombstones, in the one order a state is saved in:
    /// the base rows of the ids the overlay names, by ascending id, then
    /// each segment's rows the overlay does not point at, oldest segment
    /// first, in sealing order.
    pub(crate) fn tombstones(&self) -> Vec<Tombstone> {
        let overlay = &self.overlay;
        let in_base = |id: &DomainId| base_row(&self.partitions, *id).is_some();
        let mut dead: Vec<Tombstone> = overlay
            .keys()
            .filter(|id| in_base(id))
            .map(|&id| (id, None))
            .collect();
        dead.sort_unstable();
        for (j, seg) in (0..).zip(&self.segments) {
            let rows = seg.located();
            let gone = rows.filter(|&((part, row), (id, _, _))| {
                !is_live(overlay, Slot::Seg(j, part), id, row)
            });
            dead.extend(gone.map(|(_, (id, _, _))| (id, Some(j))));
        }
        dead
    }

    /// Number of base partitions (sealed segments carry their own).
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// One flag per base partition: whether this index and `other` hold it
    /// as the very same allocation (a clone does, until a compaction builds
    /// a new base).
    #[must_use]
    pub fn base_shared_with(&self, other: &Self) -> Vec<bool> {
        let pairs = self.partitions.iter().zip(&other.partitions);
        pairs.map(|(a, b)| Arc::ptr_eq(a, b)).collect()
    }

    /// One flag per base partition: whether every bulk column of its forest
    /// — ids, rows, each tree — and its sizes are views lying inside `bytes`
    /// (the mapped file the index was decoded over), copied nowhere. A
    /// partition that was built is not.
    #[must_use]
    pub fn base_borrowed_from(&self, bytes: &[u8]) -> Vec<bool> {
        let parts = self.partitions.iter();
        parts
            .map(|p| p.forest.borrows_from(bytes) && p.sizes.is_view_into(bytes))
            .collect()
    }

    /// Per-partition summaries: base partitions first, then each sealed
    /// segment's partitions (oldest segment first). Counts are physical
    /// rows, so tombstoned domains still count until compaction.
    #[must_use]
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.every_partition()
            .map(EnsemblePartition::stats)
            .collect()
    }

    /// Approximate memory of every tier's forest — each row table counted
    /// once — and retained sizes, in bytes: heap, except the
    /// [`mapped_bytes`](Self::mapped_bytes).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let base: usize = self.partitions.iter().map(|p| p.memory_bytes()).sum();
        let segs: usize = self.segments.iter().map(|s| s.memory_bytes()).sum();
        base + segs
    }

    /// The part of [`memory_bytes`](Self::memory_bytes) that is no heap:
    /// the columns of base partitions — forests and sizes — that are views
    /// into the mapped file the index was decoded over. Segments are
    /// always heap.
    #[must_use]
    pub fn mapped_bytes(&self) -> usize {
        self.partitions.iter().map(|p| p.mapped_bytes()).sum()
    }

    /// The part of [`memory_bytes`](Self::memory_bytes) that is rows: every
    /// row's id, lanes and size, without the tree columns.
    #[must_use]
    pub fn sketch_memory_bytes(&self) -> usize {
        let row = |p: &EnsemblePartition| {
            let row = std::mem::size_of::<DomainId>() + p.forest.layout().row_bytes();
            p.forest.len() * row + std::mem::size_of_val(&p.sizes[..])
        };
        self.every_partition().map(row).sum()
    }

    /// The part of [`memory_bytes`](Self::memory_bytes) that is tree
    /// columns, summed from them: 4 bytes an entry, a tree per band.
    #[must_use]
    pub fn tree_memory_bytes(&self) -> usize {
        let trees = self.every_partition().map(|p| p.forest.tree_bytes());
        trees.sum()
    }

    /// Approximate heap bytes of the id overlay, beside
    /// [`memory_bytes`](Self::memory_bytes) and not part of it: a slot and
    /// a control byte per entry it can hold, 0 until something changes the
    /// base. A base row needs no map: its partition's ids ascend.
    #[must_use]
    pub fn id_map_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(DomainId, Option<(Slot, u32)>)>() + 1;
        self.overlay.capacity() * entry
    }

    /// Base partitions, then every sealed segment's, oldest first.
    fn every_partition(&self) -> impl Iterator<Item = &EnsemblePartition> {
        let segs = self.segments.iter().flat_map(|s| &s.partitions);
        let base = self.partitions.iter().map(|p| &**p);
        base.chain(segs)
    }

    fn partition_at(&self, slot: Slot) -> &EnsemblePartition {
        match slot {
            Slot::Base(p) => &self.partitions[p as usize],
            Slot::Seg(s, part) => &self.segments[s as usize].partitions[part as usize],
        }
    }

    /// Every live domain's sketch as `(id, size, stored row)`, in
    /// ascending id order — the deterministic bulk view rebuilds, shard
    /// splits and record walks start from — with no lookup by id: the base
    /// rows the overlay leaves alone, merged by id across the partitions,
    /// and the overlay's live entries.
    pub fn live_entries(&self) -> impl Iterator<Item = Entry<'_>> {
        self.live_of(rows_by_id(&self.partitions))
    }

    /// Calls `live` with every live id, ascending, in the one walk of the
    /// base by id that also checks no id is in two base partitions — a
    /// decoder's, which checks the ids against its own table as it goes.
    ///
    /// # Errors
    /// [`REPEATED`], once the walk is done.
    pub(crate) fn walk_live(&self, mut live: impl FnMut(DomainId)) -> Result<(), &'static str> {
        let mut twice = false;
        let base = flag_repeats(rows_by_id(&self.partitions), &mut twice);
        self.live_of(base).for_each(|(id, _, _)| live(id));
        if twice {
            Err(REPEATED)
        } else {
            Ok(())
        }
    }

    /// [`live_entries`](Self::live_entries) over `base`, every base row in
    /// ascending id order.
    fn live_of<'a>(
        &'a self,
        base: impl Iterator<Item = (DomainId, u32, u32)> + 'a,
    ) -> impl Iterator<Item = Entry<'a>> {
        let overlay = &self.overlay;
        let base = base
            .filter(move |(id, _, _)| overlay.is_empty() || !overlay.contains_key(id))
            .map(|(_, p, row)| self.partitions[p as usize].entry(row as usize));
        let added = overlay.values().flatten();
        let mut added: Vec<Entry<'_>> = added
            .map(|&(slot, row)| self.partition_at(slot).entry(row as usize))
            .collect();
        added.sort_unstable_by_key(|&(id, _, _)| id);
        let (mut base, mut added) = (base.peekable(), added.into_iter().peekable());
        std::iter::from_fn(move || match (base.peek(), added.peek()) {
            (Some(b), Some(a)) if a.0 < b.0 => added.next(),
            (Some(_), _) => base.next(),
            (None, _) => added.next(),
        })
    }

    /// This index's sweepable partitions for the shared read path, in
    /// stats order: base partitions, then each sealed segment's.
    pub(crate) fn tiers(&self) -> Tiers<'_, &EnsemblePartition> {
        let base = (0..)
            .zip(&self.partitions)
            .map(|(p, part)| (Slot::Base(p), &**part));
        Tiers {
            num_perm: self.config.num_perm,
            tuner: &self.tuner,
            units: base.chain(segment_units(&self.segments)).collect(),
            overlay: &self.overlay,
        }
    }

    /// Containment search (Algorithm 1 + `Partitioned-Containment-Search`)
    /// with a caller-supplied exact query size: the sorted ids of candidate
    /// domains `X` with `t(Q, X) ⪆ t_star`, unranked and unpruned. The
    /// panicking convenience over [`Unranked`](crate::baselines::Unranked)'s
    /// search, which reports the same conditions as typed errors and also
    /// returns the probe counters.
    ///
    /// # Panics
    /// Panics if `query_size == 0`, the threshold is out of range, or the
    /// signature width differs from the configuration.
    #[must_use]
    pub fn query_with_size(
        &self,
        signature: &Signature,
        query_size: u64,
        t_star: f64,
    ) -> Vec<DomainId> {
        let item = ThresholdItem {
            signature,
            size: query_size,
            t_star,
        };
        let (candidates, _) = self.tiers().sweep(&item);
        candidates.into_iter().map(|c| c.id).collect()
    }

    /// True if `id` is currently indexed.
    #[must_use]
    pub fn contains(&self, id: DomainId) -> bool {
        self.locate(id).is_some()
    }

    /// The retained sketch of a domain, if indexed: its cardinality and
    /// its signature as the forest row that indexes it.
    #[must_use]
    pub fn sketch(&self, id: DomainId) -> Option<(u64, Row<'_>)> {
        let (slot, row) = self.locate(id)?;
        let part = self.partition_at(slot);
        Some((part.sizes[row as usize], part.forest.row(row as usize)))
    }

    /// Applies `batch` in order as one step: validates every op first by
    /// the one [`BatchRule`] — a remove may cancel an insert earlier in the
    /// batch, and an insert may re-use an id a remove earlier in it freed —
    /// then seals the inserts left standing, in batch order, into one
    /// immutable segment (O(batch), never O(corpus): the base is not
    /// touched; the segment is partitioned on its own) and takes the removed
    /// ids out of the overlay, so their rows are dead — filtered out of
    /// every candidate union until a fold drops them. An empty batch
    /// changes nothing.
    /// Partition bounds stay as they are: a too-wide upper bound only makes
    /// threshold conversion more conservative, never less correct.
    ///
    /// # Errors
    /// The first op that does not apply, and then the index is unchanged:
    /// [`MutationError::DuplicateId`] for an insert of a live id,
    /// [`MutationError::UnknownId`] for a remove of an id that is not live,
    /// [`MutationError::Invalid`] for an insert of `DomainId::MAX`, a zero
    /// size or a signature width mismatch.
    pub fn commit(&mut self, batch: &[Mutation<'_>]) -> Result<CommitReport, MutationError> {
        let (inserts, removes) = self.net_effect(batch)?;
        for &id in &removes {
            self.unmap(id);
        }
        self.len = self.len + inserts.len() - removes.len();
        if !inserts.is_empty() {
            self.push_segment(build_segment(&self.config, &inserts));
        }
        Ok(CommitReport {
            applied: batch.len(),
            merged: inserts.len(),
            sealed: !inserts.is_empty(),
            segments: self.segments.len(),
            tombstones: self.dead_rows(),
            entries_folded: 0,
        })
    }

    /// Validates `batch` against this index through one [`BatchRule`], op
    /// by op in order, and returns its net effect: the inserts no later
    /// remove cancels, in batch order, and the committed ids it removes,
    /// in batch order.
    #[allow(clippy::type_complexity)]
    fn net_effect<'b>(
        &self,
        batch: &[Mutation<'b>],
    ) -> Result<(Vec<(DomainId, u64, &'b Signature)>, Vec<DomainId>), MutationError> {
        let mut rule = BatchRule::default();
        let mut inserts: Vec<Option<(DomainId, u64, &'b Signature)>> = Vec::new();
        let mut removes: Vec<DomainId> = Vec::new();
        for op in batch {
            let step = rule.check(self, op)?;
            rule.record(step);
            match (*op, step) {
                (Mutation::Insert(id, size, signature), _) => {
                    inserts.push(Some((id, size, signature)));
                }
                (Mutation::Remove(_), BatchStep::Cancel(_, k)) => inserts[k] = None,
                (Mutation::Remove(id), _) => removes.push(id),
            }
        }
        Ok((inserts.into_iter().flatten().collect(), removes))
    }

    /// Rebuilds the equi-depth base from the live rows — segments folded
    /// in, tombstoned rows erased, the layout a fresh build of the current
    /// corpus has, sharing this index's tuner — the one O(corpus) step, off
    /// the commit path. Every live entry is rewritten; an emptied index
    /// becomes a base of no partitions.
    pub fn compact(&mut self) -> CommitReport {
        // The rows are read out of the old index until the new one is
        // whole; only then is it swapped in.
        let entries: Vec<Entry<'_>> = self.live_entries().collect();
        let tuner = Arc::clone(&self.tuner);
        *self = if entries.is_empty() {
            Self::over_base(self.config, tuner, Vec::new())
        } else {
            let ids: Vec<DomainId> = entries.iter().map(|&(id, _, _)| id).collect();
            let sizes: Vec<u64> = entries.iter().map(|&(_, size, _)| size).collect();
            let rows: Vec<Row<'_>> = entries.iter().map(|&(_, _, row)| row).collect();
            let rebuilt = Self::build_from_parts(self.config, &ids, &sizes, &rows);
            Self { tuner, ..rebuilt }
        };
        CommitReport {
            entries_folded: self.len,
            ..CommitReport::default()
        }
    }

    /// Executes one planned [`MergeTask`]: [`MergeTask::Merge`] folds only
    /// the listed segments into one new sealed segment (O(folded entries),
    /// base untouched), [`MergeTask::Full`] is [`compact`](Self::compact).
    /// The report names the entries rewritten and the stack left behind.
    pub fn apply_merge(&mut self, task: &MergeTask) -> CommitReport {
        match task {
            MergeTask::Merge(segments) => CommitReport {
                entries_folded: self.merge_segments(segments),
                segments: self.segments.len(),
                tombstones: self.dead_rows(),
                ..CommitReport::default()
            },
            MergeTask::Full => self.compact(),
        }
    }

    /// The tier layout [`crate::Leveled::plan`] plans against: per-segment
    /// entry counts plus the tombstone backlog: the dead rows.
    #[must_use]
    pub fn segment_layout(&self) -> SegmentLayout {
        SegmentLayout {
            segments: self.segments.iter().map(|s| s.len()).collect(),
            tombstones: self.dead_rows(),
            len: self.len,
        }
    }

    /// Pushes `segment`, whose entries are all live, onto the stack and
    /// points the id map at its rows.
    fn push_segment(&mut self, segment: SealedSegment) {
        let seg = self.segments.len() as u32;
        for ((part, row), (id, _, _)) in segment.located() {
            self.overlay.insert(id, Some((Slot::Seg(seg, part), row)));
        }
        self.segments.push(Arc::new(segment));
    }

    /// Folds the listed sealed segments (indices into the current stack)
    /// into one new segment pushed at the top — the leveled-merge
    /// primitive. Only live entries of the folded segments are rewritten,
    /// so the cost is O(folded entries), never O(corpus): the base
    /// partitions and every other segment are untouched. The dead rows of
    /// a folded segment go with it. Returns the number of live entries
    /// folded.
    ///
    /// The merged segment lands at the *top* of the stack. That ordering
    /// is load-bearing for persistence: the decoder resolves an id that
    /// appears in several segments to the newest one, and a live entry
    /// always outranks the stale copies a remove + re-insert left behind
    /// in older segments.
    ///
    /// Out-of-range and duplicate indices are ignored; folding fewer than
    /// one segment is a no-op.
    pub(crate) fn merge_segments(&mut self, segment_indices: &[usize]) -> usize {
        let mut merge: Vec<usize> = segment_indices
            .iter()
            .copied()
            .filter(|&j| j < self.segments.len())
            .collect();
        merge.sort_unstable();
        merge.dedup();
        if merge.is_empty() {
            return 0;
        }
        let old = std::mem::take(&mut self.segments);
        let merged: Vec<bool> = (0..old.len()).map(|j| merge.contains(&j)).collect();
        let kept_count = old.len() - merge.len();
        let new_segment_index = kept_count as u32;

        // Collect the live entries of the folded segments and compute the
        // old → new index of every kept segment, matching every id-map
        // update against the *old* slot value and applying them only at
        // the end — an in-place update could alias a slot another
        // segment's pass is still matching against.
        let mut live: Vec<Entry<'_>> = Vec::new();
        let mut moves: Vec<(DomainId, (Slot, u32))> = Vec::new();
        let mut next_new = 0u32;
        for (j, seg) in old.iter().enumerate() {
            let to = if merged[j] {
                new_segment_index
            } else {
                next_new
            };
            next_new += u32::from(!merged[j]);
            if !merged[j] && to as usize == j {
                continue; // kept where it is: nothing moves
            }
            for ((part, row), entry) in seg.located() {
                // Sealed entries are live only while the overlay still
                // points here — removed or re-inserted ids moved on, and
                // their stale rows are dropped when their segment folds.
                let here = Some((Slot::Seg(j as u32, part), row));
                if self.overlay.get(&entry.0) != Some(&here) {
                    continue;
                }
                if merged[j] {
                    live.push(entry);
                } else {
                    moves.push((entry.0, (Slot::Seg(to, part), row)));
                }
            }
        }
        for (id, at) in moves {
            self.overlay.insert(id, Some(at));
        }
        let folded = live.len();
        let merged_segment = (!live.is_empty()).then(|| build_segment(&self.config, &live));
        drop(live);
        self.segments = old
            .into_iter()
            .enumerate()
            .filter(|(j, _)| !merged[*j])
            .map(|(_, seg)| seg)
            .collect();
        debug_assert_eq!(self.segments.len(), new_segment_index as usize);
        if let Some(segment) = merged_segment {
            self.push_segment(segment);
        }
        folded
    }

    /// The base partitions, for persistence.
    pub(crate) fn base_partitions(&self) -> &[Arc<EnsemblePartition>] {
        &self.partitions
    }

    /// Sealed segments, for persistence (their entry triples, in sealing
    /// order, are the canonical byte-level form; partitions are replayed
    /// from them).
    pub(crate) fn raw_segments(&self) -> &[Arc<SealedSegment>] {
        &self.segments
    }

    /// The overlay, for the read path of an index this one is the heap
    /// tail of.
    pub(crate) fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Rebuilds an ensemble from persisted parts. The decoder is
    /// responsible for structural validation, [`check_base_ids`] over
    /// `partitions` included, which it may run on the result instead
    /// ([`walk_live`](Self::walk_live)). The overlay is built from the
    /// segments — an id lives in the newest one that holds it — and then
    /// from the tombstones: one naming the segment an id lives in removes
    /// the id, and one naming a base row marks its id removed unless the
    /// id lives in a segment. A mapped index, whose base stays in its
    /// file, passes no partitions, but its file's `base_rows`, and keeps
    /// the result as its heap tail. Each segment is sealed from its
    /// stored rows where they lie: its forests' tables are the one copy.
    pub(crate) fn from_raw_partitions(
        config: EnsembleConfig,
        partitions: Vec<Arc<EnsemblePartition>>,
        base_rows: usize,
        len: usize,
        segment_entries: Vec<Vec<(DomainId, u64, RowBytes<'_>)>>,
        dead: &[Tombstone],
    ) -> Self {
        let mut ensemble = Self {
            tuner: Arc::new(Tuner::new(config.b_max as u32, config.r_max as u32)),
            segments: Vec::new(),
            config,
            len,
            base_rows,
            overlay: Overlay::default(),
            partitions,
        };
        for entries in segment_entries {
            ensemble.push_segment(build_segment(&config, &entries));
        }
        for &(id, tier) in dead {
            let here = ensemble.overlay.get(&id);
            if matches!((tier, here), (Some(j), Some(Some((Slot::Seg(s, _), _)))) if j == *s) {
                ensemble.unmap(id);
            }
        }
        // Base tombstones last, as `None`s: a heap tail has no base row to
        // `unmap` by.
        for &(id, _) in dead.iter().filter(|(_, tier)| tier.is_none()) {
            ensemble.overlay.entry(id).or_insert(None);
        }
        ensemble
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainIndex, Query, SearchOutcome};
    use crate::baselines::Unranked;
    use lshe_minhash::MinHasher;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`base_row`] on this thread.
        pub(super) static BASE_ROW_LOOKUPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Builds a small corpus of nested domains: domain k holds the first
    /// 10·(k+1) values of a shared pool, so containment relations are known
    /// exactly.
    #[allow(clippy::type_complexity)]
    fn nested_corpus(m: usize, n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature, Vec<u64>)>) {
        let h = MinHasher::new(m);
        let pool = MinHasher::synthetic_values(42, 10 * n);
        let mut out = Vec::new();
        for k in 0..n {
            let vals: Vec<u64> = pool[..10 * (k + 1)].to_vec();
            let sig = h.signature(vals.iter().copied());
            out.push((k as DomainId, vals.len() as u64, sig, vals));
        }
        (h, out)
    }

    fn build_default(
        entries: &[(DomainId, u64, Signature, Vec<u64>)],
        n_parts: usize,
    ) -> LshEnsemble {
        let mut b = LshEnsemble::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: n_parts },
            ..EnsembleConfig::default()
        });
        for (id, size, sig, _) in entries {
            b.add(*id, *size, sig.clone());
        }
        b.build()
    }

    #[test]
    fn finds_perfect_containers() {
        let (h, entries) = nested_corpus(256, 30);
        let ens = build_default(&entries, 8);
        // Query = domain 4 (50 values); every domain k ≥ 4 contains it
        // fully. LSH recall is probabilistic and — as the paper's own
        // small-query experiment (Figure 7) shows — degrades for domains
        // far larger than the query, where the reachable Jaccard range
        // compresses toward zero. Require the self-match plus a majority of
        // the size-comparable containers (x/q ≤ 3).
        let (_, size, sig, _) = &entries[4];
        let got = ens.query_with_size(sig, *size, 0.5);
        assert!(got.contains(&4), "exact self-match must always be found");
        let comparable: Vec<u32> = (4..15u32).collect(); // sizes 50..150
        let found = comparable.iter().filter(|k| got.contains(k)).count();
        assert!(
            found * 10 >= comparable.len() * 6,
            "only {found}/{} comparable containers found: {got:?}",
            comparable.len()
        );
        let _ = h;
    }

    #[test]
    fn respects_threshold_lower_bound() {
        let (_, entries) = nested_corpus(256, 30);
        let ens = build_default(&entries, 8);
        // Query = domain 19 (200 values). Domain 4 (50 values) has
        // containment 50/200 = 0.25 < 0.9 — mostly filtered out; and at
        // t* = 0.2 it must be found.
        let (_, size, sig, _) = &entries[19];
        let low = ens.query_with_size(sig, *size, 0.2);
        assert!(low.contains(&4), "t(Q, X4) = 0.25 ≥ 0.2 should match");
        let high = ens.query_with_size(sig, *size, 0.9);
        // High threshold keeps the perfect containers.
        for k in 19..30u32 {
            assert!(high.contains(&k));
        }
    }

    #[test]
    fn estimated_query_size_close_to_exact() {
        let (_, entries) = nested_corpus(256, 30);
        let ens = build_default(&entries, 8);
        let (_, size, sig, _) = &entries[10];
        let est = Unranked(&ens)
            .search(&Query::threshold(sig, 0.8))
            .expect("search")
            .ids();
        let exact = ens.query_with_size(sig, *size, 0.8);
        // The cardinality estimate is within a few % of the truth; the
        // candidate sets should agree on the vast majority of ids.
        let inter = est.iter().filter(|id| exact.contains(id)).count();
        assert!(
            inter * 10 >= exact.len() * 8,
            "est {est:?} vs exact {exact:?}"
        );
    }

    #[test]
    fn partition_skipping_drops_unreachable_partitions() {
        let (_, entries) = nested_corpus(256, 30);
        let ens = build_default(&entries, 8);
        // A query larger than every indexed domain at t* = 1.0 can have no
        // answers (x/q < 1 everywhere).
        let h = MinHasher::new(256);
        let big: Vec<u64> = MinHasher::synthetic_values(7, 1000);
        let sig = h.signature(big.iter().copied());
        let got = ens.query_with_size(&sig, 1000, 1.0);
        assert!(got.is_empty(), "got {got:?}");
    }

    #[test]
    fn insert_after_build_is_found() {
        let (h, entries) = nested_corpus(256, 20);
        let mut ens = build_default(&entries, 4);
        let vals = MinHasher::synthetic_values(99, 64);
        let sig = h.signature(vals.iter().copied());
        ens.commit(&[Mutation::Insert(1000, 64, &sig)])
            .expect("insert");
        assert_eq!(ens.len(), 21);
        let got = ens.query_with_size(&sig, 64, 0.9);
        assert!(got.contains(&1000));
    }

    #[test]
    fn insert_oversized_grows_last_partition() {
        let (h, entries) = nested_corpus(256, 20);
        let mut ens = build_default(&entries, 4);
        let old_max = ens.partition_stats().last().expect("parts").upper;
        let vals = MinHasher::synthetic_values(5, 4000);
        let sig = h.signature(vals.iter().copied());
        ens.commit(&[Mutation::Insert(2000, 4000, &sig)])
            .expect("insert");
        let new_max = ens.partition_stats().last().expect("parts").upper;
        assert!(new_max > old_max);
        assert_eq!(new_max, 4000);
        assert!(ens.query_with_size(&sig, 4000, 0.9).contains(&2000));
    }

    #[test]
    fn partition_stats_cover_corpus() {
        let (_, entries) = nested_corpus(256, 32);
        let ens = build_default(&entries, 8);
        let stats = ens.partition_stats();
        assert_eq!(stats.len(), 8);
        let total: usize = stats.iter().map(|s| s.count).sum();
        assert_eq!(total, 32);
        for w in stats.windows(2) {
            assert!(w[0].upper <= w[1].lower);
        }
    }

    #[test]
    fn more_partitions_no_worse_recall_on_perfect_matches() {
        let (_, entries) = nested_corpus(256, 64);
        let e8 = build_default(&entries, 8);
        let e32 = build_default(&entries, 32);
        let (_, size, sig, _) = &entries[10];
        let r8 = e8.query_with_size(sig, *size, 1.0);
        let r32 = e32.query_with_size(sig, *size, 1.0);
        // Both must find the query's own id.
        assert!(r8.contains(&10));
        assert!(r32.contains(&10));
    }

    #[test]
    fn try_insert_and_remove_roundtrip() {
        let (h, entries) = nested_corpus(256, 20);
        let mut ens = build_default(&entries, 4);
        let vals = MinHasher::synthetic_values(123, 64);
        let sig = h.signature(vals.iter().copied());
        let insert = Mutation::Insert(500, 64, &sig);
        ens.commit(&[insert]).expect("insert");
        assert!(ens.contains(500));
        // Duplicate insert is a typed error, not a second copy.
        let duplicate = Err(MutationError::DuplicateId(500));
        assert_eq!(ens.commit(&[insert]), duplicate);
        // Invalid inputs are typed errors.
        let zero = ens.commit(&[Mutation::Insert(501, 0, &sig)]);
        assert!(matches!(zero, Err(MutationError::Invalid(_))));
        let narrow = MinHasher::new(64).signature([1u64, 2]);
        let wide = ens.commit(&[Mutation::Insert(501, 2, &narrow)]);
        assert!(matches!(wide, Err(MutationError::Invalid(_))));
        // Removal of a sealed insert, then of it again.
        ens.commit(&[Mutation::Remove(500)]).expect("remove sealed");
        assert!(!ens.contains(500));
        assert!(!ens.query_with_size(&sig, 64, 0.9).contains(&500));
        let unknown = Err(MutationError::UnknownId(500));
        assert_eq!(ens.commit(&[Mutation::Remove(500)]), unknown);
        // Removing a committed (built) domain works too.
        let (_, size, sig3, _) = &entries[3];
        ens.commit(&[Mutation::Remove(3)]).expect("remove built");
        assert_eq!(ens.len(), 19);
        assert!(!ens.query_with_size(sig3, *size, 1.0).contains(&3));
        // Neighbours survive.
        let (_, size4, sig4, _) = &entries[4];
        assert!(ens.query_with_size(sig4, *size4, 1.0).contains(&4));
    }

    #[test]
    fn the_batch_rule_checks_each_op_against_the_ops_recorded_before_it() {
        let (h, entries) = nested_corpus(256, 6);
        let ens = build_default(&entries, 2);
        let sig = h.signature(MinHasher::synthetic_values(7, 32).iter().copied());
        let mut rule = BatchRule::default();
        let mut take = |op: Mutation<'_>| {
            let step = rule.check(&ens, &op)?;
            rule.record(step);
            Ok::<_, MutationError>(step)
        };
        // A committed id removed, then inserted again; a second remove of
        // it cancels that insert, and a third is unknown.
        assert_eq!(take(Mutation::Remove(3)), Ok(BatchStep::Remove(3)));
        assert_eq!(
            take(Mutation::Insert(3, 32, &sig)),
            Ok(BatchStep::Insert(3))
        );
        let again = Err(MutationError::DuplicateId(3));
        assert_eq!(take(Mutation::Insert(3, 32, &sig)), again);
        assert_eq!(take(Mutation::Remove(3)), Ok(BatchStep::Cancel(3, 0)));
        assert_eq!(take(Mutation::Remove(3)), Err(MutationError::UnknownId(3)));
        // No id follows the last one, so it is never inserted.
        let last = take(Mutation::Insert(DomainId::MAX, 32, &sig));
        let out_of_range = "op 3: domain id 4294967295 is out of range";
        assert_eq!(last, Err(MutationError::Invalid(out_of_range.into())));
        assert_eq!((rule.inserts(), rule.removes()), (0, 1));
    }

    #[test]
    fn commit_reports_the_sealed_delta() {
        let (h, entries) = nested_corpus(256, 12);
        let mut ens = build_default(&entries, 3);
        let sig = h.signature(MinHasher::synthetic_values(9, 33));
        let report = ens
            .commit(&[Mutation::Insert(700, 33, &sig)])
            .expect("insert");
        assert_eq!(
            (report.merged, report.sealed, report.segments),
            (1, true, 1)
        );
        assert!(ens.query_with_size(&sig, 33, 0.9).contains(&700));
        // No insert: nothing sealed.
        assert!(!ens.commit(&[]).expect("empty batch").sealed);
        let report = ens.commit(&[Mutation::Remove(2)]).expect("remove");
        assert_eq!(
            (report.sealed, report.segments, report.tombstones),
            (false, 1, 1)
        );
    }

    #[test]
    fn clone_is_independent() {
        let (h, entries) = nested_corpus(256, 10);
        let ens = build_default(&entries, 2);
        let mut copy = ens.clone();
        let sig = h.signature(MinHasher::synthetic_values(77, 40));
        let batch = [Mutation::Insert(900, 40, &sig), Mutation::Remove(0)];
        copy.commit(&batch).expect("commit");
        assert_eq!(copy.len(), 10);
        assert_eq!(ens.len(), 10);
        assert!(ens.contains(0), "original mutated through clone");
        assert!(!ens.contains(900));
    }

    #[test]
    fn clones_share_one_tuner_memo_across_commits_and_merges() {
        let (h, entries) = nested_corpus(256, 24);
        let ens = build_default(&entries, 4);
        let (_, size, sig, _) = &entries[6];
        let answer = ens.query_with_size(sig, *size, 0.5);
        let populated = ens.tuner.cache_len();
        assert!(populated > 0);

        let mut copy = ens.clone();
        assert!(Arc::ptr_eq(&ens.tuner, &copy.tuner));
        assert_eq!(copy.tuner.cache_len(), populated);
        let fresh = h.signature(MinHasher::synthetic_values(31, 45));
        copy.commit(&[Mutation::Insert(500, 45, &fresh)])
            .expect("insert");
        copy.commit(&[Mutation::Insert(501, 45, &fresh)])
            .expect("insert");
        copy.merge_segments(&[0, 1]);
        assert_eq!(
            copy.tuner.cache_len(),
            populated,
            "a commit emptied the memo"
        );

        // The same query asks for keys the memo already holds, so nothing
        // is optimised again; on the copy, the merged segment is one more
        // partition bound, so at most its own key is new.
        assert_eq!(ens.query_with_size(sig, *size, 0.5), answer);
        assert_eq!(ens.tuner.cache_len(), populated, "a known key was redone");
        let grown = copy.query_with_size(sig, *size, 0.5);
        assert!(grown.iter().filter(|&&id| id < 500).eq(answer.iter()));
        let after = ens.tuner.cache_len();
        assert!((populated..=populated + 1).contains(&after), "{after}");
        // A rebuild keeps the memo too.
        copy.compact();
        assert!(Arc::ptr_eq(&ens.tuner, &copy.tuner));
        assert!(copy.tuner.cache_len() >= after);
    }

    #[test]
    #[should_panic(expected = "DuplicateId(2)")]
    fn panicking_insert_rejects_duplicates() {
        let (h, entries) = nested_corpus(256, 8);
        let mut ens = build_default(&entries, 2);
        let sig = h.signature(MinHasher::synthetic_values(5, 30));
        ens.commit(&[Mutation::Insert(2, 30, &sig)])
            .expect("id 2 is already indexed");
    }

    #[test]
    fn reinserted_id_answers_only_for_its_new_content() {
        let (h, entries) = nested_corpus(256, 12);
        let mut ens = build_default(&entries, 3);
        let contents: Vec<(u64, Signature)> = [(777u64, 40usize), (778, 55), (779, 70)]
            .iter()
            .map(|&(seed, n)| {
                let vals = MinHasher::synthetic_values(seed, n);
                (n as u64, h.signature(vals.iter().copied()))
            })
            .collect();
        // `old` is what id 3 used to hold, `new` what it holds now.
        let check =
            |ens: &LshEnsemble, old: (u64, &Signature), new: (u64, &Signature), at: &str| {
                assert!(
                    !ens.query_with_size(old.1, old.0, 1.0).contains(&3),
                    "{at}: stale rows answered for removed content"
                );
                assert!(
                    ens.query_with_size(new.1, new.0, 1.0).contains(&3),
                    "{at}: re-inserted content lost"
                );
            };
        let built = (entries[3].1, &entries[3].2);
        let [first, second, third] = [0, 1, 2].map(|i| (contents[i].0, &contents[i].1));

        // Base row → tombstone, new content sealed, in one batch.
        let reinsert = |ens: &mut LshEnsemble, (size, sig): (u64, &Signature)| {
            let batch = [Mutation::Remove(3), Mutation::Insert(3, size, sig)];
            ens.commit(&batch).expect("remove and re-insert");
        };
        reinsert(&mut ens, first);
        check(&ens, built, first, "sealed over base");

        // Segment entry → tombstone, newer content in a newer segment.
        reinsert(&mut ens, second);
        check(&ens, first, second, "sealed over segment");
        check(&ens, built, second, "sealed over segment");

        // Folding the stale segment away changes nothing; nor does a
        // third generation folded together with the second.
        ens.merge_segments(&[0]);
        check(&ens, first, second, "after merging the stale segment");
        reinsert(&mut ens, third);
        ens.merge_segments(&[0, 1]);
        check(&ens, second, third, "after merging both generations");
        check(&ens, built, third, "after merging both generations");
        assert_eq!(ens.len(), 12);
    }

    #[test]
    fn remove_to_empty_is_legal() {
        let (_, entries) = nested_corpus(256, 6);
        let mut ens = build_default(&entries, 2);
        let removes: Vec<Mutation<'_>> = (0..6).map(Mutation::Remove).collect();
        ens.commit(&removes).expect("remove");
        assert!(ens.is_empty());
        assert_eq!(ens.len(), 0);
        let (_, size, sig, _) = &entries[0];
        assert!(ens.query_with_size(sig, *size, 0.1).is_empty());
    }

    #[test]
    #[should_panic(expected = "b_max·r_max")]
    fn invalid_config_rejected() {
        let _ = LshEnsemble::builder_with(EnsembleConfig {
            num_perm: 16,
            b_max: 8,
            r_max: 8,
            strategy: PartitionStrategy::Single,
        });
    }

    #[test]
    #[should_panic(expected = "cannot build an empty ensemble")]
    fn empty_build_rejected() {
        let _ = LshEnsemble::builder().build();
    }

    #[test]
    #[should_panic(expected = "duplicate domain id")]
    fn duplicate_id_rejected() {
        let h = MinHasher::new(256);
        let mut b = LshEnsemble::builder();
        let sig = h.signature(MinHasher::synthetic_values(1, 10));
        b.add(1, 10, sig.clone());
        b.add(1, 10, sig);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "signature width mismatch")]
    fn wrong_width_rejected() {
        let h = MinHasher::new(64);
        let mut b = LshEnsemble::builder();
        b.add(1, 10, h.signature([1u64, 2]));
    }

    /// `position_of` against a linear scan, for every id of `ids`, its
    /// neighbours, the extremes and the first 200.
    fn agrees(ids: &[u32]) {
        let near = ids
            .iter()
            .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)]);
        for id in near.chain([u32::MAX]).chain(0..200) {
            let want = ids.iter().position(|&x| x == id);
            assert_eq!(position_of(ids, id), want, "{id} in {ids:?}");
        }
    }

    #[test]
    fn position_of_finds_every_id_dense_or_with_holes() {
        agrees(&[]);
        agrees(&[0]);
        agrees(&[7]);
        agrees(&(0..100).collect::<Vec<_>>());
        agrees(&(5..40).collect::<Vec<_>>());
        // Holes near the start, near the end, everywhere, and one so wide
        // the gallop runs back to the first id.
        agrees(&[0, 1, 5, 6, 7, 8, 9, 10, 11]);
        agrees(&[0, 1, 2, 3, 4, 5, 6, 90]);
        agrees(&(0..60).map(|k| k * 3 + k % 2).collect::<Vec<_>>());
        agrees(&[2, 1_000, 1_001, 1_002]);
        agrees(&[0, u32::MAX - 1, u32::MAX]);
    }

    /// Domains staged in any order build the index an in-order build does:
    /// the same bytes, so the same answers. Sizes tie across partition
    /// boundaries, which the partitioning breaks by id.
    #[test]
    fn out_of_order_adds_answer_like_in_order_ones() {
        let (_, corpus) = nested_corpus(256, 60);
        let config = EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 7 },
            ..EnsembleConfig::default()
        };
        // Ids with holes, and every size twice.
        let id = |k: usize| (k * 5 + k % 3) as DomainId;
        let size = |k: usize| corpus[k / 2].1;
        let build = |order: &[usize]| {
            let mut b = LshEnsemble::builder_with(config);
            for &k in order {
                b.add(id(k), size(k), corpus[k].2.clone());
            }
            b.build()
        };
        let ascending: Vec<usize> = (0..corpus.len()).collect();
        let want = build(&ascending);
        assert_eq!(check_base_ids(want.base_partitions()), Ok(()));
        let reversed: Vec<usize> = ascending.iter().rev().copied().collect();
        let strided: Vec<usize> = (0..corpus.len()).map(|k| k * 17 % corpus.len()).collect();
        for order in [reversed, strided] {
            let got = build(&order);
            assert!(got.to_bytes() == want.to_bytes(), "{order:?}");
            for (k, (_, _, sig, values)) in corpus.iter().enumerate().step_by(7) {
                for t in [0.3, 0.8] {
                    let query = Query::threshold(sig, t).with_size(values.len() as u64);
                    let answer =
                        |index: &LshEnsemble| index.search(&query).map(SearchOutcome::into_pairs);
                    assert_eq!(answer(&got), answer(&want), "domain {k} at {t}");
                }
            }
        }
        // One state, one byte form: the same committed ids — base rows and
        // a segment entry — removed in two orders, in one batch and in one
        // batch a remove, save the same bytes.
        let fresh = &corpus[0].2;
        let mut sealed = want.clone();
        let inserts = [
            Mutation::Insert(1_000, 9, fresh),
            Mutation::Insert(1_001, 9, fresh),
        ];
        sealed.commit(&inserts).expect("inserts");
        let gone = [id(40), 1_001, id(3), id(17)];
        let mut batched = sealed.clone();
        batched
            .commit(&gone.map(Mutation::Remove))
            .expect("removes");
        let mut one_by_one = sealed;
        for &id in gone.iter().rev() {
            one_by_one.commit(&[Mutation::Remove(id)]).expect("remove");
        }
        assert!(
            batched.to_bytes() == one_by_one.to_bytes(),
            "the removal order was saved"
        );
    }

    /// The walks — every live entry in id order, and the id floor — make
    /// no lookup by id, over a base with tombstones, re-inserts and
    /// segments; and they agree with the lookups they replace.
    #[test]
    fn walks_make_no_lookup_by_id() {
        let (h, corpus) = nested_corpus(256, 40);
        let mut index = build_default(&corpus, 4);
        let fresh = h.signature([7u64, 8, 9]);
        let removed = &corpus[3].2;
        index
            .commit(&[
                Mutation::Remove(3),
                Mutation::Remove(11),
                Mutation::Insert(3, 20, removed),
                Mutation::Insert(90, 3, &fresh),
            ])
            .expect("commit");
        index.commit(&[Mutation::Remove(90)]).expect("commit");
        let lookups = || BASE_ROW_LOOKUPS.with(Cell::get);
        let before = lookups();
        let entries: Vec<(DomainId, u64)> = index
            .live_entries()
            .map(|(id, size, _)| (id, size))
            .collect();
        let floor = index.min_next_id();
        assert_eq!(lookups(), before, "a walk looked an id up");
        assert_eq!(floor, 91);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(entries.len(), index.len());
        for &(id, size) in &entries {
            assert_eq!(index.sketch(id).map(|(size, _)| size), Some(size), "{id}");
        }
        assert!(!entries.iter().any(|&(id, _)| id == 11 || id == 90));
    }
}
