//! The engine layer: lock-free snapshot reads over a hot-reloadable index.
//!
//! A loaded [`IndexContainer`] is wrapped in an immutable [`Snapshot`]
//! behind an `Arc`. Readers clone the `Arc` (one brief `RwLock` read to
//! copy a pointer — never held across a query), so a `/reload` swaps in a
//! fresh snapshot without blocking or invalidating in-flight queries:
//! they finish against the snapshot they started with, exactly the
//! semantics a serving system wants.
//!
//! Every snapshot answers through its container's own ranked index,
//! borrowed, not copied, which is also the one mutations reach. Writes —
//! staging, commits, folds and reloads — hold one lock, which owns the
//! path served, the staging area and every snapshot swap; what `/stats`
//! reads of the staging area is published beside the snapshot, so no
//! reader waits on a write. An engine serves one shard; the paper's §6.3
//! fan-out runs across processes (`lshe split` writes the shard files,
//! `lshe cluster` fronts them).

use crate::container::{DeltaLog, DeltaOp, DomainRecord, IndexContainer, LoadError};
use lshe_core::{
    BatchRule, BatchStep, CommitReport, DomainIndex, MergeTask, MutationError, Query, QueryError,
    SearchOutcome,
};
use lshe_corpus::Catalog;
use lshe_minhash::{MinHasher, Signature};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Engine failures.
#[derive(Debug)]
pub enum EngineError {
    /// Filesystem problem while (re)loading.
    Io(std::io::Error),
    /// Corrupt or incompatible index file.
    Index(String),
    /// Invalid engine configuration: a shard count other than 1.
    Config(String),
    /// A staged mutation was rejected (duplicate insert, unknown or
    /// double removal, width mismatch).
    Mutation(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Index(msg) => write!(f, "index error: {msg}"),
            Self::Config(msg) => write!(f, "config error: {msg}"),
            Self::Mutation(msg) => write!(f, "mutation error: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<LoadError> for EngineError {
    fn from(e: LoadError) -> Self {
        match e {
            // Keep plain filesystem failures in the Io lane (callers map
            // it to exit codes); decode failures carry the path and
            // failing section in their rendered message.
            LoadError::Io { source, .. } => Self::Io(source),
            other => Self::Index(other.to_string()),
        }
    }
}

/// An immutable view of one loaded index generation.
#[derive(Debug)]
pub struct Snapshot {
    container: IndexContainer,
    hasher: MinHasher,
    generation: u64,
}

impl Snapshot {
    fn new(container: IndexContainer, generation: u64) -> Self {
        let hasher = MinHasher::new(container.num_perm());
        Self {
            container,
            hasher,
            generation,
        }
    }

    /// The underlying container.
    #[must_use]
    pub fn container(&self) -> &IndexContainer {
        &self.container
    }

    /// The query backend for this snapshot: the container's own index.
    #[must_use]
    pub fn index(&self) -> &dyn DomainIndex {
        self.container.ensemble()
    }

    /// The hasher queries must be sketched with (same permutation family
    /// and width as the index).
    #[must_use]
    pub fn hasher(&self) -> &MinHasher {
        &self.hasher
    }

    /// Snapshot generation (starts at 1, bumps on every reload).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Answers one typed query through the snapshot's backend.
    ///
    /// # Errors
    /// [`QueryError`] for malformed or unsupported queries (the server
    /// maps these to HTTP 400).
    pub fn query(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        self.container.ensemble().search(query)
    }
}

/// Staged (uncommitted) mutations: the ops in arrival order, checked one
/// at a time by the core's one [`BatchRule`] — the rule the commit applies
/// them by.
#[derive(Debug, Default)]
struct Pending {
    /// Every staged op, in arrival order (replayed verbatim on commit).
    ops: Vec<DeltaOp>,
    /// What the staged ops do to the live index, so far.
    rule: BatchRule,
    /// Heap bytes the staged ops hold.
    bytes: usize,
    /// Next id to hand out. Monotone across commits, so a staged insert
    /// can never collide with an id that later appears.
    next_id: u32,
}

impl Pending {
    /// Nothing staged, the next insert to take `next_id`.
    fn at(next_id: u32) -> Self {
        Self {
            next_id,
            ..Self::default()
        }
    }

    /// What `op`, an insert or a remove, does if it follows the staged ops
    /// over `container`; changes nothing.
    fn check(&self, container: &IndexContainer, op: &DeltaOp) -> Result<BatchStep, MutationError> {
        let mutation = op.mutation().expect("a staged op is an insert or a remove");
        self.rule.check(container.ensemble(), &mutation)
    }

    /// Stages `op`, which [`check`](Self::check) accepted as `step`.
    fn push(&mut self, op: DeltaOp, step: BatchStep) {
        self.rule.record(step);
        self.bytes += match &op {
            DeltaOp::Insert { record, signature } => {
                self.next_id = self.next_id.max(record.id + 1);
                signature.len() * Signature::LANE_BYTES
                    + record.table.capacity()
                    + record.column.capacity()
                    + std::mem::size_of::<DomainRecord>()
            }
            DeltaOp::Remove { .. } | DeltaOp::Commit { .. } => std::mem::size_of::<DeltaOp>(),
        };
        self.ops.push(op);
    }
}

/// Counts of currently staged mutations, as reported on `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StagedCounts {
    /// Staged inserts awaiting commit (net of cancelled ones).
    pub inserts: usize,
    /// Staged removes awaiting commit.
    pub removes: usize,
}

/// The engine's write state: the file served and the ops staged against
/// it, whose log is that file's.
#[derive(Debug)]
pub(crate) struct Writer {
    path: PathBuf,
    pending: Pending,
}

impl Writer {
    /// Appends one op to the file's delta log, pinning the allocator mark
    /// into the log header if this append creates the log.
    fn log(&self, op: &DeltaOp) -> Result<(), EngineError> {
        DeltaLog::sidecar(&self.path).append(op, self.pending.next_id)?;
        Ok(())
    }
}

/// What `/stats` reads of the staging area. The writer stores it after
/// every change, under its lock, so a reader takes no lock a fold holds.
#[derive(Debug, Default)]
struct Published {
    inserts: AtomicUsize,
    removes: AtomicUsize,
    bytes: AtomicUsize,
    next_id: AtomicU32,
}

/// The hot-reloadable engine: an atomic pointer to the current snapshot.
#[derive(Debug)]
pub struct Engine {
    /// The live snapshot. Readers copy the `Arc`; only a holder of
    /// `writer` replaces it, with the live generation plus one.
    current: RwLock<Arc<Snapshot>>,
    /// The staging area's counts, bytes and allocator mark, as the writer
    /// last published them.
    staged: Published,
    /// Held by every staging call, commit, fold and reload for its whole
    /// run, so validation, the log append and the snapshot swap see one
    /// state, and the path, the staging area and the live snapshot change
    /// as one unit. Queries and `/stats` never take it.
    writer: Mutex<Writer>,
    /// Generation produced by the last full fold in this process (0 = no
    /// compaction since boot) — surfaced on `/stats`.
    last_compaction: AtomicU64,
}

impl Engine {
    /// Loads an index file and builds generation 1. When a `<path>.delta`
    /// sidecar exists, its committed batches (the runs of ops closed by a
    /// [`DeltaOp::Commit`] marker) are replayed through
    /// [`IndexContainer::commit`] and re-sealed into the exact segment
    /// stack that was acknowledged before the restart, and the still-staged
    /// tail after the last marker is replayed into the staging area — a
    /// restart loses nothing.
    ///
    /// Replay is exact: it never guesses which logged ops the base already
    /// holds. A fold persists every committed batch together, so the base
    /// holds either none of the log's batches or all of them. The batches
    /// apply strictly to a copy-on-write clone of the base; if all apply,
    /// that is the acknowledged state, since strict replay passes only
    /// when every id the log touches is as present in the base as it was
    /// before the log. If one fails and the base's allocator mark has
    /// reached the log's last commit mark, the base already holds every
    /// batch — a fold renamed it in and stopped before its log rewrite —
    /// so the base is served and that rewrite is finished here. The
    /// staged tail then applies strictly to the staging area.
    ///
    /// `shards` must be 1: an engine serves one index, and a query fans
    /// out across processes instead (`lshe split` + `lshe cluster`).
    ///
    /// # Errors
    /// [`EngineError::Config`] for any other `shards`; otherwise
    /// [`EngineError`] on I/O failure, a corrupt file, a corrupt/torn
    /// delta log, or a log whose ops do not apply to its base (typed,
    /// never a panic).
    pub fn load(path: &Path, shards: usize) -> Result<Self, EngineError> {
        if shards != 1 {
            return Err(EngineError::Config(format!(
                "an engine serves one shard, not {shards}: split the index with \
                 `lshe split` and front the shards with `lshe cluster`"
            )));
        }
        let (container, pending) = Self::open(path)?;
        Ok(Self::over(container, path.to_owned(), pending))
    }

    /// Opens `path` as [`load`](Self::load) describes, for it and for
    /// [`reload`](Self::reload) alike: strict replay, or the base and the
    /// interrupted fold's log rewrite finished.
    fn open(path: &Path) -> Result<(IndexContainer, Pending), EngineError> {
        let base = IndexContainer::load(path)?;
        let log = DeltaLog::sidecar(path);
        let (mark, ops) = log
            .read_with_mark()
            .map_err(|e| EngineError::Index(format!("{}: {e}", log.path().display())))?;
        let (batches, tail) = Self::split_batches(ops);
        let last_mark = batches.last().map(|&(_, next_id)| next_id);
        match Self::replay_committed(&base, mark, batches) {
            Ok(container) => {
                let pending = Self::replay_pending(&container, tail)?;
                Ok((container, pending))
            }
            Err(_) if last_mark.is_some_and(|last| base.next_id() >= last) => {
                let pending = Self::replay_pending(&base, tail)?;
                log.rewrite(&pending.ops, pending.next_id)?;
                Ok((base, pending))
            }
            Err(e) => Err(e),
        }
    }

    /// Generation 1 over `container`, with `path` on record for `/reload`
    /// and the delta log, and `pending` staged.
    fn over(container: IndexContainer, path: PathBuf, pending: Pending) -> Self {
        let engine = Self {
            current: RwLock::new(Arc::new(Snapshot::new(container, 1))),
            staged: Published::default(),
            writer: Mutex::new(Writer { path, pending }),
            last_compaction: AtomicU64::new(0),
        };
        engine.publish(&engine.writer().pending);
        engine
    }

    /// Splits replayed log ops at [`DeltaOp::Commit`] markers: the closed
    /// batches (each with its allocator mark) and the still-staged tail.
    fn split_batches(ops: Vec<DeltaOp>) -> (Vec<(Vec<DeltaOp>, u32)>, Vec<DeltaOp>) {
        let mut batches = Vec::new();
        let mut run = Vec::new();
        for op in ops {
            if let DeltaOp::Commit { next_id } = op {
                batches.push((std::mem::take(&mut run), next_id));
            } else {
                run.push(op);
            }
        }
        (batches, run)
    }

    /// Commits each batch in turn to a copy-on-write clone of `base`, its
    /// allocator raised to the log header's `mark` and then to each
    /// batch's, sealing one segment per batch — bit-identical to the
    /// segments the original commits built, because each batch replays
    /// the same ops in the same order through the same seal.
    fn replay_committed(
        base: &IndexContainer,
        mark: u32,
        batches: Vec<(Vec<DeltaOp>, u32)>,
    ) -> Result<IndexContainer, EngineError> {
        let mut container = base.clone();
        container.reserve_next_id(mark);
        for (ops, next_id) in batches {
            container
                .commit(&ops)
                .map_err(|e| EngineError::Index(format!("delta log replay: {e}")))?;
            container.reserve_next_id(next_id);
        }
        Ok(container)
    }

    /// Stages the log's staged tail over `container`, each op checked as a
    /// staging call checks it.
    fn replay_pending(
        container: &IndexContainer,
        ops: Vec<DeltaOp>,
    ) -> Result<Pending, EngineError> {
        let mut pending = Pending::at(container.next_id());
        for op in ops {
            let step = pending
                .check(container, &op)
                .map_err(|e| EngineError::Index(format!("delta log replays: {e}")))?;
            pending.push(op, step);
        }
        Ok(pending)
    }

    /// The current snapshot. Cheap (one `Arc` clone under a read lock);
    /// hold it for the duration of one query so a concurrent reload cannot
    /// pull the index out from under you.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("engine lock poisoned"))
    }

    /// The write state, locked. Never on a reactor thread: a fold holds
    /// the lock for its whole run, and every connection of that reactor
    /// would wait on it.
    pub(crate) fn writer(&self) -> MutexGuard<'_, Writer> {
        debug_assert!(
            !crate::reactor::on_reactor_thread(),
            "Engine::writer on a reactor thread: run the route on the pool"
        );
        self.writer.lock().expect("engine writer lock poisoned")
    }

    /// Publishes what `/stats` reads of `pending`, the staging area the
    /// held write lock now guards.
    fn publish(&self, pending: &Pending) {
        let staged = &self.staged;
        staged
            .inserts
            .store(pending.rule.inserts(), Ordering::SeqCst);
        staged
            .removes
            .store(pending.rule.removes(), Ordering::SeqCst);
        staged.bytes.store(pending.bytes, Ordering::SeqCst);
        staged.next_id.store(pending.next_id, Ordering::SeqCst);
    }

    /// Stages one new domain for insertion: assigns it the next free id,
    /// appends the op to the delta log, and records it for the next
    /// [`commit_staged`](Self::commit_staged). The domain becomes
    /// queryable at commit, not before — in-flight and pre-commit queries
    /// keep a consistent snapshot.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] on a zero size or a signature width
    /// mismatch, [`EngineError::Io`] if the delta log cannot be appended
    /// (the op is then *not* staged).
    pub fn stage_insert(
        &self,
        table: String,
        column: String,
        size: u64,
        signature: Signature,
    ) -> Result<(u32, StagedCounts), EngineError> {
        self.stage_insert_as(table, column, size, signature, None)
    }

    /// [`stage_insert`](Self::stage_insert) with an optional explicit id —
    /// the cluster path: the coordinator allocates cluster-wide ids (so
    /// shards cannot collide) and routes each insert to the shard the id
    /// places on. `None` keeps local allocation; an explicit id must not
    /// be live once the staged ops apply (a committed id removed earlier
    /// in the batch may be inserted again), and the local allocator jumps
    /// past it so later local inserts cannot collide either.
    ///
    /// # Errors
    /// As [`stage_insert`](Self::stage_insert), plus
    /// [`EngineError::Mutation`] for an explicit id that is in use or is
    /// `u32::MAX`.
    pub fn stage_insert_as(
        &self,
        table: String,
        column: String,
        size: u64,
        signature: Signature,
        explicit_id: Option<u32>,
    ) -> Result<(u32, StagedCounts), EngineError> {
        let mut writer = self.writer();
        let id = explicit_id.unwrap_or(writer.pending.next_id);
        let record = DomainRecord {
            id,
            size,
            table,
            column,
        };
        let counts = self.stage(&mut writer, DeltaOp::Insert { record, signature })?;
        Ok((id, counts))
    }

    /// The id the next locally-allocated insert would take. Monotone
    /// across commits; a reload takes the target file's, as a restart
    /// does. A cluster coordinator reads this from every shard (via
    /// `/stats`) and allocates from the maximum. Takes no lock.
    #[must_use]
    pub fn next_id(&self) -> u32 {
        self.staged.next_id.load(Ordering::SeqCst)
    }

    /// Stages the removal of a domain. Valid targets are ids live once
    /// the staged ops apply: committed ids not yet staged for removal, and
    /// ids staged for insertion in this batch (insert-then-remove cancels
    /// out at commit). Double removal of the same id is a typed error.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] for an unknown or already-removed id,
    /// [`EngineError::Io`] if the delta log cannot be appended.
    pub fn stage_remove(&self, id: u32) -> Result<StagedCounts, EngineError> {
        self.stage(&mut self.writer(), DeltaOp::Remove { id })
    }

    /// Stages `op` under the held write lock: checks it by the core's
    /// batch rule against the live index with the staged ops applied,
    /// logs it, and publishes the staging area it leaves.
    fn stage(&self, writer: &mut Writer, op: DeltaOp) -> Result<StagedCounts, EngineError> {
        let step = writer
            .pending
            .check(self.snapshot().container(), &op)
            .map_err(|e| EngineError::Mutation(e.to_string()))?;
        writer.log(&op)?;
        writer.pending.push(op, step);
        self.publish(&writer.pending);
        Ok(self.staged_counts())
    }

    /// Currently staged mutation counts (for `/stats`), as the writer last
    /// published them. Takes no lock.
    #[must_use]
    pub fn staged_counts(&self) -> StagedCounts {
        StagedCounts {
            inserts: self.staged.inserts.load(Ordering::SeqCst),
            removes: self.staged.removes.load(Ordering::SeqCst),
        }
    }

    /// Approximate heap bytes held by the staged (uncommitted) mutation
    /// backlog: each pending insert retains its full signature plus
    /// provenance until the next commit. Staged ops are not part of any
    /// snapshot index yet, so a memory report that only asked the index
    /// would under-count under live ingestion — `/stats` adds this in.
    /// Takes no lock.
    #[must_use]
    pub fn staged_memory_bytes(&self) -> usize {
        self.staged.bytes.load(Ordering::SeqCst)
    }

    /// Commits every staged mutation as one new snapshot generation: the
    /// current container is cloned — pointers to its base partitions,
    /// sealed segments and provenance table, plus copies of the tombstones
    /// and the id and record overlays — the ops applied, and the staged
    /// delta sealed into one immutable segment beside the shared ones. The
    /// work is O(staged delta + changes since the base was built), never
    /// O(corpus), and the durability step is a single appended
    /// [`DeltaOp::Commit`] marker — the base file is **not** rewritten;
    /// it catches up at the next fold ([`apply_merge`](Self::apply_merge)).
    /// In-flight queries keep their pre-commit snapshot; the query cache
    /// invalidates by generation.
    ///
    /// With nothing staged this is a no-op returning the live snapshot
    /// and a report of `applied == 0`.
    ///
    /// # Errors
    /// [`EngineError::Mutation`] when an op does not apply — staged ops
    /// are kept. Every op was validated against the live container under
    /// the lock the commit holds, and a reload replaces the staging area
    /// with the target file's, so a file whose log stages an id it
    /// already uses is refused at [`reload`](Self::reload), not here.
    /// [`EngineError::Io`] when the marker cannot be appended — the
    /// commit is then abandoned whole: no snapshot swap, staged ops kept,
    /// retry on the next `/commit` (the marker append is the commit
    /// point, so a re-issued commit is idempotent).
    pub fn commit_staged(&self) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        self.commit(&mut self.writer())
    }

    /// [`commit_staged`](Self::commit_staged) under the held write lock.
    fn commit(&self, writer: &mut Writer) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        let snap = self.snapshot();
        if writer.pending.ops.is_empty() {
            return Ok((snap, CommitReport::default()));
        }
        let mut container = snap.container().clone();
        let report = container
            .commit(&writer.pending.ops)
            .map_err(|e| EngineError::Mutation(e.to_string()))?;
        let next_id = writer.pending.next_id;
        container.reserve_next_id(next_id);

        // Durability: one marker closes the batch. Replaying the log at
        // boot re-seals the identical segment, so nothing else need touch
        // disk here. With the clone above copying no base row, tree or
        // record, commit latency stays flat as the corpus grows (the
        // `engine_commit_*` series of `mutation_path` times this function).
        writer.log(&DeltaOp::Commit { next_id })?;

        let snapshot = self.swap_in(Snapshot::new(container, snap.generation() + 1));
        writer.pending = Pending::at(next_id);
        self.publish(&writer.pending);
        Ok((snapshot, report))
    }

    /// Compacts the index on demand (`POST /compact`, `lshe compact`):
    /// [`ingest`](Self::ingest) of no domains.
    ///
    /// # Errors
    /// As [`ingest`](Self::ingest).
    pub fn compact(&self) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        self.ingest(&Catalog::new())
    }

    /// Bulk-appends `catalog`'s domains (`lshe ingest`) under one hold of
    /// the write lock: seals what is staged as
    /// [`commit_staged`](Self::commit_staged) does, then commits the
    /// domains, at the next free ids, as one batch into the full fold,
    /// [`apply_merge`](Self::apply_merge) of [`MergeTask::Full`]. No domain
    /// is logged: the fold's write persists all of them or none. The
    /// report counts the staged ops applied and every insert sealed.
    ///
    /// # Errors
    /// As [`commit_staged`](Self::commit_staged), then as
    /// [`apply_merge`](Self::apply_merge): a fold that cannot be persisted
    /// adds no domain and leaves the commit standing.
    pub fn ingest(&self, catalog: &Catalog) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        let mut writer = self.writer();
        let (snap, sealed) = self.commit(&mut writer)?;
        let sets: Vec<&[u64]> = catalog.iter().map(|(_, d)| d.hashes()).collect();
        let signatures = snap.hasher().bulk_signatures(&sets);
        let added: Vec<DeltaOp> = (catalog.iter().zip(signatures).zip(writer.pending.next_id..))
            .map(|(((k, domain), signature), id)| {
                let meta = catalog.meta(k);
                let (table, column) = (meta.table.clone(), meta.column.clone());
                let size = domain.len() as u64;
                let record = DomainRecord {
                    id,
                    size,
                    table,
                    column,
                };
                DeltaOp::Insert { record, signature }
            })
            .collect();
        let (snapshot, folded) = self.fold(&writer, &MergeTask::Full, &added)?;
        writer.pending.next_id = snapshot.container().next_id();
        self.publish(&writer.pending);
        let report = CommitReport {
            applied: sealed.applied,
            merged: sealed.merged + added.len(),
            sealed: sealed.sealed || !added.is_empty(),
            ..folded
        };
        Ok((snapshot, report))
    }

    /// Executes one fold as a new snapshot generation — every fold, the
    /// maintenance thread's planned ones and [`compact`](Self::compact)'s:
    /// clones the live container (COW — readers keep their snapshot),
    /// folds what the task names ([`MergeTask::Merge`]: the listed
    /// segments, O(folded entries); [`MergeTask::Full`]: every segment and
    /// tombstone into a rebuilt base, O(corpus)), persists the folded base
    /// (atomic tmp-then-rename), and rewrites the delta log to what is
    /// still staged — the base now embodies every committed batch — or
    /// removes it when nothing is. A full fold then serves the file it
    /// wrote, re-opened in place as a restart would, and is recorded as
    /// [`last_compaction`](Self::last_compaction).
    ///
    /// A fold never commits: staged ops stay staged, answer no query, and
    /// replay as staged after a restart. A partial merge that changes
    /// nothing returns the live snapshot unswapped.
    ///
    /// # Errors
    /// [`EngineError::Io`] when the folded base cannot be persisted — the
    /// fold is abandoned whole: no snapshot swap, delta log untouched.
    pub fn apply_merge(
        &self,
        task: &MergeTask,
    ) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        self.fold(&self.writer(), task, &[])
    }

    /// [`apply_merge`](Self::apply_merge) under the held write lock, with
    /// `added` committed first. The log is rewritten from the staging area,
    /// never read: each staged op is logged before it is staged, and a
    /// commit marker, `open` and `reload` reset both, so the staged ops are
    /// the log's tail after its last marker.
    fn fold(
        &self,
        writer: &Writer,
        task: &MergeTask,
        added: &[DeltaOp],
    ) -> Result<(Arc<Snapshot>, CommitReport), EngineError> {
        let full = *task == MergeTask::Full;
        let snap = self.snapshot();
        let mut container = snap.container().clone();
        container
            .commit(added)
            .map_err(|e| EngineError::Mutation(e.to_string()))?;
        let report = container.apply_merge(task);
        if !full
            && report.entries_folded == 0
            && container.segment_layout() == snap.container().segment_layout()
        {
            return Ok((snap, report));
        }
        container.reserve_next_id(writer.pending.next_id);

        // Persist the folded base, then retire the committed log prefix.
        container.write(&writer.path, || Ok(()))?;
        DeltaLog::sidecar(&writer.path).rewrite(&writer.pending.ops, container.next_id())?;
        // Serve the rebuilt base from the file just written, not from the
        // heap copy the fold built. The fold is durable by now, so a failed
        // re-open keeps that copy.
        if full {
            if let Ok(reopened) = IndexContainer::load(&writer.path) {
                container = reopened;
            }
        }

        let generation = snap.generation() + 1;
        let snapshot = self.swap_in(Snapshot::new(container, generation));
        if full {
            self.last_compaction.store(generation, Ordering::SeqCst);
        }
        Ok((snapshot, report))
    }

    /// Makes `snapshot` the live one. Callers hold the write lock, and
    /// build it at the live generation plus one.
    fn swap_in(&self, snapshot: Snapshot) -> Arc<Snapshot> {
        let snapshot = Arc::new(snapshot);
        *self.current.write().expect("engine lock poisoned") = Arc::clone(&snapshot);
        snapshot
    }

    /// The live snapshot's tier layout, for merge planning.
    #[must_use]
    pub fn segment_layout(&self) -> lshe_core::SegmentLayout {
        self.snapshot().container().segment_layout()
    }

    /// Generation created by the last full fold in this process (a
    /// [`compact`](Self::compact) or a planned [`MergeTask::Full`]); 0 when
    /// none has run since boot.
    #[must_use]
    pub fn last_compaction(&self) -> u64 {
        self.last_compaction.load(Ordering::SeqCst)
    }

    /// Reloads the index from `path` (or the path on record) and swaps it
    /// in as a new generation, opening it exactly as a restart would (see
    /// [`load`](Self::load)): its log's committed batches replay as
    /// segments, and its staged tail becomes the staging area. The
    /// snapshot, the path on record and the staging area change as one
    /// unit. Ops staged against the previous file stay in that file's
    /// log, to replay when it is opened again. In-flight queries keep
    /// their old snapshot; new queries see the new one.
    ///
    /// # Errors
    /// [`EngineError`] on I/O failure, a corrupt file or delta log, a
    /// missing file, or a staged log tail that does not apply to its base
    /// (such as an insert of an id the file already uses) — the old
    /// snapshot, path and staging area stay live in every error case.
    pub fn reload(&self, path: Option<&Path>) -> Result<Arc<Snapshot>, EngineError> {
        let mut writer = self.writer();
        let target = path.map_or_else(|| writer.path.clone(), Path::to_owned);
        let (container, pending) = Self::open(&target)?;
        let generation = self.snapshot().generation() + 1;
        let snapshot = self.swap_in(Snapshot::new(container, generation));
        *writer = Writer {
            path: target,
            pending,
        };
        self.publish(&writer.pending);
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_corpus::{Catalog, Domain, DomainMeta};

    fn catalog(n: usize) -> Catalog {
        let mut c = Catalog::new();
        let pool = MinHasher::synthetic_values(11, 20 * n);
        for k in 0..n {
            c.push(
                Domain::from_hashes(pool[..20 * (k + 1)].to_vec()),
                DomainMeta::new(format!("t{k}"), "col"),
            );
        }
        c
    }

    /// The snapshot's outstanding (segments, tombstones).
    fn tiers(snap: &Snapshot) -> (usize, usize) {
        let layout = snap.container().segment_layout();
        (layout.segments.len(), layout.tombstones)
    }

    fn sig_for(cat: &Catalog, id: u32, num_perm: usize) -> (Signature, u64) {
        let hasher = MinHasher::new(num_perm);
        let d = cat.domain(id);
        (d.signature(&hasher), d.len() as u64)
    }

    /// Threshold hits as `(id, estimate)` pairs.
    fn hits(index: &dyn DomainIndex, sig: &Signature, q: u64, t: f64) -> Vec<(u32, Option<f64>)> {
        let query = Query::threshold(sig, t).with_size(q);
        index.search(&query).expect("valid query").into_pairs()
    }

    #[test]
    fn unsharded_matches_container() {
        let cat = catalog(12);
        let reference = IndexContainer::build(&cat, 4);
        let (engine, _dir) = crate::testkit::file_engine(&reference, "engine");
        let snap = engine.snapshot();
        let (sig, q) = sig_for(&cat, 5, snap.container().num_perm());
        assert_eq!(
            hits(snap.index(), &sig, q, 0.7),
            hits(&*reference.open_index(), &sig, q, 0.7)
        );
    }

    #[test]
    fn load_serves_one_shard_only() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_one_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        let cat = catalog(6);
        IndexContainer::build(&cat, 2).save(&path).expect("save");
        for shards in [0, 2] {
            let err = Engine::load(&path, shards).unwrap_err();
            assert!(matches!(err, EngineError::Config(_)), "{shards}: {err}");
        }
        let snap = Engine::load(&path, 1).expect("one shard").snapshot();
        let (sig, q) = sig_for(&cat, 3, snap.container().num_perm());
        assert!(hits(snap.index(), &sig, q, 0.8)
            .iter()
            .any(|&(id, _)| id == 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_generation_and_preserves_old_snapshot() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");

        let small = IndexContainer::build(&catalog(6), 2);
        std::fs::write(&path, small.to_bytes()).expect("write");
        let engine = Engine::load(&path, 1).expect("load");
        let old = engine.snapshot();
        assert_eq!(old.generation(), 1);
        assert_eq!(old.container().len(), 6);

        // Replaced by rename, as a served file must be: `old` is views into
        // the file it was loaded from.
        let big = IndexContainer::build(&catalog(9), 2);
        big.save(&path).expect("save over");
        let new = engine.reload(None).expect("reload");
        assert_eq!(new.generation(), 2);
        assert_eq!(new.container().len(), 9);
        // The old snapshot is still fully usable (in-flight queries).
        assert_eq!(old.container().len(), 6);
        let (sig, size) = sig_for(&catalog(6), 2, old.container().num_perm());
        assert!(hits(old.index(), &sig, size, 0.9).iter().any(|h| h.0 == 2));
        assert_eq!(engine.snapshot().generation(), 2);

        // A failed reload leaves the current snapshot untouched.
        let garbage = dir.join("garbage");
        std::fs::write(&garbage, b"garbage").expect("write");
        std::fs::rename(&garbage, &path).expect("rename over");
        assert!(engine.reload(None).is_err());
        assert_eq!(engine.snapshot().generation(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sig_of(values: std::ops::Range<u64>, num_perm: usize) -> (Signature, u64) {
        let hasher = MinHasher::new(num_perm);
        let vals: Vec<u64> = values.collect();
        (hasher.signature(vals.iter().copied()), vals.len() as u64)
    }

    #[test]
    fn staged_mutations_commit_into_a_new_generation() {
        let built = IndexContainer::build(&catalog(10), 2);
        let (engine, _dir) = crate::testkit::file_engine(&built, "engine");
        let old = engine.snapshot();
        let (sig, q) = sig_of(50_000..50_040, old.container().num_perm());

        let (id, counts) = engine
            .stage_insert("live".into(), "col".into(), q, sig.clone())
            .expect("stage");
        assert_eq!(id, 10);
        assert_eq!(
            counts,
            StagedCounts {
                inserts: 1,
                removes: 0
            }
        );
        let counts = engine.stage_remove(3).expect("stage remove");
        assert_eq!(
            counts,
            StagedCounts {
                inserts: 1,
                removes: 1
            }
        );
        // Double remove is typed.
        assert!(matches!(
            engine.stage_remove(3),
            Err(EngineError::Mutation(_))
        ));
        // Unknown remove is typed.
        assert!(matches!(
            engine.stage_remove(500),
            Err(EngineError::Mutation(_))
        ));
        // Nothing visible pre-commit.
        assert!(hits(engine.snapshot().index(), &sig, q, 0.9).is_empty());
        assert_eq!(engine.snapshot().generation(), 1);

        let (snap, outcome) = engine.commit_staged().expect("commit");
        assert_eq!(outcome.applied, 2);
        assert_eq!(outcome.merged, 1);
        assert_eq!(snap.generation(), 2);
        assert_eq!(snap.container().len(), 10); // 10 − 1 + 1
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(hit, _)| hit == id));
        assert!(snap.container().record(3).is_none());
        // Pre-commit snapshot is untouched (in-flight queries).
        assert!(old.container().record(3).is_some());
        assert!(hits(old.index(), &sig, q, 0.9).is_empty());
        assert_eq!(engine.staged_counts(), StagedCounts::default());

        // Empty commit: no-op, same generation.
        let (snap, outcome) = engine.commit_staged().expect("empty commit");
        assert_eq!(outcome.applied, 0);
        assert_eq!(snap.generation(), 2);

        // Insert-then-remove before commit cancels out.
        let (id2, _) = engine
            .stage_insert("gone".into(), "col".into(), q, sig.clone())
            .expect("stage");
        engine.stage_remove(id2).expect("remove staged insert");
        let (snap, outcome) = engine.commit_staged().expect("commit");
        assert_eq!(outcome.applied, 2);
        assert_eq!(snap.container().len(), 10);
        assert!(snap.container().record(id2).is_none());
        // Ids are never reused.
        let (id3, _) = engine
            .stage_insert("next".into(), "col".into(), q, sig)
            .expect("stage");
        assert!(id3 > id2);
    }

    #[test]
    fn delta_log_replays_across_restart() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_delta_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(8), 2).to_bytes()).expect("write");

        let (sig, q) = {
            let engine = Engine::load(&path, 1).expect("load");
            let (sig, q) = sig_of(70_000..70_030, engine.snapshot().container().num_perm());
            engine
                .stage_insert("durable".into(), "col".into(), q, sig.clone())
                .expect("stage");
            engine.stage_remove(2).expect("stage remove");
            // Engine dropped WITHOUT commit: ops live only in the log.
            (sig, q)
        };
        assert!(crate::container::DeltaLog::sidecar(&path).exists());

        // Restart: staged ops are replayed as staged (not yet visible)…
        let engine = Engine::load(&path, 1).expect("reload with delta");
        assert_eq!(
            engine.staged_counts(),
            StagedCounts {
                inserts: 1,
                removes: 1
            }
        );
        assert!(hits(engine.snapshot().index(), &sig, q, 0.9).is_empty());
        // …and commit exactly as they would have pre-restart. The commit
        // is marker-only: the base file on disk is untouched.
        let base_before = std::fs::read(&path).expect("base bytes");
        let (snap, outcome) = engine.commit_staged().expect("commit");
        assert_eq!(outcome.applied, 2);
        assert!(outcome.sealed);
        assert_eq!(outcome.segments, 1);
        assert_eq!(outcome.tombstones, 1);
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 8));
        assert!(snap.container().record(2).is_none());
        assert_eq!(
            std::fs::read(&path).expect("base bytes"),
            base_before,
            "segmented commit must not rewrite the base file"
        );
        // The log persists (it carries the committed batch) and replays
        // the identical segment stack on the next boot.
        assert!(crate::container::DeltaLog::sidecar(&path).exists());
        let fresh = Engine::load(&path, 1).expect("load committed");
        assert_eq!(fresh.snapshot().container().len(), 8);
        assert_eq!(fresh.staged_counts(), StagedCounts::default());
        assert_eq!(
            fresh.snapshot().container().segment_layout(),
            snap.container().segment_layout()
        );
        assert!(hits(fresh.snapshot().index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 8));
        // Compaction folds the batch into the base and retires the log.
        let (folded, report) = fresh.compact().expect("compact");
        assert_eq!(report.entries_folded, 8);
        assert_eq!(tiers(&folded), (0, 0));
        assert!(!crate::container::DeltaLog::sidecar(&path).exists());
        assert_eq!(fresh.last_compaction(), folded.generation());
        let after = Engine::load(&path, 1).expect("load compacted");
        assert_eq!(after.snapshot().container().len(), 8);
        assert!(hits(after.snapshot().index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn already_committed_delta_log_replays_idempotently() {
        // The crash window a compaction leaves open: folded base renamed
        // (ops embodied), process dies before the log clear. The stale
        // log must replay as a no-op and be retired — never wedge the
        // boot, never double-apply.
        let dir = std::env::temp_dir().join(format!("lshe_engine_stale_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(7), 2).to_bytes()).expect("write");

        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(60_000..60_030, engine.snapshot().container().num_perm());
        engine
            .stage_insert("survivor".into(), "col".into(), q, sig.clone())
            .expect("stage");
        engine.stage_remove(2).expect("stage");
        engine.commit_staged().expect("commit");
        // Capture the log as committed (batch + marker), compact (which
        // clears it), then put the stale copy back — simulating a crash
        // between the base rename and the log clear.
        let log = crate::container::DeltaLog::sidecar(&path);
        let stale = std::fs::read(log.path()).expect("log bytes");
        engine.compact().expect("compact");
        assert!(!log.exists());
        std::fs::write(log.path(), &stale).expect("restore stale log");
        drop(engine);

        let engine = Engine::load(&path, 1).expect("boot over stale log");
        assert_eq!(engine.staged_counts(), StagedCounts::default());
        assert!(!log.exists(), "fully-applied log must be retired at load");
        let snap = engine.snapshot();
        assert_eq!(snap.container().len(), 7); // 7 − 1 + 1
        assert_eq!(
            tiers(&snap),
            (0, 0),
            "embodied batches must not re-seal segments"
        );
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 7));
        assert!(snap.container().record(2).is_none());
        // The id allocator stays past the replayed insert's id.
        let (next, _) = engine
            .stage_insert("after".into(), "col".into(), q, sig)
            .expect("stage");
        assert_eq!(next, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compacts, then puts the log back as it stood before the fold: the
    /// state a crash after the fold's rename and before its log rewrite
    /// leaves.
    fn compact_then_crash_before_the_log_rewrite(engine: Engine, path: &Path) {
        let log = crate::container::DeltaLog::sidecar(path);
        let before = std::fs::read(log.path()).expect("log bytes");
        engine.compact().expect("compact");
        drop(engine);
        std::fs::write(log.path(), before).expect("put the pre-fold log back");
    }

    /// An explicit id inserted, removed and inserted again in one batch:
    /// after a fold crash, the base holds the second insert, and replay
    /// must not read the log's first insert as that one.
    #[test]
    fn a_fold_crash_keeps_an_id_reinserted_in_one_batch() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_p1_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        IndexContainer::build(&catalog(6), 2)
            .save(&path)
            .expect("save");
        let engine = Engine::load(&path, 1).expect("load");
        let num_perm = engine.snapshot().container().num_perm();
        let (first, q) = sig_of(10_000..10_030, num_perm);
        let (second, _) = sig_of(20_000..20_030, num_perm);
        let insert = |sig: &Signature| {
            engine
                .stage_insert_as("t".into(), "c".into(), q, sig.clone(), Some(50))
                .expect("stage insert 50")
        };
        insert(&first);
        engine.stage_remove(50).expect("stage remove 50");
        insert(&second);
        engine.commit_staged().expect("commit");
        compact_then_crash_before_the_log_rewrite(engine, &path);

        let engine = Engine::load(&path, 1).expect("restart after the fold crash");
        let snap = engine.snapshot();
        assert!(snap.container().record(50).is_some(), "id 50 was lost");
        assert!(hits(snap.index(), &second, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 50));
        assert!(hits(snap.index(), &first, q, 0.9).is_empty());
        assert_eq!(engine.next_id(), 51);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same id inserted, removed and inserted again across three
    /// commits, with other provenance the second time: a fold crash must
    /// leave a restart serving what the clean restart serves.
    #[test]
    fn a_fold_crash_keeps_an_id_reinserted_across_batches() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_p2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        IndexContainer::build(&catalog(6), 2)
            .save(&path)
            .expect("save");
        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(30_000..30_030, engine.snapshot().container().num_perm());
        let insert = |table: &str| {
            engine
                .stage_insert_as(table.into(), "c".into(), q, sig.clone(), Some(50))
                .expect("stage insert 50");
            engine.commit_staged().expect("commit");
        };
        insert("t1");
        engine.stage_remove(50).expect("stage remove 50");
        engine.commit_staged().expect("commit");
        insert("t2");
        compact_then_crash_before_the_log_rewrite(engine, &path);

        let engine = Engine::load(&path, 1).expect("restart after the fold crash");
        let snap = engine.snapshot();
        assert_eq!(snap.container().record(50).expect("id 50").table, "t2");
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 50));
        // The fold's log rewrite is finished: nothing is left to replay.
        assert!(!crate::container::DeltaLog::sidecar(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One batch rule, the core's: a committed id removed earlier in the
    /// batch may be inserted again, and a restart agrees.
    #[test]
    fn a_committed_id_removed_then_reinserted_in_one_batch_is_accepted() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_again_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        IndexContainer::build(&catalog(6), 2)
            .save(&path)
            .expect("save");
        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(35_000..35_030, engine.snapshot().container().num_perm());
        let insert = || engine.stage_insert_as("new".into(), "c".into(), q, sig.clone(), Some(3));
        assert!(matches!(insert(), Err(EngineError::Mutation(_))));
        engine.stage_remove(3).expect("stage remove 3");
        let (id, counts) = insert().expect("re-insert 3 after its remove");
        assert_eq!((id, counts.inserts, counts.removes), (3, 1, 1));
        assert!(matches!(insert(), Err(EngineError::Mutation(_))));
        let (snap, report) = engine.commit_staged().expect("commit");
        assert_eq!((report.applied, snap.container().len()), (2, 6));
        assert_eq!(snap.container().record(3).expect("id 3").table, "new");
        drop(engine);
        let restarted = Engine::load(&path, 1).expect("restart");
        let snap = restarted.snapshot();
        assert_eq!(snap.container().record(3).expect("id 3").table, "new");
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_planned_full_fold_never_commits_staged_ops() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_fold_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        IndexContainer::build(&catalog(8), 2)
            .save(&path)
            .expect("save");

        // Three tombstones over five live domains: past the ratio.
        let engine = Engine::load(&path, 1).expect("load");
        for id in 0..3 {
            engine.stage_remove(id).expect("stage remove");
        }
        engine.commit_staged().expect("commit removes");
        let (sig, q) = sig_of(80_000..80_030, engine.snapshot().container().num_perm());
        let (id, _) = engine
            .stage_insert("staged".into(), "col".into(), q, sig.clone())
            .expect("stage");
        let tasks = lshe_core::Leveled::default().plan(&engine.segment_layout());
        assert_eq!(tasks, [MergeTask::Full]);

        let (folded, report) = engine.apply_merge(&tasks[0]).expect("full fold");
        assert_eq!(tiers(&folded), (0, 0));
        assert_eq!((report.applied, report.entries_folded), (0, 5));
        let answers = |snap: &Snapshot| hits(snap.index(), &sig, q, 0.5);
        assert!(answers(&engine.snapshot())
            .iter()
            .all(|&(hit, _)| hit != id));
        assert_eq!(engine.staged_counts().inserts, 1);
        let restarted = Engine::load(&path, 1).expect("restart after the fold");
        assert_eq!(restarted.staged_counts().inserts, 1);
        assert!(answers(&restarted.snapshot())
            .iter()
            .all(|&(hit, _)| hit != id));
        drop(restarted);

        let (committed, report) = engine.commit_staged().expect("commit the insert");
        assert_eq!(report.applied, 1);
        assert!(answers(&committed).iter().any(|&(hit, _)| hit == id));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fold rewrites the log from the staging area, never from the file:
    /// bytes no op owns after the last acknowledged op are dropped, and a
    /// restart serves exactly what was acknowledged.
    #[test]
    fn a_fold_trusts_the_staging_area_over_the_log_file() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_trust_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        IndexContainer::build(&catalog(6), 2)
            .save(&path)
            .expect("save");
        let log = crate::container::DeltaLog::sidecar(&path);
        let litter = || {
            use std::io::Write as _;
            let file = std::fs::OpenOptions::new().append(true).open(log.path());
            let junk = [7, 0, 0, 0, b'j', b'u', b'n', b'k'];
            file.expect("open the log")
                .write_all(&junk)
                .expect("append");
        };
        let engine = Engine::load(&path, 1).expect("load");
        let num_perm = engine.snapshot().container().num_perm();
        let (first, q) = sig_of(12_000..12_030, num_perm);
        let (second, _) = sig_of(13_000..13_030, num_perm);
        let stage = |sig: &Signature| engine.stage_insert("t".into(), "c".into(), q, sig.clone());
        let (a, _) = stage(&first).expect("stage");
        engine.commit_staged().expect("commit");
        let (b, _) = stage(&second).expect("stage");
        engine.stage_remove(1).expect("stage remove");

        // A full fold keeps what is staged staged, and only that.
        litter();
        engine.apply_merge(&MergeTask::Full).expect("fold");
        let restarted = Engine::load(&path, 1).expect("restart after the fold");
        let staged = StagedCounts {
            inserts: 1,
            removes: 1,
        };
        assert_eq!(restarted.staged_counts(), staged);
        assert_eq!(restarted.snapshot().container().len(), 7);
        drop(restarted);

        // A compaction commits it, and retires the log.
        litter();
        engine.compact().expect("compact");
        assert!(!log.exists());
        let restarted = Engine::load(&path, 1).expect("restart after the compaction");
        assert_eq!(restarted.staged_counts(), StagedCounts::default());
        let snap = restarted.snapshot();
        assert_eq!(snap.container().len(), 7); // 6 + 2 − 1
        assert!(snap.container().record(1).is_none());
        for (id, sig) in [(a, &first), (b, &second)] {
            assert!(hits(snap.index(), sig, q, 0.9).iter().any(|h| h.0 == id));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_never_reuses_a_removed_id() {
        // Removing the highest-id domain used to shrink `max(id) + 1`, so
        // a restart re-issued the removed id and stale references rebound
        // to a brand-new domain. The allocator mark now persists in the
        // commit marker, the v2 container trailer, and the log header.
        let dir = std::env::temp_dir().join(format!("lshe_engine_reuse_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(6), 2).to_bytes()).expect("write");

        let engine = Engine::load(&path, 1).expect("load");
        assert_eq!(engine.next_id(), 6);
        engine.stage_remove(5).expect("stage remove of max id");
        engine.commit_staged().expect("commit");
        drop(engine);

        // Restart straight off the log (marker carries the mark).
        let engine = Engine::load(&path, 1).expect("restart");
        assert_eq!(engine.next_id(), 6, "removed id 5 must stay burned");
        // And off the compacted base (v2 trailer carries the mark).
        engine.compact().expect("compact");
        drop(engine);
        let engine = Engine::load(&path, 1).expect("restart after compact");
        assert_eq!(engine.next_id(), 6, "mark must survive compaction too");
        let (sig, q) = sig_of(40_000..40_020, engine.snapshot().container().num_perm());
        let (id, _) = engine
            .stage_insert("fresh".into(), "col".into(), q, sig)
            .expect("stage");
        assert_eq!(id, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_at_each_commit_stage_recovers_exactly_the_acked_state() {
        // Walk the commit path's crash points by reconstructing the log
        // the process would have left at each: (a) ops appended, no
        // marker — staged only, nothing acked as committed; (b) marker
        // appended — commit acked, replay must reproduce the segment;
        // (c) a marker torn mid-append — typed error, never a silent
        // half-commit.
        let dir = std::env::temp_dir().join(format!("lshe_engine_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(6), 2).to_bytes()).expect("write");

        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(45_000..45_030, engine.snapshot().container().num_perm());
        engine
            .stage_insert("acked".into(), "col".into(), q, sig.clone())
            .expect("stage");
        engine.stage_remove(1).expect("stage");
        let log = crate::container::DeltaLog::sidecar(&path);
        let staged_only = std::fs::read(log.path()).expect("log bytes");
        engine.commit_staged().expect("commit");
        let with_marker = std::fs::read(log.path()).expect("log bytes");
        drop(engine);

        // (a) Crash after the op appends, before the marker: the ops are
        // staged (durable, not yet queryable) — exactly what was acked.
        std::fs::write(log.path(), &staged_only).expect("restore");
        let engine = Engine::load(&path, 1).expect("boot (a)");
        assert_eq!(
            engine.staged_counts(),
            StagedCounts {
                inserts: 1,
                removes: 1
            }
        );
        assert!(hits(engine.snapshot().index(), &sig, q, 0.9).is_empty());
        assert_eq!(tiers(&engine.snapshot()), (0, 0));
        drop(engine);

        // (b) Crash right after the marker append: the commit was acked,
        // so replay must surface it — sealed segment, tombstone, hits.
        std::fs::write(log.path(), &with_marker).expect("restore");
        let engine = Engine::load(&path, 1).expect("boot (b)");
        assert_eq!(engine.staged_counts(), StagedCounts::default());
        assert_eq!(tiers(&engine.snapshot()), (1, 1));
        assert!(hits(engine.snapshot().index(), &sig, q, 0.9)
            .iter()
            .any(|&(id, _)| id == 6));
        assert!(engine.snapshot().container().record(1).is_none());
        drop(engine);

        // (c) Marker torn mid-append: typed Torn error at boot.
        for cut in 1..8 {
            std::fs::write(log.path(), &with_marker[..with_marker.len() - cut])
                .expect("tear marker");
            let err = Engine::load(&path, 1).unwrap_err();
            assert!(matches!(err, EngineError::Index(_)), "cut {cut}: {err}");
            assert!(err.to_string().contains("torn"), "cut {cut}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_delta_log_fails_load_with_typed_error() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_torn_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(6), 2).to_bytes()).expect("write");
        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(80_000..80_020, engine.snapshot().container().num_perm());
        engine
            .stage_insert("t".into(), "c".into(), q, sig)
            .expect("stage");
        drop(engine);
        // Tear the final entry.
        let log_path = crate::container::DeltaLog::sidecar(&path).path().to_owned();
        let bytes = std::fs::read(&log_path).expect("read log");
        std::fs::write(&log_path, &bytes[..bytes.len() - 3]).expect("tear");
        let err = Engine::load(&path, 1).unwrap_err();
        assert!(matches!(err, EngineError::Index(_)), "{err}");
        assert!(err.to_string().contains("torn"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_during_staging_keeps_ops_and_commits_after() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_race_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        std::fs::write(&path, IndexContainer::build(&catalog(9), 2).to_bytes()).expect("write");
        let engine = Engine::load(&path, 1).expect("load");
        let (sig, q) = sig_of(90_000..90_025, engine.snapshot().container().num_perm());
        let (id, _) = engine
            .stage_insert("racer".into(), "col".into(), q, sig.clone())
            .expect("stage");
        // Hot reload (same file) lands between staging and commit.
        engine.reload(None).expect("reload");
        assert_eq!(engine.snapshot().generation(), 2);
        assert_eq!(engine.staged_counts().inserts, 1, "staging survived");
        let (snap, outcome) = engine.commit_staged().expect("commit after reload");
        assert_eq!(outcome.applied, 1);
        assert_eq!(snap.generation(), 3);
        assert!(hits(snap.index(), &sig, q, 0.9)
            .iter()
            .any(|&(hit, _)| hit == id));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A route answered inline on the reactor thread that took the writer
    /// would stall every connection behind a fold: a debug build refuses it.
    #[test]
    fn the_writer_refuses_a_reactor_thread_in_a_debug_build() {
        let built = IndexContainer::build(&catalog(5), 2);
        let (engine, _dir) = crate::testkit::file_engine(&built, "engine");
        let taken = std::thread::scope(|scope| {
            let on_reactor = scope.spawn(|| {
                crate::reactor::mark_reactor_thread();
                drop(engine.writer());
            });
            on_reactor.join()
        });
        assert_eq!(taken.is_err(), cfg!(debug_assertions));
        // The refusal came before the lock: other threads still take it.
        drop(engine.writer());
    }

    /// Ops staged against one file stay in that file's log across a
    /// reload onto another, whose staged tail becomes the staging area:
    /// what the engine then serves is what a restart from either file
    /// recovers.
    #[test]
    fn reload_onto_another_file_leaves_staged_ops_in_the_old_log() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_other_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (a, b) = (dir.join("a.lshe"), dir.join("b.lshe"));
        let built = IndexContainer::build(&catalog(6), 2);
        built.save(&a).expect("save a");
        built.save(&b).expect("save b");
        let engine = Engine::load(&a, 1).expect("load a");
        let (sig, q) = sig_of(95_000..95_030, built.num_perm());
        let (id, _) = engine
            .stage_insert("moved".into(), "col".into(), q, sig)
            .expect("stage on a");
        engine.reload(Some(&b)).expect("reload onto b");
        assert_eq!(engine.staged_counts(), StagedCounts::default());
        let (snap, report) = engine.commit_staged().expect("commit on b");
        assert_eq!(report.applied, 0);
        assert!(snap.container().record(id).is_none());
        drop(engine);

        let restarted = Engine::load(&b, 1).expect("restart from b");
        assert!(restarted.snapshot().container().record(id).is_none());
        assert_eq!(restarted.staged_counts(), StagedCounts::default());
        let original = Engine::load(&a, 1).expect("restart from a");
        assert_eq!(original.staged_counts().inserts, 1);
        let (snap, report) = original.commit_staged().expect("commit on a");
        assert_eq!(report.applied, 1);
        assert!(snap.container().record(id).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A reload stages what the target's log stages, as a restart does,
    /// so a later commit applies it and a restart agrees.
    #[test]
    fn reload_stages_the_target_logs_staged_tail() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_tail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let (c, d) = (dir.join("c.lshe"), dir.join("d.lshe"));
        let built = IndexContainer::build(&catalog(6), 2);
        built.save(&c).expect("save c");
        built.save(&d).expect("save d");
        Engine::load(&d, 1)
            .expect("load d")
            .stage_remove(3)
            .expect("stage remove on d");

        let engine = Engine::load(&c, 1).expect("load c");
        engine.reload(Some(&d)).expect("reload onto d");
        assert_eq!(engine.staged_counts().removes, 1);
        let (snap, report) = engine.commit_staged().expect("commit on d");
        assert_eq!(report.applied, 1);
        assert!(snap.container().record(3).is_none());
        let restarted = Engine::load(&d, 1).expect("restart from d");
        assert_eq!(
            restarted.snapshot().container().record(3).is_some(),
            snap.container().record(3).is_some()
        );
        assert_eq!(restarted.staged_counts(), StagedCounts::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_packed_file_is_refused_at_load_and_at_reload() {
        let dir = std::env::temp_dir().join(format!("lshe_engine_packed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let packed = dir.join("idx.lshepk");
        let cat = catalog(8);
        let source = IndexContainer::build(&cat, 2);
        source.pack_v2(&packed).expect("pack");
        let named = |err: &EngineError| {
            let msg = err.to_string();
            matches!(err, EngineError::Index(_))
                && msg.contains("idx.lshepk")
                && msg.contains("header")
        };

        let err = Engine::load(&packed, 1).unwrap_err();
        assert!(named(&err), "got {err}");

        // A reload onto it fails the same way, and the live snapshot keeps
        // answering at its generation.
        let path = dir.join("idx.lshe");
        source.save(&path).expect("save");
        let engine = Engine::load(&path, 1).expect("load");
        let sig = cat.domain(3).signature(&MinHasher::new(source.num_perm()));
        let before = hits(engine.snapshot().index(), &sig, 80, 0.7);
        assert!(before.iter().any(|&(id, _)| id == 3));
        let err = engine.reload(Some(&packed)).unwrap_err();
        assert!(named(&err), "got {err}");
        let snap = engine.snapshot();
        assert_eq!(snap.generation(), 1);
        assert_eq!(hits(snap.index(), &sig, 80, 0.7), before);
        // The path on record is still the `.lshe`: a bare reload takes it.
        assert_eq!(engine.reload(None).expect("reload").generation(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
