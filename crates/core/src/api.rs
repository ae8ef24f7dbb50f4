//! The unified query surface: one object-safe trait over every index.
//!
//! The paper treats LSH Ensemble as *one* domain-search operator and
//! evaluates it against interchangeable alternatives — MinHash LSH, LSH
//! Forest, and Asymmetric Minwise Hashing (§6.1) — under identical query
//! rules. This module gives the workspace the same shape: a typed
//! [`Query`] (signature + size + [`QueryMode`]) goes in, a
//! [`SearchOutcome`] (hits + optional containment estimates + per-query
//! [`QueryStats`]) comes out, and every index — the ensemble, its mapped
//! variant, its unranked view and the other baselines, and the exact
//! ground-truth engine — answers through the same [`DomainIndex`] trait.
//!
//! Because the trait is object safe, callers that must pick a backend at
//! runtime (the server's snapshot engine, the CLI, the experiment
//! harness) hold a `Box<dyn DomainIndex>` and never match on concrete
//! types.
//!
//! ```
//! use lshe_core::{DomainIndex, LshEnsemble, Query};
//! use lshe_minhash::MinHasher;
//!
//! let hasher = MinHasher::new(256);
//! let pool = MinHasher::synthetic_values(1, 300);
//! let mut builder = LshEnsemble::builder();
//! for (id, n) in [(0u32, 100usize), (1, 200), (2, 300)] {
//!     builder.add(id, n as u64, hasher.signature(pool[..n].iter().copied()));
//! }
//! let index: Box<dyn DomainIndex> = Box::new(builder.build());
//!
//! let sig = hasher.signature(pool[..100].iter().copied());
//! let outcome = index
//!     .search(&Query::threshold(&sig, 0.5).with_size(100))
//!     .expect("valid query");
//! assert!(outcome.hits.iter().any(|h| h.id == 0));
//! assert!(outcome.stats.partitions_probed <= outcome.stats.partitions_total);
//! ```

use crate::ranked::merge_unique;
use lshe_lsh::DomainId;
use lshe_minhash::Signature;
use std::sync::Arc;

/// Slack applied when pruning candidates by *estimated* containment:
/// estimates are noisy at roughly ±1/√m, so candidates whose estimate
/// falls just below the threshold are kept rather than dropped. Shared by
/// [`LshEnsemble`](crate::LshEnsemble)'s search and the serve layer.
pub const ESTIMATE_SLACK: f64 = 0.1;

/// What a query asks for: everything past a containment threshold, or the
/// `k` best domains by estimated containment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMode {
    /// Threshold search (Eq. 2): all domains with `t(Q, X) ⪆ t*`.
    Threshold(f64),
    /// Top-k search: the `k` best domains by estimated containment.
    /// Requires a backend that retains per-domain sketches.
    TopK(usize),
}

/// A typed domain-search query, built in builder style:
///
/// ```
/// # use lshe_core::{Query, QueryMode};
/// # use lshe_minhash::MinHasher;
/// let hasher = MinHasher::new(256);
/// let sig = hasher.signature(MinHasher::synthetic_values(1, 50));
/// let q = Query::threshold(&sig, 0.7).with_size(50);
/// assert_eq!(q.size(), Some(50));
/// assert_eq!(q.mode(), QueryMode::Threshold(0.7));
/// ```
///
/// The signature is borrowed, so building a query never copies sketch
/// data. When no size is supplied the index estimates `|Q|` from the
/// signature (`approx(|Q|)`, §5.1).
#[derive(Debug, Clone)]
pub struct Query<'a> {
    signature: &'a Signature,
    size: Option<u64>,
    mode: QueryMode,
    hashes: Option<&'a [u64]>,
}

impl<'a> Query<'a> {
    /// A threshold query at containment threshold `t_star`.
    #[must_use]
    pub fn threshold(signature: &'a Signature, t_star: f64) -> Self {
        Self {
            signature,
            size: None,
            mode: QueryMode::Threshold(t_star),
            hashes: None,
        }
    }

    /// A top-k query for the `k` best domains.
    #[must_use]
    pub fn top_k(signature: &'a Signature, k: usize) -> Self {
        Self {
            signature,
            size: None,
            mode: QueryMode::TopK(k),
            hashes: None,
        }
    }

    /// Sets the exact query cardinality `|Q|` (otherwise estimated from
    /// the signature).
    #[must_use]
    pub fn with_size(mut self, size: u64) -> Self {
        self.size = Some(size);
        self
    }

    /// Attaches the query's raw universe hashes. Only exact (ground-truth)
    /// backends need them; sketch-based indexes ignore them.
    #[must_use]
    pub fn with_hashes(mut self, hashes: &'a [u64]) -> Self {
        self.hashes = Some(hashes);
        self
    }

    /// The query signature.
    #[must_use]
    pub fn signature(&self) -> &Signature {
        self.signature
    }

    /// The caller-supplied exact size, if any.
    #[must_use]
    pub fn size(&self) -> Option<u64> {
        self.size
    }

    /// The query mode.
    #[must_use]
    pub fn mode(&self) -> QueryMode {
        self.mode
    }

    /// The raw universe hashes, if attached.
    #[must_use]
    pub fn hashes(&self) -> Option<&[u64]> {
        self.hashes
    }

    /// The query cardinality: the supplied size, or the signature's
    /// estimate (never 0).
    #[must_use]
    pub fn effective_size(&self) -> u64 {
        self.size
            .unwrap_or_else(|| self.signature.cardinality().round().max(1.0) as u64)
    }

    /// Validates the query against an index of signature width `num_perm`.
    ///
    /// # Errors
    /// [`QueryError::Invalid`] on a width mismatch, an out-of-range
    /// threshold, `k == 0`, or an explicit size of 0.
    pub fn validate_for(&self, num_perm: usize) -> Result<(), QueryError> {
        if self.signature.len() != num_perm {
            return Err(QueryError::Invalid(format!(
                "signature width mismatch: query has {}, index expects {num_perm}",
                self.signature.len()
            )));
        }
        if self.size == Some(0) {
            return Err(QueryError::Invalid("query size must be positive".into()));
        }
        match self.mode {
            QueryMode::Threshold(t) if !(0.0..=1.0).contains(&t) => Err(QueryError::Invalid(
                format!("containment threshold must be in [0, 1], got {t}"),
            )),
            QueryMode::TopK(0) => Err(QueryError::Invalid("k must be positive".into())),
            _ => Ok(()),
        }
    }
}

/// One op of a batch [`LshEnsemble::commit`](crate::LshEnsemble::commit)
/// applies: ops take effect in batch order, so a remove may cancel an
/// insert earlier in the same batch, and an insert may re-use an id a
/// remove earlier in it freed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation<'a> {
    /// Index a new domain: `(id, size, signature)` — an id no live domain
    /// holds, its exact (positive) cardinality, and its MinHash signature,
    /// as wide as the index's `num_perm`.
    Insert(DomainId, u64, &'a Signature),
    /// Drop a live domain.
    Remove(DomainId),
}

/// Why a mutation could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// The id is already indexed (ids must stay unique).
    DuplicateId(DomainId),
    /// The id is not indexed (removal of an unknown or already-removed
    /// domain).
    UnknownId(DomainId),
    /// The mutation itself is malformed (zero size, signature width
    /// mismatch).
    Invalid(String),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DuplicateId(id) => write!(f, "duplicate domain id {id}"),
            Self::UnknownId(id) => write!(f, "unknown domain id {id}"),
            Self::Invalid(msg) => write!(f, "invalid mutation: {msg}"),
        }
    }
}

impl std::error::Error for MutationError {}

/// What one [`LshEnsemble::commit`](crate::LshEnsemble::commit),
/// [`LshEnsemble::compact`](crate::LshEnsemble::compact) or
/// [`LshEnsemble::apply_merge`](crate::LshEnsemble::apply_merge) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitReport {
    /// Ops this commit applied: the batch's inserts and removes (0 for a
    /// fold).
    pub applied: usize,
    /// Inserts this commit sealed into a segment: the batch's inserts
    /// less those a later remove in it cancelled.
    pub merged: usize,
    /// Whether the commit sealed a segment (`merged > 0`).
    pub sealed: bool,
    /// Sealed segments outstanding afterwards (0 right after
    /// [`LshEnsemble::compact`](crate::LshEnsemble::compact)).
    pub segments: usize,
    /// Tombstoned ids outstanding afterwards.
    pub tombstones: usize,
    /// Live entries a fold rewrote: every one when a compaction rebuilt
    /// the base, those of the folded segments for a partial merge, 0 when a
    /// commit only sealed (the fold cost; multiply by the per-entry byte
    /// width for fold bytes).
    pub entries_folded: usize,
}

/// Why a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query itself is malformed (bad threshold, zero k/size, wrong
    /// signature width).
    Invalid(String),
    /// The backend cannot answer this query shape (e.g. top-k on an index
    /// that retains no sketches, or an exact search without raw values).
    Unsupported(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Invalid(msg) => write!(f, "invalid query: {msg}"),
            Self::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// One answer: the domain id and size, plus the estimated containment
/// `t̂(Q, X)` when the backend retains enough state to compute one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The candidate domain.
    pub id: DomainId,
    /// The domain's cardinality, as the index holds it.
    pub size: u64,
    /// Estimated (or, for exact backends, true) containment, when known.
    pub estimate: Option<f64>,
}

/// Per-query execution counters, for observability and tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Partitions whose LSH was actually consulted (skip-pruned ones are
    /// excluded; for top-k the maximum over descent passes).
    pub partitions_probed: usize,
    /// Total partitions across the index.
    pub partitions_total: usize,
    /// Raw candidates generated by the LSH before dedup/post-filtering.
    pub candidates: usize,
    /// Hits surviving dedup and any estimate post-filter (= `hits.len()`).
    pub survivors: usize,
    /// Execution time of the search, in microseconds: the time *attributed
    /// to this query* within its batch (its probes, dedup, and ranking; a
    /// single [`DomainIndex::search`] is a batch of one), so per-query
    /// cost stays meaningful when many queries interleave.
    pub wall_micros: u64,
}

/// The result of one [`DomainIndex::search`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The answer set. Backends with estimates sort by estimate
    /// (descending, ties by id); others sort by id (ascending).
    pub hits: Vec<SearchHit>,
    /// Execution counters for this query.
    pub stats: QueryStats,
}

impl SearchOutcome {
    /// Assembles an outcome from finished hits, probe counters and the
    /// execution time in nanoseconds, by the shared convention: `survivors
    /// = hits.len()`. Every backend builds its outcome through here (the
    /// batched paths pass the time attributed to one query across the
    /// partition-outer sweep instead of bracketing one `Instant`).
    #[must_use]
    pub fn new(hits: Vec<SearchHit>, probe: ProbeCounts, nanos: u64) -> Self {
        let survivors = hits.len();
        Self {
            hits,
            stats: QueryStats {
                partitions_probed: probe.probed,
                partitions_total: probe.total,
                candidates: probe.candidates,
                survivors,
                wall_micros: nanos / 1_000,
            },
        }
    }

    /// The hit ids, in outcome order.
    #[must_use]
    pub fn ids(&self) -> Vec<DomainId> {
        self.hits.iter().map(|h| h.id).collect()
    }

    /// The hits as `(id, estimate)` pairs, in outcome order.
    #[must_use]
    pub fn into_pairs(self) -> Vec<(DomainId, Option<f64>)> {
        self.hits.into_iter().map(|h| (h.id, h.estimate)).collect()
    }
}

/// The probe counters a search threads into its [`SearchOutcome`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounts {
    /// Partitions consulted.
    pub probed: usize,
    /// Partitions in the index.
    pub total: usize,
    /// Raw candidates before dedup.
    pub candidates: usize,
}

/// The shared top-k strategy: descend through containment thresholds
/// (1.0, 0.9, …, 0.0), querying the backend via `query_at`, until at
/// least `k` distinct candidates accumulate. Probe counters follow the
/// top-k convention — candidates sum across passes, partitions probed is
/// the per-pass maximum (so it stays ≤ total).
pub(crate) fn top_k_descend<C: Ord + Copy>(
    k: usize,
    mut query_at: impl FnMut(f64) -> (Vec<C>, ProbeCounts),
) -> (Vec<C>, ProbeCounts) {
    let mut seen: Vec<C> = Vec::new();
    let mut probe = ProbeCounts::default();
    for step in (0..=10u32).rev() {
        let t = f64::from(step) / 10.0;
        let (cands, p) = query_at(t);
        probe.probed = probe.probed.max(p.probed);
        probe.total = p.total;
        probe.candidates += p.candidates;
        // per-pass results are sorted; merge-dedup against `seen`.
        seen = merge_unique(&seen, &cands);
        if seen.len() >= k || step == 0 {
            break;
        }
    }
    (seen, probe)
}

/// One query surface over every index in the workspace.
///
/// The trait is object safe (`Box<dyn DomainIndex>` is how the server,
/// the CLI, and the benches hold their backend) and `Send + Sync`, so a
/// boxed index can be shared across worker threads behind an `Arc`.
pub trait DomainIndex: std::fmt::Debug + Send + Sync {
    /// Answers a batch of queries, one result per query in request order:
    /// the one search method a backend implements.
    ///
    /// A sketch-based backend runs every threshold query of the batch
    /// through one partition-outer sweep: each partition is probed once per
    /// group of queries (while its forest is hot), dedup scratch is reused
    /// across queries, and thread fan-out happens once per batch. That
    /// sweep is the only one, so each query yields exactly the hits and
    /// deterministic [`QueryStats`] fields it would in a batch of one
    /// (`wall_micros` reports the execution time attributed to that
    /// query). A malformed or unsupported query yields its [`QueryError`]
    /// in position without affecting the other queries — never a panic,
    /// never a whole-batch failure.
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>>;

    /// Answers one query: a batch of one.
    ///
    /// # Errors
    /// [`QueryError::Invalid`] for malformed queries and
    /// [`QueryError::Unsupported`] for query shapes the backend cannot
    /// answer — never a panic.
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        let mut one = self.search_batch(std::slice::from_ref(query));
        one.pop().expect("one result per query")
    }

    /// Number of indexed domains.
    fn len(&self) -> usize;

    /// True if the index holds no domains.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory of the index, in bytes.
    fn memory_bytes(&self) -> usize;

    /// The part of [`memory_bytes`](Self::memory_bytes) that is not heap
    /// but views into a mapped index file, resident only where queries
    /// reach: 0 for a backend that holds all it counts.
    fn mapped_bytes(&self) -> usize {
        0
    }

    /// Approximate heap bytes of the id overlay — where each id a mutation
    /// changed lives, which a search keeps live rows by — beside
    /// [`memory_bytes`](Self::memory_bytes), not part of it: 0 for a backend
    /// that keeps none.
    fn id_map_bytes(&self) -> usize {
        0
    }

    /// One-line human-readable description (used as the series label by
    /// the experiment harness).
    fn describe(&self) -> String;
}

impl<T: DomainIndex + ?Sized> DomainIndex for Arc<T> {
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        (**self).search_batch(queries)
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn memory_bytes(&self) -> usize {
        (**self).memory_bytes()
    }

    fn mapped_bytes(&self) -> usize {
        (**self).mapped_bytes()
    }

    fn id_map_bytes(&self) -> usize {
        (**self).id_map_bytes()
    }

    fn describe(&self) -> String {
        (**self).describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{EnsembleConfig, LshEnsemble};
    use crate::partition::PartitionStrategy;
    use lshe_minhash::MinHasher;

    fn nested(n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature)>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(5, 25 * n);
        let entries = (0..n)
            .map(|k| {
                let vals = &pool[..25 * (k + 1)];
                (
                    k as DomainId,
                    vals.len() as u64,
                    h.signature(vals.iter().copied()),
                )
            })
            .collect();
        (h, entries)
    }

    fn config(parts: usize) -> EnsembleConfig {
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: parts },
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn query_builder_roundtrip() {
        let h = MinHasher::new(256);
        let sig = h.signature(MinHasher::synthetic_values(1, 40));
        let hashes = [1u64, 2, 3];
        let q = Query::threshold(&sig, 0.7)
            .with_size(40)
            .with_hashes(&hashes);
        assert_eq!(q.size(), Some(40));
        assert_eq!(q.effective_size(), 40);
        assert_eq!(q.hashes(), Some(&hashes[..]));
        assert_eq!(q.mode(), QueryMode::Threshold(0.7));
        assert!(q.validate_for(256).is_ok());
    }

    #[test]
    fn query_size_estimated_when_absent() {
        let h = MinHasher::new(256);
        let sig = h.signature(MinHasher::synthetic_values(1, 100));
        let q = Query::threshold(&sig, 0.5);
        let est = q.effective_size();
        assert!((80..=120).contains(&est), "estimate {est} far from 100");
    }

    #[test]
    fn validation_catches_bad_queries() {
        let h = MinHasher::new(64);
        let sig = h.signature([1u64, 2, 3]);
        assert!(matches!(
            Query::threshold(&sig, 0.5).validate_for(256),
            Err(QueryError::Invalid(_))
        ));
        assert!(matches!(
            Query::threshold(&sig, 1.5).validate_for(64),
            Err(QueryError::Invalid(_))
        ));
        assert!(matches!(
            Query::top_k(&sig, 0).validate_for(64),
            Err(QueryError::Invalid(_))
        ));
        assert!(matches!(
            Query::threshold(&sig, 0.5).with_size(0).validate_for(64),
            Err(QueryError::Invalid(_))
        ));
    }

    /// The single-forest index: MinHash LSH over one partition, threshold
    /// conversion through the global maximum domain size.
    fn single_forest(entries: &[(DomainId, u64, Signature)]) -> LshEnsemble {
        let mut b = crate::baseline_minhash_lsh(&EnsembleConfig::default());
        for (id, size, sig) in entries {
            b.add(*id, *size, sig.clone());
        }
        b.build()
    }

    #[test]
    fn forest_index_finds_self_and_reports_stats() {
        let (_, entries) = nested(12);
        let idx = single_forest(&entries);
        assert_eq!(DomainIndex::len(&idx), 12);
        assert!(DomainIndex::memory_bytes(&idx) > 0);
        assert_eq!(idx.partition_stats()[0].upper, 300);
        let (_, size, sig) = &entries[4];
        let out = idx
            .search(&Query::threshold(sig, 0.8).with_size(*size))
            .expect("search");
        assert!(out.hits.iter().any(|hit| hit.id == 4));
        assert_eq!(out.stats.partitions_total, 1);
        assert_eq!(out.stats.partitions_probed, 1);
        assert!(out.stats.candidates >= out.stats.survivors);
        assert_eq!(out.stats.survivors, out.hits.len());
        // Top-k is unsupported on the unranked view.
        assert!(matches!(
            crate::Unranked(&idx).search(&Query::top_k(sig, 3).with_size(*size)),
            Err(QueryError::Unsupported(_))
        ));
    }

    #[test]
    fn empty_forest_index_returns_nothing() {
        let (_, entries) = nested(3);
        let mut idx = single_forest(&entries);
        let removes: Vec<Mutation<'_>> = entries.iter().map(|e| Mutation::Remove(e.0)).collect();
        idx.commit(&removes).expect("remove");
        let (_, size, sig) = &entries[0];
        let out = idx
            .search(&Query::threshold(sig, 0.5).with_size(*size))
            .expect("search");
        assert!(out.hits.is_empty());
        assert!(DomainIndex::is_empty(&idx));
    }

    #[test]
    fn arc_and_box_dispatch() {
        let (_, entries) = nested(8);
        let mut b = LshEnsemble::builder_with(config(2));
        for (id, size, sig) in &entries {
            b.add(*id, *size, sig.clone());
        }
        let arc: Arc<LshEnsemble> = Arc::new(b.build());
        let boxed: Box<dyn DomainIndex> = Box::new(Arc::clone(&arc));
        assert_eq!(boxed.len(), 8);
        assert!(!boxed.is_empty());
        assert!(boxed.memory_bytes() > 0);
        let (_, size, sig) = &entries[2];
        let out = boxed
            .search(&Query::threshold(sig, 0.9).with_size(*size))
            .expect("search");
        assert!(out.ids().contains(&2));
    }

    #[test]
    fn query_error_display() {
        let e = QueryError::Invalid("k must be positive".into());
        assert!(e.to_string().contains("invalid query"));
        let e = QueryError::Unsupported("no sketches".into());
        assert!(e.to_string().contains("unsupported query"));
    }
}
