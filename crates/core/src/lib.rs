//! # lshe-core — LSH Ensemble
//!
//! A from-scratch Rust implementation of **LSH Ensemble** (Zhu, Nargesian,
//! Pu & Miller, *LSH Ensemble: Internet-Scale Domain Search*, VLDB 2016):
//! an index for *domain search* — given a query set `Q` and a containment
//! threshold `t*`, find all indexed sets `X` with
//! `t(Q, X) = |Q ∩ X| / |Q| ≥ t*`.
//!
//! ## How it works (paper §5)
//!
//! 1. **Partition by cardinality** ([`partition`]): domains are grouped into
//!    size classes; equi-depth partitioning approximates the optimal
//!    (equal-false-positive) partitioning under the power-law size
//!    distributions real web corpora exhibit (Theorems 1–2).
//! 2. **Convert the threshold** ([`convert`]): each partition turns `t*`
//!    into a conservative Jaccard threshold through its size upper bound
//!    `u` — `s* = t*/(u/q + 1 − t*)` — which never introduces new false
//!    negatives (Eq. 7).
//! 3. **Tune and query a dynamic LSH** ([`tuning`], [`ensemble`]): each
//!    partition holds an LSH Forest queried at per-query parameters
//!    `(b, r)` minimising the false-positive + false-negative probability
//!    mass (Eq. 22–26). Results from all partitions are unioned.
//!
//! ## Quick example
//!
//! ```
//! use lshe_core::{LshEnsemble, EnsembleConfig, PartitionStrategy};
//! use lshe_minhash::MinHasher;
//!
//! let hasher = MinHasher::new(256);
//! let mut builder = LshEnsemble::builder_with(EnsembleConfig {
//!     strategy: PartitionStrategy::EquiDepth { n: 4 },
//!     ..EnsembleConfig::default()
//! });
//!
//! // Index three domains (id, exact size, MinHash signature).
//! let pool = MinHasher::synthetic_values(1, 300);
//! for (id, n) in [(0u32, 100usize), (1, 200), (2, 300)] {
//!     let sig = hasher.signature(pool[..n].iter().copied());
//!     builder.add(id, n as u64, sig);
//! }
//! let index = builder.build();
//!
//! // Search: which domains contain ≥ 50% of the first 100 pool values?
//! // All three contain the query fully; LSH recall is probabilistic, but
//! // the exact self-match is always found.
//! let query = hasher.signature(pool[..100].iter().copied());
//! let hits = index.query_with_size(&query, 100, 0.5);
//! assert!(hits.contains(&0));
//! ```
//!
//! ## Dynamic data, baselines and deployment
//!
//! * [`ranked`] — [`LshEnsemble`]'s [`DomainIndex`] impl: candidates
//!   ranked by estimated containment and pruned, and top-k search (§2).
//! * One index type, also the one mutable index (§6.2): an
//!   [`LshEnsemble`] changes only at [`LshEnsemble::commit`], which takes
//!   one ordered batch of [`Mutation`]s and applies it whole or not at
//!   all: the inserts sealed into a segment in O(batch), the removes
//!   tombstoned. [`LshEnsemble::compact`] rebuilds the equi-depth base
//!   from the live rows; [`maintenance`] plans when segments merge.
//! * [`baselines`] — the paper's comparison points under identical rules:
//!   the unranked candidate set ([`Unranked`]), single-partition MinHash
//!   LSH and Asymmetric Minwise Hashing (global and per-partition
//!   padding).
//! * The paper's 5-node cluster (§6.3) is not a type here: `lshe split`
//!   writes one `.lshe` per node and `lshe cluster` fans queries out to
//!   the shard servers and unions their answers (`lshe-cluster`).
//! * [`cost`] — the false-positive cost model (Propositions 1–2) that backs
//!   the optimal partitioner.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod baselines;
pub mod batch;
pub mod convert;
pub mod cost;
pub mod directory;
pub mod ensemble;
pub mod maintenance;
pub mod mmap;
pub mod partition;
pub mod persist;
mod pipeline;
pub mod ranked;
pub mod tuning;

pub use api::{
    CommitReport, DomainIndex, Mutation, MutationError, Query, QueryError, QueryMode, QueryStats,
    SearchHit, SearchOutcome, ESTIMATE_SLACK,
};
pub use baselines::{
    baseline_minhash_lsh, AsymIndex, AsymIndexBuilder, AsymPartitionedIndex, Unranked,
};
pub use directory::position_of;
pub use ensemble::{EnsembleConfig, LshEnsemble, LshEnsembleBuilder, PartitionStats};
pub use lshe_lsh::{Layout, Row, RowBuf};
pub use maintenance::{Leveled, MergeOutcome, MergeTask, SegmentLayout, MAX_TOMBSTONE_RATIO};
pub use mmap::{pack_ranked_to, pack_ranked_with, MmapIndex, MmapIndexError};
pub use partition::{Partition, PartitionStrategy, Partitioning};
pub use ranked::{RankedHit, RankedIndex};
pub use tuning::{TunedParams, Tuner};
