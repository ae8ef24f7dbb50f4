//! # lshe — LSH Ensemble, Internet-Scale Domain Search
//!
//! Facade crate for the workspace reproducing **LSH Ensemble** (Zhu,
//! Nargesian, Pu & Miller, *LSH Ensemble: Internet-Scale Domain Search*,
//! VLDB 2016). It re-exports every layer under one roof so downstream
//! users can depend on a single crate:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`minhash`] | `lshe-minhash` | hashing, permutations, MinHash signatures |
//! | [`lsh`] | `lshe-lsh` | static banded LSH and dynamic LSH Forest |
//! | [`asym`] | `lshe-asym` | asymmetric minwise-hashing baseline (§6.1) |
//! | [`core`] | `lshe-core` | the ensemble: partitioning, tuning, querying |
//! | [`corpus`] | `lshe-corpus` | CSV/JSONL ingestion, catalogs, exact baselines |
//! | [`datagen`] | `lshe-datagen` | synthetic power-law corpora and queries |
//! | [`serve`] | `lshe-serve` | the HTTP query server: snapshot engine, LRU cache, batching |
//! | [`cluster`] | `lshe-cluster` | multi-node scatter/gather coordinator over the shard protocol |
//!
//! The most common entry points are re-exported at the top level. The
//! documented way in is the **unified query surface**: build any index,
//! hold it as a [`DomainIndex`], and hand it typed [`Query`]s — the same
//! surface the CLI, the HTTP server, and the experiment harness use.
//!
//! ## Quick example
//!
//! ```
//! use lshe::{DomainIndex, MinHasher, Query, RankedIndex};
//!
//! // Index three nested domains (id, exact size, MinHash signature),
//! // retaining sketches so estimates and top-k work.
//! let hasher = MinHasher::new(256);
//! let pool = MinHasher::synthetic_values(1, 300);
//! let mut builder = RankedIndex::builder();
//! for (id, n) in [(0u32, 100usize), (1, 200), (2, 300)] {
//!     builder.add(id, n as u64, hasher.signature(pool[..n].iter().copied()));
//! }
//! let index: Box<dyn DomainIndex> = Box::new(builder.build());
//!
//! // Threshold search: which domains contain ≥ 50% of the query?
//! // Domain 0 is identical to the query, so it must be found with
//! // estimated containment 1.0.
//! let sig = hasher.signature(pool[..100].iter().copied());
//! let outcome = index
//!     .search(&Query::threshold(&sig, 0.5).with_size(100))
//!     .expect("valid query");
//! assert!(outcome.hits.iter().any(|h| h.id == 0 && h.estimate == Some(1.0)));
//!
//! // Top-k through the very same surface, with per-query stats.
//! let top = index
//!     .search(&Query::top_k(&sig, 2).with_size(100))
//!     .expect("valid query");
//! assert_eq!(top.hits.len(), 2);
//! assert!(top.stats.partitions_probed <= top.stats.partitions_total);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use lshe_asym as asym;
pub use lshe_cluster as cluster;
pub use lshe_core as core;
pub use lshe_corpus as corpus;
pub use lshe_datagen as datagen;
pub use lshe_lsh as lsh;
pub use lshe_minhash as minhash;
pub use lshe_serve as serve;

pub use lshe_core::{
    CommitReport, DomainIndex, EnsembleConfig, LshEnsemble, Mutation, MutationError,
    PartitionStrategy, Query, QueryError, QueryMode, QueryStats, RankedHit, RankedIndex, SearchHit,
    SearchOutcome, ESTIMATE_SLACK,
};
pub use lshe_corpus::{Catalog, Domain, ExactIndex};
pub use lshe_lsh::{DomainId, LshForest};
pub use lshe_minhash::{MinHasher, Signature};
pub use lshe_serve::{DeltaLog, DeltaOp, IndexContainer, ServerConfig};
