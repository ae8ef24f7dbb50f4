//! # lshe-cluster
//!
//! The multi-**process** tier of the paper's §6.3 deployment story: where
//! `lshe_core::ShardedRanked` fans a query out across in-process shards,
//! this crate fans it out across N independent `lshe-serve` processes over
//! their existing HTTP/JSON protocol — a coordinator that speaks the same
//! endpoint surface downstream clients already use, so moving from one
//! process to a cluster changes a URL, not a client.
//!
//! | module | role |
//! |---|---|
//! | [`placement`] | deterministic domain→shard routing |
//! | [`pool`] | per-shard keep-alive connection pool with connect/read deadlines |
//! | [`health`] | per-shard consecutive-failure state machine; degraded shards are skipped, probes re-admit them |
//! | [`scatter`](mod@scatter) | lanes-budgeted parallel fan-out and hedged retries for straggler shards |
//! | [`merge`] | union/rank merge of shard answers (estimate-descending, id-ascending — the global [`lshe_core::ShardedRanked`] order) |
//! | [`frontend`] | the coordinator HTTP server: `/query` `/topk` `/batch` `/insert` `/remove` `/commit` `/reload` `/stats` `/health` `/shutdown` |
//!
//! ## Why the answers match the single process bit-for-bit
//!
//! `IndexContainer::split_with` builds each shard file with the *same*
//! per-shard ensemble construction `open_index_sharded` performs, and the
//! server's JSON layer renders `f64` estimates at shortest-round-trip
//! precision — so the coordinator can forward query bodies verbatim,
//! merge the shard responses' already-ranked hit lists, and re-render,
//! producing exactly the hits (ids, estimates, order) the one-process
//! `--shards N` server would have produced.
//!
//! ## Topology
//!
//! ```text
//! client ──► coordinator (this crate) ──► shard 0  (lshe serve --shard-id 0)
//!                  │  scatter/gather  ──► shard 1  (lshe serve --shard-id 1)
//!                  │  hedged retries  ──► …
//!                  └─ id % N routing  ──► shard N-1
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod frontend;
pub mod health;
pub mod merge;
pub mod placement;
pub mod pool;
pub mod scatter;

pub use frontend::{start, ClusterConfig, ClusterHandle};
pub use health::{HealthState, DEGRADE_AFTER};
pub use placement::shard_of;
pub use pool::ConnPool;
pub use scatter::{scatter, CallOutcome};
