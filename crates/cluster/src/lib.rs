//! # lshe-cluster
//!
//! The paper's §6.3 deployment: this crate fans a query out across N
//! independent `lshe-serve` processes (one per `lshe split` file) over
//! their existing HTTP/JSON protocol — a coordinator that speaks the same
//! endpoint surface downstream clients already use, so moving from one
//! process to a cluster changes a URL, not a client. It is the one
//! fan-out: a single server always answers from one index.
//!
//! | module | role |
//! |---|---|
//! | [`placement`] | deterministic domain→shard routing |
//! | [`pool`] | per-shard keep-alive connection pool with connect/read deadlines |
//! | [`health`] | per-shard consecutive-failure state machine; degraded shards are skipped, probes re-admit them |
//! | [`scatter`](mod@scatter) | lanes-budgeted parallel fan-out and hedged retries for straggler shards |
//! | [`merge`] | union/rank merge of shard answers (estimate descending, id ascending) |
//! | [`frontend`] | the coordinator, a `Service` on `lshe-serve`'s reactor: `/query` `/topk` `/batch` `/insert` `/remove` `/commit` `/compact` `/reload` `/stats` `/health` (`/shutdown` is the reactor's) |
//!
//! ## Why the answers are the shards' own, bit for bit
//!
//! The server's JSON layer renders `f64` estimates at shortest-round-trip
//! precision and a parsed number keeps its text, so the coordinator can
//! forward query bodies verbatim, merge the shard responses'
//! already-ranked hit lists, and re-render: the hits (ids, estimates,
//! order) are exactly the union of what each split file answers on its
//! own, ranked by estimate (`tests/cluster_conformance.rs`).
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
