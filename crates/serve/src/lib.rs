//! # lshe-serve
//!
//! The serving layer the paper's "Internet-scale domain search" framing
//! calls for (§6.3 runs a 262M-domain deployment): a long-lived,
//! concurrent query server over a persisted `.lshe` index.
//!
//! Everything is `std`-only — the build image has no crates.io access —
//! so the crate hand-rolls the pieces a production server normally pulls
//! off the shelf:
//!
//! | module | role |
//! |---|---|
//! | [`container`] | the `.lshe` index-file format (moved here from `lshe-cli` so both the CLI and the server share it) |
//! | [`engine`] | `Arc`-swapped snapshot reads + hot `/reload` over one index |
//! | [`cache`] | thread-safe LRU query cache with hit/miss counters |
//! | [`pool`] | fixed thread pool (the reactor's compute lanes) with drain-on-drop graceful shutdown |
//! | [`http`] | minimal HTTP/1.1 parsing — incremental/resumable over partial reads — and response heads |
//! | [`json`] | the wire protocol's JSON: `lshe-corpus`'s one parser and renderer, re-exported |
//! | [`maintenance`] | the background maintenance runtime: a parked thread executing leveled merge plans off the request path |
//! | [`poller`] | readiness polling (epoll on Linux, `poll(2)` elsewhere) via std-linked libc symbols |
//! | [`server`] | configuration, and the engine's routing and endpoints |
//! | [`reactor`] | the one event loop: non-blocking listener + connections, pipelined in-order responses, drain; serves any [`reactor::Service`] (the engine, `lshe-cluster`'s coordinator) |
//!
//! ## Quick example
//!
//! ```
//! use lshe_serve::container::IndexContainer;
//! use lshe_serve::engine::Engine;
//! use lshe_serve::server::{start, ServerConfig};
//! use lshe_corpus::{Catalog, Domain, DomainMeta};
//! use std::sync::Arc;
//!
//! // Build a tiny index and save it…
//! let mut catalog = Catalog::new();
//! for k in 0..4 {
//!     let values: Vec<String> = (0..=20 + 10 * k).map(|i| format!("v{i}")).collect();
//!     catalog.push(
//!         Domain::from_strs(values.iter().map(String::as_str)),
//!         DomainMeta::new(format!("table{k}"), "col"),
//!     );
//! }
//! let dir = std::env::temp_dir().join(format!("lshe_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("tables.lshe");
//! IndexContainer::build(&catalog, 2).save(&path).unwrap();
//!
//! // …serve the file as `lshe serve --index` does: its mapped base, and
//! // a delta log beside it for live inserts. Then shut down gracefully.
//! let engine = Engine::load(&path, 1).unwrap();
//! let config = ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     threads: 2,
//!     cache_capacity: 64,
//!     ..ServerConfig::default()
//! };
//! let handle = start(Arc::new(engine), &config).unwrap();
//! assert_ne!(handle.addr().port(), 0);
//! handle.shutdown();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod client;
pub mod container;
pub mod engine;
pub mod http;
pub mod maintenance;
pub mod poller;
pub mod pool;
pub mod reactor;
mod records;
pub mod server;
#[cfg(any(test, feature = "testkit"))]
#[doc(hidden)]
pub mod testkit;

/// The wire protocol's JSON, [`lshe_corpus::json`], under the name
/// callers of the server have always used.
pub use lshe_corpus::json;

pub use cache::{CacheStats, LruCache, QueryKey};
pub use container::{
    DeltaError, DeltaLog, DeltaOp, DomainRecord, IndexContainer, RecordRef, RecordTable,
};
pub use engine::{Engine, EngineError, Snapshot, StagedCounts};
pub use maintenance::{Maintainer, MaintenanceStats};
pub use server::{start, ServerConfig, ServerHandle};
