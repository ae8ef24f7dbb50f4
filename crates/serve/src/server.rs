//! The HTTP server: configuration, routing, endpoints, graceful shutdown.
//!
//! Endpoints (see `docs/API.md` for request/response examples):
//!
//! | method | path        | purpose                                         |
//! |--------|-------------|-------------------------------------------------|
//! | GET    | `/health`   | liveness + index summary                        |
//! | GET    | `/stats`    | index, cache, traffic, server, staging stats    |
//! | POST   | `/query`    | one containment query                           |
//! | POST   | `/topk`     | one top-k query                                 |
//! | POST   | `/batch`    | many queries, answered in one batched dispatch  |
//! | POST   | `/insert`   | stage one new domain (delta-logged)             |
//! | POST   | `/remove`   | stage the removal of a domain by id             |
//! | POST   | `/commit`   | seal staged mutations into a segment (O(delta)) |
//! | POST   | `/compact`  | enqueue a full fold on the maintenance thread (`?async=1` to not wait) |
//! | POST   | `/reload`   | hot-swap the index snapshot                     |
//! | POST   | `/shutdown` | graceful stop (drain in-flight, then exit)      |
//!
//! I/O runs on the readiness-driven [`crate::reactor`], which
//! also answers `/shutdown`. This module owns everything *above* the
//! sockets: the engine's [`Service`] — shared state, route table and
//! handlers. Cache-hit queries and cheap control endpoints answer on the
//! reactor thread, cache-missed queries of one tick run as one batched
//! search, and everything else that must search or mutate runs on the
//! compute pool.

use crate::cache::{signature_digest, CacheStats, LruCache, QueryKey};
use crate::engine::{Engine, EngineError, Snapshot};
use crate::http::Request;
use crate::maintenance::Maintainer;
use crate::reactor::{self, Outcome, ReactorHandle, ReactorState, Service, Step};
use lshe_core::{CommitReport, Query, QueryStats, SearchHit, SearchOutcome};
use lshe_corpus::json::{Json, JsonError, Parser};
use lshe_corpus::Domain;
use lshe_minhash::{FoldKernel, Signature};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default containment threshold when a query omits one (matches the CLI).
const DEFAULT_THRESHOLD: f64 = 0.7;
/// Upper bound on `k`, to bound per-request work.
const MAX_K: usize = 10_000;
/// Upper bound on queries per `/batch` request.
const MAX_BATCH: usize = 4_096;
/// The answer to a body with no `values` array.
const MISSING_VALUES: &str = "missing \"values\": expected an array of strings";
/// `/query`/`/topk` bodies up to this size are read inline on the reactor
/// — one pass of the object reader, each value hashed where it lies —
/// larger ones go to the compute pool like any heavy request.
const INLINE_BODY_MAX: usize = 64 * 1024;

/// Server construction parameters.
///
/// Construct with struct-update syntax so new knobs keep defaults:
///
/// ```ignore
/// ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() }
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` for an ephemeral port).
    pub addr: String,
    /// Compute-pool threads (0 = available parallelism).
    pub threads: usize,
    /// LRU query-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Whole-request read deadline in milliseconds: once a request's first
    /// byte arrives, the rest must follow within this window or the
    /// connection is answered `400` and closed (slow-loris bound).
    pub request_timeout_ms: u64,
    /// Maximum simultaneously open connections; excess accepts are closed
    /// immediately (fd-exhaustion bound).
    pub max_connections: usize,
    /// This server's shard number within a cluster, surfaced on `/stats`
    /// so a coordinator (or an operator) can verify each process serves
    /// the split it was assigned. `None` for standalone servers.
    pub shard_id: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            threads: 0,
            cache_capacity: 1024,
            request_timeout_ms: 10_000,
            max_connections: 10_240,
            shard_id: None,
        }
    }
}

/// Per-endpoint traffic counters.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) queries: AtomicU64,
    pub(crate) topk: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batch_queries: AtomicU64,
    pub(crate) reloads: AtomicU64,
    pub(crate) inserts: AtomicU64,
    pub(crate) removes: AtomicU64,
    pub(crate) commits: AtomicU64,
    pub(crate) compactions: AtomicU64,
}

/// Aggregated per-query execution counters ([`QueryStats`]) across every
/// search the engine actually executed (cache hits are excluded — their
/// stats were counted when first computed). Exposed on `/stats`.
#[derive(Debug, Default)]
struct QueryStatTotals {
    executed: AtomicU64,
    partitions_probed: AtomicU64,
    candidates: AtomicU64,
    survivors: AtomicU64,
    wall_micros: AtomicU64,
}

impl QueryStatTotals {
    fn record(&self, stats: &QueryStats) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.partitions_probed
            .fetch_add(stats.partitions_probed as u64, Ordering::Relaxed);
        self.candidates
            .fetch_add(stats.candidates as u64, Ordering::Relaxed);
        self.survivors
            .fetch_add(stats.survivors as u64, Ordering::Relaxed);
        self.wall_micros
            .fetch_add(stats.wall_micros, Ordering::Relaxed);
    }
}

/// The engine's [`Service`]: state shared by the reactor, the compute
/// pool, and every handler.
pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) cache: Arc<LruCache<QueryKey, Arc<SearchOutcome>>>,
    pub(crate) counters: Counters,
    query_totals: QueryStatTotals,
    /// The reactor's connection counters and limits, for `/stats`.
    reactor: Arc<ReactorState>,
    started: Instant,
    /// Shard identity (from [`ServerConfig::shard_id`]), echoed on `/stats`.
    shard_id: Option<u64>,
    /// The background maintenance runtime: one parked thread that executes
    /// leveled merge plans off the request path. Commits wake it;
    /// `/compact` enqueues full-merge epochs on it.
    pub(crate) maintainer: Arc<Maintainer>,
}

/// A running server; dropping the handle shuts it down gracefully.
#[derive(Debug)]
pub struct ServerHandle {
    reactor: ReactorHandle,
    /// The server's maintenance runtime, stopped once the reactor has
    /// drained (tests also use it to stretch merge windows).
    pub(crate) maintainer: Arc<Maintainer>,
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral `:0` bind).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Requests a graceful stop and waits for it: the listener closes,
    /// idle connections are released, and in-flight requests complete.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the server stops on its own (`/shutdown` endpoint or
    /// a reactor failure).
    pub fn join(mut self) {
        self.reactor.wait();
        self.maintainer.shutdown();
    }

    fn stop(&mut self) {
        self.reactor.stop();
        // The reactor has drained: no handler can enqueue more
        // maintenance work, so stop the worker after its current task
        // (clean shutdown even mid-merge).
        self.maintainer.shutdown();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds `config.addr` and spawns the reactor thread (which owns the
/// listener, every connection, and the compute pool) serving the engine.
///
/// # Errors
/// Propagates the bind / waker-creation / spawn failure.
pub fn start(engine: Arc<Engine>, config: &ServerConfig) -> io::Result<ServerHandle> {
    let bound = reactor::bind(config)?;
    let shared = Arc::new(Shared::new(engine, config, Arc::clone(bound.state())));
    let maintainer = Arc::clone(&shared.maintainer);
    Ok(ServerHandle {
        reactor: bound.serve(shared)?,
        maintainer,
    })
}

impl Shared {
    /// The service state for `engine` under `config`, with its cache and
    /// its maintenance thread.
    fn new(engine: Arc<Engine>, config: &ServerConfig, reactor: Arc<ReactorState>) -> Self {
        let cache = Arc::new(LruCache::new(config.cache_capacity));
        // The maintainer swaps snapshots from its own thread; its on-swap
        // callback drops the now-unreachable cache generation, exactly as
        // the request-path handlers do after their own swaps.
        let maintainer = Maintainer::spawn(Arc::clone(&engine), {
            let cache = Arc::clone(&cache);
            Box::new(move || cache.clear())
        });
        Self {
            engine,
            cache,
            counters: Counters::default(),
            query_totals: QueryStatTotals::default(),
            reactor,
            started: Instant::now(),
            shard_id: config.shard_id,
            maintainer,
        }
    }
}

impl Service for Shared {
    type Miss = Box<MissQuery>;

    /// Cache probes for small `/query`/`/topk` bodies and the cheap
    /// endpoints (`/health`, `/stats`, 404, 405) answer inline; a cache
    /// miss joins the tick's batched search; the rest is long work.
    fn step(&self, request: Request) -> Step<Box<MissQuery>> {
        match (request.method.as_str(), request.path()) {
            ("POST", path @ ("/query" | "/topk")) if request.body.len() <= INLINE_BODY_MAX => {
                query_step(self, &request.body, path == "/topk", Instant::now())
            }
            (
                "POST",
                "/query" | "/topk" | "/batch" | "/reload" | "/insert" | "/remove" | "/commit"
                | "/compact",
            ) => Step::Long(request),
            _ => Step::Reply(route(self, &request)),
        }
    }

    fn run(&self, request: Request) -> Outcome {
        route(self, &request)
    }

    fn run_group(&self, group: Vec<Box<MissQuery>>) -> Vec<Outcome> {
        execute_miss_group(self, &group)
    }
}

/// Routes one request to its handler. Counter discipline: this function
/// does NOT bump `errors` — the reactor does, exactly once per rendered
/// error response (routed 4xx/5xx, parse failures, and timeouts alike).
fn route(shared: &Shared, request: &Request) -> Outcome {
    match (request.method.as_str(), request.path()) {
        ("GET", "/health") => handle_health(shared),
        ("GET", "/stats") => handle_stats(shared),
        ("POST", "/query") => handle_query(shared, request, false),
        ("POST", "/topk") => handle_query(shared, request, true),
        ("POST", "/batch") => handle_batch(shared, request),
        ("POST", "/reload") => handle_reload(shared, request),
        ("POST", "/insert") => handle_insert(shared, request),
        ("POST", "/remove") => handle_remove(shared, request),
        ("POST", "/commit") => handle_commit(shared),
        ("POST", "/compact") => handle_compact(shared, request),
        (
            _,
            "/health" | "/stats" | "/query" | "/topk" | "/batch" | "/reload" | "/insert"
            | "/remove" | "/commit" | "/compact",
        ) => Outcome::error(405, "wrong method for this path"),
        (_, path) => Outcome::error(404, format!("no such endpoint: {path}")),
    }
}

fn handle_health(shared: &Shared) -> Outcome {
    let snap = shared.engine.snapshot();
    Outcome::ok(Json::obj(vec![
        ("status", Json::str("ok")),
        ("domains", Json::uint(snap.container().len() as u64)),
        ("generation", Json::uint(snap.generation())),
        ("cache_enabled", Json::Bool(shared.cache.capacity() > 0)),
    ]))
}

fn cache_json(stats: &CacheStats) -> Json {
    Json::obj(vec![
        ("capacity", Json::uint(stats.capacity as u64)),
        ("entries", Json::uint(stats.entries as u64)),
        ("hits", Json::uint(stats.hits)),
        ("misses", Json::uint(stats.misses)),
        ("hit_rate", Json::num(stats.hit_rate())),
    ])
}

fn handle_stats(shared: &Shared) -> Outcome {
    // Counters first: a merge swaps the snapshot before it counts itself, so
    // a counted merge is never reported beside the stack it replaced.
    let maintenance = maintenance_json(shared);
    let snap = shared.engine.snapshot();
    let staged = shared.engine.staged_counts();
    let layout = snap.container().segment_layout();
    let c = &shared.counters;
    let q = &shared.query_totals;
    let r = &shared.reactor;
    let s = &r.stats;
    Outcome::ok(Json::obj(vec![
        ("domains", Json::uint(snap.container().len() as u64)),
        ("num_perm", Json::uint(snap.container().num_perm() as u64)),
        (
            "partitions",
            Json::uint(snap.container().partition_count() as u64),
        ),
        // Cluster plumbing: which split this process serves (absent for
        // standalone servers) and the next id an insert would take — the
        // coordinator allocates cluster-wide ids as the max across shards.
        ("shard_id", shared.shard_id.map_or(Json::Null, Json::uint)),
        ("next_id", Json::uint(u64::from(shared.engine.next_id()))),
        ("generation", Json::uint(snap.generation())),
        // Segmented-mutation drift: sealed segments and tombstones awaiting
        // compaction, plus the generation the last in-process compaction
        // created (0 = none since boot). How an operator (or the bench
        // probe) tells "commits are sealing" from "the merger ran".
        ("segments", Json::uint(layout.segments.len() as u64)),
        ("tombstones", Json::uint(layout.tombstones as u64)),
        (
            "last_compaction",
            Json::uint(shared.engine.last_compaction()),
        ),
        // The background maintenance runtime: the live level layout and
        // what the worker has done / is doing.
        ("maintenance", maintenance),
        ("threads", Json::uint(r.threads as u64)),
        (
            "uptime_ms",
            Json::uint(shared.started.elapsed().as_millis() as u64),
        ),
        (
            "requests",
            Json::obj(vec![
                (
                    "connections",
                    Json::uint(r.connections.load(Ordering::Relaxed)),
                ),
                ("query", Json::uint(c.queries.load(Ordering::Relaxed))),
                ("topk", Json::uint(c.topk.load(Ordering::Relaxed))),
                ("batch", Json::uint(c.batches.load(Ordering::Relaxed))),
                (
                    "batch_queries",
                    Json::uint(c.batch_queries.load(Ordering::Relaxed)),
                ),
                ("reload", Json::uint(c.reloads.load(Ordering::Relaxed))),
                ("insert", Json::uint(c.inserts.load(Ordering::Relaxed))),
                ("remove", Json::uint(c.removes.load(Ordering::Relaxed))),
                ("commit", Json::uint(c.commits.load(Ordering::Relaxed))),
                ("compact", Json::uint(c.compactions.load(Ordering::Relaxed))),
                ("errors", Json::uint(r.errors.load(Ordering::Relaxed))),
            ]),
        ),
        // Event-loop observability: how loaded the single reactor thread
        // actually is (satellite of the readiness-driven rewrite).
        (
            "server",
            Json::obj(vec![
                (
                    "open_connections",
                    Json::uint(s.open.load(Ordering::Relaxed)),
                ),
                (
                    "accepted_total",
                    Json::uint(r.connections.load(Ordering::Relaxed)),
                ),
                (
                    "pipeline_depth_hwm",
                    Json::uint(s.pipeline_hwm.load(Ordering::Relaxed)),
                ),
                (
                    "event_loop_wakeups",
                    Json::uint(s.wakeups.load(Ordering::Relaxed)),
                ),
                (
                    "write_buf_hwm_bytes",
                    Json::uint(s.write_buf_hwm.load(Ordering::Relaxed)),
                ),
                // How long the loop has blocked its connections at worst:
                // an inline body parse or a render shows here.
                (
                    "longest_tick_us",
                    Json::uint(s.longest_tick_us.load(Ordering::Relaxed)),
                ),
                // Which compilation of the MinHash fold this CPU runs: a
                // sketch-speed gap between two hosts reads off here.
                (
                    "sketch_kernel",
                    Json::str(FoldKernel::new(snap.hasher().family().permutations()).arm()),
                ),
            ]),
        ),
        (
            "staged",
            Json::obj(vec![
                ("inserts", Json::uint(staged.inserts as u64)),
                ("removes", Json::uint(staged.removes as u64)),
            ]),
        ),
        // Heap accounting must cover the staged backlog too: uncommitted
        // inserts live outside every snapshot index, and a report that
        // only asked the index would under-count under live ingestion.
        ("memory", memory_json(shared, &snap)),
        ("cache", cache_json(&shared.cache.stats())),
        (
            "query_stats",
            Json::obj(vec![
                ("executed", Json::uint(q.executed.load(Ordering::Relaxed))),
                (
                    "partitions_probed",
                    Json::uint(q.partitions_probed.load(Ordering::Relaxed)),
                ),
                (
                    "candidates",
                    Json::uint(q.candidates.load(Ordering::Relaxed)),
                ),
                ("survivors", Json::uint(q.survivors.load(Ordering::Relaxed))),
                (
                    "wall_micros",
                    Json::uint(q.wall_micros.load(Ordering::Relaxed)),
                ),
            ]),
        ),
    ]))
}

/// Renders `/stats.memory`. `index_bytes` is the index, split into views
/// into the mapped file (`mapped_bytes`, resident where queries reach) and
/// heap; beside it, the heap the provenance records and the id → row map
/// hold — each only what changed since the base when that base is served
/// from its file — and the staged backlog; and, on Linux, how much of the
/// mapping is resident and the process's resident set split into
/// anonymous and file pages.
fn memory_json(shared: &Shared, snap: &Snapshot) -> Json {
    let index_bytes = snap.index().memory_bytes() as u64;
    let mapped_bytes = snap.index().mapped_bytes() as u64;
    let container = snap.container();
    let mut memory = vec![
        ("index_bytes", Json::uint(index_bytes)),
        ("mapped_bytes", Json::uint(mapped_bytes)),
        ("heap_bytes", Json::uint(index_bytes - mapped_bytes)),
        (
            "provenance_bytes",
            Json::uint(container.provenance_bytes() as u64),
        ),
        (
            "id_map_bytes",
            Json::uint(snap.index().id_map_bytes() as u64),
        ),
        (
            "staged_bytes",
            Json::uint(shared.engine.staged_memory_bytes() as u64),
        ),
    ];
    if let Some(resident) = container.mapped_resident_bytes() {
        memory.push(("mapped_resident_bytes", Json::uint(resident as u64)));
    }
    if let Some((anon, file)) = rss_split() {
        memory.push(("rss_anon_bytes", Json::uint(anon)));
        memory.push(("rss_file_bytes", Json::uint(file)));
    }
    Json::obj(memory)
}

/// This process's resident set as `/proc/self/status` splits it:
/// `RssAnon` (heap, stacks) and `RssFile` (mapped files — the index among
/// them — and code), in bytes. `None` off Linux.
fn rss_split() -> Option<(u64, u64)> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let bytes = |key: &str| {
        let kb = status.lines().find_map(|line| line.strip_prefix(key))?;
        let kb: u64 = kb.trim().strip_suffix("kB")?.trim().parse().ok()?;
        Some(kb << 10)
    };
    Some((bytes("RssAnon:")?, bytes("RssFile:")?))
}

/// Renders `/stats.maintenance`: the live segment layout bucketed into
/// leveled geometry and the worker's lifetime counters.
fn maintenance_json(shared: &Shared) -> Json {
    let m = shared.maintainer.stats();
    Json::obj(vec![
        (
            "levels",
            Json::Arr(
                m.levels
                    .iter()
                    .map(|&(segments, entries)| {
                        Json::obj(vec![
                            ("segments", Json::uint(segments as u64)),
                            ("entries", Json::uint(entries as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("segment_bound", Json::uint(m.segment_bound as u64)),
        ("queued", Json::uint(m.queued as u64)),
        ("running", m.running.map_or(Json::Null, Json::str)),
        ("merges", Json::uint(m.merges)),
        ("full_merges", Json::uint(m.full_merges)),
        ("entries_folded", Json::uint(m.entries_folded)),
        ("last_merge_us", Json::uint(m.last_merge_micros)),
        ("last_error", m.last_error.map_or(Json::Null, Json::str)),
    ])
}

/// One request object parsed up to (but not including) sketching: the
/// query domain plus its options. Both the single-query and batch paths
/// stop here first — the cache is keyed on the *raw domain* (see
/// [`item_key`]), so a hit never pays for sketching at all; only misses
/// go on to one bulk [`bulk_signatures`](lshe_minhash::MinHasher::bulk_signatures)
/// pass.
#[derive(Debug, PartialEq)]
pub(crate) struct ParsedItem {
    domain: Domain,
    threshold: f64,
    k: usize,
    debug: bool,
}

impl ParsedItem {
    /// The typed [`Query`] this item asks, over its `signature`.
    fn query<'a>(&self, signature: &'a Signature) -> Query<'a> {
        let size = self.domain.len() as u64;
        if self.k > 0 {
            Query::top_k(signature, self.k).with_size(size)
        } else {
            Query::threshold(signature, self.threshold).with_size(size)
        }
    }
}

/// Reads a request body through `read`, in one pass: a body that is not
/// UTF-8 is refused, one of only whitespace reads as `{}`, and a syntax
/// error anywhere in it is refused before any field fault `read` found.
fn read_body<T>(
    body: &[u8],
    read: impl FnOnce(&mut Parser<'_>) -> Result<T, JsonError>,
) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let text = if text.trim().is_empty() { "{}" } else { text };
    let mut parser = Parser::new(text);
    read(&mut parser)
        .and_then(|read| parser.finish().map(|()| read))
        .map_err(|e| format!("invalid JSON body: {e}"))
}

/// A body read whole into a tree, for the endpoints that carry no `values`.
fn parse_body_bytes(body: &[u8]) -> Result<Json, String> {
    read_body(body, |p| p.value())
}

/// A request object as [`read_request`] found it: the domain its `values`
/// name (or that field's fault), and the first field of each name asked
/// for.
type RequestObject<const N: usize> = (Result<Domain, String>, [Option<Json>; N]);

/// Reads one request object: its first `values` array, whose strings are
/// hashed where they lie into the domain they name, and the first field
/// of each of `names`, parsed. Every other field is read and dropped. The
/// error is a syntax error.
fn read_request<const N: usize>(
    p: &mut Parser<'_>,
    names: [&str; N],
) -> Result<RequestObject<N>, JsonError> {
    let mut values = None;
    let mut fields: [Option<Json>; N] = std::array::from_fn(|_| None);
    p.object(|p, key| {
        if key == "values" && values.is_none() {
            values = Some(read_values(p)?);
            return Ok(());
        }
        match names.iter().position(|&name| name == key) {
            Some(i) if fields[i].is_none() => fields[i] = Some(p.value()?),
            _ => drop(p.value()?),
        }
        Ok(())
    })?;
    let domain = values
        .unwrap_or(Err(MISSING_VALUES))
        .map(Domain::from_hashes)
        .map_err(str::to_owned);
    Ok((domain, fields))
}

/// Reads `values`, a required non-empty array of strings — a query's and
/// an `/insert`'s alike — hashing each string's unescaped UTF-8 bytes
/// ([`Domain::hash_value`]) as it is read.
fn read_values(p: &mut Parser<'_>) -> Result<Result<Vec<u64>, &'static str>, JsonError> {
    let mut hashes = Vec::new();
    let mut strings = true;
    let array = p.array(|p| {
        strings &= p.string(|value| hashes.push(Domain::hash_value(value)))?;
        Ok(())
    })?;
    Ok(match (array, strings) {
        (false, _) => Err(MISSING_VALUES),
        (true, false) => Err("\"values\" entries must all be strings"),
        (true, true) if hashes.is_empty() => Err("\"values\" must not be empty"),
        (true, true) => Ok(hashes),
    })
}

/// Reads a request object: `values` (required string array, hashed
/// server-side into the index's hash universe), plus optional
/// `threshold`, `k`, and `debug`. A present `k` always means top-k — on
/// `/query`, `/topk`, and `/batch` entries alike; `require_k` only makes
/// it mandatory (`/topk`).
fn read_item(p: &mut Parser<'_>, require_k: bool) -> Result<Result<ParsedItem, String>, JsonError> {
    let (domain, options) = read_request(p, ["threshold", "k", "debug"])?;
    Ok(domain.and_then(|domain| parse_item(domain, options, require_k)))
}

/// Checks an item's options, as [`read_item`] found them.
fn parse_item(
    domain: Domain,
    [threshold, k, debug]: [Option<Json>; 3],
    require_k: bool,
) -> Result<ParsedItem, String> {
    let threshold = match threshold {
        None => DEFAULT_THRESHOLD,
        Some(t) => t
            .as_f64()
            .filter(|t| (0.0..=1.0).contains(t))
            .ok_or("\"threshold\" must be a number in [0, 1]")?,
    };
    let k = match k {
        None if require_k => return Err("missing \"k\": top-k needs a positive integer".to_owned()),
        None => 0,
        Some(k) => k
            .as_u64()
            .filter(|&k| (1..=MAX_K as u64).contains(&k))
            .ok_or_else(|| format!("\"k\" must be an integer in [1, {MAX_K}]"))?
            as usize,
    };
    let debug = match debug {
        None => false,
        Some(d) => d.as_bool().ok_or("\"debug\" must be a boolean")?,
    };
    Ok(ParsedItem {
        domain,
        threshold,
        k,
        debug,
    })
}

/// Reads a `/query` or `/topk` body.
fn parse_query(body: &[u8], require_k: bool) -> Result<ParsedItem, String> {
    read_body(body, |p| read_item(p, require_k))?
}

/// Reads a `/batch` body: its first `queries` array, each entry read as a
/// `/query` body is, and a faulty entry kept in its position.
fn parse_batch(body: &[u8]) -> Result<Vec<Result<ParsedItem, String>>, String> {
    let (queries, over) = read_body(body, |p| {
        let (mut queries, mut seen, mut over) = (None, false, false);
        p.object(|p, key| {
            if key != "queries" || seen {
                return p.value().map(drop);
            }
            seen = true;
            let mut items = Vec::new();
            let array = p.array(|p| {
                if items.len() < MAX_BATCH {
                    items.push(read_item(p, false)?);
                } else {
                    over = true;
                    p.value()?;
                }
                Ok(())
            })?;
            queries = array.then_some(items);
            Ok(())
        })?;
        Ok((queries, over))
    })?;
    let queries = queries.ok_or("missing \"queries\": expected an array")?;
    if queries.is_empty() {
        return Err("\"queries\" must not be empty".to_owned());
    }
    if over {
        return Err(format!("at most {MAX_BATCH} queries per batch"));
    }
    Ok(queries)
}

/// A `/insert` body: the domain, its provenance and an optional explicit
/// id.
#[derive(Debug, PartialEq)]
struct InsertBody {
    domain: Domain,
    table: String,
    column: String,
    id: Option<u32>,
}

/// Reads a `/insert` body: `values` as a query's, plus optional string
/// `table` and `column` and an integer `id`.
fn parse_insert(body: &[u8]) -> Result<InsertBody, String> {
    let (domain, [table, column, id]) =
        read_body(body, |p| read_request(p, ["table", "column", "id"]))?;
    let domain = domain?;
    let text = |field: Option<Json>, name: &str, default: &str| match field {
        None => Ok(default.to_owned()),
        Some(Json::Str(s)) => Ok(s),
        Some(_) => Err(format!("\"{name}\" must be a string")),
    };
    let table = text(table, "table", "ingest")?;
    let column = text(column, "column", "col")?;
    // Optional explicit id — the cluster path: the coordinator allocates
    // cluster-wide ids and routes each insert to the shard it places on.
    let id = match id {
        None => None,
        Some(id) => Some(
            id.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .ok_or("\"id\" out of range")?,
        ),
    };
    Ok(InsertBody {
        domain,
        table,
        column,
        id,
    })
}

/// The cache key for a parsed item against one snapshot generation: a
/// digest of the raw (pre-sketch) domain hashes plus the full
/// response-shaping tuple (size, mode, `debug`). Keying on the raw domain
/// instead of the MinHash signature means a cache hit skips sketching
/// entirely — the dominant cost of a repeated query.
fn item_key(item: &ParsedItem, generation: u64) -> QueryKey {
    QueryKey {
        digest: signature_digest(item.domain.hashes()),
        query_size: item.domain.len() as u64,
        // Top-k ignores the threshold entirely; canonicalise it to 0 so
        // identical top-k requests with different (unused) thresholds
        // share one cache entry.
        threshold_bits: if item.k > 0 {
            0
        } else {
            item.threshold.to_bits()
        },
        k: item.k as u32,
        debug: item.debug,
        generation,
    }
}

/// One answer per item, in input order: its outcome and whether it is
/// reported `cached`, or its error.
type Answer = Result<(Arc<SearchOutcome>, bool), String>;

/// Answers `items` against one snapshot: the one routine behind `/query`,
/// `/topk` and `/batch`. An item whose key an earlier item has is a
/// duplicate: it reads the earlier answer back through the cache, which
/// counts one hit, and reports `cached`, as it would arriving just after.
/// Every other item probes the cache unless `probed` says the reactor
/// already did; the misses sketch in one `bulk_signatures` pass, search in
/// one `search_batch` call, and enter the cache.
fn answer(
    shared: &Shared,
    snap: &Snapshot,
    items: &[(&ParsedItem, QueryKey)],
    probed: bool,
) -> Vec<Answer> {
    let mut answers: Vec<Option<Answer>> = vec![None; items.len()];
    let mut first: HashMap<QueryKey, usize> = HashMap::with_capacity(items.len());
    let mut duplicates: Vec<(usize, usize)> = Vec::new();
    let mut misses: Vec<usize> = Vec::new();
    for (i, (_, key)) in items.iter().enumerate() {
        if let Some(&earlier) = first.get(key) {
            duplicates.push((i, earlier));
            continue;
        }
        first.insert(*key, i);
        let hit = if probed { None } else { shared.cache.get(key) };
        match hit {
            Some(outcome) => answers[i] = Some(Ok((outcome, true))),
            None => misses.push(i),
        }
    }
    // Sketch every miss in one bulk pass (shared hash scratch, worker
    // lanes spawned once), then search them in one batch so the backend
    // amortizes partition probing across the lot.
    let sets: Vec<&[u64]> = misses.iter().map(|&i| items[i].0.domain.hashes()).collect();
    let signatures = snap.hasher().bulk_signatures(&sets);
    let queries: Vec<Query<'_>> = misses
        .iter()
        .zip(&signatures)
        .map(|(&i, signature)| items[i].0.query(signature))
        .collect();
    for (&i, result) in misses.iter().zip(snap.index().search_batch(&queries)) {
        answers[i] = Some(match result {
            Ok(outcome) => {
                shared.query_totals.record(&outcome.stats);
                let outcome = Arc::new(outcome);
                shared.cache.insert(items[i].1, Arc::clone(&outcome));
                Ok((outcome, false))
            }
            Err(e) => Err(e.to_string()),
        });
    }
    // The earlier answer, read back through the cache (or shared as is
    // when an eviction already raced it out).
    for (i, earlier) in duplicates {
        let earlier = answers[earlier].clone().expect("answered above");
        answers[i] = Some(
            earlier.map(|(outcome, _)| (shared.cache.get(&items[i].1).unwrap_or(outcome), true)),
        );
    }
    answers
        .into_iter()
        .map(|a| a.expect("every item answered"))
        .collect()
}

/// Renders one answered query: `count`, `cached`, `hits`, and `debug` when
/// the item asked for it. A `/query`/`/topk` answer, which has `started`,
/// also carries `generation` and `query_time_us` before `hits`; a `/batch`
/// item does not.
fn item_json(
    snap: &Snapshot,
    item: &ParsedItem,
    outcome: &SearchOutcome,
    cached: bool,
    started: Option<Instant>,
) -> Json {
    let mut fields = vec![
        ("count", Json::uint(outcome.hits.len() as u64)),
        ("cached", Json::Bool(cached)),
    ];
    if let Some(started) = started {
        fields.push(("generation", Json::uint(snap.generation())));
        fields.push((
            "query_time_us",
            Json::uint(started.elapsed().as_micros() as u64),
        ));
    }
    fields.push(("hits", hits_json(snap, &outcome.hits)));
    if item.debug {
        fields.push(("debug", debug_json(&outcome.stats)));
    }
    Json::obj(fields)
}

/// A parsed `/query`/`/topk` request against its snapshot. One that missed
/// the cache waits in this form to execute later (possibly batched with
/// other same-tick misses), off the reactor thread.
pub(crate) struct MissQuery {
    item: ParsedItem,
    key: QueryKey,
    snap: Arc<Snapshot>,
    started: Instant,
}

impl MissQuery {
    /// The answer: the item with `generation` and `query_time_us`, counted
    /// on its endpoint.
    fn reply(&self, shared: &Shared, outcome: &SearchOutcome, cached: bool) -> Outcome {
        let c = &shared.counters;
        let endpoint = if self.item.k > 0 { &c.topk } else { &c.queries };
        endpoint.fetch_add(1, Ordering::Relaxed);
        let started = Some(self.started);
        Outcome::ok(item_json(&self.snap, &self.item, outcome, cached, started))
    }
}

/// The first, non-blocking half of a `/query`/`/topk` request: parse, key
/// the cache on the raw domain, and either reply now (parse error or cache
/// hit — no sketching, no searching) or hand back the deferred
/// [`MissQuery`] as a group step. Safe on the reactor thread: the worst
/// case is a JSON parse + one cache probe.
fn query_step(
    shared: &Shared,
    body: &[u8],
    require_k: bool,
    started: Instant,
) -> Step<Box<MissQuery>> {
    let item = match parse_query(body, require_k) {
        Ok(item) => item,
        Err(msg) => return Step::Reply(Outcome::error(400, msg)),
    };
    let snap = shared.engine.snapshot();
    let query = MissQuery {
        key: item_key(&item, snap.generation()),
        item,
        snap,
        started,
    };
    match shared.cache.get(&query.key) {
        Some(outcome) => Step::Reply(query.reply(shared, &outcome, true)),
        None => Step::Group(Box::new(query)),
    }
}

/// Executes a group of same-tick cache misses through [`answer`], once per
/// snapshot generation (normally exactly once), and returns the outcomes in
/// input order. This is how the reactor converts N concurrent
/// single-query requests into one `search_batch` call.
fn execute_miss_group(shared: &Shared, jobs: &[Box<MissQuery>]) -> Vec<Outcome> {
    // Group by generation so every dispatch runs against one snapshot.
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, miss) in jobs.iter().enumerate() {
        groups.entry(miss.snap.generation()).or_default().push(i);
    }
    let mut out: Vec<Option<Outcome>> = (0..jobs.len()).map(|_| None).collect();
    for positions in groups.into_values() {
        let snap = &jobs[positions[0]].snap;
        let items: Vec<(&ParsedItem, QueryKey)> = positions
            .iter()
            .map(|&i| (&jobs[i].item, jobs[i].key))
            .collect();
        for (&i, result) in positions.iter().zip(answer(shared, snap, &items, true)) {
            out[i] = Some(match result {
                Ok((outcome, cached)) => jobs[i].reply(shared, &outcome, cached),
                Err(msg) => Outcome::error(400, msg),
            });
        }
    }
    out.into_iter()
        .map(|o| o.expect("every job answered"))
        .collect()
}

/// Renders a hit list: each hit's id, size and estimate, and the names
/// its record gives it.
fn hits_json(snap: &Snapshot, hits: &[SearchHit]) -> Json {
    Json::Arr(
        hits.iter()
            .map(|&SearchHit { id, size, estimate }| {
                let names = snap.container().names(id);
                let (table, column) = names.unwrap_or(("?", "?"));
                Json::obj(vec![
                    ("id", Json::uint(u64::from(id))),
                    ("table", Json::str(table)),
                    ("column", Json::str(column)),
                    ("size", Json::uint(size)),
                    ("estimate", estimate.map_or(Json::Null, Json::num)),
                ])
            })
            .collect(),
    )
}

/// Renders one query's [`QueryStats`] (the opt-in `"debug"` field).
fn debug_json(stats: &QueryStats) -> Json {
    Json::obj(vec![
        (
            "partitions_probed",
            Json::uint(stats.partitions_probed as u64),
        ),
        (
            "partitions_total",
            Json::uint(stats.partitions_total as u64),
        ),
        ("candidates", Json::uint(stats.candidates as u64)),
        ("survivors", Json::uint(stats.survivors as u64)),
        ("wall_micros", Json::uint(stats.wall_micros)),
    ])
}

/// `/query` and `/topk` via the generic (blocking) route path: the cheap
/// half inline, then the miss executed immediately. The reactor uses the
/// two halves separately so misses can batch across connections.
fn handle_query(shared: &Shared, request: &Request, require_k: bool) -> Outcome {
    match query_step(shared, &request.body, require_k, Instant::now()) {
        Step::Reply(outcome) => outcome,
        Step::Group(miss) => execute_miss_group(shared, &[miss])
            .pop()
            .expect("one outcome per query"),
        Step::Long(_) => unreachable!("a query step is a reply or a miss"),
    }
}

fn handle_batch(shared: &Shared, request: &Request) -> Outcome {
    let started = Instant::now();
    // A malformed item becomes a typed error pinned to its position; it
    // can never fail the batch or shift the answers of its neighbours.
    let parsed = match parse_batch(&request.body) {
        Ok(parsed) => parsed,
        Err(msg) => return Outcome::error(400, msg),
    };
    // Every query in the batch runs against ONE snapshot: a concurrent
    // reload cannot split the batch across index generations.
    let snap = shared.engine.snapshot();
    let items: Vec<(&ParsedItem, QueryKey)> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .map(|item| (item, item_key(item, snap.generation())))
        .collect();
    let mut answers = answer(shared, &snap, &items, false).into_iter();
    let rendered: Vec<Json> = parsed
        .iter()
        .map(|p| {
            let answered = p.as_ref().map_err(String::clone).and_then(|item| {
                let (outcome, cached) = answers.next().expect("one answer per parsed item")?;
                Ok(item_json(&snap, item, &outcome, cached, None))
            });
            answered.unwrap_or_else(|msg| Json::obj(vec![("error", Json::str(msg))]))
        })
        .collect();
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .batch_queries
        .fetch_add(rendered.len() as u64, Ordering::Relaxed);
    Outcome::ok(Json::obj(vec![
        ("count", Json::uint(rendered.len() as u64)),
        ("generation", Json::uint(snap.generation())),
        (
            "batch_time_us",
            Json::uint(started.elapsed().as_micros() as u64),
        ),
        ("results", Json::Arr(rendered)),
    ]))
}

fn handle_reload(shared: &Shared, request: &Request) -> Outcome {
    let body = match parse_body_bytes(&request.body) {
        Ok(body) => body,
        Err(msg) => return Outcome::error(400, msg),
    };
    let path = body.get("path").and_then(Json::as_str).map(Path::new);
    match shared.engine.reload(path) {
        Ok(snap) => {
            // Entries are generation-keyed (never stale), but a reload makes
            // the old generation unreachable: drop the dead weight.
            shared.cache.clear();
            shared.counters.reloads.fetch_add(1, Ordering::Relaxed);
            // The file's log may replay a stack the planner would fold.
            shared.maintainer.notify_commit();
            Outcome::ok(Json::obj(vec![
                ("status", Json::str("reloaded")),
                ("generation", Json::uint(snap.generation())),
                ("domains", Json::uint(snap.container().len() as u64)),
            ]))
        }
        Err(EngineError::Io(e)) => Outcome::error(400, format!("i/o error: {e}")),
        Err(e) => Outcome::error(400, e.to_string()),
    }
}

/// `POST /insert`: stage one domain for live ingestion. The body carries
/// the domain's `values` (hashed server-side, exactly like `/query`) plus
/// optional `table`/`column` provenance. The domain becomes queryable on
/// the next `/commit`; until then `/stats` reports it under `staged`.
fn handle_insert(shared: &Shared, request: &Request) -> Outcome {
    let InsertBody {
        domain,
        table,
        column,
        id,
    } = match parse_insert(&request.body) {
        Ok(insert) => insert,
        Err(msg) => return Outcome::error(400, msg),
    };
    let snap = shared.engine.snapshot();
    let signature = domain.signature(snap.hasher());
    match shared
        .engine
        .stage_insert_as(table, column, domain.len() as u64, signature, id)
    {
        Ok((id, staged)) => {
            shared.counters.inserts.fetch_add(1, Ordering::Relaxed);
            Outcome::ok(Json::obj(vec![
                ("status", Json::str("staged")),
                ("id", Json::uint(u64::from(id))),
                ("size", Json::uint(domain.len() as u64)),
                ("staged_inserts", Json::uint(staged.inserts as u64)),
                ("staged_removes", Json::uint(staged.removes as u64)),
            ]))
        }
        Err(EngineError::Io(e)) => Outcome::error(500, format!("delta log: {e}")),
        Err(e) => Outcome::error(400, e.to_string()),
    }
}

/// `POST /remove`: stage the removal of a domain by id. Takes effect on
/// the next `/commit`; double-removal and unknown ids are 400s.
fn handle_remove(shared: &Shared, request: &Request) -> Outcome {
    let body = match parse_body_bytes(&request.body) {
        Ok(body) => body,
        Err(msg) => return Outcome::error(400, msg),
    };
    let Some(id) = body.get("id").and_then(Json::as_u64) else {
        return Outcome::error(400, "missing \"id\": expected an integer");
    };
    let Ok(id) = u32::try_from(id) else {
        return Outcome::error(400, "\"id\" out of range");
    };
    match shared.engine.stage_remove(id) {
        Ok(staged) => {
            shared.counters.removes.fetch_add(1, Ordering::Relaxed);
            Outcome::ok(Json::obj(vec![
                ("status", Json::str("staged")),
                ("id", Json::uint(u64::from(id))),
                ("staged_inserts", Json::uint(staged.inserts as u64)),
                ("staged_removes", Json::uint(staged.removes as u64)),
            ]))
        }
        Err(EngineError::Io(e)) => Outcome::error(500, format!("delta log: {e}")),
        Err(e) => Outcome::error(400, e.to_string()),
    }
}

/// `POST /commit`: seal every staged mutation into one immutable segment
/// as a new snapshot generation (copy-on-write: in-flight queries keep
/// their snapshot). O(staged delta): the base index is untouched — its
/// durability cost is one appended marker in the delta log, never a
/// rewrite. Idempotent when nothing is staged. The sealed stack is never
/// folded here: the commit marker wakes the maintenance thread, which
/// plans and executes merges off the request path.
fn handle_commit(shared: &Shared) -> Outcome {
    match shared.engine.commit_staged() {
        Ok((snap, report)) => {
            if report.applied > 0 {
                // Entries are generation-keyed (never stale), but the old
                // generation is unreachable now: drop the dead weight.
                shared.cache.clear();
                shared.counters.commits.fetch_add(1, Ordering::Relaxed);
                shared.maintainer.notify_commit();
            }
            let status = if report.applied > 0 {
                "committed"
            } else {
                "nothing staged"
            };
            let domains = snap.container().len();
            Outcome::ok(report_json(status, &report, snap.generation(), domains))
        }
        Err(EngineError::Io(e)) => Outcome::error(500, format!("persist: {e}")),
        Err(e) => Outcome::error(400, e.to_string()),
    }
}

/// A fold's [`CommitReport`] as `/commit` answers it, with the generation
/// it left live and the domain count (`/compact` names no `sealed`).
fn report_json(status: &str, report: &CommitReport, generation: u64, domains: usize) -> Json {
    let count = |n: usize| Json::uint(n as u64);
    Json::obj(vec![
        ("status", Json::str(status)),
        ("applied", count(report.applied)),
        ("merged", count(report.merged)),
        ("entries_folded", count(report.entries_folded)),
        ("sealed", Json::Bool(report.sealed)),
        ("segments", count(report.segments)),
        ("tombstones", count(report.tombstones)),
        ("generation", Json::uint(generation)),
        ("domains", count(domains)),
    ])
}

/// `POST /compact`: enqueue a full merge — fold every sealed segment and
/// tombstone into the base index and persist the result — on the
/// maintenance thread, the one remaining O(corpus) step in the mutation
/// path. Anything still staged is applied first, so the compacted base
/// embodies every acknowledged mutation. By default the handler blocks
/// its compute-pool lane until the fold completes (the reactor keeps
/// serving queries throughout); `?async=1` returns immediately with the
/// scheduled epoch, observable via `/stats.maintenance`. Concurrent
/// requests coalesce: one fold satisfies every epoch enqueued before it
/// started. Idempotent when the index is already compacted.
fn handle_compact(shared: &Shared, request: &Request) -> Outcome {
    let wants_async = request.target.split_once('?').is_some_and(|(_, query)| {
        query
            .split('&')
            .any(|kv| kv == "async=1" || kv == "async=true")
    });
    let epoch = shared.maintainer.request_full();
    if wants_async {
        return Outcome::ok(Json::obj(vec![
            ("status", Json::str("scheduled")),
            ("epoch", Json::uint(epoch)),
        ]));
    }
    match shared.maintainer.wait_full(epoch) {
        Ok((report, generation, domains)) => {
            // The maintainer already cleared the cache via its swap hook.
            shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
            let mut body = report_json("compacted", &report, generation, domains);
            if let Json::Obj(fields) = &mut body {
                fields.retain(|(key, _)| key != "sealed");
            }
            Outcome::ok(body)
        }
        Err(msg) => Outcome::error(500, msg),
    }
}

#[cfg(test)]
mod request_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::container::IndexContainer;
    use crate::reactor::Body;
    use crate::testkit::{self, read_resp, Scratch};
    use lshe_corpus::{Catalog, DomainMeta};
    use std::io::{BufReader, Write as _};
    use std::net::TcpStream;
    use std::time::Duration;

    fn test_container(n: usize) -> IndexContainer {
        let mut cat = Catalog::new();
        for k in 0..n {
            let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("v{i}")).collect();
            cat.push(
                Domain::from_strs(values.iter().map(String::as_str)),
                DomainMeta::new(format!("t{k}"), "col"),
            );
        }
        IndexContainer::build(&cat, 2)
    }

    /// An engine over `test_container(n)` saved to a file; keep the
    /// directory while it serves.
    fn test_engine(n: usize) -> (Arc<Engine>, Scratch) {
        let (engine, dir) = testkit::file_engine(&test_container(n), "server");
        (Arc::new(engine), dir)
    }

    fn boot_with(engine: Arc<Engine>, config: ServerConfig) -> ServerHandle {
        start(engine, &config).expect("bind")
    }

    fn boot(engine: Arc<Engine>) -> ServerHandle {
        boot_with(engine, testkit::config())
    }

    /// The engine the reactor's hostile-client checks run against.
    fn boot_engine(config: ServerConfig) -> (ServerHandle, Scratch) {
        let (engine, dir) = test_engine(4);
        (boot_with(engine, config), dir)
    }

    /// Fresh-connection request helpers over the shared loopback client.
    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        HttpClient::connect(addr).request("GET", path, None)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        HttpClient::connect(addr).request("POST", path, Some(body))
    }

    #[test]
    fn health_and_stats_shape() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let (status, body) = get(server.addr(), "/health");
        assert_eq!(status, 200, "{body}");
        let health = Json::parse(&body).expect("json");
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("domains").and_then(Json::as_u64), Some(6));

        let (status, body) = get(server.addr(), "/stats");
        assert_eq!(status, 200);
        let stats = Json::parse(&body).expect("json");
        assert!(stats.get("cache").is_some());
        assert!(stats.get("requests").is_some());
        // The event-loop observability object (new in the reactor core).
        let srv = stats.get("server").expect("server object");
        assert!(srv.get("open_connections").and_then(Json::as_u64).is_some());
        assert!(
            srv.get("accepted_total")
                .and_then(Json::as_u64)
                .expect("accepted")
                >= 1,
            "{srv}"
        );
        assert!(srv
            .get("pipeline_depth_hwm")
            .and_then(Json::as_u64)
            .is_some());
        assert!(
            srv.get("event_loop_wakeups")
                .and_then(Json::as_u64)
                .expect("wakeups")
                >= 1,
            "{srv}"
        );
        assert!(srv
            .get("write_buf_hwm_bytes")
            .and_then(Json::as_u64)
            .is_some());
        let kernel = srv.get("sketch_kernel").and_then(Json::as_str);
        assert!(
            matches!(kernel, Some("avx512" | "avx2" | "portable")),
            "{srv}"
        );
        server.shutdown();
    }

    #[test]
    fn an_inline_body_parse_shows_in_the_longest_tick() {
        let (engine, _dir) = test_engine(4);
        let server = boot(engine);
        let values: Vec<String> = (0..6_600).map(|i| format!("\"v{i:05}\"")).collect();
        let body = format!("{{\"values\": [{}]}}", values.join(","));
        assert!(
            (55_000..=INLINE_BODY_MAX).contains(&body.len()),
            "{}",
            body.len()
        );
        let (status, answer) = post(server.addr(), "/query", &body);
        assert_eq!(status, 200, "{answer}");
        let (_, stats) = get(server.addr(), "/stats");
        let stats = Json::parse(&stats).expect("json");
        let longest = stats
            .get("server")
            .and_then(|s| s.get("longest_tick_us"))
            .and_then(Json::as_u64)
            .expect("longest_tick_us");
        assert!(longest > 0, "{stats}");
        server.shutdown();
    }

    #[test]
    fn query_topk_and_cache_flow() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let q = r#"{"values": ["v0","v1","v2","v3","v4","v5","v6","v7","v8","v9","v10","v11","v12","v13","v14","v15","v16","v17","v18","v19"], "threshold": 0.6}"#;
        let (status, body) = post(server.addr(), "/query", q);
        assert_eq!(status, 200, "{body}");
        let first = Json::parse(&body).expect("json");
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        assert!(first.get("count").and_then(Json::as_u64).expect("count") >= 1);

        // Same query again: served from cache.
        let (_, body) = post(server.addr(), "/query", q);
        let second = Json::parse(&body).expect("json");
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("hits"), second.get("hits"));

        let (status, body) = post(
            server.addr(),
            "/topk",
            r#"{"values": ["v0","v1","v2","v3","v4"], "k": 3}"#,
        );
        assert_eq!(status, 200, "{body}");
        let topk = Json::parse(&body).expect("json");
        assert_eq!(topk.get("count").and_then(Json::as_u64), Some(3));

        // A `k` on /query runs as top-k too (same semantics as a /batch
        // entry with `k`), never silently ignored.
        let (status, body) = post(
            server.addr(),
            "/query",
            r#"{"values": ["v0","v1","v2","v3","v4"], "k": 3}"#,
        );
        assert_eq!(status, 200, "{body}");
        let via_query = Json::parse(&body).expect("json");
        assert_eq!(via_query.get("count").and_then(Json::as_u64), Some(3));
        assert_eq!(via_query.get("hits"), topk.get("hits"));
        server.shutdown();
    }

    #[test]
    fn bad_requests_are_4xx_not_disconnects() {
        let (engine, _dir) = test_engine(4);
        let server = boot(engine);
        let addr = server.addr();
        for (path, body) in [
            ("/query", "not json"),
            ("/query", "{}"),
            ("/query", r#"{"values": []}"#),
            ("/query", r#"{"values": [1, 2]}"#),
            ("/query", r#"{"values": ["a"], "threshold": 7}"#),
            ("/topk", r#"{"values": ["a"]}"#),
            ("/topk", r#"{"values": ["a"], "k": 0}"#),
            ("/batch", "{}"),
            ("/batch", r#"{"queries": []}"#),
        ] {
            let (status, response) = post(addr, path, body);
            assert_eq!(status, 400, "{path} {body} -> {response}");
        }
        // Unknown path / wrong method.
        assert_eq!(get(addr, "/nope").0, 404);
        assert_eq!(get(addr, "/query").0, 405);
        server.shutdown();
    }

    #[test]
    fn debug_field_and_query_stat_aggregation() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();
        let q = r#"{"values": ["v0","v1","v2","v3","v4","v5","v6","v7","v8","v9"], "threshold": 0.5, "debug": true}"#;
        let (status, body) = post(addr, "/query", q);
        assert_eq!(status, 200, "{body}");
        let first = Json::parse(&body).expect("json");
        let debug = first.get("debug").expect("debug object requested");
        let probed = debug
            .get("partitions_probed")
            .and_then(Json::as_u64)
            .expect("probed");
        let total = debug
            .get("partitions_total")
            .and_then(Json::as_u64)
            .expect("total");
        let candidates = debug.get("candidates").and_then(Json::as_u64).expect("c");
        let survivors = debug.get("survivors").and_then(Json::as_u64).expect("s");
        assert!(probed <= total, "{debug}");
        assert!(candidates >= survivors, "{debug}");
        assert_eq!(
            survivors,
            first.get("count").and_then(Json::as_u64).expect("count")
        );
        assert!(debug.get("wall_micros").and_then(Json::as_u64).is_some());

        // The cached replay returns the same stored stats.
        let (_, body) = post(addr, "/query", q);
        let second = Json::parse(&body).expect("json");
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(second.get("debug"), first.get("debug"));

        // Without the flag the field is absent.
        let (_, body) = post(
            addr,
            "/query",
            r#"{"values": ["v0","v1","v2"], "threshold": 0.5}"#,
        );
        assert!(Json::parse(&body).expect("json").get("debug").is_none());

        // A non-boolean debug flag is a 400.
        let (status, _) = post(addr, "/query", r#"{"values": ["v0"], "debug": 1}"#);
        assert_eq!(status, 400);

        // /stats aggregates executed-query counters; the cache hit is not
        // double counted (2 distinct searches ran: the debug one + the
        // 3-value one).
        let (_, body) = get(addr, "/stats");
        let stats = Json::parse(&body).expect("json");
        let totals = stats.get("query_stats").expect("query_stats");
        assert_eq!(totals.get("executed").and_then(Json::as_u64), Some(2));
        let agg_probed = totals
            .get("partitions_probed")
            .and_then(Json::as_u64)
            .expect("agg");
        assert!(agg_probed >= probed, "{totals}");
        assert!(
            totals.get("candidates").and_then(Json::as_u64).expect("c")
                >= totals.get("survivors").and_then(Json::as_u64).expect("s")
        );
        server.shutdown();
    }

    #[test]
    fn batch_fans_out_and_keeps_order() {
        let (engine, _dir) = test_engine(8);
        let server = boot(engine);
        let queries: Vec<String> = (0..8)
            .map(|k| {
                let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("\"v{i}\"")).collect();
                format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","))
            })
            .collect();
        let body = format!("{{\"queries\": [{}]}}", queries.join(","));
        let (status, response) = post(server.addr(), "/batch", &body);
        assert_eq!(status, 200, "{response}");
        let parsed = Json::parse(&response).expect("json");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(8));
        let results = parsed.get("results").and_then(Json::as_array).expect("arr");
        // Query k is exactly domain k's value set: its own table must hit,
        // in order.
        for (k, result) in results.iter().enumerate() {
            let hits = result.get("hits").and_then(Json::as_array).expect("hits");
            assert!(
                hits.iter().any(|h| {
                    h.get("table").and_then(Json::as_str) == Some(format!("t{k}").as_str())
                }),
                "batch entry {k} missing self hit: {result}"
            );
        }
        server.shutdown();
    }

    #[test]
    fn batch_partial_failures_stay_in_position() {
        // Hostile input: one malformed item must neither fail the batch
        // nor shift its neighbours — every item answers (or errors) in
        // its own position, with a typed message.
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let body = r#"{"queries": [
            {"values": ["v0","v1","v2","v3","v4"], "threshold": 0.5},
            {"values": []},
            {"values": [1, 2]},
            {"values": ["v0"], "threshold": 7},
            {"values": ["v0","v1"], "k": 2},
            {"values": ["v0"], "k": 0},
            {"values": ["v0"], "debug": 1},
            "not an object",
            {"values": ["v0","v1","v2","v3","v4"], "threshold": 0.5}
        ]}"#;
        let (status, response) = post(server.addr(), "/batch", body);
        assert_eq!(status, 200, "{response}");
        let parsed = Json::parse(&response).expect("json");
        assert_eq!(parsed.get("count").and_then(Json::as_u64), Some(9));
        let results = parsed.get("results").and_then(Json::as_array).expect("arr");
        // Items 0 and 8 are valid and identical: both answer with hits.
        for &i in &[0usize, 8] {
            assert!(
                results[i].get("error").is_none(),
                "item {i}: {}",
                results[i]
            );
            assert!(
                results[i].get("hits").and_then(Json::as_array).is_some(),
                "item {i} lost its answer: {}",
                results[i]
            );
        }
        assert_eq!(results[0].get("hits"), results[8].get("hits"));
        // Identical uncached entries dispatch once: the duplicate borrows
        // the first occurrence's answer and reports it as cached.
        assert_eq!(results[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(results[8].get("cached"), Some(&Json::Bool(true)));
        // The top-k item between the hostile ones answers in its slot.
        let top = results[4]
            .get("hits")
            .and_then(Json::as_array)
            .expect("top-k");
        assert_eq!(top.len(), 2, "{}", results[4]);
        assert!(top
            .iter()
            .all(|h| h.get("estimate").and_then(Json::as_f64).is_some()));
        // Every hostile item carries its own typed error, in position.
        for (i, needle) in [
            (1usize, "must not be empty"),
            (2, "strings"),
            (3, "threshold"),
            (5, "\"k\""),
            (6, "debug"),
            (7, "values"),
        ] {
            let msg = results[i]
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("item {i} should error: {}", results[i]));
            assert!(msg.contains(needle), "item {i}: {msg:?} missing {needle:?}");
            assert!(results[i].get("hits").is_none(), "item {i} answered anyway");
        }
        server.shutdown();
    }

    /// The service state of a server that is never served: the query
    /// handlers run on it in-process.
    fn in_process(engine: Arc<Engine>) -> Shared {
        let config = testkit::config();
        let bound = reactor::bind(&config).expect("bind");
        Shared::new(engine, &config, Arc::clone(bound.state()))
    }

    fn json_of(outcome: Outcome) -> Json {
        let Body::Json(json) = outcome.body else {
            panic!("query answers are JSON values")
        };
        json
    }

    /// Cache hits and misses so far, and searches executed.
    fn counts(shared: &Shared) -> (u64, u64, u64) {
        let cache = shared.cache.stats();
        let executed = shared.query_totals.executed.load(Ordering::Relaxed);
        (cache.hits, cache.misses, executed)
    }

    /// One duplicate rule on both entry points: the first occurrence
    /// misses and runs, a later copy reads its answer back through the
    /// cache, which counts one hit, and reports `"cached": true`.
    #[test]
    fn duplicates_read_back_through_the_cache_on_batch_and_grouped_misses() {
        let a = r#"{"values": ["v0","v1","v2","v3","v4"], "threshold": 0.5}"#;
        let b = r#"{"values": ["v0","v1","v2"], "k": 2}"#;
        let cached = |answer: &Json| answer.get("cached").and_then(Json::as_bool);

        // A `/batch` of [A, A, B]: A and B miss and run; the second A hits.
        let (engine, _dir) = test_engine(6);
        let batch = in_process(engine);
        let request = Request {
            method: "POST".to_owned(),
            target: "/batch".to_owned(),
            http10: false,
            headers: Vec::new(),
            body: format!(r#"{{"queries": [{a}, {a}, {b}]}}"#).into_bytes(),
        };
        let body = json_of(handle_batch(&batch, &request));
        let results = body
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        let flags: Vec<Option<bool>> = results.iter().map(cached).collect();
        assert_eq!(flags, [Some(false), Some(true), Some(false)], "{body}");
        assert_eq!(results[0].get("hits"), results[1].get("hits"));
        assert_eq!(counts(&batch), (1, 2, 2), "(hits, misses, executed)");
        batch.maintainer.shutdown();

        // Two identical misses of one reactor tick: each missed when the
        // reactor probed; A runs once and the copy hits.
        let (engine, _dir) = test_engine(6);
        let grouped = in_process(engine);
        let misses: Vec<Box<MissQuery>> = (0..2)
            .map(
                |_| match query_step(&grouped, a.as_bytes(), false, Instant::now()) {
                    Step::Group(miss) => miss,
                    _ => panic!("an empty cache answers nothing"),
                },
            )
            .collect();
        let answers: Vec<Json> = execute_miss_group(&grouped, &misses)
            .into_iter()
            .map(json_of)
            .collect();
        let flags: Vec<Option<bool>> = answers.iter().map(cached).collect();
        assert_eq!(flags, [Some(false), Some(true)], "{answers:?}");
        assert_eq!(answers[0].get("hits"), answers[1].get("hits"));
        assert_eq!(answers[0].get("hits"), results[0].get("hits"));
        assert_eq!(counts(&grouped), (1, 2, 1), "(hits, misses, executed)");
        grouped.maintainer.shutdown();
    }

    #[test]
    fn cache_key_includes_debug_flag() {
        // A cached non-debug response must never answer a debug request,
        // and vice versa — the flag is part of the cache key.
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();
        let plain = r#"{"values": ["v0","v1","v2","v3","v4","v5"], "threshold": 0.5}"#;
        let debug =
            r#"{"values": ["v0","v1","v2","v3","v4","v5"], "threshold": 0.5, "debug": true}"#;

        let (_, body) = post(addr, "/query", plain);
        let first = Json::parse(&body).expect("json");
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        assert!(first.get("debug").is_none());

        // Same query with debug: a separate cache entry, never the plain
        // one replayed without its stats.
        let (_, body) = post(addr, "/query", debug);
        let second = Json::parse(&body).expect("json");
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)), "{second}");
        assert!(second.get("debug").is_some(), "debug stats missing");

        // Each variant now replays from its own entry.
        let (_, body) = post(addr, "/query", debug);
        let replay = Json::parse(&body).expect("json");
        assert_eq!(replay.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(replay.get("debug"), second.get("debug"));
        let (_, body) = post(addr, "/query", plain);
        let replay = Json::parse(&body).expect("json");
        assert_eq!(replay.get("cached"), Some(&Json::Bool(true)));
        assert!(replay.get("debug").is_none(), "debug leaked into plain");
        server.shutdown();
    }

    #[test]
    fn stats_memory_covers_staged_backlog() {
        let (engine, dir) = test_engine(6);
        let server = boot(Arc::clone(&engine));
        let addr = server.addr();
        let memory = |addr| {
            let (_, body) = get(addr, "/stats");
            let stats = Json::parse(&body).expect("json");
            let m = stats.get("memory").expect("memory object").clone();
            (
                m.get("index_bytes").and_then(Json::as_u64).expect("index"),
                m.get("staged_bytes")
                    .and_then(Json::as_u64)
                    .expect("staged"),
            )
        };
        let (index_bytes, staged_bytes) = memory(addr);
        assert!(index_bytes > 0);
        assert_eq!(staged_bytes, 0);

        // Staging an insert grows the backlog accounting (the signature
        // alone is num_perm lanes).
        let values: Vec<String> = (0..24).map(|i| format!("\"m{i}\"")).collect();
        let (status, body) = post(
            addr,
            "/insert",
            &format!("{{\"values\": [{}]}}", values.join(",")),
        );
        assert_eq!(status, 200, "{body}");
        let (_, staged_after_insert) = memory(addr);
        assert!(
            staged_after_insert >= 256 * Signature::LANE_BYTES as u64,
            "staged backlog under-reported: {staged_after_insert}"
        );

        // Commit folds the backlog into the index: staged accounting
        // drops back to zero.
        let (status, _) = post(addr, "/commit", "");
        assert_eq!(status, 200);
        let (index_after, staged_after_commit) = memory(addr);
        assert_eq!(staged_after_commit, 0);
        assert!(index_after > 0);

        // The index and its provenance are reported under the names, and
        // with the values, `lshe stats` prints.
        let (_, body) = get(addr, "/stats");
        let stats = Json::parse(&body).expect("json");
        let memory = stats.get("memory").expect("memory object");
        let container = engine.snapshot().container().clone();
        assert_eq!(
            memory.get("provenance_bytes").and_then(Json::as_u64),
            Some(container.provenance_bytes() as u64)
        );
        let described = container.describe();
        let reported = |name: &str| memory.get(name).and_then(Json::as_u64).expect("reported");
        for name in [
            "index_bytes",
            "mapped_bytes",
            "heap_bytes",
            "provenance_bytes",
            "id_map_bytes",
        ] {
            assert!(
                described.contains(&format!("  {name}: {}", reported(name))),
                "{name} = {} not in:\n{described}",
                reported(name)
            );
        }
        assert_eq!(
            reported("mapped_bytes") + reported("heap_bytes"),
            reported("index_bytes")
        );
        assert!(reported("id_map_bytes") > 0);
        // The base is served from the file the engine loaded: a mapping,
        // of which what was read is resident, on the one kernel that says.
        assert!(reported("mapped_bytes") > 0);
        let file = std::fs::metadata(dir.path().join("index.lshe")).expect("index file");
        let resident = memory.get("mapped_resident_bytes").and_then(Json::as_u64);
        if cfg!(target_os = "linux") {
            let resident = resident.expect("mapped_resident_bytes on Linux");
            assert!(resident > 0 && resident <= file.len().next_multiple_of(1 << 16));
            // The process's file pages hold the mapping's, and its code.
            let (anon, file) = (reported("rss_anon_bytes"), reported("rss_file_bytes"));
            assert!(anon > 0 && file >= resident, "{anon} anon, {file} file");
        } else {
            assert_eq!(resident, None);
            assert_eq!(memory.get("rss_anon_bytes"), None);
            assert_eq!(memory.get("rss_file_bytes"), None);
        }
        server.shutdown();
    }

    /// `/health` and `/stats` are answered on the reactor thread, so
    /// neither may wait on the engine's write lock, which a fold holds for
    /// its whole run; the staged counts they read stay exact.
    #[test]
    fn health_and_stats_never_wait_on_the_writer() {
        let (engine, _dir) = test_engine(6);
        let server = boot(Arc::clone(&engine));
        let addr = server.addr();
        let staged = || {
            let (status, body) = get(addr, "/stats");
            assert_eq!(status, 200, "{body}");
            let stats = Json::parse(&body).expect("json");
            let s = stats.get("staged").expect("staged");
            let count = |key: &str| s.get(key).and_then(Json::as_u64).expect(key);
            let next_id = stats
                .get("next_id")
                .and_then(Json::as_u64)
                .expect("next_id");
            (count("inserts"), count("removes"), next_id)
        };
        assert_eq!(staged(), (0, 0, 6));
        let insert = r#"{"values": ["x0", "x1", "x2", "x3"]}"#;
        assert_eq!(post(addr, "/insert", insert).0, 200);
        assert_eq!(staged(), (1, 0, 7));
        assert_eq!(post(addr, "/remove", r#"{"id": 2}"#).0, 200);
        assert_eq!(staged(), (1, 1, 7));

        let (held, hold) = std::sync::mpsc::channel();
        let holder = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let _writer = engine.writer();
                held.send(()).expect("signal");
                std::thread::sleep(Duration::from_millis(500));
            })
        };
        hold.recv().expect("the writer is held");
        for path in ["/health", "/stats"] {
            let started = Instant::now();
            let (status, body) = get(addr, path);
            let waited = started.elapsed();
            assert_eq!(status, 200, "{path}: {body}");
            assert!(waited < Duration::from_millis(50), "{path} took {waited:?}");
        }
        assert_eq!(staged(), (1, 1, 7));
        holder.join().expect("holder");

        assert_eq!(post(addr, "/commit", "").0, 200);
        assert_eq!(staged(), (0, 0, 7));
        server.shutdown();
    }

    #[test]
    fn insert_at_the_last_id_is_refused_and_the_server_answers_on() {
        let (engine, _dir) = test_engine(4);
        let server = boot(engine);
        let addr = server.addr();
        let insert = r#"{"values": ["a", "b"], "id": 4294967295}"#;
        let (status, body) = post(addr, "/insert", insert);
        assert_eq!(status, 400, "{body}");
        assert!(
            body.contains("domain id 4294967295 is out of range"),
            "{body}"
        );
        let query = r#"{"values": ["v0", "v1", "v2", "v3"], "threshold": 0.5}"#;
        let (status, body) = post(addr, "/query", query);
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }

    #[test]
    fn insert_remove_commit_endpoints() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();

        // Stage an insert; not yet visible.
        let values: Vec<String> = (0..30).map(|i| format!("\"w{i}\"")).collect();
        let insert_body = format!(
            "{{\"values\": [{}], \"table\": \"live\", \"column\": \"c\"}}",
            values.join(",")
        );
        let (status, body) = post(addr, "/insert", &insert_body);
        assert_eq!(status, 200, "{body}");
        let staged = Json::parse(&body).expect("json");
        assert_eq!(staged.get("status").and_then(Json::as_str), Some("staged"));
        assert_eq!(staged.get("id").and_then(Json::as_u64), Some(6));
        let query_body = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));
        let (_, pre) = post(addr, "/query", &query_body);
        let pre = Json::parse(&pre).expect("json");
        assert_eq!(pre.get("count").and_then(Json::as_u64), Some(0));

        // Stage a remove; /stats shows both.
        let (status, body) = post(addr, "/remove", r#"{"id": 2}"#);
        assert_eq!(status, 200, "{body}");
        let (_, stats) = get(addr, "/stats");
        let stats = Json::parse(&stats).expect("json");
        let s = stats.get("staged").expect("staged");
        assert_eq!(s.get("inserts").and_then(Json::as_u64), Some(1));
        assert_eq!(s.get("removes").and_then(Json::as_u64), Some(1));

        // Bad mutations are 400s.
        assert_eq!(post(addr, "/remove", r#"{"id": 2}"#).0, 400, "double");
        assert_eq!(post(addr, "/remove", r#"{"id": 999}"#).0, 400, "unknown");
        assert_eq!(post(addr, "/remove", "{}").0, 400);
        assert_eq!(post(addr, "/insert", r#"{"values": []}"#).0, 400);
        assert_eq!(post(addr, "/insert", r#"{"values": [3]}"#).0, 400);
        assert_eq!(get(addr, "/commit").0, 405);

        // Commit: new generation, insert visible, removed id gone.
        let (status, body) = post(addr, "/commit", "");
        assert_eq!(status, 200, "{body}");
        let committed = Json::parse(&body).expect("json");
        assert_eq!(
            committed.get("status").and_then(Json::as_str),
            Some("committed")
        );
        assert_eq!(committed.get("applied").and_then(Json::as_u64), Some(2));
        assert_eq!(committed.get("generation").and_then(Json::as_u64), Some(2));
        assert_eq!(committed.get("domains").and_then(Json::as_u64), Some(6));
        let (_, post_commit) = post(addr, "/query", &query_body);
        let post_commit = Json::parse(&post_commit).expect("json");
        assert_eq!(
            post_commit.get("cached"),
            Some(&Json::Bool(false)),
            "new generation must not serve the stale cached answer"
        );
        let hits = post_commit
            .get("hits")
            .and_then(Json::as_array)
            .expect("hits");
        assert!(
            hits.iter()
                .any(|h| h.get("id").and_then(Json::as_u64) == Some(6)
                    && h.get("table").and_then(Json::as_str) == Some("live")),
            "{post_commit}"
        );

        // Idempotent empty commit.
        let (status, body) = post(addr, "/commit", "");
        assert_eq!(status, 200);
        assert_eq!(
            Json::parse(&body)
                .expect("json")
                .get("status")
                .and_then(Json::as_str),
            Some("nothing staged")
        );
        server.shutdown();
    }

    /// Satellite regression: the generation-keyed cache must never replay
    /// a pre-commit answer after a commit OR a compaction swaps the
    /// snapshot. insert → query → commit → query must observe the new
    /// record, and the post-compaction replay must still answer fresh.
    #[test]
    fn cache_never_serves_pre_commit_hits_after_commit_or_compaction() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();
        let values: Vec<String> = (0..25).map(|i| format!("\"g{i}\"")).collect();
        let query_body = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));

        // Stage the domain, then query it: a miss with zero hits, cached
        // on the pre-commit generation.
        let (status, _) = post(
            addr,
            "/insert",
            &format!("{{\"values\": [{}]}}", values.join(",")),
        );
        assert_eq!(status, 200);
        let (_, body) = post(addr, "/query", &query_body);
        let miss = Json::parse(&body).expect("json");
        assert_eq!(miss.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(miss.get("count").and_then(Json::as_u64), Some(0));
        let (_, body) = post(addr, "/query", &query_body);
        let replay = Json::parse(&body).expect("json");
        assert_eq!(replay.get("cached"), Some(&Json::Bool(true)));

        // Commit seals the insert into a segment and bumps the
        // generation: the cached zero-hit answer must be unreachable.
        let (status, body) = post(addr, "/commit", "");
        assert_eq!(status, 200, "{body}");
        let committed = Json::parse(&body).expect("json");
        assert_eq!(committed.get("sealed"), Some(&Json::Bool(true)));
        assert_eq!(committed.get("segments").and_then(Json::as_u64), Some(1));
        let (_, body) = post(addr, "/query", &query_body);
        let fresh = Json::parse(&body).expect("json");
        assert_eq!(
            fresh.get("cached"),
            Some(&Json::Bool(false)),
            "stale pre-commit answer replayed: {fresh}"
        );
        let hits = fresh.get("hits").and_then(Json::as_array).expect("hits");
        assert!(
            hits.iter()
                .any(|h| h.get("id").and_then(Json::as_u64) == Some(6)),
            "committed insert invisible: {fresh}"
        );

        // Compaction folds the segment into the base and bumps again: the
        // post-commit cache entry is dead weight too, and the answer must
        // survive the fold.
        let (status, body) = post(addr, "/compact", "");
        assert_eq!(status, 200, "{body}");
        let (_, body) = post(addr, "/query", &query_body);
        let folded = Json::parse(&body).expect("json");
        assert_eq!(folded.get("cached"), Some(&Json::Bool(false)), "{folded}");
        assert_eq!(fresh.get("hits"), folded.get("hits"));
        server.shutdown();
    }

    #[test]
    fn compact_endpoint_folds_segments_and_stats_track_drift() {
        let (engine, _dir) = test_engine(6);
        let server = boot(Arc::clone(&engine));
        let addr = server.addr();
        let seg_stats = |addr| {
            let (_, body) = get(addr, "/stats");
            let stats = Json::parse(&body).expect("json");
            (
                stats.get("segments").and_then(Json::as_u64).expect("segs"),
                stats
                    .get("tombstones")
                    .and_then(Json::as_u64)
                    .expect("tombs"),
                stats
                    .get("last_compaction")
                    .and_then(Json::as_u64)
                    .expect("last"),
            )
        };
        assert_eq!(seg_stats(addr), (0, 0, 0));

        // One insert + one remove, committed: one sealed segment, one
        // tombstone, no compaction yet.
        let values: Vec<String> = (0..22).map(|i| format!("\"s{i}\"")).collect();
        let (status, _) = post(
            addr,
            "/insert",
            &format!("{{\"values\": [{}]}}", values.join(",")),
        );
        assert_eq!(status, 200);
        assert_eq!(post(addr, "/remove", r#"{"id": 1}"#).0, 200);
        let (status, body) = post(addr, "/commit", "");
        assert_eq!(status, 200, "{body}");
        let committed = Json::parse(&body).expect("json");
        assert_eq!(committed.get("tombstones").and_then(Json::as_u64), Some(1));
        assert_eq!(seg_stats(addr), (1, 1, 0));

        // Compaction erases the drift and records its generation, and the
        // maintenance counters report the fold as the container counts it:
        // the ranked rebuild rewrites every live entry.
        let folded = engine
            .snapshot()
            .container()
            .clone()
            .apply_merge(&lshe_core::MergeTask::Full)
            .entries_folded;
        assert_eq!(folded, 6);
        let (status, body) = post(addr, "/compact", "");
        assert_eq!(status, 200, "{body}");
        let compacted = Json::parse(&body).expect("json");
        assert_eq!(
            compacted.get("status").and_then(Json::as_str),
            Some("compacted")
        );
        assert_eq!(compacted.get("segments").and_then(Json::as_u64), Some(0));
        assert_eq!(compacted.get("tombstones").and_then(Json::as_u64), Some(0));
        assert_eq!(compacted.get("domains").and_then(Json::as_u64), Some(6));
        let generation = compacted
            .get("generation")
            .and_then(Json::as_u64)
            .expect("generation");
        assert_eq!(seg_stats(addr), (0, 0, generation));
        let (_, body) = get(addr, "/stats");
        let stats = Json::parse(&body).expect("json");
        let maint = stats.get("maintenance").expect("maintenance object");
        assert_eq!(
            maint.get("entries_folded").and_then(Json::as_u64),
            Some(folded as u64)
        );
        assert_eq!(get(addr, "/compact").0, 405);
        server.shutdown();
    }

    /// The background maintenance thread: every commit wakes it, and it
    /// folds only overflowing levels — no `/compact` call involved, no
    /// full rebuild, and the sealed stack stays within the planner's
    /// segment bound.
    #[test]
    fn background_maintenance_bounds_the_segment_stack() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();
        let commits = 16u64;
        for k in 0..commits {
            let values: Vec<String> = (0..20).map(|i| format!("\"b{k}x{i}\"")).collect();
            let (status, _) = post(
                addr,
                "/insert",
                &format!("{{\"values\": [{}]}}", values.join(",")),
            );
            assert_eq!(status, 200);
            let (status, body) = post(addr, "/commit", "");
            assert_eq!(status, 200, "{body}");
        }
        // Maintenance runs asynchronously; poll /stats until the plan is
        // quiescent with the stack inside the bound and at least one
        // partial fold recorded.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = get(addr, "/stats");
            let stats = Json::parse(&body).expect("json");
            let maint = stats.get("maintenance").expect("maintenance object");
            let segments = stats.get("segments").and_then(Json::as_u64).expect("segs");
            let bound = maint
                .get("segment_bound")
                .and_then(Json::as_u64)
                .expect("bound");
            let queued = maint.get("queued").and_then(Json::as_u64).expect("queued");
            let merges = maint.get("merges").and_then(Json::as_u64).expect("merges");
            if queued == 0 && merges > 0 && segments <= bound {
                // Every committed domain survived the background folds.
                assert_eq!(
                    stats.get("domains").and_then(Json::as_u64),
                    Some(6 + commits)
                );
                break;
            }
            assert!(
                Instant::now() < deadline,
                "maintenance never drained the stack: {stats}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    /// The maintenance thread plans once when it starts: a segment stack
    /// the engine replayed from its delta log folds with no `/commit` to
    /// wake it.
    #[test]
    fn a_replayed_segment_stack_folds_at_boot() {
        let dir = std::env::temp_dir().join(format!("lshe_server_boot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("idx.lshe");
        test_container(6).save(&path).expect("save");
        let engine = Engine::load(&path, 1).expect("load");
        for k in 0..5 {
            let values: Vec<String> = (0..20).map(|i| format!("b{k}x{i}")).collect();
            let domain = Domain::from_strs(values.iter().map(String::as_str));
            let signature = domain.signature(engine.snapshot().hasher());
            engine
                .stage_insert("batch".into(), "col".into(), domain.len() as u64, signature)
                .expect("stage");
            engine.commit_staged().expect("commit");
        }
        drop(engine);

        let engine = Arc::new(Engine::load(&path, 1).expect("restart"));
        assert_eq!(engine.segment_layout().segments.len(), 5);
        let server = boot(Arc::clone(&engine));
        let deadline = Instant::now() + Duration::from_secs(10);
        while engine.segment_layout().segments.len() >= 5 {
            assert!(Instant::now() < deadline, "the replayed stack never folded");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(engine.snapshot().container().len(), 11);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Past [`lshe_core::MAX_TOMBSTONE_RATIO`] the maintenance thread
    /// plans a full fold on its own: removing over a quarter of the live
    /// corpus and committing folds the sealed stack and every tombstone
    /// into the base off the request path, and every live domain still
    /// answers its own query.
    #[test]
    fn tombstone_backlog_drives_a_background_full_fold() {
        let (engine, _dir) = test_engine(8);
        let server = boot(engine);
        let addr = server.addr();
        let inserted: Vec<Vec<String>> = (0..2)
            .map(|k| (0..20).map(|i| format!("\"b{k}x{i}\"")).collect())
            .collect();
        for values in &inserted {
            let body = format!("{{\"values\": [{}]}}", values.join(","));
            assert_eq!(post(addr, "/insert", &body).0, 200);
            assert_eq!(post(addr, "/commit", "").0, 200);
        }
        // 4 of the 10 live domains: 4 tombstones against 6 live is past
        // the 25 % trigger.
        for id in 0..4 {
            let (status, body) = post(addr, "/remove", &format!("{{\"id\": {id}}}"));
            assert_eq!(status, 200, "{body}");
        }
        let (status, body) = post(addr, "/commit", "");
        assert_eq!(status, 200, "{body}");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = get(addr, "/stats");
            let stats = Json::parse(&body).expect("json");
            let field = |key: &str| stats.get(key).and_then(Json::as_u64).expect("stat");
            let full = stats
                .get("maintenance")
                .and_then(|m| m.get("full_merges"))
                .and_then(Json::as_u64)
                .expect("full_merges");
            if field("segments") == 0 && field("tombstones") == 0 && full >= 1 {
                assert_eq!(field("domains"), 6);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "maintenance never ran the full fold: {stats}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let base = (4..8).map(|k| (0..20 + 5 * k).map(|i| format!("\"v{i}\"")).collect());
        for (id, values) in (4u64..).zip(base.chain(inserted)) {
            let query = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));
            let (_, body) = post(addr, "/query", &query);
            let answer = Json::parse(&body).expect("json");
            let ids: Vec<u64> = answer
                .get("hits")
                .and_then(Json::as_array)
                .expect("hits")
                .iter()
                .filter_map(|h| h.get("id").and_then(Json::as_u64))
                .collect();
            assert!(ids.contains(&id), "domain {id} lost by the fold: {answer}");
            assert!(
                ids.iter().all(|&hit| hit >= 4),
                "removed id served: {answer}"
            );
        }
        server.shutdown();
    }

    /// Satellite regression: `/compact` must never block the reactor. A
    /// full fold — artificially stretched to hundreds of milliseconds —
    /// runs on the maintenance thread while queries keep answering fast,
    /// and `?async=1` acknowledges without waiting for the fold at all.
    #[test]
    fn queries_stay_fast_while_compaction_runs() {
        let (engine, _dir) = test_engine(8);
        let server = boot(engine);
        let addr = server.addr();
        // Seal one segment so the fold has work to do.
        let (status, _) = post(
            addr,
            "/insert",
            r#"{"values": ["q0","q1","q2","q3","q4","q5"]}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(post(addr, "/commit", "").0, 200);
        server
            .maintainer
            .set_full_delay_for_tests(Duration::from_millis(500));
        let (status, body) = post(addr, "/compact?async=1", "");
        assert_eq!(status, 200, "{body}");
        let scheduled = Json::parse(&body).expect("json");
        assert_eq!(
            scheduled.get("status").and_then(Json::as_str),
            Some("scheduled")
        );
        // The fold is now pending for >= 500ms; prove the probe window
        // overlaps it…
        let (_, body) = get(addr, "/stats");
        let stats = Json::parse(&body).expect("json");
        let full_before = stats
            .get("maintenance")
            .expect("maintenance object")
            .get("full_merges")
            .and_then(Json::as_u64)
            .expect("full_merges");
        assert_eq!(full_before, 0, "fold finished before the probe began");
        // …while queries answer well inside the latency budget. Distinct
        // thresholds per probe keep the cache from absorbing the work.
        let mut latencies = Vec::new();
        let probe_until = Instant::now() + Duration::from_millis(350);
        let mut i = 0u64;
        while Instant::now() < probe_until {
            let q = format!(
                "{{\"values\": [\"v0\",\"v1\",\"v2\",\"v3\",\"v4\",\"v5\",\"v6\",\"v7\",\"v8\",\"v9\"], \"threshold\": 0.{:03}}}",
                500 + (i % 100)
            );
            let started = Instant::now();
            let (status, _) = post(addr, "/query", &q);
            assert_eq!(status, 200);
            latencies.push(started.elapsed());
            i += 1;
        }
        assert!(!latencies.is_empty());
        latencies.sort();
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        // The 10ms p99 budget is the release-mode contract; debug builds
        // get slack for the unoptimised sketch math.
        let budget = if cfg!(debug_assertions) {
            Duration::from_millis(250)
        } else {
            Duration::from_millis(10)
        };
        assert!(
            p99 < budget,
            "p99 {p99:?} over {budget:?} across {} queries during compaction",
            latencies.len()
        );
        // The scheduled fold still lands: poll until it completes.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (_, body) = get(addr, "/stats");
            let stats = Json::parse(&body).expect("json");
            let m = stats.get("maintenance").expect("maintenance object");
            if m.get("full_merges").and_then(Json::as_u64) == Some(1) {
                assert_eq!(stats.get("segments").and_then(Json::as_u64), Some(0));
                break;
            }
            assert!(
                Instant::now() < deadline,
                "async compaction never landed: {stats}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn drain_answers_pipelined_successors_with_503_retry_after() {
        testkit::drain_answers_pipelined_successors_with_503_retry_after(boot_engine);
    }

    #[test]
    fn shutdown_endpoint_stops_server() {
        let (engine, _dir) = test_engine(4);
        let server = boot(engine);
        let addr = server.addr();
        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200, "{body}");
        server.join();
        // The listener is gone: new connections must fail (allow the OS a
        // moment to tear the socket down).
        std::thread::sleep(Duration::from_millis(50));
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let (engine, _dir) = test_engine(6);
        let server = boot(engine);
        let addr = server.addr();
        // Mixed pipelined burst on one connection, sent before any
        // response is read: a cache-missing query (slow, goes through the
        // compute pool), /health (fast, inline), the same query again,
        // and /stats. Responses must come back strictly in request order.
        let q = r#"{"values": ["v0","v1","v2","v3","v4","v5","v6"], "threshold": 0.5}"#;
        let mut client = HttpClient::connect(addr);
        client.send("POST", "/query", Some(q));
        client.send("GET", "/health", None);
        client.send("POST", "/query", Some(q));
        client.send("GET", "/stats", None);
        let (s1, b1) = client.read_response();
        let (s2, b2) = client.read_response();
        let (s3, b3) = client.read_response();
        let (s4, b4) = client.read_response();
        assert_eq!(
            (s1, s2, s3, s4),
            (200, 200, 200, 200),
            "{b1} {b2} {b3} {b4}"
        );
        let r1 = Json::parse(&b1).expect("json");
        assert!(r1.get("hits").is_some(), "slot 1 should be the query: {r1}");
        let r2 = Json::parse(&b2).expect("json");
        assert_eq!(
            r2.get("status").and_then(Json::as_str),
            Some("ok"),
            "slot 2 should be /health: {r2}"
        );
        let r3 = Json::parse(&b3).expect("json");
        assert_eq!(r1.get("hits"), r3.get("hits"), "same query, same answer");
        let r4 = Json::parse(&b4).expect("json");
        assert!(
            r4.get("requests").is_some(),
            "slot 4 should be /stats: {r4}"
        );
        // The reactor saw at least 2 requests in flight at once.
        let hwm = r4
            .get("server")
            .and_then(|s| s.get("pipeline_depth_hwm"))
            .and_then(Json::as_u64)
            .expect("hwm");
        assert!(hwm >= 2, "pipelined burst not observed: hwm={hwm}");
        server.shutdown();
    }

    #[test]
    fn malformed_mid_pipeline_answers_valid_prefix_then_closes() {
        testkit::malformed_mid_pipeline_answers_valid_prefix_then_closes(boot_engine);
    }

    #[test]
    fn slow_drip_body_hits_request_deadline() {
        testkit::slow_drip_body_hits_request_deadline(boot_engine);
    }

    #[test]
    fn connection_cap_closes_excess_connections() {
        testkit::connection_cap_closes_excess_connections(boot_engine);
    }

    #[test]
    fn byte_dripped_request_head_still_parses() {
        // The resumable parser must assemble a request that arrives one
        // byte at a time (within the deadline) exactly like one burst.
        let (engine, _dir) = test_engine(4);
        let server = boot(engine);
        let addr = server.addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let raw = b"GET /health HTTP/1.1\r\nhost: x\r\n\r\n";
        for chunk in raw.chunks(3) {
            stream.write_all(chunk).expect("drip");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reader = BufReader::new(stream);
        let (status, body) = read_resp(&mut reader).expect("response");
        assert_eq!(status, 200, "{body}");
        server.shutdown();
    }
}
