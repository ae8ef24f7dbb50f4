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
use lshe_core::{Query, QueryStats, SearchHit, SearchOutcome};
use lshe_corpus::json::Json;
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
/// `/query`/`/topk` bodies up to this size parse inline on the reactor;
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
    let cache = Arc::new(LruCache::new(config.cache_capacity));
    // The maintainer swaps snapshots from its own thread; its on-swap
    // callback drops the now-unreachable cache generation, exactly as the
    // request-path handlers do after their own swaps.
    let maintainer = Maintainer::spawn(Arc::clone(&engine), {
        let cache = Arc::clone(&cache);
        Box::new(move || cache.clear())
    });
    let shared = Arc::new(Shared {
        engine,
        cache,
        counters: Counters::default(),
        query_totals: QueryStatTotals::default(),
        reactor: Arc::clone(bound.state()),
        started: Instant::now(),
        shard_id: config.shard_id,
        maintainer: Arc::clone(&maintainer),
    });
    Ok(ServerHandle {
        reactor: bound.serve(shared)?,
        maintainer,
    })
}

impl Service for Shared {
    type Miss = Box<MissQuery>;

    /// Cache probes for small `/query`/`/topk` bodies and the cheap
    /// endpoints (`/health`, `/stats`, 404, 405) answer inline; a cache
    /// miss joins the tick's batched search; the rest is long work.
    fn step(&self, request: Request) -> Step<Box<MissQuery>> {
        match (request.method.as_str(), request.path()) {
            ("POST", path @ ("/query" | "/topk")) if request.body.len() <= INLINE_BODY_MAX => {
                match query_step(self, &request.body, path == "/topk", Instant::now()) {
                    QueryStep::Reply(outcome) => Step::Reply(outcome),
                    QueryStep::Miss(miss) => Step::Group(miss),
                }
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
/// mapping is resident.
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
    Json::obj(memory)
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

/// One parsed query after sketching: sketch, cardinality, threshold, and
/// optional k. (The `debug` response flag stays on [`ParsedItem`] — it
/// shapes rendering, not execution.)
struct QuerySpec {
    signature: Signature,
    size: u64,
    threshold: f64,
    k: usize,
}

impl QuerySpec {
    /// The typed [`Query`] this spec describes.
    fn query(&self) -> Query<'_> {
        if self.k > 0 {
            Query::top_k(&self.signature, self.k).with_size(self.size)
        } else {
            Query::threshold(&self.signature, self.threshold).with_size(self.size)
        }
    }
}

/// One request object parsed up to (but not including) sketching: the
/// query domain plus its options. Both the single-query and batch paths
/// stop here first — the cache is keyed on the *raw domain* (see
/// [`item_key`]), so a hit never pays for sketching at all; only misses
/// go on to one bulk [`bulk_signatures`](lshe_minhash::MinHasher::bulk_signatures)
/// pass.
pub(crate) struct ParsedItem {
    domain: Domain,
    threshold: f64,
    k: usize,
    debug: bool,
}

impl ParsedItem {
    fn spec(&self, signature: Signature) -> QuerySpec {
        QuerySpec {
            size: self.domain.len() as u64,
            signature,
            threshold: self.threshold,
            k: self.k,
        }
    }
}

/// Parses a request object: `values` (required string array, hashed
/// server-side into the index's hash universe), plus optional
/// `threshold`, `k`, and `debug`. A present `k` always means top-k — on
/// `/query`, `/topk`, and `/batch` entries alike; `require_k` only makes
/// it mandatory (`/topk`).
fn parse_item(body: &Json, require_k: bool) -> Result<ParsedItem, String> {
    let values = body
        .get("values")
        .and_then(Json::as_array)
        .ok_or("missing \"values\": expected an array of strings")?;
    if values.is_empty() {
        return Err("\"values\" must not be empty".to_owned());
    }
    let mut strs = Vec::with_capacity(values.len());
    for v in values {
        strs.push(v.as_str().ok_or("\"values\" entries must all be strings")?);
    }
    let domain = Domain::from_strs(strs.iter().copied());
    let threshold = match body.get("threshold") {
        None => DEFAULT_THRESHOLD,
        Some(t) => t
            .as_f64()
            .filter(|t| (0.0..=1.0).contains(t))
            .ok_or("\"threshold\" must be a number in [0, 1]")?,
    };
    let k = match body.get("k") {
        None if require_k => return Err("missing \"k\": top-k needs a positive integer".to_owned()),
        None => 0,
        Some(k) => k
            .as_u64()
            .filter(|&k| (1..=MAX_K as u64).contains(&k))
            .ok_or_else(|| format!("\"k\" must be an integer in [1, {MAX_K}]"))?
            as usize,
    };
    let debug = match body.get("debug") {
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

/// Sketches and searches cache-missed items in ONE batched dispatch:
/// first-occurrence duplicates collapse (later copies alias the first
/// answer, reported `cached` exactly as sequential execution would),
/// unique items sketch in one `bulk_signatures` pass and search in one
/// `search_batch` call, and every executed outcome lands in the cache.
/// Returns, per input item, `Ok((outcome, aliased))` or the per-item
/// error.
#[allow(clippy::type_complexity)]
fn run_uncached(
    shared: &Shared,
    snap: &Snapshot,
    items: &[(&ParsedItem, QueryKey)],
) -> Vec<Result<(Arc<SearchOutcome>, bool), String>> {
    // Collapse duplicates (same key ⇒ same answer) before paying for
    // sketching: `alias_of[i]` points at the unique slot answering item i.
    let mut unique_positions: Vec<usize> = Vec::with_capacity(items.len());
    let mut first_seen: HashMap<QueryKey, usize> = HashMap::with_capacity(items.len());
    let mut alias_of: Vec<usize> = Vec::with_capacity(items.len());
    for (i, (_, key)) in items.iter().enumerate() {
        match first_seen.entry(*key) {
            std::collections::hash_map::Entry::Occupied(e) => alias_of.push(*e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(unique_positions.len());
                alias_of.push(unique_positions.len());
                unique_positions.push(i);
            }
        }
    }
    // Sketch every unique item in one bulk pass (shared hash scratch,
    // worker lanes spawned once), then search them in one batch so the
    // backend amortizes partition/shard probing across the lot.
    let sets: Vec<&[u64]> = unique_positions
        .iter()
        .map(|&i| items[i].0.domain.hashes())
        .collect();
    let signatures = snap.hasher().bulk_signatures(&sets);
    let specs: Vec<QuerySpec> = unique_positions
        .iter()
        .zip(signatures)
        .map(|(&i, sig)| items[i].0.spec(sig))
        .collect();
    let queries: Vec<Query<'_>> = specs.iter().map(QuerySpec::query).collect();
    let outcomes = snap.index().search_batch(&queries);
    let unique_results: Vec<Result<Arc<SearchOutcome>, String>> = unique_positions
        .iter()
        .zip(outcomes)
        .map(|(&i, result)| match result {
            Ok(outcome) => {
                shared.query_totals.record(&outcome.stats);
                let outcome = Arc::new(outcome);
                shared.cache.insert(items[i].1, Arc::clone(&outcome));
                Ok(outcome)
            }
            Err(e) => Err(e.to_string()),
        })
        .collect();
    alias_of
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let aliased = unique_positions[slot] != i;
            match &unique_results[slot] {
                Ok(outcome) => Ok((Arc::clone(outcome), aliased)),
                Err(msg) => Err(msg.clone()),
            }
        })
        .collect()
}

/// Bumps the per-endpoint counter for one answered query.
fn bump_query_counter(shared: &Shared, k: usize) {
    if k > 0 {
        shared.counters.topk.fetch_add(1, Ordering::Relaxed);
    } else {
        shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    }
}

/// Renders one answered query in the `/query`/`/topk` response shape.
fn render_query_outcome(
    snap: &Snapshot,
    item: &ParsedItem,
    outcome: &SearchOutcome,
    cached: bool,
    started: Instant,
) -> Outcome {
    let mut fields = vec![
        ("count", Json::uint(outcome.hits.len() as u64)),
        ("cached", Json::Bool(cached)),
        ("generation", Json::uint(snap.generation())),
        (
            "query_time_us",
            Json::uint(started.elapsed().as_micros() as u64),
        ),
        ("hits", hits_json(snap, &outcome.hits)),
    ];
    if item.debug {
        fields.push(("debug", debug_json(&outcome.stats)));
    }
    Outcome::ok(fields_obj(fields))
}

fn fields_obj(fields: Vec<(&str, Json)>) -> Json {
    Json::obj(fields)
}

/// A `/query`/`/topk` request that missed the cache: everything needed to
/// execute it later (possibly batched with other same-tick misses), off
/// the reactor thread.
pub(crate) struct MissQuery {
    item: ParsedItem,
    key: QueryKey,
    snap: Arc<Snapshot>,
    started: Instant,
}

/// The first, non-blocking half of a `/query`/`/topk` request: parse, key
/// the cache on the raw domain, and either answer immediately (parse
/// error or cache hit — no sketching, no searching) or hand back the
/// deferred [`MissQuery`].
enum QueryStep {
    /// Answer now (error or cache hit).
    Reply(Outcome),
    /// Cache miss: execute via [`execute_miss_group`].
    Miss(Box<MissQuery>),
}

/// Runs the cheap half of a single query. Safe on the reactor thread: the
/// worst case is a JSON parse + one cache probe.
fn query_step(shared: &Shared, body: &[u8], require_k: bool, started: Instant) -> QueryStep {
    let json = match parse_body_bytes(body) {
        Ok(json) => json,
        Err(msg) => return QueryStep::Reply(Outcome::error(400, msg)),
    };
    let item = match parse_item(&json, require_k) {
        Ok(item) => item,
        Err(msg) => return QueryStep::Reply(Outcome::error(400, msg)),
    };
    let snap = shared.engine.snapshot();
    let key = item_key(&item, snap.generation());
    if let Some(outcome) = shared.cache.get(&key) {
        bump_query_counter(shared, item.k);
        return QueryStep::Reply(render_query_outcome(&snap, &item, &outcome, true, started));
    }
    QueryStep::Miss(Box::new(MissQuery {
        item,
        key,
        snap,
        started,
    }))
}

/// Executes a group of same-tick cache misses in as few batched dispatches
/// as possible (one per snapshot generation — normally exactly one), and
/// returns the outcomes in input order. This is how the reactor converts
/// N concurrent single-query requests into one `search_batch` call.
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
        for (&i, result) in positions.iter().zip(run_uncached(shared, snap, &items)) {
            let miss = &jobs[i];
            out[i] = Some(match result {
                Ok((outcome, aliased)) => {
                    bump_query_counter(shared, miss.item.k);
                    // An alias shares a neighbour's just-executed answer —
                    // reported `cached`, exactly as sequential arrival
                    // order would have produced.
                    render_query_outcome(&miss.snap, &miss.item, &outcome, aliased, miss.started)
                }
                Err(msg) => Outcome::error(400, msg),
            });
        }
    }
    out.into_iter()
        .map(|o| o.expect("every job answered"))
        .collect()
}

/// Renders a hit list with provenance.
fn hits_json(snap: &Snapshot, hits: &[SearchHit]) -> Json {
    Json::Arr(
        hits.iter()
            .map(|&SearchHit { id, estimate }| {
                let (table, column, size) = snap
                    .container()
                    .record(id)
                    .map(|r| (r.table, r.column, r.size))
                    .unwrap_or(("?", "?", 0));
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

fn parse_body_bytes(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    if text.trim().is_empty() {
        return Ok(Json::Obj(Vec::new()));
    }
    Json::parse(text).map_err(|e| format!("invalid JSON body: {e}"))
}

fn parse_body(request: &Request) -> Result<Json, String> {
    parse_body_bytes(&request.body)
}

/// `/query` and `/topk` via the generic (blocking) route path: the cheap
/// half inline, then the miss executed immediately. The reactor uses the
/// two halves separately so misses can batch across connections.
fn handle_query(shared: &Shared, request: &Request, require_k: bool) -> Outcome {
    match query_step(shared, &request.body, require_k, Instant::now()) {
        QueryStep::Reply(outcome) => outcome,
        QueryStep::Miss(miss) => execute_miss_group(shared, &[miss])
            .pop()
            .expect("one outcome per query"),
    }
}

fn handle_batch(shared: &Shared, request: &Request) -> Outcome {
    let started = Instant::now();
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return Outcome::error(400, msg),
    };
    let Some(queries) = body.get("queries").and_then(Json::as_array) else {
        return Outcome::error(400, "missing \"queries\": expected an array");
    };
    if queries.is_empty() {
        return Outcome::error(400, "\"queries\" must not be empty");
    }
    if queries.len() > MAX_BATCH {
        return Outcome::error(400, format!("at most {MAX_BATCH} queries per batch"));
    }
    // Every query in the batch runs against ONE snapshot: a concurrent
    // reload cannot split the batch across index generations.
    let snap = shared.engine.snapshot();

    // Phase 1 — parse every item. A malformed item becomes a typed error
    // pinned to its position; it can never fail the batch or shift the
    // answers of its neighbours.
    let parsed: Vec<Result<ParsedItem, String>> =
        queries.iter().map(|q| parse_item(q, false)).collect();

    // Phase 2 — consult the cache per item (keyed on the raw domain, so
    // hits skip sketching). Identical uncached entries within one batch
    // dispatch ONCE: later duplicates borrow the first occurrence's
    // answer (and report `cached`, exactly as they would have under
    // sequential execution). The duplicate check comes FIRST so a
    // duplicate never counts a cache miss it did not cause: its hit is
    // recorded when it reads the freshly inserted entry below.
    let keys: Vec<Option<QueryKey>> = parsed
        .iter()
        .map(|p| {
            p.as_ref()
                .ok()
                .map(|item| item_key(item, snap.generation()))
        })
        .collect();
    let mut slots: Vec<Option<(Arc<SearchOutcome>, bool)>> = vec![None; parsed.len()];
    let mut errors: Vec<Option<String>> =
        parsed.iter().map(|p| p.as_ref().err().cloned()).collect();
    let mut miss_positions: Vec<usize> = Vec::new();
    let mut first_miss: HashMap<QueryKey, usize> = HashMap::new();
    let mut duplicate_of: Vec<Option<usize>> = vec![None; parsed.len()];
    for (i, key) in keys.iter().enumerate() {
        let Some(key) = key else { continue };
        if let Some(&first) = first_miss.get(key) {
            duplicate_of[i] = Some(first);
        } else if let Some(outcome) = shared.cache.get(key) {
            slots[i] = Some((outcome, true));
        } else {
            first_miss.insert(*key, i);
            miss_positions.push(i);
        }
    }

    // Phase 3 — sketch + search every miss in one batched dispatch.
    let miss_items: Vec<(&ParsedItem, QueryKey)> = miss_positions
        .iter()
        .map(|&i| {
            (
                parsed[i].as_ref().expect("miss positions are valid"),
                keys[i].expect("miss positions are keyed"),
            )
        })
        .collect();
    for (&i, result) in miss_positions
        .iter()
        .zip(run_uncached(shared, &snap, &miss_items))
    {
        match result {
            Ok((outcome, _)) => slots[i] = Some((outcome, false)),
            // Per-item query errors stay in position, exactly like parse
            // errors.
            Err(e) => errors[i] = Some(e),
        }
    }
    // Duplicates of a dispatched miss share its answer (or its error),
    // flagged `cached` as they would be under sequential execution. The
    // answer is read back through the cache so the hit counters reflect
    // it (falling back to the first slot's Arc if an eviction already
    // raced it out).
    for (i, first) in duplicate_of.into_iter().enumerate() {
        let Some(first) = first else { continue };
        if let Some((outcome, _)) = &slots[first] {
            let key = keys[i].expect("duplicates parsed");
            let replay = shared
                .cache
                .get(&key)
                .unwrap_or_else(|| Arc::clone(outcome));
            slots[i] = Some((replay, true));
        } else {
            errors[i] = errors[first].clone();
        }
    }

    // Phase 4 — render in request order.
    let rendered: Vec<Json> = slots
        .into_iter()
        .zip(errors)
        .zip(&parsed)
        .map(|((slot, error), item)| match (slot, error) {
            (_, Some(msg)) => Json::obj(vec![("error", Json::str(msg))]),
            (Some((outcome, cached)), None) => {
                let item = item.as_ref().expect("answered items parsed");
                let mut fields = vec![
                    ("count", Json::uint(outcome.hits.len() as u64)),
                    ("cached", Json::Bool(cached)),
                    ("hits", hits_json(&snap, &outcome.hits)),
                ];
                if item.debug {
                    fields.push(("debug", debug_json(&outcome.stats)));
                }
                Json::obj(fields)
            }
            (None, None) => unreachable!("every item is answered or errored"),
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
    let body = match parse_body(request) {
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
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(msg) => return Outcome::error(400, msg),
    };
    let Some(values) = body.get("values").and_then(Json::as_array) else {
        return Outcome::error(400, "missing \"values\": expected an array of strings");
    };
    if values.is_empty() {
        return Outcome::error(400, "\"values\" must not be empty");
    }
    let mut strs = Vec::with_capacity(values.len());
    for v in values {
        match v.as_str() {
            Some(s) => strs.push(s),
            None => return Outcome::error(400, "\"values\" entries must all be strings"),
        }
    }
    let table = match body.get("table") {
        None => "ingest".to_owned(),
        Some(t) => match t.as_str() {
            Some(t) => t.to_owned(),
            None => return Outcome::error(400, "\"table\" must be a string"),
        },
    };
    let column = match body.get("column") {
        None => "col".to_owned(),
        Some(c) => match c.as_str() {
            Some(c) => c.to_owned(),
            None => return Outcome::error(400, "\"column\" must be a string"),
        },
    };
    // Optional explicit id — the cluster path: the coordinator allocates
    // cluster-wide ids and routes each insert to the shard it places on.
    let explicit_id = match body.get("id") {
        None => None,
        Some(id) => match id.as_u64().and_then(|id| u32::try_from(id).ok()) {
            Some(id) => Some(id),
            None => return Outcome::error(400, "\"id\" out of range"),
        },
    };
    let domain = Domain::from_strs(strs.iter().copied());
    let snap = shared.engine.snapshot();
    let signature = domain.signature(snap.hasher());
    match shared
        .engine
        .stage_insert_as(table, column, domain.len() as u64, signature, explicit_id)
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
    let body = match parse_body(request) {
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
        Ok((snap, outcome)) => {
            if outcome.applied > 0 {
                // Entries are generation-keyed (never stale), but the old
                // generation is unreachable now: drop the dead weight.
                shared.cache.clear();
                shared.counters.commits.fetch_add(1, Ordering::Relaxed);
                shared.maintainer.notify_commit();
            }
            Outcome::ok(Json::obj(vec![
                (
                    "status",
                    Json::str(if outcome.applied > 0 {
                        "committed"
                    } else {
                        "nothing staged"
                    }),
                ),
                ("applied", Json::uint(outcome.applied as u64)),
                ("merged", Json::uint(outcome.report.merged as u64)),
                (
                    "entries_folded",
                    Json::uint(outcome.report.entries_folded as u64),
                ),
                ("sealed", Json::Bool(outcome.report.sealed)),
                ("segments", Json::uint(outcome.report.segments as u64)),
                ("tombstones", Json::uint(outcome.report.tombstones as u64)),
                ("generation", Json::uint(snap.generation())),
                ("domains", Json::uint(snap.container().len() as u64)),
            ]))
        }
        Err(EngineError::Io(e)) => Outcome::error(500, format!("persist: {e}")),
        Err(e) => Outcome::error(400, e.to_string()),
    }
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
        Ok(summary) => {
            // The maintainer already cleared the cache via its swap hook.
            shared.counters.compactions.fetch_add(1, Ordering::Relaxed);
            Outcome::ok(Json::obj(vec![
                ("status", Json::str("compacted")),
                ("applied", Json::uint(summary.applied as u64)),
                ("merged", Json::uint(summary.merged as u64)),
                ("entries_folded", Json::uint(summary.entries_folded as u64)),
                ("segments", Json::uint(summary.segments as u64)),
                ("tombstones", Json::uint(summary.tombstones as u64)),
                ("generation", Json::uint(summary.generation)),
                ("domains", Json::uint(summary.domains as u64)),
            ]))
        }
        Err(msg) => Outcome::error(500, msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::container::IndexContainer;
    use crate::testkit::{self, read_resp};
    use lshe_corpus::{Catalog, DomainMeta};
    use std::io::{BufReader, Write as _};
    use std::net::TcpStream;
    use std::time::Duration;

    fn test_engine(n: usize) -> Arc<Engine> {
        let mut cat = Catalog::new();
        for k in 0..n {
            let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("v{i}")).collect();
            cat.push(
                Domain::from_strs(values.iter().map(String::as_str)),
                DomainMeta::new(format!("t{k}"), "col"),
            );
        }
        Arc::new(Engine::from_container(IndexContainer::build(&cat, 2)))
    }

    fn boot_with(engine: Arc<Engine>, config: ServerConfig) -> ServerHandle {
        start(engine, &config).expect("bind")
    }

    fn boot(engine: Arc<Engine>) -> ServerHandle {
        boot_with(engine, testkit::config())
    }

    /// The engine the reactor's hostile-client checks run against.
    fn boot_engine(config: ServerConfig) -> ServerHandle {
        boot_with(test_engine(4), config)
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
        let server = boot(test_engine(6));
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
    fn query_topk_and_cache_flow() {
        let server = boot(test_engine(6));
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
        let server = boot(test_engine(4));
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
        let server = boot(test_engine(6));
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
        let server = boot(test_engine(8));
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
        let server = boot(test_engine(6));
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

    #[test]
    fn cache_key_includes_debug_flag() {
        // A cached non-debug response must never answer a debug request,
        // and vice versa — the flag is part of the cache key.
        let server = boot(test_engine(6));
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
        let engine = test_engine(6);
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
        // A built index maps no file: nothing of one is resident, on the
        // one kernel that says.
        let resident = memory.get("mapped_resident_bytes").and_then(Json::as_u64);
        assert_eq!(resident, cfg!(target_os = "linux").then_some(0));
        server.shutdown();
    }

    #[test]
    fn insert_remove_commit_endpoints() {
        let server = boot(test_engine(6));
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
        let server = boot(test_engine(6));
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
        let engine = test_engine(6);
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
        let server = boot(test_engine(6));
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

    /// Past [`lshe_core::MAX_TOMBSTONE_RATIO`] the maintenance thread
    /// plans a full fold on its own: removing over a quarter of the live
    /// corpus and committing folds the sealed stack and every tombstone
    /// into the base off the request path, and every live domain still
    /// answers its own query.
    #[test]
    fn tombstone_backlog_drives_a_background_full_fold() {
        let server = boot(test_engine(8));
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
        let server = boot(test_engine(8));
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
        let server = boot(test_engine(4));
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
        let server = boot(test_engine(6));
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
        let server = boot(test_engine(4));
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
