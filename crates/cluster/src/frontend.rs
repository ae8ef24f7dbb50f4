//! The coordinator HTTP frontend.
//!
//! Serves the same endpoint surface as a single `lshe-serve` process —
//! `/query`, `/topk`, `/batch`, `/insert`, `/remove`, `/commit`,
//! `/reload`, `/stats`, `/health`, `/shutdown` — by scattering each
//! request across the shard processes and merging their answers. A
//! client moving from one process to a cluster changes a URL, nothing
//! else.
//!
//! Request semantics:
//!
//! - **Reads** (`/query`, `/topk`, `/batch`) forward the request body
//!   verbatim to every non-degraded shard (hedged — see
//!   [`crate::scatter::hedged_call`]) and merge the ranked hit lists via
//!   [`crate::merge::merge_hits`]. A shard 4xx is a deterministic
//!   request rejection (every shard parses identically), so the first
//!   one is forwarded as-is. Transport failures degrade the response —
//!   `200` with `"degraded": true` and the failed shard ids — rather
//!   than failing it, as long as at least one shard answered.
//! - **Mutations** (`/insert`, `/remove`) are routed to the single
//!   owning shard by [`crate::placement::shard_of`] and never hedged (a
//!   losing hedge may still have applied). `/commit`, `/compact`, and
//!   `/reload` broadcast to every shard, unhedged, and aggregate.
//!   `/commit` and `/compact` retry each failed shard exactly once —
//!   safe because a shard commit is idempotent (re-committing an empty
//!   stage is a no-op), and necessary because a lost response does not
//!   mean a lost commit. Each shard's last acknowledged commit
//!   generation is tracked and surfaced on `/stats`, so a diverged
//!   cluster names the shard that is behind.
//! - `/health` live-probes every shard — including degraded ones, which
//!   is how a recovered shard is re-admitted between background probe
//!   rounds. `/shutdown` drains the coordinator only; shards keep
//!   running.

use crate::health::HealthState;
use crate::merge::merge_hits;
use crate::placement::shard_of;
use crate::pool::ConnPool;
use crate::scatter::{call, hedged_call, scatter, CallOutcome};
use lshe_serve::client::ClientError;
use lshe_serve::http::{write_head, write_head_with, write_response, Request, RequestParser};
use lshe_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a keep-alive connection may sit idle before the coordinator
/// closes it.
const IDLE_LIMIT: Duration = Duration::from_secs(60);
/// Whole-request read bound once a request's first byte has arrived
/// (slow-loris bound, mirroring `lshe-serve`).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Socket-level read timeout for connection threads: the granularity at
/// which idle connections notice a shutdown.
const POLL_TICK: Duration = Duration::from_millis(250);
/// `Retry-After` seconds advertised on drain-time 503s.
const RETRY_AFTER_SECS: u64 = 1;

/// Coordinator construction parameters. Construct with struct-update
/// syntax so new knobs keep their defaults.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Coordinator bind address (`:0` for an ephemeral port).
    pub addr: String,
    /// Shard addresses **in shard-id order**: position `s` must serve
    /// the shard file that `lshe split` wrote for shard `s`.
    pub shards: Vec<SocketAddr>,
    /// TCP connect deadline for shard connections.
    pub connect_timeout: Duration,
    /// Full read deadline for shard responses.
    pub read_timeout: Duration,
    /// Straggler threshold: a read that has not answered within this
    /// window gets a hedged second request on a fresh connection.
    pub hedge_after: Duration,
    /// Background health-probe period.
    pub probe_interval: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7979".to_owned(),
            shards: Vec::new(),
            connect_timeout: Duration::from_secs(1),
            read_timeout: Duration::from_secs(30),
            hedge_after: Duration::from_millis(150),
            probe_interval: Duration::from_secs(2),
        }
    }
}

/// One rendered coordinator response, ready for the connection loop.
struct Response {
    status: u16,
    reason: &'static str,
    body: String,
    retry_after: Option<u64>,
    close: bool,
}

impl Response {
    fn ok(body: Json) -> Self {
        Self {
            status: 200,
            reason: "OK",
            body: body.render(),
            retry_after: None,
            close: false,
        }
    }

    fn error(status: u16, msg: impl Into<String>) -> Self {
        Self {
            status,
            reason: reason_for(status),
            body: Json::obj(vec![("error", Json::str(msg.into()))]).render(),
            retry_after: None,
            close: false,
        }
    }

    /// A shard response forwarded verbatim.
    fn forwarded(outcome: CallOutcome) -> Self {
        Self {
            status: outcome.status,
            reason: reason_for(outcome.status),
            body: outcome.body,
            retry_after: None,
            close: false,
        }
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Shared coordinator state: one pool and one health record per shard.
struct Coordinator {
    config: ClusterConfig,
    /// The coordinator's own bound address (the shutdown wake target).
    self_addr: SocketAddr,
    pools: Vec<ConnPool>,
    health: Vec<HealthState>,
    /// Cluster-wide id allocator for `/insert` without an explicit id;
    /// seeded at startup from the max shard `next_id`.
    next_id: AtomicU32,
    /// Per-shard generation from the last `/commit` (or `/compact`) the
    /// shard acknowledged through this coordinator; 0 = none yet.
    /// Surfaced on `/stats` so a partially-failed broadcast names the
    /// shard whose state lags the cluster.
    last_commit_generation: Vec<AtomicU64>,
    hedges_fired: AtomicU64,
    shutting_down: AtomicBool,
}

impl Coordinator {
    fn n(&self) -> usize {
        self.pools.len()
    }

    /// Records one shard call's outcome against the shard's health: any
    /// transport failure or 5xx counts against it, everything else
    /// (including 4xx — the shard is alive and parsing) resets it.
    fn record(&self, s: usize, res: &Result<CallOutcome, ClientError>) {
        match res {
            Ok(out) if out.status < 500 => self.health[s].record_ok(),
            _ => self.health[s].record_failure(),
        }
    }

    /// One hedged read call with health + hedge accounting.
    fn read_call(
        &self,
        s: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<CallOutcome, ClientError> {
        let res = hedged_call(&self.pools[s], method, path, body, self.config.hedge_after);
        if matches!(&res, Ok(out) if out.hedged) {
            self.hedges_fired.fetch_add(1, Ordering::AcqRel);
        }
        self.record(s, &res);
        res
    }

    /// One unhedged call with health accounting (mutations, probes).
    fn plain_call(
        &self,
        s: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<CallOutcome, ClientError> {
        let res = call(&self.pools[s], method, path, body);
        self.record(s, &res);
        res
    }

    /// Shards currently in the query path (not degraded).
    fn active_shards(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&s| !self.health[s].is_degraded())
            .collect()
    }

    /// Startup validation: every reachable shard must agree on the
    /// signature width and sit at the list position matching its
    /// reported shard id; the id allocator seeds from the max shard
    /// `next_id`. Unreachable shards are tolerated (the cluster starts
    /// degraded) unless ALL are unreachable.
    fn validate_topology(&self) -> Result<(), String> {
        let outcomes = scatter(self.n(), |s| self.plain_call(s, "GET", "/stats", None));
        let mut reachable = 0usize;
        let mut num_perm: Option<(u64, usize)> = None;
        let mut max_next = 0u32;
        for (s, res) in outcomes.iter().enumerate() {
            let Ok(out) = res else { continue };
            if out.status != 200 {
                continue;
            }
            let stats =
                Json::parse(&out.body).map_err(|e| format!("shard {s} /stats is not JSON: {e}"))?;
            reachable += 1;
            if let Some(np) = stats.get("num_perm").and_then(Json::as_u64) {
                match num_perm {
                    None => num_perm = Some((np, s)),
                    Some((prev, first)) if prev != np => {
                        return Err(format!(
                            "signature widths differ: shard {first} has num_perm {prev}, \
                             shard {s} has {np} — every shard must be split from one index"
                        ));
                    }
                    Some(_) => {}
                }
            }
            match stats.get("shard_id") {
                Some(Json::Null) | None => {}
                Some(sid) => {
                    let sid = sid.as_u64();
                    if sid != Some(s as u64) {
                        return Err(format!(
                            "shard at {} reports shard id {sid:?} but is listed at \
                             position {s} — the shard list must follow split order",
                            self.pools[s].addr()
                        ));
                    }
                }
            }
            if let Some(next) = stats.get("next_id").and_then(Json::as_u64) {
                max_next = max_next.max(u32::try_from(next).unwrap_or(u32::MAX));
            }
        }
        if reachable == 0 {
            return Err(format!(
                "none of the {} shards is reachable — refusing to start an empty cluster",
                self.n()
            ));
        }
        self.next_id.store(max_next, Ordering::Release);
        Ok(())
    }

    fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path()) {
            ("GET", "/health") => self.cluster_health(),
            ("GET", "/stats") => self.cluster_stats(),
            ("POST", "/query") => self.fanout_query(request, "/query"),
            ("POST", "/topk") => self.fanout_query(request, "/topk"),
            ("POST", "/batch") => self.fanout_batch(request),
            ("POST", "/insert") => self.route_insert(request),
            ("POST", "/remove") => self.route_remove(request),
            ("POST", "/commit") => self.broadcast(request, "/commit"),
            ("POST", "/compact") => self.broadcast(request, "/compact"),
            ("POST", "/reload") => self.broadcast(request, "/reload"),
            ("POST", "/shutdown") => self.begin_shutdown(),
            (
                _,
                "/health" | "/stats" | "/query" | "/topk" | "/batch" | "/insert" | "/remove"
                | "/commit" | "/compact" | "/reload" | "/shutdown",
            ) => Response::error(405, "wrong method for this path"),
            (_, path) => Response::error(404, format!("no such endpoint: {path}")),
        }
    }

    /// `/query` and `/topk`: scatter the body verbatim, merge ranked
    /// hits, truncate to `k` when the request asked for top-k.
    fn fanout_query(&self, request: &Request, path: &str) -> Response {
        let started = Instant::now();
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body must be UTF-8");
        };
        // The shards validate the body; the coordinator only needs `k`
        // for the post-merge truncation.
        let k = Json::parse(body)
            .ok()
            .and_then(|j| j.get("k").and_then(Json::as_u64))
            .map(|k| k as usize);
        let active = self.active_shards();
        if active.is_empty() {
            return Response::error(503, "every shard is degraded");
        }
        let skipped: Vec<usize> = (0..self.n()).filter(|s| !active.contains(s)).collect();
        let outcomes = scatter(active.len(), |i| {
            self.read_call(active[i], "POST", path, Some(body))
        });

        let mut failed = skipped;
        let mut per_shard_hits: Vec<Vec<Json>> = Vec::new();
        let mut generation = 0u64;
        for (i, res) in outcomes.into_iter().enumerate() {
            let s = active[i];
            match res {
                Ok(out) if out.status == 200 => {
                    let Ok(parsed) = Json::parse(&out.body) else {
                        return Response::error(502, format!("shard {s} returned invalid JSON"));
                    };
                    generation = generation
                        .max(parsed.get("generation").and_then(Json::as_u64).unwrap_or(0));
                    let hits = parsed
                        .get("hits")
                        .and_then(Json::as_array)
                        .map(<[Json]>::to_vec)
                        .unwrap_or_default();
                    per_shard_hits.push(hits);
                }
                // Deterministic rejection — every shard parses the body
                // identically, so the first 4xx speaks for the cluster.
                Ok(out) if (400..500).contains(&out.status) => return Response::forwarded(out),
                Ok(_) | Err(_) => failed.push(s),
            }
        }
        if per_shard_hits.is_empty() {
            return Response::error(503, "no shard answered");
        }
        let mut hits = match merge_hits(per_shard_hits) {
            Ok(hits) => hits,
            Err(msg) => return Response::error(500, msg),
        };
        if let Some(k) = k.filter(|&k| k > 0) {
            hits.truncate(k);
        }
        failed.sort_unstable();
        let mut fields = vec![
            ("count", Json::uint(hits.len() as u64)),
            ("cached", Json::Bool(false)),
            ("generation", Json::uint(generation)),
            (
                "query_time_us",
                Json::uint(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)),
            ),
            ("hits", Json::Arr(hits)),
        ];
        push_degraded(&mut fields, &failed);
        Response::ok(Json::obj(fields))
    }

    /// `/batch`: one pipelined wire call per shard for the WHOLE batch,
    /// then an element-wise merge of the per-item results.
    fn fanout_batch(&self, request: &Request) -> Response {
        let started = Instant::now();
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body must be UTF-8");
        };
        // Per-item `k` for post-merge truncation; invalid bodies are
        // rejected by the shards (forwarded below), so a failed local
        // parse just means no truncation data is needed.
        let per_item_k: Vec<Option<u64>> = Json::parse(body)
            .ok()
            .and_then(|j| {
                j.get("queries").and_then(Json::as_array).map(|qs| {
                    qs.iter()
                        .map(|q| q.get("k").and_then(Json::as_u64))
                        .collect()
                })
            })
            .unwrap_or_default();
        let active = self.active_shards();
        if active.is_empty() {
            return Response::error(503, "every shard is degraded");
        }
        let skipped: Vec<usize> = (0..self.n()).filter(|s| !active.contains(s)).collect();
        let outcomes = scatter(active.len(), |i| {
            self.read_call(active[i], "POST", "/batch", Some(body))
        });

        let mut failed = skipped;
        let mut shard_results: Vec<Vec<Json>> = Vec::new();
        let mut generation = 0u64;
        for (i, res) in outcomes.into_iter().enumerate() {
            let s = active[i];
            match res {
                Ok(out) if out.status == 200 => {
                    let Ok(parsed) = Json::parse(&out.body) else {
                        return Response::error(502, format!("shard {s} returned invalid JSON"));
                    };
                    generation = generation
                        .max(parsed.get("generation").and_then(Json::as_u64).unwrap_or(0));
                    let Some(results) = parsed.get("results").and_then(Json::as_array) else {
                        return Response::error(502, format!("shard {s} /batch lost its results"));
                    };
                    shard_results.push(results.to_vec());
                }
                Ok(out) if (400..500).contains(&out.status) => return Response::forwarded(out),
                Ok(_) | Err(_) => failed.push(s),
            }
        }
        if shard_results.is_empty() {
            return Response::error(503, "no shard answered");
        }
        let items = shard_results[0].len();
        if shard_results.iter().any(|r| r.len() != items) {
            return Response::error(502, "shards disagree on batch length");
        }

        let mut results = Vec::with_capacity(items);
        for j in 0..items {
            // Per-item validation errors are deterministic and pinned to
            // their position on every shard; forward the first.
            if let Some(err) = shard_results
                .iter()
                .map(|r| &r[j])
                .find(|r| r.get("error").is_some())
            {
                results.push(err.clone());
                continue;
            }
            let per_shard: Vec<Vec<Json>> = shard_results
                .iter()
                .map(|r| {
                    r[j].get("hits")
                        .and_then(Json::as_array)
                        .map(<[Json]>::to_vec)
                        .unwrap_or_default()
                })
                .collect();
            let mut hits = match merge_hits(per_shard) {
                Ok(hits) => hits,
                Err(msg) => return Response::error(500, msg),
            };
            if let Some(k) = per_item_k.get(j).copied().flatten().filter(|&k| k > 0) {
                hits.truncate(k as usize);
            }
            results.push(Json::obj(vec![
                ("count", Json::uint(hits.len() as u64)),
                ("cached", Json::Bool(false)),
                ("hits", Json::Arr(hits)),
            ]));
        }
        failed.sort_unstable();
        let mut fields = vec![
            ("count", Json::uint(items as u64)),
            ("generation", Json::uint(generation)),
            (
                "batch_time_us",
                Json::uint(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)),
            ),
            ("results", Json::Arr(results)),
        ];
        push_degraded(&mut fields, &failed);
        Response::ok(Json::obj(fields))
    }

    /// `/insert`: allocate (or honour) the id, route to the owning
    /// shard, forward its staging response verbatim. Never hedged.
    fn route_insert(&self, request: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body must be UTF-8");
        };
        let Ok(parsed) = Json::parse(body) else {
            return Response::error(400, "request body must be JSON");
        };
        let id = match parsed.get("id") {
            None => self.next_id.fetch_add(1, Ordering::AcqRel),
            Some(id) => {
                let Some(id) = id.as_u64().and_then(|id| u32::try_from(id).ok()) else {
                    return Response::error(400, "\"id\" must be an unsigned 32-bit integer");
                };
                id
            }
        };
        let Json::Obj(mut fields) = parsed else {
            return Response::error(400, "request body must be a JSON object");
        };
        fields.retain(|(key, _)| key != "id");
        fields.push(("id".to_owned(), Json::uint(u64::from(id))));
        let routed = Json::Obj(fields).render();

        let s = shard_of(id, self.n());
        if self.health[s].is_degraded() {
            return Response::error(
                503,
                format!("shard {s} owning id {id} is degraded; retry when it recovers"),
            );
        }
        match self.plain_call(s, "POST", "/insert", Some(&routed)) {
            Ok(out) => {
                if out.status == 200 {
                    self.next_id.fetch_max(id + 1, Ordering::AcqRel);
                }
                Response::forwarded(out)
            }
            Err(e) => Response::error(502, format!("shard {s} failed: {e}")),
        }
    }

    /// `/remove`: route by the (required) id, forward. Never hedged.
    fn route_remove(&self, request: &Request) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body must be UTF-8");
        };
        let id = Json::parse(body)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .and_then(|id| u32::try_from(id).ok());
        let Some(id) = id else {
            return Response::error(400, "missing \"id\": expected an unsigned 32-bit integer");
        };
        let s = shard_of(id, self.n());
        if self.health[s].is_degraded() {
            return Response::error(
                503,
                format!("shard {s} owning id {id} is degraded; retry when it recovers"),
            );
        }
        match self.plain_call(s, "POST", "/remove", Some(body)) {
            Ok(out) => Response::forwarded(out),
            Err(e) => Response::error(502, format!("shard {s} failed: {e}")),
        }
    }

    /// `/commit`, `/compact`, and `/reload`: broadcast to EVERY shard
    /// (degraded ones included — skipping a shard would fork cluster
    /// state), aggregate on full success, 502 naming the failed shards
    /// otherwise. Commit-class paths retry each failed shard exactly
    /// once: a transport failure or 5xx does not say whether the shard
    /// applied the op before the response was lost, and because a shard
    /// commit is idempotent (re-committing an empty stage is "nothing
    /// staged"), one retry converges either way instead of reporting a
    /// divergence that may not exist.
    fn broadcast(&self, request: &Request, path: &str) -> Response {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Response::error(400, "request body must be UTF-8");
        };
        let commit_class = path == "/commit" || path == "/compact";
        let outcomes = scatter(self.n(), |s| {
            let first = self.plain_call(s, "POST", path, Some(body));
            let settled = matches!(&first, Ok(out) if out.status < 500);
            if settled || !commit_class {
                first
            } else {
                self.plain_call(s, "POST", path, Some(body))
            }
        });
        let mut failed: Vec<usize> = Vec::new();
        let mut parsed: Vec<Json> = Vec::new();
        for (s, res) in outcomes.into_iter().enumerate() {
            match res {
                Ok(out) if out.status == 200 => match Json::parse(&out.body) {
                    Ok(json) => {
                        if commit_class {
                            if let Some(generation) = json.get("generation").and_then(Json::as_u64)
                            {
                                self.last_commit_generation[s]
                                    .fetch_max(generation, Ordering::AcqRel);
                            }
                        }
                        parsed.push(json);
                    }
                    Err(_) => failed.push(s),
                },
                Ok(out) if (400..500).contains(&out.status) => return Response::forwarded(out),
                Ok(_) | Err(_) => failed.push(s),
            }
        }
        if !failed.is_empty() {
            return Response::error(
                502,
                format!(
                    "{path} failed on shard(s) {failed:?} — cluster state may be \
                     divergent; retry once every shard is reachable"
                ),
            );
        }
        let sum = |key: &str| -> u64 {
            parsed
                .iter()
                .filter_map(|j| j.get(key).and_then(Json::as_u64))
                .sum()
        };
        let max = |key: &str| -> u64 {
            parsed
                .iter()
                .filter_map(|j| j.get(key).and_then(Json::as_u64))
                .max()
                .unwrap_or(0)
        };
        if path == "/reload" {
            return Response::ok(Json::obj(vec![
                ("status", Json::str("reloaded")),
                ("generation", Json::uint(max("generation"))),
                ("domains", Json::uint(sum("domains"))),
                ("shards", Json::uint(self.n() as u64)),
            ]));
        }
        if path == "/compact" {
            return Response::ok(Json::obj(vec![
                ("status", Json::str("compacted")),
                ("applied", Json::uint(sum("applied"))),
                ("merged", Json::uint(sum("merged"))),
                ("entries_folded", Json::uint(sum("entries_folded"))),
                ("segments", Json::uint(sum("segments"))),
                ("tombstones", Json::uint(sum("tombstones"))),
                ("generation", Json::uint(max("generation"))),
                ("domains", Json::uint(sum("domains"))),
            ]));
        }
        let applied = sum("applied");
        let sealed = parsed
            .iter()
            .any(|j| j.get("sealed").and_then(Json::as_bool) == Some(true));
        Response::ok(Json::obj(vec![
            (
                "status",
                Json::str(if applied > 0 {
                    "committed"
                } else {
                    "nothing staged"
                }),
            ),
            ("applied", Json::uint(applied)),
            ("merged", Json::uint(sum("merged"))),
            ("entries_folded", Json::uint(sum("entries_folded"))),
            ("sealed", Json::Bool(sealed)),
            ("segments", Json::uint(sum("segments"))),
            ("tombstones", Json::uint(sum("tombstones"))),
            ("generation", Json::uint(max("generation"))),
            ("domains", Json::uint(sum("domains"))),
        ]))
    }

    /// `/health`: live-probe every shard. Probing degraded shards too is
    /// the fast re-admission path — one success resets the streak.
    fn cluster_health(&self) -> Response {
        let outcomes = scatter(self.n(), |s| self.plain_call(s, "GET", "/health", None));
        let mut reports = Vec::with_capacity(self.n());
        let mut degraded_now: Vec<usize> = Vec::new();
        let mut domains = 0u64;
        let mut generation = 0u64;
        for (s, res) in outcomes.into_iter().enumerate() {
            let probe_ok = matches!(&res, Ok(out) if out.status == 200);
            if let Ok(out) = &res {
                if let Ok(json) = Json::parse(&out.body) {
                    domains += json.get("domains").and_then(Json::as_u64).unwrap_or(0);
                    generation =
                        generation.max(json.get("generation").and_then(Json::as_u64).unwrap_or(0));
                }
            }
            let status = if probe_ok {
                "ok"
            } else if matches!(res, Err(ClientError::Connect(_))) {
                "unreachable"
            } else {
                "failing"
            };
            if !probe_ok || self.health[s].is_degraded() {
                degraded_now.push(s);
            }
            reports.push(Json::obj(vec![
                ("shard", Json::uint(s as u64)),
                ("addr", Json::str(self.pools[s].addr().to_string())),
                ("status", Json::str(status)),
                (
                    "consecutive_failures",
                    Json::uint(u64::from(self.health[s].consecutive_failures())),
                ),
                (
                    "total_failures",
                    Json::uint(self.health[s].total_failures()),
                ),
            ]));
        }
        Response::ok(Json::obj(vec![
            (
                "status",
                Json::str(if degraded_now.is_empty() {
                    "ok"
                } else {
                    "degraded"
                }),
            ),
            ("shards", Json::uint(self.n() as u64)),
            ("domains", Json::uint(domains)),
            ("generation", Json::uint(generation)),
            (
                "degraded_shards",
                Json::Arr(degraded_now.iter().map(|&s| Json::uint(s as u64)).collect()),
            ),
            ("shard_health", Json::Arr(reports)),
        ]))
    }

    /// `/stats`: aggregate counts plus each shard's own stats verbatim.
    fn cluster_stats(&self) -> Response {
        let outcomes = scatter(self.n(), |s| self.plain_call(s, "GET", "/stats", None));
        let mut per_shard = Vec::with_capacity(self.n());
        let mut domains = 0u64;
        let mut generation = 0u64;
        let mut num_perm = Json::Null;
        let mut degraded: Vec<usize> = Vec::new();
        // Cluster-wide maintenance rollup across the shards' own
        // `maintenance` objects (each shard runs its own thread).
        let mut maint_queued = 0u64;
        let mut maint_running = 0u64;
        let mut maint_merges = 0u64;
        let mut maint_full = 0u64;
        let mut maint_folded = 0u64;
        let mut maint_last_us = 0u64;
        for (s, res) in outcomes.into_iter().enumerate() {
            let stats = match &res {
                Ok(out) if out.status == 200 => Json::parse(&out.body).ok(),
                _ => None,
            };
            if let Some(stats) = &stats {
                domains += stats.get("domains").and_then(Json::as_u64).unwrap_or(0);
                generation =
                    generation.max(stats.get("generation").and_then(Json::as_u64).unwrap_or(0));
                if num_perm == Json::Null {
                    if let Some(np) = stats.get("num_perm") {
                        num_perm = np.clone();
                    }
                }
                if let Some(m) = stats.get("maintenance") {
                    maint_queued += m.get("queued").and_then(Json::as_u64).unwrap_or(0);
                    maint_running += u64::from(m.get("running").is_some_and(|r| *r != Json::Null));
                    maint_merges += m.get("merges").and_then(Json::as_u64).unwrap_or(0);
                    maint_full += m.get("full_merges").and_then(Json::as_u64).unwrap_or(0);
                    maint_folded += m.get("entries_folded").and_then(Json::as_u64).unwrap_or(0);
                    maint_last_us = maint_last_us
                        .max(m.get("last_merge_us").and_then(Json::as_u64).unwrap_or(0));
                }
            }
            if self.health[s].is_degraded() {
                degraded.push(s);
            }
            per_shard.push(Json::obj(vec![
                ("shard", Json::uint(s as u64)),
                ("addr", Json::str(self.pools[s].addr().to_string())),
                ("reachable", Json::Bool(stats.is_some())),
                ("degraded", Json::Bool(self.health[s].is_degraded())),
                // The commit-convergence witness: equal values across
                // shards mean the last broadcast landed everywhere; a
                // lagging value names the shard to re-commit.
                (
                    "last_commit_generation",
                    Json::uint(self.last_commit_generation[s].load(Ordering::Acquire)),
                ),
                ("stats", stats.unwrap_or(Json::Null)),
            ]));
        }
        Response::ok(Json::obj(vec![
            ("cluster", Json::Bool(true)),
            ("shards", Json::uint(self.n() as u64)),
            ("domains", Json::uint(domains)),
            ("num_perm", num_perm),
            ("generation", Json::uint(generation)),
            (
                "next_id",
                Json::uint(u64::from(self.next_id.load(Ordering::Acquire))),
            ),
            (
                "hedges_fired",
                Json::uint(self.hedges_fired.load(Ordering::Acquire)),
            ),
            (
                "degraded_shards",
                Json::Arr(degraded.into_iter().map(|s| Json::uint(s as u64)).collect()),
            ),
            // Summed/maxed across reachable shards; each shard's full
            // maintenance object (level layout, segment bound) rides
            // along verbatim under per_shard[].stats.maintenance.
            (
                "maintenance",
                Json::obj(vec![
                    ("queued", Json::uint(maint_queued)),
                    ("running_shards", Json::uint(maint_running)),
                    ("merges", Json::uint(maint_merges)),
                    ("full_merges", Json::uint(maint_full)),
                    ("entries_folded", Json::uint(maint_folded)),
                    ("last_merge_us", Json::uint(maint_last_us)),
                ]),
            ),
            ("per_shard", Json::Arr(per_shard)),
        ]))
    }

    /// `/shutdown`: drain the COORDINATOR. Shards are left running —
    /// they are independent processes with their own `/shutdown`.
    fn begin_shutdown(&self) -> Response {
        self.shutting_down.store(true, Ordering::Release);
        // Wake the blocking accept loop so it observes the flag.
        let _ = TcpStream::connect(self.self_addr);
        Response {
            status: 200,
            reason: "OK",
            body: Json::obj(vec![("status", Json::str("shutting down"))]).render(),
            retry_after: None,
            close: true,
        }
    }
}

/// Appends the degraded markers to a response under construction.
fn push_degraded(fields: &mut Vec<(&str, Json)>, failed: &[usize]) {
    if !failed.is_empty() {
        fields.push(("degraded", Json::Bool(true)));
        fields.push((
            "degraded_shards",
            Json::Arr(failed.iter().map(|&s| Json::uint(s as u64)).collect()),
        ));
    }
}

/// A running coordinator. Obtain via [`start`]; stop via
/// [`shutdown`](ClusterHandle::shutdown) or a `POST /shutdown` followed
/// by [`join`](ClusterHandle::join).
pub struct ClusterHandle {
    addr: SocketAddr,
    coordinator: Arc<Coordinator>,
    accept: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ClusterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterHandle")
            .field("addr", &self.addr)
            .field("shards", &self.coordinator.n())
            .finish_non_exhaustive()
    }
}

impl ClusterHandle {
    /// The coordinator's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates shutdown and waits for the accept and prober threads.
    pub fn shutdown(mut self) {
        self.coordinator
            .shutting_down
            .store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        self.join_threads();
    }

    /// Blocks until the coordinator shuts down (via `POST /shutdown`).
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

/// Starts a coordinator for the given shard topology.
///
/// Validates the topology against the live shards first (signature
/// widths must agree; reported shard ids must match list positions; at
/// least one shard must be reachable), then binds and begins serving.
///
/// # Errors
/// A human-readable message when the bind fails or the topology is
/// invalid.
pub fn start(config: ClusterConfig) -> Result<ClusterHandle, String> {
    if config.shards.is_empty() {
        return Err("a cluster needs at least one shard address".to_owned());
    }
    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    let pools = config
        .shards
        .iter()
        .map(|&shard| ConnPool::new(shard, config.connect_timeout, config.read_timeout))
        .collect::<Vec<_>>();
    let health = (0..pools.len()).map(|_| HealthState::new()).collect();
    let last_commit_generation = (0..pools.len()).map(|_| AtomicU64::new(0)).collect();
    let coordinator = Arc::new(Coordinator {
        config,
        self_addr: addr,
        pools,
        health,
        next_id: AtomicU32::new(0),
        last_commit_generation,
        hedges_fired: AtomicU64::new(0),
        shutting_down: AtomicBool::new(false),
    });
    coordinator.validate_topology()?;

    let accept = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::Builder::new()
            .name("cluster-accept".to_owned())
            .spawn(move || accept_loop(&listener, &coordinator))
            .map_err(|e| format!("cannot spawn accept thread: {e}"))?
    };
    let prober = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::Builder::new()
            .name("cluster-prober".to_owned())
            .spawn(move || prober_loop(&coordinator))
            .map_err(|e| format!("cannot spawn prober thread: {e}"))?
    };
    Ok(ClusterHandle {
        addr,
        coordinator,
        accept: Some(accept),
        prober: Some(prober),
    })
}

fn accept_loop(listener: &TcpListener, coordinator: &Arc<Coordinator>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if coordinator.shutting_down.load(Ordering::Acquire) {
                    // The shutdown wake connection (or a too-late client).
                    return;
                }
                let coordinator = Arc::clone(coordinator);
                std::thread::spawn(move || handle_conn(&coordinator, stream));
            }
            Err(_) => {
                if coordinator.shutting_down.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}

/// Background health prober: keeps degraded shards under observation so
/// recovery does not depend on `/health` traffic.
fn prober_loop(coordinator: &Coordinator) {
    let done = |c: &Coordinator| c.shutting_down.load(Ordering::Acquire);
    while !done(coordinator) {
        for s in 0..coordinator.n() {
            if done(coordinator) {
                return;
            }
            let _ = coordinator.plain_call(s, "GET", "/health", None);
        }
        let wake = Instant::now() + coordinator.config.probe_interval;
        while Instant::now() < wake {
            if done(coordinator) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

/// One keep-alive client connection: a persistent [`RequestParser`] fed
/// from a short-timeout socket, so idle connections notice shutdown and
/// idle limits at [`POLL_TICK`] granularity while pipelined requests
/// drain back-to-back.
fn handle_conn(coordinator: &Coordinator, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut parser = RequestParser::new();
    let mut last_activity = Instant::now();
    loop {
        match parser.next_request() {
            Ok(Some(request)) => {
                last_activity = Instant::now();
                let draining = coordinator.shutting_down.load(Ordering::Acquire);
                let response = if draining && request.path() != "/shutdown" {
                    // Drain-time refusal, mirroring `lshe-serve`: typed
                    // 503 with Retry-After, then close.
                    Response {
                        status: 503,
                        reason: "Service Unavailable",
                        body: Json::obj(vec![("error", Json::str("shutting down"))]).render(),
                        retry_after: Some(RETRY_AFTER_SECS),
                        close: true,
                    }
                } else {
                    coordinator.handle(&request)
                };
                let keep_alive = !request.wants_close() && !response.close;
                if write_reply(&mut writer, &response, keep_alive).is_err() || !keep_alive {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                let body = Json::obj(vec![("error", Json::str(e.to_string()))]).render();
                let _ = write_response(
                    &mut writer,
                    400,
                    "Bad Request",
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
        }
        if parser.is_idle() {
            if coordinator.shutting_down.load(Ordering::Acquire)
                || last_activity.elapsed() > IDLE_LIMIT
            {
                return;
            }
        } else if last_activity.elapsed() > REQUEST_TIMEOUT {
            let body = Json::obj(vec![("error", Json::str("request read timed out"))]).render();
            let _ = write_response(
                &mut writer,
                400,
                "Bad Request",
                "application/json",
                body.as_bytes(),
                false,
            );
            return;
        }
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(chunk) => {
                let n = chunk.len();
                parser.feed(chunk);
                reader.consume(n);
                last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

fn write_reply(
    writer: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(160);
    if let Some(secs) = response.retry_after {
        write_head_with(
            &mut head,
            response.status,
            response.reason,
            "application/json",
            response.body.len(),
            keep_alive,
            &[("retry-after", &secs.to_string())],
        );
    } else {
        write_head(
            &mut head,
            response.status,
            response.reason,
            "application/json",
            response.body.len(),
            keep_alive,
        );
    }
    writer.write_all(&head)?;
    writer.write_all(response.body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_serve::client::HttpClient;
    use lshe_serve::http::read_request;

    fn hit(id: u32, estimate: f64) -> Json {
        Json::obj(vec![
            ("id", Json::uint(u64::from(id))),
            ("table", Json::str(format!("t{id}"))),
            ("column", Json::str("c")),
            ("size", Json::uint(10)),
            ("estimate", Json::num(estimate)),
        ])
    }

    /// A canned shard process: real HTTP over the real codec, scripted
    /// answers. `shard_id` is what it reports on `/stats`; `hits` is its
    /// ranked answer to every query (and every batch item).
    fn fake_shard(shard_id: u64, hits: Vec<Json>) -> SocketAddr {
        fake_shard_failing_commits(shard_id, hits, 0)
    }

    /// Like [`fake_shard`], but the first `fail_commits` `/commit`
    /// attempts answer 500 — the wire shape of a shard killed (or
    /// wedged) mid-commit, used to exercise the coordinator's
    /// retry-once convergence.
    fn fake_shard_failing_commits(shard_id: u64, hits: Vec<Json>, fail_commits: u64) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let commits = Arc::new(AtomicU64::new(0));
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let hits = hits.clone();
                let commits = Arc::clone(&commits);
                std::thread::spawn(move || {
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    let mut reader = BufReader::new(read_half);
                    let mut writer = stream;
                    while let Ok(Some(req)) = read_request(&mut reader, None) {
                        let (status, body) = answer(&req, shard_id, &hits, &commits, fail_commits);
                        let keep = !req.wants_close();
                        if write_response(
                            &mut writer,
                            status,
                            reason_for(status),
                            "application/json",
                            body.as_bytes(),
                            keep,
                        )
                        .is_err()
                            || !keep
                        {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    fn answer(
        req: &Request,
        shard_id: u64,
        hits: &[Json],
        commits: &AtomicU64,
        fail_commits: u64,
    ) -> (u16, String) {
        let query_answer = || {
            Json::obj(vec![
                ("count", Json::uint(hits.len() as u64)),
                ("cached", Json::Bool(false)),
                ("hits", Json::Arr(hits.to_vec())),
            ])
        };
        match (req.method.as_str(), req.path()) {
            ("GET", "/stats") => (
                200,
                Json::obj(vec![
                    ("domains", Json::uint(hits.len() as u64)),
                    ("num_perm", Json::uint(128)),
                    ("shard_id", Json::uint(shard_id)),
                    ("next_id", Json::uint(100)),
                    ("generation", Json::uint(1)),
                ])
                .render(),
            ),
            ("GET", "/health") => (
                200,
                Json::obj(vec![
                    ("status", Json::str("ok")),
                    ("domains", Json::uint(hits.len() as u64)),
                    ("generation", Json::uint(1)),
                ])
                .render(),
            ),
            ("POST", "/query") | ("POST", "/topk") => {
                let mut fields = match query_answer() {
                    Json::Obj(fields) => fields,
                    _ => unreachable!(),
                };
                fields.insert(2, ("generation".to_owned(), Json::uint(1)));
                fields.insert(3, ("query_time_us".to_owned(), Json::uint(5)));
                (200, Json::Obj(fields).render())
            }
            ("POST", "/commit") => {
                let attempt = commits.fetch_add(1, Ordering::SeqCst);
                if attempt < fail_commits {
                    (500, r#"{"error":"injected commit failure"}"#.to_owned())
                } else {
                    (
                        200,
                        Json::obj(vec![
                            ("status", Json::str("committed")),
                            ("applied", Json::uint(1)),
                            ("merged", Json::uint(1)),
                            ("entries_folded", Json::uint(0)),
                            ("sealed", Json::Bool(true)),
                            ("segments", Json::uint(1)),
                            ("tombstones", Json::uint(0)),
                            ("generation", Json::uint(2)),
                            ("domains", Json::uint(hits.len() as u64)),
                        ])
                        .render(),
                    )
                }
            }
            ("POST", "/batch") => {
                let items = std::str::from_utf8(&req.body)
                    .ok()
                    .and_then(|b| Json::parse(b).ok())
                    .and_then(|j| j.get("queries").and_then(Json::as_array).map(<[Json]>::len))
                    .unwrap_or(0);
                let results: Vec<Json> = (0..items).map(|_| query_answer()).collect();
                (
                    200,
                    Json::obj(vec![
                        ("count", Json::uint(items as u64)),
                        ("generation", Json::uint(1)),
                        ("batch_time_us", Json::uint(7)),
                        ("results", Json::Arr(results)),
                    ])
                    .render(),
                )
            }
            _ => (404, r#"{"error":"no such endpoint"}"#.to_owned()),
        }
    }

    /// An address that refuses connections for as long as the guard beside
    /// it lives: the client end of an established connection. Its port is
    /// taken, so `bind("127.0.0.1:0")` in a concurrently running test is
    /// never handed it, and nothing listens on it.
    fn dead_addr() -> (SocketAddr, (TcpListener, TcpStream)) {
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        let held = TcpStream::connect(peer.local_addr().expect("addr")).expect("connect");
        (held.local_addr().expect("addr"), (peer, held))
    }

    fn boot(shards: Vec<SocketAddr>) -> ClusterHandle {
        start(ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            hedge_after: Duration::from_millis(300),
            // Long: these tests drive health via requests, not probes.
            probe_interval: Duration::from_secs(60),
        })
        .expect("cluster start")
    }

    fn hit_ids(body: &Json) -> Vec<u64> {
        body.get("hits")
            .and_then(Json::as_array)
            .expect("hits array")
            .iter()
            .map(|h| h.get("id").and_then(Json::as_u64).expect("hit id"))
            .collect()
    }

    const QUERY: &str = r#"{"values": ["a", "b"], "threshold": 0.1}"#;

    #[test]
    fn coordinator_merges_shards_and_aggregates_stats() {
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9), hit(2, 0.4)]),
            fake_shard(1, vec![hit(1, 0.7)]),
        ]);
        let mut client = HttpClient::connect(handle.addr());

        let (status, body) = client.post("/query", QUERY);
        assert_eq!(status, 200, "{body}");
        assert_eq!(hit_ids(&body), vec![0, 1, 2], "global estimate order");
        assert_eq!(body.get("count").and_then(Json::as_u64), Some(3));
        assert!(body.get("degraded").is_none(), "healthy cluster: {body}");

        // k truncates the MERGED ranking, not a per-shard one.
        let (status, body) =
            client.post("/query", r#"{"values": ["a"], "threshold": 0.1, "k": 2}"#);
        assert_eq!(status, 200, "{body}");
        assert_eq!(hit_ids(&body), vec![0, 1], "top-2 of the merged order");

        let (status, health) = client.get("/health");
        assert_eq!(status, 200);
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(health.get("domains").and_then(Json::as_u64), Some(3));

        let (status, stats) = client.get("/stats");
        assert_eq!(status, 200);
        assert_eq!(stats.get("cluster").and_then(Json::as_bool), Some(true));
        assert_eq!(stats.get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("domains").and_then(Json::as_u64), Some(3));
        assert_eq!(stats.get("num_perm").and_then(Json::as_u64), Some(128));
        assert_eq!(
            stats.get("next_id").and_then(Json::as_u64),
            Some(100),
            "allocator seeds from the max shard next_id"
        );

        // Unknown path / wrong method mirror the shard server.
        let (status, _) = client.request("GET", "/nope", None);
        assert_eq!(status, 404);
        let (status, _) = client.request("GET", "/query", None);
        assert_eq!(status, 405);
        handle.shutdown();
    }

    #[test]
    fn batch_merges_element_wise_with_per_item_k() {
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9), hit(2, 0.4)]),
            fake_shard(1, vec![hit(1, 0.7)]),
        ]);
        let mut client = HttpClient::connect(handle.addr());
        let (status, body) = client.post(
            "/batch",
            r#"{"queries": [{"values": ["a"]}, {"values": ["b"], "k": 2}]}"#,
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("count").and_then(Json::as_u64), Some(2));
        let results = body
            .get("results")
            .and_then(Json::as_array)
            .expect("results");
        assert_eq!(results.len(), 2);
        assert_eq!(hit_ids(&results[0]), vec![0, 1, 2]);
        assert_eq!(
            hit_ids(&results[1]),
            vec![0, 1],
            "item k truncates its merge"
        );
        handle.shutdown();
    }

    #[test]
    fn dead_shard_degrades_but_queries_survive() {
        let live = fake_shard(0, vec![hit(0, 0.9)]);
        let (dead, _held) = dead_addr();
        let handle = boot(vec![live, dead]);
        let mut client = HttpClient::connect(handle.addr());

        // Startup already counted one failure; this query's failure is
        // the second, crossing DEGRADE_AFTER.
        let (status, body) = client.post("/query", QUERY);
        assert_eq!(status, 200, "surviving shards still answer: {body}");
        assert_eq!(body.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(hit_ids(&body), vec![0]);

        let (status, health) = client.get("/health");
        assert_eq!(status, 200);
        assert_eq!(
            health.get("status").and_then(Json::as_str),
            Some("degraded"),
            "{health}"
        );
        let degraded = health
            .get("degraded_shards")
            .and_then(Json::as_array)
            .expect("degraded_shards");
        assert_eq!(
            degraded.iter().filter_map(Json::as_u64).collect::<Vec<_>>(),
            vec![1]
        );

        // Now degraded: the shard is skipped, answers stay degraded-200.
        let (status, body) = client.post("/query", QUERY);
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(hit_ids(&body), vec![0]);

        // Mutations owned by the degraded shard are refused, not lost.
        let (status, body) = client.post("/remove", r#"{"id": 1}"#);
        assert_eq!(status, 503, "{body}");
        handle.shutdown();
    }

    /// The commit-convergence satellite: a shard that dies on its first
    /// `/commit` attempt but recovers must not fork cluster state — the
    /// coordinator's single idempotent retry lands the commit, the
    /// client sees one clean success, and `/stats` shows every shard at
    /// the same `last_commit_generation`.
    #[test]
    fn commit_retries_once_and_converges_after_shard_failure() {
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9)]),
            fake_shard_failing_commits(1, vec![hit(1, 0.7)], 1),
        ]);
        let mut client = HttpClient::connect(handle.addr());
        let (status, body) = client.post("/commit", "");
        assert_eq!(status, 200, "retry must converge: {body}");
        assert_eq!(body.get("status").and_then(Json::as_str), Some("committed"));
        assert_eq!(body.get("applied").and_then(Json::as_u64), Some(2));
        assert_eq!(body.get("sealed").and_then(Json::as_bool), Some(true));
        assert_eq!(body.get("segments").and_then(Json::as_u64), Some(2));

        let (status, stats) = client.get("/stats");
        assert_eq!(status, 200);
        let per_shard = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard");
        for entry in per_shard {
            assert_eq!(
                entry.get("last_commit_generation").and_then(Json::as_u64),
                Some(2),
                "shard lagging after converged commit: {entry}"
            );
        }
        handle.shutdown();
    }

    /// When the retry fails too, the coordinator reports the divergence
    /// — and `last_commit_generation` pins exactly which shard is
    /// behind (the healthy shard committed; skipping it was never an
    /// option, or cluster state would fork silently).
    #[test]
    fn exhausted_commit_retry_names_the_lagging_shard() {
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9)]),
            fake_shard_failing_commits(1, vec![hit(1, 0.7)], 10),
        ]);
        let mut client = HttpClient::connect(handle.addr());
        let (status, body) = client.post("/commit", "");
        assert_eq!(status, 502, "{body}");
        let msg = body.get("error").and_then(Json::as_str).expect("error");
        assert!(msg.contains("[1]"), "failed shard not named: {msg}");

        let (_, stats) = client.get("/stats");
        let per_shard = stats
            .get("per_shard")
            .and_then(Json::as_array)
            .expect("per_shard");
        let generations: Vec<u64> = per_shard
            .iter()
            .map(|e| {
                e.get("last_commit_generation")
                    .and_then(Json::as_u64)
                    .expect("generation")
            })
            .collect();
        assert_eq!(
            generations,
            vec![2, 0],
            "stats must pin the lagging shard: {stats}"
        );
        handle.shutdown();
    }

    #[test]
    fn all_shards_dead_refuses_to_start() {
        let ((a, _held_a), (b, _held_b)) = (dead_addr(), dead_addr());
        let err = start(ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: vec![a, b],
            connect_timeout: Duration::from_millis(200),
            ..ClusterConfig::default()
        })
        .expect_err("no reachable shard");
        assert!(err.contains("reachable"), "{err}");
    }

    #[test]
    fn misplaced_shard_is_a_config_error() {
        // A shard reporting id 1 listed at position 0: routing would
        // diverge from the split, so startup must refuse.
        let err = start(ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: vec![fake_shard(1, vec![hit(0, 0.5)])],
            ..ClusterConfig::default()
        })
        .expect_err("misplaced shard");
        assert!(err.contains("position 0"), "{err}");
    }

    #[test]
    fn shutdown_endpoint_drains_and_stops_accepting() {
        let handle = boot(vec![fake_shard(0, vec![hit(0, 0.9)])]);
        let addr = handle.addr();
        let mut client = HttpClient::connect(addr);
        let (status, body) = client.post("/shutdown", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(
            body.get("status").and_then(Json::as_str),
            Some("shutting down")
        );
        handle.join();
        assert!(
            TcpStream::connect(addr).is_err(),
            "listener must be gone after shutdown"
        );
    }
}
