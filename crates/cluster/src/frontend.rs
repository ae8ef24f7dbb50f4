//! The coordinator HTTP frontend.
//!
//! Serves the same endpoint surface as a single `lshe-serve` process —
//! `/query`, `/topk`, `/batch`, `/insert`, `/remove`, `/commit`,
//! `/compact`, `/reload`, `/stats`, `/health`, `/shutdown` — by
//! scattering each request across the shard processes and merging their
//! answers. A client moving from one process to a cluster changes a URL,
//! nothing else.
//!
//! The coordinator is a [`Service`] on `lshe-serve`'s reactor, the loop
//! `lshe serve` runs on, so connection cap, request deadline, idle
//! expiry, pipelining, protocol errors and the `/shutdown` drain are the
//! server's. Every request is long work on the compute pool: at most
//! `threads` (the machine's cores, at least 2) scatter at once.
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
//!   `/reload` broadcast to every shard, unhedged, and aggregate; the
//!   target is forwarded verbatim, so `/compact?async=1` schedules a
//!   fold on every shard and answers `"scheduled"`.
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
use lshe_serve::http::Request;
use lshe_serve::json::Json;
use lshe_serve::reactor::{self, Outcome, ReactorHandle, ReactorState, Service};
use lshe_serve::ServerConfig;
use std::convert::Infallible;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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

/// Shared coordinator state: one pool and one health record per shard.
struct Coordinator {
    config: ClusterConfig,
    /// The reactor serving this coordinator; its shutdown flag stops the
    /// prober.
    reactor: Arc<ReactorState>,
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

    /// One hedged read `POST` with health + hedge accounting.
    fn read_call(&self, s: usize, path: &str, body: &str) -> Result<CallOutcome, ClientError> {
        let res = hedged_call(
            &self.pools[s],
            "POST",
            path,
            Some(body),
            self.config.hedge_after,
        );
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
            let sid = stats.get("shard_id").filter(|sid| **sid != Json::Null);
            if let Some(sid) = sid.map(Json::as_u64).filter(|&sid| sid != Some(s as u64)) {
                return Err(format!(
                    "shard at {} reports shard id {sid:?} but is listed at \
                     position {s} — the shard list must follow split order",
                    self.pools[s].addr()
                ));
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

    fn route(&self, request: &Request) -> Outcome {
        match (request.method.as_str(), request.path()) {
            ("GET", "/health") => self.cluster_health(),
            ("GET", "/stats") => self.cluster_stats(),
            ("POST", "/query") => self.fanout_query(request, "/query"),
            ("POST", "/topk") => self.fanout_query(request, "/topk"),
            ("POST", "/batch") => self.fanout_batch(request),
            ("POST", "/insert") => self.route_insert(request),
            ("POST", "/remove") => self.route_remove(request),
            ("POST", "/commit" | "/compact" | "/reload") => self.broadcast(request),
            (
                _,
                "/health" | "/stats" | "/query" | "/topk" | "/batch" | "/insert" | "/remove"
                | "/commit" | "/compact" | "/reload",
            ) => Outcome::error(405, "wrong method for this path"),
            (_, path) => Outcome::error(404, format!("no such endpoint: {path}")),
        }
    }

    /// Scatters a read body verbatim to every non-degraded shard and
    /// parses the `200` replies. A shard 4xx is a deterministic request
    /// rejection (every shard parses the body identically), so the first
    /// one answers for the cluster. Returns the replies in shard order,
    /// the highest `generation` among them, and the skipped or failed
    /// shards, sorted.
    fn scatter_read(
        &self,
        path: &str,
        body: &str,
    ) -> Result<(Vec<Json>, u64, Vec<usize>), Outcome> {
        let active = self.active_shards();
        if active.is_empty() {
            return Err(Outcome::error(503, "every shard is degraded"));
        }
        let mut failed: Vec<usize> = (0..self.n()).filter(|s| !active.contains(s)).collect();
        let outcomes = scatter(active.len(), |i| self.read_call(active[i], path, body));
        let mut replies = Vec::with_capacity(active.len());
        let mut generation = 0u64;
        for (&s, res) in active.iter().zip(outcomes) {
            match res {
                Ok(out) if out.status == 200 => {
                    let Ok(reply) = Json::parse(&out.body) else {
                        return Err(Outcome::error(
                            502,
                            format!("shard {s} returned invalid JSON"),
                        ));
                    };
                    generation =
                        generation.max(reply.get("generation").and_then(Json::as_u64).unwrap_or(0));
                    replies.push(reply);
                }
                Ok(out) if (400..500).contains(&out.status) => {
                    return Err(Outcome::raw(out.status, out.body))
                }
                Ok(_) | Err(_) => failed.push(s),
            }
        }
        if replies.is_empty() {
            return Err(Outcome::error(503, "no shard answered"));
        }
        failed.sort_unstable();
        Ok((replies, generation, failed))
    }

    /// `/query` and `/topk`: scatter the body verbatim and answer with
    /// [`merge_item`]'s item, with `generation` and `query_time_us` in it
    /// and the degraded markers after it.
    fn fanout_query(&self, request: &Request, path: &str) -> Outcome {
        let started = Instant::now();
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Outcome::error(400, "request body must be UTF-8");
        };
        let (replies, generation, failed) = match self.scatter_read(path, body) {
            Ok(scattered) => scattered,
            Err(outcome) => return outcome,
        };
        let envelope = vec![
            ("generation", Json::uint(generation)),
            ("query_time_us", Json::uint(micros_since(started))),
        ];
        let query = Json::parse(body).ok();
        let answers: Vec<&Json> = replies.iter().collect();
        match merge_item(query.as_ref(), &answers, envelope) {
            Ok(item) => Outcome::ok(with_degraded(item, &failed)),
            Err(msg) => Outcome::error(500, msg),
        }
    }

    /// `/batch`: one pipelined wire call per shard for the WHOLE batch,
    /// then [`merge_item`] per item.
    fn fanout_batch(&self, request: &Request) -> Outcome {
        let started = Instant::now();
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Outcome::error(400, "request body must be UTF-8");
        };
        let (replies, generation, failed) = match self.scatter_read("/batch", body) {
            Ok(scattered) => scattered,
            Err(outcome) => return outcome,
        };
        let mut shard_results: Vec<&[Json]> = Vec::with_capacity(replies.len());
        for reply in &replies {
            let Some(results) = reply.get("results").and_then(Json::as_array) else {
                return Outcome::error(502, "a shard's /batch reply lost its results");
            };
            shard_results.push(results);
        }
        let items = shard_results[0].len();
        if shard_results.iter().any(|r| r.len() != items) {
            return Outcome::error(502, "shards disagree on batch length");
        }
        // The shards validated the body (a 4xx was forwarded above), so a
        // failed local parse only means there is no `k` to truncate to.
        let parsed = Json::parse(body).ok();
        let queries = parsed
            .as_ref()
            .and_then(|j| j.get("queries").and_then(Json::as_array))
            .unwrap_or_default();
        let mut results = Vec::with_capacity(items);
        for j in 0..items {
            let answers: Vec<&Json> = shard_results.iter().map(|r| &r[j]).collect();
            match merge_item(queries.get(j), &answers, Vec::new()) {
                Ok(item) => results.push(item),
                Err(msg) => return Outcome::error(500, msg),
            }
        }
        Outcome::ok(with_degraded(
            Json::obj(vec![
                ("count", Json::uint(items as u64)),
                ("generation", Json::uint(generation)),
                ("batch_time_us", Json::uint(micros_since(started))),
                ("results", Json::Arr(results)),
            ]),
            &failed,
        ))
    }

    /// `/insert`: allocate (or honour) the id, route to the owning
    /// shard, forward its staging response verbatim. Never hedged.
    fn route_insert(&self, request: &Request) -> Outcome {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Outcome::error(400, "request body must be UTF-8");
        };
        let Ok(parsed) = Json::parse(body) else {
            return Outcome::error(400, "request body must be JSON");
        };
        let id = match parsed.get("id") {
            None => self.next_id.fetch_add(1, Ordering::AcqRel),
            Some(id) => {
                let Some(id) = id.as_u64().and_then(|id| u32::try_from(id).ok()) else {
                    return Outcome::error(400, "\"id\" must be an unsigned 32-bit integer");
                };
                id
            }
        };
        let Json::Obj(mut fields) = parsed else {
            return Outcome::error(400, "request body must be a JSON object");
        };
        fields.retain(|(key, _)| key != "id");
        fields.push(("id".to_owned(), Json::uint(u64::from(id))));
        let routed = Json::Obj(fields).render();
        self.send_to_owner(id, "/insert", &routed, || {
            self.next_id.fetch_max(id + 1, Ordering::AcqRel);
        })
    }

    /// `/remove`: route by the (required) id, forward. Never hedged.
    fn route_remove(&self, request: &Request) -> Outcome {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Outcome::error(400, "request body must be UTF-8");
        };
        let id = Json::parse(body)
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_u64))
            .and_then(|id| u32::try_from(id).ok());
        let Some(id) = id else {
            return Outcome::error(400, "missing \"id\": expected an unsigned 32-bit integer");
        };
        self.send_to_owner(id, "/remove", body, || {})
    }

    /// Sends a mutation to the shard owning `id`, unhedged, and forwards
    /// its answer verbatim, calling `applied` first when it is a `200`.
    /// A degraded owner refuses with 503, not a lost write.
    fn send_to_owner(&self, id: u32, path: &str, body: &str, applied: impl FnOnce()) -> Outcome {
        let s = shard_of(id, self.n());
        if self.health[s].is_degraded() {
            return Outcome::error(
                503,
                format!("shard {s} owning id {id} is degraded; retry when it recovers"),
            );
        }
        match self.plain_call(s, "POST", path, Some(body)) {
            Ok(out) => {
                if out.status == 200 {
                    applied();
                }
                Outcome::raw(out.status, out.body)
            }
            Err(e) => Outcome::error(502, format!("shard {s} failed: {e}")),
        }
    }

    /// `/commit`, `/compact`, and `/reload`: broadcast to EVERY shard
    /// (degraded ones included — skipping a shard would fork cluster
    /// state), aggregate on full success by [`aggregate_reports`], 502
    /// naming the failed shards otherwise. Commit-class paths retry each
    /// failed shard exactly once: a transport failure or 5xx does not say
    /// whether the shard applied the op before the response was lost, and
    /// because a shard commit is idempotent (re-committing an empty stage
    /// is "nothing staged"), one retry converges either way instead of
    /// reporting a divergence that may not exist. The target goes to each
    /// shard verbatim, query string included.
    fn broadcast(&self, request: &Request) -> Outcome {
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return Outcome::error(400, "request body must be UTF-8");
        };
        let (path, target) = (request.path(), request.target.as_str());
        let commit_class = path == "/commit" || path == "/compact";
        let outcomes = scatter(self.n(), |s| {
            let first = self.plain_call(s, "POST", target, Some(body));
            let settled = matches!(&first, Ok(out) if out.status < 500);
            if settled || !commit_class {
                first
            } else {
                self.plain_call(s, "POST", target, Some(body))
            }
        });
        let mut failed: Vec<usize> = Vec::new();
        let mut parsed: Vec<Json> = Vec::new();
        for (s, res) in outcomes.into_iter().enumerate() {
            match res {
                Ok(out) if out.status == 200 => match Json::parse(&out.body) {
                    Ok(json) => {
                        // A scheduled `/compact?async=1` names no
                        // generation, so it leaves the witness alone.
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
                Ok(out) if (400..500).contains(&out.status) => {
                    return Outcome::raw(out.status, out.body)
                }
                Ok(_) | Err(_) => failed.push(s),
            }
        }
        if !failed.is_empty() {
            return Outcome::error(
                502,
                format!(
                    "{path} failed on shard(s) {failed:?} — cluster state may be \
                     divergent; retry once every shard is reachable"
                ),
            );
        }
        // A shard's `/reload` names no fleet size and its scheduled
        // `/compact?async=1` its own epoch; the fleet's names its shards.
        let mut fields = aggregate_reports(&parsed);
        let scheduled = fields.first().and_then(|(_, status)| status.as_str()) == Some("scheduled");
        if path == "/reload" || scheduled {
            fields.retain(|(key, _)| key != "epoch");
            fields.push(("shards".to_owned(), Json::uint(self.n() as u64)));
        }
        Outcome::ok(Json::Obj(fields))
    }

    /// `/health`: live-probe every shard. Probing degraded shards too is
    /// the fast re-admission path — one success resets the streak.
    fn cluster_health(&self) -> Outcome {
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
        Outcome::ok(Json::obj(vec![
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
    fn cluster_stats(&self) -> Outcome {
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
        Outcome::ok(Json::obj(vec![
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
}

/// Merges one query's per-shard answers into the cluster's. A shard's
/// error item is deterministic (every shard parses alike), so the first
/// is the answer. Otherwise the shards' hits merge through
/// [`merge_hits`] and truncate to the query's `k`, and the item reads
/// `count`, `cached`, the `envelope` fields, then `hits`.
///
/// # Errors
/// [`merge_hits`]'s refusal.
fn merge_item(
    query: Option<&Json>,
    answers: &[&Json],
    envelope: Vec<(&str, Json)>,
) -> Result<Json, String> {
    if let Some(&error) = answers.iter().find(|a| a.get("error").is_some()) {
        return Ok(error.clone());
    }
    let hits_of = |answer: &Json| {
        let hits = answer.get("hits").and_then(Json::as_array);
        hits.map(<[Json]>::to_vec).unwrap_or_default()
    };
    let mut hits = merge_hits(answers.iter().map(|a| hits_of(a)).collect())?;
    let k = query.and_then(|q| q.get("k")).and_then(Json::as_u64);
    if let Some(k) = k.filter(|&k| k > 0) {
        hits.truncate(usize::try_from(k).unwrap_or(usize::MAX));
    }
    let mut fields = vec![
        ("count", Json::uint(hits.len() as u64)),
        ("cached", Json::Bool(false)),
    ];
    fields.extend(envelope);
    fields.push(("hits", Json::Arr(hits)));
    Ok(Json::obj(fields))
}

/// Microseconds since `started`, for the `*_time_us` fields.
fn micros_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Appends the degraded markers to a response object.
fn with_degraded(mut response: Json, failed: &[usize]) -> Json {
    if failed.is_empty() {
        return response;
    }
    if let Json::Obj(fields) = &mut response {
        fields.push(("degraded".to_owned(), Json::Bool(true)));
        fields.push((
            "degraded_shards".to_owned(),
            Json::Arr(failed.iter().map(|&s| Json::uint(s as u64)).collect()),
        ));
    }
    response
}

impl Service for Coordinator {
    type Miss = Infallible;

    fn run(&self, request: Request) -> Outcome {
        self.route(&request)
    }

    fn run_group(&self, group: Vec<Infallible>) -> Vec<Outcome> {
        group.into_iter().map(|miss| match miss {}).collect()
    }
}

/// A running coordinator. Obtain via [`start`]; stop via
/// [`shutdown`](ClusterHandle::shutdown) or a `POST /shutdown` followed
/// by [`join`](ClusterHandle::join).
#[derive(Debug)]
pub struct ClusterHandle {
    reactor: ReactorHandle,
    prober: JoinHandle<()>,
}

impl ClusterHandle {
    /// The coordinator's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.reactor.addr()
    }

    /// Drains the coordinator and waits for its reactor and prober.
    pub fn shutdown(self) {
        self.reactor.shutdown();
        let _ = self.prober.join();
    }

    /// Blocks until the coordinator shuts down (via `POST /shutdown`).
    pub fn join(self) {
        self.reactor.join();
        let _ = self.prober.join();
    }
}

/// Starts a coordinator for the given shard topology.
///
/// Validates the topology against the live shards first (signature
/// widths must agree; reported shard ids must match list positions; at
/// least one shard must be reachable), then begins serving on the
/// reactor with [`ServerConfig`]'s default connection cap, request
/// deadline and pool size.
///
/// # Errors
/// A human-readable message when the bind fails or the topology is
/// invalid.
pub fn start(config: ClusterConfig) -> Result<ClusterHandle, String> {
    start_on(config, ServerConfig::default())
}

/// [`start`] with the reactor limits of `server` (its address is
/// `config.addr`).
pub(crate) fn start_on(
    config: ClusterConfig,
    server: ServerConfig,
) -> Result<ClusterHandle, String> {
    if config.shards.is_empty() {
        return Err("a cluster needs at least one shard address".to_owned());
    }
    let bound = reactor::bind(&ServerConfig {
        addr: config.addr.clone(),
        ..server
    })
    .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let pools = config
        .shards
        .iter()
        .map(|&shard| ConnPool::new(shard, config.connect_timeout, config.read_timeout))
        .collect::<Vec<_>>();
    let health = (0..pools.len()).map(|_| HealthState::new()).collect();
    let last_commit_generation = (0..pools.len()).map(|_| AtomicU64::new(0)).collect();
    let coordinator = Arc::new(Coordinator {
        config,
        reactor: Arc::clone(bound.state()),
        pools,
        health,
        next_id: AtomicU32::new(0),
        last_commit_generation,
        hedges_fired: AtomicU64::new(0),
    });
    coordinator.validate_topology()?;

    let reactor = bound
        .serve(Arc::clone(&coordinator))
        .map_err(|e| format!("cannot start the reactor: {e}"))?;
    let prober = std::thread::Builder::new()
        .name("cluster-prober".to_owned())
        .spawn(move || prober_loop(&coordinator))
        .map_err(|e| format!("cannot spawn prober thread: {e}"))?;
    Ok(ClusterHandle { reactor, prober })
}

/// Background health prober: keeps degraded shards under observation so
/// recovery does not depend on `/health` traffic. Stops once the reactor
/// begins its drain.
fn prober_loop(coordinator: &Coordinator) {
    let done = || coordinator.reactor.is_shutting_down();
    while !done() {
        for s in (0..coordinator.n()).take_while(|_| !done()) {
            let _ = coordinator.plain_call(s, "GET", "/health", None);
        }
        let wake = Instant::now() + coordinator.config.probe_interval;
        while Instant::now() < wake && !done() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

/// One broadcast body from every shard's, by one rule: the first shard's
/// keys in its order; numbers summed, except `generation`, the newest;
/// booleans true if any shard's is; strings (the `status`) from the first
/// shard that applied an op, else from the first shard.
fn aggregate_reports(shards: &[Json]) -> Vec<(String, Json)> {
    let Some(Json::Obj(first)) = shards.first() else {
        return Vec::new();
    };
    let applied = |j: &&Json| j.get("applied").and_then(Json::as_u64).unwrap_or(0) > 0;
    let lead = shards.iter().find(applied).unwrap_or(&shards[0]);
    let fields = first.iter().map(|(key, value)| {
        let mut values = shards.iter().filter_map(|j| j.get(key));
        let merged = match value {
            Json::Num(_) if key == "generation" => {
                Json::uint(values.filter_map(Json::as_u64).max().unwrap_or(0))
            }
            Json::Num(_) => Json::uint(values.filter_map(Json::as_u64).sum()),
            Json::Bool(_) => Json::Bool(values.any(|v| v.as_bool() == Some(true))),
            _ => lead.get(key).unwrap_or(value).clone(),
        };
        (key.clone(), merged)
    });
    fields.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_serve::client::HttpClient;
    use lshe_serve::testkit::{self, read_resp, Served};
    use std::io::{BufReader, Write as _};
    use std::net::{TcpListener, TcpStream};

    fn hit(id: u32, estimate: f64) -> Json {
        Json::obj(vec![
            ("id", Json::uint(u64::from(id))),
            ("table", Json::str(format!("t{id}"))),
            ("column", Json::str("c")),
            ("size", Json::uint(10)),
            ("estimate", Json::num(estimate)),
        ])
    }

    /// A canned shard's script, served on the real reactor.
    /// `shard_id` is what it reports on `/stats`; `hits` is its ranked
    /// answer to every query (and every batch item); the first
    /// `fail_commits` `/commit` attempts answer 500 — the wire shape of a
    /// shard killed (or wedged) mid-commit.
    struct Script {
        shard_id: u64,
        hits: Vec<Json>,
        fail_commits: u64,
        commits: AtomicU64,
        /// Every `/compact` target received, query string included.
        compact_targets: std::sync::Mutex<Vec<String>>,
    }

    impl Script {
        fn answer(&self, req: &Request) -> Outcome {
            let hits = &self.hits;
            match (req.method.as_str(), req.path()) {
                ("GET", "/stats") => Outcome::ok(Json::obj(vec![
                    ("domains", Json::uint(hits.len() as u64)),
                    ("num_perm", Json::uint(128)),
                    ("shard_id", Json::uint(self.shard_id)),
                    ("next_id", Json::uint(100)),
                    ("generation", Json::uint(1)),
                ])),
                ("GET", "/health") => Outcome::ok(Json::obj(vec![
                    ("status", Json::str("ok")),
                    ("domains", Json::uint(hits.len() as u64)),
                    ("generation", Json::uint(1)),
                ])),
                ("POST", "/query" | "/topk") => Outcome::ok(Json::obj(vec![
                    ("count", Json::uint(hits.len() as u64)),
                    ("cached", Json::Bool(false)),
                    ("generation", Json::uint(1)),
                    ("query_time_us", Json::uint(5)),
                    ("hits", Json::Arr(hits.clone())),
                ])),
                ("POST", "/commit")
                    if self.commits.fetch_add(1, Ordering::SeqCst) < self.fail_commits =>
                {
                    Outcome::error(500, "injected commit failure")
                }
                ("POST", "/commit") => Outcome::ok(Json::obj(vec![
                    ("status", Json::str("committed")),
                    ("applied", Json::uint(1)),
                    ("merged", Json::uint(1)),
                    ("entries_folded", Json::uint(0)),
                    ("sealed", Json::Bool(true)),
                    ("segments", Json::uint(1)),
                    ("tombstones", Json::uint(0)),
                    ("generation", Json::uint(2)),
                    ("domains", Json::uint(hits.len() as u64)),
                ])),
                ("POST", "/compact") => {
                    let mut targets = self.compact_targets.lock().expect("targets");
                    targets.push(req.target.clone());
                    Outcome::ok(Json::obj(vec![
                        ("status", Json::str("scheduled")),
                        ("epoch", Json::uint(targets.len() as u64)),
                    ]))
                }
                ("POST", "/batch") => {
                    let items = std::str::from_utf8(&req.body)
                        .ok()
                        .and_then(|b| Json::parse(b).ok())
                        .and_then(|j| j.get("queries").and_then(Json::as_array).map(<[Json]>::len))
                        .unwrap_or(0);
                    let answer = Json::obj(vec![
                        ("count", Json::uint(hits.len() as u64)),
                        ("cached", Json::Bool(false)),
                        ("hits", Json::Arr(hits.clone())),
                    ]);
                    let results = vec![answer; items];
                    Outcome::ok(Json::obj(vec![
                        ("count", Json::uint(items as u64)),
                        ("generation", Json::uint(1)),
                        ("batch_time_us", Json::uint(7)),
                        ("results", Json::Arr(results)),
                    ]))
                }
                _ => Outcome::error(404, "no such endpoint"),
            }
        }
    }

    /// Serves a [`Script`] until the test process exits.
    fn serve_script(
        shard_id: u64,
        hits: Vec<Json>,
        fail_commits: u64,
    ) -> (SocketAddr, Arc<Script>) {
        let script = Arc::new(Script {
            shard_id,
            hits,
            fail_commits,
            commits: AtomicU64::new(0),
            compact_targets: std::sync::Mutex::new(Vec::new()),
        });
        let served = Arc::clone(&script);
        (testkit::serve_fn(move |req| served.answer(req)), script)
    }

    fn fake_shard(shard_id: u64, hits: Vec<Json>) -> SocketAddr {
        serve_script(shard_id, hits, 0).0
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

    fn cluster_config(shards: Vec<SocketAddr>) -> ClusterConfig {
        ClusterConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards,
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(5),
            hedge_after: Duration::from_millis(300),
            // Long: these tests drive health via requests, not probes.
            probe_interval: Duration::from_secs(60),
        }
    }

    fn boot(shards: Vec<SocketAddr>) -> ClusterHandle {
        start(cluster_config(shards)).expect("cluster start")
    }

    /// A one-shard coordinator under `server`'s reactor limits: what the
    /// reactor's hostile-client checks run against.
    fn boot_one_shard(server: ServerConfig) -> ClusterHandle {
        let shards = vec![fake_shard(0, vec![hit(0, 0.9)])];
        start_on(cluster_config(shards), server).expect("cluster start")
    }

    impl Served for ClusterHandle {
        fn addr(&self) -> SocketAddr {
            ClusterHandle::addr(self)
        }
        fn shutdown(self) {
            ClusterHandle::shutdown(self);
        }
        fn join(self) {
            ClusterHandle::join(self);
        }
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

    /// `/query` and a `/batch` item merge through one function: the same
    /// body with `k` gives the same hits on both, and a shard hit without
    /// a valid id is a 500 on both.
    #[test]
    fn query_and_batch_item_share_one_merge() {
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9), hit(2, 0.4)]),
            fake_shard(1, vec![hit(1, 0.7), hit(3, 0.2)]),
        ]);
        let mut client = HttpClient::connect(handle.addr());
        let body = r#"{"values": ["a"], "threshold": 0.1, "k": 3}"#;
        let (status, query) = client.post("/query", body);
        assert_eq!(status, 200, "{query}");
        let (status, batch) = client.post("/batch", &format!(r#"{{"queries": [{body}]}}"#));
        assert_eq!(status, 200, "{batch}");
        let item = &batch
            .get("results")
            .and_then(Json::as_array)
            .expect("results")[0];
        assert_eq!(hit_ids(&query), vec![0, 1, 2], "top-3 of the merged order");
        assert_eq!(item.get("hits"), query.get("hits"));
        assert_eq!(item.get("count"), query.get("count"));
        handle.shutdown();

        let no_id = Json::obj(vec![("estimate", Json::num(0.5))]);
        let handle = boot(vec![
            fake_shard(0, vec![hit(0, 0.9)]),
            fake_shard(1, vec![no_id]),
        ]);
        let mut client = HttpClient::connect(handle.addr());
        let batch = format!(r#"{{"queries": [{QUERY}]}}"#);
        for (path, body) in [("/query", QUERY), ("/batch", batch.as_str())] {
            let (status, answer) = client.post(path, body);
            assert_eq!(status, 500, "{path}: {answer}");
            let msg = answer.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(msg.contains("without a valid id"), "{path}: {msg}");
        }
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
            serve_script(1, vec![hit(1, 0.7)], 1).0,
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
            serve_script(1, vec![hit(1, 0.7)], 10).0,
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

    #[test]
    fn compact_async_reaches_every_shard_and_answers_scheduled() {
        let (a, script_a) = serve_script(0, vec![hit(0, 0.9)], 0);
        let (b, script_b) = serve_script(1, vec![hit(1, 0.7)], 0);
        let handle = boot(vec![a, b]);
        let mut client = HttpClient::connect(handle.addr());
        let (status, body) = client.post("/compact?async=1", "");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body.get("status").and_then(Json::as_str), Some("scheduled"));
        assert_eq!(body.get("shards").and_then(Json::as_u64), Some(2));
        for script in [script_a, script_b] {
            let targets = script.compact_targets.lock().expect("targets").clone();
            assert_eq!(targets, vec!["/compact?async=1".to_owned()]);
        }
        // A scheduled fold is not a commit: the witness stays at 0.
        let (_, stats) = client.get("/stats");
        let witness = stats
            .render()
            .matches("\"last_commit_generation\":0")
            .count();
        assert_eq!(witness, 2, "{stats}");
        handle.shutdown();
    }

    #[test]
    fn oversized_body_gets_413_like_the_server() {
        let handle = boot(vec![fake_shard(0, vec![hit(0, 0.9)])]);
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"POST /query HTTP/1.1\r\nhost: x\r\ncontent-length: 9000000\r\n\r\n")
            .expect("send");
        let (status, body) = read_resp(&mut BufReader::new(stream)).expect("response");
        assert_eq!(status, 413, "{body}");
        handle.shutdown();
    }

    /// The server's hostile-client checks, run on a coordinator.
    #[test]
    fn coordinator_survives_hostile_clients_like_the_server() {
        testkit::connection_cap_closes_excess_connections(boot_one_shard);
        testkit::slow_drip_body_hits_request_deadline(boot_one_shard);
        testkit::drain_answers_pipelined_successors_with_503_retry_after(boot_one_shard);
        testkit::malformed_mid_pipeline_answers_valid_prefix_then_closes(boot_one_shard);
    }
}
