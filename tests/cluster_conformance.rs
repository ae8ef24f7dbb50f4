//! Conformance of the multi-process cluster tier against its split
//! shards queried in-process: a coordinator fronting four real
//! `lshe-serve` processes (well, in-process servers on real TCP ports —
//! the wire protocol is identical) must answer `/query`, `/topk`, and
//! `/batch` **bit-identically** to the `split_with` shard containers
//! opened in this process, each queried directly, with the hits unioned
//! and ranked here: same hits, same estimates (f64s survive the JSON
//! layer at shortest-round-trip precision), same order. Also covered:
//! mutations routed through the coordinator (insert → commit → visible;
//! remove → commit → gone), the keys and key order of the `/commit` and
//! `/compact` bodies, and the degraded-shard path — killing one
//! shard mid-load yields typed degraded responses from the survivors,
//! never wrong answers.

use lshe::cluster::{shard_of, ClusterConfig};
use lshe::corpus::json::Json;
use lshe::corpus::{Catalog, Domain, DomainMeta};
use lshe::serve::client::HttpClient as Client;
use lshe::serve::container::IndexContainer;
use lshe::serve::engine::Engine;
use lshe::serve::server::{start as start_shard, ServerConfig, ServerHandle};
use lshe::{MinHasher, Query, QueryMode};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const DOMAINS: usize = 32;

// ---------------------------------------------------------------- helpers

/// Same nested-chain corpus the serve smoke tests use: domain `k` holds
/// `v0 … v{19 + 5k}`, so smaller domains are contained in larger ones
/// and every threshold produces a non-trivial ranked answer.
fn build_catalog(n: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for k in 0..n {
        catalog.push(chain(k), DomainMeta::new(format!("t{k}"), "col"));
    }
    catalog
}

/// Domain `k` of the chain: `v0 … v{19 + 5k}`.
fn chain(k: usize) -> Domain {
    let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("v{i}")).collect();
    Domain::from_strs(values.iter().map(String::as_str))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lshe_cluster_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn query_body(k: usize, threshold: f64) -> String {
    let quoted: Vec<String> = (0..20 + 5 * k).map(|i| format!("\"v{i}\"")).collect();
    format!(
        "{{\"values\": [{}], \"threshold\": {threshold}}}",
        quoted.join(",")
    )
}

fn topk_body(k: usize, top: usize) -> String {
    let quoted: Vec<String> = (0..20 + 5 * k).map(|i| format!("\"v{i}\"")).collect();
    format!("{{\"values\": [{}], \"k\": {top}}}", quoted.join(","))
}

fn hit_ids(response: &Json) -> Vec<u64> {
    response
        .get("hits")
        .and_then(Json::as_array)
        .expect("hits array")
        .iter()
        .map(|h| h.get("id").and_then(Json::as_u64).expect("hit id"))
        .collect()
}

/// One hit as compared: id, table, column, size and the estimate's bits.
type HitRow = (u64, String, String, u64, Option<u64>);

fn hit_rows(response: &Json) -> Vec<HitRow> {
    let hits = response.get("hits").and_then(Json::as_array);
    hits.expect("hits array")
        .iter()
        .map(|h| {
            let text = |key| h.get(key).and_then(Json::as_str).expect(key).to_owned();
            (
                h.get("id").and_then(Json::as_u64).expect("id"),
                text("table"),
                text("column"),
                h.get("size").and_then(Json::as_u64).expect("size"),
                h.get("estimate").and_then(Json::as_f64).map(f64::to_bits),
            )
        })
        .collect()
}

/// The in-process reference for chain domain `k`: every split shard
/// queried directly, the hits unioned and ranked by (estimate
/// descending, id ascending) — written here, not taken from the
/// coordinator's merge — and cut to `k` for a top-k query.
fn reference_rows(parts: &[IndexContainer], k: usize, mode: QueryMode) -> Vec<HitRow> {
    let domain = chain(k);
    let size = domain.len() as u64;
    let mut hits: Vec<(f64, u32, &IndexContainer)> = Vec::new();
    for part in parts {
        let sig = domain.signature(&MinHasher::new(part.num_perm()));
        let query = match mode {
            QueryMode::Threshold(t) => Query::threshold(&sig, t),
            QueryMode::TopK(top) => Query::top_k(&sig, top),
        };
        let answer = part.open_index().search(&query.with_size(size));
        for (id, estimate) in answer.expect("valid query").into_pairs() {
            hits.push((estimate.expect("ranked hits carry estimates"), id, part));
        }
    }
    hits.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("not NaN").then(a.1.cmp(&b.1)));
    if let QueryMode::TopK(top) = mode {
        hits.truncate(top);
    }
    hits.into_iter()
        .map(|(estimate, id, part)| {
            let r = part.record(id).expect("every hit has a record");
            let (table, column) = (r.table.to_owned(), r.column.to_owned());
            (
                u64::from(id),
                table,
                column,
                r.size,
                Some(estimate.to_bits()),
            )
        })
        .collect()
}

/// A running topology: four single-shard servers over the split files,
/// the coordinator fronting them, and the same files opened in-process
/// as the reference.
struct Topology {
    dir: PathBuf,
    reference: Vec<IndexContainer>,
    shards: Vec<ServerHandle>,
    cluster: lshe::cluster::ClusterHandle,
}

fn boot(name: &str, n: usize) -> Topology {
    let dir = scratch(name);
    let container = IndexContainer::build(&build_catalog(DOMAINS), n);

    // The cluster: the index split with the placement the coordinator
    // routes by, one real server per shard file.
    let parts = container
        .split_with(n, shard_of)
        .expect("split whole index");
    let mut reference = Vec::with_capacity(n);
    let mut shards = Vec::with_capacity(n);
    for (s, part) in parts.iter().enumerate() {
        let path = dir.join(format!("whole.shard{s}.lshe"));
        part.save(&path).expect("write shard");
        reference.push(IndexContainer::load(&path).expect("open shard in-process"));
        shards.push(
            start_shard(
                Arc::new(Engine::load(&path, 1).expect("shard engine")),
                &ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    threads: 2,
                    cache_capacity: 64,
                    shard_id: Some(s as u64),
                    ..ServerConfig::default()
                },
            )
            .expect("bind shard"),
        );
    }

    let shard_addrs: Vec<SocketAddr> = shards.iter().map(ServerHandle::addr).collect();
    let cluster = lshe::cluster::start(ClusterConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: shard_addrs,
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_secs(5),
        hedge_after: Duration::from_secs(2),
        probe_interval: Duration::from_secs(60),
    })
    .expect("coordinator starts against live shards");

    Topology {
        dir,
        reference,
        shards,
        cluster,
    }
}

impl Topology {
    fn teardown(self) {
        self.cluster.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
        drop(self.reference);
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

// ------------------------------------------------------------------ tests

/// The acceptance-criteria test: every read endpoint answers
/// bit-identically to the split shards queried in-process.
#[test]
fn cluster_answers_match_single_process_sharded_bit_for_bit() {
    let topo = boot("conformance", SHARDS);
    let mut coord = Client::connect(topo.cluster.addr());
    let reference = |k, mode| reference_rows(&topo.reference, k, mode);

    // /health agrees on the corpus size.
    let (status, health) = coord.get("/health");
    assert_eq!(status, 200, "{health}");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        health.get("domains").and_then(Json::as_u64),
        Some(DOMAINS as u64)
    );

    // /query across a spread of query sizes and thresholds: same ids,
    // same provenance, same estimates to the last bit, same order.
    for (k, threshold) in [(0usize, 0.5), (5, 0.7), (13, 0.6), (27, 0.9), (31, 0.5)] {
        let (cs, cr) = coord.post("/query", &query_body(k, threshold));
        assert_eq!(cs, 200, "coordinator query {k}: {cr}");
        let want = reference(k, QueryMode::Threshold(threshold));
        assert_eq!(
            hit_rows(&cr),
            want,
            "query k={k} t={threshold}: cluster diverged from the shards"
        );
        assert_eq!(
            cr.get("count").and_then(Json::as_u64),
            Some(want.len() as u64)
        );
        assert!(
            !hit_ids(&cr).is_empty(),
            "query {k} must actually hit (its own domain at least)"
        );
        assert_eq!(
            cr.get("degraded"),
            None,
            "healthy cluster, no degraded flag"
        );
    }

    // /topk: each shard's own top k, unioned, ranked and cut to k.
    for (k, top) in [(3usize, 4usize), (10, 7), (31, 1)] {
        let (cs, cr) = coord.post("/topk", &topk_body(k, top));
        assert_eq!(cs, 200, "coordinator topk {k}: {cr}");
        assert_eq!(hit_ids(&cr).len(), top, "topk returns exactly k: {cr}");
        assert_eq!(hit_ids(&cr)[0], k as u64, "topk k={k}: own domain first");
        assert_eq!(
            hit_rows(&cr),
            reference(k, QueryMode::TopK(top)),
            "topk k={k}"
        );
    }

    // /batch: element-wise identical, order preserved, mixed modes.
    let mut items: Vec<String> = (0..8).map(|k| query_body(2 * k, 0.8)).collect();
    items.push(topk_body(6, 3));
    let mut modes: Vec<(usize, QueryMode)> =
        (0..8).map(|k| (2 * k, QueryMode::Threshold(0.8))).collect();
    modes.push((6, QueryMode::TopK(3)));
    let batch = format!("{{\"queries\": [{}]}}", items.join(","));
    let (cs, cr) = coord.post("/batch", &batch);
    assert_eq!(cs, 200, "coordinator batch: {cr}");
    let coord_results = cr.get("results").and_then(Json::as_array).expect("results");
    assert_eq!(coord_results.len(), modes.len());
    for (i, (c, &(k, mode))) in coord_results.iter().zip(&modes).enumerate() {
        assert_eq!(hit_rows(c), reference(k, mode), "batch item {i} diverged");
    }

    // Malformed queries are rejected as a shard rejects them (shard 4xx
    // forwarded verbatim — every shard parses the same way).
    let mut shard = Client::connect(topo.shards[0].addr());
    for bad in ["{\"values\": []}", "{\"threshold\": 0.5}", "not json"] {
        let (cs, cr) = coord.post("/query", bad);
        let (ss, sr) = shard.post("/query", bad);
        assert_eq!(cs, ss, "status for {bad}");
        assert_eq!(cr.get("error").is_some(), sr.get("error").is_some());
        assert_eq!(cs, 400);
    }

    // /stats aggregates the shard fleet.
    let (status, stats) = coord.get("/stats");
    assert_eq!(status, 200);
    assert_eq!(
        stats.get("domains").and_then(Json::as_u64),
        Some(DOMAINS as u64)
    );
    let per_shard = stats
        .get("per_shard")
        .and_then(Json::as_array)
        .expect("per_shard array");
    assert_eq!(per_shard.len(), SHARDS);

    topo.teardown();
}

/// Mutations route through the coordinator by `id % shards` and stay
/// consistent with what a rebuild would see: insert → commit → the new
/// domain answers its own query; remove → commit → it is gone again.
#[test]
fn mutations_route_commit_and_become_visible() {
    let topo = boot("mutations", SHARDS);
    let mut coord = Client::connect(topo.cluster.addr());

    // A value namespace disjoint from the corpus ("m…").
    let values: Vec<String> = (0..30).map(|i| format!("\"m{i}\"")).collect();
    let insert = format!(
        "{{\"values\": [{}], \"table\": \"live\", \"column\": \"c\"}}",
        values.join(",")
    );
    let (status, response) = coord.post("/insert", &insert);
    assert_eq!(status, 200, "{response}");
    let id = response.get("id").and_then(Json::as_u64).expect("id");
    assert_eq!(id, DOMAINS as u64, "ids continue past the fleet's max");
    let owner = shard_of(u32::try_from(id).expect("small id"), SHARDS);

    // Commit broadcasts to every shard; only the owner had staged work.
    let (status, committed) = coord.post("/commit", "");
    assert_eq!(status, 200, "{committed}");
    assert!(
        committed
            .get("applied")
            .and_then(Json::as_u64)
            .expect("applied")
            >= 1,
        "{committed}"
    );

    // The inserted domain is queryable through the coordinator, served
    // by exactly the shard the placement function names.
    let probe = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));
    let (status, response) = coord.post("/query", &probe);
    assert_eq!(status, 200, "{response}");
    assert!(hit_ids(&response).contains(&id), "{response}");
    let mut owner_client = Client::connect(topo.shards[owner].addr());
    let (_, owner_answer) = owner_client.post("/query", &probe);
    assert!(
        hit_ids(&owner_answer).contains(&id),
        "placement says shard {owner} owns id {id}: {owner_answer}"
    );

    // Remove it and the answer reverts.
    let (status, response) = coord.post("/remove", &format!("{{\"id\": {id}}}"));
    assert_eq!(status, 200, "{response}");
    let (status, committed) = coord.post("/commit", "");
    assert_eq!(status, 200, "{committed}");
    let (status, response) = coord.post("/query", &probe);
    assert_eq!(status, 200, "{response}");
    assert!(
        !hit_ids(&response).contains(&id),
        "removed domain still answering: {response}"
    );

    // The fleet-wide domain count is back to the original corpus.
    let (_, stats) = coord.get("/stats");
    assert_eq!(
        stats.get("domains").and_then(Json::as_u64),
        Some(DOMAINS as u64)
    );

    topo.teardown();
}

/// An object body's keys in order, then the values of `fields`, all
/// space-separated.
fn shape(body: &Json, fields: &[&str]) -> String {
    let Json::Obj(pairs) = body else {
        return body.render();
    };
    let keys = pairs.iter().map(|(key, _)| key.clone());
    let values = fields.iter().filter_map(|&field| body.get(field));
    let words: Vec<String> = keys.chain(values.map(Json::render)).collect();
    words.join(" ")
}

/// `/commit`, `/compact` and `/compact?async=1` answer with the same keys
/// in the same order on a shard and through the coordinator, which folds
/// the shards' reports by one generic rule: this pins the wire it keeps.
#[test]
fn commit_and_compact_bodies_keep_their_keys_through_the_coordinator() {
    const COMMIT: &str =
        "status applied merged entries_folded sealed segments tombstones generation domains";
    const COMPACT: &str =
        "status applied merged entries_folded segments tombstones generation domains";
    let topo = boot("wire_keys", 2);
    let mut coord = Client::connect(topo.cluster.addr());
    let mut shard = Client::connect(topo.shards[0].addr());

    // Ids 32 and 33 place on shards 0 and 1: the second commit is applied
    // by shard 1 alone, and the fleet's status still reads "committed".
    for k in 0..2u64 {
        let values: Vec<String> = (0..30).map(|i| format!("\"w{k}_{i}\"")).collect();
        let (_, inserted) = coord.post(
            "/insert",
            &format!("{{\"values\": [{}]}}", values.join(",")),
        );
        assert_eq!(inserted.get("id").and_then(Json::as_u64), Some(32 + k));
        let (_, committed) = coord.post("/commit", "");
        let want = format!("{COMMIT} \"committed\" 1 true");
        assert_eq!(shape(&committed, &["status", "applied", "sealed"]), want);
    }
    for client in [&mut shard, &mut coord] {
        let (_, idle) = client.post("/commit", "");
        let want = format!("{COMMIT} \"nothing staged\" 0 false");
        assert_eq!(shape(&idle, &["status", "applied", "sealed"]), want);
        let (_, compacted) = client.post("/compact", "");
        assert_eq!(shape(&compacted, &["segments"]), format!("{COMPACT} 0"));
    }
    let (_, scheduled) = shard.post("/compact?async=1", "");
    assert_eq!(shape(&scheduled, &[]), "status epoch");
    let (_, scheduled) = coord.post("/compact?async=1", "");
    assert_eq!(shape(&scheduled, &["shards"]), "status shards 2");

    topo.teardown();
}

/// Kill one shard mid-load: reads keep answering from the survivors with
/// a typed `degraded` marker (never silently-wrong full answers), the
/// coordinator's /health turns degraded and names the dead shard, and a
/// mutation owned by the dead shard is refused with 503.
#[test]
fn killing_one_shard_degrades_gracefully() {
    let mut topo = boot("degraded", SHARDS);
    let mut coord = Client::connect(topo.cluster.addr());

    // Healthy first: the full answer includes hits from every shard.
    let body = query_body(1, 0.5); // small query, contained in everything
    let (status, before) = coord.post("/query", &body);
    assert_eq!(status, 200, "{before}");
    let full: Vec<u64> = hit_ids(&before);
    let victim = 2usize;
    assert!(
        full.iter().any(|&id| shard_of(id as u32, SHARDS) == victim),
        "pick a query that the victim shard contributes to: {full:?}"
    );

    // Kill shard 2 (drain its listener; the coordinator only sees
    // connection refusals from here on).
    topo.shards.remove(victim).shutdown();
    std::thread::sleep(Duration::from_millis(100));

    // Reads survive, flagged. (Two calls: the first failure starts the
    // streak, DEGRADE_AFTER = 2 marks the shard degraded.)
    for round in 0..2 {
        let (status, during) = coord.post("/query", &body);
        assert_eq!(status, 200, "round {round}: {during}");
        assert_eq!(
            during.get("degraded"),
            Some(&Json::Bool(true)),
            "round {round} must be marked degraded: {during}"
        );
        let ids = hit_ids(&during);
        assert!(!ids.is_empty(), "survivors must still answer");
        for id in &ids {
            assert_ne!(
                shard_of(*id as u32, SHARDS),
                victim,
                "a hit from the dead shard appeared: {during}"
            );
        }
        let named = during
            .get("degraded_shards")
            .and_then(Json::as_array)
            .expect("degraded_shards");
        assert!(
            named.contains(&Json::uint(victim as u64)),
            "response names the failed shard: {during}"
        );
    }

    // /health live-probes the fleet and reports the outage.
    let (status, health) = coord.get("/health");
    assert_eq!(status, 200, "{health}");
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded"),
        "{health}"
    );
    assert!(
        health
            .get("degraded_shards")
            .and_then(Json::as_array)
            .expect("degraded_shards")
            .contains(&Json::uint(victim as u64)),
        "{health}"
    );

    // A mutation owned by the dead shard is a typed refusal, not a hang
    // and not a silent drop. Id DOMAINS+victim lands on the victim.
    let owned_by_victim = (0..)
        .find(|id: &u32| shard_of(*id, SHARDS) == victim)
        .expect("some id maps there");
    let (status, refused) = coord.post("/remove", &format!("{{\"id\": {owned_by_victim}}}"));
    assert_eq!(status, 503, "{refused}");
    assert!(refused.get("error").is_some(), "{refused}");

    // Batches likewise degrade rather than fail.
    let batch = format!("{{\"queries\": [{}, {}]}}", query_body(0, 0.5), body);
    let (status, response) = coord.post("/batch", &batch);
    assert_eq!(status, 200, "{response}");
    assert_eq!(response.get("degraded"), Some(&Json::Bool(true)));

    topo.teardown();
}
