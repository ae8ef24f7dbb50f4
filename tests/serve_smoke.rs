//! Loopback integration test of `lshe-serve`: boots the real server on an
//! ephemeral port and exercises every endpoint over actual TCP — including
//! sustained concurrent load (≥ 10k requests across ≥ 4 client threads),
//! result correctness against the direct `IndexContainer::search` path,
//! cache hits, batched queries, a hot `/reload` mid-traffic, and graceful
//! shutdown.

use lshe_corpus::json::Json;
use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_serve::client::HttpClient as Client;
use lshe_serve::container::IndexContainer;
use lshe_serve::engine::Engine;
use lshe_serve::server::{start, ServerConfig};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------- helpers

/// `n` domains where domain `k` holds the strings `v0 … v{19 + 5k}` — a
/// nested chain, so small domains are contained in every larger one.
fn build_catalog(n: usize) -> Catalog {
    let mut catalog = Catalog::new();
    for k in 0..n {
        let values: Vec<String> = (0..20 + 5 * k).map(|i| format!("v{i}")).collect();
        catalog.push(
            Domain::from_strs(values.iter().map(String::as_str)),
            DomainMeta::new(format!("t{k}"), "col"),
        );
    }
    catalog
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lshe_serve_smoke_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The string values of query `k` (exactly domain `k`'s value set).
fn query_values(k: usize) -> Vec<String> {
    (0..20 + 5 * k).map(|i| format!("v{i}")).collect()
}

fn query_body(k: usize, threshold: f64) -> String {
    let quoted: Vec<String> = query_values(k).iter().map(|v| format!("\"{v}\"")).collect();
    format!(
        "{{\"values\": [{}], \"threshold\": {threshold}}}",
        quoted.join(",")
    )
}

/// Hit ids from a `/query` response object.
fn hit_ids(response: &Json) -> Vec<u64> {
    response
        .get("hits")
        .and_then(Json::as_array)
        .expect("hits array")
        .iter()
        .map(|h| h.get("id").and_then(Json::as_u64).expect("hit id"))
        .collect()
}

/// The direct-search reference: ids from the container's index for the
/// same values/threshold, order-insensitive.
fn expected_ids(container: &IndexContainer, k: usize, threshold: f64) -> Vec<u64> {
    let values = query_values(k);
    let domain = Domain::from_strs(values.iter().map(String::as_str));
    let hasher = lshe_minhash::MinHasher::new(container.num_perm());
    let sig = domain.signature(&hasher);
    let query = lshe_core::Query::threshold(&sig, threshold).with_size(domain.len() as u64);
    let outcome = container.open_index().search(&query).expect("valid query");
    let mut ids: Vec<u64> = outcome.hits.iter().map(|h| u64::from(h.id)).collect();
    ids.sort_unstable();
    ids
}

// ------------------------------------------------------------------ tests

#[test]
fn every_endpoint_roundtrips() {
    let dir = scratch("endpoints");
    let index_path = dir.join("idx.lshe");
    let container = IndexContainer::build(&build_catalog(12), 4);
    std::fs::write(&index_path, container.to_bytes()).expect("write index");

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr);

    // GET /health
    let (status, health) = client.get("/health");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("domains").and_then(Json::as_u64), Some(12));
    assert_eq!(health.get("generation").and_then(Json::as_u64), Some(1));

    // POST /query — identical results to the direct container path.
    let (status, response) = client.post("/query", &query_body(3, 0.7));
    assert_eq!(status, 200, "{response}");
    let mut got = hit_ids(&response);
    got.sort_unstable();
    assert_eq!(got, expected_ids(&container, 3, 0.7), "query disagrees");
    assert_eq!(response.get("cached"), Some(&Json::Bool(false)));

    // Same query again: cache hit, same hits.
    let (_, cached) = client.post("/query", &query_body(3, 0.7));
    assert_eq!(cached.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(cached.get("hits"), response.get("hits"));

    // POST /topk
    let (status, topk) = client.post(
        "/topk",
        &format!(
            "{{\"values\": [{}], \"k\": 4}}",
            query_values(2)
                .iter()
                .map(|v| format!("\"{v}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    assert_eq!(status, 200, "{topk}");
    assert_eq!(topk.get("count").and_then(Json::as_u64), Some(4));
    // Estimates attached and descending.
    let hits = topk.get("hits").and_then(Json::as_array).expect("hits");
    let estimates: Vec<f64> = hits
        .iter()
        .map(|h| h.get("estimate").and_then(Json::as_f64).expect("estimate"))
        .collect();
    for w in estimates.windows(2) {
        assert!(w[0] >= w[1], "top-k not sorted: {estimates:?}");
    }

    // POST /batch — 6 queries, order preserved.
    let batch_body = format!(
        "{{\"queries\": [{}]}}",
        (0..6)
            .map(|k| query_body(k, 0.9))
            .collect::<Vec<_>>()
            .join(",")
    );
    let (status, batch) = client.post("/batch", &batch_body);
    assert_eq!(status, 200, "{batch}");
    let results = batch.get("results").and_then(Json::as_array).expect("arr");
    assert_eq!(results.len(), 6);
    for (k, result) in results.iter().enumerate() {
        let mut got: Vec<u64> = result
            .get("hits")
            .and_then(Json::as_array)
            .expect("hits")
            .iter()
            .map(|h| h.get("id").and_then(Json::as_u64).expect("id"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected_ids(&container, k, 0.9), "batch entry {k}");
    }

    // POST /reload — same file, new generation; old answers stay correct.
    let (status, reloaded) = client.post("/reload", "");
    assert_eq!(status, 200, "{reloaded}");
    assert_eq!(reloaded.get("generation").and_then(Json::as_u64), Some(2));
    let (_, after) = client.post("/query", &query_body(3, 0.7));
    let mut got = hit_ids(&after);
    got.sort_unstable();
    assert_eq!(got, expected_ids(&container, 3, 0.7), "post-reload query");
    assert_eq!(after.get("cached"), Some(&Json::Bool(false)), "new gen");

    // Reload from an explicit (larger) index file.
    let bigger = dir.join("bigger.lshe");
    std::fs::write(
        &bigger,
        IndexContainer::build(&build_catalog(16), 4).to_bytes(),
    )
    .expect("write");
    let (status, reloaded) = client.post(
        "/reload",
        &format!(
            "{{\"path\": {}}}",
            Json::str(bigger.to_str().expect("utf8")).render()
        ),
    );
    assert_eq!(status, 200, "{reloaded}");
    assert_eq!(reloaded.get("domains").and_then(Json::as_u64), Some(16));

    // Opt-in per-query debug: execution counters ride along on /query.
    let (status, debugged) = client.post(
        "/query",
        &format!(
            "{{\"values\": [{}], \"threshold\": 0.7, \"debug\": true}}",
            query_values(5)
                .iter()
                .map(|v| format!("\"{v}\""))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    assert_eq!(status, 200, "{debugged}");
    let debug = debugged.get("debug").expect("debug object");
    let probed = debug
        .get("partitions_probed")
        .and_then(Json::as_u64)
        .expect("probed");
    let total = debug
        .get("partitions_total")
        .and_then(Json::as_u64)
        .expect("total");
    assert!(probed <= total, "{debug}");
    assert!(
        debug.get("candidates").and_then(Json::as_u64).expect("c")
            >= debug.get("survivors").and_then(Json::as_u64).expect("s"),
        "{debug}"
    );

    // GET /stats reflects the traffic, including aggregated QueryStats
    // from every executed (non-cached) search.
    let (status, stats) = client.get("/stats");
    assert_eq!(status, 200);
    assert_eq!(stats.get("domains").and_then(Json::as_u64), Some(16));
    let requests = stats.get("requests").expect("requests");
    assert!(requests.get("query").and_then(Json::as_u64).expect("n") >= 3);
    assert_eq!(requests.get("batch").and_then(Json::as_u64), Some(1));
    assert_eq!(requests.get("reload").and_then(Json::as_u64), Some(2));
    let cache = stats.get("cache").expect("cache");
    assert!(cache.get("hits").and_then(Json::as_u64).expect("hits") >= 1);
    let totals = stats.get("query_stats").expect("query_stats");
    let executed = totals
        .get("executed")
        .and_then(Json::as_u64)
        .expect("executed");
    assert!(
        executed >= 3,
        "expected several executed searches: {totals}"
    );
    assert!(
        totals
            .get("partitions_probed")
            .and_then(Json::as_u64)
            .expect("probed")
            >= executed,
        "each executed search probes ≥ 1 partition: {totals}"
    );
    assert!(
        totals.get("candidates").and_then(Json::as_u64).expect("c")
            >= totals.get("survivors").and_then(Json::as_u64).expect("s"),
        "{totals}"
    );
    assert!(totals.get("wall_micros").and_then(Json::as_u64).is_some());

    // Error paths keep the connection usable (4xx, not a disconnect).
    let (status, _) = client.post("/query", "{\"values\": []}");
    assert_eq!(status, 400);
    let (status, _) = client.get("/nope");
    assert_eq!(status, 404);
    let (status, _) = client.get("/query");
    assert_eq!(status, 405);
    let (status, _) = client.get("/health");
    assert_eq!(status, 200, "connection survived the errors");

    server.shutdown();
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener still accepting after shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance-criteria test: ≥ 10k single-query requests across ≥ 4
/// concurrent client threads with zero dropped connections, results
/// identical to direct `IndexContainer::search`, a measured cache hit-rate
/// > 0, and a successful hot `/reload` under load.
#[test]
fn sustained_concurrent_load_with_hot_reload() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 2_500;
    const DISTINCT_QUERIES: usize = 12;
    const THRESHOLD: f64 = 0.8;

    let dir = scratch("load");
    let index_path = dir.join("idx.lshe");
    let container = IndexContainer::build(&build_catalog(20), 4);
    std::fs::write(&index_path, container.to_bytes()).expect("write index");

    // Reference answers from the direct search path (same bytes).
    let reference =
        IndexContainer::from_bytes(&std::fs::read(&index_path).expect("read")).expect("decode");
    let expected: Vec<Vec<u64>> = (0..DISTINCT_QUERIES)
        .map(|k| expected_ids(&reference, k, THRESHOLD))
        .collect();
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..DISTINCT_QUERIES)
            .map(|k| query_body(k, THRESHOLD))
            .collect(),
    );
    let expected = Arc::new(expected);

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_capacity: 512,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let client_threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..REQUESTS_PER_CLIENT {
                    let k = (c + i) % DISTINCT_QUERIES;
                    let (status, response) = client.post("/query", &bodies[k]);
                    assert_eq!(status, 200, "client {c} request {i}: {response}");
                    let mut got = hit_ids(&response);
                    got.sort_unstable();
                    assert_eq!(
                        got, expected[k],
                        "client {c} request {i} (query {k}) wrong hits"
                    );
                }
            })
        })
        .collect();

    // Hot-reload the index (same file) repeatedly while traffic flows.
    let mut admin = Client::connect(addr);
    let mut reloads = 0u64;
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(40));
        let (status, response) = admin.post("/reload", "");
        assert_eq!(status, 200, "reload under load failed: {response}");
        reloads += 1;
    }

    for handle in client_threads {
        handle
            .join()
            .expect("client thread panicked — dropped connection or wrong results");
    }

    let (status, stats) = admin.get("/stats");
    assert_eq!(status, 200);
    let requests = stats.get("requests").expect("requests");
    assert_eq!(
        requests.get("query").and_then(Json::as_u64),
        Some((CLIENTS * REQUESTS_PER_CLIENT) as u64),
        "all {CLIENTS}×{REQUESTS_PER_CLIENT} queries must be served"
    );
    assert_eq!(requests.get("reload").and_then(Json::as_u64), Some(reloads));
    let cache = stats.get("cache").expect("cache");
    let hits = cache.get("hits").and_then(Json::as_u64).expect("hits");
    assert!(
        hits > 0,
        "repeated queries must produce cache hits: {cache}"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Live ingestion under concurrent query load: one writer hammers
/// `/insert` + `/commit` (with a hot `/reload` thrown mid-stream — the
/// reload-during-insert race) while 3 clients query continuously. Zero
/// failed requests; pre-insert snapshots stay consistent (the original
/// corpus answers never change, whatever generation serves them); after
/// the final commit every surviving inserted domain is queryable and the
/// staged backlog is empty.
#[test]
fn live_ingestion_under_concurrent_query_load() {
    const READERS: usize = 3;
    const READS_PER_CLIENT: usize = 600;
    const INSERTS: usize = 20;
    const THRESHOLD: f64 = 0.8;

    let dir = scratch("ingest");
    let index_path = dir.join("idx.lshe");
    let container = IndexContainer::build(&build_catalog(16), 4);
    std::fs::write(&index_path, container.to_bytes()).expect("write index");

    // Reference answers for the original corpus: inserted domains use a
    // disjoint value namespace ("w…"), so these answers must hold across
    // every generation, before and after each commit.
    let reference =
        IndexContainer::from_bytes(&std::fs::read(&index_path).expect("read")).expect("decode");
    let expected: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..8)
            .map(|k| expected_ids(&reference, k, THRESHOLD))
            .collect(),
    );
    let bodies: Arc<Vec<String>> = Arc::new((0..8).map(|k| query_body(k, THRESHOLD)).collect());

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let readers: Vec<_> = (0..READERS)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..READS_PER_CLIENT {
                    let k = (c + i) % bodies.len();
                    let (status, response) = client.post("/query", &bodies[k]);
                    assert_eq!(status, 200, "reader {c} req {i}: {response}");
                    let mut got = hit_ids(&response);
                    got.retain(|&id| id < 16); // inserted ids may appear post-commit
                    got.sort_unstable();
                    assert_eq!(
                        got, expected[k],
                        "reader {c} req {i} (query {k}): original-corpus answers drifted"
                    );
                }
            })
        })
        .collect();

    // The writer: 20 inserts, a commit every 5, a /reload mid-stream, one
    // /remove of an inserted id, and a final commit.
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let mut inserted: Vec<(u64, usize)> = Vec::new();
        for k in 0..INSERTS {
            let values: Vec<String> = (0..25 + 3 * k).map(|i| format!("\"w{k}_{i}\"")).collect();
            let body = format!(
                "{{\"values\": [{}], \"table\": \"live{k}\", \"column\": \"c\"}}",
                values.join(",")
            );
            let (status, response) = client.post("/insert", &body);
            assert_eq!(status, 200, "insert {k}: {response}");
            let id = response.get("id").and_then(Json::as_u64).expect("id");
            inserted.push((id, k));
            if k == 7 {
                // The reload-during-insert race: hot-swap the (committed)
                // base file while mutations are staged.
                let (status, response) = client.post("/reload", "");
                assert_eq!(status, 200, "reload during staging: {response}");
            }
            if k == 11 {
                let victim = inserted[10].0;
                let (status, response) = client.post("/remove", &format!("{{\"id\": {victim}}}"));
                assert_eq!(status, 200, "remove staged insert: {response}");
                inserted.retain(|&(id, _)| id != victim);
            }
            if k % 5 == 4 {
                let (status, response) = client.post("/commit", "");
                assert_eq!(status, 200, "commit at {k}: {response}");
            }
        }
        let (status, response) = client.post("/commit", "");
        assert_eq!(status, 200, "final commit: {response}");
        inserted
    });

    let inserted = writer.join().expect("writer panicked");
    for handle in readers {
        handle
            .join()
            .expect("reader panicked — error or stale answer");
    }

    // Every surviving inserted domain answers its own query post-commit.
    let mut client = Client::connect(addr);
    for &(id, k) in &inserted {
        let values: Vec<String> = (0..25 + 3 * k).map(|i| format!("\"w{k}_{i}\"")).collect();
        let body = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));
        let (status, response) = client.post("/query", &body);
        assert_eq!(status, 200, "{response}");
        assert!(
            hit_ids(&response).contains(&id),
            "inserted domain {id} (live{k}) invisible post-commit: {response}"
        );
    }

    // Staged backlog drained; no server-side errors beyond none expected.
    let (status, stats) = client.get("/stats");
    assert_eq!(status, 200);
    let staged = stats.get("staged").expect("staged");
    assert_eq!(staged.get("inserts").and_then(Json::as_u64), Some(0));
    assert_eq!(staged.get("removes").and_then(Json::as_u64), Some(0));
    let requests = stats.get("requests").expect("requests");
    assert_eq!(
        requests.get("insert").and_then(Json::as_u64),
        Some(INSERTS as u64)
    );
    assert_eq!(requests.get("remove").and_then(Json::as_u64), Some(1));
    assert_eq!(requests.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(
        requests.get("query").and_then(Json::as_u64),
        Some((READERS * READS_PER_CLIENT + inserted.len()) as u64)
    );
    let domains = stats
        .get("domains")
        .and_then(Json::as_u64)
        .expect("domains");
    assert_eq!(domains, 16 + inserted.len() as u64);

    // The committed state is durable: commits seal into the delta log
    // (one marker per batch), and whenever a background maintenance
    // merge runs it persists the folded base and retires the committed
    // log prefix — so whether the log still exists here depends on how
    // the merges raced the final commit. Either way, a fresh engine
    // loads base + log to exactly the committed corpus.
    server.shutdown();
    let log = lshe_serve::container::DeltaLog::sidecar(&index_path);
    let reloaded = Engine::load(&index_path, 1).expect("reload committed file");
    assert_eq!(reloaded.snapshot().container().len(), 16 + inserted.len());
    reloaded.compact().expect("compact");
    assert!(!log.exists(), "compaction must retire the delta log");
    let compacted = Engine::load(&index_path, 1).expect("reload compacted file");
    assert_eq!(compacted.snapshot().container().len(), 16 + inserted.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI path: a default `lshe index` produces a file the serve engine
/// loads directly, and its hits carry estimates.
#[test]
fn cli_built_index_is_servable() {
    let dir = scratch("cli_index");
    std::fs::write(
        dir.join("registry.csv"),
        "company,sector\nacme,mfg\nborealis,ai\ncanaduck,aero\ndelta,energy\nevergreen,bio\n\
         falcon,mining\nglacier,sw\nharbour,log\nivory,sw\njuniper,agri\n",
    )
    .expect("write");
    std::fs::write(
        dir.join("grants.csv"),
        "partner,year\nacme,2011\nborealis,2011\ncanaduck,2011\ndelta,2011\nevergreen,2011\n\
         falcon,2012\nglacier,2012\nharbour,2012\n",
    )
    .expect("write");
    let index_path = dir.join("t.lshe");
    lshe_cli::run(&[
        "index".to_owned(),
        "--dir".to_owned(),
        dir.to_str().expect("utf8").to_owned(),
        "--out".to_owned(),
        index_path.to_str().expect("utf8").to_owned(),
        "--partitions".to_owned(),
        "4".to_owned(),
        "--min-size".to_owned(),
        "5".to_owned(),
    ])
    .expect("cli index");

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            cache_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr());
    // grants.partner ⊆ registry.company: the server must surface the join.
    let quoted: Vec<String> = [
        "acme",
        "borealis",
        "canaduck",
        "delta",
        "evergreen",
        "falcon",
        "glacier",
        "harbour",
    ]
    .iter()
    .map(|v| format!("\"{v}\""))
    .collect();
    let (status, response) = client.post(
        "/query",
        &format!("{{\"values\": [{}], \"threshold\": 0.9}}", quoted.join(",")),
    );
    assert_eq!(status, 200, "{response}");
    let hits = response.get("hits").and_then(Json::as_array).expect("hits");
    let tables: Vec<&str> = hits
        .iter()
        .filter_map(|h| h.get("table").and_then(Json::as_str))
        .collect();
    assert!(
        tables.contains(&"registry"),
        "join not found over HTTP: {response}"
    );
    assert!(hits
        .iter()
        .all(|h| h.get("estimate").and_then(Json::as_f64).is_some()));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelining: many requests written before any response is read must be
/// answered strictly in request order on one connection — including when
/// slow uncached queries (compute-pool round trips) interleave with fast
/// inline endpoints, which is exactly the reordering hazard a
/// readiness-driven server has that a thread-per-connection server
/// doesn't.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let dir = scratch("pipeline");
    let index_path = dir.join("idx.lshe");
    let container = IndexContainer::build(&build_catalog(12), 4);
    std::fs::write(&index_path, container.to_bytes()).expect("write index");

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 2,
            cache_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr());

    // Interleave slow (uncached query: sketch + search on the pool) and
    // fast (inline /health) requests, 12 deep, all written up front.
    let mut sent: Vec<(&str, String)> = Vec::new();
    for k in 0..6 {
        sent.push(("query", query_body(k, 0.8)));
        sent.push(("health", String::new()));
    }
    for (kind, body) in &sent {
        match *kind {
            "query" => client.send("POST", "/query", Some(body)),
            _ => client.send("GET", "/health", None),
        }
    }
    // Responses come back in exactly the order the requests went out:
    // query k's answer (checked against the direct search path) in the
    // even slots, /health in the odd ones.
    for (i, (kind, _)) in sent.iter().enumerate() {
        let (status, body) = client.read_response();
        assert_eq!(status, 200, "slot {i}: {body}");
        let response = Json::parse(&body).expect("json");
        match *kind {
            "query" => {
                let mut got = hit_ids(&response);
                got.sort_unstable();
                assert_eq!(
                    got,
                    expected_ids(&container, i / 2, 0.8),
                    "slot {i}: wrong answer — pipelined responses reordered"
                );
            }
            _ => {
                assert_eq!(
                    response.get("status").and_then(Json::as_str),
                    Some("ok"),
                    "slot {i} should be /health: {response}"
                );
            }
        }
    }

    // The server observed the burst: pipeline depth high-water ≥ 2 and
    // the connection gauge is live.
    let (_, stats) = client.get("/stats");
    let srv = stats.get("server").expect("server stats object");
    assert!(
        srv.get("pipeline_depth_hwm")
            .and_then(Json::as_u64)
            .expect("hwm")
            >= 2,
        "{srv}"
    );
    assert!(
        srv.get("open_connections")
            .and_then(Json::as_u64)
            .expect("open")
            >= 1,
        "{srv}"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The 10k-connections-without-10k-threads claim, scaled to CI: ≥ 256
/// keep-alive connections held open SIMULTANEOUSLY (visible in the
/// server's own `open_connections` gauge), pushing mixed query / batch /
/// insert traffic with zero failed requests, followed by a commit and a
/// clean `/shutdown` drain.
#[test]
fn high_concurrency_keepalive_connections() {
    const CONNS: usize = 256;
    const QUERIES_PER_CONN: usize = 3;
    const WRITERS: usize = 16; // conns that also stage one insert
    const THRESHOLD: f64 = 0.8;

    let dir = scratch("highconc");
    let index_path = dir.join("idx.lshe");
    let container = IndexContainer::build(&build_catalog(12), 4);
    std::fs::write(&index_path, container.to_bytes()).expect("write index");

    let expected: Arc<Vec<Vec<u64>>> = Arc::new(
        (0..8)
            .map(|k| expected_ids(&container, k, THRESHOLD))
            .collect(),
    );
    let bodies: Arc<Vec<String>> = Arc::new((0..8).map(|k| query_body(k, THRESHOLD)).collect());

    let engine = Engine::load(&index_path, 1).expect("engine");
    let server = start(
        Arc::new(engine),
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads: 4,
            cache_capacity: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Two rendezvous points: after `connected` every client holds an
    // established, request-proven connection (so the gauge must read ≥
    // CONNS); `release` lets them proceed to traffic + disconnect.
    let connected = Arc::new(std::sync::Barrier::new(CONNS + 1));
    let release = Arc::new(std::sync::Barrier::new(CONNS + 1));

    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            let bodies = Arc::clone(&bodies);
            let expected = Arc::clone(&expected);
            let connected = Arc::clone(&connected);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                // Prove the connection is registered, not just SYN-acked.
                let (status, _) = client.request("GET", "/health", None);
                assert_eq!(status, 200, "conn {c} handshake");
                connected.wait();
                release.wait();
                // Mixed traffic on the held connection.
                for i in 0..QUERIES_PER_CONN {
                    let k = (c + i) % bodies.len();
                    let (status, body) = client.request("POST", "/query", Some(&bodies[k]));
                    assert_eq!(status, 200, "conn {c} query {i}: {body}");
                    let response = Json::parse(&body).expect("json");
                    let mut got = hit_ids(&response);
                    got.retain(|&id| id < 12); // writers' inserts may land
                    got.sort_unstable();
                    assert_eq!(got, expected[k], "conn {c} query {i} wrong hits");
                }
                let batch = format!(
                    "{{\"queries\": [{},{}]}}",
                    bodies[c % 8],
                    bodies[(c + 1) % 8]
                );
                let (status, body) = client.request("POST", "/batch", Some(&batch));
                assert_eq!(status, 200, "conn {c} batch: {body}");
                if c < WRITERS {
                    let values: Vec<String> = (0..25).map(|i| format!("\"hc{c}_{i}\"")).collect();
                    let insert = format!(
                        "{{\"values\": [{}], \"table\": \"hc{c}\", \"column\": \"c\"}}",
                        values.join(",")
                    );
                    let (status, body) = client.request("POST", "/insert", Some(&insert));
                    assert_eq!(status, 200, "conn {c} insert: {body}");
                }
            })
        })
        .collect();

    connected.wait();
    // All CONNS keep-alive connections are open right now — the server
    // must be holding them all (plus this admin one) without a
    // thread-per-connection.
    let mut admin = Client::connect(addr);
    let (_, stats) = admin.get("/stats");
    let open = stats
        .get("server")
        .and_then(|s| s.get("open_connections"))
        .and_then(Json::as_u64)
        .expect("open gauge");
    assert!(
        open >= CONNS as u64,
        "only {open} connections open while {CONNS} clients hold theirs"
    );
    release.wait();

    for (c, handle) in clients.into_iter().enumerate() {
        handle
            .join()
            .unwrap_or_else(|_| panic!("client {c} lost a request under load"));
    }

    // Zero lost, zero errored: every request is accounted for.
    let (status, body) = admin.request("POST", "/commit", None);
    assert_eq!(status, 200, "{body}");
    let (_, stats) = admin.get("/stats");
    let requests = stats.get("requests").expect("requests");
    assert_eq!(requests.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(
        requests.get("query").and_then(Json::as_u64),
        Some((CONNS * QUERIES_PER_CONN) as u64)
    );
    assert_eq!(
        requests.get("batch").and_then(Json::as_u64),
        Some(CONNS as u64)
    );
    assert_eq!(
        requests.get("insert").and_then(Json::as_u64),
        Some(WRITERS as u64)
    );
    assert_eq!(
        stats.get("domains").and_then(Json::as_u64),
        Some((12 + WRITERS) as u64),
        "committed inserts must all land"
    );
    assert!(
        stats
            .get("server")
            .and_then(|s| s.get("accepted_total"))
            .and_then(Json::as_u64)
            .expect("accepted")
            >= (CONNS + 1) as u64
    );

    // Clean drain: /shutdown answers 200, the reactor exits, and the
    // listener stops accepting.
    let (status, body) = admin.request("POST", "/shutdown", None);
    assert_eq!(status, 200, "{body}");
    server.join();
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err(),
        "listener still accepting after drain"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Each edge input has one outcome wherever JSON enters: `Json::parse`
/// and JSON-Lines ingest of `{"k": input}` (the parsed `k`; a skipped
/// line, or the bytes hashed for field `k`), and the status of a `/query`
/// body that embeds the input — as `threshold` when it is a number, as a
/// value when a string.
#[test]
fn json_edge_inputs_have_one_outcome_everywhere() {
    type Parsed = Option<(Option<f64>, Option<u64>)>;
    let table: [(&str, Parsed, Option<&[u8]>, u16); 10] = [
        ("01", None, None, 400),
        ("1.", None, None, 400),
        ("1.e5", None, None, 400),
        ("-01", None, None, 400),
        (r#""\u+041""#, None, None, 400),
        ("1e999", Some((None, None)), Some(b"1e999"), 400),
        // `{"k":1,"k":2}`: `get` reads the first value, ingest keeps the last.
        (r#"1,"k":2"#, Some((Some(1.0), Some(1))), Some(b"2"), 200),
        (
            "12345678901234567890",
            Some((Some(12_345_678_901_234_567_890.0), None)),
            Some(b"12345678901234567890"),
            400,
        ),
        ("1E+2", Some((Some(100.0), Some(100))), Some(b"1E+2"), 400),
        ("\"a\u{7f}b\"", Some((None, None)), Some(b"a\x7fb"), 200),
    ];
    let built = IndexContainer::build(&build_catalog(4), 2);
    let (engine, _dir) = lshe_serve::testkit::file_engine(&built, "serve_smoke");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 1,
        ..ServerConfig::default()
    };
    let server = start(Arc::new(engine), &config).expect("bind");
    let mut client = Client::connect(server.addr());
    for (text, parsed, hashed, status) in table {
        let line = format!("{{\"k\":{text}}}");
        let got = Json::parse(&line).ok().map(|v| {
            let k = v.get("k").expect("k");
            (k.as_f64(), k.as_u64())
        });
        assert_eq!(got, parsed, "Json::parse({line})");

        let mut catalog = Catalog::new();
        let (ids, skipped) = catalog.ingest_jsonl("t", line.as_bytes(), 1);
        match hashed {
            None => assert_eq!((ids.len(), skipped), (0, 1), "ingest of {line}"),
            Some(bytes) => {
                assert_eq!((ids.len(), skipped), (1, 0), "ingest of {line}");
                assert_eq!(catalog.domain(ids[0]), &Domain::from_bytes_values([bytes]));
            }
        }

        let body = if text.starts_with('"') {
            format!("{{\"values\":[{text}]}}")
        } else {
            let threshold = text.replace('k', "threshold");
            format!("{{\"values\":[\"a\"],\"threshold\":{threshold}}}")
        };
        let (got, reply) = client.request("POST", "/query", Some(&body));
        assert_eq!(got, status, "/query {body}: {reply}");
    }
    server.shutdown();
}
