//! Serving walkthrough: build a small ranked index, save it, boot the
//! `lshe-serve` HTTP server over the file on an ephemeral port, and talk
//! to it over real TCP — one query twice (the second is a cache hit), a
//! top-k query, and a batch — then shut down gracefully.
//!
//! Run with:
//! ```text
//! cargo run --release -p lshe --example serve_and_query
//! ```
//!
//! In production you would persist the index with `lshe index` and serve
//! it with `lshe serve --index tables.lshe`; this example does both steps
//! in-process, in a temporary directory, so it runs with no setup.

use lshe::corpus::json::Json;
use lshe::corpus::{Catalog, Domain, DomainMeta};
use lshe::serve::client::HttpClient;
use lshe::serve::engine::Engine;
use lshe::serve::server::{start, ServerConfig};
use lshe::IndexContainer;
use std::sync::Arc;

fn main() {
    // A toy open-data catalog: each "column" holds city names; later tables
    // extend earlier ones, so containment search finds the supersets.
    let cities = [
        "amsterdam",
        "bergen",
        "cork",
        "dresden",
        "espoo",
        "florence",
        "ghent",
        "helsinki",
        "innsbruck",
        "jena",
        "krakow",
        "lyon",
        "malmo",
        "nantes",
        "oslo",
        "porto",
        "quimper",
        "riga",
        "sevilla",
        "tartu",
        "uppsala",
        "vienna",
        "warsaw",
        "york",
        "zagreb",
    ];
    let mut catalog = Catalog::new();
    for k in 0..6 {
        let n = 10 + 3 * k;
        catalog.push(
            Domain::from_strs(cities[..n].iter().copied()),
            DomainMeta::new(format!("cities_{k}"), "name"),
        );
    }
    let container = IndexContainer::build(&catalog, 4);
    println!("indexed {} domains", container.len());
    let dir = std::env::temp_dir().join(format!("lshe_serve_and_query_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("cities.lshe");
    container.save(&path).expect("save");

    // Boot the server over the file: snapshot engine, 2 workers, a
    // 64-entry query cache.
    let engine = Engine::load(&path, 1).expect("load");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        cache_capacity: 64,
        ..ServerConfig::default()
    };
    let server = start(Arc::new(engine), &config).expect("bind");
    let addr = server.addr();
    println!("serving on http://{addr}");
    let mut client = HttpClient::connect(addr);

    let (_, health) = client.get("/health");
    println!("health: {health}");

    // Query: the first 10 cities — contained in every table.
    let values: Vec<String> = cities[..10].iter().map(|c| format!("\"{c}\"")).collect();
    let query = format!("{{\"values\": [{}], \"threshold\": 0.9}}", values.join(","));
    let (_, first) = client.post("/query", &query);
    println!(
        "query: {} hit(s), cached={}",
        first.get("count").and_then(Json::as_u64).expect("count"),
        first.get("cached").and_then(Json::as_bool).expect("cached"),
    );
    let (_, second) = client.post("/query", &query);
    println!(
        "query again: cached={}",
        second
            .get("cached")
            .and_then(Json::as_bool)
            .expect("cached"),
    );

    // Top-3 by estimated containment.
    let (_, topk) = client.post(
        "/topk",
        &format!("{{\"values\": [{}], \"k\": 3}}", values.join(",")),
    );
    for hit in topk.get("hits").and_then(Json::as_array).expect("hits") {
        println!(
            "  top-k: {}.{} (t̂ = {:.2})",
            hit.get("table").and_then(Json::as_str).expect("table"),
            hit.get("column").and_then(Json::as_str).expect("column"),
            hit.get("estimate")
                .and_then(Json::as_f64)
                .expect("estimate"),
        );
    }

    // A batch of three queries answered in one request.
    let (_, batch) = client.post(
        "/batch",
        &format!(
            "{{\"queries\": [{q}, {q}, {{\"values\": [\"oslo\", \"porto\", \"riga\"], \"threshold\": 0.5}}]}}",
            q = query
        ),
    );
    println!(
        "batch: {} result(s) in {} µs",
        batch.get("count").and_then(Json::as_u64).expect("count"),
        batch
            .get("batch_time_us")
            .and_then(Json::as_u64)
            .expect("time"),
    );

    let (_, stats) = client.get("/stats");
    let cache = stats.get("cache").expect("cache");
    println!(
        "cache: {} hit(s), {} miss(es)",
        cache.get("hits").and_then(Json::as_u64).expect("hits"),
        cache.get("misses").and_then(Json::as_u64).expect("misses"),
    );

    server.shutdown();
    println!("server stopped");
    std::fs::remove_dir_all(&dir).expect("remove the index");
}
