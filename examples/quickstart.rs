//! Quickstart: index a handful of domains and run a containment search.
//!
//! This is the paper's §2 running example — the query `{Ontario, Toronto}`
//! against a `Provinces` domain and a `Locations` domain — showing why
//! set containment, not Jaccard similarity, is the right relevance measure
//! for domain search, and how the LSH Ensemble answers it.
//!
//! Run with: `cargo run --release -p lshe --example quickstart`

use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query};
use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_minhash::MinHasher;

fn main() {
    // 1. A tiny corpus: two domains from the paper plus filler so the
    //    index has something to partition.
    let mut catalog = Catalog::new();
    let provinces = Domain::from_strs(["Alberta", "Ontario", "Manitoba"]);
    let locations = Domain::from_strs([
        "Illinois",
        "Chicago",
        "New York City",
        "New York",
        "Nova Scotia",
        "Halifax",
        "California",
        "San Francisco",
        "Seattle",
        "Washington",
        "Ontario",
        "Toronto",
    ]);
    let provinces_id = catalog.push(provinces, DomainMeta::new("geo.csv", "province"));
    let locations_id = catalog.push(locations, DomainMeta::new("offices.csv", "location"));
    for i in 0..30 {
        let filler = Domain::from_hashes((1000 * (i + 1)..1000 * (i + 1) + 20 + i).collect());
        catalog.push(filler, DomainMeta::new(format!("filler{i}.csv"), "col"));
    }

    // 2. Sketch every domain and build a ranked ensemble (retained
    //    sketches buy containment estimates and top-k), then hold it
    //    behind the unified `DomainIndex` surface — the same trait the
    //    CLI, the HTTP server, and the benches dispatch through.
    let hasher = MinHasher::new(256);
    let mut builder = LshEnsemble::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 4 },
        ..EnsembleConfig::default()
    });
    for (id, domain) in catalog.iter() {
        builder.add(id, domain.len() as u64, domain.signature(&hasher));
    }
    let index: Box<dyn DomainIndex> = Box::new(builder.build());
    println!(
        "indexed {} domains ({}, ~{} KiB)",
        index.len(),
        index.describe(),
        index.memory_bytes() / 1024
    );

    // 3. The paper's §2 point, on exact scores: Q = {Ontario, Toronto}.
    //    Jaccard prefers the *small* Provinces domain; containment
    //    correctly ranks Locations (which holds all of Q) first.
    let paper_q = Domain::from_strs(["Ontario", "Toronto"]);
    println!("\nexact scores (the paper's §2 example):");
    println!(
        "  t(Q, Provinces) = {:.2}   s(Q, Provinces) = {:.3}",
        paper_q.containment_in(catalog.domain(provinces_id)),
        paper_q.jaccard(catalog.domain(provinces_id)),
    );
    println!(
        "  t(Q, Locations) = {:.2}   s(Q, Locations) = {:.3}",
        paper_q.containment_in(catalog.domain(locations_id)),
        paper_q.jaccard(catalog.domain(locations_id)),
    );

    // 4. Containment search with a realistic query: eight office cities,
    //    all contained in the Locations column. (MinHash sketches need a
    //    handful of values to resolve containment — a 2-value query is
    //    below the sketch's resolution, which is why real workloads query
    //    with whole columns.)
    let query = Domain::from_strs([
        "Ontario",
        "Toronto",
        "Halifax",
        "Nova Scotia",
        "Seattle",
        "Washington",
        "Chicago",
        "Illinois",
    ]);
    let sig = query.signature(&hasher);
    let outcome = index
        .search(&Query::threshold(&sig, 0.8).with_size(query.len() as u64))
        .expect("valid query");
    println!("\ncontainment search (8 office cities) at t* = 0.8:");
    for hit in &outcome.hits {
        let meta = catalog.meta(hit.id);
        let t = query.containment_in(catalog.domain(hit.id));
        println!(
            "  {}.{} (t = {t:.2}, t̂ = {:.2})",
            meta.table,
            meta.column,
            hit.estimate.unwrap_or(f64::NAN)
        );
    }
    let stats = outcome.stats;
    println!(
        "probed {}/{} partitions, {} candidates → {} survivors in {} µs",
        stats.partitions_probed,
        stats.partitions_total,
        stats.candidates,
        stats.survivors,
        stats.wall_micros
    );
    assert!(
        outcome.hits.iter().any(|h| h.id == locations_id),
        "Locations must be found"
    );

    // 5. Top-k through the very same surface: the two best containers.
    let top = index
        .search(&Query::top_k(&sig, 2).with_size(query.len() as u64))
        .expect("valid query");
    println!("\ntop-2 by estimated containment:");
    for hit in &top.hits {
        let meta = catalog.meta(hit.id);
        println!(
            "  t̂ = {:.2}  {}.{}",
            hit.estimate.unwrap_or(f64::NAN),
            meta.table,
            meta.column
        );
    }
    println!("\nok: the joinable column was found.");
}
