//! Internet-scale search in miniature: a WDC-Web-Tables-like corpus of
//! 100,000 synthetic domains in one index, with timed containment queries.
//! The paper's cluster deployment (§6.3) splits such an index across nodes:
//! `lshe split` writes one `.lshe` per shard and `lshe cluster` fans each
//! query out to the shard servers and unions their answers.
//!
//! Run with:
//! `cargo run --release -p lshe --example web_tables_at_scale -- [domains]`

use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query};
use lshe_datagen::{generate_catalog, sample_queries, CorpusConfig, SizeBand};
use lshe_minhash::MinHasher;
use std::time::Instant;

fn main() {
    let num_domains: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("domain count"))
        .unwrap_or(100_000);

    // 1. Generate the corpus (power-law sizes 1..2^14, clustered overlap).
    let started = Instant::now();
    let catalog = generate_catalog(&CorpusConfig::wdc_web_tables_like(num_domains));
    println!(
        "generated {} domains ({} values) in {:.1}s",
        catalog.len(),
        catalog.total_values(),
        started.elapsed().as_secs_f64()
    );

    // 2. Sketch everything (m = 256) and bulk-load 32 partitions.
    let hasher = MinHasher::new(256);
    let started = Instant::now();
    let signatures: Vec<_> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    println!("sketched in {:.1}s", started.elapsed().as_secs_f64());

    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let sig_refs: Vec<&lshe_minhash::Signature> = signatures.iter().collect();
    let started = Instant::now();
    let index = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 32 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &sig_refs,
    );
    println!(
        "indexed {} partitions in {:.1}s",
        index.num_partitions(),
        started.elapsed().as_secs_f64()
    );

    // 3. Run a query workload at t* = 0.5 and report latency.
    let queries = sample_queries(&catalog, 200, SizeBand::All, 7);
    let started = Instant::now();
    let search = |q: u32, t_star: f64| {
        let query = Query::threshold(&signatures[q as usize], t_star)
            .with_size(catalog.domain(q).len() as u64);
        index.search(&query).expect("valid query").hits
    };
    let mut total_candidates = 0usize;
    for &q in &queries {
        total_candidates += search(q, 0.5).len();
    }
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "\n{} queries at t* = 0.5: mean latency {:.2} ms, mean candidates {:.1}",
        queries.len(),
        1000.0 * elapsed / queries.len() as f64,
        total_candidates as f64 / queries.len() as f64
    );

    // 4. Every query must at least find itself (exact duplicate).
    let self_found = queries
        .iter()
        .filter(|&&q| search(q, 0.9).iter().any(|hit| hit.id == q))
        .count();
    println!(
        "self-match check at t* = 0.9: {}/{} queries found themselves",
        self_found,
        queries.len()
    );
    assert_eq!(
        self_found,
        queries.len(),
        "exact matches must never be lost"
    );
}
