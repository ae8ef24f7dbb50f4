//! The sharded (cluster-simulation) deployment must answer like a single
//! ensemble: the union of per-shard candidate sets, sorted and unique, with
//! no domain lost to shard assignment.

use lshe_core::{
    DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, ShardedEnsemble,
};
use lshe_datagen::{generate_catalog, sample_queries, CorpusConfig, SizeBand};
use lshe_minhash::{MinHasher, Signature};

fn world() -> (Vec<u32>, Vec<u64>, Vec<Signature>, Vec<u32>) {
    let catalog = generate_catalog(&CorpusConfig::tiny(2_000, 31));
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let queries = sample_queries(&catalog, 50, SizeBand::All, 9);
    (ids, sizes, signatures, queries)
}

/// The fan-out's answer to one sized threshold query, as sorted ids.
fn fan_out(sharded: &ShardedEnsemble, signature: &Signature, size: u64, t_star: f64) -> Vec<u32> {
    let query = Query::threshold(signature, t_star).with_size(size);
    sharded.search(&query).expect("valid query").ids()
}

fn config() -> EnsembleConfig {
    EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 8 },
        ..EnsembleConfig::default()
    }
}

#[test]
fn sharded_union_equals_shard_by_shard_queries() {
    let (ids, sizes, signatures, queries) = world();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let sharded = ShardedEnsemble::build_from_parts(5, config(), &ids, &sizes, &refs);
    assert_eq!(sharded.num_shards(), 5);
    assert_eq!(sharded.len(), ids.len());

    for &q in queries.iter().take(20) {
        let combined = fan_out(&sharded, &signatures[q as usize], sizes[q as usize], 0.5);
        let mut manual: Vec<u32> = sharded
            .shards()
            .iter()
            .flat_map(|s| s.query_with_size(&signatures[q as usize], sizes[q as usize], 0.5))
            .collect();
        manual.sort_unstable();
        manual.dedup();
        assert_eq!(combined, manual, "query {q}");
    }
}

#[test]
fn no_domain_lost_to_sharding() {
    let (ids, sizes, signatures, _) = world();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let sharded = ShardedEnsemble::build_from_parts(7, config(), &ids, &sizes, &refs);
    // Every domain must find itself at t* = 1.0 regardless of its shard.
    for &id in ids.iter().step_by(37) {
        let hits = fan_out(&sharded, &signatures[id as usize], sizes[id as usize], 1.0);
        assert!(hits.contains(&id), "domain {id} lost");
    }
}

#[test]
fn sharded_recall_matches_single_index() {
    let (ids, sizes, signatures, queries) = world();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let sharded = ShardedEnsemble::build_from_parts(5, config(), &ids, &sizes, &refs);
    let single = LshEnsemble::build_from_parts(config(), &ids, &sizes, &refs);

    // Shard-local partition bounds differ from global ones, so candidate
    // sets may differ slightly — but aggregate result sizes must be close.
    let (mut total_sharded, mut total_single) = (0usize, 0usize);
    for &q in &queries {
        total_sharded += fan_out(&sharded, &signatures[q as usize], sizes[q as usize], 0.5).len();
        total_single += single
            .query_with_size(&signatures[q as usize], sizes[q as usize], 0.5)
            .len();
    }
    let ratio = total_sharded as f64 / total_single.max(1) as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "sharded/single candidate ratio out of band: {ratio} ({total_sharded}/{total_single})"
    );
}

#[test]
fn single_shard_is_identical_to_unsharded() {
    let (ids, sizes, signatures, queries) = world();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let sharded = ShardedEnsemble::build_from_parts(1, config(), &ids, &sizes, &refs);
    let single = LshEnsemble::build_from_parts(config(), &ids, &sizes, &refs);
    for &q in queries.iter().take(10) {
        for t in [0.3, 0.7, 1.0] {
            assert_eq!(
                fan_out(&sharded, &signatures[q as usize], sizes[q as usize], t),
                single.query_with_size(&signatures[q as usize], sizes[q as usize], t),
                "query {q} at t = {t}"
            );
        }
    }
}
