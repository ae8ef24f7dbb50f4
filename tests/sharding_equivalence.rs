//! The §6.3 deployment must answer like a single index: the containers
//! `split_with` writes for `lshe split`, queried here in-process and their
//! answers unioned (what `lshe cluster` does over the wire), lose no domain
//! to shard assignment and keep the unsplit index's recall.

use lshe::cluster::shard_of;
use lshe::serve::container::IndexContainer;
use lshe::{Catalog, Query};
use lshe_datagen::{generate_catalog, sample_queries, CorpusConfig, SizeBand};
use lshe_minhash::{MinHasher, Signature};

const PARTITIONS: usize = 8;

fn world() -> (Catalog, IndexContainer) {
    let catalog = generate_catalog(&CorpusConfig::tiny(2_000, 31));
    let container = IndexContainer::build(&catalog, PARTITIONS);
    (catalog, container)
}

/// The query signature and size of catalog domain `id`.
fn query_of(catalog: &Catalog, id: u32) -> (Signature, u64) {
    let domain = catalog.domain(id);
    (domain.signature(&MinHasher::new(256)), domain.len() as u64)
}

/// One index's answer ids at threshold `t_star`.
fn search(index: &IndexContainer, sig: &Signature, size: u64, t_star: f64) -> Vec<u32> {
    let query = Query::threshold(sig, t_star).with_size(size);
    index
        .open_index()
        .search(&query)
        .expect("valid query")
        .ids()
}

/// The union of every shard's answer ids, sorted.
fn fan_out(shards: &[IndexContainer], sig: &Signature, size: u64, t_star: f64) -> Vec<u32> {
    let mut ids: Vec<u32> = shards
        .iter()
        .flat_map(|shard| search(shard, sig, size, t_star))
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn no_domain_lost_to_sharding() {
    let (catalog, container) = world();
    let shards = container.split_with(7, shard_of).expect("split");
    assert_eq!(
        shards.iter().map(IndexContainer::len).sum::<usize>(),
        catalog.len()
    );
    // Every domain must find itself at t* = 1.0 regardless of its shard.
    for id in (0..catalog.len() as u32).step_by(37) {
        let (sig, size) = query_of(&catalog, id);
        assert!(
            fan_out(&shards, &sig, size, 1.0).contains(&id),
            "domain {id} lost"
        );
    }
}

#[test]
fn sharded_recall_matches_single_index() {
    let (catalog, container) = world();
    let shards = container.split_with(5, shard_of).expect("split");

    // Shard-local partition bounds differ from global ones, so candidate
    // sets may differ slightly — but aggregate result sizes must be close.
    let (mut total_sharded, mut total_single) = (0usize, 0usize);
    for q in sample_queries(&catalog, 50, SizeBand::All, 9) {
        let (sig, size) = query_of(&catalog, q);
        total_sharded += fan_out(&shards, &sig, size, 0.5).len();
        total_single += search(&container, &sig, size, 0.5).len();
    }
    let ratio = total_sharded as f64 / total_single.max(1) as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "sharded/single hit ratio out of band: {ratio} ({total_sharded}/{total_single})"
    );
}
