//! Data-parallel sharding — the in-process stand-in for the paper's 5-node
//! cluster deployment (§6.3).
//!
//! The paper splits the 262M-domain corpus into equal chunks, builds an
//! independent LSH Ensemble per node, fans a query out to all nodes, and
//! unions the answers. [`ShardedEnsemble`] reproduces that topology: the
//! exact same partition → shard → union code path, minus the network.
//! Like the paper's per-node indexes it is built once and only read — a
//! server rebuilds it over each new snapshot of the mutable container.

use crate::api::{DomainIndex, Query, QueryError, SearchOutcome};
use crate::ensemble::{EnsembleConfig, EnsemblePartition, LshEnsemble, LshEnsembleBuilder};
use crate::pipeline::{Fanout, ReadPath};
use lshe_lsh::{DomainId, RowLanes};
use lshe_minhash::{lanes, Signature};

/// A set of independently built LSH Ensembles queried in parallel.
#[derive(Debug, Clone)]
pub struct ShardedEnsemble {
    shards: Vec<LshEnsemble>,
}

/// Builder assigning staged domains round-robin across `k` shards (the
/// paper's "divided the domains into 5 equal chunks").
#[derive(Debug)]
pub struct ShardedEnsembleBuilder {
    builders: Vec<LshEnsembleBuilder>,
    next: usize,
}

impl ShardedEnsembleBuilder {
    /// Creates a builder with `num_shards` shards sharing one configuration.
    ///
    /// # Panics
    /// Panics if `num_shards == 0` or the configuration is invalid.
    #[must_use]
    pub fn new(num_shards: usize, config: EnsembleConfig) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            builders: (0..num_shards)
                .map(|_| LshEnsembleBuilder::new(config))
                .collect(),
            next: 0,
        }
    }

    /// Stages a domain on the next shard (round-robin).
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        self.builders[self.next].add(id, size, signature);
        self.next = (self.next + 1) % self.builders.len();
    }

    /// Total staged domains across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.builders.iter().map(LshEnsembleBuilder::len).sum()
    }

    /// True if nothing is staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the shards on budget-governed lanes.
    ///
    /// # Panics
    /// Panics if any shard received no domains (add more domains or fewer
    /// shards).
    #[must_use]
    pub fn build(self) -> ShardedEnsemble {
        ShardedEnsemble {
            shards: lanes::run_each(&self.builders, LshEnsembleBuilder::build_borrowed),
        }
    }
}

impl ShardedEnsemble {
    /// A builder with `num_shards` shards and the given configuration.
    #[must_use]
    pub fn builder(num_shards: usize, config: EnsembleConfig) -> ShardedEnsembleBuilder {
        ShardedEnsembleBuilder::new(num_shards, config)
    }

    /// Zero-copy bulk load: round-robins the parallel arrays across
    /// `num_shards` shards and builds them on budget-governed lanes,
    /// without cloning any signature (the cluster-scale path).
    ///
    /// # Panics
    /// Panics if `num_shards == 0`, fewer domains than shards are supplied,
    /// or the array lengths differ.
    #[must_use]
    pub fn build_from_parts<S: RowLanes + Copy + Sync>(
        num_shards: usize,
        config: EnsembleConfig,
        ids: &[DomainId],
        sizes: &[u64],
        signatures: &[S],
    ) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            ids.len() >= num_shards,
            "need at least one domain per shard"
        );
        assert!(
            ids.len() == sizes.len() && ids.len() == signatures.len(),
            "parallel arrays must have equal lengths"
        );
        fn stride<T: Copy>(all: &[T], shard: usize, num_shards: usize) -> Vec<T> {
            all.iter()
                .skip(shard)
                .step_by(num_shards)
                .copied()
                .collect()
        }
        let shard_numbers: Vec<usize> = (0..num_shards).collect();
        let shards = lanes::run_each(&shard_numbers, |&shard| {
            LshEnsemble::build_from_parts(
                config,
                &stride(ids, shard, num_shards),
                &stride(sizes, shard, num_shards),
                &stride(signatures, shard, num_shards),
            )
        });
        Self { shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(LshEnsemble::len).sum()
    }

    /// True if nothing is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shards (for inspection).
    #[must_use]
    pub fn shards(&self) -> &[LshEnsemble] {
        &self.shards
    }

    /// Approximate heap memory across all shards, in bytes.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(LshEnsemble::memory_bytes).sum()
    }

    /// The shards as the shared read path's candidate source: every shard
    /// sweeps the query, the answers are unioned —
    /// `Partitioned-Containment-Search` at cluster granularity.
    pub(crate) fn fanout(&self) -> Fanout<'_, &EnsemblePartition> {
        Fanout(self.shards.iter().map(LshEnsemble::tiers).collect())
    }

    fn read_path(&self) -> ReadPath<'_, Fanout<'_, &EnsemblePartition>, ()> {
        ReadPath {
            source: self.fanout(),
            sketches: None,
        }
    }
}

impl DomainIndex for ShardedEnsemble {
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        self.read_path().search(query)
    }

    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        self.read_path().search_batch(queries)
    }

    fn len(&self) -> usize {
        ShardedEnsemble::len(self)
    }

    fn memory_bytes(&self) -> usize {
        ShardedEnsemble::memory_bytes(self)
    }

    fn id_map_bytes(&self) -> usize {
        self.shards.iter().map(LshEnsemble::id_map_bytes).sum()
    }

    fn describe(&self) -> String {
        format!("Sharded LSH Ensemble ({} shards)", self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionStrategy;
    use lshe_minhash::MinHasher;

    #[allow(clippy::type_complexity)]
    fn entries(n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature, Vec<u64>)>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(3, 10 * n);
        let out = (0..n)
            .map(|k| {
                let vals: Vec<u64> = pool[..10 * (k + 1)].to_vec();
                let sig = h.signature(vals.iter().copied());
                (k as DomainId, vals.len() as u64, sig, vals)
            })
            .collect();
        (h, out)
    }

    fn config() -> EnsembleConfig {
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn sharded_matches_unsharded() {
        let (_, es) = entries(60);
        let mut sharded = ShardedEnsemble::builder(5, config());
        let mut single = crate::ensemble::LshEnsemble::builder_with(config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
            single.add(*id, *size, sig.clone());
        }
        let sharded = sharded.build();
        let single = single.build();
        assert_eq!(sharded.num_shards(), 5);
        assert_eq!(sharded.len(), single.len());
        for k in [0usize, 15, 42, 59] {
            let (_, size, sig, _) = &es[k];
            for t in [0.3, 0.8, 1.0] {
                let query = Query::threshold(sig, t).with_size(*size);
                let a = sharded.search(&query).expect("search").ids();
                let b = single.query_with_size(sig, *size, t);
                // Same algorithm, but shard-local partitioning differs from
                // global partitioning, so upper bounds — and therefore
                // tuning — can differ slightly. Exact matches must always
                // be found by both; and both candidate sets must contain
                // the query's own id.
                assert!(a.contains(&(k as DomainId)), "sharded missed self at t={t}");
                assert!(b.contains(&(k as DomainId)), "single missed self at t={t}");
            }
        }
    }

    #[test]
    fn merge_produces_sorted_unique_ids() {
        let (_, es) = entries(40);
        let mut sharded = ShardedEnsemble::builder(3, config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
        }
        let sharded = sharded.build();
        let (_, size, sig, _) = &es[10];
        let query = Query::threshold(sig, 0.5).with_size(*size);
        let got = sharded.search(&query).expect("search").ids();
        for w in got.windows(2) {
            assert!(w[0] < w[1], "not sorted/unique: {got:?}");
        }
    }

    #[test]
    fn round_robin_balances_shards() {
        let (_, es) = entries(50);
        let mut sharded = ShardedEnsemble::builder(5, config());
        for (id, size, sig, _) in &es {
            sharded.add(*id, *size, sig.clone());
        }
        let built = sharded.build();
        for s in built.shards() {
            assert_eq!(s.len(), 10);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEnsemble::builder(0, config());
    }
}
