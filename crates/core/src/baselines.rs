//! The two baselines of the paper's evaluation (§6.1), implemented under
//! the same "fair comparison" rules the paper applies:
//!
//! > "all the indexes including MinHash LSH and Asymmetric Minwise Hashing
//! > are implemented to use the dynamic LSH algorithm for containment
//! > search described in Section 5.5, and the upper bound of domain sizes
//! > is used to convert containment threshold to Jaccard similarity
//! > threshold as described in Section 5.1."
//!
//! * [`Unranked`] — an ensemble's raw candidate set (Algorithm 1), neither
//!   ranked nor pruned: the form the paper measures every index in.
//! * [`baseline_minhash_lsh`] — the *MinHash LSH baseline*: exactly an LSH
//!   Ensemble with a single partition (global upper bound, dynamic tuning).
//! * [`AsymIndex`] — *Asymmetric Minwise Hashing*: signatures padded to the
//!   corpus maximum `M`, one dynamic LSH, conversion through `M` (Eq. 31).
//!   The §6.1 ablation, Asym *inside each partition* (padding to the
//!   partition bound), is the same type built with `n` partitions; the
//!   baseline is its one-partition case.
//!
//! Each answers through the crate's one read path (the `pipeline`
//! module), as the fair-comparison rule asks.

use crate::api::{DomainIndex, Query, QueryError, SearchOutcome};
use crate::ensemble::{
    DeadSlot, EnsembleConfig, EnsemblePartition, LshEnsemble, LshEnsembleBuilder,
};
use crate::partition::{PartitionStrategy, Partitioning};
use crate::pipeline::{Probe, ReadPath, Tiers};
use crate::tuning::Tuner;
use lshe_asym::{pad_signature, PaddingSampler};
use lshe_lsh::{DomainId, LshForest, Row};
use lshe_minhash::hash::FastHashSet;
use lshe_minhash::Signature;

/// An ensemble's answers as the paper measures them (Algorithm 1): the
/// sorted candidate set of [`LshEnsemble::query_with_size`], with no
/// estimate, no rank and no prune. The ensemble's own [`DomainIndex`] impl
/// ranks and prunes; this view is how the §6.1 accuracy rows and the
/// candidate-recall tests read the raw set. Top-k is unsupported.
#[derive(Debug, Clone, Copy)]
pub struct Unranked<'a>(pub &'a LshEnsemble);

impl Unranked<'_> {
    fn read_path(&self) -> ReadPath<'_, &EnsemblePartition> {
        ReadPath {
            tiers: self.0.tiers(),
            ranked: false,
        }
    }
}

impl DomainIndex for Unranked<'_> {
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        self.read_path().search_batch(queries)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn mapped_bytes(&self) -> usize {
        self.0.mapped_bytes()
    }

    fn id_map_bytes(&self) -> usize {
        self.0.id_map_bytes()
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// Builds the paper's MinHash LSH baseline: a single-partition ensemble.
/// The only difference from a partitioned ensemble is that the threshold
/// conversion and tuning see the *global* maximum domain size.
#[must_use]
pub fn baseline_minhash_lsh(config: &EnsembleConfig) -> LshEnsembleBuilder {
    LshEnsemble::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::Single,
        ..*config
    })
}

/// Asymmetric Minwise Hashing (§6.1): each domain's signature is padded
/// to its partition's upper bound, and the *unpadded* query signature is
/// answered through the shared read path, so skip, tuning and threshold
/// conversion all use that bound (Eq. 31). With one partition — what
/// [`AsymIndexBuilder`] builds — the bound is the corpus maximum `M`: the
/// paper's Asym baseline. With `n` equi-depth partitions it is the ablation
/// §6.1 reports as giving "a slight improvement in precision" but "no
/// significant improvements in recall". Top-k is unsupported.
#[derive(Debug)]
pub struct AsymIndex {
    partitions: Vec<AsymPartition>,
    tuner: Tuner,
    num_perm: usize,
    len: usize,
    /// Always empty: an Asym index is never mutated.
    dead: FastHashSet<(DomainId, DeadSlot)>,
}

#[derive(Debug)]
struct AsymPartition {
    upper: u64,
    /// Padded rows: a probe's, never a sketch of the domain to rank by.
    forest: LshForest,
    /// The cardinality of each forest row.
    sizes: Vec<u64>,
}

impl Probe for &AsymPartition {
    fn upper(&self) -> u64 {
        self.upper
    }

    fn probe(
        &self,
        signature: &Signature,
        b: usize,
        r: usize,
        found: &mut impl FnMut(DomainId, usize),
    ) {
        self.forest.probe_into(signature, b, r, found);
    }

    fn sketch(&self, row: u32) -> (u64, Row<'_>) {
        let row = row as usize;
        (self.sizes[row], self.forest.row(row))
    }
}

/// Builder for the unpartitioned [`AsymIndex`].
#[derive(Debug)]
pub struct AsymIndexBuilder {
    config: EnsembleConfig,
    entries: Vec<(DomainId, u64, Signature)>,
}

impl AsymIndexBuilder {
    /// Creates a builder; `config.strategy` is ignored (Asym is unpartitioned).
    #[must_use]
    pub fn new(config: EnsembleConfig) -> Self {
        Self {
            config,
            entries: Vec::new(),
        }
    }

    /// Stages one domain.
    ///
    /// # Panics
    /// Panics if `size == 0` or signature width mismatches.
    pub fn add(&mut self, id: DomainId, size: u64, signature: Signature) {
        assert!(size > 0, "domain size must be positive");
        assert_eq!(
            signature.len(),
            self.config.num_perm,
            "signature width mismatch"
        );
        self.entries.push((id, size, signature));
    }

    /// Pads every signature to the corpus maximum and builds the index.
    ///
    /// # Panics
    /// Panics if the builder is empty.
    #[must_use]
    pub fn build(self) -> AsymIndex {
        AsymIndex::build(&self.config, 1, &self.entries)
    }
}

impl AsymIndex {
    /// A builder with the default ensemble configuration.
    #[must_use]
    pub fn builder() -> AsymIndexBuilder {
        AsymIndexBuilder::new(EnsembleConfig::default())
    }

    /// Builds from staged `(id, size, signature)` entries with `n`
    /// equi-depth partitions; each partition pads to its own upper bound.
    ///
    /// # Panics
    /// Panics if `entries` is empty, `n == 0`, or widths mismatch.
    #[must_use]
    pub fn build(
        config: &EnsembleConfig,
        n: usize,
        entries: &[(DomainId, u64, Signature)],
    ) -> Self {
        assert!(!entries.is_empty(), "cannot build an empty index");
        let sampler = PaddingSampler::with_seed(PaddingSampler::DEFAULT_SEED);
        let sizes: Vec<u64> = entries.iter().map(|&(_, s, _)| s).collect();
        let partitions = Partitioning::equi_depth(&sizes, n)
            .parts()
            .iter()
            .map(|p| {
                let mut forest = LshForest::new(config.b_max, config.r_max);
                let mut sizes = Vec::with_capacity(p.members.len());
                for &idx in &p.members {
                    let (id, size, ref sig) = entries[idx as usize];
                    let padded = pad_signature(sig, u64::from(id), size, p.upper, &sampler);
                    forest.insert(id, &padded);
                    sizes.push(size);
                }
                forest.commit();
                AsymPartition {
                    upper: p.upper,
                    forest,
                    sizes,
                }
            })
            .collect();
        Self {
            partitions,
            tuner: Tuner::new(config.b_max as u32, config.r_max as u32),
            num_perm: config.num_perm,
            len: entries.len(),
            dead: FastHashSet::default(),
        }
    }

    /// The padding target of the largest partition: the corpus maximum `M`.
    #[must_use]
    pub fn max_size(&self) -> u64 {
        self.partitions.iter().map(|p| p.upper).max().unwrap_or(0)
    }

    fn read_path(&self) -> ReadPath<'_, &AsymPartition> {
        let units = self.partitions.iter().map(|p| (DeadSlot::Base, p));
        ReadPath {
            tiers: Tiers {
                num_perm: self.num_perm,
                tuner: &self.tuner,
                units: units.collect(),
                dead: &self.dead,
            },
            ranked: false,
        }
    }
}

impl DomainIndex for AsymIndex {
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        self.read_path().search_batch(queries)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_bytes(&self) -> usize {
        let part = |p: &AsymPartition| p.forest.memory_bytes() + p.sizes.capacity() * 8;
        self.partitions.iter().map(part).sum()
    }

    fn describe(&self) -> String {
        match self.partitions.len() {
            1 => "Asym".to_owned(),
            n => format!("Asym + partitioning ({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;

    #[allow(clippy::type_complexity)]
    fn nested_entries(n: usize) -> (MinHasher, Vec<(DomainId, u64, Signature)>, Vec<Vec<u64>>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(7, 20 * n);
        let mut entries = Vec::new();
        let mut values = Vec::new();
        for k in 0..n {
            let vals: Vec<u64> = pool[..20 * (k + 1)].to_vec();
            entries.push((
                k as DomainId,
                vals.len() as u64,
                h.signature(vals.iter().copied()),
            ));
            values.push(vals);
        }
        (h, entries, values)
    }

    fn asym_ids(idx: &AsymIndex, sig: &Signature, size: u64, t_star: f64) -> Vec<DomainId> {
        let query = Query::threshold(sig, t_star).with_size(size);
        idx.search(&query).expect("valid query").ids()
    }

    #[test]
    fn baseline_is_single_partition() {
        let (_, entries, _) = nested_entries(20);
        let mut b = baseline_minhash_lsh(&EnsembleConfig::default());
        for (id, size, sig) in &entries {
            b.add(*id, *size, sig.clone());
        }
        let idx = b.build();
        assert_eq!(idx.num_partitions(), 1);
        assert_eq!(idx.describe(), "MinHash LSH (baseline)");
    }

    #[test]
    fn asym_finds_contained_domain_at_low_skew() {
        // Low skew (sizes 20..100): padding is light, recall should hold.
        let (h, _, _) = nested_entries(1);
        let pool = MinHasher::synthetic_values(9, 100);
        let mut b = AsymIndex::builder();
        for k in 0..5u32 {
            let vals: Vec<u64> = pool[..20 * (k as usize + 1)].to_vec();
            b.add(k, vals.len() as u64, h.signature(vals.iter().copied()));
        }
        let idx = b.build();
        assert_eq!(idx.max_size(), 100);
        // Query = first 20 values: contained in all five domains.
        let q = h.signature(pool[..20].iter().copied());
        let got = asym_ids(&idx, &q, 20, 0.5);
        assert!(got.contains(&0), "got {got:?}");
        assert!(got.len() >= 3, "low-skew recall too low: {got:?}");
    }

    #[test]
    fn asym_recall_collapses_at_high_skew() {
        // One giant domain forces heavy padding on everything else;
        // perfectly-contained small domains stop being candidates at high
        // thresholds (the appendix's Figure 10 effect).
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(11, 60_000);
        let mut b = AsymIndex::builder();
        // 30 small domains of 40 values each, all containing the query.
        let query_vals: Vec<u64> = pool[..40].to_vec();
        for k in 0..30u32 {
            let mut vals = query_vals.clone();
            vals.extend(pool[40 + 40 * k as usize..40 + 40 * (k as usize + 1)].iter());
            b.add(k, vals.len() as u64, h.signature(vals.iter().copied()));
        }
        // The skew maker.
        b.add(999, 60_000, h.signature(pool.iter().copied()));
        let idx = b.build();
        let q = h.signature(query_vals.iter().copied());
        let got = asym_ids(&idx, &q, 40, 0.9);
        // t(Q, X_k) = 40/40... wait: every X_k fully contains Q, so all 30
        // qualify; padded similarity is 40/60000 ≈ 0.0007 → recall ~ 0.
        assert!(
            got.len() <= 3,
            "expected near-total recall collapse, got {} hits",
            got.len()
        );
    }

    #[test]
    fn asym_partitioned_recovers_some_recall() {
        // Same corpus as the collapse test; partitioning pads only to each
        // partition's bound, so the small domains' padding is light again.
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(11, 60_000);
        let mut entries = Vec::new();
        let query_vals: Vec<u64> = pool[..40].to_vec();
        for k in 0..30u32 {
            let mut vals = query_vals.clone();
            vals.extend(pool[40 + 40 * k as usize..40 + 40 * (k as usize + 1)].iter());
            entries.push((k, vals.len() as u64, h.signature(vals.iter().copied())));
        }
        entries.push((999, 60_000, h.signature(pool.iter().copied())));
        let idx = AsymIndex::build(&EnsembleConfig::default(), 8, &entries);
        let q = h.signature(query_vals.iter().copied());
        let got = asym_ids(&idx, &q, 40, 0.9);
        // The contrast with `asym_recall_collapses_at_high_skew` (≤ 3 hits)
        // is the point: per-partition padding restores a solid majority of
        // the 30 qualifying domains even though per-domain recall stays
        // probabilistic.
        assert!(
            got.len() >= 15,
            "partitioned Asym should keep recall here, got {}",
            got.len()
        );
    }

    #[test]
    fn labels_are_distinct() {
        let (_, entries, _) = nested_entries(10);
        let mut ab = AsymIndex::builder();
        for (id, size, sig) in &entries {
            ab.add(*id, *size, sig.clone());
        }
        let asym = ab.build();
        let part = AsymIndex::build(&EnsembleConfig::default(), 4, &entries);
        assert_eq!(asym.describe(), "Asym");
        assert!(part.describe().starts_with("Asym + partitioning"));
    }

    #[test]
    #[should_panic(expected = "cannot build an empty index")]
    fn empty_asym_rejected() {
        let _ = AsymIndex::builder().build();
    }
}
