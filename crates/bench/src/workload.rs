//! Shared experiment machinery: signature pipelines, index construction,
//! ground truth, and accuracy sweeps.
//!
//! Every experiment binary is a thin `main` over these helpers, so the
//! corpus handling, threading, and metric conventions are identical across
//! figures.

use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query};
use lshe_corpus::{Catalog, DomainId, ExactIndex};
use lshe_datagen::{aggregate, query_accuracy, WorkloadAccuracy};
use lshe_minhash::{MinHasher, Signature};
use std::time::Instant;

/// Computes MinHash signatures for every domain of the catalog, in id
/// order, through the bulk sketching path.
#[must_use]
pub fn compute_signatures(catalog: &Catalog, hasher: &MinHasher) -> Vec<Signature> {
    let sets: Vec<&[u64]> = catalog.iter().map(|(_, d)| d.hashes()).collect();
    hasher.bulk_signatures(&sets)
}

/// Builds an [`LshEnsemble`] over the whole catalog with the given strategy
/// (zero-copy: signatures are borrowed, not cloned).
#[must_use]
pub fn build_ensemble(
    catalog: &Catalog,
    signatures: &[Signature],
    strategy: PartitionStrategy,
) -> LshEnsemble {
    let ids: Vec<DomainId> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let sig_refs: Vec<&Signature> = signatures.iter().collect();
    LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy,
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &sig_refs,
    )
}

/// Ground truth for one query across a set of thresholds: `truth[k]` is the
/// sorted answer set at `thresholds[k]` (Eq. 2).
fn ground_truth_sets(
    exact: &ExactIndex,
    catalog: &Catalog,
    query: DomainId,
    thresholds: &[f64],
) -> Vec<Vec<DomainId>> {
    let scores = exact.scores(catalog.domain(query));
    thresholds
        .iter()
        .map(|&t| {
            let mut ids: Vec<DomainId> = scores
                .iter()
                .take_while(|&&(_, s)| s >= t)
                .map(|&(id, _)| id)
                .collect();
            ids.sort_unstable();
            ids
        })
        .collect()
}

/// Containment thresholds 0.1 to 0.9 in steps of 0.1 (§6.1). Each point is
/// `i / 10`, the correctly rounded decimal: `i × 0.1` lands one ulp above
/// 0.3, 0.6 and 0.7 and so drops a domain at exactly that containment from
/// the truth.
#[must_use]
pub fn threshold_grid() -> Vec<f64> {
    (1..=9).map(|i| f64::from(i) / 10.0).collect()
}

/// One index's accuracy at one threshold over a query workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Over every answer and every true answer.
    pub overall: WorkloadAccuracy,
    /// Mean recall over the true answers among the largest 1 % of the
    /// indexed domains, over the queries that have any (1.0 when none has).
    pub tail_recall: f64,
}

/// Marks, by id, the largest 1 % of the catalog's domains (at least one).
fn tail_domains(catalog: &Catalog) -> Vec<bool> {
    let mut by_size: Vec<(usize, DomainId)> = catalog.iter().map(|(id, d)| (d.len(), id)).collect();
    by_size.sort_unstable();
    let mut tail = vec![false; catalog.len()];
    for &(_, id) in &by_size[by_size.len() - (by_size.len() / 100).max(1)..] {
        tail[id as usize] = true;
    }
    tail
}

/// Accuracy of several indexes over one query workload at several
/// thresholds: `sweep[j][k]` is `indexes[j]` at `thresholds[k]`.
///
/// Each query states its exact size when `exact_size`, and otherwise
/// leaves the index to estimate it from the signature (§5.1). Queries run
/// across the process's budgeted worker lanes; ground truth is computed
/// once per query and reused across indexes and thresholds.
#[must_use]
pub fn accuracy_sweep(
    indexes: &[&dyn DomainIndex],
    world: &AccuracyWorld,
    signatures: &[Signature],
    queries: &[DomainId],
    thresholds: &[f64],
    exact_size: bool,
) -> Vec<Vec<Accuracy>> {
    let tail = tail_domains(&world.catalog);
    let in_tail = |ids: &[DomainId]| -> Vec<DomainId> {
        ids.iter()
            .copied()
            .filter(|&id| tail[id as usize])
            .collect()
    };
    // per_query[i][j][k] = (overall, tail) accuracy of query i on index j
    // at threshold k.
    let per_query = lshe_minhash::lanes::run_chunked(queries, |qs| {
        qs.iter()
            .map(|&q| {
                let truth = ground_truth_sets(&world.exact, &world.catalog, q, thresholds);
                let q_size = world.catalog.domain(q).len() as u64;
                // One batched dispatch per query across the whole threshold
                // grid: the index amortizes its partition probes over all
                // thresholds at once.
                let batch: Vec<Query<'_>> = thresholds
                    .iter()
                    .map(|&t| {
                        let query = Query::threshold(&signatures[q as usize], t);
                        if exact_size {
                            query.with_size(q_size)
                        } else {
                            query
                        }
                    })
                    .collect();
                let score = |index: &&dyn DomainIndex| {
                    let answers = index.search_batch(&batch).into_iter().zip(&truth);
                    answers
                        .map(|(result, truth)| {
                            let answer = result.expect("valid threshold query").ids();
                            let tail = query_accuracy(&in_tail(&answer), &in_tail(truth));
                            (query_accuracy(&answer, truth), tail)
                        })
                        .collect::<Vec<_>>()
                };
                indexes.iter().map(score).collect::<Vec<_>>()
            })
            .collect()
    });
    let cell = |j: usize, k: usize| {
        let (overall, tail): (Vec<_>, Vec<_>) = per_query.iter().map(|acc| acc[j][k]).unzip();
        let (overall, tail_recall) = (aggregate(&overall), aggregate(&tail).recall);
        Accuracy {
            overall,
            tail_recall,
        }
    };
    let index = |j| (0..thresholds.len()).map(|k| cell(j, k)).collect();
    (0..indexes.len()).map(index).collect()
}

/// Everything the accuracy experiments share: the corpus, its signatures,
/// and the exact ground-truth engine.
pub struct AccuracyWorld {
    /// The synthetic Canadian-Open-Data-like corpus.
    pub catalog: Catalog,
    /// MinHash signatures aligned with catalog ids.
    pub signatures: Vec<Signature>,
    /// Exact containment engine (ground truth).
    pub exact: ExactIndex,
    /// The hasher the signatures were built with.
    pub hasher: MinHasher,
}

/// Builds the §6.1 accuracy world: a Canadian-Open-Data-like corpus of
/// `num_domains` domains (≥ 10 values each, power-law sizes), signatures,
/// and ground truth.
#[must_use]
pub fn build_accuracy_world(num_domains: usize, seed: u64) -> AccuracyWorld {
    let mut config = lshe_datagen::CorpusConfig::canadian_open_data_like();
    config.num_domains = num_domains;
    config.seed = seed;
    let catalog = lshe_datagen::generate_catalog(&config);
    let hasher = MinHasher::new(256);
    let signatures = compute_signatures(&catalog, &hasher);
    let exact = ExactIndex::build(&catalog);
    AccuracyWorld {
        catalog,
        signatures,
        exact,
        hasher,
    }
}

/// Builds the Asymmetric Minwise Hashing baseline over the whole catalog.
#[must_use]
pub fn build_asym(catalog: &Catalog, signatures: &[Signature]) -> lshe_core::AsymIndex {
    let mut builder = lshe_core::AsymIndex::builder();
    for (id, domain) in catalog.iter() {
        builder.add(id, domain.len() as u64, signatures[id as usize].clone());
    }
    builder.build()
}

/// Builds the Asym-inside-each-partition ablation (§6.1 remark).
#[must_use]
pub fn build_asym_partitioned(
    catalog: &Catalog,
    signatures: &[Signature],
    n: usize,
) -> lshe_core::AsymIndex {
    let entries: Vec<(DomainId, u64, Signature)> = catalog
        .iter()
        .map(|(id, d)| (id, d.len() as u64, signatures[id as usize].clone()))
        .collect();
    lshe_core::AsymIndex::build(&EnsembleConfig::default(), n, &entries)
}

/// A corpus reduced to what the performance experiments need: sizes and
/// signatures (domain values are generated, sketched, and discarded on the
/// fly — at WDC scale the raw sets would dominate memory for no benefit,
/// since the one-node Figure 9 / Table 4 harnesses measure cost, not
/// accuracy).
pub struct PerfCorpus {
    /// Domain sizes by id.
    pub sizes: Vec<u64>,
    /// Signatures by id.
    pub signatures: Vec<Signature>,
}

/// Builds a WDC-Web-Tables-like performance corpus of `num_domains` domains
/// (power-law sizes in `[1, 2^14]`, α = 2) by streaming values through the
/// hasher in parallel.
///
/// Two overlap mechanisms mirror real web-table data:
///
/// * domains within a cluster of 24 draw contiguous runs from a shared
///   virtual pool (recurring columns across related tables), and
/// * ~30% of every domain comes from a small global pool sampled with a
///   Zipf-like skew — the "USA" / "yes" / "1" effect, where a handful of
///   ubiquitous values appear in a large fraction of all web-table columns.
///   This is what floods an unpartitioned index with low-containment
///   candidates (Table 4's slow baseline) while the partitioned ensemble
///   stays selective.
#[must_use]
pub fn build_perf_corpus(num_domains: usize, seed: u64, hasher: &MinHasher) -> PerfCorpus {
    use lshe_minhash::hash::splitmix64;
    const CLUSTER: u64 = 24;
    const MAX_SIZE: u64 = 1 << 14;
    const POOL_SIZE: u64 = (MAX_SIZE as f64 * 1.6) as u64;
    const COMMON_POOL: u64 = 2_000;
    const COMMON_FRACTION: f64 = 0.3;
    let dist = lshe_datagen::PowerLawSizes::new(1, MAX_SIZE, 2.0);
    let threads = lshe_minhash::lanes::ideal_lanes(num_domains);
    let chunk = num_domains.div_ceil(threads);
    let mut sizes: Vec<u64> = vec![0; num_domains];
    let mut signatures: Vec<Option<Signature>> = vec![None; num_domains];
    std::thread::scope(|scope| {
        for (t, (size_slice, sig_slice)) in sizes
            .chunks_mut(chunk)
            .zip(signatures.chunks_mut(chunk))
            .enumerate()
        {
            scope.spawn(move || {
                use rand::rngs::StdRng;
                use rand::{Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37));
                for (i, (size_slot, sig_slot)) in
                    size_slice.iter_mut().zip(sig_slice.iter_mut()).enumerate()
                {
                    let id = (t * chunk + i) as u64;
                    let cluster = id / CLUSTER;
                    let size = dist.sample(&mut rng);
                    let common = ((size as f64) * COMMON_FRACTION).round() as u64;
                    let pooled = size - common;
                    let offset = rng.gen_range(0..=POOL_SIZE - pooled.min(POOL_SIZE));
                    let cluster_values = (0..pooled).map(|j| {
                        // Virtual pool value: position `offset + j` of this
                        // cluster's pool (same construction as datagen).
                        splitmix64(
                            splitmix64(seed ^ 0x9E3779B97F4A7C15)
                                ^ splitmix64(cluster).rotate_left(17)
                                ^ (offset + j),
                        )
                    });
                    // Zipf-ish skew: u² concentrates picks on low positions,
                    // so position 0's value appears in a large share of all
                    // domains. Duplicate picks collapse under min-hashing,
                    // so sizes shrink by at most the duplicate count.
                    let common_values: Vec<u64> = (0..common)
                        .map(|_| {
                            let u: f64 = rng.gen();
                            let pos = ((u * u) * COMMON_POOL as f64) as u64;
                            splitmix64(splitmix64(seed ^ 0xC0330) ^ pos)
                        })
                        .collect();
                    *size_slot = size;
                    *sig_slot = Some(hasher.signature(cluster_values.chain(common_values)));
                }
            });
        }
    });
    PerfCorpus {
        sizes,
        signatures: signatures
            .into_iter()
            .map(|s| s.expect("signature computed"))
            .collect(),
    }
}

/// Restricts a world to a subset of domain ids, rebuilding the catalog with
/// dense ids, signatures, and ground truth (Figure 5's nested subsets).
#[must_use]
pub fn subset_world(world: &AccuracyWorld, ids: &[DomainId]) -> AccuracyWorld {
    let mut catalog = Catalog::new();
    let mut signatures = Vec::with_capacity(ids.len());
    for &id in ids {
        catalog.push(
            world.catalog.domain(id).clone(),
            world.catalog.meta(id).clone(),
        );
        signatures.push(world.signatures[id as usize].clone());
    }
    let exact = ExactIndex::build(&catalog);
    AccuracyWorld {
        catalog,
        signatures,
        exact,
        hasher: world.hasher.clone(),
    }
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_corpus::{Domain, DomainMeta};
    use lshe_datagen::{sample_queries, SizeBand};

    fn small_world() -> AccuracyWorld {
        build_accuracy_world(300, 11)
    }

    #[test]
    fn signatures_match_sequential() {
        let w = small_world();
        for (id, domain) in w.catalog.iter().take(20) {
            assert_eq!(w.signatures[id as usize], domain.signature(&w.hasher));
        }
        assert_eq!(w.signatures.len(), w.catalog.len());
    }

    #[test]
    fn ground_truth_sets_are_nested_in_threshold() {
        let w = small_world();
        let thresholds = [0.2, 0.5, 0.8];
        let truth = ground_truth_sets(&w.exact, &w.catalog, 0, &thresholds);
        assert!(truth[0].len() >= truth[1].len());
        assert!(truth[1].len() >= truth[2].len());
        // Self-containment: the query matches itself at every threshold.
        for t in &truth {
            assert!(t.contains(&0));
        }
    }

    #[test]
    fn accuracy_sweep_shapes() {
        let w = small_world();
        let ens = build_ensemble(
            &w.catalog,
            &w.signatures,
            PartitionStrategy::EquiDepth { n: 4 },
        );
        let queries = sample_queries(&w.catalog, 25, SizeBand::All, 3);
        let thresholds = [0.3, 0.6, 0.9];
        let sweep = accuracy_sweep(
            &[&ens, &ens],
            &w,
            &w.signatures,
            &queries,
            &thresholds,
            true,
        );
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0], sweep[1]);
        assert_eq!(sweep[0].len(), 3);
        for a in &sweep[0] {
            assert_eq!(a.overall.queries, 25);
            assert!((0.0..=1.0).contains(&a.overall.precision));
            assert!((0.0..=1.0).contains(&a.overall.recall));
            assert!((0.0..=1.0).contains(&a.tail_recall));
        }
    }

    #[test]
    fn accuracy_parallel_matches_single_thread_aggregate() {
        // The sweep must be a pure function of (index, workload): re-running
        // yields identical numbers (thread scheduling must not leak in).
        let w = small_world();
        let ens = build_ensemble(
            &w.catalog,
            &w.signatures,
            PartitionStrategy::EquiDepth { n: 4 },
        );
        let queries = sample_queries(&w.catalog, 30, SizeBand::All, 5);
        let a = accuracy_sweep(&[&ens], &w, &w.signatures, &queries, &[0.5], true);
        let b = accuracy_sweep(&[&ens], &w, &w.signatures, &queries, &[0.5], true);
        assert_eq!(a, b);
    }

    #[test]
    fn threshold_grid_points_are_their_decimals() {
        let grid = threshold_grid();
        assert_eq!(grid, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]);
        // A domain holding exactly 3 of a 10-value query's values is in
        // the truth at t = 0.3.
        let mut catalog = Catalog::new();
        let meta = DomainMeta::default;
        let query = catalog.push(Domain::from_hashes((0..10).collect()), meta());
        let three = catalog.push(Domain::from_hashes((7..20).collect()), meta());
        let exact = ExactIndex::build(&catalog);
        let truth = ground_truth_sets(&exact, &catalog, query, &grid);
        assert_eq!(truth[2], [query, three]);
        assert_eq!(truth[3], [query]);
    }
}
