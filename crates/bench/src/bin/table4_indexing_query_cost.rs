//! Table 4: indexing cost and mean query cost of the MinHash LSH baseline
//! versus LSH Ensemble (8 / 16 / 32 partitions) on the full performance
//! corpus, on one node: one `LshEnsemble` per configuration. The paper ran
//! a 5-node cluster; the multi-node topology runs on real processes —
//! `lshe split` + `lshe cluster`, checked by `tests/cluster_conformance.rs`.
//!
//! Shapes to reproduce: indexing cost roughly equal for all four indexes
//! (sketching dominates; partitions build in parallel); mean query cost
//! drops steeply from the baseline to the ensembles and keeps improving
//! with more partitions — the paper reports 45.13 s → 7.55 / 4.26 / 3.12 s
//! at 262M domains, a ~6–15× speedup from partitioning + selectivity.

use lshe_bench::{report, workload, Args};
use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, Unranked};
use lshe_lsh::DomainId;
use lshe_minhash::{MinHasher, Signature};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["domains", "queries", "t-star", "seed"]);
    let num_domains = args.get_usize("domains", 500_000);
    let num_queries = args.get_usize("queries", 200);
    let t_star = args.get_f64("t-star", 0.5);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "table4",
        "indexing (s) and mean query (s): Baseline vs LSH Ensemble 8/16/32, one node",
        &[
            ("domains", num_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("t_star", report::f4(t_star)),
            ("seed", seed.to_string()),
            (
                "paper_reference",
                "262M domains: Baseline 108.47min/45.13s; Ens(8) 106.27/7.55; Ens(16) 101.56/4.26; Ens(32) 104.62/3.12".to_owned(),
            ),
        ],
    );

    let hasher = MinHasher::new(256);
    let (corpus, sketch_secs) =
        workload::timed(|| workload::build_perf_corpus(num_domains, seed, &hasher));
    println!("# sketching_seconds = {}", report::secs(sketch_secs));

    let ids: Vec<DomainId> = (0..num_domains as DomainId).collect();
    let sig_refs: Vec<&Signature> = corpus.signatures.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..num_domains).collect();
    pool.shuffle(&mut rng);
    let queries: Vec<usize> = pool.into_iter().take(num_queries).collect();

    let configs: Vec<(String, PartitionStrategy)> = vec![
        ("Baseline".to_owned(), PartitionStrategy::Single),
        (
            "LSH Ensemble (8)".to_owned(),
            PartitionStrategy::EquiDepth { n: 8 },
        ),
        (
            "LSH Ensemble (16)".to_owned(),
            PartitionStrategy::EquiDepth { n: 16 },
        ),
        (
            "LSH Ensemble (32)".to_owned(),
            PartitionStrategy::EquiDepth { n: 32 },
        ),
    ];

    report::header(&[
        "index",
        "indexing_seconds",
        "indexing_incl_sketching_seconds",
        "mean_query_seconds",
        "mean_candidates",
    ]);
    for (label, strategy) in configs {
        let config = EnsembleConfig {
            strategy,
            ..EnsembleConfig::default()
        };
        let (index, build_secs) = workload::timed(|| {
            LshEnsemble::build_from_parts(config, &ids, &corpus.sizes, &sig_refs)
        });
        let mut total_candidates = 0usize;
        let (_, query_secs) = workload::timed(|| {
            for &q in &queries {
                let query =
                    Query::threshold(&corpus.signatures[q], t_star).with_size(corpus.sizes[q]);
                total_candidates += Unranked(&index)
                    .search(&query)
                    .expect("valid threshold query")
                    .hits
                    .len();
            }
        });
        report::row(&[
            label,
            report::secs(build_secs),
            report::secs(build_secs + sketch_secs),
            report::secs(query_secs / queries.len().max(1) as f64),
            (total_candidates / queries.len().max(1)).to_string(),
        ]);
    }
}
