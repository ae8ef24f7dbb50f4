//! Figure 9: indexing cost and mean query cost versus the number of
//! domains, for LSH Ensemble with 8 / 16 / 32 partitions.
//!
//! The paper sweeps 52M → 262M domains on a 5-node cluster; this harness
//! sweeps five equal steps up to `--domains` (default 200,000) on one
//! node: one `LshEnsemble` per configuration. The shapes to reproduce are
//! per-node properties: indexing time is linear in the number of domains
//! and independent of the partition count; query time grows with corpus
//! size (more candidates) but grows *slower* with more partitions (better
//! selectivity). The multi-node topology runs on real processes —
//! `lshe split` + `lshe cluster`, checked by `tests/cluster_conformance.rs`.

use lshe_bench::{report, workload, Args};
use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, Unranked};
use lshe_lsh::DomainId;
use lshe_minhash::{MinHasher, Signature};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["domains", "queries", "t-star", "seed"]);
    let max_domains = args.get_usize("domains", 200_000);
    let num_queries = args.get_usize("queries", 100);
    let t_star = args.get_f64("t-star", 0.5);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "fig9",
        "indexing and mean query cost vs corpus size (Ensemble 8/16/32, one node)",
        &[
            ("max_domains", max_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("t_star", report::f4(t_star)),
            ("seed", seed.to_string()),
        ],
    );

    let hasher = MinHasher::new(256);
    let (corpus, sketch_secs) =
        workload::timed(|| workload::build_perf_corpus(max_domains, seed, &hasher));
    println!(
        "# sketching_seconds_full_corpus = {}",
        report::secs(sketch_secs)
    );

    report::header(&[
        "domains",
        "partitions",
        "indexing_seconds",
        "mean_query_seconds",
    ]);
    for step in 1..=5usize {
        let n = max_domains * step / 5;
        let ids: Vec<DomainId> = (0..n as DomainId).collect();
        let sizes = &corpus.sizes[..n];
        let sig_refs: Vec<&Signature> = corpus.signatures[..n].iter().collect();
        // Queries: sampled ids from this prefix.
        let mut rng = StdRng::seed_from_u64(seed + step as u64);
        let mut pool: Vec<usize> = (0..n).collect();
        pool.shuffle(&mut rng);
        let queries: Vec<usize> = pool.into_iter().take(num_queries).collect();

        for partitions in [8usize, 16, 32] {
            let config = EnsembleConfig {
                strategy: PartitionStrategy::EquiDepth { n: partitions },
                ..EnsembleConfig::default()
            };
            let (index, build_secs) =
                workload::timed(|| LshEnsemble::build_from_parts(config, &ids, sizes, &sig_refs));
            let (total, query_secs) = workload::timed(|| {
                let mut found = 0usize;
                for &q in &queries {
                    let query =
                        Query::threshold(&corpus.signatures[q], t_star).with_size(corpus.sizes[q]);
                    found += Unranked(&index)
                        .search(&query)
                        .expect("valid threshold query")
                        .hits
                        .len();
                }
                found
            });
            std::hint::black_box(total);
            report::row(&[
                n.to_string(),
                partitions.to_string(),
                report::secs(build_secs),
                report::secs(query_secs / queries.len().max(1) as f64),
            ]);
        }
    }
}
