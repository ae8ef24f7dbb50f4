//! Ablation (ours, backing §5.1's `approx(|Q|)`): querying with the exact
//! query cardinality versus the MinHash-estimated one.
//!
//! Algorithm 1 estimates `|Q|` from the query's own signature in constant
//! time, so clients never ship raw values. The estimate carries ~1/√m
//! relative error, which perturbs both the threshold conversion and the
//! `(b, r)` tuning. Expect: accuracy differences within estimation noise —
//! validating that the paper's constant-time estimation loses nothing.

use lshe_bench::{report, workload, Args};
use lshe_core::{DomainIndex, PartitionStrategy, Query};
use lshe_datagen::{aggregate, query_accuracy, sample_queries, QueryAccuracy, SizeBand};

fn main() {
    let args = Args::from_env();
    let num_domains = args.get_usize("domains", 20_000);
    let num_queries = args.get_usize("queries", 300);
    let partitions = args.get_usize("partitions", 16);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "ablation_query_size_estimation",
        "exact |Q| vs approx(|Q|) from the query signature (§5.1)",
        &[
            ("domains", num_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("partitions", partitions.to_string()),
            ("seed", seed.to_string()),
        ],
    );

    let world = workload::build_accuracy_world(num_domains, seed);
    let queries = sample_queries(&world.catalog, num_queries, SizeBand::All, seed);
    let index = workload::build_ensemble(
        &world.catalog,
        &world.signatures,
        PartitionStrategy::EquiDepth { n: partitions },
    );

    report::header(&[
        "size_source",
        "threshold",
        "precision",
        "recall",
        "f1",
        "mean_rel_size_error",
    ]);
    for t_star in [0.3f64, 0.5, 0.7, 0.9] {
        for exact_size in [true, false] {
            let mut per_query: Vec<QueryAccuracy> = Vec::with_capacity(queries.len());
            let mut rel_err_sum = 0.0f64;
            for &q in &queries {
                let domain = world.catalog.domain(q);
                let truth = world.exact.search(domain, t_star);
                let sig = &world.signatures[q as usize];
                let query = Query::threshold(sig, t_star);
                let query = if exact_size {
                    query.with_size(domain.len() as u64)
                } else {
                    let est = sig.cardinality();
                    rel_err_sum += (est - domain.len() as f64).abs() / domain.len() as f64;
                    query
                };
                let answer = index.search(&query).expect("valid query").ids();
                per_query.push(query_accuracy(&answer, &truth));
            }
            let acc = aggregate(&per_query);
            report::row(&[
                if exact_size { "exact" } else { "approx" }.to_owned(),
                report::f4(t_star),
                report::f4(acc.precision),
                report::f4(acc.recall),
                report::f4(acc.f1),
                if exact_size {
                    "-".to_owned()
                } else {
                    report::f4(rel_err_sum / queries.len() as f64)
                },
            ]);
        }
    }
}
