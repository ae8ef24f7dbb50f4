//! Figure 8: robustness to distribution drift — accuracy versus the
//! standard deviation of partition sizes as the partitioning morphs from
//! equi-depth (λ = 0) toward equi-width (λ = 1).
//!
//! The paper simulates a drifted corpus by degrading the partitioning
//! itself (§6.2): as long as partition member counts stay within a couple
//! of multiples of the equi-depth count, accuracy barely moves — the index
//! rarely needs a rebuild. Shape to reproduce: flat precision/recall until
//! the std-dev grows several times past the equi-depth partition size, then
//! a drop in precision.

use lshe_bench::{report, workload, Args};
use lshe_core::PartitionStrategy;
use lshe_datagen::{sample_queries, SizeBand};

fn main() {
    let args = Args::from_env(&[
        "domains",
        "queries",
        "partitions",
        "t-star",
        "steps",
        "seed",
    ]);
    let num_domains = args.get_usize("domains", 65_533);
    let num_queries = args.get_usize("queries", 300);
    let n_partitions = args.get_usize("partitions", 32);
    let t_star = args.get_f64("t-star", 0.5);
    let steps = args.get_usize("steps", 9);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "fig8",
        "accuracy vs std-dev of partition sizes (equi-depth → equi-width morph)",
        &[
            ("domains", num_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("partitions", n_partitions.to_string()),
            ("t_star", report::f4(t_star)),
            ("seed", seed.to_string()),
        ],
    );

    let world = workload::build_accuracy_world(num_domains, seed);
    let queries = sample_queries(&world.catalog, num_queries, SizeBand::All, seed);

    report::header(&[
        "lambda",
        "partition_size_std_dev",
        "precision",
        "recall",
        "f1",
        "f05",
    ]);
    for k in 0..steps {
        let lambda = k as f64 / (steps - 1).max(1) as f64;
        let strategy = PartitionStrategy::Morph {
            n: n_partitions,
            lambda,
        };
        let sizes: Vec<u64> = world.catalog.sizes().iter().map(|&s| s as u64).collect();
        let partitioning = strategy.partition(&sizes);
        let std_dev = partitioning.member_count_std_dev();
        let ens = workload::build_ensemble(&world.catalog, &world.signatures, strategy);
        let sweep = workload::accuracy_sweep(
            &[&ens],
            &world,
            &world.signatures,
            &queries,
            &[t_star],
            true,
        );
        let acc = sweep[0][0].overall;
        report::row(&[
            report::f2(lambda),
            report::f2(std_dev),
            report::f4(acc.precision),
            report::f4(acc.recall),
            report::f4(acc.f1),
            report::f4(acc.f05),
        ]);
    }
}
