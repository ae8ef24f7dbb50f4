//! Figure 6: accuracy for queries drawn from the *largest 10%* of domain
//! sizes (Baseline and Ensemble 8/16/32).
//!
//! The counterpart of Figure 7's smallest-10% workload: power-law corpora
//! are dominated by small domains (§6.1), so the default workload rarely
//! samples these queries, and this bin shows accuracy at the other end of
//! the size range.

use lshe_bench::{report, workload, Args};
use lshe_core::{DomainIndex, PartitionStrategy};
use lshe_datagen::{sample_queries, SizeBand};

fn main() {
    let args = Args::from_env();
    let num_domains = args.get_usize("domains", 65_533);
    let num_queries = args.get_usize("queries", 500);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "fig6",
        "accuracy vs containment threshold, largest-10% queries",
        &[
            ("domains", num_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("seed", seed.to_string()),
        ],
    );

    let world = workload::build_accuracy_world(num_domains, seed);
    let queries = sample_queries(
        &world.catalog,
        num_queries,
        SizeBand::LargestPercent(10),
        seed,
    );
    let thresholds = workload::paper_threshold_grid();

    let baseline =
        workload::build_ensemble(&world.catalog, &world.signatures, PartitionStrategy::Single);
    let ensembles: Vec<_> = [8usize, 16, 32]
        .iter()
        .map(|&n| {
            workload::build_ensemble(
                &world.catalog,
                &world.signatures,
                PartitionStrategy::EquiDepth { n },
            )
        })
        .collect();
    let mut indexes: Vec<&dyn DomainIndex> = vec![&baseline];
    for e in &ensembles {
        indexes.push(e);
    }

    report::header(&[
        "index",
        "threshold",
        "precision",
        "recall",
        "f1",
        "f05",
        "empty_answers",
    ]);
    for index in indexes {
        let acc = workload::accuracy_sweep(
            index,
            &world.exact,
            &world.catalog,
            &world.signatures,
            &queries,
            &thresholds,
        );
        for (t, a) in thresholds.iter().zip(&acc) {
            report::row(&[
                index.describe(),
                report::f4(*t),
                report::f4(a.precision),
                report::f4(a.recall),
                report::f4(a.f1),
                report::f4(a.f05),
                a.empty_answers.to_string(),
            ]);
        }
    }
}
