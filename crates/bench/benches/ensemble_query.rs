//! Microbench: end-to-end ensemble query latency versus partition count —
//! the single-machine analogue of Table 4's query-cost column.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lshe_bench::workload;
use lshe_core::{DomainIndex, PartitionStrategy, Query};
use lshe_minhash::MinHasher;

fn ensemble_query(c: &mut Criterion) {
    let hasher = MinHasher::new(256);
    let corpus = workload::build_perf_corpus(50_000, 7, &hasher);
    let ids: Vec<u32> = (0..corpus.sizes.len() as u32).collect();
    let sig_refs: Vec<&lshe_minhash::Signature> = corpus.signatures.iter().collect();

    let mut group = c.benchmark_group("ensemble_query_50k");
    for &(label, strategy) in &[
        ("partitions1", PartitionStrategy::Single),
        ("partitions8", PartitionStrategy::EquiDepth { n: 8 }),
        ("partitions32", PartitionStrategy::EquiDepth { n: 32 }),
    ] {
        let ens = lshe_core::LshEnsemble::build_from_parts(
            lshe_core::EnsembleConfig {
                strategy,
                ..lshe_core::EnsembleConfig::default()
            },
            &ids,
            &corpus.sizes,
            &sig_refs,
        );
        let q = 12_345usize;
        group.bench_with_input(BenchmarkId::new(label, "t0.5"), &ens, |b, ens| {
            b.iter(|| ens.query_with_size(&corpus.signatures[q], corpus.sizes[q], 0.5))
        });
        group.bench_with_input(BenchmarkId::new(label, "t0.9"), &ens, |b, ens| {
            b.iter(|| ens.query_with_size(&corpus.signatures[q], corpus.sizes[q], 0.9))
        });
    }
    group.finish();
}

fn parallel_vs_sequential(c: &mut Criterion) {
    let hasher = MinHasher::new(256);
    let corpus = workload::build_perf_corpus(50_000, 9, &hasher);
    let ids: Vec<u32> = (0..corpus.sizes.len() as u32).collect();
    let sig_refs: Vec<&lshe_minhash::Signature> = corpus.signatures.iter().collect();
    let ens = lshe_core::LshEnsemble::build_from_parts(
        lshe_core::EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 32 },
            ..lshe_core::EnsembleConfig::default()
        },
        &ids,
        &corpus.sizes,
        &sig_refs,
    );
    let q = 23_456usize;
    c.bench_function("query_sequential_32p", |b| {
        b.iter(|| ens.query_with_size(&corpus.signatures[q], corpus.sizes[q], 0.5))
    });
    c.bench_function("query_fanned_32p", |b| {
        let query = Query::threshold(&corpus.signatures[q], 0.5)
            .with_size(corpus.sizes[q])
            .with_parallel(true);
        b.iter(|| ens.search(&query))
    });
}

criterion_group!(benches, ensemble_query, parallel_vs_sequential);
criterion_main!(benches);
