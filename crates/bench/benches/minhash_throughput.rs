//! Microbench: MinHash signature generation throughput across domain sizes
//! and signature widths — the dominant cost of index construction
//! (Table 4's "Indexing" column is ~all sketching).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lshe_minhash::kernel::FoldKernel;
use lshe_minhash::perm::EMPTY_SLOT;
use lshe_minhash::MinHasher;

fn signature_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("signature_generation");
    for &size in &[100usize, 1_000, 10_000] {
        let values = MinHasher::synthetic_values(42, size);
        for &m in &[128usize, 256] {
            let hasher = MinHasher::new(m);
            group.throughput(Throughput::Elements(size as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("classic_m{m}"), size),
                &values,
                |b, values| b.iter(|| hasher.signature(values.iter().copied())),
            );
        }
    }
    group.finish();
}

/// The min-fold inner loop in isolation: the [`FoldKernel`] (AVX2 lanes
/// where the host has them, portable unrolled otherwise) against the
/// per-permutation scalar reference it replaced.
fn fold_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("fold_kernel");
    let values = MinHasher::synthetic_values(7, 10_000);
    for &m in &[128usize, 256] {
        let hasher = MinHasher::new(m);
        let perms = hasher.family().permutations();
        let kernel = FoldKernel::new(perms);
        group.throughput(Throughput::Elements(values.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(
                format!(
                    "{}_m{m}",
                    if kernel.is_vectorised() {
                        "kernel_avx2"
                    } else {
                        "kernel_portable"
                    }
                ),
                values.len(),
            ),
            &values,
            |b, values| {
                let mut slots = vec![EMPTY_SLOT; m];
                b.iter(|| {
                    slots.fill(EMPTY_SLOT);
                    kernel.fold(values.iter().copied(), &mut slots);
                    slots[0]
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("scalar_m{m}"), values.len()),
            &values,
            |b, values| {
                let mut slots = vec![EMPTY_SLOT; m];
                b.iter(|| {
                    slots.fill(EMPTY_SLOT);
                    for &v in values.iter() {
                        for (slot, perm) in slots.iter_mut().zip(perms.iter()) {
                            let h = perm.apply(v);
                            if h < *slot {
                                *slot = h;
                            }
                        }
                    }
                    slots[0]
                });
            },
        );
    }
    group.finish();
}

fn jaccard_estimation(c: &mut Criterion) {
    let hasher = MinHasher::new(256);
    let a = hasher.signature(MinHasher::synthetic_values(1, 1_000));
    let b = hasher.signature(MinHasher::synthetic_values(2, 1_000));
    c.bench_function("jaccard_estimate_m256", |bench| {
        bench.iter(|| a.jaccard(&b))
    });
}

fn cardinality_estimation(c: &mut Criterion) {
    let hasher = MinHasher::new(256);
    let sig = hasher.signature(MinHasher::synthetic_values(3, 10_000));
    c.bench_function("cardinality_estimate_m256", |bench| {
        bench.iter(|| sig.cardinality())
    });
}

criterion_group!(
    benches,
    signature_generation,
    fold_kernel,
    jaccard_estimation,
    cardinality_estimation
);
criterion_main!(benches);
