//! Dynamic data (§6.2): domains added after construction must be
//! immediately searchable, boundary growth must stay conservative, and a
//! drifted corpus must keep answering correctly (if less precisely) until
//! rebuilt.

use lshe_core::{EnsembleConfig, LshEnsemble, MutableIndex, PartitionStrategy};
use lshe_datagen::{generate_catalog, CorpusConfig};
use lshe_minhash::{MinHasher, Signature};

fn build_world(n: usize, seed: u64) -> (LshEnsemble, Vec<Signature>, Vec<u64>, MinHasher) {
    let catalog = generate_catalog(&CorpusConfig::tiny(n, seed));
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let ens = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 8 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );
    (ens, signatures, sizes, hasher)
}

#[test]
fn inserts_visible_before_and_after_commit() {
    let (mut ens, _, _, hasher) = build_world(500, 1);
    let base_len = ens.len();
    let mut new_sigs = Vec::new();
    for i in 0..50u32 {
        let vals = MinHasher::synthetic_values(9_000 + u64::from(i), 40 + i as usize);
        let sig = hasher.signature(vals.iter().copied());
        ens.insert(10_000 + i, vals.len() as u64, &sig)
            .expect("fresh insert");
        new_sigs.push((10_000 + i, vals.len() as u64, sig));
    }
    assert_eq!(ens.len(), base_len + 50);
    // Visible while staged.
    for (id, size, sig) in &new_sigs {
        assert!(
            ens.query_with_size(sig, *size, 1.0).contains(id),
            "staged insert {id} not found"
        );
    }
    ens.commit();
    // Still visible after merge.
    for (id, size, sig) in &new_sigs {
        assert!(
            ens.query_with_size(sig, *size, 1.0).contains(id),
            "committed insert {id} not found"
        );
    }
}

#[test]
fn original_domains_survive_heavy_insertion() {
    let (mut ens, signatures, sizes, hasher) = build_world(500, 2);
    for i in 0..500u32 {
        let vals = MinHasher::synthetic_values(50_000 + u64::from(i), 30);
        ens.insert(20_000 + i, 30, &hasher.signature(vals.iter().copied()))
            .expect("fresh insert");
    }
    ens.commit();
    for q in (0..500u32).step_by(61) {
        let hits = ens.query_with_size(&signatures[q as usize], sizes[q as usize], 1.0);
        assert!(hits.contains(&q), "original domain {q} lost after drift");
    }
}

#[test]
fn oversized_insert_grows_boundary_conservatively() {
    let (mut ens, _, _, hasher) = build_world(300, 3);
    let before = ens.partition_stats();
    let old_max = before.last().expect("partitions").upper;
    // Insert a domain 10× larger than anything indexed.
    let huge = MinHasher::synthetic_values(777, (old_max * 10) as usize);
    let sig = hasher.signature(huge.iter().copied());
    ens.insert(99_999, old_max * 10, &sig)
        .expect("fresh insert");
    let after = ens.partition_stats();
    assert_eq!(after.last().expect("partitions").upper, old_max * 10);
    // Conservative conversion: the enlarged bound must still find the new
    // domain (u only grew, so s* only shrank — no new false negatives).
    assert!(ens
        .query_with_size(&sig, old_max * 10, 0.9)
        .contains(&99_999));
}

#[test]
fn undersized_insert_extends_first_partition() {
    let (mut ens, _, _, hasher) = build_world(300, 4);
    let before_lower = ens.partition_stats()[0].lower;
    assert!(before_lower > 1);
    let tiny = MinHasher::synthetic_values(88, 1);
    let sig = hasher.signature(tiny.iter().copied());
    ens.insert(88_888, 1, &sig).expect("fresh insert");
    // While staged/sealed, the tiny domain is covered by its own tier…
    assert_eq!(
        ens.partition_stats()
            .iter()
            .map(|p| p.lower)
            .min()
            .expect("partitions"),
        1
    );
    assert!(ens.query_with_size(&sig, 1, 1.0).contains(&88_888));
    // …and compaction folds it into the base, extending the first
    // partition's boundary downward (§6.2 conservative growth).
    ens.commit();
    ens.compact();
    assert_eq!(ens.partition_stats()[0].lower, 1);
    assert!(ens.query_with_size(&sig, 1, 1.0).contains(&88_888));
}

#[test]
fn rebuild_restores_balanced_partitions_after_drift() {
    // After heavy drift, partition member counts diverge; a rebuild through
    // a fresh builder restores equi-depth balance (the §6.2 remedy).
    let (mut ens, signatures, sizes, hasher) = build_world(400, 5);
    let mut all: Vec<(u32, u64, Signature)> = signatures
        .iter()
        .enumerate()
        .map(|(i, s)| (i as u32, sizes[i], s.clone()))
        .collect();
    for i in 0..400u32 {
        let vals = MinHasher::synthetic_values(70_000 + u64::from(i), 500 + i as usize);
        let sig = hasher.signature(vals.iter().copied());
        ens.insert(30_000 + i, vals.len() as u64, &sig)
            .expect("fresh insert");
        all.push((30_000 + i, vals.len() as u64, sig));
    }
    ens.commit();
    // Compaction folds the sealed segment into the base by size: every new
    // domain routes to the boundary partition, skewing the counts — the
    // drift that §6.2's rebuild remedies.
    ens.compact();
    let drifted_spread = spread(&ens);

    let ids: Vec<u32> = all.iter().map(|e| e.0).collect();
    let szs: Vec<u64> = all.iter().map(|e| e.1).collect();
    let refs: Vec<&Signature> = all.iter().map(|e| &e.2).collect();
    let rebuilt = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 8 },
            ..EnsembleConfig::default()
        },
        &ids,
        &szs,
        &refs,
    );
    let rebuilt_spread = spread(&rebuilt);
    assert!(
        rebuilt_spread < drifted_spread,
        "rebuild should rebalance: {rebuilt_spread} vs {drifted_spread}"
    );
}

fn spread(ens: &LshEnsemble) -> f64 {
    let counts: Vec<f64> = ens
        .partition_stats()
        .iter()
        .map(|p| p.count as f64)
        .collect();
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    (counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64).sqrt()
}
