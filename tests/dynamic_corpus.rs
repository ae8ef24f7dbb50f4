//! Dynamic data (§6.2): domains added after construction must be
//! searchable from the commit that adds them, partition bounds may only
//! widen to cover them,
//! a drifted corpus must keep answering correctly while its inserts sit in
//! sealed segments, and compaction must restore the equi-depth layout a
//! fresh build of the corpus has.

use lshe_core::{EnsembleConfig, Mutation, PartitionStrategy, RankedIndex};
use lshe_datagen::{generate_catalog, CorpusConfig};
use lshe_minhash::{MinHasher, Signature};

fn config() -> EnsembleConfig {
    EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 8 },
        ..EnsembleConfig::default()
    }
}

fn build_world(n: usize, seed: u64) -> (RankedIndex, Vec<Signature>, Vec<u64>, MinHasher) {
    let catalog = generate_catalog(&CorpusConfig::tiny(n, seed));
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let mut builder = RankedIndex::builder_with(config());
    for ((id, _), (sig, &size)) in catalog.iter().zip(signatures.iter().zip(&sizes)) {
        builder.add(id, size, sig.clone());
    }
    (builder.build(), signatures, sizes, hasher)
}

/// Commits one batch inserting every `(id, size, signature)` of `domains`.
fn commit_inserts(index: &mut RankedIndex, domains: &[(u32, u64, Signature)]) {
    let batch: Vec<Mutation<'_>> = domains
        .iter()
        .map(|(id, size, signature)| Mutation::Insert(*id, *size, signature))
        .collect();
    index.commit(&batch).expect("fresh inserts");
}

#[test]
fn inserts_visible_once_committed() {
    let (mut index, _, _, hasher) = build_world(500, 1);
    let base_len = index.len();
    let mut new_sigs = Vec::new();
    for i in 0..50u32 {
        let vals = MinHasher::synthetic_values(9_000 + u64::from(i), 40 + i as usize);
        let sig = hasher.signature(vals.iter().copied());
        new_sigs.push((10_000 + i, vals.len() as u64, sig));
    }
    commit_inserts(&mut index, &new_sigs);
    assert_eq!(index.len(), base_len + 50);
    for (id, size, sig) in &new_sigs {
        assert!(
            index
                .ensemble()
                .query_with_size(sig, *size, 1.0)
                .contains(id),
            "committed insert {id} not found"
        );
    }
}

#[test]
fn original_domains_survive_heavy_insertion() {
    let (mut index, signatures, sizes, hasher) = build_world(500, 2);
    let drift: Vec<(u32, u64, Signature)> = (0..500u32)
        .map(|i| {
            let vals = MinHasher::synthetic_values(50_000 + u64::from(i), 30);
            (20_000 + i, 30, hasher.signature(vals.iter().copied()))
        })
        .collect();
    commit_inserts(&mut index, &drift);
    for q in (0..500u32).step_by(61) {
        let hits =
            index
                .ensemble()
                .query_with_size(&signatures[q as usize], sizes[q as usize], 1.0);
        assert!(hits.contains(&q), "original domain {q} lost after drift");
    }
}

#[test]
fn oversized_insert_grows_boundary_conservatively() {
    let (mut index, _, _, hasher) = build_world(300, 3);
    let before = index.ensemble().partition_stats();
    let old_max = before.last().expect("partitions").upper;
    // Insert a domain 10× larger than anything indexed.
    let huge = MinHasher::synthetic_values(777, (old_max * 10) as usize);
    let sig = hasher.signature(huge.iter().copied());
    commit_inserts(&mut index, &[(99_999, old_max * 10, sig.clone())]);
    // Sealed, it is a tier of its own whose bound is its size: the largest
    // bound grew, so s* only shrank — no new false negatives.
    let last = |index: &RankedIndex| index.ensemble().partition_stats().last().map(|p| p.upper);
    assert_eq!(last(&index), Some(old_max * 10));
    let found = |index: &RankedIndex| {
        let hits = index.ensemble().query_with_size(&sig, old_max * 10, 0.9);
        hits.contains(&99_999)
    };
    assert!(found(&index));
    // Compacted, the base's last partition covers it.
    index.compact();
    assert_eq!(last(&index), Some(old_max * 10));
    assert!(found(&index));
}

#[test]
fn undersized_insert_extends_first_partition() {
    let (mut index, _, _, hasher) = build_world(300, 4);
    let before_lower = index.ensemble().partition_stats()[0].lower;
    assert!(before_lower > 1);
    let tiny = MinHasher::synthetic_values(88, 1);
    let sig = hasher.signature(tiny.iter().copied());
    commit_inserts(&mut index, &[(88_888, 1, sig.clone())]);
    let lowest = |index: &RankedIndex| index.ensemble().partition_stats()[0].lower;
    let found = |index: &RankedIndex| {
        let hits = index.ensemble().query_with_size(&sig, 1, 1.0);
        hits.contains(&88_888)
    };
    // Sealed, the tiny domain is covered by its own tier…
    let stats = index.ensemble().partition_stats();
    assert_eq!(stats.iter().map(|p| p.lower).min(), Some(1));
    assert_eq!(lowest(&index), before_lower, "a commit moved the base");
    assert!(found(&index));
    // …and compaction rebuilds it into the base: the first partition now
    // starts at its size.
    index.compact();
    assert_eq!(lowest(&index), 1);
    assert!(found(&index));
}

#[test]
fn rebuild_restores_balanced_partitions_after_drift() {
    // 400 inserts, each larger than most of the built corpus, sealed into a
    // segment: the base no longer describes the corpus. Compaction rebuilds
    // the equi-depth partitioning from the live rows (the §6.2 remedy): the
    // layout a fresh build of the whole corpus has, counts balanced.
    let (mut index, signatures, sizes, hasher) = build_world(400, 5);
    let mut fresh = RankedIndex::builder_with(config());
    for (i, sig) in signatures.iter().enumerate() {
        fresh.add(i as u32, sizes[i], sig.clone());
    }
    let drift: Vec<(u32, u64, Signature)> = (0..400u32)
        .map(|i| {
            let vals = MinHasher::synthetic_values(70_000 + u64::from(i), 500 + i as usize);
            (
                30_000 + i,
                vals.len() as u64,
                hasher.signature(vals.iter().copied()),
            )
        })
        .collect();
    for (id, size, sig) in &drift {
        fresh.add(*id, *size, sig.clone());
    }
    commit_inserts(&mut index, &drift);
    let base = index.ensemble().num_partitions();
    assert!(index.ensemble().partition_stats().len() > base, "sealed");

    let report = index.compact();
    assert_eq!(report.entries_folded, 800);
    let stats = index.ensemble().partition_stats();
    assert_eq!(stats, fresh.build().ensemble().partition_stats());
    let counts = stats.iter().map(|p| p.count);
    let (min, max) = (counts.clone().min(), counts.max());
    assert_eq!((min, max), (Some(100), Some(100)), "{stats:?}");
}
