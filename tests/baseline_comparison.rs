//! Cross-index comparison on a skewed corpus: the LSH Ensemble must beat
//! the MinHash LSH baseline on precision and Asymmetric Minwise Hashing on
//! recall — the paper's central experimental claim (§6.1).

use lshe_core::{AsymIndex, DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query};
use lshe_corpus::{Catalog, ExactIndex};
use lshe_datagen::{
    aggregate, generate_catalog, query_accuracy, sample_queries, CorpusConfig, SizeBand,
};
use lshe_minhash::{MinHasher, Signature};

fn skewed_world() -> (Catalog, Vec<Signature>, ExactIndex, Vec<u32>) {
    // Wider size range than the tiny config → heavier skew → stronger
    // separation between the index families.
    let mut cfg = CorpusConfig::tiny(4_000, 13);
    cfg.max_size = 1 << 13;
    let catalog = generate_catalog(&cfg);
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let exact = ExactIndex::build(&catalog);
    let queries = sample_queries(&catalog, 100, SizeBand::All, 3);
    (catalog, signatures, exact, queries)
}

fn accuracy(
    index: &dyn DomainIndex,
    catalog: &Catalog,
    signatures: &[Signature],
    exact: &ExactIndex,
    queries: &[u32],
    t_star: f64,
) -> (f64, f64, usize) {
    let per_query: Vec<_> = queries
        .iter()
        .map(|&q| {
            let truth = exact.search(catalog.domain(q), t_star);
            let query = Query::threshold(&signatures[q as usize], t_star)
                .with_size(catalog.domain(q).len() as u64);
            let answer = index.search(&query).expect("valid query").ids();
            query_accuracy(&answer, &truth)
        })
        .collect();
    let agg = aggregate(&per_query);
    (agg.precision, agg.recall, agg.empty_answers)
}

#[test]
fn ensemble_beats_baseline_on_precision() {
    let (catalog, signatures, exact, queries) = skewed_world();
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();

    let baseline = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::Single,
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );
    let ensemble = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 16 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );

    let (pb, rb, _) = accuracy(&baseline, &catalog, &signatures, &exact, &queries, 0.5);
    let (pe, re, _) = accuracy(&ensemble, &catalog, &signatures, &exact, &queries, 0.5);
    assert!(pe > pb + 0.05, "precision: ensemble {pe} vs baseline {pb}");
    assert!(re > 0.8, "ensemble recall {re}");
    assert!(rb > 0.8, "baseline recall {rb}");
}

#[test]
fn asym_recall_collapses_under_skew_but_ensemble_does_not() {
    let (catalog, signatures, exact, queries) = skewed_world();
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();

    let mut asym_builder = AsymIndex::builder();
    for ((id, size), sig) in ids.iter().zip(&sizes).zip(&signatures) {
        asym_builder.add(*id, *size, sig.clone());
    }
    let asym = asym_builder.build();
    let ensemble = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 16 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );

    let (_, r_asym, empty_asym) = accuracy(&asym, &catalog, &signatures, &exact, &queries, 0.8);
    let (_, r_ens, empty_ens) = accuracy(&ensemble, &catalog, &signatures, &exact, &queries, 0.8);

    assert!(
        r_ens > r_asym + 0.3,
        "ensemble recall {r_ens} must far exceed Asym's {r_asym} under skew"
    );
    assert!(
        empty_asym > empty_ens,
        "Asym should return more empty answers ({empty_asym} vs {empty_ens})"
    );
    // The paper: most Asym results are empty at high thresholds.
    assert!(
        empty_asym * 2 > queries.len(),
        "Asym empty answers {empty_asym} of {}",
        queries.len()
    );
}

#[test]
fn all_indexes_agree_on_exact_duplicates() {
    let (catalog, signatures, _, _) = skewed_world();
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let ensemble = LshEnsemble::build_from_parts(EnsembleConfig::default(), &ids, &sizes, &refs);
    let baseline = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::Single,
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );
    for q in [0u32, 500, 1500, 3999] {
        for index in [&ensemble, &baseline] {
            let hits = index.query_with_size(&signatures[q as usize], sizes[q as usize], 1.0);
            assert!(
                hits.contains(&q),
                "{} lost exact duplicate {q}",
                index.describe()
            );
        }
    }
}
