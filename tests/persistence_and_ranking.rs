//! Cross-crate integration: persistence round-trips a generated-corpus
//! index without changing any answer, and ranked / top-k search agrees
//! with exact ground truth.

use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query};
use lshe_corpus::ExactIndex;
use lshe_datagen::{generate_catalog, sample_queries, CorpusConfig, SizeBand};
use lshe_minhash::{codec::signature_wire, MinHasher, Signature};

fn world(n: usize, seed: u64) -> (lshe_corpus::Catalog, Vec<Signature>, ExactIndex, Vec<u32>) {
    let catalog = generate_catalog(&CorpusConfig::tiny(n, seed));
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let exact = ExactIndex::build(&catalog);
    let queries = sample_queries(&catalog, 40, SizeBand::All, seed + 1);
    (catalog, signatures, exact, queries)
}

#[test]
fn persisted_index_answers_identically_on_generated_corpus() {
    let (catalog, signatures, _, queries) = world(800, 101);
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let original = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 8 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );
    let restored = LshEnsemble::from_bytes(&original.to_bytes()).expect("roundtrip");
    for &q in &queries {
        for t in [0.2, 0.5, 0.8, 1.0] {
            assert_eq!(
                original.query_with_size(&signatures[q as usize], sizes[q as usize], t),
                restored.query_with_size(&signatures[q as usize], sizes[q as usize], t),
                "query {q} diverged at t = {t} after persistence"
            );
        }
    }
}

#[test]
fn signature_wire_format_survives_client_server_exchange() {
    // Simulates the paper's deployment: the client sketches a query
    // locally, ships the wire bytes, and the server must get identical
    // search results from the decoded signature.
    let (catalog, signatures, _, queries) = world(400, 102);
    let ids: Vec<u32> = catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = signatures.iter().collect();
    let index = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    );
    for &q in queries.iter().take(10) {
        let wire = signature_wire::encode(&signatures[q as usize]);
        let received = signature_wire::decode(&wire).expect("decode");
        assert_eq!(
            index.query_with_size(&signatures[q as usize], sizes[q as usize], 0.6),
            index.query_with_size(&received, sizes[q as usize], 0.6),
        );
    }
}

#[test]
fn top_k_hits_are_the_exact_top_k_within_estimation_noise() {
    let (catalog, signatures, exact, queries) = world(600, 103);
    let mut builder = LshEnsemble::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 8 },
        ..EnsembleConfig::default()
    });
    for (id, d) in catalog.iter() {
        builder.add(id, d.len() as u64, signatures[id as usize].clone());
    }
    let ranked = builder.build();

    for &q in queries.iter().take(15) {
        let query = catalog.domain(q);
        let top5 = Query::top_k(&signatures[q as usize], 5).with_size(query.len() as u64);
        let hits = ranked.search(&top5).expect("valid query").hits;
        assert!(!hits.is_empty());
        // The self-match (exact containment 1.0) must appear.
        assert!(
            hits.iter().any(|h| h.id == q),
            "query {q}: self missing from top-5 {hits:?}"
        );
        // Every reported hit must have substantial true containment —
        // estimates are noisy (±0.1 typical) but the top-5 of a corpus
        // with a guaranteed exact match should not contain near-zero
        // true scores.
        let scores = exact.scores(query);
        for h in &hits {
            let truth = scores
                .iter()
                .find(|&&(id, _)| id == h.id)
                .map_or(0.0, |&(_, s)| s);
            let estimate = h.estimate.expect("ranked index attaches estimates");
            assert!(
                truth > 0.05 || estimate < 0.3,
                "query {q}: hit {} has true containment {truth} but estimate {estimate}",
                h.id
            );
        }
    }
}

#[test]
fn ranked_estimates_close_to_exact_scores() {
    let (catalog, signatures, exact, queries) = world(500, 104);
    let m = signatures[0].len() as f64; // actual signature width
    let mut builder = LshEnsemble::builder();
    for (id, d) in catalog.iter() {
        builder.add(id, d.len() as u64, signatures[id as usize].clone());
    }
    let ranked = builder.build();
    let mut worst: f64 = 0.0;
    for &q in queries.iter().take(15) {
        let query = catalog.domain(q);
        let scores = exact.scores(query);
        // Every candidate at t* = 0.3 whose estimate clears 0.3 − ESTIMATE_SLACK.
        let threshold =
            Query::threshold(&signatures[q as usize], 0.3).with_size(query.len() as u64);
        for h in ranked.search(&threshold).expect("valid query").hits {
            let estimate = h.estimate.expect("ranked index attaches estimates");
            let truth = scores
                .iter()
                .find(|&&(id, _)| id == h.id)
                .map_or(0.0, |&(_, s)| s);
            // The estimate converts a Jaccard estimate ŝ (binomial noise
            // σ_s = √(s(1−s)/m)) through t = (x/q+1)·s/(1+s), so by the
            // delta method its own σ is amplified by the conversion's
            // slope (x/q+1)/(1+s)². Check the error in σ units rather
            // than absolutely: small queries against large domains are
            // legitimately noisy (x/q ≈ 25 occurs in this corpus).
            let (x, _) = ranked.sketch(h.id).expect("hit is indexed");
            let s_true =
                lshe_minhash::jaccard_from_containment(truth, x as f64, query.len() as f64);
            let sigma_s = (s_true.max(1.0 / m) * (1.0 - s_true) / m).sqrt();
            let slope = (x as f64 / query.len() as f64 + 1.0) / (1.0 + s_true).powi(2);
            let sigma_t = slope * sigma_s;
            let err = (truth - estimate).abs();
            let envelope = 6.0 * sigma_t + 0.02;
            assert!(
                err <= envelope,
                "query {q}, hit {}: est {estimate} vs truth {truth} (err {err}, σ_t {sigma_t})",
                h.id
            );
            worst = worst.max(err / envelope);
        }
    }
    // Across all (query, hit) pairs the worst envelope-relative error must
    // stay inside the joint bound — a systematic estimator bug (for
    // example a wrong conversion constant) would blow through this
    // immediately.
    assert!(worst <= 1.0, "worst envelope-relative error {worst}");
}
