//! End-to-end accuracy: generated corpus → signatures → ensemble → search,
//! measured against exact ground truth. Asserts the paper's qualitative
//! claims at test scale: partitioning buys precision, recall stays high,
//! and the effect strengthens with the partition count.

use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, Unranked};
use lshe_corpus::{Catalog, ExactIndex};
use lshe_datagen::{
    aggregate, generate_catalog, query_accuracy, sample_queries, CorpusConfig, QueryAccuracy,
    SizeBand,
};
use lshe_minhash::{MinHasher, Signature};

struct World {
    catalog: Catalog,
    signatures: Vec<Signature>,
    exact: ExactIndex,
    queries: Vec<u32>,
}

fn world() -> World {
    let catalog = generate_catalog(&CorpusConfig::tiny(3_000, 77));
    let hasher = MinHasher::new(256);
    let signatures: Vec<Signature> = catalog.iter().map(|(_, d)| d.signature(&hasher)).collect();
    let exact = ExactIndex::build(&catalog);
    let queries = sample_queries(&catalog, 120, SizeBand::All, 5);
    World {
        catalog,
        signatures,
        exact,
        queries,
    }
}

fn build(world: &World, strategy: PartitionStrategy) -> LshEnsemble {
    let ids: Vec<u32> = world.catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = world.catalog.iter().map(|(_, d)| d.len() as u64).collect();
    let refs: Vec<&Signature> = world.signatures.iter().collect();
    LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy,
            ..EnsembleConfig::default()
        },
        &ids,
        &sizes,
        &refs,
    )
}

/// Precision and recall of the index's raw candidate set (Algorithm 1).
fn measure(world: &World, index: &LshEnsemble, t_star: f64) -> (f64, f64) {
    let per_query: Vec<QueryAccuracy> = world
        .queries
        .iter()
        .map(|&q| {
            let truth = world.exact.search(world.catalog.domain(q), t_star);
            let query = Query::threshold(&world.signatures[q as usize], t_star)
                .with_size(world.catalog.domain(q).len() as u64);
            let answer = Unranked(index).search(&query).expect("valid query").ids();
            query_accuracy(&answer, &truth)
        })
        .collect();
    let agg = aggregate(&per_query);
    (agg.precision, agg.recall)
}

#[test]
fn partitioning_improves_precision_keeps_recall() {
    let w = world();
    let baseline = build(&w, PartitionStrategy::Single);
    let ens8 = build(&w, PartitionStrategy::EquiDepth { n: 8 });
    let ens32 = build(&w, PartitionStrategy::EquiDepth { n: 32 });

    let (p1, r1) = measure(&w, &baseline, 0.5);
    let (p8, r8) = measure(&w, &ens8, 0.5);
    let (p32, r32) = measure(&w, &ens32, 0.5);

    // Figure 4's ordering at t* = 0.5.
    assert!(
        p8 > p1,
        "8 partitions must beat baseline precision: {p8} vs {p1}"
    );
    assert!(
        p32 >= p8 - 0.02,
        "32 partitions must not lose precision: {p32} vs {p8}"
    );
    for (label, r) in [("baseline", r1), ("ens8", r8), ("ens32", r32)] {
        assert!(r > 0.8, "{label} recall too low: {r}");
    }
    // Recall may dip slightly with partitioning but must stay close.
    assert!(
        r1 - r32 < 0.1,
        "partitioning cost too much recall: {r1} vs {r32}"
    );
}

#[test]
fn high_threshold_keeps_perfect_matches() {
    let w = world();
    let ens = build(&w, PartitionStrategy::EquiDepth { n: 16 });
    // Every query must find itself at t* = 1.0 (identical signature).
    for &q in &w.queries {
        let hits = ens.query_with_size(
            &w.signatures[q as usize],
            w.catalog.domain(q).len() as u64,
            1.0,
        );
        assert!(hits.contains(&q), "query {q} lost its own exact match");
    }
}

#[test]
fn precision_ordering_holds_across_thresholds() {
    let w = world();
    let baseline = build(&w, PartitionStrategy::Single);
    let ens32 = build(&w, PartitionStrategy::EquiDepth { n: 32 });
    let mut wins = 0usize;
    let thresholds = [0.3, 0.5, 0.7];
    for &t in &thresholds {
        let (pb, _) = measure(&w, &baseline, t);
        let (pe, _) = measure(&w, &ens32, t);
        if pe >= pb {
            wins += 1;
        }
    }
    assert!(
        wins >= 2,
        "ensemble precision should dominate the baseline on most thresholds ({wins}/3)"
    );
}

#[test]
fn answers_are_sorted_and_unique() {
    let w = world();
    let ens = build(&w, PartitionStrategy::EquiDepth { n: 8 });
    for &q in w.queries.iter().take(20) {
        let hits = ens.query_with_size(
            &w.signatures[q as usize],
            w.catalog.domain(q).len() as u64,
            0.4,
        );
        for pair in hits.windows(2) {
            assert!(pair[0] < pair[1], "ids must be sorted unique: {hits:?}");
        }
    }
}

/// The known recall hole (ROADMAP item 1a; `perfbench/README.md` →
/// *Accuracy sample*, where subsets keeping a larger share of a
/// 16 384-value parent found it half of the time): 10–100-value subsets of
/// a 16 384-value domain at t* = 0.5 mostly miss their parent. Pinned here
/// so a change to what a stored lane is cannot deepen it unnoticed;
/// attributing and closing it is item 1's.
///
/// Measured at the commit before rows went to 16-bit tail lanes (32-bit
/// lanes throughout), over the 256 queries below: the parent was among the
/// probe's candidates 23 times and in the ranked answer the same 23 — the
/// probe misses, not the prune: at Jaccard ≈ q/x ≤ 0.006 even
/// `(b, r) = (32, 1)` collides with probability ≈ 32·q/x.
#[test]
fn small_subsets_of_16k_value_domains_are_found_no_less_often_than_recorded() {
    use lshe_datagen::CorpusStream;
    const RECORDED_PROBED: usize = 23;
    const RECORDED_ANSWERED: usize = 23;

    let hasher = MinHasher::new(256);
    let background = CorpusStream::new(CorpusConfig {
        seed: 23,
        ..CorpusConfig::wdc_web_tables_like(3_000)
    });
    // Eight unrelated 16 384-value domains, one to a cluster.
    let giants = CorpusStream::new(CorpusConfig {
        num_domains: 8,
        min_size: 1 << 14,
        max_size: 1 << 14,
        cluster_size: 1,
        subset_fraction: 0.0,
        seed: 24,
        ..CorpusConfig::wdc_web_tables_like(8)
    });
    let mut builder = LshEnsemble::builder_with(EnsembleConfig::default());
    let mut parents = Vec::new();
    for (id, (domain, _)) in (0u32..).zip(background.chain(giants)) {
        builder.add(id, domain.len() as u64, domain.signature(&hasher));
        if domain.len() == 1 << 14 {
            parents.push((id, domain));
        }
    }
    assert!(
        parents.len() >= 8,
        "the corpus holds its 16 384-value domains"
    );
    let index = builder.build();

    let (mut queries, mut probed, mut answered) = (0usize, 0usize, 0usize);
    for (parent, domain) in &parents {
        for (draw, size) in [10usize, 20, 50, 100].iter().cycle().take(32).enumerate() {
            // A strided sample of the parent's values, a different one a draw.
            let stride = domain.len() / size;
            let values = domain.hashes().iter().skip(draw % stride);
            let subset: Vec<u64> = values.step_by(stride).take(*size).copied().collect();
            assert_eq!(subset.len(), *size);
            let sig = hasher.signature(subset.iter().copied());
            let candidates = index.query_with_size(&sig, *size as u64, 0.5);
            let query = Query::threshold(&sig, 0.5).with_size(*size as u64);
            let answer = index.search(&query).expect("valid query").ids();
            queries += 1;
            probed += usize::from(candidates.contains(parent));
            answered += usize::from(answer.contains(parent));
        }
    }
    println!("{queries} subset queries: parent probed {probed}, answered {answered}");
    assert!(
        probed >= RECORDED_PROBED && answered >= RECORDED_ANSWERED,
        "recall hole deepened: probed {probed} (recorded {RECORDED_PROBED}), \
         answered {answered} (recorded {RECORDED_ANSWERED}) of {queries}"
    );
}
