//! What keeping 32-bit lanes costs in accuracy: nothing measurable.
//!
//! A [`Signature`] holds each 64-bit Mersenne-61 minimum narrowed to its top
//! 32 bits. Equal minima stay equal; two *different* minima become equal
//! lanes only when they lie within 2²⁹ of each other, at most `|X|·2⁻³²` per
//! lane. This test folds a seeded power-law corpus to the 64-bit minima
//! with [`FoldKernel::fold`] as the reference and checks, for every
//! (query, candidate) pair the index verifies, that the 32-bit match count
//! is the 64-bit one.

use lshe_core::{EnsembleConfig, PartitionStrategy, RankedIndex};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::perm::EMPTY_SLOT;
use lshe_minhash::{count_equal, FoldKernel, MinHasher, Signature};

#[test]
fn narrowed_match_counts_equal_the_64_bit_ones() {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let m = hasher.num_perm();
    let kernel = FoldKernel::new(hasher.family().permutations());
    // 5 000 domains, power law α = 2 over sizes 1…2^14.
    let corpus = CorpusStream::new(CorpusConfig {
        seed: 16,
        ..CorpusConfig::wdc_web_tables_like(5_000)
    });
    let mut wide: Vec<Vec<u64>> = Vec::new();
    let mut sketches: Vec<(u64, Signature)> = Vec::new();
    let mut builder = RankedIndex::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 32 },
        ..EnsembleConfig::default()
    });
    for (id, (domain, _)) in corpus.enumerate() {
        let mut minima = vec![EMPTY_SLOT; m];
        kernel.fold(domain.hashes().iter().copied(), &mut minima);
        let sig = hasher.signature(domain.hashes().iter().copied());
        assert_eq!(sig, Signature::from_wide(&minima), "one narrowing");
        builder.add(id as u32, domain.len() as u64, sig.clone());
        sketches.push((domain.len() as u64, sig));
        wide.push(minima);
    }
    let index = builder.build();

    let (mut pairs, mut expected) = (0usize, 0.0f64);
    let mut differing = Vec::new();
    for q in 0..sketches.len() {
        let (q_size, q_sig) = &sketches[q];
        for x in index.ensemble().query_with_size(q_sig, *q_size, 0.5) {
            let (x_size, x_sig) = &sketches[x as usize];
            let narrow = count_equal(q_sig.slots(), x_sig.slots());
            let wide = wide[q].iter().zip(&wide[x as usize]);
            let wide = wide.filter(|(a, b)| a == b).count();
            assert!(narrow >= wide, "narrowing never separates equal minima");
            if narrow != wide {
                differing.push((q, x, wide, narrow));
            }
            pairs += 1;
            expected += (*q_size.max(x_size) * m as u64) as f64 / (1u64 << 32) as f64;
        }
    }
    println!("{pairs} verified pairs, {expected:.4} differing expected");
    assert!(pairs > 10_000, "only {pairs} verified pairs: not a test");
    for (q, x, wide, narrow) in &differing {
        println!("query {q} × candidate {x}: {wide} equal minima, {narrow} equal lanes");
    }
    assert!(
        differing.len() as f64 <= 4.0 * expected,
        "{} of {pairs} pairs differ; {expected:.3} expected",
        differing.len()
    );
}
