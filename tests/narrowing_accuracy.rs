//! What narrow lanes cost in accuracy: nothing measurable.
//!
//! A [`Signature`] holds each 64-bit Mersenne-61 minimum narrowed to its top
//! 32 bits, and an indexed row keeps only the first key lane of each prefix
//! tree that wide — the other 224 of 256 lanes as their low 16 bits
//! ([`narrow_lane`]). Equal minima stay equal lanes at either width; two
//! *different* minima become equal lanes only by accident: at most
//! `|X|·2⁻³²` per 32-bit lane, at most `max(2⁻¹⁶, |X|·2⁻³²)` per 16-bit one.
//!
//! This test folds a seeded power-law corpus to the 64-bit minima with
//! [`FoldKernel::fold`] as the reference and checks, for every (query,
//! candidate) pair the index verifies, that the stored-row match count is
//! the 64-bit one but for the expected handful; that the probe's candidate
//! set is the one 32-bit keys give, at every `(b, r)` the tuner picks; and
//! that rows equal on every tail are still told apart by their heads.

use lshe_core::{
    DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, RowBuf, Tuner,
};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_lsh::LshForest;
use lshe_minhash::perm::EMPTY_SLOT;
use lshe_minhash::{count_equal, narrow_lane, FoldKernel, MinHasher, Signature};

const T_STAR: f64 = 0.5;

#[test]
fn narrowed_match_counts_equal_the_64_bit_ones() {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let m = hasher.num_perm();
    let kernel = FoldKernel::new(hasher.family().permutations());
    let config = EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 32 },
        ..EnsembleConfig::default()
    };
    // 5 000 domains, power law α = 2 over sizes 1…2^14.
    let corpus = CorpusStream::new(CorpusConfig {
        seed: 16,
        ..CorpusConfig::wdc_web_tables_like(5_000)
    });
    let mut wide: Vec<Vec<u64>> = Vec::new();
    let mut sketches: Vec<(u64, Signature)> = Vec::new();
    let mut builder = LshEnsemble::builder_with(config);
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
    let (_, row) = index.sketch(0).expect("indexed");
    let layout = row.layout();
    assert_eq!((layout.b_max, row.tails().len()), (32, 224));
    assert_eq!(layout.row_bytes(), 576);
    let tails = row.tails().len() as f64;

    // Pair by pair: 64-bit minima → 32-bit lanes → the stored row.
    let (mut pairs, mut expected32, mut expected16) = (0usize, 0.0f64, 0.0f64);
    let (mut differing32, mut differing16) = (Vec::new(), Vec::new());
    for q in 0..sketches.len() {
        let (q_size, q_sig) = &sketches[q];
        let query = RowBuf::narrow(layout, q_sig.slots());
        for x in index.query_with_size(q_sig, *q_size, T_STAR) {
            let (x_size, x_sig) = &sketches[x as usize];
            let (_, stored) = index.sketch(x).expect("candidate is indexed");
            let stored = query.as_row().count_equal(&stored);
            let lanes = count_equal(q_sig.slots(), x_sig.slots());
            let minima = wide[q].iter().zip(&wide[x as usize]);
            let minima = minima.filter(|(a, b)| a == b).count();
            assert!(
                stored >= lanes && lanes >= minima,
                "narrowing never separates equal minima"
            );
            if lanes != minima {
                differing32.push((q, x, minima, lanes));
            }
            if stored != lanes {
                differing16.push((q, x, lanes, stored));
            }
            pairs += 1;
            let per_lane32 = *q_size.max(x_size) as f64 / (1u64 << 32) as f64;
            expected32 += m as f64 * per_lane32;
            expected16 += tails * per_lane32.max(1.0 / f64::from(1u32 << 16));
        }
    }
    println!(
        "{pairs} verified pairs; differing 64 → 32 bits: {} ({expected32:.4} expected); \
         32 → 16-bit tails: {} ({expected16:.4} expected)",
        differing32.len(),
        differing16.len()
    );
    assert!(pairs > 10_000, "only {pairs} verified pairs: not a test");
    for (q, x, minima, lanes) in &differing32 {
        println!("query {q} × candidate {x}: {minima} equal minima, {lanes} equal lanes");
    }
    for (q, x, lanes, stored) in &differing16 {
        println!("query {q} × candidate {x}: {lanes} equal lanes, {stored} equal as stored");
    }
    assert!(
        differing32.len() as f64 <= 4.0 * expected32,
        "{} of {pairs} pairs differ at 32 bits; {expected32:.3} expected",
        differing32.len()
    );
    // Σ 224·max(2⁻¹⁶, |X|·2⁻³²) is an upper bound on the mean (lanes that
    // already agree cannot collide); allow it twice over.
    assert!(
        differing16.len() as f64 <= 2.0 * expected16,
        "{} of {pairs} pairs differ at 16 bits; {expected16:.3} expected",
        differing16.len()
    );

    // Candidate sets: the index against a filter over the 32-bit lanes, with
    // the partitioning the build used and the `(b, r)` the tuner picks for
    // each partition. Every fifth domain queries.
    let sizes: Vec<u64> = sketches.iter().map(|(size, _)| *size).collect();
    let partitioning = config.strategy.partition(&sizes);
    let tuner = Tuner::new(config.b_max as u32, config.r_max as u32);
    let mut picked = std::collections::BTreeSet::new();
    let mut extras = Vec::new();
    for q in (0..sketches.len()).step_by(5) {
        let (q_size, q_sig) = &sketches[q];
        let lanes = q_sig.slots();
        let mut reference = Vec::new();
        for part in partitioning.parts() {
            if (part.upper as f64) < T_STAR * *q_size as f64 {
                continue;
            }
            let params = tuner.optimize(part.upper, *q_size, T_STAR);
            let (b, r) = (params.b as usize, params.r as usize);
            picked.insert((b, r));
            let shares_a_prefix = |x: &[u32]| {
                (0..b).any(|t| {
                    let at = t * config.r_max;
                    x[at..at + r] == lanes[at..at + r]
                })
            };
            let members = part.members.iter().copied();
            reference.extend(members.filter(|&x| shares_a_prefix(sketches[x as usize].1.slots())));
        }
        reference.sort_unstable();
        let candidates = index.query_with_size(q_sig, *q_size, T_STAR);
        let lost = reference.iter().filter(|x| !candidates.contains(x)).count();
        assert_eq!(lost, 0, "query {q}: a 32-bit candidate is no 16-bit one");
        let answer = index
            .search(&Query::threshold(q_sig, T_STAR).with_size(*q_size))
            .expect("valid query")
            .ids();
        for x in candidates {
            if reference.binary_search(&x).is_err() {
                extras.push((q, x, answer.contains(&x)));
            }
        }
    }
    println!(
        "{} (b, r) pairs picked: {picked:?}; {} candidates beyond the 32-bit sets",
        picked.len(),
        extras.len()
    );
    assert!(picked.iter().any(|&(_, r)| r > 1), "tails were compared");
    for (q, x, answered) in &extras {
        println!("query {q}: extra candidate {x}, in the answer: {answered}");
    }
    assert!(
        extras.iter().all(|&(_, _, answered)| !answered),
        "an extra candidate survived the rank's prune"
    );
}

/// The adversarial case: two rows equal on all 224 sixteen-bit tails and
/// different on every head. Every tree tells them apart at every depth,
/// staged and committed, and the estimate sees 224 of 256 lanes agree.
#[test]
fn rows_equal_on_every_tail_are_told_apart_by_every_tree() {
    let low: Vec<u32> = (0..256u32)
        .map(|l| l.wrapping_mul(0x9E37) & 0xffff)
        .collect();
    let high: Vec<u32> = low.iter().map(|&l| l | 1 << 20).collect();
    assert!(low
        .iter()
        .zip(&high)
        .all(|(&a, &b)| a != b && narrow_lane(a) == narrow_lane(b)));
    let mut forest = LshForest::with_width(32, 8, 256);
    forest.insert(1, &low[..]);
    forest.insert(2, &high[..]);
    assert_eq!(forest.row(0).tails(), forest.row(1).tails());
    assert!((0..32).all(|t| forest.row(0).head(t) != forest.row(1).head(t)));
    assert_eq!(forest.row(0).count_equal(&forest.row(1)), 224);
    for committed in [false, true] {
        if committed {
            forest.commit();
        }
        for (lanes, id) in [(&low, 1), (&high, 2)] {
            let sig = Signature::from_slots(lanes.clone());
            for r in 1..=8 {
                let mut out = Vec::new();
                forest.query_into(&sig, 32, r, &mut out);
                assert_eq!(out, vec![id; 32], "r = {r}, committed = {committed}");
            }
        }
    }
}
