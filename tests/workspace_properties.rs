//! Property-based invariants spanning the workspace crates (proptest).

use lshe_core::{convert, cost, Partitioning, Tuner};
use lshe_corpus::{Domain, Json};
use lshe_minhash::{containment_from_jaccard, jaccard_from_containment, MinHasher};
use proptest::prelude::*;

proptest! {
    /// Eq. 6's two conversions are inverses on the valid containment range.
    #[test]
    fn conversion_roundtrip(
        x in 1u64..100_000,
        q in 1u64..100_000,
        t_frac in 0.0f64..=1.0,
    ) {
        let t = t_frac * (x as f64 / q as f64).min(1.0);
        let s = jaccard_from_containment(t, x as f64, q as f64);
        let back = containment_from_jaccard(s, x as f64, q as f64);
        prop_assert!((back - t).abs() < 1e-9, "t={t} s={s} back={back}");
    }

    /// The conservative threshold (Eq. 7) never exceeds the exact one.
    #[test]
    fn conservative_threshold_is_conservative(
        x in 1u64..10_000,
        extra in 0u64..10_000,
        q in 1u64..10_000,
        t in 0.01f64..=1.0,
    ) {
        let u = x + extra;
        let s_star = convert::jaccard_threshold(t, u, q);
        let exact = jaccard_from_containment(t, x as f64, q as f64);
        prop_assert!(s_star <= exact + 1e-12);
    }

    /// Effective threshold (Prop. 1) is within [0, t*] and hits t* at x = u.
    #[test]
    fn effective_threshold_bounds(
        x in 1u64..10_000,
        extra in 0u64..10_000,
        q in 1u64..10_000,
        t in 0.0f64..=1.0,
    ) {
        let u = x + extra;
        let tx = convert::effective_threshold(t, x, u, q);
        prop_assert!(tx >= 0.0 && tx <= t + 1e-12);
        let at_top = convert::effective_threshold(t, u, u, q);
        prop_assert!((at_top - t).abs() < 1e-12);
    }

    /// FP probability (Eq. 11 generalised) is a probability.
    #[test]
    fn fp_probability_is_probability(
        x in 1u64..5_000,
        extra in 0u64..5_000,
        q in 1u64..5_000,
        t in 0.0f64..=1.0,
    ) {
        let p = cost::fp_probability(t, x, x + extra, q);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// Every partitioning strategy covers all domains exactly once and
    /// keeps its structural invariants.
    #[test]
    fn partitionings_are_valid(
        sizes in prop::collection::vec(1u64..100_000, 1..300),
        n in 1usize..12,
        lambda in 0.0f64..=1.0,
    ) {
        Partitioning::equi_depth(&sizes, n).validate(&sizes);
        Partitioning::equi_width(&sizes, n).validate(&sizes);
        Partitioning::morph(&sizes, n, lambda).validate(&sizes);
        Partitioning::equi_fp(&sizes, n).validate(&sizes);
    }

    /// Equi-depth max false-positive bound never beats the equi-fp
    /// optimiser by more than numerical slack — equi-fp is the optimum the
    /// cost model defines.
    #[test]
    fn equi_fp_minimises_cost(
        sizes in prop::collection::vec(1u64..50_000, 24..200),
    ) {
        let n = 6;
        let opt = Partitioning::equi_fp(&sizes, n);
        let depth = Partitioning::equi_depth(&sizes, n);
        // The greedy/binary-search construction is near-optimal; allow a
        // tolerance factor for discreteness.
        prop_assert!(opt.max_fp_bound() <= depth.max_fp_bound() * 1.5 + 1.0);
    }

    /// Jaccard estimates stay within the 4σ binomial envelope of the exact
    /// value for random overlapping sets.
    #[test]
    fn minhash_estimate_concentrates(
        shared in 10usize..200,
        only_a in 0usize..200,
        only_b in 0usize..200,
        seed in 0u64..1_000,
    ) {
        let m = 256usize;
        let hasher = MinHasher::new(m);
        let sh = MinHasher::synthetic_values(seed, shared);
        let ax = MinHasher::synthetic_values(seed + 1_000_000, only_a);
        let bx = MinHasher::synthetic_values(seed + 2_000_000, only_b);
        let a: Vec<u64> = sh.iter().chain(ax.iter()).copied().collect();
        let b: Vec<u64> = sh.iter().chain(bx.iter()).copied().collect();
        let truth = shared as f64 / (shared + only_a + only_b) as f64;
        let est = hasher.signature(a).jaccard(&hasher.signature(b));
        let sigma = (truth * (1.0 - truth) / m as f64).sqrt();
        prop_assert!(
            (est - truth).abs() <= 5.0 * sigma + 0.02,
            "truth {truth}, est {est}"
        );
    }

    /// Domain exact operators agree with std set operations.
    #[test]
    fn domain_ops_match_std_sets(
        a in prop::collection::hash_set(0u64..500, 1..100),
        b in prop::collection::hash_set(0u64..500, 1..100),
    ) {
        let da = Domain::from_hashes(a.iter().copied().collect());
        let db = Domain::from_hashes(b.iter().copied().collect());
        let inter = a.intersection(&b).count();
        prop_assert_eq!(da.intersection_size(&db), inter);
        let t = inter as f64 / a.len() as f64;
        prop_assert!((da.containment_in(&db) - t).abs() < 1e-12);
        let union = a.union(&b).count();
        let j = inter as f64 / union as f64;
        prop_assert!((da.jaccard(&db) - j).abs() < 1e-12);
    }

    /// Tuned parameters always respect the forest grid.
    #[test]
    fn tuner_stays_in_grid(
        u in 1u64..1_000_000,
        q in 1u64..1_000_000,
        t in 0.0f64..=1.0,
    ) {
        let tuner = Tuner::new(32, 8);
        let p = tuner.optimize(u, q, t);
        prop_assert!(p.b >= 1 && p.b <= 32);
        prop_assert!(p.r >= 1 && p.r <= 8);
    }

    /// Signature union is order-independent and idempotent (it computes the
    /// set-union sketch).
    #[test]
    fn signature_union_semantics(
        n_a in 1usize..100,
        n_b in 1usize..100,
        seed in 0u64..1_000,
    ) {
        let hasher = MinHasher::new(64);
        let a = hasher.signature(MinHasher::synthetic_values(seed, n_a));
        let b = hasher.signature(MinHasher::synthetic_values(seed + 5_000_000, n_b));
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    /// Decoders never panic on arbitrary garbage — they must return errors.
    #[test]
    fn decoders_reject_garbage_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        nesting in 0usize..300_000,
    ) {
        let _ = lshe_minhash::codec::signature_wire::decode(&bytes);
        let _ = lshe_lsh::LshForest::from_bytes(&bytes);
        let _ = lshe_core::LshEnsemble::from_bytes(&bytes);
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        // Nesting that would overrun the stack of a parser recursing freely
        // is an error past the 64-deep cap, through both entries.
        let deep = "[".repeat(nesting) + &text;
        prop_assert!(nesting <= 64 || Json::parse(&deep).is_err());
        let lines = [&bytes[..], b"\n", deep.as_bytes()].concat();
        let _ = lshe_corpus::Catalog::new().ingest_jsonl("t", &lines, 1);
    }

    /// Single-byte corruption of a valid index either still decodes (the
    /// flip hit payload data, which the format cannot distinguish) or
    /// errors cleanly — it must never panic.
    #[test]
    fn index_bytes_survive_mutation_without_panicking(
        flip_pos_seed in 0usize..10_000,
        n_domains in 2usize..20,
    ) {
        let hasher = MinHasher::new(64);
        let mut builder = lshe_core::LshEnsemble::builder_with(lshe_core::EnsembleConfig {
            num_perm: 64,
            b_max: 8,
            r_max: 8,
            strategy: lshe_core::PartitionStrategy::EquiDepth { n: 2 },
        });
        for k in 0..n_domains {
            let vals = MinHasher::synthetic_values(k as u64, 10 + k);
            builder.add(k as u32, vals.len() as u64, hasher.signature(vals));
        }
        let ens = builder.build();
        let mut bytes = ens.to_bytes();
        let pos = flip_pos_seed % bytes.len();
        bytes[pos] ^= 0x5A;
        let _ = lshe_core::LshEnsemble::from_bytes(&bytes); // must not panic
    }

    /// The JSON parser round-trips scalar values it produced itself.
    #[test]
    fn json_scalar_roundtrip(s in "[a-zA-Z0-9 _.-]{0,40}") {
        let encoded = format!("\"{s}\"");
        let parsed = Json::parse(&encoded).expect("valid string literal");
        prop_assert_eq!(parsed, Json::Str(s));
    }
}
