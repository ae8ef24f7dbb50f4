//! Property-based equivalence of batched and looped query execution:
//! for ARBITRARY query mixes — threshold and top-k interleaved, explicit
//! and estimated sizes, plus deliberately malformed queries — every
//! backend's `search_batch` must agree with mapping `search` (a batch of
//! one) over the same queries, item by item — a check that an answer does
//! not depend on the batch's shape: identical hits (ids and estimates),
//! identical deterministic `QueryStats` fields, and identical typed
//! errors in identical positions. `wall_micros` is the one field allowed
//! to differ (it reports timing, not the answer).
//!
//! The corpus and the four sketch backends are built once (`OnceLock`)
//! and shared across cases: the property is about query execution, not
//! index construction.

use lshe_core::{
    AsymIndex, AsymIndexBuilder, DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy,
    Query, QueryError, SearchOutcome, Unranked,
};
use lshe_lsh::DomainId;
use lshe_minhash::{MinHasher, Signature};
use proptest::prelude::*;
use std::sync::OnceLock;

const N: usize = 16;
const STEP: usize = 20;
const NUM_PERM: usize = 64;

fn config() -> EnsembleConfig {
    EnsembleConfig {
        num_perm: NUM_PERM,
        b_max: 8,
        r_max: 8,
        strategy: PartitionStrategy::EquiDepth { n: 4 },
    }
}

struct World {
    entries: Vec<(DomainId, u64, Signature)>,
    backends: Vec<(&'static str, Box<dyn DomainIndex>)>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let hasher = MinHasher::new(NUM_PERM);
        let pool = MinHasher::synthetic_values(4242, STEP * N);
        let entries: Vec<(DomainId, u64, Signature)> = (0..N)
            .map(|k| {
                let vals = &pool[..STEP * (k + 1)];
                (
                    k as DomainId,
                    vals.len() as u64,
                    hasher.signature(vals.iter().copied()),
                )
            })
            .collect();
        let mut ensemble = LshEnsemble::builder_with(config());
        let mut asym = AsymIndexBuilder::new(config());
        for (id, size, sig) in &entries {
            ensemble.add(*id, *size, sig.clone());
            asym.add(*id, *size, sig.clone());
        }
        // The world lives as long as the process, so the unranked view may
        // borrow its ensemble for as long.
        let ensemble: &'static LshEnsemble = Box::leak(Box::new(ensemble.build()));
        let backends: Vec<(&'static str, Box<dyn DomainIndex>)> = vec![
            ("ensemble", Box::new(ensemble.clone())),
            ("unranked", Box::new(Unranked(ensemble))),
            ("asym", Box::new(asym.build())),
            (
                "asym_partitioned",
                Box::new(AsymIndex::build(&config(), 4, &entries)),
            ),
        ];
        World { entries, backends }
    })
}

/// One decoded batch entry, derived deterministically from a script word.
enum Plan {
    Threshold { q: usize, t: f64, sized: bool },
    TopK { q: usize, k: usize, sized: bool },
    BadThreshold { q: usize },
    BadK { q: usize },
    BadSize { q: usize },
}

fn decode(word: u64) -> Plan {
    let q = (word % N as u64) as usize;
    let param = (word >> 16) % 64;
    let sized = (word >> 32) & 1 == 0;
    match (word >> 8) % 8 {
        // Threshold queries dominate the mix, as in real traffic.
        0..=4 => Plan::Threshold {
            q,
            t: (param % 11) as f64 / 10.0,
            sized,
        },
        5 => Plan::TopK {
            q,
            k: 1 + (param as usize % (2 * N)),
            sized,
        },
        6 => Plan::BadThreshold { q },
        7 if param.is_multiple_of(2) => Plan::BadK { q },
        _ => Plan::BadSize { q },
    }
}

fn build_query<'a>(plan: &Plan, entries: &'a [(DomainId, u64, Signature)]) -> Query<'a> {
    match *plan {
        Plan::Threshold { q, t, sized } => {
            let (_, size, ref sig) = entries[q];
            let query = Query::threshold(sig, t);
            if sized {
                query.with_size(size)
            } else {
                query
            }
        }
        Plan::TopK { q, k, sized } => {
            let (_, size, ref sig) = entries[q];
            let query = Query::top_k(sig, k);
            if sized {
                query.with_size(size)
            } else {
                query
            }
        }
        Plan::BadThreshold { q } => Query::threshold(&entries[q].2, 1.5),
        Plan::BadK { q } => Query::top_k(&entries[q].2, 0),
        Plan::BadSize { q } => Query::threshold(&entries[q].2, 0.5).with_size(0),
    }
}

fn matches_looped(
    label: &str,
    batched: &Result<SearchOutcome, QueryError>,
    looped: &Result<SearchOutcome, QueryError>,
) -> Result<(), TestCaseError> {
    match (batched, looped) {
        (Ok(b), Ok(l)) => {
            prop_assert!(b.hits == l.hits, "{label}: hits diverge");
            prop_assert!(
                b.stats.partitions_probed == l.stats.partitions_probed
                    && b.stats.partitions_total == l.stats.partitions_total
                    && b.stats.candidates == l.stats.candidates
                    && b.stats.survivors == l.stats.survivors,
                "{label}: deterministic stats diverge: {:?} vs {:?}",
                b.stats,
                l.stats
            );
        }
        (Err(b), Err(l)) => prop_assert!(b == l, "{label}: errors diverge: {b:?} vs {l:?}"),
        (b, l) => {
            return Err(TestCaseError::fail(format!(
                "{label}: batched {b:?} vs looped {l:?}"
            )))
        }
    }
    Ok(())
}

proptest! {
    /// The headline property: `search_batch` ≡ mapped `search`, per item,
    /// for arbitrary mixes on every backend.
    #[test]
    fn search_batch_equals_mapped_search(
        script in prop::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let w = world();
        let plans: Vec<Plan> = script.into_iter().map(decode).collect();
        let queries: Vec<Query<'_>> = plans.iter().map(|p| build_query(p, &w.entries)).collect();
        for (name, index) in &w.backends {
            let batched = index.search_batch(&queries);
            prop_assert!(batched.len() == queries.len(), "{name}: result count");
            for (i, (b, q)) in batched.iter().zip(&queries).enumerate() {
                let looped = index.search(q);
                matches_looped(&format!("{name} item {i}"), b, &looped)?;
            }
        }
    }

    /// Chunk-boundary stress: the same batch must answer identically
    /// whatever its length — append a prefix of itself and the shared
    /// prefix of results must not move.
    #[test]
    fn batch_answers_do_not_depend_on_batch_shape(
        script in prop::collection::vec(0u64..u64::MAX, 2..12),
        extra in 1usize..8,
    ) {
        let w = world();
        let plans: Vec<Plan> = script.into_iter().map(decode).collect();
        let queries: Vec<Query<'_>> = plans.iter().map(|p| build_query(p, &w.entries)).collect();
        let mut extended = queries.clone();
        extended.extend(queries.iter().take(extra.min(queries.len())).cloned());
        for (name, index) in &w.backends {
            let short = index.search_batch(&queries);
            let long = index.search_batch(&extended);
            for (i, (s, l)) in short.iter().zip(long.iter()).enumerate() {
                matches_looped(&format!("{name} prefix item {i}"), l, s)?;
            }
        }
    }
}
