//! Cross-backend conformance suite for the unified `DomainIndex` surface.
//!
//! Every index in the workspace — the LSH Ensemble, its memory-mapped
//! variant, and the paper's §6.1 baselines (Asym, Asym + partitioning) —
//! is driven over
//! ONE shared generated corpus through `Box<dyn DomainIndex>`, and the
//! answers are checked against the exact (inverted-index) ground truth:
//!
//! * the exact self-match is always found,
//! * recall over size-comparable true containers stays high,
//! * containment estimates (where a backend produces them) agree with the
//!   exact scores,
//! * `QueryStats` are self-consistent (candidates ≥ survivors, partitions
//!   probed ≤ total), and
//! * malformed and unsupported queries come back as typed errors, never
//!   panics.

use lshe_core::{
    pack_ranked_to, AsymIndexBuilder, AsymPartitionedIndex, CommitReport, DomainIndex,
    EnsembleConfig, LshEnsemble, MmapIndex, Mutation, MutationError, PartitionStrategy, Query,
    QueryError,
};
use lshe_corpus::{Catalog, Domain, DomainMeta, ExactIndex};
use lshe_lsh::DomainId;
use lshe_minhash::hash::SeedStream;
use lshe_minhash::{MinHasher, Signature};
use std::sync::atomic::{AtomicU64, Ordering};

const N: usize = 24;
const STEP: usize = 25;
const PARTS: usize = 8;

/// Corpus seed: `LSHE_TEST_SEED` when set (CI runs the suite under two
/// different values as a flakiness guard), else the historical default.
fn test_seed() -> u64 {
    std::env::var("LSHE_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(77)
}

/// The shared corpus: nested pool domains, domain k = first 25·(k+1)
/// values — so containment relations are known exactly and domain sizes
/// span 25..600 (a 24× skew, enough to exercise partitioning).
struct World {
    values: Vec<Vec<u64>>,
    entries: Vec<(DomainId, u64, Signature)>,
    exact: ExactIndex,
}

fn world() -> World {
    let hasher = MinHasher::new(256);
    let pool = MinHasher::synthetic_values(test_seed(), STEP * N);
    let mut catalog = Catalog::new();
    let mut values = Vec::new();
    let mut entries = Vec::new();
    for k in 0..N {
        let vals: Vec<u64> = pool[..STEP * (k + 1)].to_vec();
        let sig = hasher.signature(vals.iter().copied());
        catalog.push(
            Domain::from_hashes(vals.clone()),
            DomainMeta::new(format!("t{k}"), "col"),
        );
        entries.push((k as DomainId, vals.len() as u64, sig));
        values.push(vals);
    }
    World {
        values,
        entries,
        exact: ExactIndex::build(&catalog),
    }
}

fn config() -> EnsembleConfig {
    EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: PARTS },
        ..EnsembleConfig::default()
    }
}

/// Packs `ensemble` into a scratch v2 file and opens it through `mmap(2)`;
/// the file is unlinked immediately (the mapping keeps it alive), so the
/// backend really does answer from borrowed page-cache memory.
fn mmap_backend(ensemble: &LshEnsemble) -> MmapIndex {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "lshe_conformance_{}_{}.lshepk",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    pack_ranked_to(ensemble, &path).expect("pack ranked sections");
    let mapped = MmapIndex::open_verified(&path).expect("open packed file");
    let _ = std::fs::remove_file(&path);
    mapped
}

/// Every sketch-based backend, boxed behind the one trait.
fn backends(w: &World) -> Vec<(&'static str, Box<dyn DomainIndex>)> {
    let mut ensemble = LshEnsemble::builder_with(config());
    let mut asym = AsymIndexBuilder::new(config());
    for (id, size, sig) in &w.entries {
        ensemble.add(*id, *size, sig.clone());
        asym.add(*id, *size, sig.clone());
    }
    let ensemble = ensemble.build();
    let mapped = mmap_backend(&ensemble);
    vec![
        ("ensemble", Box::new(ensemble)),
        ("mmap", Box::new(mapped)),
        ("asym", Box::new(asym.build())),
        (
            "asym_partitioned",
            Box::new(AsymPartitionedIndex::build(&config(), PARTS, &w.entries)),
        ),
    ]
}

/// Exact containment t(Q_q, X_x) in the nested corpus: domain q ⊆ domain x
/// for q ≤ x, else overlap is |X_x| of Q_q's first values.
fn exact_containment(w: &World, q: usize, x: usize) -> f64 {
    let q_len = w.values[q].len() as f64;
    let overlap = w.values[q].len().min(w.values[x].len()) as f64;
    overlap / q_len
}

#[test]
fn every_backend_is_object_safe_and_reports_sane_stats() {
    let w = world();
    for (name, index) in backends(&w) {
        assert_eq!(index.len(), N, "{name}: wrong len");
        assert!(!index.is_empty(), "{name}: empty");
        assert!(index.memory_bytes() > 0, "{name}: no memory accounted");
        assert!(!index.describe().is_empty(), "{name}: empty describe");

        let (id, size, sig) = &w.entries[13];
        let out = index
            .search(&Query::threshold(sig, 0.8).with_size(*size))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            out.ids().contains(id),
            "{name}: exact self-match missing at t*=0.8"
        );
        let s = out.stats;
        assert!(
            s.partitions_probed <= s.partitions_total,
            "{name}: probed {} > total {}",
            s.partitions_probed,
            s.partitions_total
        );
        assert!(s.partitions_total > 0, "{name}: zero partitions");
        assert!(
            s.candidates >= s.survivors,
            "{name}: candidates {} < survivors {}",
            s.candidates,
            s.survivors
        );
        assert_eq!(s.survivors, out.hits.len(), "{name}: survivors ≠ hits");
    }
}

#[test]
fn recall_against_exact_ground_truth() {
    let w = world();
    let indexes = backends(&w);
    for &q in &[7usize, 13, 19] {
        let (_, size, sig) = &w.entries[q];
        for &t in &[0.5, 0.8] {
            // Ground truth through the SAME surface, raw values attached.
            let truth: Vec<DomainId> = DomainIndex::search(
                &w.exact,
                &Query::threshold(sig, t).with_hashes(&w.values[q]),
            )
            .expect("exact search")
            .ids();
            // Size-comparable true answers (x ≤ 3q): the band where the
            // paper's own evaluation expects solid recall (Figure 7 shows
            // recall decaying for x ≫ q).
            let comparable: Vec<DomainId> = truth
                .iter()
                .copied()
                .filter(|&x| w.values[x as usize].len() <= 3 * w.values[q].len())
                .collect();
            assert!(!comparable.is_empty(), "degenerate truth at q={q} t={t}");
            for (name, index) in &indexes {
                let got = index
                    .search(&Query::threshold(sig, t).with_size(*size))
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .ids();
                assert!(got.contains(&(q as DomainId)), "{name}: self missing");
                let found = comparable.iter().filter(|x| got.contains(x)).count();
                assert!(
                    found * 10 >= comparable.len() * 6,
                    "{name} q={q} t={t}: recall {found}/{} over comparable sizes",
                    comparable.len()
                );
            }
        }
    }
}

#[test]
fn containment_estimates_agree_with_exact_scores() {
    let w = world();
    for (name, index) in backends(&w) {
        let q = 13usize;
        let (_, size, sig) = &w.entries[q];
        let out = index
            .search(&Query::threshold(sig, 0.5).with_size(*size))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let with_estimates = out.hits.iter().any(|h| h.estimate.is_some());
        // Ranked backends must estimate; unranked ones must not.
        let should_estimate = matches!(name, "ensemble" | "mmap");
        assert_eq!(
            with_estimates, should_estimate,
            "{name}: estimate presence mismatch"
        );
        if !should_estimate {
            continue;
        }
        for h in &out.hits {
            let est = h.estimate.expect("ranked estimate");
            let exact = exact_containment(&w, q, h.id as usize);
            assert!(
                (est - exact).abs() < 0.25,
                "{name}: id {} estimate {est:.3} vs exact {exact:.3}",
                h.id
            );
        }
        // Estimate order is descending.
        for pair in out.hits.windows(2) {
            assert!(pair[0].estimate >= pair[1].estimate, "{name}: unsorted");
        }
    }
}

#[test]
fn top_k_ranks_the_self_match_first() {
    let w = world();
    for (name, index) in backends(&w) {
        let q = 10usize;
        let (_, size, sig) = &w.entries[q];
        let result = index.search(&Query::top_k(sig, 5).with_size(*size));
        match name {
            "ensemble" | "mmap" => {
                let out = result.unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(out.hits.len(), 5, "{name}: wrong k");
                assert_eq!(out.hits[0].id, q as DomainId, "{name}: self not first");
                assert_eq!(out.hits[0].estimate, Some(1.0), "{name}: self t̂ ≠ 1");
                assert!(
                    out.stats.partitions_probed <= out.stats.partitions_total,
                    "{name}: top-k probe counters inconsistent"
                );
            }
            _ => {
                // Sketch-free-of-estimates backends refuse with a typed
                // error instead of panicking.
                assert!(
                    matches!(result, Err(QueryError::Unsupported(_))),
                    "{name}: expected Unsupported, got {result:?}"
                );
            }
        }
    }
    // The exact engine answers top-k too — with true containments.
    let q = 10usize;
    let (_, _, sig) = &w.entries[q];
    let out = DomainIndex::search(&w.exact, &Query::top_k(sig, 3).with_hashes(&w.values[q]))
        .expect("exact top-k");
    assert_eq!(out.hits.len(), 3);
    assert_eq!(out.hits[0].id, q as DomainId);
    assert_eq!(out.hits[0].estimate, Some(1.0));
}

/// Asserts two search results agree on everything deterministic: the
/// hits (ids AND estimates) and every [`lshe_core::QueryStats`] field
/// except `wall_micros`, which reports timing rather than the answer.
fn assert_result_matches(
    context: &str,
    batched: &Result<lshe_core::SearchOutcome, QueryError>,
    looped: &Result<lshe_core::SearchOutcome, QueryError>,
) {
    match (batched, looped) {
        (Ok(b), Ok(l)) => {
            assert_eq!(b.hits, l.hits, "{context}: hits diverge");
            assert_eq!(
                (
                    b.stats.partitions_probed,
                    b.stats.partitions_total,
                    b.stats.candidates,
                    b.stats.survivors,
                ),
                (
                    l.stats.partitions_probed,
                    l.stats.partitions_total,
                    l.stats.candidates,
                    l.stats.survivors,
                ),
                "{context}: deterministic stats diverge"
            );
        }
        (Err(b), Err(l)) => assert_eq!(b, l, "{context}: errors diverge"),
        (b, l) => panic!("{context}: batched {b:?} vs looped {l:?}"),
    }
}

#[test]
fn search_batch_equals_looped_search_on_every_backend() {
    let w = world();
    // A mixed batch: thresholds across the grid, top-k, estimated sizes,
    // the parallel hint, and malformed queries that must error in
    // position without affecting their neighbours.
    let narrow = MinHasher::new(64).signature([1u64, 2, 3]);
    let mut queries: Vec<Query<'_>> = Vec::new();
    for &(q, t) in &[(3usize, 0.3), (7, 0.5), (13, 0.8), (19, 0.5), (23, 1.0)] {
        let (_, size, sig) = &w.entries[q];
        queries.push(Query::threshold(sig, t).with_size(*size));
    }
    let (_, size5, sig5) = &w.entries[5];
    queries.push(Query::threshold(sig5, 0.5)); // size estimated from the sketch
    queries.push(
        Query::threshold(sig5, 0.6)
            .with_size(*size5)
            .with_parallel(true),
    );
    queries.push(Query::top_k(sig5, 4).with_size(*size5));
    queries.push(Query::top_k(sig5, 500).with_size(*size5)); // k > corpus
    queries.push(Query::threshold(&narrow, 0.5).with_size(3)); // width mismatch
    queries.push(Query::threshold(sig5, 1.5).with_size(*size5)); // bad threshold
    queries.push(Query::top_k(sig5, 0).with_size(*size5)); // k = 0

    for (name, index) in backends(&w) {
        let batched = index.search_batch(&queries);
        assert_eq!(batched.len(), queries.len(), "{name}: result count");
        for (i, (b, q)) in batched.iter().zip(&queries).enumerate() {
            let looped = index.search(q);
            assert_result_matches(&format!("{name} query {i}"), b, &looped);
        }
    }
    // The exact engine answers through the default loop impl; raw hashes
    // attached per query.
    let exact_queries: Vec<Query<'_>> = w
        .entries
        .iter()
        .take(4)
        .map(|(id, size, sig)| {
            Query::threshold(sig, 0.5)
                .with_size(*size)
                .with_hashes(&w.values[*id as usize])
        })
        .collect();
    let batched = DomainIndex::search_batch(&w.exact, &exact_queries);
    for (i, (b, q)) in batched.iter().zip(&exact_queries).enumerate() {
        assert_result_matches(
            &format!("exact query {i}"),
            b,
            &DomainIndex::search(&w.exact, q),
        );
    }
}

#[test]
fn top_k_zero_and_oversized_k_are_normalized() {
    // Pinned semantics, identical on every backend:
    // * `TopK(0)` is `QueryError::Invalid` — validation precedes the
    //   capability check, so even backends that cannot answer top-k at
    //   all report Invalid (not Unsupported) for k = 0;
    // * `k > corpus_len` is NOT an error: backends with sketches return
    //   every domain they can rank (≤ len), backends without report
    //   Unsupported exactly as for any other k.
    let w = world();
    for (name, index) in backends(&w) {
        let (_, size, sig) = &w.entries[6];
        assert!(
            matches!(
                index.search(&Query::top_k(sig, 0).with_size(*size)),
                Err(QueryError::Invalid(_))
            ),
            "{name}: TopK(0) must be Invalid"
        );
        let oversized = index.search(&Query::top_k(sig, 10 * N).with_size(*size));
        match name {
            "ensemble" | "mmap" => {
                let out = oversized.unwrap_or_else(|e| panic!("{name}: oversized k errored: {e}"));
                assert!(
                    !out.hits.is_empty() && out.hits.len() <= N,
                    "{name}: oversized k returned {} hits",
                    out.hits.len()
                );
                assert_eq!(out.stats.survivors, out.hits.len(), "{name}");
            }
            _ => assert!(
                matches!(oversized, Err(QueryError::Unsupported(_))),
                "{name}: oversized k on an unranked backend must stay Unsupported"
            ),
        }
    }
    // The exact engine follows the same rules (true containments).
    let (id, _, sig) = &w.entries[6];
    assert!(matches!(
        DomainIndex::search(
            &w.exact,
            &Query::top_k(sig, 0).with_hashes(&w.values[*id as usize])
        ),
        Err(QueryError::Invalid(_))
    ));
    let out = DomainIndex::search(
        &w.exact,
        &Query::top_k(sig, 10 * N).with_hashes(&w.values[*id as usize]),
    )
    .expect("oversized k is not an error");
    assert!(out.hits.len() <= N);
}

#[test]
fn malformed_queries_are_typed_errors_everywhere() {
    let w = world();
    let narrow = MinHasher::new(64).signature([1u64, 2, 3]);
    for (name, index) in backends(&w) {
        let (_, size, sig) = &w.entries[0];
        // Out-of-range threshold.
        assert!(
            matches!(
                index.search(&Query::threshold(sig, 1.5).with_size(*size)),
                Err(QueryError::Invalid(_))
            ),
            "{name}: bad threshold accepted"
        );
        // Zero k.
        assert!(
            matches!(
                index.search(&Query::top_k(sig, 0).with_size(*size)),
                Err(QueryError::Invalid(_))
            ),
            "{name}: k=0 accepted"
        );
        // Zero size.
        assert!(
            matches!(
                index.search(&Query::threshold(sig, 0.5).with_size(0)),
                Err(QueryError::Invalid(_))
            ),
            "{name}: size=0 accepted"
        );
        // Signature width mismatch.
        assert!(
            matches!(
                index.search(&Query::threshold(&narrow, 0.5).with_size(3)),
                Err(QueryError::Invalid(_))
            ),
            "{name}: width mismatch accepted"
        );
    }
    // The exact engine without raw values is Unsupported, not a panic.
    let (_, _, sig) = &w.entries[0];
    assert!(matches!(
        DomainIndex::search(&w.exact, &Query::threshold(sig, 0.5)),
        Err(QueryError::Unsupported(_))
    ));
}

// ---------------------------------------------------------- mutation phase

/// The one mutable index, built over arbitrary entries.
fn build(entries: &[(DomainId, u64, Signature)]) -> LshEnsemble {
    let mut builder = LshEnsemble::builder_with(config());
    for (id, size, sig) in entries {
        builder.add(*id, *size, sig.clone());
    }
    builder.build()
}

/// The mutation plan: 8 new domains (nested among themselves, disjoint
/// from the original pool), 4 removals spread across size classes, and
/// one more insert the same batch takes back.
struct MutationPlan {
    added: Vec<(DomainId, u64, Signature, Vec<u64>)>,
    removed: Vec<DomainId>,
    cancelled: DomainId,
}

fn mutation_plan() -> MutationPlan {
    let hasher = MinHasher::new(256);
    let fresh_pool = MinHasher::synthetic_values(test_seed() ^ 0xABCD, 45 * 8);
    let added = (0..8)
        .map(|k| {
            let vals: Vec<u64> = fresh_pool[..45 * (k + 1)].to_vec();
            let sig = hasher.signature(vals.iter().copied());
            (100 + k as DomainId, vals.len() as u64, sig, vals)
        })
        .collect();
    MutationPlan {
        added,
        removed: vec![1, 5, 9, 16],
        cancelled: 999,
    }
}

/// The plan as one ordered batch, in an order the test seed draws: its
/// inserts and removes interleaved, the cancelled insert first and its
/// removal anywhere after it.
fn plan_batch(plan: &MutationPlan) -> Vec<Mutation<'_>> {
    let inserts = plan
        .added
        .iter()
        .map(|(id, size, sig, _)| Mutation::Insert(*id, *size, sig));
    let removes = plan.removed.iter().map(|&id| Mutation::Remove(id));
    let mut batch: Vec<Mutation<'_>> = inserts.chain(removes).collect();
    let mut stream = SeedStream::new(test_seed() ^ 0xBA7C);
    let mut draw = |below: usize| (stream.next_u64() % below as u64) as usize;
    for i in (1..batch.len()).rev() {
        batch.swap(i, draw(i + 1));
    }
    let (_, size, sig, _) = &plan.added[7];
    let cancel = Mutation::Insert(plan.cancelled, *size, sig);
    batch.insert(0, cancel);
    let at = 1 + draw(batch.len());
    batch.insert(at, Mutation::Remove(plan.cancelled));
    batch
}

/// The final corpus after the plan, id-sorted: original entries minus the
/// removed ids, plus the added domains.
fn final_corpus(w: &World, plan: &MutationPlan) -> Vec<(DomainId, u64, Signature, Vec<u64>)> {
    let mut out: Vec<(DomainId, u64, Signature, Vec<u64>)> = w
        .entries
        .iter()
        .filter(|(id, _, _)| !plan.removed.contains(id))
        .map(|(id, size, sig)| (*id, *size, sig.clone(), w.values[*id as usize].clone()))
        .collect();
    out.extend(plan.added.iter().cloned());
    out.sort_unstable_by_key(|&(id, _, _, _)| id);
    out
}

/// The index over the original corpus with the plan committed as one
/// batch, its report, and a fresh build of the final corpus.
fn mutated_and_rebuilt(
    w: &World,
    plan: &MutationPlan,
    finals: &[(DomainId, u64, Signature, Vec<u64>)],
) -> (LshEnsemble, CommitReport, LshEnsemble) {
    let mut mutated = build(&w.entries);
    let report = mutated
        .commit(&plan_batch(plan))
        .unwrap_or_else(|e| panic!("commit the plan: {e}"));
    let entries: Vec<(DomainId, u64, Signature)> = finals
        .iter()
        .map(|(id, size, sig, _)| (*id, *size, sig.clone()))
        .collect();
    (mutated, report, build(&entries))
}

/// Every final-corpus domain as a threshold query: removed ids never
/// resurface and the self match is found.
fn assert_live_answers(
    at: &str,
    index: &LshEnsemble,
    plan: &MutationPlan,
    finals: &[(DomainId, u64, Signature, Vec<u64>)],
) {
    for (qid, qsize, qsig, _) in finals {
        for &t in &[0.5, 0.8] {
            let found = index
                .search(&Query::threshold(qsig, t).with_size(*qsize))
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            for gone in plan.removed.iter().chain([&plan.cancelled]) {
                assert!(
                    !found.ids().contains(gone),
                    "{at} q={qid} t={t}: removed id {gone} returned"
                );
            }
            assert!(found.ids().contains(qid), "{at} q={qid} t={t}: self lost");
            assert!(
                found.stats.partitions_probed <= found.stats.partitions_total,
                "{at} q={qid} t={t}: probe counters inconsistent"
            );
        }
    }
}

/// Mutation ≡ rebuild: after `compact`, every final-corpus domain's
/// threshold and top-k answers (ids, estimates, candidates and the other
/// deterministic counters) and the serialised bytes are a fresh build's.
fn assert_equals_rebuild(
    mutated: &LshEnsemble,
    rebuilt: &LshEnsemble,
    finals: &[(DomainId, u64, Signature, Vec<u64>)],
) {
    for (qid, qsize, qsig, _) in finals {
        let mut queries: Vec<Query<'_>> = [0.5, 0.8]
            .iter()
            .map(|&t| Query::threshold(qsig, t).with_size(*qsize))
            .collect();
        queries.push(Query::top_k(qsig, 6).with_size(*qsize));
        for q in &queries {
            let context = format!("q={qid} {:?}", q.mode());
            assert_result_matches(&context, &mutated.search(q), &rebuilt.search(q));
        }
    }
    assert!(
        mutated.to_bytes() == rebuilt.to_bytes(),
        "the compacted index serialises unlike a fresh build"
    );
}

#[test]
fn mutation_equals_rebuild_for_every_mutable_backend() {
    let w = world();
    let plan = mutation_plan();
    let finals = final_corpus(&w, &plan);
    let (mut mutated, report, rebuilt) = mutated_and_rebuilt(&w, &plan, &finals);
    assert_eq!(report.merged, plan.added.len(), "merged count");
    assert_eq!(mutated.len(), finals.len(), "len after commit");
    assert_live_answers("sealed", &mutated, &plan, &finals);

    // Sealed, the inserts sit in a segment the base's bounds do not
    // describe; the sweep still finds them. Judged on mid/large queries,
    // where LSH recall is reliable (small queries degrade for any layout;
    // Figure 7), the sealed index and the fresh build both clear the same
    // absolute recall bar against the exact ground truth of the final
    // corpus.
    let mut final_catalog = Catalog::new();
    for (_, _, _, vals) in &finals {
        final_catalog.push(
            Domain::from_hashes(vals.clone()),
            DomainMeta::new("t", "col"),
        );
    }
    let exact = ExactIndex::build(&final_catalog);
    for (qid, qsize, qsig, qvals) in finals.iter().filter(|f| f.1 >= 150) {
        for &t in &[0.5, 0.8] {
            let q = Query::threshold(qsig, t).with_size(*qsize);
            let truth = DomainIndex::search(&exact, &Query::threshold(qsig, t).with_hashes(qvals))
                .expect("exact")
                .ids();
            // Catalog ids are dense 0..: a position maps back to the real
            // id; only size-comparable containers count.
            let comparable: Vec<DomainId> = truth
                .iter()
                .map(|&p| &finals[p as usize])
                .filter(|f| f.1 <= 3 * qsize)
                .map(|f| f.0)
                .collect();
            for (label, index) in [("sealed", &mutated), ("rebuilt", &rebuilt)] {
                let ids = index.search(&q).expect("search").ids();
                let found = comparable.iter().filter(|x| ids.contains(x)).count();
                assert!(
                    found * 10 >= comparable.len() * 6,
                    "q={qid} t={t}: {label} recall {found}/{}",
                    comparable.len()
                );
            }
        }
    }

    mutated.compact();
    assert_equals_rebuild(&mutated, &rebuilt, &finals);

    // Post-compaction mutations still validate with typed errors.
    let (id0, size0, sig0, _) = &finals[0];
    let insert = Mutation::Insert(*id0, *size0, sig0);
    assert_eq!(
        mutated.commit(&[insert]),
        Err(MutationError::DuplicateId(*id0))
    );
    assert_eq!(
        mutated.commit(&[Mutation::Remove(9_999)]),
        Err(MutationError::UnknownId(9_999))
    );
}

#[test]
fn segmented_commit_then_compaction_conforms_on_every_mutable_backend() {
    let w = world();
    let plan = mutation_plan();
    let finals = final_corpus(&w, &plan);
    let (mut mutated, report, rebuilt) = mutated_and_rebuilt(&w, &plan, &finals);

    // Commit seals — O(batch): the base partitioning is not rebuilt, the
    // inserts the batch kept become an immutable segment, and the base
    // removals become tombstones.
    assert!(report.sealed, "commit did not seal a segment");
    assert_eq!(report.merged, plan.added.len(), "merged count");
    assert_eq!(report.entries_folded, 0, "a commit rewrote the base");
    assert!(report.segments >= 1, "no outstanding segment");
    assert_eq!(report.tombstones, plan.removed.len(), "tombstone count");
    assert_eq!(mutated.len(), finals.len(), "len after seal");

    // Segmented phase: queries sweep base + segments and filter the
    // tombstones.
    assert_live_answers("segmented", &mutated, &plan, &finals);

    // Compaction rebuilds the base from the live rows: every segment
    // folded in, every tombstone erased, every live entry rewritten.
    let folded = mutated.compact();
    assert_eq!((folded.segments, folded.tombstones), (0, 0));
    assert_eq!(folded.entries_folded, finals.len(), "entries rewritten");
    let layout = mutated.segment_layout();
    assert!(layout.segments.is_empty() && layout.tombstones == 0);
    assert_eq!(mutated.len(), finals.len(), "len after compaction");
    assert_live_answers("compacted", &mutated, &plan, &finals);
    assert_equals_rebuild(&mutated, &rebuilt, &finals);
}

#[test]
fn parallel_hint_does_not_change_answers() {
    let w = world();
    for (name, index) in backends(&w) {
        let (_, size, sig) = &w.entries[15];
        let seq = index
            .search(&Query::threshold(sig, 0.6).with_size(*size))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .ids();
        let par = index
            .search(
                &Query::threshold(sig, 0.6)
                    .with_size(*size)
                    .with_parallel(true),
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .ids();
        assert_eq!(seq, par, "{name}: parallel hint changed the answer");
    }
}
