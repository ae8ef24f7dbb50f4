//! Public-API smoke test: the `lshe` facade is the documented entry point,
//! so its re-exports ARE the product surface. This suite references every
//! promised name — the new unified query surface and the pre-existing
//! types — so an accidental removal or rename fails CI at compile time,
//! and exercises a minimal end-to-end flow through the facade only.

use lshe::{
    Catalog, CommitReport, DeltaLog, DeltaOp, Domain, DomainId, DomainIndex, EnsembleConfig,
    ExactIndex, IndexContainer, LshEnsemble, LshForest, MinHasher, Mutation, MutationError,
    PartitionStrategy, Query, QueryError, QueryMode, QueryStats, RankedHit, SearchHit,
    SearchOutcome, ServerConfig, Signature, ESTIMATE_SLACK,
};

/// Compile-time assertions: the query trait is object safe and the key
/// types keep their auto traits (the server shares outcomes across threads).
#[allow(dead_code)]
fn static_surface_assertions() {
    fn object_safe(_: &dyn DomainIndex) {}
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Box<dyn DomainIndex>>();
    send_sync::<SearchOutcome>();
    send_sync::<QueryStats>();
    send_sync::<QueryError>();
    send_sync::<MutationError>();
    send_sync::<CommitReport>();
}

#[test]
fn facade_exposes_the_unified_query_surface() {
    const { assert!(ESTIMATE_SLACK > 0.0 && ESTIMATE_SLACK < 1.0) };

    // Build a small index purely through facade names.
    let hasher: MinHasher = MinHasher::new(256);
    let pool = MinHasher::synthetic_values(9, 200);
    let mut builder = LshEnsemble::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 2 },
        ..EnsembleConfig::default()
    });
    for k in 0..10u32 {
        let vals = &pool[..20 * (k as usize + 1)];
        builder.add(k, vals.len() as u64, hasher.signature(vals.iter().copied()));
    }
    let index: Box<dyn DomainIndex> = Box::new(builder.build());

    let sig: Signature = hasher.signature(pool[..60].iter().copied());
    let query: Query<'_> = Query::threshold(&sig, 0.7).with_size(60);
    assert_eq!(query.mode(), QueryMode::Threshold(0.7));
    let outcome: SearchOutcome = index.search(&query).expect("valid query");
    let hit: &SearchHit = outcome.hits.first().expect("self hit");
    let id: DomainId = hit.id;
    assert_eq!(id, 2);
    let stats: QueryStats = outcome.stats;
    assert!(stats.candidates >= stats.survivors);

    // Typed errors surface through the facade too.
    let err: QueryError = index
        .search(&Query::top_k(&sig, 0).with_size(60))
        .unwrap_err();
    assert!(matches!(err, QueryError::Invalid(_)));

    // Batched execution is part of the promised surface: request order,
    // per-item typed errors, answers identical to single search.
    let batch = [
        Query::threshold(&sig, 0.7).with_size(60),
        Query::top_k(&sig, 0).with_size(60),
    ];
    let results: Vec<Result<SearchOutcome, QueryError>> = index.search_batch(&batch);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].as_ref().expect("valid").hits, outcome.hits);
    assert!(matches!(results[1], Err(QueryError::Invalid(_))));

    // RankedHit is what `LshEnsemble::rank_candidates` returns.
    let _: Vec<RankedHit>;
}

#[test]
fn facade_exposes_the_mutation_surface() {
    let hasher = MinHasher::new(256);
    let pool = MinHasher::synthetic_values(4, 200);
    let mut builder = LshEnsemble::builder_with(EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 2 },
        ..EnsembleConfig::default()
    });
    for k in 0..8u32 {
        let vals = &pool[..20 * (k as usize + 1)];
        builder.add(k, vals.len() as u64, hasher.signature(vals.iter().copied()));
    }
    let mut index: LshEnsemble = builder.build();

    let sig = hasher.signature(pool[..50].iter().copied());
    let insert = Mutation::Insert(100, 50, &sig);
    let report: CommitReport = index
        .commit(&[insert, Mutation::Remove(3)])
        .expect("commit");
    assert_eq!(report.merged, 1);
    assert!(matches!(
        index.commit(&[insert]),
        Err(MutationError::DuplicateId(100))
    ));
    assert_eq!(index.len(), 8);
    let report: CommitReport = index.compact();
    assert_eq!(
        (report.segments, report.tombstones, report.entries_folded),
        (0, 0, 8)
    );

    // Delta-log types are reachable and round-trip through the facade.
    let dir = std::env::temp_dir().join(format!("lshe_public_api_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let log = DeltaLog::sidecar(&dir.join("api.lshe"));
    log.append(&DeltaOp::Remove { id: 1 }, 101).expect("append");
    assert_eq!(log.read().expect("read"), vec![DeltaOp::Remove { id: 1 }]);
    log.clear().expect("clear");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn facade_keeps_the_existing_types_reachable() {
    // Core index types.
    let _ = LshEnsemble::builder();
    let _ = LshForest::new(4, 4);

    // Corpus + container + server config.
    let mut catalog = Catalog::new();
    for k in 0..4u64 {
        catalog.push(
            Domain::from_hashes((10 * k..10 * k + 20).collect()),
            lshe::corpus::DomainMeta::new(format!("t{k}"), "col"),
        );
    }
    let exact = ExactIndex::build(&catalog);
    assert_eq!(DomainIndex::len(&exact), 4);
    let container = IndexContainer::build(&catalog, 2);
    assert_eq!(container.open_index().len(), 4);
    let _ = ServerConfig::default();

    // Module re-exports stay wired.
    let _ = lshe::minhash::DEFAULT_NUM_PERM;
    let _ = lshe::core::EnsembleConfig::default();
}
