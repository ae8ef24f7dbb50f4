//! Type-checks every `lshe-*` item the standalone `perfbench/` workspace
//! calls, with perfbench's argument shapes. perfbench is its own workspace,
//! so `cargo test` at the root cannot otherwise notice a change that breaks
//! its build. No assertions beyond compiling and one round-trip query.

use lshe_core::{
    DomainIndex, EnsembleConfig, MergeTask, MmapIndex, PartitionStrategy, Query, RankedIndex,
    SearchOutcome, Tuner,
};
use lshe_corpus::{Domain, DomainMeta};
use lshe_lsh::LshForest;
use lshe_minhash::{MinHasher, Signature, DEFAULT_NUM_PERM};
use lshe_serve::json::Json;
use lshe_serve::{DeltaLog, DeltaOp, DomainRecord, Engine, IndexContainer};

#[test]
fn every_item_perfbench_calls_still_type_checks() {
    let dir = std::env::temp_dir().join(format!("lshe_perfbench_surface_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let pairs: Vec<(Domain, DomainMeta)> = (0..40u64)
        .map(|k| {
            let domain = Domain::from_hashes((0..20 + 5 * k).collect());
            (domain, DomainMeta::new(format!("t{k}"), "col"))
        })
        .collect();
    let hasher = MinHasher::new(DEFAULT_NUM_PERM);
    let config = EnsembleConfig {
        strategy: PartitionStrategy::EquiDepth { n: 4 },
        ..EnsembleConfig::default()
    };
    let signatures: Vec<Signature> = pairs
        .iter()
        .map(|(d, _)| hasher.signature(d.hashes().iter().copied()))
        .collect();

    // core: build, probe, tune, rank.
    let mut builder = RankedIndex::builder_with(config);
    for ((id, (domain, _)), sig) in (0u32..).zip(&pairs).zip(&signatures) {
        builder.add(id, domain.len() as u64, sig.clone());
    }
    let ranked: RankedIndex = builder.build();
    let partitions = ranked.ensemble().partition_stats();
    let (sig, q) = (&signatures[7], pairs[7].0.len() as u64);
    let probed: Vec<u32> = ranked.ensemble().query_with_size(sig, q, 0.5);
    let tuner = Tuner::new(config.b_max as u32, config.r_max as u32);
    let params = tuner.optimize(partitions[0].upper, q, 0.5);
    let mut forest = LshForest::new(config.b_max, config.r_max);
    forest.insert(7, sig);
    forest.commit();
    let mut candidates = Vec::new();
    forest.query_into(sig, params.b as usize, params.r as usize, &mut candidates);
    let _ = ranked.rank_candidates(probed, sig, q);

    // serve: container → file → engine → snapshot query.
    let container = IndexContainer::from_stream(pairs.iter().cloned(), 4, true);
    let index = dir.join("surface.lshe");
    std::fs::write(&index, container.to_bytes()).expect("write");
    drop(IndexContainer::load(&index).expect("load"));
    let engine = Engine::load(&index, 1).expect("engine");
    let snapshot = engine.snapshot();
    let query = Query::threshold(sig, 0.5).with_size(q);
    let outcome: SearchOutcome = snapshot.query(&query).expect("query");
    let _: u64 = snapshot.generation();
    let hit = outcome.hits.first().expect("the query's own domain");
    let (table, column, size): (&str, &str, u64) = snapshot.container().provenance(hit.id);

    // JSON: a hit list rendered as the server renders it, then read back
    // the way perfbench reads replies, `/stats` and BENCHMARK.json.
    let hits = Json::Arr(vec![Json::obj(vec![
        ("id", Json::uint(u64::from(hit.id))),
        ("table", Json::str(table)),
        ("column", Json::str(column)),
        ("size", Json::uint(size)),
        ("estimate", hit.estimate.map_or(Json::Null, Json::num)),
    ])]);
    let mut body = String::new();
    hits.render_into(&mut body);
    assert_eq!(hits.render(), body);
    assert_eq!(hits.to_string(), body);
    let parsed = Json::parse(&body)
        .map_err(|e| e.to_string())
        .expect("reparse");
    let first: &Json = &parsed.as_array().expect("array")[0];
    let _: Option<f64> = first.get("estimate").and_then(Json::as_f64);
    let _: Option<u64> = first.get("id").and_then(Json::as_u64);
    let _: Option<&str> = first.get("table").and_then(Json::as_str);
    let _: Option<bool> = first.get("cached").and_then(Json::as_bool);
    let _: Option<String> = first.get("column").map(Json::render);
    assert!(!matches!(first.get("size"), Some(Json::Null)));

    // Write path: log append, stage, commit, merge.
    let log = DeltaLog::at(dir.join("surface.append.delta"));
    let op = DeltaOp::Insert {
        record: DomainRecord {
            id: engine.next_id(),
            size: q,
            table: "t".into(),
            column: "c".into(),
        },
        signature: sig.clone(),
    };
    log.append(&op, engine.next_id()).expect("append");
    engine
        .stage_insert("t".into(), "c".into(), q, sig.clone())
        .expect("stage");
    engine.commit_staged().expect("commit");
    let _ = DeltaLog::sidecar(&index).path();
    let mut merged = engine.snapshot().container().clone();
    let segments = merged.segment_layout().segments.len();
    let _ = merged
        .apply_merge(&MergeTask::Merge((0..segments).collect()))
        .entries_folded;

    // store: pack, open both ways, search through the trait object.
    let packed = dir.join("surface.lshepk");
    container.pack_v2(&packed).expect("pack");
    MmapIndex::open_verified(&packed).expect("open verified");
    let mapped = MmapIndex::open(&packed).expect("open");
    for index in [&mapped as &dyn DomainIndex, &ranked] {
        let found = index.search(&query).expect("search");
        assert!(found.hits.iter().any(|h| h.id == 7));
    }
    std::fs::remove_dir_all(&dir).ok();
}
