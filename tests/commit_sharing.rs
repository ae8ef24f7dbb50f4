//! What a commit, a segment merge and a compaction copy — asserted by
//! pointer identity, not by timing.
//!
//! The base of an index (its partitions' row tables and trees, the base
//! part of its id map, the provenance table) is built once and shared by
//! every snapshot until compaction builds another. A commit seals a
//! segment beside it and a segment merge rewrites segments only; the
//! snapshot a reader still holds keeps answering as it did.

use lshe_core::{MergeTask, Query};
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::testkit::file_engine;
use lshe_serve::{DeltaOp, DomainRecord, Engine, IndexContainer, Snapshot};

const BASE: usize = 300;
const PARTITIONS: usize = 8;

fn corpus(n: usize, seed: u64) -> Vec<(Domain, DomainMeta)> {
    CorpusStream::new(CorpusConfig {
        seed,
        ..CorpusConfig::wdc_web_tables_like(n)
    })
    .collect()
}

fn sketch(domain: &Domain) -> (Signature, u64) {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let sig = hasher.signature(domain.hashes().iter().copied());
    (sig, domain.len() as u64)
}

fn stage(engine: &Engine, (domain, meta): &(Domain, DomainMeta), id: Option<u32>) -> u32 {
    let (sig, size) = sketch(domain);
    let (table, column) = (meta.table.clone(), meta.column.clone());
    let staged = engine.stage_insert_as(table, column, size, sig, id);
    staged.expect("stage insert").0
}

fn finds(snap: &Snapshot, domain: &Domain, id: u32) -> bool {
    let (sig, size) = sketch(domain);
    let hit = |query: Query<'_>| {
        let outcome = snap.query(&query.with_size(size)).expect("valid query");
        outcome.ids().contains(&id)
    };
    let by_threshold = hit(Query::threshold(&sig, 1.0));
    // The index must agree with itself through the top-k path.
    assert_eq!(hit(Query::top_k(&sig, 3)), by_threshold, "id {id}");
    by_threshold
}

fn all_shared() -> (Vec<bool>, bool) {
    (vec![true; PARTITIONS], true)
}

#[test]
fn a_commit_shares_the_whole_base_and_the_old_snapshot_answers_as_before() {
    let base = corpus(BASE, 7);
    let fresh = corpus(5, 8);
    let container = IndexContainer::from_stream(base.iter().cloned(), PARTITIONS, true);
    let (engine, _dir) = file_engine(&container, "commit_sharing");
    let old = engine.snapshot();
    let ids: Vec<u32> = fresh.iter().map(|d| stage(&engine, d, None)).collect();
    engine.stage_remove(17).expect("stage remove");
    let (new, outcome) = engine.commit_staged().expect("commit");
    assert!(outcome.sealed);
    assert_eq!(
        new.container().base_shared_with(old.container()),
        all_shared()
    );

    // The new snapshot serves the inserts and hides the remove …
    for (&id, pair) in ids.iter().zip(&fresh) {
        assert!(finds(&new, &pair.0, id), "insert {id}");
        let record = new.container().record(id).expect("record");
        assert_eq!(
            (record.table, record.column),
            (&*pair.1.table, &*pair.1.column)
        );
    }
    assert!(!finds(&new, &base[17].0, 17) && new.container().record(17).is_none());
    assert_eq!(new.container().len(), BASE + 4);
    // … and the one a reader still holds does neither.
    for (&id, pair) in ids.iter().zip(&fresh) {
        assert!(!finds(&old, &pair.0, id) && old.container().record(id).is_none());
    }
    assert!(finds(&old, &base[17].0, 17));
    let (table, column, size) = old.container().provenance(17);
    assert_eq!((table, column), (&*base[17].1.table, &*base[17].1.column));
    assert_eq!(size, base[17].0.len() as u64);
    assert_eq!(old.container().len(), BASE);
}

#[test]
fn a_reinserted_id_resolves_to_its_new_record_over_a_shared_base() {
    let base = corpus(BASE, 7);
    let again = &corpus(1, 9)[0];
    let container = IndexContainer::from_stream(base.iter().cloned(), PARTITIONS, true);
    let (engine, _dir) = file_engine(&container, "commit_sharing");
    let built = engine.snapshot();
    engine.stage_remove(40).expect("stage remove");
    let (removed, _) = engine.commit_staged().expect("commit");
    assert_eq!(stage(&engine, again, Some(40)), 40);
    let (reinserted, _) = engine.commit_staged().expect("commit");

    let record = reinserted.container().record(40).expect("record");
    assert_eq!(record.table, again.1.table);
    assert_eq!(record.size, again.0.len() as u64);
    assert!(finds(&reinserted, &again.0, 40) && !finds(&reinserted, &base[40].0, 40));
    assert!(removed.container().record(40).is_none());
    assert!(!finds(&removed, &base[40].0, 40) && !finds(&removed, &again.0, 40));
    assert_eq!(built.container().provenance(40).0, base[40].1.table);
    assert!(finds(&built, &base[40].0, 40));
    let ids = |s: &Snapshot| {
        s.container()
            .records()
            .iter()
            .map(|r| r.id)
            .collect::<Vec<_>>()
    };
    assert_eq!(ids(&reinserted), ids(&built));
    for later in [&removed, &reinserted] {
        assert_eq!(
            later.container().base_shared_with(built.container()),
            all_shared()
        );
    }
}

#[test]
fn a_segment_merge_rewrites_segments_and_leaves_the_base_alone() {
    let fresh = corpus(6, 8);
    let container = IndexContainer::from_stream(corpus(BASE, 7), PARTITIONS, true);
    let (engine, _dir) = file_engine(&container, "commit_sharing");
    let built = engine.snapshot();
    let mut ids = Vec::new();
    for pair in fresh.chunks(2) {
        ids.extend(pair.iter().map(|d| stage(&engine, d, None)));
        engine.commit_staged().expect("commit");
    }
    assert_eq!(engine.segment_layout().segments.len(), 3);
    let (merged, outcome) = engine
        .apply_merge(&MergeTask::Merge(vec![0, 1, 2]))
        .expect("merge");
    assert_eq!((outcome.entries_folded, outcome.segments), (6, 1));
    assert_eq!(
        merged.container().base_shared_with(built.container()),
        all_shared()
    );
    for (&id, pair) in ids.iter().zip(&fresh) {
        assert!(finds(&merged, &pair.0, id) && !finds(&built, &pair.0, id));
    }
}

#[test]
fn commit_merge_compact_serialises_like_a_fresh_build_of_the_final_corpus() {
    let base = corpus(BASE, 7);
    let fresh = corpus(12, 8);
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let mut c = IndexContainer::from_stream(base.iter().cloned(), PARTITIONS, true);
    let built = c.clone();
    let ops: Vec<DeltaOp> = (BASE as u32..)
        .zip(&fresh)
        .map(|(id, (domain, meta))| DeltaOp::Insert {
            record: DomainRecord {
                id,
                size: domain.len() as u64,
                table: meta.table.clone(),
                column: meta.column.clone(),
            },
            signature: hasher.signature(domain.hashes().iter().copied()),
        })
        .collect();
    for batch in ops.chunks(4) {
        assert!(c.commit(batch).expect("commit").sealed);
    }
    // Take the last two back, so the ids that remain are dense.
    let last = (BASE + 10) as u32;
    c.commit(&[
        DeltaOp::Remove { id: last },
        DeltaOp::Remove { id: last + 1 },
    ])
    .expect("remove");
    c.apply_merge(&MergeTask::Merge(vec![0, 1]));
    assert_eq!(c.base_shared_with(&built), all_shared());
    c.apply_merge(&MergeTask::Full);
    assert_eq!(c.base_shared_with(&built), (vec![false; PARTITIONS], false));

    let survivors = base.iter().chain(&fresh[..10]).cloned();
    let mut rebuilt = IndexContainer::from_stream(survivors, PARTITIONS, true);
    rebuilt.reserve_next_id(c.next_id());
    assert_eq!(c.records(), rebuilt.records());
    assert!(c.to_bytes() == rebuilt.to_bytes(), "bytes differ");
    assert_eq!(
        c.memory_bytes(),
        rebuilt.memory_bytes(),
        "the folded provenance is laid out like a built one"
    );
}
