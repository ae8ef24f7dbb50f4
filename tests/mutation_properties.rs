//! Property-based invariants for dynamic mutation (§6.2): arbitrary
//! ordered batches of inserts and removes — committed, then merged or
//! compacted — against a ground-truth model.
//!
//! A script's insert and remove steps build a batch in order, as the
//! server's engine stages ops: a remove may take back an insert earlier in
//! the same batch, or a domain committed before it. A commit step hands
//! the batch to the index in one call. For every generated script the
//! suite maintains a plain `BTreeMap` model of the live corpus and checks,
//! on an `LshEnsemble` driven by it, after every commit and compaction:
//!
//! * the batch with a bad last op is refused whole — the typed error
//!   names it and the index serialises as before,
//! * the commit seals exactly the batch's inserts no later remove in it
//!   cancelled, and tombstones exactly its removes of committed domains,
//! * partition boundaries stay monotone (`lower ≤ upper` everywhere;
//!   ranges ordered and non-overlapping across the base partitions —
//!   sealed segments carry their own ranges),
//! * physical partition rows account for every live domain plus every
//!   tombstone awaiting compaction,
//! * every stored id remains queryable **exactly once** (a self-query at
//!   `t* = 1.0` returns it once; removed ids are never returned),
//! * `len()` / `is_empty()` / `contains()` never disagree with the model,
//!   and `memory_bytes()` stays positive while anything is indexed, and
//! * a compaction serialises exactly like a fresh build of the model — a
//!   base of no partitions once everything was removed.
//!
//! A container driven by batches through commit / compact / save → load
//! resolves, after every step that changes it, each live id through the
//! index's directory (or its overlay) to the size and row a reference map
//! holds, and each removed id to none; the container loaded from its file
//! answers like the one it was saved from, and the script goes on over the
//! mapped base. Ids are inserted with holes, and the top id is removed, so
//! the directory is searched off its dense path. A container emptied,
//! compacted, saved and loaded takes domains again.

use lshe_core::{
    DomainIndex, EnsembleConfig, Leveled, LshEnsemble, Mutation, MutationError, PartitionStrategy,
    Query, RowBuf,
};
use lshe_corpus::{Domain, DomainMeta};
use lshe_lsh::DomainId;
use lshe_minhash::{MinHasher, Signature, DEFAULT_NUM_PERM};
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};
use proptest::prelude::*;
use std::collections::BTreeMap;

const NUM_PERM: usize = 64;

fn config(parts: usize) -> EnsembleConfig {
    EnsembleConfig {
        num_perm: NUM_PERM,
        b_max: 8,
        r_max: 8,
        strategy: PartitionStrategy::EquiDepth { n: parts },
    }
}

/// Deterministic per-id domain: `size` distinct synthetic values.
fn signature_for(id: DomainId, size: u64) -> Signature {
    let hasher = MinHasher::new(NUM_PERM);
    let vals = MinHasher::synthetic_values(u64::from(id) + 1, size as usize);
    hasher.signature(vals.iter().copied())
}

/// Signatures by id, memoised — recomputing them per probe dominates the
/// runtime otherwise. Removed ids keep theirs.
type Sigs = BTreeMap<DomainId, Signature>;

/// `model` (ids with their sizes) and the signature of each.
fn sketched(model: &BTreeMap<DomainId, u64>) -> Sigs {
    let sigs = model
        .iter()
        .map(|(&id, &size)| (id, signature_for(id, size)));
    sigs.collect()
}

/// A script's batch under construction, as the server's engine stages
/// one: the ops in order (an insert with its size, or a remove), the live
/// corpus once they commit, every signature made (removed ids keep
/// theirs), and every removed id with its size.
struct Script {
    batch: Vec<(DomainId, Option<u64>)>,
    view: BTreeMap<DomainId, u64>,
    sigs: Sigs,
    dead: Vec<(DomainId, u64)>,
}

impl Script {
    /// Domains `0..n` of the given sizes, and a fresh build of them in
    /// `parts` partitions.
    fn build(sizes: Vec<u64>, parts: usize) -> (Self, LshEnsemble) {
        let view: BTreeMap<DomainId, u64> = (0u32..).zip(sizes).collect();
        let sigs = sketched(&view);
        let index = fresh_build(parts, &view, &sigs).expect("a non-empty corpus");
        let dead = Vec::new();
        (
            Self {
                batch: Vec::new(),
                view,
                sigs,
                dead,
            },
            index,
        )
    }

    /// Inserts a domain of `size` values under a fresh id.
    fn insert(&mut self, size: u64) {
        let id = self.sigs.keys().next_back().map_or(0, |id| id + 1);
        self.sigs.insert(id, signature_for(id, size));
        self.view.insert(id, size);
        self.batch.push((id, Some(size)));
    }

    /// Removes the live domain `word` picks — committed, or an insert
    /// earlier in the batch — if any is live.
    fn remove(&mut self, word: usize) {
        let Some(&id) = self.view.keys().nth(word % self.view.len().max(1)) else {
            return;
        };
        let size = self.view.remove(&id).expect("live");
        self.dead.push((id, size));
        self.batch.push((id, None));
    }

    /// The batch as the index takes it.
    fn mutations(&self) -> Vec<Mutation<'_>> {
        let op = |&(id, size): &(DomainId, Option<u64>)| match size {
            Some(size) => Mutation::Insert(id, size, &self.sigs[&id]),
            None => Mutation::Remove(id),
        };
        self.batch.iter().map(op).collect()
    }

    /// Commits the batch and empties it.
    fn commit(&mut self, index: &mut LshEnsemble) {
        index.commit(&self.mutations()).expect("a valid batch");
        self.batch.clear();
    }
}

/// Commits the script's batch, which takes `model` to its view, and checks
/// the report: first with the removal of an id no domain holds appended,
/// which must be refused whole; then alone, sealing exactly the inserts it
/// kept and tombstoning exactly the committed domains it removed.
fn commit_checked(
    label: &str,
    index: &mut LshEnsemble,
    script: &mut Script,
    model: &BTreeMap<DomainId, u64>,
) -> Result<(), TestCaseError> {
    let before = index.to_bytes();
    let mut ops = script.mutations();
    ops.push(Mutation::Remove(DomainId::MAX));
    let refused = index.commit(&ops);
    prop_assert!(
        refused == Err(MutationError::UnknownId(DomainId::MAX)),
        "{label}"
    );
    prop_assert!(
        index.to_bytes() == before,
        "{label}: a refused batch left a trace"
    );
    let tombstones = index.segment_layout().tombstones;
    let report = index.commit(&ops[..ops.len() - 1]).expect("a valid batch");
    script.batch.clear();
    let kept = script
        .view
        .keys()
        .filter(|id| !model.contains_key(id))
        .count();
    let removed = model
        .keys()
        .filter(|id| !script.view.contains_key(id))
        .count();
    prop_assert!(
        report.merged == kept && report.sealed == (kept > 0),
        "{label}: commit sealed {} vs {kept} kept inserts",
        report.merged
    );
    prop_assert!(
        report.tombstones == tombstones + removed,
        "{label}: {} tombstones vs {tombstones} + {removed} removed",
        report.tombstones
    );
    prop_assert!(report.entries_folded == 0, "{label}: a commit rebuilt");
    Ok(())
}

/// A fresh build of `model`, or `None` when it is empty — a build needs
/// at least one domain.
fn fresh_build(parts: usize, model: &BTreeMap<DomainId, u64>, sigs: &Sigs) -> Option<LshEnsemble> {
    let mut builder = LshEnsemble::builder_with(config(parts));
    for (&id, &size) in model {
        builder.add(id, size, sigs[&id].clone());
    }
    (!builder.is_empty()).then(|| builder.build())
}

/// Checks the structural invariants of the mutated index against the
/// model.
fn check_invariants(
    label: &str,
    index: &LshEnsemble,
    model: &BTreeMap<DomainId, u64>,
) -> Result<(), TestCaseError> {
    prop_assert!(
        index.len() == model.len(),
        "{label}: len {} vs model {}",
        index.len(),
        model.len()
    );
    prop_assert!(
        index.is_empty() == model.is_empty(),
        "{label}: is_empty disagrees"
    );
    if !model.is_empty() {
        prop_assert!(index.memory_bytes() > 0, "{label}: no memory accounted");
    }
    for &id in model.keys() {
        prop_assert!(index.contains(id), "{label}: live id {id} not contained");
    }
    // Partition boundaries monotone and well-formed. Counts are physical
    // rows, so tombstoned domains still occupy their partition until
    // compaction erases them.
    let stats = index.partition_stats();
    let members: usize = stats.iter().map(|p| p.count).sum();
    let tombstones = index.segment_layout().tombstones;
    prop_assert!(
        members == model.len() + tombstones,
        "{label}: partition members {members} vs model {} + {tombstones} tombstones",
        model.len()
    );
    for p in &stats {
        prop_assert!(p.lower <= p.upper, "{label}: inverted bounds {p:?}");
    }
    // Ordering is a per-tier property: each sealed segment restarts its
    // own size range, so only the base
    // partitioning — the stats' first `num_partitions` — promises ordered,
    // non-overlapping ranges.
    for w in stats[..index.num_partitions()].windows(2) {
        prop_assert!(
            w[0].upper <= w[1].lower,
            "{label}: overlapping partitions {w:?}"
        );
    }
    Ok(())
}

/// Self-queries: the first `sample` live ids are each returned exactly
/// once at `t* = 1.0`; the first `sample` removed ids never (probed with
/// their original signature).
fn check_queryability(
    label: &str,
    ens: &LshEnsemble,
    (model, sigs): (&BTreeMap<DomainId, u64>, &Sigs),
    dead: &[(DomainId, u64)],
    sample: usize,
) -> Result<(), TestCaseError> {
    for (&id, &size) in model.iter().take(sample) {
        let got = ens.query_with_size(&sigs[&id], size, 1.0);
        let hits = got.iter().filter(|&&g| g == id).count();
        prop_assert!(hits == 1, "{label}: live id {id} found {hits} times");
    }
    for &(id, size) in dead.iter().take(sample) {
        prop_assert!(
            !ens.query_with_size(&sigs[&id], size, 1.0).contains(&id),
            "{label}: dead id {id} returned"
        );
        prop_assert!(!ens.contains(id), "{label}: dead id {id} contained");
    }
    Ok(())
}

/// A compacted index against the model: the bytes of a fresh build of it,
/// or a base of no partitions when it is empty.
fn check_compacted(
    label: &str,
    ens: &LshEnsemble,
    parts: usize,
    (model, sigs): (&BTreeMap<DomainId, u64>, &Sigs),
) -> Result<(), TestCaseError> {
    match fresh_build(parts, model, sigs) {
        Some(fresh) => prop_assert!(
            ens.to_bytes() == fresh.to_bytes(),
            "{label}: compaction serialises unlike a fresh build of the model"
        ),
        None => prop_assert!(
            ens.num_partitions() == 0 && ens.partition_stats().is_empty(),
            "{label}: an emptied index compacted to {} partitions",
            ens.num_partitions()
        ),
    }
    let round = LshEnsemble::from_bytes(&ens.to_bytes()).expect("roundtrip");
    prop_assert!(round.len() == model.len(), "{label}: decoded len");
    Ok(())
}

proptest! {
    /// The headline property: arbitrary batches — and then the removal of
    /// everything — keep the index consistent with the model, structurally
    /// sound and exactly-once queryable after every commit, and every
    /// compaction equal to a fresh build of the model.
    #[test]
    fn interleaved_mutations_preserve_equi_depth_invariants(
        initial_sizes in prop::collection::vec(1u64..1_500, 8..24),
        script in prop::collection::vec(0u32..1_000_000, 1..40),
        parts in 2usize..6,
    ) {
        // `model` is what the index holds, `s.view` what it will hold once
        // the batch commits.
        let (mut s, mut index) = Script::build(initial_sizes, parts);
        let mut model = s.view.clone();
        // The script, then a tail that removes every domain left (each
        // removal takes the first one) and compacts the emptied index.
        let tail = (0..model.len() + script.len()).map(|_| (1, 0)).chain([(3, 0)]);
        let steps = script.iter().map(|&w| (w % 4, w / 4)).chain(tail);
        for (step, (op, word)) in steps.enumerate() {
            let label = format!("step {step}: op {op}");
            match op {
                0 => {
                    s.insert(1 + u64::from(word) % 3_000);
                    continue;
                }
                1 => {
                    s.remove(word as usize);
                    continue;
                }
                2 => commit_checked(&label, &mut index, &mut s, &model)?,
                _ => {
                    // As the engine compacts: the batch commits, then the
                    // base is rebuilt.
                    commit_checked(&label, &mut index, &mut s, &model)?;
                    let report = index.compact();
                    prop_assert!(
                        (report.merged, report.segments, report.tombstones, report.entries_folded)
                            == (0, 0, 0, s.view.len()),
                        "{label}: compaction left {report:?}"
                    );
                    check_compacted(&label, &index, parts, (&s.view, &s.sigs))?;
                }
            }
            model.clone_from(&s.view);
            check_invariants(&label, &index, &model)?;
            check_queryability(&label, &index, (&model, &s.sigs), &s.dead, 4)?;
        }
        prop_assert!(model.is_empty() && index.is_empty());
        check_queryability("emptied", &index, (&model, &s.sigs), &s.dead, 25)?;

        // The emptied index takes domains again, through every tier.
        s.insert(40);
        commit_checked("refilled", &mut index, &mut s, &model)?;
        model.clone_from(&s.view);
        check_invariants("refilled", &index, &model)?;
        check_queryability("refilled", &index, (&model, &s.sigs), &s.dead, 25)?;
        index.compact();
        check_compacted("refilled/compacted", &index, parts, (&model, &s.sigs))?;
        check_queryability("refilled/compacted", &index, (&model, &s.sigs), &s.dead, 25)?;
    }

    /// Serialisation commutes with mutation: one arbitrary batch → commit
    /// → save → load lands on an index that answers exactly like the
    /// in-memory original.
    #[test]
    fn mutated_ensemble_roundtrips_through_bytes(
        initial_sizes in prop::collection::vec(1u64..800, 4..16),
        script in prop::collection::vec(0u32..1_000_000, 1..25),
    ) {
        let (mut s, mut index) = Script::build(initial_sizes, 3);
        for word in script {
            if word % 2 == 0 {
                s.insert(1 + u64::from(word) % 900);
            } else {
                s.remove(word as usize);
            }
        }
        s.commit(&mut index);
        let restored = LshEnsemble::from_bytes(&index.to_bytes()).expect("roundtrip");
        prop_assert_eq!(restored.len(), s.view.len());
        for (&id, &size) in s.view.iter().take(20) {
            let sig = &s.sigs[&id];
            prop_assert!(
                index.query_with_size(sig, size, 1.0)
                    == restored.query_with_size(sig, size, 1.0),
                "id {id} answers diverge after roundtrip"
            );
            prop_assert!(restored.contains(id));
        }
    }

    /// Background maintenance racing the mutation script: after every
    /// commit the leveled planner folds the sealed stack to quiescence
    /// through `apply_merge` — exactly the loop the serve maintainer
    /// runs — and at each quiescent point the index must agree with a
    /// fresh build of the live corpus: same `len`, every live id
    /// self-queries to exactly one hit in both, every removed id to none,
    /// and the sealed stack sits within the planner's segment bound. (Full
    /// hit *sets* can legitimately differ — partition geometry depends on
    /// physical layout — so the contract is exact self-recall, not
    /// candidate-set equality.)
    #[test]
    fn background_merges_preserve_query_results(
        initial_sizes in prop::collection::vec(1u64..600, 5..12),
        script in prop::collection::vec(0u32..1_000_000, 1..22),
        fanout in 2usize..5,
        level0_choice in 0usize..3,
    ) {
        let planner = Leveled {
            fanout,
            level0_entries: [1, 4, 64][level0_choice],
        };
        let (mut s, mut index) = Script::build(initial_sizes, 3);
        for word in script {
            match word % 3 {
                0 => s.insert(1 + u64::from(word / 3) % 500),
                1 => s.remove(word as usize / 3),
                _ => {
                    s.commit(&mut index);
                    // Intermediate quiescent point: drain + the cheap
                    // checks (bound, self-recall on the merged index).
                    drain_and_check(&planner, &mut index, &s, false)?;
                }
            }
        }
        // Final quiescent point: commit what the script left, drain, and
        // additionally compare against a fresh build of the live corpus.
        s.commit(&mut index);
        drain_and_check(&planner, &mut index, &s, true)?;
    }

    /// The container's id → row directory under arbitrary batches, saved
    /// and loaded mapped at arbitrary points (see the module doc).
    #[test]
    fn container_ids_resolve_like_a_reference_map_through_save_and_load(
        initial_sizes in prop::collection::vec(1u64..300, 3..10),
        script in prop::collection::vec(0u32..6_000_000, 1..24),
    ) {
        let hasher = MinHasher::new(DEFAULT_NUM_PERM);
        let mut model: BTreeMap<DomainId, (u64, Signature)> = BTreeMap::new();
        let domains: Vec<(Domain, DomainMeta)> = (0u32..)
            .zip(&initial_sizes)
            .map(|(id, &size)| {
                let domain = Domain::from_hashes(values_for(id, size));
                model.insert(id, (size, hasher.signature(domain.hashes().iter().copied())));
                let meta = DomainMeta::new(format!("t{}", id % 3), format!("c{id}"));
                (domain, meta)
            })
            .collect();
        let mut container = IndexContainer::from_stream(domains, 2, true);
        // `committed` is what the container holds; `model` what it will
        // hold once `batch` commits.
        let mut committed = model.clone();
        let mut batch: Vec<DeltaOp> = Vec::new();
        let mut next_id = container.next_id();
        let mut removed: Vec<DomainId> = Vec::new();
        let scratch = Scratch::new();
        check_directory("built", &container, &committed, &removed)?;
        for (step, word) in script.into_iter().enumerate() {
            let (op, word) = (word % 6, word / 6);
            let label = format!("step {step}: op {op}");
            match op {
                // An insert, one or two ids past the mark now and then: ids
                // with holes.
                0 | 1 => {
                    let id = next_id + word % 3;
                    next_id = id + 1;
                    let size = 1 + u64::from(word) % 200;
                    let signature = hasher.signature(values_for(id, size));
                    let record = DomainRecord {
                        id,
                        size,
                        table: format!("t{}", id % 3),
                        column: format!("c{id}"),
                    };
                    batch.push(DeltaOp::Insert { record, signature: signature.clone() });
                    model.insert(id, (size, signature));
                    continue;
                }
                // A removal: every fourth time the top id, else any.
                2 if !model.is_empty() => {
                    let live: Vec<DomainId> = model.keys().copied().collect();
                    let id = if word % 4 == 0 {
                        live[live.len() - 1]
                    } else {
                        live[word as usize % live.len()]
                    };
                    batch.push(DeltaOp::Remove { id });
                    model.remove(&id);
                    removed.push(id);
                    continue;
                }
                2 => continue,
                3 => {}
                4 if !model.is_empty() => {
                    container.commit(&batch).expect("commit");
                    container.compact_index();
                    batch.clear();
                }
                4 => continue,
                // Saved and loaded: the mapped container answers like the
                // one it was saved from, and the script goes on over it.
                _ => {
                    container.commit(&batch).expect("commit");
                    batch.clear();
                    let path = scratch.next();
                    container.save(&path).expect("save");
                    let loaded = IndexContainer::load(&path).expect("load");
                    prop_assert!(loaded.base_in_place().iter().all(|&p| p), "{label}");
                    prop_assert!(loaded.directory_in_place() && loaded.records_in_place());
                    prop_assert!(loaded.records() == container.records(), "{label}");
                    for (&id, (size, sig)) in model.iter().take(6) {
                        for t in [0.5, 1.0] {
                            let (want, got) = (container.search(sig, *size, t), loaded.search(sig, *size, t));
                            prop_assert!(want == got, "{label}: id {id} at t* = {t}");
                        }
                        let top = (container.top_k(sig, *size, 3), loaded.top_k(sig, *size, 3));
                        prop_assert!(top.0 == top.1, "{label}: id {id} top-3");
                    }
                    container = loaded;
                }
            }
            if !batch.is_empty() {
                // A commit step. With the removal of an id no domain holds
                // after it, the batch is refused whole.
                let before = container.to_bytes();
                let stranger = next_id + 7;
                let bad = [&batch[..], &[DeltaOp::Remove { id: stranger }]].concat();
                prop_assert_eq!(container.commit(&bad), Err(MutationError::UnknownId(stranger)));
                prop_assert!(container.to_bytes() == before, "{label}: a refused batch left a trace");
                container.commit(&batch).expect("commit");
                batch.clear();
            }
            committed.clone_from(&model);
            check_directory(&label, &container, &committed, &removed)?;
        }
    }
}

/// The values of inserted or built domain `id` of `size` values.
fn values_for(id: DomainId, size: u64) -> Vec<u64> {
    MinHasher::synthetic_values(u64::from(id) * 7 + 3, size as usize)
}

/// Every live id resolves to the model's size and (narrowed) signature, in
/// the index and in its record; every removed one that did not come back
/// resolves to nothing.
fn check_directory(
    label: &str,
    container: &IndexContainer,
    model: &BTreeMap<DomainId, (u64, Signature)>,
    removed: &[DomainId],
) -> Result<(), TestCaseError> {
    prop_assert!(container.len() == model.len(), "{label}: len");
    for (&id, (size, sig)) in model {
        let (got_size, row) = container.sketch(id).ok_or_else(|| {
            TestCaseError::fail(format!("{label}: live id {id} resolves to nothing"))
        })?;
        let want = RowBuf::narrow(row.layout(), sig.slots());
        prop_assert!(
            (got_size, row) == (*size, want.as_row()),
            "{}: id {} resolves to another row or size",
            label,
            id
        );
        let record = container.record(id).map(|r| r.size);
        prop_assert!(record == Some(*size), "{label}: record of {id}");
    }
    for id in removed.iter().filter(|id| !model.contains_key(id)) {
        prop_assert!(
            container.sketch(*id).is_none(),
            "{}: removed {} resolves",
            label,
            id
        );
        prop_assert!(
            container.record(*id).is_none(),
            "{}: removed {} has a record",
            label,
            id
        );
    }
    Ok(())
}

/// A directory for one case's files, removed with it.
struct Scratch {
    dir: std::path::PathBuf,
    files: std::cell::Cell<usize>,
}

impl Scratch {
    fn new() -> Self {
        static CASES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let case = CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("lshe_mutation_{}_{case}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Self {
            dir,
            files: std::cell::Cell::new(0),
        }
    }

    /// A path not used before in this case: an earlier file may still be
    /// the mapping a container serves from.
    fn next(&self) -> std::path::PathBuf {
        self.files.set(self.files.get() + 1);
        self.dir.join(format!("{}.lshe", self.files.get()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Drains the planner's merge plan (the maintainer's loop) and checks the
/// quiescent-point invariants. With `full`, also builds the index fresh
/// from the live corpus and checks self-recall agreement (the expensive
/// comparison, run once per case).
fn drain_and_check(
    planner: &Leveled,
    index: &mut LshEnsemble,
    script: &Script,
    full: bool,
) -> Result<(), TestCaseError> {
    let (model, dead, sigs) = (&script.view, &script.dead, &script.sigs);
    let sample = if full { 16 } else { 6 };
    let fresh = if full {
        fresh_build(3, model, sigs)
    } else {
        None
    };
    let mut rounds = 0usize;
    loop {
        let tasks = planner.plan(&index.segment_layout());
        if tasks.is_empty() {
            break;
        }
        for task in &tasks {
            index.apply_merge(task);
        }
        rounds += 1;
        prop_assert!(rounds < 64, "merge plan never quiesced");
    }
    let layout = index.segment_layout();
    // The bound is sized on physical entries: segments retain tombstoned
    // rows until a compaction erases them.
    let bound = planner.segment_bound(layout.len + layout.tombstones);
    prop_assert!(
        layout.segments.len() <= bound,
        "{} segments exceed the planner bound {bound} after drain",
        layout.segments.len()
    );
    prop_assert!(
        index.len() == model.len(),
        "len {} diverges from model {}",
        index.len(),
        model.len()
    );
    for (&id, &size) in model.iter().take(sample) {
        let query = Query::threshold(&sigs[&id], 1.0).with_size(size);
        let probes = [("merged", Some(&*index)), ("fresh", fresh.as_ref())];
        for (label, idx) in probes.into_iter().filter_map(|(l, i)| Some((l, i?))) {
            let outcome = idx
                .search(&query)
                .unwrap_or_else(|e| panic!("{label}: self-query for {id} failed: {e:?}"));
            let hits = outcome.hits.iter().filter(|h| h.id == id).count();
            prop_assert!(
                hits == 1,
                "{label}: live id {id} found {hits} times after merge"
            );
        }
    }
    for &(id, size) in dead.iter().take(sample) {
        let query = Query::threshold(&sigs[&id], 1.0).with_size(size);
        let outcome = index
            .search(&query)
            .unwrap_or_else(|e| panic!("dead-id query for {id} failed: {e:?}"));
        prop_assert!(
            !outcome.hits.iter().any(|h| h.id == id),
            "dead id {id} returned after merge"
        );
    }
    Ok(())
}

/// A container emptied, compacted (a base of no partitions), saved and
/// loaded takes domains again through every tier: `len` and self-queries
/// are right at each step.
#[test]
fn an_emptied_container_compacts_saves_loads_and_takes_domains_again() {
    let hasher = MinHasher::new(DEFAULT_NUM_PERM);
    let size_of = |id: DomainId| 30 + u64::from(id);
    let domains = (0u32..5).map(|id| {
        let domain = Domain::from_hashes(values_for(id, size_of(id)));
        (domain, DomainMeta::new("t", format!("c{id}")))
    });
    let mut container = IndexContainer::from_stream(domains, 2, true);
    // Each step: len, every removed id unanswered, and the live ones found
    // by a self-query.
    let check = |at: &str, c: &IndexContainer, live: &[DomainId]| {
        assert_eq!(c.len(), live.len(), "{at}");
        for id in 0..6 {
            let size = size_of(id);
            let found = c.search(&hasher.signature(values_for(id, size)), size, 1.0);
            let hit = found.iter().any(|&(hit, _)| hit == id);
            assert_eq!(hit, live.contains(&id), "{at}: id {id}");
        }
    };
    let removes: Vec<DeltaOp> = (0..5).map(|id| DeltaOp::Remove { id }).collect();
    container.commit(&removes).expect("remove every domain");
    check("emptied", &container, &[]);
    container.compact_index();
    check("compacted", &container, &[]);
    assert_eq!(container.partition_count(), 0);

    let scratch = Scratch::new();
    let path = scratch.next();
    container.save(&path).expect("save");
    let mut container = IndexContainer::load(&path).expect("load");
    check("loaded", &container, &[]);
    assert_eq!((container.partition_count(), container.next_id()), (0, 5));

    let (id, size) = (5, size_of(5));
    let record = DomainRecord {
        id,
        size,
        table: "t".into(),
        column: "c5".into(),
    };
    let signature = hasher.signature(values_for(id, size));
    container
        .commit(&[DeltaOp::Insert { record, signature }])
        .expect("insert");
    check("committed", &container, &[id]);
    container.compact_index();
    check("compacted again", &container, &[id]);
    assert_eq!(container.partition_count(), 1);
    assert_eq!(container.record(id).map(|r| r.column), Some("c5"));
}
