//! Property-based invariants for dynamic mutation (§6.2): arbitrary
//! insert / remove / commit interleavings against a ground-truth model.
//!
//! For every generated script the suite maintains a plain `BTreeMap`
//! model of the live corpus and checks, on the mutated `LshEnsemble` (and
//! a `RankedIndex` driven by the same script, with rebalancing enabled):
//!
//! * partition boundaries stay monotone (`lower ≤ upper` everywhere;
//!   ranges ordered and non-overlapping across the base partitions —
//!   sealed segments and the staged tier carry their own ranges),
//! * physical partition rows account for every live domain plus every
//!   tombstone awaiting compaction,
//! * every stored id remains queryable **exactly once** (a self-query at
//!   `t* = 1.0` returns it once; removed ids are never returned),
//! * `len()` / `is_empty()` / `contains()` never disagree with the model,
//!   and `memory_bytes()` stays positive while anything is indexed,
//! * `staged_len()` tracks exactly the inserts since the last commit.
//!
//! A container driven through insert / remove / commit / compact / save →
//! load resolves, after every step, each live id through the index's
//! directory (or its overlay) to the size and row a reference map holds,
//! and each removed id to none; the container loaded from its file answers
//! like the one it was saved from, and the script goes on over the mapped
//! base. Ids are inserted with holes, and the top id is removed, so the
//! directory is searched off its dense path.

use lshe_core::{
    EnsembleConfig, Leveled, LshEnsemble, MutableIndex, MutationError, PartitionStrategy, Query,
    RankedIndex, RowBuf,
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

/// Checks the structural invariants of one mutated index against the
/// model. `staged` is the insert count since the last commit.
fn check_invariants(
    label: &str,
    index: &dyn MutableIndex,
    ens: &LshEnsemble,
    model: &BTreeMap<DomainId, u64>,
    staged: usize,
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
    prop_assert!(
        index.staged_len() == staged,
        "{label}: staged_len {} vs {staged}",
        index.staged_len()
    );
    if !model.is_empty() {
        prop_assert!(index.memory_bytes() > 0, "{label}: no memory accounted");
    }
    for &id in model.keys() {
        prop_assert!(ens.contains(id), "{label}: live id {id} not contained");
    }
    // Partition boundaries monotone and well-formed. Counts are physical
    // rows, so tombstoned domains still occupy their partition until
    // compaction folds them out.
    let stats = ens.partition_stats();
    let members: usize = stats.iter().map(|p| p.count).sum();
    let tombstones = ens.segment_stats().tombstones;
    prop_assert!(
        members == model.len() + tombstones,
        "{label}: partition members {members} vs model {} + {tombstones} tombstones",
        model.len()
    );
    for p in &stats {
        prop_assert!(p.lower <= p.upper, "{label}: inverted bounds {p:?}");
    }
    // Ordering is a per-tier property: each sealed segment (and the staged
    // pseudo-partition) restarts its own size range, so only the base
    // partitioning promises ordered, non-overlapping ranges.
    for w in ens.base_partition_stats().windows(2) {
        prop_assert!(
            w[0].upper <= w[1].lower,
            "{label}: overlapping partitions {w:?}"
        );
    }
    Ok(())
}

/// Self-queries: every live id is returned exactly once at `t* = 1.0`;
/// every removed id never (probed with its original signature). Checked
/// on a sample to bound runtime.
fn check_queryability(
    label: &str,
    ens: &LshEnsemble,
    model: &BTreeMap<DomainId, u64>,
    dead: &[(DomainId, u64)],
) -> Result<(), TestCaseError> {
    for (&id, &size) in model.iter().take(25) {
        let sig = signature_for(id, size);
        let got = ens.query_with_size(&sig, size, 1.0);
        let hits = got.iter().filter(|&&g| g == id).count();
        prop_assert!(hits == 1, "{label}: live id {id} found {hits} times");
    }
    for &(id, size) in dead.iter().take(25) {
        let sig = signature_for(id, size);
        prop_assert!(
            !ens.query_with_size(&sig, size, 1.0).contains(&id),
            "{label}: dead id {id} returned"
        );
        prop_assert!(!ens.contains(id), "{label}: dead id {id} contained");
    }
    Ok(())
}

proptest! {
    /// The headline property: arbitrary interleavings keep both the plain
    /// ensemble and the rebalancing ranked index consistent with the
    /// model, structurally sound, and exactly-once queryable.
    #[test]
    fn interleaved_mutations_preserve_equi_depth_invariants(
        initial_sizes in prop::collection::vec(1u64..1_500, 8..24),
        script in prop::collection::vec(0u32..1_000_000, 1..40),
        parts in 2usize..6,
        trigger_choice in 0usize..3,
    ) {
        // Build the initial corpus (ids 0..n) and the model.
        let mut model: BTreeMap<DomainId, u64> = BTreeMap::new();
        let mut ens_builder = LshEnsemble::builder_with(config(parts));
        let mut ranked_builder = RankedIndex::builder_with(config(parts));
        for (i, &size) in initial_sizes.iter().enumerate() {
            let id = i as DomainId;
            let sig = signature_for(id, size);
            ens_builder.add(id, size, sig.clone());
            ranked_builder.add(id, size, sig);
            model.insert(id, size);
        }
        let mut ens = ens_builder.build();
        let mut ranked = ranked_builder.build();
        // Sweep the trigger across "always", "default", and "never" so
        // rebalancing and conservative growth are both exercised.
        ranked.set_rebalance_trigger([0.5, 4.0, 1e12][trigger_choice]);

        let mut next_id = initial_sizes.len() as DomainId;
        let mut dead: Vec<(DomainId, u64)> = Vec::new();
        let mut staged = 0usize;
        for word in script {
            match word % 3 {
                0 => {
                    // Insert a fresh domain; duplicate inserts must fail
                    // identically on both indexes.
                    let id = next_id;
                    next_id += 1;
                    let size = 1 + u64::from(word / 3) % 3_000;
                    let sig = signature_for(id, size);
                    ens.insert(id, size, &sig).expect("fresh insert");
                    ranked.insert(id, size, &sig).expect("fresh insert");
                    prop_assert_eq!(
                        ens.insert(id, size, &sig),
                        Err(MutationError::DuplicateId(id))
                    );
                    prop_assert_eq!(
                        ranked.insert(id, size, &sig),
                        Err(MutationError::DuplicateId(id))
                    );
                    model.insert(id, size);
                    staged += 1;
                }
                1 => {
                    if model.is_empty() {
                        continue;
                    }
                    // Remove a deterministic live id; double removal must
                    // fail identically on both indexes.
                    let live: Vec<DomainId> = model.keys().copied().collect();
                    let id = live[(word as usize / 3) % live.len()];
                    // Removing a still-staged insert shrinks the backlog.
                    let was_staged = ens.staged_len();
                    ens.remove(id).expect("live remove");
                    ranked.remove(id).expect("live remove");
                    staged -= was_staged - ens.staged_len();
                    prop_assert_eq!(ens.remove(id), Err(MutationError::UnknownId(id)));
                    prop_assert_eq!(ranked.remove(id), Err(MutationError::UnknownId(id)));
                    let size = model.remove(&id).expect("modelled");
                    dead.push((id, size));
                }
                _ => {
                    let report = MutableIndex::commit(&mut ens);
                    prop_assert!(
                        report.merged == staged,
                        "ensemble commit merged {} vs staged {staged}",
                        report.merged
                    );
                    prop_assert!(!report.rebalanced, "plain ensemble cannot rebalance");
                    let _ = ranked.commit();
                    staged = 0;
                }
            }
            prop_assert_eq!(ranked.staged_len(), ens.staged_len());
        }

        check_invariants("ensemble", &ens, &ens, &model, staged)?;
        check_invariants("ranked", &ranked, ranked.ensemble(), &model, staged)?;
        check_queryability("ensemble", &ens, &model, &dead)?;
        check_queryability("ranked", ranked.ensemble(), &model, &dead)?;

        // A final commit folds everything and changes no answers.
        let _ = MutableIndex::commit(&mut ens);
        let _ = ranked.commit();
        prop_assert_eq!(ens.staged_len(), 0);
        check_queryability("ensemble/committed", &ens, &model, &dead)?;
        check_queryability("ranked/committed", ranked.ensemble(), &model, &dead)?;
    }

    /// Serialisation commutes with mutation: mutate → save → load lands on
    /// an index that answers exactly like the in-memory original.
    #[test]
    fn mutated_ensemble_roundtrips_through_bytes(
        initial_sizes in prop::collection::vec(1u64..800, 4..16),
        script in prop::collection::vec(0u32..1_000_000, 1..25),
    ) {
        let mut model: BTreeMap<DomainId, u64> = BTreeMap::new();
        let mut builder = LshEnsemble::builder_with(config(3));
        for (i, &size) in initial_sizes.iter().enumerate() {
            let id = i as DomainId;
            builder.add(id, size, signature_for(id, size));
            model.insert(id, size);
        }
        let mut ens = builder.build();
        let mut next_id = initial_sizes.len() as DomainId;
        for word in script {
            if word % 2 == 0 {
                let id = next_id;
                next_id += 1;
                let size = 1 + u64::from(word) % 900;
                ens.insert(id, size, &signature_for(id, size)).expect("insert");
                model.insert(id, size);
            } else if !model.is_empty() {
                let live: Vec<DomainId> = model.keys().copied().collect();
                let id = live[(word as usize) % live.len()];
                ens.remove(id).expect("remove");
                model.remove(&id);
            }
        }
        let restored = LshEnsemble::from_bytes(&ens.to_bytes()).expect("roundtrip");
        prop_assert_eq!(restored.len(), model.len());
        for (&id, &size) in model.iter().take(20) {
            let sig = signature_for(id, size);
            prop_assert!(
                ens.query_with_size(&sig, size, 1.0)
                    == restored.query_with_size(&sig, size, 1.0),
                "id {id} answers diverge after roundtrip"
            );
            prop_assert!(restored.contains(id));
        }
    }

    /// Background maintenance racing the mutation script: after every
    /// commit the leveled planner folds the sealed stack to quiescence
    /// through `apply_merge` — exactly the loop the serve maintainer
    /// runs — and at each quiescent point every mutable backend must
    /// agree with a fresh build of the live corpus: same `len`, every
    /// live id self-queries to exactly one hit in both (and `contains`
    /// agrees), every removed id to none, and the sealed stack sits
    /// within the planner's segment bound. (Full hit *sets* can
    /// legitimately differ — partition geometry depends on physical
    /// layout — so the contract is exact self-recall, not candidate-set
    /// equality.)
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
        let entries: Vec<(DomainId, u64, Signature)> = initial_sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| (i as DomainId, size, signature_for(i as DomainId, size)))
            .collect();
        let mut model: BTreeMap<DomainId, u64> =
            entries.iter().map(|&(id, size, _)| (id, size)).collect();
        // Signatures are memoised — recomputing them per probe dominates
        // the runtime otherwise.
        let mut sigs: BTreeMap<DomainId, Signature> = entries
            .iter()
            .map(|(id, _, sig)| (*id, sig.clone()))
            .collect();
        let mut backends = merge_backends(&entries);

        let mut next_id = initial_sizes.len() as DomainId;
        let mut dead: Vec<(DomainId, u64)> = Vec::new();
        for word in script {
            match word % 3 {
                0 => {
                    let id = next_id;
                    next_id += 1;
                    let size = 1 + u64::from(word / 3) % 500;
                    let sig = signature_for(id, size);
                    for (name, index) in &mut backends {
                        index.insert(id, size, &sig).unwrap_or_else(|e| {
                            panic!("{name}: fresh insert of {id} failed: {e:?}")
                        });
                    }
                    model.insert(id, size);
                    sigs.insert(id, sig);
                }
                1 => {
                    if model.is_empty() {
                        continue;
                    }
                    let live: Vec<DomainId> = model.keys().copied().collect();
                    let id = live[(word as usize / 3) % live.len()];
                    for (name, index) in &mut backends {
                        index.remove(id).unwrap_or_else(|e| {
                            panic!("{name}: live remove of {id} failed: {e:?}")
                        });
                    }
                    let size = model.remove(&id).expect("modelled");
                    dead.push((id, size));
                }
                _ => {
                    for (_, index) in &mut backends {
                        let _ = index.commit();
                    }
                    // Intermediate quiescent point: drain + the cheap
                    // checks (bound, self-recall on the merged index).
                    drain_and_check(&planner, &mut backends, &model, &dead, &sigs, false)?;
                }
            }
        }
        // Final quiescent point: commit whatever is staged, drain, and
        // additionally compare against a fresh build of the live corpus.
        for (_, index) in &mut backends {
            let _ = index.commit();
        }
        drain_and_check(&planner, &mut backends, &model, &dead, &sigs, true)?;
    }

    /// The container's id → row directory under arbitrary mutation, saved
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
        let mut removed: Vec<DomainId> = Vec::new();
        let scratch = Scratch::new();
        check_directory("built", &container, &model, &removed)?;
        for (step, word) in script.into_iter().enumerate() {
            let (op, word) = (word % 6, word / 6);
            let label = format!("step {step}: op {op}");
            match op {
                // An insert, one or two ids past the mark now and then: ids
                // with holes.
                0 | 1 => {
                    let id = container.next_id() + word % 3;
                    let size = 1 + u64::from(word) % 200;
                    let signature = hasher.signature(values_for(id, size));
                    let record = DomainRecord {
                        id,
                        size,
                        table: format!("t{}", id % 3),
                        column: format!("c{id}"),
                    };
                    let insert = DeltaOp::Insert { record, signature: signature.clone() };
                    container.apply(&[insert]).expect("fresh insert");
                    model.insert(id, (size, signature));
                }
                // A removal: every fourth time the top id, else any.
                2 if !model.is_empty() => {
                    let live: Vec<DomainId> = model.keys().copied().collect();
                    let id = if word % 4 == 0 {
                        live[live.len() - 1]
                    } else {
                        live[word as usize % live.len()]
                    };
                    container.apply(&[DeltaOp::Remove { id }]).expect("live remove");
                    model.remove(&id);
                    removed.push(id);
                }
                2 => continue,
                3 => {
                    container.commit_mutations();
                }
                4 if !model.is_empty() => {
                    container.compact_index();
                }
                4 => continue,
                // Saved and loaded: the mapped container answers like the
                // one it was saved from, and the script goes on over it.
                _ => {
                    container.commit_mutations();
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
            check_directory(&label, &container, &model, &removed)?;
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

/// Both mutable backends over the initial corpus, in a fixed order so
/// merged and fresh instances can be zipped.
fn merge_backends(
    entries: &[(DomainId, u64, Signature)],
) -> Vec<(&'static str, Box<dyn MutableIndex>)> {
    let mut ensemble = LshEnsemble::builder_with(config(3));
    let mut ranked = RankedIndex::builder_with(config(3));
    for (id, size, sig) in entries {
        ensemble.add(*id, *size, sig.clone());
        ranked.add(*id, *size, sig.clone());
    }
    vec![
        ("ensemble", Box::new(ensemble.build())),
        ("ranked", Box::new(ranked.build())),
    ]
}

/// Drains the planner's merge plan on every backend (the maintainer's
/// loop) and checks the quiescent-point invariants. With `full`, also
/// builds every backend fresh from the live corpus and checks self-recall
/// agreement (the expensive comparison, run once per case).
fn drain_and_check(
    planner: &Leveled,
    backends: &mut [(&'static str, Box<dyn MutableIndex>)],
    model: &BTreeMap<DomainId, u64>,
    dead: &[(DomainId, u64)],
    sigs: &BTreeMap<DomainId, Signature>,
    full: bool,
) -> Result<(), TestCaseError> {
    let sample = if full { 16 } else { 6 };
    // A fresh build needs at least one domain.
    let fresh = if full && !model.is_empty() {
        let fresh_entries: Vec<(DomainId, u64, Signature)> = model
            .iter()
            .map(|(&id, &size)| (id, size, sigs[&id].clone()))
            .collect();
        merge_backends(&fresh_entries)
    } else {
        Vec::new()
    };
    for (i, (name, index)) in backends.iter_mut().enumerate() {
        let name = *name;
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
            prop_assert!(rounds < 64, "{name}: merge plan never quiesced");
        }
        let layout = index.segment_layout();
        // The bound is sized on physical entries: segments retain
        // tombstoned rows until a fold erases them.
        let bound = planner.segment_bound(layout.len + layout.tombstones);
        prop_assert!(
            layout.segments.len() <= bound,
            "{name}: {} segments exceed the planner bound {bound} after drain",
            layout.segments.len()
        );
        prop_assert!(
            index.len() == model.len(),
            "{name}: len {} diverges from model {}",
            index.len(),
            model.len()
        );
        for (&id, &size) in model.iter().take(sample) {
            let sig = &sigs[&id];
            let query = Query::threshold(sig, 1.0).with_size(size);
            let mut probes: Vec<(&str, &dyn MutableIndex)> = vec![("merged", &**index)];
            if let Some((_, fresh)) = fresh.get(i) {
                probes.push(("fresh", &**fresh));
            }
            for (label, idx) in probes {
                let outcome = idx.search(&query).unwrap_or_else(|e| {
                    panic!("{name}/{label}: self-query for {id} failed: {e:?}")
                });
                let hits = outcome.hits.iter().filter(|h| h.id == id).count();
                prop_assert!(
                    hits == 1,
                    "{name}/{label}: live id {id} found {hits} times after merge"
                );
            }
        }
        for &(id, size) in dead.iter().take(sample) {
            let sig = &sigs[&id];
            let query = Query::threshold(sig, 1.0).with_size(size);
            let outcome = index
                .search(&query)
                .unwrap_or_else(|e| panic!("{name}: dead-id query for {id} failed: {e:?}"));
            prop_assert!(
                !outcome.hits.iter().any(|h| h.id == id),
                "{name}: dead id {id} returned after merge"
            );
        }
    }
    Ok(())
}
