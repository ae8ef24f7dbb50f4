//! Ranked and top-k containment search.
//!
//! §2 of the paper notes that the threshold and top-k formulations of
//! domain search are "closely related and complementary": thresholds suit
//! join discovery, but exploratory users often want *the k best domains*
//! regardless of score. [`LshEnsemble`]'s [`DomainIndex`] impl answers both
//! by reading each candidate's signature and cardinality back out of the
//! forest row that indexes it, which lets it
//!
//! * rank candidates by their **estimated containment**
//!   (`t̂ = (x/q + 1)·ŝ/(1 + ŝ)`, Eq. 6) and prune those below
//!   `t* − ESTIMATE_SLACK`, instead of returning an unordered candidate
//!   set, and
//! * answer top-k queries by descending through thresholds until enough
//!   candidates accumulate — reusing the tuned threshold machinery instead
//!   of scanning the corpus.
//!
//! The signature is resident once — the forests index a row table (each
//! tree's first key lane at 32 bits, the others at 16: `4·b_max +
//! 2·(m − b_max)` bytes a domain) instead of holding the lanes again — and
//! every partition keeps its rows' cardinalities beside it, so ranking
//! stores nothing of its own. The paper's unranked candidate set
//! (Algorithm 1) stays [`LshEnsemble::query_with_size`], and
//! [`Unranked`](crate::baselines::Unranked) serves it through the trait.

use crate::api::{DomainIndex, Query, QueryError, SearchOutcome};
use crate::ensemble::{EnsemblePartition, LshEnsemble};
use crate::partition::PartitionStrategy;
use crate::pipeline::ReadPath;
use lshe_lsh::DomainId;
use lshe_minhash::Signature;

/// The ensemble under its old ranked-wrapper name, which `perfbench` still
/// uses. ROADMAP item 2, the benchmark change, deletes it.
#[doc(hidden)]
pub type RankedIndex = LshEnsemble;

/// One ranked answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedHit {
    /// The candidate domain.
    pub id: DomainId,
    /// Estimated containment `t̂(Q, X)` from the retained sketches.
    pub estimated_containment: f64,
}

impl LshEnsemble {
    /// The index itself, which `perfbench` still asks for. ROADMAP item 2,
    /// the benchmark change, deletes it.
    #[doc(hidden)]
    #[must_use]
    pub fn ensemble(&self) -> &Self {
        self
    }

    /// Ranks arbitrary candidate ids by estimated containment (descending,
    /// ties by id) — the rank step of every ranked search. Candidates must
    /// all be indexed.
    ///
    /// # Panics
    /// Panics if a candidate id was never indexed.
    #[must_use]
    pub fn rank_candidates(
        &self,
        candidates: Vec<DomainId>,
        signature: &Signature,
        query_size: u64,
    ) -> Vec<RankedHit> {
        crate::pipeline::rank(self, candidates, signature, query_size)
    }

    fn read_path(&self) -> ReadPath<'_, &EnsemblePartition, Self> {
        ReadPath {
            tiers: self.tiers(),
            sketches: Some(self),
        }
    }
}

impl DomainIndex for LshEnsemble {
    fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        self.read_path().search(query)
    }

    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        self.read_path().search_batch(queries)
    }

    fn len(&self) -> usize {
        LshEnsemble::len(self)
    }

    fn memory_bytes(&self) -> usize {
        LshEnsemble::memory_bytes(self)
    }

    fn mapped_bytes(&self) -> usize {
        LshEnsemble::mapped_bytes(self)
    }

    fn id_map_bytes(&self) -> usize {
        LshEnsemble::id_map_bytes(self)
    }

    fn describe(&self) -> String {
        describe_strategy(self.config().strategy)
    }
}

/// The series label of an ensemble partitioned by `strategy`.
pub(crate) fn describe_strategy(strategy: PartitionStrategy) -> String {
    match strategy {
        PartitionStrategy::Single => "MinHash LSH (baseline)".to_owned(),
        PartitionStrategy::EquiDepth { n } => format!("LSH Ensemble ({n})"),
        PartitionStrategy::EquiWidth { n } => format!("LSH Ensemble equi-width ({n})"),
        PartitionStrategy::Morph { n, lambda } => {
            format!("LSH Ensemble morph ({n}, λ={lambda:.2})")
        }
        PartitionStrategy::EquiFp { n } => format!("LSH Ensemble equi-FP ({n})"),
    }
}

/// Merges two sorted unique id lists into one sorted unique list.
pub(crate) fn merge_unique(a: &[DomainId], b: &[DomainId]) -> Vec<DomainId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{Mutation, MutationError};
    use crate::ensemble::EnsembleConfig;
    use lshe_minhash::MinHasher;

    /// Nested pool corpus: domain k holds the first 30·(k+1) pool values.
    pub(crate) fn index(n: usize) -> (MinHasher, LshEnsemble, Vec<Vec<u64>>) {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(3, 30 * n);
        let mut b = LshEnsemble::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 4 },
            ..EnsembleConfig::default()
        });
        let mut values = Vec::new();
        for k in 0..n {
            let vals: Vec<u64> = pool[..30 * (k + 1)].to_vec();
            b.add(
                k as u32,
                vals.len() as u64,
                h.signature(vals.iter().copied()),
            );
            values.push(vals);
        }
        (h, b.build(), values)
    }

    /// The ranked hits of one search.
    fn ranked_hits(idx: &LshEnsemble, query: Query<'_>) -> Vec<RankedHit> {
        let outcome = idx.search(&query).expect("search");
        let ranked = |h: &crate::SearchHit| RankedHit {
            id: h.id,
            estimated_containment: h.estimate.expect("ranked index attaches estimates"),
        };
        outcome.hits.iter().map(ranked).collect()
    }

    #[test]
    fn ranked_output_is_descending() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[2].iter().copied());
        let hits = ranked_hits(
            &idx,
            Query::threshold(&q, 0.3).with_size(values[2].len() as u64),
        );
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].estimated_containment >= w[1].estimated_containment);
        }
    }

    #[test]
    fn self_match_ranks_first_with_estimate_one() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[5].iter().copied());
        let hits = ranked_hits(
            &idx,
            Query::threshold(&q, 0.5).with_size(values[5].len() as u64),
        );
        // Domain 5 and every superset have true containment 1.0; the self
        // match has Jaccard exactly 1 so its estimate is exactly 1.
        let self_hit = hits.iter().find(|hh| hh.id == 5).expect("self found");
        assert!((self_hit.estimated_containment - 1.0).abs() < 1e-9);
        assert!(hits[0].estimated_containment >= self_hit.estimated_containment);
    }

    #[test]
    fn top_k_returns_k_best() {
        let (h, idx, values) = index(25);
        let q = h.signature(values[3].iter().copied());
        let hits = ranked_hits(&idx, Query::top_k(&q, 5).with_size(values[3].len() as u64));
        assert_eq!(hits.len(), 5);
        // All returned should be supersets (containment ≈ 1) of domain 3.
        for hh in &hits {
            assert!(hh.estimated_containment > 0.8, "weak hit in top-5: {hh:?}");
        }
        for w in hits.windows(2) {
            assert!(w[0].estimated_containment >= w[1].estimated_containment);
        }
    }

    #[test]
    fn top_k_larger_than_matches_returns_what_exists() {
        let (h, idx, values) = index(5);
        let q = h.signature(values[0].iter().copied());
        let hits = ranked_hits(
            &idx,
            Query::top_k(&q, 100).with_size(values[0].len() as u64),
        );
        assert!(hits.len() <= 5);
        assert!(!hits.is_empty());
    }

    #[test]
    fn estimates_track_exact_containment() {
        let (h, idx, values) = index(20);
        let q_vals = &values[4];
        let q = h.signature(q_vals.iter().copied());
        let hits = ranked_hits(
            &idx,
            Query::threshold(&q, 0.2).with_size(q_vals.len() as u64),
        );
        for hh in hits {
            let x_vals = &values[hh.id as usize];
            let inter = q_vals.iter().filter(|v| x_vals.contains(v)).count();
            let exact = inter as f64 / q_vals.len() as f64;
            assert!(
                (hh.estimated_containment - exact).abs() < 0.2,
                "id {}: est {} vs exact {exact}",
                hh.id,
                hh.estimated_containment
            );
        }
    }

    #[test]
    fn prune_keeps_estimates_within_slack_of_threshold() {
        let (h, idx, values) = index(20);
        let q = h.signature(values[2].iter().copied());
        let query = Query::threshold(&q, 0.6).with_size(values[2].len() as u64);
        for hit in ranked_hits(&idx, query) {
            assert!(hit.estimated_containment >= 0.6 - crate::ESTIMATE_SLACK);
        }
    }

    #[test]
    fn mutation_updates_sketches_and_estimates() {
        let (h, mut idx, values) = index(15);
        let vals = MinHasher::synthetic_values(444, 120);
        let sig = h.signature(vals.iter().copied());
        idx.commit(&[Mutation::Insert(600, 120, &sig)])
            .expect("insert");
        assert!(idx.contains(600));
        // A committed insert is queryable WITH an estimate (self t̂ = 1).
        let hits = ranked_hits(&idx, Query::threshold(&sig, 0.9).with_size(120));
        let own = hits.iter().find(|hh| hh.id == 600).expect("self hit");
        assert!((own.estimated_containment - 1.0).abs() < 1e-9);
        // Duplicate → typed error; sketch map untouched.
        assert_eq!(
            idx.commit(&[Mutation::Insert(600, 120, &sig)]),
            Err(MutationError::DuplicateId(600))
        );
        assert_eq!(idx.len(), 16);
        // Removal drops the sketch too.
        idx.commit(&[Mutation::Remove(600)]).expect("remove");
        assert!(!idx.contains(600));
        assert!(idx.sketch(600).is_none());
        assert_eq!(
            idx.commit(&[Mutation::Remove(600)]),
            Err(MutationError::UnknownId(600))
        );
        // Existing domains unaffected.
        let q = h.signature(values[4].iter().copied());
        assert!(ranked_hits(
            &idx,
            Query::threshold(&q, 0.9).with_size(values[4].len() as u64)
        )
        .iter()
        .any(|hh| hh.id == 4));
    }

    /// Removes id 3 from `index(12)` and re-inserts it with disjoint
    /// content of the same size (so a fresh build of the final corpus
    /// partitions identically), in one committed batch. Returns the
    /// mutated index, that fresh build, and id 3's old sketch.
    pub(crate) fn reinserted() -> (LshEnsemble, LshEnsemble, Signature) {
        let (h, mut idx, values) = index(12);
        let size = values[3].len() as u64;
        let old = h.signature(values[3].iter().copied());
        let new = h.signature(MinHasher::synthetic_values(777, values[3].len()));
        let batch = [Mutation::Remove(3), Mutation::Insert(3, size, &new)];
        idx.commit(&batch).expect("remove and re-insert");
        let mut fresh = LshEnsemble::builder_with(*idx.config());
        for (k, vals) in values.iter().enumerate() {
            let sig = if k == 3 {
                new.clone()
            } else {
                h.signature(vals.iter().copied())
            };
            fresh.add(k as u32, vals.len() as u64, sig);
        }
        (idx, fresh.build(), old)
    }

    #[test]
    fn reinserted_id_is_swept_and_scored_like_a_fresh_build() {
        let (idx, fresh, old) = reinserted();
        for t_star in [1.0, 0.5, 0.0] {
            let query = Query::threshold(&old, t_star).with_size(120);
            let mutated = idx.search(&query).expect("search");
            let rebuilt = fresh.search(&query).expect("search");
            assert_eq!(mutated.hits, rebuilt.hits, "t* = {t_star}");
            assert_eq!(
                mutated.stats.candidates, rebuilt.stats.candidates,
                "t* = {t_star}: stale rows reached the rank step"
            );
        }
    }

    #[test]
    fn a_batch_with_a_bad_last_op_names_it_and_changes_nothing() {
        let (h, mut idx, _) = index(12);
        let fresh = h.signature(MinHasher::synthetic_values(55, 40));
        let narrow = MinHasher::new(64).signature([1u64, 2]);
        let before = idx.to_bytes();
        // Each good op is one the index would take alone.
        let good = [Mutation::Remove(2), Mutation::Insert(900, 40, &fresh)];
        let width = "op 2: signature width mismatch: domain has 64, index expects 256";
        for (bad, want) in [
            (
                Mutation::Insert(5, 40, &fresh),
                MutationError::DuplicateId(5),
            ),
            (good[1], MutationError::DuplicateId(900)),
            (good[0], MutationError::UnknownId(2)),
            (
                Mutation::Insert(901, 2, &narrow),
                MutationError::Invalid(width.into()),
            ),
        ] {
            assert_eq!(idx.commit(&[good[0], good[1], bad]), Err(want));
            assert!(idx.to_bytes() == before, "a refused batch left a trace");
            assert!(idx.contains(2) && !idx.contains(900));
        }
        let report = idx.commit(&good).expect("the good ops alone");
        assert_eq!((report.merged, report.tombstones), (1, 1));
    }

    #[test]
    fn an_insert_removed_in_its_own_batch_seals_nothing() {
        let (h, mut idx, _) = index(12);
        let a = h.signature(MinHasher::synthetic_values(61, 40));
        let b = h.signature(MinHasher::synthetic_values(62, 50));
        let before = idx.to_bytes();
        let (insert, remove) = (Mutation::Insert(900, 40, &a), Mutation::Remove(900));
        let report = idx.commit(&[insert, remove]).expect("insert then remove");
        assert_eq!(
            (report.merged, report.sealed, report.segments),
            (0, false, 0)
        );
        assert!(idx.to_bytes() == before, "a cancelled insert left a trace");
        // Beside a kept insert, the cancelled one is not in the segment.
        let batch = [insert, Mutation::Insert(901, 50, &b), remove];
        let report = idx.commit(&batch).expect("one kept insert");
        assert_eq!(
            (report.merged, report.segments, report.tombstones),
            (1, 1, 0)
        );
        let stats = idx.partition_stats();
        let sealed = &stats[idx.num_partitions()..];
        assert_eq!(sealed.iter().map(|p| p.count).sum::<usize>(), 1);
        assert!(!idx.contains(900) && idx.contains(901));
    }

    #[test]
    fn commit_seals_and_compaction_rebalances() {
        let (h, mut idx, _) = index(16);
        // Flood one size class. The flood seals into a segment: the base
        // layout is untouched, so commit stays O(batch) however large the
        // flood. Only compaction pays the rebuild.
        let sigs: Vec<Signature> = (0..64u64)
            .map(|i| h.signature(MinHasher::synthetic_values(9_000 + i, 10)))
            .collect();
        let flood: Vec<Mutation<'_>> = (1_000..)
            .zip(&sigs)
            .map(|(id, sig)| Mutation::Insert(id, 10, sig))
            .collect();
        // The base's partitions lead the stats; segment partitions follow.
        let base = |idx: &LshEnsemble| -> Vec<usize> {
            let stats = idx.partition_stats();
            let base = &stats[..idx.num_partitions()];
            base.iter().map(|p| p.count).collect()
        };
        let base_before = base(&idx);
        let report = idx.commit(&flood).expect("flood");
        assert_eq!(report.merged, 64);
        assert!(report.sealed, "non-empty batch must seal");
        assert_eq!((report.segments, report.entries_folded), (1, 0));
        assert_eq!(base(&idx), base_before, "seal touched the base");
        // Compaction folds the segment and rebuilds equi-depth from the
        // retained sketches: the flooded class spreads across the base.
        let folded = idx.compact();
        assert_eq!(folded.entries_folded, 80, "compaction rewrites every entry");
        assert_eq!((folded.segments, folded.tombstones), (0, 0));
        assert_eq!(base(&idx).iter().sum::<usize>(), 80);
        assert_eq!(idx.partition_stats().len(), 4);
        // Everything is still queryable after the fold.
        for i in [1_000u32, 1_031, 1_063] {
            let vals = MinHasher::synthetic_values(9_000 + u64::from(i - 1_000), 10);
            let sig = h.signature(vals.iter().copied());
            assert!(
                ranked_hits(&idx, Query::threshold(&sig, 0.9).with_size(10))
                    .iter()
                    .any(|hh| hh.id == i),
                "domain {i} lost in compaction"
            );
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let (h, idx, values) = index(5);
        let q = h.signature(values[0].iter().copied());
        let _ = ranked_hits(&idx, Query::top_k(&q, 0).with_size(values[0].len() as u64));
    }

    #[test]
    fn merge_unique_works() {
        assert_eq!(merge_unique(&[1, 3, 5], &[2, 3, 6]), vec![1, 2, 3, 5, 6]);
        assert_eq!(merge_unique(&[], &[1]), vec![1]);
        assert_eq!(merge_unique(&[1], &[]), vec![1]);
    }
}
