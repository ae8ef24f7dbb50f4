//! Batched query execution plumbing under every backend's
//! [`DomainIndex::search_batch`](crate::DomainIndex::search_batch).
//!
//! The paper's deployment (§6.3) answers heavy multi-user traffic, and
//! the standard lever at that scale is amortization: probe each
//! partition once per *batch* while its forest is hot, reuse the dedup
//! scratch across queries, and pay the thread fan-out once per batch
//! instead of once per query. This module holds the pieces around the
//! sweep itself — the worker-lane chunking, the per-batch split of valid
//! threshold items from top-k and malformed queries, and the disjoint
//! sorted-run merge the `lshe-cluster` coordinator unions shard answers
//! with; the partition-outer sweep is the `pipeline` module's.
//!
//! Everything here is *semantics-preserving*: a batched execution must
//! return, per query, exactly the hits and deterministic
//! [`QueryStats`](crate::QueryStats) fields the looped single-query path
//! would (`wall_micros` is the one field that reports timing rather than
//! the answer, and under batching it carries the execution time
//! attributed to that query). The conformance and property suites pin
//! this equivalence for every backend.

use crate::api::{Query, QueryError, QueryMode, SearchOutcome};
use lshe_lsh::DomainId;
use lshe_minhash::Signature;

/// Runs `run` over contiguous chunks of `items` across worker lanes
/// spawned once per batch — the process-wide
/// [`lshe_minhash::lanes`] harness, which floors tiny batches to inline
/// execution, runs the first chunk on the calling thread, and draws
/// extra lanes from one shared budget so concurrent batches degrade
/// gracefully instead of multiplying threads across callers. `run` must
/// be a pure function of its chunk, so the chunking can never change
/// results.
pub(crate) use lshe_minhash::lanes::run_chunked as chunked;

/// One pre-validated threshold query of a batch: the borrowed signature,
/// the effective query cardinality, and the containment threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThresholdItem<'a> {
    /// The query signature (borrowed from the caller's [`Query`]).
    pub signature: &'a Signature,
    /// `|Q|` — supplied or estimated, exactly as the single path sees it.
    pub size: u64,
    /// The containment threshold `t*`.
    pub t_star: f64,
}

/// Splits a batch into per-query validation errors, top-k queries, and
/// runnable threshold items; runs `run_thresholds` ONCE over all the
/// threshold items (the amortized path) and `run_top_k` per top-k query;
/// reassembles everything in request order.
///
/// Validation runs per query with [`Query::validate_for`], so a
/// malformed query yields its [`QueryError`] in position without
/// affecting any other query — the same typed-error-never-a-panic
/// contract as [`DomainIndex::search`](crate::DomainIndex::search).
pub(crate) fn split_and_run<'q>(
    queries: &[Query<'q>],
    num_perm: usize,
    run_thresholds: impl FnOnce(&[ThresholdItem<'_>]) -> Vec<SearchOutcome>,
    mut run_top_k: impl FnMut(&Query<'q>, usize) -> Result<SearchOutcome, QueryError>,
) -> Vec<Result<SearchOutcome, QueryError>> {
    let mut results: Vec<Option<Result<SearchOutcome, QueryError>>> =
        Vec::with_capacity(queries.len());
    let mut items = Vec::new();
    let mut positions = Vec::new();
    for (i, query) in queries.iter().enumerate() {
        if let Err(e) = query.validate_for(num_perm) {
            results.push(Some(Err(e)));
            continue;
        }
        match query.mode() {
            QueryMode::Threshold(t_star) => {
                positions.push(i);
                items.push(ThresholdItem {
                    signature: query.signature(),
                    size: query.effective_size(),
                    t_star,
                });
                results.push(None);
            }
            QueryMode::TopK(k) => results.push(Some(run_top_k(query, k))),
        }
    }
    // Skip the amortized dispatch entirely when nothing runs through it
    // (an all-top-k or all-invalid batch).
    let outcomes = if items.is_empty() {
        Vec::new()
    } else {
        run_thresholds(&items)
    };
    debug_assert_eq!(outcomes.len(), positions.len(), "one outcome per item");
    for (pos, outcome) in positions.into_iter().zip(outcomes) {
        results[pos] = Some(Ok(outcome));
    }
    results
        .into_iter()
        .map(|r| r.expect("every batch slot filled"))
        .collect()
}

/// Merges per-shard sorted id runs into one sorted unique list. Shards
/// hold disjoint id sets, so a pairwise sorted merge suffices. The
/// `lshe-cluster` coordinator unions per-shard wire results with it.
///
/// Inputs MUST be disjoint: a duplicate id across runs means two shards
/// claim the same domain (a mis-placed split, or one container served
/// twice), and the union would silently under-count. Debug builds assert
/// on it; release builds keep the id once, matching the historical
/// behaviour.
#[must_use]
pub fn merge_sorted_disjoint(mut runs: Vec<Vec<DomainId>>) -> Vec<DomainId> {
    let mut merged = if runs.is_empty() {
        Vec::new()
    } else {
        runs.swap_remove(0)
    };
    for r in runs {
        let mut out = Vec::with_capacity(merged.len() + r.len());
        let (mut i, mut j) = (0, 0);
        while i < merged.len() && j < r.len() {
            match merged[i].cmp(&r[j]) {
                std::cmp::Ordering::Less => {
                    out.push(merged[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(r[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    debug_assert!(
                        false,
                        "merge_sorted_disjoint: id {} appears in two runs — shard inputs must be disjoint",
                        merged[i]
                    );
                    out.push(merged[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&merged[i..]);
        out.extend_from_slice(&r[j..]);
        merged = out;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_matches_manual_union() {
        let merged = merge_sorted_disjoint(vec![vec![1, 4, 9], vec![2, 5], vec![3, 8, 10]]);
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 8, 9, 10]);
        assert_eq!(merge_sorted_disjoint(Vec::new()), Vec::<DomainId>::new());
        assert_eq!(merge_sorted_disjoint(vec![vec![], vec![2]]), vec![2]);
    }

    #[test]
    fn merge_empty_shard_result_is_transparent() {
        // One shard answered nothing (e.g. no candidates): the union is
        // exactly the other shards' ids, in order.
        assert_eq!(
            merge_sorted_disjoint(vec![vec![3, 7], vec![], vec![1, 5]]),
            vec![1, 3, 5, 7]
        );
    }

    #[test]
    fn merge_single_shard_is_identity() {
        assert_eq!(merge_sorted_disjoint(vec![vec![2, 4, 6]]), vec![2, 4, 6]);
    }

    #[test]
    fn merge_all_empty_yields_empty() {
        assert_eq!(
            merge_sorted_disjoint(vec![vec![], vec![], vec![]]),
            Vec::<DomainId>::new()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "shard inputs must be disjoint")]
    fn merge_rejects_duplicate_ids_across_runs() {
        // Id 4 claimed by two runs: a mis-placed split. Debug builds must
        // refuse rather than silently under-count the union.
        let _ = merge_sorted_disjoint(vec![vec![1, 4], vec![4, 9]]);
    }
}
