//! Batched query execution plumbing under every backend's
//! [`DomainIndex::search_batch`](crate::DomainIndex::search_batch).
//!
//! The paper's deployment (§6.3) answers heavy multi-user traffic, and
//! the standard lever at that scale is amortization: probe each
//! partition once per *batch* while its forest is hot, reuse the dedup
//! scratch across queries, and pay the thread fan-out once per batch
//! instead of once per query. This module holds the per-batch split of
//! valid threshold items from top-k and malformed queries; the
//! partition-outer sweep is the `pipeline` module's, and the worker lanes
//! are [`lshe_minhash::lanes::run_chunked`]'s.
//!
//! Batching never changes an answer: the sweep is the same code over a
//! chunk of any size, and a single [`DomainIndex::search`](crate::DomainIndex::search)
//! is a batch of one, so a query yields exactly the hits and deterministic
//! [`QueryStats`](crate::QueryStats) fields in any batch (`wall_micros` is
//! the one field that reports timing rather than the answer: the execution
//! time attributed to that query). The conformance and property suites
//! check this shape-independence for every backend.

use crate::api::{Query, QueryError, QueryMode, SearchOutcome};
use lshe_minhash::Signature;

/// One pre-validated threshold query of a batch: the borrowed signature,
/// the effective query cardinality, and the containment threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThresholdItem<'a> {
    /// The query signature (borrowed from the caller's [`Query`]).
    pub signature: &'a Signature,
    /// `|Q|`: supplied, or estimated by [`Query::effective_size`].
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
