//! Exact containment search — the ground-truth engine (Eq. 2, §6.1).
//!
//! The paper computes exact containment scores for the Canadian Open Data
//! corpus to measure precision and recall. [`ExactIndex`] does the same
//! here: an inverted index from universe hash to the domains containing it,
//! so a query of `q` values costs `Σ posting-list lengths` instead of a scan
//! over every domain.

use crate::catalog::{Catalog, DomainId};
use crate::domain::Domain;
use lshe_core::{DomainIndex, ProbeCounts, Query, QueryError, QueryMode, SearchHit, SearchOutcome};
use lshe_minhash::hash::FastHashMap;

/// Inverted index over a catalog for exact containment queries.
#[derive(Debug, Clone)]
pub struct ExactIndex {
    /// value hash → sorted ids of domains containing the value.
    postings: FastHashMap<u64, Vec<DomainId>>,
    /// Domain sizes by id: each hit's size.
    sizes: Vec<u32>,
}

impl ExactIndex {
    /// Builds the inverted index over every domain in the catalog.
    #[must_use]
    pub fn build(catalog: &Catalog) -> Self {
        let mut postings: FastHashMap<u64, Vec<DomainId>> = FastHashMap::default();
        let mut sizes = Vec::with_capacity(catalog.len());
        for (id, domain) in catalog.iter() {
            sizes.push(domain.len() as u32);
            for &h in domain.hashes() {
                postings.entry(h).or_default().push(id);
            }
        }
        Self { postings, sizes }
    }

    /// Number of indexed domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// True if no domain is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Number of distinct values across the corpus.
    #[must_use]
    #[cfg(test)]
    pub fn distinct_values(&self) -> usize {
        self.postings.len()
    }

    /// Exact intersection counts `|Q ∩ X|` for every domain X overlapping
    /// the query at all, as `(id, count)` pairs in unspecified order.
    #[must_use]
    pub fn overlap_counts(&self, query: &Domain) -> Vec<(DomainId, u32)> {
        let mut counts: FastHashMap<DomainId, u32> = FastHashMap::default();
        for &h in query.hashes() {
            if let Some(ids) = self.postings.get(&h) {
                for &id in ids {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
        }
        counts.into_iter().collect()
    }

    /// The ground-truth answer set `{X : t(Q, X) ≥ t*}` (Eq. 2), sorted by
    /// id.
    ///
    /// # Panics
    /// Panics if `threshold` is outside `[0, 1]` or the query is empty.
    #[must_use]
    pub fn search(&self, query: &Domain, threshold: f64) -> Vec<DomainId> {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be in [0, 1]"
        );
        assert!(!query.is_empty(), "query domain must not be empty");
        let q = query.len() as f64;
        let mut out: Vec<DomainId> = self
            .overlap_counts(query)
            .into_iter()
            .filter(|&(_, c)| f64::from(c) / q >= threshold)
            .map(|(id, _)| id)
            .collect();
        out.sort_unstable();
        out
    }

    /// Exact containment scores `t(Q, X)` for all overlapping domains,
    /// sorted descending by score (ties by id). Useful for top-k style
    /// inspection and the experiment harness.
    #[must_use]
    pub fn scores(&self, query: &Domain) -> Vec<(DomainId, f64)> {
        let q = query.len() as f64;
        let mut out: Vec<(DomainId, f64)> = self
            .overlap_counts(query)
            .into_iter()
            .map(|(id, c)| (id, f64::from(c) / q))
            .collect();
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        out
    }
}

impl ExactIndex {
    /// One query of [`DomainIndex::search_batch`].
    fn answer(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        // Exact search never reads the signature, so don't reject on
        // width; validate only the mode/size fields.
        query.validate_for(query.signature().len())?;
        let Some(hashes) = query.hashes() else {
            return Err(QueryError::Unsupported(
                "exact search needs the raw query values (Query::with_hashes)".into(),
            ));
        };
        if hashes.is_empty() {
            return Err(QueryError::Invalid("query domain must not be empty".into()));
        }
        let started = std::time::Instant::now();
        let domain = Domain::from_hashes(hashes.to_vec());
        let q = domain.len() as f64;
        let mut scored: Vec<(DomainId, f64)> = self
            .overlap_counts(&domain)
            .into_iter()
            .map(|(id, c)| (id, f64::from(c) / q))
            .collect();
        let candidates = scored.len();
        scored.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
        let hit = |(id, t): (DomainId, f64)| SearchHit {
            id,
            size: u64::from(self.sizes[id as usize]),
            estimate: Some(t),
        };
        let hits: Vec<SearchHit> = match query.mode() {
            QueryMode::Threshold(t_star) => {
                let kept = scored.into_iter().filter(|&(_, t)| t >= t_star);
                kept.map(hit).collect()
            }
            QueryMode::TopK(k) => scored.into_iter().take(k).map(hit).collect(),
        };
        let probe = ProbeCounts {
            probed: 1,
            total: 1,
            candidates,
        };
        let nanos = started.elapsed().as_nanos() as u64;
        Ok(SearchOutcome::new(hits, probe, nanos))
    }
}

/// The exact engine behind the unified query surface: queries must carry
/// their raw universe hashes ([`Query::with_hashes`]); the signature is
/// ignored and every estimate is the *true* containment — which is what
/// makes this the conformance reference for every sketch-based backend.
impl DomainIndex for ExactIndex {
    fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        queries.iter().map(|query| self.answer(query)).collect()
    }

    fn len(&self) -> usize {
        ExactIndex::len(self)
    }

    fn memory_bytes(&self) -> usize {
        self.postings
            .values()
            .map(|ids| 16 + ids.len() * std::mem::size_of::<DomainId>())
            .sum::<usize>()
            + self.sizes.len() * std::mem::size_of::<u32>()
    }

    fn describe(&self) -> String {
        "Exact inverted index".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DomainMeta;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        // 0: {1..10}, 1: {1..5}, 2: {6..10}, 3: {100..110}
        c.push(
            Domain::from_hashes((1..=10).collect()),
            DomainMeta::default(),
        );
        c.push(
            Domain::from_hashes((1..=5).collect()),
            DomainMeta::default(),
        );
        c.push(
            Domain::from_hashes((6..=10).collect()),
            DomainMeta::default(),
        );
        c.push(
            Domain::from_hashes((100..=110).collect()),
            DomainMeta::default(),
        );
        c
    }

    #[test]
    fn search_matches_definition() {
        let c = catalog();
        let idx = ExactIndex::build(&c);
        let q = Domain::from_hashes((1..=5).collect());
        // t(q, 0) = 1.0; t(q, 1) = 1.0; t(q, 2) = 0; t(q, 3) = 0.
        assert_eq!(idx.search(&q, 1.0), vec![0, 1]);
        assert_eq!(idx.search(&q, 0.5), vec![0, 1]);
        let q2 = Domain::from_hashes((4..=8).collect()); // hits 0 (5/5), 1 (2/5), 2 (3/5)
        assert_eq!(idx.search(&q2, 0.6), vec![0, 2]);
        assert_eq!(idx.search(&q2, 0.4), vec![0, 1, 2]);
    }

    #[test]
    fn search_agrees_with_pairwise_containment() {
        let c = catalog();
        let idx = ExactIndex::build(&c);
        let q = Domain::from_hashes(vec![2, 3, 7, 105]);
        for t in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let got = idx.search(&q, t);
            let want: Vec<DomainId> = c
                .iter()
                .filter(|(_, d)| q.containment_in(d) >= t)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(got, want, "threshold {t}");
        }
    }

    #[test]
    fn threshold_zero_returns_overlapping_only() {
        // By Eq. 2 every domain satisfies t ≥ 0, but domains with zero
        // overlap are uninteresting; we return overlap > 0 ∪ nothing else.
        // (The harness never queries at t* = 0; documented behaviour.)
        let c = catalog();
        let idx = ExactIndex::build(&c);
        let q = Domain::from_hashes(vec![1]);
        assert_eq!(idx.search(&q, 0.0), vec![0, 1]);
    }

    #[test]
    fn scores_sorted_descending() {
        let c = catalog();
        let idx = ExactIndex::build(&c);
        let q = Domain::from_hashes((4..=8).collect());
        let scores = idx.scores(&q);
        for w in scores.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(scores[0].0, 0);
        assert!((scores[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_query_finds_nothing() {
        let idx = ExactIndex::build(&catalog());
        let q = Domain::from_hashes(vec![999_999]);
        assert!(idx.search(&q, 0.1).is_empty());
    }

    #[test]
    fn stats_accessors() {
        let idx = ExactIndex::build(&catalog());
        assert_eq!(idx.len(), 4);
        assert!(!idx.is_empty());
        // values 1..10 and 100..110 → 10 + 11 = 21 distinct.
        assert_eq!(idx.distinct_values(), 21);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_query_rejected() {
        let idx = ExactIndex::build(&catalog());
        let _ = idx.search(&Domain::default(), 0.5);
    }

    #[test]
    fn domain_index_surface_matches_inherent_search() {
        let idx = ExactIndex::build(&catalog());
        let hashes: Vec<u64> = (4..=8).collect();
        let hasher = lshe_minhash::MinHasher::new(64);
        let sig = hasher.signature(hashes.iter().copied());
        let query = lshe_core::Query::threshold(&sig, 0.6).with_hashes(&hashes);
        let out = DomainIndex::search(&idx, &query).expect("search");
        let mut ids: Vec<DomainId> = out.ids();
        ids.sort_unstable();
        assert_eq!(ids, idx.search(&Domain::from_hashes(hashes.clone()), 0.6));
        // Estimates are exact containments, hits sorted descending.
        for h in &out.hits {
            assert!((0.0..=1.0).contains(&h.estimate.expect("exact estimate")));
        }
        for w in out.hits.windows(2) {
            assert!(w[0].estimate >= w[1].estimate);
        }
        assert!(out.stats.candidates >= out.stats.survivors);

        // Top-k through the same surface.
        let top = DomainIndex::search(&idx, &lshe_core::Query::top_k(&sig, 2).with_hashes(&hashes))
            .expect("topk");
        assert_eq!(top.hits.len(), 2);
        assert_eq!(top.hits[0].id, 0, "perfect container ranks first");

        // Without raw values the exact engine reports a typed error.
        let err = DomainIndex::search(&idx, &lshe_core::Query::threshold(&sig, 0.5)).unwrap_err();
        assert!(matches!(err, QueryError::Unsupported(_)), "{err}");
    }
}
