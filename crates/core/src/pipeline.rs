//! The one containment read path: `Partitioned-Containment-Search`
//! (§5.4–§5.5) written once, for every index that answers it.
//!
//! precondition check → partition sweep (skip-prune, per-query `(b, r)`
//! tuning, probe, liveness filter, dedup + sort, [`ProbeCounts`]) →
//! [`rank`] by estimated containment → `t* − ESTIMATE_SLACK` prune, or the
//! top-k threshold descent + truncate → [`SearchOutcome`] assembly, for
//! `search` and `search_batch` alike.
//!
//! The pipeline is generic over the two things that genuinely differ
//! between backends — *a partition that can be probed* ([`Probe`]: a heap
//! forest or mapped tree columns) and *a sketch lookup* ([`Sketches`]: the
//! heap ensemble's rows or mapped sketch columns). Candidates always come
//! from one index's [`Tiers`]; the §6.3 fan-out across nodes is
//! `lshe split` + `lshe cluster`, not a second candidate source here.
//! Everything is statically dispatched; no backend carries a second copy
//! of any step, so heap ≡ mapped holds by construction.

use crate::api::{
    outcome, top_k_descend, unranked, ProbeCounts, Query, QueryError, QueryMode, SearchHit,
    SearchOutcome, ESTIMATE_SLACK,
};
use crate::batch::{chunked, split_and_run, ThresholdItem};
use crate::ensemble::DeadSlot;
use crate::ranked::RankedHit;
use crate::tuning::Tuner;
use lshe_lsh::{DomainId, Row, RowBuf};
use lshe_minhash::hash::FastHashSet;
use lshe_minhash::{containment_from_jaccard, lanes, Signature};
use std::time::Instant;

/// A size partition that can be probed at any `(b ≤ b_max, r ≤ r_max)`.
pub(crate) trait Probe: Sync {
    /// The partition's size upper bound `u` (threshold conversion, Eq. 7).
    fn upper(&self) -> u64;

    /// Appends every domain sharing an `r`-lane prefix with `signature` in
    /// any of the first `b` trees (duplicates included).
    fn probe(&self, signature: &Signature, b: usize, r: usize, out: &mut Vec<DomainId>);
}

/// Retained sketches: id → (cardinality, the stored row). Every row of one
/// index has the same layout.
pub(crate) trait Sketches: Sync {
    /// The domain's sketch, or `None` if the id is not retained.
    fn sketch(&self, id: DomainId) -> Option<(u64, Row<'_>)>;
}

/// The sketch store of an index that retains none.
impl Sketches for () {
    fn sketch(&self, _: DomainId) -> Option<(u64, Row<'_>)> {
        None
    }
}

fn check_query(num_perm: usize, item: &ThresholdItem<'_>) {
    assert!(item.size > 0, "query size must be positive");
    assert!(
        (0.0..=1.0).contains(&item.t_star),
        "containment threshold must be in [0, 1]"
    );
    assert_eq!(item.signature.len(), num_perm, "signature width mismatch");
}

/// Dedups `raw` through the reusable scratch `set` and sorts it.
fn sorted_unique(mut raw: Vec<DomainId>, set: &mut FastHashSet<DomainId>) -> Vec<DomainId> {
    set.extend(raw.drain(..));
    raw.extend(set.drain());
    raw.sort_unstable();
    raw
}

/// One index's sweepable partitions, in stats order: base, then each
/// sealed segment's.
pub(crate) struct Tiers<'a, P> {
    pub num_perm: usize,
    pub tuner: &'a Tuner,
    /// Each partition with the tier a tombstone names it by.
    pub units: Vec<(DeadSlot, P)>,
    /// Tombstones: rows still physically present in the named tier.
    pub dead: &'a FastHashSet<(DomainId, DeadSlot)>,
}

/// Queries swept together per partition-outer pass: large enough to
/// amortize partition/forest locality, small enough to bound the raw
/// candidate memory held at once (see [`Tiers::sweep_chunk`]).
const SWEEP_GROUP: usize = 32;

impl<P: Probe> Tiers<'_, P> {
    /// Probes one partition into `out`; returns whether it was actually
    /// consulted (false = skip-pruned).
    fn probe_unit(
        &self,
        (tier, part): &(DeadSlot, P),
        item: &ThresholdItem<'_>,
        out: &mut Vec<DomainId>,
    ) -> bool {
        // A domain's containment cannot exceed x/q ≤ upper/q: partitions
        // that cannot reach the threshold are skipped outright.
        if (part.upper() as f64) < item.t_star * item.size as f64 {
            return false;
        }
        let params = self.tuner.optimize(part.upper(), item.size, item.t_star);
        let before = out.len();
        part.probe(item.signature, params.b as usize, params.r as usize, out);
        if !self.dead.is_empty() {
            // Liveness is per tier: a row tombstoned here is dropped even
            // when its id was re-inserted and lives on in a newer tier —
            // that tier answers for the new content itself.
            let mut kept = before;
            for i in before..out.len() {
                if !self.dead.contains(&(out[i], *tier)) {
                    out[kept] = out[i];
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        true
    }

    fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            probed: 0,
            total: self.units.len(),
            candidates: 0,
        }
    }

    /// Partition-outer sweep of `chunk`: the partition loop runs once per
    /// group of queries, every query probes a partition while it is hot,
    /// and one dedup scratch set serves the whole chunk.
    ///
    /// The chunk is swept in groups of [`SWEEP_GROUP`] queries so peak
    /// memory holds at most one group's *raw* (pre-dedup) candidate
    /// unions, never the whole batch's — a low-threshold query can make
    /// every partition contribute near the full corpus, and thousands of
    /// such accumulators at once would be an OOM vector on the server.
    fn sweep_chunk<R>(
        &self,
        chunk: &[ThresholdItem<'_>],
        post: &impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R,
    ) -> Vec<R> {
        let mut set = FastHashSet::default();
        let mut results = Vec::with_capacity(chunk.len());
        for group in chunk.chunks(SWEEP_GROUP) {
            // Per-query accumulators: raw candidates, probes, nanos.
            let mut acc: Vec<(Vec<DomainId>, ProbeCounts, u64)> = group
                .iter()
                .map(|_| (Vec::new(), self.counts(), 0))
                .collect();
            for unit in &self.units {
                for (item, (raw, probe, nanos)) in group.iter().zip(&mut acc) {
                    let started = Instant::now();
                    let before = raw.len();
                    probe.probed += usize::from(self.probe_unit(unit, item, raw));
                    probe.candidates += raw.len() - before;
                    *nanos += started.elapsed().as_nanos() as u64;
                }
            }
            for (item, (raw, probe, nanos)) in group.iter().zip(acc) {
                let started = Instant::now();
                let ids = sorted_unique(raw, &mut set);
                let nanos = nanos + started.elapsed().as_nanos() as u64;
                results.push(post(item, ids, probe, nanos));
            }
        }
        results
    }

    /// One query: sorted-unique candidate ids plus probe counters.
    /// `parallel` asks for the partitions to be probed across
    /// budget-governed lanes; the answer is identical either way.
    ///
    /// # Panics
    /// Panics on a zero size, an out-of-range threshold, or a signature
    /// width mismatch.
    pub fn sweep(&self, item: &ThresholdItem<'_>, parallel: bool) -> (Vec<DomainId>, ProbeCounts) {
        check_query(self.num_perm, item);
        let mut probe = self.counts();
        let mut raw = Vec::new();
        if parallel {
            // Partitions are chunked across lanes drawn from the
            // process-wide budget, not one thread per partition: on a
            // single-core or saturated host the budget yields zero extras
            // and the probe runs inline, identical to the sequential path.
            let buffers: Vec<(Vec<DomainId>, bool)> = lanes::run_chunked(&self.units, |chunk| {
                chunk
                    .iter()
                    .map(|unit| {
                        let mut buf = Vec::new();
                        let probed = self.probe_unit(unit, item, &mut buf);
                        (buf, probed)
                    })
                    .collect()
            });
            for (buf, probed) in buffers {
                probe.probed += usize::from(probed);
                raw.extend(buf);
            }
        } else {
            for unit in &self.units {
                probe.probed += usize::from(self.probe_unit(unit, item, &mut raw));
            }
        }
        probe.candidates = raw.len();
        (sorted_unique(raw, &mut FastHashSet::default()), probe)
    }

    /// A batch of pre-validated queries, thread fan-out paid once: per
    /// query exactly [`sweep`](Self::sweep)'s ids and counters plus the
    /// execution time attributed to it in nanoseconds, each handed to
    /// `post` on the worker that finished it.
    fn sweep_batch<R: Send>(
        &self,
        items: &[ThresholdItem<'_>],
        post: impl Fn(&ThresholdItem<'_>, Vec<DomainId>, ProbeCounts, u64) -> R + Sync,
    ) -> Vec<R> {
        chunked(items, |chunk| self.sweep_chunk(chunk, &post))
    }
}

/// Ranks candidate ids by estimated containment (`t̂ = (x/q + 1)·ŝ/(1 + ŝ)`,
/// Eq. 6), descending, ties by id.
///
/// # Panics
/// Panics if a candidate id has no sketch.
pub(crate) fn rank(
    sketches: &impl Sketches,
    candidates: Vec<DomainId>,
    signature: &Signature,
    q: u64,
) -> Vec<RankedHit> {
    // The query, narrowed once for the search to the layout its candidates
    // are stored in — before the loop: an `Option` filled on first use
    // costs the loop a third of its speed.
    let Some(&first) = candidates.first() else {
        return Vec::new();
    };
    let (_, stored) = sketches.sketch(first).expect("candidate id has no sketch");
    let query = RowBuf::narrow(stored.layout(), signature.slots());
    let query = query.as_row();
    let mut hits: Vec<RankedHit> = candidates
        .into_iter()
        .map(|id| {
            let (x, sketch) = sketches.sketch(id).expect("candidate id has no sketch");
            let s = query.count_equal(&sketch) as f64 / signature.len() as f64;
            RankedHit {
                id,
                estimated_containment: containment_from_jaccard(s, x as f64, q as f64),
            }
        })
        .collect();
    hits.sort_by(|a, b| {
        b.estimated_containment
            .partial_cmp(&a.estimated_containment)
            .expect("no NaN")
            .then(a.id.cmp(&b.id))
    });
    hits
}

fn to_search_hits(hits: impl IntoIterator<Item = RankedHit>) -> Vec<SearchHit> {
    hits.into_iter()
        .map(|h| SearchHit {
            id: h.id,
            estimate: Some(h.estimated_containment),
        })
        .collect()
}

/// A backend's whole answer to [`DomainIndex`](crate::DomainIndex)'s
/// `search`/`search_batch`: its partitions plus, when it retains sketches,
/// the lookup that turns candidates into ranked hits.
pub(crate) struct ReadPath<'a, P, S> {
    pub tiers: Tiers<'a, P>,
    /// `None`: hits carry no estimate, stay in id order, and top-k is
    /// unsupported.
    pub sketches: Option<&'a S>,
}

impl<P: Probe, S: Sketches> ReadPath<'_, P, S> {
    /// Candidates → hits for a threshold query: ranked, with candidates
    /// whose *estimate* falls below `t* − ESTIMATE_SLACK` pruned (the slack
    /// keeps borderline true positives; estimates are noisy at ±1/√m).
    fn finish(&self, item: &ThresholdItem<'_>, ids: Vec<DomainId>) -> Vec<SearchHit> {
        let Some(sketches) = self.sketches else {
            return unranked(ids);
        };
        let ranked = rank(sketches, ids, item.signature, item.size);
        to_search_hits(
            ranked
                .into_iter()
                .filter(|h| h.estimated_containment >= item.t_star - ESTIMATE_SLACK),
        )
    }

    fn top_k(&self, query: &Query<'_>, k: usize) -> Result<SearchOutcome, QueryError> {
        let Some(sketches) = self.sketches else {
            return Err(QueryError::Unsupported(
                "top-k needs ranked search; query the LshEnsemble itself".into(),
            ));
        };
        let started = Instant::now();
        let (signature, size) = (query.signature(), query.effective_size());
        let (seen, probe) = top_k_descend(k, |t_star| {
            let item = ThresholdItem {
                signature,
                size,
                t_star,
            };
            self.tiers.sweep(&item, query.parallel())
        });
        let mut hits = to_search_hits(rank(sketches, seen, signature, size));
        hits.truncate(k);
        Ok(outcome(hits, probe, started.elapsed().as_nanos() as u64))
    }

    pub fn search(&self, query: &Query<'_>) -> Result<SearchOutcome, QueryError> {
        query.validate_for(self.tiers.num_perm)?;
        let t_star = match query.mode() {
            QueryMode::Threshold(t_star) => t_star,
            QueryMode::TopK(k) => return self.top_k(query, k),
        };
        let started = Instant::now();
        let item = ThresholdItem {
            signature: query.signature(),
            size: query.effective_size(),
            t_star,
        };
        let (ids, probe) = self.tiers.sweep(&item, query.parallel());
        let hits = self.finish(&item, ids);
        Ok(outcome(hits, probe, started.elapsed().as_nanos() as u64))
    }

    pub fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        split_and_run(
            queries,
            self.tiers.num_perm,
            |items| {
                self.tiers.sweep_batch(items, |item, ids, probe, nanos| {
                    let started = Instant::now();
                    let hits = self.finish(item, ids);
                    outcome(hits, probe, nanos + started.elapsed().as_nanos() as u64)
                })
            },
            |query, k| self.top_k(query, k),
        )
    }
}
