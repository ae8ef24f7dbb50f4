//! The one containment read path: `Partitioned-Containment-Search`
//! (§5.4–§5.5) written once, for every index that answers it — the
//! ensemble, mapped or on the heap, its [`Unranked`](crate::Unranked) view,
//! and the Asym baselines ([`AsymIndex`](crate::AsymIndex)), which §6.1's
//! fair-comparison rule runs through the same dynamic LSH algorithm and
//! upper-bound conversion.
//!
//! precondition check → partition sweep (skip-prune, per-query `(b, r)`
//! tuning, probe, liveness filter, dedup + sort, [`ProbeCounts`]) →
//! [`rank`] by estimated containment → `t* − ESTIMATE_SLACK` prune, or the
//! top-k threshold descent + truncate → [`SearchOutcome`] assembly.
//!
//! There is one sweep: [`Tiers::sweep_chunk`], partition-outer over a chunk
//! of queries, is the only loop over an index's partitions. A batch runs it
//! over each worker lane's chunk; a single `search` is a batch of one; each
//! top-k pass and each
//! [`query_with_size`](crate::LshEnsemble::query_with_size) is a chunk of
//! one ([`Tiers::sweep`]). So a query's answer cannot depend on what it was
//! batched with, and a change to the sweep is written once.
//!
//! The pipeline is generic over the one thing that genuinely differs
//! between backends: *a partition that can be probed* ([`Probe`]: a heap
//! forest, mapped tree columns, or an Asym partition's padded forest),
//! which hands back each match with its row and reads that row's size and
//! stored lanes. A candidate is a [`Candidate`] — its id, the partition
//! that holds it and its row there — from the probe to the rank, so a
//! ranked search verifies a candidate where the probe found it and never
//! looks an id up. Candidates always come from one index's [`Tiers`]; the
//! §6.3 fan-out across nodes is `lshe split` + `lshe cluster`, not a second
//! candidate source here. Everything is statically dispatched; no backend
//! carries a second copy of any step, so heap ≡ mapped holds by
//! construction.

use crate::api::{
    top_k_descend, ProbeCounts, Query, QueryError, SearchHit, SearchOutcome, ESTIMATE_SLACK,
};
use crate::batch::{split_and_run, ThresholdItem};
use crate::ensemble::{DeadSlot, Entry};
use crate::ranked::RankedHit;
use crate::tuning::Tuner;
use lshe_lsh::{DomainId, Row, RowBuf};
use lshe_minhash::hash::FastHashSet;
use lshe_minhash::lanes::run_chunked;
use lshe_minhash::{containment_from_jaccard, Signature};
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// A size partition that can be probed at any `(b ≤ b_max, r ≤ r_max)`.
pub(crate) trait Probe: Sync {
    /// The partition's size upper bound `u` (threshold conversion, Eq. 7).
    fn upper(&self) -> u64;

    /// Calls `found` with the id and row of every row sharing an `r`-lane
    /// prefix with `signature` in any of the first `b` trees (duplicates
    /// included).
    fn probe(
        &self,
        signature: &Signature,
        b: usize,
        r: usize,
        found: &mut impl FnMut(DomainId, usize),
    );

    /// The size and stored lanes of a row [`probe`](Self::probe) found.
    fn sketch(&self, row: u32) -> (u64, Row<'_>);
}

/// A candidate as the probe found it: its id, the sweep unit (the index
/// of its partition in [`Tiers::units`]) and its row there, where its size
/// and stored lanes are read back. After the liveness filter an id is live
/// in one row of one tier, so the id alone tells candidates apart: equal
/// ids hash alike, and the derived order is the id's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Candidate {
    pub id: DomainId,
    unit: u32,
    row: u32,
}

impl Hash for Candidate {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state);
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

/// Dedups `raw` through the reusable scratch `set` and sorts it by id.
fn sorted_unique(mut raw: Vec<Candidate>, set: &mut FastHashSet<Candidate>) -> Vec<Candidate> {
    set.extend(raw.drain(..));
    raw.extend(set.drain());
    raw.sort_unstable();
    debug_assert!(
        raw.windows(2).all(|w| w[0].id != w[1].id),
        "an id survives the liveness filter in two rows"
    );
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
    fn probe_unit(&self, unit: usize, item: &ThresholdItem<'_>, out: &mut Vec<Candidate>) -> bool {
        let (tier, part) = &self.units[unit];
        // A domain's containment cannot exceed x/q ≤ upper/q: partitions
        // that cannot reach the threshold are skipped outright.
        if (part.upper() as f64) < item.t_star * item.size as f64 {
            return false;
        }
        let params = self.tuner.optimize(part.upper(), item.size, item.t_star);
        let before = out.len();
        let (b, r) = (params.b as usize, params.r as usize);
        let unit = unit as u32;
        part.probe(item.signature, b, r, &mut |id, row| {
            out.push(Candidate {
                id,
                unit,
                row: row as u32,
            });
        });
        if !self.dead.is_empty() {
            // Liveness is per tier: a row tombstoned here is dropped even
            // when its id was re-inserted and lives on in a newer tier —
            // that tier answers for the new content itself.
            let mut kept = before;
            for i in before..out.len() {
                if !self.dead.contains(&(out[i].id, *tier)) {
                    out[kept] = out[i];
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
        true
    }

    /// A candidate's entry, read in the row the probe found it at.
    fn entry(&self, candidate: Candidate) -> Entry<'_> {
        let (size, row) = self.units[candidate.unit as usize].1.sketch(candidate.row);
        (candidate.id, size, row)
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
        post: &impl Fn(&ThresholdItem<'_>, Vec<Candidate>, ProbeCounts, u64) -> R,
    ) -> Vec<R> {
        let mut set = FastHashSet::default();
        let mut results = Vec::with_capacity(chunk.len());
        for group in chunk.chunks(SWEEP_GROUP) {
            // Per-query accumulators: raw candidates, probes, nanos.
            let mut acc: Vec<(Vec<Candidate>, ProbeCounts, u64)> = group
                .iter()
                .map(|_| (Vec::new(), self.counts(), 0))
                .collect();
            for unit in 0..self.units.len() {
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
                let candidates = sorted_unique(raw, &mut set);
                let nanos = nanos + started.elapsed().as_nanos() as u64;
                results.push(post(item, candidates, probe, nanos));
            }
        }
        results
    }

    /// One query, as a chunk of one: its candidates, sorted by id, plus
    /// probe counters — top-k passes and
    /// [`LshEnsemble::query_with_size`](crate::LshEnsemble::query_with_size).
    ///
    /// # Panics
    /// Panics on a zero size, an out-of-range threshold, or a signature
    /// width mismatch.
    pub fn sweep(&self, item: &ThresholdItem<'_>) -> (Vec<Candidate>, ProbeCounts) {
        check_query(self.num_perm, item);
        let mut one =
            self.sweep_chunk(std::slice::from_ref(item), &|_, ids, probe, _| (ids, probe));
        one.pop().expect("one result per item")
    }
}

/// Ranks candidates by estimated containment (`t̂ = (x/q + 1)·ŝ/(1 + ŝ)`,
/// Eq. 6), descending, ties by id: `entry` reads each one's id, size and
/// stored row.
pub(crate) fn rank<'a, C>(
    candidates: Vec<C>,
    entry: impl Fn(C) -> Entry<'a>,
    signature: &Signature,
    q: u64,
) -> Vec<RankedHit> {
    let mut candidates = candidates.into_iter().map(entry).peekable();
    // The query, narrowed once for the search to the layout its candidates
    // are stored in — before the loop: an `Option` filled on first use
    // costs the loop a third of its speed.
    let Some(&(_, _, stored)) = candidates.peek() else {
        return Vec::new();
    };
    let query = RowBuf::narrow(stored.layout(), signature.slots());
    let query = query.as_row();
    let mut hits: Vec<RankedHit> = candidates
        .map(|(id, size, sketch)| {
            let s = query.count_equal(&sketch) as f64 / signature.len() as f64;
            RankedHit {
                id,
                size,
                estimated_containment: containment_from_jaccard(s, size as f64, q as f64),
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
            size: h.size,
            estimate: Some(h.estimated_containment),
        })
        .collect()
}

/// A backend's whole answer to
/// [`DomainIndex::search_batch`](crate::DomainIndex::search_batch): its
/// partitions, and whether it ranks what they find.
pub(crate) struct ReadPath<'a, P> {
    pub tiers: Tiers<'a, P>,
    /// `false`: hits carry no estimate, stay in id order, and top-k is
    /// unsupported — an index whose rows are no sketch of the domain
    /// (Asym's padded ones), or the raw candidate set
    /// ([`Unranked`](crate::Unranked)).
    pub ranked: bool,
}

impl<P: Probe> ReadPath<'_, P> {
    /// Candidates → hits for a threshold query: ranked, with candidates
    /// whose *estimate* falls below `t* − ESTIMATE_SLACK` pruned (the slack
    /// keeps borderline true positives; estimates are noisy at ±1/√m).
    fn finish(&self, item: &ThresholdItem<'_>, candidates: Vec<Candidate>) -> Vec<SearchHit> {
        if !self.ranked {
            let hit = |c| {
                let (id, size, _) = self.tiers.entry(c);
                SearchHit {
                    id,
                    size,
                    estimate: None,
                }
            };
            return candidates.into_iter().map(hit).collect();
        }
        let ranked = rank(
            candidates,
            |c| self.tiers.entry(c),
            item.signature,
            item.size,
        );
        to_search_hits(
            ranked
                .into_iter()
                .filter(|h| h.estimated_containment >= item.t_star - ESTIMATE_SLACK),
        )
    }

    fn top_k(&self, query: &Query<'_>, k: usize) -> Result<SearchOutcome, QueryError> {
        if !self.ranked {
            return Err(QueryError::Unsupported(
                "top-k needs retained sketches; query an LshEnsemble".into(),
            ));
        }
        let started = Instant::now();
        let (signature, size) = (query.signature(), query.effective_size());
        let (seen, probe) = top_k_descend(k, |t_star| {
            let item = ThresholdItem {
                signature,
                size,
                t_star,
            };
            self.tiers.sweep(&item)
        });
        let ranked = rank(seen, |c| self.tiers.entry(c), signature, size);
        let mut hits = to_search_hits(ranked);
        hits.truncate(k);
        Ok(SearchOutcome::new(
            hits,
            probe,
            started.elapsed().as_nanos() as u64,
        ))
    }

    pub fn search_batch(&self, queries: &[Query<'_>]) -> Vec<Result<SearchOutcome, QueryError>> {
        split_and_run(
            queries,
            self.tiers.num_perm,
            |items| {
                let post = |item: &ThresholdItem<'_>, ids, probe, nanos| {
                    let started = Instant::now();
                    let hits = self.finish(item, ids);
                    SearchOutcome::new(hits, probe, nanos + started.elapsed().as_nanos() as u64)
                };
                run_chunked(items, |chunk| self.tiers.sweep_chunk(chunk, &post))
            },
            |query, k| self.top_k(query, k),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainIndex, Mutation};
    use crate::ensemble::{EnsembleConfig, LshEnsemble};
    use crate::partition::PartitionStrategy;
    use lshe_minhash::MinHasher;
    use std::collections::BTreeMap;

    /// splitmix64: the walk's seeded choices.
    struct Walk(u64);

    impl Walk {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A domain: a run of the shared pool, so that neighbours overlap.
    fn content(walk: &mut Walk, pool: &[u64], h: &MinHasher) -> (u64, Signature) {
        let len = 10 + walk.below(150);
        let at = walk.below(pool.len() - len);
        let values = &pool[at..at + len];
        (len as u64, h.signature(values.iter().copied()))
    }

    /// Every candidate a threshold query and a top-k descent over `index`
    /// reach, read where the probe found it, is the domain's own sketch
    /// as [`LshEnsemble::sketch`] finds it by id; and a ranked search
    /// answers exactly what ranking its candidate ids by id lookup does.
    fn check(index: &LshEnsemble, (size, signature): &(u64, Signature), step: &str) {
        assert_eq!(
            index.live_rows(),
            index.len(),
            "{step}: an id lives in two rows"
        );
        let tiers = index.tiers();
        let item = |t_star| ThresholdItem {
            signature,
            size: *size,
            t_star,
        };
        let (threshold, _) = tiers.sweep(&item(0.5));
        let (descent, _) = top_k_descend(10, |t| tiers.sweep(&item(t)));
        for candidate in threshold.iter().chain(&descent) {
            let (id, got_size, got_row) = tiers.entry(*candidate);
            let (size, row) = index.sketch(id).expect("a candidate is live");
            assert_eq!(got_size, size, "{step}: id {id}'s size");
            assert_eq!(got_row.words(), row.words(), "{step}: id {id}'s row");
        }
        let ids: Vec<DomainId> = threshold.iter().map(|c| c.id).collect();
        let by_id = index.rank_candidates(ids, signature, *size);
        let by_id = by_id
            .into_iter()
            .filter(|h| h.estimated_containment >= 0.5 - ESTIMATE_SLACK);
        let search = index.search(&Query::threshold(signature, 0.5).with_size(*size));
        assert_eq!(
            search.expect("search").hits,
            to_search_hits(by_id),
            "{step}"
        );
    }

    /// A seeded walk of commits, removes, re-inserts (of base ids too),
    /// segment merges and compactions, checked after every step.
    #[test]
    fn a_candidate_is_read_where_the_probe_found_it() {
        let h = MinHasher::new(256);
        let pool = MinHasher::synthetic_values(11, 3_000);
        let mut walk = Walk(7);
        let mut live: BTreeMap<DomainId, (u64, Signature)> = BTreeMap::new();
        let mut builder = LshEnsemble::builder_with(EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 6 },
            ..EnsembleConfig::default()
        });
        for id in 0..400 {
            let (size, sig) = content(&mut walk, &pool, &h);
            builder.add(id, size, sig.clone());
            live.insert(id, (size, sig));
        }
        let mut index = builder.build();
        let mut next_id = 400;
        for step in 0..40 {
            let pick = |walk: &mut Walk, live: &BTreeMap<DomainId, _>| {
                *live.keys().nth(walk.below(live.len())).expect("a live id")
            };
            let what = match walk.below(6) {
                0 | 1 => {
                    let fresh: Vec<(DomainId, (u64, Signature))> = (0..1 + walk.below(12))
                        .map(|i| (next_id + i as u32, content(&mut walk, &pool, &h)))
                        .collect();
                    next_id += fresh.len() as u32;
                    let batch: Vec<Mutation<'_>> = fresh
                        .iter()
                        .map(|(id, (size, sig))| Mutation::Insert(*id, *size, sig))
                        .collect();
                    index.commit(&batch).expect("inserts");
                    live.extend(fresh);
                    "inserts"
                }
                2 => {
                    let gone: Vec<DomainId> = (0..3).map(|_| pick(&mut walk, &live)).collect();
                    let mut gone: Vec<DomainId> = gone.into_iter().collect();
                    gone.sort_unstable();
                    gone.dedup();
                    let batch: Vec<Mutation<'_>> =
                        gone.iter().map(|&id| Mutation::Remove(id)).collect();
                    index.commit(&batch).expect("removes");
                    gone.iter().for_each(|id| drop(live.remove(id)));
                    "removes"
                }
                3 => {
                    // Base ids (below 400) first: a re-insert over a base row.
                    let id = (0..400).find(|id| live.contains_key(id) && walk.below(3) == 0);
                    let id = id.unwrap_or_else(|| pick(&mut walk, &live));
                    let (size, sig) = content(&mut walk, &pool, &h);
                    index
                        .commit(&[Mutation::Remove(id), Mutation::Insert(id, size, &sig)])
                        .expect("re-insert");
                    live.insert(id, (size, sig));
                    "re-insert"
                }
                4 => {
                    let segments = index.segment_layout().segments.len();
                    let merge: Vec<usize> = (0..segments).filter(|_| walk.below(2) == 0).collect();
                    index.merge_segments(&merge);
                    "merge"
                }
                _ => {
                    if walk.below(3) == 0 {
                        index.compact();
                        "compact"
                    } else {
                        "none"
                    }
                }
            };
            assert_eq!(index.len(), live.len());
            let step = format!("step {step} ({what})");
            for _ in 0..4 {
                let id = pick(&mut walk, &live);
                check(&index, &live[&id], &step);
            }
            check(&index, &content(&mut walk, &pool, &h), &step);
        }
    }
}
