//! Dynamic LSH via LSH Forest (Bawa, Condie & Ganesan, WWW 2005), as used by
//! each LSH Ensemble partition (§5.5 of the paper).
//!
//! The forest holds `b_max` "prefix trees"; tree `t` owns signature slots
//! `[t·r_max, (t+1)·r_max)`. At query time the *effective* parameters
//! `(b, r)` with `b ≤ b_max`, `r ≤ r_max` are chosen freely: use the first
//! `b` trees, compare keys only on their first `r` slots. This is what lets
//! the ensemble re-tune its Jaccard threshold for every query without
//! rebuilding anything.
//!
//! ## Representation
//!
//! Each prefix tree is stored as a sorted column of fixed-width keys — the
//! standard array encoding of a prefix tree (also used by `datasketch`):
//! a prefix query of depth `r` is a binary-search for the equal range of the
//! first `r` slots. Keys *are* signature lanes: a [`Signature`] already
//! holds 32-bit lanes (narrowed once, where the fold finishes), so rows and
//! query prefixes are copied from it verbatim — no truncation step here.
//!
//! ## Mutability
//!
//! Inserts are staged in an unsorted tail per tree. Queries scan the tail
//! linearly, so correctness never requires a rebuild; [`LshForest::commit`]
//! merges the tail into the sorted run for query speed. This gives the
//! "single pass to build, incremental additions afterwards" behaviour the
//! paper requires of an open-world index.

use crate::DomainId;
use lshe_minhash::Signature;

/// One prefix tree: a sorted column of `r_max`-wide keys plus a staged,
/// unsorted tail.
#[derive(Debug, Clone, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct PrefixTree {
    /// Row-major keys of committed entries, `r_max` values per row, sorted
    /// lexicographically by row.
    keys: Vec<u32>,
    /// Domain id of each committed row (parallel to `keys` rows).
    ids: Vec<DomainId>,
    /// Staged keys, unsorted.
    staged_keys: Vec<u32>,
    /// Staged ids.
    staged_ids: Vec<DomainId>,
}

impl PrefixTree {
    fn row(keys: &[u32], r_max: usize, i: usize) -> &[u32] {
        &keys[i * r_max..(i + 1) * r_max]
    }

    fn commit(&mut self, r_max: usize) {
        if self.staged_ids.is_empty() {
            return;
        }
        self.keys.append(&mut self.staged_keys);
        self.ids.append(&mut self.staged_ids);
        (self.keys, self.ids) = Self::sorted(&self.keys, &self.ids, r_max);
    }

    /// The rows of `(keys, ids)` in key order, as exactly sized columns.
    /// Rows with equal keys stay in the order this sort leaves them, so it
    /// is part of the canonical byte form: every tree is built through it.
    fn sorted(keys: &[u32], ids: &[DomainId], r_max: usize) -> (Vec<u32>, Vec<DomainId>) {
        let row = |i: u32| Self::row(keys, r_max, i as usize);
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        // The first slot decides nearly every comparison, faster alone.
        order.sort_unstable_by(|&a, &b| row(a)[0].cmp(&row(b)[0]).then_with(|| row(a).cmp(row(b))));
        let mut sorted_keys = Vec::with_capacity(keys.len());
        for &i in &order {
            sorted_keys.extend_from_slice(row(i));
        }
        let sorted_ids = order.iter().map(|&i| ids[i as usize]).collect();
        (sorted_keys, sorted_ids)
    }

    /// Drops every row stored under `id`, committed and staged, keeping
    /// the committed region sorted. Returns `(committed, staged)` rows
    /// removed.
    fn remove(&mut self, r_max: usize, id: DomainId) -> (usize, usize) {
        let committed = Self::retain_rows(&mut self.keys, &mut self.ids, r_max, id);
        let staged = Self::retain_rows(&mut self.staged_keys, &mut self.staged_ids, r_max, id);
        (committed, staged)
    }

    /// Removes the rows of `id` from one (keys, ids) column pair, keeping
    /// relative row order. Returns the number of rows removed.
    fn retain_rows(
        keys: &mut Vec<u32>,
        ids: &mut Vec<DomainId>,
        r_max: usize,
        id: DomainId,
    ) -> usize {
        let before = ids.len();
        let mut write = 0usize;
        for read in 0..ids.len() {
            if ids[read] == id {
                continue;
            }
            if write != read {
                ids[write] = ids[read];
                let (dst, src) = (write * r_max, read * r_max);
                keys.copy_within(src..src + r_max, dst);
            }
            write += 1;
        }
        ids.truncate(write);
        keys.truncate(write * r_max);
        before - write
    }

    /// Appends ids of all rows whose first `r` key slots equal `prefix` to
    /// `out`. `prefix.len() == r`.
    fn query(&self, r_max: usize, prefix: &[u32], out: &mut Vec<DomainId>) {
        let r = prefix.len();
        let n = self.ids.len();
        // Binary search over the sorted region.
        let lower = partition_point(n, |i| &Self::row(&self.keys, r_max, i)[..r] < prefix);
        let mut i = lower;
        while i < n && &Self::row(&self.keys, r_max, i)[..r] == prefix {
            out.push(self.ids[i]);
            i += 1;
        }
        // Linear scan of the staged tail.
        for (j, &id) in self.staged_ids.iter().enumerate() {
            if &Self::row(&self.staged_keys, r_max, j)[..r] == prefix {
                out.push(id);
            }
        }
    }
}

/// `partition_point` over an implicit `0..n` sequence.
fn partition_point(n: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A dynamic MinHash LSH index supporting query-time `(b, r)` selection.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LshForest {
    b_max: usize,
    r_max: usize,
    trees: Vec<PrefixTree>,
    len: usize,
    staged: usize,
}

impl LshForest {
    /// Creates a forest of `b_max` prefix trees of depth `r_max`.
    ///
    /// Signatures must carry at least `b_max · r_max` slots. With the
    /// paper's defaults (`m = 256`), `b_max = 32`, `r_max = 8` exposes the
    /// full `(b ≤ 32, r ≤ 8)` tuning grid.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(b_max: usize, r_max: usize) -> Self {
        assert!(b_max > 0 && r_max > 0, "forest dimensions must be positive");
        Self {
            b_max,
            r_max,
            trees: vec![PrefixTree::default(); b_max],
            len: 0,
            staged: 0,
        }
    }

    /// Builds a committed forest over `rows` with no staged tail, each
    /// tree's keys sorted into exactly sized columns. Equal byte for byte to
    /// inserting the rows in order and committing; panics where that would.
    #[must_use]
    pub fn from_rows(b_max: usize, r_max: usize, rows: &[(DomainId, &Signature)]) -> Self {
        let mut forest = Self::new(b_max, r_max);
        let ids: Vec<DomainId> = rows.iter().map(|&(id, _)| id).collect();
        let mut column: Vec<u32> = Vec::with_capacity(rows.len() * r_max);
        for (t, tree) in forest.trees.iter_mut().enumerate() {
            column.clear();
            for (_, sig) in rows {
                column.extend_from_slice(&sig.slots()[t * r_max..(t + 1) * r_max]);
            }
            (tree.keys, tree.ids) = PrefixTree::sorted(&column, &ids, r_max);
        }
        forest.len = rows.len();
        forest
    }

    /// Maximum number of bands usable at query time.
    #[must_use]
    pub fn b_max(&self) -> usize {
        self.b_max
    }

    /// Maximum prefix depth usable at query time.
    #[must_use]
    pub fn r_max(&self) -> usize {
        self.r_max
    }

    /// Number of indexed domains (committed + staged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no domain has been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of inserts not yet merged into the sorted runs.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.staged
    }

    /// Stages a domain signature for indexing under `id`.
    ///
    /// The entry is immediately visible to queries (via the staged tail);
    /// call [`commit`](Self::commit) to fold it into the sorted runs.
    ///
    /// # Panics
    /// Panics if the signature has fewer than `b_max · r_max` slots.
    pub fn insert(&mut self, id: DomainId, sig: &Signature) {
        assert!(
            sig.len() >= self.b_max * self.r_max,
            "signature too short: {} < {}",
            sig.len(),
            self.b_max * self.r_max
        );
        let slots = sig.slots();
        for (t, tree) in self.trees.iter_mut().enumerate() {
            let start = t * self.r_max;
            tree.staged_keys
                .extend_from_slice(&slots[start..start + self.r_max]);
            tree.staged_ids.push(id);
        }
        self.len += 1;
        self.staged += 1;
    }

    /// Merges all staged entries into the sorted runs (O(n log n) per tree).
    pub fn commit(&mut self) {
        for tree in &mut self.trees {
            tree.commit(self.r_max);
        }
        self.staged = 0;
    }

    /// Removes every entry stored under `id` — committed rows and staged
    /// tail rows alike — from all trees. Returns `true` if the id was
    /// present. Queries reflect the removal immediately; no commit needed.
    ///
    /// Domains inserted more than once under the same id lose *all* their
    /// rows.
    pub fn remove(&mut self, id: DomainId) -> bool {
        let mut committed = 0usize;
        let mut staged = 0usize;
        for tree in &mut self.trees {
            let (c, s) = tree.remove(self.r_max, id);
            committed = committed.max(c);
            staged = staged.max(s);
        }
        // Every insert writes one row to EVERY tree, so per-tree removal
        // counts agree; the max is the number of inserts this id had.
        self.len -= committed + staged;
        self.staged -= staged;
        committed + staged > 0
    }

    /// True if `id` has at least one row in the forest.
    #[must_use]
    pub fn contains(&self, id: DomainId) -> bool {
        self.trees
            .first()
            .is_some_and(|t| t.ids.contains(&id) || t.staged_ids.contains(&id))
    }

    /// Iterates over the ids of every indexed domain (committed then
    /// staged), in storage order. Ids inserted more than once repeat.
    pub fn ids(&self) -> impl Iterator<Item = DomainId> + '_ {
        let tree = self.trees.first();
        tree.map(|t| t.ids.iter().copied())
            .into_iter()
            .flatten()
            .chain(
                tree.map(|t| t.staged_ids.iter().copied())
                    .into_iter()
                    .flatten(),
            )
    }

    /// Collects candidates for `sig` using the first `b` trees at prefix
    /// depth `r`, appending to `out` (duplicates across trees are possible;
    /// callers dedup, typically into a hash set).
    ///
    /// # Panics
    /// Panics if `b`/`r` are zero or exceed the forest dimensions, or the
    /// signature is too short.
    pub fn query_into(&self, sig: &Signature, b: usize, r: usize, out: &mut Vec<DomainId>) {
        assert!(b >= 1 && b <= self.b_max, "b = {b} out of range");
        assert!(r >= 1 && r <= self.r_max, "r = {r} out of range");
        assert!(
            sig.len() >= self.b_max * self.r_max,
            "signature too short: {} < {}",
            sig.len(),
            self.b_max * self.r_max
        );
        let slots = sig.slots();
        for (t, tree) in self.trees[..b].iter().enumerate() {
            let start = t * self.r_max;
            tree.query(self.r_max, &slots[start..start + r], out);
        }
    }

    /// Deduplicated candidate set for `sig` at `(b, r)`.
    #[must_use]
    pub fn query(&self, sig: &Signature, b: usize, r: usize) -> Vec<DomainId> {
        let mut raw = Vec::new();
        self.query_into(sig, b, r, &mut raw);
        raw.sort_unstable();
        raw.dedup();
        raw
    }

    /// Committed (keys, ids) columns per tree, for persistence.
    pub(crate) fn raw_trees(&self) -> impl Iterator<Item = (&[u32], &[DomainId])> {
        self.trees.iter().map(|t| (&t.keys[..], &t.ids[..]))
    }

    /// The committed (keys, ids) columns of every tree, in tree order —
    /// the canonical sorted form external serialisers (the v2 store
    /// packer) copy out verbatim.
    ///
    /// # Panics
    /// Panics if staged inserts exist: the staged tail is not part of the
    /// canonical form, so callers must [`commit`](Self::commit) first.
    pub fn committed_trees(&self) -> impl Iterator<Item = (&[u32], &[DomainId])> {
        assert_eq!(
            self.staged, 0,
            "committed_trees on a forest with staged inserts; commit first"
        );
        self.raw_trees()
    }

    /// Rebuilds a forest from persisted tree columns. Callers (the decoder)
    /// are responsible for structural validation; the columns must be the
    /// canonical committed form produced by `raw_trees`.
    pub(crate) fn from_raw_trees(
        b_max: usize,
        r_max: usize,
        len: usize,
        trees: Vec<(Vec<u32>, Vec<DomainId>)>,
    ) -> Self {
        Self {
            b_max,
            r_max,
            trees: trees
                .into_iter()
                .map(|(keys, ids)| PrefixTree {
                    keys,
                    ids,
                    staged_keys: Vec::new(),
                    staged_ids: Vec::new(),
                })
                .collect(),
            len,
            staged: 0,
        }
    }

    /// Approximate heap footprint of the index in bytes (diagnostics).
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.trees
            .iter()
            .map(|t| {
                t.keys.capacity() * 4
                    + t.ids.capacity() * std::mem::size_of::<DomainId>()
                    + t.staged_keys.capacity() * 4
                    + t.staged_ids.capacity() * std::mem::size_of::<DomainId>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;

    fn forest_with(h: &MinHasher, domains: &[(DomainId, Vec<u64>)], commit: bool) -> LshForest {
        let mut f = LshForest::new(32, 8);
        for (id, vals) in domains {
            f.insert(*id, &h.signature(vals.iter().copied()));
        }
        if commit {
            f.commit();
        }
        f
    }

    #[test]
    fn exact_match_found_at_any_params() {
        let h = MinHasher::new(256);
        let vals = MinHasher::synthetic_values(1, 200);
        let f = forest_with(&h, &[(5, vals.clone())], true);
        let sig = h.signature(vals);
        for &(b, r) in &[(1usize, 1usize), (32, 8), (4, 2), (32, 1)] {
            assert!(f.query(&sig, b, r).contains(&5), "missed at b={b} r={r}");
        }
    }

    #[test]
    fn staged_entries_visible_before_commit() {
        let h = MinHasher::new(256);
        let vals = MinHasher::synthetic_values(2, 100);
        let f = forest_with(&h, &[(1, vals.clone())], false);
        assert_eq!(f.staged_len(), 1);
        assert!(f.query(&h.signature(vals), 32, 8).contains(&1));
    }

    #[test]
    fn commit_is_query_transparent() {
        let h = MinHasher::new(256);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..50)
            .map(|i| (i, MinHasher::synthetic_values(u64::from(i) + 10, 150)))
            .collect();
        let staged = forest_with(&h, &domains, false);
        let committed = forest_with(&h, &domains, true);
        assert_eq!(committed.staged_len(), 0);
        for (id, vals) in &domains {
            let sig = h.signature(vals.iter().copied());
            for &(b, r) in &[(8usize, 4usize), (32, 8), (16, 2)] {
                let a = staged.query(&sig, b, r);
                let c = committed.query(&sig, b, r);
                assert_eq!(a, c, "id={id} b={b} r={r}");
            }
        }
    }

    #[test]
    fn incremental_insert_after_commit() {
        let h = MinHasher::new(256);
        let mut f = forest_with(&h, &[(1, MinHasher::synthetic_values(100, 80))], true);
        let late = MinHasher::synthetic_values(200, 80);
        f.insert(2, &h.signature(late.iter().copied()));
        assert!(f
            .query(&h.signature(late.iter().copied()), 32, 8)
            .contains(&2));
        f.commit();
        assert!(f.query(&h.signature(late), 32, 8).contains(&2));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn lower_r_is_more_permissive() {
        // Candidates at depth r must be a superset of candidates at r+1
        // (same b): shorter prefixes match more rows.
        let h = MinHasher::new(256);
        let base = MinHasher::synthetic_values(7, 500);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..100)
            .map(|i| {
                // Variants sharing a sliding fraction of `base`.
                let keep = 5 * (i as usize % 100);
                let mut v: Vec<u64> = base.iter().take(keep).copied().collect();
                v.extend(MinHasher::synthetic_values(1000 + u64::from(i), 500 - keep));
                (i, v)
            })
            .collect();
        let f = forest_with(&h, &domains, true);
        let q = h.signature(base);
        for b in [8usize, 32] {
            let mut prev: Option<Vec<DomainId>> = None;
            for r in (1..=8).rev() {
                let cur = f.query(&q, b, r);
                if let Some(p) = prev {
                    for id in p {
                        assert!(cur.contains(&id), "r={r} lost id {id}");
                    }
                }
                prev = Some(cur);
            }
        }
    }

    #[test]
    fn higher_b_is_more_permissive() {
        let h = MinHasher::new(256);
        let base = MinHasher::synthetic_values(77, 400);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..60)
            .map(|i| {
                let keep = 6 * (i as usize % 60);
                let mut v: Vec<u64> = base.iter().take(keep).copied().collect();
                v.extend(MinHasher::synthetic_values(2000 + u64::from(i), 400 - keep));
                (i, v)
            })
            .collect();
        let f = forest_with(&h, &domains, true);
        let q = h.signature(base);
        let mut prev: Vec<DomainId> = Vec::new();
        for b in 1..=32 {
            let cur = f.query(&q, b, 4);
            for id in &prev {
                assert!(cur.contains(id), "b={b} lost id {id}");
            }
            prev = cur;
        }
    }

    #[test]
    fn forest_matches_static_lsh_at_full_params() {
        // At (b, r) = (b_max, r_max) the forest answers the same buckets as
        // a static banded LSH over the same lanes.
        let h = MinHasher::new(256);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..80)
            .map(|i| (i, MinHasher::synthetic_values(3000 + u64::from(i), 120)))
            .collect();
        let f = forest_with(&h, &domains, true);
        let mut s = crate::MinHashLsh::new(32, 8);
        for (id, vals) in &domains {
            s.insert(*id, &h.signature(vals.iter().copied()));
        }
        for (_, vals) in domains.iter().take(10) {
            let sig = h.signature(vals.iter().copied());
            let from_forest = f.query(&sig, 32, 8);
            let from_static = s.query(&sig);
            for id in from_static {
                assert!(from_forest.contains(&id));
            }
        }
    }

    #[test]
    fn empty_forest_returns_nothing() {
        let h = MinHasher::new(256);
        let f = LshForest::new(32, 8);
        assert!(f.is_empty());
        assert!(f
            .query(&h.signature(MinHasher::synthetic_values(5, 10)), 32, 8)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_b_rejected() {
        let h = MinHasher::new(256);
        let f = LshForest::new(32, 8);
        let _ = f.query(&h.signature([1u64]), 33, 8);
    }

    #[test]
    #[should_panic(expected = "signature too short")]
    fn short_signature_rejected() {
        let h = MinHasher::new(64);
        let mut f = LshForest::new(32, 8); // needs 256 slots
        f.insert(1, &h.signature([1u64, 2, 3]));
    }

    #[test]
    fn memory_accounting_positive_after_inserts() {
        let h = MinHasher::new(256);
        let f = forest_with(&h, &[(1, MinHasher::synthetic_values(4, 50))], true);
        assert!(f.memory_bytes() > 0);
    }

    #[test]
    fn remove_drops_committed_and_staged_rows() {
        let h = MinHasher::new(256);
        let a = MinHasher::synthetic_values(1, 60);
        let b = MinHasher::synthetic_values(2, 70);
        let c = MinHasher::synthetic_values(3, 80);
        let mut f = forest_with(&h, &[(1, a.clone()), (2, b.clone())], true);
        f.insert(3, &h.signature(c.iter().copied())); // staged
        assert_eq!(f.len(), 3);
        assert!(f.contains(2) && f.contains(3));

        // Remove a committed entry.
        assert!(f.remove(2));
        assert_eq!(f.len(), 2);
        assert!(!f.contains(2));
        assert!(f.query(&h.signature(b), 32, 8).is_empty());
        // Remove a staged entry: staged count shrinks too.
        assert_eq!(f.staged_len(), 1);
        assert!(f.remove(3));
        assert_eq!(f.staged_len(), 0);
        assert!(f.query(&h.signature(c), 32, 8).is_empty());
        // The survivor is untouched, before and after a commit.
        assert!(f.query(&h.signature(a.clone()), 32, 8).contains(&1));
        f.commit();
        assert!(f.query(&h.signature(a), 32, 8).contains(&1));
        // Removing an absent id reports false and changes nothing.
        assert!(!f.remove(42));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn remove_keeps_sorted_runs_queryable() {
        let h = MinHasher::new(256);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..40)
            .map(|i| (i, MinHasher::synthetic_values(500 + u64::from(i), 90)))
            .collect();
        let mut f = forest_with(&h, &domains, true);
        for id in (0..40).step_by(3) {
            assert!(f.remove(id));
        }
        for (id, vals) in &domains {
            let got = f.query(&h.signature(vals.iter().copied()), 32, 8);
            if id % 3 == 0 {
                assert!(!got.contains(id), "removed {id} still found");
            } else {
                assert!(got.contains(id), "survivor {id} lost");
            }
        }
        assert_eq!(f.len(), domains.len() - (0..40).step_by(3).count());
    }

    #[test]
    fn ids_iterates_committed_and_staged() {
        let h = MinHasher::new(256);
        let mut f = forest_with(
            &h,
            &[
                (5, MinHasher::synthetic_values(1, 30)),
                (9, MinHasher::synthetic_values(2, 30)),
            ],
            true,
        );
        f.insert(7, &h.signature(MinHasher::synthetic_values(3, 30)));
        let mut ids: Vec<DomainId> = f.ids().collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![5, 7, 9]);
    }

    #[test]
    fn duplicate_rows_all_returned() {
        // Two domains with identical values share every bucket.
        let h = MinHasher::new(256);
        let vals = MinHasher::synthetic_values(8, 64);
        let f = forest_with(&h, &[(1, vals.clone()), (2, vals.clone())], true);
        let got = f.query(&h.signature(vals), 16, 8);
        assert!(got.contains(&1) && got.contains(&2));
    }
}
