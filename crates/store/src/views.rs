//! Zero-copy views over a mapped store's section payloads.
//!
//! These types carry no data of their own: each borrows plain slices out
//! of a [`Store`](crate::format::Store) mapping and layers just enough
//! structure on top to answer queries — sketch lookup by domain id, and
//! prefix-tree probing inside a partition. The higher layers (the
//! `lshe-core` mmap backend) own the index semantics; the views own the
//! layout.

/// Borrowed sketch columns: sorted domain ids with parallel size and
/// signature-slot arrays.
///
/// Layout: `ids[i]` owns `sizes[i]` and
/// `slots[i * num_perm .. (i + 1) * num_perm]`. Ids are strictly
/// ascending, which is what makes [`lookup`](SketchesView::lookup) a
/// binary search.
#[derive(Debug, Clone, Copy)]
pub struct SketchesView<'a> {
    ids: &'a [u32],
    sizes: &'a [u64],
    slots: &'a [u32],
    num_perm: usize,
}

impl<'a> SketchesView<'a> {
    /// Assembles a view from raw section slices.
    ///
    /// Returns `None` when the lengths do not multiply out
    /// (`sizes.len() != ids.len()` or
    /// `slots.len() != ids.len() * num_perm`) — the caller turns that
    /// into its section-named corruption error.
    #[must_use]
    pub fn new(
        ids: &'a [u32],
        sizes: &'a [u64],
        slots: &'a [u32],
        num_perm: usize,
    ) -> Option<Self> {
        if num_perm == 0 || sizes.len() != ids.len() {
            return None;
        }
        if slots.len() != ids.len().checked_mul(num_perm)? {
            return None;
        }
        Some(Self {
            ids,
            sizes,
            slots,
            num_perm,
        })
    }

    /// Number of sketched domains.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no domains are sketched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Signature width.
    #[must_use]
    pub fn num_perm(&self) -> usize {
        self.num_perm
    }

    /// True when the id column is strictly ascending — the invariant
    /// [`lookup`](SketchesView::lookup) depends on. O(n); called from the
    /// full-verification path, not per query.
    #[must_use]
    pub fn ids_sorted(&self) -> bool {
        self.ids.windows(2).all(|w| w[0] < w[1])
    }

    /// The domain's `(cardinality, signature slots)`, or `None` if the id
    /// is not sketched.
    #[must_use]
    pub fn lookup(&self, id: u32) -> Option<(u64, &'a [u32])> {
        let i = self.ids.binary_search(&id).ok()?;
        Some((
            self.sizes[i],
            &self.slots[i * self.num_perm..(i + 1) * self.num_perm],
        ))
    }

    /// Iterates `(id, cardinality, slots)` in ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &'a [u32])> + '_ {
        self.ids.iter().enumerate().map(move |(i, &id)| {
            (
                id,
                self.sizes[i],
                &self.slots[i * self.num_perm..(i + 1) * self.num_perm],
            )
        })
    }
}

/// Borrowed prefix trees for one partition.
///
/// Layout: `b_max` trees, each `rows` rows. Tree `t` owns
/// `keys[t * rows * r_max ..][.. rows * r_max]` (row-major, `r_max` key
/// slots per row, rows sorted lexicographically) and
/// `ids[t * rows ..][.. rows]` (the row's domain id).
#[derive(Debug, Clone, Copy)]
pub struct PartitionView<'a> {
    keys: &'a [u32],
    ids: &'a [u32],
    b_max: usize,
    r_max: usize,
    rows: usize,
}

impl<'a> PartitionView<'a> {
    /// Assembles a partition view from raw key/id slices.
    ///
    /// Returns `None` when the lengths do not multiply out:
    /// `keys.len() != b_max * rows * r_max` or
    /// `ids.len() != b_max * rows`.
    #[must_use]
    pub fn new(
        keys: &'a [u32],
        ids: &'a [u32],
        b_max: usize,
        r_max: usize,
        rows: usize,
    ) -> Option<Self> {
        if r_max == 0 || b_max == 0 {
            return None;
        }
        let want_ids = b_max.checked_mul(rows)?;
        let want_keys = want_ids.checked_mul(r_max)?;
        if keys.len() != want_keys || ids.len() != want_ids {
            return None;
        }
        Some(Self {
            keys,
            ids,
            b_max,
            r_max,
            rows,
        })
    }

    /// Domains in this partition (rows per tree).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of trees.
    #[must_use]
    pub fn trees(&self) -> usize {
        self.b_max
    }

    /// The `t`-th tree.
    ///
    /// # Panics
    /// Panics if `t >= b_max`.
    #[must_use]
    pub fn tree(&self, t: usize) -> TreeView<'a> {
        assert!(t < self.b_max, "tree index out of range");
        TreeView {
            keys: &self.keys[t * self.rows * self.r_max..(t + 1) * self.rows * self.r_max],
            ids: &self.ids[t * self.rows..(t + 1) * self.rows],
            r_max: self.r_max,
        }
    }

    /// True when every tree's rows are lexicographically sorted — the
    /// invariant probing depends on. O(total keys); verification-path
    /// only.
    #[must_use]
    pub fn trees_sorted(&self) -> bool {
        (0..self.b_max).all(|t| {
            let tree = self.tree(t);
            (1..tree.rows()).all(|i| tree.row(i - 1) <= tree.row(i))
        })
    }
}

/// One borrowed prefix tree: sorted rows of `r_max` signature lanes,
/// each owning a domain id.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    keys: &'a [u32],
    ids: &'a [u32],
    r_max: usize,
}

impl<'a> TreeView<'a> {
    /// Rows in this tree.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.ids.len()
    }

    fn row(&self, i: usize) -> &'a [u32] {
        &self.keys[i * self.r_max..i * self.r_max + self.r_max]
    }

    /// Pushes the id of every row whose first `prefix.len()` key slots
    /// equal `prefix`: binary search to the equal range's start, then a
    /// linear walk — the committed forest's probe, verbatim, over
    /// borrowed memory.
    ///
    /// # Panics
    /// Panics if `prefix` is empty or longer than `r_max`.
    pub fn probe_into(&self, prefix: &[u32], out: &mut Vec<u32>) {
        assert!(
            !prefix.is_empty() && prefix.len() <= self.r_max,
            "prefix length out of range"
        );
        let r = prefix.len();
        // partition_point over row indices: first row not `< prefix`.
        let mut lo = 0usize;
        let mut hi = self.rows();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if &self.row(mid)[..r] < prefix {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        for i in lo..self.rows() {
            if &self.row(i)[..r] == prefix {
                out.push(self.ids[i]);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketches_lookup() {
        let ids = [2u32, 5, 9];
        let sizes = [20u64, 50, 90];
        let slots = [1u32, 2, 3, 4, 5, 6]; // num_perm = 2
        let v = SketchesView::new(&ids, &sizes, &slots, 2).expect("view");
        assert_eq!(v.len(), 3);
        assert!(v.ids_sorted());
        assert_eq!(v.lookup(5), Some((50, &[3u32, 4][..])));
        assert_eq!(v.lookup(9), Some((90, &[5u32, 6][..])));
        assert_eq!(v.lookup(7), None);
        let collected: Vec<u32> = v.iter().map(|(id, _, _)| id).collect();
        assert_eq!(collected, vec![2, 5, 9]);
    }

    #[test]
    fn sketches_rejects_mismatched_lengths() {
        let ids = [1u32, 2];
        let sizes = [1u64];
        let slots = [0u32; 4];
        assert!(SketchesView::new(&ids, &sizes, &slots, 2).is_none());
        let sizes2 = [1u64, 2];
        assert!(SketchesView::new(&ids, &sizes2, &slots[..3], 2).is_none());
        assert!(SketchesView::new(&ids, &sizes2, &slots, 0).is_none());
    }

    #[test]
    fn sketches_detects_unsorted_ids() {
        let ids = [5u32, 2];
        let sizes = [1u64, 2];
        let slots = [0u32; 2];
        let v = SketchesView::new(&ids, &sizes, &slots, 1).expect("view");
        assert!(!v.ids_sorted());
    }

    #[test]
    fn tree_probe_equal_range() {
        // One partition, 1 tree, r_max = 2, rows sorted lexicographically.
        let keys = [
            1u32, 1, //
            1, 2, //
            1, 2, //
            2, 0, //
        ];
        let ids = [10u32, 11, 12, 13];
        let part = PartitionView::new(&keys, &ids, 1, 2, 4).expect("view");
        assert!(part.trees_sorted());
        let tree = part.tree(0);

        let mut out = Vec::new();
        tree.probe_into(&[1, 2], &mut out);
        assert_eq!(out, vec![11, 12]);

        out.clear();
        tree.probe_into(&[1], &mut out); // shorter prefix widens the range
        assert_eq!(out, vec![10, 11, 12]);

        out.clear();
        tree.probe_into(&[3], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_tree_partition_slices_correctly() {
        // 2 trees, 2 rows each, r_max = 1.
        let keys = [1u32, 2, /* tree 1: */ 7, 8];
        let ids = [100u32, 101, /* tree 1: */ 200, 201];
        let part = PartitionView::new(&keys, &ids, 2, 1, 2).expect("view");
        let mut out = Vec::new();
        part.tree(1).probe_into(&[8], &mut out);
        assert_eq!(out, vec![201]);
        out.clear();
        part.tree(0).probe_into(&[8], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn partition_rejects_mismatched_lengths() {
        let keys = [0u32; 7];
        let ids = [0u32; 4];
        assert!(PartitionView::new(&keys, &ids, 1, 2, 4).is_none());
        assert!(PartitionView::new(&keys[..6], &ids[..3], 1, 2, 4).is_none());
        assert!(PartitionView::new(&[], &[], 0, 2, 0).is_none());
    }

    #[test]
    fn empty_partition_probes_empty() {
        let part = PartitionView::new(&[], &[], 2, 3, 0).expect("view");
        let mut out = Vec::new();
        part.tree(0).probe_into(&[1], &mut out);
        assert!(out.is_empty());
    }
}
