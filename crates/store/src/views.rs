//! Zero-copy views over a mapped store's section payloads.
//!
//! These types carry no data of their own: each borrows plain slices out
//! of a [`Store`](crate::format::Store) mapping and layers just enough
//! structure on top to answer queries — the sketch table the trees point
//! into, and the prefix-tree columns of a partition. The higher layers (the
//! `lshe-core` mmap backend) own the index semantics; the views own the
//! layout.

/// Borrowed sketch columns: sorted domain ids with parallel size and
/// stored-row arrays.
///
/// Layout: `ids[i]` owns `sizes[i]` and
/// `rows[i * row_words .. (i + 1) * row_words]` — the domain's signature as
/// `u16` words, laid out as the index layer stores a row. Ids are strictly
/// ascending.
#[derive(Debug, Clone, Copy)]
pub struct SketchesView<'a> {
    ids: &'a [u32],
    sizes: &'a [u64],
    rows: &'a [u16],
    row_words: usize,
}

impl<'a> SketchesView<'a> {
    /// Assembles a view from raw section slices.
    ///
    /// Returns `None` when the lengths do not multiply out
    /// (`sizes.len() != ids.len()` or
    /// `rows.len() != ids.len() * row_words`) — the caller turns that
    /// into its section-named corruption error.
    #[must_use]
    pub fn new(
        ids: &'a [u32],
        sizes: &'a [u64],
        rows: &'a [u16],
        row_words: usize,
    ) -> Option<Self> {
        if row_words == 0 || sizes.len() != ids.len() {
            return None;
        }
        if rows.len() != ids.len().checked_mul(row_words)? {
            return None;
        }
        Some(Self {
            ids,
            sizes,
            rows,
            row_words,
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

    /// `u16` words a stored row.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// True when the id column is strictly ascending. O(n).
    #[must_use]
    #[cfg(test)]
    pub fn ids_sorted(&self) -> bool {
        self.ids.windows(2).all(|w| w[0] < w[1])
    }

    /// The id and row columns whole: the row table a partition's tree
    /// entries point into (position `i` is `ids[i]` with words
    /// `rows[i * row_words ..][.. row_words]`).
    #[must_use]
    pub fn columns(&self) -> (&'a [u32], &'a [u16]) {
        (self.ids, self.rows)
    }

    /// The cardinality column: `sizes[i]` is position `i`'s.
    #[must_use]
    pub fn sizes(&self) -> &'a [u64] {
        self.sizes
    }

    /// Iterates `(id, cardinality, stored row)` in ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64, &'a [u16])> + '_ {
        self.ids.iter().enumerate().map(move |(i, &id)| {
            (
                id,
                self.sizes[i],
                &self.rows[i * self.row_words..(i + 1) * self.row_words],
            )
        })
    }
}

/// Borrowed prefix trees for one partition.
///
/// Layout: `b_max` trees, each `rows` entries, in two parallel columns.
/// Tree `t` owns `lo[t * rows ..][.. rows]` (the low 16 bits of each
/// entry's first key lane) and `positions[t * rows ..][.. rows]` (the
/// entry's position in the sketch columns, where its whole key lanes and
/// its domain id are). How the entries are ordered, and probing them, is
/// the index layer's business — it runs the forest's own kernel over these
/// slices.
#[derive(Debug, Clone, Copy)]
pub struct PartitionView<'a> {
    lo: &'a [u16],
    positions: &'a [u32],
    rows: usize,
}

impl<'a> PartitionView<'a> {
    /// Assembles a partition view from its slices of the two tree
    /// sections.
    ///
    /// Returns `None` when the lengths do not multiply out: either column
    /// is not `b_max * rows` long.
    #[must_use]
    pub fn new(lo: &'a [u16], positions: &'a [u32], b_max: usize, rows: usize) -> Option<Self> {
        let want = b_max.checked_mul(rows)?;
        if b_max == 0 || lo.len() != want || positions.len() != want {
            return None;
        }
        Some(Self {
            lo,
            positions,
            rows,
        })
    }

    /// Number of trees.
    #[must_use]
    pub fn trees(&self) -> usize {
        self.lo.len().checked_div(self.rows).unwrap_or(0)
    }

    /// The `t`-th tree's head-bits column.
    ///
    /// # Panics
    /// Panics if `t` is not a tree of a non-empty partition.
    #[must_use]
    pub fn lo(&self, t: usize) -> &'a [u16] {
        &self.lo[t * self.rows..(t + 1) * self.rows]
    }

    /// The `t`-th tree's sketch-position column.
    ///
    /// # Panics
    /// Panics if `t` is not a tree of a non-empty partition.
    #[must_use]
    pub fn rows(&self, t: usize) -> &'a [u32] {
        &self.positions[t * self.rows..(t + 1) * self.rows]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketches_lookup() {
        let ids = [2u32, 5, 9];
        let sizes = [20u64, 50, 90];
        let rows = [1u16, 2, 3, 4, 5, 6]; // two words a row
        let v = SketchesView::new(&ids, &sizes, &rows, 2).expect("view");
        assert_eq!((v.len(), v.row_words()), (3, 2));
        assert!(v.ids_sorted());
        assert_eq!(v.columns(), (&ids[..], &rows[..]));
        assert_eq!(v.sizes(), &sizes[..]);
        let collected: Vec<u32> = v.iter().map(|(id, _, _)| id).collect();
        assert_eq!(collected, vec![2, 5, 9]);
    }

    #[test]
    fn sketches_rejects_mismatched_lengths() {
        let ids = [1u32, 2];
        let sizes = [1u64];
        let slots = [0u16; 4];
        assert!(SketchesView::new(&ids, &sizes, &slots, 2).is_none());
        let sizes2 = [1u64, 2];
        assert!(SketchesView::new(&ids, &sizes2, &slots[..3], 2).is_none());
        assert!(SketchesView::new(&ids, &sizes2, &slots, 0).is_none());
    }

    #[test]
    fn sketches_detects_unsorted_ids() {
        let ids = [5u32, 2];
        let sizes = [1u64, 2];
        let slots = [0u16; 2];
        let v = SketchesView::new(&ids, &sizes, &slots, 1).expect("view");
        assert!(!v.ids_sorted());
    }

    #[test]
    fn multi_tree_partition_slices_correctly() {
        // 2 trees, 2 rows each.
        let lo = [1u16, 2, /* tree 1: */ 7, 8];
        let positions = [0u32, 1, /* tree 1: */ 1, 0];
        let part = PartitionView::new(&lo, &positions, 2, 2).expect("view");
        assert_eq!(part.trees(), 2);
        assert_eq!((part.lo(0), part.rows(0)), (&[1u16, 2][..], &[0u32, 1][..]));
        assert_eq!((part.lo(1), part.rows(1)), (&[7u16, 8][..], &[1u32, 0][..]));
    }

    #[test]
    fn partition_rejects_mismatched_lengths() {
        let (lo, column) = ([0u16; 8], [0u32; 8]);
        assert!(PartitionView::new(&lo[..7], &column, 2, 4).is_none());
        assert!(PartitionView::new(&lo, &column[..6], 2, 4).is_none());
        assert!(PartitionView::new(&[], &[], 0, 0).is_none());
    }

    #[test]
    fn empty_partition_has_no_trees_to_slice() {
        let part = PartitionView::new(&[], &[], 2, 0).expect("view");
        assert_eq!(part.trees(), 0);
    }
}
