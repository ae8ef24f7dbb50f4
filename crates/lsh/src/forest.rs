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
//! The forest owns its members' lanes **once**, as a row table: row `i` is
//! `ids[i]` with `width` lanes (`width ≥ b_max·r_max`; an index that ranks
//! its answers keeps the whole signature there), laid out by [`Layout`] as
//! one run of `u16` words: `b_max` 32-bit **heads** — lane `t·r_max`, the
//! first key lane of tree `t`, two words each — then `width − b_max` 16-bit
//! **tails**, every other lane through [`narrow_lane`]. Lanes arrive 32
//! bits wide and are narrowed exactly once, where a row enters the table
//! ([`RowLanes`]); a row read back out ([`Row`]) moves between forests as
//! it is.
//!
//! A prefix tree is two parallel `u16` columns over the committed rows —
//! the halves of one allocation, 4 bytes an entry: `lo[i]`, the low 16
//! bits of the row's head in that tree, inline so the binary search runs
//! over a dense 16-bit array, and `row[i]`, the row's index within its
//! **block**. A block is [`BLOCK`] = 65 536 consecutive rows, as many as a
//! `u16` names; a tree is one run per block, in block order, each sorted by
//! (the row's key in that tree: its head — low half first — then its
//! `r_max − 1` tail lanes; row index). A forest of up to 65 536 rows is one
//! block. A prefix query of depth `r` is, in each block, a binary search on
//! `lo` for the run sharing the head's low half, then a second binary
//! search *inside the run* on the rest of the key — the head's high half,
//! then `r − 1` tail lanes — read through `row[i]`, then a walk
//! ([`probe_trees`], the one probe kernel: the mapped backend runs it over a
//! packed file's columns, whose `row` column holds global `u32` positions
//! instead). The row keeps the head at 32 bits, so the tree need not:
//! entries sharing `lo` but not the head are rare — about n/2¹⁶ extra row
//! reads a probe — and the row tells them apart. The low half is the one
//! kept because a lane is the top of a MinHash minimum: over a large domain
//! the minimum is small, its high half mostly zero, and high halves of a
//! partition's heads share values several times as often as whole heads do
//! (on the benchmark's widest partition, a probe would meet 0.9 extra
//! entries a tree). Inside a run tail lanes are only told apart, for which
//! 16 bits do (the bound is [`narrow_lane`]'s).
//!
//! The bulk columns — `ids`, the row words, each tree's `lo` and `row` —
//! are [`Column`]s: vectors in a forest that was built, views into the file
//! in one decoded over a mapping. A probe reads slices either way; the
//! first write to a viewed column copies it out.
//!
//! ## Mutability
//!
//! Inserts append rows to the table; rows past the committed count are the
//! staged tail, in no tree yet. A forest answers only the rows it has
//! committed: [`LshForest::commit`] sorts the tail into the trees, and a
//! query — like [`LshForest::committed_trees`] and
//! [`LshForest::to_bytes`] — panics while a tail is staged. The index
//! above builds each forest whole ([`LshForest::from_rows`]) or commits it
//! before anything queries it, so no query path scans rows linearly. This
//! gives the "single pass to build, incremental additions afterwards"
//! behaviour the paper requires of an open-world index. A forest has no
//! removal: the index above it tombstones a removed id, filters it out of
//! the candidates, and erases its row when a full fold builds the forests
//! again.

use crate::DomainId;
use lshe_minhash::codec::Column;
use lshe_minhash::{count_equal_row, narrow_lane, Signature};
use std::cmp::Ordering;

/// How a forest of `b_max` trees of depth `r_max` lays out a row of `width`
/// lanes, as `u16` words: `b_max` 32-bit heads (lane `t·r_max` for each tree
/// `t`; low half first, so a row's bytes are the heads then the tails,
/// little-endian), then the other `width − b_max` lanes as 16-bit tails —
/// tree 0's `r_max − 1`, tree 1's, …, then the lanes past `b_max·r_max` no
/// tree is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Trees, and heads a row.
    pub b_max: usize,
    /// Key lanes a tree: one head and `r_max − 1` tails.
    pub r_max: usize,
    /// Lanes a row, at least `b_max · r_max`.
    pub width: usize,
}

impl Layout {
    /// # Panics
    /// Panics if a dimension is zero or `width < b_max · r_max`.
    #[must_use]
    pub fn new(b_max: usize, r_max: usize, width: usize) -> Self {
        assert!(b_max > 0 && r_max > 0, "forest dimensions must be positive");
        assert!(
            width >= b_max * r_max,
            "row width {width} below b_max·r_max = {}",
            b_max * r_max
        );
        Self {
            b_max,
            r_max,
            width,
        }
    }

    /// `u16` words a row: two a head, one a tail.
    #[must_use]
    pub fn words(self) -> usize {
        self.b_max + self.width
    }

    /// Bytes a row's lanes take, resident or stored: 576 for the default
    /// 32 trees over 256 lanes, where 32-bit lanes throughout took 1 024.
    #[must_use]
    pub fn row_bytes(self) -> usize {
        2 * self.words()
    }

    /// Where tree `t`'s tail key lanes start among a row's words.
    fn tail_at(self, t: usize) -> usize {
        2 * self.b_max + t * (self.r_max - 1)
    }

    /// Writes `lanes` into `row`, laid out as a forest stores them: the
    /// narrowing, the one place it happens — into a table's row here, or
    /// into a row a bulk build owns.
    ///
    /// # Panics
    /// Panics unless there are `width` lanes and `row` is `words()` long.
    pub fn narrow_into(self, lanes: &[u32], row: &mut [u16]) {
        assert!(
            lanes.len() == self.width && row.len() == self.words(),
            "a row is `width` lanes into `words()` words"
        );
        let (heads, tails) = row.split_at_mut(2 * self.b_max);
        let (keyed, unkeyed) = lanes.split_at(self.b_max * self.r_max);
        let depth = self.r_max - 1;
        let (key_tails, other_tails) = tails.split_at_mut(self.b_max * depth);
        for (t, key) in keyed.chunks_exact(self.r_max).enumerate() {
            heads[2 * t] = key[0] as u16;
            heads[2 * t + 1] = (key[0] >> 16) as u16;
            let tail = &mut key_tails[t * depth..(t + 1) * depth];
            for (narrow, &lane) in tail.iter_mut().zip(&key[1..]) {
                *narrow = narrow_lane(lane);
            }
        }
        for (narrow, &lane) in other_tails.iter_mut().zip(unkeyed) {
            *narrow = narrow_lane(lane);
        }
    }
}

/// One row as a forest keeps it, borrowed: what ranks a candidate, and what
/// moves from one forest's table to another's untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row<'a> {
    /// `layout.words()` of them.
    words: &'a [u16],
    layout: Layout,
}

impl<'a> Row<'a> {
    /// `words` as a row of `layout`, or `None` if they are not one.
    #[must_use]
    pub fn new(layout: Layout, words: &'a [u16]) -> Option<Self> {
        (words.len() == layout.words()).then_some(Self { words, layout })
    }

    /// The layout this row has.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The row as stored: heads (two words each, low half first), then
    /// tails.
    #[must_use]
    pub fn words(&self) -> &'a [u16] {
        self.words
    }

    /// The 32-bit head of tree `t`'s key.
    ///
    /// # Panics
    /// Panics if `t ≥ b_max`.
    #[must_use]
    pub fn head(&self, t: usize) -> u32 {
        assert!(t < self.layout.b_max, "tree {t} out of range");
        u32::from(self.words[2 * t]) | u32::from(self.words[2 * t + 1]) << 16
    }

    /// Every lane that is no head, narrowed; see [`Layout`] for the order.
    #[must_use]
    pub fn tails(&self) -> &'a [u16] {
        &self.words[2 * self.layout.b_max..]
    }

    /// Lanes on which two rows agree — the match count behind a Jaccard
    /// estimate, over `width` lanes.
    ///
    /// # Panics
    /// Panics if the rows are laid out differently.
    #[inline]
    #[must_use]
    pub fn count_equal(&self, other: &Row<'_>) -> usize {
        // `assert!`, not `assert_eq!`: the latter's borrowed operands cost
        // a ranked search a third of its verify time.
        assert!(self.layout == other.layout, "rows of different layouts");
        count_equal_row(self.words, other.words, self.layout.b_max)
    }
}

/// An owned [`Row`]: a query's signature narrowed once for a whole search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBuf {
    words: Vec<u16>,
    layout: Layout,
}

impl RowBuf {
    /// The first `layout.width` of `lanes`, laid out as a forest would
    /// store them.
    ///
    /// # Panics
    /// Panics if there are fewer lanes than that.
    #[must_use]
    pub fn narrow(layout: Layout, lanes: &[u32]) -> Self {
        let mut words = Vec::with_capacity(layout.words());
        lanes.append_to(layout, &mut words);
        Self { words, layout }
    }

    /// The row, borrowed.
    #[inline]
    #[must_use]
    pub fn as_row(&self) -> Row<'_> {
        Row {
            words: &self.words,
            layout: self.layout,
        }
    }
}

/// A row as a file stores it: its words' little-endian bytes, borrowed
/// where they lie — at any alignment, so a decoder reads a stored row in
/// place whatever offset its section starts at. What enters a forest from
/// a file: the forest's table is the one copy made.
#[derive(Debug, Clone, Copy)]
pub struct RowBytes<'a> {
    /// `layout.row_bytes()` of them.
    bytes: &'a [u8],
    layout: Layout,
}

impl<'a> RowBytes<'a> {
    /// `bytes` as a stored row of `layout`, or `None` if they are not one.
    #[must_use]
    pub fn new(layout: Layout, bytes: &'a [u8]) -> Option<Self> {
        (bytes.len() == layout.row_bytes()).then_some(Self { bytes, layout })
    }
}

/// What a forest takes for a row: 32-bit lanes — a [`Signature`], a
/// `[u32]` — which are narrowed here, the one place that happens; or a
/// row of the same layout already narrowed — a [`Row`] another forest
/// holds, a [`RowBytes`] a file holds — copied as it is.
pub trait RowLanes {
    /// Lanes this row carries, at whichever width.
    fn lanes(&self) -> usize;

    /// Appends this row's words, as `layout` orders them.
    ///
    /// # Panics
    /// Panics if there are fewer than `layout.width` lanes, or a stored
    /// row was laid out for another forest.
    fn append_to(&self, layout: Layout, table: &mut Vec<u16>);
}

impl<S: AsRef<[u32]> + ?Sized> RowLanes for S {
    fn lanes(&self) -> usize {
        self.as_ref().len()
    }

    fn append_to(&self, layout: Layout, table: &mut Vec<u16>) {
        let lanes = self.as_ref();
        assert!(
            lanes.len() >= layout.width,
            "signature too short: {} < {}",
            lanes.len(),
            layout.width
        );
        let start = table.len();
        table.resize(start + layout.words(), 0);
        layout.narrow_into(&lanes[..layout.width], &mut table[start..]);
    }
}

impl RowLanes for Row<'_> {
    fn lanes(&self) -> usize {
        self.layout.width
    }

    fn append_to(&self, layout: Layout, table: &mut Vec<u16>) {
        assert_eq!(self.layout, layout, "row laid out for another forest");
        table.extend_from_slice(self.words);
    }
}

impl RowLanes for RowBytes<'_> {
    fn lanes(&self) -> usize {
        self.layout.width
    }

    fn append_to(&self, layout: Layout, table: &mut Vec<u16>) {
        assert_eq!(self.layout, layout, "row laid out for another forest");
        let words = self.bytes.chunks_exact(2);
        table.extend(words.map(|w| u16::from_le_bytes([w[0], w[1]])));
    }
}

/// A borrowed row table: row `i` is `ids[i]` with words
/// `words[i·layout.words() ..][.. layout.words()]`.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// Domain id of each row.
    pub ids: &'a [DomainId],
    /// Row-major rows, `layout.words()` words each.
    pub words: &'a [u16],
    /// How each row is laid out.
    pub layout: Layout,
}

impl<'a> Rows<'a> {
    /// Row `i`, or `None` when it lies outside the table.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> Option<Row<'a>> {
        let n = self.layout.words();
        Some(Row {
            words: self.words.get(i.checked_mul(n)?..)?.get(..n)?,
            layout: self.layout,
        })
    }

    /// The first `n` tail lanes of `row`'s key in tree `t`, or `None` when
    /// the row (an index read from a file, say) lies outside the table.
    fn tail_key(&self, row: usize, t: usize, n: usize) -> Option<&'a [u16]> {
        let start = row
            .checked_mul(self.layout.words())?
            .checked_add(self.layout.tail_at(t))?;
        self.words.get(start..start.checked_add(n)?)
    }

    /// `row`'s head in tree `t`, checked like [`tail_key`](Self::tail_key).
    fn head(&self, row: usize, t: usize) -> Option<u32> {
        let at = row.checked_mul(self.layout.words())?.checked_add(2 * t)?;
        let halves = self.words.get(at..at.checked_add(2)?)?;
        Some(u32::from(halves[0]) | u32::from(halves[1]) << 16)
    }

    /// Tree `t`'s head of every whole row, in row order, into `heads`
    /// (emptied first): one pass down the table.
    ///
    /// # Panics
    /// Panics if `t ≥ b_max`.
    pub(crate) fn heads_into(&self, t: usize, heads: &mut Vec<u32>) {
        assert!(t < self.layout.b_max, "tree {t} out of range");
        heads.clear();
        let rows = self.words.chunks_exact(self.layout.words());
        heads.extend(rows.map(|w| u32::from(w[2 * t]) | u32::from(w[2 * t + 1]) << 16));
    }
}

/// Stored tail lanes against a query's 32-bit ones, narrowed as they are
/// compared.
fn cmp_tails(stored: &[u16], query: &[u32]) -> Ordering {
    stored
        .iter()
        .copied()
        .cmp(query.iter().map(|&lane| narrow_lane(lane)))
}

/// Rows a tree names with one `u16` — the run a tree sorts at a time. Not
/// a setting: the width of the `row` column fixes it.
pub const BLOCK: usize = 1 << 16;

/// The half of a head a tree entry keeps inline: its low 16 bits. A lane
/// is the top of a MinHash minimum, and the minimum over a large domain is
/// a small number, so high halves crowd together; low halves are spread
/// whatever the domain's size.
#[inline]
fn head_lo(head: u32) -> u16 {
    head as u16
}

/// A head in the order a tree sorts it: the half the entry keeps first,
/// then the half only its row holds.
#[inline]
fn tree_order(head: u32) -> u32 {
    head.rotate_right(16)
}

/// What a tree's `row` column holds: a row's index within its block
/// (`u16`, a forest's own trees), or a position in the whole table (`u32`,
/// a packed file's, where every partition's rows share one table).
pub trait TreeRow: Copy {
    /// The table row this entry of block `block` names, or `None` when it
    /// lies outside the block, which is `len` entries long.
    fn row_in(self, block: usize, len: usize) -> Option<usize>;
}

impl TreeRow for u16 {
    #[inline]
    fn row_in(self, block: usize, len: usize) -> Option<usize> {
        let local = usize::from(self);
        (local < len).then_some(block * BLOCK + local)
    }
}

impl TreeRow for u32 {
    #[inline]
    fn row_in(self, _: usize, _: usize) -> Option<usize> {
        Some(self as usize)
    }
}

/// A tree's columns cut into its blocks' runs: `(block, lo, row)`.
fn blocks<'a, R>(lo: &'a [u16], row: &'a [R]) -> impl Iterator<Item = (usize, &'a [u16], &'a [R])> {
    lo.chunks(BLOCK)
        .zip(row.chunks(BLOCK))
        .enumerate()
        .map(|(block, (lo, row))| (block, lo, row))
}

/// Probes prefix trees `0, 1, …` of one table at depth `r`: calls
/// `matched`, tree by tree, with the id and table row of every tree entry
/// whose row's key starts with the tree's prefix — `query`'s lanes
/// `t·r_max .. t·r_max + r`, 32 bits wide; the first is matched whole
/// against the head, the others through [`narrow_lane`] against the stored
/// tails. The row lets a caller read a match back where the probe found
/// it, without looking its id up.
///
/// Each of `trees` is a tree's `(lo, row)` columns: one run per [`BLOCK`]
/// of entries, each sorted by (the row's key in that tree — its head low
/// half first, then its tails — row index). A probe finds the run sharing
/// the head's low half by binary search, then reads rows only inside it;
/// the runs of a few trees are found before any of their rows is read, so
/// the row reads of neighbouring trees overlap instead of queueing behind
/// one another's searches. Row access is checked: an entry whose row lies
/// outside its block or `rows` matches nothing, it never panics.
pub fn probe_trees<'a, R: TreeRow + 'a>(
    rows: Rows<'_>,
    trees: impl IntoIterator<Item = (&'a [u16], &'a [R])>,
    query: &[u32],
    r: usize,
    matched: &mut impl FnMut(DomainId, usize),
) {
    let r_max = rows.layout.r_max;
    let mut units = trees.into_iter().enumerate().flat_map(|(t, (lo, row))| {
        blocks(lo, row).map(move |(block, lo, row)| (t, block, lo, row))
    });
    let mut runs: [(usize, usize, &[R], usize); AHEAD] = [(0, 0, &[], 0); AHEAD];
    loop {
        let (mut taken, mut found) = (0, 0);
        for (t, block, lo, row) in units.by_ref().take(AHEAD) {
            taken += 1;
            let Some(&first) = query.get(t * r_max).filter(|_| r > 0) else {
                continue;
            };
            let (from, len) = equal_run(lo, head_lo(first));
            if let Some(run) = row.get(from..from + len) {
                runs[found] = (t, block, run, row.len());
                found += 1;
            }
        }
        for &(t, block, run, len) in &runs[..found] {
            if let Some(prefix) = query.get(t * r_max..t * r_max + r) {
                walk_run(rows, t, prefix, (block, len), run, matched);
            }
        }
        if taken < AHEAD {
            return;
        }
    }
}

/// Tree blocks whose runs [`probe_trees`] finds before reading rows.
const AHEAD: usize = 8;

/// Where the entries equal to `want` lie in the sorted column `lo`.
fn equal_run(lo: &[u16], want: u16) -> (usize, usize) {
    let from = lo.partition_point(|&k| k < want);
    // The run is short unless rows share values: gallop to its end instead
    // of searching the whole column again.
    let after = &lo[from..];
    let mut reach = 1;
    while reach < after.len() && after[reach] == want {
        reach *= 2;
    }
    let len = reach / 2 + after[reach / 2..reach.min(after.len())].partition_point(|&k| k == want);
    (from, len)
}

/// Calls `found` with the id and table row of each entry of `run` — tree
/// `t`'s entries in block `block`, `len` entries long, sharing the low half
/// of `prefix[0]` — whose row's key starts with `prefix`.
fn walk_run<R: TreeRow>(
    rows: Rows<'_>,
    t: usize,
    prefix: &[u32],
    (block, len): (usize, usize),
    run: &[R],
    found: &mut impl FnMut(DomainId, usize),
) {
    let Some((&first, rest)) = prefix.split_first() else {
        return;
    };
    let high = (first >> 16) as u16;
    let (words, tails_at) = (rows.layout.words(), rows.layout.tail_at(t));
    // Inside the run the heads' low halves are equal, so rows ascend by the
    // high half (the head's second word in the row), then the tails: one
    // checked slice of the row, and the entry's table row.
    let key = |i: R| {
        let i = i.row_in(block, len)?;
        let start = i.checked_mul(words)?;
        let stored = rows.words.get(start..start.checked_add(words)?)?;
        let (head, tails) = (
            stored.get(2 * t + 1)?,
            stored.get(tails_at..tails_at + rest.len())?,
        );
        Some((i, head.cmp(&high).then_with(|| cmp_tails(tails, rest))))
    };
    // A run too short for a search to save a row read is walked whole.
    let linear = run.len() <= LINEAR_RUN;
    let skip = if linear {
        0
    } else {
        run.partition_point(|&i| matches!(key(i), Some((_, Ordering::Less))))
    };
    for &i in &run[skip..] {
        match key(i) {
            Some((i, Ordering::Equal)) => {
                if let Some(&id) = rows.ids.get(i) {
                    found(id, i);
                }
            }
            _ if linear => {}
            _ => break,
        }
    }
}

/// Runs up to this long are compared row by row, not binary-searched.
const LINEAR_RUN: usize = 4;

/// Checks tree `t`'s columns against the row table it indexes: every
/// `row[i]` is in range — inside its block, inside the table — `lo[i]` is
/// the low half of that row's head in the tree, and inside each block the
/// rows' keys (head in tree order, then `r_max − 1` tails) never descend.
/// What a decoder verifies before it trusts [`probe_trees`]' binary
/// searches to find every match.
///
/// `head(i)` is row `i`'s head in tree `t`, `None` outside the table:
/// read from the row, or from the tree's heads gathered in one pass over
/// the rows (a forest's decoder does), so the entries, which visit rows in
/// key order, read a dense column instead of a row each. A row's tails are
/// read only where its head ties with the entry's before it.
///
/// `seen` (a mark per table row, zeroed by the caller) makes the trees of
/// one partition agree on their rows: every row this tree indexes must
/// carry the mark `after` and leaves with `stamp`. The first tree passes
/// `after = 0` (no tree has the row yet), each later one its predecessor's
/// `stamp` — equally long trees then index the same rows, each once, and
/// partitions sharing a table share no row.
///
/// # Errors
/// What is wrong with the columns.
pub fn check_tree<R: TreeRow>(
    rows: Rows<'_>,
    (lo, row): (&[u16], &[R]),
    t: usize,
    head: impl Fn(usize) -> Option<u32>,
    seen: &mut [u32],
    (after, stamp): (u32, u32),
) -> Result<(), &'static str> {
    if lo.len() != row.len() {
        return Err("tree columns differ in length");
    }
    const OUT_OF_RANGE: &str = "tree row index out of range";
    let depth = rows.layout.r_max - 1;
    let tails = |i| rows.tail_key(i, t, depth).ok_or(OUT_OF_RANGE);
    for (block, lo, row) in blocks(lo, row) {
        let mut prev: Option<(u32, usize)> = None;
        for (&low, &i) in lo.iter().zip(row) {
            let i = i.row_in(block, row.len());
            let (Some(i), Some(head)) = (i, i.and_then(&head)) else {
                return Err(OUT_OF_RANGE);
            };
            let Some(mark) = seen.get_mut(i) else {
                return Err(OUT_OF_RANGE);
            };
            if head_lo(head) != low {
                return Err("tree head bits disagree with its row");
            }
            let key = tree_order(head);
            let order = match prev {
                Some((before, j)) if before == key => tails(j)?.cmp(tails(i)?),
                Some((before, _)) => before.cmp(&key),
                None => Ordering::Less,
            };
            if order == Ordering::Greater {
                return Err("tree keys out of order");
            }
            if std::mem::replace(mark, stamp) != after {
                return Err("tree is not a permutation of its partition's rows");
            }
            prev = Some((key, i));
        }
    }
    Ok(())
}

/// One prefix tree over the committed rows: parallel columns, one run per
/// block sorted by (the row's key, row index) — a total order, so the
/// canonical byte form does not depend on the sort algorithm.
#[derive(Debug, Clone, Default)]
struct PrefixTree {
    /// `lo` — the low half of each entry's head, its first key lane — then
    /// `row`, each entry's row within its block: the halves of one column,
    /// as a file holds them, so a probe asks once whether it is a view.
    entries: Column<u16>,
}

impl PrefixTree {
    /// Tree `t` over the first `n` rows of `rows`.
    fn build(rows: Rows<'_>, t: usize, n: usize) -> Self {
        let head = |i: usize| rows.head(i, t).expect("a row of the table");
        let depth = rows.layout.r_max - 1;
        let mut lo = Vec::with_capacity(2 * n);
        let mut local = Vec::with_capacity(n);
        let mut entries: Vec<u64> = Vec::with_capacity(n.min(BLOCK));
        for start in (0..n).step_by(BLOCK) {
            // (head in tree order, row) packed into one integer sorts
            // without touching the tails; only rows that tie on the head
            // compare the rest.
            let block = start..n.min(start + BLOCK);
            entries.clear();
            let order = |i: usize| u64::from(tree_order(head(i))) << 32 | (i - start) as u64;
            entries.extend(block.map(order));
            entries.sort_unstable();
            let rest = |e: u64| {
                let row = start + (e as u32 as usize);
                rows.tail_key(row, t, depth).expect("a row of the table")
            };
            let mut run = 0;
            while run < entries.len() {
                let len = entries[run..]
                    .iter()
                    .take_while(|&&e| e >> 32 == entries[run] >> 32)
                    .count();
                if len > 1 && depth > 0 {
                    entries[run..run + len]
                        .sort_unstable_by(|&a, &b| rest(a).cmp(rest(b)).then(a.cmp(&b)));
                }
                run += len;
            }
            lo.extend(entries.iter().map(|&e| (e >> 48) as u16));
            local.extend(entries.iter().map(|&e| e as u16));
        }
        lo.append(&mut local);
        Self { entries: lo.into() }
    }

    /// The `(lo, row)` columns.
    #[inline]
    fn columns(&self) -> (&[u16], &[u16]) {
        self.entries.split_at(self.entries.len() / 2)
    }
}

/// A dynamic MinHash LSH index supporting query-time `(b, r)` selection.
#[derive(Debug, Clone)]
pub struct LshForest {
    layout: Layout,
    /// Domain id of each row, committed rows first.
    ids: Column<DomainId>,
    /// Row-major rows, `layout.words()` words each.
    words: Column<u16>,
    /// One tree per band, over rows `..committed`.
    trees: Vec<PrefixTree>,
    /// Rows sorted into the trees; the rest are the staged tail.
    committed: usize,
}

impl LshForest {
    /// Creates a forest of `b_max` prefix trees of depth `r_max` that keeps
    /// exactly the `b_max · r_max` lanes its trees are keyed by.
    ///
    /// Signatures must carry at least `b_max · r_max` slots. With the
    /// paper's defaults (`m = 256`), `b_max = 32`, `r_max = 8` exposes the
    /// full `(b ≤ 32, r ≤ 8)` tuning grid.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(b_max: usize, r_max: usize) -> Self {
        Self::with_width(b_max, r_max, b_max * r_max)
    }

    /// [`new`](Self::new), keeping the first `width` lanes of every row —
    /// the whole signature, for an index that also ranks by it.
    ///
    /// # Panics
    /// Panics if a dimension is zero or `width < b_max · r_max`.
    #[must_use]
    pub fn with_width(b_max: usize, r_max: usize, width: usize) -> Self {
        Self {
            layout: Layout::new(b_max, r_max, width),
            ids: Column::default(),
            words: Column::default(),
            trees: vec![PrefixTree::default(); b_max],
            committed: 0,
        }
    }

    /// Builds a committed forest over `rows` (id, lanes) with no staged
    /// tail, every column exactly sized. Equal byte for byte to inserting
    /// the rows in order and committing; panics where that would.
    #[must_use]
    pub fn from_rows<L: RowLanes + ?Sized>(
        b_max: usize,
        r_max: usize,
        width: usize,
        rows: &[(DomainId, &L)],
    ) -> Self {
        let mut forest = Self::with_width(b_max, r_max, width);
        forest.ids.to_mut().reserve_exact(rows.len());
        let words = rows.len() * forest.layout.words();
        forest.words.to_mut().reserve_exact(words);
        for &(id, lanes) in rows {
            forest.insert(id, lanes);
        }
        forest.commit();
        forest
    }

    /// Maximum number of bands usable at query time.
    #[must_use]
    pub fn b_max(&self) -> usize {
        self.layout.b_max
    }

    /// Maximum prefix depth usable at query time.
    #[must_use]
    pub fn r_max(&self) -> usize {
        self.layout.r_max
    }

    /// Lanes kept per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.layout.width
    }

    /// How every row is laid out.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Number of indexed domains (committed + staged).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no domain has been indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of inserts not yet sorted into the trees.
    #[must_use]
    pub fn staged_len(&self) -> usize {
        self.ids.len() - self.committed
    }

    /// Stages a domain for indexing under `id`: a signature (or bare
    /// 32-bit lanes), narrowed into the row table here, or a [`Row`] read
    /// out of a forest of the same layout.
    ///
    /// The row is staged, in no tree: the forest refuses queries until
    /// [`commit`](Self::commit) sorts it in.
    ///
    /// # Panics
    /// Panics if the signature has fewer slots than the forest keeps per
    /// row, or the row was laid out for another forest.
    pub fn insert<S: RowLanes + ?Sized>(&mut self, id: DomainId, sig: &S) {
        sig.append_to(self.layout, self.words.to_mut());
        self.ids.to_mut().push(id);
    }

    /// Sorts all staged rows into the trees (O(n log n) per tree).
    pub fn commit(&mut self) {
        if self.staged_len() == 0 {
            return;
        }
        self.committed = self.ids.len();
        self.sort_trees();
    }

    /// Builds every tree afresh over the committed rows.
    fn sort_trees(&mut self) {
        let rows = Rows {
            ids: &self.ids,
            words: &self.words,
            layout: self.layout,
        };
        for (t, tree) in self.trees.iter_mut().enumerate() {
            *tree = PrefixTree::build(rows, t, self.committed);
        }
    }

    /// The id of every row (committed then staged), in row order. Ids
    /// inserted more than once repeat.
    #[must_use]
    pub fn ids(&self) -> &[DomainId] {
        &self.ids
    }

    /// Row `i` as the table holds it.
    ///
    /// # Panics
    /// Panics if `i` is not a row.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> Row<'_> {
        self.rows().row(i).expect("row index in range")
    }

    /// The whole row table, borrowed.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            ids: &self.ids,
            words: &self.words,
            layout: self.layout,
        }
    }

    /// Collects candidates for `sig` using the first `b` trees at prefix
    /// depth `r`, appending to `out` (duplicates across trees are possible;
    /// callers dedup, typically into a hash set).
    ///
    /// # Panics
    /// As [`probe_into`](Self::probe_into).
    pub fn query_into(&self, sig: &Signature, b: usize, r: usize, out: &mut Vec<DomainId>) {
        self.probe_into(sig, b, r, &mut |id, _| out.push(id));
    }

    /// [`query_into`](Self::query_into), calling `found` with each
    /// candidate's id and row.
    ///
    /// # Panics
    /// Panics if staged inserts exist (the trees answer only committed
    /// rows: [`commit`](Self::commit) first), if `b`/`r` are zero or exceed
    /// the forest dimensions, or if the signature is too short.
    pub fn probe_into(
        &self,
        sig: &Signature,
        b: usize,
        r: usize,
        found: &mut impl FnMut(DomainId, usize),
    ) {
        assert_eq!(
            self.staged_len(),
            0,
            "query on a forest with staged inserts; commit first"
        );
        let Layout { b_max, r_max, .. } = self.layout;
        assert!(b >= 1 && b <= b_max, "b = {b} out of range");
        assert!(r >= 1 && r <= r_max, "r = {r} out of range");
        assert!(
            sig.len() >= b_max * r_max,
            "signature too short: {} < {}",
            sig.len(),
            b_max * r_max
        );
        // The columns are looked at once, not per tree: a `Column` is a
        // vector or a view, and telling which is a branch.
        let trees = self.trees[..b].iter().map(PrefixTree::columns);
        probe_trees(self.rows(), trees, sig.slots(), r, found);
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

    /// The (lo, row) columns of every tree, in tree order: one run per
    /// [`BLOCK`] of entries, `row` naming a row of that block. With
    /// [`rows`](Self::rows), the canonical sorted form serialisers (the
    /// forest's own and the store packer) copy out.
    ///
    /// # Panics
    /// Panics if staged inserts exist: the staged tail is in no tree, so
    /// callers must [`commit`](Self::commit) first.
    pub fn committed_trees(&self) -> impl Iterator<Item = (&[u16], &[u16])> {
        assert_eq!(
            self.staged_len(),
            0,
            "committed_trees on a forest with staged inserts; commit first"
        );
        self.trees.iter().map(PrefixTree::columns)
    }

    /// Reassembles a forest from decoded parts. The decoder has validated
    /// them: `trees` — each a `lo` column, then a `row` column — index
    /// exactly the rows of the table, in key order.
    pub(crate) fn from_raw(
        layout: Layout,
        ids: Column<DomainId>,
        words: Column<u16>,
        trees: Vec<Column<u16>>,
    ) -> Self {
        Self {
            layout,
            committed: ids.len(),
            ids,
            words,
            trees: trees
                .into_iter()
                .map(|entries| PrefixTree { entries })
                .collect(),
        }
    }

    /// Approximate footprint of the index in bytes (diagnostics): the row
    /// table, counted once, plus the tree columns — on the heap or viewed
    /// in a mapped file, [`mapped_bytes`](Self::mapped_bytes) says which.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let table = self.ids.heap_bytes() + self.words.heap_bytes();
        let trees = self.trees.iter();
        let trees = trees.map(|t| t.entries.heap_bytes());
        table + trees.sum::<usize>() + self.mapped_bytes()
    }

    /// The tree columns' share of [`memory_bytes`](Self::memory_bytes),
    /// heap or mapped: 4 bytes an entry, `4·b_max` a committed row.
    #[must_use]
    pub fn tree_bytes(&self) -> usize {
        let trees = self.trees.iter();
        trees
            .map(|t| t.entries.heap_bytes() + t.entries.mapped_bytes())
            .sum()
    }

    /// The part of [`memory_bytes`](Self::memory_bytes) that is not heap:
    /// the columns a decoder lent this forest out of a shared owner (a
    /// mapped index file), none of which has been written since.
    #[must_use]
    pub fn mapped_bytes(&self) -> usize {
        let trees = self.trees.iter();
        let trees = trees.map(|t| t.entries.mapped_bytes());
        self.ids.mapped_bytes() + self.words.mapped_bytes() + trees.sum::<usize>()
    }

    /// True if every bulk column — ids, rows, both of each tree — is a view
    /// lying inside `bytes`.
    #[must_use]
    pub fn borrows_from(&self, bytes: &[u8]) -> bool {
        let mut trees = self.trees.iter();
        self.ids.is_view_into(bytes)
            && self.words.is_view_into(bytes)
            && trees.all(|t| t.entries.is_view_into(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lshe_minhash::MinHasher;
    use proptest::prelude::*;

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
    #[should_panic(expected = "staged inserts; commit first")]
    fn a_forest_with_staged_rows_refuses_queries_until_commit() {
        let h = MinHasher::new(256);
        let vals = MinHasher::synthetic_values(2, 100);
        let f = forest_with(&h, &[(1, vals.clone())], false);
        assert_eq!(f.staged_len(), 1);
        let _ = f.query(&h.signature(vals), 32, 8);
    }

    #[test]
    fn commit_is_query_transparent() {
        // Committing in two batches answers exactly as committing once.
        let h = MinHasher::new(256);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..50)
            .map(|i| (i, MinHasher::synthetic_values(u64::from(i) + 10, 150)))
            .collect();
        let mut twice = forest_with(&h, &domains[..20], true);
        for (id, vals) in &domains[20..] {
            twice.insert(*id, &h.signature(vals.iter().copied()));
        }
        twice.commit();
        let once = forest_with(&h, &domains, true);
        assert_eq!(twice.staged_len(), 0);
        for (id, vals) in &domains {
            let sig = h.signature(vals.iter().copied());
            for &(b, r) in &[(8usize, 4usize), (32, 8), (16, 2)] {
                let a = twice.query(&sig, b, r);
                let c = once.query(&sig, b, r);
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
    fn forest_matches_banded_lsh_at_full_params() {
        // At (b, r) = (b_max, r_max) a domain is a candidate iff some band
        // of r lanes — tree t's, [t·r, (t+1)·r) — equals the query's: the
        // banded definition (§3.2), written out here as the oracle. A row
        // keeps each head at 32 bits and narrows its tails, so the forest
        // answers exactly the oracle over stored lanes, and every id the
        // oracle over whole lanes names.
        let h = MinHasher::new(256);
        let base = MinHasher::synthetic_values(3000, 200);
        let domains: Vec<(DomainId, Vec<u64>)> = (0..80u32)
            .map(|i| {
                let mut v = base[..5 * (i as usize / 2)].to_vec();
                v.extend(MinHasher::synthetic_values(
                    4000 + u64::from(i),
                    200 - v.len(),
                ));
                (i, v)
            })
            .collect();
        let f = forest_with(&h, &domains, true);
        let sigs: Vec<Signature> = domains
            .iter()
            .map(|(_, v)| h.signature(v.clone()))
            .collect();
        let stored = |i: usize, lane: u32| match i % 8 {
            0 => lane,
            _ => u32::from(lshe_minhash::narrow_lane(lane)),
        };
        let banded = |q: &Signature, lane: &dyn Fn(usize, u32) -> u32| -> Vec<DomainId> {
            let equal = |x: &Signature, i: usize| lane(i, q.slots()[i]) == lane(i, x.slots()[i]);
            let hit = |x: &Signature| (0..32).any(|t| (t * 8..t * 8 + 8).all(|i| equal(x, i)));
            (0..)
                .zip(&sigs)
                .filter(|(_, x)| hit(x))
                .map(|(id, _)| id)
                .collect()
        };
        let queries = sigs.iter().step_by(8).cloned();
        for q in queries.chain([h.signature(base.iter().copied())]) {
            let from_forest = f.query(&q, 32, 8);
            assert_eq!(from_forest, banded(&q, &stored));
            let from_whole = banded(&q, &|_, lane| lane);
            assert!(from_whole.iter().all(|id| from_forest.contains(id)));
        }
        let q = h.signature(base.iter().copied());
        assert!(banded(&q, &|_, lane| lane).len() > 10, "too few collisions");
    }

    #[test]
    fn empirical_collision_curve_matches_eq5() {
        // Many (query, domain) pairs at a controlled Jaccard: the measured
        // candidate rate at full (b, r) matches Eq. 5 within noise.
        let (b, r) = (16, 8);
        let h = MinHasher::new(b * r);
        let target_s = 0.7f64;
        let n_pairs = 300;
        let mut hits = 0usize;
        for i in 0..n_pairs {
            // |A| = |B| = 400, overlap o chosen so o/(800-o) = s ⇒
            // o = 800·s/(1+s); each side adds 400 − o private values.
            let o = (800.0 * target_s / (1.0 + target_s)).round() as usize;
            let shared = MinHasher::synthetic_values(1000 + i, o);
            let ax = MinHasher::synthetic_values(5000 + i, 400 - o);
            let bx = MinHasher::synthetic_values(9000 + i, 400 - o);
            let a: Vec<u64> = shared.iter().chain(ax.iter()).copied().collect();
            let bvals: Vec<u64> = shared.iter().chain(bx.iter()).copied().collect();
            let mut f = LshForest::new(b, r);
            f.insert(0, &h.signature(a));
            f.commit();
            if f.query(&h.signature(bvals), b, r).contains(&0) {
                hits += 1;
            }
        }
        let measured = hits as f64 / n_pairs as f64;
        let expected = crate::candidate_probability(target_s, b as u32, r as u32);
        assert!(
            (measured - expected).abs() < 0.12,
            "measured {measured}, Eq.5 predicts {expected}"
        );
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
        let mut ids: Vec<DomainId> = f.ids().to_vec();
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

    /// Every (row, tree) match of `query` at `(b, r)`, by definition: the
    /// head whole, the other key lanes as their low 16 bits.
    fn brute_force(
        model: &[(DomainId, Vec<u32>)],
        query: &[u32],
        r_max: usize,
        (b, r): (usize, usize),
    ) -> Vec<DomainId> {
        let key = |lanes: &[u32], at: usize| -> (u32, Vec<u16>) {
            let tails = lanes[at + 1..at + r].iter().map(|&l| narrow_lane(l));
            (lanes[at], tails.collect())
        };
        let mut out = Vec::new();
        for t in 0..b {
            let at = t * r_max;
            for (id, lanes) in model {
                if key(lanes, at) == key(query, at) {
                    out.push(*id);
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn assert_probes_match(
        forest: &LshForest,
        model: &[(DomainId, Vec<u32>)],
        queries: &[Vec<u32>],
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(forest.len(), model.len());
        for query in queries {
            let sig = Signature::from_slots(query.clone());
            for b in 1..=forest.b_max() {
                for r in 1..=forest.r_max() {
                    let mut got = Vec::new();
                    forest.query_into(&sig, b, r, &mut got);
                    got.sort_unstable();
                    let want = brute_force(model, query, forest.r_max(), (b, r));
                    prop_assert!(got == want, "(b, r) = ({b}, {r}): {got:?} vs {want:?}");
                }
            }
        }
        Ok(())
    }

    proptest! {
        /// Lanes drawn from a tiny alphabet force long runs on lane 0 that
        /// differ only deeper in the key, plus exact duplicates; a quarter
        /// of them also carry a bit above the 16 a tail keeps, which tells
        /// heads apart and tails not. The forest must answer every `(b, r)`
        /// like a filter over its rows — fresh, and after a staged tail is
        /// committed.
        #[test]
        fn probe_equals_a_brute_force_filter_over_the_rows(
            b_max in 1usize..4,
            r_max in 1usize..5,
            extra in 0usize..3,
            committed in 0usize..60,
            staged in 0usize..12,
            raw in proptest::collection::vec(0u32..3, 2_000..2_001),
        ) {
            let width = b_max * r_max + extra;
            let lanes_of = |k: usize| -> Vec<u32> {
                (0..width)
                    .map(|l| {
                        let high = u32::from((k * 13 + l * 5).is_multiple_of(4)) << 16;
                        raw[(k * 31 + l * 7) % raw.len()] + u32::from(l % r_max == 0) + high
                    })
                    .collect()
            };
            // Ids from a small range: some rows share an id.
            let model: Vec<(DomainId, Vec<u32>)> = (0..committed + staged)
                .map(|k| ((k as u32 * 7) % 20, lanes_of(k)))
                .collect();
            let queries: Vec<Vec<u32>> = (0..6).map(|k| lanes_of(k * 5)).collect();

            let rows: Vec<(DomainId, &[u32])> =
                model[..committed].iter().map(|(id, l)| (*id, &l[..])).collect();
            let mut forest = LshForest::from_rows(b_max, r_max, width, &rows);
            let mut inserted = LshForest::with_width(b_max, r_max, width);
            for &(id, lanes) in &rows {
                inserted.insert(id, lanes);
            }
            inserted.commit();
            prop_assert!(forest.to_bytes() == inserted.to_bytes(), "from_rows ≢ insert-all + commit");
            assert_probes_match(&forest, &model[..committed], &queries)?;

            for (id, lanes) in &model[committed..] {
                forest.insert(*id, &lanes[..]);
            }
            prop_assert_eq!(forest.staged_len(), staged);
            forest.commit();
            prop_assert_eq!(forest.staged_len(), 0);
            assert_probes_match(&forest, &model, &queries)?;
            let rows: Vec<(DomainId, &[u32])> = model.iter().map(|(id, l)| (*id, &l[..])).collect();
            let rebuilt = LshForest::from_rows(b_max, r_max, width, &rows);
            prop_assert!(forest.to_bytes() == rebuilt.to_bytes(), "committed ≢ rebuilt from its rows");
        }
    }

    #[test]
    fn tree_probe_equal_range() {
        // One tree of depth 2 over five rows, sorted by (key, row): a row
        // is its head's two halves, then its tail. Row 4's head, 7 << 16,
        // shares its low half (0) with none but differs from row 0's (1)
        // only there; rows 0, 1 and 3 share their whole head (1).
        let ids = [12u32, 10, 13, 11, 14];
        #[rustfmt::skip]
        let words = [
            1u16, 0, 2,
            1, 0, 1,
            2, 0, 0,
            1, 0, 2,
            0, 7, 2,
        ];
        let rows = Rows {
            ids: &ids,
            words: &words,
            layout: Layout::new(1, 2, 2),
        };
        let (lo, row) = ([0u16, 1, 1, 1, 2], [4u16, 1, 0, 3, 2]);
        let head = |i| rows.head(i, 0);
        assert_eq!(
            check_tree(rows, (&lo, &row), 0, head, &mut [0; 5], (0, 1)),
            Ok(())
        );
        let probe = |prefix: &[u32]| {
            let mut out = Vec::new();
            probe_trees(
                rows,
                [(&lo[..], &row[..])],
                prefix,
                prefix.len(),
                &mut |id, _| out.push(id),
            );
            out
        };
        assert_eq!(probe(&[1, 2]), vec![12, 11]);
        assert_eq!(probe(&[1]), vec![10, 12, 11]); // shorter prefix widens the range
        assert_eq!(probe(&[2, 0]), vec![13]);
        assert!(probe(&[1, 3]).is_empty() && probe(&[3]).is_empty() && probe(&[0, 9]).is_empty());
        // A tail lane is its low 16 bits; a head is all 32.
        assert_eq!(probe(&[1, 2 | 7 << 16]), vec![12, 11]);
        assert!(probe(&[1 | 7 << 16, 2]).is_empty());
        assert_eq!(probe(&[7 << 16, 2]), vec![14]);
        assert!(probe(&[7 << 16 | 1]).is_empty() && probe(&[7]).is_empty());
    }

    #[test]
    fn a_stored_row_moves_between_forests_as_it_is_and_only_between_like_forests() {
        let h = MinHasher::new(256);
        let sig = h.signature(MinHasher::synthetic_values(6, 90));
        let mut from = LshForest::with_width(32, 8, 256);
        from.insert(4, &sig);
        let mut to = LshForest::with_width(32, 8, 256);
        to.insert(4, &from.row(0));
        assert_eq!(to.row(0), from.row(0));
        assert_eq!(to.row(0), RowBuf::narrow(to.layout(), sig.slots()).as_row());
        to.commit();
        assert_eq!(to.query(&sig, 32, 8), vec![4]);
        let other = std::panic::catch_unwind(|| {
            let mut shallow = LshForest::with_width(32, 4, 256);
            shallow.insert(4, &from.row(0));
        });
        assert!(
            other.is_err(),
            "a row laid out for depth 8 entered a depth-4 forest"
        );
    }

    #[test]
    fn an_entry_pointing_outside_the_table_matches_nothing() {
        let ids = [7u32, 8];
        let words = [1u16, 0, 2, 1, 0, 3];
        let rows = Rows {
            ids: &ids,
            words: &words,
            layout: Layout::new(1, 2, 2),
        };
        let mut out = Vec::new();
        // Row 9 lies outside the block (and the table); row 1 does not.
        let lo = [1u16, 1];
        probe_trees(rows, [(&lo[..], &[9u16, 1][..])], &[1], 1, &mut |id, _| {
            out.push(id)
        });
        assert_eq!(out, vec![8]);
        out.clear();
        probe_trees(
            rows,
            [(&lo[..], &[9u16, 1][..])],
            &[1, 3],
            2,
            &mut |id, _| out.push(id),
        );
        assert!(out.is_empty() || out == vec![8]);
        // A packed file's global positions, checked against the table.
        out.clear();
        probe_trees(rows, [(&lo[..], &[9u32, 1][..])], &[1], 1, &mut |id, _| {
            out.push(id)
        });
        assert_eq!(out, vec![8]);
        let head = |i| rows.head(i, 0);
        for err in [
            check_tree(rows, (&[1, 1], &[9u16, 1]), 0, head, &mut [0; 2], (0, 1)),
            check_tree(rows, (&[1, 1], &[9u32, 1]), 0, head, &mut [0; 2], (0, 1)),
        ] {
            assert_eq!(err, Err("tree row index out of range"));
        }
    }

    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Lanes of row `k` of a forest of 2 trees of depth 2 over 4 lanes,
    /// drawn to collide: a head is one of 5 high halves and 7 low ones, so
    /// heads share `lo` and differ above it; a tail is one of 3 values, so
    /// heads tie and tails decide; bit 16 of a tail only sometimes set.
    fn colliding_lanes(k: u64) -> Vec<u32> {
        (0..4)
            .map(|l| {
                let v = mix(k * 4 + l);
                if l % 2 == 0 {
                    (((v % 5) << 16) | ((v >> 8) % 7)) as u32
                } else {
                    ((v % 3) | (((v >> 20) % 2) << 16)) as u32
                }
            })
            .collect()
    }

    /// Rows past one block — two blocks, at the tiny 2 × 2 layout.
    const TWO_BLOCKS: usize = 70_000;

    fn two_block_model() -> Vec<(DomainId, Vec<u32>)> {
        (0..TWO_BLOCKS as u32)
            .map(|k| (k, colliding_lanes(u64::from(k))))
            .collect()
    }

    fn forest_of(model: &[(DomainId, Vec<u32>)]) -> LshForest {
        let rows: Vec<(DomainId, &[u32])> = model.iter().map(|(id, l)| (*id, &l[..])).collect();
        LshForest::from_rows(2, 2, 4, &rows)
    }

    #[test]
    fn a_forest_past_one_block_answers_like_a_filter_and_round_trips_as_views() {
        use lshe_minhash::codec::{Decoder, Owner};
        use std::sync::Arc;
        let model = two_block_model();
        let forest = forest_of(&model);
        assert_eq!(forest.trees[0].columns().0.len(), TWO_BLOCKS);
        // Rows from both blocks, and lanes no row has.
        let queries: Vec<Vec<u32>> = [3u64, 40_000, 65_535, 65_536, 69_999]
            .iter()
            .map(|&k| model[k as usize].1.clone())
            .chain((0..3).map(|k| colliding_lanes(1 << 40 | k)))
            .collect();
        for query in &queries {
            let sig = Signature::from_slots(query.clone());
            for (b, r) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                let mut got = Vec::new();
                forest.query_into(&sig, b, r, &mut got);
                got.sort_unstable();
                assert!(
                    got == brute_force(&model, query, 2, (b, r)),
                    "(b, r) = ({b}, {r})"
                );
            }
        }
        // Encoded and decoded over a shared owner: every column a view of
        // it, the same bytes again, the same answers.
        let owner: Owner = Arc::new(forest.to_bytes());
        let bytes: &[u8] = (*owner).as_ref();
        let viewed = LshForest::decode(Decoder::shared(&owner)).expect("decode");
        assert!(viewed.borrows_from(bytes));
        assert_eq!(viewed.mapped_bytes(), forest.memory_bytes());
        assert_eq!(viewed.tree_bytes(), TWO_BLOCKS * 4 * 2);
        assert!(viewed.to_bytes() == bytes);
        let sig = Signature::from_slots(queries[3].clone());
        assert_eq!(viewed.query(&sig, 2, 2), forest.query(&sig, 2, 2));
    }

    #[test]
    fn check_tree_refuses_what_a_block_cannot_hold() {
        let model = two_block_model();
        let forest = forest_of(&model);
        let rows = forest.rows();
        let (lo, row) = forest.trees[1].columns();
        let check = |lo: &[u16], row: &[u16]| {
            check_tree(
                rows,
                (lo, row),
                1,
                |i| rows.head(i, 1),
                &mut vec![0; TWO_BLOCKS],
                (0, 1),
            )
        };
        assert_eq!(check(lo, row), Ok(()));
        // The first block's last key is above the second's first: blocks
        // are sorted apart, not together.
        let key = |at: usize| {
            let i = usize::from(row[at]) + if at < BLOCK { 0 } else { BLOCK };
            (rows.head(i, 1).map(tree_order), rows.tail_key(i, 1, 1))
        };
        assert!(key(BLOCK - 1) > key(BLOCK));
        type Damage = fn(&mut [u16], &mut [u16]);
        let cases: [(&str, Damage, &str); 3] = [
            (
                "a block-local row at the last block's length",
                |_, row| row[BLOCK] = (TWO_BLOCKS - BLOCK) as u16,
                "tree row index out of range",
            ),
            (
                "a lo that is not its row's",
                |lo, _| lo[BLOCK + 7] ^= 8,
                "tree head bits disagree with its row",
            ),
            (
                "two entries of a block trading places",
                |lo, row| {
                    lo.swap(BLOCK, TWO_BLOCKS - 1);
                    row.swap(BLOCK, TWO_BLOCKS - 1);
                },
                "tree keys out of order",
            ),
        ];
        for (what, damage, detail) in cases {
            let (mut lo, mut row) = (lo.to_vec(), row.to_vec());
            damage(&mut lo, &mut row);
            assert_eq!(check(&lo, &row), Err(detail), "{what}");
        }
        // A row named twice where its neighbour shares its key: only the
        // permutation check can tell.
        let mut twice = row.to_vec();
        let twin = (BLOCK..TWO_BLOCKS - 1)
            .find(|&at| key(at) == key(at + 1))
            .expect("two entries sharing a key");
        twice[twin + 1] = twice[twin];
        assert_eq!(
            check(lo, &twice),
            Err("tree is not a permutation of its partition's rows")
        );
    }

    /// The kernel before tree entries were 4 bytes: the full 32-bit head
    /// inline, a global row — by definition, every entry of the sorted
    /// tree whose whole head and first tails equal the prefix, in tree
    /// order.
    fn full_head_probe(forest: &LshForest, t: usize, prefix: &[u32]) -> Vec<DomainId> {
        let rows = forest.rows();
        let depth = forest.r_max() - 1;
        let mut tree: Vec<(u32, &[u16], usize)> = (0..forest.len())
            .map(|i| {
                (
                    rows.head(i, t).expect("row"),
                    rows.tail_key(i, t, depth).expect("row"),
                    i,
                )
            })
            .collect();
        tree.sort_unstable();
        let rest = &prefix[1..];
        tree.iter()
            .filter(|(head, tails, _)| {
                *head == prefix[0] && cmp_tails(&tails[..rest.len()], rest) == Ordering::Equal
            })
            .map(|&(_, _, i)| rows.ids[i])
            .collect()
    }

    proptest! {
        /// Heads from 2 high halves × 3 low ones, tails from 3 values with
        /// bit 16 sometimes set: rows share `lo` but not the head, or the
        /// head but not the tails. The 16-bit-key probe must return exactly
        /// what the full-head probe returned, in the same order.
        #[test]
        fn low_half_probe_equals_the_full_head_probe(
            r_max in 1usize..4,
            n in 1usize..80,
            draws in proptest::collection::vec(0u32..6, 1_024..1_025),
            tail_bits in proptest::collection::vec(any::<bool>(), 64..65),
        ) {
            let b_max = 2;
            let width = b_max * r_max;
            let lanes_of = |k: usize| -> Vec<u32> {
                (0..width)
                    .map(|l| {
                        let d = draws[(k * 13 + l * 7) % draws.len()];
                        if l % r_max == 0 {
                            ((d % 2) << 16) | (d % 3)
                        } else {
                            (d % 3) | (u32::from(tail_bits[(k + l) % tail_bits.len()]) << 16)
                        }
                    })
                    .collect()
            };
            let model: Vec<(DomainId, Vec<u32>)> = (0..n).map(|k| (k as u32, lanes_of(k))).collect();
            let forest = forest_of_dims(&model, b_max, r_max, width);
            for q in 0..8 {
                let query = lanes_of(n + q);
                let query = if q % 2 == 0 { model[q % n].1.clone() } else { query };
                for r in 1..=r_max {
                    let mut got = Vec::new();
                    let trees = forest.trees.iter().map(PrefixTree::columns);
                    probe_trees(forest.rows(), trees, &query, r, &mut |id, _| got.push(id));
                    let want = (0..b_max).flat_map(|t| {
                        full_head_probe(&forest, t, &query[t * r_max..t * r_max + r])
                    });
                    prop_assert_eq!(got, want.collect::<Vec<_>>());
                }
            }
        }
    }

    /// `check_tree` as it read every entry's whole key from its row, in
    /// tree order: the reference the row-order check must agree with.
    fn check_tree_by_rows(
        rows: Rows<'_>,
        (lo, row): (&[u16], &[u16]),
        t: usize,
        seen: &mut [u32],
    ) -> Result<(), &'static str> {
        if lo.len() != row.len() {
            return Err("tree columns differ in length");
        }
        let depth = rows.layout.r_max - 1;
        for (block, lo, row) in blocks(lo, row) {
            let mut prev: Option<(u32, &[u16])> = None;
            for (&low, &i) in lo.iter().zip(row) {
                let i = i.row_in(block, row.len());
                let (Some(head), Some(tails), Some(mark)) = (
                    i.and_then(|i| rows.head(i, t)),
                    i.and_then(|i| rows.tail_key(i, t, depth)),
                    i.and_then(|i| seen.get_mut(i)),
                ) else {
                    return Err("tree row index out of range");
                };
                if head_lo(head) != low {
                    return Err("tree head bits disagree with its row");
                }
                let key = (tree_order(head), tails);
                if prev.is_some_and(|p| p > key) {
                    return Err("tree keys out of order");
                }
                if std::mem::replace(mark, 1) != 0 {
                    return Err("tree is not a permutation of its partition's rows");
                }
                prev = Some(key);
            }
        }
        Ok(())
    }

    proptest! {
        /// Colliding rows, so heads tie and tails decide, and a tree's
        /// columns damaged at up to three places — an entry moved, a `lo`
        /// or a `row` overwritten: the check that reads heads in row order
        /// and tails only on a tie, with the heads gathered or read from
        /// the rows, returns what the check that read each entry's whole
        /// key returned — the same first error, or none.
        #[test]
        fn a_tree_check_by_gathered_heads_agrees_with_one_by_rows(
            n in 1usize..90,
            t in 0usize..2,
            kinds in proptest::collection::vec(0u8..4, 0..4),
            ats in proptest::collection::vec(0usize..100, 3..4),
            values in proptest::collection::vec(0u16..100, 3..4),
        ) {
            let model: Vec<(DomainId, Vec<u32>)> =
                (0..n as u32).map(|k| (k, colliding_lanes(u64::from(k) * 7))).collect();
            let forest = forest_of(&model);
            let rows = forest.rows();
            let (lo, row) = forest.trees[t].columns();
            let (mut lo, mut row) = (lo.to_vec(), row.to_vec());
            for ((&kind, &at), &value) in kinds.iter().zip(&ats).zip(&values) {
                let (at, to) = (at % n, usize::from(value) % n);
                match kind {
                    0 => {
                        lo.swap(at, to);
                        row.swap(at, to);
                    }
                    1 => row.swap(at, to),
                    2 => lo[at] = value,
                    _ => row[at] = value,
                }
            }
            let want = check_tree_by_rows(rows, (&lo, &row), t, &mut vec![0; n]);
            let by_row = |i| rows.head(i, t);
            let got = check_tree(rows, (&lo, &row), t, by_row, &mut vec![0; n], (0, 1));
            prop_assert_eq!(got, want);
            let mut heads = Vec::new();
            rows.heads_into(t, &mut heads);
            let gathered = |i: usize| heads.get(i).copied();
            let got = check_tree(rows, (&lo, &row), t, gathered, &mut vec![0; n], (0, 1));
            prop_assert_eq!(got, want);
        }
    }

    fn forest_of_dims(
        model: &[(DomainId, Vec<u32>)],
        b_max: usize,
        r_max: usize,
        width: usize,
    ) -> LshForest {
        let rows: Vec<(DomainId, &[u32])> = model.iter().map(|(id, l)| (*id, &l[..])).collect();
        LshForest::from_rows(b_max, r_max, width, &rows)
    }
}
