//! Maintenance planning: [`Leveled`] turns the segment/tombstone layout
//! into typed merge tasks, scheduled off the commit path.
//!
//! Commits are O(batch) because they seal each batch into an immutable
//! segment; deciding *when* (and *what*) to fold back keeps the stack
//! short. Segments are assigned to size-exponential levels (level `L`
//! holds segments of up to `level0_entries · fanout^L` entries); when a
//! level holds `fanout` segments they are folded into one segment of the
//! next level, so each entry is rewritten O(log corpus) times over its
//! lifetime. Past [`MAX_TOMBSTONE_RATIO`] the plan is one full
//! compaction, the only way dead base rows are erased.
//!
//! The serving layer's maintenance thread observes the [`SegmentLayout`],
//! plans with [`Leveled::plan`], executes each [`MergeTask`] via
//! [`LshEnsemble::apply_merge`](crate::LshEnsemble::apply_merge), and
//! re-plans until quiescent.

/// Hard ceiling on modelled levels — `level0_entries · fanout^32`
/// overflows any real corpus long before this.
const MAX_LEVELS: usize = 32;

/// Default leveled fanout: segments per level before the level overflows
/// and is folded into the next.
pub const DEFAULT_FANOUT: usize = 4;

/// Default level-0 capacity in entries: segments at most this large sit
/// in level 0. Sized to a typical commit batch so fresh seals start at
/// the bottom of the hierarchy.
pub const DEFAULT_LEVEL0_ENTRIES: usize = 128;

/// Plan a full fold once tombstones exceed this fraction of the live
/// corpus (dead rows dilute every candidate set until erased).
pub const MAX_TOMBSTONE_RATIO: f64 = 0.25;

/// The observable tier state the planner plans against: per-segment entry
/// counts (physical, oldest segment first) plus the tombstone backlog
/// and live corpus size.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentLayout {
    /// Physical entry count of each sealed segment, oldest first.
    pub segments: Vec<usize>,
    /// Tombstoned ids awaiting erasure.
    pub tombstones: usize,
    /// Live corpus size.
    pub len: usize,
}

/// One unit of background maintenance work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeTask {
    /// Fold the listed segments (indices into the current stack, as
    /// observed in the [`SegmentLayout`]) into one new sealed segment —
    /// O(folded entries), the base partitions are untouched.
    Merge(Vec<usize>),
    /// Rebuild the base partitioning from the live rows, segments and
    /// tombstones included — the O(corpus) full compaction.
    Full,
}

/// Size-exponential leveling: level `L` holds segments of up to
/// `level0_entries · fanout^L` entries; when a level accumulates
/// `fanout` segments they fold into one segment of the next level. Write
/// amplification is O(log corpus) per entry. A tombstone backlog past
/// [`MAX_TOMBSTONE_RATIO`] forces a full fold — erasing dead base rows
/// needs one.
///
/// Every plan is a pure function of the observed [`SegmentLayout`], so
/// the caller re-plans after each executed task until the plan is empty.
#[derive(Debug, Clone, Copy)]
pub struct Leveled {
    /// Segments per level before the level overflows (≥ 2).
    pub fanout: usize,
    /// Level-0 segment capacity in entries.
    pub level0_entries: usize,
}

impl Default for Leveled {
    fn default() -> Self {
        Self {
            fanout: DEFAULT_FANOUT,
            level0_entries: DEFAULT_LEVEL0_ENTRIES,
        }
    }
}

impl Leveled {
    /// The level a segment of `entries` entries belongs to.
    #[must_use]
    pub fn level_of(&self, entries: usize) -> usize {
        let mut cap = self.level0_entries.max(1);
        let mut level = 0;
        while entries > cap && level < MAX_LEVELS {
            cap = cap.saturating_mul(self.fanout.max(2));
            level += 1;
        }
        level
    }

    /// Levels needed to hold a corpus of `len` entries.
    #[must_use]
    pub fn levels_for(&self, len: usize) -> usize {
        self.level_of(len) + 1
    }

    /// Per-level (segment count, entry total) occupancy, level 0 first.
    /// Trailing empty levels are trimmed.
    #[must_use]
    pub fn occupancy(&self, layout: &SegmentLayout) -> Vec<(usize, usize)> {
        let mut levels: Vec<(usize, usize)> = Vec::new();
        for &entries in &layout.segments {
            let level = self.level_of(entries);
            if levels.len() <= level {
                levels.resize(level + 1, (0, 0));
            }
            levels[level].0 += 1;
            levels[level].1 += entries;
        }
        levels
    }

    /// Plans the next round of tasks for `layout`. An empty plan means
    /// the layout is quiescent.
    #[must_use]
    pub fn plan(&self, layout: &SegmentLayout) -> Vec<MergeTask> {
        // Dead base rows can only be erased by a full fold; past the
        // tombstone threshold that wins over any level overflow.
        let tombstones = layout.tombstones as f64;
        if tombstones > MAX_TOMBSTONE_RATIO * layout.len.max(1) as f64 {
            return vec![MergeTask::Full];
        }
        // Lowest overflowing level folds first: overflow at level L
        // produces a level-(L+1) segment, which may cascade on re-plan.
        let fanout = self.fanout.max(2);
        let mut by_level: Vec<Vec<usize>> = Vec::new();
        for (idx, &entries) in layout.segments.iter().enumerate() {
            let level = self.level_of(entries);
            if by_level.len() <= level {
                by_level.resize(level + 1, Vec::new());
            }
            by_level[level].push(idx);
        }
        for members in &by_level {
            if members.len() >= fanout {
                return vec![MergeTask::Merge(members.clone())];
            }
        }
        Vec::new()
    }

    /// The steady-state segment-count bound plans converge to for a
    /// corpus of `len` *physical* entries — live domains plus tombstoned
    /// rows still resident in segments (the `/stats` `segment_bound`):
    /// once plans drain, the stack holds at most this many segments.
    #[must_use]
    pub fn segment_bound(&self, len: usize) -> usize {
        // At most fanout−1 segments rest per level once plans drain.
        (self.fanout.max(2) - 1) * self.levels_for(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(segments: &[usize], tombstones: usize, len: usize) -> SegmentLayout {
        SegmentLayout {
            segments: segments.to_vec(),
            tombstones,
            len,
        }
    }

    #[test]
    fn leveled_assigns_size_exponential_levels() {
        let policy = Leveled::default();
        assert_eq!(policy.level_of(1), 0);
        assert_eq!(policy.level_of(DEFAULT_LEVEL0_ENTRIES), 0);
        assert_eq!(policy.level_of(DEFAULT_LEVEL0_ENTRIES + 1), 1);
        assert_eq!(policy.level_of(DEFAULT_LEVEL0_ENTRIES * DEFAULT_FANOUT), 1);
        assert_eq!(
            policy.level_of(DEFAULT_LEVEL0_ENTRIES * DEFAULT_FANOUT + 1),
            2
        );
    }

    #[test]
    fn leveled_merges_the_lowest_overflowing_level() {
        let policy = Leveled::default();
        // Three small segments: under the fanout, quiescent.
        assert!(policy.plan(&layout(&[50, 60, 70], 0, 1000)).is_empty());
        // Four small segments overflow level 0; the big one stays put.
        let plan = policy.plan(&layout(&[5000, 50, 60, 70, 80], 0, 10_000));
        assert_eq!(plan, vec![MergeTask::Merge(vec![1, 2, 3, 4])]);
    }

    #[test]
    fn leveled_cascades_to_quiescence_under_the_bound() {
        let policy = Leveled::default();
        // Simulate folding by entry arithmetic: repeatedly apply the plan
        // until quiescent; the stack must land under the policy bound.
        let mut segs: Vec<usize> = vec![64; 40];
        let len: usize = segs.iter().sum();
        let mut folds = 0;
        loop {
            let plan = policy.plan(&layout(&segs, 0, len));
            let Some(task) = plan.first() else { break };
            match task {
                MergeTask::Merge(idxs) => {
                    let merged: usize = idxs.iter().map(|&i| segs[i]).sum();
                    let mut keep: Vec<usize> = segs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !idxs.contains(i))
                        .map(|(_, &e)| e)
                        .collect();
                    keep.push(merged);
                    segs = keep;
                }
                MergeTask::Full => panic!("no tombstones, full fold unexpected"),
            }
            folds += 1;
            assert!(folds < 100, "planner failed to converge");
        }
        assert!(segs.len() <= policy.segment_bound(len));
    }

    #[test]
    fn leveled_full_folds_on_tombstone_pressure() {
        let policy = Leveled::default();
        assert_eq!(
            policy.plan(&layout(&[10, 20], 500, 1000)),
            vec![MergeTask::Full]
        );
        // The trigger is strictly past the ratio: 25 of 100 stays put.
        assert!(policy.plan(&layout(&[10], 25, 100)).is_empty());
        assert_eq!(policy.plan(&layout(&[10], 26, 100)), vec![MergeTask::Full]);
    }
}
