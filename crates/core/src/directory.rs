//! The base's id → row directory: every physical row of the base
//! partitions, sorted by id, beside the global row it lives at (its
//! partition's first row plus its row there). Two columns — vectors in an
//! index that was built, views into the file in one that was loaded — so a
//! loaded base keeps no per-domain map on the heap, and a lookup hashes
//! nothing.

use crate::ensemble::EnsemblePartition;
use lshe_lsh::DomainId;
use lshe_minhash::codec::{CodecError, Column, Decoder, Encoder};
use std::io::Write;
use std::sync::Arc;

/// The position of `id` in `ids`, which strictly ascend, or `None`.
///
/// Strictly ascending ids satisfy `ids[i] ≥ ids[0] + i`, so `id` lies no
/// further in than `id − ids[0]`: the search looks there first — on a dense
/// run of ids, the one probe it needs — then gallops back towards the
/// start in doubling steps and binary-searches the last step. Holes cost
/// O(log holes), not O(log len).
#[must_use]
pub fn position_of(ids: &[DomainId], id: DomainId) -> Option<usize> {
    let first = *ids.first()?;
    let mut hi = usize::try_from(id.checked_sub(first)?)
        .ok()?
        .min(ids.len() - 1);
    if ids[hi] <= id {
        // Past the end of a run shorter than `id − ids[0]`, or found.
        return (ids[hi] == id).then_some(hi);
    }
    let mut step = 1;
    loop {
        // `ids[0] ≤ id`, so this stops at the start at the latest.
        let lo = hi.saturating_sub(step);
        if ids[lo] <= id {
            return ids[lo..hi].binary_search(&id).ok().map(|i| lo + i);
        }
        (hi, step) = (lo, step * 2);
    }
}

/// id → (partition, row) of every physical base row — tombstoned ones too,
/// which the id map's overlay hides until a fold erases them.
#[derive(Debug, Clone, Default)]
pub(crate) struct Directory {
    /// Every base row's id, strictly ascending.
    ids: Column<DomainId>,
    /// The global row of `ids[i]`.
    at: Column<u32>,
    /// The first global row of each base partition.
    starts: Vec<u32>,
}

/// The first global row of each partition, or `None` past `u32::MAX` rows.
fn starts(partitions: &[Arc<EnsemblePartition>]) -> Option<Vec<u32>> {
    let mut next = 0u32;
    partitions
        .iter()
        .map(|p| {
            let start = next;
            next = next.checked_add(u32::try_from(p.forest.len()).ok()?)?;
            Some(start)
        })
        .collect()
}

/// The one error of a base too large for `u32` global rows.
const TOO_MANY_ROWS: &str = "more base rows than a u32 counts";

impl Directory {
    /// The directory of `partitions`, built on the heap.
    ///
    /// # Errors
    /// An id that names two rows, or more rows than `u32` global rows count.
    pub(crate) fn over(partitions: &[Arc<EnsemblePartition>]) -> Result<Self, &'static str> {
        let starts = starts(partitions).ok_or(TOO_MANY_ROWS)?;
        let total = partitions.iter().map(|p| p.forest.len()).sum();
        let mut rows: Vec<(DomainId, u32)> = Vec::with_capacity(total);
        for (part, &start) in partitions.iter().zip(&starts) {
            rows.extend(part.forest.ids().iter().copied().zip(start..));
        }
        rows.sort_unstable();
        if rows.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err("duplicate domain id");
        }
        let (ids, at): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        Ok(Self {
            ids: ids.into(),
            at: at.into(),
            starts,
        })
    }

    /// Writes `rows:u64`, a pad to 4 bytes, then the `ids` and `at`
    /// columns.
    pub(crate) fn encode_into<W: Write>(&self, enc: &mut Encoder<W>) {
        enc.put_u64(self.ids.len() as u64);
        enc.pad_to(4);
        enc.put_u32s(&self.ids);
        enc.put_u32s(&self.at);
    }

    /// Reads what [`encode_into`](Self::encode_into) wrote — views, over a
    /// shared decoder — unchecked until [`check`](Self::check).
    ///
    /// # Errors
    /// [`CodecError`] on truncation, a count the input cannot hold, or a
    /// pad byte that is not zero.
    pub(crate) fn read(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let rows = usize::try_from(dec.get_u64("directory rows")?)
            .ok()
            .filter(|&rows| rows.checked_mul(8).is_some_and(|b| b <= dec.remaining()))
            .ok_or(CodecError::Corrupt("announced length exceeds input"))?;
        dec.get_pad("directory pad")?;
        Ok(Self {
            ids: dec.get_column(rows, "directory ids")?,
            at: dec.get_column(rows, "directory rows")?,
            starts: Vec::new(),
        })
    }

    /// Ties a directory that was read to the `partitions` it describes:
    /// its ids strictly ascend, and each names the global row of a row
    /// that holds that id. There are as many entries as rows, so — the
    /// ids being distinct — every physical row is named exactly once, and
    /// no id lives in two rows.
    ///
    /// # Errors
    /// What is wrong, as a message.
    pub(crate) fn check(
        mut self,
        partitions: &[Arc<EnsemblePartition>],
    ) -> Result<Self, &'static str> {
        self.starts = starts(partitions).ok_or(TOO_MANY_ROWS)?;
        let total: usize = partitions.iter().map(|p| p.forest.len()).sum();
        if self.ids.len() != total {
            return Err("directory does not name every base row once");
        }
        if !self.ids.windows(2).all(|w| w[0] < w[1]) {
            return Err("directory ids do not ascend");
        }
        for (&id, &global) in self.ids.iter().zip(self.at.iter()) {
            let (p, row) = self.locate(global).ok_or("directory row out of range")?;
            if partitions[p].forest.ids()[row] != id {
                return Err("directory names a row of another id");
            }
        }
        Ok(self)
    }

    /// The partition and row of a global row, if it is one.
    #[inline]
    fn locate(&self, global: u32) -> Option<(usize, usize)> {
        if global as usize >= self.ids.len() {
            return None;
        }
        let p = self.starts.partition_point(|&start| start <= global) - 1;
        Some((p, (global - self.starts[p]) as usize))
    }

    /// The (partition, row) of `id`'s base row, if it has one.
    #[inline]
    pub(crate) fn get(&self, id: DomainId) -> Option<(u32, u32)> {
        let (p, row) = self.locate(self.at[position_of(&self.ids, id)?])?;
        Some((p as u32, row as u32))
    }

    /// Every base row as `(id, (partition, row))`, in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DomainId, (u32, u32))> + '_ {
        self.ids.iter().zip(self.at.iter()).map(|(&id, &global)| {
            let (p, row) = self.locate(global).expect("a checked directory");
            (id, (p as u32, row as u32))
        })
    }

    /// Number of base rows named.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Heap bytes held: both columns unless they are views, and the
    /// partition starts.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.ids.heap_bytes() + self.at.heap_bytes() + std::mem::size_of_val(&self.starts[..])
    }

    /// True if both columns are views lying inside `bytes`.
    pub(crate) fn borrows_from(&self, bytes: &[u8]) -> bool {
        self.ids.is_view_into(bytes) && self.at.is_view_into(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `position_of` against a linear scan, for every id of `ids`, its
    /// neighbours, the extremes and the first 200.
    fn agrees(ids: &[u32]) {
        let near = ids
            .iter()
            .flat_map(|&id| [id.wrapping_sub(1), id, id.wrapping_add(1)]);
        for id in near.chain([u32::MAX]).chain(0..200) {
            let want = ids.iter().position(|&x| x == id);
            assert_eq!(position_of(ids, id), want, "{id} in {ids:?}");
        }
    }

    #[test]
    fn position_of_finds_every_id_dense_or_with_holes() {
        agrees(&[]);
        agrees(&[0]);
        agrees(&[7]);
        agrees(&(0..100).collect::<Vec<_>>());
        agrees(&(5..40).collect::<Vec<_>>());
        // Holes near the start, near the end, everywhere, and one so wide
        // the gallop runs back to the first id.
        agrees(&[0, 1, 5, 6, 7, 8, 9, 10, 11]);
        agrees(&[0, 1, 2, 3, 4, 5, 6, 90]);
        agrees(&(0..60).map(|k| k * 3 + k % 2).collect::<Vec<_>>());
        agrees(&[2, 1_000, 1_001, 1_002]);
        agrees(&[0, u32::MAX - 1, u32::MAX]);
    }
}
