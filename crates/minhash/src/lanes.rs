//! Process-wide worker-lane budget for batched fan-out.
//!
//! Batched operations across the workspace — bulk signature
//! construction here, the batched query sweeps in `lshe-core`, and
//! whatever future bulk paths appear — all amortize work by spawning
//! scoped worker lanes. Individually each call bounds itself by the
//! host parallelism, but *concurrent* callers (many server batches in
//! flight at once) would multiply: `callers × cores` transient threads.
//!
//! This module is the shared governor: one process-wide pool of
//! `cores − 1` *extra* lanes. A batched call [`acquire`]s up to what it
//! wants, runs with `1 + taken` lanes (the calling thread is always a
//! lane of its own), and returns the permits when its guard drops.
//! Under contention callers degrade gracefully toward inline execution
//! instead of oversubscribing the host — the acquire never blocks.
//!
//! It lives in `lshe-minhash` because this is the substrate crate every
//! batched layer already depends on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The host parallelism, read once a process (4 where it cannot be read).
/// `std::thread::available_parallelism` re-reads the cgroup quota on every
/// call, microseconds each time, and every uncached query asks for lanes.
#[must_use]
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get))
}

/// The pool of extra lanes, initialised to `cores − 1` on first use.
fn pool() -> &'static AtomicUsize {
    static POOL: OnceLock<AtomicUsize> = OnceLock::new();
    POOL.get_or_init(|| AtomicUsize::new(cores().saturating_sub(1)))
}

/// Holds `taken` extra lanes; returned to the pool on drop.
#[derive(Debug)]
pub struct LaneGuard {
    taken: usize,
}

impl LaneGuard {
    /// Total lanes the holder may run: the calling thread plus the
    /// extras taken from the pool. Always ≥ 1.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.taken + 1
    }
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if self.taken > 0 {
            pool().fetch_add(self.taken, Ordering::AcqRel);
        }
    }
}

/// Minimum items a lane must receive before another lane is worth a
/// spawn: below this the scoped-thread setup costs more than the
/// parallelism buys, and small batches issued from already-parallel
/// callers stay inline instead of oversubscribing.
pub const MIN_ITEMS_PER_LANE: usize = 8;

/// The *ideal* lane count for a batch of `items`: bounded by the host
/// parallelism, scaled by batch size (≥ [`MIN_ITEMS_PER_LANE`] items per
/// lane), never zero. [`run_chunked`] additionally subjects the extras
/// to the process-wide budget.
#[must_use]
pub fn ideal_lanes(items: usize) -> usize {
    cores().min(items / MIN_ITEMS_PER_LANE).max(1)
}

/// Runs `run` over contiguous chunks of `items` across budget-governed
/// worker lanes — spawned once per batch, not once per item — and
/// concatenates the per-chunk outputs in item order. `run` must be a pure
/// function of its chunk, so the chunking can never change results.
pub fn run_chunked<I: Sync, O: Send>(items: &[I], run: impl Fn(&[I]) -> Vec<O> + Sync) -> Vec<O> {
    let chunks = weighted_chunks(items, |_| 0);
    if let [chunk] = chunks[..] {
        return run(chunk);
    }
    let outs = run_each(&chunks, |chunk| run(chunk));
    outs.into_iter().flatten().collect()
}

/// [`run_chunked`] for items of unequal cost that write their outputs in
/// place: item `i` owns `out[i·stride..][..stride]`, and each lane is handed
/// a run of items with the outputs they own. An item costs one unit plus
/// its `weight`, and the runs split the summed cost evenly, not the item
/// count, so one heavy run of items does not leave the other lanes idle.
///
/// # Panics
/// Panics unless `out` holds `stride` outputs an item.
pub(crate) fn run_weighted_into<I: Sync, O: Send>(
    items: &[I],
    weight: impl Fn(&I) -> usize,
    out: &mut [O],
    stride: usize,
    run: impl Fn(&[I], &mut [O]) + Sync,
) {
    assert_eq!(out.len(), items.len() * stride, "`stride` outputs an item");
    let mut rest = out;
    let chunks: Vec<_> = weighted_chunks(items, weight)
        .into_iter()
        .map(|chunk| {
            let (owned, after) = std::mem::take(&mut rest).split_at_mut(chunk.len() * stride);
            rest = after;
            // Locked once, by the one lane that takes the chunk.
            (chunk, Mutex::new(owned))
        })
        .collect();
    if let [(chunk, owned)] = &chunks[..] {
        return run(chunk, &mut owned.lock().expect("no lane panicked"));
    }
    run_each(&chunks, |(chunk, owned)| {
        run(chunk, &mut owned.lock().expect("no lane panicked"));
    });
}

/// `items` cut into at most [`ideal_lanes`] contiguous chunks of about
/// equal cost, an item costing one unit plus its `weight`: a chunk ends at
/// the first item where it holds its share of what the lanes after it
/// have not been given yet.
fn weighted_chunks<I>(items: &[I], weight: impl Fn(&I) -> usize) -> Vec<&[I]> {
    let lanes = ideal_lanes(items.len());
    if lanes <= 1 {
        return vec![items];
    }
    let mut left: usize = items.iter().map(|item| 1 + weight(item)).sum();
    let mut chunks = Vec::with_capacity(lanes);
    let (mut start, mut sum) = (0, 0);
    for (i, item) in items.iter().enumerate() {
        sum += 1 + weight(item);
        // With one lane left the chunk takes all that is left, so it ends
        // at the last item: at most `lanes` chunks, and every item in one.
        if sum * (lanes - chunks.len()) >= left {
            chunks.push(&items[start..=i]);
            (start, left, sum) = (i + 1, left - sum, 0);
        }
    }
    chunks
}

/// Runs `run` on every item across budget-governed lanes and returns the
/// outputs in item order. Each lane takes the next item from a shared
/// counter when it is free, so few, heavy, unequal items (a partition's
/// forest) never leave lanes idle behind a fixed split. The calling thread
/// IS the first lane, so a batch uses exactly the lanes its [`LaneGuard`]
/// accounts for.
pub fn run_each<I: Sync, O: Send>(items: &[I], run: impl Fn(&I) -> O + Sync) -> Vec<O> {
    let guard = acquire(items.len().saturating_sub(1));
    let next = AtomicUsize::new(0);
    let lane = || -> Vec<(usize, O)> {
        std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
            .map_while(|i| Some((i, run(items.get(i)?))))
            .collect()
    };
    let mut out = std::thread::scope(|scope| {
        let extra: Vec<_> = (1..guard.lanes()).map(|_| scope.spawn(lane)).collect();
        let mut out = lane();
        for handle in extra {
            out.extend(handle.join().expect("batch lane panicked"));
        }
        out
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, o)| o).collect()
}

/// Takes up to `want_extra` additional lanes from the process budget.
/// Never blocks: under contention the guard may hold fewer extras (down
/// to zero — run inline). Drop the guard to return them.
#[must_use]
pub fn acquire(want_extra: usize) -> LaneGuard {
    let pool = pool();
    let mut available = pool.load(Ordering::Acquire);
    loop {
        let take = want_extra.min(available);
        if take == 0 {
            return LaneGuard { taken: 0 };
        }
        match pool.compare_exchange_weak(
            available,
            available - take,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return LaneGuard { taken: take },
            Err(now) => available = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_respects_budget_invariants() {
        // Other tests in this binary may hold lanes concurrently, so
        // assert the invariants rather than exact counts: never more
        // than the host budget, never fewer than the inline lane, and
        // permits flow back (a drop-then-reacquire can never shrink the
        // pool).
        let cores = cores();
        let first = acquire(usize::MAX);
        assert!(first.lanes() >= 1 && first.lanes() <= cores);
        let taken = first.lanes();
        drop(first);
        let second = acquire(taken.saturating_sub(1));
        assert!(second.lanes() >= 1 && second.lanes() <= taken.max(1));
    }

    #[test]
    fn zero_want_is_inline() {
        assert_eq!(acquire(0).lanes(), 1);
    }

    #[test]
    fn ideal_lanes_scale_with_batch_size() {
        assert_eq!(ideal_lanes(0), 1);
        assert_eq!(ideal_lanes(1), 1);
        assert_eq!(
            ideal_lanes(MIN_ITEMS_PER_LANE - 1),
            1,
            "tiny batches stay inline"
        );
        assert!(ideal_lanes(4 * MIN_ITEMS_PER_LANE) <= 4);
        assert_eq!(ideal_lanes(1_000_000), cores());
    }

    #[test]
    fn run_chunked_preserves_item_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = run_chunked(&items, |chunk| chunk.iter().map(|x| x * 2).collect());
        assert_eq!(doubled.len(), 1000);
        for (i, v) in doubled.into_iter().enumerate() {
            assert_eq!(v, 2 * i as u64);
        }
    }

    #[test]
    fn run_each_keeps_item_order_whatever_lane_takes_what() {
        // Unequal items: the early ones are slow, so lanes finish out of order.
        let items: Vec<u64> = (0..40).collect();
        let squares = run_each(&items, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(50 * (40 - x)));
            x * x
        });
        assert_eq!(squares, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(run_each(&[3u64], |&x| x + 1), vec![4]);
        assert_eq!(run_each(&[], |x: &u64| *x), Vec::<u64>::new());
    }

    #[test]
    fn run_weighted_splits_by_cost_and_keeps_order() {
        // One heavy item among light ones, each item writing its index and
        // its double into the two outputs it owns.
        const HEAVY: usize = 50;
        let items: Vec<usize> = (0..400).collect();
        let weight = |&i: &usize| if i == HEAVY { 10_000 } else { 1 };
        let chunks = std::sync::Mutex::new(Vec::new());
        let mut out = vec![0; 2 * items.len()];
        run_weighted_into(&items, weight, &mut out, 2, |chunk, out| {
            let cost: usize = chunk.iter().map(|i| 1 + weight(i)).sum();
            let last = *chunk.last().expect("no empty chunk");
            chunks.lock().expect("no lane panicked").push((last, cost));
            for (&i, pair) in chunk.iter().zip(out.chunks_exact_mut(2)) {
                pair.copy_from_slice(&[i, 2 * i]);
            }
        });
        let want: Vec<usize> = items.iter().flat_map(|&i| [i, 2 * i]).collect();
        assert_eq!(out, want);
        let mut chunks = chunks.into_inner().expect("no lane panicked");
        chunks.sort_unstable();
        assert!(chunks.len() <= ideal_lanes(items.len()));
        if chunks.len() > 1 {
            // The heavy item closes its chunk, and the light ones after it
            // share the other lanes evenly: within one item's cost.
            let heavy = chunks.iter().position(|&(last, _)| last == HEAVY);
            let rest = &chunks[heavy.expect("a chunk ends at the heavy item") + 1..];
            let costs = rest.iter().map(|&(_, cost)| cost);
            let (min, max) = (costs.clone().min(), costs.max());
            assert!(max.unwrap_or(0) - min.unwrap_or(0) <= 2, "{chunks:?}");
        }
        // No items: one empty run, no outputs.
        run_weighted_into(&[] as &[usize], weight, &mut [0u8; 0], 3, |chunk, out| {
            assert!(chunk.is_empty() && out.is_empty());
        });
    }

    #[test]
    fn run_chunked_handles_tiny_batches() {
        assert_eq!(run_chunked(&[7u32], |c| c.to_vec()), vec![7]);
        let empty: Vec<u32> = Vec::new();
        assert_eq!(run_chunked(&empty, |c| c.to_vec()), Vec::<u32>::new());
    }
}
