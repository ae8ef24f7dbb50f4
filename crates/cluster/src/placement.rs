//! Deterministic domain→shard placement.
//!
//! The rule is `id % num_shards`, stated once here and used by every
//! layer that must agree on where a domain lives: `lshe split` when it
//! partitions a container into shard files, and the coordinator when it
//! routes `/insert` and `/remove`.

/// The shard that owns domain `id` in an `num_shards`-way cluster.
///
/// # Panics
/// Panics if `num_shards == 0`.
#[must_use]
pub fn shard_of(id: u32, num_shards: usize) -> usize {
    assert!(num_shards > 0, "a cluster has at least one shard");
    id as usize % num_shards
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_and_total() {
        for n in 1..6 {
            let mut counts = vec![0usize; n];
            for id in 0..1000u32 {
                let s = shard_of(id, n);
                assert!(s < n);
                assert_eq!(s, id as usize % n);
                counts[s] += 1;
            }
            // Dense ids spread evenly.
            assert!(counts.iter().all(|&c| c >= 1000 / n - 1));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = shard_of(0, 0);
    }
}
