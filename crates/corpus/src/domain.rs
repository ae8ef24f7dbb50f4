//! The [`Domain`] type: a set of distinct values from an unspecified
//! universe (§2 of the paper).
//!
//! Values are stored as their 64-bit universe hashes, sorted and deduplicated,
//! which makes exact intersections O(n) merges and keeps memory at 8 bytes
//! per value regardless of the original representation (string, number,
//! blob). The raw values are *not* retained — neither the search index nor
//! the exact ground-truth engine needs them, and at corpus scale they would
//! dominate memory.

use lshe_minhash::hash::{hash_bytes, DEFAULT_VALUE_SEED};
use lshe_minhash::{MinHasher, Signature};

/// A domain: a set of distinct values, held as sorted 64-bit universe hashes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Domain {
    /// Sorted, deduplicated universe hashes.
    values: Vec<u64>,
}

impl Domain {
    /// Creates a domain from pre-hashed universe values (deduplicates and
    /// sorts internally).
    #[must_use]
    pub fn from_hashes(mut values: Vec<u64>) -> Self {
        values.sort_unstable();
        values.dedup();
        Self { values }
    }

    /// Creates a domain by hashing raw byte values with the workspace value
    /// seed.
    #[must_use]
    pub fn from_bytes_values<I, B>(values: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        Self::from_hashes(
            values
                .into_iter()
                .map(|v| Self::hash_value(v.as_ref()))
                .collect(),
        )
    }

    /// The universe hash of one raw value: what
    /// [`from_bytes_values`](Self::from_bytes_values) stores for it, so
    /// [`from_hashes`](Self::from_hashes) over these makes the same domain.
    #[must_use]
    pub fn hash_value(value: &[u8]) -> u64 {
        hash_bytes(DEFAULT_VALUE_SEED, value)
    }

    /// Creates a domain by hashing string values.
    #[must_use]
    pub fn from_strs<'a, I>(values: I) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        Self::from_bytes_values(values.into_iter().map(str::as_bytes))
    }

    /// Number of distinct values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the domain has no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The sorted universe hashes.
    #[must_use]
    pub fn hashes(&self) -> &[u64] {
        &self.values
    }

    /// Membership test for a universe hash (binary search).
    #[must_use]
    #[cfg(test)]
    pub fn contains_hash(&self, h: u64) -> bool {
        self.values.binary_search(&h).is_ok()
    }

    /// Exact intersection size with another domain (sorted-merge, O(n + m)).
    #[must_use]
    pub fn intersection_size(&self, other: &Self) -> usize {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        let (a, b) = (&self.values, &other.values);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Exact containment `t(self, other) = |self ∩ other| / |self|` (Def. 1,
    /// with `self` playing the query role `Q`).
    ///
    /// Returns 0 for an empty query domain.
    #[must_use]
    pub fn containment_in(&self, other: &Self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.intersection_size(other) as f64 / self.values.len() as f64
    }

    /// Exact Jaccard similarity `|A ∩ B| / |A ∪ B|` (Eq. 3). Two empty
    /// domains have similarity 1.
    #[must_use]
    pub fn jaccard(&self, other: &Self) -> f64 {
        if self.values.is_empty() && other.values.is_empty() {
            return 1.0;
        }
        let i = self.intersection_size(other);
        let u = self.values.len() + other.values.len() - i;
        i as f64 / u as f64
    }

    /// MinHash signature of this domain under `hasher`.
    #[must_use]
    pub fn signature(&self, hasher: &MinHasher) -> Signature {
        hasher.signature(self.values.iter().copied())
    }

    /// Returns the sub-domain of the first `n` values (by hash order) — a
    /// cheap deterministic way to build query subsets in tests and
    /// generators.
    ///
    /// # Panics
    /// Panics if `n` exceeds the domain size.
    #[must_use]
    pub fn prefix(&self, n: usize) -> Self {
        assert!(n <= self.values.len(), "prefix longer than domain");
        Self {
            values: self.values[..n].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_order_invariance() {
        let a = Domain::from_strs(["x", "y", "x", "z"]);
        let b = Domain::from_strs(["z", "y", "x"]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn paper_running_example() {
        // §2: Q = {Ontario, Toronto}; Provinces and Locations as given.
        let q = Domain::from_strs(["Ontario", "Toronto"]);
        let provinces = Domain::from_strs(["Alberta", "Ontario", "Manitoba"]);
        let locations = Domain::from_strs([
            "Illinois",
            "Chicago",
            "New York City",
            "New York",
            "Nova Scotia",
            "Halifax",
            "California",
            "San Francisco",
            "Seattle",
            "Washington",
            "Ontario",
            "Toronto",
        ]);
        assert!((q.jaccard(&provinces) - 0.25).abs() < 1e-12);
        assert!((q.containment_in(&provinces) - 0.5).abs() < 1e-12);
        assert!((q.containment_in(&locations) - 1.0).abs() < 1e-12);
        // Jaccard prefers the small domain, containment the large one —
        // the paper's motivating asymmetry.
        assert!(q.jaccard(&provinces) > q.jaccard(&locations));
        assert!(q.containment_in(&locations) > q.containment_in(&provinces));
    }

    #[test]
    fn intersection_size_cases() {
        let a = Domain::from_hashes(vec![1, 2, 3, 4]);
        let b = Domain::from_hashes(vec![3, 4, 5]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.intersection_size(&a), 4);
        assert_eq!(a.intersection_size(&Domain::default()), 0);
    }

    #[test]
    fn containment_empty_query_is_zero() {
        let e = Domain::default();
        let x = Domain::from_hashes(vec![1, 2]);
        assert_eq!(e.containment_in(&x), 0.0);
    }

    #[test]
    fn jaccard_of_empties_is_one() {
        assert_eq!(Domain::default().jaccard(&Domain::default()), 1.0);
    }

    #[test]
    fn contains_hash_matches_membership() {
        let d = Domain::from_hashes(vec![10, 20, 30]);
        assert!(d.contains_hash(20));
        assert!(!d.contains_hash(25));
    }

    #[test]
    fn signature_matches_direct_hashing() {
        let h = MinHasher::new(64);
        let d = Domain::from_strs(["a", "b", "c"]);
        assert_eq!(d.signature(&h), h.signature(d.hashes().iter().copied()));
    }

    #[test]
    fn prefix_is_subset() {
        let d = Domain::from_hashes((0..100).collect());
        let p = d.prefix(30);
        assert_eq!(p.len(), 30);
        assert!((p.containment_in(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "prefix longer")]
    fn prefix_overflow_panics() {
        let d = Domain::from_hashes(vec![1]);
        let _ = d.prefix(2);
    }
}
