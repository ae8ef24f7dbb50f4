//! Union/rank merge of per-shard query answers.
//!
//! Each shard returns its hits already ranked the way `LshEnsemble`
//! ranks them: containment estimate descending, id ascending among
//! ties. Every shard applies the same estimator to the same signatures,
//! so the global order is exactly the merge of the per-shard orders,
//! and the coordinator never recomputes an estimate:
//! it concatenates the shard hit objects verbatim (estimates included,
//! byte for byte — a parsed JSON number keeps the text the shard wrote)
//! and re-sorts by the same key.
//!
//! A duplicate id across shards means two processes claim the same
//! domain (a mis-placed split, or one shard file served twice) and the
//! cluster's answers would silently diverge from the split files' own, so
//! the merge refuses rather than guessing.

use lshe_serve::json::Json;
use std::collections::HashSet;

/// Merges per-shard ranked hit lists into the global ranked order.
///
/// Input: one `Vec<Json>` of hit objects (`{"id", "table", "column",
/// "size", "estimate", ...}`) per shard, each in that shard's ranked
/// order. Output: all hits in global order — estimate descending, id
/// ascending among equal estimates, hits without a numeric estimate
/// last.
///
/// # Errors
/// A human-readable message when a hit lacks a valid `id`, or when two
/// shards answer with the same id (overlapping shard contents — a
/// misconfigured cluster).
pub fn merge_hits(per_shard: Vec<Vec<Json>>) -> Result<Vec<Json>, String> {
    let mut seen: HashSet<u32> = HashSet::new();
    let mut keyed: Vec<(f64, u32, Json)> = Vec::with_capacity(per_shard.iter().map(Vec::len).sum());
    for (shard, hits) in per_shard.into_iter().enumerate() {
        for hit in hits {
            let id = hit
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| format!("shard {shard} returned a hit without a valid id"))?;
            if !seen.insert(id) {
                return Err(format!(
                    "shards returned overlapping answers (id {id} twice) — \
                     cluster shards must hold disjoint domains; was the same \
                     shard file served more than once?"
                ));
            }
            let estimate = hit
                .get("estimate")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NEG_INFINITY);
            keyed.push((estimate, id, hit));
        }
    }
    keyed.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    Ok(keyed.into_iter().map(|(_, _, hit)| hit).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u32, estimate: Option<f64>) -> Json {
        let mut fields = vec![
            ("id", Json::uint(u64::from(id))),
            ("table", Json::str(format!("t{id}"))),
            ("column", Json::str("c")),
            ("size", Json::uint(10)),
        ];
        fields.push(("estimate", estimate.map_or(Json::Null, Json::num)));
        Json::obj(fields)
    }

    fn ids(hits: &[Json]) -> Vec<u64> {
        hits.iter()
            .map(|h| h.get("id").and_then(Json::as_u64).unwrap())
            .collect()
    }

    #[test]
    fn merges_into_global_ranked_order() {
        // Shard orders are each (estimate desc, id asc); the merge must
        // interleave them into one global such order.
        let s0 = vec![hit(0, Some(0.9)), hit(4, Some(0.5)), hit(2, Some(0.5))];
        // (4 before 2 would be wrong within a shard, but the merge
        // re-sorts totally, so even that is repaired — keep shard input
        // honest except for this pair to prove the total sort.)
        let s1 = vec![hit(1, Some(0.7)), hit(3, Some(0.5))];
        let merged = merge_hits(vec![s0, s1]).expect("disjoint");
        assert_eq!(ids(&merged), vec![0, 1, 2, 3, 4]);
        // ties at 0.5 break id-ascending: 2, 3, 4.
    }

    #[test]
    fn hits_survive_verbatim() {
        let original = hit(7, Some(0.625));
        let merged = merge_hits(vec![vec![original.clone()], Vec::new()]).expect("disjoint");
        assert_eq!(merged, vec![original], "merge must not rewrite hit objects");
    }

    #[test]
    fn missing_estimate_ranks_last() {
        let merged =
            merge_hits(vec![vec![hit(5, None)], vec![hit(6, Some(0.1))]]).expect("disjoint");
        assert_eq!(ids(&merged), vec![6, 5]);
    }

    #[test]
    fn overlapping_shards_are_refused() {
        let err = merge_hits(vec![vec![hit(3, Some(0.8))], vec![hit(3, Some(0.8))]])
            .expect_err("same id from two shards");
        assert!(err.contains("id 3"), "error names the id: {err}");
        assert!(
            err.contains("disjoint"),
            "error explains the invariant: {err}"
        );
    }

    #[test]
    fn hit_without_id_is_refused() {
        let bogus = Json::obj(vec![("estimate", Json::num(0.5))]);
        let err = merge_hits(vec![vec![bogus]]).expect_err("no id");
        assert!(err.contains("shard 0"), "error names the shard: {err}");
    }

    #[test]
    fn empty_inputs_merge_to_empty() {
        assert_eq!(merge_hits(Vec::new()).unwrap(), Vec::<Json>::new());
        assert_eq!(
            merge_hits(vec![Vec::new(), Vec::new()]).unwrap(),
            Vec::<Json>::new()
        );
    }
}
