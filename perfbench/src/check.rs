//! Output checks beyond the per-response ones in `load`: accuracy of the
//! served hits against exact ground truth, and durability of acknowledged
//! writes across a crash.

use crate::config::T_STAR;
use crate::corpus::indexed_domain;
use crate::http::Conn;
use crate::script::{query_request, ScriptInsert, ScriptQuery};
use lshe_corpus::ExactIndex;
use lshe_serve::json::Json;
use std::collections::BTreeSet;
use std::io;

/// Ids of a `/query` response's hits, after checking the whole body's
/// shape: `count` matches, every hit names an id, a size and an estimate.
fn served_ids(body: &[u8]) -> Option<BTreeSet<u32>> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let hits = json.get("hits")?.as_array()?;
    (json.get("count")?.as_u64()? == hits.len() as u64).then_some(())?;
    json.get("cached")?.as_bool()?;
    hits.iter()
        .map(|hit| {
            hit.get("size")?.as_u64()?;
            hit.get("estimate")?.as_f64()?;
            u32::try_from(hit.get("id")?.as_u64()?).ok()
        })
        .collect()
}

/// Sends `request` and returns the ids served, `None` if the response is
/// not a well-formed `200`.
fn ask(conn: &mut Conn, request: &[u8]) -> io::Result<Option<BTreeSet<u32>>> {
    let (_, status) = conn.exchange(request)?;
    Ok((status == 200).then(|| served_ids(conn.body())).flatten())
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean over the sample of |served ∩ truth| / |truth|.
    pub recall: f64,
    /// Mean over the sample of |served ∩ truth| / |served|.
    pub precision: f64,
    /// Sample responses that were not well-formed `200`s.
    pub malformed: usize,
}

fn score(served: &BTreeSet<u32>, truth: &BTreeSet<u32>) -> (f64, f64) {
    let both = served.intersection(truth).count() as f64;
    let ratio = |of: usize| if of == 0 { 1.0 } else { both / of as f64 };
    (ratio(truth.len()), ratio(served.len()))
}

/// `ExactIndex::search` at t* for every query of `sample`, without the
/// `removed` ids (which the exact index still holds).
pub fn truths(
    sample: &[&ScriptQuery],
    exact: &ExactIndex,
    removed: &BTreeSet<u32>,
) -> Vec<BTreeSet<u32>> {
    sample
        .iter()
        .map(|query| {
            exact
                .search(&indexed_domain(&query.values), T_STAR)
                .into_iter()
                .filter(|id| !removed.contains(id))
                .collect()
        })
        .collect()
}

/// Serves every query of `sample` and compares its hits with its truth.
pub fn accuracy(
    conn: &mut Conn,
    sample: &[&ScriptQuery],
    truths: &[BTreeSet<u32>],
) -> io::Result<Accuracy> {
    let (mut recall, mut precision, mut malformed) = (0.0, 0.0, 0);
    for (query, truth) in sample.iter().zip(truths) {
        match ask(conn, &query.request)? {
            Some(served) => {
                let (r, p) = score(&served, truth);
                recall += r;
                precision += p;
            }
            None => malformed += 1,
        }
    }
    let n = sample.len().max(1) as f64;
    Ok(Accuracy {
        recall: recall / n,
        precision: precision / n,
        malformed,
    })
}

/// After a crash and restart: every acknowledged insert that was not
/// removed again is found by querying its own values, and no acknowledged
/// remove is ever served. Returns the number of violations.
pub fn durability_violations(
    conn: &mut Conn,
    inserts: &[ScriptInsert],
    inserted_ids: &[u32],
    removed: &BTreeSet<u32>,
) -> io::Result<usize> {
    let mut violations = 0;
    for (insert, &id) in inserts.iter().zip(inserted_ids) {
        match ask(conn, &query_request(&insert.values))? {
            Some(served) => {
                let lost = !removed.contains(&id) && !served.contains(&id);
                let resurrected = served.iter().any(|hit| removed.contains(hit));
                violations += usize::from(lost) + usize::from(resurrected);
            }
            None => violations += 1,
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_ids_require_a_well_formed_body() {
        let ok = br#"{"count":2,"cached":false,"generation":1,"query_time_us":5,"hits":[{"id":4,"table":"t","column":"c","size":10,"estimate":0.9},{"id":9,"table":"t","column":"c","size":12,"estimate":1}]}"#;
        assert_eq!(served_ids(ok), Some(BTreeSet::from([4, 9])));
        let wrong_count = br#"{"count":3,"cached":false,"hits":[{"id":4,"size":1,"estimate":1}]}"#;
        assert_eq!(served_ids(wrong_count), None);
        let no_id = br#"{"count":1,"cached":false,"hits":[{"size":1,"estimate":1}]}"#;
        assert_eq!(served_ids(no_id), None);
        assert_eq!(served_ids(br#"{"error":"x"}"#), None);
        assert_eq!(
            served_ids(b"{\"count\":1,\"cached\":false,\"hits\":[{"),
            None
        );
    }

    #[test]
    fn recall_and_precision_are_shares_of_truth_and_of_served() {
        let set = |ids: &[u32]| ids.iter().copied().collect::<BTreeSet<_>>();
        assert_eq!(
            score(&set(&[1, 2, 3]), &set(&[2, 3, 4, 5])),
            (0.5, 2.0 / 3.0)
        );
        // Nothing served: no false positives, everything missed.
        assert_eq!(score(&set(&[]), &set(&[1])), (0.0, 1.0));
        assert_eq!(score(&set(&[]), &set(&[])), (1.0, 1.0));
    }
}
