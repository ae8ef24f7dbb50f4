//! Request scripts: the exact bytes each workload sends, in order, as a
//! pure function of `(workload, seed, sizes)`. The server sees nothing
//! else of a workload.

use crate::config::{self, Sizes, Workload, T_STAR};
use crate::corpus::{indexed_domain, value_string, Corpus};
use lshe_corpus::{Domain, DomainMeta};
use lshe_minhash::hash::SeedStream;

/// One rendered HTTP/1.1 request.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn values_json(values: &[u64]) -> String {
    let mut out = String::with_capacity(values.len() * 19 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&value_string(*v));
        out.push('"');
    }
    out.push(']');
    out
}

pub fn query_request(values: &[u64]) -> Vec<u8> {
    let body = format!(
        "{{\"values\":{},\"threshold\":{T_STAR}}}",
        values_json(values)
    );
    http_request("POST", "/query", &body)
}

fn shuffle<T>(items: &mut [T], rng: &mut SeedStream) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// A distinct query of a script: its values (for ground truth and the
/// in-process replay) and its rendered request.
pub struct ScriptQuery {
    pub values: Vec<u64>,
    pub request: Vec<u8>,
}

impl ScriptQuery {
    fn new(values: Vec<u64>) -> Self {
        let request = query_request(&values);
        Self { values, request }
    }
}

/// A read workload: `order` indexes the first `sizes.distinct_queries` of
/// `queries`; the rest are more queries of the same kind, for the accuracy
/// sample only. Each pass over the script takes `(WINDOWS + 1) ×
/// sizes.window_requests` entries: one warm-up window, then the measured
/// windows.
pub struct ReadScript {
    pub queries: Vec<ScriptQuery>,
    pub order: Vec<u32>,
    /// What `"cached"` must read on every measured response.
    pub expect_cached: bool,
}

/// Up to `want` and at least `need` indexed domains of small size, drawn
/// without replacement. The generator republishes some columns unchanged,
/// and two equal value sets are one query to the server's cache, so each
/// set is taken once.
fn small_queries(
    corpus: &Corpus,
    need: usize,
    want: usize,
    rng: &mut SeedStream,
) -> Vec<ScriptQuery> {
    let mut ids = corpus.ids_with_size(&config::SMALL_QUERY_SIZES);
    shuffle(&mut ids, rng);
    let mut seen = std::collections::BTreeSet::new();
    let queries: Vec<ScriptQuery> = ids
        .iter()
        .map(|&id| &corpus.values[id as usize])
        .filter(|values| seen.insert(*values))
        .take(want.max(need))
        .map(|values| ScriptQuery::new(values.clone()))
        .collect();
    assert!(
        queries.len() >= need,
        "corpus holds {} distinct domains of {:?} values, the workload needs {need}: \
         raise --scale",
        queries.len(),
        config::SMALL_QUERY_SIZES
    );
    queries
}

/// `count` distinct large queries: subsets of the corpus's domains of
/// `LARGE_PARENT_SIZES` values, parents taken in turn.
fn large_queries(corpus: &Corpus, count: usize, rng: &mut SeedStream) -> Vec<ScriptQuery> {
    let mut parents = corpus.ids_with_size(&config::LARGE_PARENT_SIZES);
    if parents.is_empty() {
        // A scaled-down smoke corpus may hold no domain that large: take
        // its largest ones.
        parents = (0..corpus.len() as u32).collect();
        parents.sort_by_key(|&id| std::cmp::Reverse(corpus.values[id as usize].len()));
        parents.truncate(8);
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut queries = Vec::with_capacity(count);
    for i in 0.. {
        if queries.len() == count {
            break;
        }
        let mut pool = corpus.values[parents[i % parents.len()] as usize].clone();
        let hi = pool.len().min(*config::LARGE_QUERY_SIZES.end());
        let kept = (pool.len() as f64 * config::LARGE_KEPT_SHARE).ceil() as usize;
        // A smoke corpus's parents are smaller than any real query.
        let lo = if hi < *config::LARGE_QUERY_SIZES.start() {
            kept
        } else {
            kept.max(*config::LARGE_QUERY_SIZES.start())
        };
        let take = lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize;
        shuffle(&mut pool, rng);
        pool.truncate(take);
        let mut key = pool.clone();
        key.sort_unstable();
        if seen.insert(key) {
            queries.push(ScriptQuery::new(pool));
        }
        assert!(
            i < 100 * count,
            "the corpus's largest domains are too small"
        );
    }
    queries
}

/// Ranks `0..n` drawn Zipf(1.0): rank `r` with probability ∝ 1/(r+1).
fn zipf_order(n: usize, draws: usize, rng: &mut SeedStream) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    (0..draws)
        .map(|_| {
            let u = rng.next_f64() * total;
            cdf.partition_point(|&c| c <= u).min(n - 1) as u32
        })
        .collect()
}

impl ReadScript {
    /// Entries of `order` one pass consumes.
    pub fn requests_per_pass(sizes: &Sizes) -> usize {
        (config::WINDOWS + 1) * sizes.window_requests
    }

    /// `passes`: a traced run drives the script twice (without and with
    /// spans); the second pass carries on where the first stopped, so a
    /// cycle of queries stays a cycle.
    pub fn build(
        workload: Workload,
        corpus: &Corpus,
        seed: u64,
        sizes: &Sizes,
        passes: usize,
    ) -> Self {
        let mut rng = SeedStream::new(seed ^ 0x005C_2197);
        let n = sizes.distinct_queries;
        let total = passes * Self::requests_per_pass(sizes);
        let cycle = |len: usize| (0..len).map(|i| (i % n) as u32).collect::<Vec<_>>();
        match workload {
            Workload::ProbeSmall => Self {
                queries: small_queries(corpus, n, sizes.recall_sample, &mut rng),
                order: cycle(total),
                expect_cached: false,
            },
            Workload::SketchLarge => Self {
                queries: large_queries(corpus, n.max(sizes.recall_sample), &mut rng),
                order: cycle(total),
                expect_cached: false,
            },
            Workload::CacheHot => {
                assert!(
                    sizes.window_requests >= n,
                    "the warm-up window must touch every distinct query once"
                );
                let queries = small_queries(corpus, n, sizes.recall_sample, &mut rng);
                // Warm-up cycles through every query so each is cached;
                // the measured windows draw by popularity.
                let mut order = cycle(sizes.window_requests);
                order.extend(zipf_order(n, total - sizes.window_requests, &mut rng));
                Self {
                    queries,
                    order,
                    expect_cached: true,
                }
            }
            Workload::IngestMixed => unreachable!("ingest-mixed is an IngestScript"),
        }
    }

    /// Every byte the workload sends, in order (determinism tests).
    #[cfg(test)]
    pub fn wire_bytes(&self) -> Vec<u8> {
        self.order
            .iter()
            .flat_map(|&q| self.queries[q as usize].request.iter().copied())
            .collect()
    }
}

/// A fresh domain `ingest-mixed` inserts.
pub struct ScriptInsert {
    pub values: Vec<u64>,
    /// The domain and provenance the server ends up indexing.
    pub indexed: (Domain, DomainMeta),
    pub request: Vec<u8>,
}

/// `ingest-mixed`: inserts are consumed in order, queries are cycled.
/// Removes are rendered at run time from the ids the server acknowledged.
pub struct IngestScript {
    pub inserts: Vec<ScriptInsert>,
    pub queries: Vec<ScriptQuery>,
}

impl IngestScript {
    /// Inserts consumed by one pass over the script.
    pub fn inserts_per_pass(sizes: &Sizes) -> usize {
        (config::WARMUP_BATCHES + sizes.batches) * config::BATCH_INSERTS
    }

    /// `passes`: a traced run drives the script twice (without and with
    /// spans), and each pass needs fresh domains to insert.
    pub fn build(corpus: &Corpus, seed: u64, sizes: &Sizes, passes: usize) -> Self {
        let mut rng = SeedStream::new(seed ^ 0x001A_6E57);
        let inserts = passes * Self::inserts_per_pass(sizes);
        // A second, independent corpus: its clusters share no values with
        // the base, so an insert's true matches are other inserts.
        let fresh = Corpus::generate(inserts, seed ^ 0xF2E5_4001, config::INSERT_SIZES);
        let inserts = (0..)
            .zip(&fresh.values)
            .map(|(k, values): (usize, _)| {
                let column = format!("col{k}");
                let body = format!(
                    "{{\"values\":{},\"table\":\"ingest\",\"column\":\"{column}\"}}",
                    values_json(values)
                );
                ScriptInsert {
                    values: values.clone(),
                    indexed: (indexed_domain(values), DomainMeta::new("ingest", column)),
                    request: http_request("POST", "/insert", &body),
                }
            })
            .collect();
        Self {
            inserts,
            queries: small_queries(
                corpus,
                sizes.distinct_queries,
                sizes.recall_sample,
                &mut rng,
            ),
        }
    }

    pub fn remove_request(id: u32) -> Vec<u8> {
        http_request("POST", "/remove", &format!("{{\"id\":{id}}}"))
    }

    #[cfg(test)]
    pub fn wire_bytes(&self) -> Vec<u8> {
        self.inserts
            .iter()
            .map(|i| &i.request)
            .chain(self.queries.iter().map(|q| &q.request))
            .flat_map(|r| r.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: f64 = 0.04;

    fn read_script(workload: Workload, seed: u64) -> Vec<u8> {
        let sizes = Sizes::new(workload, 10.0, SMOKE, 1.0);
        let corpus = Corpus::generate(sizes.domains, seed, 1..=1 << 14);
        ReadScript::build(workload, &corpus, seed, &sizes, 1).wire_bytes()
    }

    #[test]
    fn scripts_repeat_for_a_seed_and_differ_between_seeds() {
        for workload in [
            Workload::ProbeSmall,
            Workload::SketchLarge,
            Workload::CacheHot,
        ] {
            let a = read_script(workload, 11);
            assert_eq!(a, read_script(workload, 11), "{}", workload.name());
            assert_ne!(a, read_script(workload, 12), "{}", workload.name());
        }
        let ingest = |seed| {
            let sizes = Sizes::new(Workload::IngestMixed, 10.0, SMOKE, 1.0);
            let corpus = Corpus::generate(sizes.domains, seed, 1..=1 << 14);
            IngestScript::build(&corpus, seed, &sizes, 1).wire_bytes()
        };
        assert_eq!(ingest(11), ingest(11));
        assert_ne!(ingest(11), ingest(12));
    }

    #[test]
    fn uncached_workloads_cycle_more_queries_than_the_cache_holds() {
        let sizes = Sizes::new(Workload::ProbeSmall, 10.0, 1.0, 1.0);
        assert!(sizes.distinct_queries > sizes.cache_entries);
        let corpus = Corpus::generate(2_000, 3, 1..=1 << 14);
        let small = Sizes {
            distinct_queries: 64,
            window_requests: 100,
            ..sizes
        };
        let script = ReadScript::build(Workload::ProbeSmall, &corpus, 3, &small, 1);
        // Each query recurs only after every other one has been sent.
        assert_eq!(&script.order[..3], &[0, 1, 2]);
        assert_eq!(script.order[64], 0);
        assert_eq!(script.order.len(), 11 * 100);
        assert!(!script.expect_cached);
    }

    #[test]
    fn cache_hot_warms_every_query_then_draws_by_popularity() {
        let corpus = Corpus::generate(2_000, 3, 1..=1 << 14);
        let sizes = Sizes {
            distinct_queries: 32,
            window_requests: 400,
            ..Sizes::new(Workload::CacheHot, 10.0, 1.0, 1.0)
        };
        let script = ReadScript::build(Workload::CacheHot, &corpus, 3, &sizes, 1);
        let warm: std::collections::BTreeSet<u32> = script.order[..400].iter().copied().collect();
        assert_eq!(warm.len(), 32);
        let measured = &script.order[400..];
        let count = |q: u32| measured.iter().filter(|&&o| o == q).count();
        // Zipf(1.0): the top rank is drawn about 32 times as often as the last.
        assert!(count(0) > 8 * count(31).max(1));
        assert!(script.expect_cached);
    }

    #[test]
    fn large_queries_are_distinct_subsets_of_large_domains() {
        let corpus = Corpus::generate(20_000, 5, 1..=1 << 14);
        let mut rng = SeedStream::new(1);
        let queries = large_queries(&corpus, 40, &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for q in &queries {
            assert!(q.values.len() <= *config::LARGE_QUERY_SIZES.end());
            let mut sorted = q.values.clone();
            sorted.sort_unstable();
            assert!(seen.insert(sorted), "queries must be distinct");
        }
    }
}
