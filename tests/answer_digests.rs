//! Answers pinned: one fixed corpus and query set, answered through every
//! route the project ships, and each family of routes that must agree
//! pinned by one committed `fnv1a` digest
//! (`tests/fixtures/answer_digests.txt`).
//!
//! The corpus is `CorpusStream` seed 42, 20 000 WDC-like domains in 16
//! partitions, every value sent and indexed as its 16-digit hex string, as
//! a client sends it. The queries are 60 of its domains, ten of each of six
//! sizes, each asked at thresholds 0.2, 0.5 and 0.8 and for its top 10 and
//! top 100: 300 queries. Every answer is one line — the query, then each hit's id and
//! its estimate's bits, in rank order — so a reordered tie, a moved
//! estimate or one hit swapped for another each change a digest, where
//! recall and precision, being averages, may not.
//!
//! The families and their routes:
//!
//! * `whole` — the corpus built; saved and loaded; sealed, then compacted
//!   by an engine over its file (the fold's write and re-open); and over
//!   HTTP from `lshe serve`'s engine in-process: the first 64 queries as
//!   one `/batch`, the rest as `/query` and `/topk`.
//! * `sealed` — the first 90 % built and the last 10 % committed as one
//!   batch, and the same restarted from the saved base over a delta log
//!   holding that batch. A sealed segment answers beside the base's
//!   partitions, which the whole build tunes over every domain, so this
//!   family answers otherwise than `whole`.
//! * `coordinator` — the corpus split into two shards (`shard_of`), each
//!   served by an engine, fronted by a coordinator over HTTP. Each shard
//!   partitions and tunes its own half.
//!
//! On a disagreement inside a family the test prints the first lines that
//! differ. Against the committed file it prints the answers now of the
//! first queries whose line digest moved, and writes the fresh file to the
//! system temp dir.
//! Re-record it only with a `CHANGES.md` line that names the cause.
//!
//! The two sides, the whole corpus's and the sealed one's, run on a thread
//! each, so a debug build answers every route within about 10 s on two
//! cores. The top-k queries, which sweep eleven thresholds each, are most
//! of the work, and the work grows with the partitions; 16 keep the time.

use lshe::cluster::{shard_of, ClusterConfig};
use lshe::corpus::json::Json;
use lshe::corpus::{Domain, DomainMeta};
use lshe::datagen::{CorpusConfig, CorpusStream};
use lshe::serve::client::HttpClient;
use lshe::serve::server::{start, ServerConfig, ServerHandle};
use lshe::serve::{DeltaLog, DeltaOp, DomainRecord, Engine, IndexContainer};
use lshe::{DomainIndex, MinHasher, Query};
use lshe_serve::testkit::Scratch;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

const DOMAINS: usize = 20_000;
const PARTITIONS: usize = 16;
const SEED: u64 = 42;
/// The query domains' sizes, and how many domains of each size are asked:
/// 60 domains. The partition tuner caches by query size, so a few sizes
/// keep a debug build within its time.
const QUERY_SIZES: [usize; 6] = [2, 4, 8, 16, 24, 40];
const PER_SIZE: usize = 10;
const THRESHOLDS: [f64; 3] = [0.2, 0.5, 0.8];
const TOP_K: [usize; 2] = [10, 100];
/// The first this many queries go over HTTP as one `/batch`.
const BATCH: usize = 64;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/answer_digests.txt"
);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What is asked of a query domain.
#[derive(Clone, Copy)]
enum Mode {
    Threshold(f64),
    TopK(usize),
}

impl Mode {
    fn all() -> impl Iterator<Item = Self> {
        let thresholds = THRESHOLDS.into_iter().map(Self::Threshold);
        thresholds.chain(TOP_K.into_iter().map(Self::TopK))
    }

    fn label(self) -> String {
        match self {
            Self::Threshold(t) => format!("t={t}"),
            Self::TopK(k) => format!("k={k}"),
        }
    }

    /// The request body's field after `"values"`.
    fn field(self) -> String {
        match self {
            Self::Threshold(t) => format!("\"threshold\":{t}"),
            Self::TopK(k) => format!("\"k\":{k}"),
        }
    }
}

/// One query: a corpus domain, as strings and as the index sketches it.
struct Asked {
    name: String,
    mode: Mode,
    strings: Arc<Vec<String>>,
    domain: Arc<Domain>,
}

impl Asked {
    fn body(&self) -> String {
        let quoted: Vec<String> = self.strings.iter().map(|v| format!("\"{v}\"")).collect();
        format!(
            "{{\"values\":[{}],{}}}",
            quoted.join(","),
            self.mode.field()
        )
    }
}

/// The corpus as `(domain, provenance)` pairs, with each domain's values
/// as the strings a client sends.
fn corpus() -> (Vec<(Domain, DomainMeta)>, Vec<Vec<String>>) {
    let config = CorpusConfig {
        seed: SEED,
        ..CorpusConfig::wdc_web_tables_like(DOMAINS)
    };
    CorpusStream::new(config)
        .map(|(raw, meta)| {
            let strings: Vec<String> = raw.hashes().iter().map(|v| format!("{v:016x}")).collect();
            let domain = Domain::from_strs(strings.iter().map(String::as_str));
            ((domain, meta), strings)
        })
        .unzip()
}

/// Every query: for each of [`QUERY_SIZES`], [`PER_SIZE`] domains of that
/// size spread over the corpus, each asked in every mode.
fn queries(pairs: &[(Domain, DomainMeta)], strings: &[Vec<String>]) -> Vec<Asked> {
    let mut asked = Vec::new();
    for size in QUERY_SIZES {
        let sized: Vec<usize> = (0..DOMAINS)
            .filter(|&id| pairs[id].0.len() == size)
            .collect();
        assert!(
            sized.len() >= PER_SIZE,
            "{} domains of size {size}",
            sized.len()
        );
        for id in sized.iter().step_by(sized.len() / PER_SIZE).take(PER_SIZE) {
            let strings = Arc::new(strings[*id].clone());
            let domain = Arc::new(pairs[*id].0.clone());
            for mode in Mode::all() {
                asked.push(Asked {
                    name: format!("q{id} {}", mode.label()),
                    mode,
                    strings: Arc::clone(&strings),
                    domain: Arc::clone(&domain),
                });
            }
        }
    }
    asked
}

/// An answer's line: the query, then `id:estimate bits` per hit in order.
fn line(name: &str, hits: impl IntoIterator<Item = (u64, u64)>) -> String {
    let hits: Vec<String> = hits
        .into_iter()
        .map(|(id, bits)| format!("{id}:{bits:016x}"))
        .collect();
    format!("{name} hits={}", hits.join(","))
}

/// Every query answered by `index` in-process.
fn in_process(index: &dyn DomainIndex, asked: &[Asked]) -> Vec<String> {
    let hasher = MinHasher::new(lshe::minhash::DEFAULT_NUM_PERM);
    asked
        .iter()
        .map(|a| {
            let sig = a.domain.signature(&hasher);
            let query = match a.mode {
                Mode::Threshold(t) => Query::threshold(&sig, t),
                Mode::TopK(k) => Query::top_k(&sig, k),
            };
            let found = index.search(&query.with_size(a.domain.len() as u64));
            let pairs = found.expect("valid query").into_pairs();
            let bits = |e: Option<f64>| e.map_or(0, f64::to_bits);
            line(
                &a.name,
                pairs.into_iter().map(|(id, e)| (id.into(), bits(e))),
            )
        })
        .collect()
}

/// The line of one HTTP answer's `hits`.
fn http_line(name: &str, answer: &Json) -> String {
    let hits = answer.get("hits").and_then(Json::as_array);
    let hits = hits.unwrap_or_else(|| panic!("{name}: no hits in {answer}"));
    line(
        name,
        hits.iter().map(|h| {
            let id = h.get("id").and_then(Json::as_u64).expect("hit id");
            let estimate = h.get("estimate").and_then(Json::as_f64);
            (id, estimate.map_or(0, f64::to_bits))
        }),
    )
}

/// Every query answered over HTTP at `addr`: the first [`BATCH`] as one
/// `/batch`, the rest one request each.
fn over_http(addr: SocketAddr, asked: &[Asked]) -> Vec<String> {
    let mut client = HttpClient::connect(addr);
    let (batched, single) = asked.split_at(BATCH);
    let bodies: Vec<String> = batched.iter().map(Asked::body).collect();
    let (status, reply) = client.post("/batch", &format!("{{\"queries\":[{}]}}", bodies.join(",")));
    assert_eq!(status, 200, "/batch: {reply}");
    let results = reply
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    assert_eq!(results.len(), BATCH);
    let mut lines: Vec<String> = (batched.iter().zip(results))
        .map(|(a, answer)| http_line(&a.name, answer))
        .collect();
    for a in single {
        let path = match a.mode {
            Mode::Threshold(_) => "/query",
            Mode::TopK(_) => "/topk",
        };
        let (status, answer) = client.post(path, &a.body());
        assert_eq!(status, 200, "{} {path}: {answer}", a.name);
        lines.push(http_line(&a.name, &answer));
    }
    lines
}

/// `lshe serve`'s engine over `path`, on an ephemeral port, with no
/// query cache.
fn served(path: &Path) -> ServerHandle {
    let engine = Engine::load(path, 1).expect("load the saved index");
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    start(Arc::new(engine), &config).expect("bind")
}

fn insert(id: u32, (domain, meta): &(Domain, DomainMeta), hasher: &MinHasher) -> DeltaOp {
    DeltaOp::Insert {
        record: DomainRecord {
            id,
            size: domain.len() as u64,
            table: meta.table.clone(),
            column: meta.column.clone(),
        },
        signature: domain.signature(hasher),
    }
}

/// A family: its routes' answers, which must agree line for line.
struct Family {
    name: &'static str,
    routes: Vec<(&'static str, Vec<String>)>,
}

impl Family {
    /// The family's lines, after checking every route gives the first's,
    /// naming the first lines that differ.
    fn agreed(&self) -> &[String] {
        let (first, want) = &self.routes[0];
        for (route, got) in &self.routes[1..] {
            assert_eq!(got.len(), want.len(), "{}: {route} vs {first}", self.name);
            let differing: Vec<(&String, &String)> = (got.iter().zip(want))
                .filter(|(g, w)| g != w)
                .take(3)
                .collect();
            assert!(
                differing.is_empty(),
                "{}: {route} answers otherwise than {first}; first differing lines \
                 ({route}, {first}): {differing:#?}",
                self.name
            );
        }
        want
    }
}

/// The fixture's lines for `families`, each with what a failure shows of
/// it: a digest per family, then one per query, which localises a change
/// and shows that query's answer now.
fn fixture(families: &[Family]) -> Vec<(String, String)> {
    let header = "# Answer digests of tests/answer_digests.rs: `<family> <fnv1a of its lines>`,\n\
                  # then `<family> <query> <fnv1a of its line>` per query.";
    let mut out: Vec<(String, String)> = header.lines().map(|l| (l.into(), l.into())).collect();
    for family in families {
        let joined: String = family.agreed().iter().map(|l| format!("{l}\n")).collect();
        let line = format!("{} {:016x}", family.name, fnv1a(joined.as_bytes()));
        out.push((line.clone(), line));
    }
    for family in families {
        for l in family.agreed() {
            let query = l.split(" hits=").next().expect("query");
            let line = format!("{} {query} {:016x}", family.name, fnv1a(l.as_bytes()));
            out.push((line, format!("{}: {l}", family.name)));
        }
    }
    out
}

/// The whole corpus's routes: built, saved and loaded, over HTTP; and
/// the coordinator over two shards of it.
fn whole_routes(
    pairs: &[(Domain, DomainMeta)],
    asked: &[Asked],
    dir: &Path,
) -> (Vec<(&'static str, Vec<String>)>, Vec<String>) {
    let built = IndexContainer::from_stream(pairs.iter().cloned(), PARTITIONS, true);
    let path = dir.join("whole.lshe");
    built.save(&path).expect("save");
    let server = served(&path);
    let http = over_http(server.addr(), asked);
    server.shutdown();

    let parts = built.split_with(2, shard_of).expect("split");
    let shards: Vec<ServerHandle> = (parts.iter().enumerate())
        .map(|(s, part)| {
            let path = dir.join(format!("shard{s}.lshe"));
            part.save(&path).expect("save shard");
            served(&path)
        })
        .collect();
    let cluster = lshe::cluster::start(ClusterConfig {
        addr: "127.0.0.1:0".to_owned(),
        shards: shards.iter().map(ServerHandle::addr).collect(),
        ..ClusterConfig::default()
    })
    .expect("coordinator");
    let coordinator = over_http(cluster.addr(), asked);
    cluster.shutdown();
    shards.into_iter().for_each(ServerHandle::shutdown);

    let loaded = IndexContainer::load(&path).expect("load");
    let routes = vec![
        ("built", in_process(&*built.open_index(), asked)),
        ("loaded", in_process(&*loaded.open_index(), asked)),
        ("http", http),
    ];
    (routes, coordinator)
}

/// The sealed routes: the first 90 % built and the last 10 % committed as
/// one batch, in memory and as a delta log beside the saved base that a
/// restart replays. Then that engine's compaction, which belongs to the
/// whole corpus's family.
fn sealed_routes(
    pairs: &[(Domain, DomainMeta)],
    asked: &[Asked],
    dir: &Path,
) -> (Vec<(&'static str, Vec<String>)>, Vec<String>) {
    let cut = DOMAINS - DOMAINS / 10;
    let mut sealed = IndexContainer::from_stream(pairs[..cut].iter().cloned(), PARTITIONS, true);
    let path = dir.join("base.lshe");
    sealed.save(&path).expect("save base");
    let hasher = MinHasher::new(sealed.num_perm());
    let mut ops: Vec<DeltaOp> = (cut as u32..)
        .zip(&pairs[cut..])
        .map(|(id, pair)| insert(id, pair, &hasher))
        .collect();
    sealed.commit(&ops).expect("commit");
    assert_eq!(sealed.segment_layout().segments.len(), 1);
    ops.push(DeltaOp::Commit {
        next_id: DOMAINS as u32,
    });
    DeltaLog::sidecar(&path)
        .rewrite(&ops, cut as u32)
        .expect("write the delta log");
    let restarted = Engine::load(&path, 1).expect("restart over the log");
    let routes = vec![
        ("sealed", in_process(&*sealed.open_index(), asked)),
        ("restarted", in_process(restarted.snapshot().index(), asked)),
    ];
    let (compacted, _) = restarted.compact().expect("compact");
    assert_eq!(compacted.container().segment_layout().segments.len(), 0);
    (routes, in_process(compacted.index(), asked))
}

#[test]
fn every_route_answers_as_its_family_recorded() {
    let dir = Scratch::new("answer_digests");
    let (pairs, strings) = corpus();
    let asked = queries(&pairs, &strings);
    assert_eq!(asked.len(), 300);
    // The two sides share nothing but the corpus: one thread each.
    let ((mut whole, coordinator), (sealed, compacted)) = std::thread::scope(|scope| {
        let whole = scope.spawn(|| whole_routes(&pairs, &asked, dir.path()));
        let sealed = sealed_routes(&pairs, &asked, dir.path());
        (whole.join().expect("the whole corpus's routes"), sealed)
    });
    whole.insert(2, ("compacted", compacted));
    let families = [
        Family {
            name: "whole",
            routes: whole,
        },
        Family {
            name: "sealed",
            routes: sealed,
        },
        Family {
            name: "coordinator",
            routes: vec![("coordinator", coordinator)],
        },
    ];

    let fresh = fixture(&families);
    let text: String = fresh.iter().map(|(line, _)| format!("{line}\n")).collect();
    let recorded = std::fs::read_to_string(FIXTURE).unwrap_or_default();
    if text != recorded {
        let moved: Vec<&String> = (fresh
            .iter()
            .zip(recorded.lines().chain(std::iter::repeat(""))))
        .filter(|((line, _), was)| line != was)
        .map(|((_, shown), _)| shown)
        .take(8)
        .collect();
        let out = std::env::temp_dir().join("answer_digests.txt");
        std::fs::write(&out, &text).expect("write the fresh digests");
        panic!(
            "answers moved from {FIXTURE}; the first moved digests, and the answers now of \
             their queries: {moved:#?}\nfresh digests written to {}",
            out.display()
        );
    }
}
