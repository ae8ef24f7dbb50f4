//! # lshe-cli
//!
//! The `lshe` command-line tool: build a persistent LSH Ensemble index over
//! a directory of CSV files, then run containment / top-k searches against
//! it — the end-user workflow the paper motivates (find joinable open-data
//! tables for a given attribute).
//!
//! ```text
//! lshe index --dir ./opendata --out tables.lshe [--partitions 32]
//!            [--min-size 10]
//! lshe ingest --index tables.lshe --dir ./newdata [--min-size 10]
//! lshe compact --index tables.lshe
//! lshe query --index tables.lshe --csv mine.csv --column Partner
//!            [--threshold 0.7] [--top-k 10]
//! lshe stats --index tables.lshe
//! lshe serve --index tables.lshe [--addr 127.0.0.1:7878] [--threads N]
//!            [--cache 1024] [--shard-id K]
//! lshe split --index tables.lshe --shards 4 [--out prefix]
//! lshe cluster --shards 127.0.0.1:7878,127.0.0.1:7879 [--addr 127.0.0.1:7979]
//! ```
//!
//! All logic lives in this library so it is unit-testable; `main.rs` is a
//! thin wrapper. The `.lshe` container format lives in `lshe-serve` (the
//! serving layer shares it) and is re-exported here unchanged.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use lshe_serve::container;

use bytes::Bytes;
use container::IndexContainer;
use lshe_core::Query;
use lshe_corpus::{Catalog, CsvDocument, Domain};
use lshe_minhash::MinHasher;
use lshe_serve::engine::{Engine, EngineError, StagedCounts};
use lshe_serve::server::{start, ServerConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

/// CLI failures, printable to stderr.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Filesystem problem.
    Io(std::io::Error),
    /// Corrupt or mismatched index file.
    Index(String),
    /// Bad query input (missing column, empty domain, malformed CSV).
    Query(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Index(msg) => write!(f, "index error: {msg}"),
            Self::Query(msg) => write!(f, "query error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Loads a `.lshe` index as a restarted server serves it: the base file
/// with the committed batches of its delta log (FILE.delta) replayed.
fn load_served(path: &str) -> Result<Engine, CliError> {
    Engine::load(Path::new(path), 1).map_err(engine_error)
}

/// Usage text.
pub const USAGE: &str = "\
lshe — domain search over CSV files (LSH Ensemble, VLDB 2016)

COMMANDS
  lshe index --dir DIR --out FILE [--partitions N] [--min-size M]
      Ingest every *.csv and *.jsonl under DIR (one domain per column/field
      with ≥ M distinct values, default 10), build an N-way equi-depth LSH
      Ensemble (default 32), and write it to FILE as a new index: a delta
      log left at FILE.delta is discarded, so never index onto a FILE a
      live server is serving. Each domain's row is its sketch and its
      cardinality is kept beside it, so every index ranks its hits by
      estimated containment.

  lshe query --index FILE --csv FILE --column NAME [--threshold T] [--top-k K]
      Search the index with the named column of the given CSV as the query
      domain. Default: threshold search at T = 0.7. With --top-k, return
      the K best domains by estimated containment.

  lshe ingest --index FILE --dir DIR [--min-size M]
      Bulk-append every *.csv / *.jsonl domain under DIR (≥ M distinct
      values, default 10) to an existing index with fresh ids, in one
      compaction: a stopped server's staged delta-log ops (FILE.delta) are
      committed first, then the file and its log are rewritten, all or
      nothing. Do NOT run against an index a live server is serving —
      they do not coordinate; use POST /insert there.

  lshe compact --index FILE
      Fold every sealed segment and tombstone into the base index — the
      one O(corpus) step of the tiered mutation lifecycle, run offline.
      Staged delta-log ops (FILE.delta) are applied first, the compacted
      index is rewritten atomically, and the delta log is retired. Same
      caveat as ingest: never run against an index a live server is
      serving — use its POST /compact endpoint instead.

  lshe stats --index FILE
      Print configuration and per-partition statistics of the index as
      `lshe serve` would serve it: committed delta-log (FILE.delta)
      batches included, as for query.

  lshe serve --index FILE [--addr HOST:PORT] [--threads N] [--cache C] [--shard-id K]
      Serve the index over HTTP (default 127.0.0.1:7878) until /shutdown
      or SIGKILL. N worker threads (default: available parallelism) and
      an LRU query cache of C entries (default 1024, 0 disables). To fan
      queries out, split the index (`lshe split`) and front the shard
      servers with `lshe cluster`. --shard-id marks this process as
      cluster shard K (surfaced on /stats; the coordinator verifies it).
      The index file is mapped, not copied: its base partitions are
      served from it, resident where queries reach, and still take
      mutations (replace a served file by rename only, never by writing
      into it). Background maintenance: a dedicated thread folds sealed
      segments off the request path in size-exponential levels (only an
      overflowing level merges), and runs a full fold once tombstones
      pass 25% of the live corpus; its state is on /stats.maintenance.
      Endpoints: GET /health /stats, POST /query /topk /batch /insert
      /remove /commit /compact /reload /shutdown — see docs/API.md.

  lshe split --index FILE --shards N [--out PREFIX]
      Split the index as `lshe serve` would serve it — committed
      delta-log (FILE.delta) batches included — into N shard files
      PREFIX.shard0.lshe … PREFIX.shardN-1.lshe (default PREFIX: FILE
      minus .lshe), placing each domain by id % N, the routing the
      coordinator uses for /insert and /remove. Staged ops no commit
      closed are refused: run `lshe compact` first. Each shard file is a
      new index (a log left beside it is discarded), so never split onto
      a file a live server is serving. A cluster over the files answers
      with the union of their own answers, ranked by estimate.

  lshe cluster --shards ADDR,ADDR,... [--addr HOST:PORT] [--hedge-ms H]
               [--connect-timeout-ms C] [--read-timeout-ms R] [--probe-ms P]
      Run a coordinator (default 127.0.0.1:7979) over shard servers
      listed IN SHARD-ID ORDER. Serves the same endpoints as `lshe
      serve`, scattering reads across shards with hedged retries after
      H ms (default 150) and routing /insert & /remove by id % N.
      Shard calls use a C ms connect deadline (default 1000) and an
      R ms read deadline (default 30000); shard health is probed every
      P ms (default 2000). /shutdown drains the coordinator only.";

/// Simple `--key [value]` parser for one subcommand.
///
/// A flag immediately followed by another `--flag` (or by the end of the
/// argument list) is *bare*: it takes no value, and a command that needs
/// one reports it. A flag no command reads is ignored. Repeating a flag
/// is an error.
#[derive(Debug)]
struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs: Vec<(String, Option<String>)> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .filter(|k| !k.is_empty())
                .ok_or_else(|| CliError::Usage(format!("unexpected argument {k:?}")))?;
            if pairs.iter().any(|(existing, _)| existing == key) {
                return Err(CliError::Usage(format!(
                    "duplicate flag --{key}: each flag may be given once"
                )));
            }
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked").clone()),
                _ => None,
            };
            pairs.push((key.to_owned(), value));
        }
        Ok(Self { pairs })
    }

    /// Whether the flag was given, with or without a value.
    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    /// The flag's value: `Ok(None)` when absent, an error when the flag
    /// was given bare but the caller needs a value.
    fn get(&self, key: &str) -> Result<Option<&str>, CliError> {
        match self.pairs.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v.as_str())),
            Some((_, None)) => Err(CliError::Usage(format!("--{key} requires a value"))),
        }
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)?
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key)? {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("--{key}: cannot parse {v:?}"))),
        }
    }
}

/// Entry point: dispatches a full argument vector (without `argv[0]`) and
/// returns the text to print on success.
///
/// # Errors
/// [`CliError`] on any failure; the caller prints it and exits non-zero.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("index") => cmd_index(&Flags::parse(&args[1..])?),
        Some("ingest") => cmd_ingest(&Flags::parse(&args[1..])?),
        Some("compact") => cmd_compact(&Flags::parse(&args[1..])?),
        Some("query") => cmd_query(&Flags::parse(&args[1..])?),
        Some("stats") => cmd_stats(&Flags::parse(&args[1..])?),
        Some("serve") => cmd_serve(&Flags::parse(&args[1..])?),
        Some("split") => cmd_split(&Flags::parse(&args[1..])?),
        Some("cluster") => cmd_cluster(&Flags::parse(&args[1..])?),
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

fn cmd_index(flags: &Flags) -> Result<String, CliError> {
    let dir = flags.require("dir")?.to_owned();
    let out = flags.require("out")?.to_owned();
    let partitions: usize = flags.get_parsed("partitions", 32)?;
    let min_size: usize = flags.get_parsed("min-size", 10)?;
    if partitions == 0 {
        return Err(CliError::Usage("--partitions must be positive".into()));
    }

    let catalog = ingest_dir(Path::new(&dir), min_size)?;
    if catalog.is_empty() {
        return Err(CliError::Query(format!(
            "no domains with ≥ {min_size} distinct values found under {dir}"
        )));
    }
    let container = IndexContainer::build(&catalog, partitions);
    container.save(Path::new(&out))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "indexed {} domains from {} into {out}",
        catalog.len(),
        dir
    );
    let _ = writeln!(report, "partitions: {partitions}");
    Ok(report)
}

/// Bulk-appends a directory of CSV/JSONL domains to a stored index in one
/// engine call, [`Engine::ingest`], over the index as a restarted server
/// loads it: what its `FILE.delta` log stages is committed first, and the
/// new domains land in one full fold, all of them or none.
///
/// The index file must not be concurrently served: `ingest` and
/// `lshe serve` do not coordinate, and a live server's next commit would
/// rewrite the file from its own (pre-ingest) snapshot. Stop the server
/// first, or ingest through its `POST /insert` endpoint instead.
fn cmd_ingest(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    let dir = flags.require("dir")?.to_owned();
    let min_size: usize = flags.get_parsed("min-size", 10)?;

    let engine = load_served(&index_path)?;
    let catalog = ingest_dir(Path::new(&dir), min_size)?;
    let layout = engine.segment_layout();
    let staged = engine.staged_counts() != StagedCounts::default();
    if catalog.is_empty() && !staged && layout.segments.is_empty() && layout.tombstones == 0 {
        return Err(CliError::Query(format!(
            "no domains with ≥ {min_size} distinct values found under {dir}"
        )));
    }
    let (snapshot, report) = engine.ingest(&catalog).map_err(engine_error)?;
    let (added, total) = (catalog.len(), snapshot.container().len());
    let mut out =
        format!("ingested {added} domain(s) from {dir} into {index_path} ({total} total)\n");
    let (applied, merged, rebuilt) = (report.applied, report.merged, report.entries_folded);
    if applied > 0 {
        let _ = writeln!(out, "folded {applied} staged delta-log op(s) first");
    }
    let _ = writeln!(
        out,
        "compacted: {merged} staged insert(s) merged, {rebuilt} entr(y/ies) rebuilt"
    );
    Ok(out)
}

fn cmd_query(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    let csv_path = flags.require("csv")?.to_owned();
    let column = flags.require("column")?.to_owned();
    let threshold: f64 = flags.get_parsed("threshold", 0.7)?;
    let top_k: usize = flags.get_parsed("top-k", 0)?;
    if !(0.0..=1.0).contains(&threshold) {
        return Err(CliError::Usage("--threshold must be in [0, 1]".into()));
    }

    let snapshot = load_served(&index_path)?.snapshot();
    let container = snapshot.container();

    // Load the query domain from the CSV column.
    let data = std::fs::read(&csv_path)?;
    let doc = CsvDocument::parse(Bytes::from(data))
        .map_err(|e| CliError::Query(format!("{csv_path}: {e}")))?;
    let col_idx = doc
        .header()
        .iter()
        .position(|c| c == &column)
        .ok_or_else(|| {
            CliError::Query(format!(
                "column {column:?} not in {csv_path} (header: {:?})",
                doc.header()
            ))
        })?;
    let query = Domain::from_bytes_values(doc.column_values(col_idx).iter().map(Bytes::as_ref));
    if query.is_empty() {
        return Err(CliError::Query(format!("column {column:?} has no values")));
    }

    let hasher = MinHasher::new(container.num_perm());
    let sig = query.signature(&hasher);
    let index = container.open_index();
    let typed = if top_k > 0 {
        Query::top_k(&sig, top_k)
    } else {
        Query::threshold(&sig, threshold)
    }
    .with_size(query.len() as u64);
    let outcome = index
        .search(&typed)
        .map_err(|e| CliError::Query(e.to_string()))?;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "query {column:?} ({} distinct values) → {} hit(s)",
        query.len(),
        outcome.hits.len()
    );
    for hit in &outcome.hits {
        let (table, col) = container.names(hit.id).expect("every hit has a record");
        let size = hit.size;
        let estimate = hit
            .estimate
            .map_or(String::new(), |e| format!("t̂ = {e:.2}  "));
        let _ = writeln!(report, "  {estimate}{table}.{col} ({size} values)");
    }
    let s = &outcome.stats;
    let _ = writeln!(
        report,
        "probed {}/{} partition(s), {} candidate(s) → {} survivor(s) in {} µs",
        s.partitions_probed, s.partitions_total, s.candidates, s.survivors, s.wall_micros
    );
    Ok(report)
}

fn cmd_stats(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    Ok(load_served(&index_path)?.snapshot().container().describe())
}

fn engine_error(e: EngineError) -> CliError {
    match e {
        EngineError::Io(e) => CliError::Io(e),
        EngineError::Index(msg) | EngineError::Mutation(msg) => CliError::Index(msg),
        EngineError::Config(msg) => CliError::Usage(msg),
    }
}

/// Folds every sealed segment and tombstone into the base index — the
/// one O(corpus) step of the tiered mutation lifecycle, run offline
/// through the same engine path the server's `POST /compact` uses:
/// committed delta-log batches replay as segments, staged tail ops are
/// applied, the compacted container is rewritten atomically, and the
/// delta log is retired. Like `ingest`, this must not run against an
/// index a live server is serving.
fn cmd_compact(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    let engine = Engine::load(Path::new(&index_path), 1).map_err(engine_error)?;
    let before = engine.segment_layout();
    let (snap, outcome) = engine.compact().map_err(engine_error)?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "compacted {index_path}: folded {} segment(s), {} tombstone(s), {} staged op(s)",
        before.segments.len(),
        before.tombstones,
        outcome.applied
    );
    let _ = writeln!(
        report,
        "{} domain(s), {} entr(y/ies) merged, {} rebuilt",
        snap.container().len(),
        outcome.merged,
        outcome.entries_folded
    );
    Ok(report)
}

/// Boots the domain-search server over a persisted index and blocks until
/// it stops (`POST /shutdown`, or the process is killed). The listening
/// line is printed *before* blocking so callers (and CI probes) know the
/// bound address.
fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    let addr = flags.get("addr")?.unwrap_or("127.0.0.1:7878").to_owned();
    let threads: usize = flags.get_parsed("threads", 0)?;
    let cache_capacity: usize = flags.get_parsed("cache", 1024)?;
    if flags.has("shards") {
        return Err(CliError::Usage(
            "serve takes no --shards: split the index with `lshe split` and serve each \
             file, then front them with `lshe cluster`"
                .into(),
        ));
    }
    let shard_id: Option<u64> = match flags.get("shard-id")? {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| {
            CliError::Usage(format!("--shard-id: cannot parse {v:?} as an integer"))
        })?),
    };

    let engine = Engine::load(Path::new(&index_path), 1).map_err(engine_error)?;
    // Copy out the banner datum rather than holding the snapshot Arc across
    // join(): a retained generation-1 snapshot would keep the whole initial
    // index resident even after hot reloads replace it.
    let domains = engine.snapshot().container().len();
    let config = ServerConfig {
        addr,
        threads,
        cache_capacity,
        shard_id,
        ..ServerConfig::default()
    };
    let handle = start(Arc::new(engine), &config)?;
    println!(
        "lshe-serve listening on http://{} ({} domains, cache {}{})",
        handle.addr(),
        domains,
        if cache_capacity == 0 {
            "disabled".to_owned()
        } else {
            format!("{cache_capacity} entries")
        },
        shard_id.map_or(String::new(), |id| format!(", cluster shard {id}"))
    );
    handle.join();
    Ok("server stopped\n".to_owned())
}

/// Splits the served state of an index — committed delta-log batches
/// replayed — into per-shard container files by `id % N`, the placement
/// the cluster coordinator routes `/insert` and `/remove` by.
fn cmd_split(flags: &Flags) -> Result<String, CliError> {
    let index_path = flags.require("index")?.to_owned();
    let shards: usize = flags.get_parsed("shards", 0)?;
    if shards < 2 {
        return Err(CliError::Usage(
            "--shards must be at least 2 (there is nothing to split otherwise)".into(),
        ));
    }
    let default_prefix = index_path
        .strip_suffix(".lshe")
        .unwrap_or(&index_path)
        .to_owned();
    let prefix = flags.get("out")?.unwrap_or(&default_prefix).to_owned();

    let engine = load_served(&index_path)?;
    if engine.staged_counts() != StagedCounts::default() {
        return Err(CliError::Usage(format!(
            "{index_path}.delta holds staged ops no commit closed: fold them in with \
             `lshe compact --index {index_path}` before splitting"
        )));
    }
    let parts = engine
        .snapshot()
        .container()
        .split_with(shards, lshe_cluster::shard_of)
        .map_err(CliError::Index)?;

    let mut report = String::new();
    for (s, part) in parts.iter().enumerate() {
        let path = format!("{prefix}.shard{s}.lshe");
        part.save(Path::new(&path))?;
        let _ = writeln!(report, "shard {s}: {} domain(s) → {path}", part.len());
    }
    let _ = writeln!(
        report,
        "serve each file with `lshe serve --index {prefix}.shardS.lshe --shard-id S`,\n\
         then run `lshe cluster --shards HOST:PORT,...` listing them in shard order"
    );
    Ok(report)
}

/// Boots the cluster coordinator over already-running shard servers and
/// blocks until `POST /shutdown`. Mirrors `cmd_serve`'s banner-then-join
/// shape so CI probes learn the bound address the same way.
fn cmd_cluster(flags: &Flags) -> Result<String, CliError> {
    use std::net::ToSocketAddrs as _;
    let shard_list = flags.require("shards")?.to_owned();
    let addr = flags.get("addr")?.unwrap_or("127.0.0.1:7979").to_owned();
    let hedge_ms: u64 = flags.get_parsed("hedge-ms", 150)?;
    let connect_ms: u64 = flags.get_parsed("connect-timeout-ms", 1_000)?;
    let read_ms: u64 = flags.get_parsed("read-timeout-ms", 30_000)?;
    let probe_ms: u64 = flags.get_parsed("probe-ms", 2_000)?;

    let mut shards = Vec::new();
    for part in shard_list.split(',') {
        let part = part.trim();
        let resolved = part
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
            .ok_or_else(|| {
                CliError::Usage(format!("--shards: {part:?} is not a host:port address"))
            })?;
        shards.push(resolved);
    }

    let count = shards.len();
    let handle = lshe_cluster::start(lshe_cluster::ClusterConfig {
        addr,
        shards,
        connect_timeout: std::time::Duration::from_millis(connect_ms),
        read_timeout: std::time::Duration::from_millis(read_ms),
        hedge_after: std::time::Duration::from_millis(hedge_ms),
        probe_interval: std::time::Duration::from_millis(probe_ms),
    })
    .map_err(CliError::Index)?;
    println!(
        "lshe-cluster listening on http://{} ({count} shard(s), hedge after {hedge_ms} ms)",
        handle.addr()
    );
    handle.join();
    Ok("cluster stopped\n".to_owned())
}

/// Ingests every `*.csv` and `*.jsonl` under `dir` (sorted for
/// determinism). CSV and JSON values share one hash universe, so
/// cross-format joins are found like any other.
fn ingest_dir(dir: &Path, min_size: usize) -> Result<Catalog, CliError> {
    let mut catalog = Catalog::new();
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv" || e == "jsonl"))
        .collect();
    paths.sort();
    for path in paths {
        let table = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let data = std::fs::read(&path)?;
        if path.extension().is_some_and(|e| e == "jsonl") {
            let (_, _skipped) = catalog.ingest_jsonl(&table, &data, min_size);
        } else {
            catalog
                .ingest_csv_bytes(&table, Bytes::from(data), min_size)
                .map_err(|e| CliError::Query(format!("{}: {e}", path.display())))?;
        }
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lshe_cli_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn write_corpus(dir: &Path) {
        std::fs::write(
            dir.join("registry.csv"),
            "company,sector\nacme,mfg\nborealis,ai\ncanaduck,aero\ndelta,energy\nevergreen,bio\nfalcon,mining\nglacier,sw\nharbour,log\nivory,sw\njuniper,agri\n",
        )
        .expect("write");
        std::fs::write(
            dir.join("grants.csv"),
            "partner,year\nacme,2011\nborealis,2011\ncanaduck,2011\ndelta,2011\nevergreen,2011\nfalcon,2012\nglacier,2012\nharbour,2012\n",
        )
        .expect("write");
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&[]).expect("help").contains("COMMANDS"));
        assert!(run(&s(&["help"])).expect("help").contains("lshe index"));
        for gone in ["frobnicate", "pack"] {
            let err = run(&s(&[gone])).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("unknown command")),
                "{err}"
            );
        }
        assert!(!USAGE.contains("lshe pack") && !USAGE.contains("--mmap"));
    }

    #[test]
    fn missing_flags_are_usage_errors() {
        assert!(matches!(
            run(&s(&["index", "--dir", "/nowhere"])).unwrap_err(),
            CliError::Usage(_)
        ));
        assert!(matches!(
            run(&s(&["query", "--index", "x"])).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn bare_boolean_flags_accepted() {
        // A bare flag, mid-list and at the end, swallows no value.
        let flags = Flags::parse(&s(&["--ranked", "--out", "x"])).expect("parse");
        assert_eq!(flags.get("out").expect("ok"), Some("x"));
        let flags = Flags::parse(&s(&["--out", "x", "--ranked"])).expect("parse");
        assert_eq!(flags.get("out").expect("ok"), Some("x"));
    }

    #[test]
    fn bare_flag_where_value_needed_is_usage_error() {
        // `--dir` swallowed no value because `--out` follows.
        let flags = Flags::parse(&s(&["--dir", "--out", "x"])).expect("parse");
        let err = flags.require("dir").unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("requires a value")),
            "{err}"
        );
        // Same through get_parsed.
        let flags = Flags::parse(&s(&["--partitions"])).expect("parse");
        assert!(matches!(
            flags.get_parsed::<usize>("partitions", 32),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn duplicate_flags_rejected() {
        let err = Flags::parse(&s(&["--dir", "a", "--dir", "b"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("duplicate flag --dir")),
            "{err}"
        );
        // Bare + valued duplicates are rejected too.
        assert!(Flags::parse(&s(&["--ranked", "--ranked", "true"])).is_err());
        // Through the public entry point.
        assert!(matches!(
            run(&s(&["stats", "--index", "a", "--index", "b"])).unwrap_err(),
            CliError::Usage(_)
        ));
    }

    #[test]
    fn empty_and_non_flag_arguments_rejected() {
        assert!(Flags::parse(&s(&["--"])).is_err());
        assert!(Flags::parse(&s(&["positional"])).is_err());
    }

    #[test]
    fn serve_flag_validation() {
        // Missing --index.
        assert!(matches!(
            run(&s(&["serve"])).unwrap_err(),
            CliError::Usage(_)
        ));
        // serve takes no --shards, whatever its value: the fan-out is
        // `lshe split` + `lshe cluster`.
        for shards in ["2", "1"] {
            let err = run(&s(&["serve", "--index", "x.lshe", "--shards", shards])).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(msg) if msg.contains("lshe split") && msg.contains("lshe cluster")),
                "{err}"
            );
        }
        // Nonexistent index fails fast with an I/O error (no server boot).
        assert!(matches!(
            run(&s(&["serve", "--index", "/nowhere/missing.lshe"])).unwrap_err(),
            CliError::Io(_)
        ));
    }

    #[test]
    fn index_query_stats_end_to_end() {
        let dir = tmp_dir("e2e");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        let out = run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--partitions",
            "4",
            "--min-size",
            "5",
        ]))
        .expect("index");
        assert!(out.contains("indexed"));

        // grants.partner (8 values) ⊆ registry.company (10 values).
        let hits = run(&s(&[
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--csv",
            dir.join("grants.csv").to_str().expect("utf8"),
            "--column",
            "partner",
            "--threshold",
            "0.9",
        ]))
        .expect("query");
        assert!(
            hits.contains("registry.company"),
            "expected registry.company in:\n{hits}"
        );
        // Per-query stats from the unified surface surface in the report.
        assert!(hits.contains("probed"), "missing stats trailer:\n{hits}");

        let stats = run(&s(&["stats", "--index", idx.to_str().expect("utf8")])).expect("stats");
        assert!(stats.contains("partitions"), "{stats}");
        assert!(stats.contains("index:"), "{stats}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranked_is_ignored_like_any_unknown_flag() {
        // Every index ranks: `--ranked`, bare or valued, changes no byte.
        let dir = tmp_dir("ranked_flag");
        write_corpus(&dir);
        let index = |name: &str, extra: &[&str]| {
            let out = dir.join(name);
            let mut args = s(&[
                "index",
                "--dir",
                dir.to_str().expect("utf8"),
                "--min-size",
                "5",
            ]);
            args.extend(s(&["--out", out.to_str().expect("utf8")]));
            args.extend(s(extra));
            run(&args).expect("index");
            std::fs::read(out).expect("read")
        };
        let plain = index("plain.lshe", &[]);
        assert_eq!(index("bare.lshe", &["--ranked"]), plain);
        assert_eq!(index("valued.lshe", &["--ranked", "true"]), plain);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_files_are_ingested() {
        let dir = tmp_dir("jsonl");
        write_corpus(&dir);
        std::fs::write(
            dir.join("registry_export.jsonl"),
            "{\"name\": \"acme\"}\n{\"name\": \"borealis\"}\n{\"name\": \"canaduck\"}\n{\"name\": \"delta\"}\n{\"name\": \"evergreen\"}\n{\"name\": \"falcon\"}\n{\"name\": \"glacier\"}\n{\"name\": \"harbour\"}\n",
        )
        .expect("write");
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");
        // The JSONL `name` field holds the same companies as grants.partner:
        // a cross-format join must surface.
        let hits = run(&s(&[
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--csv",
            dir.join("grants.csv").to_str().expect("utf8"),
            "--column",
            "partner",
            "--threshold",
            "0.9",
        ]))
        .expect("query");
        assert!(
            hits.contains("registry_export.name"),
            "cross-format join missing:\n{hits}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_appends_and_folds_delta_log() {
        let dir = tmp_dir("ingest");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");

        // A server left one staged insert in the delta log.
        let log = container::DeltaLog::sidecar(&idx);
        let staged_values: Vec<String> = (0..8).map(|i| format!("staged{i}")).collect();
        let staged_domain = Domain::from_strs(staged_values.iter().map(String::as_str));
        // (id 3: the built corpus holds ids 0..=2 — registry.company,
        // registry.sector, grants.partner.)
        log.append(
            &container::DeltaOp::Insert {
                record: container::DomainRecord {
                    id: 3,
                    size: staged_domain.len() as u64,
                    table: "serverlog".to_owned(),
                    column: "v".to_owned(),
                },
                signature: staged_domain.signature(&MinHasher::new(256)),
            },
            4,
        )
        .expect("append");

        // New data arrives in a second directory.
        let more = dir.join("more");
        std::fs::create_dir_all(&more).expect("mkdir");
        std::fs::write(
            more.join("suppliers.csv"),
            "vendor,city\nacme,ottawa\nborealis,oslo\ncanaduck,toronto\ndelta,denver\nevergreen,eugene\nfalcon,flint\n",
        )
        .expect("write");

        let out = run(&s(&[
            "ingest",
            "--index",
            idx.to_str().expect("utf8"),
            "--dir",
            more.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("ingest");
        assert!(out.contains("ingested"), "{out}");
        assert!(out.contains("folded 1 staged delta-log op(s)"), "{out}");
        assert!(!log.exists(), "delta log must be retired after ingest");

        // The appended column joins against the original corpus. Ingest
        // compacts, restoring the freshly-built equi-depth layout — whose
        // per-partition (b,r) tuned at 0.7 probabilistically misses this
        // 0.75-containment pair exactly as a from-scratch build does — so
        // probe at 0.6, under the estimate either layout produces.
        let hits = run(&s(&[
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--csv",
            dir.join("grants.csv").to_str().expect("utf8"),
            "--column",
            "partner",
            "--threshold",
            "0.6",
        ]))
        .expect("query");
        assert!(hits.contains("suppliers.vendor"), "{hits}");
        // And the folded server insert is committed + queryable by stats.
        let stats = run(&s(&["stats", "--index", idx.to_str().expect("utf8")])).expect("stats");
        assert!(
            stats.contains("domains: 6"),
            "3 built + 1 folded + 2 ingested:\n{stats}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_takes_a_delta_log_the_base_already_embodies() {
        // The crash window between a compaction's rename and its log
        // clear: the base holds a committed batch whose log is still
        // beside it. `stats` and `serve` serve the base and retire the
        // log; so must `ingest`.
        let dir = tmp_dir("ingest_embodied");
        let idx = dir.join("x.lshe");
        let domain = |prefix: &str| {
            let values: Vec<String> = (0..12).map(|v| format!("{prefix}{v}")).collect();
            Domain::from_strs(values.iter().map(String::as_str))
        };
        let mut catalog = Catalog::new();
        for k in 0..24 {
            let meta = lshe_corpus::DomainMeta::new("base", format!("c{k}"));
            catalog.push(domain(&format!("d{k}v")), meta);
        }
        IndexContainer::build(&catalog, 4).save(&idx).expect("save");
        let engine = Engine::load(&idx, 1).expect("load");
        let late = domain("late");
        let signature = late.signature(&MinHasher::new(256));
        let size = late.len() as u64;
        let (id, _) = engine
            .stage_insert("late".into(), "v".into(), size, signature)
            .expect("insert");
        assert_eq!(id, 24);
        engine.commit_staged().expect("commit");
        let log = container::DeltaLog::sidecar(&idx);
        let saved = std::fs::read(log.path()).expect("read the log");
        engine.compact().expect("compact");
        drop(engine);
        assert!(!log.exists(), "compaction retires the log");
        std::fs::write(log.path(), &saved).expect("put the log back");

        let more = dir.join("more");
        std::fs::create_dir_all(&more).expect("mkdir");
        write_corpus(&more);
        let (idx, more) = (idx.to_str().expect("utf8"), more.to_str().expect("utf8"));
        let ingest = ["ingest", "--index", idx, "--dir", more, "--min-size", "5"];
        let out = run(&s(&ingest)).expect("ingest over a log the base embodies");
        assert!(out.contains("ingested 3 domain(s)"), "{out}");
        assert!(!log.exists(), "delta log must be retired after ingest");
        let stats = run(&s(&["stats", "--index", idx])).expect("stats");
        let domains = "domains: 28";
        assert!(
            stats.contains(domains),
            "24 built + 1 committed + 3 ingested:\n{stats}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_rejects_torn_delta_log_with_typed_error() {
        let dir = tmp_dir("ingest_torn");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");
        let log = container::DeltaLog::sidecar(&idx);
        log.append(&container::DeltaOp::Remove { id: 0 }, 3)
            .expect("append");
        let bytes = std::fs::read(log.path()).expect("read");
        std::fs::write(log.path(), &bytes[..bytes.len() - 2]).expect("tear");
        let err = run(&s(&[
            "ingest",
            "--index",
            idx.to_str().expect("utf8"),
            "--dir",
            dir.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .unwrap_err();
        assert!(
            matches!(&err, CliError::Index(msg) if msg.contains("torn")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_folds_staged_ops_and_retires_the_log() {
        let dir = tmp_dir("cli_compact");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");

        // A server left one staged remove behind (ids 0..=2 were built).
        let log = container::DeltaLog::sidecar(&idx);
        log.append(&container::DeltaOp::Remove { id: 0 }, 3)
            .expect("append");

        let out = run(&s(&["compact", "--index", idx.to_str().expect("utf8")])).expect("compact");
        assert!(out.contains("compacted"), "{out}");
        assert!(out.contains("1 staged op(s)"), "{out}");
        assert!(!log.exists(), "delta log must be retired after compact");

        let stats = run(&s(&["stats", "--index", idx.to_str().expect("utf8")])).expect("stats");
        assert!(
            stats.contains("domains: 2"),
            "3 built - 1 removed:\n{stats}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_maintenance_flag_validation() {
        // Maintenance takes no flags. `--merge-policy leveled`, which the
        // benchmark harness still passes, is read by no one: serve gets
        // past flag parsing to the index load.
        let dir = tmp_dir("serve_flags");
        let missing = dir.join("missing.lshe");
        let args = [
            "serve",
            "--index",
            missing.to_str().expect("utf8"),
            "--merge-policy",
            "leveled",
        ];
        let err = run(&s(&args)).unwrap_err();
        assert!(!matches!(err, CliError::Usage(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_flag_validation() {
        // --shards below 2 is a usage error before any file I/O.
        for bad in [
            &["split", "--index", "x.lshe"][..],
            &["split", "--index", "x.lshe", "--shards", "1"],
        ] {
            assert!(matches!(run(&s(bad)).unwrap_err(), CliError::Usage(_)));
        }
    }

    #[test]
    fn split_writes_loadable_disjoint_shard_files() {
        let dir = tmp_dir("split");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");
        let report = run(&s(&[
            "split",
            "--index",
            idx.to_str().expect("utf8"),
            "--shards",
            "2",
        ]))
        .expect("split");
        assert!(report.contains("shard 0"), "{report}");

        let whole = IndexContainer::from_bytes(&std::fs::read(&idx).expect("read"))
            .expect("whole container");
        let mut seen = std::collections::HashSet::new();
        let mut total = 0;
        for shard in 0..2u32 {
            let path = dir.join(format!("t.shard{shard}.lshe"));
            let part = IndexContainer::from_bytes(&std::fs::read(&path).expect("shard file"))
                .expect("shard container");
            assert_eq!(part.num_perm(), whole.num_perm());
            total += part.len();
            for id in part.records().iter().map(|r| r.id) {
                assert_eq!(id % 2, shard, "id {id} misplaced on shard {shard}");
                assert!(seen.insert(id), "id {id} on two shards");
            }
        }
        assert_eq!(total, whole.len(), "split must partition every domain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_stats_and_query_read_committed_delta_log_batches() {
        let dir = tmp_dir("split_delta");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        let index_flag = idx.to_str().expect("utf8");
        let built = ["index", "--dir", dir.to_str().expect("utf8"), "--out"];
        run(&s(&[&built[..], &[index_flag, "--min-size", "5"]].concat())).expect("index");

        // A stopped server left one committed insert in the delta log (the
        // built corpus holds ids 0..=2, so it took id 3).
        let values: Vec<String> = (0..12).map(|i| format!("committed{i}")).collect();
        let domain = Domain::from_strs(values.iter().map(String::as_str));
        let stage = |engine: &Engine| {
            let sig = domain.signature(&MinHasher::new(256));
            let size = domain.len() as u64;
            engine.stage_insert("serverlog".into(), "v".into(), size, sig)
        };
        let engine = Engine::load(&idx, 1).expect("engine");
        let (id, _) = stage(&engine).expect("stage");
        engine.commit_staged().expect("commit");
        drop(engine);
        assert_eq!(id, 3);

        let stats = run(&s(&["stats", "--index", index_flag])).expect("stats");
        assert!(stats.contains("domains: 4"), "{stats}");
        let csv = dir.join("q.csv");
        std::fs::write(&csv, format!("v\n{}\n", values.join("\n"))).expect("write");
        let query = [
            "query",
            "--index",
            index_flag,
            "--csv",
            csv.to_str().expect("utf8"),
        ];
        let hits = run(&s(&[&query[..], &["--column", "v"]].concat())).expect("query");
        assert!(hits.contains("serverlog.v"), "{hits}");

        let n = 3;
        let split = ["split", "--index", index_flag, "--shards", "3"];
        run(&s(&split)).expect("split");
        let mut total = 0;
        for shard in 0..n {
            let path = dir.join(format!("t.shard{shard}.lshe"));
            let part = IndexContainer::load(&path).expect("shard container");
            total += part.len();
            assert_eq!(part.record(id).is_some(), id as usize % n == shard);
        }
        assert_eq!(total, 4, "the committed insert must land in a shard");

        // Staged ops no commit closed are refused, not dropped.
        let engine = Engine::load(&idx, 1).expect("engine");
        stage(&engine).expect("stage");
        drop(engine);
        let err = run(&s(&split)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("lshe compact")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// What a killed server leaves beside `path`: a committed insert of a
    /// `stale.c` domain, and one more staged. Returns the domain's values.
    fn leave_a_log(path: &Path) -> Vec<String> {
        let values: Vec<String> = (0..12).map(|i| format!("stale{i}")).collect();
        let domain = Domain::from_strs(values.iter().map(String::as_str));
        let engine = Engine::load(path, 1).expect("load");
        let stage = || {
            let sig = domain.signature(&MinHasher::new(256));
            let size = domain.len() as u64;
            engine.stage_insert("stale".into(), "c".into(), size, sig)
        };
        stage().expect("stage");
        engine.commit_staged().expect("commit");
        stage().expect("stage");
        assert!(container::DeltaLog::sidecar(path).exists());
        values
    }

    /// `path` serves `domains` domains, none of them `stale.c`, and stages
    /// nothing, as `lshe stats`, `lshe query` and a restart see it.
    fn serves_only_the_new_corpus(path: &Path, domains: usize, stale: &[String]) {
        let index = path.to_str().expect("utf8");
        let stats = run(&s(&["stats", "--index", index])).expect("stats");
        assert!(stats.contains(&format!("domains: {domains}\n")), "{stats}");
        let csv = path.with_extension("query.csv");
        std::fs::write(&csv, format!("v\n{}\n", stale.join("\n"))).expect("write");
        let csv = csv.to_str().expect("utf8");
        let query = ["query", "--index", index, "--csv", csv, "--column", "v"];
        let hits = run(&s(&[&query[..], &["--threshold", "0.5"]].concat())).expect("query");
        assert!(!hits.contains("stale."), "{hits}");
        let engine = Engine::load(path, 1).expect("restart");
        assert_eq!(engine.staged_counts(), StagedCounts::default());
        assert!(!container::DeltaLog::sidecar(path).exists());
    }

    #[test]
    fn index_onto_a_path_with_a_log_starts_a_new_index() {
        let dir = tmp_dir("index_over_log");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        let index = ["index", "--dir", dir.to_str().expect("utf8"), "--out"];
        let index = [
            &index[..],
            &[idx.to_str().expect("utf8"), "--min-size", "5"],
        ]
        .concat();
        run(&s(&index)).expect("index");
        let stale = leave_a_log(&idx);
        run(&s(&index)).expect("index again");
        serves_only_the_new_corpus(&idx, 3, &stale);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_onto_paths_with_logs_starts_new_shard_indexes() {
        let dir = tmp_dir("split_over_log");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        let index = ["index", "--dir", dir.to_str().expect("utf8"), "--out"];
        run(&s(&[
            &index[..],
            &[idx.to_str().expect("utf8"), "--min-size", "5"],
        ]
        .concat()))
        .expect("index");
        let split = [
            "split",
            "--index",
            idx.to_str().expect("utf8"),
            "--shards",
            "2",
        ];
        run(&s(&split)).expect("split");
        let shards = [dir.join("t.shard0.lshe"), dir.join("t.shard1.lshe")];
        let stale = leave_a_log(&shards[0]);
        leave_a_log(&shards[1]);
        run(&s(&split)).expect("split again");
        // Ids 0..=2 by id % 2: two on shard 0, one on shard 1.
        serves_only_the_new_corpus(&shards[0], 2, &stale);
        serves_only_the_new_corpus(&shards[1], 1, &stale);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_index_write_leaves_the_file_and_its_log() {
        let dir = tmp_dir("index_write_fails");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        let index = ["index", "--dir", dir.to_str().expect("utf8"), "--out"];
        let index = [
            &index[..],
            &[idx.to_str().expect("utf8"), "--min-size", "5"],
        ]
        .concat();
        run(&s(&index)).expect("index");
        leave_a_log(&idx);
        let log = container::DeltaLog::sidecar(&idx);
        let before = (std::fs::read(&idx), std::fs::read(log.path()));
        std::fs::create_dir_all(dir.join("t.lshe.tmp")).expect("mkdir");
        let err = run(&s(&index)).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        let after = (std::fs::read(&idx), std::fs::read(log.path()));
        assert_eq!(
            (after.0.expect("index"), after.1.expect("log")),
            (before.0.expect("index"), before.1.expect("log"))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cluster_flag_validation() {
        assert!(matches!(
            run(&s(&["cluster"])).unwrap_err(),
            CliError::Usage(_)
        ));
        let err = run(&s(&["cluster", "--shards", "not-an-address"])).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(msg) if msg.contains("host:port")),
            "{err}"
        );
    }

    #[test]
    fn corrupt_index_reported() {
        let dir = tmp_dir("corrupt");
        let idx = dir.join("bad.lshe");
        std::fs::write(&idx, b"garbage").expect("write");
        std::fs::write(dir.join("q.csv"), "a\n1\n").expect("write");
        let err = run(&s(&[
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--csv",
            dir.join("q.csv").to_str().expect("utf8"),
            "--column",
            "a",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Index(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_column_reported() {
        let dir = tmp_dir("missing_col");
        write_corpus(&dir);
        let idx = dir.join("t.lshe");
        run(&s(&[
            "index",
            "--dir",
            dir.to_str().expect("utf8"),
            "--out",
            idx.to_str().expect("utf8"),
            "--min-size",
            "5",
        ]))
        .expect("index");
        let err = run(&s(&[
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--csv",
            dir.join("grants.csv").to_str().expect("utf8"),
            "--column",
            "nope",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Query(_)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
