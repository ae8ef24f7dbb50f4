//! One benchmark run: generate the inputs from the seed, set the server
//! up, drive the workload, check the outputs, and name every metric.

use crate::check;
use crate::config::{self, Sizes, Workload};
use crate::corpus::Corpus;
use crate::estimators::{iqr_share, median, median_window_rate, percentile};
use crate::http::Conn;
use crate::layers;
use crate::load::{self, Driven};
use crate::procfs;
use crate::script::{IngestScript, ReadScript, ScriptInsert, ScriptQuery};
use crate::server::{self, stat, Server};
use crate::trace::Trace;
use lshe_corpus::ExactIndex;
use lshe_serve::{DeltaLog, IndexContainer};
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase on the calibration machine.
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks corpus and work together. Results at `scale != 1` are
    /// smoke-test output and comparable with nothing.
    pub scale: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug)]
pub struct Report {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run): what `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Untraced runs report these beside the end-to-end metrics, never
    /// gated: the noise witness and the latency tail.
    pub witness: Vec<Metric>,
    /// Window spread above 0.2 or other processes above 25% of the CPU:
    /// enough to explain an odd number. The run still counts.
    pub noisy: bool,
    pub notes: Vec<String>,
}

/// The run's scratch directory, removed when the run ends however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Index build, save, server spawn and load up to the first `200
/// /health`: what an operator waits for between having a corpus and
/// serving it. Returns the server and the seconds it took.
fn set_up(corpus: &Corpus, index: &Path, lshe: &Path, sizes: &Sizes) -> io::Result<(Server, f64)> {
    let input = corpus.pairs.clone();
    let _ = std::fs::remove_file(DeltaLog::sidecar(index).path());
    let started = Instant::now();
    let container = IndexContainer::from_stream(input, config::PARTITIONS, true);
    std::fs::write(index, container.to_bytes())?;
    let server = Server::spawn(lshe, index, sizes.cache_entries)?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Every `len / count`-th item: a fixed sample spread over the whole.
fn strided<T>(items: &[T], count: usize) -> Vec<&T> {
    let step = (items.len() / count.max(1)).max(1);
    items.iter().step_by(step).take(count).collect()
}

/// The workload's script, either kind.
enum Script {
    Read(ReadScript),
    Ingest(IngestScript),
}

impl Script {
    fn queries(&self) -> &[ScriptQuery] {
        match self {
            Script::Read(s) => &s.queries,
            Script::Ingest(s) => &s.queries,
        }
    }

    fn inserts(&self) -> &[ScriptInsert] {
        match self {
            Script::Read(_) => &[],
            Script::Ingest(s) => &s.inserts,
        }
    }

    fn drive(
        &self,
        server: &Server,
        args: &RunArgs,
        sizes: &Sizes,
        pass: usize,
        trace_epoch: Option<Instant>,
    ) -> io::Result<(Driven, Option<Trace>)> {
        let deadline = Duration::from_secs_f64(args.seconds * config::PHASE_DEADLINE_FACTOR);
        match self {
            Script::Read(s) => load::drive_read(server, s, sizes, pass, deadline, trace_epoch),
            Script::Ingest(s) => load::drive_ingest(server, s, sizes, pass, deadline, trace_epoch),
        }
    }

    /// Raw bytes of `count` of the measured queries, for the replay.
    fn replay_sample(&self, sizes: &Sizes, count: usize) -> Vec<&[u8]> {
        match self {
            Script::Read(s) => strided(&s.order[sizes.window_requests..], count)
                .into_iter()
                .map(|&q| s.queries[q as usize].request.as_slice())
                .collect(),
            Script::Ingest(s) => (0..count)
                .map(|i| s.queries[i % s.queries.len()].request.as_slice())
                .collect(),
        }
    }
}

/// Throughput of a driven phase: the median window's rate (read
/// workloads) or operations over the whole wall time, maintenance waits
/// included (`ingest-mixed`). Failed operations do not count.
fn throughput(driven: &Driven, sizes: &Sizes) -> f64 {
    let rate = if driven.window_secs.is_empty() {
        driven.attempted as f64 / driven.cpu.wall_secs
    } else {
        median_window_rate(sizes.window_requests, &driven.window_secs).expect("WINDOWS > 0")
    };
    rate * (driven.attempted - driven.failed) as f64 / driven.attempted as f64
}

/// What a caller pays in time, from one driven phase. Not end-to-end
/// metrics of `BENCHMARK.json`: on the shared 2-core box identical runs
/// disagree on them by more than a 10% bound can carry (see the README),
/// so an untraced run prints them beside its result and a traced run
/// reports them among the per-layer metrics, ungated.
fn timing_metrics(driven: &Driven, sizes: &Sizes) -> [Metric; 3] {
    let p50 = percentile(&driven.query_latencies_us, 0.5).expect("every workload has queries");
    [
        metric("qps", throughput(driven, sizes), "1/s"),
        metric("p50_us", p50, "us"),
        metric(
            "cpu_us_per_request",
            driven.cpu.server_secs * 1e6 / driven.attempted as f64,
            "us",
        ),
    ]
}

/// Interquartile range of the windows' rates over their median.
/// `ingest-mixed` has no windows; its witness is the host's CPU split.
fn window_spread(driven: &Driven, sizes: &Sizes) -> f64 {
    let rates: Vec<f64> = driven
        .window_secs
        .iter()
        .map(|s| sizes.window_requests as f64 / s)
        .collect();
    iqr_share(&rates).unwrap_or(0.0)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The change of a `/stats` counter over the measured phase.
fn delta(driven: &Driven, path: &[&str]) -> f64 {
    let read = |stats: &Option<_>| stat(stats.as_ref().expect("a drive reads /stats"), path);
    read(&driven.stats_after) - read(&driven.stats_before)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the server counted over the traced loopback pass (`/stats`
/// deltas): work done per layer, measured where the work happens.
struct LoopbackCounts {
    executed: f64,
    hits: f64,
    misses: f64,
    partitions_probed: f64,
    candidates: f64,
    survivors: f64,
    wakeups: f64,
    merges: f64,
    folded: f64,
    inserts: f64,
}

impl LoopbackCounts {
    fn new(driven: &Driven) -> Self {
        let d = |path: &[&str]| delta(driven, path);
        Self {
            executed: d(&["query_stats", "executed"]),
            hits: d(&["cache", "hits"]),
            misses: d(&["cache", "misses"]),
            partitions_probed: d(&["query_stats", "partitions_probed"]),
            candidates: d(&["query_stats", "candidates"]),
            survivors: d(&["query_stats", "survivors"]),
            wakeups: d(&["server", "event_loop_wakeups"]),
            merges: d(&["maintenance", "merges"]),
            folded: d(&["maintenance", "entries_folded"]),
            inserts: d(&["requests", "insert"]),
        }
    }

    fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    fn metrics(&self, driven: &Driven) -> [Metric; 10] {
        let per_query = |count| ratio(count, self.executed);
        [
            metric("serve.cache.hit_ratio", self.hit_ratio(), "ratio"),
            metric(
                "core.partitions_probed_per_query",
                per_query(self.partitions_probed),
                "count",
            ),
            metric(
                "core.candidates_per_query",
                per_query(self.candidates),
                "count",
            ),
            metric(
                "core.survivors_per_query",
                per_query(self.survivors),
                "count",
            ),
            metric(
                "core.candidate_waste",
                ratio(self.candidates, self.survivors),
                "ratio",
            ),
            metric(
                "serve.reactor.wakeups_per_request",
                self.wakeups / driven.attempted as f64,
                "count",
            ),
            metric("serve.maintenance.merges", self.merges, "count"),
            metric("serve.maintenance.entries_folded", self.folded, "count"),
            metric(
                "serve.maintenance.write_amp",
                ratio(self.folded, self.inserts),
                "ratio",
            ),
            metric(
                "serve.maintenance.idle_wait_share",
                driven.idle_wait_secs / driven.cpu.wall_secs,
                "ratio",
            ),
        ]
    }
}

pub fn run(root: &Path, args: &RunArgs) -> io::Result<Report> {
    let lshe = server::build_lshe(root)?;
    let out_dir = server::target_dir(root);
    let work = WorkDir(
        out_dir
            .join("perfbench-work")
            .join(std::process::id().to_string()),
    );
    std::fs::create_dir_all(&work.0)?;
    let index = work.0.join("index.lshe");
    let workload = args.workload;
    let length = if args.trace {
        config::TRACE_LENGTH_SHARE
    } else {
        1.0
    };
    let sizes = Sizes::new(workload, args.seconds, args.scale, length);
    let mut notes = vec![format!(
        "host.workdir_fs = {} ({})",
        procfs::workdir_fs(&work.0),
        work.0.display()
    )];

    // A traced run drives the workload twice, without and with client
    // spans, so the cost of tracing is itself measured.
    let passes = if args.trace { 2 } else { 1 };
    let started = Instant::now();
    let corpus = Corpus::generate(sizes.domains, args.seed, 1..=1 << 14);
    let script = match workload {
        Workload::IngestMixed => {
            Script::Ingest(IngestScript::build(&corpus, args.seed, &sizes, passes))
        }
        _ => Script::Read(ReadScript::build(
            workload, &corpus, args.seed, &sizes, passes,
        )),
    };
    let corpus_gen_s = started.elapsed().as_secs_f64();

    // Set-up time is one-shot wall time, the noisiest kind: repeat it and
    // report the median. A traced run does not report it and sets up once.
    let repeats = if args.trace { 1 } else { config::SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut server = None;
    for _ in 0..repeats {
        drop(server.take());
        let (spawned, secs) = set_up(&corpus, &index, &lshe, &sizes)?;
        setups.push(secs);
        server = Some(spawned);
    }
    let mut server = server.expect("at least one set-up");
    let setup_s = median(&setups).expect("at least one set-up");
    notes.push(format!("set-ups took {setups:.3?} s"));

    let mut drives = Vec::with_capacity(passes);
    let mut inserted_ids = Vec::new();
    let mut removed = BTreeSet::new();
    for pass in 0..passes {
        let epoch = (args.trace && pass == 1).then(Instant::now);
        let (driven, trace) = script.drive(&server, args, &sizes, pass, epoch)?;
        inserted_ids.extend_from_slice(&driven.inserted_ids);
        removed.extend(driven.removed_ids.iter().copied());
        drives.push((driven, trace));
    }
    let attempted: usize = drives.iter().map(|(d, _)| d.attempted).sum();
    let mut failed: usize = drives.iter().map(|(d, _)| d.failed).sum();
    let (driven, trace) = drives.pop().expect("at least one pass");
    let untraced = drives.pop().map(|(d, _)| d);

    // The last `/stats` of the drive was read with maintenance idle and
    // nothing has been sent since: the server is quiescent.
    let churn_rss_mb = server.rss_mb();
    let disk_bytes = file_len(&index) + file_len(DeltaLog::sidecar(&index).path());
    let live_domains = stat(
        driven.stats_after.as_ref().expect("a drive reads /stats"),
        &["domains"],
    );

    // Accuracy against exact ground truth. Catalog ids must be the
    // server's ids, which holds while it numbers inserts consecutively.
    if let Some(at) = (0..)
        .zip(&inserted_ids)
        .position(|(k, &id): (usize, _)| id as usize != corpus.len() + k)
    {
        return Err(io::Error::other(format!(
            "insert {at} was given id {}, not {}",
            inserted_ids[at],
            corpus.len() + at
        )));
    }
    let started = Instant::now();
    let appended: Vec<_> = script.inserts()[..inserted_ids.len()]
        .iter()
        .map(|insert| insert.indexed.clone())
        .collect();
    let exact = ExactIndex::build(&corpus.catalog_with(&appended));
    let sample = strided(script.queries(), sizes.recall_sample);
    let truths = check::truths(&sample, &exact, &removed);
    let exact_truth_s = started.elapsed().as_secs_f64();
    drop(exact);
    let accuracy = check::accuracy(&mut Conn::connect(server.addr)?, &sample, &truths)?;
    failed += accuracy.malformed;

    // Durability: crash the server, restart it from the index file and
    // the delta log, and look for every acknowledged write.
    let mut lost_writes = 0;
    if workload == Workload::IngestMixed {
        server.kill();
        server = Server::spawn(&lshe, &index, sizes.cache_entries)?;
        lost_writes = check::durability_violations(
            &mut Conn::connect(server.addr)?,
            script.inserts(),
            &inserted_ids,
            &removed,
        )?;
        if lost_writes > 0 {
            notes.push(format!(
                "durability: {lost_writes} violations after kill and restart"
            ));
        }
    }
    // Read workloads: the quiescent server that served the run. On
    // `ingest-mixed`: the restarted server, holding the same corpus. (The
    // reading before the crash takes one of three levels 65 MB apart from
    // run to run: glibc keeps or returns a freed copy of the index
    // depending on which thread's arena it was freed into.)
    let rss_mb = server.rss_mb();
    drop(server);

    let cached_share = driven.cached as f64 / driven.attempted as f64;
    let spread = window_spread(&driven, &sizes);
    let noisy = spread > 0.2 || driven.cpu.other_cpu_pct > 25.0;
    let latencies = &driven.query_latencies_us;
    let pct = |q| percentile(latencies, q).expect("every workload measures queries");
    let mut witness = vec![
        metric("client.window_qps_spread", spread, "ratio"),
        metric("host.steal_pct", driven.cpu.steal_pct, "%"),
        metric("host.other_cpu_pct", driven.cpu.other_cpu_pct, "%"),
        metric("host.noisy", f64::from(u8::from(noisy)), "count"),
        metric("client.query_samples", latencies.len() as f64, "count"),
        metric("client.p90_us", pct(0.9), "us"),
        metric("client.p99_us", pct(0.99), "us"),
        metric("client.max_us", pct(1.0), "us"),
    ];
    let qps = throughput(&driven, &sizes);

    let metrics = if let (Some(untraced), Some(mut trace)) = (untraced, trace) {
        let counts = LoopbackCounts::new(&driven);
        let mut metrics = witness.clone();
        metrics.extend(timing_metrics(&untraced, &sizes));
        metrics.push(metric("serve.rss_before_restart_mb", churn_rss_mb, "MB"));
        metrics.extend([
            metric(
                "trace.overhead_pct",
                100.0 * (1.0 - qps / throughput(&untraced, &sizes)),
                "%",
            ),
            metric("client.traced_p50_us", pct(0.5), "us"),
            metric(
                "client.bytes_in_per_request",
                driven.bytes_in as f64 / latencies.len() as f64,
                "B",
            ),
            metric("datagen.corpus_gen_s", corpus_gen_s, "s"),
            metric("corpus.exact_truth_s", exact_truth_s, "s"),
        ]);
        metrics.extend(counts.metrics(&driven));
        let replay = layers::Replay {
            corpus: &corpus,
            work_dir: &work.0,
            requests: script.replay_sample(&sizes, sizes.replay_sample),
            seed: args.seed,
            cache_entries: sizes.cache_entries,
            hit_ratio: counts.hit_ratio(),
            traced_p50_us: pct(0.5),
        };
        metrics.extend(replay.run(&mut trace)?);
        let path = out_dir.join("perfbench-out").join(format!(
            "{}.{}.trace.json",
            workload.name(),
            args.seed
        ));
        trace.write(&path, workload.name(), args.seed)?;
        notes.push(format!(
            "trace: {} spans in {}",
            trace.spans.len(),
            path.display()
        ));
        metrics
    } else {
        witness.extend(timing_metrics(&driven, &sizes));
        witness.push(metric("serve.rss_before_restart_mb", churn_rss_mb, "MB"));
        vec![
            metric("setup_s", setup_s, "s"),
            metric("recall", accuracy.recall, "ratio"),
            metric("precision", accuracy.precision, "ratio"),
            metric("rss_mb", rss_mb, "MB"),
            metric(
                "disk_bytes_per_domain",
                disk_bytes as f64 / live_domains,
                "B",
            ),
        ]
    };

    // What a run reports is what `BENCHMARK.json` declares for its kind.
    let declared = config::Declared::load();
    let mut reported: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    let mut expected: Vec<(&str, &str)> = if args.trace {
        let per_layer = declared.per_layer.iter();
        per_layer.map(|(n, u)| (n.as_str(), u.as_str())).collect()
    } else {
        let end_to_end = declared.end_to_end.iter();
        end_to_end
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect()
    };
    reported.sort_unstable();
    expected.sort_unstable();
    if reported != expected {
        return Err(io::Error::other(
            "the metrics reported differ from the ones BENCHMARK.json declares",
        ));
    }

    // Recall below the floor means the index, or the pairing of queries
    // with their ground truth, is broken: no number of such a run counts.
    if accuracy.recall < config::RECALL_FLOOR {
        notes.push(format!(
            "recall {:.4} is below the floor of {}",
            accuracy.recall,
            config::RECALL_FLOOR
        ));
    }

    // `cache-hot` must be answered from the cache, the other read
    // workloads must never be: `load` counted every response with the
    // wrong flag as failed. `ingest-mixed` commits invalidate the cache,
    // so its flag is free.
    notes.push(format!("cached responses: {:.4} of measured", cached_share));
    Ok(Report {
        args: *args,
        correct: failed == 0 && lost_writes == 0 && accuracy.recall >= config::RECALL_FLOOR,
        attempted,
        failed,
        metrics,
        witness,
        noisy,
        notes,
    })
}
