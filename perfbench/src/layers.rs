//! The in-process half of a traced run: loads the same corpus into the
//! same structures the server builds, and replays a fixed sample of the
//! workload's requests stage by stage, timing each call into a crate's
//! public functions from out here. No file under `crates/` knows it is
//! being measured.
//!
//! Each replayed request leaves one span per stage. The stages are called
//! one after another, not nested, so a span's `parent` is its *logical*
//! parent (the stage whose time contains this work inside the server):
//! self time = span − children still holds, arithmetically.

use crate::config::{self, T_STAR};
use crate::corpus::Corpus;
use crate::estimators::median;
use crate::run::{metric, Metric};
use crate::trace::Trace;
use lshe_core::{
    DomainIndex, EnsembleConfig, MergeTask, MmapIndex, PartitionStrategy, Query, RankedIndex,
    SearchOutcome, Tuner,
};
use lshe_corpus::Domain;
use lshe_lsh::LshForest;
use lshe_minhash::{FoldKernel, MinHasher, Signature, DEFAULT_NUM_PERM};
use lshe_serve::cache::signature_digest;
use lshe_serve::http::RequestParser;
use lshe_serve::json::Json;
use lshe_serve::{DeltaLog, DeltaOp, DomainRecord, Engine, IndexContainer, LruCache, QueryKey};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Replayed requests are numbered from here, clear of the loopback
/// requests' numbers, so span ids never collide.
const REPLAY_REQUEST_BASE: u64 = 1 << 40;

/// The replayed stages: span name, span slot, logical parent's slot.
#[derive(Clone, Copy)]
struct Stage(&'static str, u64, Option<u64>);

const REQUEST: Stage = Stage("replay.request", 0, None);
const HTTP_PARSE: Stage = Stage("serve.http.parse", 1, Some(0));
const JSON_PARSE: Stage = Stage("serve.json.parse", 2, Some(0));
const SKETCH: Stage = Stage("minhash.sketch", 3, Some(0));
const CACHE: Stage = Stage("serve.cache.lookup", 4, Some(0));
const ENGINE_QUERY: Stage = Stage("serve.engine.query", 5, Some(0));
const PROBE: Stage = Stage("core.ensemble.probe", 6, Some(5));
const TUNING: Stage = Stage("core.tuning.optimize", 7, Some(6));
const FOREST: Stage = Stage("lsh.forest.query", 8, Some(6));
const VERIFY: Stage = Stage("core.ranked.verify", 9, Some(5));
const RENDER: Stage = Stage("serve.json.render", 10, Some(0));
const STAGES: usize = 11;

/// Nanosecond samples per stage, and the spans behind them.
struct Clock<'t> {
    trace: &'t mut Trace,
    samples: Vec<Vec<f64>>,
}

impl Clock<'_> {
    fn time<T>(&mut self, request: u64, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        self.record(request, stage, start, end);
        out
    }

    fn record(&mut self, request: u64, stage: Stage, start: Instant, end: Instant) {
        let Stage(name, slot, parent) = stage;
        self.trace.push(request, slot, parent, name, start, end);
        self.samples[slot as usize].push((end - start).as_nanos() as f64);
    }

    fn median_ns(&self, stage: Stage) -> f64 {
        median(&self.samples[stage.1 as usize]).unwrap_or(0.0)
    }

    /// The sample `time` just recorded for `stage`.
    fn last_ns(&mut self, stage: Stage) -> &mut f64 {
        self.samples[stage.1 as usize]
            .last_mut()
            .expect("the stage was just timed")
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

pub struct Replay<'a> {
    pub corpus: &'a Corpus,
    pub work_dir: &'a Path,
    /// Raw bytes of the sampled requests, as the server read them.
    pub requests: Vec<&'a [u8]>,
    pub seed: u64,
    pub cache_entries: usize,
    /// Share of the traced loopback requests answered from the cache.
    pub hit_ratio: f64,
    pub traced_p50_us: f64,
}

/// The hit list as the server renders it: provenance looked up per hit.
fn hits_json(container: &IndexContainer, outcome: &SearchOutcome) -> Json {
    Json::Arr(
        outcome
            .hits
            .iter()
            .map(|hit| {
                let (table, column, size) = container.provenance(hit.id);
                Json::obj(vec![
                    ("id", Json::uint(u64::from(hit.id))),
                    ("table", Json::str(table)),
                    ("column", Json::str(column)),
                    ("size", Json::uint(size)),
                    ("estimate", hit.estimate.map_or(Json::Null, Json::num)),
                ])
            })
            .collect(),
    )
}

/// The corpus loaded into the structures the server builds from it.
struct Loaded {
    hasher: MinHasher,
    config: EnsembleConfig,
    signatures: Vec<Signature>,
    ranked: RankedIndex,
    container: IndexContainer,
    /// The container saved as the server's `.lshe` file.
    index: PathBuf,
}

impl Replay<'_> {
    pub fn run(&self, trace: &mut Trace) -> io::Result<Vec<Metric>> {
        let mut out = Vec::new();
        let loaded = self.set_up_stages(&mut out)?;
        let engine = Engine::load(&loaded.index, 1).map_err(other)?;
        let sample = self.request_stages(&loaded, &engine, trace, &mut out)?;
        self.write_stages(&loaded, &engine, &mut out)?;
        self.store_stages(&loaded, &sample, &mut out)?;
        Ok(out)
    }

    /// Set-up, stage by stage: sketch, partition + forests, save, load.
    fn set_up_stages(&self, out: &mut Vec<Metric>) -> io::Result<Loaded> {
        let hasher = MinHasher::new(DEFAULT_NUM_PERM);
        let config = EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth {
                n: config::PARTITIONS,
            },
            ..EnsembleConfig::default()
        };
        let pairs = &self.corpus.pairs;
        let sets: Vec<&[u64]> = pairs.iter().map(|(d, _)| d.hashes()).collect();
        let (signatures, bulk_sketch_s) = timed(|| hasher.bulk_signatures(&sets));
        let (ranked, build_s) = timed(|| {
            let mut builder = RankedIndex::builder_with(config);
            for ((id, (domain, _)), sig) in (0u32..).zip(pairs).zip(&signatures) {
                builder.add(id, domain.len() as u64, sig.clone());
            }
            builder.build()
        });
        let container =
            IndexContainer::from_stream(pairs.iter().cloned(), config::PARTITIONS, true);
        let index = self.work_dir.join("replay.lshe");
        let (saved, save_s) = timed(|| std::fs::write(&index, container.to_bytes()));
        saved?;
        let (loaded, load_s) = timed(|| IndexContainer::load(&index));
        drop(loaded.map_err(other)?);
        let vectorised = FoldKernel::new(hasher.family().permutations()).is_vectorised();
        out.extend([
            metric("minhash.bulk_sketch_s", bulk_sketch_s, "s"),
            metric("core.build_s", build_s, "s"),
            metric("serve.container.save_s", save_s, "s"),
            metric("serve.container.load_s", load_s, "s"),
            metric(
                "minhash.kernel_vectorised",
                f64::from(u8::from(vectorised)),
                "count",
            ),
        ]);
        Ok(Loaded {
            hasher,
            config,
            signatures,
            ranked,
            container,
            index,
        })
    }

    /// The request path, stage by stage, over the sampled requests.
    /// Returns each request's sketch and size, for the store comparison.
    fn request_stages(
        &self,
        loaded: &Loaded,
        engine: &Engine,
        trace: &mut Trace,
        out: &mut Vec<Metric>,
    ) -> io::Result<Vec<(Signature, u64)>> {
        let Loaded {
            hasher,
            config,
            signatures,
            ranked,
            ..
        } = loaded;
        let pairs = &self.corpus.pairs;
        let partitions = ranked.ensemble().partition_stats();

        // One forest over the sketches of the most populous partition.
        let partition = *partitions
            .iter()
            .max_by_key(|p| p.count)
            .expect("the index has partitions");
        let members: Vec<(u32, &Signature)> = (0u32..)
            .zip(pairs)
            .zip(signatures)
            .filter(|((_, (d, _)), _)| {
                (partition.lower..=partition.upper).contains(&(d.len() as u64))
            })
            .map(|((id, _), sig)| (id, sig))
            .take(partition.count)
            .collect();
        let (forest, forest_build_s) = timed(|| {
            let mut forest = LshForest::new(config.b_max, config.r_max);
            for (id, sig) in &members {
                forest.insert(*id, sig);
            }
            forest.commit();
            forest
        });
        out.push(metric(
            "lsh.forest.build_ns_per_domain",
            forest_build_s * 1e9 / members.len() as f64,
            "ns",
        ));

        let snapshot = engine.snapshot();
        let tuner = Tuner::new(config.b_max as u32, config.r_max as u32);
        let cache: LruCache<QueryKey, Arc<SearchOutcome>> = LruCache::new(self.cache_entries);
        let mut clock = Clock {
            trace,
            samples: vec![Vec::new(); STAGES],
        };
        let mut parser = RequestParser::new();
        let mut scratch = String::new();
        let mut candidates = Vec::new();
        let (mut body_bytes, mut values_total) = (0usize, 0usize);
        let mut sketch_ns_per_value = Vec::with_capacity(self.requests.len());
        let mut sample = Vec::with_capacity(self.requests.len());
        // Two passes: the first warms the tuner memo, the allocator and
        // the caches, as the loopback warm-up does; only the second counts.
        let spans_before = clock.trace.spans.len();
        for pass in 0..2 {
            let keep = pass == 1;
            if keep {
                clock.trace.spans.truncate(spans_before);
                clock.samples.iter_mut().for_each(Vec::clear);
            }
            for (n, raw) in self.requests.iter().enumerate() {
                let id = REPLAY_REQUEST_BASE + n as u64;
                let started = Instant::now();

                let request = clock
                    .time(id, HTTP_PARSE, || {
                        parser.feed(raw);
                        parser.next_request()
                    })
                    .map_err(|e| other(format!("{e:?}")))?
                    .ok_or_else(|| other("a replayed request did not parse whole"))?;
                let body = std::str::from_utf8(&request.body).map_err(other)?;
                let json = clock
                    .time(id, JSON_PARSE, || Json::parse(body))
                    .map_err(other)?;
                let strs: Vec<&str> = json
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| other("a replayed request has no values"))?
                    .iter()
                    .filter_map(Json::as_str)
                    .collect();
                let sig = clock.time(id, SKETCH, || {
                    hasher.signature_of_strs(strs.iter().copied())
                });
                let sketch_ns = *clock.last_ns(SKETCH);
                let domain = Domain::from_strs(strs.iter().copied());
                let q = domain.len() as u64;
                let (key, cached) = clock.time(id, CACHE, || {
                    let key = QueryKey {
                        digest: signature_digest(domain.hashes()),
                        query_size: q,
                        threshold_bits: T_STAR.to_bits(),
                        k: 0,
                        debug: false,
                        generation: snapshot.generation(),
                    };
                    let cached = cache.get(&key);
                    (key, cached)
                });

                let query = Query::threshold(&sig, T_STAR).with_size(q);
                let outcome = clock
                    .time(id, ENGINE_QUERY, || snapshot.query(&query))
                    .map_err(other)?;
                let probed = clock.time(id, PROBE, || {
                    ranked.ensemble().query_with_size(&sig, q, T_STAR)
                });
                // Every partition the query can reach is tuned for.
                clock.time(id, TUNING, || {
                    for p in &partitions {
                        if p.upper as f64 >= T_STAR * q as f64 {
                            black_box(tuner.optimize(p.upper, q, T_STAR));
                        }
                    }
                });
                let params = tuner.optimize(partition.upper, q, T_STAR);
                clock.time(id, FOREST, || {
                    candidates.clear();
                    forest.query_into(&sig, params.b as usize, params.r as usize, &mut candidates);
                });
                clock.time(id, VERIFY, || ranked.rank_candidates(probed, &sig, q));
                clock.time(id, RENDER, || {
                    scratch.clear();
                    hits_json(snapshot.container(), &outcome).render_into(&mut scratch);
                });
                if cached.is_none() {
                    // A miss also pays for the insert; charge it to the
                    // cache stage's sample of this request.
                    let at = Instant::now();
                    cache.insert(key, Arc::new(outcome));
                    *clock.last_ns(CACHE) += at.elapsed().as_nanos() as f64;
                }
                clock.record(id, REQUEST, started, Instant::now());
                if keep {
                    body_bytes += body.len();
                    values_total += strs.len();
                    sketch_ns_per_value.push(sketch_ns / strs.len().max(1) as f64);
                    sample.push((sig, q));
                }
            }
        }
        let n = self.requests.len().max(1) as f64;
        let ns = |stage| clock.median_ns(stage);
        // What blocks a response inside the server process. A cache hit
        // skips the sketch and the search.
        let miss_share = 1.0 - self.hit_ratio;
        let stages_us = (ns(HTTP_PARSE)
            + ns(JSON_PARSE)
            + ns(CACHE)
            + ns(RENDER)
            + miss_share * (ns(SKETCH) + ns(ENGINE_QUERY)))
            / 1e3;
        out.extend([
            metric("serve.http.parse_ns", ns(HTTP_PARSE), "ns"),
            metric("serve.json.parse_ns", ns(JSON_PARSE), "ns"),
            metric("serve.json.bytes_per_request", body_bytes as f64 / n, "B"),
            metric("minhash.sketch_ns", ns(SKETCH), "ns"),
            metric(
                "minhash.sketch_ns_per_value",
                median(&sketch_ns_per_value).unwrap_or(0.0),
                "ns",
            ),
            metric(
                "minhash.values_per_request",
                values_total as f64 / n,
                "count",
            ),
            metric("serve.cache.lookup_ns", ns(CACHE), "ns"),
            metric("core.tuning.optimize_ns", ns(TUNING), "ns"),
            metric("core.ensemble.probe_ns", ns(PROBE), "ns"),
            metric("lsh.forest.query_ns", ns(FOREST), "ns"),
            metric("core.ranked.verify_ns", ns(VERIFY), "ns"),
            metric("serve.engine.query_ns", ns(ENGINE_QUERY), "ns"),
            metric("serve.json.render_ns", ns(RENDER), "ns"),
            metric("serve.stages_us", stages_us, "us"),
            metric(
                "serve.reactor.residual_us",
                self.traced_p50_us - stages_us,
                "us",
            ),
        ]);
        Ok(sample)
    }

    /// The write path: stage, log, seal, merge. Four batches of fresh
    /// domains against the same index.
    fn write_stages(
        &self,
        loaded: &Loaded,
        engine: &Engine,
        out: &mut Vec<Metric>,
    ) -> io::Result<()> {
        let fresh = Corpus::generate(
            4 * config::BATCH_INSERTS,
            self.seed ^ 0x001A_7E55,
            config::INSERT_SIZES,
        );
        let log = DeltaLog::at(self.work_dir.join("replay.append.delta"));
        let (mut stage_ns, mut append_ns, mut commit_ns) = (Vec::new(), Vec::new(), Vec::new());
        for (k, (domain, meta)) in fresh.pairs.iter().enumerate() {
            let signature = loaded.hasher.signature(domain.hashes().iter().copied());
            let size = domain.len() as u64;
            let record = DomainRecord {
                id: engine.next_id(),
                size,
                table: meta.table.clone(),
                column: meta.column.clone(),
            };
            let op = DeltaOp::Insert {
                record,
                signature: signature.clone(),
            };
            let (appended, secs) = timed(|| log.append(&op, engine.next_id()));
            appended?;
            append_ns.push(secs * 1e9);
            let (table, column) = (meta.table.clone(), meta.column.clone());
            let (staged, secs) = timed(|| engine.stage_insert(table, column, size, signature));
            staged.map_err(other)?;
            stage_ns.push(secs * 1e9);
            if (k + 1) % config::BATCH_INSERTS == 0 {
                let (committed, secs) = timed(|| engine.commit_staged());
                committed.map_err(other)?;
                commit_ns.push(secs * 1e9);
            }
        }
        let mut merged = engine.snapshot().container().clone();
        let segments = merged.segment_layout().segments.len();
        let task = MergeTask::Merge((0..segments).collect());
        let (merge, merge_s) = timed(|| merged.apply_merge(&task));
        let median_ns = |samples: &[f64]| median(samples).unwrap_or(0.0);
        out.extend([
            metric("serve.engine.stage_insert_ns", median_ns(&stage_ns), "ns"),
            metric("serve.container.log_append_ns", median_ns(&append_ns), "ns"),
            metric("serve.engine.commit_ns", median_ns(&commit_ns), "ns"),
            metric(
                "core.merge_ns_per_entry",
                merge_s * 1e9 / merge.entries_folded.max(1) as f64,
                "ns",
            ),
        ]);
        Ok(())
    }

    /// The packed, mapped store against the heap index, same queries.
    fn store_stages(
        &self,
        loaded: &Loaded,
        sample: &[(Signature, u64)],
        out: &mut Vec<Metric>,
    ) -> io::Result<()> {
        let packed = self.work_dir.join("replay.lshepk");
        let (pack, pack_s) = timed(|| loaded.container.pack_v2(&packed));
        pack.map_err(other)?;
        let mut open_us = Vec::new();
        for _ in 0..50 {
            let (opened, secs) = timed(|| MmapIndex::open(&packed));
            opened.map_err(other)?;
            open_us.push(secs * 1e6);
        }
        let mut verify_ms = Vec::new();
        for _ in 0..3 {
            let (opened, secs) = timed(|| MmapIndex::open_verified(&packed));
            opened.map_err(other)?;
            verify_ms.push(secs * 1e3);
        }
        let mapped = MmapIndex::open(&packed).map_err(other)?;
        let search_ns = |index: &dyn DomainIndex| -> io::Result<f64> {
            let mut samples = Vec::with_capacity(sample.len());
            for (sig, q) in sample {
                let query = Query::threshold(sig, T_STAR).with_size(*q);
                let (found, secs) = timed(|| index.search(&query));
                found.map_err(other)?;
                samples.push(secs * 1e9);
            }
            Ok(median(&samples).unwrap_or(0.0))
        };
        // Mapped pages fault in on first touch; time the second sweep.
        search_ns(&mapped)?;
        let (mapped_ns, heap_ns) = (search_ns(&mapped)?, search_ns(&loaded.ranked)?);
        out.extend([
            metric("store.pack_s", pack_s, "s"),
            metric("store.open_us", median(&open_us).unwrap_or(0.0), "us"),
            metric("store.verify_ms", median(&verify_ms).unwrap_or(0.0), "ms"),
            metric(
                "store.mmap_query_ratio",
                if heap_ns > 0.0 {
                    mapped_ns / heap_ns
                } else {
                    0.0
                },
                "ratio",
            ),
        ]);
        Ok(())
    }
}
