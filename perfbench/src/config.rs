//! The fixed configuration. Nothing here is derived at run time from the
//! machine or from a measurement: a run's inputs and its amount of work
//! are a pure function of `(workload, seed, seconds, scale)`.
//!
//! Load: closed loop, because callers of a search API wait for the reply.
//! Read workloads have `READ_CONNECTIONS` callers (one per core), each on
//! its own loopback connection with one request in flight; `ingest-mixed`
//! has one, so that the ids the server assigns follow the script.

use lshe_serve::json::Json;

/// Containment threshold t* of every query (the paper's Fig. 4 regime).
pub const T_STAR: f64 = 0.5;
/// Equi-depth partitions of the index (`IndexContainer::from_stream`).
pub const PARTITIONS: usize = 32;
/// `lshe serve --threads`: one compute lane per core of the 2-core box.
pub const SERVER_THREADS: usize = 2;
/// `lshe serve --cache`: LRU entries. The workloads are sized against it.
pub const CACHE_ENTRIES: usize = 1024;
/// `lshe serve --merge-policy`.
pub const MERGE_POLICY: &str = "leveled";

/// Domains indexed for the three read workloads (same corpus, so only the
/// query mix differs) and as the base of `ingest-mixed`.
pub const READ_DOMAINS: usize = 50_000;
pub const INGEST_BASE_DOMAINS: usize = 20_000;

/// Connections of a read workload, one closed-loop caller each.
pub const READ_CONNECTIONS: usize = 2;

/// Set-up (build, save, spawn, load) is repeated and the median reported:
/// it is one-shot wall time, and the first set-up of a run also pays for
/// allocating the index file the later ones overwrite.
pub const SETUP_REPEATS: usize = 3;
/// The measured phase of a read workload is this many equal windows, after
/// one unmeasured warm-up window of the same size.
pub const WINDOWS: usize = 10;
/// `ingest-mixed` warm-up batches before timing starts.
pub const WARMUP_BATCHES: usize = 4;
/// A run whose `recall` is below this is not correct (the paper's Fig. 4
/// regime at t* = 0.5 stays well above it).
pub const RECALL_FLOOR: f64 = 0.95;
/// Requests replayed stage by stage, in process, by a traced run.
pub const REPLAY_SAMPLE: usize = 2000;
/// A traced run drives the loopback phase at this share of full length.
pub const TRACE_LENGTH_SHARE: f64 = 0.25;
/// A measured phase is fixed work; this only stops a run on a machine so
/// much slower than the calibration box that it would never end.
pub const PHASE_DEADLINE_FACTOR: f64 = 6.0;

/// Query sizes of `probe-small` / `cache-hot` / `ingest-mixed` queries.
pub const SMALL_QUERY_SIZES: std::ops::RangeInclusive<usize> = 10..=100;
/// `sketch-large` queries hold this many values. Each is a subset of an
/// indexed domain of `LARGE_PARENT_SIZES` values that keeps at least
/// `LARGE_KEPT_SHARE` of it: a large column republished with rows missing.
/// (A power-law corpus of 50,000 domains holds about fifteen such parents,
/// so queries share parents; each is its own draw and its own sketch.)
pub const LARGE_QUERY_SIZES: std::ops::RangeInclusive<usize> = 2048..=4096;
pub const LARGE_PARENT_SIZES: std::ops::RangeInclusive<usize> = 2048..=5461;
pub const LARGE_KEPT_SHARE: f64 = 0.75;
/// Sizes of the fresh domains `ingest-mixed` inserts.
pub const INSERT_SIZES: std::ops::RangeInclusive<u64> = 10..=1024;

/// One batch of `ingest-mixed`: `INSERTS × [insert, QUERIES_PER_INSERT
/// queries]`, `REMOVES × [remove, 1 query]`, `/commit`, `QUERIES_AFTER_COMMIT`
/// queries that overlap the merge the commit woke, then wait for idle.
pub const BATCH_INSERTS: usize = 64;
pub const QUERIES_PER_INSERT: usize = 6;
pub const BATCH_REMOVES: usize = 16;
pub const QUERIES_AFTER_COMMIT: usize = 8;

/// `BENCHMARK.json` is the one place the metrics, their units, their
/// bounds and the workloads' reasons are declared. It is compiled in, so
/// the program and the file the driver reads cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// An end-to-end metric: what a user of the server pays or gets.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Reported by an untraced run.
    pub end_to_end: Vec<EndToEnd>,
    /// Name and unit of what a traced run reports.
    pub per_layer: Vec<(String, String)>,
    /// Name and one-line reason of each workload.
    pub workloads: Vec<(String, String)>,
}

impl Declared {
    pub fn load() -> Self {
        let json = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<Json> {
            let items = json.get(key).and_then(Json::as_array);
            items
                .unwrap_or_else(|| panic!("BENCHMARK.json has a list {key}"))
                .to_vec()
        };
        let text = |item: &Json, key: &str| -> String {
            let value = item.get(key).and_then(Json::as_str);
            value
                .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key}"))
                .to_owned()
        };
        Self {
            end_to_end: list("end_to_end")
                .iter()
                .map(|m| EndToEnd {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .expect("BENCHMARK.json: an end-to-end metric lacks its bound"),
                })
                .collect(),
            per_layer: list("per_layer")
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect(),
            workloads: list("workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProbeSmall,
    SketchLarge,
    CacheHot,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProbeSmall,
        Workload::SketchLarge,
        Workload::CacheHot,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProbeSmall => "probe-small",
            Workload::SketchLarge => "sketch-large",
            Workload::CacheHot => "cache-hot",
            Workload::IngestMixed => "ingest-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct queries as a multiple of the LRU's capacity. 3× and 2.5×,
    /// cycled: each connection alone sends more distinct queries between
    /// two sendings of the same one than the LRU holds, so every request
    /// misses. ¼×: every request after warm-up hits. (A 50,000-domain
    /// corpus holds about 3,800 distinct domains of 10–100 values, which
    /// caps `probe-small` at 3×.)
    fn distinct_per_cache_entry(self) -> f64 {
        match self {
            Workload::ProbeSmall => 3.0,
            Workload::SketchLarge => 2.5,
            Workload::CacheHot => 0.25,
            Workload::IngestMixed => 1.0,
        }
    }

    /// Work per second of `--seconds`: requests (read workloads) or batches
    /// (`ingest-mixed`). Calibrated once on the machine named in
    /// `NOISE.json`, whose speed wanders by a factor of two: `--seconds 20`
    /// measures for about 20 s in its slow phases and 11 s in its fast
    /// ones, and the driver's 92 runs fit its time limit in either. A
    /// faster program finishes sooner, it is not given more work.
    fn work_per_second(self) -> f64 {
        match self {
            Workload::ProbeSmall => 4_500.0,
            Workload::SketchLarge => 450.0,
            Workload::CacheHot => 14_000.0,
            Workload::IngestMixed => 0.6,
        }
    }

    /// Queries whose served hits are compared with `ExactIndex::search`:
    /// the workload's own distinct queries first, then more of the same
    /// kind. With 2,560 small queries the spread of `recall` between seeds
    /// is a third of its 1% bound (`cache-hot`'s own 256 alone gave 1%);
    /// a large query costs ten times a small one and finds its parent
    /// every time, so fewer do.
    fn recall_sample(self) -> usize {
        match self {
            Workload::SketchLarge => 1024,
            _ => 2560,
        }
    }
}

/// How much of everything one run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    pub domains: usize,
    /// `lshe serve --cache`.
    pub cache_entries: usize,
    pub distinct_queries: usize,
    /// Read workloads: requests in each window. `ingest-mixed`: unused (0).
    pub window_requests: usize,
    /// `ingest-mixed`: measured batches. Read workloads: unused (0).
    pub batches: usize,
    pub recall_sample: usize,
    pub replay_sample: usize,
}

impl Sizes {
    /// `scale` shrinks the corpus and the work together and is for smoke
    /// runs only; `length_share` shortens only the driven phase (traced
    /// runs).
    pub fn new(workload: Workload, seconds: f64, scale: f64, length_share: f64) -> Self {
        let scaled = |n: usize, floor: usize| ((n as f64 * scale).round() as usize).max(floor);
        let work = workload.work_per_second() * seconds * scale * length_share;
        let (domains, window_requests, batches) = match workload {
            Workload::IngestMixed => (
                scaled(INGEST_BASE_DOMAINS, 500),
                0,
                (work.round() as usize).max(2),
            ),
            _ => {
                let lanes = READ_CONNECTIONS;
                let per_window = (work / (WINDOWS * lanes) as f64).round() as usize * lanes;
                (scaled(READ_DOMAINS, 500), per_window.max(4 * lanes), 0)
            }
        };
        let cache_entries = scaled(CACHE_ENTRIES, 16);
        let distinct = workload.distinct_per_cache_entry() * cache_entries as f64;
        Self {
            domains,
            cache_entries,
            distinct_queries: distinct.round() as usize,
            window_requests,
            batches,
            recall_sample: scaled(workload.recall_sample(), 16),
            replay_sample: scaled(REPLAY_SAMPLE, 32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workloads the driver will ask for are the ones implemented,
    /// the benchmark's files are where `paths` says, and set-up time has
    /// the widest bound (it is one-shot wall time).
    #[test]
    fn benchmark_json_declares_what_the_program_implements() {
        let declared = Declared::load();
        let names: Vec<&str> = declared.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let implemented: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, implemented);
        let json = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(
            json.get("paths").map(Json::render).as_deref(),
            Some("[\"perfbench\"]")
        );
        let widest = declared
            .end_to_end
            .iter()
            .map(|m| m.bound)
            .fold(0.0, f64::max);
        let setup = declared
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!((setup.unit.as_str(), setup.bound), ("s", widest));
        let others = declared.end_to_end.iter().filter(|m| m.name != "setup_s");
        assert!(others.into_iter().all(|m| m.bound <= 0.1));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("probe"), None);
    }

    #[test]
    fn work_scales_with_seconds_and_windows_split_evenly() {
        let twenty = Sizes::new(Workload::ProbeSmall, 20.0, 1.0, 1.0);
        let forty = Sizes::new(Workload::ProbeSmall, 40.0, 1.0, 1.0);
        assert_eq!(forty.window_requests, 2 * twenty.window_requests);
        assert_eq!(twenty.domains, forty.domains);
        assert_eq!(twenty.window_requests % READ_CONNECTIONS, 0);
        let traced = Sizes::new(Workload::ProbeSmall, 20.0, 1.0, TRACE_LENGTH_SHARE);
        assert_eq!(traced.domains, twenty.domains);
        assert_eq!(4 * traced.window_requests, twenty.window_requests);
        let ingest = Sizes::new(Workload::IngestMixed, 20.0, 1.0, 1.0);
        assert_eq!((ingest.batches, ingest.window_requests), (12, 0));
    }
}
