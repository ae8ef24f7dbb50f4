//! Lane-budget regression guard for the parallel query paths.
//!
//! History: the original parallel probe spawned one thread per partition
//! on every call, which benchmarked ~12× SLOWER than the sequential probe
//! on a small host. The parallel probe (`Query::with_parallel`) and the
//! batched sweep (`search_batch`) now go through the process-wide lane
//! budget (`lshe_minhash::lanes`): with no spare lanes they must degrade
//! to the inline sequential code path — same results, no thread spawned,
//! and within noise of sequential latency instead of an order of
//! magnitude behind it.

use lshe_core::{
    DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, SearchOutcome, Unranked,
};
use lshe_minhash::{MinHasher, Signature};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Every test here either drains the process-wide lane budget or counts
/// the process's threads, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The raw candidate set with the parallel hint set: partitions fan out
/// across whatever lanes the budget yields.
fn parallel_probe(ens: &LshEnsemble, sig: &Signature, size: u64, t_star: f64) -> Vec<u32> {
    let query = Query::threshold(sig, t_star)
        .with_size(size)
        .with_parallel(true);
    Unranked(ens).search(&query).expect("valid query").ids()
}

fn build_32p(num_domains: usize) -> (LshEnsemble, Vec<lshe_minhash::Signature>, Vec<u64>) {
    let hasher = MinHasher::new(256);
    let corpus = lshe_bench::workload::build_perf_corpus(num_domains, 9, &hasher);
    let ids: Vec<u32> = (0..corpus.sizes.len() as u32).collect();
    let sig_refs: Vec<&lshe_minhash::Signature> = corpus.signatures.iter().collect();
    let ens = LshEnsemble::build_from_parts(
        EnsembleConfig {
            strategy: PartitionStrategy::EquiDepth { n: 32 },
            ..EnsembleConfig::default()
        },
        &ids,
        &corpus.sizes,
        &sig_refs,
    );
    (ens, corpus.signatures, corpus.sizes)
}

/// Minimum wall time of `runs` invocations — the standard noise filter
/// for micro-timing (the minimum is the run least disturbed by the OS).
fn min_time(runs: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

#[test]
fn parallel_path_degrades_inline_when_budget_is_empty() {
    let _serial = serial();
    let (ens, signatures, sizes) = build_32p(8_000);
    let q = 4_321usize;

    // Drain the whole lane budget so `run_chunked` cannot take extras:
    // the parallel probe must run inline on the calling thread.
    let _hog = lshe_minhash::lanes::acquire(usize::MAX);

    // Identical results either way, budget or no budget.
    let seq = ens.query_with_size(&signatures[q], sizes[q], 0.5);
    let par = parallel_probe(&ens, &signatures[q], sizes[q], 0.5);
    assert_eq!(seq, par, "inline-degraded parallel probe changed results");

    // Warm both paths, then compare min-of-N wall times. The old
    // thread-per-partition code was ~12× slower; the inline-degraded
    // path does the same work as sequential plus one atomic acquire, so
    // 1.5× is a generous bound that still catches any respawn
    // regression by an order of magnitude. The whole comparison retries
    // a few times because this test shares the machine with the rest of
    // the suite — one quiet window is enough to prove the paths match,
    // while a genuine respawn regression fails every attempt.
    const RUNS: usize = 30;
    const ATTEMPTS: usize = 6;
    for _ in 0..5 {
        std::hint::black_box(ens.query_with_size(&signatures[q], sizes[q], 0.5));
        std::hint::black_box(parallel_probe(&ens, &signatures[q], sizes[q], 0.5));
    }
    // Floor the denominator so a sub-microsecond sequential probe can't
    // turn scheduler jitter into a spurious ratio failure.
    let floor = Duration::from_micros(20);
    let mut attempts = Vec::new();
    for _ in 0..ATTEMPTS {
        let t_seq = min_time(RUNS, || {
            std::hint::black_box(ens.query_with_size(&signatures[q], sizes[q], 0.5));
        });
        let t_par = min_time(RUNS, || {
            std::hint::black_box(parallel_probe(&ens, &signatures[q], sizes[q], 0.5));
        });
        if t_par <= t_seq.max(floor) * 3 / 2 {
            return;
        }
        attempts.push((t_par, t_seq));
    }
    panic!(
        "budget-starved parallel probe should match sequential on at least \
         one of {ATTEMPTS} attempts: (parallel, sequential) = {attempts:?}"
    );
}

#[test]
fn parallel_path_matches_sequential_results_with_budget() {
    let _serial = serial();
    // With the budget intact (whatever this host offers), chunked
    // fan-out must never change the answer — for several queries and
    // thresholds, including ones with zero hits.
    let (ens, signatures, sizes) = build_32p(4_000);
    for q in [7usize, 999, 2_500, 3_999] {
        for t in [0.3, 0.5, 0.9, 1.0] {
            assert_eq!(
                ens.query_with_size(&signatures[q], sizes[q], t),
                parallel_probe(&ens, &signatures[q], sizes[q], t),
                "q={q} t={t}"
            );
        }
    }
}

/// Threads alive in this process that carry the calling thread's name.
/// An unnamed thread inherits its creator's, so this counts the calling
/// test's thread and every thread it spawned, and leaves out the threads
/// the test harness starts or retires for other tests meanwhile.
fn threads_named_like_this_one() -> usize {
    let mine = std::fs::read_to_string("/proc/thread-self/comm").expect("procfs");
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| *name == mine)
        .count()
}

fn answer(outcome: SearchOutcome) -> (Vec<(u32, Option<f64>)>, [usize; 4]) {
    let s = outcome.stats;
    let counters = [
        s.partitions_probed,
        s.partitions_total,
        s.candidates,
        s.survivors,
    ];
    (outcome.into_pairs(), counters)
}

#[test]
fn parallel_search_and_batch_spawn_nothing_when_budget_is_empty() {
    let _serial = serial();
    let (index, signatures, sizes) = build_32p(2_000);
    // 32 partitions and 40 queries: enough items for both paths to take
    // extra lanes whenever the budget has any.
    let queries: Vec<Query<'_>> = (0..40)
        .map(|i| {
            let q = i * 47;
            Query::threshold(&signatures[q], 0.5)
                .with_size(sizes[q])
                .with_parallel(true)
        })
        .collect();
    let run = || -> Vec<_> {
        let single = queries.iter().map(|q| index.search(q));
        let batched = index.search_batch(&queries);
        single
            .chain(batched)
            .map(|outcome| answer(outcome.expect("valid query")))
            .collect()
    };
    // Whatever lanes this host offers.
    let reference = run();

    let _hog = lshe_minhash::lanes::acquire(usize::MAX);
    assert_eq!(
        lshe_minhash::lanes::acquire(1).lanes(),
        1,
        "the budget must be exhausted for this test to mean anything"
    );
    let before = threads_named_like_this_one();
    let done = AtomicBool::new(false);
    let peak = std::thread::scope(|scope| {
        let census = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(threads_named_like_this_one());
            }
            // The census thread does not count itself.
            peak - 1
        });
        for _ in 0..20 {
            assert_eq!(run(), reference, "a starved lane budget changed answers");
        }
        done.store(true, Ordering::Relaxed);
        census.join().expect("census thread")
    });
    assert_eq!(
        peak, before,
        "{peak} threads alive during starved parallel queries, {before} before"
    );
}
