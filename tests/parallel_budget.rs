//! Lane-budget regression guard for the batched query path.
//!
//! The batched sweep (`search_batch`) takes its extra lanes from the
//! process-wide budget (`lshe_minhash::lanes`), never a thread per
//! partition, so a small or saturated host is not slowed by spawns: with
//! no spare lanes it must run inline — same results, no thread spawned.

use lshe_core::{
    DomainIndex, EnsembleConfig, LshEnsemble, PartitionStrategy, Query, SearchOutcome,
};
use lshe_minhash::{MinHasher, Signature};
use std::sync::atomic::{AtomicBool, Ordering};

fn build_32p(num_domains: usize) -> (LshEnsemble, Vec<Signature>, Vec<u64>) {
    let hasher = MinHasher::new(256);
    let corpus = lshe_bench::workload::build_perf_corpus(num_domains, 9, &hasher);
    let ids: Vec<u32> = (0..corpus.sizes.len() as u32).collect();
    let sig_refs: Vec<&Signature> = corpus.signatures.iter().collect();
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
    let (index, signatures, sizes) = build_32p(2_000);
    // 40 queries: enough for the batched sweep to take extra lanes
    // whenever the budget has any.
    let queries: Vec<Query<'_>> = (0..40)
        .map(|i| {
            let q = i * 47;
            Query::threshold(&signatures[q], 0.5).with_size(sizes[q])
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
        "{peak} threads alive during starved queries, {before} before"
    );
}
