//! Mutation-path benchmark: segmented commit (seal, O(batch)) versus the
//! stop-the-world rebuild (compact, O(corpus)) across a 10× corpus sweep —
//! the numbers behind `BENCH_mutation.json`.
//!
//! ```text
//! cargo run --release -p lshe-bench --bin mutation_path > mutation.out
//! cargo run --release -p lshe-bench --bin bench_gate -- mutation.out
//! ```
//!
//! Two TSV tables, then one JSON document on the last line,
//! `{"mutation": {"params", "metrics"}}`, that `bench_gate` holds to its
//! mutation bars.
//!
//! Each sweep point streams a WDC-like corpus into a ranked
//! `IndexContainer`, makes one delta batch (inserts plus removals of
//! earlier live inserts), and times the paths that can absorb it:
//!
//! * `commit_seal` — `IndexContainer::commit(&ops)`: the batch is
//!   validated, its inserts sealed into an immutable segment and its
//!   removes tombstoned; the base partitioning is not touched. The
//!   index-level step alone, on a container nothing shares.
//! * `engine_commit` — `Engine::commit_staged`: what `POST /commit` runs.
//!   The live snapshot's container is cloned (pointers to the base, copies
//!   of the overlays), the staged ops committed as one batch, and the new
//!   snapshot swapped in.
//! * `compact_rebuild` — `IndexContainer::compact_index`: segments and
//!   tombstones fold into the base, which is rebuilt from the retained
//!   sketches. This is exactly what every commit used to pay, now run off
//!   the commit path (background merger, `lshe compact`).
//!
//! The bars `bench_gate` checks are ratios over the sweep: seal and
//! engine-commit latency must stay flat (≤2× from the smallest to the 10×
//! corpus — they only depend on the delta), while the rebuild must grow
//! with the corpus (≥4× across the sweep, i.e. visibly linear), proving the
//! O(corpus) work really left the commit path. The sweep continues to a
//! 20× point so the flatness claim is also observed past the gated range.
//!
//! A second section replays a churn of sealed deltas, drains the
//! [`Leveled`] plans after each commit, and accumulates the entries the
//! merges rewrite — the write amplification `bench_gate` bounds: leveled
//! folds rewrite each entry about once per level it climbs.

use lshe_bench::{report, workload, Args};
use lshe_core::Leveled;
use lshe_corpus::Json;
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::MinHasher;
use lshe_serve::container::{DeltaOp, DomainRecord, IndexContainer};
use lshe_serve::Engine;

/// The sweep's corpus sizes, as multiples of `--domains`: the gated
/// ratios are taken at 10×, and 20× extends the sweep past them.
const SWEEP: [f64; 5] = [1.0, 2.0, 4.0, 10.0, 20.0];

/// One delta batch: `batch` inserts of fresh synthetic domains and
/// `batch / 4` removals of live ids from the previous round, so sealing
/// covers both tombstone creation and segment build.
fn staged_batch(
    hasher: &MinHasher,
    first_id: u32,
    batch: usize,
    previous: &[u32],
) -> (Vec<DeltaOp>, Vec<u32>) {
    let mut ops = Vec::with_capacity(batch + batch / 4);
    let mut live = Vec::with_capacity(batch);
    for k in 0..batch {
        let id = first_id + k as u32;
        let values = (0..40u64).map(|j| (u64::from(id) << 20) | j);
        ops.push(DeltaOp::Insert {
            record: DomainRecord {
                id,
                size: 40,
                table: "live".to_owned(),
                column: "col".to_owned(),
            },
            signature: hasher.signature(values),
        });
        live.push(id);
    }
    for id in previous.iter().take(batch / 4) {
        ops.push(DeltaOp::Remove { id: *id });
    }
    (ops, live)
}

/// Replays `commits` rounds of staged-delta churn against a fresh
/// `domains`-sized corpus, draining the leveled merge plans after every
/// commit exactly like the maintenance thread does (re-plan after each
/// executed round until quiescent). Returns the total entries rewritten
/// by those merges and the merge count.
fn churn_fold_entries(
    domains: usize,
    partitions: usize,
    seed: u64,
    batch: usize,
    commits: usize,
) -> (usize, usize) {
    let mut config = CorpusConfig::wdc_web_tables_like(domains);
    config.seed = seed;
    let mut container = IndexContainer::from_stream(CorpusStream::new(config), partitions, true);
    let hasher = MinHasher::new(container.num_perm());
    let planner = Leveled::default();

    let mut folded = 0usize;
    let mut merges = 0usize;
    let mut previous: Vec<u32> = Vec::new();
    for _ in 0..commits {
        let (ops, live) = staged_batch(&hasher, container.next_id(), batch, &previous);
        let report = container.commit(&ops).expect("commit delta");
        assert!(report.sealed, "commit must seal a non-empty delta");
        previous = live;

        let mut rounds = 0;
        loop {
            let tasks = planner.plan(&container.segment_layout());
            if tasks.is_empty() {
                break;
            }
            rounds += 1;
            assert!(rounds < 64, "merge plans must converge");
            for task in &tasks {
                let outcome = container.apply_merge(task);
                folded += outcome.entries_folded;
                merges += 1;
            }
        }
        let layout = container.segment_layout();
        assert!(
            layout.segments.len() <= planner.segment_bound(layout.len + layout.tombstones),
            "drained layout must respect the planner's segment bound"
        );
    }
    (folded, merges)
}

fn main() {
    let args = Args::from_env(&[
        "scale",
        "domains",
        "batch",
        "repeats",
        "partitions",
        "seed",
        "churn_commits",
    ]);
    let scale = args.get_f64("scale", 1.0);
    let base = (args.get_usize("domains", 2_000) as f64 * scale).round() as usize;
    let batch = args.get_usize("batch", 64);
    let repeats = args.get_usize("repeats", 5);
    let partitions = args.get_usize("partitions", 16);
    let seed = args.get_u64("seed", 42);
    let churn_commits = args.get_usize("churn_commits", 48);

    report::banner(
        "mutation_path",
        "segmented commit (seal) vs stop-the-world rebuild across a 10x corpus sweep",
        &[
            ("base_domains", base.to_string()),
            ("scale", report::f2(scale)),
            ("batch", batch.to_string()),
            ("repeats", repeats.to_string()),
            ("partitions", partitions.to_string()),
            ("seed", seed.to_string()),
        ],
    );

    report::header(&[
        "domains",
        "commit_seal_us",
        "compact_rebuild_us",
        "engine_commit_us",
    ]);
    let mut seal_us = Vec::new();
    let mut rebuild_us = Vec::new();
    let mut engine_us = Vec::new();
    for mult in SWEEP {
        let domains = (base as f64 * mult).round() as usize;
        let mut config = CorpusConfig::wdc_web_tables_like(domains);
        config.seed = seed;
        let mut container =
            IndexContainer::from_stream(CorpusStream::new(config), partitions, true);
        let hasher = MinHasher::new(container.num_perm());

        // Each phase keeps its fastest repeat, the one the machine disturbed
        // least: a preempted repeat moves the mean of five, not the minimum.
        // Seal phase: each repeat makes a fresh delta and times ONLY the
        // commit — cost must track the delta, never the corpus.
        let mut previous: Vec<u32> = Vec::new();
        let mut seal = f64::INFINITY;
        for _ in 0..repeats {
            let (ops, live) = staged_batch(&hasher, container.next_id(), batch, &previous);
            let (report, secs) = workload::timed(|| container.commit(&ops));
            let report = report.expect("commit delta");
            assert!(report.sealed, "commit must seal a non-empty delta");
            seal = seal.min(secs);
            previous = live;
        }

        // Rebuild phase: commit another delta, then time the fold — the
        // old commit path, expected to scale with the corpus.
        let mut rebuild = f64::INFINITY;
        for _ in 0..repeats {
            let (ops, live) = staged_batch(&hasher, container.next_id(), batch, &previous);
            container.commit(&ops).expect("commit delta");
            let (_, secs) = workload::timed(|| container.compact_index());
            let layout = container.segment_layout();
            assert_eq!(
                (layout.segments.len(), layout.tombstones),
                (0, 0),
                "compaction must drain segments and tombstones"
            );
            rebuild = rebuild.min(secs);
            previous = live;
        }

        // Engine phase: the same delta staged on an engine serving the
        // container, timing the whole commit — clone, apply, seal, swap.
        let engine = Engine::from_container(container);
        let mut engine_commit = f64::INFINITY;
        for _ in 0..repeats {
            let (ops, live) = staged_batch(&hasher, engine.next_id(), batch, &previous);
            for op in ops {
                match op {
                    DeltaOp::Insert { record, signature } => {
                        let DomainRecord { table, column, .. } = record;
                        let id = Some(record.id);
                        let staged =
                            engine.stage_insert_as(table, column, record.size, signature, id);
                        staged.expect("stage insert");
                    }
                    DeltaOp::Remove { id } => {
                        engine.stage_remove(id).expect("stage remove");
                    }
                    DeltaOp::Commit { .. } => unreachable!("staged_batch emits no markers"),
                }
            }
            let ((_, outcome), secs) =
                workload::timed(|| engine.commit_staged().expect("engine commit"));
            assert!(outcome.report.sealed, "commit must seal a non-empty delta");
            engine_commit = engine_commit.min(secs);
            previous = live;
        }

        let us = |s: f64| format!("{:.1}", s * 1e6);
        report::row(&[
            domains.to_string(),
            us(seal),
            us(rebuild),
            us(engine_commit),
        ]);
        seal_us.push(seal * 1e6);
        rebuild_us.push(rebuild * 1e6);
        engine_us.push(engine_commit * 1e6);
    }

    // Write amplification at the 10× (20k-domain) sweep point: entries the
    // leveled merges rewrite per entry the churn inserted.
    let churn_domains = (base as f64 * 10.0).round() as usize;
    println!();
    report::header(&["merges", "entries_folded"]);
    let (folded, merges) =
        churn_fold_entries(churn_domains, partitions, seed, batch, churn_commits);
    report::row(&[merges.to_string(), folded.to_string()]);

    // The gated ratios stay anchored at the 10× point (index 3); the 20×
    // point extends the sweep past the gated range and gets its own
    // ungated ratios.
    let (writes, inserted) = (folded as f64, (churn_commits * batch) as f64);
    let numbers = [
        ("seal_flatness_10x", seal_us[3] / seal_us[0]),
        ("engine_commit_flatness_10x", engine_us[3] / engine_us[0]),
        ("rebuild_growth_10x", rebuild_us[3] / rebuild_us[0]),
        ("rebuild_over_seal_at_10x", rebuild_us[3] / seal_us[3]),
        ("seal_flatness_20x", seal_us[4] / seal_us[0]),
        ("rebuild_growth_20x", rebuild_us[4] / rebuild_us[0]),
        ("leveled_merges_20k", merges as f64),
        ("leveled_fold_entries_20k", writes),
        ("leveled_write_amp_20k", writes / inserted),
    ];
    let mut metrics: Vec<(String, Json)> = numbers
        .iter()
        .map(|&(name, value)| (name.to_owned(), Json::num(value)))
        .collect();
    let series = [
        ("commit_seal_us", seal_us),
        ("compact_rebuild_us", rebuild_us),
        ("engine_commit_us", engine_us),
    ];
    for (name, us) in series {
        for (mult, us) in SWEEP.iter().zip(us) {
            let us = Json::num((us * 10.0).round() / 10.0);
            metrics.push((format!("{name}_{mult}x"), us));
        }
    }
    let params = Json::obj(vec![
        ("base_domains", Json::uint(base as u64)),
        ("batch", Json::uint(batch as u64)),
        ("repeats", Json::uint(repeats as u64)),
        ("partitions", Json::uint(partitions as u64)),
        ("seed", Json::uint(seed)),
        ("churn_commits", Json::uint(churn_commits as u64)),
    ]);
    let mutation = Json::obj(vec![("params", params), ("metrics", Json::Obj(metrics))]);
    println!("{}", Json::obj(vec![("mutation", mutation)]));
}
