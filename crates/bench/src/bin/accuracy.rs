//! The paper's accuracy claim (§6.1, Figures 4–7): precision and recall at
//! a containment threshold under size skew, for the baselines, the LSH
//! Ensemble's partitionings and the index that ships, over one
//! Canadian-Open-Data-like world.
//!
//! ```text
//! cargo run --release -p lshe-bench --bin accuracy -- --domains 20000 --queries 300 --seed 42
//! ```
//!
//! Four TSV sections, then one JSON document on the last line that
//! `bench_gate` holds to `BENCH_accuracy.json`. Measured at 20 000 domains,
//! 300 queries and seed 42:
//!
//! * `threshold`, all queries, t = 0.5: precision rises with the partition
//!   count, from the baseline's 0.318 to equi-depth 8/16/32's
//!   0.634/0.684/0.725 and equi-FP's 0.749, at recall 0.928–0.939.
//!   Equi-width builds 10 partitions and stays near the baseline (0.324).
//!   Asym answers 7 of 300 queries (recall 0.017). Asym + partitioning
//!   reaches 0.810 / 0.880, but at t = 0.9 its recall is 0.926 to the
//!   ensemble's 0.977. The shipped index, which prunes on its estimate,
//!   reads 0.909 / 0.928; its `tail_recall`, like every ensemble's, 0.370.
//! * `skew`: as skewness grows from 0.94 to 81.4, precision falls (baseline
//!   0.920 → 0.319, equi-depth 32 0.975 → 0.736) and recall stays at or
//!   above 0.886, except Asym's, which falls 0.984 → 0.010.
//! * `num_perm`: from m = 32 to 512, precision falls 0.755 → 0.669 while
//!   recall rises 0.886 → 0.946.
//! * `size_estimate`: estimating |Q| (mean relative error 0.046) moves no
//!   cell by more than 0.011 (recall at t = 0.9: 0.979 exact, 0.968).

use lshe_bench::workload::{self, Accuracy, AccuracyWorld};
use lshe_bench::{report, Args};
use lshe_core::{DomainIndex, EnsembleConfig, LshEnsemble, MergeTask, PartitionStrategy, Unranked};
use lshe_corpus::{Catalog, DomainId, Json};
use lshe_datagen::{nested_size_subsets, sample_queries, skewness, SizeBand};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::container::{DeltaOp, IndexContainer};

use PartitionStrategy::{EquiDepth, EquiFp, EquiWidth, Single};

/// Partition count of the index `lshe index` builds by default.
const SHIPPED: usize = 32;

/// The ensemble rows: the MinHash LSH baseline, equi-depth 8/16/32, then
/// the other partitioners at the shipped count. `skew` runs the first four.
const ROWS: [PartitionStrategy; 6] = [
    Single,
    EquiDepth { n: 8 },
    EquiDepth { n: 16 },
    EquiDepth { n: 32 },
    EquiFp { n: SHIPPED },
    EquiWidth { n: SHIPPED },
];

/// The query bands of `threshold`.
const BANDS: [(&str, SizeBand); 3] = [
    ("all", SizeBand::All),
    ("smallest 10%", SizeBand::SmallestPercent(10)),
    ("largest 10%", SizeBand::LargestPercent(10)),
];

/// Partition count of `num_perm` and `size_estimate`.
const ABLATION_PARTITIONS: usize = 16;

/// `(m, b_max, r_max)` with `b_max · r_max = m`, keeping `r_max = 8` where
/// possible so the selectivity ceiling is comparable.
const NUM_PERM: [(usize, usize, usize); 5] = [
    (32, 8, 4),
    (64, 8, 8),
    (128, 16, 8),
    (256, 32, 8),
    (512, 64, 8),
];

const SKEW_STEPS: usize = 20;
const T_STAR: f64 = 0.5;
const SIZE_THRESHOLDS: [f64; 4] = [0.3, 0.5, 0.7, 0.9];

/// The JSON cells, keyed `section/row/band/t`.
type Cells = Vec<(String, Json)>;

/// Prints a TSV header: `lead`, the four accuracy columns, `trail`.
fn header(lead: &[&str], trail: &[&str]) {
    report::header(&[lead, &["precision", "recall", "f1", "f05"], trail].concat());
}

/// Prints a TSV row — `lead`, precision, recall, F1 and F0.5, `trail` —
/// and records its cell under `key`, with `tail_recall` when `tail`.
fn row(out: &mut Cells, key: String, lead: &[String], a: &Accuracy, trail: &[String], tail: bool) {
    let o = a.overall;
    let scores = [o.precision, o.recall, o.f1, o.f05].map(report::f4);
    report::row(&[lead, &scores, trail].concat());
    let mut fields = vec![
        ("precision", Json::num(o.precision)),
        ("recall", Json::num(o.recall)),
    ];
    if tail {
        fields.push(("tail_recall", Json::num(a.tail_recall)));
    }
    out.push((key, Json::obj(fields)));
}

fn ensembles(world: &AccuracyWorld, strategies: &[PartitionStrategy]) -> Vec<LshEnsemble> {
    let build = |&s| workload::build_ensemble(&world.catalog, &world.signatures, s);
    strategies.iter().map(build).collect()
}

/// The index `lshe index` ships, in the four forms a server meets it: as
/// built, saved and loaded (views into its file), built over the first
/// 90 % of ids with the rest committed as a sealed segment, and that
/// container compacted.
fn shipped_forms(world: &AccuracyWorld) -> [(&'static str, IndexContainer); 4] {
    let built = IndexContainer::build(&world.catalog, SHIPPED);
    let path = std::env::temp_dir().join(format!("lshe-accuracy-{}.lshe", std::process::id()));
    built.save(&path).expect("save the built index");
    let loaded = IndexContainer::load(&path).expect("load the saved index");
    // The mapping outlives its path.
    std::fs::remove_file(&path).expect("remove the saved index");

    let (catalog, n) = (&world.catalog, world.catalog.len() as DomainId);
    let cut = n - n / 10;
    let mut head = Catalog::new();
    for id in 0..cut {
        head.push(catalog.domain(id).clone(), catalog.meta(id).clone());
    }
    let mut sealed = IndexContainer::build(&head, SHIPPED);
    let tail: Vec<DeltaOp> = (cut..n)
        .map(|id| DeltaOp::Insert {
            record: built.record(id).expect("built over every id").to_record(),
            signature: world.signatures[id as usize].clone(),
        })
        .collect();
    sealed.commit(&tail).expect("commit the last 10 % of ids");
    let mut compacted = sealed.clone();
    compacted.apply_merge(&MergeTask::Full);
    [
        ("shipped (built)", built),
        ("shipped (loaded)", loaded),
        ("shipped (sealed)", sealed),
        ("shipped (compacted)", compacted),
    ]
}

/// Prints `threshold`.
///
/// # Panics
/// If the loaded or the compacted shipped index answers otherwise than the
/// built one.
fn threshold_section(world: &AccuracyWorld, num_queries: usize, seed: u64, cells: &mut Cells) {
    let ensembles = ensembles(world, &ROWS);
    let unranked: Vec<Unranked<'_>> = ensembles.iter().map(Unranked).collect();
    let asym = workload::build_asym(&world.catalog, &world.signatures);
    let asym_part = workload::build_asym_partitioned(&world.catalog, &world.signatures, SHIPPED);
    let shipped = shipped_forms(world);
    let opened: Vec<_> = shipped.iter().map(|(_, c)| c.open_index()).collect();
    let mut rows: Vec<(String, &dyn DomainIndex)> = Vec::new();
    rows.extend(
        unranked
            .iter()
            .map(|e| (e.describe(), e as &dyn DomainIndex)),
    );
    rows.push((asym.describe(), &asym));
    rows.push((asym_part.describe(), &asym_part));
    rows.extend(
        shipped
            .iter()
            .zip(&opened)
            .map(|((name, _), i)| (name.to_string(), i.as_ref())),
    );

    let sizes: Vec<u64> = world.catalog.sizes().iter().map(|&s| s as u64).collect();
    let mut params = vec![("thresholds", "0.1 .. 0.9".to_owned())];
    for ((name, _), strategy) in rows.iter().zip(ROWS).skip(1) {
        let p = strategy.partition(&sizes);
        let [fp, sd] = [p.max_fp_bound(), p.member_count_std_dev()].map(report::f2);
        let stats = format!(
            "{} partitions, max_fp_bound {fp}, size_std_dev {sd}",
            p.len()
        );
        params.push((name, stats));
    }
    report::banner("threshold", "accuracy vs containment threshold", &params);
    header(
        &["index", "band", "threshold"],
        &["empty_answers", "tail_recall"],
    );
    let grid = workload::threshold_grid();
    for (band_name, band) in BANDS {
        let queries = sample_queries(&world.catalog, num_queries, band, seed);
        // Asym rows run over all queries only.
        let in_band = |(name, _): &&(String, _)| band == SizeBand::All || !name.starts_with("Asym");
        let rows: Vec<_> = rows.iter().filter(in_band).collect();
        let indexes: Vec<&dyn DomainIndex> = rows.iter().map(|&&(_, i)| i).collect();
        let sweep =
            workload::accuracy_sweep(&indexes, world, &world.signatures, &queries, &grid, true);
        for ((name, _), accs) in rows.iter().zip(&sweep) {
            for (t, a) in grid.iter().zip(accs) {
                let key = format!("threshold/{name}/{band_name}/{t}");
                let lead = [name.clone(), band_name.to_owned(), report::f4(*t)];
                let trail = [
                    a.overall.empty_answers.to_string(),
                    report::f4(a.tail_recall),
                ];
                row(cells, key, &lead, a, &trail, true);
            }
        }
        let built = sweep.len() - shipped.len();
        for form in [1, 3] {
            let name = shipped[form].0;
            let agree = sweep[built + form] == sweep[built];
            assert!(agree, "{name} disagrees with the built index ({band_name})");
        }
    }
}

/// Prints `skew`: the baseline, Asym and equi-depth 8/16/32 over nested
/// subsets of widening size range (Figure 5).
fn skew_section(world: &AccuracyWorld, num_queries: usize, seed: u64, cells: &mut Cells) {
    let about =
        format!("accuracy vs size skewness over {SKEW_STEPS} nested subsets, t* = {T_STAR}");
    report::banner("skew", &about, &[]);
    header(&["subset", "subset_domains", "skewness", "index"], &[]);
    let subsets = nested_size_subsets(&world.catalog.sizes(), SKEW_STEPS);
    for (step, ids) in subsets.iter().enumerate() {
        if ids.len() < 50 {
            continue; // too small to measure meaningfully
        }
        let sub = workload::subset_world(world, ids);
        let skew = skewness(&sub.catalog.sizes());
        let queries = sample_queries(&sub.catalog, num_queries, SizeBand::All, seed + step as u64);
        let ensembles = ensembles(&sub, &ROWS[..4]);
        let unranked: Vec<Unranked<'_>> = ensembles.iter().map(Unranked).collect();
        let asym = workload::build_asym(&sub.catalog, &sub.signatures);
        let mut indexes: Vec<&dyn DomainIndex> = vec![&unranked[0], &asym];
        indexes.extend(unranked[1..].iter().map(|e| e as &dyn DomainIndex));
        let sweep =
            workload::accuracy_sweep(&indexes, &sub, &sub.signatures, &queries, &[T_STAR], true);
        for (index, acc) in indexes.iter().zip(&sweep) {
            let key = format!("skew/{}/subset {step}/{T_STAR}", index.describe());
            let lead = [step, ids.len()].map(|n| n.to_string());
            let lead = [&lead[..], &[report::f2(skew), index.describe()]].concat();
            row(cells, key, &lead, &acc[0], &[], false);
        }
    }
}

/// Prints `num_perm`: accuracy against the number of minwise hash
/// functions, the sketching time beside it.
fn num_perm_section(world: &AccuracyWorld, queries: &[DomainId], cells: &mut Cells) {
    let about = format!("accuracy vs m, equi-depth {ABLATION_PARTITIONS}, t* = {T_STAR}");
    report::banner("num_perm", &about, &[]);
    header(&["m", "b_max", "r_max", "sketch_seconds"], &[]);
    let ids: Vec<DomainId> = world.catalog.iter().map(|(id, _)| id).collect();
    let sizes: Vec<u64> = world.catalog.iter().map(|(_, d)| d.len() as u64).collect();
    for (m, b_max, r_max) in NUM_PERM {
        let hasher = MinHasher::new(m);
        let (signatures, sketch_secs) =
            workload::timed(|| workload::compute_signatures(&world.catalog, &hasher));
        let refs: Vec<&Signature> = signatures.iter().collect();
        let config = EnsembleConfig {
            num_perm: m,
            b_max,
            r_max,
            strategy: EquiDepth {
                n: ABLATION_PARTITIONS,
            },
        };
        let index = LshEnsemble::build_from_parts(config, &ids, &sizes, &refs);
        let sweep = workload::accuracy_sweep(
            &[&Unranked(&index)],
            world,
            &signatures,
            queries,
            &[T_STAR],
            true,
        );
        let key = format!("num_perm/m={m}/all/{T_STAR}");
        let lead = [m, b_max, r_max].map(|n| n.to_string());
        let lead = [&lead[..], &[report::secs(sketch_secs)]].concat();
        row(cells, key, &lead, &sweep[0][0], &[], false);
    }
}

/// Prints `size_estimate`: each query's exact size against the estimate
/// its signature gives (§5.1).
fn size_estimate_section(world: &AccuracyWorld, queries: &[DomainId], cells: &mut Cells) {
    let about = format!("exact |Q| vs approx(|Q|) (§5.1), equi-depth {ABLATION_PARTITIONS}");
    report::banner("size_estimate", &about, &[]);
    let index = &ensembles(
        world,
        &[EquiDepth {
            n: ABLATION_PARTITIONS,
        }],
    )[0];
    header(&["size_source", "threshold"], &["mean_rel_size_error"]);
    let rel_error = |&q: &DomainId| {
        let size = world.catalog.domain(q).len() as f64;
        (world.signatures[q as usize].cardinality() - size).abs() / size
    };
    let mean_rel_error = queries.iter().map(rel_error).sum::<f64>() / queries.len() as f64;
    for (source, exact_size) in [("exact", true), ("approx", false)] {
        let sweep = workload::accuracy_sweep(
            &[&Unranked(index)],
            world,
            &world.signatures,
            queries,
            &SIZE_THRESHOLDS,
            exact_size,
        );
        let error = [if exact_size {
            "-".to_owned()
        } else {
            report::f4(mean_rel_error)
        }];
        for (t, a) in SIZE_THRESHOLDS.iter().zip(&sweep[0]) {
            let key = format!("size_estimate/{source}/all/{t}");
            let lead = [source.to_owned(), report::f4(*t)];
            row(cells, key, &lead, a, &error, false);
        }
    }
}

fn main() {
    let args = Args::from_env(&["domains", "queries", "seed"]);
    let num_domains = args.get_usize("domains", 65_533);
    let num_queries = args.get_usize("queries", 300);
    let seed = args.get_u64("seed", 42);
    report::banner(
        "accuracy",
        "precision and recall at a containment threshold (§6.1)",
        &[
            ("domains", num_domains.to_string()),
            ("queries", num_queries.to_string()),
            ("seed", seed.to_string()),
        ],
    );

    let world = workload::build_accuracy_world(num_domains, seed);
    let queries = sample_queries(&world.catalog, num_queries, SizeBand::All, seed);
    let mut cells = Cells::new();
    threshold_section(&world, num_queries, seed, &mut cells);
    skew_section(&world, num_queries, seed, &mut cells);
    num_perm_section(&world, &queries, &mut cells);
    size_estimate_section(&world, &queries, &mut cells);

    let params = Json::obj(vec![
        ("domains", Json::uint(num_domains as u64)),
        ("queries", Json::uint(num_queries as u64)),
        ("seed", Json::uint(seed)),
    ]);
    let accuracy = Json::obj(vec![("params", params), ("cells", Json::Obj(cells))]);
    println!("{}", Json::obj(vec![("accuracy", accuracy)]));
}
