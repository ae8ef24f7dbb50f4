//! Load-path benchmark: v1 heap decode versus v2 mmap open, plus query
//! latency parity between the heap-backed and mmap-backed index — the
//! numbers behind `BENCH_load.json`.
//!
//! The corpus comes from `lshe_datagen::CorpusStream` and is sketched
//! domain-by-domain through `IndexContainer::from_stream`, so `--scale`
//! can push it far past RAM-resident sizes: peak memory is the index under
//! construction (signatures + records), never the raw value sets.
//!
//! Reported metrics:
//!
//! * `v1_decode_s` — `IndexContainer::load` on a `.lshe` file: read all
//!   bytes, decode records/ensemble/sketches, rebuild the forest on heap.
//! * `v2_open_us` — `MmapIndex::open` on the packed file: `mmap(2)` plus
//!   header/section-table validation; no section is read. This is the
//!   boot path the format exists for (≥100× gate in CI).
//! * `v2_open_verified_s` — `IndexContainer::load` on the packed file:
//!   the serving path, which adds the one-time CRC sweep of every section
//!   and the domain-record decode.
//! * `heap_query_us` / `mmap_query_us` — mean threshold-search latency on
//!   the same container, heap-decoded vs served in place (≤1.2× gate).

use lshe_bench::{report, workload, Args};
use lshe_core::MmapIndex;
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::Signature;
use lshe_serve::IndexContainer;

/// Runs `f` repeatedly and returns the mean seconds over `repeats` runs.
fn mean_secs<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut total = 0.0;
    for _ in 0..repeats {
        let (out, secs) = workload::timed(&mut f);
        std::hint::black_box(out);
        total += secs;
    }
    total / repeats as f64
}

fn main() {
    let args = Args::from_env();
    let scale = args.get_f64("scale", 1.0);
    let domains = (args.get_usize("domains", 20_000) as f64 * scale).round() as usize;
    let partitions = args.get_usize("partitions", 16);
    let num_queries = args.get_usize("queries", 50);
    let repeats = args.get_usize("repeats", 5);
    let seed = args.get_u64("seed", 42);
    let t_star = args.get_f64("t-star", 0.7);
    let dir = args
        .get_str("dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);

    report::banner(
        "load_path",
        "v1 heap decode vs v2 mmap open; heap vs mmap query latency",
        &[
            ("domains", domains.to_string()),
            ("scale", report::f2(scale)),
            ("partitions", partitions.to_string()),
            ("queries", num_queries.to_string()),
            ("repeats", repeats.to_string()),
            ("t_star", report::f4(t_star)),
            ("seed", seed.to_string()),
        ],
    );

    // Stream-sketch the corpus into a ranked container; the raw value
    // sets are dropped as they are consumed.
    let mut config = CorpusConfig::wdc_web_tables_like(domains);
    config.seed = seed;
    let (container, build_secs) = workload::timed(|| {
        IndexContainer::from_stream(CorpusStream::new(config.clone()), partitions, true)
    });
    println!("# stream_build_seconds = {}", report::secs(build_secs));

    let v1_path = dir.join(format!("load_path_{seed}_{domains}.lshe"));
    let v2_path = dir.join(format!("load_path_{seed}_{domains}.lshepk"));
    let v1_bytes = container.to_bytes();
    std::fs::write(&v1_path, &v1_bytes).expect("write v1");
    container.pack_v2(&v2_path).expect("pack v2");
    let v2_bytes = std::fs::metadata(&v2_path).expect("stat v2").len();
    println!("# v1_bytes = {}", v1_bytes.len());
    println!("# v2_bytes = {v2_bytes}");

    // Query workload: sketches of sampled indexed domains, sizes attached.
    let step = (container.len() / num_queries.max(1)).max(1);
    let queries: Vec<(u64, Signature)> = (0..container.len() as u32)
        .step_by(step)
        .take(num_queries)
        .map(|id| {
            let (size, sig) = container.sketch(id).expect("ranked container");
            (size, Signature::from_slots(sig.to_vec()))
        })
        .collect();

    // Load-path timings.
    let v1_decode_s = mean_secs(repeats, || IndexContainer::load(&v1_path).expect("v1 load"));
    // The raw open is microseconds; average over a larger batch so the
    // clock resolution does not dominate.
    let open_iters = repeats * 100;
    let v2_open_s = mean_secs(open_iters, || MmapIndex::open(&v2_path).expect("v2 open"));
    let v2_verified_s = mean_secs(repeats, || IndexContainer::load(&v2_path).expect("v2 load"));

    // Query latency parity, same container through both load paths.
    let heap = IndexContainer::load(&v1_path).expect("v1 load");
    let mapped = IndexContainer::load(&v2_path).expect("v2 load");
    let run = |c: &IndexContainer| {
        let mut hits = 0usize;
        for (size, sig) in &queries {
            hits += c.search(sig, *size, t_star).len();
        }
        hits
    };
    // Warm both paths (page in the mapped sections) before timing.
    let heap_hits = run(&heap);
    let mapped_hits = run(&mapped);
    assert_eq!(heap_hits, mapped_hits, "heap and mmap disagree");
    let heap_query_s = mean_secs(repeats, || run(&heap)) / queries.len() as f64;
    let mmap_query_s = mean_secs(repeats, || run(&mapped)) / queries.len() as f64;

    report::header(&["metric", "value"]);
    let us = |s: f64| format!("{:.1}", s * 1e6);
    report::row(&["v1_decode_s".into(), report::secs(v1_decode_s)]);
    report::row(&["v2_open_us".into(), us(v2_open_s)]);
    report::row(&["v2_open_verified_s".into(), report::secs(v2_verified_s)]);
    report::row(&[
        "open_speedup_v1_over_v2".into(),
        report::f2(v1_decode_s / v2_open_s),
    ]);
    report::row(&["heap_query_us".into(), us(heap_query_s)]);
    report::row(&["mmap_query_us".into(), us(mmap_query_s)]);
    report::row(&[
        "query_ratio_mmap_over_heap".into(),
        report::f2(mmap_query_s / heap_query_s),
    ]);
    report::row(&["hits_checksum".into(), heap_hits.to_string()]);

    let _ = std::fs::remove_file(&v1_path);
    let _ = std::fs::remove_file(&v2_path);
}
