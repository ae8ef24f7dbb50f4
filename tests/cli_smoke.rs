//! End-to-end smoke test of the `lshe` command-line tool through
//! `lshe_cli::run` — the exact code path the binary's `main` dispatches to
//! — covering the full index → stats → query → top-k workflow on a small
//! on-disk corpus.

use std::path::{Path, PathBuf};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lshe_smoke_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_corpus(dir: &Path) {
    // `suppliers.part_no` ⊆ `parts.part_no`, so a high-threshold query for
    // the supplier column must surface the parts table.
    std::fs::write(
        dir.join("parts.csv"),
        "part_no,descr\np-001,bolt\np-002,nut\np-003,washer\np-004,screw\np-005,rivet\n\
         p-006,pin\np-007,clip\np-008,stud\np-009,dowel\np-010,cap\np-011,plug\np-012,ring\n",
    )
    .expect("write parts.csv");
    std::fs::write(
        dir.join("suppliers.csv"),
        "part_no,supplier\np-001,acme\np-002,acme\np-003,borealis\np-004,borealis\n\
         p-005,canaduck\np-006,canaduck\np-007,delta\np-008,delta\n",
    )
    .expect("write suppliers.csv");
    // A JSONL export sharing the same universe exercises cross-format
    // ingestion on the same run.
    std::fs::write(
        dir.join("inventory.jsonl"),
        "{\"part\": \"p-001\"}\n{\"part\": \"p-002\"}\n{\"part\": \"p-003\"}\n\
         {\"part\": \"p-004\"}\n{\"part\": \"p-005\"}\n{\"part\": \"p-006\"}\n",
    )
    .expect("write inventory.jsonl");
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn index_query_topk_stats_round_trip() {
    let dir = scratch_dir("round_trip");
    write_corpus(&dir);
    let index = dir.join("corpus.lshe");
    let dir_s = dir.to_str().expect("utf8 path");
    let index_s = index.to_str().expect("utf8 path");

    // Every index ranks, so top-k works on the default build.
    let report = lshe_cli::run(&args(&[
        "index",
        "--dir",
        dir_s,
        "--out",
        index_s,
        "--partitions",
        "4",
        "--min-size",
        "5",
    ]))
    .expect("index succeeds");
    assert!(report.contains("indexed"), "index report: {report}");
    assert!(index.exists(), "index file written");

    // Stats must describe the persisted index.
    let stats = lshe_cli::run(&args(&["stats", "--index", index_s])).expect("stats succeeds");
    assert!(stats.contains("partitions"), "stats report: {stats}");

    // Threshold query: suppliers.part_no is a subset of parts.part_no.
    let query_csv = dir.join("suppliers.csv");
    let hits = lshe_cli::run(&args(&[
        "query",
        "--index",
        index_s,
        "--csv",
        query_csv.to_str().expect("utf8 path"),
        "--column",
        "part_no",
        "--threshold",
        "0.7",
    ]))
    .expect("query succeeds");
    assert!(
        hits.contains("parts.part_no"),
        "containment join missing from:\n{hits}"
    );

    // Top-k query must produce containment estimates.
    let top = lshe_cli::run(&args(&[
        "query",
        "--index",
        index_s,
        "--csv",
        query_csv.to_str().expect("utf8 path"),
        "--column",
        "part_no",
        "--top-k",
        "3",
    ]))
    .expect("top-k succeeds");
    assert!(top.contains("t̂ ="), "top-k output lacks estimates:\n{top}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_memory_tracks_the_serialised_size() {
    // The heap index holds what the file holds — forest rows and one
    // sketch per domain, both in 32-bit lanes — so an estimate still
    // sized by 8-byte lanes would read ~45% over.
    let dir = scratch_dir("stats_memory");
    let corpus = lshe_datagen::CorpusStream::new(lshe_datagen::CorpusConfig {
        seed: 5,
        ..lshe_datagen::CorpusConfig::wdc_web_tables_like(400)
    });
    let container = lshe_serve::IndexContainer::from_stream(corpus, 8, true);
    let index = dir.join("ranked.lshe");
    container.save(&index).expect("save");
    let stats = lshe_cli::run(&args(&["stats", "--index", index.to_str().expect("utf8")]))
        .expect("stats succeeds");
    let memory: f64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("memory: ")?.strip_suffix(" bytes"))
        .expect("memory line")
        .parse()
        .expect("byte count");
    let file = container.to_bytes().len() as f64;
    assert!(
        (memory / file - 1.0).abs() < 0.10,
        "stats reports {memory} B for an index that serialises to {file} B"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_text_and_error_paths() {
    // `help` and the empty invocation print usage.
    assert!(lshe_cli::run(&[]).expect("usage").contains("COMMANDS"));
    assert!(lshe_cli::run(&args(&["help"]))
        .expect("usage")
        .contains("lshe index"));

    // Unknown commands and missing flags are usage errors, not panics.
    assert!(matches!(
        lshe_cli::run(&args(&["explode"])).unwrap_err(),
        lshe_cli::CliError::Usage(_)
    ));
    assert!(matches!(
        lshe_cli::run(&args(&["query", "--index", "only.lshe"])).unwrap_err(),
        lshe_cli::CliError::Usage(_)
    ));

    // A corrupt index reports an index error.
    let dir = scratch_dir("corrupt");
    let bad = dir.join("bad.lshe");
    std::fs::write(&bad, b"not an index").expect("write corrupt file");
    std::fs::write(dir.join("q.csv"), "col\nv1\n").expect("write query csv");
    let err = lshe_cli::run(&args(&[
        "query",
        "--index",
        bad.to_str().expect("utf8 path"),
        "--csv",
        dir.join("q.csv").to_str().expect("utf8 path"),
        "--column",
        "col",
    ]))
    .unwrap_err();
    assert!(matches!(err, lshe_cli::CliError::Index(_)), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
