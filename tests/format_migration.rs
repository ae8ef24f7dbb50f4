//! One-way migration from the older heap formats to the current one.
//!
//! `tests/fixtures/v2_ranked.lshe` (`LSHX` v2 around an `LSHE` v2 ensemble
//! with one sealed segment and a tombstone) and `tests/fixtures/v2.delta`
//! (`LSHD` v2) were written by the commit before signatures narrowed to
//! 32-bit lanes, from the domains [`fixture_container`] and [`fixture_log`]
//! rebuild here. `tests/fixtures/v3_ranked.lshe` and `v3_plain.lshe`
//! (`LSHX` v3 around `LSHE` v3 / `LSHF` v1: two sealed segments, a base and
//! a segment tombstone) were written by the commit before forests indexed a
//! row table — when a ranked file held every lane twice — from the domains
//! [`v3_container`] rebuilds, with that commit's answers recorded in
//! `v3_expected.txt`. All must load, answer as they did, equal a fresh
//! build of their domains, and save as the current version.

use lshe_core::Query;
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::MinHasher;
use lshe_serve::{DeltaLog, DeltaOp, DomainRecord, IndexContainer};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

fn corpus(n: usize, seed: u64) -> Vec<(Domain, DomainMeta)> {
    CorpusStream::new(CorpusConfig {
        seed,
        ..CorpusConfig::wdc_web_tables_like(n)
    })
    .collect()
}

fn insert(id: u32, (domain, meta): &(Domain, DomainMeta), hasher: &MinHasher) -> DeltaOp {
    DeltaOp::Insert {
        record: DomainRecord {
            id,
            size: domain.len() as u64,
            table: meta.table.clone(),
            column: meta.column.clone(),
        },
        signature: hasher.signature(domain.hashes().iter().copied()),
    }
}

/// Mark and ops of `v2.delta`: a committed batch, then a staged tail.
fn fixture_log() -> (u32, Vec<DeltaOp>) {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let fresh = corpus(3, 22);
    let ops = vec![
        insert(4, &fresh[0], &hasher),
        insert(5, &fresh[1], &hasher),
        DeltaOp::Commit { next_id: 6 },
        DeltaOp::Remove { id: 1 },
        insert(6, &fresh[2], &hasher),
    ];
    (4, ops)
}

/// `v2_ranked.lshe`: four base domains in two partitions, then the log's
/// committed batch and its remove sealed into one segment and a tombstone.
fn fixture_container() -> IndexContainer {
    let mut c = IndexContainer::from_stream(corpus(4, 21), 2, true);
    let (_, ops) = fixture_log();
    c.apply(&ops[..2]).expect("inserts");
    c.apply(&ops[3..4]).expect("remove");
    assert!(c.commit_mutations().sealed);
    let stats = c.segment_stats();
    assert_eq!((stats.segments, stats.tombstones), (1, 1));
    c
}

/// The `LSHE` version byte of the ensemble nested in a container.
fn nested_version(bytes: &[u8]) -> u8 {
    let at = bytes
        .windows(4)
        .position(|w| w == lshe_core::persist::MAGIC);
    bytes[at.expect("nested ensemble") + 4]
}

#[test]
fn v2_container_loads_like_a_fresh_build_and_saves_as_v4() {
    let old = std::fs::read(fixture("v2_ranked.lshe")).expect("fixture");
    assert_eq!((&old[..4], old[4]), (&b"LSHX"[..], 2), "fixture is LSHX v2");
    let loaded = IndexContainer::load(&fixture("v2_ranked.lshe")).expect("v2 loads");
    let fresh = fixture_container();
    assert_eq!(loaded.records(), fresh.records());
    assert_eq!(loaded.next_id(), fresh.next_id());
    assert_eq!(loaded.segment_stats(), fresh.segment_stats());
    let hasher = MinHasher::new(loaded.num_perm());
    for (domain, _) in corpus(4, 21).iter().chain(&corpus(3, 22)) {
        let sig = hasher.signature(domain.hashes().iter().copied());
        let size = domain.len() as u64;
        for t in [0.1, 0.5, 0.9] {
            assert_eq!(loaded.search(&sig, size, t), fresh.search(&sig, size, t));
        }
        assert_eq!(loaded.top_k(&sig, size, 3), fresh.top_k(&sig, size, 3));
    }
    // Narrowing at decode is narrowing at the fold, and the old trees'
    // lanes land in the rows a fresh build gives them: the same v4 bytes.
    let resaved = loaded.to_bytes();
    assert_eq!(resaved[4], 4, "saved as LSHX v4");
    assert!(
        resaved == fresh.to_bytes(),
        "migrated and fresh bytes differ"
    );
    assert_eq!((nested_version(&old), nested_version(&resaved)), (2, 4));
}

/// `(base domains, partitions)` of the v3 fixtures.
fn v3_shape(ranked: bool) -> (usize, usize) {
    if ranked {
        (8, 2)
    } else {
        (18, 3)
    }
}

/// The v3 fixtures' corpus: base domains, then two commits — two inserts
/// and the removal of base domain 1; one insert and the removal of the
/// first sealed insert.
fn v3_container(ranked: bool) -> IndexContainer {
    let (n, parts) = v3_shape(ranked);
    let mut c = IndexContainer::from_stream(corpus(n, 31), parts, ranked);
    let hasher = MinHasher::new(c.num_perm());
    let fresh = corpus(3, 32);
    let base = n as u32;
    c.apply(&[
        insert(base, &fresh[0], &hasher),
        insert(base + 1, &fresh[1], &hasher),
        DeltaOp::Remove { id: 1 },
    ])
    .expect("first batch");
    assert!(c.commit_mutations().sealed);
    c.apply(&[
        insert(base + 2, &fresh[2], &hasher),
        DeltaOp::Remove { id: base },
    ])
    .expect("second batch");
    assert!(c.commit_mutations().sealed);
    let stats = c.segment_stats();
    assert_eq!((stats.segments, stats.tombstones), (2, 2));
    c
}

/// One line per fixture query — every base and fresh domain at three
/// thresholds (and top-3 when ranked) — in `v3_expected.txt`'s form: the
/// probe counters, then each hit with its estimate's bits.
fn v3_answers(c: &IndexContainer, ranked: bool) -> String {
    use std::fmt::Write as _;
    let (n, _) = v3_shape(ranked);
    let hasher = MinHasher::new(c.num_perm());
    let index = c.open_index();
    let mut out = String::new();
    for (q, (domain, _)) in corpus(n, 31).iter().chain(&corpus(3, 32)).enumerate() {
        let sig = hasher.signature(domain.hashes().iter().copied());
        let size = domain.len() as u64;
        let mut queries = vec![
            ("t=0.1", Query::threshold(&sig, 0.1).with_size(size)),
            ("t=0.5", Query::threshold(&sig, 0.5).with_size(size)),
            ("t=0.9", Query::threshold(&sig, 0.9).with_size(size)),
        ];
        if ranked {
            queries.push(("k=3", Query::top_k(&sig, 3).with_size(size)));
        }
        for (mode, query) in queries {
            let found = index.search(&query).expect("search");
            let _ = write!(
                out,
                "{} q{q} {mode} candidates={} probed={}/{} hits=",
                if ranked { "ranked" } else { "plain" },
                found.stats.candidates,
                found.stats.partitions_probed,
                found.stats.partitions_total
            );
            for hit in &found.hits {
                let bits = hit.estimate.map_or(0, f64::to_bits);
                let _ = write!(out, "{}:{bits:016x},", hit.id);
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn v3_containers_answer_as_recorded_and_save_as_a_fresh_v4_build() {
    let recorded = std::fs::read_to_string(fixture("v3_expected.txt")).expect("fixture");
    for (ranked, name) in [(true, "v3_ranked.lshe"), (false, "v3_plain.lshe")] {
        let old = std::fs::read(fixture(name)).expect("fixture");
        assert_eq!((&old[..4], old[4]), (&b"LSHX"[..], 3), "{name} is LSHX v3");
        assert!(old.len() <= 30 * 1024, "{name} is small");
        let loaded = IndexContainer::load(&fixture(name)).expect("v3 loads");
        let fresh = v3_container(ranked);
        assert_eq!(loaded.records(), fresh.records(), "{name}");
        assert_eq!(loaded.next_id(), fresh.next_id(), "{name}");
        assert_eq!(loaded.segment_stats(), fresh.segment_stats(), "{name}");

        // Hits, estimates bit for bit, and probe counters: as the commit
        // that wrote the file answered them, and as a fresh build does.
        let kind = if ranked { "ranked " } else { "plain " };
        let want: String = recorded
            .lines()
            .filter(|line| line.starts_with(kind))
            .flat_map(|line| [line, "\n"])
            .collect();
        assert!(!want.is_empty());
        assert_eq!(v3_answers(&loaded, ranked), want, "{name} vs its writer");
        assert_eq!(
            v3_answers(&fresh, ranked),
            want,
            "fresh build vs {name}'s writer"
        );

        let resaved = loaded.to_bytes();
        assert_eq!(resaved[4], 4, "saved as LSHX v4");
        assert_eq!((nested_version(&old), nested_version(&resaved)), (3, 4));
        assert!(
            resaved == fresh.to_bytes(),
            "{name}: migrated and fresh bytes differ"
        );
        // What the row table removed: a ranked file held every base lane
        // twice more than once (tree keys, sketch section).
        if ranked {
            assert!(resaved.len() * 5 < old.len() * 4, "{name} did not shrink");
        }
        let reloaded = IndexContainer::from_bytes(&resaved).expect("v4 loads");
        assert_eq!(v3_answers(&reloaded, ranked), want, "{name} after a save");
    }
}

#[test]
fn v2_delta_log_reads_like_fresh_ops_grows_and_rewrites_as_v3() {
    let old = std::fs::read(fixture("v2.delta")).expect("fixture");
    assert_eq!((&old[..4], old[4]), (&b"LSHD"[..], 2), "fixture is LSHD v2");
    let (mark, ops) = DeltaLog::at(fixture("v2.delta"))
        .read_with_mark()
        .expect("v2 reads");
    assert_eq!((mark, &ops), (fixture_log().0, &fixture_log().1));

    let dir = std::env::temp_dir().join(format!("lshe_migration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let log = DeltaLog::at(dir.join("v3.delta"));
    log.rewrite(&ops, mark).expect("rewrite");
    let new = std::fs::read(log.path()).expect("read");
    assert_eq!(new[4], 3, "rewritten as LSHD v3");
    assert_eq!(
        old.len() - new.len(),
        3 * 4 * lshe_minhash::DEFAULT_NUM_PERM
    );
    assert_eq!(log.read_with_mark().expect("v3 reads"), (mark, ops.clone()));

    // A server restarted on the old log appends to it: entries of both
    // widths in one file, each read by its own tag.
    let grown = DeltaLog::at(dir.join("v2.delta"));
    std::fs::write(grown.path(), &old).expect("copy");
    let late = ops[4].clone();
    grown.append(&late, mark).expect("append");
    let mut all = ops;
    all.push(late);
    assert_eq!(grown.read_with_mark().expect("mixed reads"), (mark, all));
    std::fs::remove_dir_all(&dir).ok();
}
