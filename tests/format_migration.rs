//! One-way migration from the 64-bit-slot formats to 32-bit lanes.
//!
//! `tests/fixtures/v2_ranked.lshe` (`LSHX` v2 around an `LSHE` v2 ensemble
//! with one sealed segment and a tombstone) and `tests/fixtures/v2.delta`
//! (`LSHD` v2) were written by the commit before signatures narrowed, from
//! the domains [`fixture_container`] and [`fixture_log`] rebuild here. They
//! must load, equal a fresh build of those domains, and save as version 3.

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

#[test]
fn v2_container_loads_like_a_fresh_build_and_saves_as_v3() {
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
    // Narrowing at decode is narrowing at the fold: the same v3 bytes,
    // 4 bytes a lane less in each of the 5 sketches and 2 segment entries.
    let resaved = loaded.to_bytes();
    assert_eq!(resaved[4], 3, "saved as LSHX v3");
    assert!(
        resaved == fresh.to_bytes(),
        "migrated and fresh bytes differ"
    );
    assert_eq!(old.len() - resaved.len(), 7 * 4 * loaded.num_perm());
    let nested = |bytes: &[u8]| {
        let at = bytes
            .windows(4)
            .position(|w| w == lshe_core::persist::MAGIC);
        bytes[at.expect("nested ensemble") + 4]
    };
    assert_eq!((nested(&old), nested(&resaved)), (2, 3), "LSHE version");
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
