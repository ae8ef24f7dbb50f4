//! Pins the heap (`LSHX`) byte form across encoder rewrites.
//!
//! A deterministic corpus — base partitions, two sealed segments, one
//! tombstone — must keep serialising to exactly the recorded bytes, `save`
//! must write them, and `load(save(x))` must answer like `x`. The
//! constants were recorded when `LSHX` v7 shrank every tree
//! entry from 8 bytes (a 32-bit head, a 32-bit row) to 4 (the head's low 16
//! bits, a block-local `u16` row), each tree sorted by its heads' low half
//! first — `LSHE` v7 around `LSHF` v5. From the v6 pins (ranked and plain
//! both 539 269 B), with 600 base rows in 8 forests of 75:
//!
//! * each forest's 32 trees lose 4 bytes an entry: 75 × 32 × 4 = 9 600 B a
//!   forest, **600 × 128 = − 76 800 B** in all;
//! * nothing else moves. 9 600 is a multiple of 4, so every later forest
//!   starts where it did modulo 4 and keeps its pad (1 + 1 for the first,
//!   1 + 2 for the others); rows, segment entries and records are as they
//!   were.
//!
//! 539 269 − 76 800 = 462 469 B for both; the two differed in the flag
//! byte only. Since every container ranks, nothing writes the plain flag
//! (0) any more, so the plain pin (`0x52c5_b186_953d_5703`) went with it;
//! a flag-0 file still loads, ranked (`tests/format_migration.rs`).

use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};

/// `(to_bytes().len(), fnv1a(to_bytes()))` as recorded.
const PINNED: (usize, u64) = (462_469, 0x167f_3b74_b7ad_733a);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

/// 600 streamed domains in 8 partitions, then two commits: five inserts;
/// four inserts and the removal of a base domain.
fn pinned_container() -> IndexContainer {
    let mut c = IndexContainer::from_stream(corpus(600, 7), 8, true);
    let hasher = MinHasher::new(c.num_perm());
    let fresh = corpus(9, 8);
    let ops: Vec<DeltaOp> = (600u32..)
        .zip(&fresh)
        .map(|(id, pair)| insert(id, pair, &hasher))
        .collect();
    c.apply(&ops[..5]).expect("first batch");
    assert!(c.commit_mutations().sealed);
    c.apply(&ops[5..]).expect("second batch");
    c.apply(&[DeltaOp::Remove { id: 17 }]).expect("remove");
    assert!(c.commit_mutations().sealed);
    let stats = c.segment_stats();
    assert_eq!((stats.segments, stats.tombstones), (2, 1));
    c
}

/// Every tenth base domain and every fresh one, as (sketch, size).
fn query_sample() -> Vec<(Signature, u64)> {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let base = corpus(600, 7);
    let fresh = corpus(9, 8);
    base.iter()
        .step_by(10)
        .chain(&fresh)
        .map(|(d, _)| (hasher.signature(d.hashes().iter().copied()), d.len() as u64))
        .collect()
}

#[test]
fn encoder_reproduces_the_recorded_bytes() {
    let bytes = pinned_container().to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        PINNED,
        "(len, fnv1a) = ({}, {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}

#[test]
fn save_writes_the_same_bytes_and_load_answers_identically() {
    let dir = std::env::temp_dir().join(format!("lshe_heap_pin_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let built = pinned_container();
    let path = dir.join("pinned.lshe");
    built.save(&path).expect("save");
    assert!(
        std::fs::read(&path).expect("read") == built.to_bytes(),
        "save and to_bytes disagree"
    );
    let loaded = IndexContainer::load(&path).expect("load");
    assert_eq!(loaded.records(), built.records());
    assert_eq!(loaded.next_id(), built.next_id());
    assert_eq!(loaded.segment_stats(), built.segment_stats());
    for (sig, size) in &query_sample() {
        for t in [0.5, 0.9] {
            // Hits with their estimates.
            let hits = loaded.search(sig, *size, t);
            assert_eq!(hits, built.search(sig, *size, t), "t={t}");
        }
        assert_eq!(loaded.top_k(sig, *size, 5), built.top_k(sig, *size, 5));
    }
    // The removed domain stays gone, the inserted ones stay found.
    assert!(loaded.record(17).is_none() && loaded.record(608).is_some());
    std::fs::remove_dir_all(&dir).ok();
}
