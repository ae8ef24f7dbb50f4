//! Pins the heap (`LSHX`) byte form across encoder rewrites.
//!
//! A deterministic corpus — base partitions, two sealed segments, one
//! tombstone — must keep serialising to exactly the recorded bytes, `save`
//! must write them, and `load(save(x))` must answer like `x`. The
//! constant was recorded when `LSHX` v8 made the records columns and moved
//! every base row's size and the id → row directory into `LSHE` v8. From
//! the v7 pin (462 469 B), with 608 live records over 25 distinct tables
//! and 600 base rows in 8 forests of 75:
//!
//! * records, − 20 441 B: a record was `id:u32 size:u64` and two strings
//!   behind `u64` lengths (28 B + 11 304 B of table names, repeated per
//!   column, + 3 521 B of column names, after an 8-byte count: 31 857 B);
//!   now four counts (32), a pad (1 + 1), 12 B a record (id, table index,
//!   column end: 7 296), 4 B a distinct table (100), the column names
//!   (3 521) and each table name once (465): 11 416 B;
//! * the directory, + 4 812 B: a count (8), a pad (1 + 3) and 8 B a base
//!   row (600 × 8), in front of the partitions;
//! * sizes, + 4 928 B: behind each forest a count (8), a pad to 8 (1 + 7)
//!   and 8 B a row (600);
//! * forest pads, + 1 B: the forests now run largest first, and every one
//!   starts on a multiple of 4 — behind the directory, or behind sizes
//!   that end on a multiple of 8 — so each pads 1 + 2, where the first
//!   padded 1 + 1.
//!
//! 462 469 − 20 441 + 4 812 + 4 928 + 1 = 451 769 B.

use lshe_core::{Query, SearchOutcome};
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};

/// `(to_bytes().len(), fnv1a(to_bytes()))` as recorded.
const PINNED: (usize, u64) = (451_769, 0xa552_f3c7_09d4_31c5);

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
    assert!(c.commit(&ops[..5]).expect("first batch").sealed);
    let second = [&ops[5..], &[DeltaOp::Remove { id: 17 }]].concat();
    assert!(c.commit(&second).expect("second batch").sealed);
    let layout = c.segment_layout();
    assert_eq!((layout.segments.len(), layout.tombstones), (2, 1));
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
    assert_eq!(loaded.segment_layout(), built.segment_layout());
    let answer = |c: &IndexContainer, query: &Query<'_>| {
        let outcome = c.open_index().search(query);
        outcome.map(SearchOutcome::into_pairs)
    };
    for (sig, size) in &query_sample() {
        // Hits with their estimates.
        for query in [0.5, 0.9].map(|t| Query::threshold(sig, t)) {
            let query = query.with_size(*size);
            assert_eq!(answer(&loaded, &query), answer(&built, &query), "{query:?}");
        }
        let top = Query::top_k(sig, 5).with_size(*size);
        assert_eq!(answer(&loaded, &top), answer(&built, &top));
    }
    // The removed domain stays gone, the inserted ones stay found.
    assert!(loaded.record(17).is_none() && loaded.record(608).is_some());
    std::fs::remove_dir_all(&dir).ok();
}
