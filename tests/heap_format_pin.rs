//! Pins the heap (`LSHX`) byte form across encoder rewrites.
//!
//! A deterministic corpus — base partitions, two sealed segments, one
//! tombstone — must keep serialising to exactly the recorded bytes, `save`
//! must write them, and `load(save(x))` must answer like `x`. The
//! constant was recorded when `LSHX` v9 dropped the flag byte and `LSHE`
//! v9 the id → row directory, each base partition's ids ascending instead.
//! From the v8 pin (451 769 B), with 608 live records over 25 distinct
//! tables and 600 base rows in 8 forests of 75:
//!
//! * the directory, − 4 812 B: its count (8), its pad (1 + 3) and 8 B a
//!   base row (600 × 8);
//! * the flag byte, − 1 B;
//! * the records' pad, + 1 B: the header is a byte shorter, so the pad in
//!   front of the record columns is 1 + 2 where it was 1 + 1;
//! * the first partition's sizes pad, − 4 B: that partition now starts 4
//!   bytes off a multiple of 8, not on one, so the pad in front of its
//!   sizes is 1 + 3 where it was 1 + 7. Every later partition starts on a
//!   multiple of 8 as before, and every forest still pads 1 + 2.
//!
//! 451 769 − 4 812 − 1 + 1 − 4 = 446 953 B.

use lshe_core::{Query, SearchOutcome};
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};

/// `(to_bytes().len(), fnv1a(to_bytes()))` as recorded.
const PINNED: (usize, u64) = (446_953, 0x596d_943e_e44c_6caf);

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
