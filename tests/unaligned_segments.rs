//! A sealed segment's stored rows are read where they lie, at any
//! alignment: the decoder assumes none, so a segments section that starts
//! at an odd byte offset — in a slice, or in a mapped file — decodes to
//! the same index as one that does not, re-encodes to the same bytes, and
//! answers alike through `IndexContainer::from_bytes`,
//! `IndexContainer::load` and a packed file's `MmapIndex`.
//!
//! In a `.lshe` the segments follow the last base partition's sizes,
//! which end on a multiple of 8; an index whose base has no partition —
//! emptied and folded, then committed to — puts them wherever its records
//! end, which here a column name one byte longer moves.

use lshe_core::{DomainIndex, MergeTask, MmapIndex, Query, SearchOutcome};
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};
use std::path::PathBuf;

fn corpus(n: usize, seed: u64) -> Vec<(Domain, DomainMeta)> {
    CorpusStream::new(CorpusConfig {
        seed,
        ..CorpusConfig::wdc_web_tables_like(n)
    })
    .collect()
}

/// What one id's segment entry starts with: its id and its size.
fn entry_head(id: u32, size: u64) -> Vec<u8> {
    [&id.to_le_bytes()[..], &size.to_le_bytes()].concat()
}

/// Three commits of inserts, then a removal, over a base with no
/// partition — one domain built, removed and folded away; the first
/// insert's column is `longer` bytes longer. The container, and where its
/// first segment entry's row starts in its bytes.
fn committed(longer: usize) -> (IndexContainer, usize) {
    let mut container = IndexContainer::from_stream(corpus(1, 9), 8, true);
    container
        .commit(&[DeltaOp::Remove { id: 0 }])
        .expect("remove");
    container.apply_merge(&MergeTask::Full);
    assert_eq!((container.len(), container.partition_count()), (0, 0));
    let hasher = MinHasher::new(container.num_perm());
    let fresh = corpus(90, 3);
    let insert = |id: u32, (domain, meta): &(Domain, DomainMeta)| DeltaOp::Insert {
        record: DomainRecord {
            id,
            size: domain.len() as u64,
            table: meta.table.clone(),
            column: meta.column.clone() + &"x".repeat(if id == 1 { longer } else { 0 }),
        },
        signature: hasher.signature(domain.hashes().iter().copied()),
    };
    let ops: Vec<DeltaOp> = (1u32..).zip(&fresh).map(|(id, d)| insert(id, d)).collect();
    for batch in [&ops[..30], &ops[30..70], &ops[70..]] {
        assert!(container.commit(batch).expect("commit").sealed);
    }
    container
        .commit(&[DeltaOp::Remove { id: 32 }])
        .expect("remove");
    let bytes = container.to_bytes();
    let first = entry_head(1, fresh[0].0.len() as u64);
    let at = (0..bytes.len()).find(|&i| bytes[i..].starts_with(&first));
    (
        container,
        at.expect("the first segment entry") + first.len(),
    )
}

/// Threshold and top-k answers, with their estimates, over a sample of
/// the inserted domains and some the index does not hold.
fn answers(index: &dyn DomainIndex) -> Vec<Vec<(u32, Option<f64>)>> {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let sample = corpus(90, 3).into_iter().step_by(6).chain(corpus(4, 5));
    let sketches: Vec<(Signature, u64)> = sample
        .map(|(d, _)| (hasher.signature(d.hashes().iter().copied()), d.len() as u64))
        .collect();
    let mut out = Vec::new();
    for (sig, size) in &sketches {
        let queries = [0.3, 0.8].map(|t| Query::threshold(sig, t));
        for query in queries.into_iter().chain([Query::top_k(sig, 3)]) {
            let outcome = index.search(&query.with_size(*size)).expect("search");
            out.push(SearchOutcome::into_pairs(outcome));
        }
    }
    out
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn segment_rows_at_an_odd_offset_decode_and_answer_as_aligned_ones() {
    let dir = std::env::temp_dir().join(format!("lshe_unaligned_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let dir = Scratch(dir);
    // One byte more in the records moves every segment row by one: one of
    // the two files has them at even offsets, the other at odd ones.
    let (odd, even) = match (committed(0), committed(1)) {
        (a, b) if a.1 % 2 == 1 => (a, b),
        (a, b) => (b, a),
    };
    assert_eq!((odd.1 % 2, even.1 % 2), (1, 0));
    let want = answers(&*even.0.open_index());
    for (built, _) in [&odd, &even] {
        let bytes = built.to_bytes();
        assert_eq!(answers(&*built.open_index()), want);

        // From a slice: the copy one byte in puts every row on the other
        // parity.
        let shifted = [&[0][..], &bytes].concat();
        for slice in [&bytes[..], &shifted[1..]] {
            let decoded = IndexContainer::from_bytes(slice).expect("decode");
            assert!(decoded.to_bytes() == bytes, "re-encodes the same bytes");
            assert_eq!(decoded.segment_layout(), built.segment_layout());
            assert_eq!(answers(&*decoded.open_index()), want);
        }

        // Mapped, where the file puts them.
        let path = dir.0.join("index.lshe");
        built.save(&path).expect("save");
        let loaded = IndexContainer::load(&path).expect("load");
        assert!(loaded.to_bytes() == bytes, "re-encodes the same bytes");
        assert_eq!(answers(&*loaded.open_index()), want);

        // The packed file's segments section goes through the same decoder.
        let packed = dir.0.join("index.lshepk");
        built.pack_v2(&packed).expect("pack");
        let mapped = MmapIndex::open_verified(&packed).expect("open");
        assert_eq!(answers(&mapped), want);
    }
}
