//! Bytes per indexed domain, pinned as a bound.
//!
//! A ranked index needs each domain's signature once — each prefix tree's
//! first key lane at 32 bits, the other lanes at 16: `4·b_max +
//! 2·(m − b_max)` bytes, 576 by default — and one 4-byte `(lo, row)` entry
//! per prefix tree (`4·b_max`: the head's low 16 bits and a block-local
//! `u16` row), plus its id (4) and its cardinality (8). The `.lshe` beyond
//! its provenance records, and the resident index `/stats` reports as
//! `index_bytes`, must stay within `4·b_max + 2·(m − b_max) + 4·b_max + 16`
//! bytes per domain (720 by default: 716, and 4 for the headers, counts and
//! pads), and so must the whole packed file, which holds no records and
//! stores each forest's own columns — so a later change cannot quietly
//! store the lanes a second time (as tree keys, or as a sketch section
//! beside the forests), or wider, without this failing. What `lshe stats` reports as `trees` is
//! those entries exactly.
//!
//! Loaded from its file, a container keeps nothing per domain on the heap:
//! rows, trees, sizes and the record columns are all views into the
//! mapping, and an id's row is found by a search of its partition's ids, so
//! `heap_bytes + id_map_bytes + provenance_bytes` is 0 whatever the domain
//! count — and after an insert and a commit, it is what they changed.
//!
//! Resident provenance of a built container has a bound of its own: it is
//! columns — 12 bytes a record, beside the text of each column name and of
//! each *distinct* table name — not a struct and two heap strings a record.

use lshe_core::Query;
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::MinHasher;
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};

const DOMAINS: usize = 2_000;
/// `EnsembleConfig::default()`'s forest: 32 trees over 256 lanes.
const B_MAX: usize = 32;

#[test]
fn ranked_container_and_packed_file_hold_each_signature_once() {
    let corpus = CorpusStream::new(CorpusConfig::wdc_web_tables_like(DOMAINS));
    let container = IndexContainer::from_stream(corpus, 32, true);
    assert_eq!(container.len(), DOMAINS);
    let row = 4 * B_MAX + 2 * (container.num_perm() - B_MAX);
    assert_eq!(row, 576);
    let bound = row + 4 * B_MAX + 16;
    assert_eq!(bound, 720);

    // Heap form, less the record columns: they run from behind the
    // header (envelope and num_perm: 9 bytes) to the ensemble's length
    // prefix.
    let file = container.to_bytes();
    let ensemble_at = file
        .windows(4)
        .position(|w| w == lshe_core::persist::MAGIC)
        .expect("nested ensemble");
    let heap = file.len() - (ensemble_at - 8 - 9);
    assert!(
        heap <= bound * DOMAINS,
        "heap container: {} B per domain beyond its records, bound {bound}",
        heap as f64 / DOMAINS as f64
    );

    // Packed form, the whole file: no records, and the forests' columns as
    // the `.lshe` holds them — 4-byte `(lo, row)` tree entries.
    let dir = std::env::temp_dir().join(format!("lshe_bytes_per_domain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("index.lshepk");
    container.pack_v2(&path).expect("pack");
    let packed = std::fs::metadata(&path).expect("stat").len() as usize;
    assert!(
        packed <= bound * DOMAINS,
        "packed file: {} B per domain, bound {bound}",
        packed as f64 / DOMAINS as f64
    );
    // Resident: what `/stats` and `lshe stats` call `index_bytes` — rows,
    // trees and sizes.
    let index_bytes = container.open_index().memory_bytes();
    assert!(
        index_bytes <= bound * DOMAINS,
        "resident index: {} B per domain, bound {bound}",
        index_bytes as f64 / DOMAINS as f64
    );
    assert_eq!(
        container.memory_bytes(),
        index_bytes + container.provenance_bytes(),
        "the two reported parts are the whole"
    );
    // And not by leaving something out: each form still holds every lane.
    assert!(heap.min(packed).min(index_bytes) >= row * DOMAINS);

    // `index_bytes` is `mapped_bytes + heap_bytes`. A built container holds
    // all of it on the heap; loaded from its file, none of it — the rows,
    // trees and sizes are views into the mapping, and the same
    // `index_bytes` is reported over them. Nor are the records heap, and
    // the id map is empty.
    assert_eq!(container.mapped_bytes(), 0);
    let saved = dir.join("index.lshe");
    container.save(&saved).expect("save");
    let mut loaded = IndexContainer::load(&saved).expect("load");
    let loaded_bytes = loaded.open_index().memory_bytes();
    assert!(loaded_bytes >= row * DOMAINS && loaded_bytes <= bound * DOMAINS);
    let heap_bytes = loaded_bytes - loaded.mapped_bytes();
    let id_map_bytes = loaded.open_index().id_map_bytes();
    assert_eq!(heap_bytes, 0);
    assert_eq!(loaded.provenance_bytes(), 0);
    assert_eq!(id_map_bytes, 0);
    assert!(heap_bytes + id_map_bytes + loaded.provenance_bytes() <= 64 << 10);
    assert!(loaded.records_in_place());

    // `lshe stats` sums the trees from their columns — 4 bytes an entry,
    // a tree per band — and reports the id map beside them.
    let described = loaded.describe();
    let reported = |name: &str| -> usize {
        let at = described.find(name).expect(name) + name.len();
        let digits = described[at..].trim_start_matches([' ', ':']);
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .expect("a number");
        digits[..end].parse().expect("a number")
    };
    assert_eq!(reported(", trees"), 4 * B_MAX * DOMAINS, "{described}");
    assert_eq!(reported("(rows"), (4 + row + 8) * DOMAINS, "{described}");
    assert_eq!(reported("id_map_bytes"), id_map_bytes, "{described}");

    // Load released every page its checks touched; a query faults some of
    // the file back in, as file pages — here the largest domain at t* = 1,
    // which probes only the top partitions: far less than the index.
    let hasher = MinHasher::new(loaded.num_perm());
    if let Some(released) = loaded.mapped_resident_bytes() {
        assert_eq!(released, 0);
        let corpus = CorpusStream::new(CorpusConfig::wdc_web_tables_like(DOMAINS));
        let (largest, _) = corpus.max_by_key(|(d, _)| d.len()).expect("a domain");
        let sig = hasher.signature(largest.hashes().iter().copied());
        let query = Query::threshold(&sig, 1.0).with_size(largest.len() as u64);
        let outcome = loaded.open_index().search(&query).expect("valid query");
        assert!(!outcome.hits.is_empty());
        let resident = loaded.mapped_resident_bytes().expect("still readable");
        assert!(
            resident > 0 && resident <= loaded.mapped_bytes(),
            "{resident} B resident of {} B mapped",
            loaded.mapped_bytes()
        );
    }

    // An insert and a commit land beside the views: what the three report
    // then is the overlay — the sealed segment, the id map's entry for
    // it, the record with its names.
    let values: Vec<u64> = (1..=40).collect();
    let record = DomainRecord {
        id: loaded.next_id(),
        size: values.len() as u64,
        table: "fresh".into(),
        column: "values".into(),
    };
    let entry = std::mem::size_of::<(u32, Option<DomainRecord>)>();
    let names = record.table.len() + record.column.len();
    let signature = hasher.signature(values);
    loaded
        .commit(&[DeltaOp::Insert { record, signature }])
        .expect("insert");
    let index = loaded.open_index();
    assert!(index.memory_bytes() - index.mapped_bytes() > 0);
    assert!(index.id_map_bytes() > id_map_bytes);
    assert_eq!(loaded.provenance_bytes(), entry + names);
    assert!(loaded.base_in_place().iter().all(|&p| p));
    assert!(loaded.records_in_place());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resident_provenance_is_columns_and_each_table_name_once() {
    const RECORDS: usize = 5_000;
    let corpus = CorpusStream::new(CorpusConfig::wdc_web_tables_like(RECORDS));
    let container = IndexContainer::from_stream(corpus, 32, true);
    let records = container.records();
    let columns: usize = records.iter().map(|r| r.column.len()).sum();
    let tables: std::collections::HashSet<&str> = records.iter().map(|r| r.table).collect();
    assert!(tables.len() * 4 < RECORDS, "the corpus repeats its tables");
    let distinct: usize = tables.iter().map(|t| t.len()).sum();
    // What the index holds is reported apart; the rest is provenance.
    let provenance = container.memory_bytes() - container.open_index().memory_bytes();
    let bound = 16 * RECORDS + columns + distinct;
    assert!(
        provenance <= bound,
        "provenance: {provenance} B resident, bound {bound}"
    );
    // And not by leaving something out: every name is there to be read.
    assert!(provenance >= 12 * RECORDS + columns + distinct);
    let named: usize = records.iter().map(|r| r.table.len()).sum();
    assert!(
        named > 4 * distinct,
        "a table's name is held once, not per column"
    );
}
