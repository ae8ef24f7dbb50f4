//! Bytes per indexed domain, pinned as a bound.
//!
//! A ranked index needs each domain's signature once — each prefix tree's
//! first key lane at 32 bits, the other lanes at 16: `4·b_max +
//! 2·(m − b_max)` bytes, 576 by default — and one 4-byte `(lo, row)` entry
//! per prefix tree (`4·b_max`: the head's low 16 bits and a block-local
//! `u16` row), plus its id and cardinality. The `.lshe` beyond its
//! provenance records, and the resident index `/stats` reports as
//! `index_bytes`, must stay within `4·b_max + 2·(m − b_max) + 4·b_max + 16`
//! bytes per domain (720 by default); the packed file, which holds no
//! records and whose trees keep a `u32` table position, not a `u16` row,
//! gets `2·b_max` more for the whole file — so a later change cannot
//! quietly store the lanes a second time (as tree keys, or as a sketch
//! section beside the forests), or wider, without this failing. Loaded from
//! its file, the index keeps at most 64 of those bytes a domain on the
//! heap: the rest is views into the mapping (`mapped_bytes`). What `lshe
//! stats` reports as `trees` is those entries exactly, and the id → row
//! map it reports beside them (`id_map_bytes`) is there to be counted.
//!
//! Resident provenance has a bound of its own: a container holds its
//! records as columns — 24 bytes a record at most, beside the text of each
//! column name and of each *distinct* table name — not as a struct and two
//! heap strings a record.

use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_serve::IndexContainer;

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

    // Heap form: a record is id + size + two length-prefixed strings.
    let records: usize = container
        .records()
        .iter()
        .map(|r| 4 + 8 + 8 + r.table.len() + 8 + r.column.len())
        .sum();
    let heap = container.to_bytes().len() - records;
    assert!(
        heap <= bound * DOMAINS,
        "heap container: {} B per domain beyond its records, bound {bound}",
        heap as f64 / DOMAINS as f64
    );

    // Packed form, the whole file: no records, and a tree entry keeps a
    // global `u32` position in the one sketch table of the file, not a
    // block-local `u16` row — 2 more bytes an entry.
    let packed_bound = bound + 2 * B_MAX;
    let dir = std::env::temp_dir().join(format!("lshe_bytes_per_domain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("index.lshepk");
    container.pack_v2(&path).expect("pack");
    let packed = std::fs::metadata(&path).expect("stat").len() as usize;
    assert!(
        packed <= packed_bound * DOMAINS,
        "packed file: {} B per domain, bound {packed_bound}",
        packed as f64 / DOMAINS as f64
    );
    // Resident: what `/stats` and `lshe stats` call `index_bytes` — rows,
    // trees and sizes (the id → row map is not part of it).
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
    // all of it on the heap; loaded from its file, what is left there is
    // each domain's cardinality — the rows and trees are views into the
    // mapping, and the same `index_bytes` is reported over them.
    assert_eq!(container.mapped_bytes(), 0);
    let saved = dir.join("index.lshe");
    container.save(&saved).expect("save");
    let loaded = IndexContainer::load(&saved).expect("load");
    let loaded_bytes = loaded.open_index().memory_bytes();
    assert!(loaded_bytes >= row * DOMAINS && loaded_bytes <= bound * DOMAINS);
    let heap_bytes = loaded_bytes - loaded.mapped_bytes();
    assert!(
        heap_bytes <= 64 * DOMAINS,
        "loaded index: {} B of heap per domain, bound 64",
        heap_bytes as f64 / DOMAINS as f64
    );
    // That heap is each domain's cardinality, sized exactly.
    assert_eq!(heap_bytes, 8 * DOMAINS);

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
    let id_map_bytes = loaded.open_index().id_map_bytes();
    assert!(id_map_bytes > 0);
    assert_eq!(reported("id_map_bytes"), id_map_bytes, "{described}");
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
    let bound = 24 * RECORDS + columns + distinct;
    assert!(
        provenance <= bound,
        "provenance: {provenance} B resident, bound {bound}"
    );
    // And not by leaving something out: every name is there to be read.
    assert!(provenance >= 20 * RECORDS + columns + distinct);
    let named: usize = records.iter().map(|r| r.table.len()).sum();
    assert!(
        named > 4 * distinct,
        "a table's name is held once, not per column"
    );
}
