//! Where a loaded index keeps its base — asserted by pointer facts, not by
//! timing, like `commit_sharing.rs`.
//!
//! `IndexContainer::load` maps a heap `.lshe` file and keeps the mapping:
//! every bulk column of every base partition (ids, rows, each tree, the
//! rows' sizes) and every record column is a view into it, nothing is
//! copied, and a container that was built holds none.
//! The views answer bit for bit like the vectors they came from; a commit
//! and a segment merge leave them alone; a full fold through the engine
//! ends on the file it wrote; a server keeps answering from the file it
//! loaded once another is renamed over its path, or the path is gone;
//! every column, cut at either end or damaged where its check looks, is a
//! typed decode error naming its section; and so are a partition's ids that
//! do not ascend, and an id in two partitions.

use lshe_core::{DomainIndex, LshEnsemble, MergeTask, Query, QueryStats, SearchOutcome};
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::codec::CodecError;
use lshe_minhash::{MinHasher, Signature};
use lshe_serve::container::LoadError;
use lshe_serve::{Engine, IndexContainer, Snapshot};
use std::ops::Range;
use std::path::{Path, PathBuf};

const BASE: usize = 400;
const PARTITIONS: usize = 8;

fn corpus(n: usize, seed: u64) -> Vec<(Domain, DomainMeta)> {
    CorpusStream::new(CorpusConfig {
        seed,
        ..CorpusConfig::wdc_web_tables_like(n)
    })
    .collect()
}

fn sketch(domain: &Domain) -> (Signature, u64) {
    let hasher = MinHasher::new(lshe_minhash::DEFAULT_NUM_PERM);
    let sig = hasher.signature(domain.hashes().iter().copied());
    (sig, domain.len() as u64)
}

fn stage(engine: &Engine, (domain, meta): &(Domain, DomainMeta)) -> u32 {
    let (sig, size) = sketch(domain);
    let staged = engine.stage_insert(meta.table.clone(), meta.column.clone(), size, sig);
    staged.expect("stage insert").0
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lshe_mapped_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Self(dir)
    }

    fn index(&self) -> PathBuf {
        self.0.join("idx.lshe")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn saved(name: &str) -> (Scratch, IndexContainer) {
    let dir = Scratch::new(name);
    let built = IndexContainer::from_stream(corpus(BASE, 7), PARTITIONS, true);
    built.save(&dir.index()).expect("save");
    (dir, built)
}

/// An answer without its wall time: each hit's id and its estimate's bits,
/// and the probe counters.
type Answer = (Vec<(u32, Option<u64>)>, QueryStats);

fn answer(outcome: SearchOutcome) -> Answer {
    let hits = outcome.hits.iter();
    let hits = hits.map(|h| (h.id, h.estimate.map(f64::to_bits)));
    let stats = QueryStats {
        wall_micros: 0,
        ..outcome.stats
    };
    (hits.collect(), stats)
}

/// Threshold, top-k and one batch of both over a sample of the corpus,
/// every answer without its wall time.
fn answers(index: &dyn DomainIndex) -> Vec<Answer> {
    let sample: Vec<(Signature, u64)> = corpus(BASE, 7)
        .iter()
        .step_by(7)
        .chain(&corpus(6, 8))
        .map(|(domain, _)| sketch(domain))
        .collect();
    let mut queries = Vec::new();
    for (sig, size) in &sample {
        for t in [0.2, 0.5, 0.9] {
            queries.push(Query::threshold(sig, t).with_size(*size));
        }
        queries.push(Query::top_k(sig, 4).with_size(*size));
    }
    let singly = queries.iter().map(|q| index.search(q).expect("search"));
    let mut out: Vec<_> = singly.map(answer).collect();
    let batch = index.search_batch(&queries).into_iter();
    out.extend(batch.map(|found| answer(found.expect("batch search"))));
    out
}

fn all(flag: bool) -> Vec<bool> {
    vec![flag; PARTITIONS]
}

#[test]
fn a_loaded_base_is_views_into_the_file_and_a_built_one_is_heap() {
    let (dir, built) = saved("views");
    assert_eq!(built.base_in_place(), all(false));
    assert_eq!(built.mapped_bytes(), 0);
    assert!(built.mapping().is_none());

    assert!(!built.records_in_place());

    let loaded = IndexContainer::load(&dir.index()).expect("load");
    assert_eq!(loaded.base_in_place(), all(true));
    assert!(loaded.records_in_place());
    let file = std::fs::read(dir.index()).expect("read");
    assert!(
        loaded.mapping() == Some(&file[..]),
        "the mapping is the file"
    );
    // What is mapped is every row (id, lanes and size) and tree column;
    // nothing of the index is left on the heap, nor of the records, and the
    // id map is empty.
    assert_eq!(loaded.mapped_bytes(), BASE * (4 + 576 + 4 * 32 + 8));
    let heap = loaded.open_index().memory_bytes() - loaded.mapped_bytes();
    assert_eq!(heap, 0, "{heap} B of heap");
    assert_eq!(loaded.open_index().id_map_bytes(), 0);
    assert_eq!(loaded.provenance_bytes(), 0);
    // A clone is more views, not a copy; the bytes decoded from a slice are
    // one.
    let clone = loaded.clone();
    assert_eq!(clone.base_in_place(), all(true));
    assert!(clone.records_in_place());
    let copied = IndexContainer::from_bytes(&file).expect("decode");
    assert_eq!(copied.mapped_bytes(), 0);
    assert_eq!(copied.base_in_place(), all(false));
    assert!(!copied.records_in_place());

    let want = answers(&*built.open_index());
    assert!(answers(&*loaded.open_index()) == want, "loaded");
    assert!(answers(&*copied.open_index()) == want, "copied");
    assert!(loaded.to_bytes() == file, "re-encoded through the views");
}

#[test]
fn a_commit_and_a_segment_merge_leave_every_base_column_a_view() {
    let (dir, _) = saved("merge");
    let engine = Engine::load(&dir.index(), 1).expect("engine");
    let loaded = engine.snapshot();
    let fresh = corpus(6, 8);
    for (k, batch) in fresh.chunks(3).enumerate() {
        batch.iter().for_each(|pair| {
            stage(&engine, pair);
        });
        engine.stage_remove(20 + k as u32).expect("stage remove");
        assert!(engine.commit_staged().expect("commit").1.sealed);
    }
    let committed = engine.snapshot();
    assert_eq!(committed.container().segment_layout().segments.len(), 2);
    let (merged, outcome) = engine
        .apply_merge(&MergeTask::Merge(vec![0, 1]))
        .expect("merge");
    assert_eq!(outcome.entries_folded, 6);
    for snap in [&committed, &merged] {
        assert_eq!(snap.container().base_in_place(), all(true));
        assert!(snap.container().records_in_place());
        let shared = snap.container().base_shared_with(loaded.container());
        assert_eq!(shared, (all(true), true));
        assert_eq!(
            snap.container().mapping().map(<[u8]>::as_ptr),
            loaded.container().mapping().map(<[u8]>::as_ptr),
            "still the mapping it was loaded over"
        );
    }
    // The merge saved the file by rename; what it wrote loads to the same
    // answers as the snapshot that is being served from the old one.
    let reloaded = Engine::load(&dir.index(), 1).expect("reload");
    assert_ne!(
        reloaded
            .snapshot()
            .container()
            .mapping()
            .map(<[u8]>::as_ptr),
        merged.container().mapping().map(<[u8]>::as_ptr)
    );
    assert!(answers(reloaded.snapshot().index()) == answers(merged.index()));
}

fn mapped_at(snap: &Snapshot) -> *const u8 {
    snap.container()
        .mapping()
        .expect("served in place")
        .as_ptr()
}

#[test]
fn a_full_fold_through_the_engine_ends_on_the_file_it_wrote() {
    let (dir, _) = saved("compact");
    let engine = Engine::load(&dir.index(), 1).expect("engine");
    let loaded = engine.snapshot();
    let before = answers(loaded.index());
    let fresh = corpus(4, 8);
    let ids: Vec<u32> = fresh.iter().map(|pair| stage(&engine, pair)).collect();
    engine.stage_remove(5).expect("stage remove");
    engine.commit_staged().expect("commit");

    let (compacted, _) = engine.compact().expect("compact");
    let container = compacted.container();
    let parts = container.base_in_place();
    assert!(parts.iter().all(|&p| p), "{parts:?}");
    let file = std::fs::read(dir.index()).expect("read");
    assert!(container.mapping() == Some(&file[..]), "the new file");
    assert_ne!(mapped_at(&compacted), mapped_at(&loaded));
    assert!(container.segment_layout().segments.is_empty());
    assert_eq!(container.len(), BASE + 3);
    assert!(ids.iter().all(|&id| container.record(id).is_some()));
    assert!(container.record(5).is_none());
    // The snapshot a reader still holds is served from the old file.
    assert!(answers(loaded.index()) == before);
    // And a restart finds what the engine is serving.
    let restarted = Engine::load(&dir.index(), 1).expect("restart");
    let served = answers(compacted.index());
    assert!(answers(restarted.snapshot().index()) == served);
}

fn unlink(path: &Path) {
    std::fs::remove_file(path).expect("unlink");
    assert!(!path.exists());
}

#[test]
fn a_loaded_index_outlives_its_path_being_replaced_and_unlinked() {
    let (dir, _) = saved("replaced");
    let engine = Engine::load(&dir.index(), 1).expect("engine");
    let snap = engine.snapshot();
    let want = answers(snap.index());
    let file = std::fs::read(dir.index()).expect("read");

    // Another index saved over the path: tmp + rename, so the mapping
    // still is the file that was loaded.
    let other = IndexContainer::from_stream(corpus(BASE / 2, 11), PARTITIONS, true);
    other.save(&dir.index()).expect("save over");
    assert_ne!(std::fs::read(dir.index()).expect("read").len(), file.len());
    assert!(snap.container().mapping() == Some(&file[..]));
    assert!(answers(snap.index()) == want, "after a rename");

    unlink(&dir.index());
    assert!(answers(snap.index()) == want, "after an unlink");
    assert_eq!(snap.container().base_in_place(), all(true));
    // Mutations still land, beside the views, with nowhere to persist.
    stage(&engine, &corpus(1, 12)[0]);
    let (committed, _) = engine.commit_staged().expect("commit");
    assert_eq!(committed.container().len(), BASE + 1);
    assert_eq!(committed.container().base_in_place(), all(true));
}

/// Where a `.lshe` keeps what it serves in place beyond the forests: each
/// column by the section its decode errors name and what it is, and the
/// offset of each pad in front of them.
struct Columns {
    columns: Vec<(&'static str, &'static str, Range<usize>)>,
    pads: Vec<usize>,
}

fn u64_at(file: &[u8], at: usize) -> usize {
    u64::from_le_bytes(file[at..at + 8].try_into().expect("8 bytes")) as usize
}

/// Reads the layout `IndexContainer::to_bytes` writes (`docs/FORMAT.md`).
fn columns(file: &[u8]) -> Columns {
    let (mut columns, mut pads) = (Vec::new(), Vec::new());
    // Behind the envelope (5) and num_perm (4): four counts, a pad, the
    // record columns.
    let [records, tables, column_text, table_text] = [9, 17, 25, 33].map(|at| u64_at(file, at));
    pads.push(41);
    let mut at = 42 + usize::from(file[41]);
    for (name, len) in [
        ("record ids", 4 * records),
        ("record tables", 4 * records),
        ("column name ends", 4 * records),
        ("table name ends", 4 * tables),
        ("column names", column_text),
        ("table names", table_text),
    ] {
        columns.push(("domain records", name, at..at + len));
        at += len;
    }
    // The ensemble's length, envelope (5), dims (12), strategy (a tag and
    // an equi-depth count), `len`, then the partition count and the
    // partitions, each with its sizes.
    at += 8 + 5 + 12 + 9 + 8;
    let parts = u64_at(file, at);
    at += 8;
    for _ in 0..parts {
        at += 24 + u64_at(file, at + 16);
        let rows = u64_at(file, at);
        at += 8;
        pads.push(at);
        at += 1 + usize::from(file[at]);
        columns.push(("ensemble", "sizes", at..at + 8 * rows));
        at += 8 * rows;
    }
    Columns { columns, pads }
}

fn load_error_section(path: &Path, bytes: &[u8]) -> Option<&'static str> {
    std::fs::write(path, bytes).expect("write");
    match IndexContainer::load(path) {
        Err(LoadError::Decode { section, .. }) => Some(section),
        Err(LoadError::Io { .. }) | Ok(_) => None,
    }
}

#[test]
fn a_file_cut_at_any_page_or_inside_any_pad_is_a_typed_decode_error() {
    let (dir, built) = saved("cut");
    let file = built.to_bytes();
    // Every 4 KiB boundary; both ends of every record column and every
    // partition's sizes; and every byte of every pad: a forest's is `n` and `n` zeros behind its 25-byte
    // header, and so are the others.
    let mut cuts: Vec<usize> = (0..file.len()).step_by(4096).collect();
    let forests = file.windows(4).enumerate();
    let forests: Vec<usize> = forests
        .filter(|(_, tag)| tag == &lshe_lsh::persist::MAGIC)
        .map(|(at, _)| at)
        .collect();
    assert_eq!(forests.len(), PARTITIONS);
    for &at in &forests {
        let pad = at + 25;
        assert!(file[pad] <= 3 && (pad + 1 + file[pad] as usize).is_multiple_of(4));
        cuts.extend(pad..=pad + file[pad] as usize);
    }
    let layout = columns(&file);
    assert_eq!(layout.columns.len(), 6 + PARTITIONS);
    for (_, _, range) in &layout.columns {
        cuts.extend([range.start, range.end]);
    }
    for &pad in &layout.pads {
        cuts.extend(pad..=pad + usize::from(file[pad]));
    }
    let path = dir.0.join("cut.lshe");
    for cut in cuts {
        assert!(
            load_error_section(&path, &file[..cut]).is_some(),
            "cut at {cut} of {}",
            file.len()
        );
    }
    // A pad byte that is not zero is one too (every forest starts on a
    // multiple of 4, so pads 1 + 2).
    let mut dirty = file.clone();
    dirty[forests[PARTITIONS - 1] + 26] = 1;
    assert_eq!(load_error_section(&path, &dirty), Some("ensemble"));
    for &pad in &layout.pads {
        if file[pad] > 0 {
            let mut dirty = file.clone();
            dirty[pad + 1] = 1;
            assert!(load_error_section(&path, &dirty).is_some(), "pad at {pad}");
        }
    }
}

#[test]
fn each_column_served_in_place_refuses_damage_its_check_covers() {
    let (dir, built) = saved("damage");
    let file = built.to_bytes();
    let path = dir.0.join("damaged.lshe");
    assert!(load_error_section(&path, &file).is_none(), "the file loads");
    // The top bit of a column's first value flipped: an id above the next
    // one, a table index or a name end past what there is, a text byte no
    // longer UTF-8 where it was ASCII (or a lead byte turned ASCII before
    // its continuation).
    let flip_top = |range: &Range<usize>, width: usize| {
        let mut bad = file.clone();
        bad[range.start + width - 1] ^= 0x80;
        bad
    };
    let layout = columns(&file);
    // Each partition's sizes: its count, then its pad.
    let mut size_pads = layout.pads[1..].iter();
    for (section, name, range) in layout.columns {
        let damaged = match name {
            "column names" | "table names" => flip_top(&range, 1),
            // A size must be positive: the partition's first one zeroed,
            // and, apart, its count made one more.
            "sizes" => {
                let mut zero = file.clone();
                zero[range.start..range.start + 8].fill(0);
                assert_eq!(
                    load_error_section(&path, &zero),
                    Some(section),
                    "{name} zeroed"
                );
                let count = size_pads.next().expect("a pad a partition") - 8;
                let mut bad = file.clone();
                bad[count] += 1;
                bad
            }
            _ => flip_top(&range, 4),
        };
        assert_eq!(
            load_error_section(&path, &damaged),
            Some(section),
            "{name} at {range:?}"
        );
    }
}

/// What an id's base row is found by — each partition's ids strictly
/// ascend, and no id is in two partitions — is checked where it is read:
/// two neighbouring ids of a partition swapped, or one overwritten by an
/// id another partition holds (its own neighbours still around it), is a
/// typed error of the ensemble's, from a slice or a file, in its container
/// or alone.
#[test]
fn base_ids_that_do_not_ascend_or_repeat_are_refused() {
    let (dir, built) = saved("ids");
    let file = built.to_bytes();
    let path = dir.0.join("ids.lshe");
    // Each forest's ids column, behind its 25-byte header (its row count
    // at 17) and its pad.
    let forests = file.windows(4).enumerate();
    let ids: Vec<Range<usize>> = forests
        .filter(|(_, tag)| tag == &lshe_lsh::persist::MAGIC)
        .map(|(at, _)| {
            let start = at + 26 + usize::from(file[at + 25]);
            start..start + 4 * u64_at(&file, at + 17)
        })
        .collect();
    assert_eq!(ids.len(), PARTITIONS);
    let column = |range: &Range<usize>| -> Vec<u32> {
        let words = file[range.clone()].chunks_exact(4);
        words
            .map(|w| u32::from_le_bytes(w.try_into().expect("4 bytes")))
            .collect()
    };
    let (first, second) = (column(&ids[0]), column(&ids[1]));

    let mut swapped = file.clone();
    let at = ids[0].start;
    swapped[at..at + 8].copy_from_slice(&[&file[at + 4..at + 8], &file[at..at + 4]].concat());

    let (row, other) = (1..first.len() - 1)
        .find_map(|row| {
            let between = |&id: &u32| first[row - 1] < id && id < first[row + 1];
            Some((row, *second.iter().find(|id| between(id))?))
        })
        .expect("ids of the two partitions interleave");
    let mut repeated = file.clone();
    let at = ids[0].start + 4 * row;
    repeated[at..at + 4].copy_from_slice(&other.to_le_bytes());

    let nested = file
        .windows(4)
        .position(|w| w == lshe_core::persist::MAGIC)
        .expect("nested ensemble");
    for (bytes, why) in [
        (swapped, "base partition ids do not ascend"),
        (repeated, "an id is in two base partitions"),
    ] {
        let refused = Some(CodecError::Corrupt(why));
        assert_eq!(IndexContainer::from_bytes(&bytes).err(), refused, "{why}");
        let ensemble = LshEnsemble::from_bytes(&bytes[nested..bytes.len() - 4]);
        assert_eq!(ensemble.err(), refused, "{why}");
        std::fs::write(&path, &bytes).expect("write");
        match IndexContainer::load(&path) {
            Err(LoadError::Decode {
                section, source, ..
            }) => assert_eq!((section, Some(source)), ("ensemble", refused), "{why}"),
            other => panic!("{why}: {other:?}"),
        }
    }
}
