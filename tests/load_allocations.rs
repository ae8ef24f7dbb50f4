//! What a load allocates grows with the sealed segments a file holds, not
//! with their entries: each stored segment row is read where it lies —
//! in the mapping, or in the slice decoded — and copied once, into the
//! forest that keeps it.
//!
//! Two files with the same base and the same number of segments, holding
//! 64 and 640 segment entries, are loaded under a counting allocator,
//! with `IndexContainer::load` and with `IndexContainer::from_bytes`. A
//! decoder that copied each entry's row into a buffer of its own before
//! sealing would allocate at least once more an entry: the counts would
//! differ by the 576 entries between the files or more.
//!
//! The allocator counts every thread's allocations, so this file holds
//! one test, which nothing runs beside.

use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::MinHasher;
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every allocation, fresh or grown, on any thread.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call goes to `System` as it came.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocations made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

const BASE: usize = 200;
const SEGMENTS: usize = 4;

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

/// The same base, then [`SEGMENTS`] commits of `per_segment` inserts each,
/// saved under `dir`: the file's path and its bytes.
fn saved(dir: &std::path::Path, per_segment: usize) -> (PathBuf, Vec<u8>) {
    let mut container = IndexContainer::from_stream(corpus(BASE, 7), 8, true);
    let hasher = MinHasher::new(container.num_perm());
    let fresh = corpus(SEGMENTS * per_segment, 8);
    let ids = (BASE as u32..).step_by(per_segment);
    for (first, batch) in ids.zip(fresh.chunks(per_segment)) {
        let ops: Vec<DeltaOp> = (first..)
            .zip(batch)
            .map(|(id, pair)| insert(id, pair, &hasher))
            .collect();
        assert!(container.commit(&ops).expect("commit").sealed);
    }
    assert_eq!(container.segment_layout().segments.len(), SEGMENTS);
    let path = dir.join(format!("{per_segment}.lshe"));
    container.save(&path).expect("save");
    (path, container.to_bytes())
}

#[test]
fn a_load_allocates_per_segment_not_per_entry() {
    let dir = std::env::temp_dir().join(format!("lshe_load_allocs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let (few, many) = (SEGMENTS * 16, SEGMENTS * 160);
    let files = [saved(&dir, few / SEGMENTS), saved(&dir, many / SEGMENTS)];
    let mut loads = Vec::new();
    let mut slices = Vec::new();
    for ((path, bytes), entries) in files.iter().zip([few, many]) {
        let (loaded, made) = counted(|| IndexContainer::load(path).expect("load"));
        assert_eq!(loaded.len(), BASE + entries);
        loads.push(made);
        let (decoded, made) = counted(|| IndexContainer::from_bytes(bytes).expect("decode"));
        assert_eq!(decoded.len(), BASE + entries);
        slices.push(made);
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (route, made) in [("load", &loads), ("from_bytes", &slices)] {
        let grew = made[1].saturating_sub(made[0]);
        assert!(
            grew < many - few,
            "{route}: {} allocations for {few} segment entries, {} for {many}: \
             {grew} more for {} more entries",
            made[0],
            made[1],
            many - few,
        );
    }
}
