//! Residency follows the pages a query reads, not the page-cache folios
//! they lie in.
//!
//! The page cache holds a file in folios as large as the writes that
//! filled it (up to 2 MiB), and a fault maps the whole folio wherever it
//! fits inside one page table. Two decisions keep a fault to the kernel's
//! fault-around window (64 KiB): `Mmap::map_file` places file offset 0 one
//! page past a 2 MiB boundary, so no 2 MiB folio fits, and an index file
//! is written 64 KiB at a time, so no folio of it is larger than the
//! window. Each test below fails without its decision, on a kernel that
//! maps whole folios on a fault (Linux 6.18 on ext4 does).
//!
//! Both pass trivially on a kernel or file system that keeps no large
//! folios in the page cache: a fault then maps small pages only. The files
//! are written under the target directory, on the checkout's file system,
//! not on a `tmpfs`.

#![cfg(target_os = "linux")]

use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_serve::IndexContainer;
use lshe_store::{Advice, Mmap};
use std::path::PathBuf;

/// Two fault-around windows: one a touch maps, and one more in case the
/// window straddles the touch.
const TOUCH_BOUND: usize = 128 << 10;

fn scratch(name: &str) -> PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    dir.join(format!("lshe_residency_{name}_{}", std::process::id()))
}

/// An 8 MiB file written in one go is held in 2 MiB folios; a byte read
/// in each of three of them maps three windows, not three folios (6 MiB).
#[test]
fn a_touch_maps_a_window_not_a_folio() {
    let path = scratch("touch");
    std::fs::write(&path, vec![1u8; 8 << 20]).expect("write");
    let file = std::fs::File::open(&path).expect("open");
    let map = Mmap::map_file(&file).expect("map");
    map.advise(Advice::DontNeed);
    let touched: u32 = [1usize, 3, 5]
        .iter()
        .map(|&mib| u32::from(std::hint::black_box(map.as_slice()[mib << 20])))
        .sum();
    assert_eq!(touched, 3);
    let resident = map.resident_bytes().expect("smaps on Linux");
    std::fs::remove_file(&path).ok();
    assert!(
        resident <= 3 * TOUCH_BOUND,
        "{resident} B resident after three one-byte reads"
    );
}

/// A saved index is written 64 KiB at a time: a byte read inside its
/// first MiB after a load maps one window, where a 1 MiB write would have
/// left a 1 MiB folio to map whole.
#[test]
fn a_saved_index_faults_in_a_window_at_a_time() {
    let mut catalog = Catalog::new();
    for k in 0..6_000u64 {
        let values: Vec<u64> = (0..8).map(|j| (k << 8) | j).collect();
        let meta = DomainMeta::new(format!("table_{}", k % 64), format!("col_{k}"));
        catalog.push(Domain::from_hashes(values), meta);
    }
    let path = scratch("saved.lshe");
    IndexContainer::build(&catalog, 8)
        .save(&path)
        .expect("save");
    let loaded = IndexContainer::load(&path).expect("load");
    let mapping = loaded.mapping().expect("served from its file");
    assert!(mapping.len() >= 4 << 20, "{} B file", mapping.len());
    assert_eq!(loaded.mapped_resident_bytes(), Some(0), "load releases");
    std::hint::black_box(mapping[512 << 10]);
    let resident = loaded.mapped_resident_bytes().expect("smaps on Linux");
    drop(loaded);
    std::fs::remove_file(&path).ok();
    assert!(
        resident <= TOUCH_BOUND,
        "{resident} B resident after a one-byte read"
    );
}
