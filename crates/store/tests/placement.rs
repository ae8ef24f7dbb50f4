//! Where `Mmap::map_file` places a mapping leaves nothing behind: on Linux
//! it reserves address space 2 MiB longer than the file, maps the file
//! into it one page past the 2 MiB grid and unmaps the rest, so neither
//! while the mapping lives nor after it drops may `/proc/self/maps` hold an
//! anonymous `PROT_NONE` entry the reservation left. `mmap::tests`
//! checks the mapped bytes and the address.
//!
//! The one test of its own binary, so that no other test's thread maps or
//! unmaps memory beside the reservation while it looks.

#![cfg(target_os = "linux")]

use lshe_store::Mmap;
use std::ops::Range;

/// The 2 MiB grid the mapping is placed against.
const GRID: usize = 2 << 20;

/// `(start, end)` of every anonymous `PROT_NONE` entry of
/// `/proc/self/maps` — what an unmapped-too-little reservation leaves.
fn reserved_entries() -> Vec<(usize, usize)> {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("maps");
    let mut out = Vec::new();
    for line in maps.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        // `start-end perms offset dev inode [path]`
        let [span, "---p", _, _, "0", ..] = fields[..] else {
            continue;
        };
        if fields.len() > 5 {
            continue; // named: a stack guard or the like, not ours
        }
        let (lo, hi) = span.split_once('-').expect("a span");
        let hex = |s: &str| usize::from_str_radix(s, 16).expect("hex");
        out.push((hex(lo), hex(hi)));
    }
    out
}

/// The entries of `now` that overlap `window` and were not in `before`.
fn new_within(
    before: &[(usize, usize)],
    now: &[(usize, usize)],
    window: &Range<usize>,
) -> Vec<(usize, usize)> {
    let overlaps = |&&(lo, hi): &&(usize, usize)| lo < window.end && hi > window.start;
    now.iter()
        .filter(overlaps)
        .filter(|entry| !before.contains(entry))
        .copied()
        .collect()
}

#[test]
fn the_reservation_leaves_no_entry_behind() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    // An empty file maps nothing and reserves nothing (`mmap::tests`).
    let sizes = [1, 4095, 4096, GRID - 1, GRID, GRID + 1, 8 << 20];
    for len in sizes {
        let path = dir.join(format!("lshe_placement_{len}_{}", std::process::id()));
        std::fs::write(&path, vec![1u8; len]).expect("write");
        let file = std::fs::File::open(&path).expect("open");

        let before = reserved_entries();
        let map = Mmap::map_file(&file).expect("map");
        let start = map.as_slice().as_ptr() as usize;
        // The reservation began at most a grid below the mapping and ended
        // at most a grid past its last page.
        let window = start - GRID..start + len.next_multiple_of(4096) + GRID;
        let live = new_within(&before, &reserved_entries(), &window);
        assert!(live.is_empty(), "{len} B at {start:#x}: left {live:x?}");

        drop(map);
        let dropped = new_within(&before, &reserved_entries(), &window);
        assert!(dropped.is_empty(), "{len} B: left {dropped:x?} after drop");
        std::fs::remove_file(&path).ok();
    }
}
