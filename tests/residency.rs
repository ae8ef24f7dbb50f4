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
//!
//! A third test holds the read path to the pages it needs: a served index
//! answers queries without reading its id → row directory, because a
//! candidate is verified in the row its probe found and a hit carries its
//! size to the render.

#![cfg(target_os = "linux")]

use lshe_corpus::json::Json;
use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_serve::client::HttpClient;
use lshe_serve::server::{start, ServerConfig};
use lshe_serve::{Engine, IndexContainer};
use lshe_store::{Advice, Mmap};
use std::io::{Read, Seek, SeekFrom};
use std::path::PathBuf;
use std::sync::Arc;

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

/// The kernel's fault-around window: a fault maps the window of this
/// many bytes of address space around the page read — and whole any
/// page-cache folio (at most as large, as an index file is written) that
/// straddles the window's edge.
const WINDOW: usize = 64 << 10;

/// The page size, from the auxiliary vector (`AT_PAGESZ`).
fn page_size() -> usize {
    let auxv = std::fs::read("/proc/self/auxv").expect("auxv");
    let words = auxv.chunks_exact(8).map(|w| {
        usize::try_from(u64::from_ne_bytes(w.try_into().expect("8 bytes"))).expect("a word")
    });
    let words: Vec<usize> = words.collect();
    let page = words.chunks_exact(2).find(|pair| pair[0] == 6);
    page.map(|pair| pair[1]).expect("AT_PAGESZ")
}

/// The address of every page of `bytes` this process has mapped: bit 63
/// of its `/proc/self/pagemap` entry.
fn present_pages(bytes: &[u8]) -> Vec<usize> {
    let page = page_size();
    let from = bytes.as_ptr() as usize / page;
    let to = (bytes.as_ptr() as usize + bytes.len()).div_ceil(page);
    let mut pagemap = std::fs::File::open("/proc/self/pagemap").expect("pagemap");
    pagemap
        .seek(SeekFrom::Start(from as u64 * 8))
        .expect("seek");
    let mut entries = vec![0u8; (to - from) * 8];
    pagemap.read_exact(&mut entries).expect("read pagemap");
    let present = entries
        .chunks_exact(8)
        .map(|e| u64::from_ne_bytes(e.try_into().expect("8 bytes")) >> 63 == 1);
    (from..to)
        .zip(present)
        .filter_map(|(p, present)| present.then_some(p * page))
        .collect()
}

/// A saved and loaded index of 60 000 domains answers threshold, top-k
/// and batched queries over HTTP, in process; afterwards no page of its
/// id → row directory (480 kB) is mapped, except in the two fault-around
/// windows the directory shares with the records before it and the
/// partitions after it, and the folios straddling their edges.
#[test]
fn queries_leave_the_directory_unread() {
    const DOMAINS: usize = 60_000;
    // Domain k holds values k .. k + 8: neighbours overlap, so a query has
    // hits beside its own domain.
    let values = |k: usize| -> Vec<String> { (k..k + 8).map(|v| format!("v{v}")).collect() };
    let mut catalog = Catalog::new();
    for k in 0..DOMAINS {
        let domain = Domain::from_strs(values(k).iter().map(String::as_str));
        let meta = DomainMeta::new(format!("table_{}", k % 64), format!("col_{k}"));
        catalog.push(domain, meta);
    }
    let path = scratch("directory.lshe");
    IndexContainer::build(&catalog, 16)
        .save(&path)
        .expect("save");
    let engine = Arc::new(Engine::load(&path, 1).expect("load"));
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let server = start(Arc::clone(&engine), &config).expect("bind");
    let mut client = HttpClient::connect(server.addr());
    // Queries spread over the whole id range, so that a lookup by id
    // would touch the directory from end to end.
    let asked: Vec<usize> = (0..48).map(|i| i * (DOMAINS / 48) + 17).collect();
    let body = |k: usize, mode: &str| {
        let quoted: Vec<String> = values(k).iter().map(|v| format!("\"{v}\"")).collect();
        format!("{{\"values\":[{}],{mode}}}", quoted.join(","))
    };
    let mut hits = 0;
    let mut count = |answer: &Json| {
        let found = answer.get("hits").and_then(Json::as_array).expect("hits");
        assert!(found
            .iter()
            .all(|h| h.get("size").and_then(Json::as_u64) == Some(8)));
        hits += found.len();
    };
    for (i, &k) in asked.iter().enumerate() {
        let (route, mode) = match i % 3 {
            0 => ("/query", "\"threshold\":0.5"),
            1 => ("/topk", "\"k\":10"),
            _ => continue,
        };
        let (status, answer) = client.post(route, &body(k, mode));
        assert_eq!(status, 200, "{route}: {answer}");
        count(&answer);
    }
    let batched: Vec<String> = asked
        .iter()
        .skip(2)
        .step_by(3)
        .map(|&k| body(k, "\"threshold\":0.5"))
        .collect();
    let (status, reply) = client.post(
        "/batch",
        &format!("{{\"queries\":[{}]}}", batched.join(",")),
    );
    assert_eq!(status, 200, "/batch: {reply}");
    let results = reply
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    results.iter().for_each(&mut count);
    assert!(
        hits >= asked.len(),
        "{hits} hits for {} queries",
        asked.len()
    );

    let snapshot = engine.snapshot();
    let container = snapshot.container();
    let mapping = container.mapping().expect("served from its file");
    let range = lshe_serve::testkit::directory_range(container).expect("directory in the file");
    assert!(
        range.len() >= 6 * WINDOW,
        "{range:?}: a directory too small to tell"
    );
    let directory = &mapping[range.clone()];
    let (first, last) = (
        directory.as_ptr() as usize,
        directory.as_ptr() as usize + directory.len() - 1,
    );
    // What a fault beside an edge may map: the edge's window, and a
    // folio's reach (a page short of a window) either side of it.
    let reach = WINDOW - page_size();
    let near = |at: usize, edge: usize| {
        let window = edge / WINDOW * WINDOW;
        window - reach <= at && at < window + WINDOW + reach
    };
    let shared = |at: usize| near(at, first) || near(at, last);
    let read: Vec<usize> = present_pages(directory)
        .into_iter()
        .filter(|&at| !shared(at))
        .map(|at| at - mapping.as_ptr() as usize)
        .collect();
    let resident = container.mapped_resident_bytes().expect("smaps on Linux");
    server.shutdown();
    drop(snapshot);
    drop(engine);
    std::fs::remove_file(&path).ok();
    assert!(resident > 0, "the queries read nothing of the file");
    assert!(
        read.is_empty(),
        "{} B of the directory {range:?} are mapped outside its edge windows, at file offsets {read:?}",
        read.len() * page_size(),
    );
}
