//! A std-only `mmap(2)` facade.
//!
//! Serving an index in place needs one thing the standard library does not
//! expose: "give me the file's bytes as a borrowable region backed by the
//! page cache". With no crates.io access, this module declares the three
//! libc symbols it needs — `mmap`, `munmap`, `madvise` — and builds a safe
//! read-only mapping type over them, the same shape as `lshe-serve`'s
//! epoll/poll shim.
//!
//! Mappings are always `PROT_READ` + `MAP_PRIVATE`: the store never writes
//! through a mapping, and a private mapping keeps a concurrently-truncated
//! file from feeding writes back. A mapping outlives the [`std::fs::File`]
//! it was created from (the kernel keeps the inode pinned), so callers can
//! drop the file handle immediately after mapping.
//!
//! On Linux every mapping is placed so that file offset 0 lies one page
//! past a 2 MiB boundary. A page-cache folio covers a naturally aligned
//! run of the file, and the kernel maps a whole folio on a fault only when
//! it fits inside one page table (2 MiB of address space); one page off the
//! grid, no 2 MiB folio ever does, so a fault maps the fault-around window
//! (64 KiB) and the resident set follows the pages a query reads rather
//! than every 2 MiB folio it touches. The placement costs a `PROT_NONE`
//! reservation 2 MiB longer than the file, of which all but the mapping is
//! given back at once. Elsewhere the kernel picks the address.

pub use sys::Mmap;

/// Paging advice forwarded to `madvise(2)`. Advisory only: failures are
/// ignored (a kernel that rejects advice still serves the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential access (aggressive readahead) — the verify pass.
    Sequential,
    /// Expect random access (minimal readahead) — query serving.
    Random,
    /// Populate the page cache soon — warmup before a latency-sensitive
    /// benchmark or cutover.
    WillNeed,
    /// Drop the pages this process has touched from its resident set. The
    /// mapping is read-only and file-backed, so nothing is lost: a later
    /// read faults the page back in from the page cache — what a loader
    /// does once it has walked a whole file to check it, so that what stays
    /// resident afterwards is what queries reach.
    DontNeed,
}

#[cfg(unix)]
mod sys {
    //! POSIX `mmap` backend. The constants used here (`PROT_READ = 1`,
    //! `MAP_PRIVATE = 2`, and the four `MADV_*` values) have the same
    //! numeric values on Linux and the BSD family, so one module covers
    //! every Unix this workspace builds on.

    use super::Advice;
    use std::fs::File;
    use std::io;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    #[cfg(target_os = "linux")]
    const PROT_NONE: c_int = 0;
    #[cfg(target_os = "linux")]
    const MAP_FIXED: c_int = 0x10;
    #[cfg(target_os = "linux")]
    const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(target_os = "linux")]
    const SC_PAGESIZE: c_int = 30;
    /// The span of address space one page table maps — a PMD on x86-64 and
    /// on 4 KiB-page arm64 — which a whole folio must fit inside to be
    /// mapped on one fault.
    #[cfg(target_os = "linux")]
    const FOLIO_GRID: usize = 2 << 20;
    const MADV_RANDOM: c_int = 1;
    const MADV_SEQUENTIAL: c_int = 2;
    const MADV_WILLNEED: c_int = 3;
    const MADV_DONTNEED: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        fn sysconf(name: c_int) -> std::os::raw::c_long;
    }

    /// `MAP_FAILED`: mmap's error sentinel is all-ones, not null.
    const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    /// A read-only, page-cache-backed mapping of an entire file.
    #[derive(Debug)]
    pub struct Mmap {
        /// Null only for the zero-length mapping (mmap rejects `len == 0`,
        /// so empty files get a dangling empty slice instead).
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
    // so shared references to its bytes are valid from any thread.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps the whole of `file` read-only.
        ///
        /// # Errors
        /// Propagates `mmap` failure (or the metadata read used for the
        /// length).
        pub fn map_file(file: &File) -> io::Result<Self> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidInput, "file exceeds address space")
            })?;
            if len == 0 {
                return Ok(Self {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            let ptr = place(file.as_raw_fd(), len)?;
            Ok(Self { ptr, len })
        }

        /// The mapped bytes.
        #[must_use]
        pub fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the region is never written through this mapping.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }

        /// Mapping length in bytes.
        #[must_use]
        pub fn len(&self) -> usize {
            self.len
        }

        /// True for the mapping of an empty file.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Forwards paging advice to the kernel. Best-effort: errors are
        /// swallowed (advice never affects correctness).
        pub fn advise(&self, advice: Advice) {
            if self.len == 0 {
                return;
            }
            let flag = match advice {
                Advice::Sequential => MADV_SEQUENTIAL,
                Advice::Random => MADV_RANDOM,
                Advice::WillNeed => MADV_WILLNEED,
                Advice::DontNeed => MADV_DONTNEED,
            };
            // SAFETY: ptr/len describe a live mapping owned by self.
            unsafe { madvise(self.ptr, self.len, flag) };
        }

        /// The bytes of this mapping resident in this process, as the
        /// kernel counts them: the `Rss` of every `/proc/self/smaps` entry
        /// inside it. Page-cache state (`mincore`) would count a file just
        /// written as all resident; this counts only the pages the process
        /// has mapped in. `None` off Linux, or when `smaps` cannot be read.
        #[must_use]
        pub fn resident_bytes(&self) -> Option<usize> {
            if !cfg!(target_os = "linux") {
                return None;
            }
            let smaps = File::open("/proc/self/smaps").ok()?;
            let start = self.ptr as usize;
            super::rss_within(io::BufReader::new(smaps), start..start + self.len)
        }
    }

    /// Maps `len` bytes of `fd` read-only with file offset 0 one page past
    /// a [`FOLIO_GRID`] boundary (the module doc says why): reserves
    /// `PROT_NONE` address space a grid longer than the mapping, maps the
    /// file over it at the placed address, and unmaps the rest.
    #[cfg(target_os = "linux")]
    fn place(fd: c_int, len: usize) -> io::Result<*mut c_void> {
        // SAFETY: sysconf reads a constant of the running system.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).unwrap_or(4096);
        let span = len.next_multiple_of(page);
        let reserved_len = span.checked_add(FOLIO_GRID).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "file exceeds address space")
        })?;
        // SAFETY: an anonymous PROT_NONE mapping at an address the kernel
        // picks overlaps no existing mapping and gives access to nothing.
        let reserved = unsafe {
            mmap(
                std::ptr::null_mut(),
                reserved_len,
                PROT_NONE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if reserved == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let start = reserved as usize;
        // At most a grid past `start`, so `at + span` ends inside the
        // reservation; at least a page past it, so the head is never empty.
        let at = start.next_multiple_of(FOLIO_GRID) + page;
        // SAFETY: [at, at + span) lies inside the reservation, which this
        // function alone refers to, so MAP_FIXED replaces only its pages;
        // fd is a live descriptor and len its file's size.
        let ptr = unsafe {
            mmap(
                at as *mut c_void,
                len,
                PROT_READ,
                MAP_PRIVATE | MAP_FIXED,
                fd,
                0,
            )
        };
        let (head, tail) = (at - start, start + reserved_len - (at + span));
        let unmap = |from: usize, len: usize| {
            if len > 0 {
                // SAFETY: [from, from + len) lies in the reservation and
                // holds none of the file's mapping: its head or tail, or,
                // after a failed MAP_FIXED, all of it, which the kernel
                // leaves reserved (a bad descriptor or file is refused
                // before the range is touched, and since Linux 6.12 a
                // later failure restores it). Each part is unmapped once.
                unsafe { munmap(from as *mut c_void, len) };
            }
        };
        if ptr == MAP_FAILED {
            let error = io::Error::last_os_error();
            unmap(start, reserved_len);
            return Err(error);
        }
        unmap(start, head);
        unmap(at + span, tail);
        Ok(ptr)
    }

    /// Maps `len` bytes of `fd` read-only wherever the kernel picks.
    #[cfg(not(target_os = "linux"))]
    fn place(fd: c_int, len: usize) -> io::Result<*mut c_void> {
        // SAFETY: fd is a live file descriptor and len matches the file
        // size; the kernel validates everything else.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
        if ptr == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr)
    }

    impl AsRef<[u8]> for Mmap {
        fn as_ref(&self) -> &[u8] {
            self.as_slice()
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: ptr/len describe a live mapping owned by this
                // instance and unmapped exactly once.
                unsafe { munmap(self.ptr, self.len) };
            }
        }
    }
}

/// The summed `Rss` of the `smaps` entries lying inside `range`, in bytes.
/// Streams the lines (one entry's header, then its fields): a process's
/// whole `smaps` is never held.
fn rss_within(smaps: impl std::io::BufRead, range: std::ops::Range<usize>) -> Option<usize> {
    let (mut inside, mut kb) = (false, 0usize);
    for line in smaps.lines() {
        let line = line.ok()?;
        // A header: `start-end perms offset dev inode [path]`, in hex.
        let header = line.split(' ').next().and_then(|span| span.split_once('-'));
        let start = header.and_then(|(lo, hi)| {
            usize::from_str_radix(hi, 16).ok()?;
            usize::from_str_radix(lo, 16).ok()
        });
        if let Some(start) = start {
            inside = range.contains(&start);
        } else if let Some(rss) = line.strip_prefix("Rss:").filter(|_| inside) {
            kb += rss
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<usize>()
                .ok()?;
        }
    }
    Some(kb * 1024)
}

#[cfg(not(unix))]
compile_error!(
    "lshe-store's in-place reader needs POSIX mmap(2); \
     no backend exists for this target"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("lshe_mmap_{name}_{}", std::process::id()));
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(bytes).expect("write");
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = tmp("basic", b"hello mapped world");
        let file = std::fs::File::open(&path).expect("open");
        let map = Mmap::map_file(&file).expect("map");
        drop(file); // mapping must outlive the handle
        assert_eq!(map.as_slice(), b"hello mapped world");
        assert_eq!(map.len(), 18);
        assert!(!map.is_empty());
        map.advise(Advice::Sequential);
        map.advise(Advice::Random);
        map.advise(Advice::WillNeed);
        // Released pages read back the same.
        map.advise(Advice::DontNeed);
        assert_eq!(map.as_ref(), b"hello mapped world");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resident_bytes_count_the_pages_touched_since_a_release() {
        let body = vec![7u8; 64 << 12];
        let path = tmp("resident", &body);
        let map = Mmap::map_file(&std::fs::File::open(&path).expect("open")).expect("map");
        map.advise(Advice::Random);
        map.advise(Advice::DontNeed);
        let resident = map.resident_bytes();
        assert_eq!(
            resident.is_some(),
            cfg!(target_os = "linux"),
            "Linux has smaps"
        );
        let Some(released) = resident else {
            return;
        };
        assert_eq!(released, 0);
        let touched: u64 = map
            .as_slice()
            .iter()
            .step_by(4096)
            .map(|&b| u64::from(b))
            .sum();
        assert_eq!(touched, 7 * 64);
        assert_eq!(map.resident_bytes(), Some(body.len()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rss_is_summed_over_the_entries_inside_the_range() {
        let smaps = "\
7f0000000000-7f0000002000 r--p 00000000 08:01 12 /x.lshe
Size:                  8 kB
Rss:                   4 kB
7f0000002000-7f0000003000 r--p 00002000 08:01 12 /x.lshe
Rss:                   4 kB
7f0000003000-7f0000004000 rw-p 00000000 00:00 0
Rss:                   4 kB
";
        let at = 0x7f00_0000_0000;
        assert_eq!(rss_within(smaps.as_bytes(), at..at + 0x3000), Some(8 << 10));
        assert_eq!(
            rss_within(smaps.as_bytes(), at + 0x2000..at + 0x3000),
            Some(4 << 10)
        );
        assert_eq!(rss_within(smaps.as_bytes(), 0..0x1000), Some(0));
        assert_eq!(
            rss_within("7f0-7f1 r\nRss: lots".as_bytes(), 0x7f0..0x7f1),
            None
        );
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = tmp("empty", b"");
        let file = std::fs::File::open(&path).expect("open");
        let map = Mmap::map_file(&file).expect("map");
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        map.advise(Advice::Random); // no-op, must not crash
        std::fs::remove_file(&path).ok();
    }

    /// File sizes the placement is checked at: empty, a byte, a page and
    /// either side of it, the 2 MiB grid and either side of it, and four
    /// grids.
    const SIZES: [usize; 8] = [
        0,
        1,
        4095,
        4096,
        (2 << 20) - 1,
        2 << 20,
        (2 << 20) + 1,
        8 << 20,
    ];

    /// `len` bytes in which every offset's neighbourhood differs, so a
    /// mapping shifted by a page or more reads otherwise.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i ^ (i >> 12) ^ (i >> 21)) as u8)
            .collect()
    }

    #[test]
    fn placement_keeps_the_bytes_and_leaves_the_grid() {
        for len in SIZES {
            let path = tmp(&format!("placed_{len}"), &patterned(len));
            let map = Mmap::map_file(&std::fs::File::open(&path).expect("open")).expect("map");
            assert_eq!(map.len(), len);
            assert!(
                map.as_slice() == std::fs::read(&path).expect("read"),
                "{len} B"
            );
            let start = map.as_slice().as_ptr() as usize;
            if len > 0 {
                assert_eq!(start % 4096, 0, "{len} B at {start:#x}");
            }
            if len > 0 && cfg!(target_os = "linux") {
                assert_ne!(start % (2 << 20), 0, "{len} B at {start:#x}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn mapping_shared_across_threads() {
        for len in SIZES {
            let body = std::sync::Arc::new(patterned(len));
            let path = tmp(&format!("threads_{len}"), &body);
            let file = std::fs::File::open(&path).expect("open");
            let map = std::sync::Arc::new(Mmap::map_file(&file).expect("map"));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (m, body) = (std::sync::Arc::clone(&map), std::sync::Arc::clone(&body));
                    std::thread::spawn(move || m.as_slice() == body.as_slice())
                })
                .collect();
            for handle in handles {
                assert!(handle.join().expect("join"), "{len} B");
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
