//! `lshe-store`: the memory-mapped, checksummed on-disk container format
//! (v2) for LSH Ensemble indexes.
//!
//! The `.lshe` format is decoded on every load: its bulk stays in the
//! mapped file, but the walks that check it scale with corpus size. This crate defines a format that is
//! *opened* in place: a packed file is `mmap(2)`-ed, structurally
//! validated in microseconds, and queried through zero-copy views while
//! the kernel's page cache holds the hot set. No server opens it — the
//! `.lshe` is the served file — but the benchmark measures it. Its
//! [`mmap`] shim is what `.lshe` loading maps files with.
//!
//! Pieces, bottom up:
//!
//! - [`mmap`]: a std-only `mmap(2)`/`madvise(2)` FFI shim (no libc crate).
//! - [`crc`]: CRC-32 (IEEE) for header, table, and section checksums.
//! - [`mod@format`]: the container layout — [`Packer`] writes a file once,
//!   streaming; [`Store`] maps it and hands out borrowed section slices.
//! - [`views`]: [`SketchesView`] and [`PartitionView`], the zero-copy
//!   structures the `lshe-core` mmap backend queries.
//! - [`error`]: [`StoreError`], which names the section at fault for
//!   every corruption it reports.
//!
//! This crate knows bytes, not index semantics: what the sections *mean*
//! (partitions, tuning, ranking) lives in `lshe-core`'s mmap backend.

// The format is little-endian on disk and views integers in place, so a
// big-endian build would silently read garbage. Fail loudly instead.
#[cfg(target_endian = "big")]
compile_error!(
    "lshe-store views little-endian sections in place; big-endian targets are unsupported"
);

pub mod crc;
pub mod error;
pub mod format;
pub mod mmap;
pub mod views;

pub use crc::{crc32, Crc32};
pub use error::StoreError;
pub use format::{Packer, Section, SectionKind, Store, ALIGN, HEADER_LEN, MAGIC, VERSION};
pub use mmap::{Advice, Mmap};
pub use views::{PartitionView, SketchesView};
