//! The v2 container layout: fixed header, checksummed section table,
//! 64-byte-aligned checksummed sections.
//!
//! Byte-level specification lives in `docs/FORMAT.md`; this module is the
//! single implementation of both sides — the streaming [`Packer`] that
//! writes a file once, and the [`Store`] that maps it and serves borrowed
//! slices out of the page cache.
//!
//! ```text
//! offset 0    header        64 bytes, fixed, self-checksummed
//! offset 64   section 0     64-byte-aligned, zero-padded between sections
//!             section 1
//!             …
//!             section table 32 bytes per entry, checksummed from the header
//! ```
//!
//! All integers little-endian. Array sections (`u16`/`u32`/`u64` payloads) are
//! viewed in place, which is why offsets carry a 64-byte alignment
//! guarantee: an mmap base is page-aligned, so file-offset alignment is
//! memory alignment.

use crate::crc::{crc32, Crc32};
use crate::error::StoreError;
use crate::mmap::{Advice, Mmap};
use std::fs::File;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

/// File magic: the first eight bytes of every v2 store.
pub const MAGIC: [u8; 8] = *b"LSHEIDX2";
/// The one format version this build writes and reads. Version 7 stores
/// each base partition as the columns its forest holds — row ids, rows,
/// each tree's `lo` then block-local `u16` `row` column, sizes — where
/// version 6 kept one id-sorted sketch table for the whole file and trees
/// of `u32` positions into it. An older file is refused, not migrated — a
/// packed file is derived from a `.lshe` index, so it is packed again.
pub const VERSION: u32 = 7;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Section payload alignment, in bytes.
pub const ALIGN: u64 = 64;
/// Size of one section table entry, in bytes.
pub const TABLE_ENTRY_LEN: usize = 32;

/// The section kinds a v2 store may contain.
///
/// Readers ignore entries with kinds they do not recognise — adding a new
/// section is a backward-compatible change; only layout changes to
/// existing sections bump [`VERSION`] (the versioning rules are spelled
/// out in `docs/FORMAT.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum SectionKind {
    /// Opaque index metadata (config, lengths), codec-encoded by the
    /// packing layer.
    Meta = 1,
    /// `u64` pairs: each partition's `(lower, upper)` size bounds.
    PartitionBounds = 2,
    /// `u64` per partition: its domain count.
    PartitionLens = 3,
    // Kinds 4 to 10 are retired, never to be reused: 4 to 8 held version
    // 6's sketch table and its trees, 9 and 10 provenance records.
    /// Opaque tiered-mutation state, codec-encoded by the packing layer:
    /// sealed segment entry triples, the tombstone list, and the id
    /// allocator's high-water mark. Absent on a fully compacted index;
    /// pre-segment readers skip it (additive section).
    Segments = 11,
    /// `u32` array: each base partition's row ids, ascending within the
    /// partition, partitions concatenated.
    RowIds = 12,
    /// `u16` array: each base partition's rows, `b_max + num_perm` words
    /// each — lane `t·r_max` for each tree `t` at 32 bits (two words, low
    /// half first), then the low 16 bits of every other lane — partitions
    /// concatenated.
    Rows = 13,
    /// `u16` array: per base partition, per prefix tree, its `lo` column
    /// (each entry's head, its low 16 bits) then its `row` column (each
    /// entry's row within its block of 65 536), partitions concatenated.
    Trees = 14,
    /// `u64` array: each base partition's row cardinalities, partitions
    /// concatenated.
    Sizes = 15,
}

impl SectionKind {
    /// Human-readable section name, used in every error that names one.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Meta => "meta",
            Self::PartitionBounds => "partition bounds",
            Self::PartitionLens => "partition lens",
            Self::Segments => "segments",
            Self::RowIds => "row ids",
            Self::Rows => "rows",
            Self::Trees => "trees",
            Self::Sizes => "sizes",
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            1 => Self::Meta,
            2 => Self::PartitionBounds,
            3 => Self::PartitionLens,
            11 => Self::Segments,
            12 => Self::RowIds,
            13 => Self::Rows,
            14 => Self::Trees,
            15 => Self::Sizes,
            _ => return None,
        })
    }
}

/// One parsed section table entry.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// What the section holds.
    pub kind: SectionKind,
    /// Payload byte offset from the start of the file (64-byte aligned).
    pub offset: u64,
    /// Payload length in bytes (excluding alignment padding).
    pub len: u64,
    /// CRC-32 of the payload bytes.
    pub crc: u32,
}

// ------------------------------------------------------------------ Packer

/// Streaming writer for a v2 store file.
///
/// Sections are written once, in order, through a running checksum — the
/// packer never buffers a section in memory, so packing a corpus larger
/// than RAM is a straight streaming copy. The section table and the
/// self-checksummed header are written at [`finish`](Packer::finish).
#[derive(Debug)]
pub struct Packer {
    file: File,
    pos: u64,
    sections: Vec<Section>,
    current: Option<(SectionKind, u64, Crc32)>,
}

impl Packer {
    /// Creates (truncating) the output file and reserves the header.
    ///
    /// # Errors
    /// Propagates file creation/write failure.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(&[0u8; HEADER_LEN])?;
        Ok(Self {
            file,
            pos: HEADER_LEN as u64,
            sections: Vec::new(),
            current: None,
        })
    }

    fn pad_to_align(&mut self) -> std::io::Result<()> {
        let rem = self.pos % ALIGN;
        if rem != 0 {
            let pad = (ALIGN - rem) as usize;
            self.file.write_all(&vec![0u8; pad])?;
            self.pos += pad as u64;
        }
        Ok(())
    }

    /// Starts a new section of the given kind.
    ///
    /// # Errors
    /// Propagates padding-write failure.
    ///
    /// # Panics
    /// Panics if a section is already open or the kind was written before
    /// (both are packing bugs, not file conditions).
    pub fn begin_section(&mut self, kind: SectionKind) -> std::io::Result<()> {
        assert!(self.current.is_none(), "previous section still open");
        assert!(
            self.sections.iter().all(|s| s.kind != kind),
            "section {:?} written twice",
            kind
        );
        self.pad_to_align()?;
        self.current = Some((kind, self.pos, Crc32::new()));
        Ok(())
    }

    /// Appends raw bytes to the open section.
    ///
    /// # Errors
    /// Propagates write failure.
    ///
    /// # Panics
    /// Panics if no section is open.
    pub fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let (_, _, crc) = self
            .current
            .as_mut()
            .expect("write outside an open section");
        crc.update(bytes);
        self.file.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Appends a `u32` slice (little-endian) to the open section.
    ///
    /// # Errors
    /// Propagates write failure.
    pub fn write_u32s(&mut self, values: &[u32]) -> std::io::Result<()> {
        let mut buf = [0u8; 4096];
        for chunk in values.chunks(1024) {
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
            }
            self.write(&buf[..chunk.len() * 4])?;
        }
        Ok(())
    }

    /// Appends a `u16` slice (little-endian) to the open section.
    ///
    /// # Errors
    /// Propagates write failure.
    pub fn write_u16s(&mut self, values: &[u16]) -> std::io::Result<()> {
        let mut buf = [0u8; 4096];
        for chunk in values.chunks(2048) {
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 2..i * 2 + 2].copy_from_slice(&v.to_le_bytes());
            }
            self.write(&buf[..chunk.len() * 2])?;
        }
        Ok(())
    }

    /// Appends a `u64` slice (little-endian) to the open section.
    ///
    /// # Errors
    /// Propagates write failure.
    pub fn write_u64s(&mut self, values: &[u64]) -> std::io::Result<()> {
        let mut buf = [0u8; 4096];
        for chunk in values.chunks(512) {
            for (i, v) in chunk.iter().enumerate() {
                buf[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            self.write(&buf[..chunk.len() * 8])?;
        }
        Ok(())
    }

    /// Closes the open section, recording its checksum.
    ///
    /// # Panics
    /// Panics if no section is open.
    pub fn end_section(&mut self) {
        let (kind, start, crc) = self.current.take().expect("no open section to end");
        self.sections.push(Section {
            kind,
            offset: start,
            len: self.pos - start,
            crc: crc.finish(),
        });
    }

    /// Writes the section table, patches the header, and syncs the file.
    ///
    /// # Errors
    /// Propagates write/sync failure.
    ///
    /// # Panics
    /// Panics if a section is still open.
    pub fn finish(mut self) -> std::io::Result<()> {
        assert!(self.current.is_none(), "finish with an open section");
        self.pad_to_align()?;
        let table_offset = self.pos;
        let mut table = Vec::with_capacity(self.sections.len() * TABLE_ENTRY_LEN);
        for s in &self.sections {
            table.extend_from_slice(&(s.kind as u32).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
            table.extend_from_slice(&s.offset.to_le_bytes());
            table.extend_from_slice(&s.len.to_le_bytes());
            table.extend_from_slice(&s.crc.to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
        }
        self.file.write_all(&table)?;

        let mut header = [0u8; HEADER_LEN];
        header[0..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
        header[16..20].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        header[24..32].copy_from_slice(&table_offset.to_le_bytes());
        header[32..36].copy_from_slice(&crc32(&table).to_le_bytes());
        let hcrc = crc32(&header[0..36]);
        header[36..40].copy_from_slice(&hcrc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&header)?;
        self.file.sync_all()
    }
}

// ------------------------------------------------------------------- Store

/// An opened, memory-mapped v2 store.
///
/// Cloning is cheap (the mapping is shared through an [`Arc`]); every
/// accessor returns slices *borrowed from the mapping*, so reading a
/// 20 GB store allocates a few hundred bytes of section metadata and
/// nothing else.
///
/// Opening validates structure — magic, version, the header's and the
/// section table's checksums, section bounds and alignment. Payload
/// checksums are verified by [`verify`](Store::verify) (an explicit
/// sequential pass), so `open` stays O(sections), not O(file): that split
/// is what lets a server boot in milliseconds while still being able to
/// prove a file sound end to end.
#[derive(Debug, Clone)]
pub struct Store {
    mmap: Arc<Mmap>,
    sections: Vec<Section>,
}

impl Store {
    /// Opens and structurally validates a store file.
    ///
    /// # Errors
    /// [`StoreError`] on I/O failure or any structural violation: bad
    /// magic, unsupported version, truncation, header/table checksum
    /// mismatch, out-of-bounds / misaligned / duplicate sections.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let mmap = Arc::new(Mmap::map_file(&File::open(path)?)?);
        let bytes = mmap.as_slice();
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                reading: "header",
                needed: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..8] != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&bytes[0..8]);
            return Err(StoreError::BadMagic { found });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let stored_hcrc = u32::from_le_bytes(bytes[36..40].try_into().expect("4 bytes"));
        let computed_hcrc = crc32(&bytes[0..36]);
        if stored_hcrc != computed_hcrc {
            return Err(StoreError::HeaderChecksum {
                stored: stored_hcrc,
                computed: computed_hcrc,
            });
        }
        let header_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        if header_len as usize != HEADER_LEN {
            return Err(StoreError::Corrupt {
                section: "header",
                detail: "unexpected header length",
            });
        }
        let section_count = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        let table_offset = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        let stored_tcrc = u32::from_le_bytes(bytes[32..36].try_into().expect("4 bytes"));
        let table_len = (section_count * TABLE_ENTRY_LEN) as u64;
        let table_end = table_offset
            .checked_add(table_len)
            .ok_or(StoreError::Truncated {
                reading: "section table",
                needed: u64::MAX,
                actual: bytes.len() as u64,
            })?;
        if table_offset < HEADER_LEN as u64 || table_end > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                reading: "section table",
                needed: table_end,
                actual: bytes.len() as u64,
            });
        }
        let table = &bytes[table_offset as usize..table_end as usize];
        let computed_tcrc = crc32(table);
        if stored_tcrc != computed_tcrc {
            return Err(StoreError::TableChecksum {
                stored: stored_tcrc,
                computed: computed_tcrc,
            });
        }
        let mut sections = Vec::with_capacity(section_count);
        for entry in table.chunks_exact(TABLE_ENTRY_LEN) {
            let kind_raw = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
            // Unknown kinds are skipped, not rejected: adding sections is
            // the format's backward-compatible evolution path.
            let Some(kind) = SectionKind::from_u32(kind_raw) else {
                continue;
            };
            let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
            let crc = u32::from_le_bytes(entry[24..28].try_into().expect("4 bytes"));
            let end = offset.checked_add(len).ok_or(StoreError::SectionBounds {
                section: kind.name(),
            })?;
            if offset < HEADER_LEN as u64 || end > bytes.len() as u64 {
                return Err(StoreError::SectionBounds {
                    section: kind.name(),
                });
            }
            if offset % ALIGN != 0 {
                return Err(StoreError::Misaligned {
                    section: kind.name(),
                });
            }
            if sections.iter().any(|s: &Section| s.kind == kind) {
                return Err(StoreError::DuplicateSection {
                    section: kind.name(),
                });
            }
            sections.push(Section {
                kind,
                offset,
                len,
                crc,
            });
        }
        Ok(Self { mmap, sections })
    }

    /// Verifies every section's payload checksum in one sequential pass.
    ///
    /// # Errors
    /// [`StoreError::SectionChecksum`] naming the first damaged section.
    pub fn verify(&self) -> Result<(), StoreError> {
        self.mmap.advise(Advice::Sequential);
        for s in &self.sections {
            let payload = &self.mmap.as_slice()[s.offset as usize..(s.offset + s.len) as usize];
            let computed = crc32(payload);
            if computed != s.crc {
                return Err(StoreError::SectionChecksum {
                    section: s.kind.name(),
                    stored: s.crc,
                    computed,
                });
            }
        }
        self.mmap.advise(Advice::Random);
        Ok(())
    }

    /// The parsed section table, in file order.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// The mapping every section lies in, for a reader that keeps views
    /// into it beyond the borrow of this store.
    #[must_use]
    pub fn mapping(&self) -> &Arc<Mmap> {
        &self.mmap
    }

    fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// True if the store contains a section of this kind.
    #[must_use]
    pub fn has(&self, kind: SectionKind) -> bool {
        self.section(kind).is_some()
    }

    /// Where a section's payload lies in the [`mapping`](Self::mapping).
    ///
    /// # Errors
    /// [`StoreError::MissingSection`] if absent.
    pub fn range(&self, kind: SectionKind) -> Result<std::ops::Range<usize>, StoreError> {
        let s = self.section(kind).ok_or(StoreError::MissingSection {
            section: kind.name(),
        })?;
        Ok(s.offset as usize..(s.offset + s.len) as usize)
    }

    /// The raw payload bytes of a section.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`] if absent.
    pub fn bytes(&self, kind: SectionKind) -> Result<&[u8], StoreError> {
        Ok(&self.mmap.as_slice()[self.range(kind)?])
    }

    /// Views a section's payload as a `u16` array, in place.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`], or [`StoreError::Corrupt`] if the
    /// payload length is odd.
    pub fn u16s(&self, kind: SectionKind) -> Result<&[u16], StoreError> {
        let bytes = self.bytes(kind)?;
        view_as(bytes, kind)
    }

    /// Views a section's payload as a `u32` array, in place.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`], or [`StoreError::Corrupt`] if the
    /// payload length is not a multiple of 4.
    pub fn u32s(&self, kind: SectionKind) -> Result<&[u32], StoreError> {
        let bytes = self.bytes(kind)?;
        view_as(bytes, kind)
    }

    /// Views a section's payload as a `u64` array, in place.
    ///
    /// # Errors
    /// [`StoreError::MissingSection`], or [`StoreError::Corrupt`] if the
    /// payload length is not a multiple of 8.
    pub fn u64s(&self, kind: SectionKind) -> Result<&[u64], StoreError> {
        let bytes = self.bytes(kind)?;
        view_as(bytes, kind)
    }
}

/// Reinterprets aligned little-endian bytes as a primitive slice.
///
/// Sound because (a) section offsets are 64-byte aligned within a
/// page-aligned mapping, so the pointer alignment always holds (checked
/// anyway), (b) the target types have no invalid bit patterns, and (c) the
/// workspace only builds little-endian (enforced in `lib.rs`).
fn view_as<T: Pod>(bytes: &[u8], kind: SectionKind) -> Result<&[T], StoreError> {
    let size = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(size) {
        return Err(StoreError::Corrupt {
            section: kind.name(),
            detail: "payload length is not a multiple of the element size",
        });
    }
    if bytes.is_empty() {
        return Ok(&[]);
    }
    let ptr = bytes.as_ptr();
    if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
        return Err(StoreError::Misaligned {
            section: kind.name(),
        });
    }
    // SAFETY: alignment and length checked above; T is a plain integer
    // type with no invalid representations; the borrow pins the mapping.
    Ok(unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), bytes.len() / size) })
}

/// Marker for the plain-old-data types [`view_as`] may produce.
trait Pod: Copy {}
impl Pod for u16 {}
impl Pod for u32 {}
impl Pod for u64 {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lshe_store_{name}_{}.v2", std::process::id()))
    }

    fn sample(path: &Path) {
        let mut p = Packer::create(path).expect("create");
        p.begin_section(SectionKind::Meta).expect("begin");
        p.write(b"opaque metadata").expect("write");
        p.end_section();
        p.begin_section(SectionKind::RowIds).expect("begin");
        p.write_u32s(&[1, 2, 3, 5, 8]).expect("write");
        p.end_section();
        p.begin_section(SectionKind::Sizes).expect("begin");
        p.write_u64s(&[10, 20, 30, 50, 80]).expect("write");
        p.end_section();
        p.begin_section(SectionKind::Rows).expect("begin");
        p.write_u16s(&[7, 0xffff, 9]).expect("write");
        p.end_section();
        p.finish().expect("finish");
    }

    #[test]
    fn roundtrip_sections() {
        let path = tmp("roundtrip");
        sample(&path);
        let store = Store::open(&path).expect("open");
        store.verify().expect("verify");
        assert_eq!(
            store.bytes(SectionKind::Meta).expect("meta"),
            b"opaque metadata"
        );
        assert_eq!(
            store.u32s(SectionKind::RowIds).expect("ids"),
            &[1, 2, 3, 5, 8]
        );
        assert_eq!(
            store.u64s(SectionKind::Sizes).expect("sizes"),
            &[10, 20, 30, 50, 80]
        );
        assert_eq!(
            store.u16s(SectionKind::Rows).expect("rows"),
            &[7, 0xffff, 9]
        );
        // Three `u16`s are no whole number of `u32`s.
        assert!(matches!(
            store.u32s(SectionKind::Rows),
            Err(StoreError::Corrupt {
                section: "rows",
                ..
            })
        ));
        assert!(store.has(SectionKind::Meta));
        assert!(!store.has(SectionKind::Segments));
        assert!(matches!(
            store.bytes(SectionKind::Segments),
            Err(StoreError::MissingSection {
                section: "segments"
            })
        ));
        // Every section lands on the alignment grid.
        for s in store.sections() {
            assert_eq!(s.offset % ALIGN, 0, "{:?}", s.kind);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_roundtrips() {
        let path = tmp("empty");
        Packer::create(&path)
            .expect("create")
            .finish()
            .expect("finish");
        let store = Store::open(&path).expect("open");
        store.verify().expect("verify");
        assert!(store.sections().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp("magic");
        sample(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            Store::open(&path).unwrap_err(),
            StoreError::BadMagic { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_rejected() {
        let path = tmp("version");
        sample(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[8] = 99;
        // Keep the header checksum valid so the version check is what trips.
        let hcrc = crc32(&bytes[0..36]);
        bytes[36..40].copy_from_slice(&hcrc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            Store::open(&path).unwrap_err(),
            StoreError::UnsupportedVersion { found: 99, .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_detected() {
        let path = tmp("hcrc");
        sample(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[17] ^= 0x40; // section count byte
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            Store::open(&path).unwrap_err(),
            StoreError::HeaderChecksum { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_detected() {
        let path = tmp("trunc");
        sample(&path);
        let bytes = std::fs::read(&path).expect("read");
        for cut in [0usize, 10, HEADER_LEN, bytes.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).expect("write");
            let err = Store::open(&path).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::Truncated { .. } | StoreError::TableChecksum { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_corruption_found_by_verify_with_section_name() {
        let path = tmp("payload");
        sample(&path);
        let store = Store::open(&path).expect("open");
        let ids_off = store
            .sections()
            .iter()
            .find(|s| s.kind == SectionKind::RowIds)
            .expect("ids section")
            .offset as usize;
        drop(store);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[ids_off] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write");
        // Structural open still succeeds — payloads are lazy.
        let store = Store::open(&path).expect("open");
        match store.verify().unwrap_err() {
            StoreError::SectionChecksum { section, .. } => assert_eq!(section, "row ids"),
            other => panic!("wrong error: {other}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_names_sections() {
        let e = StoreError::SectionChecksum {
            section: "trees",
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("trees"));
        assert_eq!(e.section(), Some("trees"));
    }
}
