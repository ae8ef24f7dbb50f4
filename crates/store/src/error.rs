//! Typed failure modes for opening, verifying, and viewing a v2 store.

use std::fmt;

/// Why a store file could not be opened, verified, or viewed.
///
/// Every variant that concerns a section names it, so a corrupt file
/// reports *where* it is corrupt — `section "rows": checksum
/// mismatch` — rather than a bare decode error.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure (open, metadata, mmap).
    Io(std::io::Error),
    /// The file does not start with the v2 magic.
    BadMagic {
        /// The eight bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not the one this build reads: newer,
    /// or an older layout (a packed file is derived — re-pack it).
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The file is shorter than a structure it claims to contain.
    Truncated {
        /// What was being read when the file ran out.
        reading: &'static str,
        /// Bytes the structure needs.
        needed: u64,
        /// Bytes actually available.
        actual: u64,
    },
    /// The header's own checksum does not match its contents.
    HeaderChecksum {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the header bytes.
        computed: u32,
    },
    /// The section table's checksum does not match its contents.
    TableChecksum {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the table bytes.
        computed: u32,
    },
    /// A section's payload checksum does not match (bit rot, torn write,
    /// or deliberate tampering).
    SectionChecksum {
        /// The damaged section.
        section: &'static str,
        /// Checksum stored in the section table.
        stored: u32,
        /// Checksum computed over the payload.
        computed: u32,
    },
    /// A section table entry points outside the file.
    SectionBounds {
        /// The offending section.
        section: &'static str,
    },
    /// A section's offset or element width violates the format's 64-byte
    /// alignment guarantee, so it cannot be viewed in place.
    Misaligned {
        /// The offending section.
        section: &'static str,
    },
    /// The same section kind appears twice in the table.
    DuplicateSection {
        /// The repeated section.
        section: &'static str,
    },
    /// A section the reader requires is absent.
    MissingSection {
        /// The absent section.
        section: &'static str,
    },
    /// A structural inconsistency inside an otherwise well-formed section
    /// (counts that do not multiply out, unsorted id maps, …).
    Corrupt {
        /// The section (or "header" / "layout") where the inconsistency
        /// was found.
        section: &'static str,
        /// What is wrong.
        detail: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadMagic { found } => {
                write!(f, "not a v2 store file (magic {:02x?})", found)
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is not the supported {supported}; \
                 re-pack the index with this build"
            ),
            Self::Truncated {
                reading,
                needed,
                actual,
            } => write!(
                f,
                "file truncated while reading {reading}: need {needed} bytes, have {actual}"
            ),
            Self::HeaderChecksum { stored, computed } => write!(
                f,
                "header checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::TableChecksum { stored, computed } => write!(
                f,
                "section table checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::SectionChecksum {
                section,
                stored,
                computed,
            } => write!(
                f,
                "section \"{section}\": checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            Self::SectionBounds { section } => {
                write!(f, "section \"{section}\": extends past end of file")
            }
            Self::Misaligned { section } => {
                write!(f, "section \"{section}\": offset violates 64-byte alignment")
            }
            Self::DuplicateSection { section } => {
                write!(f, "section \"{section}\": appears more than once")
            }
            Self::MissingSection { section } => {
                write!(f, "section \"{section}\": required but absent")
            }
            Self::Corrupt { section, detail } => {
                write!(f, "section \"{section}\": {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl StoreError {
    /// The section this error names, when it names one.
    #[must_use]
    pub fn section(&self) -> Option<&'static str> {
        match self {
            Self::SectionChecksum { section, .. }
            | Self::SectionBounds { section }
            | Self::Misaligned { section }
            | Self::DuplicateSection { section }
            | Self::MissingSection { section }
            | Self::Corrupt { section, .. } => Some(section),
            _ => None,
        }
    }
}
