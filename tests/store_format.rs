//! Corruption robustness of the packed v2 store format.
//!
//! A reader must never crash on — or silently answer from — a damaged
//! index file. This suite packs a real container, then damages the file
//! every way the format can detect: a bit flipped in every section
//! payload, in the header, and in the section table; truncation at every
//! structural boundary; and a wrong magic. Every case must produce a
//! *typed* error naming what is wrong, at the store layer and through
//! `MmapIndex::open_verified`, never a panic and never a clean open. The
//! container refuses even a clean packed file, in its header: `.lshe` is
//! the only format it serves.

use lshe_core::{DomainIndex, MmapIndex, MmapIndexError, Query};
use lshe_datagen::{generate_catalog, CorpusConfig};
use lshe_serve::container::LoadError;
use lshe_serve::IndexContainer;
use lshe_store::{Store, StoreError, HEADER_LEN, MAGIC};
use std::path::PathBuf;

/// Fresh per-test scratch dir (parallel tests must not collide).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lshe_store_format_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Builds a ranked container and packs it; returns the packed bytes and
/// the container (for answer comparison).
fn packed_fixture(dir: &std::path::Path) -> (Vec<u8>, IndexContainer) {
    let catalog = generate_catalog(&CorpusConfig::tiny(60, 77));
    let container = IndexContainer::build(&catalog, 4);
    let path = dir.join("clean.lshepk");
    container.pack_v2(&path).expect("pack");
    let bytes = std::fs::read(&path).expect("read packed");
    (bytes, container)
}

/// Writes `bytes` to a file and opens it as an index, checksums and trees
/// verified, asserting no panic and a failure; returns the error for
/// inspection.
fn open_damaged(dir: &std::path::Path, name: &str, bytes: &[u8]) -> MmapIndexError {
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write damaged");
    MmapIndex::open_verified(&path).expect_err("damaged file must not open")
}

#[test]
fn bit_flip_in_every_section_is_a_typed_checksum_error() {
    let dir = scratch("flip_sections");
    let (clean, container) = packed_fixture(&dir);

    // Discover the section layout from the clean file.
    let clean_path = dir.join("clean.lshepk");
    let store = Store::open(&clean_path).expect("clean store opens");
    let sections: Vec<(&'static str, u64, u64)> = store
        .sections()
        .iter()
        .map(|s| (s.kind.name(), s.offset, s.len))
        .collect();
    drop(store);
    assert_eq!(
        sections.len(),
        8,
        "fixture should populate every section kind, got {sections:?}"
    );
    // The column sections — every base row's id, its 576 bytes of lanes,
    // its 4-byte `(lo, row)` entry in each of 32 trees, its size — are
    // swept like the rest.
    let len = |want: &str| {
        sections
            .iter()
            .find(|&&(name, _, _)| name == want)
            .map(|s| s.2)
    };
    let rows = container.len() as u64;
    assert_eq!(len("row ids"), Some(4 * rows));
    assert_eq!(len("rows"), Some(576 * rows));
    assert_eq!(len("trees"), Some(4 * 32 * rows));
    assert_eq!(len("sizes"), Some(8 * rows));

    for (name, offset, len) in sections {
        assert!(len > 0, "section {name} is empty");
        // Flip one bit at the start, middle, and end of the payload.
        for probe in [offset, offset + len / 2, offset + len - 1] {
            let mut bytes = clean.clone();
            bytes[probe as usize] ^= 0x10;
            let file = format!("flip_{}_{probe}.lshepk", name.replace(' ', "_"));

            // Store layer: structural open succeeds (payloads are not
            // read), verify pins the damage to the named section.
            let path = dir.join(&file);
            std::fs::write(&path, &bytes).expect("write");
            let store = Store::open(&path).expect("structural open is O(sections)");
            match store.verify() {
                Err(StoreError::SectionChecksum { section, .. }) => {
                    assert_eq!(section, name, "wrong section blamed at byte {probe}");
                }
                other => {
                    panic!("section {name} byte {probe}: expected checksum error, got {other:?}")
                }
            }
            drop(store);

            // Index layer: the verified open refuses the file outright —
            // corruption can never reach query execution.
            match open_damaged(&dir, &file, &bytes) {
                MmapIndexError::Store(StoreError::SectionChecksum { section, .. }) => {
                    assert_eq!(section, name, "index open blamed the wrong section");
                }
                other => panic!("section {name} byte {probe}: expected checksum, got {other}"),
            }
        }
    }

    // The clean file still answers identically to the source container —
    // the fixture itself is sound.
    let reopened = MmapIndex::open_verified(&clean_path).expect("clean file opens");
    let (size, _) = container.sketch(3).expect("ranked fixture");
    let catalog = generate_catalog(&CorpusConfig::tiny(60, 77));
    let hasher = lshe_minhash::MinHasher::new(container.num_perm());
    let sig = catalog.domain(3).signature(&hasher);
    let query = Query::threshold(&sig, 0.6).with_size(size);
    let answer = |index: &dyn DomainIndex| index.search(&query).expect("search").into_pairs();
    assert_eq!(
        answer(&reopened),
        answer(&*container.open_index()),
        "clean packed file must answer like its source"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn header_and_table_damage_is_detected() {
    let dir = scratch("flip_header");
    let (clean, _) = packed_fixture(&dir);

    // Every byte of the checksummed header prefix (magic, version,
    // lengths, table pointer, checksums) must be load-bearing: damage
    // anywhere in it is a store-layer refusal, never a clean parse.
    for probe in 0..40usize {
        let mut bytes = clean.clone();
        bytes[probe] ^= 0x04;
        let err = open_damaged(&dir, &format!("hdr_{probe}.lshepk"), &bytes);
        assert!(
            matches!(err, MmapIndexError::Store(_)),
            "byte {probe}: {err}"
        );
    }

    // The section table is checksummed independently of the header. Its
    // location comes from the header itself (the packer appends it after
    // the last section payload).
    let section_count = u32::from_le_bytes(clean[16..20].try_into().expect("4 bytes")) as usize;
    let table_offset = u64::from_le_bytes(clean[24..32].try_into().expect("8 bytes")) as usize;
    assert!(
        table_offset >= HEADER_LEN && section_count > 0,
        "sane header"
    );
    // Flip one bit in every table entry; each must be caught by the
    // table CRC before any entry is trusted.
    for entry in 0..section_count {
        let probe = table_offset + entry * 32 + 17;
        let mut bytes = clean.clone();
        bytes[probe] ^= 0x01;
        let path = dir.join(format!("table_{entry}.lshepk"));
        std::fs::write(&path, &bytes).expect("write");
        match Store::open(&path) {
            Err(StoreError::TableChecksum { .. }) => {}
            other => panic!("table entry {entry}: expected TableChecksum, got {other:?}"),
        }
        match open_damaged(&dir, &format!("table_c_{entry}.lshepk"), &bytes) {
            MmapIndexError::Store(StoreError::TableChecksum { .. }) => {}
            other => panic!("table entry {entry}: expected TableChecksum, got {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_boundary_is_typed() {
    let dir = scratch("truncate");
    let (clean, _) = packed_fixture(&dir);

    // Below the header: too short to be anything.
    for cut in [0usize, 1, 7, 8, 39, HEADER_LEN - 1] {
        let bytes = clean[..cut].to_vec();
        let path = dir.join(format!("cut_{cut}.lshepk"));
        std::fs::write(&path, &bytes).expect("write");
        match Store::open(&path) {
            Err(StoreError::Truncated { .. } | StoreError::BadMagic { .. }) => {}
            other => panic!("cut at {cut}: expected truncation/magic error, got {other:?}"),
        }
        match open_damaged(&dir, &format!("cut_c_{cut}.lshepk"), &bytes) {
            MmapIndexError::Store(StoreError::Truncated { .. } | StoreError::BadMagic { .. }) => {}
            other => panic!("cut at {cut}: expected truncation/magic error, got {other}"),
        }
    }

    // Past the header: the table or a section runs off the end.
    for frac in [4usize, 2] {
        let cut = clean.len() / frac;
        let bytes = clean[..cut].to_vec();
        let path = dir.join(format!("cut_mid_{frac}.lshepk"));
        std::fs::write(&path, &bytes).expect("write");
        let runs_off = |err: &StoreError| {
            matches!(
                err,
                StoreError::Truncated { .. }
                    | StoreError::SectionBounds { .. }
                    | StoreError::TableChecksum { .. }
            )
        };
        match Store::open(&path) {
            Err(err) if runs_off(&err) => {}
            Ok(_) => panic!("cut at {cut} of {} must not open", clean.len()),
            Err(other) => panic!("cut at {cut}: unexpected error class {other:?}"),
        }
        match open_damaged(&dir, &format!("cut_midc_{frac}.lshepk"), &bytes) {
            MmapIndexError::Store(err) if runs_off(&err) => {}
            other => panic!("cut at {cut}: unexpected error class {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_magic_is_rejected_not_misparsed() {
    let dir = scratch("magic");
    let (clean, _) = packed_fixture(&dir);

    // A file that *almost* has the magic.
    let mut bytes = clean.clone();
    bytes[7] = b'3';
    let path = dir.join("near_magic.lshepk");
    std::fs::write(&path, &bytes).expect("write");
    match Store::open(&path) {
        Err(StoreError::BadMagic { found }) => {
            assert_eq!(&found[..7], &MAGIC[..7], "prefix preserved in report");
        }
        other => panic!("expected BadMagic, got {other:?}"),
    }

    // Arbitrary garbage of plausible size: both layers reject it on its
    // magic rather than panic.
    let garbage: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    assert!(matches!(
        Store::open({
            let p = dir.join("garbage.lshepk");
            std::fs::write(&p, &garbage).expect("write");
            p
        }),
        Err(StoreError::BadMagic { .. })
    ));
    let err = open_damaged(&dir, "garbage2.lshepk", &garbage);
    assert!(
        matches!(err, MmapIndexError::Store(StoreError::BadMagic { .. })),
        "garbage is refused on its magic: {err}"
    );

    // The other way round: the container reads `LSHX` only, so a clean
    // packed file fails in its header, and the error names the file.
    let path = dir.join("clean.lshepk");
    let err = IndexContainer::load(&path).expect_err("a packed file is not served");
    assert!(
        matches!(
            err,
            LoadError::Decode {
                section: "header",
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(err.path(), path, "error must carry the file path");
    assert!(err.to_string().contains("clean.lshepk"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_section_of_unknown_kind_is_skipped() {
    let dir = scratch("unknown_kind");
    let (clean, container) = packed_fixture(&dir);
    // Append one more section after the table — kind 10, which held
    // provenance records in files written before, and a kind no build
    // has used — with a table that lists it, every checksum re-sealed.
    let count = u32::from_le_bytes(clean[16..20].try_into().expect("4 bytes"));
    let table = u64::from_le_bytes(clean[24..32].try_into().expect("8 bytes")) as usize;
    let mut bytes = clean.clone();
    let mut entries = clean[table..table + 32 * count as usize].to_vec();
    for kind in [10u32, 999] {
        bytes.resize(bytes.len().next_multiple_of(64), 0);
        let payload = format!("a section of kind {kind}").into_bytes();
        let mut entry = [0u8; 32];
        entry[0..4].copy_from_slice(&kind.to_le_bytes());
        entry[8..16].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
        entry[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        entry[24..28].copy_from_slice(&lshe_store::crc32(&payload).to_le_bytes());
        entries.extend_from_slice(&entry);
        bytes.extend_from_slice(&payload);
    }
    bytes.resize(bytes.len().next_multiple_of(64), 0);
    let new_table = bytes.len() as u64;
    bytes.extend_from_slice(&entries);
    bytes[16..20].copy_from_slice(&(count + 2).to_le_bytes());
    bytes[24..32].copy_from_slice(&new_table.to_le_bytes());
    bytes[32..36].copy_from_slice(&lshe_store::crc32(&entries).to_le_bytes());
    let reseal = lshe_store::crc32(&bytes[0..36]);
    bytes[36..40].copy_from_slice(&reseal.to_le_bytes());
    let path = dir.join("unknown.lshepk");
    std::fs::write(&path, &bytes).expect("write");

    let store = Store::open(&path).expect("unknown kinds are skipped");
    store.verify().expect("the known sections verify");
    assert_eq!(store.sections().len(), count as usize);
    drop(store);
    let index = MmapIndex::open_verified(&path).expect("the index opens");
    assert_eq!(index.len(), container.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn any_other_version_is_refused() {
    let dir = scratch("version");
    let (clean, _) = packed_fixture(&dir);
    // From the future, version 6 — the one before, whose trees named rows
    // of one id-sorted sketch table — and version 5, whose tree keys held
    // each head at 32 bits: a packed file is derived, so an old one is
    // packed again, not read.
    const { assert!(lshe_store::VERSION > 6) };
    for other in [99u32, 6, 5] {
        let mut bytes = clean.clone();
        // Change the version field and re-seal the header checksum so ONLY
        // the version differs — refused on version, not checksum.
        bytes[8..12].copy_from_slice(&other.to_le_bytes());
        let reseal = lshe_store::crc32(&bytes[0..36]);
        bytes[36..40].copy_from_slice(&reseal.to_le_bytes());
        let path = dir.join("other.lshepk");
        std::fs::write(&path, &bytes).expect("write");
        match Store::open(&path) {
            Err(StoreError::UnsupportedVersion { found, supported }) => {
                assert_eq!((found, supported), (other, lshe_store::VERSION));
            }
            refused => panic!("expected UnsupportedVersion, got {refused:?}"),
        }
        // The index open keeps the typed cause.
        let err = open_damaged(&dir, "other2.lshepk", &bytes);
        assert!(
            matches!(
                &err,
                MmapIndexError::Store(StoreError::UnsupportedVersion { found, .. })
                    if *found == other
            ),
            "version {other}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
