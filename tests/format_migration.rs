//! One-way migration from the generation before the current writer.
//!
//! `tests/fixtures/v6_ranked.lshe` and `v6_plain.lshe` (`LSHX` v6 around
//! `LSHE` v6 / `LSHF` v4: two sealed segments, a base and a segment
//! tombstone) were written by the commit before tree entries shrank from 8
//! bytes (a 32-bit head and a 32-bit row) to 4 (the head's low 16 bits and
//! a block-local `u16` row), from the domains [`v6_container`] rebuilds,
//! with the ranked file's answers recorded in `v6_expected.txt`. Both must
//! load — from a slice, and mapped, where the ids and rows are views into
//! the file and the trees are sorted again from them — equal a fresh build
//! of their domains, answer like it, and save as the current version,
//! `4·b_max` bytes a base row smaller. The plain file carries the flag byte
//! 0, which no writer sets any more: it loads ranked, estimates and top-k
//! included, and saves with the flag every container now has. Anything
//! older — unpadded forests, rows of 32-bit lanes throughout, forests that
//! held their lanes as tree keys, the 64-bit-slot generations — is refused
//! on its version byte.

use lshe_core::Query;
use lshe_corpus::{Domain, DomainMeta};
use lshe_datagen::{CorpusConfig, CorpusStream};
use lshe_minhash::codec::{CodecError, Encoder};
use lshe_minhash::MinHasher;
use lshe_serve::container::LoadError;
use lshe_serve::{DeltaOp, DomainRecord, IndexContainer};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

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

/// Where the ensemble nested in a container starts.
fn nested_at(bytes: &[u8]) -> usize {
    let at = bytes
        .windows(4)
        .position(|w| w == lshe_core::persist::MAGIC);
    at.expect("nested ensemble")
}

/// The `LSHE` version byte of the ensemble nested in a container.
fn nested_version(bytes: &[u8]) -> u8 {
    bytes[nested_at(bytes) + 4]
}

#[test]
fn older_generations_are_refused_on_their_version_byte() {
    let refused = |found, supported| CodecError::UnsupportedVersion { found, supported };
    let current = v6_container(8, 2).to_bytes();
    let nested = nested_at(&current);
    // The first forest of the nested ensemble.
    let forest = nested
        + current[nested..]
            .windows(4)
            .position(|w| w == lshe_lsh::persist::MAGIC)
            .expect("nested forest");
    for old in 1u8..=5 {
        // The container's own version byte, then its ensemble's.
        let mut bytes = current.clone();
        bytes[4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 7))
        );
        let mut bytes = current.clone();
        bytes[nested + 4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 7))
        );
        // The ensemble runs up to the container's 4-byte allocator mark.
        let ensemble = lshe_core::LshEnsemble::from_bytes(&bytes[nested..bytes.len() - 4]);
        assert_eq!(ensemble.err(), Some(refused(old, 7)));
    }
    // Version-5 ensemble and version-3 forest headers (unpadded forests),
    // built in memory: refused before anything behind the version byte is
    // read.
    let mut v5 = Encoder::default();
    v5.envelope(lshe_core::persist::MAGIC, 5);
    assert_eq!(
        lshe_core::LshEnsemble::from_bytes(&v5.finish()).err(),
        Some(refused(5, 7))
    );
    let mut v3 = Encoder::default();
    v3.envelope(lshe_lsh::persist::MAGIC, 3);
    assert_eq!(
        lshe_lsh::LshForest::from_bytes(&v3.finish()).err(),
        Some(refused(3, 5))
    );
    // Forests that hold their lanes as tree keys (`LSHF` version 1), 32
    // bits wide throughout (version 2), or unpadded (version 3).
    for old in [1u8, 2, 3] {
        let mut bytes = current.clone();
        bytes[forest + 4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 5))
        );
    }
    // Refused before anything behind the version is read: a bare envelope,
    // decoded from a slice and loaded from a file alike.
    let dir = std::env::temp_dir().join(format!("lshe_migration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for old in [1u8, 5] {
        let mut bare = Encoder::default();
        bare.envelope(lshe_serve::container::MAGIC, old);
        let bare = bare.finish();
        assert_eq!(
            IndexContainer::from_bytes(&bare).err(),
            Some(refused(old, 7))
        );
        let path = dir.join(format!("v{old}.lshe"));
        std::fs::write(&path, &bare).expect("write");
        match IndexContainer::load(&path) {
            Err(LoadError::Decode {
                section, source, ..
            }) => assert_eq!((section, source), ("header", refused(old, 7))),
            other => panic!("version {old}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each v6 fixture: its name, flag byte, base domains and partitions.
const V6_FIXTURES: [(&str, u8, usize, usize); 2] =
    [("v6_ranked.lshe", 1, 8, 2), ("v6_plain.lshe", 0, 18, 3)];

/// The v6 fixtures' corpus: `n` base domains in `parts` partitions, then
/// two commits — two inserts and the removal of base domain 1; one insert
/// and the removal of the first sealed insert.
fn v6_container(n: usize, parts: usize) -> IndexContainer {
    let mut c = IndexContainer::from_stream(corpus(n, 31), parts, true);
    let hasher = MinHasher::new(c.num_perm());
    let fresh = corpus(3, 32);
    let base = n as u32;
    c.apply(&[
        insert(base, &fresh[0], &hasher),
        insert(base + 1, &fresh[1], &hasher),
        DeltaOp::Remove { id: 1 },
    ])
    .expect("first batch");
    assert!(c.commit_mutations().sealed);
    c.apply(&[
        insert(base + 2, &fresh[2], &hasher),
        DeltaOp::Remove { id: base },
    ])
    .expect("second batch");
    assert!(c.commit_mutations().sealed);
    let stats = c.segment_stats();
    assert_eq!((stats.segments, stats.tombstones), (2, 2));
    c
}

/// One line per fixture query — every one of the `n` base and the fresh
/// domains at three thresholds and top-3 — in `v6_expected.txt`'s form: the
/// probe counters, then each hit with its estimate's bits.
fn v6_answers(c: &IndexContainer, n: usize) -> String {
    use std::fmt::Write as _;
    let hasher = MinHasher::new(c.num_perm());
    let index = c.open_index();
    let mut out = String::new();
    for (q, (domain, _)) in corpus(n, 31).iter().chain(&corpus(3, 32)).enumerate() {
        let sig = hasher.signature(domain.hashes().iter().copied());
        let size = domain.len() as u64;
        let queries = [
            ("t=0.1", Query::threshold(&sig, 0.1).with_size(size)),
            ("t=0.5", Query::threshold(&sig, 0.5).with_size(size)),
            ("t=0.9", Query::threshold(&sig, 0.9).with_size(size)),
            ("k=3", Query::top_k(&sig, 3).with_size(size)),
        ];
        for (mode, query) in queries {
            let found = index.search(&query).expect("search");
            let _ = write!(
                out,
                "ranked q{q} {mode} candidates={} probed={}/{} hits=",
                found.stats.candidates, found.stats.partitions_probed, found.stats.partitions_total
            );
            for hit in &found.hits {
                let bits = hit.estimate.map_or(0, f64::to_bits);
                let _ = write!(out, "{}:{bits:016x},", hit.id);
            }
            out.push('\n');
        }
    }
    out
}

/// The lines of `got` that differ from `want`'s, paired; both have a line
/// per query, in the same order.
fn moved<'a>(got: &'a str, want: &'a str) -> Vec<(&'a str, &'a str)> {
    assert_eq!(got.lines().count(), want.lines().count());
    let pairs = got.lines().zip(want.lines());
    pairs.filter(|(g, w)| g != w).collect()
}

#[test]
fn v6_containers_answer_as_recorded_and_save_as_a_fresh_v7_build() {
    let recorded = std::fs::read_to_string(fixture("v6_expected.txt")).expect("fixture");
    for (name, flag, base_rows, parts) in V6_FIXTURES {
        let old = std::fs::read(fixture(name)).expect("fixture");
        assert_eq!((&old[..4], old[4]), (&b"LSHX"[..], 6), "{name} is LSHX v6");
        assert_eq!(old[5], flag, "{name}'s flag byte");
        assert!(old.len() <= 30 * 1024, "{name} is small");
        // Mapped (ids and rows viewed in place, trees sorted again) and
        // copied out of a slice: one decoder, one answer.
        let loaded = IndexContainer::load(&fixture(name)).expect("v6 loads");
        let copied = IndexContainer::from_bytes(&old).expect("v6 decodes");
        assert_eq!(copied.mapped_bytes(), 0);
        assert_eq!(loaded.mapped_bytes(), base_rows * (4 + 576), "{name}");
        let fresh = v6_container(base_rows, parts);
        assert_eq!(loaded.records(), fresh.records(), "{name}");
        assert_eq!(loaded.next_id(), fresh.next_id(), "{name}");
        assert_eq!(loaded.segment_stats(), fresh.segment_stats(), "{name}");

        // Hits, estimates bit for bit, and probe counters: as a fresh build
        // does and — for the ranked file — as the commit that wrote it
        // answered them; any line that moved is listed by the failure.
        let migrated = v6_answers(&loaded, base_rows);
        if flag == 1 {
            let want: String = recorded.lines().flat_map(|line| [line, "\n"]).collect();
            let differing = moved(&migrated, &want);
            assert!(
                differing.is_empty(),
                "{name}: (migrated, as its writer answered) {differing:#?}"
            );
        }
        assert_eq!(
            v6_answers(&copied, base_rows),
            migrated,
            "{name} from a slice"
        );
        assert_eq!(
            v6_answers(&fresh, base_rows),
            migrated,
            "fresh build vs migrated {name}"
        );

        let resaved = loaded.to_bytes();
        assert_eq!((resaved[4], resaved[5]), (7, 1), "saved as LSHX v7, flag 1");
        assert_eq!((nested_version(&old), nested_version(&resaved)), (6, 7));
        assert!(
            resaved == fresh.to_bytes() && resaved == copied.to_bytes(),
            "{name}: migrated and fresh bytes differ"
        );
        // What version 7 takes away: 4 bytes a tree entry, 32 trees a base
        // row (the tombstoned one too); each forest shrinks by a multiple
        // of 4, so no pad moves.
        assert_eq!(old.len() - resaved.len(), 128 * base_rows, "{name}");
        // And saved again, the file loads all views.
        let dir = std::env::temp_dir().join(format!("lshe_migrated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        loaded.save(&dir.join(name)).expect("save");
        let reloaded = IndexContainer::load(&dir.join(name)).expect("v7 loads");
        assert!(reloaded.base_in_place().iter().all(|&part| part), "{name}");
        assert_eq!(
            v6_answers(&reloaded, base_rows),
            migrated,
            "{name} after a save"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
