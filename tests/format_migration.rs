//! One-way migration from the generation before the current writer.
//!
//! `tests/fixtures/v8_two_partitions.lshe` and `v8_three_partitions.lshe`
//! (`LSHX` v8 around `LSHE` v8: a flag byte behind the version, and an id
//! → row directory in front of the partitions; two sealed segments, a
//! base and a segment tombstone) were written by the commit before the
//! directory left the file, from the domains [`v8_container`] rebuilds,
//! with their answers recorded in `v8_expected.txt`. Both must load — from
//! a slice, and mapped, where every base column and the records are views
//! into the file and the directory is skipped — equal a fresh build of
//! their domains, answer as recorded and like it, and save as the current
//! version: the bytes of a fresh build. Saved again, the file loads all
//! views. Anything older — a record a domain with its size among its
//! fields and an ensemble without sizes (version 7), 8-byte tree entries,
//! unpadded forests, rows of 32-bit lanes throughout, forests that held
//! their lanes as tree keys, the 64-bit-slot generations — is refused on
//! its version byte.

use lshe_core::{MergeTask, Query};
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
    let current = v8_container(8, 2).to_bytes();
    let nested = nested_at(&current);
    // The first forest of the nested ensemble.
    let forest = nested
        + current[nested..]
            .windows(4)
            .position(|w| w == lshe_lsh::persist::MAGIC)
            .expect("nested forest");
    for old in 1u8..=7 {
        // The container's own version byte, then its ensemble's.
        let mut bytes = current.clone();
        bytes[4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 9))
        );
        let mut bytes = current.clone();
        bytes[nested + 4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 9))
        );
        // The ensemble runs up to the container's 4-byte allocator mark.
        let ensemble = lshe_core::LshEnsemble::from_bytes(&bytes[nested..bytes.len() - 4]);
        assert_eq!(ensemble.err(), Some(refused(old, 9)));
    }
    // Version-6 ensemble and version-4 forest headers (8-byte tree
    // entries), built in memory: refused before anything behind the
    // version byte is read.
    let mut v6 = Encoder::default();
    v6.envelope(lshe_core::persist::MAGIC, 6);
    assert_eq!(
        lshe_core::LshEnsemble::from_bytes(&v6.finish()).err(),
        Some(refused(6, 9))
    );
    let mut v4 = Encoder::default();
    v4.envelope(lshe_lsh::persist::MAGIC, 4);
    assert_eq!(
        lshe_lsh::LshForest::from_bytes(&v4.finish()).err(),
        Some(refused(4, 5))
    );
    // Forests that hold their lanes as tree keys (`LSHF` version 1), 32
    // bits wide throughout (version 2), unpadded (version 3), or with
    // 8-byte tree entries (version 4).
    for old in [1u8, 2, 3, 4] {
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
    for old in [1u8, 6, 7] {
        let mut bare = Encoder::default();
        bare.envelope(lshe_serve::container::MAGIC, old);
        let bare = bare.finish();
        assert_eq!(
            IndexContainer::from_bytes(&bare).err(),
            Some(refused(old, 9))
        );
        let path = dir.join(format!("v{old}.lshe"));
        std::fs::write(&path, &bare).expect("write");
        match IndexContainer::load(&path) {
            Err(LoadError::Decode {
                section, source, ..
            }) => assert_eq!((section, source), ("header", refused(old, 9))),
            other => panic!("version {old}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each v8 fixture: its name, base domains and partitions.
const V8_FIXTURES: [(&str, usize, usize); 2] =
    [("v8_two_partitions", 8, 2), ("v8_three_partitions", 18, 3)];

/// The v8 fixtures' corpus: `n` base domains in `parts` partitions, then
/// two commits — two inserts and the removal of base domain 1; one insert
/// and the removal of the first sealed insert.
fn v8_container(n: usize, parts: usize) -> IndexContainer {
    let mut c = IndexContainer::from_stream(corpus(n, 31), parts, true);
    let hasher = MinHasher::new(c.num_perm());
    let fresh = corpus(3, 32);
    let base = n as u32;
    let first = c.commit(&[
        insert(base, &fresh[0], &hasher),
        insert(base + 1, &fresh[1], &hasher),
        DeltaOp::Remove { id: 1 },
    ]);
    assert!(first.expect("first batch").sealed);
    let second = c.commit(&[
        insert(base + 2, &fresh[2], &hasher),
        DeltaOp::Remove { id: base },
    ]);
    assert!(second.expect("second batch").sealed);
    let layout = c.segment_layout();
    assert_eq!((layout.segments.len(), layout.tombstones), (2, 2));
    c
}

/// One line per fixture query — every one of the `n` base and the fresh
/// domains at three thresholds and top-3 — in `v8_expected.txt`'s form: the
/// fixture's name, the probe counters, then each hit with its estimate's
/// bits.
fn v8_answers(c: &IndexContainer, name: &str, n: usize) -> String {
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
                "{name} q{q} {mode} candidates={} probed={}/{} hits=",
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
fn v8_containers_answer_as_recorded_and_save_as_a_fresh_v9_build() {
    let recorded = std::fs::read_to_string(fixture("v8_expected.txt")).expect("fixture");
    for (name, base_rows, parts) in V8_FIXTURES {
        let file = fixture(&format!("{name}.lshe"));
        let old = std::fs::read(&file).expect("fixture");
        assert_eq!(
            (&old[..4], old[4], old[5], nested_version(&old)),
            (&b"LSHX"[..], 8, 1, 8),
            "{name} is LSHX v8, flag 1, around LSHE v8"
        );
        assert!(old.len() <= 30 * 1024, "{name} is small");
        // Mapped (every base column and the records viewed in place, the
        // directory skipped) and copied out of a slice: one decoder, one
        // answer.
        let loaded = IndexContainer::load(&file).expect("v8 loads");
        let copied = IndexContainer::from_bytes(&old).expect("v8 decodes");
        assert_eq!(copied.mapped_bytes(), 0);
        assert_eq!(
            loaded.mapped_bytes(),
            base_rows * (4 + 576 + 128 + 8),
            "{name}"
        );
        assert!(loaded.base_in_place().iter().all(|&part| part), "{name}");
        assert!(loaded.records_in_place(), "{name}");
        let fresh = v8_container(base_rows, parts);
        assert_eq!(loaded.records(), fresh.records(), "{name}");
        assert_eq!(loaded.next_id(), fresh.next_id(), "{name}");
        assert_eq!(loaded.segment_layout(), fresh.segment_layout(), "{name}");

        // Hits, estimates bit for bit, and probe counters: as the commit
        // that wrote the file answered them and as a fresh build does; any
        // line that moved is listed by the failure.
        let migrated = v8_answers(&loaded, name, base_rows);
        let want: String = recorded
            .lines()
            .filter(|line| line.split(' ').next() == Some(name))
            .flat_map(|line| [line, "\n"])
            .collect();
        let differing = moved(&migrated, &want);
        assert!(
            differing.is_empty(),
            "{name}: (migrated, as its writer answered) {differing:#?}"
        );
        let copied_answers = v8_answers(&copied, name, base_rows);
        assert_eq!(copied_answers, migrated, "{name} from a slice");
        let fresh_answers = v8_answers(&fresh, name, base_rows);
        assert_eq!(fresh_answers, migrated, "fresh build vs migrated {name}");

        // Saved as version 9: a fresh build's bytes — the file's, less the
        // flag byte and the directory (8 B a base row, its count and pad),
        // the pads behind them moved (8 010 → 7 938 B and 15 482 → 15 330 B).
        let resaved = loaded.to_bytes();
        assert_eq!((resaved[4], nested_version(&resaved)), (9, 9), "{name}");
        assert!(
            resaved == copied.to_bytes(),
            "{name}: mapped and copied differ"
        );
        assert!(
            resaved == fresh.to_bytes(),
            "{name}: not a fresh build's bytes"
        );
        assert!(old.len() > resaved.len() + 8 * base_rows, "{name}");
        let (mut compacted, mut rebuilt) = (loaded.clone(), fresh.clone());
        compacted.apply_merge(&MergeTask::Full);
        rebuilt.apply_merge(&MergeTask::Full);
        assert!(
            compacted.to_bytes() == rebuilt.to_bytes(),
            "{name} compacted"
        );

        // And saved again, the file loads all views.
        let dir = std::env::temp_dir().join(format!("lshe_migrated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{name}.lshe"));
        loaded.save(&path).expect("save");
        let reloaded = IndexContainer::load(&path).expect("v9 loads");
        assert!(reloaded.base_in_place().iter().all(|&part| part), "{name}");
        assert!(reloaded.records_in_place(), "{name}");
        let reloaded_answers = v8_answers(&reloaded, name, base_rows);
        assert_eq!(reloaded_answers, migrated, "{name} after a save");
        std::fs::remove_dir_all(&dir).ok();
    }
}
