//! One-way migration from the generation before the current writer.
//!
//! `tests/fixtures/v5_ranked.lshe` and `v5_plain.lshe` (`LSHX` v5 around
//! `LSHE` v5 / `LSHF` v3: two sealed segments, a base and a segment
//! tombstone) were written by the commit before forests padded their
//! columns to a 4-byte boundary of the file — the same columns, wherever
//! they fell — from the domains [`v5_container`] rebuilds, with that
//! commit's answers recorded in `v5_expected.txt`. Both must load, through
//! the decoder the current version uses — from a slice, and mapped, where
//! whatever happens to be aligned is viewed in place and the rest copied —
//! answer as they did, equal a fresh build of their domains, and save as
//! the current version. Anything older — rows of 32-bit lanes throughout,
//! forests that held their lanes as tree keys, the 64-bit-slot generations
//! — is refused on its version byte.

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
    let current = v5_container(true).to_bytes();
    let nested = nested_at(&current);
    // The first forest of the nested ensemble.
    let forest = nested
        + current[nested..]
            .windows(4)
            .position(|w| w == lshe_lsh::persist::MAGIC)
            .expect("nested forest");
    for old in [1u8, 2, 3, 4] {
        // The container's own version byte, then its ensemble's.
        let mut bytes = current.clone();
        bytes[4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 6))
        );
        let mut bytes = current.clone();
        bytes[nested + 4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 6))
        );
        // The ensemble runs up to the container's 4-byte allocator mark.
        let ensemble = lshe_core::LshEnsemble::from_bytes(&bytes[nested..bytes.len() - 4]);
        assert_eq!(ensemble.err(), Some(refused(old, 6)));
    }
    // A version-4 ensemble header (rows of 32-bit lanes), built in memory:
    // refused before anything behind the version byte is read.
    let mut v4 = Encoder::default();
    v4.envelope(lshe_core::persist::MAGIC, 4);
    assert_eq!(
        lshe_core::LshEnsemble::from_bytes(&v4.finish()).err(),
        Some(refused(4, 6))
    );
    // Forests that hold their lanes as tree keys (`LSHF` version 1), or 32
    // bits wide throughout (version 2).
    for old in [1u8, 2] {
        let mut bytes = current.clone();
        bytes[forest + 4] = old;
        assert_eq!(
            IndexContainer::from_bytes(&bytes).err(),
            Some(refused(old, 4))
        );
    }
    // Refused before anything behind the version is read: a bare envelope,
    // decoded from a slice and loaded from a file alike.
    let dir = std::env::temp_dir().join(format!("lshe_migration_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for old in [1u8, 4] {
        let mut bare = Encoder::default();
        bare.envelope(lshe_serve::container::MAGIC, old);
        let bare = bare.finish();
        assert_eq!(
            IndexContainer::from_bytes(&bare).err(),
            Some(refused(old, 6))
        );
        let path = dir.join(format!("v{old}.lshe"));
        std::fs::write(&path, &bare).expect("write");
        match IndexContainer::load(&path) {
            Err(LoadError::Decode {
                section, source, ..
            }) => assert_eq!((section, source), ("header", refused(old, 6))),
            other => panic!("version {old}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `(base domains, partitions)` of the v5 fixtures.
fn v5_shape(ranked: bool) -> (usize, usize) {
    if ranked {
        (8, 2)
    } else {
        (18, 3)
    }
}

/// The v5 fixtures' corpus: base domains, then two commits — two inserts
/// and the removal of base domain 1; one insert and the removal of the
/// first sealed insert.
fn v5_container(ranked: bool) -> IndexContainer {
    let (n, parts) = v5_shape(ranked);
    let mut c = IndexContainer::from_stream(corpus(n, 31), parts, ranked);
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

/// One line per fixture query — every base and fresh domain at three
/// thresholds (and top-3 when ranked) — in `v5_expected.txt`'s form: the
/// probe counters, then each hit with its estimate's bits.
fn v5_answers(c: &IndexContainer, ranked: bool) -> String {
    use std::fmt::Write as _;
    let (n, _) = v5_shape(ranked);
    let hasher = MinHasher::new(c.num_perm());
    let index = c.open_index();
    let mut out = String::new();
    for (q, (domain, _)) in corpus(n, 31).iter().chain(&corpus(3, 32)).enumerate() {
        let sig = hasher.signature(domain.hashes().iter().copied());
        let size = domain.len() as u64;
        let mut queries = vec![
            ("t=0.1", Query::threshold(&sig, 0.1).with_size(size)),
            ("t=0.5", Query::threshold(&sig, 0.5).with_size(size)),
            ("t=0.9", Query::threshold(&sig, 0.9).with_size(size)),
        ];
        if ranked {
            queries.push(("k=3", Query::top_k(&sig, 3).with_size(size)));
        }
        for (mode, query) in queries {
            let found = index.search(&query).expect("search");
            let _ = write!(
                out,
                "{} q{q} {mode} candidates={} probed={}/{} hits=",
                if ranked { "ranked" } else { "plain" },
                found.stats.candidates,
                found.stats.partitions_probed,
                found.stats.partitions_total
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
fn v5_containers_answer_as_recorded_and_save_as_a_fresh_v6_build() {
    let recorded = std::fs::read_to_string(fixture("v5_expected.txt")).expect("fixture");
    for (ranked, name) in [(true, "v5_ranked.lshe"), (false, "v5_plain.lshe")] {
        let old = std::fs::read(fixture(name)).expect("fixture");
        assert_eq!((&old[..4], old[4]), (&b"LSHX"[..], 5), "{name} is LSHX v5");
        assert!(old.len() <= 30 * 1024, "{name} is small");
        // Mapped (columns viewed where they happen to be aligned) and
        // copied out of a slice: one decoder, one answer.
        let loaded = IndexContainer::load(&fixture(name)).expect("v5 loads");
        let copied = IndexContainer::from_bytes(&old).expect("v5 decodes");
        assert_eq!(copied.mapped_bytes(), 0);
        let fresh = v5_container(ranked);
        assert_eq!(loaded.records(), fresh.records(), "{name}");
        assert_eq!(loaded.next_id(), fresh.next_id(), "{name}");
        assert_eq!(loaded.segment_stats(), fresh.segment_stats(), "{name}");

        // Hits, estimates bit for bit, and probe counters: as the commit
        // that wrote the file answered them — any line that moved is listed
        // by the failure — and as a fresh build does.
        let kind = if ranked { "ranked " } else { "plain " };
        let want: String = recorded
            .lines()
            .filter(|line| line.starts_with(kind))
            .flat_map(|line| [line, "\n"])
            .collect();
        assert!(!want.is_empty());
        let migrated = v5_answers(&loaded, ranked);
        let differing = moved(&migrated, &want);
        assert!(
            differing.is_empty(),
            "{name}: (migrated, as its writer answered) {differing:#?}"
        );
        assert_eq!(v5_answers(&copied, ranked), migrated, "{name} from a slice");
        assert_eq!(
            v5_answers(&fresh, ranked),
            migrated,
            "fresh build vs migrated {name}"
        );

        let resaved = loaded.to_bytes();
        assert_eq!(resaved[4], 6, "saved as LSHX v6");
        assert_eq!((nested_version(&old), nested_version(&resaved)), (5, 6));
        assert!(
            resaved == fresh.to_bytes() && resaved == copied.to_bytes(),
            "{name}: migrated and fresh bytes differ"
        );
        // What version 6 adds: one pad a base forest, 1 to 4 bytes each.
        let (_, forests) = v5_shape(ranked);
        let pads = resaved.len() - old.len();
        assert!((forests..=4 * forests).contains(&pads), "{name}: {pads}");
        // And what the pads are for: the saved file, loaded, is all views.
        let dir = std::env::temp_dir().join(format!("lshe_migrated_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        loaded.save(&dir.join(name)).expect("save");
        let reloaded = IndexContainer::load(&dir.join(name)).expect("v6 loads");
        assert!(reloaded.base_in_place().iter().all(|&part| part), "{name}");
        assert_eq!(
            v5_answers(&reloaded, ranked),
            migrated,
            "{name} after a save"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
