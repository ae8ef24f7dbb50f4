//! The engine's write path against a reference model: what a file-backed
//! `Engine` acknowledges is what it serves, and what a restart recovers.
//!
//! A seeded random walk runs one engine over two index files through staging
//! (local and explicit ids, valid and refused ops), commits, planned
//! merges, compactions, reloads of the same file and of the other one,
//! restarts, a fold that crashes between its rename and its log rewrite,
//! a torn delta log, and a new index saved over either file (`lshe
//! index`). The model holds, per file, the committed records (id → size,
//! table, column), the staged ops and the next id. After every step the
//! served records, the answers to a fixed probe set, the staged counts and
//! the next id must equal the model's, and a refused op must leave the log
//! as it was. A failure prints the seed and every step up to it.
//!
//! Each domain holds one of a few disjoint value sets, and each value set
//! is also a probe: a threshold query with a domain's own values finds it
//! (its signature is the domain's), and no domain holding other values
//! reaches the threshold, so a probe's answer is exactly the live ids
//! holding its values.

use lshe_core::{Leveled, Query};
use lshe_corpus::{Catalog, Domain, DomainMeta};
use lshe_minhash::{MinHasher, Signature, DEFAULT_NUM_PERM};
use lshe_serve::{DeltaLog, DeltaOp, Engine, EngineError, IndexContainer, StagedCounts};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Distinct value sets a domain may hold; each is also a probe.
const CONTENTS: usize = 12;
/// Domains each index file is built with (ids `0..BASE`).
const BASE: usize = 6;
/// Tables an insert names, so one id can come back with other provenance.
const TABLES: [&str; 3] = ["t1", "t2", "t3"];
/// A planner with small levels, so planned merges fold segments often.
const PLANNER: Leveled = Leveled {
    fanout: 2,
    level0_entries: 2,
};

/// Content `k`'s values: disjoint from every other content's.
fn domain(content: usize) -> Domain {
    let start = 1_000_000 * content as u64;
    let len = 12 + (content as u64 * 7) % 29;
    Domain::from_hashes((start..start + len).collect())
}

fn column(content: usize) -> String {
    format!("c{content}")
}

/// A small deterministic generator (SplitMix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of `ids`, if there is one.
    fn pick(&mut self, ids: &[u32]) -> Option<u32> {
        (!ids.is_empty()).then(|| ids[self.below(ids.len())])
    }
}

/// A domain's provenance: its values (named by its column) and table.
#[derive(Debug, Clone, PartialEq)]
struct Rec {
    content: usize,
    table: String,
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, Rec),
    Remove(u32),
}

fn apply(records: &mut BTreeMap<u32, Rec>, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(id, rec) => records.insert(*id, rec.clone()),
            Op::Remove(id) => records.remove(id),
        };
    }
}

/// One index file as the model holds it.
#[derive(Debug, Clone)]
struct FileModel {
    path: PathBuf,
    /// What the `.lshe` itself holds, and its allocator mark.
    base: BTreeMap<u32, Rec>,
    base_next_id: u32,
    /// What was acknowledged: the committed records, the staged ops in
    /// arrival order, and the id the next local insert takes.
    committed: BTreeMap<u32, Rec>,
    staged: Vec<Op>,
    next_id: u32,
}

impl FileModel {
    /// The ids live once the staged ops apply (`true`: a staged insert),
    /// and the staged counts: inserts no later remove cancelled, and
    /// committed ids removed.
    fn walk(&self) -> (BTreeMap<u32, bool>, StagedCounts) {
        let mut live: BTreeMap<u32, bool> = self.committed.keys().map(|&id| (id, false)).collect();
        let mut counts = StagedCounts::default();
        for op in &self.staged {
            match *op {
                Op::Insert(id, _) => {
                    live.insert(id, true);
                    counts.inserts += 1;
                }
                Op::Remove(id) => {
                    if live.remove(&id) == Some(true) {
                        counts.inserts -= 1;
                    } else {
                        counts.removes += 1;
                    }
                }
            }
        }
        (live, counts)
    }

    /// The one staging rule: an insert names an id not live once the
    /// staged ops apply (and not `u32::MAX`), a remove names a live one.
    fn admits(&self, op: &Op) -> bool {
        let (live, _) = self.walk();
        match op {
            Op::Insert(id, _) => *id != u32::MAX && !live.contains_key(id),
            Op::Remove(id) => live.contains_key(id),
        }
    }

    fn stage(&mut self, op: Op) {
        if let Op::Insert(id, _) = op {
            self.next_id = self.next_id.max(id + 1);
        }
        self.staged.push(op);
    }

    fn commit(&mut self) {
        apply(&mut self.committed, &self.staged);
        self.staged.clear();
    }

    /// A fold wrote the `.lshe`: it now holds every committed record.
    fn persist(&mut self) {
        self.base = self.committed.clone();
        self.base_next_id = self.next_id;
    }

    /// What a restart recovers from the base and a log holding `ops`
    /// under the header mark `mark`: each committed batch applied in
    /// turn, the tail after the last marker staged.
    fn recover(&mut self, mark: u32, ops: Vec<DeltaOp>) {
        self.committed = self.base.clone();
        self.staged.clear();
        self.next_id = self.base_next_id.max(mark);
        for op in ops {
            match op {
                DeltaOp::Insert { record, .. } => {
                    let content = record.column[1..].parse().expect("a content column");
                    let rec = Rec {
                        content,
                        table: record.table,
                    };
                    self.stage(Op::Insert(record.id, rec));
                }
                DeltaOp::Remove { id } => self.stage(Op::Remove(id)),
                DeltaOp::Commit { next_id } => {
                    self.commit();
                    self.next_id = self.next_id.max(next_id);
                }
            }
        }
    }
}

fn log_bytes(path: &Path) -> Option<Vec<u8>> {
    std::fs::read(DeltaLog::sidecar(path).path()).ok()
}

fn put_log(path: &Path, bytes: Option<Vec<u8>>) {
    let log = DeltaLog::sidecar(path);
    match bytes {
        Some(bytes) => std::fs::write(log.path(), bytes).expect("write the log"),
        None => log.clear().expect("remove the log"),
    }
}

/// Where each whole entry of a delta log ends, the header's end first.
fn entry_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = vec![9];
    let mut at = 9;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4 + len as usize + 8;
        ends.push(at);
    }
    ends
}

struct Walk {
    rng: Rng,
    dir: PathBuf,
    files: [FileModel; 2],
    /// The file the engine serves.
    at: usize,
    engine: Option<Engine>,
    /// Every id any insert named.
    known: BTreeSet<u32>,
    /// Each content's signature and size.
    sketches: Vec<(Signature, u64)>,
    steps: Vec<String>,
}

impl Walk {
    fn new(seed: u64) -> Self {
        let dir =
            std::env::temp_dir().join(format!("lshe_engine_model_{}_{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let hasher = MinHasher::new(DEFAULT_NUM_PERM);
        let sketches = (0..CONTENTS)
            .map(|k| {
                let d = domain(k);
                (hasher.signature(d.hashes().iter().copied()), d.len() as u64)
            })
            .collect();
        let mut catalog = Catalog::new();
        let mut base = BTreeMap::new();
        for k in 0..BASE {
            catalog.push(domain(k), DomainMeta::new("base", column(k)));
            let rec = Rec {
                content: k,
                table: "base".into(),
            };
            base.insert(k as u32, rec);
        }
        let built = IndexContainer::build(&catalog, 2);
        let files = ["a.lshe", "b.lshe"].map(|name| {
            let path = dir.join(name);
            built.save(&path).expect("save");
            FileModel {
                path,
                base: base.clone(),
                base_next_id: BASE as u32,
                committed: base.clone(),
                staged: Vec::new(),
                next_id: BASE as u32,
            }
        });
        let engine = Engine::load(&files[0].path, 1).expect("load");
        Self {
            rng: Rng(seed),
            dir,
            files,
            at: 0,
            engine: Some(engine),
            known: (0..BASE as u32).collect(),
            sketches,
            steps: Vec::new(),
        }
    }

    fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("an engine is live")
    }

    fn model(&mut self) -> &mut FileModel {
        &mut self.files[self.at]
    }

    fn path(&self) -> PathBuf {
        self.files[self.at].path.clone()
    }

    fn run(&mut self, steps: usize) {
        self.check();
        for _ in 0..steps {
            match self.rng.below(103) {
                0..=27 => self.stage_insert(),
                28..=41 => self.stage_remove(),
                42..=55 => self.commit(),
                56..=69 => self.planned_merge(),
                70..=73 => self.compact(),
                74..=77 => self.reload(self.at),
                78..=82 => self.reload(1 - self.at),
                83..=87 => self.restart(),
                88..=93 => self.fold_crash(),
                94..=99 => self.torn_log(),
                _ => self.new_index(),
            }
            self.check();
        }
    }

    /// The served state equals the model's.
    fn check(&self) {
        let model = &self.files[self.at];
        let engine = self.engine();
        let snap = engine.snapshot();
        let served: Vec<(u32, u64, String, String)> = snap
            .container()
            .records()
            .iter()
            .map(|r| (r.id, r.size, r.table.to_owned(), r.column.to_owned()))
            .collect();
        let expected: Vec<(u32, u64, String, String)> = model
            .committed
            .iter()
            .map(|(&id, rec)| {
                let size = self.sketches[rec.content].1;
                (id, size, rec.table.clone(), column(rec.content))
            })
            .collect();
        assert_eq!(served, expected, "served records");
        assert_eq!(snap.container().len(), model.committed.len(), "domains");
        for (content, (sig, size)) in self.sketches.iter().enumerate() {
            let query = Query::threshold(sig, 0.9).with_size(*size);
            let mut found = snap.query(&query).expect("a valid probe").ids();
            found.sort_unstable();
            let holders: Vec<u32> = model
                .committed
                .iter()
                .filter(|(_, rec)| rec.content == content)
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(found, holders, "probe {content}");
        }
        assert_eq!(engine.staged_counts(), model.walk().1, "staged counts");
        assert_eq!(engine.next_id(), model.next_id, "next id");
    }

    /// An explicit id for an insert: fresh, live, staged, removed, or the
    /// one no id follows.
    fn insert_id(&mut self) -> u32 {
        let (live, _) = self.files[self.at].walk();
        let committed: Vec<u32> = live.iter().filter(|e| !*e.1).map(|e| *e.0).collect();
        let staged: Vec<u32> = live.iter().filter(|e| *e.1).map(|e| *e.0).collect();
        let gone: Vec<u32> = self
            .known
            .difference(&live.keys().copied().collect())
            .copied()
            .collect();
        let fresh = self.files[self.at].next_id + self.rng.below(3) as u32;
        let drawn = match self.rng.below(20) {
            0 => Some(u32::MAX),
            1..=5 => self.rng.pick(&committed),
            6..=8 => self.rng.pick(&staged),
            9..=14 => self.rng.pick(&gone),
            _ => None,
        };
        drawn.unwrap_or(fresh)
    }

    fn stage_insert(&mut self) {
        let content = self.rng.below(CONTENTS);
        let table = TABLES[self.rng.below(TABLES.len())];
        let explicit = (self.rng.below(2) == 0).then(|| self.insert_id());
        let id = explicit.unwrap_or(self.files[self.at].next_id);
        self.steps.push(format!(
            "stage insert {id} ({}) content {content} table {table}",
            if explicit.is_some() {
                "explicit"
            } else {
                "local"
            }
        ));
        let op = Op::Insert(
            id,
            Rec {
                content,
                table: table.into(),
            },
        );
        let (sig, size) = self.sketches[content].clone();
        self.stage(op, |engine| {
            let (got, _) =
                engine.stage_insert_as(table.into(), column(content), size, sig, explicit)?;
            assert_eq!(got, id, "id");
            Ok(())
        });
    }

    fn stage_remove(&mut self) {
        let (live, _) = self.files[self.at].walk();
        let ids: Vec<u32> = live.keys().copied().collect();
        let gone: Vec<u32> = self
            .known
            .difference(&live.keys().copied().collect())
            .copied()
            .collect();
        let id = match self.rng.below(10) {
            0..=6 => self.rng.pick(&ids),
            7..=8 => self.rng.pick(&gone),
            _ => None,
        }
        .unwrap_or(self.files[self.at].next_id + 5);
        self.steps.push(format!("stage remove {id}"));
        self.stage(Op::Remove(id), |engine| engine.stage_remove(id).map(|_| ()));
    }

    /// Stages `op` through `call`: accepted exactly when the model admits
    /// it, and a refused op leaves the log as it was.
    fn stage(&mut self, op: Op, call: impl FnOnce(&Engine) -> Result<(), EngineError>) {
        let before = log_bytes(&self.path());
        let admitted = self.files[self.at].admits(&op);
        match call(self.engine()) {
            Ok(()) => {
                assert!(admitted, "staged {op:?}, which the model refuses");
                if let Op::Insert(id, _) = op {
                    self.known.insert(id);
                }
                self.model().stage(op);
            }
            Err(EngineError::Mutation(why)) => {
                assert!(!admitted, "refused {op:?}, which the model admits: {why}");
                assert_eq!(
                    log_bytes(&self.path()),
                    before,
                    "a refused op changed the log"
                );
            }
            Err(e) => panic!("staging {op:?} failed: {e}"),
        }
    }

    fn commit(&mut self) {
        self.steps.push("commit".into());
        let (_, report) = self.engine().commit_staged().expect("commit");
        assert_eq!(report.applied, self.files[self.at].staged.len(), "applied");
        self.model().commit();
    }

    /// Folds what the planner plans, one task at a time, as the
    /// maintenance thread does; a fold that swapped a snapshot wrote the
    /// file.
    fn planned_merge(&mut self) {
        self.steps.push("planned merge".into());
        for _ in 0..4 {
            let engine = self.engine();
            let Some(task) = PLANNER.plan(&engine.segment_layout()).into_iter().next() else {
                break;
            };
            let before = engine.snapshot().generation();
            let (snap, _) = engine.apply_merge(&task).expect("planned merge");
            if snap.generation() != before {
                self.model().persist();
            }
        }
    }

    fn compact(&mut self) {
        self.steps.push("compact".into());
        self.engine().compact().expect("compact");
        self.model().commit();
        self.model().persist();
    }

    fn reload(&mut self, to: usize) {
        self.steps.push(format!("reload file {to}"));
        let target = (to != self.at).then(|| self.files[to].path.clone());
        self.engine().reload(target.as_deref()).expect("reload");
        self.at = to;
    }

    fn restart(&mut self) {
        self.steps.push("restart".into());
        self.engine = None;
        self.engine = Some(Engine::load(&self.path(), 1).expect("restart"));
    }

    /// A fold persists the base, then the process dies before the log
    /// rewrite: the log is put back as it stood before the fold. Either a
    /// compaction (of a batch just committed) or the planner's folds,
    /// which leave staged ops staged.
    fn fold_crash(&mut self) {
        let compaction = self.rng.below(2) == 0;
        if compaction {
            self.commit();
        }
        self.steps.push(format!(
            "fold crash ({})",
            if compaction { "compact" } else { "planned" }
        ));
        let path = self.path();
        let before = log_bytes(&path);
        if compaction {
            self.compact();
        } else {
            self.planned_merge();
        }
        self.engine = None;
        put_log(&path, before);
        self.restart();
    }

    /// The log is cut at a random byte past its header. A restart refuses
    /// a cut inside an entry with a typed error; the log is then cut back
    /// to its last whole entry, and a restart serves the base plus what
    /// that prefix holds.
    fn torn_log(&mut self) {
        let path = self.path();
        let Some(bytes) = log_bytes(&path).filter(|bytes| bytes.len() > 9) else {
            return;
        };
        let cut = 9 + self.rng.below(bytes.len() - 9);
        self.steps
            .push(format!("tear the log at byte {cut} of {}", bytes.len()));
        self.engine = None;
        let ends = entry_ends(&bytes);
        let whole = *ends
            .iter()
            .filter(|&&end| end <= cut)
            .max()
            .expect("the header");
        put_log(&path, Some(bytes[..cut].to_vec()));
        if whole != cut {
            match Engine::load(&path, 1) {
                Err(EngineError::Index(why)) => assert!(why.contains("torn"), "{why}"),
                Err(e) => panic!("a torn log failed otherwise: {e}"),
                Ok(_) => panic!("a log torn at byte {cut} loaded"),
            }
            put_log(&path, Some(bytes[..whole].to_vec()));
        }
        let (mark, ops) = DeltaLog::sidecar(&path)
            .read_with_mark()
            .expect("a whole log");
        self.model().recover(mark, ops);
        self.restart();
    }

    /// `lshe index` onto either file: a new index of a few domains saved
    /// over it, the engine stopped first when it serves that file, as a
    /// live server must be. The file's log went with its old index, so the
    /// model's state for the file starts again from the new base.
    fn new_index(&mut self) {
        let to = self.rng.below(2);
        let count = 1 + self.rng.below(BASE);
        let contents: Vec<usize> = (0..count).map(|_| self.rng.below(CONTENTS)).collect();
        self.steps
            .push(format!("new index at file {to}: contents {contents:?}"));
        let mut catalog = Catalog::new();
        let mut base = BTreeMap::new();
        for (id, &content) in contents.iter().enumerate() {
            catalog.push(domain(content), DomainMeta::new("new", column(content)));
            let table = "new".into();
            base.insert(id as u32, Rec { content, table });
        }
        let served = to == self.at;
        if served {
            self.engine = None;
        }
        let path = self.files[to].path.clone();
        IndexContainer::build(&catalog, 2)
            .save(&path)
            .expect("save a new index");
        let next_id = count as u32;
        self.known.extend(0..next_id);
        self.files[to] = FileModel {
            path,
            base: base.clone(),
            base_next_id: next_id,
            committed: base,
            staged: Vec::new(),
            next_id,
        };
        if served {
            self.restart();
        }
    }
}

/// Runs `steps` random steps from each seed, naming the seed and its
/// steps when one fails.
fn sweep(seeds: std::ops::Range<u64>, steps: usize) {
    for seed in seeds {
        let mut walk = Walk::new(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| walk.run(steps)));
        if let Err(panic) = outcome {
            eprintln!(
                "engine model failed at seed {seed} after {} steps:\n  {}",
                walk.steps.len(),
                walk.steps.join("\n  ")
            );
            std::panic::resume_unwind(panic);
        }
        drop(walk.engine.take());
        std::fs::remove_dir_all(&walk.dir).ok();
    }
}

#[test]
fn the_engine_serves_and_recovers_what_the_model_acknowledged() {
    sweep(1..7, 73);
}

#[test]
#[ignore = "a longer seed sweep: cargo test --release -p lshe --test engine_model -- --ignored"]
fn a_long_sweep_serves_and_recovers_what_the_model_acknowledged() {
    sweep(1_000..1_030, 155);
}
