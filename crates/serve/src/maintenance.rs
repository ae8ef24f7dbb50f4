//! The background maintenance runtime: a dedicated thread that executes
//! merge plans off the request path.
//!
//! The engine's commit path seals staged deltas in O(staged delta); what
//! it must never do is fold the segment stack — that cost is O(folded
//! entries) and belongs here. The [`Maintainer`] owns one parked thread
//! (`lshe-maint`) woken by commit markers: on each wake it observes the
//! live snapshot's [`SegmentLayout`](lshe_core::SegmentLayout), plans
//! with the default [`Leveled`] geometry (partial folds of overflowing
//! levels, a full fold past
//! [`MAX_TOMBSTONE_RATIO`](lshe_core::MAX_TOMBSTONE_RATIO) tombstones),
//! and executes the tasks through [`Engine::apply_merge`] — copy-on-write
//! folds that swap the snapshot atomically, persist the merged base, and
//! retire committed delta-log prefixes, all concurrent with reads and
//! staged mutations. Nothing here is configurable.
//!
//! `POST /compact` no longer runs the fold on the caller's thread
//! either: it enqueues a full-merge epoch here and (unless `?async=1`)
//! blocks its compute-pool lane until the epoch completes.

use crate::engine::Engine;
use lshe_core::{Leveled, MergeTask};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Summary of one finished full compaction, rendered by `/compact`.
#[derive(Debug, Clone)]
pub struct FullMergeSummary {
    /// Staged ops applied by the compaction.
    pub applied: usize,
    /// Staged inserts folded in.
    pub merged: usize,
    /// Live entries the rebuilt base was written from.
    pub entries_folded: usize,
    /// Segments outstanding afterwards (0).
    pub segments: usize,
    /// Tombstones outstanding afterwards (0).
    pub tombstones: usize,
    /// The generation the compaction created.
    pub generation: u64,
    /// Live domains afterwards.
    pub domains: usize,
}

/// Point-in-time maintenance state for `/stats.maintenance`.
#[derive(Debug, Clone)]
pub struct MaintenanceStats {
    /// Per-level (segment count, entry total) occupancy of the live
    /// layout under the leveled geometry, level 0 first.
    pub levels: Vec<(usize, usize)>,
    /// The planner's steady-state segment bound for the live corpus.
    pub segment_bound: usize,
    /// Tasks outstanding: planned merges plus unserved full requests.
    pub queued: usize,
    /// The task label currently executing, if any.
    pub running: Option<&'static str>,
    /// Background merges executed since boot (partial folds).
    pub merges: u64,
    /// Full compactions executed since boot: `/compact` requests and
    /// tombstone-driven folds.
    pub full_merges: u64,
    /// Total live entries rewritten by maintenance since boot.
    pub entries_folded: u64,
    /// Wall time of the most recent merge, in microseconds.
    pub last_merge_micros: u64,
    /// The most recent maintenance failure, if any.
    pub last_error: Option<String>,
}

#[derive(Default)]
struct State {
    /// A commit landed since the worker last drained.
    dirty: bool,
    /// Highest full-merge epoch requested / completed. A single fold
    /// satisfies every epoch requested before it started.
    full_requested: u64,
    full_completed: u64,
    last_full: Option<Result<FullMergeSummary, String>>,
    shutdown: bool,
    running: Option<&'static str>,
    merges: u64,
    full_merges: u64,
    entries_folded: u64,
    last_merge_micros: u64,
    last_error: Option<String>,
}

enum Job {
    /// Serve full-merge requests up to this epoch.
    Full(u64),
    /// Drain the plan to quiescence.
    Drain,
}

/// The background maintenance runtime. One per server; shared via `Arc`.
pub struct Maintainer {
    engine: Arc<Engine>,
    planner: Leveled,
    state: Mutex<State>,
    /// Worker parks here; commits and full requests signal it.
    work: Condvar,
    /// `/compact` waiters park here; full completions signal it.
    done: Condvar,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Called after every snapshot swap (the server drops dead cache
    /// weight — entries are generation-keyed, never stale).
    on_swap: Box<dyn Fn() + Send + Sync>,
    /// Test hook: stretch the full-merge window so overlap is provable.
    full_delay: Mutex<Duration>,
}

impl std::fmt::Debug for Maintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintainer")
            .field("planner", &self.planner)
            .finish()
    }
}

impl Maintainer {
    /// Spawns the maintenance thread. `on_swap` runs after every
    /// snapshot swap the maintainer performs (cache invalidation).
    pub fn spawn(engine: Arc<Engine>, on_swap: Box<dyn Fn() + Send + Sync>) -> Arc<Self> {
        let maintainer = Arc::new(Self {
            engine,
            planner: Leveled::default(),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            thread: Mutex::new(None),
            on_swap,
            full_delay: Mutex::new(Duration::ZERO),
        });
        let worker = Arc::clone(&maintainer);
        let handle = std::thread::Builder::new()
            .name("lshe-maint".to_owned())
            .spawn(move || worker.run())
            .expect("spawn maintenance thread");
        *maintainer.thread.lock().expect("maint thread lock") = Some(handle);
        maintainer
    }

    /// Wakes the worker after a commit: it re-plans against the new
    /// layout and folds until the plan is empty. O(1), lock + one
    /// notify — safe on every commit.
    pub fn notify_commit(&self) {
        let mut state = self.state.lock().expect("maint state poisoned");
        state.dirty = true;
        self.work.notify_one();
    }

    /// Enqueues a full merge and returns its epoch (pass to
    /// [`wait_full`](Self::wait_full) to block until it completes).
    pub fn request_full(&self) -> u64 {
        let mut state = self.state.lock().expect("maint state poisoned");
        state.full_requested += 1;
        let epoch = state.full_requested;
        self.work.notify_one();
        epoch
    }

    /// Blocks until the full merge of `epoch` completed, returning its
    /// summary (or the failure message).
    ///
    /// # Errors
    /// The engine's error message when the compaction failed, or a
    /// shutdown notice when the server stopped before serving the epoch.
    pub fn wait_full(&self, epoch: u64) -> Result<FullMergeSummary, String> {
        let mut state = self.state.lock().expect("maint state poisoned");
        while state.full_completed < epoch && !state.shutdown {
            state = self.done.wait(state).expect("maint state poisoned");
        }
        if state.full_completed < epoch {
            return Err("server shut down before the compaction ran".to_owned());
        }
        match &state.last_full {
            Some(Ok(summary)) => Ok(summary.clone()),
            Some(Err(msg)) => Err(msg.clone()),
            None => Err("no compaction outcome recorded".to_owned()),
        }
    }

    /// Stops the worker after its current task and joins it. Idempotent;
    /// wakes any `/compact` waiters with a shutdown error.
    pub fn shutdown(&self) {
        {
            let mut state = self.state.lock().expect("maint state poisoned");
            state.shutdown = true;
            self.work.notify_one();
            self.done.notify_all();
        }
        let handle = self.thread.lock().expect("maint thread lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Point-in-time state for `/stats.maintenance`.
    #[must_use]
    pub fn stats(&self) -> MaintenanceStats {
        let layout = self.engine.segment_layout();
        let planned = self.planner.plan(&layout).len();
        let state = self.state.lock().expect("maint state poisoned");
        MaintenanceStats {
            levels: self.planner.occupancy(&layout),
            segment_bound: self.planner.segment_bound(layout.len + layout.tombstones),
            queued: planned + (state.full_requested - state.full_completed) as usize,
            running: state.running,
            merges: state.merges,
            full_merges: state.full_merges,
            entries_folded: state.entries_folded,
            last_merge_micros: state.last_merge_micros,
            last_error: state.last_error.clone(),
        }
    }

    /// Test hook: every full merge sleeps this long before folding, so
    /// overlap tests get a deterministic window.
    #[cfg(test)]
    pub(crate) fn set_full_delay_for_tests(&self, delay: Duration) {
        *self.full_delay.lock().expect("maint delay lock") = delay;
    }

    fn next_job(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("maint state poisoned");
        loop {
            if state.shutdown {
                return None;
            }
            if state.full_completed < state.full_requested {
                return Some(Job::Full(state.full_requested));
            }
            if state.dirty {
                state.dirty = false;
                return Some(Job::Drain);
            }
            state = self.work.wait(state).expect("maint state poisoned");
        }
    }

    fn run(&self) {
        while let Some(job) = self.next_job() {
            match job {
                Job::Full(epoch) => self.run_full(epoch),
                Job::Drain => self.run_drain(),
            }
        }
    }

    /// One full compaction serving every epoch requested up to `epoch`.
    fn run_full(&self, epoch: u64) {
        let delay = *self.full_delay.lock().expect("maint delay lock");
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        self.state.lock().expect("maint state poisoned").running = Some("full");
        let started = Instant::now();
        let result = self.engine.compact();
        let elapsed = started.elapsed().as_micros() as u64;
        let swapped = result.is_ok();
        {
            let mut state = self.state.lock().expect("maint state poisoned");
            state.running = None;
            state.last_merge_micros = elapsed;
            match result {
                Ok((snap, outcome)) => {
                    state.full_merges += 1;
                    state.entries_folded += outcome.report.entries_folded as u64;
                    state.last_error = None;
                    state.last_full = Some(Ok(FullMergeSummary {
                        applied: outcome.applied,
                        merged: outcome.report.merged,
                        entries_folded: outcome.report.entries_folded,
                        segments: outcome.report.segments,
                        tombstones: outcome.report.tombstones,
                        generation: snap.generation(),
                        domains: snap.container().len(),
                    }));
                }
                Err(e) => {
                    let msg = e.to_string();
                    state.last_error = Some(msg.clone());
                    state.last_full = Some(Err(msg));
                }
            }
            state.full_completed = epoch;
            self.done.notify_all();
        }
        if swapped {
            (self.on_swap)();
        }
    }

    /// Folds until the plan comes back empty. Full requests and
    /// shutdown preempt between tasks.
    fn run_drain(&self) {
        loop {
            {
                let state = self.state.lock().expect("maint state poisoned");
                if state.shutdown || state.full_completed < state.full_requested {
                    return;
                }
            }
            let layout = self.engine.segment_layout();
            let tasks = self.planner.plan(&layout);
            if tasks.is_empty() {
                return;
            }
            for task in tasks {
                let full = task == MergeTask::Full;
                let label = if full { "full" } else { "merge" };
                self.state.lock().expect("maint state poisoned").running = Some(label);
                let started = Instant::now();
                let result = self.engine.apply_merge(&task);
                let elapsed = started.elapsed().as_micros() as u64;
                let mut state = self.state.lock().expect("maint state poisoned");
                state.running = None;
                state.last_merge_micros = elapsed;
                match result {
                    Ok((_, outcome)) => {
                        if full {
                            state.full_merges += 1;
                        } else {
                            state.merges += 1;
                        }
                        state.entries_folded += outcome.entries_folded as u64;
                        state.last_error = None;
                        drop(state);
                        (self.on_swap)();
                    }
                    Err(e) => {
                        // A failed fold (e.g. the folded base could not
                        // be persisted) leaves the stack for the next
                        // trigger instead of hot-looping on the error.
                        state.last_error = Some(e.to_string());
                        return;
                    }
                }
            }
        }
    }
}
