//! The background maintenance runtime: a dedicated thread that executes
//! merge plans off the request path.
//!
//! The engine's commit path seals staged deltas in O(staged delta); what
//! it must never do is fold the segment stack — that cost is O(folded
//! entries) and belongs here. The [`Maintainer`] owns one parked thread
//! (`lshe-maint`) woken at boot, by commit markers and by reloads (a
//! stack replayed from a delta log folds without waiting for a commit):
//! on each wake it observes the live snapshot's
//! [`SegmentLayout`](lshe_core::SegmentLayout), plans with the default
//! [`Leveled`] geometry (partial folds of overflowing levels, a full fold
//! past [`MAX_TOMBSTONE_RATIO`](lshe_core::MAX_TOMBSTONE_RATIO) tombstones),
//! and executes the tasks through [`Engine::apply_merge`] — copy-on-write
//! folds that swap the snapshot atomically, persist the merged base, and
//! retire committed delta-log prefixes, all concurrent with reads and
//! staged mutations, which they leave staged. Nothing here is
//! configurable.
//!
//! `POST /compact` does not run the fold on the caller's thread either:
//! it enqueues a full-merge epoch here, run as [`Engine::compact`] (the
//! one fold that commits staged ops first), and (unless `?async=1`)
//! blocks its compute-pool lane until the epoch completes.

use crate::engine::Engine;
use lshe_core::{CommitReport, Leveled, MergeTask};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
    /// The layout may need folding: the worker started, or a commit or a
    /// reload landed, since it last drained.
    dirty: bool,
    /// Highest full-merge epoch requested / completed. A single fold
    /// satisfies every epoch requested before it started; `last_full` is
    /// its report, generation and domain count, or its failure.
    full_requested: u64,
    full_completed: u64,
    last_full: Option<Result<(CommitReport, u64, usize), String>>,
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
            // Plan once at boot: the engine may open a replayed stack.
            state: Mutex::new(State {
                dirty: true,
                ..State::default()
            }),
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

    /// Wakes the worker after a commit or a reload: it re-plans against
    /// the new layout and folds until the plan is empty. O(1), lock + one
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
    /// report, generation and domain count (or the failure message).
    ///
    /// # Errors
    /// The engine's error message when the compaction failed, or a
    /// shutdown notice when the server stopped before serving the epoch.
    pub fn wait_full(&self, epoch: u64) -> Result<(CommitReport, u64, usize), String> {
        let mut state = self.state.lock().expect("maint state poisoned");
        while state.full_completed < epoch && !state.shutdown {
            state = self.done.wait(state).expect("maint state poisoned");
        }
        if state.full_completed < epoch {
            return Err("server shut down before the compaction ran".to_owned());
        }
        state
            .last_full
            .clone()
            .unwrap_or_else(|| Err("no compaction outcome recorded".to_owned()))
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

    /// Test hook: every full fold sleeps this long before folding, so
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
                Job::Full(epoch) => {
                    // One compaction serves every epoch requested up to
                    // `epoch`.
                    let outcome = self.execute(None);
                    let mut state = self.state.lock().expect("maint state poisoned");
                    state.last_full = Some(outcome);
                    state.full_completed = epoch;
                    self.done.notify_all();
                }
                Job::Drain => self.drain(),
            }
        }
    }

    /// Folds until the plan comes back empty. Full requests and
    /// shutdown preempt between tasks.
    fn drain(&self) {
        loop {
            {
                let state = self.state.lock().expect("maint state poisoned");
                if state.shutdown || state.full_completed < state.full_requested {
                    return;
                }
            }
            let tasks = self.planner.plan(&self.engine.segment_layout());
            if tasks.is_empty() {
                return;
            }
            for task in &tasks {
                // A failed fold (e.g. the folded base could not be
                // persisted) leaves the stack for the next trigger instead
                // of hot-looping on the error.
                if self.execute(Some(task)).is_err() {
                    return;
                }
            }
        }
    }

    /// Runs one fold: a `/compact` epoch (`None`: [`Engine::compact`],
    /// which seals what is staged first) or a planned task
    /// ([`Engine::apply_merge`], which never does). Labels it running,
    /// times it, counts it, records or clears `last_error`, and calls
    /// `on_swap` after a fold that landed.
    fn execute(&self, task: Option<&MergeTask>) -> Result<(CommitReport, u64, usize), String> {
        let full = task.is_none_or(|task| *task == MergeTask::Full);
        if full {
            std::thread::sleep(*self.full_delay.lock().expect("maint delay lock"));
        }
        self.state.lock().expect("maint state poisoned").running =
            Some(if full { "full" } else { "merge" });
        let started = Instant::now();
        let result = match task {
            None => self.engine.compact(),
            Some(task) => self.engine.apply_merge(task),
        };
        let elapsed = started.elapsed().as_micros() as u64;
        let mut state = self.state.lock().expect("maint state poisoned");
        state.running = None;
        state.last_merge_micros = elapsed;
        let outcome = match result {
            Ok((snap, report)) => {
                if full {
                    state.full_merges += 1;
                } else {
                    state.merges += 1;
                }
                state.entries_folded += report.entries_folded as u64;
                state.last_error = None;
                Ok((report, snap.generation(), snap.container().len()))
            }
            Err(e) => {
                state.last_error = Some(e.to_string());
                Err(e.to_string())
            }
        };
        drop(state);
        if outcome.is_ok() {
            (self.on_swap)();
        }
        outcome
    }
}
