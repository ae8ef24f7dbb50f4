//! A fixed-size thread pool for connection handling.
//!
//! `std`-only: a shared `mpsc` channel guarded by a mutex feeds worker
//! threads; dropping the pool closes the channel, and every worker drains
//! outstanding jobs before exiting, which is exactly the graceful-shutdown
//! behaviour the server wants (in-flight requests complete, the listener
//! stops accepting new ones).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads consuming a shared job queue.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `size` workers named `{name}-{i}`.
    ///
    /// # Panics
    /// Panics if `size == 0` or the OS refuses to spawn a thread.
    #[must_use]
    pub fn new(size: usize, name: &str) -> Self {
        assert!(size > 0, "thread pool needs at least one worker");
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while dequeuing, never while
                        // running the job.
                        let job = match receiver.lock().expect("pool queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => break, // channel closed: shut down
                        };
                        job();
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job. Returns `false` if the pool is already shutting down
    /// (the job is dropped).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> bool {
        match &self.sender {
            Some(tx) => tx.send(Box::new(job)).is_ok(),
            None => false,
        }
    }
}

impl Drop for ThreadPool {
    /// Closes the queue and joins every worker; queued and in-flight jobs
    /// finish first.
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            if worker.join().is_err() {
                // A job panicked; the worker is gone but shutdown proceeds.
            }
        }
    }
}

/// Picks a worker count: `requested`, or the machine's available
/// parallelism when `requested == 0` (min 2 so one slow connection cannot
/// starve the listener).
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    lshe_minhash::lanes::cores().max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = ThreadPool::new(4, "test");
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            assert!(pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        drop(pool); // joins after draining the queue
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_waits_for_in_flight_jobs() {
        let pool = ThreadPool::new(2, "slow");
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn survives_panicking_jobs() {
        let pool = ThreadPool::new(2, "panicky");
        pool.execute(|| panic!("job blew up"));
        let done = Arc::new(AtomicUsize::new(0));
        // Give the panicking job time to take down its worker, then verify
        // the pool still executes work and shuts down cleanly.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for _ in 0..8 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn effective_threads_floor() {
        assert_eq!(effective_threads(7), 7);
        assert!(effective_threads(0) >= 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ThreadPool::new(0, "zero");
    }
}
