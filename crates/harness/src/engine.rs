//! Parallel experiment execution engine.
//!
//! Every paper artifact is built from the same kernel × variant × attack
//! cross product — hundreds of completely independent, deterministic
//! simulations. The *simulator* stays single-threaded (reproducibility by
//! construction: each simulation owns its [`Simulator`](crate::Simulator) clone, core and
//! memory system); the *harness* fans the independent runs out across a
//! [`JobPool`] of `std::thread::scope` workers and merges the results in
//! canonical submission order, so the merged output is byte-identical to
//! the serial path at any worker count.
//!
//! The worker count comes from (highest priority first) an explicit
//! `--jobs N` flag (parsed by [`crate::cli`], which turns malformed
//! values into a usage error rather than a panic), the `SDO_JOBS`
//! environment variable, or [`std::thread::available_parallelism`].
//!
//! ```rust
//! use sdo_harness::engine::JobPool;
//!
//! let pool = JobPool::new(4);
//! let squares = pool.run(&[1u64, 2, 3, 4], |_idx, n| n * n);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable naming the default worker count.
pub const JOBS_ENV: &str = "SDO_JOBS";

/// A scoped worker pool that executes independent jobs and returns their
/// results in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    jobs: usize,
}

impl JobPool {
    /// A pool with exactly `jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        JobPool { jobs: jobs.max(1) }
    }

    /// The single-worker pool: runs every job inline on the caller's
    /// thread, in order.
    #[must_use]
    pub fn serial() -> Self {
        JobPool { jobs: 1 }
    }

    /// Worker count from `SDO_JOBS`, falling back to the machine's
    /// available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        JobPool::new(jobs)
    }

    /// The worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f` over every item and returns the results in item order.
    ///
    /// Work is handed out through a shared atomic cursor, so early-
    /// finishing workers steal remaining items (dynamic load balancing);
    /// output order is still canonical because results land in their
    /// item's slot.
    pub fn run<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.try_run(items, |idx, item| Ok::<T, Never>(f(idx, item)))
            .unwrap_or_else(|e| match e {})
    }

    /// Fallible variant of [`JobPool::run`]: returns all results in item
    /// order, or the error of the *lowest-indexed* failing job.
    ///
    /// On a failure the pool stops handing out jobs whose index is higher
    /// than the failing one (lower-indexed jobs still run, so the
    /// reported error is the canonical first failure regardless of
    /// scheduling), then joins every worker before returning — no orphans.
    ///
    /// A job that *panics* is treated exactly like a failing job for
    /// scheduling purposes; once every worker has joined, the panic is
    /// re-raised on the caller's thread with the job index and the
    /// original panic message (instead of the old behaviour, where the
    /// unwinding worker killed the whole scope and any in-flight slot
    /// lock surfaced as an unrelated "result slot poisoned" panic).
    ///
    /// # Errors
    ///
    /// The error produced by the canonically-first failing job.
    ///
    /// # Panics
    ///
    /// Re-raises the canonically-first job panic, labelled with its job
    /// index.
    pub fn try_run<I, T, E, F>(&self, items: &[I], f: F) -> Result<Vec<T>, E>
    where
        I: Sync,
        T: Send,
        E: Send,
        F: Fn(usize, &I) -> Result<T, E> + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }

        let cursor = AtomicUsize::new(0);
        // Index of the lowest failure observed so far; jobs beyond it are
        // skipped. usize::MAX means "no failure".
        let first_err_idx = AtomicUsize::new(usize::MAX);
        let slots: Vec<Mutex<Option<JobOutcome<T, E>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() || idx > first_err_idx.load(Ordering::Acquire) {
                        break;
                    }
                    let outcome = match catch_unwind(AssertUnwindSafe(|| f(idx, &items[idx]))) {
                        Ok(Ok(v)) => JobOutcome::Ok(v),
                        Ok(Err(e)) => JobOutcome::Err(e),
                        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
                    };
                    if !matches!(outcome, JobOutcome::Ok(_)) {
                        first_err_idx.fetch_min(idx, Ordering::Release);
                    }
                    *slots[idx].lock().expect("result slot poisoned") = Some(outcome);
                });
            }
        });

        let mut out = Vec::with_capacity(items.len());
        for (idx, slot) in slots.into_iter().enumerate() {
            match slot.into_inner().expect("result slot poisoned") {
                Some(JobOutcome::Ok(v)) => out.push(v),
                // The canonically-first failure: every lower-indexed job
                // ran to completion successfully (they are never skipped).
                Some(JobOutcome::Err(e)) => return Err(e),
                Some(JobOutcome::Panicked(msg)) => panic!("job {idx} panicked: {msg}"),
                // Skipped due to a (higher-priority) earlier failure; that
                // failure was already returned above.
                None => unreachable!("job skipped without a preceding error"),
            }
        }
        Ok(out)
    }
}

/// What one job produced: a value, a domain error, or a caught panic
/// (carrying the original message so the coordinator can re-raise it
/// attributably).
enum JobOutcome<T, E> {
    Ok(T),
    Err(E),
    Panicked(String),
}

/// Extracts the human-readable message from a panic payload (`&str` and
/// `String` cover everything `panic!` produces). Public so the
/// `sdo-serve` daemon can reuse the same `catch_unwind` plumbing to turn
/// in-flight panics into typed protocol errors instead of dying.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Uninhabited error type for the infallible [`JobPool::run`] path.
enum Never {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|n| n * 3).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let pool = JobPool::new(jobs);
            assert_eq!(pool.run(&items, |_, n| n * 3), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn run_passes_item_indices() {
        let items = vec!["a", "b", "c"];
        let idxs = JobPool::new(2).run(&items, |i, _| i);
        assert_eq!(idxs, vec![0, 1, 2]);
    }

    #[test]
    fn try_run_returns_lowest_indexed_error() {
        let items: Vec<usize> = (0..50).collect();
        for jobs in [1, 4, 16] {
            let pool = JobPool::new(jobs);
            let r: Result<Vec<usize>, String> = pool.try_run(&items, |_, &n| {
                if n == 7 || n == 23 {
                    Err(format!("job {n} failed"))
                } else {
                    Ok(n)
                }
            });
            assert_eq!(r.unwrap_err(), "job 7 failed", "jobs={jobs}");
        }
    }

    #[test]
    fn try_run_all_ok_matches_serial() {
        let items: Vec<u32> = (0..31).collect();
        let serial: Result<Vec<u32>, ()> = JobPool::serial().try_run(&items, |_, &n| Ok(n + 1));
        let parallel = JobPool::new(6).try_run(&items, |_, &n| Ok(n + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u8> = Vec::new();
        assert!(JobPool::new(8).run(&items, |_, &b| b).is_empty());
    }

    #[test]
    fn pool_never_has_zero_workers() {
        assert_eq!(JobPool::new(0).jobs(), 1);
    }

    #[test]
    fn panicking_job_reports_its_own_message() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            JobPool::new(4).run(&items, |_, &n| {
                assert!(n != 5, "job body exploded on 5");
                n
            })
        });
        let msg = panic_message(caught.unwrap_err().as_ref());
        assert!(msg.contains("job 5 panicked"), "got: {msg}");
        assert!(msg.contains("job body exploded on 5"), "got: {msg}");
    }

    #[test]
    fn earlier_error_wins_over_later_panic() {
        let items: Vec<usize> = (0..32).collect();
        let r: Result<Vec<usize>, String> = JobPool::new(4).try_run(&items, |_, &n| {
            assert!(n != 20, "late panic");
            if n == 3 { Err("job 3 failed".to_string()) } else { Ok(n) }
        });
        assert_eq!(r.unwrap_err(), "job 3 failed");
    }
}
