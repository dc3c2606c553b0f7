//! A deterministic-by-construction worker pool for fleet waves.
//!
//! The fleet executor runs each flight as a single-threaded *island*
//! (the drone's `Rc`/`RefCell` hot paths never cross a thread): a
//! wave's flyable plans are packaged into `Send`-able work items, the
//! pool fans them out over `std::thread`, and results come back in
//! **input order** regardless of completion order. Determinism never
//! depends on scheduling — each result carries its item's index and
//! the joined results are sorted by it, and the merge downstream
//! consumes them sequentially.
//!
//! Panics inside a worker are contained with `catch_unwind` and
//! surfaced as [`WorkerError::Panicked`] as that item's result; the
//! other items still complete. The single-threaded path (one worker,
//! or one item) runs inline under the *same* panic guard, so panic
//! semantics are identical at every thread count.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Why a work item produced no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The work closure panicked; the payload's message, if any.
    Panicked(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// A fixed-width pool of OS worker threads.
///
/// `new(1)` is the sequential executor: items run inline on the
/// caller's thread, in order, with no thread spawned — but still
/// under the panic guard, so a panicking item yields
/// [`WorkerError::Panicked`] instead of unwinding the caller.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

/// Renders a `catch_unwind` payload as best-effort text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one item under the uniform panic guard.
fn guarded<I, O>(work: &(impl Fn(I) -> O + Sync), item: I) -> Result<O, WorkerError> {
    catch_unwind(AssertUnwindSafe(|| work(item)))
        .map_err(|p| WorkerError::Panicked(panic_message(p)))
}

impl WorkerPool {
    /// A pool of `threads` workers; 0 is clamped to 1.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The configured width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work` over `items`, returning one result per item **in
    /// input order**. Items are pulled from a shared queue in index
    /// order; each result is kept with its index and sorted back into
    /// place after the workers join, so the output vector is
    /// independent of which worker ran what and when it finished.
    pub fn run<I, O, F>(&self, items: Vec<I>, work: F) -> Vec<Result<O, WorkerError>>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.into_iter().map(|item| guarded(&work, item)).collect();
        }

        let workers = self.threads.min(items.len());
        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());

        // Each worker keeps its own `(index, result)` pairs; sorting
        // the joined pairs by index restores input order.
        let mut done: Vec<(usize, Result<O, WorkerError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            // No item runs under the lock, so even a
                            // poisoned queue is consistent.
                            let next = queue
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .pop_front();
                            let Some((idx, item)) = next else { break };
                            mine.push((idx, guarded(&work, item)));
                        }
                        mine
                    })
                })
                .collect();
            // A worker cannot unwind (its items run under the panic
            // guard); if one ever did, re-raise rather than lose its
            // results.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|(idx, _)| *idx);
        done.into_iter().map(|(_, out)| out).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run((0..64).collect(), |n: u64| n * n);
        let values: Vec<u64> = out.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(values, (0..64).map(|n| n * n).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_is_contained() {
        let pool = WorkerPool::new(3);
        let out = pool.run(vec![1u32, 2, 3, 4], |n| {
            assert!(n != 3, "item three exploded");
            n + 10
        });
        assert_eq!(out[0], Ok(11));
        assert_eq!(out[1], Ok(12));
        match &out[2] {
            Err(WorkerError::Panicked(msg)) => assert!(msg.contains("item three exploded")),
            other => panic!("expected contained panic, got {other:?}"),
        }
        assert_eq!(out[3], Ok(14));
    }

    #[test]
    fn single_thread_path_has_identical_panic_semantics() {
        let pool = WorkerPool::new(1);
        let out = pool.run(vec![1u32, 2], |n| {
            assert!(n != 2, "boom");
            n
        });
        assert_eq!(out[0], Ok(1));
        assert!(matches!(out[1], Err(WorkerError::Panicked(_))));
    }

    #[test]
    fn zero_width_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = WorkerPool::new(8);
        let out = pool.run(Vec::<u32>::new(), |n| n);
        assert!(out.is_empty());
    }
}
