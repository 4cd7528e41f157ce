//! A small deterministic parallel engine for experiment fan-out.
//!
//! The experiment studies are embarrassingly parallel across workloads (and
//! across storage points within a workload), but their outputs must stay
//! byte-identical to the serial implementation: CSVs are regression
//! artifacts. [`Engine::map`] therefore computes per-item results on a
//! scoped thread pool and returns them **in input order**; callers do any
//! order-sensitive reduction (e.g. geometric-mean accumulation) serially
//! afterwards, so floating-point results match the serial path exactly.
//!
//! A failed task fails the whole map, but only after every sibling task
//! has run: each task runs under `catch_unwind`, and [`Engine::map`] then
//! re-raises the first failure (in input order) with that task's own
//! panic payload. A cancelled task's [`bp_metrics::cancel::Cancelled`]
//! payload therefore reaches the caller — a nested engine or the
//! executor ([`crate::exec`]) — with its type intact.
//!
//! The engine uses only `std::thread::scope` — no dependencies — and honors
//! a `BRANCH_LAB_THREADS` override ([`bp_metrics::thread_count`]; set it
//! to `1` to force the serial path). Tasks pass the `engine.task` fault
//! site (see [`bp_metrics::faultpoint`]), which the fault-injection tests
//! use to panic an arbitrary task on demand.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A task's outcome inside [`Engine::map`]: its result or its panic
/// payload.
type TaskResult<R> = Result<R, Box<dyn Any + Send>>;

/// A fixed-width parallel mapper.
#[derive(Clone, Copy, Debug)]
pub struct Engine {
    threads: usize,
}

impl Engine {
    /// An engine sized by [`bp_metrics::thread_count`] (env override or
    /// machine width).
    #[must_use]
    pub fn from_env() -> Self {
        Engine { threads: bp_metrics::thread_count() }
    }

    /// An engine with an explicit thread count (clamped to at least 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Engine { threads: threads.max(1) }
    }

    /// The configured thread count.
    #[must_use]
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on up to `threads` scoped workers, returning
    /// results in input order. `f` receives `(index, item)`. With one
    /// thread (or one item) this is a plain serial loop.
    ///
    /// # Panics
    ///
    /// When `f` panicked for any item: every other task still runs to
    /// completion, then the first failure in input order is re-raised
    /// with its own payload (`resume_unwind`).
    pub fn map<T, R, F>(self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        // Observability: fan-out shape and cumulative wall time. All
        // no-ops (one relaxed load each) unless BRANCH_LAB_METRICS is on.
        bp_metrics::Counter::get("engine.map_calls").incr();
        bp_metrics::Counter::get("engine.tasks").add(items.len() as u64);
        let _map_timer = bp_metrics::stage("engine.map");
        let attempt = |i: usize, item: &T| -> TaskResult<R> {
            catch_unwind(AssertUnwindSafe(|| {
                bp_metrics::time("engine.task", || {
                    bp_metrics::cancel::checkpoint("engine.task");
                    bp_metrics::faultpoint::panic_point("engine.task");
                    f(i, item)
                })
            }))
            .inspect_err(|payload| {
                // A cancelled scope is an orderly stop, not a task failure.
                let counter = if payload.is::<bp_metrics::cancel::Cancelled>() {
                    "engine.task_cancelled"
                } else {
                    "engine.task_panics"
                };
                bp_metrics::Counter::get(counter).incr();
            })
        };

        let workers = self.threads.min(items.len());
        let results: Vec<TaskResult<R>> = if workers <= 1 {
            items.iter().enumerate().map(|(i, t)| attempt(i, t)).collect()
        } else {
            // Work-stealing by atomic index; results carry their index so
            // the output order is independent of scheduling. Lock
            // poisoning is recovered, not propagated: with per-task
            // catch_unwind a worker cannot die mid-extend in practice, but
            // even if one did, the other workers' results must still be
            // collected.
            let next = AtomicUsize::new(0);
            let indexed: Mutex<Vec<(usize, TaskResult<R>)>> =
                Mutex::new(Vec::with_capacity(items.len()));
            // Cancellation scopes are thread-local: capture the caller's
            // token (if any) and re-install it in every worker, so
            // cancelling the task stops all of its parallel shards.
            let scope_token = bp_metrics::cancel::current();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let _cancel_scope =
                            scope_token.clone().map(bp_metrics::cancel::set_scope);
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, attempt(i, item)));
                        }
                        indexed.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
                    });
                }
            });
            let mut v = indexed.into_inner().unwrap_or_else(PoisonError::into_inner);
            v.sort_unstable_by_key(|&(i, _)| i);
            v.into_iter().map(|(_, r)| r).collect()
        };
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 16] {
            let out = Engine::with_threads(threads).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let e = Engine::with_threads(8);
        assert_eq!(e.map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(e.map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..37).collect();
        let f = |_: usize, &x: &u64| (x as f64).sqrt().ln_1p();
        let serial = Engine::with_threads(1).map(&items, f);
        let parallel = Engine::with_threads(6).map(&items, f);
        assert_eq!(serial, parallel); // bitwise: same ops per item
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(Engine::with_threads(0).threads(), 1);
    }

    #[test]
    fn map_runs_every_sibling_and_reraises_the_first_payload() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<u32> = (0..24).collect();
        for threads in [1, 3, 8] {
            let ran: Vec<AtomicBool> = items.iter().map(|_| AtomicBool::new(false)).collect();
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Engine::with_threads(threads).map(&items, |i, &x| {
                    ran[i].store(true, Ordering::Relaxed);
                    assert!(x != 7 && x != 19, "boom at {x}");
                    x * 2
                })
            }))
            .expect_err("a failing task fails the map");
            assert!(ran.iter().all(|r| r.load(Ordering::Relaxed)), "{threads} threads");
            let message = payload.downcast_ref::<String>().expect("the task's own payload");
            assert_eq!(message, "boom at 7", "{threads} threads");
        }
    }

    #[test]
    fn cancelled_tasks_are_not_retried() {
        use bp_metrics::cancel;
        use std::sync::atomic::AtomicU32;
        let token = cancel::CancelToken::new();
        let _scope = cancel::set_scope(token.clone());
        token.cancel("test stop");
        let items = [1u32, 2, 3];
        let bodies = AtomicU32::new(0);
        // Multi-threaded: workers must inherit the caller's scope.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            Engine::with_threads(3).map(&items, |_, &x| {
                bodies.fetch_add(1, Ordering::Relaxed);
                x
            })
        }))
        .expect_err("a cancelled scope stops the map");
        let cancelled = payload
            .downcast_ref::<cancel::Cancelled>()
            .expect("the typed Cancelled payload");
        assert!(cancelled.reason.contains("test stop"), "{}", cancelled.reason);
        assert_eq!(bodies.load(Ordering::Relaxed), 0, "no task body runs");
    }

    #[test]
    #[should_panic(expected = "die")]
    fn map_reraises_task_panics() {
        let items: Vec<u32> = (0..4).collect();
        let _ = Engine::with_threads(2).map(&items, |_, &x| {
            assert_ne!(x, 2, "die");
            x
        });
    }
}
