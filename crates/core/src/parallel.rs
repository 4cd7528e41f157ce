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
//! Long sweeps additionally need *partial* failure to stay partial: one
//! panicking storage point three hours into a study must not take the other
//! results with it. [`Engine::try_map`] runs every task under
//! `catch_unwind`, optionally retries it, and returns per-task
//! `Result<R, TaskError>` in input order; [`Engine::map`] is a thin wrapper
//! that re-raises the first failure.
//!
//! The engine uses only `std::thread::scope` — no dependencies — and honors
//! a `BRANCH_LAB_THREADS` override ([`bp_metrics::thread_count`]; set it
//! to `1` to force the serial path). Tasks pass the `engine.task` fault
//! site (see [`bp_metrics::faultpoint`]), which the fault-injection tests
//! use to panic an arbitrary task on demand.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// One task's failure inside [`Engine::try_map`]: which task, what it was
/// working on, and what the panic said.
#[derive(Clone, Debug)]
pub struct TaskError {
    /// Index of the failed item in the input slice.
    pub index: usize,
    /// Human-readable item label (defaults to `#<index>`).
    pub label: String,
    /// Rendered panic payload (the `&str`/`String` message when there was
    /// one, the cancellation reason for cancelled tasks, a placeholder
    /// hint otherwise).
    pub message: String,
    /// Total attempts made, retries included.
    pub attempts: u32,
    /// True when the task stopped cooperatively (the scope
    /// [`bp_metrics::cancel`] token was cancelled or its deadline expired)
    /// rather than genuinely panicking. Cancelled tasks are never retried.
    pub cancelled: bool,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "task {} ({}) {} after {} attempt{}: {}",
            self.index,
            self.label,
            if self.cancelled { "cancelled" } else { "panicked" },
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

impl Error for TaskError {}

/// Renders a panic payload the way the default hook would.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

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
    /// Implemented on top of [`Engine::try_map`]: sibling tasks always run
    /// to completion, then the first failure (in input order) is
    /// re-raised.
    ///
    /// # Panics
    ///
    /// Panics with the failing task's [`TaskError`] rendering when `f`
    /// panicked for any item.
    pub fn map<T, R, F>(self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map(items, f)
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|e| {
                    if e.cancelled {
                        // Preserve the typed payload so outer catchers
                        // (the exec watchdog, nested engines) still
                        // classify this as an orderly stop.
                        std::panic::panic_any(bp_metrics::cancel::Cancelled {
                            reason: e.message,
                        });
                    }
                    panic!("engine task failed: {e}")
                })
            })
            .collect()
    }

    /// Like [`Engine::map`], but panic-isolating: each task runs under
    /// `catch_unwind`, and the output carries one `Result` per input item,
    /// in input order. A panicking task costs exactly its own slot —
    /// sibling results are preserved bit-for-bit.
    pub fn try_map<T, R, F>(self, items: &[T], f: F) -> Vec<Result<R, TaskError>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.try_map_with(items, 0, |i, _| format!("#{i}"), f)
    }

    /// The fully-general fault-isolating mapper: up to `retries` extra
    /// attempts per task, and a `label` callback that names items in
    /// [`TaskError::label`] (e.g. the workload name) for diagnostics.
    ///
    /// Retrying assumes `f` is effectively idempotent per item — true for
    /// the pure trace-replay tasks the engine runs. Transient panics
    /// (injected faults, resource blips) succeed on a later attempt;
    /// deterministic panics exhaust their attempts and report the final
    /// payload.
    pub fn try_map_with<T, R, F, L>(
        self,
        items: &[T],
        retries: u32,
        label: L,
        f: F,
    ) -> Vec<Result<R, TaskError>>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
        L: Fn(usize, &T) -> String + Sync,
    {
        // Observability: fan-out shape and cumulative wall time. All
        // no-ops (one relaxed load each) unless BRANCH_LAB_METRICS is on.
        bp_metrics::Counter::get("engine.map_calls").incr();
        bp_metrics::Counter::get("engine.tasks").add(items.len() as u64);
        let _map_timer = bp_metrics::stage("engine.map");
        let run = |i: usize, item: &T| {
            bp_metrics::time("engine.task", || {
                bp_metrics::cancel::checkpoint("engine.task");
                bp_metrics::faultpoint::panic_point("engine.task");
                f(i, item)
            })
        };
        let attempt = |i: usize, item: &T| -> Result<R, TaskError> {
            let mut attempts = 0u32;
            loop {
                attempts += 1;
                match catch_unwind(AssertUnwindSafe(|| run(i, item))) {
                    Ok(r) => return Ok(r),
                    Err(payload) => {
                        // A cancelled scope is an orderly stop, not a task
                        // failure: report it without retrying (the token is
                        // sticky, so every retry would die at the first
                        // checkpoint anyway).
                        if let Some(c) =
                            payload.downcast_ref::<bp_metrics::cancel::Cancelled>()
                        {
                            bp_metrics::Counter::get("engine.task_cancelled").incr();
                            return Err(TaskError {
                                index: i,
                                label: label(i, item),
                                message: c.reason.clone(),
                                attempts,
                                cancelled: true,
                            });
                        }
                        bp_metrics::Counter::get("engine.task_panics").incr();
                        if attempts > retries {
                            return Err(TaskError {
                                index: i,
                                label: label(i, item),
                                message: panic_message(payload.as_ref()),
                                attempts,
                                cancelled: false,
                            });
                        }
                        bp_metrics::Counter::get("engine.task_retries").incr();
                    }
                }
            }
        };

        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| attempt(i, t)).collect();
        }
        // Work-stealing by atomic index; results carry their index so the
        // output order is independent of scheduling. Lock poisoning is
        // recovered, not propagated: with per-task catch_unwind a worker
        // cannot die mid-extend in practice, but even if one did, the
        // other workers' results must still be collected.
        let next = AtomicUsize::new(0);
        let indexed: Mutex<Vec<(usize, Result<R, TaskError>)>> =
            Mutex::new(Vec::with_capacity(items.len()));
        // Cancellation scopes are thread-local: capture the caller's token
        // (if any) and re-install it in every worker, so cancelling the
        // task stops all of its parallel shards.
        let scope_token = bp_metrics::cancel::current();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let _cancel_scope = scope_token.clone().map(bp_metrics::cancel::set_scope);
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
    fn try_map_isolates_panics_and_keeps_siblings() {
        let items: Vec<u32> = (0..24).collect();
        for threads in [1, 3, 8] {
            let out = Engine::with_threads(threads).try_map(&items, |_, &x| {
                assert!(x != 7 && x != 19, "boom at {x}");
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => {
                        assert!(i != 7 && i != 19);
                        assert_eq!(*v, (i as u32) * 2);
                    }
                    Err(e) => {
                        assert!(i == 7 || i == 19);
                        assert_eq!(e.index, i);
                        assert_eq!(e.label, format!("#{i}"));
                        assert_eq!(e.attempts, 1);
                        assert!(e.message.contains("boom"), "{}", e.message);
                    }
                }
            }
        }
    }

    #[test]
    fn try_map_with_retries_transient_failures() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u32> = (0..8).collect();
        let tries: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let out = Engine::with_threads(4).try_map_with(
            &items,
            2,
            |i, _| format!("item-{i}"),
            |i, &x| {
                // Item 5 fails on its first two attempts, then succeeds.
                if i == 5 && tries[i].fetch_add(1, Ordering::Relaxed) < 2 {
                    panic!("transient");
                }
                x + 1
            },
        );
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(tries[5].load(Ordering::Relaxed), 3);
    }

    #[test]
    fn try_map_with_reports_exhausted_retries() {
        let items = ["alpha", "beta"];
        let out = Engine::with_threads(2).try_map_with(
            &items,
            1,
            |_, item: &&str| (*item).to_string(),
            |_, item| {
                assert_ne!(*item, "beta", "always fails");
                item.len()
            },
        );
        assert_eq!(*out[0].as_ref().unwrap(), 5);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(err.label, "beta");
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("after 2 attempts"), "{err}");
    }

    #[test]
    fn cancelled_tasks_are_not_retried() {
        use bp_metrics::cancel;
        let token = cancel::CancelToken::new();
        let _scope = cancel::set_scope(token.clone());
        token.cancel("test stop");
        let items = [1u32, 2, 3];
        // Multi-threaded: workers must inherit the caller's scope.
        let out = Engine::with_threads(3).try_map_with(
            &items,
            5,
            |i, _| format!("item-{i}"),
            |_, &x| x,
        );
        for r in &out {
            let err = r.as_ref().unwrap_err();
            assert!(err.cancelled);
            assert_eq!(err.attempts, 1, "cancellation must not burn retries");
            assert!(err.message.contains("test stop"), "{}", err.message);
            assert!(err.to_string().contains("cancelled"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "engine task failed")]
    fn map_reraises_task_panics() {
        let items: Vec<u32> = (0..4).collect();
        let _ = Engine::with_threads(2).map(&items, |_, &x| {
            assert_ne!(x, 2, "die");
            x
        });
    }
}
