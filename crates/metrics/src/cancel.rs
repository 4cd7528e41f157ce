//! Cooperative cancellation tokens with deadline propagation.
//!
//! Long studies must be stoppable without `kill`: a timed-out or
//! user-cancelled study should wind down at the next safe point — the
//! boundary between two 16K-record replay blocks — instead of being torn
//! mid-write. This module provides the primitive: a [`CancelToken`] that
//! an executor arms (flag, deadline, or both) and that instrumented loops
//! poll at block granularity via [`checkpoint`].
//!
//! It lives in `bp-metrics` (not `bp-core`) for the same reason
//! [`crate::faultpoint`] does: the crates that host the hot block loops
//! (`bp-pipeline`, `bp-predictors`, `bp-workloads`) sit *below* `bp-core`
//! in the dependency graph. `bp_core::exec` re-exports the token and
//! builds the executor on top.
//!
//! # Scope propagation
//!
//! Hot loops cannot take a token parameter without threading it through
//! every signature in the workspace, so the active token is installed as
//! a thread-local *scope* ([`set_scope`]) around each task. Thread-local
//! (not process-global) so concurrent tests — and eventually concurrent
//! server requests — can each run under their own token without
//! cancelling each other. Code that fans work out to other threads
//! re-installs the caller's scope in each worker (the `Engine` captures
//! [`current`] at map entry and scopes every worker with it), so every
//! parallel shard of a cancelled task stops. The fast path for
//! uninstrumented runs is one thread-local is-some check ([`active`]):
//! production replays pay nothing measurable at block granularity.
//!
//! # Cancellation is a panic
//!
//! [`checkpoint`] reports cancellation by unwinding with a dedicated
//! [`Cancelled`] payload ([`std::panic::resume_unwind`], so the panic
//! hook prints nothing for it). Unwinding is the one mechanism that already
//! exits every loop, drops every guard, and is caught at every task
//! boundary (`Engine::map`'s per-task `catch_unwind`, which re-raises
//! the payload unchanged, and the executor's) — a
//! `Result` plumbed through the replay hot loops would cost real
//! throughput for a cold path. Catchers downcast to [`Cancelled`] to
//! distinguish an orderly stop from a genuine panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The panic payload [`checkpoint`] unwinds with. Task-boundary catchers
/// (`Engine::map`, `bp_core::exec`) downcast to this type to classify a
/// cooperative stop as cancellation rather than failure-by-panic.
#[derive(Clone, Debug)]
pub struct Cancelled {
    /// Why the token was cancelled, plus the site that observed it.
    pub reason: String,
}

#[derive(Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Why `cancelled` was set; empty until then.
    reason: Mutex<String>,
    /// Wall-clock deadline; observed lazily by [`CancelToken::is_cancelled`].
    deadline: Mutex<Option<Instant>>,
}

/// A shareable cancellation handle: cheap to clone, safe to poll from any
/// thread. Cancellation is one-way and sticky — once cancelled (directly
/// or by deadline expiry), a token stays cancelled.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl CancelToken {
    /// A fresh, uncancelled token with no deadline.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancels the token with a reason. The first cancellation wins; later
    /// calls (including deadline expiry) keep the original reason.
    pub fn cancel(&self, reason: &str) {
        if self
            .inner
            .cancelled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            *self.inner.reason.lock().unwrap_or_else(PoisonError::into_inner) =
                reason.to_string();
        }
    }

    /// Arms a wall-clock deadline `after` from now. Expiry is observed by
    /// the next [`CancelToken::is_cancelled`] (or [`checkpoint`]) call.
    pub fn set_deadline_in(&self, after: Duration) {
        let at = Instant::now().checked_add(after);
        *self.inner.deadline.lock().unwrap_or_else(PoisonError::into_inner) = at;
    }

    /// The armed deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        *self.inner.deadline.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the token is cancelled — by an explicit [`CancelToken::cancel`]
    /// or because its deadline has passed (checked here, on every call, so
    /// a deadline needs no thread of its own).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        let expired = self
            .deadline()
            .is_some_and(|at| Instant::now() >= at);
        if expired {
            self.cancel("deadline expired");
        }
        expired
    }

    /// The cancellation reason (empty if not cancelled).
    #[must_use]
    pub fn reason(&self) -> String {
        self.inner.reason.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

thread_local! {
    /// The calling thread's cancellation scope, if any. Thread-local so
    /// concurrent tests/requests never observe each other's tokens; code
    /// that spawns workers re-installs [`current`] in each of them.
    static SCOPE: std::cell::RefCell<Option<CancelToken>> =
        const { std::cell::RefCell::new(None) };
}

/// Restores the previous scope token on drop, so scopes nest correctly
/// (an executor task that itself runs a scoped sub-task).
pub struct ScopeGuard {
    prev: Option<CancelToken>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        SCOPE.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// Installs `token` as this thread's cancellation scope until the
/// returned guard drops. Instrumented block loops poll it via
/// [`checkpoint`] / [`cancelled`]; worker-spawning code propagates it
/// with [`current`] + `set_scope` in each worker.
#[must_use]
pub fn set_scope(token: CancelToken) -> ScopeGuard {
    let prev = SCOPE.with(|slot| slot.borrow_mut().replace(token));
    ScopeGuard { prev }
}

/// The calling thread's scope token, if one is installed — what an
/// engine captures at fan-out time to scope its workers.
#[must_use]
pub fn current() -> Option<CancelToken> {
    SCOPE.with(|slot| slot.borrow().clone())
}

/// True while this thread has a cancellation scope — one thread-local
/// is-some check. Hot loops use this to skip slicing/polling entirely on
/// production runs.
#[must_use]
pub fn active() -> bool {
    SCOPE.with(|slot| slot.borrow().is_some())
}

/// True when this thread's scope token (if any) is cancelled.
#[must_use]
pub fn cancelled() -> bool {
    SCOPE.with(|slot| slot.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
}

/// A cooperative cancellation point: returns immediately unless the
/// scope token is cancelled, in which case it unwinds with a
/// [`Cancelled`] payload naming `site`.
///
/// Place at block boundaries (per 16K-record replay slice, per training
/// block, per prepare chunk) — frequent enough that a cancelled study
/// stops within one block, coarse enough to cost nothing measurable.
///
/// # Panics
///
/// Unwinds with a [`Cancelled`] payload when the scope is cancelled —
/// that is its job. The unwind goes through
/// [`std::panic::resume_unwind`], which skips the panic hook: a
/// cooperative stop is not a crash, so it prints no `panicked at`
/// report. `catch_unwind` still catches it, and the payload still
/// downcasts to [`Cancelled`].
pub fn checkpoint(site: &str) {
    let Some(token) = current() else { return };
    if token.is_cancelled() {
        crate::Counter::get("cancel.checkpoint_hits").incr();
        let reason = token.reason();
        std::panic::resume_unwind(Box::new(Cancelled {
            reason: format!("{reason} (stopped at {site})"),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancel_is_sticky_and_first_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel("first");
        t.cancel("second");
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), "first");
        // Clones share state.
        let c = t.clone();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_expiry_cancels_lazily() {
        let t = CancelToken::new();
        t.set_deadline_in(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), "deadline expired");

        let far = CancelToken::new();
        far.set_deadline_in(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn checkpoint_is_inert_without_a_scope_and_unwinds_with_cancelled() {
        assert!(!active());
        checkpoint("test.site"); // no scope: no-op

        let t = CancelToken::new();
        let guard = set_scope(t.clone());
        assert!(active());
        checkpoint("test.site"); // scope installed but not cancelled
        t.cancel("unit test");
        assert!(cancelled());
        let payload = std::panic::catch_unwind(|| checkpoint("test.site"))
            .expect_err("cancelled checkpoint must unwind");
        let c = payload.downcast_ref::<Cancelled>().expect("Cancelled payload");
        assert!(c.reason.contains("unit test"), "{}", c.reason);
        assert!(c.reason.contains("test.site"), "{}", c.reason);
        drop(guard);
        assert!(!active(), "guard restores the empty scope");
    }

    #[test]
    fn a_cooperative_stop_skips_the_panic_hook() {
        // Count hook calls for `Cancelled` payloads only; other tests'
        // panics go on to the default hook as usual.
        static STOPS_REPORTED: std::sync::atomic::AtomicUsize =
            std::sync::atomic::AtomicUsize::new(0);
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_some() {
                STOPS_REPORTED.fetch_add(1, Ordering::SeqCst);
            }
            default_hook(info);
        }));
        let t = CancelToken::new();
        t.cancel("quiet stop");
        let guard = set_scope(t);
        let payload = std::panic::catch_unwind(|| checkpoint("test.quiet"))
            .expect_err("cancelled checkpoint must unwind");
        drop(guard);
        drop(std::panic::take_hook());
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        assert_eq!(STOPS_REPORTED.load(Ordering::SeqCst), 0, "the hook saw the stop");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        let og = set_scope(outer.clone());
        {
            let ig = set_scope(inner.clone());
            inner.cancel("inner");
            assert!(cancelled());
            drop(ig);
        }
        assert!(active(), "outer scope restored");
        assert!(!cancelled(), "outer token is not cancelled");
        drop(og);
        assert!(!active());
    }

    #[test]
    fn scopes_are_thread_local() {
        let t = CancelToken::new();
        t.cancel("this thread only");
        let _g = set_scope(t);
        assert!(cancelled());
        std::thread::spawn(|| {
            assert!(!active(), "scopes must not leak across threads");
            checkpoint("other.thread"); // inert
        })
        .join()
        .expect("no panic on the other thread");
    }
}
