//! `bp-metrics` — a zero-cost-when-disabled observability layer.
//!
//! Every hot path in branch-lab (TAGE bank lookups, scoreboard flushes,
//! trace-store hits, study fan-out) can report into a process-wide
//! registry of named [`Counter`]s and cumulative stage timers. The whole
//! layer is gated by the `BRANCH_LAB_METRICS` environment variable: unset
//! or `0`, counter handles resolve to no-ops (no allocation, no atomics,
//! no registry traffic); `1` or a directory, counters count and run
//! manifests are written to `out/metrics/<run>.json` or `<dir>/<run>.json`.
//!
//! The design rule that keeps the disabled path cheap: instrumented code
//! resolves a [`Counter`] handle **once, at construction time** (of a
//! predictor, a simulation, a store). When metrics are disabled the
//! handle holds `None` and every `add` is a branch on an immediate —
//! there is no name lookup, no atomic, and no lock anywhere near a hot
//! loop. `ci.sh`'s perf gate runs `bp-perf` with metrics unset, so every
//! entry it times replays on the disabled path.
//!
//! Because predictions never depend on a counter value, study outputs
//! are bitwise identical with metrics on or off; manifests go to files,
//! never stdout. Counters use relaxed atomics and every worker does the
//! same total work regardless of `BRANCH_LAB_THREADS`, so counter totals
//! are deterministic across thread counts — only the timing fields vary
//! (see [`manifest::normalize`]).
//!
//! As the base crate, it also holds what crates at every layer share:
//! the table of `BRANCH_LAB_*` variables ([`mod@env`]), cooperative
//! cancellation ([`cancel`]), fault injection ([`faultpoint`]), the cache
//! files of the trace store and serve ([`durable`]), and the one FNV-1a
//! hash ([`fnv1a`]).

#![warn(missing_docs)]

pub mod cancel;
pub mod durable;
pub mod env;
pub mod faultpoint;
pub mod json;
pub mod manifest;

pub use manifest::{merge_manifests_with_children, normalize, CounterBaseline, Manifest};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The FNV-1a 64 offset basis: the hash of no bytes, and the start of
/// every [`fnv1a`] chain.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a 64 hash `hash` over `bytes`. Start a chain at
/// [`FNV_OFFSET`] (or at it XORed with a seed). This is branch-lab's one
/// FNV-1a: serve's cache keys and entry trailers, the workload digests,
/// retry jitter, `@p%` fault schedules and predictor state digests all
/// hash with it. bp-trace's block checksum is a separate copy, because
/// that crate depends on no other.
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

static FORCED: AtomicBool = AtomicBool::new(false);

/// Enables the counter registry for the rest of the process regardless
/// of the environment, without configuring a manifest sink. Intended for
/// tests; instrumented objects constructed *after* this call get live
/// counter handles.
pub fn force_enable() {
    FORCED.store(true, Ordering::SeqCst);
}

/// Whether counters are live. Checked when instrumented code constructs
/// its handles — never inside a hot loop.
#[must_use]
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || sink_dir().is_some()
}

/// The manifest output directory `BRANCH_LAB_METRICS` names, read once
/// (panics if it is malformed); `None` when metrics are off.
/// [`force_enable`] does not set a sink.
#[must_use]
pub fn sink_dir() -> Option<&'static Path> {
    static SINK: OnceLock<Option<PathBuf>> = OnceLock::new();
    SINK.get_or_init(|| env::METRICS.get().flatten()).as_deref()
}

type Registry = Mutex<BTreeMap<String, &'static AtomicU64>>;

fn counters() -> &'static Registry {
    static CELLS: OnceLock<Registry> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn timers() -> &'static Registry {
    static CELLS: OnceLock<Registry> = OnceLock::new();
    CELLS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn slot(registry: &'static Registry, name: &str) -> &'static AtomicU64 {
    let mut map = registry.lock().expect("metrics registry poisoned");
    if let Some(cell) = map.get(name) {
        return cell;
    }
    // Leak one u64 per distinct name for the life of the process; the
    // set of names is small and fixed, so this is bounded.
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    map.insert(name.to_string(), cell);
    cell
}

/// A handle to a named monotonic counter.
///
/// Copyable and cheap: when metrics are disabled the handle is `None`
/// and [`Counter::add`] compiles to a single predictable branch.
/// Resolve handles at construction time, not in hot loops.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter(Option<&'static AtomicU64>);

impl Counter {
    /// Resolves (creating if needed) the counter named `name`, or a
    /// no-op handle when metrics are disabled.
    #[must_use]
    pub fn get(name: &str) -> Counter {
        if !enabled() {
            return Counter(None);
        }
        Counter(Some(slot(counters(), name)))
    }

    /// A handle that is always a no-op.
    #[must_use]
    pub const fn disabled() -> Counter {
        Counter(None)
    }

    /// Adds `n` to the counter (relaxed; totals only).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value (0 for a disabled handle).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// Accumulates wall time into the named cumulative stage timer when
/// dropped. Obtain via [`stage`] or [`time`].
pub struct StageTimer {
    start: Option<Instant>,
    cell: Option<&'static AtomicU64>,
}

impl StageTimer {
    fn noop() -> StageTimer {
        StageTimer {
            start: None,
            cell: None,
        }
    }
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let (Some(start), Some(cell)) = (self.start, self.cell) {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            cell.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// Starts timing the named stage; elapsed nanoseconds are added to the
/// stage's cumulative timer when the returned guard drops. A no-op
/// (not even a clock read) when metrics are disabled. Concurrent guards
/// for the same stage accumulate their overlapping durations.
#[must_use]
pub fn stage(name: &str) -> StageTimer {
    if !enabled() {
        return StageTimer::noop();
    }
    StageTimer {
        start: Some(Instant::now()),
        cell: Some(slot(timers(), name)),
    }
}

/// Runs `f`, charging its wall time to the named stage timer.
pub fn time<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let _guard = stage(name);
    f()
}

/// All counters with their current values, sorted by name.
#[must_use]
pub fn snapshot_counters() -> Vec<(String, u64)> {
    let map = counters().lock().expect("metrics registry poisoned");
    map.iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// All stage timers with cumulative nanoseconds, sorted by name.
#[must_use]
pub fn snapshot_timers() -> Vec<(String, u64)> {
    let map = timers().lock().expect("metrics registry poisoned");
    map.iter()
        .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
        .collect()
}

/// Zeroes every registered counter and timer (the names stay
/// registered). Intended for tests that need a clean slate.
pub fn reset() {
    for registry in [counters(), timers()] {
        let map = registry.lock().expect("metrics registry poisoned");
        for cell in map.values() {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

/// Number of worker threads the process uses: `BRANCH_LAB_THREADS` (read
/// once; panics if it is malformed), else the machine's available
/// parallelism. The experiment engine sizes itself by this count and run
/// manifests record it, so the two can never disagree.
#[must_use]
pub fn thread_count() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        env::THREADS.get().unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // A chain over the pieces equals one pass over their concatenation.
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), fnv1a(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn mode_parsing() {
        let parse = env::METRICS.parse;
        assert_eq!(parse("0"), Some(None));
        assert_eq!(parse("1"), Some(Some(PathBuf::from("out/metrics"))));
        assert_eq!(parse("/tmp/m"), Some(Some(PathBuf::from("/tmp/m"))));
    }

    #[test]
    fn disabled_handle_is_inert() {
        let c = Counter::disabled();
        c.incr();
        c.add(10);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn counters_accumulate_once_enabled() {
        force_enable();
        let c = Counter::get("test.unit.counter");
        c.add(3);
        c.incr();
        assert_eq!(c.value(), 4);
        let snap = snapshot_counters();
        assert!(snap.contains(&("test.unit.counter".to_string(), 4)));
        // Same name resolves to the same cell.
        let again = Counter::get("test.unit.counter");
        again.incr();
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn timers_record_elapsed() {
        force_enable();
        {
            let _t = stage("test.unit.stage");
            std::hint::black_box(0u64);
        }
        let snap = snapshot_timers();
        let entry = snap.iter().find(|(n, _)| n == "test.unit.stage");
        assert!(entry.is_some());
    }
}
