//! `bp-metrics` — a zero-cost-when-disabled observability layer.
//!
//! Every hot path in branch-lab (TAGE bank lookups, scoreboard flushes,
//! trace-store hits, study fan-out) can report into a process-wide
//! registry of named [`Counter`]s and cumulative stage timers. The whole
//! layer is gated by the `BRANCH_LAB_METRICS` environment variable:
//!
//! | Value | Behaviour |
//! |---|---|
//! | unset, `""`, `0` | Disabled. Counter handles resolve to no-ops; no allocation, no atomics, no registry traffic. |
//! | `1` | Enabled. Run manifests are written to `out/metrics/<run>.json`. |
//! | anything else | Enabled. The value is the manifest output directory. |
//!
//! The design rule that keeps the disabled path cheap: instrumented code
//! resolves a [`Counter`] handle **once, at construction time** (of a
//! predictor, a simulation, a store). When metrics are disabled the
//! handle holds `None` and every `add` is a branch on an immediate —
//! there is no name lookup, no atomic, and no lock anywhere near a hot
//! loop. Measured replay overhead of the disabled path is well under 2%
//! (`cargo bench -p bp-bench --bench metrics_overhead`).
//!
//! Because predictions never depend on a counter value, study outputs
//! are bitwise identical with metrics on or off; manifests go to files,
//! never stdout. Counters use relaxed atomics and every worker does the
//! same total work regardless of `BRANCH_LAB_THREADS`, so counter totals
//! are deterministic across thread counts — only the timing fields vary
//! (see [`manifest::normalize`]).

#![warn(missing_docs)]

pub mod cancel;
pub mod faultpoint;
pub mod json;
pub mod manifest;

pub use manifest::{
    merge_manifests, merge_manifests_with_children, normalize, CounterBaseline, Manifest, RunGuard,
};

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How the metrics layer was configured by `BRANCH_LAB_METRICS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Counters are no-ops; nothing is written.
    Disabled,
    /// Counters are live; manifests are written under `sink` (if any).
    Enabled {
        /// Directory that run manifests are written to.
        sink: Option<PathBuf>,
    },
}

impl Mode {
    /// Parses the raw `BRANCH_LAB_METRICS` value. Pure, for testability:
    /// `None`/`""`/`"0"` disable, `"1"` enables with the default sink,
    /// any other value enables with that value as the sink directory.
    #[must_use]
    pub fn parse(raw: Option<&str>) -> Mode {
        match raw {
            None | Some("" | "0") => Mode::Disabled,
            Some("1") => Mode::Enabled {
                sink: Some(PathBuf::from("out/metrics")),
            },
            Some(dir) => Mode::Enabled {
                sink: Some(PathBuf::from(dir)),
            },
        }
    }
}

fn mode() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| Mode::parse(std::env::var("BRANCH_LAB_METRICS").ok().as_deref()))
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
    FORCED.load(Ordering::Relaxed) || matches!(mode(), Mode::Enabled { .. })
}

/// The manifest output directory, if one was configured via the
/// environment. [`force_enable`] does not set a sink.
#[must_use]
pub fn sink_dir() -> Option<&'static std::path::Path> {
    match mode() {
        Mode::Enabled { sink: Some(dir) } => Some(dir.as_path()),
        _ => None,
    }
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

/// Number of worker threads the process should use: the
/// `BRANCH_LAB_THREADS` env var when set to a positive integer, otherwise
/// the machine's available parallelism. An unparsable override is a
/// misconfiguration, not a request for a serial run: it logs one warning
/// to stderr and falls back to the machine width.
///
/// The experiment engine sizes itself by this count (re-exported as
/// `bp_core::thread_count`) and run manifests record it, so the two can
/// never disagree.
#[must_use]
pub fn thread_count() -> usize {
    let available =
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match std::env::var("BRANCH_LAB_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "branch-lab: BRANCH_LAB_THREADS={v:?} is not a positive integer; \
                         using available parallelism"
                    );
                });
                available()
            }
        },
        Err(_) => available(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(Mode::parse(None), Mode::Disabled);
        assert_eq!(Mode::parse(Some("")), Mode::Disabled);
        assert_eq!(Mode::parse(Some("0")), Mode::Disabled);
        assert_eq!(
            Mode::parse(Some("1")),
            Mode::Enabled {
                sink: Some(PathBuf::from("out/metrics"))
            }
        );
        assert_eq!(
            Mode::parse(Some("/tmp/m")),
            Mode::Enabled {
                sink: Some(PathBuf::from("/tmp/m"))
            }
        );
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
