//! A shared, thread-safe trace library.
//!
//! Every experiment binary needs traces for the same fifteen workloads, and
//! before this module each one re-ran the interpreter from scratch — the
//! dominant cost of the whole experiment suite. [`TraceStore`] memoizes
//! traces behind `Arc`s keyed by `(workload, input, len)` so each trace is
//! generated **exactly once per process**, no matter how many experiments
//! (or threads) request it. With a cache directory configured, traces are
//! also persisted in the existing `BPTR` binary format so they are generated
//! at most once per machine and generator. A file is named
//! `{name}-{digest:016x}-i{input}-l{len}.bptr`, where the digest covers
//! the workload spec and the generator version, so a changed spec or
//! generator never reads an older build's file. Once a generated trace
//! is saved, the files its workload, input and length have under any
//! other digest, or under the older digest-free name, are deleted: nothing
//! reads them again. Files are written with
//! [`bp_metrics::durable::write_atomic`] and damaged ones are moved aside
//! with [`bp_metrics::durable::quarantine`], as serve's result cache does.
//!
//! The per-process singleton is [`TraceStore::global`]; workloads reach it
//! through [`crate::WorkloadSpec::cached_trace`]. Set `BRANCH_LAB_TRACE_DIR`
//! (read through [`bp_metrics::env`]) to enable its on-disk layer.
//!
//! # Memory governor
//!
//! Long multi-study runs accumulate every workload's trace in memory.
//! Setting `BRANCH_LAB_MEM_BUDGET` (bytes, with optional `K`/`M`/`G`
//! suffix) caps the store's resident trace bytes: after each request the
//! least-recently-used entries ([`bp_metrics::durable::Lru`]) are dropped
//! from the memoization map until the store is back under budget (the
//! most recent entry always stays, so the trace in active use is never
//! thrashed). Evicted traces reload from
//! the disk cache — or regenerate — on their next request, and
//! [`TraceStore::stream`] requests served block-wise from disk while a
//! budget is active are counted as degraded streams. Degradation trades
//! throughput for bounded memory; outputs are unaffected.
//!
//! # Per-trace memo
//!
//! Studies and serve sweeps derive the same intermediates from the same
//! traces: flag streams of a predictor configuration, prepared replays,
//! H2P screens, profiles, dependency analyses. [`TraceStore::derive`]
//! memoizes each one under a [`DerivedKey`] — the trace's [`TraceKey`]
//! plus a spelling of everything else the computation reads — with the
//! same exactly-once `OnceLock` slots as traces, so concurrent requests
//! for one key compute it once. A fill that unwinds (a cancelled
//! study) stores nothing, and the next request computes it again.
//! Memoized bytes count against the same `BRANCH_LAB_MEM_BUDGET` as
//! resident traces, in one least-recently-used order, and are evicted
//! by the same governor.

use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use bp_metrics::durable::{self, Lru};
use bp_metrics::{env, Counter};
use bp_trace::{
    BptrReader, ReadTraceError, RetiredInst, SharedReader, Trace, TraceMeta, TraceReader,
};

use crate::program::Program;
use crate::spec::WorkloadSpec;

/// Identity of one trace in the store.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Workload name, e.g. `"641.leela_s"`.
    pub name: String,
    /// Application input index.
    pub input: u32,
    /// Trace length in instructions.
    pub len: usize,
}

impl TraceKey {
    /// Builds a key for `spec` at (`input`, `len`).
    #[must_use]
    pub fn new(spec: &WorkloadSpec, input: u32, len: usize) -> Self {
        TraceKey { name: spec.name.clone(), input, len }
    }

    /// The workload name with path-hostile characters mapped to `_`.
    fn sanitized_name(&self) -> String {
        self.name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '.' || c == '-' { c } else { '_' })
            .collect()
    }

    /// The `-i{input}-l{len}.bptr` tail every file name of this key ends
    /// with.
    fn file_suffix(&self) -> String {
        format!("-i{}-l{}.bptr", self.input, self.len)
    }

    /// File name used by the on-disk layer for the trace of `spec`. It
    /// carries the spec's generator digest, so a file is only ever read
    /// back by the spec and generator that wrote it.
    fn file_name(&self, spec: &WorkloadSpec) -> String {
        format!(
            "{}-{:016x}{}",
            self.sanitized_name(),
            spec.generator_digest(),
            self.file_suffix()
        )
    }

    /// Whether `file` is a name the store wrote this key's trace under
    /// before: the pre-digest `{name}-i{input}-l{len}.bptr`, or
    /// `{name}-{digest}-i{input}-l{len}.bptr` with any 16-hex digest
    /// (the current one included; the caller skips the current file).
    fn is_own_file(&self, file: &str) -> bool {
        let Some(digest) = file
            .strip_prefix(self.sanitized_name().as_str())
            .and_then(|rest| rest.strip_suffix(self.file_suffix().as_str()))
        else {
            return false;
        };
        digest.is_empty()
            || digest.strip_prefix('-').is_some_and(|hex| {
                hex.len() == 16 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
            })
    }
}

/// Deletes the files `dir` holds for `key` under names an older build,
/// spec or generator wrote (see [`TraceKey::is_own_file`]), keeping
/// `current`. Nothing reads them again: the store only opens the current
/// name. Best-effort, like the save: a file that cannot be listed or
/// removed stays.
fn prune_superseded(dir: &Path, key: &TraceKey, current: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let own = entry.file_name().to_str().is_some_and(|name| key.is_own_file(name));
        if own && path != current {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Identity of one intermediate derived from a trace: the trace's key
/// plus a canonical spelling of everything else the computation reads
/// (its kind, predictor, configuration, parameters). Two computations
/// share a key only if they would produce the same value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DerivedKey {
    /// The trace the intermediate is computed from.
    pub trace: TraceKey,
    /// Everything else the computation reads, e.g. `"flags gshare"`.
    pub what: String,
}

impl DerivedKey {
    /// The key of `what` computed from the trace of `spec` at
    /// (`input`, `len`).
    #[must_use]
    pub fn new(spec: &WorkloadSpec, input: u32, len: usize, what: impl Into<String>) -> Self {
        DerivedKey { trace: TraceKey::new(spec, input, len), what: what.into() }
    }
}

/// Cumulative counters exposed for tests and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces produced by running the interpreter.
    pub generated: u64,
    /// Traces satisfied from the on-disk cache.
    pub disk_loads: u64,
    /// Requests satisfied from memory (neither generated nor loaded).
    pub hits: u64,
    /// Cache files found torn, corrupt or in a retired format version,
    /// quarantined as `.corrupt-<n>`, and regenerated.
    pub corrupt: u64,
    /// In-memory entries dropped by the `BRANCH_LAB_MEM_BUDGET` governor.
    pub evicted: u64,
    /// [`TraceStore::stream`] requests served block-wise from disk while
    /// a memory budget was active (streaming degradation instead of
    /// materialization).
    pub degraded_streams: u64,
    /// Memo entries computed and stored by [`TraceStore::derive`].
    pub memo_fills: u64,
    /// Memo requests answered from an entry already stored.
    pub memo_hits: u64,
    /// Memo entries dropped by the `BRANCH_LAB_MEM_BUDGET` governor.
    pub memo_evicted: u64,
}

/// One memoization slot. The `OnceLock` guarantees exactly-once generation
/// per key even when several threads request the same trace concurrently,
/// without holding the store-wide map lock during generation.
type Slot = Arc<OnceLock<Arc<Trace>>>;

/// One memo slot: the type-erased value and its resident byte estimate,
/// filled exactly once like a trace [`Slot`].
type DerivedSlot = Arc<OnceLock<(Arc<dyn Any + Send + Sync>, u64)>>;

/// An entry the memory governor accounts for.
#[derive(Debug, PartialEq, Eq)]
enum Resident {
    Trace(TraceKey),
    Derived(DerivedKey),
}

/// Thread-safe memoizing trace cache with optional `BPTR` persistence.
pub struct TraceStore {
    traces: Mutex<HashMap<TraceKey, Slot>>,
    /// Lowered programs, memoized per workload name: program structure is
    /// input-independent, so all inputs of a workload share one program.
    programs: Mutex<HashMap<String, Arc<Program>>>,
    /// Intermediates derived from traces ([`TraceStore::derive`]).
    derived: Mutex<HashMap<DerivedKey, DerivedSlot>>,
    cache_dir: Option<PathBuf>,
    /// Resident traces and intermediates in least-recently-used order
    /// under the memory budget; `None` (no budget) disables eviction.
    lru: Option<Mutex<Lru<Resident>>>,
    generated: AtomicU64,
    disk_loads: AtomicU64,
    hits: AtomicU64,
    corrupt: AtomicU64,
    evicted: AtomicU64,
    degraded_streams: AtomicU64,
    memo_fills: AtomicU64,
    memo_hits: AtomicU64,
    memo_evicted: AtomicU64,
    /// `bp-metrics` mirrors of the stats above (no-ops unless
    /// `BRANCH_LAB_METRICS` enables the registry).
    m_generated: Counter,
    m_disk_loads: Counter,
    m_hits: Counter,
    m_corrupt: Counter,
    m_evicted: Counter,
    m_degraded: Counter,
    m_memo_fill: Counter,
    m_memo_hit: Counter,
    m_memo_evict: Counter,
}

impl TraceStore {
    /// Creates an in-memory-only store.
    #[must_use]
    pub fn new() -> Self {
        TraceStore {
            traces: Mutex::new(HashMap::new()),
            programs: Mutex::new(HashMap::new()),
            derived: Mutex::new(HashMap::new()),
            cache_dir: None,
            lru: None,
            generated: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            degraded_streams: AtomicU64::new(0),
            memo_fills: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            memo_evicted: AtomicU64::new(0),
            m_generated: Counter::get("trace_store.generate"),
            m_disk_loads: Counter::get("trace_store.disk_load"),
            m_hits: Counter::get("trace_store.hit"),
            m_corrupt: Counter::get("trace_store.corrupt"),
            m_evicted: Counter::get("trace_store.evict"),
            m_degraded: Counter::get("trace_store.degraded_stream"),
            m_memo_fill: Counter::get("trace_store.memo_fill"),
            m_memo_hit: Counter::get("trace_store.memo_hit"),
            m_memo_evict: Counter::get("trace_store.memo_evict"),
        }
    }

    /// Creates a store that additionally persists traces under `dir`
    /// (created on first write if missing).
    #[must_use]
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        let mut s = TraceStore::new();
        s.cache_dir = Some(dir.into());
        s
    }

    /// Caps the store's resident bytes, traces and memoized intermediates
    /// together (the memory governor); least-recently-used entries are
    /// evicted past the cap.
    #[must_use]
    pub fn with_mem_budget(mut self, bytes: u64) -> Self {
        self.lru = Some(Mutex::new(Lru::new(Some(bytes))));
        self
    }

    /// The per-process shared store. Reads [`env::trace_dir`] and
    /// `BRANCH_LAB_MEM_BUDGET` once, at first use (panicking on a
    /// malformed value): when set, the global store persists traces in the
    /// former and bounds resident trace and memo memory to the latter.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let store = env::trace_dir().map_or_else(TraceStore::new, TraceStore::with_cache_dir);
            match env::MEM_BUDGET.get() {
                Some(bytes) => store.with_mem_budget(bytes),
                None => store,
            }
        })
    }

    /// Returns the trace for `spec` at (`input`, `len`), generating it (or
    /// loading it from the cache directory) only if no prior request did.
    ///
    /// # Panics
    ///
    /// Panics if `input >= spec.inputs`, mirroring [`WorkloadSpec::trace`].
    pub fn get(&self, spec: &WorkloadSpec, input: u32, len: usize) -> Arc<Trace> {
        assert!(
            input < spec.inputs,
            "input {input} out of range: {} declares {} inputs",
            spec.name,
            spec.inputs
        );
        let key = TraceKey::new(spec, input, len);
        // Map locks recover from poisoning: the guarded maps are only
        // ever inserted into, so a panicked holder cannot leave them in
        // an inconsistent state, and one dead worker must not wedge every
        // later trace request.
        let slot = {
            let mut map = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key.clone()).or_default())
        };
        let t = match slot.get() {
            Some(t) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.incr();
                Arc::clone(t)
            }
            None => Arc::clone(slot.get_or_init(|| Arc::new(self.load_or_generate(spec, &key)))),
        };
        let bytes = (t.len() * std::mem::size_of::<RetiredInst>()) as u64;
        self.note_use(Resident::Trace(key), bytes);
        t
    }

    /// Returns the intermediate `key` names, calling `compute` only if no
    /// earlier request stored it. `compute` returns the value and an
    /// estimate of its resident bytes, which count against the memory
    /// budget.
    ///
    /// Concurrent requests for one key compute it once; the others wait
    /// for that value. The wait has no cancellation checkpoint, so a
    /// waiter sees its own deadline only once the fill ends. If `compute`
    /// unwinds — a cancelled study stops at a checkpoint — nothing is
    /// stored, the unwind reaches the caller, and the next request
    /// computes the value again.
    ///
    /// # Panics
    ///
    /// Panics if `key` already holds a value of another type than `T`.
    pub fn derive<T, F>(&self, key: DerivedKey, compute: F) -> Arc<T>
    where
        T: Any + Send + Sync,
        F: FnOnce() -> (T, u64),
    {
        let mut compute = Some(compute);
        let mut values = self.derive_many(std::slice::from_ref(&key), |_| {
            vec![compute.take().expect("a single key is computed at most once")()]
        });
        values.pop().expect("one value per key")
    }

    /// [`TraceStore::derive`] for several keys at once: `compute`
    /// receives the indices (into `keys`) of the entries not yet stored
    /// and returns their values in that order, so one pass can fill them
    /// all. Returns one value per key, in order.
    ///
    /// Each key is still filled exactly once: `compute` runs inside the
    /// slot of the first missing key, and its other values fill their
    /// slots only if no concurrent request filled them first.
    ///
    /// # Panics
    ///
    /// Panics if `compute` returns a different number of values than it
    /// was asked for, or if a key holds a value of another type than `T`.
    pub fn derive_many<T, F>(&self, keys: &[DerivedKey], mut compute: F) -> Vec<Arc<T>>
    where
        T: Any + Send + Sync,
        F: FnMut(&[usize]) -> Vec<(T, u64)>,
    {
        let slots: Vec<DerivedSlot> = {
            let mut map = self.derived.lock().unwrap_or_else(PoisonError::into_inner);
            keys.iter().map(|k| Arc::clone(map.entry(k.clone()).or_default())).collect()
        };
        let hits = slots.iter().filter(|slot| slot.get().is_some()).count() as u64;
        self.memo_hits.fetch_add(hits, Ordering::Relaxed);
        self.m_memo_hit.add(hits);
        loop {
            let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].get().is_none()).collect();
            let Some(&first) = missing.first() else { break };
            // No fill waits on another slot while it holds its own, so
            // two requests filling overlapping key sets cannot deadlock.
            let mut rest = Vec::new();
            slots[first].get_or_init(|| {
                let values = compute(&missing);
                assert_eq!(values.len(), missing.len(), "one value per missing key");
                let mut values = values.into_iter();
                let head = values.next().expect("at least one missing key");
                rest = values.collect();
                self.erase_fill(head)
            });
            for (&i, value) in missing[1..].iter().zip(rest) {
                slots[i].get_or_init(|| self.erase_fill(value));
            }
        }
        slots
            .iter()
            .zip(keys)
            .map(|(slot, key)| {
                let (value, bytes) = slot.get().expect("every slot filled above");
                let value = Arc::clone(value);
                self.note_use(Resident::Derived(key.clone()), *bytes);
                value
                    .downcast::<T>()
                    .unwrap_or_else(|_| panic!("memo key {key:?} holds a value of another type"))
            })
            .collect()
    }

    /// Type-erases a freshly computed memo value and counts its fill.
    fn erase_fill<T: Any + Send + Sync>(
        &self,
        (value, bytes): (T, u64),
    ) -> (Arc<dyn Any + Send + Sync>, u64) {
        self.memo_fills.fetch_add(1, Ordering::Relaxed);
        self.m_memo_fill.incr();
        (Arc::new(value), bytes)
    }

    /// Records that `entry` (of `bytes` resident bytes) is resident and
    /// was just used; under a memory budget, evicts the coldest entries,
    /// traces and memo entries alike, until the store fits. The entry
    /// just used is never evicted, so the trace or intermediate in active
    /// use cannot thrash even when it alone exceeds the budget.
    fn note_use(&self, entry: Resident, bytes: u64) {
        let Some(lru) = &self.lru else { return };
        let cold = lru.lock().unwrap_or_else(PoisonError::into_inner).note_use(entry, bytes);
        // Dropping a slot releases the store's Arc; callers already
        // holding the value keep it alive until they finish. The next
        // request reloads a trace from disk (or regenerates it) and
        // computes an intermediate again.
        for e in cold {
            match e {
                Resident::Trace(k) => {
                    self.traces.lock().unwrap_or_else(PoisonError::into_inner).remove(&k);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    self.m_evicted.incr();
                }
                Resident::Derived(k) => {
                    self.derived.lock().unwrap_or_else(PoisonError::into_inner).remove(&k);
                    self.memo_evicted.fetch_add(1, Ordering::Relaxed);
                    self.m_memo_evict.incr();
                }
            }
        }
    }

    fn load_or_generate(&self, spec: &WorkloadSpec, key: &TraceKey) -> Trace {
        let path = self.cache_dir.as_ref().map(|dir| dir.join(key.file_name(spec)));
        if let Some(path) = &path {
            match bp_metrics::time("trace_store.disk_load", || load_valid(path, key)) {
                DiskRead::Valid(t) => {
                    self.disk_loads.fetch_add(1, Ordering::Relaxed);
                    self.m_disk_loads.incr();
                    return t;
                }
                DiskRead::Corrupt(reason) => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.m_corrupt.incr();
                    durable::quarantine(path);
                    eprintln!(
                        "branch-lab: quarantined corrupt trace cache file {} ({reason}); regenerating",
                        path.display()
                    );
                }
                DiskRead::Missing => {}
            }
        }
        let program = self.program(spec);
        let trace = bp_metrics::time("trace_store.generate", || {
            spec.trace_with(&program, key.input, key.len)
        });
        self.generated.fetch_add(1, Ordering::Relaxed);
        self.m_generated.incr();
        if let (Some(dir), Some(path)) = (&self.cache_dir, &path) {
            // Persistence is best-effort: a full disk or read-only cache
            // directory must not fail the experiment. The fault site lets
            // tests exercise exactly that degradation.
            let persist_ok = !bp_metrics::faultpoint::should_fail("trace_store.save")
                && std::fs::create_dir_all(dir).is_ok();
            if persist_ok && durable::write_atomic(path, |w| trace.write_to(w)).is_ok() {
                prune_superseded(dir, key, path);
            }
        }
        trace
    }

    /// Returns the lowered program for `spec`, building it at most once per
    /// workload name.
    pub fn program(&self, spec: &WorkloadSpec) -> Arc<Program> {
        let mut map = self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(spec.name.clone()).or_insert_with(|| Arc::new(spec.program())),
        )
    }

    /// Returns a streaming reader over the trace for `spec` at
    /// (`input`, `len`) without requiring it in memory.
    ///
    /// When the on-disk cache holds a matching file, records stream
    /// block-by-block from disk — peak memory stays bounded by one codec
    /// block no matter how long the trace is. Otherwise the trace is
    /// obtained via [`TraceStore::get`] (generating and persisting it as
    /// usual) and streamed from memory. Corruption in a disk-streamed
    /// file surfaces as a [`ReadTraceError`] from the reader's
    /// `next_chunk`, exactly like reading the file directly.
    ///
    /// # Panics
    ///
    /// Panics if `input >= spec.inputs`, mirroring [`TraceStore::get`].
    pub fn stream(&self, spec: &WorkloadSpec, input: u32, len: usize) -> StoreReader {
        let key = TraceKey::new(spec, input, len);
        // Already resident? Share it — no disk I/O, no second copy.
        let resident = {
            let map = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            map.get(&key).and_then(|slot| slot.get().cloned())
        };
        if let Some(t) = resident {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.m_hits.incr();
            return StoreReader::Mem(SharedReader::new(t));
        }
        if let Some(dir) = &self.cache_dir {
            let path = dir.join(key.file_name(spec));
            if !bp_metrics::faultpoint::should_fail("trace_store.load") {
                if let Ok(r) = Trace::open(&path) {
                    let meta = r.meta();
                    if meta.name == key.name
                        && meta.input == key.input
                        && r.len_hint() == Some(key.len as u64)
                    {
                        self.disk_loads.fetch_add(1, Ordering::Relaxed);
                        self.m_disk_loads.incr();
                        if self.lru.is_some() {
                            // Streaming degradation: under a memory
                            // budget this block-wise read replaces a
                            // would-be materialization.
                            self.degraded_streams.fetch_add(1, Ordering::Relaxed);
                            self.m_degraded.incr();
                        }
                        return StoreReader::Disk(Box::new(r));
                    }
                }
            }
            // Missing, unreadable, or wrong identity: fall through to the
            // materializing path, which quarantines/regenerates properly.
        }
        StoreReader::Mem(SharedReader::new(self.get(spec, input, len)))
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            generated: self.generated.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            degraded_streams: self.degraded_streams.load(Ordering::Relaxed),
            memo_fills: self.memo_fills.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_evicted: self.memo_evicted.load(Ordering::Relaxed),
        }
    }
}

/// A [`TraceReader`] handed out by [`TraceStore::stream`]: block-wise
/// disk decode when the cache holds the trace, shared memory otherwise.
pub enum StoreReader {
    /// Streaming straight from the on-disk cache file.
    Disk(Box<BptrReader<std::io::BufReader<std::fs::File>>>),
    /// Streaming a memoized in-memory trace.
    Mem(SharedReader),
}

impl TraceReader for StoreReader {
    fn meta(&self) -> &TraceMeta {
        match self {
            StoreReader::Disk(r) => r.meta(),
            StoreReader::Mem(r) => r.meta(),
        }
    }

    fn len_hint(&self) -> Option<u64> {
        match self {
            StoreReader::Disk(r) => r.len_hint(),
            StoreReader::Mem(r) => r.len_hint(),
        }
    }

    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        match self {
            StoreReader::Disk(r) => r.next_chunk(),
            StoreReader::Mem(r) => r.next_chunk(),
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

/// Outcome of probing the on-disk cache for one key.
enum DiskRead {
    /// A complete, checksum-verified trace matching the key.
    Valid(Trace),
    /// No cache file (the ordinary cold-cache case).
    Missing,
    /// A file exists but is torn, corrupt, in a version other than v4, or
    /// carries the wrong identity; it must be quarantined and the trace
    /// regenerated.
    Corrupt(String),
}

/// Loads `path` and validates it against `key`.
///
/// The `trace_store.load` fault site simulates a corrupt read without a
/// corrupt file, so degradation tests don't have to produce real torn
/// writes.
fn load_valid(path: &Path, key: &TraceKey) -> DiskRead {
    if bp_metrics::faultpoint::should_fail("trace_store.load") {
        return DiskRead::Corrupt("injected fault: trace_store.load".to_string());
    }
    let mut reader = match Trace::open(path) {
        Ok(r) => r,
        Err(ReadTraceError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            return DiskRead::Missing;
        }
        // Anything else — truncation (unexpected EOF), bad magic, a
        // retired or unknown format version, bad field encodings,
        // checksum mismatch — is a cache entry to quarantine.
        Err(e) => return DiskRead::Corrupt(e.to_string()),
    };
    // Reject a wrong-identity header before decoding a single record.
    if reader.meta().name != key.name || reader.meta().input != key.input {
        return DiskRead::Corrupt(format!(
            "cache identity mismatch: file holds {}/i{}, key wants {}/i{}",
            reader.meta().name,
            reader.meta().input,
            key.name,
            key.input
        ));
    }
    let mut t = Trace::with_capacity(reader.meta().clone(), key.len.min(1 << 20));
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => t.extend(chunk.iter().copied()),
            Ok(None) => break,
            Err(e) => return DiskRead::Corrupt(e.to_string()),
        }
        if t.len() > key.len {
            break; // Longer than the key says: identity mismatch below.
        }
    }
    if t.len() == key.len {
        DiskRead::Valid(t)
    } else {
        DiskRead::Corrupt(format!(
            "cache length mismatch: file holds {} records, key wants {}",
            t.len(),
            key.len
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::specint_suite;

    fn spec() -> WorkloadSpec {
        specint_suite()[0].clone()
    }

    #[test]
    fn repeated_gets_generate_once() {
        let store = TraceStore::new();
        let s = spec();
        let a = store.get(&s, 0, 2_000);
        let b = store.get(&s, 0, 2_000);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!(stats.generated, 1);
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn distinct_keys_are_distinct_traces() {
        let store = TraceStore::new();
        let s = spec();
        let a = store.get(&s, 0, 1_000);
        let b = store.get(&s, 1, 1_000);
        let c = store.get(&s, 0, 2_000);
        assert_ne!(a.insts(), b.insts());
        assert_ne!(a.len(), c.len());
        assert_eq!(store.stats().generated, 3);
    }

    #[test]
    fn store_matches_direct_generation() {
        let store = TraceStore::new();
        let s = spec();
        let cached = store.get(&s, 1, 3_000);
        let direct = s.trace(1, 3_000);
        assert_eq!(cached.insts(), direct.insts());
        assert_eq!(cached.meta(), direct.meta());
    }

    #[test]
    fn concurrent_gets_generate_once() {
        let store = TraceStore::new();
        let s = spec();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| store.get(&s, 0, 2_000));
            }
        });
        assert_eq!(store.stats().generated, 1);
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bp_store_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn stream_serves_from_disk_without_materializing() {
        let dir = scratch_dir("stream");
        let s = spec();
        let good = TraceStore::with_cache_dir(&dir).get(&s, 0, 2_000);

        // A fresh store: the trace is on disk but not in memory, so the
        // stream must come straight from the cache file.
        let store = TraceStore::with_cache_dir(&dir);
        let mut r = store.stream(&s, 0, 2_000);
        assert!(matches!(r, StoreReader::Disk(_)));
        assert_eq!(r.len_hint(), Some(2_000));
        let mut streamed = Vec::new();
        while let Some(chunk) = r.next_chunk().expect("stream") {
            streamed.extend_from_slice(chunk);
        }
        assert_eq!(streamed, good.insts());
        assert_eq!(store.stats().disk_loads, 1);
        assert_eq!(store.stats().generated, 0);

        // Once resident in memory, streaming shares rather than re-reads.
        let _ = store.get(&s, 0, 2_000);
        let r = store.stream(&s, 0, 2_000);
        assert!(matches!(r, StoreReader::Mem(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_without_cache_dir_generates_and_shares() {
        let store = TraceStore::new();
        let s = spec();
        let mut r = store.stream(&s, 1, 1_500);
        assert!(matches!(r, StoreReader::Mem(_)));
        let chunk = r.next_chunk().expect("chunk").expect("records").to_vec();
        assert_eq!(chunk.len(), 1_500);
        assert_eq!(chunk, store.get(&s, 1, 1_500).insts());
        assert_eq!(store.stats().generated, 1);
    }

    #[test]
    fn programs_are_shared() {
        let store = TraceStore::new();
        let s = spec();
        let a = store.program(&s);
        let b = store.program(&s);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn mem_budget_evicts_cold_entries_but_never_the_current_one() {
        // Each 2000-inst trace is ~2000 × size_of::<RetiredInst>() bytes;
        // budget one-and-a-half traces so a second resident always evicts
        // the first.
        let one = (2_000 * std::mem::size_of::<RetiredInst>()) as u64;
        let store = TraceStore::new().with_mem_budget(one * 3 / 2);
        let s = spec();
        let a = store.get(&s, 0, 2_000);
        assert_eq!(store.stats().evicted, 0);
        let _b = store.get(&s, 1, 2_000); // over budget: input 0 evicted
        assert_eq!(store.stats().evicted, 1);
        // Caller-held Arcs survive eviction.
        assert_eq!(a.len(), 2_000);
        // Re-requesting input 0 regenerates (no cache dir) and in turn
        // evicts input 1.
        let _a2 = store.get(&s, 0, 2_000);
        let stats = store.stats();
        assert_eq!(stats.generated, 3, "{stats:?}");
        assert_eq!(stats.evicted, 2, "{stats:?}");

        // A budget smaller than a single trace keeps exactly the entry
        // in use: repeated gets of the *same* key still hit.
        let tiny = TraceStore::new().with_mem_budget(8);
        let x = tiny.get(&s, 0, 1_000);
        let y = tiny.get(&s, 0, 1_000);
        assert!(Arc::ptr_eq(&x, &y));
        assert_eq!(tiny.stats().evicted, 0);
    }

    fn memo_key(what: &str) -> DerivedKey {
        DerivedKey::new(&spec(), 0, 1_000, what)
    }

    #[test]
    fn concurrent_derives_compute_a_key_once() {
        let store = TraceStore::new();
        let computed = AtomicU64::new(0);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        store.derive(memo_key("answer"), || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            (42u64, 8)
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("worker")).collect()
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0]) && **v == 42));
        assert_eq!(store.stats().memo_fills, 1, "{:?}", store.stats());
    }

    #[test]
    fn derive_many_computes_only_the_missing_keys_in_one_call() {
        let store = TraceStore::new();
        let a = store.derive(memo_key("a"), || (String::from("a"), 1));
        let keys = [memo_key("a"), memo_key("b"), memo_key("c")];
        let mut asked = Vec::new();
        let got = store.derive_many(&keys, |missing| {
            asked.push(missing.to_vec());
            missing.iter().map(|&i| (keys[i].what.clone(), 1)).collect()
        });
        assert_eq!(asked, vec![vec![1, 2]]);
        assert!(Arc::ptr_eq(&got[0], &a));
        assert_eq!([&*got[1], &*got[2]], ["b", "c"]);
        // Everything is stored now: a repeat computes nothing.
        let again = store.derive_many(&keys, |_| -> Vec<(String, u64)> {
            unreachable!("all keys are stored")
        });
        assert!(again.iter().zip(&got).all(|(x, y)| Arc::ptr_eq(x, y)));
        let stats = store.stats();
        assert_eq!((stats.memo_fills, stats.memo_hits), (3, 4), "{stats:?}");
    }

    #[test]
    fn a_cancelled_fill_stores_nothing() {
        use bp_metrics::cancel::{self, CancelToken, Cancelled};
        let store = TraceStore::new();
        let token = CancelToken::new();
        token.cancel("unit test");
        let stopped = {
            let _scope = cancel::set_scope(token);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.derive(memo_key("stopped"), || {
                    cancel::checkpoint("memo.fill");
                    (1u64, 8)
                })
            }))
        };
        let payload = stopped.expect_err("the fill must unwind");
        assert!(payload.downcast_ref::<Cancelled>().is_some());
        assert_eq!(store.stats().memo_fills, 0);
        // The next request computes the value afresh.
        let v = store.derive(memo_key("stopped"), || (7u64, 8));
        assert_eq!(*v, 7);
        assert_eq!(store.stats().memo_fills, 1);
    }

    #[test]
    fn memo_entries_share_the_budget_with_traces() {
        // Room for one trace plus a few small entries: a trace-sized
        // intermediate pushes the trace out, and small entries age out
        // in least-recently-used order.
        let one = (1_000 * std::mem::size_of::<RetiredInst>()) as u64;
        let store = TraceStore::new().with_mem_budget(one + 16);
        let s = spec();
        let _t = store.get(&s, 0, 1_000);
        let small = |what: &str| *store.derive(memo_key(what), || (what.len() as u64, 8));
        assert_eq!((small("x"), small("yy")), (1, 2));
        assert_eq!(store.stats().evicted + store.stats().memo_evicted, 0);
        let big = store.derive(memo_key("big"), || (vec![0u8; 1_000], one));
        assert_eq!(big.len(), 1_000);
        assert_eq!((store.stats().evicted, store.stats().memo_evicted), (1, 0));
        // One more small entry: the coldest intermediate goes.
        assert_eq!(small("zzz"), 3);
        let stats = store.stats();
        assert_eq!((stats.evicted, stats.memo_evicted), (1, 1), "{stats:?}");
        // An evicted intermediate is computed again, to the same value.
        let fills = stats.memo_fills;
        assert_eq!(small("x"), 1);
        assert_eq!(store.stats().memo_fills, fills + 1);
        // A budget smaller than one entry keeps the entry in use.
        let tiny = TraceStore::new().with_mem_budget(1);
        let a = tiny.derive(memo_key("a"), || (1u8, 64));
        let b = tiny.derive(memo_key("a"), || (2u8, 64));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(tiny.stats().memo_evicted, 0);
    }

    #[test]
    fn budgeted_disk_streams_count_as_degraded() {
        let dir = scratch_dir("degraded");
        let s = spec();
        let _seed = TraceStore::with_cache_dir(&dir).get(&s, 0, 2_000);

        let store = TraceStore::with_cache_dir(&dir).with_mem_budget(1 << 20);
        let r = store.stream(&s, 0, 2_000);
        assert!(matches!(r, StoreReader::Disk(_)));
        assert_eq!(store.stats().degraded_streams, 1);

        // Without a budget the same disk stream is not "degraded".
        let plain = TraceStore::with_cache_dir(&dir);
        let r = plain.stream(&s, 0, 2_000);
        assert!(matches!(r, StoreReader::Disk(_)));
        assert_eq!(plain.stats().degraded_streams, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
