//! Single-pass multi-configuration replay: [`SweepReplay`].
//!
//! Every IPC study in `bp-core` replays the *same* trace under many
//! predictor or pipeline configurations — the Fig. 7 storage sweep alone
//! simulates each workload 48 times, and the heterogeneous grid study
//! replays 16 different predictors at 6 scalings. [`simulate`](crate::simulate)
//! re-decodes the trace on every call: it re-walks 64-byte
//! [`RetiredInst`](bp_trace::RetiredInst) records, re-runs the cache
//! model, and re-resolves store→load forwarding through a hash map, even
//! though none of that depends on the misprediction flags.
//!
//! [`SweepReplay`] splits the work into a *prepare* pass and cheap
//! *replay* passes:
//!
//! * **Prepare** (once per trace + cache config): decode each record into
//!   a compact 12-byte form — register slots with sentinel encoding (no
//!   `Option` tests in the replay loop), the exact execution latency
//!   (cache model pre-run; load latencies are timing-independent because
//!   the model is accessed in program order), and the store→load
//!   forwarding *link* (the ordinal of the latest earlier store to the
//!   same address — the one `AddrMap` lookup the scalar loop performs).
//!   One walk does this for every caller: [`SweepReplay::prepare`] is the
//!   whole-stream range `(0, u64::MAX)` of the warmed range preparer that
//!   sampled replay uses for its segments.
//! * **Replay** ([`SweepReplay::simulate_many`]): iterate the prepared
//!   records once while stepping up to 16 lanes in lockstep, each lane
//!   one (pipeline config, misprediction stream) cell of the sweep with
//!   its own fetch width, ROB size, retire width and refill penalty. All
//!   per-lane state (register scoreboard, rings, store ready cycles) is
//!   stored as [`LaneVec`](crate::lanes::LaneVec) lane vectors, so the
//!   inner loop is straight-line `max`/`add` lane arithmetic that the
//!   compiler auto-vectorizes. The timestamp word `C`
//!   is `u32` whenever a prepare-time bound proves no timestamp can
//!   overflow it (true for any realistically-sized trace), halving
//!   lane-state memory traffic; `u64` remains as the exact fallback.
//!   The loop is compiled twice from one source: for the build's
//!   baseline target, and as an AVX2 copy that replay picks at run time
//!   on a CPU that has AVX2 (`SweepReplay::replay_chunk`).
//!
//! A sweep's cells are laid out config-major (every stream at the first
//! config, then every stream at the next) and replayed 16 at a time; a
//! ragged tail pads to 4, 8 or 16 lanes, whichever is narrowest, so 4
//! predictors × 3 scales is one padded 16-lane pass and 27 cells are
//! 16 + 11 padded to 16. The loop costs about the same per record at 4
//! and 8 lanes, and 1 and 2 lanes cost more than 4, so there are no 1-
//! or 2-lane chunks: a single stream is a padded 4-lane chunk. Padding
//! lanes get no mispredictions and count nowhere. Lanes of different
//! configs read each ring at their own lag: a read takes one ring row
//! per 256-bit segment of the chunk at its first lane's lag and, only
//! where a segment mixes configs, one more row per further lag, blended
//! in under the lanes at that lag; each ring is sized for the chunk's
//! largest lag. Every
//! chunk transposes its own flag streams into a fresh mask vector, so a
//! ragged tail never runs against a stale mask
//! (`lane_chunks_pad_to_4_8_or_16` is unit-tested for every count).
//!
//! Replay is **bit-identical** to the scalar loop: every lane performs the
//! same integer arithmetic in the same order as one
//! [`simulate`](crate::simulate) call at its cell's config, and the
//! `bp-metrics` pipeline counters advance exactly as if each cell had
//! been its own scalar run (one `pipeline.sim_runs` per cell, summed
//! cycle/flush/bubble totals, nothing for padding lanes).
//! The in-crate sweep tests, `tests/lane_properties.rs` and
//! `tests/lane_counters.rs` in this crate, `tests/differential.rs` at
//! the workspace root, and the unchanged golden fixtures lock this in.

use bp_trace::{InstClass, ReadTraceError, RetiredInst, Trace, TraceReader, NUM_REGS};

use crate::cache::{CacheConfig, CacheModel};
use crate::config::PipelineConfig;
use crate::lanes::{CycleWord, LaneVec};
use crate::scoreboard::{exec_latency, AddrMap, PipeCounters, SimStats};

/// Source-register slot that always reads 0 (encodes `src: None`).
const ZERO_SLOT: u8 = NUM_REGS as u8;
/// Destination-register slot whose writes are never read (`dst: None`).
const DUMP_SLOT: u8 = NUM_REGS as u8 + 1;
/// Total register slots per lane: the architectural file plus sentinels,
/// padded to a power of two so slot indices can be masked instead of
/// bounds-checked in the replay loop (valid slots are `< NUM_REGS + 2`,
/// so the mask never changes an in-range index).
const REG_SLOTS: usize = (NUM_REGS + 2).next_power_of_two();

/// `PreparedInst::kind` bit: load with an earlier store to its address.
const KIND_LOAD_FWD: u8 = 1;
/// `PreparedInst::kind` bit: store some later load forwards from (records
/// its ready cycle). Stores nothing ever reads don't set the bit — the
/// replay loop skips their lane-vector bookkeeping entirely.
const KIND_STORE: u8 = 2;
/// `PreparedInst::kind` bit: conditional branch (consumes one flag).
const KIND_BRANCH: u8 = 4;

/// One trace record, pre-decoded for the replay loop.
#[derive(Clone, Copy)]
struct PreparedInst {
    /// First source slot (`ZERO_SLOT` when absent).
    src1: u8,
    /// Second source slot (`ZERO_SLOT` when absent).
    src2: u8,
    /// Destination slot (`DUMP_SLOT` when absent).
    dst: u8,
    /// `KIND_*` bit set; 0 for plain ALU-like records.
    kind: u8,
    /// Execution latency in cycles (cache model already applied).
    latency: u32,
    /// Store ordinal: own ordinal for stores, forwarding source for
    /// `KIND_LOAD_FWD` loads, unused otherwise.
    link: u32,
}

/// A trace prepared for single-pass multi-configuration replay.
///
/// Construction runs the config-independent part of the timing model once
/// (trace decode, cache latencies, store→load forwarding links);
/// [`SweepReplay::simulate`] / [`SweepReplay::simulate_many`] then replay
/// misprediction-flag streams against it at any pipeline scaling built
/// from the same base configuration.
///
/// # Examples
///
/// ```
/// use bp_pipeline::{simulate, PipelineConfig, SweepReplay};
/// use bp_predictors::{misprediction_flags, AlwaysTaken, TageScL};
/// use bp_workloads::specint_suite;
///
/// let trace = specint_suite()[1].trace(0, 20_000);
/// let cfg = PipelineConfig::skylake();
/// let tage = misprediction_flags(&mut TageScL::kb8(), &trace);
/// let naive = misprediction_flags(&mut AlwaysTaken, &trace);
///
/// let sweep = SweepReplay::new(&trace, &cfg);
/// let scales = [cfg.scaled(1), cfg.scaled(8)];
/// // Four cells, two predictors at two scales: one padded 4-lane pass.
/// let stats = sweep.simulate_many(&[&tage, &naive], &scales);
/// // `stats[scale][stream]`, bit-identical to four scalar replays.
/// assert_eq!(stats[0][0], simulate(&trace, &tage, &cfg));
/// assert_eq!(stats[0][1], simulate(&trace, &naive, &cfg));
/// assert_eq!(stats[1][0], simulate(&trace, &tage, &cfg.scaled(8)));
/// assert_eq!(stats[1][1], simulate(&trace, &naive, &cfg.scaled(8)));
/// ```
pub struct SweepReplay {
    insts: Vec<PreparedInst>,
    cond_branches: usize,
    store_slots: usize,
    /// L2/DRAM bandwidth floor of the access stream (config-independent
    /// across pipeline scalings, so computed once here).
    floor_cycles: u64,
    /// Sum of all execution latencies — one term of the timestamp upper
    /// bound that licenses the 32-bit replay lanes.
    latency_sum: u64,
    cache: CacheConfig,
    mul_latency: u32,
}

/// Compact store bookkeeping to the stores some load forwards from: only
/// their ready cycles are ever read back, so the rest drop their
/// `KIND_STORE` bit (and lane-vector write) outright. Returns the number
/// of store slots the replay loop must track.
fn compact_store_links(insts: &mut [PreparedInst], stores: u32) -> u32 {
    let mut remap = vec![u32::MAX; stores as usize];
    for inst in insts.iter() {
        if inst.kind & KIND_LOAD_FWD != 0 {
            remap[inst.link as usize] = 0;
        }
    }
    let mut forwarded = 0u32;
    for slot in &mut remap {
        if *slot == 0 {
            *slot = forwarded;
            forwarded += 1;
        }
    }
    for inst in insts.iter_mut() {
        if inst.kind & KIND_LOAD_FWD != 0 {
            inst.link = remap[inst.link as usize];
        } else if inst.kind & KIND_STORE != 0 {
            match remap[inst.link as usize] {
                u32::MAX => inst.kind &= !KIND_STORE,
                new => inst.link = new,
            }
        }
    }
    forwarded
}

/// One record range being collected by a [`RangePreparer`].
struct RangeAcc {
    insts: Vec<PreparedInst>,
    /// Global store ordinal when the range began (links below it point
    /// at stores outside the range and are dropped) and after its last
    /// record.
    stores_before: u64,
    stores_after: u64,
    started: bool,
    /// `(l2 hits, memory accesses)` cache counters at range entry/exit,
    /// for the per-range bandwidth floor.
    cache_before: (u64, u64),
    cache_after: (u64, u64),
    latency_sum: u64,
    cond_branches: usize,
}

/// The end of the run of records starting at `start`: the first range
/// boundary after it, capped at `end`. The same `ranges` (each
/// `[lo, hi)`) contain every record of the run, so a stream walked run
/// by run tests the ranges once per run instead of once per record.
pub(crate) fn run_end(ranges: &[(u64, u64)], start: u64, end: u64) -> u64 {
    ranges
        .iter()
        .flat_map(|&(lo, hi)| [lo, hi])
        .filter(|&b| b > start)
        .fold(end, u64::min)
}

/// Fills `active` with the indices of the `ranges` containing record
/// `idx`.
pub(crate) fn ranges_at(ranges: &[(u64, u64)], idx: u64, active: &mut Vec<usize>) {
    active.clear();
    active.extend(
        ranges
            .iter()
            .enumerate()
            .filter(|&(_, &(lo, hi))| lo <= idx && idx < hi)
            .map(|(i, _)| i),
    );
}

/// Multi-range preparation with *functionally warmed*
/// microarchitectural state — the one walk that encodes records into
/// [`PreparedInst`]s.
///
/// The preparer runs one cache model and one forwarding map continuously
/// over the *entire* stream — feeding every record — while emitting
/// prepared instructions only for the requested record ranges.
/// [`SweepReplay::prepare`] asks for the single whole-stream range
/// `(0, u64::MAX)`. Sampled replay ([`crate::SampledReplay`]) asks for
/// each segment and its warm-up prefix: a mid-trace excerpt prepared
/// cold would see its first thousands of loads miss a cache the full
/// replay has long since warmed, so warming keeps a representative
/// interval's load latencies the ones the full replay would have seen.
///
/// Ranges may overlap (a warm-up prefix sharing records with a
/// neighbouring interval); each range accounts independently. A load
/// whose forwarding store precedes the range keeps its cache latency but
/// drops the forwarding link — the store's ready cycle does not exist
/// inside the excerpt.
pub(crate) struct RangePreparer {
    cache: CacheModel,
    last_store: AddrMap,
    stores: u64,
    offset: u64,
    ranges: Vec<(u64, u64)>,
    accs: Vec<RangeAcc>,
    /// Indices of the ranges containing the current run of records.
    active: Vec<usize>,
    cache_config: CacheConfig,
    mul_latency: u32,
}

impl RangePreparer {
    /// Streams all of `reader` through a preparer collecting `ranges`
    /// (each `[lo, hi)` in record coordinates) under `config`'s cache
    /// hierarchy and multiply latency, polling cancellation at `site`
    /// once per chunk, so a cancelled prepare stops within one streamed
    /// block. Returns one [`SweepReplay`] per range, in order — a range
    /// the stream never reached yields an empty replay — and the number
    /// of records read.
    pub(crate) fn run<R: TraceReader>(
        mut reader: R,
        config: &PipelineConfig,
        ranges: &[(u64, u64)],
        site: &str,
    ) -> Result<(Vec<SweepReplay>, u64), ReadTraceError> {
        // The hint may come from an untrusted file header: it seeds each
        // range's capacity (so a whole trace prepares without growing its
        // buffer) but is never trusted with a huge allocation.
        let hint = reader.len_hint().map_or(0, |n| n.min(1 << 20));
        let mut preparer = RangePreparer {
            cache: CacheModel::new(config.cache.clone()),
            // Starts small: store-free traces then cost one 16KB table,
            // and pre-sizing from the length hint measured slower.
            last_store: AddrMap::with_capacity(1024),
            stores: 0,
            offset: 0,
            ranges: ranges.to_vec(),
            accs: ranges
                .iter()
                .map(|&(lo, hi)| RangeAcc {
                    insts: Vec::with_capacity(hi.min(hint).saturating_sub(lo) as usize),
                    stores_before: 0,
                    stores_after: 0,
                    started: false,
                    cache_before: (0, 0),
                    cache_after: (0, 0),
                    latency_sum: 0,
                    cond_branches: 0,
                })
                .collect(),
            active: Vec::with_capacity(ranges.len()),
            cache_config: config.cache.clone(),
            mul_latency: config.mul_latency,
        };
        while let Some(chunk) = reader.next_chunk()? {
            bp_metrics::cancel::checkpoint(site);
            preparer.feed(chunk);
        }
        let records = preparer.offset;
        Ok((preparer.finish(), records))
    }

    /// Feeds the next records of the stream, in order. Every record
    /// advances the warmed cache/forwarding state; records inside a
    /// range are additionally prepared into it. The chunk is walked in
    /// runs between range boundaries, so records outside every range pay
    /// only the warming.
    fn feed(&mut self, chunk: &[RetiredInst]) {
        let first = self.offset;
        let end = first + chunk.len() as u64;
        while self.offset < end {
            let start = self.offset;
            let stop = run_end(&self.ranges, start, end);
            ranges_at(&self.ranges, start, &mut self.active);
            let run = &chunk[(start - first) as usize..(stop - first) as usize];
            if self.active.is_empty() {
                for inst in run {
                    self.warm(inst);
                }
            } else {
                self.prepare_run(run);
            }
            self.offset = stop;
        }
    }

    /// Advances the cache model and forwarding map over one record.
    /// Returns its latency, the ordinal of the store a load forwards
    /// from, and a store's own ordinal.
    #[inline]
    fn warm(&mut self, inst: &RetiredInst) -> (u32, Option<u64>, Option<u64>) {
        let latency = exec_latency(inst, &mut self.cache, self.mul_latency);
        match inst.class {
            InstClass::Load => (latency, self.last_store.get(inst.mem_addr), None),
            InstClass::Store => {
                let ord = self.stores;
                self.last_store.insert(inst.mem_addr, ord);
                self.stores += 1;
                (latency, None, Some(ord))
            }
            _ => (latency, None, None),
        }
    }

    /// `(l2 hits, memory accesses)` of the warmed cache model so far.
    fn cache_counts(&self) -> (u64, u64) {
        let (_, l2, mem) = self.cache.stats();
        (l2, mem)
    }

    /// Warms over `run`, a run of records inside every `active` range,
    /// and prepares each record into each of those ranges.
    fn prepare_run(&mut self, run: &[RetiredInst]) {
        let counts = self.cache_counts();
        for &a in &self.active {
            let acc = &mut self.accs[a];
            if !acc.started {
                acc.started = true;
                acc.stores_before = self.stores;
                acc.cache_before = counts;
            }
        }
        for inst in run {
            let (latency, fwd_store, store_ord) = self.warm(inst);
            let cond = inst.is_conditional_branch();
            for &a in &self.active {
                let acc = &mut self.accs[a];
                let mut kind = 0u8;
                let mut link = u32::MAX;
                if let Some(g) = fwd_store {
                    if g >= acc.stores_before {
                        kind |= KIND_LOAD_FWD;
                        link = (g - acc.stores_before) as u32;
                    }
                }
                if let Some(g) = store_ord {
                    kind |= KIND_STORE;
                    link = (g - acc.stores_before) as u32;
                }
                if cond {
                    kind |= KIND_BRANCH;
                    acc.cond_branches += 1;
                }
                acc.latency_sum += u64::from(latency);
                acc.insts.push(PreparedInst {
                    src1: inst.src1.map_or(ZERO_SLOT, |r| r.index() as u8),
                    src2: inst.src2.map_or(ZERO_SLOT, |r| r.index() as u8),
                    dst: inst.dst.map_or(DUMP_SLOT, |r| r.index() as u8),
                    kind,
                    latency,
                    link,
                });
            }
        }
        let counts = self.cache_counts();
        for &a in &self.active {
            self.accs[a].cache_after = counts;
            self.accs[a].stores_after = self.stores;
        }
    }

    /// Finishes the pass: one [`SweepReplay`] per requested range, in
    /// order.
    fn finish(self) -> Vec<SweepReplay> {
        let cache_config = self.cache_config;
        let mul_latency = self.mul_latency;
        self.accs
            .into_iter()
            .map(|mut acc| {
                let stores = (acc.stores_after - acc.stores_before) as u32;
                let forwarded = compact_store_links(&mut acc.insts, stores);
                // Per-range bandwidth floor from the cache-counter deltas
                // this range's accesses produced.
                let l2_accesses =
                    (acc.cache_after.0 + acc.cache_after.1) - (acc.cache_before.0 + acc.cache_before.1);
                let misses = acc.cache_after.1 - acc.cache_before.1;
                let floor_cycles = cache_config.bandwidth_floor(l2_accesses, misses);
                SweepReplay {
                    insts: acc.insts,
                    cond_branches: acc.cond_branches,
                    store_slots: forwarded as usize,
                    floor_cycles,
                    latency_sum: acc.latency_sum,
                    cache: cache_config.clone(),
                    mul_latency,
                }
            })
            .collect()
    }
}

impl SweepReplay {
    /// Prepares `trace` for replay under `config`'s cache hierarchy and
    /// multiply latency (both fixed across [`PipelineConfig::scaled`]
    /// scalings, so one preparation serves a whole scaling sweep).
    #[must_use]
    pub fn new(trace: &Trace, config: &PipelineConfig) -> Self {
        Self::prepare(trace.reader(), config).expect("in-memory reader cannot fail")
    }

    /// [`SweepReplay::new`] over any [`TraceReader`]: consumes the record
    /// stream chunk-by-chunk, so preparing from a block-wise file decoder
    /// never materializes the trace — only the 12-byte prepared form is
    /// kept. The prepared replay is bit-identical to one built from the
    /// same records in memory, at any chunking: it is the whole-stream
    /// range of the same warmed preparer sampled replay uses.
    ///
    /// # Errors
    ///
    /// Propagates any [`ReadTraceError`] from the underlying stream.
    pub fn prepare<R: TraceReader>(
        reader: R,
        config: &PipelineConfig,
    ) -> Result<Self, ReadTraceError> {
        let (mut replays, _) =
            RangePreparer::run(reader, config, &[(0, u64::MAX)], "sweep.prepare")?;
        Ok(replays.pop().expect("one replay per range"))
    }

    /// Instructions in the prepared trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the prepared trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Dynamic conditional branches per replay lane.
    #[must_use]
    pub fn cond_branch_count(&self) -> usize {
        self.cond_branches
    }

    /// Heap bytes the prepared records hold: what keeping this
    /// preparation resident costs.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        (self.insts.capacity() * std::mem::size_of::<PreparedInst>()) as u64
    }

    /// Replays one misprediction stream — bit-identical to
    /// [`simulate`](crate::simulate) on the source trace. It runs as a
    /// 4-lane chunk with three padding lanes, the narrowest the kernel
    /// has.
    #[must_use]
    pub fn simulate(&self, mispredicted: &[bool], config: &PipelineConfig) -> SimStats {
        let mut out = [SimStats::default()];
        self.replay_chunk(&[(mispredicted, config)], bp_metrics::enabled(), &mut out);
        out[0]
    }

    /// Replays every (config, stream) cell of a sweep: returns
    /// `stats[c][s]`, the replay of `flag_streams[s]` under `configs[c]`.
    ///
    /// The cells are laid out config-major and replayed 16 at a time,
    /// each lane with its own flag stream and its own pipeline capacity
    /// (fetch, ROB and retire widths, refill penalty); a ragged tail is
    /// padded to a 4-, 8- or 16-lane chunk. So a grid of predictors ×
    /// scales costs one pass per 16 cells, not one pass per scale. Each
    /// cell's result (and its contribution to the `bp-metrics` pipeline
    /// counters) is identical to a scalar [`simulate`](crate::simulate)
    /// call with the same flags and config; padding lanes count nowhere.
    ///
    /// # Panics
    ///
    /// Panics if any stream has fewer entries than the trace has
    /// conditional branches, or if a config differs from the preparation
    /// configuration in cache hierarchy or multiply latency (pipeline
    /// *capacity* — widths, ROB, penalty — may vary freely).
    #[must_use]
    pub fn simulate_many(
        &self,
        flag_streams: &[&[bool]],
        configs: &[PipelineConfig],
    ) -> Vec<Vec<SimStats>> {
        let metrics = bp_metrics::enabled();
        self.replay_cells(flag_streams, configs, |cells, out| {
            self.replay_chunk(cells, metrics, out);
        })
    }

    /// Lays the (config, stream) cells out config-major, hands them to
    /// `replay` in chunks of at most [`MAX_CHUNK_LANES`], and regroups
    /// the results per config.
    fn replay_cells<'a>(
        &self,
        flag_streams: &[&'a [bool]],
        configs: &'a [PipelineConfig],
        mut replay: impl FnMut(&[Cell<'a>], &mut [SimStats]),
    ) -> Vec<Vec<SimStats>> {
        let cells: Vec<Cell<'a>> = configs
            .iter()
            .flat_map(|config| flag_streams.iter().map(move |&flags| (flags, config)))
            .collect();
        let mut flat = vec![SimStats::default(); cells.len()];
        for (chunk, out) in cells
            .chunks(MAX_CHUNK_LANES)
            .zip(flat.chunks_mut(MAX_CHUNK_LANES))
        {
            replay(chunk, out);
        }
        let n = flag_streams.len();
        (0..configs.len())
            .map(|c| flat[c * n..(c + 1) * n].to_vec())
            .collect()
    }

    /// Upper bound on every timestamp the replay loop can produce under
    /// `config`.
    ///
    /// By induction over the prepared records: each instruction advances
    /// the running maximum of all lane state (including the redirect
    /// base) by at most `latency + 1`, plus `penalty` when a mispredicted
    /// branch redirects the front end. Summing the worst case over the
    /// whole trace — every branch mispredicted in every lane — gives
    /// `Σ(latency_i + 1) + branches·penalty`; the `+ 2` per record leaves
    /// a full `len` of slack for the loop's `+ 1` intermediates.
    fn cycle_bound(&self, config: &PipelineConfig) -> u64 {
        self.latency_sum
            + 2 * self.insts.len() as u64
            + self.cond_branches as u64 * u64::from(config.mispredict_penalty)
    }

    /// Replays one chunk of at most [`MAX_CHUNK_LANES`] cells through
    /// its monomorphized loop and writes one [`SimStats`] per cell into
    /// `out`, with the `METRICS` instantiation when `metrics` is set.
    ///
    /// The kernel is chosen here, at run time: the AVX2 copy of the loop
    /// where the running CPU has AVX2, the portable copy otherwise. The
    /// build targets baseline x86-64, whose SSE2 has no unsigned 32-bit
    /// lane `max` or compare, so the portable copy spends an emulation
    /// sequence on each; AVX2 has both as single instructions. Choosing
    /// at run time keeps one binary that still runs without AVX2.
    fn replay_chunk(&self, cells: &[Cell<'_>], metrics: bool, out: &mut [SimStats]) {
        for (_, config) in cells {
            assert!(
                config.cache == self.cache && config.mul_latency == self.mul_latency,
                "SweepReplay prepared under a different cache/mul-latency configuration"
            );
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `replay_chunk_avx2` requires only the AVX2 target
            // feature, and `is_x86_feature_detected!("avx2")` just
            // confirmed the running CPU has it.
            unsafe { self.replay_chunk_avx2(cells, metrics, out) };
            return;
        }
        self.replay_chunk_portable(cells, metrics, out);
    }

    /// [`Self::replay_chunk_portable`], compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn replay_chunk_avx2(&self, cells: &[Cell<'_>], metrics: bool, out: &mut [SimStats]) {
        self.replay_chunk_portable(cells, metrics, out);
    }

    /// The portable kernel: dispatches the chunk to its
    /// `ChunkCursor<K, METRICS, C>` instantiation, `K` the chunk's
    /// [`lane_width`].
    ///
    /// Lane word width is chosen per chunk: when [`Self::cycle_bound`]
    /// fits in 32 bits under every cell's config — every realistically
    /// sized trace — lanes run on `u32` timestamps, halving lane-state
    /// memory traffic and doubling SIMD density; otherwise the `u64`
    /// path keeps the result exact.
    ///
    /// This function and every `ChunkCursor` method it reaches are
    /// `#[inline(always)]`, so the whole loop is compiled into each
    /// caller: once for the baseline target in `replay_chunk`, and once
    /// more inside the AVX2 kernel, from this one source.
    #[inline(always)]
    fn replay_chunk_portable(&self, cells: &[Cell<'_>], metrics: bool, out: &mut [SimStats]) {
        let narrow = cells
            .iter()
            .all(|(_, config)| self.cycle_bound(config) < u64::from(u32::MAX));
        macro_rules! dispatch {
            ($($k:literal),*) => {
                match (lane_width(cells.len()), metrics, narrow) {
                    $(
                        ($k, false, true) => {
                            ChunkCursor::<$k, false, u32>::new(self, cells).run(out)
                        }
                        ($k, true, true) => {
                            ChunkCursor::<$k, true, u32>::new(self, cells).run(out)
                        }
                        ($k, false, false) => {
                            ChunkCursor::<$k, false, u64>::new(self, cells).run(out)
                        }
                        ($k, true, false) => {
                            ChunkCursor::<$k, true, u64>::new(self, cells).run(out)
                        }
                    )*
                    (k, ..) => unreachable!("unsupported lane count {k}"),
                }
            };
        }
        dispatch!(4, 8, 16);
    }
}

/// One replay cell: a misprediction flag stream and the pipeline config
/// to replay it under.
type Cell<'a> = (&'a [bool], &'a PipelineConfig);

/// The widest lane chunk: `simulate_many` replays its cells 16 at a time.
const MAX_CHUNK_LANES: usize = 16;

/// The lane count a chunk of `cells` cells (1 to 16) replays at: the
/// narrowest of 4, 8 and 16 that holds them all.
///
/// The lanes past `cells` are padding. The loop costs more per record
/// than per lane: 1- and 2-lane passes took longer than a 4-lane one,
/// an 8-lane pass takes about what a 4-lane one does, and a 16-lane
/// pass less than an 8-lane and a 4-lane pass together, so padding the
/// tail is cheaper than splitting it. Every chunk transposes its own
/// flag streams into a fresh mask vector, and padding lanes get no mask
/// bits, so a ragged tail never replays against another chunk's flags.
fn lane_width(cells: usize) -> usize {
    debug_assert!((1..=MAX_CHUNK_LANES).contains(&cells));
    match cells {
        0..=4 => 4,
        5..=8 => 8,
        _ => 16,
    }
}

/// The ring lags of one config in a chunk: how many records back each
/// lane reads the fetch ring (fetch width), the retire ring for a free
/// ROB slot (ROB size) and for retire bandwidth (retire width). A
/// zero-sized resource still holds one entry, as in the scalar loop's
/// rings.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Lags {
    fetch: usize,
    rob: usize,
    bw: usize,
}

impl Lags {
    fn of(config: &PipelineConfig) -> Self {
        let lag = |width: u32| (width as usize).max(1);
        Lags {
            fetch: lag(config.fetch_width),
            rob: lag(config.rob_size),
            bw: lag(config.retire_width),
        }
    }
}

/// The lanes of a segment that read at other [`Lags`] than its first
/// lane, as the select vector their ring rows are blended in under.
#[derive(Clone, Copy)]
struct LaneGroup<C, const K: usize> {
    lags: Lags,
    sel: LaneVec<C, K>,
}

/// One segment of a chunk's lanes (see `ChunkCursor::SEGMENT`): the
/// lags of its first lane, read for the whole segment, and the groups
/// of its lanes at other lags, each blended in. A segment of one config
/// has no groups, so its reads are single rows.
struct Segment<C, const K: usize> {
    lags: Lags,
    groups: Vec<LaneGroup<C, K>>,
}

impl<C: CycleWord, const K: usize> Segment<C, K> {
    /// The segment of lanes `lo..lo + lags.len()`, whose lags these are.
    fn new(lo: usize, lags: &[Lags]) -> Self {
        let mut groups: Vec<LaneGroup<C, K>> = Vec::new();
        for (k, &lane) in (lo..).zip(lags).filter(|&(_, &lane)| lane != lags[0]) {
            if let Some(group) = groups.iter_mut().find(|g| g.lags == lane) {
                group.sel.0[k] = C::ALL_ONES;
                continue;
            }
            let mut sel = LaneVec::default();
            sel.0[k] = C::ALL_ONES;
            groups.push(LaneGroup { lags: lane, sel });
        }
        Segment {
            lags: lags[0],
            groups,
        }
    }
}

/// The per-chunk lockstep replay state: the scalar `simulate_impl`
/// arithmetic, with every cycle variable widened to a
/// [`LaneVec<C, K>`] lane vector and every pipeline parameter read per
/// lane.
///
/// `C` is the timestamp word (`u32` or `u64`); the caller guarantees via
/// `SweepReplay::cycle_bound` that no timestamp can overflow it, so the
/// lane arithmetic below is exact in either width. Counters that
/// accumulate across the whole trace stay `u64`, except the ROB-stall
/// count, which moves by at most one per record and so fits `C` too.
///
/// Every method is `#[inline(always)]`: the loop must be compiled inside
/// whichever kernel copy calls it (see `SweepReplay::replay_chunk`).
struct ChunkCursor<'a, const K: usize, const METRICS: bool, C: CycleWord> {
    replay: &'a SweepReplay,
    /// Lanes that carry cells; the rest are padding, whose results and
    /// counters `finish` drops.
    cells: usize,
    /// One K-bit mask per conditional branch, transposed from the flag
    /// streams at construction: the hot loop tests a single word, and
    /// skips the lane update outright when no lane mispredicts — by far
    /// the common case for the well-trained predictors these sweeps
    /// compare. Padding lanes never mispredict.
    masks: Vec<u32>,
    /// Next prepared-instruction index.
    pos: usize,
    flag_idx: usize,
    /// Per-lane front-end refill penalty.
    penalty: LaneVec<C, K>,
    /// Per-lane ready cycles per register slot (+ sentinels). A
    /// power-of-two-sized array: `& (REG_SLOTS - 1)` indexing compiles to
    /// an unchecked access.
    reg_ready: [LaneVec<C, K>; REG_SLOTS],
    /// Per-lane ready cycle of every forwarded store, by store ordinal.
    store_done: Vec<LaneVec<C, K>>,
    /// Window-entry cycles, read each lane's fetch width back.
    fetch_ring: LaneRing<K, C>,
    /// ROB occupancy and retire bandwidth both constrain on the same
    /// retirement sequence, just each lane's ROB size vs retire width
    /// entries back — one ring records it once and answers both.
    retire_ring: LaneRing<K, C>,
    /// The lags of each `SEGMENT`-lane segment, in lane order.
    segments: Vec<Segment<C, K>>,
    /// The lags every lane reads at when the chunk holds one config:
    /// then each ring read is one whole row, as in a single-config pass.
    uniform: Option<Lags>,
    fetch_base: LaneVec<C, K>,
    last_retire: LaneVec<C, K>,
    refetch_bubbles: LaneVec<u64, K>,
    /// Records whose window entry did *not* wait on a ROB slot: a record
    /// stalls exactly when `rob_free > bw_enter`, that is when its entry
    /// cycle differs from `bw_enter`, and counting equality is cheaper
    /// than counting unsigned `>`; `finish` reports the stalls as the
    /// records less this count. In `C` because the count cannot exceed
    /// the record count, which the narrow path's `cycle_bound` keeps
    /// below 2^31; widened once, in `finish`.
    unstalled: LaneVec<C, K>,
    mispredictions: LaneVec<u64, K>,
    cond_branches: u64,
}

impl<'a, const K: usize, const METRICS: bool, C: CycleWord> ChunkCursor<'a, K, METRICS, C> {
    /// Lanes per segment: as many as fill one 256-bit register (8 `u32`
    /// or 4 `u64` lanes), or all `K` if fewer. Each ring read takes one
    /// row per segment and, only for a segment whose lanes mix configs,
    /// one more row per further lag, blended in over that segment's
    /// lanes alone. Config-major cells at a multiple of 8 streams never
    /// mix configs inside a segment; at 4 streams a `u32` segment holds
    /// two.
    const SEGMENT: usize = {
        let fill = 32 / std::mem::size_of::<C>();
        if K < fill {
            K
        } else {
            fill
        }
    };

    #[inline(always)]
    fn new(replay: &'a SweepReplay, cells: &[Cell<'_>]) -> Self {
        assert!((1..=K).contains(&cells.len()), "a chunk holds 1 to K cells");
        let mut masks = vec![0u32; replay.cond_branches];
        for (k, (lane_flags, _)) in cells.iter().enumerate() {
            assert!(
                lane_flags.len() >= replay.cond_branches,
                "need one misprediction flag per conditional branch"
            );
            for (m, &f) in masks.iter_mut().zip(*lane_flags) {
                *m |= u32::from(f) << k;
            }
        }
        // Padding lanes run the last cell's config, so they add no lags
        // of their own.
        let config = |k: usize| cells[k.min(cells.len() - 1)].1;
        let lags: [Lags; K] = std::array::from_fn(|k| Lags::of(config(k)));
        let segments = (0..K)
            .step_by(Self::SEGMENT)
            .map(|lo| Segment::new(lo, &lags[lo..lo + Self::SEGMENT]))
            .collect();
        let uniform = lags.iter().all(|&l| l == lags[0]).then_some(lags[0]);
        // Each ring holds the chunk's largest lag.
        let fetch_len = lags.iter().map(|l| l.fetch).max().unwrap_or(1);
        let retire_len = lags.iter().map(|l| l.rob.max(l.bw)).max().unwrap_or(1);
        ChunkCursor {
            replay,
            cells: cells.len(),
            masks,
            pos: 0,
            flag_idx: 0,
            penalty: LaneVec(std::array::from_fn(|k| {
                C::narrow(u64::from(config(k).mispredict_penalty))
            })),
            reg_ready: [LaneVec::default(); REG_SLOTS],
            store_done: vec![LaneVec::default(); replay.store_slots.max(1)],
            fetch_ring: LaneRing::new(fetch_len),
            retire_ring: LaneRing::new(retire_len),
            uniform,
            segments,
            fetch_base: LaneVec::default(),
            last_retire: LaneVec::default(),
            refetch_bubbles: LaneVec::default(),
            unstalled: LaneVec::default(),
            mispredictions: LaneVec::default(),
            cond_branches: 0,
        }
    }

    /// Replays the whole prepared trace and writes the per-cell results
    /// into `out`. Without a cancellation scope (every production run)
    /// this is one `advance(usize::MAX)`; under a scope the chunk
    /// advances in [`CANCEL_SLICE`] steps with a cancellation checkpoint
    /// before each slice.
    #[inline(always)]
    fn run(mut self, out: &mut [SimStats]) {
        if bp_metrics::cancel::active() {
            loop {
                bp_metrics::cancel::checkpoint("sweep.replay");
                if !self.advance(CANCEL_SLICE) {
                    break;
                }
            }
        } else {
            self.advance(usize::MAX);
        }
        self.finish(out);
    }

    /// Replays up to `n` further prepared instructions; returns `true`
    /// while instructions remain.
    #[inline(always)]
    fn advance(&mut self, n: usize) -> bool {
        let end = self.pos.saturating_add(n).min(self.replay.insts.len());
        // Hot lane vectors live in locals across the slice so the
        // compiler keeps them in registers; ring buffers and scoreboard
        // state are memory-resident either way.
        let mut fetch_base = self.fetch_base;
        let mut last_retire = self.last_retire;
        let mut unstalled = self.unstalled;
        let mut flag_idx = self.flag_idx;
        let mut cond_branches = self.cond_branches;
        let penalty = self.penalty;
        let segments = &self.segments[..K / Self::SEGMENT];
        let uniform = self.uniform;
        // So do the rings' write counters and buffer bounds (`RingView`):
        // a store into a ring's heap buffer could otherwise alias them,
        // forcing a reload per record.
        let mut fetch_ring = self.fetch_ring.view();
        let mut retire_ring = self.retire_ring.view();

        for inst in &self.replay.insts[self.pos..end] {
            // The ring rows this record reads, each lane at its own lags:
            // all were recorded by earlier records, so they are read up
            // front — whole rows when the chunk holds one config, else
            // segment by segment (at most 4: 16 `u64` lanes).
            let [fetch_old, rob_free, bw_old] = match uniform {
                Some(lags) => [
                    fetch_ring.back(lags.fetch),
                    retire_ring.back(lags.rob),
                    retire_ring.back(lags.bw),
                ],
                None => {
                    let rows = [LaneVec::default(); 3];
                    let rows = Self::segment_rows::<0>(segments, &fetch_ring, &retire_ring, rows);
                    let rows = Self::segment_rows::<1>(segments, &fetch_ring, &retire_ring, rows);
                    let rows = Self::segment_rows::<2>(segments, &fetch_ring, &retire_ring, rows);
                    Self::segment_rows::<3>(segments, &fetch_ring, &retire_ring, rows)
                }
            };

            // Enter the window: front-end bandwidth, redirect stall, ROB.
            let bw_enter = fetch_base.max(fetch_old.add_scalar(C::ONE));
            let enter = bw_enter.max(rob_free);
            if METRICS {
                unstalled.count_eq(enter, bw_enter);
            }
            fetch_ring.record(enter);

            // Dataflow: sources ready + latency (sentinel slots make the
            // reads unconditional).
            let s1 = self.reg_ready[inst.src1 as usize & (REG_SLOTS - 1)];
            let s2 = self.reg_ready[inst.src2 as usize & (REG_SLOTS - 1)];
            let latency = C::narrow(u64::from(inst.latency));
            let mut done = enter.max(s1).max(s2).add_scalar(latency);
            if inst.kind & KIND_LOAD_FWD != 0 {
                let src = self.store_done[inst.link as usize];
                done = done.max(src.add_scalar(C::ONE));
            }
            if inst.kind & KIND_STORE != 0 {
                self.store_done[inst.link as usize] = done;
            }
            self.reg_ready[inst.dst as usize & (REG_SLOTS - 1)] = done;

            // Branch handling: a mispredicted conditional branch stalls
            // the front end until it resolves plus the refill penalty.
            if inst.kind & KIND_BRANCH != 0 {
                cond_branches += 1;
                let mask = self.masks[flag_idx];
                if mask != 0 {
                    self.mispredictions.add_mask_bits(mask);
                    let redirect = done.add_lanes(penalty);
                    if METRICS {
                        let bubbles = redirect.sub_sat(enter.add_scalar(C::ONE)).widen();
                        self.refetch_bubbles.add_masked(mask, bubbles);
                    }
                    fetch_base = fetch_base.masked_max(mask, redirect);
                }
                flag_idx += 1;
            }

            // In-order retirement with bandwidth.
            let retire = done.max(last_retire).max(bw_old.add_scalar(C::ONE));
            retire_ring.record(retire);
            last_retire = retire;
        }

        let (fetch_write, retire_write) = (fetch_ring.write, retire_ring.write);
        self.fetch_ring.write = fetch_write;
        self.retire_ring.write = retire_write;
        self.fetch_base = fetch_base;
        self.last_retire = last_retire;
        self.unstalled = unstalled;
        self.flag_idx = flag_idx;
        self.cond_branches = cond_branches;
        self.pos = end;
        self.pos < self.replay.insts.len()
    }

    /// Reads segment `S`'s lanes of this record's three ring rows into
    /// `rows` (fetch, ROB, retire bandwidth): one row each at the
    /// segment's lags, then one more per group of its lanes at other
    /// lags, blended in over the segment's lanes. `S` is a constant so
    /// the lane ranges are too, and every row stays in registers; a
    /// segment past the chunk's `K / SEGMENT` reads nothing.
    #[inline(always)]
    fn segment_rows<const S: usize>(
        segments: &[Segment<C, K>],
        fetch_ring: &RingView<'_, K, C>,
        retire_ring: &RingView<'_, K, C>,
        rows: [LaneVec<C, K>; 3],
    ) -> [LaneVec<C, K>; 3] {
        if (S + 1) * Self::SEGMENT > K {
            return rows;
        }
        let seg = &segments[S];
        let lanes = S * Self::SEGMENT..(S + 1) * Self::SEGMENT;
        let [mut fetch_old, mut rob_free, mut bw_old] = rows;
        fetch_old = fetch_old.splice(lanes.clone(), fetch_ring.back(seg.lags.fetch));
        rob_free = rob_free.splice(lanes.clone(), retire_ring.back(seg.lags.rob));
        bw_old = bw_old.splice(lanes.clone(), retire_ring.back(seg.lags.bw));
        for g in &seg.groups {
            fetch_old = fetch_old.blend(lanes.clone(), g.sel, fetch_ring.back(g.lags.fetch));
            rob_free = rob_free.blend(lanes.clone(), g.sel, retire_ring.back(g.lags.rob));
            bw_old = bw_old.blend(lanes.clone(), g.sel, retire_ring.back(g.lags.bw));
        }
        [fetch_old, rob_free, bw_old]
    }

    /// Writes the final per-cell [`SimStats`] (and `bp-metrics` pipeline
    /// counters) once the chunk has been advanced to the end of the
    /// trace. `out` must hold exactly this chunk's cell count; padding
    /// lanes are dropped.
    #[inline(always)]
    fn finish(self, out: &mut [SimStats]) {
        assert_eq!(out.len(), self.cells, "output slice matches cell count");
        assert_eq!(self.pos, self.replay.insts.len(), "chunk fully advanced");
        let n = self.replay.insts.len() as u64;
        for s in out.iter_mut() {
            *s = SimStats {
                instructions: n,
                ..SimStats::default()
            };
        }
        if self.replay.insts.is_empty() {
            // The scalar loop returns before touching the cache floor or
            // the metrics counters; so do we.
            return;
        }
        for (k, s) in out.iter_mut().enumerate() {
            s.cycles = self.last_retire.0[k]
                .widen()
                .max(self.replay.floor_cycles)
                .max(1);
            s.cond_branches = self.cond_branches;
            s.mispredictions = self.mispredictions.0[k];
        }

        if METRICS {
            // Each cell counts as one logical simulation, so a sweep's
            // manifest matches the per-config replays it replaced.
            let cells = self.cells;
            let counters = PipeCounters::get();
            counters.sim_runs.add(cells as u64);
            counters.instructions.add(n * cells as u64);
            counters.cycles.add(out.iter().map(|s| s.cycles).sum());
            counters
                .flushes
                .add(self.mispredictions.0[..cells].iter().sum());
            counters
                .refetch_bubbles
                .add(self.refetch_bubbles.0[..cells].iter().sum());
            let unstalled: u64 = self.unstalled.widen().0[..cells].iter().sum();
            counters.rob_stalls.add(n * cells as u64 - unstalled);
        }
    }
}

/// Slice size for cancellable replay: matches the 16K-record streaming
/// block, so a cancelled study stops within one block of work.
const CANCEL_SLICE: usize = 16 * 1024;

/// A ring of per-lane timestamps read at fixed lags — the lane-vector
/// form of the scalar loop's `CycleRing`.
///
/// One buffer answers "the value `lag` records ago" for every lag up to
/// the capacity it was built with, so the retire sequence is written once
/// for both the ROB and the retire-bandwidth constraint. The buffer is a
/// power of two long: a read is `(write - lag) & mask` and a record is
/// one store and one increment, with no cursor to wrap. A slot never
/// written reads 0, and while fewer than `lag` records exist the read
/// lands on such a slot (`write - lag` wraps to at least `write`, modulo
/// a length of at least `lag`), matching the scalar rings' zeroed
/// history. The loop reads and records through a [`RingView`].
struct LaneRing<const K: usize, C: CycleWord> {
    buf: Vec<LaneVec<C, K>>,
    mask: usize,
    /// Records made so far (its low bits are the next slot to write).
    write: usize,
}

impl<const K: usize, C: CycleWord> LaneRing<K, C> {
    /// A ring answering lags up to `max_lag` (at least 1).
    #[inline(always)]
    fn new(max_lag: usize) -> Self {
        let len = max_lag.max(1).next_power_of_two();
        LaneRing {
            buf: vec![LaneVec::default(); len],
            mask: len - 1,
            write: 0,
        }
    }

    /// The ring for one `advance` slice; the caller stores the view's
    /// `write` back when the slice ends.
    #[inline(always)]
    fn view(&mut self) -> RingView<'_, K, C> {
        RingView {
            buf: &mut self.buf[..=self.mask],
            mask: self.mask,
            write: self.write,
        }
    }
}

/// A [`LaneRing`] held in locals for one `advance` slice: the buffer as
/// a slice exactly `mask + 1` long, so a masked index needs no bounds
/// check, and the write counter in a register.
struct RingView<'r, const K: usize, C: CycleWord> {
    buf: &'r mut [LaneVec<C, K>],
    mask: usize,
    write: usize,
}

impl<const K: usize, C: CycleWord> RingView<'_, K, C> {
    /// The timestamps recorded `lag` records ago (0 before that).
    #[inline(always)]
    fn back(&self, lag: usize) -> LaneVec<C, K> {
        self.buf[self.write.wrapping_sub(lag) & self.mask]
    }

    /// Records the current timestamps.
    #[inline(always)]
    fn record(&mut self, cycles: LaneVec<C, K>) {
        self.buf[self.write & self.mask] = cycles;
        self.write = self.write.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use bp_trace::{Reg, RetiredInst, TraceMeta};

    fn cfg() -> PipelineConfig {
        PipelineConfig::skylake()
    }

    /// A mixed synthetic trace exercising loads, stores, forwarding,
    /// multiplies and branches.
    fn mixed_trace(n: u64) -> (Trace, usize) {
        let mut t = Trace::new(TraceMeta::new("mix", 0));
        let mut branches = 0;
        let mut state = 7u64;
        for i in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            match state % 7 {
                0 => {
                    t.push(RetiredInst::cond_branch(
                        i * 4,
                        state & 2 == 0,
                        0,
                        Some((state % 8) as u8),
                        None,
                    ));
                    branches += 1;
                }
                1 => t.push(RetiredInst::mem(
                    i * 4,
                    InstClass::Load,
                    (state >> 8) % 4096,
                    None,
                    None,
                    Some(Reg::new((state % 16) as u8)),
                    0,
                )),
                2 => t.push(RetiredInst::mem(
                    i * 4,
                    InstClass::Store,
                    (state >> 8) % 4096,
                    Some(Reg::new((state % 16) as u8)),
                    None,
                    None,
                    0,
                )),
                3 => t.push(RetiredInst::op(
                    i * 4,
                    InstClass::Mul,
                    Some(Reg::new((state % 16) as u8)),
                    Some(Reg::new(((state >> 4) % 16) as u8)),
                    Some(Reg::new(((state >> 8) % 16) as u8)),
                    0,
                )),
                _ => t.push(RetiredInst::op(
                    i * 4,
                    InstClass::Alu,
                    Some(Reg::new((state % 16) as u8)),
                    None,
                    Some(Reg::new(((state >> 4) % 16) as u8)),
                    0,
                )),
            }
        }
        (t, branches)
    }

    fn flag_stream(branches: usize, seed: u64, rate: u64) -> Vec<bool> {
        let mut state = seed;
        (0..branches)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state % 100 < rate
            })
            .collect()
    }

    #[test]
    fn lanes_match_scalar_simulate_exactly() {
        let (t, branches) = mixed_trace(30_000);
        let streams: Vec<Vec<bool>> = (0..7)
            .map(|i| flag_stream(branches, 11 + i, i * 9))
            .collect();
        let refs: Vec<&[bool]> = streams.iter().map(Vec::as_slice).collect();
        let configs: Vec<PipelineConfig> = [1, 4, 32].map(|s| cfg().scaled(s)).into();
        let sweep = SweepReplay::new(&t, &cfg());
        let many = sweep.simulate_many(&refs, &configs);
        for (c, per_config) in configs.iter().zip(&many) {
            for (f, got) in refs.iter().zip(per_config) {
                assert_eq!(*got, simulate(&t, f, c), "scale {}", c.scale);
            }
        }
    }

    #[test]
    fn sixteen_lanes_match_scalar() {
        // A full 16-wide chunk — the widest monomorphization — must agree
        // with 16 scalar replays.
        let (t, branches) = mixed_trace(12_000);
        let streams: Vec<Vec<bool>> = (0..16)
            .map(|i| flag_stream(branches, 101 + i, (i * 5) % 70))
            .collect();
        let refs: Vec<&[bool]> = streams.iter().map(Vec::as_slice).collect();
        let sweep = SweepReplay::new(&t, &cfg());
        let many = sweep.simulate_many(&refs, &[cfg()]);
        for (f, got) in refs.iter().zip(&many[0]) {
            assert_eq!(*got, simulate(&t, f, &cfg()));
        }
    }

    #[test]
    fn single_lane_matches_scalar() {
        let (t, branches) = mixed_trace(5_000);
        let flags = flag_stream(branches, 3, 20);
        let sweep = SweepReplay::new(&t, &cfg());
        assert_eq!(sweep.simulate(&flags, &cfg()), simulate(&t, &flags, &cfg()));
    }

    #[test]
    fn u64_fallback_matches_scalar() {
        // A misprediction penalty large enough to push the cycle bound
        // past 32 bits forces the wide-lane fallback; it must agree with
        // the scalar loop just like the narrow path does.
        let (t, branches) = mixed_trace(4_000);
        let flags = flag_stream(branches, 5, 30);
        let mut c = cfg();
        c.mispredict_penalty = u32::MAX / 2;
        let sweep = SweepReplay::new(&t, &c);
        assert!(sweep.cycle_bound(&c) >= u64::from(u32::MAX));
        assert_eq!(sweep.simulate(&flags, &c), simulate(&t, &flags, &c));
    }

    #[test]
    fn avx2_and_portable_kernels_agree() {
        // `replay_chunk` runs the AVX2 copy of the loop on a CPU with
        // AVX2; `replay_chunk_portable` called here runs the copy built
        // for the baseline target. Over 1..=36 streams × 1..=6 mixed
        // configs — full, padded and mixed-scale chunks of every width,
        // `u32` and `u64` words (the third config's penalty forces the
        // `u64` fallback on any chunk holding it), metrics on and off —
        // every cell of both copies must equal scalar `simulate`.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!(
                "no AVX2 on this CPU: skipped the AVX2 half; \
                 checking the portable kernel against scalar simulate"
            );
        }
        let (t, branches) = mixed_trace(600);
        let streams: Vec<Vec<bool>> = (0..36)
            .map(|i| flag_stream(branches, 71 + i, (i * 11) % 70))
            .collect();
        let refs: Vec<&[bool]> = streams.iter().map(Vec::as_slice).collect();
        let mut wide = cfg().scaled(2);
        wide.mispredict_penalty = u32::MAX / 2;
        let configs = [
            cfg(),
            cfg().scaled(8),
            wide,
            cfg().scaled(32),
            cfg().scaled(4),
            cfg().scaled(16),
        ];
        let sweep = SweepReplay::new(&t, &cfg());
        assert!(sweep.cycle_bound(&configs[1]) < u64::from(u32::MAX));
        assert!(sweep.cycle_bound(&configs[2]) >= u64::from(u32::MAX));
        let scalar: Vec<Vec<SimStats>> = configs
            .iter()
            .map(|c| refs.iter().map(|f| simulate(&t, f, c)).collect())
            .collect();
        for m in 1..=configs.len() {
            for n in 1..=refs.len() {
                for metrics in [false, true] {
                    let label = format!("{n} streams × {m} configs, metrics {metrics}");
                    let want: Vec<Vec<SimStats>> =
                        scalar[..m].iter().map(|per| per[..n].to_vec()).collect();
                    let portable = sweep.replay_cells(&refs[..n], &configs[..m], |cells, out| {
                        sweep.replay_chunk_portable(cells, metrics, out);
                    });
                    assert_eq!(portable, want, "portable, {label}");
                    if avx2 {
                        let dispatched =
                            sweep.replay_cells(&refs[..n], &configs[..m], |cells, out| {
                                sweep.replay_chunk(cells, metrics, out);
                            });
                        assert_eq!(dispatched, want, "AVX2, {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn streamed_prepare_matches_in_memory_prepare() {
        // Preparing from the block-wise file decoder must be bit-identical
        // to preparing from the materialized trace: the cache model, the
        // forwarding links, and the compaction all see the same records
        // in the same order, just delivered in chunks.
        let (t, branches) = mixed_trace(70_000); // several v3 blocks
        let mut bytes = Vec::new();
        t.write_to(&mut bytes).expect("serialize");
        let reader = bp_trace::BptrReader::new(bytes.as_slice()).expect("open");
        let streamed = SweepReplay::prepare(reader, &cfg()).expect("prepare");
        let in_memory = SweepReplay::new(&t, &cfg());
        assert_eq!(streamed.len(), in_memory.len());
        assert_eq!(streamed.cond_branch_count(), in_memory.cond_branch_count());
        let flags = flag_stream(branches, 17, 25);
        assert_eq!(
            streamed.simulate(&flags, &cfg()),
            in_memory.simulate(&flags, &cfg())
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(TraceMeta::new("empty", 0));
        let sweep = SweepReplay::new(&t, &cfg());
        assert!(sweep.is_empty());
        let stats = sweep.simulate_many(&[&[], &[]], &[cfg(), cfg().scaled(4)]);
        assert_eq!(stats[0], [simulate(&t, &[], &cfg()); 2]);
        assert_eq!(stats[1], [simulate(&t, &[], &cfg().scaled(4)); 2]);
        assert_eq!(sweep.simulate_many(&[], &[cfg()]), [Vec::new()]);
        assert!(sweep.simulate_many(&[&[]], &[]).is_empty());
    }

    #[test]
    fn lane_count_is_transparent() {
        // A 16-lane chunk and a ragged tail of three, padded to four,
        // must agree with single-stream replays.
        let (t, branches) = mixed_trace(8_000);
        let streams: Vec<Vec<bool>> = (0..19)
            .map(|i| flag_stream(branches, 31 + i, (i * 7) % 60))
            .collect();
        let refs: Vec<&[bool]> = streams.iter().map(Vec::as_slice).collect();
        let sweep = SweepReplay::new(&t, &cfg());
        let all = &sweep.simulate_many(&refs, &[cfg()])[0];
        for (i, f) in refs.iter().enumerate() {
            assert_eq!(all[i], sweep.simulate(f, &cfg()), "lane {i}");
        }
    }

    #[test]
    fn lane_chunks_pad_to_4_8_or_16() {
        // Cells replay in 16-lane chunks; only the last chunk may be
        // short, and it pads to the narrowest of 4, 8 and 16 lanes that
        // holds it — never more than a chunk, never a lane left behind.
        for n in 1..=64usize {
            let cells: Vec<usize> = (0..n).collect();
            let chunks: Vec<&[usize]> = cells.chunks(MAX_CHUNK_LANES).collect();
            for (i, chunk) in chunks.iter().enumerate() {
                let width = lane_width(chunk.len());
                assert!(matches!(width, 4 | 8 | 16), "{n} cells: width {width}");
                assert!(
                    width >= chunk.len(),
                    "{n} cells: {width} lanes hold {}",
                    chunk.len()
                );
                if i + 1 < chunks.len() {
                    assert_eq!(chunk.len(), 16, "{n} cells: only the tail is short");
                } else {
                    assert!(
                        width == 4 || chunk.len() > width / 2,
                        "{n} cells: tail over-padded"
                    );
                }
            }
            assert_eq!(chunks.iter().map(|c| c.len()).sum::<usize>(), n);
        }
        assert_eq!(
            [1, 3, 4, 5, 8, 9, 12, 16].map(lane_width),
            [4, 4, 4, 8, 8, 16, 16, 16]
        );
    }

    #[test]
    #[should_panic(expected = "misprediction flag")]
    fn missing_flags_panic() {
        let mut t = Trace::new(TraceMeta::new("b", 0));
        t.push(RetiredInst::cond_branch(4, true, 0, None, None));
        let sweep = SweepReplay::new(&t, &cfg());
        let _ = sweep.simulate(&[], &cfg());
    }

    #[test]
    #[should_panic(expected = "different cache")]
    fn cache_mismatch_panics() {
        let (t, _) = mixed_trace(100);
        let sweep = SweepReplay::new(&t, &cfg());
        let mut other = cfg();
        other.cache.l1_log2_bytes += 1;
        let _ = sweep.simulate(&[true; 100], &other);
    }
}
