//! The trace-driven out-of-order scoreboard timing model.
//!
//! A dependency-aware first-order model of a superscalar OoO core:
//!
//! * the front end inserts instructions into the window in program order at
//!   `fetch_width` per cycle, stalling when the ROB is full;
//! * execution is dataflow-limited — an instruction starts when its source
//!   registers (and, for loads, any earlier store to the same address) are
//!   ready, with per-class latencies;
//! * retirement is in order at `retire_width` per cycle;
//! * a mispredicted conditional branch redirects the front end: no younger
//!   instruction enters the window until the branch *resolves* (executes)
//!   plus a constant refill penalty.
//!
//! This captures exactly the mechanism behind the paper's Figs. 1/5/7:
//! with mispredictions present, scaling capacity saturates because fetch
//! keeps waiting on branch resolution, while perfect prediction scales.

use bp_metrics::Counter;
use bp_trace::{InstClass, RetiredInst, Trace, NUM_REGS};

use crate::cache::CacheModel;
use crate::config::PipelineConfig;

/// Results of one timing simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Instructions simulated.
    pub instructions: u64,
    /// Total cycles to retire them all.
    pub cycles: u64,
    /// Dynamic conditional branches seen.
    pub cond_branches: u64,
    /// Mispredicted conditional branches (pipeline flushes).
    pub mispredictions: u64,
}

impl SimStats {
    /// Retired instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Mispredictions per kilo-instruction.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// `bp-metrics` handles for the scoreboard, resolved once per
/// [`simulate`] call in the `METRICS = true` instantiation only. The hot
/// loop accumulates plain locals; totals are flushed through the handles
/// at the end, so even the enabled path does nothing atomic per
/// instruction.
pub(crate) struct PipeCounters {
    pub(crate) sim_runs: Counter,
    pub(crate) instructions: Counter,
    pub(crate) cycles: Counter,
    pub(crate) flushes: Counter,
    pub(crate) refetch_bubbles: Counter,
    pub(crate) rob_stalls: Counter,
}

impl PipeCounters {
    pub(crate) fn get() -> Self {
        PipeCounters {
            sim_runs: Counter::get("pipeline.sim_runs"),
            instructions: Counter::get("pipeline.instructions"),
            cycles: Counter::get("pipeline.cycles"),
            flushes: Counter::get("pipeline.flushes"),
            refetch_bubbles: Counter::get("pipeline.refetch_bubble_cycles"),
            rob_stalls: Counter::get("pipeline.rob_stall_events"),
        }
    }
}

/// Execution latency of `inst` in cycles, advancing the cache model for
/// memory accesses — the one latency rule shared by the scalar loop and
/// the replay preparer. Loads take the cache latency; stores retire from
/// the store buffer in one cycle but still allocate the line so later
/// loads hit. The cache model is accessed in program order, so latencies
/// never depend on timing.
#[inline]
pub(crate) fn exec_latency(inst: &RetiredInst, cache: &mut CacheModel, mul_latency: u32) -> u32 {
    match inst.class {
        InstClass::Load => cache.access(inst.mem_addr),
        InstClass::Mul => mul_latency,
        InstClass::Store => {
            let _ = cache.access(inst.mem_addr);
            1
        }
        _ => 1,
    }
}

/// A deterministic open-addressed map from memory address to ready cycle,
/// used for store-to-load forwarding in the replay loop.
///
/// Replaces `std::collections::HashMap` on the hot path: `std`'s SipHash
/// costs tens of cycles per store/load and its growth policy allocates
/// during the loop. This map is preallocated from the trace length,
/// multiplicatively hashed, linearly probed, and never deletes — the
/// access pattern (`insert` overwrites per store, `get` per load) needs
/// exactly map semantics, so simulation results are unchanged.
#[derive(Clone, Debug)]
pub(crate) struct AddrMap {
    /// Keys stored offset by +1 so 0 marks an empty slot.
    keys: Vec<u64>,
    vals: Vec<u64>,
    mask: usize,
    len: usize,
    /// Value for `u64::MAX`, the one address the +1 offset can't encode.
    max_key_val: Option<u64>,
}

impl AddrMap {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        let size = cap.next_power_of_two().max(16);
        AddrMap {
            keys: vec![0; size],
            vals: vec![0; size],
            mask: size - 1,
            len: 0,
            max_key_val: None,
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    pub(crate) fn insert(&mut self, addr: u64, val: u64) {
        if addr == u64::MAX {
            self.max_key_val = Some(val);
            return;
        }
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let key = addr + 1;
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == 0 {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    pub(crate) fn get(&self, addr: u64) -> Option<u64> {
        if addr == u64::MAX {
            return self.max_key_val;
        }
        let key = addr + 1;
        let mut i = self.slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let new_size = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_size]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_size]);
        self.mask = new_size - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != 0 {
                let mut i = self.slot(k);
                while self.keys[i] != 0 {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = k;
                self.vals[i] = v;
            }
        }
    }
}

/// A fixed-size ring of recent cycle timestamps, used for bandwidth and
/// ROB-occupancy constraints.
///
/// The replay loop touches each ring once per instruction in strict
/// sequence, so the ring keeps its own cursor and advances by one on each
/// `record` — an increment-and-compare instead of the `i % len` integer
/// division a position-indexed ring would cost (six divisions per
/// instruction across the three rings, measurable at replay rates).
#[derive(Clone, Debug)]
struct CycleRing {
    buf: Vec<u64>,
    cursor: usize,
}

impl CycleRing {
    fn new(len: usize) -> Self {
        CycleRing {
            buf: vec![0; len.max(1)],
            cursor: 0,
        }
    }

    /// Timestamp of the event `len` positions ago (0 if not yet seen):
    /// the slot the next `record` will overwrite.
    #[inline]
    fn oldest(&self) -> u64 {
        self.buf[self.cursor]
    }

    /// Records the current event's timestamp and advances the ring.
    #[inline]
    fn record(&mut self, cycle: u64) {
        self.buf[self.cursor] = cycle;
        self.cursor += 1;
        if self.cursor == self.buf.len() {
            self.cursor = 0;
        }
    }
}

/// Simulates `trace` with the given per-branch misprediction flags.
///
/// `mispredicted` must contain one entry per dynamic *conditional* branch
/// of the trace, in retirement order — exactly the output of
/// [`bp_predictors::misprediction_flags`].
///
/// # Panics
///
/// Panics if `mispredicted` has fewer entries than the trace has
/// conditional branches.
///
/// # Examples
///
/// ```
/// use bp_pipeline::{simulate, PipelineConfig};
/// use bp_predictors::{misprediction_flags, PerfectPredictor, AlwaysTaken};
/// use bp_workloads::specint_suite;
///
/// let trace = specint_suite()[1].trace(0, 20_000);
/// let cfg = PipelineConfig::skylake();
/// let perfect = simulate(&trace, &misprediction_flags(&mut PerfectPredictor, &trace), &cfg);
/// let poor = simulate(&trace, &misprediction_flags(&mut AlwaysTaken, &trace), &cfg);
/// assert!(perfect.ipc() > poor.ipc());
/// ```
#[must_use]
pub fn simulate(trace: &Trace, mispredicted: &[bool], config: &PipelineConfig) -> SimStats {
    // Monomorphize the hot loop on the metrics switch: the disabled
    // instantiation carries no accumulators at all, so replay throughput
    // with metrics off is identical to a build without observability.
    if bp_metrics::enabled() {
        simulate_impl::<true>(trace, mispredicted, config)
    } else {
        simulate_impl::<false>(trace, mispredicted, config)
    }
}

fn simulate_impl<const METRICS: bool>(
    trace: &Trace,
    mispredicted: &[bool],
    config: &PipelineConfig,
) -> SimStats {
    let n = trace.len() as u64;
    let mut stats = SimStats {
        instructions: n,
        ..SimStats::default()
    };
    if trace.is_empty() {
        return stats;
    }

    // Per-register ready cycles.
    let mut reg_ready = [0u64; NUM_REGS];
    // Data-cache model: load latency depends on the footprint.
    let mut cache = CacheModel::new(config.cache.clone());
    // Store-to-load forwarding through memory: ready cycle per word.
    // Starts small on purpose: store-free traces (common in the LCF
    // suite) then cost one 16KB table instead of a footprint-sized
    // allocation, and store-heavy traces reach their size in a dozen
    // amortized doublings.
    let mut mem_ready = AddrMap::with_capacity(1024);

    // Front-end bandwidth ring (fetch_width per cycle) and ROB ring.
    let mut fetch_ring = CycleRing::new(config.fetch_width as usize);
    let mut retire_ring = CycleRing::new(config.rob_size as usize);
    let mut retire_bw_ring = CycleRing::new(config.retire_width as usize);

    // Earliest cycle the front end may deliver the next instruction
    // (advanced by misprediction redirects).
    let mut fetch_base = 0u64;
    let mut last_retire = 0u64;
    let mut flag_idx = 0usize;

    // Observability accumulators (flushed to counters after the loop).
    // Keeping them live unconditionally costs register pressure in a loop
    // this tight, hence the METRICS monomorphization.
    let mut refetch_bubbles = 0u64;
    let mut rob_stalls = 0u64;

    for inst in trace.iter() {
        // Enter the window: front-end bandwidth, redirect stall, ROB space.
        let bw_enter = fetch_base.max(fetch_ring.oldest() + 1);
        let rob_free = retire_ring.oldest(); // ROB slot frees at old retire
        if METRICS {
            rob_stalls += u64::from(rob_free > bw_enter);
        }
        let enter = bw_enter.max(rob_free);
        fetch_ring.record(enter);

        // Dataflow: sources ready?
        let mut ready = enter;
        if let Some(r) = inst.src1 {
            ready = ready.max(reg_ready[r.index()]);
        }
        if let Some(r) = inst.src2 {
            ready = ready.max(reg_ready[r.index()]);
        }
        let latency = exec_latency(inst, &mut cache, config.mul_latency);
        let mut done = ready + u64::from(latency);
        match inst.class {
            InstClass::Load => {
                if let Some(m) = mem_ready.get(inst.mem_addr) {
                    done = done.max(m + 1);
                }
            }
            InstClass::Store => {
                mem_ready.insert(inst.mem_addr, done);
            }
            _ => {}
        }
        if let Some(r) = inst.dst {
            reg_ready[r.index()] = done;
        }

        // Branch handling: a mispredicted conditional branch stalls the
        // front end until it resolves plus the refill penalty.
        if inst.is_conditional_branch() {
            stats.cond_branches += 1;
            // Checked where consumed: a length check up front would cost
            // a counting walk over every record of the trace.
            let wrong = *mispredicted
                .get(flag_idx)
                .expect("need one misprediction flag per conditional branch");
            flag_idx += 1;
            if wrong {
                stats.mispredictions += 1;
                let redirect = done + u64::from(config.mispredict_penalty);
                if METRICS {
                    // Front-end bubble: cycles fetch is held past the
                    // cycle after this branch entered the window.
                    refetch_bubbles += redirect.saturating_sub(enter + 1);
                }
                fetch_base = fetch_base.max(redirect);
            }
        }

        // In-order retirement with bandwidth.
        let retire = done
            .max(last_retire)
            .max(retire_bw_ring.oldest() + 1);
        retire_bw_ring.record(retire);
        retire_ring.record(retire);
        last_retire = retire;
    }

    // Finite L2/DRAM bandwidth floors total execution time; this is what
    // ultimately bounds perfect-BP pipeline scaling (Fig. 1's ceiling).
    stats.cycles = last_retire.max(cache.bandwidth_floor_cycles()).max(1);

    if METRICS {
        let counters = PipeCounters::get();
        counters.sim_runs.incr();
        counters.instructions.add(stats.instructions);
        counters.cycles.add(stats.cycles);
        counters.flushes.add(stats.mispredictions);
        counters.refetch_bubbles.add(refetch_bubbles);
        counters.rob_stalls.add(rob_stalls);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{RetiredInst, Reg, TraceMeta};

    fn cfg() -> PipelineConfig {
        PipelineConfig::skylake()
    }

    fn alu(ip: u64, src: Option<u8>, dst: Option<u8>) -> RetiredInst {
        RetiredInst::op(
            ip,
            InstClass::Alu,
            src.map(Reg::new),
            None,
            dst.map(Reg::new),
            0,
        )
    }

    #[test]
    fn independent_stream_hits_fetch_width() {
        // Independent ALU ops: IPC should approach fetch_width.
        let mut t = Trace::new(TraceMeta::new("ind", 0));
        for i in 0..40_000u64 {
            // Rotate destinations, never reading them.
            t.push(alu(i * 4, None, Some((i % 8) as u8)));
        }
        let s = simulate(&t, &[], &cfg());
        let ipc = s.ipc();
        assert!(
            (3.5..=4.0).contains(&ipc),
            "independent stream IPC {ipc} should approach 4"
        );
    }

    #[test]
    fn dependency_chain_serializes() {
        // r1 = r1 + 1 chain: IPC must be ~1 (1-cycle latency).
        let mut t = Trace::new(TraceMeta::new("chain", 0));
        for i in 0..10_000u64 {
            t.push(alu(i * 4, Some(1), Some(1)));
        }
        let s = simulate(&t, &[], &cfg());
        let ipc = s.ipc();
        assert!((0.9..=1.1).contains(&ipc), "chain IPC {ipc} should be ~1");
    }

    #[test]
    fn load_latency_slows_chains() {
        // A pointer-chasing-style chain through loads.
        let mut t = Trace::new(TraceMeta::new("loads", 0));
        for i in 0..10_000u64 {
            t.push(RetiredInst::mem(
                i * 4,
                InstClass::Load,
                (i % 64) * 8,
                Some(Reg::new(1)),
                None,
                Some(Reg::new(1)),
                0,
            ));
        }
        let s = simulate(&t, &[], &cfg());
        let ipc = s.ipc();
        // The 64-line working set fits L1 after warmup: chain IPC is
        // bounded by the L1 hit latency.
        let expect = 1.0 / f64::from(cfg().cache.l1_latency);
        assert!(
            (ipc - expect).abs() < 0.05,
            "load chain IPC {ipc}, expected ~{expect}"
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let mut t = Trace::new(TraceMeta::new("br", 0));
        let mut flags = Vec::new();
        for i in 0..20_000u64 {
            if i % 10 == 0 {
                t.push(RetiredInst::cond_branch(i * 4, true, 0, Some(1), None));
                flags.push(i % 20 == 0); // every other branch mispredicted
            } else {
                t.push(alu(i * 4, None, Some((i % 8) as u8)));
            }
        }
        let with_miss = simulate(&t, &flags, &cfg());
        let no_miss = simulate(&t, &vec![false; flags.len()], &cfg());
        assert!(with_miss.cycles > no_miss.cycles * 2);
        assert_eq!(with_miss.mispredictions, 1000);
        assert_eq!(no_miss.mispredictions, 0);
    }

    #[test]
    fn perfect_prediction_scales_but_mispredicted_saturates() {
        // Mixed stream: branches every 8 instructions, all mispredicted in
        // one run, none in the other.
        let mut t = Trace::new(TraceMeta::new("scale", 0));
        let mut nbr = 0;
        for i in 0..40_000u64 {
            if i % 8 == 0 {
                t.push(RetiredInst::cond_branch(i * 4, true, 0, Some(1), None));
                nbr += 1;
            } else {
                t.push(alu(i * 4, None, Some((i % 8) as u8)));
            }
        }
        let base = cfg();
        let big = base.scaled(8);
        let all_wrong = vec![true; nbr];
        let none_wrong = vec![false; nbr];

        let perfect_1x = simulate(&t, &none_wrong, &base).ipc();
        let perfect_8x = simulate(&t, &none_wrong, &big).ipc();
        let bad_1x = simulate(&t, &all_wrong, &base).ipc();
        let bad_8x = simulate(&t, &all_wrong, &big).ipc();

        let perfect_gain = perfect_8x / perfect_1x;
        let bad_gain = bad_8x / bad_1x;
        assert!(perfect_gain > 3.0, "perfect should scale ({perfect_gain:.2}x)");
        assert!(bad_gain < 1.5, "mispredicted must saturate ({bad_gain:.2}x)");
    }

    #[test]
    fn store_load_forwarding_orders_memory() {
        // store to addr X, then a load from X: load can't finish before
        // the store's data is ready.
        let mut t = Trace::new(TraceMeta::new("stld", 0));
        // Long-latency producer chain for the store data.
        for i in 0..10u64 {
            t.push(RetiredInst::op(
                i * 4,
                InstClass::Mul,
                Some(Reg::new(2)),
                None,
                Some(Reg::new(2)),
                0,
            ));
        }
        t.push(RetiredInst::mem(
            100,
            InstClass::Store,
            0x40,
            Some(Reg::new(2)),
            None,
            None,
            0,
        ));
        t.push(RetiredInst::mem(
            104,
            InstClass::Load,
            0x40,
            None,
            None,
            Some(Reg::new(3)),
            0,
        ));
        let with_fwd = simulate(&t, &[], &cfg());
        // Without the store, the load would retire much earlier; total
        // cycles must reflect the mul chain (10 * 3 cycles) + forwarding.
        assert!(with_fwd.cycles >= 30);
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(TraceMeta::new("empty", 0));
        let s = simulate(&t, &[], &cfg());
        assert_eq!(s.instructions, 0);
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    #[should_panic(expected = "misprediction flag")]
    fn missing_flags_panic() {
        let mut t = Trace::new(TraceMeta::new("b", 0));
        t.push(RetiredInst::cond_branch(4, true, 0, None, None));
        let _ = simulate(&t, &[], &cfg());
    }

    /// `AddrMap` must behave exactly like a `HashMap` for the scoreboard's
    /// access pattern (overwriting inserts + lookups), including through
    /// growth and at the `u64::MAX` sentinel boundary.
    #[test]
    fn addr_map_matches_hash_map() {
        let mut fast = AddrMap::with_capacity(4);
        let mut slow = std::collections::HashMap::new();
        let mut state = 99u64;
        for i in 0..50_000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Mixed footprint with deliberate collisions and edge keys.
            let addr = match state % 5 {
                0 => state >> 40,
                1 => (state >> 30) & 0xFFF,
                2 => u64::MAX,
                3 => 0,
                _ => state,
            };
            if state.is_multiple_of(3) {
                fast.insert(addr, i);
                slow.insert(addr, i);
            } else {
                assert_eq!(fast.get(addr), slow.get(&addr).copied(), "addr {addr:#x}");
            }
        }
        assert_eq!(fast.len, slow.len() - usize::from(slow.contains_key(&u64::MAX)));
    }
}
