//! A compact two-level data-cache model.
//!
//! The ChampSim runs behind the paper's IPC numbers include a full memory
//! hierarchy; without one, branch misprediction cost dominates and
//! pipeline scaling is unbounded. This model gives loads realistic,
//! footprint-dependent latencies: direct-mapped L1D and L2 tag arrays with
//! allocate-on-access, and a flat DRAM latency behind them. Cache sizes do
//! *not* scale with pipeline capacity (the paper scales core resources
//! only), which produces the memory wall that bounds the Fig. 1 curves.

/// Cache geometry and latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// log2 of L1D capacity in bytes.
    pub l1_log2_bytes: u32,
    /// log2 of L2 capacity in bytes.
    pub l2_log2_bytes: u32,
    /// L1 hit latency (cycles).
    pub l1_latency: u32,
    /// L2 hit latency (cycles).
    pub l2_latency: u32,
    /// Memory latency (cycles).
    pub mem_latency: u32,
    /// Throughput bound: average cycles of L2 bandwidth consumed per L2
    /// access (applied as a floor on total cycles).
    pub l2_service: u32,
    /// Throughput bound: average cycles of DRAM bandwidth consumed per
    /// memory access. This fixed bandwidth is a key reason pipeline
    /// scaling saturates even under perfect branch prediction.
    pub mem_service: u32,
}

impl CacheConfig {
    /// A Skylake-like hierarchy: 32KB L1D, 1MB L2, ~120-cycle DRAM.
    #[must_use]
    pub fn skylake() -> Self {
        CacheConfig {
            l1_log2_bytes: 15,
            l2_log2_bytes: 20,
            l1_latency: 4,
            l2_latency: 14,
            mem_latency: 120,
            l2_service: 2,
            mem_service: 8,
        }
    }

    /// The bandwidth floor of an access stream with `l2_accesses` L2
    /// accesses (L2 hits plus misses), `misses` of which went to memory.
    pub(crate) fn bandwidth_floor(&self, l2_accesses: u64, misses: u64) -> u64 {
        (l2_accesses * u64::from(self.l2_service)).max(misses * u64::from(self.mem_service))
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::skylake()
    }
}

const LINE_LOG2: u32 = 6;

/// Runtime state of the cache model.
#[derive(Clone, Debug)]
pub struct CacheModel {
    config: CacheConfig,
    l1: Vec<u64>,
    l2: Vec<u64>,
    hits_l1: u64,
    hits_l2: u64,
    misses: u64,
}

const INVALID: u64 = u64::MAX;

impl CacheModel {
    /// Creates an empty (all-invalid) cache model.
    ///
    /// # Panics
    ///
    /// Panics if capacities are below one line or above 2^30 bytes.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!((LINE_LOG2..=30).contains(&config.l1_log2_bytes));
        assert!((LINE_LOG2..=30).contains(&config.l2_log2_bytes));
        CacheModel {
            l1: vec![INVALID; 1 << (config.l1_log2_bytes - LINE_LOG2)],
            l2: vec![INVALID; 1 << (config.l2_log2_bytes - LINE_LOG2)],
            hits_l1: 0,
            hits_l2: 0,
            misses: 0,
            config,
        }
    }

    /// Simulates an access to byte address `addr`, returning its latency
    /// and allocating the line in both levels.
    pub fn access(&mut self, addr: u64) -> u32 {
        let line = addr >> LINE_LOG2;
        let i1 = (line as usize) & (self.l1.len() - 1);
        let i2 = (line as usize) & (self.l2.len() - 1);
        if self.l1[i1] == line {
            self.hits_l1 += 1;
            return self.config.l1_latency;
        }
        let latency = if self.l2[i2] == line {
            self.hits_l2 += 1;
            self.config.l2_latency
        } else {
            self.misses += 1;
            self.config.mem_latency
        };
        self.l1[i1] = line;
        self.l2[i2] = line;
        latency
    }

    /// The minimum number of cycles the observed access stream needs under
    /// the configured L2/DRAM bandwidth — a floor on total execution time.
    #[must_use]
    pub fn bandwidth_floor_cycles(&self) -> u64 {
        self.config
            .bandwidth_floor(self.hits_l2 + self.misses, self.misses)
    }

    /// `(l1 hits, l2 hits, memory accesses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits_l1, self.hits_l2, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = CacheModel::new(CacheConfig::skylake());
        assert_eq!(c.access(0x1000), 120);
        assert_eq!(c.access(0x1000), 4);
        assert_eq!(c.access(0x1008), 4); // same 64B line
        assert_eq!(c.stats(), (2, 0, 1));
    }

    #[test]
    fn l1_conflict_falls_back_to_l2() {
        let cfg = CacheConfig::skylake();
        let l1_lines = 1u64 << (cfg.l1_log2_bytes - LINE_LOG2);
        let mut c = CacheModel::new(cfg);
        let a = 0u64;
        let b = a + (l1_lines << LINE_LOG2); // maps to same L1 set, different L2 set
        assert_eq!(c.access(a), 120);
        assert_eq!(c.access(b), 120); // evicts a from L1
        assert_eq!(c.access(a), 14); // L2 hit
    }

    #[test]
    fn working_set_within_l1_always_hits_after_warmup() {
        let mut c = CacheModel::new(CacheConfig::skylake());
        for pass in 0..2 {
            for addr in (0..16_384u64).step_by(64) {
                let lat = c.access(addr);
                if pass == 1 {
                    assert_eq!(lat, 4, "addr {addr:#x} should hit L1");
                }
            }
        }
    }

    #[test]
    fn huge_random_footprint_mostly_misses() {
        let mut c = CacheModel::new(CacheConfig::skylake());
        let mut state = 1u64;
        let mut slow = 0;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let addr = state % (64 << 20); // 64MB footprint
            if c.access(addr) > 14 {
                slow += 1;
            }
        }
        assert!(slow > 9_000, "random 64MB footprint should miss: {slow}");
    }
}
