//! TAGE: TAgged GEometric history length predictor (Seznec).
//!
//! The backbone of TAGE-SC-L (§II). A bimodal base table is backed by a
//! series of tagged tables indexed with geometrically increasing history
//! lengths; the longest tag hit provides the prediction. Entries carry a
//! usefulness counter driving allocation and reclamation — the mechanism
//! whose thrashing on H2P branches the paper measures in §IV-A. The
//! [`AllocationTracker`] instrumentation reproduces those measurements.
//!
//! # Replay hot path
//!
//! This implementation is the throughput-critical inner loop of every
//! study (see `PERFORMANCE.md` §1). At the 8KB budget every table fits in
//! L1, so the cost is instructions per branch, and the layout is chosen
//! to keep that count low:
//!
//! * Tagged entries live in flat structure-of-arrays tables
//!   (`ctrs`/`tags`/`useful`, entry `(t, i)` at `t << table_log2 | i`).
//! * Banks are processed in groups of four `u32` lanes: the index, tag0
//!   and tag1 folded-history registers, and the per-branch index and tag
//!   hashes, are `[u32; 4]` arrays with per-lane constants fixed at
//!   construction (path mask, fold point, bank base). Each bank's
//!   outgoing history bit is read once per branch. Plain array loops of
//!   this shape compile to SIMD on the baseline target, with no
//!   `unsafe` and no target features.
//! * The provider and the alternate are the two highest set bits of a
//!   tag-hit bitmask, instead of an early-exit scan over the banks.
//! * The offsets and tags computed by `predict` stay in predictor-owned
//!   arrays for `update` and allocation; usefulness aging is a
//!   countdown instead of a 64-bit remainder per branch.
//! * Saturating counters step through the branchless
//!   [`crate::sat_update`] kernel.
//!
//! The per-entry formulation is retained as test support
//! (`tests/naive/`), and `tests/bit_identity.rs` proves both produce
//! identical prediction streams and final state.

use std::collections::{HashMap, HashSet};

use bp_metrics::Counter;

use crate::counter::{sat_is_strong, sat_is_weak, sat_taken, sat_update, SignedCounter};
use crate::digest::Fnv;
use crate::history::{BitHistory, PathHistory};
use crate::Predictor;

/// Upper bound on `TageConfig::num_tables`, sized so the per-bank lane
/// arrays are fixed-size fields.
const MAX_BANKS: usize = 24;

/// Banks per lane group.
const LANES: usize = 4;

/// Lane groups covering `MAX_BANKS` banks.
const MAX_GROUPS: usize = MAX_BANKS / LANES;

// The index hash shifts bank `t`'s second IP term by `table_log2 - t % 4`;
// with four lanes per group, lane `k` of every group is a bank with
// `t % 4 == k`, so one lane of shifts serves every group.
const _: () = assert!(LANES == 4 && MAX_BANKS.is_multiple_of(LANES));

/// One `u32` per bank of a lane group.
type Lane = [u32; LANES];

/// Saturation points of the table counters: 3-bit tagged direction
/// counters, 2-bit usefulness counters, 2-bit bimodal counters.
const CTR_MAX: u8 = 7;
const USEFUL_MAX: u8 = 3;
const BIMODAL_MAX: u8 = 3;

/// Geometry and policy parameters for a [`Tage`] predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 entries of the bimodal base table.
    pub bimodal_log2: u32,
    /// Number of tagged tables.
    pub num_tables: usize,
    /// log2 entries per tagged table.
    pub table_log2: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
    /// Shortest tagged history length.
    pub min_hist: usize,
    /// Longest tagged history length (1,000 at 8KB, 3,000 at ≥64KB in the
    /// paper's configurations).
    pub max_hist: usize,
    /// Updates between graceful usefulness-counter aging events.
    pub u_reset_period: u64,
}

impl TageConfig {
    /// Validates and computes the geometric history-length series.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range (see source asserts).
    #[must_use]
    pub fn history_lengths(&self) -> Vec<usize> {
        assert!((1..=24).contains(&self.bimodal_log2));
        assert!((2..=MAX_BANKS).contains(&self.num_tables));
        assert!((1..=24).contains(&self.table_log2));
        assert!((6..=15).contains(&self.tag_bits));
        assert!(self.min_hist >= 2 && self.max_hist > self.min_hist);
        let n = self.num_tables;
        let ratio = (self.max_hist as f64 / self.min_hist as f64).powf(1.0 / (n - 1) as f64);
        let mut lengths = Vec::with_capacity(n);
        let mut prev = 0usize;
        for i in 0..n {
            let mut l = (self.min_hist as f64 * ratio.powi(i as i32)).round() as usize;
            if l <= prev {
                l = prev + 1;
            }
            lengths.push(l);
            prev = l;
        }
        lengths
    }
}

impl Default for TageConfig {
    /// An 8KB-class TAGE (before SC/L components).
    fn default() -> Self {
        TageConfig {
            bimodal_log2: 12,
            num_tables: 10,
            table_log2: 8,
            tag_bits: 9,
            min_hist: 4,
            max_hist: 1000,
            u_reset_period: 1 << 18,
        }
    }
}

/// Records TAGE table-entry allocations per branch IP, reproducing the
/// §IV-A measurements (median allocations and unique entries per H2P vs
/// non-H2P branch).
#[derive(Clone, Debug, Default)]
pub struct AllocationTracker {
    allocations: HashMap<u64, u64>,
    unique: HashMap<u64, HashSet<u32>>,
}

impl AllocationTracker {
    fn record(&mut self, ip: u64, table: usize, index: usize) {
        *self.allocations.entry(ip).or_default() += 1;
        self.unique
            .entry(ip)
            .or_default()
            .insert(((table as u32) << 24) | index as u32);
    }

    /// Total allocations performed on behalf of `ip`.
    #[must_use]
    pub fn allocations(&self, ip: u64) -> u64 {
        self.allocations.get(&ip).copied().unwrap_or(0)
    }

    /// Number of distinct (table, entry) slots ever allocated for `ip`.
    #[must_use]
    pub fn unique_entries(&self, ip: u64) -> usize {
        self.unique.get(&ip).map_or(0, HashSet::len)
    }

    /// All IPs that triggered at least one allocation.
    pub fn ips(&self) -> impl Iterator<Item = u64> + '_ {
        self.allocations.keys().copied()
    }

    /// Grand total of allocations across all IPs.
    #[must_use]
    pub fn total_allocations(&self) -> u64 {
        self.allocations.values().sum()
    }
}

/// Global `bp-metrics` counter handles, resolved once per predictor
/// construction. All handles are no-ops unless `BRANCH_LAB_METRICS`
/// enables the registry, so the hot path pays one predictable branch.
/// Counters aggregate across every `Tage` instance in the process.
#[derive(Clone, Debug)]
struct TageCounters {
    /// Snapshot of [`bp_metrics::enabled`] at construction: the whole
    /// per-prediction counting block sits behind this one predictable
    /// branch, because even disabled `Counter` null-checks are measurable
    /// at several sites per lookup.
    on: bool,
    /// Prediction-context computations ("table lookups").
    lookups: Counter,
    /// Lookups where no tagged table hit (bimodal base provided).
    base_predictions: Counter,
    /// Per-bank provider hits: `tage.bankNN.hit`.
    bank_hits: Vec<Counter>,
    /// Per-bank successful allocations: `tage.bankNN.alloc`.
    bank_allocs: Vec<Counter>,
    /// Mispredictions where every candidate entry was useful (no room).
    alloc_failures: Counter,
    /// Predictions where the newly-allocated provider was overridden by
    /// the alternate prediction (`use_alt_on_na` policy).
    alt_overrides: Counter,
    /// Graceful usefulness-aging events.
    u_resets: Counter,
}

impl TageCounters {
    fn new(num_tables: usize) -> Self {
        TageCounters {
            on: bp_metrics::enabled(),
            lookups: Counter::get("tage.lookup"),
            base_predictions: Counter::get("tage.base_pred"),
            bank_hits: (0..num_tables)
                .map(|t| Counter::get(&format!("tage.bank{t:02}.hit")))
                .collect(),
            bank_allocs: (0..num_tables)
                .map(|t| Counter::get(&format!("tage.bank{t:02}.alloc")))
                .collect(),
            alloc_failures: Counter::get("tage.alloc_fail"),
            alt_overrides: Counter::get("tage.alt_override"),
            u_resets: Counter::get("tage.u_reset"),
        }
    }
}

/// The scalar results of the last lookup, consumed by `update`. The
/// per-bank offsets and tags it was computed from stay in
/// [`Tage::offs`] and [`Tage::cur_tags`].
#[derive(Clone, Copy, Debug, Default)]
struct Lookup {
    /// Branch looked up; `None` once `update` has consumed the lookup.
    ip: Option<u64>,
    bimodal: usize,
    provider: Option<usize>,
    alt_pred: bool,
    provider_pred: bool,
    provider_new: bool,
    /// Provider (or bimodal) counter at a saturation point — cached here
    /// so [`Tage::last_confidence_high`] doesn't re-read the tables.
    confident: bool,
    pred: bool,
}

/// Per-lane hash and folding constants, fixed at construction. Lane `k`
/// of group `g` is bank `g * LANES + k`; lanes past `num_tables` pad the
/// last group with zero constants, and nothing reads their results.
#[derive(Clone, Debug)]
struct LaneGeom {
    /// Lane groups in use: `num_tables` rounded up to whole groups.
    groups: usize,
    /// Bank `t`'s first entry in the flat tables: `t << table_log2`.
    base: [Lane; MAX_GROUPS],
    /// Path-history bits hashed into bank `t`'s index (`lengths[t]`,
    /// capped at 16).
    path_mask: [Lane; MAX_GROUPS],
    /// `1 << (lengths[t] % width)` for the index, tag0 and tag1
    /// registers: where each folds in the bit leaving bank `t`'s history.
    out_idx: [Lane; MAX_GROUPS],
    out_tag0: [Lane; MAX_GROUPS],
    out_tag1: [Lane; MAX_GROUPS],
    /// Second IP term shift by lane: `table_log2 - k`, saturating.
    ip_shift: Lane,
    /// `lengths[t] - 1`: the age of the history bit leaving bank `t`.
    out_age: [usize; MAX_BANKS],
}

impl LaneGeom {
    fn new(config: &TageConfig, lengths: &[usize]) -> Self {
        let mut g = LaneGeom {
            groups: lengths.len().div_ceil(LANES),
            base: [[0; LANES]; MAX_GROUPS],
            path_mask: [[0; LANES]; MAX_GROUPS],
            out_idx: [[0; LANES]; MAX_GROUPS],
            out_tag0: [[0; LANES]; MAX_GROUPS],
            out_tag1: [[0; LANES]; MAX_GROUPS],
            ip_shift: [0; LANES],
            out_age: [0; MAX_BANKS],
        };
        for (k, shift) in g.ip_shift.iter_mut().enumerate() {
            *shift = config.table_log2.saturating_sub(k as u32);
        }
        let fold_point = |l: usize, width: u32| 1u32 << (l % width as usize);
        for (t, &l) in lengths.iter().enumerate() {
            let (grp, k) = (t / LANES, t % LANES);
            g.base[grp][k] = (t as u32) << config.table_log2;
            g.path_mask[grp][k] = (1u32 << l.min(16)) - 1;
            g.out_idx[grp][k] = fold_point(l, config.table_log2);
            g.out_tag0[grp][k] = fold_point(l, config.tag_bits);
            g.out_tag1[grp][k] = fold_point(l, config.tag_bits - 1);
            g.out_age[t] = l - 1;
        }
        g
    }
}

/// One branch of folded-history update over a lane group: shift in
/// `incoming`, fold in each lane's outgoing bit (`outgoing` lanes are all
/// ones or zero) at its fold point, and wrap bit `width` back to bit 0 —
/// the cyclic-shift-register step of [`crate::FoldedHistory::update`],
/// in `u32` lanes (every width here is at most 24 bits).
#[inline]
fn fold_lanes(reg: &mut Lane, incoming: u32, outgoing: &Lane, fold_point: &Lane, width: u32) {
    let mask = (1u32 << width) - 1;
    for k in 0..LANES {
        let c = ((reg[k] << 1) | incoming) ^ (outgoing[k] & fold_point[k]);
        reg[k] = (c ^ (c >> width)) & mask;
    }
}

/// The TAGE predictor.
///
/// `predict` must be followed by `update` for the same branch before the
/// next `predict` (the [`Predictor`] contract); internal prediction state
/// is carried between the two calls, as in hardware.
///
/// # Examples
///
/// ```
/// use bp_predictors::{Predictor, Tage, TageConfig};
///
/// let mut t = Tage::new(TageConfig::default());
/// // A period-2 branch is learned almost immediately.
/// let mut correct = 0;
/// for i in 0..400 {
///     let taken = i % 2 == 0;
///     let pred = t.predict(0x1234);
///     t.update(0x1234, taken, pred);
///     if i >= 200 { correct += u32::from(pred == taken); }
/// }
/// assert!(correct > 190);
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    config: TageConfig,
    lengths: Vec<usize>,
    /// Bimodal base counters (2-bit lanes).
    bimodal: Vec<u8>,
    /// Tagged-table lanes, structure-of-arrays: entry `(t, i)` lives at
    /// offset `(t << table_log2) + i` in each lane. One contiguous block
    /// per lane keeps the provider scan and update in a few cache lines.
    ctrs: Vec<u8>,
    tags: Vec<u16>,
    useful: Vec<u8>,
    /// Folded-history registers, `[group][lane]` by bank.
    fold_idx: [Lane; MAX_GROUPS],
    fold_tag0: [Lane; MAX_GROUPS],
    fold_tag1: [Lane; MAX_GROUPS],
    geom: LaneGeom,
    ghist: BitHistory,
    path: PathHistory,
    use_alt_on_na: SignedCounter,
    lfsr: u64,
    updates: u64,
    /// Updates left until the next usefulness aging; stays 0 (never ages)
    /// when `u_reset_period` is 0.
    u_countdown: u64,
    /// Flat table offset of each bank's entry for the last lookup.
    offs: [Lane; MAX_GROUPS],
    /// Each bank's tag for the last lookup.
    cur_tags: [Lane; MAX_GROUPS],
    look: Lookup,
    tracker: Option<Box<AllocationTracker>>,
    counters: TageCounters,
}

impl Tage {
    /// Creates a TAGE predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TageConfig::history_lengths`]).
    #[must_use]
    pub fn new(config: TageConfig) -> Self {
        let lengths = config.history_lengths();
        let tagged_entries = config.num_tables << config.table_log2;
        Tage {
            ghist: BitHistory::new(config.max_hist + 8),
            bimodal: vec![BIMODAL_MAX / 2; 1 << config.bimodal_log2],
            ctrs: vec![CTR_MAX / 2; tagged_entries],
            tags: vec![0; tagged_entries],
            useful: vec![0; tagged_entries],
            fold_idx: [[0; LANES]; MAX_GROUPS],
            fold_tag0: [[0; LANES]; MAX_GROUPS],
            fold_tag1: [[0; LANES]; MAX_GROUPS],
            geom: LaneGeom::new(&config, &lengths),
            path: PathHistory::new(),
            use_alt_on_na: SignedCounter::new(4),
            lfsr: 0xACE1_u64,
            updates: 0,
            u_countdown: config.u_reset_period,
            offs: [[0; LANES]; MAX_GROUPS],
            cur_tags: [[0; LANES]; MAX_GROUPS],
            look: Lookup::default(),
            counters: TageCounters::new(config.num_tables),
            lengths,
            config,
            tracker: None,
        }
    }

    /// Enables per-IP allocation instrumentation (off by default; costs a
    /// hash-map update per allocation).
    pub fn enable_instrumentation(&mut self) {
        if self.tracker.is_none() {
            self.tracker = Some(Box::default());
        }
    }

    /// Allocation statistics, if instrumentation is enabled.
    #[must_use]
    pub fn tracker(&self) -> Option<&AllocationTracker> {
        self.tracker.as_deref()
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TageConfig {
        &self.config
    }

    /// The geometric history-length series.
    #[must_use]
    pub fn lengths(&self) -> &[usize] {
        &self.lengths
    }

    /// Flat table offset of bank `t`'s entry for the last lookup.
    #[inline]
    fn off(&self, t: usize) -> usize {
        self.offs[t / LANES][t % LANES] as usize
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        let mut x = self.lfsr;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.lfsr = x;
        x
    }

    #[inline]
    fn bimodal_index(&self, ip: u64) -> usize {
        ((ip >> 2) & ((1u64 << self.config.bimodal_log2) - 1)) as usize
    }

    /// Looks `ip` up in every bank and records the result in `offs`,
    /// `cur_tags` and `look` (used by both `predict` and the statistical
    /// corrector, which needs provider confidence).
    fn lookup(&mut self, ip: u64) {
        let g = &self.geom;
        let ip2 = ip >> 2;
        // Bank index: folded history ^ ip ^ (ip >> shift) ^ masked path;
        // only the low `table_log2` bits survive, so `u32` lanes suffice.
        let mut ip_term = [0u32; LANES];
        for (term, &shift) in ip_term.iter_mut().zip(&g.ip_shift) {
            *term = (ip2 ^ (ip2 >> shift)) as u32;
        }
        let path = self.path.value() as u32;
        let idx_mask = (1u32 << self.config.table_log2) - 1;
        let tag_mask = (1u32 << self.config.tag_bits) - 1;
        for grp in 0..g.groups {
            let (fi, base, pmask) = (&self.fold_idx[grp], &g.base[grp], &g.path_mask[grp]);
            let (f0, f1) = (&self.fold_tag0[grp], &self.fold_tag1[grp]);
            let (offs, tags) = (&mut self.offs[grp], &mut self.cur_tags[grp]);
            for k in 0..LANES {
                offs[k] = base[k] | ((fi[k] ^ ip_term[k] ^ (path & pmask[k])) & idx_mask);
                tags[k] = ((ip2 as u32) ^ f0[k] ^ (f1[k] << 1)) & tag_mask;
            }
        }
        let n = self.config.num_tables;
        let mut hits = 0u32;
        let offs = &self.offs.as_flattened()[..n];
        for (t, (&off, &tag)) in offs.iter().zip(self.cur_tags.as_flattened()).enumerate() {
            hits |= u32::from(u32::from(self.tags[off as usize]) == tag) << t;
        }
        // The longest-history hit provides; the next longest is the
        // alternate.
        let provider = (hits != 0).then(|| hits.ilog2() as usize);
        let rest = provider.map_or(0, |p| hits ^ (1 << p));
        let alt = (rest != 0).then(|| rest.ilog2() as usize);

        let bimodal = self.bimodal_index(ip);
        let bimodal_ctr = self.bimodal[bimodal];
        let bimodal_pred = sat_taken(bimodal_ctr, BIMODAL_MAX);
        let alt_pred = match alt {
            Some(t) => sat_taken(self.ctrs[self.off(t)], CTR_MAX),
            None => bimodal_pred,
        };
        let (provider_pred, provider_new, confident) = match provider {
            Some(t) => {
                let off = self.off(t);
                let ctr = self.ctrs[off];
                // An entry is "not yet trustworthy" until it has either
                // left the weak counter states or proven useful (predicted
                // correctly against the alternate at least once). Deferring
                // to the alternate until then keeps noise-allocated
                // entries from overriding the base predictor's long-run
                // per-IP statistics on rare branches.
                (
                    sat_taken(ctr, CTR_MAX),
                    sat_is_weak(ctr, CTR_MAX) || self.useful[off] == 0,
                    sat_is_strong(ctr, CTR_MAX),
                )
            }
            None => (bimodal_pred, false, sat_is_strong(bimodal_ctr, BIMODAL_MAX)),
        };
        let used_alt = provider.is_some() && provider_new && self.use_alt_on_na.value() >= 0;
        let pred = if used_alt { alt_pred } else { provider_pred };
        if self.counters.on {
            self.counters.lookups.incr();
            match provider {
                Some(t) => self.counters.bank_hits[t].incr(),
                None => self.counters.base_predictions.incr(),
            }
            if used_alt {
                self.counters.alt_overrides.incr();
            }
        }
        self.look = Lookup {
            ip: Some(ip),
            bimodal,
            provider,
            alt_pred,
            provider_pred,
            provider_new,
            confident,
            pred,
        };
    }

    /// Whether the last prediction came from a high-confidence provider
    /// (used by the statistical corrector to decide when to intervene).
    ///
    /// The confidence is captured at `predict` time, when the provider
    /// counter is already in hand — no table state changes between
    /// `predict` and this call under the [`Predictor`] contract.
    #[must_use]
    pub fn last_confidence_high(&self) -> bool {
        self.look.ip.is_some() && self.look.confident
    }

    fn allocate(&mut self, ip: u64, provider: Option<usize>, taken: bool) {
        let n = self.config.num_tables;
        let start = provider.map_or(0, |p| p + 1);
        if start >= n {
            return;
        }
        // Candidate banks with a free (u == 0) entry, as a bitmask.
        let mut free = 0u32;
        for t in start..n {
            free |= u32::from(self.useful[self.off(t)] == 0) << t;
        }
        if free == 0 {
            // No room: age the would-be victims so future allocations can
            // succeed (TAGE's anti-ping-pong mechanism).
            for t in start..n {
                let off = self.off(t);
                self.useful[off] = sat_update(self.useful[off], USEFUL_MAX, false);
            }
            if self.counters.on {
                self.counters.alloc_failures.incr();
            }
            return;
        }
        // Prefer shorter histories with geometric probability, as in the
        // reference implementation.
        let mut chosen = free.trailing_zeros() as usize;
        let mut rest = free & (free - 1);
        while rest != 0 {
            if self.next_rand().is_multiple_of(2) {
                break;
            }
            chosen = rest.trailing_zeros() as usize;
            rest &= rest - 1;
        }
        let off = self.off(chosen);
        self.tags[off] = self.cur_tags[chosen / LANES][chosen % LANES] as u16;
        self.ctrs[off] = CTR_MAX / 2 + u8::from(taken);
        self.useful[off] = 0;
        if self.counters.on {
            self.counters.bank_allocs[chosen].incr();
        }
        if let Some(tracker) = self.tracker.as_deref_mut() {
            let idx = off & ((1 << self.config.table_log2) - 1);
            tracker.record(ip, chosen, idx);
        }
    }

    fn age_useful(&mut self) {
        self.counters.u_resets.incr();
        for u in &mut self.useful {
            *u >>= 1;
        }
    }

    fn push_history(&mut self, ip: u64, taken: bool) {
        let g = &self.geom;
        // Each bank's outgoing bit, as an all-ones or all-zeros lane.
        let mut outgoing = [[0u32; LANES]; MAX_GROUPS];
        let ages = &g.out_age[..self.config.num_tables];
        for (out, &age) in outgoing.as_flattened_mut().iter_mut().zip(ages) {
            *out = 0u32.wrapping_sub(u32::from(self.ghist.bit(age)));
        }
        let incoming = u32::from(taken);
        let (iw, tw) = (self.config.table_log2, self.config.tag_bits);
        for (grp, out) in outgoing.iter().enumerate().take(g.groups) {
            let fold = |reg: &mut Lane, points: &Lane, w| fold_lanes(reg, incoming, out, points, w);
            fold(&mut self.fold_idx[grp], &g.out_idx[grp], iw);
            fold(&mut self.fold_tag0[grp], &g.out_tag0[grp], tw);
            fold(&mut self.fold_tag1[grp], &g.out_tag1[grp], tw - 1);
        }
        self.ghist.push(taken);
        self.path.push(ip);
    }

    /// FNV-1a digest of the complete architectural state: every table
    /// counter and tag, folded-history register, and policy counter.
    /// Used by the bit-identity suite to compare against the naive
    /// reference TAGE in `tests/naive/` — see `tests/bit_identity.rs`.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for &b in &self.bimodal {
            h.push(u64::from(b));
        }
        for off in 0..self.tags.len() {
            h.push(u64::from(self.ctrs[off]));
            h.push(u64::from(self.tags[off]));
            h.push(u64::from(self.useful[off]));
        }
        for t in 0..self.config.num_tables {
            let (grp, k) = (t / LANES, t % LANES);
            h.push(u64::from(self.fold_idx[grp][k]));
            h.push(u64::from(self.fold_tag0[grp][k]));
            h.push(u64::from(self.fold_tag1[grp][k]));
        }
        h.push(self.path.value());
        h.push(self.use_alt_on_na.value() as u64);
        h.push(self.lfsr);
        h.push(self.updates);
        h.finish()
    }
}

impl Predictor for Tage {
    fn name(&self) -> &'static str {
        "tage"
    }

    fn predict(&mut self, ip: u64) -> bool {
        self.lookup(ip);
        self.look.pred
    }

    fn update(&mut self, ip: u64, taken: bool, _pred: bool) {
        // Tolerate a missed predict (e.g. after clone) by looking up again.
        if self.look.ip != Some(ip) {
            self.lookup(ip);
        }
        self.look.ip = None;
        let look = self.look;
        self.updates += 1;

        // Train the provider (or the bimodal base).
        match look.provider {
            Some(t) => {
                let off = self.off(t);
                // Usefulness: provider proved better/worse than alt.
                if look.provider_pred != look.alt_pred {
                    let correct = look.provider_pred == taken;
                    self.useful[off] = sat_update(self.useful[off], USEFUL_MAX, correct);
                }
                self.ctrs[off] = sat_update(self.ctrs[off], CTR_MAX, taken);
                // When the provider entry is fresh, also train the alt
                // chooser.
                if look.provider_new && look.provider_pred != look.alt_pred {
                    self.use_alt_on_na.update(look.alt_pred == taken);
                }
                // Keep the bimodal warm when it served as the alternate.
                if look.provider_new {
                    let b = look.bimodal;
                    self.bimodal[b] = sat_update(self.bimodal[b], BIMODAL_MAX, taken);
                }
            }
            None => {
                let b = look.bimodal;
                self.bimodal[b] = sat_update(self.bimodal[b], BIMODAL_MAX, taken);
            }
        }

        // Allocate a longer-history entry on a TAGE misprediction.
        if look.pred != taken {
            self.allocate(ip, look.provider, taken);
        }

        // Age usefulness every `u_reset_period` updates.
        if self.u_countdown == 1 {
            self.age_useful();
            self.u_countdown = self.config.u_reset_period;
        } else {
            self.u_countdown = self.u_countdown.saturating_sub(1);
        }

        self.push_history(ip, taken);
    }

    fn storage_bits(&self) -> usize {
        let entry_bits = (3 + 2 + self.config.tag_bits) as usize;
        self.bimodal.len() * 2 + self.tags.len() * entry_bits + self.config.max_hist + 64
    }

    fn state_digest(&self) -> u64 {
        Tage::state_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train_seq(t: &mut Tage, seq: &[(u64, bool)], skip: usize) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, &(ip, taken)) in seq.iter().enumerate() {
            let p = t.predict(ip);
            t.update(ip, taken, p);
            if i >= skip {
                total += 1;
                correct += usize::from(p == taken);
            }
        }
        correct as f64 / total.max(1) as f64
    }

    #[test]
    fn history_lengths_are_geometric_and_increasing() {
        let cfg = TageConfig::default();
        let l = cfg.history_lengths();
        assert_eq!(l.len(), cfg.num_tables);
        assert_eq!(*l.first().unwrap(), cfg.min_hist);
        assert_eq!(*l.last().unwrap(), cfg.max_hist);
        assert!(l.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn learns_biased_branch() {
        let mut t = Tage::new(TageConfig::default());
        let seq: Vec<_> = (0..300).map(|_| (0x400u64, true)).collect();
        assert!(train_seq(&mut t, &seq, 50) > 0.99);
    }

    #[test]
    fn learns_period_four_pattern() {
        let mut t = Tage::new(TageConfig::default());
        let seq: Vec<_> = (0..2000).map(|i| (0x400u64, i % 4 < 2)).collect();
        let acc = train_seq(&mut t, &seq, 500);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_cross_branch_correlation() {
        // B mirrors A, separated by two fixed noise branches.
        let mut t = Tage::new(TageConfig::default());
        let mut state = 5u64;
        let mut a = false;
        let mut seq = Vec::new();
        for i in 0..12000u64 {
            match i % 4 {
                0 => {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    a = (state >> 33) & 1 == 1;
                    seq.push((0x100, a));
                }
                1 => seq.push((0x110, true)),
                2 => seq.push((0x120, false)),
                _ => seq.push((0x200, a)),
            }
        }
        // Measure only branch B (0x200).
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, &(ip, taken)) in seq.iter().enumerate() {
            let p = t.predict(ip);
            t.update(ip, taken, p);
            if i > 4000 && ip == 0x200 {
                total += 1;
                correct += usize::from(p == taken);
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.97, "correlated accuracy {acc}");
    }

    #[test]
    fn random_branch_is_not_learnable() {
        let mut t = Tage::new(TageConfig::default());
        let mut state = 17u64;
        let seq: Vec<_> = (0..4000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0x400u64, (state >> 35) & 1 == 1)
            })
            .collect();
        let acc = train_seq(&mut t, &seq, 1000);
        assert!((0.35..0.65).contains(&acc), "random accuracy {acc}");
    }

    #[test]
    fn allocation_tracking_counts_unique_entries() {
        let mut t = Tage::new(TageConfig::default());
        t.enable_instrumentation();
        let mut state = 23u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (state >> 37) & 1 == 1;
            let p = t.predict(0x700);
            t.update(0x700, taken, p);
        }
        let tr = t.tracker().unwrap();
        // A random branch triggers many allocations, reusing entries.
        assert!(tr.allocations(0x700) > 100);
        assert!(tr.unique_entries(0x700) > 10);
        assert!(tr.allocations(0x700) >= tr.unique_entries(0x700) as u64);
    }

    #[test]
    fn predictable_branch_allocates_little() {
        let mut t = Tage::new(TageConfig::default());
        t.enable_instrumentation();
        for i in 0..4000 {
            let taken = i % 2 == 0;
            let p = t.predict(0x900);
            t.update(0x900, taken, p);
        }
        let tr = t.tracker().unwrap();
        assert!(
            tr.allocations(0x900) < 30,
            "predictable branch allocated {} times",
            tr.allocations(0x900)
        );
    }

    #[test]
    fn storage_bits_scales_with_tables() {
        let small = Tage::new(TageConfig::default());
        let big = Tage::new(TageConfig {
            table_log2: 11,
            bimodal_log2: 14,
            max_hist: 3000,
            ..TageConfig::default()
        });
        assert!(big.storage_bits() > 4 * small.storage_bits());
    }

    #[test]
    fn update_without_predict_recovers() {
        let mut t = Tage::new(TageConfig::default());
        // Call update directly; the predictor must recompute context.
        t.update(0x40, true, true);
        let _ = t.predict(0x40);
    }

    #[test]
    fn state_digest_tracks_training() {
        let mut a = Tage::new(TageConfig::default());
        let b = Tage::new(TageConfig::default());
        assert_eq!(a.state_digest(), b.state_digest());
        let p = a.predict(0x40);
        a.update(0x40, true, p);
        assert_ne!(a.state_digest(), b.state_digest());
    }
}
