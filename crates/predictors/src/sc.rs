//! The statistical corrector — the "SC" of TAGE-SC-L.
//!
//! A GEHL-style perceptron ensemble that arbitrates the TAGE prediction:
//! per-branch bias tables plus several global-history-indexed tables of
//! signed counters vote; when their summed conviction clears a dynamically
//! trained threshold, the corrector overrides TAGE. This is the "ensemble
//! model / boosting" element described in §II.

use bp_metrics::Counter;

use crate::counter::SignedCounter;
use crate::digest::Fnv;
use crate::Predictor;

/// Configuration of the statistical corrector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScConfig {
    /// log2 entries per component table.
    pub table_log2: u32,
    /// Global-history lengths of the GEHL components.
    pub history_lengths: Vec<u32>,
    /// Counter width in bits.
    pub counter_bits: u32,
}

impl Default for ScConfig {
    fn default() -> Self {
        ScConfig {
            table_log2: 10,
            history_lengths: vec![4, 10, 16],
            counter_bits: 6,
        }
    }
}

/// Most GEHL components a corrector may have; sizes the per-branch
/// index cache.
const MAX_COMPONENTS: usize = 15;

/// The statistical corrector.
///
/// Not a standalone [`Predictor`]: it refines an input prediction. See
/// [`StatisticalCorrector::refine`] and [`StatisticalCorrector::train`].
#[derive(Clone, Debug)]
pub struct StatisticalCorrector {
    config: ScConfig,
    /// Every counter in one flat table, laid out component by component:
    /// the bias table (2 × entries, indexed by ip and input prediction),
    /// then one GEHL table of `entries` per history length.
    ctrs: Vec<SignedCounter>,
    /// Per-component history mask: `history_lengths[c]` bits, capped at 63.
    hist_mask: [u64; MAX_COMPONENTS],
    history: u64,
    /// Dynamic override threshold (trained).
    threshold: i32,
    /// Threshold training counter.
    tc: i32,
    last_sum: i32,
    /// Table offsets computed by the last `refine`, reused by `train` for
    /// the same branch. The global history only advances at the end of
    /// `train`, so between the two calls every index is unchanged —
    /// recomputing them (one multiplicative mix per GEHL component) was
    /// pure duplicated work on the replay hot path.
    cached: ScIndexCache,
    /// Snapshot of [`bp_metrics::enabled`] at construction, gating the
    /// per-refine counting on one predictable branch.
    metrics_on: bool,
    /// `sc.refine` call counter (no-op unless metrics are enabled).
    refines: Counter,
    /// `sc.override` counter: decisions that flipped the input.
    overrides: Counter,
}

/// See `StatisticalCorrector::cached`: the offsets into the flat counter
/// table of the bias entry and each component's entry, in that order.
#[derive(Clone, Debug)]
struct ScIndexCache {
    valid: bool,
    ip: u64,
    input_pred: bool,
    offs: [u32; MAX_COMPONENTS + 1],
}

/// Decision returned by [`StatisticalCorrector::refine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScDecision {
    /// The final direction after arbitration.
    pub taken: bool,
    /// True if the corrector overrode the input prediction.
    pub overrode: bool,
}

impl StatisticalCorrector {
    /// Creates a corrector from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no history lengths, more than 15,
    /// or out-of-range widths.
    #[must_use]
    pub fn new(config: ScConfig) -> Self {
        assert!(!config.history_lengths.is_empty(), "need at least one GEHL table");
        assert!(
            config.history_lengths.len() <= MAX_COMPONENTS,
            "at most {MAX_COMPONENTS} GEHL tables"
        );
        assert!((1..=16).contains(&config.table_log2));
        assert!((2..=8).contains(&config.counter_bits));
        let entries = 1usize << config.table_log2;
        let mut hist_mask = [0; MAX_COMPONENTS];
        for (mask, &bits) in hist_mask.iter_mut().zip(&config.history_lengths) {
            *mask = (1u64 << bits.min(63)) - 1;
        }
        StatisticalCorrector {
            ctrs: vec![
                SignedCounter::new(config.counter_bits);
                entries * (2 + config.history_lengths.len())
            ],
            hist_mask,
            history: 0,
            threshold: 6,
            tc: 0,
            last_sum: 0,
            cached: ScIndexCache {
                valid: false,
                ip: 0,
                input_pred: false,
                offs: [0; MAX_COMPONENTS + 1],
            },
            metrics_on: bp_metrics::enabled(),
            refines: Counter::get("sc.refine"),
            overrides: Counter::get("sc.override"),
            config,
        }
    }

    /// Counter tables: the bias table plus one per component.
    fn tables(&self) -> usize {
        1 + self.config.history_lengths.len()
    }

    /// Recomputes and caches every table offset for (`ip`, `input_pred`).
    fn fill_cache(&mut self, ip: u64, input_pred: bool) {
        let log2 = self.config.table_log2;
        let mask = (1u64 << log2) - 1;
        let ip2 = ip >> 2;
        self.cached.valid = true;
        self.cached.ip = ip;
        self.cached.input_pred = input_pred;
        self.cached.offs[0] = (((ip2 & mask) << 1) | u64::from(input_pred)) as u32;
        let components = self.config.history_lengths.len();
        let offs = &mut self.cached.offs[1..=components];
        let mut base = 2u64 << log2;
        for (off, &hmask) in offs.iter_mut().zip(&self.hist_mask) {
            let h = self.history & hmask;
            // Spread the history across the index with a multiplicative mix.
            let mixed = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - u64::from(log2));
            *off = (base + ((ip2 ^ mixed ^ (h << 1)) & mask)) as u32;
            base += 1 << log2;
        }
    }

    /// Summed conviction over the cached offsets.
    fn cached_sum(&self, input_pred: bool) -> i32 {
        let s: i32 = self.cached.offs[..self.tables()]
            .iter()
            .map(|&off| self.ctrs[off as usize].centered())
            .sum();
        // The input prediction itself gets a strong fixed vote, so the
        // corrector only flips when statistics are decisive.
        s + if input_pred { 8 } else { -8 }
    }

    /// Arbitrates `input_pred` for branch `ip`. `input_confident` should be
    /// true when the upstream predictor is at high confidence (the
    /// corrector then demands a stronger conviction to override).
    pub fn refine(&mut self, ip: u64, input_pred: bool, input_confident: bool) -> ScDecision {
        if self.metrics_on {
            self.refines.incr();
        }
        self.fill_cache(ip, input_pred);
        let sum = self.cached_sum(input_pred);
        self.last_sum = sum;
        let sc_pred = sum >= 0;
        let margin = if input_confident {
            self.threshold * 2
        } else {
            self.threshold
        };
        if sc_pred != input_pred && sum.abs() >= margin {
            if self.metrics_on {
                self.overrides.incr();
            }
            ScDecision {
                taken: sc_pred,
                overrode: true,
            }
        } else {
            ScDecision {
                taken: input_pred,
                overrode: false,
            }
        }
    }

    /// Trains the corrector with the resolved outcome. `input_pred` must be
    /// the same value passed to [`StatisticalCorrector::refine`];
    /// `final_pred` the direction actually predicted after arbitration.
    pub fn train(&mut self, ip: u64, input_pred: bool, final_pred: bool, taken: bool) {
        let sum = self.last_sum;
        // Train on mispredictions and on low-margin correct predictions.
        if final_pred != taken || sum.abs() < self.threshold * 4 {
            // The cache from `refine` is valid as long as the branch (and
            // therefore the history) hasn't changed; recompute otherwise
            // (e.g. `train` without a matching `refine`, after clone).
            if !(self.cached.valid && self.cached.ip == ip && self.cached.input_pred == input_pred)
            {
                self.fill_cache(ip, input_pred);
            }
            let tables = self.tables();
            for &off in &self.cached.offs[..tables] {
                self.ctrs[off as usize].update(taken);
            }
        }
        // Dynamic threshold training (Seznec): widen when overrides
        // mispredict, narrow when they were needed but suppressed.
        let sc_pred = sum >= 0;
        if sc_pred != input_pred {
            if final_pred != taken && sc_pred != taken {
                self.tc += 1;
                if self.tc >= 4 {
                    self.threshold = (self.threshold + 1).min(64);
                    self.tc = 0;
                }
            } else if final_pred != taken && sc_pred == taken {
                self.tc -= 1;
                if self.tc <= -4 {
                    self.threshold = (self.threshold - 1).max(2);
                    self.tc = 0;
                }
            }
        }
        self.history = (self.history << 1) | u64::from(taken);
        // The history just advanced: every cached GEHL index is stale.
        self.cached.valid = false;
    }

    /// Approximate storage in bits.
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        self.ctrs.len() * self.config.counter_bits as usize + 64
    }

    /// FNV-1a digest of the complete trained state (bias and GEHL
    /// counters, dynamic threshold, history). Used by the bit-identity
    /// suite — see `tests/bit_identity.rs`.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        for c in &self.ctrs {
            h.push(c.value() as u64);
        }
        h.push(self.threshold as u64);
        h.push(self.tc as u64);
        h.push(self.history);
        h.push(self.last_sum as u64);
        h.finish()
    }
}

/// A standalone wrapper exposing the corrector as a [`Predictor`] over a
/// fixed not-taken input, for testing and ablation.
#[derive(Clone, Debug)]
pub struct ScOnly {
    sc: StatisticalCorrector,
    last: bool,
}

impl ScOnly {
    /// Creates the wrapper.
    #[must_use]
    pub fn new(config: ScConfig) -> Self {
        ScOnly {
            sc: StatisticalCorrector::new(config),
            last: false,
        }
    }
}

impl Predictor for ScOnly {
    fn name(&self) -> &'static str {
        "sc-only"
    }

    fn predict(&mut self, ip: u64) -> bool {
        let d = self.sc.refine(ip, false, false);
        self.last = d.taken;
        d.taken
    }

    fn update(&mut self, ip: u64, taken: bool, _pred: bool) {
        self.sc.train(ip, false, self.last, taken);
    }

    fn storage_bits(&self) -> usize {
        self.sc.storage_bits()
    }

    fn state_digest(&self) -> u64 {
        self.sc.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrects_a_consistently_wrong_input() {
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        // The upstream predictor always says not-taken; the branch is
        // always taken. The corrector must learn to override.
        let mut overrides_late = 0;
        for i in 0..400 {
            let d = sc.refine(0x500, false, false);
            sc.train(0x500, false, d.taken, true);
            if i >= 200 && d.overrode {
                overrides_late += 1;
            }
        }
        assert!(overrides_late > 190, "late overrides {overrides_late}");
    }

    #[test]
    fn leaves_a_correct_input_alone() {
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        let mut overrides = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            let d = sc.refine(0x600, taken, true);
            sc.train(0x600, taken, d.taken, taken);
            overrides += u32::from(d.overrode);
        }
        assert!(overrides < 20, "spurious overrides {overrides}");
    }

    #[test]
    fn threshold_stays_in_bounds() {
        let mut sc = StatisticalCorrector::new(ScConfig::default());
        let mut state = 9u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (state >> 41) & 1 == 1;
            let input = (state >> 42) & 1 == 1;
            let d = sc.refine(0x700, input, false);
            sc.train(0x700, input, d.taken, taken);
        }
        assert!((2..=64).contains(&sc.threshold));
    }

    #[test]
    fn sc_only_wrapper_behaves_as_predictor() {
        let mut p = ScOnly::new(ScConfig::default());
        let mut correct = 0;
        for i in 0..300 {
            let pred = p.predict(0x40);
            p.update(0x40, true, pred);
            if i >= 150 {
                correct += u32::from(pred);
            }
        }
        assert!(correct > 140);
    }
}
