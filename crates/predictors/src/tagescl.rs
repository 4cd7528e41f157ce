//! TAGE-SC-L — the CBP2016 winner and the paper's reference predictor.
//!
//! Combines [`Tage`] (PPM-style geometric-history pattern matching), a
//! [`LoopPredictor`] and a [`StatisticalCorrector`], with storage-budgeted
//! configurations at 8/64/128/256/512/1024 KB matching the paper's limit
//! study (§IV, Fig. 7). Per the paper's configurations, maximum history is
//! 1,000 bits at 8KB and 3,000 bits at 64KB and above.

use bp_metrics::Counter;

use crate::counter::SignedCounter;
use crate::digest::Fnv;
use crate::loop_pred::LoopPredictor;
use crate::sc::{ScConfig, StatisticalCorrector};
use crate::tage::{AllocationTracker, Tage, TageConfig};
use crate::Predictor;

/// Full configuration of a [`TageScL`] predictor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TageSclConfig {
    /// TAGE core geometry.
    pub tage: TageConfig,
    /// Statistical corrector; `None` disables the SC component (ablation).
    pub sc: Option<ScConfig>,
    /// Loop-predictor entries (power of two); `None` disables it.
    pub loop_entries: Option<usize>,
    /// The budget this configuration was derived from, in kilobytes.
    pub nominal_kb: usize,
}

impl TageSclConfig {
    /// The standard storage points measured in the paper.
    pub const STORAGE_POINTS_KB: [usize; 6] = [8, 64, 128, 256, 512, 1024];

    /// Builds the configuration for one of the paper's storage budgets.
    ///
    /// # Panics
    ///
    /// Panics if `kb` is not one of [`Self::STORAGE_POINTS_KB`].
    #[must_use]
    pub fn storage_kb(kb: usize) -> Self {
        let (bimodal_log2, num_tables, table_log2, tag_bits, max_hist, sc_log2, loops) = match kb
        {
            8 => (12, 10, 8, 9, 1000, 9, 64),
            64 => (15, 12, 11, 10, 3000, 11, 256),
            128 => (16, 12, 12, 10, 3000, 12, 256),
            256 => (17, 12, 13, 11, 3000, 13, 512),
            512 => (18, 12, 14, 11, 3000, 14, 1024),
            1024 => (19, 12, 15, 12, 3000, 15, 1024),
            other => panic!("unsupported TAGE-SC-L budget: {other}KB"),
        };
        TageSclConfig {
            tage: TageConfig {
                bimodal_log2,
                num_tables,
                table_log2,
                tag_bits,
                min_hist: 4,
                max_hist,
                u_reset_period: 1 << 18,
            },
            sc: Some(ScConfig {
                table_log2: sc_log2,
                history_lengths: vec![4, 10, 16],
                counter_bits: 6,
            }),
            loop_entries: Some(loops),
            nominal_kb: kb,
        }
    }

    /// Ablation: TAGE core only (no SC, no loop predictor).
    #[must_use]
    pub fn tage_only(kb: usize) -> Self {
        TageSclConfig {
            sc: None,
            loop_entries: None,
            ..Self::storage_kb(kb)
        }
    }

    /// Ablation: TAGE plus loop predictor, without the corrector.
    #[must_use]
    pub fn tage_l(kb: usize) -> Self {
        TageSclConfig {
            sc: None,
            ..Self::storage_kb(kb)
        }
    }
}

impl Default for TageSclConfig {
    fn default() -> Self {
        Self::storage_kb(8)
    }
}

#[derive(Clone, Copy, Debug)]
struct EnsembleCtx {
    ip: u64,
    tage_pred: bool,
    loop_vote: Option<bool>,
    pre_sc_pred: bool,
    final_pred: bool,
}

/// The TAGE-SC-L ensemble predictor.
///
/// # Examples
///
/// ```
/// use bp_predictors::{Predictor, TageScL, TageSclConfig};
///
/// let mut p = TageScL::new(TageSclConfig::storage_kb(8));
/// assert_eq!(p.name(), "tage-sc-l-8kb");
/// let mut correct = 0;
/// for i in 0..600 {
///     let taken = i % 3 != 0;
///     let pred = p.predict(0x88);
///     p.update(0x88, taken, pred);
///     if i >= 300 { correct += u32::from(pred == taken); }
/// }
/// assert!(correct > 290, "period-3 pattern should be learned: {correct}");
/// ```
#[derive(Clone, Debug)]
pub struct TageScL {
    tage: Tage,
    sc: Option<StatisticalCorrector>,
    loop_pred: Option<LoopPredictor>,
    /// Chooser deciding whether confident loop predictions beat TAGE.
    with_loop: SignedCounter,
    name: String,
    ctx: Option<EnsembleCtx>,
    /// Snapshot of [`bp_metrics::enabled`] at construction, gating the
    /// per-prediction counting on one predictable branch.
    metrics_on: bool,
    /// `tagescl.prediction` — ensemble prediction-context computations.
    predictions: Counter,
    /// `tagescl.loop_override` — final predictions taken from the loop
    /// predictor against TAGE's direction.
    loop_overrides: Counter,
}

impl TageScL {
    /// Creates a TAGE-SC-L predictor from `config`.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry (see [`TageConfig::history_lengths`]).
    #[must_use]
    pub fn new(config: TageSclConfig) -> Self {
        let name = match (&config.sc, &config.loop_entries) {
            (Some(_), Some(_)) => format!("tage-sc-l-{}kb", config.nominal_kb),
            (None, Some(_)) => format!("tage-l-{}kb", config.nominal_kb),
            (None, None) => format!("tage-{}kb", config.nominal_kb),
            (Some(_), None) => format!("tage-sc-{}kb", config.nominal_kb),
        };
        TageScL {
            tage: Tage::new(config.tage),
            sc: config.sc.map(StatisticalCorrector::new),
            loop_pred: config.loop_entries.map(LoopPredictor::new),
            with_loop: SignedCounter::new(7),
            name,
            ctx: None,
            metrics_on: bp_metrics::enabled(),
            predictions: Counter::get("tagescl.prediction"),
            loop_overrides: Counter::get("tagescl.loop_override"),
        }
    }

    /// Convenience constructor for the paper's baseline 8KB predictor.
    #[must_use]
    pub fn kb8() -> Self {
        Self::new(TageSclConfig::storage_kb(8))
    }

    /// Convenience constructor for the 64KB variant.
    #[must_use]
    pub fn kb64() -> Self {
        Self::new(TageSclConfig::storage_kb(64))
    }

    /// Enables TAGE allocation instrumentation (§IV-A statistics).
    pub fn enable_instrumentation(&mut self) {
        self.tage.enable_instrumentation();
    }

    /// TAGE allocation statistics, if instrumentation is enabled.
    #[must_use]
    pub fn tracker(&self) -> Option<&AllocationTracker> {
        self.tage.tracker()
    }

    /// FNV-1a digest of the complete ensemble state: TAGE tables and
    /// histories, SC counters, loop table, and the loop chooser. Used by
    /// the bit-identity suite to compare against the naive reference
    /// TAGE-SC-L in `tests/naive/` — see `tests/bit_identity.rs`.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.push(self.tage.state_digest());
        h.push(self.sc.as_ref().map_or(0, StatisticalCorrector::state_digest));
        h.push(self.loop_pred.as_ref().map_or(0, LoopPredictor::state_digest));
        h.push(self.with_loop.value() as u64);
        h.finish()
    }

    fn compute(&mut self, ip: u64) -> EnsembleCtx {
        if self.metrics_on {
            self.predictions.incr();
        }
        let tage_pred = self.tage.predict(ip);
        let tage_confident = self.tage.last_confidence_high();

        let mut pred = tage_pred;
        let mut loop_vote = None;
        if let Some(lp) = &self.loop_pred {
            if let Some(l) = lp.predict(ip) {
                if l.confident {
                    loop_vote = Some(l.taken);
                    if self.with_loop.value() >= 0 {
                        pred = l.taken;
                        if self.metrics_on && pred != tage_pred {
                            self.loop_overrides.incr();
                        }
                    }
                }
            }
        }
        let pre_sc_pred = pred;

        let final_pred = match &mut self.sc {
            Some(sc) => {
                sc.refine(ip, pre_sc_pred, tage_confident || loop_vote.is_some())
                    .taken
            }
            None => pre_sc_pred,
        };
        EnsembleCtx {
            ip,
            tage_pred,
            loop_vote,
            pre_sc_pred,
            final_pred,
        }
    }
}

impl Predictor for TageScL {
    fn name(&self) -> &str {
        &self.name
    }

    fn predict(&mut self, ip: u64) -> bool {
        let ctx = self.compute(ip);
        self.ctx = Some(ctx);
        ctx.final_pred
    }

    fn update(&mut self, ip: u64, taken: bool, _pred: bool) {
        let ctx = match self.ctx.take() {
            Some(c) if c.ip == ip => c,
            _ => self.compute(ip),
        };
        // Train the loop chooser only when loop and TAGE disagreed.
        if let Some(lv) = ctx.loop_vote {
            if lv != ctx.tage_pred {
                self.with_loop.update(lv == taken);
            }
        }
        if let Some(lp) = &mut self.loop_pred {
            lp.update(ip, taken);
        }
        if let Some(sc) = &mut self.sc {
            sc.train(ip, ctx.pre_sc_pred, ctx.final_pred, taken);
        }
        self.tage.update(ip, taken, ctx.tage_pred);
    }

    fn storage_bits(&self) -> usize {
        self.tage.storage_bits()
            + self.sc.as_ref().map_or(0, StatisticalCorrector::storage_bits)
            + self.loop_pred.as_ref().map_or(0, LoopPredictor::storage_bits)
            + 7
    }

    fn state_digest(&self) -> u64 {
        TageScL::state_digest(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_budgets_are_honoured() {
        for kb in TageSclConfig::STORAGE_POINTS_KB {
            let p = TageScL::new(TageSclConfig::storage_kb(kb));
            let bits = p.storage_bits();
            let nominal = kb * 8 * 1024;
            let ratio = bits as f64 / nominal as f64;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "{kb}KB config uses {bits} bits (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn names_reflect_components() {
        assert_eq!(TageScL::kb8().name(), "tage-sc-l-8kb");
        assert_eq!(TageScL::new(TageSclConfig::tage_only(64)).name(), "tage-64kb");
        assert_eq!(TageScL::new(TageSclConfig::tage_l(8)).name(), "tage-l-8kb");
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn unsupported_budget_panics() {
        let _ = TageSclConfig::storage_kb(32);
    }

    #[test]
    fn loop_component_nails_constant_trip_loops() {
        // A 23-iteration loop is beyond short TAGE histories' easy reach;
        // the loop predictor captures the exit exactly.
        let mut with_loop = TageScL::new(TageSclConfig::storage_kb(8));
        let mut without = TageScL::new(TageSclConfig {
            loop_entries: None,
            ..TageSclConfig::storage_kb(8)
        });
        let run = |p: &mut TageScL| {
            let mut wrong = 0u32;
            for lap in 0..120 {
                for i in 0..24 {
                    let taken = i != 23;
                    let pred = p.predict(0x40);
                    p.update(0x40, taken, pred);
                    if lap >= 60 && pred != taken {
                        wrong += 1;
                    }
                }
            }
            wrong
        };
        let wrong_with = run(&mut with_loop);
        let wrong_without = run(&mut without);
        assert!(
            wrong_with <= wrong_without,
            "loop predictor should not hurt: {wrong_with} vs {wrong_without}"
        );
        assert!(wrong_with <= 2, "confident loop exits mispredicted {wrong_with}");
    }

    #[test]
    fn bigger_budget_is_no_worse_on_many_branches() {
        // Many interleaved biased branches stress capacity.
        let mut small = TageScL::kb8();
        let mut big = TageScL::kb64();
        let run = |p: &mut TageScL| {
            let mut state = 77u64;
            let mut correct = 0u64;
            let mut total = 0u64;
            for round in 0..3 {
                for b in 0..4000u64 {
                    let ip = 0x1000 + b * 4;
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(b);
                    // Per-branch fixed bias decided by the branch id.
                    let bias = 20 + (b * 37) % 60;
                    let taken = (state >> 33) % 100 < bias;
                    let pred = p.predict(ip);
                    p.update(ip, taken, pred);
                    if round == 2 {
                        total += 1;
                        correct += u64::from(pred == taken);
                    }
                }
            }
            correct as f64 / total as f64
        };
        let acc_small = run(&mut small);
        let acc_big = run(&mut big);
        assert!(
            acc_big >= acc_small - 0.01,
            "64KB ({acc_big:.3}) should be at least as good as 8KB ({acc_small:.3})"
        );
    }

    #[test]
    fn sc_component_does_not_degrade_biased_stream() {
        let mut with_sc = TageScL::kb8();
        let mut no_sc = TageScL::new(TageSclConfig::tage_l(8));
        let run = |p: &mut TageScL| {
            let mut state = 3u64;
            let mut correct = 0u64;
            for i in 0..6000u64 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let taken = (state >> 40) % 100 < 80;
                let pred = p.predict(0xBEEF);
                p.update(0xBEEF, taken, pred);
                if i >= 3000 {
                    correct += u64::from(pred == taken);
                }
            }
            correct as f64 / 3000.0
        };
        let a = run(&mut with_sc);
        let b = run(&mut no_sc);
        assert!(a >= b - 0.03, "SC hurt a biased stream: {a:.3} vs {b:.3}");
        assert!(a > 0.72, "biased stream accuracy {a:.3}");
    }
}
