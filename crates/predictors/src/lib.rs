//! Branch predictor implementations for `branch-lab`.
//!
//! Implements the predictor landscape the paper surveys in §II:
//!
//! * classical baselines — [`Bimodal`], [`GShare`], [`TwoLevelLocal`];
//! * [`Perceptron`] (positional-weight learning);
//! * [`Ppm`] (tagged partial pattern matching);
//! * domain-specific models — [`LoopPredictor`];
//! * ensembles — [`StatisticalCorrector`] and the full [`TageScL`]
//!   (CBP2016 winner), with storage-budgeted configurations at
//!   8/64/128/256/512/1024 KB and allocation instrumentation reproducing
//!   the §IV-A table-thrashing measurements;
//! * oracles — [`PerfectPredictor`] and [`PerfectSetOracle`] for the
//!   paper's limit studies.
//!
//! Honest predictors implement [`Predictor`]; measurement drivers use the
//! [`DirectionPredictor`] interface, which oracles implement directly.
//!
//! # Examples
//!
//! ```
//! use bp_predictors::{measure, Predictor, TageScL};
//! use bp_workloads::specint_suite;
//!
//! let trace = specint_suite()[1].trace(0, 20_000);
//! let mut bpu = TageScL::kb8();
//! let stats = measure(&mut bpu, &trace);
//! assert!(stats.total > 1_000);
//! assert!(stats.accuracy() > 0.6);
//! ```

#![warn(missing_docs)]

mod counter;
mod digest;
mod eval;
mod history;
mod loop_pred;
mod oracle;
mod perceptron;
mod ppm;
mod sc;
mod simple;
mod spec;
mod tage;
mod tagescl;
mod tournament;

pub use counter::{sat_is_strong, sat_is_weak, sat_taken, sat_update, SatCounter, SignedCounter};
pub use eval::{measure, misprediction_flags, AccuracyStats};
pub use history::{BitHistory, FoldedHistory, PathHistory};
pub use loop_pred::{LoopPrediction, LoopPredictor};
pub use oracle::{DirectionPredictor, PerfectPredictor, PerfectSetOracle};
pub use perceptron::Perceptron;
pub use ppm::{Ppm, PpmConfig};
pub use sc::{ScConfig, ScDecision, ScOnly, StatisticalCorrector};
pub use simple::{AlwaysTaken, Bimodal, GShare, TwoLevelLocal};
pub use spec::{sweep_flags, PredictorSpec};
pub use tage::{AllocationTracker, Tage, TageConfig};
pub use tagescl::{TageScL, TageSclConfig};
pub use tournament::Tournament;

/// A trainable branch direction predictor.
///
/// The driver contract is: call [`Predictor::predict`], then
/// [`Predictor::update`] with the resolved direction for the same branch,
/// before the next `predict`. Stateful predictors (TAGE) carry prediction
/// context between the two calls, as the hardware pipeline does.
pub trait Predictor {
    /// A short stable identifier, e.g. `"tage-sc-l-8kb"`.
    fn name(&self) -> &str;

    /// Predicts the direction of the conditional branch at `ip`.
    fn predict(&mut self, ip: u64) -> bool;

    /// Trains with the resolved direction. `pred` is the value returned by
    /// the preceding `predict` (used by composite predictors to train their
    /// arbitration).
    fn update(&mut self, ip: u64, taken: bool, pred: bool);

    /// Estimated storage footprint in bits, for budget verification.
    fn storage_bits(&self) -> usize;

    /// FNV-1a digest of the predictor's complete mutable state.
    ///
    /// The differential suite (`tests/differential.rs`) replays the same
    /// configuration through the lockstep sweep path and a solo reference
    /// run, comparing digests at fixed branch counts: any divergence in
    /// the branch sequence a predictor observes surfaces as a digest
    /// mismatch at the next checkpoint. Stateless predictors keep the
    /// default of 0; every stateful predictor overrides this to hash all
    /// tables, histories, and policy counters.
    fn state_digest(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn predictors_are_send() {
        assert_send::<Bimodal>();
        assert_send::<GShare>();
        assert_send::<Perceptron>();
        assert_send::<Ppm>();
        assert_send::<TageScL>();
    }

    #[test]
    fn dyn_direction_predictor_is_object_safe() {
        let mut b: Box<dyn DirectionPredictor> = Box::new(Bimodal::new(8));
        let _ = b.predict_and_train(0x40, true);
        let mut o: Box<dyn DirectionPredictor> = Box::new(PerfectPredictor);
        assert!(o.predict_and_train(0x40, true));
    }
}
