//! Out-of-order pipeline timing model for `branch-lab`.
//!
//! Turns branch (mis)prediction streams into single-threaded IPC, closing
//! the loop from prediction accuracy to core performance as the paper does
//! with ChampSim (§I). See [`simulate`] for the model and
//! [`PipelineConfig`] for the Skylake-calibrated baseline and its 1x–32x
//! capacity scalings.
//!
//! # Examples
//!
//! ```
//! use bp_pipeline::{run, PipelineConfig};
//! use bp_predictors::{PerfectPredictor, TageScL};
//! use bp_workloads::specint_suite;
//!
//! let trace = specint_suite()[1].trace(0, 30_000);
//! let cfg = PipelineConfig::skylake();
//! let tage = run(&trace, &mut TageScL::kb8(), &cfg);
//! let perfect = run(&trace, &mut PerfectPredictor, &cfg);
//! // Perfect branch prediction never hurts.
//! assert!(perfect.ipc() >= tage.ipc());
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
pub mod lanes;
mod sampled;
mod scoreboard;
mod sweep;

pub use cache::{CacheConfig, CacheModel};
pub use config::PipelineConfig;
pub use sampled::{SampledReplay, SampledStats, SamplePlan, SampleSegment};
pub use scoreboard::{simulate, SimStats};
pub use sweep::SweepReplay;

use bp_predictors::{misprediction_flags, DirectionPredictor};
use bp_trace::Trace;

/// Convenience driver: runs `predictor` over the trace's conditional
/// branches, then simulates the pipeline with the resulting misprediction
/// stream.
#[must_use]
pub fn run(trace: &Trace, predictor: &mut dyn DirectionPredictor, config: &PipelineConfig) -> SimStats {
    let flags = misprediction_flags(predictor, trace);
    simulate(trace, &flags, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::{AlwaysTaken, PerfectPredictor, TageScL};
    use bp_workloads::{lcf_suite, specint_suite};

    #[test]
    fn predictor_quality_orders_ipc() {
        // A compute-bound workload (leela-like, cache-resident): prediction
        // quality translates directly into IPC. On memory-bound LCF apps
        // the ordering between weak predictors can invert, because a smart
        // predictor's *surviving* mispredictions sit on late-resolving
        // loads while a naive predictor's extra mispredictions hide under
        // memory stalls.
        let trace = specint_suite()[6].trace(0, 40_000);
        let cfg = PipelineConfig::skylake();
        let perfect = run(&trace, &mut PerfectPredictor, &cfg).ipc();
        let tage = run(&trace, &mut TageScL::kb8(), &cfg).ipc();
        let naive = run(&trace, &mut AlwaysTaken, &cfg).ipc();
        assert!(perfect > tage, "perfect {perfect} vs tage {tage}");
        assert!(tage > naive, "tage {tage} vs always-taken {naive}");
    }

    #[test]
    fn misprediction_gap_grows_with_scale() {
        // The IPC opportunity (perfect/tage) widens with pipeline scaling —
        // the paper's central Fig. 1 observation.
        let trace = lcf_suite()[1].trace(0, 60_000);
        let base = PipelineConfig::skylake();
        let gap_at = |scale: u32| {
            let cfg = base.scaled(scale);
            let perfect = run(&trace, &mut PerfectPredictor, &cfg).ipc();
            let tage = run(&trace, &mut TageScL::kb8(), &cfg).ipc();
            perfect / tage
        };
        let g1 = gap_at(1);
        let g8 = gap_at(8);
        assert!(g8 > g1, "gap should grow: 1x {g1:.3} vs 8x {g8:.3}");
    }
}
