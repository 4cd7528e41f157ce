//! Trace-driven evaluation helpers shared by analyses and experiments.

use bp_trace::Trace;

use crate::oracle::DirectionPredictor;

/// Aggregate prediction accuracy over a branch stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccuracyStats {
    /// Dynamic conditional branches observed.
    pub total: u64,
    /// Correct predictions.
    pub correct: u64,
}

impl AccuracyStats {
    /// Fraction of correct predictions (1.0 for an empty stream).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Mispredictions per 1,000 *instructions*, given the instruction count
    /// the branches were drawn from.
    #[must_use]
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            (self.total - self.correct) as f64 * 1000.0 / instructions as f64
        }
    }

    /// Records one prediction outcome.
    pub fn record(&mut self, correct: bool) {
        self.total += 1;
        self.correct += u64::from(correct);
    }

    /// Accuracy of a misprediction-flag stream (`true` = mispredicted),
    /// as produced by [`misprediction_flags`] and
    /// [`sweep_flags`](crate::sweep_flags).
    #[must_use]
    pub fn from_flags(flags: &[bool]) -> Self {
        let total = flags.len() as u64;
        let mispredicted = flags.iter().filter(|&&f| f).count() as u64;
        AccuracyStats {
            total,
            correct: total - mispredicted,
        }
    }
}

/// Runs `predictor` over every conditional branch of `trace` and returns
/// aggregate accuracy.
///
/// # Examples
///
/// ```
/// use bp_predictors::{measure, Bimodal};
/// use bp_trace::{RetiredInst, Trace, TraceMeta};
///
/// let mut t = Trace::new(TraceMeta::new("t", 0));
/// for _ in 0..100 {
///     t.push(RetiredInst::cond_branch(0x40, true, 0x80, None, None));
/// }
/// let stats = measure(&mut Bimodal::new(8), &t);
/// assert_eq!(stats.total, 100);
/// assert!(stats.accuracy() > 0.9);
/// ```
pub fn measure(predictor: &mut dyn DirectionPredictor, trace: &Trace) -> AccuracyStats {
    let mut stats = AccuracyStats::default();
    for br in trace.conditional_branches() {
        let pred = predictor.predict_and_train(br.ip, br.taken);
        stats.record(pred == br.taken);
    }
    stats
}

/// Runs `predictor` over `trace` and returns one flag per dynamic
/// conditional branch (in retirement order): `true` when mispredicted.
///
/// The pipeline timing model consumes this to charge misprediction
/// penalties at the right dynamic instructions.
pub fn misprediction_flags(predictor: &mut dyn DirectionPredictor, trace: &Trace) -> Vec<bool> {
    // Grown as it fills: sizing it up front would cost a counting walk
    // over every record of the trace.
    let mut flags = Vec::new();
    for br in trace.conditional_branches() {
        let pred = predictor.predict_and_train(br.ip, br.taken);
        flags.push(pred != br.taken);
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PerfectPredictor;
    use crate::simple::{AlwaysTaken, Bimodal};
    use bp_trace::{RetiredInst, TraceMeta};

    fn alternating_trace(n: usize) -> Trace {
        let mut t = Trace::new(TraceMeta::new("alt", 0));
        for i in 0..n {
            t.push(RetiredInst::cond_branch(0x40, i % 2 == 0, 0x80, None, None));
        }
        t
    }

    #[test]
    fn perfect_predictor_scores_one() {
        let t = alternating_trace(50);
        let stats = measure(&mut PerfectPredictor, &t);
        assert_eq!(stats.correct, 50);
        assert!((stats.accuracy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn always_taken_scores_half_on_alternation() {
        let t = alternating_trace(100);
        let stats = measure(&mut AlwaysTaken, &t);
        assert_eq!(stats.correct, 50);
    }

    #[test]
    fn flags_align_with_branch_order() {
        let t = alternating_trace(10);
        let flags = misprediction_flags(&mut PerfectPredictor, &t);
        assert_eq!(flags.len(), 10);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn mpki_math() {
        let mut s = AccuracyStats::default();
        for i in 0..100 {
            s.record(i % 10 != 0); // 10 mispredicts
        }
        assert!((s.mpki(10_000) - 1.0).abs() < 1e-9);
        assert_eq!(AccuracyStats::default().accuracy(), 1.0);
    }

    #[test]
    fn measure_trains_across_calls() {
        let t = alternating_trace(400);
        let mut b = Bimodal::new(8);
        let first = measure(&mut b, &t);
        // Bimodal can't learn alternation regardless of training.
        assert!(first.accuracy() < 0.7);
    }
}
