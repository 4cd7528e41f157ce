//! Oracle predictors and the driver-facing [`DirectionPredictor`] trait.
//!
//! The paper's limit studies need predictors with ground-truth access:
//! *Perfect BP* (Fig. 1/5/7), *Perfect H2Ps* (Fig. 1/5), and perfect
//! prediction of branch subsets selected by dynamic execution count
//! (Fig. 8). Honest predictors implement [`Predictor`] and cannot see the
//! outcome before predicting; oracles implement [`DirectionPredictor`]
//! directly, which the measurement drivers call with the resolved outcome.

use std::collections::HashSet;

use crate::Predictor;

/// Driver-facing prediction interface: one call per dynamic conditional
/// branch, returning the direction predicted *before* the outcome was
/// known.
///
/// Every honest [`Predictor`] gets this for free via a blanket
/// implementation (predict, then train). Oracles implement it directly.
pub trait DirectionPredictor {
    /// A short human-readable description.
    fn describe(&self) -> String;

    /// Predicts the branch at `ip` and then trains on `taken`, returning
    /// the prediction.
    fn predict_and_train(&mut self, ip: u64, taken: bool) -> bool;

    /// FNV-1a digest of the predictor's mutable state — see
    /// [`Predictor::state_digest`], which honest predictors forward to
    /// via the blanket implementation. Stateless oracles keep the
    /// default of 0.
    fn state_digest(&self) -> u64 {
        0
    }
}

impl<P: Predictor> DirectionPredictor for P {
    fn describe(&self) -> String {
        self.name().to_owned()
    }

    fn predict_and_train(&mut self, ip: u64, taken: bool) -> bool {
        let pred = self.predict(ip);
        self.update(ip, taken, pred);
        pred
    }

    fn state_digest(&self) -> u64 {
        Predictor::state_digest(self)
    }
}

/// Perfect branch prediction: the Fig. 1 "Perfect BP" ceiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectPredictor;

impl DirectionPredictor for PerfectPredictor {
    fn describe(&self) -> String {
        "perfect".to_owned()
    }

    fn predict_and_train(&mut self, _ip: u64, taken: bool) -> bool {
        taken
    }
}

/// Predicts a chosen set of branch IPs perfectly, delegating everything
/// else to an inner honest predictor — the paper's "Perfect H2Ps" and
/// "Perfect >N executions" oracles.
///
/// The inner predictor still observes and trains on the oracled branches,
/// so its history state matches a deployment where a helper corrects the
/// final prediction without disturbing the baseline BPU.
///
/// # Examples
///
/// ```
/// use bp_predictors::{Bimodal, DirectionPredictor, PerfectSetOracle};
///
/// let inner = Bimodal::new(10);
/// let mut oracle = PerfectSetOracle::new(inner, [0x40u64]);
/// // The oracled IP is always right, even on a random stream.
/// assert!(oracle.predict_and_train(0x40, true));
/// assert!(!oracle.predict_and_train(0x40, false));
/// ```
#[derive(Clone, Debug)]
pub struct PerfectSetOracle<P> {
    inner: P,
    ips: HashSet<u64>,
}

impl<P: Predictor> PerfectSetOracle<P> {
    /// Wraps `inner`, predicting every IP in `ips` perfectly.
    #[must_use]
    pub fn new(inner: P, ips: impl IntoIterator<Item = u64>) -> Self {
        PerfectSetOracle {
            inner,
            ips: ips.into_iter().collect(),
        }
    }

    /// Consumes the oracle, returning the inner predictor.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Predictor> DirectionPredictor for PerfectSetOracle<P> {
    fn describe(&self) -> String {
        format!("perfect-set({})+{}", self.ips.len(), self.inner.name())
    }

    fn predict_and_train(&mut self, ip: u64, taken: bool) -> bool {
        let inner_pred = self.inner.predict(ip);
        self.inner.update(ip, taken, inner_pred);
        if self.ips.contains(&ip) {
            taken
        } else {
            inner_pred
        }
    }

    fn state_digest(&self) -> u64 {
        // The oracled set is immutable; the inner predictor is the only
        // mutable state.
        self.inner.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::Bimodal;

    #[test]
    fn perfect_is_always_right() {
        let mut p = PerfectPredictor;
        let mut state = 1u64;
        for _ in 0..100 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = state & 1 == 1;
            assert_eq!(p.predict_and_train(0x40, taken), taken);
        }
    }

    #[test]
    fn set_oracle_only_fixes_listed_ips() {
        let mut o = PerfectSetOracle::new(Bimodal::new(8), [0x100u64]);
        // 0x100: random stream, but always correct.
        // 0x200: alternating stream, bimodal stays imperfect.
        let mut state = 5u64;
        let mut wrong_oracled = 0;
        let mut wrong_other = 0;
        for i in 0..400 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t1 = (state >> 30) & 1 == 1;
            wrong_oracled += u32::from(o.predict_and_train(0x100, t1) != t1);
            let t2 = i % 2 == 0;
            wrong_other += u32::from(o.predict_and_train(0x200, t2) != t2);
        }
        assert_eq!(wrong_oracled, 0);
        assert!(wrong_other > 100, "bimodal can't learn alternation");
    }

    #[test]
    fn blanket_impl_trains_the_predictor() {
        let mut b = Bimodal::new(8);
        for _ in 0..10 {
            let _ = b.predict_and_train(0x40, true);
        }
        assert!(b.predict(0x40));
    }

    #[test]
    fn describe_mentions_components() {
        let o = PerfectSetOracle::new(Bimodal::new(8), [1u64, 2]);
        assert!(o.describe().contains("perfect-set(2)"));
        assert!(o.describe().contains("bimodal"));
        assert_eq!(o.ips.len(), 2);
    }
}
