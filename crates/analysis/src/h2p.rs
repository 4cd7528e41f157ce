//! Hard-to-predict (H2P) branch screening — the paper's §III-A criteria.
//!
//! Within each slice, a branch is H2P when it (1) has less than 99%
//! prediction accuracy, (2) executes at least 15,000 times, and
//! (3) generates at least 1,000 mispredictions — counts defined at the
//! paper's 30M-instruction slice length and scaled proportionally here.

use std::collections::HashSet;

use bp_predictors::DirectionPredictor;
use bp_trace::{SliceConfig, Trace};

use crate::profile::BranchProfile;

/// The screening thresholds, expressed at the paper's 30M-instruction
/// slice scale.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct H2pCriteria {
    /// Accuracy must be strictly below this (paper: 0.99).
    pub max_accuracy: f64,
    /// Minimum executions per 30M-instruction slice (paper: 15,000).
    pub min_execs_paper: u64,
    /// Minimum mispredictions per 30M-instruction slice (paper: 1,000).
    pub min_mispredicts_paper: u64,
}

impl H2pCriteria {
    /// The paper's §III-A values.
    #[must_use]
    pub fn paper() -> Self {
        H2pCriteria {
            max_accuracy: 0.99,
            min_execs_paper: 15_000,
            min_mispredicts_paper: 1_000,
        }
    }

    /// Minimum executions at the given slice length.
    #[must_use]
    pub fn min_execs(&self, slice: SliceConfig) -> u64 {
        scaled_threshold(self.min_execs_paper, slice)
    }

    /// Minimum mispredictions at the given slice length.
    #[must_use]
    pub fn min_mispredicts(&self, slice: SliceConfig) -> u64 {
        scaled_threshold(self.min_mispredicts_paper, slice)
    }

    /// Screens a per-slice profile, returning the H2P branch IPs (sorted
    /// for determinism).
    #[must_use]
    pub fn screen(&self, profile: &BranchProfile, slice: SliceConfig) -> Vec<u64> {
        let min_execs = self.min_execs(slice);
        let min_miss = self.min_mispredicts(slice);
        let mut ips: Vec<u64> = profile
            .iter()
            .filter(|(_, s)| {
                s.accuracy() < self.max_accuracy
                    && s.execs >= min_execs
                    && s.mispredicts >= min_miss
            })
            .map(|(ip, _)| ip)
            .collect();
        ips.sort_unstable();
        ips
    }

    /// Screens and returns a set, for membership tests.
    #[must_use]
    pub fn screen_set(&self, profile: &BranchProfile, slice: SliceConfig) -> HashSet<u64> {
        self.screen(profile, slice).into_iter().collect()
    }

    /// Screens every slice of `trace` with one continuously trained
    /// `predictor`, as the paper's methodology does, returning the
    /// whole-trace profile (the per-slice profiles merged) and the union
    /// of the per-slice H2P sets.
    pub fn screen_slices(
        &self,
        predictor: &mut dyn DirectionPredictor,
        trace: &Trace,
        slice: SliceConfig,
    ) -> (BranchProfile, HashSet<u64>) {
        let mut merged = BranchProfile::new();
        let mut h2ps = HashSet::new();
        for insts in trace.slices(slice) {
            let profile = BranchProfile::collect(predictor, insts);
            h2ps.extend(self.screen(&profile, slice));
            merged.merge(&profile);
        }
        (merged, h2ps)
    }
}

impl Default for H2pCriteria {
    fn default() -> Self {
        Self::paper()
    }
}

/// Scales a count threshold defined at the paper's 30M slice to `slice`,
/// rounding up and never below 1.
fn scaled_threshold(paper_value: u64, slice: SliceConfig) -> u64 {
    let scaled = (paper_value as f64 * slice.paper_scale()).ceil() as u64;
    scaled.max(1)
}

/// Converts an observed count to its 30M-instruction "paper-equivalent",
/// used so histogram bins and Fig. 8 exec-count thresholds can keep the
/// paper's axis labels at any trace scale.
#[must_use]
pub fn paper_equivalent(count: u64, window_len: u64) -> f64 {
    if window_len == 0 {
        0.0
    } else {
        count as f64 * SliceConfig::PAPER_LEN as f64 / window_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_predictors::AlwaysTaken;
    use bp_trace::RetiredInst;

    fn profile_from(spec: &[(u64, u64, u64)]) -> BranchProfile {
        // (ip, taken_count, not_taken_count) under AlwaysTaken: mispredicts
        // equal the not-taken count.
        let mut insts = Vec::new();
        for &(ip, t, nt) in spec {
            for _ in 0..t {
                insts.push(RetiredInst::cond_branch(ip, true, 0, None, None));
            }
            for _ in 0..nt {
                insts.push(RetiredInst::cond_branch(ip, false, 0, None, None));
            }
        }
        BranchProfile::collect(&mut AlwaysTaken, &insts)
    }

    #[test]
    fn thresholds_scale_with_slice_length() {
        let c = H2pCriteria::paper();
        let paper_slice = SliceConfig::new(SliceConfig::PAPER_LEN);
        assert_eq!(c.min_execs(paper_slice), 15_000);
        assert_eq!(c.min_mispredicts(paper_slice), 1_000);
        let small = SliceConfig::new(300_000); // 1/100 of 30M
        assert_eq!(c.min_execs(small), 150);
        assert_eq!(c.min_mispredicts(small), 10);
        let tiny = SliceConfig::new(100);
        assert_eq!(c.min_mispredicts(tiny), 1); // floor at 1
    }

    #[test]
    fn screen_applies_all_three_criteria() {
        let slice = SliceConfig::new(300_000); // min execs 150, min miss 10
        // A: enough execs, enough mispredicts, low accuracy -> H2P.
        // B: high accuracy (99.5%) -> excluded.
        // C: too few execs -> excluded.
        // D: enough execs but too few mispredicts -> excluded.
        let p = profile_from(&[
            (0xA, 150, 50),
            (0xB, 995, 5),
            (0xC, 10, 40),
            (0xD, 400, 4),
        ]);
        let h2ps = H2pCriteria::paper().screen(&p, slice);
        assert_eq!(h2ps, vec![0xA]);
    }

    #[test]
    fn boundary_accuracy_is_excluded() {
        let slice = SliceConfig::new(300_000);
        // Exactly 99.0% accuracy must NOT pass the "< 99%" test.
        let p = profile_from(&[(0xE, 990, 10)]);
        assert!(H2pCriteria::paper().screen(&p, slice).is_empty());
    }

    #[test]
    fn paper_equivalent_scaling() {
        assert!((paper_equivalent(10, 2_000_000) - 150.0).abs() < 1e-9);
        assert!((paper_equivalent(0, 100) - 0.0).abs() < 1e-12);
        assert_eq!(paper_equivalent(5, 0), 0.0);
    }

    #[test]
    fn screen_slices_unions_per_slice_screens_and_merges_profiles() {
        // First half: 0xA at 75% accuracy plus five taken 0xB; second
        // half: 0xB alone at 71%. Each half screens one IP, the union
        // holds both, and the merged profile sums the halves.
        let mut t = Trace::new(bp_trace::TraceMeta::new("screen", 0));
        for (ip, taken, not_taken) in [(0xA, 150, 50), (0xB, 150, 60)] {
            for i in 0..taken + not_taken {
                t.push(RetiredInst::cond_branch(ip, i < taken, 0, None, None));
            }
        }
        let half = SliceConfig::new(t.len() / 2);
        let (merged, h2ps) = H2pCriteria::paper().screen_slices(&mut AlwaysTaken, &t, half);
        assert_eq!(h2ps, HashSet::from([0xA, 0xB]));
        assert_eq!(merged.instructions, t.len() as u64);
        let counts = |ip| merged.get(ip).map(|s| (s.execs, s.mispredicts));
        assert_eq!(counts(0xA), Some((200, 50)));
        assert_eq!(counts(0xB), Some((210, 60)));
    }

    #[test]
    fn screen_set_matches_screen() {
        let slice = SliceConfig::new(300_000);
        let p = profile_from(&[(0xA, 150, 50), (0xB, 150, 60)]);
        let v = H2pCriteria::paper().screen(&p, slice);
        let s = H2pCriteria::paper().screen_set(&p, slice);
        assert_eq!(v.len(), s.len());
        assert!(v.iter().all(|ip| s.contains(ip)));
    }
}
