//! SimPoint representative selection: elbow-selected clustering plus
//! medoid-per-cluster extraction (Sherwood et al., "Automatically
//! Characterizing Large Scale Program Behavior").
//!
//! The phase studies ([`crate::cluster_slices`]) and the sampled-replay
//! planner both consume this module: the former takes the elbow-selected
//! labels, the latter additionally takes one *representative* interval
//! per cluster (the medoid — the member minimizing total squared
//! distance to its cluster) plus the cluster weights that turn
//! per-representative measurements back into whole-trace estimates.
//!
//! Everything here inherits the determinism contract documented in the
//! `phase` module; the only additional rule is medoid tie-breaking,
//! where the lowest interval index wins.

use bp_trace::IntervalProfile;

use crate::phase::{dist2, kmeans_with, KmeansScratch, PhaseConfig};

/// One cluster's representative interval and its reconstruction weight.
#[derive(Clone, Debug, PartialEq)]
pub struct Representative {
    /// Index of the representative interval in the interval sequence.
    pub interval: usize,
    /// Dense cluster id (order of first appearance, as in
    /// [`crate::PhaseLabels`]).
    pub cluster: usize,
    /// Number of intervals in the cluster.
    pub cluster_size: usize,
    /// The cluster's share of all intervals (weights sum to 1).
    pub weight: f64,
    /// Mean Euclidean BBV distance from cluster members to the medoid —
    /// a dispersion measure the error bars scale with.
    pub spread: f64,
}

/// Elbow-selected clustering plus one [`Representative`] per cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPoints {
    /// Dense cluster id per interval, in interval order.
    pub labels: Vec<usize>,
    /// Number of clusters (phases) selected.
    pub num_phases: usize,
    /// One representative per cluster, indexed by cluster id.
    pub representatives: Vec<Representative>,
}

/// Elbow-criterion phase selection over BBV points: deterministic
/// k-means at ascending k, stopping when the relative distortion
/// improvement (measured against the k=1 distortion) falls below
/// [`PhaseConfig::improvement_threshold`]. Returns dense labels (first
/// appearance order) and the phase count.
///
/// This is the selection loop [`crate::cluster_slices`] has always run;
/// it lives here so phase studies and sampled replay share one
/// implementation (and one [`KmeansScratch`] across the trial ks).
#[must_use]
pub fn elbow_labels(points: &[Vec<f64>], config: &PhaseConfig) -> (Vec<usize>, usize) {
    if points.is_empty() {
        return (Vec::new(), 0);
    }
    let kmax = config.max_phases.min(points.len());
    let mut scratch = KmeansScratch::new();
    let mut best = kmeans_with(points, 1, 20, &mut scratch);
    let base_distortion = best.1;
    let mut prev_distortion = best.1;
    for k in 2..=kmax {
        let trial = kmeans_with(points, k, 20, &mut scratch);
        // Scree test: improvement is measured against the k=1 distortion,
        // so self-similar micro-structure inside tight clusters does not
        // keep splitting forever.
        let improvement = if base_distortion > 0.0 {
            (prev_distortion - trial.1) / base_distortion
        } else {
            0.0
        };
        if improvement < config.improvement_threshold {
            break;
        }
        prev_distortion = trial.1;
        best = trial;
    }
    // Renumber labels densely in order of first appearance.
    let mut remap = std::collections::HashMap::new();
    let mut labels = Vec::with_capacity(best.0.len());
    for l in best.0 {
        let next = remap.len();
        labels.push(*remap.entry(l).or_insert(next));
    }
    let num = remap.len();
    (labels, num)
}

/// Clusters BBV points and selects one medoid representative per
/// cluster.
///
/// The medoid is the member minimizing the sum of squared distances to
/// every member of its cluster; among ties the lowest interval index
/// wins. Weights are `cluster_size / num_intervals`, so a weighted sum
/// of per-representative measurements estimates the whole-trace value.
#[must_use]
pub fn select_simpoints(points: &[Vec<f64>], config: &PhaseConfig) -> SimPoints {
    let (labels, num_phases) = elbow_labels(points, config);
    let mut representatives = Vec::with_capacity(num_phases);
    for cluster in 0..num_phases {
        let members: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == cluster)
            .map(|(i, _)| i)
            .collect();
        let mut medoid = (members[0], f64::INFINITY);
        for &candidate in &members {
            let total: f64 = members.iter().map(|&m| dist2(&points[candidate], &points[m])).sum();
            if total.total_cmp(&medoid.1) == std::cmp::Ordering::Less {
                medoid = (candidate, total);
            }
        }
        let spread = members
            .iter()
            .map(|&m| dist2(&points[medoid.0], &points[m]).sqrt())
            .sum::<f64>()
            / members.len() as f64;
        representatives.push(Representative {
            interval: medoid.0,
            cluster,
            cluster_size: members.len(),
            weight: members.len() as f64 / labels.len() as f64,
            spread,
        });
    }
    SimPoints { labels, num_phases, representatives }
}

/// [`select_simpoints`] over streamed interval profiles, the shape the
/// sampled-replay planner uses: normalize each profile's BBV counts and
/// cluster. Bit-identical to materializing the intervals and calling
/// [`crate::bbv`] on each.
#[must_use]
pub fn simpoints_from_profiles(profiles: &[IntervalProfile], config: &PhaseConfig) -> SimPoints {
    let points: Vec<Vec<f64>> = profiles.iter().map(IntervalProfile::normalized_bbv).collect();
    select_simpoints(&points, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        // Three tight, well-separated blobs with distinct sizes so the
        // weights are distinguishable: 4 + 8 + 12 points.
        let mut pts = Vec::new();
        for (c, n) in [(0usize, 4usize), (1, 8), (2, 12)] {
            for i in 0..n {
                pts.push(vec![c as f64 * 10.0 + (i % 2) as f64 * 0.01, c as f64 * 5.0]);
            }
        }
        pts
    }

    #[test]
    fn representatives_cover_every_cluster_with_unit_weight() {
        let sp = select_simpoints(&blobs(), &PhaseConfig::default());
        assert_eq!(sp.num_phases, 3);
        assert_eq!(sp.representatives.len(), 3);
        let total: f64 = sp.representatives.iter().map(|r| r.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(
            sp.representatives.iter().map(|r| r.cluster_size).sum::<usize>(),
            sp.labels.len()
        );
        // Each representative belongs to the cluster it represents.
        for rep in &sp.representatives {
            assert_eq!(sp.labels[rep.interval], rep.cluster);
        }
    }

    #[test]
    fn medoid_is_a_member_minimizing_total_distance() {
        let sp = select_simpoints(&blobs(), &PhaseConfig::default());
        let points = blobs();
        for rep in &sp.representatives {
            let members: Vec<usize> = sp
                .labels
                .iter()
                .enumerate()
                .filter(|&(_, &l)| l == rep.cluster)
                .map(|(i, _)| i)
                .collect();
            let cost = |c: usize| -> f64 {
                members.iter().map(|&m| dist2(&points[c], &points[m])).sum()
            };
            let best = cost(rep.interval);
            for &m in &members {
                assert!(best <= cost(m) + 1e-12);
            }
        }
    }

    #[test]
    fn selection_is_deterministic() {
        let a = select_simpoints(&blobs(), &PhaseConfig::default());
        let b = select_simpoints(&blobs(), &PhaseConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_yields_no_phases() {
        let sp = select_simpoints(&[], &PhaseConfig::default());
        assert_eq!(sp.num_phases, 0);
        assert!(sp.representatives.is_empty());
    }

    #[test]
    fn single_cluster_spread_reflects_dispersion() {
        let tight: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 1e-6]).collect();
        let loose: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 * 1e-2]).collect();
        // Force a single cluster: the elbow test is scale-invariant, so
        // only the spread should differ between the two sets.
        let cfg = PhaseConfig { max_phases: 1, ..PhaseConfig::default() };
        let t = select_simpoints(&tight, &cfg);
        let l = select_simpoints(&loose, &cfg);
        assert_eq!(t.num_phases, 1);
        assert_eq!(l.num_phases, 1);
        assert!(l.representatives[0].spread > t.representatives[0].spread);
    }
}
