//! The Table I / Table II characterization runner.
//!
//! Reproduces the paper's §III methodology: trace each workload over all
//! of its application inputs, run the reference predictor continuously,
//! collect per-slice branch profiles, screen H2Ps per slice, cluster
//! slices into phases, and aggregate.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bp_analysis::{cluster_slices, BranchProfile, H2pCriteria, PhaseConfig};
use bp_predictors::{DirectionPredictor, PredictorSpec};
use bp_trace::{SliceConfig, Trace};
use bp_workloads::{TraceStore, WorkloadSpec};

use crate::config::DatasetConfig;
use crate::memo;
use crate::parallel::Engine;

/// Characterization of one application input (one trace).
#[derive(Clone, Debug)]
pub struct InputCharacterization {
    /// Input index.
    pub input: u32,
    /// Whole-trace profile (slices merged).
    pub profile: BranchProfile,
    /// H2P IPs screened per slice.
    pub h2ps_per_slice: Vec<HashSet<u64>>,
    /// Union of per-slice H2P IPs for this input.
    pub h2p_union: HashSet<u64>,
    /// Static branch IPs per slice.
    pub static_per_slice: Vec<usize>,
    /// Fraction of each slice's mispredictions caused by that slice's
    /// H2Ps.
    pub h2p_mispredict_share_per_slice: Vec<f64>,
    /// Mean dynamic executions per H2P per slice (over slices that have
    /// H2Ps).
    pub h2p_execs_per_slice: f64,
    /// Number of phases found by SimPoint-style clustering.
    pub phases: usize,
}

/// Aggregated characterization of one workload over all inputs —
/// one row of Table I (or Table II for single-input LCF workloads).
#[derive(Clone, Debug)]
pub struct WorkloadCharacterization {
    /// Workload name.
    pub name: String,
    /// Per-input results.
    pub inputs: Vec<InputCharacterization>,
    /// Mean number of phases across inputs.
    pub avg_phases: f64,
    /// Union of static branch IPs across all inputs.
    pub total_static_branches: usize,
    /// Median static branch IPs per slice.
    pub median_static_per_slice: usize,
    /// Mean aggregate accuracy across inputs.
    pub avg_accuracy: f64,
    /// Mean accuracy with each input's H2P union excluded.
    pub avg_accuracy_excl_h2p: f64,
    /// Union of H2P IPs across all inputs ("# Static H2P Branches Total").
    pub h2p_union: HashSet<u64>,
    /// H2Ps appearing in 3 or more inputs.
    pub h2p_3plus_inputs: usize,
    /// Mean H2P-union size per input.
    pub avg_h2p_per_input: f64,
    /// Mean H2Ps per slice.
    pub avg_h2p_per_slice: f64,
    /// Mean dynamic executions per H2P per slice.
    pub avg_h2p_execs_per_slice: f64,
    /// Mean fraction of per-slice mispredictions caused by H2Ps.
    pub avg_h2p_mispredict_share: f64,
}

/// Characterizes one input trace with a fresh predictor, trained
/// continuously across its `slice`-instruction slices.
#[must_use]
pub fn characterize_input(
    trace: &Trace,
    input: u32,
    slice: SliceConfig,
    predictor: &mut dyn DirectionPredictor,
) -> InputCharacterization {
    let criteria = H2pCriteria::paper();
    let mut whole = BranchProfile::new();
    let mut h2ps_per_slice = Vec::new();
    let mut static_per_slice = Vec::new();
    let mut shares = Vec::new();
    let mut h2p_exec_means = Vec::new();
    for insts in trace.slices(slice) {
        let profile = BranchProfile::collect(predictor, insts);
        let h2ps = criteria.screen_set(&profile, slice);
        static_per_slice.push(profile.static_branch_count());
        let total_miss = profile.total_mispredicts();
        let h2p_miss: u64 = h2ps
            .iter()
            .filter_map(|ip| profile.get(*ip))
            .map(|s| s.mispredicts)
            .sum();
        if total_miss > 0 {
            shares.push(h2p_miss as f64 / total_miss as f64);
        }
        if !h2ps.is_empty() {
            let execs: u64 = h2ps
                .iter()
                .filter_map(|ip| profile.get(*ip))
                .map(|s| s.execs)
                .sum();
            h2p_exec_means.push(execs as f64 / h2ps.len() as f64);
        }
        whole.merge(&profile);
        h2ps_per_slice.push(h2ps);
    }
    let h2p_union: HashSet<u64> = h2ps_per_slice.iter().flatten().copied().collect();
    let phases = cluster_slices(trace, slice, PhaseConfig::default()).num_phases;
    InputCharacterization {
        input,
        profile: whole,
        h2p_union,
        static_per_slice,
        h2p_mispredict_share_per_slice: shares,
        h2p_execs_per_slice: mean(&h2p_exec_means),
        h2ps_per_slice,
        phases,
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Characterizes a workload across all of its (configured) inputs, using a
/// fresh `predictor` per input. Inputs run in parallel on
/// [`Engine::from_env`]; traces come from the shared
/// [`TraceStore::global`], and so does each input's characterization
/// ([`memo::characterization`]): it is memoized per trace, slice length
/// and predictor, so Table I, Fig. 2 and the H2P screens of the other
/// studies compute it once between them.
///
/// # Examples
///
/// ```
/// use bp_core::{characterize_workload, memo, DatasetConfig};
/// use bp_workloads::specint_suite;
///
/// let spec = &specint_suite()[1];
/// let c = characterize_workload(spec, &DatasetConfig::quick(), memo::TAGE_SC_L_8KB);
/// assert_eq!(c.name, spec.name);
/// assert!(c.avg_accuracy > 0.5);
/// ```
#[must_use]
pub fn characterize_workload(
    spec: &WorkloadSpec,
    config: &DatasetConfig,
    predictor: PredictorSpec,
) -> WorkloadCharacterization {
    let store = TraceStore::global();
    characterize_workload_with(Engine::from_env(), store, spec, config, predictor)
}

/// [`characterize_workload`] on an explicit [`Engine`] and memoizing
/// [`TraceStore`]. Per-input results are aggregated in input order, so
/// the outcome is thread-count independent.
#[must_use]
pub fn characterize_workload_with(
    engine: Engine,
    store: &TraceStore,
    spec: &WorkloadSpec,
    config: &DatasetConfig,
    predictor: PredictorSpec,
) -> WorkloadCharacterization {
    let _timer = bp_metrics::stage("study.characterize");
    bp_metrics::Counter::get("study.characterize.inputs")
        .add(u64::from(config.inputs_for(spec.inputs)));
    let inputs: Vec<u32> = (0..config.inputs_for(spec.inputs)).collect();
    let (len, slice) = (config.trace_len, config.slice);
    let per_input: Vec<Arc<InputCharacterization>> = engine.map(&inputs, |_, &input| {
        memo::characterization(store, spec, input, len, slice, predictor)
    });
    aggregate(spec, per_input.iter().map(|c| InputCharacterization::clone(c)).collect())
}

fn aggregate(
    spec: &WorkloadSpec,
    per_input: Vec<InputCharacterization>,
) -> WorkloadCharacterization {
    let mut all_static: HashSet<u64> = HashSet::new();
    let mut h2p_input_count: HashMap<u64, u32> = HashMap::new();
    let mut statics_per_slice: Vec<usize> = Vec::new();
    for ic in &per_input {
        for (ip, _) in ic.profile.iter() {
            all_static.insert(ip);
        }
        for ip in &ic.h2p_union {
            *h2p_input_count.entry(*ip).or_default() += 1;
        }
        statics_per_slice.extend(&ic.static_per_slice);
    }
    statics_per_slice.sort_unstable();
    let median_static = statics_per_slice
        .get(statics_per_slice.len() / 2)
        .copied()
        .unwrap_or(0);

    let avg_accuracy = mean(&per_input.iter().map(|i| i.profile.accuracy()).collect::<Vec<_>>());
    let avg_excl = mean(
        &per_input
            .iter()
            .map(|i| i.profile.accuracy_excluding(&i.h2p_union))
            .collect::<Vec<_>>(),
    );
    let avg_h2p_per_input = mean(
        &per_input
            .iter()
            .map(|i| i.h2p_union.len() as f64)
            .collect::<Vec<_>>(),
    );
    let per_slice_counts: Vec<f64> = per_input
        .iter()
        .flat_map(|i| i.h2ps_per_slice.iter().map(|s| s.len() as f64))
        .collect();
    let shares: Vec<f64> = per_input
        .iter()
        .flat_map(|i| i.h2p_mispredict_share_per_slice.iter().copied())
        .collect();
    let execs: Vec<f64> = per_input
        .iter()
        .filter(|i| i.h2p_execs_per_slice > 0.0)
        .map(|i| i.h2p_execs_per_slice)
        .collect();
    let phases: Vec<f64> = per_input.iter().map(|i| i.phases as f64).collect();

    WorkloadCharacterization {
        name: spec.name.clone(),
        avg_phases: mean(&phases),
        total_static_branches: all_static.len(),
        median_static_per_slice: median_static,
        avg_accuracy,
        avg_accuracy_excl_h2p: avg_excl,
        h2p_union: h2p_input_count.keys().copied().collect(),
        h2p_3plus_inputs: h2p_input_count.values().filter(|&&c| c >= 3).count(),
        avg_h2p_per_input,
        avg_h2p_per_slice: mean(&per_slice_counts),
        avg_h2p_execs_per_slice: mean(&execs),
        avg_h2p_mispredict_share: mean(&shares),
        inputs: per_input,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::TAGE_SC_L_8KB;
    use bp_workloads::specint_suite;

    #[test]
    fn characterizes_mcf_like_workload() {
        let spec = &specint_suite()[1]; // mcf-like: H2P-heavy
        let cfg = DatasetConfig::quick();
        let c = characterize_workload(spec, &cfg, TAGE_SC_L_8KB);
        assert_eq!(c.inputs.len(), 2);
        assert!(c.avg_accuracy > 0.6 && c.avg_accuracy < 1.0);
        // mcf-like must expose H2Ps that dominate mispredictions.
        assert!(!c.h2p_union.is_empty(), "expected H2Ps");
        assert!(
            c.avg_h2p_mispredict_share > 0.5,
            "H2P share {}",
            c.avg_h2p_mispredict_share
        );
        // Excluding H2Ps must improve accuracy.
        assert!(c.avg_accuracy_excl_h2p > c.avg_accuracy);
    }

    #[test]
    fn h2ps_recur_across_inputs() {
        let spec = &specint_suite()[1];
        let cfg = DatasetConfig {
            max_inputs: Some(3),
            ..DatasetConfig::quick()
        };
        let c = characterize_workload(spec, &cfg, TAGE_SC_L_8KB);
        // The same static H2P sites should appear in all 3 inputs
        // (program structure is input-independent).
        assert!(
            c.h2p_3plus_inputs > 0,
            "no H2P recurred across 3 inputs: union {}",
            c.h2p_union.len()
        );
    }

    #[test]
    fn phases_are_detected() {
        let spec = &specint_suite()[0];
        let cfg = DatasetConfig::quick();
        let c = characterize_workload(spec, &cfg, TAGE_SC_L_8KB);
        assert!(c.avg_phases >= 1.0);
    }
}
