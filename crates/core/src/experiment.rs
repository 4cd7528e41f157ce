//! The IPC limit studies: Figs. 1, 5, 7 and 8.
//!
//! All studies share one structure: step every predictor configuration
//! through **one** pass over the trace
//! ([`sweep_flags`](bp_predictors::sweep_flags), fed by
//! [`TraceStore::stream`](bp_workloads::TraceStore::stream)) to get
//! misprediction streams, then replay those streams in lockstep through
//! the pipeline timing model ([`SweepReplay`]) at several capacity
//! scalings. Misprediction streams are scale-independent, so each
//! predictor pass is reused across all pipeline configurations; the
//! prepared trace is decoded once per workload instead of once per
//! (config, scale) cell. Both are memoized per trace ([`memo::flags`],
//! [`memo::replay`]), so the studies also share them with each other and
//! with serve sweeps: Figs. 5, 7 and 8 and the grid replay one
//! preparation per LCF trace, and train each predictor configuration
//! once. Each study's `_with` form names the [`TraceStore`] it memoizes
//! in; the plain form uses [`TraceStore::global`].

use std::collections::HashSet;
use std::sync::Arc;

use bp_pipeline::{simulate, PipelineConfig, SweepReplay};
use bp_predictors::{
    misprediction_flags, DirectionPredictor, PerfectSetOracle, PredictorSpec, TageScL,
    TageSclConfig,
};
use bp_workloads::{TraceStore, WorkloadSpec};

use crate::config::DatasetConfig;
use crate::memo::{self, TAGE_SC_L_8KB};
use crate::parallel::Engine;

/// IPC of one predictor across pipeline scales, relative to a baseline.
#[derive(Clone, Debug)]
pub struct ScalingSeries {
    /// Series label, e.g. `"TAGE-SC-L 8KB"`.
    pub label: String,
    /// Mean relative IPC per scale (geometric mean across workloads),
    /// aligned with [`ScalingStudy::scales`].
    pub relative_ipc: Vec<f64>,
}

/// The Fig. 1 / Fig. 5 study result.
#[derive(Clone, Debug)]
pub struct ScalingStudy {
    /// Pipeline capacity scaling factors.
    pub scales: Vec<u32>,
    /// One series per predictor configuration.
    pub series: Vec<ScalingSeries>,
}

impl ScalingStudy {
    /// The relative IPC of `label` at `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the label or scale is unknown.
    #[must_use]
    pub fn value(&self, label: &str, scale: u32) -> f64 {
        let si = self
            .scales
            .iter()
            .position(|&s| s == scale)
            .unwrap_or_else(|| panic!("unknown scale {scale}"));
        let series = self
            .series
            .iter()
            .find(|s| s.label == label)
            .unwrap_or_else(|| panic!("unknown series {label}"));
        series.relative_ipc[si]
    }
}

/// Per-workload mispredict streams for the four Fig. 1 predictor
/// configurations, and the prepared trace they replay against.
struct WorkloadStreams {
    sweep: Arc<SweepReplay>,
    tage8: Arc<Vec<bool>>,
    tage64: Arc<Vec<bool>>,
    perfect_h2p: Vec<bool>,
    perfect: Vec<bool>,
}

fn streams_for(
    store: &TraceStore,
    spec: &WorkloadSpec,
    config: &DatasetConfig,
    base: &PipelineConfig,
) -> WorkloadStreams {
    let len = config.trace_len;
    // Per-slice H2P screen (fresh 8KB predictor) for the oracle set.
    let screen = memo::characterization(store, spec, 0, len, config.slice, TAGE_SC_L_8KB);
    let tage64_spec = PredictorSpec::TageScl { storage_kb: 64 };
    let mut flags = memo::flags(store, spec, len, &[TAGE_SC_L_8KB, tage64_spec]);
    let tage64 = flags.pop().expect("two streams");
    let tage8 = flags.pop().expect("one stream");
    // The oracle is not a predictor spec, so its lane is not memoized.
    let trace = store.get(spec, 0, len);
    let mut oracle = PerfectSetOracle::new(TageScL::kb8(), screen.h2p_union.iter().copied());
    let perfect_h2p = misprediction_flags(&mut oracle, &trace);
    let perfect = vec![false; tage8.len()];
    WorkloadStreams {
        sweep: memo::replay(store, spec, len, base),
        tage8,
        tage64,
        perfect_h2p,
        perfect,
    }
}

/// Runs the Fig. 1 (SPECint) / Fig. 5 (LCF) pipeline-scaling study over
/// `specs`, reporting IPC relative to TAGE-SC-L 8KB at 1x (geometric mean
/// across workloads). Workloads run in parallel on [`Engine::from_env`].
#[must_use]
pub fn scaling_study(specs: &[WorkloadSpec], config: &DatasetConfig) -> ScalingStudy {
    scaling_study_with(Engine::from_env(), TraceStore::global(), specs, config)
}

/// [`scaling_study`] on an explicit [`Engine`] and memoizing
/// [`TraceStore`]. Results are identical for any thread count:
/// per-workload log-ratios are computed independently and reduced
/// serially in workload order.
#[must_use]
pub fn scaling_study_with(
    engine: Engine,
    store: &TraceStore,
    specs: &[WorkloadSpec],
    config: &DatasetConfig,
) -> ScalingStudy {
    let _timer = bp_metrics::stage("study.scaling");
    bp_metrics::Counter::get("study.scaling.workloads").add(specs.len() as u64);
    let scales = PipelineConfig::SCALES.to_vec();
    let base_cfg = PipelineConfig::skylake();
    let labels = [
        "TAGE-SC-L 8KB",
        "TAGE-SC-L 64KB",
        "Perfect H2Ps",
        "Perfect BP",
    ];
    let configs: Vec<PipelineConfig> = scales.iter().map(|&s| base_cfg.scaled(s)).collect();
    let one = scales
        .iter()
        .position(|&s| s == 1)
        .expect("the scales include 1x");
    // Per workload: log(ipc ratio) for every (series, scale) cell. Every
    // cell replays in lockstep through one prepared trace; the baseline
    // is the TAGE-SC-L 8KB cell at 1x.
    let contribs: Vec<Vec<Vec<f64>>> = engine.map(specs, |_, spec| {
        let st = streams_for(store, spec, config, &base_cfg);
        let lanes: [&[bool]; 4] = [&st.tage8, &st.tage64, &st.perfect_h2p, &st.perfect];
        let stats = st.sweep.simulate_many(&lanes, &configs);
        let base_ipc = stats[one][0].ipc();
        (0..labels.len())
            .map(|li| {
                stats
                    .iter()
                    .map(|per_scale| (per_scale[li].ipc() / base_ipc).ln())
                    .collect()
            })
            .collect()
    });
    // Serial reduction in workload order keeps the floating-point sum
    // identical to the serial implementation.
    let mut acc = vec![vec![0.0f64; scales.len()]; labels.len()];
    for contrib in &contribs {
        for (li, per_scale) in contrib.iter().enumerate() {
            for (si, &l) in per_scale.iter().enumerate() {
                acc[li][si] += l;
            }
        }
    }
    let n = specs.len().max(1) as f64;
    ScalingStudy {
        scales,
        series: labels
            .iter()
            .zip(acc)
            .map(|(label, logs)| ScalingSeries {
                label: (*label).to_owned(),
                relative_ipc: logs.into_iter().map(|l| (l / n).exp()).collect(),
            })
            .collect(),
    }
}

/// One application's Fig. 7 result: fraction of the TAGE8→perfect IPC gap
/// closed by each storage configuration, at each pipeline scale.
#[derive(Clone, Debug)]
pub struct StorageScalingRow {
    /// Workload name.
    pub name: String,
    /// `gap_closed[scale_index][storage_index]`.
    pub gap_closed: Vec<Vec<f64>>,
}

/// The Fig. 7 study result.
#[derive(Clone, Debug)]
pub struct StorageScalingStudy {
    /// Pipeline scaling factors.
    pub scales: Vec<u32>,
    /// Storage budgets in KB.
    pub storages_kb: Vec<usize>,
    /// One row per application.
    pub rows: Vec<StorageScalingRow>,
}

/// Runs the Fig. 7 limit study: TAGE-SC-L storage from 8KB to 1024KB
/// across pipeline scales, reporting the fraction of the 8KB→perfect IPC
/// gap closed. Workloads run in parallel on [`Engine::from_env`]; within
/// a workload, all storage points share a single trace pass
/// ([`memo::flags`]) and replay in lockstep ([`SweepReplay`]).
#[must_use]
pub fn storage_scaling_study(
    specs: &[WorkloadSpec],
    config: &DatasetConfig,
) -> StorageScalingStudy {
    storage_scaling_study_with(Engine::from_env(), TraceStore::global(), specs, config)
}

/// [`storage_scaling_study`] on an explicit [`Engine`] and memoizing
/// [`TraceStore`].
///
/// Fully streamed: both the lockstep predictor pass and the replay
/// preparation consume the trace through
/// [`TraceStore::stream`](bp_workloads::TraceStore::stream), so a
/// workload whose trace lives on disk is never materialized — peak
/// memory is bounded by the prepared 12-byte records plus one flag
/// stream per storage point, independent of decode blocking.
#[must_use]
pub fn storage_scaling_study_with(
    engine: Engine,
    store: &TraceStore,
    specs: &[WorkloadSpec],
    config: &DatasetConfig,
) -> StorageScalingStudy {
    let _timer = bp_metrics::stage("study.storage_scaling");
    bp_metrics::Counter::get("study.storage_scaling.workloads").add(specs.len() as u64);
    let scales = PipelineConfig::SCALES.to_vec();
    let storages = TageSclConfig::STORAGE_POINTS_KB.to_vec();
    let base_cfg = PipelineConfig::skylake();
    let configs: Vec<PipelineConfig> = scales.iter().map(|&s| base_cfg.scaled(s)).collect();
    let rows: Vec<StorageScalingRow> = engine.map(specs, |_, spec| {
        // All storage points train through one pass over the branch
        // stream — this is the sweep the single-pass engine exists for.
        let storage_specs = PredictorSpec::storage_points();
        let flags_per_storage = memo::flags(store, spec, config.trace_len, &storage_specs);
        let perfect = vec![false; flags_per_storage[0].len()];
        // Lane order: the 8KB baseline, the perfect bound, then every
        // storage point (8KB replays twice so each lane maps 1:1 onto
        // the per-config sims it replaced).
        let mut lanes: Vec<&[bool]> = Vec::with_capacity(storages.len() + 2);
        lanes.push(&flags_per_storage[0]);
        lanes.push(&perfect);
        lanes.extend(flags_per_storage.iter().map(|f| f.as_slice()));
        let sweep = memo::replay(store, spec, config.trace_len, &base_cfg);
        let gap_closed = sweep
            .simulate_many(&lanes, &configs)
            .iter()
            .map(|stats| {
                let ipc8 = stats[0].ipc();
                let ipc_perfect = stats[1].ipc();
                let gap = (ipc_perfect - ipc8).max(1e-9);
                stats[2..]
                    .iter()
                    .map(|s| ((s.ipc() - ipc8) / gap).max(0.0))
                    .collect()
            })
            .collect();
        StorageScalingRow {
            name: spec.name.clone(),
            gap_closed,
        }
    });
    StorageScalingStudy {
        scales,
        storages_kb: storages,
        rows,
    }
}

/// One application's heterogeneous-grid result.
#[derive(Clone, Debug)]
pub struct HeteroGridRow {
    /// Workload name.
    pub name: String,
    /// `ipc[scale_index][spec_index]`, aligned with
    /// [`HeteroGridStudy::scales`] and [`HeteroGridStudy::specs`].
    pub ipc: Vec<Vec<f64>>,
    /// Mispredictions per kilo-instruction per spec (scale-independent:
    /// the misprediction stream is fixed before replay).
    pub mpki: Vec<f64>,
}

/// The heterogeneous per-workload grid: every registered predictor
/// configuration at every pipeline scale.
#[derive(Clone, Debug)]
pub struct HeteroGridStudy {
    /// Pipeline scaling factors.
    pub scales: Vec<u32>,
    /// Predictor lineup, in lane order.
    pub specs: Vec<PredictorSpec>,
    /// One row per application.
    pub rows: Vec<HeteroGridRow>,
}

/// Runs the heterogeneous predictor grid over `workloads`: the
/// [`PredictorSpec::hetero_grid`] lineup (mixed TAGE-SC-L storage
/// points, TAGE-only/TAGE-L ablations, classical baselines, and the
/// always-taken/perfect bounds) trained as lanes in **one** lockstep
/// walk of each trace, then replayed as 16 lane-vector streams at every
/// pipeline scale from **one** prepared trace.
///
/// This is the single-pass form of the paper's per-workload grids: per
/// workload, the trace is streamed at most twice
/// ([`TraceStore::stream`](bp_workloads::TraceStore::stream) — once to
/// train the predictors the memo lacks, once to prepare the replay)
/// regardless of how many (predictor, scale) cells the grid has, and
/// never materialized when the on-disk cache holds it.
#[must_use]
pub fn hetero_grid_study(workloads: &[WorkloadSpec], config: &DatasetConfig) -> HeteroGridStudy {
    hetero_grid_study_with(Engine::from_env(), TraceStore::global(), workloads, config)
}

/// [`hetero_grid_study`] on an explicit [`Engine`] and memoizing
/// [`TraceStore`]. Results are identical for any thread count: each
/// workload's grid is computed independently and collected in workload
/// order.
#[must_use]
pub fn hetero_grid_study_with(
    engine: Engine,
    store: &TraceStore,
    workloads: &[WorkloadSpec],
    config: &DatasetConfig,
) -> HeteroGridStudy {
    let _timer = bp_metrics::stage("study.hetero_grid");
    bp_metrics::Counter::get("study.hetero_grid.workloads").add(workloads.len() as u64);
    let scales = PipelineConfig::SCALES.to_vec();
    let grid_specs = PredictorSpec::hetero_grid();
    let base_cfg = PipelineConfig::skylake();
    let configs: Vec<PipelineConfig> = scales.iter().map(|&s| base_cfg.scaled(s)).collect();
    let rows: Vec<HeteroGridRow> = engine.map(workloads, |_, spec| {
        let flags = memo::flags(store, spec, config.trace_len, &grid_specs);
        let lanes: Vec<&[bool]> = flags.iter().map(|f| f.as_slice()).collect();
        let sweep = memo::replay(store, spec, config.trace_len, &base_cfg);
        let insts = sweep.len().max(1) as f64;
        let stats = sweep.simulate_many(&lanes, &configs);
        let mpki = stats[0]
            .iter()
            .map(|s| s.mispredictions as f64 * 1000.0 / insts)
            .collect();
        let ipc = stats
            .iter()
            .map(|per_scale| per_scale.iter().map(bp_pipeline::SimStats::ipc).collect())
            .collect();
        HeteroGridRow {
            name: spec.name.clone(),
            ipc,
            mpki,
        }
    });
    HeteroGridStudy {
        scales,
        specs: grid_specs,
        rows,
    }
}

/// One application's Fig. 8 result.
#[derive(Clone, Debug)]
pub struct RareOracleRow {
    /// Workload name.
    pub name: String,
    /// Fraction of the TAGE8 IPC opportunity remaining after perfectly
    /// predicting all branches with more than 1,000 (paper-equivalent)
    /// dynamic executions.
    pub remaining_after_1000: f64,
    /// Same with the >100 threshold.
    pub remaining_after_100: f64,
}

/// Runs the Fig. 8 study: on a TAGE-SC-L 1024KB baseline, perfectly
/// predict all branches above a dynamic-execution threshold and measure
/// how much of the TAGE8 IPC opportunity remains (attributable to the
/// rare branches below the threshold).
#[must_use]
pub fn rare_oracle_study(specs: &[WorkloadSpec], config: &DatasetConfig) -> Vec<RareOracleRow> {
    rare_oracle_study_with(Engine::from_env(), TraceStore::global(), specs, config)
}

/// [`rare_oracle_study`] on an explicit [`Engine`] and memoizing
/// [`TraceStore`].
///
/// The 1024KB predictor's training sequence is independent of the oracle
/// set (a [`PerfectSetOracle`] always trains its inner predictor on the
/// real outcome), so its misprediction stream is computed **once** per
/// workload and both threshold streams are derived from it by masking out
/// branches inside the oracle set — rather than replaying the full trace
/// through a fresh 1024KB TAGE-SC-L per threshold.
#[must_use]
pub fn rare_oracle_study_with(
    engine: Engine,
    store: &TraceStore,
    specs: &[WorkloadSpec],
    config: &DatasetConfig,
) -> Vec<RareOracleRow> {
    let _timer = bp_metrics::stage("study.rare_oracle");
    bp_metrics::Counter::get("study.rare_oracle.workloads").add(specs.len() as u64);
    let cfg = PipelineConfig::skylake();
    engine.map(specs, |_, spec| {
        let trace = store.get(spec, 0, config.trace_len);
        // Dynamic execution counts over the whole trace, converted to the
        // paper's 30M-instruction scale for the >1000/>100 thresholds.
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for b in trace.conditional_branches() {
            *counts.entry(b.ip).or_default() += 1;
        }
        let scale = trace.len() as f64 / bp_trace::SliceConfig::PAPER_LEN as f64;
        let ips_above = |paper_threshold: f64| -> HashSet<u64> {
            let native = paper_threshold * scale;
            counts
                .iter()
                .filter(|(_, &c)| c as f64 > native)
                .map(|(&ip, _)| ip)
                .collect()
        };

        // One shared pass trains the 8KB baseline and the 1024KB
        // predictor; an oracle over set S mispredicts exactly where the
        // big predictor mispredicts outside S.
        let mut streams = memo::flags(
            store,
            spec,
            config.trace_len,
            &[TAGE_SC_L_8KB, PredictorSpec::TageScl { storage_kb: 1024 }],
        );
        let big_flags = streams.pop().expect("two streams");
        let flags8 = streams.pop().expect("one stream");
        let perfect = vec![false; trace.conditional_branch_count()];
        let masked = |threshold: f64| -> Vec<bool> {
            let set = ips_above(threshold);
            trace
                .conditional_branches()
                .zip(big_flags.iter())
                .map(|(b, &missed)| missed && !set.contains(&b.ip))
                .collect()
        };
        let after_1000 = masked(1000.0);
        let after_100 = masked(100.0);

        // All four IPC points come from one lockstep replay.
        let sweep = memo::replay(store, spec, config.trace_len, &cfg);
        let stats = &sweep.simulate_many(
            &[&flags8, &perfect, &after_1000, &after_100],
            std::slice::from_ref(&cfg),
        )[0];
        let ipc8 = stats[0].ipc();
        let ipc_perfect = stats[1].ipc();
        let opportunity = (ipc_perfect - ipc8).max(1e-9);
        let remaining =
            |ipc: f64| -> f64 { ((ipc_perfect - ipc) / opportunity).clamp(0.0, 1.0) };
        RareOracleRow {
            name: spec.name.clone(),
            remaining_after_1000: remaining(stats[2].ipc()),
            remaining_after_100: remaining(stats[3].ipc()),
        }
    })
}

/// Computes the IPC of an arbitrary predictor on a workload at a given
/// pipeline scale — a convenience for examples and ablations.
#[must_use]
pub fn ipc_of(
    spec: &WorkloadSpec,
    config: &DatasetConfig,
    predictor: &mut dyn DirectionPredictor,
    scale: u32,
) -> f64 {
    let trace = spec.cached_trace(0, config.trace_len);
    let flags = misprediction_flags(predictor, &trace);
    simulate(&trace, &flags, &PipelineConfig::skylake().scaled(scale)).ipc()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workloads::{lcf_suite, specint_suite};

    fn tiny() -> DatasetConfig {
        DatasetConfig::quick()
    }

    #[test]
    fn scaling_study_orders_series() {
        let specs = vec![specint_suite()[1].clone()];
        let study = scaling_study(&specs, &tiny());
        // At 1x, TAGE8 is the baseline (1.0) and perfect is above it.
        assert!((study.value("TAGE-SC-L 8KB", 1) - 1.0).abs() < 1e-9);
        assert!(study.value("Perfect BP", 1) > 1.0);
        // Perfect H2P sits between TAGE8 and perfect.
        let ph = study.value("Perfect H2Ps", 1);
        assert!(ph >= 1.0 && ph <= study.value("Perfect BP", 1) + 1e-9);
        // Perfect BP keeps scaling: 32x much higher than 1x.
        assert!(study.value("Perfect BP", 32) > 2.0 * study.value("Perfect BP", 1));
    }

    #[test]
    fn storage_scaling_fractions_are_sane() {
        let specs = vec![lcf_suite()[5].clone()];
        let study = storage_scaling_study(&specs, &tiny());
        let row = &study.rows[0];
        for per_scale in &row.gap_closed {
            // 8KB closes zero gap by definition.
            assert!(per_scale[0].abs() < 1e-9);
            for &v in per_scale {
                assert!((0.0..=1.5).contains(&v), "fraction {v}");
            }
        }
    }

    #[test]
    fn rare_oracle_thresholds_nest() {
        let specs = vec![lcf_suite()[1].clone()]; // game-like
        let rows = rare_oracle_study(&specs, &tiny());
        let r = &rows[0];
        // Fixing more branches (>100 covers more than >1000) leaves less
        // opportunity remaining.
        assert!(
            r.remaining_after_100 <= r.remaining_after_1000 + 1e-9,
            "{r:?}"
        );
        assert!((0.0..=1.0).contains(&r.remaining_after_1000));
    }
}
