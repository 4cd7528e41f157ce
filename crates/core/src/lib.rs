//! High-level experiment API for `branch-lab`.
//!
//! Ties the workspace together: dataset construction at a configurable
//! scale ([`DatasetConfig`]), the Table I/II characterization runner
//! ([`characterize_workload`]), the IPC limit studies of Figs. 1/5/7/8
//! ([`scaling_study`], [`storage_scaling_study`], [`rare_oracle_study`]),
//! the study registry the `branch-lab` CLI dispatches from ([`Study`],
//! [`StudyRegistry`]), the per-trace intermediates the studies share
//! ([`memo`]), and plain-text/CSV reporting ([`Table`], [`Report`]).
//!
//! # Examples
//!
//! ```
//! use bp_core::{characterize_workload, memo, DatasetConfig};
//! use bp_workloads::specint_suite;
//!
//! let leela = &specint_suite()[6];
//! let c = characterize_workload(leela, &DatasetConfig::quick(), memo::TAGE_SC_L_8KB);
//! // leela-like is the least predictable SPECint workload.
//! assert!(c.avg_accuracy < 0.97);
//! assert!(!c.h2p_union.is_empty());
//! ```

#![warn(missing_docs)]

mod characterize;
mod config;
pub mod exec;
mod experiment;
pub mod memo;
mod parallel;
mod report;
pub mod serve;
mod study;

pub use characterize::{
    characterize_input, characterize_workload, characterize_workload_with, InputCharacterization,
    WorkloadCharacterization,
};
pub use config::{DatasetConfig, ResolvedSampling, SamplingConfig};
pub use experiment::{
    hetero_grid_study, hetero_grid_study_with, ipc_of, rare_oracle_study, rare_oracle_study_with,
    scaling_study, scaling_study_with, storage_scaling_study, storage_scaling_study_with,
    HeteroGridRow, HeteroGridStudy, RareOracleRow, ScalingSeries, ScalingStudy, StorageScalingRow,
    StorageScalingStudy,
};
pub use parallel::Engine;
pub use report::{f3, pct, Report, ReportItem, Table};
pub use study::{Study, StudyCtx, StudyKind, StudyRegistry};

/// Deterministic fault injection (re-export of [`bp_metrics::faultpoint`]).
///
/// Lives in `bp-metrics` so the lowest layers (trace store, engine) can
/// host fault sites, but `bp_core::faultpoint` is the canonical path for
/// experiment code and tests.
pub use bp_metrics::faultpoint;

/// Cooperative cancellation (re-export of [`bp_metrics::cancel`]).
///
/// Lives in `bp-metrics` so the replay block loops below `bp-core` can
/// host cancellation checkpoints; `bp_core::cancel` is the canonical
/// path for experiment code, and [`exec`] builds the fault-tolerant
/// executor on top of it.
pub use bp_metrics::cancel;
