//! The canonical study table: every table, figure, ablation and
//! supplementary study this crate implements, in presentation order.
//!
//! [`registry`] is the single source of truth for the `branch-lab` CLI
//! and serve — `list` prints it, `run` and `POST /run` dispatch through
//! it, and the `all` runner runs its [`StudyRegistry::reports`]. Adding a
//! row here is all it takes to appear in every surface; the
//! completeness tests in `crates/experiments/tests/cli.rs` pin the order
//! the `all` checkpoint/resume format and `ci.sh` depend on. Every study
//! reads only its [`bp_core::StudyCtx`], which the standard flags build.

use bp_core::StudyKind::{Report, Standalone};
use bp_core::{Study, StudyRegistry};

use crate::{reports, studies};

/// Builds the full table: the sixteen paper artifacts in publication
/// order with the standalone studies among them, then the calibration
/// table.
#[must_use]
pub fn registry() -> StudyRegistry {
    StudyRegistry::new(vec![
        Study {
            name: "table1",
            title: "Table I: SPECint 2017 dataset statistics under TAGE-SC-L 8KB",
            kind: Report,
            run: |ctx| reports::table1_report(&ctx.dataset),
        },
        Study {
            name: "fig1",
            title: "Fig. 1: IPC speedup from perfect branch prediction by pipeline scale",
            kind: Report,
            run: |ctx| reports::fig1_report(&ctx.dataset),
        },
        Study {
            name: "fig2",
            title: "Fig. 2: accuracy and H2P coverage vs number of application inputs",
            kind: Report,
            run: |ctx| reports::fig2_report(&ctx.dataset),
        },
        Study {
            name: "table2",
            title: "Table II: LCF dataset statistics under TAGE-SC-L 8KB",
            kind: Report,
            run: |ctx| reports::table2_report(&ctx.dataset),
        },
        Study {
            name: "baselines",
            title: "\u{a7}II survey: predictor generations compared at similar storage",
            kind: Standalone,
            run: |ctx| studies::baselines_report(&ctx.dataset),
        },
        Study {
            name: "grid",
            title: "Heterogeneous grid: every predictor lane at every pipeline scale, one pass per workload",
            kind: Standalone,
            run: |ctx| reports::grid_report(&ctx.dataset),
        },
        Study {
            name: "fig3",
            title: "Fig. 3: misprediction concentration among H2P branches",
            kind: Report,
            run: |ctx| reports::fig3_report(&ctx.dataset),
        },
        Study {
            name: "fig4",
            title: "Fig. 4: accuracy spread of rare branches (LCF dataset)",
            kind: Report,
            run: |ctx| studies::fig4_report(&ctx.dataset),
        },
        Study {
            name: "fig5",
            title: "Fig. 5: IPC poisoning from individual H2P branches",
            kind: Report,
            run: |ctx| reports::fig5_report(&ctx.dataset),
        },
        Study {
            name: "table3",
            title: "Table III: dependency branches of the top H2P heavy hitter",
            kind: Report,
            run: |ctx| studies::table3_report(&ctx.dataset),
        },
        Study {
            name: "fig6",
            title: "Fig. 6: history positions of dependency branches for top H2Ps",
            kind: Report,
            run: |ctx| studies::fig6_report(&ctx.dataset),
        },
        Study {
            name: "alloc_stats",
            title: "\u{a7}IV-A: TAGE-SC-L allocation statistics, H2P vs non-H2P",
            kind: Report,
            run: |ctx| studies::alloc_stats_report(&ctx.dataset),
        },
        Study {
            name: "fig7",
            title: "Fig. 7: IPC gap closed by scaling TAGE-SC-L storage (LCF)",
            kind: Report,
            run: |ctx| reports::fig7_report(&ctx.dataset),
        },
        Study {
            name: "fig8",
            title: "Fig. 8: IPC recovered by perfecting H2Ps at fixed 8KB storage",
            kind: Report,
            run: |ctx| reports::fig8_report(&ctx.dataset),
        },
        Study {
            name: "fig9",
            title: "Fig. 9: IPC from perfecting rare branches below execution thresholds",
            kind: Report,
            run: |ctx| reports::fig9_report(&ctx.dataset),
        },
        Study {
            name: "fig10",
            title: "Fig. 10: register-value distributions preceding top H2Ps",
            kind: Report,
            run: |ctx| studies::fig10_report(&ctx.dataset),
        },
        Study {
            name: "helpers",
            title: "\u{a7}V: CNN and phase-conditioned helper predictors end-to-end",
            kind: Report,
            run: |ctx| studies::helpers_report(&ctx.dataset),
        },
        Study {
            name: "ablation",
            title: "Ablations: TAGE-SC-L components, history length, aging, CNN precision",
            kind: Report,
            run: |ctx| studies::ablation_report(&ctx.dataset),
        },
        Study {
            name: "sampled",
            title: "Sampled replay: SimPoint-style weighted MPKI/IPC vs full-replay goldens",
            kind: Standalone,
            run: |ctx| studies::sampled_report(&ctx.dataset, &ctx.sampling),
        },
        Study {
            name: "calibrate",
            title: "Calibration: per-workload TAGE-SC-L accuracy and branch statistics",
            kind: Standalone,
            run: |ctx| studies::calibrate_report(ctx.dataset.trace_len),
        },
    ])
}
