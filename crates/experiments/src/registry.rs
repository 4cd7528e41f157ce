//! The canonical study registry: every table, figure, ablation and
//! supplementary study this crate implements, in presentation order.
//!
//! [`registry`] is the single source of truth for the `branch-lab` CLI —
//! `list` prints it, `run` dispatches through it, and the `all` runner
//! derives its child list from [`StudyRegistry::report_names`]. Adding a
//! study here is all it takes to appear in every surface; the
//! completeness tests in `crates/experiments/tests/cli.rs` pin the order
//! the `all` checkpoint/resume format and `ci.sh` depend on. Every study
//! reads only its [`StudyCtx`], which the standard flags build.

use bp_core::{FnStudy, Report, StudyCtx, StudyInfo, StudyKind, StudyRegistry};

use crate::{reports, studies};

/// Convenience: registers a [`StudyKind::Report`] study that computes
/// from the dataset alone.
fn report(
    reg: &mut StudyRegistry,
    name: &'static str,
    title: &'static str,
    run: impl Fn(&StudyCtx) -> Report + Send + Sync + 'static,
) {
    reg.register(Box::new(FnStudy::new(
        StudyInfo {
            name,
            title,
            kind: StudyKind::Report,
        },
        run,
    )));
}

/// Builds the full registry: the sixteen paper artifacts in publication
/// order with the standalone studies among them, then the calibration
/// table.
#[must_use]
pub fn registry() -> StudyRegistry {
    let mut reg = StudyRegistry::new();
    report(
        &mut reg,
        "table1",
        "Table I: SPECint 2017 dataset statistics under TAGE-SC-L 8KB",
        |ctx| reports::table1_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig1",
        "Fig. 1: IPC speedup from perfect branch prediction by pipeline scale",
        |ctx| reports::fig1_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig2",
        "Fig. 2: accuracy and H2P coverage vs number of application inputs",
        |ctx| reports::fig2_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "table2",
        "Table II: LCF dataset statistics under TAGE-SC-L 8KB",
        |ctx| reports::table2_report(&ctx.dataset),
    );
    reg.register(Box::new(FnStudy::new(
        StudyInfo {
            name: "baselines",
            title: "\u{a7}II survey: predictor generations compared at similar storage",
            kind: StudyKind::Standalone,
        },
        |ctx| studies::baselines_report(&ctx.dataset),
    )));
    reg.register(Box::new(FnStudy::new(
        StudyInfo {
            name: "grid",
            title: "Heterogeneous grid: every predictor lane at every pipeline scale, one pass per workload",
            kind: StudyKind::Standalone,
        },
        |ctx| reports::grid_report(&ctx.dataset),
    )));
    report(
        &mut reg,
        "fig3",
        "Fig. 3: misprediction concentration among H2P branches",
        |ctx| reports::fig3_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig4",
        "Fig. 4: accuracy spread of rare branches (LCF dataset)",
        |ctx| studies::fig4_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig5",
        "Fig. 5: IPC poisoning from individual H2P branches",
        |ctx| reports::fig5_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "table3",
        "Table III: dependency branches of the top H2P heavy hitter",
        |ctx| studies::table3_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig6",
        "Fig. 6: history positions of dependency branches for top H2Ps",
        |ctx| studies::fig6_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "alloc_stats",
        "\u{a7}IV-A: TAGE-SC-L allocation statistics, H2P vs non-H2P",
        |ctx| studies::alloc_stats_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig7",
        "Fig. 7: IPC gap closed by scaling TAGE-SC-L storage (LCF)",
        |ctx| reports::fig7_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig8",
        "Fig. 8: IPC recovered by perfecting H2Ps at fixed 8KB storage",
        |ctx| reports::fig8_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig9",
        "Fig. 9: IPC from perfecting rare branches below execution thresholds",
        |ctx| reports::fig9_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "fig10",
        "Fig. 10: register-value distributions preceding top H2Ps",
        |ctx| studies::fig10_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "helpers",
        "\u{a7}V: CNN and phase-conditioned helper predictors end-to-end",
        |ctx| studies::helpers_report(&ctx.dataset),
    );
    report(
        &mut reg,
        "ablation",
        "Ablations: TAGE-SC-L components, history length, aging, CNN precision",
        |ctx| studies::ablation_report(&ctx.dataset),
    );
    reg.register(Box::new(FnStudy::new(
        StudyInfo {
            name: "sampled",
            title: "Sampled replay: SimPoint-style weighted MPKI/IPC vs full-replay goldens",
            kind: StudyKind::Standalone,
        },
        |ctx| studies::sampled_report(&ctx.dataset, &ctx.sampling),
    )));
    reg.register(Box::new(FnStudy::new(
        StudyInfo {
            name: "calibrate",
            title: "Calibration: per-workload TAGE-SC-L accuracy and branch statistics",
            kind: StudyKind::Standalone,
        },
        |ctx| studies::calibrate_report(ctx.dataset.trace_len),
    )));
    reg
}
