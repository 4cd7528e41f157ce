//! Golden-master tests for every registered study.
//!
//! Each test runs one study's library entry point
//! (`bp_experiments::{reports, studies}::*_report`) at the `--quick`
//! dataset scale and compares its rendered stdout byte-for-byte against a
//! checked-in fixture under `tests/golden/`. Any numeric drift — a
//! predictor change, a pipeline-model change, a float reassociation —
//! fails the suite with the first differing line.
//!
//! To regenerate fixtures after an *intentional* change:
//!
//! ```text
//! BRANCH_LAB_UPDATE_GOLDEN=1 cargo test --release --test golden -- --include-ignored
//! ```
//!
//! then review the diff like any other code change. Set
//! `BRANCH_LAB_TRACE_DIR` to share generated traces across runs.
//!
//! The fixtures are thread-count independent ([`bp_core::Engine::map`]
//! returns results in input order and all reductions are serial) and
//! identical in debug and release (no fast-math).

use std::path::PathBuf;

use bp_core::{DatasetConfig, SamplingConfig};
use bp_experiments::{reports, studies};

/// The dataset scale the fixtures were recorded at: exactly `--quick`.
fn golden_config() -> DatasetConfig {
    DatasetConfig::quick()
}

/// Compares `actual` against `tests/golden/<name>.txt`, or rewrites the
/// fixture when `BRANCH_LAB_UPDATE_GOLDEN=1`.
fn check(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var("BRANCH_LAB_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             regenerate with: BRANCH_LAB_UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        )
    });
    if expected != actual {
        let diff = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map_or_else(
                || {
                    format!(
                        "line counts differ: expected {}, got {}",
                        expected.lines().count(),
                        actual.lines().count()
                    )
                },
                |(i, (e, a))| format!("first diff at line {}:\n  expected: {e}\n  actual:   {a}", i + 1),
            );
        panic!(
            "golden mismatch for {name} ({})\n{diff}\n\
             if the change is intentional, regenerate with \
             BRANCH_LAB_UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        );
    }
}

#[test]
fn golden_table1() {
    check("table1", &reports::table1_report(&golden_config()).render());
}

#[test]
fn golden_table2() {
    check("table2", &reports::table2_report(&golden_config()).render());
}

#[test]
fn golden_fig1() {
    check("fig1", &reports::fig1_report(&golden_config()).render());
}

#[test]
fn golden_fig2() {
    check("fig2", &reports::fig2_report(&golden_config()).render());
}

#[test]
fn golden_fig3() {
    check("fig3", &reports::fig3_report(&golden_config()).render());
}

#[test]
fn golden_fig5() {
    check("fig5", &reports::fig5_report(&golden_config()).render());
}

#[test]
fn golden_fig7() {
    check("fig7", &reports::fig7_report(&golden_config()).render());
}

#[test]
fn golden_fig8() {
    check("fig8", &reports::fig8_report(&golden_config()).render());
}

#[test]
fn golden_fig9() {
    check("fig9", &reports::fig9_report(&golden_config()).render());
}

#[test]
fn golden_grid() {
    check("grid", &reports::grid_report(&golden_config()).render());
}

#[test]
fn golden_fig4() {
    check("fig4", &studies::fig4_report(&golden_config()).render());
}

#[test]
fn golden_alloc_stats() {
    check(
        "alloc_stats",
        &studies::alloc_stats_report(&golden_config()).render(),
    );
}

#[test]
fn golden_fig10() {
    check("fig10", &studies::fig10_report(&golden_config()).render());
}

#[test]
fn golden_helpers() {
    check(
        "helpers",
        &studies::helpers_report(&golden_config()).render(),
    );
}

#[test]
fn golden_ablation() {
    check(
        "ablation",
        &studies::ablation_report(&golden_config()).render(),
    );
}

#[test]
fn golden_baselines() {
    check(
        "baselines",
        &studies::baselines_report(&golden_config()).render(),
    );
}

/// Recorded with the default sampling knobs, what `branch-lab run
/// sampled --quick` resolves without `--sample-*` flags.
#[test]
fn golden_sampled() {
    let report = studies::sampled_report(&golden_config(), &SamplingConfig::default());
    check("sampled", &report.render());
}

/// What `branch-lab run calibrate --quick` prints.
#[test]
fn golden_calibrate() {
    check("calibrate", &studies::calibrate_report(golden_config().trace_len).render());
}

#[test]
fn golden_table3() {
    check("table3", &studies::table3_report(&golden_config()).render());
}

#[test]
fn golden_fig6() {
    check("fig6", &studies::fig6_report(&golden_config()).render());
}
