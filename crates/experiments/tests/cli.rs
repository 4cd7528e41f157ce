//! Registry-completeness and CLI golden-parity tests.
//!
//! The registry test pins the study list and its order: the `all`
//! runner's child sequence, the checkpoint format, and ci.sh's
//! summary-table expectations all depend on `report_names()` matching
//! the legacy hand-maintained BINS array exactly.
//!
//! The parity tests run the `branch-lab` CLI as a subprocess and require
//! its stdout to be byte-identical to the legacy golden fixtures under
//! `tests/golden/` (recorded from the standalone binaries).

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::Command;

use bp_core::StudyKind;
use bp_experiments::registry::registry;
use bp_experiments::Cli;
use bp_metrics::json::Value;

/// The legacy `all.rs` BINS array, verbatim. `report_names()` must keep
/// producing exactly this list: it is the `all` child sequence, the
/// checkpoint vocabulary, and what ci.sh's fault-injection leg greps.
const LEGACY_BINS: [&str; 16] = [
    "table1", "fig1", "fig2", "table2", "fig3", "fig4", "fig5", "table3", "fig6",
    "alloc_stats", "fig7", "fig8", "fig9", "fig10", "helpers", "ablation",
];

/// Every study fixture recorded from the legacy binaries at `--quick`
/// (plus `grid`, recorded from the single-pass study when it landed).
const GOLDEN: [&str; 10] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig5", "fig7", "fig8", "fig9", "grid",
];

#[test]
fn report_names_match_the_legacy_all_list() {
    assert_eq!(registry().report_names(), LEGACY_BINS);
}

#[test]
fn registry_covers_every_study_binary() {
    let reg = registry();
    // Full presentation order: the sixteen `all` children with the
    // standalone survey interleaved, then the probes.
    assert_eq!(
        reg.names(),
        vec![
            "table1", "fig1", "fig2", "table2", "baselines", "grid", "fig3", "fig4",
            "fig5", "table3", "fig6", "alloc_stats", "fig7", "fig8", "fig9", "fig10",
            "helpers", "ablation", "sampled", "calibrate", "debug_ipc",
        ]
    );
    for standalone in ["baselines", "grid", "sampled"] {
        assert_eq!(
            reg.get(standalone).unwrap().info().kind,
            StudyKind::Standalone
        );
    }
    for probe in ["calibrate", "debug_ipc"] {
        assert_eq!(reg.get(probe).unwrap().info().kind, StudyKind::Probe);
    }
    for study in reg.studies() {
        assert!(!study.info().title.is_empty(), "{}", study.info().name);
    }
}

/// Shared trace cache for the subprocess runs (honours the CI-provided
/// directory when set).
fn trace_dir() -> PathBuf {
    std::env::var_os("BRANCH_LAB_TRACE_DIR").map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/cli-test-traces")
        },
        PathBuf::from,
    )
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(args)
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .output()
        .expect("spawn branch-lab")
}

#[test]
fn cli_output_matches_the_legacy_golden_fixtures() {
    for name in GOLDEN {
        let out = run_cli(&["run", name, "--quick"]);
        assert!(
            out.status.success(),
            "branch-lab run {name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden")
            .join(format!("{name}.txt"));
        let expected = std::fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "branch-lab run {name} --quick diverged from the legacy fixture"
        );
    }
}

#[test]
fn manifest_records_the_engine_thread_count_under_a_bad_override() {
    // An unparsable override warns and falls back to the machine width;
    // the run manifest must record the width the engine actually used.
    let sink = std::env::temp_dir()
        .join(format!("branch-lab-cli-threads-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["run", "table1", "--quick"])
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .env("BRANCH_LAB_THREADS", "banana")
        .env("BRANCH_LAB_METRICS", &sink)
        .output()
        .expect("spawn branch-lab");
    let manifest = std::fs::read_to_string(sink.join("table1.json"));
    std::fs::remove_dir_all(&sink).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("BRANCH_LAB_THREADS=\"banana\""));
    let manifest = bp_metrics::json::parse(&manifest.expect("manifest written to the sink"))
        .expect("manifest is JSON");
    let threads = manifest.as_obj().and_then(|m| m.get("threads")).and_then(Value::as_u64);
    let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    assert_eq!(threads, Some(available as u64));
}

#[test]
fn manifest_records_the_sampling_geometry() {
    // The manifest's `info` block is the run's `StudyCtx::describe`:
    // the resolved dataset shape and the sampling geometry the run used.
    let sink = std::env::temp_dir()
        .join(format!("branch-lab-cli-sampling-{}", std::process::id()));
    let args = ["--quick", "--len", "20000", "--sample-interval", "500"];
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["run", "sampled"])
        .args(args)
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .env("BRANCH_LAB_METRICS", &sink)
        .output()
        .expect("spawn branch-lab");
    let manifest = std::fs::read_to_string(sink.join("sampled.json"));
    std::fs::remove_dir_all(&sink).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = bp_metrics::json::parse(&manifest.expect("manifest written to the sink"))
        .expect("manifest is JSON");
    let info = manifest.as_obj().and_then(|m| m.get("info")).and_then(Value::as_obj);
    let recorded: BTreeMap<String, String> = info
        .expect("manifest has an info block")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("info values are strings").to_owned()))
        .collect();
    assert_eq!(recorded["sample_interval"], "500");
    let cli = Cli::parse_from(args.map(String::from)).unwrap();
    assert_eq!(recorded, cli.ctx().describe());
}

#[test]
fn usage_errors_exit_2_without_a_panic() {
    for args in [
        &["run", "fig3", "stray"][..],
        &["run", "fig3", "--len", "abc"],
        &["run", "fig3", "--len", "5"],
        &["run", "fig3", "--bogus"],
        &["all", "--bogus"],
        &["all", "--timeout-secs", "x"],
        &["run", "fig4", "--quick", "--sampled"],
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--len", "abc"],
        &["sweep", "--workload", "streaming", "--predictors", "gshare", "--scales", "0"],
        &["sweep", "--predictors", "gshare"],
        &["sweep", "--bogus"],
        &["serve", "--workers", "x"],
    ] {
        let out = run_cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn probe_studies_take_positional_arguments() {
    let out = run_cli(&["run", "calibrate", "60000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workload"), "calibrate header missing");
    assert!(stdout.contains("game"), "calibrate rows missing");
}

#[test]
fn list_prints_every_study() {
    let out = run_cli(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for study in registry().studies() {
        assert!(stdout.contains(study.info().name));
    }
}

#[test]
fn unknown_study_exits_with_a_usage_error() {
    let out = run_cli(&["run", "fig99", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown study"));
}

#[test]
fn sweep_runs_a_single_pass_over_one_workload() {
    let out = run_cli(&[
        "sweep",
        "--workload",
        "streaming",
        "--predictors",
        "gshare,tage-sc-l-8kb,perfect",
        "--len",
        "30000",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("one replay pass"));
    assert!(stdout.contains("tage-sc-l-8kb"));
    // The oracle lane must show perfect accuracy in the same table.
    assert!(stdout.contains("perfect     1.000"));
}

#[test]
fn sweep_rejects_a_tage_size_off_the_storage_points() {
    // A size `PredictorSpec::build` cannot configure is a usage error,
    // like an unknown name — never a panic.
    let out = run_cli(&[
        "sweep",
        "--workload",
        "streaming",
        "--predictors",
        "gshare,tage-sc-l-3kb",
        "--len",
        "30000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let refused = stderr.contains("unknown predictor 'tage-sc-l-3kb'");
    assert!(refused && !stderr.contains("panicked"), "{stderr}");
}

#[test]
fn help_is_the_single_flag_surface() {
    let out = run_cli(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--len N",
        "--quick",
        "--csv DIR",
        "--keep-going",
        "BRANCH_LAB_TRACE_DIR",
        "BRANCH_LAB_METRICS",
        "BRANCH_LAB_THREADS",
        "branch-lab sweep",
    ] {
        assert!(stdout.contains(needle), "help is missing {needle}");
    }
    for gone in ["--sampled ", "BRANCH_LAB_SAMPLE"] {
        assert!(!stdout.contains(gone), "help still documents {gone}");
    }
}
