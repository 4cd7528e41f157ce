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

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

use bp_core::StudyKind;
use bp_experiments::registry::registry;
use bp_experiments::{studies, Cli};
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
    // standalone studies interleaved, then the calibration table.
    assert_eq!(
        reg.names(),
        vec![
            "table1", "fig1", "fig2", "table2", "baselines", "grid", "fig3", "fig4",
            "fig5", "table3", "fig6", "alloc_stats", "fig7", "fig8", "fig9", "fig10",
            "helpers", "ablation", "sampled", "calibrate",
        ]
    );
    for standalone in ["baselines", "grid", "sampled", "calibrate"] {
        assert_eq!(
            reg.get(standalone).unwrap().info().kind,
            StudyKind::Standalone
        );
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
fn manifest_records_the_engine_thread_count_under_an_override() {
    // The engine reads `BRANCH_LAB_THREADS` once; the run manifest must
    // record the width the engine actually used.
    let sink = std::env::temp_dir()
        .join(format!("branch-lab-cli-threads-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["run", "table1", "--quick"])
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .env("BRANCH_LAB_THREADS", "3")
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
    let manifest = bp_metrics::json::parse(&manifest.expect("manifest written to the sink"))
        .expect("manifest is JSON");
    let threads = manifest.as_obj().and_then(|m| m.get("threads")).and_then(Value::as_u64);
    assert_eq!(threads, Some(3));
}

#[test]
fn all_defaults_its_trace_dir_to_out_traces() {
    // With `BRANCH_LAB_TRACE_DIR` unset, `all` persists its traces and its
    // checkpoint under `out/traces` in its working directory.
    let cwd = std::env::temp_dir().join(format!("branch-lab-cli-all-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["all", "--quick", "--len", "20000"])
        .current_dir(&cwd)
        .env_remove("BRANCH_LAB_TRACE_DIR")
        .env_remove("BRANCH_LAB_METRICS")
        .output()
        .expect("spawn branch-lab");
    let traces = cwd.join("out/traces");
    let files: Vec<String> = std::fs::read_dir(&traces)
        .map(|dir| dir.map(|e| e.unwrap().file_name().to_string_lossy().into_owned()).collect())
        .unwrap_or_default();
    std::fs::remove_dir_all(&cwd).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(files.iter().any(|f| f.ends_with(".bptr")), "{files:?}");
    assert!(files.iter().any(|f| f == "all.checkpoint"), "{files:?}");
}

/// Runs `branch-lab run <study> <args>` with a metrics sink, requires
/// success, and returns its stdout and the `info` block of the manifest
/// it wrote. That block is the run's `StudyCtx::describe`.
fn run_with_sink(study: &str, args: &[&str]) -> (String, BTreeMap<String, String>) {
    let sink = std::env::temp_dir()
        .join(format!("branch-lab-cli-{study}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["run", study])
        .args(args)
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .env("BRANCH_LAB_METRICS", &sink)
        .output()
        .expect("spawn branch-lab");
    let manifest = std::fs::read_to_string(sink.join(format!("{study}.json")));
    std::fs::remove_dir_all(&sink).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = bp_metrics::json::parse(&manifest.expect("manifest written to the sink"))
        .expect("manifest is JSON");
    let info = manifest.as_obj().and_then(|m| m.get("info")).and_then(Value::as_obj);
    let recorded = info
        .expect("manifest has an info block")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_str().expect("info values are strings").to_owned()))
        .collect();
    (String::from_utf8_lossy(&out.stdout).into_owned(), recorded)
}

#[test]
fn manifest_records_the_sampling_geometry() {
    let args = ["--quick", "--len", "20000", "--sample-interval", "500"];
    let (_, recorded) = run_with_sink("sampled", &args);
    assert_eq!(recorded["sample_interval"], "500");
    let cli = Cli::parse_from(args.map(String::from)).unwrap();
    assert_eq!(recorded, cli.ctx().describe());
}

#[test]
fn usage_errors_exit_2_without_a_panic() {
    // A `--csv` directory under a regular file cannot be created.
    let file = std::env::temp_dir().join(format!("branch-lab-cli-csv-{}", std::process::id()));
    std::fs::write(&file, "not a directory").unwrap();
    let bad_csv = file.join("sub");
    let bad_csv = bad_csv.to_str().unwrap();
    for args in [
        &["run", "fig3", "stray"][..],
        &["run", "fig3", "--len", "abc"],
        &["run", "fig3", "--len", "5"],
        &["run", "fig3", "--bogus"],
        &["run", "calibrate", "60000"],
        &["run", "debug_ipc", "1", "60000"],
        &["run", "fig4", "--quick", "--len", "20000", "--csv", bad_csv],
        &["all", "--bogus"],
        &["all", "stray"],
        &["all", "--timeout-secs", "x"],
        &["all", "--quick", "--csv", bad_csv],
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
        // Refused before any study ran.
        assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn a_malformed_numeric_variable_exits_2_and_names_itself() {
    // Each variable is checked at start-up, before any study or server
    // runs, with the parser its reader uses; none falls back to a silent
    // default. A name the table does not list (a removed flag alias, a
    // typo) is refused the same way.
    let sweep = ["sweep", "--workload", "streaming", "--predictors", "gshare"];
    let all = ["all", "--quick", "--len", "40000"];
    let fig3 = ["run", "fig3", "--quick"];
    for (var, value, args) in [
        ("BRANCH_LAB_MEM_BUDGET", "600MB", &sweep[..]),
        ("BRANCH_LAB_CHILD_TIMEOUT_SECS", "1s", &all),
        ("BRANCH_LAB_RETRY_DELAY_MS", "fast", &fig3),
        ("BRANCH_LAB_THREADS", "banana", &fig3),
        ("BRANCH_LAB_THREADS", "0", &sweep),
        ("BRANCH_LAB_CHAOS_SEED", "seven", &all),
        ("BRANCH_LAB_FAULTS", "engine.task:explode", &fig3),
        ("BRANCH_LAB_KEEP_GOING", "1", &all),
        ("BRANCH_LAB_SERVE_ADDR", "127.0.0.1:0", &sweep),
        ("BRANCH_LAB_THREAD", "4", &fig3),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
            .args(args)
            .env("BRANCH_LAB_TRACE_DIR", trace_dir())
            .env(var, value)
            .output()
            .expect("spawn branch-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(stderr.contains(var) && stderr.contains(value), "{var}={value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value}: {}", String::from_utf8_lossy(&out.stdout));
    }
}

#[test]
fn a_small_memory_budget_evicts_intermediates_and_keeps_the_output() {
    // A 4M budget holds not even one quick trace, so every memo fill
    // evicts the entries before it; the study must print its fixture.
    let sink = std::env::temp_dir().join(format!("branch-lab-cli-budget-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_branch-lab"))
        .args(["run", "fig5", "--quick"])
        .env("BRANCH_LAB_TRACE_DIR", trace_dir())
        .env("BRANCH_LAB_MEM_BUDGET", "4M")
        .env("BRANCH_LAB_METRICS", &sink)
        .output()
        .expect("spawn branch-lab");
    let manifest = std::fs::read_to_string(sink.join("fig5.json"));
    std::fs::remove_dir_all(&sink).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fig5.txt");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        std::fs::read_to_string(fixture).expect("fig5 fixture")
    );
    let manifest = bp_metrics::json::parse(&manifest.expect("manifest written to the sink"))
        .expect("manifest is JSON");
    let counter = |name: &str| {
        manifest
            .as_obj()
            .and_then(|m| m.get("counters"))
            .and_then(Value::as_obj)
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    assert!(counter("trace_store.memo_evict") > 0, "no memo entry was evicted");
    assert!(counter("trace_store.memo_fill") > 0, "nothing was memoized");
}

#[test]
fn calibrate_takes_its_length_from_len() {
    let out = run_cli(&["run", "calibrate", "--len", "60000"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        studies::calibrate_report(60_000).render()
    );
}

#[test]
fn calibrate_manifest_records_the_length_it_ran() {
    // calibrate reads the context its manifest records: a `--len 30000`
    // run prints the 30,000-instruction report and records that length.
    let args = ["--len", "30000"];
    let (stdout, recorded) = run_with_sink("calibrate", &args);
    assert_eq!(stdout, studies::calibrate_report(30_000).render());
    assert_eq!(recorded["trace_len"], "30000");
    assert!(!recorded.contains_key("args"), "{recorded:?}");
    let cli = Cli::parse_from(args.map(String::from)).unwrap();
    assert_eq!(recorded, cli.ctx().describe());
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
    for var in bp_metrics::env::TABLE {
        assert!(stdout.contains(var.doc()[0]), "help is missing {}", var.doc()[0]);
    }
    for gone in [
        "--sampled ",
        "BRANCH_LAB_SAMPLE",
        "BRANCH_LAB_SERVE_",
        "BRANCH_LAB_KEEP_GOING",
        "stderr",
    ] {
        assert!(!stdout.contains(gone), "help still documents {gone}");
    }
}

#[test]
fn readme_documents_exactly_the_environment_table() {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md");
    let documented: BTreeSet<&str> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .filter(|name| name.starts_with("BRANCH_LAB_"))
        .collect();
    let table: BTreeSet<&str> = bp_metrics::env::TABLE.iter().map(|var| var.doc()[0]).collect();
    assert_eq!(documented, table, "README's environment table and `bp_metrics::env::TABLE` differ");
}
