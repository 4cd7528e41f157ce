//! The benchmark's self-test at a tiny trace length: every workload, in
//! both modes, prints exactly the metrics `BENCHMARK.json` declares with
//! zero failed ops, and a deliberately altered golden is reported as
//! failed ops rather than as a number.
//!
//! ```console
//! $ cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use bp_metrics::json::{self, Value};

const LEN: &str = "20000";
const WORKLOADS: [&str; 3] = ["replay", "sampled", "serve-mix"];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn state_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-self-test")
}

/// Declared metric names and units of one `BENCHMARK.json` list.
fn declared(list: &str) -> BTreeMap<String, String> {
    let raw =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let root = json::parse(&raw).expect("BENCHMARK.json parses");
    root.as_obj().expect("object")[list]
        .as_arr()
        .expect("metric list")
        .iter()
        .map(|m| {
            let m = m.as_obj().expect("metric");
            let text = |k: &str| m[k].as_str().expect("name and unit").to_owned();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs one workload and returns its parsed result line.
fn run(workload: &str, trace: u8, goldens: Option<&Path>) -> Value {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        &trace.to_string(),
    ])
    .args(["--len", LEN, "--state"])
    .arg(state_dir());
    if let Some(g) = goldens {
        cmd.arg("--goldens").arg(g);
    }
    let out = cmd.output().expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last}: {e:?}"))
}

fn field<'a>(result: &'a Value, name: &str) -> &'a Value {
    &result.as_obj().expect("result object")[name]
}

#[test]
fn every_workload_prints_declared_metrics_and_passes_its_checks() {
    for workload in WORKLOADS {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace, None);
            let keys: BTreeSet<&str> = result
                .as_obj()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            let printed: BTreeMap<String, String> = field(&result, "metrics")
                .as_obj()
                .expect("metrics")
                .iter()
                .map(|(name, m)| {
                    let unit = &m.as_obj().expect("metric")["unit"];
                    (name.clone(), unit.as_str().expect("unit").to_owned())
                })
                .collect();
            assert_eq!(printed, declared(list), "{workload} --trace {trace}");
            assert_eq!(
                field(&result, "failed").as_u64(),
                Some(0),
                "{workload} --trace {trace}"
            );
            assert!(field(&result, "attempted").as_u64().is_some_and(|n| n > 0));
            assert!(matches!(field(&result, "correct"), Value::Bool(true)));
        }
    }
}

#[test]
fn an_altered_golden_is_reported_as_failed_ops() {
    // Double the pinned TAGE-SC-L 8KB mispredictions of both traces at
    // the self-test length: every workload reads that cell.
    let pinned = std::fs::read_to_string(manifest_dir().join("goldens.txt")).expect("goldens.txt");
    let altered: String = pinned
        .lines()
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() == 7 && f[0] == "cell" && f[1] == LEN && f[3] == "tage-sc-l-8kb" {
                let doubled = f[6].parse::<u64>().expect("mispredictions") * 2;
                format!("{} {doubled}\n", f[..6].join(" "))
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(altered, pinned);
    let path = state_dir().join("altered-goldens.txt");
    std::fs::create_dir_all(state_dir()).expect("state dir");
    std::fs::write(&path, altered).expect("write altered goldens");
    for workload in WORKLOADS {
        let result = run(workload, 0, Some(&path));
        let failed = field(&result, "failed").as_u64().expect("failed count");
        assert!(failed > 0, "{workload} did not notice the altered golden");
        assert!(
            matches!(field(&result, "correct"), Value::Bool(false)),
            "{workload}"
        );
    }
}
