//! Per-run manifests: a deterministic JSON summary of one experiment
//! run (identity, configuration, thread count, stage wall times, and the
//! full counter table).
//!
//! Two schemas exist:
//!
//! * `bp-metrics/run-v1` — one run, captured by
//!   [`CounterBaseline::capture_delta`] and written by
//!   [`Manifest::write_to_sink`] as `<sink>/<run>.json`.
//! * `bp-metrics/merged-v1` — the `all` runner's merge of its studies:
//!   `{"runs": [<run manifests…>], "schema": "bp-metrics/merged-v1"}`
//!   plus per-study status tables ([`merge_manifests_with_children`]).
//!
//! Serialization goes through [`crate::json::Value::to_json`], so output
//! is canonical: sorted keys, two-space indent, stable escapes. The only
//! fields that legitimately vary between identical runs are wall-clock
//! derived (`timers_ns`, `wall_time_ns`) plus the `threads` count;
//! [`normalize`] strips exactly those, which is what the
//! `BRANCH_LAB_THREADS=1` vs `=8` manifest-equality test compares.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, JsonError, Value};

/// Keys that may differ between two otherwise-identical runs.
const VOLATILE_KEYS: [&str; 3] = ["threads", "timers_ns", "wall_time_ns"];

/// Schema tag for a single-run manifest.
pub const RUN_SCHEMA: &str = "bp-metrics/run-v1";
/// Schema tag for a merged multi-run manifest.
pub const MERGED_SCHEMA: &str = "bp-metrics/merged-v1";

/// A captured summary of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Run name (normally the experiment binary name).
    pub run: String,
    /// Free-form configuration: workload suite, trace length, predictor
    /// config, input counts — anything that identifies the run.
    pub info: BTreeMap<String, String>,
    /// Engine worker-thread count at capture time.
    pub threads: usize,
    /// Whole-run wall time in nanoseconds.
    pub wall_time_ns: u64,
    /// Counter table at capture time (name → value), sorted.
    pub counters: BTreeMap<String, u64>,
    /// Cumulative stage timers in nanoseconds (name → ns), sorted.
    pub timers_ns: BTreeMap<String, u64>,
}

impl Manifest {
    fn to_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("schema".to_string(), Value::Str(RUN_SCHEMA.to_string()));
        map.insert("run".to_string(), Value::Str(self.run.clone()));
        map.insert(
            "info".to_string(),
            Value::Obj(
                self.info
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            ),
        );
        map.insert("threads".to_string(), Value::uint(self.threads as u64));
        map.insert("wall_time_ns".to_string(), Value::uint(self.wall_time_ns));
        map.insert(
            "counters".to_string(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::uint(*v)))
                    .collect(),
            ),
        );
        map.insert(
            "timers_ns".to_string(),
            Value::Obj(
                self.timers_ns
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::uint(*v)))
                    .collect(),
            ),
        );
        Value::Obj(map)
    }

    /// Canonical JSON rendering (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Writes the manifest as `<dir>/<run>.json` (payload plus trailing
    /// newline), creating `dir` if needed.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation / write failures.
    pub fn write_to_sink(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.run));
        std::fs::write(path, format!("{}\n", self.to_json()))
    }
}

/// A snapshot of the global counter/timer registry taken *before* a unit
/// of work, so [`CounterBaseline::capture_delta`] can attribute exactly
/// that unit's activity to its own manifest.
///
/// The registry is process-global and cumulative; when several studies
/// run sequentially in one process (the in-process `all` executor, a
/// serve worker), a snapshot of it after study N would include studies
/// 1..N-1 too. Delta capture keeps each run's manifest to that run.
pub struct CounterBaseline {
    counters: BTreeMap<String, u64>,
    timers: BTreeMap<String, u64>,
    start: Instant,
}

impl CounterBaseline {
    /// Snapshots the registry now and starts the wall clock.
    #[must_use]
    pub fn take() -> CounterBaseline {
        CounterBaseline {
            counters: crate::snapshot_counters().into_iter().collect(),
            timers: crate::snapshot_timers().into_iter().collect(),
            start: Instant::now(),
        }
    }

    /// Captures a manifest whose counters/timers are the registry's
    /// growth since [`CounterBaseline::take`] (zero-delta entries are
    /// dropped — a counter another study registered but this one never
    /// touched does not appear), and whose wall time is the elapsed time
    /// since the baseline.
    #[must_use]
    pub fn capture_delta(&self, run: &str, info: BTreeMap<String, String>) -> Manifest {
        let delta = |now: Vec<(String, u64)>, base: &BTreeMap<String, u64>| {
            now.into_iter()
                .filter_map(|(name, value)| {
                    let d = value.saturating_sub(base.get(&name).copied().unwrap_or(0));
                    (d > 0).then_some((name, d))
                })
                .collect::<BTreeMap<String, u64>>()
        };
        Manifest {
            run: run.to_string(),
            info,
            threads: crate::thread_count(),
            wall_time_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            counters: delta(crate::snapshot_counters(), &self.counters),
            timers_ns: delta(crate::snapshot_timers(), &self.timers),
        }
    }
}

/// Strips the volatile fields (`threads`, `timers_ns`, `wall_time_ns`)
/// from every object in a manifest document and re-serializes it
/// canonically. Two runs of the same experiment — at any thread count —
/// normalize to byte-identical strings.
pub fn normalize(manifest_json: &str) -> Result<String, JsonError> {
    let mut value = json::parse(manifest_json)?;
    strip_volatile(&mut value);
    Ok(value.to_json())
}

fn strip_volatile(value: &mut Value) {
    match value {
        Value::Obj(map) => {
            for key in VOLATILE_KEYS {
                map.remove(key);
            }
            for child in map.values_mut() {
                strip_volatile(child);
            }
        }
        Value::Arr(items) => {
            for child in items.iter_mut() {
                strip_volatile(child);
            }
        }
        _ => {}
    }
}

/// Merges single-run manifest documents into one `bp-metrics/merged-v1`
/// document: `runs` sorted by each run's `run` name, plus per-child
/// outcome tables — `children` (`{name: status}`) so a *partial* merge
/// (some children failed or never ran) names exactly what is missing
/// from `runs` and why, and `child_attempts` (`{name: attempts}`)
/// recording how many executor attempts each child consumed. With an
/// empty `children` slice both tables are left out. Fails if any input
/// is not valid JSON.
pub fn merge_manifests_with_children(
    run_jsons: &[String],
    children: &[(String, String, u32)],
) -> Result<String, JsonError> {
    let mut runs = Vec::with_capacity(run_jsons.len());
    for raw in run_jsons {
        runs.push(json::parse(raw)?);
    }
    runs.sort_by_key(run_name);
    let mut map = BTreeMap::new();
    map.insert("schema".to_string(), Value::Str(MERGED_SCHEMA.to_string()));
    map.insert("runs".to_string(), Value::Arr(runs));
    if !children.is_empty() {
        map.insert(
            "children".to_string(),
            Value::Obj(
                children
                    .iter()
                    .map(|(name, status, _)| (name.clone(), Value::Str(status.clone())))
                    .collect(),
            ),
        );
        map.insert(
            "child_attempts".to_string(),
            Value::Obj(
                children
                    .iter()
                    .map(|(name, _, attempts)| (name.clone(), Value::uint(u64::from(*attempts))))
                    .collect(),
            ),
        );
    }
    Ok(Value::Obj(map).to_json())
}

fn run_name(value: &Value) -> String {
    value
        .as_obj()
        .and_then(|map| map.get("run"))
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(run: &str, threads: usize, wall: u64) -> Manifest {
        let mut info = BTreeMap::new();
        info.insert("trace_len".to_string(), "120000".to_string());
        let mut counters = BTreeMap::new();
        counters.insert("tage.lookup".to_string(), 42);
        let mut timers = BTreeMap::new();
        timers.insert("engine.map".to_string(), wall / 2);
        Manifest {
            run: run.to_string(),
            info,
            threads,
            wall_time_ns: wall,
            counters,
            timers_ns: timers,
        }
    }

    #[test]
    fn manifest_json_is_valid_and_sorted() {
        let json_text = sample("fig1", 8, 1000).to_json();
        let value = json::parse(&json_text).unwrap();
        let map = value.as_obj().unwrap();
        assert_eq!(map["schema"].as_str(), Some(RUN_SCHEMA));
        assert_eq!(map["run"].as_str(), Some("fig1"));
        assert_eq!(map["threads"].as_u64(), Some(8));
        // Canonical: serializing the parse result reproduces the input.
        assert_eq!(value.to_json(), json_text);
    }

    #[test]
    fn normalize_strips_only_volatile_fields() {
        let a = sample("fig1", 1, 111).to_json();
        let b = sample("fig1", 8, 999_999).to_json();
        assert_ne!(a, b);
        assert_eq!(normalize(&a).unwrap(), normalize(&b).unwrap());
        let normalized = normalize(&a).unwrap();
        assert!(normalized.contains("tage.lookup"));
        assert!(!normalized.contains("wall_time_ns"));
        assert!(!normalized.contains("threads"));
    }

    #[test]
    fn merge_with_children_records_statuses_and_empty_matches_plain() {
        let runs = vec![sample("fig1", 4, 5).to_json()];
        // No children: the plain merge, runs and schema only.
        let plain = json::parse(&merge_manifests_with_children(&runs, &[]).unwrap()).unwrap();
        let keys: Vec<&String> = plain.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["runs", "schema"]);
        let children = vec![
            ("fig1".to_string(), "ok".to_string(), 1),
            ("fig2".to_string(), "failed: exit status: 101".to_string(), 2),
        ];
        let merged = merge_manifests_with_children(&runs, &children).unwrap();
        let value = json::parse(&merged).unwrap();
        let table = value.as_obj().unwrap()["children"].as_obj().unwrap();
        assert_eq!(table["fig1"].as_str(), Some("ok"));
        assert_eq!(table["fig2"].as_str(), Some("failed: exit status: 101"));
        let attempts = value.as_obj().unwrap()["child_attempts"].as_obj().unwrap();
        assert_eq!(attempts["fig1"].as_u64(), Some(1));
        assert_eq!(attempts["fig2"].as_u64(), Some(2));
    }

    #[test]
    fn counter_baseline_attributes_only_the_delta() {
        crate::force_enable();
        let c = crate::Counter::get("test.manifest.delta");
        c.add(7);
        let base = CounterBaseline::take();
        c.add(5);
        let m = base.capture_delta("unit", BTreeMap::new());
        assert_eq!(m.counters.get("test.manifest.delta"), Some(&5));
        let quiet = CounterBaseline::take();
        let m2 = quiet.capture_delta("unit", BTreeMap::new());
        assert_eq!(
            m2.counters.get("test.manifest.delta"),
            None,
            "untouched counters are dropped from delta manifests"
        );
    }

    #[test]
    fn merge_sorts_runs_and_tags_schema() {
        let merged = merge_manifests_with_children(
            &[sample("fig2", 4, 5).to_json(), sample("fig1", 4, 5).to_json()],
            &[],
        )
        .unwrap();
        let value = json::parse(&merged).unwrap();
        let map = value.as_obj().unwrap();
        assert_eq!(map["schema"].as_str(), Some(MERGED_SCHEMA));
        let runs = map["runs"].as_arr().unwrap();
        assert_eq!(run_name(&runs[0]), "fig1");
        assert_eq!(run_name(&runs[1]), "fig2");
    }
}
