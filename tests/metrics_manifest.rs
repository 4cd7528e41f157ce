//! Manifest determinism across thread counts.
//!
//! The metrics counters must record *what work was done*, not *how it was
//! scheduled*: running the same study on 1 worker and on 8 workers has to
//! produce identical counter tables, with only the volatile fields
//! (`threads`, `wall_time_ns`, `timers_ns`) differing. This is the
//! property that makes manifests diffable regression artifacts.
//!
//! This lives in its own integration-test binary (= its own process)
//! because it force-enables the global metrics registry and calls
//! [`bp_metrics::reset`], which would race with counter assertions in
//! other tests sharing the process.

use std::collections::BTreeMap;

use branch_lab::core::{scaling_study_with, DatasetConfig, Engine};
use branch_lab::metrics;
use branch_lab::workloads::{specint_suite, TraceStore};

#[test]
fn manifests_identical_across_thread_counts() {
    metrics::force_enable();
    let cfg = DatasetConfig::quick().with_trace_len(20_000);
    let suite = &specint_suite()[..3];

    // Each measured run memoizes in a fresh trace store, so both generate
    // every trace and compute every intermediate; sharing one store would
    // make the first run count generations and memo fills and the second
    // hits, and the tables would differ for storage reasons, not
    // scheduling reasons.
    let mut manifests = Vec::new();
    for threads in [1usize, 8] {
        metrics::reset();
        let baseline = metrics::CounterBaseline::take();
        let store = TraceStore::new();
        let study = scaling_study_with(Engine::with_threads(threads), &store, suite, &cfg);
        assert_eq!(study.scales.len(), 6);
        let mut info = BTreeMap::new();
        info.insert("threads_requested".to_owned(), threads.to_string());
        manifests.push(baseline.capture_delta("scaling", info).to_json());
    }

    // Both manifests are valid JSON with a populated counter table.
    for m in &manifests {
        let v = metrics::json::parse(m).expect("manifest must be valid JSON");
        let counters = v
            .as_obj()
            .and_then(|o| o.get("counters"))
            .and_then(metrics::json::Value::as_obj)
            .expect("manifest must have a counters object");
        assert!(
            counters.contains_key("engine.tasks"),
            "expected engine counters, got {:?}",
            counters.keys().collect::<Vec<_>>()
        );
        assert!(counters.contains_key("pipeline.instructions"));
        assert!(counters.contains_key("tage.lookup"));
        assert!(counters.contains_key("trace_store.memo_fill"));
    }

    // Modulo the volatile fields (threads, wall time, timers — and the
    // info block we deliberately varied), the runs must be byte-equal.
    let strip = |m: &str| {
        let mut v = metrics::json::parse(m).expect("valid JSON");
        if let Some(o) = v.as_obj_mut() {
            o.remove("info");
        }
        metrics::normalize(&v.to_json()).expect("normalizable")
    };
    assert_eq!(
        strip(&manifests[0]),
        strip(&manifests[1]),
        "counter tables must not depend on the engine thread count"
    );
}
