//! The `bp-metrics` pipeline counters under lane replay.
//!
//! A [`SweepReplay::simulate_many`] lane must move every `pipeline.*`
//! counter exactly as one scalar [`simulate`] call with the same flags
//! would: each lane is one logical simulation in a run manifest. The
//! counters are process-global, so this file holds a single test and no
//! sibling test can move them mid-measurement.

use bp_pipeline::{simulate, PipelineConfig, SweepReplay};
use bp_workloads::lcf_suite;

/// Every counter the replay loops advance.
const COUNTERS: [&str; 6] = [
    "pipeline.sim_runs",
    "pipeline.instructions",
    "pipeline.cycles",
    "pipeline.flushes",
    "pipeline.refetch_bubble_cycles",
    "pipeline.rob_stall_events",
];

fn counter_values() -> [u64; 6] {
    COUNTERS.map(|name| bp_metrics::Counter::get(name).value())
}

/// How much each counter moved while `f` ran.
fn counter_deltas(f: impl FnOnce()) -> [u64; 6] {
    let before = counter_values();
    f();
    let after = counter_values();
    std::array::from_fn(|i| after[i] - before[i])
}

/// `count` seeded flag streams with misprediction rates from 2% to 59%.
fn flag_streams(branches: usize, count: u64) -> Vec<Vec<bool>> {
    (0..count)
        .map(|i| {
            let mut state = 0x5eed + i;
            (0..branches)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) % 100 < (3 + i * 4) % 61
                })
                .collect()
        })
        .collect()
}

#[test]
fn lane_replay_moves_every_counter_as_scalar_replay_does() {
    bp_metrics::force_enable();
    // A memory-bound trace: loads, store forwarding and a full ROB, so
    // the ROB-stall and refetch-bubble counts are far from zero.
    let trace = lcf_suite()[0].trace(0, 20_000);
    let streams = flag_streams(trace.conditional_branches().count(), 16);

    // The narrow (u32) lanes at the base and a scaled-up core, and the
    // u64 fallback, forced as `u64_fallback_matches_scalar` forces it.
    let mut wide = PipelineConfig::skylake();
    wide.mispredict_penalty = u32::MAX / 2;
    let configs = [
        ("narrow 1x", PipelineConfig::skylake()),
        ("narrow 8x", PipelineConfig::skylake().scaled(8)),
        ("u64 fallback", wide),
    ];
    for (label, config) in &configs {
        let sweep = SweepReplay::new(&trace, config);
        for lanes in [1, 3, 4, 16] {
            let refs: Vec<&[bool]> = streams[..lanes].iter().map(Vec::as_slice).collect();
            let mut many = Vec::new();
            let lane = counter_deltas(|| many = sweep.simulate_many(&refs, config));
            let mut solo = Vec::new();
            let scalar = counter_deltas(|| {
                solo = refs.iter().map(|f| simulate(&trace, f, config)).collect();
            });
            assert_eq!(many, solo, "{label}, {lanes} lanes: results");
            for (i, name) in COUNTERS.iter().enumerate() {
                assert_eq!(lane[i], scalar[i], "{label}, {lanes} lanes: {name}");
            }
            assert_eq!(lane[0], lanes as u64, "{label}: one sim_run per lane");
            for i in [3, 4, 5] {
                assert!(lane[i] > 0, "{label}, {lanes} lanes: {} never moved", COUNTERS[i]);
            }
        }
    }
}
