//! The `bp-metrics` pipeline counters under lane replay.
//!
//! A [`SweepReplay::simulate_many`] cell must move every `pipeline.*`
//! counter exactly as one scalar [`simulate`] call with the same flags
//! and config would: each cell is one logical simulation in a run
//! manifest, and a padding lane is none. The counters are
//! process-global, so this file holds a single test and no sibling test
//! can move them mid-measurement.

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
    let labels = ["narrow 1x", "narrow 8x", "u64 fallback"];
    let configs = [PipelineConfig::skylake(), PipelineConfig::skylake().scaled(8), wide];
    // Each config alone (1 and 3 streams pad to 4 lanes, 4 and 16 fill
    // their chunk), then mixed-scale chunks: 2 configs × 3 streams is
    // one 8-lane chunk with two padding lanes, all three configs × 5
    // streams one 16-lane chunk with one, and × 6 a full 16-lane chunk
    // plus a 4-lane tail padded from two cells.
    let mut runs: Vec<(String, &[PipelineConfig], usize)> = Vec::new();
    for (i, label) in labels.iter().enumerate() {
        for lanes in [1, 3, 4, 16] {
            runs.push((format!("{label}, {lanes} lanes"), &configs[i..=i], lanes));
        }
    }
    runs.push(("narrow 1x + 8x, 3 lanes each".to_owned(), &configs[..2], 3));
    runs.push(("all three, 5 lanes each".to_owned(), &configs[..], 5));
    runs.push(("all three, 6 lanes each".to_owned(), &configs[..], 6));
    for (label, configs, lanes) in runs {
        let sweep = SweepReplay::new(&trace, &configs[0]);
        let refs: Vec<&[bool]> = streams[..lanes].iter().map(Vec::as_slice).collect();
        let mut many = Vec::new();
        let lane = counter_deltas(|| many = sweep.simulate_many(&refs, configs));
        let mut solo = Vec::new();
        let scalar = counter_deltas(|| {
            solo = configs
                .iter()
                .map(|c| {
                    refs.iter()
                        .map(|f| simulate(&trace, f, c))
                        .collect::<Vec<_>>()
                })
                .collect();
        });
        assert_eq!(many, solo, "{label}: results");
        for (i, name) in COUNTERS.iter().enumerate() {
            assert_eq!(lane[i], scalar[i], "{label}: {name}");
        }
        let cells = (configs.len() * lanes) as u64;
        assert_eq!(
            lane[0], cells,
            "{label}: one sim_run per cell, none per padding lane"
        );
        for i in [3, 4, 5] {
            assert!(lane[i] > 0, "{label}: {} never moved", COUNTERS[i]);
        }
    }
}
