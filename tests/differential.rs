//! Differential suite: the heterogeneous lockstep sweep path against
//! solo scalar references.
//!
//! The single-pass grid study trains every registered
//! [`PredictorSpec`] as a lane in one lockstep walk of the trace and
//! replays all misprediction streams through the lane-vector pipeline.
//! Both halves must be *behaviour-preserving*: each predictor must
//! observe exactly the branch sequence a solo run observes, and each
//! replay lane must compute exactly the cycles a scalar
//! [`simulate`](branch_lab::pipeline::simulate) call computes. This
//! suite proves both over a seeded workload matrix:
//!
//! * every spec in [`PredictorSpec::hetero_grid`] is trained lockstep
//!   and solo, with [`state_digest`](DirectionPredictor::state_digest)
//!   compared at every stream checkpoint (~16K branches) and the flag
//!   streams compared branch-for-branch;
//! * the lane replay is compared against the scalar path for mixed lane
//!   groups (16 lanes and a ragged 19), at several pipeline scales, and
//!   under the `u64` cycle-word fallback;
//! * a trace prepared from a block-wise disk stream replays identically
//!   to one prepared from the in-memory trace.

use branch_lab::pipeline::{simulate, PipelineConfig, SweepReplay};
use branch_lab::predictors::{sweep_flags, PredictorSpec};
use branch_lab::workloads::{lcf_suite, specint_suite, TraceStore, WorkloadSpec};

/// Replay-differential trace length: enough dynamic branches to exercise
/// TAGE allocation and every lane-chunk shape, cheap enough to replay at
/// many scales.
const TRACE_LEN: usize = 60_000;

/// Lockstep-digest trace length: long enough that every workload crosses
/// several 16K-branch stream blocks, giving multiple mid-stream digest
/// checkpoints before the final state compare.
const LOCKSTEP_LEN: usize = 300_000;

/// The seeded workload matrix: (generator, input seed) pairs drawn from
/// both suites. Each pair generates a deterministic trace, so the whole
/// suite is reproducible bit-for-bit.
fn matrix() -> Vec<(WorkloadSpec, u32)> {
    let si = specint_suite();
    let lcf = lcf_suite();
    vec![
        (si[1].clone(), 0),
        (si[6].clone(), 1),
        (lcf[0].clone(), 0),
        (lcf[3].clone(), 0),
    ]
}

#[test]
fn lockstep_sweep_matches_solo_replay_for_every_spec() {
    let specs = PredictorSpec::hetero_grid();
    for (wl, input) in matrix() {
        let trace = wl.trace(input, LOCKSTEP_LEN);

        // Lockstep: all specs in one walk, digests at every checkpoint.
        let mut lockstep = PredictorSpec::build_all(&specs);
        let mut checkpoints: Vec<(usize, Vec<u64>)> = Vec::new();
        let flags = sweep_flags(
            &mut lockstep,
            trace.reader(),
            Some(&mut |seen, predictors| {
                checkpoints.push((seen, predictors.iter().map(|p| p.state_digest()).collect()));
            }),
        )
        .expect("in-memory reader cannot fail");
        assert!(
            checkpoints.len() >= 3,
            "{}/{input}: need several checkpoints, got {}",
            wl.name,
            checkpoints.len()
        );

        // Solo: each spec alone, pausing at the same branch counts.
        for (i, spec) in specs.iter().enumerate() {
            let mut solo = spec.build();
            let mut next = checkpoints.iter().peekable();
            let mut n = 0usize;
            for br in trace.conditional_branches() {
                let miss = solo.predict_and_train(br.ip, br.taken) != br.taken;
                assert_eq!(
                    miss,
                    flags[i][n],
                    "{}/{input}/{}: flag diverged at branch {n}",
                    wl.name,
                    spec.label()
                );
                n += 1;
                if next.peek().is_some_and(|(at, _)| *at == n) {
                    let (_, digests) = next.next().unwrap();
                    assert_eq!(
                        solo.state_digest(),
                        digests[i],
                        "{}/{input}/{}: state diverged by branch {n}",
                        wl.name,
                        spec.label()
                    );
                }
            }
            assert_eq!(n, flags[i].len(), "{}/{input}: flag stream length", wl.name);
            assert_eq!(
                solo.state_digest(),
                lockstep[i].state_digest(),
                "{}/{input}/{}: final state diverged after {n} branches",
                wl.name,
                spec.label()
            );
        }
    }
}

#[test]
fn stateful_specs_produce_live_digests() {
    let trace = specint_suite()[1].trace(0, 20_000);
    for spec in PredictorSpec::hetero_grid() {
        let mut p = spec.build();
        let before = p.state_digest();
        for br in trace.conditional_branches() {
            let _ = p.predict_and_train(br.ip, br.taken);
        }
        let stateless = matches!(
            spec,
            PredictorSpec::AlwaysTaken | PredictorSpec::Perfect
        );
        if stateless {
            assert_eq!(p.state_digest(), 0, "{}: oracle digest", spec.label());
        } else {
            assert_ne!(
                p.state_digest(),
                before,
                "{}: training must move the digest",
                spec.label()
            );
            assert_ne!(p.state_digest(), 0, "{}: degenerate digest", spec.label());
        }
    }
}

/// Replays `lanes` at every scale through the hetero lane path, one
/// `simulate_many` call over all (scale, lane) cells, and through the
/// scalar reference, asserting exact [`SimStats`] equality per cell.
fn assert_lanes_match_scalar(
    wl: &WorkloadSpec,
    input: u32,
    lanes: &[&[bool]],
    base: &PipelineConfig,
    scales: &[u32],
) {
    let trace = wl.trace(input, TRACE_LEN);
    let sweep = SweepReplay::prepare(trace.reader(), base).expect("in-memory prepare");
    let configs: Vec<PipelineConfig> = scales.iter().map(|&s| base.scaled(s)).collect();
    let many = sweep.simulate_many(lanes, &configs);
    for ((&scale, cfg), per_scale) in scales.iter().zip(&configs).zip(&many) {
        for (k, lane) in lanes.iter().enumerate() {
            assert_eq!(
                per_scale[k],
                simulate(&trace, lane, cfg),
                "{}/{input}: lane {k}/{} diverged from scalar at {scale}x",
                wl.name,
                lanes.len()
            );
        }
    }
}

#[test]
fn hetero_lane_replay_matches_scalar_simulate() {
    let specs = PredictorSpec::hetero_grid();
    for (wl, input) in matrix() {
        let trace = wl.trace(input, TRACE_LEN);
        let mut predictors = PredictorSpec::build_all(&specs);
        let flags = sweep_flags(&mut predictors, trace.reader(), None)
            .expect("in-memory reader cannot fail");

        // The full 16-spec group (one 16-lane chunk per scale), then a
        // ragged 19 at two scales (38 cells: two 16-lane chunks, the
        // second mixing both scales, and six cells padded to 8 lanes)
        // built by repeating three streams.
        let full: Vec<&[bool]> = flags.iter().map(Vec::as_slice).collect();
        let mut ragged = full.clone();
        ragged.extend([&full[0], &full[7], &full[15]]);
        let base = PipelineConfig::skylake();
        assert_lanes_match_scalar(&wl, input, &full, &base, &[1, 8, 32]);
        assert_lanes_match_scalar(&wl, input, &ragged, &base, &[4, 2]);
    }
}

#[test]
fn u64_cycle_fallback_matches_scalar_simulate() {
    let (wl, input) = (&lcf_suite()[1], 0);
    let trace = wl.trace(input, TRACE_LEN);
    let specs = [
        PredictorSpec::parse("gshare").expect("known label"),
        PredictorSpec::parse("tage-sc-l-8kb").expect("known label"),
        PredictorSpec::AlwaysTaken,
    ];
    let mut predictors = PredictorSpec::build_all(&specs);
    let flags =
        sweep_flags(&mut predictors, trace.reader(), None).expect("in-memory reader cannot fail");
    let lanes: Vec<&[bool]> = flags.iter().map(Vec::as_slice).collect();

    // A penalty this large overflows u32 cycle words within a few
    // thousand mispredictions, forcing the exact u64 fallback.
    let mut base = PipelineConfig::skylake();
    base.mispredict_penalty = u32::MAX / 2;
    assert_lanes_match_scalar(wl, input, &lanes, &base, &[1, 2]);
}

#[test]
fn streamed_prepare_and_sweep_match_in_memory() {
    let dir = std::env::temp_dir().join(format!("branch-lab-differential-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let store = TraceStore::with_cache_dir(&dir);
    let wl = &lcf_suite()[2];
    // First get() persists the trace so stream() below reads from disk.
    let trace = store.get(wl, 0, TRACE_LEN);

    let specs = PredictorSpec::hetero_grid();
    let mut mem_preds = PredictorSpec::build_all(&specs);
    let mem_flags =
        sweep_flags(&mut mem_preds, trace.reader(), None).expect("in-memory reader cannot fail");
    let mut stream_preds = PredictorSpec::build_all(&specs);
    let stream_flags = sweep_flags(&mut stream_preds, store.stream(wl, 0, TRACE_LEN), None)
        .expect("stream trace for sweep");
    assert_eq!(mem_flags, stream_flags, "flag streams diverged");
    for (i, (m, s)) in mem_preds.iter().zip(&stream_preds).enumerate() {
        assert_eq!(
            m.state_digest(),
            s.state_digest(),
            "{}: predictor state diverged between prepare paths",
            specs[i].label()
        );
    }

    let base = PipelineConfig::skylake();
    let mem_sweep = SweepReplay::prepare(trace.reader(), &base).expect("in-memory prepare");
    let disk_sweep =
        SweepReplay::prepare(store.stream(wl, 0, TRACE_LEN), &base).expect("streamed prepare");
    let lanes: Vec<&[bool]> = mem_flags.iter().map(Vec::as_slice).collect();
    let configs = [base.scaled(1), base.scaled(16)];
    assert_eq!(
        mem_sweep.simulate_many(&lanes, &configs),
        disk_sweep.simulate_many(&lanes, &configs),
        "streamed prepare diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
