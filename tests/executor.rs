//! End-to-end guarantees of the fault-tolerant executor
//! (`bp_core::exec`) and the cooperative-cancellation plumbing beneath
//! it: a cancelled sweep stops at the next block checkpoint instead of
//! finishing the trace, deadlines reach into the replay hot loops, the
//! engine re-raises cancellation as the typed orderly stop without
//! running any task body, and an interrupted-then-resumed task fleet
//! merges to manifests byte-identical to an uninterrupted run at any
//! thread count.
//!
//! Cancel scopes, fault plans and metrics counters are process-global,
//! so every test here serializes behind one gate.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use branch_lab::core::exec::{self, Backoff, ExecOptions, Outcome, Task};
use branch_lab::core::{cancel, faultpoint, Engine};
use branch_lab::metrics::{merge_manifests_with_children, normalize, Counter, CounterBaseline};
use branch_lab::pipeline::{PipelineConfig, SweepReplay};
use branch_lab::predictors::{sweep_flags, DirectionPredictor, PredictorSpec};
use branch_lab::trace::{BptrReader, RetiredInst, Trace, TraceMeta, TraceReader, BLOCK_RECORDS};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fresh private directory under the system temp dir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "branch-lab-exec-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A trace of `n` conditional branches with a noisy-but-deterministic
/// direction stream.
fn branchy_trace(n: u64) -> Trace {
    let mut t = Trace::new(TraceMeta::new("exec-test", 0));
    for i in 0..n {
        let taken = (i.wrapping_mul(2_654_435_761) >> 7) % 5 < 3;
        t.push(RetiredInst::cond_branch(0x40_0000 + (i % 211) * 4, taken, 0x80_0000, Some(1), None));
    }
    t
}

#[test]
fn cancelled_sweep_stops_at_the_next_block_checkpoint() {
    let _g = gate();
    // 2.5 codec blocks; an uncancelled sweep would observe every block
    // up to 163840 branches.
    let total = BLOCK_RECORDS as u64 * 5 / 2;
    let trace = branchy_trace(total);
    let mut bytes = Vec::new();
    trace.write_to(&mut bytes).expect("serialize");

    // The in-memory reader delivers the whole trace as one chunk and the
    // v3 reader one 64K-record block per chunk: both must stop before
    // training the block after the one whose observer cancelled.
    let readers: [(&str, Box<dyn TraceReader + '_>); 2] = [
        ("in-memory", Box::new(trace.reader())),
        ("v3", Box::new(BptrReader::new(bytes.as_slice()).expect("header"))),
    ];
    for (label, mut reader) in readers {
        let token = cancel::CancelToken::new();
        let _scope = cancel::set_scope(token.clone());
        let mut observed_max = 0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut predictors: Vec<Box<dyn DirectionPredictor>> =
                vec![PredictorSpec::parse("gshare").expect("known predictor").build()];
            sweep_flags(
                &mut predictors,
                reader.as_mut(),
                Some(&mut |n, _| {
                    observed_max = n;
                    if n >= 16_384 {
                        token.cancel("test stop");
                    }
                }),
            )
        }));
        let payload = result.expect_err(&format!("{label}: cancelled sweep must unwind"));
        let cancelled = payload.downcast_ref::<cancel::Cancelled>().expect("Cancelled payload");
        assert!(cancelled.reason.contains("test stop"), "{label}: {}", cancelled.reason);
        assert!(cancelled.reason.contains("sweep.train"), "{label}: {}", cancelled.reason);
        assert_eq!(
            observed_max, 16_384,
            "{label}: training must stop at the block after the cancel, of {total} branches"
        );
    }
}

#[test]
fn pre_cancelled_scope_stops_replay_immediately() {
    let _g = gate();
    let trace = branchy_trace(100_000);
    let config = PipelineConfig::skylake();
    let replay = SweepReplay::new(&trace, &config);
    let flags = vec![false; trace.len()];

    let token = cancel::CancelToken::new();
    token.cancel("expired before replay");
    let _scope = cancel::set_scope(token);
    let result = catch_unwind(AssertUnwindSafe(|| replay.simulate(&flags, &config)));
    let payload = result.expect_err("replay under a cancelled scope must unwind");
    let cancelled = payload.downcast_ref::<cancel::Cancelled>().expect("Cancelled payload");
    assert!(cancelled.reason.contains("expired before replay"), "{}", cancelled.reason);
    assert!(cancelled.reason.contains("sweep."), "{}", cancelled.reason);
}

#[test]
fn executor_deadline_interrupts_a_replay_loop_and_reports_structured_failure() {
    let _g = gate();
    let trace = branchy_trace(100_000);
    let config = PipelineConfig::skylake();
    let replay = SweepReplay::new(&trace, &config);
    let flags = vec![false; trace.len()];

    let started = Instant::now();
    let tasks = vec![Task::new("endless-replay", |_: &cancel::CancelToken| {
        // Replays forever: only the deadline (token → block checkpoint
        // inside `simulate`) can stop it.
        loop {
            let stats = replay.simulate(&flags, &config);
            assert!(stats.ipc() > 0.0);
        }
    })];
    let opts = ExecOptions {
        deadline: Some(Duration::from_millis(100)),
        backoff: Backoff::new(Duration::ZERO, 0),
        ..ExecOptions::default()
    };
    let reports = exec::run(tasks, &opts);
    match &reports[0].outcome {
        Outcome::Failed(detail) => {
            assert!(detail.contains("cancelled"), "{detail}");
            assert!(detail.contains("deadline expired"), "{detail}");
        }
        other => panic!("expected deadline failure, got {other:?}"),
    }
    assert_eq!(reports[0].attempts, 1, "no retries configured");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "deadline must interrupt the loop promptly"
    );
}

#[test]
fn engine_under_a_cancelled_scope_stops_orderly_and_never_retries() {
    let _g = gate();
    let token = cancel::CancelToken::new();
    token.cancel("fleet shutdown");
    let _scope = cancel::set_scope(token);
    let items: Vec<u32> = (0..12).collect();
    let bodies = AtomicU32::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        Engine::with_threads(3).map(&items, |_, &x| {
            bodies.fetch_add(1, Ordering::Relaxed);
            x
        })
    }))
    .expect_err("every task sees the cancelled scope");
    let cancelled = payload.downcast_ref::<cancel::Cancelled>().expect("typed Cancelled payload");
    assert!(cancelled.reason.contains("fleet shutdown"), "{}", cancelled.reason);
    assert!(cancelled.reason.contains("engine.task"), "{}", cancelled.reason);
    assert_eq!(bodies.load(Ordering::Relaxed), 0, "no task body runs, none is retried");
}

/// One synthetic "study": deterministic counter increments plus a
/// parallel engine map, with a per-task delta manifest written to `dir`
/// — the same shape the `all` runner gives real studies.
fn fleet_tasks<'a>(dir: &'a Path, threads: usize) -> Vec<Task<'a>> {
    ["alpha", "beta", "gamma"]
        .into_iter()
        .map(move |name| {
            Task::new(name, move |_: &cancel::CancelToken| {
                let baseline = CounterBaseline::take();
                let items: Vec<u64> = (0..257).collect();
                let squares = Engine::with_threads(threads).map(&items, |_, &x| x * x);
                Counter::get(&format!("study.{name}.checksum"))
                    .add(squares.iter().sum::<u64>() % 10_007);
                Counter::get(&format!("study.{name}.items")).add(items.len() as u64);
                let info = BTreeMap::from([("quick".to_string(), "true".to_string())]);
                baseline
                    .capture_delta(name, info)
                    .write_to_sink(dir)
                    .map_err(|e| e.to_string())
            })
        })
        .collect()
}

/// Runs a fleet pass over `dir` and returns the merged manifest
/// (normalized), mirroring the `all` runner's merge.
fn run_fleet(dir: &Path, threads: usize, resume: bool) -> String {
    let opts = ExecOptions {
        retries: 1,
        backoff: Backoff::new(Duration::ZERO, 0),
        keep_going: true,
        checkpoint: Some(dir.join("fleet.checkpoint")),
        resume,
        fault_prefix: Some("test.child".to_string()),
        ..ExecOptions::default()
    };
    let reports = exec::run(fleet_tasks(dir, threads), &opts);
    let runs: Vec<String> = reports
        .iter()
        .filter(|r| r.outcome.is_success())
        .map(|r| {
            std::fs::read_to_string(dir.join(format!("{}.json", r.name))).expect("manifest")
        })
        .collect();
    let children: Vec<(String, String, u32)> = reports
        .iter()
        .map(|r| (r.name.clone(), r.outcome.merged_status(), r.attempts))
        .collect();
    let merged = merge_manifests_with_children(&runs, &children).expect("merge");
    normalize(&merged).expect("normalize")
}

#[test]
fn interrupted_then_resumed_fleet_matches_a_clean_run_byte_for_byte() {
    let _g = gate();
    branch_lab::metrics::force_enable();

    // Clean reference run, single-threaded engine.
    let clean_dir = scratch_dir("clean");
    let clean = run_fleet(&clean_dir, 1, false);

    // Chaos run at a different thread count: beta's task fails both
    // attempts (injected before its body, like a crashed child), then
    // the fault clears and `--resume` finishes the fleet.
    let chaos_dir = scratch_dir("chaos");
    faultpoint::install_for_tests(Some("test.child.beta:fail"));
    let interrupted = run_fleet(&chaos_dir, 4, false);
    faultpoint::install_for_tests(None);
    assert!(
        interrupted.contains("failed: injected fault: child failure"),
        "interrupted merge must record the failure: {interrupted}"
    );
    assert_ne!(clean, interrupted, "partial merge must differ from the clean one");

    let resumed = run_fleet(&chaos_dir, 4, true);
    assert_eq!(
        clean, resumed,
        "resumed merge must be byte-identical to an uninterrupted run"
    );

    // The per-study manifests are byte-identical too — alpha's was
    // written by the interrupted run, beta's by the resumed one.
    for name in ["alpha", "beta", "gamma"] {
        let a = std::fs::read_to_string(clean_dir.join(format!("{name}.json"))).expect("clean");
        let b = std::fs::read_to_string(chaos_dir.join(format!("{name}.json"))).expect("chaos");
        assert_eq!(
            normalize(&a).expect("normalize"),
            normalize(&b).expect("normalize"),
            "{name} manifest must not depend on interruption or thread count"
        );
    }
    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&chaos_dir);
}
