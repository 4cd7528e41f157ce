//! A reusable in-process fault-tolerant task executor.
//!
//! The `all` runner used to spawn one child *process* per study so a
//! crash or hang could be contained and `kill`ed. This module provides
//! the same containment in-process — cheaper, debuggable, and shared
//! with `branch-lab serve` — by composing four mechanisms:
//!
//! * **Panic isolation.** Every attempt runs under `catch_unwind`; a
//!   panicking study costs exactly its own slot.
//! * **Cooperative cancellation + deadlines.** Each attempt gets a fresh
//!   [`CancelToken`], installed as the thread's cancel scope
//!   ([`bp_metrics::cancel`]) and handed to the task body. A per-task
//!   deadline is armed on that token alone: every reader of the token
//!   ([`cancel::checkpoint`] in the block loops, and the check after the
//!   body returns) tests it, so a study inside the replay loop stops
//!   within one 16K-record block, and a body that returns past its
//!   deadline still counts as cancelled.
//! * **Bounded retries with deterministic jittered backoff.** Retry
//!   delays are `[0.5, 1.5) × base`, drawn from an FNV hash of
//!   (seed, task name, attempt) — see [`Backoff`] — so a fleet of
//!   retrying tasks decorrelates without losing reproducibility.
//!   Cancelled attempts are retried like any other failure.
//! * **Checkpoint/resume at task granularity.** Completed task names
//!   (and their attempt counts) append to a checkpoint file; a resumed
//!   run skips them and reports byte-identical merged manifests.
//!
//! Fault sites: `{fault_prefix}.{name}` simulates a task failure (the
//! direct descendant of the old `all.child.<bin>` site) and
//! `exec.deadline.{name}` force-expires the attempt's deadline — both
//! drive the chaos CI leg through injected failures.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bp_metrics::cancel::{self, CancelToken, Cancelled};
use bp_metrics::faultpoint;

/// Deterministic seeded jittered retry backoff.
///
/// The delay before retry `attempt` of task `label` is
/// `[0.5, 1.5) × base`, where the jitter fraction comes from an FNV-1a
/// hash of (seed, label, attempt). Same seed → same delays; different
/// tasks/attempts → decorrelated delays.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Center of the jitter window.
    pub base: Duration,
    /// Jitter seed (normally `BRANCH_LAB_CHAOS_SEED`).
    pub seed: u64,
}

impl Backoff {
    /// A backoff with an explicit base delay and seed.
    #[must_use]
    pub fn new(base: Duration, seed: u64) -> Backoff {
        Backoff { base, seed }
    }

    /// Reads `BRANCH_LAB_RETRY_DELAY_MS` (default 500) and
    /// `BRANCH_LAB_CHAOS_SEED` (default 0).
    #[must_use]
    pub fn from_env() -> Backoff {
        let ms = std::env::var("BRANCH_LAB_RETRY_DELAY_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(500);
        Backoff::new(Duration::from_millis(ms), faultpoint::env_seed())
    }

    /// The deterministic jittered delay before the given retry.
    #[must_use]
    pub fn jittered(&self, label: &str, attempt: u32) -> Duration {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.seed;
        let mut mix = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in label.bytes() {
            mix(b);
        }
        for b in attempt.to_le_bytes() {
            mix(b);
        }
        // Jitter fraction in [0.5, 1.5): hash → [0, 1) + 0.5.
        #[allow(clippy::cast_precision_loss)] // 20-bit hash slice: exact in f64
        let frac = 0.5 + ((h >> 44) as f64) / ((1u64 << 20) as f64);
        self.base.mul_f64(frac)
    }
}

/// A task body: fallible, cancellable via the attempt's token.
type TaskBody<'a> = Box<dyn FnMut(&CancelToken) -> Result<(), String> + 'a>;

/// One unit of work: a name (checkpoint key, fault-site suffix, log
/// label) and a fallible body that receives its attempt's cancel token.
pub struct Task<'a> {
    /// Checkpoint key / fault-site suffix / log label.
    pub name: String,
    run: TaskBody<'a>,
}

impl<'a> Task<'a> {
    /// Wraps `run` under `name`.
    pub fn new(
        name: impl Into<String>,
        run: impl FnMut(&CancelToken) -> Result<(), String> + 'a,
    ) -> Task<'a> {
        Task { name: name.into(), run: Box::new(run) }
    }
}

/// Executor policy.
pub struct ExecOptions {
    /// Extra attempts per task after the first.
    pub retries: u32,
    /// Retry-delay policy.
    pub backoff: Backoff,
    /// Per-attempt deadline, armed on the attempt's [`CancelToken`];
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Keep running later tasks after a failure (`false`: remaining
    /// tasks report [`Outcome::NotRun`]).
    pub keep_going: bool,
    /// Checkpoint file recording completed tasks (`<name> <attempts>`
    /// per line). `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Skip tasks already recorded in the checkpoint file. When false,
    /// a pre-existing checkpoint file is deleted at startup.
    pub resume: bool,
    /// Fault-site prefix: each attempt first consults the
    /// `{fault_prefix}.{name}` fault site and fails with
    /// `injected fault: child failure` when armed. `None` disables the
    /// site.
    pub fault_prefix: Option<String>,
    /// Log prefix (e.g. `"all"`). `Some` enables the per-task stdout
    /// banners and stderr retry/failure messages; `None` runs silently.
    pub log_prefix: Option<String>,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            retries: 0,
            backoff: Backoff::new(Duration::ZERO, 0),
            deadline: None,
            keep_going: false,
            checkpoint: None,
            resume: false,
            fault_prefix: None,
            log_prefix: None,
        }
    }
}

/// How one task ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Succeeded this run.
    Ok,
    /// Skipped: the checkpoint file says a previous run completed it.
    Resumed,
    /// All attempts failed; the payload is the final failure detail
    /// (panic message, error string, or `cancelled: <reason>`).
    Failed(String),
    /// Never started because an earlier task failed without
    /// `keep_going`.
    NotRun,
}

impl Outcome {
    /// Human-readable status for the per-task summary table.
    #[must_use]
    pub fn status(&self) -> String {
        match self {
            Outcome::Ok => "ok".to_string(),
            Outcome::Resumed => "ok (resumed)".to_string(),
            Outcome::Failed(detail) => format!("failed: {detail}"),
            Outcome::NotRun => "not-run".to_string(),
        }
    }

    /// Status for the merged-manifest `children` map. A resumed task
    /// reports plain `"ok"` here, so a clean run and an
    /// interrupted-then-resumed run merge to byte-identical documents.
    #[must_use]
    pub fn merged_status(&self) -> String {
        match self {
            Outcome::Resumed => "ok".to_string(),
            other => other.status(),
        }
    }

    /// Whether the task's work is done (ran now or in a previous run).
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Resumed)
    }
}

/// One task's result: outcome, attempts consumed, wall time.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// The task's name.
    pub name: String,
    /// How it ended.
    pub outcome: Outcome,
    /// Attempts consumed (resumed tasks report the attempts their
    /// original run recorded in the checkpoint).
    pub attempts: u32,
    /// Wall time spent on this task in this run.
    pub seconds: f64,
}

/// Loads a checkpoint file: `<name> <attempts>` per line (bare `<name>`
/// lines from older checkpoints count as one attempt).
fn load_checkpoint(path: &std::path::Path) -> HashMap<String, u32> {
    let Ok(raw) = std::fs::read_to_string(path) else {
        return HashMap::new();
    };
    raw.lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let name = parts.next()?;
            let attempts = parts.next().and_then(|a| a.parse().ok()).unwrap_or(1);
            Some((name.to_string(), attempts))
        })
        .collect()
}

fn record_checkpoint(path: &std::path::Path, name: &str, attempts: u32) {
    use std::io::Write as _;
    let opened = std::fs::OpenOptions::new().create(true).append(true).open(path);
    let result = opened.and_then(|mut f| writeln!(f, "{name} {attempts}"));
    if let Err(err) = result {
        eprintln!("branch-lab: failed to update checkpoint {}: {err}", path.display());
    }
}

/// Renders a panic payload the way the default hook would.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `tasks` in order under the executor policy, returning one
/// [`TaskReport`] per task (same order).
///
/// Each attempt: fire the `{fault_prefix}.{name}` fault site if armed;
/// build a fresh [`CancelToken`] (deadline-armed, and force-expired when
/// the `exec.deadline.{name}` site fires); install it as the thread's
/// cancel scope; run the body under `catch_unwind`; and
/// classify the result — an `Ok` body under a cancelled token still
/// counts as a cancelled attempt, so deadlines work even for bodies with
/// no cancellation checkpoints. Cancelled and failed attempts both
/// consume retries with jittered backoff between attempts.
pub fn run(mut tasks: Vec<Task<'_>>, opts: &ExecOptions) -> Vec<TaskReport> {
    let done = match (&opts.checkpoint, opts.resume) {
        (Some(path), true) => load_checkpoint(path),
        (Some(path), false) => {
            let _ = std::fs::remove_file(path);
            HashMap::new()
        }
        (None, _) => HashMap::new(),
    };
    bp_metrics::Counter::get("exec.tasks").add(tasks.len() as u64);

    let mut reports: Vec<TaskReport> = Vec::with_capacity(tasks.len());
    let mut aborted = false;
    for task in &mut tasks {
        let name = task.name.clone();
        if aborted {
            reports.push(TaskReport {
                name,
                outcome: Outcome::NotRun,
                attempts: 0,
                seconds: 0.0,
            });
            continue;
        }
        if let Some(&attempts) = done.get(&name) {
            if opts.log_prefix.is_some() {
                println!("\n########## {name} ########## (skipped: already succeeded)");
            }
            bp_metrics::Counter::get("exec.resumed").incr();
            reports.push(TaskReport {
                name,
                outcome: Outcome::Resumed,
                attempts,
                seconds: 0.0,
            });
            continue;
        }
        if opts.log_prefix.is_some() {
            println!("\n########## {name} ##########");
        }

        let started = Instant::now();
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            bp_metrics::Counter::get("exec.attempts").incr();
            let detail = run_attempt(task, opts);
            let Some(detail) = detail else {
                break Outcome::Ok;
            };
            if detail.starts_with("cancelled") {
                bp_metrics::Counter::get("exec.cancelled").incr();
            }
            if attempts > opts.retries {
                if let Some(prefix) = &opts.log_prefix {
                    eprintln!(
                        "{prefix}: {name} ultimately failed after {attempts} attempts: {detail}"
                    );
                }
                bp_metrics::Counter::get("exec.failures").incr();
                break Outcome::Failed(detail);
            }
            bp_metrics::Counter::get("exec.retries").incr();
            let delay = opts.backoff.jittered(&name, attempts);
            if let Some(prefix) = &opts.log_prefix {
                eprintln!(
                    "{prefix}: {name} failed ({detail}); retrying in {:.1}s",
                    delay.as_secs_f64()
                );
            }
            std::thread::sleep(delay);
        };

        if outcome == Outcome::Ok {
            if let Some(path) = &opts.checkpoint {
                record_checkpoint(path, &name, attempts);
            }
        } else if !opts.keep_going {
            aborted = true;
        }
        reports.push(TaskReport {
            name,
            outcome,
            attempts,
            seconds: started.elapsed().as_secs_f64(),
        });
    }
    reports
}

/// One attempt of one task: `None` on success, `Some(detail)` on
/// failure/cancellation.
fn run_attempt(task: &mut Task<'_>, opts: &ExecOptions) -> Option<String> {
    if let Some(prefix) = &opts.fault_prefix {
        if faultpoint::should_fail(&format!("{prefix}.{}", task.name)) {
            return Some("injected fault: child failure".to_string());
        }
    }
    let token = CancelToken::new();
    if faultpoint::should_fail(&format!("exec.deadline.{}", task.name)) {
        token.cancel("injected fault: deadline expired");
    } else if let Some(deadline) = opts.deadline {
        token.set_deadline_in(deadline);
    }
    let result = {
        let _scope = cancel::set_scope(token.clone());
        catch_unwind(AssertUnwindSafe(|| (task.run)(&token)))
    };
    match result {
        // A body that returned cleanly under a cancelled token still
        // counts as cancelled: the attempt ran past its deadline (or the
        // injected expiry) and its output must not be trusted as "on
        // time".
        Ok(Ok(())) if token.is_cancelled() => Some(format!("cancelled: {}", token.reason())),
        Ok(Ok(())) => None,
        Ok(Err(message)) => Some(message),
        Err(payload) => match payload.downcast_ref::<Cancelled>() {
            Some(c) => Some(format!("cancelled: {}", c.reason)),
            None => Some(format!("panicked: {}", panic_message(payload.as_ref()))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn opts() -> ExecOptions {
        ExecOptions {
            backoff: Backoff::new(Duration::ZERO, 0),
            ..ExecOptions::default()
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let b = Backoff::new(Duration::from_millis(100), 42);
        let mut delays = Vec::new();
        for attempt in 1..=8 {
            let d = b.jittered("fig3", attempt);
            assert_eq!(d, b.jittered("fig3", attempt), "same inputs, same delay");
            assert!(d >= Duration::from_millis(50) && d < Duration::from_millis(150), "{d:?}");
            delays.push(d);
        }
        delays.dedup();
        assert!(delays.len() > 1, "jitter must actually vary across attempts");
        assert_ne!(
            b.jittered("fig3", 1),
            Backoff::new(Duration::from_millis(100), 43).jittered("fig3", 1),
            "seed changes the schedule"
        );
    }

    #[test]
    fn tasks_run_in_order_and_failures_gate_later_tasks() {
        let tasks = vec![
            Task::new("a", |_: &CancelToken| Ok(())),
            Task::new("b", |_: &CancelToken| Err("boom".to_string())),
            Task::new("c", |_: &CancelToken| Ok(())),
        ];
        let reports = run(tasks, &opts());
        assert_eq!(reports[0].outcome, Outcome::Ok);
        assert_eq!(reports[1].outcome, Outcome::Failed("boom".to_string()));
        assert_eq!(reports[1].outcome.status(), "failed: boom");
        assert_eq!(reports[2].outcome, Outcome::NotRun);
        assert_eq!(reports[2].attempts, 0);

        let tasks = vec![
            Task::new("b", |_: &CancelToken| Err("boom".to_string())),
            Task::new("c", |_: &CancelToken| Ok(())),
        ];
        let keep_going = ExecOptions { keep_going: true, ..opts() };
        let reports = run(tasks, &keep_going);
        assert_eq!(reports[1].outcome, Outcome::Ok, "keep_going runs later tasks");
    }

    #[test]
    fn retries_are_bounded_and_recover_transients() {
        let calls = AtomicU32::new(0);
        let tasks = vec![Task::new("flaky", |_: &CancelToken| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err("transient".to_string())
            } else {
                Ok(())
            }
        })];
        let retrying = ExecOptions { retries: 2, ..opts() };
        let reports = run(tasks, &retrying);
        assert_eq!(reports[0].outcome, Outcome::Ok);
        assert_eq!(reports[0].attempts, 3);

        let tasks = vec![Task::new("doomed", |_: &CancelToken| Err("always".to_string()))];
        let reports = run(tasks, &retrying);
        assert_eq!(reports[0].outcome, Outcome::Failed("always".to_string()));
        assert_eq!(reports[0].attempts, 3);
    }

    #[test]
    fn panics_are_contained_and_classified() {
        let tasks = vec![
            Task::new("bang", |_: &CancelToken| panic!("kaboom")),
            Task::new("after", |_: &CancelToken| Ok(())),
        ];
        let keep_going = ExecOptions { keep_going: true, ..opts() };
        let reports = run(tasks, &keep_going);
        match &reports[0].outcome {
            Outcome::Failed(d) => assert!(d.contains("panicked: kaboom"), "{d}"),
            other => panic!("expected failure, got {other:?}"),
        }
        assert_eq!(reports[1].outcome, Outcome::Ok);
    }

    #[test]
    fn deadline_cancels_a_polling_task_via_its_token() {
        let tasks = vec![Task::new("stuck", |token: &CancelToken| {
            // Polls the token like the block loop would, without ever
            // finishing on its own: only the token's deadline stops it.
            let start = Instant::now();
            while !token.is_cancelled() {
                assert!(start.elapsed() < Duration::from_secs(10), "deadline never expired");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(format!("cancelled: {}", token.reason()))
        })];
        let deadline = ExecOptions {
            deadline: Some(Duration::from_millis(30)),
            ..opts()
        };
        let reports = run(tasks, &deadline);
        match &reports[0].outcome {
            Outcome::Failed(d) => assert!(d.contains("deadline expired"), "{d}"),
            other => panic!("expected deadline failure, got {other:?}"),
        }
    }

    #[test]
    fn clean_return_under_a_cancelled_token_is_still_a_failure() {
        let tasks = vec![Task::new("ignores-cancel", |token: &CancelToken| {
            token.cancel("test cancel");
            Ok(()) // body ignores the token entirely
        })];
        let reports = run(tasks, &opts());
        match &reports[0].outcome {
            Outcome::Failed(d) => assert!(d.contains("cancelled: test cancel"), "{d}"),
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn scope_is_installed_for_the_body_and_checkpoints_unwind() {
        let tasks = vec![Task::new("scoped", |token: &CancelToken| {
            assert!(cancel::active(), "executor must install the cancel scope");
            token.cancel("stop now");
            cancel::checkpoint("exec.test"); // unwinds with Cancelled
            unreachable!("checkpoint must have unwound");
        })];
        let reports = run(tasks, &opts());
        match &reports[0].outcome {
            Outcome::Failed(d) => {
                assert!(d.contains("cancelled: stop now"), "{d}");
                assert!(d.contains("exec.test"), "{d}");
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(!cancel::active(), "scope must be restored after the task");
    }

    #[test]
    fn checkpoint_resume_skips_completed_tasks_and_keeps_attempts() {
        let dir = std::env::temp_dir().join(format!("bp-exec-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.checkpoint");
        let _ = std::fs::remove_file(&path);

        let ran = AtomicU32::new(0);
        let flaky_calls = AtomicU32::new(0);
        let make_tasks = |fail_gamma: bool| {
            vec![
                Task::new("alpha", |_: &CancelToken| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }),
                Task::new("flaky", |_: &CancelToken| {
                    if flaky_calls.fetch_add(1, Ordering::Relaxed) == 0 {
                        Err("transient".to_string())
                    } else {
                        Ok(())
                    }
                }),
                Task::new("gamma", move |_: &CancelToken| {
                    if fail_gamma {
                        Err("down".to_string())
                    } else {
                        Ok(())
                    }
                }),
            ]
        };
        let base = ExecOptions {
            retries: 1,
            keep_going: true,
            checkpoint: Some(path.clone()),
            ..opts()
        };
        let first = run(make_tasks(true), &base);
        assert_eq!(first[0].outcome, Outcome::Ok);
        assert_eq!(first[1].outcome, Outcome::Ok);
        assert_eq!(first[1].attempts, 2, "transient consumed one retry");
        assert!(matches!(first[2].outcome, Outcome::Failed(_)));

        let resume = ExecOptions {
            resume: true,
            retries: 1,
            keep_going: true,
            checkpoint: Some(path.clone()),
            ..opts()
        };
        let second = run(make_tasks(false), &resume);
        assert_eq!(second[0].outcome, Outcome::Resumed);
        assert_eq!(second[1].outcome, Outcome::Resumed);
        assert_eq!(second[1].attempts, 2, "resumed attempts come from the checkpoint");
        assert_eq!(second[1].outcome.status(), "ok (resumed)");
        assert_eq!(second[1].outcome.merged_status(), "ok");
        assert_eq!(second[2].outcome, Outcome::Ok, "failed task re-runs on resume");
        assert_eq!(ran.load(Ordering::Relaxed), 1, "alpha must not re-run");

        // A *fresh* (non-resume) run deletes the checkpoint and re-runs all.
        let third = run(make_tasks(false), &base);
        assert!(third.iter().all(|r| r.outcome == Outcome::Ok));
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_checkpoint_lines_without_attempts_still_resume() {
        let dir = std::env::temp_dir().join(format!("bp-exec-ckpt-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.checkpoint");
        std::fs::write(&path, "alpha\nbeta 3\n").unwrap();
        let tasks = vec![
            Task::new("alpha", |_: &CancelToken| panic!("must not run")),
            Task::new("beta", |_: &CancelToken| panic!("must not run")),
        ];
        let options = ExecOptions {
            resume: true,
            checkpoint: Some(path),
            ..opts()
        };
        let reports = run(tasks, &options);
        assert_eq!(reports[0].outcome, Outcome::Resumed);
        assert_eq!(reports[0].attempts, 1, "bare v1 lines count as one attempt");
        assert_eq!(reports[1].attempts, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
