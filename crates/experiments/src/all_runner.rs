//! Runs every report study in sequence, fault-tolerantly (`branch-lab
//! all`).
//!
//! The child list is derived from the study registry
//! ([`crate::registry::registry`], [`bp_core::StudyRegistry::reports`])
//! — adding a report row is all it takes to join the sweep.
//!
//! The studies run **in-process** as tasks of the fault-tolerant
//! executor ([`bp_core::exec`]), which supplies panic isolation,
//! cooperative cancellation with per-study deadlines (armed on each
//! attempt's token and observed at the replay loops' block-granular
//! checkpoints), bounded retries
//! with deterministic jittered backoff, and a study-granularity
//! checkpoint file. Running in one process means every study shares the
//! in-memory `TraceStore`; `all` still gives `BRANCH_LAB_TRACE_DIR` the
//! default `out/traces` ([`bp_metrics::env::TRACE_DIR_DEFAULT`], before
//! any study reads it; an explicit value in the environment wins) so
//! traces also persist on disk for later single-study runs, and so the
//! memory governor (`BRANCH_LAB_MEM_BUDGET`) can evict cold traces and
//! fall back to streaming them from disk.
//!
//! A full sweep is exactly the kind of multi-hour batch run that must not
//! lose fifteen finished studies to one flaky one, so the runner:
//!
//! * retries each failing study once (after a seeded jittered backoff);
//! * with `--keep-going` continues past ultimately-failed studies
//!   instead of aborting;
//! * cancels studies that exceed `--timeout-secs N` (`0` disables the
//!   deadline) at the next replay-block checkpoint;
//! * records every success in a checkpoint file (`all.checkpoint` in the
//!   metrics sink or trace dir) so `all --resume` re-runs only the
//!   studies that have not succeeded yet;
//! * prints a final per-study summary table and exits nonzero iff any
//!   study ultimately failed.
//!
//! The remaining flags (`--len`, `--quick`, `--csv`, `--sample-*`) are
//! the standard report-study options: they build one [`bp_core::StudyCtx`]
//! ([`Cli::ctx`]) that every study runs on. A malformed or unknown flag,
//! a bare argument, or a `--csv` directory that cannot be created is a
//! usage error (exit 2) before any study runs.
//!
//! With `BRANCH_LAB_METRICS` pointing at a sink directory, each study
//! writes a per-study *delta* manifest there (counters attributed to
//! that study alone, recorded by [`crate::run_recorded`] with the same
//! `info` block as `branch-lab run`); `all` merges whichever manifests
//! exist into `<sink>/all.json`, annotated with a per-child status table
//! and attempt counts — a partial sweep produces a partial (but honest)
//! merged manifest.
//!
//! Fault injection: each attempt of study `<bin>` passes the
//! `all.child.<bin>` fault site, so `BRANCH_LAB_FAULTS=all.child.fig3:fail`
//! deterministically fails that study; `exec.deadline.<bin>` force-expires
//! its deadline. Both drive the chaos leg of `ci.sh`.

use std::path::Path;
use std::time::Duration;

use bp_core::exec::{self, Backoff, ExecOptions, Task, TaskReport};
use bp_core::Table;
use bp_metrics::env;

use crate::registry::registry;
use crate::{cli, flag_value, Cli};

/// How many extra attempts a failing study gets.
const RETRIES: u32 = 1;

struct Options {
    keep_going: bool,
    resume: bool,
    timeout: Option<Duration>,
    /// Standard report-study flags applied to every study.
    cli: Cli,
}

impl Options {
    fn parse_from(args: Vec<String>) -> Result<Options, String> {
        let (mut keep_going, mut resume, mut timeout) = (false, false, None);
        let mut forwarded = Vec::new();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--keep-going" => keep_going = true,
                "--resume" => resume = true,
                "--timeout-secs" => {
                    let secs: u64 = flag_value(&mut args, "--timeout-secs")?;
                    timeout = (secs > 0).then(|| Duration::from_secs(secs));
                }
                _ => forwarded.push(a),
            }
        }
        let cli = Cli::parse_from(forwarded)?;
        Ok(Options { keep_going, resume, timeout, cli })
    }
}

/// Runs the full sweep with the given (already `skip`ped) argument list.
/// Exits the process with status 1 iff any study ultimately failed, and
/// with status 2 on a usage error.
pub fn run_from(args: Vec<String>) {
    let opts = Options::parse_from(args).unwrap_or_else(|e| cli::usage_error(&e));
    // Default the shared trace cache before the first store access, so a
    // bare `branch-lab all` leaves reusable traces behind like the old
    // child-process runner did. An explicit setting wins.
    let _ = env::TRACE_DIR_DEFAULT.set("out/traces".into());
    let trace_dir = env::trace_dir().expect("trace dir just defaulted");

    // The checkpoint lives next to the other run artifacts: in the
    // metrics sink when one is configured, else in the trace dir.
    let checkpoint = bp_metrics::sink_dir()
        .map_or(trace_dir, Path::to_path_buf)
        .join("all.checkpoint");
    if let Some(dir) = checkpoint.parent() {
        let _ = std::fs::create_dir_all(dir);
    }

    let reg = registry();
    let ctx = opts.cli.ctx();
    let tasks: Vec<Task<'_>> = reg
        .reports()
        .map(|study| {
            let (cli, ctx) = (&opts.cli, &ctx);
            Task::new(study.name, move |_| {
                let (report, manifest) = crate::run_recorded(study, ctx);
                cli.emit_report(&report);
                if let Some(sink) = bp_metrics::sink_dir() {
                    manifest
                        .write_to_sink(sink)
                        .map_err(|e| format!("failed to write manifest: {e}"))?;
                }
                Ok(())
            })
        })
        .collect();

    let exec_opts = ExecOptions {
        retries: RETRIES,
        backoff: Backoff::from_env(),
        deadline: opts.timeout,
        keep_going: opts.keep_going,
        checkpoint: Some(checkpoint),
        resume: opts.resume,
        fault_prefix: Some("all.child".to_string()),
        log_prefix: Some("all".to_string()),
    };
    let reports = exec::run(tasks, &exec_opts);

    print_summary(&reports);
    merge_manifests(&reports);
    if reports.iter().any(|r| !r.outcome.is_success()) {
        std::process::exit(1);
    }
}

fn print_summary(reports: &[TaskReport]) {
    let mut table = Table::new(vec!["binary", "outcome", "attempts", "seconds"]);
    for r in reports {
        table.row(vec![
            r.name.clone(),
            r.outcome.status(),
            r.attempts.to_string(),
            format!("{:.2}", r.seconds),
        ]);
    }
    println!("\n== all: per-child summary ==");
    print!("{}", table.render());
}

/// Merges the manifests of every study known to have succeeded (this run
/// or a resumed one) into `<sink>/all.json`, with a `children` status
/// table covering all studies — including the failed and not-run ones
/// the merge is missing — and a `child_attempts` table. Silent no-op
/// when metrics are off; merge problems go to stderr only, so stdout
/// stays byte-identical with and without metrics.
fn merge_manifests(reports: &[TaskReport]) {
    let Some(sink) = bp_metrics::sink_dir() else { return };
    let mut runs = Vec::new();
    for r in reports {
        if !r.outcome.is_success() {
            continue;
        }
        let path = sink.join(format!("{}.json", r.name));
        match std::fs::read_to_string(&path) {
            Ok(s) => runs.push(s),
            Err(e) => eprintln!("bp-metrics: missing manifest {}: {e}", path.display()),
        }
    }
    let children: Vec<(String, String, u32)> = reports
        .iter()
        .map(|r| (r.name.clone(), r.outcome.merged_status(), r.attempts))
        .collect();
    match bp_metrics::merge_manifests_with_children(&runs, &children) {
        Ok(merged) => {
            let path = sink.join("all.json");
            if let Err(e) = std::fs::write(&path, merged + "\n") {
                eprintln!("bp-metrics: failed to write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("bp-metrics: failed to merge manifests: {e}"),
    }
}
