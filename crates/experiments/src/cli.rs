//! The `branch-lab` command-line dispatcher.
//!
//! One binary fronts every study in [`crate::registry::registry`]:
//!
//! * `branch-lab list` — print the registry;
//! * `branch-lab run <study> [flags]` — run one study;
//! * `branch-lab all [flags]` — run every report study with retries,
//!   checkpointing and manifest merging ([`crate::all_runner`]);
//! * `branch-lab sweep --workload W --predictors a,b,c` — ad-hoc
//!   single-pass predictor sweep on one workload.
//!
//! Every subcommand shares one argument parser ([`crate::Cli`]), metrics
//! plumbing, and output formatting.

use bp_core::{StudyCtx, StudyKind, Table};
use bp_pipeline::{PipelineConfig, SweepReplay};
use bp_predictors::{sweep_flags, PredictorSpec};
use bp_workloads::{find_workload, workload_names};

use crate::{all_runner, registry, Cli};

/// The single help surface of the `branch-lab` CLI.
#[must_use]
pub fn help_text() -> String {
    let mut s = String::from(
        "branch-lab: reproduce the tables and figures of \"Branch Prediction Is Not A\n\
         Solved Problem\" (IISWC 2019) on synthetic workload models.\n\
         \n\
         USAGE:\n\
         \x20   branch-lab list                     print every registered study\n\
         \x20   branch-lab run <study> [FLAGS]      run one study (see `list` for names)\n\
         \x20   branch-lab all [FLAGS]              run all report studies, with retries,\n\
         \x20                                       a resume checkpoint and merged manifests\n\
         \x20   branch-lab sweep [SWEEP FLAGS]      single-pass predictor sweep on one workload\n\
         \x20   branch-lab serve [SERVE FLAGS]      HTTP study server with a content-addressed\n\
         \x20                                       result cache (see DESIGN.md \"Serving\")\n\
         \x20   branch-lab help                     this text\n\
         \n\
         FLAGS (report studies):\n\
         \x20   --len N               instructions per workload trace (default 1,000,000)\n\
         \x20   --quick               reduced dataset scale for smoke runs\n\
         \x20   --csv DIR             also write each table as CSV under DIR\n\
         \x20   --sampled             SimPoint-style sampled replay: simulate only\n\
         \x20                         representative intervals, reconstruct weighted\n\
         \x20                         MPKI/IPC with confidence intervals\n\
         \x20   --sample-interval N   clustering interval in instructions (default len/20)\n\
         \x20   --sample-warmup N     warm-up prefix per interval, discarded from stats\n\
         \x20                         (default interval/5)\n\
         \x20   --sample-phases N     cap on phases = representatives (default 4)\n\
         Probe studies (calibrate, debug_ipc) take positional arguments instead;\n\
         `branch-lab list` shows them in brackets.\n\
         \n\
         ALL-RUNNER FLAGS:\n\
         \x20   --keep-going       continue past a failing study\n\
         \x20   --resume           skip studies recorded in the checkpoint\n\
         \x20   --timeout-secs N   per-study timeout (0 = none)\n\
         remaining flags are forwarded to each study.\n\
         \n\
         SWEEP FLAGS:\n\
         \x20   --workload NAME        workload to replay (see names below)\n\
         \x20   --predictors A,B,..    predictor labels, e.g. gshare,tage-sc-l-64kb\n\
         \x20   --scales N,M,..        pipeline scale factors (default 1)\n\
         \x20   --len N                instructions to trace (default 200,000)\n\
         \n\
         SERVE FLAGS (each overrides its BRANCH_LAB_SERVE_* variable):\n\
         \x20   --addr HOST:PORT       listen address (default 127.0.0.1:7878; :0 = any free port)\n\
         \x20   --workers N            worker threads (default: cores, capped at 8)\n\
         \x20   --cache-dir DIR        persist results to disk under DIR (default memory-only)\n\
         \x20   --cache-budget BYTES   per-tier cache budget, e.g. 64M (default unbounded)\n\
         \x20   --deadline-secs N      default per-request execution deadline (0 = none)\n\
         \n\
         ENVIRONMENT:\n\
         \x20   BRANCH_LAB_THREADS             worker threads for parallel studies\n\
         \x20   BRANCH_LAB_TRACE_DIR           shared on-disk trace cache directory\n\
         \x20   BRANCH_LAB_METRICS            metrics sink: stderr, off, or a directory\n\
         \x20   BRANCH_LAB_FAULTS             deterministic fault injection spec (tests)\n\
         \x20   BRANCH_LAB_CHAOS_SEED         seed for probabilistic faults + retry jitter\n\
         \x20   BRANCH_LAB_MEM_BUDGET         trace-cache memory budget (e.g. 512M); cold\n\
         \x20                                 traces evict and stream from disk when over\n\
         \x20   BRANCH_LAB_KEEP_GOING         all-runner: same as --keep-going\n\
         \x20   BRANCH_LAB_CHILD_TIMEOUT_SECS all-runner: same as --timeout-secs (0 = none)\n\
         \x20   BRANCH_LAB_RETRY_DELAY_MS     all-runner: retry backoff base in ms (default 500);\n\
         \x20                                 read by Backoff::from_env, not serve (no retries)\n\
         \x20   BRANCH_LAB_UPDATE_GOLDEN      golden tests: rewrite fixtures instead of diffing\n\
         \x20   BRANCH_LAB_SAMPLE             1 = default-enable --sampled (flags win)\n\
         \x20   BRANCH_LAB_SAMPLE_INTERVAL    default for --sample-interval\n\
         \x20   BRANCH_LAB_SAMPLE_WARMUP      default for --sample-warmup\n\
         \x20   BRANCH_LAB_SAMPLE_PHASES      default for --sample-phases\n\
         \x20   BRANCH_LAB_SERVE_ADDR         serve: listen address (default 127.0.0.1:7878)\n\
         \x20   BRANCH_LAB_SERVE_WORKERS      serve: worker threads (default: cores, capped at 8)\n\
         \x20   BRANCH_LAB_SERVE_CACHE_DIR    serve: result-cache directory (default memory-only)\n\
         \x20   BRANCH_LAB_SERVE_CACHE_BUDGET serve: per-tier cache budget, e.g. 64M\n\
         \n\
         WORKLOADS:\n",
    );
    for name in workload_names() {
        s.push_str("    ");
        s.push_str(&name);
        s.push('\n');
    }
    s
}

/// Looks `name` up in the registry and runs it with `args`.
///
/// Report studies reject positional arguments (same message as the
/// legacy binaries), start a manifest-emitting metrics run, and honour
/// `--csv`; probe studies consume the positionals.
///
/// # Panics
///
/// Panics on malformed arguments, as the legacy binaries did.
pub fn run_study(name: &str, args: Vec<String>) {
    let reg = registry::registry();
    let Some(study) = reg.get(name) else {
        eprintln!(
            "unknown study '{name}'; available: {}",
            reg.names().join(", ")
        );
        std::process::exit(2);
    };
    let cli = Cli::parse_from(args);
    match study.info().kind {
        StudyKind::Report | StudyKind::Standalone => {
            if let Some(first) = cli.rest.first() {
                panic!(
                    "unknown argument {first}; supported: --len N --quick --csv DIR \
                     --sampled --sample-interval N --sample-warmup N --sample-phases N"
                );
            }
            let _run = cli.metrics_run(name);
            let mut ctx = StudyCtx::new(cli.dataset());
            ctx.sampling = cli.sampling;
            let report = study.run(&ctx);
            cli.emit_report(&report);
        }
        StudyKind::Probe => {
            let _run = bp_metrics::RunGuard::begin(name);
            let mut ctx = StudyCtx::new(cli.dataset());
            ctx.args.clone_from(&cli.rest);
            ctx.sampling = cli.sampling;
            let report = study.run(&ctx);
            cli.emit_report(&report);
        }
    }
}

fn cmd_list() {
    let reg = registry::registry();
    let width = reg
        .studies()
        .map(|s| s.info().name.len())
        .max()
        .unwrap_or(0);
    for study in reg.studies() {
        let info = study.info();
        let kind = match info.kind {
            StudyKind::Report => "report",
            StudyKind::Standalone => "extra ",
            StudyKind::Probe => "probe ",
        };
        println!("{:width$}  {kind}  {}", info.name, info.title);
    }
}

fn cmd_sweep(args: Vec<String>) {
    let mut workload: Option<String> = None;
    let mut predictors: Option<String> = None;
    let mut scales: Vec<u32> = vec![1];
    let mut len: usize = 200_000;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = Some(it.next().expect("--workload needs a name")),
            "--predictors" => predictors = Some(it.next().expect("--predictors needs labels")),
            "--scales" => {
                scales = it
                    .next()
                    .expect("--scales needs a comma-separated list")
                    .split(',')
                    .map(|s| s.parse().expect("--scales must be integers"))
                    .collect();
            }
            "--len" => {
                len = it
                    .next()
                    .expect("--len needs a value")
                    .parse()
                    .expect("--len must be an integer");
            }
            "--help" | "-h" => {
                print!("{}", help_text());
                return;
            }
            other => panic!(
                "unknown sweep argument {other}; supported: --workload NAME \
                 --predictors A,B --scales N,M --len N"
            ),
        }
    }
    let workload = workload.expect("sweep requires --workload NAME");
    let predictors = predictors.expect("sweep requires --predictors A,B,..");
    let Some(spec) = find_workload(&workload) else {
        eprintln!(
            "unknown workload '{workload}'; available: {}",
            workload_names().join(", ")
        );
        std::process::exit(2);
    };
    let specs = PredictorSpec::parse_list(&predictors).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let _run = bp_metrics::RunGuard::begin("sweep");
    print!("{}", sweep_report(&spec, &specs, &scales, len).render());
}

/// Builds the single-pass predictor-sweep report: one table, one row per
/// predictor, accuracy plus IPC at each pipeline scale.
///
/// Shared by `branch-lab sweep` and the serve-mode `/sweep` endpoint;
/// the heading format is load-bearing — [`bp_core::Report::render`] of
/// this report is exactly the CLI's stdout, which is what makes served
/// sweep responses byte-identical to the CLI.
#[must_use]
pub fn sweep_report(
    spec: &bp_workloads::WorkloadSpec,
    specs: &[PredictorSpec],
    scales: &[u32],
    len: usize,
) -> bp_core::Report {
    let trace = spec.cached_trace(0, len);
    let mut built = PredictorSpec::build_all(specs);
    let flags =
        sweep_flags(&mut built, trace.reader(), None).expect("in-memory reader cannot fail");
    let base = PipelineConfig::skylake();
    let sweep = SweepReplay::new(&trace, &base);
    let lanes: Vec<&[bool]> = flags.iter().map(Vec::as_slice).collect();
    let mut header = vec!["predictor".to_owned(), "accuracy".to_owned()];
    header.extend(scales.iter().map(|s| format!("ipc@{s}x")));
    let mut table = Table::new(header.iter().map(String::as_str).collect());
    let mut ipc: Vec<Vec<f64>> = Vec::new();
    for &scale in scales {
        ipc.push(
            sweep
                .simulate_many(&lanes, &base.scaled(scale))
                .iter()
                .map(bp_pipeline::SimStats::ipc)
                .collect(),
        );
    }
    for (pi, pred) in specs.iter().enumerate() {
        let mispredicts = flags[pi].iter().filter(|&&f| f).count();
        let total = flags[pi].len().max(1);
        let mut row = vec![
            pred.label(),
            format!("{:.3}", 1.0 - mispredicts as f64 / total as f64),
        ];
        row.extend(ipc.iter().map(|per_scale| format!("{:.3}", per_scale[pi])));
        table.row(row);
    }
    let mut report = bp_core::Report::new();
    report.section(
        format!(
            "sweep: {} ({} insts, {} conditional branches, one replay pass)",
            spec.name,
            trace.len(),
            sweep.cond_branch_count()
        ),
        "sweep",
        table,
    );
    report
}

/// The `branch-lab` binary's entry point.
pub fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print!("{}", help_text());
        return;
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => {
            if args.first().is_none_or(|a| a.starts_with('-')) {
                eprintln!("usage: branch-lab run <study> [flags]; see `branch-lab list`");
                std::process::exit(2);
            }
            let name = args.remove(0);
            run_study(&name, args);
        }
        "all" => all_runner::run_from(args),
        "sweep" => cmd_sweep(args),
        "serve" => crate::serve::run_from(args),
        "help" | "--help" | "-h" => print!("{}", help_text()),
        other => {
            eprintln!("unknown command '{other}'; try `branch-lab help`");
            std::process::exit(2);
        }
    }
}
