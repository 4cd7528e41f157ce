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
//! `run` and `all` parse the study flags through [`crate::Cli`] and
//! `sweep` its flags through [`SweepArgs`]; serve's `/run` and `/sweep`
//! turn a request body into those flags and parse it with the same two
//! parsers, so a body means what its flags mean ([`crate::serve`]). Every
//! subcommand reads flag values through one helper, and a usage error
//! (an unknown flag, a malformed value, a bare argument, a `--csv`
//! directory that cannot be created) prints its message and exits with
//! status 2 before any study runs. So does a malformed or unknown
//! `BRANCH_LAB_*` variable under `run`, `all`, `sweep` and `serve`
//! ([`bp_metrics::env::check`]).

use std::collections::BTreeMap;

use bp_core::{memo, Report, StudyKind, Table};
use bp_metrics::{env, CounterBaseline, Manifest};
use bp_pipeline::PipelineConfig;
use bp_predictors::PredictorSpec;
use bp_workloads::{find_workload, workload_names, TraceStore, WorkloadSpec};

use crate::{all_runner, first_use, flag_value, len_value, registry, Cli};

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
         FLAGS (every study):\n\
         \x20   --len N               instructions per workload trace (default 1,000,000)\n\
         \x20   --quick               reduced dataset scale for smoke runs\n\
         \x20   --csv DIR             also write each table as CSV under DIR\n\
         \x20   --sample-interval N   sampled-replay geometry, read by the `sampled` study:\n\
         \x20                         clustering interval in instructions (default len/20)\n\
         \x20   --sample-warmup N     warm-up prefix per interval, discarded from stats\n\
         \x20                         (default interval/5)\n\
         \x20   --sample-phases N     cap on phases = representatives (default 4)\n\
         A study takes flags only. Every run manifest records the resolved dataset\n\
         and sampling geometry. A malformed or unknown flag, or a bare argument, to\n\
         any subcommand exits with status 2.\n\
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
         SERVE FLAGS:\n\
         \x20   --addr HOST:PORT       listen address (default 127.0.0.1:7878; :0 = any free port)\n\
         \x20   --workers N            worker threads, at least 1 (default: cores, 2 to 8)\n\
         \x20   --cache-dir DIR        persist results to disk under DIR (default memory-only)\n\
         \x20   --cache-budget BYTES   per-tier cache budget, e.g. 64M (default 1G)\n\
         \x20   --deadline-secs N      default per-request execution deadline (0 = none)\n\
         \n\
         ENVIRONMENT (a malformed value or an unknown BRANCH_LAB_* name exits with\n\
         status 2):\n",
    );
    for var in env::TABLE {
        let [name, grammar, default, help] = var.doc();
        s.push_str(&format!("    {name:<27}{help}\n    {:<27}{grammar}; default: {default}\n", ""));
    }
    s.push_str("\nWORKLOADS:\n");
    for name in workload_names() {
        s.push_str("    ");
        s.push_str(&name);
        s.push('\n');
    }
    s
}

/// Prints a usage error and exits with status 2.
pub(crate) fn usage_error(message: &str) -> ! {
    eprintln!("{message}; try `branch-lab help`");
    std::process::exit(2);
}

/// Writes `manifest` to the `BRANCH_LAB_METRICS` sink, if one is set.
/// A failed write goes to stderr only, so stdout is the same with
/// metrics on or off.
fn save_manifest(manifest: &Manifest) {
    if let Some(sink) = bp_metrics::sink_dir() {
        if let Err(e) = manifest.write_to_sink(sink) {
            eprintln!("bp-metrics: failed to write {}.json: {e}", manifest.run);
        }
    }
}

/// Looks `name` up in the registry and runs it with the flags `args`:
/// `--csv` is honoured, and the run's manifest goes to the metrics sink.
pub fn run_study(name: &str, args: Vec<String>) {
    let study = registry::registry().get(name).unwrap_or_else(|e| usage_error(&e));
    let cli = Cli::parse_from(args).unwrap_or_else(|e| usage_error(&e));
    let (report, manifest) = crate::run_recorded(study, &cli.ctx());
    cli.emit_report(&report);
    save_manifest(&manifest);
}

fn cmd_list() {
    let reg = registry::registry();
    let width = reg.studies().iter().map(|s| s.name.len()).max().unwrap_or(0);
    for study in reg.studies() {
        let kind = match study.kind {
            StudyKind::Report => "report",
            StudyKind::Standalone => "extra ",
        };
        println!("{:width$}  {kind}  {}", study.name, study.title);
    }
}

/// The options of `branch-lab sweep`, and of a serve `/sweep` body.
#[derive(Debug, PartialEq)]
pub struct SweepArgs {
    /// `--workload`: the name [`SweepArgs::spec`] looks up.
    pub workload: String,
    /// `--predictors`: one lane per predictor, in row order.
    pub specs: Vec<PredictorSpec>,
    /// `--scales`: pipeline scale factors, in column order (default 1).
    pub scales: Vec<u32>,
    /// `--len`: instructions to trace (default 200,000).
    pub len: usize,
}

impl SweepArgs {
    /// Parses the `sweep` flags; `--help` prints the help text and exits.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag or bare argument, a flag
    /// given twice or without its value, a missing `--workload` or
    /// `--predictors`, an
    /// unknown predictor, a scale outside 1–64 or a `--len` below 10.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
        let (mut workload, mut specs) = (None, None);
        let mut scales = vec![1];
        let mut len = 200_000;
        let mut seen = 0;
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            first_use(&mut seen, &["--workload", "--predictors", "--scales", "--len"], &a)?;
            match a.as_str() {
                "--workload" => workload = Some(flag_value(&mut args, "--workload")?),
                "--predictors" => {
                    let list: String = flag_value(&mut args, "--predictors")?;
                    specs = Some(PredictorSpec::parse_list(&list)?);
                }
                "--scales" => {
                    scales = flag_value::<String>(&mut args, "--scales")?
                        .split(',')
                        .map(parse_scale)
                        .collect::<Result<_, _>>()?;
                }
                "--len" => len = len_value(&mut args)?,
                "--help" | "-h" => {
                    print!("{}", help_text());
                    std::process::exit(0);
                }
                other => {
                    return Err(format!(
                        "unknown sweep argument {other}; supported: --workload NAME \
                         --predictors A,B --scales N,M --len N"
                    ))
                }
            }
        }
        let workload = workload.ok_or("sweep requires --workload NAME")?;
        let specs = specs.ok_or("sweep requires --predictors A,B,..")?;
        Ok(SweepArgs { workload, specs, scales, len })
    }

    /// The workload `--workload` names.
    ///
    /// # Errors
    ///
    /// An unknown workload, with the names the suite holds.
    pub fn spec(&self) -> Result<WorkloadSpec, String> {
        find_workload(&self.workload).ok_or_else(|| {
            format!(
                "unknown workload '{}'; available: {}",
                self.workload,
                workload_names().join(", ")
            )
        })
    }
}

/// Parses one pipeline scale factor: an integer from 1 to 64, the range
/// [`PipelineConfig::scaled`] accepts.
fn parse_scale(s: &str) -> Result<u32, String> {
    s.parse()
        .ok()
        .filter(|factor| (1..=64).contains(factor))
        .ok_or_else(|| format!("bad scale \"{s}\": must be an integer from 1 to 64"))
}

fn cmd_sweep(args: Vec<String>) {
    let args = SweepArgs::parse_from(args).unwrap_or_else(|e| usage_error(&e));
    let spec = args.spec().unwrap_or_else(|e| usage_error(&e));
    let (report, manifest) = sweep_recorded(&spec, &args.specs, &args.scales, args.len);
    print!("{}", report.render());
    save_manifest(&manifest);
}

/// A sweep as named entries: the workload, the canonical predictor
/// labels in row order, the scales and the length. They are the `info`
/// block of a sweep manifest ([`sweep_recorded`]) and the components
/// [`crate::serve::sweep_key`] hashes, as [`bp_core::StudyCtx::describe`]
/// is for a study run.
#[must_use]
pub fn describe_sweep(
    workload: &str,
    labels: &[String],
    scales: &[u32],
    len: usize,
) -> BTreeMap<String, String> {
    let scales: Vec<String> = scales.iter().map(ToString::to_string).collect();
    [
        ("workload", workload.to_owned()),
        ("predictors", labels.join(",")),
        ("scales", scales.join(",")),
        ("len", len.to_string()),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_owned(), value))
    .collect()
}

/// [`sweep_report`] with its manifest, captured like a study run's
/// ([`crate::run_recorded`]) under the `info` block [`describe_sweep`].
#[must_use]
pub fn sweep_recorded(
    spec: &WorkloadSpec,
    specs: &[PredictorSpec],
    scales: &[u32],
    len: usize,
) -> (Report, Manifest) {
    let baseline = CounterBaseline::take();
    let report = sweep_report(spec, specs, scales, len);
    let labels: Vec<String> = specs.iter().map(PredictorSpec::label).collect();
    let info = describe_sweep(&spec.name, &labels, scales, len);
    (report, baseline.capture_delta("sweep", info))
}

/// Builds the single-pass predictor-sweep report: one table, one row per
/// predictor, accuracy plus IPC at each pipeline scale.
///
/// Shared by `branch-lab sweep` and the serve-mode `/sweep` endpoint;
/// the heading format is load-bearing — [`bp_core::Report::render`] of
/// this report is exactly the CLI's stdout, which is what makes served
/// sweep responses byte-identical to the CLI. The flag streams and the
/// prepared replay come from the per-trace memo ([`bp_core::memo`]): a
/// sweep trains only the predictors no earlier sweep or study of the
/// process trained on this trace, and prepares the trace once.
#[must_use]
pub fn sweep_report(
    spec: &WorkloadSpec,
    specs: &[PredictorSpec],
    scales: &[u32],
    len: usize,
) -> Report {
    let store = TraceStore::global();
    let flags = memo::flags(store, spec, len, specs);
    let base = PipelineConfig::skylake();
    let sweep = memo::replay(store, spec, len, &base);
    let lanes: Vec<&[bool]> = flags.iter().map(|f| f.as_slice()).collect();
    let mut header = vec!["predictor".to_owned(), "accuracy".to_owned()];
    header.extend(scales.iter().map(|s| format!("ipc@{s}x")));
    let mut table = Table::new(header.iter().map(String::as_str).collect());
    let configs: Vec<PipelineConfig> = scales.iter().map(|&s| base.scaled(s)).collect();
    let ipc: Vec<Vec<f64>> = sweep
        .simulate_many(&lanes, &configs)
        .iter()
        .map(|per_scale| per_scale.iter().map(bp_pipeline::SimStats::ipc).collect())
        .collect();
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
    let mut report = Report::new();
    report.section(
        format!(
            "sweep: {} ({} insts, {} conditional branches, one replay pass)",
            spec.name,
            sweep.len(),
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
    if matches!(cmd.as_str(), "run" | "all" | "sweep" | "serve") {
        env::check().unwrap_or_else(|e| usage_error(&e));
    }
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => {
            if args.first().is_none_or(|a| a.starts_with('-')) {
                usage_error("usage: branch-lab run <study> [flags]");
            }
            let name = args.remove(0);
            run_study(&name, args);
        }
        "all" => all_runner::run_from(args),
        "sweep" => cmd_sweep(args),
        "serve" => crate::serve::run_from(args),
        "help" | "--help" | "-h" => print!("{}", help_text()),
        other => usage_error(&format!("unknown command '{other}'")),
    }
}
