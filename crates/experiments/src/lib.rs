//! Study implementations and the `branch-lab` CLI.
//!
//! Every table and figure of the paper is a [`bp_core::Study`] row of
//! [`registry::registry`]; the `branch-lab` binary dispatches to them
//! (`branch-lab list` / `run <study>` / `all` / `sweep`). The study flags
//! are parsed by [`Cli`] and the sweep flags by [`cli::SweepArgs`], for
//! the CLI and for serve's request bodies alike; run `branch-lab --help`
//! for the single help surface that documents the flags and environment
//! variables once.

#![warn(missing_docs)]

use std::path::PathBuf;

use bp_core::{DatasetConfig, Report, ReportItem, SamplingConfig, Study, StudyCtx, Table};
use bp_metrics::{CounterBaseline, Manifest};

pub mod all_runner;
pub mod cli;
pub mod registry;
pub mod reports;
pub mod serve;
pub mod studies;

/// Parsed command-line options shared by every study invocation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cli {
    /// Override for instructions per trace.
    pub len: Option<usize>,
    /// Use the reduced [`DatasetConfig::quick`] scale.
    pub quick: bool,
    /// Directory for CSV output.
    pub csv: Option<PathBuf>,
    /// Sampled-replay geometry (`--sample-interval`, `--sample-warmup`,
    /// `--sample-phases`).
    pub sampling: SamplingConfig,
}

impl Cli {
    /// Parses an explicit argument list (no binary name).
    ///
    /// `--help` prints the shared help text and exits. A study's inputs
    /// are flags only, so a bare argument is refused. `--csv DIR` creates
    /// `DIR` here, before any study runs.
    ///
    /// # Errors
    ///
    /// A usage message for an unknown flag or bare argument, a flag
    /// without its value, a value that does not parse, a `--len` below
    /// 10, or a `--csv` directory that cannot be created.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = Cli::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--len" => cli.len = Some(len_value(&mut args)?),
                "--quick" => cli.quick = true,
                "--csv" => cli.csv = Some(flag_value(&mut args, "--csv")?),
                "--sample-interval" => {
                    cli.sampling.interval_len = Some(flag_value(&mut args, "--sample-interval")?);
                }
                "--sample-warmup" => {
                    cli.sampling.warmup = Some(flag_value(&mut args, "--sample-warmup")?);
                }
                "--sample-phases" => {
                    cli.sampling.max_phases = flag_value(&mut args, "--sample-phases")?;
                }
                "--help" | "-h" => {
                    print!("{}", cli::help_text());
                    std::process::exit(0);
                }
                other => {
                    return Err(format!(
                        "unknown argument {other}; supported: --len N --quick --csv DIR \
                         --sample-interval N --sample-warmup N --sample-phases N"
                    ))
                }
            }
        }
        if let Some(dir) = &cli.csv {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create --csv directory {}: {e}", dir.display()))?;
        }
        Ok(cli)
    }

    /// The dataset configuration implied by the options.
    #[must_use]
    pub fn dataset(&self) -> DatasetConfig {
        let base = if self.quick {
            DatasetConfig::quick()
        } else {
            DatasetConfig::standard()
        };
        match self.len {
            Some(len) => base.with_trace_len(len),
            None => base,
        }
    }

    /// The study context the options describe: dataset and sampling
    /// geometry.
    #[must_use]
    pub fn ctx(&self) -> StudyCtx {
        StudyCtx {
            dataset: self.dataset(),
            sampling: self.sampling,
        }
    }

    /// Prints a table under a heading and optionally writes CSV into the
    /// `--csv` directory, which [`Cli::parse_from`] created.
    pub fn emit(&self, heading: &str, name: &str, table: &Table) {
        println!("\n== {heading} ==");
        print!("{}", table.render());
        if let Some(dir) = &self.csv {
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write csv");
            println!("(csv written to {})", path.display());
        }
    }

    /// Prints a whole [`Report`] (tables via [`Cli::emit`], which also
    /// writes CSVs when `--csv` is set; notes verbatim).
    pub fn emit_report(&self, report: &Report) {
        for item in &report.items {
            match item {
                ReportItem::Section {
                    heading,
                    name,
                    table,
                } => self.emit(heading, name, table),
                ReportItem::Note(line) => println!("{line}"),
            }
        }
    }
}

/// Runs one study on `ctx` and captures its manifest: the counters and
/// timers the run moved (a delta over a baseline taken just before it,
/// so runs sharing one process stay apart) under the `info` block
/// [`StudyCtx::describe`]. `branch-lab run`, `all` and serve's `/run`
/// all record a study through here. A study that panics records nothing.
#[must_use]
pub fn run_recorded(study: Study, ctx: &StudyCtx) -> (Report, Manifest) {
    let baseline = CounterBaseline::take();
    let report = (study.run)(ctx);
    (report, baseline.capture_delta(study.name, ctx.describe()))
}

/// Takes the value after `flag` from `args` and parses it.
pub(crate) fn flag_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("invalid value \"{v}\" for {flag}"))
}

/// Takes a `--len` value from `args`: an instruction count of at least 10.
pub(crate) fn len_value(args: &mut impl Iterator<Item = String>) -> Result<usize, String> {
    let len = flag_value(args, "--len")?;
    if len < 10 {
        return Err(format!("--len must be at least 10, got {len}"));
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_respects_quick_and_len() {
        let cli = Cli {
            quick: true,
            ..Cli::default()
        };
        assert_eq!(cli.dataset().trace_len, DatasetConfig::quick().trace_len);
        let cli = Cli {
            quick: false,
            len: Some(50_000),
            ..Cli::default()
        };
        assert_eq!(cli.dataset().trace_len, 50_000);
    }

    #[test]
    fn parse_from_takes_flags_only() {
        let cli = Cli::parse_from(["--quick", "--len", "5000"].map(String::from)).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.len, Some(5000));
        assert_eq!(cli.ctx().dataset.trace_len, 5000);
        let err = Cli::parse_from(["--quick", "200000"].map(String::from)).unwrap_err();
        assert!(err.contains("unknown argument 200000"), "{err}");
    }

    #[test]
    fn parse_from_reads_sampling_flags() {
        let cli = Cli::parse_from(
            ["--sample-interval", "5000", "--sample-phases", "3"].map(String::from),
        )
        .unwrap();
        assert_eq!(cli.sampling.interval_len, Some(5000));
        assert_eq!(cli.sampling.warmup, None);
        assert_eq!(cli.sampling.max_phases, 3);
        assert_eq!(cli.ctx().sampling, cli.sampling);
        let cli = Cli::parse_from(["--sample-warmup", "100"].map(String::from)).unwrap();
        assert_eq!(cli.sampling.warmup, Some(100));
        // Malformed values are usage errors, not panics.
        for bad in [
            &["--sample-warmup"][..],
            &["--sample-warmup", "x"],
            &["--len", "abc"],
            &["--len", "5"],
        ] {
            let args = bad.iter().map(|a| (*a).to_owned());
            assert!(Cli::parse_from(args).is_err(), "{bad:?}");
        }
    }
}
