//! Study implementations and the `branch-lab` CLI.
//!
//! Every table and figure of the paper is a [`bp_core::Study`] registered
//! in [`registry::registry`]; the `branch-lab` binary dispatches to them
//! (`branch-lab list` / `run <study>` / `all` / `sweep`). All argument
//! parsing lives in [`Cli`]; run `branch-lab --help` for the single help
//! surface that documents the flags and environment variables once.

#![warn(missing_docs)]

use std::path::PathBuf;

use bp_core::{DatasetConfig, Report, ReportItem, SamplingConfig, Table};

pub mod all_runner;
pub mod cli;
pub mod registry;
pub mod reports;
pub mod serve;
pub mod studies;

/// Parsed command-line options shared by every study invocation.
#[derive(Clone, Debug, Default)]
pub struct Cli {
    /// Override for instructions per trace.
    pub len: Option<usize>,
    /// Use the reduced [`DatasetConfig::quick`] scale.
    pub quick: bool,
    /// Directory for CSV output.
    pub csv: Option<PathBuf>,
    /// Positional arguments (consumed by probe studies such as
    /// `calibrate`; rejected by report studies).
    pub rest: Vec<String>,
    /// Sampled-replay options (`--sampled` and friends; environment
    /// defaults come from `BRANCH_LAB_SAMPLE*`, flags win).
    pub sampling: SamplingConfig,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        Cli::parse_from(std::env::args().skip(1))
    }

    /// Sampling options taken from the environment: `BRANCH_LAB_SAMPLE=1`
    /// enables sampling, `BRANCH_LAB_SAMPLE_INTERVAL` /
    /// `BRANCH_LAB_SAMPLE_WARMUP` / `BRANCH_LAB_SAMPLE_PHASES` override
    /// the knobs. Command-line flags win over the environment.
    ///
    /// # Panics
    ///
    /// Panics if a numeric variable holds a non-integer.
    #[must_use]
    pub fn sampling_from_env() -> SamplingConfig {
        let num = |name: &str| -> Option<usize> {
            std::env::var(name)
                .ok()
                .map(|v| v.parse().unwrap_or_else(|_| panic!("{name} must be an integer")))
        };
        let mut s = SamplingConfig::disabled();
        if let Ok(v) = std::env::var("BRANCH_LAB_SAMPLE") {
            s.enabled = !matches!(v.as_str(), "" | "0" | "false" | "off");
        }
        s.interval_len = num("BRANCH_LAB_SAMPLE_INTERVAL");
        s.warmup = num("BRANCH_LAB_SAMPLE_WARMUP");
        if let Some(p) = num("BRANCH_LAB_SAMPLE_PHASES") {
            s.max_phases = p;
        }
        s
    }

    /// Parses an explicit argument list (no binary name).
    ///
    /// `--help` prints the shared help text and exits. Unknown `--flags`
    /// panic with a usage message; bare arguments collect into
    /// [`Cli::rest`] for probe studies.
    ///
    /// # Panics
    ///
    /// Panics (with a usage message) on malformed arguments.
    #[must_use]
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = Cli {
            sampling: Cli::sampling_from_env(),
            ..Cli::default()
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--len" => {
                    let v = args.next().expect("--len needs a value");
                    cli.len = Some(v.parse().expect("--len must be an integer"));
                }
                "--quick" => cli.quick = true,
                "--csv" => {
                    let v = args.next().expect("--csv needs a directory");
                    cli.csv = Some(PathBuf::from(v));
                }
                "--sampled" => cli.sampling.enabled = true,
                "--sample-interval" => {
                    let v = args.next().expect("--sample-interval needs a value");
                    cli.sampling.interval_len =
                        Some(v.parse().expect("--sample-interval must be an integer"));
                }
                "--sample-warmup" => {
                    let v = args.next().expect("--sample-warmup needs a value");
                    cli.sampling.warmup =
                        Some(v.parse().expect("--sample-warmup must be an integer"));
                }
                "--sample-phases" => {
                    let v = args.next().expect("--sample-phases needs a value");
                    cli.sampling.max_phases =
                        v.parse().expect("--sample-phases must be an integer");
                }
                "--help" | "-h" => {
                    print!("{}", cli::help_text());
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    panic!(
                        "unknown argument {other}; supported: --len N --quick --csv DIR \
                         --sampled --sample-interval N --sample-warmup N --sample-phases N"
                    )
                }
                other => cli.rest.push(other.to_owned()),
            }
        }
        cli
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

    /// Starts a `bp-metrics` run for a report study. The returned guard
    /// writes `<sink>/<name>.json` on drop when `BRANCH_LAB_METRICS`
    /// selects a sink directory; otherwise it is inert. The manifest's
    /// `info` block records the dataset shape so runs are comparable.
    #[must_use]
    pub fn metrics_run(&self, name: &str) -> bp_metrics::RunGuard {
        let cfg = self.dataset();
        let mut guard = bp_metrics::RunGuard::begin(name);
        guard.info("trace_len", cfg.trace_len);
        guard.info("slice_len", cfg.slice.len());
        guard.info(
            "max_inputs",
            cfg.max_inputs.map_or_else(|| "none".to_owned(), |n| n.to_string()),
        );
        guard.info("quick", self.quick);
        if self.sampling.enabled {
            let r = self.sampling.resolve(&cfg);
            guard.info("sampled", true);
            guard.info("sample_interval", r.interval_len);
            guard.info("sample_warmup", r.warmup);
            guard.info("sample_phases", r.max_phases);
        }
        guard
    }

    /// Prints a table under a heading and optionally writes CSV.
    pub fn emit(&self, heading: &str, name: &str, table: &Table) {
        println!("\n== {heading} ==");
        print!("{}", table.render());
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
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
    fn parse_from_splits_flags_and_positionals() {
        let cli = Cli::parse_from(
            ["--quick", "200000", "--len", "5000"].map(String::from),
        );
        assert!(cli.quick);
        assert_eq!(cli.len, Some(5000));
        assert_eq!(cli.rest, vec!["200000".to_owned()]);
    }

    #[test]
    fn parse_from_reads_sampling_flags() {
        let cli = Cli::parse_from(
            ["--sampled", "--sample-interval", "5000", "--sample-phases", "3"].map(String::from),
        );
        assert!(cli.sampling.enabled);
        assert_eq!(cli.sampling.interval_len, Some(5000));
        assert_eq!(cli.sampling.warmup, None);
        assert_eq!(cli.sampling.max_phases, 3);
        // Sampling knobs without --sampled stay latent (resolved but
        // disabled) so env/flag defaults compose.
        let cli = Cli::parse_from(["--sample-warmup", "100"].map(String::from));
        assert!(!cli.sampling.enabled);
        assert_eq!(cli.sampling.warmup, Some(100));
    }
}
