//! `perfbench` — the branch-lab benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!       --workload replay --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `replay` and `sampled` (trace replay chains over the
//! `641.leela_s` + `rdbms` trace set) and `serve-mix` (the study server
//! under a closed-loop request mix). `--trace 0` prints the end-to-end
//! metrics; `--trace 1` times each layer from outside and prints the
//! per-layer metrics. Every run checks its outputs against
//! `goldens.txt`; the last stdout line is the JSON result. See
//! `README.md` in this directory.
//!
//! Extra flags: `--len N` (trace length, default 1000000), `--state DIR`
//! (generated traces and caches, default `.bench_state`), `--goldens
//! FILE` (pinned outputs, default the compiled-in `goldens.txt`), and
//! `--write-goldens` (recompute `goldens.txt` for the benchmark and
//! self-test lengths, then exit).

mod goldens;
mod report;
mod serve_mix;
mod stats;
mod trace_jobs;
mod traceset;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use goldens::Goldens;
use report::{result_line, Check};
use serve_mix::ServeMix;
use stats::{median, peak_rss_mb};
use trace_jobs::{Job, Kind};
use traceset::TraceSet;

/// Records per trace in the benchmark proper.
const BENCH_LEN: usize = 1_000_000;
/// Records per trace in the self-test.
const SELF_TEST_LEN: usize = 20_000;
/// Set-up repetitions for the trace workloads; `setup_s` is their median.
const SETUP_REPS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    len: usize,
    state: PathBuf,
    goldens: Option<PathBuf>,
    write_goldens: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        len: BENCH_LEN,
        state: PathBuf::from(".bench_state"),
        goldens: None,
        write_goldens: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-goldens" {
            a.write_goldens = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad value for {flag}"))?
            }
            "--trace" => a.trace = value.parse::<u8>().map_err(bad)? == 1,
            "--len" => a.len = value.parse().map_err(bad)?,
            "--state" => a.state = PathBuf::from(value),
            "--goldens" => a.goldens = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.len < 1000 {
        return Err("--len must be at least 1000".to_owned());
    }
    Ok(a)
}

fn write_goldens(args: &Args) -> Result<(), String> {
    let mut g = Goldens::default();
    for len in [SELF_TEST_LEN, BENCH_LEN] {
        g.compute(&TraceSet::ensure(&args.state, len)?)?;
    }
    let path = args
        .goldens
        .clone()
        .unwrap_or_else(|| PathBuf::from("perfbench/goldens.txt"));
    std::fs::write(&path, g.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("perfbench: wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    let goldens = match &args.goldens {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?,
        None => include_str!("../goldens.txt").to_owned(),
    };
    let goldens = Goldens::parse(&goldens)?;
    let set = TraceSet::ensure(&args.state, args.len)?;
    if !goldens.covers(&set) {
        return Err(format!("goldens.txt pins nothing for --len {}", args.len));
    }
    let mut check = Check::default();
    let (mut values, setup_s) = match args.workload.as_str() {
        "replay" | "sampled" => {
            let kind = if args.workload == "replay" {
                Kind::Replay
            } else {
                Kind::Sampled
            };
            let mut setups = Vec::with_capacity(SETUP_REPS);
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                set.validate()?;
                setups.push(t.elapsed().as_secs_f64());
            }
            let job = Job::new(kind, &set, &goldens);
            (
                job.execute(args.seconds, args.trace, args.seed, &mut check)?,
                median(&setups),
            )
        }
        "serve-mix" => ServeMix::new(&set, &goldens, &args.state, args.seed).execute(
            args.seconds,
            args.trace,
            &mut check,
        )?,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected replay, sampled or serve-mix"
            ))
        }
    };
    if !args.trace {
        values.insert("setup_s", setup_s);
        values.insert("peak_rss_mb", peak_rss_mb());
    }
    if check.attempted == 0 {
        check.op(false, || "no output was checked".to_owned());
    }
    result_line(&check, args.trace, &values)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if args.write_goldens {
            write_goldens(&args).map(|()| None)
        } else {
            run(&args).map(Some)
        }
    });
    match outcome {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
