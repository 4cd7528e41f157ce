//! `bp-perf` — the pinned replay-performance suite and regression gate.
//!
//! Every figure in `EXPERIMENTS.md` re-drives millions of trace records
//! through TAGE-SC-L and the scoreboard, so replay throughput is the
//! resource every study spends. This binary measures it reproducibly:
//!
//! * `predictor/tage-sc-l-{8,64}kb` — predictor-only replay
//!   (predict+update per conditional branch, no pipeline);
//! * `trace/{encode,decode}-v3` — BPTR v3 codec throughput on the pinned
//!   SPECint-like trace (streaming block writer, block-wise reader);
//! * `pipeline/scoreboard` — scoreboard-only replay over a precomputed
//!   misprediction stream;
//! * `end_to_end/tage-sc-l-8kb[-lcf]` — the full study loop
//!   (`bp_pipeline::run`): predictor replay + timing simulation, on a
//!   SPECint-like and an LCF-like trace;
//! * `sweep/storage-8pt` — one workload of the Fig. 7 storage sweep on
//!   the single-pass engine (`sweep_flags` + one prepared `SweepReplay`
//!   driving all eight lanes at every pipeline scale), with
//!   `sweep/storage-8pt-per-config` keeping the per-config shape it
//!   replaced so the speedup stays pinned;
//! * `sweep/hetero-grid` — the heterogeneous grid study's inner loop:
//!   all sixteen `PredictorSpec::hetero_grid` lanes trained in one
//!   lockstep walk, then replayed at every pipeline scale (96 sims) from
//!   one prepared trace, with `sweep/hetero-grid-per-config` keeping the
//!   solo-predictor/scalar-replay shape for the speedup ratio;
//! * `sample/cluster` — the sampled-replay planning pass: streamed
//!   per-interval BBV profiling plus SimPoint medoid selection;
//! * `sample/replay-weighted` — the sampled-replay execution pass:
//!   warmed segment preparation, the functional predictor-warming walk,
//!   and the weighted reconstruction, from a fixed plan.
//!
//! Default mode records `BENCH_<date>.json` in the current directory
//! (schema `bp-perf/v1`, see `bp_bench::perf`); `--check-baseline`
//! compares against a checked-in report instead and exits nonzero on a
//! regression beyond the threshold. `PERFORMANCE.md` documents the cost
//! model behind the numbers and the baseline-refresh workflow.
//!
//! ```console
//! $ cargo run --release -p bp-bench --bin bp-perf            # record
//! $ cargo run --release -p bp-bench --bin bp-perf -- \
//!       --check-baseline --threshold 0.4                     # gate
//! ```
//!
//! Traces honour `BRANCH_LAB_TRACE_DIR`, so CI reuses its shared cache.

use std::process::ExitCode;

use bp_bench::perf::{self, PerfReport};
use bp_pipeline::{simulate, PipelineConfig, SweepReplay};
use bp_predictors::{misprediction_flags, sweep_flags, PredictorSpec, TageScL, TageSclConfig};
use bp_trace::{BptrReader, TraceReader};
use bp_workloads::{lcf_suite, specint_suite};

/// Pinned trace length: large enough that per-branch costs dominate
/// setup, small enough that a full suite run stays in seconds.
const TRACE_LEN: usize = 1_000_000;

struct Options {
    samples: u32,
    warmup: u32,
    check_baseline: bool,
    baseline: Option<String>,
    threshold: f64,
    out: Option<String>,
    date: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bp-perf [--samples N] [--warmup N] [--out FILE] [--date YYYY-MM-DD]\n\
         \x20              [--check-baseline] [--baseline FILE] [--threshold FRAC]\n\
         \n\
         Default: run the pinned suite and write BENCH_<date>.json.\n\
         --check-baseline: compare against the newest BENCH_*.json (or --baseline FILE)\n\
         and exit nonzero if any benchmark is more than FRAC slower (default 0.4)."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        samples: 7,
        warmup: 1,
        check_baseline: false,
        baseline: None,
        threshold: 0.4,
        out: None,
        date: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--samples" => opts.samples = value("--samples").parse().unwrap_or_else(|_| usage()),
            "--warmup" => opts.warmup = value("--warmup").parse().unwrap_or_else(|_| usage()),
            "--check-baseline" => opts.check_baseline = true,
            "--baseline" => opts.baseline = Some(value("--baseline")),
            "--threshold" => {
                opts.threshold = value("--threshold").parse().unwrap_or_else(|_| usage());
            }
            "--out" => opts.out = Some(value("--out")),
            "--date" => opts.date = Some(value("--date")),
            _ => usage(),
        }
    }
    opts
}

/// The newest (lexically greatest, i.e. latest-dated) `BENCH_*.json` in
/// the current directory.
fn default_baseline() -> Option<String> {
    let mut candidates: Vec<String> = std::fs::read_dir(".")
        .ok()?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    candidates.sort();
    candidates.pop()
}

fn run_suite(opts: &Options) -> PerfReport {
    let (samples, warmup) = (opts.samples, opts.warmup);
    let cfg = PipelineConfig::skylake();

    // SPECint-like branchy workload (leela-like) and a memory-bound
    // LCF-like workload: the two ends of the replay cost spectrum.
    let spec_trace = specint_suite()[6].cached_trace(0, TRACE_LEN);
    let lcf_trace = lcf_suite()[1].cached_trace(0, TRACE_LEN);
    let stream: Vec<(u64, bool)> = spec_trace
        .conditional_branches()
        .map(|b| (b.ip, b.taken))
        .collect();
    let spec_branches = spec_trace.conditional_branch_count() as u64;
    let lcf_branches = lcf_trace.conditional_branch_count() as u64;
    // A fixed misprediction stream for the scoreboard-only benchmark.
    let flags = misprediction_flags(&mut TageScL::kb8(), &spec_trace);

    let mut measurements = Vec::new();
    let nbr = stream.len() as u64;
    for kb in [8usize, 64] {
        measurements.push(perf::measure(
            &format!("predictor/tage-sc-l-{kb}kb"),
            nbr,
            nbr,
            warmup,
            samples,
            || {
                let mut p = TageScL::new(TageSclConfig::storage_kb(kb));
                let mut wrong = 0u64;
                for &(ip, taken) in &stream {
                    let pred = bp_predictors::Predictor::predict(&mut p, ip);
                    bp_predictors::Predictor::update(&mut p, ip, taken, pred);
                    wrong += u64::from(pred != taken);
                }
                wrong
            },
        ));
    }
    // v3 codec throughput: encode the pinned trace to memory, then
    // stream-decode it back block-by-block through the same
    // `TraceReader` path every disk-backed study drains. These pin the
    // decode cost model in PERFORMANCE.md.
    let mut v3_bytes = Vec::new();
    spec_trace.write_to(&mut v3_bytes).expect("v3 encode");
    measurements.push(perf::measure(
        "trace/encode-v3",
        spec_trace.len() as u64,
        spec_branches,
        warmup,
        samples,
        || {
            let mut out = Vec::with_capacity(v3_bytes.len());
            spec_trace.write_to(&mut out).expect("v3 encode");
            out.len() as u64
        },
    ));
    measurements.push(perf::measure(
        "trace/decode-v3",
        spec_trace.len() as u64,
        spec_branches,
        warmup,
        samples,
        || {
            let mut reader = BptrReader::new(v3_bytes.as_slice()).expect("v3 header");
            let mut n = 0u64;
            while let Some(chunk) = reader.next_chunk().expect("v3 decode") {
                n += chunk.len() as u64;
            }
            n
        },
    ));
    measurements.push(perf::measure(
        "pipeline/scoreboard",
        spec_trace.len() as u64,
        spec_branches,
        warmup,
        samples,
        || simulate(&spec_trace, &flags, &cfg).cycles,
    ));
    measurements.push(perf::measure(
        "end_to_end/tage-sc-l-8kb",
        spec_trace.len() as u64,
        spec_branches,
        warmup,
        samples,
        || bp_pipeline::run(&spec_trace, &mut TageScL::kb8(), &cfg).cycles,
    ));
    measurements.push(perf::measure(
        "end_to_end/tage-sc-l-8kb-lcf",
        lcf_trace.len() as u64,
        lcf_branches,
        warmup,
        samples,
        || bp_pipeline::run(&lcf_trace, &mut TageScL::kb8(), &cfg).cycles,
    ));

    // One workload's share of the Fig. 7 storage sweep, on the LCF trace
    // the study actually runs: six TAGE-SC-L storage points plus the
    // 8KB-baseline and perfect lanes, replayed at every pipeline scale.
    // The first entry is the production path (one lockstep predictor
    // pass, one prepared `SweepReplay` replaying all 48 (lane, scale)
    // cells as three 16-lane chunks of two scales each); the
    // second keeps the per-config shape it replaced (one predictor pass
    // and one scalar replay per lane), so the single-pass speedup is
    // itself baseline-gated. Both count the same logical records, so
    // their rec/s ratio is the speedup.
    let scaled: Vec<PipelineConfig> = PipelineConfig::SCALES.map(|s| cfg.scaled(s)).into();
    let sweep_sims =
        (TageSclConfig::STORAGE_POINTS_KB.len() as u64 + 2) * PipelineConfig::SCALES.len() as u64;
    measurements.push(perf::measure(
        "sweep/storage-8pt",
        lcf_trace.len() as u64 * sweep_sims,
        lcf_branches * sweep_sims,
        warmup,
        samples,
        || {
            let mut predictors = PredictorSpec::build_all(&PredictorSpec::storage_points());
            let per_storage = sweep_flags(&mut predictors, lcf_trace.reader(), None)
                .expect("in-memory reader cannot fail");
            let perfect = vec![false; lcf_trace.conditional_branch_count()];
            let mut lanes: Vec<&[bool]> = Vec::with_capacity(per_storage.len() + 2);
            lanes.push(&per_storage[0]);
            lanes.push(&perfect);
            lanes.extend(per_storage.iter().map(Vec::as_slice));
            let sweep = SweepReplay::new(&lcf_trace, &cfg);
            sweep
                .simulate_many(&lanes, &scaled)
                .iter()
                .flatten()
                .map(|s| s.cycles)
                .sum::<u64>()
        },
    ));
    measurements.push(perf::measure(
        "sweep/storage-8pt-per-config",
        lcf_trace.len() as u64 * sweep_sims,
        lcf_branches * sweep_sims,
        warmup,
        samples,
        || {
            let per_storage: Vec<Vec<bool>> = TageSclConfig::STORAGE_POINTS_KB
                .iter()
                .map(|&kb| {
                    misprediction_flags(&mut TageScL::new(TageSclConfig::storage_kb(kb)), &lcf_trace)
                })
                .collect();
            let perfect = vec![false; lcf_trace.conditional_branch_count()];
            let mut lanes: Vec<&[bool]> = Vec::with_capacity(per_storage.len() + 2);
            lanes.push(&per_storage[0]);
            lanes.push(&perfect);
            lanes.extend(per_storage.iter().map(Vec::as_slice));
            let mut cycles = 0u64;
            for scale in PipelineConfig::SCALES {
                let scaled = cfg.scaled(scale);
                for lane in &lanes {
                    cycles += simulate(&lcf_trace, lane, &scaled).cycles;
                }
            }
            cycles
        },
    ));

    // The heterogeneous grid's inner loop: sixteen mixed predictor specs
    // (TAGE-SC-L storage points, ablations, classical baselines, bounds)
    // trained as lanes in one lockstep walk, then one prepared trace
    // replayed as one 16-lane chunk per pipeline scale — 96 simulations
    // from two passes over the trace. The per-config twin
    // keeps the shape this replaced (one solo training walk per spec,
    // one scalar replay per cell) so the grid speedup is baseline-gated.
    let grid_specs = PredictorSpec::hetero_grid();
    let grid_sims = grid_specs.len() as u64 * PipelineConfig::SCALES.len() as u64;
    measurements.push(perf::measure(
        "sweep/hetero-grid",
        lcf_trace.len() as u64 * grid_sims,
        lcf_branches * grid_sims,
        warmup,
        samples,
        || {
            let mut predictors = PredictorSpec::build_all(&grid_specs);
            let per_spec = sweep_flags(&mut predictors, lcf_trace.reader(), None)
                .expect("in-memory reader cannot fail");
            let lanes: Vec<&[bool]> = per_spec.iter().map(Vec::as_slice).collect();
            let sweep = SweepReplay::new(&lcf_trace, &cfg);
            sweep
                .simulate_many(&lanes, &scaled)
                .iter()
                .flatten()
                .map(|s| s.cycles)
                .sum::<u64>()
        },
    ));
    measurements.push(perf::measure(
        "sweep/hetero-grid-per-config",
        lcf_trace.len() as u64 * grid_sims,
        lcf_branches * grid_sims,
        warmup,
        samples,
        || {
            let per_spec: Vec<Vec<bool>> = grid_specs
                .iter()
                .map(|s| misprediction_flags(s.build().as_mut(), &lcf_trace))
                .collect();
            let mut cycles = 0u64;
            for scale in PipelineConfig::SCALES {
                let scaled = cfg.scaled(scale);
                for lane in &per_spec {
                    cycles += simulate(&lcf_trace, lane, &scaled).cycles;
                }
            }
            cycles
        },
    ));

    // Sampled replay, split at its natural seam: planning (streamed
    // interval profiling + medoid selection — pure analysis, no replay)
    // and execution (segment preparation with functional cache warming,
    // the whole-stream predictor walk, weighted reconstruction). Both
    // walk every record of the pinned trace, so rec/s compares directly
    // with the full-replay benchmarks above: the execution entry's win
    // over `end_to_end/tage-sc-l-8kb` is the sampling payoff.
    let phase_cfg = bp_analysis::PhaseConfig { max_phases: 4, ..bp_analysis::PhaseConfig::default() };
    let sample_interval = TRACE_LEN / 20;
    // The planning pass alone finishes in single-digit milliseconds —
    // too short for a stable median against CPU frequency jitter — so
    // each sample runs it several times and declares the records to
    // match.
    let cluster_reps = 8u64;
    measurements.push(perf::measure(
        "sample/cluster",
        spec_trace.len() as u64 * cluster_reps,
        spec_branches * cluster_reps,
        warmup,
        samples,
        || {
            let mut sum = 0u64;
            for _ in 0..cluster_reps {
                let profiles =
                    bp_trace::profile_intervals(spec_trace.reader(), sample_interval, phase_cfg.dims)
                        .expect("in-memory reader cannot fail");
                let simpoints = bp_analysis::simpoints_from_profiles(&profiles, &phase_cfg);
                sum += simpoints.representatives.iter().map(|r| r.interval as u64 + 1).sum::<u64>();
            }
            sum
        },
    ));
    let sample_plan = {
        let profiles = bp_trace::profile_intervals(spec_trace.reader(), sample_interval, phase_cfg.dims)
            .expect("in-memory reader cannot fail");
        let simpoints = bp_analysis::simpoints_from_profiles(&profiles, &phase_cfg);
        bp_pipeline::SamplePlan {
            interval_len: sample_interval,
            warmup: sample_interval / 5,
            segments: simpoints
                .representatives
                .iter()
                .map(|r| bp_pipeline::SampleSegment {
                    interval: r.interval,
                    weight: r.weight,
                    spread: r.spread,
                })
                .collect(),
        }
    };
    measurements.push(perf::measure(
        "sample/replay-weighted",
        spec_trace.len() as u64,
        spec_branches,
        warmup,
        samples,
        || {
            let sampled = bp_pipeline::SampledReplay::prepare(spec_trace.reader(), &cfg, &sample_plan)
                .expect("in-memory reader cannot fail");
            let lanes = sampled
                .warmed_lanes(spec_trace.reader(), &mut TageScL::kb8())
                .expect("in-memory reader cannot fail");
            let lane_refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
            let est = sampled.simulate_weighted(&lane_refs, &cfg);
            est.est_branches as u64
        },
    ));

    PerfReport {
        date: opts.date.clone().unwrap_or_else(perf::utc_date_today),
        samples,
        warmup,
        peak_rss_kb: perf::peak_rss_kb(),
        measurements,
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let report = run_suite(&opts);

    if opts.check_baseline {
        let Some(path) = opts.baseline.clone().or_else(default_baseline) else {
            eprintln!("bp-perf: no baseline given and no BENCH_*.json found in .");
            return ExitCode::from(2);
        };
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(err) => {
                eprintln!("bp-perf: cannot read baseline {path}: {err}");
                return ExitCode::from(2);
            }
        };
        let baseline = match PerfReport::parse(&raw) {
            Ok(baseline) => baseline,
            Err(err) => {
                eprintln!("bp-perf: bad baseline {path}: {err}");
                return ExitCode::from(2);
            }
        };
        let checks = perf::check_against_baseline(&report, &baseline, opts.threshold);
        println!(
            "== bp-perf vs baseline {path} ({} allowed regression) ==",
            format_args!("{:.0}%", opts.threshold * 100.0)
        );
        let mut failed = false;
        for c in &checks {
            println!(
                "{:<32} {:>12} -> {:>12} rec/s  ({:>5.2}x)  {}",
                c.name,
                c.baseline_rps,
                c.current_rps,
                c.ratio,
                if c.pass { "ok" } else { "REGRESSION" }
            );
            failed |= !c.pass;
        }
        if failed {
            println!("bp-perf: regression detected (threshold {:.2})", opts.threshold);
            return ExitCode::FAILURE;
        }
        println!("bp-perf: all benchmarks within threshold");
        return ExitCode::SUCCESS;
    }

    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", report.date));
    let payload = format!("{}\n", report.to_json());
    if let Err(err) = std::fs::write(&path, payload) {
        eprintln!("bp-perf: cannot write {path}: {err}");
        return ExitCode::FAILURE;
    }
    println!("bp-perf: wrote {path}");
    ExitCode::SUCCESS
}
