//! The two trace workloads. A job is the workload's chain over the whole
//! trace set, in a seeded order; its outputs are checked against the
//! goldens after the clock stops.
//!
//! * `replay`: `TraceStore::get` (materializing v3 decode), then
//!   `misprediction_flags` with TAGE-SC-L 8KB, then scalar `simulate`.
//! * `sampled`: `profile_intervals`, `simpoints_from_profiles`,
//!   `SampledReplay::prepare`, `warmed_lanes` with TAGE-SC-L 8KB, then
//!   `simulate_weighted`, at the CLI's default sampling knobs.

use std::time::Instant;

use bp_analysis::{simpoints_from_profiles, PhaseConfig};
use bp_core::{DatasetConfig, SamplingConfig};
use bp_pipeline::{
    simulate, PipelineConfig, SamplePlan, SampleSegment, SampledReplay, SampledStats, SimStats,
    SweepReplay,
};
use bp_predictors::{misprediction_flags, TageScL};
use bp_trace::profile_intervals;
use bp_workloads::TraceStore;

use crate::goldens::Goldens;
use crate::report::{Check, Values};
use crate::stats::{mean, median, Rng, Spans};
use crate::traceset::{Timed, TraceSet};

/// The lane `replay` and `sampled` run, and the scale they run it at.
const BASE_LANE: &str = "tage-sc-l-8kb";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Replay,
    Sampled,
}

/// One trace's outputs from one job.
enum Out {
    Replay(SimStats),
    Sampled(SampledStats),
}

/// Each trace's outputs from one job, by trace index.
type Outs = Vec<(usize, Out)>;

struct Sample {
    wall: f64,
    spans: Spans,
    decoded: u64,
}

pub struct Job<'a> {
    kind: Kind,
    set: &'a TraceSet,
    goldens: &'a Goldens,
    cfg: PipelineConfig,
}

impl<'a> Job<'a> {
    pub fn new(kind: Kind, set: &'a TraceSet, goldens: &'a Goldens) -> Job<'a> {
        Job {
            kind,
            set,
            goldens,
            cfg: PipelineConfig::skylake(),
        }
    }

    /// One job over the set in `order`: returns each trace's outputs and
    /// the records decoded.
    fn run(&self, order: &[usize], spans: &mut Spans) -> Result<(Outs, u64), String> {
        let mut outs = Vec::with_capacity(order.len());
        let mut decoded = 0u64;
        for &i in order {
            let (out, n) = match self.kind {
                Kind::Replay => self.replay(i, spans)?,
                Kind::Sampled => self.sampled(i, spans)?,
            };
            outs.push((i, out));
            decoded += n;
        }
        Ok((outs, decoded))
    }

    fn replay(&self, i: usize, spans: &mut Spans) -> Result<(Out, u64), String> {
        let spec = &self.set.specs[i];
        let store = TraceStore::with_cache_dir(&self.set.dir);
        let trace = spans.time("trace.decode", || store.get(spec, 0, self.set.len));
        if store.stats().disk_loads != 1 {
            return Err(format!(
                "{}: trace was not decoded from its v3 file",
                spec.name
            ));
        }
        let flags = spans.time("predictors.train", || {
            misprediction_flags(&mut TageScL::kb8(), &trace)
        });
        let stats = spans.time("pipeline.replay", || simulate(&trace, &flags, &self.cfg));
        Ok((Out::Replay(stats), trace.len() as u64))
    }

    fn sampled(&self, i: usize, spans: &mut Spans) -> Result<(Out, u64), String> {
        let spec = &self.set.specs[i];
        let on = spans.on();
        let knobs = SamplingConfig::enabled()
            .resolve(&DatasetConfig::standard().with_trace_len(self.set.len));
        let phase_cfg = PhaseConfig {
            max_phases: knobs.max_phases,
            ..PhaseConfig::default()
        };
        let mut rd = Timed::new(spans.time("trace.decode", || self.set.stream(spec))?, on);
        let profiles = spans
            .time("trace.profile", || {
                profile_intervals(&mut rd, knobs.interval_len, phase_cfg.dims)
            })
            .map_err(|e| e.to_string())?;
        spans.nest("trace.profile", "trace.decode", rd.secs());
        let simpoints = spans.time("analysis.cluster", || {
            simpoints_from_profiles(&profiles, &phase_cfg)
        });
        let plan = SamplePlan {
            interval_len: knobs.interval_len,
            warmup: knobs.warmup,
            segments: simpoints
                .representatives
                .iter()
                .map(|r| SampleSegment {
                    interval: r.interval,
                    weight: r.weight,
                    spread: r.spread,
                })
                .collect(),
        };
        let mut rd2 = Timed::new(spans.time("trace.decode", || self.set.stream(spec))?, on);
        let sampled = spans
            .time("pipeline.prepare", || {
                SampledReplay::prepare(&mut rd2, &self.cfg, &plan)
            })
            .map_err(|e| e.to_string())?;
        spans.nest("pipeline.prepare", "trace.decode", rd2.secs());
        let mut rd3 = Timed::new(spans.time("trace.decode", || self.set.stream(spec))?, on);
        let lanes = spans
            .time("predictors.train", || {
                sampled.warmed_lanes(&mut rd3, &mut TageScL::kb8())
            })
            .map_err(|e| e.to_string())?;
        spans.nest("predictors.train", "trace.decode", rd3.secs());
        let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
        let est = spans.time("pipeline.replay", || {
            sampled.simulate_weighted(&refs, &self.cfg)
        });
        Ok((Out::Sampled(est), rd.records + rd2.records + rd3.records))
    }

    /// Checks one job's outputs against the goldens.
    fn check(&self, outs: &[(usize, Out)], check: &mut Check) {
        let len = self.set.len;
        for (i, out) in outs {
            let name = &self.set.specs[*i].name;
            let want = |lane: &str, scale: u32| self.goldens.cell(len, name, lane, scale);
            match out {
                Out::Replay(s) => {
                    let got = (s.cycles, s.mispredictions);
                    let w = want(BASE_LANE, 1).map(|c| (c.cycles, c.mispredictions));
                    check.op(w == Some(got), || {
                        format!("replay {name}: got {got:?}, pinned {w:?}")
                    });
                }
                Out::Sampled(est) => {
                    let ok = want(BASE_LANE, 1).is_some_and(|c| {
                        est.mpki_contains(golden_mpki(c.mispredictions, len))
                            && est.ipc_contains(golden_ipc(c.cycles, len))
                    });
                    check.op(ok, || {
                        format!(
                            "sampled {name}: mpki {:.4}±{:.4}, ipc {:.4}±{:.4} exclude pinned {:?}",
                            est.mpki,
                            est.mpki_half,
                            est.ipc,
                            est.ipc_half,
                            want(BASE_LANE, 1)
                        )
                    });
                }
            }
        }
    }

    /// Runs jobs for `seconds` (at least `min_jobs`), checking each. With
    /// `traced`, every second job runs traced.
    fn measure(
        &self,
        seconds: f64,
        min_jobs: usize,
        traced: bool,
        rng: &mut Rng,
        check: &mut Check,
    ) -> Result<(Vec<Sample>, Outs), String> {
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut last = Vec::new();
        while samples.len() < min_jobs || started.elapsed().as_secs_f64() < seconds {
            let mut order: Vec<usize> = (0..self.set.specs.len()).collect();
            rng.shuffle(&mut order);
            let mut spans = Spans::new(traced && samples.len() % 2 == 1);
            let t = Instant::now();
            let (outs, decoded) = self.run(&order, &mut spans)?;
            let wall = t.elapsed().as_secs_f64();
            self.check(&outs, check);
            samples.push(Sample {
                wall,
                spans,
                decoded,
            });
            last = outs;
        }
        Ok((samples, last))
    }

    /// The workload's run: one warm-up job, then `seconds` of jobs. A
    /// traced run alternates untraced and traced jobs, and reports the
    /// per-layer metrics from the traced ones.
    pub fn execute(
        &self,
        seconds: f64,
        traced: bool,
        seed: u64,
        check: &mut Check,
    ) -> Result<Values, String> {
        let mut rng = Rng::new(seed);
        self.measure(0.0, 1, false, &mut rng, check)?;
        let mut v = Values::new();
        if !traced {
            let (samples, _) = self.measure(seconds, 1, false, &mut rng, check)?;
            let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
            // Rates divide by the total job time rather than the median
            // job: host contention comes and goes within a run, and the
            // mean moves smoothly with it where the median jumps.
            let busy: f64 = walls.iter().sum();
            v.insert(
                "rec_per_s",
                self.set.records() as f64 * walls.len() as f64 / busy,
            );
            v.insert("req_per_s", walls.len() as f64 / busy);
            v.insert("p50_ms", median(&walls) * 1e3);
            println!(
                "perfbench: {} jobs, median {:.1} ms, {:.3e} rec/s",
                walls.len(),
                median(&walls) * 1e3,
                v["rec_per_s"]
            );
            return Ok(v);
        }
        let (all, last) = self.measure(seconds, 2, true, &mut rng, check)?;
        let (samples, plain): (Vec<Sample>, Vec<Sample>) =
            all.into_iter().partition(|s| s.spans.on());
        let per_job = |layer: &str| {
            mean(
                &samples
                    .iter()
                    .map(|s| s.spans.get(layer))
                    .collect::<Vec<_>>(),
            )
        };
        let records = self.set.records() as f64;
        let wall: f64 = samples.iter().map(|s| s.wall).sum();
        let accounted: f64 = samples.iter().map(|s| s.spans.total()).sum();
        let decoded: u64 = samples.iter().map(|s| s.decoded).sum();
        let branches: u64 = self
            .set
            .specs
            .iter()
            .filter_map(|s| self.goldens.branches(self.set.len, &s.name))
            .sum();
        let decode_s: f64 = samples.iter().map(|s| s.spans.get("trace.decode")).sum();
        for layer in [
            "trace.decode",
            "trace.profile",
            "predictors.train",
            "pipeline.prepare",
            "pipeline.replay",
            "analysis.cluster",
        ] {
            v.insert(metric_name(layer), per_job(layer));
        }
        v.insert("trace.decode_rec_per_s", decoded as f64 / decode_s);
        v.insert(
            "trace.passes",
            decoded as f64 / (records * samples.len() as f64),
        );
        v.insert(
            "predictors.ns_per_branch_lane",
            per_job("predictors.train") * 1e9 / branches as f64,
        );
        let replay_s = per_job("pipeline.replay");
        match self.kind {
            Kind::Replay => {
                v.insert("pipeline.sim_rec_per_s", records / replay_s);
                v.insert("pipeline.lane1_rec_per_s", self.one_lane_rec_per_s(check)?);
            }
            Kind::Sampled => self.accuracy(&last, &mut v),
        }
        v.insert("unaccounted_s", (wall - accounted) / samples.len() as f64);
        v.insert("accounted_pct", accounted / wall * 100.0);
        let plain_walls: Vec<f64> = plain.iter().map(|s| s.wall).collect();
        let traced_walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
        v.insert(
            "tracing_overhead_pct",
            (mean(&traced_walls) / mean(&plain_walls) - 1.0) * 100.0,
        );

        // The 95% attribution rule: a traced run that cannot say where
        // its time went is a failed op, not a number.
        let share = accounted / wall;
        check.op(share >= 0.95, || {
            format!("layers account for only {:.1}% of wall time", share * 100.0)
        });
        let mut layers: Vec<(&str, f64)> = samples[0]
            .spans
            .layers()
            .map(|(l, _)| (l, per_job(l)))
            .collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        let shares: Vec<String> = layers
            .iter()
            .map(|(l, s)| format!("{l} {:.1}%", s / (wall / samples.len() as f64) * 100.0))
            .collect();
        println!(
            "perfbench: dominant layer {} ({}); layers account for {:.1}% of wall",
            layers.first().map_or("none", |l| l.0),
            shares.join(", "),
            share * 100.0
        );
        Ok(v)
    }

    /// Worst relative error of the sampled estimates against the pinned
    /// full-replay goldens, plus coverage and segment counts.
    fn accuracy(&self, outs: &[(usize, Out)], v: &mut Values) {
        let (mut mpki_err, mut ipc_err, mut coverage, mut segments) =
            (0f64, 0f64, Vec::new(), 0usize);
        for (i, out) in outs {
            let Out::Sampled(est) = out else { continue };
            let Some(c) = self
                .goldens
                .cell(self.set.len, &self.set.specs[*i].name, BASE_LANE, 1)
            else {
                continue;
            };
            let (gm, gi) = (
                golden_mpki(c.mispredictions, self.set.len),
                golden_ipc(c.cycles, self.set.len),
            );
            mpki_err = mpki_err.max((est.mpki - gm).abs() / gm);
            ipc_err = ipc_err.max((est.ipc - gi).abs() / gi);
            coverage.push(est.coverage());
            segments += est.segments;
        }
        v.insert("mpki_err_pct", mpki_err * 100.0);
        v.insert("ipc_err_pct", ipc_err * 100.0);
        v.insert("pipeline.coverage", mean(&coverage));
        v.insert("analysis.segments", segments as f64);
    }

    /// ROADMAP's scalar-vs-lane question: the same replay as a 1-lane
    /// `SweepReplay` (prepare + simulate) from the in-memory trace, in
    /// records per second, with its output checked like `replay`'s.
    fn one_lane_rec_per_s(&self, check: &mut Check) -> Result<f64, String> {
        let mut secs = 0.0;
        for (i, spec) in self.set.specs.iter().enumerate() {
            let trace = TraceStore::with_cache_dir(&self.set.dir).get(spec, 0, self.set.len);
            let flags = misprediction_flags(&mut TageScL::kb8(), &trace);
            let t = Instant::now();
            let stats = SweepReplay::new(&trace, &self.cfg).simulate(&flags, &self.cfg);
            secs += t.elapsed().as_secs_f64();
            self.check(&[(i, Out::Replay(stats))], check);
        }
        Ok(self.set.records() as f64 / secs)
    }
}

fn metric_name(layer: &str) -> &'static str {
    match layer {
        "trace.decode" => "trace.decode_s",
        "trace.profile" => "trace.profile_s",
        "predictors.train" => "predictors.train_s",
        "pipeline.prepare" => "pipeline.prepare_s",
        "pipeline.replay" => "pipeline.replay_s",
        _ => "analysis.cluster_s",
    }
}

fn golden_mpki(mispredictions: u64, len: usize) -> f64 {
    mispredictions as f64 * 1000.0 / len as f64
}

fn golden_ipc(cycles: u64, len: usize) -> f64 {
    len as f64 / cycles as f64
}
