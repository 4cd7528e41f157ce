//! Sampled-replay correctness: streamed-feature parity with the
//! materialized path, and reconstruction-error gates against full-replay
//! goldens.
//!
//! Two families of tests:
//!
//! * **Feature parity** — block-wise [`profile_intervals`] over a
//!   `TraceReader` must be *bit-identical* to `bbv()` computed over
//!   materialized [`Trace::slices`], across random traces, ragged final
//!   intervals, arbitrary stream chunkings, and 1..=16 engine threads.
//!   The sampled-replay planner clusters streamed profiles while the
//!   phase studies historically clustered materialized slices; this
//!   parity is what makes the `phase.rs` refactor behaviour-preserving.
//! * **Reconstruction error** — the production sampled path (streamed
//!   profiles → SimPoint medoids → warmed segment replay → weighted
//!   reconstruction) must simulate ≤ 25% of a workload's records and
//!   land within the reported error bars of the full-replay golden. The
//!   full 15-workload suite and the ≥2M-branch streamed variant are
//!   `#[ignore]`d so `cargo test` stays fast; `ci.sh` runs them from the
//!   release sampled leg.

use branch_lab::analysis::bbv;
use branch_lab::core::{DatasetConfig, Engine, SamplingConfig};
use branch_lab::pipeline::{
    simulate, PipelineConfig, SampledReplay, SamplePlan, SampleSegment, SweepReplay,
};
use branch_lab::predictors::{misprediction_flags, DirectionPredictor, TageScL};
use branch_lab::trace::{
    profile_intervals, BptrReader, InstClass, IntervalProfile, ReadTraceError, Reg, RetiredInst,
    SliceConfig, Trace, TraceMeta, TraceReader, TraceWriter,
};
use branch_lab::workloads::{lcf_suite, specint_suite};
use bp_experiments::studies::sampled_comparison;

/// Deterministic case generator (SplitMix64), as in `tests/properties.rs`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.u64() as usize) % (hi - lo)
    }
}

/// A random mixed trace: branches over a seeded IP set, plus ALU, load,
/// store and mul filler so profiles see realistic branch density.
fn random_trace(g: &mut Gen, len: usize) -> Trace {
    let mut t = Trace::new(TraceMeta::new("sampled-prop", 0));
    for i in 0..len {
        let ip = 0x1000 + (g.u64() % 97) * 4;
        match g.range(0, 5) {
            0 | 1 => t.push(RetiredInst::cond_branch(ip, g.u64() & 1 == 0, 0x8000, Some(1), None)),
            2 => t.push(RetiredInst::op(
                ip,
                InstClass::Load,
                Some(Reg::new(1)),
                None,
                Some(Reg::new(2)),
                g.u64() % 4096,
            )),
            3 => t.push(RetiredInst::op(
                ip,
                InstClass::Store,
                Some(Reg::new(2)),
                None,
                None,
                g.u64() % 4096,
            )),
            _ => t.push(RetiredInst::op(
                ip,
                InstClass::Alu,
                Some(Reg::new(3)),
                None,
                Some(Reg::new(4)),
                i as u64,
            )),
        }
    }
    t
}

/// A reader that re-chunks a trace at a fixed step, so chunk boundaries
/// land at arbitrary offsets relative to interval boundaries.
struct Chunked<'a> {
    t: &'a Trace,
    at: usize,
    step: usize,
}

impl TraceReader for Chunked<'_> {
    fn meta(&self) -> &TraceMeta {
        self.t.meta()
    }
    fn len_hint(&self) -> Option<u64> {
        None
    }
    fn next_chunk(&mut self) -> Result<Option<&[RetiredInst]>, ReadTraceError> {
        if self.at >= self.t.len() {
            return Ok(None);
        }
        let end = (self.at + self.step).min(self.t.len());
        let chunk = &self.t.insts()[self.at..end];
        self.at = end;
        Ok(Some(chunk))
    }
}

#[test]
fn streamed_profiles_bit_identical_to_materialized_bbv() {
    for seed in 0..24u64 {
        let mut g = Gen::new(seed.wrapping_mul(0x5851_F42D) + 1);
        let len = g.range(50, 3000);
        let interval = g.range(10, 400);
        let dims = [1, 8, 16, 64][g.range(0, 4)];
        let t = random_trace(&mut g, len);

        let profiles = profile_intervals(t.reader(), interval, dims).unwrap();
        let slices: Vec<&[RetiredInst]> = t.slices(SliceConfig::new(interval)).collect();
        // Same interval-boundary rule, including the ragged-tail keep rule.
        assert_eq!(profiles.len(), slices.len(), "seed {seed} len {len} interval {interval}");
        for (i, (p, s)) in profiles.iter().zip(&slices).enumerate() {
            assert_eq!(p.insts as usize, s.len(), "seed {seed} slice {i}");
            assert_eq!(
                p.branches as usize,
                s.iter().filter(|r| r.is_conditional_branch()).count(),
                "seed {seed} slice {i}"
            );
            let streamed = p.normalized_bbv();
            let materialized = bbv(s, dims);
            assert!(
                streamed.iter().zip(&materialized).all(|(a, b)| a.to_bits() == b.to_bits()),
                "seed {seed} slice {i}: streamed BBV not bit-identical to bbv()"
            );
        }
    }
}

#[test]
fn profile_chunking_is_immaterial() {
    // 997 is prime, so every chunk step lands chunk boundaries at every
    // possible offset inside an interval over the course of the stream.
    let mut g = Gen::new(42);
    let t = random_trace(&mut g, 997);
    let reference = profile_intervals(t.reader(), 100, 16).unwrap();
    assert_eq!(reference.len(), 10); // nine full + the kept 97-record tail
    for step in [1, 3, 7, 64, 100, 101, 997, 4096] {
        let chunked: Vec<IntervalProfile> =
            profile_intervals(Chunked { t: &t, at: 0, step }, 100, 16).unwrap();
        assert_eq!(chunked, reference, "step {step}");
    }
}

#[test]
fn profiles_identical_across_thread_counts() {
    // Feature extraction inside an Engine::map fleet (how studies fan out
    // across workloads) must be bit-identical at every thread count.
    let cfg = DatasetConfig::quick();
    let specs = specint_suite();
    let traces: Vec<Trace> = specs.iter().take(4).map(|s| s.trace(0, cfg.trace_len)).collect();
    let reference = Engine::with_threads(1)
        .map(&traces, |_, t| profile_intervals(t.reader(), cfg.slice.len(), 64).unwrap());
    for threads in 2..=16 {
        let got = Engine::with_threads(threads)
            .map(&traces, |_, t| profile_intervals(t.reader(), cfg.slice.len(), 64).unwrap());
        assert_eq!(got, reference, "threads {threads}");
    }
}

/// A random sampling plan over a `len`-record trace: interval 0, two
/// adjacent intervals, the EOF-truncated last interval, the interval
/// just past the end, whose warm-up prefix starts before EOF whenever
/// the warm-up is at least one interval (dropped), and one interval
/// wholly past the end, warm-up included (dropped).
fn random_plan(g: &mut Gen, len: usize, interval_len: usize, warmup: usize) -> SamplePlan {
    let last = len / interval_len;
    let mid = g.range(1, last - 1);
    let segments = [0, mid, mid + 1, last, last + 1, last + 4]
        .into_iter()
        .map(|interval| SampleSegment {
            interval,
            weight: 0.2,
            spread: 0.0,
        })
        .collect();
    SamplePlan {
        interval_len,
        warmup,
        segments,
    }
}

/// The contract of the two sampled walks, over chunked readers: each
/// warmed lane is exactly its segment's slice of one full
/// `misprediction_flags` pass (a continuously trained predictor), and
/// the weighted estimate does not depend on how the stream is chunked.
/// The same chunked readers feed the whole-trace prepare, which must
/// replay the full flags exactly as the scalar model does; every load
/// and store of `random_trace` uses address 0, so loads forward across
/// every chunk edge.
#[test]
fn sampled_walks_match_full_flags_at_any_chunking() {
    let cfg = PipelineConfig::skylake();
    for seed in 0..6u64 {
        let mut g = Gen::new(seed.wrapping_mul(0x2545_F491) + 7);
        let interval_len = g.range(200, 700);
        let len = g.range(4, 9) * interval_len + g.range(1, interval_len);
        let t = random_trace(&mut g, len);
        // No warm-up, or one long enough that each adjacent segment's
        // warm-up covers its neighbour's whole interval.
        let warmup = match seed % 3 {
            0 => 0,
            _ => g.range(interval_len, 2 * interval_len),
        };
        let plan = random_plan(&mut g, len, interval_len, warmup);

        let full = misprediction_flags(&mut TageScL::kb8(), &t);
        // Conditional branches before each record index.
        let mut before = vec![0usize; len + 1];
        for (i, r) in t.insts().iter().enumerate() {
            before[i + 1] = before[i] + usize::from(r.is_conditional_branch());
        }

        let mut reference = None;
        for step in [1, 7, 64, len] {
            let chunked = || Chunked { t: &t, at: 0, step };
            let ctx = format!("seed {seed} step {step} warmup {warmup}");
            let whole = SweepReplay::prepare(chunked(), &cfg).unwrap();
            let scalar = simulate(&t, &full, &cfg);
            assert_eq!(whole.simulate(&full, &cfg), scalar, "{ctx}: whole trace");
            let sampled = SampledReplay::prepare(chunked(), &cfg, &plan).unwrap();
            // The segment past EOF is dropped.
            assert_eq!(sampled.num_segments(), 4, "{ctx}: segments");
            let (_, cut_end) = sampled.segment_record_range(3);
            assert_eq!(cut_end, len as u64, "{ctx}: the last segment ends at EOF");
            let mut tage = TageScL::kb8();
            let lanes = sampled.warmed_lanes(chunked(), &mut tage).unwrap();
            for (i, lane) in lanes.iter().enumerate() {
                let (lo, hi) = sampled.segment_record_range(i);
                let want = &full[before[lo as usize]..before[hi as usize]];
                assert_eq!(lane.as_slice(), want, "{ctx}: segment {i} flags");
                assert_eq!(lane.len(), sampled.segment_branches(i), "{ctx}: lane {i}");
            }
            let refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
            let est = sampled.simulate_weighted(&refs, &cfg);
            match &reference {
                None => reference = Some(est),
                Some(r) => assert_eq!(&est, r, "{ctx}: estimate depends on chunking"),
            }
        }
    }
}

/// The acceptance gate, on the workload with the largest calibration
/// margin: ≤ 25% of records simulated, MPKI within ±2% relative error of
/// the full-replay golden, and the reported bars contain the golden.
#[test]
fn sampled_replay_reconstructs_perlbench_within_two_percent() {
    let cfg = DatasetConfig::standard();
    let sampling = SamplingConfig::default().resolve(&cfg);
    let specs = specint_suite();
    let spec = specs.iter().find(|s| s.name == "600.perlbench_s").expect("suite workload");
    let c = sampled_comparison(spec, &cfg, &sampling);
    assert!(
        c.est.coverage() <= 0.25,
        "coverage {:.3} exceeds the 25% budget",
        c.est.coverage()
    );
    assert!(
        c.mpki_rel_err() <= 0.02,
        "MPKI err {:.2}% exceeds 2% (golden {:.3}, est {:.3})",
        c.mpki_rel_err() * 100.0,
        c.golden_mpki,
        c.est.mpki
    );
    assert!(c.est.mpki_contains(c.golden_mpki), "bars must contain the golden MPKI");
    assert!(c.est.mpki_half > 0.0 && c.est.ipc_half > 0.0, "bars must be reported");
}

/// Full-suite gate at the calibrated standard scale: every workload's
/// MPKI bars contain its golden, within the coverage budget. `#[ignore]`d
/// for `cargo test`; `ci.sh` runs it in release from the sampled leg.
#[test]
#[ignore = "full-suite standard-scale sweep; run by ci.sh in release"]
fn sampled_mpki_bars_contain_golden_across_suite() {
    let cfg = DatasetConfig::standard();
    let sampling = SamplingConfig::default().resolve(&cfg);
    let mut best_err = f64::INFINITY;
    for spec in specint_suite().iter().chain(lcf_suite().iter()) {
        let c = sampled_comparison(spec, &cfg, &sampling);
        assert!(
            c.est.coverage() <= 0.25,
            "{}: coverage {:.3} exceeds the 25% budget",
            spec.name,
            c.est.coverage()
        );
        assert!(
            c.est.mpki_contains(c.golden_mpki),
            "{}: golden MPKI {:.3} outside [{:.3} ± {:.3}]",
            spec.name,
            c.golden_mpki,
            c.est.mpki,
            c.est.mpki_half
        );
        best_err = best_err.min(c.mpki_rel_err());
    }
    assert!(
        best_err <= 0.02,
        "no suite workload reconstructed within 2% (best {:.2}%)",
        best_err * 100.0
    );
}

/// Writes a phase-structured ≥2M-branch trace as BPTR v3 without ever
/// materializing it, then runs the whole sampled pipeline — profiling,
/// planning, segment extraction, warmed lanes — through streaming
/// `BptrReader` passes over the file.
fn write_streamed_trace(path: &std::path::Path, insts: usize) -> u64 {
    let meta = TraceMeta::new("sampled-stream", 0);
    let file = std::fs::File::create(path).expect("create trace file");
    let mut w = TraceWriter::new(std::io::BufWriter::new(file), &meta, Some(insts as u64))
        .expect("write header");
    let mut branches = 0u64;
    let phase_len = insts / 8; // 8 macro-phases cycling through 3 behaviours
    // Pseudo-random directions (SplitMix64 of the instruction index) keep
    // the branches genuinely hard: TAGE converges to the bias entropy
    // floor, not to zero MPKI, so relative reconstruction error is
    // meaningful. The bias differs per phase, giving the clusterer real
    // phase structure to find.
    let mix = |i: u64| {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    };
    for i in 0..insts {
        let phase = (i / phase_len) % 3;
        let ip = 0x4000 + ((i as u64 % (37 + 11 * phase as u64)) * 4);
        if i % 4 == 0 {
            let bias = [800, 500, 650][phase];
            let taken = mix(i as u64) % 1000 < bias;
            w.push(RetiredInst::cond_branch(ip, taken, 0x9000, Some(1), None)).expect("push");
            branches += 1;
        } else if i % 4 == 1 {
            w.push(RetiredInst::op(
                ip,
                InstClass::Load,
                Some(Reg::new(1)),
                None,
                Some(Reg::new(2)),
                (i as u64 * 64) % (1 << (14 + phase)),
            ))
            .expect("push");
        } else {
            w.push(RetiredInst::op(
                ip,
                InstClass::Alu,
                Some(Reg::new(2)),
                None,
                Some(Reg::new(3)),
                i as u64,
            ))
            .expect("push");
        }
    }
    let inner = w.finish().expect("finish trace");
    drop(inner);
    branches
}

fn bptr(path: &std::path::Path) -> BptrReader<std::io::BufReader<std::fs::File>> {
    let file = std::fs::File::open(path).expect("open trace file");
    BptrReader::new(std::io::BufReader::new(file)).expect("read header")
}

#[test]
#[ignore = "streamed 2M-branch scale run; run by ci.sh in release"]
fn streamed_two_million_branch_trace_within_tolerance() {
    use branch_lab::analysis::{simpoints_from_profiles, PhaseConfig};

    let dir = std::env::temp_dir().join(format!("branch-lab-sampled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("stream.bptr");
    const INSTS: usize = 8_000_000;
    let branches = write_streamed_trace(&path, INSTS);
    assert!(branches >= 2_000_000, "trace must carry >= 2M branches, has {branches}");

    let base = PipelineConfig::skylake();
    let interval_len = INSTS / 20;
    let warmup = interval_len / 5;

    // Full-replay golden, itself computed in streaming passes: prepared
    // replay from one pass, misprediction flags from another.
    let golden_sweep = SweepReplay::prepare(bptr(&path), &base).expect("prepare golden");
    let mut predictor = TageScL::kb8();
    let mut flags = Vec::with_capacity(branches as usize);
    {
        let mut r = bptr(&path);
        while let Some(chunk) = r.next_chunk().expect("stream") {
            for inst in chunk {
                if inst.is_conditional_branch() {
                    let taken = inst.branch.expect("conditional carries info").taken;
                    flags.push(predictor.predict_and_train(inst.ip, taken) != taken);
                }
            }
        }
    }
    let golden = golden_sweep.simulate(&flags, &base);

    // The sampled path, end to end over streaming readers.
    let phase_cfg = PhaseConfig { max_phases: 4, ..PhaseConfig::default() };
    let profiles = profile_intervals(bptr(&path), interval_len, phase_cfg.dims).expect("profile");
    assert_eq!(profiles.len(), 20);
    let simpoints = simpoints_from_profiles(&profiles, &phase_cfg);
    let plan = SamplePlan {
        interval_len,
        warmup,
        segments: simpoints
            .representatives
            .iter()
            .map(|r| SampleSegment { interval: r.interval, weight: r.weight, spread: r.spread })
            .collect(),
    };
    let sampled = SampledReplay::prepare(bptr(&path), &base, &plan).expect("prepare sampled");
    let lanes = sampled.warmed_lanes(bptr(&path), &mut TageScL::kb8()).expect("warm lanes");
    let lane_refs: Vec<&[bool]> = lanes.iter().map(Vec::as_slice).collect();
    let est = sampled.simulate_weighted(&lane_refs, &base);

    std::fs::remove_dir_all(&dir).ok();

    let rel_err = (est.mpki - golden.mpki()).abs() / golden.mpki();
    assert!(est.coverage() <= 0.25, "coverage {:.3} exceeds the 25% budget", est.coverage());
    assert!(
        rel_err <= 0.05,
        "streamed MPKI err {:.2}% exceeds tolerance (golden {:.3}, est {:.3})",
        rel_err * 100.0,
        golden.mpki(),
        est.mpki
    );
    assert!(
        est.mpki_contains(golden.mpki()),
        "bars [{:.3} ± {:.3}] must contain golden {:.3}",
        est.mpki,
        est.mpki_half,
        golden.mpki()
    );
}
