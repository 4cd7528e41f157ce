//! Property-based tests over the core data structures and invariants,
//! using randomly generated programs and branch streams.
//!
//! The build environment is offline, so instead of proptest these tests
//! drive each property from a deterministic SplitMix64 case generator:
//! every property runs over a few dozen seeded random cases, and failures
//! report the case seed for replay.

use branch_lab::predictors::{
    measure, misprediction_flags, Bimodal, BitHistory, FoldedHistory, GShare, Perceptron, Ppm,
    PpmConfig, Predictor, SatCounter, SignedCounter, TageScL,
};
use branch_lab::pipeline::{simulate, PipelineConfig};
use branch_lab::trace::{Cond, Reg, RetiredInst, SliceConfig, Trace, TraceMeta};
use branch_lab::workloads::{Interpreter, Op, ProgramBuilder, Terminator};

/// Deterministic case generator (SplitMix64).
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

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Uniform value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.u64() as usize) % (hi - lo)
    }

    fn ops(&mut self, n: usize) -> Vec<(u8, u8, u8, u64)> {
        (0..n)
            .map(|_| {
                let w = self.u64();
                (w as u8, (w >> 8) as u8, (w >> 16) as u8, self.u64())
            })
            .collect()
    }
}

/// Number of random cases per property.
const CASES: u64 = 24;

/// Builds a random but well-formed program: a ring of blocks with random
/// straight-line ops and conditional branches between ring members.
fn arbitrary_program(ops: Vec<(u8, u8, u8, u64)>, nblocks: usize) -> branch_lab::workloads::Program {
    let nblocks = nblocks.clamp(2, 12);
    let mut b = ProgramBuilder::new();
    let blocks: Vec<_> = (0..nblocks).map(|_| b.block()).collect();
    for (i, &blk) in blocks.iter().enumerate() {
        // A few deterministic ops derived from the fuzz input.
        for &(sel, r1, r2, imm) in ops.iter().skip(i).take(4) {
            let d = Reg::new(r1 % 30);
            let a = Reg::new(r2 % 30);
            let op = match sel % 6 {
                0 => Op::AddI { dst: d, a, imm },
                1 => Op::Xor { dst: d, a, b: Reg::new((r1 ^ r2) % 30) },
                2 => Op::MulI { dst: d, a, imm: imm | 1 },
                3 => Op::Load { dst: d, base: a, offset: imm },
                4 => Op::Store { src: d, base: a, offset: imm },
                _ => Op::Rem { dst: d, a, m: (imm % 97) + 2 },
            };
            b.push(blk, op);
        }
        let taken = blocks[(i + 1) % nblocks];
        let fallthrough = blocks[(i + 2) % nblocks];
        b.term(
            blk,
            Terminator::BrI {
                cond: if i % 2 == 0 { Cond::Lt } else { Cond::Ne },
                a: Reg::new((i % 30) as u8),
                imm: ops.first().map_or(3, |o| o.3 % 100),
                taken,
                fallthrough,
            },
        );
    }
    b.finish(blocks[0], 10)
}

/// Any well-formed program runs to the budget and produces a trace
/// whose branches reference real block addresses.
#[test]
fn interpreter_never_panics_and_traces_are_exact() {
    for case in 0..CASES {
        let mut g = Gen::new(case);
        let ops = {
            let n = g.range(4, 20);
            g.ops(n)
        };
        let nblocks = g.range(2, 12);
        let seed = g.u64();
        let len = g.range(64, 2048);
        let p = arbitrary_program(ops, nblocks);
        let trace = Interpreter::new(&p, seed).run(len, TraceMeta::new("fuzz", 0));
        assert_eq!(trace.len(), len, "case {case}");
        for br in trace.conditional_branches() {
            // Branch IPs and targets must be within the code segment.
            assert!(br.ip >= branch_lab::workloads::CODE_BASE, "case {case}");
            assert!(br.target >= branch_lab::workloads::CODE_BASE, "case {case}");
        }
    }
}

/// Determinism: identical (program, seed, budget) yields identical
/// traces.
#[test]
fn interpreter_is_deterministic() {
    for case in 0..CASES {
        let mut g = Gen::new(0x1000 + case);
        let ops = {
            let n = g.range(4, 16);
            g.ops(n)
        };
        let nblocks = g.range(2, 8);
        let seed = g.u64();
        let p = arbitrary_program(ops, nblocks);
        let a = Interpreter::new(&p, seed).run(512, TraceMeta::new("f", 0));
        let b = Interpreter::new(&p, seed).run(512, TraceMeta::new("f", 0));
        assert_eq!(a.insts(), b.insts(), "case {case}");
    }
}

/// Every predictor stays panic-free and self-consistent on arbitrary
/// branch streams.
#[test]
fn predictors_handle_arbitrary_streams() {
    for case in 0..CASES {
        let mut g = Gen::new(0x2000 + case);
        let n = g.range(1, 400);
        let stream: Vec<(u32, bool)> = (0..n).map(|_| (g.u64() as u32, g.bool())).collect();
        let mut predictors: Vec<Box<dyn Predictor>> = vec![
            Box::new(Bimodal::new(8)),
            Box::new(GShare::new(10, 12)),
            Box::new(Perceptron::new(8, 16)),
            Box::new(Ppm::new(PpmConfig::default())),
            Box::new(TageScL::kb8()),
        ];
        for p in &mut predictors {
            for &(ip, taken) in &stream {
                let ip = u64::from(ip) << 2;
                let pred = p.predict(ip);
                p.update(ip, taken, pred);
            }
            assert!(
                p.storage_bits() > 0 || p.name() == "always-taken",
                "case {case}: {}",
                p.name()
            );
        }
    }
}

/// Prediction accuracy is reproducible: running the same predictor
/// twice over the same trace gives identical flags.
#[test]
fn prediction_is_deterministic() {
    for case in 0..CASES {
        let mut g = Gen::new(0x3000 + case);
        let seed = g.u64();
        let len = g.range(256, 1024);
        let mut t = Trace::new(TraceMeta::new("s", 0));
        let mut state = seed | 1;
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ip = 0x400 + u64::from((state >> 33) as u8 & 31) * 4;
            t.push(RetiredInst::cond_branch(ip, state & 1 == 1, 0, None, None));
        }
        let a = misprediction_flags(&mut TageScL::kb8(), &t);
        let b = misprediction_flags(&mut TageScL::kb8(), &t);
        assert_eq!(a, b, "case {case}");
    }
}

/// Pipeline monotonicity: flipping mispredictions on can only slow the
/// machine down, and IPC is bounded by the fetch width.
#[test]
fn pipeline_is_monotone_in_mispredictions() {
    for case in 0..CASES {
        let mut g = Gen::new(0x4000 + case);
        let seed = g.u64();
        let flips: Vec<bool> = (0..64).map(|_| g.bool()).collect();
        let mut t = Trace::new(TraceMeta::new("m", 0));
        let mut state = seed | 1;
        for i in 0..64u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i % 4 == 0 {
                t.push(RetiredInst::cond_branch(0x400 + i * 4, state & 1 == 1, 0, None, None));
            } else {
                t.push(RetiredInst::op(
                    0x400 + i * 4,
                    branch_lab::trace::InstClass::Alu,
                    None,
                    None,
                    Some(Reg::new((i % 8) as u8)),
                    0,
                ));
            }
        }
        let nbr = t.conditional_branch_count();
        let cfg = PipelineConfig::skylake();
        let none = simulate(&t, &vec![false; nbr], &cfg);
        let some = simulate(&t, &flips[..nbr], &cfg);
        assert!(some.cycles >= none.cycles, "case {case}");
        assert!(none.ipc() <= f64::from(cfg.fetch_width) + 1e-9, "case {case}");
    }
}

/// Saturating counters never leave their range and move toward the
/// trained direction.
#[test]
fn counters_respect_ranges() {
    for case in 0..CASES {
        let mut g = Gen::new(0x5000 + case);
        let n = g.range(1, 200);
        let updates: Vec<bool> = (0..n).map(|_| g.bool()).collect();
        let bits = g.range(1, 8) as u32;
        let mut c = SatCounter::new(bits, 0);
        let mut s = SignedCounter::new(bits.max(2));
        for &u in &updates {
            c.update(u);
            s.update(u);
            assert!(c.value() <= c.max(), "case {case}");
            assert!(s.centered().abs() <= i32::from(i16::MAX), "case {case}");
        }
        // After enough consistent updates to saturate, direction matches.
        let mut c2 = SatCounter::new(bits, 0);
        for _ in 0..=c2.max() {
            c2.update(true);
        }
        assert!(c2.taken(), "case {case}");
    }
}

/// Slices partition traces: slice lengths sum to at most the trace
/// length, and all but the last have exactly the configured length.
#[test]
fn slices_partition_traces() {
    for case in 0..CASES {
        let mut g = Gen::new(0x6000 + case);
        let len = g.range(1, 5000);
        let slice_len = g.range(1, 1000);
        let mut t = Trace::new(TraceMeta::new("sl", 0));
        for i in 0..len {
            t.push(RetiredInst::op(i as u64, branch_lab::trace::InstClass::Nop, None, None, None, 0));
        }
        let cfg = SliceConfig::new(slice_len);
        let slices: Vec<_> = t.slices(cfg).collect();
        let total: usize = slices.iter().map(|s| s.len()).sum();
        assert!(total <= len, "case {case}");
        for s in slices.iter().rev().skip(1) {
            assert_eq!(s.len(), slice_len, "case {case}");
        }
        if let Some(last) = slices.last() {
            assert!(last.len() * 2 >= slice_len, "case {case}");
        }
    }
}

/// The O(1) folded-history register always equals a naive refold of the
/// raw global history: for every prefix of a random push sequence, XORing
/// the newest `olen` bits of the [`BitHistory`] into position
/// `age % clen` reproduces [`FoldedHistory::value`] exactly. This pins
/// the cyclic-shift-register construction (and its `outpoint` wraparound)
/// against the ground-truth definition, over random geometries — not just
/// the few hand-picked ones in the unit tests.
#[test]
fn folded_history_matches_naive_refold() {
    for case in 0..CASES {
        let mut g = Gen::new(0x8000 + case);
        let clen = g.range(1, 33) as u32;
        let olen = g.range(1, 600);
        let pushes = g.range(olen + 1, 2 * olen + 64);
        let mut raw = BitHistory::new(olen.max(2));
        let mut folded = FoldedHistory::new(olen, clen);
        let mut age = 0usize; // bits pushed so far
        for _ in 0..pushes {
            let newbit = g.bool();
            // The incremental update needs the bit about to age past olen,
            // read from the raw history *before* the push.
            let outgoing = age >= olen && raw.bit(olen - 1);
            folded.update(newbit, outgoing);
            raw.push(newbit);
            age += 1;

            let mut expect = 0u64;
            for a in 0..olen.min(age) {
                if raw.bit(a) {
                    expect ^= 1 << (a as u32 % clen);
                }
            }
            assert_eq!(
                folded.value(),
                expect,
                "case {case}: olen={olen} clen={clen} after {age} pushes"
            );
        }
    }
}

/// With `BRANCH_LAB_METRICS` unset (this test binary never enables it),
/// the metrics facade must be fully inert: driving the instrumented
/// paths — prediction, pipeline simulation, a parallel study — registers
/// no counters and no timers at all, so the instrumentation cannot
/// perturb or observe anything in the default configuration.
#[test]
fn metrics_disabled_registers_nothing() {
    assert!(
        !branch_lab::metrics::enabled(),
        "test binary must run with metrics disabled"
    );
    // Exercise predictor counters, pipeline counters, and the engine /
    // study / trace-store instrumentation.
    let mut g = Gen::new(0x9000);
    let mut t = Trace::new(TraceMeta::new("inert", 0));
    let mut state = g.u64() | 1;
    for _ in 0..400 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let ip = 0x400 + u64::from((state >> 33) as u8 & 31) * 4;
        t.push(RetiredInst::cond_branch(ip, state & 1 == 1, 0, None, None));
    }
    let flags = misprediction_flags(&mut TageScL::kb8(), &t);
    let _ = simulate(&t, &flags, &PipelineConfig::skylake());
    let spec = &branch_lab::workloads::specint_suite()[0];
    let cfg = branch_lab::core::DatasetConfig::quick().with_trace_len(10_000);
    let _ = branch_lab::core::characterize_workload(spec, &cfg, branch_lab::core::memo::TAGE_SC_L_8KB);

    assert!(
        branch_lab::metrics::snapshot_counters().is_empty(),
        "disabled run registered counters: {:?}",
        branch_lab::metrics::snapshot_counters()
    );
    assert!(
        branch_lab::metrics::snapshot_timers().is_empty(),
        "disabled run registered timers: {:?}",
        branch_lab::metrics::snapshot_timers()
    );
}

/// `measure` accuracy equals 1 - (flagged mispredictions / branches).
#[test]
fn measure_and_flags_agree() {
    for case in 0..CASES {
        let mut g = Gen::new(0x7000 + case);
        let seed = g.u64();
        let mut t = Trace::new(TraceMeta::new("agree", 0));
        let mut state = seed | 1;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let ip = 0x40 + u64::from((state >> 20) as u8 & 7) * 4;
            t.push(RetiredInst::cond_branch(ip, (state >> 8) & 1 == 1, 0, None, None));
        }
        let acc = measure(&mut GShare::new(10, 8), &t);
        let flags = misprediction_flags(&mut GShare::new(10, 8), &t);
        let wrong = flags.iter().filter(|&&f| f).count() as u64;
        assert_eq!(acc.total - acc.correct, wrong, "case {case}");
    }
}
