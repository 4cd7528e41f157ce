//! Workload specifications: parameterized synthetic benchmarks.
//!
//! A [`WorkloadSpec`] describes a benchmark's branch-behaviour composition
//! as counts of [motifs](crate::motifs). [`WorkloadSpec::program`] lowers
//! the spec into an executable [`Program`] whose structure — every static
//! branch IP — is identical across *application inputs*;
//! [`WorkloadSpec::trace`] then executes it with an input-specific data
//! memory, so branch dynamics vary per input exactly as the paper's
//! multi-input tracing methodology requires (§III-A).

use bp_trace::{Cond, Trace, TraceMeta};

use crate::interp::{Interpreter, SplitMix64};
use crate::motifs::{regs, Emitter, RareTier, VarGapSpec};
use crate::program::{BlockId, Op, Program, ProgramBuilder, Terminator};

/// Which dataset a workload belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// SPECint-2017-like: moderate code footprint, H2P-dominated.
    SpecInt,
    /// Large-code-footprint-like: rare-branch-dominated.
    Lcf,
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::SpecInt => f.write_str("specint"),
            Family::Lcf => f.write_str("lcf"),
        }
    }
}

/// A set of motif instances composing one code region.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MotifSet {
    /// Serial pointer-chase hops executed per visit (memory backbone).
    pub pointer_chase_hops: u32,
    /// Number of constant-direction branches.
    pub constant_chain: u32,
    /// Trip counts of fixed counted loops.
    pub fixed_loops: Vec<u32>,
    /// `(outer, inner)` trip counts of nested IMLI-style loop pairs.
    pub nested_imli: Vec<(u32, u32)>,
    /// Number of iteration-correlated branch pairs.
    pub correlated_pairs: u32,
    /// Variable-gap correlated H2P regions.
    pub var_gap_h2ps: Vec<VarGapSpec>,
    /// Taken-percentages of irreducible data-dependent H2Ps.
    pub data_dep_h2ps: Vec<u8>,
    /// Rare-pocket dispatch tiers.
    pub rare_tiers: Vec<RareTier>,
}

/// A complete synthetic benchmark description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Benchmark name, e.g. `"641.leela_s"`.
    pub name: String,
    /// Dataset family.
    pub family: Family,
    /// Number of distinct application inputs to trace (Table I's
    /// "# App. Inputs").
    pub inputs: u32,
    /// log2 of data-memory words.
    pub mem_words_log2: u32,
    /// Number of program phases. Phases execute disjoint motif sets,
    /// yielding SimPoint-style phase behaviour.
    pub phases: u32,
    /// Phase residence is `2^phase_shift` outer-loop iterations.
    pub phase_shift: u32,
    /// Motifs executed on every outer-loop iteration.
    pub common: MotifSet,
    /// Motifs instantiated once per phase (distinct static code per phase).
    pub per_phase: MotifSet,
    /// Default trace length in instructions for experiments.
    pub default_trace_len: usize,
}

/// Version of the trace generator: the program lowering, the motifs and
/// the interpreter. Bump it whenever a change to them moves any trace,
/// so files persisted by an older build are never read as this build's.
/// `generator_version_pins_every_workloads_trace` fails until it moves.
pub(crate) const GENERATOR_VERSION: u32 = 1;

impl WorkloadSpec {
    /// Digest of everything that generates this workload's traces: the
    /// spec's `Debug` form (every field, the bytes
    /// [`crate::suite_digest`] hashes per spec) and
    /// [`GENERATOR_VERSION`]. The trace store keys its files by it.
    pub(crate) fn generator_digest(&self) -> u64 {
        let spec = bp_metrics::fnv1a(bp_metrics::FNV_OFFSET, format!("{self:?}").as_bytes());
        bp_metrics::fnv1a(spec, &GENERATOR_VERSION.to_le_bytes())
    }

    /// Deterministic structure seed derived from the workload name.
    fn structure_seed(&self) -> u64 {
        let mut h = SplitMix64::new(0xc0de);
        let mut acc = 0u64;
        for b in self.name.bytes() {
            acc = acc.rotate_left(8) ^ u64::from(b) ^ h.next();
        }
        acc
    }

    /// Deterministic data seed for one application input.
    #[must_use]
    pub fn input_seed(&self, input: u32) -> u64 {
        let mut h = SplitMix64::new(self.structure_seed() ^ (u64::from(input) << 32));
        h.next()
    }

    /// Lowers the spec into an executable program.
    ///
    /// The program structure depends only on the spec (not on any input),
    /// so static branch IPs are stable across inputs.
    #[must_use]
    pub fn program(&self) -> Program {
        let mut b = ProgramBuilder::new();
        let init = b.block();
        let head = b.block();
        let phase_dispatch = b.block();
        let tail = b.block();
        let halt = b.block();

        let seed = self.structure_seed();
        let mut e = Emitter::new(&mut b, seed);

        // Common segment, executed every iteration, ends at phase dispatch.
        let common_entry = emit_set(&mut e, &self.common, phase_dispatch);

        // Per-phase segments.
        let nphases = self.phases.max(1);
        let mut phase_entries = Vec::with_capacity(nphases as usize);
        for _ in 0..nphases {
            phase_entries.push(emit_set(&mut e, &self.per_phase, tail));
        }

        // init: X = constant, ZERO = 0 (registers already start at zero,
        // but make the intent explicit), then fall into the loop head.
        b.push(init, Op::MovI { dst: regs::X, imm: 0x9E37_79B9_7F4A_7C15 });
        b.push(init, Op::MovI { dst: regs::ZERO, imm: 0 });
        b.push(init, Op::MovI { dst: regs::ITER, imm: 0 });
        b.term(init, Terminator::Jmp(head));

        // head: advance iteration counter and LCG, run common segment.
        b.push(head, Op::AddI { dst: regs::ITER, a: regs::ITER, imm: 1 });
        b.push(head, Op::MulI { dst: regs::X, a: regs::X, imm: 6364136223846793005 });
        b.push(head, Op::AddI { dst: regs::X, a: regs::X, imm: 1442695040888963407 });
        b.term(head, Terminator::Jmp(common_entry));

        // phase_dispatch: PHASE = (ITER >> shift) % nphases, then switch.
        b.push(phase_dispatch, Op::ShrI { dst: regs::PHASE, a: regs::ITER, sh: self.phase_shift });
        b.push(phase_dispatch, Op::Rem { dst: regs::PHASE, a: regs::PHASE, m: u64::from(nphases) });
        b.term(phase_dispatch, Terminator::Switch { index: regs::PHASE, targets: phase_entries });

        // tail: a predictable never-taken exit check, then back to head.
        b.term(
            tail,
            Terminator::BrI {
                cond: Cond::Ge,
                a: regs::ITER,
                imm: u64::MAX / 2,
                taken: halt,
                fallthrough: head,
            },
        );
        b.term(halt, Terminator::Halt);

        b.finish(init, self.mem_words_log2)
    }

    /// Executes the workload for `len` instructions under application input
    /// `input`, producing a trace.
    ///
    /// # Panics
    ///
    /// Panics if `input >= self.inputs`.
    #[must_use]
    pub fn trace(&self, input: u32, len: usize) -> Trace {
        assert!(
            input < self.inputs,
            "input {input} out of range: {} declares {} inputs",
            self.name,
            self.inputs
        );
        let program = self.program();
        self.trace_with(&program, input, len)
    }

    /// Like [`WorkloadSpec::trace`] but reuses an already-lowered program,
    /// avoiding rebuild cost when tracing many inputs.
    #[must_use]
    pub fn trace_with(&self, program: &Program, input: u32, len: usize) -> Trace {
        Interpreter::new(program, self.input_seed(input)).run(
            len,
            TraceMeta::new(self.name.clone(), input),
        )
    }

    /// Like [`WorkloadSpec::trace`] but served from the process-wide
    /// [`crate::TraceStore`]: each `(workload, input, len)` trace is
    /// generated at most once per process, and at most once per machine when
    /// `BRANCH_LAB_TRACE_DIR` is set.
    ///
    /// # Panics
    ///
    /// Panics if `input >= self.inputs`.
    #[must_use]
    pub fn cached_trace(&self, input: u32, len: usize) -> std::sync::Arc<Trace> {
        crate::TraceStore::global().get(self, input, len)
    }
}

/// Emits all motifs of a set as one sequential chain ending at `next`,
/// returning the chain's entry block.
fn emit_set(e: &mut Emitter<'_>, set: &MotifSet, next: BlockId) -> BlockId {
    // Build in reverse so each motif can target the next one's entry.
    let mut target = next;
    for &tier in set.rare_tiers.iter().rev() {
        target = e.rare_tier(tier, target);
    }
    for &pct in set.data_dep_h2ps.iter().rev() {
        target = e.data_dep_h2p(pct, target);
    }
    for &vg in set.var_gap_h2ps.iter().rev() {
        target = e.var_gap_h2p(vg, target).0;
    }
    for _ in 0..set.correlated_pairs {
        // Vary the iteration bit inspected so pairs differ.
        let shift = 1 + (set.correlated_pairs % 5);
        target = e.correlated_pair(shift, target);
    }
    for &(outer, inner) in set.nested_imli.iter().rev() {
        target = e.nested_imli(outer, inner, target);
    }
    for &trip in set.fixed_loops.iter().rev() {
        target = e.fixed_loop(trip, target);
    }
    if set.constant_chain > 0 {
        target = e.constant_chain(set.constant_chain, target);
    }
    if set.pointer_chase_hops > 0 {
        target = e.pointer_chase(set.pointer_chase_hops, target);
    }
    target
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "tiny".into(),
            family: Family::SpecInt,
            inputs: 3,
            mem_words_log2: 12,
            phases: 2,
            phase_shift: 4,
            common: MotifSet {
                constant_chain: 2,
                data_dep_h2ps: vec![70],
                ..MotifSet::default()
            },
            per_phase: MotifSet {
                fixed_loops: vec![5],
                var_gap_h2ps: vec![VarGapSpec::default()],
                ..MotifSet::default()
            },
            default_trace_len: 10_000,
        }
    }

    #[test]
    fn program_structure_is_input_independent() {
        let spec = tiny_spec();
        let p1 = spec.program();
        let p2 = spec.program();
        assert_eq!(p1.blocks().len(), p2.blocks().len());
        assert_eq!(p1.static_cond_branch_count(), p2.static_cond_branch_count());
    }

    #[test]
    fn traces_differ_across_inputs_but_share_static_ips() {
        let spec = tiny_spec();
        let t0 = spec.trace(0, 5_000);
        let t1 = spec.trace(1, 5_000);
        let ips = |t: &Trace| {
            t.conditional_branches()
                .map(|b| b.ip)
                .collect::<std::collections::BTreeSet<_>>()
        };
        // Same static branch sites are reachable (phases aligned since
        // structure and iteration counts match).
        assert_eq!(ips(&t0), ips(&t1));
        // But the direction streams differ (different memory contents).
        let dirs = |t: &Trace| t.conditional_branches().map(|b| b.taken).collect::<Vec<_>>();
        assert_ne!(dirs(&t0), dirs(&t1));
    }

    #[test]
    fn trace_is_deterministic() {
        let spec = tiny_spec();
        let a = spec.trace(2, 4_000);
        let b = spec.trace(2, 4_000);
        assert_eq!(a.insts(), b.insts());
    }

    #[test]
    fn phases_change_executed_blocks() {
        let spec = tiny_spec();
        // Phase residence: 2^4 = 16 iterations. Trace enough for both
        // phases, then check that the sets of IPs in the first and second
        // residence windows differ (different per-phase code).
        let t = spec.trace(0, 20_000);
        let mut iter_boundaries = Vec::new();
        // The ITER increment is the first instruction of `head`; count its
        // occurrences to find iteration starts.
        // `head` starts with `ITER = ITER + 1` — the only instruction that
        // both reads and writes r1.
        let head_ip = t
            .iter()
            .find(|i| {
                i.dst.map(|r| r.index()) == Some(1) && i.src1.map(|r| r.index()) == Some(1)
            })
            .map(|i| i.ip)
            .unwrap();
        for (idx, inst) in t.iter().enumerate() {
            if inst.ip == head_ip {
                iter_boundaries.push(idx);
            }
        }
        assert!(iter_boundaries.len() > 40, "need at least 3 phase windows");
        let window_ips = |range: std::ops::Range<usize>| {
            let a = iter_boundaries[range.start];
            let b = iter_boundaries[range.end];
            t.insts()[a..b]
                .iter()
                .map(|i| i.ip)
                .collect::<std::collections::BTreeSet<_>>()
        };
        let w0 = window_ips(2..14); // inside phase 0
        let w1 = window_ips(18..30); // inside phase 1
        assert_ne!(w0, w1, "phases should execute different code");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_out_of_range_panics() {
        let spec = tiny_spec();
        let _ = spec.trace(99, 100);
    }

    /// `(GENERATOR_VERSION, digest of each workload's 2,000-record
    /// input-0 trace)`, in suite order. A generator change that moves a
    /// trace fails here until `GENERATOR_VERSION` moves with it; then
    /// re-pin both together.
    const PINNED: (u32, [(&str, u64); 15]) = (
        1,
        [
            ("600.perlbench_s", 0x8e45_f50c_3712_0c5e),
            ("605.mcf_s", 0x5f4c_9456_c746_d8bb),
            ("620.omnetpp_s", 0xb41f_24cd_8549_584e),
            ("623.xalancbmk_s", 0x38c0_99fa_7258_3fb0),
            ("625.x264_s", 0x6879_06c4_ecde_c445),
            ("631.deepsjeng_s", 0x4b80_e026_373d_c0c2),
            ("641.leela_s", 0x6317_2844_3c01_2dc1),
            ("648.exchange2_s", 0x7540_3dea_e696_c100),
            ("657.xz_s", 0xa63d_ba05_0f8e_2335),
            ("602.gcc_s", 0xe89a_197b_228e_c417),
            ("game", 0xe9a5_d3c1_ccfc_7b41),
            ("rdbms", 0x3501_1554_3674_b13e),
            ("nosql", 0x017b_0351_eeda_f22a),
            ("rt-analytics", 0x291d_7b59_23fb_e6fd),
            ("streaming", 0xc6b5_961e_a861_99c8),
        ],
    );

    #[test]
    fn generator_version_pins_every_workloads_trace() {
        let specs = crate::suite::specint_suite().into_iter().chain(crate::suite::lcf_suite());
        let digests: Vec<(String, u64)> = specs
            .map(|spec| {
                let trace = spec.trace(0, 2_000);
                let digest = trace.iter().fold(bp_metrics::FNV_OFFSET, |h, inst| {
                    bp_metrics::fnv1a(h, format!("{inst:?}").as_bytes())
                });
                (spec.name, digest)
            })
            .collect();
        let pinned: Vec<(String, u64)> =
            PINNED.1.iter().map(|&(name, digest)| (name.to_owned(), digest)).collect();
        assert_eq!((GENERATOR_VERSION, digests), (PINNED.0, pinned));
    }

    #[test]
    fn input_seeds_are_distinct() {
        let spec = tiny_spec();
        let seeds: std::collections::BTreeSet<_> =
            (0..spec.inputs).map(|i| spec.input_seed(i)).collect();
        assert_eq!(seeds.len(), spec.inputs as usize);
    }
}
