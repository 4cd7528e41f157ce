//! Operand dependency-graph analysis (§IV-A, Table III, Fig. 6).
//!
//! For every dynamic execution of an H2P branch, the paper computes the
//! operand dependency graph over the prior 5,000 instructions — linking
//! instructions through register and memory read/write chains — and
//! identifies *dependency branches*: earlier conditional branches that
//! read a value also read when computing the H2P's condition. The
//! distribution of those branches' global-history positions shows the
//! position instability that defeats exact pattern matching.

use std::collections::HashMap;

use bp_trace::{Trace, NUM_REGS};

/// How far back (in instructions) the dependency graph extends; the paper
/// uses 5,000.
pub const DEFAULT_WINDOW: usize = 5_000;

/// Aggregated dependency-branch statistics for one H2P (Table III row +
/// Fig. 6 panel).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DepBranchReport {
    /// `(dependency branch IP, history position) -> occurrences`. The
    /// history position is the number of conditional branches between the
    /// dependency branch and the H2P, i.e. its age in global history as
    /// the BPU sees it.
    pub occurrences: HashMap<(u64, usize), u64>,
    /// Dynamic H2P executions analyzed.
    pub executions: u64,
}

impl DepBranchReport {
    /// Number of distinct dependency-branch IPs (Table III "Dep.
    /// Branches").
    #[must_use]
    pub fn dep_branch_count(&self) -> usize {
        let mut ips: Vec<u64> = self.occurrences.keys().map(|&(ip, _)| ip).collect();
        ips.sort_unstable();
        ips.dedup();
        ips.len()
    }

    /// Minimum observed history position (Table III "Min Hist Pos").
    #[must_use]
    pub fn min_position(&self) -> Option<usize> {
        self.occurrences.keys().map(|&(_, p)| p).min()
    }

    /// Maximum observed history position (Table III "Max Hist Pos").
    #[must_use]
    pub fn max_position(&self) -> Option<usize> {
        self.occurrences.keys().map(|&(_, p)| p).max()
    }
}

/// Dependency analysis over one trace.
///
/// Builds producer links (which instruction wrote each value read) in one
/// forward pass, then answers per-H2P queries by walking the dataflow
/// graph backwards within the window.
///
/// # Examples
///
/// ```
/// use bp_analysis::DependencyAnalysis;
/// use bp_workloads::specint_suite;
///
/// let spec = &specint_suite()[1]; // mcf-like: H2P-rich
/// let trace = spec.trace(0, 30_000);
/// let dep = DependencyAnalysis::new(&trace);
/// // Analyze the most-executed conditional branch.
/// let mut counts = std::collections::HashMap::new();
/// for b in trace.conditional_branches() {
///     *counts.entry(b.ip).or_insert(0u64) += 1;
/// }
/// let (&ip, _) = counts.iter().max_by_key(|(_, &c)| c).unwrap();
/// let report = dep.analyze(&trace, ip, 5_000, 256);
/// assert!(report.executions > 0);
/// ```
#[derive(Clone, Debug)]
pub struct DependencyAnalysis {
    /// For each instruction, the indices of the instructions that produced
    /// its register/memory inputs (`usize::MAX` = no producer in trace).
    producers: Vec<[usize; 2]>,
    /// Memory producer for loads (index of the producing store).
    mem_producers: Vec<usize>,
    /// Conditional-branch ordinal per instruction index (how many
    /// conditional branches retired strictly before it).
    branch_ordinal: Vec<u32>,
    /// Instruction index of each conditional branch, in trace order, so
    /// a window's branches are one contiguous run.
    branch_index: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl DependencyAnalysis {
    /// Preprocesses `trace` for dependency queries.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        let n = trace.len();
        let mut producers = vec![[NONE, NONE]; n];
        let mut mem_producers = vec![NONE; n];
        let mut branch_ordinal = vec![0u32; n];
        let mut branch_index = Vec::new();
        let mut last_reg_writer = [NONE; NUM_REGS];
        let mut last_mem_writer: HashMap<u64, usize> = HashMap::new();
        let mut ord = 0u32;
        for (i, inst) in trace.iter().enumerate() {
            branch_ordinal[i] = ord;
            if inst.is_conditional_branch() {
                ord += 1;
                branch_index.push(i);
            }
            if let Some(r) = inst.src1 {
                producers[i][0] = last_reg_writer[r.index()];
            }
            if let Some(r) = inst.src2 {
                producers[i][1] = last_reg_writer[r.index()];
            }
            match inst.class {
                bp_trace::InstClass::Load => {
                    if let Some(&w) = last_mem_writer.get(&inst.mem_addr) {
                        mem_producers[i] = w;
                    }
                }
                bp_trace::InstClass::Store => {
                    last_mem_writer.insert(inst.mem_addr, i);
                }
                _ => {}
            }
            if let Some(r) = inst.dst {
                last_reg_writer[r.index()] = i;
            }
        }
        DependencyAnalysis {
            producers,
            mem_producers,
            branch_ordinal,
            branch_index,
        }
    }

    /// The producers of instruction `p`'s inputs: its two register
    /// sources, then its memory source (`NONE` where absent).
    fn inputs(&self, p: usize) -> [usize; 3] {
        let [a, b] = self.producers[p];
        [a, b, self.mem_producers[p]]
    }

    /// Walks the dependency graph backwards from instruction `root`,
    /// collecting the producer-closure within `window` instructions, then
    /// scans the window's conditional branches for dependency branches.
    fn analyze_execution(
        &self,
        trace: &Trace,
        root: usize,
        window: usize,
        max_nodes: usize,
        scratch: &mut Scratch,
        report: &mut DepBranchReport,
    ) {
        let lo = root.saturating_sub(window);
        // Closure of producer indices feeding the root's condition: the
        // instructions stamped with this execution's epoch.
        let Scratch { closure, walk, .. } = scratch;
        let epoch = closure.next_epoch();
        let mut closure_len = 0usize;
        // The closure's earliest instruction: a branch at or before it
        // has no ancestor in the closure, since producers precede their
        // consumers.
        let mut closure_min = usize::MAX;
        walk.clear();
        walk.extend(self.producers[root].iter().copied().filter(|&p| p != NONE && p >= lo));
        while let Some(p) = walk.pop() {
            if closure_len >= max_nodes {
                break;
            }
            if closure.stamps[p] == epoch {
                continue;
            }
            closure.stamps[p] = epoch;
            closure_len += 1;
            closure_min = closure_min.min(p);
            for q in self.inputs(p) {
                if q != NONE && q >= lo && closure.stamps[q] != epoch {
                    walk.push(q);
                }
            }
        }
        // A conditional branch in the window is a dependency branch when
        // its own backward slice reaches a value also read when computing
        // the H2P's condition. We chase each branch's producers a bounded
        // number of hops and test membership in the root closure.
        let root_ord = self.branch_ordinal[root];
        let window_branches = self.branch_ordinal[lo] as usize..root_ord as usize;
        for &idx in &self.branch_index[window_branches] {
            if idx > closure_min && self.reaches_closure(idx, lo, epoch, scratch) {
                // History position: 1 = the branch immediately before.
                let pos = (root_ord - self.branch_ordinal[idx]) as usize;
                *report.occurrences.entry((trace.insts()[idx].ip, pos)).or_default() += 1;
            }
        }
    }

    /// Bounded backward search from `start`'s operands: true when any
    /// ancestor within the hop/node budget belongs to the closure stamped
    /// with `epoch`.
    fn reaches_closure(&self, start: usize, lo: usize, epoch: u32, scratch: &mut Scratch) -> bool {
        const MAX_NODES: usize = 48;
        let visit = scratch.visited.next_epoch();
        let Scratch { closure, visited, search, .. } = scratch;
        search.clear();
        search.extend(self.producers[start].iter().copied().filter(|&p| p != NONE && p >= lo));
        let mut seen = 0usize;
        while let Some(p) = search.pop() {
            if closure.stamps[p] == epoch {
                return true;
            }
            if seen >= MAX_NODES || visited.stamps[p] == visit {
                continue;
            }
            visited.stamps[p] = visit;
            seen += 1;
            for q in self.inputs(p) {
                if q != NONE && q >= lo {
                    search.push(q);
                }
            }
        }
        false
    }

    /// Analyzes every dynamic execution of `h2p_ip` in `trace`.
    ///
    /// `window` is the lookback in instructions (the paper: 5,000);
    /// `max_nodes` caps the closure size per execution for bounded cost.
    #[must_use]
    pub fn analyze(
        &self,
        trace: &Trace,
        h2p_ip: u64,
        window: usize,
        max_nodes: usize,
    ) -> DepBranchReport {
        let mut report = DepBranchReport::default();
        let mut scratch = Scratch::new(self.producers.len());
        for br in trace.conditional_branches() {
            if br.ip == h2p_ip {
                report.executions += 1;
                self.analyze_execution(trace, br.index, window, max_nodes, &mut scratch, &mut report);
            }
        }
        report
    }
}

/// Search state reused across the executions of one
/// [`DependencyAnalysis::analyze`] call: the root closure and each
/// branch's bounded search keep their membership as epoch stamps per
/// instruction (a new epoch empties a set without touching memory), and
/// the two walks reuse their stacks.
struct Scratch {
    /// The current execution's producer closure.
    closure: Stamps,
    /// The instructions the current bounded search has visited.
    visited: Stamps,
    /// The closure walk's stack.
    walk: Vec<usize>,
    /// The bounded search's stack.
    search: Vec<usize>,
}

impl Scratch {
    fn new(len: usize) -> Self {
        Scratch {
            closure: Stamps::new(len),
            visited: Stamps::new(len),
            walk: Vec::new(),
            search: Vec::new(),
        }
    }
}

/// A set of instruction indices as epoch stamps: `i` is a member iff
/// `stamps[i] == epoch`.
struct Stamps {
    stamps: Vec<u32>,
    epoch: u32,
}

impl Stamps {
    fn new(len: usize) -> Self {
        Stamps { stamps: vec![0; len], epoch: 0 }
    }

    /// Empties the set and returns its new epoch.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: clear stale stamps so no old set aliases.
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_trace::{InstClass, Reg, RetiredInst, TraceMeta};

    /// Builds: D branches on r1; noise branch on r9; H2P branches on r2
    /// where r2 = r1 | r31 — so D is a dependency branch and noise is not.
    fn dependency_trace(gap_noise: usize) -> (Trace, u64, u64, u64) {
        let mut t = Trace::new(TraceMeta::new("dep", 0));
        let d_ip = 0x100;
        let noise_ip = 0x200;
        let h2p_ip = 0x300;
        for lap in 0..20u64 {
            // r1 = lap (fresh value each lap).
            t.push(RetiredInst::op(
                0x50,
                InstClass::Alu,
                None,
                None,
                Some(Reg::new(1)),
                lap,
            ));
            // D reads r1.
            t.push(RetiredInst::cond_branch(d_ip, lap % 2 == 0, 0, Some(1), None));
            // Noise branches read r9, which is written from r8 (unrelated).
            for k in 0..gap_noise as u64 {
                t.push(RetiredInst::op(
                    0x60,
                    InstClass::Alu,
                    Some(Reg::new(8)),
                    None,
                    Some(Reg::new(9)),
                    k,
                ));
                t.push(RetiredInst::cond_branch(noise_ip, k % 2 == 0, 0, Some(9), None));
            }
            // r2 = r1 (copy through an ALU op).
            t.push(RetiredInst::op(
                0x70,
                InstClass::Alu,
                Some(Reg::new(1)),
                None,
                Some(Reg::new(2)),
                lap,
            ));
            // H2P reads r2.
            t.push(RetiredInst::cond_branch(h2p_ip, lap % 2 == 0, 0, Some(2), None));
        }
        (t, d_ip, noise_ip, h2p_ip)
    }

    #[test]
    fn finds_the_dependency_branch() {
        let (t, d_ip, noise_ip, h2p_ip) = dependency_trace(3);
        let dep = DependencyAnalysis::new(&t);
        let r = dep.analyze(&t, h2p_ip, 1_000, 128);
        assert_eq!(r.executions, 20);
        let dep_ips: Vec<u64> = {
            let mut v: Vec<u64> = r.occurrences.keys().map(|&(ip, _)| ip).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert!(dep_ips.contains(&d_ip), "D must be found: {dep_ips:?}");
        assert!(
            !dep_ips.contains(&noise_ip),
            "noise must not be a dependency branch"
        );
    }

    #[test]
    fn history_position_reflects_gap() {
        // With 3 noise branches between D and the H2P, D sits at history
        // position 4 (noise at 1..3).
        let (t, d_ip, _, h2p_ip) = dependency_trace(3);
        let dep = DependencyAnalysis::new(&t);
        let r = dep.analyze(&t, h2p_ip, 1_000, 128);
        let positions: Vec<usize> = r
            .occurrences
            .keys()
            .filter(|&&(ip, _)| ip == d_ip)
            .map(|&(_, p)| p)
            .collect();
        assert!(positions.contains(&4), "positions {positions:?}");
    }

    #[test]
    fn variable_gap_spreads_positions() {
        // Interleave laps with different gaps by concatenating two traces'
        // worth of records at the same IPs.
        let (mut t, d_ip, _, h2p_ip) = dependency_trace(2);
        let (t2, _, _, _) = dependency_trace(5);
        t.extend(t2.iter().copied());
        let dep = DependencyAnalysis::new(&t);
        let r = dep.analyze(&t, h2p_ip, 1_000, 128);
        assert!(
            r.occurrences.keys().filter(|&&(ip, _)| ip == d_ip).count() >= 2,
            "D should appear at multiple history positions"
        );
        assert!(r.min_position().unwrap() < r.max_position().unwrap());
    }

    #[test]
    fn window_limits_lookback() {
        let (t, _, _, h2p_ip) = dependency_trace(3);
        let dep = DependencyAnalysis::new(&t);
        // Window of 1 instruction: the producer copy (r2 = r1) is 1 back,
        // D is further; nothing should be found.
        let r = dep.analyze(&t, h2p_ip, 1, 128);
        assert_eq!(r.dep_branch_count(), 0);
    }

    #[test]
    fn closure_epochs_survive_wrapping() {
        // Start the epoch counter just short of wrapping: the stamps
        // must be cleared on the wrap so no earlier closure leaks into
        // a later execution's membership tests.
        let (t, _, _, h2p_ip) = dependency_trace(3);
        let dep = DependencyAnalysis::new(&t);
        let expected = dep.analyze(&t, h2p_ip, 1_000, 128);
        let mut scratch = Scratch::new(t.len());
        scratch.closure.epoch = u32::MAX - 3;
        scratch.visited.epoch = u32::MAX - 50;
        let mut report = DepBranchReport::default();
        for br in t.conditional_branches().filter(|b| b.ip == h2p_ip) {
            report.executions += 1;
            dep.analyze_execution(&t, br.index, 1_000, 128, &mut scratch, &mut report);
        }
        assert!(scratch.closure.epoch < 20, "the closure counter wrapped");
        assert!(scratch.visited.epoch < u32::MAX - 50, "the search counter wrapped");
        assert_eq!(report, expected);
    }

    #[test]
    fn memory_chains_are_followed() {
        // store r1 -> mem[8]; load mem[8] -> r3; H2P reads r3. D reads r1.
        let mut t = Trace::new(TraceMeta::new("mem", 0));
        for lap in 0..5u64 {
            t.push(RetiredInst::op(0x10, InstClass::Alu, None, None, Some(Reg::new(1)), lap));
            t.push(RetiredInst::cond_branch(0x20, true, 0, Some(1), None));
            t.push(RetiredInst::mem(
                0x30,
                InstClass::Store,
                64,
                Some(Reg::new(1)),
                None,
                None,
                lap,
            ));
            t.push(RetiredInst::mem(
                0x40,
                InstClass::Load,
                64,
                None,
                None,
                Some(Reg::new(3)),
                lap,
            ));
            t.push(RetiredInst::cond_branch(0x50, true, 0, Some(3), None));
        }
        let dep = DependencyAnalysis::new(&t);
        let r = dep.analyze(&t, 0x50, 100, 64);
        let found: Vec<u64> = {
            let mut v: Vec<u64> = r.occurrences.keys().map(|&(ip, _)| ip).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert!(found.contains(&0x20), "store/load chain must link D: {found:?}");
    }
}
