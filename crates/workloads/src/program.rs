//! Program intermediate representation and builder.
//!
//! A [`Program`] is a control-flow graph of [`Block`]s over the `bp-trace`
//! ISA. Workload generators build programs with [`ProgramBuilder`]; the
//! [`Interpreter`](crate::Interpreter) executes them to produce traces.

use std::fmt;

use bp_trace::{Cond, Reg};

/// Identifier of a basic block within a [`Program`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Index of the block in the program's block list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A straight-line (non-control-flow) instruction.
///
/// All arithmetic is wrapping. Memory operands address a word-indexed data
/// memory: the effective word index is `(regs[base] + offset)` masked into
/// the memory size, so any register value is a valid address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `dst = imm`
    MovI {
        /// Destination register.
        dst: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = a + b`
    Add {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a - b`
    Sub {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a * b` (multi-cycle in the timing model)
    Mul {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a ^ b`
    Xor {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a & b`
    And {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a | b`
    Or {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// `dst = a + imm`
    AddI {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = a * imm` (multi-cycle)
    MulI {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = a & imm`
    AndI {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Immediate operand.
        imm: u64,
    },
    /// `dst = a % m`
    ///
    /// `m` must be non-zero (validated at build time by
    /// [`ProgramBuilder::push`]).
    Rem {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Modulus (non-zero).
        m: u64,
    },
    /// `dst = a >> sh`
    ShrI {
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Shift amount in bits.
        sh: u32,
    },
    /// `dst = mem[(a + offset) mod memsize]`
    Load {
        /// Destination register.
        dst: Reg,
        /// Base-address register.
        base: Reg,
        /// Word offset added to the base register.
        offset: u64,
    },
    /// `mem[(base + offset) mod memsize] = src`
    Store {
        /// Register whose value is stored.
        src: Reg,
        /// Base-address register.
        base: Reg,
        /// Word offset added to the base register.
        offset: u64,
    },
    /// No operation (pipeline filler).
    Nop,
}

impl Op {
    /// Registers read by this operation (up to two).
    #[must_use]
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Op::MovI { .. } | Op::Nop => (None, None),
            Op::Add { a, b, .. }
            | Op::Sub { a, b, .. }
            | Op::Mul { a, b, .. }
            | Op::Xor { a, b, .. }
            | Op::And { a, b, .. }
            | Op::Or { a, b, .. } => (Some(a), Some(b)),
            Op::AddI { a, .. }
            | Op::MulI { a, .. }
            | Op::AndI { a, .. }
            | Op::Rem { a, .. }
            | Op::ShrI { a, .. }
            | Op::Load { base: a, .. } => (Some(a), None),
            Op::Store { src, base, .. } => (Some(src), Some(base)),
        }
    }

    /// Register written by this operation, if any.
    #[must_use]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Op::MovI { dst, .. }
            | Op::Add { dst, .. }
            | Op::Sub { dst, .. }
            | Op::Mul { dst, .. }
            | Op::Xor { dst, .. }
            | Op::And { dst, .. }
            | Op::Or { dst, .. }
            | Op::AddI { dst, .. }
            | Op::MulI { dst, .. }
            | Op::AndI { dst, .. }
            | Op::Rem { dst, .. }
            | Op::ShrI { dst, .. }
            | Op::Load { dst, .. } => Some(dst),
            Op::Store { .. } | Op::Nop => None,
        }
    }
}

/// Block terminator — the control-flow instruction ending a basic block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Conditional branch comparing two registers.
    Br {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when it does not.
        fallthrough: BlockId,
    },
    /// Conditional branch comparing a register with an immediate.
    BrI {
        /// Comparison condition.
        cond: Cond,
        /// Left operand register.
        a: Reg,
        /// Right immediate operand.
        imm: u64,
        /// Target when the condition holds.
        taken: BlockId,
        /// Target when it does not.
        fallthrough: BlockId,
    },
    /// Unconditional direct jump.
    Jmp(BlockId),
    /// Indirect jump through a table: the target is
    /// `targets[index mod targets.len()]`.
    Switch {
        /// Register holding the selector value.
        index: Reg,
        /// Jump-table targets (must be non-empty).
        targets: Vec<BlockId>,
    },
    /// Direct call: jumps to `callee`, pushing `ret_to` on the call stack.
    Call {
        /// Entry block of the callee.
        callee: BlockId,
        /// Block to return to on `Ret`.
        ret_to: BlockId,
    },
    /// Return to the most recent `Call`'s `ret_to` block. Halts the machine
    /// if the call stack is empty.
    Ret,
    /// Stop execution.
    Halt,
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Straight-line instructions, executed in order.
    pub insts: Vec<Op>,
    /// The terminating control-flow instruction.
    pub term: Terminator,
}

/// An executable synthetic program.
///
/// Create programs through [`ProgramBuilder`]; the builder validates block
/// references and computes instruction addresses.
///
/// # Examples
///
/// ```
/// use bp_workloads::{ProgramBuilder, Op, Terminator};
/// use bp_trace::{Cond, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let entry = b.block();
/// let exit = b.block();
/// b.push(entry, Op::MovI { dst: Reg::new(1), imm: 3 });
/// b.term(entry, Terminator::BrI {
///     cond: Cond::Eq,
///     a: Reg::new(1),
///     imm: 3,
///     taken: exit,
///     fallthrough: exit,
/// });
/// b.term(exit, Terminator::Halt);
/// let program = b.finish(entry, 12);
/// assert_eq!(program.blocks().len(), 2);
/// assert!(program.static_cond_branch_count() == 1);
/// ```
#[derive(Clone, Debug)]
pub struct Program {
    blocks: Vec<Block>,
    addrs: Vec<u64>,
    entry: BlockId,
    mem_words_log2: u32,
    annotations: Vec<(BlockId, String)>,
}

/// Byte distance between consecutive instruction addresses.
pub const INST_BYTES: u64 = 4;

/// Base address of the first block.
pub const CODE_BASE: u64 = 0x0040_0000;

impl Program {
    /// All blocks, indexable by [`BlockId::index`].
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block executed first.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Base address of a block's first instruction.
    #[must_use]
    pub fn block_addr(&self, id: BlockId) -> u64 {
        self.addrs[id.index()]
    }

    /// Address of the terminator instruction of a block.
    #[must_use]
    pub fn term_addr(&self, id: BlockId) -> u64 {
        self.addrs[id.index()] + INST_BYTES * self.blocks[id.index()].insts.len() as u64
    }

    /// log2 of the data-memory size in 64-bit words.
    #[must_use]
    pub fn mem_words_log2(&self) -> u32 {
        self.mem_words_log2
    }

    /// Number of static conditional-branch sites in the program.
    #[must_use]
    pub fn static_cond_branch_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.term, Terminator::Br { .. } | Terminator::BrI { .. }))
            .count()
    }

    /// Total number of static instructions (including terminators).
    #[must_use]
    pub fn static_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len() + 1).sum()
    }

    /// Ground-truth annotations attached by generators: `(terminator IP,
    /// label)` pairs, e.g. the planted variable-gap H2P branch sites.
    pub fn annotated_ips(&self) -> impl Iterator<Item = (u64, &str)> + '_ {
        self.annotations
            .iter()
            .map(|(b, l)| (self.term_addr(*b), l.as_str()))
    }
}

/// Incremental builder for [`Program`]s.
///
/// Blocks are allocated first (so they can reference each other), then
/// filled with instructions and terminated. [`ProgramBuilder::finish`]
/// validates that every block has a terminator and that all referenced
/// blocks exist.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Vec<Op>>,
    terms: Vec<Option<Terminator>>,
    annotations: Vec<(BlockId, String)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a new, empty block and returns its id.
    pub fn block(&mut self) -> BlockId {
        let id = BlockId(u32::try_from(self.insts.len()).expect("too many blocks"));
        self.insts.push(Vec::new());
        self.terms.push(None);
        id
    }

    /// Appends an instruction to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block is unknown, or if the instruction is invalid
    /// (currently: `Rem` with a zero modulus, which would trap at run time).
    pub fn push(&mut self, block: BlockId, op: Op) {
        if let Op::Rem { m, .. } = op {
            assert!(m != 0, "Rem modulus must be non-zero");
        }
        self.insts[block.index()].push(op);
    }

    /// Attaches a ground-truth label to `block`'s terminator (e.g.
    /// `"vg-h2p"` for a planted variable-gap H2P branch).
    pub fn annotate(&mut self, block: BlockId, label: impl Into<String>) {
        self.annotations.push((block, label.into()));
    }

    /// Sets the terminator of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block already has a terminator or a `Switch` has an
    /// empty target table.
    pub fn term(&mut self, block: BlockId, term: Terminator) {
        if let Terminator::Switch { targets, .. } = &term {
            assert!(!targets.is_empty(), "Switch must have at least one target");
        }
        let slot = &mut self.terms[block.index()];
        assert!(slot.is_none(), "block {block} already terminated");
        *slot = Some(term);
    }

    /// Number of blocks allocated so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no blocks have been allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finalizes the program, computing block addresses.
    ///
    /// `mem_words_log2` sets the data-memory size to `2^mem_words_log2`
    /// 64-bit words.
    ///
    /// # Panics
    ///
    /// Panics if a block has no terminator, a terminator references an
    /// unknown block, or `mem_words_log2` is outside `4..=28`.
    #[must_use]
    pub fn finish(self, entry: BlockId, mem_words_log2: u32) -> Program {
        assert!(
            (4..=28).contains(&mem_words_log2),
            "mem_words_log2 {mem_words_log2} outside supported range 4..=28"
        );
        let n = self.insts.len();
        let check = |id: BlockId| {
            assert!(
                id.index() < n,
                "terminator references unknown block {id}"
            );
        };
        check(entry);
        let mut blocks = Vec::with_capacity(n);
        for (i, (insts, term)) in self.insts.into_iter().zip(self.terms).enumerate() {
            let term = term.unwrap_or_else(|| panic!("block bb{i} has no terminator"));
            match &term {
                Terminator::Br { taken, fallthrough, .. }
                | Terminator::BrI { taken, fallthrough, .. } => {
                    check(*taken);
                    check(*fallthrough);
                }
                Terminator::Jmp(t) => check(*t),
                Terminator::Switch { targets, .. } => targets.iter().copied().for_each(check),
                Terminator::Call { callee, ret_to } => {
                    check(*callee);
                    check(*ret_to);
                }
                Terminator::Ret | Terminator::Halt => {}
            }
            blocks.push(Block { insts, term });
        }
        let mut addrs = Vec::with_capacity(n);
        let mut addr = CODE_BASE;
        for b in &blocks {
            addrs.push(addr);
            addr += INST_BYTES * (b.insts.len() as u64 + 1);
        }
        Program {
            blocks,
            addrs,
            entry,
            mem_words_log2,
            annotations: self.annotations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_program() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let x = b.block();
        b.push(e, Op::MovI { dst: Reg::new(0), imm: 1 });
        b.push(e, Op::AddI { dst: Reg::new(0), a: Reg::new(0), imm: 2 });
        b.term(e, Terminator::Jmp(x));
        b.term(x, Terminator::Halt);
        b.finish(e, 10)
    }

    #[test]
    fn addresses_are_sequential() {
        let p = two_block_program();
        assert_eq!(p.block_addr(BlockId(0)), CODE_BASE);
        assert_eq!(p.term_addr(BlockId(0)), CODE_BASE + 2 * INST_BYTES);
        assert_eq!(p.block_addr(BlockId(1)), CODE_BASE + 3 * INST_BYTES);
        assert_eq!(p.static_inst_count(), 4);
    }

    #[test]
    fn sources_and_dest() {
        let op = Op::Store {
            src: Reg::new(1),
            base: Reg::new(2),
            offset: 4,
        };
        assert_eq!(op.sources(), (Some(Reg::new(1)), Some(Reg::new(2))));
        assert_eq!(op.dest(), None);
        let op = Op::Load {
            dst: Reg::new(3),
            base: Reg::new(4),
            offset: 0,
        };
        assert_eq!(op.dest(), Some(Reg::new(3)));
    }

    #[test]
    fn cond_branch_count() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let t = b.block();
        b.term(
            e,
            Terminator::Br {
                cond: Cond::Lt,
                a: Reg::new(0),
                b: Reg::new(1),
                taken: t,
                fallthrough: t,
            },
        );
        b.term(t, Terminator::Halt);
        let p = b.finish(e, 8);
        assert_eq!(p.static_cond_branch_count(), 1);
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn missing_terminator_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let _ = b.finish(e, 8);
    }

    #[test]
    #[should_panic(expected = "unknown block")]
    fn dangling_reference_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.term(e, Terminator::Jmp(BlockId(99)));
        let _ = b.finish(e, 8);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminator_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.term(e, Terminator::Halt);
        b.term(e, Terminator::Halt);
    }

    #[test]
    #[should_panic(expected = "modulus")]
    fn zero_rem_panics() {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        b.push(e, Op::Rem { dst: Reg::new(0), a: Reg::new(0), m: 0 });
    }
}
