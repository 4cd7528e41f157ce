//! Program disassembly — human-readable listings of generated programs,
//! for debugging workload generators and documenting planted behaviours.

use std::fmt;

use crate::program::{Block, BlockId, Op, Program, Terminator};

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Op::MovI { dst, imm } => write!(f, "movi  {dst}, {imm:#x}"),
            Op::Add { dst, a, b } => write!(f, "add   {dst}, {a}, {b}"),
            Op::Sub { dst, a, b } => write!(f, "sub   {dst}, {a}, {b}"),
            Op::Mul { dst, a, b } => write!(f, "mul   {dst}, {a}, {b}"),
            Op::Xor { dst, a, b } => write!(f, "xor   {dst}, {a}, {b}"),
            Op::And { dst, a, b } => write!(f, "and   {dst}, {a}, {b}"),
            Op::Or { dst, a, b } => write!(f, "or    {dst}, {a}, {b}"),
            Op::AddI { dst, a, imm } => write!(f, "addi  {dst}, {a}, {imm:#x}"),
            Op::MulI { dst, a, imm } => write!(f, "muli  {dst}, {a}, {imm:#x}"),
            Op::AndI { dst, a, imm } => write!(f, "andi  {dst}, {a}, {imm:#x}"),
            Op::Rem { dst, a, m } => write!(f, "rem   {dst}, {a}, {m}"),
            Op::ShrI { dst, a, sh } => write!(f, "shri  {dst}, {a}, {sh}"),
            Op::Load { dst, base, offset } => write!(f, "load  {dst}, [{base}+{offset:#x}]"),
            Op::Store { src, base, offset } => write!(f, "store [{base}+{offset:#x}], {src}"),
            Op::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Br { cond, a, b, taken, fallthrough } => {
                write!(f, "br.{cond} {a}, {b} -> {taken} else {fallthrough}")
            }
            Terminator::BrI { cond, a, imm, taken, fallthrough } => {
                write!(f, "br.{cond} {a}, {imm} -> {taken} else {fallthrough}")
            }
            Terminator::Jmp(t) => write!(f, "jmp   {t}"),
            Terminator::Switch { index, targets } => {
                write!(f, "switch {index} over {} targets", targets.len())
            }
            Terminator::Call { callee, ret_to } => write!(f, "call  {callee} ret {ret_to}"),
            Terminator::Ret => f.write_str("ret"),
            Terminator::Halt => f.write_str("halt"),
        }
    }
}

impl Program {
    /// Disassembles one block with addresses and any annotations.
    #[must_use]
    pub fn disasm_block(&self, id: BlockId) -> String {
        use std::fmt::Write as _;
        let block: &Block = &self.blocks()[id.index()];
        let mut out = String::new();
        let labels: Vec<&str> = self
            .annotated_ips()
            .filter(|&(ip, _)| ip == self.term_addr(id))
            .map(|(_, l)| l)
            .collect();
        let _ = write!(out, "{id}:");
        if !labels.is_empty() {
            let _ = write!(out, "    ; {}", labels.join(", "));
        }
        out.push('\n');
        let base = self.block_addr(id);
        for (i, op) in block.insts.iter().enumerate() {
            let _ = writeln!(out, "  {:#08x}  {op}", base + 4 * i as u64);
        }
        let _ = writeln!(out, "  {:#08x}  {}", self.term_addr(id), block.term);
        out
    }

    /// Disassembles the whole program.
    #[must_use]
    pub fn disasm(&self) -> String {
        (0..self.blocks().len())
            .map(|i| self.disasm_block(BlockId::new_for_disasm(i)))
            .collect()
    }
}

impl BlockId {
    /// Internal helper for iteration in [`Program::disasm`].
    fn new_for_disasm(i: usize) -> Self {
        BlockId(u32::try_from(i).expect("block count fits u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use bp_trace::{Cond, Reg};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let e = b.block();
        let x = b.block();
        b.push(e, Op::MovI { dst: Reg::new(1), imm: 16 });
        b.push(e, Op::Load { dst: Reg::new(2), base: Reg::new(1), offset: 8 });
        b.term(
            e,
            Terminator::BrI {
                cond: Cond::Lt,
                a: Reg::new(2),
                imm: 50,
                taken: x,
                fallthrough: x,
            },
        );
        b.annotate(e, "dd-h2p");
        b.term(x, Terminator::Halt);
        b.finish(e, 8)
    }

    #[test]
    fn disasm_contains_addresses_ops_and_annotations() {
        let p = sample();
        let text = p.disasm();
        assert!(text.contains("bb0:"), "{text}");
        assert!(text.contains("; dd-h2p"), "{text}");
        assert!(text.contains("movi  r1, 0x10"), "{text}");
        assert!(text.contains("load  r2, [r1+0x8]"), "{text}");
        assert!(text.contains("br.lt r2, 50 -> bb1 else bb1"), "{text}");
        assert!(text.contains("halt"), "{text}");
    }

    #[test]
    fn suite_programs_disassemble() {
        let spec = &crate::suite::specint_suite()[1];
        let p = spec.program();
        let text = p.disasm();
        // One line per instruction and terminator, plus block labels.
        let insts: usize = p.blocks().iter().map(|b| b.insts.len() + 1).sum();
        assert!(text.lines().count() > insts);
        assert!(text.contains("switch"));
        assert!(text.contains("; vg-h2p"));
    }

    #[test]
    fn op_display_roundtrips_visually() {
        let op = Op::Store { src: Reg::new(3), base: Reg::new(4), offset: 24 };
        assert_eq!(op.to_string(), "store [r4+0x18], r3");
        assert_eq!(Terminator::Ret.to_string(), "ret");
    }
}
