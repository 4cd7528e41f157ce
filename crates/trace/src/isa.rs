//! Instruction-set definitions shared by the workload interpreter, the
//! pipeline timing model, and the analyses.

use std::fmt;

/// Number of architectural registers in the synthetic ISA.
pub const NUM_REGS: usize = 32;

/// An architectural register identifier (`r0` .. `r31`).
///
/// `r0` is a normal, writable register (unlike MIPS) so that workload
/// generators do not need to special-case it.
///
/// # Examples
///
/// ```
/// use bp_trace::Reg;
/// let r = Reg::new(7);
/// assert_eq!(r.index(), 7);
/// assert_eq!(r.to_string(), "r7");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

impl Reg {
    /// Creates a register identifier.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_REGS` ("register index out of range").
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!((index as usize) < NUM_REGS, "register index out of range");
        Reg(index)
    }

    /// Returns the register index in `0..NUM_REGS`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Comparison condition for conditional branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Branch if equal.
    Eq,
    /// Branch if not equal.
    Ne,
    /// Branch if less than (signed).
    Lt,
    /// Branch if greater than or equal (signed).
    Ge,
}

impl Cond {
    /// Evaluates the condition on two operand values (interpreted as signed
    /// for the ordered comparisons, matching the interpreter).
    #[must_use]
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Coarse instruction class used by the timing model to pick latencies and
/// by the analyses to find loads, stores, and branches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Single-cycle integer ALU operation.
    Alu,
    /// Multi-cycle integer multiply.
    Mul,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Any control-flow instruction; see [`BranchKind`].
    Branch,
    /// No-op / filler instruction.
    Nop,
}

impl InstClass {
    /// True for memory instructions (loads and stores).
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, InstClass::Load | InstClass::Store)
    }
}

impl fmt::Display for InstClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstClass::Alu => "alu",
            InstClass::Mul => "mul",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Control-flow instruction subtypes, mirroring the branch classes exposed
/// to CBP2016-style predictors (instruction type is a standardized BPU
/// input in the paper's §II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch — the only kind predictors must predict a
    /// direction for.
    Conditional,
    /// Unconditional direct jump.
    DirectJump,
    /// Unconditional indirect jump (target from a register).
    IndirectJump,
    /// Direct function call.
    Call,
    /// Function return (indirect).
    Return,
}

impl BranchKind {
    /// True if the branch has a predictable direction (conditional).
    #[must_use]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Conditional => "cond",
            BranchKind::DirectJump => "jmp",
            BranchKind::IndirectJump => "ijmp",
            BranchKind::Call => "call",
            BranchKind::Return => "ret",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip_and_display() {
        for i in 0..NUM_REGS as u8 {
            let r = Reg::new(i);
            assert_eq!(r.index(), i as usize);
            assert_eq!(r.to_string(), format!("r{i}"));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        let _ = Reg::new(NUM_REGS as u8);
    }

    #[test]
    fn cond_eval_matches_semantics() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(!Cond::Eq.eval(3, 4));
        assert!(Cond::Ne.eval(3, 4));
        assert!(Cond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(Cond::Ge.eval(0, u64::MAX)); // 0 >= -1 signed
    }

    #[test]
    fn class_predicates() {
        assert!(InstClass::Load.is_memory());
        assert!(InstClass::Store.is_memory());
        assert!(!InstClass::Alu.is_memory());
        assert!(BranchKind::Conditional.is_conditional());
        assert!(!BranchKind::Call.is_conditional());
    }
}
