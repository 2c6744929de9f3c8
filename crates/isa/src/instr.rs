//! The mini ISA executed by the simulated cores.
//!
//! The instruction set is a small, RISC-like, word-addressed register
//! machine extended with the paper's ISA additions (Tables I and II of
//! the paper):
//!
//! - [`Instr::Fence`] carries a [`FenceKind`] — `Global` is the
//!   traditional full fence, `Class` is the paper's `class-fence`, and
//!   `Set` is the paper's `set-fence`.
//! - [`Instr::FsStart`] / [`Instr::FsEnd`] are the compiler-inserted
//!   scope delimiters (`fs_start cid` / `fs_end cid`). At runtime they
//!   behave as nops apart from updating the fence scope stack.
//! - Memory instructions carry a `set_flagged` bit: the compiler flags
//!   accesses to variables named in some set-scope fence, and the core
//!   sets the dedicated set-scope FSB column for flagged accesses.

use std::fmt;

/// A word address in the simulated flat memory. Each address names one
/// 64-bit word; cache lines group [`WORDS_PER_LINE`](crate::WORDS_PER_LINE)
/// consecutive words.
pub type Addr = usize;

/// Number of architectural registers per core.
pub const NUM_REGS: usize = 128;

/// An architectural register index (`0..NUM_REGS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A class identifier, assigned by the compiler to each class that
/// contains class-scope fences (the paper's `cid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cid{}", self.0)
    }
}

/// ALU operations. All arithmetic is wrapping two's-complement on
/// `i64`; division and remainder by zero yield 0 (the simulator never
/// faults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount masked to 0..63).
    Shl,
    /// Arithmetic shift right (shift amount masked to 0..63).
    Shr,
    Min,
    Max,
}

impl AluOp {
    /// Apply the operation to two values.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Min => a.min(b),
            AluOp::Max => a.max(b),
        }
    }
}

/// Comparison operations, used both by [`Instr::Cmp`] (materialising a
/// 0/1 result) and by [`Instr::Branch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The logical negation (`!(a op b) == a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// The three fence statements of the paper (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// `S-FENCE` — traditional fence, global scope: orders all prior
    /// memory accesses against all subsequent ones.
    Global,
    /// `S-FENCE[class]` — class scope: orders only memory accesses
    /// performed within the dynamic extent of the surrounding class
    /// (tracked by `fs_start`/`fs_end` and the fence scope stack).
    Class,
    /// `S-FENCE[set, {v...}]` — set scope: orders only memory accesses
    /// to the named variables (flagged by the compiler).
    Set,
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FenceKind::Global => write!(f, "fence"),
            FenceKind::Class => write!(f, "class-fence"),
            FenceKind::Set => write!(f, "set-fence"),
        }
    }
}

/// An instruction operand: either a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Reg(Reg),
    Imm(i64),
}

impl Operand {
    /// The register read by this operand, if any.
    #[inline]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "#{v}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

/// One machine instruction.
///
/// Memory addresses are computed as `base + offset` where `base` is an
/// operand (often the index expression) and `offset` a static
/// displacement (often the global's base address).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd <- value`
    Imm { rd: Reg, value: i64 },
    /// `rd <- a` (register/immediate move)
    Mov { rd: Reg, a: Operand },
    /// `rd <- a op b`
    Alu {
        op: AluOp,
        rd: Reg,
        a: Operand,
        b: Operand,
    },
    /// `rd <- (a cmp b) ? 1 : 0`
    Cmp {
        op: CmpOp,
        rd: Reg,
        a: Operand,
        b: Operand,
    },
    /// `rd <- mem[base + offset]`
    Load {
        rd: Reg,
        base: Operand,
        offset: i64,
        /// Set-scope flag (paper Table II): a flagged access also sets
        /// the dedicated set-scope FSB column.
        set_flagged: bool,
    },
    /// `mem[base + offset] <- src`
    Store {
        src: Operand,
        base: Operand,
        offset: i64,
        set_flagged: bool,
    },
    /// Atomic compare-and-swap:
    /// `rd <- (mem[base+offset] == expected) ? (mem[..] = new; 1) : 0`.
    ///
    /// Executes non-speculatively at the head of the ROB.
    Cas {
        rd: Reg,
        base: Operand,
        offset: i64,
        expected: Operand,
        new: Operand,
        set_flagged: bool,
    },
    /// A fence of the given scope kind.
    Fence { kind: FenceKind },
    /// `fs_start cid` — enter a class scope (compiler-inserted).
    FsStart { cid: ClassId },
    /// `fs_end cid` — leave a class scope (compiler-inserted).
    FsEnd { cid: ClassId },
    /// Conditional branch: `if a cmp b goto target`.
    Branch {
        op: CmpOp,
        a: Operand,
        b: Operand,
        target: usize,
    },
    /// Unconditional jump.
    Jump { target: usize },
    /// No operation (consumes an issue slot and one execute cycle).
    Nop,
    /// Stop this core. Remaining in-flight operations drain first.
    Halt,
}

impl Instr {
    /// Is this a memory instruction (load, store or CAS)?
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::Cas { .. }
        )
    }

    /// Does this instruction carry the set-scope flag?
    #[inline]
    pub fn set_flagged(&self) -> bool {
        match self {
            Instr::Load { set_flagged, .. }
            | Instr::Store { set_flagged, .. }
            | Instr::Cas { set_flagged, .. } => *set_flagged,
            _ => false,
        }
    }

    /// Mutable access to the set-scope flag of a memory instruction.
    pub fn set_flagged_mut(&mut self) -> Option<&mut bool> {
        match self {
            Instr::Load { set_flagged, .. }
            | Instr::Store { set_flagged, .. }
            | Instr::Cas { set_flagged, .. } => Some(set_flagged),
            _ => None,
        }
    }

    /// Registers read by this instruction.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        let (a, b, c): (Option<Reg>, Option<Reg>, Option<Reg>) = match self {
            Instr::Imm { .. }
            | Instr::Fence { .. }
            | Instr::FsStart { .. }
            | Instr::FsEnd { .. }
            | Instr::Jump { .. }
            | Instr::Nop
            | Instr::Halt => (None, None, None),
            Instr::Mov { a, .. } => (a.reg(), None, None),
            Instr::Alu { a, b, .. } | Instr::Cmp { a, b, .. } | Instr::Branch { a, b, .. } => {
                (a.reg(), b.reg(), None)
            }
            Instr::Load { base, .. } => (base.reg(), None, None),
            Instr::Store { src, base, .. } => (src.reg(), base.reg(), None),
            Instr::Cas {
                base,
                expected,
                new,
                ..
            } => (base.reg(), expected.reg(), new.reg()),
        };
        [a, b, c].into_iter().flatten()
    }

    /// Register written by this instruction, if any.
    pub fn dest(&self) -> Option<Reg> {
        match self {
            Instr::Imm { rd, .. }
            | Instr::Mov { rd, .. }
            | Instr::Alu { rd, .. }
            | Instr::Cmp { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Cas { rd, .. } => Some(*rd),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Imm { rd, value } => write!(f, "li    {rd}, {value}"),
            Instr::Mov { rd, a } => write!(f, "mov   {rd}, {a}"),
            Instr::Alu { op, rd, a, b } => {
                write!(f, "{:<5} {rd}, {a}, {b}", format!("{op:?}").to_lowercase())
            }
            Instr::Cmp { op, rd, a, b } => {
                write!(f, "c{:<4} {rd}, {a}, {b}", format!("{op:?}").to_lowercase())
            }
            Instr::Load {
                rd,
                base,
                offset,
                set_flagged,
            } => write!(
                f,
                "ld{}   {rd}, {offset}({base})",
                if *set_flagged { "*" } else { " " }
            ),
            Instr::Store {
                src,
                base,
                offset,
                set_flagged,
            } => write!(
                f,
                "st{}   {src}, {offset}({base})",
                if *set_flagged { "*" } else { " " }
            ),
            Instr::Cas {
                rd,
                base,
                offset,
                expected,
                new,
                set_flagged,
            } => write!(
                f,
                "cas{}  {rd}, {offset}({base}), {expected} -> {new}",
                if *set_flagged { "*" } else { " " }
            ),
            Instr::Fence { kind } => write!(f, "{kind}"),
            Instr::FsStart { cid } => write!(f, "fs_start {cid}"),
            Instr::FsEnd { cid } => write!(f, "fs_end   {cid}"),
            Instr::Branch { op, a, b, target } => {
                write!(
                    f,
                    "b{:<4} {a}, {b}, @{target}",
                    format!("{op:?}").to_lowercase()
                )
            }
            Instr::Jump { target } => write!(f, "j     @{target}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_wrapping_and_div_by_zero() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(AluOp::Mul.apply(i64::MAX, 2), -2);
        assert_eq!(AluOp::Div.apply(42, 0), 0);
        assert_eq!(AluOp::Rem.apply(42, 0), 0);
        assert_eq!(AluOp::Div.apply(7, 2), 3);
        assert_eq!(AluOp::Rem.apply(7, 2), 1);
        assert_eq!(AluOp::Min.apply(-1, 3), -1);
        assert_eq!(AluOp::Max.apply(-1, 3), 3);
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(AluOp::Shl.apply(1, 64), 1); // 64 & 63 == 0
        assert_eq!(AluOp::Shl.apply(1, 3), 8);
        assert_eq!(AluOp::Shr.apply(-8, 1), -4); // arithmetic
    }

    #[test]
    fn cmp_flip_negate() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(op.apply(a, b), !op.negate().apply(a, b), "{op:?} negate");
            }
        }
    }

    #[test]
    fn sources_and_dest() {
        let i = Instr::Cas {
            rd: Reg(1),
            base: Operand::Reg(Reg(2)),
            offset: 0,
            expected: Operand::Reg(Reg(3)),
            new: Operand::Imm(9),
            set_flagged: false,
        };
        let srcs: Vec<Reg> = i.sources().collect();
        assert_eq!(srcs, vec![Reg(2), Reg(3)]);
        assert_eq!(i.dest(), Some(Reg(1)));
        assert!(i.is_mem());

        let st = Instr::Store {
            src: Operand::Reg(Reg(4)),
            base: Operand::Imm(0),
            offset: 16,
            set_flagged: true,
        };
        assert_eq!(st.dest(), None);
        assert!(st.set_flagged());
    }

    #[test]
    fn display_smoke() {
        let i = Instr::Load {
            rd: Reg(7),
            base: Operand::Imm(0),
            offset: 100,
            set_flagged: true,
        };
        assert_eq!(format!("{i}"), "ld*   r7, 100(#0)");
    }
}
