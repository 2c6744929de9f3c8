//! Reference interpreters.
//!
//! These execute compiled programs *functionally* (no timing, no
//! reordering) and serve as oracles for the cycle-level simulator:
//!
//! - [`run_single`] executes one thread in program order against a
//!   private memory image. For single-threaded programs the simulator
//!   must produce exactly the same final memory regardless of any
//!   timing knob or fence configuration — this is the strongest cheap
//!   correctness oracle we have, and the property tests lean on it.

use crate::instr::{Instr, Operand, Reg, NUM_REGS};
use crate::program::Program;
use std::fmt;

/// Why an interpretation stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpExit {
    /// The thread executed `halt`.
    Halted,
    /// Instruction budget exhausted (likely livelock or missing halt).
    OutOfFuel,
}

/// Interpreter errors (the machine itself never faults; these indicate
/// malformed programs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    AddrOutOfRange { thread: usize, pc: usize, addr: i64 },
    PcOutOfRange { thread: usize, pc: usize },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::AddrOutOfRange { thread, pc, addr } => {
                write!(f, "thread {thread} pc {pc}: address {addr} out of range")
            }
            InterpError::PcOutOfRange { thread, pc } => {
                write!(f, "thread {thread}: pc {pc} out of range")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Statistics from a reference run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InterpStats {
    pub instrs: u64,
    pub loads: u64,
    pub stores: u64,
    pub cas_attempts: u64,
    pub cas_successes: u64,
    pub fences: u64,
}

/// Architectural state of one interpreted thread.
#[derive(Debug, Clone)]
pub struct ThreadState {
    pub regs: [i64; NUM_REGS],
    pub pc: usize,
    pub halted: bool,
}

impl Default for ThreadState {
    fn default() -> Self {
        Self {
            regs: [0; NUM_REGS],
            pc: 0,
            halted: false,
        }
    }
}

impl ThreadState {
    fn operand(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(Reg(r)) => self.regs[r as usize],
            Operand::Imm(v) => v,
        }
    }

    /// Execute one instruction of `code` against `mem` under SC
    /// semantics (every instruction is atomic and immediately
    /// visible). Returns false when the thread halts (or was already
    /// halted).
    ///
    /// Public so external schedulers — in particular the
    /// `sfence-litmus` SC reference checker, which enumerates
    /// interleavings by driving one [`ThreadState`] per thread — can
    /// step threads one instruction at a time.
    pub fn step(
        &mut self,
        thread: usize,
        code: &[Instr],
        mem: &mut [i64],
        stats: &mut InterpStats,
    ) -> Result<bool, InterpError> {
        if self.halted {
            return Ok(false);
        }
        if self.pc >= code.len() {
            return Err(InterpError::PcOutOfRange {
                thread,
                pc: self.pc,
            });
        }
        let pc = self.pc;
        let addr_of = |base: i64, offset: i64| -> Result<usize, InterpError> {
            let a = base.wrapping_add(offset);
            if a < 0 || a as usize >= mem.len() {
                Err(InterpError::AddrOutOfRange {
                    thread,
                    pc,
                    addr: a,
                })
            } else {
                Ok(a as usize)
            }
        };
        stats.instrs += 1;
        let mut next = pc + 1;
        match &code[pc] {
            Instr::Imm { rd, value } => self.regs[rd.0 as usize] = *value,
            Instr::Mov { rd, a } => self.regs[rd.0 as usize] = self.operand(*a),
            Instr::Alu { op, rd, a, b } => {
                self.regs[rd.0 as usize] = op.apply(self.operand(*a), self.operand(*b));
            }
            Instr::Cmp { op, rd, a, b } => {
                self.regs[rd.0 as usize] = op.apply(self.operand(*a), self.operand(*b)) as i64;
            }
            Instr::Load {
                rd, base, offset, ..
            } => {
                stats.loads += 1;
                let a = addr_of(self.operand(*base), *offset)?;
                self.regs[rd.0 as usize] = mem[a];
            }
            Instr::Store {
                src, base, offset, ..
            } => {
                stats.stores += 1;
                let a = addr_of(self.operand(*base), *offset)?;
                mem[a] = self.operand(*src);
            }
            Instr::Cas {
                rd,
                base,
                offset,
                expected,
                new,
                ..
            } => {
                stats.cas_attempts += 1;
                let a = addr_of(self.operand(*base), *offset)?;
                if mem[a] == self.operand(*expected) {
                    mem[a] = self.operand(*new);
                    self.regs[rd.0 as usize] = 1;
                    stats.cas_successes += 1;
                } else {
                    self.regs[rd.0 as usize] = 0;
                }
            }
            Instr::Fence { .. } => stats.fences += 1,
            Instr::FsStart { .. } | Instr::FsEnd { .. } | Instr::Nop => {}
            Instr::Branch { op, a, b, target } => {
                if op.apply(self.operand(*a), self.operand(*b)) {
                    next = *target;
                }
            }
            Instr::Jump { target } => next = *target,
            Instr::Halt => {
                self.halted = true;
                return Ok(false);
            }
        }
        self.pc = next;
        Ok(true)
    }
}

/// Run one thread to completion (program order, own memory image).
pub fn run_single(
    prog: &Program,
    thread: usize,
    mem: &mut [i64],
    fuel: u64,
) -> Result<(InterpExit, InterpStats), InterpError> {
    let mut st = ThreadState::default();
    let mut stats = InterpStats::default();
    let code = &prog.threads[thread];
    for _ in 0..fuel {
        if !st.step(thread, code, mem, &mut stats)? {
            return Ok((InterpExit::Halted, stats));
        }
    }
    Ok((InterpExit::OutOfFuel, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;

    fn compile(p: &IrProgram) -> Program {
        p.compile().expect("compile")
    }

    #[test]
    fn loop_sums_correctly() {
        let mut p = IrProgram::new();
        let out = p.global("out");
        p.thread(|b| {
            b.let_("i", c(0));
            b.let_("sum", c(0));
            b.while_(l("i").lt(c(10)), |w| {
                w.assign("sum", l("sum").add(l("i")));
                w.assign("i", l("i").add(c(1)));
            });
            b.store(out.cell(), l("sum"));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        let (exit, stats) = run_single(&prog, 0, &mut mem, 10_000).unwrap();
        assert_eq!(exit, InterpExit::Halted);
        assert_eq!(mem[prog.addr_of("out")], 45);
        assert!(stats.instrs > 10);
    }

    #[test]
    fn routine_inlining_and_return_values() {
        let mut p = IrProgram::new();
        let out = p.global("out");
        p.routine("double_plus", &["x", "y"], |b| {
            b.ret(Some(l("x").mul(c(2)).add(l("y"))));
        });
        p.thread(|b| {
            b.call_ret("r", "double_plus", &[c(20), c(2)]);
            b.call_ret("r2", "double_plus", &[l("r"), c(0)]);
            b.store(out.cell(), l("r2"));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        run_single(&prog, 0, &mut mem, 10_000).unwrap();
        assert_eq!(mem[prog.addr_of("out")], 84);
    }

    #[test]
    fn early_return_in_branch() {
        let mut p = IrProgram::new();
        let out = p.global("out");
        p.routine("clamp", &["x"], |b| {
            b.if_(l("x").gt(c(100)), |t| t.ret(Some(c(100))));
            b.ret(Some(l("x")));
        });
        p.thread(|b| {
            b.call_ret("a", "clamp", &[c(250)]);
            b.call_ret("b", "clamp", &[c(7)]);
            b.store(out.cell(), l("a").add(l("b")));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        run_single(&prog, 0, &mut mem, 10_000).unwrap();
        assert_eq!(mem[prog.addr_of("out")], 107);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut p = IrProgram::new();
        let x = p.shared("x");
        let out = p.global("out");
        p.init(x, 5);
        p.thread(|b| {
            b.cas("ok1", x.cell(), c(5), c(9)); // succeeds
            b.cas("ok2", x.cell(), c(5), c(11)); // fails (x is 9)
            b.store(out.cell(), l("ok1").mul(c(10)).add(l("ok2")));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        let (_, stats) = run_single(&prog, 0, &mut mem, 1_000).unwrap();
        assert_eq!(mem[prog.addr_of("x")], 9);
        assert_eq!(mem[prog.addr_of("out")], 10);
        assert_eq!(stats.cas_attempts, 2);
        assert_eq!(stats.cas_successes, 1);
    }

    #[test]
    fn array_indexing() {
        let mut p = IrProgram::new();
        let a = p.array("a", 8);
        let out = p.global("out");
        p.thread(|b| {
            b.let_("i", c(0));
            b.while_(l("i").lt(c(8)), |w| {
                w.store(a.at(l("i")), l("i").mul(l("i")));
                w.assign("i", l("i").add(c(1)));
            });
            b.let_("x", ld(a.at(c(3))).add(ld(a.at(c(7)))));
            b.store(out.cell(), l("x"));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        run_single(&prog, 0, &mut mem, 10_000).unwrap();
        assert_eq!(mem[prog.addr_of("out")], 9 + 49);
    }

    #[test]
    fn out_of_fuel_reported() {
        let mut p = IrProgram::new();
        p.thread(|b| {
            b.loop_(|_| {});
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        let (exit, _) = run_single(&prog, 0, &mut mem, 100).unwrap();
        assert_eq!(exit, InterpExit::OutOfFuel);
    }

    #[test]
    fn address_out_of_range_detected() {
        let mut p = IrProgram::new();
        let a = p.array("a", 4);
        p.thread(|b| {
            b.store(a.at(c(1_000_000)), c(1));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        assert!(matches!(
            run_single(&prog, 0, &mut mem, 100),
            Err(InterpError::AddrOutOfRange { .. })
        ));
    }
}
