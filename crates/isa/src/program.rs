//! Compiled machine programs: one instruction stream per simulated
//! core, a flat data segment, and a symbol table so tests and
//! invariant checkers can locate globals by name.

use crate::instr::{Addr, Instr, NUM_REGS};
use std::collections::HashMap;
use std::fmt;

/// Name prefix marking a global as an *observed* location: part of
/// the final state of a litmus-style program (see
/// [`Program::observed_symbols`]).
pub const OBS_PREFIX: &str = "obs_";

/// A symbol: a named region of the data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    pub name: String,
    pub addr: Addr,
    /// Length in words (1 for scalars).
    pub len: usize,
    /// Declared shared-mutable (participates in SC-enforcement
    /// delay-set classification).
    pub shared: bool,
}

/// A compiled program for the whole machine.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// One instruction stream per core/thread. Core `i` runs
    /// `threads[i]`; cores beyond `threads.len()` stay halted.
    pub threads: Vec<Vec<Instr>>,
    /// Size of the flat data segment in words.
    pub data_size: usize,
    /// Initial values for the data segment (zero-filled if shorter).
    pub data_init: Vec<(Addr, i64)>,
    /// Named globals.
    pub symbols: Vec<Symbol>,
    /// Class names, indexed by `ClassId`.
    pub class_names: Vec<String>,
    symbol_index: HashMap<String, usize>,
}

/// Errors produced by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    BranchOutOfRange {
        thread: usize,
        pc: usize,
        target: usize,
    },
    RegisterOutOfRange {
        thread: usize,
        pc: usize,
        reg: u8,
    },
    MissingHalt {
        thread: usize,
    },
    DataInitOutOfRange {
        addr: Addr,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::BranchOutOfRange { thread, pc, target } => {
                write!(
                    f,
                    "thread {thread} pc {pc}: branch target {target} out of range"
                )
            }
            ProgramError::RegisterOutOfRange { thread, pc, reg } => {
                write!(f, "thread {thread} pc {pc}: register r{reg} out of range")
            }
            ProgramError::MissingHalt { thread } => {
                write!(f, "thread {thread}: no halt instruction")
            }
            ProgramError::DataInitOutOfRange { addr } => {
                write!(f, "data initialiser at {addr} outside data segment")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Create an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of threads (cores used).
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Register a symbol. Returns its index.
    pub fn add_symbol(&mut self, sym: Symbol) -> usize {
        let idx = self.symbols.len();
        self.symbol_index.insert(sym.name.clone(), idx);
        self.symbols.push(sym);
        idx
    }

    /// Look up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbol_index.get(name).map(|&i| &self.symbols[i])
    }

    /// Address of a named global; panics if absent (test convenience).
    pub fn addr_of(&self, name: &str) -> Addr {
        self.symbol(name)
            .unwrap_or_else(|| panic!("no symbol named {name:?}"))
            .addr
    }

    /// Build the initial memory image.
    pub fn initial_memory(&self) -> Vec<i64> {
        let mut mem = vec![0i64; self.data_size];
        for &(addr, val) in &self.data_init {
            mem[addr] = val;
        }
        mem
    }

    /// Static sanity checks: branch targets in range, registers in
    /// range, every thread ends reachably in `halt` (approximated by
    /// the presence of at least one `halt`), data initialisers inside
    /// the segment.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (t, code) in self.threads.iter().enumerate() {
            let mut has_halt = false;
            for (pc, instr) in code.iter().enumerate() {
                if matches!(instr, Instr::Halt) {
                    has_halt = true;
                }
                let target = match instr {
                    Instr::Branch { target, .. } | Instr::Jump { target } => Some(*target),
                    _ => None,
                };
                if let Some(target) = target {
                    if target >= code.len() {
                        return Err(ProgramError::BranchOutOfRange {
                            thread: t,
                            pc,
                            target,
                        });
                    }
                }
                for r in instr.sources().chain(instr.dest()) {
                    if (r.0 as usize) >= NUM_REGS {
                        return Err(ProgramError::RegisterOutOfRange {
                            thread: t,
                            pc,
                            reg: r.0,
                        });
                    }
                }
            }
            if !code.is_empty() && !has_halt {
                return Err(ProgramError::MissingHalt { thread: t });
            }
        }
        for &(addr, _) in &self.data_init {
            if addr >= self.data_size {
                return Err(ProgramError::DataInitOutOfRange { addr });
            }
        }
        Ok(())
    }

    /// The observed symbols of a litmus-style program: every global
    /// whose name starts with [`OBS_PREFIX`], in address order. The
    /// values of these locations in the final memory image are the
    /// program's *final state* — the tuple the SC reference checker
    /// enumerates and the differential runner compares against.
    pub fn observed_symbols(&self) -> Vec<&Symbol> {
        let mut obs: Vec<&Symbol> = self
            .symbols
            .iter()
            .filter(|s| s.name.starts_with(OBS_PREFIX))
            .collect();
        obs.sort_by_key(|s| s.addr);
        obs
    }

    /// Read the observed final state out of a memory image: one word
    /// per observed symbol, in address order. Returns an empty vector
    /// when the program declares no `obs_` globals.
    pub fn observed_state(&self, mem: &[i64]) -> Vec<i64> {
        self.observed_symbols()
            .iter()
            .map(|s| mem[s.addr])
            .collect()
    }

    /// Total static instruction count across threads.
    pub fn total_instrs(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Disassemble one thread, one instruction per line with indices.
    pub fn disasm(&self, thread: usize) -> String {
        let mut out = String::new();
        for (pc, i) in self.threads[thread].iter().enumerate() {
            out.push_str(&format!("{pc:5}: {i}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{CmpOp, Operand, Reg};

    fn halted(instrs: Vec<Instr>) -> Program {
        Program {
            threads: vec![instrs],
            data_size: 16,
            ..Program::default()
        }
    }

    #[test]
    fn validate_ok() {
        let p = halted(vec![
            Instr::Imm {
                rd: Reg(0),
                value: 1,
            },
            Instr::Halt,
        ]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validate_branch_range() {
        let p = halted(vec![
            Instr::Branch {
                op: CmpOp::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                target: 9,
            },
            Instr::Halt,
        ]);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::BranchOutOfRange { target: 9, .. })
        ));
    }

    #[test]
    fn validate_missing_halt() {
        let p = halted(vec![Instr::Nop]);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::MissingHalt { thread: 0 })
        ));
    }

    #[test]
    fn validate_register_range() {
        let p = halted(vec![
            Instr::Imm {
                rd: Reg(200),
                value: 0,
            },
            Instr::Halt,
        ]);
        assert!(matches!(
            p.validate(),
            Err(ProgramError::RegisterOutOfRange { reg: 200, .. })
        ));
    }

    #[test]
    fn symbols_and_memory_image() {
        let mut p = halted(vec![Instr::Halt]);
        p.add_symbol(Symbol {
            name: "HEAD".into(),
            addr: 3,
            len: 1,
            shared: true,
        });
        p.data_init.push((3, 42));
        assert_eq!(p.addr_of("HEAD"), 3);
        assert!(p.symbol("TAIL").is_none());
        let mem = p.initial_memory();
        assert_eq!(mem.len(), 16);
        assert_eq!(mem[3], 42);
        assert!(p.validate().is_ok());
    }
}
