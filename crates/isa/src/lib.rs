//! # sfence-isa
//!
//! The instruction set, structured IR and compiler of the Fence
//! Scoping reproduction.
//!
//! The simulated machine executes a small, RISC-like, word-addressed
//! ISA ([`instr`]) extended with the paper's additions: `class-fence`,
//! `set-fence`, the `fs_start`/`fs_end` scope delimiters, and a
//! set-scope flag bit on memory instructions. Workloads are written in
//! a structured IR ([`ir`]) with classes, routines and threads; the
//! compiler ([`lower`]) inlines calls, inserts scope markers around
//! methods of classes that contain class-scope fences, flags set-scope
//! accesses, and allocates registers. [`passes::enforce_sc`]
//! implements the paper's SC-enforcement use case via a simplified
//! delay-set discipline, and [`interp`] provides functional reference
//! interpreters used as test oracles.

pub mod instr;
pub mod interp;
pub mod ir;
pub mod lower;
pub mod passes;
pub mod program;

pub use instr::{Addr, AluOp, ClassId, CmpOp, FenceKind, Instr, Operand, Reg, NUM_REGS};
pub use lower::CompileError;
pub use program::{Program, ProgramError, Symbol, OBS_PREFIX};

/// Words per cache line in the simulated memory system. Word-addressed
/// memory with 8 words per line models 64-byte lines of 8-byte words.
pub const WORDS_PER_LINE: usize = 8;
