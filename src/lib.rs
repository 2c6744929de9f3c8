//! # fence-scoping
//!
//! A from-scratch Rust reproduction of **"Fence Scoping"** (Lin,
//! Nagarajan, Gupta — SC '14): *scoped fences* (S-Fence) whose memory
//! ordering effect is limited to a programmer-specified scope, plus
//! the entire substrate the paper evaluates them on — a cycle-level,
//! execution-driven, out-of-order multicore simulator, a mini ISA and
//! compiler, and the paper's eight benchmarks.
//!
//! This crate is an umbrella that re-exports the workspace members:
//!
//! - [`isa`] — the mini ISA, structured IR, and compiler passes
//!   (scope instrumentation, set-scope flagging, SC enforcement).
//! - [`core`] — the paper's contribution: fence scope bits (FSB), the
//!   fence scope stack (FSS) with its branch-misprediction shadow, the
//!   cid→FSB mapping table, and the Fig. 5 trace conformance checker
//!   that validates the CPU model against the class-scope rules.
//! - [`mem`] — caches, coherence and the latency model.
//! - [`cpu`] — the out-of-order core (ROB, store buffer, branch
//!   prediction, fence stall logic, in-window speculation).
//! - [`sim`] — the multicore machine and stats.
//! - [`workloads`] — dekker, wsq, msn, harris, pst, ptc, barnes,
//!   radiosity, behind a named registry (`workloads::catalog`).
//! - [`harness`] — the `Session`/`Experiment` API: typed single runs
//!   and declarative, parallel parameter sweeps, executing through a
//!   pluggable `Backend` (cycle-accurate sim, fast functional SC
//!   interpreter, or bounded SC enumerator).
//!
//! ## Quickstart
//!
//! ```
//! use fence_scoping::prelude::*;
//!
//! // A class whose fence only orders its own traffic; a slow
//! // out-of-scope store before the call must not stall it.
//! let mut p = IrProgram::new();
//! let slow = p.global_line("slow");
//! let fast = p.shared_line("fast");
//! let cls = p.class("Mailbox");
//! p.method(cls, "send", &["v"], move |b| {
//!     b.store(fast.cell(), l("v"));
//!     b.fence_class();
//!     b.store(fast.cell(), l("v").add(c(1)));
//! });
//! p.thread(move |b| {
//!     b.store(slow.cell(), c(9)); // out of scope
//!     b.call("Mailbox::send", &[c(7)]);
//!     b.halt();
//! });
//! let prog = p.compile().unwrap();
//!
//! // Layer 1: a Session is one configured run, reported as a typed,
//! // JSON-serializable RunReport. Sessions execute through a
//! // pluggable backend (cycle-accurate simulator by default).
//! let t = Session::for_program(&prog)
//!     .cores(1)
//!     .fence(FenceConfig::TRADITIONAL)
//!     .run();
//! let s = Session::for_program(&prog)
//!     .cores(1)
//!     .fence(FenceConfig::SFENCE)
//!     .run();
//! assert!(s.timed_cycles() <= t.timed_cycles(), "a scoped fence never loses");
//!
//! // The fast functional (SC) engine answers correctness questions
//! // without the timing model — and reports no fabricated cycles.
//! let f = Session::for_program(&prog)
//!     .cores(1)
//!     .backend(&FunctionalBackend)
//!     .run();
//! assert_eq!(f.cycles, None);
//! assert_eq!(f.read_var(&prog, "fast"), s.read_var(&prog, "fast"));
//!
//! // Layer 2: an Experiment sweeps the workload registry across
//! // fence configs and machine axes, in parallel, deterministically.
//! let sweep = Experiment::new("quickstart")
//!     .workload("dekker", WorkloadParams::small())
//!     .fences(vec![FenceConfig::TRADITIONAL, FenceConfig::SFENCE])
//!     .run_parallel();
//! assert!(sweep.cycles("dekker", "S", "") <= sweep.cycles("dekker", "T", ""));
//! ```

pub use sfence_core as core;
pub use sfence_cpu as cpu;
pub use sfence_harness as harness;
pub use sfence_isa as isa;
pub use sfence_mem as mem;
pub use sfence_sim as sim;
pub use sfence_workloads as workloads;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use sfence_core::{ClassId, ScopeConfig};
    pub use sfence_harness::{
        Axis, Backend, BackendId, EnumerativeBackend, Experiment, FunctionalBackend, Json,
        RunReport, Session, SimBackend, SweepResult, SweepRow,
    };
    pub use sfence_isa::ir::*;
    pub use sfence_isa::passes::enforce_sc;
    pub use sfence_isa::{FenceKind, Program};
    pub use sfence_sim::{FenceConfig, MachineConfig, RunExit};
    pub use sfence_workloads::{catalog, Scale, ScopeMode, WorkloadParams};
}
