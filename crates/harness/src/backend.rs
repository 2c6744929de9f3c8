//! The execution-backend abstraction: one trait, three engines.
//!
//! Everything above the engines (the [`Session`](crate::Session)
//! builder, [`Experiment`](crate::Experiment) sweeps, the result
//! cache, sharding, the stores and the litmus campaigns) runs
//! programs through the [`Backend`] trait and consumes the one
//! [`RunReport`] shape, so each layer can pick the cheapest engine
//! that answers its question. Engines that do not model a dimension
//! leave it empty (`Vec`) or absent (`None`) — nothing is fabricated:
//! only [`SimBackend`] reports `cycles`, timing stats, watchpoints and
//! traces; only [`EnumerativeBackend`] reports `sc_states` (and no
//! single final memory):
//!
//! - [`SimBackend`] — the cycle-accurate out-of-order multicore
//!   simulator (`sfence_sim::execute`). The only engine that reports
//!   timing (cycles, stall breakdowns, watchpoints, retired traces);
//!   the default everywhere, and bit-identical to the pre-trait
//!   `Session` output.
//! - [`FunctionalBackend`] — a fast sequentially-consistent
//!   interpreter over `sfence_isa::interp`, stepping the threads in a
//!   deterministic round-robin. Reports the final memory, registers
//!   and observed (`obs_*`) state with the cycle fields *absent* (not
//!   fabricated): correctness-only sweeps skip the timing model
//!   entirely.
//! - [`EnumerativeBackend`] — the SC reference checker
//!   ([`crate::enumerate`]): bounded interleaving enumeration with
//!   partial-order reduction, returning the complete SC-allowed
//!   final-state set instead of one final state.
//!
//! A backend's identity ([`BackendId`]) is part of every result-cache
//! key ([`crate::cache::job_key`]), so cells produced by different
//! engines can never collide.

use crate::enumerate::{enumerate_sc, CheckerConfig};
use crate::json::Json;
use crate::session::RunReport;
use sfence_cpu::CoreStats;
use sfence_isa::interp::{InterpStats, ThreadState};
use sfence_isa::{Addr, Program, NUM_REGS};
use sfence_sim::{execute, MachineConfig, RunExit};

/// Identity of an execution engine — the discriminant that selects an
/// engine by name (`--backend`), tags every report
/// (`crate::RunReport::backend`) and feeds the result-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendId {
    /// Cycle-accurate out-of-order simulation ([`SimBackend`]).
    #[default]
    Sim,
    /// Fast functional SC interpretation ([`FunctionalBackend`]).
    Functional,
    /// Bounded SC interleaving enumeration ([`EnumerativeBackend`]).
    Enumerative,
}

impl BackendId {
    /// The stable name used in CLI flags, JSON and cache keys.
    pub fn name(&self) -> &'static str {
        match self {
            BackendId::Sim => "sim",
            BackendId::Functional => "functional",
            BackendId::Enumerative => "enumerative",
        }
    }

    /// Parse a `--backend` argument.
    pub fn parse(s: &str) -> Result<BackendId, String> {
        match s {
            "sim" => Ok(BackendId::Sim),
            "functional" => Ok(BackendId::Functional),
            "enumerative" => Ok(BackendId::Enumerative),
            other => Err(format!(
                "unknown backend {other:?} (expected sim|functional|enumerative)"
            )),
        }
    }

    /// Instantiate the engine this id names, with default engine
    /// parameters (the per-run knobs all come from the
    /// `MachineConfig` handed to [`Backend::run`]).
    pub fn instantiate(&self) -> Box<dyn Backend> {
        match self {
            BackendId::Sim => Box::new(SimBackend),
            BackendId::Functional => Box::new(FunctionalBackend),
            BackendId::Enumerative => Box::new(EnumerativeBackend::default()),
        }
    }

    /// Does this engine report cycle-accurate timing? Rows from
    /// non-timing engines carry no cycle/stall fields at all.
    pub fn timed(&self) -> bool {
        matches!(self, BackendId::Sim)
    }

    /// Engine parameters beyond the `MachineConfig` that determine a
    /// run's output — the result cache mixes this into the job key.
    /// Kept next to [`BackendId::instantiate`] so the key always
    /// describes the engine a sweep will actually run: if
    /// `instantiate` ever constructs an engine differently, this must
    /// change with it.
    pub fn cache_params(&self) -> Option<Json> {
        match self {
            // Sim and functional are fully described by the
            // `MachineConfig` (the functional fuel derives from it).
            BackendId::Sim | BackendId::Functional => None,
            // The enumerator's bounds change its output (exit status,
            // completeness of the state set).
            BackendId::Enumerative => {
                let checker = CheckerConfig::default();
                Some(
                    Json::obj()
                        .field("max_states", checker.max_states)
                        .field("max_local_steps", checker.max_local_steps),
                )
            }
        }
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One execution engine. `Sync` so a single instance can serve every
/// worker thread of a parallel sweep or campaign.
pub trait Backend: Sync {
    /// The engine's identity (cache-key discriminant, report tag).
    fn id(&self) -> BackendId;

    /// Run `program` under `cfg`, watching writes to `watch`
    /// (engines without a completion order ignore the watch list).
    ///
    /// Engines interpret the relevant subset of `cfg`: the simulator
    /// honours every knob; the functional backend derives its
    /// instruction budget from `max_cycles` (scaled by the machine's
    /// peak retirement rate) and shapes its register snapshot by
    /// `num_cores`; the enumerative backend uses neither (its bounds
    /// are its own [`CheckerConfig`]).
    fn run(&self, program: &Program, cfg: &MachineConfig, watch: &[Addr]) -> RunReport;
}

// ---------------------------------------------------------------------
// Sim

/// The cycle-accurate machine (`sfence_sim::execute`) behind the
/// trait. Output is bit-identical to calling `execute` directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend;

impl Backend for SimBackend {
    fn id(&self) -> BackendId {
        BackendId::Sim
    }

    fn run(&self, program: &Program, cfg: &MachineConfig, watch: &[Addr]) -> RunReport {
        let out = execute(program, cfg.clone(), watch);
        RunReport {
            backend: BackendId::Sim,
            exit: out.summary.exit,
            cycles: Some(out.summary.cycles),
            core_stats: out.summary.core_stats,
            mem_stats: out.summary.mem_stats,
            scope_stats: out.summary.scope_stats,
            scope_coverage: out.summary.scope_coverage,
            watch_log: out.watch_log,
            traces: out.traces,
            pipe: out.pipe,
            mem: out.mem,
            regs: out.regs,
            sc_states: None,
            sc_states_explored: None,
        }
    }
}

// ---------------------------------------------------------------------
// Functional

/// A fast functional engine: every thread steps one instruction per
/// round under sequential consistency (deterministic round-robin, so
/// spin loops always make progress), against a flat memory image.
///
/// Orders of magnitude cheaper than the simulator — no ROB, store
/// buffers, caches or cycle accounting — and therefore the engine of
/// choice for correctness-only sweeps and differential checking. The
/// report carries the final memory, per-thread registers and real
/// architectural event counts; cycle fields are absent, not zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct FunctionalBackend;

impl Backend for FunctionalBackend {
    fn id(&self) -> BackendId {
        BackendId::Functional
    }

    fn run(&self, program: &Program, cfg: &MachineConfig, _watch: &[Addr]) -> RunReport {
        let n = program.num_threads();
        let mut threads: Vec<ThreadState> = (0..n).map(|_| ThreadState::default()).collect();
        let mut stats = vec![InterpStats::default(); n];
        let mut mem = program.initial_memory();
        // `max_cycles` scales into the instruction budget by the
        // machine's peak retirement rate (`num_cores × retire_width`
        // instructions per cycle): any budget that lets the simulator
        // retire a program lets the interpreter finish it, so a
        // sim-valid `max_cycles` can never spuriously cycle-limit the
        // functional run of the same program.
        let peak_retire = (cfg.num_cores.max(n) * cfg.core.retire_width).max(1) as u64;
        let fuel = cfg.max_cycles.saturating_mul(peak_retire);
        let mut steps = 0u64;
        let mut exit = RunExit::Completed;
        'run: loop {
            let mut live = false;
            for t in 0..n {
                if threads[t].halted {
                    continue;
                }
                if steps >= fuel {
                    exit = RunExit::CycleLimit;
                    break 'run;
                }
                steps += 1;
                threads[t]
                    .step(t, &program.threads[t], &mut mem, &mut stats[t])
                    .unwrap_or_else(|e| panic!("functional backend: {e}"));
                live = true;
            }
            if !live {
                break;
            }
        }

        let cores = cfg.num_cores.max(n);
        let mut core_stats = vec![CoreStats::default(); cores];
        let mut regs = vec![vec![0i64; NUM_REGS]; cores];
        for t in 0..n {
            let s = &stats[t];
            // Architectural event counts are real in a functional run;
            // every timing counter stays at its zero default.
            core_stats[t].instrs_retired = s.instrs;
            core_stats[t].instrs_issued = s.instrs;
            core_stats[t].loads = s.loads;
            core_stats[t].stores = s.stores;
            core_stats[t].cas_ops = s.cas_attempts;
            core_stats[t].fences_retired = s.fences;
            regs[t] = threads[t].regs.to_vec();
        }
        RunReport {
            core_stats,
            mem,
            regs,
            ..RunReport::untimed(BackendId::Functional, exit)
        }
    }
}

// ---------------------------------------------------------------------
// Enumerative

/// The SC reference checker behind the trait: enumerates every
/// SC-reachable final state (bounded, with partial-order reduction
/// and memoization) and reports the allowed-state set. `exit` is
/// `Completed` only when the enumeration was exhaustive; a hit bound
/// reports `CycleLimit` and the (possibly incomplete) set.
#[derive(Debug, Clone, Default)]
pub struct EnumerativeBackend {
    pub checker: CheckerConfig,
}

impl EnumerativeBackend {
    pub fn new(checker: CheckerConfig) -> Self {
        EnumerativeBackend { checker }
    }
}

impl Backend for EnumerativeBackend {
    fn id(&self) -> BackendId {
        BackendId::Enumerative
    }

    fn run(&self, program: &Program, _cfg: &MachineConfig, _watch: &[Addr]) -> RunReport {
        let out = enumerate_sc(program, &self.checker)
            .unwrap_or_else(|e| panic!("enumerative backend: {e}"));
        let exit = if out.complete {
            RunExit::Completed
        } else {
            RunExit::CycleLimit
        };
        RunReport {
            sc_states: Some(out.states.into_iter().collect()),
            sc_states_explored: Some(out.states_explored),
            ..RunReport::untimed(BackendId::Enumerative, exit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::ir::*;
    use sfence_isa::CompileOpts;

    fn mp_program() -> Program {
        let mut p = IrProgram::new();
        let data = p.shared("data");
        let flag = p.shared("flag");
        let od = p.observer("data");
        p.thread(move |b| {
            b.store(data.cell(), c(7));
            b.fence();
            b.store(flag.cell(), c(1));
            b.halt();
        });
        p.thread(move |b| {
            b.spin_until(ld(flag.cell()).eq(c(1)));
            // Covering fence on the consumer side too, so the weak
            // machine is as strong as SC on this shape and the
            // cross-backend agreement test below is meaningful.
            b.fence();
            b.store(od.cell(), ld(data.cell()));
            b.halt();
        });
        p.compile(&CompileOpts::default()).expect("compile")
    }

    #[test]
    fn ids_round_trip_through_names() {
        for id in [
            BackendId::Sim,
            BackendId::Functional,
            BackendId::Enumerative,
        ] {
            assert_eq!(BackendId::parse(id.name()), Ok(id));
            assert_eq!(id.instantiate().id(), id);
        }
        assert!(BackendId::parse("nonesuch").is_err());
    }

    #[test]
    fn functional_runs_spinning_consumers_to_completion() {
        let prog = mp_program();
        let cfg = MachineConfig::paper_default();
        let out = FunctionalBackend.run(&prog, &cfg, &[]);
        assert_eq!(out.exit, RunExit::Completed);
        assert_eq!(out.cycles, None, "no clock, no cycles");
        assert_eq!(prog.observed_state(&out.mem), vec![7]);
        // Real architectural counts, per thread.
        assert!(out.core_stats[0].stores >= 2);
        assert!(out.core_stats[1].loads >= 1);
        assert_eq!(out.core_stats[0].fence_stall_cycles, 0);
        // Register snapshot covers the whole (padded) machine shape.
        assert_eq!(out.regs.len(), cfg.num_cores);
    }

    #[test]
    fn functional_budget_exhaustion_reports_cycle_limit() {
        let prog = mp_program();
        let mut cfg = MachineConfig::paper_default();
        // The instruction budget is max_cycles × peak retirement rate
        // (num_cores × retire_width = 4 here): one cycle buys 4
        // steps, far fewer than the program needs.
        cfg.num_cores = 2;
        cfg.max_cycles = 1;
        let out = FunctionalBackend.run(&prog, &cfg, &[]);
        assert_eq!(out.exit, RunExit::CycleLimit);
    }

    /// The fuel contract: a `max_cycles` that lets the *simulator*
    /// finish must always let the interpreter finish, even though the
    /// sim retires multiple instructions per cycle.
    #[test]
    fn sim_sufficient_budget_is_functional_sufficient() {
        let prog = mp_program();
        let mut cfg = MachineConfig::paper_default();
        cfg.num_cores = 2;
        let sim = SimBackend.run(&prog, &cfg, &[]);
        assert_eq!(sim.exit, RunExit::Completed);
        // The tightest sim-valid guard.
        cfg.max_cycles = sim.cycles.unwrap();
        let fun = FunctionalBackend.run(&prog, &cfg, &[]);
        assert_eq!(fun.exit, RunExit::Completed);
    }

    #[test]
    fn enumerative_reports_the_allowed_set() {
        let prog = mp_program();
        let out = EnumerativeBackend::default().run(&prog, &MachineConfig::paper_default(), &[]);
        assert_eq!(out.exit, RunExit::Completed);
        assert_eq!(out.sc_states, Some(vec![vec![7]]));
        assert!(out.sc_states_explored.unwrap() > 0);
        assert!(out.mem.is_empty(), "no single final memory");
    }

    #[test]
    fn sim_and_functional_agree_on_final_state() {
        let prog = mp_program();
        let mut cfg = MachineConfig::paper_default();
        cfg.num_cores = 2;
        let sim = SimBackend.run(&prog, &cfg, &[]);
        let fun = FunctionalBackend.run(&prog, &cfg, &[]);
        assert_eq!(sim.exit, RunExit::Completed);
        assert_eq!(prog.observed_state(&sim.mem), prog.observed_state(&fun.mem));
    }
}
