//! # sfence-sim
//!
//! The multicore machine of the Fence Scoping reproduction: N
//! out-of-order cores (`sfence-cpu`) over a shared cache hierarchy
//! (`sfence-mem`) and a flat functional word memory, stepped in
//! deterministic core order — the execution-driven substrate standing
//! in for SESC.

pub mod machine;

pub use machine::{fence_stall_fraction, Machine, MachineConfig, RunExit, RunSummary, WatchEvent};
pub use sfence_cpu::{CoreConfig, FenceConfig};
pub use sfence_mem::{MemConfig, L1_LATENCY, L2_LATENCY};

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::ir::*;
    use sfence_isa::Program;

    fn compile(p: &IrProgram) -> Program {
        p.compile().expect("compile")
    }

    fn run_program(program: &Program, cfg: MachineConfig) -> (RunSummary, Vec<i64>) {
        let mut m = Machine::new(program, cfg);
        let summary = m.run();
        (summary, m.mem)
    }

    fn small_cfg(fence: FenceConfig) -> MachineConfig {
        let mut cfg = MachineConfig::paper_default().with_fence(fence);
        cfg.num_cores = 2;
        cfg.max_cycles = 5_000_000;
        cfg
    }

    /// Message passing: producer warms the flag line (so its drain is
    /// a fast upgrade) while the data store drains cold. Each variable
    /// sits on its own cache line.
    fn mp_program(with_fences: bool) -> (Program, usize) {
        let mut p = IrProgram::new();
        let data = p.shared_line("data");
        let flag = p.shared_line("flag");
        let got = p.global_line("got");
        p.thread(move |b| {
            // Warm the flag line (read miss brings it in shared).
            b.let_("warm", ld(flag.cell()));
            b.store(data.cell(), c(42)); // cold: slow drain
            if with_fences {
                b.fence();
            }
            b.store(flag.cell(), c(1)); // warm: fast drain
            b.halt();
        });
        p.thread(move |b| {
            b.spin_until(ld(flag.cell()).eq(c(1)));
            if with_fences {
                b.fence();
            }
            b.store(got.cell(), ld(data.cell()));
            b.halt();
        });
        let prog = compile(&p);
        let got_addr = prog.addr_of("got");
        (prog, got_addr)
    }

    /// Without a fence, the RMO store buffer drains the warm flag line
    /// long before the cold data line: the *writes* reach memory out
    /// of program order (observed directly via watchpoints). With a
    /// fence, drain order is restored. Single-threaded on purpose: a
    /// consumer's wrong-path loads would prefetch the data line and
    /// hide the effect.
    #[test]
    fn store_store_drain_reorders_without_fences() {
        for fenced in [false, true] {
            let mut p = IrProgram::new();
            let data = p.shared_line("data");
            let flag = p.shared_line("flag");
            p.thread(move |b| {
                b.let_("warm", ld(flag.cell())); // flag line now resident
                b.store(data.cell(), c(42)); // cold line: slow drain
                if fenced {
                    b.fence();
                }
                b.store(flag.cell(), c(1)); // warm line: fast drain
                b.halt();
            });
            let prog = compile(&p);
            let data_addr = prog.addr_of("data");
            let flag_addr = prog.addr_of("flag");
            let mut m = Machine::new(&prog, small_cfg(FenceConfig::TRADITIONAL));
            m.watch(data_addr);
            m.watch(flag_addr);
            m.run();
            let writes: Vec<usize> = m.watch_log.iter().map(|w| w.addr).collect();
            if fenced {
                assert_eq!(
                    writes,
                    vec![data_addr, flag_addr],
                    "fence must force program-order drain"
                );
            } else {
                assert_eq!(
                    writes,
                    vec![flag_addr, data_addr],
                    "RMO drain must let the warm flag overtake the cold data"
                );
            }
        }
    }

    #[test]
    fn message_passing_ordered_with_fences() {
        let (prog, got) = mp_program(true);
        for fence in [
            FenceConfig::TRADITIONAL,
            FenceConfig::SFENCE,
            FenceConfig::TRADITIONAL_SPEC,
            FenceConfig::SFENCE_SPEC,
        ] {
            let (summary, mem) = run_program(&prog, small_cfg(fence));
            assert_eq!(summary.exit, RunExit::Completed, "{}", fence.label());
            assert_eq!(mem[got], 42, "{}", fence.label());
        }
    }

    /// Store-buffering (Dekker) litmus: both threads may read 0
    /// without fences; never with full fences; and a *set* fence whose
    /// variable set does not include the flags must NOT restore order
    /// (the defining property of scope). Both flag lines are
    /// pre-warmed in both cores so the loads hit in L1 and bind their
    /// values before either store drains.
    fn sb_program(fence: Option<&'static str>) -> Program {
        let mut p = IrProgram::new();
        let f0 = p.shared_line("flag0");
        let f1 = p.shared_line("flag1");
        let r0 = p.global_line("r0");
        let r1 = p.global_line("r1");
        let other = p.shared_line("other");
        let mk = move |b: &mut BlockBuilder, mine: Global, theirs: Global, out: Global| {
            // Warm both flag lines (shared) before the race.
            b.let_("w0", ld(f0.cell()));
            b.let_("w1", ld(f1.cell()));
            b.store(mine.cell(), c(1));
            match fence {
                Some("full") => b.fence(),
                Some("set-flags") => b.fence_set(&[f0, f1]),
                Some("set-other") => b.fence_set(&[other]),
                _ => {}
            }
            b.store(out.cell(), ld(theirs.cell()));
            b.halt();
        };
        p.thread(move |b| mk(b, f0, f1, r0));
        p.thread(move |b| mk(b, f1, f0, r1));
        compile(&p)
    }

    fn run_sb(fence: Option<&'static str>, cfg: FenceConfig) -> (i64, i64) {
        let prog = sb_program(fence);
        let (summary, mem) = run_program(&prog, small_cfg(cfg));
        assert_eq!(summary.exit, RunExit::Completed);
        (mem[prog.addr_of("r0")], mem[prog.addr_of("r1")])
    }

    #[test]
    fn store_buffering_observed_without_fences() {
        let (r0, r1) = run_sb(None, FenceConfig::SFENCE);
        assert_eq!((r0, r1), (0, 0), "store buffering must be visible on RMO");
    }

    #[test]
    fn store_buffering_forbidden_with_full_fences() {
        for cfg in [FenceConfig::TRADITIONAL, FenceConfig::SFENCE] {
            let (r0, r1) = run_sb(Some("full"), cfg);
            assert!(
                r0 == 1 || r1 == 1,
                "{}: SB outcome (0,0) forbidden",
                cfg.label()
            );
        }
    }

    #[test]
    fn store_buffering_forbidden_with_matching_set_fence() {
        let (r0, r1) = run_sb(Some("set-flags"), FenceConfig::SFENCE);
        assert!(
            r0 == 1 || r1 == 1,
            "set fence over the flags must order them"
        );
    }

    #[test]
    fn set_fence_with_wrong_scope_does_not_order() {
        // The fence names `other`, so flag accesses are out of scope:
        // the relaxed outcome must survive — this is exactly what
        // distinguishes S-Fence from a traditional fence.
        let (r0, r1) = run_sb(Some("set-other"), FenceConfig::SFENCE);
        assert_eq!((r0, r1), (0, 0));
        // But run traditionally (scopes ignored), the same binary is
        // fully ordered again.
        let (r0, r1) = run_sb(Some("set-other"), FenceConfig::TRADITIONAL);
        assert!(r0 == 1 || r1 == 1);
    }

    #[test]
    fn watchpoints_record_writes() {
        let mut p = IrProgram::new();
        let x = p.shared("x");
        p.thread(move |b| {
            b.store(x.cell(), c(1));
            b.store(x.cell(), c(2));
            b.halt();
        });
        let prog = compile(&p);
        let mut m = Machine::new(&prog, small_cfg(FenceConfig::SFENCE));
        m.watch(prog.addr_of("x"));
        m.run();
        assert_eq!(m.watch_log.len(), 2);
        assert_eq!(m.watch_log[0].new, 1);
        assert_eq!(m.watch_log[1].old, 1);
        assert_eq!(m.watch_log[1].new, 2);
    }

    #[test]
    fn determinism_same_program_same_cycles() {
        let (prog, _) = mp_program(true);
        let (a, mem_a) = run_program(&prog, small_cfg(FenceConfig::SFENCE));
        let (b, mem_b) = run_program(&prog, small_cfg(FenceConfig::SFENCE));
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(mem_a, mem_b);
    }

    #[test]
    fn idle_cores_cost_nothing() {
        let mut p = IrProgram::new();
        let x = p.global("x");
        p.thread(move |b| {
            b.store(x.cell(), c(1));
            b.halt();
        });
        let prog = compile(&p);
        let num_threads = prog.num_threads();
        let mut cfg = MachineConfig::paper_default();
        cfg.max_cycles = 100_000;
        let (summary, _) = run_program(&prog, cfg);
        assert_eq!(summary.exit, RunExit::Completed);
        // Every core beyond the program's threads must be inert.
        assert!(num_threads < summary.core_stats.len());
        for (i, s) in summary.core_stats.iter().enumerate().skip(num_threads) {
            assert_eq!(s.instrs_retired, 0, "idle core {i} retired instructions");
            assert_eq!(s.instrs_issued, 0, "idle core {i} issued instructions");
            assert_eq!(s.fence_stall_cycles, 0, "idle core {i} stalled on fences");
        }
    }

    /// `fence_stall_fraction` on a degenerate zero-cycle run must not
    /// divide by zero.
    #[test]
    fn zero_cycle_summary_has_zero_stall_fraction() {
        let core_stats = [sfence_cpu::CoreStats {
            instrs_retired: 1,
            fence_stall_cycles: 5,
            ..Default::default()
        }];
        assert_eq!(fence_stall_fraction(&core_stats, 0), 0.0);
    }

    #[test]
    fn traces_conform_across_cores() {
        let (prog, _) = mp_program(true);
        let mut cfg = small_cfg(FenceConfig::SFENCE);
        cfg.core.trace = true;
        cfg.max_cycles = 5_000_000;
        let mut m = Machine::new(&prog, cfg);
        m.run();
        for (i, t) in m.traces().iter().enumerate() {
            sfence_core::check_trace(t).unwrap_or_else(|v| panic!("core {i}: {v}"));
        }
    }
}
