//! # sfence-cpu
//!
//! The out-of-order core model with S-Fence hardware support: ROB,
//! store buffer with store-to-load forwarding, dataflow wakeup, branch
//! prediction with genuine wrong-path fetch and squash, the scope unit
//! from `sfence-core`, and the four fence configurations of the
//! paper's evaluation (T, S, T+, S+).

pub mod bpred;
pub mod bus;
pub mod config;
pub mod core;
pub mod stats;

pub use bpred::BranchPredictor;
pub use bus::{FlatBus, MemBus};
pub use config::{CoreConfig, FenceConfig};
pub use core::Core;
pub use stats::CoreStats;

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::interp::run_single;
    use sfence_isa::ir::*;
    use sfence_isa::Program;

    fn compile(p: &IrProgram) -> Program {
        p.compile().expect("compile")
    }

    /// Run one thread on a single core over a flat bus; return final
    /// memory and the core.
    fn run_core(prog: &Program, cfg: CoreConfig, latency: u64, fuel: u64) -> (Vec<i64>, Core) {
        let mut bus = FlatBus::new(prog.data_size, latency);
        for &(a, v) in &prog.data_init {
            bus.mem[a] = v;
        }
        let mut core = Core::new(0, prog.threads[0].clone(), cfg);
        for now in 0..fuel {
            core.cycle(now, &mut bus);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished(), "core did not finish within {fuel} cycles");
        (bus.mem, core)
    }

    fn sum_program() -> IrProgram {
        let mut p = IrProgram::new();
        let out = p.global("out");
        let arr = p.array("arr", 64);
        p.thread(move |b| {
            b.let_("i", c(0));
            b.while_(l("i").lt(c(64)), move |w| {
                w.store(arr.at(l("i")), l("i").mul(c(3)));
                w.assign("i", l("i").add(c(1)));
            });
            b.let_("i2", c(0));
            b.let_("sum", c(0));
            b.while_(l("i2").lt(c(64)), move |w| {
                w.assign("sum", l("sum").add(ld(arr.at(l("i2")))));
                w.assign("i2", l("i2").add(c(1)));
            });
            b.store(out.cell(), l("sum"));
            b.halt();
        });
        p
    }

    /// The golden oracle: for single-threaded programs, the OoO core
    /// must produce exactly the reference interpreter's final memory,
    /// for every fence config and timing knob.
    #[test]
    fn matches_reference_interpreter_under_all_configs() {
        let p = sum_program();
        let prog = compile(&p);
        let mut ref_mem = prog.initial_memory();
        run_single(&prog, 0, &mut ref_mem, 1_000_000).unwrap();

        for fence in [
            FenceConfig::TRADITIONAL,
            FenceConfig::SFENCE,
            FenceConfig::TRADITIONAL_SPEC,
            FenceConfig::SFENCE_SPEC,
        ] {
            for rob in [8, 32, 128] {
                let cfg = CoreConfig {
                    rob_size: rob,
                    fence,
                    ..CoreConfig::default()
                };
                let (mem, _) = run_core(&prog, cfg, 30, 2_000_000);
                assert_eq!(mem, ref_mem, "config {:?} rob={rob}", fence.label());
            }
        }
    }

    #[test]
    fn branch_mispredictions_squash_correctly() {
        // Data-dependent branches with an irregular pattern.
        let mut p = IrProgram::new();
        let out = p.global("out");
        p.thread(move |b| {
            b.let_("x", c(7));
            b.let_("acc", c(0));
            b.let_("i", c(0));
            b.while_(l("i").lt(c(100)), move |w| {
                // xorshift-ish irregular pattern
                w.assign("x", l("x").mul(c(1103515245)).add(c(12345)));
                w.if_else(
                    l("x").shr(c(16)).bitand(c(1)).eq(c(0)),
                    |t| t.assign("acc", l("acc").add(c(3))),
                    |e| e.assign("acc", l("acc").sub(c(1))),
                );
                w.assign("i", l("i").add(c(1)));
            });
            b.store(out.cell(), l("acc"));
            b.halt();
        });
        let prog = compile(&p);
        let mut ref_mem = prog.initial_memory();
        run_single(&prog, 0, &mut ref_mem, 1_000_000).unwrap();
        let (mem, core) = run_core(&prog, CoreConfig::default(), 10, 2_000_000);
        assert_eq!(mem[prog.addr_of("out")], ref_mem[prog.addr_of("out")]);
        assert!(
            core.stats.mispredictions > 0,
            "pattern must defeat a 2-bit predictor sometimes"
        );
        assert!(core.stats.instrs_issued > core.stats.instrs_retired);
    }

    #[test]
    fn store_to_load_forwarding_observes_program_order() {
        let mut p = IrProgram::new();
        let x = p.global("x");
        let out = p.global("out");
        p.thread(move |b| {
            b.store(x.cell(), c(1));
            b.store(x.cell(), c(2));
            b.let_("v", ld(x.cell()));
            b.store(out.cell(), l("v"));
            b.halt();
        });
        let prog = compile(&p);
        let (mem, core) = run_core(&prog, CoreConfig::default(), 100, 100_000);
        assert_eq!(mem[prog.addr_of("out")], 2, "must see youngest older store");
        assert!(core.stats.forwarded_loads >= 1);
    }

    #[test]
    fn traditional_fence_drains_everything() {
        // store (slow) ; FENCE ; load — the load must not be
        // dispatched until the store drained.
        let mut p = IrProgram::new();
        let a = p.global("a");
        let b_ = p.global("b");
        let out = p.global("out");
        p.thread(move |bb| {
            bb.store(a.cell(), c(5));
            bb.fence();
            bb.let_("v", ld(b_.cell()));
            bb.store(out.cell(), l("v").add(c(1)));
            bb.halt();
        });
        let prog = compile(&p);
        let cfg = CoreConfig {
            fence: FenceConfig::TRADITIONAL,
            trace: true,
            ..CoreConfig::default()
        };
        let (_, core) = run_core(&prog, cfg, 50, 100_000);
        assert!(core.stats.fence_stall_cycles > 0, "fence must stall");
        // Conformance: replay the trace through the semantics checker.
        sfence_core::check_trace(&core.trace).expect("trace conforms");
    }

    #[test]
    fn scoped_fence_skips_out_of_scope_stall() {
        // A slow *unscoped* store before a class-scope region whose
        // fence only waits for the fast in-scope store.
        let mut p = IrProgram::new();
        let slow = p.global("slow");
        let fast = p.global("fast");
        let cls = p.class("Q");
        p.method(cls, "op", &[], move |b| {
            b.store(fast.cell(), c(1));
            b.fence_class();
            b.store(fast.cell(), c(2));
        });
        p.thread(move |b| {
            b.store(slow.cell(), c(9)); // long-latency, out of scope
            b.call("Q::op", &[]);
            b.halt();
        });
        let prog = compile(&p);
        let slow_addr = prog.addr_of("slow");

        let mk = |fence| CoreConfig {
            fence,
            trace: true,
            ..CoreConfig::default()
        };
        let run = |fence| {
            let mut bus = FlatBus::new(prog.data_size, 3);
            bus.slow_addrs.push((slow_addr, 400));
            let mut core = Core::new(0, prog.threads[0].clone(), mk(fence));
            let mut now = 0;
            while !core.finished() {
                core.cycle(now, &mut bus);
                now += 1;
                assert!(now < 100_000);
            }
            (now, core)
        };
        let (t_cycles, t_core) = run(FenceConfig::TRADITIONAL);
        let (s_cycles, s_core) = run(FenceConfig::SFENCE);
        assert!(
            s_cycles < t_cycles,
            "S-Fence ({s_cycles}) must beat traditional ({t_cycles})"
        );
        assert!(s_core.stats.fence_stall_cycles < t_core.stats.fence_stall_cycles);
        sfence_core::check_trace(&t_core.trace).expect("T conforms");
        sfence_core::check_trace(&s_core.trace).expect("S conforms");
    }

    #[test]
    fn in_window_speculation_reduces_stalls() {
        let mut p = IrProgram::new();
        let a = p.global("a");
        let b_ = p.global("b");
        p.thread(move |bb| {
            bb.let_("i", c(0));
            bb.while_(l("i").lt(c(20)), move |w| {
                w.store(a.cell(), l("i"));
                w.fence();
                w.let_("v", ld(b_.cell()));
                w.assign("i", l("i").add(l("v")).add(c(1)));
            });
            bb.halt();
        });
        let prog = compile(&p);
        let run = |fence| {
            let (_, core) = run_core(
                &prog,
                CoreConfig {
                    fence,
                    ..CoreConfig::default()
                },
                60,
                1_000_000,
            );
            core.stats.finished_at.unwrap()
        };
        let t = run(FenceConfig::TRADITIONAL);
        let t_spec = run(FenceConfig::TRADITIONAL_SPEC);
        assert!(
            t_spec < t,
            "in-window speculation ({t_spec}) must beat blocking issue ({t})"
        );
    }

    #[test]
    fn cas_is_atomic_and_nonspeculative() {
        let mut p = IrProgram::new();
        let x = p.shared("x");
        let wins = p.global("wins");
        p.init(x, 0);
        p.thread(move |b| {
            b.let_("n", c(0));
            b.let_("i", c(0));
            b.while_(l("i").lt(c(50)), move |w| {
                w.cas("ok", x.cell(), l("i"), l("i").add(c(1)));
                w.assign("n", l("n").add(l("ok")));
                w.assign("i", l("i").add(c(1)));
            });
            b.store(wins.cell(), l("n"));
            b.halt();
        });
        let prog = compile(&p);
        let (mem, core) = run_core(&prog, CoreConfig::default(), 20, 1_000_000);
        assert_eq!(mem[prog.addr_of("x")], 50);
        assert_eq!(mem[prog.addr_of("wins")], 50);
        assert_eq!(core.stats.cas_ops, 50);
    }

    #[test]
    fn rob_size_bounds_inflight_work() {
        let p = sum_program();
        let prog = compile(&p);
        let (_, small) = run_core(
            &prog,
            CoreConfig {
                rob_size: 4,
                ..CoreConfig::default()
            },
            200,
            5_000_000,
        );
        let (_, large) = run_core(
            &prog,
            CoreConfig {
                rob_size: 256,
                ..CoreConfig::default()
            },
            200,
            5_000_000,
        );
        assert!(
            large.stats.finished_at.unwrap() < small.stats.finished_at.unwrap(),
            "bigger ROB must overlap more memory latency"
        );
        assert!(small.stats.rob_full_stall_cycles > 0);
    }
}
