//! `dekker` — Dekker's mutual-exclusion algorithm (paper Fig. 11),
//! with **set scope**: the fences name exactly the synchronisation
//! variables (`flag0`, `flag1`, `turn`, plus the protected counter),
//! so the workload's private accesses never stall them.

use crate::support::{
    compile, declare_padding, declare_padding_locals, emit_padding, BuiltWorkload,
};
use sfence_isa::ir::*;

/// Parameters for the dekker harness.
#[derive(Debug, Clone, Copy)]
pub struct DekkerParams {
    /// Critical-section entries per thread.
    pub iters: u32,
    /// Fig. 12 workload level (private work between entries).
    pub workload: u32,
}

/// Build the two-thread dekker benchmark. The invariant is exact
/// mutual exclusion: the non-atomic read-modify-write of `COUNT`
/// inside the critical section loses updates iff two threads are ever
/// inside simultaneously, so `COUNT == 2 * iters` at the end.
pub fn build(params: DekkerParams) -> BuiltWorkload {
    let mut p = IrProgram::new();
    let flags = [p.shared_line("flag0"), p.shared_line("flag1")];
    let turn = p.shared_line("turn");
    let count = p.shared_line("COUNT");
    let pad = declare_padding(&mut p, 2);

    for me in 0..2usize {
        let other = 1 - me;
        let my_flag = flags[me];
        let other_flag = flags[other];
        let iters = params.iters;
        let workload = params.workload;
        p.thread(move |b| {
            declare_padding_locals(b, me);
            b.let_("i", c(0));
            b.while_(l("i").lt(c(iters as i64)), move |w| {
                // The paper's point: this work is outside the fences'
                // scope and must not stall them.
                emit_padding(w, pad, me, workload);

                // --- entry protocol ---
                w.store(my_flag.cell(), c(1));
                w.fence_set(&[flags[0], flags[1], turn, count]);
                w.loop_(move |spin| {
                    spin.if_(ld(other_flag.cell()).eq(c(0)), |exit| exit.break_());
                    spin.if_(ld(turn.cell()).ne(c(me as i64)), move |back| {
                        back.store(my_flag.cell(), c(0));
                        back.spin_until(ld(turn.cell()).eq(c(me as i64)));
                        back.store(my_flag.cell(), c(1));
                        back.fence_set(&[flags[0], flags[1], turn, count]);
                    });
                });
                // Acquire: the critical-section load below must not
                // have been satisfied before the flag check.
                w.fence_set(&[flags[0], flags[1], turn, count]);

                // --- critical section: non-atomic increment ---
                w.let_("tmp", ld(count.cell()));
                w.store(count.cell(), l("tmp").add(c(1)));

                // Release: the COUNT store must be visible before the
                // flag is dropped.
                w.fence_set(&[flags[0], flags[1], turn, count]);
                w.store(turn.cell(), c(other as i64));
                w.store(my_flag.cell(), c(0));

                w.assign("i", l("i").add(c(1)));
            });
            b.halt();
        });
    }

    let program = compile(&p);
    let total = 2 * params.iters as i64;
    BuiltWorkload {
        name: "dekker".into(),
        program,
        check: Box::new(move |prog, mem| {
            let got = mem[prog.addr_of("COUNT")];
            if got == total {
                Ok(())
            } else {
                Err(format!(
                    "mutual exclusion violated: COUNT = {got}, expected {total}"
                ))
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::run_for_test as run;
    use sfence_sim::{FenceConfig, MachineConfig};

    fn cfg(fence: FenceConfig) -> MachineConfig {
        let mut cfg = MachineConfig::paper_default().with_fence(fence);
        cfg.num_cores = 2;
        cfg.max_cycles = 80_000_000;
        cfg
    }

    #[test]
    fn correct_under_all_fence_configs() {
        let w = build(DekkerParams {
            iters: 25,
            workload: 2,
        });
        for fence in [
            FenceConfig::TRADITIONAL,
            FenceConfig::SFENCE,
            FenceConfig::TRADITIONAL_SPEC,
            FenceConfig::SFENCE_SPEC,
        ] {
            run(&w, cfg(fence)); // panics on violation
        }
    }

    #[test]
    fn sfence_is_faster_with_private_workload() {
        let w = build(DekkerParams {
            iters: 25,
            workload: 3,
        });
        let t = run(&w, cfg(FenceConfig::TRADITIONAL));
        let s = run(&w, cfg(FenceConfig::SFENCE));
        assert!(
            s.timed_cycles() < t.timed_cycles(),
            "S ({}) must beat T ({})",
            s.timed_cycles(),
            t.timed_cycles()
        );
    }

    /// The paper's Fig. 11 *simplified* Dekker (flags only, skip on
    /// contention). Without the fence, store buffering lets both
    /// threads read the other's flag as 0 and enter together, losing
    /// counter updates; with a full fence, entries are exclusive and
    /// the counter matches the granted entries exactly. This is the
    /// machine-level evidence that the dekker benchmark exercises the
    /// memory model.
    fn simplified_dekker(fenced: bool) -> (i64, i64) {
        let mut p = IrProgram::new();
        let flags = [p.shared_line("flag0"), p.shared_line("flag1")];
        let count = p.shared_line("COUNT");
        let entered = p.shared_array("ENTERED", 16);
        for me in 0..2usize {
            let other = 1 - me;
            p.thread(move |b| {
                // Warm both flag lines so loads hit in L1 while the
                // flag stores sit in the store buffer.
                b.let_("w0", ld(flags[0].cell()));
                b.let_("w1", ld(flags[1].cell()));
                b.let_("n", c(0));
                b.let_("i", c(0));
                b.while_(l("i").lt(c(30)), move |w| {
                    w.store(flags[me].cell(), c(1));
                    if fenced {
                        w.fence();
                    }
                    w.if_(ld(flags[other].cell()).eq(c(0)), move |cs| {
                        // critical section
                        cs.let_("tmp", ld(count.cell()));
                        cs.store(count.cell(), l("tmp").add(c(1)));
                        cs.assign("n", l("n").add(c(1)));
                    });
                    if fenced {
                        w.fence(); // release: COUNT before flag drop
                    }
                    w.store(flags[me].cell(), c(0));
                    // Give the other thread a window.
                    w.let_("spin", c(0));
                    w.while_(l("spin").lt(c(8)), |sp| {
                        sp.assign("spin", l("spin").add(c(1)));
                    });
                    w.assign("i", l("i").add(c(1)));
                });
                b.store(entered.at(c((me * 8) as i64)), l("n"));
                b.halt();
            });
        }
        let prog = compile(&p);
        let report = sfence_harness::Session::for_program(&prog)
            .config(cfg(FenceConfig::SFENCE))
            .run();
        assert_eq!(report.exit, sfence_sim::RunExit::Completed);
        let mem = &report.mem;
        let granted = mem[prog.addr_of("ENTERED")] + mem[prog.addr_of("ENTERED") + 8];
        (mem[prog.addr_of("COUNT")], granted)
    }

    #[test]
    fn fenceless_dekker_loses_updates() {
        let (count, granted) = simplified_dekker(false);
        assert!(
            count < granted,
            "expected lost updates without fences: COUNT={count}, granted={granted}"
        );
    }

    #[test]
    fn fenced_simplified_dekker_is_exact() {
        let (count, granted) = simplified_dekker(true);
        assert_eq!(count, granted, "fenced entries must be exclusive");
    }
}
