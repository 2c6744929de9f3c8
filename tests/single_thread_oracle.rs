//! Property tests: for *single-threaded* programs, the out-of-order
//! machine must produce exactly the reference interpreter's final
//! memory, no matter which fence configuration or timing knob is in
//! effect — reordering must never change single-thread semantics.
//!
//! The container has no property-testing crate, so random programs
//! come from the workloads' deterministic PRNG: every case is
//! reproducible from its printed seed.

use fence_scoping::isa::interp::run_single;
use fence_scoping::prelude::*;
use fence_scoping::workloads::support::Prng;

/// A random straight-line-with-loops program over a few globals.
#[derive(Debug, Clone)]
enum Op {
    Store(usize, i64),
    AddToLocal(usize),
    LoadInto(usize),
    CasCell(usize, i64, i64),
    Fence(u8),
    LoopAccum(u8),
    CallHelper(i64),
}

fn gen_op(rng: &mut Prng) -> Op {
    match rng.gen_range(0..7) {
        0 => Op::Store(rng.gen_range(0..6), rng.gen_range(0..100) as i64 - 50),
        1 => Op::AddToLocal(rng.gen_range(0..6)),
        2 => Op::LoadInto(rng.gen_range(0..6)),
        3 => Op::CasCell(
            rng.gen_range(0..6),
            rng.gen_range(0..4) as i64 - 2,
            rng.gen_range(0..100) as i64 - 50,
        ),
        4 => Op::Fence(rng.gen_range(0..3) as u8),
        5 => Op::LoopAccum(rng.gen_range(1..5) as u8),
        _ => Op::CallHelper(rng.gen_range(0..40) as i64 - 20),
    }
}

fn gen_ops(seed: u64, max_len: usize) -> Vec<Op> {
    let mut rng = Prng::seed_from_u64(seed);
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| gen_op(&mut rng)).collect()
}

fn build_program(ops: &[Op]) -> Program {
    let mut p = IrProgram::new();
    let globals: Vec<Global> = (0..6).map(|i| p.shared_line(&format!("g{i}"))).collect();
    let sum = p.global_line("sum");
    let cls = p.class("Helper");
    {
        let g0 = globals[0];
        p.method(cls, "bump", &["v"], move |b| {
            b.store(g0.cell(), ld(g0.cell()).add(l("v")));
            b.fence_class();
            b.ret(Some(ld(g0.cell())));
        });
    }
    let ops = ops.to_vec();
    p.thread(move |b| {
        b.let_("acc", c(1));
        for op in &ops {
            match *op {
                Op::Store(g, v) => b.store(globals[g].cell(), l("acc").add(c(v))),
                Op::AddToLocal(g) => b.assign("acc", l("acc").add(ld(globals[g].cell()))),
                Op::LoadInto(g) => b.let_("tmp", ld(globals[g].cell()).mul(c(3))),
                Op::CasCell(g, e, n) => b.cas("ok", globals[g].cell(), c(e), c(n)),
                Op::Fence(0) => b.fence(),
                Op::Fence(1) => b.fence_set(&[globals[0], globals[1]]),
                Op::Fence(_) => b.call("Helper::bump", &[c(1)]),
                Op::LoopAccum(n) => {
                    b.let_("i", c(0));
                    b.while_(l("i").lt(c(n as i64)), |w| {
                        w.assign("acc", l("acc").mul(c(3)).add(c(1)));
                        w.assign("i", l("i").add(c(1)));
                    });
                }
                Op::CallHelper(v) => b.call_ret("acc", "Helper::bump", &[c(v)]),
            }
        }
        b.store(sum.cell(), l("acc"));
        b.halt();
    });
    p.compile().expect("compiles")
}

fn reference_memory(prog: &Program) -> Vec<i64> {
    let mut ref_mem = prog.initial_memory();
    run_single(prog, 0, &mut ref_mem, 10_000_000).expect("reference runs");
    ref_mem
}

#[test]
fn ooo_machine_matches_reference() {
    for seed in 0..48u64 {
        let ops = gen_ops(seed, 25);
        let prog = build_program(&ops);
        let ref_mem = reference_memory(&prog);
        for fence in [
            FenceConfig::TRADITIONAL,
            FenceConfig::SFENCE,
            FenceConfig::SFENCE_SPEC,
        ] {
            let report = Session::for_program(&prog)
                .cores(1)
                .fence(fence)
                .max_cycles(50_000_000)
                .run();
            assert_eq!(report.exit, RunExit::Completed, "seed {seed}");
            assert_eq!(report.mem, ref_mem, "seed {seed}, config {}", fence.label());
        }
    }
}

#[test]
fn traces_always_conform_to_fig5_semantics() {
    // Non-speculative configs must satisfy the S-Fence definition
    // exactly; the conformance checker replays the Fig. 5 rules.
    for seed in 100..132u64 {
        let ops = gen_ops(seed, 20);
        let prog = build_program(&ops);
        for fence in [FenceConfig::TRADITIONAL, FenceConfig::SFENCE] {
            let report = Session::for_program(&prog)
                .cores(1)
                .fence(fence)
                .max_cycles(50_000_000)
                .trace()
                .run();
            for t in &report.traces {
                if let Err(v) = fence_scoping::core::check_trace(t) {
                    panic!("seed {seed}: violation under {}: {v}", fence.label());
                }
            }
        }
    }
}
