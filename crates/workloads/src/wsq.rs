//! `wsq` — the Chase–Lev work-stealing deque (paper Fig. 2), with
//! **class scope**: the `storestore` fence in `put` and the
//! `storeload` fence in `take` only order the queue's own variables.
//!
//! The queue is registered as a class whose methods take a queue index
//! `q`, so one registration serves both the Fig. 12 harness (one
//! queue, one owner, thieves) and the full applications `pst`/`ptc`
//! (one queue per thread).

use crate::support::{
    compile, declare_padding, declare_padding_locals, emit_padding, BuiltWorkload, ScopeMode,
};
use sfence_isa::ir::*;

/// Handles to the queue's storage.
#[derive(Debug, Clone, Copy)]
pub struct Wsq {
    /// `HEAD[q * 8]` — head indices, line-padded per queue.
    pub heads: Global,
    /// `TAIL[q * 8]` — tail indices, line-padded per queue.
    pub tails: Global,
    /// `BUF[q * cap + (i & (cap-1))]` — the cyclic arrays.
    pub buf: Global,
    pub cap: usize,
}

/// Task value returned by `take`/`steal` for an empty queue.
pub const EMPTY: i64 = 0;
/// Task value returned by `steal` when its CAS lost a race.
pub const ABORT: i64 = -1;

/// Register the `Wsq` class (methods `Wsq::put`, `Wsq::take`,
/// `Wsq::steal`) for `nq` queues of capacity `cap` (power of two).
/// Tasks must be positive.
pub fn register(p: &mut IrProgram, nq: usize, cap: usize, mode: ScopeMode) -> Wsq {
    assert!(cap.is_power_of_two());
    let heads = p.shared_array("WSQ_HEAD", nq * 8);
    let tails = p.shared_array("WSQ_TAIL", nq * 8);
    let buf = p.shared_array("WSQ_BUF", nq * cap);
    let cls = p.class("Wsq");
    let mask = (cap - 1) as i64;
    let capi = cap as i64;

    let fence = move |b: &mut BlockBuilder| match mode {
        ScopeMode::Class => b.fence_class(),
        ScopeMode::Set => b.fence_set(&[heads, tails, buf]),
    };

    // put(q, task) — Fig. 2 lines 1-6.
    p.method(cls, "put", &["q", "task"], move |b| {
        b.let_("tail", ld(tails.at(l("q").mul(c(8)))));
        b.store(
            buf.at(l("q").mul(c(capi)).add(l("tail").bitand(c(mask)))),
            l("task"),
        );
        fence(b); // storestore: task visible before TAIL moves
        b.store(tails.at(l("q").mul(c(8))), l("tail").add(c(1)));
    });

    // take(q) — Fig. 2 lines 7-25.
    p.method(cls, "take", &["q"], move |b| {
        b.let_("tail", ld(tails.at(l("q").mul(c(8)))).sub(c(1)));
        b.store(tails.at(l("q").mul(c(8))), l("tail"));
        fence(b); // storeload: TAIL store vs HEAD load
        b.let_("head", ld(heads.at(l("q").mul(c(8)))));
        b.if_(l("tail").lt(l("head")), move |t| {
            t.store(tails.at(l("q").mul(c(8))), l("head"));
            t.ret(Some(c(EMPTY)));
        });
        b.let_(
            "task",
            ld(buf.at(l("q").mul(c(capi)).add(l("tail").bitand(c(mask))))),
        );
        b.if_(l("tail").gt(l("head")), |t| {
            t.ret(Some(l("task")));
        });
        // Last element: race against thieves.
        b.store(tails.at(l("q").mul(c(8))), l("head").add(c(1)));
        b.cas(
            "won",
            heads.at(l("q").mul(c(8))),
            l("head"),
            l("head").add(c(1)),
        );
        b.if_(l("won").eq(c(0)), |t| {
            t.ret(Some(c(EMPTY)));
        });
        b.store(tails.at(l("q").mul(c(8))), l("tail").add(c(1)));
        b.ret(Some(l("task")));
    });

    // steal(q) — Fig. 2 lines 26-36 (plus the RMO head->tail fence).
    p.method(cls, "steal", &["q"], move |b| {
        b.let_("head", ld(heads.at(l("q").mul(c(8)))));
        fence(b); // loadload under RMO: head before tail
        b.let_("tail", ld(tails.at(l("q").mul(c(8)))));
        b.if_(l("head").ge(l("tail")), |t| {
            t.ret(Some(c(EMPTY)));
        });
        b.let_(
            "task",
            ld(buf.at(l("q").mul(c(capi)).add(l("head").bitand(c(mask))))),
        );
        b.cas(
            "won",
            heads.at(l("q").mul(c(8))),
            l("head"),
            l("head").add(c(1)),
        );
        b.if_(l("won").eq(c(0)), |t| {
            t.ret(Some(c(ABORT)));
        });
        b.ret(Some(l("task")));
    });

    Wsq {
        heads,
        tails,
        buf,
        cap,
    }
}

/// Parameters for the Fig. 12 wsq harness.
#[derive(Debug, Clone, Copy)]
pub struct WsqParams {
    /// Tasks the owner puts.
    pub tasks: u32,
    /// Thief threads (total threads = thieves + 1).
    pub thieves: usize,
    /// Fig. 12 workload level.
    pub workload: u32,
    pub scope: ScopeMode,
}

/// Build the wsq benchmark: one owner `put`s tasks 1..=N (with private
/// workload between operations) and periodically `take`s; thieves
/// `steal` until the owner drains the queue and raises `DONE`.
///
/// Invariant: every task is consumed exactly once — checked via the
/// count, sum and sum-of-squares of consumed task ids.
pub fn build(params: WsqParams) -> BuiltWorkload {
    let threads = params.thieves + 1;
    let n = params.tasks;
    let cap = (n as usize).next_power_of_two().max(8);
    let mut p = IrProgram::new();
    let q = register(&mut p, 1, cap, params.scope);
    let done = p.shared_line("DONE");
    let sums = p.shared_array("SUMS", threads * 8);
    let cnts = p.shared_array("CNTS", threads * 8);
    let sqs = p.shared_array("SQS", threads * 8);
    let pad = declare_padding(&mut p, threads);
    let _ = q;

    let record = move |b: &mut BlockBuilder, tid: usize| {
        let t8 = (tid * 8) as i64;
        b.if_(l("task").gt(c(0)), move |r| {
            r.store(sums.at(c(t8)), ld(sums.at(c(t8))).add(l("task")));
            r.store(cnts.at(c(t8)), ld(cnts.at(c(t8))).add(c(1)));
            r.store(
                sqs.at(c(t8)),
                ld(sqs.at(c(t8))).add(l("task").mul(l("task"))),
            );
        });
    };

    // Owner.
    let workload = params.workload;
    p.thread(move |b| {
        declare_padding_locals(b, 0);
        b.let_("i", c(1));
        b.while_(l("i").le(c(n as i64)), move |w| {
            w.call("Wsq::put", &[c(0), l("i")]);
            emit_padding(w, pad, 0, workload);
            w.if_(l("i").rem(c(3)).eq(c(0)), move |t| {
                t.call_ret("task", "Wsq::take", &[c(0)]);
                record(t, 0);
            });
            w.assign("i", l("i").add(c(1)));
        });
        // Drain.
        b.loop_(move |d| {
            d.call_ret("task", "Wsq::take", &[c(0)]);
            d.if_(l("task").eq(c(EMPTY)), |x| x.break_());
            record(d, 0);
        });
        b.store(done.cell(), c(1));
        b.halt();
    });

    // Thieves.
    for t in 1..threads {
        let workload = params.workload;
        p.thread(move |b| {
            declare_padding_locals(b, t);
            b.while_(ld(done.cell()).eq(c(0)), move |w| {
                w.call_ret("task", "Wsq::steal", &[c(0)]);
                record(w, t);
                emit_padding(w, pad, t, workload);
            });
            b.halt();
        });
    }

    let program = compile(&p);
    let n64 = n as i64;
    let exp_cnt = n64;
    let exp_sum = n64 * (n64 + 1) / 2;
    let exp_sq: i64 = (1..=n64).map(|i| i * i).sum();
    BuiltWorkload {
        name: "wsq".into(),
        program,
        check: Box::new(move |prog, mem| {
            let read = |name: &str| -> i64 {
                let base = prog.addr_of(name);
                (0..threads).map(|t| mem[base + t * 8]).sum()
            };
            let (cnt, sum, sq) = (read("CNTS"), read("SUMS"), read("SQS"));
            if (cnt, sum, sq) != (exp_cnt, exp_sum, exp_sq) {
                return Err(format!(
                    "task accounting wrong: cnt={cnt}/{exp_cnt} sum={sum}/{exp_sum} sq={sq}/{exp_sq} \
                     (lost or duplicated tasks)"
                ));
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::support::run_for_test as run;
    use sfence_sim::{FenceConfig, MachineConfig};

    fn cfg(fence: FenceConfig, cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::paper_default().with_fence(fence);
        cfg.num_cores = cores;
        cfg.max_cycles = 200_000_000;
        cfg
    }

    #[test]
    fn single_owner_no_thieves_is_a_stack() {
        let w = build(WsqParams {
            tasks: 40,
            thieves: 0,
            workload: 1,
            scope: ScopeMode::Class,
        });
        run(&w, cfg(FenceConfig::SFENCE, 1));
    }

    #[test]
    fn tasks_consumed_exactly_once_under_all_configs() {
        let w = build(WsqParams {
            tasks: 60,
            thieves: 3,
            workload: 2,
            scope: ScopeMode::Class,
        });
        for fence in [
            FenceConfig::TRADITIONAL,
            FenceConfig::SFENCE,
            FenceConfig::TRADITIONAL_SPEC,
            FenceConfig::SFENCE_SPEC,
        ] {
            run(&w, cfg(fence, 4));
        }
    }

    #[test]
    fn set_scope_variant_also_correct() {
        let w = build(WsqParams {
            tasks: 60,
            thieves: 3,
            workload: 2,
            scope: ScopeMode::Set,
        });
        run(&w, cfg(FenceConfig::SFENCE, 4));
    }

    #[test]
    fn sfence_beats_traditional() {
        let w = build(WsqParams {
            tasks: 60,
            thieves: 3,
            workload: 3,
            scope: ScopeMode::Class,
        });
        let t = run(&w, cfg(FenceConfig::TRADITIONAL, 4));
        let s = run(&w, cfg(FenceConfig::SFENCE, 4));
        assert!(
            s.timed_cycles() < t.timed_cycles(),
            "S ({}) must beat T ({})",
            s.timed_cycles(),
            t.timed_cycles()
        );
    }
}
