//! `msn` — the Michael–Scott non-blocking queue (multiple producers,
//! multiple consumers), with **class scope**: the publish fence in
//! `enqueue` (node fields before the link CAS) and the validation
//! fence in `dequeue` only order the queue's own variables.
//!
//! Nodes come from per-thread allocate-only pools (no reclamation →
//! no ABA; see DESIGN.md substitutions).

use crate::support::{
    compile, declare_padding, declare_padding_locals, emit_padding, BuiltWorkload, ScopeMode,
};
use sfence_isa::ir::*;

/// Storage handles.
#[derive(Debug, Clone, Copy)]
pub struct Msn {
    pub qhead: Global,
    pub qtail: Global,
    pub val: Global,
    pub next: Global,
}

/// Register the `Msn` class (methods `Msn::enqueue`, `Msn::dequeue`).
/// `pool` is the total node count (node 0 is the initial dummy).
/// Threads allocate from disjoint ranges via the local `alloc_cur`.
pub fn register(p: &mut IrProgram, pool: usize, mode: ScopeMode) -> Msn {
    let qhead = p.shared_line("MSN_HEAD");
    let qtail = p.shared_line("MSN_TAIL");
    let val = p.shared_array("MSN_VAL", pool);
    let next = p.shared_array("MSN_NEXT", pool);
    let cls = p.class("Msn");
    // Dummy node 0: next = -1 (null); HEAD = TAIL = 0.
    p.init_elem(next, 0, -1);

    let fence = move |b: &mut BlockBuilder| match mode {
        ScopeMode::Class => b.fence_class(),
        ScopeMode::Set => b.fence_set(&[qhead, qtail, val, next]),
    };

    // enqueue(n, v): n is a fresh node index owned by the caller.
    p.method(cls, "enqueue", &["n", "v"], move |b| {
        b.store(val.at(l("n")), l("v"));
        b.store(next.at(l("n")), c(-1));
        fence(b); // publish node fields before the link CAS
        b.loop_(move |lp| {
            lp.let_("t", ld(qtail.cell()));
            lp.let_("nx", ld(next.at(l("t"))));
            // Classic MS consistency check: t still the tail?
            lp.if_(l("t").ne(ld(qtail.cell())), |x| x.continue_());
            lp.if_else(
                l("nx").eq(c(-1)),
                move |tb| {
                    tb.cas("linked", next.at(l("t")), c(-1), l("n"));
                    tb.if_(l("linked").eq(c(1)), |x| x.break_());
                },
                move |eb| {
                    // Tail lags: help swing it forward.
                    eb.cas("helped", qtail.cell(), l("t"), l("nx"));
                },
            );
        });
        b.cas("swung", qtail.cell(), l("t"), l("n"));
    });

    // dequeue() -> value, or 0 when empty.
    p.method(cls, "dequeue", &[], move |b| {
        b.loop_(move |lp| {
            lp.let_("h", ld(qhead.cell()));
            lp.let_("t", ld(qtail.cell()));
            lp.let_("nx", ld(next.at(l("h"))));
            fence(lp); // validate: loads above ordered before the checks
                       // Classic MS consistency check: h still the head? (Also
                       // guards the val/CAS below against a stale nx.)
            lp.if_(l("h").ne(ld(qhead.cell())), |x| x.continue_());
            lp.if_(l("nx").eq(c(-1)).bitand(l("h").ne(l("t"))), |x| {
                x.continue_()
            });
            lp.if_else(
                l("h").eq(l("t")),
                move |tb| {
                    tb.if_(l("nx").eq(c(-1)), |x| {
                        x.ret(Some(c(0))); // empty
                    });
                    tb.cas("helped", qtail.cell(), l("t"), l("nx"));
                },
                move |eb| {
                    eb.let_("v", ld(val.at(l("nx"))));
                    eb.cas("won", qhead.cell(), l("h"), l("nx"));
                    eb.if_(l("won").eq(c(1)), |x| {
                        x.ret(Some(l("v")));
                    });
                },
            );
        });
    });

    Msn {
        qhead,
        qtail,
        val,
        next,
    }
}

/// Parameters for the msn harness.
#[derive(Debug, Clone, Copy)]
pub struct MsnParams {
    /// Items enqueued per producer.
    pub items: u32,
    pub producers: usize,
    pub consumers: usize,
    pub workload: u32,
    pub scope: ScopeMode,
}

/// Build the msn benchmark: producers enqueue tagged values
/// `p * TAG + i`, consumers dequeue into per-consumer logs until
/// everything is accounted for.
///
/// Invariants: the multiset of consumed values equals the produced
/// one, and within each consumer's log the values of any single
/// producer appear in FIFO order.
pub fn build(params: MsnParams) -> BuiltWorkload {
    const TAG: i64 = 1 << 20;
    let threads = params.producers + params.consumers;
    let total = (params.items as usize) * params.producers;
    let pool = 1 + params.producers * params.items as usize;
    let mut p = IrProgram::new();
    register(&mut p, pool, params.scope);
    let consumed = p.shared_line("CONSUMED");
    let logs = p.shared_array("LOGS", params.consumers * total.max(1));
    let log_lens = p.shared_array("LOG_LENS", params.consumers * 8);
    let pad = declare_padding(&mut p, threads);

    // Producers.
    for pr in 0..params.producers {
        let items = params.items;
        let workload = params.workload;
        p.thread(move |b| {
            declare_padding_locals(b, pr);
            // Disjoint node range: [1 + pr*items, ...).
            b.let_("alloc", c(1 + (pr as i64) * items as i64));
            b.let_("i", c(1));
            b.while_(l("i").le(c(items as i64)), move |w| {
                w.call(
                    "Msn::enqueue",
                    &[l("alloc"), c(pr as i64 * TAG).add(l("i"))],
                );
                w.assign("alloc", l("alloc").add(c(1)));
                emit_padding(w, pad, pr, workload);
                w.assign("i", l("i").add(c(1)));
            });
            b.halt();
        });
    }

    // Consumers.
    for co in 0..params.consumers {
        let tid = params.producers + co;
        let workload = params.workload;
        let total64 = total as i64;
        p.thread(move |b| {
            declare_padding_locals(b, tid);
            b.let_("mylen", c(0));
            b.while_(ld(consumed.cell()).lt(c(total64)), move |w| {
                w.call_ret("v", "Msn::dequeue", &[]);
                w.if_(l("v").gt(c(0)), move |t| {
                    t.store(logs.at(c(co as i64 * total64).add(l("mylen"))), l("v"));
                    t.assign("mylen", l("mylen").add(c(1)));
                    // fetch-and-increment CONSUMED
                    t.let_("got", c(0));
                    t.while_(l("got").eq(c(0)), move |ww| {
                        ww.let_("cur", ld(consumed.cell()));
                        ww.cas("got", consumed.cell(), l("cur"), l("cur").add(c(1)));
                    });
                });
                emit_padding(w, pad, tid, workload);
            });
            b.store(log_lens.at(c((co * 8) as i64)), l("mylen"));
            b.halt();
        });
    }

    let program = compile(&p);
    let producers = params.producers;
    let consumers = params.consumers;
    let items = params.items as i64;
    BuiltWorkload {
        name: "msn".into(),
        program,
        check: Box::new(move |prog, mem| {
            let logs_base = prog.addr_of("LOGS");
            let lens_base = prog.addr_of("LOG_LENS");
            let mut seen: Vec<i64> = Vec::new();
            for co in 0..consumers {
                let len = mem[lens_base + co * 8] as usize;
                let base = logs_base + co * total;
                let mut last_per_producer = vec![0i64; producers];
                for k in 0..len {
                    let v = mem[base + k];
                    let pr = (v / TAG) as usize;
                    let seqno = v % TAG;
                    if pr >= producers || seqno < 1 || seqno > items {
                        return Err(format!("consumer {co} saw bogus value {v}"));
                    }
                    if seqno <= last_per_producer[pr] {
                        return Err(format!(
                            "FIFO violated for producer {pr} at consumer {co}: {seqno} after {}",
                            last_per_producer[pr]
                        ));
                    }
                    last_per_producer[pr] = seqno;
                    seen.push(v);
                }
            }
            if seen.len() != total {
                return Err(format!("consumed {} of {total} items", seen.len()));
            }
            seen.sort_unstable();
            seen.dedup();
            if seen.len() != total {
                return Err("duplicate items consumed".into());
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
        cfg.max_cycles = 300_000_000;
        cfg
    }

    #[test]
    fn fifo_and_exactly_once_under_all_configs() {
        let w = build(MsnParams {
            items: 25,
            producers: 2,
            consumers: 2,
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
    fn single_producer_single_consumer() {
        let w = build(MsnParams {
            items: 30,
            producers: 1,
            consumers: 1,
            workload: 1,
            scope: ScopeMode::Class,
        });
        run(&w, cfg(FenceConfig::SFENCE, 2));
    }

    #[test]
    fn set_scope_variant_correct() {
        let w = build(MsnParams {
            items: 20,
            producers: 2,
            consumers: 2,
            workload: 2,
            scope: ScopeMode::Set,
        });
        run(&w, cfg(FenceConfig::SFENCE, 4));
    }

    #[test]
    fn sfence_beats_traditional() {
        let w = build(MsnParams {
            items: 30,
            producers: 2,
            consumers: 2,
            workload: 4,
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
