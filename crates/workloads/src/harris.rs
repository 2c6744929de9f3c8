//! `harris` — Harris's lock-free sorted linked-list set, with **class
//! scope**: the publish fence in `insert` (node fields before the link
//! CAS) only orders the list's own variables.
//!
//! Deleted nodes are *logically* marked (low bit of the next pointer)
//! and unlinked best-effort, exactly as in the original algorithm.
//! Nodes come from allocate-only per-thread pools (no reclamation →
//! no ABA).
//!
//! Pointer encoding: `NEXT[n] = node_index * 2 + mark`; `-2` encodes
//! null (never appears inside the list because of the tail sentinel).

use crate::support::{
    compile, declare_padding, declare_padding_locals, emit_padding, BuiltWorkload, ScopeMode,
};
use sfence_isa::ir::*;

/// Storage handles. Node 0 is the head sentinel (key -1), node 1 the
/// tail sentinel (key `KEY_MAX`).
#[derive(Debug, Clone, Copy)]
pub struct Harris {
    pub val: Global,
    pub next: Global,
}

/// Sentinel key of the tail node; user keys must be smaller.
pub const KEY_MAX: i64 = 1 << 40;

/// Register the `Harris` class (methods `Harris::search`,
/// `Harris::insert`, `Harris::remove`, `Harris::contains`).
///
/// `Harris::search(key)` returns `left * 2^20 + right` (node indices);
/// insert/remove return 1 on success, 0 otherwise. `n` arguments are
/// caller-allocated node indices.
pub fn register(p: &mut IrProgram, pool: usize, mode: ScopeMode) -> Harris {
    assert!(pool < (1 << 20));
    let val = p.shared_array("HAR_VAL", pool);
    let next = p.shared_array("HAR_NEXT", pool);
    let cls = p.class("Harris");
    // head(0) -> tail(1); tail.next = null(-2).
    p.init_elem(val, 0, -1);
    p.init_elem(val, 1, KEY_MAX);
    p.init_elem(next, 0, 2); // pack(1, 0)
    p.init_elem(next, 1, -2);
    const PACK: i64 = 1 << 20;

    let fence = move |b: &mut BlockBuilder| match mode {
        ScopeMode::Class => b.fence_class(),
        ScopeMode::Set => b.fence_set(&[val, next]),
    };

    // search(key) -> left*PACK + right, with marked-chain cleanup.
    p.method(cls, "search", &["key"], move |b| {
        b.loop_(move |retry| {
            // Walk from the head, remembering the last unmarked node.
            retry.let_("left", c(0));
            retry.let_("left_next", ld(next.at(c(0))));
            retry.let_("t", l("left_next").shr(c(1)));
            retry.let_("t_next", ld(next.at(l("t"))));
            retry.loop_(move |walk| {
                walk.if_(
                    l("t_next")
                        .bitand(c(1))
                        .eq(c(0))
                        .bitand(ld(val.at(l("t"))).ge(l("key"))),
                    |x| x.break_(),
                );
                walk.if_(l("t_next").bitand(c(1)).eq(c(0)), move |un| {
                    un.assign("left", l("t"));
                    un.assign("left_next", l("t_next"));
                });
                walk.assign("t", l("t_next").shr(c(1)));
                walk.assign("t_next", ld(next.at(l("t"))));
            });
            retry.let_("right", l("t"));
            // Adjacent already?
            retry.if_(l("left_next").shr(c(1)).eq(l("right")), move |ok| {
                ok.ret(Some(l("left").mul(c(PACK)).add(l("right"))));
            });
            // Unlink the marked chain between left and right.
            retry.cas(
                "cleaned",
                next.at(l("left")),
                l("left_next"),
                l("right").mul(c(2)),
            );
            retry.if_(l("cleaned").eq(c(1)), move |ok| {
                ok.ret(Some(l("left").mul(c(PACK)).add(l("right"))));
            });
            // Lost a race: retry the walk.
        });
    });

    // insert(n, key): n is a fresh caller-owned node.
    p.method(cls, "insert", &["n", "key"], move |b| {
        b.loop_(move |lp| {
            lp.call_ret("pr", "Harris::search", &[l("key")]);
            lp.let_("left", l("pr").div(c(PACK)));
            lp.let_("right", l("pr").rem(c(PACK)));
            lp.if_(ld(val.at(l("right"))).eq(l("key")), |x| {
                x.ret(Some(c(0))); // already present
            });
            lp.store(val.at(l("n")), l("key"));
            lp.store(next.at(l("n")), l("right").mul(c(2)));
            fence(lp); // publish node fields before linking
            lp.cas(
                "linked",
                next.at(l("left")),
                l("right").mul(c(2)),
                l("n").mul(c(2)),
            );
            lp.if_(l("linked").eq(c(1)), |x| {
                x.ret(Some(c(1)));
            });
        });
    });

    // remove(key): logical delete (mark), then best-effort unlink.
    p.method(cls, "remove", &["key"], move |b| {
        b.loop_(move |lp| {
            lp.call_ret("pr", "Harris::search", &[l("key")]);
            lp.let_("left", l("pr").div(c(PACK)));
            lp.let_("right", l("pr").rem(c(PACK)));
            lp.if_(ld(val.at(l("right"))).ne(l("key")), |x| {
                x.ret(Some(c(0))); // absent
            });
            lp.let_("rnext", ld(next.at(l("right"))));
            lp.if_(l("rnext").bitand(c(1)).eq(c(0)), move |unmarked| {
                unmarked.cas(
                    "marked",
                    next.at(l("right")),
                    l("rnext"),
                    l("rnext").bitor(c(1)),
                );
                unmarked.if_(l("marked").eq(c(1)), move |won| {
                    // Best-effort physical unlink; search cleans up on
                    // failure.
                    won.cas(
                        "unlinked",
                        next.at(l("left")),
                        l("right").mul(c(2)),
                        l("rnext"),
                    );
                    won.ret(Some(c(1)));
                });
            });
        });
    });

    // contains(key).
    p.method(cls, "contains", &["key"], move |b| {
        b.call_ret("pr", "Harris::search", &[l("key")]);
        b.let_("right", l("pr").rem(c(PACK)));
        b.ret(Some(ld(val.at(l("right"))).eq(l("key"))));
    });

    Harris { val, next }
}

/// Parameters for the harris harness.
#[derive(Debug, Clone, Copy)]
pub struct HarrisParams {
    /// Operations per thread.
    pub ops: u32,
    pub threads: usize,
    /// Key range (small → contention).
    pub key_range: i64,
    pub workload: u32,
    pub scope: ScopeMode,
}

/// Build the harris benchmark: each thread runs a deterministic
/// per-thread mix of inserts and removes over a small key range,
/// counting successes.
///
/// Invariants (checked by walking the final list on the host): the
/// unmarked list is strictly sorted and duplicate-free, and its size
/// equals `successful inserts - successful removes`.
pub fn build(params: HarrisParams) -> BuiltWorkload {
    let threads = params.threads;
    let pool = 2 + threads * params.ops as usize;
    let mut p = IrProgram::new();
    register(&mut p, pool, params.scope);
    let ins_ok = p.shared_array("INS_OK", threads * 8);
    let del_ok = p.shared_array("DEL_OK", threads * 8);
    let pad = declare_padding(&mut p, threads);

    for t in 0..threads {
        let ops = params.ops;
        let range = params.key_range;
        let workload = params.workload;
        p.thread(move |b| {
            declare_padding_locals(b, t);
            b.let_("rng", c(t as i64 * 1234567 + 89));
            b.let_("alloc", c(2 + (t as i64) * ops as i64));
            b.let_("nins", c(0));
            b.let_("ndel", c(0));
            b.let_("i", c(0));
            b.while_(l("i").lt(c(ops as i64)), move |w| {
                w.assign(
                    "rng",
                    l("rng")
                        .mul(c(6364136223846793005))
                        .add(c(1442695040888963407)),
                );
                w.let_("key", l("rng").shr(c(33)).bitand(c(i64::MAX)).rem(c(range)));
                w.if_else(
                    l("rng").shr(c(13)).bitand(c(1)).eq(c(0)),
                    move |ins| {
                        ins.call_ret("ok", "Harris::insert", &[l("alloc"), l("key")]);
                        ins.assign("alloc", l("alloc").add(l("ok"))); // consume node only on success... but retry reuses
                        ins.assign("nins", l("nins").add(l("ok")));
                    },
                    move |del| {
                        del.call_ret("ok", "Harris::remove", &[l("key")]);
                        del.assign("ndel", l("ndel").add(l("ok")));
                    },
                );
                emit_padding(w, pad, t, workload);
                w.assign("i", l("i").add(c(1)));
            });
            b.store(ins_ok.at(c((t * 8) as i64)), l("nins"));
            b.store(del_ok.at(c((t * 8) as i64)), l("ndel"));
            b.halt();
        });
    }

    let program = compile(&p);
    let key_range = params.key_range;
    BuiltWorkload {
        name: "harris".into(),
        program,
        check: Box::new(move |prog, mem| {
            let val_base = prog.addr_of("HAR_VAL");
            let next_base = prog.addr_of("HAR_NEXT");
            let ins_base = prog.addr_of("INS_OK");
            let del_base = prog.addr_of("DEL_OK");
            let (mut nins, mut ndel) = (0i64, 0i64);
            for t in 0..threads {
                nins += mem[ins_base + t * 8];
                ndel += mem[del_base + t * 8];
            }
            // Walk unmarked nodes from the head sentinel.
            let mut n = (mem[next_base] >> 1) as usize;
            let mut last_key = -1i64;
            let mut size = 0i64;
            let mut hops = 0;
            while mem[val_base + n] != KEY_MAX {
                hops += 1;
                if hops > pool {
                    return Err("cycle in list".into());
                }
                let nx = mem[next_base + n];
                if nx & 1 == 0 {
                    let k = mem[val_base + n];
                    if k <= last_key {
                        return Err(format!("list not strictly sorted: {k} after {last_key}"));
                    }
                    if k < 0 || k >= key_range {
                        return Err(format!("key {k} out of range"));
                    }
                    last_key = k;
                    size += 1;
                }
                n = (nx >> 1) as usize;
            }
            if size != nins - ndel {
                return Err(format!(
                    "size {size} != inserts {nins} - removes {ndel} = {}",
                    nins - ndel
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
        cfg.max_cycles = 400_000_000;
        cfg
    }

    #[test]
    fn single_thread_set_semantics() {
        let w = build(HarrisParams {
            ops: 40,
            threads: 1,
            key_range: 16,
            workload: 1,
            scope: ScopeMode::Class,
        });
        run(&w, cfg(FenceConfig::SFENCE, 1));
    }

    #[test]
    fn concurrent_set_consistent_under_all_configs() {
        let w = build(HarrisParams {
            ops: 20,
            threads: 4,
            key_range: 12,
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
    fn set_scope_variant_correct() {
        let w = build(HarrisParams {
            ops: 20,
            threads: 4,
            key_range: 12,
            workload: 2,
            scope: ScopeMode::Set,
        });
        run(&w, cfg(FenceConfig::SFENCE, 4));
    }
}
