//! `ptc` — parallel transitive closure (reachability from a source
//! over a directed graph, Foster), on the same work-stealing skeleton
//! as `pst` but with substantially more computation per task — which
//! is why the paper's Fig. 13 shows only a small fence-stall fraction
//! for it.

use crate::support::{compile, BuiltWorkload, ScopeMode};
use crate::{pst::emit_acquire_task, wsq};
use sfence_isa::ir::*;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct PtcParams {
    pub nodes: usize,
    /// Directed edges (random).
    pub edges: usize,
    pub threads: usize,
    pub seed: u64,
    /// Per-task compute units (LCG steps + private stores).
    pub task_work: u32,
    pub scope: ScopeMode,
}

/// Generate a random directed graph as CSR plus the host-side
/// reachable set from node 0.
pub fn random_digraph(
    nodes: usize,
    edges: usize,
    seed: u64,
) -> (Vec<usize>, Vec<usize>, Vec<bool>) {
    let mut rng = crate::support::Prng::seed_from_u64(seed);
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    // A guaranteed chain off node 0 for an interesting frontier.
    for v in 1..nodes / 2 {
        out[v - 1].push(v);
    }
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b {
            out[a].push(b);
        }
    }
    let mut off = vec![0usize; nodes + 1];
    for v in 0..nodes {
        off[v + 1] = off[v] + out[v].len();
    }
    let mut adj = vec![0usize; off[nodes]];
    for v in 0..nodes {
        adj[off[v]..off[v + 1]].copy_from_slice(&out[v]);
    }
    // Host BFS.
    let mut reach = vec![false; nodes];
    reach[0] = true;
    let mut stack = vec![0usize];
    while let Some(v) = stack.pop() {
        for &u in &adj[off[v]..off[v + 1]] {
            if !reach[u] {
                reach[u] = true;
                stack.push(u);
            }
        }
    }
    (off, adj, reach)
}

/// Build the ptc benchmark.
///
/// Termination uses a pending-task counter (1 per queued node, +1 for
/// the seeded source). Invariant: the computed `REACH` set equals the
/// host-side BFS exactly.
pub fn build(params: PtcParams) -> BuiltWorkload {
    let n = params.nodes;
    let threads = params.threads;
    let (off, adj, reach) = random_digraph(n, params.edges, params.seed);
    let cap = n.next_power_of_two().max(16);

    let mut p = IrProgram::new();
    let q = wsq::register(&mut p, threads, cap, params.scope);
    let reached = p.shared_array("REACH", n * 8);
    let pending = p.shared_line("PENDING");
    let adj_off = p.shared_array("ADJ_OFF", n + 1);
    let adj_arr = p.shared_array("ADJ", adj.len().max(1));
    let scratch = p.array("SCRATCH", threads * 1024);
    for (i, &o) in off.iter().enumerate() {
        p.init_elem(adj_off, i, o as i64);
    }
    for (i, &a) in adj.iter().enumerate() {
        p.init_elem(adj_arr, i, a as i64);
    }
    p.init_elem(reached, 0, 1);
    p.init(pending, 1);
    p.init_elem(q.buf, 0, 1);
    p.init_elem(q.tails, 0, 1);

    for t in 0..threads {
        let task_work = params.task_work;
        p.thread(move |b| {
            b.let_("acc", c(t as i64 + 1));
            b.while_(ld(pending.cell()).gt(c(0)), move |w| {
                emit_acquire_task(w, t, threads);
                w.if_(l("task").gt(c(0)), move |body| {
                    body.let_("v", l("task").sub(c(1)));
                    // Per-task computation: the "relatively large
                    // workload between fences" of ptc.
                    body.let_("k", c(0));
                    body.while_(l("k").lt(c(task_work as i64)), move |cw| {
                        cw.assign(
                            "acc",
                            l("acc")
                                .mul(c(6364136223846793005))
                                .add(l("v"))
                                .bitxor(l("acc").shr(c(31))),
                        );
                        cw.store(
                            scratch
                                .at(c((t * 1024) as i64)
                                    .add(l("acc").bitand(c(1023)).bitand(c(!7)))),
                            l("acc"),
                        );
                        cw.assign("k", l("k").add(c(1)));
                    });
                    // Relax out-neighbours.
                    body.let_("i", ld(adj_off.at(l("v"))));
                    body.let_("end", ld(adj_off.at(l("v").add(c(1)))));
                    body.while_(l("i").lt(l("end")), move |scan| {
                        scan.let_("u", ld(adj_arr.at(l("i"))));
                        scan.cas("claimed", reached.at(l("u").mul(c(8))), c(0), c(1));
                        scan.if_(l("claimed").eq(c(1)), move |cl| {
                            // pending += 1, then publish the task.
                            cl.let_("got", c(0));
                            cl.while_(l("got").eq(c(0)), move |ww| {
                                ww.let_("cur", ld(pending.cell()));
                                ww.cas("got", pending.cell(), l("cur"), l("cur").add(c(1)));
                            });
                            cl.call("Wsq::put", &[c(t as i64), l("u").add(c(1))]);
                        });
                        scan.assign("i", l("i").add(c(1)));
                    });
                    // Task finished: pending -= 1.
                    body.let_("got2", c(0));
                    body.while_(l("got2").eq(c(0)), move |ww| {
                        ww.let_("cur2", ld(pending.cell()));
                        ww.cas("got2", pending.cell(), l("cur2"), l("cur2").sub(c(1)));
                    });
                });
            });
            b.halt();
        });
    }

    let program = compile(&p);
    BuiltWorkload {
        name: "ptc".into(),
        program,
        check: Box::new(move |prog, mem| {
            let base = prog.addr_of("REACH");
            for v in 0..n {
                let got = mem[base + v * 8] != 0;
                if got != reach[v] {
                    return Err(format!(
                        "node {v}: simulated reach={got}, reference={}",
                        reach[v]
                    ));
                }
            }
            if mem[prog.addr_of("PENDING")] != 0 {
                return Err("pending counter nonzero at exit".into());
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
        cfg.max_cycles = 500_000_000;
        cfg
    }

    #[test]
    fn closure_matches_host_bfs_under_all_configs() {
        let w = build(PtcParams {
            nodes: 200,
            edges: 500,
            threads: 4,
            seed: 5,
            task_work: 6,
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
    fn unreachable_nodes_stay_unreached() {
        // A graph with guaranteed unreachable tail half.
        let w = build(PtcParams {
            nodes: 150,
            edges: 0, // only the built-in chain over the first half
            threads: 2,
            seed: 1,
            task_work: 2,
            scope: ScopeMode::Class,
        });
        let mem = run(&w, cfg(FenceConfig::SFENCE, 2)).mem;
        let base = w.program.addr_of("REACH");
        assert_eq!(mem[base + 149 * 8], 0, "tail node must be unreachable");
        assert_eq!(mem[base + 30 * 8], 1, "chain node must be reachable");
    }
}
