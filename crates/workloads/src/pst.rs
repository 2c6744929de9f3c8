//! `pst` — parallel spanning tree (Bader–Cong), the paper's motivating
//! application (Fig. 3): per-thread Chase–Lev deques for load
//! balancing, CAS to claim nodes, and — as the paper notes — one
//! *full* fence between the `color`/`parent` stores that S-Fence
//! cannot optimise, which limits its gains on this benchmark.

use crate::support::{compile, BuiltWorkload, ScopeMode};
use crate::wsq;
use sfence_isa::ir::*;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct PstParams {
    pub nodes: usize,
    /// Extra random edges beyond the connecting tree.
    pub extra_edges: usize,
    pub threads: usize,
    pub seed: u64,
    pub scope: ScopeMode,
}

/// Generate a connected undirected graph as CSR (host side).
pub fn random_graph(nodes: usize, extra: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = crate::support::Prng::seed_from_u64(seed);
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(nodes - 1 + extra);
    for v in 1..nodes {
        let u = rng.gen_range(0..v);
        edges.push((u, v));
    }
    for _ in 0..extra {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let mut deg = vec![0usize; nodes];
    for &(a, b) in &edges {
        deg[a] += 1;
        deg[b] += 1;
    }
    let mut off = vec![0usize; nodes + 1];
    for v in 0..nodes {
        off[v + 1] = off[v] + deg[v];
    }
    let mut adj = vec![0usize; off[nodes]];
    let mut cur = off.clone();
    for &(a, b) in &edges {
        adj[cur[a]] = b;
        cur[a] += 1;
        adj[cur[b]] = a;
        cur[b] += 1;
    }
    (off, adj)
}

/// Emit the work-stealing worker skeleton shared by pst and ptc:
/// take from the own queue, else try stealing from every other queue,
/// leaving the task (or EMPTY/ABORT) in local `"task"`.
pub(crate) fn emit_acquire_task(b: &mut BlockBuilder, tid: usize, threads: usize) {
    b.call_ret("task", "Wsq::take", &[c(tid as i64)]);
    b.if_(l("task").le(c(0)), move |f| {
        for v in 0..threads {
            if v == tid {
                continue;
            }
            f.if_(l("task").le(c(0)), move |s| {
                s.call_ret("task", "Wsq::steal", &[c(v as i64)]);
            });
        }
    });
}

/// Build the pst benchmark.
///
/// Invariants: every node claimed exactly once (`COLOR[u] != 0`), the
/// `PARENT` pointers form a spanning tree over real edges rooted at
/// node 0, and the processed counter reaches N.
pub fn build(params: PstParams) -> BuiltWorkload {
    let n = params.nodes;
    let threads = params.threads;
    let (off, adj) = random_graph(n, params.extra_edges, params.seed);
    let cap = n.next_power_of_two().max(16);

    let mut p = IrProgram::new();
    let q = wsq::register(&mut p, threads, cap, params.scope);
    // One node per cache line: graph stores are the long-latency
    // accesses the paper's motivation rests on (no data locality).
    let color = p.shared_array("COLOR", n * 8);
    let parent = p.shared_array("PARENT", n * 8);
    let nproc = p.shared_line("NPROC");
    let adj_off = p.shared_array("ADJ_OFF", n + 1);
    let adj_arr = p.shared_array("ADJ", adj.len().max(1));
    for (i, &o) in off.iter().enumerate() {
        p.init_elem(adj_off, i, o as i64);
    }
    for (i, &a) in adj.iter().enumerate() {
        p.init_elem(adj_arr, i, a as i64);
    }
    // Seed: node 0 claimed by thread 0 and queued on queue 0.
    p.init_elem(color, 0, 1);
    p.init(nproc, 1);
    // BUF[0] = task 1 (node 0), TAIL[0] = 1.
    {
        // Direct writes into the queue's storage.
        let buf = q.buf;
        let tails = q.tails;
        p.init_elem(buf, 0, 1);
        p.init_elem(tails, 0, 1);
    }

    for t in 0..threads {
        let n64 = n as i64;
        p.thread(move |b| {
            b.while_(ld(nproc.cell()).lt(c(n64)), move |w| {
                emit_acquire_task(w, t, threads);
                w.if_(l("task").gt(c(0)), move |body| {
                    body.let_("v", l("task").sub(c(1)));
                    body.let_("i", ld(adj_off.at(l("v"))));
                    body.let_("end", ld(adj_off.at(l("v").add(c(1)))));
                    body.while_(l("i").lt(l("end")), move |scan| {
                        scan.let_("u", ld(adj_arr.at(l("i"))));
                        scan.cas("claimed", color.at(l("u").mul(c(8))), c(0), c(t as i64 + 1));
                        scan.if_(l("claimed").eq(c(1)), move |cl| {
                            // Fig. 3 segment (2): the paper requires a
                            // full fence *between* the color and
                            // parent stores under relaxed models; the
                            // parent store is therefore still
                            // outstanding when put's class fence runs
                            // — which is exactly what limits S-Fence
                            // on pst (§VI-B).
                            cl.fence(); // full fence: outside any scope
                            cl.store(parent.at(l("u").mul(c(8))), l("v").add(c(1)));
                            cl.call("Wsq::put", &[c(t as i64), l("u").add(c(1))]);
                            // processed-count fetch-and-increment
                            cl.let_("got", c(0));
                            cl.while_(l("got").eq(c(0)), move |ww| {
                                ww.let_("cur", ld(nproc.cell()));
                                ww.cas("got", nproc.cell(), l("cur"), l("cur").add(c(1)));
                            });
                        });
                        scan.assign("i", l("i").add(c(1)));
                    });
                });
            });
            b.halt();
        });
    }

    let program = compile(&p);
    let (off_chk, adj_chk) = (off, adj);
    BuiltWorkload {
        name: "pst".into(),
        program,
        check: Box::new(move |prog, mem| {
            let color_base = prog.addr_of("COLOR");
            let parent_base = prog.addr_of("PARENT");
            if mem[prog.addr_of("NPROC")] != n as i64 {
                return Err(format!(
                    "processed {} of {n} nodes",
                    mem[prog.addr_of("NPROC")]
                ));
            }
            for u in 0..n {
                if mem[color_base + u * 8] == 0 {
                    return Err(format!("node {u} never claimed"));
                }
            }
            // PARENT must form a tree over real edges, rooted at 0.
            for u in 1..n {
                let pv = mem[parent_base + u * 8] - 1;
                if pv < 0 || pv as usize >= n {
                    return Err(format!("node {u} has bogus parent {pv}"));
                }
                let pv = pv as usize;
                if !adj_chk[off_chk[u]..off_chk[u + 1]].contains(&pv) {
                    return Err(format!("parent {pv} of {u} is not a neighbour"));
                }
            }
            // Acyclic: walk each node to the root with a bound.
            for mut u in 1..n {
                for hop in 0..=n {
                    if u == 0 {
                        break;
                    }
                    if hop == n {
                        return Err("parent cycle".into());
                    }
                    u = (mem[parent_base + u * 8] - 1) as usize;
                }
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
    fn spanning_tree_valid_under_all_configs() {
        let w = build(PstParams {
            nodes: 200,
            extra_edges: 200,
            threads: 4,
            seed: 7,
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
    fn single_thread_works() {
        let w = build(PstParams {
            nodes: 120,
            extra_edges: 60,
            threads: 1,
            seed: 3,
            scope: ScopeMode::Class,
        });
        run(&w, cfg(FenceConfig::SFENCE, 1));
    }

    #[test]
    fn graph_generator_is_connected_and_consistent() {
        let (off, adj) = random_graph(300, 100, 9);
        assert_eq!(off.len(), 301);
        assert_eq!(*off.last().unwrap(), adj.len());
        // Connectivity: BFS from 0 reaches everything.
        let mut seen = vec![false; 300];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &u in &adj[off[v]..off[v + 1]] {
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
