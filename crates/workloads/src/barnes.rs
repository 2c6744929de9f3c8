//! `barnes` — a Barnes-Hut-style n-body kernel, used as the paper
//! uses SPLASH-2 barnes: a program written for sequential consistency
//! is made SC-safe on the relaxed machine by *fence insertion* (the
//! delay-set pass), and S-Fence with **set scope** flags only the
//! shared conflicting accesses — the dominant private body traffic is
//! never ordered (paper §VI-B).
//!
//! Structure per step: a force phase (each thread reads shared cell
//! summaries, updates its own bodies — private, long-latency), a
//! barrier, a cell-update phase (each thread writes its own cells
//! from its bodies — shared), a barrier. The whole computation is
//! deterministic in lockstep, so the final body positions are checked
//! against an exact host-side replay.

use crate::support::{compile, register_barrier, BuiltWorkload};
use sfence_isa::ir::*;
use sfence_isa::passes::enforce_sc;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct BarnesParams {
    pub bodies_per_thread: usize,
    pub cells_per_thread: usize,
    /// Cells sampled per body in the force phase.
    pub samples: usize,
    pub steps: usize,
    pub threads: usize,
}

/// Exact host-side replay of the kernel (same wrapping arithmetic).
pub fn reference(params: &BarnesParams) -> (Vec<i64>, Vec<i64>) {
    let nb = params.bodies_per_thread * params.threads;
    let nc = params.cells_per_thread * params.threads;
    let mut pos: Vec<i64> = (0..nb)
        .map(|i| (i as i64).wrapping_mul(37) % 1000)
        .collect();
    let mut cell: Vec<i64> = (0..nc).map(|j| (j as i64) * 11 + 5).collect();
    for _ in 0..params.steps {
        // Force phase (reads cells, writes bodies) — phases are
        // barrier-separated so this order is exact.
        let frozen_cells = cell.clone();
        for (i, p) in pos.iter_mut().enumerate() {
            let mut f: i64 = 0;
            for s in 0..params.samples {
                let j = (i * 7 + s * 13) % nc;
                f = f.wrapping_add(frozen_cells[j].wrapping_sub(*p) >> 3);
            }
            *p = p.wrapping_add(f >> 2);
        }
        // Cell phase (reads own bodies, writes own cells).
        let frozen_pos = pos.clone();
        for t in 0..params.threads {
            for cl in 0..params.cells_per_thread {
                let j = t * params.cells_per_thread + cl;
                let mut acc: i64 = 0;
                for k in 0..8 {
                    let b = t * params.bodies_per_thread + (cl * 8 + k) % params.bodies_per_thread;
                    acc = acc.wrapping_add(frozen_pos[b]);
                }
                cell[j] = acc >> 3;
            }
        }
    }
    (pos, cell)
}

/// Build the barnes benchmark.
pub fn build(params: BarnesParams) -> BuiltWorkload {
    let threads = params.threads;
    let nb = params.bodies_per_thread * threads;
    let nc = params.cells_per_thread * threads;
    let bpt = params.bodies_per_thread;
    let cpt = params.cells_per_thread;

    let mut p = IrProgram::new();
    register_barrier(&mut p);
    // Bodies are *private* (each thread touches only its own slice):
    // the delay-set pass leaves them unflagged and unfenced.
    let pos = p.array("BPOS", nb * 8); // one body per line
                                       // Write-only per-thread force log, rotating per step so its
                                       // stores are always cold: the genuinely long-latency private
                                       // traffic a traditional fence stalls on and S-Fence skips.
    let frc = p.array("BFRC", threads * 8192);
    // Cells are shared-conflicting: written by their owner, read by
    // everyone.
    let cell = p.shared_array("CELL", nc);
    for i in 0..nb {
        p.init_elem(pos, i * 8, (i as i64).wrapping_mul(37) % 1000);
    }
    for j in 0..nc {
        p.init_elem(cell, j, (j as i64) * 11 + 5);
    }

    for t in 0..threads {
        let steps = params.steps;
        let samples = params.samples;
        p.thread(move |b| {
            b.let_("bar_sense", c(1));
            b.let_("step", c(0));
            b.while_(l("step").lt(c(steps as i64)), move |w| {
                // ---- force phase over my bodies ----
                w.let_("i", c((t * bpt) as i64));
                w.while_(l("i").lt(c(((t + 1) * bpt) as i64)), move |fb| {
                    fb.let_("f", c(0));
                    for s in 0..samples {
                        // Shared cell read (flagged under set scope):
                        // the sampled index is data-independent.
                        fb.let_(
                            "j",
                            l("i").mul(c(7)).add(c((s * 13) as i64)).rem(c(nc as i64)),
                        );
                        fb.assign(
                            "f",
                            l("f").add(
                                ld(cell.at(l("j")))
                                    .sub(ld(pos.at(l("i").mul(c(8)))))
                                    .shr(c(3)),
                            ),
                        );
                    }
                    // Scattered private force-log store (cold line):
                    // a traditional fence waits for its drain at the
                    // next shared access; a set-scope fence does not.
                    fb.store(
                        frc.at(c((t * 8192) as i64).add(
                            l("step")
                                .mul(c(nb as i64))
                                .add(l("i"))
                                .mul(c(8))
                                .bitand(c(8191)),
                        )),
                        l("f"),
                    );
                    fb.store(
                        pos.at(l("i").mul(c(8))),
                        ld(pos.at(l("i").mul(c(8)))).add(l("f").shr(c(2))),
                    );
                    fb.assign("i", l("i").add(c(1)));
                });
                w.call_ret("bar_sense", "barrier", &[c(threads as i64), l("bar_sense")]);
                // ---- cell phase over my cells ----
                w.let_("cl", c(0));
                w.while_(l("cl").lt(c(cpt as i64)), move |cb| {
                    cb.let_("acc", c(0));
                    for k in 0..8 {
                        cb.let_(
                            "bidx",
                            c((t * bpt) as i64)
                                .add(l("cl").mul(c(8)).add(c(k as i64)).rem(c(bpt as i64))),
                        );
                        cb.assign("acc", l("acc").add(ld(pos.at(l("bidx").mul(c(8))))));
                    }
                    cb.store(
                        cell.at(c((t * cpt) as i64).add(l("cl"))),
                        l("acc").shr(c(3)),
                    );
                    cb.assign("cl", l("cl").add(c(1)));
                });
                w.call_ret("bar_sense", "barrier", &[c(threads as i64), l("bar_sense")]);
                w.assign("step", l("step").add(c(1)));
            });
            b.halt();
        });
    }

    // SC enforcement: the compiler pass that makes this SC-correct on
    // the relaxed machine (paper: delay-set based fence insertion).
    enforce_sc(&mut p);

    let program = compile(&p);
    let (ref_pos, ref_cell) = reference(&params);
    BuiltWorkload {
        name: "barnes".into(),
        program,
        check: Box::new(move |prog, mem| {
            let pos_base = prog.addr_of("BPOS");
            let cell_base = prog.addr_of("CELL");
            for (i, &expect) in ref_pos.iter().enumerate() {
                if mem[pos_base + i * 8] != expect {
                    return Err(format!(
                        "body {i}: got {} expected {expect}",
                        mem[pos_base + i * 8]
                    ));
                }
            }
            for (j, &expect) in ref_cell.iter().enumerate() {
                if mem[cell_base + j] != expect {
                    return Err(format!(
                        "cell {j}: got {} expected {expect}",
                        mem[cell_base + j]
                    ));
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

    fn small() -> BarnesParams {
        BarnesParams {
            bodies_per_thread: 24,
            cells_per_thread: 2,
            samples: 3,
            steps: 2,
            threads: 4,
        }
    }

    #[test]
    fn matches_host_reference_under_all_configs() {
        let w = build(small());
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
    fn sfence_reduces_fence_stalls() {
        let w = build(BarnesParams {
            bodies_per_thread: 48,
            ..small()
        });
        let t = run(&w, cfg(FenceConfig::TRADITIONAL, 4));
        let s = run(&w, cfg(FenceConfig::SFENCE, 4));
        assert!(
            s.total_fence_stalls() < t.total_fence_stalls(),
            "S stalls {} must be below T stalls {}",
            s.total_fence_stalls(),
            t.total_fence_stalls()
        );
    }
}
