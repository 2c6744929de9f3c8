//! `radiosity` — a diffuse-radiosity-style kernel used as the paper
//! uses SPLASH-2 radiosity: an irregular task-parallel loop over
//! patch interactions with shared accumulation under per-patch CAS
//! locks, made SC-safe by the delay-set fence-insertion pass with
//! **set scope** (private scratch traffic is never ordered).
//!
//! Energy transfers are constants (`FF[i]`), so the final per-patch
//! energies are exactly checkable on the host: any lost update (a
//! broken lock or a missing release fence) shows up immediately.

use crate::support::{compile, register_barrier, BuiltWorkload};
use sfence_isa::ir::*;
use sfence_isa::passes::enforce_sc;

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct RadiosityParams {
    pub patches: usize,
    pub interactions: usize,
    pub rounds: usize,
    pub threads: usize,
    pub seed: u64,
    /// Private scratch stores per interaction (the long-latency work).
    pub scratch_work: u32,
}

/// Host-side interaction list and exact final energies.
fn make_interactions(params: &RadiosityParams) -> (Vec<usize>, Vec<usize>, Vec<i64>, Vec<i64>) {
    let mut rng = crate::support::Prng::seed_from_u64(params.seed);
    let mut src = Vec::with_capacity(params.interactions);
    let mut dst = Vec::with_capacity(params.interactions);
    let mut ff = Vec::with_capacity(params.interactions);
    for _ in 0..params.interactions {
        let s = rng.gen_range(0..params.patches);
        let mut d = rng.gen_range(0..params.patches);
        if d == s {
            d = (d + 1) % params.patches;
        }
        src.push(s);
        dst.push(d);
        ff.push(rng.gen_range(1..100) as i64);
    }
    let mut energy = vec![100i64; params.patches];
    for r in 0..params.rounds {
        let _ = r;
        for i in 0..params.interactions {
            energy[dst[i]] += ff[i];
        }
    }
    (src, dst, ff, energy)
}

/// Build the radiosity benchmark.
pub fn build(params: RadiosityParams) -> BuiltWorkload {
    let threads = params.threads;
    let np = params.patches;
    let ni = params.interactions;
    let (src, dst, ff, expected) = make_interactions(&params);

    let mut p = IrProgram::new();
    register_barrier(&mut p);
    let energy = p.shared_array("ENERGY", np * 8); // line-padded
    let lock = p.shared_array("LOCK", np * 8);
    let work_idx = p.shared_line("WORK_IDX");
    // Read-only interaction tables: not conflicting, declared private
    // so the delay-set pass leaves them unordered (paper: read-only
    // data is never flagged).
    let src_g = p.array("SRC", ni);
    let dst_g = p.array("DST", ni);
    let ff_g = p.array("FF", ni);
    let scratch = p.array("SCRATCH", threads * 4096);
    for i in 0..ni {
        p.init_elem(src_g, i, src[i] as i64);
        p.init_elem(dst_g, i, dst[i] as i64);
        p.init_elem(ff_g, i, ff[i]);
    }
    for j in 0..np {
        p.init_elem(energy, j * 8, 100);
    }

    for t in 0..threads {
        let rounds = params.rounds;
        let scratch_work = params.scratch_work;
        p.thread(move |b| {
            b.let_("bar_sense", c(1));
            b.let_("sc_cur", c((t * 4096) as i64));
            b.let_("round", c(0));
            b.while_(l("round").lt(c(rounds as i64)), move |w| {
                let bound = move |r: Expr| r.add(c(1)).mul(c(ni as i64));
                w.loop_(move |grab| {
                    // idx = fetch-and-increment WORK_IDX, bounded by
                    // this round's share.
                    grab.let_("idx", ld(work_idx.cell()));
                    grab.if_(l("idx").ge(bound(l("round"))), |x| x.break_());
                    grab.cas("got", work_idx.cell(), l("idx"), l("idx").add(c(1)));
                    grab.if_(l("got").eq(c(0)), |x| x.continue_());
                    grab.let_("i", l("idx").rem(c(ni as i64)));
                    grab.let_("s", ld(src_g.at(l("i"))));
                    grab.let_("d", ld(dst_g.at(l("i"))));
                    grab.let_("de", ld(ff_g.at(l("i"))));
                    // Private long-latency work: read the source
                    // energy, mix into scratch lines.
                    grab.let_("mix", ld(energy.at(l("s").mul(c(8)))));
                    grab.let_("k", c(0));
                    grab.while_(l("k").lt(c(scratch_work as i64)), move |sw| {
                        sw.assign("mix", l("mix").mul(c(2654435761)).add(l("k")));
                        sw.store(
                            scratch
                                .at(c((t * 4096) as i64)
                                    .add(l("mix").bitand(c(4095)).bitand(c(!7)))),
                            l("mix"),
                        );
                        sw.assign("k", l("k").add(c(1)));
                    });
                    // Lock patch d, accumulate, unlock. The SC pass
                    // inserts the fences that make this a correct
                    // acquire/release on the relaxed machine.
                    grab.let_("held", c(0));
                    grab.while_(l("held").eq(c(0)), move |sp| {
                        sp.cas("held", lock.at(l("d").mul(c(8))), c(0), c(1));
                    });
                    grab.store(
                        energy.at(l("d").mul(c(8))),
                        ld(energy.at(l("d").mul(c(8)))).add(l("de")),
                    );
                    grab.store(lock.at(l("d").mul(c(8))), c(0));
                });
                w.call_ret("bar_sense", "barrier", &[c(threads as i64), l("bar_sense")]);
                w.assign("round", l("round").add(c(1)));
            });
            b.halt();
        });
    }

    enforce_sc(&mut p);

    let program = compile(&p);
    BuiltWorkload {
        name: "radiosity".into(),
        program,
        check: Box::new(move |prog, mem| {
            let e_base = prog.addr_of("ENERGY");
            let l_base = prog.addr_of("LOCK");
            for j in 0..np {
                if mem[l_base + j * 8] != 0 {
                    return Err(format!("lock {j} left held"));
                }
                let got = mem[e_base + j * 8];
                if got != expected[j] {
                    return Err(format!(
                        "patch {j}: energy {got}, expected {} (lost update?)",
                        expected[j]
                    ));
                }
            }
            if mem[prog.addr_of("WORK_IDX")] != (ni * params.rounds) as i64 {
                return Err("work index did not cover all interactions".into());
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

    fn small() -> RadiosityParams {
        RadiosityParams {
            patches: 10,
            interactions: 60,
            rounds: 2,
            threads: 4,
            seed: 11,
            scratch_work: 3,
        }
    }

    #[test]
    fn energies_exact_under_all_configs() {
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
    fn single_thread_exact() {
        let w = build(RadiosityParams {
            threads: 1,
            ..small()
        });
        run(&w, cfg(FenceConfig::SFENCE, 1));
    }

    #[test]
    fn sfence_reduces_fence_stalls() {
        let w = build(RadiosityParams {
            interactions: 100,
            scratch_work: 6,
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
