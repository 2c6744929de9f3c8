//! The SC-enforcement use case (paper §VI-B, barnes/radiosity): a
//! program written for sequential consistency is made SC-safe on the
//! relaxed machine by the delay-set pass, and set-scope fences order
//! only the shared conflicting accesses — private traffic is never
//! waited for.
//!
//! ```sh
//! cargo run --release --example sc_enforcement
//! ```

use fence_scoping::prelude::*;
use fence_scoping::workloads::{barnes, radiosity};

fn main() {
    // Show the pass itself on a small kernel.
    let mut p = IrProgram::new();
    let shared_a = p.shared_line("A");
    let shared_b = p.shared_line("B");
    let private = p.array("scratch", 4096);
    p.thread(move |b| {
        b.store(shared_a.cell(), c(1));
        b.store(private.at(c(1024)), c(2)); // private: not a delay pair
        b.store(shared_b.cell(), c(3));
        b.let_("x", ld(shared_a.cell()));
        b.halt();
    });
    let report = enforce_sc(&mut p);
    println!(
        "delay-set pass: {} fences inserted, {} shared / {} private accesses",
        report.fences_inserted, report.shared_accesses, report.private_accesses
    );
    let prog = p.compile().unwrap();
    println!("instrumented kernel:\n{}", prog.disasm(0));

    // And the two full applications built on it.
    for w in [
        barnes::build(barnes::BarnesParams {
            bodies_per_thread: 96,
            cells_per_thread: 4,
            samples: 4,
            steps: 2,
            threads: 8,
        }),
        radiosity::build(radiosity::RadiosityParams {
            patches: 24,
            interactions: 200,
            rounds: 2,
            threads: 8,
            seed: 44,
            scratch_work: 4,
        }),
    ] {
        // Cheap correctness gate first: the functional (SC) engine
        // validates the workload invariants without paying for the
        // timing model, so a broken build fails in milliseconds.
        let f = Session::for_workload(&w)
            .fence(FenceConfig::SFENCE)
            .backend(&FunctionalBackend)
            .run();
        let t = Session::for_workload(&w)
            .fence(FenceConfig::TRADITIONAL)
            .run();
        let s = Session::for_workload(&w).fence(FenceConfig::SFENCE).run();
        println!(
            "{:<10} T {:>8} cycles ({:>4.1}% stalls)   S {:>8} cycles ({:>4.1}% stalls)   speedup {:.3}x   (functional pre-check: {} instrs)",
            w.name,
            t.timed_cycles(),
            100.0 * t.fence_stall_fraction(),
            s.timed_cycles(),
            100.0 * s.fence_stall_fraction(),
            t.timed_cycles() as f64 / s.timed_cycles() as f64,
            f.total_retired()
        );
    }
    println!("\nBoth applications' results are checked against exact host-side replays.");
}
