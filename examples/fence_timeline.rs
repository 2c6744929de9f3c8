//! Reproduces the paper's Fig. 10 scenario: a cache-missing store,
//! a fast in-scope store, a fence, then a cache-missing load. With a
//! traditional fence the load waits for the store buffer to drain;
//! with S-Fence it issues as soon as the in-scope store completes.
//!
//! ```sh
//! cargo run --release --example fence_timeline
//! ```

use fence_scoping::prelude::*;

fn main() {
    let mut p = IrProgram::new();
    let a = p.global_line("A"); // cold: St A misses
    let x = p.shared_line("X"); // in scope
    let y = p.global_line("Y"); // cold: Ld Y misses
    let out = p.global_line("out");
    let cls = p.class("Scope");
    p.method(cls, "op", &[], move |b| {
        b.store(x.cell(), c(1)); // St X (in scope, fast once warm)
        b.fence_class(); //          FENCE
        b.let_("v", ld(y.cell())); // Ld Y (cache miss)
        b.store(out.cell(), l("v").add(c(1))); // St B
    });
    p.thread(move |b| {
        b.let_("warm", ld(x.cell())); // make St X a hit
        b.store(a.cell(), c(42)); //     St A (cache miss, out of scope)
        b.call("Scope::op", &[]);
        b.halt();
    });
    let prog = p.compile().unwrap();
    println!("program:\n{}", prog.disasm(0));

    println!("{:<12} {:>8} {:>14}", "config", "cycles", "fence stalls");
    for fence in [FenceConfig::TRADITIONAL, FenceConfig::SFENCE] {
        let report = Session::for_program(&prog)
            .cores(1)
            .fence(fence)
            .trace()
            .run();
        // Per-event timeline from the retired trace.
        println!(
            "{:<12} {:>8} {:>14}",
            fence.label(),
            report.timed_cycles(),
            report.total_fence_stalls()
        );
        for t in &report.traces {
            for ev in t.iter() {
                if let fence_scoping::core::RetiredEvent::Fence { kind, issue } = ev {
                    println!("    fence ({kind:?}) issued at cycle {issue}");
                }
            }
        }
        // The hardware execution must satisfy the paper's Fig. 5
        // semantics.
        for (i, t) in report.traces.iter().enumerate() {
            fence_scoping::core::check_trace(t)
                .unwrap_or_else(|v| panic!("core {i} violates S-Fence semantics: {v}"));
        }
    }
    println!("\nWith S-Fence the class fence issues as soon as St X completes,");
    println!("so Ld Y starts its miss while St A is still draining (paper Fig. 10).");
}
