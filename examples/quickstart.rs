//! Quickstart: write a tiny two-class program in the IR, compile it,
//! and watch a scoped fence skip a stall that a traditional fence
//! pays.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use fence_scoping::prelude::*;

fn main() {
    // A "logger" class whose methods guard their own two stores with a
    // class-scope fence, used by an application that also writes a
    // big, cache-missing private buffer.
    let mut p = IrProgram::new();
    let buf = p.array("scratch", 64 * 1024);
    let head = p.shared_line("LOG_HEAD");
    let log = p.shared_array("LOG", 512);
    let cls = p.class("Log");
    p.method(cls, "append", &["v"], move |b| {
        b.let_("h", ld(head.cell()));
        b.store(log.at(l("h").bitand(c(511))), l("v"));
        b.fence_class(); // publish entry before moving the head
        b.store(head.cell(), l("h").add(c(1)));
    });
    p.thread(move |b| {
        b.let_("i", c(0));
        b.while_(l("i").lt(c(64)), move |w| {
            // Long-latency private stores (scattered lines).
            w.store(buf.at(l("i").mul(c(1024)).bitand(c(65535))), l("i"));
            // The log append should not wait for them.
            w.call("Log::append", &[l("i")]);
            w.assign("i", l("i").add(c(1)));
        });
        b.halt();
    });
    let prog = p.compile().expect("compiles");

    println!("compiled {} instructions\n", prog.total_instrs());

    for fence in [
        FenceConfig::TRADITIONAL,
        FenceConfig::SFENCE,
        FenceConfig::TRADITIONAL_SPEC,
        FenceConfig::SFENCE_SPEC,
    ] {
        let report = Session::for_program(&prog).cores(1).fence(fence).run();
        assert_eq!(report.read_var(&prog, "LOG_HEAD"), 64);
        println!(
            "{:<3} {:>8} cycles   fence stalls {:>8} ({:>5.1}%)",
            fence.label(),
            report.timed_cycles(),
            report.total_fence_stalls(),
            100.0 * report.fence_stall_fraction()
        );
    }

    // The same session surface runs on the fast functional engine —
    // no timing model, so the report carries no cycles, but the final
    // state must match.
    let f = Session::for_program(&prog)
        .cores(1)
        .backend(&FunctionalBackend)
        .run();
    assert_eq!(f.cycles, None);
    assert_eq!(f.read_var(&prog, "LOG_HEAD"), 64);
    println!(
        "\nfunctional backend agrees: LOG_HEAD = {} after {} interpreted instructions",
        f.read_var(&prog, "LOG_HEAD"),
        f.total_retired()
    );
    println!("\nS-Fence skips the out-of-scope scratch stores; a traditional fence drains them.");
}
