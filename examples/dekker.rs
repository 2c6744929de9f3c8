//! Set-scope fences on Dekker's algorithm (paper Fig. 11), plus the
//! litmus-level demonstration that the *scope* is what matters: a set
//! fence over the wrong variables does not restore order.
//!
//! ```sh
//! cargo run --release --example dekker
//! ```

use fence_scoping::prelude::*;
use fence_scoping::workloads::dekker;

fn sb_litmus(fence: Option<&[&str]>) -> (i64, i64) {
    let mut p = IrProgram::new();
    let f0 = p.shared_line("flag0");
    let f1 = p.shared_line("flag1");
    let other = p.shared_line("other");
    let r0 = p.global_line("r0");
    let r1 = p.global_line("r1");
    let vars = move |names: &[&str]| -> Vec<Global> {
        names
            .iter()
            .map(|n| match *n {
                "flag0" => f0,
                "flag1" => f1,
                _ => other,
            })
            .collect()
    };
    for (mine, theirs, out) in [(f0, f1, r0), (f1, f0, r1)] {
        let set: Option<Vec<Global>> = fence.map(vars);
        p.thread(move |b| {
            b.let_("w0", ld(f0.cell())); // warm the flag lines
            b.let_("w1", ld(f1.cell()));
            b.store(mine.cell(), c(1));
            if let Some(set) = &set {
                b.fence_set(set);
            }
            b.store(out.cell(), ld(theirs.cell()));
            b.halt();
        });
    }
    let prog = p.compile().unwrap();
    let report = Session::for_program(&prog)
        .cores(2)
        .fence(FenceConfig::SFENCE)
        .run();
    (report.read_var(&prog, "r0"), report.read_var(&prog, "r1"))
}

fn main() {
    println!("== Store-buffering litmus: the scope is what orders ==");
    println!(
        "  no fence:                  {:?}  (relaxed outcome observable)",
        sb_litmus(None)
    );
    println!(
        "  S-FENCE[set, {{flag0,flag1}}]: {:?}  ((0,0) forbidden)",
        sb_litmus(Some(&["flag0", "flag1"]))
    );
    println!(
        "  S-FENCE[set, {{other}}]:      {:?}  (wrong scope: still relaxed!)",
        sb_litmus(Some(&["other"]))
    );

    println!("\n== Dekker with set-scope fences + private workload ==");
    let w = dekker::build(dekker::DekkerParams {
        iters: 40,
        workload: 3,
    });
    let t = Session::for_workload(&w)
        .cores(2)
        .fence(FenceConfig::TRADITIONAL)
        .run();
    let s = Session::for_workload(&w)
        .cores(2)
        .fence(FenceConfig::SFENCE)
        .run();
    println!("  traditional: {:>8} cycles", t.timed_cycles());
    println!("  S-Fence:     {:>8} cycles", s.timed_cycles());
    println!(
        "  speedup:     {:.3}x  (mutual exclusion verified: exact counter)",
        t.timed_cycles() as f64 / s.timed_cycles() as f64
    );

    // Functional-vs-sim differential check: the fast SC interpreter
    // (no timing model) must agree with the weakly-ordered machine on
    // the algorithm's final state — Dekker's fences make the critical
    // section exact on both engines.
    println!("\n== Functional-vs-sim differential check ==");
    let f = Session::for_workload(&w)
        .cores(2)
        .fence(FenceConfig::SFENCE)
        .backend(&FunctionalBackend)
        .run();
    assert_eq!(f.cycles, None, "the functional engine reports no cycles");
    assert_eq!(
        s.read_var(&w.program, "COUNT"),
        f.read_var(&w.program, "COUNT"),
        "sim and functional backends must agree on the final counter"
    );
    println!(
        "  COUNT = {} on both backends ({} functional instructions vs {} sim cycles)",
        f.read_var(&w.program, "COUNT"),
        f.total_retired(),
        s.timed_cycles()
    );
}
