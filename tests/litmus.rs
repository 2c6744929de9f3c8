//! Litmus-test matrix: relaxed outcomes are observable exactly when
//! the fences (or their scopes) permit them. These tests pin down the
//! memory model the whole evaluation stands on.

use fence_scoping::prelude::*;

fn two_core_cfg(fence: FenceConfig) -> MachineConfig {
    let mut cfg = MachineConfig::paper_default().with_fence(fence);
    cfg.num_cores = 2;
    cfg.max_cycles = 10_000_000;
    cfg
}

/// Store-buffering with a parameterized fence: returns (r0, r1).
fn sb(kind: Option<FenceKind>, scope_over_flags: bool, run: FenceConfig) -> (i64, i64) {
    let mut p = IrProgram::new();
    let f0 = p.shared_line("flag0");
    let f1 = p.shared_line("flag1");
    let other = p.shared_line("other");
    let r0 = p.global_line("r0");
    let r1 = p.global_line("r1");
    let cls = p.class("Sync");
    // Class-scope variant: the racy accesses live inside the class.
    p.method(cls, "signal_and_check", &["mine", "theirs"], move |b| {
        // mine/theirs are 0/1 selecting the flag; store then load.
        b.if_else(
            l("mine").eq(c(0)),
            move |t| t.store(f0.cell(), c(1)),
            move |e| e.store(f1.cell(), c(1)),
        );
        b.fence_class();
        b.if_else(
            l("theirs").eq(c(0)),
            move |t| t.ret(Some(ld(f0.cell()))),
            move |e| e.ret(Some(ld(f1.cell()))),
        );
    });
    for (mine, theirs, out) in [(0i64, 1i64, r0), (1, 0, r1)] {
        p.thread(move |b| {
            b.let_("w0", ld(f0.cell()));
            b.let_("w1", ld(f1.cell()));
            match kind {
                Some(FenceKind::Class) => {
                    b.call_ret("r", "Sync::signal_and_check", &[c(mine), c(theirs)]);
                }
                other_kind => {
                    if mine == 0 {
                        b.store(f0.cell(), c(1));
                    } else {
                        b.store(f1.cell(), c(1));
                    }
                    match other_kind {
                        Some(FenceKind::Global) => b.fence(),
                        Some(FenceKind::Set) => {
                            if scope_over_flags {
                                b.fence_set(&[f0, f1]);
                            } else {
                                b.fence_set(&[other]);
                            }
                        }
                        _ => {}
                    }
                    if theirs == 0 {
                        b.let_("r", ld(f0.cell()));
                    } else {
                        b.let_("r", ld(f1.cell()));
                    }
                }
            }
            b.store(out.cell(), l("r"));
            b.halt();
        });
    }
    let prog = p.compile().unwrap();
    let report = Session::for_program(&prog).config(two_core_cfg(run)).run();
    assert_eq!(report.exit, RunExit::Completed);
    (report.read_var(&prog, "r0"), report.read_var(&prog, "r1"))
}

#[test]
fn relaxed_outcome_without_fences() {
    assert_eq!(sb(None, false, FenceConfig::SFENCE), (0, 0));
}

#[test]
fn full_fence_forbids_it_under_t_and_s() {
    for cfg in [FenceConfig::TRADITIONAL, FenceConfig::SFENCE] {
        let (r0, r1) = sb(Some(FenceKind::Global), false, cfg);
        assert!(r0 == 1 || r1 == 1, "{}: {:?}", cfg.label(), (r0, r1));
    }
}

#[test]
fn matching_set_scope_forbids_it() {
    let (r0, r1) = sb(Some(FenceKind::Set), true, FenceConfig::SFENCE);
    assert!(r0 == 1 || r1 == 1);
}

#[test]
fn wrong_set_scope_permits_it() {
    // The defining property of S-Fence: out-of-scope accesses are not
    // ordered.
    assert_eq!(sb(Some(FenceKind::Set), false, FenceConfig::SFENCE), (0, 0));
}

#[test]
fn wrong_set_scope_still_ordered_when_run_traditionally() {
    // The same binary on non-S-Fence hardware treats the fence as
    // full, restoring order.
    let (r0, r1) = sb(Some(FenceKind::Set), false, FenceConfig::TRADITIONAL);
    assert!(r0 == 1 || r1 == 1);
}

#[test]
fn class_scope_orders_accesses_inside_the_class() {
    let (r0, r1) = sb(Some(FenceKind::Class), false, FenceConfig::SFENCE);
    assert!(
        r0 == 1 || r1 == 1,
        "class fence must order in-class accesses"
    );
}

#[test]
fn in_window_speculation_preserves_fence_semantics() {
    // With violation replay, T+ and S+ must forbid the relaxed outcome
    // whenever the fence covers the flags.
    for cfg in [FenceConfig::TRADITIONAL_SPEC, FenceConfig::SFENCE_SPEC] {
        let (r0, r1) = sb(Some(FenceKind::Global), false, cfg);
        assert!(r0 == 1 || r1 == 1, "{}: {:?}", cfg.label(), (r0, r1));
    }
    let (r0, r1) = sb(Some(FenceKind::Set), true, FenceConfig::SFENCE_SPEC);
    assert!(r0 == 1 || r1 == 1, "S+ with matching set scope");
}

/// Message passing through a class-scope mailbox: the consumer must
/// never see the flag without the data, under every configuration.
#[test]
fn message_passing_via_class_scope_mailbox() {
    for fence in [
        FenceConfig::TRADITIONAL,
        FenceConfig::SFENCE,
        FenceConfig::TRADITIONAL_SPEC,
        FenceConfig::SFENCE_SPEC,
    ] {
        let mut p = IrProgram::new();
        let data = p.shared_line("data");
        let flag = p.shared_line("flag");
        let got = p.global_line("got");
        let cls = p.class("Mailbox");
        p.method(cls, "send", &["v"], move |b| {
            b.store(data.cell(), l("v"));
            b.fence_class();
            b.store(flag.cell(), c(1));
        });
        p.thread(move |b| {
            b.let_("w", ld(flag.cell())); // warm flag line
            b.call("Mailbox::send", &[c(77)]);
            b.halt();
        });
        p.thread(move |b| {
            b.spin_until(ld(flag.cell()).eq(c(1)));
            b.fence();
            b.store(got.cell(), ld(data.cell()));
            b.halt();
        });
        let prog = p.compile().unwrap();
        let report = Session::for_program(&prog)
            .config(two_core_cfg(fence))
            .run();
        assert_eq!(report.exit, RunExit::Completed, "{}", fence.label());
        assert_eq!(report.read_var(&prog, "got"), 77, "{}", fence.label());
    }
}
