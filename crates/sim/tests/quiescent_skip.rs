//! `Machine::run` skips the cycles in which a core cannot act, each
//! core on its own; stepping every core every cycle with
//! `Machine::step` is the reference. Each machine below is built so
//! that its skipped spans carry one of the charges a stalled cycle
//! makes (fence stall at issue and at retire, ROB full, store buffer
//! full, disambiguation retries, a CAS parked behind the store
//! buffer), has one core sleep while another acts or is replayed by
//! its probe, or ends inside a span at `max_cycles`; the litmus
//! families add coherence-probe replays, CAS loops and IRIW shapes on
//! three machines. The summary (every `CoreStats` field, scope-unit
//! stats and coverage bits, `cycles`, `exit`), the final memory, the
//! watch log and both traces must equal the stepped run's.

use sfence_isa::ir::*;
use sfence_isa::Program;
use sfence_sim::{FenceConfig, Machine, MachineConfig, RunExit, RunSummary};
use sfence_workloads::litmus::{self, LitmusSpec};

/// T, S, T+ and S+.
const ALL_FENCES: [FenceConfig; 4] = [
    FenceConfig::TRADITIONAL,
    FenceConfig::SFENCE,
    FenceConfig::TRADITIONAL_SPEC,
    FenceConfig::SFENCE_SPEC,
];

fn compile(p: &IrProgram) -> Program {
    p.compile().expect("compile")
}

fn config(fence: FenceConfig) -> MachineConfig {
    let mut cfg = MachineConfig::paper_default().with_fence(fence);
    cfg.num_cores = 2;
    cfg.max_cycles = 1_000_000;
    cfg.core.trace = true;
    cfg.core.pipe_trace = true;
    cfg
}

/// Run `prog` on `cfg`; return the summary and the machine. `stepped` drives the
/// machine one `step` at a time up to completion or `max_cycles`
/// first, so its closing `run` only summarises.
fn run(prog: &Program, cfg: &MachineConfig, stepped: bool) -> (RunSummary, Machine) {
    let mut m = Machine::new(prog, cfg.clone());
    for addr in 0..prog.data_size {
        m.watch(addr);
    }
    if stepped {
        for _ in 0..cfg.max_cycles {
            if m.finished() {
                break;
            }
            m.step();
        }
    }
    (m.run(), m)
}

/// Assert the skipping run equals the stepped one; returns the summary.
fn assert_exact(name: &str, prog: &Program, cfg: &MachineConfig) -> RunSummary {
    let (want, reference) = run(prog, cfg, true);
    let (got, skipped) = run(prog, cfg, false);
    assert_eq!(got, want, "{name}: summary");
    assert_eq!(skipped.mem, reference.mem, "{name}: memory");
    assert_eq!(skipped.watch_log, reference.watch_log, "{name}: watch log");
    assert_eq!(
        skipped.traces(),
        reference.traces(),
        "{name}: retired traces"
    );
    assert_eq!(
        skipped.pipe_trace(),
        reference.pipe_trace(),
        "{name}: pipe trace"
    );
    assert_eq!(
        skipped.reg_snapshot(),
        reference.reg_snapshot(),
        "{name}: registers"
    );
    got
}

fn total(s: &RunSummary, f: impl Fn(&sfence_cpu::CoreStats) -> u64) -> u64 {
    s.core_stats.iter().map(f).sum()
}

/// Message passing with each store on a cold line: the producer's
/// fence waits out a memory miss, the consumer spins.
fn mp(scoped: bool) -> Program {
    let mut p = IrProgram::new();
    let data = p.shared_line("data");
    let flag = p.shared_line("flag");
    let got = p.global_line("got");
    p.thread(move |b| {
        b.store(data.cell(), c(42));
        if scoped {
            b.fence_set(&[data, flag]);
        } else {
            b.fence();
        }
        b.store(flag.cell(), c(1));
        b.halt();
    });
    p.thread(move |b| {
        b.spin_until(ld(flag.cell()).eq(c(1)));
        b.fence();
        b.store(got.cell(), ld(data.cell()));
        b.halt();
    });
    compile(&p)
}

#[test]
fn fence_stalls_at_issue_under_t_and_s() {
    for (fence, scoped) in [
        (FenceConfig::TRADITIONAL, false),
        (FenceConfig::SFENCE, false),
        (FenceConfig::SFENCE, true),
    ] {
        let name = format!("mp {} scoped={scoped}", fence.label());
        let s = assert_exact(&name, &mp(scoped), &config(fence));
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        assert!(total(&s, |c| c.fence_stall_cycles) > 0, "{name}");
        assert!(
            s.scope_coverage[0] & sfence_core::coverage::STALL_AT_ISSUE != 0,
            "{name}"
        );
    }
}

#[test]
fn fence_stalls_at_retire_under_in_window_speculation() {
    for fence in [FenceConfig::TRADITIONAL_SPEC, FenceConfig::SFENCE_SPEC] {
        let name = format!("mp {}", fence.label());
        let s = assert_exact(&name, &mp(true), &config(fence));
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        assert!(total(&s, |c| c.fence_stall_cycles) > 0, "{name}");
        assert!(
            s.scope_coverage[0] & sfence_core::coverage::STALL_AT_RETIRE != 0,
            "{name}"
        );
    }
}

/// A cold load followed by more work than a four-entry ROB holds; a
/// store whose address depends on that load, so the loads after it
/// retry disambiguation every cycle of the miss.
#[test]
fn rob_full_and_blocked_loads() {
    let mut p = IrProgram::new();
    let ptr = p.global_line("ptr");
    let arr = p.array("arr", 8);
    let other = p.global_line("other");
    let out = p.global_line("out");
    p.init(ptr, 3);
    p.thread(move |b| {
        b.let_("i", ld(ptr.cell()));
        b.store(arr.at(l("i")), c(5));
        b.let_("v", ld(other.cell()));
        b.let_("w", ld(other.cell()).add(c(1)));
        for _ in 0..6 {
            b.assign("v", l("v").add(l("w")));
        }
        b.store(out.cell(), l("v"));
        b.halt();
    });
    let prog = compile(&p);
    for rob_size in [4, 128] {
        let mut cfg = config(FenceConfig::SFENCE);
        cfg.core.rob_size = rob_size;
        let name = format!("rob {rob_size}");
        let s = assert_exact(&name, &prog, &cfg);
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        assert!(total(&s, |c| c.load_disambiguation_blocks) > 0, "{name}");
        if rob_size == 4 {
            assert!(total(&s, |c| c.rob_full_stall_cycles) > 0, "{name}");
        }
    }
}

/// Stores to four cold lines through a one- and an eight-entry store
/// buffer, then a CAS to the last one that must wait for its drain.
#[test]
fn sb_full_and_cas_behind_the_store_buffer() {
    let mut p = IrProgram::new();
    let lines: Vec<Global> = (0..4).map(|i| p.global_line(&format!("x{i}"))).collect();
    let last = lines[3];
    p.thread(move |b| {
        for (i, g) in lines.iter().enumerate() {
            b.store(g.cell(), c(i as i64 + 1));
        }
        b.cas("ok", last.cell(), c(4), c(9));
        b.halt();
    });
    let prog = compile(&p);
    for sb_size in [1, 8] {
        let mut cfg = config(FenceConfig::SFENCE);
        cfg.core.sb_size = sb_size;
        let name = format!("sb {sb_size}");
        let s = assert_exact(&name, &prog, &cfg);
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        if sb_size == 1 {
            assert!(total(&s, |c| c.sb_full_stall_cycles) > 0, "{name}");
        }
    }
}

/// A spin on a flag no thread sets never finishes: the run must stop
/// at exactly `max_cycles`, whether that falls inside the first cold
/// miss (a clamped skip) or in the warm spin after it.
#[test]
fn endless_spin_stops_at_the_cycle_limit() {
    let mut p = IrProgram::new();
    let flag = p.shared_line("flag");
    p.thread(move |b| {
        b.spin_until(ld(flag.cell()).eq(c(1)));
        b.halt();
    });
    let prog = compile(&p);
    for max_cycles in [1, 150, 1_000, 4_321] {
        let mut cfg = config(FenceConfig::SFENCE);
        cfg.max_cycles = max_cycles;
        let name = format!("spin max_cycles={max_cycles}");
        let s = assert_exact(&name, &prog, &cfg);
        assert_eq!(s.exit, RunExit::CycleLimit, "{name}");
        assert_eq!(s.cycles, max_cycles, "{name}");
    }
}

/// Every litmus family at seeds 0 and 1 under T, S, T+ and S+, on the
/// default machine, on a tiny scope unit (overflow and degrade paths)
/// and with no misprediction penalty (a replay squash resumes fetch on
/// the next cycle, so a cycle that delivered a probe must not start a
/// skip).
#[test]
fn litmus_families_skip_exactly() {
    let machines = |threads: usize, fence: FenceConfig| {
        let default = MachineConfig {
            num_cores: threads,
            ..config(fence)
        };
        let mut tiny = default.clone();
        tiny.core.scope.fsb_entries = 2;
        tiny.core.scope.fss_entries = 1;
        tiny.core.scope.mapping_entries = 1;
        let mut no_penalty = default.clone();
        no_penalty.core.mispredict_penalty = 0;
        [
            ("default", default),
            ("tiny", tiny),
            ("penalty 0", no_penalty),
        ]
    };
    for family in litmus::FAMILIES {
        for seed in 0..2 {
            let prog = litmus::build(&LitmusSpec::new(family, seed)).program;
            for fence in ALL_FENCES {
                for (machine, cfg) in machines(prog.num_threads(), fence) {
                    let name = format!("{}/{seed} {} {machine}", family.name(), fence.label());
                    let s = assert_exact(&name, &prog, &cfg);
                    assert_eq!(s.exit, RunExit::Completed, "{name}");
                }
            }
        }
    }
}

/// Thread 0 runs an ALU loop of `iters` iterations (forever when
/// `None`); thread 1 stores to four cold lines, each behind a fence.
fn busy_beside_fenced_misses(iters: Option<i64>) -> Program {
    let mut p = IrProgram::new();
    let out = p.global_line("out");
    let lines: Vec<Global> = (0..4).map(|i| p.shared_line(&format!("x{i}"))).collect();
    p.thread(move |b| {
        b.let_("i", c(0));
        b.let_("acc", c(0));
        let body = |b: &mut BlockBuilder| {
            b.assign("i", l("i").add(c(1)));
            b.assign("acc", l("acc").add(l("i").mul(c(3))));
        };
        match iters {
            Some(n) => b.while_(l("i").lt(c(n)), body),
            None => b.loop_(body),
        }
        b.store(out.cell(), l("acc"));
        b.halt();
    });
    p.thread(move |b| {
        for (i, g) in lines.iter().enumerate() {
            b.store(g.cell(), c(i as i64 + 1));
            b.fence();
        }
        b.halt();
    });
    compile(&p)
}

/// One core acts on nearly every cycle while the other sleeps through
/// four fenced cold misses. Hardly a cycle is quiet for the whole
/// machine, so the sleeper's cycles are left out only because a core
/// sleeps on its own.
#[test]
fn a_core_sleeps_while_another_acts() {
    let prog = busy_beside_fenced_misses(Some(2_000));
    for fence in ALL_FENCES {
        let name = format!("busy beside fenced misses {}", fence.label());
        let s = assert_exact(&name, &prog, &config(fence));
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        let (busy, fenced) = (&s.core_stats[0], &s.core_stats[1]);
        assert!(fenced.fence_stall_cycles >= 4 * 300, "{name}");
        assert!(
            busy.finished_at > fenced.finished_at,
            "{name}: the loop outlasts the misses"
        );
    }
}

/// Thread 1's fence waits on two dependent cold loads. Past it, its
/// cold load of `flag` binds 0, and a load behind a store of the slow
/// value retries disambiguation every cycle; then it has nothing left
/// to issue. Thread 0 writes `flag` only after its own cold load,
/// while thread 1 sleeps charging those retries; under T+ and S+ that
/// write replays the completed `flag` load.
#[test]
fn a_probe_replays_a_sleeping_core() {
    let mut p = IrProgram::new();
    let flag = p.shared_line("flag");
    let z = p.global_line("z");
    let ptr = p.global_line("ptr");
    let arr = p.array("arr", 16);
    let other = p.global_line("other");
    let out = p.global_line("out");
    let sum = p.global_line("sum");
    p.init(ptr, 8);
    p.thread(move |b| {
        b.store(flag.cell(), ld(z.cell()).add(c(1)));
        b.halt();
    });
    p.thread(move |b| {
        b.let_("v", ld(arr.at(ld(ptr.cell()))));
        b.fence();
        b.let_("r", ld(flag.cell()));
        b.store(out.cell(), l("v"));
        b.store(sum.cell(), l("r").add(ld(other.cell())));
        b.halt();
    });
    let prog = compile(&p);
    for fence in ALL_FENCES {
        let name = format!("probe replay {}", fence.label());
        let s = assert_exact(&name, &prog, &config(fence));
        assert_eq!(s.exit, RunExit::Completed, "{name}");
        let replayed = &s.core_stats[1];
        if fence.in_window_speculation {
            assert!(
                replayed.speculation_replays > 0,
                "{name}: the write replays the load"
            );
            assert!(replayed.load_disambiguation_blocks > 0, "{name}");
        } else {
            assert_eq!(replayed.speculation_replays, 0, "{name}");
        }
    }
}

/// The cycle limit falls while thread 1 sleeps on a fenced miss and
/// thread 0 loops forever, and later after thread 1 has finished.
#[test]
fn the_cycle_limit_falls_while_a_core_sleeps() {
    let prog = busy_beside_fenced_misses(None);
    for fence in ALL_FENCES {
        for max_cycles in [1, 150, 700, 4_321] {
            let mut cfg = config(fence);
            cfg.max_cycles = max_cycles;
            let name = format!("endless loop {} max_cycles={max_cycles}", fence.label());
            let s = assert_exact(&name, &prog, &cfg);
            assert_eq!(s.exit, RunExit::CycleLimit, "{name}");
            let fenced = s.core_stats[1].finished_at;
            assert_eq!(fenced.is_some(), max_cycles > 1_000, "{name}");
            assert_eq!(s.cycles, max_cycles, "{name}");
        }
    }
}
