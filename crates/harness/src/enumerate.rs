//! SC reference checking: enumerate the interleavings of a compiled
//! program under sequential consistency and collect every reachable
//! final state.
//!
//! This is the engine behind [`crate::backend::EnumerativeBackend`];
//! it moved here from `sfence-litmus` so every backend the harness
//! can name is also one it can instantiate.
//!
//! The state space is explored as a graph search with three standard
//! reductions:
//!
//! - **Commuting-step reduction.** A static conflict analysis
//!   classifies every memory address: an address is *racy* iff it is
//!   accessed by two or more threads with at least one write. Any
//!   step that is not a racy memory access (arithmetic, branches,
//!   fences — no-ops under SC — and private memory traffic) commutes
//!   with every step of every other thread, so it is executed eagerly
//!   without a scheduling choice. Only racy accesses branch the
//!   search. If any memory instruction's address cannot be resolved
//!   statically the analysis degrades soundly: every memory access is
//!   treated as racy.
//! - **State memoization.** Visited states (pcs, live registers,
//!   written memory) are deduplicated, which also makes spin loops
//!   finite: a spin that re-reads an unchanged flag revisits the same
//!   state and is pruned.
//! - **Bounds.** The search gives up (reporting `complete = false`)
//!   past a configurable state budget, so a pathological input can
//!   never hang the campaign.
//!
//! The *final state* of an execution is the program's observed
//! vector ([`Program::observed_state`]): the values of its `obs_`
//! globals in address order.

use sfence_isa::interp::{InterpStats, ThreadState};
use sfence_isa::{Instr, Operand, Program};
use std::collections::{BTreeSet, HashSet};

/// Exploration bounds.
#[derive(Debug, Clone)]
pub struct CheckerConfig {
    /// Give up after this many distinct states.
    pub max_states: usize,
    /// Bound on consecutive commuting (non-branching) steps per
    /// state, so a runaway private loop cannot hang the eager phase.
    pub max_local_steps: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            max_states: 250_000,
            max_local_steps: 20_000,
        }
    }
}

/// The result of an enumeration.
#[derive(Debug, Clone)]
pub struct ScOutcomes {
    /// Every SC-reachable final state (observed vectors, sorted).
    pub states: BTreeSet<Vec<i64>>,
    /// False when a bound was hit and `states` may be incomplete.
    pub complete: bool,
    /// Distinct states visited.
    pub states_explored: u64,
}

impl ScOutcomes {
    /// Is an observed final state SC-allowed? Only meaningful when
    /// the enumeration was complete.
    pub fn allows(&self, observed: &[i64]) -> bool {
        self.states.contains(observed)
    }
}

/// Per-program static conflict analysis.
struct Conflicts {
    /// Addresses accessed by ≥2 threads with ≥1 write.
    racy: HashSet<usize>,
    /// Some address could not be resolved statically: treat every
    /// memory access as racy.
    all_visible: bool,
    /// Addresses any thread may write (racy or not) — the memory
    /// footprint a state key must cover. Meaningless when
    /// `all_visible` (the key then covers all of memory).
    written: Vec<usize>,
}

fn static_addr(base: &Operand, offset: i64) -> Option<usize> {
    match base {
        Operand::Imm(v) => usize::try_from(v + offset).ok(),
        Operand::Reg(_) => None,
    }
}

fn mem_ref(instr: &Instr) -> Option<(Option<usize>, bool)> {
    match instr {
        Instr::Load { base, offset, .. } => Some((static_addr(base, *offset), false)),
        Instr::Store { base, offset, .. } => Some((static_addr(base, *offset), true)),
        Instr::Cas { base, offset, .. } => Some((static_addr(base, *offset), true)),
        _ => None,
    }
}

impl Conflicts {
    fn analyze(prog: &Program) -> Conflicts {
        use std::collections::HashMap;
        // addr -> (first accessing thread, accessed by another thread
        // too, written anywhere). Tracking the first accessor exactly
        // (instead of a fixed-width thread bitmask) keeps the
        // classification sound for any thread count.
        struct Acc {
            first: usize,
            multi: bool,
            written: bool,
        }
        let mut seen: HashMap<usize, Acc> = HashMap::new();
        let mut all_visible = false;
        for (t, code) in prog.threads.iter().enumerate() {
            for instr in code {
                if let Some((addr, write)) = mem_ref(instr) {
                    match addr {
                        None => all_visible = true,
                        Some(a) => {
                            let e = seen.entry(a).or_insert(Acc {
                                first: t,
                                multi: false,
                                written: false,
                            });
                            e.multi |= e.first != t;
                            e.written |= write;
                        }
                    }
                }
            }
        }
        let racy = seen
            .iter()
            .filter(|(_, acc)| acc.written && acc.multi)
            .map(|(&a, _)| a)
            .collect();
        let mut written: Vec<usize> = seen
            .iter()
            .filter(|(_, acc)| acc.written)
            .map(|(&a, _)| a)
            .collect();
        written.sort_unstable();
        Conflicts {
            racy,
            all_visible,
            written,
        }
    }

    /// Must this instruction be treated as a scheduling choice?
    fn visible(&self, instr: &Instr) -> bool {
        match mem_ref(instr) {
            None => false,
            Some((addr, _)) => match addr {
                None => true,
                Some(a) => self.all_visible || self.racy.contains(&a),
            },
        }
    }
}

/// One SC machine state.
#[derive(Clone)]
struct State {
    threads: Vec<ThreadState>,
    mem: Vec<i64>,
}

impl State {
    fn initial(prog: &Program) -> State {
        State {
            threads: prog
                .threads
                .iter()
                .map(|_| ThreadState::default())
                .collect(),
            mem: prog.initial_memory(),
        }
    }

    fn all_halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Compact dedup key: pcs + halt flags + nonzero registers +
    /// tracked memory. Registers are sparse (litmus programs use a
    /// handful of locals plus per-statement temporaries), so the key
    /// stays small even though the register file is 128 wide.
    fn key(&self, conflicts: &Conflicts) -> Vec<u8> {
        let mut k = Vec::with_capacity(64);
        for t in &self.threads {
            k.extend_from_slice(&(t.pc as u32).to_le_bytes());
            k.push(t.halted as u8);
            for (i, &r) in t.regs.iter().enumerate() {
                if r != 0 {
                    k.push(i as u8);
                    k.extend_from_slice(&r.to_le_bytes());
                }
            }
            k.push(0xff); // thread separator (no register index is 0xff: NUM_REGS = 128)
        }
        if conflicts.all_visible {
            for &w in &self.mem {
                k.extend_from_slice(&w.to_le_bytes());
            }
        } else {
            for &a in &conflicts.written {
                k.extend_from_slice(&self.mem[a].to_le_bytes());
            }
        }
        k
    }
}

/// Enumerate every SC-reachable final state of `prog`.
pub fn enumerate_sc(prog: &Program, cfg: &CheckerConfig) -> Result<ScOutcomes, String> {
    let conflicts = Conflicts::analyze(prog);
    let mut stats = InterpStats::default();
    let mut visited: HashSet<Vec<u8>> = HashSet::new();
    let mut states = BTreeSet::new();
    let mut complete = true;
    let mut stack = vec![State::initial(prog)];

    while let Some(mut state) = stack.pop() {
        // Eager phase: run every thread up to its next visible step.
        // These steps commute with everything, so executing them in
        // fixed thread order loses no behaviours.
        let mut local_steps = 0u64;
        for t in 0..state.threads.len() {
            loop {
                let ts = &state.threads[t];
                if ts.halted {
                    break;
                }
                let code = &prog.threads[t];
                if ts.pc >= code.len() {
                    return Err(format!("thread {t}: pc {} out of range", ts.pc));
                }
                if conflicts.visible(&code[ts.pc]) {
                    break;
                }
                local_steps += 1;
                if local_steps > cfg.max_local_steps {
                    // Private runaway loop: bail out of this path.
                    complete = false;
                    break;
                }
                state.threads[t]
                    .step(t, code, &mut state.mem, &mut stats)
                    .map_err(|e| e.to_string())?;
            }
            if local_steps > cfg.max_local_steps {
                break;
            }
        }
        if local_steps > cfg.max_local_steps {
            continue;
        }

        if state.all_halted() {
            states.insert(prog.observed_state(&state.mem));
            continue;
        }
        if !visited.insert(state.key(&conflicts)) {
            continue;
        }
        if visited.len() >= cfg.max_states {
            complete = false;
            continue;
        }

        // Branch over every enabled thread's next (visible) step.
        for t in 0..state.threads.len() {
            if state.threads[t].halted {
                continue;
            }
            let mut next = state.clone();
            next.threads[t]
                .step(t, &prog.threads[t], &mut next.mem, &mut stats)
                .map_err(|e| e.to_string())?;
            stack.push(next);
        }
    }

    Ok(ScOutcomes {
        states,
        complete,
        states_explored: visited.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::ir::*;
    use sfence_isa::CompileOpts;

    fn compile(p: &IrProgram) -> Program {
        p.compile(&CompileOpts::default()).expect("compile")
    }

    /// Hand-computed allowed set for the classic MP shape (no spin):
    /// obs = [flag seen, data seen] ∈ {[0,0],[0,42],[1,42]} — never
    /// flag without data.
    #[test]
    fn mp_allowed_states_match_hand_computation() {
        let mut p = IrProgram::new();
        let data = p.shared("data");
        let flag = p.shared("flag");
        let of = p.observer("flag");
        let od = p.observer("data");
        p.thread(move |b| {
            b.store(data.cell(), c(42));
            b.fence();
            b.store(flag.cell(), c(1));
            b.halt();
        });
        p.thread(move |b| {
            b.let_("f", ld(flag.cell()));
            b.fence();
            b.let_("d", ld(data.cell()));
            b.store(of.cell(), l("f"));
            b.store(od.cell(), l("d"));
            b.halt();
        });
        let prog = compile(&p);
        let out = enumerate_sc(&prog, &CheckerConfig::default()).unwrap();
        assert!(out.complete);
        let expect: BTreeSet<Vec<i64>> =
            [vec![0, 0], vec![0, 42], vec![1, 42]].into_iter().collect();
        assert_eq!(out.states, expect);
    }

    /// Hand-computed allowed set for the SB shape: both observations
    /// zero is forbidden; every other combination is reachable.
    #[test]
    fn sb_allowed_states_match_hand_computation() {
        let mut p = IrProgram::new();
        let f0 = p.shared("flag0");
        let f1 = p.shared("flag1");
        let r0 = p.observer("r0");
        let r1 = p.observer("r1");
        p.thread(move |b| {
            b.store(f0.cell(), c(1));
            b.fence();
            b.store(r0.cell(), ld(f1.cell()));
            b.halt();
        });
        p.thread(move |b| {
            b.store(f1.cell(), c(1));
            b.fence();
            b.store(r1.cell(), ld(f0.cell()));
            b.halt();
        });
        let prog = compile(&p);
        let out = enumerate_sc(&prog, &CheckerConfig::default()).unwrap();
        assert!(out.complete);
        let expect: BTreeSet<Vec<i64>> = [vec![0, 1], vec![1, 0], vec![1, 1]].into_iter().collect();
        assert_eq!(out.states, expect);
        assert!(
            !out.allows(&[0, 0]),
            "SB relaxed outcome must be SC-forbidden"
        );
    }

    /// A spinning consumer: memoization must make the spin finite and
    /// the only final state is the published value.
    #[test]
    fn spinning_consumer_terminates_with_single_state() {
        let mut p = IrProgram::new();
        let data = p.shared("data");
        let flag = p.shared("flag");
        let od = p.observer("data");
        p.thread(move |b| {
            b.store(data.cell(), c(7));
            b.fence();
            b.store(flag.cell(), c(1));
            b.halt();
        });
        p.thread(move |b| {
            b.spin_until(ld(flag.cell()).eq(c(1)));
            b.store(od.cell(), ld(data.cell()));
            b.halt();
        });
        let prog = compile(&p);
        let out = enumerate_sc(&prog, &CheckerConfig::default()).unwrap();
        assert!(out.complete);
        let expect: BTreeSet<Vec<i64>> = [vec![7]].into_iter().collect();
        assert_eq!(out.states, expect);
    }

    /// CAS increments never lose updates under SC.
    #[test]
    fn cas_counter_has_exactly_one_final_state() {
        let mut p = IrProgram::new();
        let ctr = p.shared_observer("ctr");
        for _ in 0..2 {
            p.thread(move |b| {
                b.let_("i", c(0));
                b.while_(l("i").lt(c(2)), move |w| {
                    w.let_("ok", c(0));
                    w.while_(l("ok").eq(c(0)), move |ww| {
                        ww.let_("cur", ld(ctr.cell()));
                        ww.cas("ok", ctr.cell(), l("cur"), l("cur").add(c(1)));
                    });
                    w.assign("i", l("i").add(c(1)));
                });
                b.halt();
            });
        }
        let prog = compile(&p);
        let out = enumerate_sc(&prog, &CheckerConfig::default()).unwrap();
        assert!(out.complete);
        let expect: BTreeSet<Vec<i64>> = [vec![4]].into_iter().collect();
        assert_eq!(out.states, expect);
    }

    /// The budget is honoured and reported.
    #[test]
    fn state_budget_reports_incomplete() {
        let mut p = IrProgram::new();
        let a = p.shared("a");
        for t in 0..3 {
            p.thread(move |b| {
                b.let_("i", c(0));
                b.while_(l("i").lt(c(6)), move |w| {
                    w.store(a.cell(), l("i").add(c(t)));
                    w.assign("i", l("i").add(c(1)));
                });
                b.halt();
            });
        }
        let prog = compile(&p);
        let out = enumerate_sc(
            &prog,
            &CheckerConfig {
                max_states: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!out.complete);
    }
}
