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
//! - **State memoization.** Visited states (pcs, nonzero registers,
//!   written memory) are deduplicated, which also makes spin loops
//!   finite: a spin that re-reads an unchanged flag revisits the same
//!   state and is pruned. A state stores only the registers its
//!   thread can write (found statically from `Instr::dest`), not the
//!   128-wide register file, and threads step through one reused
//!   scratch interpreter state each. The key is built into a reused
//!   buffer, copied only when it is new, and hashed with a
//!   multiplicative hasher.
//! - **Bounds.** The search gives up (reporting `complete = false`)
//!   past a configurable state budget, so a pathological input can
//!   never hang the campaign.
//!
//! The *final state* of an execution is the program's observed
//! vector ([`Program::observed_state`]): the values of its `obs_`
//! globals in address order.

use sfence_isa::interp::{InterpStats, ThreadState};
use sfence_isa::{Instr, Operand, Program, NUM_REGS};
use std::collections::{BTreeSet, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

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

/// Where each thread's registers live in a compact [`State`]. A
/// register no instruction of its thread writes (`Instr::dest`) stays
/// 0 for the whole search, so a state stores only the others.
struct Layout {
    /// Per thread, ascending: the registers the thread can write.
    regs: Vec<Vec<u8>>,
    /// Start of each thread's registers in [`State::regs`].
    base: Vec<usize>,
    /// Per thread and pc: is the instruction a scheduling choice
    /// ([`Conflicts::visible`])? Computed once per program, so the
    /// eager phase does no set lookups.
    visible: Vec<Vec<bool>>,
}

impl Layout {
    fn new(prog: &Program, conflicts: &Conflicts) -> Layout {
        let mut base = Vec::with_capacity(prog.threads.len());
        let mut next = 0;
        let regs: Vec<Vec<u8>> = prog
            .threads
            .iter()
            .map(|code| {
                let mut written = [false; NUM_REGS];
                for rd in code.iter().filter_map(Instr::dest) {
                    written[rd.0 as usize] = true;
                }
                let kept: Vec<u8> = (0..NUM_REGS as u8)
                    .filter(|&r| written[r as usize])
                    .collect();
                base.push(next);
                next += kept.len();
                kept
            })
            .collect();
        let visible = prog
            .threads
            .iter()
            .map(|code| code.iter().map(|i| conflicts.visible(i)).collect())
            .collect();
        Layout {
            regs,
            base,
            visible,
        }
    }
}

/// Program counter and halt flag of one thread.
#[derive(Clone, Copy, Default)]
struct Pc {
    pc: usize,
    halted: bool,
}

/// One SC machine state: per-thread pcs, the writable registers of
/// every thread flat in [`Layout`] order, and memory.
#[derive(Clone)]
struct State {
    pcs: Vec<Pc>,
    regs: Vec<i64>,
    mem: Vec<i64>,
}

impl State {
    fn initial(prog: &Program, layout: &Layout) -> State {
        State {
            pcs: vec![Pc::default(); prog.threads.len()],
            regs: vec![0; layout.regs.iter().map(Vec::len).sum()],
            mem: prog.initial_memory(),
        }
    }

    fn all_halted(&self) -> bool {
        self.pcs.iter().all(|p| p.halted)
    }

    /// Copy thread `t` into its scratch interpreter state. Registers
    /// outside the layout are never written, so they are already 0.
    fn load(&self, t: usize, layout: &Layout, ts: &mut ThreadState) {
        ts.pc = self.pcs[t].pc;
        ts.halted = self.pcs[t].halted;
        let regs = &self.regs[layout.base[t]..];
        for (&r, &v) in layout.regs[t].iter().zip(regs) {
            ts.regs[r as usize] = v;
        }
    }

    /// Copy thread `t` back from its scratch interpreter state.
    fn save(&mut self, t: usize, layout: &Layout, ts: &ThreadState) {
        self.pcs[t] = Pc {
            pc: ts.pc,
            halted: ts.halted,
        };
        let regs = &mut self.regs[layout.base[t]..];
        for (&r, v) in layout.regs[t].iter().zip(regs) {
            *v = ts.regs[r as usize];
        }
    }

    /// Execute one instruction of thread `t`.
    fn step(
        &mut self,
        t: usize,
        prog: &Program,
        layout: &Layout,
        ts: &mut ThreadState,
        stats: &mut InterpStats,
    ) -> Result<(), String> {
        self.load(t, layout, ts);
        ts.step(t, &prog.threads[t], &mut self.mem, stats)
            .map_err(|e| e.to_string())?;
        self.save(t, layout, ts);
        Ok(())
    }

    /// Write the dedup key into `k`: per thread its pc, halt flag,
    /// each nonzero register as (index, value) and a separator, then
    /// the tracked memory. Registers go in index order, so the key is
    /// the one a full 128-register scan would build and states are
    /// deduplicated exactly as with whole register files.
    fn key(&self, layout: &Layout, conflicts: &Conflicts, k: &mut Vec<u8>) {
        k.clear();
        for (t, p) in self.pcs.iter().enumerate() {
            k.extend_from_slice(&(p.pc as u32).to_le_bytes());
            k.push(p.halted as u8);
            let regs = &self.regs[layout.base[t]..];
            for (&r, &v) in layout.regs[t].iter().zip(regs) {
                if v != 0 {
                    k.push(r);
                    k.extend_from_slice(&v.to_le_bytes());
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
    }
}

/// Multiplicative hasher for state keys (the FxHash step with a final
/// rotate, so the low bits the table indexes by see the high bits of
/// the product). It gives up SipHash's defence against crafted
/// collisions for speed: the keys are states of a program the caller
/// chose to check, and the set is never iterated, so hash order is
/// unobservable.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Enumerate every SC-reachable final state of `prog`.
pub fn enumerate_sc(prog: &Program, cfg: &CheckerConfig) -> Result<ScOutcomes, String> {
    let conflicts = Conflicts::analyze(prog);
    let layout = Layout::new(prog, &conflicts);
    let mut scratch = vec![ThreadState::default(); prog.threads.len()];
    let mut stats = InterpStats::default();
    let mut visited: HashSet<Box<[u8]>, BuildHasherDefault<KeyHasher>> = HashSet::default();
    let mut key = Vec::new();
    let mut states = BTreeSet::new();
    let mut complete = true;
    let mut stack = vec![State::initial(prog, &layout)];

    while let Some(mut state) = stack.pop() {
        // Eager phase: run every thread up to its next visible step.
        // These steps commute with everything, so executing them in
        // fixed thread order loses no behaviours.
        let mut local_steps = 0u64;
        for (t, ts) in scratch.iter_mut().enumerate() {
            state.load(t, &layout, ts);
            let code = &prog.threads[t];
            loop {
                if ts.halted {
                    break;
                }
                if ts.pc >= code.len() {
                    return Err(format!("thread {t}: pc {} out of range", ts.pc));
                }
                if layout.visible[t][ts.pc] {
                    break;
                }
                local_steps += 1;
                if local_steps > cfg.max_local_steps {
                    // Private runaway loop: bail out of this path.
                    complete = false;
                    break;
                }
                ts.step(t, code, &mut state.mem, &mut stats)
                    .map_err(|e| e.to_string())?;
            }
            state.save(t, &layout, ts);
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
        state.key(&layout, &conflicts, &mut key);
        if visited.contains(key.as_slice()) {
            continue;
        }
        visited.insert(key.as_slice().into());
        if visited.len() >= cfg.max_states {
            complete = false;
            continue;
        }

        // Branch over every enabled thread's next (visible) step, in
        // thread order. The last one takes `state` itself.
        let last = state
            .pcs
            .iter()
            .rposition(|p| !p.halted)
            .expect("a thread that has not halted");
        for (t, ts) in scratch.iter_mut().enumerate().take(last) {
            if !state.pcs[t].halted {
                let mut next = state.clone();
                next.step(t, prog, &layout, ts, &mut stats)?;
                stack.push(next);
            }
        }
        state.step(last, prog, &layout, &mut scratch[last], &mut stats)?;
        stack.push(state);
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

    fn compile(p: &IrProgram) -> Program {
        p.compile().expect("compile")
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
        assert_eq!(out.states_explored, 10);
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
        assert_eq!(out.states_explored, 10);
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
        assert_eq!(out.states_explored, 4);
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
        assert_eq!(out.states_explored, 65);
    }

    /// A register-computed address defeats the static analysis: every
    /// memory access branches and the state key covers all of memory.
    /// The consumer reads `arr[idx]` for whichever `idx` it sees.
    #[test]
    fn computed_address_keys_all_of_memory() {
        let mut p = IrProgram::new();
        let idx = p.shared("idx");
        let arr = p.shared_array("arr", 2);
        let seen = p.observer("seen");
        p.thread(move |b| {
            b.store(arr.at(c(0)), c(7));
            b.store(idx.cell(), c(1));
            b.halt();
        });
        p.thread(move |b| {
            b.let_("i", ld(idx.cell()));
            b.store(seen.cell(), ld(arr.at(l("i"))));
            b.halt();
        });
        let prog = compile(&p);
        assert!(Conflicts::analyze(&prog).all_visible);
        let out = enumerate_sc(&prog, &CheckerConfig::default()).unwrap();
        assert!(out.complete);
        let expect: BTreeSet<Vec<i64>> = [vec![0], vec![7]].into_iter().collect();
        assert_eq!(out.states, expect);
        assert_eq!(out.states_explored, 16);
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
