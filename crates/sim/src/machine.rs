//! The multicore machine: N cores over a shared cache hierarchy and a
//! flat functional memory, stepped in deterministic core order.
//!
//! [`Machine::step`] advances every core by one cycle and is the
//! reference semantics. [`Machine::run`] cycles only the cores that
//! can act: a core that neither issued nor retired sleeps until its
//! [`Core::next_wake`] or until a coherence probe squashes it, and is
//! charged the stall counters of its quiet cycle once per slept cycle
//! when it wakes ([`Core::skip`]; why this is exact is argued on
//! [`Core::cycle`]). When every live core sleeps, the clock jumps to
//! the earliest wake. The paper's applications and the small litmus
//! and fuzz programs spend most of their core-cycles waiting on fences
//! and cold misses, so they run several times faster this way; the
//! summary, memory, watch log and traces are the same as stepping
//! every cycle.

use sfence_core::{PipeEvent, PipeKind, WalkKind};
use sfence_cpu::{Core, CoreConfig, FenceConfig, MemBus};
use sfence_isa::Program;
use sfence_mem::{AccessOutcome, CoreMemStats, MemConfig, MemorySystem};
use std::collections::HashSet;

/// Whole-machine configuration. Defaults reproduce the paper's
/// Table III: 8-core CMP, 128-entry ROB, 32 KB/4-way L1, 1 MB/8-way
/// L2, 300-cycle memory, 4 FSB entries, 4 FSS entries.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub num_cores: usize,
    pub core: CoreConfig,
    pub mem: MemConfig,
    /// Abort a run after this many cycles (deadlock/livelock guard).
    pub max_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl MachineConfig {
    /// The paper's Table III parameters.
    pub fn paper_default() -> Self {
        Self {
            num_cores: 8,
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            max_cycles: 200_000_000,
        }
    }

    /// Convenience: set the fence configuration (T, S, T+, S+).
    pub fn with_fence(mut self, fence: FenceConfig) -> Self {
        self.core.fence = fence;
        self
    }
}

/// A watched write, recorded when a store/CAS to a watched address
/// completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchEvent {
    pub cycle: u64,
    pub core: usize,
    pub addr: usize,
    pub old: i64,
    pub new: i64,
}

struct MachineBus<'a> {
    memsys: &'a mut MemorySystem,
    mem: &'a mut [i64],
    watch_addrs: &'a HashSet<usize>,
    watch_log: &'a mut Vec<WatchEvent>,
    /// Writes performed this cycle, for in-window-speculation
    /// coherence probes.
    write_probes: &'a mut Vec<(usize, usize)>,
    now: u64,
    /// Emit `DirWalk` pipe events for accesses that reach the
    /// L2/directory (mirrors `cfg.core.pipe_trace`).
    pipe_trace: bool,
    pipe: &'a mut Vec<PipeEvent>,
}

impl MemBus for MachineBus<'_> {
    fn access_latency(&mut self, core: usize, addr: usize, write: bool) -> u64 {
        let (lat, outcome) = self.memsys.access(core, addr, write);
        if self.pipe_trace {
            let walk = match outcome {
                AccessOutcome::L1Hit => None,
                AccessOutcome::Upgrade => Some(WalkKind::Upgrade),
                AccessOutcome::L2Hit => Some(WalkKind::L2Hit),
                AccessOutcome::RemoteDirty => Some(WalkKind::RemoteDirty),
                AccessOutcome::MemMiss => Some(WalkKind::MemMiss),
            };
            if let Some(walk) = walk {
                self.pipe.push(PipeEvent {
                    core: core as u32,
                    cycle: self.now,
                    kind: PipeKind::DirWalk {
                        addr: addr as u64,
                        write,
                        walk,
                        latency: lat,
                    },
                });
            }
        }
        lat
    }

    fn read(&mut self, addr: usize) -> i64 {
        self.mem[addr]
    }

    fn write(&mut self, core: usize, addr: usize, val: i64) {
        let old = self.mem[addr];
        self.mem[addr] = val;
        self.write_probes.push((core, addr));
        if !self.watch_addrs.is_empty() && self.watch_addrs.contains(&addr) {
            self.watch_log.push(WatchEvent {
                cycle: self.now,
                core,
                addr,
                old,
                new: val,
            });
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every core retired its `halt` and drained.
    Completed,
    /// `max_cycles` elapsed first.
    CycleLimit,
}

/// Results of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    pub exit: RunExit,
    /// Total execution time: the cycle at which the last core drained,
    /// or `max_cycles` at the cycle limit.
    pub cycles: u64,
    pub core_stats: Vec<sfence_cpu::CoreStats>,
    pub mem_stats: CoreMemStats,
    pub scope_stats: Vec<sfence_core::ScopeUnitStats>,
    /// Per-core scope-unit path coverage bitmaps
    /// ([`sfence_core::coverage`]) — the fuzzer's corpus key.
    pub scope_coverage: Vec<u32>,
}

/// Average across *active* cores (those that retired instructions) of
/// the fraction of `cycles` spent stalled on fences — the paper's
/// "Fence Stalls" bar component. Zero-cycle or all-idle runs report
/// 0.0. The one definition; the harness's `RunReport` calls it.
pub fn fence_stall_fraction(core_stats: &[sfence_cpu::CoreStats], cycles: u64) -> f64 {
    let active: Vec<&sfence_cpu::CoreStats> =
        core_stats.iter().filter(|s| s.instrs_retired > 0).collect();
    if active.is_empty() || cycles == 0 {
        return 0.0;
    }
    active
        .iter()
        .map(|s| s.fence_stall_cycles as f64 / cycles as f64)
        .sum::<f64>()
        / active.len() as f64
}

/// The machine.
pub struct Machine {
    cores: Vec<Core>,
    memsys: MemorySystem,
    pub mem: Vec<i64>,
    watch_addrs: HashSet<usize>,
    pub watch_log: Vec<WatchEvent>,
    write_probes: Vec<(usize, usize)>,
    /// Directory-walk pipe events (the bus's share of the pipeline
    /// trace; empty unless `cfg.core.pipe_trace`).
    pipe_bus: Vec<PipeEvent>,
    /// Per core: when [`run`](Self::run) next cycles it and how far
    /// its stalls are charged.
    clocks: Vec<CoreClock>,
    now: u64,
    cfg: MachineConfig,
}

/// A core's place in [`Machine::run`]'s schedule.
#[derive(Debug, Clone, Copy)]
struct CoreClock {
    /// The next cycle at which the core is cycled: the one after it
    /// acted or was squashed by a probe, its [`Core::next_wake`] after
    /// a quiet cycle, `u64::MAX` once it has finished.
    wake: u64,
    /// The first cycle whose stall charge the core has not had. It
    /// lags `now` only while the core sleeps.
    charged: u64,
}

impl Machine {
    /// Build a machine for a compiled program. The program may use at
    /// most `cfg.num_cores` threads.
    pub fn new(program: &Program, cfg: MachineConfig) -> Self {
        assert!(
            program.num_threads() <= cfg.num_cores,
            "program has {} threads but the machine has {} cores",
            program.num_threads(),
            cfg.num_cores
        );
        let cores: Vec<Core> = (0..cfg.num_cores)
            .map(|i| {
                let code = program.threads.get(i).cloned().unwrap_or_default();
                Core::new(i, code, cfg.core.clone())
            })
            .collect();
        let clocks = cores
            .iter()
            .map(|c| CoreClock {
                wake: if c.finished() { u64::MAX } else { 0 },
                charged: 0,
            })
            .collect();
        Self {
            cores,
            memsys: MemorySystem::new(cfg.num_cores, cfg.mem),
            mem: program.initial_memory(),
            watch_addrs: HashSet::new(),
            watch_log: Vec::new(),
            write_probes: Vec::new(),
            pipe_bus: Vec::new(),
            clocks,
            now: 0,
            cfg,
        }
    }

    /// Watch writes to an address (mutual-exclusion checks etc.).
    pub fn watch(&mut self, addr: usize) {
        self.watch_addrs.insert(addr);
    }

    /// Advance one cycle (all cores, in core order), then deliver
    /// coherence probes for this cycle's writes (in-window speculation
    /// violation replay — no-ops unless speculation is enabled).
    pub fn step(&mut self) {
        self.tick(true);
    }

    /// The one cycle body of [`step`](Self::step) and
    /// [`run`](Self::run): cycle, in core order, every core that is
    /// due (all of them when `every`, else those whose wake cycle has
    /// come), then deliver each write probe to every other core, a
    /// sleeping one too. A core charges its slept cycles when it
    /// wakes; a probe that squashes a core charges it through this
    /// cycle and wakes it on the next.
    fn tick(&mut self, every: bool) {
        let now = self.now;
        let Self {
            cores,
            memsys,
            mem,
            watch_addrs,
            watch_log,
            write_probes,
            pipe_bus,
            clocks,
            cfg,
            ..
        } = self;
        for (core, clock) in cores.iter_mut().zip(clocks.iter_mut()) {
            if !every && clock.wake > now {
                continue;
            }
            if clock.charged < now {
                // A sleeper at its own wake cycle: nothing but its own
                // cycles or a squashing probe may move its wake.
                debug_assert_eq!(
                    core.next_wake(now),
                    clock.wake,
                    "a sleeping core's wake moved"
                );
                core.skip(now - clock.charged);
            }
            let mut bus = MachineBus {
                memsys,
                mem,
                watch_addrs,
                watch_log,
                write_probes,
                now,
                pipe_trace: cfg.core.pipe_trace,
                pipe: pipe_bus,
            };
            let acted = core.cycle(now, &mut bus);
            clock.charged = now + 1;
            clock.wake = if acted {
                now + 1
            } else {
                core.next_wake(now + 1)
            };
        }
        for &(writer, addr) in write_probes.iter() {
            for (i, (core, clock)) in cores.iter_mut().zip(clocks.iter_mut()).enumerate() {
                if i != writer && core.coherence_probe(addr, now) {
                    core.skip(now + 1 - clock.charged);
                    clock.charged = now + 1;
                    clock.wake = now + 1;
                }
            }
        }
        write_probes.clear();
        self.now += 1;
    }

    pub fn finished(&self) -> bool {
        self.cores.iter().all(Core::finished)
    }

    /// Run to completion (or the cycle limit) and summarise. Each
    /// cycle cycles only the cores whose wake cycle has come; when
    /// none has, the clock jumps to the earliest wake. A core still
    /// asleep at `max_cycles` is charged up to it. The result is the
    /// same as calling [`step`](Self::step) until the machine finishes
    /// or reaches `max_cycles`.
    pub fn run(&mut self) -> RunSummary {
        let max = self.cfg.max_cycles;
        loop {
            let next = self.clocks.iter().map(|c| c.wake).fold(u64::MAX, u64::min);
            if next >= max {
                break;
            }
            debug_assert!(next >= self.now, "a core's wake fell behind the clock");
            self.now = next;
            self.tick(false);
        }
        let (exit, cycles) = if self.finished() {
            let last = self.cores.iter().filter_map(|c| c.stats.finished_at).max();
            (RunExit::Completed, last.unwrap_or(self.now))
        } else {
            self.now = self.now.max(max);
            for (core, clock) in self.cores.iter_mut().zip(&mut self.clocks) {
                core.skip(self.now - clock.charged);
                clock.charged = self.now;
            }
            (RunExit::CycleLimit, self.now)
        };
        RunSummary {
            exit,
            cycles,
            core_stats: self.cores.iter().map(|c| c.stats.clone()).collect(),
            mem_stats: self.memsys.total_stats(),
            scope_stats: self.cores.iter().map(|c| c.scope_stats()).collect(),
            scope_coverage: self
                .cores
                .iter()
                .map(|c| c.scope_coverage().bits())
                .collect(),
        }
    }

    /// Per-core retired-event traces (requires `core.trace`).
    pub fn traces(&self) -> Vec<&[sfence_core::RetiredEvent]> {
        self.cores.iter().map(|c| c.trace.as_slice()).collect()
    }

    /// The merged pipeline event trace (requires `core.pipe_trace`):
    /// every core's events plus the bus's directory walks, stably
    /// sorted by `(cycle, core)` so the stream is a pure function of
    /// the workload and configuration — independent of how the caller
    /// schedules runs across host threads.
    pub fn pipe_trace(&self) -> Vec<PipeEvent> {
        let mut all: Vec<PipeEvent> = Vec::with_capacity(
            self.cores.iter().map(|c| c.pipe.len()).sum::<usize>() + self.pipe_bus.len(),
        );
        for core in &self.cores {
            all.extend_from_slice(&core.pipe);
        }
        all.extend_from_slice(&self.pipe_bus);
        all.sort_by_key(|e| (e.cycle, e.core));
        all
    }

    /// Snapshot of every core's architectural register file (retired
    /// state). Together with the final memory this is the complete
    /// observable final state of a run.
    pub fn reg_snapshot(&self) -> Vec<Vec<i64>> {
        self.cores.iter().map(|c| c.arch_regs().to_vec()).collect()
    }
}
