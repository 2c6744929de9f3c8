//! The multicore machine: N cores over a shared cache hierarchy and a
//! flat functional memory, stepped in deterministic core order.
//!
//! [`Machine::step`] advances every core by one cycle and is the
//! reference semantics. [`Machine::run`] steps cycles until one in
//! which no core issued or retired and no write was probed; then it
//! jumps to the earliest cycle at which some core can act again
//! ([`Core::next_wake`]), charging each core the stall counters that
//! quiet cycle counted once per skipped cycle ([`Core::skip`]; why
//! this is exact is argued on [`Core::cycle`]). Small litmus and fuzz
//! programs spend most of their cycles waiting on cold misses, so they
//! run several times faster this way; the summary, memory, watch log
//! and traces are the same as stepping every cycle.

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
    /// Total execution time: the cycle at which the last core drained.
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
    now: u64,
    cfg: MachineConfig,
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
        let cores = (0..cfg.num_cores)
            .map(|i| {
                let code = program.threads.get(i).cloned().unwrap_or_default();
                Core::new(i, code, cfg.core.clone())
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
    /// Returns whether the cycle acted: some core issued or retired,
    /// or a write probe was delivered.
    pub fn step(&mut self) -> bool {
        let now = self.now;
        let pipe_trace = self.cfg.core.pipe_trace;
        let mut acted = false;
        for core in &mut self.cores {
            let mut bus = MachineBus {
                memsys: &mut self.memsys,
                mem: &mut self.mem,
                watch_addrs: &self.watch_addrs,
                watch_log: &mut self.watch_log,
                write_probes: &mut self.write_probes,
                now,
                pipe_trace,
                pipe: &mut self.pipe_bus,
            };
            acted |= core.cycle(now, &mut bus);
        }
        if !self.write_probes.is_empty() {
            acted = true;
            let probes = std::mem::take(&mut self.write_probes);
            for &(writer, addr) in &probes {
                for (i, core) in self.cores.iter_mut().enumerate() {
                    if i != writer {
                        core.coherence_probe(addr, now);
                    }
                }
            }
            self.write_probes = probes;
            self.write_probes.clear();
        }
        self.now += 1;
        acted
    }

    pub fn finished(&self) -> bool {
        self.cores.iter().all(Core::finished)
    }

    /// Run to completion (or the cycle limit) and summarise. After a
    /// stepped cycle in which nothing acted, the cycles up to the
    /// earliest [`Core::next_wake`] (clamped to `max_cycles`) are
    /// skipped, never stepped; the result is the same as calling
    /// [`step`](Self::step) until the machine finishes or reaches
    /// `max_cycles`.
    pub fn run(&mut self) -> RunSummary {
        let max = self.cfg.max_cycles;
        while !self.finished() && self.now < max {
            if self.step() {
                continue;
            }
            let now = self.now;
            let to = self
                .cores
                .iter()
                .map(|c| c.next_wake(now))
                .fold(max, u64::min);
            for core in &mut self.cores {
                core.skip(to - now);
            }
            self.now = to;
        }
        let exit = if self.finished() {
            RunExit::Completed
        } else {
            RunExit::CycleLimit
        };
        RunSummary {
            exit,
            cycles: self
                .cores
                .iter()
                .filter_map(|c| c.stats.finished_at)
                .max()
                .unwrap_or(self.now),
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
