//! Modelled-machine counters summed over a batch's runs: the cpu,
//! mem and scope-unit layers of the simulated design. They are
//! deterministic for a given workload and explain host-time figures
//! such as `sim.ns_per_cycle`; they are reported, never bounded.

use sfence_core::ScopeUnitStats;
use sfence_cpu::CoreStats;
use sfence_mem::CoreMemStats;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Simulated machine cycles (one per run, not per core).
    pub cycles: u64,
    /// Cycles summed over the cores that retired anything.
    pub active_core_cycles: u64,
    pub retired: u64,
    pub fence_stall: u64,
    pub rob_full: u64,
    pub sb_full: u64,
    pub accesses: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub mem_misses: u64,
    pub scoped_fences: u64,
    pub degraded_fences: u64,
    pub fss_overflows: u64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Model {
    pub fn add(
        &mut self,
        cores: &[CoreStats],
        mem: &CoreMemStats,
        scope: &[ScopeUnitStats],
        cycles: u64,
    ) {
        self.cycles += cycles;
        for c in cores.iter().filter(|c| c.instrs_retired > 0) {
            self.active_core_cycles += cycles;
            self.retired += c.instrs_retired;
            self.fence_stall += c.fence_stall_cycles;
            self.rob_full += c.rob_full_stall_cycles;
            self.sb_full += c.sb_full_stall_cycles;
        }
        self.accesses += mem.accesses;
        self.l1_hits += mem.l1_hits;
        self.l2_hits += mem.l2_hits;
        self.mem_misses += mem.mem_misses;
        for s in scope {
            self.scoped_fences += s.scoped_fences;
            self.degraded_fences += s.degraded_fences;
            self.fss_overflows += s.fss_overflows;
        }
    }

    pub fn merge(&mut self, o: &Model) {
        self.cycles += o.cycles;
        self.active_core_cycles += o.active_core_cycles;
        self.retired += o.retired;
        self.fence_stall += o.fence_stall;
        self.rob_full += o.rob_full;
        self.sb_full += o.sb_full;
        self.accesses += o.accesses;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.mem_misses += o.mem_misses;
        self.scoped_fences += o.scoped_fences;
        self.degraded_fences += o.degraded_fences;
        self.fss_overflows += o.fss_overflows;
    }

    /// The per-layer figures, by metric name. Raw stall shares
    /// overlap (a cycle can be fence- and ROB-stalled at once), so they
    /// do not sum to the cycles lost.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("cpu.ipc", ratio(self.retired, self.active_core_cycles)),
            (
                "cpu.fence_stall_share",
                ratio(self.fence_stall, self.active_core_cycles),
            ),
            (
                "cpu.rob_full_share",
                ratio(self.rob_full, self.active_core_cycles),
            ),
            (
                "cpu.sb_full_share",
                ratio(self.sb_full, self.active_core_cycles),
            ),
            ("mem.accesses", self.accesses as f64),
            ("mem.l1_hit_ratio", ratio(self.l1_hits, self.accesses)),
            (
                "mem.l2_hit_ratio",
                ratio(
                    self.l2_hits,
                    self.accesses - self.l1_hits.min(self.accesses),
                ),
            ),
            ("mem.mem_miss_ratio", ratio(self.mem_misses, self.accesses)),
            ("core.scoped_fences", self.scoped_fences as f64),
            (
                "core.degraded_share",
                ratio(
                    self.degraded_fences,
                    self.scoped_fences + self.degraded_fences,
                ),
            ),
            ("core.fss_overflows", self.fss_overflows as f64),
        ]
    }
}
