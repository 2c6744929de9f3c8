//! The two-level cache hierarchy with MESI-lite invalidation
//! coherence and the Table III latency model.
//!
//! Geometry and latencies default to the paper's architectural
//! parameters: private 32 KB 4-way L1s (2-cycle), a shared 1 MB 8-way
//! L2 (10-cycle), and 300-cycle memory. Coherence is an invalidation
//! protocol over a full-map directory: writes obtain exclusive
//! ownership, invalidating other cores' L1 copies; reads downgrade a
//! remote dirty owner. The protocol is resolved atomically at access
//! time (no transient states) and only affects *timing* — functional
//! data lives in the machine's flat memory. The L2 is inclusive of all
//! L1s.

use crate::cache::{CacheGeometry, TagArray};
use sfence_isa::WORDS_PER_LINE;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the directory's line-number keys: lines
/// are small trusted integers, so the default SipHash buys nothing.
/// Hash order is never observable (the directory is only iterated by
/// the order-insensitive invariant checker).
#[derive(Debug, Clone, Copy, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("line keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply + rotate: enough avalanche for dense keys.
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
}

type LineMap = HashMap<u64, DirEntry, BuildHasherDefault<LineHasher>>;

/// Cache line size in bytes: the ISA's [`WORDS_PER_LINE`] 64-bit words.
pub const LINE_BYTES: usize = WORDS_PER_LINE * 8;
/// L1 hit latency in cycles (Table III).
pub const L1_LATENCY: u64 = 2;
/// L2 latency in cycles, on top of the L1's (Table III).
pub const L2_LATENCY: u64 = 10;
/// Extra cycles to fetch a line that is dirty in a remote L1
/// (writeback + transfer through the L2).
pub const REMOTE_DIRTY_PENALTY: u64 = 10;

/// Memory-system configuration (paper Table III defaults): the
/// parameters the evaluation sweeps. The line size and the L1, L2 and
/// remote-dirty latencies are the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    pub l1_size: usize,
    pub l1_ways: usize,
    pub l2_size: usize,
    pub l2_ways: usize,
    /// Round-trip latency to memory (the Fig. 15 sweep parameter).
    pub mem_latency: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1_size: 32 * 1024,
            l1_ways: 4,
            l2_size: 1024 * 1024,
            l2_ways: 8,
            mem_latency: 300,
        }
    }
}

/// How an access was satisfied (for stats and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// L1 hit with sufficient permission.
    L1Hit,
    /// L1 hit on a shared line that a write had to upgrade
    /// (invalidating remote copies).
    Upgrade,
    /// L1 miss satisfied by the shared L2.
    L2Hit,
    /// L1 miss satisfied by a remote L1 holding the line dirty.
    RemoteDirty,
    /// Missed everywhere: fetched from memory.
    MemMiss,
}

/// Per-core cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreMemStats {
    pub accesses: u64,
    pub l1_hits: u64,
    pub upgrades: u64,
    pub l2_hits: u64,
    pub remote_dirty: u64,
    pub mem_misses: u64,
    pub invalidations_received: u64,
}

#[derive(Debug, Clone, Default)]
struct DirEntry {
    /// Bitmask of cores whose L1 holds the line.
    sharers: u64,
    /// Core holding the line dirty, if any (must be a sharer).
    dirty_owner: Option<usize>,
}

/// The shared memory system: per-core L1 tag arrays, one L2, one
/// directory.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MemConfig,
    l1: Vec<TagArray>,
    l2: TagArray,
    dir: LineMap,
    stats: Vec<CoreMemStats>,
    /// Per-core most-recently-accessed line (`u64::MAX` = none): a
    /// read of this line is an L1 hit with no LRU or directory side
    /// effects, so `access` can skip both probes. Must be cleared
    /// whenever the core's L1 copy is invalidated.
    mru: Vec<u64>,
}

impl MemorySystem {
    pub fn new(num_cores: usize, cfg: MemConfig) -> Self {
        let l1_geom = CacheGeometry {
            size_bytes: cfg.l1_size,
            ways: cfg.l1_ways,
        };
        let l2_geom = CacheGeometry {
            size_bytes: cfg.l2_size,
            ways: cfg.l2_ways,
        };
        Self {
            cfg,
            l1: (0..num_cores).map(|_| TagArray::new(l1_geom)).collect(),
            l2: TagArray::new(l2_geom),
            dir: LineMap::default(),
            stats: vec![CoreMemStats::default(); num_cores],
            mru: vec![u64::MAX; num_cores],
        }
    }

    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    #[inline]
    pub fn line_of(&self, addr: usize) -> u64 {
        addr as u64 / WORDS_PER_LINE as u64
    }

    /// Perform one access for `core`; returns its latency and outcome.
    pub fn access(&mut self, core: usize, addr: usize, write: bool) -> (u64, AccessOutcome) {
        let line = self.line_of(addr);
        self.stats[core].accesses += 1;

        // MRU filter: re-reading the line this core touched last is an
        // L1 hit whose slow path mutates nothing (the line is already
        // MRU in its set and a read hit leaves the directory alone).
        if !write && self.mru[core] == line {
            self.stats[core].l1_hits += 1;
            return (L1_LATENCY, AccessOutcome::L1Hit);
        }

        if self.l1[core].lookup(line) {
            let entry = self.dir.entry(line).or_default();
            debug_assert!(entry.sharers & (1 << core) != 0, "directory out of sync");
            if !write {
                self.stats[core].l1_hits += 1;
                self.mru[core] = line;
                return (L1_LATENCY, AccessOutcome::L1Hit);
            }
            let exclusive = entry.sharers == (1 << core);
            if exclusive {
                entry.dirty_owner = Some(core);
                self.stats[core].l1_hits += 1;
                self.mru[core] = line;
                return (L1_LATENCY, AccessOutcome::L1Hit);
            }
            // Upgrade: invalidate remote copies through the L2.
            self.invalidate_remote_sharers(line, core);
            let entry = self.dir.entry(line).or_default();
            entry.sharers = 1 << core;
            entry.dirty_owner = Some(core);
            self.stats[core].upgrades += 1;
            self.mru[core] = line;
            return (L1_LATENCY + L2_LATENCY, AccessOutcome::Upgrade);
        }

        // L1 miss. Where does the line come from?
        let remote_dirty = self
            .dir
            .get(&line)
            .and_then(|e| e.dirty_owner)
            .filter(|&o| o != core);
        let (mut latency, outcome) = if let Some(_owner) = remote_dirty {
            // Writeback from the remote L1 through the L2, then fetch.
            (
                L1_LATENCY + L2_LATENCY + REMOTE_DIRTY_PENALTY,
                AccessOutcome::RemoteDirty,
            )
        } else if self.l2.lookup(line) {
            (L1_LATENCY + L2_LATENCY, AccessOutcome::L2Hit)
        } else {
            (
                L1_LATENCY + L2_LATENCY + self.cfg.mem_latency,
                AccessOutcome::MemMiss,
            )
        };
        match outcome {
            AccessOutcome::RemoteDirty => self.stats[core].remote_dirty += 1,
            AccessOutcome::L2Hit => self.stats[core].l2_hits += 1,
            AccessOutcome::MemMiss => self.stats[core].mem_misses += 1,
            _ => unreachable!(),
        }

        if write {
            // Read-for-ownership: every other copy is invalidated.
            self.invalidate_remote_sharers(line, core);
            latency = latency.max(L1_LATENCY + L2_LATENCY);
        } else if let Some(owner) = remote_dirty {
            // Downgrade the dirty owner to shared (it keeps the line).
            if let Some(e) = self.dir.get_mut(&line) {
                debug_assert_eq!(e.dirty_owner, Some(owner));
                e.dirty_owner = None;
            }
        }

        // Fill L2 (inclusive) and L1, handling evictions.
        if !self.l2.contains(line) {
            if let Some(victim) = self.l2.insert(line) {
                self.evict_from_l2(victim);
            }
        }
        if let Some(victim) = self.l1[core].insert(line) {
            self.drop_l1_copy(victim, core);
        }
        let entry = self.dir.entry(line).or_default();
        entry.sharers |= 1 << core;
        entry.dirty_owner = if write { Some(core) } else { entry.dirty_owner };
        self.mru[core] = line;
        (latency, outcome)
    }

    /// Invalidate every L1 copy of `line` except `keep`'s.
    fn invalidate_remote_sharers(&mut self, line: u64, keep: usize) {
        let Some(entry) = self.dir.get_mut(&line) else {
            return;
        };
        let sharers = entry.sharers & !(1 << keep);
        entry.sharers &= 1 << keep;
        if entry.dirty_owner.is_some_and(|o| o != keep) {
            entry.dirty_owner = None;
        }
        for c in 0..self.l1.len() {
            if sharers & (1 << c) != 0 {
                self.l1[c].invalidate(line);
                self.stats[c].invalidations_received += 1;
                if self.mru[c] == line {
                    self.mru[c] = u64::MAX;
                }
            }
        }
    }

    /// An L1 eviction: the core silently drops its copy.
    fn drop_l1_copy(&mut self, line: u64, core: usize) {
        if let Some(entry) = self.dir.get_mut(&line) {
            entry.sharers &= !(1 << core);
            if entry.dirty_owner == Some(core) {
                entry.dirty_owner = None; // writeback to L2 (timing folded into later misses)
            }
            if entry.sharers == 0 {
                self.dir.remove(&line);
            }
        }
    }

    /// An L2 eviction: inclusivity forces all L1 copies out.
    fn evict_from_l2(&mut self, line: u64) {
        if let Some(entry) = self.dir.remove(&line) {
            for c in 0..self.l1.len() {
                if entry.sharers & (1 << c) != 0 {
                    self.l1[c].invalidate(line);
                    self.stats[c].invalidations_received += 1;
                    if self.mru[c] == line {
                        self.mru[c] = u64::MAX;
                    }
                }
            }
        }
    }

    pub fn core_stats(&self, core: usize) -> &CoreMemStats {
        &self.stats[core]
    }

    /// Aggregate stats across cores.
    pub fn total_stats(&self) -> CoreMemStats {
        let mut t = CoreMemStats::default();
        for s in &self.stats {
            t.accesses += s.accesses;
            t.l1_hits += s.l1_hits;
            t.upgrades += s.upgrades;
            t.l2_hits += s.l2_hits;
            t.remote_dirty += s.remote_dirty;
            t.mem_misses += s.mem_misses;
            t.invalidations_received += s.invalidations_received;
        }
        t
    }

    /// Invariant check used by property tests: the directory and tag
    /// arrays agree, and the L2 includes every L1 line.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (c, l1) in self.l1.iter().enumerate() {
            for line in l1.resident_lines() {
                if !self.l2.contains(line) {
                    return Err(format!("L1[{c}] line {line} not in inclusive L2"));
                }
                let e = self
                    .dir
                    .get(&line)
                    .ok_or_else(|| format!("L1[{c}] line {line} missing from directory"))?;
                if e.sharers & (1 << c) == 0 {
                    return Err(format!("directory misses sharer {c} of line {line}"));
                }
            }
        }
        for (&line, e) in &self.dir {
            for c in 0..self.l1.len() {
                if e.sharers & (1 << c) != 0 && !self.l1[c].contains(line) {
                    return Err(format!(
                        "directory claims {c} shares line {line}; L1 disagrees"
                    ));
                }
            }
            if let Some(o) = e.dirty_owner {
                if e.sharers & (1 << o) == 0 {
                    return Err(format!("dirty owner {o} of line {line} is not a sharer"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(cores, MemConfig::default())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys(1);
        let (lat, out) = m.access(0, 100, false);
        assert_eq!(out, AccessOutcome::MemMiss);
        assert_eq!(lat, 2 + 10 + 300);
        let (lat, out) = m.access(0, 101, false); // same line
        assert_eq!(out, AccessOutcome::L1Hit);
        assert_eq!(lat, 2);
        m.check_invariants().unwrap();
    }

    #[test]
    fn l2_hit_after_remote_read() {
        let mut m = sys(2);
        m.access(0, 100, false); // memory -> L2 + L1[0]
        let (lat, out) = m.access(1, 100, false);
        assert_eq!(out, AccessOutcome::L2Hit);
        assert_eq!(lat, 12);
        m.check_invariants().unwrap();
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut m = sys(2);
        m.access(0, 100, false);
        m.access(1, 100, false);
        // Core 1 writes: core 0's copy must go.
        let (_, out) = m.access(1, 100, true);
        assert_eq!(out, AccessOutcome::Upgrade);
        assert_eq!(m.core_stats(0).invalidations_received, 1);
        // Core 0 reads again: misses L1; the line is dirty in core 1's
        // L1, so it is served by a writeback-and-transfer.
        let (_, out) = m.access(0, 100, false);
        assert_eq!(out, AccessOutcome::RemoteDirty);
        m.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_write_hit_is_cheap() {
        let mut m = sys(2);
        m.access(0, 100, true); // RFO miss
        let (lat, out) = m.access(0, 100, true);
        assert_eq!(out, AccessOutcome::L1Hit);
        assert_eq!(lat, 2);
    }

    #[test]
    fn remote_dirty_read_downgrades() {
        let mut m = sys(2);
        m.access(0, 100, true); // core 0 holds dirty
        let (lat, out) = m.access(1, 100, false);
        assert_eq!(out, AccessOutcome::RemoteDirty);
        assert_eq!(lat, 2 + 10 + 10);
        // Now shared: core 0 writing again must upgrade.
        let (_, out) = m.access(0, 100, true);
        assert_eq!(out, AccessOutcome::Upgrade);
        assert_eq!(m.core_stats(1).invalidations_received, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn remote_dirty_write_takes_ownership() {
        let mut m = sys(2);
        m.access(0, 100, true);
        let (_, out) = m.access(1, 100, true);
        assert_eq!(out, AccessOutcome::RemoteDirty);
        assert_eq!(m.core_stats(0).invalidations_received, 1);
        // Core 1 is now the exclusive dirty owner.
        let (lat, out) = m.access(1, 100, true);
        assert_eq!((lat, out), (2, AccessOutcome::L1Hit));
        m.check_invariants().unwrap();
    }

    #[test]
    fn capacity_evictions_keep_invariants() {
        let mut m = MemorySystem::new(
            2,
            MemConfig {
                l1_size: 256,
                l1_ways: 2,
                l2_size: 1024,
                l2_ways: 2,
                ..MemConfig::default()
            },
        );
        // Touch many distinct lines from both cores.
        for i in 0..64 {
            m.access(i % 2, i * 8, i % 3 == 0);
            m.check_invariants().unwrap();
        }
        let t = m.total_stats();
        assert!(t.mem_misses > 0);
        assert_eq!(t.accesses, 64);
    }

    #[test]
    fn latency_sweep_parameter() {
        for lat in [200u64, 300, 500] {
            let mut m = MemorySystem::new(
                1,
                MemConfig {
                    mem_latency: lat,
                    ..MemConfig::default()
                },
            );
            let (l, _) = m.access(0, 64, false);
            assert_eq!(l, 12 + lat);
        }
    }
}
