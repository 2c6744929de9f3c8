//! Compact scope-unit event coverage, for the fuzzer's corpus.
//!
//! Every interesting micro-architectural path through the scope unit
//! (Fig. 7) sets one bit in a per-core [`CoverageSet`]: FSB column
//! allocation and eviction, mapping-table hits and overflow, FSS
//! push/pop and overflow-degrade, FSS′ misprediction recovery, and
//! the two distinct fence stall paths (at issue vs at retire). The
//! bitmap is cheap enough to maintain unconditionally, rides out of
//! the simulator in `RunSummary::scope_coverage`, and is what
//! `sfence-fuzz` keys its corpus on: a candidate program is only
//! retained if it lights a bit no earlier corpus entry reached under
//! the same machine configuration.

/// A set of scope-unit coverage events, one bit each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CoverageSet(pub u32);

/// A tracked scope was pushed onto the FSS with an FSB column.
pub const FSS_PUSH: u32 = 1 << 0;
/// A scope was pushed untracked (`Push(None)`: table full or degraded).
pub const FSS_PUSH_UNTRACKED: u32 = 1 << 1;
/// A scope was popped from the FSS.
pub const FSS_POP: u32 = 1 << 2;
/// An FSS push overflowed capacity: the unit entered degraded mode.
pub const FSS_OVERFLOW: u32 = 1 << 3;
/// The mapping table returned an existing class→column mapping.
pub const MAP_HIT: u32 = 1 << 4;
/// The mapping table allocated a fresh class column.
pub const MAP_ALLOC: u32 = 1 << 5;
/// Class columns exhausted: the shared fallback column was allocated.
pub const MAP_FALLBACK: u32 = 1 << 6;
/// The mapping table itself was full: the scope went untracked.
pub const MAP_FULL: u32 = 1 << 7;
/// A quiescent column's mapping was evicted (reclaim path).
pub const FSB_EVICT: u32 = 1 << 8;
/// Branch misprediction recovered the FSS from the shadow stack FSS′.
pub const RECOVER_SHADOW: u32 = 1 << 9;
// Bit 10 is unassigned, so recorded bitmaps keep their meaning.
/// Arbitrary-point squash (speculation violation replay) rebuilt the
/// FSS from the retirement boundary.
pub const RECOVER_SQUASH: u32 = 1 << 11;
/// A memory operation was flagged into the reserved set-scope column.
pub const SET_FLAGGED: u32 = 1 << 12;
/// A scoped fence degraded to a full wait (overflow or untracked).
pub const FENCE_DEGRADED: u32 = 1 << 13;
/// A scoped fence resolved to a column mask.
pub const FENCE_SCOPED: u32 = 1 << 14;
/// A global fence was requested.
pub const FENCE_GLOBAL: u32 = 1 << 15;
/// A fence blocked instruction issue (non-speculative path, or an
/// in-window fence re-checked and still unsatisfied).
pub const STALL_AT_ISSUE: u32 = 1 << 16;
/// A fence held retirement (in-window speculation path).
pub const STALL_AT_RETIRE: u32 = 1 << 17;

/// Every defined bit with its short name, in bit order — the coverage
/// map documented in `crates/fuzz/README.md`.
pub const COVERAGE_NAMES: [(u32, &str); 17] = [
    (FSS_PUSH, "fss_push"),
    (FSS_PUSH_UNTRACKED, "fss_push_untracked"),
    (FSS_POP, "fss_pop"),
    (FSS_OVERFLOW, "fss_overflow"),
    (MAP_HIT, "map_hit"),
    (MAP_ALLOC, "map_alloc"),
    (MAP_FALLBACK, "map_fallback"),
    (MAP_FULL, "map_full"),
    (FSB_EVICT, "fsb_evict"),
    (RECOVER_SHADOW, "recover_shadow"),
    (RECOVER_SQUASH, "recover_squash"),
    (SET_FLAGGED, "set_flagged"),
    (FENCE_DEGRADED, "fence_degraded"),
    (FENCE_SCOPED, "fence_scoped"),
    (FENCE_GLOBAL, "fence_global"),
    (STALL_AT_ISSUE, "stall_at_issue"),
    (STALL_AT_RETIRE, "stall_at_retire"),
];

impl CoverageSet {
    pub const EMPTY: CoverageSet = CoverageSet(0);

    /// Record an event.
    pub fn insert(&mut self, bit: u32) {
        self.0 |= bit;
    }

    /// Were any of `bits` recorded?
    pub fn contains(self, bits: u32) -> bool {
        self.0 & bits != 0
    }

    /// Union with another set.
    pub fn union(self, other: CoverageSet) -> CoverageSet {
        CoverageSet(self.0 | other.0)
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of distinct events recorded.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// The raw bitmap (what `RunReport` serializes).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Short names of the recorded events, in bit order.
    pub fn names(self) -> Vec<&'static str> {
        COVERAGE_NAMES
            .iter()
            .filter(|&&(bit, _)| self.contains(bit))
            .map(|&(_, name)| name)
            .collect()
    }
}

impl std::fmt::Display for CoverageSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.names().join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_distinct_and_named() {
        let mut all = 0u32;
        for (bit, name) in COVERAGE_NAMES {
            assert_eq!(bit.count_ones(), 1, "{name} is a single bit");
            assert_eq!(all & bit, 0, "{name} is distinct");
            all |= bit;
        }
        assert_eq!(all.count_ones() as usize, COVERAGE_NAMES.len());
    }

    #[test]
    fn set_operations() {
        let mut a = CoverageSet::default();
        assert!(a.is_empty());
        a.insert(FSS_PUSH);
        a.insert(MAP_HIT);
        assert!(a.contains(FSS_PUSH) && a.contains(MAP_HIT));
        assert_eq!(a.count(), 2);
        let b = CoverageSet(FSS_PUSH | FENCE_SCOPED);
        assert_eq!(a.union(b).count(), 3);
        assert_eq!(a.names(), vec!["fss_push", "map_hit"]);
        assert_eq!(format!("{}", CoverageSet(FSS_POP)), "fss_pop");
    }
}
