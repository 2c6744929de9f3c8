//! Fence scope bits (FSB).
//!
//! Each ROB and store-buffer entry is extended with a few *fence scope
//! bits* (paper Fig. 7). Bit `i` of a [`ScopeMask`] says "this memory
//! operation belongs to the fence scope tracked by FSB column `i`".
//! The last column is reserved for set scope (paper §V-A-2); the
//! others are allocated to class scopes by the mapping table.
//!
//! Rather than scanning every ROB/SB entry to decide whether a fence
//! may issue, the hardware model keeps one outstanding-operation
//! counter per column ([`ColumnCounters`]): a column is "clear across
//! all FSBs" exactly when its counter is zero. This is an exact,
//! O(1)-checkable encoding of the paper's "check this entry of all
//! FSBs" step.

/// Maximum number of FSB columns supported by the model.
pub const MAX_FSB_ENTRIES: usize = 16;

/// A per-operation set of FSB bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ScopeMask(pub u16);

impl ScopeMask {
    pub const EMPTY: ScopeMask = ScopeMask(0);

    /// Mask with a single column set.
    #[inline]
    pub fn column(col: u8) -> ScopeMask {
        debug_assert!((col as usize) < MAX_FSB_ENTRIES);
        ScopeMask(1 << col)
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn contains(self, col: u8) -> bool {
        self.0 & (1 << col) != 0
    }

    #[inline]
    pub fn union(self, other: ScopeMask) -> ScopeMask {
        ScopeMask(self.0 | other.0)
    }

    /// Iterate over set columns.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        let bits = self.0;
        (0..MAX_FSB_ENTRIES as u8).filter(move |c| bits & (1 << c) != 0)
    }

    /// Number of set columns.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// Per-column counters of issued-but-not-completed scoped memory
/// operations.
#[derive(Debug, Clone)]
pub struct ColumnCounters {
    counts: [u32; MAX_FSB_ENTRIES],
    /// Bit `i` set iff `counts[i] > 0` — lets fence checks run in O(1).
    nonzero: ScopeMask,
}

impl Default for ColumnCounters {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnCounters {
    pub fn new() -> Self {
        Self {
            counts: [0; MAX_FSB_ENTRIES],
            nonzero: ScopeMask::EMPTY,
        }
    }

    /// Record issue of an operation carrying `mask`.
    pub fn add(&mut self, mask: ScopeMask) {
        for col in mask.iter() {
            self.counts[col as usize] += 1;
        }
        self.nonzero = self.nonzero.union(mask);
    }

    /// Record completion (or squash) of an operation carrying `mask`.
    pub fn remove(&mut self, mask: ScopeMask) {
        for col in mask.iter() {
            let c = &mut self.counts[col as usize];
            debug_assert!(*c > 0, "column {col} counter underflow");
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.nonzero.0 &= !(1 << col);
            }
        }
    }

    /// Is every column in `mask` clear (no outstanding operation)?
    #[inline]
    pub fn clear_in(&self, mask: ScopeMask) -> bool {
        self.nonzero.0 & mask.0 == 0
    }

    /// Mask of columns with outstanding operations.
    #[inline]
    pub fn nonzero_mask(&self) -> ScopeMask {
        self.nonzero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ops() {
        let m = ScopeMask::column(0).union(ScopeMask::column(3));
        assert!(m.contains(0));
        assert!(m.contains(3));
        assert!(!m.contains(1));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(m.count(), 2);
        assert!(ScopeMask::EMPTY.is_empty());
    }

    #[test]
    fn counters_track_nonzero() {
        let mut c = ColumnCounters::new();
        let m = ScopeMask::column(1).union(ScopeMask::column(2));
        assert!(c.clear_in(m));
        c.add(m);
        c.add(ScopeMask::column(1));
        assert!(!c.clear_in(ScopeMask::column(1)));
        assert!(!c.clear_in(ScopeMask::column(2)));
        assert!(c.clear_in(ScopeMask::column(0)));
        c.remove(m);
        assert!(!c.clear_in(ScopeMask::column(1))); // still one left
        assert!(c.clear_in(ScopeMask::column(2)));
        c.remove(ScopeMask::column(1));
        assert!(c.clear_in(m));
        assert_eq!(c.nonzero_mask(), ScopeMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn counter_underflow_asserts_in_debug() {
        let mut c = ColumnCounters::new();
        c.remove(ScopeMask::column(0));
        // In release builds saturating_sub keeps this safe; panic
        // explicitly so the expectation holds in both profiles.
        if !cfg!(debug_assertions) {
            panic!("underflow");
        }
    }
}
