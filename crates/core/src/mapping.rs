//! The cid → FSB-column mapping table (paper Fig. 7/8).
//!
//! On `fs_start cid` the table is consulted: a hit reuses the column;
//! a miss allocates a free class column, or — when all class columns
//! are taken — the designated *fallback* column, which multiple scopes
//! then share (strictly more conservative, still semantics-preserving;
//! paper "handling excessive scopes"). When the table itself has no
//! free row the caller falls back to the overflow counter.
//!
//! A mapping is invalidated only when its column has no outstanding
//! operations and the scope is no longer active (paper: "a mapping is
//! only removed when all memory accesses in the corresponding entry
//! have completed").

use crate::mask::{ScopeMask, MAX_FSB_ENTRIES};
use sfence_isa::ClassId;

/// Result of a mapping-table lookup for `fs_start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapResult {
    /// The scope is tracked by this FSB column.
    Column(u8),
    /// No room in the table: the scope goes untracked (overflow mode).
    TableFull,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    cid: ClassId,
    col: u8,
}

/// The mapping table.
///
/// Row membership is mirrored in per-column row counts and a cached
/// occupancy bitmask, so `column_in_use` and the reclamation scan are
/// O(1) word operations instead of row scans.
#[derive(Debug, Clone)]
pub struct MappingTable {
    entries: Vec<Entry>,
    cap: usize,
    /// Columns available for class scopes (`0..class_columns`); the
    /// set-scope column lives above these and is never allocated here.
    class_columns: u8,
    /// Rows mapped onto each column.
    col_rows: [u8; MAX_FSB_ENTRIES],
    /// Bit `i` set ⟺ `col_rows[i] > 0`.
    mapped: ScopeMask,
    /// Statistics.
    pub hits: u64,
    pub allocs: u64,
    pub fallback_allocs: u64,
    pub full_rejections: u64,
}

impl MappingTable {
    /// `cap` rows, allocating from `class_columns` FSB columns.
    pub fn new(cap: usize, class_columns: u8) -> Self {
        assert!(class_columns >= 1, "need at least one class column");
        assert!(cap <= u8::MAX as usize, "mapping table rows fit a u8");
        Self {
            entries: Vec::with_capacity(cap),
            cap,
            class_columns,
            col_rows: [0; MAX_FSB_ENTRIES],
            mapped: ScopeMask::EMPTY,
            hits: 0,
            allocs: 0,
            fallback_allocs: 0,
            full_rejections: 0,
        }
    }

    /// The designated shared column used once all class columns are
    /// occupied ("we simply choose one specific FSB entry").
    pub fn fallback_column(&self) -> u8 {
        self.class_columns - 1
    }

    /// Look up `cid`, allocating a column on a miss.
    pub fn lookup_or_alloc(&mut self, cid: ClassId) -> MapResult {
        if let Some(e) = self.entries.iter().find(|e| e.cid == cid) {
            self.hits += 1;
            return MapResult::Column(e.col);
        }
        if self.entries.len() == self.cap {
            self.full_rejections += 1;
            return MapResult::TableFull;
        }
        let col = match (0..self.class_columns).find(|&c| !self.column_in_use(c)) {
            Some(c) => c,
            None => {
                self.fallback_allocs += 1;
                self.fallback_column()
            }
        };
        self.allocs += 1;
        self.entries.push(Entry { cid, col });
        self.col_rows[col as usize] += 1;
        self.mapped = self.mapped.union(ScopeMask::column(col));
        MapResult::Column(col)
    }

    /// Is any cid currently mapped to `col`?
    #[inline]
    pub fn column_in_use(&self, col: u8) -> bool {
        self.mapped.contains(col)
    }

    /// Invalidate every mapping onto `col` (called by the scope unit
    /// when the column is quiescent and inactive).
    pub fn invalidate_column(&mut self, col: u8) {
        if !self.mapped.contains(col) {
            return;
        }
        self.entries.retain(|e| e.col != col);
        self.col_rows[col as usize] = 0;
        self.mapped.0 &= !(1 << col);
    }

    /// Bitmask of columns with at least one mapping (for reclamation).
    #[inline]
    pub fn mapped_mask(&self) -> ScopeMask {
        self.mapped
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_reuses_column() {
        let mut mt = MappingTable::new(8, 3);
        let a = mt.lookup_or_alloc(ClassId(1));
        let b = mt.lookup_or_alloc(ClassId(1));
        assert_eq!(a, b);
        assert_eq!(mt.hits, 1);
        assert_eq!(mt.allocs, 1);
        assert_eq!(mt.len(), 1);
    }

    #[test]
    fn distinct_cids_get_distinct_columns_until_exhausted() {
        let mut mt = MappingTable::new(8, 3);
        let c0 = mt.lookup_or_alloc(ClassId(10));
        let c1 = mt.lookup_or_alloc(ClassId(11));
        let c2 = mt.lookup_or_alloc(ClassId(12));
        assert_eq!(
            [c0, c1, c2],
            [
                MapResult::Column(0),
                MapResult::Column(1),
                MapResult::Column(2)
            ]
        );
        // Fourth scope shares the fallback column (2).
        let c3 = mt.lookup_or_alloc(ClassId(13));
        assert_eq!(c3, MapResult::Column(2));
        assert_eq!(mt.fallback_allocs, 1);
    }

    #[test]
    fn table_full_rejects() {
        let mut mt = MappingTable::new(2, 3);
        mt.lookup_or_alloc(ClassId(1));
        mt.lookup_or_alloc(ClassId(2));
        assert_eq!(mt.lookup_or_alloc(ClassId(3)), MapResult::TableFull);
        assert_eq!(mt.full_rejections, 1);
        // Existing mappings still hit.
        assert_eq!(mt.lookup_or_alloc(ClassId(2)), MapResult::Column(1));
    }

    #[test]
    fn invalidate_frees_column_for_reuse() {
        let mut mt = MappingTable::new(8, 2);
        mt.lookup_or_alloc(ClassId(1)); // col 0
        mt.lookup_or_alloc(ClassId(2)); // col 1
        mt.lookup_or_alloc(ClassId(3)); // fallback col 1
        assert!(mt.column_in_use(1));
        mt.invalidate_column(1); // removes cids 2 and 3
        assert!(!mt.column_in_use(1));
        assert_eq!(mt.len(), 1);
        assert_eq!(mt.lookup_or_alloc(ClassId(4)), MapResult::Column(1));
    }
}
