//! Set-associative tag arrays with true-LRU replacement.
//!
//! The memory system is a *timing* model: caches track which lines are
//! resident to classify accesses (hit/miss/remote) and charge
//! latencies; data itself lives in the machine's flat memory and is
//! read/written at completion time, the same separation SESC uses.

use crate::hierarchy::LINE_BYTES;

/// Cache geometry; every cache has [`LINE_BYTES`]-byte lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways * LINE_BYTES);
        assert!(sets > 0, "cache too small for its ways/line size");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// A tag array: per-set MRU-ordered lists of resident line numbers.
#[derive(Debug, Clone)]
pub struct TagArray {
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
}

impl TagArray {
    pub fn new(geom: CacheGeometry) -> Self {
        let num_sets = geom.num_sets();
        Self {
            sets: vec![Vec::new(); num_sets],
            ways: geom.ways,
            set_mask: (num_sets - 1) as u64,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Is the line resident? Promotes it to MRU on a hit.
    pub fn lookup(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            let l = ways.remove(pos);
            ways.insert(0, l);
            true
        } else {
            false
        }
    }

    /// Residency check without touching LRU state.
    pub fn contains(&self, line: u64) -> bool {
        self.sets[self.set_of(line)].contains(&line)
    }

    /// Insert a line (must not already be resident); returns the
    /// evicted LRU line if the set was full.
    pub fn insert(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let ways_cap = self.ways;
        let ways = &mut self.sets[set];
        debug_assert!(!ways.contains(&line), "inserting resident line");
        let evicted = if ways.len() == ways_cap {
            ways.pop()
        } else {
            None
        };
        ways.insert(0, line);
        evicted
    }

    /// Remove a line if resident; returns whether it was.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        if let Some(pos) = ways.iter().position(|&l| l == line) {
            ways.remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of resident lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// All resident lines (inclusivity checks in tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray {
        // 2 sets x 2 ways, 64B lines.
        TagArray::new(CacheGeometry {
            size_bytes: 256,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        let g = CacheGeometry {
            size_bytes: 32 * 1024,
            ways: 4,
        };
        assert_eq!(g.num_sets(), 128);
    }

    #[test]
    fn hit_after_insert() {
        let mut t = small();
        assert!(!t.lookup(4));
        assert_eq!(t.insert(4), None);
        assert!(t.lookup(4));
        assert!(t.contains(4));
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut t = small();
        // Lines 0, 2, 4 all map to set 0 (even lines).
        t.insert(0);
        t.insert(2);
        t.lookup(0); // 0 is now MRU, 2 is LRU
        assert_eq!(t.insert(4), Some(2));
        assert!(t.contains(0));
        assert!(!t.contains(2));
        assert!(t.contains(4));
    }

    #[test]
    fn sets_are_independent() {
        let mut t = small();
        t.insert(0); // set 0
        t.insert(1); // set 1
        t.insert(2); // set 0
        t.insert(3); // set 1
        assert_eq!(t.insert(4), Some(0)); // evicts from set 0 only
        assert!(t.contains(1));
        assert!(t.contains(3));
    }

    #[test]
    fn invalidate_removes() {
        let mut t = small();
        t.insert(6);
        assert!(t.invalidate(6));
        assert!(!t.invalidate(6));
        assert!(!t.contains(6));
    }
}
