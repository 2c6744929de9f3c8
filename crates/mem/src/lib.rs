//! # sfence-mem
//!
//! The memory-system substrate of the Fence Scoping simulator: private
//! L1 tag arrays, a shared inclusive L2, a full-map invalidation
//! directory (MESI-lite), and the Table III latency model. Timing
//! only — functional data lives in the machine's flat word memory.

pub mod cache;
pub mod hierarchy;

pub use cache::{CacheGeometry, TagArray};
pub use hierarchy::{
    AccessOutcome, CoreMemStats, MemConfig, MemorySystem, L1_LATENCY, L2_LATENCY, LINE_BYTES,
    REMOTE_DIRTY_PENALTY,
};

#[cfg(test)]
mod prop_tests {
    use super::*;

    /// Tiny deterministic xorshift64* PRNG: the container has no
    /// property-testing crate, so random traffic is reproducible from
    /// the per-case seed printed on failure.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Rng {
            Rng(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1)
        }

        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545f4914f6cdd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Invariants survive arbitrary access sequences.
    #[test]
    fn invariants_hold_under_random_traffic() {
        for seed in 0..16u64 {
            let mut rng = Rng::new(seed + 1);
            let mut m = MemorySystem::new(
                4,
                MemConfig {
                    l1_size: 512,
                    l1_ways: 2,
                    l2_size: 4096,
                    l2_ways: 4,
                    ..MemConfig::default()
                },
            );
            for _ in 0..1 + rng.below(200) {
                let (core, addr, write) = (rng.below(4), rng.below(4096), rng.below(2) == 1);
                m.access(core, addr, write);
                assert!(m.check_invariants().is_ok(), "seed {seed}");
            }
        }
    }

    /// Latency is always one of the architectural patterns.
    #[test]
    fn latencies_come_from_the_model() {
        let cfg = MemConfig::default();
        let allowed = [
            L1_LATENCY,
            L1_LATENCY + L2_LATENCY,
            L1_LATENCY + L2_LATENCY + REMOTE_DIRTY_PENALTY,
            L1_LATENCY + L2_LATENCY + cfg.mem_latency,
        ];
        for seed in 0..16u64 {
            let mut rng = Rng::new(seed + 101);
            let mut m = MemorySystem::new(2, cfg);
            for _ in 0..1 + rng.below(100) {
                let (core, addr, write) = (rng.below(2), rng.below(512), rng.below(2) == 1);
                let (lat, _) = m.access(core, addr, write);
                assert!(
                    allowed.contains(&lat),
                    "seed {seed}: unexpected latency {lat}"
                );
            }
        }
    }

    /// Re-touching the same line from the same core is always an
    /// L1 hit for reads.
    #[test]
    fn second_read_hits() {
        let mut rng = Rng::new(7);
        for _ in 0..64 {
            let addr = rng.below(100_000);
            let mut m = MemorySystem::new(1, MemConfig::default());
            m.access(0, addr, false);
            let (lat, out) = m.access(0, addr, false);
            assert_eq!(out, AccessOutcome::L1Hit);
            assert_eq!(lat, L1_LATENCY);
        }
    }
}
