//! Host speed, measured by a fixed reference kernel run on the
//! workload's threads right before and right after every batch, and
//! between the parts of a batch made of parts.
//!
//! The benchmark runs on a few cores of a shared host, and what the
//! other tenants do there changes how fast the same code runs by up to
//! a third, for tens of seconds to minutes at a time: far longer than
//! one run, so no statistic taken inside a run filters it out. The
//! program's code slows down with the host's load much as an
//! allocation- and hash-heavy kernel does, so the batch times are
//! divided by that kernel's slowdown. The kernel is the benchmark's
//! own code and never changes with the program, so a change to the
//! program moves the scaled figures exactly as it moves the raw ones.

use crate::trace::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel runs in one sample.
const REPS: usize = 16;

/// Seconds one kernel run takes on an unloaded 2-vCPU Xeon VM at
/// 2.0 GHz, the host the benchmark was defined on. It only sets the
/// scale of the scaled figures: on that host, unloaded, they read as
/// the raw ones.
pub const NOMINAL_S: f64 = 1.0e-3;

/// One run of the reference kernel: 6000 short byte vectors, each
/// built on the heap and inserted into a hash set; returns its seconds.
pub fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut set: HashSet<Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashSet::default();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..6000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let len = (x >> 60) as usize + 8;
        set.insert((0..len).map(|k| ((x >> (k % 56)) & 7) as u8).collect());
    }
    std::hint::black_box(set.len());
    t0.elapsed().as_secs_f64()
}

/// [`REPS`] kernel runs on the calling thread; the seconds of each.
pub fn sample() -> Vec<f64> {
    (0..REPS).map(|_| kernel()).collect()
}

/// A thread that runs the kernel once every [`PERIOD`] while a batch
/// that keeps every core busy runs, so the kernel meets the host's load
/// where the batch does: about a twentieth of one core.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

const PERIOD: Duration = Duration::from_millis(20);

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut runs = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let run = kernel();
                runs.push(run);
                std::thread::sleep(PERIOD.saturating_sub(Duration::from_secs_f64(run)));
            }
            runs
        });
        Sampler { stop, thread }
    }

    /// Stop the thread, wait for it, and return its kernel run times.
    pub fn finish(self) -> Vec<f64> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

/// The host's slowdown over the nominal speed, from kernel run times.
pub fn slowdown(runs: &[f64]) -> f64 {
    median(runs) / NOMINAL_S
}
