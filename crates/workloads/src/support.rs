//! Shared workload infrastructure: the Fig. 12 workload knob, scope
//! mode selection, built-workload plumbing and invariant checks.

use sfence_isa::ir::{c, l, ld, BlockBuilder, Global, IrProgram};
use sfence_isa::Program;

/// Which scope flavour a class-based benchmark uses (Fig. 14 compares
/// the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScopeMode {
    /// `S-FENCE[class]` inside the data structure's methods.
    #[default]
    Class,
    /// `S-FENCE[set, {shared vars}]` naming the structure's variables.
    Set,
}

/// A compiled benchmark plus its invariant checker.
///
/// This is pure *description*: running (and invariant validation on
/// the final memory image) is the `sfence-harness` `Session`'s job —
/// workloads never drive the machine themselves.
pub struct BuiltWorkload {
    /// Registry name. Table IV benchmarks use their static names;
    /// generated litmus scenarios use `litmus/<family>/<seed>`.
    pub name: String,
    pub program: Program,
    /// Validates the final memory image; returns a description of the
    /// violation if any.
    pub check: InvariantCheck,
}

/// An invariant checker over `(program, final memory)`.
pub type InvariantCheck = Box<dyn Fn(&Program, &[i64]) -> Result<(), String> + Send + Sync>;

/// Test-only runner shared by the workload modules' unit tests: run
/// through the harness `Session` and apply the invariant checker.
/// Uses `Session::for_program` rather than `for_workload` because the
/// harness dev-dependency links its own copy of this crate, making
/// its `BuiltWorkload` a distinct type inside these tests.
#[cfg(test)]
pub(crate) fn run_for_test(
    w: &BuiltWorkload,
    cfg: sfence_sim::MachineConfig,
) -> sfence_harness::RunReport {
    let report = sfence_harness::Session::for_program(&w.program)
        .config(cfg)
        .run();
    assert!(report.completed(), "{}: run hit the cycle limit", w.name);
    if let Err(e) = (w.check)(&w.program, &report.mem) {
        panic!("{}: invariant violated: {e}", w.name);
    }
    report
}

/// Compile, panicking on compiler errors.
pub fn compile(p: &IrProgram) -> Program {
    p.compile().expect("workload must compile")
}

/// A small deterministic PRNG (xorshift64* over a splitmix64-mixed
/// seed) for workload input generation. Dependency-free and stable
/// across platforms, so generated graphs — and therefore every cycle
/// count in the evaluation — are reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 step so small seeds diverge immediately.
        let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        Prng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform draw from `[range.start, range.end)`.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        let span = range.end - range.start;
        assert!(span > 0, "empty range");
        range.start + (self.next_u64() % span as u64) as usize
    }
}

/// Size (words) of each thread's private padding region. Large enough
/// that rotating stores miss in both L1 and (across 8 threads) mostly
/// in L2 — the "long latency memory accesses during processing"
/// the paper's motivation rests on.
pub const PAD_REGION_WORDS: usize = 32 * 1024;
/// Line stride in words.
pub const PAD_STRIDE: usize = sfence_isa::WORDS_PER_LINE;

/// Declare the shared padding backing store (one region per thread).
pub fn declare_padding(p: &mut IrProgram, threads: usize) -> Global {
    p.array("PAD", PAD_REGION_WORDS * threads)
}

/// Emit one unit of the Fig. 12 "workload".
///
/// The knob reproduces the paper's rise-then-fall: at level 1 the
/// workload is pure register arithmetic (fences have nothing
/// out-of-scope to wait for, so S ≈ T); each further level adds one
/// private-line store (rotating through a region too large to cache,
/// so it drains slowly and stalls traditional fences) while the
/// arithmetic grows quadratically — at high levels compute dominates
/// and the advantage shrinks again.
///
/// Requires locals `pad_cur` (cursor) and `seed` to be declared by the
/// caller (once, before the loop).
pub fn emit_padding(b: &mut BlockBuilder, pad: Global, tid: usize, level: u32) {
    let base = (tid * PAD_REGION_WORDS) as i64;
    let alu_chains = 15 * level * level;
    for _ in 0..alu_chains {
        // Dependent arithmetic chain (models compute).
        b.assign(
            "seed",
            l("seed")
                .mul(c(6364136223846793005))
                .add(c(1442695040888963407)),
        );
        b.assign("seed", l("seed").bitxor(l("seed").shr(c(29))));
    }
    if level >= 2 {
        // Private traffic to an L1-resident scratch line (warm, fast
        // drains — keeps drain bandwidth unsaturated).
        for k in 0..level - 2 {
            b.store(
                pad.at(c(base + PAD_REGION_WORDS as i64 - 8 - (k as i64 % 4) * 8)),
                l("seed"),
            );
        }
        // One always-cold store (rotating region, never reused), right
        // before control returns to the algorithm: its slow drain is
        // what a traditional fence waits for and a scoped fence skips.
        b.store(pad.at(c(base).add(l("pad_cur"))), l("seed"));
        b.assign(
            "pad_cur",
            l("pad_cur")
                .add(c(PAD_STRIDE as i64))
                .rem(c(PAD_REGION_WORDS as i64 - 64)),
        );
    }
}

/// Declare the locals `emit_padding` uses.
pub fn declare_padding_locals(b: &mut BlockBuilder, tid: usize) {
    b.let_("pad_cur", c(((tid * 13) % 61) as i64 * PAD_STRIDE as i64));
    b.let_("seed", c(tid as i64 * 7919 + 12345));
}

/// A sense-reversing centralised barrier over CAS.
///
/// Registers the routine `"barrier"` with signature
/// `(nthreads, my_sense) -> next_sense`; each thread keeps a private
/// sense local initialised to 1 and calls
/// `call_ret("bar_sense", "barrier", &[c(T), l("bar_sense")])`.
/// The barrier's variables are shared (they participate in delay
/// sets).
pub fn register_barrier(p: &mut IrProgram) -> (Global, Global) {
    let count = p.shared_line("BAR_COUNT");
    let sense = p.shared_line("BAR_SENSE");
    p.routine("barrier", &["nthreads", "my_sense"], move |b| {
        // fetch-and-increment via CAS retry
        b.let_("done", c(0));
        b.while_(l("done").eq(c(0)), move |w| {
            w.let_("cur", ld(count.cell()));
            w.cas("done", count.cell(), l("cur"), l("cur").add(c(1)));
        });
        b.if_else(
            l("cur").add(c(1)).eq(l("nthreads")),
            move |last| {
                // Last arriver resets the count and flips the sense.
                last.store(count.cell(), c(0));
                last.fence(); // count reset visible before release
                last.store(sense.cell(), l("my_sense"));
            },
            move |other| {
                other.spin_until(ld(sense.cell()).eq(l("my_sense")));
            },
        );
        // Next episode's sense (1 -> 0 -> 1 ...).
        b.ret(Some(c(1).sub(l("my_sense"))));
    });
    (count, sense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::ir::IrProgram;

    #[test]
    fn padding_compiles_and_runs() {
        let mut p = IrProgram::new();
        let pad = declare_padding(&mut p, 2);
        let out = p.global("out");
        p.thread(move |b| {
            declare_padding_locals(b, 0);
            b.let_("i", c(0));
            b.while_(l("i").lt(c(10)), move |w| {
                emit_padding(w, pad, 0, 3);
                w.assign("i", l("i").add(c(1)));
            });
            b.store(out.cell(), l("pad_cur"));
            b.halt();
        });
        let prog = compile(&p);
        let mut mem = prog.initial_memory();
        let (exit, stats) = sfence_isa::interp::run_single(&prog, 0, &mut mem, 1_000_000).unwrap();
        assert_eq!(exit, sfence_isa::interp::InterpExit::Halted);
        assert_eq!(stats.stores, 21); // 10 iters * (3-1) + final
    }

    #[test]
    fn barrier_synchronises_threads() {
        // Two threads alternate phases; a non-barrier interleaving
        // would let one thread race ahead.
        let mut p = IrProgram::new();
        register_barrier(&mut p);
        let log = p.shared_array("log", 16);
        let log_idx = p.shared_line("log_idx");
        for t in 0..2 {
            p.thread(move |b| {
                b.let_("bar_sense", c(1));
                b.let_("phase", c(0));
                b.while_(l("phase").lt(c(3)), move |w| {
                    // append phase to log (CAS-inc index)
                    w.let_("got", c(0));
                    w.while_(l("got").eq(c(0)), move |ww| {
                        ww.let_("idx", ld(log_idx.cell()));
                        ww.cas("got", log_idx.cell(), l("idx"), l("idx").add(c(1)));
                    });
                    w.store(log.at(l("idx")), l("phase"));
                    w.call_ret("bar_sense", "barrier", &[c(2), l("bar_sense")]);
                    w.assign("phase", l("phase").add(c(1)));
                });
                b.halt();
            });
            let _ = t;
        }
        let prog = compile(&p);
        let report = sfence_harness::Session::for_program(&prog)
            .cores(2)
            .max_cycles(20_000_000)
            .run();
        assert_eq!(report.exit, sfence_sim::RunExit::Completed);
        // With a correct barrier the log is 0,0,1,1,2,2.
        let base = prog.addr_of("log");
        let got: Vec<i64> = (0..6).map(|i| report.mem[base + i]).collect();
        assert_eq!(got, vec![0, 0, 1, 1, 2, 2]);
    }
}
