//! Deterministic litmus-test synthesis.
//!
//! Each *family* is a parameterized concurrent shape — message
//! passing, store buffering, IRIW, CAS loops, fenced
//! producer/consumer — whose ordering points carry fences of a chosen
//! scope, placed so the scope either *covers* the racing accesses
//! (the outcome must be SC-allowed on S-Fence hardware) or
//! deliberately does not (the relaxed outcome must survive — the
//! defining property of scope). The generator is seeded by a
//! [`Prng`]: the same `(family, seed)` always emits a byte-identical
//! program, and the seed varies data values, filler work, item counts
//! and scope-nesting depth without disturbing the racy skeleton. All
//! random draws happen *before* any IR is emitted, so generation
//! order can never perturb determinism.
//!
//! Every observed location is declared through
//! [`IrProgram::observer`], so the program's final state is exactly
//! `Program::observed_state(&mem)` — the surface the `sfence-litmus`
//! SC reference checker enumerates and its differential runner
//! compares.
//!
//! Scenarios register into the workload catalog under
//! `litmus/<family>/<seed>` ([`parse_name`] / `catalog::build`), so
//! `Experiment` sweeps, the result cache, the dist runner and the store all
//! work on them unchanged.

use crate::support::{BuiltWorkload, Prng};
use sfence_isa::ir::{c, l, ld, BlockBuilder, Global, IrProgram};
use sfence_isa::passes::strip_fences;
use sfence_isa::Program;
use sfence_isa::WORDS_PER_LINE;

/// Registry namespace for generated scenarios.
pub const LITMUS_PREFIX: &str = "litmus/";

/// The scenario families. `*WrongSet` / `*ClassWrong` place a scoped
/// fence whose scope deliberately fails to cover the race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Message passing, full fences on both sides.
    Mp,
    /// Message passing, set fences over `{data, flag}`.
    MpSet,
    /// Message passing, set fences over an unrelated variable
    /// (non-covering: the relaxed outcome is expected on S).
    MpWrongSet,
    /// Store buffering (Dekker core), full fences.
    Sb,
    /// Store buffering, set fences over the flags.
    SbSet,
    /// Store buffering, set fences over an unrelated variable
    /// (non-covering).
    SbWrongSet,
    /// Store buffering with store+fence+load inside a class method
    /// (class scope covers the race).
    SbClass,
    /// Store buffering with the racy store *outside* the class and
    /// only the fence+load inside (class scope does not cover the
    /// store: non-covering).
    SbClassWrong,
    /// Independent reads of independent writes, full fences between
    /// the reader loads.
    Iriw,
    /// Two threads CAS-incrementing a shared counter through a class
    /// method with a class fence.
    Cas,
    /// Producer/consumer mailbox class: slots published under a class
    /// fence, consumed under a class fence.
    PcClass,
    /// `PcClass` called through a seed-varied stack of instrumented
    /// wrapper classes — deep scope nesting that overflows the FSS
    /// and exercises the degrade-to-full-fence path.
    PcDeep,
    /// Replays a minimized divergence found by `sfence-fuzz`
    /// ([`crate::synth::REGRESSIONS`]). Unlike the seeded families,
    /// the "seed" is a fixed registry index: `litmus/regression/<id>`
    /// re-emits entry `<id>` byte-identically forever. Not part of
    /// [`FAMILIES`] — campaigns append it with its exact entry count.
    Regression,
}

/// Every family, in the deterministic campaign order.
pub const FAMILIES: [Family; 12] = [
    Family::Mp,
    Family::MpSet,
    Family::MpWrongSet,
    Family::Sb,
    Family::SbSet,
    Family::SbWrongSet,
    Family::SbClass,
    Family::SbClassWrong,
    Family::Iriw,
    Family::Cas,
    Family::PcClass,
    Family::PcDeep,
];

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Mp => "mp",
            Family::MpSet => "mp-set",
            Family::MpWrongSet => "mp-wrongset",
            Family::Sb => "sb",
            Family::SbSet => "sb-set",
            Family::SbWrongSet => "sb-wrongset",
            Family::SbClass => "sb-class",
            Family::SbClassWrong => "sb-classwrong",
            Family::Iriw => "iriw",
            Family::Cas => "cas",
            Family::PcClass => "pc-class",
            Family::PcDeep => "pc-deep",
            Family::Regression => "regression",
        }
    }

    pub fn from_name(name: &str) -> Option<Family> {
        if name == "regression" {
            return Some(Family::Regression);
        }
        FAMILIES.iter().copied().find(|f| f.name() == name)
    }

    /// Does the fence scope cover the racing accesses? Covering
    /// families must observe only SC-allowed final states on S-Fence
    /// hardware; non-covering families are *expected* to demonstrate
    /// relaxed outcomes there (while remaining SC under traditional
    /// fences, which ignore scopes).
    pub fn covering(self) -> bool {
        !matches!(
            self,
            Family::MpWrongSet | Family::SbWrongSet | Family::SbClassWrong
        )
    }

    /// One-line description for discovery listings.
    pub fn description(self) -> &'static str {
        match self {
            Family::Mp => "message passing, full fences",
            Family::MpSet => "message passing, covering set fences",
            Family::MpWrongSet => "message passing, NON-covering set fences",
            Family::Sb => "store buffering, full fences",
            Family::SbSet => "store buffering, covering set fences",
            Family::SbWrongSet => "store buffering, NON-covering set fences",
            Family::SbClass => "store buffering inside a class scope",
            Family::SbClassWrong => "store buffering, racy store outside the class scope",
            Family::Iriw => "independent reads of independent writes, full fences",
            Family::Cas => "CAS-loop counter through a class fence",
            Family::PcClass => "producer/consumer mailbox class",
            Family::PcDeep => "producer/consumer under deep scope nesting (FSS overflow)",
            Family::Regression => "minimized sfence-fuzz divergence (fixed registry ids)",
        }
    }
}

/// One concrete scenario: a family instance at a seed.
#[derive(Debug, Clone, Copy)]
pub struct LitmusSpec {
    pub family: Family,
    pub seed: u64,
}

impl LitmusSpec {
    pub fn new(family: Family, seed: u64) -> Self {
        LitmusSpec { family, seed }
    }

    /// The registry name, `litmus/<family>/<seed>`.
    pub fn name(&self) -> String {
        scenario_name(self.family, self.seed)
    }
}

/// The one family-listing renderer shared by `sfence-litmus
/// --list-families` and `sfence-sweep --list`: one aligned row per
/// family (name cell via `render_name`, coverage, description).
pub fn family_listing(render_name: impl Fn(Family) -> String) -> String {
    let rows: Vec<(String, &'static str, &'static str)> = FAMILIES
        .iter()
        .map(|&f| {
            (
                render_name(f),
                if f.covering() {
                    "covering"
                } else {
                    "non-covering"
                },
                f.description(),
            )
        })
        .collect();
    let width = rows.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    rows.into_iter()
        .map(|(n, c, d)| format!("  {n:<width$} {c:<12} {d}\n"))
        .collect()
}

/// The registry name of a scenario.
pub fn scenario_name(family: Family, seed: u64) -> String {
    format!("{LITMUS_PREFIX}{}/{seed}", family.name())
}

/// Parse a `litmus/<family>/<seed>` registry name. Regression ids
/// (unlike seeds) are bounds-checked against the registry, so
/// `exists` answers honestly for `litmus/regression/<id>`.
pub fn parse_name(name: &str) -> Option<(Family, u64)> {
    let rest = name.strip_prefix(LITMUS_PREFIX)?;
    let (family, seed) = rest.rsplit_once('/')?;
    let family = Family::from_name(family)?;
    let seed: u64 = seed.parse().ok()?;
    if family == Family::Regression && crate::synth::regression(seed).is_none() {
        return None;
    }
    Some((family, seed))
}

/// The fence emitted at each ordering point of a skeleton.
#[derive(Clone)]
enum FenceAt {
    Full,
    Set(Vec<Global>),
}

impl FenceAt {
    fn emit(&self, b: &mut BlockBuilder) {
        match self {
            FenceAt::Full => b.fence(),
            FenceAt::Set(vars) => b.fence_set(vars),
        }
    }
}

/// Seed-derived knobs, all drawn up front. `filler_units[t]` is the
/// amount of private warm-up work thread `t` performs; `values` are
/// the (nonzero) data values the skeleton publishes.
struct Knobs {
    filler_units: Vec<usize>,
    values: Vec<i64>,
    /// Items for `pc`, iterations for `cas`, wrapper depth for
    /// `pc-deep`.
    count: usize,
}

impl Knobs {
    fn new(family: Family, seed: u64, threads: usize, values: usize) -> Self {
        let idx = FAMILIES.iter().position(|&f| f == family).unwrap() as u64;
        let mut rng = Prng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(idx));
        // Draw order is fixed: counts, then filler, then values —
        // never reorder these without regenerating goldens.
        let count = rng.gen_range(0..64);
        let filler_units = (0..threads).map(|_| rng.gen_range(0..4)).collect();
        let values = (0..values)
            .map(|_| 1 + (rng.next_u64() % 97) as i64)
            .collect();
        Knobs {
            filler_units,
            values,
            count,
        }
    }
}

/// Emit `units` chunks of private filler work: a dependent arithmetic
/// chain plus a private store per chunk. Varies the instruction
/// stream and store-buffer pressure without touching the racy
/// skeleton.
fn emit_filler(b: &mut BlockBuilder, scratch: Global, tid: usize, units: usize) {
    b.let_("fil", c(tid as i64 * 7919 + 12345));
    for k in 0..units {
        b.assign(
            "fil",
            l("fil")
                .mul(c(6364136223846793005))
                .add(c(1442695040888963407 + tid as i64)),
        );
        b.store(scratch.at(c((k % WORDS_PER_LINE) as i64)), l("fil"));
    }
}

/// Build the IR of a scenario. Exposed so checkers and tests can
/// compile with custom options.
pub fn ir(spec: &LitmusSpec) -> IrProgram {
    match spec.family {
        Family::Mp | Family::MpSet | Family::MpWrongSet => mp(spec.family, spec.seed),
        Family::Sb | Family::SbSet | Family::SbWrongSet => sb(spec.family, spec.seed),
        Family::SbClass | Family::SbClassWrong => sb_class(spec.family, spec.seed),
        Family::Iriw => iriw(spec.seed),
        Family::Cas => cas(spec.seed),
        Family::PcClass => pc(Family::PcClass, spec.seed),
        Family::PcDeep => pc(Family::PcDeep, spec.seed),
        Family::Regression => {
            let synth = crate::synth::regression(spec.seed)
                .unwrap_or_else(|| panic!("regression id {} not registered", spec.seed));
            crate::synth::ir(&synth, false)
        }
    }
}

/// Build a scenario into a registry workload. The invariant check
/// asserts completion only: relaxed final states are legitimate
/// observations here — SC-membership verdicts are the litmus
/// differential runner's job, not the workload's.
pub fn build(spec: &LitmusSpec) -> BuiltWorkload {
    let program = ir(spec).compile().expect("litmus scenario must compile");
    BuiltWorkload {
        name: spec.name(),
        program,
        check: Box::new(|_, _| Ok(())),
    }
}

/// A scenario with every fence stripped: the differential runner's
/// fence-removed (`S-nofence`) program.
pub fn compile_stripped(spec: &LitmusSpec) -> Program {
    let mut p = ir(spec);
    strip_fences(&mut p);
    p.compile().expect("litmus scenario must compile")
}

/// Build by registry name (`litmus/<family>/<seed>`); used by
/// `catalog::build`.
pub fn build_named(name: &str) -> Option<BuiltWorkload> {
    let (family, seed) = parse_name(name)?;
    Some(build(&LitmusSpec::new(family, seed)))
}

// ---------------------------------------------------------------------
// Skeletons

/// Message passing: producer publishes `data` then `flag`; the
/// consumer spins on `flag` and then reads `data`. SC admits only
/// `[v]`. The producer warms the flag line first so its drain is a
/// fast upgrade while the data store drains cold — the relaxed
/// machine reorders the drains unless a covering fence intervenes.
fn mp(family: Family, seed: u64) -> IrProgram {
    let k = Knobs::new(family, seed, 2, 1);
    let mut p = IrProgram::new();
    let data = p.shared_line("data");
    let flag = p.shared_line("flag");
    let dummy = p.shared_line("dummy");
    let obs = p.observer("data");
    let scratch0 = p.global_line("scratch0");
    let v = k.values[0];
    let fence = match family {
        Family::Mp => FenceAt::Full,
        Family::MpSet => FenceAt::Set(vec![data, flag]),
        Family::MpWrongSet => FenceAt::Set(vec![dummy]),
        _ => unreachable!(),
    };
    let pf = fence.clone();
    let units = k.filler_units.clone();
    p.thread(move |b| {
        b.let_("warm", ld(flag.cell()));
        emit_filler(b, scratch0, 0, units[0]);
        b.store(data.cell(), c(v));
        pf.emit(b);
        b.store(flag.cell(), c(1));
        b.halt();
    });
    p.thread(move |b| {
        b.spin_until(ld(flag.cell()).eq(c(1)));
        fence.emit(b);
        b.store(obs.cell(), ld(data.cell()));
        b.halt();
    });
    p
}

/// Store buffering: each thread publishes its flag and then reads the
/// other's. SC forbids both reads returning 0. Both flag lines are
/// pre-warmed in both cores so the loads hit in L1 and bind before
/// either store drains.
fn sb(family: Family, seed: u64) -> IrProgram {
    let k = Knobs::new(family, seed, 2, 2);
    let mut p = IrProgram::new();
    let f0 = p.shared_line("flag0");
    let f1 = p.shared_line("flag1");
    let dummy = p.shared_line("dummy");
    let r0 = p.observer("r0");
    let r1 = p.observer("r1");
    let fence = match family {
        Family::Sb => FenceAt::Full,
        Family::SbSet => FenceAt::Set(vec![f0, f1]),
        Family::SbWrongSet => FenceAt::Set(vec![dummy]),
        _ => unreachable!(),
    };
    for (mine, theirs, val, out, tid) in [
        (f0, f1, k.values[0], r0, 0usize),
        (f1, f0, k.values[1], r1, 1),
    ] {
        let fence = fence.clone();
        let scratch = p.global_line(&format!("scratch{tid}"));
        let units = k.filler_units[tid];
        p.thread(move |b| {
            b.let_("w0", ld(f0.cell()));
            b.let_("w1", ld(f1.cell()));
            emit_filler(b, scratch, tid, units);
            b.store(mine.cell(), c(val));
            fence.emit(b);
            b.store(out.cell(), ld(theirs.cell()));
            b.halt();
        });
    }
    p
}

/// Store buffering through a class scope. `SbClass` keeps both racy
/// accesses inside the method (covered); `SbClassWrong` performs the
/// racy store in the thread body *before* the call, so the class
/// fence has no prior in-scope access to wait for and the load runs
/// ahead of the store's drain.
fn sb_class(family: Family, seed: u64) -> IrProgram {
    let k = Knobs::new(family, seed, 2, 2);
    let mut p = IrProgram::new();
    let f0 = p.shared_line("flag0");
    let f1 = p.shared_line("flag1");
    let r0 = p.observer("r0");
    let r1 = p.observer("r1");
    let covered = family == Family::SbClass;
    let cls = p.class("Sync");
    if covered {
        // store mine; class fence; return load of theirs.
        p.method(cls, "sig", &["mine", "val"], move |b| {
            b.if_else(
                l("mine").eq(c(0)),
                move |t| t.store(f0.cell(), l("val")),
                move |e| e.store(f1.cell(), l("val")),
            );
            b.fence_class();
            b.if_else(
                l("mine").eq(c(0)),
                move |t| t.ret(Some(ld(f1.cell()))),
                move |e| e.ret(Some(ld(f0.cell()))),
            );
        });
    } else {
        // Only fence + load inside the class; the store stays
        // outside, so the fence's scope never covers it.
        p.method(cls, "check", &["mine"], move |b| {
            b.fence_class();
            b.if_else(
                l("mine").eq(c(0)),
                move |t| t.ret(Some(ld(f1.cell()))),
                move |e| e.ret(Some(ld(f0.cell()))),
            );
        });
    }
    for (mine_idx, mine, val, out, tid) in [
        (0i64, f0, k.values[0], r0, 0usize),
        (1, f1, k.values[1], r1, 1),
    ] {
        let scratch = p.global_line(&format!("scratch{tid}"));
        let units = k.filler_units[tid];
        p.thread(move |b| {
            b.let_("w0", ld(f0.cell()));
            b.let_("w1", ld(f1.cell()));
            emit_filler(b, scratch, tid, units);
            if covered {
                b.call_ret("r", "Sync::sig", &[c(mine_idx), c(val)]);
            } else {
                b.store(mine.cell(), c(val));
                b.call_ret("r", "Sync::check", &[c(mine_idx)]);
            }
            b.store(out.cell(), l("r"));
            b.halt();
        });
    }
    p
}

/// IRIW: two writers, two readers reading in opposite orders with a
/// fence between their loads. SC forbids the readers disagreeing on
/// the order of the writes.
fn iriw(seed: u64) -> IrProgram {
    let k = Knobs::new(Family::Iriw, seed, 4, 2);
    let mut p = IrProgram::new();
    let x = p.shared_line("x");
    let y = p.shared_line("y");
    let oa = p.observer("a");
    let ob = p.observer("b");
    let oc = p.observer("c");
    let od = p.observer("d");
    let vx = k.values[0];
    let vy = k.values[1];
    p.thread(move |b| {
        b.store(x.cell(), c(vx));
        b.halt();
    });
    p.thread(move |b| {
        b.store(y.cell(), c(vy));
        b.halt();
    });
    for (first, second, out1, out2, tid) in [(x, y, oa, ob, 2usize), (y, x, oc, od, 3)] {
        let scratch = p.global_line(&format!("scratch{tid}"));
        let units = k.filler_units[tid];
        p.thread(move |b| {
            emit_filler(b, scratch, tid, units);
            b.let_("p", ld(first.cell()));
            b.fence();
            b.let_("q", ld(second.cell()));
            b.store(out1.cell(), l("p"));
            b.store(out2.cell(), l("q"));
            b.halt();
        });
    }
    p
}

/// Two threads CAS-increment a shared counter `iters` times each
/// through a class method. The only SC-allowed final counter value is
/// `2 * iters`; anything else means a lost update (an atomicity bug,
/// not a fence-scope property — this family pins CAS semantics).
fn cas(seed: u64) -> IrProgram {
    let k = Knobs::new(Family::Cas, seed, 2, 0);
    let iters = 1 + (k.count % 2) as i64; // 1..=2 per thread
    let mut p = IrProgram::new();
    let ctr = p.shared_observer("ctr");
    let cls = p.class("Counter");
    p.method(cls, "inc", &[], move |b| {
        b.let_("ok", c(0));
        b.while_(l("ok").eq(c(0)), move |w| {
            w.let_("cur", ld(ctr.cell()));
            w.cas("ok", ctr.cell(), l("cur"), l("cur").add(c(1)));
        });
        b.fence_class();
    });
    for tid in 0..2usize {
        let scratch = p.global_line(&format!("scratch{tid}"));
        let units = k.filler_units[tid];
        p.thread(move |b| {
            emit_filler(b, scratch, tid, units);
            b.let_("i", c(0));
            b.while_(l("i").lt(c(iters)), move |w| {
                w.call("Counter::inc", &[]);
                w.assign("i", l("i").add(c(1)));
            });
            b.halt();
        });
    }
    p
}

/// Producer/consumer mailbox: the producer fills `items` slots and
/// publishes the count under a class fence; the consumer spins on the
/// count and reads the last slot under the same class's fence. For
/// [`Family::PcDeep`] the producer call goes through a seed-varied
/// stack of instrumented wrapper classes, nesting scopes deep enough
/// to overflow the FSS (degrading the inner fences to full fences —
/// which must preserve the outcome).
fn pc(family: Family, seed: u64) -> IrProgram {
    let k = Knobs::new(family, seed, 2, 3);
    let items = 1 + k.count % 3; // 1..=3 slots
    let depth = match family {
        Family::PcDeep => 3 + (k.count / 3) % 4, // 3..=6 wrappers
        _ => 0,
    };
    let mut p = IrProgram::new();
    let slots = p.shared_array("slots", items * WORDS_PER_LINE);
    let count = p.shared_line("count");
    let obs = p.observer("last");
    let vals: Vec<i64> = k.values[..items].to_vec();
    let cls = p.class("Mailbox");
    {
        let vals = vals.clone();
        p.method(cls, "put", &[], move |b| {
            for (i, &v) in vals.iter().enumerate() {
                b.store(slots.at(c((i * WORDS_PER_LINE) as i64)), c(v));
            }
            b.fence_class();
            b.store(count.cell(), c(items as i64));
        });
    }
    p.method(cls, "get", &[], move |b| {
        b.spin_until(ld(count.cell()).eq(c(items as i64)));
        b.fence_class();
        b.ret(Some(ld(slots.at(c(((items - 1) * WORDS_PER_LINE) as i64)))));
    });
    // Wrapper classes W0..W{depth-1}: W_i::call invokes the next
    // level; each carries a (cheap) class fence so it is instrumented
    // and pushes a scope of its own.
    for d in 0..depth {
        let cd = p.class(&format!("W{d}"));
        let inner = if d + 1 == depth {
            "Mailbox::put".to_string()
        } else {
            format!("W{}::call", d + 1)
        };
        p.method(cd, "call", &[], move |b| {
            b.fence_class();
            b.call(&inner, &[]);
        });
    }
    let producer_entry = if depth == 0 {
        "Mailbox::put"
    } else {
        "W0::call"
    }
    .to_string();
    let scratch0 = p.global_line("scratch0");
    let units0 = k.filler_units[0];
    p.thread(move |b| {
        b.let_("warm", ld(count.cell()));
        emit_filler(b, scratch0, 0, units0);
        b.call(&producer_entry, &[]);
        b.halt();
    });
    p.thread(move |b| {
        b.call_ret("r", "Mailbox::get", &[]);
        b.store(obs.cell(), l("r"));
        b.halt();
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for family in FAMILIES {
            for seed in [0u64, 7, 123] {
                let name = scenario_name(family, seed);
                assert_eq!(parse_name(&name), Some((family, seed)));
            }
        }
        assert_eq!(parse_name("litmus/nonesuch/3"), None);
        assert_eq!(parse_name("litmus/mp/x"), None);
        assert_eq!(parse_name("dekker"), None);
    }

    #[test]
    fn same_seed_same_program() {
        for family in FAMILIES {
            let a = build(&LitmusSpec::new(family, 42));
            let b = build(&LitmusSpec::new(family, 42));
            assert_eq!(
                a.program.threads,
                b.program.threads,
                "{}: generation must be deterministic",
                family.name()
            );
        }
    }

    #[test]
    fn seeds_vary_the_program() {
        for family in FAMILIES {
            let mut distinct = false;
            let base = build(&LitmusSpec::new(family, 0));
            for seed in 1..8 {
                if build(&LitmusSpec::new(family, seed)).program.threads != base.program.threads {
                    distinct = true;
                    break;
                }
            }
            assert!(distinct, "{}: seeds never vary the program", family.name());
        }
    }

    #[test]
    fn every_family_compiles_and_observes() {
        for family in FAMILIES {
            for seed in 0..3 {
                let w = build(&LitmusSpec::new(family, seed));
                assert!(w.program.validate().is_ok(), "{}", family.name());
                assert!(
                    !w.program.observed_symbols().is_empty(),
                    "{}: no observed locations",
                    family.name()
                );
                assert!(compile_stripped(&LitmusSpec::new(family, seed))
                    .validate()
                    .is_ok());
            }
        }
    }

    #[test]
    fn stripped_variant_has_no_fences() {
        use sfence_isa::Instr;
        for family in FAMILIES {
            let stripped = compile_stripped(&LitmusSpec::new(family, 5));
            for t in &stripped.threads {
                assert!(
                    !t.iter().any(|i| matches!(
                        i,
                        Instr::Fence { .. } | Instr::FsStart { .. } | Instr::FsEnd { .. }
                    )),
                    "{}: stripped program still fenced",
                    family.name()
                );
            }
        }
    }

    /// A minimized fuzzer finding must rebuild byte-identically from
    /// its registry name, and agree with direct synth emission of the
    /// archived encoding.
    #[test]
    fn regression_scenarios_round_trip_byte_identically() {
        for (i, enc) in crate::synth::REGRESSIONS.iter().enumerate() {
            let i = i as u64;
            let name = scenario_name(Family::Regression, i);
            assert_eq!(parse_name(&name), Some((Family::Regression, i)));
            let a = build_named(&name).expect("registered regression builds");
            let b = build_named(&name).expect("registered regression builds");
            assert_eq!(a.name, name);
            assert_eq!(
                a.program.threads, b.program.threads,
                "{name}: not deterministic"
            );
            let synth = crate::synth::SynthSpec::decode(enc).unwrap();
            let direct = crate::synth::ir(&synth, false).compile().unwrap();
            assert_eq!(
                a.program.threads, direct.threads,
                "{name}: registry dispatch and direct emission disagree"
            );
            // The stripped variant (the campaign's S-nofence row)
            // must lose every fence and scope marker.
            let stripped = compile_stripped(&LitmusSpec::new(Family::Regression, i));
            use sfence_isa::Instr;
            for t in &stripped.threads {
                assert!(!t.iter().any(|ins| matches!(
                    ins,
                    Instr::Fence { .. } | Instr::FsStart { .. } | Instr::FsEnd { .. }
                )));
            }
        }
        let out_of_range = crate::synth::REGRESSIONS.len() as u64;
        assert_eq!(
            parse_name(&scenario_name(Family::Regression, out_of_range)),
            None
        );
        assert_eq!(Family::from_name("regression"), Some(Family::Regression));
        assert!(Family::Regression.covering());
        assert!(!FAMILIES.contains(&Family::Regression));
    }
}
