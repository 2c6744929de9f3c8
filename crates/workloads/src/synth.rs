//! Program-synthesis grammar for the S-Fence fuzzer.
//!
//! The litmus module ([`crate::litmus`]) hand-writes a dozen scenario
//! *families*; this module generalizes them into a small racy-program
//! grammar the coverage-guided fuzzer (`sfence-fuzz`) can synthesize,
//! mutate, minimize and re-emit deterministically:
//!
//! - a [`SynthSpec`] is 1–4 shared cache-line variables, a set-scope
//!   membership mask, and 1–4 straight-line threads of [`SynthOp`]s
//!   (stores, observed loads, the three fence flavours, class-scope
//!   region brackets, and private filler work);
//! - [`SynthSpec::encode`]/[`SynthSpec::decode`] give every spec a
//!   compact printable name, registered in the workload catalog as
//!   `fuzz/<encoded>` so corpus entries flow through the `Backend`
//!   trait, the result cache and `sfence-dist` job specs unchanged;
//! - [`SynthSpec::covering`] is a conservative static analysis that
//!   decides whether every racy pair is ordered by an *in-scope*
//!   fence on correct S-Fence hardware (the fuzzer's SC expectation
//!   for the scoped rows), and [`SynthSpec::fenced_traditional`] the
//!   same under traditional fences (scopes widened to full);
//! - [`mutate`] applies the fuzzer's mutation operators (splice,
//!   insert/delete, scope permutation, covering↔non-covering set
//!   swaps, region deepening past FSS capacity) using the
//!   deterministic [`Prng`];
//! - [`REGRESSIONS`] archives minimized divergences found by the
//!   fuzzer; `litmus/regression/<id>` scenarios re-emit them forever
//!   in every campaign.
//!
//! ## Soundness of the covering analysis
//!
//! The machine (RMO store buffer, OOO execution) can reorder
//! store→store (out-of-order drain), store→load (buffered store
//! bypassed by a later load) and load→load (a younger load binding
//! early). It can never make a *store* visible before an older
//! *load* completes: stores drain after retirement and loads bind
//! before it. So each adjacent pair of same-thread shared accesses
//! except load→store needs an ordering fence between the two, and a
//! fence orders the pair iff the earlier access is in its scope:
//!
//! - a full fence always is;
//! - a class fence covers accesses issued inside its innermost
//!   enclosing region (nested ops flag all outer FSB columns, and
//!   FSS overflow degrades the fence to full — strictly stronger);
//!   outside any region it *compiles* to a full fence;
//! - a set fence covers accesses to variables in the program's set
//!   union (the compiler flags exactly those).
//!
//! If every such pair is ordered, per-thread completion order equals
//! program order and every execution is sequentially consistent, so
//! `covering()` specs must stay inside the SC enumerator's state set
//! on correct hardware — any escape is a hardware (or injected) bug.

use crate::support::{compile, BuiltWorkload, Prng};
use sfence_isa::ir::{c, l, ld, BlockBuilder, Class, Global, IrProgram};
use sfence_isa::passes::strip_fences;
use sfence_isa::WORDS_PER_LINE;

/// Catalog namespace for encoded synthesized programs.
pub const SYNTH_PREFIX: &str = "fuzz/";

/// Grammar bounds: they keep candidates small enough for the SC
/// enumerator to close over and give every field a single encoded
/// digit.
pub const MAX_VARS: u8 = 4;
/// Distinct class-scope ids (`C0`..`C3`).
pub const MAX_CLASSES: u8 = 4;
/// Threads per candidate.
pub const MAX_THREADS: usize = 4;
/// Ops per thread (region brackets included).
pub const MAX_OPS_PER_THREAD: usize = 16;
/// Region nesting depth — deliberately deeper than the default FSS
/// capacity so mutations can push past it.
pub const MAX_DEPTH: usize = 4;

/// One grammar token. Threads are straight-line sequences; region
/// brackets must balance (checked by [`SynthSpec::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthOp {
    /// Enter a class-scope region of class `C<id>` (a method call on
    /// an instrumented class after emission).
    Begin(u8),
    /// Leave the innermost region.
    End,
    /// Store the (nonzero, single-digit) value to a shared variable.
    Store(u8, u8),
    /// Load a shared variable into a fresh observer cell.
    Load(u8),
    /// Traditional full fence.
    FenceFull,
    /// `S-FENCE[class]` — full fence when emitted outside a region.
    FenceClass,
    /// `S-FENCE[set]` over the spec's [`SynthSpec::set_vars`] mask.
    FenceSet,
    /// Private filler arithmetic + store (timing perturbation only).
    LocalWork(u8),
}

/// A synthesized racy program: the fuzzer's genome.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SynthSpec {
    /// Number of shared single-line variables `x0..`.
    pub vars: u8,
    /// Bitmask over `vars`: members of the set scope named by every
    /// [`SynthOp::FenceSet`] (the compiler flags accesses to the
    /// union, so one program-wide mask is the faithful model).
    pub set_vars: u8,
    /// One op sequence per thread.
    pub threads: Vec<Vec<SynthOp>>,
}

fn digit(b: u8) -> Option<u8> {
    (b as char).to_digit(16).map(|d| d as u8)
}

impl SynthSpec {
    /// Compact printable encoding, the spec's identity: header
    /// `v<vars>m<set-mask-hex>:` then threads joined by `~`, ops as
    /// `(<class>`, `)`, `s<var><val>`, `l<var>`, `f` (full), `c`
    /// (class), `z` (set), `w<units>`.
    pub fn encode(&self) -> String {
        let mut s = format!("v{}m{:x}:", self.vars, self.set_vars);
        for (i, t) in self.threads.iter().enumerate() {
            if i > 0 {
                s.push('~');
            }
            for op in t {
                match op {
                    SynthOp::Begin(cl) => {
                        s.push('(');
                        s.push(char::from_digit(*cl as u32, 16).unwrap());
                    }
                    SynthOp::End => s.push(')'),
                    SynthOp::Store(v, val) => {
                        s.push('s');
                        s.push(char::from_digit(*v as u32, 16).unwrap());
                        s.push(char::from_digit(*val as u32, 16).unwrap());
                    }
                    SynthOp::Load(v) => {
                        s.push('l');
                        s.push(char::from_digit(*v as u32, 16).unwrap());
                    }
                    SynthOp::FenceFull => s.push('f'),
                    SynthOp::FenceClass => s.push('c'),
                    SynthOp::FenceSet => s.push('z'),
                    SynthOp::LocalWork(n) => {
                        s.push('w');
                        s.push(char::from_digit(*n as u32, 16).unwrap());
                    }
                }
            }
        }
        s
    }

    /// Inverse of [`Self::encode`]; `None` on malformed or
    /// out-of-bounds input (never panics — registry names come from
    /// the command line).
    pub fn decode(s: &str) -> Option<SynthSpec> {
        let b = s.as_bytes();
        if b.len() < 5 || b[0] != b'v' || b[2] != b'm' || b[4] != b':' {
            return None;
        }
        let vars = digit(b[1])?;
        let set_vars = digit(b[3])?;
        let mut threads = vec![Vec::new()];
        let mut i = 5;
        while i < b.len() {
            let t = threads.last_mut().unwrap();
            match b[i] {
                b'~' => {
                    threads.push(Vec::new());
                    i += 1;
                }
                b'(' => {
                    t.push(SynthOp::Begin(digit(*b.get(i + 1)?)?));
                    i += 2;
                }
                b')' => {
                    t.push(SynthOp::End);
                    i += 1;
                }
                b's' => {
                    t.push(SynthOp::Store(
                        digit(*b.get(i + 1)?)?,
                        digit(*b.get(i + 2)?)?,
                    ));
                    i += 3;
                }
                b'l' => {
                    t.push(SynthOp::Load(digit(*b.get(i + 1)?)?));
                    i += 2;
                }
                b'f' => {
                    t.push(SynthOp::FenceFull);
                    i += 1;
                }
                b'c' => {
                    t.push(SynthOp::FenceClass);
                    i += 1;
                }
                b'z' => {
                    t.push(SynthOp::FenceSet);
                    i += 1;
                }
                b'w' => {
                    t.push(SynthOp::LocalWork(digit(*b.get(i + 1)?)?));
                    i += 2;
                }
                _ => return None,
            }
        }
        let spec = SynthSpec {
            vars,
            set_vars,
            threads,
        };
        spec.validate().then_some(spec)
    }

    /// Structural well-formedness: bounds, balanced regions within
    /// depth, and at least one observed load (a spec with no
    /// observers has an empty final state and nothing to check).
    pub fn validate(&self) -> bool {
        if self.vars == 0 || self.vars > MAX_VARS || self.set_vars >= 1 << self.vars {
            return false;
        }
        if self.threads.is_empty() || self.threads.len() > MAX_THREADS {
            return false;
        }
        let mut loads = 0usize;
        for t in &self.threads {
            if t.is_empty() || t.len() > MAX_OPS_PER_THREAD {
                return false;
            }
            let mut depth = 0usize;
            for op in t {
                match op {
                    SynthOp::Begin(cl) => {
                        if *cl >= MAX_CLASSES {
                            return false;
                        }
                        depth += 1;
                        if depth > MAX_DEPTH {
                            return false;
                        }
                    }
                    SynthOp::End => {
                        if depth == 0 {
                            return false;
                        }
                        depth -= 1;
                    }
                    SynthOp::Store(v, val) => {
                        if *v >= self.vars || *val == 0 || *val > 9 {
                            return false;
                        }
                    }
                    SynthOp::Load(v) => {
                        if *v >= self.vars {
                            return false;
                        }
                        loads += 1;
                    }
                    SynthOp::LocalWork(n) => {
                        if *n == 0 || *n > 9 {
                            return false;
                        }
                    }
                    SynthOp::FenceFull | SynthOp::FenceClass | SynthOp::FenceSet => {}
                }
            }
            if depth != 0 {
                return false;
            }
        }
        loads > 0
    }

    /// Is every racy pair ordered by an *in-scope* fence under
    /// S-Fence semantics? See the module docs for the soundness
    /// argument. `true` means every execution on correct hardware is
    /// SC — the fuzzer's expectation for the scoped rows.
    pub fn covering(&self) -> bool {
        self.ordered(true)
    }

    /// Same analysis under traditional fences (every fence flavour
    /// widens to full) — the expectation for the `T` row, where a
    /// wrong-scope fence still orders everything.
    pub fn fenced_traditional(&self) -> bool {
        self.ordered(false)
    }

    fn ordered(&self, honor_scopes: bool) -> bool {
        for t in &self.threads {
            let flat = flatten(t);
            let accesses: Vec<usize> = (0..flat.len())
                .filter(|&i| matches!(flat[i].0, SynthOp::Store(..) | SynthOp::Load(_)))
                .collect();
            for pair in accesses.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let (aop, apath) = &flat[a];
                // Stores drain after retirement, loads bind before
                // it: load→store never reorders and needs no fence.
                if matches!(aop, SynthOp::Load(_)) && matches!(flat[b].0, SynthOp::Store(..)) {
                    continue;
                }
                let avar = match aop {
                    SynthOp::Store(v, _) | SynthOp::Load(v) => *v,
                    _ => unreachable!(),
                };
                let covered = flat[a + 1..b].iter().any(|(op, fpath)| match op {
                    SynthOp::FenceFull => true,
                    SynthOp::FenceClass => {
                        !honor_scopes
                            || match fpath.last() {
                                // Covered iff the earlier access ran
                                // inside the fence's innermost region.
                                Some(inst) => apath.contains(inst),
                                // Outside any region this op is
                                // emitted as a full fence.
                                None => true,
                            }
                    }
                    SynthOp::FenceSet => !honor_scopes || (self.set_vars >> avar) & 1 == 1,
                    _ => false,
                });
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    /// Catalog name: `fuzz/<encoded>`.
    pub fn name(&self) -> String {
        format!("{SYNTH_PREFIX}{}", self.encode())
    }
}

/// Flatten one thread's ops, dropping region brackets and tagging
/// every remaining op with its region-instance path (instance ids
/// are unique per thread).
fn flatten(ops: &[SynthOp]) -> Vec<(SynthOp, Vec<usize>)> {
    let mut path = Vec::new();
    let mut next = 0usize;
    let mut out = Vec::new();
    for op in ops {
        match op {
            SynthOp::Begin(_) => {
                path.push(next);
                next += 1;
            }
            SynthOp::End => {
                path.pop();
            }
            _ => out.push((*op, path.clone())),
        }
    }
    out
}

/// Parse `litmus/regression/...`-style names in this namespace:
/// `fuzz/<encoded>` → spec.
pub fn parse_name(name: &str) -> Option<SynthSpec> {
    name.strip_prefix(SYNTH_PREFIX).and_then(SynthSpec::decode)
}

/// Build a catalog workload from a `fuzz/<encoded>` name. Synthesized
/// programs carry no structural invariant beyond SC conformance —
/// the differential oracle, not a final-memory check, judges them.
pub fn build_named(name: &str) -> Option<BuiltWorkload> {
    let spec = parse_name(name)?;
    Some(BuiltWorkload {
        name: name.to_string(),
        program: compile(&ir(&spec, false)),
        check: Box::new(|_, _| Ok(())),
    })
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Region tree of one thread (brackets made structural).
enum Node {
    Op(SynthOp),
    Region(u8, Vec<Node>),
}

/// Build the region tree. [`SynthSpec::validate`] guarantees balance;
/// for robustness unmatched brackets are dropped/closed rather than
/// panicking.
fn tree(ops: &[SynthOp]) -> Vec<Node> {
    let mut stack: Vec<(u8, Vec<Node>)> = Vec::new();
    let mut top: Vec<Node> = Vec::new();
    for op in ops {
        match op {
            SynthOp::Begin(cl) => stack.push((*cl, Vec::new())),
            SynthOp::End => {
                if let Some((cl, kids)) = stack.pop() {
                    match stack.last_mut() {
                        Some((_, dst)) => dst.push(Node::Region(cl, kids)),
                        None => top.push(Node::Region(cl, kids)),
                    }
                }
            }
            other => match stack.last_mut() {
                Some((_, dst)) => dst.push(Node::Op(*other)),
                None => top.push(Node::Op(*other)),
            },
        }
    }
    while let Some((cl, kids)) = stack.pop() {
        match stack.last_mut() {
            Some((_, dst)) => dst.push(Node::Region(cl, kids)),
            None => top.push(Node::Region(cl, kids)),
        }
    }
    top
}

/// One lowered statement of a region or thread body.
enum Item {
    Store(Global, i64),
    /// (shared var, observer destination)
    Load(Global, Global),
    FenceFull,
    FenceClass,
    FenceSet,
    /// (unique local name, units, seed)
    Work(String, u8, i64),
    Call(String),
}

struct Lower {
    vars: Vec<Global>,
    set: Vec<Global>,
    classes: [Option<Class>; MAX_CLASSES as usize],
    method_idx: usize,
    work_idx: usize,
}

/// Per-thread lowering context: identity for observer/filler naming
/// plus the thread's private scratch line.
struct ThreadCtx {
    tid: usize,
    obs_idx: usize,
    scratch: Global,
}

impl Lower {
    fn lower(
        &mut self,
        p: &mut IrProgram,
        nodes: &[Node],
        ctx: &mut ThreadCtx,
        in_region: bool,
    ) -> Vec<Item> {
        let mut items = Vec::new();
        for node in nodes {
            match node {
                Node::Op(SynthOp::Store(v, val)) => {
                    items.push(Item::Store(self.vars[*v as usize], *val as i64));
                }
                Node::Op(SynthOp::Load(v)) => {
                    let obs = p.observer(&format!("t{}o{}", ctx.tid, ctx.obs_idx));
                    ctx.obs_idx += 1;
                    items.push(Item::Load(self.vars[*v as usize], obs));
                }
                Node::Op(SynthOp::FenceFull) => items.push(Item::FenceFull),
                // A class fence outside any region would not compile
                // (no enclosing class); the scope unit treats an
                // empty-stack class fence as full, so emit exactly
                // that.
                Node::Op(SynthOp::FenceClass) if !in_region => items.push(Item::FenceFull),
                Node::Op(SynthOp::FenceClass) => items.push(Item::FenceClass),
                Node::Op(SynthOp::FenceSet) => items.push(Item::FenceSet),
                Node::Op(SynthOp::LocalWork(n)) => {
                    let name = format!("fil{}", self.work_idx);
                    self.work_idx += 1;
                    items.push(Item::Work(name, *n, ctx.tid as i64 * 7919 + 12345));
                }
                Node::Op(SynthOp::Begin(_)) | Node::Op(SynthOp::End) => unreachable!(),
                Node::Region(cl, kids) => {
                    let inner = self.lower(p, kids, ctx, true);
                    let class = match self.classes[*cl as usize] {
                        Some(class) => class,
                        None => {
                            let class = p.class(&format!("C{cl}"));
                            self.classes[*cl as usize] = Some(class);
                            class
                        }
                    };
                    let mname = format!("m{}", self.method_idx);
                    self.method_idx += 1;
                    let set = self.set.clone();
                    let scratch = ctx.scratch;
                    p.method(class, &mname, &[], |b| emit_items(b, &inner, &set, scratch));
                    items.push(Item::Call(format!("C{cl}::{mname}")));
                }
            }
        }
        items
    }
}

fn emit_items(b: &mut BlockBuilder, items: &[Item], set: &[Global], scratch: Global) {
    for item in items {
        match item {
            Item::Store(g, v) => b.store(g.cell(), c(*v)),
            Item::Load(g, obs) => b.store(obs.cell(), ld(g.cell())),
            Item::FenceFull => b.fence(),
            Item::FenceClass => b.fence_class(),
            Item::FenceSet => b.fence_set(set),
            Item::Work(name, units, seed) => {
                b.let_(name, c(*seed));
                for k in 0..*units as usize {
                    b.assign(
                        name,
                        l(name)
                            .mul(c(6364136223846793005))
                            .add(c(1442695040888963407 + k as i64)),
                    );
                    b.store(scratch.at(c((k % WORDS_PER_LINE) as i64)), l(name));
                }
            }
            Item::Call(name) => b.call(name, &[]),
        }
    }
}

/// Emit a spec as an IR program. `strip` removes every fence (the
/// campaign's `S-nofence` row) through
/// [`strip_fences`].
pub fn ir(spec: &SynthSpec, strip: bool) -> IrProgram {
    assert!(spec.validate(), "invalid synth spec {:?}", spec.encode());
    let mut p = IrProgram::new();
    let vars: Vec<Global> = (0..spec.vars)
        .map(|i| p.shared_line(&format!("x{i}")))
        .collect();
    let set: Vec<Global> = (0..spec.vars)
        .filter(|i| (spec.set_vars >> i) & 1 == 1)
        .map(|i| vars[i as usize])
        .collect();
    let mut lower = Lower {
        vars,
        set,
        classes: [None; MAX_CLASSES as usize],
        method_idx: 0,
        work_idx: 0,
    };
    let mut bodies = Vec::new();
    for (tid, ops) in spec.threads.iter().enumerate() {
        let mut ctx = ThreadCtx {
            tid,
            obs_idx: 0,
            scratch: p.global_line(&format!("scratch{tid}")),
        };
        let nodes = tree(ops);
        let items = lower.lower(&mut p, &nodes, &mut ctx, false);
        bodies.push((items, ctx.scratch));
    }
    let set = lower.set.clone();
    for (items, scratch) in &bodies {
        p.thread(|b| {
            emit_items(b, items, &set, *scratch);
            b.halt();
        });
    }
    if strip {
        strip_fences(&mut p);
    }
    p
}

// ---------------------------------------------------------------------------
// Mutation operators
// ---------------------------------------------------------------------------

/// Draw a random leaf op (never a region bracket).
fn random_op(spec: &SynthSpec, rng: &mut Prng) -> SynthOp {
    let var = rng.gen_range(0..spec.vars as usize) as u8;
    match rng.gen_range(0..6) {
        0 => SynthOp::Store(var, 1 + rng.gen_range(0..9) as u8),
        1 => SynthOp::Load(var),
        2 => SynthOp::FenceFull,
        3 => SynthOp::FenceClass,
        4 => SynthOp::FenceSet,
        _ => SynthOp::LocalWork(1 + rng.gen_range(0..9) as u8),
    }
}

/// Is `ops[i..j]` region-balanced (net depth zero, never negative)?
fn balanced(ops: &[SynthOp]) -> bool {
    let mut depth = 0i32;
    for op in ops {
        match op {
            SynthOp::Begin(_) => depth += 1,
            SynthOp::End => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0
}

/// Pick a random balanced span of a thread (possibly empty).
fn balanced_span(ops: &[SynthOp], rng: &mut Prng) -> Option<(usize, usize)> {
    let i = rng.gen_range(0..ops.len() + 1);
    let j = i + rng.gen_range(0..ops.len() + 1 - i);
    balanced(&ops[i..j]).then_some((i, j))
}

/// Index of the `End` matching the `Begin` at `i` (or the `Begin`
/// matching the `End` at `i`, searching backwards). Public so the
/// fuzzer's delta-minimizer can drop a bracket together with its
/// partner, the same way the delete mutation does.
pub fn matching_bracket(ops: &[SynthOp], i: usize) -> Option<usize> {
    match ops[i] {
        SynthOp::Begin(_) => {
            let mut depth = 0i32;
            for (j, op) in ops.iter().enumerate().skip(i) {
                match op {
                    SynthOp::Begin(_) => depth += 1,
                    SynthOp::End => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        SynthOp::End => {
            let mut depth = 0i32;
            for j in (0..=i).rev() {
                match ops[j] {
                    SynthOp::End => depth += 1,
                    SynthOp::Begin(_) => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(j);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        _ => None,
    }
}

/// One mutation step: apply a random operator, retrying until the
/// result validates (falling back to a clone of the input). Fully
/// deterministic in the [`Prng`] state.
pub fn mutate(spec: &SynthSpec, rng: &mut Prng) -> SynthSpec {
    for _ in 0..16 {
        let mut cand = spec.clone();
        let applied = match rng.gen_range(0..9) {
            // Splice: copy a balanced span from one thread into
            // another position.
            0 => {
                let src = rng.gen_range(0..cand.threads.len());
                let dst = rng.gen_range(0..cand.threads.len());
                match balanced_span(&cand.threads[src], rng) {
                    Some((i, j)) if i < j => {
                        let span: Vec<SynthOp> = cand.threads[src][i..j].to_vec();
                        let at = rng.gen_range(0..cand.threads[dst].len() + 1);
                        cand.threads[dst].splice(at..at, span);
                        true
                    }
                    _ => false,
                }
            }
            // Insert a random leaf op.
            1 => {
                let t = rng.gen_range(0..cand.threads.len());
                let at = rng.gen_range(0..cand.threads[t].len() + 1);
                let op = random_op(&cand, rng);
                cand.threads[t].insert(at, op);
                true
            }
            // Delete an op (a bracket takes its partner with it).
            2 => {
                let t = rng.gen_range(0..cand.threads.len());
                let i = rng.gen_range(0..cand.threads[t].len());
                match matching_bracket(&cand.threads[t], i) {
                    Some(j) => {
                        let (lo, hi) = (i.min(j), i.max(j));
                        cand.threads[t].remove(hi);
                        cand.threads[t].remove(lo);
                    }
                    None => {
                        cand.threads[t].remove(i);
                    }
                }
                !cand.threads[t].is_empty()
            }
            // Permute scopes: retarget a region to another class.
            3 => {
                let t = rng.gen_range(0..cand.threads.len());
                let cl = rng.gen_range(0..MAX_CLASSES as usize) as u8;
                let begins: Vec<usize> = (0..cand.threads[t].len())
                    .filter(|&i| matches!(cand.threads[t][i], SynthOp::Begin(_)))
                    .collect();
                match begins.is_empty() {
                    true => false,
                    false => {
                        let i = begins[rng.gen_range(0..begins.len())];
                        cand.threads[t][i] = SynthOp::Begin(cl);
                        true
                    }
                }
            }
            // Swap covering↔non-covering sets: toggle a mask bit.
            4 => {
                cand.set_vars ^= 1 << rng.gen_range(0..cand.vars as usize);
                true
            }
            // Deepen: wrap a balanced span in a fresh region (push
            // class nesting past FSS capacity).
            5 => {
                let t = rng.gen_range(0..cand.threads.len());
                let cl = rng.gen_range(0..MAX_CLASSES as usize) as u8;
                match balanced_span(&cand.threads[t], rng) {
                    Some((i, j)) if i < j => {
                        cand.threads[t].insert(j, SynthOp::End);
                        cand.threads[t].insert(i, SynthOp::Begin(cl));
                        true
                    }
                    _ => false,
                }
            }
            // Tweak a leaf in place.
            6 => {
                let t = rng.gen_range(0..cand.threads.len());
                let i = rng.gen_range(0..cand.threads[t].len());
                let var = rng.gen_range(0..cand.vars as usize) as u8;
                match &mut cand.threads[t][i] {
                    SynthOp::Store(v, val) => {
                        *v = var;
                        *val = 1 + rng.gen_range(0..9) as u8;
                        true
                    }
                    SynthOp::Load(v) => {
                        *v = var;
                        true
                    }
                    SynthOp::LocalWork(n) => {
                        *n = 1 + rng.gen_range(0..9) as u8;
                        true
                    }
                    _ => false,
                }
            }
            // Add a small racy thread.
            7 => {
                let var = rng.gen_range(0..cand.vars as usize) as u8;
                let other = rng.gen_range(0..cand.vars as usize) as u8;
                cand.threads.push(vec![
                    SynthOp::Store(var, 1 + rng.gen_range(0..9) as u8),
                    SynthOp::FenceFull,
                    SynthOp::Load(other),
                ]);
                true
            }
            // Drop a thread.
            _ => match cand.threads.len() > 1 {
                true => {
                    let t = rng.gen_range(0..cand.threads.len());
                    cand.threads.remove(t);
                    true
                }
                false => false,
            },
        };
        if applied && cand.validate() {
            return cand;
        }
    }
    spec.clone()
}

/// The fuzzer's seed corpus: hand-shaped templates spanning the
/// grammar — each litmus archetype (SB, MP, IRIW), each fence
/// flavour, covering and deliberately non-covering scopes, warm-up
/// loads (a load→store prefix is free under the analysis) and
/// FSS-overflow-deep nesting.
pub fn seed_corpus() -> Vec<SynthSpec> {
    [
        // Store buffering, full fences (covering).
        "v2m0:l1s01fl1~l0s11fl0",
        // SB, class fences inside single regions (covering).
        "v2m0:l1(0s01c)l1~l0(1s11c)l0",
        // SB, covering set fences.
        "v2m3:l1s01zl1~l0s11zl0",
        // SB, wrong-scope set fences (fenced under T, not covering).
        "v2m0:s01zl1~s11zl0",
        // SB with nesting past the overflow config's FSS capacity:
        // the degrade-on-overflow path must still order it. Both
        // classes carry a fence (a class with no fence in any method
        // is not instrumented and would never push the FSS).
        "v2m0:l1(0c(1s01c))l1~l0(0c(1s11c))l0",
        // Message passing through a class region, consumer delayed.
        "v2m0:l1(0s05c)s11~w3l1fl0",
        // Unfenced MP (relaxation demo: no expectation anywhere).
        "v2m0:s05s11~l1l0",
        // IRIW: two writers, two fenced readers.
        "v2m0:s01~s11~l0fl1~l1fl0",
        // Deep nesting + set/class mix on three vars.
        "v3m5:l2(0(1(2s01c)s12c))l2~s21fl1",
    ]
    .iter()
    .map(|s| SynthSpec::decode(s).expect("seed template must decode"))
    .collect()
}

// ---------------------------------------------------------------------------
// Regression registry
// ---------------------------------------------------------------------------

/// Minimized divergences harvested by `sfence-fuzz`, re-emitted
/// forever as `litmus/regression/<index>` scenarios by every litmus
/// campaign, sweep and test. Every entry must be `covering()` —
/// the campaign expects its scoped rows to stay SC, so a hardware
/// regression that re-breaks the path trips the verdict.
///
/// Provenance of each entry is recorded alongside it; entries are
/// append-only (indices are stable registry names).
pub const REGRESSIONS: &[&str] = &[
    // #0 — found by `sfence-fuzz --inject-bug --minimize` (seed 1):
    // symmetric SB where each store sits in a class region nested
    // past the overflow config's FSS capacity. The degraded class
    // fence must widen to a full fence; the injected
    // `skip_degrade_on_overflow` bug made it wait on nothing, letting
    // both warm loads bind before either store drained (forbidden
    // SB outcome 0/0 on the S-overflow row). The minimizer dropped
    // thread 0's outer `c` — class C0 stays instrumented because its
    // thread-1 method still fences — but kept every warm load: the
    // divergence is timing-real and needs both lines warm.
    "v2m0:l1(0(1s01c))l1~l0(0c(1s11c))l0",
];

/// Decode regression `idx`, if registered.
pub fn regression(idx: u64) -> Option<SynthSpec> {
    let encoded = REGRESSIONS.get(usize::try_from(idx).ok()?)?;
    Some(SynthSpec::decode(encoded).expect("registered regression must decode"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfence_isa::Instr;

    #[test]
    fn seed_corpus_round_trips_and_validates() {
        for spec in seed_corpus() {
            assert!(spec.validate());
            let enc = spec.encode();
            assert_eq!(SynthSpec::decode(&enc).as_ref(), Some(&spec), "{enc}");
        }
    }

    #[test]
    fn malformed_names_are_rejected() {
        for bad in [
            "",
            "v2m0:",                  // no ops → no load
            "v2m0:s01",               // no load anywhere
            "v0m0:l0",                // zero vars
            "v2m4:l0",                // set mask out of range
            "v2m0:l3",                // var out of range
            "v2m0:)l0",               // unmatched close
            "v2m0:(0l0",              // unclosed region
            "v2m0:s00l0",             // zero store value
            "v2m0:x",                 // unknown token
            "v2m0:l0~",               // empty thread
            "v2m0:l0~~l1",            // empty middle thread
            "v2m0:(5l0)",             // class out of range
            "v2m0:(0(1(2(3(0l0)))))", // depth past MAX_DEPTH
        ] {
            assert!(SynthSpec::decode(bad).is_none(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn covering_analysis_classifies_the_templates() {
        let cov = |s: &str| SynthSpec::decode(s).unwrap().covering();
        let trad = |s: &str| SynthSpec::decode(s).unwrap().fenced_traditional();

        // Full fences between racy pairs: covered everywhere.
        assert!(cov("v2m0:s01fl1~s11fl0"));
        // No fence at all: neither.
        assert!(!cov("v2m0:s01l1~s11l0"));
        assert!(!trad("v2m0:s01l1~s11l0"));
        // Wrong-scope set fence: ordered under T, not under S.
        assert!(!cov("v2m0:s01zl1~s11zl0"));
        assert!(trad("v2m0:s01zl1~s11zl0"));
        // Matching set fence: covered.
        assert!(cov("v2m3:s01zl1~s11zl0"));
        // Class fence whose region contains the store: covered.
        assert!(cov("v2m0:(0s01c)l1~s11fl0"));
        // Class fence in a region that does NOT contain the store.
        assert!(!cov("v2m0:s01(0c)l1~s11fl0"));
        assert!(trad("v2m0:s01(0c)l1~s11fl0"));
        // Class fence outside any region is a full fence.
        assert!(cov("v2m0:s01cl1~s11cl0"));
        // Warm-up load before a store needs no fence (load→store
        // never reorders) …
        assert!(cov("v2m0:l1s01fl1~l0s11fl0"));
        // … but load→load does.
        assert!(!cov("v2m0:l1l0~s01fl1"));
        // Deep nesting: fence's innermost region contains the store.
        assert!(cov("v2m0:l1(0(1s01c))l1~l0(0(1s11c))l0"));
    }

    #[test]
    fn emission_compiles_and_observes_both_variants() {
        for spec in seed_corpus() {
            for strip in [false, true] {
                let prog = ir(&spec, strip)
                    .compile()
                    .unwrap_or_else(|e| panic!("{}: {e:?}", spec.encode()));
                assert!(
                    !prog.observed_symbols().is_empty(),
                    "{}: no observers",
                    spec.encode()
                );
                if strip {
                    for t in &prog.threads {
                        for instr in t {
                            assert!(
                                !matches!(
                                    instr,
                                    Instr::Fence { .. }
                                        | Instr::FsStart { .. }
                                        | Instr::FsEnd { .. }
                                ),
                                "{}: stripped variant still carries {instr:?}",
                                spec.encode()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn emission_is_deterministic() {
        let spec = &seed_corpus()[4];
        let a = ir(spec, false).compile().unwrap();
        let b = ir(spec, false).compile().unwrap();
        assert_eq!(a.threads, b.threads);
    }

    #[test]
    fn mutation_is_deterministic_and_valid() {
        let corpus = seed_corpus();
        for seed in 0..8u64 {
            let mut r1 = Prng::seed_from_u64(seed);
            let mut r2 = Prng::seed_from_u64(seed);
            for spec in &corpus {
                let a = mutate(spec, &mut r1);
                let b = mutate(spec, &mut r2);
                assert_eq!(a, b, "mutation must be a pure function of the PRNG");
                assert!(a.validate(), "mutant must validate: {}", a.encode());
            }
        }
    }

    #[test]
    fn mutations_reach_every_operator() {
        // Drive enough steps that each operator class fires and the
        // population stays structurally valid.
        let mut rng = Prng::seed_from_u64(7);
        let mut pool = seed_corpus();
        for i in 0..200 {
            let parent = pool[i % pool.len()].clone();
            let child = mutate(&parent, &mut rng);
            assert!(child.validate());
            pool.push(child);
        }
        // At least one mutant must differ from every seed (the
        // operators actually move the genome).
        let seeds = seed_corpus();
        assert!(pool.iter().any(|s| !seeds.contains(s)));
    }

    #[test]
    fn regressions_decode_and_are_covering() {
        assert!(!REGRESSIONS.is_empty());
        for (i, enc) in REGRESSIONS.iter().enumerate() {
            let spec = regression(i as u64).expect("registered regression");
            assert_eq!(&spec.encode(), enc, "registry stores canonical encodings");
            assert!(spec.covering(), "regression #{i} must be covering");
            assert!(spec.fenced_traditional());
        }
        assert!(regression(REGRESSIONS.len() as u64).is_none());
    }
}
