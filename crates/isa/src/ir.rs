//! A small structured IR and builder DSL.
//!
//! Workloads are written against this IR — classes with routines
//! (methods), thread bodies, scalar and array globals, locals,
//! structured control flow, CAS, and the three fence statements of the
//! paper. The compiler ([`crate::lower`]) inlines every call, inserts
//! `fs_start`/`fs_end` around inlined bodies of instrumented classes
//! (the paper's compiler support for class scope), flags set-scope
//! accesses (the paper's compiler support for set scope), and lowers
//! to the linear ISA.
//!
//! ```
//! use sfence_isa::ir::*;
//!
//! let mut p = IrProgram::new();
//! let flag = p.shared("flag");
//! let data = p.global("data");
//! let cls = p.class("Mailbox");
//! p.method(cls, "send", &["v"], |b| {
//!     b.store(data.cell(), l("v"));
//!     b.fence_class();
//!     b.store(flag.cell(), c(1));
//! });
//! p.thread(|b| {
//!     b.call("Mailbox::send", &[c(7)]);
//! });
//! let prog = p.compile().unwrap();
//! assert!(prog.validate().is_ok());
//! ```

use crate::instr::{AluOp, CmpOp};
use std::collections::HashMap;

/// Handle to a global variable or array declared on an [`IrProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Global {
    pub(crate) id: u32,
}

impl Global {
    /// Reference the scalar cell (or element 0 of an array).
    pub fn cell(self) -> MemRef {
        MemRef {
            global: self,
            index: None,
            flag_override: None,
        }
    }

    /// Reference element `index` of an array global.
    pub fn at(self, index: Expr) -> MemRef {
        MemRef {
            global: self,
            index: Some(Box::new(index)),
            flag_override: None,
        }
    }
}

/// A memory reference: a global plus an optional element index.
#[derive(Debug, Clone, PartialEq)]
pub struct MemRef {
    pub global: Global,
    pub index: Option<Box<Expr>>,
    /// Explicit set-scope flag override. `None` means "flag iff the
    /// global appears in some set-fence's variable set" (the default
    /// compiler behaviour); `Some(b)` forces the flag — used by the
    /// SC-enforcement pass, which flags exactly the delay-set accesses.
    pub flag_override: Option<bool>,
}

impl MemRef {
    /// Force or suppress the set-scope flag for this access.
    pub fn flagged(mut self, flag: bool) -> Self {
        self.flag_override = Some(flag);
        self
    }
}

/// An expression tree. Expressions are side-effect free apart from the
/// memory traffic of [`Expr::Load`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Const(i64),
    /// Read a local variable of the current routine or thread body.
    Local(String),
    Load(MemRef),
    Bin(AluOp, Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical negation: 1 if the operand is 0, else 0.
    Not(Box<Expr>),
}

/// Literal constant.
pub fn c(v: i64) -> Expr {
    Expr::Const(v)
}

/// Read a local variable.
pub fn l(name: &str) -> Expr {
    Expr::Local(name.to_string())
}

/// Load from memory.
pub fn ld(m: MemRef) -> Expr {
    Expr::Load(m)
}

/// Logical not.
pub fn not(e: Expr) -> Expr {
    Expr::Not(Box::new(e))
}

macro_rules! bin_methods {
    ($($meth:ident => $op:expr),* $(,)?) => {
        impl Expr {
            $(
                #[doc = concat!("Binary `", stringify!($meth), "`.")]
                #[allow(clippy::should_implement_trait)]
                pub fn $meth(self, rhs: Expr) -> Expr {
                    Expr::Bin($op, Box::new(self), Box::new(rhs))
                }
            )*
        }
    };
}

bin_methods! {
    add => AluOp::Add,
    sub => AluOp::Sub,
    mul => AluOp::Mul,
    div => AluOp::Div,
    rem => AluOp::Rem,
    bitand => AluOp::And,
    bitor => AluOp::Or,
    bitxor => AluOp::Xor,
    shl => AluOp::Shl,
    shr => AluOp::Shr,
    min => AluOp::Min,
    max => AluOp::Max,
}

macro_rules! cmp_methods {
    ($($meth:ident => $op:expr),* $(,)?) => {
        impl Expr {
            $(
                #[doc = concat!("Comparison `", stringify!($meth), "`, yielding 0 or 1.")]
                pub fn $meth(self, rhs: Expr) -> Expr {
                    Expr::Cmp($op, Box::new(self), Box::new(rhs))
                }
            )*
        }
    };
}

cmp_methods! {
    eq => CmpOp::Eq,
    ne => CmpOp::Ne,
    lt => CmpOp::Lt,
    le => CmpOp::Le,
    gt => CmpOp::Gt,
    ge => CmpOp::Ge,
}

/// Fence statements (paper Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub enum FenceSpec {
    /// `S-FENCE` — traditional fence.
    Global,
    /// `S-FENCE[class]` — must appear inside a class method.
    Class,
    /// `S-FENCE[set, {vars...}]`.
    Set(Vec<Global>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare (if absent) and assign a local.
    Let(String, Expr),
    /// Assign an existing local.
    Assign(String, Expr),
    Store(MemRef, Expr),
    Fence(FenceSpec),
    /// `dst <- CAS(mem, expected, new)`; `dst` is 1 on success.
    Cas {
        dst: String,
        mem: MemRef,
        expected: Expr,
        new: Expr,
    },
    If {
        cond: Expr,
        then_b: Block,
        else_b: Block,
    },
    While {
        cond: Expr,
        body: Block,
    },
    Loop(Block),
    Break,
    Continue,
    Call {
        routine: String,
        args: Vec<Expr>,
        ret: Option<String>,
    },
    Return(Option<Expr>),
    Halt,
}

/// A sequence of statements.
pub type Block = Vec<Stmt>;

/// Handle to a declared class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Class {
    pub(crate) idx: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct GlobalDef {
    pub name: String,
    pub len: usize,
    pub shared: bool,
    pub init: Vec<(usize, i64)>,
}

#[derive(Debug, Clone)]
pub(crate) struct Routine {
    pub class: Option<u32>,
    pub params: Vec<String>,
    pub body: Block,
}

/// A whole-machine IR program: globals, classes, routines and one body
/// per thread.
#[derive(Debug, Clone, Default)]
pub struct IrProgram {
    pub(crate) globals: Vec<GlobalDef>,
    pub(crate) class_names: Vec<String>,
    pub(crate) routines: HashMap<String, Routine>,
    pub(crate) threads: Vec<Block>,
}

impl IrProgram {
    pub fn new() -> Self {
        Self::default()
    }

    fn add_global(&mut self, name: &str, len: usize, shared: bool) -> Global {
        assert!(len > 0, "global {name:?} must have nonzero length");
        assert!(
            !self.globals.iter().any(|g| g.name == name),
            "duplicate global {name:?}"
        );
        let id = self.globals.len() as u32;
        self.globals.push(GlobalDef {
            name: name.to_string(),
            len,
            shared,
            init: Vec::new(),
        });
        Global { id }
    }

    /// Declare a private scalar global (not part of any delay set).
    pub fn global(&mut self, name: &str) -> Global {
        self.add_global(name, 1, false)
    }

    /// Declare a shared-mutable scalar global (participates in
    /// SC-enforcement delay-set classification).
    pub fn shared(&mut self, name: &str) -> Global {
        self.add_global(name, 1, true)
    }

    /// Declare a private array global of `len` words.
    pub fn array(&mut self, name: &str, len: usize) -> Global {
        self.add_global(name, len, false)
    }

    /// Declare a shared-mutable array global.
    pub fn shared_array(&mut self, name: &str, len: usize) -> Global {
        self.add_global(name, len, true)
    }

    /// Declare a private scalar padded to a full cache line (avoids
    /// false sharing with neighbouring globals; access via `.cell()`).
    /// Alignment holds as long as all previously declared globals are
    /// line-sized multiples, since layout is sequential.
    pub fn global_line(&mut self, name: &str) -> Global {
        self.add_global(name, crate::WORDS_PER_LINE, false)
    }

    /// Declare a shared scalar padded to a full cache line.
    pub fn shared_line(&mut self, name: &str) -> Global {
        self.add_global(name, crate::WORDS_PER_LINE, true)
    }

    /// Declare an *observed* location: a private, line-padded scalar
    /// named `obs_<name>` whose final value is part of the program's
    /// final state (`Program::observed_symbols`). Litmus generators
    /// store each thread's observations here; the SC reference
    /// checker and the differential runner read exactly these cells.
    pub fn observer(&mut self, name: &str) -> Global {
        let full = format!("{}{}", crate::program::OBS_PREFIX, name);
        self.add_global(&full, crate::WORDS_PER_LINE, false)
    }

    /// Declare a *shared* observed location (e.g. a contended counter
    /// whose final value is itself the observation).
    pub fn shared_observer(&mut self, name: &str) -> Global {
        let full = format!("{}{}", crate::program::OBS_PREFIX, name);
        self.add_global(&full, crate::WORDS_PER_LINE, true)
    }

    /// Set the initial value of a scalar global.
    pub fn init(&mut self, g: Global, val: i64) {
        self.init_elem(g, 0, val);
    }

    /// Set the initial value of one array element.
    pub fn init_elem(&mut self, g: Global, idx: usize, val: i64) {
        let def = &mut self.globals[g.id as usize];
        assert!(idx < def.len, "init index out of range for {}", def.name);
        def.init.push((idx, val));
    }

    /// Declare a class. Methods are registered with [`Self::method`]
    /// and called as `"ClassName::method"`.
    pub fn class(&mut self, name: &str) -> Class {
        assert!(
            !self.class_names.iter().any(|n| n == name),
            "duplicate class {name:?}"
        );
        let idx = self.class_names.len() as u32;
        self.class_names.push(name.to_string());
        Class { idx }
    }

    fn add_routine(
        &mut self,
        full_name: String,
        class: Option<u32>,
        params: &[&str],
        build: impl FnOnce(&mut BlockBuilder),
    ) {
        assert!(
            !self.routines.contains_key(&full_name),
            "duplicate routine {full_name:?}"
        );
        let mut b = BlockBuilder::new();
        build(&mut b);
        self.routines.insert(
            full_name,
            Routine {
                class,
                params: params.iter().map(|s| s.to_string()).collect(),
                body: b.stmts,
            },
        );
    }

    /// Register a free routine (not belonging to any class).
    pub fn routine(&mut self, name: &str, params: &[&str], build: impl FnOnce(&mut BlockBuilder)) {
        self.add_routine(name.to_string(), None, params, build);
    }

    /// Register a method of `class`; callable as `"Class::name"`.
    pub fn method(
        &mut self,
        class: Class,
        name: &str,
        params: &[&str],
        build: impl FnOnce(&mut BlockBuilder),
    ) {
        let full = format!("{}::{}", self.class_names[class.idx as usize], name);
        self.add_routine(full, Some(class.idx), params, build);
    }

    /// Add a thread body; returns the thread index (= core index).
    pub fn thread(&mut self, build: impl FnOnce(&mut BlockBuilder)) -> usize {
        let mut b = BlockBuilder::new();
        build(&mut b);
        let idx = self.threads.len();
        self.threads.push(b.stmts);
        idx
    }

    /// Number of threads added so far.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// All shared globals (used by the SC-enforcement pass and by
    /// set-scope helpers).
    pub fn shared_globals(&self) -> Vec<Global> {
        self.globals
            .iter()
            .enumerate()
            .filter(|(_, g)| g.shared)
            .map(|(i, _)| Global { id: i as u32 })
            .collect()
    }
}

/// Builder for a [`Block`]. Obtained from [`IrProgram::thread`],
/// [`IrProgram::routine`] / [`IrProgram::method`], or the closures of
/// the structured-control-flow methods.
#[derive(Debug, Default)]
pub struct BlockBuilder {
    pub(crate) stmts: Vec<Stmt>,
}

impl BlockBuilder {
    fn new() -> Self {
        Self { stmts: Vec::new() }
    }

    fn child(&self, build: impl FnOnce(&mut BlockBuilder)) -> Block {
        let mut b = BlockBuilder::new();
        build(&mut b);
        b.stmts
    }

    /// Declare (or re-assign) a local.
    pub fn let_(&mut self, name: &str, e: Expr) {
        self.stmts.push(Stmt::Let(name.to_string(), e));
    }

    /// Assign an existing local.
    pub fn assign(&mut self, name: &str, e: Expr) {
        self.stmts.push(Stmt::Assign(name.to_string(), e));
    }

    /// Store to memory.
    pub fn store(&mut self, m: MemRef, e: Expr) {
        self.stmts.push(Stmt::Store(m, e));
    }

    /// Traditional full fence (`S-FENCE`).
    pub fn fence(&mut self) {
        self.stmts.push(Stmt::Fence(FenceSpec::Global));
    }

    /// Class-scope fence (`S-FENCE[class]`). Only valid inside a class
    /// method; checked at compile time.
    pub fn fence_class(&mut self) {
        self.stmts.push(Stmt::Fence(FenceSpec::Class));
    }

    /// Set-scope fence (`S-FENCE[set, {vars...}]`).
    pub fn fence_set(&mut self, vars: &[Global]) {
        self.stmts.push(Stmt::Fence(FenceSpec::Set(vars.to_vec())));
    }

    /// Atomic compare-and-swap; `dst` receives 1 on success, 0 on
    /// failure.
    pub fn cas(&mut self, dst: &str, mem: MemRef, expected: Expr, new: Expr) {
        self.stmts.push(Stmt::Cas {
            dst: dst.to_string(),
            mem,
            expected,
            new,
        });
    }

    pub fn if_(&mut self, cond: Expr, then_b: impl FnOnce(&mut BlockBuilder)) {
        let then_b = self.child(then_b);
        self.stmts.push(Stmt::If {
            cond,
            then_b,
            else_b: Vec::new(),
        });
    }

    pub fn if_else(
        &mut self,
        cond: Expr,
        then_b: impl FnOnce(&mut BlockBuilder),
        else_b: impl FnOnce(&mut BlockBuilder),
    ) {
        let then_b = self.child(then_b);
        let else_b = self.child(else_b);
        self.stmts.push(Stmt::If {
            cond,
            then_b,
            else_b,
        });
    }

    pub fn while_(&mut self, cond: Expr, body: impl FnOnce(&mut BlockBuilder)) {
        let body = self.child(body);
        self.stmts.push(Stmt::While { cond, body });
    }

    /// Infinite loop; exit with [`Self::break_`].
    pub fn loop_(&mut self, body: impl FnOnce(&mut BlockBuilder)) {
        let body = self.child(body);
        self.stmts.push(Stmt::Loop(body));
    }

    pub fn break_(&mut self) {
        self.stmts.push(Stmt::Break);
    }

    pub fn continue_(&mut self) {
        self.stmts.push(Stmt::Continue);
    }

    /// Spin until `cond` becomes true (busy wait).
    pub fn spin_until(&mut self, cond: Expr) {
        self.while_(not(cond), |_| {});
    }

    /// Call a routine, discarding any return value.
    pub fn call(&mut self, routine: &str, args: &[Expr]) {
        self.stmts.push(Stmt::Call {
            routine: routine.to_string(),
            args: args.to_vec(),
            ret: None,
        });
    }

    /// Call a routine, binding its return value to local `dst`.
    pub fn call_ret(&mut self, dst: &str, routine: &str, args: &[Expr]) {
        self.stmts.push(Stmt::Call {
            routine: routine.to_string(),
            args: args.to_vec(),
            ret: Some(dst.to_string()),
        });
    }

    /// Return from the current routine.
    pub fn ret(&mut self, e: Option<Expr>) {
        self.stmts.push(Stmt::Return(e));
    }

    /// Halt this core.
    pub fn halt(&mut self) {
        self.stmts.push(Stmt::Halt);
    }

    /// Append a pre-built statement (used by IR-rewriting passes).
    pub fn push(&mut self, s: Stmt) {
        self.stmts.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_compose() {
        let e = c(1).add(l("x")).mul(c(3)).eq(c(9));
        match e {
            Expr::Cmp(CmpOp::Eq, lhs, rhs) => {
                assert!(matches!(*rhs, Expr::Const(9)));
                assert!(matches!(*lhs, Expr::Bin(AluOp::Mul, _, _)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn memref_flag_override() {
        let mut p = IrProgram::new();
        let g = p.array("a", 4);
        let m = g.at(c(2)).flagged(true);
        assert_eq!(m.flag_override, Some(true));
        assert!(g.cell().flag_override.is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate global")]
    fn duplicate_global_panics() {
        let mut p = IrProgram::new();
        p.global("x");
        p.global("x");
    }

    #[test]
    fn program_accumulates_threads_and_routines() {
        let mut p = IrProgram::new();
        let cls = p.class("Q");
        p.method(cls, "push", &["v"], |b| {
            b.ret(None);
        });
        p.routine("free", &[], |b| b.halt());
        let t = p.thread(|b| {
            b.call("Q::push", &[c(1)]);
            b.halt();
        });
        assert_eq!(t, 0);
        assert_eq!(p.num_threads(), 1);
        assert!(p.routines.contains_key("Q::push"));
        assert!(p.routines.contains_key("free"));
    }

    #[test]
    fn shared_globals_listed() {
        let mut p = IrProgram::new();
        p.global("priv");
        let s1 = p.shared("s1");
        let s2 = p.shared_array("s2", 8);
        assert_eq!(p.shared_globals(), vec![s1, s2]);
    }
}
