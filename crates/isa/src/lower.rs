//! The compiler: IR → linear ISA.
//!
//! Responsibilities, mirroring §IV-A-1 and §V-A-1 of the paper:
//!
//! 1. **Inlining.** The ISA has no call instruction; every [`Stmt::Call`]
//!    is inlined at its call site (recursion is rejected). Inlining
//!    preserves the dynamic nesting of class scopes because the scope
//!    markers are emitted around the inlined body.
//! 2. **Class-scope instrumentation.** A class is *instrumented* iff
//!    any of its methods contains an `S-FENCE[class]`. For every call
//!    to a method of an instrumented class the compiler emits
//!    `fs_start cid` at the entry and `fs_end cid` at *each* exit
//!    (every `return` path and the fallthrough), exactly as the paper
//!    prescribes for public functions.
//! 3. **Set-scope flagging.** The union of all variables named by
//!    set-scope fences is computed, and every memory instruction whose
//!    target global is in that union gets its `set_flagged` bit set
//!    (the paper's single shared set-scope FSB column means sets of
//!    different fences are not differentiated). An explicit
//!    [`MemRef::flagged`] override wins — the SC-enforcement pass uses
//!    it to flag exactly the delay-set accesses.
//! 4. **Register allocation.** Locals live in architectural registers,
//!    allocated with a per-frame watermark; expression temporaries are
//!    allocated above the watermark and recycled per statement.

use crate::instr::{Addr, ClassId, CmpOp, Instr, Operand, Reg, NUM_REGS};

/// Registers `0..TEMP_BASE` hold locals (allocated upward, per frame);
/// registers `TEMP_BASE..NUM_REGS` hold expression temporaries
/// (allocated upward from `TEMP_BASE`, reset at every statement).
/// Temporaries never need to outlive their statement: loop conditions
/// are re-evaluated at the loop head, so reusing their registers inside
/// the body is safe.
const TEMP_BASE: u8 = 96;
use crate::ir::{Block, Expr, FenceSpec, IrProgram, MemRef, Stmt};
use crate::program::{Program, Symbol};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Base address of the data segment (word address). Leaving a guard
/// gap at address 0 helps catch stray null-ish accesses.
const DATA_BASE: Addr = 8;

/// Compile-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    UnknownRoutine(String),
    UnknownLocal(String),
    Recursion(String),
    ClassFenceOutsideClass,
    BreakOutsideLoop,
    ContinueOutsideLoop,
    ReturnOutsideRoutine,
    ArgCount {
        routine: String,
        expected: usize,
        got: usize,
    },
    OutOfRegisters,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownRoutine(n) => write!(f, "unknown routine {n:?}"),
            CompileError::UnknownLocal(n) => write!(f, "unknown local {n:?}"),
            CompileError::Recursion(n) => write!(
                f,
                "recursive call to {n:?} (calls are inlined; recursion is not supported)"
            ),
            CompileError::ClassFenceOutsideClass => {
                write!(f, "S-FENCE[class] used outside a class method")
            }
            CompileError::BreakOutsideLoop => write!(f, "break outside loop"),
            CompileError::ContinueOutsideLoop => write!(f, "continue outside loop"),
            CompileError::ReturnOutsideRoutine => write!(f, "return outside routine"),
            CompileError::ArgCount {
                routine,
                expected,
                got,
            } => write!(
                f,
                "call to {routine:?}: expected {expected} args, got {got}"
            ),
            CompileError::OutOfRegisters => write!(
                f,
                "out of registers (programs are limited to {NUM_REGS} live locals+temps)"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl IrProgram {
    /// Compile this IR program to machine code.
    pub fn compile(&self) -> Result<Program, CompileError> {
        // Data layout.
        let mut addr = DATA_BASE;
        let mut global_addr = Vec::with_capacity(self.globals.len());
        let mut prog = Program::new();
        for g in &self.globals {
            global_addr.push(addr);
            prog.add_symbol(Symbol {
                name: g.name.clone(),
                addr,
                len: g.len,
                shared: g.shared,
            });
            for &(idx, val) in &g.init {
                prog.data_init.push((addr + idx, val));
            }
            addr += g.len;
        }
        prog.data_size = addr;
        prog.class_names = self.class_names.clone();

        // Which classes are instrumented (contain class-scope fences)?
        let mut instrumented: HashSet<u32> = HashSet::new();
        for r in self.routines.values() {
            if let Some(class) = r.class {
                if block_has_class_fence(&r.body) {
                    instrumented.insert(class);
                }
            }
        }

        // Union of set-scope variables across the whole program
        // (paper §V-A-2: set scopes of different fences share one FSB
        // column and are not differentiated).
        let mut set_union: HashSet<u32> = HashSet::new();
        for r in self.routines.values() {
            collect_set_vars(&r.body, &mut set_union);
        }
        for t in &self.threads {
            collect_set_vars(t, &mut set_union);
        }

        for body in &self.threads {
            let mut lw = Lower {
                ir: self,
                instrumented: &instrumented,
                global_addr: &global_addr,
                code: Vec::new(),
                labels: Vec::new(),
                patches: Vec::new(),
                frames: vec![Frame {
                    locals: HashMap::new(),
                    saved_watermark: 0,
                    exit: None,
                    class: None,
                    loop_base: 0,
                }],
                watermark: 0,
                loop_stack: Vec::new(),
                call_stack: Vec::new(),
                mem_globals: Vec::new(),
            };
            lw.block(body)?;
            lw.emit(Instr::Halt);
            lw.resolve_patches();
            let mut code = lw.code;
            // Set-scope flagging pass.
            for (pc, gid, over) in lw.mem_globals {
                let flag = over.unwrap_or_else(|| set_union.contains(&gid));
                if let Some(slot) = code[pc].set_flagged_mut() {
                    *slot = flag;
                }
            }
            prog.threads.push(code);
        }
        debug_assert!(prog.validate().is_ok(), "compiler produced invalid program");
        Ok(prog)
    }
}

fn block_has_class_fence(b: &Block) -> bool {
    b.iter().any(|s| match s {
        Stmt::Fence(FenceSpec::Class) => true,
        Stmt::If { then_b, else_b, .. } => {
            block_has_class_fence(then_b) || block_has_class_fence(else_b)
        }
        Stmt::While { body, .. } | Stmt::Loop(body) => block_has_class_fence(body),
        _ => false,
    })
}

fn collect_set_vars(b: &Block, out: &mut HashSet<u32>) {
    for s in b {
        match s {
            Stmt::Fence(FenceSpec::Set(vars)) => out.extend(vars.iter().map(|g| g.id)),
            Stmt::If { then_b, else_b, .. } => {
                collect_set_vars(then_b, out);
                collect_set_vars(else_b, out);
            }
            Stmt::While { body, .. } | Stmt::Loop(body) => collect_set_vars(body, out),
            _ => {}
        }
    }
}

type LabelId = usize;

struct Frame {
    locals: HashMap<String, Reg>,
    saved_watermark: u8,
    /// For inlined routine frames: (exit label, return-value register,
    /// fs_end cid to emit on each exit).
    exit: Option<(LabelId, Option<Reg>, Option<ClassId>)>,
    class: Option<u32>,
    /// Loop-stack depth at frame entry; `break`/`continue` may not
    /// escape an inlined routine.
    loop_base: usize,
}

struct Lower<'a> {
    ir: &'a IrProgram,
    instrumented: &'a HashSet<u32>,
    global_addr: &'a [Addr],
    code: Vec<Instr>,
    labels: Vec<Option<usize>>,
    patches: Vec<(usize, LabelId)>,
    frames: Vec<Frame>,
    watermark: u8,
    loop_stack: Vec<(LabelId, LabelId)>,
    call_stack: Vec<String>,
    /// (pc, global id, flag override) for every memory instruction;
    /// consumed by the set-scope flagging pass after lowering.
    mem_globals: Vec<(usize, u32, Option<bool>)>,
}

impl<'a> Lower<'a> {
    fn emit(&mut self, i: Instr) -> usize {
        self.code.push(i);
        self.code.len() - 1
    }

    fn label(&mut self) -> LabelId {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, l: LabelId) {
        debug_assert!(self.labels[l].is_none(), "label bound twice");
        self.labels[l] = Some(self.code.len());
    }

    fn emit_jump(&mut self, l: LabelId) {
        let pc = self.emit(Instr::Jump { target: usize::MAX });
        self.patches.push((pc, l));
    }

    fn emit_branch(&mut self, op: CmpOp, a: Operand, b: Operand, l: LabelId) {
        let pc = self.emit(Instr::Branch {
            op,
            a,
            b,
            target: usize::MAX,
        });
        self.patches.push((pc, l));
    }

    fn resolve_patches(&mut self) {
        for &(pc, l) in &self.patches {
            let target = self.labels[l].expect("unbound label");
            match &mut self.code[pc] {
                Instr::Branch { target: t, .. } | Instr::Jump { target: t } => *t = target,
                other => unreachable!("patch on non-branch {other:?}"),
            }
        }
    }

    fn alloc_reg(&mut self, temps: &mut u8) -> Result<Reg, CompileError> {
        let r = *temps;
        if (r as usize) >= NUM_REGS {
            return Err(CompileError::OutOfRegisters);
        }
        *temps += 1;
        Ok(Reg(r))
    }

    /// Fresh temporary pool for one statement.
    fn temp_pool(&self) -> u8 {
        TEMP_BASE
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("frame stack empty")
    }

    fn lookup_local(&self, name: &str) -> Result<Reg, CompileError> {
        self.frames
            .last()
            .and_then(|f| f.locals.get(name).copied())
            .ok_or_else(|| CompileError::UnknownLocal(name.to_string()))
    }

    /// Declare a local at the watermark (persistent for the frame).
    fn declare_local(&mut self, name: &str) -> Result<Reg, CompileError> {
        if let Some(&r) = self.frames.last().unwrap().locals.get(name) {
            return Ok(r);
        }
        let r = self.watermark;
        if r >= TEMP_BASE {
            return Err(CompileError::OutOfRegisters);
        }
        self.watermark += 1;
        self.frame().locals.insert(name.to_string(), Reg(r));
        Ok(Reg(r))
    }

    /// Evaluate an expression; temporaries are allocated from `temps`.
    fn eval(&mut self, e: &Expr, temps: &mut u8) -> Result<Operand, CompileError> {
        Ok(match e {
            Expr::Const(v) => Operand::Imm(*v),
            Expr::Local(name) => Operand::Reg(self.lookup_local(name)?),
            Expr::Load(m) => {
                let (base, offset, gid, over) = self.eval_mem(m, temps)?;
                let rd = self.alloc_reg(temps)?;
                let pc = self.emit(Instr::Load {
                    rd,
                    base,
                    offset,
                    set_flagged: false,
                });
                self.mem_globals.push((pc, gid, over));
                Operand::Reg(rd)
            }
            Expr::Bin(op, a, b) => {
                let ea = self.eval(a, temps)?;
                let eb = self.eval(b, temps)?;
                if let (Operand::Imm(x), Operand::Imm(y)) = (ea, eb) {
                    return Ok(Operand::Imm(op.apply(x, y))); // constant fold
                }
                let rd = self.alloc_reg(temps)?;
                self.emit(Instr::Alu {
                    op: *op,
                    rd,
                    a: ea,
                    b: eb,
                });
                Operand::Reg(rd)
            }
            Expr::Cmp(op, a, b) => {
                let ea = self.eval(a, temps)?;
                let eb = self.eval(b, temps)?;
                if let (Operand::Imm(x), Operand::Imm(y)) = (ea, eb) {
                    return Ok(Operand::Imm(op.apply(x, y) as i64));
                }
                let rd = self.alloc_reg(temps)?;
                self.emit(Instr::Cmp {
                    op: *op,
                    rd,
                    a: ea,
                    b: eb,
                });
                Operand::Reg(rd)
            }
            Expr::Not(a) => {
                let ea = self.eval(a, temps)?;
                if let Operand::Imm(x) = ea {
                    return Ok(Operand::Imm((x == 0) as i64));
                }
                let rd = self.alloc_reg(temps)?;
                self.emit(Instr::Cmp {
                    op: CmpOp::Eq,
                    rd,
                    a: ea,
                    b: Operand::Imm(0),
                });
                Operand::Reg(rd)
            }
        })
    }

    /// Evaluate the address parts of a memory reference.
    fn eval_mem(
        &mut self,
        m: &MemRef,
        temps: &mut u8,
    ) -> Result<(Operand, i64, u32, Option<bool>), CompileError> {
        let gaddr = self.global_addr[m.global.id as usize] as i64;
        let base = match &m.index {
            None => Operand::Imm(0),
            Some(e) => self.eval(e, temps)?,
        };
        Ok((base, gaddr, m.global.id, m.flag_override))
    }

    /// Emit a branch to `l` taken when `cond` is **false**.
    fn branch_if_false(
        &mut self,
        cond: &Expr,
        l: LabelId,
        temps: &mut u8,
    ) -> Result<(), CompileError> {
        match cond {
            Expr::Cmp(op, a, b) => {
                let ea = self.eval(a, temps)?;
                let eb = self.eval(b, temps)?;
                self.emit_branch(op.negate(), ea, eb, l);
            }
            Expr::Not(inner) => self.branch_if_true(inner, l, temps)?,
            Expr::Const(v) => {
                if *v == 0 {
                    self.emit_jump(l);
                }
            }
            _ => {
                let e = self.eval(cond, temps)?;
                self.emit_branch(CmpOp::Eq, e, Operand::Imm(0), l);
            }
        }
        Ok(())
    }

    /// Emit a branch to `l` taken when `cond` is **true**.
    fn branch_if_true(
        &mut self,
        cond: &Expr,
        l: LabelId,
        temps: &mut u8,
    ) -> Result<(), CompileError> {
        match cond {
            Expr::Cmp(op, a, b) => {
                let ea = self.eval(a, temps)?;
                let eb = self.eval(b, temps)?;
                self.emit_branch(*op, ea, eb, l);
            }
            Expr::Not(inner) => self.branch_if_false(inner, l, temps)?,
            Expr::Const(v) => {
                if *v != 0 {
                    self.emit_jump(l);
                }
            }
            _ => {
                let e = self.eval(cond, temps)?;
                self.emit_branch(CmpOp::Ne, e, Operand::Imm(0), l);
            }
        }
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<(), CompileError> {
        for s in b {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        let mut temps = self.temp_pool();
        match s {
            Stmt::Let(name, e) => {
                let v = self.eval(e, &mut temps)?;
                let rd = self.declare_local(name)?;
                if v != Operand::Reg(rd) {
                    self.emit(Instr::Mov { rd, a: v });
                }
            }
            Stmt::Assign(name, e) => {
                let v = self.eval(e, &mut temps)?;
                let rd = self.lookup_local(name)?;
                if v != Operand::Reg(rd) {
                    self.emit(Instr::Mov { rd, a: v });
                }
            }
            Stmt::Store(m, e) => {
                let (base, offset, gid, over) = self.eval_mem(m, &mut temps)?;
                let src = self.eval(e, &mut temps)?;
                let pc = self.emit(Instr::Store {
                    src,
                    base,
                    offset,
                    set_flagged: false,
                });
                self.mem_globals.push((pc, gid, over));
            }
            Stmt::Fence(spec) => {
                let kind = match spec {
                    FenceSpec::Global => crate::FenceKind::Global,
                    FenceSpec::Class => {
                        if self.frames.last().unwrap().class.is_none() {
                            return Err(CompileError::ClassFenceOutsideClass);
                        }
                        crate::FenceKind::Class
                    }
                    FenceSpec::Set(_) => crate::FenceKind::Set,
                };
                self.emit(Instr::Fence { kind });
            }
            Stmt::Cas {
                dst,
                mem,
                expected,
                new,
            } => {
                let (base, offset, gid, over) = self.eval_mem(mem, &mut temps)?;
                let ee = self.eval(expected, &mut temps)?;
                let en = self.eval(new, &mut temps)?;
                let rd = self.declare_local(dst)?;
                let pc = self.emit(Instr::Cas {
                    rd,
                    base,
                    offset,
                    expected: ee,
                    new: en,
                    set_flagged: false,
                });
                self.mem_globals.push((pc, gid, over));
            }
            Stmt::If {
                cond,
                then_b,
                else_b,
            } => {
                if else_b.is_empty() {
                    let l_end = self.label();
                    self.branch_if_false(cond, l_end, &mut temps)?;
                    self.block(then_b)?;
                    self.bind(l_end);
                } else {
                    let l_else = self.label();
                    let l_end = self.label();
                    self.branch_if_false(cond, l_else, &mut temps)?;
                    self.block(then_b)?;
                    self.emit_jump(l_end);
                    self.bind(l_else);
                    self.block(else_b)?;
                    self.bind(l_end);
                }
            }
            Stmt::While { cond, body } => {
                let l_cont = self.label();
                let l_brk = self.label();
                self.bind(l_cont);
                self.branch_if_false(cond, l_brk, &mut temps)?;
                self.loop_stack.push((l_cont, l_brk));
                self.block(body)?;
                self.loop_stack.pop();
                self.emit_jump(l_cont);
                self.bind(l_brk);
            }
            Stmt::Loop(body) => {
                let l_cont = self.label();
                let l_brk = self.label();
                self.bind(l_cont);
                self.loop_stack.push((l_cont, l_brk));
                self.block(body)?;
                self.loop_stack.pop();
                self.emit_jump(l_cont);
                self.bind(l_brk);
            }
            Stmt::Break => {
                let base = self.frames.last().unwrap().loop_base;
                if self.loop_stack.len() <= base {
                    return Err(CompileError::BreakOutsideLoop);
                }
                let (_, l_brk) = *self.loop_stack.last().unwrap();
                self.emit_jump(l_brk);
            }
            Stmt::Continue => {
                let base = self.frames.last().unwrap().loop_base;
                if self.loop_stack.len() <= base {
                    return Err(CompileError::ContinueOutsideLoop);
                }
                let (l_cont, _) = *self.loop_stack.last().unwrap();
                self.emit_jump(l_cont);
            }
            Stmt::Call { routine, args, ret } => self.call(routine, args, ret.as_deref())?,
            Stmt::Return(e) => {
                let (exit, ret_reg, fs_end) = match self.frames.last().unwrap().exit {
                    Some(x) => x,
                    None => return Err(CompileError::ReturnOutsideRoutine),
                };
                if let Some(e) = e {
                    let v = self.eval(e, &mut temps)?;
                    if let Some(rd) = ret_reg {
                        if v != Operand::Reg(rd) {
                            self.emit(Instr::Mov { rd, a: v });
                        }
                    }
                }
                if let Some(cid) = fs_end {
                    self.emit(Instr::FsEnd { cid });
                }
                self.emit_jump(exit);
            }
            Stmt::Halt => {
                self.emit(Instr::Halt);
            }
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr], ret: Option<&str>) -> Result<(), CompileError> {
        let routine = self
            .ir
            .routines
            .get(name)
            .ok_or_else(|| CompileError::UnknownRoutine(name.to_string()))?;
        if self.call_stack.iter().any(|n| n == name) {
            return Err(CompileError::Recursion(name.to_string()));
        }
        if routine.params.len() != args.len() {
            return Err(CompileError::ArgCount {
                routine: name.to_string(),
                expected: routine.params.len(),
                got: args.len(),
            });
        }

        // Return register lives in the caller's frame.
        let ret_reg = match ret {
            Some(dst) => Some(self.declare_local(dst)?),
            None => None,
        };

        // Evaluate arguments in the caller's frame. Argument values sit
        // in temporaries (or caller locals/immediates) until the
        // parameter-binding moves right below; nothing in between
        // allocates temporaries, so they stay live long enough.
        let saved_watermark = self.watermark;
        let mut temps = self.temp_pool();
        let mut arg_vals = Vec::with_capacity(args.len());
        for a in args {
            arg_vals.push(self.eval(a, &mut temps)?);
        }

        let instrument = routine
            .class
            .filter(|c| self.instrumented.contains(c))
            .map(ClassId);

        let exit = self.label();
        let mut frame = Frame {
            locals: HashMap::new(),
            saved_watermark,
            exit: Some((exit, ret_reg, instrument)),
            class: routine.class,
            loop_base: self.loop_stack.len(),
        };
        // Bind parameters.
        let params = routine.params.clone();
        self.frames.push(frame);
        for (p, v) in params.iter().zip(arg_vals) {
            let rd = self.declare_local(p)?;
            if v != Operand::Reg(rd) {
                self.emit(Instr::Mov { rd, a: v });
            }
        }

        if let Some(cid) = instrument {
            self.emit(Instr::FsStart { cid });
        }
        self.call_stack.push(name.to_string());
        let body = routine.body.clone();
        self.block(&body)?;
        self.call_stack.pop();
        if let Some(cid) = instrument {
            self.emit(Instr::FsEnd { cid });
        }
        self.bind(exit);
        frame = self.frames.pop().unwrap();
        self.watermark = frame.saved_watermark;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::*;
    use crate::FenceKind;

    fn compile(p: &IrProgram) -> Program {
        p.compile().expect("compile")
    }

    #[test]
    fn straight_line_lowering() {
        let mut p = IrProgram::new();
        let x = p.global("x");
        p.thread(|b| {
            b.let_("a", c(2).add(c(3))); // folds to 5
            b.store(x.cell(), l("a").mul(c(4)));
            b.halt();
        });
        let prog = compile(&p);
        assert!(prog.validate().is_ok());
        // constant folding happened: no Alu for 2+3
        let adds = prog.threads[0]
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Alu {
                        op: crate::AluOp::Add,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(adds, 0);
    }

    #[test]
    fn class_instrumentation_wraps_calls() {
        let mut p = IrProgram::new();
        let g = p.shared("g");
        let cls = p.class("Q");
        p.method(cls, "op", &[], |b| {
            b.store(g.cell(), c(1));
            b.fence_class();
            b.store(g.cell(), c(2));
        });
        p.thread(|b| {
            b.call("Q::op", &[]);
            b.halt();
        });
        let prog = compile(&p);
        let code = &prog.threads[0];
        let starts: Vec<usize> = code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::FsStart { .. }))
            .map(|(pc, _)| pc)
            .collect();
        let ends: Vec<usize> = code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::FsEnd { .. }))
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(starts.len(), 1);
        assert_eq!(ends.len(), 1);
        let fence_pc = code
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Instr::Fence {
                        kind: FenceKind::Class
                    }
                )
            })
            .unwrap();
        assert!(starts[0] < fence_pc && fence_pc < ends[0]);
    }

    #[test]
    fn uninstrumented_class_has_no_markers() {
        let mut p = IrProgram::new();
        let g = p.global("g");
        let cls = p.class("Plain");
        p.method(cls, "op", &[], |b| {
            b.store(g.cell(), c(1));
        });
        p.thread(|b| {
            b.call("Plain::op", &[]);
            b.halt();
        });
        let prog = compile(&p);
        assert!(!prog.threads[0]
            .iter()
            .any(|i| matches!(i, Instr::FsStart { .. } | Instr::FsEnd { .. })));
    }

    #[test]
    fn every_return_path_gets_fs_end() {
        let mut p = IrProgram::new();
        let g = p.shared("g");
        let cls = p.class("Q");
        p.method(cls, "op", &["v"], |b| {
            b.fence_class();
            b.if_(l("v").eq(c(0)), |t| {
                t.ret(Some(c(-1)));
            });
            b.store(g.cell(), l("v"));
            b.ret(Some(c(1)));
        });
        p.thread(|b| {
            b.call_ret("r", "Q::op", &[c(5)]);
            b.halt();
        });
        let prog = compile(&p);
        let ends = prog.threads[0]
            .iter()
            .filter(|i| matches!(i, Instr::FsEnd { .. }))
            .count();
        // one per return + one fallthrough
        assert_eq!(ends, 3);
    }

    #[test]
    fn set_scope_flags_accesses_to_named_vars() {
        let mut p = IrProgram::new();
        let flag0 = p.shared("flag0");
        let flag1 = p.shared("flag1");
        let m = p.global("m");
        p.thread(|b| {
            b.store(m.cell(), c(1)); // not flagged
            b.store(flag0.cell(), c(1)); // flagged
            b.fence_set(&[flag0, flag1]);
            b.let_("x", ld(flag1.cell())); // flagged
            b.halt();
        });
        let prog = compile(&p);
        let flags: Vec<bool> = prog.threads[0]
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| i.set_flagged())
            .collect();
        assert_eq!(flags, vec![false, true, true]);
    }

    #[test]
    fn flag_override_wins() {
        let mut p = IrProgram::new();
        let a = p.shared("a");
        let b_ = p.shared("b");
        p.thread(|bb| {
            bb.store(a.cell().flagged(false), c(1)); // suppressed
            bb.store(b_.cell().flagged(true), c(1)); // forced (not in any set)
            bb.fence_set(&[a]);
            bb.halt();
        });
        let prog = compile(&p);
        let flags: Vec<bool> = prog.threads[0]
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| i.set_flagged())
            .collect();
        assert_eq!(flags, vec![false, true]);
    }

    #[test]
    fn recursion_rejected() {
        let mut p = IrProgram::new();
        p.routine("f", &[], |b| {
            b.call("f", &[]);
        });
        p.thread(|b| {
            b.call("f", &[]);
            b.halt();
        });
        assert_eq!(
            p.compile().unwrap_err(),
            CompileError::Recursion("f".into())
        );
    }

    #[test]
    fn class_fence_outside_class_rejected() {
        let mut p = IrProgram::new();
        p.thread(|b| {
            b.fence_class();
            b.halt();
        });
        assert_eq!(
            p.compile().unwrap_err(),
            CompileError::ClassFenceOutsideClass
        );
    }

    #[test]
    fn break_outside_loop_rejected() {
        let mut p = IrProgram::new();
        p.thread(|b| b.break_());
        assert_eq!(p.compile().unwrap_err(), CompileError::BreakOutsideLoop);
    }

    #[test]
    fn break_cannot_escape_inlined_routine() {
        let mut p = IrProgram::new();
        p.routine("inner", &[], |b| b.break_());
        p.thread(|b| {
            b.loop_(|lb| {
                lb.call("inner", &[]);
                lb.break_();
            });
            b.halt();
        });
        assert_eq!(p.compile().unwrap_err(), CompileError::BreakOutsideLoop);
    }

    #[test]
    fn arg_count_checked() {
        let mut p = IrProgram::new();
        p.routine("f", &["a", "b"], |_| {});
        p.thread(|b| {
            b.call("f", &[c(1)]);
            b.halt();
        });
        assert!(matches!(
            p.compile().unwrap_err(),
            CompileError::ArgCount {
                expected: 2,
                got: 1,
                ..
            }
        ));
    }

    #[test]
    fn nested_class_scopes_nest_markers() {
        let mut p = IrProgram::new();
        let ga = p.shared("ga");
        let gb = p.shared("gb");
        let ca = p.class("A");
        let cb = p.class("B");
        p.method(cb, "fb", &[], |b| {
            b.store(gb.cell(), c(1));
            b.fence_class();
        });
        p.method(ca, "fa", &[], |b| {
            b.call("B::fb", &[]);
            b.fence_class();
            b.store(ga.cell(), c(2));
        });
        p.thread(|b| {
            b.call("A::fa", &[]);
            b.halt();
        });
        let prog = compile(&p);
        // Expect fs_start A ... fs_start B ... fs_end B ... fs_end A
        let seq: Vec<String> = prog.threads[0]
            .iter()
            .filter_map(|i| match i {
                Instr::FsStart { cid } => Some(format!("s{}", cid.0)),
                Instr::FsEnd { cid } => Some(format!("e{}", cid.0)),
                _ => None,
            })
            .collect();
        assert_eq!(seq, vec!["s0", "s1", "e1", "e0"]);
    }

    #[test]
    fn while_and_if_control_flow() {
        let mut p = IrProgram::new();
        let out = p.global("out");
        p.thread(|b| {
            b.let_("i", c(0));
            b.let_("sum", c(0));
            b.while_(l("i").lt(c(5)), |w| {
                w.if_else(
                    l("i").rem(c(2)).eq(c(0)),
                    |t| t.assign("sum", l("sum").add(l("i"))),
                    |e| e.assign("sum", l("sum").sub(c(1))),
                );
                w.assign("i", l("i").add(c(1)));
            });
            b.store(out.cell(), l("sum"));
            b.halt();
        });
        let prog = compile(&p);
        assert!(prog.validate().is_ok());
        // Executed later by the interpreter tests; here just shape.
        assert!(prog.threads[0].len() > 5);
    }
}
