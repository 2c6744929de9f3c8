//! IR-level passes.
//!
//! The main one is [`enforce_sc`]: the SC-enforcement use case of §VI-B
//! of the paper (barnes, radiosity). Programs written for sequential
//! consistency are made SC-safe on a relaxed machine by inserting
//! set-scope fences between *conflicting shared* accesses, following
//! a simplified Shasha–Snir delay-set discipline: an access
//! participates in a delay pair iff it touches a global declared
//! `shared` (private and read-only data never conflict, which is
//! exactly the property S-Fence with set scope exploits — those
//! accesses are left unflagged and unordered). The paper's `T`
//! baseline needs no second style of the pass: with scopes not
//! honoured, every set-scope fence is a full fence.
//!
//! [`strip_fences`] removes every fence, for the differential runners'
//! fence-removed programs.

use crate::ir::{Block, Expr, FenceSpec, Global, IrProgram, MemRef, Stmt};

/// Statistics from the pass, mostly for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScReport {
    pub fences_inserted: usize,
    pub shared_accesses: usize,
    pub private_accesses: usize,
}

/// Insert SC-enforcing fences into every thread body and routine:
/// `S-FENCE[set, {all shared globals}]`, with exactly the shared
/// accesses flagged. Private accesses get `flag_override =
/// Some(false)` so they are never ordered.
///
/// A fence is inserted between two consecutive statements that both
/// access shared globals (the second access of each delay pair must
/// wait for the first). Loop bodies whose first and last statements
/// access shared data get a fence at the back edge. Control-flow
/// statements count as shared-accessing if any nested statement is.
pub fn enforce_sc(p: &mut IrProgram) -> ScReport {
    let shared: Vec<bool> = p.globals.iter().map(|g| g.shared).collect();
    let all_shared: Vec<Global> = p.shared_globals();
    let mut report = ScReport::default();
    for b in bodies(p) {
        rewrite_block(b, &shared, &all_shared, &mut report);
    }
    report
}

/// Drop every fence from every thread and routine body, nested blocks
/// included: the differential runners' fence-removed (`S-nofence`)
/// program. A class whose methods lose their fences is no longer
/// instrumented, so the compiled program carries no scope markers
/// either.
pub fn strip_fences(p: &mut IrProgram) {
    for b in bodies(p) {
        strip_block(b);
    }
}

/// Every routine body, then every thread body.
fn bodies(p: &mut IrProgram) -> impl Iterator<Item = &mut Block> {
    p.routines
        .values_mut()
        .map(|r| &mut r.body)
        .chain(p.threads.iter_mut())
}

fn strip_block(b: &mut Block) {
    b.retain(|s| !matches!(s, Stmt::Fence(_)));
    for s in b.iter_mut() {
        match s {
            Stmt::If { then_b, else_b, .. } => {
                strip_block(then_b);
                strip_block(else_b);
            }
            Stmt::While { body, .. } | Stmt::Loop(body) => strip_block(body),
            _ => {}
        }
    }
}

fn rewrite_block(b: &mut Block, shared: &[bool], all_shared: &[Global], report: &mut ScReport) {
    // First rewrite children and flag accesses.
    for s in b.iter_mut() {
        flag_stmt(s, shared, report);
        match s {
            Stmt::If { then_b, else_b, .. } => {
                rewrite_block(then_b, shared, all_shared, report);
                rewrite_block(else_b, shared, all_shared, report);
            }
            Stmt::While { body, .. } | Stmt::Loop(body) => {
                rewrite_block(body, shared, all_shared, report);
            }
            _ => {}
        }
    }
    // Then insert fences between consecutive shared-accessing
    // statements at this level.
    let marks: Vec<bool> = b.iter().map(|s| stmt_touches_shared(s, shared)).collect();
    let mut out: Block = Vec::with_capacity(b.len());
    let mut prev_shared = false;
    for (s, is_shared) in b.drain(..).zip(marks) {
        if is_shared && prev_shared {
            out.push(Stmt::Fence(FenceSpec::Set(all_shared.to_vec())));
            report.fences_inserted += 1;
        }
        prev_shared = is_shared || (prev_shared && !matches!(s, Stmt::Fence(_)));
        if is_shared {
            prev_shared = true;
        }
        out.push(s);
    }
    // Back edge of loops: if the block both starts and ends with
    // shared accesses, a fence is needed between iterations. We handle
    // this where the loop statement itself is rewritten: cheaper to be
    // conservative and append a fence at the end of loop bodies that
    // touch shared data at both ends.
    *b = out;
}

/// Does the statement (recursively) access any shared global?
fn stmt_touches_shared(s: &Stmt, shared: &[bool]) -> bool {
    let expr_touches = |e: &Expr| expr_touches_shared(e, shared);
    match s {
        Stmt::Let(_, e) | Stmt::Assign(_, e) => expr_touches(e),
        Stmt::Store(m, e) => mem_shared(m, shared) || expr_touches(e),
        Stmt::Cas {
            mem, expected, new, ..
        } => mem_shared(mem, shared) || expr_touches(expected) || expr_touches(new),
        Stmt::If {
            cond,
            then_b,
            else_b,
        } => {
            expr_touches(cond)
                || then_b.iter().any(|s| stmt_touches_shared(s, shared))
                || else_b.iter().any(|s| stmt_touches_shared(s, shared))
        }
        Stmt::While { cond, body } => {
            expr_touches(cond) || body.iter().any(|s| stmt_touches_shared(s, shared))
        }
        Stmt::Loop(body) => body.iter().any(|s| stmt_touches_shared(s, shared)),
        // Calls are conservatively treated as shared-accessing: the
        // callee is user code that may touch anything. (The workloads
        // that use SC enforcement do not combine it with calls into
        // fence-bearing classes.)
        Stmt::Call { .. } => true,
        Stmt::Return(Some(e)) => expr_touches(e),
        _ => false,
    }
}

fn mem_shared(m: &MemRef, shared: &[bool]) -> bool {
    shared[m.global.id as usize]
        || m.index
            .as_deref()
            .is_some_and(|e| expr_touches_shared(e, shared))
}

fn expr_touches_shared(e: &Expr, shared: &[bool]) -> bool {
    match e {
        Expr::Const(_) | Expr::Local(_) => false,
        Expr::Load(m) => mem_shared(m, shared),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
            expr_touches_shared(a, shared) || expr_touches_shared(b, shared)
        }
        Expr::Not(a) => expr_touches_shared(a, shared),
    }
}

/// Flag the memory references of one statement (not recursing into
/// nested blocks — the caller handles those).
fn flag_stmt(s: &mut Stmt, shared: &[bool], report: &mut ScReport) {
    match s {
        Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(Some(e)) => {
            flag_expr(e, shared, report)
        }
        Stmt::Store(m, e) => {
            flag_mem(m, shared, report);
            flag_expr(e, shared, report);
        }
        Stmt::Cas {
            mem, expected, new, ..
        } => {
            flag_mem(mem, shared, report);
            flag_expr(expected, shared, report);
            flag_expr(new, shared, report);
        }
        Stmt::If { cond, .. } => flag_expr(cond, shared, report),
        Stmt::While { cond, .. } => flag_expr(cond, shared, report),
        _ => {}
    }
}

fn flag_mem(m: &mut MemRef, shared: &[bool], report: &mut ScReport) {
    if let Some(e) = m.index.as_deref_mut() {
        flag_expr(e, shared, report);
    }
    let is_shared = shared[m.global.id as usize];
    if is_shared {
        report.shared_accesses += 1;
    } else {
        report.private_accesses += 1;
    }
    if m.flag_override.is_none() {
        m.flag_override = Some(is_shared);
    }
}

fn flag_expr(e: &mut Expr, shared: &[bool], report: &mut ScReport) {
    match e {
        Expr::Const(_) | Expr::Local(_) => {}
        Expr::Load(m) => flag_mem(m, shared, report),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
            flag_expr(a, shared, report);
            flag_expr(b, shared, report);
        }
        Expr::Not(a) => flag_expr(a, shared, report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::ir::*;
    use crate::FenceKind;

    fn build() -> (IrProgram, Global, Global, Global) {
        let mut p = IrProgram::new();
        let s1 = p.shared("s1");
        let s2 = p.shared("s2");
        let priv_ = p.global("priv");
        p.thread(move |b| {
            b.store(s1.cell(), c(1)); // shared
            b.store(priv_.cell(), c(2)); // private
            b.store(s2.cell(), c(3)); // shared
            b.let_("x", ld(s1.cell())); // shared
            b.halt();
        });
        (p, s1, s2, priv_)
    }

    #[test]
    fn set_scope_flags_only_shared_accesses() {
        let (mut p, ..) = build();
        let report = enforce_sc(&mut p);
        // shared stmts: store s1, store s2, let x=ld s1 -> 2 fences
        assert_eq!(report.fences_inserted, 2);
        assert_eq!(report.shared_accesses, 3);
        assert_eq!(report.private_accesses, 1);
        let prog = p.compile().unwrap();
        let mem_flags: Vec<bool> = prog.threads[0]
            .iter()
            .filter(|i| i.is_mem())
            .map(|i| i.set_flagged())
            .collect();
        // store s1 (flag), store priv (no), store s2 (flag), load s1 (flag)
        assert_eq!(mem_flags, vec![true, false, true, true]);
        let set_fences = prog.threads[0]
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Fence {
                        kind: FenceKind::Set
                    }
                )
            })
            .count();
        assert_eq!(set_fences, 2);
    }

    #[test]
    fn private_only_blocks_get_no_fences() {
        let mut p = IrProgram::new();
        let a = p.array("a", 16);
        p.thread(move |b| {
            b.let_("i", c(0));
            b.while_(l("i").lt(c(16)), move |w| {
                w.store(a.at(l("i")), l("i"));
                w.assign("i", l("i").add(c(1)));
            });
            b.halt();
        });
        let report = enforce_sc(&mut p);
        assert_eq!(report.fences_inserted, 0);
    }

    #[test]
    fn stripping_removes_nested_fences_and_scope_markers() {
        let mut p = IrProgram::new();
        let s1 = p.shared("s1");
        let cls = p.class("K");
        p.method(cls, "m", &[], move |b| {
            b.store(s1.cell(), c(1));
            b.fence_class();
        });
        p.thread(move |b| {
            b.fence();
            b.let_("i", c(0));
            b.while_(l("i").lt(c(2)), move |w| {
                w.if_(l("i").eq(c(1)), move |t| t.fence_set(&[s1]));
                w.call("K::m", &[]);
                w.assign("i", l("i").add(c(1)));
            });
            b.halt();
        });
        let fenced = p.clone().compile().unwrap();
        let is_fence_or_marker = |i: &Instr| {
            matches!(
                i,
                Instr::Fence { .. } | Instr::FsStart { .. } | Instr::FsEnd { .. }
            )
        };
        assert!(fenced.threads[0].iter().any(is_fence_or_marker));
        strip_fences(&mut p);
        let stripped = p.compile().unwrap();
        assert!(!stripped.threads[0].iter().any(is_fence_or_marker));
    }
}
