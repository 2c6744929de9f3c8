//! The trace conformance checker for the class-scope semantics of
//! paper Fig. 5.
//!
//! The paper defines class scope with four inference rules over the
//! state `<FSeq, Scope, pc>`:
//!
//! - **SCOPEENT** / **SCOPEEX**: entering/leaving a method appends to /
//!   removes from the method sequence `FSeq`;
//! - **MEMOP**: a memory operation is added to `Scope(C(f))` for every
//!   method `f` currently in `FSeq`;
//! - **FENCE**: a fence may complete only when `Scope(C(f))` of the
//!   enclosing method is empty.
//!
//! [`check_trace`] applies these rules to a *hardware* execution and
//! verifies it against the S-Fence definition: for every retired
//! fence, every prior in-scope memory access must have completed no
//! later than the cycle at which the fence allowed issue to resume. The hardware is allowed to be more
//! conservative (e.g. shared fallback columns), never less.

use sfence_isa::{ClassId, FenceKind};
use std::collections::{HashMap, HashSet};

/// One retired (architectural) event of a single thread, in program
/// order. Squashed wrong-path instructions never appear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetiredEvent {
    FsStart(ClassId),
    FsEnd,
    /// A memory access with its issue and completion cycles.
    Mem {
        id: u64,
        flagged: bool,
        issue: u64,
        complete: u64,
    },
    /// A fence and the cycle at which it allowed younger instructions
    /// to issue.
    Fence {
        kind: FenceKind,
        issue: u64,
    },
}

/// A conformance violation: a fence let execution proceed before an
/// in-scope prior access completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub event_index: usize,
    pub kind: FenceKind,
    pub fence_issue: u64,
    pub latest_in_scope_complete: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fence ({:?}) at event {} issued at cycle {} but an in-scope access completed at {}",
            self.kind, self.event_index, self.fence_issue, self.latest_in_scope_complete
        )
    }
}

/// Summary statistics from a successful conformance check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConformanceStats {
    pub mem_ops: u64,
    pub fences_checked: u64,
    pub max_scope_depth: usize,
}

/// Check one thread's retired trace against the S-Fence semantics.
///
/// For each fence, the set of *prior in-scope* accesses is derived
/// from the Fig. 5 rules (class), the flag bits (set), or everything
/// (global); the check is `max(complete of in-scope prior) <= issue`.
pub fn check_trace(events: &[RetiredEvent]) -> Result<ConformanceStats, Violation> {
    let mut stats = ConformanceStats::default();
    let mut fseq: Vec<ClassId> = Vec::new();
    // Running maxima of completion cycles.
    let mut max_all: u64 = 0;
    let mut max_flagged: u64 = 0;
    let mut max_per_class: HashMap<ClassId, u64> = HashMap::new();

    for (i, ev) in events.iter().enumerate() {
        match *ev {
            RetiredEvent::FsStart(cid) => {
                fseq.push(cid);
                stats.max_scope_depth = stats.max_scope_depth.max(fseq.len());
            }
            RetiredEvent::FsEnd => {
                fseq.pop();
            }
            RetiredEvent::Mem {
                flagged, complete, ..
            } => {
                stats.mem_ops += 1;
                max_all = max_all.max(complete);
                if flagged {
                    max_flagged = max_flagged.max(complete);
                }
                let mut seen: HashSet<ClassId> = HashSet::new();
                for &cid in &fseq {
                    if seen.insert(cid) {
                        let slot = max_per_class.entry(cid).or_insert(0);
                        *slot = (*slot).max(complete);
                    }
                }
            }
            RetiredEvent::Fence { kind, issue } => {
                stats.fences_checked += 1;
                let bound = match kind {
                    FenceKind::Global => max_all,
                    FenceKind::Set => max_flagged,
                    FenceKind::Class => match fseq.last() {
                        Some(cid) => max_per_class.get(cid).copied().unwrap_or(0),
                        // Class fence outside any scope: hardware
                        // degrades to a full fence; the semantic scope
                        // is empty, so nothing to check.
                        None => 0,
                    },
                };
                if bound > issue {
                    return Err(Violation {
                        event_index: i,
                        kind,
                        fence_issue: issue,
                        latest_in_scope_complete: bound,
                    });
                }
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_check_accepts_correct_class_fence() {
        let a = ClassId(0);
        let events = [
            RetiredEvent::FsStart(a),
            RetiredEvent::Mem {
                id: 1,
                flagged: false,
                issue: 10,
                complete: 50,
            },
            RetiredEvent::Fence {
                kind: FenceKind::Class,
                issue: 50,
            },
            RetiredEvent::FsEnd,
        ];
        let stats = check_trace(&events).expect("conformant");
        assert_eq!(stats.fences_checked, 1);
        assert_eq!(stats.mem_ops, 1);
        assert_eq!(stats.max_scope_depth, 1);
    }

    #[test]
    fn trace_check_rejects_early_class_fence() {
        let a = ClassId(0);
        let events = [
            RetiredEvent::FsStart(a),
            RetiredEvent::Mem {
                id: 1,
                flagged: false,
                issue: 10,
                complete: 100,
            },
            RetiredEvent::Fence {
                kind: FenceKind::Class,
                issue: 60, // before completion at 100!
            },
            RetiredEvent::FsEnd,
        ];
        let v = check_trace(&events).unwrap_err();
        assert_eq!(v.latest_in_scope_complete, 100);
        assert_eq!(v.fence_issue, 60);
    }

    #[test]
    fn out_of_scope_ops_do_not_constrain_class_fence() {
        let a = ClassId(0);
        let events = [
            // Slow access *outside* the class scope:
            RetiredEvent::Mem {
                id: 1,
                flagged: false,
                issue: 0,
                complete: 1000,
            },
            RetiredEvent::FsStart(a),
            RetiredEvent::Mem {
                id: 2,
                flagged: false,
                issue: 5,
                complete: 20,
            },
            RetiredEvent::Fence {
                kind: FenceKind::Class,
                issue: 20, // fine: op 1 is out of scope
            },
            RetiredEvent::FsEnd,
        ];
        assert!(check_trace(&events).is_ok());
        // The same trace with a *global* fence violates:
        let mut g = events.to_vec();
        g[3] = RetiredEvent::Fence {
            kind: FenceKind::Global,
            issue: 20,
        };
        assert!(check_trace(&g).is_err());
    }

    #[test]
    fn set_fence_constrained_only_by_flagged_ops() {
        let events = [
            RetiredEvent::Mem {
                id: 1,
                flagged: false,
                issue: 0,
                complete: 500,
            },
            RetiredEvent::Mem {
                id: 2,
                flagged: true,
                issue: 0,
                complete: 30,
            },
            RetiredEvent::Fence {
                kind: FenceKind::Set,
                issue: 30,
            },
        ];
        assert!(check_trace(&events).is_ok());
        let mut bad = events.to_vec();
        bad[1] = RetiredEvent::Mem {
            id: 2,
            flagged: true,
            issue: 0,
            complete: 31,
        };
        assert!(check_trace(&bad).is_err());
    }

    #[test]
    fn nested_scopes_inner_fence_ignores_outer_only_ops() {
        let a = ClassId(0);
        let b = ClassId(1);
        let events = [
            RetiredEvent::FsStart(a),
            RetiredEvent::Mem {
                id: 1,
                flagged: false,
                issue: 0,
                complete: 900,
            }, // in A only
            RetiredEvent::FsStart(b),
            RetiredEvent::Mem {
                id: 2,
                flagged: false,
                issue: 0,
                complete: 10,
            }, // in A and B
            RetiredEvent::Fence {
                kind: FenceKind::Class,
                issue: 10,
            }, // B's fence: ok
            RetiredEvent::FsEnd,
            RetiredEvent::Fence {
                kind: FenceKind::Class,
                issue: 10,
            }, // A's fence: op 1 incomplete -> violation
        ];
        let v = check_trace(&events).unwrap_err();
        assert_eq!(v.event_index, 6);
    }
}
