//! The per-core scope unit: mapping table + FSS + FSS′ + outstanding
//! counters, driven by the core's issue/complete/squash events.
//!
//! This is the hardware the paper adds to each out-of-order core
//! (Fig. 7). The CPU model calls into it:
//!
//! - at **issue** (in program order along the predicted path):
//!   [`ScopeUnit::fs_start`], [`ScopeUnit::fs_end`],
//!   [`ScopeUnit::mem_issued`] (returns the FSB mask to stash in the
//!   ROB entry), [`ScopeUnit::branch_issued`];
//! - at **branch resolution**: [`ScopeUnit::branch_resolved`] — on a
//!   misprediction the FSS is recovered from the shadow stack FSS′, as
//!   in the paper;
//! - at **completion/squash** of memory operations:
//!   [`ScopeUnit::mem_completed`] / [`ScopeUnit::mem_squashed`];
//! - at **fence issue**: [`ScopeUnit::fence_request`] captures what
//!   the fence must wait for, and [`ScopeUnit::mask_clear`] answers
//!   the per-cycle "is this FSB column clear everywhere?" check.

use crate::coverage::{self, CoverageSet};
use crate::mapping::{MapResult, MappingTable};
use crate::mask::{ColumnCounters, ScopeMask, MAX_FSB_ENTRIES};
use crate::stack::{ScopeOp, ScopeStack};
use sfence_isa::{ClassId, FenceKind};
use std::collections::VecDeque;

/// Scope-unit geometry (paper Table III: 4 FSB entries, 4 FSS entries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeConfig {
    /// FSB columns per ROB/SB entry. The last column is reserved for
    /// set scope; the rest are class columns.
    pub fsb_entries: usize,
    /// FSS (and FSS′) capacity.
    pub fss_entries: usize,
    /// Mapping-table rows.
    pub mapping_entries: usize,
    /// Fault injection for the fuzzer's bug-detection smoke test:
    /// model broken RTL that treats "no tracked scope" as "nothing to
    /// wait for" — a scoped fence that should degrade to a full wait
    /// (FSS overflow, mapping-table overflow, or fencing outside any
    /// tracked scope) instead waits on nothing. Never set outside
    /// `sfence-fuzz --inject-bug`; the default hardware is the
    /// paper's always-safe degrade.
    pub skip_degrade_on_overflow: bool,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        Self {
            fsb_entries: 4,
            fss_entries: 4,
            // Not fixed by the paper; four rows match the four FSB
            // columns and keep the §VI-E cost under 80 bytes/core.
            mapping_entries: 4,
            skip_degrade_on_overflow: false,
        }
    }
}

/// What an issued fence waits for, captured at its issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceWait {
    /// Behave as a traditional fence: wait for *all* prior memory
    /// operations (global fences, and any scoped fence that degraded).
    All,
    /// Wait until the given FSB columns are clear.
    Mask(ScopeMask),
}

/// Scope-unit statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeUnitStats {
    pub fs_starts: u64,
    pub fs_ends: u64,
    pub scoped_mem_ops: u64,
    pub flagged_mem_ops: u64,
    pub degraded_fences: u64,
    pub scoped_fences: u64,
    pub mispredict_recoveries: u64,
    /// FSS pushes that overflowed capacity (entries into degraded
    /// mode), attributable per core.
    pub fss_overflows: u64,
}

/// The per-core scope unit.
#[derive(Debug, Clone)]
pub struct ScopeUnit {
    cfg: ScopeConfig,
    fss: ScopeStack,
    /// FSS′: updated only by scope operations with no unconfirmed
    /// prior branch; a misprediction restores `FSS <- FSS'` and
    /// replays the still-correct pending operations.
    shadow: ScopeStack,
    /// Scope ops issued behind an unconfirmed branch, not yet applied
    /// to FSS′ (sequence-tagged).
    pending: VecDeque<(u64, ScopeOp)>,
    /// In-flight branches in program order, with confirmation status.
    branches: VecDeque<(u64, bool)>,
    /// The FSS as of the retirement boundary, plus all scope ops
    /// issued but not yet retired. Together these reconstruct the FSS
    /// at *any* unretired point — needed by in-window speculation
    /// violation replay, which (unlike branch misprediction, which
    /// FSS′ handles as in the paper) can squash from an arbitrary
    /// load.
    retired: ScopeStack,
    inflight: VecDeque<(u64, ScopeOp)>,
    mt: MappingTable,
    counts: ColumnCounters,
    pub stats: ScopeUnitStats,
    /// Which micro-architectural paths this unit exercised (the
    /// fuzzer's corpus key). The CPU core also records its fence
    /// stall paths here.
    pub coverage: CoverageSet,
}

impl ScopeUnit {
    pub fn new(cfg: ScopeConfig) -> Self {
        assert!(
            (2..=MAX_FSB_ENTRIES).contains(&cfg.fsb_entries),
            "fsb_entries must be in 2..=16 (one column is reserved for set scope)"
        );
        let class_columns = (cfg.fsb_entries - 1) as u8;
        Self {
            cfg,
            fss: ScopeStack::new(cfg.fss_entries),
            shadow: ScopeStack::new(cfg.fss_entries),
            pending: VecDeque::new(),
            branches: VecDeque::new(),
            retired: ScopeStack::new(cfg.fss_entries),
            inflight: VecDeque::new(),
            mt: MappingTable::new(cfg.mapping_entries, class_columns),
            counts: ColumnCounters::new(),
            stats: ScopeUnitStats::default(),
            coverage: CoverageSet::EMPTY,
        }
    }

    /// The FSB column reserved for set scope (the last one, Fig. 9).
    pub fn set_column(&self) -> u8 {
        (self.cfg.fsb_entries - 1) as u8
    }

    fn apply_op(&mut self, seq: u64, op: ScopeOp) {
        self.fss.apply(op);
        self.inflight.push_back((seq, op));
        if self.branches.is_empty() {
            self.shadow.apply(op);
        } else {
            self.pending.push_back((seq, op));
        }
    }

    /// An `fs_start`/`fs_end` retired (architectural). Must be called
    /// in retirement order.
    pub fn fs_retired(&mut self) {
        let (_, op) = self
            .inflight
            .pop_front()
            .expect("fs retirement without matching issue");
        self.retired.apply(op);
    }

    /// Issue an `fs_start cid`.
    pub fn fs_start(&mut self, cid: ClassId, seq: u64) {
        self.stats.fs_starts += 1;
        let was_degraded = self.fss.degraded();
        let op = if was_degraded {
            // Inside an untracked region: don't touch the mapping table.
            ScopeOp::Push(None)
        } else {
            let before = self.mapping_stats();
            let res = self.mt.lookup_or_alloc(cid);
            let after = self.mapping_stats();
            self.coverage.insert(match () {
                _ if after.0 > before.0 => coverage::MAP_HIT,
                _ if after.3 > before.3 => coverage::MAP_FULL,
                _ if after.2 > before.2 => coverage::MAP_FALLBACK,
                _ => coverage::MAP_ALLOC,
            });
            match res {
                MapResult::Column(col) => ScopeOp::Push(Some(col)),
                MapResult::TableFull => ScopeOp::Push(None),
            }
        };
        self.coverage.insert(match op {
            ScopeOp::Push(Some(_)) => coverage::FSS_PUSH,
            _ => coverage::FSS_PUSH_UNTRACKED,
        });
        self.apply_op(seq, op);
        if !was_degraded && self.fss.degraded() {
            self.stats.fss_overflows += 1;
            self.coverage.insert(coverage::FSS_OVERFLOW);
        }
    }

    /// Issue an `fs_end`.
    pub fn fs_end(&mut self, seq: u64) {
        self.stats.fs_ends += 1;
        self.coverage.insert(coverage::FSS_POP);
        self.apply_op(seq, ScopeOp::Pop);
        self.reclaim();
    }

    /// Issue a memory operation; returns the FSB mask for its
    /// ROB/SB entry. Counters are incremented; the CPU must balance
    /// every call with [`Self::mem_completed`] or
    /// [`Self::mem_squashed`].
    pub fn mem_issued(&mut self, set_flagged: bool) -> ScopeMask {
        let mut mask = self.fss.mask();
        if set_flagged {
            mask = mask.union(ScopeMask::column(self.set_column()));
            self.stats.flagged_mem_ops += 1;
            self.coverage.insert(coverage::SET_FLAGGED);
        }
        if !mask.is_empty() {
            self.stats.scoped_mem_ops += 1;
        }
        self.counts.add(mask);
        mask
    }

    /// A branch entered the window (issue order).
    pub fn branch_issued(&mut self, seq: u64) {
        self.branches.push_back((seq, false));
    }

    /// A branch resolved. On a misprediction the CPU squashes all
    /// younger instructions; this call performs the FSS recovery.
    pub fn branch_resolved(&mut self, seq: u64, mispredicted: bool) {
        if !mispredicted {
            for b in self.branches.iter_mut() {
                if b.0 == seq {
                    b.1 = true;
                    break;
                }
            }
            self.drain_confirmed();
            return;
        }

        self.stats.mispredict_recoveries += 1;
        self.coverage.insert(coverage::RECOVER_SHADOW);
        // Everything at or after the mispredicted branch is squashed.
        self.branches.retain(|&(s, _)| s < seq);
        self.pending.retain(|&(s, _)| s < seq);
        self.inflight.retain(|&(s, _)| s < seq);
        // FSS <- FSS', then replay the surviving (correct-path) pending
        // ops that FSS' has not absorbed yet.
        self.fss.restore_from(&self.shadow);
        for i in 0..self.pending.len() {
            let (_, op) = self.pending[i];
            self.fss.apply(op);
        }
        self.reclaim();
    }

    /// Recover the FSS to the state just before instruction `seq`
    /// (everything at or after `seq` is being squashed — used by
    /// in-window speculation violation replay, where the squash point
    /// is an arbitrary load rather than a branch). Reconstructs from
    /// the retirement boundary, then rebuilds FSS′ and the pending
    /// queue so later branch recoveries stay consistent.
    pub fn squash_from(&mut self, seq: u64) {
        self.stats.mispredict_recoveries += 1;
        self.coverage.insert(coverage::RECOVER_SQUASH);
        self.branches.retain(|&(s, _)| s < seq);
        self.inflight.retain(|&(s, _)| s < seq);
        // FSS = retired boundary + surviving in-flight ops.
        self.fss.restore_from(&self.retired);
        for i in 0..self.inflight.len() {
            let (_, op) = self.inflight[i];
            self.fss.apply(op);
        }
        // Rebuild FSS′/pending: ops with no unconfirmed prior branch
        // are absorbed; the rest stay pending.
        self.shadow.restore_from(&self.retired);
        self.pending.clear();
        let first_unconfirmed = self.branches.front().map(|&(s, _)| s);
        for i in 0..self.inflight.len() {
            let (s, op) = self.inflight[i];
            match first_unconfirmed {
                Some(f) if s > f => self.pending.push_back((s, op)),
                _ => self.shadow.apply(op),
            }
        }
        self.reclaim();
    }

    fn drain_confirmed(&mut self) {
        while let Some(&(_, confirmed)) = self.branches.front() {
            if !confirmed {
                break;
            }
            self.branches.pop_front();
            let next_seq = self.branches.front().map(|&(s, _)| s);
            // Apply pending ops now free of unconfirmed prior branches.
            while let Some(&(s, op)) = self.pending.front() {
                if next_seq.is_some_and(|ns| s > ns) {
                    break;
                }
                self.pending.pop_front();
                self.shadow.apply(op);
            }
        }
    }

    /// A memory operation completed (load value bound / store drained).
    pub fn mem_completed(&mut self, mask: ScopeMask) {
        self.counts.remove(mask);
        if !mask.is_empty() {
            self.reclaim();
        }
    }

    /// A memory operation was squashed before completing.
    pub fn mem_squashed(&mut self, mask: ScopeMask) {
        self.mem_completed(mask);
    }

    /// Invalidate mappings of quiescent, inactive columns (paper: a
    /// mapping is removed once all FSB bits of its entry are clear and
    /// the scope is gone).
    fn reclaim(&mut self) {
        // Candidates: mapped columns with no outstanding operations.
        // Both sides are cached bitmasks, so the common case (nothing
        // to reclaim) is two word ops and no allocation.
        let mut candidates = self.mt.mapped_mask().0 & !self.counts.nonzero_mask().0;
        while candidates != 0 {
            let col = candidates.trailing_zeros() as u8;
            candidates &= candidates - 1;
            if !self.column_active(col) {
                self.mt.invalidate_column(col);
                self.coverage.insert(coverage::FSB_EVICT);
            }
        }
    }

    fn column_active(&self, col: u8) -> bool {
        self.fss.contains(col)
            || self.shadow.contains(col)
            || self.retired.contains(col)
            || self
                .inflight
                .iter()
                .any(|&(_, op)| op == ScopeOp::Push(Some(col)))
    }

    /// Capture what a fence must wait for, at its issue (paper §IV-A-4:
    /// "the top of FSS indicates which entry of FSB is flagging the
    /// current scope").
    pub fn fence_request(&mut self, kind: FenceKind) -> FenceWait {
        let wait = match kind {
            FenceKind::Global => FenceWait::All,
            _ if self.fss.degraded() => FenceWait::All, // overflow mode
            FenceKind::Set => FenceWait::Mask(ScopeMask::column(self.set_column())),
            FenceKind::Class => match self.fss.top() {
                Some(col) => FenceWait::Mask(ScopeMask::column(col)),
                // A class fence outside any tracked scope (markers
                // disabled, or scope lost to overflow): conservative.
                None => FenceWait::All,
            },
        };
        match wait {
            FenceWait::All if kind != FenceKind::Global => {
                self.stats.degraded_fences += 1;
                self.coverage.insert(coverage::FENCE_DEGRADED);
            }
            FenceWait::Mask(_) => {
                self.stats.scoped_fences += 1;
                self.coverage.insert(coverage::FENCE_SCOPED);
            }
            FenceWait::All => self.coverage.insert(coverage::FENCE_GLOBAL),
        }
        if self.cfg.skip_degrade_on_overflow && kind != FenceKind::Global && wait == FenceWait::All
        {
            // Injected bug (see `ScopeConfig::skip_degrade_on_overflow`):
            // the degrade path waits on nothing instead of everything.
            return FenceWait::Mask(ScopeMask::EMPTY);
        }
        wait
    }

    /// Are all columns in `mask` clear of outstanding operations?
    pub fn mask_clear(&self, mask: ScopeMask) -> bool {
        self.counts.clear_in(mask)
    }

    /// Current FSS depth (diagnostics).
    pub fn fss_depth(&self) -> usize {
        self.fss.depth()
    }

    /// Is the unit currently degraded (overflow counter nonzero)?
    pub fn degraded(&self) -> bool {
        self.fss.degraded()
    }

    /// Mapping-table statistics passthrough.
    pub fn mapping_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.mt.hits,
            self.mt.allocs,
            self.mt.fallback_allocs,
            self.mt.full_rejections,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> ScopeUnit {
        ScopeUnit::new(ScopeConfig::default())
    }

    #[test]
    fn mem_in_nested_scopes_sets_all_levels() {
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        let outer = u.mem_issued(false);
        u.fs_start(ClassId(1), 2);
        let inner = u.mem_issued(false);
        assert_eq!(outer.count(), 1);
        assert_eq!(inner.count(), 2, "inner op flags outer scope too");
        u.fs_end(3);
        u.fs_end(4);
        // Scopes exited but ops outstanding: class fence would degrade
        // (FSS empty), and columns are still counted.
        assert!(!u.mask_clear(inner));
        u.mem_completed(outer);
        u.mem_completed(inner);
        assert!(u.mask_clear(inner));
    }

    #[test]
    fn class_fence_waits_only_for_its_column() {
        let mut u = unit();
        u.fs_start(ClassId(7), 1);
        let m_in = u.mem_issued(false);
        u.fs_end(2);
        // Outside the scope now; an unscoped op:
        let m_out = u.mem_issued(false);
        assert!(m_out.is_empty());
        u.fs_start(ClassId(7), 3);
        let wait = u.fence_request(FenceKind::Class);
        let FenceWait::Mask(mask) = wait else {
            panic!("expected scoped wait")
        };
        assert!(!u.mask_clear(mask), "in-scope op still outstanding");
        u.mem_completed(m_in);
        assert!(u.mask_clear(mask), "unscoped op never blocks it");
    }

    #[test]
    fn set_fence_uses_reserved_column() {
        let mut u = unit();
        let flagged = u.mem_issued(true);
        let plain = u.mem_issued(false);
        assert!(flagged.contains(u.set_column()));
        assert!(plain.is_empty());
        let FenceWait::Mask(mask) = u.fence_request(FenceKind::Set) else {
            panic!()
        };
        assert!(!u.mask_clear(mask));
        u.mem_completed(flagged);
        assert!(u.mask_clear(mask));
        u.mem_completed(plain);
    }

    #[test]
    fn global_fence_requests_all() {
        let mut u = unit();
        assert_eq!(u.fence_request(FenceKind::Global), FenceWait::All);
    }

    #[test]
    fn overflow_degrades_fences_then_recovers() {
        let mut u = ScopeUnit::new(ScopeConfig {
            fss_entries: 1,
            ..ScopeConfig::default()
        });
        u.fs_start(ClassId(0), 1);
        assert!(matches!(
            u.fence_request(FenceKind::Class),
            FenceWait::Mask(_)
        ));
        u.fs_start(ClassId(1), 2); // FSS full -> overflow
        assert!(u.degraded());
        assert_eq!(u.fence_request(FenceKind::Class), FenceWait::All);
        assert_eq!(u.fence_request(FenceKind::Set), FenceWait::All);
        u.fs_end(3);
        assert!(!u.degraded());
        assert!(matches!(
            u.fence_request(FenceKind::Class),
            FenceWait::Mask(_)
        ));
        u.fs_end(4);
        assert_eq!(u.stats.degraded_fences, 2);
        assert_eq!(u.stats.fss_overflows, 1);
        assert!(u.coverage.contains(coverage::FSS_OVERFLOW));
        assert!(u.coverage.contains(coverage::FENCE_DEGRADED));
        assert!(u.coverage.contains(coverage::FENCE_SCOPED));
    }

    #[test]
    fn injected_bug_makes_degraded_fences_wait_on_nothing() {
        let mut u = ScopeUnit::new(ScopeConfig {
            fss_entries: 1,
            skip_degrade_on_overflow: true,
            ..ScopeConfig::default()
        });
        u.fs_start(ClassId(0), 1);
        let m = u.mem_issued(false);
        u.fs_start(ClassId(1), 2); // overflow -> degraded
        assert!(u.degraded());
        // Correct hardware would degrade to FenceWait::All; the
        // injected bug returns an empty mask, which is always "clear".
        let FenceWait::Mask(mask) = u.fence_request(FenceKind::Class) else {
            panic!("bug must replace the degraded full wait");
        };
        assert!(mask.is_empty());
        assert!(u.mask_clear(mask), "op at {m:?} outstanding, yet no wait");
        // Global fences are untouched by the injection.
        assert_eq!(u.fence_request(FenceKind::Global), FenceWait::All);
        u.mem_completed(m);
    }

    #[test]
    fn coverage_tracks_mapping_paths() {
        let mut u = ScopeUnit::new(ScopeConfig {
            fsb_entries: 2, // one class column + the set column
            mapping_entries: 1,
            ..ScopeConfig::default()
        });
        u.fs_start(ClassId(0), 1);
        assert!(u.coverage.contains(coverage::MAP_ALLOC));
        assert!(!u.coverage.contains(coverage::MAP_HIT));
        u.fs_start(ClassId(0), 2);
        assert!(u.coverage.contains(coverage::MAP_HIT));
        u.fs_start(ClassId(1), 3); // table full -> untracked push
        assert!(u.coverage.contains(coverage::MAP_FULL));
        assert!(u.coverage.contains(coverage::FSS_PUSH_UNTRACKED));
    }

    #[test]
    fn mapping_reclaimed_after_quiescence() {
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        let m = u.mem_issued(false);
        u.fs_end(2);
        u.fs_retired();
        u.fs_retired();
        // Column still counted -> not reclaimed; same cid hits.
        u.fs_start(ClassId(0), 3);
        u.fs_end(4);
        u.fs_retired();
        u.fs_retired();
        let (hits, allocs, _, _) = u.mapping_stats();
        assert_eq!((hits, allocs), (1, 1));
        u.mem_completed(m);
        // Quiescent + inactive -> mapping invalidated; next start re-allocs.
        u.fs_start(ClassId(0), 5);
        u.fs_end(6);
        let (hits2, allocs2, _, _) = u.mapping_stats();
        assert_eq!((hits2, allocs2), (1, 2));
    }

    #[test]
    fn arbitrary_point_squash_reconstructs_fss() {
        // fs_start A retired; fs_start B in flight; squash from a
        // point between them: FSS must contain A only, and a re-issued
        // B must nest correctly.
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        u.fs_retired();
        u.fs_start(ClassId(1), 5);
        assert_eq!(u.fss_depth(), 2);
        u.squash_from(3); // squashes the fs_start at seq 5
        assert_eq!(u.fss_depth(), 1);
        // Replayed path re-issues the inner scope.
        u.fs_start(ClassId(1), 7);
        assert_eq!(u.fss_depth(), 2);
        u.fs_end(8);
        u.fs_end(9);
        assert_eq!(u.fss_depth(), 0);
    }

    #[test]
    fn squash_then_branch_mispredict_stays_consistent() {
        // After an arbitrary-point squash, FSS' must have been rebuilt
        // so a later branch misprediction recovers correctly.
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        u.fs_retired();
        u.fs_start(ClassId(1), 4);
        u.squash_from(4); // drop the inner scope
        u.branch_issued(6);
        u.fs_start(ClassId(2), 7); // wrong path
        assert_eq!(u.fss_depth(), 2);
        u.branch_resolved(6, true);
        assert_eq!(u.fss_depth(), 1, "only the retired outer scope remains");
        u.fs_end(9);
        assert_eq!(u.fss_depth(), 0);
    }

    #[test]
    fn shadow_recovery_discards_wrong_path_scope_ops() {
        // fs_start A; branch B; (wrong path) fs_end A; mispredict ->
        // FSS must still contain A's scope.
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        u.branch_issued(2);
        u.fs_end(3); // wrong path: pops FSS, queued for FSS'
        assert_eq!(u.fss_depth(), 0);
        u.branch_resolved(2, true); // mispredicted
        assert_eq!(u.fss_depth(), 1, "FSS restored from FSS'");
        let m = u.mem_issued(false);
        assert_eq!(m.count(), 1);
        u.mem_completed(m);
        u.fs_end(4);
        assert_eq!(u.stats.mispredict_recoveries, 1);
    }

    #[test]
    fn confirmed_branch_applies_pending_ops_to_shadow() {
        let mut u = unit();
        u.branch_issued(1);
        u.fs_start(ClassId(0), 2); // pending (unconfirmed branch prior)
        u.branch_issued(3);
        u.fs_start(ClassId(1), 4); // pending behind branch 3
        u.branch_resolved(1, false); // confirm oldest
                                     // Ops older than branch 3 are applied to FSS'; op at 4 stays
                                     // pending. Mispredicting branch 3 must keep scope A.
        u.branch_resolved(3, true);
        assert_eq!(u.fss_depth(), 1);
    }

    #[test]
    fn out_of_order_confirmation_respects_program_order() {
        let mut u = unit();
        u.branch_issued(1);
        u.branch_issued(3);
        u.fs_start(ClassId(0), 4);
        // Younger branch confirms first: nothing drains yet.
        u.branch_resolved(3, false);
        assert_eq!(u.fss_depth(), 1);
        // Older confirms: both drain, pending op reaches FSS'.
        u.branch_resolved(1, false);
        // Mispredict-free path: FSS and FSS' agree.
        u.fs_end(5);
        assert_eq!(u.fss_depth(), 0);
    }

    #[test]
    fn squash_decrements_counters() {
        let mut u = unit();
        u.fs_start(ClassId(0), 1);
        let m = u.mem_issued(false);
        u.fs_end(2);
        assert!(!u.mask_clear(m));
        u.mem_squashed(m);
        assert!(u.mask_clear(m));
    }

    #[test]
    fn nested_same_class_reuses_column() {
        let mut u = unit();
        u.fs_start(ClassId(5), 1);
        u.fs_start(ClassId(5), 2);
        let m = u.mem_issued(false);
        assert_eq!(m.count(), 1, "same class twice = one column");
        u.fs_end(3);
        // Still inside the outer invocation of the same class.
        let FenceWait::Mask(mask) = u.fence_request(FenceKind::Class) else {
            panic!()
        };
        assert!(!u.mask_clear(mask));
        u.mem_completed(m);
        u.fs_end(4);
    }
}
