//! Per-core execution statistics, including the fence-stall
//! attribution that the paper's figures are built from.

/// Statistics collected by one core over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired (architectural).
    pub instrs_retired: u64,
    /// Instructions issued (includes wrong-path work).
    pub instrs_issued: u64,
    pub loads: u64,
    pub stores: u64,
    pub cas_ops: u64,
    pub fences_retired: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Cycles the issue stage (T/S) or the retire stage (T+/S+) was
    /// blocked by a fence — the paper's "Fence Stalls" component.
    pub fence_stall_cycles: u64,
    /// Cycles issue was blocked because the ROB was full.
    pub rob_full_stall_cycles: u64,
    /// Cycles retire was blocked because the store buffer was full.
    pub sb_full_stall_cycles: u64,
    /// Load dispatches delayed by memory disambiguation.
    pub load_disambiguation_blocks: u64,
    pub branches_resolved: u64,
    pub mispredictions: u64,
    /// In-window speculation violation replays (loads squashed because
    /// a remote write invalidated their value before retirement).
    pub speculation_replays: u64,
    /// Cycle at which this core retired its `halt`.
    pub halted_at: Option<u64>,
    /// Cycle at which the core fully drained (halt + empty SB).
    pub finished_at: Option<u64>,
}

impl CoreStats {
    /// The counters a cycle may charge while its core neither issues
    /// nor retires; [`Core::skip`](crate::Core::skip) repeats one such
    /// cycle's charge. A new stall class is one more entry here.
    pub(crate) fn stall_counters(&mut self) -> [&mut u64; 4] {
        [
            &mut self.fence_stall_cycles,
            &mut self.rob_full_stall_cycles,
            &mut self.sb_full_stall_cycles,
            &mut self.load_disambiguation_blocks,
        ]
    }
}
