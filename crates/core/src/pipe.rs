//! The opt-in pipeline event trace.
//!
//! Where [`RetiredEvent`](crate::RetiredEvent) records the
//! *architectural* history (squashed work never appears, used by the
//! conformance checker), a [`PipeEvent`] records *microarchitectural*
//! activity: every instruction entering the ROB — wrong-path fetches
//! included — beginning execution and retiring, fence dispatch and
//! completion, the scope unit's degrade/overflow/recovery paths, and
//! memory accesses that walked the shared L2/directory.
//!
//! Events carry the emitting core and cycle; the simulator is
//! deterministic, so a fixed workload + config produces the same event
//! stream on every run regardless of host thread count. `sfence-obs`
//! renders the stream as Chrome `trace_event` JSON.
//!
//! Emission is gated by `CoreConfig::pipe_trace` (default off) behind
//! a plain bool check, so the per-cycle hot path pays one predictable
//! branch and no allocation when tracing is disabled.

/// Where a directory walk was satisfied. Mirrors the memory
/// hierarchy's `AccessOutcome` minus the plain L1 hits that never
/// reach the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkKind {
    /// L1 hit on a shared line; the write invalidated remote copies.
    Upgrade,
    /// L1 miss satisfied by the shared L2.
    L2Hit,
    /// L1 miss served by a writeback from a remote dirty L1.
    RemoteDirty,
    /// Missed everywhere; fetched from memory.
    MemMiss,
}

impl WalkKind {
    pub fn name(self) -> &'static str {
        match self {
            WalkKind::Upgrade => "upgrade",
            WalkKind::L2Hit => "l2_hit",
            WalkKind::RemoteDirty => "remote_dirty",
            WalkKind::MemMiss => "mem_miss",
        }
    }
}

/// What happened. Sequence numbers identify ROB entries: per core
/// they increase and never repeat, and after a squash they jump to
/// the next value whose low bits name the ROB's tail slot. Fences are
/// identified by their fetch `pc` because a blocked fence only
/// receives its sequence number once its wait clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeKind {
    /// Instruction entered the ROB (front-end dispatch, predicted
    /// path — squashed wrong-path fetches appear too).
    Fetch { seq: u64, pc: u64 },
    /// Instruction began executing (functional unit or memory).
    Issue { seq: u64, pc: u64 },
    /// Instruction retired from the ROB head.
    Retire { seq: u64, pc: u64 },
    /// A fence computed its wait condition at the issue stage.
    /// `scoped` = the scope unit answered with a column mask rather
    /// than a drain-everything wait.
    FenceDispatch { pc: u64, scoped: bool },
    /// The fence's wait condition cleared (issue unblocked, or the
    /// speculative fence was allowed to retire).
    FenceComplete { pc: u64 },
    /// A scoped fence degraded to a traditional full fence.
    Degrade { pc: u64 },
    /// The fence scope stack overflowed on a scope entry.
    Overflow { seq: u64 },
    /// The scope unit recovered speculative scope state after a
    /// squash (misprediction or coherence replay) from `from_seq`.
    Recovery { from_seq: u64 },
    /// A memory access that walked the L2/directory.
    DirWalk {
        addr: u64,
        write: bool,
        walk: WalkKind,
        latency: u64,
    },
}

impl PipeKind {
    /// Stable event name used by the trace exporter.
    pub fn name(&self) -> &'static str {
        match self {
            PipeKind::Fetch { .. } => "fetch",
            PipeKind::Issue { .. } => "issue",
            PipeKind::Retire { .. } => "retire",
            PipeKind::FenceDispatch { .. } => "fence_dispatch",
            PipeKind::FenceComplete { .. } => "fence_complete",
            PipeKind::Degrade { .. } => "degrade",
            PipeKind::Overflow { .. } => "overflow",
            PipeKind::Recovery { .. } => "recovery",
            PipeKind::DirWalk { .. } => "dir_walk",
        }
    }
}

/// One pipeline event: which core, when, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeEvent {
    pub core: u32,
    pub cycle: u64,
    pub kind: PipeKind,
}
