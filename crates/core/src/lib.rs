//! # sfence-core
//!
//! The paper's primary contribution: the **scoped fence (S-Fence)**
//! mechanism.
//!
//! - [`mask`] — fence scope bits (FSB) attached to every ROB and
//!   store-buffer entry, with per-column outstanding counters.
//! - [`stack`] — the fence scope stack (FSS) with bounded capacity and
//!   the overflow counter that degrades fences when scopes exceed the
//!   hardware.
//! - [`mapping`] — the cid → FSB-column mapping table, including the
//!   shared fallback column.
//! - [`unit`](mod@unit) — the per-core scope unit tying the above together,
//!   including the shadow stack FSS′ for branch-misprediction recovery.
//! - [`semantics`] — the Fig. 5 trace conformance checker: it applies
//!   the paper's class-scope rules to a retired trace and validates the
//!   CPU model against the definition of S-Fence.
//! - [`coverage`] — the compact event bitmap of scope-unit paths the
//!   fuzzer (`sfence-fuzz`) keys its corpus on.
//! - [`pipe`] — the opt-in pipeline event taxonomy the CPU model emits
//!   for the observability layer (`sfence-obs` renders it as Chrome
//!   `trace_event` JSON).
//! - [`cost`] — the §VI-E hardware cost accounting.

pub mod cost;
pub mod coverage;
pub mod mapping;
pub mod mask;
pub mod pipe;
pub mod semantics;
pub mod stack;
pub mod unit;

pub use cost::{hw_cost, HwCost};
pub use coverage::CoverageSet;
pub use mask::{ColumnCounters, ScopeMask, MAX_FSB_ENTRIES};
pub use pipe::{PipeEvent, PipeKind, WalkKind};
pub use semantics::{check_trace, ConformanceStats, RetiredEvent, Violation};
pub use sfence_isa::ClassId;
pub use unit::{FenceWait, ScopeConfig, ScopeUnit, ScopeUnitStats};
